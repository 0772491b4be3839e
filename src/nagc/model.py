"""The generative model: context encoders, attribute-node message passing,
the three decision pickers, teacher-forced training and beam-search decoding.

All decision math lives in the pick_* functions; decoding calls them on
incrementally computed states under no_grad, so teacher forcing and decoding
share one implementation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import attrgraph as ag
from . import lang
from . import neural as nn
from .grammar import (
    Grammar, GrammarError, Kind, UNK_LITERAL, load_grammar, production_mask, serialize_grammar,
)
from .syntax import new_partial_ast, apply_production, bind_terminal, serialize_tokens


class ModelError(Exception):
    pass


class TrainingDivergedError(ModelError):
    pass


VAR_LABEL = "<VAR>"
UNK_TOKEN = "<UNK>"
SELF_TOKEN = "<SELF>"  # the variable a usage window belongs to
OTHER_VAR_TOKEN = "<OTHERVAR>"  # any other in-scope variable

_GRAPH_ENC_INTERNAL = (
    "program", "decl", "assign", "if", "while",
    ".Length", "[]", ".StartsWith", ".Contains", ".Substring", ".IndexOf",
)


@dataclass(frozen=True)
class DecoderConfig:
    name: str
    edge_set: tuple
    child_labels: bool
    attention: bool
    variable_pooling: bool


CONFIGS = {
    "Tree": DecoderConfig("Tree", (ag.CHILD,), False, False, False),
    "ASN": DecoderConfig("ASN", (ag.CHILD,), True, False, False),
    "Syn": DecoderConfig("Syn", (ag.CHILD, ag.NEXT_EXP), False, False, False),
    "NAG": DecoderConfig("NAG", ag.PAPER_EDGE_TYPES, True, True, True),
}


@dataclass
class ContextEncoding:
    root: object  # (H,) tensor seeding the root inherited attribute
    token_states: object  # (T, H) tensor aligned with the context tokens
    var_reps: dict  # name -> (H,) tensor


@dataclass
class StepLoss:
    entries: list = field(default_factory=list)  # (kind, nll) pairs

    def add(self, kind, nll: float):
        self.entries.append((kind, nll))

    def total(self):
        return sum(v for _, v in self.entries)

    def __len__(self):
        return len(self.entries)


def token_vocab_from_samples(samples, top_k: int = 500) -> list:
    from collections import Counter

    counts = Counter()
    for s in samples:
        counts.update(s.before)
        counts.update(s.after)
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return [UNK_TOKEN, lang.HOLE_TOKEN, SELF_TOKEN, OTHER_VAR_TOKEN] + [t for t, _ in top]


class Model:
    """Parameters plus every fixed vocabulary derived from the grammar."""

    def __init__(self, grammar: Grammar, config="NAG", encoder="seq",
                 hidden=64, emb_dim=32, edge_emb=16, seed=0, token_vocab=None):
        if isinstance(config, str):
            try:
                config = CONFIGS[config]
            except KeyError:
                raise ModelError(f"unknown decoder config {config!r}") from None
        if encoder not in ("seq", "graph"):
            raise ModelError(f"unknown encoder {encoder!r}")
        self.grammar = grammar
        self.config = config
        self.encoder = encoder
        self.hidden = hidden
        self.emb_dim = emb_dim
        self.edge_emb = edge_emb
        self.seed = seed
        self.token_vocab = (
            list(token_vocab)
            if token_vocab
            else [UNK_TOKEN, lang.HOLE_TOKEN, SELF_TOKEN, OTHER_VAR_TOKEN]
        )
        self.tok2id = {t: i for i, t in enumerate(self.token_vocab)}

        # attribute-node label vocabulary
        labels = []
        for name, sym in grammar.symbols.items():
            if sym.kind in (Kind.NONTERMINAL, Kind.FIXED):
                labels.append(name)
        labels.append(VAR_LABEL)
        for cls in sorted(grammar.literal_vocab):
            labels.extend(grammar.literal_vocab[cls])
        self.label_vocab = list(dict.fromkeys(labels))
        self.label2id = {l: i for i, l in enumerate(self.label_vocab)}

        self.edge_label2id = {}
        for p in grammar.productions:
            for i in range(len(p.rhs)):
                self.edge_label2id[(p.pid, i)] = len(self.edge_label2id)

        self.graph_labels = list(dict.fromkeys(self.token_vocab + list(_GRAPH_ENC_INTERNAL)))
        self.glab2id = {l: i for i, l in enumerate(self.graph_labels)}

        self._masks = {}
        self.params = nn.init_params(self._shapes(), seed)

    def mask(self, nt: str) -> np.ndarray:
        if nt not in self._masks:
            self._masks[nt] = production_mask(self.grammar, nt)
        return self._masks[nt]

    def _shapes(self) -> dict:
        H, E, Ee = self.hidden, self.emb_dim, self.edge_emb
        g, cfg = self.grammar, self.config
        shapes = {"dec_emb_label": (len(self.label_vocab), E)}
        shapes.update(nn.gru_param_shapes("dec_g", E, H))
        for etype in cfg.edge_set:
            in_dim = H + (Ee if etype == ag.CHILD and cfg.child_labels else 0)
            shapes[f"dec_f_{etype}_W"] = (in_dim, H)
            shapes[f"dec_f_{etype}_b"] = (H,)
        if cfg.child_labels:
            shapes["dec_emb_edge"] = (len(self.edge_label2id), Ee)
        score_in = H * (1 + cfg.attention + cfg.variable_pooling)
        shapes["dec_score_W"] = (score_in, len(g.productions))
        shapes["dec_score_b"] = (len(g.productions),)
        if cfg.attention:
            shapes["dec_att_Wm"] = (H, H)
            shapes["dec_att_Wk"] = (H, H)
            shapes["dec_att_w"] = (H,)
        shapes["dec_var_B"] = (H, H)
        shapes["dec_var_w"] = (H,)
        for cls, vocab in g.literal_vocab.items():
            shapes[f"dec_lit_{cls}_W"] = (H, len(vocab))
            shapes[f"dec_lit_{cls}_b"] = (len(vocab),)
        shapes["dec_copy_B"] = (H, H)
        shapes["enc_root_W"] = (H, H)
        shapes["enc_root_b"] = (H,)
        shapes["enc_var_dflt"] = (H,)
        if self.encoder == "seq":
            shapes["enc_tok_emb"] = (len(self.token_vocab), E)
            half = H // 2
            for layer, in_dim in ((1, E), (2, H)):
                for d in ("f", "b"):
                    shapes.update(nn.gru_param_shapes(f"enc_seq{layer}_{d}", in_dim, half))
                    shapes.update(nn.gru_param_shapes(f"enc_use{layer}_{d}", in_dim, half))
        else:
            shapes["enc_gnode_emb"] = (len(self.graph_labels), H)
            for name in ("Child", "ChildRev", "NextToken", "NextTokenRev", "LastUse", "LastUseRev"):
                shapes[f"enc_gg_{name}_W"] = (H, H)
                shapes[f"enc_gg_{name}_b"] = (H,)
            shapes.update(nn.gru_param_shapes("enc_gg_g", H, H))
        return shapes


# ---------------------------------------------------------------------------
# Structural preprocessing (cached per sample; parameter-independent)

@dataclass
class Prepped:
    sample: object
    ctx_order: list
    tokens: list  # before + hole sentinel + after
    tok_idx: np.ndarray
    lex: dict  # class -> (positions, spellings) of copyable context tokens
    pgraph: object = None
    pg_idx: np.ndarray = None
    pg_edges: dict = None
    # tree-dependent fields, set by prep_sample only
    tree: object = None
    graph: object = None  # AttributeGraph under the model's decoder config
    label_idx: np.ndarray = None  # per attribute node; -1 on encoder-seeded nodes
    plan: list = None  # decision plan mirroring tree.history
    n_tokens: int = 0


def _attr_label_id(model: Model, tree, node: ag.AttrNode) -> int:
    if node.flavor in ("inh", "syn"):
        return model.label2id[node.label]
    ast = tree.nodes[node.origin]
    sym = tree.grammar.symbols[ast.label]
    if sym.kind is Kind.FIXED:
        return model.label2id[ast.label]
    if sym.kind is Kind.VARIABLE:
        return model.label2id[VAR_LABEL]
    spelling = ast.binding
    if spelling in model.grammar.literal_vocab[sym.lit_class]:
        return model.label2id[spelling]
    return model.label2id[UNK_LITERAL[sym.lit_class]]


def _lexable(cls: str, tok: str) -> bool:
    if cls == "int":
        return tok.isdigit()
    if cls == "string":
        return tok.startswith('"')
    return tok in ("true", "false")


def prep_context(model: Model, sample) -> Prepped:
    """Tokens, copy candidates and (graph encoder) program graph of the
    context around the hole: everything encoding and decoding need."""
    tokens = sample.before + [lang.HOLE_TOKEN] + sample.after
    lex = {}
    for cls in ("int", "string", "bool"):
        pos = [i for i, t in enumerate(tokens) if _lexable(cls, t)]
        lex[cls] = (pos, [tokens[i] for i in pos])
    pr = Prepped(
        sample=sample, ctx_order=sorted(sample.scope), tokens=tokens,
        tok_idx=np.array([model.tok2id.get(t, 0) for t in tokens], dtype=np.int64),
        lex=lex,
    )
    if model.encoder == "graph":
        _prep_program_graph(model, pr)
    return pr


def prep_sample(model: Model, sample) -> Prepped:
    """prep_context plus the target tree's attribute graph and decision plan."""
    g, cfg = model.grammar, model.config
    tree = sample.target_tree(g)
    pr = prep_context(model, sample)
    graph = ag.augment_full_tree(tree, pr.ctx_order, edge_set=cfg.edge_set,
                                 labels=cfg.child_labels)
    label_idx = np.full(len(graph.nodes), -1, dtype=np.int64)
    comp = graph.components[0]
    seeded = {comp["root_inh"]} | set(comp["ctx"].values())
    for node in graph.nodes:
        if node.aid not in seeded:
            label_idx[node.aid] = _attr_label_id(model, tree, node)

    inh, joint = comp["inh"], comp["joint"]
    plan = []
    for dec in tree.history:
        if dec[0] == "P":
            plan.append(("P", inh[dec[1]], dec[2], tree.nodes[dec[1]].label))
        elif dec[0] == "V":
            plan.append(("V", inh[tree.nodes[dec[1]].parent], dec[2], joint[dec[1]]))
        else:
            plan.append(("L", inh[tree.nodes[dec[1]].parent], dec[2], dec[3]))

    pr.tree, pr.graph, pr.label_idx, pr.plan = tree, graph, label_idx, plan
    pr.n_tokens = len(serialize_tokens(tree))
    return pr


def _prep_program_graph(model: Model, pr: Prepped):
    try:
        pg = lang.program_graph(pr.tokens)
    except lang.LangError as e:
        raise ModelError(f"context not parseable for graph encoder: {e}") from None
    pr.pgraph = pg
    pr.pg_idx = np.array(
        [model.glab2id.get(l, model.glab2id[UNK_TOKEN]) for l in pg.labels], dtype=np.int64
    )
    edges = {
        "Child": pg.child_edges,
        "NextToken": pg.next_token_edges,
        "LastUse": pg.last_use_edges,
    }
    pr.pg_edges = {}
    for name, pairs in edges.items():
        if pairs:
            src = np.array([a for a, _ in pairs], dtype=np.int64)
            tgt = np.array([b for _, b in pairs], dtype=np.int64)
            pr.pg_edges[name] = (src, tgt)
            pr.pg_edges[name + "Rev"] = (tgt, src)


# ---------------------------------------------------------------------------
# Context encoders

def _encode_tokens(model: Model, idx, prefix: str):
    """Two bi-GRU layers over token ids, (T,) or time-major (T, B): the top
    layer's states, (T, ..., H), and its final state, (..., H)."""
    p = model.params
    x = nn.rows(p["enc_tok_emb"], idx)
    for layer in (1, 2):
        f = nn.gru_scan(x, p, f"{prefix}{layer}_f")
        b = nn.gru_scan(x, p, f"{prefix}{layer}_b", reverse=True)
        x = nn.concat([f, b], axis=-1)
    return x, nn.concat([nn.rows(f, len(idx) - 1), nn.rows(b, 0)], axis=-1)


def _mask_window(toks, name: str, scope) -> list:
    """Usage encoding is independent of variable spellings: the window's own
    variable reads as <SELF>, any other in-scope variable as <OTHERVAR>."""
    out = []
    for t in toks:
        if t == name:
            out.append(SELF_TOKEN)
        elif t in scope:
            out.append(OTHER_VAR_TOKEN)
        else:
            out.append(t)
    return out


def _encode_windows(model: Model, pr: Prepped) -> dict:
    """Each variable's rep: the two-layer bi-GRU final states of its nonempty
    usage windows, average pooled; enc_var_dflt when it has none. All windows
    of one length run as one time-major batch, so no padding is needed."""
    windows, owner = [], []
    for name in pr.ctx_order:
        for _, toks in pr.sample.usages.get(name, []):
            if toks:
                masked = _mask_window(toks, name, pr.sample.scope)
                windows.append([model.tok2id.get(t, 0) for t in masked])
                owner.append(name)
    by_len = sorted(range(len(windows)), key=lambda i: len(windows[i]))
    finals = [
        _encode_tokens(model, np.array([windows[i] for i in group], dtype=np.int64).T, "enc_use")[1]
        for _, group in itertools.groupby(by_len, key=lambda i: len(windows[i]))
    ]
    row = np.empty(len(windows), dtype=np.int64)  # window -> its row in all_finals
    row[by_len] = np.arange(len(windows))
    all_finals = nn.concat(finals) if finals else None
    var_reps = {}
    for name in pr.ctx_order:
        pos = [row[i] for i, o in enumerate(owner) if o == name]
        var_reps[name] = nn.mean_rows(nn.rows(all_finals, pos)) if pos else model.params["enc_var_dflt"]
    return var_reps


def encode_seq(model: Model, pr: Prepped) -> ContextEncoding:
    token_states, final = _encode_tokens(model, pr.tok_idx, "enc_seq")
    root = nn.linear(final, model.params, "enc_root")
    return ContextEncoding(root, token_states, _encode_windows(model, pr))


def encode_graph(model: Model, pr: Prepped, steps: int = 8) -> ContextEncoding:
    return encode_graph_many(model, [pr], steps)[0]


def encode_graph_many(model: Model, preppeds, steps: int = 8):
    """Encode several context graphs as one disconnected GGNN batch."""
    p = model.params
    idx_parts, edge_arrays, offsets = [], {}, []
    off = 0
    for pr in preppeds:
        offsets.append(off)
        idx_parts.append(pr.pg_idx)
        for name, (src, tgt) in pr.pg_edges.items():
            s, t = edge_arrays.setdefault(name, ([], []))
            s.append(src + off)
            t.append(tgt + off)
        off += len(pr.pg_idx)
    h = nn.rows(p["enc_gnode_emb"], np.concatenate(idx_parts))
    if edge_arrays:  # a context without edges keeps its embeddings
        edges = nn.EdgeIndex(off, h.data.shape[1], [
            (np.concatenate(s), np.concatenate(t)) for s, t in edge_arrays.values()
        ])
        prefixes = [f"enc_gg_{name}" for name in edge_arrays]
        for _ in range(steps):
            h = nn.gru_cell(nn.edge_messages(h, edges, p, prefixes), h, p, "enc_gg_g")
    out = []
    for pr, off in zip(preppeds, offsets):
        pg = pr.pgraph
        token_states = nn.rows(h, np.asarray(pg.terminals, dtype=np.int64) + off)
        root = nn.linear(nn.rows(h, pg.hole_node + off), p, "enc_root")
        var_reps = {}
        for name in pr.ctx_order:
            if name in pg.decl_nodes:
                var_reps[name] = nn.rows(h, pg.decl_nodes[name] + off)
            else:
                var_reps[name] = p["enc_var_dflt"]
        out.append(ContextEncoding(root, token_states, var_reps))
    return out


def encode(model: Model, pr: Prepped) -> ContextEncoding:
    return encode_seq(model, pr) if model.encoder == "seq" else encode_graph(model, pr)


def encode_many(model: Model, preppeds):
    if model.encoder == "graph":
        return encode_graph_many(model, preppeds)
    return [encode_seq(model, pr) for pr in preppeds]


# ---------------------------------------------------------------------------
# Node representations

def node_representation(model: Model, label_id: int, in_edges, state_of):
    """h_v for one attribute node: GRU of the label embedding against the
    summed edge-type-transformed predecessor messages."""
    p, cfg = model.params, model.config
    msgs = None
    # canonical order: the sum must not depend on how in-edges were listed
    in_edges = sorted(in_edges, key=lambda e: (e.etype, e.src, e.label or (-1, -1)))
    for e in in_edges:
        src = state_of(e.src)
        if e.etype == ag.CHILD and cfg.child_labels:
            src = nn.concat([src, nn.rows(p["dec_emb_edge"], model.edge_label2id[e.label])])
        m = nn.linear(src, p, f"dec_f_{e.etype}")
        msgs = m if msgs is None else nn.add(msgs, m)
    if msgs is None:
        raise ModelError("attribute node has no in-edges; schedule violation")
    x = nn.rows(p["dec_emb_label"], label_id)
    return nn.gru_cell(x, msgs, p, "dec_g")


def propagate(model: Model, batched: ag.AttributeGraph, label_idx: np.ndarray,
              preppeds, encodings):
    """Full-graph propagation over a (possibly batched) attribute graph.

    Round 0 holds the encoder-seeded nodes; later rounds are evaluated as
    whole vectorized layers.
    """
    p, cfg = model.params, model.config
    N = len(batched.nodes)
    src_ids, src_rows = [], []
    for comp, enc, pr in zip(batched.components, encodings, preppeds):
        src_ids.append(comp["root_inh"])
        src_rows.append(enc.root)
        for name in pr.ctx_order:
            src_ids.append(comp["ctx"][name])
            src_rows.append(enc.var_reps[name])
    states = nn.scatter_rows(N, src_ids, nn.stack_rows(src_rows))

    round_of = {}
    pos_in_round = {}
    for r, rnd in enumerate(batched.schedule):
        for i, a in enumerate(rnd):
            round_of[a] = r
            pos_in_round[a] = i
    per_round: list[dict] = [dict() for _ in batched.schedule]
    for e in batched.edges:
        per_round[round_of[e.tgt]].setdefault(e.etype, []).append(e)

    for r, rnd in enumerate(batched.schedule):
        if r == 0:
            continue
        msgs = None
        for etype, es in per_round[r].items():
            srcs = [e.src for e in es]
            tgts = [pos_in_round[e.tgt] for e in es]
            inp = nn.rows(states, srcs)
            if etype == ag.CHILD and cfg.child_labels:
                lab = [model.edge_label2id[e.label] for e in es]
                inp = nn.concat([inp, nn.rows(p["dec_emb_edge"], lab)], axis=1)
            m = nn.scatter_rows(len(rnd), tgts, nn.linear(inp, p, f"dec_f_{etype}"))
            msgs = m if msgs is None else nn.add(msgs, m)
        x = nn.rows(p["dec_emb_label"], label_idx[rnd])
        new = nn.gru_cell(x, msgs, p, "dec_g")
        states = nn.add(states, nn.scatter_rows(N, rnd, new))
    return states


# ---------------------------------------------------------------------------
# Pickers

def _production_logits(model: Model, key, enc: ContextEncoding = None,
                       var_rows=None):
    p, cfg = model.params, model.config
    inp = key
    if cfg.attention:
        inp = nn.concat([inp, nn.attention(key, enc.token_states, p, "dec_att")])
    if cfg.variable_pooling:
        if var_rows:
            pool = nn.max_pool_rows(nn.stack_rows(var_rows))
        else:
            pool = nn.Tensor(np.zeros(model.hidden, dtype=key.data.dtype))
        inp = nn.concat([inp, pool])
    return nn.linear(inp, p, "dec_score")


def pick_production_dist(model: Model, key, nt: str, enc: ContextEncoding = None,
                         var_rows=None):
    """Masked distribution over all productions, restricted to lhs == nt."""
    return nn.masked_softmax(_production_logits(model, key, enc, var_rows),
                             model.mask(nt))


def _variable_scores(model: Model, key, var_rows):
    if not var_rows:
        raise ModelError("no variables in scope")
    p = model.params
    V = nn.stack_rows(var_rows)
    return nn.add(
        nn.matmul(nn.matmul(key, p["dec_var_B"]), nn.transpose(V)),
        nn.matmul(V, p["dec_var_w"]),
    )


def pick_variable_dist(model: Model, key, var_rows):
    """Pointer distribution over the in-scope variables, in the given order."""
    return nn.softmax(_variable_scores(model, key, var_rows))


def _literal_scores(model: Model, key, cls: str, enc: ContextEncoding, lex):
    p = model.params
    vocab = model.grammar.literal_vocab[cls]
    scores = nn.linear(key, p, f"dec_lit_{cls}")
    positions, spellings = lex
    entries = list(vocab)
    if positions:
        mem = nn.rows(enc.token_states, positions)
        copy = nn.matmul(nn.matmul(key, p["dec_copy_B"]), nn.transpose(mem))
        scores = nn.concat([scores, copy])
        entries += spellings
    return scores, entries


def pick_literal_dist(model: Model, key, cls: str, enc: ContextEncoding, lex):
    """One softmax over class vocab scores ++ copy scores of lexable context
    tokens. Returns (probs, spellings) with one entry per softmax slot."""
    scores, entries = _literal_scores(model, key, cls, enc, lex)
    return nn.softmax(scores), entries


def literal_spelling_probs(probs, entries) -> dict:
    """Merged distribution over distinct entries: a literal spelling's vocab
    and copy slots summed."""
    out = {}
    for sp, pr in zip(entries, probs.data):
        out[sp] = out.get(sp, 0.0) + float(pr)
    return out


def _literal_target_indices(entries, target: str, cls: str):
    idxs = [i for i, sp in enumerate(entries) if sp == target]
    if not idxs:
        idxs = [entries.index(UNK_LITERAL[cls])]
    return idxs


# ---------------------------------------------------------------------------
# Teacher forcing

def tree_log_prob(model: Model, pr: Prepped, states, offset: int,
                  enc: ContextEncoding):
    """Negative log-probability of the ground-truth tree under teacher
    forcing, with per-decision tags. `states` must come from propagate."""
    log_terms = []
    step_loss = StepLoss()
    var_aid = {name: None for name in pr.ctx_order}

    def var_row(name):
        aid = var_aid[name]
        return enc.var_reps[name] if aid is None else nn.rows(states, offset + aid)

    # stable log-softmax path: log-probs computed in the log domain so a
    # wide logit spread cannot underflow the target slot to exact zero
    for dec in pr.plan:
        key = nn.rows(states, offset + dec[1])
        rows = [var_row(n) for n in pr.ctx_order]
        if dec[0] == "P":
            logits = _production_logits(model, key, enc, rows)
            logp = nn.masked_log_softmax(logits, model.mask(dec[3]))
            idxs = [dec[2]]
        elif dec[0] == "V":
            logp = nn.log_softmax(_variable_scores(model, key, rows))
            idxs = [pr.ctx_order.index(dec[2])]
            var_aid[dec[2]] = dec[3]
        else:
            scores, entries = _literal_scores(model, key, dec[2], enc, pr.lex[dec[2]])
            logp = nn.log_softmax(scores)
            idxs = _literal_target_indices(entries, dec[3], dec[2])
        ll = nn.logsumexp(nn.gather_elems(logp, idxs))
        log_terms.append(ll)
        step_loss.add(dec[0], -float(ll.data))
    total = log_terms[0]
    for t in log_terms[1:]:
        total = nn.add(total, t)
    return nn.scale(total, -1.0), step_loss


def batch_loss(model: Model, preppeds):
    """Summed teacher-forcing loss over a batch as one disconnected graph."""
    encodings = encode_many(model, preppeds)
    batched = ag.batch_graphs([pr.graph for pr in preppeds])
    label_idx = np.concatenate([pr.label_idx for pr in preppeds])
    states = propagate(model, batched, label_idx, preppeds, encodings)
    total = None
    steps = []
    for pr, comp, enc in zip(preppeds, batched.components, encodings):
        loss, sl = tree_log_prob(model, pr, states, comp["offset"], enc)
        total = loss if total is None else nn.add(total, loss)
        steps.append(sl)
    return total, steps


def sample_loss(model: Model, sample):
    """(nll, StepLoss) for one sample; gradient-free convenience wrapper."""
    pr = sample if isinstance(sample, Prepped) else prep_sample(model, sample)
    with nn.no_grad():
        loss, steps = batch_loss(model, [pr])
    return float(loss.data), steps[0]


# ---------------------------------------------------------------------------
# Training

def _clip_gradients(params, max_norm: float) -> float:
    """Scale the gradients down to norm max_norm (when set and exceeded);
    returns their norm before clipping."""
    sq = 0.0
    for _, t in params.items():
        if t.grad is not None:
            sq += float(np.sum(np.square(t.grad, dtype=np.float64)))
    norm = math.sqrt(sq)
    if max_norm and norm > max_norm:
        scale = max_norm / norm
        for _, t in params.items():
            if t.grad is not None:
                t.grad *= scale
    return norm


def train(model: Model, samples, epochs: int, batch_size: int = 20,
          seed: int = 0, lr: float = 1e-3, valid=None, log=None,
          clip_norm: float = 5.0):
    """Teacher-forced MLE training; returns per-epoch metric dicts."""
    if not samples:
        raise ModelError("empty training fold")
    if batch_size < 1:
        raise ModelError(f"batch size must be >= 1, got {batch_size}")
    preppeds = [prep_sample(model, s) for s in samples]
    opt = nn.OptState(lr=lr)
    history = []
    for epoch in range(epochs):
        order = np.random.default_rng([seed, epoch]).permutation(len(preppeds))
        total_nll = 0.0
        total_decisions = 0
        norms = []
        for lo in range(0, len(order), batch_size):
            batch = [preppeds[i] for i in order[lo : lo + batch_size]]
            model.params.zero_grad()
            try:
                loss, steps = batch_loss(model, batch)
            except nn.DegenerateMaskError:
                # saturated logits collapsed a softmax support
                raise TrainingDivergedError(f"degenerate softmax at epoch {epoch}")
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            nn.backward(loss)
            norm = _clip_gradients(model.params, clip_norm)
            if not math.isfinite(norm):
                raise TrainingDivergedError(f"non-finite gradient at epoch {epoch}")
            norms.append(norm)
            nn.adam_step(model.params, opt)
            total_nll += float(loss.data)
            total_decisions += sum(len(s) for s in steps)
        rec = {
            "epoch": epoch,
            "train_nll": total_nll,
            "ppl_decision": math.exp(total_nll / total_decisions),
            "grad_norm_max": max(norms),
            "clipped_share": sum(v > clip_norm for v in norms) / len(norms) if clip_norm else 0.0,
        }
        if valid:
            rec["valid_ppl_decision"] = fold_perplexity(model, valid)[0]
        history.append(rec)
        if log:
            log(rec)
    return history


def fold_perplexity(model: Model, samples) -> tuple:
    """(per-decision, per-token) perplexity of a fold under teacher forcing."""
    nll = 0.0
    decisions = 0
    tokens = 0
    for s in samples:
        pr = prep_sample(model, s)
        loss, steps = sample_loss(model, pr)
        nll += loss
        decisions += len(steps)
        tokens += pr.n_tokens
    return math.exp(nll / decisions), math.exp(nll / tokens)


# ---------------------------------------------------------------------------
# Beam decoding

@dataclass
class BeamResult:
    hypotheses: list  # (tree, log_prob), best first
    discarded: int  # hypotheses dropped for exceeding max-steps


class _Hyp:
    __slots__ = ("builder", "states", "var_rows", "logp")

    def __init__(self, builder, states, var_rows, logp):
        self.builder = builder
        self.states = states  # aid -> (H,) tensor
        self.var_rows = var_rows  # name -> (H,) tensor
        self.logp = logp

    def clone(self):
        return _Hyp(self.builder.copy(), dict(self.states), dict(self.var_rows), self.logp)


def _settle_states(model: Model, hyp: _Hyp):
    tree = hyp.builder.tree
    for node, in_edges in hyp.builder.settle():
        label_id = _attr_label_id(model, tree, node)
        hyp.states[node.aid] = node_representation(model, label_id, in_edges, hyp.states.__getitem__)


def decode_beam(model: Model, before, after, scope, width: int = 5,
                max_steps: int = 50) -> BeamResult:
    """Frontier-ordered beam search; hypotheses carry incremental attribute
    states so no full propagation is ever run during decoding."""
    if width < 1 or max_steps < 1:
        raise ModelError("width and max-steps must be >= 1")
    from .pipeline import Sample

    sample = Sample(file="", before=list(before), after=list(after), hole_type="",
                    scope=dict(scope), usages=_windows_for_decode(before, after, scope),
                    target="")
    with nn.no_grad():
        return _decode(model, sample, width, max_steps)


def _windows_for_decode(before, after, scope):
    from .pipeline import _usages_for

    return {name: _usages_for(name, list(before), list(after)) for name in scope}


def _root_hyp(model: Model, pr: Prepped, enc: ContextEncoding) -> _Hyp:
    """The empty tree, its root and context attribute nodes seeded from the
    context encoding."""
    cfg = model.config
    builder = ag.GraphBuilder(new_partial_ast(model.grammar), pr.ctx_order,
                              edge_set=cfg.edge_set, labels=cfg.child_labels)
    states = {builder.aid_of[("inh", 0)]: enc.root}
    for name in pr.ctx_order:
        states[builder.aid_of[("ctx", name)]] = enc.var_reps[name]
    return _Hyp(builder, states, {n: enc.var_reps[n] for n in pr.ctx_order}, 0.0)


def _decode(model: Model, sample, width, max_steps) -> BeamResult:
    pr = prep_context(model, sample)
    enc = encode(model, pr)
    beam = [_root_hyp(model, pr, enc)]
    finished: list[_Hyp] = []
    for _ in range(max_steps):
        if not beam:
            break
        pool = [(h.logp, None, h) for h in finished]
        for hyp in beam:
            pool.extend(_continuations(model, hyp, enc, pr, width))
        pool.sort(key=lambda x: -x[0])
        beam, finished = [], []
        for logp, action, hyp in pool[:width]:
            if action is None:
                finished.append(hyp)
                continue
            child = hyp.clone()
            child.logp = logp
            _apply_action(model, child, action)
            if child.builder.site is None:
                finished.append(child)
            else:
                beam.append(child)

    finished.sort(key=lambda h: -h.logp)
    return BeamResult(
        hypotheses=[(h.builder.tree, h.logp) for h in finished],
        discarded=len(beam),
    )


def _score_site(model: Model, hyp: _Hyp, enc: ContextEncoding, pr: Prepped):
    """(probs, actions) at the next expansion site, one action per softmax
    slot. A variable slot with an empty scope is a dead end: no actions."""
    tree, site = hyp.builder.tree, hyp.builder.site
    node = tree.nodes[site]
    rows = [hyp.var_rows[n] for n in pr.ctx_order]
    if tree.is_unexpanded_nonterminal(site):
        key = hyp.states[hyp.builder.aid_of[("inh", site)]]
        probs = pick_production_dist(model, key, node.label, enc, rows)
        return probs, [("P", site, pid) for pid in range(len(probs.data))]
    key = hyp.states[hyp.builder.aid_of[("inh", node.parent)]]
    sym = model.grammar.symbols[node.label]
    if sym.kind is Kind.VARIABLE:
        if not rows:
            return nn.Tensor(np.zeros(0)), []
        return pick_variable_dist(model, key, rows), [("V", site, n) for n in pr.ctx_order]
    probs, spellings = pick_literal_dist(model, key, sym.lit_class, enc, pr.lex[sym.lit_class])
    return probs, [("L", site, sp) for sp in spellings]


def _continuations(model: Model, hyp: _Hyp, enc, pr: Prepped, width):
    """The `width` best one-action extensions of `hyp`. Equal actions (a
    literal spelled in the vocab and copied from the context) merge first."""
    probs, actions = _score_site(model, hyp, enc, pr)
    merged = literal_spelling_probs(probs, actions)
    out = [(hyp.logp + math.log(p), action, hyp) for action, p in merged.items() if p > 0]
    out.sort(key=lambda x: -x[0])
    return out[:width]


def _apply_action(model: Model, hyp: _Hyp, action):
    kind, site, arg = action
    if kind == "P":
        apply_production(hyp.builder.tree, site, model.grammar.productions[arg])
    else:
        bind_terminal(hyp.builder.tree, site, arg)
    _settle_states(model, hyp)
    if kind == "V":
        hyp.var_rows[arg] = hyp.states[hyp.builder.aid_of[("joint", site)]]


def forced_decode(model: Model, sample):
    """The decoder's step forced along the sample's ground-truth history.

    Returns (states, dists): the final aid -> vector map and one probability
    array per decision, for comparison against the teacher-forcing path.
    """
    pr = sample if isinstance(sample, Prepped) else prep_sample(model, sample)
    with nn.no_grad():
        enc = encode(model, pr)
        hyp = _root_hyp(model, pr, enc)
        dists = []
        for dec in pr.tree.history:
            probs, _ = _score_site(model, hyp, enc, pr)
            dists.append(probs.data.copy())
            # (kind, site, arg): a literal record also carries its class
            _apply_action(model, hyp, dec[:2] + dec[-1:])
    return {aid: t.data for aid, t in hyp.states.items()}, dists


# ---------------------------------------------------------------------------
# Persistence

def save_model(model: Model, path: str):
    nn.save_checkpoint(model.params, path)
    gtext = serialize_grammar(model.grammar)
    manifest = {
        "config": model.config.name,
        "encoder": model.encoder,
        "hidden": model.hidden,
        "emb_dim": model.emb_dim,
        "edge_emb": model.edge_emb,
        "seed": model.seed,
        "token_vocab": model.token_vocab,
        "grammar": gtext,
        "grammar_sha256": hashlib.sha256(gtext.encode()).hexdigest(),
    }
    with open(path + ".json", "w", encoding="utf-8") as f:
        json.dump(manifest, f)


def load_model(path: str) -> Model:
    try:
        with open(path + ".json", encoding="utf-8") as f:
            manifest = json.load(f)
        if hashlib.sha256(manifest["grammar"].encode()).hexdigest() != manifest["grammar_sha256"]:
            raise ModelError("grammar hash mismatch in manifest")
        grammar = load_grammar(manifest["grammar"])
        model = Model(
            grammar, config=manifest["config"], encoder=manifest["encoder"],
            hidden=manifest["hidden"], emb_dim=manifest["emb_dim"],
            edge_emb=manifest["edge_emb"], seed=manifest["seed"],
            token_vocab=manifest["token_vocab"],
        )
    except (ValueError, KeyError, TypeError, AttributeError, GrammarError) as e:
        raise ModelError(f"bad model manifest {path}.json: {type(e).__name__}: {e}") from None
    loaded = nn.load_checkpoint(path)
    want = {n: t.data.shape for n, t in model.params.items()}
    if {n: t.data.shape for n, t in loaded.items()} != want:
        raise ModelError("checkpoint parameters do not match the manifest model")
    model.params = loaded
    return model
