"""The generative model: context encoders, attribute-node message passing,
the decision scorers, teacher-forced training and beam-search decoding.

All decision math lives in three batched scorers, one per decision kind
(production, variable, literal), and every attribute state comes from one
message-passing kernel, node_representation, which runs all rounds of new
nodes as one nn.gated_rounds call: teacher forcing propagates and scores a
whole batch at once, and beam search settles and scores every site of a
chunk of holes per step. Training and decoding thus share one
implementation.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import attrgraph as ag
from . import lang
from . import neural as nn
from .grammar import (
    LITERAL_CLASSES, Grammar, GrammarError, Kind, UNK_LITERAL, load_grammar, production_mask,
    serialize_grammar,
)
from .syntax import new_partial_ast, read_decisions, recordable


class ModelError(Exception):
    pass


class TrainingDivergedError(ModelError):
    pass


VAR_LABEL = "<VAR>"
UNK_TOKEN = "<UNK>"
SELF_TOKEN = "<SELF>"  # the variable a usage window belongs to
OTHER_VAR_TOKEN = "<OTHERVAR>"  # any other in-scope variable
# the graph encoder's GGNN edge types: each program edge type, then its reverse
GGNN_PREFIXES = tuple(f"enc_gg_{name}{rev}" for name in lang.PROGRAM_EDGE_TYPES
                      for rev in ("", "Rev"))


@dataclass(frozen=True)
class DecoderConfig:
    name: str
    edge_set: tuple
    child_labels: bool
    attention: bool
    variable_pooling: bool


ENCODERS = ("seq", "graph")  # context encoders, by name

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
class BatchEncoding:
    """The context encodings of a batch as batch-wide tables; indexing gives
    one sample's ContextEncoding."""
    roots: object  # (S, H) tensor
    var_table: object  # (K, H) tensor: each sample's context variables in ctx_order
    var_start: np.ndarray  # (S + 1,) the first var_table row of each sample
    tokens: object  # (sum of T, H) tensor: each sample's token states
    tok_start: np.ndarray  # (S + 1,) the first tokens row of each sample
    names: list  # each sample's ctx_order

    def __len__(self):
        return len(self.names)

    def __getitem__(self, i) -> ContextEncoding:
        v0 = self.var_start[i]
        return ContextEncoding(
            nn.rows(self.roots, i),
            nn.rows(self.tokens, np.arange(self.tok_start[i], self.tok_start[i + 1])),
            {name: nn.rows(self.var_table, v0 + j) for j, name in enumerate(self.names[i])},
        )


@dataclass
class StepLoss:
    """The teacher-forced NLL of every decision of a batch, in plan order,
    sample after sample."""
    nll: np.ndarray  # (D,)
    kind: np.ndarray  # (D,) "P", "V" or "L"

    def total(self):
        return float(self.nll.sum())

    def by_kind(self) -> dict:
        """The summed NLL nll_k and the count decisions_k of each kind k."""
        mine = {k: self.kind == k for k in "PVL"}
        return {**{f"nll_{k}": float(self.nll[m].sum()) for k, m in mine.items()},
                **{f"decisions_{k}": int(m.sum()) for k, m in mine.items()}}

    def __len__(self):
        return len(self.nll)


def token_vocab_from_samples(samples, top_k: int = 500) -> list:
    from collections import Counter

    counts = Counter()
    for s in samples:
        counts.update(s.before)
        counts.update(s.after)
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return [UNK_TOKEN, lang.HOLE_TOKEN, SELF_TOKEN, OTHER_VAR_TOKEN] + [t for t, _ in top]


class Model:
    """Parameters plus every fixed vocabulary derived from the grammar;
    given `params` (a loaded checkpoint), they must have the model's shapes."""

    def __init__(self, grammar: Grammar, config="NAG", encoder="seq",
                 hidden=64, emb_dim=32, edge_emb=16, seed=0, token_vocab=None, params=None):
        if isinstance(config, str):
            try:
                config = CONFIGS[config]
            except KeyError:
                raise ModelError(f"unknown decoder config {config!r}") from None
        if encoder not in ENCODERS:
            raise ModelError(f"unknown encoder {encoder!r}")
        if hidden < 1 or (encoder == "seq" and hidden % 2):  # each bi-GRU direction holds half
            raise ModelError(f"hidden {hidden} must be at least 1, and even under the seq encoder")
        for field, size, lo in (("emb_dim", emb_dim, 1), ("edge_emb", edge_emb, 0)):
            if size < lo:
                raise ModelError(f"{field} {size} must be at least {lo}")
        if token_vocab is None:
            token_vocab = [UNK_TOKEN, lang.HOLE_TOKEN, SELF_TOKEN, OTHER_VAR_TOKEN]
        # prep maps a token outside the vocab to row 0, so <UNK> must come first
        if not (isinstance(token_vocab, list) and token_vocab[:1] == [UNK_TOKEN]
                and all(isinstance(t, str) for t in token_vocab)):
            raise ModelError(f"token vocab must be a list of strings starting with {UNK_TOKEN}")
        self.grammar = grammar
        self.config = config
        self.encoder = encoder
        self.hidden = hidden
        self.emb_dim = emb_dim
        self.edge_emb = edge_emb
        self.seed = seed
        self.token_vocab = list(token_vocab)
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

        # child label (pid, i) has id edge_label_base[pid] + i
        self.edge_label_base = np.cumsum([0] + [len(p.rhs) for p in grammar.productions])

        self.graph_labels = list(dict.fromkeys(self.token_vocab + list(lang.INTERNAL_LABELS)))
        self.glab2id = {l: i for i, l in enumerate(self.graph_labels)}

        self._masks = {}
        shapes = self._shapes()  # checked before any allocation from a corrupt size
        if params is None:
            params = nn.init_params(shapes, seed)
        elif {n: t.data.shape for n, t in params.items()} != shapes:
            raise ModelError("checkpoint parameters do not match the manifest model")
        self.params = params
        self.ggnn_block = None  # an nn.StepBlock lent by train for the length of its run

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
            shapes["dec_emb_edge"] = (int(self.edge_label_base[-1]), Ee)
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
            for pre in GGNN_PREFIXES:
                shapes[pre + "_W"] = (H, H)
                shapes[pre + "_b"] = (H,)
            shapes.update(nn.gru_param_shapes("enc_gg_g", H, H))
        return shapes


# ---------------------------------------------------------------------------
# Structural preprocessing (cached per sample; parameter-independent)

@dataclass
class Prepped:
    ctx_order: list
    tokens: list  # before + hole sentinel + after
    tok_idx: np.ndarray
    lex: dict  # class -> (positions, spellings) of copyable context tokens
    pgraph: object = None
    pg_idx: np.ndarray = None
    windows: list = None  # seq encoder: (variable, masked token ids) per usage window
    # tree-dependent fields, set by prep_sample only
    tree: object = None
    graph: object = None  # AttributeGraph under the model's decoder config
    label_idx: np.ndarray = None  # per attribute node; -1 on encoder-seeded nodes
    plan: list = None  # decision plan mirroring tree.history
    var_rows: np.ndarray = None  # (decisions, |scope|) node of each variable's row
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


def prep_context(model: Model, before, after, scope) -> Prepped:
    """Tokens, copy candidates and the encoder's structure (seq: usage
    windows; graph: program graph) of the context around the hole:
    everything encoding and decoding need."""
    tokens = list(before) + [lang.HOLE_TOKEN] + list(after)
    lex = {cls: ([], []) for cls in LITERAL_CLASSES}
    for i, t in enumerate(tokens):
        cls = lang.literal_class(t)
        if cls is not None and recordable(t):  # a spaced literal is no copy candidate
            lex[cls][0].append(i)
            lex[cls][1].append(t)
    pr = Prepped(
        ctx_order=sorted(scope), tokens=tokens,
        tok_idx=np.array([model.tok2id.get(t, 0) for t in tokens], dtype=np.int64),
        lex=lex,
    )
    if model.encoder == "graph":
        _prep_program_graph(model, pr)
    else:
        pr.windows = _usage_windows(model, before, after, scope, pr.ctx_order)
    return pr


def prep_sample(model: Model, sample) -> Prepped:
    """prep_context plus the target tree's attribute graph and decision plan,
    read off a GraphBuilder that makes the target's decisions as decoding
    makes them: each decision's key, and its var_rows from `last_use`."""
    g, cfg = model.grammar, model.config
    pr = prep_context(model, sample.before, sample.after, sample.scope)
    builder = ag.GraphBuilder(new_partial_ast(g), pr.ctx_order, edge_set=cfg.edge_set,
                              labels=cfg.child_labels)
    label_idx = [-1] * len(builder.nodes)  # the encoder seeds the root and context nodes
    plan, var_rows = [], []
    for kind, arg in read_decisions(sample.target, builder):
        var_rows.append([builder.last_use[name] for name in pr.ctx_order])
        key, label = builder.key, builder.tree.nodes[builder.site].label
        created = builder.decide(kind, arg)
        label_idx += [_attr_label_id(model, builder.tree, node) for node in created]
        if kind == "P":
            plan.append(("P", key, arg, label))
        elif kind == "V":
            plan.append(("V", key, arg, builder.last_use[arg]))
        else:
            plan.append(("L", key, g.symbols[label].lit_class, arg))

    pr.tree, pr.graph, pr.plan = builder.tree, builder.graph(), plan
    pr.label_idx = np.array(label_idx, dtype=np.int64)
    pr.var_rows = np.array(var_rows, dtype=np.int64)
    pr.n_tokens = sum(node.flavor == "joint" for node in builder.nodes)  # one per token
    return pr


def _prep_program_graph(model: Model, pr: Prepped):
    try:
        pg = lang.program_graph(pr.tokens)
    except (lang.LangError, RecursionError) as e:  # the latter: nested too deeply
        raise ModelError(f"context not parseable for graph encoder: {e}") from None
    pr.pgraph = pg
    pr.pg_idx = np.array(
        [model.glab2id.get(l, model.glab2id[UNK_TOKEN]) for l in pg.labels], dtype=np.int64
    )


# ---------------------------------------------------------------------------
# Context encoders

def _padded(seqs, fill: int = -1) -> np.ndarray:
    """Rows of unequal length as one (len, longest) index array, fill after
    each row's end."""
    out = np.full((len(seqs), max(map(len, seqs), default=0)), fill, dtype=np.int64)
    for i, seq in enumerate(seqs):
        out[i, : len(seq)] = seq
    return out


def _encode_tokens(model: Model, idx, prefix: str, lengths=None):
    """Two bi-GRU layers over token ids, (T,) or time-major (T, B), with the
    lengths of a padded batch's columns: the top layer's states, (T, ..., H),
    and its final state, (..., H). Each layer is one masked, fused scan over
    both directions."""
    p = model.params
    x = nn.rows(p["enc_tok_emb"], idx)
    for layer in (1, 2):
        x = nn.bigru_scan(x, p, f"{prefix}{layer}", lengths)
    return x, nn.bigru_final(x)


_WINDOW = 5  # tokens each side of a variable use


def _usage_windows(model: Model, before, after, scope, ctx_order) -> list:
    """(variable, masked token ids) of each usage window: a use with up to
    _WINDOW tokens each side, never across the hole. Variables come in
    ctx_order, then windows before the hole before those after it, left to
    right. Usage encoding is independent of variable spellings: the window's
    own variable reads as <SELF>, any other in-scope variable as <OTHERVAR>."""
    windows = []
    for name in ctx_order:
        for toks in (before, after):
            for i, t in enumerate(toks):
                if t == name:
                    masked = [SELF_TOKEN if w == name else OTHER_VAR_TOKEN if w in scope else w
                              for w in toks[max(0, i - _WINDOW) : i + _WINDOW + 1]]
                    windows.append((name, [model.tok2id.get(w, 0) for w in masked]))
    return windows


def encode_seq(model: Model, pr: Prepped) -> ContextEncoding:
    return _encode_seq_many(model, [pr])[0]


def _encode_seq_many(model: Model, preppeds) -> BatchEncoding:
    """The seq encoder on a batch of contexts: the token sequences of all of
    them as one padded time-major batch, and all their usage windows as
    another, each batch one masked bi-GRU scan per layer. A variable's rep is
    the mean of its windows' final states; enc_var_dflt when it has none."""
    p = model.params
    lens = [len(pr.tok_idx) for pr in preppeds]
    states, final = _encode_tokens(model, _padded([pr.tok_idx for pr in preppeds], 0).T,
                                   "enc_seq", lens)
    S, H = len(preppeds), final.data.shape[-1]
    tokens = nn.rows(nn.reshape(states, (-1, H)),
                     np.concatenate([np.arange(n) * S + j for j, n in enumerate(lens)]))
    names = [pr.ctx_order for pr in preppeds]
    var_start = np.cumsum([0] + [len(ns) for ns in names])
    owner = np.array([var_start[j] + pr.ctx_order.index(name)
                      for j, pr in enumerate(preppeds) for name, _ in pr.windows], dtype=np.int64)
    ids = [w for pr in preppeds for _, w in pr.windows]
    parts = [nn.stack_rows([p["enc_var_dflt"]])]  # row 0; window i is row i + 1
    if ids:
        parts.append(_encode_tokens(model, _padded(ids, 0).T, "enc_use", [len(w) for w in ids])[1])
    count = np.bincount(owner, minlength=var_start[-1])
    mean = np.zeros((var_start[-1], len(ids) + 1), dtype=final.data.dtype)
    mean[count == 0, 0] = 1.0
    mean[owner, np.arange(1, len(ids) + 1)] = 1.0 / count[owner]
    return BatchEncoding(nn.linear(final, p, "enc_root"), nn.matmul(mean, nn.concat(parts)),
                         var_start, tokens, np.cumsum([0] + lens), names)


def encode_graph_many(model: Model, preppeds, steps: int = 8) -> BatchEncoding:
    """Encode several context graphs as one disconnected GGNN batch, all its
    steps one nn.ggnn node; the holes, tokens and declarations of all samples
    are one gather each. Program edge type k is GGNN type 2k and its reverse
    2k + 1; within a type, edges come sample after sample."""
    p = model.params
    pgs = [pr.pgraph for pr in preppeds]
    offsets = np.cumsum([0] + [len(pg.labels) for pg in pgs])
    off = offsets[-1]
    h = nn.rows(p["enc_gnode_emb"], np.concatenate([pr.pg_idx for pr in preppeds]))
    src, tgt, etype = (np.concatenate(a) for a in zip(*[
        (pg.src + o, pg.tgt + o, 2 * pg.etype) for pg, o in zip(pgs, offsets)]))
    etype = np.concatenate([etype, etype + 1])
    order = np.argsort(etype, kind="stable")
    edges = nn.EdgeIndex(off, h.data.shape[1], np.concatenate([src, tgt])[order],
                         np.concatenate([tgt, src])[order], etype[order], offsets[1:-1])
    h = nn.ggnn(h, edges, p, GGNN_PREFIXES, "enc_gg_g", steps, model.ggnn_block)
    roots = nn.linear(nn.rows(h, [pg.hole_node + o for pg, o in zip(pgs, offsets)]), p, "enc_root")
    n_tokens = [len(pr.tokens) for pr in preppeds]  # token i of a context is its node i
    tokens = nn.rows(h, np.concatenate([o + np.arange(n) for o, n in zip(offsets, n_tokens)]))
    # a variable the context does not declare reads enc_var_dflt, row `off`
    decls = [pg.decl_nodes[n] + o if n in pg.decl_nodes else off
             for pr, pg, o in zip(preppeds, pgs, offsets) for n in pr.ctx_order]
    if off in decls:
        h = nn.concat([h, nn.stack_rows([p["enc_var_dflt"]])])
    names = [pr.ctx_order for pr in preppeds]
    return BatchEncoding(
        roots, nn.rows(h, np.asarray(decls, dtype=np.int64)), np.cumsum([0] + [len(n) for n in names]),
        tokens, np.cumsum([0] + n_tokens), names,
    )


def encode(model: Model, pr: Prepped) -> ContextEncoding:
    return encode_many(model, [pr])[0]


def encode_many(model: Model, preppeds) -> BatchEncoding:
    many = _encode_seq_many if model.encoder == "seq" else encode_graph_many
    return many(model, preppeds)


# ---------------------------------------------------------------------------
# Attribute-node message passing

def node_representation(model: Model, table, rounds: nn.Rounds, label_ids, out=None):
    """The table of attribute states with the new nodes of `rounds` added,
    all rounds one nn.gated_rounds call: each new node's state is the GRU of
    its label embedding (label_ids, round by round) against the sum of its
    in-edge messages, whose edge types are ag.ETYPE_CODE codes. This is the
    one message-passing kernel: propagate (training) and the beam search
    compute every attribute state with it."""
    p, cfg = model.params, model.config
    return nn.gated_rounds(table, nn.rows(p["dec_emb_label"], label_ids), rounds, p,
                           [f"dec_f_{t}" for t in ag.ALL_EDGE_TYPES], "dec_g",
                           p["dec_emb_edge"] if cfg.child_labels else None, out)


def _rounds(model: Model, n: int, N: int, cols) -> nn.Rounds:
    """The layout of the message passing that adds rows n..N-1 to a table of
    n rows: cols is a (5, E) int array of GraphBuilder columns whose sources
    and targets are table rows, in target order. A new row's round is its
    propagation_schedule round, the table's rows all round 0; rows ascend
    within a round, and a round's edges come by type, target and source, so
    no message sum depends on the order in which the edges are listed."""
    src, tgt = cols[:2]
    ends = np.maximum(src - n + 1, 0), tgt - n + 1  # table rows are node 0, row n + k node k + 1
    rnd = np.array(ag.propagation_schedule(*ends, N - n + 1)[1:], dtype=np.int64)
    if not rnd.all():
        raise ModelError("attribute node has no in-edges; schedule violation")
    order = np.argsort(rnd, kind="stable")
    cut = np.searchsorted(rnd[order], np.arange(1, rnd.max(initial=0) + 2))
    pos = np.argsort(order) - cut[rnd - 1]  # each new row's position in its round
    src, tgt, etype, pid, child = cols[:, np.lexsort((src, tgt, cols[2], rnd[tgt - n]))]
    er = rnd[tgt - n]  # each edge's round, ascending
    first = [0, *(np.flatnonzero((er[1:] != er[:-1]) | (etype[1:] != etype[:-1])) + 1).tolist()]
    groups = [[] for _ in cut[1:]]  # per round, its (type, first, end) edge groups
    for r, t, a, z in zip(er[first].tolist(), etype[first].tolist(), first, first[1:] + [len(er)]):
        groups[r - 1].append((t, a, z))
    return nn.Rounds(n + order, cut, groups, src, pos[tgt - n], etype,
                     model.edge_label_base[pid] + child)


def propagate(model: Model, batched: ag.AttributeGraph, label_idx: np.ndarray,
              preppeds, encodings):
    """Full-graph propagation over a (possibly batched) attribute graph: the
    (N, H) attribute states in node order, seeded from the BatchEncoding
    `encodings` of `preppeds`.

    The table holds the encoder-seeded nodes first, then every other node in
    id order, all computed from their in-edges by one node_representation
    call over the _rounds layout.
    """
    seed = {}  # node -> its row of [roots; var_table], in id order
    for i, comp in enumerate(batched.components):
        seed[comp["root_inh"]] = i
        for j, name in enumerate(encodings.names[i]):
            seed[comp["ctx"][name]] = len(encodings) + encodings.var_start[i] + j
    n, N = len(seed), len(batched.nodes)
    node = np.concatenate([list(seed), np.setdiff1d(np.arange(N), list(seed))])  # of each row
    row = np.empty(N, dtype=np.int64)
    row[node] = np.arange(N)
    table = nn.rows(nn.concat([encodings.roots, encodings.var_table]), list(seed.values()))
    rounds = _rounds(model, n, N, np.stack([row[batched.src], row[batched.tgt], batched.etype,
                                            *batched.label.T]))
    return nn.rows(node_representation(model, table, rounds, label_idx[node[rounds.rows]]), row)


# ---------------------------------------------------------------------------
# Decision scorers: keys (D, H) score against rows idx of a table, with -1
# padding in idx. The decoder draws from their softmax over each site's
# support (_site_dists); the pickers are that distribution at one site.

def _score_sites(model: Model, kind: str, states, keys, owners, var_idx, nts, tokens, tok_start,
                 lexes, tok_proj=None):
    """(scores, support) of sites of one kind, "P", "V" or a literal class,
    one scorer call for all: keys (D,) rows of states, of samples owners (D,),
    with variable rows var_idx (D, V) of states and, at production sites,
    nonterminals nts. Sample o's context tokens are rows tok_start[o] to
    tok_start[o + 1] of tokens (tok_proj is tokens @ dec_att_Wm, when known)
    and lexes[o] its copy candidates, Prepped.lex. A production site's logits are dec_score
    of its key concatenated, as the config asks, with its attention over its
    sample's tokens and the max-pool of its variable rows (zeros without
    any). A literal site's slots are the class vocab, then the copy slots of
    its sample's lexable tokens."""
    p, cfg = model.params, model.config
    keys = nn.rows(states, keys)
    if kind == "P":
        parts = [keys]
        if cfg.attention:
            used = sorted(set(owners))  # the samples attended over
            toks = _padded([np.arange(tok_start[o], tok_start[o + 1]) for o in used])
            parts.append(nn.attention(keys, tokens, p, "dec_att", toks,
                                      np.searchsorted(used, owners), tok_proj))
        if cfg.variable_pooling:
            parts.append(nn.max_pool_rows(states, var_idx))
        scores = nn.linear(parts[0] if len(parts) == 1 else nn.concat(parts, axis=-1), p, "dec_score")
        return scores, np.isfinite([model.mask(nt) for nt in nts])
    if kind == "V":
        return nn.pointer_scores(keys, states, p["dec_var_B"], p["dec_var_w"], var_idx), var_idx >= 0
    copy_idx = _padded([tok_start[o] + np.asarray(lexes[o][kind][0], dtype=np.int64) for o in owners])
    scores = nn.linear(keys, p, f"dec_lit_{kind}")
    if copy_idx.shape[1]:
        copies = nn.pointer_scores(keys, tokens, p["dec_copy_B"], None, copy_idx)
        scores = nn.concat([scores, copies], axis=-1)
    vocab = np.ones((len(owners), len(model.grammar.literal_vocab[kind])), dtype=bool)
    return scores, np.concatenate([vocab, copy_idx >= 0], axis=1)


def _site_dists(model: Model, kind: str, *sites):
    """The decoder's distribution at sites of one kind, (D, slots): the
    softmax of _score_sites(model, kind, *sites) over each site's support,
    exactly zero off it."""
    scores, support = _score_sites(model, kind, *sites)
    return nn.masked_softmax(scores, np.where(support, 0.0, -np.inf))


def _slot_args(model: Model, pr: Prepped, kind: str):
    """The decision argument of each slot of a `kind` site of the context pr:
    every production id, its scope in ctx_order, or the class vocab and then
    the context's copy candidates."""
    if kind == "P":
        return range(len(model.grammar.productions))
    return pr.ctx_order if kind == "V" else [*model.grammar.literal_vocab[kind], *pr.lex[kind][1]]


def _one_site(model: Model, kind: str, key, var_rows=(), nt=None, enc: ContextEncoding = None,
              lex=None):
    """The decoder's distribution at one site, (slots,): _site_dists of a
    chunk of that site alone. Its state table is its key, then its
    variables' states var_rows; its context tokens are enc's token states
    (none without enc) and lex its copy candidates."""
    tokens = enc.token_states if enc else nn.Tensor(np.zeros((0, key.data.shape[-1]), key.data.dtype))
    probs = _site_dists(model, kind, nn.stack_rows([key, *var_rows]), [0], [0],
                        np.arange(1, len(var_rows) + 1)[None], [nt], tokens,
                        [0, len(tokens.data)], [{kind: lex}])
    return nn.rows(probs, 0)


def pick_production_dist(model: Model, key, nt: str, enc: ContextEncoding = None,
                         var_rows=None):
    """Masked distribution over all productions, restricted to lhs == nt."""
    return _one_site(model, "P", key, var_rows or (), nt, enc)


def pick_variable_dist(model: Model, key, var_rows):
    """Pointer distribution over the in-scope variables, in the given order."""
    if not var_rows:
        raise ModelError("no variables in scope")
    return _one_site(model, "V", key, var_rows)


def pick_literal_dist(model: Model, key, cls: str, enc: ContextEncoding, lex):
    """One softmax over class vocab scores ++ copy scores of lexable context
    tokens. Returns (probs, spellings) with one entry per softmax slot."""
    return _one_site(model, cls, key, enc=enc, lex=lex), [*model.grammar.literal_vocab[cls], *lex[1]]


def literal_spelling_probs(probs, entries) -> dict:
    """Merged distribution over distinct entries: a literal spelling's vocab
    and copy slots summed. probs is a tensor or an array."""
    out = {}
    for sp, pr in zip(entries, nn.as_tensor(probs).data.tolist()):
        out[sp] = out.get(sp, 0.0) + pr
    return out


# ---------------------------------------------------------------------------
# Teacher forcing

def tree_log_prob(model: Model, preppeds, offsets, states, enc: BatchEncoding):
    """Negative log-probability of the batch's ground-truth trees under
    teacher forcing, and its StepLoss. `states` must come from propagate and
    `offsets` hold each sample's first node. Every decision is scored at
    once, one group per kind (and literal class), each group's NLL one fused
    node."""
    g = model.grammar
    kinds = np.array([dec[0] for pr in preppeds for dec in pr.plan])
    owner = np.repeat(np.arange(len(preppeds)), [len(pr.plan) for pr in preppeds])
    decs = [dec for pr in preppeds for dec in pr.plan]
    keys = np.array([dec[1] for dec in decs], dtype=np.int64) + np.asarray(offsets)[owner]
    var_idx = _padded([rows + off for pr, off in zip(preppeds, offsets) for rows in pr.var_rows])
    groups = []  # (positions in plan order, scores, support, target)
    for kind in ("P", "V", *sorted(g.literal_vocab)):
        sel = np.flatnonzero([(dec[0] if dec[0] != "L" else dec[2]) == kind for dec in decs])
        if not sel.size:
            continue
        scores, support = _score_sites(model, kind, states, keys[sel], owner[sel], var_idx[sel],
                                       [decs[i][3] for i in sel], enc.tokens, enc.tok_start,
                                       [pr.lex for pr in preppeds])
        target = np.zeros(support.shape, dtype=bool)
        for row, i in enumerate(sel):
            if kind == "P":
                target[row, decs[i][2]] = True
                continue
            # every slot of the gold variable or spelling; out of vocab and context, its UNK
            args = _slot_args(model, preppeds[owner[i]], kind)
            hits = [k for k, a in enumerate(args) if a == decs[i][2 if kind == "V" else 3]]
            target[row, hits or args.index(UNK_LITERAL[kind])] = True
        groups.append((sel, scores, support, target))

    nlls = [nn.masked_nll(scores, support, target) for _, scores, support, target in groups]
    nll = nlls[0] if len(nlls) == 1 else nn.concat(nlls)
    per_decision = np.empty(len(decs))
    per_decision[np.concatenate([sel for sel, *_ in groups])] = nll.data
    return nn.tsum(nll), StepLoss(per_decision, kinds)


def batch_loss(model: Model, preppeds, encodings: BatchEncoding = None):
    """Summed teacher-forcing loss over a batch as one disconnected graph,
    and the batch's StepLoss; `encodings` is the batch's encode_many, run
    here when not given."""
    if encodings is None:
        encodings = encode_many(model, preppeds)
    batched = ag.batch_graphs([pr.graph for pr in preppeds])
    label_idx = np.concatenate([pr.label_idx for pr in preppeds])
    states = propagate(model, batched, label_idx, preppeds, encodings)
    offsets = [comp["offset"] for comp in batched.components]
    return tree_log_prob(model, preppeds, offsets, states, encodings)


def sample_loss(model: Model, sample):
    """(nll, StepLoss) for one sample; gradient-free convenience wrapper."""
    pr = sample if isinstance(sample, Prepped) else prep_sample(model, sample)
    with nn.no_grad():
        loss, steps = batch_loss(model, [pr])
    return float(loss.data), steps


# ---------------------------------------------------------------------------
# Training

def train(model: Model, samples, epochs: int, batch_size: int = 20,
          seed: int = 0, lr: float = 1e-3, valid=None, log=None,
          clip_norm: float = 5.0):
    """Teacher-forced MLE training; returns per-epoch metric dicts. Each
    record carries its phase times in seconds: prep_s (the prep pass, in
    epoch 0; 0.0 after), forward_s (batch_loss), backward_s and adam_s
    (gradient clipping and the update), and samples_per_s over the epoch's
    batches."""
    if not samples:
        raise ModelError("empty training fold")
    if batch_size < 1:
        raise ModelError(f"batch size must be >= 1, got {batch_size}")
    start = time.perf_counter()
    preppeds = [prep_sample(model, s) for s in samples]
    prep_s = time.perf_counter() - start
    opt = nn.OptState(lr=lr)
    history = []
    # the taped GGNN's step state, in one block reused from batch to batch
    model.ggnn_block = nn.StepBlock()
    try:
        for epoch in range(epochs):
            epoch_start = time.perf_counter()
            order = np.random.default_rng([seed, epoch]).permutation(len(preppeds))
            total_nll = 0.0
            total_decisions = 0
            kinds = {}  # nll_k and decisions_k summed over the epoch
            norms = []
            phase = dict.fromkeys(("forward_s", "backward_s", "adam_s"), 0.0)
            # an overflow or invalid value raises where NumPy meets it, as does a huge perplexity
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    for lo in range(0, len(order), batch_size):
                        batch = [preppeds[i] for i in order[lo : lo + batch_size]]
                        model.params.zero_grad()
                        t0 = time.perf_counter()
                        try:
                            loss, steps = batch_loss(model, batch)
                        except nn.DegenerateMaskError:
                            # saturated logits collapsed a softmax support
                            raise TrainingDivergedError(f"degenerate softmax at epoch {epoch}")
                        if not np.isfinite(loss.data):
                            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
                        t1 = time.perf_counter()
                        nn.backward(loss)
                        t2 = time.perf_counter()
                        norm = nn.adam_step(model.params, opt, clip_norm)
                        if not math.isfinite(norm):
                            raise TrainingDivergedError(f"non-finite gradient at epoch {epoch}")
                        norms.append(norm)
                        phase["adam_s"] += time.perf_counter() - t2
                        phase["backward_s"] += t2 - t1
                        phase["forward_s"] += t1 - t0
                        total_nll += float(loss.data)
                        total_decisions += len(steps)
                        for name, v in steps.by_kind().items():
                            kinds[name] = kinds.get(name, 0) + v
                        # the tape dies with its batch, before the next forward builds its own
                        del loss, steps
                    rec = {
                        "epoch": epoch,
                        "train_nll": total_nll,
                        "ppl_decision": math.exp(total_nll / total_decisions),
                        "grad_norm_max": max(norms),
                        "clipped_share": (sum(v > clip_norm for v in norms) / len(norms)
                                          if clip_norm else 0.0),
                        "samples_per_s": len(order) / (time.perf_counter() - epoch_start),
                        "prep_s": prep_s if epoch == 0 else 0.0,
                        **phase,
                        **kinds,
                    }
                    if valid:
                        rec["valid_ppl_decision"] = fold_perplexity(model, valid)[0]
            except (FloatingPointError, OverflowError) as e:
                raise TrainingDivergedError(f"training diverged at epoch {epoch}: {e}") from None
            history.append(rec)
            if log:
                log(rec)
    finally:
        model.ggnn_block = None
    return history


CHUNK = 20  # contexts encoded and beam-searched together (scored too, in walk_fold), either encoder


def walk_fold(model: Model, samples, width: int = None) -> tuple:
    """(sums, beams) in one pass over a fold. Each chunk of samples is
    prepped once and encoded once, under no_grad; its teacher-forced NLL is
    scored from that encoding and, given a beam `width`, the chunk is
    beam-searched (_decode) from it. `sums` holds the fold's summed NLL, its
    decision and token counts, and per decision kind k nll_k and decisions_k
    (StepLoss.by_kind); `beams` holds a BeamResult per sample, or nothing
    without a width. Samples go CHUNK to a
    chunk under either encoder, as decode_many's contexts do, so the beams
    are decode_many's."""
    sums = dict.fromkeys(("nll", "decisions", "tokens"), 0)
    beams = []
    for lo in range(0, len(samples), CHUNK):
        preppeds = [prep_sample(model, s) for s in samples[lo : lo + CHUNK]]
        with nn.no_grad():
            encodings = encode_many(model, preppeds)
            _, steps = batch_loss(model, preppeds, encodings)
            if width is not None:
                beams += _decode(model, preppeds, encodings, width)
        sums["nll"] += steps.total()
        sums["decisions"] += len(steps)
        sums["tokens"] += sum(pr.n_tokens for pr in preppeds)
        for name, v in steps.by_kind().items():
            sums[name] = sums.get(name, 0) + v
    return sums, beams


def fold_perplexity(model: Model, samples) -> tuple:
    """(per-decision, per-token) perplexity of a fold under teacher forcing."""
    sums = walk_fold(model, samples)[0]
    return math.exp(sums["nll"] / sums["decisions"]), math.exp(sums["nll"] / sums["tokens"])


# ---------------------------------------------------------------------------
# Beam decoding

@dataclass
class BeamResult:
    hypotheses: list  # (tree, log_prob), best first
    discarded: int  # hypotheses dropped for exceeding max-steps
    expanded: int  # continuations scored: nonzero one-action extensions
    pruned: int  # of those, cut by the width and never made a hypothesis
    dead_end: int  # hypotheses whose site had no actions (empty scope)


@dataclass
class _Hyp:
    hole: int  # its context's position in the chunk
    builder: ag.GraphBuilder
    rows: list  # the state-table row of each attribute node, by aid
    logp: float


def decode_beam(model: Model, before, after, scope, width: int = 5,
                max_steps: int = 50) -> BeamResult:
    """Frontier-ordered beam search of one context: decode_many's chunk of
    one."""
    return decode_many(model, [(before, after, scope)], width, max_steps)[0]


def decode_many(model: Model, contexts, width: int = 5, max_steps: int = 50) -> list:
    """The BeamResult of each (before, after, scope) context, CHUNK contexts
    to a chunk: each chunk is prepped once, encoded once and decoded in
    lockstep."""
    results = []
    with nn.no_grad():
        for lo in range(0, len(contexts), CHUNK):
            preppeds = [prep_context(model, *c) for c in contexts[lo : lo + CHUNK]]
            results += _decode(model, preppeds, encode_many(model, preppeds), width, max_steps)
    return results


def _decode(model: Model, preppeds, encodings: BatchEncoding, width, max_steps=50) -> list:
    """Beam search of a chunk of prepped contexts from their encode_many, one
    BeamResult each. Every hole's beam takes one decision per step, all holes
    together; counters and max_steps are per hole. The caller holds no_grad."""
    if width < 1 or max_steps < 1:
        raise ModelError("width and max-steps must be >= 1")
    run = _Lockstep(model, preppeds, encodings)
    for _ in range(max_steps):
        if not any(run.beams):
            break
        run.step(width)
    return [BeamResult([(h.builder.tree, h.logp) for h in sorted(done, key=lambda h: -h.logp)],
                       len(beam), *stats)
            for beam, done, stats in zip(run.beams, run.finished, run.stats)]


def forced_decode(model: Model, sample):
    """The decoder forced along the sample's ground-truth history: a width-1
    lockstep run whose only continuation is the gold decision.

    Returns (states, dists): the final aid -> vector map and one probability
    array per decision, for comparison against the teacher-forcing path.
    """
    pr = sample if isinstance(sample, Prepped) else prep_sample(model, sample)
    with nn.no_grad():
        run = _Lockstep(model, [pr], encode_many(model, [pr]))
        dists = [run.step(1, gold=[(dec[0], dec[-1])])[0][0].copy() for dec in pr.tree.history]
    (hyp,) = run.finished[0]
    return dict(enumerate(run.buf[hyp.rows])), dists


class _Lockstep:
    """The beam search of one chunk: each hole's beam, finished hypotheses
    and counters (expanded, pruned, dead-end), and one table of attribute
    states, a preallocated buffer (rows past n are free) seeded with the
    encoding's roots and var_table, in which each hypothesis holds the rows
    of its nodes."""

    def __init__(self, model: Model, preppeds, enc: BatchEncoding):
        self.model, self.preppeds, self.enc, cfg = model, preppeds, enc, model.config
        seed = np.concatenate([enc.roots.data, enc.var_table.data])
        self.buf = np.empty((2 * len(seed) + 256, seed.shape[1]), seed.dtype)
        self.buf[: len(seed)], self.n = seed, len(seed)
        # the attention's memory side, once per chunk, not once per pick
        self.tok_proj = enc.tokens.data @ model.params["dec_att_Wm"].data if cfg.attention else None
        var0 = len(preppeds) + enc.var_start  # aid 0 is the root, then the context nodes
        self.beams = [[_Hyp(i, ag.GraphBuilder(new_partial_ast(model.grammar), pr.ctx_order,
                                               edge_set=cfg.edge_set, labels=cfg.child_labels),
                            [i, *range(var0[i], var0[i + 1])], 0.0)]
                      for i, pr in enumerate(preppeds)]
        self.finished, self.stats = [[] for _ in preppeds], [[0, 0, 0] for _ in preppeds]

    def step(self, width: int, gold=None) -> list:
        """Advance every hole's beam by one decision: score the sites of all
        live hypotheses, keep each hole's `width` best continuations and
        finished hypotheses, and settle the new nodes of the kept children.
        Given gold, one (kind, arg) action per hole, that action is each
        hypothesis's only continuation and finished children are settled
        too. Returns the (probs, kind, args) of each live hypothesis."""
        scored = self.dists([h for beam in self.beams for h in beam])
        dists, settle = iter(scored), []
        for i, beam in enumerate(self.beams):
            if not beam:
                continue
            stats, pool = self.stats[i], [(h.logp, None, h) for h in self.finished[i]]
            for hyp in beam:
                dist = next(dists)
                if dist is None:
                    stats[2] += 1
                    continue
                # the one-action extensions with nonzero probability, best
                # first; a literal's vocab and copy slots merge before the log
                probs, kind, args = dist
                conts = [(hyp.logp, gold[i], hyp)] if gold else sorted(
                    ((hyp.logp + math.log(p), (kind, arg), hyp)
                     for arg, p in literal_spelling_probs(probs, args).items() if p > 0),
                    key=lambda x: -x[0])
                stats[0] += len(conts)
                stats[1] += max(0, len(conts) - width)
                pool.extend(conts[:width])
            pool.sort(key=lambda x: -x[0])
            stats[1] += sum(action is not None for _, action, _ in pool[width:])
            self.beams[i], self.finished[i] = [], []
            for logp, action, hyp in pool[:width]:
                child = hyp if action is None else _Hyp(i, hyp.builder.copy(), list(hyp.rows), logp)
                created = [] if action is None else child.builder.decide(*action)
                done = child.builder.site is None
                (self.finished if done else self.beams)[i].append(child)
                if created and (gold or not done):  # a finished tree is not scored again
                    settle.append((child, created))
        self.settle(settle)
        return scored

    def dists(self, hyps) -> list:
        """(probs, kind, args) at the next site of each hypothesis: its
        _site_dists row, its kind ("P", "V" or "L") and one action argument
        per slot, or None at a dead end (a variable slot with an empty
        scope). Each site kind and literal class is one _site_dists call."""
        g, pps, groups = self.model.grammar, self.preppeds, {}
        for h in hyps:
            sym = g.symbols[h.builder.tree.nodes[h.builder.site].label]
            if sym.kind is not Kind.VARIABLE or pps[h.hole].ctx_order:
                kind = {Kind.NONTERMINAL: "P", Kind.VARIABLE: "V"}.get(sym.kind, sym.lit_class)
                groups.setdefault(kind, []).append(h)
        states, out = nn.Tensor(self.buf[: self.n]), {}
        for kind, hs in groups.items():
            var_idx = _padded([[h.rows[h.builder.last_use[v]] for v in pps[h.hole].ctx_order]
                               for h in hs]) if kind in ("P", "V") else None
            probs = _site_dists(
                self.model, kind, states, [h.rows[h.builder.key] for h in hs], [h.hole for h in hs],
                var_idx, [h.builder.tree.nodes[h.builder.site].label for h in hs], self.enc.tokens,
                self.enc.tok_start, [pr.lex for pr in pps], self.tok_proj)
            for h, row in zip(hs, probs.data):
                args = _slot_args(self.model, pps[h.hole], kind)
                out[id(h)] = (row[: len(args)], kind if kind in ("P", "V") else "L", args)
        return [out.get(id(h)) for h in hyps]

    def settle(self, children):
        """Compute the states of the nodes that each (child, created) pair's
        last decision created, all children at once: they take the next free
        rows in creation order, so a hypothesis's rows ascend with its aids,
        and _rounds lays out their in-edges (the tail of the child's builder
        columns, mapped through its rows) for one node_representation call."""
        if not children:
            return
        model, n, cols, labels = self.model, self.n, [[], [], [], [], []], []
        for hyp, created in children:
            rows, b = hyp.rows, hyp.builder
            rows += range(self.n, self.n + len(created))
            self.n += len(created)
            e0 = bisect_left(b.columns[1], created[0].aid)  # the created nodes' first in-edge
            src, tgt, *rest = (c[e0:] for c in b.columns)
            for col, part in zip(cols, ([rows[a] for a in src], [rows[a] for a in tgt], *rest)):
                col += part
            labels += [_attr_label_id(model, b.tree, node) for node in created]
        if self.n > len(self.buf):
            self.buf = np.resize(self.buf, (2 * self.n, self.buf.shape[1]))
        rounds = _rounds(model, n, self.n, np.array(cols, dtype=np.int64))
        node_representation(model, nn.Tensor(self.buf[:n]), rounds,
                            np.asarray(labels)[rounds.rows - n], self.buf)


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
        loaded = nn.load_checkpoint(path)  # every shape bounded by the file size
        return Model(
            grammar, config=manifest["config"], encoder=manifest["encoder"],
            hidden=manifest["hidden"], emb_dim=manifest["emb_dim"],
            edge_emb=manifest["edge_emb"], seed=manifest["seed"],
            token_vocab=manifest["token_vocab"], params=loaded,
        )
    except (ValueError, KeyError, TypeError, AttributeError, GrammarError, ModelError) as e:
        raise ModelError(f"bad model manifest {path}.json: {type(e).__name__}: {e}") from None
