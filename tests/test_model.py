import hashlib
import io
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import enumerate_trees, make_sample, random_tree
from nagc import attrgraph as A
from nagc import model as M
from nagc import neural as nn
from nagc import pipeline as P
from nagc.grammar import UNK_LITERAL, builtin_grammar, load_grammar
from nagc.lang import HOLE_TOKEN, INTERNAL_LABELS, PROGRAM_EDGE_TYPES, program_graph
from nagc.model import (
    CONFIGS,
    Model,
    ModelError,
    decode_beam,
    encode_seq,
    forced_decode,
    load_model,
    pick_literal_dist,
    pick_production_dist,
    pick_variable_dist,
    literal_spelling_probs,
    prep_sample,
    sample_loss,
    save_model,
    train,
)
from nagc.syntax import apply_production, bind_terminal, new_partial_ast, serialize_decisions

import autodiff_ops as ops
import test_neural


@pytest.fixture(scope="module")
def small(fitted_grammar, token_vocab):
    return Model(fitted_grammar, config="NAG", encoder="seq", hidden=32,
                 emb_dim=16, edge_emb=8, seed=0, token_vocab=token_vocab)


def test_config_lattice():
    assert CONFIGS["Tree"].edge_set == (A.CHILD,) and not CONFIGS["Tree"].child_labels
    assert CONFIGS["ASN"].edge_set == (A.CHILD,) and CONFIGS["ASN"].child_labels
    assert set(CONFIGS["Syn"].edge_set) == {A.CHILD, A.NEXT_EXP}
    assert not CONFIGS["Syn"].child_labels
    assert set(CONFIGS["NAG"].edge_set) == set(A.PAPER_EDGE_TYPES)
    assert CONFIGS["NAG"].child_labels and CONFIGS["NAG"].attention
    assert CONFIGS["NAG"].variable_pooling


def test_unknown_config_and_encoder(fitted_grammar):
    with pytest.raises(ModelError):
        Model(fitted_grammar, config="Foo")
    with pytest.raises(ModelError):
        Model(fitted_grammar, encoder="cnn")


# each bi-GRU direction of the seq encoder holds half the hidden size
@pytest.mark.parametrize("encoder, hidden", [("seq", 63), ("seq", 1), ("seq", 0), ("graph", 0)])
def test_hidden_size_is_refused_unless_it_splits(encoder, hidden, fitted_grammar):
    with pytest.raises(ModelError, match="hidden"):
        Model(fitted_grammar, encoder=encoder, hidden=hidden)


@pytest.mark.parametrize("field, size", [("emb_dim", 0), ("emb_dim", -1), ("edge_emb", -1)])
def test_embedding_size_is_refused_below_its_floor(field, size, fitted_grammar):
    # an empty token embedding would build, then fail in the bi-GRU backward;
    # a negative size would fail in init_params
    with pytest.raises(ModelError, match=field):
        Model(fitted_grammar, encoder="seq", **{field: size})


# -- encoders ---------------------------------------------------------------

def test_encode_seq_token_counts(small, folds):
    with nn.no_grad():
        for s in folds["train"][:100]:
            pr = prep_sample(small, s)
            enc = encode_seq(small, pr)
            assert enc.token_states.data.shape == (len(pr.tokens), small.hidden)
            assert set(enc.var_reps) == set(s.scope)


def test_encode_seq_empty_after_context(small, folds):
    s = folds["train"][0]
    import dataclasses
    s2 = dataclasses.replace(s, after=[])
    with nn.no_grad():
        enc = encode_seq(small, prep_sample(small, s2))
    assert enc.token_states.data.shape[0] == len(s2.before) + 1


def test_encode_seq_name_permutation(small):
    # swapping two variables' names swaps their reps and changes nothing else
    before = ["var", "a", ":", "int", ";", "var", "b", ":", "int", ";", "a", "=", "b", ";"]
    swapped = [{"a": "b", "b": "a"}.get(t, t) for t in before]
    s1 = make_sample(_int_tree(small.grammar, "a"), {"a": "int", "b": "int"}, before, [";"])
    s2 = make_sample(_int_tree(small.grammar, "b"), {"a": "int", "b": "int"}, swapped, [";"])
    with nn.no_grad():
        e1 = encode_seq(small, prep_sample(small, s1))
        e2 = encode_seq(small, prep_sample(small, s2))
    assert np.array_equal(e1.var_reps["a"].data, e2.var_reps["b"].data)
    assert np.array_equal(e1.var_reps["b"].data, e2.var_reps["a"].data)


def _loop_bigru(x, p, prefix):
    """The per-token bi-GRU layer the batched encoder replaced: one gru_cell
    call per token and direction."""
    half = p[f"{prefix}_f_Uz"].data.shape[0]
    fwd, bwd = [], []
    for out, steps, d in ((fwd, range(len(x.data)), "f"), (bwd, reversed(range(len(x.data))), "b")):
        h = nn.Tensor(np.zeros(half, dtype=x.data.dtype))
        for t in steps:
            h = nn.gru_cell(nn.rows(x, t), h, p, f"{prefix}_{d}")
            out.append(h)
    bwd.reverse()
    return nn.concat([nn.stack_rows(fwd), nn.stack_rows(bwd)], axis=1), fwd[-1], bwd[0]


def _loop_encode(m, pr):
    """A context's token states, root, variable reps and final state from
    per-token loops: the token encoder over enc_seq1 and enc_seq2, each
    usage window alone over enc_use1 and enc_use2."""
    p = m.params
    x, _, _ = _loop_bigru(nn.rows(p["enc_tok_emb"], pr.tok_idx), p, "enc_seq1")
    states, ff, bf = _loop_bigru(x, p, "enc_seq2")
    final = nn.concat([ff, bf])
    reps = {}
    for name in pr.ctx_order:
        finals = []
        for ids in [ids for owner, ids in pr.windows if owner == name]:
            x, _, _ = _loop_bigru(nn.rows(p["enc_tok_emb"], ids), p, "enc_use1")
            _, wf, wb = _loop_bigru(x, p, "enc_use2")
            finals.append(nn.concat([wf, wb]))
        reps[name] = ops.mean_rows(nn.stack_rows(finals)) if finals else p["enc_var_dflt"]
    return states, nn.linear(final, p, "enc_root"), reps, final


def _flat(states, root, reps, *_):
    return [states, root] + [reps[n] for n in sorted(reps)]


def test_encode_seq_matches_per_token_loop(small, folds, fitted_grammar, token_vocab):
    # the seq encoder (one masked, fused scan per bi-GRU layer over a padded
    # batch) against per-token loops, context by context: token states,
    # root, var reps and final state in float32, each context alone and four
    # of different lengths in one batch, one of them with a variable without
    # uses; in float64 also every parameter's gradient
    import dataclasses

    s = folds["train"]
    samples = [s[0], dataclasses.replace(s[1], after=[]),
               dataclasses.replace(s[2], before=s[2].before[-20:]),
               dataclasses.replace(s[3], after=s[3].after[:10], scope={**s[3].scope, "zz": "int"})]
    with nn.no_grad():
        prs = [M.prep_context(small, x.before, x.after, x.scope) for x in samples + s[4:6]]
        assert len({len(pr.tokens) for pr in prs[:4]}) == 4
        assert not any(owner == "zz" for owner, _ in prs[3].windows)
        batch = M.encode_many(small, prs[:4])
        for i, pr in enumerate(prs):
            want = _loop_encode(small, pr)
            encs = [encode_seq(small, pr)] + ([batch[i]] if i < 4 else [])
            for enc in encs:
                assert set(enc.var_reps) == set(want[2])
                for got, w in zip(_flat(enc.token_states, enc.root, enc.var_reps), _flat(*want)):
                    assert got.data.shape == w.data.shape
                    assert np.max(np.abs(got.data - w.data)) < 1e-6
            final = M._encode_tokens(small, pr.tok_idx, "enc_seq")[1]
            assert np.max(np.abs(final.data - want[3].data)) < 1e-6

    m = Model(fitted_grammar, config="NAG", encoder="seq", hidden=8, emb_dim=4, edge_emb=4,
              seed=1, token_vocab=token_vocab)
    m.params = m.params.astype(np.float64)
    rng = np.random.default_rng(5)
    for _, t in m.params.items():  # nonzero biases
        t.data = rng.normal(scale=0.5, size=t.data.shape)
    prs = [M.prep_context(m, x.before, x.after, x.scope) for x in samples]
    weights = [[rng.normal(size=(len(pr.tokens), 8))] + [rng.normal(size=8)] * (1 + len(pr.ctx_order))
               for pr in prs]
    batch = M.encode_many(m, prs)
    grads = []
    for outs in ([_flat(batch[i].token_states, batch[i].root, batch[i].var_reps) for i in range(4)],
                 [_flat(*_loop_encode(m, pr)) for pr in prs]):
        m.params.zero_grad()
        terms = [nn.tsum(ops.mul(o, nn.Tensor(w))) for os_, ws in zip(outs, weights)
                 for o, w in zip(os_, ws)]
        nn.backward(nn.tsum(nn.stack_rows(terms)))
        grads.append({n: t.grad.copy() for n, t in m.params.items() if t.grad is not None})
    m.params.zero_grad()
    got, want = grads
    assert set(got) == set(want) and {"enc_seq1_b_Uz", "enc_use2_f_Wh", "enc_var_dflt"} <= set(got)
    for n in want:
        assert np.max(np.abs(got[n] - want[n])) < 1e-8, n


def test_prep_context_usage_windows(small, gmodel, folds):
    # each use with up to 5 tokens each side, never across the hole; variables
    # in sorted order, then windows before the hole before those after it,
    # left to right; a variable without uses has none
    before = ["a", "=", "1", ";", "b", "=", "a", "+", "a", ";", "if", "(", "b"]
    after = [")", "{", "a", "=", "b", ";", "}"]
    scope = {"b": "int", "z": "int", "a": "int"}
    S, O = M.SELF_TOKEN, M.OTHER_VAR_TOKEN
    want = [
        ("a", [S, "=", "1", ";", O, "="]),
        ("a", ["=", "1", ";", O, "=", S, "+", S, ";", "if", "("]),
        ("a", [";", O, "=", S, "+", S, ";", "if", "(", O]),
        ("a", [")", "{", S, "=", O, ";", "}"]),
        ("b", [O, "=", "1", ";", S, "=", O, "+", O, ";"]),
        ("b", ["+", O, ";", "if", "(", S]),
        ("b", [")", "{", O, "=", S, ";", "}"]),
    ]
    pr = M.prep_context(small, before, after, scope)
    assert pr.windows == [(n, [small.tok2id.get(t, 0) for t in toks]) for n, toks in want]
    s = folds["train"][0]
    assert M.prep_context(gmodel, s.before, s.after, s.scope).windows is None
    self_id, hole_id = small.tok2id[S], small.tok2id[HOLE_TOKEN]
    for s in folds["train"][:40]:
        pr = M.prep_context(small, s.before, s.after, s.scope)
        assert [n for n, _ in pr.windows] == [
            n for n in sorted(s.scope) for _ in range(s.before.count(n) + s.after.count(n))
        ]
        for _, ids in pr.windows:
            assert len(ids) <= 11 and self_id in ids and hole_id not in ids


def test_prep_context_offers_no_spaced_literal(small):
    # a decoded copy of '"a b"' would write the record 'Lstring:"a b"', which
    # splits at its space and does not read back
    before = ["var", "s", ":", "string", "=", '"a b"', ";", "var", "t", ":", "string", "=",
              '"c"', ";", "t", "="]
    pr = M.prep_context(small, before, [";"], {"s": "string", "t": "string"})
    assert pr.lex["string"] == ([12], ['"c"'])


def test_batched_windows_match_per_window_loop(small):
    # windows of several lengths, some of them equal, cut short by either
    # end of the context or by the hole; d has no uses
    before = ["a", "=", "0", ";", "b", "=", "a", "+", "c", ";",
              "c", "=", "b", "-", "1", ";", "b", "="]
    after = [";", "a", "=", "c", ";"]
    scope = {n: "int" for n in "abcd"}
    p = small.params
    weights = {n: nn.Tensor(np.random.default_rng(i).normal(size=small.hidden).astype(np.float32))
               for i, n in enumerate("abcd")}

    def grads_of(reps):
        p.zero_grad()
        nn.backward(nn.tsum(nn.concat([ops.mul(reps[n], weights[n]) for n in "abcd"])))
        return {n: t.grad.copy() for n, t in p.items() if t.grad is not None}

    pr = M.prep_context(small, before, after, scope)
    assert len({len(ids) for _, ids in pr.windows}) >= 4
    enc = encode_seq(small, pr)
    assert np.array_equal(enc.var_reps["d"].data, p["enc_var_dflt"].data)
    got = grads_of(enc.var_reps)
    want = {"d": p["enc_var_dflt"]}
    for name in "abc":
        finals = []
        for toks in (before, after):
            for i in [i for i, t in enumerate(toks) if t == name]:
                window = [M.SELF_TOKEN if t == name else M.OTHER_VAR_TOKEN if t in scope else t
                          for t in toks[max(0, i - 5) : i + 6]]
                ids = [small.tok2id.get(t, 0) for t in window]
                x, _, _ = _loop_bigru(nn.rows(p["enc_tok_emb"], ids), p, "enc_use1")
                _, ff, bf = _loop_bigru(x, p, "enc_use2")
                finals.append(nn.concat([ff, bf]))
        want[name] = ops.mean_rows(nn.stack_rows(finals))
        assert np.max(np.abs(enc.var_reps[name].data - want[name].data)) < 1e-6, name
    ref = grads_of(want)
    p.zero_grad()
    assert set(ref) == set(got)
    for n in ref:
        assert np.max(np.abs(got[n] - ref[n])) < 1e-5, n


def _int_tree(g, var):
    t = new_partial_ast(g)
    apply_production(t, 0, g.productions[0])
    bind_terminal(t, 1, var)
    return t


@pytest.fixture(scope="module")
def gmodel(fitted_grammar, token_vocab):
    return Model(fitted_grammar, config="NAG", encoder="graph", hidden=32,
                 emb_dim=16, edge_emb=8, seed=0, token_vocab=token_vocab)


def test_encode_graph_zero_steps_is_embedding(gmodel, folds):
    pr = prep_sample(gmodel, folds["train"][0])
    with nn.no_grad():
        enc0 = M.encode_graph_many(gmodel, [pr], steps=0)[0]
    emb = gmodel.params["enc_gnode_emb"].data
    terms = np.arange(len(pr.tokens))  # token i is node i
    assert np.array_equal(enc0.token_states.data, emb[pr.pg_idx[terms]])


def test_encode_graph_8_differs_from_7(gmodel, folds):
    pr = prep_sample(gmodel, folds["train"][0])
    with nn.no_grad():
        e7 = M.encode_graph_many(gmodel, [pr], steps=7)[0]
        e8 = M.encode_graph_many(gmodel, [pr], steps=8)[0]
    assert not np.allclose(e7.token_states.data, e8.token_states.data)


def test_graph_labels_cover_every_internal_node(gmodel, corpus_samples):
    # an internal label missing from graph_labels would silently read the UNK row
    emitted = set()
    for s in corpus_samples:
        tokens = s.before + [HOLE_TOKEN] + s.after
        emitted.update(program_graph(tokens).labels[len(tokens):])
    assert emitted and emitted <= set(gmodel.graph_labels), emitted - set(gmodel.graph_labels)
    # this order is the row layout of enc_gnode_emb in saved checkpoints
    assert INTERNAL_LABELS == (
        "program", "decl", "assign", "if", "while",
        ".Length", "[]", ".StartsWith", ".Contains", ".Substring", ".IndexOf",
    )
    assert gmodel.graph_labels[len(gmodel.token_vocab):] == [
        lab for lab in INTERNAL_LABELS if lab not in gmodel.token_vocab
    ]


def test_graph_checkpoint_ggnn_parameter_names(gmodel):
    # the names saved graph checkpoints hold: each program edge type, then
    # its reverse, then the GRU
    edge_params = [n for n in gmodel.params.names()
                   if n.startswith("enc_gg_") and not n.startswith("enc_gg_g_")]
    assert edge_params == sorted(f"enc_gg_{t}_{w}" for t in (
        "Child", "ChildRev", "NextToken", "NextTokenRev", "LastUse", "LastUseRev") for w in "Wb")
    assert M.GGNN_PREFIXES == ("enc_gg_Child", "enc_gg_ChildRev", "enc_gg_NextToken",
                               "enc_gg_NextTokenRev", "enc_gg_LastUse", "enc_gg_LastUseRev")


def test_encode_graph_many_matches_each_context_alone(gmodel, folds):
    # one disconnected GGNN batch of 20 contexts against each context alone
    prs = [prep_sample(gmodel, s) for s in folds["train"][:20]]
    with nn.no_grad():
        batch = M.encode_graph_many(gmodel, prs)
        for i, pr in enumerate(prs):
            alone = M.encode(gmodel, pr)
            for got, want in zip(_flat(batch[i].token_states, batch[i].root, batch[i].var_reps),
                                 _flat(alone.token_states, alone.root, alone.var_reps)):
                assert np.max(np.abs(got.data - want.data)) < 1e-5


def graph_encoder_loss_fd_check():
    """The worst relative finite-difference error of the whole loss of a
    graph-encoder model, through the GGNN (message steps and GRU backward
    included), over a sample of every parameter's entries, in float64."""
    g = load_grammar(SMALL)
    m = Model(g, config="NAG", encoder="graph", hidden=4, emb_dim=4, edge_emb=4, seed=1,
              token_vocab=["<UNK>", "?HOLE?", "x", "y", "0"])
    m.params = m.params.astype(np.float64)
    t = new_partial_ast(g)
    apply_production(t, 0, g.by_lhs("S")[2])  # S -> Var
    bind_terminal(t, 1, "x")
    before = ["var", "x", ":", "int", ";", "var", "y", ":", "int", ";", "y", "=", "x", "+"]
    s = make_sample(t, {"x": "int", "y": "int"}, before, [";", "x", "=", "y", ";"])
    pr = prep_sample(m, s)
    assert set(pr.pgraph.etype.tolist()) == set(range(len(PROGRAM_EDGE_TYPES)))
    return test_neural._fd_check(m.params, lambda: M.batch_loss(m, [pr])[0],
                                 samples_per_tensor=6, eps=1e-4)


def test_graph_encoder_loss_gradients():
    # gate 04 runs this check next to its seq-encoder one
    graph_encoder_loss_fd_check()


# -- node representation ----------------------------------------------------

def _shuffle_in_edges(monkeypatch, seed: int) -> list:
    """Make every GraphBuilder settle shuffle each created node's block of
    in-edges in the builder's columns; returns the block sizes it shuffled."""
    import random
    from bisect import bisect_left, bisect_right

    settle, rng, sizes = A.GraphBuilder.settle, random.Random(seed), []

    def shuffling_settle(self):
        created = settle(self)
        tgt = self.columns[1]
        for node in created:
            lo, hi = bisect_left(tgt, node.aid), bisect_right(tgt, node.aid)
            perm = rng.sample(range(lo, hi), hi - lo)
            for col in self.columns:
                col[lo:hi] = [col[k] for k in perm]
            sizes.append(hi - lo)
        return created

    monkeypatch.setattr(A.GraphBuilder, "settle", shuffling_settle)
    return sizes


def test_node_representation_permutation_invariant(small, folds, monkeypatch):
    # the decoder's states, the teacher-forced loss and its gradients do not
    # depend on how a node's in-edges are listed: _rounds orders each
    # round's edges by type, target and source before the kernel sums their
    # messages. Shuffle every created node's in-edges, decode and score
    # again, compare bits.
    def parents_in(pr):  # the most Parent edges into one node: 3 reorder a float sum
        return np.bincount(pr.graph.tgt[pr.graph.etype == A.ETYPE_CODE[A.PARENT]]).max()

    samples = [s for s in folds["train"][:40] if parents_in(prep_sample(small, s)) >= 3][:6]
    assert len(samples) == 6
    pr = prep_sample(small, samples[0])
    states, _ = forced_decode(small, pr)
    batch = [prep_sample(small, s) for s in samples]
    loss, _ = M.batch_loss(small, batch)
    grads = _grads(small, loss)

    shuffled = _shuffle_in_edges(monkeypatch, 0)
    again, _ = forced_decode(small, pr)
    assert max(shuffled) >= 3
    assert states.keys() == again.keys()
    assert all(np.array_equal(states[aid], again[aid]) for aid in states)

    batch_again = [prep_sample(small, s) for s in samples]
    assert any(not np.array_equal(a.graph.src, b.graph.src) for a, b in zip(batch, batch_again))
    loss_again, _ = M.batch_loss(small, batch_again)
    assert np.array_equal(loss.data, loss_again.data)
    grads_again = _grads(small, loss_again)
    assert all(np.array_equal(grads[name], grads_again[name]) for name in grads)


@pytest.mark.parametrize("encoder", ["seq", "graph"])
@pytest.mark.parametrize("config", ["Tree", "ASN", "Syn", "NAG"])
def test_forced_decode_equals_propagate_exactly(fitted_grammar, token_vocab, folds, config,
                                                encoder):
    # teacher forcing and the beam search lay out their rounds with one
    # function, so the decoder settling a tree step by step computes every
    # attribute state with the bits of one propagate over the whole tree
    m = Model(fitted_grammar, config=config, encoder=encoder, hidden=16, emb_dim=8, edge_emb=4,
              seed=1, token_vocab=token_vocab)
    for s in folds["train"][:30]:
        pr = prep_sample(m, s)
        with nn.no_grad():
            full = M.propagate(m, pr.graph, pr.label_idx, [pr], M.encode_many(m, [pr])).data
        states, _ = forced_decode(m, pr)
        assert sorted(states) == list(range(len(full)))
        assert np.array_equal(np.stack([states[aid] for aid in sorted(states)]), full)


def test_propagate_rejects_missing_predecessor(small, folds):
    # a node stripped of its in-edges lands in round 0, which only the
    # encoder seeds
    import dataclasses

    pr = prep_sample(small, folds["train"][0])
    gr = pr.graph
    keep = gr.tgt != gr.tgt[-1]
    cut = dataclasses.replace(gr, src=gr.src[keep], tgt=gr.tgt[keep], etype=gr.etype[keep],
                              label=gr.label[keep])
    assert A.propagation_schedule(cut.src, cut.tgt, len(cut.nodes))[gr.tgt[-1]] == 0
    with nn.no_grad(), pytest.raises(ModelError, match="no in-edges"):
        M.propagate(small, cut, pr.label_idx, [pr], M.encode_many(small, [pr]))


def test_decoder_rejects_missing_predecessor(small, folds, monkeypatch):
    # the beam search settles a created node from its in-edges; one without
    # any has no state to compute
    from bisect import bisect_left

    pr, settle = prep_sample(small, folds["train"][0]), A.GraphBuilder.settle

    def stripping_settle(self):
        created = settle(self)
        if created:
            tail = bisect_left(self.columns[1], created[0].aid)
            for col in self.columns:
                del col[tail:]
        return created

    monkeypatch.setattr(A.GraphBuilder, "settle", stripping_settle)
    with pytest.raises(ModelError, match="no in-edges"):
        forced_decode(small, pr)


# -- pickers ----------------------------------------------------------------

FORCED = """
@start S
S -> "a" T
T -> "b"
"""

SMALL = """
@start S
@variable Var
@literal int IntLit
@literals int: 0, 1
S -> "a"
S -> "b" T
S -> Var
S -> IntLit
T -> "c"
T -> "d"
"""


def test_single_valid_production_gets_prob_1():
    g = load_grammar(FORCED)
    m = Model(g, config="Tree", encoder="seq", hidden=16, emb_dim=8, seed=5)
    with nn.no_grad():
        key = nn.Tensor(np.random.default_rng(0).normal(size=16).astype(np.float32))
        probs = pick_production_dist(m, key, "S")
    assert probs.data[0] == 1.0


def test_production_dist_off_support_zero(small):
    rng = np.random.default_rng(1)
    with nn.no_grad():
        for _ in range(20):
            key = nn.Tensor(rng.normal(size=small.hidden).astype(np.float32))
            enc = _fake_enc(small, rng)
            probs = pick_production_dist(small, key, "Expr", enc, [enc.var_reps["x"]])
            assert abs(float(probs.data.sum()) - 1.0) < 1e-6


def _fake_enc(model, rng, T=6):
    H = model.hidden
    return M.ContextEncoding(
        root=nn.Tensor(rng.normal(size=H).astype(np.float32)),
        token_states=nn.Tensor(rng.normal(size=(T, H)).astype(np.float32)),
        var_reps={"x": nn.Tensor(rng.normal(size=H).astype(np.float32))},
    )


def test_tree_config_ignores_token_reps(fitted_grammar, token_vocab):
    m = Model(fitted_grammar, config="Tree", encoder="seq", hidden=16, emb_dim=8,
              seed=2, token_vocab=token_vocab)
    rng = np.random.default_rng(0)
    with nn.no_grad():
        key = nn.Tensor(rng.normal(size=16).astype(np.float32))
        e1 = _fake_enc(m, rng)
        p1 = pick_production_dist(m, key, "Expr", e1, None)
        e1.token_states.data[:] += 100.0
        p2 = pick_production_dist(m, key, "Expr", e1, None)
    assert np.array_equal(p1.data, p2.data)


def test_variable_dist_properties(small):
    rng = np.random.default_rng(2)
    H = small.hidden
    with nn.no_grad():
        key = nn.Tensor(rng.normal(size=H).astype(np.float32))
        v1 = nn.Tensor(rng.normal(size=H).astype(np.float32))
        v2 = nn.Tensor(rng.normal(size=H).astype(np.float32))
        single = pick_variable_dist(small, key, [v1])
        assert single.data[0] == 1.0
        # identical states -> exactly tied scores -> symmetric mass
        dup = pick_variable_dist(small, key, [v1, v1, v2])
        assert dup.data[0] == dup.data[1]
        assert abs(float(dup.data.sum()) - 1.0) < 1e-6
    with pytest.raises(ModelError):
        pick_variable_dist(small, key, [])


def test_literal_merge_matches_hand_computed_softmax(fitted_grammar, token_vocab):
    # "0" in the vocab and twice in the context: merged P("0") must equal the
    # softmax-sum of the three slots, recomputed here from raw parameters
    g = fitted_grammar.with_literal_vocab({"int": ("0", "7")})
    m = Model(g, config="NAG", encoder="seq", hidden=16, emb_dim=8, seed=4,
              token_vocab=token_vocab)
    rng = np.random.default_rng(3)
    with nn.no_grad():
        enc = _fake_enc(m, rng)
        key = nn.Tensor(rng.normal(size=16).astype(np.float32))
        lex = ([0, 2], ["0", "0"])
        probs, entries = pick_literal_dist(m, key, "int", enc, lex)
    merged = literal_spelling_probs(probs, entries)
    k = key.data
    vocab_scores = k @ m.params["dec_lit_int_W"].data + m.params["dec_lit_int_b"].data
    mem = enc.token_states.data[[0, 2]]
    copy_scores = (k @ m.params["dec_copy_B"].data) @ mem.T
    raw = np.concatenate([vocab_scores, copy_scores])
    soft = np.exp(raw - raw.max())
    soft /= soft.sum()
    expected = soft[0] + soft[-2] + soft[-1]  # vocab "0" + both copies
    assert abs(merged["0"] - expected) < 1e-6
    assert abs(sum(merged.values()) - 1.0) < 1e-6


def test_literal_dist_without_context_tokens(small):
    rng = np.random.default_rng(5)
    with nn.no_grad():
        enc = _fake_enc(small, rng)
        key = nn.Tensor(rng.normal(size=small.hidden).astype(np.float32))
        probs, entries = pick_literal_dist(small, key, "bool", enc, ([], []))
    assert entries == list(small.grammar.literal_vocab["bool"])
    assert abs(float(probs.data.sum()) - 1.0) < 1e-6


# -- losses -----------------------------------------------------------------

def test_forced_grammar_loss_zero():
    g = load_grammar(FORCED)
    m = Model(g, config="Tree", encoder="seq", hidden=16, emb_dim=8, seed=0)
    t = new_partial_ast(g)
    apply_production(t, 0, g.productions[0])
    apply_production(t, 2, g.productions[1])
    s = make_sample(t, {})
    nll, steps = sample_loss(m, s)
    assert nll == 0.0
    assert steps.kind.tolist() == ["P", "P"]


def test_total_probability_sums_to_one():
    g = load_grammar(SMALL)
    for seed in range(3):
        m = Model(g, config="NAG", encoder="seq", hidden=16, emb_dim=8, seed=seed,
                  token_vocab=["<UNK>", "?HOLE?", "x", "y", "0", "5"])
        scope = {"x": "int", "y": "int"}
        before = ["x", "=", "0", ";", "y", "=", "5", ";"]
        support = {"int": ["0", "1", "<UNK:int>", "5"]}
        total = 0.0
        for t in enumerate_trees(g, ["x", "y"], support):
            s = make_sample(t, scope, before, [])
            nll, _ = sample_loss(m, s)
            total += math.exp(-nll)
        assert abs(total - 1.0) < 1e-5


# The teacher-forced loss as it was computed one decision at a time, kept
# as the oracle of the batched scorers: a per-round, per-edge-type
# propagation loop and per-decision scores built from primitive ops.

def _oracle_propagate(model, batched, label_idx, encs):
    p, cfg = model.params, model.config
    # child labels numbered in production order, then child order
    label_id = {}
    for prod in model.grammar.productions:
        for i in range(len(prod.rhs)):
            label_id[(prod.pid, i)] = len(label_id)
    N = len(batched.nodes)
    src_ids, src_rows = [], []
    for comp, enc in zip(batched.components, encs):
        src_ids.append(comp["root_inh"])
        src_rows.append(enc.root)
        for name, aid in comp["ctx"].items():
            src_ids.append(aid)
            src_rows.append(enc.var_reps[name])
    states = ops.scatter_rows(N, src_ids, nn.stack_rows(src_rows))
    round_of = {a: r for r, rnd in enumerate(batched.schedule) for a in rnd}
    pos_in_round = {a: i for rnd in batched.schedule for i, a in enumerate(rnd)}
    per_round = [dict() for _ in batched.schedule]
    for e in batched.edges:
        per_round[round_of[e.tgt]].setdefault(e.etype, []).append(e)
    for r, rnd in enumerate(batched.schedule[1:], start=1):
        msgs = None
        for etype, es in per_round[r].items():
            inp = nn.rows(states, [e.src for e in es])
            if etype == A.CHILD and cfg.child_labels:
                lab = [label_id[e.label] for e in es]
                inp = nn.concat([inp, nn.rows(p["dec_emb_edge"], lab)], axis=1)
            m = ops.scatter_rows(len(rnd), [pos_in_round[e.tgt] for e in es],
                                nn.linear(inp, p, f"dec_f_{etype}"))
            msgs = m if msgs is None else nn.add(msgs, m)
        new = nn.gru_cell(nn.rows(p["dec_emb_label"], label_idx[rnd]), msgs, p, "dec_g")
        states = nn.add(states, ops.scatter_rows(N, rnd, new))
    return states


def _oracle_tree_nll(model, pr, states, offset, enc):
    p, cfg = model.params, model.config
    var_aid = {name: None for name in pr.ctx_order}
    total = None
    for dec in pr.plan:
        key = nn.rows(states, offset + dec[1])
        rows = [enc.var_reps[n] if var_aid[n] is None else nn.rows(states, offset + var_aid[n])
                for n in pr.ctx_order]
        if dec[0] == "P":
            inp = key
            if cfg.attention:
                mem = enc.token_states
                proj = ops.tanh(nn.add(nn.matmul(mem, p["dec_att_Wm"]), nn.matmul(key, p["dec_att_Wk"])))
                att = nn.matmul(nn.softmax(nn.matmul(proj, p["dec_att_w"])), mem)
                inp = nn.concat([inp, att])
            if cfg.variable_pooling:
                pool = (nn.max_pool_rows(nn.stack_rows(rows)) if rows
                        else nn.Tensor(np.zeros(model.hidden, dtype=key.data.dtype)))
                inp = nn.concat([inp, pool])
            logp = nn.masked_log_softmax(nn.linear(inp, p, "dec_score"), model.mask(dec[3]))
            idxs = [dec[2]]
        elif dec[0] == "V":
            V = nn.stack_rows(rows)
            scores = nn.add(nn.matmul(nn.matmul(key, p["dec_var_B"]), ops.transpose(V)),
                            nn.matmul(V, p["dec_var_w"]))
            logp = ops.log_softmax(scores)
            idxs = [pr.ctx_order.index(dec[2])]
            var_aid[dec[2]] = dec[3]
        else:
            cls = dec[2]
            scores = nn.linear(key, p, f"dec_lit_{cls}")
            positions, spellings = pr.lex[cls]
            entries = list(model.grammar.literal_vocab[cls])
            if positions:
                mem = nn.rows(enc.token_states, positions)
                copy = nn.matmul(nn.matmul(key, p["dec_copy_B"]), ops.transpose(mem))
                scores = nn.concat([scores, copy])
                entries += spellings
            logp = ops.log_softmax(scores)
            idxs = [i for i, sp in enumerate(entries) if sp == dec[3]]
            idxs = idxs or [entries.index(UNK_LITERAL[cls])]
        ll = ops.logsumexp(nn.rows(logp, idxs))
        total = ll if total is None else nn.add(total, ll)
    return ops.scale(total, -1.0)


def _oracle_loss(model, preppeds):
    encs = M.encode_many(model, preppeds)
    encs = [encs[i] for i in range(len(preppeds))]
    batched = A.batch_graphs([pr.graph for pr in preppeds])
    label_idx = np.concatenate([pr.label_idx for pr in preppeds])
    states = _oracle_propagate(model, batched, label_idx, encs)
    total = None
    for pr, comp, enc in zip(preppeds, batched.components, encs):
        nll = _oracle_tree_nll(model, pr, states, comp["offset"], enc)
        total = nll if total is None else nn.add(total, nll)
    return total


# scope sizes 0-5; file "a" has no copy candidates at all; "zz" and the
# closing 2 are UNK literals; the 7 of `a + 7` sits in a vocab slot and two
# copy slots
MIXED_FILES = [
    ("a", "var z : int = 1 + 0 ;"),
    ("b", 'var a : int = 7 ; var s : string = "q" ; var b : bool = s.StartsWith("zz") ; '
          "var c : int = a + 7 ; var d : int = c - a ; a = d + c * 2 ;"),
]


def _mixed_batch(g, config, encoder):
    samples = P.extract_samples(MIXED_FILES, g)
    gv = g.with_literal_vocab({"int": ("0", "1", "7"), "string": ('"q"',), "bool": ("true",)})
    m = Model(gv, config=config, encoder=encoder, hidden=6, emb_dim=4, edge_emb=3, seed=2,
              token_vocab=M.token_vocab_from_samples(samples))
    m.params = m.params.astype(np.float64)
    rng = np.random.default_rng(3)
    for _, t in m.params.items():  # nonzero biases, spread logits
        t.data = rng.normal(scale=0.5, size=t.data.shape)
    return m, [prep_sample(m, s) for s in samples]


def _grads(model, loss):
    model.params.zero_grad()
    nn.backward(loss)
    return {n: t.grad if t.grad is not None else np.zeros_like(t.data) for n, t in model.params.items()}


def test_mixed_batch_covers_the_cases(g):
    m, batch = _mixed_batch(g, "NAG", "seq")
    assert sorted(len(pr.ctx_order) for pr in batch) == [0, 0, 1, 2, 3, 4, 5]
    assert not any(positions for positions, _ in batch[0].lex.values())
    lits = [(dec[3], pr.lex[dec[2]][1]) for pr in batch for dec in pr.plan if dec[0] == "L"]
    vocab = set(m.grammar.literal_vocab["int"]) | set(m.grammar.literal_vocab["string"])
    assert any(sp not in vocab and sp not in copies for sp, copies in lits)  # UNK
    assert any(sp in vocab and sp in copies for sp, copies in lits)  # vocab and copy slot


@pytest.mark.parametrize("encoder", ["seq", "graph"])
@pytest.mark.parametrize("config", ["Tree", "ASN", "Syn", "NAG"])
def test_batch_loss_matches_per_decision_oracle(g, config, encoder):
    m, batch = _mixed_batch(g, config, encoder)
    loss, steps = M.batch_loss(m, batch)
    got = _grads(m, loss)
    ref_loss = _oracle_loss(m, batch)
    want = _grads(m, ref_loss)
    assert abs(float(loss.data) - float(ref_loss.data)) <= 1e-12 * abs(float(ref_loss.data))
    assert abs(steps.total() - float(ref_loss.data)) <= 1e-12 * abs(float(ref_loss.data))
    assert len(steps) == sum(len(pr.plan) for pr in batch)
    assert steps.kind.tolist() == [dec[0] for pr in batch for dec in pr.plan]
    for name in want:
        scale = max(np.max(np.abs(want[name])), 1e-300)
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name


def test_batch_loss_raises_on_all_masked_row(g):
    m, batch = _mixed_batch(g, "NAG", "graph")
    m._masks["Expr"] = np.full(len(m.grammar.productions), -np.inf)
    with pytest.raises(nn.DegenerateMaskError):
        M.batch_loss(m, batch)


# -- the message-passing kernel ----------------------------------------------

def decoder_kernel_fd_check(config):
    """The worst relative finite-difference error of propagate's states (a
    fixed weighting of them) under `config`'s decoder edge set, in float64:
    their gradients in the label and edge embeddings, the edge-type weights
    and biases, the GRU and the encoder's seeds, over a sample of each
    one's entries, on the mixed batch of seven samples."""
    import dataclasses

    m, batch = _mixed_batch(builtin_grammar(), config, "seq")
    with nn.no_grad():
        enc = M.encode_many(m, batch)
    seeds = {name: nn.Tensor(getattr(enc, name).data.copy(), requires_grad=True)
             for name in ("roots", "var_table")}
    enc = dataclasses.replace(enc, **seeds)
    batched = A.batch_graphs([pr.graph for pr in batch])
    label_idx = np.concatenate([pr.label_idx for pr in batch])
    assert len(batch) >= 2 and len(batched.schedule) >= 4  # three rounds or more
    checked = [(n, t) for n, t in m.params.items() if n.startswith(("dec_emb_", "dec_g_", "dec_f_"))]
    store = type("Checked", (), {"items": lambda self: checked + list(seeds.items())})()
    return test_neural._fd_check(
        store, lambda: test_neural._weighted_sum(M.propagate(m, batched, label_idx, batch, enc), 50),
        samples_per_tensor=5)


@pytest.mark.parametrize("config", ["Tree", "ASN", "Syn", "NAG"])
def test_decoder_kernel_gradients(config):
    # gate 04 runs this check under each decoder edge set
    decoder_kernel_fd_check(config)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("config", ["Tree", "Syn"])
def test_propagate_equals_per_round_oracle_exactly(g, config, dtype):
    # with unlabelled edges and at most one in-edge of a type per node, the
    # kernel's messages are the oracle's per-type linear maps summed in the
    # same order: the same bits. (Labelled edges are one product over
    # [state, label] in the oracle, and NAG sums several Parent edges per
    # type first: test_batch_loss_matches_per_decision_oracle covers those.)
    # Each sample comes twice, so no round has a single new node: NumPy
    # multiplies a single row by another BLAS routine, which may round the
    # GRU's input side differently from the kernel's product over all rows.
    m, batch = _mixed_batch(g, config, "seq")
    batch += batch
    m.params = m.params.astype(dtype)
    batched = A.batch_graphs([pr.graph for pr in batch])
    label_idx = np.concatenate([pr.label_idx for pr in batch])
    with nn.no_grad():
        encs = M.encode_many(m, batch)
        got = M.propagate(m, batched, label_idx, batch, encs)
        want = _oracle_propagate(m, batched, label_idx, [encs[i] for i in range(len(batch))])
    assert len(batched.schedule) >= 4
    assert got.data.dtype == dtype and np.array_equal(got.data, want.data)


def _interior_nodes(loss):
    """The tape nodes reachable from loss that an op made (not leaves)."""
    seen, stack, count = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            count += bool(t._parents)
            stack.extend(t._parents)
    return count


def test_tape_nodes_do_not_grow_with_rounds(g, folds):
    # Syn's NextExp chain deepens the schedule that Tree's Child edges give
    # the same batch; everything else of the two configs' losses is alike,
    # so their tapes must have as many nodes
    samples = sorted(folds["train"][:100], key=lambda s: -len(s.target))[:4]
    counts, rounds = [], []
    for config in ("Tree", "Syn"):
        m = Model(g, config=config, encoder="seq", hidden=8, emb_dim=4, seed=0,
                  token_vocab=M.token_vocab_from_samples(samples))
        batch = [prep_sample(m, s) for s in samples]
        counts.append(_interior_nodes(M.batch_loss(m, batch)[0]))
        rounds.append(len(A.batch_graphs([pr.graph for pr in batch]).schedule))
    assert rounds[1] > rounds[0] + 3 and counts[0] == counts[1], (rounds, counts)


def test_train_records_nll_per_decision_kind(fitted_grammar, token_vocab, folds):
    m = Model(fitted_grammar, config="NAG", encoder="graph", hidden=16, emb_dim=8, seed=0,
              token_vocab=token_vocab)
    samples = folds["train"][:12]
    rec = train(m, samples, epochs=1, batch_size=5)[0]
    plans = [prep_sample(m, s).plan for s in samples]
    for k in "PVL":
        assert rec[f"decisions_{k}"] == sum(dec[0] == k for plan in plans for dec in plan)
        assert rec[f"nll_{k}"] > 0.0
    total = rec["nll_P"] + rec["nll_V"] + rec["nll_L"]
    assert abs(total - rec["train_nll"]) <= 1e-5 * rec["train_nll"]


@pytest.mark.parametrize("which", ["small", "gmodel"])
def test_fold_perplexity_matches_per_sample_losses(which, request, folds):
    model = request.getfixturevalue(which)
    samples = folds["test"][:25]  # graph: two batches, the second short
    losses = [sample_loss(model, s) for s in samples]
    nll = sum(loss for loss, _ in losses)
    decisions = sum(len(steps) for _, steps in losses)
    ppl, _ = M.fold_perplexity(model, samples)
    assert abs(ppl - math.exp(nll / decisions)) <= 1e-6 * ppl


def test_loss_decreases_under_optimization(small, folds):
    import copy

    m = Model(small.grammar, config="NAG", encoder="seq", hidden=32, emb_dim=16,
              edge_emb=8, seed=9, token_vocab=small.token_vocab)
    s = folds["train"][0]
    pr = prep_sample(m, s)
    opt = nn.OptState(lr=1e-3)
    losses = []
    for _ in range(50):
        m.params.zero_grad()
        loss, _ = M.batch_loss(m, [pr])
        losses.append(float(loss.data))
        nn.backward(loss)
        nn.adam_step(m.params, opt)
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert drops >= 45


def test_batching_equivalence(small, folds):
    batch = [prep_sample(small, s) for s in folds["train"][:6]]
    with nn.no_grad():
        total, _ = M.batch_loss(small, batch)
        singles = sum(float(M.batch_loss(small, [pr])[0].data) for pr in batch)
    assert abs(float(total.data) - singles) < 1e-4


def test_train_determinism(fitted_grammar, token_vocab, folds):
    kw = dict(config="ASN", encoder="seq", hidden=16, emb_dim=8, seed=3,
              token_vocab=token_vocab)
    h1 = train(Model(fitted_grammar, **kw), folds["train"][:6], epochs=3, seed=1)
    h2 = train(Model(fitted_grammar, **kw), folds["train"][:6], epochs=3, seed=1)
    assert [r["train_nll"] for r in h1] == [r["train_nll"] for r in h2]


def test_train_stops_on_non_finite_gradient(fitted_grammar, token_vocab, folds, monkeypatch):
    m = Model(fitted_grammar, config="ASN", encoder="graph", hidden=16, emb_dim=8, seed=0,
              token_vocab=token_vocab)
    before = {n: t.data.copy() for n, t in m.params.items()}
    real_backward = nn.backward

    def poisoned_backward(loss):
        real_backward(loss)
        m.params["dec_score_b"].grad[0] = np.nan

    monkeypatch.setattr(nn, "backward", poisoned_backward)
    with pytest.raises(M.TrainingDivergedError, match="non-finite gradient at epoch 0"):
        train(m, folds["train"][:4], epochs=1)
    assert all(np.array_equal(before[n], t.data) for n, t in m.params.items())


def test_train_records_gradient_norm(fitted_grammar, token_vocab, folds):
    kw = dict(config="ASN", encoder="graph", hidden=16, emb_dim=8, seed=0,
              token_vocab=token_vocab)
    clipped = train(Model(fitted_grammar, **kw), folds["train"][:4], epochs=1,
                    batch_size=2, clip_norm=1e-6)
    free = train(Model(fitted_grammar, **kw), folds["train"][:4], epochs=1,
                 batch_size=2, clip_norm=0)
    assert clipped[0]["clipped_share"] == 1.0 and free[0]["clipped_share"] == 0.0
    # the norm is taken before clipping
    assert clipped[0]["grad_norm_max"] > 1e-3
    assert math.isfinite(free[0]["grad_norm_max"]) and free[0]["grad_norm_max"] > 1e-3


def test_train_records_phase_times(fitted_grammar, token_vocab, folds):
    m = Model(fitted_grammar, config="NAG", encoder="graph", hidden=16, emb_dim=8, seed=0,
              token_vocab=token_vocab)
    samples = folds["train"][:8]
    phases = ("prep_s", "forward_s", "backward_s", "adam_s")
    start = time.perf_counter()
    first = train(m, samples, epochs=1, batch_size=3)[0]
    wall = time.perf_counter() - start
    for key in phases + ("samples_per_s",):
        assert first[key] >= 0.0, key
    assert first["prep_s"] > 0.0 and first["samples_per_s"] > 0.0
    assert sum(first[k] for k in phases) <= wall
    # the batches of an epoch take len(samples) / samples_per_s seconds
    assert sum(first[k] for k in phases[1:]) <= len(samples) / first["samples_per_s"]
    later = train(m, samples, epochs=2, batch_size=3)[1]
    assert later["prep_s"] == 0.0 and later["forward_s"] > 0.0


def test_train_rejects_empty():
    g = load_grammar(FORCED)
    m = Model(g, config="Tree", encoder="seq", hidden=8, emb_dim=4, seed=0)
    with pytest.raises(ModelError):
        train(m, [], epochs=1)


@pytest.mark.parametrize("batch_size", [0, -3])
def test_train_rejects_bad_batch_size(fitted_grammar, token_vocab, folds, batch_size):
    m = Model(fitted_grammar, config="Tree", encoder="seq", hidden=8, emb_dim=4, seed=0,
              token_vocab=token_vocab)
    with pytest.raises(ModelError):
        train(m, folds["train"][:2], epochs=1, batch_size=batch_size)


# -- decoding ---------------------------------------------------------------

def test_forced_grammar_decodes_unique_tree():
    g = load_grammar(FORCED)
    m = Model(g, config="Tree", encoder="seq", hidden=16, emb_dim=8, seed=0)
    res = decode_beam(m, ["t"], [], {}, width=5)
    assert len(res.hypotheses) == 1
    tree, lp = res.hypotheses[0]
    assert lp == 0.0
    assert serialize_decisions(tree) == "P0 P1"


def test_width_1_equals_greedy(fitted_grammar, token_vocab, folds):
    # checked against full propagation, not the incremental decoder: every
    # width-1 decision is an argmax of the teacher-forced distribution, and
    # the hypothesis's log-probability is the tree's likelihood. The model is
    # trained a little so its trees end within max_steps; untrained ones
    # mostly run on.
    m = Model(fitted_grammar, config="NAG", encoder="graph", hidden=32, emb_dim=16,
              edge_emb=8, seed=0, token_vocab=token_vocab)
    train(m, folds["train"][:20], epochs=4, seed=0)
    checked = 0
    for s in folds["test"]:
        res = decode_beam(m, s.before, s.after, s.scope, width=1)
        assert len(res.hypotheses) <= 1
        if not res.hypotheses:
            continue
        tree, lp = res.hypotheses[0]
        pr = prep_sample(m, make_sample(tree, s.scope, s.before, s.after))
        with nn.no_grad():
            encs = M.encode_many(m, [pr])
            states = M.propagate(m, pr.graph, pr.label_idx, [pr], encs)
            dists = _teacher_dists(m, pr, states, encs[0])
        for dec, dist in zip(pr.plan, dists):
            if dec[0] == "L":
                entries = list(m.grammar.literal_vocab[dec[2]]) + pr.lex[dec[2]][1]
                merged = literal_spelling_probs(nn.Tensor(dist), entries)
                chosen, best = merged[dec[3]], max(merged.values())
            else:
                chosen = dist[dec[2] if dec[0] == "P" else pr.ctx_order.index(dec[2])]
                best = dist.max()
            assert chosen >= best - 1e-6
        assert abs(lp + sample_loss(m, pr)[0]) < 1e-5
        checked += 1
        if checked == 5:
            break
    assert checked == 5


def test_teacher_forcing_matches_forced_decode(small, folds):
    for s in folds["train"][:10]:
        pr = prep_sample(small, s)
        with nn.no_grad():
            encs = M.encode_many(small, [pr])
            states = M.propagate(small, pr.graph, pr.label_idx, [pr], encs)
            tf_dists = _teacher_dists(small, pr, states, encs[0])
        inc_states, inc_dists = forced_decode(small, pr)
        assert len(tf_dists) == len(inc_dists)
        for a, b in zip(tf_dists, inc_dists):
            assert np.max(np.abs(a - b)) < 1e-5
        # the forced run settles every node of the tree, the last decision's too
        assert sorted(inc_states) == list(range(len(pr.graph.nodes)))
        inc = np.stack([inc_states[a] for a in sorted(inc_states)])
        assert np.max(np.abs(inc - states.data)) < 1e-5


def _teacher_dists(model, pr, states, enc):
    dists = []
    var_aid = {n: None for n in pr.ctx_order}
    for dec in pr.plan:
        key = nn.rows(states, dec[1])
        rows = [
            enc.var_reps[n] if var_aid[n] is None else nn.rows(states, var_aid[n])
            for n in pr.ctx_order
        ]
        if dec[0] == "P":
            dists.append(pick_production_dist(model, key, dec[3], enc, rows).data.copy())
        elif dec[0] == "V":
            dists.append(pick_variable_dist(model, key, rows).data.copy())
            var_aid[dec[2]] = dec[3]
        else:
            probs, _ = pick_literal_dist(model, key, dec[2], enc, pr.lex[dec[2]])
            dists.append(probs.data.copy())
    return dists


def test_beam_respects_width_and_max_steps(small, folds):
    s = folds["train"][0]
    res = decode_beam(small, s.before, s.after, s.scope, width=3, max_steps=2)
    assert len(res.hypotheses) <= 3
    with pytest.raises(ModelError):
        decode_beam(small, s.before, s.after, s.scope, width=0)


def test_beam_statistics(small, folds, monkeypatch):
    # every scored continuation is either pruned or made a hypothesis
    children = []  # every child hypothesis makes its decision through GraphBuilder.decide
    decide = A.GraphBuilder.decide
    monkeypatch.setattr(A.GraphBuilder, "decide",
                        lambda self, *a: children.append(1) or decide(self, *a))
    for s in folds["test"][:4]:
        children.clear()
        res = decode_beam(small, s.before, s.after, s.scope, width=5)
        assert res.expanded == res.pruned + len(children)
        assert res.pruned > 0 and res.dead_end == 0
    # with no variable in scope, S -> Var leads to a slot without actions
    m = Model(load_grammar(SMALL), config="NAG", encoder="seq", hidden=8, emb_dim=4,
              edge_emb=4, seed=0)
    children.clear()
    res = decode_beam(m, ["a", ";"], [], {}, width=8)
    assert res.dead_end == 1 and res.expanded == res.pruned + len(children)
    assert all(tree.nodes[1].label != "Var" for tree, _ in res.hypotheses)


@pytest.mark.parametrize("which", ["small", "gmodel"])
def test_one_context_decode_starts_no_thread(which, request, folds, monkeypatch):
    # a decode_beam encodes one context, which the GGNN forward runs as one
    # range, so no call constructs a worker pool; a chunk of several graph
    # contexts is run as two halves, one on a worker thread
    model = request.getfixturevalue(which)

    def refused(*args, **kwargs):
        raise AssertionError("a worker pool was constructed")

    monkeypatch.setattr(nn, "ThreadPoolExecutor", refused)
    for s in folds["test"][:3]:
        decode_beam(model, s.before, s.after, s.scope, width=5)
    contexts = [(s.before, s.after, s.scope) for s in folds["test"][:6]]
    if which == "gmodel":
        with pytest.raises(AssertionError, match="^a worker pool was constructed$"):
            M.decode_many(model, contexts, width=1)
    else:
        M.decode_many(model, contexts, width=1)


# Decoding a chunk: "a" and "e" are one-decision trees, a tree through "b"
# takes four decisions, Var and IntLit two.
CHUNKED = """
@start S
@variable Var
@literal int IntLit
@literals int: 0, 1
S -> "a"
S -> "e"
S -> Var
S -> IntLit
S -> "b" T T T
T -> "c"
T -> "d"
"""


def _alone(enc, i):
    """Sample i of a BatchEncoding as a BatchEncoding of its own."""
    v0, v1, t0, t1 = *enc.var_start[i : i + 2], *enc.tok_start[i : i + 2]
    return M.BatchEncoding(nn.Tensor(enc.roots.data[i : i + 1]),
                           nn.Tensor(enc.var_table.data[v0:v1]), np.array([0, v1 - v0]),
                           nn.Tensor(enc.tokens.data[t0:t1]), np.array([0, t1 - t0]),
                           [enc.names[i]])


def _beam(res):
    return [serialize_decisions(t) for t, _ in res.hypotheses], \
        (res.expanded, res.pruned, res.dead_end, res.discarded)


def _assert_same_beam(a, b):
    assert _beam(a) == _beam(b)
    assert all(abs(x - y) < 1e-5 for (_, x), (_, y) in zip(a.hypotheses, b.hypotheses))


@pytest.mark.parametrize("encoder", ["seq", "graph"])
@pytest.mark.parametrize("config", ["Tree", "ASN", "Syn", "NAG"])
def test_chunk_decodes_each_hole_as_alone(config, encoder, folds, token_vocab):
    # a hole's beam does not depend on its chunk-mates. The root states of
    # the first four holes are set so that their first decision favours:
    # "a" or "e" (the hole finishes at step 1), Var with an empty scope (a
    # dead end), "b" (cut by max_steps) and IntLit (a literal pick)
    g = load_grammar(CHUNKED)
    m = Model(g, config=config, encoder=encoder, hidden=16, emb_dim=8, edge_emb=4, seed=1,
              token_vocab=token_vocab)
    ctxs = [(s.before, s.after, s.scope) for s in folds["test"][:6]]
    ctxs[1] = (ctxs[1][0], ctxs[1][1], {})
    prods = [p.rhs[0] for p in g.productions if p.lhs == "S"]
    favour = [["a", "e"], ["Var"], ["b"], ["IntLit"]]
    W = m.params["dec_score_W"].data[: m.hidden]  # the key's rows
    with nn.no_grad():
        preppeds = [M.prep_context(m, *c) for c in ctxs]
        enc = M.encode_many(m, preppeds)
        roots = enc.roots.data.copy()
        for i, names in enumerate(favour):
            target = np.array([30.0 if p in names else 0.0 for p in prods] + [0.0, 0.0])
            roots[i] = np.linalg.lstsq(W.T, target, rcond=None)[0]
        enc.roots = nn.Tensor(roots)
        chunk = M._decode(m, preppeds, enc, width=2, max_steps=3)
        for i, pr in enumerate(preppeds):
            _assert_same_beam(chunk[i], M._decode(m, [pr], _alone(enc, i), width=2, max_steps=3)[0])
    trees, (_, _, dead_end, discarded) = _beam(chunk[0])
    assert sorted(trees) == ["P0", "P1"] and discarded == 0
    assert chunk[1].dead_end >= 1 and chunk[2].discarded >= 1
    assert any(t.startswith("P3 L") for t in _beam(chunk[3])[0])
    # and with each context's own encoding, as decode_beam computes it
    for res, c in zip(M.decode_many(m, ctxs, width=3), ctxs):
        _assert_same_beam(res, decode_beam(m, *c, width=3))


# -- persistence ------------------------------------------------------------

def test_save_load_round_trip(small, folds, tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_model(small, path)
    m2 = load_model(path)
    assert m2.config.name == "NAG" and m2.encoder == "seq"
    s = folds["train"][0]
    assert sample_loss(small, s)[0] == sample_loss(m2, s)[0]


def test_load_detects_manifest_tamper(small, tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_model(small, path)
    man, params = nn.load_checkpoint(path)
    man["grammar"] += "\n# tampered"
    nn.save_checkpoint(params, path, man)
    with pytest.raises(ModelError, match="grammar hash mismatch"):
        load_model(path)


class _FullDisk(io.FileIO):
    """A file whose writes after the first raise, as on a full disk."""

    writes = 0

    def write(self, b):
        self.writes += 1
        if self.writes > 1:
            raise OSError(28, "No space left on device")
        return super().write(b)


def test_save_is_crash_safe(small, folds, tmp_path, monkeypatch):
    # a save that fails part way leaves the checkpoint already at the path
    # byte-identical and loadable, and no other file beside it
    path = tmp_path / "m.ckpt"
    save_model(small, str(path))
    before = path.read_bytes()
    other = Model(small.grammar, config="NAG", encoder="seq", hidden=32, emb_dim=16,
                  edge_emb=8, seed=1, token_vocab=small.token_vocab)
    monkeypatch.setattr(nn, "open", _FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_model(other, str(path))
    monkeypatch.undo()
    assert path.read_bytes() == before and os.listdir(tmp_path) == ["m.ckpt"]
    s = folds["train"][0]
    assert sample_loss(load_model(str(path)), s)[0] == sample_loss(small, s)[0]


# -- beam pin ---------------------------------------------------------------

@pytest.fixture(scope="module")
def pin_folds(g):
    return P.split(P.dedup(P.extract_samples(P.generate_corpus(1, 12, 4), g)), seed=1)


@pytest.fixture(scope="module")
def pin_data(g, pin_folds):
    return (P.literal_vocab_from_samples(pin_folds["train"], g),
            M.token_vocab_from_samples(pin_folds["train"]), pin_folds["test"][:8])


# sha256 of the beams of untrained seeded models on the first test holes of
# a small seeded corpus, at widths 1 and 5: every hypothesis's decisions and
# log-probability bits, and each hole's counters. A change to decoding that
# moves one bit of a beam fails here. Recorded, as the training pin below,
# under NumPy 2.4.6 with scipy-openblas 0.3.31 on its SkylakeX core (as
# scipy_openblas_get_corename64_ in numpy.libs reads it)
@pytest.mark.parametrize("encoder, config, digest", [
    ("seq", "Tree",
     "3b9c125f8406bc265e09fef84be8be40b8569212a97c8e6d019c8a9b93ff0272"),
    ("seq", "ASN",
     "fb198edff5364ab1b3b503b31de74d33682469bc51911c2e210fab87df9df509"),
    ("seq", "Syn",
     "096a4ecdf25430ccd6006d81af37569f177d69255f28e815bd35a0e66900f942"),
    ("seq", "NAG",
     "b6ce80917ad2d63fae1abe223376933fe181b262182fe42f6a5d7a23660036ac"),
    ("graph", "Tree",
     "49740c0f26bc97a1adb8874251690f01237076405eefb700d275aeca0685b7a4"),
    ("graph", "ASN",
     "da57c70fb165c129ea865889a3642480a1168b4ab4b54896934cfd5267984a5d"),
    ("graph", "Syn",
     "0dbf6501fd432844c0a7895ebe88c5e07d264af94048f88cc8c56f56478c88fb"),
    ("graph", "NAG",
     "233a40849fe793e18cffcb393964c25a74539093feae29b8f080c9806ec82203"),
])
def test_beams_are_pinned(encoder, config, digest, pin_data):
    grammar, vocab, holes = pin_data
    m = Model(grammar, config=config, encoder=encoder, hidden=16, emb_dim=8, edge_emb=4,
              seed=3, token_vocab=vocab)
    beams = [[[(serialize_decisions(t), float.hex(lp)) for t, lp in res.hypotheses],
              res.expanded, res.pruned, res.dead_end, res.discarded]
             for width in (1, 5)
             for res in M.decode_many(m, [(s.before, s.after, s.scope) for s in holes], width)]
    assert hashlib.sha256(json.dumps(beams).encode()).hexdigest() == digest


# sha256 of every parameter's name and bytes after training seeded hidden-16
# NAG models for 2 epochs at batch size 4 on the beam pin's train fold. A
# change to the forward, the backward, clipping or Adam that moves one bit of
# a trained weight fails here; the digests hold with BLAS on one thread or
# on several. Recorded under NumPy 2.4.6 with scipy-openblas 0.3.31 on its
# SkylakeX core
@pytest.mark.parametrize("encoder, digest", [
    ("graph", "d387172b97f78c95fbf7de2598e84fb59b4e693f2ba299e3e3f7e846f081ae80"),
    ("seq", "98de8aa5588a26720d79b3fc289a7ebfab714ba308107d81da21f0ba7cc08398"),
])
def test_training_is_pinned(encoder, digest, pin_data, pin_folds):
    grammar, vocab, _ = pin_data
    m = Model(grammar, config="NAG", encoder=encoder, hidden=16, emb_dim=8, edge_emb=4,
              seed=3, token_vocab=vocab)
    M.train(m, pin_folds["train"], epochs=2, batch_size=4)
    h = hashlib.sha256()
    for name, t in m.params.items():
        h.update(name.encode())
        h.update(t.data.tobytes())
    assert h.hexdigest() == digest
