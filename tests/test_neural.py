import hashlib
import math
import os
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest

from nagc import neural as nn
from nagc.neural import (
    DegenerateMaskError,
    NeuralError,
    OptState,
    ParamStore,
    ShapeError,
    Tensor,
    adam_step,
    attention,
    backward,
    gru_cell,
    gru_param_shapes,
    init_params,
    linear,
    load_checkpoint,
    masked_softmax,
    save_checkpoint,
)

import autodiff_ops as ops

EPS = 1e-5
TOL = 1e-4


def _fd_check(params, loss_fn, samples_per_tensor=None, eps=EPS):
    """Central finite differences against the analytic gradients."""
    loss = loss_fn()
    backward(loss)
    worst = 0.0
    for name, t in params.items():
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        idxs = range(flat.size)
        if samples_per_tensor is not None and flat.size > samples_per_tensor:
            idxs = np.random.default_rng(0).choice(flat.size, samples_per_tensor, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            lp = float(loss_fn().data)
            flat[i] = orig - eps
            lm = float(loss_fn().data)
            flat[i] = orig
            num = (lp - lm) / (2 * eps)
            an = grad.reshape(-1)[i]
            denom = max(abs(num), abs(an), 1e-8)
            worst = max(worst, abs(num - an) / denom)
    assert worst < TOL, worst
    return worst


def test_linear_gradients():
    p = init_params({"l_W": (4, 3), "l_b": (3,)}, seed=0, dtype=np.float64)
    x = np.random.default_rng(1).normal(size=(5, 4))
    _fd_check(p, lambda: nn.tsum(ops.mul(linear(Tensor(x), p, "l"), linear(Tensor(x), p, "l"))))


def _gru_store(seed, inputs, prefixes=("g",)):
    """Float64 GRU parameters (d=4, H=3) for each prefix, biases nonzero,
    plus the named input tensors, so that _fd_check covers their gradients
    too."""
    shapes = {k: v for pre in prefixes for k, v in gru_param_shapes(pre, 4, 3).items()}
    p = init_params(shapes, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for _, t in p.items():
        t.data = rng.normal(size=t.data.shape)
    for name, shape in inputs.items():
        p.register(name, rng.normal(size=shape))
    return p


def _weighted_sum(out, seed):
    # fixed random weights, so that no gradient cancels by symmetry
    w = np.random.default_rng(seed).normal(size=out.data.shape)
    return nn.tsum(ops.mul(ops.tanh(out), Tensor(w)))


BI = ("g_f", "g_b")  # the two directions of a bidirectional layer "g"


def test_gru_gradients():
    p = init_params(gru_param_shapes("g", 4, 3), seed=0, dtype=np.float64)
    rng = np.random.default_rng(2)
    x, h = rng.normal(size=(2, 4)), rng.normal(size=(2, 3))
    _fd_check(p, lambda: nn.tsum(ops.tanh(gru_cell(Tensor(x), Tensor(h), p, "g"))))
    # one step on an (N, d) batch, gradients into x and h included
    p = _gru_store(1, {"x": (5, 4), "h": (5, 3)})
    _fd_check(p, lambda: _weighted_sum(gru_cell(p["x"], p["h"], p, "g"), 1))
    # fused bidirectional runs and their final state, (T, d), time-major
    # (T, B, d), single-step runs (T = 1), and padded (T, B, d) batches of
    # columns of unequal lengths, each with a full column and one of a single
    # step
    for shape, lengths in (((6, 4), None), ((5, 2, 4), None), ((1, 4), None),
                           ((1, 2, 4), None), ((5, 3, 4), [5, 1, 3]), ((2, 2, 4), [1, 2])):
        p = _gru_store(2, {"x": shape}, BI)
        _fd_check(p, lambda: _weighted_sum(nn.bigru_scan(p["x"], p, "g", lengths), 2))
        p = _gru_store(3, {"x": shape}, BI)
        _fd_check(p, lambda: _weighted_sum(nn.bigru_final(nn.bigru_scan(p["x"], p, "g", lengths)), 3))


def test_gru_scan_equals_cell_loop():
    # the fused bidirectional kernel against two step-by-step gru_cell loops,
    # one per direction: same states, same final state and same gradients
    # for every parameter and input
    for shape in ((7, 4), (6, 3, 4), (1, 2, 4)):
        a, b = _gru_store(3, {"x": shape}, BI), _gru_store(3, {"x": shape}, BI)
        rng = np.random.default_rng(4)
        w, wf = rng.normal(size=shape[:-1] + (6,)), rng.normal(size=shape[1:-1] + (6,))
        scan = nn.bigru_scan(a["x"], a, "g")
        final = nn.bigru_final(scan)
        backward(nn.add(nn.tsum(ops.mul(scan, Tensor(w))), nn.tsum(ops.mul(final, Tensor(wf)))))
        steps = {}
        for d, order in (("f", range(shape[0])), ("b", reversed(range(shape[0])))):
            h = Tensor(np.zeros(shape[1:-1] + (3,)))
            for t in order:
                h = steps[d, t] = gru_cell(nn.rows(b["x"], t), h, b, f"g_{d}")
        loop = nn.concat([nn.stack_rows([steps[d, t] for t in range(shape[0])]) for d in "fb"],
                         axis=-1)
        loop_final = nn.concat([steps["f", shape[0] - 1], steps["b", 0]], axis=-1)
        backward(nn.add(nn.tsum(ops.mul(loop, Tensor(w))), nn.tsum(ops.mul(loop_final, Tensor(wf)))))
        assert np.max(np.abs(scan.data - loop.data)) < 1e-10
        assert np.max(np.abs(final.data - loop_final.data)) < 1e-10
        for (name, ta), (_, tb) in zip(a.items(), b.items()):
            assert np.max(np.abs(ta.grad - tb.grad)) < 1e-8, name

    # a padded batch against each of its columns run alone: the same states
    # on each column's own steps, the same final states, the same gradients;
    # padded steps read nothing, so their inputs get no gradient
    lengths = [6, 1, 4]
    cols = {f"x{j}": (n, 4) for j, n in enumerate(lengths)}
    a, b = _gru_store(5, {"x": (6, 3, 4)}, BI), _gru_store(5, cols, BI)
    for j, n in enumerate(lengths):
        b[f"x{j}"].data = a["x"].data[:n, j].copy()
    rng = np.random.default_rng(6)
    w, wf = rng.normal(size=(6, 3, 6)), rng.normal(size=(3, 6))
    w[np.arange(6)[:, None] >= lengths] = 0.0  # each column's own steps
    scan = nn.bigru_scan(a["x"], a, "g", lengths)
    final = nn.bigru_final(scan)
    backward(nn.add(nn.tsum(ops.mul(scan, Tensor(w))), nn.tsum(ops.mul(final, Tensor(wf)))))
    for j, n in enumerate(lengths):
        alone = nn.bigru_scan(b[f"x{j}"], b, "g")
        alone_final = nn.bigru_final(alone)
        assert np.max(np.abs(scan.data[:n, j] - alone.data)) < 1e-10
        assert np.max(np.abs(final.data[j] - alone_final.data)) < 1e-10
        assert np.array_equal(scan.data[n:, j, 3:], np.zeros((6 - n, 3)))
        backward(nn.add(nn.tsum(ops.mul(alone, Tensor(w[:n, j]))),
                        nn.tsum(ops.mul(alone_final, Tensor(wf[j])))))
        assert np.max(np.abs(a["x"].grad[:n, j] - b[f"x{j}"].grad)) < 1e-8
        assert not a["x"].grad[n:, j].any()
    for name, t in a.items():
        if name != "x":
            assert np.max(np.abs(t.grad - b[name].grad)) < 1e-8, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gru_step_equals_per_gate_formulas(dtype):
    # bit for bit: the stacked z/r block with its negation folded into the
    # operands, the in-place sigmoid and the in-place candidate and state
    # against the textbook GRU written one gate at a time
    rng = np.random.default_rng(50)
    d, H = 4, 5
    Wz, Wr, Wh = (rng.normal(size=(d, H)).astype(dtype) for _ in range(3))
    Uz, Ur, Uh = (rng.normal(size=(H, H)).astype(dtype) for _ in range(3))
    bz, br, bh = (rng.normal(size=H).astype(dtype) for _ in range(3))
    br[0] = -1e4  # exp(-a) overflows to inf: r[..., 0] is 0
    for lead, masked in (((), False), ((6,), False), ((6,), True)):
        x = rng.normal(size=lead + (d,)).astype(dtype)
        h = rng.normal(size=lead + (H,)).astype(dtype)
        mask = (rng.random(lead + (H,)) < 0.5).astype(dtype) if masked else None
        with np.errstate(over="ignore"):
            z = 1.0 / (1.0 + np.exp(-((x @ Wz + bz) + h @ Uz)))
            r = 1.0 / (1.0 + np.exp(-((x @ Wr + br) + h @ Ur)))
            z = z * mask if masked else z
            c = np.tanh((x @ Wh + bh) + (r * h) @ Uh)
            zr, cand = -np.array([x @ Wz + bz, x @ Wr + br]), x @ Wh + bh
            rh, out = np.empty_like(h), np.empty_like(h)
            nn._gru_step(zr, cand, h, np.array([Uz, Ur]), Uh, rh, out, mask)
        assert not r[..., 0].any()
        for got, want in ((zr[0], z), (zr[1], r), (cand, c), (rh, r * h), (out, h + z * (c - h))):
            assert got.dtype == dtype and np.array_equal(got, want), (lead, masked)
        # the in-place backward step, into reused buffers, against its
        # derivatives written out, each product formed left to right
        dh = rng.normal(size=h.shape).astype(dtype)
        dah = dh * (z * (1.0 - c * c))
        drh = dah @ Uh.T
        daz, dar = dh * ((c - h) * z * (1.0 - z)), drh * (h * r * (1.0 - r))
        want = (daz, dar, dah, dh * (1.0 - z) + drh * r + daz @ Uz.T + dar @ Ur.T)
        bufs = [np.full_like(h, np.nan) for _ in range(8)]
        local = nn._gru_local(h, z, r, c, bufs[:4])
        nn._gru_step_bw(dh, r, local, (Uz.T, Ur.T, Uh.T), bufs[4:])
        for got, w in zip(bufs[4:7] + [dh], want):
            assert got.dtype == dtype and np.array_equal(got, w), (lead, masked)


def test_stacked_gate_product_has_the_bits_of_three_products():
    # the BLAS facts the GGNN step and the attribute rounds rely on, at
    # float32 and d = 64: a broadcast product of 1, 2 or 40 rows against a
    # (3, d, d) stack gives each slice the bits of its own product, also
    # into a strided out as a half's rows of the gate block; and a 1-row
    # product (gemv) rounds otherwise than the same row inside a larger
    # product (gemm)
    rng = np.random.default_rng(90)
    d = 64
    Ws = rng.normal(size=(3, d, d)).astype(np.float32)
    for rows in (1, 2, 40):
        x = rng.normal(size=(rows, d)).astype(np.float32)
        out = np.empty((3, rows + 4, d), np.float32)[:, 2 : rows + 2]
        for got in (x @ Ws, np.matmul(x, Ws, out=out)):
            for i in range(3):
                assert got[i].tobytes() == (x @ Ws[i]).tobytes(), (rows, i)
    x = rng.normal(size=(40, d)).astype(np.float32)
    full = x @ Ws[0]
    assert any((x[i : i + 1] @ Ws[0]).tobytes() != full[i : i + 1].tobytes() for i in range(40))


def test_gru_kernels_forward_ignores_the_tape():
    # bigru_scan (plain and padded), gru_cell, ggnn and gated_rounds give
    # the same bits under no_grad as on the tape
    p = _gru_store(60, {"x": (6, 3, 4), "h": (3, 3), "xs": (3, 4)}, BI + ("g",))
    gg, edges = _ggnn_store(61)
    rp, names, rounds = _rounds_store(62, labelled=True)
    runs = [lambda: nn.bigru_scan(p["x"], p, "g"),
            lambda: nn.bigru_scan(p["x"], p, "g", [6, 1, 4]),
            lambda: gru_cell(p["xs"], p["h"], p, "g"),
            lambda: gru_cell(p["xs"].data[0], p["h"].data[0], p, "g"),
            lambda: nn.ggnn(gg["h"], edges, gg, list(_GG_EDGES), "gg", 3),
            lambda: nn.gated_rounds(rp["table"], rp["x"], rounds, rp, names, "g", rp["emb"])]
    for i, run in enumerate(runs):
        taped = run()
        with nn.no_grad():
            free = run()
        assert taped._parents and not free._parents, i
        assert np.array_equal(taped.data, free.data), i


def test_embedding_gradients():
    p = init_params({"emb": (6, 4)}, seed=0, dtype=np.float64)
    idx = [0, 3, 3, 5]  # repeated row exercises gradient accumulation
    _fd_check(p, lambda: nn.tsum(ops.mul(nn.rows(p["emb"], idx), nn.rows(p["emb"], idx))))


def _add_at(shape, idx, src):
    out = np.zeros(shape, dtype=src.dtype)
    np.add.at(out, idx, src)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_sum_equals_add_at(dtype):
    # bit for bit, for every index shape the engine passes: each element
    # must take its additions in np.add.at's order
    rng = np.random.default_rng(20)
    cases = [
        ((5, 7), rng.integers(0, 5, 300)),  # duplicate-heavy
        ((5, 7), np.int64(3)),  # scalar
        ((6, 3, 7), rng.integers(0, 6, (4, 9))),  # time-major (T, B) into 3-D rows
        ((5, 7), np.zeros(0, dtype=np.int64)),  # empty
        ((9,), rng.integers(0, 9, 40)),  # 1-D, as in rows of a 1-D tensor
    ]
    for shape, idx in cases:
        src = (rng.normal(size=np.shape(idx) + shape[1:]) * 10.0 ** rng.integers(-6, 6)).astype(dtype)
        got = nn._segment_sum(np.zeros(shape, dtype), idx, src)
        assert got.dtype == dtype
        assert np.array_equal(got, _add_at(shape, idx, src)), (shape, np.shape(idx))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_and_scatter_match_add_at(dtype):
    rng = np.random.default_rng(21)
    a = Tensor(rng.normal(size=(6, 5)).astype(dtype), requires_grad=True)
    idx = rng.integers(0, 6, (7, 3))
    g = rng.normal(size=(7, 3, 5)).astype(dtype)
    backward(nn.tsum(ops.mul(nn.rows(a, idx), Tensor(g))))
    assert np.array_equal(a.grad, _add_at(a.data.shape, idx, g))

    src = Tensor(rng.normal(size=(40, 5)).astype(dtype), requires_grad=True)
    tgt = rng.integers(0, 4, 40)
    out = ops.scatter_rows(4, tgt, src)
    assert np.array_equal(out.data, _add_at((4, 5), tgt, src.data))

    v = Tensor(rng.normal(size=8).astype(dtype), requires_grad=True)
    idx = rng.integers(0, 8, 30)
    g = rng.normal(size=30).astype(dtype)
    backward(nn.tsum(ops.mul(nn.rows(v, idx), Tensor(g))))
    assert np.array_equal(v.grad, _add_at((8,), idx, g))


def test_scatter_rows_gradients():
    p = init_params({"src": (6, 3)}, seed=0, dtype=np.float64)
    p["src"].data[:] = np.random.default_rng(22).normal(size=(6, 3))
    _fd_check(p, lambda: _weighted_sum(ops.scatter_rows(4, [0, 2, 2, 0, 3, 2], p["src"]), 22))


# three rounds that add five rows to a table of four, written at rows 5, 4,
# then 7, 6, then 8: (round, type, source row, target position, label) of
# each edge, type by type within a round. Sources repeat within and across
# the types, and a round's targets read rows of earlier rounds.
_ROUND_EDGES = [(0, 0, 0, 0, 1), (0, 0, 1, 1, 0), (0, 0, 3, 0, 3), (0, 1, 2, 1, -1), (0, 1, 2, 0, -1),
                (1, 0, 5, 0, 2), (1, 0, 4, 1, 2), (1, 1, 0, 0, -1), (1, 1, 4, 0, -1), (1, 1, 5, 1, -1),
                (2, 0, 7, 0, 0), (2, 0, 6, 0, 1), (2, 0, 1, 0, 3), (2, 1, 6, 0, -1)]
_NEW_ROWS, _NODE_CUT = [5, 4, 7, 6, 8], [0, 2, 4, 5]
# each round's (type, first, end) slices of _ROUND_EDGES
_GROUPS = [[(0, 0, 3), (1, 3, 5)], [(0, 5, 7), (1, 7, 10)], [(0, 10, 13), (1, 13, 14)]]


def _rounds_store(seed, labelled=False):
    """Float64 parameters (d = 3) of the two edge types of _ROUND_EDGES and
    the GRU "g" (input width 4), the table and the GRU inputs x; with
    labelled, type 0 ("la") reads a 2-wide label embedding "emb"."""
    names = ["la" if labelled else "ea", "eb"]
    shapes = {"table": (4, 3), "x": (5, 4), **gru_param_shapes("g", 4, 3),
              f"{names[0]}_W": (5 if labelled else 3, 3), f"{names[0]}_b": (3,),
              "eb_W": (3, 3), "eb_b": (3,)}
    if labelled:
        shapes["emb"] = (4, 2)
    _, etype, src, tgt, label = np.array(_ROUND_EDGES).T
    rounds = nn.Rounds(_NEW_ROWS, _NODE_CUT, _GROUPS, src, tgt, etype, label)
    return _batch_store(seed, shapes), names, rounds


def _rounds_loop(p, names, labelled):
    """The rounds as the per-round, per-type composition of rows, linear,
    scatter_rows and gru_cell that the kernel replaces."""
    states = ops.scatter_rows(9, np.arange(4), p["table"])
    for r, (s, e) in enumerate(zip(_NODE_CUT, _NODE_CUT[1:])):
        msgs = None
        for t, name in enumerate(names):
            es = [edge for edge in _ROUND_EDGES if edge[:2] == (r, t)]
            inp = nn.rows(states, [edge[2] for edge in es])
            if labelled and t == 0:
                inp = nn.concat([inp, nn.rows(p["emb"], [edge[4] for edge in es])], axis=1)
            m = ops.scatter_rows(e - s, [edge[3] for edge in es], linear(inp, p, name))
            msgs = m if msgs is None else nn.add(msgs, m)
        new = gru_cell(nn.rows(p["x"], np.arange(s, e)), msgs, p, "g")
        states = nn.add(states, ops.scatter_rows(9, _NEW_ROWS[s:e], new))
    return states


@pytest.mark.parametrize("labelled", [False, True], ids=["unlabelled", "labelled"])
def test_gated_rounds_gradients(labelled):
    # the table, x, both edge types' weights and biases, the nine GRU arrays
    # and the label embedding
    p, names, rounds = _rounds_store(23, labelled)
    emb = p["emb"] if labelled else None
    _fd_check(p, lambda: _weighted_sum(nn.gated_rounds(p["table"], p["x"], rounds, p, names, "g", emb), 23))


@pytest.mark.parametrize("labelled", [False, True], ids=["unlabelled", "labelled"])
def test_gated_rounds_matches_per_type_loop(labelled):
    # the fused rounds against the loop they replace: same states, same
    # gradients
    (a, names, rounds), (b, _, _) = _rounds_store(24, labelled), _rounds_store(24, labelled)
    w = Tensor(np.random.default_rng(25).normal(size=(9, 3)))
    fused = nn.gated_rounds(a["table"], a["x"], rounds, a, names, "g", a["emb"] if labelled else None)
    backward(nn.tsum(ops.mul(fused, w)))
    loop = _rounds_loop(b, names, labelled)
    backward(nn.tsum(ops.mul(loop, w)))
    assert np.allclose(fused.data, loop.data, rtol=1e-12, atol=0)
    for (name, ta), (_, tb) in zip(a.items(), b.items()):
        assert np.allclose(ta.grad, tb.grad, rtol=1e-12, atol=1e-15), name


def test_gated_rounds_writes_into_buffer():
    # given out, the new rows go into it at rounds.rows, the table's rows
    # are read in place and the rows past the result stay as they were
    p, names, rounds = _rounds_store(26)
    want = nn.gated_rounds(p["table"], p["x"], rounds, p, names, "g")
    buf = np.full((12, 3), 7.0)
    buf[:4] = p["table"].data
    got = nn.gated_rounds(Tensor(buf[:4]), p["x"], rounds, p, names, "g", out=buf)
    assert got.data.base is buf and got.data.shape == (9, 3)
    assert np.array_equal(got.data, want.data) and np.all(buf[9:] == 7.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_layout_equals_add_at(dtype):
    # the degree-sorted layout must give every row its additions in
    # np.add.at's order: into zeros, and into a nonzero array, as gradients
    # accumulate. Entries of very different magnitudes make any other order
    # round differently.
    rng = np.random.default_rng(26)
    cases = [
        rng.integers(0, 7, 300),  # duplicate-heavy, every row named
        rng.integers(2, 5, 40),  # rows 0, 1, 5 and 6 take nothing
        np.full(50, 3),  # one row takes every entry
        np.zeros(0, dtype=np.int64),  # no entries
    ]
    for idx in cases:
        layout = nn._segment_layout(idx)
        src = (rng.normal(size=(len(idx), 5)) * 10.0 ** rng.integers(-6, 6, (len(idx), 1))).astype(dtype)
        for start in (np.zeros((7, 5), dtype), rng.normal(size=(7, 5)).astype(dtype)):
            want = start.copy()
            np.add.at(want, idx, src)
            got = nn._layout_sum(start.copy(), layout, src)
            assert got.dtype == dtype and got.tobytes() == want.tobytes(), len(idx)


# six edge types over six nodes, as the graph encoder has: sources and
# targets repeat within and across the types, type e3 has no edges and
# node 5 receives nothing
_GG_EDGES = {"e0": ([0, 1, 1, 3], [1, 2, 2, 0]), "e1": ([2, 2, 0], [0, 1, 1]), "e2": ([4, 5], [3, 4]),
             "e3": ([], []), "e4": ([5, 0, 2], [2, 4, 3]), "e5": ([1], [0])}


def _edge_index(n, d, edges):
    """An EdgeIndex of per-type (src, tgt) lists, type code k the k-th."""
    etype = np.repeat(np.arange(len(edges)), [len(s) for s, _ in edges])
    return nn.EdgeIndex(n, d, np.concatenate([s for s, _ in edges]),
                        np.concatenate([t for _, t in edges]), etype)


def _ggnn_store(seed):
    """Float64 GGNN parameters (d = 3) for the six types of _GG_EDGES and the
    GRU "gg", all nonzero, with the initial states h."""
    shapes = {"h": (6, 3), **gru_param_shapes("gg", 3, 3)}
    for name in _GG_EDGES:
        shapes.update({f"{name}_W": (3, 3), f"{name}_b": (3,)})
    p = init_params(shapes, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for _, t in p.items():
        t.data = rng.normal(size=t.data.shape)
    return p, _edge_index(6, 3, list(_GG_EDGES.values()))


def test_ggnn_gradients():
    # h0, the W and b of all six edge types and the nine GRU arrays
    for steps in (0, 1, 3):
        p, edges = _ggnn_store(30 + steps)
        _fd_check(p, lambda: _weighted_sum(nn.ggnn(p["h"], edges, p, list(_GG_EDGES), "gg", steps), 31))


def test_ggnn_matches_step_loop():
    # the fused steps against a loop of the primitives they replace, rows,
    # linear and scatter_rows per edge type, then gru_cell: same states,
    # same gradients. The layouts are built only where they are read: the
    # target layout by the forward steps, the source layout by the backward.
    a, edges = _ggnn_store(40)
    b, _ = _ggnn_store(40)
    w = Tensor(np.random.default_rng(41).normal(size=(6, 3)))
    # each type's span, cut from the sorted etype; the empty e3 has none
    assert edges.spans == [(0, 0, 4), (1, 4, 7), (2, 7, 9), (4, 9, 12), (5, 12, 13)]
    fused = nn.ggnn(a["h"], edges, a, list(_GG_EDGES), "gg", 3)
    assert "tgt_layout" in vars(edges) and "src_layout" not in vars(edges)
    backward(nn.tsum(ops.mul(fused, w)))
    assert "src_layout" in vars(edges)
    h = b["h"]
    for _ in range(3):
        msgs = None
        for name, (src, tgt) in _GG_EDGES.items():
            m = ops.scatter_rows(6, tgt, linear(nn.rows(h, src), b, name))
            msgs = m if msgs is None else nn.add(msgs, m)
        h = gru_cell(msgs, h, b, "gg")
    backward(nn.tsum(ops.mul(h, w)))
    assert np.allclose(fused.data, h.data, rtol=1e-12, atol=1e-14)
    for (name, ta), (_, tb) in zip(a.items(), b.items()):
        if name.startswith("e3_"):  # a type without edges is no parent of the node
            assert ta.grad is None and not np.any(tb.grad), name
            continue
        assert np.allclose(ta.grad, tb.grad, rtol=1e-10, atol=1e-12), name
    with pytest.raises(ShapeError):
        nn.ggnn(Tensor(np.zeros((5, 3))), edges, a, list(_GG_EDGES), "gg", 1)
    # without edges the states pass through as they are
    none = _edge_index(6, 3, [([], [])] * len(_GG_EDGES))
    assert none.spans == [] and nn.ggnn(a["h"], none, a, list(_GG_EDGES), "gg", 3) is a["h"]


def test_ggnn_tape_holds_node_sized_state_and_releases_it():
    # many more edges than nodes: the taped forward keeps per step its
    # input, state and [c, z, r] block (5 N d floats), nothing per
    # edge, and the backward releases each step's state once it has read it
    N, d, steps, names = 40, 16, 8, [f"e{i}" for i in range(6)]
    shapes = {"h": (N, d), **gru_param_shapes("gg", d, d)}
    for name in names:
        shapes.update({f"{name}_W": (d, d), f"{name}_b": (d,)})
    p = init_params(shapes, seed=70, dtype=np.float64)
    rng = np.random.default_rng(70)
    edges = _edge_index(N, d, [rng.integers(0, N, (2, 170)) for _ in names])
    assert nn.ggnn(p["h"], edges, p, names, "gg", 0) is p["h"]
    edges.tgt_layout, edges.src_layout  # the edges' own, built on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = nn.ggnn(p["h"], edges, p, names, "gg", steps)
        taped = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(nn.tsum(out))
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    state = N * d * 8  # bytes of one (N, d) array
    assert taped <= (5 * steps + 4) * state, taped
    # the parameter gradients, the output and its gradient, and less than
    # one step's state besides
    grads = sum(t.grad.nbytes for _, t in p.items())
    assert held <= grads + 5 * state, (held, grads)
    # while it runs, the backward holds the saved steps, the gradients, one
    # worker job's products of their size, and a fixed set of buffers
    # whatever the number of steps: four edge-sized ones (the gathered
    # sources, their messages' gradients, and the gathered targets of each
    # of the two sets the chain and the worker alternate on) and about 30
    # node-sized ones (the two sets of gate and input gradients, the local
    # derivatives, the state's gradient and the sums)
    assert peak <= taped + 2 * grads + 4 * len(edges.src) * d * 8 + 32 * state, (peak, taped)
    with pytest.raises(NeuralError, match="^ggnn: "):
        backward(nn.tsum(out))



def _ggnn_worker_run(seed):
    """A float32 ggnn over 8 nodes whose step inputs are about 1e4 (the
    message biases) and reach the gates at about 1 (the GRU input weights
    are scaled by 1e-4), and a loss weighting its output by 1e34: the
    gradients the backward's chain hands from step to step stay finite, but
    a GRU input weight's gradient, the sum over rows of input times gate
    gradient, passes float32's largest value."""
    N, d, names = 8, 4, ["e0", "e1"]
    shapes = {"h": (N, d), **gru_param_shapes("gg", d, d)}
    for name in names:
        shapes.update({f"{name}_W": (d, d), f"{name}_b": (d,)})
    p = init_params(shapes, seed=seed)
    for gate in "zrh":
        p[f"gg_W{gate}"].data *= np.float32(1e-4)
    for name in names:
        p[f"{name}_b"].data[:] = 1e4
    src, tgt = np.random.default_rng(seed).integers(0, N, (2, 12))
    edges = nn.EdgeIndex(N, d, src, tgt, np.repeat([0, 1], 6))
    out = nn.ggnn(p["h"], edges, p, names, "gg", 3)
    return nn.tsum(ops.mul(out, Tensor(np.full((N, d), 1e34, np.float32))))


def test_ggnn_worker_raises_on_the_calling_thread(monkeypatch):
    # the worker forms the parameter gradients under the caller's NumPy
    # error state, so an overflow there raises as it would on one thread;
    # that error, or any other the worker raises, reaches the caller after
    # the worker thread has ended
    threads = set(threading.enumerate())
    with pytest.raises(FloatingPointError, match="overflow") as info:
        with np.errstate(over="raise"):
            backward(_ggnn_worker_run(72))
    assert any(entry.name == "step_grads" for entry in info.traceback)  # the worker's job
    assert set(threading.enumerate()) == threads
    with np.errstate(over="ignore"):
        backward(_ggnn_worker_run(72))  # the same backward runs through, its overflow ignored
    assert set(threading.enumerate()) == threads

    def failing(*args):
        raise ValueError("worker failed")

    monkeypatch.setattr(nn, "_gru_grads", failing)
    with pytest.raises(ValueError, match="^worker failed$"):
        backward(_ggnn_worker_run(72))
    assert set(threading.enumerate()) == threads
    # the forward's second half runs on a worker thread of its own: under
    # the caller's error state, and an error there reaches the caller
    monkeypatch.undo()
    rng = np.random.default_rng(73)
    _, edges = _components(rng, [4, 4], 4, [[3, 3], [3, 3]])
    p, names = _ggnn_f32(73, 4, 2)
    h = rng.normal(size=(8, 4)).astype(np.float32)
    assert [r.stop for r, _ in edges.halves] == [4, 8]
    h[6] = np.inf  # the state's update meets inf - inf there
    with pytest.raises(FloatingPointError, match="invalid") as info:
        with np.errstate(invalid="raise"):
            nn.ggnn(Tensor(h), edges, p, names, "gg", 2)
    assert any(entry.name == "run" for entry in info.traceback)
    assert set(threading.enumerate()) == threads
    with np.errstate(invalid="ignore"):
        out = nn.ggnn(Tensor(h), edges, p, names, "gg", 2)
    assert np.isfinite(out.data[:4]).all() and not np.isfinite(out.data[6]).all()
    caller, step = threading.current_thread(), nn._gru_step

    def failing_off_caller(*args):
        if threading.current_thread() is not caller:
            raise ValueError("worker failed")
        return step(*args)

    monkeypatch.setattr(nn, "_gru_step", failing_off_caller)
    for grad in (True, False):
        with pytest.raises(ValueError, match="^worker failed$"):
            nn.ggnn(Tensor(np.ones_like(h), requires_grad=grad), edges, p, names, "gg", 2)
        assert set(threading.enumerate()) == threads


def test_ggnn_step_block_is_reused_and_guarded():
    # a caller's StepBlock holds the saved steps of one tape at a time; a
    # later taped call on a graph no larger than before writes into the
    # buffers the first one grew, and computes the same bits as a call that
    # makes a block of its own
    N, d, steps, names = 40, 16, 8, [f"e{i}" for i in range(6)]
    shapes = {"h": (N, d), "w": (N, d), **gru_param_shapes("gg", d, d)}
    for name in names:
        shapes.update({f"{name}_W": (d, d), f"{name}_b": (d,)})
    p = init_params(shapes, seed=71, dtype=np.float64)
    rng = np.random.default_rng(71)
    p["w"].data = rng.normal(size=(N, d))
    graphs = [(N, _edge_index(N, d, [rng.integers(0, N, (2, 170)) for _ in names]))]
    graphs.append((30, _edge_index(30, d, [rng.integers(0, 30, (2, 120)) for _ in names])))

    def run(n, edges, block=None):
        """Output and every gradient of one taped call and its backward."""
        p.zero_grad()
        h = Tensor(p["h"].data[:n], requires_grad=True)
        out = nn.ggnn(h, edges, p, names, "gg", steps, block)
        backward(nn.tsum(ops.mul(out, nn.rows(p["w"], np.arange(n)))))
        return [out.data, h.grad] + [t.grad for name, t in p.items() if name not in ("h", "w")]

    block = nn.StepBlock()
    for n, edges in graphs:  # the larger graph first, then a smaller one
        edges.tgt_layout, edges.src_layout  # the edges' own, built on first use
        own, lent = run(n, edges), run(n, edges, block)
        assert all(np.array_equal(a, b) for a, b in zip(own, lent))
    n, edges = graphs[1]
    h = Tensor(p["h"].data[:n], requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = nn.ggnn(h, edges, p, names, "gg", steps, block)
        taped = tracemalloc.get_traced_memory()[0] - base - out.data.nbytes
    finally:
        tracemalloc.stop()
    # without the block, 5 (n, d) arrays a step; with it, less than one
    assert taped < n * d * 8, taped
    # a taped call on a block whose tape has not run backward is refused,
    # leaving the saved steps as they are; an untaped call does not use it
    saved = [buf.copy() for buf in block.bufs]
    with pytest.raises(NeuralError, match="^ggnn: [^\n]*$"):
        nn.ggnn(h, edges, p, names, "gg", steps, block)
    with nn.no_grad():
        assert np.array_equal(nn.ggnn(h, edges, p, names, "gg", steps, block).data, out.data)
    assert all(np.array_equal(a, b) for a, b in zip(saved, block.bufs))
    backward(nn.tsum(out))
    with pytest.raises(NeuralError, match="^ggnn: "):
        backward(nn.tsum(out))
    nn.ggnn(h, edges, p, names, "gg", steps, block)  # released by the backward


def _components(rng, sizes, d, counts):
    """Edges within disconnected components of the given sizes, whose rows
    come one component after another, sorted by type as the graph encoder
    sorts them: an EdgeIndex without cuts, and one cut at every boundary
    between components. counts[i][t] type-t edges join random rows of
    component i."""
    src, tgt, etype, first = [], [], [], 0
    for size, row in zip(sizes, counts):
        for t, k in enumerate(row):
            src.append(first + rng.integers(0, size, k))
            tgt.append(first + rng.integers(0, size, k))
            etype.append(np.full(k, t))
        first += size
    src, tgt, etype = (np.concatenate(a) for a in (src, tgt, etype))
    order = np.argsort(etype, kind="stable")
    whole = (first, d, src[order], tgt[order], etype[order])
    return nn.EdgeIndex(*whole), nn.EdgeIndex(*whole, np.cumsum(sizes)[:-1])


def _ggnn_f32(seed, d, types):
    """Float32 GGNN parameters for `types` edge types and the GRU "gg", all
    drawn from a normal distribution, biases included."""
    names = [f"e{t}" for t in range(types)]
    shapes = gru_param_shapes("gg", d, d)
    for name in names:
        shapes.update({f"{name}_W": (d, d), f"{name}_b": (d,)})
    p = init_params(shapes, seed=seed)
    rng = np.random.default_rng(seed)
    for _, t in p.items():
        t.data = (0.5 * rng.normal(size=t.data.shape)).astype(np.float32)
    return p, names


def _ggnn_results(edges, p, names, h, w, steps=3):
    """The output and every gradient of a taped call and its backward, then
    the output of an untaped call."""
    p.zero_grad()
    x = Tensor(h.copy(), requires_grad=True)
    out = nn.ggnn(x, edges, p, names, "gg", steps)
    backward(nn.tsum(ops.mul(out, Tensor(w))))
    with nn.no_grad():
        plain = nn.ggnn(Tensor(h), edges, p, names, "gg", steps).data
    return [out.data, plain, x.grad] + [t.grad for _, t in p.items()]


def _assert_same_bits(a, b):
    assert len(a) == len(b)
    for i, (x, y) in enumerate(zip(a, b)):
        assert (x is None and y is None) or (x.dtype == y.dtype and np.array_equal(x, y)), i


def test_ggnn_halves_equal_one_range_bit_for_bit():
    # a float32 batch of 2 to 6 disconnected components, cut at the boundary
    # nearest half its rows and run as two halves, one on a worker thread,
    # gives the output and every gradient of the same call over one range
    # (at d = 64, a 1-row matmul rounds otherwise than a row of a larger one)
    d, types, split = 64, 4, 0
    p, names = _ggnn_f32(80, d, types)
    rng = np.random.default_rng(81)
    for trial in range(12):
        sizes = rng.integers(2, 12, rng.integers(2, 7))
        counts = [rng.integers(0, 2 * size + 1, types) for size in sizes]
        whole, cut = _components(rng, sizes, d, counts)
        n = whole.n
        h, w = (rng.normal(size=(n, d)).astype(np.float32) for _ in range(2))
        _assert_same_bits(_ggnn_results(whole, p, names, h, w), _ggnn_results(cut, p, names, h, w))
        assert whole.halves == []
        if cut.halves:
            split += 1
            (lo, a), (hi, b) = cut.halves
            assert lo.stop == hi.start and min(lo.stop, n - lo.stop) >= 2
            assert a.n + b.n == n and len(a.src) + len(b.src) == len(cut.src)
    assert split >= 8, split


def test_ggnn_cut_skips_a_boundary_that_leaves_a_half_one_edge_of_a_type():
    # three components of 4 rows: the cuts at rows 4 and 8 are equally near
    # half, and the first is taken unless a half would hold exactly one edge
    # of a type with more in the batch (its matmul would round as gemv)
    d, types = 64, 2
    p, names = _ggnn_f32(82, d, types)
    rng = np.random.default_rng(83)
    for counts, at in (([[3, 2], [2, 3], [2, 2]], 4), ([[1, 2], [2, 3], [2, 2]], 8),
                       ([[1, 2], [2, 3], [1, 2]], None), ([[1, 0], [0, 3], [0, 2]], 4)):
        whole, cut = _components(rng, [4, 4, 4], d, counts)
        assert [r.stop for r, _ in cut.halves] == ([at, 12] if at else [])
        h, w = (rng.normal(size=(12, d)).astype(np.float32) for _ in range(2))
        _assert_same_bits(_ggnn_results(whole, p, names, h, w), _ggnn_results(cut, p, names, h, w))
    # a half of fewer than 2 rows is never cut off
    whole, cut = _components(rng, [1, 6, 1], d, [[0, 0], [4, 4], [0, 0]])
    assert cut.halves == []
    # a cut crossed by an edge is refused
    with pytest.raises(ShapeError, match="^EdgeIndex: "):
        nn.EdgeIndex(6, d, [0, 4], [1, 2], [0, 0], [3])
    with pytest.raises(ShapeError, match="^EdgeIndex: "):
        nn.EdgeIndex(6, d, [5, 0], [3, 2], [0, 1], [2, 4])


# sha256 of the output and every gradient of a taped float32, d = 64 ggnn and
# its backward, then the output of the untaped call: over one context whose
# type 1 holds a single edge (its message is a 1-row product, which BLAS runs
# as gemv), and over a batch of five contexts that runs as two halves; in
# both, some rows have no in-edge
_GGNN_PINS = {
    "context": "8b1b63cc95810f5f6edb027b085fbd72263408017f5adbbce03cf4732f1968b2",
    "batch": "fa9128bd4339148436b773313e9519214bd2d389e77e0126d0b45f80eeaf65a6",
}


@pytest.mark.parametrize("case", sorted(_GGNN_PINS))
def test_ggnn_results_are_pinned(case):
    d, types = 64, 4
    p, names = _ggnn_f32(84, d, types)
    rng = np.random.default_rng(85)
    if case == "context":
        _, edges = _components(rng, [30], d, [[40, 1, 25, 12]])
        assert [z - a for _, a, z in edges.spans] == [40, 1, 25, 12] and edges.halves == []
    else:
        _, edges = _components(rng, [9, 14, 6, 11, 8], d, [[12, 5, 9, 3], [20, 9, 14, 7],
                                                            [6, 2, 5, 2], [15, 8, 10, 4],
                                                            [10, 4, 7, 3]])
        assert [r.stop for r, _ in edges.halves] == [23, 48]
    assert len(np.unique(edges.tgt)) < edges.n
    h, w = (rng.normal(size=(edges.n, d)).astype(np.float32) for _ in range(2))
    digest = hashlib.sha256()
    for a in _ggnn_results(edges, p, names, h, w, steps=8):
        assert a.dtype == np.float32
        digest.update(a.tobytes())
    assert digest.hexdigest() == _GGNN_PINS[case]


def test_attention_gradients():
    shapes = {"att_Wm": (4, 4), "att_Wk": (4, 4), "att_w": (4,), "key": (1, 4), "mem": (3, 4)}
    p = init_params(shapes, seed=3, dtype=np.float64)
    p["att_w"].data[:] = np.random.default_rng(4).normal(size=4)
    p["key"].data[:] = np.random.default_rng(5).normal(size=(1, 4))
    p["mem"].data[:] = np.random.default_rng(6).normal(size=(3, 4))

    def loss():  # one key reading every memory row
        out = attention(p["key"], p["mem"], p, "att", [[0, 1, 2]], [0])
        return nn.tsum(ops.mul(out, out))

    _fd_check(p, loss)


def _batch_store(seed, shapes):
    p = init_params(shapes, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for _, t in p.items():  # small enough that _weighted_sum's tanh does not saturate
        t.data = rng.normal(scale=0.5, size=t.data.shape)
    return p


# three keys over seven memory rows: padded, full and single-row index rows
_PADDED = np.array([[0, 2, 3, -1, -1], [4, 5, 6, 1, 0], [6, -1, -1, -1, -1]])


# five keys reading three groups of memory rows (the middle one unread)
_OWNER = np.array([2, 0, 0, 2, 0])


def test_batched_attention_gradients():
    p = _batch_store(30, {"att_Wm": (4, 4), "att_Wk": (4, 4), "att_w": (4,), "keys": (5, 4),
                          "mem": (7, 4)})
    _fd_check(p, lambda: _weighted_sum(attention(p["keys"], p["mem"], p, "att", _PADDED, _OWNER), 30))


def test_batched_attention_matches_single_keys():
    p = _batch_store(31, {"att_Wm": (4, 4), "att_Wk": (4, 4), "att_w": (4,), "keys": (5, 4),
                          "mem": (7, 4)})
    out = attention(p["keys"], p["mem"], p, "att", _PADDED, _OWNER)
    for d, group in enumerate(_OWNER):  # each key as an unpadded one-row batch
        row = _PADDED[group]
        one = attention(nn.rows(p["keys"], [d]), p["mem"], p, "att", [row[row >= 0]], [0])
        assert np.allclose(out.data[d], one.data[0], rtol=1e-12, atol=1e-15)
    with pytest.raises(NeuralError):  # a key with no memory row
        attention(nn.rows(p["keys"], [0, 1]), p["mem"], p, "att", np.array([[0], [-1]]), [0, 1])
    # the memories' projection, given precomputed, reads the same rows
    proj = p["mem"].data @ p["att_Wm"].data
    given = attention(p["keys"], p["mem"], p, "att", _PADDED, _OWNER, proj)
    assert np.allclose(given.data, out.data, rtol=1e-12, atol=1e-15)
    every = [np.arange(7)]
    one = attention(nn.rows(p["keys"], [0]), p["mem"], p, "att", every, [0], proj)
    assert np.allclose(one.data, attention(nn.rows(p["keys"], [0]), p["mem"], p, "att", every, [0]).data,
                       rtol=1e-12, atol=1e-15)


def test_padded_max_pool_gradients():
    p = _batch_store(32, {"x": (6, 3)})
    idx = np.array([[0, 1, 5], [2, -1, -1], [-1, -1, -1], [3, 3, 4]])
    _fd_check(p, lambda: _weighted_sum(nn.max_pool_rows(p["x"], idx), 32))
    out = nn.max_pool_rows(p["x"], idx).data
    assert np.array_equal(out[2], np.zeros(3))  # no entries: zeros
    for d in (0, 1, 3):
        assert np.array_equal(out[d], nn.max_pool_rows(nn.rows(p["x"], idx[d][idx[d] >= 0])).data)
    assert nn.max_pool_rows(p["x"], np.zeros((2, 0), dtype=np.int64)).data.shape == (2, 3)


@pytest.mark.parametrize("with_w", [True, False])
def test_pointer_scores_gradients(with_w):
    p = _batch_store(33, {"k": (3, 4), "t": (5, 4), "B": (4, 4), "w": (4,)})
    idx = np.array([[0, 1, 4], [2, -1, -1], [3, 3, 0]])
    w = p["w"] if with_w else None
    _fd_check(p, lambda: _weighted_sum(nn.pointer_scores(p["k"], p["t"], p["B"], w, idx), 33))
    out = nn.pointer_scores(p["k"], p["t"], p["B"], w, idx).data
    for d, row in enumerate(idx):  # each key as an unpadded one-row batch
        one = nn.pointer_scores(nn.rows(p["k"], [d]), p["t"], p["B"], w, [row[row >= 0]])
        assert np.allclose(out[d, row >= 0], one.data[0], rtol=1e-12, atol=1e-15)
        assert np.all(out[d, row < 0] == 0.0)
    p.zero_grad()  # one key scoring every row of the table
    _fd_check(p, lambda: _weighted_sum(nn.pointer_scores(nn.rows(p["k"], [1]), p["t"], p["B"], w,
                                                         [np.arange(5)]), 34))


_SUPPORT = np.array([[1, 1, 0, 1, 1], [1, 1, 1, 1, 1], [0, 1, 1, 0, 0]], dtype=bool)
_TARGET = np.array([[0, 1, 0, 1, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0]], dtype=bool)


def test_masked_nll_gradients():
    p = _batch_store(35, {"s": (3, 5)})
    weights = Tensor(np.array([1.0, 2.0, -0.5]))
    _fd_check(p, lambda: nn.tsum(ops.mul(nn.masked_nll(p["s"], _SUPPORT, _TARGET), weights)))


def test_masked_nll_matches_log_softmax():
    s = np.random.default_rng(36).normal(size=(3, 5)) * 20.0  # spread logits
    got = nn.masked_nll(Tensor(s), _SUPPORT, _TARGET).data
    for d in range(3):
        lp = nn.masked_log_softmax(Tensor(s[d]), np.where(_SUPPORT[d], 0.0, -np.inf))
        want = -float(ops.logsumexp(nn.rows(lp, np.flatnonzero(_TARGET[d]))).data)
        assert abs(got[d] - want) <= 1e-12 * max(abs(want), 1.0)


def test_masked_nll_raises_on_degenerate_rows():
    s = Tensor(np.zeros((2, 3)))
    support = np.array([[1, 1, 0], [0, 0, 0]], dtype=bool)
    with pytest.raises(DegenerateMaskError):
        nn.masked_nll(s, support, support)
    with pytest.raises(DegenerateMaskError):  # a saturated score
        nn.masked_nll(Tensor(np.array([[np.inf, 0.0, 0.0]])), support[:1], support[:1])


def test_masked_softmax_gradients():
    p = init_params({"x": (2, 5)}, seed=7, dtype=np.float64)
    p["x"].data[:] = np.random.default_rng(8).normal(size=(2, 5))
    mask = np.array([[0, 0, -np.inf, 0, 0], [0, -np.inf, -np.inf, 0, 0]])

    def loss():
        sm = masked_softmax(p["x"], mask)
        return nn.tsum(ops.mul(sm, sm))

    _fd_check(p, loss)


def test_pooling_gradients():
    p = init_params({"x": (4, 3)}, seed=9, dtype=np.float64)
    p["x"].data[:] = np.random.default_rng(10).normal(size=(4, 3))
    _fd_check(p, lambda: nn.tsum(ops.mul(nn.max_pool_rows(p["x"]), nn.max_pool_rows(p["x"]))))
    p2 = init_params({"x": (4, 3)}, seed=9, dtype=np.float64)
    p2["x"].data[:] = np.random.default_rng(10).normal(size=(4, 3))
    _fd_check(p2, lambda: nn.tsum(ops.mean_rows(ops.mul(p2["x"], p2["x"]))))


def test_masked_log_softmax_gradients():
    p = init_params({"x": (5,)}, seed=11, dtype=np.float64)
    p["x"].data[:] = np.random.default_rng(12).normal(size=5)
    mask = np.array([0, 0, -np.inf, 0, 0])

    def loss():
        lp = nn.masked_log_softmax(p["x"], mask)
        return nn.tsum(nn.rows(lp, [0, 1, 3, 4]))

    _fd_check(p, loss)


def test_logsumexp_gradients_and_stability():
    p = init_params({"x": (6,)}, seed=13, dtype=np.float64)
    p["x"].data[:] = np.random.default_rng(14).normal(size=6)
    _fd_check(p, lambda: ops.logsumexp(p["x"]))
    # extreme spread must not overflow
    big = ops.logsumexp(Tensor(np.array([1000.0, -1000.0, 999.0])))
    assert np.isfinite(big.data)
    assert abs(float(big.data) - (1000.0 + np.log(1 + np.exp(-1.0)))) < 1e-9


def test_log_softmax_matches_log_of_softmax():
    x = np.random.default_rng(15).normal(size=7)
    a = ops.log_softmax(Tensor(x.copy())).data
    b = np.log(nn.softmax(Tensor(x.copy())).data)
    assert np.max(np.abs(a - b)) < 1e-12
    # spread logits: log-domain stays finite where plain log underflows
    wide = np.array([0.0, -200.0, 50.0], dtype=np.float32)
    lp = ops.log_softmax(Tensor(wide)).data
    assert np.all(np.isfinite(lp))


def test_masked_entries_are_exact_zero():
    logits = Tensor(np.random.default_rng(0).normal(size=7))
    mask = np.zeros(7)
    mask[[1, 4]] = -np.inf
    out = masked_softmax(logits, mask)
    assert out.data[1] == 0.0 and out.data[4] == 0.0
    assert abs(out.data.sum() - 1.0) < 1e-6


def test_masking_invariance():
    # shifting masked-out logits must not change the distribution
    rng = np.random.default_rng(3)
    raw = rng.normal(size=6)
    mask = np.zeros(6)
    mask[[0, 5]] = -np.inf
    a = masked_softmax(Tensor(raw.copy()), mask).data
    shifted = raw.copy()
    shifted[[0, 5]] += 1000.0
    b = masked_softmax(Tensor(shifted), mask).data
    assert np.array_equal(a, b)


def test_degenerate_mask_raises():
    with pytest.raises(DegenerateMaskError):
        masked_softmax(Tensor(np.zeros(3)), np.full(3, -np.inf))


def test_adam_minimizes_quadratic():
    p = ParamStore()
    p.register("w", np.array([5.0, -3.0], dtype=np.float32))
    st = OptState(lr=0.1)
    for _ in range(300):
        p.zero_grad()
        w = p["w"]
        loss = nn.tsum(ops.mul(w, w))
        backward(loss)
        adam_step(p, st)
    assert np.all(np.abs(p["w"].data) < 1e-2)


def test_adam_matches_written_out_update():
    # five steps of the flat update against the textbook one, written out
    # per parameter in its own dtype: the same bits. "c" never has a
    # gradient, so its moments stay zero and so does its update.
    rng = np.random.default_rng(16)
    p, st = ParamStore(), OptState(lr=0.01)
    for name, shape in (("a", (30, 20)), ("b", (50,)), ("c", (8, 8))):
        p.register(name, rng.normal(size=shape).astype(np.float32))
    want = {n: t.data.copy() for n, t in p.items()}
    c0 = want["c"].copy()
    m, v = ({n: np.zeros_like(w) for n, w in want.items()} for _ in range(2))
    for step in range(1, 6):
        # magnitudes spread over six decades, so that any other rounding shows
        grads = {n: (rng.normal(size=want[n].shape) * 10.0 ** rng.uniform(-3, 3, want[n].shape))
                 .astype(np.float32) for n in ("a", "b")}
        for n, t in p.items():
            t.grad = grads.get(n)
        adam_step(p, st)
        for n, w in want.items():
            g = grads.get(n, np.zeros_like(w))
            m[n] = st.beta1 * m[n] + (1 - st.beta1) * g
            v[n] = st.beta2 * v[n] + (1 - st.beta2) * g * g
            mhat, vhat = m[n] / (1 - st.beta1**step), v[n] / (1 - st.beta2**step)
            want[n] = w - (st.lr * mhat / (np.sqrt(vhat) + st.eps)).astype(w.dtype)
        for n, t in p.items():
            assert t.data.dtype == np.float32 and t.data.tobytes() == want[n].tobytes(), (step, n)
    assert np.array_equal(p["c"].data, c0)
    p["b"].grad = np.zeros((2, 2), np.float32)
    with pytest.raises(ShapeError):
        adam_step(p, st)


def test_adam_clips_the_flat_gradient_once():
    # clipping inside the step: the same bits as scaling each parameter's
    # gradient by max_norm / norm, then stepping unclipped; the norm returned
    # is the one before clipping. "c" never has a gradient.
    rng = np.random.default_rng(17)
    init = {n: rng.normal(size=shape).astype(np.float32)
            for n, shape in (("a", (30, 20)), ("b", (50,)), ("c", (8, 8)))}
    clipped, scaled = ParamStore(), ParamStore()
    for n, w in init.items():
        clipped.register(n, w.copy())
        scaled.register(n, w.copy())
    st_clipped, st_scaled = OptState(lr=0.01), OptState(lr=0.01)
    for step in range(4):
        grads = {n: (rng.normal(size=init[n].shape) * 10.0 ** rng.uniform(-3, 3, init[n].shape))
                 .astype(np.float32) for n in ("a", "b")}
        norm = math.sqrt(sum(float(np.sum(np.square(g, dtype=np.float64))) for g in grads.values()))
        max_norm = norm / (2 + step)
        for n, t in clipped.items():
            t.grad = grads.get(n)
        for n, t in scaled.items():
            t.grad = grads[n] * (max_norm / norm) if n in grads else None
        assert adam_step(clipped, st_clipped, max_norm) == norm
        adam_step(scaled, st_scaled)
        for n, t in clipped.items():
            assert t.data.tobytes() == scaled[n].data.tobytes(), (step, n)


def test_adam_moves_nothing_on_a_non_finite_gradient():
    p, st = ParamStore(), OptState()
    p.register("a", np.ones((3, 4), np.float32))
    p.register("b", np.ones(5, np.float32))
    p["a"].grad = np.ones((3, 4), np.float32)
    p["b"].grad = np.ones(5, np.float32)
    adam_step(p, st, 1.0)
    before = {n: t.data.copy() for n, t in p.items()}
    moments = (st.m.copy(), st.v.copy())
    p["b"].grad[2] = np.nan
    assert math.isnan(adam_step(p, st, 1.0))
    assert all(np.array_equal(before[n], t.data) for n, t in p.items())
    assert st.step == 1
    assert np.array_equal(st.m, moments[0]) and np.array_equal(st.v, moments[1])


def test_init_params_deterministic_and_shaped():
    a = init_params({"m_W": (8, 4), "m_b": (4,), "emb": (3, 4)}, seed=42)
    b = init_params({"m_W": (8, 4), "m_b": (4,), "emb": (3, 4)}, seed=42)
    for (n1, t1), (n2, t2) in zip(a.items(), b.items()):
        assert n1 == n2 and np.array_equal(t1.data, t2.data)
    assert np.all(a["m_b"].data == 0)
    assert np.max(np.abs(a["emb"].data)) <= 0.05
    bound = np.sqrt(6.0 / 12)
    assert np.max(np.abs(a["m_W"].data)) <= bound


def test_checkpoint_round_trip():
    p = init_params({"a_W": (3, 2), "a_b": (2,), "emb": (4, 2)}, seed=1)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ckpt")
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert p.names() == q.names()
        for (_, t1), (_, t2) in zip(p.items(), q.items()):
            assert np.array_equal(t1.data, t2.data)
        with open(path, "rb") as f:
            assert f.read(4) == b"NAGC"


def test_checkpoint_rejects_bad_magic():
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "bad.ckpt")
        with open(path, "wb") as f:
            f.write(b"XXXX")
        with pytest.raises(NeuralError):
            load_checkpoint(path)


def test_shape_errors():
    with pytest.raises(ShapeError):
        nn.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        nn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_no_grad_blocks_graph_building():
    p = init_params({"w_W": (2, 2), "w_b": (2,)}, seed=0)
    with nn.no_grad():
        out = linear(Tensor(np.ones(2)), p, "w")
    assert out._parents == ()


def test_backward_requires_scalar():
    with pytest.raises(NeuralError):
        backward(Tensor(np.zeros(3)))
