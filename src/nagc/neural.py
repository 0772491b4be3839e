"""Dense tensor core with reverse-mode autodiff, plus the layers the model
needs: linear maps, GRU cell, the gated-graph message step, additive
attention, masked softmax, pooling, embeddings, an Adam optimizer and a
one-file checkpoint format.

Compute is 32-bit by default; gradient checks build 64-bit parameters and the
engine follows the dtype of its inputs.

Tape nodes own what their backward reads, with one exception: a taped ggnn
saves its steps in a StepBlock that a training run lends to every batch, so
the largest per-batch state is written into pages the run already holds.

The ggnn runs on two threads where its graph allows: its forward runs the
two halves of a disconnected graph (a batch of contexts cut at the context
boundary nearest half its rows) side by side, and its backward forms each
step's parameter gradients beside the chain of steps. Both give the bits of
one thread. Everything else runs on the calling thread.
"""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress

import numpy as np


class NeuralError(Exception):
    pass


class ShapeError(NeuralError):
    pass


class DegenerateMaskError(NeuralError):
    pass


_grad_enabled = [True]


@contextmanager
def no_grad():
    _grad_enabled.append(False)
    try:
        yield
    finally:
        _grad_enabled.pop()


def grad_enabled() -> bool:
    return _grad_enabled[-1]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw")

    def __init__(self, data, requires_grad=False, parents=(), bw=None):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = parents
        self._bw = bw

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _track(*args):
    return grad_enabled() and any(
        isinstance(a, Tensor) and (a.requires_grad or a._parents) for a in args
    )


def _make(data, parents, bw):
    if _track(*parents):
        return Tensor(data, parents=tuple(parents), bw=bw)
    return Tensor(data)


def _accum(t: Tensor, g):
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad = t.grad + g


def _accum_rows(t: Tensor, idx, src):
    """Add each row src[k] into row idx[k] of t's gradient, in place: a
    gather's backward allocates t's gradient once, not once per gather."""
    if t.grad is None:
        t.grad = np.zeros(t.data.shape, t.data.dtype)
    elif not t.grad.flags.c_contiguous:  # _segment_sum adds through a flat view
        t.grad = np.ascontiguousarray(t.grad)
    _segment_sum(t.grad, idx, src)


# ---------------------------------------------------------------------------
# Primitive operations

def _check_same_shape(a, b, what):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{what}: shapes {a.data.shape} vs {b.data.shape}")


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape and a.data.ndim == 2 and b.data.ndim == 1:
        # row-broadcast bias
        if a.data.shape[1] != b.data.shape[0]:
            raise ShapeError(f"add: shapes {a.data.shape} vs {b.data.shape}")
        def bw(g):
            _accum(a, g)
            _accum(b, g.sum(axis=0))
        return _make(a.data + b.data, (a, b), bw)
    _check_same_shape(a, b, "add")

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), bw)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: shapes {a.data.shape} vs {b.data.shape}")

    def bw(g):
        ad, bd = a.data, b.data
        if ad.ndim == 1 and bd.ndim == 2:
            _accum(a, g @ bd.T)
            _accum(b, np.outer(ad, g))
        elif ad.ndim == 2 and bd.ndim == 2:
            _accum(a, g @ bd.T)
            _accum(b, ad.T @ g)
        elif ad.ndim == 2 and bd.ndim == 1:
            _accum(a, np.outer(g, bd))
            _accum(b, ad.T @ g)
        else:
            _accum(a, g * bd)
            _accum(b, g * ad)

    return _make(a.data @ b.data, (a, b), bw)


def concat(parts, axis=0):
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    sizes = [p.data.shape[axis] for p in parts]

    def bw(g):
        off = 0
        for p, s in zip(parts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(off, off + s)
            _accum(p, g[tuple(sl)])
            off += s

    return _make(np.concatenate([p.data for p in parts], axis=axis), parts, bw)


def tsum(a):
    a = as_tensor(a)

    def bw(g):
        _accum(a, np.full_like(a.data, g))

    return _make(a.data.sum(), (a,), bw)


def _padded_rows(table: np.ndarray, idx):
    """(rows, valid): the rows idx of table, (D, V, d), and idx >= 0. Padding
    (-1) reads row 0; callers mask it out."""
    idx = np.asarray(idx, dtype=np.int64)
    valid = idx >= 0
    return table[np.where(valid, idx, 0)], valid


def _padded_grad(t: Tensor, idx, g_rows):
    """Add g_rows, laid out as _padded_rows(t.data, idx), into t's gradient;
    its padded entries must be zero."""
    _accum_rows(t, np.where(np.asarray(idx) >= 0, idx, 0), g_rows)


def max_pool_rows(a, idx=None):
    """Elementwise max over rows of a 2-D tensor: over all of them, (d,),
    or over the rows idx[k] for each row of an index array idx (D, V) with
    -1 for padding, (D, d). An index row without entries pools to zeros."""
    a = as_tensor(a)
    if idx is None:
        if a.data.ndim != 2 or a.data.shape[0] == 0:
            raise ShapeError(f"max_pool_rows needs a nonempty 2D input, got {a.data.shape}")
        arg = np.argmax(a.data, axis=0)
        cols = np.arange(a.data.shape[1])

        def bw(g):
            ga = np.zeros_like(a.data)
            ga[arg, cols] = g
            _accum(a, ga)

        return _make(a.data[arg, cols], (a,), bw)
    rows_, valid = _padded_rows(a.data, idx)
    D, V, d = rows_.shape
    if V == 0:
        return Tensor(np.zeros((D, d), a.data.dtype))
    arg = np.where(valid[:, :, None], rows_, -np.inf).argmax(axis=1)  # (D, d)
    pick = (np.arange(D)[:, None], arg, np.arange(d))
    keep = valid.any(axis=1)[:, None]  # a row without entries pools to 0

    def bw(g):
        ga = np.zeros_like(rows_)
        ga[pick] = np.where(keep, g, 0.0)
        _padded_grad(a, idx, ga)

    return _make(np.where(keep, rows_[pick], 0.0), (a,), bw)


def reshape(a, shape):
    a = as_tensor(a)

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), bw)


def _segment_sum(out, idx, src):
    """Add each row src[k] into out[idx[k]] and return out; idx has any shape
    and src is idx.shape + out's row shape. This is np.add.at(out, idx, src)
    bit for bit (every element takes its additions in the same order), but
    through a 1-D index, which NumPy runs several times faster than the 2-D
    form from about ten rows up; fewer rows take the 2-D form. out must be C-contiguous."""
    if np.size(idx) < 10:  # building the flat index costs more here
        np.add.at(out, idx, src)
        return out
    d = math.prod(out.shape[1:])
    flat = np.reshape(idx, -1) if d == 1 else (np.reshape(idx, (-1, 1)) * d + np.arange(d)).ravel()
    np.add.at(out.reshape(-1), flat, src.reshape(-1))
    return out


def _segment_layout(idx):
    """(rows, perm, sizes): the rows a 1-D index array names, most entries
    first, and its positions rank by rank: rank j holds, for each of the
    first sizes[j] rows, the position in idx of that row's j-th entry."""
    order = np.argsort(idx, kind="stable")  # grouped by row, index order within one
    count = np.bincount(idx)
    names = np.flatnonzero(count)
    count = count[names]
    by = np.argsort(-count, kind="stable")
    first = (np.cumsum(count) - count)[by]  # each row's first entry in order
    sizes = np.searchsorted(-count[by], -np.arange(count.max(initial=0)))  # rows with > j entries
    rank = np.repeat(np.arange(len(sizes)), sizes)
    row = np.arange(len(rank)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return names[by], order[first[row] + rank], sizes.tolist()


def _layout_sum(out, layout, src):
    """np.add.at(out, idx, src) bit for bit, and returns out, through idx's
    _segment_layout: per rank, one gather and one add into a prefix of the
    named rows."""
    rows_, perm, sizes = layout
    acc = out.take(rows_, axis=0)  # the take method gathers rows faster than indexing
    for c, o in zip(sizes, np.cumsum([0] + sizes).tolist()):
        acc[:c] += src.take(perm[o : o + c], axis=0)
    out[rows_] = acc
    return out


def rows(a, idx):
    """Gather rows (first-axis entries, elements of a 1-D tensor) of a tensor
    by an index or an index array of any shape (embedding lookup / graph
    gather)."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)

    def bw(g):
        _accum_rows(a, idx, g)

    return _make(a.data[idx], (a,), bw)


def stack_rows(parts):
    """Stack 1D tensors into a (k, d) matrix."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("stack_rows of zero tensors")

    def bw(g):
        for i, p in enumerate(parts):
            _accum(p, g[i])

    return _make(np.stack([p.data for p in parts]), parts, bw)


def softmax(a):
    return masked_softmax(a, np.zeros(as_tensor(a).data.shape))


def masked_softmax(logits, mask):
    """softmax(logits + mask); mask entries are 0 or -inf. Masked entries are
    exactly zero in the output and receive zero gradient."""
    logits = as_tensor(logits)
    mask = np.asarray(mask, dtype=logits.data.dtype)
    if mask.shape != logits.data.shape:
        raise ShapeError(f"mask shape {mask.shape} vs logits {logits.data.shape}")
    x = logits.data + mask
    hi = np.max(x, axis=-1, keepdims=True)
    if not np.all(np.isfinite(hi)):
        raise DegenerateMaskError("all entries masked")
    e = np.exp(x - hi)
    p = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = np.sum(g * p, axis=-1, keepdims=True)
        _accum(logits, p * (g - dot))

    return _make(p, (logits,), bw)


def masked_log_softmax(logits, mask):
    """Log-domain masked softmax; stable for widely spread logits. Masked
    entries come out as -inf and receive zero gradient."""
    logits = as_tensor(logits)
    mask = np.asarray(mask, dtype=logits.data.dtype)
    if mask.shape != logits.data.shape:
        raise ShapeError(f"mask shape {mask.shape} vs logits {logits.data.shape}")
    x = logits.data + mask
    hi = np.max(x, axis=-1, keepdims=True)
    if not np.all(np.isfinite(hi)):
        raise DegenerateMaskError("all entries masked")
    lse = hi + np.log(np.sum(np.exp(x - hi), axis=-1, keepdims=True))
    out = x - lse
    support = np.isfinite(mask)
    p = np.where(support, np.exp(out), 0.0)

    def bw(g):
        g = np.where(support, g, 0.0)
        gsum = np.sum(g, axis=-1, keepdims=True)
        _accum(logits, g - p * gsum)

    return _make(out, (logits,), bw)


# ---------------------------------------------------------------------------
# Backward pass

def backward(loss: Tensor):
    if loss.data.size != 1:
        raise NeuralError(f"loss must be scalar, got shape {loss.data.shape}")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        t, done = stack.pop()
        if done:
            topo.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for p in t._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for t in reversed(topo):
        if t._bw is not None and t.grad is not None:
            t._bw(t.grad)


# ---------------------------------------------------------------------------
# Parameters

class ParamStore:
    """Named parameter map with deterministic (sorted) iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def register(self, name: str, data) -> Tensor:
        if name in self._params:
            raise NeuralError(f"duplicate parameter {name!r}")
        t = Tensor(np.asarray(data), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise NeuralError(f"unregistered parameter {name!r}") from None

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return sorted(self._params)

    def items(self):
        return [(n, self._params[n]) for n in self.names()]

    def zero_grad(self):
        for _, t in self.items():
            t.grad = None

    def astype(self, dtype):
        out = ParamStore()
        for n, t in self.items():
            out.register(n, t.data.astype(dtype))
        return out


def init_params(shapes: dict[str, tuple], seed: int, dtype=np.float32) -> ParamStore:
    """Glorot-uniform matrices, zero biases (rank-1), uniform(+-0.05)
    embeddings (names containing 'emb'). Deterministic per seed."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name in sorted(shapes):
        shape = tuple(shapes[name])
        if len(shape) == 1:
            data = np.zeros(shape, dtype=dtype)
        elif "emb" in name:
            data = rng.uniform(-0.05, 0.05, size=shape).astype(dtype)
        else:
            fan_in, fan_out = shape[-2], shape[-1]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-bound, bound, size=shape).astype(dtype)
        store.register(name, data)
    return store


# ---------------------------------------------------------------------------
# Layers

def linear(x, p: ParamStore, prefix: str):
    return add(matmul(x, p[prefix + "_W"]), p[prefix + "_b"])


class EdgeIndex:
    """Typed edges among n rows of width d: int64 src, tgt and etype arrays
    sorted by etype, the (type, first, end) span of each type present, and
    the segment layouts of the targets and sources, each built on first
    use. ggnn's forward sums each step's messages through the target
    layout, whose rows are the rows with in-edges, and its backward the
    messages' gradients through the source layout. `cuts`, ascending, are
    rows at which the graph falls apart: no edge joins a row below a cut to
    one at or above it (a ShapeError otherwise)."""

    def __init__(self, n: int, d: int, src, tgt, etype, cuts=()):
        self.n, self.d = n, d
        self.src, self.tgt, self.etype = (np.asarray(a, dtype=np.int64) for a in (src, tgt, etype))
        self.cuts = np.asarray(cuts, dtype=np.int64)
        if len(self.cuts) and np.any(np.searchsorted(self.cuts, self.src, "right")
                                     != np.searchsorted(self.cuts, self.tgt, "right")):
            raise ShapeError("EdgeIndex: an edge crosses a cut")
        bounds = [0, *(np.flatnonzero(np.diff(self.etype)) + 1).tolist(), len(self.etype)]
        self.spans = [(int(self.etype[a]), a, z) for a, z in zip(bounds, bounds[1:]) if a < z]

    tgt_layout = functools.cached_property(lambda self: _segment_layout(self.tgt))
    src_layout = functools.cached_property(lambda self: _segment_layout(self.src))

    def in_counts(self, dtype) -> np.ndarray:
        """The (n, types present) counts of each row's in-edges of each type."""
        k = len(self.spans)
        col = np.repeat(np.arange(k), [z - a for _, a, z in self.spans])
        return np.bincount(self.tgt * k + col, minlength=self.n * k).reshape(self.n, k).astype(dtype)

    @functools.cached_property
    def halves(self) -> list:
        """[(rows, edges)] of the two halves of the graph at the qualifying
        cut nearest n / 2, each with its own edges (rows counted from its
        first), or [] if no cut qualifies. BLAS gives the same bits for any
        split of a matmul's rows into parts of at least 2 (1 row takes gemv,
        which rounds otherwise), so a cut qualifies only if each half has at
        least 2 rows and no edge type of more than one edge has exactly one
        in a half."""
        if not len(self.cuts):  # a single context's graph: no cut to scan for
            return []
        c = self.cuts[(self.cuts >= 2) & (self.cuts <= self.n - 2)]
        for _, a, z in self.spans:
            if len(c) and z - a > 1:
                below = np.searchsorted(np.sort(self.tgt[a:z]), c)  # the type's edges below each cut
                c = c[(below != 1) & (z - a - below != 1)]
        if not len(c):
            return []
        c = int(c[np.argmin(np.abs(2 * c - self.n))])
        low = self.tgt < c
        return [(slice(0, c), EdgeIndex(c, self.d, self.src[low], self.tgt[low], self.etype[low])),
                (slice(c, self.n), EdgeIndex(self.n - c, self.d, self.src[~low] - c, self.tgt[~low] - c,
                                             self.etype[~low]))]


class StepBlock:
    """The storage a taped ggnn saves its steps in, lent to one tape at a
    time: a training run owns one and reuses it batch after batch, so its
    forward writes pages it already holds instead of faulting fresh ones
    in. Its buffers grow only for a larger state than any before."""

    def __init__(self):
        self.bufs, self.held = (), False

    def hold(self, steps: int, n: int, d: int, dtype) -> list:
        """Uninitialised arrays of `steps` steps of an (n, d) state, held
        until release: inputs X, states H and gate blocks G, each step's
        (3, n, d) [c, z, r] as _gru_step leaves it. Each kind has a buffer
        of its own. With one buffer for all of them (about 30 MB on
        graph-long), glibc raised its trim threshold to twice that once the
        buffer was freed, and the heap's retained free pages raised
        graph-long's peak RSS 12-17% over per-step arrays."""
        if self.held:
            raise NeuralError("ggnn: the step block is held by a tape whose backward has not run")
        shapes = [(steps, n, d), (steps, n, d), (steps, 3, n, d)]
        if not self.bufs or self.bufs[0].dtype != dtype or self.bufs[0].size < steps * n * d:
            self.bufs = ()  # freed before their successors are allocated
            self.bufs = tuple(np.empty(math.prod(shape), dtype) for shape in shapes)
        self.held = True
        return [buf[: math.prod(shape)].reshape(shape) for buf, shape in zip(self.bufs, shapes)]

    def release(self):
        self.held = False


def _gate_inputs(x, Wg, bg, out):
    """Into out, (3, rows, d), and returns it: the input sides [c, z, r] of
    a GRU step from x (rows, k), z's and r's negated, as _gru_step takes
    them. One broadcast product against the stacked input weights Wg = [Wh,
    Wz, Wr], (3, k, d), one add of the stacked biases bg = [bh, bz, br]
    (broadcast over the rows, or full size) and one negation. At float32
    and d = 64, OpenBLAS runs each slice of the broadcast product as the
    gemm (or, for 1 row, the gemv) of its own product, so each gate gets
    the bits of x @ W + b."""
    np.matmul(x, Wg, out=out)
    out += bg
    np.negative(out[1:], out=out[1:])
    return out


def ggnn(h, edges: EdgeIndex, p: ParamStore, prefixes, gru_prefix: str, steps: int,
         block: StepBlock = None):
    """`steps` steps h <- gru_cell(x, h, p, gru_prefix), x the sum of the
    messages linear(h[src], prefixes[etype]) of each target's in-edges, as
    one tape node with a hand-written backward through the steps. Only the
    weights of the types present are read; without edges, h is returned as
    it is. A taped call keeps per step only node-sized state, its input,
    state and [c, z, r] gate block, in `block` (a new one when not given,
    dropped when the backward ends); an untaped call keeps none.

    Every forward, taped or not, over one range or either half, runs one
    step body on buffers and views built once per call. A step gathers the
    sources once, runs one matmul per edge type and gathers the messages
    once more, into the target layout's rank order. It sums them rank by
    rank into one accumulator that starts from the rows' in-edge bias sums
    (the same at every step, so gathered once per call), and scatters the
    accumulator into the step input, where rows without in-edges stay
    zero. One broadcast product of the input against the stacked input
    weights, one bias add and one negation then form the (3, rows, d) [c,
    z, r] block (_gate_inputs) that _gru_step updates in place.

    Two threads, bit-identical to one; no option turns them off. If the
    edges have a qualifying cut (EdgeIndex.halves), the forward runs every
    step of the rows below it on the calling thread and every step of the
    rows above it on one worker thread: no edge joins the halves, so they
    never wait for each other. A graph of one component, such as a single
    context's, runs as one range and starts no thread. The backward runs
    the chain from step to step on the calling thread and each step's
    parameter gradients on one worker thread of its own, which overlaps
    the next chain step and keeps the serial order of every sum. The
    buffers and views a worker uses are made on the calling thread. A
    worker runs under the caller's np.geterr(), its errors are raised on
    the calling thread, and BLAS threading per call stays as the caller
    set it."""
    h = as_tensor(h)
    if steps == 0 or not edges.spans:
        return h
    n, d = edges.n, edges.d
    if h.data.shape != (n, d):
        raise ShapeError(f"ggnn: state {h.data.shape} vs ({n}, {d}) edges")
    Ws = [p[prefixes[t] + "_W"] for t, _, _ in edges.spans]
    bs = [p[prefixes[t] + "_b"] for t, _, _ in edges.spans]
    gru = [p[name] for name in _gru_names((gru_prefix,))]
    Wz, Wr, Wh, Uz, Ur, Uh, bz, br, bh = (t.data for t in gru)
    U, Wg, bg = np.array((Uz, Ur)), np.array((Wh, Wz, Wr)), np.array((bh, bz, br))[:, None]
    counts = edges.in_counts(h.data.dtype)
    bias = counts @ np.array([b.data for b in bs])  # each row's in-edge bias sum
    parents = [h] + Ws + gru + bs
    block = (block or StepBlock()) if _track(*parents) else None
    saved = None if block is None else block.hold(steps, n, d, h.data.dtype)
    H, RH = np.empty_like(h.data), np.empty_like(h.data)  # H: the state after the last step
    if saved is not None:  # the state before step 0 is a copy of h
        X, states, G = saved
        states[0] = h.data
        X[:, ~counts.any(axis=1)] = 0.0  # the steps write only rows with in-edges
    else:  # one input and gate block for every step, and two states in turn
        X, G = [np.zeros_like(H)] * steps, [np.empty((3, n, d), H.dtype)] * steps
        spare = np.empty_like(H)
        states = [h.data] + [spare if (steps - s) % 2 else H for s in range(1, steps)]
    Wt = {t: W.data[:d] for (t, _, _), W in zip(edges.spans, Ws)}

    def half(r, part):  # the run of every step of the rows r, whose in-edges are part's
        rows_, perm, sizes = part.tgt_layout
        hs, m = (np.empty((len(part.src), d), H.dtype) for _ in range(2))
        acc = np.empty((len(rows_), d), H.dtype)
        base = bias[r].take(rows_, axis=0)  # the same at every step
        msgs = [(hs[a:z], Wt[t], m[a:z]) for t, a, z in part.spans]
        # each rank's messages, gathered into hs once the matmuls have read the sources
        ranks = [(acc[:c], hs[o : o + c]) for c, o in zip(sizes, np.cumsum([0] + sizes).tolist())]
        bgs = np.repeat(bg, part.n, axis=1)  # a full-size bias block adds faster than a broadcast

        def run():
            with np.errstate(**err):
                for s in range(steps):
                    x, g, hp = X[s][r], G[s][:, r], states[s][r]
                    # mode "clip" (the indices are in range) writes into out= without a temporary
                    hp.take(part.src, axis=0, out=hs, mode="clip")
                    for a, W, out in msgs:
                        np.matmul(a, W, out=out)
                    m.take(perm, axis=0, out=hs, mode="clip")
                    np.copyto(acc, base)
                    for prefix, rows in ranks:  # np.add.at(bias, tgt, m), rank by rank
                        prefix += rows
                    x[rows_] = acc
                    _gate_inputs(x, Wg, bgs, g)
                    _gru_step(g[1:], g[0], hp, U, Uh, RH[r], (H if s + 1 == steps else states[s + 1])[r])

        return run

    with np.errstate(over="ignore"):  # exp overflow saturates a sigmoid to 0
        err = np.geterr()
        # what the worker reads or writes is made here, on the calling thread
        runs = [half(r, part) for r, part in edges.halves or [(slice(0, n), edges)]]
        if len(runs) == 1:
            runs[0]()
        else:  # the halves share no edge: the second runs all its steps on a worker thread
            pool = ThreadPoolExecutor(1)
            try:
                job = pool.submit(runs[1])
                runs[0]()
                job.result()
            finally:
                pool.shutdown(cancel_futures=True)

    def bw(g):
        nonlocal saved, block
        if saved is None:
            raise NeuralError("ggnn: a backward already read and released this node's steps")
        grads = [np.zeros_like(t.data) for t in Ws + gru]
        dX_sum, dh, UT, err = np.zeros_like(H), g.copy(), (Uz.T, Ur.T, Uh.T), np.geterr()
        local, (drh, RH) = [[np.empty_like(H) for _ in range(k)] for k in (4, 2)]
        hs, dhs = (np.empty((len(edges.src), d), H.dtype) for _ in range(2))
        sets = [([np.empty_like(H) for _ in range(3)], np.empty_like(H), np.empty_like(hs))
                for _ in range(2)]  # (da, dX, gm): the chain writes one, the worker reads the other
        jobs = [None, None]  # the worker's last job reading each set

        def step_grads(X, HP, R, da, dX, gm):  # the worker's half of a step
            with np.errstate(**err):
                np.add(dX_sum, dX, out=dX_sum)
                # mode "clip" (the indices are in range) writes into out= without a temporary
                HP.take(edges.src, axis=0, out=hs, mode="clip")
                dWs = [hs[a:z].T @ gm[a:z] for _, a, z in edges.spans]
                for acc, gt in zip(grads, dWs + _gru_grads(X, da, HP, np.multiply(R, HP, out=RH), da)):
                    acc += gt

        pool = ThreadPoolExecutor(1)
        try:
            for s, (X, HP, (C, Z, R)) in enumerate(zip(*(a[::-1] for a in saved))):
                (da, dX, gm), job = sets[s % 2], jobs[s % 2]
                if job is not None:
                    job.result()
                _gru_step_bw(dh, R, _gru_local(HP, Z, R, C, local), UT, da + [drh])
                np.matmul(da[0], Wz.T, out=dX)
                dX += np.matmul(da[1], Wr.T, out=drh)
                dX += np.matmul(da[2], Wh.T, out=drh)
                dX.take(edges.tgt, axis=0, out=gm, mode="clip")
                jobs[s % 2] = pool.submit(step_grads, X, HP, R, da, dX, gm)
                for (_, a, z), W in zip(edges.spans, Ws):
                    np.matmul(gm[a:z], W.data[:d].T, out=dhs[a:z])
                _layout_sum(dh, edges.src_layout, dhs)
            for job in jobs:
                if job is not None:
                    job.result()
        finally:
            pool.shutdown(cancel_futures=True)
        block.release()
        saved = block = None
        # the counts again: the tape keeps only node-sized state
        for t, gt in zip(Ws + gru + bs, grads + list(edges.in_counts(H.dtype).T @ dX_sum)):
            _accum(t, gt)
        _accum(h, dh)

    return _make(H, parents, bw)


class Rounds:
    """The layout of a message passing that adds rows to a state table round
    by round. Round r computes the rows rows[node_cut[r]:node_cut[r + 1]]
    from its edges, which come as groups[r]: (type, first, end) slices of
    the edge arrays, one per type, ascending by type, that together cover
    the round's edges. Each edge's source is a row the table holds before
    the round, its target a position among the round's new rows and its
    type an index into the kernel's prefixes (its label is read on labelled
    types only). Each target sums its messages in edge order."""

    def __init__(self, rows, node_cut, groups, src, tgt, etype, label):
        self.rows, self.src, self.tgt, self.etype, self.label = (
            np.asarray(a, dtype=np.int64) for a in (rows, src, tgt, etype, label))
        node_cut = np.asarray(node_cut).tolist()
        # per round: its new rows s:e, its edges a:z and their groups
        self.rounds = [(s, e, gs[0][1], gs[-1][2], gs)
                       for s, e, gs in zip(node_cut, node_cut[1:], groups)]


def gated_rounds(table, x, rounds: Rounds, p: ParamStore, prefixes, gru_prefix: str, emb=None,
                 out=None):
    """All rounds of a gated message passing that adds rows to a state table
    (n, d), as one tape node with a hand-written backward through the
    rounds. A new row's state is the GRU `gru_prefix` of its input, a row of
    x (n_new, k), against the sum of its in-edge messages. An edge of
    type t sends linear(table[src], prefixes[t]), or, where that weight has
    rows beyond d, linear(concat(table[src], emb[label])), computed as
    table[src] @ W_top + b + (emb @ W_bottom)[label]. Returns the (n +
    n_new, d) table with the new rows at rounds.rows, written into `out`
    when given: a buffer whose first n rows hold table's states already."""
    table, x = as_tensor(table), as_tensor(x)
    n, d = table.data.shape
    types = sorted({t for *_, groups in rounds.rounds for t, _, _ in groups})
    Ws, bs = {t: p[prefixes[t] + "_W"] for t in types}, {t: p[prefixes[t] + "_b"] for t in types}
    lab_side = {t: emb.data @ Ws[t].data[d:] for t in types if Ws[t].data.shape[0] > d}
    gru = [p[name] for name in _gru_names((gru_prefix,))]
    Wz, Wr, Wh, Uz, Ur, Uh, bz, br, bh = (t.data for t in gru)
    U, X = np.array((Uz, Ur)), x.data
    G = _gate_inputs(X, np.array((Wh, Wz, Wr)), np.array((bh, bz, br))[:, None],
                     np.empty((3, len(X), d), X.dtype))
    C, ZR = G[0], G[1:]
    T = np.empty((n + len(X), d), table.data.dtype) if out is None else out[: n + len(X)]
    if out is None:
        T[:n] = table.data
    M, RH, S = np.zeros_like(C), np.empty_like(C), np.empty_like(C)  # messages, r * m, states
    with np.errstate(over="ignore"):  # exp overflow saturates a sigmoid to 0
        for s, e, a, z, groups in rounds.rounds:
            hs = T[rounds.src[a:z]]
            m = np.empty_like(hs)
            for t, ga, gz in groups:
                np.matmul(hs[ga - a : gz - a], Ws[t].data[:d], out=m[ga - a : gz - a])
                m[ga - a : gz - a] += bs[t].data
                if t in lab_side:
                    m[ga - a : gz - a] += lab_side[t][rounds.label[ga:gz]]
            _segment_sum(M[s:e], rounds.tgt[a:z], m)
            _gru_step(ZR[:, s:e], C[s:e], M[s:e], U, Uh, RH[s:e], S[s:e])
            T[rounds.rows[s:e]] = S[s:e]

    def bw(g):
        dT, UT = g.copy(), (Uz.T, Ur.T, Uh.T)
        local = _gru_local(M, ZR[0], ZR[1], C)  # of every round at once
        da, drh = [np.empty_like(C) for _ in range(3)], np.empty_like(C)
        gm = np.empty((len(rounds.src), d), dT.dtype)  # each edge's message gradient
        for s, e, a, z, groups in reversed(rounds.rounds):
            dh = dT[rounds.rows[s:e]]
            _gru_step_bw(dh, ZR[1, s:e], [l[s:e] for l in local], UT, [q[s:e] for q in da + [drh]])
            np.take(dh, rounds.tgt[a:z], axis=0, out=gm[a:z])
            dhs = np.empty_like(gm[a:z])
            for t, ga, gz in groups:
                np.matmul(gm[ga:gz], Ws[t].data[:d].T, out=dhs[ga - a : gz - a])
            _segment_sum(dT, rounds.src[a:z], dhs)
        for t in types:  # every weight's gradient once, over all rounds
            sel = np.flatnonzero(rounds.etype == t)
            gt = gm[sel]
            dW = T[rounds.src[sel]].T @ gt
            if t in lab_side:
                dlab = _segment_sum(np.zeros((len(emb.data), d), gt.dtype), rounds.label[sel], gt)
                dW = np.concatenate([dW, emb.data.T @ dlab])
                _accum(emb, dlab @ Ws[t].data[d:].T)
            _accum(Ws[t], dW)
            _accum(bs[t], gt.sum(axis=0))
        for t, gt in zip(gru, _gru_grads(X, da, M, RH, da)):
            _accum(t, gt)
        _accum(x, da[0] @ Wz.T + da[1] @ Wr.T + da[2] @ Wh.T)
        _accum(table, dT[:n])

    parents = [table, x] + gru + [Ws[t] for t in types] + [bs[t] for t in types]
    return _make(T, parents + ([emb] if lab_side else []), bw)


def gru_cell(x, h, p: ParamStore, prefix: str = "g"):
    """One standard GRU step from state h: works on vectors or on (N, d)
    batches row-wise."""
    return _gru(as_tensor(x), as_tensor(h), p, (prefix,))


def bigru_scan(x, p: ParamStore, prefix: str, lengths=None):
    """A bidirectional GRU layer over time-major x, (T, d) or (T, B, d): the
    GRUs `prefix`_f (forward in time) and `prefix`_b (backward) both run from
    the zero state, as one fused scan. Returns (T, 2H) or (T, B, 2H), aligned
    with x: row t is [h_f(t), h_b(t)], where h_f(t) has read x[:t + 1] and
    h_b(t) x[t:]. With lengths (B,), column j of a padded batch holds only its
    first lengths[j] steps: from row lengths[j] on, its forward half keeps its
    last state and its backward half is zero, so bigru_final gives each
    column's own final state."""
    return _gru(as_tensor(x), None, p, (f"{prefix}_f", f"{prefix}_b"), lengths)


def bigru_final(states):
    """The final state of a bigru_scan result, (..., 2H): the forward half of
    its last row and the backward half of its first."""
    states = as_tensor(states)
    H = states.data.shape[-1] // 2

    def bw(g):
        gs = np.zeros_like(states.data)
        gs[-1, ..., :H] = g[..., :H]
        gs[0, ..., H:] = g[..., H:]
        _accum(states, gs)

    return _make(np.concatenate([states.data[-1, ..., :H], states.data[0, ..., H:]], axis=-1),
                 (states,), bw)


def _block_diag(a, b):
    out = np.zeros((len(a) + len(b),) * 2, dtype=a.dtype)
    out[: len(a), : len(a)], out[len(a) :, len(a) :] = a, b
    return out


def _flip_back(a, H: int):
    """A time-major (T, ..., 2H) array with its second half flipped in time:
    maps the time-aligned rows of a bidirectional layer to the steps of its
    fused scan and back."""
    return np.concatenate([a[..., :H], a[::-1, ..., H:]], axis=-1)


def _gru_step(zr, c, h, U, Uh, rh, out, mask=None):
    """One GRU step from h, in place, U = [Uz, Ur]: zr (2, ..., H), minus the
    input sides of z and r, becomes 1 / (1 + exp(zr - h @ U)) = [z, r] (mask
    scales z), c the candidate from its input side, rh r * h, out h + z (c - h)."""
    zr -= h @ U
    np.exp(zr, out=zr)
    zr += 1.0
    np.reciprocal(zr, out=zr)
    if mask is not None:
        zr[0] *= mask
    np.multiply(zr[1], h, out=rh)
    c += rh @ Uh
    np.tanh(c, out=c)
    np.subtract(c, h, out=out)
    out *= zr[0]
    out += h


def _gru_local(HP, Z, R, C, out=None):
    """Local derivatives of one or many GRU steps into out (four arrays like C,
    new by default): dh/dh_prev through 1 - z, and those of c, z and r by their
    pre-activations times their factors, left to right; dz_da holds 1 - r first."""
    keep, dc_da, dz_da, dr_da = out or [np.empty_like(C) for _ in range(4)]
    np.subtract(1.0, Z, out=keep)
    np.multiply(Z, np.subtract(1.0, np.multiply(C, C, out=dc_da), out=dc_da), out=dc_da)
    np.multiply(np.multiply(HP, R, out=dr_da), np.subtract(1.0, R, out=dz_da), out=dr_da)
    np.multiply(np.multiply(np.subtract(C, HP, out=dz_da), Z, out=dz_da), keep, out=dz_da)
    return keep, dc_da, dz_da, dr_da


def _gru_step_bw(dh, R, local, UT, out):
    """Back through one GRU step in place, from dh, the gradient of the state
    after it: into out = (daz, dar, dah, drh) those of the pre-activations of
    z, r and c (drh is scratch), into dh that of the state before it."""
    (keep, dc_da, dz_da, dr_da), (daz, dar, dah, drh) = local, out
    np.matmul(np.multiply(dh, dc_da, out=dah), UT[2], out=drh)
    np.multiply(dh, dz_da, out=daz)
    np.multiply(drh, dr_da, out=dar)
    dh *= keep
    dh += np.multiply(drh, R, out=drh)
    dh += np.matmul(daz, UT[0], out=drh)
    dh += np.matmul(dar, UT[1], out=drh)


def _gru_grads(X, dx, HP, RH, ds):
    """The gradients of a GRU's W, U and b of z, r and h, from rows of its
    steps: inputs X with gate gradients dx, and HP and RH (r * h) with ds."""
    return [X.T @ dx[0], X.T @ dx[1], X.T @ dx[2], HP.T @ ds[0], HP.T @ ds[1], RH.T @ ds[2],
            ds[0].sum(axis=0), ds[1].sum(axis=0), ds[2].sum(axis=0)]


@functools.cache
def _gru_names(prefixes: tuple) -> tuple:  # W, U, b; z, r, h; GRU
    return tuple(f"{pre}_{m}{g}" for m in "WUb" for g in "zrh" for pre in prefixes)


def _gru(x, h0, p: ParamStore, prefixes, lengths=None):
    """The GRU kernel: a whole run is one tape node with a hand-written
    backward through time. With h0, one step of the GRU prefixes[0] on x
    without a time axis. Without, a scan from the zero state over time-major
    x; with two prefixes, the second GRU runs backwards in time, fused with
    the first: the state is [h_f, h_b], scan step s reads x[s] and x[T-1-s],
    and the recurrent weights are block-diagonal, assembled here from each
    GRU's own arrays. The input sides of all steps are formed once; per step,
    those of z and r form one negated (2, ..., kH) block, which keeps each
    gate contiguous (elementwise work on strided column slices is several
    times slower). Each step writes its gates, candidate, r * h and state in
    place into run buffers; row 0 of the states is h0. Lengths mask the
    update gate z of each column's padded steps to 0, which leaves its state
    unchanged there, h + 0 (c - h); the backward reads the masked z."""
    step, k = h0 is not None, len(prefixes)
    params = [p[n] for n in _gru_names(prefixes)]
    if k == 1:
        Wz, Wr, Wh, Uz, Ur, Uh, bz, br, bh = (t.data for t in params)
    else:
        parts = [[t.data for t in params[i : i + k]] for i in range(0, 9 * k, k)]
        Wz, Wr, Wh, bz, br, bh = (np.concatenate(ds, axis=-1) for ds in parts[:3] + parts[6:])
        Uz, Ur, Uh = (_block_diag(*ds) for ds in parts[3:6])
    U = np.array((Uz, Ur))
    H = len(Uz) // k  # state width of one GRU
    xs = x.data[None] if step else x.data
    T, C = len(xs), xs @ Wh + bh  # input sides of all steps
    ZR = np.empty((T, 2) + C.shape[1:], C.dtype)
    np.negative(xs @ Wz + bz, out=ZR[:, 0])
    np.negative(xs @ Wr + br, out=ZR[:, 1])
    if k > 1:  # the backward GRU's inputs in scan order
        ZR[..., H:], C = ZR[::-1, ..., H:], _flip_back(C, H)
    mask = [None] * T
    if lengths is not None and min(lengths) < T:  # 1 where a step reads its column's data
        valid = (np.arange(T)[:, None] < np.asarray(lengths)).astype(C.dtype)[..., None]
        mask = np.broadcast_to(valid, C.shape)
        mask = _flip_back(mask, H) if k > 1 else mask
    RH, S = np.empty_like(C), np.empty((T + 1,) + C.shape[1:], C.dtype)
    S[0] = h0.data if step else 0.0
    with np.errstate(over="ignore"):  # exp overflow saturates a sigmoid to 0
        for s in range(T):
            _gru_step(ZR[s], C[s], S[s], U, Uh, RH[s], S[s + 1], mask[s])

    def bw(g):
        g = g[None] if step else g if k == 1 else _flip_back(g, H)
        HP, R, UT = S[:-1], ZR[:, 1], (Uz.T, Ur.T, Uh.T)
        local = _gru_local(HP, ZR[:, 0], R, C)  # of every step at once
        # gate pre-activation gradients per scan step, (T, ..., k * H) each
        daz, dar, dah = (np.empty_like(C) for _ in range(3))
        dh, drh = np.zeros_like(S[0]), np.empty_like(S[0])
        for s in reversed(range(T)):
            dh += g[s]
            _gru_step_bw(dh, R[s], [a[s] for a in local], UT, (daz[s], dar[s], dah[s], drh))

        def flat(*arrays):
            return [a.reshape(-1, a.shape[-1]) for a in arrays]

        (X, HP, rh), ds = flat(xs, HP, RH), flat(daz, dar, dah)
        if k > 1:  # back to time-aligned rows, as x
            daz, dar, dah = _flip_back(daz, H), _flip_back(dar, H), _flip_back(dah, H)
        dx = flat(daz, dar, dah)
        for i in range(k):  # the diagonal blocks go to each GRU
            c = slice(i * H, (i + 1) * H)
            cols = [[a[:, c] for a in grads] for grads in (dx, ds)]
            for j, gt in enumerate(_gru_grads(X, cols[0], HP[:, c], rh[:, c], cols[1])):
                _accum(params[j * k + i], gt)
        dx = daz @ Wz.T + dar @ Wr.T + dah @ Wh.T
        _accum(x, dx[0] if step else dx)
        if step:
            _accum(h0, dh)

    parents = [x] + params + ([h0] if step else [])
    return _make(S[1] if step else S[1:] if k == 1 else _flip_back(S[1:], H), parents, bw)


def gru_param_shapes(prefix: str, x_dim: int, h_dim: int) -> dict:
    shapes = [(x_dim, h_dim)] * 3 + [(h_dim, h_dim)] * 3 + [(h_dim,)] * 3  # W, U, b
    return dict(zip(_gru_names((prefix,)), shapes))


def attention(keys, memories, p: ParamStore, prefix: str, idx, owner, proj=None):
    """Additive attention, one tape node: score_t = w . tanh(Wk key + Wm
    mem_t), softmax over t, the weighted sum of the memories. Keys (D, H)
    read groups of rows of memories (R, H): idx (S, T) names the rows of S
    groups, with -1 for padding, which is masked out, and owner (D,) the
    group of each key. memories @ Wm is computed once per group row however
    many keys read it, or read from proj, an array of its rows, when the
    caller has it."""
    keys, memories = as_tensor(keys), as_tensor(memories)
    if memories.data.ndim != 2 or memories.data.shape[0] == 0:
        raise NeuralError("attention requires at least one memory row")
    Wm, Wk, w = p[prefix + "_Wm"], p[prefix + "_Wk"], p[prefix + "_w"]
    k, own = keys.data, np.asarray(owner, dtype=np.int64)
    mem, valid = _padded_rows(memories.data, idx)  # (S, T, H)
    mproj = mem @ Wm.data if proj is None else _padded_rows(proj, idx)[0]
    proj = mproj[own]  # (D, T, H), a new array: updated in place
    proj += (k @ Wk.data)[:, None, :]
    np.tanh(proj, out=proj)
    if not valid[own].any(axis=1).all():
        raise NeuralError("attention requires at least one memory row per key")
    sc = np.where(valid[own], proj @ w.data, -np.inf)
    e = np.exp(sc - sc.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)  # (D, T), zero on padding
    mem_k = mem[own]
    out = (a[:, None, :] @ mem_k)[:, 0]

    def bw(g):
        # sums over the keys of each group, as one matmul
        groups = (own == np.arange(len(mem))[:, None]).astype(k.dtype)  # (S, D)
        da = (mem_k @ g[:, :, None])[:, :, 0]
        dsc = a * (da - np.sum(a * da, axis=1, keepdims=True))
        _accum(w, np.tensordot(dsc, proj, axes=2))
        dpre = proj * proj
        np.subtract(1.0, dpre, out=dpre)
        dpre *= w.data
        dpre *= dsc[:, :, None]
        dk = dpre.sum(axis=1)
        _accum(Wk, k.T @ dk)
        _accum(keys, dk @ Wk.data.T)
        # a memory row's gradient: through Wm, then through the weighted sum
        dmproj = (groups @ dpre.reshape(len(k), -1)).reshape(mem.shape)
        _accum(Wm, mem.reshape(-1, mem.shape[-1]).T @ dmproj.reshape(-1, mem.shape[-1]))
        dmem = (groups @ (a[:, :, None] * g[:, None, :]).reshape(len(k), -1)).reshape(mem.shape)
        dmem += dmproj @ Wm.data.T
        _padded_grad(memories, idx, dmem)

    return _make(out, (keys, memories, Wm, Wk, w), bw)


def pointer_scores(keys, table, B, w, idx):
    """Bilinear pointer scores, one tape node: keys (D, H) score the rows
    idx[k] of table, (D, V), with idx (D, V) and -1 for padding, which
    scores 0. s = (key @ B) . row, plus row . w unless w is None."""
    keys, table, B = as_tensor(keys), as_tensor(table), as_tensor(B)
    k = keys.data
    rows_, valid = _padded_rows(table.data, idx)  # (D, V, H)
    kb = k @ B.data
    s = (rows_ @ kb[:, :, None])[:, :, 0]
    if w is not None:
        s = s + rows_ @ w.data
    s = np.where(valid, s, 0.0)

    def bw(g):
        g = np.where(valid, g, 0.0)
        dkb = (g[:, None, :] @ rows_)[:, 0]
        _accum(B, k.T @ dkb)
        _accum(keys, dkb @ B.data.T)
        drow = g[:, :, None] * kb[:, None, :]
        if w is not None:
            _accum(w, np.tensordot(g, rows_, axes=2))
            drow = drow + g[:, :, None] * w.data
        _padded_grad(table, idx, drow)

    return _make(s, (keys, table, B) + ((w,) if w is not None else ()), bw)


def masked_nll(scores, support, target):
    """Per-row negative log-likelihood of a set of target entries, one tape
    node: lse(scores over support) - lse(scores over target), for scores
    (D, C) and boolean masks support and target (D, C), target within
    support. Returns (D,). Raises DegenerateMaskError when a row's support
    is empty or its scores there are not finite."""
    scores = as_tensor(scores)
    x = np.where(support, scores.data, -np.inf)
    xt = np.where(target, scores.data, -np.inf)
    hi = np.max(x, axis=-1, keepdims=True)
    if not np.all(np.isfinite(hi)):
        raise DegenerateMaskError("all entries masked")
    hit = np.max(xt, axis=-1, keepdims=True)
    if not np.all(np.isfinite(hit)):
        raise NeuralError("a row has no target entry")
    lse = hi + np.log(np.sum(np.exp(x - hi), axis=-1, keepdims=True))
    lset = hit + np.log(np.sum(np.exp(xt - hit), axis=-1, keepdims=True))

    def bw(g):
        _accum(scores, g[:, None] * (np.exp(x - lse) - np.exp(xt - lset)))

    return _make((lse - lset)[:, 0], (scores,), bw)


# ---------------------------------------------------------------------------
# Optimizer

class OptState:
    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps, self.step = lr, beta1, beta2, eps, 0
        self.m = self.v = None  # flat moments of all parameters, in ParamStore order
        self.work = None  # two flat scratch rows, reused from step to step


def adam_step(params: ParamStore, st: OptState, max_norm: float = 0.0) -> float:
    """One adaptive-moment update from the gradients stored on params (zero
    where a parameter has none), of all parameters as one flat array; each
    p.data is rebound to its slice of the updated array. Returns the
    gradients' norm before clipping: above max_norm (when set), the update
    uses them scaled down to that norm. A non-finite norm is returned before
    any parameter, moment or step count moves."""
    items = params.items()
    for name, p in items:
        if p.grad is not None and p.grad.shape != p.data.shape:
            raise ShapeError(f"gradient shape drift on {name!r}")
    data = np.concatenate([p.data.ravel() for _, p in items])
    if st.m is None:
        st.m, st.v, *st.work = np.zeros((4, data.size), data.dtype)  # moments, two scratch rows
    m, v, (g, g2) = st.m, st.v, st.work
    np.concatenate([np.zeros(p.data.size, p.data.dtype) if p.grad is None else p.grad.ravel()
                    for _, p in items], out=g)
    sq, off = 0.0, 0
    for _, p in items:  # per-parameter float64 sums, added in parameter order
        sq += float(np.sum(np.square(g[off : off + p.data.size], dtype=np.float64)))
        off += p.data.size
    norm = math.sqrt(sq)
    if not math.isfinite(norm):
        return norm
    if max_norm and norm > max_norm:
        g *= max_norm / norm
    st.step += 1
    # the textbook update, in place: each product and quotient rounds as there
    v *= st.beta2
    v += np.multiply(np.multiply(g, 1 - st.beta2, out=g2), g, out=g2)  # (1 - b2) * g * g
    m *= st.beta1
    m += np.multiply(g, 1 - st.beta1, out=g)
    step = np.multiply(np.divide(m, 1 - st.beta1**st.step, out=g), st.lr, out=g)
    den = np.add(np.sqrt(np.divide(v, 1 - st.beta2**st.step, out=g2), out=g2), st.eps, out=g2)
    data -= np.divide(step, den, out=g)
    off = 0
    for _, p in items:
        p.data = data[off : off + p.data.size].reshape(p.data.shape)
        off += p.data.size
    return norm


# ---------------------------------------------------------------------------
# Checkpoints

_FORMAT = "nagc-checkpoint-2"


def save_checkpoint(params: ParamStore, path: str, manifest: dict):
    """One file: a JSON line (format tag, manifest, each parameter's name and
    shape), then the float32 bytes. Synced beside path, then renamed over it:
    a save that fails part way leaves the file at path as it was."""
    items = params.items()
    header = {"format": _FORMAT, "manifest": manifest, "params": [[n, t.shape] for n, t in items]}
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, t in items:
                f.write(t.data.astype("<f4").tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        with suppress(OSError):
            os.remove(tmp)  # left only by a failed save


def load_checkpoint(path: str) -> tuple[dict, ParamStore]:
    """(manifest, params) from a file save_checkpoint wrote. The file is read
    once, and each parameter is a view of it, bounded by its size, before it
    is copied: no header value can allocate more than the file holds."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw.startswith(b"NAGC"):
        raise NeuralError(f"checkpoint {path} is in the old two-file format, which is not read")
    store, off = ParamStore(), raw.find(b"\n") + 1
    if not off:
        raise NeuralError(f"checkpoint {path} has no header line")
    try:
        header = json.loads(raw[: off - 1].decode())
        if header["format"] != _FORMAT:
            raise ValueError(f"format {header['format']!r} is not {_FORMAT!r}")
        for name, shape in header["params"]:
            if not (isinstance(name, str) and isinstance(shape, list)
                    and all(type(n) is int and n >= 0 for n in shape)):
                raise ValueError(f"bad shape {shape!r} for parameter {name!r}")
            n = math.prod(shape)
            if off + 4 * n > len(raw):
                raise NeuralError(f"checkpoint {path} is truncated")
            data = np.frombuffer(raw, "<f4", n, off).reshape(shape).copy()
            if not np.isfinite(data).all():
                raise NeuralError(f"checkpoint {path} has a NaN or inf in parameter {name!r}")
            store.register(name, data)
            off += 4 * n
    except (ValueError, KeyError, TypeError, RecursionError) as e:
        raise NeuralError(f"checkpoint {path} has a bad header: {type(e).__name__}: {e}") from None
    if off != len(raw):
        raise NeuralError(f"checkpoint {path} has trailing bytes")
    return header["manifest"], store
