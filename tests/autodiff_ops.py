"""Autodiff ops that only the tests use, to build losses and oracles for
finite-difference and equivalence checks. They are written on the engine's
own tape primitives, as the package's ops are."""

import numpy as np

from nagc.neural import _accum, _check_same_shape, _make, _segment_sum, as_tensor, masked_log_softmax


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "mul")

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), bw)


def scale(a, s: float):
    a = as_tensor(a)

    def bw(g):
        _accum(a, g * s)

    return _make(a.data * s, (a,), bw)


def transpose(a):
    a = as_tensor(a)

    def bw(g):
        _accum(a, g.T)

    return _make(a.data.T, (a,), bw)


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - out * out))

    return _make(out, (a,), bw)


def mean_rows(a):
    a = as_tensor(a)
    n = a.data.shape[0]

    def bw(g):
        _accum(a, np.repeat(g[None, :], n, axis=0) / n)

    return _make(a.data.mean(axis=0), (a,), bw)


def scatter_rows(n, idx, src):
    """(n, d) tensor with src rows summed into positions idx."""
    src = as_tensor(src)
    idx = np.asarray(idx, dtype=np.int64)
    out = _segment_sum(np.zeros((n, src.data.shape[1]), src.data.dtype), idx, src.data)

    def bw(g):
        _accum(src, g[idx])

    return _make(out, (src,), bw)


def log_softmax(a):
    return masked_log_softmax(a, np.zeros(as_tensor(a).data.shape))


def logsumexp(a):
    """Stable scalar log-sum-exp of a 1D tensor; tolerates -inf entries."""
    a = as_tensor(a)
    hi = float(np.max(a.data))
    if not np.isfinite(hi):
        out = hi  # all -inf
        w = np.zeros_like(a.data)
    else:
        out = hi + np.log(np.sum(np.exp(a.data - hi)))
        w = np.exp(a.data - out)

    def bw(g):
        _accum(a, g * w)

    return _make(np.asarray(out, dtype=a.data.dtype), (a,), bw)


