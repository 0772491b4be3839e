"""Machine-speed probe: timings scaled to a reference speed.

On a shared host the same work can take 1.7-1.9x longer for seconds at a time
(measured on a 2-vCPU Xeon VM: a fixed decode loop and this probe both flip
between a fast and a slow state). Raw wall times of identical runs therefore
differ by up to 45%. The probe is a fixed NumPy and interpreter workload that
does not touch nagc; it is timed right before and right after each measured
unit of work, and the unit's time is scaled by REF_S / mean probe time. The
ratio of a unit to its probes moves by a few percent between the two states,
against 70-90% for the raw times. A change to nagc cannot change the probe.
"""

from __future__ import annotations

import time

import numpy as np

# Fast-state probe time on the reference machine (2-vCPU Intel Xeon VM,
# 2.1 GHz, NumPy 2.4.6 on single-threaded OpenBLAS 0.3.31): the minimum over
# 3000 probes. Scaled times read as seconds on that machine in its fast state.
REF_S = 1.36e-3

_rng = np.random.default_rng(12345)
_W = _rng.standard_normal((64, 64)).astype(np.float32)
_X = _rng.standard_normal((400, 64)).astype(np.float32)
_IDX = np.arange(400) % 61


def probe() -> float:
    """Seconds one fixed unit of row-batched matmul, scatter-add and
    dict/str work takes right now (the mix nagc's autodiff runs)."""
    t0 = time.perf_counter()
    for _ in range(4):
        acc = np.zeros((61, 64), dtype=np.float32)
        np.add.at(acc, _IDX, np.tanh(_X @ _W))
    table = {}
    for i in range(2000):
        table[i & 127] = (i, str(i))
    return time.perf_counter() - t0


def scale(raw_s: float, probe_before: float, probe_after: float) -> float:
    """Raw seconds at the reference speed, judged by the probes around them."""
    return raw_s * REF_S / (0.5 * (probe_before + probe_after))


class Segments:
    """Times one long call in segments, cut wherever `cut()` is called from
    inside it; each segment is scaled by the probes that bound it, and the
    probes' own time is left out."""

    def __init__(self):
        self._probes = [probe()]
        self._bounds = []  # (segment start, segment end)
        self._start = time.perf_counter()

    def cut(self):
        end = time.perf_counter()
        self._probes.append(probe())
        self._bounds.append((self._start, end))
        self._start = time.perf_counter()

    def close(self) -> tuple[float, float]:
        """(raw seconds, scaled seconds) over all segments."""
        self._bounds.append((self._start, time.perf_counter()))
        self._probes.append(probe())
        raw = [end - start for start, end in self._bounds]
        scaled = [scale(r, p, q) for r, p, q in zip(raw, self._probes, self._probes[1:])]
        return sum(raw), sum(scaled)


class Timer:
    """Times calls one after another; consecutive calls share the probe
    between them."""

    def __init__(self):
        self._last = probe()

    def call(self, fn, *args, **kwargs):
        """(result, raw seconds, scaled seconds) of one call."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        after = probe()
        scaled = scale(raw, self._last, after)
        self._last = after
        return result, raw, scaled
