"""The machine's speed, measured alongside the requests.

The reference machine is two vCPUs of a shared host, and its speed moves in
steps between regimes that last from seconds to minutes.  A fixed kernel
timed in half-second windows over five minutes ran at 34 000 to 64 000
iterations per second, and its means over 25-second windows still spread
0.19 (distance between the quartiles over the median), so longer runs do not
steady wall times.  All code slows alike within a few per cent, though:
timed in turn with a kernel like this module's over two and a half minutes,
a ``rho_pair`` plus ``is_bj_strong`` call on a 4x4 pair and a 48x48 SVD
spread 0.19 to 0.29 over windows of 1.4 to 28 s, and their ratios to the
kernel 0.015 to 0.045.

So a run times the probe kernel whenever PROBE_EVERY_NS have passed since
the last probe, between requests, and each request's wall time is reported
at the reference speed: multiplied by REFERENCE_NS over the median probe
time within WINDOW_NS of the request.  The probe's code and inputs are fixed
and belong to the benchmark, so a change to the program moves the scaled
times as it would move wall times on a machine of constant speed.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# Bound here, before a tracer can rebind the numpy.linalg entry points, so
# the probe costs the same in traced and untraced rounds.
_svd = np.linalg.svd
_eigvalsh = np.linalg.eigvalsh

_RNG = np.random.default_rng(20211130)
_A = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_H = _A + _A.conj().T
_B = _RNG.standard_normal((40, 40))

# The median of the probe medians of 14 runs on the reference machine; it
# only sets the unit of the scaled times.
REFERENCE_NS = 870_000

PROBE_EVERY_NS = 50_000_000
WINDOW_NS = 250_000_000


def _small(a, b):
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("not finite")
    return a.conj().T @ b


def kernel() -> None:
    """The fixed work of one probe, about a millisecond.

    Two thirds are small complex LAPACK calls, small ufuncs and interpreted
    arithmetic, which track the program's sub-millisecond calls, and one
    third a 40x40 SVD, which tracks its LAPACK-bound calls.
    """
    for _ in range(6):
        _svd(_A)
        _eigvalsh(_H)
        sum(i * i for i in range(60))
    for _ in range(12):
        m = _small(_A, _A)
        w = _eigvalsh((m + m.conj().T) / 2.0)
        np.sqrt(np.maximum(w, 0.0)).sum() + float(np.abs(w).max())
    _svd(_B)


def probe() -> int:
    """Time the kernel twice and return the shorter wall time in ns: the
    first run after a large request pays for a cold cache."""
    times = []
    for _ in range(2):
        t0 = perf_counter_ns()
        kernel()
        times.append(perf_counter_ns() - t0)
    return min(times)


class SpeedMeter:
    """Probe times, taken at most every PROBE_EVERY_NS by ``tick``."""

    def __init__(self):
        self.at: list[int] = []
        self.ns: list[int] = []
        self._next = 0

    def tick(self) -> None:
        now = perf_counter_ns()
        if now >= self._next:
            self.sample()
            self._next = perf_counter_ns() + PROBE_EVERY_NS

    def sample(self) -> None:
        start = perf_counter_ns()
        ns = probe()
        self.at.append((start + perf_counter_ns()) // 2)
        self.ns.append(ns)

    def scale(self, starts, durations) -> list[float]:
        """Each duration in ns at the reference speed."""
        at = np.asarray(self.at)
        ns = np.asarray(self.ns, dtype=float)
        starts = np.asarray(starts, dtype=np.int64)
        durations = np.asarray(durations, dtype=np.int64)
        los = np.searchsorted(at, starts - WINDOW_NS)
        his = np.searchsorted(at, starts + durations + WINDOW_NS)
        out = []
        for s, lo, hi, d in zip(starts.tolist(), los.tolist(), his.tolist(),
                                durations.tolist()):
            if lo == hi:  # no probe in the window: take the nearest
                mid = s + d // 2
                if hi == len(at) or (hi > 0 and mid - at[hi - 1] < at[hi] - mid):
                    lo = hi - 1
                hi = lo + 1
            out.append(d * REFERENCE_NS / float(np.median(ns[lo:hi])))
        return out
