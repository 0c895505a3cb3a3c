"""A clock that runs at the speed of a fixed reference kernel.

A 2-vCPU VM on a shared host can change speed by up to 1.8x within
seconds: one fixed aeroplane filter call took 20 ms in one second
and 37 ms a few seconds later, with the CPU time of the process swinging
just as much, so neither wall nor CPU time of one run says how fast the
program is.  `RefClock` samples a fixed kernel, written here and using no
part of ``backup_cbf``, every ``interval_s`` while the workload runs, and
converts wall-clock intervals into *reference seconds*: each stretch of
time is scaled by the kernel's nominal duration over its local one, and
the time spent in the kernel itself counts as zero.  On a machine running
at the speed the benchmark was calibrated on, a reference second is a
second; when the host slows the process down by a factor, the program and
the kernel slow down together and the reference duration stays put.

The scalar kernel mixes the kinds of work a filter call does: a Python
loop of small NumPy operations (the scalar flow with its sensitivity),
plain Python float arithmetic, and element-wise NumPy work on arrays of 16k
elements.  The grid kernel adds element-wise work on fresh arrays of 90k
elements, which leave the L2 cache as the batch flow and value iteration
of the grids do; it tracked a grid sweep's speed more closely than the
scalar kernel alone (ratio varying 0.089 against 0.109 over 73 sweeps).
"""

from __future__ import annotations

import math
import time

import numpy as np

_now = time.perf_counter

SMOOTH = 5              # samples in the running median of kernel durations

_VECTOR = np.linspace(0.0, 1.0, 16384)
_BIG_VECTOR = np.linspace(0.0, 1.0, 90000)


def _rhs(z):
    return np.array([math.cos(z[2]) - 0.1 * z[0], math.sin(z[2]), -0.5 * z[1]])


def _jac(z):
    return np.array([[-0.1, 0.0, -math.sin(z[2])],
                     [0.0, 0.0, math.cos(z[2])],
                     [0.0, -0.5, 0.0]])


def scalar_kernel() -> float:
    """Fixed work of about 2.5 ms; returns a value so nothing is skipped."""
    z = np.array([1.0, 0.5, 0.2])
    sens = np.eye(3)
    h = 0.02
    for _ in range(40):
        k1 = _rhs(z)
        k2 = _rhs(z + 0.5 * h * k1)
        k3 = _rhs(z + 0.5 * h * k2)
        k4 = _rhs(z + h * k3)
        sens = sens + h * np.einsum("ij,jk->ik", _jac(z), sens)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    a, b = 0.0, 1.0
    for _ in range(3000):
        a = a * 0.999 + math.sin(b)
        b += 1e-4
    y = _VECTOR
    for _ in range(4):
        y = np.sin(y) * 0.5 + y * y
    return float(z.sum() + sens.sum() + a + y.sum())


def grid_kernel() -> float:
    """`scalar_kernel` plus about 6 ms of work on arrays of 90k elements."""
    y = _BIG_VECTOR
    for _ in range(4):
        y = np.sin(y) * 0.5 + y * y
    return scalar_kernel() + float(y.sum())


# name -> (kernel, its median duration in seconds on the machine the
# benchmark was calibrated on: 2-vCPU x86-64 VM, Python 3.11, NumPy 2.4).
KERNELS = {"scalar": (scalar_kernel, 2.5e-3), "grid": (grid_kernel, 7.5e-3)}


class RefClock:
    """Samples a kernel of `KERNELS` at most every ``interval_s`` (on
    `tick`) and turns wall-clock intervals into reference seconds
    (`to_ref`)."""

    def __init__(self, kernel: str, interval_s: float):
        self.kernel_name = kernel
        self.kernel, self.nominal_s = KERNELS[kernel]
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []   # (start, end)
        self._due = -math.inf

    def tick(self, force: bool = False) -> None:
        if not force and _now() < self._due:
            return
        t0 = _now()
        self.kernel()
        t1 = _now()
        self.samples.append((t0, t1))
        self._due = t1 + self.interval_s

    def kernel_s(self) -> np.ndarray:
        """Each sample's duration, smoothed by a running median."""
        raw = np.array([b - a for a, b in self.samples])
        half = SMOOTH // 2
        return np.array([np.median(raw[max(0, k - half):k + half + 1])
                         for k in range(raw.size)])

    def _knots(self, scaled: bool):
        """Knots of the piecewise-linear map wall time -> reference time.
        Kernel samples map to flat pieces; the gap between two samples is
        split at its midpoint, each half at its neighbour's speed (or at
        speed 1 if not ``scaled``)."""
        starts = np.array([a for a, _ in self.samples])
        ends = np.array([b for _, b in self.samples])
        rate = self.nominal_s / self.kernel_s() if scaled \
            else np.ones(len(self.samples))
        times = [starts[0], ends[0]]
        ref = [0.0, 0.0]
        for k in range(1, len(self.samples)):
            mid = 0.5 * (ends[k - 1] + starts[k])
            times += [mid, starts[k], ends[k]]
            ref += [ref[-1] + (mid - ends[k - 1]) * rate[k - 1]]
            ref += [ref[-1] + (starts[k] - mid) * rate[k]]
            ref += [ref[-1]]
        return np.array(times), np.array(ref), rate[0], rate[-1]

    def to_ref(self, t0, t1, scaled: bool = True) -> np.ndarray:
        """Reference seconds between wall times ``t0`` and ``t1`` (arrays or
        scalars), leaving out the time the kernel itself ran; plain wall
        seconds less the kernel's time if not ``scaled``."""
        if not self.samples:
            raise RuntimeError("the reference clock was never sampled")
        times, ref, first, last = self._knots(scaled)

        def at(t):
            t = np.asarray(t, dtype=float)
            mapped = np.interp(t, times, ref)
            mapped = np.where(t < times[0], (t - times[0]) * first, mapped)
            return np.where(t > times[-1],
                            ref[-1] + (t - times[-1]) * last, mapped)

        return at(t1) - at(t0)

    def factor(self) -> float:
        """Median of nominal over measured kernel time: above 1 when the
        host ran faster than the calibration, below 1 when slower."""
        return float(np.median(self.nominal_s / self.kernel_s()))
