"""Small dense quadratic program: min ||u - u0||^2 over linear rows + box.

The solver is a dual active-set method specialized to the unit Hessian:
it starts from the unconstrained minimum ``u0``, repeatedly pulls in the
most violated constraint, and keeps the working set dually feasible.  For
these desk-scale problems (a few hundred rows, input dimension <= 8) every
working-set subproblem is a tiny least-squares solve, the active set is
reported exactly, and infeasibility surfaces as a Farkas-style certificate
(the incoming normal is a nonpositive combination of the working set).

Rows arrive as one ``(R, m)`` array with an ``(R,)`` right-hand side; the
finite box bounds are stacked below them, so the active set names stacked
index ``i < R`` as ``("row", i)`` and box rows ``("lower"/"upper", j)``.

A solver instance carries warm-start state (the previous active set is
tried first when scanning for violated rows) and must not be shared across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ValidationError

Array = np.ndarray

QpStatus = Literal["optimal", "infeasible", "max_iter"]

# (kind, index): kind is "row" for caller rows, "lower"/"upper" for box bounds.
ActiveLabel = tuple[str, int]


@dataclass(frozen=True)
class QpProblem:
    """``min ||u - u0||^2  s.t.  rows @ u >= rhs,  lower <= u <= upper``.

    ``rows`` is an ``(R, m)`` array with one constraint normal per row and
    ``rhs`` the matching ``(R,)`` vector; ``R = 0`` is allowed.  Box bounds
    may be infinite on their open side (``lower = -inf``, ``upper = +inf``);
    a ``lower`` of ``+inf`` or an ``upper`` of ``-inf``, which no input
    satisfies, is refused.
    """

    u0: Array
    rows: Array
    rhs: Array
    lower: Array
    upper: Array

    def __post_init__(self):
        u0 = np.asarray(self.u0, dtype=float)
        if u0.ndim != 1 or not np.all(np.isfinite(u0)):
            raise ValidationError("u0 must be a finite vector")
        m = u0.shape[0]
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != (m,) or hi.shape != (m,):
            raise ValidationError("box bounds must match the input dimension")
        if not np.all(lo <= hi):
            raise ValidationError("lower must be <= upper componentwise")
        for name, bound, empty in (("lower", lo.tolist(), np.inf),
                                   ("upper", hi.tolist(), -np.inf)):
            if empty in bound:          # on lists: cheaper per QP than arrays
                raise ValidationError(f"{name} bound of input "
                                      f"{bound.index(empty)} is {empty}, "
                                      f"which no input satisfies")
        rows = np.asarray(self.rows, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != m or rhs.shape != rows.shape[:1]:
            raise ValidationError("rows must be (R, m) with m the input "
                                  "dimension and rhs must be (R,)")
        if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(rhs))):
            raise ValidationError("rows and rhs must be finite")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.u0.shape[0]


@dataclass(frozen=True)
class QpSolution:
    """``warm_started`` is whether the solver's previous active set named a
    row or bound of this problem, so that the scan for violated rows tried
    those first."""

    u_star: Array
    status: QpStatus
    active_set: tuple[ActiveLabel, ...]
    kkt_residual: float
    iterations: int
    warm_started: bool


def _stack(problem: QpProblem) -> tuple[Array, Array, list[ActiveLabel]]:
    """Stack caller rows and finite box bounds into one a^T u >= b system;
    also returns the labels of the box rows, which follow the caller rows."""
    eye = np.eye(problem.dim)
    has_lo = np.isfinite(problem.lower)
    has_hi = np.isfinite(problem.upper)
    a_mat = np.concatenate([problem.rows, eye[has_lo], -eye[has_hi]])
    b_vec = np.concatenate([problem.rhs, problem.lower[has_lo],
                            -problem.upper[has_hi]])
    box = ([("lower", j) for j in range(problem.dim) if has_lo[j]]
           + [("upper", j) for j in range(problem.dim) if has_hi[j]])
    return a_mat, b_vec, box


def _kkt_residual(u: Array, u0: Array, a_mat: Array, b_vec: Array,
                  work: list[int], lam: list[float]) -> float:
    grad = u - u0
    for j, idx in enumerate(work):
        grad = grad - lam[j] * a_mat[idx]
    stationarity = float(np.max(np.abs(grad))) if grad.size else 0.0
    slacks = a_mat @ u - b_vec
    primal = float(max(0.0, -slacks.min())) if slacks.size else 0.0
    comp = max((abs(lam[j] * slacks[work[j]]) for j in range(len(work))),
               default=0.0)
    return max(stationarity, primal, comp)


class QpSolver:
    """Warm-startable active-set solver; one instance per thread."""

    def __init__(self):
        self._warm: list[ActiveLabel] = []

    def solve(self, problem: QpProblem) -> QpSolution:
        a_mat, b_vec, box = _stack(problem)
        n_con, m = a_mat.shape
        n_rows = problem.rows.shape[0]
        u = problem.u0.copy()
        work: list[int] = []
        lam: list[float] = []
        max_changes = 100 * (n_con + m)
        changes = 0

        row_scale = np.maximum(1.0, np.linalg.norm(a_mat, axis=1))
        feas_tol = 1e-10
        box_index = {lab: n_rows + i for i, lab in enumerate(box)}
        warm_pref = [j if kind == "row" else box_index[(kind, j)]
                     for kind, j in self._warm
                     if (kind == "row" and j < n_rows) or (kind, j) in box_index]

        def finish(status: QpStatus) -> QpSolution:
            active = tuple(("row", i) if i < n_rows else box[i - n_rows]
                           for i in work)
            if status == "optimal":
                kkt = _kkt_residual(u, problem.u0, a_mat, b_vec, work, lam)
                self._warm = list(active)
            else:
                kkt = float("inf")
            return QpSolution(u_star=u.copy(), status=status, active_set=active,
                              kkt_residual=kkt, iterations=changes,
                              warm_started=bool(warm_pref))

        while True:
            scaled = (a_mat @ u - b_vec) / row_scale
            p = None
            for idx in warm_pref:
                if idx not in work and scaled[idx] < -feas_tol:
                    p = idx
                    break
            if p is None:
                if n_con and scaled.min() < -feas_tol:
                    # most violated in scale-free units; ties -> lowest index
                    p = int(np.argmin(scaled))
                else:
                    return finish("optimal")

            # Pull constraint p into the working set, stepping the primal
            # point along the projected normal and trading off multipliers
            # of blocking constraints.
            n_p = a_mat[p]
            lam_p = 0.0
            while True:
                if changes >= max_changes:
                    return finish("max_iter")
                if work:
                    n_mat = a_mat[work].T  # m x q
                    gram = n_mat.T @ n_mat
                    try:
                        r = np.linalg.solve(gram, n_mat.T @ n_p)
                    except np.linalg.LinAlgError:
                        r = np.linalg.lstsq(gram, n_mat.T @ n_p, rcond=None)[0]
                    z = n_p - n_mat @ r
                else:
                    r = np.zeros(0)
                    z = n_p.copy()

                z_norm2 = float(z @ z)
                degenerate = z_norm2 <= 1e-22 * max(1.0, float(n_p @ n_p))
                s_p = float(n_p @ u - b_vec[p])
                t_full = np.inf if degenerate else max(0.0, -s_p / z_norm2)

                t_drop, k_drop = np.inf, -1
                for j in range(len(work)):
                    if r[j] > 1e-12:
                        cand = lam[j] / r[j]
                        if cand < t_drop:
                            t_drop, k_drop = cand, j

                t = min(t_full, t_drop)
                if not np.isfinite(t):
                    # n_p lies in the span of the working set with no
                    # positive multiplier to trade: no feasible point exists.
                    return finish("infeasible")

                if not degenerate:
                    u = u + t * z
                for j in range(len(work)):
                    lam[j] -= t * r[j]
                lam_p += t

                if t == t_full and not degenerate:
                    work.append(p)
                    lam.append(lam_p)
                    changes += 1
                    break
                # partial step: the blocking constraint leaves the set
                work.pop(k_drop)
                lam.pop(k_drop)
                changes += 1


def solve(problem: QpProblem) -> QpSolution:
    """One-shot solve with a fresh (cold) solver."""
    return QpSolver().solve(problem)
