"""Implicit backup barrier: evaluation, constraint rows, and the filter.

The barrier value at a state is the worst case over the sampled backup
flow: every path constraint at every grid time, plus the terminal
function at the horizon.  Its zero-superlevel set is the control
invariant set induced by the backup policy.

The filter solves, at each call,

    min ||u - u0||^2  over the input box, subject to
    a_i . (u - pi(x)) + c_i >= 0,   a_i = grad h_i(Phi_i) Q_i g(x),

with one row per (path constraint, grid time) pair, ``c_i = alpha(h_i)``,
and one terminal row, ``c_T = alpha(hS) + grad hS . F`` at ``Phi_N``, where
``F = f + g pi`` is the closed loop the flow marched.  On the exact flow
``Q(tau) F(x) = F(phi(tau, x))``, so these are the paper's conditions
written as deviations from the backup input.  At ``u = pi(x)`` a path
row's slack is ``alpha(h_i) >= 0`` up to rounding and the terminal row's
is the terminal set's own condition under ``pi`` at ``Phi_N``; so the
program is feasible whenever the barrier is nonnegative and that holds.
The rows stay one ``(R, m)`` array with an ``(R,)`` right-hand side
from assembly to solve (layout in `ConstraintSet`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import QpSolverError, ValidationError
from .flow import FlowTrajectory, integrate_flow, integrate_flow_batch
from .qp import QpProblem, QpSolver
from .systems import (BackupPolicy, SafetySpec, SystemModel, affine_sum,
                      check_finite, is_finite_real, is_integer)

Array = np.ndarray

TERMINAL_INDEX = -1  # constraint index marking the terminal entry in argmin
_NONZERO_COEFFICIENT = 1e-8  # terminal-row norm counted as nonzero


@dataclass(frozen=True)
class BarrierEvaluation:
    """Barrier value with its bookkeeping for one state.

    ``per_tau_values[k, i]`` tabulates path constraint ``k`` along the flow
    grid; ``argmin`` is ``(k, i)`` of the minimizing entry, with
    ``k = TERMINAL_INDEX`` when the terminal value attains the minimum.
    """

    h_value: float
    per_tau_values: Array
    terminal_value: float
    argmin: tuple[int, int]
    trajectory: FlowTrajectory


class BatchBarrierValues(NamedTuple):
    """Vectorized barrier values: overall, path-only minimum, terminal."""

    h: Array
    path_min: Array
    terminal: Array


@dataclass(frozen=True)
class ConstraintSet:
    """Affine rows ``rows @ u >= rhs`` for the filter.

    ``rows`` is ``(R, m)`` and ``rhs`` is ``(R,)`` with
    ``R = n_constraints * (n_steps + 1) + 1``: path rows grouped by
    constraint, each group in grid order, then the terminal row.
    `label` recovers a row's provenance from its index.  ``backup_input``
    is ``pi(x)`` at the state the rows are built at, the input every row
    is written from: ``rhs = rows @ backup_input - c + margin``.
    """

    rows: Array
    rhs: Array
    n_steps: int
    backup_input: Array

    def label(self, r: int) -> tuple[str, int, int]:
        """``("path", k, i)`` for constraint ``k`` at grid index ``i``, or
        ``("terminal", 0, n_steps)`` for the last row."""
        if not 0 <= r < self.rhs.shape[0]:
            raise IndexError(f"row {r} out of range")
        if r == self.rhs.shape[0] - 1:
            return ("terminal", 0, self.n_steps)
        k, i = divmod(r, self.n_steps + 1)
        return ("path", k, i)

    def slacks(self, u: Array) -> Array:
        return self.rows @ np.asarray(u, dtype=float) - self.rhs


def path_values(spec: SafetySpec, states: Array) -> tuple[Array, Array]:
    """Path constraints at ``states`` ``(..., n)``: the per-constraint
    table ``(K, ...)`` and its worst case over constraints ``(...)``."""
    table = np.stack([c.h_eval(states) for c in spec.constraints])
    return table, table.min(axis=0)


def eval_h(model: SystemModel, policy: BackupPolicy, spec: SafetySpec,
           x: Array, horizon: float, steps: int) -> BarrierEvaluation:
    """Integrate the backup flow once and take the worst constraint value
    over the grid, including the terminal function at the horizon."""
    traj = integrate_flow(model, policy, np.asarray(x, dtype=float),
                          horizon, steps)
    per_tau, worst = path_values(spec, traj.states)
    terminal = float(spec.terminal.h_eval(traj.states[-1]))
    path_min = float(worst.min())
    if path_min <= terminal:
        k, i = np.unravel_index(int(np.argmin(per_tau)), per_tau.shape)
        argmin = (int(k), int(i))
        h_value = path_min
    else:
        argmin = (TERMINAL_INDEX, steps)
        h_value = terminal
    return BarrierEvaluation(h_value=h_value, per_tau_values=per_tau,
                             terminal_value=terminal, argmin=argmin,
                             trajectory=traj)


def eval_h_batch(model: SystemModel, policy: BackupPolicy, spec: SafetySpec,
                 states: Array, horizon: float, steps: int) -> BatchBarrierValues:
    """Barrier values for a batch of states of shape ``(B, n)``.

    Streams the flow without storing paths or sensitivities, so grid-scale
    batches stay cheap; used by sweeps and sampling tests.
    """
    states = np.asarray(states, dtype=float)
    running = [None]

    def observe(xs):
        vals = path_values(spec, xs)[1]
        running[0] = vals if running[0] is None else np.minimum(running[0], vals)

    ends, _ = integrate_flow_batch(model, policy, states, horizon, steps,
                                   with_sensitivity=False, observer=observe)
    terminal = np.asarray(spec.terminal.h_eval(ends), dtype=float)
    path_min = running[0]
    return BatchBarrierValues(h=np.minimum(path_min, terminal),
                              path_min=path_min, terminal=terminal)


def _dynamics(model: SystemModel, policy: BackupPolicy, x: Array,
              drift: Array) -> tuple[Array, Array]:
    """The model's ``g(x)`` and the policy's ``pi(x)`` at states ``x``
    (``(n,)`` or ``(B, n)``), read once; `ValidationError`, naming a
    batch's first state that differs, unless the model's ``f + g pi``
    there (`affine_sum`) equals the flow's ``drift`` in bytes, as rows from
    them would then mix two dynamics (and the plant steps ``f + g u``)."""
    f, g = model.f_eval(x), model.g_eval(x)
    if g.shape != x.shape + (model.input_dim,):
        raise ValidationError("g(x) has the wrong shape")
    pi = policy.pi_eval(x)
    loop = affine_sum(f, g, pi)
    if loop.tobytes() != drift.tobytes():
        first = next(i for i, (a, b) in enumerate(zip(loop, drift))
                     if a.tobytes() != b.tobytes())
        where = f" at state {first}" if x.ndim > 1 else ""
        raise ValidationError(f"the model's f + g pi{where} differs from the "
                              f"policy's closed loop that the flow marched "
                              f"on, so the rows would mix two dynamics")
    return g, pi


def build_constraints(model: SystemModel, policy: BackupPolicy,
                      spec: SafetySpec, evaluation: BarrierEvaluation,
                      margin: float = 0.0) -> ConstraintSet:
    """Reduce the filter conditions along ``evaluation`` to rows in u, at
    the state ``x`` its trajectory starts from, in deviation form from
    ``pi(x)`` (module docstring).

    The rows take the model's ``g(x)`` and the policy's ``pi(x)``, both
    checked against the flow's first drift by `_dynamics`, and the last
    drift ``F(Phi_N)``; every drift must be finite.  ``pi(x)`` is kept as
    the set's ``backup_input``.  ``margin >= 0`` tightens every row by a
    constant, compensating inter-sample error of the time grid.
    """
    if not (is_finite_real(margin) and margin >= 0.0):
        raise ValidationError(f"margin must be a finite number >= 0, got "
                              f"{margin!r}")
    traj = evaluation.trajectory
    drifts = check_finite(traj.drifts, "closed-loop derivative")
    g0, pi0 = _dynamics(model, policy, traj.origin, drifts[0])
    q_g = traj.sensitivities @ g0          # (N+1, n, m)

    a_blocks = [np.einsum("ti,tim->tm", con.grad_eval(traj.states), q_g)
                for con in spec.constraints]
    grad_t = spec.terminal.grad_eval(traj.states[-1])
    a_blocks.append((grad_t @ q_g[-1])[None])
    rows = np.concatenate(a_blocks)
    c = np.append(spec.alpha_gain * evaluation.per_tau_values,
                  spec.alpha_gain * evaluation.terminal_value
                  + grad_t @ drifts[-1])   # grad hS . F(Phi_N)
    return ConstraintSet(rows=rows, rhs=rows @ pi0 - c + margin,
                         n_steps=traj.times.shape[0] - 1,
                         backup_input=pi0)


@dataclass(frozen=True)
class FilterDiagnostics:
    """Per-call record of what the filter saw and decided.

    ``qp_iterations`` and ``kkt_residual`` are the solver's active-set
    changes and KKT residual (``inf`` unless the QP solved optimally, and
    ``null`` then in `to_json_dict`, as JSON has no infinity), and
    ``warm_started`` whether the solver's previous active set named a row
    or bound of this call's QP."""

    h_value: float
    argmin: tuple[int, int]
    flow_minima: tuple[float, ...]
    terminal_value: float
    row_count: int
    qp_status: str
    qp_iterations: int
    kkt_residual: float
    warm_started: bool
    active_rows: tuple[tuple[str, int], ...]
    used_fallback: bool
    inside_set: bool
    timings_us: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "h_value": self.h_value,
            "argmin": {"constraint": self.argmin[0], "grid_index": self.argmin[1]},
            "flow_minima": list(self.flow_minima),
            "terminal_value": self.terminal_value,
            "row_count": self.row_count,
            "qp_status": self.qp_status,
            "qp_iterations": self.qp_iterations,
            "kkt_residual": (self.kkt_residual
                             if math.isfinite(self.kkt_residual) else None),
            "warm_started": self.warm_started,
            "active_rows": [list(lab) for lab in self.active_rows],
            "used_fallback": self.used_fallback,
            "inside_set": self.inside_set,
            "timings_us": dict(self.timings_us),
        }


def filter_control(model: SystemModel, policy: BackupPolicy, spec: SafetySpec,
                   x: Array, u_nominal: Array, horizon: float, steps: int,
                   solver: QpSolver | None = None, margin: float = 0.0,
                   ) -> tuple[Array, FilterDiagnostics]:
    """Minimally adjust ``u_nominal`` so the backup barrier conditions hold.

    Returns the adjusted input and diagnostics.  If the program reports
    infeasible - possible when the barrier is nonnegative only through
    rounding, or where the terminal condition ``grad hS . F + alpha(hS) >=
    0`` fails at ``Phi_N`` - the backup input ``pi(x)`` the rows were
    built with (`ConstraintSet.backup_input`) is returned with a fallback
    flag.  An iteration-cap failure raises `QpSolverError`, and a
    model the flow did not march on `ValidationError` (`build_constraints`).
    """
    x = np.asarray(x, dtype=float)
    u_nominal = np.asarray(u_nominal, dtype=float)
    if u_nominal.shape != (model.input_dim,):
        raise ValidationError("u_nominal must have the input dimension")
    solver = solver if solver is not None else QpSolver()

    t0 = time.perf_counter()
    evaluation = eval_h(model, policy, spec, x, horizon, steps)
    t1 = time.perf_counter()
    constraints = build_constraints(model, policy, spec, evaluation, margin)
    t2 = time.perf_counter()
    problem = QpProblem(u0=u_nominal, rows=constraints.rows,
                        rhs=constraints.rhs, lower=model.input_lower,
                        upper=model.input_upper)
    solution = solver.solve(problem)
    t3 = time.perf_counter()

    if solution.status == "max_iter":
        raise QpSolverError(f"active-set solver hit its iteration cap "
                            f"({solution.iterations} changes)")
    if solution.status == "infeasible":
        u_star = constraints.backup_input
        used_fallback = True
        qp_status = "infeasible_fallback"
    else:
        u_star = solution.u_star
        used_fallback = False
        qp_status = solution.status

    diag = FilterDiagnostics(
        h_value=evaluation.h_value,
        argmin=evaluation.argmin,
        flow_minima=tuple(float(v) for v in
                          evaluation.per_tau_values.min(axis=1)),
        terminal_value=evaluation.terminal_value,
        row_count=len(constraints.rows),
        qp_status=qp_status,
        qp_iterations=solution.iterations,
        kkt_residual=float(solution.kkt_residual),
        warm_started=solution.warm_started,
        active_rows=solution.active_set,
        used_fallback=used_fallback,
        inside_set=evaluation.h_value >= 0.0,
        timings_us={
            "integrate": int((t1 - t0) * 1e6),
            "rows": int((t2 - t1) * 1e6),
            "qp": int((t3 - t2) * 1e6),
        })
    return u_star, diag


def terminal_row_coefficient(model: SystemModel, policy: BackupPolicy,
                             spec: SafetySpec, states: Array,
                             horizon: float, steps: int) -> Array:
    """Input coefficients ``(B, m)`` of the terminal row for states
    ``(B, n)``, the bytes of ``build_constraints(...).rows[-1]`` at each;
    a nonzero norm is the relative-degree-one property.  The model's ``g``
    is checked per state as the rows check it (`_dynamics`)."""
    states = np.asarray(states, dtype=float)
    ends, q_end = integrate_flow_batch(model, policy, states, horizon, steps,
                                       with_sensitivity=True)
    grad_t = spec.terminal.grad_eval(ends)            # (B, n)
    g0 = _dynamics(model, policy, states, policy.closed_loop.at(states))[0]
    return (grad_t[:, None, :] @ (q_end @ g0))[:, 0]


def relative_degree_probe(model: SystemModel, policy: BackupPolicy,
                          spec: SafetySpec, lower: Array, upper: Array,
                          count: int, horizon: float, steps: int,
                          seed: int = 0) -> float:
    """Fraction of uniformly sampled states whose terminal row has a
    nonzero input coefficient.  ``lower`` and ``upper`` must be finite
    ``(state_dim,)`` vectors with ``lower <= upper``, whose difference
    numpy's sampler also needs finite (`ValidationError`)."""
    if not (is_integer(count) and count >= 1):
        raise ValidationError(f"count must be an integer >= 1, got {count!r}")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = model.state_dim
    with np.errstate(over="ignore", invalid="ignore"):
        if not (lower.shape == upper.shape == (n,) and np.all(lower <= upper)
                and np.isfinite(upper - lower).all()):
            raise ValidationError(f"lower and upper must be finite vectors of "
                                  f"shape ({n},) with lower <= upper and a "
                                  f"finite upper - lower, got {lower!r} and "
                                  f"{upper!r}")
    samples = np.random.default_rng(seed).uniform(lower, upper, (count, n))
    coeff = terminal_row_coefficient(model, policy, spec, samples,
                                     horizon, steps)
    norms = np.linalg.norm(coeff, axis=1)
    return float(np.mean(norms > _NONZERO_COEFFICIENT))
