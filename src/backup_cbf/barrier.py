"""Implicit backup barrier: evaluation, constraint rows, and the filter.

The barrier value at a state is the worst case over the sampled backup
flow: every path constraint at every grid time, plus the terminal
function at the horizon.  Its zero-superlevel set is the control
invariant set induced by the backup policy.

The filter solves, at each call,

    min ||u - u0||^2  over the input box, subject to
    grad hC_k(Phi_i) . (Q_i (f(x) + g(x) u) - f_pi(Phi_i)) + alpha(hC_k(Phi_i)) >= 0
    grad hS(Phi_N) . Q_N (f(x) + g(x) u) + alpha(hS(Phi_N)) >= 0

with one row per (constraint, grid time) pair and one terminal row.  The
terminal row has no drift correction: the horizon endpoint advances with
current time, while each path row pins an absolute time along the flow.
At ``u = pi(x)`` the path derivative terms cancel identically, which is
what makes the program feasible whenever the barrier is nonnegative.
The rows stay one ``(R, m)`` array with an ``(R,)`` right-hand side from
assembly to solve (layout in `ConstraintSet`).
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
    `label` recovers a row's provenance from its index.
    """

    rows: Array
    rhs: Array
    n_steps: int

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
    """The model's ``f(x)`` and ``g(x)`` at states ``x`` (``(n,)`` or
    ``(B, n)``), read once; `ValidationError`, naming a batch's first state
    that differs, unless ``f + g pi`` there (`affine_sum`) equals the flow's
    ``drift`` in bytes, as rows from them would then mix two dynamics."""
    f, g = model.f_eval(x), model.g_eval(x)
    if g.shape != x.shape + (model.input_dim,):
        raise ValidationError("g(x) has the wrong shape")
    loop = affine_sum(f, g, policy.pi_eval(x))
    if loop.tobytes() != drift.tobytes():
        first = next(i for i, (a, b) in enumerate(zip(loop, drift))
                     if a.tobytes() != b.tobytes())
        where = f" at state {first}" if x.ndim > 1 else ""
        raise ValidationError(f"the model's f + g pi{where} differs from the "
                              f"policy's closed loop that the flow marched "
                              f"on, so the rows would mix two dynamics")
    return f, g


def build_constraints(model: SystemModel, policy: BackupPolicy,
                      spec: SafetySpec, evaluation: BarrierEvaluation,
                      margin: float = 0.0) -> ConstraintSet:
    """Reduce the filter conditions along ``evaluation`` to rows in u, at
    the state its trajectory starts from.

    The rows take the flow's drifts, finite, and the model's ``f`` and
    ``g`` at ``x``, checked against the first drift by `_dynamics`.
    ``margin >= 0`` tightens every row by a constant, compensating
    inter-sample error of the time grid.
    """
    if not (is_finite_real(margin) and margin >= 0.0):
        raise ValidationError(f"margin must be a finite number >= 0, got "
                              f"{margin!r}")
    traj = evaluation.trajectory
    drifts = check_finite(traj.drifts, "closed-loop derivative")
    f0, g0 = _dynamics(model, policy, traj.origin, drifts[0])
    sens = traj.sensitivities              # (N+1, n, n)
    q_g = sens @ g0                        # (N+1, n, m)
    q_f = sens @ f0                        # (N+1, n)
    drift_gap = q_f - drifts

    gamma = spec.alpha_gain
    a_blocks, b_blocks = [], []
    for k, con in enumerate(spec.constraints):
        grads = con.grad_eval(traj.states)             # (N+1, n)
        a_blocks.append(np.einsum("ti,tim->tm", grads, q_g))
        b_blocks.append(-np.einsum("ti,ti->t", grads, drift_gap)
                        - gamma * evaluation.per_tau_values[k] + margin)

    grad_t = spec.terminal.grad_eval(traj.states[-1])
    a_blocks.append((grad_t @ q_g[-1])[None])
    b_blocks.append([-(grad_t @ q_f[-1]) - gamma * evaluation.terminal_value
                     + margin])

    return ConstraintSet(rows=np.concatenate(a_blocks),
                         rhs=np.concatenate(b_blocks),
                         n_steps=traj.times.shape[0] - 1)


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
    infeasible - possible only through numerical or grid error when the
    barrier is nonnegative - the backup input ``pi(x)`` is returned with a
    fallback flag.  An iteration-cap failure raises `QpSolverError`, and a
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
        u_star = np.asarray(policy.pi_eval(x), dtype=float)
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
    ``(B, n)``; a nonzero norm is the relative-degree-one property.  The
    model's ``g`` is checked per state as the rows check it (`_dynamics`)."""
    states = np.asarray(states, dtype=float)
    ends, q_end = integrate_flow_batch(model, policy, states, horizon, steps,
                                       with_sensitivity=True)
    grad_t = spec.terminal.grad_eval(ends)            # (B, n)
    g0 = _dynamics(model, policy, states, policy.closed_loop.at(states))[1]
    return np.einsum("bi,bik,bkm->bm", grad_t, q_end, g0)


def relative_degree_probe(model: SystemModel, policy: BackupPolicy,
                          spec: SafetySpec, lower: Array, upper: Array,
                          count: int, horizon: float, steps: int,
                          seed: int = 0) -> float:
    """Fraction of uniformly sampled states whose terminal row has a
    nonzero input coefficient."""
    if not (is_integer(count) and count >= 1):
        raise ValidationError(f"count must be an integer >= 1, got {count!r}")
    rng = np.random.default_rng(seed)
    samples = rng.uniform(lower, upper, size=(count, model.state_dim))
    coeff = terminal_row_coefficient(model, policy, spec, samples,
                                     horizon, steps)
    norms = np.linalg.norm(coeff, axis=1)
    return float(np.mean(norms > _NONZERO_COEFFICIENT))
