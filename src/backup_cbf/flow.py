"""Closed-loop backup flow integration with sensitivity propagation.

`rk4_step` is the fixed-step explicit fourth-order update on arrays: it
marches a batch of states, steps the state sensitivity, and advances the
plant in the simulation harness.  One state is marched on Python floats
instead, by `_float_march`, which repeats `rk4_step`'s operations in the
same order on a tuple and evaluates the policy's float closed-loop
derivative (`BackupPolicy.loop_floats`, or `loop_rhs` wrapped for models
without one): on 2- and 3-vectors numpy's per-call overhead is most of the
cost, and the float march gives the same bits several times faster.  Both
marches record the four stage points of every step.  The sensitivity
obeys the variational equation ``Qdot = J(x) Q`` with ``J = d f_pi / d x``
and ``Q(0) = I``; since the state never depends on ``Q``, the loop
Jacobians only ever come from stacked `loop_jacobian` evaluations at
recorded stage points, and ``Q`` is stepped over them by `rk4_step`.  One
pass serves every downstream constraint row.

Everything here is pure and reentrant.  `integrate_flow` takes the
Jacobians along the whole path from one stacked call, and the drifts at
the nodes, which check the float march, from another.  The batch entry
point advances many initial states at once with no shared mutable state,
which is what the grid sweeps build on; it takes the Jacobians of each
step's four stage points from one stacked call, so its memory does not
grow with the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .errors import FlowDivergenceError, ValidationError
from .systems import BackupPolicy, SystemModel, loop_jacobian, loop_rhs

Array = np.ndarray


@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled backup flow from one initial state.

    ``times`` is the uniform grid ``0 = tau_0 < ... < tau_N = T`` (s),
    ``states[i]`` the flow at ``tau_i``, ``sensitivities[i]`` the Jacobian
    of ``states[i]`` with respect to the initial state, and ``drifts[i]``
    the backup-loop derivative ``f_pi(states[i])``.
    """

    times: Array
    states: Array
    sensitivities: Array
    drifts: Array
    origin: Array

    def __post_init__(self):
        n = self.origin.shape[0]
        m = self.times.shape[0]
        if (self.states.shape != (m, n) or self.drifts.shape != (m, n)
                or self.sensitivities.shape != (m, n, n)):
            raise ValidationError("trajectory arrays have inconsistent shapes")


def _check_args(x0: Array, horizon: float, steps: int) -> Array:
    if horizon <= 0.0:
        raise ValidationError("horizon must be > 0")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValidationError("initial state must be finite")
    return x0


def rk4_step(deriv: Callable[[Array], Array], x: Array, dt: float
             ) -> tuple[Array, tuple[Array, Array, Array, Array]]:
    """One explicit fourth-order step of ``xdot = deriv(x)`` from ``x``:
    the next value and the four stage points ``deriv`` was evaluated at."""
    half = 0.5 * dt
    k1 = deriv(x)
    x2 = x + half * k1
    k2 = deriv(x2)
    x3 = x + half * k2
    k3 = deriv(x3)
    x4 = x + dt * k3
    k4 = deriv(x4)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (x, x2, x3, x4)


def _q_step(jacs: Iterable[Array], q: Array, dt: float) -> Array:
    """One step of the variational equation ``Qdot = J Q`` from the loop
    Jacobians at the step's four stage points, in stage order."""
    stage_jacs = iter(jacs)
    return rk4_step(lambda p: np.matmul(next(stage_jacs), p), q, dt)[0]


def _float_march(loop: Callable[..., tuple[float, ...]], x: tuple[float, ...],
                 dt: float, steps: int) -> tuple[list[float], list[float]]:
    """`rk4_step` on one state held as a tuple of floats, in its exact
    operation order: flat float lists ``(points, slopes)``; point
    ``4 (i - 1) + s`` is stage ``s`` of step ``i``, the last is the last
    state, and slope ``i - 1`` is ``loop`` at the start of step ``i``.  Stops
    after the first step that leaves finite values, tested per component (a
    sum of two finite values near the float limit overflows)."""
    half = 0.5 * dt
    sixth = dt / 6.0
    points, slopes = [], []
    for _ in range(steps):
        k1 = loop(*x)
        x2 = tuple([a + half * b for a, b in zip(x, k1)])
        k2 = loop(*x2)
        x3 = tuple([a + half * b for a, b in zip(x, k2)])
        k3 = loop(*x3)
        x4 = tuple([a + dt * b for a, b in zip(x, k3)])
        k4 = loop(*x4)
        points += x + x2 + x3 + x4
        slopes += k1
        x = tuple([a + sixth * (((b + 2.0 * c) + 2.0 * d) + e)
                   for a, b, c, d, e in zip(x, k1, k2, k3, k4)])
        if not all(map(math.isfinite, x)):
            break
    points += x
    return points, slopes


def _check_slopes(slopes: Array, drifts: Array):
    """`ValidationError` unless the float march's ``slopes`` (from
    ``loop_floats``) equal the model's ``drifts`` at the same nodes,
    entrywise with NaN equal to NaN."""
    bad = (slopes != drifts) & ~(np.isnan(slopes) & np.isnan(drifts))
    if bad.any():
        node, k = np.argwhere(bad)[0].tolist()
        raise ValidationError(
            f"policy.loop_floats encodes another model than loop_rhs: at node "
            f"{node}, component {k}: {slopes[node, k].item()!r} != "
            f"{drifts[node, k].item()!r}")


def _divergence(step: int, t: float, x: Array, q: Array | None
                ) -> FlowDivergenceError:
    """The error for a step that left finite values, naming the first
    non-finite row of a batch."""
    message = f"flow diverged at step {step} (t = {t:.6g} s)"
    if x.ndim == 1:
        return FlowDivergenceError(message, step)
    bad = ~np.all(np.isfinite(x), axis=1)
    if q is not None:
        bad |= ~np.all(np.isfinite(q), axis=(1, 2))
    row = int(np.argmax(bad))
    return FlowDivergenceError(f"{message} in batch row {row}", step, row)


def integrate_flow(model: SystemModel, policy: BackupPolicy, x0: Array,
                   horizon: float, steps: int) -> FlowTrajectory:
    """Integrate the backup loop from ``x0`` over ``[0, horizon]`` on a
    uniform grid of ``steps`` intervals, then propagate the sensitivity
    along the recorded stage points.

    The drifts are one stacked `loop_rhs` of ``model`` at the nodes.  With
    ``policy.loop_floats`` set, the march's slope at every node but the last
    must equal that node's drift (NaN equal to NaN), else `ValidationError`
    naming the node: a policy paired with a changed model is refused."""
    x0 = _check_args(x0, horizon, steps)
    n = x0.shape[0]
    dt = horizon / steps
    loop = policy.loop_floats
    if loop is None:
        def loop(*x):
            return tuple(loop_rhs(model, policy, np.array(x)).tolist())
    with np.errstate(over="ignore", invalid="ignore"):
        points, slopes = _float_march(loop, tuple(x0.tolist()), dt, steps)
        points = np.array(points).reshape(-1, n)
        states = points[::4].copy()
        drifts = loop_rhs(model, policy, states)
        if policy.loop_floats is not None:
            _check_slopes(np.array(slopes).reshape(-1, n), drifts[:-1])
        jacs = loop_jacobian(model, policy, points[:-1])
        sens = np.empty((len(states), n, n))
        sens[0] = q = np.eye(n)
        for i in range(1, len(states)):
            sens[i] = q = _q_step(jacs[4 * i - 4:4 * i], q, dt)
    finite = (np.isfinite(states[1:]).all(axis=1)
              & np.isfinite(sens[1:]).all(axis=(1, 2)))
    if not finite.all():
        i = int(np.argmin(finite)) + 1
        raise _divergence(i, i * dt, states[i], sens[i])
    return FlowTrajectory(times=np.linspace(0.0, horizon, steps + 1),
                          states=states, sensitivities=sens,
                          drifts=drifts, origin=x0)


def integrate_flow_batch(model: SystemModel, policy: BackupPolicy, x0s: Array,
                         horizon: float, steps: int, *,
                         with_sensitivity: bool = True,
                         observer: Callable[[Array], None] | None = None,
                         ) -> tuple[Array, Array | None]:
    """Advance a batch of initial states ``x0s`` of shape ``(B, n)``.

    Only the endpoint is kept; ``observer(states)`` is invoked at every
    grid point, ``x0s`` included, for callers that fold over the path,
    e.g. running constraint minima.  Returns ``(end_states, end_Q)`` with
    ``end_Q = None`` when sensitivities are switched off.

    The sensitivity is stepped as the states go: after each step, the loop
    Jacobians at its four recorded stage points come from one stacked
    evaluation, so memory does not grow with ``steps``.
    """
    x0s = _check_args(x0s, horizon, steps)
    if x0s.ndim != 2 or x0s.shape[1] != model.state_dim:
        raise ValidationError("x0s must have shape (batch, state_dim)")
    b, n = x0s.shape
    dt = horizon / steps
    q = np.broadcast_to(np.eye(n), (b, n, n)).copy() if with_sensitivity else None
    if observer is not None:
        observer(x0s)
    deriv = partial(loop_rhs, model, policy)
    x = x0s
    for i in range(1, steps + 1):
        # divergence is detected after the step; silence transient overflow
        with np.errstate(over="ignore", invalid="ignore"):
            x, stages = rk4_step(deriv, x, dt)
            if q is not None:
                q = _q_step(loop_jacobian(model, policy, np.stack(stages)),
                            q, dt)
        if not (np.isfinite(x).all() and (q is None or np.isfinite(q).all())):
            raise _divergence(i, i * dt, x, q)
        if observer is not None:
            observer(x)
    return x, q


def sensitivity_fd_check(model: SystemModel, policy: BackupPolicy, x0: Array,
                         horizon: float, steps: int, fd_step: float) -> float:
    """Compare the propagated sensitivity against central differences of the
    flow endpoint.

    Returns the largest entrywise deviation scaled by
    ``max(1, max |finite-difference Jacobian|)``.
    """
    if fd_step <= 0.0:
        raise ValidationError("fd_step must be > 0")
    x0 = _check_args(x0, horizon, steps)
    n = x0.shape[0]
    traj = integrate_flow(model, policy, x0, horizon, steps)
    q_end = traj.sensitivities[-1]

    perturbed = np.repeat(x0[None, :], 2 * n, axis=0)
    for j in range(n):
        perturbed[2 * j, j] += fd_step
        perturbed[2 * j + 1, j] -= fd_step
    ends, _ = integrate_flow_batch(model, policy, perturbed, horizon, steps,
                                   with_sensitivity=False)
    fd = np.empty((n, n))
    for j in range(n):
        fd[:, j] = (ends[2 * j] - ends[2 * j + 1]) / (2.0 * fd_step)
    scale = max(1.0, float(np.max(np.abs(fd))))
    return float(np.max(np.abs(q_end - fd)) / scale)
