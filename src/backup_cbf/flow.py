"""Closed-loop backup flow integration with sensitivity propagation.

The flow map and its state sensitivity are advanced together by a
fixed-step explicit fourth-order scheme on a uniform time grid.  The
sensitivity obeys the variational equation ``Qdot = J(x) Q`` with
``J = d f_pi / d x`` and ``Q(0) = I``, so one integration pass serves every
downstream constraint row.

Everything here is pure and reentrant; the batch entry point advances many
initial states at once with no shared mutable state, which is what the
grid sweeps build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import FlowDivergenceError, ValidationError
from .systems import BackupPolicy, SystemModel, closed_loop_derivs

Array = np.ndarray


@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled backup flow from one initial state.

    ``times`` is the uniform grid ``0 = tau_0 < ... < tau_N = T`` (s),
    ``states[i]`` the flow at ``tau_i``, and ``sensitivities[i]`` the
    Jacobian of ``states[i]`` with respect to the initial state.
    """

    times: Array
    states: Array
    sensitivities: Array
    origin: Array

    def __post_init__(self):
        n = self.origin.shape[0]
        m = self.times.shape[0]
        if self.states.shape != (m, n) or self.sensitivities.shape != (m, n, n):
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


def _rk4_step(model: SystemModel, policy: BackupPolicy, x: Array,
              q: Array | None, dt: float) -> tuple[Array, Array | None]:
    """One explicit fourth-order step of the augmented system
    ``(f_pi(x), J(x) q)``; ``q`` is carried along only when provided."""
    def stage(xs, qs):
        dx, jac = closed_loop_derivs(model, policy, xs, jacobian=q is not None)
        return dx, None if q is None else np.matmul(jac, qs)

    half = 0.5 * dt
    k1x, k1q = stage(x, q)
    k2x, k2q = stage(x + half * k1x, None if q is None else q + half * k1q)
    k3x, k3q = stage(x + half * k2x, None if q is None else q + half * k2q)
    k4x, k4q = stage(x + dt * k3x, None if q is None else q + dt * k3q)
    x_next = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    q_next = None if q is None else q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    return x_next, q_next


def _march(model: SystemModel, policy: BackupPolicy, x: Array,
           q: Array | None, horizon: float, steps: int
           ) -> Iterator[tuple[int, Array, Array | None]]:
    """The stepping loop for one state ``(n,)`` or a batch ``(B, n)``:
    yields ``(i, x_i, q_i)`` for ``i = 0..steps``, raising
    `FlowDivergenceError` at the first step that leaves finite values."""
    dt = horizon / steps
    yield 0, x, q
    for i in range(1, steps + 1):
        # divergence is detected after the step; silence transient overflow
        with np.errstate(over="ignore", invalid="ignore"):
            x, q = _rk4_step(model, policy, x, q, dt)
        if not (np.all(np.isfinite(x)) and (q is None or np.all(np.isfinite(q)))):
            raise _divergence(i, i * dt, x, q)
        yield i, x, q


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
    uniform grid of ``steps`` intervals, propagating the sensitivity
    alongside the state."""
    x0 = _check_args(x0, horizon, steps)
    n = x0.shape[0]
    times = np.linspace(0.0, horizon, steps + 1)
    states = np.empty((steps + 1, n))
    sens = np.empty((steps + 1, n, n))
    for i, x, q in _march(model, policy, x0, np.eye(n), horizon, steps):
        states[i], sens[i] = x, q
    return FlowTrajectory(times=times, states=states, sensitivities=sens, origin=x0)


def integrate_flow_batch(model: SystemModel, policy: BackupPolicy, x0s: Array,
                         horizon: float, steps: int, *,
                         with_sensitivity: bool = True,
                         observer: Callable[[int, float, Array], None] | None = None,
                         ) -> tuple[Array, Array, Array | None]:
    """Advance a batch of initial states ``x0s`` of shape ``(B, n)``.

    Only the endpoint is kept; ``observer(i, tau_i, states)`` is invoked at
    every grid point (including i = 0) for callers that fold over the path,
    e.g. running constraint minima.  Returns ``(times, end_states, end_Q)``
    with ``end_Q = None`` when sensitivities are switched off.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != model.state_dim:
        raise ValidationError("x0s must have shape (batch, state_dim)")
    _check_args(x0s, horizon, steps)
    b, n = x0s.shape
    times = np.linspace(0.0, horizon, steps + 1)
    q0 = np.broadcast_to(np.eye(n), (b, n, n)).copy() if with_sensitivity else None
    for i, x, q in _march(model, policy, x0s, q0, horizon, steps):
        if observer is not None:
            observer(i, times[i], x)
    return times, x, q


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
    _, ends, _ = integrate_flow_batch(model, policy, perturbed, horizon, steps,
                                      with_sensitivity=False)
    fd = np.empty((n, n))
    for j in range(n):
        fd[:, j] = (ends[2 * j] - ends[2 * j + 1]) / (2.0 * fd_step)
    scale = max(1.0, float(np.max(np.abs(fd))))
    return float(np.max(np.abs(q_end - fd)) / scale)
