"""Closed-loop backup flow integration with sensitivity propagation.

The fixed-step explicit fourth-order update is written once, as the stage
table `_STAGES` with the final combination `_NEXT`, and `_step` writes it
out as lines of plain statements (stage points, slope lines and the next
state, with no list, iterator or ``zip`` per stage), which `_compiled`
compiles.  Three functions are compiled from it:

* `rk4_step`, once per state size, on a state held as one float or array
  per component: it advances the plant in the simulation harness (a whole
  state array as a 1-tuple, its slope ``f + g u`` summed by
  `systems.affine_sum`, as the closed loop's rows are) and marches a batch
  of backup-loop states, as a tuple of contiguous ``(B,)`` arrays, on the
  policy's statement ``BackupPolicy.closed_loop`` (a `ClosedLoop`) built on
  `ARRAY_PRIMITIVES`, which reads no strided columns and builds no
  ``(B, n, m)`` input matrix;
* the float march (`_march`), once per statement, which steps one state
  held as Python floats with the statement's float kernel
  (`ClosedLoop.kernel`: each smoothing as its float twin's branches, with
  the parameters folded into literals) written in at each stage, so a step
  calls nothing but ``sin`` and ``cos``;
* `_q_step`, the sensitivity step.  The sensitivity obeys the variational
  equation ``Qdot = J(x) Q`` with ``J = d f_pi / d x`` and ``Q(0) = I``;
  since the state never depends on ``Q``, the loop Jacobians only ever come
  from stacked ``closed_loop.jacobian`` evaluations at recorded stage
  points, and each slope of the step is ``J_s @ p``.  The step is linear
  in ``Q``, so both flows run it once on stacked identities, which gives
  each step's transition matrix ``M_i``, and then march ``Q_{i+1} = M_i
  Q_i``, one product per step.

Both marches give the bits of a march on stacked `loop_rhs` calls, and
both record the four stage points of every step.  One pass serves every
downstream constraint row.  The sensitivities are those of the product
form: they differ from a march that steps ``Q`` with the state in the
last bits, within a rounding bound the tests derive, and the batch's end
``Q`` equals the single-state flow's in bytes.

Everything here is pure and reentrant, and reads the model only for its
state count.  `integrate_flow` takes the Jacobians along the whole path
from one stacked call, builds every step's ``M_i`` from them at once, and
takes the drifts at the nodes from the statement built on
`ARRAY_PRIMITIVES`.  The batch entry point advances many initial states at
once with no shared mutable state, which is what the grid sweeps build on;
it takes the Jacobians of each step's four stage points from one stacked
call, so its memory does not grow with the step count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FlowDivergenceError, ValidationError
from .systems import (ARRAY_PRIMITIVES, BackupPolicy, ClosedLoop, SystemModel,
                      is_finite_real, is_integer)

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


def _check_args(x0: Array, horizon: float, steps: int, n: int,
                batch: bool = False) -> Array:
    """``x0`` as a finite float array of shape ``(n,)``, or ``(B, n)`` for a
    ``batch``, or `ValidationError`; so is a ``horizon`` that is not a
    finite number > 0 or ``steps`` that is not an integer >= 1 (a bool is
    neither)."""
    if not (is_finite_real(horizon) and horizon > 0.0):
        raise ValidationError(f"horizon must be a finite number > 0, got "
                              f"{horizon!r}")
    if not (is_integer(steps) and steps >= 1):
        raise ValidationError(f"steps must be an integer >= 1, got {steps!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[batch:] != (n,):
        what, want = ("states", f"(batch, {n})") if batch else ("state", (n,))
        raise ValidationError(f"initial {what} must have shape {want}, got "
                              f"{x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValidationError("initial state must be finite")
    return x0


# One explicit fourth-order step of the state ``x``, stage by stage: the
# slope, the point it is taken at, and the next stage point, ``x + slope *
# scale`` (the last slope makes none); then the next state.  ``2 k`` is
# written ``k + k`` and each product has the slope on the left, both
# exact, so the bits are those of ``x + sixth * (k1 + 2 k2 + 2 k3 + k4)``.
_STAGES = (("a", "x", "p", "half"), ("b", "p", "r", "half"),
           ("c", "r", "s", "dt"), ("d", "s", "", ""))
_NEXT = "x{i} + (((a{i} + (b{i} + b{i})) + (c{i} + c{i})) + d{i}) * sixth"


def _listed(name: str, parts) -> str:
    """``name`` once per component ``i`` in ``parts``, as ``"x0, x1, "``
    for ``"x{i}"`` (a tuple even for one component)."""
    return "".join(name.format(i=i) + ", " for i in parts)


def _step(parts, slope: Callable[[str, str], list[str]]) -> list[str]:
    """The lines of one step on the state held as ``x{i}`` for each ``i`` in
    ``parts``: at each stage ``slope(k, p)``, the lines that set the slope
    ``k`` at the point ``p`` (held the same way), then the next point."""
    lines = []
    for k, p, point, scale in _STAGES:
        lines += slope(k, p)
        if point:
            lines += [f"{point}{i} = x{i} + {k}{i} * {scale}" for i in parts]
    return lines


def _compiled(name: str, lines: list[str]) -> Callable:
    """The function ``name`` that ``lines``, a ``def`` line and its body,
    define, compiled as `dataclasses` builds ``__init__``."""
    # ``inf``: a band edge folded into a kernel may overflow to it
    namespace = {"isfinite": math.isfinite, "inf": math.inf,
                 "sin": math.sin, "cos": math.cos,
                 "matmul": np.matmul}
    exec("\n    ".join(lines) + "\n", namespace)
    return namespace[name]


@functools.cache
def _rk4(n: int) -> Callable:
    """`rk4_step` for a state of ``n`` components, compiled once per ``n``:
    stage points, ``deriv`` calls and the final combination are plain
    statements, with no list, iterator or ``zip`` per stage."""
    parts = range(n)
    x, p, r, s = (_listed(v + "{i}", parts) for v in "xprs")
    return _compiled("rk4_step", [
        "def rk4_step(deriv, x, dt):", f"{x} = x", "half = 0.5 * dt",
        *_step(parts, lambda k, at: [f"{_listed(k + '{i}', parts)} = "
                                     f"deriv({_listed(at + '{i}', parts)})"]),
        "sixth = dt / 6.0",
        f"return ({_listed(_NEXT, parts)}), (({x}), ({p}), ({r}), ({s}))"])


@functools.cache
def _march(loop: ClosedLoop) -> Callable:
    """``march(x, dt, steps)``: the float march on ``loop``, compiled once
    per statement, with its float kernel (`ClosedLoop.kernel`) written in
    at each stage, so a step calls nothing but ``sin`` and ``cos``.

    It runs its steps on one state held as a tuple of floats and returns
    the flat float list of points, appending each step's with one ``+=``:
    point ``4 (i - 1) + s`` is stage ``s`` of step ``i``, and the last is
    the last state.  It stops after the first step that leaves finite
    values, tested per component (a sum of two finite values near the float
    limit overflows)."""
    parts = range(len(loop.rows))
    x, p, r, s = (_listed(v + "{i}", parts) for v in "xprs")
    return _compiled("march", [
        "def march(x, dt, steps):", f"{x} = x", "half = 0.5 * dt",
        "sixth = dt / 6.0", "points = []", "for _ in range(steps):",
        *("    " + line for line in _step(parts, loop.kernel)),
        f"    points += ({x}{p}{r}{s})",
        *(f"    x{i} = {_NEXT.format(i=i)}" for i in parts),
        *(f"    if not isfinite(x{i}): break" for i in parts),
        f"points += ({x})", "return points"])


def rk4_step(deriv: Callable[..., tuple], x: tuple, dt: float):
    """One explicit fourth-order step of ``xdot = deriv(*x)`` from a state
    held as one float or array per component (a whole array ``a`` is the
    1-tuple ``(a,)``): the next state and the four stage points ``deriv``
    was taken at."""
    return _rk4(len(x))(deriv, x, dt)


# ``_q_step(jacs, q, dt)``: one step of the variational equation ``Qdot =
# J Q`` from the loop Jacobians at the step's four stage points, in stage
# order, with the state ``Q`` held whole and the slope at stage ``s``
# ``J_s @ p``, multiplied by `np.matmul`.  Both flows apply it to a stack of
# identities, so it gives each step's transition matrix ``M_i`` (``Q_{i+1}
# = M_i Q_i`` in exact arithmetic, as the step is linear in ``Q``): the
# single-state flow on the ``(N, n, n)`` stage Jacobians of the whole path
# at once, the batch flow on each step's ``(B, n, n)`` stacks.  Each stage
# point but ``x`` is dropped once its slope is taken, so a step holds no
# more arrays than the four slopes.
_q_step = _compiled("_q_step", [
    "def _q_step(jacs, q, dt):", "ja, jb, jc, jd = jacs", "x = q",
    "half = 0.5 * dt",
    *_step([""], lambda k, at: [f"{k} = matmul(j{k}, {at})"]
           + [f"del {at}"] * (at != "x")),
    "sixth = dt / 6.0", f"return {_NEXT.format(i='')}"])


def _identities(count: int, n: int) -> Array:
    """``count`` ``(n, n)`` identities as one read-only ``(count, n, n)``
    view of a single one."""
    return np.broadcast_to(np.eye(n), (count, n, n))


def _closed_loop(model: SystemModel, policy: BackupPolicy) -> ClosedLoop:
    """``policy.closed_loop``, or `ValidationError` for one whose rows are
    not one per state component of ``model``."""
    loop = policy.closed_loop
    if len(loop.rows) != model.state_dim:
        raise ValidationError(f"policy.closed_loop returns {len(loop.rows)} "
                              f"components, expected {model.state_dim}")
    return loop


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
    along the recorded stage points: every step's transition matrix
    ``M_i`` from one `_q_step` on the ``(N, n, n)`` stage Jacobians and
    stacked identities, then ``Q_{i+1} = M_i Q_i`` by `ndarray.dot`, which
    reaches the same BLAS kernel as the batch's `np.matmul` at about half
    its call cost.  The drifts are the closed loop at the nodes
    (`ClosedLoop.at`)."""
    x0 = _check_args(x0, horizon, steps, model.state_dim)
    n = x0.shape[0]
    dt = horizon / steps
    loop = _closed_loop(model, policy)
    with np.errstate(over="ignore", invalid="ignore"):
        points = np.array(_march(loop)(tuple(x0.tolist()), dt, steps)
                          ).reshape(-1, n)
        states = points[::4].copy()
        drifts = loop.at(states)
        # stage s of every step as one (N, n) stack, then their Jacobians
        stages = points[:-1].reshape(-1, 4, n).swapaxes(0, 1)
        trans = _q_step(loop.jacobian(stages), _identities(len(states) - 1, n),
                        dt)
        sens = np.empty((len(states), n, n))
        sens[0] = q = np.eye(n)
        for m, node in zip(trans, sens[1:]):
            q = m.dot(q, out=node)
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
    grid point, ``x0s`` included, with the ``(B, n)`` states, for callers
    that fold over the path, e.g. running constraint minima.  Returns
    ``(end_states, end_Q)`` with ``end_Q = None`` when sensitivities are
    switched off.

    The states march as one contiguous ``(B,)`` array per component
    through `rk4_step` on ``closed_loop`` built on `ARRAY_PRIMITIVES`.  The
    sensitivity is stepped as the states go: after each step, the loop
    Jacobians at its four stage points come from one stacked evaluation,
    `_q_step` on them and stacked identities gives the step's ``(B, n, n)``
    transition matrices, and ``Q`` is multiplied by them with `np.matmul`,
    as `integrate_flow` steps one state, so the end ``Q`` is its last
    sensitivity in bytes.  Memory does not grow with ``steps``.
    """
    x0s = _check_args(x0s, horizon, steps, model.state_dim, batch=True)
    b, n = x0s.shape
    dt = horizon / steps
    eye = _identities(b, n)
    q = eye if with_sensitivity else None
    if observer is not None:
        observer(x0s)
    loop = _closed_loop(model, policy)
    deriv = loop.build(ARRAY_PRIMITIVES)
    x = tuple(x0s.T.copy())
    for i in range(1, steps + 1):
        # divergence is detected after the step; silence transient overflow
        with np.errstate(over="ignore", invalid="ignore"):
            x, stages = rk4_step(deriv, x, dt)
            if q is not None:
                points = np.stack([np.stack(p, axis=-1) for p in stages])
                q = np.matmul(_q_step(loop.jacobian(points), eye, dt), q)
            del stages              # not held while the next step runs
        if not (all(np.isfinite(a).all() for a in x)
                and (q is None or np.isfinite(q).all())):
            raise _divergence(i, i * dt, np.stack(x, axis=-1), q)
        if observer is not None:
            observer(np.stack(x, axis=-1))
    return np.stack(x, axis=-1), q


def sensitivity_fd_check(model: SystemModel, policy: BackupPolicy, x0: Array,
                         horizon: float, steps: int, fd_step: float) -> float:
    """Compare the propagated sensitivity against central differences of the
    flow endpoint.

    Returns the largest entrywise deviation scaled by
    ``max(1, max |finite-difference Jacobian|)``.
    """
    if not (is_finite_real(fd_step) and fd_step > 0.0):
        raise ValidationError(f"fd_step must be a finite number > 0, got "
                              f"{fd_step!r}")
    x0 = _check_args(x0, horizon, steps, model.state_dim)
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
