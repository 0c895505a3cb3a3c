"""Closed-loop backup flow integration with sensitivity propagation.

`rk4_step` is the fixed-step explicit fourth-order update, on a state held
as one float or array per component: it advances the plant in the
simulation harness (a whole state array as a 1-tuple) and marches the
backup-loop state on the closed-loop kernel `_kernel` builds from the
policy's statement ``BackupPolicy.closed_loop`` (`loop_rhs` split into
components, for a policy without one): one state as a tuple of Python
floats (`FLOAT_PRIMITIVES`), where numpy's per-call overhead on 2- and
3-vectors would be most of the cost, and a batch as a tuple of contiguous
``(B,)`` arrays (`ARRAY_PRIMITIVES`), which reads no strided columns and
builds no ``(B, n, m)`` input matrix.  Both give the bits of a march on
stacked `loop_rhs` calls, faster, and both record the four stage points
of every step.  The step is written once, as a template (`_RK4_TEMPLATE`)
that `_rk4` writes out per state component and compiles once per state
size: stage points, kernel calls and the final combination are plain
statements, with no list, iterator or `zip` per stage, and the float
march is the same template with the step inlined in its loop, appending
each step's points and slopes with one ``+=`` each.  For a policy whose
``closed_loop`` was generated from a benchmark statement, the float march
also has that statement's closed loop inlined at its four stages
(`float_kernel`: each smoothing as its float twin's branches, with the
parameters folded into literals), compiled once per statement, so a step
calls nothing but ``sin`` and ``cos``; a ``closed_loop`` that is replaced,
hand-written or absent is called as before.  The sensitivity
obeys the variational equation ``Qdot = J(x) Q`` with ``J = d f_pi / d x``
and ``Q(0) = I``; since the state never depends on ``Q``, the loop
Jacobians only ever come from stacked `loop_jacobian` evaluations at
recorded stage points, and ``Q`` is stepped over them by `_q_step`, the
step's operation order written out for ``deriv(p) = J_s @ p``.  For one
state it multiplies by `ndarray.dot`, which reaches the same BLAS kernel
as `np.matmul` (so the batch's ``(B, n, n)`` matmul gives the single-state
``Q`` bit for bit) at about half the call cost on a 3x3 product.  One
pass serves every downstream constraint row.

Everything here is pure and reentrant.  `integrate_flow` takes the
Jacobians along the whole path from one stacked call, and the drifts at
the nodes, which check the float march at every node, from another.  The
batch entry point advances many initial states at once with no shared
mutable state, which is what the grid sweeps build on; it takes the
Jacobians of each step's four stage points from one stacked call, so its
memory does not grow with the step count, and checks the kernel against a
stacked `loop_rhs` at every row of its first and last step and at the
start of every step on a fixed handful of rows.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FlowDivergenceError, ValidationError
from .systems import (ARRAY_PRIMITIVES, FLOAT_PRIMITIVES, BackupPolicy,
                      SystemModel, float_kernel, is_finite_real, is_integer,
                      loop_jacobian, loop_rhs)

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


# One explicit fourth-order step of ``x0 .. x{n-1}`` under ``deriv``: stage
# slopes ``a b c d``, stage points ``p r s`` and the next state ``{next}``.
# ``2 k`` is written ``k + k`` and each product has the slope on the left,
# both exact, so the bits are those of ``x + sixth * (k1 + 2 k2 + 2 k3 + k4)``.
_RK4_STEP = """\
{a} = deriv({x})
p{i} = x{i} + a{i} * half
{b} = deriv({p})
r{i} = x{i} + b{i} * half
{c} = deriv({r})
s{i} = x{i} + c{i} * dt
{d} = deriv({s})"""
_RK4_NEXT = "x{i} + (((a{i} + (b{i} + b{i})) + (c{i} + c{i})) + d{i}) * sixth"
_DERIV = re.compile(r"\{(\w)\} = deriv\(\{(\w)\}\)")
_STATE = re.compile(r"\bx(?=\d)")      # a kernel's state ``x0``, ``x1``, ...

# `rk4_step`, and the float march with the step inlined in its loop (see
# `_rk4`); ``{step}`` is `_RK4_STEP`.
_RK4_TEMPLATE = """\
def rk4_step(deriv, x, dt):
    {x} = x
    half = 0.5 * dt
    {step}
    sixth = dt / 6.0
    return ({next}), (({x}), ({p}), ({r}), ({s})), (({a}), ({b}), ({c}), ({d}))

def march(deriv, x, dt, steps):
    {x} = x
    half = 0.5 * dt
    sixth = dt / 6.0
    points = []
    slopes = []
    for _ in range(steps):
        {step}
        points += ({x}{p}{r}{s})
        slopes += ({a})
        x{i} = {next}
        if not isfinite(x{i}): break
    points += ({x})
    return points, slopes"""


def _rk4_source(template: str, n: int, kernel: tuple | None = None) -> str:
    """``template`` written out for ``n`` state components: a line with
    ``{i}`` once per component ``i`` (``{next}`` is then that component's
    next value), any other line once, with ``{v}`` for ``"v0, v1, "`` (a
    tuple even for ``n = 1``); a ``{step}`` line is `_RK4_STEP`.  Given a
    ``kernel`` ``(lines, rows)`` on ``x0, x1, ...`` (`float_kernel`), a
    line ``{k} = deriv({v})`` is its lines on ``v0, v1, ...`` and then
    ``k{i} = rows[i]``."""
    names = {v: "".join(f"{v}{i}, " for i in range(n)) for v in "xabcdprs"}
    names["next"] = "".join(_RK4_NEXT.format(i=i) + ", " for i in range(n))
    lines = []
    for line in template.splitlines():
        indent = line[:len(line) - len(line.lstrip())]
        call = _DERIV.fullmatch(line.strip())
        if line.strip() == "{step}":
            lines += [indent + row for row in
                      _rk4_source(_RK4_STEP, n, kernel).splitlines()]
        elif kernel is not None and call:
            slope, point = call.groups()
            body, rows = ([_STATE.sub(point, row) for row in part]
                          for part in kernel)
            lines += [indent + row for row in body]
            lines += [f"{indent}{slope}{i} = {row}" for i, row in enumerate(rows)]
        elif "{i}" in line:
            lines += [line.format(i=i, next=_RK4_NEXT.format(i=i))
                      for i in range(n)]
        else:
            lines.append(line.format(**names))
    return "\n".join(lines) + "\n"


@functools.cache
def _rk4(n: int, kernel: tuple | None = None) -> tuple[Callable, Callable]:
    """``(step, march)`` for a state of ``n`` components, compiled from
    `_RK4_TEMPLATE` once per ``n`` and ``kernel`` (as `dataclasses` builds
    ``__init__``), with each ``deriv`` call written out as ``kernel``'s
    lines if one is given (see `_rk4_source`; ``deriv`` is then unused).

    ``step(deriv, x, dt)`` is `rk4_step`.  ``march(deriv, x, dt, steps)``
    runs its steps on one state held as a tuple of floats and returns flat
    float lists ``(points, slopes)``: point ``4 (i - 1) + s`` is stage ``s``
    of step ``i``, the last is the last state, and slope ``i - 1`` is
    ``deriv`` at the start of step ``i``.  It stops after the first step
    that leaves finite values, tested per component (a sum of two finite
    values near the float limit overflows)."""
    # ``inf``: a band edge folded into a kernel may overflow to it
    namespace = {"isfinite": math.isfinite, "inf": math.inf,
                 **FLOAT_PRIMITIVES._asdict()}
    exec(_rk4_source(_RK4_TEMPLATE, n, kernel), namespace)
    return namespace["rk4_step"], namespace["march"]


def _float_march(policy: BackupPolicy, n: int) -> Callable:
    """`_rk4`'s march for one state of ``n`` components: with the kernel of
    the policy's ``closed_loop`` written in, where it is a generated one of
    ``n`` components, else calling ``deriv``."""
    kernel = float_kernel(policy.closed_loop)
    if kernel is not None and len(kernel[1]) == n:
        return _rk4(n, kernel)[1]
    return _rk4(n)[1]


def rk4_step(deriv: Callable[..., tuple], x: tuple, dt: float):
    """One explicit fourth-order step of ``xdot = deriv(*x)`` from a state
    held as one float or array per component (a whole array ``a`` is the
    1-tuple ``(a,)``): the next state, the four stage points and the four
    slopes ``deriv`` gave at them."""
    return _rk4(len(x))[0](deriv, x, dt)


def _q_step(jacs, q: Array, dt: float) -> Array:
    """One step of the variational equation ``Qdot = J Q`` from the loop
    Jacobians at the step's four stage points, in stage order: `rk4_step`
    with ``deriv(p) = J_s @ p`` at stage ``s``, in its exact operation order,
    written out so a step makes no closure, iterator or stage tuple.  For
    one state ``jacs`` holds four ``(n, n)`` matrices, multiplied by
    `ndarray.dot`, which reaches the same BLAS kernel as `np.matmul` at
    half its call cost; for a batch, four ``(B, n, n)`` stacks, multiplied
    by `np.matmul`."""
    j1, j2, j3, j4 = jacs
    mul = np.ndarray.dot if q.ndim == 2 else np.matmul
    half = 0.5 * dt
    k1 = mul(j1, q)
    k2 = mul(j2, q + k1 * half)
    k3 = mul(j3, q + k2 * half)
    k4 = mul(j4, q + k3 * dt)
    return q + (((k1 + (k2 + k2)) + (k3 + k3)) + k4) * (dt / 6.0)


def _kernel(model: SystemModel, policy: BackupPolicy, table):
    """The closed-loop derivative on one float or array per state
    component: ``policy.closed_loop`` built on the primitive ``table``, or
    for a policy without one, stacked `loop_rhs` split into components
    (``np.float64`` scalars for one state, which carry the same bits as
    floats)."""
    if policy.closed_loop is not None:
        return policy.closed_loop(table)
    return lambda *x: tuple(loop_rhs(model, policy, np.stack(x, axis=-1)).T)


def _march(march: Callable, loop: Callable, x: tuple, *args):
    """``march(loop, x, *args)``; after a `ValueError` from it, which the
    compiled step raises for a ``loop`` of the wrong arity, one call of
    ``loop`` at ``x`` names a wrong count with `ValidationError`."""
    try:
        return march(loop, x, *args)
    except ValueError as exc:
        got = len(loop(*x))
        if got != len(x):
            raise ValidationError(f"policy.closed_loop returns {got} "
                                  f"components, expected {len(x)}") from exc
        raise


def _check_slopes(slopes: Array, drifts: Array, where: Callable[..., str]):
    """`ValidationError` unless the march's ``slopes`` from the policy's
    ``closed_loop`` equal the model's ``drifts`` at the same points,
    entrywise with NaN equal to NaN; ``where(*index)`` names the first
    mismatch."""
    bad = (slopes != drifts) & ~(np.isnan(slopes) & np.isnan(drifts))
    if bad.any():
        index = tuple(np.argwhere(bad)[0].tolist())
        raise ValidationError(
            f"policy.closed_loop encodes another model than loop_rhs: at "
            f"{where(*index)}: {slopes[index].item()!r} != "
            f"{drifts[index].item()!r}")


def _check_step(model: SystemModel, policy: BackupPolicy, step: int,
                stages, slopes):
    """`_check_slopes` of a batch step's slopes from the policy's
    ``closed_loop`` at every row of its four stages, stage by stage so the
    check's memory is one stage's."""
    for s, (point, slope) in enumerate(zip(stages, slopes), 1):
        _check_slopes(np.stack(slope, axis=-1),
                      loop_rhs(model, policy, np.stack(point, axis=-1)),
                      lambda row, k: f"step {step}, stage {s}, batch row "
                                     f"{row}, component {k}")


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
    ``policy.closed_loop`` set, the march's slope at every node but the last
    must equal that node's drift (NaN equal to NaN), else `ValidationError`
    naming the node: a policy paired with a changed model is refused."""
    x0 = _check_args(x0, horizon, steps, model.state_dim)
    n = x0.shape[0]
    dt = horizon / steps
    loop = _kernel(model, policy, FLOAT_PRIMITIVES)
    with np.errstate(over="ignore", invalid="ignore"):
        points, slopes = _march(_float_march(policy, n), loop,
                                tuple(x0.tolist()), dt, steps)
        points = np.array(points).reshape(-1, n)
        states = points[::4].copy()
        drifts = loop_rhs(model, policy, states)
        if policy.closed_loop is not None:
            _check_slopes(np.array(slopes).reshape(-1, n), drifts[:-1],
                          lambda node, k: f"node {node}, component {k}")
        jacs = iter(loop_jacobian(model, policy, points[:-1]))
        sens = np.empty((len(states), n, n))
        sens[0] = q = np.eye(n)
        # zip over one iterator: each step's four stage Jacobians in turn
        for i, step_jacs in enumerate(zip(jacs, jacs, jacs, jacs), 1):
            sens[i] = q = _q_step(step_jacs, q, dt)
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
    through `rk4_step` on the `_kernel` built on `ARRAY_PRIMITIVES`.
    With ``closed_loop`` set, its slopes must equal the stacked `loop_rhs`
    of ``model`` (NaN equal to NaN) at every stage of every row of the
    first and the last step, and at the start of every other step on row 0
    and every ``ceil(B / 9)``-th row after it (these are checked together
    at the last step), else `ValidationError` naming the first mismatching
    step, stage, row and component.  A model changed after the policy was
    built, only where no checked point goes, is integrated as the policy
    states it, without an error.  The sensitivity is stepped as the states
    go: after each step, the loop Jacobians at its four stage points come
    from one stacked evaluation, so memory does not grow with ``steps``.
    """
    x0s = _check_args(x0s, horizon, steps, model.state_dim, batch=True)
    b, n = x0s.shape
    dt = horizon / steps
    q = np.broadcast_to(np.eye(n), (b, n, n)).copy() if with_sensitivity else None
    if observer is not None:
        observer(x0s)
    loop = _kernel(model, policy, ARRAY_PRIMITIVES)
    stride = -(-b // 9) or 1             # row 0 and at most eight more
    # the handful's states and slopes at the start of every step, checked
    # in one model call at the last step: a call per step on so few rows
    # cost as much as a whole step of a small batch
    starts = np.empty((2, steps, len(range(0, b, stride)), n))
    x = tuple(x0s.T.copy())
    for i in range(1, steps + 1):
        # divergence is detected after the step; silence transient overflow
        with np.errstate(over="ignore", invalid="ignore"):
            x, stages, slopes = _march(rk4_step, loop, x, dt)
            if policy.closed_loop is not None:
                for k in range(n):
                    starts[0, i - 1, :, k] = stages[0][k][::stride]
                    starts[1, i - 1, :, k] = slopes[0][k][::stride]
                if i == 1:
                    _check_step(model, policy, i, stages, slopes)
                if i == steps:
                    _check_slopes(
                        starts[1], loop_rhs(model, policy, starts[0]),
                        lambda step, row, k: f"step {step + 1}, stage 1, "
                        f"batch row {row * stride}, component {k}")
                    _check_step(model, policy, i, stages, slopes)
            if q is not None:
                points = np.stack([np.stack(p, axis=-1) for p in stages])
                q = _q_step(loop_jacobian(model, policy, points), q, dt)
            del stages, slopes      # not held while the next step runs
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
