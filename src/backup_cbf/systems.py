"""Benchmark dynamics, backup policies, and safety specifications.

All quantities are SI (m, m/s, m/s^2, rad, rad/s).  Every evaluator is a
pure function with one array body that accepts states of shape ``(n,)`` or
batched ``(..., n)``, broadcasting over the leading axes.  Each built-in
policy also carries its closed-loop derivative, stated once in
`loop_rhs`'s operation order against a table of primitives
(``BackupPolicy.closed_loop``): the single-state flow builds it on
`FLOAT_PRIMITIVES` and the batch flow on `ARRAY_PRIMITIVES`.  Each
statement computes each zero product of ``g pi`` once and drops the exact
identities (``1.0 * x`` is ``x``; ``0.0 + w`` is ``w`` wherever ``w``
cannot be ``-0.0``), so it keeps `loop_rhs`'s bits, signed zeros and NaNs
included, with fewer operations.  The float twins of the smoothings clamp
by comparisons, which return what ``min(max(y, lo), hi)`` returns for
every float (NaN and signed zeros included) without two builtin calls.
Benchmark parameters must be finite numbers.  Values are immutable after
construction and safe to share across threads.

Four benchmark instances are provided:

``toy1d``
    Scalar plant ``xdot = u`` with linear feedback backup ``u = -k x``
    saturated to the input box.  Closed forms for everything; used as the
    analytic anchor throughout the test suite.

``double_integrator``
    Position/velocity chain ``sdot = v, vdot = u`` with a brake-to-rest
    backup.  Its induced invariant set has the well-known closed form
    ``c_limit - s - 1{v>0} v^2 / (2 u_max)`` which `di_closed_form_h`
    exposes as an oracle.

``dubins``
    Lane keeping for a Dubins-style car ``(Y, v, psi)`` with saturated
    speed-hold plus LQR steering backup.  Two gain profiles are bundled:
    ``conservative`` (hold cruise speed) and ``aggressive`` (brake to a
    stop), the latter inducing a much larger invariant set.

``aeroplane``
    Planar collision avoidance in relative coordinates
    ``(dx, dy, dpsi)`` against an opponent flying a fixed heading; the
    backup turns away from the opponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import EvaluationError, ValidationError

Array = np.ndarray


# ---------------------------------------------------------------------------
# C1 smoothings of switching nonlinearities.
#
# Each smoothing is *exact* away from the switching surface so closed-form
# trajectories remain valid there; only a band of width `eps` is blended.
# `eps = 0` selects the hard (discontinuous-derivative) variant, kept for
# cross-checks only: its derivative is zero in saturated regions.  Each
# value has a Python-float twin (`_indicator_float`, `_sign_float`,
# `_saturate_float`) with the same branch tests; the pairs, with `math`'s
# and numpy's `sin` and `cos`, make the two primitive tables the
# benchmarks' closed-loop statements are built from.
# ---------------------------------------------------------------------------


def smooth_positive_indicator(v: Array | float, eps: float) -> Array:
    """~= 1{v > 0}; exactly 1 for v >= 0 and 0 for v <= -eps.

    The blend band sits *below* the surface so the indicator engages
    slightly early - the conservative side for a braking policy.
    """
    v = np.asarray(v, dtype=float)
    if eps == 0.0:
        return (v > 0.0).astype(float)
    t = np.clip((v + eps) / eps, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _indicator_float(v: float, eps: float) -> float:
    if eps == 0.0:
        return 1.0 if v > 0.0 else 0.0
    t = (v + eps) / eps
    if 0.0 > t:
        t = 0.0
    if t > 1.0:
        return 1.0
    return t * t * (3.0 - 2.0 * t)


def smooth_positive_indicator_deriv(v: Array | float, eps: float) -> Array:
    v = np.asarray(v, dtype=float)
    if eps == 0.0:
        return np.zeros_like(v)
    t = np.clip((v + eps) / eps, 0.0, 1.0)
    return 6.0 * t * (1.0 - t) / eps


def smooth_sign(y: Array | float, eps: float) -> Array:
    """~= sign(y); exact +-1 for |y| >= eps, odd C1 blend through 0."""
    y = np.asarray(y, dtype=float)
    if eps == 0.0:
        return np.sign(y)
    q = np.clip(y / eps, -1.0, 1.0)
    return q * (2.0 - np.abs(q))


def _sign_float(y: float, eps: float) -> float:
    if eps == 0.0:
        return 0.0 if y == 0.0 else (1.0 if y > 0.0 else -1.0)
    q = y / eps
    if -1.0 > q:
        return -1.0
    if q > 1.0:
        return 1.0
    return q * (2.0 - abs(q))


def smooth_sign_deriv(y: Array | float, eps: float) -> Array:
    y = np.asarray(y, dtype=float)
    if eps == 0.0:
        return np.zeros_like(y)
    q = y / eps
    inside = np.abs(q) < 1.0
    return np.where(inside, 2.0 * (1.0 - np.abs(q)) / eps, 0.0)


def _check_blend(lo: float, hi: float, eps: float):
    if eps > 0.0 and hi - lo <= 4.0 * eps:
        raise ValidationError("saturation blend width exceeds the box size")


def smooth_saturate(y: Array | float, lo: float, hi: float, eps: float) -> Array:
    """Saturation to [lo, hi]; identity on the interior, quadratic C1 blend
    on bands of half-width eps around each bound.

    The blend is evaluated only on the elements inside a band, which in a
    batch are usually few; each gets the same expression either way."""
    _check_blend(lo, hi, eps)
    y = np.asarray(y, dtype=float)
    if eps == 0.0:
        return np.clip(y, lo, hi)
    out = np.clip(y, lo, hi)
    if out.ndim == 0:           # np.clip of a 0-d array is a read-only scalar
        out = np.array(out)
    band = (y > hi - eps) & (y < hi + eps)
    yb = y[band]
    out[band] = yb - (yb - (hi - eps)) ** 2 / (4.0 * eps)
    band = (y > lo - eps) & (y < lo + eps)
    yb = y[band]
    out[band] = yb + ((lo + eps) - yb) ** 2 / (4.0 * eps)
    return out


def _saturate_float(y: float, lo: float, hi: float, eps: float) -> float:
    """`smooth_saturate` on one float; the caller checks the blend width."""
    if eps > 0.0:
        if hi - eps < y < hi + eps:
            d = y - (hi - eps)
            return y - d * d / (4.0 * eps)
        if lo - eps < y < lo + eps:
            d = (lo + eps) - y
            return y + d * d / (4.0 * eps)
    if lo > y:
        y = lo
    if y > hi:
        return hi
    return y


def smooth_saturate_deriv(y: Array | float, lo: float, hi: float, eps: float) -> Array:
    _check_blend(lo, hi, eps)
    y = np.asarray(y, dtype=float)
    if eps == 0.0:
        return ((y > lo) & (y < hi)).astype(float)
    # band-only, as in `smooth_saturate`
    d = np.array((y > lo - eps) & (y < hi + eps), dtype=float)
    band = (y > hi - eps) & (y < hi + eps)
    d[band] = 1.0 - (y[band] - (hi - eps)) / (2.0 * eps)
    band = (y > lo - eps) & (y < lo + eps)
    d[band] = 1.0 - ((lo + eps) - y[band]) / (2.0 * eps)
    return d


class Primitives(NamedTuple):
    """The nonlinear primitives a closed-loop statement is written
    against; `FLOAT_PRIMITIVES` and `ARRAY_PRIMITIVES` give each entry the
    same bits on the same input."""

    sin: Callable
    cos: Callable
    saturate: Callable
    sign: Callable
    indicator: Callable


FLOAT_PRIMITIVES = Primitives(math.sin, math.cos, _saturate_float,
                              _sign_float, _indicator_float)
ARRAY_PRIMITIVES = Primitives(np.sin, np.cos, smooth_saturate, smooth_sign,
                              smooth_positive_indicator)


# ---------------------------------------------------------------------------
# Domain types.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemModel:
    """Control-affine plant ``xdot = f(x) + g(x) u`` with a box input set.

    ``df_dx(x)`` has shape ``(..., n, n)``; ``dg_dx(x)`` has shape
    ``(..., n, m, n)`` with entry ``[i, j, k] = d g[i, j] / d x[k]``.
    ``dg_dx = None`` declares the input matrix state-independent.  The
    benchmarks' constant terms and constraint gradients come from
    `_constant`: fresh zeros with the nonzero entries assigned.
    """

    state_dim: int
    input_dim: int
    f_eval: Callable[[Array], Array]
    g_eval: Callable[[Array], Array]
    df_dx: Callable[[Array], Array]
    dg_dx: Callable[[Array], Array] | None
    input_lower: Array
    input_upper: Array
    state_names: tuple[str, ...] = ()
    input_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.state_dim < 1 or self.input_dim < 1:
            raise ValidationError("state_dim and input_dim must be positive")
        lo = np.asarray(self.input_lower, dtype=float)
        hi = np.asarray(self.input_upper, dtype=float)
        if lo.shape != (self.input_dim,) or hi.shape != (self.input_dim,):
            raise ValidationError("input bounds must have shape (input_dim,)")
        if not np.all(lo < hi):
            raise ValidationError("input_lower must be < input_upper componentwise")
        object.__setattr__(self, "input_lower", lo)
        object.__setattr__(self, "input_upper", hi)
        if not self.state_names:
            object.__setattr__(self, "state_names",
                               tuple(f"x{i}" for i in range(self.state_dim)))
        if not self.input_names:
            object.__setattr__(self, "input_names",
                               tuple(f"u{j}" for j in range(self.input_dim)))


@dataclass(frozen=True)
class BackupPolicy:
    """Feedback law ``u = pi(x)`` with its state Jacobian.

    ``smoothing_eps`` is the width of the C1 blends inside the policy;
    ``0.0`` marks the hard (test-only) variant whose Jacobian is zero in
    saturated regions.

    ``closed_loop(p)``, if given, states the closed-loop derivative
    ``f(x) + g(x) pi(x)`` of the model built alongside this policy against
    the primitive table ``p`` and returns it as ``rhs(*x)``, taking one
    value per state component and returning a tuple.  Built on
    `FLOAT_PRIMITIVES`, ``rhs`` takes one state as Python floats; built on
    `ARRAY_PRIMITIVES`, a batch as one ``(B,)`` array per component.  Each
    build must equal `loop_rhs` bit for bit, so it sums ``g pi`` as
    `loop_rhs` does: per row ``f_i + (((0.0 + g_i0 pi_0) + g_i1 pi_1) +
    ...)``, each product rounded (for a dense ``g`` with two or more inputs
    that is not always the bits of ``np.matmul``, which may fuse
    multiply-adds).  It may share a product between rows and drop an
    operation that is an exact identity on every input.

    The flows march on it and check it against the stacked `loop_rhs` of
    the model they are given.  The single-state flow checks its slope at
    every node.  The batch flow checks every stage of every row of its
    first and last step, and the slope at the start of every other step on
    a fixed handful of rows (row 0 and at most eight more, evenly
    strided): checking every stage of every row at every step made the
    grid sweeps three to six times as long.  So a model changed after this
    policy was built, only where no checked point of the batch goes, is
    integrated as this statement has it, without an error.
    """

    pi_eval: Callable[[Array], Array]
    dpi_dx: Callable[[Array], Array]
    smoothing_eps: float
    closed_loop: Callable[[Primitives], Callable[..., tuple]] | None = None

    def __post_init__(self):
        if self.smoothing_eps < 0.0:
            raise ValidationError("smoothing_eps must be >= 0")


@dataclass(frozen=True)
class ScalarConstraint:
    """One scalar safety function with its gradient, ``h(x) >= 0`` is safe."""

    h_eval: Callable[[Array], Array]
    grad_eval: Callable[[Array], Array]
    name: str = ""


@dataclass(frozen=True)
class SafetySpec:
    """Path constraints, terminal function, and the linear class-K gain."""

    constraints: tuple[ScalarConstraint, ...]
    terminal: ScalarConstraint
    alpha_gain: float

    def __post_init__(self):
        if self.alpha_gain <= 0.0:
            raise ValidationError("alpha_gain must be > 0")
        if len(self.constraints) == 0:
            raise ValidationError("at least one path constraint is required")
        object.__setattr__(self, "constraints", tuple(self.constraints))


# ---------------------------------------------------------------------------
# Closed-loop evaluations.
# ---------------------------------------------------------------------------


def check_finite(value: Array, what: str) -> Array:
    """``value`` unchanged, or `EvaluationError` naming its first
    non-finite coordinate."""
    if not np.all(np.isfinite(value)):
        bad = np.argwhere(~np.isfinite(np.asarray(value)))
        coord = tuple(int(i) for i in bad[0])
        raise EvaluationError(f"{what} is not finite at coordinate {coord}")
    return value


def loop_rhs(model: SystemModel, policy: BackupPolicy, x: Array) -> Array:
    """Backup-loop derivative ``f(x) + g(x) pi(x)``, unchecked: the
    integrators test finiteness per step, `closed_loop_rhs` here.

    ``g pi`` is summed per input channel from ``+0.0``, in channel order:
    ``((0.0 + g_0 pi_0) + g_1 pi_1) + ...``, each product rounded, so a
    ``-0.0`` product sums to ``+0.0``.  Where every row of ``g`` has at most
    one nonzero entry, as on every built-in benchmark, that equals the
    stacked ``np.matmul(g, pi[..., None])`` bit for bit; for a dense ``g``
    with two or more inputs it may differ from it in the last bit, as
    numpy's matmul may fuse the multiply-adds."""
    u = policy.pi_eval(x)
    g = model.g_eval(x)
    gu = 0.0 + g[..., 0] * u[..., None, 0]
    for j in range(1, u.shape[-1]):
        gu = gu + g[..., j] * u[..., None, j]
    return model.f_eval(x) + gu


def loop_jacobian(model: SystemModel, policy: BackupPolicy, x: Array) -> Array:
    """State Jacobian of the backup loop, unchecked; evaluates neither
    ``f`` nor ``g pi``."""
    jac = model.df_dx(x)
    if model.dg_dx is not None:
        jac = jac + np.einsum("...imk,...m->...ik", model.dg_dx(x),
                              policy.pi_eval(x))
    return jac + np.matmul(model.g_eval(x), policy.dpi_dx(x))


def closed_loop_rhs(model: SystemModel, policy: BackupPolicy, x: Array) -> Array:
    """Backup-loop derivative ``f(x) + g(x) pi(x)``."""
    x = check_finite(np.asarray(x, dtype=float), "state")
    return check_finite(loop_rhs(model, policy, x), "closed-loop derivative")


def closed_loop_jacobian(model: SystemModel, policy: BackupPolicy, x: Array) -> Array:
    """State Jacobian of the backup loop:
    ``df/dx + sum_j pi_j dg_j/dx + g dpi/dx``."""
    x = check_finite(np.asarray(x, dtype=float), "state")
    return check_finite(loop_jacobian(model, policy, x), "closed-loop Jacobian")


def di_closed_form_h(x: Array, c_limit: float, u_max: float) -> Array:
    """Stopping-distance barrier for the double integrator:
    ``c_limit - s - 1{v>0} v^2 / (2 u_max)``.

    Serves as the independent oracle for the implicitly defined set.
    """
    if u_max <= 0.0:
        raise ValidationError("u_max must be > 0")
    x = np.asarray(x, dtype=float)
    s, v = x[..., 0], x[..., 1]
    return c_limit - s - (v > 0.0) * v * v / (2.0 * u_max)


# ---------------------------------------------------------------------------
# Parameter plumbing.
# ---------------------------------------------------------------------------


def _reject_unknown(params: dict, name: str):
    if params:
        raise ValidationError(f"unknown parameters for benchmark {name!r}: "
                              f"{sorted(params)}")


def is_finite_real(value) -> bool:
    """Whether ``value`` is a finite int or float (a bool is not)."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:           # an int beyond the float range
        return False


def is_integer(value) -> bool:
    """Whether ``value`` is an int (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _numbers(key: str, value) -> Array:
    """Parameter ``key`` as a float array; `ValidationError` unless every
    entry of ``value`` is a finite number."""
    entries = np.asarray(value, dtype=object)
    if entries.size == 0 or not all(map(is_finite_real, entries.flat)):
        raise ValidationError(f"parameter {key!r} must be finite numbers, "
                              f"got {value!r}")
    return entries.astype(float)


def _number(params: dict, key: str, default: float) -> float:
    """``params.pop(key, default)`` as one finite float."""
    value = _numbers(key, params.pop(key, default))
    if value.ndim != 0:
        raise ValidationError(f"parameter {key!r} must be a single number")
    return float(value)


def _smoothing_eps(params: dict, default_eps: float) -> float:
    eps = _number(params, "smoothing_eps", default_eps)
    if eps < 0.0:
        raise ValidationError("smoothing_eps must be >= 0")
    return eps


# ---------------------------------------------------------------------------
# State-independent terms, box bounds and closed-loop statements.
# ---------------------------------------------------------------------------


def _constant(value) -> Callable[[Array], Array]:
    """Evaluator of a state-independent term: for states ``(..., n)`` a
    fresh writable ``(...,) + value.shape`` array, built from zeros with
    only the nonzero entries of ``value`` assigned (zeros are ``+0.0``)."""
    value = np.asarray(value, dtype=float)
    entries = [((Ellipsis, *index), float(value[index]))
               for index in zip(*np.nonzero(value))]

    def evaluate(x):
        out = np.zeros(np.shape(x)[:-1] + value.shape)
        for index, entry in entries:
            out[index] = entry
        return out

    return evaluate


def _bound(n: int, idx: int, limit: float, sign: float, name: str
           ) -> ScalarConstraint:
    """``limit - sign * x[idx] >= 0`` on an ``n``-state, with its constant
    gradient."""
    grad = np.zeros(n)
    grad[idx] = -sign
    return ScalarConstraint(
        lambda x: limit - sign * np.asarray(x, dtype=float)[..., idx],
        _constant(grad), name=name)


# ---------------------------------------------------------------------------
# toy1d: xdot = u, backup u = sat(-k x).
# ---------------------------------------------------------------------------


def _build_toy1d(params: dict):
    u_max = _number(params, "u_max", 5.0)
    gain = _number(params, "gain_k", 1.0)
    c_level = _number(params, "c_level", 4.0)
    s_level = _number(params, "s_level", 1.0)
    alpha = _number(params, "alpha_gain_per_s", 1.0)
    eps = _smoothing_eps(params, 0.05 * u_max)
    _reject_unknown(params, "toy1d")
    if u_max <= 0.0 or gain <= 0.0:
        raise ValidationError("toy1d needs u_max > 0 and gain_k > 0")
    _check_blend(-u_max, u_max, eps)

    def pi(x):
        x = np.asarray(x, dtype=float)
        return smooth_saturate(-gain * x[..., 0], -u_max, u_max, eps)[..., None]

    def dpi(x):
        x = np.asarray(x, dtype=float)
        d = smooth_saturate_deriv(-gain * x[..., 0], -u_max, u_max, eps)
        return (-gain * d)[..., None, None]

    # f + g u as `loop_rhs` computes it: g u summed from +0.0 in input
    # order, so even the signs of zeros match; with the exact identities
    # dropped (`1.0 * x` is `x`, and `0.0 + w` is `w` wherever `w` cannot
    # be -0.0, as `0.0 + x` cannot)
    def loop(p: Primitives):
        saturate = p.saturate

        def rhs(x):
            u = saturate(-gain * x, -u_max, u_max, eps)
            return (0.0 + u,)

        return rhs

    model = SystemModel(1, 1, _constant([0.0]), _constant([[1.0]]),
                        _constant([[0.0]]), None,
                        np.array([-u_max]), np.array([u_max]),
                        state_names=("x",), input_names=("u",))
    policy = BackupPolicy(pi, dpi, eps, loop)

    def level(c: float, name: str) -> ScalarConstraint:
        return ScalarConstraint(
            lambda x: c - np.asarray(x, dtype=float)[..., 0] ** 2,
            lambda x: -2.0 * np.asarray(x, dtype=float)[..., :1], name=name)

    spec = SafetySpec(constraints=(level(c_level, "level"),),
                      terminal=level(s_level, "terminal_level"),
                      alpha_gain=alpha)
    return model, policy, spec


# ---------------------------------------------------------------------------
# double_integrator: sdot = v, vdot = u, backup brakes while moving forward.
# ---------------------------------------------------------------------------


def _build_double_integrator(params: dict):
    c_limit = _number(params, "c_limit_m", 10.0)
    u_max = _number(params, "u_max_mps2", 1.0)
    v_scale = _number(params, "v_scale_mps", 5.0)
    alpha = _number(params, "alpha_gain_per_s", 1.0)
    eps = _smoothing_eps(params, 0.05 * v_scale)
    _reject_unknown(params, "double_integrator")
    if u_max <= 0.0 or v_scale <= 0.0:
        raise ValidationError("double_integrator needs u_max > 0, v_scale > 0")

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = x[..., 1]
        return out

    def pi(x):
        x = np.asarray(x, dtype=float)
        return (-u_max * smooth_positive_indicator(x[..., 1], eps))[..., None]

    def dpi(x):
        x = np.asarray(x, dtype=float)
        d = smooth_positive_indicator_deriv(x[..., 1], eps)
        out = np.zeros(x.shape[:-1] + (1, 2))
        out[..., 0, 1] = -u_max * d
        return out

    def loop(p: Primitives):
        indicator = p.indicator

        def rhs(s, v):
            u = -u_max * indicator(v, eps)
            return (v + (0.0 + 0.0 * u), 0.0 + u)

        return rhs

    model = SystemModel(2, 1, f, _constant([[0.0], [1.0]]),
                        _constant([[0.0, 1.0], [0.0, 0.0]]), None,
                        np.array([-u_max]), np.array([u_max]),
                        state_names=("s", "v"), input_names=("u",))
    policy = BackupPolicy(pi, dpi, eps, loop)

    # at_rest stays -v: the bound's 0.0 - 1.0 * v would give +0.0 at v = +0.0
    spec = SafetySpec(
        constraints=(_bound(2, 0, c_limit, 1.0, "position_limit"),),
        terminal=ScalarConstraint(lambda x: -np.asarray(x, dtype=float)[..., 1],
                                  _constant([0.0, -1.0]), name="at_rest"),
        alpha_gain=alpha)
    return model, policy, spec


# ---------------------------------------------------------------------------
# dubins: lane keeping, states (Y, v, psi), inputs (a, r).
# ---------------------------------------------------------------------------

# Steering gain of the cruise-holding profile: r = k_y . [Y; psi] with
# k_y = -(0.1, sqrt(26)/5), the infinite-horizon quadratic-regulator gain of
# the lateral subsystem linearized at 5 m/s (weights diag(0.25, 1), effort 25).
_DUBINS_KY_CONSERVATIVE = (-0.1, -1.0198039027185569)
_DUBINS_KY_AGGRESSIVE = (0.0, -3.0)
_DUBINS_P_AGGRESSIVE = ((0.2, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _lyapunov_3x3(a_cl: Array) -> Array:
    """Solve A^T P + P A = -I for the 3x3 closed-loop linearization."""
    n = a_cl.shape[0]
    lhs = np.kron(np.eye(n), a_cl.T) + np.kron(a_cl.T, np.eye(n))
    p = np.linalg.solve(lhs, -np.eye(n).flatten()).reshape(n, n)
    return 0.5 * (p + p.T)


def _build_dubins(params: dict):
    y_max = _number(params, "y_max_m", 1.8)
    psi_max = _number(params, "psi_max_rad", np.pi / 3)
    a_max = _number(params, "a_max_mps2", 3.0)
    r_max = _number(params, "r_max_radps", 0.5)
    k_v = _number(params, "k_v_per_s", 1.0)
    profile = params.pop("profile", "conservative")
    if profile not in ("conservative", "aggressive"):
        raise ValidationError(f"unknown dubins profile {profile!r}")
    aggressive = profile == "aggressive"
    v_des = _number(params, "v_des_mps", 0.0 if aggressive else 5.0)
    k_y = _numbers("k_y", params.pop("k_y", _DUBINS_KY_AGGRESSIVE if aggressive
                                     else _DUBINS_KY_CONSERVATIVE))
    if k_y.shape != (2,):
        raise ValidationError("k_y must be a 2-vector acting on [Y; psi]")
    terminal_p = params.pop("terminal_p", None)
    c_level = _number(params, "terminal_c", 0.5 if aggressive else 1.0)
    alpha = _number(params, "alpha_gain_per_s", 1.0)
    eps_frac = _number(params, "eps_frac", 0.05)
    _reject_unknown(params, "dubins")
    if min(y_max, psi_max, a_max, r_max, k_v) <= 0.0:
        raise ValidationError("dubins box parameters must be > 0")

    eps_a = eps_frac * a_max
    eps_r = eps_frac * r_max

    if terminal_p is None:
        if aggressive:
            # v_des = 0 makes the lateral linearization marginal in Y; use a
            # fixed diagonal form, validated in the test suite.
            p_mat = np.asarray(_DUBINS_P_AGGRESSIVE, dtype=float)
        else:
            a_cl = np.array([[0.0, 0.0, v_des],
                             [0.0, -k_v, 0.0],
                             [k_y[0], 0.0, k_y[1]]])
            p_mat = _lyapunov_3x3(a_cl)
    else:
        p_mat = _numbers("terminal_p", terminal_p)
    if p_mat.shape != (3, 3) or not np.allclose(p_mat, p_mat.T):
        raise ValidationError("terminal_p must be a symmetric 3x3 matrix")
    if np.any(np.linalg.eigvalsh(p_mat) <= 0.0):
        raise ValidationError("terminal_p must be positive definite")
    if c_level <= 0.0:
        raise ValidationError("terminal_c must be > 0")

    _check_blend(-a_max, a_max, eps_a)
    _check_blend(-r_max, r_max, eps_r)
    ky0, ky1 = float(k_y[0]), float(k_y[1])

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = x[..., 1] * np.sin(x[..., 2])
        return out

    def df(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3, 3))
        out[..., 0, 1] = np.sin(x[..., 2])
        out[..., 0, 2] = x[..., 1] * np.cos(x[..., 2])
        return out

    def pi(x):
        x = np.asarray(x, dtype=float)
        a_cmd = smooth_saturate(k_v * (v_des - x[..., 1]), -a_max, a_max, eps_a)
        r_raw = k_y[0] * x[..., 0] + k_y[1] * x[..., 2]
        r_cmd = smooth_saturate(r_raw, -r_max, r_max, eps_r)
        return np.stack([a_cmd, r_cmd], axis=-1)

    def dpi(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 3))
        da = smooth_saturate_deriv(k_v * (v_des - x[..., 1]), -a_max, a_max, eps_a)
        out[..., 0, 1] = -k_v * da
        r_raw = k_y[0] * x[..., 0] + k_y[1] * x[..., 2]
        dr = smooth_saturate_deriv(r_raw, -r_max, r_max, eps_r)
        out[..., 1, 0] = k_y[0] * dr
        out[..., 1, 2] = k_y[1] * dr
        return out

    def loop(p: Primitives):
        sin, saturate = p.sin, p.saturate

        def rhs(y, v, psi):
            a = saturate(k_v * (v_des - v), -a_max, a_max, eps_a)
            r = saturate(ky0 * y + ky1 * psi, -r_max, r_max, eps_r)
            # the zero products of g u, each once (rows 0 and 2 share the
            # partial sum after channel 0); as in toy1d, the identities go
            za = 0.0 + 0.0 * a
            zr = 0.0 * r
            return (v * sin(psi) + (za + zr), (0.0 + a) + zr, za + r)

        return rhs

    model = SystemModel(3, 2, f,
                        _constant([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), df, None,
                        np.array([-a_max, -r_max]), np.array([a_max, r_max]),
                        state_names=("Y", "v", "psi"), input_names=("a", "r"))
    policy = BackupPolicy(pi, dpi, max(eps_a, eps_r), loop)

    offset = np.array([0.0, v_des, 0.0])

    def h_terminal(x):
        xh = np.asarray(x, dtype=float) - offset
        return c_level - np.einsum("...i,ij,...j->...", xh, p_mat, xh)

    def grad_terminal(x):
        xh = np.asarray(x, dtype=float) - offset
        return -2.0 * np.einsum("ij,...j->...i", p_mat, xh)

    spec = SafetySpec(
        constraints=(_bound(3, 0, y_max, +1.0, "lane_left"),
                     _bound(3, 0, y_max, -1.0, "lane_right"),
                     _bound(3, 2, psi_max, +1.0, "heading_left"),
                     _bound(3, 2, psi_max, -1.0, "heading_right")),
        terminal=ScalarConstraint(h_terminal, grad_terminal, name="settle_ellipsoid"),
        alpha_gain=alpha)
    return model, policy, spec


# ---------------------------------------------------------------------------
# aeroplane: relative coordinates (dx, dy, dpsi), scalar turn-rate input.
# ---------------------------------------------------------------------------


def _build_aeroplane(params: dict):
    v_a = _number(params, "v_a_mps", 1.0)
    v_b = _number(params, "v_b_mps", 1.0)
    u_max = _number(params, "u_max_radps", 1.0)
    r_min = _number(params, "r_min_m", 1.0)
    r_term = _number(params, "r_terminal_m", 1.2 * r_min)
    alpha = _number(params, "alpha_gain_per_s", 1.0)
    # The turn-away policy slides along dy = 0 once the opponent falls
    # behind; the blend slope (2/eps) times |dx| sets the stiffness of the
    # variational equation, so the band is kept wide enough for the default
    # integration grid to resolve it.
    eps = _smoothing_eps(params, 0.25 * r_min)
    _reject_unknown(params, "aeroplane")
    if min(v_a, v_b, u_max, r_min) <= 0.0 or r_term <= r_min:
        raise ValidationError(
            "aeroplane needs positive speeds, u_max, r_min and r_terminal > r_min")

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = -v_a + v_b * np.cos(x[..., 2])
        out[..., 1] = v_b * np.sin(x[..., 2])
        out[..., 2] = 0.0
        return out

    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (3, 1))
        out[..., 0, 0] = x[..., 1]
        out[..., 1, 0] = -x[..., 0]
        out[..., 2, 0] = -1.0
        return out

    def df(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3, 3))
        out[..., 0, 2] = -v_b * np.sin(x[..., 2])
        out[..., 1, 2] = v_b * np.cos(x[..., 2])
        return out

    def pi(x):
        x = np.asarray(x, dtype=float)
        return (-u_max * smooth_sign(x[..., 1], eps))[..., None]

    def dpi(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (1, 3))
        out[..., 0, 1] = -u_max * smooth_sign_deriv(x[..., 1], eps)
        return out

    def loop(p: Primitives):
        sin, cos, sign = p.sin, p.cos, p.sign

        def rhs(dx, dy, dpsi):
            u = -u_max * sign(dy, eps)
            return (-v_a + v_b * cos(dpsi) + (0.0 + dy * u),
                    v_b * sin(dpsi) + (0.0 + -dx * u),
                    0.0 + -1.0 * u)

        return rhs

    # dg[i, 0, k] = d g[i, 0] / d x[k] of g = (dy, -dx, -1)
    dg = _constant([[[0.0, 1.0, 0.0]], [[-1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]])
    model = SystemModel(3, 1, f, g, df, dg,
                        np.array([-u_max]), np.array([u_max]),
                        state_names=("dx", "dy", "dpsi"), input_names=("u",))
    policy = BackupPolicy(pi, dpi, eps, loop)

    def separation(x, radius=r_min):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 + x[..., 1] ** 2 - radius ** 2

    def grad_separation(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = 2.0 * x[..., 0]
        out[..., 1] = 2.0 * x[..., 1]
        return out

    def divergence(x):
        # Radial rate of the squared separation / 2; independent of u since
        # the input only rotates the relative frame.
        x = np.asarray(x, dtype=float)
        return (x[..., 0] * (-v_a + v_b * np.cos(x[..., 2]))
                + x[..., 1] * v_b * np.sin(x[..., 2]))

    def grad_divergence(x):
        x = np.asarray(x, dtype=float)
        out = f(x)                  # d/d(dx, dy) of the rate are f's entries
        out[..., 2] = (-x[..., 0] * v_b * np.sin(x[..., 2])
                       + x[..., 1] * v_b * np.cos(x[..., 2]))
        return out

    def h_terminal(x):
        return np.minimum(separation(x, r_term), divergence(x))

    def grad_terminal(x):
        # Gradient of the active min branch; separation wins ties.
        use_sep = separation(x, r_term) <= divergence(x)
        return np.where(use_sep[..., None], grad_separation(x),
                        grad_divergence(x))

    spec = SafetySpec(
        constraints=(ScalarConstraint(separation, grad_separation,
                                      name="separation"),),
        terminal=ScalarConstraint(h_terminal, grad_terminal,
                                  name="separated_diverging"),
        alpha_gain=alpha)
    return model, policy, spec


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

_BUILDERS = {
    "toy1d": _build_toy1d,
    "double_integrator": _build_double_integrator,
    "dubins": _build_dubins,
    "aeroplane": _build_aeroplane,
}

BENCHMARK_NAMES = tuple(_BUILDERS)

# Default horizons, flow-grid sizes, and sampling boxes used by the
# simulation harness and the test suite.  The boxes bound the region of
# state space each benchmark is exercised on; they are not constraints.
BENCHMARK_DEFAULTS: Mapping[str, dict] = {
    "toy1d": dict(t_horizon_s=1.0, n_flow_steps=100,
                  sample_lower=(-2.0,), sample_upper=(2.0,)),
    "double_integrator": dict(t_horizon_s=10.0, n_flow_steps=100,
                              sample_lower=(-10.0, -5.0),
                              sample_upper=(12.0, 5.0)),
    "dubins": dict(t_horizon_s=8.0, n_flow_steps=100,
                   sample_lower=(-1.8, 2.0, -np.pi / 3),
                   sample_upper=(1.8, 8.0, np.pi / 3)),
    "aeroplane": dict(t_horizon_s=4.0, n_flow_steps=200,
                      sample_lower=(-6.0, -6.0, -np.pi),
                      sample_upper=(6.0, 6.0, np.pi)),
}


def make_benchmark(name: str, params: Mapping | None = None
                   ) -> tuple[SystemModel, BackupPolicy, SafetySpec]:
    """Build a named benchmark triple, applying documented defaults for any
    parameter not supplied.  Unknown names or parameters raise
    `ValidationError`."""
    if name not in _BUILDERS:
        raise ValidationError(
            f"unknown benchmark {name!r}; available: {sorted(_BUILDERS)}")
    return _BUILDERS[name](dict(params or {}))
