"""Benchmark dynamics, backup policies, and safety specifications.

All quantities are SI (m, m/s, m/s^2, rad, rad/s).  Every evaluator is a
pure function with one array body that accepts states of shape ``(n,)`` or
batched ``(..., n)``, broadcasting over the leading axes.  Each built-in
benchmark states ``f``, ``g``, its backup policy ``pi`` and its safety
functions ``h`` once, one value per component, against a table of
`Primitives`; `_generated` records that statement symbolically and
compiles from it ``f_eval``, ``g_eval``, ``pi_eval``, their Jacobians
(forward differentiation, structural zeros left out: terms free of the state
or with a literal-zero factor), each safety function and its gradient, and
the closed loop ``BackupPolicy.closed_loop``, a `ClosedLoop`: its derivative
in `affine_sum`'s order, which the batch flow builds on `ARRAY_PRIMITIVES`,
and its state Jacobian, the same forward derivative of those rows.  The
single-state flow marches on its float kernel (`ClosedLoop.kernel`) instead:
the same lines on floats, with each smoothing written out as the branches
`_FLOAT_BODIES` holds, the one float form of a smoothing.  The flows read
nothing else.
Only exact folds are made, so every evaluator keeps the bits of the
hand-written body it replaced, signed zeros included, except in some
derivatives: a few entries differ in the sign of a NaN or a zero only
on NaN or infinite states, the Dubins terminal gradient differs in the
sign of a zero where ``x - x_des`` holds ``-0.0`` (its sum starts from
its first term, not from ``+0.0``), and two gradients round otherwise in
the last bits (the conservative Dubins terminal, whose dense ``P`` is
differentiated term by term rather than as ``-2 P x``, and the aeroplane
terminal's ``dpsi`` entry at a ``v_b`` that is not a power of two).  The
closed loop's Jacobian equals the former ``df + dg pi + g dpi`` in value,
not in bytes: a zero may carry the other sign, and where that form
multiplied a structural zero by a NaN it may stay finite.  The float
smoothings of the kernel clamp by comparisons, which return what
``min(max(y, lo), hi)`` returns for every float (NaN and signed zeros
included) without two builtin calls.  Benchmark parameters must be finite
numbers, and every blend width > 0: each switching primitive has one C1
body, so the backup loop is differentiable and its flow sensitivity
exists.  Values are immutable after construction and safe to share
across threads.

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

import collections
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import EvaluationError, ValidationError

try:                    # the clip ufunc that `np.clip` calls, without its wrappers
    from numpy._core.umath import clip as _clip
except ImportError:     # numpy 1.x
    from numpy.core.umath import clip as _clip

Array = np.ndarray


# ---------------------------------------------------------------------------
# C1 smoothings of switching nonlinearities.
#
# Each smoothing is *exact* away from the switching surface so closed-form
# trajectories remain valid there; only a band of width `eps > 0` is
# blended, so the backup loop is C1 and the flow sensitivity exists.  With
# numpy's `sin` and `cos` they make `ARRAY_PRIMITIVES`; their float forms,
# with the same branch tests, are the `_FLOAT_BODIES` lines below.
# ---------------------------------------------------------------------------


def smooth_positive_indicator(v: Array | float, eps: float) -> Array:
    """~= 1{v > 0}; exactly 1 for v >= 0 and 0 for v <= -eps.

    The blend band sits *below* the surface so the indicator engages
    slightly early - the conservative side for a braking policy.
    """
    v = np.asarray(v, dtype=float)
    t = _clip((v + eps) / eps, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def smooth_positive_indicator_deriv(v: Array | float, eps: float) -> Array:
    v = np.asarray(v, dtype=float)
    t = np.clip((v + eps) / eps, 0.0, 1.0)
    return 6.0 * t * (1.0 - t) / eps


def smooth_sign(y: Array | float, eps: float) -> Array:
    """~= sign(y); exact +-1 for |y| >= eps, odd C1 blend through 0."""
    y = np.asarray(y, dtype=float)
    q = _clip(y / eps, -1.0, 1.0)
    return q * (2.0 - np.abs(q))


def smooth_sign_deriv(y: Array | float, eps: float) -> Array:
    y = np.asarray(y, dtype=float)
    q = y / eps
    inside = np.abs(q) < 1.0
    return np.where(inside, 2.0 * (1.0 - np.abs(q)) / eps, 0.0)


def _check_blend(lo: float, hi: float, eps: float):
    if not 0.0 < 4.0 * eps < hi - lo:
        raise ValidationError(f"saturation blend width must be > 0 and below "
                              f"a quarter of the box [{lo!r}, {hi!r}], got "
                              f"{eps!r}")


def smooth_saturate(y: Array | float, lo: float, hi: float, eps: float) -> Array:
    """Saturation to [lo, hi]; identity on the interior, quadratic C1 blend
    on bands of half-width eps around each bound.

    The blend is evaluated only on the elements inside a band, which in a
    batch are usually few (an empty band is skipped); each gets the same
    expression either way."""
    _check_blend(lo, hi, eps)
    y = np.asarray(y, dtype=float)
    out = _clip(y, lo, hi)
    if out.ndim == 0:           # the clip of a 0-d array is a read-only scalar
        out = np.array(out)
    band = (y > hi - eps) & (y < hi + eps)
    if np.count_nonzero(band):
        yb = y[band]
        out[band] = yb - (yb - (hi - eps)) ** 2 / (4.0 * eps)
    band = (y > lo - eps) & (y < lo + eps)
    if np.count_nonzero(band):
        yb = y[band]
        out[band] = yb + ((lo + eps) - yb) ** 2 / (4.0 * eps)
    return out


def smooth_saturate_deriv(y: Array | float, lo: float, hi: float, eps: float) -> Array:
    _check_blend(lo, hi, eps)
    y = np.asarray(y, dtype=float)
    # band-only, as in `smooth_saturate`
    d = np.array((y > lo - eps) & (y < hi + eps), dtype=float)
    band = (y > hi - eps) & (y < hi + eps)
    d[band] = 1.0 - (y[band] - (hi - eps)) / (2.0 * eps)
    band = (y > lo - eps) & (y < lo + eps)
    d[band] = 1.0 - ((lo + eps) - y[band]) / (2.0 * eps)
    return d


# Each smoothing's float form is written once, as the lines that set
# ``out`` from the float ``y``, and `_statements` writes them into the float
# kernel with the parameters as floats.  There each band edge that the
# parameters fix is computed once, as IEEE arithmetic on the same operands
# computes it at run time, and written as a literal.

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _folded(a, op: str, b):
    """``a op b``: its value where both are floats, else its text."""
    if isinstance(a, float) and isinstance(b, float):
        return _OPS[op](a, b)
    return f"({a} {op} {b})"


def _chain(*branches, otherwise: list[str]) -> list[str]:
    """The ``if``/``elif`` lines of ``(test, lines)`` branches, in order,
    then the ``else`` lines ``otherwise``."""
    out = []
    for test, body in branches:
        out.append(f"{'elif' if out else 'if'} {test}:")
        out += ["    " + line for line in body]
    return out + ["else:"] + ["    " + line for line in otherwise]


def _saturate_lines(out: str, y: str, lo, hi, eps) -> list[str]:
    """`smooth_saturate` on one float; the caller checks the blend width."""
    top, bottom = _folded(hi, "-", eps), _folded(lo, "+", eps)
    width = _folded(4.0, "*", eps)
    return _chain(
        (f"{top} < {y} < {_folded(hi, '+', eps)}",
         [f"d = {y} - {top}", f"{out} = {y} - d * d / {width}"]),
        (f"{_folded(lo, '-', eps)} < {y} < {bottom}",
         [f"d = {bottom} - {y}", f"{out} = {y} + d * d / {width}"]),
        otherwise=[f"{out} = {y}"] * (out != y)
        + [f"if {lo} > {out}:", f"    {out} = {lo}",
           f"if {out} > {hi}:", f"    {out} = {hi}"])


def _sign_lines(out: str, y: str, eps) -> list[str]:
    """`smooth_sign` on one float, with the array form's bits up to a NaN's
    sign: the blend multiplies two NaNs of opposite sign, and CPython's
    specialized multiply returns the other one than its generic multiply,
    so at ``y = -nan`` the result flips sign after a few calls."""
    return [f"q = {y} / {eps}"] + _chain(
        ("-1.0 > q", [f"{out} = -1.0"]), ("q > 1.0", [f"{out} = 1.0"]),
        otherwise=[f"{out} = q * (2.0 - abs(q))"])


def _indicator_lines(out: str, y: str, eps) -> list[str]:
    """`smooth_positive_indicator` on one float."""
    return [f"t = {_folded(y, '+', eps)} / {eps}", "if 0.0 > t:", "    t = 0.0",
            *_chain(("t > 1.0", [f"{out} = 1.0"]),
                    otherwise=[f"{out} = t * t * (3.0 - 2.0 * t)"])]


_FLOAT_BODIES = {"saturate": _saturate_lines, "sign": _sign_lines,
                 "indicator": _indicator_lines}


class Primitives(NamedTuple):
    """The nonlinear primitives a benchmark's dynamics are stated against:
    ``sin``, ``cos`` and three C1 smoothings, each one body for a blend
    width ``eps > 0``.  `ARRAY_PRIMITIVES` computes them on arrays and
    `_SYMBOLIC` records each call; on floats each smoothing is written out
    from `_FLOAT_BODIES` instead (`ClosedLoop.kernel`)."""

    sin: Callable
    cos: Callable
    saturate: Callable
    sign: Callable
    indicator: Callable


ARRAY_PRIMITIVES = Primitives(np.sin, np.cos, smooth_saturate, smooth_sign,
                              smooth_positive_indicator)


# ---------------------------------------------------------------------------
# Domain types.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemModel:
    """Control-affine plant ``xdot = f(x) + g(x) u`` with a box input set.

    ``df_dx(x)`` has shape ``(..., n, n)``; ``dg_dx(x)`` has shape
    ``(..., n, m, n)`` with entry ``[i, j, k] = d g[i, j] / d x[k]``.  A
    built-in model's are compiled, but nothing in this package reads
    either, nor `BackupPolicy.dpi_dx`: the flows take the loop Jacobian
    from `ClosedLoop.jacobian`.  The three stay because the benchmark's
    tracer (``perfbench/layers.py``) wraps them by name; they can go with
    a change to the benchmark that drops those wraps.
    """

    state_dim: int
    input_dim: int
    f_eval: Callable[[Array], Array]
    g_eval: Callable[[Array], Array]
    df_dx: Callable[[Array], Array]
    dg_dx: Callable[[Array], Array]
    input_lower: Array
    input_upper: Array
    state_names: tuple[str, ...] = ()
    input_names: tuple[str, ...] = ()

    def __post_init__(self):
        dims = (self.state_dim, self.input_dim)
        if not all(is_integer(d) and d >= 1 for d in dims):
            raise ValidationError(f"state_dim and input_dim must be integers "
                                  f">= 1, got {dims}")
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


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """A benchmark statement's closed loop ``f + g pi``, as `_generated`
    writes it.  ``build(p)`` builds its derivative, in `affine_sum`'s
    order, on the primitive table ``p`` as ``rhs(*x)``, one value per state
    component in and a tuple out (a row that holds no state is a float);
    the batch flow builds it on `ARRAY_PRIMITIVES`, on ``(B,)`` arrays.
    ``rows`` holds the derivative, one entry per state component, as
    `_SYMBOLIC` recorded it, and `kernel` writes it out on Python floats
    for the single-state flow to inline.  ``jacobian(x)`` is
    its state Jacobian on states ``(..., n)``, as ``(..., n, n)``:
    `_derivative` of ``rows``, structural zeros left out.  Compared by
    identity."""

    build: Callable[[Primitives], Callable[..., tuple]]
    jacobian: Callable[[Array], Array]
    rows: tuple

    def kernel(self, slope: str, point: str) -> list[str]:
        """The float kernel: the lines that set ``slope0, slope1, ...`` to
        the derivative at ``point0, point1, ...``, each smoothing written
        out as its `_FLOAT_BODIES` branches with the parameters folded in.
        Besides those, they assign only temporaries ``t0, t1, ...`` and the
        smoothings' scratch names ``d``, ``q`` and ``t``, and read only
        ``sin``, ``cos``, ``abs`` and ``inf``."""
        lines, exprs, _ = _statements(self.rows, _FLOAT_BODIES, point)
        return lines + [f"{slope}{i} = {e}" for i, e in enumerate(exprs)]

    def at(self, states: Array) -> Array:
        """The derivative built on `ARRAY_PRIMITIVES` at states ``(B, n)``,
        as ``(B, n)`` (a row that holds no state is a float, broadcast)."""
        return np.stack(np.broadcast_arrays(
            *self.build(ARRAY_PRIMITIVES)(*states.T)), axis=-1)


@dataclass(frozen=True)
class BackupPolicy:
    """Feedback law ``u = pi(x)`` with its state Jacobian, its blend widths
    written in from the parameters of the benchmark it was built with.

    ``closed_loop`` is the `ClosedLoop` generated with the model this policy
    was built alongside (`_generated`); anything else is refused with
    `ValidationError`.  The flows march on it alone: they call none of
    ``pi_eval``, ``dpi_dx`` and the model's evaluators, so replacing any of
    them changes no flow.  Nothing in this package reads ``dpi_dx`` (see
    `SystemModel` for why it stays).
    """

    pi_eval: Callable[[Array], Array]
    dpi_dx: Callable[[Array], Array]
    closed_loop: ClosedLoop

    def __post_init__(self):
        if not isinstance(self.closed_loop, ClosedLoop):
            raise ValidationError(f"closed_loop must be a generated "
                                  f"ClosedLoop, got {self.closed_loop!r}")


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
        if not (is_finite_real(self.alpha_gain) and self.alpha_gain > 0.0):
            raise ValidationError(f"alpha_gain must be a finite number > 0, "
                                  f"got {self.alpha_gain!r}")
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


def affine_sum(f: Array, g: Array, u: Array) -> Array:
    """``f + g u`` for ``f`` ``(..., n)``, ``g`` ``(..., n, m)``, ``u``
    ``(..., m)``, with ``g u`` summed per input channel from ``+0.0``:
    ``((0.0 + g_0 u_0) + g_1 u_1) + ...``, each product rounded, so a
    ``-0.0`` product sums to ``+0.0``.  The one definition of this order:
    on arrays (`loop_rhs`, the filter rows), on the statement `_generated`
    records (the closed loop) and for the plant the simulation steps.  Not
    ``np.matmul``: it gives these bits where each row of ``g`` has at most
    one nonzero entry, as on every built-in benchmark, but a dense ``g``
    with two or more inputs may round otherwise (fused multiply-adds)."""
    gu = 0.0 + g[..., 0] * u[..., None, 0]
    for j in range(1, u.shape[-1]):
        gu = gu + g[..., j] * u[..., None, j]
    return f + gu


def loop_rhs(model: SystemModel, policy: BackupPolicy, x: Array) -> Array:
    """Backup-loop derivative ``f(x) + g(x) pi(x)`` from the model's and
    the policy's evaluators, summed by `affine_sum` as the generated closed
    loop is, unchecked (`closed_loop_rhs` checks it)."""
    return affine_sum(model.f_eval(x), model.g_eval(x), policy.pi_eval(x))


def closed_loop_rhs(model: SystemModel, policy: BackupPolicy, x: Array) -> Array:
    """Backup-loop derivative ``f(x) + g(x) pi(x)``."""
    x = check_finite(np.asarray(x, dtype=float), "state")
    return check_finite(loop_rhs(model, policy, x), "closed-loop derivative")


def di_closed_form_h(x: Array, c_limit: float, u_max: float) -> Array:
    """Stopping-distance barrier for the double integrator:
    ``c_limit - s - 1{v>0} v^2 / (2 u_max)``.

    Serves as the independent oracle for the implicitly defined set; both
    parameters must be finite numbers (a bool is not), and ``u_max > 0``.
    """
    for key, value in (("c_limit", c_limit), ("u_max", u_max)):
        if not is_finite_real(value):
            raise ValidationError(f"{key} must be a finite number, got "
                                  f"{value!r}")
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


def _derived(expression: str, compute: Callable[[], float], *keys: str
             ) -> float:
    """The constant ``compute()`` (written ``expression``) that a builder
    derives from the parameters ``keys``; `ValidationError` naming them if
    it overflows or rounds to 0."""
    try:
        value = compute()
    except OverflowError:           # float ** raises where float * gives inf
        value = math.inf
    if not math.isfinite(value) or value == 0.0:
        fault, size = (("overflows", "large") if value
                       else ("rounds to 0", "small"))
        raise ValidationError(f"{expression} {fault}: parameter "
                              f"{' or '.join(map(repr, keys))} is too {size}")
    return value


def _width(params: dict, key: str, default: float) -> float:
    """Blend-width parameter ``key`` (default ``default``), a float > 0."""
    eps = _number(params, key, default)
    if eps <= 0.0:
        raise ValidationError(f"{key} must be > 0, got {eps!r}")
    return eps


# ---------------------------------------------------------------------------
# The evaluators generated from each benchmark's one statement
# ``statement(p, params, *x) -> (f, g, pi, h)``: its dynamics and its safety
# functions at the state ``x`` against the primitive table ``p``, one value
# per component (``g`` as rows, a constant entry a float, ``h`` a tuple of
# expressions of the state), with the parameters from the tuple ``params``.
# ---------------------------------------------------------------------------


class _Sym:
    """An expression `_SYMBOLIC` records: ``op`` (``x`` for a state
    component, ``+ - *``, ``neg`` or a primitive) on ``args``, each a `_Sym`
    or a float.  The only folds, each exact: floats alone stay Python's,
    which round as float64 does; ``1.0 * e`` is ``e``; and ``c + e`` is
    ``e`` for a literal ``+-0.0`` ``c`` where ``e`` is a ``+`` chain whose
    leftmost leaf is the literal ``+0.0`` (as `affine_sum`'s ``g u`` is),
    so never ``-0.0``."""

    def __init__(self, op: str, *args):
        self.op, self.args = op, args

    def __add__(self, other): return _Sym("+", self, other)
    def __sub__(self, other): return _Sym("-", self, other)
    def __rsub__(self, other): return _Sym("-", other, self)
    def __mul__(self, other): return self if other == 1.0 else _Sym("*", self, other)
    def __rmul__(self, other): return self if other == 1.0 else _Sym("*", other, self)
    def __neg__(self): return _Sym("neg", self)

    def __radd__(self, other):
        leaf = self
        while isinstance(leaf, _Sym) and leaf.op == "+":
            leaf = leaf.args[0]
        fold = other == 0.0 == leaf and math.copysign(1.0, leaf) > 0.0
        return self if fold else _Sym("+", other, self)


_SYMBOLIC = Primitives(*(functools.partial(_Sym, p) for p in Primitives._fields))
# d p(u, ...) / du of each primitive ``p``; only ``u`` may hold the state
_PRIMES = {"sin": lambda u: _Sym("cos", u), "cos": lambda u: -_Sym("sin", u),
           **{p: functools.partial(_Sym, p + "_deriv")
              for p in ("saturate", "sign", "indicator")}}
_FORMS = {"+": "({} + {})", "-": "({} - {})", "*": "({} * {})", "neg": "(-{})"}


def _derivative(e, k: int):
    """``d e / d x_k`` by the forward rules (Griewank & Walther, "Evaluating
    Derivatives", SIAM 2008), the chain rule's inner derivative on the
    left; ``None`` for a structural zero, where ``e`` does not hold ``x_k``
    or holds it only in products whose other factor is a literal zero."""
    if not isinstance(e, _Sym):
        return None
    if e.op == "x":
        return 1.0 if e.args[0] == k else None
    da, db = ([_derivative(a, k) for a in e.args] + [None])[:2]
    if e.op in _PRIMES:
        return None if da is None else da * _PRIMES[e.op](*e.args)
    if e.op == "neg":
        return None if da is None else -da
    if e.op == "*":
        a, b = e.args
        da = None if da is None or b == 0.0 else da * b
        db = None if db is None or a == 0.0 else a * db
    if da is None or db is None:
        return da if db is None else -db if e.op == "-" else db
    return da - db if e.op == "-" else da + db


def _written(op: str, parts: list[str]) -> str:
    return _FORMS[op].format(*parts) if op in _FORMS else f"{op}({', '.join(parts)})"


def _statements(exprs, inline: Mapping[str, Callable] = {}, state: str = "x"
                ) -> tuple[list[str], list[str], set[str]]:
    """Python for ``exprs`` (`_Sym`s and floats) on the state components
    ``state0, state1, ...``: the lines that assign the temporaries ``t0,
    t1, ...``, an expression per entry, and the names read.  A
    subexpression written out the same way more than once is computed
    once, into a temporary.  A call of a primitive ``p`` in
    ``inline`` is written as the lines ``inline[p](t, y, *params)`` that set
    a temporary ``t`` of its own, from its argument ``y`` (a name, or ``t``
    set to it) and its parameters (floats where they are literals)."""
    # A leaf's key is its text, a node's its index in ``nodes``, which holds
    # its op and its operands' keys: equal keys are equal texts, and each
    # key is short, so the walk is linear in the size of ``exprs``.
    keys, nodes, names, literals = {}, [], set(), {}

    def key(e):
        if not isinstance(e, _Sym):
            text = repr(float(e))
            literals[text] = float(e)
            return text
        if e.op == "x":
            names.add(f"{state}{e.args[0]}")
            return f"{state}{e.args[0]}"
        names.add(e.op)
        node = (e.op, tuple(key(a) for a in e.args))
        if node not in keys:
            keys[node] = len(nodes)
            nodes.append(node)
        return keys[node]

    roots = [key(e) for e in exprs]
    uses = collections.Counter(roots + [p for _, ps in nodes for p in ps])
    temporaries, lines = {}, []

    def written(k) -> str:
        if isinstance(k, str) or k in temporaries:
            return temporaries.get(k, k)
        op, operands = nodes[k]
        parts = [written(p) for p in operands]
        if op in inline:
            temporaries[k] = t = f"t{len(temporaries)}"
            y = parts[0]
            if not y.isidentifier():
                lines.append(f"{t} = {y}")
                y = t
            lines.extend(inline[op](t, y, *(
                literals.get(p, w) for p, w in zip(operands[1:], parts[1:]))))
            return t
        code = _written(op, parts)
        if uses[k] < 2:
            return code
        temporaries[k] = f"t{len(temporaries)}"
        lines.append(f"{temporaries[k]} = {code}")
        return temporaries[k]

    return lines, [written(r) for r in roots], names


def _source(name: str, exprs, n: int, tail: Callable[[list[str]], list[str]]
            ) -> str:
    """``name(x)`` on states ``(..., n)``: the components and temporaries
    ``exprs`` read, then the lines ``tail`` makes of their expressions."""
    lines, written, names = _statements(exprs)
    return "\n    ".join(
        [f"def {name}(x):", "x = asarray(x, dtype=float)"]
        + [f"x{i} = x[..., {i}]" for i in range(n) if f"x{i}" in names]
        + lines + tail(written))


def _array_source(name: str, terms: np.ndarray, n: int) -> str:
    """``name(x)``: for states ``(..., n)`` a fresh ``(...,) + terms.shape``
    array from zeros, with each entry of ``terms`` that is not ``+0.0``
    assigned."""
    assigned = {index: e for index, e in np.ndenumerate(terms)
                if e is not None and (isinstance(e, _Sym) or e != 0.0
                                      or math.copysign(1.0, e) < 0.0)}
    return _source(name, assigned.values(), n, lambda exprs: (
        [f"out = zeros(x.shape[:-1] + {terms.shape})"]
        + [f"out[..., {', '.join(map(str, index))}] = {expr}"
           for index, expr in zip(assigned, exprs)] + ["return out"]))


def _loop_source(rows: tuple) -> str:
    """``closed_loop(p)``, whose ``rhs(x0, x1, ...)`` returns ``rows``."""
    lines, exprs, names = _statements(rows)
    return "\n".join(
        ["def closed_loop(p):"]
        + [f"    {c} = p.{c}" for c in Primitives._fields if c in names]
        + [f"    def rhs({', '.join(f'x{i}' for i in range(len(rows)))}):"]
        + [f"        {line}" for line in lines]
        + [f"        return ({''.join(e + ', ' for e in exprs)})", "    return rhs"])


_NAMESPACE = {"asarray": np.asarray, "zeros": np.zeros,
              **ARRAY_PRIMITIVES._asdict(),
              "saturate_deriv": smooth_saturate_deriv,
              "sign_deriv": smooth_sign_deriv,
              "indicator_deriv": smooth_positive_indicator_deriv}


@functools.cache
def _generated(name: str, statement: Callable, n: int, m: int,
               params: tuple[str, ...]) -> tuple:
    """``(f_eval, g_eval, df_dx, dg_dx, pi_eval, dpi_dx, closed_loop,
    safety)`` of ``statement`` for ``n`` states and ``m`` inputs, recorded
    on `_SYMBOLIC`, written out as lists of lines and compiled once per
    parameter tuple, given as `float.hex` strings so that ``0.0`` and
    ``-0.0`` are two keys.  The closed loop's rows are `affine_sum` of the
    recorded ``f``, ``g`` and ``pi``, and its Jacobian is compiled from
    their derivative as ``df_dx`` is from ``f``'s.  `_derivative` alone
    decides the structural zeros, left ``+0.0``.  ``safety`` holds a pair
    ``(value, gradient)`` per entry of ``h``: the value as computed (a
    numpy scalar for one state) and the gradient as a fresh ``(..., n)``
    array."""
    f, g, pi, h = statement(_SYMBOLIC, tuple(map(float.fromhex, params)),
                            *(_Sym("x", i) for i in range(n)))
    f, g, pi = (np.array(v, dtype=object) for v in (f, g, pi))
    if (f.shape, g.shape, pi.shape) != ((n,), (n, m), (m,)):
        raise ValidationError(
            f"benchmark {name!r} states f, g and pi of shapes {f.shape}, "
            f"{g.shape} and {pi.shape}, not {(n,)}, {(n, m)} and {(m,)}")
    if not (isinstance(h, tuple) and all(isinstance(e, _Sym) for e in h)):
        raise ValidationError(f"benchmark {name!r} states h as {h!r}, not "
                              f"a tuple of scalar functions of the state")

    def jacobian(t: np.ndarray) -> np.ndarray:
        return np.array([[_derivative(e, k) for k in range(n)] for e in t.flat],
                        dtype=object).reshape(t.shape + (n,))

    rows = tuple(affine_sum(f, g, pi))
    terms = {"f_eval": f, "g_eval": g, "pi_eval": pi, "df_dx": jacobian(f),
             "dg_dx": jacobian(g), "dpi_dx": jacobian(pi),
             "jacobian": jacobian(np.array(rows, dtype=object)),
             **{f"grad{i}": t for i, t in
                enumerate(jacobian(np.array(h, dtype=object)))}}
    namespace = dict(_NAMESPACE)
    exec("\n".join([_array_source(fn, t, n) for fn, t in terms.items()]
                   + [_source(f"h{i}", [e], n, lambda w: [f"return {w[0]}"])
                      for i, e in enumerate(h)]
                   + [_loop_source(rows)]), namespace)
    namespace["closed_loop"] = ClosedLoop(namespace["closed_loop"],
                                          namespace["jacobian"], rows)
    safety = tuple((namespace[f"h{i}"], namespace[f"grad{i}"])
                   for i in range(len(h)))
    return tuple(namespace[fn] for fn in ("f_eval", "g_eval", "df_dx", "dg_dx",
                                          "pi_eval", "dpi_dx", "closed_loop")
                 ) + (safety,)


def _benchmark(name: str, statement: Callable, params: tuple, lower: tuple,
               upper: tuple, state_names: tuple[str, ...],
               input_names: tuple[str, ...], safety_names: tuple[str, ...]
               ) -> tuple[SystemModel, BackupPolicy, tuple[ScalarConstraint, ...]]:
    """The model, the backup policy and the safety functions, named
    ``safety_names`` in order, generated from ``statement``."""
    n, m = len(state_names), len(input_names)
    f, g, df, dg, pi, dpi, loop, safety = _generated(
        name, statement, n, m, tuple(map(float.hex, params)))
    return (SystemModel(n, m, f, g, df, dg, lower, upper,
                        state_names=state_names, input_names=input_names),
            BackupPolicy(pi, dpi, loop),
            tuple(ScalarConstraint(*pair, name=label)
                  for pair, label in zip(safety, safety_names, strict=True)))


# ---------------------------------------------------------------------------
# toy1d: xdot = u, backup u = sat(-k x).
# ---------------------------------------------------------------------------


def _toy1d(p: Primitives, k: tuple, x):
    gain, u_max, eps, c_level, s_level = k
    return ((0.0,), ((1.0,),), (p.saturate(-gain * x, -u_max, u_max, eps),),
            (c_level - x * x, s_level - x * x))


def _build_toy1d(params: dict):
    u_max = _number(params, "u_max", 5.0)
    gain = _number(params, "gain_k", 1.0)
    c_level = _number(params, "c_level", 4.0)
    s_level = _number(params, "s_level", 1.0)
    alpha = _number(params, "alpha_gain_per_s", 1.0)
    if u_max <= 0.0 or gain <= 0.0:
        raise ValidationError("toy1d needs u_max > 0 and gain_k > 0")
    eps = _width(params, "smoothing_eps", 0.05 * u_max)
    _reject_unknown(params, "toy1d")
    _check_blend(-u_max, u_max, eps)
    model, policy, (level, terminal) = _benchmark(
        "toy1d", _toy1d, (gain, u_max, eps, c_level, s_level), (-u_max,),
        (u_max,), ("x",), ("u",), ("level", "terminal_level"))
    return model, policy, SafetySpec((level,), terminal, alpha)


# ---------------------------------------------------------------------------
# double_integrator: sdot = v, vdot = u, backup brakes while moving forward.
# ---------------------------------------------------------------------------


def _double_integrator(p: Primitives, k: tuple, s, v):
    u_max, eps, c_limit = k
    return ((v, 0.0), ((0.0,), (1.0,)), (-u_max * p.indicator(v, eps),),
            (c_limit - s, -v))


def _build_double_integrator(params: dict):
    c_limit = _number(params, "c_limit_m", 10.0)
    u_max = _number(params, "u_max_mps2", 1.0)
    v_scale = _number(params, "v_scale_mps", 5.0)
    alpha = _number(params, "alpha_gain_per_s", 1.0)
    if u_max <= 0.0 or v_scale <= 0.0:
        raise ValidationError("double_integrator needs u_max > 0, v_scale > 0")
    eps = _width(params, "smoothing_eps", 0.05 * v_scale)
    _reject_unknown(params, "double_integrator")

    model, policy, (limit, at_rest) = _benchmark(
        "double_integrator", _double_integrator, (u_max, eps, c_limit),
        (-u_max,), (u_max,), ("s", "v"), ("u",), ("position_limit", "at_rest"))
    return model, policy, SafetySpec((limit,), at_rest, alpha)


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


def _dubins(p: Primitives, k: tuple, y, v, psi):
    ky0, ky1, k_v, v_des, a_max, r_max, eps_a, eps_r, y_max, psi_max, c, *pm = k
    # c - xh' P xh about (0, v_des, 0), summed as `np.einsum` sums it: over
    # i, then j, from +0.0, each term (xh_i P_ij) xh_j
    xh, quad = (y, v - v_des, psi), 0.0
    for i in range(3):
        for j in range(3):
            quad = quad + xh[i] * pm[3 * i + j] * xh[j]
    return ((v * p.sin(psi), 0.0, 0.0),
            ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
            (p.saturate(k_v * (v_des - v), -a_max, a_max, eps_a),
             p.saturate(ky0 * y + ky1 * psi, -r_max, r_max, eps_r)),
            (y_max - y, y_max + y, psi_max - psi, psi_max + psi, c - quad))


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
    eps_frac = _width(params, "eps_frac", 0.05)
    _reject_unknown(params, "dubins")
    if min(y_max, psi_max, a_max, r_max, k_v) <= 0.0:
        raise ValidationError("dubins box parameters must be > 0")

    eps_a = _derived("eps_frac * a_max_mps2", lambda: eps_frac * a_max,
                     "eps_frac", "a_max_mps2")
    eps_r = _derived("eps_frac * r_max_radps", lambda: eps_frac * r_max,
                     "eps_frac", "r_max_radps")

    if terminal_p is None:
        if aggressive:
            # v_des = 0 makes the lateral linearization marginal in Y; use a
            # fixed diagonal form, validated in the test suite.
            p_mat = np.asarray(_DUBINS_P_AGGRESSIVE, dtype=float)
        else:
            a_cl = np.array([[0.0, 0.0, v_des],
                             [0.0, -k_v, 0.0],
                             [k_y[0], 0.0, k_y[1]]])
            try:
                p_mat = _lyapunov_3x3(a_cl)
            except np.linalg.LinAlgError:       # a singular Lyapunov operator
                p_mat = np.full((3, 3), np.nan)
            if not (np.all(np.isfinite(p_mat))
                    and np.all(np.linalg.eigvalsh(p_mat) > 0.0)):
                raise ValidationError(
                    "k_y, k_v_per_s and v_des_mps give no finite positive "
                    "definite terminal P (A^T P + P A = -I for their closed "
                    "loop linearized at v_des); pass terminal_p")
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
    model, policy, (*bounds, terminal) = _benchmark(
        "dubins", _dubins, (*k_y, k_v, v_des, a_max, r_max, eps_a, eps_r,
                            y_max, psi_max, c_level, *p_mat.flat),
        (-a_max, -r_max), (a_max, r_max), ("Y", "v", "psi"), ("a", "r"),
        ("lane_left", "lane_right", "heading_left", "heading_right",
         "settle_ellipsoid"))
    return model, policy, SafetySpec(tuple(bounds), terminal, alpha)


# ---------------------------------------------------------------------------
# aeroplane: relative coordinates (dx, dy, dpsi), scalar turn-rate input.
# ---------------------------------------------------------------------------


def _aeroplane(p: Primitives, k: tuple, dx, dy, dpsi):
    v_a, v_b, u_max, eps, r_min, r_term = k
    closing, square = -v_a + v_b * p.cos(dpsi), dx * dx + dy * dy
    # the divergence is the radial rate of the squared separation / 2,
    # independent of u since the input only rotates the relative frame
    return ((closing, v_b * p.sin(dpsi), 0.0),
            ((dy,), (-dx,), (-1.0,)),
            (-u_max * p.sign(dy, eps),),
            (square - r_min ** 2, square - r_term ** 2,
             dx * closing + dy * v_b * p.sin(dpsi)))


def _build_aeroplane(params: dict):
    v_a = _number(params, "v_a_mps", 1.0)
    v_b = _number(params, "v_b_mps", 1.0)
    u_max = _number(params, "u_max_radps", 1.0)
    r_min = _number(params, "r_min_m", 1.0)
    # the squares the statement takes (this one also bounds the default
    # 1.2 * r_min below the float range)
    _derived("r_min_m ** 2", lambda: r_min ** 2, "r_min_m")
    r_term = _number(params, "r_terminal_m", 1.2 * r_min)
    _derived("r_terminal_m ** 2", lambda: r_term ** 2, "r_terminal_m")
    alpha = _number(params, "alpha_gain_per_s", 1.0)
    if min(v_a, v_b, u_max, r_min) <= 0.0 or r_term <= r_min:
        raise ValidationError(
            "aeroplane needs positive speeds, u_max, r_min and r_terminal > r_min")
    # The turn-away policy slides along dy = 0 once the opponent falls
    # behind; the blend slope (2/eps) times |dx| sets the stiffness of the
    # variational equation, so the band is kept wide enough for the default
    # integration grid to resolve it.
    eps = _width(params, "smoothing_eps", 0.25 * r_min)
    _reject_unknown(params, "aeroplane")

    model, policy, (separation, separated, diverging) = _benchmark(
        "aeroplane", _aeroplane, (v_a, v_b, u_max, eps, r_min, r_term),
        (-u_max,), (u_max,), ("dx", "dy", "dpsi"), ("u",),
        ("separation", "separated", "diverging"))

    def h_terminal(x):
        return np.minimum(separated.h_eval(x), diverging.h_eval(x))

    def grad_terminal(x):
        # Gradient of the active min branch; separation wins ties.
        use_sep = separated.h_eval(x) <= diverging.h_eval(x)
        return np.where(use_sep[..., None], separated.grad_eval(x),
                        diverging.grad_eval(x))

    return model, policy, SafetySpec(
        (separation,), ScalarConstraint(h_terminal, grad_terminal,
                                        name="separated_diverging"), alpha)


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
