"""Model-level checks: closed forms, Jacobian consistency, benchmark wiring."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backup_cbf import systems
from backup_cbf.errors import EvaluationError, ValidationError
from backup_cbf.flow import _compiled
from backup_cbf.systems import (_DUBINS_KY_AGGRESSIVE, _DUBINS_KY_CONSERVATIVE,
                                _DUBINS_P_AGGRESSIVE, _SYMBOLIC,
                                ARRAY_PRIMITIVES, BENCHMARK_DEFAULTS,
                                BENCHMARK_NAMES, ClosedLoop, Primitives,
                                _benchmark, _generated, _statements, _Sym,
                                _lyapunov_3x3, closed_loop_rhs,
                                di_closed_form_h, loop_rhs, make_benchmark,
                                smooth_positive_indicator,
                                smooth_positive_indicator_deriv,
                                smooth_saturate, smooth_saturate_deriv,
                                smooth_sign, smooth_sign_deriv)

RNG = np.random.default_rng(20240817)

# The widest blend width of each benchmark's backup policy at its builder's
# defaults, computed as the builder computes it: 0.05 u_max, 0.05 v_scale,
# 0.05 a_max (the Dubins steering band is 0.05 r_max) and 0.25 r_min.
BLEND_WIDTHS = {"toy1d": 0.05 * 5.0, "double_integrator": 0.05 * 5.0,
                "dubins": 0.05 * 3.0, "aeroplane": 0.25 * 1.0}


def fd_jacobian(fn, x, eps=1e-6):
    """Central-difference Jacobian, the independent oracle for all
    analytic derivative evaluators."""
    x = np.asarray(x, dtype=float)
    base = np.asarray(fn(x), dtype=float)
    out = np.empty(base.shape + (x.size,))
    for j in range(x.size):
        hi = x.copy(); hi[j] += eps
        lo = x.copy(); lo[j] -= eps
        out[..., j] = (np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2.0 * eps)
    return out


def sample_box(name, count):
    d = BENCHMARK_DEFAULTS[name]
    return RNG.uniform(d["sample_lower"], d["sample_upper"],
                       size=(count, len(d["sample_lower"])))


@functools.cache
def float_kernel(loop):
    """``rhs(x0, x1, ...)`` on Python floats: the float kernel of ``loop``
    (`ClosedLoop.kernel`), the lines the single-state march inlines at each
    stage, compiled alone as the march is compiled, returning its slopes."""
    n = len(loop.rows)
    return _compiled("rhs", [
        f"def rhs({', '.join(f'x{i}' for i in range(n))}):",
        *loop.kernel("k", "x"), f"return ({''.join(f'k{i}, ' for i in range(n))})"])


def float_body(kind, *params):
    """``y -> out``: the float form of the smoothing ``kind`` at ``params``,
    the `_FLOAT_BODIES` lines as the float kernel of a one-smoothing
    statement inlines them."""
    rhs = float_kernel(ClosedLoop(None, None, (
        getattr(_SYMBOLIC, kind)(_Sym("x", 0), *params),)))
    return lambda y: rhs(y)[0]


def loop_jacobian(model, policy, x):
    """State Jacobian of the backup loop from the model's and the policy's
    evaluators, ``df + dg pi``, then ``+ g dpi``: the body `systems` had
    before each generated closed loop carried its own, kept as the oracle."""
    jac = model.df_dx(x) + np.einsum("...imk,...m->...ik", model.dg_dx(x),
                                     policy.pi_eval(x))
    return jac + np.matmul(model.g_eval(x), policy.dpi_dx(x))


# ---------------------------------------------------------------------------
# closed_loop_rhs / closed-loop Jacobian worked values
# ---------------------------------------------------------------------------


def test_toy_rhs_and_jacobian():
    model, policy, _ = make_benchmark("toy1d")
    assert np.allclose(closed_loop_rhs(model, policy, np.array([1.0])), [-1.0])
    assert np.allclose(policy.closed_loop.jacobian(np.array([1.0])), [[-1.0]])


def test_double_integrator_rhs_both_sides():
    model, policy, _ = make_benchmark("double_integrator")
    # braking engaged above the surface, idle below it
    assert np.allclose(closed_loop_rhs(model, policy, np.array([0.0, 2.0])),
                       [2.0, -1.0])
    assert np.allclose(closed_loop_rhs(model, policy, np.array([0.0, -1.0])),
                       [-1.0, 0.0])


def test_double_integrator_jacobian_saturated_region():
    # the indicator is exactly 1 for v >= 0, so its derivative is 0 there
    model, policy, _ = make_benchmark("double_integrator")
    jac = policy.closed_loop.jacobian(np.array([3.0, 2.0]))
    assert np.allclose(jac, [[0.0, 1.0], [0.0, 0.0]])


def test_dubins_jacobian_heading_entry():
    model, policy, _ = make_benchmark("dubins")
    x = np.array([0.2, 5.0, 0.0])
    jac = policy.closed_loop.jacobian(x)
    # dYdot/dpsi = v cos(psi) = v at psi = 0
    assert jac[0, 2] == pytest.approx(5.0)


def test_rhs_rejects_nonfinite():
    model, policy, _ = make_benchmark("toy1d")
    with pytest.raises(EvaluationError):
        closed_loop_rhs(model, policy, np.array([np.inf]))


# ---------------------------------------------------------------------------
# closed-form barrier oracle
# ---------------------------------------------------------------------------


def test_di_closed_form_values():
    assert di_closed_form_h(np.array([10.0, 0.0]), 10.0, 1.0) == 0.0
    assert di_closed_form_h(np.array([0.0, 2.0]), 10.0, 1.0) == pytest.approx(8.0)
    assert di_closed_form_h(np.array([0.0, -3.0]), 10.0, 1.0) == pytest.approx(10.0)


def test_di_closed_form_requires_positive_input_bound():
    with pytest.raises(ValidationError):
        di_closed_form_h(np.array([0.0, 0.0]), 10.0, 0.0)
    # a NaN bound or limit made every value NaN, and a containment check on
    # the oracle vacuous; True was taken as 1.0
    for c_limit, u_max, named in ((10.0, math.nan, "u_max"),
                                  (10.0, math.inf, "u_max"),
                                  (10.0, True, "u_max"),
                                  (math.nan, 1.0, "c_limit"),
                                  (-math.inf, 1.0, "c_limit"),
                                  (True, 1.0, "c_limit")):
        with pytest.raises(ValidationError, match=f"^{named} must be a "
                           f"finite number"):
            di_closed_form_h(np.array([0.0, 0.0]), c_limit, u_max)


# ---------------------------------------------------------------------------
# benchmark construction
# ---------------------------------------------------------------------------


def test_dubins_defaults_match_documented_bounds():
    model, _, spec = make_benchmark("dubins")
    assert len(spec.constraints) == 4
    x = np.zeros(3)
    # ordering: lane left/right, heading left/right
    vals = [c.h_eval(x) for c in spec.constraints]
    assert vals[0] == pytest.approx(1.8)
    assert vals[1] == pytest.approx(1.8)
    assert vals[2] == pytest.approx(np.pi / 3)
    assert vals[3] == pytest.approx(np.pi / 3)


def test_double_integrator_boundary():
    _, _, spec = make_benchmark("double_integrator", {"c_limit_m": 10.0})
    assert spec.constraints[0].h_eval(np.array([10.0, 0.0])) == pytest.approx(0.0)


def test_aeroplane_boundary():
    _, _, spec = make_benchmark("aeroplane", {"r_min_m": 1.0})
    assert spec.constraints[0].h_eval(np.array([1.0, 0.0, 0.0])) == \
        pytest.approx(0.0)


def test_unknown_benchmark_and_params_rejected():
    with pytest.raises(ValidationError):
        make_benchmark("pendulum")
    with pytest.raises(ValidationError):
        make_benchmark("toy1d", {"banana": 1.0})
    with pytest.raises(ValidationError):
        make_benchmark("double_integrator", {"u_max_mps2": -1.0})
    for name in BENCHMARK_NAMES:
        with pytest.raises(ValidationError):
            make_benchmark(name, {"mode": "hard"})
    # a blend band too wide for its saturation box fails at construction,
    # before the float closed loop (which does not check it) could run
    with pytest.raises(ValidationError):
        make_benchmark("dubins", {"eps_frac": 0.5})
    with pytest.raises(ValidationError):
        make_benchmark("toy1d", {"smoothing_eps": 2.5})


@pytest.mark.parametrize("name, key", [
    ("toy1d", "smoothing_eps"), ("double_integrator", "smoothing_eps"),
    ("dubins", "eps_frac"), ("aeroplane", "smoothing_eps")])
@pytest.mark.parametrize("width", [0.0, -1.0])
def test_blend_widths_must_be_positive(name, key, width):
    """Every switching primitive has one C1 body, for a blend width > 0: a
    width of 0 or below is refused with `ValidationError` naming the
    parameter given, before anything is generated."""
    make_benchmark(name)
    cached = _generated.cache_info()
    with pytest.raises(ValidationError, match=f"^{key} must be > 0, got "
                       f"{width!r}$"):
        make_benchmark(name, {key: width})
    assert _generated.cache_info() == cached


@pytest.mark.parametrize("name, params, named", [
    ("aeroplane", {"r_min_m": 1e200, "r_terminal_m": 2e200}, "'r_min_m'"),
    ("aeroplane", {"r_min_m": 1.6e308}, "'r_min_m'"),
    ("aeroplane", {"r_terminal_m": 1e155}, "'r_terminal_m'"),
    ("dubins", {"eps_frac": 1e300, "a_max_mps2": 1e10}, "'a_max_mps2'"),
    ("dubins", {"eps_frac": 1e300, "r_max_radps": 1e10}, "'r_max_radps'"),
    ("dubins", {"v_des_mps": 1e300}, "v_des_mps"),
    ("dubins", {"k_v_per_s": 1e300}, "k_v_per_s"),
    ("dubins", {"k_y": [0.0, 0.0]}, "k_y"),
    ("dubins", {"eps_frac": 5e-324}, "^eps_frac \\* r_max_radps rounds to "
     "0: parameter 'eps_frac' or 'r_max_radps' is too small$"),
    ("dubins", {"eps_frac": 1e-320, "a_max_mps2": 1e-5}, "^eps_frac \\* "
     "a_max_mps2 rounds to 0: parameter 'eps_frac' or 'a_max_mps2' is too "
     "small$"),
    ("aeroplane", {"r_min_m": 1e-170}, "^r_min_m \\*\\* 2 rounds to 0: "
     "parameter 'r_min_m' is too small$"),
])
def test_derived_constants_out_of_range_are_refused(name, params, named):
    """Finite parameters whose derived constants overflow or round to 0
    (the aeroplane's squared radii, the Dubins blend widths) or leave the
    Dubins terminal ``P`` without a finite positive definite solution are
    refused with a `ValidationError` that names them, not a bare
    ``OverflowError`` or ``LinAlgError`` (a Dubins width that rounded to 0
    reached the saturation's own width check, which names no
    parameter)."""
    with pytest.raises(ValidationError, match=named):
        make_benchmark(name, params)


def test_derived_constants_in_range_are_kept():
    """Radii just inside the float range of their squares still build."""
    model, _, spec = make_benchmark("aeroplane", {"r_min_m": 1e150})
    assert spec.constraints[0].h_eval(np.zeros(3)) == -(1e150 ** 2)
    make_benchmark("aeroplane", {"r_min_m": 1.0, "r_terminal_m": 1e154})


# ---------------------------------------------------------------------------
# invariants: policy in box, Jacobians vs finite differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   np.float64(math.nan), True, None, "1.0"])
@pytest.mark.parametrize("field", ["alpha_gain", "smoothing_eps"])
def test_gains_must_be_finite_numbers(field, value):
    """`SafetySpec` refuses an ``alpha_gain``, when made directly or by
    `dataclasses.replace`, and the builder a blend width ``smoothing_eps``,
    that is not a finite number, with `ValidationError` naming it (a NaN or
    infinite one used to pass, and a NaN gain to surface only as the QP's
    "rows and rhs must be finite").  The width is a builder parameter
    only: the policy keeps no copy of it."""
    _, _, spec = make_benchmark("toy1d")
    made = {"alpha_gain": lambda v: dataclasses.replace(spec, alpha_gain=v),
            "smoothing_eps": lambda v: make_benchmark(
                "toy1d", {"smoothing_eps": v})[1]}[field]
    with pytest.raises(ValidationError, match=f"{field}'? must be (a )?"
                       f"finite number"):
        made(value)
    made(np.float64(0.5))


@pytest.mark.parametrize("dims", [(2.5, 1), (True, 1), (2, 1.0), (2, False),
                                  (0, 1), (2, -1), ("2", 1), (None, 1),
                                  (np.float64(2.0), 1)])
def test_model_dimensions_must_be_integers(dims):
    """`SystemModel` refuses a ``state_dim`` or ``input_dim`` that is not
    an integer >= 1 with `ValidationError` (``2.5`` used to raise a bare
    `TypeError`, and ``True`` to be taken as 1); numpy integers are
    accepted."""
    model, _, _ = make_benchmark("double_integrator")
    state_dim, input_dim = dims
    with pytest.raises(ValidationError, match="state_dim and input_dim must "
                       "be integers >= 1"):
        dataclasses.replace(model, state_dim=state_dim, input_dim=input_dim)
    assert dataclasses.replace(model, state_dim=np.int64(2)).state_dim == 2


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_policy_respects_input_box(name):
    model, policy, _ = make_benchmark(name)
    states = sample_box(name, 1000)
    u = policy.pi_eval(states)
    assert np.all(u >= model.input_lower - 0.0)
    assert np.all(u <= model.input_upper + 0.0)


def _far_from_switching(name, states, eps):
    """Keep samples at least 3*eps away from the policy's blend bands."""
    if name == "toy1d":
        return states  # feedback is linear throughout the sample box
    if name == "double_integrator":
        v = states[:, 1]
        return states[(v > 3 * eps) | (v < -4 * eps)]
    if name == "aeroplane":
        return states[np.abs(states[:, 1]) > 3 * eps]
    model, policy, _ = make_benchmark(name)
    # dubins: keep both commanded channels away from their saturation bands
    a_raw = 1.0 * (5.0 - states[:, 1])
    r_raw = policy.pi_eval(states)[:, 1]
    keep = (np.abs(np.abs(a_raw) - 3.0) > 3 * 0.15) & (np.abs(r_raw) < 0.4)
    return states[keep]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_closed_loop_jacobian_matches_finite_differences(name):
    model, policy, _ = make_benchmark(name)
    states = _far_from_switching(name, sample_box(name, 200),
                                 BLEND_WIDTHS[name])
    assert len(states) > 20
    for x in states[:40]:
        jac = policy.closed_loop.jacobian(x)
        fd = fd_jacobian(lambda y: closed_loop_rhs(model, policy, y), x)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(jac - fd)) / scale < 1e-4


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_model_jacobians_match_finite_differences(name):
    model, _, _ = make_benchmark(name)
    for x in sample_box(name, 10):
        fd_f = fd_jacobian(model.f_eval, x)
        assert np.max(np.abs(model.df_dx(x) - fd_f)) < 1e-5 * max(
            1.0, np.max(np.abs(fd_f)))
        fd_g = fd_jacobian(model.g_eval, x)
        assert np.max(np.abs(model.dg_dx(x) - fd_g)) < 1e-5 * max(
            1.0, np.max(np.abs(fd_g)))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_constraint_gradients_match_finite_differences(name):
    _, _, spec = make_benchmark(name)
    for fn in list(spec.constraints) + [spec.terminal]:
        for x in sample_box(name, 8):
            fd = fd_jacobian(lambda y: np.atleast_1d(fn.h_eval(y)), x)[0]
            grad = np.asarray(fn.grad_eval(x))
            denom = max(1.0, np.max(np.abs(fd)))
            # min-type terminals are checked away from the branch boundary
            if np.max(np.abs(grad - fd)) / denom >= 1e-6:
                assert name == "aeroplane" and fn.name == "separated_diverging"


def test_aeroplane_separation_rate_identity():
    """d(dx^2+dy^2)/dt must equal 2(dx dxdot + dy dydot) with the input
    terms cancelling: the turn input only rotates the relative frame."""
    model, _, _ = make_benchmark("aeroplane")
    states = sample_box("aeroplane", 50)
    for u_val in (-1.0, 0.0, 1.0):
        u = np.full((50, 1), u_val)
        xdot = model.f_eval(states) + (model.g_eval(states) @ u[..., None])[..., 0]
        rate = 2.0 * (states[:, 0] * xdot[:, 0] + states[:, 1] * xdot[:, 1])
        f_only = model.f_eval(states)
        rate_drift = 2.0 * (states[:, 0] * f_only[:, 0]
                            + states[:, 1] * f_only[:, 1])
        assert np.allclose(rate, rate_drift, atol=1e-12)


# ---------------------------------------------------------------------------
# policy Jacobians near and away from switching surfaces
# ---------------------------------------------------------------------------


def test_policy_jacobian_fd_away_from_surfaces():
    model, policy, _ = make_benchmark("double_integrator")
    eps = BLEND_WIDTHS["double_integrator"]
    for v in (2.0, -3.0, 5 * eps, -5 * eps):
        x = np.array([1.0, v])
        fd = fd_jacobian(policy.pi_eval, x)
        assert np.max(np.abs(policy.dpi_dx(x) - fd)) < 1e-4


def test_smoothings_are_exact_outside_band():
    assert smooth_positive_indicator(0.0, 0.25) == 1.0
    assert smooth_positive_indicator(-0.25, 0.25) == 0.0
    assert smooth_sign(0.3, 0.25) == 1.0
    assert smooth_sign(-0.3, 0.25) == -1.0
    assert smooth_saturate(1.0, -3.0, 3.0, 0.15) == 1.0
    assert smooth_saturate(5.0, -3.0, 3.0, 0.15) == 3.0


@pytest.mark.parametrize("y", [2.99, 5.0, -2.99, 1.0])
def test_smooth_saturate_of_a_0d_input_is_a_writable_array(y):
    """0-d input goes through the band blend like a batch entry (inside a
    band, on the clip, or on the interior) and comes back as a writable
    0-d array with the batch bits."""
    out = smooth_saturate(np.float64(y), -3.0, 3.0, 0.15)
    assert isinstance(out, np.ndarray) and out.ndim == 0
    assert out.flags.writeable
    batch = smooth_saturate(np.array([y]), -3.0, 3.0, 0.15)
    assert out.tobytes() == batch[0].tobytes()


def test_smoothings_scalar_and_batch_agree():
    vs = np.linspace(-0.6, 0.6, 41)
    batch = smooth_positive_indicator(vs, 0.25)
    singles = np.array([smooth_positive_indicator(v, 0.25) for v in vs])
    assert np.allclose(batch, singles)
    batch = smooth_saturate(vs, -0.3, 0.3, 0.02)
    singles = np.array([smooth_saturate(v, -0.3, 0.3, 0.02) for v in vs])
    assert np.allclose(batch, singles)
    for fn in (lambda v: smooth_positive_indicator_deriv(v, 0.25),
               lambda v: smooth_sign_deriv(v, 0.25),
               lambda v: smooth_saturate_deriv(v, -0.3, 0.3, 0.025)):
        batch = fn(vs)
        singles = np.array([fn(v) for v in vs])
        assert singles.shape == batch.shape
        assert np.allclose(batch, singles)


# ---------------------------------------------------------------------------
# the float closed loop against the array path
# ---------------------------------------------------------------------------

LOOP_CASES = [("toy1d", {}), ("double_integrator", {}),
              ("dubins", {"profile": "conservative"}),
              ("dubins", {"profile": "aggressive"}), ("aeroplane", {})]


def _saturation_points(bound, eps):
    """Switching surfaces of a saturation to [-bound, bound] (each bound
    and its blend-band edges) and its two blend bands."""
    surfaces = [s * bound + d for s in (-1.0, 1.0) for d in (-eps, 0.0, eps)]
    bands = [(s * bound - eps, s * bound + eps) for s in (-1.0, 1.0)]
    return surfaces, bands


def _switching_channels(name, params, model, policy):
    """``(coordinate, raw, surfaces, bands)`` per switching nonlinearity of
    the backup policy: ``raw(x)`` is its argument, affine in ``x[coordinate]``
    and written in the policy's operation order."""
    eps = BLEND_WIDTHS[name]
    if name == "toy1d":
        return [(0, lambda x: -1.0 * x[0],
                 *_saturation_points(model.input_upper[0], eps))]
    if name == "double_integrator":
        return [(1, lambda x: x[1], [0.0, -0.0, -eps], [(-eps, 0.0)])]
    if name == "aeroplane":
        return [(1, lambda x: x[1], [0.0, -0.0, eps, -eps], [(-eps, eps)])]
    aggressive = params["profile"] == "aggressive"
    v_des = 0.0 if aggressive else 5.0
    ky0, ky1 = _DUBINS_KY_AGGRESSIVE if aggressive else _DUBINS_KY_CONSERVATIVE
    eps_frac = params.get("eps_frac", 0.05)
    a_max, r_max = model.input_upper
    return [(1, lambda x: 1.0 * (v_des - x[1]),
             *_saturation_points(a_max, eps_frac * a_max)),
            (2, lambda x: ky0 * x[0] + ky1 * x[2],
             *_saturation_points(r_max, eps_frac * r_max))]


def _on_surface(x, coordinate, raw, target):
    """``x`` with ``x[coordinate]`` moved to where ``raw(x) == target``,
    exactly if a float within 8 ulps of the affine solution gives it."""
    x = list(x)
    x[coordinate] = 0.0
    offset = raw(x)
    x[coordinate] = 1.0
    guess = (target - offset) / (raw(x) - offset)
    candidates = [guess]
    up = down = guess
    for _ in range(8):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        candidates += [up, down]
    for c in candidates:
        x[coordinate] = c
        if raw(x) == target:
            return tuple(x)
    x[coordinate] = guess
    return tuple(x)


def _draw_states(data, name, params, model, policy):
    """States from the sampling box, inside every blend band of the backup
    policy and on every switching surface."""
    box = BENCHMARK_DEFAULTS[name]
    in_box = st.tuples(*[st.floats(lo, hi) for lo, hi in
                         zip(box["sample_lower"], box["sample_upper"])])
    states = [data.draw(in_box) for _ in range(3)]
    for coordinate, raw, surfaces, bands in _switching_channels(
            name, params, model, policy):
        targets = st.one_of(st.sampled_from(surfaces),
                            *[st.floats(lo, hi) for lo, hi in bands])
        for _ in range(3):
            states.append(_on_surface(data.draw(in_box), coordinate, raw,
                                      data.draw(targets)))
    return states


LOOP_CASE_IDS = [f"{n}-{'-'.join(f'{k}={v}' for k, v in p.items())}"
                 for n, p in LOOP_CASES]


@pytest.mark.parametrize("case", LOOP_CASES, ids=LOOP_CASE_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loop_floats_match_array_path(case, data):
    """The float kernel (`float_kernel`) on each state, and the
    per-component array closed loop on the stacked states, give the bits of
    the stacked array path (signed zeros included) on states drawn from the
    sampling box, inside every blend band and on every switching surface."""
    name, params = case
    model, policy, _ = make_benchmark(name, params)
    states = _draw_states(data, name, params, model, policy)
    stacked = np.array(states)
    derivs = loop_rhs(model, policy, stacked)
    for x, expected in zip(states, derivs):
        got = np.array(float_kernel(policy.closed_loop)(*x))
        assert got.tobytes() == expected.tobytes(), \
            f"{name} {params} at x = {x!r}: float kernel {got!r}, array path {expected!r}"
    got = np.stack(policy.closed_loop.build(ARRAY_PRIMITIVES)(*stacked.T.copy()),
                   axis=-1)
    assert got.tobytes() == derivs.tobytes(), \
        f"{name} {params} at x = {states!r}: array build {got!r}, array path {derivs!r}"


def reference_loop_rhs(model, policy, x):
    """`loop_rhs` with ``g pi`` as one stacked matmul, the body it had
    before the per-channel sum, kept verbatim as the reference."""
    u = policy.pi_eval(x)
    g = model.g_eval(x)
    return model.f_eval(x) + np.matmul(g, u[..., None])[..., 0]


def same_bits(a, b):
    """Equal shapes and equal bytes: signs of zeros count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", LOOP_CASES, ids=LOOP_CASE_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loop_rhs_matches_stacked_matmul(case, data):
    """On every benchmark (each row of ``g`` has at most one nonzero) the
    per-channel sum gives the stacked matmul's bits, signs of zeros
    included, stacked and one state at a time."""
    name, params = case
    model, policy, _ = make_benchmark(name, params)
    states = _draw_states(data, name, params, model, policy)
    zeros = st.sampled_from([0.0, -0.0])
    states.append(data.draw(st.tuples(*[zeros] * model.state_dim)))
    stacked = np.array(states)
    assert same_bits(loop_rhs(model, policy, stacked),
                     reference_loop_rhs(model, policy, stacked)), f"{name} {params}"
    for x in states:
        x = np.array(x)
        assert same_bits(loop_rhs(model, policy, x),
                         reference_loop_rhs(model, policy, x)), \
            f"{name} {params} at x = {x.tolist()!r}"


@pytest.mark.parametrize("case", LOOP_CASES, ids=LOOP_CASE_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_generated_jacobian_matches_loop_jacobian(case, data):
    """The closed loop's Jacobian, the derivative of its rows, equals the
    `loop_jacobian` oracle in value, stacked and one state at a time, on
    states drawn from the sampling box, inside every blend band, on every
    switching surface and at a state of signed zeros.  A zero may carry
    the other sign (``==`` counts ``+0.0`` and ``-0.0`` equal): the
    oracle's sum starts from the ``+0.0`` of ``df_dx``'s zeros, the rows'
    derivative from their first term.  On NaN and infinite probes it is
    finite wherever the oracle is, and equal to it there; where the oracle
    multiplies a structural zero of ``dpi`` by a NaN ``g``, the rows'
    derivative, which leaves that product out, may stay finite."""
    name, params = case
    model, policy, _ = make_benchmark(name, params)
    states = _draw_states(data, name, params, model, policy)
    zeros = st.sampled_from([0.0, -0.0])
    states.append(data.draw(st.tuples(*[zeros] * model.state_dim)))
    stacked = np.array(states)
    jacobian = policy.closed_loop.jacobian
    assert np.array_equal(jacobian(stacked),
                          loop_jacobian(model, policy, stacked)), \
        f"{name} {params}"
    for x in stacked:
        assert np.array_equal(jacobian(x), loop_jacobian(model, policy, x)), \
            f"{name} {params} at x = {x.tolist()!r}"
    probes = np.repeat(stacked[:1], 3 * model.state_dim, axis=0)
    for k in range(model.state_dim):
        probes[3 * k:3 * k + 3, k] = (math.nan, math.inf, -math.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        got, oracle = jacobian(probes), loop_jacobian(model, policy, probes)
    finite = np.isfinite(oracle)
    assert got.shape == oracle.shape
    assert np.array_equal(got[finite], oracle[finite]), f"{name} {params}"


def dense_channels(p, k, a, b, c):
    """A 3-state statement with ``len(k) / 3`` inputs and a dense,
    state-dependent ``g`` whose rows have no zero, unlike every benchmark:
    ``f = sin(x)``, ``g_ij = cos(x_i w_ij) + w_ij``, ``pi_j = sin(x . w_j)``,
    with ``w`` the ``(3, m)`` matrix ``k``."""
    x, m = (a, b, c), len(k) // 3
    w = [k[m * i:m * (i + 1)] for i in range(3)]
    return (tuple(p.sin(v) for v in x),
            tuple(tuple(p.cos(x[i] * w[i][j]) + w[i][j] for j in range(m))
                  for i in range(3)),
            tuple(p.sin((a * w[0][j] + b * w[1][j]) + c * w[2][j])
                  for j in range(m)),
            (a,))


def dense_model(m):
    """`dense_channels` with ``m`` inputs in ``[-1, 1]``."""
    model, policy, _ = _benchmark(
        "dense_channels", dense_channels,
        tuple(np.linspace(0.3, 1.7, 3 * m)), (-1.0,) * m, (1.0,) * m,
        ("a", "b", "c"), tuple(f"u{j}" for j in range(m)), ("a",))
    return model, policy


@pytest.mark.parametrize("m", [2, 3])
def test_loop_rhs_dense_g_sums_per_channel(m):
    """With a dense ``g`` the documented order holds: each row is
    ``f_i + (((0.0 + g_i0 u_0) + g_i1 u_1) + ...)``, products rounded one
    by one, and stacked rows equal single-state calls."""
    model, policy = dense_model(m)
    states = np.random.default_rng(m).uniform(-2.0, 2.0, size=(50, 3))
    stacked = loop_rhs(model, policy, states)
    for x, row in zip(states, stacked):
        g = model.g_eval(x).tolist()
        u = policy.pi_eval(x).tolist()
        expected = []
        for f_i, g_i in zip(model.f_eval(x).tolist(), g):
            acc = 0.0
            for g_ij, u_j in zip(g_i, u):
                acc = acc + g_ij * u_j
            expected.append(f_i + acc)
        assert same_bits(row, np.array(expected))
        assert same_bits(loop_rhs(model, policy, x), row)


def reference_smooth_saturate(y, lo, hi, eps):
    """`smooth_saturate` blending over the whole array with ``np.where``,
    the body it had before the band-only blend, kept verbatim."""
    y = np.asarray(y, dtype=float)
    out = np.clip(y, lo, hi)
    if eps == 0.0:
        return out
    out = np.where((y > hi - eps) & (y < hi + eps),
                   y - (y - (hi - eps)) ** 2 / (4.0 * eps), out)
    out = np.where((y > lo - eps) & (y < lo + eps),
                   y + ((lo + eps) - y) ** 2 / (4.0 * eps), out)
    return out


def reference_smooth_saturate_deriv(y, lo, hi, eps):
    """`smooth_saturate_deriv` with whole-array ``np.where`` blends, the
    body it had before the band-only blend, kept verbatim."""
    y = np.asarray(y, dtype=float)
    if eps == 0.0:
        return ((y > lo) & (y < hi)).astype(float)
    d = np.where((y > lo - eps) & (y < hi + eps), 1.0, 0.0)
    d = np.where((y > hi - eps) & (y < hi + eps),
                 1.0 - (y - (hi - eps)) / (2.0 * eps), d)
    d = np.where((y > lo - eps) & (y < lo + eps),
                 1.0 - ((lo + eps) - y) / (2.0 * eps), d)
    return d


def _saturation_probes(lo, hi, eps):
    """Band edges and bounds with their float neighbours, signed zeros,
    and points inside each band and well outside the box."""
    probes = [0.0, -0.0, lo - 1.0, hi + 1.0, 0.5 * (lo + hi)]
    for edge in (lo - eps, lo, lo + eps, hi - eps, hi, hi + eps):
        probes += [edge, math.nextafter(edge, -math.inf),
                   math.nextafter(edge, math.inf)]
    probes += list(np.linspace(lo - eps, lo + eps, 7))
    probes += list(np.linspace(hi - eps, hi + eps, 7))
    return probes


@pytest.mark.parametrize("lo, hi, eps", [(-3.0, 3.0, 0.15), (-0.5, 0.5, 0.025),
                                         (0.0, 2.0, 0.1)])
@pytest.mark.parametrize("fn, reference", [
    (smooth_saturate, reference_smooth_saturate),
    (smooth_saturate_deriv, reference_smooth_saturate_deriv)],
    ids=["value", "deriv"])
def test_band_only_saturation_matches_where_blend(lo, hi, eps, fn, reference):
    """Same bits and signs as the whole-array blend on a batch, on 0-d
    arrays and on Python floats, including the band edges and ``+-0.0``;
    the return types match too."""
    probes = _saturation_probes(lo, hi, eps)
    assert same_bits(fn(np.array(probes), lo, hi, eps),
                     reference(np.array(probes), lo, hi, eps))
    assert same_bits(fn(np.array(probes).reshape(1, -1, 1), lo, hi, eps),
                     reference(np.array(probes).reshape(1, -1, 1), lo, hi, eps))
    for y in probes:
        for arg in (y, np.array(y)):
            got, expected = fn(arg, lo, hi, eps), reference(arg, lo, hi, eps)
            assert type(got) is type(expected)
            assert same_bits(got, expected), f"y = {y!r}"


@settings(max_examples=200, deadline=None)
@given(y=st.lists(st.one_of(st.floats(-3.3, -2.7), st.floats(2.7, 3.3),
                            st.floats(-10.0, 10.0)), min_size=1, max_size=40))
def test_band_only_saturation_matches_where_blend_on_random_batches(y):
    for fn, reference in ((smooth_saturate, reference_smooth_saturate),
                          (smooth_saturate_deriv,
                           reference_smooth_saturate_deriv)):
        assert same_bits(fn(np.array(y), -3.0, 3.0, 0.15),
                         reference(np.array(y), -3.0, 3.0, 0.15))


def former_smooth_positive_indicator(v, eps):
    """`smooth_positive_indicator` through ``np.clip``, the body it had
    before it called the clip ufunc, kept verbatim."""
    v = np.asarray(v, dtype=float)
    if eps == 0.0:
        return (v > 0.0).astype(float)
    t = np.clip((v + eps) / eps, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def former_smooth_sign(y, eps):
    """`smooth_sign` through ``np.clip``, kept verbatim."""
    y = np.asarray(y, dtype=float)
    if eps == 0.0:
        return np.sign(y)
    q = np.clip(y / eps, -1.0, 1.0)
    return q * (2.0 - np.abs(q))


def former_smooth_saturate(y, lo, hi, eps):
    """`smooth_saturate` through ``np.clip``, gathering and scattering each
    band even when it is empty, kept verbatim."""
    y = np.asarray(y, dtype=float)
    if eps == 0.0:
        return np.clip(y, lo, hi)
    out = np.clip(y, lo, hi)
    if out.ndim == 0:
        out = np.array(out)
    band = (y > hi - eps) & (y < hi + eps)
    yb = y[band]
    out[band] = yb - (yb - (hi - eps)) ** 2 / (4.0 * eps)
    band = (y > lo - eps) & (y < lo + eps)
    yb = y[band]
    out[band] = yb + ((lo + eps) - yb) ** 2 / (4.0 * eps)
    return out


def _edge_probes(edges):
    """NaN, +-0.0, +-inf, +-1e308, and each edge with its two `nextafter`
    neighbours."""
    out = [math.nan, 0.0, -0.0, math.inf, -math.inf, 1e308, -1e308]
    for e in edges:
        out += [e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)]
    return out


def _smoothing_cases():
    """(smoothing, former body, parameters, probes): the edges are each
    band's ends and the clamps."""
    for eps in (0.25, 1e-3):
        yield (smooth_positive_indicator, former_smooth_positive_indicator,
               (eps,), _edge_probes([-eps, 0.0, -0.5 * eps, 1.0]))
        yield (smooth_sign, former_smooth_sign, (eps,),
               _edge_probes([-eps, eps, 0.0, 0.5 * eps, 2.0]))
    for lo, hi, eps in ((-3.0, 3.0, 0.15), (0.0, 2.0, 0.1)):
        yield (smooth_saturate, former_smooth_saturate, (lo, hi, eps),
               _edge_probes([lo - eps, lo, lo + eps, hi - eps, hi, hi + eps,
                             0.5 * (lo + hi)]))


SMOOTHING_CASES = list(_smoothing_cases())


@pytest.mark.parametrize("fn, former, params, probes", SMOOTHING_CASES,
                         ids=[f"{c[0].__name__}-{c[2]}" for c in SMOOTHING_CASES])
def test_smoothings_match_their_np_clip_bodies(fn, former, params, probes):
    """The smoothings that call the clip ufunc (and skip an empty band)
    give the bits and the type of their former ``np.clip`` bodies on a
    Python float, a numpy scalar, a 0-d array, a (1,) array and a batch,
    at NaN, +-0, +-inf, +-1e308 and each band edge with its neighbours."""
    with np.errstate(over="ignore", invalid="ignore"):     # +-1e308 / eps
        for y in probes:
            for arg in (y, np.float64(y), np.array(y), np.array([y])):
                got, want = fn(arg, *params), former(arg, *params)
                assert type(got) is type(want), (y, params)
                assert same_bits(got, want), (y, params)
        batch = np.array(probes)
        assert same_bits(fn(batch, *params), former(batch, *params))
        assert same_bits(fn(batch.reshape(-1, 1), *params),
                         former(batch.reshape(-1, 1), *params))


@pytest.mark.parametrize("eps", [0.25])
def test_float_twins_match_their_array_primitives_on_special_values(eps):
    """Each smoothing's float form, as a kernel inlines it (`float_body`),
    gives the bits of its array primitive at NaN, +-0.0 and +-inf.  The NaN
    is the positive one: a blend of a negative NaN multiplies two NaNs of
    opposite sign, and which one CPython returns changes once it
    specializes the multiply."""
    for y in (math.nan, 0.0, -0.0, math.inf, -math.inf):
        for kind, array in (("indicator", smooth_positive_indicator),
                            ("sign", smooth_sign)):
            assert same_bits(float_body(kind, eps)(y),
                             array(np.array(y), eps)), (kind, y)
        assert same_bits(float_body("saturate", -3.0, 3.0, eps)(y),
                         smooth_saturate(np.array(y), -3.0, 3.0, eps)), y


# ---------------------------------------------------------------------------
# Constant terms and safety functions against the bodies they had before
# they were generated, each kept verbatim below.
# ---------------------------------------------------------------------------


def former_constant(value):
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


def former_toy(c_level, s_level):
    def f(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1] + (1, 1))

    def df(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (1, 1))

    return {"f": f, "g": g, "df": df,
            "level.h": lambda x: c_level - np.asarray(x, dtype=float)[..., 0] ** 2,
            "level.grad": lambda x: -2.0 * np.asarray(x, dtype=float)[..., :1],
            "terminal_level.h": lambda x: s_level - np.asarray(x, dtype=float)[..., 0] ** 2,
            "terminal_level.grad": lambda x: -2.0 * np.asarray(x, dtype=float)[..., :1]}


def former_double_integrator(c_limit):
    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 1))
        out[..., 1, 0] = 1.0
        return out

    def df(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = 1.0
        return out

    return {"g": g, "df": df,
            "position_limit.h": lambda x: c_limit - np.asarray(x, dtype=float)[..., 0],
            "position_limit.grad": lambda x: np.broadcast_to(
                np.array([-1.0, 0.0]),
                np.asarray(x, dtype=float).shape).copy(),
            "at_rest.h": lambda x: -np.asarray(x, dtype=float)[..., 1],
            "at_rest.grad": lambda x: np.broadcast_to(
                np.array([0.0, -1.0]),
                np.asarray(x, dtype=float).shape).copy()}


def former_settle_ellipsoid(p_mat, v_des, c_level):
    offset = np.array([0.0, v_des, 0.0])

    def h_terminal(x):
        xh = np.asarray(x, dtype=float) - offset
        return c_level - np.einsum("...i,ij,...j->...", xh, p_mat, xh)

    def grad_terminal(x):
        xh = np.asarray(x, dtype=float) - offset
        return -2.0 * np.einsum("ij,...j->...i", p_mat, xh)

    return {"settle_ellipsoid.h": h_terminal,
            "settle_ellipsoid.grad": grad_terminal}


def former_dubins(y_max, psi_max, terminal=None):
    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3, 2))
        out[..., 1, 0] = 1.0
        out[..., 2, 1] = 1.0
        return out

    def bound(idx, limit, sign):
        grad_vec = np.zeros(3)
        grad_vec[idx] = -sign

        def h(x, idx=idx, limit=limit, sign=sign):
            return limit - sign * np.asarray(x, dtype=float)[..., idx]

        def grad(x, grad_vec=grad_vec):
            return np.broadcast_to(grad_vec,
                                   np.asarray(x, dtype=float).shape).copy()

        return h, grad

    out = {"g": g}
    if terminal is not None:
        out.update(former_settle_ellipsoid(*terminal))
    for name, args in (("lane_left", (0, y_max, +1.0)),
                       ("lane_right", (0, y_max, -1.0)),
                       ("heading_left", (2, psi_max, +1.0)),
                       ("heading_right", (2, psi_max, -1.0))):
        out[name + ".h"], out[name + ".grad"] = bound(*args)
    return out


def former_aeroplane(v_a, v_b, r_min, r_term):
    def dg(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3, 1, 3))
        out[..., 0, 0, 1] = 1.0
        out[..., 1, 0, 0] = -1.0
        return out

    def separation(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 + x[..., 1] ** 2 - r_min ** 2

    def grad_separation(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = 2.0 * x[..., 0]
        out[..., 1] = 2.0 * x[..., 1]
        return out

    def divergence(x):
        x = np.asarray(x, dtype=float)
        return (x[..., 0] * (-v_a + v_b * np.cos(x[..., 2]))
                + x[..., 1] * v_b * np.sin(x[..., 2]))

    def grad_divergence(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = -v_a + v_b * np.cos(x[..., 2])
        out[..., 1] = v_b * np.sin(x[..., 2])
        out[..., 2] = (-x[..., 0] * v_b * np.sin(x[..., 2])
                       + x[..., 1] * v_b * np.cos(x[..., 2]))
        return out

    def h_terminal(x):
        x = np.asarray(x, dtype=float)
        sep = x[..., 0] ** 2 + x[..., 1] ** 2 - r_term ** 2
        return np.minimum(sep, divergence(x))

    def grad_terminal(x):
        x = np.asarray(x, dtype=float)
        sep = x[..., 0] ** 2 + x[..., 1] ** 2 - r_term ** 2
        use_sep = sep <= divergence(x)
        g_sep = np.zeros_like(x)
        g_sep[..., 0] = 2.0 * x[..., 0]
        g_sep[..., 1] = 2.0 * x[..., 1]
        return np.where(use_sep[..., None], g_sep, grad_divergence(x))

    return {"dg": dg, "separation.h": separation,
            "separation.grad": grad_separation,
            "separated_diverging.h": h_terminal,
            "separated_diverging.grad": grad_terminal}


def current_evaluators(model, spec):
    """The same keys on a built benchmark: model terms by short name, each
    constraint's ``h``/``grad`` by constraint name."""
    out = {"f": model.f_eval, "g": model.g_eval, "df": model.df_dx,
           "dg": model.dg_dx}
    for c in spec.constraints + (spec.terminal,):
        out[c.name + ".h"], out[c.name + ".grad"] = c.h_eval, c.grad_eval
    return out


_P_CONSERVATIVE = _lyapunov_3x3(np.array([[0.0, 0.0, 5.0], [0.0, -1.0, 0.0],
                                           [_DUBINS_KY_CONSERVATIVE[0], 0.0,
                                            _DUBINS_KY_CONSERVATIVE[1]]]))
_P_USER = ((2.0, 0.3, 0.1), (0.3, 1.5, -0.2), (0.1, -0.2, 0.7))

# Each case with the keys of the gradients that forward differentiation
# rounds otherwise than the former body, in the last bits: a dense Dubins
# ``P`` is differentiated term by term, not as ``-2 P xh``, and the aeroplane
# terminal's ``dpsi`` entry is ``dx (v_b (-sin))`` against the former
# ``((-dx) v_b) sin``, which round alike where ``v_b`` is a power of two.
FORMER_CASES = [
    ("toy1d", {}, former_toy(4.0, 1.0), ()),
    ("toy1d", {"c_level": 2.5, "s_level": 0.0}, former_toy(2.5, 0.0), ()),
    ("double_integrator", {}, former_double_integrator(10.0), ()),
    ("double_integrator", {"c_limit_m": 0.0}, former_double_integrator(0.0), ()),
    ("dubins", {}, former_dubins(1.8, np.pi / 3, (_P_CONSERVATIVE, 5.0, 1.0)),
     ("settle_ellipsoid.grad",)),
    ("dubins", {"profile": "aggressive", "y_max_m": 0.75, "psi_max_rad": 0.5},
     former_dubins(0.75, 0.5, (np.array(_DUBINS_P_AGGRESSIVE), 0.0, 0.5)), ()),
    ("aeroplane", {}, former_aeroplane(1.0, 1.0, 1.0, 1.2), ()),
    ("aeroplane", {"v_a_mps": 1.5, "v_b_mps": 0.5, "r_min_m": 2.0,
                   "r_terminal_m": 3.0}, former_aeroplane(1.5, 0.5, 2.0, 3.0), ()),
    ("dubins", {"terminal_p": _P_USER, "terminal_c": 2.0},
     former_dubins(1.8, np.pi / 3, (np.array(_P_USER), 5.0, 2.0)),
     ("settle_ellipsoid.grad",)),
    ("aeroplane", {"v_b_mps": 1.3}, former_aeroplane(1.0, 1.3, 1.0, 1.2),
     ("separated_diverging.grad",)),
]
FORMER_IDS = [f"{c[0]}-{i}" for i, c in enumerate(FORMER_CASES)]
# how far a gradient of a case's list may be from the former body's on the
# sampling box (measured: 3.6e-15)
LAST_BITS = 1e-14


def _former_states(name, n):
    """Sampled states with ``+-0.0`` entries mixed in, as a (4, 5, n) block."""
    rng = np.random.default_rng(n)
    d = BENCHMARK_DEFAULTS[name]
    states = rng.uniform(d["sample_lower"], d["sample_upper"], size=(20, n))
    states[:4] = 0.0
    states[1::2, :] *= -1.0
    states[4:8, 0] = -0.0
    states[8:12, -1] = 0.0
    return states.reshape(4, 5, n)


# Entries of the generated gradients whose zero may carry the other sign
# than the former body's on finite states: the Dubins terminal sums its
# terms from the first, not from ``+0.0`` as `np.einsum` does, so its
# gradient at ``xh = -0.0`` is ``+0.0``.
FINITE_SIGN_ONLY = {("dubins", "settle_ellipsoid.grad"): {0, 1, 2}}
# ... and whose NaN or zero may carry the other sign on the probe rows of
# NaN and +-inf: ``d (x x)`` is ``x + x``, negated after the sum, against
# ``-2.0 x``, and the aeroplane terminal's ``dpsi`` entry is written as in
# `FORMER_CASES`.
SIGN_ONLY = {**FINITE_SIGN_ONLY, ("toy1d", "level.grad"): {0},
             ("toy1d", "terminal_level.grad"): {0},
             ("aeroplane", "separated_diverging.grad"): {2}}


def former_deviations(key, rounded, got, expected, batch) -> set:
    """The entries (flat indices past the ``batch`` axes) where ``got``
    differs from ``expected`` in the sign of a NaN or of a zero only, after
    asserting the same type, dtype and shape, and the same bytes elsewhere:
    for a key in ``rounded``, finite values within `LAST_BITS`."""
    assert type(got) is type(expected) and np.shape(got) == np.shape(expected), key
    assert np.asarray(got).dtype == np.asarray(expected).dtype == np.float64, key
    got, expected = (np.asarray(v, dtype=float).reshape(math.prod(batch), -1)
                     for v in (got, expected))
    differ = got.view(np.int64) != expected.view(np.int64)
    sign = differ & ((np.isnan(got) & np.isnan(expected))
                     | ((got == 0.0) & (expected == 0.0)))
    rest = differ & ~sign
    if key in rounded:
        assert np.all(np.abs(got[rest] - expected[rest]) <= LAST_BITS), key
    else:
        assert not rest.any(), key
    return set(np.flatnonzero(sign.any(axis=0)).tolist())


@pytest.mark.parametrize("name, params, former, rounded", FORMER_CASES,
                         ids=FORMER_IDS)
def test_constant_terms_and_bounds_match_former_bodies(name, params, former,
                                                       rounded):
    """Same bytes, shape, type and signs of zeros (``+0.0`` where no entry
    is assigned) as the former bodies on one state (array and list), on
    (B, n) and on (B1, B2, n), except as `former_deviations` allows in the
    entries `FINITE_SIGN_ONLY` lists; array results are fresh, writable and
    C-contiguous, never views shared between calls."""
    model, _, spec = make_benchmark(name, params)
    current = current_evaluators(model, spec)
    block = _former_states(name, model.state_dim)
    for key, reference in former.items():
        fn = current[key]
        for x in (block, block[0], block[0, 0], block[0, 1].tolist()):
            got = fn(x)
            assert former_deviations(key, rounded, got, reference(x),
                                     np.shape(x)[:-1]) <= FINITE_SIGN_ONLY.get(
                (name, key), set()), f"{name} {params} {key} on {np.shape(x)}"
            assert not isinstance(got, np.ndarray) or (
                got.flags.writeable and got.flags.c_contiguous), key
        assert not np.shares_memory(fn(block), fn(block)), key


@pytest.mark.parametrize("name, params, former, rounded", FORMER_CASES,
                         ids=FORMER_IDS)
def test_safety_functions_on_special_values(name, params, former, rounded):
    """On rows holding NaN, +-inf or +-0 in every combination of components,
    each term and safety value gives the former body's bytes, and so does
    each gradient, except that the entries `SIGN_ONLY` lists, and only
    those, differ in the sign of a NaN or a zero, and a gradient in
    ``rounded`` within `LAST_BITS` on finite values."""
    model, _, spec = make_benchmark(name, params)
    current = current_evaluators(model, spec)
    sampled = sample_box(name, 1)[0]
    rows = np.array(list(itertools.product(
        *[SPECIALS + (float(c),) for c in sampled])))
    with np.errstate(all="ignore"):
        for key, reference in former.items():
            assert former_deviations(key, rounded, current[key](rows),
                                     reference(rows), rows.shape[:-1]) \
                == SIGN_ONLY.get((name, key), set()), f"{name} {params} {key}"


# ---------------------------------------------------------------------------
# the compare-based float smoothings and the restated statements against
# their former bodies, kept verbatim here
# ---------------------------------------------------------------------------


def former_indicator_float(v: float, eps: float) -> float:
    if eps == 0.0:
        return 1.0 if v > 0.0 else 0.0
    t = min(max((v + eps) / eps, 0.0), 1.0)
    return t * t * (3.0 - 2.0 * t)


def former_sign_float(y: float, eps: float) -> float:
    if eps == 0.0:
        return 0.0 if y == 0.0 else (1.0 if y > 0.0 else -1.0)
    q = min(max(y / eps, -1.0), 1.0)
    return q * (2.0 - abs(q))


def former_saturate_float(y: float, lo: float, hi: float, eps: float) -> float:
    """`smooth_saturate` on one float; the caller checks the blend width."""
    if eps > 0.0:
        if hi - eps < y < hi + eps:
            d = y - (hi - eps)
            return y - d * d / (4.0 * eps)
        if lo - eps < y < lo + eps:
            d = (lo + eps) - y
            return y + d * d / (4.0 * eps)
    return min(max(y, lo), hi)


# The former float smoothings with `math`'s sin and cos: the float table the
# hand-written and former statements (and `dense_statement`) run on, the
# oracle of the float kernels (`float_kernel`).
FORMER_FLOATS = Primitives(math.sin, math.cos, former_saturate_float,
                           former_sign_float, former_indicator_float)

SPECIALS = (0.0, -0.0, math.nan, math.inf, -math.inf)


def _probes(edges):
    """Each edge and its two `nextafter` neighbours, plus the specials."""
    out = list(SPECIALS)
    for e in edges:
        out += [e, math.nextafter(e, math.inf), math.nextafter(e, -math.inf)]
    return out


def same_float(a: float, b: float) -> bool:
    """Equal value and sign, NaN equal to NaN."""
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


@pytest.mark.parametrize("eps", [0.25, 0.05, 1.0])
def test_float_primitives_match_former_clamps(eps):
    """Each smoothing's float form, as a kernel inlines it with its band
    edges folded (`float_body`), gives the value and sign of the
    ``min(max(...))`` bodies at the band edges and their neighbours, at
    +-0.0, NaN and +-inf."""
    indicator, sign = float_body("indicator", eps), float_body("sign", eps)
    for v in _probes([-eps, 0.0, eps, -2.0 * eps, 1.0, -1.0]):
        assert same_float(indicator(v), former_indicator_float(v, eps)), (v, eps)
        assert same_float(sign(v), former_sign_float(v, eps)), (v, eps)
    for lo, hi in ((-3.0, 3.0), (-0.5, 0.5), (-5.0, 5.0)):
        saturate = float_body("saturate", lo, hi, eps)
        edges = [b + d for b in (lo, hi) for d in (-eps, 0.0, eps)]
        for y in _probes(edges + [0.5 * (lo + hi), 2.0 * hi, 2.0 * lo]):
            assert same_float(saturate(y),
                              former_saturate_float(y, lo, hi, eps)), (y, lo, hi, eps)


def former_loop_rows(f, g, pi):
    """Per row ``f_i + (((0.0 + g_i0 pi_0) + g_i1 pi_1) + ...)``,
    `loop_rhs`'s order, where ``f_i + s`` is ``s`` for a literal zero
    ``f_i``: ``s`` starts from ``0.0 + ...``, so it is never ``-0.0``, and
    ``+-0.0 + s`` is then ``s`` on every input.  The symbolic sum the
    closed loop's rows were taken from before `affine_sum` built them,
    kept as the oracle."""
    rows = []
    for f_i, g_i in zip(f, g):
        s = 0.0 + g_i[0] * pi[0]
        for g_ij, pi_j in zip(g_i[1:], pi[1:]):
            s = s + g_ij * pi_j
        rows.append(s if not isinstance(f_i, _Sym) and f_i == 0.0 else f_i + s)
    return rows


def former_rows_of(statement, params, n):
    """`former_loop_rows` of ``statement`` recorded on `_SYMBOLIC` with the
    parameter tuple ``params`` at ``n`` states."""
    f, g, pi, _ = statement(_SYMBOLIC, params,
                            *(_Sym("x", i) for i in range(n)))
    return former_loop_rows(*(np.array(v, dtype=object) for v in (f, g, pi)))


def generation_of(monkeypatch, name, params):
    """The statement and the parameter tuple `make_benchmark` generates
    ``name`` with ``params`` from."""
    calls, generated = [], systems._generated
    monkeypatch.setattr(systems, "_generated",
                        lambda *args: calls.append(args) or generated(*args))
    make_benchmark(name, params)
    monkeypatch.undo()
    _, statement, _, _, hexes = calls[0]
    return statement, tuple(map(float.fromhex, hexes))


def test_symbolic_sum_folds_a_zero_only_onto_a_sum_from_zero():
    """``c + e`` records ``e`` for a literal ``+-0.0`` ``c`` where ``e`` is a
    ``+`` chain whose leftmost leaf is the literal ``+0.0``, and ``c + e``
    otherwise."""
    a, b = _Sym("x", 0), _Sym("x", 1)
    folded = [0.0 + ((0.0 + a) + b), -0.0 + (0.0 + a)]
    kept = [0.0 + a, 0.0 + a * b, 0.0 + (-0.0 + a)]
    assert [_statements([e])[1] for e in folded + kept] == [
        ["((0.0 + x0) + x1)"], ["(0.0 + x0)"],
        ["(0.0 + x0)"], ["(0.0 + (x0 * x1))"], ["(0.0 + (-0.0 + x0))"]]


def former_statement(name, params):
    """The benchmark's ``closed_loop`` as it was stated before each zero
    product was computed once, with the benchmark's default constants."""
    eps = BLEND_WIDTHS[name]
    if name == "toy1d":
        gain, u_max = 1.0, 5.0

        def loop(p):
            saturate = p.saturate

            def rhs(x):
                u = saturate(-gain * x, -u_max, u_max, eps)
                return (0.0 + (0.0 + 1.0 * u),)

            return rhs
    elif name == "double_integrator":
        u_max = 1.0

        def loop(p):
            indicator = p.indicator

            def rhs(s, v):
                u = -u_max * indicator(v, eps)
                return (v + (0.0 + 0.0 * u), 0.0 + (0.0 + 1.0 * u))

            return rhs
    elif name == "dubins":
        aggressive = params["profile"] == "aggressive"
        ky0, ky1 = (_DUBINS_KY_AGGRESSIVE if aggressive
                    else _DUBINS_KY_CONSERVATIVE)
        k_v, v_des, a_max, r_max = 1.0, 0.0 if aggressive else 5.0, 3.0, 0.5
        eps_frac = params.get("eps_frac", 0.05)
        eps_a, eps_r = eps_frac * a_max, eps_frac * r_max

        def loop(p):
            sin, saturate = p.sin, p.saturate

            def rhs(y, v, psi):
                a = saturate(k_v * (v_des - v), -a_max, a_max, eps_a)
                r = saturate(ky0 * y + ky1 * psi, -r_max, r_max, eps_r)
                return (v * sin(psi) + (0.0 + 0.0 * a + 0.0 * r),
                        0.0 + (0.0 + 1.0 * a + 0.0 * r),
                        0.0 + (0.0 + 0.0 * a + 1.0 * r))

            return rhs
    else:
        v_a, v_b, u_max = 1.0, 1.0, 1.0

        def loop(p):
            sin, cos, sign = p.sin, p.cos, p.sign

            def rhs(dx, dy, dpsi):
                u = -u_max * sign(dy, eps)
                return (-v_a + v_b * cos(dpsi) + (0.0 + dy * u),
                        v_b * sin(dpsi) + (0.0 + -dx * u),
                        0.0 + (0.0 + -1.0 * u))

            return rhs
    return loop


def _outcome(fn, x):
    """``fn(*x)`` as a float array, or the type of the error it raised
    (``math.sin`` refuses an infinity)."""
    try:
        return np.array(fn(*x), dtype=float)
    except ValueError as exc:
        return type(exc)


def same_entries(got, expected) -> bool:
    """Equal bytes on every entry that is not NaN, NaN on the same
    entries."""
    if isinstance(got, type) or isinstance(expected, type):
        return got is expected
    nan = np.isnan(expected)
    return (got.shape == expected.shape
            and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == expected[~nan].tobytes())


@pytest.mark.parametrize("case", LOOP_CASES, ids=LOOP_CASE_IDS)
def test_statements_match_former_statements(case, monkeypatch):
    """Each restated statement gives the former statement's bits (NaN
    where it gave NaN) on sampled states and on rows holding NaN, +-inf or
    +-0 in every combination of components: its float kernel against the
    former statement on `FORMER_FLOATS` (raising where it raised), and its
    build on `ARRAY_PRIMITIVES` against the former one's.  Its closed
    loop's rows, summed by `affine_sum`, are written out as
    `former_loop_rows` of the same statement are."""
    name, params = case
    model, policy, _ = make_benchmark(name, params)
    statement, constants = generation_of(monkeypatch, name, params)
    assert (_statements(policy.closed_loop.rows) == _statements(
        former_rows_of(statement, constants, model.state_dim)))
    former = former_statement(name, params)
    sampled = sample_box(name, 40)
    rows = [tuple(x) for x in sampled]
    rows += itertools.product(*[SPECIALS + (float(c),) for c in sampled[0]])
    for x in rows:
        got = _outcome(float_kernel(policy.closed_loop), x)
        expected = _outcome(former(FORMER_FLOATS), x)
        assert same_entries(got, expected), f"{name} {params} at x = {x!r}"
    columns = tuple(np.array(rows).T.copy())
    with np.errstate(all="ignore"):
        got = np.stack(policy.closed_loop.build(ARRAY_PRIMITIVES)(*columns), axis=-1)
        expected = np.stack(former(ARRAY_PRIMITIVES)(*columns), axis=-1)
    assert same_entries(got, expected), f"{name} {params}"


# ---------------------------------------------------------------------------
# The evaluators generated from each benchmark's one statement against the
# hand-written bodies they replace, kept verbatim below as oracles.
# ---------------------------------------------------------------------------


def hand_written(name, params):
    """The benchmark's former ``f``, ``g``, their Jacobians, ``pi``, its
    Jacobian and fused ``closed_loop``, with its builder's defaults."""
    eps = BLEND_WIDTHS[name]
    if name == "toy1d":
        u_max, gain = 5.0, 1.0

        def pi(x):
            x = np.asarray(x, dtype=float)
            return smooth_saturate(-gain * x[..., 0], -u_max, u_max, eps)[..., None]

        def dpi(x):
            x = np.asarray(x, dtype=float)
            d = smooth_saturate_deriv(-gain * x[..., 0], -u_max, u_max, eps)
            return (-gain * d)[..., None, None]

        def loop(p):
            saturate = p.saturate

            def rhs(x):
                u = saturate(-gain * x, -u_max, u_max, eps)
                return (0.0 + u,)

            return rhs

        return {"f_eval": former_constant([0.0]),
                "g_eval": former_constant([[1.0]]),
                "df_dx": former_constant([[0.0]]), "dg_dx": None,
                "pi_eval": pi, "dpi_dx": dpi, "closed_loop": loop}
    if name == "double_integrator":
        u_max = 1.0

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

        def loop(p):
            indicator = p.indicator

            def rhs(s, v):
                u = -u_max * indicator(v, eps)
                return (v + (0.0 + 0.0 * u), 0.0 + u)

            return rhs

        return {"f_eval": f, "g_eval": former_constant([[0.0], [1.0]]),
                "df_dx": former_constant([[0.0, 1.0], [0.0, 0.0]]),
                "dg_dx": None, "pi_eval": pi, "dpi_dx": dpi,
                "closed_loop": loop}
    if name == "dubins":
        aggressive = params["profile"] == "aggressive"
        k_y = np.array(_DUBINS_KY_AGGRESSIVE if aggressive
                       else _DUBINS_KY_CONSERVATIVE)
        ky0, ky1 = float(k_y[0]), float(k_y[1])
        k_v, v_des, a_max, r_max = 1.0, 0.0 if aggressive else 5.0, 3.0, 0.5
        eps_frac = params.get("eps_frac", 0.05)
        eps_a, eps_r = eps_frac * a_max, eps_frac * r_max

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

        def loop(p):
            sin, saturate = p.sin, p.saturate

            def rhs(y, v, psi):
                a = saturate(k_v * (v_des - v), -a_max, a_max, eps_a)
                r = saturate(ky0 * y + ky1 * psi, -r_max, r_max, eps_r)
                za = 0.0 + 0.0 * a
                zr = 0.0 * r
                return (v * sin(psi) + (za + zr), (0.0 + a) + zr, za + r)

            return rhs

        return {"f_eval": f,
                "g_eval": former_constant([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                "df_dx": df, "dg_dx": None, "pi_eval": pi, "dpi_dx": dpi,
                "closed_loop": loop}
    v_a, v_b, u_max = 1.0, 1.0, 1.0

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

    def loop(p):
        sin, cos, sign = p.sin, p.cos, p.sign

        def rhs(dx, dy, dpsi):
            u = -u_max * sign(dy, eps)
            return (-v_a + v_b * cos(dpsi) + (0.0 + dy * u),
                    v_b * sin(dpsi) + (0.0 + -dx * u),
                    0.0 + -1.0 * u)

        return rhs

    dg = former_constant([[[0.0, 1.0, 0.0]], [[-1.0, 0.0, 0.0]],
                          [[0.0, 0.0, 0.0]]])
    return {"f_eval": f, "g_eval": g, "df_dx": df, "dg_dx": dg, "pi_eval": pi,
            "dpi_dx": dpi, "closed_loop": loop}


ARRAY_EVALUATORS = ("f_eval", "g_eval", "df_dx", "dg_dx", "pi_eval", "dpi_dx")


def generated_evaluators(model, policy):
    return {"f_eval": model.f_eval, "g_eval": model.g_eval,
            "df_dx": model.df_dx, "dg_dx": model.dg_dx,
            "pi_eval": policy.pi_eval, "dpi_dx": policy.dpi_dx,
            "closed_loop": policy.closed_loop.build}


@pytest.mark.parametrize("case", LOOP_CASES, ids=LOOP_CASE_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generated_evaluators_match_hand_written_bodies(case, data):
    """Each evaluator generated from the statement gives the hand-written
    body's bytes, shape and type on states from the sampling box, inside
    every blend band and on every switching surface: the array evaluators
    stacked and on each state, the float kernel (`float_kernel`) against
    the hand-written loop on `FORMER_FLOATS` on each state, and the closed
    loop built on arrays on the stacked columns.  Where the former
    body declared ``dg_dx = None`` (a constant ``g``), the generated
    ``dg_dx`` gives ``+0.0`` zeros of shape ``(..., n, m, n)``."""
    name, params = case
    model, policy, _ = make_benchmark(name, params)
    got, expected = generated_evaluators(model, policy), hand_written(name, params)
    n, m = model.state_dim, model.input_dim
    if expected["dg_dx"] is None:
        expected["dg_dx"] = lambda x: np.zeros(np.shape(x)[:-1] + (n, m, n))
    states = _draw_states(data, name, params, model, policy)
    stacked = np.array(states)
    for key in ARRAY_EVALUATORS:
        for x in [stacked, stacked.reshape(3, -1, model.state_dim)] + states:
            out, oracle = got[key](x), expected[key](x)
            assert type(out) is type(oracle) and same_bits(out, oracle), \
                f"{name} {params} {key} at x = {x!r}: {out!r} != {oracle!r}"
    for x in states:
        out = np.array(float_kernel(policy.closed_loop)(*x))
        oracle = np.array(expected["closed_loop"](FORMER_FLOATS)(*x))
        assert same_bits(out, oracle), f"{name} {params} float loop at x = {x!r}"
    columns = tuple(stacked.T.copy())
    out = np.stack(got["closed_loop"](ARRAY_PRIMITIVES)(*columns), axis=-1)
    oracle = np.stack(expected["closed_loop"](ARRAY_PRIMITIVES)(*columns), axis=-1)
    assert same_bits(out, oracle), f"{name} {params} array loop"


# Entries of the generated Jacobians whose NaN carries the other sign than
# the hand-written body's: d cos(u) is written -sin(u), so the aeroplane's
# v_b * -sin(dpsi) against the former -v_b * sin(dpsi).  Nothing else
# differs, not even in a NaN's sign.
NAN_SIGN_ONLY = {("aeroplane", "df_dx"): {(0, 2)}}


@pytest.mark.parametrize("case", LOOP_CASES, ids=LOOP_CASE_IDS)
def test_generated_evaluators_on_special_values(case):
    """On rows holding NaN, +-inf or +-0 in every combination of components,
    each generated evaluator gives the hand-written body's bytes, except
    for the entries of `NAN_SIGN_ONLY`, which differ in a NaN's sign only.
    The float kernel raises where the hand-written loop on `FORMER_FLOATS`
    does (``math.sin`` refuses an infinity) and gives its bytes elsewhere, NaN
    where it gives NaN: which of two NaN operands CPython's float ``+``
    returns changes once the interpreter specializes the addition."""
    name, params = case
    model, policy, _ = make_benchmark(name, params)
    got, expected = generated_evaluators(model, policy), hand_written(name, params)
    sampled = sample_box(name, 1)[0]
    rows = np.array(list(itertools.product(
        *[SPECIALS + (float(c),) for c in sampled])))
    with np.errstate(all="ignore"):
        for key in ARRAY_EVALUATORS:
            if expected[key] is None:
                continue
            out, oracle = got[key](rows), expected[key](rows)
            differ = (out.view(np.int64) != oracle.view(np.int64)).any(axis=0)
            listed = NAN_SIGN_ONLY.get((name, key), set())
            assert set(map(tuple, np.argwhere(differ).tolist())) == listed, \
                f"{name} {params} {key}"
            for index in listed:
                column = (Ellipsis, *index)
                assert same_entries(out[column], oracle[column]), key
        float_got = float_kernel(policy.closed_loop)
        float_expected = expected["closed_loop"](FORMER_FLOATS)
        for x in rows.tolist():
            assert same_entries(_outcome(float_got, x),
                                _outcome(float_expected, x)), \
                f"{name} {params} float loop at x = {x!r}"
        columns = tuple(rows.T.copy())
        out = np.stack(got["closed_loop"](ARRAY_PRIMITIVES)(*columns), axis=-1)
        oracle = np.stack(expected["closed_loop"](ARRAY_PRIMITIVES)(*columns), axis=-1)
    assert same_bits(out, oracle), f"{name} {params} array loop"


def dense_statement(p, k, a, b, c, d):
    """Four states and two inputs with a dense, state-dependent ``g``,
    unlike every benchmark: products of two state-dependent factors,
    several channels per row, a nonzero constant in ``f`` and a ``-0.0``
    in ``g``; and two safety functions, one of a single component."""
    w0, w1 = k
    f = (b * p.sin(c), w0 * a - d * d, a * p.cos(a + d), 0.5)
    g = ((p.cos(a), b * c),
         (-0.0, a * (a - c)),
         (p.sin(b) * d, 1.0),
         (c - a, p.saturate(d, -3.0, 3.0, 0.5)))
    pi = (p.saturate(w0 * a + b * c, -1.0, 1.0, 0.25),
          w1 * p.sign(d - a, 4.0))
    h = (1.0 - a * b + p.cos(c * d), w1 - d)
    return f, g, pi, h


def dense_benchmark(statement=dense_statement, inputs=("u", "w"),
                    safety=("mixed", "single")):
    m = len(inputs)
    return _benchmark("dense", statement, (0.7, -1.3), (-1.0,) * m,
                      (1.0,) * m, ("a", "b", "c", "d"), inputs, safety)


def test_dense_statement_generates_loop_rhs_and_its_jacobians():
    """The generated ``f``, ``g``, ``pi`` and safety functions of
    `dense_statement` give the bytes of the statement run on floats
    (`FORMER_FLOATS`); its float kernel and its closed loop built on arrays
    give `loop_rhs`'s bytes (the
    per-channel sum order); and the generated Jacobians of ``f``, ``g``,
    ``pi`` and the loop, and the gradients of the safety functions, match
    central differences (the two-factor product rule).  Its closed loop's
    rows are written out as `former_loop_rows` of the statement are."""
    model, policy, safety = dense_benchmark()
    assert model.dg_dx is not None
    assert (_statements(policy.closed_loop.rows) == _statements(
        former_rows_of(dense_statement, (0.7, -1.3), 4)))
    assert [c.name for c in safety] == ["mixed", "single"]
    states = np.random.default_rng(7).uniform(-1.2, 1.2, size=(60, 4))
    derivs = loop_rhs(model, policy, states)
    for x, expected in zip(states.tolist(), derivs):
        f, g, pi, h = dense_statement(FORMER_FLOATS, (0.7, -1.3), *x)
        for got, stated in ((model.f_eval(x), f), (model.g_eval(x), g),
                            (policy.pi_eval(x), pi),
                            ([c.h_eval(x) for c in safety], h)):
            assert same_bits(got, np.array(stated)), x
        assert same_bits(np.array(float_kernel(policy.closed_loop)(*x)),
                         expected), x
    got = np.stack(policy.closed_loop.build(ARRAY_PRIMITIVES)(*states.T.copy()),
                   axis=-1)
    assert same_bits(got, derivs)
    for x in states[:20]:
        for jac, fn in ((model.df_dx, model.f_eval), (model.dg_dx, model.g_eval),
                        (policy.dpi_dx, policy.pi_eval),
                        (policy.closed_loop.jacobian,
                         lambda y: loop_rhs(model, policy, y)),
                        *((c.grad_eval, c.h_eval) for c in safety)):
            fd = fd_jacobian(fn, x)
            assert np.max(np.abs(jac(x) - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_generator_refuses_a_statement_of_the_wrong_shape():
    """A statement whose ``f``, ``g`` or ``pi`` does not fit the state and
    input counts, or whose ``h`` is not a tuple of scalar functions of the
    state, is refused, naming the benchmark."""
    def short_f(p, k, a, b, c, d):
        f, g, pi, h = dense_statement(p, k, a, b, c, d)
        return f[:3], g, pi, h

    def ragged_g(p, k, a, b, c, d):
        f, g, pi, h = dense_statement(p, k, a, b, c, d)
        return f, g[:3] + ((1.0,),), pi, h

    def with_h(wrong):
        def statement(p, k, a, b, c, d):
            return dense_statement(p, k, a, b, c, d)[:3] + (wrong,)
        return statement

    for statement in (short_f, ragged_g, with_h([1.0]), with_h((1.0,)),
                      with_h(((1.0, 2.0),)), with_h(np.array([1.0]))):
        with pytest.raises(ValidationError, match="benchmark 'dense'"):
            dense_benchmark(statement)
    with pytest.raises(ValidationError, match=r"f, g and pi of shapes \(4,\), "
                       r"\(4, 2\) and \(2,\), not \(4,\), \(4, 3\) and \(3,\)"):
        dense_benchmark(inputs=("u", "w", "z"))


def test_generation_is_cached_per_parameter_bits():
    """A repeat build reuses the generated evaluators, the safety functions
    among them; parameters equal as
    floats but of other signs of zero are generated apart."""
    first, _, first_spec = make_benchmark("dubins", {"profile": "aggressive"})
    again, _, again_spec = make_benchmark("dubins", {"profile": "aggressive"})
    assert again.f_eval is first.f_eval and again.df_dx is first.df_dx
    assert again_spec.terminal.grad_eval is first_spec.terminal.grad_eval
    x = np.array([1.0, 0.0, 0.0])
    signs = []
    for ky0 in (0.0, -0.0):
        _, policy, _ = make_benchmark("dubins", {"profile": "aggressive",
                                                 "k_y": (ky0, -3.0)})
        signs.append(np.signbit(policy.pi_eval(x)[1]))
    assert signs == [False, True]
