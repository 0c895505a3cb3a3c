"""Flow integration: closed-form anchors, order of accuracy, sensitivities."""

import ast
import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from backup_cbf.barrier import eval_h, eval_h_batch, filter_control
from backup_cbf.errors import FlowDivergenceError, ValidationError
from backup_cbf.flow import (FlowTrajectory, _identities, _march, _q_step,
                             integrate_flow, integrate_flow_batch, rk4_step,
                             sensitivity_fd_check)
from backup_cbf.systems import (ARRAY_PRIMITIVES, BENCHMARK_DEFAULTS,
                                FLOAT_PRIMITIVES, BackupPolicy, _benchmark,
                                affine_sum, closed_loop_rhs, loop_rhs,
                                make_benchmark)
from tests.test_systems import loop_jacobian, same_bits


def idle(name, statement, params, n):
    """The model and policy of ``statement`` on ``n`` states, with one
    input in ``[-1, 1]`` that its idle backup never uses."""
    model, policy, _ = _benchmark(
        name, statement, tuple(params), (-1.0,), (1.0,),
        tuple(f"x{i}" for i in range(n)), ("u",), ("x0",))
    return model, policy


def linear_statement(p, k, *x):
    """xdot = A x, each row summed in column order, with ``A`` flattened
    into ``k``; an idle backup."""
    n = len(x)
    rows = []
    for i in range(n):
        row = k[n * i] * x[0]
        for j in range(1, n):
            row = row + k[n * i + j] * x[j]
        rows.append(row)
    return tuple(rows), ((0.0,),) * n, (0.0,), x[:1]


def linear_system(a_mat):
    """xdot = A x realized as drift-only plant with an idle backup."""
    a_mat = np.asarray(a_mat, dtype=float)
    return idle("linear", linear_statement, a_mat.flat, a_mat.shape[0])


def _stacked(model, policy):
    """The closed-loop derivative on one float or array per state
    component: stacked `loop_rhs` of the model split into components
    (``np.float64`` scalars for one state, which carry the same bits as
    floats), the reference the compiled march is held to."""
    return lambda *x: tuple(loop_rhs(model, policy, np.stack(x, axis=-1)).T)


def reference_rk4_step(model, policy, x, q, dt):
    """The augmented fourth-order step that advances the state and its
    sensitivity in lockstep, kept as the reference for the two-phase flow."""
    def stage(xs, qs):
        dx = loop_rhs(model, policy, xs)
        if q is None:
            return dx, None
        return dx, np.matmul(loop_jacobian(model, policy, xs), qs)

    half = 0.5 * dt
    k1x, k1q = stage(x, q)
    k2x, k2q = stage(x + half * k1x, None if q is None else q + half * k1q)
    k3x, k3q = stage(x + half * k2x, None if q is None else q + half * k2q)
    k4x, k4q = stage(x + dt * k3x, None if q is None else q + dt * k3q)
    x_next = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    q_next = None if q is None else q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    return x_next, q_next


def reference_march(model, policy, x, horizon, steps, product=False):
    """States and sensitivities ``(steps + 1, ...)`` of one state ``(n,)``
    or a batch ``(B, n)``, or the first step that left finite values.  The
    sensitivity is stepped with the state (the step form) or, with
    ``product``, multiplied at each step by the step's transition matrix,
    the augmented step taken from the identity (the product form)."""
    dt = horizon / steps
    eye = np.broadcast_to(np.eye(x.shape[-1]), x.shape + x.shape[-1:])
    q = eye.copy()
    xs, qs = [x], [q]
    for i in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            if product:
                x, trans = reference_rk4_step(model, policy, x, eye, dt)
                q = np.matmul(trans, q)
            else:
                x, q = reference_rk4_step(model, policy, x, q, dt)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(q))):
            return i
        xs.append(x)
        qs.append(q)
    return np.array(xs), np.array(qs)


def stage_jacobians(policy, x0, horizon, steps):
    """The loop Jacobians at the four stage points of each step of the
    float march from ``x0``, ``(steps, 4, n, n)``."""
    n, dt = len(x0), horizon / steps
    points = _march(policy.closed_loop)(tuple(x0.tolist()), dt, steps)
    points = np.array(points).reshape(-1, n)[:-1]
    return policy.closed_loop.jacobian(points).reshape(steps, 4, n, n)


def product_error_bound(jacs, dt, sens, c):
    """The bound on the rounding error of the float64 sensitivities
    ``sens``, ``(N + 1, n, n)`` entry by entry, relative to ``max(1, |Q|)``,
    from the stage Jacobians ``jacs`` of `stage_jacobians`: at node ``k``,
    ``c n u sum_i |M_k ... M_{i+1}| |M_i|' |Q_{i-1}| / max(1, |Q_k|)`` in
    absolute values, with ``u`` float64's unit roundoff, ``M_i`` the step's
    transition matrix and ``|M_i|'`` the same step run on ``|J|``.

    Rounding the build of ``M_i`` and the product ``M_i Q_{i-1}``
    perturbs ``Q_i`` by at most about ``n u |M_i|' |Q_{i-1}|`` each, to
    first order: ``|M_i|'`` bounds every stage term of the build, which at
    ``dt |J| > 1`` far exceeds ``M_i`` itself.  The later steps carry that
    perturbation to node ``k`` through ``M_k ... M_{i+1}``.  So ``c = 2``
    bounds one float64 march of either form (step or product) against the
    exact recursion on the same Jacobians, and ``c = 4`` the difference of
    two.

    Gradual underflow adds at most ``u t`` to a product, ``t`` the smallest
    normal float (a sum of subnormals is exact).  Each of the four stages
    adds at most ``n + 2`` products to an entry of ``M_i``, carried by the
    later stages at most ``max |M_i|'``, so the terms use ``|M_i|' + t K_i``
    with ``K_i = 4 (n + 2) max |M_i|'`` and ``|Q_{i-1}| + t`` entrywise;
    away from subnormal values that changes no bound."""
    n = sens.shape[-1]
    trans, magnitudes = (_q_step(j.swapaxes(0, 1), _identities(len(j), n), dt)
                         for j in (jacs, np.abs(jacs)))
    unit, tiny = np.finfo(float).eps / 2, np.finfo(float).tiny
    tails, weights = np.empty((0, n, n)), np.empty((0, n, n))
    bounds = [np.zeros((n, n))]
    for m, m_abs, q_prev, q in zip(trans, magnitudes, sens[:-1], sens[1:]):
        tails = np.concatenate([np.matmul(m, tails), np.eye(n)[None]])
        m_abs = m_abs + tiny * 4 * (n + 2) * m_abs.max()
        weights = np.concatenate([weights, [m_abs @ (np.abs(q_prev) + tiny)]])
        spread = np.einsum("kij,kjl->il", np.abs(tails), weights)
        bounds.append(c * n * unit * spread / np.maximum(1.0, np.abs(q)))
    return np.array(bounds)


def assert_sensitivity_within(q, q_ref, bound):
    """``|Q - Q_ref| <= bound * max(1, |Q_ref|)`` entry by entry."""
    scaled = np.abs(q - q_ref) / np.maximum(1.0, np.abs(q_ref))
    assert np.all(scaled <= bound), float(np.max(scaled))


def expm_series(a_mat, terms=30):
    """Truncated exponential series, the independent matrix-flow oracle."""
    out = np.eye(a_mat.shape[0])
    term = np.eye(a_mat.shape[0])
    for k in range(1, terms):
        term = term @ a_mat / k
        out = out + term
    return out


def test_small_horizon_is_identity_like():
    model, policy, _ = make_benchmark("dubins")
    x0 = np.array([0.3, 5.0, 0.1])
    traj = integrate_flow(model, policy, x0, 1e-9, 1)
    assert np.allclose(traj.states[-1], x0, atol=1e-7)
    assert np.allclose(traj.sensitivities[-1], np.eye(3), atol=1e-7)


def test_toy_flow_matches_exponential():
    model, policy, _ = make_benchmark("toy1d")
    traj = integrate_flow(model, policy, np.array([1.0]), 1.0, 100)
    assert traj.states[0] == pytest.approx(1.0)
    assert np.allclose(traj.sensitivities[0], np.eye(1))
    assert traj.states[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert traj.sensitivities[-1][0, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_double_integrator_hard_braking_arc():
    model, policy, _ = make_benchmark("double_integrator")
    traj = integrate_flow(model, policy, np.array([0.0, 2.0]), 1.0, 10)
    # the indicator is exactly 1 for v >= 0 and v stays above 0 before t=1,
    # so the braking arc and its sensitivity are exact
    assert np.allclose(traj.states[-1], [1.5, 1.0], atol=1e-12)
    assert np.allclose(traj.sensitivities[-1], [[1.0, 1.0], [0.0, 1.0]],
                       atol=1e-12)


def test_linear_rotation_sensitivity_matches_series():
    model, policy = linear_system([[0.0, 1.0], [-1.0, 0.0]])
    traj = integrate_flow(model, policy, np.array([1.0, 0.0]), 1.0, 100)
    q_ref = expm_series(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.max(np.abs(traj.sensitivities[-1] - q_ref)) < 1e-9
    err = sensitivity_fd_check(model, policy, np.array([1.0, 0.0]),
                               1.0, 100, 1e-6)
    assert err < 1e-6


def test_sensitivity_fd_toy():
    model, policy, _ = make_benchmark("toy1d")
    err = sensitivity_fd_check(model, policy, np.array([1.0]), 1.0, 100, 1e-5)
    assert err < 1e-6


def test_sensitivity_fd_double_integrator_smooth():
    model, policy, _ = make_benchmark("double_integrator")
    err = sensitivity_fd_check(model, policy, np.array([0.0, 2.0]),
                               10.0, 100, 1e-5)
    assert err < 1e-3


@pytest.mark.parametrize("which", ["toy", "rotation"])
def test_rk4_order_convergence(which):
    """Halving the step should cut the endpoint error ~16x on smooth
    closed-form systems."""
    if which == "toy":
        model, policy, _ = make_benchmark("toy1d")
        x0, exact = np.array([1.0]), np.array([math.exp(-1.0)])
    else:
        model, policy = linear_system([[0.0, 1.0], [-1.0, 0.0]])
        x0 = np.array([1.0, 0.0])
        exact = expm_series(np.array([[0.0, 1.0], [-1.0, 0.0]])) @ x0
    errs = []
    for steps in (8, 16, 32):
        traj = integrate_flow(model, policy, x0, 1.0, steps)
        errs.append(np.max(np.abs(traj.states[-1] - exact)))
    assert errs[0] / errs[1] > 15.0
    assert errs[1] / errs[2] > 15.0


def test_semigroup_and_cocycle():
    """Restarting the integration midway reproduces both the flow and the
    sensitivity by composition."""
    model, policy, _ = make_benchmark("dubins")
    x0 = np.array([0.8, 4.0, -0.2])
    full = integrate_flow(model, policy, x0, 4.0, 200)
    half = 100
    mid = full.states[half]
    rest = integrate_flow(model, policy, mid, 2.0, 100)
    assert np.max(np.abs(rest.states[-1] - full.states[-1])) < 1e-8
    q_comp = rest.sensitivities[-1] @ full.sensitivities[half]
    assert np.max(np.abs(q_comp - full.sensitivities[-1])) < 1e-6


def test_flow_restart_invariance():
    """The flow endpoint at a fixed absolute time does not change when the
    state advances under the backup policy itself."""
    model, policy, _ = make_benchmark("double_integrator")
    x0 = np.array([0.0, 2.0])
    tau = 5.0
    endpoint = integrate_flow(model, policy, x0, tau, 250).states[-1]
    for t_restart in (1.0, 2.5, 4.0):
        steps = int(round(t_restart / 0.02))
        x_t = integrate_flow(model, policy, x0, t_restart, steps).states[-1]
        rest_steps = int(round((tau - t_restart) / 0.02))
        again = integrate_flow(model, policy, x_t, tau - t_restart,
                               rest_steps).states[-1]
        assert np.max(np.abs(again - endpoint)) < 1e-7


BATCH_CASES = [("toy1d", {}), ("double_integrator", {}),
               ("dubins", {"profile": "conservative"}),
               ("dubins", {"profile": "aggressive"}), ("aeroplane", {})]


def test_batch_matches_single():
    """The batch march's end states, with and without sensitivity, and its
    end Q equal the single-state flow's bit for bit on sampled states (its
    ``(B, n, n)`` matmul against the single state's `ndarray.dot`, down to
    the 1x1 products of toy1d).  An empty batch gives empty end states, Q
    and barrier values."""
    for name, params in BATCH_CASES:
        model, policy, spec = make_benchmark(name, params)
        box = BENCHMARK_DEFAULTS[name]
        n, horizon, steps = model.state_dim, box["t_horizon_s"], 3
        ends, q_end = integrate_flow_batch(model, policy, np.empty((0, n)),
                                           horizon, steps)
        assert ends.shape == (0, n) and q_end.shape == (0, n, n)
        ends, no_q = integrate_flow_batch(model, policy, np.empty((0, n)),
                                          horizon, steps,
                                          with_sensitivity=False)
        assert ends.shape == (0, n) and no_q is None
        values = eval_h_batch(model, policy, spec, np.empty((0, n)), horizon,
                              steps)
        assert all(v.shape == (0,) for v in values)
        x0s = np.random.default_rng(5).uniform(
            box["sample_lower"], box["sample_upper"], (6, model.state_dim))
        if name == "aeroplane":
            x0s[:3] = [[4.0, 0.3, np.pi], [-2.0, 1.0, 0.5], [1.0, -3.0, -1.0]]
        horizon, steps = box["t_horizon_s"], box["n_flow_steps"]
        ends, q_end = integrate_flow_batch(model, policy, x0s, horizon, steps)
        states_only, no_q = integrate_flow_batch(model, policy, x0s, horizon,
                                                 steps, with_sensitivity=False)
        assert no_q is None and np.array_equal(states_only, ends)
        for i, x0 in enumerate(x0s):
            traj = integrate_flow(model, policy, x0, horizon, steps)
            assert np.array_equal(ends[i], traj.states[-1]), (name, params, i)
            assert np.array_equal(q_end[i], traj.sensitivities[-1]), \
                (name, params, i)


def test_divergence_reports_step():
    model, policy = linear_system([[200.0]])   # violently unstable for dt=1
    with pytest.raises(FlowDivergenceError) as err:
        integrate_flow(model, policy, np.array([1.0]), 50.0, 50)
    assert err.value.step >= 1
    with pytest.raises(FlowDivergenceError) as batch_err:
        integrate_flow_batch(model, policy, np.array([[0.5], [1.0]]), 50.0, 50)
    assert batch_err.value.step == err.value.step
    assert f"step {err.value.step} " in str(batch_err.value)


def test_benchmark_divergence_from_near_overflow_state():
    """The double integrator from s = 1.79e308 overflows at step 8; a
    march that tested the sum of the components would stop at step 1."""
    model, policy, _ = make_benchmark("double_integrator")
    x0 = np.array([1.79e308, 1e306])
    with pytest.raises(FlowDivergenceError) as err:
        integrate_flow(model, policy, x0, 10.0, 100)
    assert err.value.step == 8 and err.value.row is None
    assert str(err.value) == "flow diverged at step 8 (t = 0.8 s)"
    for with_sensitivity in (True, False):
        with pytest.raises(FlowDivergenceError) as batch_err:
            integrate_flow_batch(model, policy, np.array([[0.0, 1.0], x0]),
                                 10.0, 100, with_sensitivity=with_sensitivity)
        assert batch_err.value.step == 8 and batch_err.value.row == 1
        assert str(batch_err.value) == \
            "flow diverged at step 8 (t = 0.8 s) in batch row 1"


def test_batch_divergence_names_first_row():
    """Under xdot = 200 x only the rows with x0 != 0 blow up."""
    model, policy = linear_system([[200.0]])
    with pytest.raises(FlowDivergenceError) as err:
        integrate_flow_batch(model, policy, np.array([[0.0], [0.0], [1.0], [0.0], [1.0]]),
                             50.0, 50, with_sensitivity=False)
    assert err.value.row == 2
    assert "batch row 2" in str(err.value)
    with pytest.raises(FlowDivergenceError) as single:
        integrate_flow(model, policy, np.array([1.0]), 50.0, 50)
    assert single.value.row is None


REFERENCE_CASES = [("toy1d", {}), ("double_integrator", {}),
                   ("dubins", {"profile": "conservative"}),
                   ("dubins", {"profile": "aggressive"}), ("aeroplane", {})]


@st.composite
def reference_inputs(draw):
    name, params = draw(st.sampled_from(REFERENCE_CASES))
    box = BENCHMARK_DEFAULTS[name]
    lower, upper = box["sample_lower"], box["sample_upper"]
    count = draw(st.integers(min_value=1, max_value=3))
    x0s = np.array([[draw(st.floats(lo, hi)) for lo, hi in zip(lower, upper)]
                    for _ in range(count)])
    steps = draw(st.integers(min_value=1, max_value=60))
    return name, params, x0s, steps


# The aeroplane from (0, 4, 0.75) over 42 steps of 4 s is stiff: the
# float64 product form reads 3.4e-10 off a long-double reference there, the
# step form 6.8e-11.
STIFF_CASE = ("aeroplane", {}, np.array([[0.0, 4.0, 0.75]]), 42)
# A subnormal heading: M_1 and Q hold subnormal entries, which round by an
# absolute amount rather than a relative one.
SUBNORMAL_CASE = ("dubins", {"profile": "conservative"},
                  np.array([[0.0, 2.0, 2.22507386e-311]]), 2)


@settings(max_examples=80, deadline=None)
@given(reference_inputs())
@example(STIFF_CASE)
@example(SUBNORMAL_CASE)
def test_two_phase_flow_matches_reference_march(case):
    """States and drifts bit-equal to the augmented lockstep march (the
    step form), and sensitivities within `product_error_bound` at c = 4 of
    it, for one state and for a batch with and without sensitivity; a
    diverging reference must diverge at the same step."""
    name, params, x0s, steps = case
    model, policy, _ = make_benchmark(name, params)
    horizon = BENCHMARK_DEFAULTS[name]["t_horizon_s"]
    end_bounds = []
    for x0 in x0s:
        ref = reference_march(model, policy, x0, horizon, steps)
        if isinstance(ref, int):
            with pytest.raises(FlowDivergenceError) as err:
                integrate_flow(model, policy, x0, horizon, steps)
            assert err.value.step == ref
            continue
        traj = integrate_flow(model, policy, x0, horizon, steps)
        assert np.array_equal(traj.states, ref[0])
        bound = product_error_bound(
            stage_jacobians(policy, x0, horizon, steps), horizon / steps,
            traj.sensitivities, 4)
        assert_sensitivity_within(traj.sensitivities, ref[1], bound)
        end_bounds.append(bound[-1])
        assert np.array_equal(traj.drifts, closed_loop_rhs(model, policy, traj.states))
    ref = reference_march(model, policy, x0s, horizon, steps)
    if isinstance(ref, int):
        with pytest.raises(FlowDivergenceError) as err:
            integrate_flow_batch(model, policy, x0s, horizon, steps)
        assert err.value.step == ref
        return
    ends, q_end = integrate_flow_batch(model, policy, x0s, horizon, steps)
    assert np.array_equal(ends, ref[0][-1])
    assert_sensitivity_within(q_end, ref[1][-1], np.array(end_bounds))
    ends, _ = integrate_flow_batch(model, policy, x0s, horizon, steps,
                                   with_sensitivity=False)
    assert np.array_equal(ends, ref[0][-1])


@pytest.mark.parametrize("name, params", REFERENCE_CASES)
def test_flows_on_the_rows_jacobian_match_the_oracle_jacobian(name, params):
    """`integrate_flow` (states, sensitivities, drifts) and
    `integrate_flow_batch` (end states, end Q) on the generated closed loop
    give the bytes of the same flows on a copy whose Jacobian is the
    `loop_jacobian` oracle, on sampled states, states of signed zeros and
    `STIFF_CASE`.  The two Jacobians are equal in value and may differ in
    the sign of a zero only, which each transition matrix ``I + ...``
    turns into ``+0.0``.  (On toy1d no flow at these step sizes tells a
    one-ulp change of the Jacobian apart: each ``M_i = 1 + O(dt)`` rounds
    it away.)"""
    model, policy, _ = make_benchmark(name, params)
    oracle = dataclasses.replace(policy, closed_loop=dataclasses.replace(
        policy.closed_loop, jacobian=lambda x: loop_jacobian(model, policy, x)))
    box = BENCHMARK_DEFAULTS[name]
    n, horizon, steps = model.state_dim, box["t_horizon_s"], box["n_flow_steps"]
    x0s = np.random.default_rng(17).uniform(box["sample_lower"],
                                            box["sample_upper"], (12, n))
    zeros = [[0.0] * n, [-0.0] * n, [(-0.0, 0.0)[i % 2] for i in range(n)]]
    runs = [(np.concatenate([x0s, zeros]), steps)]
    if (name, params) == STIFF_CASE[:2]:
        runs.append(STIFF_CASE[2:])
    for x0s, steps in runs:
        for x0 in x0s:
            got, expected = (integrate_flow(model, p, x0, horizon, steps)
                             for p in (policy, oracle))
            for field in ("states", "sensitivities", "drifts"):
                assert same_bits(getattr(got, field), getattr(expected, field)), \
                    f"{name} {params} {field} from x0 = {x0.tolist()!r}"
        got, expected = (integrate_flow_batch(model, p, x0s, horizon, steps)
                         for p in (policy, oracle))
        assert same_bits(got[0], expected[0]) and same_bits(got[1], expected[1]), \
            f"{name} {params} batch of {len(x0s)}"


# The entries of each reference case's loop Jacobian that the generator
# assigns, keyed by benchmark or Dubins profile: those reached from the
# state through no literal-zero factor.  The Dubins rows multiply the input
# not on their channel by ``0.0``, so neither ``d/dY`` nor ``d/dpsi`` of the
# steering reaches the speed row, and on the aggressive profile (``k_y =
# (0, -3)``) ``d/dY`` of the steering is gone too.
LIVE_JACOBIAN_ENTRIES = {
    "toy1d": {(0, 0)},
    "double_integrator": {(0, 1), (1, 1)},
    "conservative": {(0, 1), (0, 2), (1, 1), (2, 0), (2, 2)},
    "aggressive": {(0, 1), (0, 2), (1, 1), (2, 2)},
    "aeroplane": {(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)},
}


@pytest.mark.parametrize("name, params", REFERENCE_CASES)
def test_loop_jacobian_writes_no_literal_zero_products(name, params):
    """At all-NaN states, one and a ``(2, 3)`` batch, every entry of
    `ClosedLoop.jacobian` outside `LIVE_JACOBIAN_ENTRIES` is ``+0.0`` in
    bytes: a product rule term with a literal-zero factor is left out, not
    written as ``0.0 * (...)``, which a NaN turns into NaN.  The double
    integrator's ``d sdot / d v`` is the literal ``1.0``, not ``1.0 + 0.0 *
    (...)``."""
    model, policy, _ = make_benchmark(name, params)
    n = model.state_dim
    live = LIVE_JACOBIAN_ENTRIES[params.get("profile", name)]
    for x in (np.full(n, math.nan), np.full((2, 3, n), math.nan)):
        jac = policy.closed_loop.jacobian(x)
        assert jac.shape == x.shape + (n,)
        for i in range(n):
            for k in range(n):
                if (i, k) not in live:
                    assert same_bits(jac[..., i, k], np.zeros(x.shape[:-1])), \
                        f"{name} {params} entry {(i, k)}: {jac[..., i, k]!r}"
        if name == "double_integrator":
            assert same_bits(jac[..., 0, 1], np.ones(x.shape[:-1]))


def blowup_statement(p, k, x0, x1):
    """x0dot = 1, x1dot = 50 x0 x1; an idle backup."""
    return (1.0, 50.0 * x0 * x1), ((0.0,), (0.0,)), (0.0,), (x0,)


def sensitivity_blowup_system():
    """`blowup_statement` from x1(0) = 0: the state stays finite (x1 = 0)
    while Q11 = exp(25 t^2) overflows near t = 5.3 s."""
    return idle("blowup", blowup_statement, (), 2)


def test_sensitivity_only_divergence_reports_step():
    """Both flows stop at the step where ``Q`` first overflows, that of the
    product-form reference (step 540; the step-form reference overflows at
    538, where its stage slopes do), and the batch names the row."""
    model, policy = sensitivity_blowup_system()
    x0 = np.array([0.0, 0.0])
    expected = reference_march(model, policy, x0, 8.0, 800, product=True)
    assert isinstance(expected, int) and 500 < expected < 560
    with pytest.raises(FlowDivergenceError) as err:
        integrate_flow(model, policy, x0, 8.0, 800)
    assert err.value.step == expected
    # from x0 = -4, Q11 = exp(25 ((t - 4)^2 - 16)) stays bounded on [0, 8]
    x0s = np.array([[-4.0, 0.0], [0.0, 0.0]])
    ends, _ = integrate_flow_batch(model, policy, x0s, 8.0, 800,
                                   with_sensitivity=False)
    assert np.all(np.isfinite(ends))
    assert reference_march(model, policy, x0s, 8.0, 800,
                           product=True) == expected
    with pytest.raises(FlowDivergenceError) as batch_err:
        integrate_flow_batch(model, policy, x0s, 8.0, 800)
    assert batch_err.value.step == expected
    assert batch_err.value.row == 1


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 on this "
                           "platform, so the oracle would have no extra "
                           "precision")
@pytest.mark.parametrize("name, params, x0, steps", [
    STIFF_CASE[:2] + (STIFF_CASE[2][0], STIFF_CASE[3]),
    # the shipped scenarios' initial states at their step counts
    ("double_integrator", {}, [0.0, 0.0], 100),
    ("dubins", {"profile": "aggressive"}, [0.0, 5.0, 0.0], 100),
    ("dubins", {}, [0.0, 5.0, 0.0], 100),
    ("aeroplane", {}, [4.0, 0.3, math.pi], 200)])
def test_sensitivity_within_bound_of_longdouble_oracle(name, params, x0,
                                                       steps):
    """The accuracy gate of the product-form sensitivity: `integrate_flow`'s
    ``Q`` at every node is within `product_error_bound` at c = 2 of the
    step-form recursion run in `np.longdouble` from the same float64 stage
    Jacobians, on the stiff case and at the shipped scenarios' initial
    states."""
    model, policy, _ = make_benchmark(name, params)
    horizon = BENCHMARK_DEFAULTS[name]["t_horizon_s"]
    dt = horizon / steps
    traj = integrate_flow(model, policy, x0, horizon, steps)
    jacs = stage_jacobians(policy, traj.origin, horizon, steps)
    q = np.eye(len(x0), dtype=np.longdouble)
    oracle = [q]
    for step_jacs in jacs.astype(np.longdouble):
        q = former_q_step(step_jacs, q, dt)
        oracle.append(q)
    assert_sensitivity_within(traj.sensitivities, np.array(oracle),
                              product_error_bound(jacs, dt, traj.sensitivities,
                                                  2))


def test_trajectory_checks_drift_shape():
    traj = integrate_flow(*make_benchmark("toy1d")[:2], np.array([1.0]), 1.0, 10)
    with pytest.raises(ValidationError):
        FlowTrajectory(times=traj.times, states=traj.states,
                       sensitivities=traj.sensitivities,
                       drifts=traj.drifts[:-1], origin=traj.origin)


def test_argument_validation():
    model, policy, _ = make_benchmark("toy1d")
    with pytest.raises(ValidationError):
        integrate_flow(model, policy, np.array([1.0]), -1.0, 10)
    with pytest.raises(ValidationError):
        integrate_flow(model, policy, np.array([1.0]), 1.0, 0)
    with pytest.raises(ValidationError):
        integrate_flow(model, policy, np.array([np.nan]), 1.0, 10)
    with pytest.raises(ValidationError):
        sensitivity_fd_check(model, policy, np.array([1.0]), 1.0, 10, 0.0)


def test_initial_state_of_the_wrong_shape_is_refused():
    """Both flows and `filter_control` refuse an initial state that is not
    ``(n,)`` (a batch not ``(B, n)``) with `ValidationError` naming both
    shapes, before any step (such a state used to fail in the compiled
    step, or blame the policy's arity)."""
    model, policy, spec = make_benchmark("dubins")
    for x0 in ([0.3, 5.0], [0.3, 5.0, 0.1, 1.0], 0.3, [[0.3, 5.0, 0.1]]):
        shape = re.escape(f"(3,), got {np.shape(x0)}")
        with pytest.raises(ValidationError, match=shape):
            integrate_flow(model, policy, x0, 8.0, 100)
        with pytest.raises(ValidationError, match=shape):
            filter_control(model, policy, spec, x0, [0.0, 0.0], 8.0, 100)
    for x0s in ([0.3, 5.0, 0.1], np.zeros((4, 2)), np.zeros((2, 4, 3))):
        with pytest.raises(ValidationError, match=re.escape(
                f"(batch, 3), got {np.shape(x0s)}")):
            integrate_flow_batch(model, policy, x0s, 8.0, 100)


def test_loop_floats_check_treats_nan_as_equal():
    """A NaN slope component at ``x0`` makes both flows diverge at their
    first step.  Aggressive Dubins with ``k_y = (1e308, 1e308)`` steers on
    ``1e308 Y + 1e308 psi``, which is ``inf - inf`` at ``Y = 2, psi = -2``."""
    model, policy, _ = make_benchmark("dubins", {"profile": "aggressive",
                                                 "k_y": (1e308, 1e308)})
    x0 = [2.0, 5.0, -2.0]
    assert math.isnan(policy.closed_loop.build(FLOAT_PRIMITIVES)(*x0)[2])
    with pytest.raises(FlowDivergenceError, match="at step 1 "):
        integrate_flow(model, policy, x0, 8.0, 100)
    with pytest.raises(FlowDivergenceError, match="at step 1 .* batch row 1"):
        integrate_flow_batch(model, policy, np.array([[0.3, 5.0, 0.1], x0]),
                             8.0, 100)


def test_closed_loop_of_the_wrong_arity_is_named():
    """The double integrator's generated closed loop, two components, on
    the three states of the Dubins model is refused by both flows, before
    any step, with a `ValidationError` naming the statement and both
    counts."""
    model, policy, _ = make_benchmark("dubins", {"profile": "aggressive"})
    _, other, _ = make_benchmark("double_integrator")
    short = dataclasses.replace(policy, closed_loop=other.closed_loop)
    message = r"policy\.closed_loop returns 2 components, expected 3"
    with pytest.raises(ValidationError, match=message):
        integrate_flow(model, short, [0.3, 5.0, 0.1], 8.0, 100)
    with pytest.raises(ValidationError, match=message):
        integrate_flow_batch(model, short, np.array([[0.3, 5.0, 0.1]] * 4),
                             8.0, 100)


@pytest.mark.parametrize("loop", [lambda p: lambda *x: x, print, "rhs", 0,
                                  None])
def test_closed_loop_must_be_generated(loop):
    """A ``closed_loop`` that is not a generated `ClosedLoop`, ``None``
    included, is refused with `ValidationError` when the policy is made,
    directly or by `dataclasses.replace`."""
    _, policy, _ = make_benchmark("toy1d")
    with pytest.raises(ValidationError, match="closed_loop must be a "
                       "generated ClosedLoop"):
        BackupPolicy(policy.pi_eval, policy.dpi_dx, closed_loop=loop)
    with pytest.raises(ValidationError, match="closed_loop must be a "
                       "generated ClosedLoop"):
        dataclasses.replace(policy, closed_loop=loop)


def test_replaced_closed_loop_is_marched_as_given():
    """A policy whose ``closed_loop`` is swapped with `dataclasses.replace`
    marches on the replacement, never on the march compiled for the
    statement it replaced: aggressive Dubins' model and ``pi`` with
    conservative Dubins' statement, which brakes no car at 5 m/s, give the
    bytes of conservative Dubins, in both flows."""
    model, policy, _ = make_benchmark("dubins", {"profile": "aggressive"})
    other_model, other, _ = make_benchmark("dubins")
    x0, horizon, steps = [0.3, 5.0, 0.1], 8.0, 100
    own = integrate_flow(model, policy, x0, horizon, steps)
    generated = dataclasses.replace(policy, closed_loop=other.closed_loop)
    assert _march(generated.closed_loop) is not _march(policy.closed_loop)
    swapped = integrate_flow(model, generated, x0, horizon, steps)
    given = integrate_flow(other_model, other, x0, horizon, steps)
    for part in ("states", "sensitivities", "drifts"):
        assert (getattr(swapped, part).tobytes()
                == getattr(given, part).tobytes()), part
    assert not np.array_equal(swapped.states, own.states)
    ends, q_end = integrate_flow_batch(model, generated, np.array([x0]),
                                       horizon, steps)
    assert ends.tobytes() == given.states[-1:].tobytes()
    assert q_end.tobytes() == given.sensitivities[-1:].tobytes()


def test_flows_read_only_the_statement():
    """With every evaluator of the model and the policy replaced by one
    that raises, both flows, the batch with and without sensitivity, and
    both barrier evaluations give the bytes they give on the untouched
    triple, on every case of `BATCH_CASES`: they read the policy's closed
    loop alone, and of the model only its state count."""
    def raises(x):
        raise AssertionError("a flow called an evaluator")

    for name, params in BATCH_CASES:
        model, policy, spec = make_benchmark(name, params)
        blind = (dataclasses.replace(model, f_eval=raises, g_eval=raises,
                                     df_dx=raises, dg_dx=raises),
                 dataclasses.replace(policy, pi_eval=raises, dpi_dx=raises))
        box = BENCHMARK_DEFAULTS[name]
        horizon, steps = box["t_horizon_s"], box["n_flow_steps"]
        x0s = np.random.default_rng(43).uniform(
            box["sample_lower"], box["sample_upper"], (5, model.state_dim))
        for x0 in x0s:
            want, got = (integrate_flow(*pair, x0, horizon, steps)
                         for pair in ((model, policy), blind))
            for part in ("times", "states", "sensitivities", "drifts"):
                assert (getattr(got, part).tobytes()
                        == getattr(want, part).tobytes()), (name, part)
            want, got = (eval_h(*pair, spec, x0, horizon, steps)
                         for pair in ((model, policy), blind))
            assert (got.h_value, got.argmin, got.terminal_value) == \
                (want.h_value, want.argmin, want.terminal_value)
            assert got.per_tau_values.tobytes() == want.per_tau_values.tobytes()
        for with_sensitivity in (True, False):
            want, got = (integrate_flow_batch(
                *pair, x0s, horizon, steps, with_sensitivity=with_sensitivity)
                for pair in ((model, policy), blind))
            assert got[0].tobytes() == want[0].tobytes(), name
            assert (got[1] is None if want[1] is None
                    else got[1].tobytes() == want[1].tobytes()), name
        want, got = (eval_h_batch(*pair, spec, x0s, horizon, steps)
                     for pair in ((model, policy), blind))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), name


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, True,
                                     False, 0.0, -1.0, "1.0", None])
def test_horizon_must_be_a_finite_positive_number(horizon):
    """Both flows refuse such a horizon with `ValidationError`, before any
    step (a NaN or infinite one used to diverge at step 1)."""
    model, policy, _ = make_benchmark("toy1d")
    with pytest.raises(ValidationError, match="horizon"):
        integrate_flow(model, policy, np.array([1.0]), horizon, 10)
    with pytest.raises(ValidationError, match="horizon"):
        integrate_flow_batch(model, policy, np.array([[1.0]]), horizon, 10)


@pytest.mark.parametrize("steps", [True, False, 100.0, 1.5, 0, -3, "10",
                                   None, np.float64(10.0)])
def test_steps_must_be_an_integer_at_least_one(steps):
    """Both flows refuse such a step count with `ValidationError` (a bool
    used to run one step or raise `TypeError`, a float `TypeError`)."""
    model, policy, _ = make_benchmark("toy1d")
    with pytest.raises(ValidationError, match="steps"):
        integrate_flow(model, policy, np.array([1.0]), 1.0, steps)
    with pytest.raises(ValidationError, match="steps"):
        integrate_flow_batch(model, policy, np.array([[1.0]]), 1.0, steps)


def test_numpy_integer_steps_and_float_horizon_accepted():
    model, policy, _ = make_benchmark("toy1d")
    traj = integrate_flow(model, policy, np.array([1.0]), np.float64(1.0),
                          np.int64(10))
    ends, _ = integrate_flow_batch(model, policy, np.array([[1.0]]), 1, 10)
    assert len(traj.states) == 11 and np.array_equal(ends[0], traj.states[-1])


def former_tuple_rk4_step(deriv, x, dt):
    """One explicit fourth-order step of ``xdot = deriv(*x)`` from a state
    held as one float or array per component (a whole array ``a`` is the
    1-tuple ``(a,)``): the next state, the four stage points and the four
    slopes ``deriv`` gave at them."""
    half = 0.5 * dt
    k1 = deriv(*x)
    x2 = tuple([a + half * b for a, b in zip(x, k1)])
    k2 = deriv(*x2)
    x3 = tuple([a + half * b for a, b in zip(x, k2)])
    k3 = deriv(*x3)
    x4 = tuple([a + dt * b for a, b in zip(x, k3)])
    k4 = deriv(*x4)
    sixth = dt / 6.0
    nxt = tuple([a + sixth * (((b + 2.0 * c) + 2.0 * d) + e)
                 for a, b, c, d, e in zip(x, k1, k2, k3, k4)])
    return nxt, (x, x2, x3, x4), (k1, k2, k3, k4)


def former_float_march(loop, x, dt, steps):
    """`rk4_step` steps of one state held as a tuple of floats: the flat
    float list of points; point ``4 (i - 1) + s`` is stage ``s`` of step
    ``i``, and the last is the last state.  Stops after the first step that
    leaves finite values, tested per component (a sum of two finite values
    near the float limit overflows)."""
    points = []
    for _ in range(steps):
        x, stages, _ = former_tuple_rk4_step(loop, x, dt)
        for point in stages:
            points += point
        if not all(map(math.isfinite, x)):
            break
    points += x
    return points


def march_outcome(march, x0, dt, steps):
    """The points of ``march(x, dt, steps)`` from ``x0`` as a tuple of
    floats, in bytes, and the steps it made, or the `ValueError` it raised
    (``math.sin`` of an infinity)."""
    x = tuple(np.asarray(x0, dtype=float).tolist())
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            points = march(x, dt, steps)
        except ValueError as exc:
            return repr(exc)
    return np.array(points).tobytes(), (len(points) // len(x) - 1) // 4


def assert_march_matches_former(march, loop, x0, dt, steps):
    """The compiled float ``march`` gives the points of the former march on
    ``loop`` in bytes, so it stops after the same step; returns the steps
    it made."""
    got = march_outcome(march, x0, dt, steps)
    assert got == march_outcome(functools.partial(former_float_march, loop),
                                x0, dt, steps), (x0, dt, steps)
    return got[1]


def smoothing_calls(policy, x):
    """``(primitive, argument, parameters)`` of each ``saturate``, ``sign``
    and ``indicator`` call the policy's closed loop makes at ``x`` on
    floats, in order."""
    calls = []

    def recording(kind):
        twin = getattr(FLOAT_PRIMITIVES, kind)

        def call(y, *params):
            calls.append((kind, y, params))
            return twin(y, *params)
        return call

    policy.closed_loop.build(FLOAT_PRIMITIVES._replace(
        **{kind: recording(kind) for kind in ("saturate", "sign",
                                              "indicator")}))(*x)
    return calls


def band_edges(kind, params):
    """Where the float twin of ``kind`` switches branch: ``hi +- eps``,
    ``lo +- eps`` and the clamps for ``saturate``; ``+-eps`` and ``+-0.0``
    for ``sign``; ``-eps`` (where ``t = 0``) and ``+-0.0`` (``t = 1``) for
    ``indicator``."""
    if kind == "saturate":
        lo, hi, eps = params
        return [hi - eps, hi + eps, lo - eps, lo + eps, hi, lo]
    eps, = params
    return [-eps, 0.0, -0.0] + ([eps] if kind == "sign" else [])


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def edge_starts(policy, base):
    """States that put the argument of each smoothing call of the policy's
    closed loop on each of its `band_edges`, and their `math.nextafter`
    neighbours, each moving one component of ``base``: a secant step (or
    ``+-0.0`` for a zero edge), then one ulp at a time until the argument
    is the edge, sign included, or has passed it.  Where no float does it
    exactly (``5.0 - v`` is never ``-3.15``), the neighbours straddle it."""
    starts = []
    for j, (kind, _, params) in enumerate(smoothing_calls(policy, base)):
        for edge in band_edges(kind, params):
            reached = False
            for k in range(len(base)):
                def arg(s):
                    return smoothing_calls(
                        policy, base[:k] + [s] + base[k + 1:])[j][1]
                f0, f1 = arg(base[k]), arg(base[k] + 1.0)
                if f0 == f1:
                    continue            # component k does not reach the call
                seeds = [base[k] + (edge - f0) / (f1 - f0)]
                for s in seeds + [0.0, -0.0] * (edge == 0.0):
                    below = arg(s) < edge
                    toward = math.inf if (f1 > f0) == below else -math.inf
                    for _ in range(64):
                        if same_float(arg(s), edge) or (arg(s) < edge) != below:
                            break
                        s = math.nextafter(s, toward)
                    near = [math.nextafter(s, -math.inf), s,
                            math.nextafter(s, math.inf)]
                    args = [arg(t) for t in near]
                    reached |= (any(same_float(a, edge) for a in args)
                                or min(args) < edge < max(args))
                    starts += [base[:k] + [t] + base[k + 1:] for t in near]
            assert reached, (kind, params, edge)
    return starts


@pytest.mark.parametrize("name, params", REFERENCE_CASES)
def test_compiled_march_matches_former_march(name, params):
    """The march with the statement's float kernel written in, which calls
    no smoothing, gives the bytes of the former march on the statement
    built on floats, from random states and from states that put each
    inlined smoothing's argument on a band edge or next to it
    (`edge_starts`), and of the former march on the stacked `loop_rhs` of
    the model split into components (``np.float64`` slopes) at sampled
    states; and the compiled `rk4_step` on a batch of ``(B,)`` arrays gives
    the former generic step's next state and stage points in bytes."""
    model, policy, _ = make_benchmark(name, params)
    box = BENCHMARK_DEFAULTS[name]
    horizon, steps = box["t_horizon_s"], box["n_flow_steps"]
    dt = horizon / steps
    x0s = np.random.default_rng(29).uniform(
        box["sample_lower"], box["sample_upper"], (6, model.state_dim))
    closed = policy.closed_loop
    assert len(closed.rows) == model.state_dim
    assert not re.search(r"\b(saturate|sign|indicator)\(",
                         "\n".join(closed.kernel("b", "p")))
    march = _march(closed)
    loop = policy.closed_loop.build(FLOAT_PRIMITIVES)
    stacked = _stacked(model, policy)
    assert isinstance(stacked(*x0s[0].tolist())[0], np.float64)
    for x0 in x0s:
        assert assert_march_matches_former(march, loop, x0, dt, steps) == steps
        assert assert_march_matches_former(march, stacked, x0, dt,
                                           steps) == steps
    base = [0.5 * (lo + hi) for lo, hi in zip(box["sample_lower"],
                                              box["sample_upper"])]
    starts = edge_starts(policy, base)
    starts += np.random.default_rng(41).uniform(
        box["sample_lower"], box["sample_upper"],
        (40, model.state_dim)).tolist()
    for x0 in starts:
        assert assert_march_matches_former(march, loop, x0, dt,
                                           steps) == steps, (name, x0)

    loop = policy.closed_loop.build(ARRAY_PRIMITIVES)
    x = tuple(x0s.T.copy())
    for _ in range(3):
        got = rk4_step(loop, x, dt)
        want = former_tuple_rk4_step(loop, x, dt)[:2]
        for part, former in zip(got, want, strict=True):
            assert np.array(part).tobytes() == np.array(former).tobytes()
        x = got[0]


@pytest.mark.parametrize("name, params", REFERENCE_CASES)
def test_kernel_cannot_overwrite_march_variables(name, params):
    """The float kernel written at slope ``b`` and point ``p`` is plain
    assignments and branches that read only ``p0 .. p{n-1}``, ``sin``,
    ``cos``, ``abs``, ``inf`` and names assigned on an earlier line, and
    assign only ``b0 .. b{n-1}`` (each of them), temporaries ``t<k>`` and
    the scratch names ``d``, ``q`` and ``t``: so written into the march it
    never touches the state, another slope or stage point, ``half``,
    ``sixth``, ``points``, ``dt`` or ``steps``."""
    model, policy, _ = make_benchmark(name, params)
    n = model.state_dim
    slopes = {f"b{i}" for i in range(n)}
    readable = {f"p{i}" for i in range(n)} | {"sin", "cos", "abs", "inf"}
    assigned = set()

    def reads(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                assert isinstance(sub.ctx, ast.Load), ast.unparse(node)
                assert sub.id in readable | assigned, (name, sub.id)

    def check(statements):
        for statement in statements:
            if isinstance(statement, ast.If):
                reads(statement.test)
                check(statement.body)
                check(statement.orelse)
                continue
            assert isinstance(statement, ast.Assign), ast.unparse(statement)
            reads(statement.value)
            for target in statement.targets:
                assert isinstance(target, ast.Name), ast.unparse(statement)
                assert (target.id in slopes | {"d", "q", "t"}
                        or re.fullmatch(r"t\d+", target.id)), (name, target.id)
                assigned.add(target.id)

    check(ast.parse("\n".join(policy.closed_loop.kernel("b", "p"))).body)
    assert slopes <= assigned


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compiled_march_matches_former_on_linear_systems(n):
    """``xdot = A x`` for random ``A`` of each size, against the former
    march on the stacked `loop_rhs` (``np.float64`` slopes), and a start
    that diverges: the compiled march stops after the same step as the
    former one."""
    rng = np.random.default_rng(31 + n)
    model, policy = linear_system(rng.normal(size=(n, n)))
    for _ in range(4):
        assert assert_march_matches_former(
            _march(policy.closed_loop), _stacked(model, policy),
            rng.normal(size=n), 0.05, 40) == 40
    model, policy = linear_system(200.0 * np.eye(n))
    stop = assert_march_matches_former(
        _march(policy.closed_loop), _stacked(model, policy),
        rng.normal(size=n), 1.0, 50)
    assert 1 <= stop < 50


def test_compiled_march_stops_where_the_former_does():
    """The double integrator from s = 1.79e308 leaves finite values at
    step 8, as the former march does on the policy's statement and on
    stacked `loop_rhs`.  From states with a component at +-1.79e308 or
    +-1e306, the march with each statement's closed loop written in stops
    after the same step as the former march calling it, with the same
    points, on every case of `REFERENCE_CASES` (or raises the same
    `ValueError`)."""
    model, policy, _ = make_benchmark("double_integrator")
    for loop in (policy.closed_loop.build(FLOAT_PRIMITIVES),
                 _stacked(model, policy)):
        assert assert_march_matches_former(_march(policy.closed_loop), loop,
                                           [1.79e308, 1e306], 0.1, 100) == 8
    stops = set()
    for name, params in REFERENCE_CASES:
        model, policy, _ = make_benchmark(name, params)
        box = BENCHMARK_DEFAULTS[name]
        n, steps = model.state_dim, box["n_flow_steps"]
        dt = box["t_horizon_s"] / steps
        march = _march(policy.closed_loop)
        former = functools.partial(former_float_march,
                                   policy.closed_loop.build(FLOAT_PRIMITIVES))
        base = [0.5 * (lo + hi) for lo, hi in zip(box["sample_lower"],
                                                  box["sample_upper"])]
        starts = [base[:k] + [big] + base[k + 1:] for k in range(n)
                  for big in (1.79e308, -1.79e308, 1e306, -1e306)]
        starts += [[big] * n for big in (1.79e308, -1.79e308, 1e306)]
        starts += [[big] + [1e306 * math.copysign(1.0, big)] * (n - 1)
                   for big in (1.79e308, -1.79e308)]
        for x0 in starts:
            got = march_outcome(march, x0, dt, steps)
            assert got == march_outcome(former, x0, dt, steps), \
                (name, params, x0)
            stops.add((name, got[1] if isinstance(got, tuple) else got))
    # some starts stop at the first step, some never, and these mid-path
    assert {("double_integrator", 8), ("dubins", 10)} <= stops


def former_q_step(jacs, q, dt):
    """One step of the variational equation ``Qdot = J Q`` from the loop
    Jacobians at the step's four stage points, in stage order."""
    stage_jacs = iter(jacs)
    (q,), _, _ = former_tuple_rk4_step(
        lambda p: (np.matmul(next(stage_jacs), p),), (q,), dt)
    return q


def rk4_q_step(jacs, q, dt):
    """`rk4_step` itself on ``Qdot = J Q``, its slope at each stage the
    next of the step's four Jacobians times the stage point."""
    stage_jacs = iter(jacs)
    (q,), _ = rk4_step(lambda p: (np.matmul(next(stage_jacs), p),), (q,), dt)
    return q


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_single_state_q_step_dot_matches_matmul(n):
    """The single-state flow's product ``M_i.dot(Q_i)`` (`ndarray.dot`)
    gives the bytes of the batch flow's `np.matmul` on ``(B, n, n)`` stacks,
    for transition matrices `_q_step` builds on stacked identities from
    random Jacobians of each size, with entries of every scale and some
    exact zeros of both signs, chained as the flows chain them and on
    random ``Q``.  A 1x1 `dot` is a plain product, which keeps a zero's
    sign where matmul's accumulator gives +0; but no entry of ``M_i`` is
    -0 (each is an identity entry, +0 or 1, plus a term), so a flow's ``Q``
    can hold -0 only after an entry of ``M_i`` that is exactly 0."""
    rng = np.random.default_rng(37 + n)
    count = 8
    chained = _identities(count, n)
    for _ in range(40):
        jacs = rng.normal(size=(4, count, n, n)) * 10.0 ** rng.integers(
            -3, 4, (4, count, n, n))
        jacs[rng.random(jacs.shape) < 0.1] = 0.0
        jacs[rng.random(jacs.shape) < 0.1] = -0.0
        trans = _q_step(jacs, _identities(count, n),
                        float(rng.uniform(1e-3, 0.1)))
        assert not np.any(np.signbit(trans) & (trans == 0.0)), n
        for q in (chained, rng.normal(size=(count, n, n))):
            stacked = np.matmul(trans, q)
            for m, p, want in zip(trans, q, stacked):
                assert m.dot(p).tobytes() == want.tobytes(), n
        chained = np.matmul(trans, chained)
        if not np.all(np.abs(chained) < 1e100):
            chained = _identities(count, n)


@pytest.mark.parametrize("name, params", REFERENCE_CASES)
def test_q_step_matches_former_q_step(name, params):
    """`_q_step` gives the bits of the former generic step and of this
    package's `rk4_step`, each stepped through an iterator over the stage
    Jacobians, at every step of sampled paths, for one state and for the
    paths stacked as a batch: one arithmetic for the state and for Q."""
    model, policy, _ = make_benchmark(name, params)
    box = BENCHMARK_DEFAULTS[name]
    horizon, steps = box["t_horizon_s"], box["n_flow_steps"]
    dt = horizon / steps
    x0s = np.random.default_rng(11).uniform(
        box["sample_lower"], box["sample_upper"], (5, model.state_dim))
    paths = []
    for x0 in x0s:
        paths.append(stage_jacobians(policy, x0, horizon, steps))
        q = q_former = q_rk4 = np.eye(model.state_dim)
        for step_jacs in paths[-1]:
            q = _q_step(step_jacs, q, dt)
            q_former = former_q_step(step_jacs, q_former, dt)
            q_rk4 = rk4_q_step(step_jacs, q_rk4, dt)
            assert q.tobytes() == q_former.tobytes(), (name, params, x0)
            assert q.tobytes() == q_rk4.tobytes(), (name, params, x0)
    stacked = np.stack(paths, axis=2)          # (steps, 4, B, n, n)
    q = q_former = q_rk4 = np.broadcast_to(np.eye(model.state_dim),
                                           stacked.shape[2:]).copy()
    for step_jacs in stacked:
        q = _q_step(step_jacs, q, dt)
        q_former = former_q_step(step_jacs, q_former, dt)
        q_rk4 = rk4_q_step(step_jacs, q_rk4, dt)
        assert q.tobytes() == q_former.tobytes(), (name, params)
        assert q.tobytes() == q_rk4.tobytes(), (name, params)


def former_rk4_step(deriv, x, dt):
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


@pytest.mark.parametrize("name, params", REFERENCE_CASES)
def test_plant_step_matches_former_array_step(name, params):
    """`rk4_step` on the 1-tuple ``(x,)`` with the slope `affine_sum`
    sums, as the simulation steps the plant, gives the bytes of the former
    array step on ``f + g @ u``, for the next state and the four stage
    points, on each benchmark at sampled states, inputs and steps (every
    row of a benchmark's ``g`` has at most one nonzero entry)."""
    model, _, _ = make_benchmark(name, params)
    box = BENCHMARK_DEFAULTS[name]
    rng = np.random.default_rng(17)
    for _ in range(40):
        x = rng.uniform(box["sample_lower"], box["sample_upper"])
        u = rng.uniform(model.input_lower, model.input_upper)
        dt = float(rng.uniform(1e-3, 0.2))

        def former_plant(xs):
            return model.f_eval(xs) + model.g_eval(xs) @ u

        (nxt,), stages = rk4_step(lambda xs: (affine_sum(
            model.f_eval(xs), model.g_eval(xs), u),), (x,), dt)
        former, former_stages = former_rk4_step(former_plant, x, dt)
        assert nxt.tobytes() == former.tobytes(), (name, params, x, u, dt)
        for (point,), former_point in zip(stages, former_stages):
            assert point.tobytes() == former_point.tobytes(), (name, x, u, dt)


@pytest.mark.parametrize("fd_step", [0.0, -1e-5, math.nan, math.inf,
                                     -math.inf, np.float64(math.nan), True,
                                     None, "1e-5"])
def test_sensitivity_fd_check_refuses_bad_fd_step(fd_step):
    """Anything but a finite number > 0 (a bool is not a number) is refused
    with an error naming ``fd_step``, before any flow is integrated."""
    model, policy, _ = make_benchmark("toy1d")
    with pytest.raises(ValidationError, match="fd_step"):
        sensitivity_fd_check(model, policy, np.array([1.0]), 1.0, 10, fd_step)
