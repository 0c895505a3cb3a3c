"""Flow integration: closed-form anchors, order of accuracy, sensitivities."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backup_cbf.barrier import eval_h
from backup_cbf.errors import FlowDivergenceError, ValidationError
from backup_cbf.flow import (FlowTrajectory, integrate_flow,
                             integrate_flow_batch, sensitivity_fd_check)
from backup_cbf.systems import (BENCHMARK_DEFAULTS, BackupPolicy, SafetySpec,
                                ScalarConstraint, SystemModel, closed_loop_rhs,
                                loop_jacobian, loop_rhs, make_benchmark)


def linear_system(a_mat):
    """xdot = A x realized as drift-only plant with an idle backup."""
    a_mat = np.asarray(a_mat, dtype=float)
    n = a_mat.shape[0]

    def f(x):
        x = np.asarray(x, dtype=float)
        return x @ a_mat.T

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (n, 1))

    def df(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(a_mat, x.shape[:-1] + (n, n)).copy()

    model = SystemModel(n, 1, f, g, df, None,
                        np.array([-1.0]), np.array([1.0]))
    policy = BackupPolicy(lambda x: np.zeros(np.asarray(x).shape[:-1] + (1,)),
                          lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, n)),
                          smoothing_eps=0.01)
    return model, policy


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


def reference_march(model, policy, x, horizon, steps):
    """States and sensitivities ``(steps + 1, ...)`` of one state ``(n,)``
    or a batch ``(B, n)``, or the first step that left finite values."""
    dt = horizon / steps
    q = np.broadcast_to(np.eye(x.shape[-1]), x.shape + x.shape[-1:]).copy()
    xs, qs = [x], [q]
    for i in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            x, q = reference_rk4_step(model, policy, x, q, dt)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(q))):
            return i
        xs.append(x)
        qs.append(q)
    return np.array(xs), np.array(qs)


def assert_sensitivity_close(q, q_ref):
    """Entrywise within ``1e-12 * max(1, |Q_ref|)``."""
    scaled = np.abs(q - q_ref) / np.maximum(1.0, np.abs(q_ref))
    assert np.all(scaled <= 1e-12), float(np.max(scaled))


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
    model, policy, _ = make_benchmark("double_integrator",
                                      {"smoothing_eps": 0.0})
    traj = integrate_flow(model, policy, np.array([0.0, 2.0]), 1.0, 10)
    # no switching crossed before t=1, so the arc and its sensitivity are exact
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


def test_batch_matches_single():
    model, policy, _ = make_benchmark("aeroplane")
    x0s = np.array([[4.0, 0.3, np.pi], [-2.0, 1.0, 0.5], [1.0, -3.0, -1.0]])
    ends, q_end = integrate_flow_batch(model, policy, x0s, 2.0, 50)
    for i, x0 in enumerate(x0s):
        traj = integrate_flow(model, policy, x0, 2.0, 50)
        assert np.allclose(ends[i], traj.states[-1], atol=1e-12)
        assert np.allclose(q_end[i], traj.sensitivities[-1], atol=1e-12)


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


@settings(max_examples=80, deadline=None)
@given(reference_inputs())
def test_two_phase_flow_matches_reference_march(case):
    """States bit-equal and sensitivities within 1e-12 (relative to
    max(1, |Q|)) of the augmented lockstep march, for one state and for
    a batch with and without sensitivity; a diverging reference must
    diverge at the same step."""
    name, params, x0s, steps = case
    model, policy, _ = make_benchmark(name, params)
    horizon = BENCHMARK_DEFAULTS[name]["t_horizon_s"]
    for x0 in x0s:
        ref = reference_march(model, policy, x0, horizon, steps)
        if isinstance(ref, int):
            with pytest.raises(FlowDivergenceError) as err:
                integrate_flow(model, policy, x0, horizon, steps)
            assert err.value.step == ref
            continue
        traj = integrate_flow(model, policy, x0, horizon, steps)
        assert np.array_equal(traj.states, ref[0])
        assert_sensitivity_close(traj.sensitivities, ref[1])
        assert np.array_equal(traj.drifts, closed_loop_rhs(model, policy, traj.states))
    ref = reference_march(model, policy, x0s, horizon, steps)
    if isinstance(ref, int):
        with pytest.raises(FlowDivergenceError) as err:
            integrate_flow_batch(model, policy, x0s, horizon, steps)
        assert err.value.step == ref
        return
    ends, q_end = integrate_flow_batch(model, policy, x0s, horizon, steps)
    assert np.array_equal(ends, ref[0][-1])
    assert_sensitivity_close(q_end, ref[1][-1])
    ends, _ = integrate_flow_batch(model, policy, x0s, horizon, steps,
                                   with_sensitivity=False)
    assert np.array_equal(ends, ref[0][-1])


def sensitivity_blowup_system():
    """x0dot = 1, x1dot = 50 x0 x1 from x1(0) = 0: the state stays finite
    (x1 = 0) while Q11 = exp(25 t^2) overflows near t = 5.3 s."""
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.ones_like(x[..., 0]), 50.0 * x[..., 0] * x[..., 1]],
                        axis=-1)

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 1))

    def df(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 1, 0] = 50.0 * x[..., 1]
        out[..., 1, 1] = 50.0 * x[..., 0]
        return out

    model = SystemModel(2, 1, f, g, df, None, np.array([-1.0]), np.array([1.0]))
    policy = BackupPolicy(lambda x: np.zeros(np.asarray(x).shape[:-1] + (1,)),
                          lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 2)),
                          smoothing_eps=0.01)
    return model, policy


def test_sensitivity_only_divergence_reports_step():
    model, policy = sensitivity_blowup_system()
    x0 = np.array([0.0, 0.0])
    expected = reference_march(model, policy, x0, 8.0, 800)
    assert isinstance(expected, int) and 500 < expected < 560
    with pytest.raises(FlowDivergenceError) as err:
        integrate_flow(model, policy, x0, 8.0, 800)
    assert err.value.step == expected
    # from x0 = -4, Q11 = exp(25 ((t - 4)^2 - 16)) stays bounded on [0, 8]
    x0s = np.array([[-4.0, 0.0], [0.0, 0.0]])
    ends, _ = integrate_flow_batch(model, policy, x0s, 8.0, 800,
                                   with_sensitivity=False)
    assert np.all(np.isfinite(ends))
    assert reference_march(model, policy, x0s, 8.0, 800) == expected
    with pytest.raises(FlowDivergenceError) as batch_err:
        integrate_flow_batch(model, policy, x0s, 8.0, 800)
    assert batch_err.value.step == expected
    assert batch_err.value.row == 1


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


def test_loop_floats_checked_against_the_model():
    """A built-in policy's float closed loop encodes its own model; paired
    with a changed model it is refused (checked at every node), while the same
    change without ``loop_floats`` integrates the changed dynamics."""
    model, policy, _ = make_benchmark("double_integrator")
    doubled = dataclasses.replace(model, f_eval=lambda x: 2.0 * model.f_eval(x))
    with pytest.raises(ValidationError, match=r"component 0: 2\.0 != 4\.0"):
        integrate_flow(doubled, policy, [0.0, 2.0], 1.0, 10)
    traj = integrate_flow(doubled, dataclasses.replace(policy, loop_floats=None),
                          [0.0, 2.0], 1.0, 10)
    assert traj.states[-1] == pytest.approx([3.0, 1.0], abs=1e-12)
    assert integrate_flow(model, policy, [0.0, 2.0], 1.0,
                          10).states[-1] == pytest.approx([1.5, 1.0], abs=1e-12)


def test_loop_floats_checked_wherever_the_march_goes():
    """A model change that the march reaches only later is refused too: a
    double integrator whose ``vdot`` gains +0.5 only where ``s > 2``, from
    ``x0 = (0, 3)``, first disagrees at node 8 in the velocity component;
    without ``loop_floats`` the changed dynamics are integrated, and the
    barrier reads the changed model's margin."""
    model, policy, spec = make_benchmark("double_integrator")

    def f(x):
        out = model.f_eval(x)
        out[..., 1] = out[..., 1] + np.where(np.asarray(x)[..., 0] > 2.0,
                                             0.5, 0.0)
        return out

    changed = dataclasses.replace(model, f_eval=f)
    with pytest.raises(ValidationError,
                       match=r"node 8, component 1: -1\.0 != -0\.5"):
        integrate_flow(changed, policy, [0.0, 3.0], 10.0, 100)
    custom = dataclasses.replace(policy, loop_floats=None)
    traj = integrate_flow(changed, custom, [0.0, 3.0], 10.0, 100)
    assert traj.states[-1] == pytest.approx([6.383, -0.125], abs=1e-3)
    assert eval_h(changed, custom, spec, [0.0, 3.0], 10.0,
                  100).h_value == pytest.approx(0.125, abs=1e-3)


def test_loop_floats_check_treats_nan_as_equal():
    """A NaN slope component at ``x0`` that both paths give is no mismatch;
    the flow then diverges at its first step."""
    model, policy = linear_system(np.eye(1))
    nan_f = dataclasses.replace(
        model, f_eval=lambda x: np.full(np.shape(x), np.nan))
    with_floats = dataclasses.replace(policy, loop_floats=lambda x: (math.nan,))
    with pytest.raises(FlowDivergenceError):
        integrate_flow(nan_f, with_floats, [1.0], 1.0, 10)
