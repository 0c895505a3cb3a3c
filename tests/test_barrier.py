"""Barrier evaluation, constraint rows, filter behavior, degree probe."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from backup_cbf.barrier import (build_constraints, eval_h, eval_h_batch,
                                filter_control, relative_degree_probe,
                                terminal_row_coefficient)
from backup_cbf.errors import EvaluationError, ValidationError
from backup_cbf.qp import QpProblem, QpSolver
from backup_cbf.systems import (BENCHMARK_DEFAULTS, di_closed_form_h,
                                make_benchmark)
from tests.test_flow import REFERENCE_CASES
from tests.test_systems import BLEND_WIDTHS

GAMMA = 1.0


# ---------------------------------------------------------------------------
# eval_h
# ---------------------------------------------------------------------------


def test_eval_h_di_static_violation():
    model, policy, spec = make_benchmark("double_integrator")
    ev = eval_h(model, policy, spec, np.array([12.0, 0.0]), 10.0, 100)
    assert ev.h_value == pytest.approx(-2.0, abs=1e-9)
    assert ev.argmin == (0, 0)
    assert ev.h_value == min(float(ev.per_tau_values.min()), ev.terminal_value)


def test_eval_h_di_braking_boundary_smooth_mode():
    # The smooth indicator brakes at full strength for v >= 0, so the peak
    # position (and the worst path value 8) is exact; the blend band below
    # the surface leaves the endpoint just inside the rest set.
    model, policy, spec = make_benchmark("double_integrator")
    ev = eval_h(model, policy, spec, np.array([0.0, 2.0]), 10.0, 100)
    assert ev.per_tau_values.min() == pytest.approx(8.0, abs=1e-6)
    assert 0.0 < ev.terminal_value <= BLEND_WIDTHS["double_integrator"]
    assert ev.h_value == pytest.approx(ev.terminal_value)


def test_eval_h_toy_equilibrium():
    model, policy, spec = make_benchmark("toy1d")
    ev = eval_h(model, policy, spec, np.array([0.0]), 1.0, 100)
    assert ev.h_value == pytest.approx(1.0, abs=1e-12)
    assert ev.terminal_value == pytest.approx(1.0, abs=1e-12)


def test_eval_h_batch_matches_single():
    model, policy, spec = make_benchmark("dubins")
    states = np.array([[0.0, 5.0, 0.0], [1.5, 4.0, 0.3], [-1.0, 6.0, -0.5]])
    batch = eval_h_batch(model, policy, spec, states, 8.0, 100)
    for i, x in enumerate(states):
        ev = eval_h(model, policy, spec, x, 8.0, 100)
        assert batch.h[i] == pytest.approx(ev.h_value, abs=1e-10)
        assert batch.terminal[i] == pytest.approx(ev.terminal_value, abs=1e-10)
        assert batch.path_min[i] == pytest.approx(
            float(ev.per_tau_values.min()), abs=1e-10)


# ---------------------------------------------------------------------------
# constraint rows
# ---------------------------------------------------------------------------


def test_row_count_and_labels():
    model, policy, spec = make_benchmark("dubins")
    x = np.array([0.5, 5.0, 0.0])
    ev = eval_h(model, policy, spec, x, 8.0, 100)
    rows = build_constraints(model, policy, spec, ev)
    n_tau = 101
    n_rows = n_tau * len(spec.constraints) + 1
    assert rows.rows.shape == (n_rows, model.input_dim)
    assert rows.rhs.shape == (n_rows,)
    expected = [("path", k, i) for k in range(len(spec.constraints))
                for i in range(n_tau)] + [("terminal", 0, 100)]
    assert [rows.label(r) for r in range(n_rows)] == expected
    with pytest.raises(IndexError):
        rows.label(n_rows)


def test_toy_row_closed_form():
    """Row at grid time tau for the toy plant: a = -2 e^{-2 tau} and
    b = 2 e^{-2 tau} - gamma (4 - e^{-2 tau}), from the hand-expanded flow
    x e^{-tau}, sensitivity e^{-tau}, and backup drift -x e^{-tau}."""
    model, policy, spec = make_benchmark("toy1d")
    x = np.array([1.0])
    ev = eval_h(model, policy, spec, x, 1.0, 100)
    rows = build_constraints(model, policy, spec, ev)
    for idx in (0, 25, 50, 99):
        tau = ev.trajectory.times[idx]
        a, b = rows.rows[idx], rows.rhs[idx]
        e2 = math.exp(-2.0 * tau)
        assert a[0] == pytest.approx(-2.0 * e2, abs=1e-8)
        assert b == pytest.approx(2.0 * e2 - GAMMA * (4.0 - e2), abs=1e-8)
    a_term = rows.rows[-1]
    assert a_term[0] == pytest.approx(-2.0 * math.exp(-2.0), abs=1e-8)


@pytest.mark.parametrize("name,x", [
    ("toy1d", [1.2]),
    ("double_integrator", [3.0, 1.5]),
    ("dubins", [0.7, 4.5, 0.2]),
    ("aeroplane", [3.0, 2.0, 1.0]),
])
def test_path_row_slack_at_backup_is_alpha_h(name, x):
    """At u = pi(x) every path row's slack is alpha(hC_k(Phi_i)) and the
    terminal row's alpha(hS(Phi_N)) + grad hS . F(Phi_N), up to the
    rounding of the deviation form alone (`deviation_rounding_bound`): no
    integration defect of the flow identity Q F(x) = F(Phi) enters."""
    model, policy, spec = make_benchmark(name)
    x = np.array(x, dtype=float)
    horizon = {"toy1d": 1.0, "double_integrator": 10.0,
               "dubins": 8.0, "aeroplane": 4.0}[name]
    steps = 200 if name == "aeroplane" else 100
    ev = eval_h(model, policy, spec, x, horizon, steps)
    rows = build_constraints(model, policy, spec, ev)
    pi = policy.pi_eval(x)
    expected = slacks_at_backup(spec, ev)
    bound = deviation_rounding_bound(rows, pi, expected)
    assert np.all(np.abs(rows.slacks(pi) - expected) <= bound)


def slacks_at_backup(spec, ev):
    """Every row's slack at ``u = pi(x)``: ``alpha(hC_k(Phi_i))`` on the
    path rows, ``alpha(hS(Phi_N)) + grad hS(Phi_N) . F(Phi_N)`` on the
    terminal row, with ``F(Phi_N)`` the flow's last drift."""
    end, drift_end = ev.trajectory.states[-1], ev.trajectory.drifts[-1]
    return np.append(spec.alpha_gain * ev.per_tau_values.reshape(-1),
                     spec.alpha_gain * ev.terminal_value
                     + spec.terminal.grad_eval(end) @ drift_end)


def deviation_rounding_bound(constraints, u, c):
    """Largest ``|constraints.slacks(u) - c|`` that rounding alone leaves
    on rows built as ``rhs = fl(fl(rows @ u) - c)`` (``margin = 0``).

    Each of the two ``m``-term products ``rows @ u`` (in the builder and
    in `slacks`) is within ``gamma_m |rows| @ |u|`` of the exact one, with
    ``gamma_m = m e / (1 - m e)`` and unit roundoff ``e``; each of the two
    subtractions adds at most ``e`` times its result, which is at most
    ``|rows| @ |u| + |c|`` to first order.  ``2 (m + 1) e (|rows| @ |u| +
    |c|)`` covers the sum, second-order terms included."""
    rows = constraints.rows
    unit = np.finfo(float).eps / 2
    return 2 * (rows.shape[1] + 1) * unit * (np.abs(rows) @ np.abs(u)
                                             + np.abs(c))


@pytest.mark.parametrize("name, params", REFERENCE_CASES)
def test_backup_input_is_feasible_near_the_boundary(name, params):
    """On near-boundary states (``0 <= h < 0.02``; the first 200 of 40000
    uniform draws over the benchmark's sample box, seed 11) ``pi(x)``
    satisfies every row within `deviation_rounding_bound`: a path row's
    slack there is ``alpha h_i >= 0`` by construction, the terminal row's
    the terminal set's condition under ``pi`` at ``Phi_N``.  So the QP
    started from each corner of the input box solves optimally.  (Rows
    that subtracted the flow's drift from ``Q_i f(x)`` kept the RK4
    defect of ``Q F(x) = F(Phi)``: on aggressive Dubins the terminal row
    read -5.7e-3 at ``pi(x)``, and 5 of the 200 programs were infeasible
    from every corner.)"""
    model, policy, spec = make_benchmark(name, params)
    box = BENCHMARK_DEFAULTS[name]
    horizon, steps = box["t_horizon_s"], box["n_flow_steps"]
    draws = np.random.default_rng(11).uniform(
        box["sample_lower"], box["sample_upper"], (40000, model.state_dim))
    h = np.concatenate([eval_h_batch(model, policy, spec, chunk, horizon,
                                     steps).h
                        for chunk in np.split(draws, 10)])
    states = draws[(h >= 0.0) & (h < 0.02)][:200]
    assert len(states) >= 30
    corners = list(itertools.product(*zip(model.input_lower,
                                          model.input_upper)))
    for x in states:
        ev = eval_h(model, policy, spec, x, horizon, steps)
        rows = build_constraints(model, policy, spec, ev)
        pi = policy.pi_eval(x)
        bound = deviation_rounding_bound(rows, pi, slacks_at_backup(spec, ev))
        assert np.all(rows.slacks(pi) >= -bound), x
        for corner in corners:
            solution = QpSolver().solve(QpProblem(
                u0=np.array(corner), rows=rows.rows, rhs=rows.rhs,
                lower=model.input_lower, upper=model.input_upper))
            assert solution.status == "optimal", (x, corner)


def test_build_constraints_rejects_non_finite_drift():
    """Rows read the flow's recorded drift; a non-finite one is an
    `EvaluationError`, as when the drift was recomputed from the states."""
    model, policy, spec = make_benchmark("toy1d")
    x = np.array([1.0])
    ev = eval_h(model, policy, spec, x, 1.0, 50)
    drifts = ev.trajectory.drifts.copy()
    drifts[7, 0] = np.inf
    bad = dataclasses.replace(
        ev, trajectory=dataclasses.replace(ev.trajectory, drifts=drifts))
    with pytest.raises(EvaluationError, match="coordinate \\(7, 0\\)"):
        build_constraints(model, policy, spec, bad)


def test_margin_tightens_rows():
    model, policy, spec = make_benchmark("toy1d")
    x = np.array([1.0])
    ev = eval_h(model, policy, spec, x, 1.0, 50)
    plain = build_constraints(model, policy, spec, ev)
    tight = build_constraints(model, policy, spec, ev, margin=0.1)
    assert np.allclose(tight.slacks(np.array([0.0])),
                       plain.slacks(np.array([0.0])) - 0.1)


@pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf, -0.1,
                                    np.float64(math.nan), True, None, "0.1"])
def test_margin_must_be_a_finite_number_at_least_zero(margin):
    """`build_constraints` and `filter_control` refuse such a margin with
    `ValidationError` naming it (a NaN or infinite one used to surface
    only as the QP's "rows and rhs must be finite")."""
    model, policy, spec = make_benchmark("toy1d")
    x = np.array([1.0])
    ev = eval_h(model, policy, spec, x, 1.0, 50)
    with pytest.raises(ValidationError, match="margin must be a finite "
                       "number >= 0"):
        build_constraints(model, policy, spec, ev, margin=margin)
    with pytest.raises(ValidationError, match="margin must be a finite "
                       "number >= 0"):
        filter_control(model, policy, spec, x, np.array([0.0]), 1.0, 50,
                       margin=margin)
    tight = build_constraints(model, policy, spec, ev,
                              margin=np.float64(0.1))
    assert np.array_equal(tight.rhs, build_constraints(
        model, policy, spec, ev, margin=0.1).rhs)


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------


def test_filter_deep_inside_returns_nominal():
    model, policy, spec = make_benchmark("double_integrator")
    x = np.array([-5.0, 0.5])
    u0 = policy.pi_eval(x)
    u_star, diag = filter_control(model, policy, spec, x, u0, 10.0, 100)
    assert np.allclose(u_star, u0, atol=1e-10)
    assert diag.qp_status == "optimal"
    assert diag.active_rows == ()
    assert diag.inside_set


def test_filter_brakes_on_boundary():
    model, policy, spec = make_benchmark("double_integrator")
    u_star, diag = filter_control(model, policy, spec, np.array([8.0, 2.0]),
                                  np.array([1.0]), 10.0, 100)
    assert u_star[0] == pytest.approx(-1.0, abs=1e-6)
    assert diag.qp_status == "optimal"
    assert any(lab[0] == "row" for lab in diag.active_rows)


def test_filter_clips_when_rows_inactive():
    # with a large class-K gain the path rows are slack at this state and
    # only the input box binds
    model, policy, spec = make_benchmark("toy1d", {"alpha_gain_per_s": 8.0})
    u_star, diag = filter_control(model, policy, spec, np.array([1.0]),
                                  np.array([10.0]), 1.0, 100)
    assert u_star[0] == pytest.approx(5.0, abs=1e-10)
    assert diag.active_rows == (("upper", 0),)


def test_filter_refuses_a_model_the_flow_did_not_march():
    """The rows read ``g`` from the model, the flow marches on the policy's
    closed loop: a model whose ``f_eval`` was doubled is not the plant the
    rows were derived for, so the filter refuses it.  Evaluators that are
    wrapped but give the same values pass, with the same ``u*``."""
    model, policy, spec = make_benchmark("double_integrator")
    x, u0 = np.array([0.0, 2.0]), np.array([1.0])
    f = model.f_eval
    doubled = dataclasses.replace(model, f_eval=lambda x: 2.0 * f(x))
    with pytest.raises(ValidationError, match="mix two dynamics"):
        filter_control(doubled, policy, spec, x, u0, 10.0, 100)
    wrapped = dataclasses.replace(model, f_eval=lambda x: f(x),
                                  g_eval=lambda x: model.g_eval(x))
    u_star, _ = filter_control(wrapped, policy, spec, x, u0, 10.0, 100)
    assert u_star.tobytes() == filter_control(
        model, policy, spec, x, u0, 10.0, 100)[0].tobytes()


def test_filter_refuses_a_model_whose_f_changes_between_calls():
    """``f_eval`` doubled on every other call, starting with the first:
    the drift check reads ``f(x)`` once (the doubled one), so the filter
    refuses the model.  Were ``f`` read twice, a second read would see the
    plain one."""
    model, policy, spec = make_benchmark("double_integrator")
    f, calls = model.f_eval, []

    def alternating(x):
        calls.append(None)
        return (2.0 if len(calls) % 2 else 1.0) * f(x)

    flaky = dataclasses.replace(model, f_eval=alternating)
    with pytest.raises(ValidationError, match="mix two dynamics"):
        filter_control(flaky, policy, spec, np.array([0.0, 2.0]),
                       np.array([1.0]), 10.0, 100)
    assert len(calls) == 1


def test_build_constraints_refuses_a_model_the_flow_did_not_march():
    """The row builder itself makes the dynamics check, so a direct call
    with a doubled ``f_eval`` is refused as the filter refuses it."""
    model, policy, spec = make_benchmark("double_integrator")
    ev = eval_h(model, policy, spec, np.array([0.0, 2.0]), 10.0, 100)
    f = model.f_eval
    doubled = dataclasses.replace(model, f_eval=lambda x: 2.0 * f(x))
    with pytest.raises(ValidationError, match="mix two dynamics"):
        build_constraints(doubled, policy, spec, ev)


@pytest.mark.parametrize("name, params, x", [
    ("double_integrator", {}, [0.0, 2.0]),
    ("dubins", {"profile": "aggressive"}, [0.0, 5.0, 0.0]),
    ("aeroplane", {}, [4.0, 0.3, 3.0]),
    ("toy1d", {}, [1.0])])
def test_filter_reads_f_g_and_pi_once(name, params, x):
    """One filter call evaluates ``f``, ``g`` and ``pi`` once each: the
    rows share ``g`` and ``pi`` with the dynamics check, which alone reads
    ``f``, the flow calls none of them,
    and on toy1d, where an absurd margin empties the feasible set (as in
    `test_filter_fallback_on_forced_infeasibility`), the fallback returns
    the ``pi(x)`` the rows were built with, in bytes."""
    model, policy, spec = make_benchmark(name, params)
    counts = {"f": 0, "g": 0, "pi": 0}

    def counted(key, fn):
        def wrapper(x):
            counts[key] += 1
            return fn(x)
        return wrapper

    pi_eval = policy.pi_eval
    model = dataclasses.replace(model, f_eval=counted("f", model.f_eval),
                                g_eval=counted("g", model.g_eval))
    policy = dataclasses.replace(policy, pi_eval=counted("pi", pi_eval))
    defaults = BENCHMARK_DEFAULTS[name]
    margin = 1e4 if name == "toy1d" else 0.0
    u_star, diag = filter_control(model, policy, spec, np.array(x),
                                  np.zeros(model.input_dim),
                                  defaults["t_horizon_s"],
                                  defaults["n_flow_steps"], margin=margin)
    assert counts == {"f": 1, "g": 1, "pi": 1}
    if margin:
        assert diag.used_fallback
        assert u_star.tobytes() == pi_eval(np.array(x)).tobytes()
    else:
        assert diag.inside_set and not diag.used_fallback


def test_filter_fallback_on_forced_infeasibility():
    # an absurd tightening margin empties the feasible set; the filter must
    # fall back to the backup input and flag it
    model, policy, spec = make_benchmark("toy1d")
    x = np.array([1.0])
    u_star, diag = filter_control(model, policy, spec, x, np.array([0.0]),
                                  1.0, 100, margin=1e4)
    assert diag.qp_status == "infeasible_fallback"
    assert diag.used_fallback
    assert np.allclose(u_star, policy.pi_eval(x))


def test_filter_diagnostics_serialize():
    import json
    model, policy, spec = make_benchmark("toy1d")
    _, diag = filter_control(model, policy, spec, np.array([1.0]),
                             np.array([0.0]), 1.0, 50)
    doc = json.loads(json.dumps(diag.to_json_dict()))
    assert set(doc) >= {"h_value", "argmin", "row_count", "qp_status",
                        "active_rows", "timings_us"}
    assert doc["timings_us"].keys() >= {"integrate", "rows", "qp"}


def test_filter_diagnostics_carry_the_qp_solution():
    """The diagnostics carry the solver's iteration count, KKT residual and
    warm-start flag (false on a fresh solver), and the JSON writes a
    non-finite residual as null."""
    model, policy, spec = make_benchmark("dubins", {"profile": "aggressive"})
    x, u_nom = np.array([0.0, 5.0, 0.0]), np.array([0.0, 0.5])
    horizon, steps = 8.0, 100
    _, diag = filter_control(model, policy, spec, x, u_nom, horizon, steps)
    evaluation = eval_h(model, policy, spec, x, horizon, steps)
    rows = build_constraints(model, policy, spec, evaluation, 0.0)
    solution = QpSolver().solve(QpProblem(u0=u_nom, rows=rows.rows,
                                          rhs=rows.rhs, lower=model.input_lower,
                                          upper=model.input_upper))
    assert diag.qp_iterations == solution.iterations
    assert diag.kkt_residual == solution.kkt_residual
    assert diag.warm_started is solution.warm_started is False
    doc = json.loads(json.dumps(diag.to_json_dict()))
    assert doc["qp_iterations"] == solution.iterations
    assert doc["kkt_residual"] == solution.kkt_residual
    assert doc["warm_started"] is False
    model, policy, spec = make_benchmark("toy1d")
    _, diag = filter_control(model, policy, spec, np.array([1.0]),
                             np.array([0.0]), 1.0, 100, margin=1e4)
    assert diag.used_fallback and diag.kkt_residual == math.inf
    assert diag.to_json_dict()["kkt_residual"] is None


# ---------------------------------------------------------------------------
# relative degree
# ---------------------------------------------------------------------------


def test_probe_toy_positive_box():
    model, policy, spec = make_benchmark("toy1d")
    frac = relative_degree_probe(model, policy, spec, [0.5], [2.0],
                                 count=100, horizon=1.0, steps=100)
    assert frac == 1.0


@pytest.mark.parametrize("count", [2.5, True, False, 0, -1, "3", None,
                                   np.float64(3.0)])
def test_probe_count_must_be_an_integer_at_least_one(count):
    """``count`` that is not an integer >= 1 is refused with
    `ValidationError` (``2.5`` and ``True`` used to raise a bare
    `TypeError`); a numpy integer is accepted."""
    model, policy, spec = make_benchmark("toy1d")
    with pytest.raises(ValidationError, match="count must be an integer"):
        relative_degree_probe(model, policy, spec, [0.5], [2.0], count=count,
                              horizon=1.0, steps=10)
    assert relative_degree_probe(model, policy, spec, [0.5], [2.0],
                                 count=np.int64(3), horizon=1.0,
                                 steps=10) == 1.0


def test_probe_toy_singular_origin():
    model, policy, spec = make_benchmark("toy1d")
    coeff = terminal_row_coefficient(model, policy, spec, np.array([[0.0]]),
                                     1.0, 100)
    assert coeff.shape == (1, 1)
    assert np.linalg.norm(coeff) <= 1e-8


def test_probe_refuses_a_g_the_flow_did_not_march():
    """`terminal_row_coefficient` checks the model's ``g`` as the rows do,
    once per state against the policy's closed loop there, and names the
    first state that differs; a wrapped ``g`` with the same values gives
    the same coefficients in bytes."""
    model, policy, spec = make_benchmark("toy1d")
    states = np.array([[0.5], [1.5], [-0.5], [1.2]])
    g = model.g_eval

    def doubled_above_one(x):
        return np.where(x[..., None] > 1.0, 2.0, 1.0) * g(x)

    bad = dataclasses.replace(model, g_eval=doubled_above_one)
    with pytest.raises(ValidationError, match="f \\+ g pi at state 1 "):
        terminal_row_coefficient(bad, policy, spec, states, 1.0, 100)
    wrapped = dataclasses.replace(model, g_eval=lambda x: g(x))
    assert (terminal_row_coefficient(wrapped, policy, spec, states, 1.0,
                                     100).tobytes()
            == terminal_row_coefficient(model, policy, spec, states, 1.0,
                                        100).tobytes())


@pytest.mark.parametrize("lower, upper, what", [
    ([np.nan, -5.0], [12.0, 5.0], "NaN"),
    ([-10.0, -5.0], [np.inf, 5.0], "inf"),
    ([-10.0, -5.0, 0.0], [12.0, 5.0, 1.0], "length 3"),
    ([-10.0, -5.0], [12.0, 5.0, 1.0], "upper of length 3"),
    ([12.0, -5.0], [-10.0, 5.0], "lower > upper"),
    ([-1e308, -5.0], [1e308, 5.0], "upper - lower overflows"),
])
def test_probe_refuses_bounds_it_cannot_sample(lower, upper, what):
    """Bounds that are not finite ``(state_dim,)`` vectors with ``lower <=
    upper`` and a finite difference are refused by name with
    `ValidationError`, before numpy's sampler raises a bare `OverflowError`
    (NaN, inf, an overflowing range) or `ValueError` (a broadcast, ``high -
    low < 0``)."""
    model, policy, spec = make_benchmark("double_integrator")
    with pytest.raises(ValidationError, match=r"lower and upper must be "
                       r"finite vectors of shape \(2,\)"):
        relative_degree_probe(model, policy, spec, lower, upper, count=4,
                              horizon=1.0, steps=10)


@pytest.mark.parametrize("name, params", REFERENCE_CASES)
def test_probe_measures_the_filter_terminal_row(name, params):
    """`terminal_row_coefficient` at each of 40 sampled states is the
    terminal row `build_constraints` makes there, in bytes, and
    `eval_h_batch` gives `eval_h`'s value in bytes at each of 64."""
    model, policy, spec = make_benchmark(name, params)
    box = BENCHMARK_DEFAULTS[name]
    horizon, steps = box["t_horizon_s"], box["n_flow_steps"]
    states = np.random.default_rng(3).uniform(
        box["sample_lower"], box["sample_upper"], (64, model.state_dim))
    coeff = terminal_row_coefficient(model, policy, spec, states[:40],
                                     horizon, steps)
    batch = eval_h_batch(model, policy, spec, states, horizon, steps)
    for i, x in enumerate(states):
        ev = eval_h(model, policy, spec, x, horizon, steps)
        assert np.float64(ev.h_value).tobytes() == batch.h[i].tobytes(), (name, x)
        if i < 40:
            row = build_constraints(model, policy, spec, ev).rows[-1]
            assert row.tobytes() == coeff[i].tobytes(), (name, x, row, coeff[i])


def test_probe_dubins_default_box():
    model, policy, spec = make_benchmark("dubins")
    frac = relative_degree_probe(model, policy, spec,
                                 [-1.8, 2.0, -np.pi / 3],
                                 [1.8, 8.0, np.pi / 3],
                                 count=200, horizon=8.0, steps=100, seed=3)
    assert frac >= 0.95


# ---------------------------------------------------------------------------
# closed-loop decrease condition (sampled in time)
# ---------------------------------------------------------------------------


def test_filtered_h_satisfies_discrete_decrease():
    """Along a filtered trajectory the sampled difference quotient obeys
    dh/dt + alpha(h) >= -tol with tol of the order of the step."""
    model, policy, spec = make_benchmark("double_integrator")
    dt = 0.02
    x = np.array([6.0, 1.5])
    hs = []
    for _ in range(300):
        u_star, diag = filter_control(model, policy, spec, x, np.array([1.0]),
                                      10.0, 100)
        hs.append(diag.h_value)
        rhs = model.f_eval(x) + model.g_eval(x) @ u_star
        x = x + dt * rhs  # explicit step is enough at this dt
    hs = np.array(hs)
    residual = np.diff(hs) / dt + GAMMA * hs[:-1]
    assert residual.min() >= -10.0 * dt


# ---------------------------------------------------------------------------
# sign-oracle agreement (reduced grid; the acceptance suite runs 50x50)
# ---------------------------------------------------------------------------


def test_di_zero_level_set_matches_oracle_small():
    model, policy, spec = make_benchmark("double_integrator")
    ss = np.linspace(-10.0, 12.0, 23)
    vs = np.linspace(-5.0, 5.0, 21)
    grid_s, grid_v = np.meshgrid(ss, vs, indexing="ij")
    pts = np.stack([grid_s.ravel(), grid_v.ravel()], axis=-1)
    vals = eval_h_batch(model, policy, spec, pts, 10.0, 100).h
    oracle = di_closed_form_h(pts, 10.0, 1.0)
    band = (ss[1] - ss[0]) + np.abs(pts[:, 1]) * (vs[1] - vs[0])
    decided = np.abs(oracle) > band
    assert np.all((vals[decided] >= 0) == (oracle[decided] >= 0))
