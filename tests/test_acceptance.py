"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers.

Soft targets (timing bound, closeness-of-sets scores) report their values
and emit warnings rather than failures; containment and correctness
criteria assert hard at the stated tolerances.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from backup_cbf.barrier import (build_constraints, eval_h, eval_h_batch,
                                relative_degree_probe)
from backup_cbf.flow import integrate_flow, sensitivity_fd_check
from backup_cbf.harness import Scenario, simulate, slice_grid
from backup_cbf.hjgrid import (GridGeometry, compare_sets, constraint_grid,
                               dilate_set, solve_invariant, sweep_backup_h)
from backup_cbf.qp import QpProblem, QpSolver, solve
from backup_cbf.systems import (BENCHMARK_DEFAULTS, BENCHMARK_NAMES,
                                di_closed_form_h, make_benchmark)

# (horizon, flow steps) used when filtering each benchmark
RUN = {
    "toy1d": (1.0, 100),
    "double_integrator": (10.0, 100),
    "dubins": (8.0, 100),
    "aeroplane": (4.0, 200),
}


def sample_states(name, count, rng):
    d = BENCHMARK_DEFAULTS[name]
    return rng.uniform(d["sample_lower"], d["sample_upper"],
                       size=(count, len(d["sample_lower"])))


# ---------------------------------------------------------------------------
# 1. zero-superlevel set equals the closed-form oracle
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_set_equivalence():
    model, policy, spec = make_benchmark("double_integrator")
    t0 = time.perf_counter()
    ss = np.linspace(-10.0, 12.0, 50)
    vs = np.linspace(-5.0, 5.0, 50)
    grid_s, grid_v = np.meshgrid(ss, vs, indexing="ij")
    pts = np.stack([grid_s.ravel(), grid_v.ravel()], axis=-1)
    h = eval_h_batch(model, policy, spec, pts, 10.0, 100).h
    oracle = di_closed_form_h(pts, 10.0, 1.0)
    elapsed = time.perf_counter() - t0

    band = (ss[1] - ss[0]) * 1.0 + (vs[1] - vs[0]) * np.abs(pts[:, 1])
    decided = np.abs(oracle) > band
    agree = (h >= 0.0) == (oracle >= 0.0)
    mismatches = int(np.sum(decided & ~agree))
    print(f"\nACCEPTANCE 1: sign match on {int(decided.sum())}/2500 decided "
          f"cells, {mismatches} mismatches, {elapsed:.2f} s")
    assert mismatches == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. the backup input is feasible for every row whenever h >= 0.01
# ---------------------------------------------------------------------------


def test_criterion_2_feasibility():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    per_bench = 250
    worst_slack = np.inf
    n_checked = 0
    all_optimal = True
    for name in BENCHMARK_NAMES:
        model, policy, spec = make_benchmark(name)
        horizon, steps = RUN[name]
        chosen = []
        while len(chosen) < per_bench:
            batch = sample_states(name, 4 * per_bench, rng)
            hs = eval_h_batch(model, policy, spec, batch, horizon, steps).h
            chosen.extend(batch[hs >= 0.01][:per_bench - len(chosen)])
        solver = QpSolver()
        for x in chosen:
            ev = eval_h(model, policy, spec, x, horizon, steps)
            rows = build_constraints(model, spec, ev)
            slack = rows.slacks(policy.pi_eval(x)).min()
            worst_slack = min(worst_slack, float(slack))
            problem = QpProblem(u0=model.input_upper, rows=rows.rows,
                                rhs=rows.rhs, lower=model.input_lower,
                                upper=model.input_upper)
            status = solver.solve(problem).status
            all_optimal &= status == "optimal"
            n_checked += 1
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 2: {n_checked} states, worst backup slack "
          f"{worst_slack:.2e}, all QP optimal: {all_optimal}, {elapsed:.1f} s")
    assert n_checked == 1000
    assert worst_slack >= -1e-6
    assert all_optimal
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. closed-loop safety of the three adversarial demos
# ---------------------------------------------------------------------------


def _demo_scenarios():
    return [
        Scenario(benchmark="double_integrator", x0=(0.0, 0.0),
                 nominal={"kind": "constant", "value": [1.0]},
                 duration_s=20.0, dt_s=0.02, label="di_full_throttle"),
        Scenario(benchmark="dubins", x0=(0.0, 5.0, 0.0),
                 nominal={"kind": "constant", "value": [0.0, 0.5]},
                 duration_s=20.0, dt_s=0.02, label="dubins_edge_push"),
        Scenario(benchmark="aeroplane", x0=(4.0, 0.3, np.pi),
                 nominal={"kind": "constant", "value": [0.0]},
                 duration_s=10.0, dt_s=0.02, label="plane_head_on"),
    ]


def test_criterion_3_closed_loop_safety():
    mins_on, mins_off = {}, {}
    for sc in _demo_scenarios():
        log = simulate(sc)
        mins_on[sc.label] = log.min_constraint_value()
        off = Scenario(**{**sc.to_json_dict(), "filter_on": False})
        log_off = simulate(off)
        mins_off[sc.label] = log_off.min_constraint_value()
        if sc.benchmark == "double_integrator":
            crossed = log_off.states[:, 0] > 10.0
            t_cross = log_off.times[np.argmax(crossed)]
            assert crossed.any()
            assert t_cross == pytest.approx(np.sqrt(20.0), abs=2 * sc.dt_s)
    print(f"\nACCEPTANCE 3: filtered minima {mins_on}; "
          f"unfiltered minima {mins_off}")
    for label, value in mins_on.items():
        assert value >= -1e-3, label
    for label, value in mins_off.items():
        assert value < 0.0, label


# ---------------------------------------------------------------------------
# 4. containment in (and closeness to) the grid-baseline invariant set
# ---------------------------------------------------------------------------


def _containment(backup_grid, hj_grid):
    members = backup_grid.membership()
    inflated = dilate_set(hj_grid)   # the documented one-cell grid tolerance
    return float((members & ~inflated).sum() / max(members.sum(), 1))


def test_criterion_4_baseline_containment_and_closeness():
    reports = []

    model, policy, spec = make_benchmark("double_integrator")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (101, 101), (False, False))
    hj = solve_invariant(constraint_grid(geom, spec), model, tol=1e-4,
                         max_steps=20000)
    backup = sweep_backup_h(model, policy, spec, geom, 10.0, 100)
    frac = _containment(backup, hj)
    reports.append(("double_integrator", frac,
                    compare_sets(backup, hj)["jaccard"]))

    geom3 = GridGeometry((-2.25, -1.0, -1.25), (2.25, 11.0, 1.25),
                         (61, 61, 61), (False, False, False))
    model, policy, spec = make_benchmark("dubins")
    hj3 = solve_invariant(constraint_grid(geom3, spec), model, tol=1e-4,
                          max_steps=20000)
    backup_c = sweep_backup_h(model, policy, spec, geom3, 8.0, 100)
    reports.append(("dubins_conservative", _containment(backup_c, hj3),
                    compare_sets(slice_grid(backup_c, 1, 5.0),
                                 slice_grid(hj3, 1, 5.0))["jaccard"]))
    model_a, policy_a, spec_a = make_benchmark("dubins",
                                               {"profile": "aggressive"})
    backup_a = sweep_backup_h(model_a, policy_a, spec_a, geom3, 8.0, 100)
    slice_jaccard = compare_sets(slice_grid(backup_a, 1, 5.0),
                                 slice_grid(hj3, 1, 5.0))["jaccard"]
    reports.append(("dubins_aggressive", _containment(backup_a, hj3),
                    slice_jaccard))

    model, policy, spec = make_benchmark("aeroplane")
    geom_p = GridGeometry((-6.0, -6.0, -np.pi), (6.0, 6.0, np.pi),
                          (61, 61, 61), (False, False, True))
    hj_p = solve_invariant(constraint_grid(geom_p, spec), model, tol=1e-4,
                           max_steps=20000)
    backup_p = sweep_backup_h(model, policy, spec, geom_p, 4.0, 200)
    plane_jaccard = compare_sets(backup_p, hj_p)["jaccard"]
    reports.append(("aeroplane", _containment(backup_p, hj_p), plane_jaccard))

    print("\nACCEPTANCE 4: (benchmark, fraction_backup_not_baseline, jaccard)")
    for name, frac, jac in reports:
        print(f"  {name}: containment violation {frac:.5f}, "
              f"jaccard {jac:.3f}")
    for name, frac, _ in reports:
        assert frac <= 0.01, name
    # closeness scores are derived stand-ins for a qualitative claim:
    # report always, warn (don't fail) if under target
    if slice_jaccard < 0.9:
        warnings.warn(f"aggressive profile slice jaccard {slice_jaccard:.3f} "
                      "< 0.9 target")
    if plane_jaccard < 0.9:
        warnings.warn(f"aeroplane jaccard {plane_jaccard:.3f} < 0.9 target")


# ---------------------------------------------------------------------------
# 5. sensitivity correctness and integrator order
# ---------------------------------------------------------------------------


def test_criterion_5_sensitivity_and_order():
    model, policy, _ = make_benchmark("toy1d")
    err_toy = sensitivity_fd_check(model, policy, np.array([1.0]),
                                   1.0, 100, 1e-5)

    from tests.test_flow import expm_series, linear_system
    lin_model, lin_policy = linear_system([[0.0, 1.0], [-1.0, 0.0]])
    err_lin = sensitivity_fd_check(lin_model, lin_policy,
                                   np.array([1.0, 0.0]), 1.0, 100, 1e-6)

    smooth_errs = {}
    for name, x in [("double_integrator", [0.0, 2.0]),
                    ("dubins", [0.8, 4.0, 0.2]),
                    ("aeroplane", [3.0, 2.0, 1.0])]:
        m, p, _ = make_benchmark(name)
        horizon, steps = RUN[name]
        smooth_errs[name] = sensitivity_fd_check(m, p, np.array(x),
                                                 horizon, steps, 1e-5)

    # order check against closed forms
    ratios = []
    exact = expm_series(np.array([[0.0, 1.0], [-1.0, 0.0]])) @ np.array([1.0, 0.0])
    errs = [np.max(np.abs(integrate_flow(lin_model, lin_policy,
                                         np.array([1.0, 0.0]), 1.0, n)
                          .states[-1] - exact)) for n in (8, 16, 32)]
    ratios += [errs[0] / errs[1], errs[1] / errs[2]]
    errs = [abs(integrate_flow(model, policy, np.array([1.0]), 1.0, n)
                .states[-1][0] - np.exp(-1.0)) for n in (8, 16, 32)]
    ratios += [errs[0] / errs[1], errs[1] / errs[2]]

    print(f"\nACCEPTANCE 5: fd errors toy {err_toy:.2e}, linear {err_lin:.2e}, "
          f"smooth {dict((k, float(f'{v:.2e}')) for k, v in smooth_errs.items())}, "
          f"halving ratios {[round(r, 1) for r in ratios]}")
    assert err_toy <= 1e-6 and err_lin <= 1e-6
    assert all(v <= 1e-3 for v in smooth_errs.values())
    assert all(r >= 15.0 for r in ratios)


# ---------------------------------------------------------------------------
# 6. membership is monotone in the horizon
# ---------------------------------------------------------------------------


def test_criterion_6_horizon_monotonicity():
    # dt is held fixed per benchmark so successive grids nest; the base
    # horizon keeps the largest case within the integrator's stable range
    setup = {
        "toy1d": (1.0, 0.01),
        "double_integrator": (4.0, 0.1),
        "dubins": (2.0, 0.05),
        "aeroplane": (1.0, 0.0125),
    }
    rng = np.random.default_rng(66)
    total_violations = 0
    for name in BENCHMARK_NAMES:
        t_base, dt = setup[name]
        model, policy, spec = make_benchmark(name)
        states = sample_states(name, 500, rng)
        members = []
        for factor in (0.5, 1.0, 2.0, 4.0, 8.0):
            horizon = factor * t_base
            steps = int(round(horizon / dt))
            members.append(eval_h_batch(model, policy, spec, states,
                                        horizon, steps).h >= 0.0)
        for earlier, later in itertools.pairwise(members):
            total_violations += int(np.sum(earlier & ~later))
    print(f"\nACCEPTANCE 6: 500 states x 5 horizons x {len(BENCHMARK_NAMES)} "
          f"benchmarks, violations = {total_violations}")
    assert total_violations == 0


# ---------------------------------------------------------------------------
# 7. terminal row keeps relative degree one
# ---------------------------------------------------------------------------


def test_criterion_7_relative_degree():
    fractions = {}
    for name in ("dubins", "aeroplane"):
        model, policy, spec = make_benchmark(name)
        d = BENCHMARK_DEFAULTS[name]
        horizon, steps = RUN[name]
        fractions[name] = relative_degree_probe(
            model, policy, spec, d["sample_lower"], d["sample_upper"],
            count=200, horizon=horizon, steps=steps, seed=9)
    print(f"\nACCEPTANCE 7: nonzero terminal-coefficient fractions {fractions}")
    assert all(f >= 0.95 for f in fractions.values())


# ---------------------------------------------------------------------------
# 8. QP solutions match the brute-force oracle
# ---------------------------------------------------------------------------


def test_criterion_8_qp_oracle():
    from tests.test_qp import brute_force, random_problem
    rng = np.random.default_rng(12)
    solver = QpSolver()
    worst = 0.0
    for _ in range(500):
        prob = random_problem(rng)
        sol = solver.solve(prob)
        assert sol.status == "optimal"
        ref = brute_force(prob)
        worst = max(worst, float(np.max(np.abs(sol.u_star - ref))))
    assert worst < 1e-6

    sol = solve(QpProblem(np.array([0.5, -0.5]),
                          np.array([[1.0, 0.0]]), np.array([-1.0]),
                          np.array([-5.0, -5.0]), np.array([5.0, 5.0])))
    assert np.allclose(sol.u_star, [0.5, -0.5])
    sol = solve(QpProblem(np.array([0.0, 0.0]),
                          np.array([[1.0, 1.0]]), np.array([3.0]),
                          np.array([-5.0, -5.0]), np.array([5.0, 5.0])))
    assert np.allclose(sol.u_star, [1.5, 1.5], atol=1e-10)
    sol = solve(QpProblem(np.array([0.0, 0.0]),
                          np.array([[1.0, 0.0]]), np.array([10.0]),
                          np.array([-5.0, -5.0]), np.array([5.0, 5.0])))
    assert sol.status == "infeasible"
    print(f"\nACCEPTANCE 8: 500 random programs, worst deviation {worst:.2e}; "
          "all three worked examples exact")


# ---------------------------------------------------------------------------
# 9. timing structure of the filter call
# ---------------------------------------------------------------------------


def test_criterion_9_timing_structure():
    # 30 filter calls along the closed loop, timed by the simulation log
    sc = Scenario(benchmark="dubins", x0=(0.5, 5.0, 0.1),
                  nominal={"kind": "constant", "value": [0.0, 0.5]},
                  duration_s=3.0, dt_s=0.1, n_flow_steps=100)
    log = simulate(sc)
    assert log.times.size == 30
    report = log.timing_summary()
    integ = report["integration"]["median_us"]
    qp = report["qp"]["median_us"]
    total = report["total"]["median_us"]
    print(f"\nACCEPTANCE 9: integration median {integ / 1000:.2f} ms, "
          f"QP median {qp / 1000:.2f} ms, total {total / 1000:.2f} ms "
          f"(N = {sc.n_flow_steps})")
    assert {"integration", "qp", "total"} <= set(report)
    if total > 10_000:
        warnings.warn(f"per-call total {total / 1000:.2f} ms exceeds the "
                      "10 ms desk-hardware target")
    if qp <= integ:
        warnings.warn("QP share is not the larger part of the filter call "
                      f"(qp {qp:.0f} us <= integration {integ:.0f} us)")
