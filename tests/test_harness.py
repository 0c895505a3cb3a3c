"""Scenarios, simulation loop, filter timings, level-set artifacts, CLI
surface."""

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from backup_cbf import harness
from backup_cbf.barrier import filter_control
from backup_cbf.cli import main as cli_main
from backup_cbf.errors import (ConvergenceWarning, GeometryError,
                               ScenarioError, ValidationError)
from backup_cbf.harness import (Scenario, load_scenario, resolve_axis,
                                run_compare, run_levelset, simulate,
                                slice_grid)
from backup_cbf.hjgrid import (GridGeometry, LevelGrid, constraint_grid,
                               read_grid, solve_invariant)
from backup_cbf.systems import (BENCHMARK_DEFAULTS, BENCHMARK_NAMES,
                                make_benchmark)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.json"))


def reference_plant_step(model, x, u, dt):
    """The plant's fourth-order step written out in full, kept as the
    reference for the shared integrator step the simulation uses."""
    def rhs(xs):
        return model.f_eval(xs) + model.g_eval(xs) @ u

    k1 = rhs(x)
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def toy_scenario(**over):
    base = dict(benchmark="toy1d", x0=(1.0,),
                nominal={"kind": "constant", "value": [3.0]},
                duration_s=1.0, dt_s=0.05)
    base.update(over)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------


def test_scenario_defaults_fill_in():
    sc = toy_scenario()
    assert sc.t_horizon_s == 1.0
    assert sc.n_flow_steps == 100


def test_scenario_json_roundtrip(tmp_path):
    sc = toy_scenario(label="roundtrip")
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(sc.to_json_dict()))
    back = load_scenario(str(path))
    assert back == sc


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        Scenario(benchmark="nope", x0=(0.0,))
    with pytest.raises(ScenarioError):
        toy_scenario(dt_s=-0.1)
    with pytest.raises(ScenarioError):
        toy_scenario(duration_s=0.001)
    with pytest.raises(ScenarioError):
        toy_scenario(nominal={"kind": "psychic"})
    with pytest.raises(ScenarioError):
        Scenario.from_json_dict({"benchmark": "toy1d", "x0": [0.0],
                                 "volume": 11})
    with pytest.raises(ScenarioError):
        simulate(toy_scenario(x0=(0.0, 0.0)))


MALFORMED = {
    "x0_not_numeric": {"x0": ["a"]},
    "nominal_not_object": {"nominal": []},
    "filter_on_string": {"filter_on": "no"},
    "n_flow_steps_fraction": {"n_flow_steps": 2.5},
    "dt_s_string": {"dt_s": "0.1"},
    "nominal_value_not_numeric": {"nominal": {"kind": "constant",
                                              "value": ["x"]}},
    # one name per value: the gain is a scenario field, not a parameter
    "alpha_gain_in_params": {"alpha_gain_per_s": 2.0,
                             "params": {"alpha_gain_per_s": 5.0}},
}


@pytest.mark.parametrize("over", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_scenario_fields_rejected(tmp_path, capsys, over):
    doc = {**toy_scenario().to_json_dict(), **over}
    with pytest.raises(ScenarioError):
        simulate(Scenario.from_json_dict(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = cli_main(["simulate", "--scenario", str(path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    capsys.readouterr()


BAD_PARAMS = {
    "string": ("double_integrator", "c_limit_m", "x"),
    "string_in_vector": ("dubins", "k_y", ["a", 1]),
    "nan": ("double_integrator", "c_limit_m", float("nan")),
    "bool": ("double_integrator", "u_max_mps2", True),
    "inf": ("aeroplane", "v_b_mps", float("inf")),
    "nan_smoothing_eps": ("double_integrator", "smoothing_eps", float("nan")),
    "nan_eps_frac": ("dubins", "eps_frac", float("nan")),
    "list_for_number": ("toy1d", "gain_k", [1.0]),
    "bool_terminal_c": ("dubins", "terminal_c", True),
    "string_terminal_p": ("dubins", "terminal_p", "eye"),
}


@pytest.mark.parametrize("name, key, value", BAD_PARAMS.values(),
                         ids=BAD_PARAMS.keys())
def test_non_numeric_benchmark_params_rejected(tmp_path, capsys, name, key,
                                                value):
    """A parameter value that is not a finite number (or, for the vector
    parameters, finite numbers) is a `ValidationError` naming it, and
    `bcbf simulate` exits 2."""
    with pytest.raises(ValidationError, match=key):
        make_benchmark(name, {key: value})
    if name == "toy1d":
        doc = toy_scenario().to_json_dict()
    else:
        doc = next(load_scenario(str(p)).to_json_dict() for p in SCENARIO_FILES
                   if load_scenario(str(p)).benchmark == name)
    doc["params"] = {**doc["params"], key: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = cli_main(["simulate", "--scenario", str(path),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_shipped_scenarios_build_and_roundtrip(path):
    sc = load_scenario(str(path))
    model, _, _ = sc.build()
    assert len(sc.x0) == model.state_dim
    doc = sc.to_json_dict()
    back = Scenario.from_json_dict(json.loads(json.dumps(doc)))
    assert back == sc
    assert back.to_json_dict() == doc


def test_nominal_controllers():
    sc = toy_scenario(nominal={"kind": "proportional",
                               "gain": [[2.0]], "reference": [0.5]})
    log = simulate(sc)
    assert log.u_nominal[0, 0] == pytest.approx(2.0 * (0.5 - 1.0))

    sc = toy_scenario(nominal={"kind": "table", "times_s": [0.0, 0.5],
                               "values": [[1.0], [-1.0]]})
    log = simulate(sc)
    k = int(0.6 / sc.dt_s)
    assert log.u_nominal[0, 0] == 1.0
    assert log.u_nominal[k, 0] == -1.0


NON_FINITE_NOMINALS = {
    "constant": {"kind": "constant", "value": [float("nan")]},
    "proportional": {"kind": "proportional", "gain": [[float("inf")]],
                     "reference": [0.5]},
    "proportional_reference": {"kind": "proportional", "gain": [[2.0]],
                               "reference": [float("-inf")]},
    # the bad entry is reached only late in the run
    "table": {"kind": "table", "times_s": [0.0, 0.5],
              "values": [[1.0], [float("nan")]]},
    "table_times": {"kind": "table", "times_s": [0.0, float("inf")],
                    "values": [[1.0], [-1.0]]},
}


@pytest.mark.parametrize("filter_on", [True, False], ids=["filter", "open"])
@pytest.mark.parametrize("nominal", NON_FINITE_NOMINALS.values(),
                         ids=NON_FINITE_NOMINALS.keys())
def test_non_finite_nominal_rejected(tmp_path, capsys, nominal, filter_on):
    """A NaN or infinite entry in a nominal controller is a `ScenarioError`
    naming its key before the first step, and `bcbf simulate` exits 2."""
    key = next(k for k, v in nominal.items() if k != "kind"
               and not np.all(np.isfinite(np.asarray(v, dtype=float))))
    sc = toy_scenario(nominal=nominal, filter_on=filter_on)
    with pytest.raises(ScenarioError, match=f"nominal.{key} must be finite"):
        simulate(sc)
    path = write_scenario(tmp_path, nominal=nominal, filter_on=filter_on)
    out = tmp_path / "out"
    assert cli_main(["simulate", "--scenario", path, "--out", str(out)]) == 2
    assert f"nominal.{key}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulation loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_plant_step_matches_reference(name):
    model, _, _ = make_benchmark(name)
    d = BENCHMARK_DEFAULTS[name]
    rng = np.random.default_rng(31)
    x0 = rng.uniform(d["sample_lower"], d["sample_upper"])
    u0 = rng.uniform(model.input_lower, model.input_upper)
    sc = Scenario(benchmark=name, x0=tuple(x0),
                  nominal={"kind": "constant", "value": list(u0)},
                  duration_s=1.0, dt_s=0.02, filter_on=False)
    log = simulate(sc)
    u = np.clip(u0, model.input_lower, model.input_upper)
    x = np.asarray(sc.x0, dtype=float)
    expected = []
    for _ in range(log.times.size):
        expected.append(x)
        x = reference_plant_step(model, x, u, sc.dt_s)
    assert np.array_equal(log.states, np.array(expected))


def test_simlog_structure_and_box():
    model, _, _ = make_benchmark("toy1d")
    log = simulate(toy_scenario())
    assert np.all(np.diff(log.times) > 0)
    assert np.all(log.u_star >= model.input_lower - 1e-9)
    assert np.all(log.u_star <= model.input_upper + 1e-9)
    assert log.h_values.shape == log.times.shape
    assert log.constraint_values.shape == (log.times.size, 1)
    assert all(s == "optimal" for s in log.qp_status)


def test_simulation_bit_reproducible(tmp_path):
    # wall-clock timing columns are measurements, not results; everything
    # else must be byte-identical across runs
    sc = toy_scenario(duration_s=0.6)
    a, b = simulate(sc), simulate(sc)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(str(pa), include_timings=False)
    b.to_csv(str(pb), include_timings=False)
    assert pa.read_bytes() == pb.read_bytes()
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.u_star, b.u_star)
    assert np.array_equal(a.h_values, b.h_values)


def test_simulate_warm_starts_from_the_second_step(monkeypatch):
    """In a Dubins edge push from a lane-keeping start, where the filter is
    active from the first step, the first call's QP starts cold and the
    second one starts from the first call's active set."""
    diags = []

    def recording_filter(*args, **kwargs):
        u_star, diag = filter_control(*args, **kwargs)
        diags.append(diag)
        return u_star, diag

    monkeypatch.setattr(harness, "filter_control", recording_filter)
    sc = load_scenario(str(SCENARIO_DIR / "dubins_edge_push.json"))
    simulate(Scenario(**{**sc.to_json_dict(), "x0": (0.3, 5.0, 0.1),
                         "duration_s": 3 * sc.dt_s}))
    assert len(diags) == 3 and diags[0].active_rows
    assert [d.warm_started for d in diags[:2]] == [False, True]


def test_double_integrator_unfiltered_crossing():
    sc = Scenario(benchmark="double_integrator", x0=(0.0, 0.0),
                  nominal={"kind": "constant", "value": [1.0]},
                  duration_s=6.0, dt_s=0.02, filter_on=False)
    log = simulate(sc)
    crossed = log.states[:, 0] > 10.0
    assert crossed.any()
    t_cross = log.times[np.argmax(crossed)]
    assert t_cross == pytest.approx(np.sqrt(20.0), abs=2 * sc.dt_s)


def test_filtered_run_stays_safe_short():
    sc = Scenario(benchmark="double_integrator", x0=(6.0, 1.5),
                  nominal={"kind": "constant", "value": [1.0]},
                  duration_s=4.0, dt_s=0.02)
    log = simulate(sc)
    assert log.states[:, 0].max() <= 10.0 + 1e-3
    assert log.min_constraint_value() >= -1e-3
    assert log.summary()["fallback_steps"] == 0


# ---------------------------------------------------------------------------
# filter timings
# ---------------------------------------------------------------------------


def test_bench_reports_split():
    log = simulate(toy_scenario())
    report = log.timing_summary()
    assert set(report) == {"integration", "rows", "qp", "total"}
    for key in report:
        assert report[key]["median_us"] >= 0.0
        assert report[key]["p95_us"] >= report[key]["median_us"]
    # every step's total covers its integration time
    assert report["total"]["median_us"] >= report["integration"]["median_us"]
    assert report["integration"]["median_us"] > 0.0
    json.dumps(report)  # must be serializable


# ---------------------------------------------------------------------------
# level-set artifacts
# ---------------------------------------------------------------------------


def test_run_levelset_writes_grids_and_slices(tmp_path):
    sc = Scenario(benchmark="dubins", x0=(0.0, 5.0, 0.0),
                  nominal={"kind": "constant", "value": [0.0, 0.0]},
                  duration_s=1.0, dt_s=0.1, t_horizon_s=2.0, n_flow_steps=40)
    geom = GridGeometry((-2.25, 3.0, -1.25), (2.25, 7.0, 1.25), (9, 5, 7),
                        (False, False, False))
    # a bad slice axis fails before the sweep and makes no directory
    with pytest.raises(GeometryError):
        run_levelset(sc, geom, slices=[("speed", 5.0)],
                     out_dir=str(tmp_path / "bad"))
    assert not (tmp_path / "bad").exists()

    written = run_levelset(sc, geom, slices=[("v", 5.0), ("psi", 0.0)],
                           out_dir=str(tmp_path), include_hj=True)
    assert list(written) == [
        "backup_grid", "backup_grid_json", "hj_grid", "hj_grid_json",
        "backup_slice_v_5", "hj_slice_v_5",
        "backup_slice_psi_0", "hj_slice_psi_0"]
    v_idx = int(np.argmin(np.abs(geom.axis_coordinates(1) - 5.0)))
    for name in ("backup", "hj"):
        grid = read_grid(written[f"{name}_grid"])
        assert grid.geometry == geom
        assert np.array_equal(read_grid(written[f"{name}_grid_json"]).values,
                              grid.values)
        sl = read_grid(written[f"{name}_slice_v_5"])
        assert sl.geometry.counts == (9, 7)
        # slice values equal the matching plane of the full grid
        assert np.array_equal(sl.values, grid.values[:, v_idx, :])


def test_run_levelset_refuses_an_unusable_out_dir_before_the_sweep(
        tmp_path, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output directory "
                             "was made")

    monkeypatch.setattr(harness, "sweep_backup_h", no_sweep)
    sc = Scenario(benchmark="double_integrator", x0=(0.0, 0.0),
                  nominal={"kind": "constant", "value": [0.0]},
                  duration_s=1.0, dt_s=0.1)
    taken = tmp_path / "taken"
    taken.write_text("")
    with pytest.raises(FileExistsError):
        run_levelset(sc, GridGeometry((-1.0, -1.0), (1.0, 1.0), (5, 5),
                                      (False, False)), out_dir=str(taken))


def test_slice_degenerate_rejected():
    geom = GridGeometry((0.0, 0.0), (1.0, 1.0), (5, 5), (False, False))
    grid = LevelGrid(geom, np.zeros(25))
    with pytest.raises(GeometryError):
        slice_grid(grid, 0, 0.5)


@pytest.mark.parametrize("axis", [True, False, 1.0, 0.0, "1", None, -1, 3])
def test_slice_refuses_an_axis_that_is_not_an_integer_in_range(axis):
    """A bool, a float or a string axis is refused with `GeometryError`
    (``True`` and ``1.0`` passed the range check and then raised a bare
    `TypeError` in ``np.take``), as is one out of range; a numpy integer
    is an axis."""
    geom = GridGeometry((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3, 4, 5),
                        (False, False, False))
    grid = LevelGrid(geom, np.arange(60.0))
    with pytest.raises(GeometryError, match="is not an integer in range"):
        slice_grid(grid, axis, 0.5)
    sliced = slice_grid(grid, np.int64(1), 0.5)
    assert sliced.values.tobytes() == slice_grid(grid, 1, 0.5).values.tobytes()
    assert sliced.geometry.counts == (3, 5)


def test_slice_picks_the_nearest_plane_modulo_the_period():
    """On the aeroplane's periodic 31-point heading axis (nodes -pi ..
    2.939) 3.14 is nearest node 0 (-pi, the same heading as pi) and 6.0
    node 14; a non-periodic axis takes a value up to half a spacing past
    its ends and refuses one further out."""
    geom = GridGeometry((-6.0, -6.0, -math.pi), (6.0, 6.0, math.pi),
                        (31, 31, 31), (False, False, True))
    planes = np.broadcast_to(np.arange(31.0), geom.counts)
    grid = LevelGrid(geom, planes.ravel())

    def picked(axis, value):
        return float(slice_grid(grid, axis, value).values.flat[0])

    assert [picked(2, v) for v in (3.14, 6.0, -2.9156, -math.pi - 0.05,
                                   3 * math.pi)] == [0, 14, 1, 0, 0]
    cols = LevelGrid(geom, np.moveaxis(planes, 2, 0).ravel())
    half = 0.5 * geom.spacing(0)
    assert float(slice_grid(cols, 0, 6.0 + 0.999 * half).values.flat[0]) == 30
    assert float(slice_grid(cols, 0, -6.0 - 0.999 * half).values.flat[0]) == 0
    for value in (6.0 + 1.001 * half, -100.0, math.nan, math.inf):
        with pytest.raises(GeometryError, match="slice value"):
            slice_grid(cols, 0, value)
    with pytest.raises(GeometryError, match="slice value"):
        slice_grid(grid, 2, math.inf)


def test_run_compare_self_is_unity(tmp_path):
    sc = Scenario(benchmark="double_integrator", x0=(0.0, 0.0),
                  nominal={"kind": "constant", "value": [0.0]},
                  duration_s=1.0, dt_s=0.1, n_flow_steps=50)
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (7, 7), (False, False))
    written = run_levelset(sc, geom, out_dir=str(tmp_path))
    metrics = run_compare(written["backup_grid"], written["backup_grid"],
                          out_path=str(tmp_path / "metrics.json"))
    assert metrics["jaccard"] == 1.0
    saved = json.loads((tmp_path / "metrics.json").read_text())
    assert saved["jaccard"] == 1.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_scenario(tmp_path, **over):
    doc = toy_scenario(**over).to_json_dict()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_simulate_and_outputs(tmp_path, capsys):
    path = write_scenario(tmp_path, duration_s=0.5)
    out = tmp_path / "out"
    assert cli_main(["simulate", "--scenario", path, "--out", str(out)]) == 0
    assert (out / "simlog.csv").exists()
    assert (out / "summary.json").exists()
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == 10


def test_cli_bench(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert cli_main(["bench", "--scenario", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["steps"] == 20          # duration_s / dt_s
    assert report["n_flow_steps"] == 100
    assert {"integration", "rows", "qp", "total"} <= set(report)
    # a run without the filter has nothing to time
    path = write_scenario(tmp_path, filter_on=False)
    assert cli_main(["bench", "--scenario", path]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("dt_s", [5e-324, 1e-300, 4e-17],
                         ids=["infinite", "huge", "unallocatable"])
def test_step_count_the_log_cannot_hold_is_refused(tmp_path, capsys,
                                                   monkeypatch, dt_s):
    """A ``dt_s`` whose step count ``round(duration_s / dt_s)`` is infinite,
    beyond numpy's largest dimension or too large to allocate the log for
    (7 PiB at 1e15 steps) is a `ScenarioError` naming ``dt_s`` and
    ``duration_s``, raised before the first step: so ``bcbf simulate``
    (which writes nothing) and ``bcbf bench`` exit 2 where they died with
    `OverflowError`, `ValueError` and `MemoryError` tracebacks."""
    def first_step(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(harness, "filter_control", first_step)
    doc = load_scenario(str(SCENARIO_DIR / "di_full_throttle.json")
                        ).to_json_dict()
    doc.update(duration_s=0.04, dt_s=dt_s)
    with pytest.raises(ScenarioError, match="duration_s / dt_s"):
        simulate(Scenario.from_json_dict(doc))
    path = tmp_path / "tiny_dt.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--scenario", str(path), "--out",
                     str(out)]) == 2
    assert "duration_s / dt_s" in capsys.readouterr().err
    assert not out.exists()
    assert cli_main(["bench", "--scenario", str(path)]) == 2
    assert "duration_s / dt_s" in capsys.readouterr().err


def test_cli_levelset_and_compare(tmp_path, capsys):
    doc = Scenario(benchmark="double_integrator", x0=(0.0, 0.0),
                   nominal={"kind": "constant", "value": [0.0]},
                   duration_s=1.0, dt_s=0.1, n_flow_steps=50).to_json_dict()
    path = tmp_path / "di.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "grids"
    rc = cli_main(["levelset", "--scenario", str(path),
                   "--grid=-10:12:7,-5:5:7", "--out", str(out)])
    assert rc == 0
    written = json.loads(capsys.readouterr().out)
    rc = cli_main(["compare", written["backup_grid"], written["backup_grid"],
                   "--threshold", "0.0"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["jaccard"] == 1.0


def test_cli_levelset_warns_on_an_unconverged_baseline(tmp_path, capsys):
    """``--hj-max-steps`` too small for ``--hj-tol``: the grids are still
    written, with a warning that the baseline did not converge."""
    out = tmp_path / "grids"
    with pytest.warns(ConvergenceWarning, match="after 5 passes"):
        rc = cli_main(["levelset", "--scenario",
                       str(SCENARIO_DIR / "di_full_throttle.json"),
                       "--grid=-10:12:41,-5:5:41", "--hj", "--hj-max-steps", "5",
                       "--out", str(out)])
    assert rc == 0
    *paths, record = capsys.readouterr().out.splitlines()
    written = json.loads("\n".join(paths))
    assert read_grid(written["hj_grid"]).values.shape == (41, 41)
    solve = json.loads(record)["hj_solve"]
    assert solve["iterations"] == 5 and solve["converged"] is False


def test_cli_levelset_prints_the_hj_solve_record(tmp_path, capsys):
    """With ``--hj`` the baseline's `SolveRecord` follows the map of
    written paths as one JSON line, equal to the record of the solve the
    files hold; the map itself names grid files only."""
    scenario = str(SCENARIO_DIR / "di_full_throttle.json")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (21, 21), (False, False))
    rc = cli_main(["levelset", "--scenario", scenario,
                   "--grid=-10:12:21,-5:5:21", "--hj", "--out",
                   str(tmp_path)])
    assert rc == 0
    *paths, record = capsys.readouterr().out.splitlines()
    written = json.loads("\n".join(paths))
    assert all(read_grid(p).geometry == geom for p in written.values())
    model, _, spec = load_scenario(scenario).build()
    want = solve_invariant(constraint_grid(geom, spec), model)
    assert want.solve.converged
    assert json.loads(record) == {"hj_solve": dataclasses.asdict(want.solve)}
    assert read_grid(written["hj_grid"]).values.tobytes() == want.values.tobytes()


BAD_SLICES = {
    # an index past the last state axis
    "di_index_7": ("di_full_throttle", "--grid=-10:12:5,-5:5:5", ("--slice=7=1",)),
    "dubins_index_7": ("dubins_edge_push",
                       "--grid=-2.25:2.25:5,3:7:5,-1.25:1.25:5", ("--slice=7=1",)),
    # a negative index is not counted from the end
    "dubins_index_-1": ("dubins_edge_push",
                        "--grid=-2.25:2.25:5,3:7:5,-1.25:1.25:5",
                        ("--slice=-1=0",)),
    # slicing a 2-axis grid would leave one axis
    "di_2_axis": ("di_full_throttle", "--grid=-10:12:5,-5:5:5", ("--slice=s=0",)),
    # a value far outside a non-periodic axis (v in [-1, 11])
    "dubins_v_100": ("dubins_edge_push",
                     "--grid=-2.25:2.25:5,-1:11:5,-1.25:1.25:5", ("--slice=v=100",)),
    "dubins_v_nan": ("dubins_edge_push",
                     "--grid=-2.25:2.25:5,-1:11:5,-1.25:1.25:5", ("--slice=v=nan",)),
    # two values that print alike (:g) would write one slice file, and so
    # would one slice given twice, by name and by index
    "plane_dpsi_twice": ("plane_head_on",
                         "--grid=-6:6:9,-6:6:9,-3.141592653589793:"
                         "3.141592653589793:8:periodic",
                         ("--slice=dpsi=1.0000001", "--slice=dpsi=1.0000004")),
    "dubins_v_repeated": ("dubins_edge_push",
                          "--grid=-2.25:2.25:5,-1:11:5,-1.25:1.25:5",
                          ("--slice=v=5", "--slice=1=5")),
}


@pytest.mark.parametrize("scenario, grid, slice_args", BAD_SLICES.values(),
                         ids=BAD_SLICES.keys())
def test_cli_levelset_rejects_a_bad_slice_before_the_sweep(
        tmp_path, capsys, scenario, grid, slice_args):
    out = tmp_path / "grids"
    rc = cli_main(["levelset", "--scenario",
                   str(SCENARIO_DIR / f"{scenario}.json"), grid, *slice_args,
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if len(slice_args) > 1:         # both values are named
        assert all(a.rpartition("=")[2] in err for a in slice_args), err
    assert not out.exists()


def test_resolve_axis_accepts_only_state_axes():
    model = make_benchmark("dubins")[0]
    assert [resolve_axis(model, a) for a in ("Y", "v", "psi")] == [0, 1, 2]
    assert [resolve_axis(model, a) for a in (0, 2, "1", "2")] == [0, 2, 1, 2]
    for bad in (-1, 3, "-1", "3", "speed", True, 1.0):
        with pytest.raises(GeometryError):
            resolve_axis(model, bad)


def test_cli_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"benchmark\": \"toy1d\"}")   # missing x0
    assert cli_main(["simulate", "--scenario", str(bad)]) == 2
    path = write_scenario(tmp_path)
    assert cli_main(["levelset", "--scenario", path, "--grid", "oops"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_cli_rejects_malformed_thread_env(tmp_path, capsys, monkeypatch, raw):
    doc = Scenario(benchmark="double_integrator", x0=(0.0, 0.0),
                   nominal={"kind": "constant", "value": [0.0]},
                   n_flow_steps=10).to_json_dict()
    path = tmp_path / "di.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("BCBF_THREADS", raw)
    rc = cli_main(["levelset", "--scenario", str(path),
                   "--grid=-10:12:5,-5:5:5", "--out", str(tmp_path / "g")])
    assert rc == 2
    assert "BCBF_THREADS" in capsys.readouterr().err


def test_cli_numerical_exit_code(tmp_path, capsys):
    # gigantic state: the sensitivity products overflow and the flow
    # integrator reports divergence
    doc = Scenario(benchmark="dubins", x0=(0.0, 1e300, 0.0),
                   nominal={"kind": "constant", "value": [0.0, 0.0]},
                   duration_s=0.2, dt_s=0.1).to_json_dict()
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["simulate", "--scenario", str(path)]) == 3
    capsys.readouterr()
