"""Grid baseline: closed-form Hamiltonian, value iteration, comparisons, IO."""

import dataclasses
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backup_cbf import hjgrid
from backup_cbf.barrier import eval_h_batch
from backup_cbf.cli import _parse_grid_spec
from backup_cbf.cli import main as cli_main
from backup_cbf.errors import (ConvergenceWarning, FlowDivergenceError,
                               GeometryError, ValidationError)
from backup_cbf.hjgrid import (GridGeometry, LevelGrid, compare_sets,
                               constraint_grid, dilate_set, grid_from_json_dict,
                               grid_to_json_dict, hamiltonian, read_grid,
                               read_grid_csv, solve_invariant, sweep_backup_h,
                               write_grid_csv, write_grid_json)
from backup_cbf.systems import (BackupPolicy, SafetySpec, ScalarConstraint,
                                SystemModel, di_closed_form_h, make_benchmark)


def single_integrator_2d():
    """xdot = u (u in [-1,1]), ydot = 0: a 1-D plant embedded in two axes so
    it fits the grid contract."""

    def f(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 1))
        out[..., 0, 0] = 1.0
        return out

    def df(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2))

    model = SystemModel(2, 1, f, g, df, None, np.array([-1.0]), np.array([1.0]))

    def h(x):
        return 1.0 - np.abs(np.asarray(x, dtype=float)[..., 0])

    def grad(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = -np.sign(x[..., 0])
        return out

    spec = SafetySpec(constraints=(ScalarConstraint(h, grad, "band"),),
                      terminal=ScalarConstraint(h, grad, "band"),
                      alpha_gain=1.0)
    return model, spec


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


def test_hamiltonian_double_integrator():
    model, _, _ = make_benchmark("double_integrator")
    x = np.array([0.0, 3.0])
    assert hamiltonian(model, x, np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert hamiltonian(model, x, np.array([1.0, 0.0])) == pytest.approx(3.0)
    assert hamiltonian(model, x, np.zeros(2)) == pytest.approx(0.0)


def test_hamiltonian_is_box_maximum():
    """Closed form must equal a dense maximization over the input box."""
    model, _, _ = make_benchmark("dubins")
    rng = np.random.default_rng(5)
    us = np.stack(np.meshgrid(np.linspace(-3, 3, 41), np.linspace(-0.5, 0.5, 41),
                              indexing="ij"), axis=-1).reshape(-1, 2)
    for _ in range(20):
        x = rng.uniform([-1.8, 0.0, -1.0], [1.8, 8.0, 1.0])
        p = rng.normal(size=3)
        vals = (model.f_eval(x) @ p) + (model.g_eval(x) @ us.T).T @ p
        assert hamiltonian(model, x, p) == pytest.approx(vals.max(), abs=1e-9)


# ---------------------------------------------------------------------------
# value iteration
# ---------------------------------------------------------------------------


def test_invariant_set_single_integrator_band():
    model, spec = single_integrator_2d()
    geom = GridGeometry((-2.0, -1.0), (2.0, 1.0), (81, 5), (False, False))
    out = solve_invariant(constraint_grid(geom, spec), model)
    xs = geom.axis_coordinates(0)
    members = out.values[:, 2] >= 0.0
    cell = xs[1] - xs[0]
    assert abs(xs[members].min() - (-1.0)) <= cell
    assert abs(xs[members].max() - 1.0) <= cell
    # monotone nonincreasing against the initial field
    assert np.all(out.values <= constraint_grid(geom, spec).values + 1e-12)


def test_invariant_set_double_integrator_matches_closed_form():
    model, _, spec = make_benchmark("double_integrator")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (101, 101), (False, False))
    out = solve_invariant(constraint_grid(geom, spec), model, tol=1e-4,
                          max_steps=20000)
    oracle = di_closed_form_h(geom.nodes(), 10.0, 1.0).reshape(geom.counts)
    got = out.membership()
    oracle_grid = LevelGrid(geom, oracle.ravel())
    inflated = dilate_set(oracle_grid)
    deflated = ~dilate_set(LevelGrid(geom, -oracle.ravel()))
    ok = (got <= inflated) & (deflated <= got)
    # one-cell agreement away from the domain boundary
    interior = np.zeros(geom.counts, dtype=bool)
    interior[1:-1, 1:-1] = True
    assert np.all(ok[interior])


def test_refinement_volume_stability():
    model, _, spec = make_benchmark("double_integrator")
    vols = []
    for n in (51, 101):
        geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (n, n), (False, False))
        out = solve_invariant(constraint_grid(geom, spec), model, tol=1e-4,
                              max_steps=20000)
        vols.append(out.membership().mean())
    assert abs(vols[1] - vols[0]) / vols[1] < 0.05


def test_solve_record_flags_an_unconverged_field():
    """Stopping at ``max_steps`` returns the field marked unconverged, with
    a warning when a tolerance was asked for and none with ``tol = 0``."""
    model, _, spec = make_benchmark("double_integrator")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (101, 101), (False, False))
    grid0 = constraint_grid(geom, spec)
    with pytest.warns(ConvergenceWarning, match="after 20 passes"):
        out = solve_invariant(grid0, model, tol=1e-3, max_steps=20)
    record = out.solve
    assert record.converged is False
    assert record.iterations == 20
    assert record.final_update >= 1e-3
    # dt = None picks 90 % of the stability bound
    assert record.cfl_ratio == pytest.approx(0.9)
    # a fixed pass count (tol = 0) is silent and gives the same field
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fixed = solve_invariant(grid0, model, tol=0.0, max_steps=20)
    assert np.array_equal(fixed.values, out.values)
    assert fixed.solve == record


def test_solve_record_of_a_converged_field():
    model, spec = single_integrator_2d()
    geom = GridGeometry((-2.0, -1.0), (2.0, 1.0), (41, 5), (False, False))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solve_invariant(constraint_grid(geom, spec), model, tol=1e-3)
    record = out.solve
    assert record.converged is True
    assert 1 <= record.iterations < 5000
    assert record.final_update < 1e-3
    # |dH/dp_0| <= 1 on a spacing of 0.1: rate 10 per unit time, and the
    # step is 90 % of the bound 1 / 10
    assert record.dt == pytest.approx(0.09)
    assert record.cfl_ratio == pytest.approx(0.9)
    # grids that no value iteration produced carry no record
    assert constraint_grid(geom, spec).solve is None


def test_value_floor_is_two_ranges_below_the_field_minimum():
    """Under xdot = 2 + u, u in [-1, 1], every value drains out through the
    right edge, so the clamp binds: the field settles on
    ``min - 2 max(range, 1)`` of the constraint field.  With or without
    the drift, no cell is lifted above its start and none falls below."""
    model, spec = single_integrator_2d()
    drift = dataclasses.replace(model,
                                f_eval=lambda x: model.f_eval(x) + [2.0, 0.0])
    geom = GridGeometry((-2.0, -1.0), (2.0, 1.0), (41, 5), (False, False))
    grid0 = constraint_grid(geom, spec)
    low, high = float(grid0.values.min()), float(grid0.values.max())
    floor = low - 2.0 * max(high - low, 1.0)
    assert floor == -5.0
    for m in (model, drift):
        out = solve_invariant(grid0, m)
        assert np.all(out.values <= grid0.values)
        assert out.values.min() >= floor
    assert out.values.min() == floor


BAD_SOLVE_LIMITS = [{"tol": math.nan}, {"tol": -1.0}, {"tol": math.inf},
                    {"tol": "0.1"}, {"max_steps": -3}, {"max_steps": 0},
                    {"max_steps": 2.0}, {"max_steps": True}]


@pytest.mark.parametrize("limits", BAD_SOLVE_LIMITS)
def test_solve_rejects_a_bad_tolerance_or_step_cap(limits):
    """A NaN, negative or infinite tolerance would never stop the iteration
    early, and a step cap below 1 would return the constraint field
    unsolved: both are refused, while ``tol = 0`` (a fixed pass count)
    stays valid."""
    model, spec = single_integrator_2d()
    geom = GridGeometry((-2.0, -1.0), (2.0, 1.0), (41, 5), (False, False))
    grid0 = constraint_grid(geom, spec)
    [value] = limits.values()
    with pytest.raises(ValidationError, match=f"got .*{value!r}"):
        solve_invariant(grid0, model, **limits)
    fixed = solve_invariant(grid0, model, tol=0.0, max_steps=1)
    assert fixed.solve.iterations == 1


@pytest.mark.parametrize("flag", ["--hj-tol=nan", "--hj-tol=-1",
                                  "--hj-max-steps=-3", "--hj-max-steps=0"])
def test_cli_levelset_rejects_a_bad_tolerance_or_step_cap(tmp_path, capsys,
                                                         flag):
    out = tmp_path / "grids"
    rc = cli_main(["levelset", "--scenario", DI_SCENARIO,
                   "--grid=-10:12:21,-5:5:21", "--hj", "--hj-max-steps=50",
                   flag, "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_matches_pointwise_evaluation():
    model, policy, spec = make_benchmark("double_integrator")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (11, 9), (False, False))
    grid = sweep_backup_h(model, policy, spec, geom, 10.0, 100)
    pts = geom.nodes()
    direct = eval_h_batch(model, policy, spec, pts, 10.0, 100).h
    assert np.allclose(grid.values.ravel(), direct, atol=1e-12)


def test_sweep_zero_horizon_returns_constraint_field():
    model, policy, spec = make_benchmark("double_integrator")
    # terminal tied to the path constraint: the zero-horizon field is then
    # exactly min_k hC_k
    spec0 = SafetySpec(constraints=spec.constraints,
                       terminal=spec.constraints[0], alpha_gain=1.0)
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (11, 9), (False, False))
    grid = sweep_backup_h(model, policy, spec0, geom, 1e-12, 1)
    expect = constraint_grid(geom, spec0)
    assert np.allclose(grid.values, expect.values, atol=1e-9)


def test_sweep_respects_thread_env(monkeypatch):
    model, policy, spec = make_benchmark("double_integrator")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (11, 9), (False, False))
    base = sweep_backup_h(model, policy, spec, geom, 10.0, 50)
    monkeypatch.setenv("BCBF_THREADS", "4")
    monkeypatch.setattr(hjgrid, "_SWEEP_CHUNK", 16)
    threaded = sweep_backup_h(model, policy, spec, geom, 10.0, 50)
    assert np.array_equal(base.values, threaded.values)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _band_grid(values):
    geom = GridGeometry((-1.0, -1.0), (1.0, 1.0), (5, 5), (False, False))
    return LevelGrid(geom, np.asarray(values, dtype=float))


def test_compare_identical():
    grid = _band_grid(np.linspace(-1, 1, 25))
    metrics = compare_sets(grid, grid)
    assert metrics["jaccard"] == 1.0
    assert metrics["fraction_a_not_b"] == 0.0


def test_compare_disjoint():
    a = _band_grid(np.r_[np.ones(10), -np.ones(15)])
    b = _band_grid(np.r_[-np.ones(10), np.ones(15)])
    metrics = compare_sets(a, b)
    assert metrics["jaccard"] == 0.0
    assert metrics["fraction_a_not_b"] == 1.0


def test_compare_halfspace_against_everything():
    geom = GridGeometry((-1.0, -1.0), (1.0, 1.0), (40, 11), (False, False))
    xs = geom.nodes()[:, 0].reshape(geom.counts)
    half = LevelGrid(geom, np.where(xs >= 0, 1.0, -1.0).ravel())
    full = LevelGrid(geom, np.ones(40 * 11))
    metrics = compare_sets(half, full)
    assert metrics["fraction_b_not_a"] == pytest.approx(0.5, abs=0.05)
    assert metrics["fraction_a_not_b"] == 0.0
    assert metrics["cell_counts"]["total"] == 440


def test_compare_rejects_geometry_mismatch():
    a = _band_grid(np.ones(25))
    geom = GridGeometry((-1.0, -1.0), (1.0, 1.0), (5, 6), (False, False))
    b = LevelGrid(geom, np.ones(30))
    with pytest.raises(GeometryError):
        compare_sets(a, b)


def test_dilate_wraps_periodic_axis():
    geom = GridGeometry((0.0, 0.0), (1.0, 1.0), (5, 6), (False, True))
    vals = -np.ones((5, 6))
    vals[2, 5] = 1.0
    mask = dilate_set(LevelGrid(geom, vals.ravel()))
    assert mask[2, 0]        # wrapped along the periodic axis
    assert mask[1, 5] and mask[3, 5] and mask[2, 4]
    assert not mask[0, 0]


# ---------------------------------------------------------------------------
# geometry & serialization
# ---------------------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(GeometryError):
        GridGeometry((0.0,), (1.0,), (5,), (False,))          # 1-D
    with pytest.raises(GeometryError, match="axis 0 needs at least 3 points"):
        GridGeometry((0.0, 0.0), (1.0, 1.0), (2, 5), (False, False))
    with pytest.raises(GeometryError, match="axis 1 needs .* lower < upper") as err:
        GridGeometry((0.0, 2.0), (1.0, 1.0), (5, 5), (False, False))
    assert err.value.axis == 1


DI_SCENARIO = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                           "scenarios", "di_full_throttle.json")

MALFORMED_AXES = {
    # JSON: one field of axis 0 replaced
    "json_periodic_string": ("json", ("periodic", "false")),
    "json_periodic_int": ("json", ("periodic", 1)),
    "json_count_float": ("json", ("count", 3.7)),
    "json_count_bool": ("json", ("count", True)),
    "json_lower_bool": ("json", ("lower", True)),
    "json_lower_string": ("json", ("lower", "0.0")),
    "json_lower_nan": ("json", ("lower", float("nan"))),
    "json_upper_inf": ("json", ("upper", float("inf"))),
    "json_lower_ge_upper": ("json", ("lower", 1.0)),
    # CSV: the header line of axis 0
    "csv_lower_nan": ("csv", "# axis 0: nan 1.0 3"),
    "csv_lower_inf": ("csv", "# axis 0: -inf 1.0 3"),
    "csv_upper_inf": ("csv", "# axis 0: 0.0 inf 3"),
    "csv_count_float": ("csv", "# axis 0: 0.0 1.0 3.7"),
    "csv_unknown_flag": ("csv", "# axis 0: 0.0 1.0 3 nonperiodic"),
    "csv_extra_field": ("csv", "# axis 0: 0.0 1.0 3 periodic 1"),
    "csv_lower_ge_upper": ("csv", "# axis 0: 1.0 1.0 3"),
    "csv_two_points": ("csv", "# axis 0: 0.0 1.0 2"),
    # CLI: the --grid spec
    "cli_lower_nan": ("cli", "nan:12:11,-5:5:11"),
    "cli_upper_inf": ("cli", "-10:inf:11,-5:5:11"),
    "cli_count_float": ("cli", "-10:12:3.7,-5:5:11"),
    "cli_unknown_flag": ("cli", "-10:12:11:yes,-5:5:11"),
    "cli_lower_ge_upper": ("cli", "12:-10:11,-5:5:11"),
}


@pytest.mark.parametrize("form, bad", MALFORMED_AXES.values(),
                         ids=MALFORMED_AXES.keys())
def test_malformed_grid_axes_rejected(tmp_path, capsys, form, bad):
    """A bound that is not a finite number, a count that is not an integer
    or a flag that is not a boolean is a `GeometryError` (exit 2) in every
    form a grid arrives in, and so are bounds out of order; nothing is
    coerced, and a CSV error names the file and the header line."""
    if form == "cli":
        out = tmp_path / "grids"
        rc = cli_main(["levelset", "--scenario", DI_SCENARIO, f"--grid={bad}",
                       "--out", str(out)])
        assert rc == 2
        assert "initial state" not in capsys.readouterr().err
        assert not out.exists()
        return
    geom = GridGeometry((0.0, 0.0), (1.0, 1.0), (3, 3), (False, False))
    grid = LevelGrid(geom, np.arange(9.0))
    if form == "json":
        doc = grid_to_json_dict(grid)
        doc["axes"][0][bad[0]] = bad[1]
        with pytest.raises(GeometryError, match="axis 0"):
            grid_from_json_dict(doc)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
    else:
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([bad + "\n"] + lines[1:]))
    with pytest.raises(GeometryError) as err:
        read_grid(str(path))
    if form == "csv":
        assert str(err.value).startswith(f"{path}:1: ")
    assert cli_main(["compare", str(path), str(path)]) == 2
    capsys.readouterr()


AXIS_FIELDS = (["-2.25", "2.25", "61"],
               ["0", "6.283185307179586", "8", "periodic"],
               ["-1e-3", "1.5e2", "3"])
BAD_AXIS_FIELDS = (["0.0", "1.0"], ["0.0", "1.0", "3.7"], ["zonk", "1.0", "3"],
                   ["0.0", "1.0", "3", "nonperiodic"],
                   ["0.0", "1.0", "3", "periodic", "1"], ["nan", "1.0", "3"],
                   ["0.0", "inf", "3"], ["1.0", "0.0", "3"], ["0.0", "1.0", "2"],
                   ["0.0", "1.0", "true"])


def _header_csv(path, axes, geom):
    """A grid file of ``geom`` whose header lines are ``axes``, one per line
    (blank-separated fields), over the data rows of a zero field."""
    write_grid_csv(LevelGrid(geom, np.zeros(math.prod(geom.counts))), str(path))
    rows = path.read_text().splitlines(keepends=True)[geom.dims:]
    path.write_text("".join(f"# axis {i}: {' '.join(fields)}\n"
                            for i, fields in enumerate(axes)) + "".join(rows))


def test_cli_spec_and_csv_header_share_the_axis_syntax(tmp_path):
    """The same axis fields give the same geometry as a ``--grid`` spec
    and as a CSV header, and a malformed field is refused by both (the CSV
    naming the header line of the axis)."""
    path = tmp_path / "grid.csv"
    good = GridGeometry((0.0, 0.0), (1.0, 1.0), (3, 3), (False, False))
    for axes in (AXIS_FIELDS[:2], AXIS_FIELDS):
        geom = _parse_grid_spec(",".join(":".join(f) for f in axes))
        _header_csv(path, axes, geom)
        assert read_grid_csv(str(path)).geometry == geom
    for bad in BAD_AXIS_FIELDS:
        for axis in (0, 1):
            axes = [["0.0", "1.0", "3"], ["0.0", "1.0", "3"]]
            axes[axis] = bad
            with pytest.raises(ValidationError, match="bad grid axis token|"
                               f"axis {axis} "):
                _parse_grid_spec(",".join(":".join(f) for f in axes))
            _header_csv(path, axes, good)
            with pytest.raises(GeometryError) as err:
                read_grid_csv(str(path))
            assert str(err.value).startswith(f"{path}:{axis + 1}: ")


def test_geometry_rejects_non_finite_bounds_and_coerced_types():
    good = ((0.0, 0.0), (1.0, 1.0), (3, 3), (False, False))
    assert GridGeometry(*good) == GridGeometry((0, 0), (1, 1.0),
                                               (np.int64(3), 3),
                                               (np.bool_(False), False))
    for field, value in ((0, math.nan), (0, True), (1, math.inf),
                         (2, 3.0), (2, True), (3, 0), (3, "false")):
        args = [list(f) for f in good]
        args[field][1] = value
        with pytest.raises(GeometryError, match="axis 1"):
            GridGeometry(*map(tuple, args))


def test_periodic_axis_excludes_endpoint():
    geom = GridGeometry((0.0, -np.pi), (1.0, np.pi), (5, 8), (False, True))
    x = geom.axis_coordinates(1)
    assert x[0] == pytest.approx(-np.pi)
    assert x[-1] < np.pi
    assert geom.spacing(1) == pytest.approx(2 * np.pi / 8)


def test_grid_csv_roundtrip(tmp_path):
    model, policy, spec = make_benchmark("double_integrator")
    geom = GridGeometry((-10.0, -5.0), (12.0, 5.0), (7, 5), (False, False))
    grid = sweep_backup_h(model, policy, spec, geom, 10.0, 50)
    path = str(tmp_path / "grid.csv")
    write_grid_csv(grid, path)
    back = read_grid_csv(path)
    assert back.geometry == grid.geometry
    assert np.array_equal(back.values, grid.values)


def test_grid_json_roundtrip(tmp_path):
    geom = GridGeometry((0.0, -np.pi), (1.0, np.pi), (4, 6), (False, True))
    grid = LevelGrid(geom, np.arange(24.0))
    path = str(tmp_path / "grid.json")
    write_grid_json(grid, path)
    back = read_grid(path)
    assert back.geometry == grid.geometry
    assert np.array_equal(back.values, grid.values)
    doc = grid_to_json_dict(grid)
    again = grid_from_json_dict(doc)
    assert again.geometry == grid.geometry


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# axis 0: 0.0 1.0 zonk\n")
    with pytest.raises(GeometryError) as err:
        read_grid_csv(str(path))
    assert ":1:" in str(err.value)

    path2 = tmp_path / "bad2.csv"
    path2.write_text("# axis 0: 0.0 1.0 3\n# axis 1: 0.0 1.0 3\n0,0,0.0,0.0\n")
    with pytest.raises(GeometryError) as err:
        read_grid_csv(str(path2))
    assert ":3:" in str(err.value)


def reference_write_grid_csv(grid, path):
    """The former per-cell CSV writer, kept verbatim as the byte reference."""
    geom = grid.geometry
    axes = [geom.axis_coordinates(i) for i in range(geom.dims)]
    with open(path, "w") as fh:
        for i in range(geom.dims):
            flag = " periodic" if geom.periodic_axes[i] else ""
            fh.write(f"# axis {i}: {geom.lower[i]!r} {geom.upper[i]!r} "
                     f"{geom.counts[i]}{flag}\n")
        flat = grid.values.ravel()
        for flat_idx, value in enumerate(flat):
            idx = np.unravel_index(flat_idx, geom.counts)
            coords = [axes[i][idx[i]] for i in range(geom.dims)]
            cols = [str(int(i)) for i in idx] + [repr(float(c)) for c in coords]
            cols.append(repr(float(value)))
            fh.write(",".join(cols) + "\n")


EXTREME_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308)


@st.composite
def level_grids(draw):
    dims = draw(st.integers(2, 3))
    counts = tuple(draw(st.integers(3, 9)) for _ in range(dims))
    lower = tuple(draw(st.floats(-1e3, 1e3)) for _ in range(dims))
    upper = tuple(lo + draw(st.floats(1e-3, 1e3)) for lo in lower)
    periodic = tuple(draw(st.booleans()) for _ in range(dims))
    values = draw(st.lists(
        st.one_of(st.sampled_from(EXTREME_VALUES),
                  st.floats(allow_nan=False, allow_infinity=False)),
        min_size=math.prod(counts), max_size=math.prod(counts)))
    return LevelGrid(GridGeometry(lower, upper, counts, periodic),
                     np.array(values))


@settings(max_examples=60, deadline=None)
@given(level_grids())
def test_grid_files_roundtrip_bit_equal(grid):
    """CSV and JSON read back to the same bits, and the block-wise CSV
    writer emits exactly the text of the per-cell reference writer."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "g.csv")
        ref_path = os.path.join(tmp, "ref.csv")
        json_path = os.path.join(tmp, "g.json")
        write_grid_csv(grid, csv_path)
        reference_write_grid_csv(grid, ref_path)
        write_grid_json(grid, json_path)
        with open(csv_path) as a, open(ref_path) as b:
            assert a.read() == b.read()
        for path in (csv_path, json_path):
            back = read_grid(path)
            assert back.geometry == grid.geometry
            assert back.values.tobytes() == grid.values.tobytes()


def _small_csv(tmp_path, edit):
    """A 3 x 3 grid file with its data lines (lines 3..11) passed
    through ``edit``."""
    geom = GridGeometry((0.0, 0.0), (1.0, 1.0), (3, 3), (False, False))
    path = tmp_path / "grid.csv"
    write_grid_csv(LevelGrid(geom, np.arange(9.0)), str(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + edit(lines[2:])))
    return str(path)


@pytest.mark.parametrize("edit, lineno", [
    (lambda rows: rows[:4] + ["1,7,0.5,3.5,4.0\n"] + rows[5:], 7),
    (lambda rows: rows[:1] + ["0,0,0.0,0.0,-7.0\n"] + rows[1:], 4),
    (lambda rows: rows[:5] + rows[6:], 8),
    (lambda rows: rows[:8], 11),
    (lambda rows: rows + ["2,2,1.0,1.0,8.0\n"], 12),
    (lambda rows: rows[:3] + ["1,0.5,0.5,0.0,3.0\n"] + rows[4:], 6),
    (lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:], 5),
], ids=["out_of_range", "repeated", "missing", "truncated", "extra",
        "non_integer", "swapped"])
def test_csv_reader_rejects_rows_off_the_row_major_sequence(tmp_path, edit,
                                                            lineno):
    path = _small_csv(tmp_path, edit)
    with pytest.raises(GeometryError) as err:
        read_grid_csv(path)
    assert f"{path}:{lineno}:" in str(err.value)


def test_csv_reader_skips_blank_lines_and_keeps_line_numbers(tmp_path):
    path = _small_csv(tmp_path, lambda rows: rows[:3] + ["\n"] + rows[3:] + ["\n"])
    assert np.array_equal(read_grid_csv(path).values.ravel(), np.arange(9.0))
    path = _small_csv(tmp_path, lambda rows: rows[:3] + ["\n", "0,0\n"] + rows[3:])
    with pytest.raises(GeometryError, match=":7: expected 5 columns"):
        read_grid_csv(path)


def test_level_grid_checks_value_count(tmp_path):
    geom = GridGeometry((0.0, 0.0), (1.0, 1.0), (3, 3), (False, False))
    doc = grid_to_json_dict(LevelGrid(geom, np.zeros(9)))
    doc["values"] = doc["values"][:8]
    with pytest.raises(GeometryError, match="needs 9 values, got 8"):
        grid_from_json_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = tmp_path / "good.json"
    write_grid_json(LevelGrid(geom, np.zeros(9)), str(good))
    assert cli_main(["compare", str(good), str(bad)]) == 2


def test_sweep_names_the_diverging_node(monkeypatch):
    """xdot0 = x0^2 escapes in finite time 1/x0, so over a horizon of 0.6 s
    only the nodes with x0 = 2 blow up; the error names the first of them
    (its global C-order index, past the first chunk) and its coordinates."""

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = x[..., 0] ** 2
        return out

    def g(x):
        return np.zeros(np.asarray(x).shape[:-1] + (2, 1))

    def df(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 * x[..., 0]
        return out

    model = SystemModel(2, 1, f, g, df, None, np.array([-1.0]), np.array([1.0]))
    policy = BackupPolicy(lambda x: np.zeros(np.asarray(x).shape[:-1] + (1,)),
                          lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 2)),
                          smoothing_eps=0.01)
    band = ScalarConstraint(lambda x: 10.0 - np.abs(np.asarray(x)[..., 0]),
                            lambda x: np.zeros_like(np.asarray(x)), "band")
    spec = SafetySpec(constraints=(band,), terminal=band, alpha_gain=1.0)
    geom = GridGeometry((-2.0, -1.0), (2.0, 1.0), (9, 5), (False, False))
    for chunk in (45, 16):
        monkeypatch.setattr(hjgrid, "_SWEEP_CHUNK", chunk)
        with pytest.raises(FlowDivergenceError) as err:
            sweep_backup_h(model, policy, spec, geom, 0.6, 240)
        assert err.value.row == 40                      # node (8, 0)
        assert "node 40 (x = [2.0, -1.0])" in str(err.value)
