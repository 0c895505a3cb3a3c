"""Scenario configuration, closed-loop simulation, timing, and artifacts.

Scenarios are JSON documents with units spelled out in the field names
(``t_horizon_s``, ``dt_s``, ...); the `Scenario` dataclass fields are the
schema.  The simulation loop applies a nominal ("legacy") controller,
passes it through the safety filter, and advances the true dynamics with
the fixed-step fourth-order update the backup flow uses (`flow.rk4_step`,
on the whole state array as a 1-tuple), its slope ``f(x) + g(x) u*``
summed by `systems.affine_sum`: the arithmetic of the generated closed
loop, of the flows and of the filter rows' dynamics check.  A step count
``round(duration_s / dt_s)`` whose log cannot be allocated is refused
before the first step.  Runs are deterministic:
fixed-step integration and deterministic tie-breaking in the QP make
re-runs bit-identical.  The simulation log is also where filter timings
are measured: every step records the integration, row-assembly and QP
times of its filter call, and `SimLog.timing_summary` reduces them to
medians and p95s.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence, get_type_hints

import numpy as np

from .barrier import filter_control
from .errors import (GeometryError, NumericalError, ScenarioError,
                     ValidationError)
from .flow import rk4_step
from .hjgrid import (HJ_MAX_STEPS, HJ_TOL, GridGeometry, LevelGrid,
                     SolveRecord, axis_records, check_solve_limits,
                     compare_sets, constraint_grid, geometry_from_axes,
                     read_grid, solve_invariant, sweep_backup_h,
                     write_grid_csv, write_grid_json)
from .qp import QpSolver
from .systems import (BENCHMARK_DEFAULTS, BackupPolicy, SafetySpec, SystemModel,
                      affine_sum, is_finite_real, is_integer, make_benchmark)

Array = np.ndarray


# ---------------------------------------------------------------------------
# Scenario.
# ---------------------------------------------------------------------------

_NOMINAL_KINDS = ("constant", "proportional", "table")


# declared field type -> (check, what it asks for); x0, declared
# tuple[float, ...], is the one field whose type is not listed
_TYPE_CHECKS = {
    float: (is_finite_real, "a finite number"),
    int: (is_integer, "an integer"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    dict: (lambda v: isinstance(v, dict), "an object"),
}
_SEQUENCE_CHECK = (lambda v: isinstance(v, (list, tuple, np.ndarray))
                   and all(map(is_finite_real, v)), "a list of finite numbers")


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment: benchmark, filter settings, nominal
    controller, initial state, and simulation clock."""

    benchmark: str
    params: dict = field(default_factory=dict)
    t_horizon_s: float = 0.0          # 0 -> benchmark default
    n_flow_steps: int = 0             # 0 -> benchmark default
    alpha_gain_per_s: float = 1.0
    row_margin: float = 0.0
    nominal: dict = field(default_factory=lambda: {"kind": "constant",
                                                   "value": []})
    x0: tuple[float, ...] = ()
    duration_s: float = 10.0
    dt_s: float = 0.02
    filter_on: bool = True
    label: str = ""
    out_dir: str = ""

    def __post_init__(self):
        for name, (check, wanted) in _FIELD_CHECKS.items():
            value = getattr(self, name)
            if not check(value):
                raise ScenarioError(f"{name} must be {wanted}, got {value!r}")
        if self.benchmark not in BENCHMARK_DEFAULTS:
            raise ScenarioError(f"unknown benchmark {self.benchmark!r}")
        if "alpha_gain_per_s" in self.params:
            raise ScenarioError("alpha_gain_per_s is a scenario field; remove "
                                "it from params")
        defaults = BENCHMARK_DEFAULTS[self.benchmark]
        if self.t_horizon_s == 0.0:
            object.__setattr__(self, "t_horizon_s", defaults["t_horizon_s"])
        if self.n_flow_steps == 0:
            object.__setattr__(self, "n_flow_steps", defaults["n_flow_steps"])
        if self.t_horizon_s <= 0.0 or self.n_flow_steps < 1:
            raise ScenarioError("t_horizon_s must be > 0 and n_flow_steps >= 1")
        if self.dt_s <= 0.0:
            raise ScenarioError("dt_s must be > 0")
        if self.duration_s < self.dt_s:
            raise ScenarioError("duration_s must be >= dt_s")
        if self.alpha_gain_per_s <= 0.0:
            raise ScenarioError("alpha_gain_per_s must be > 0")
        if self.row_margin < 0.0:
            raise ScenarioError("row_margin must be >= 0")
        kind = self.nominal.get("kind")
        if kind not in _NOMINAL_KINDS:
            raise ScenarioError(f"nominal.kind must be one of {_NOMINAL_KINDS}")
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "nominal", dict(self.nominal))

    def build(self) -> tuple[SystemModel, BackupPolicy, SafetySpec]:
        params = dict(self.params, alpha_gain_per_s=self.alpha_gain_per_s)
        triple = make_benchmark(self.benchmark, params)
        model = triple[0]
        if len(self.x0) != model.state_dim:
            raise ScenarioError(f"x0 must have {model.state_dim} entries")
        return triple

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update(params=dict(self.params), nominal=dict(self.nominal),
                   x0=list(self.x0))
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario document must be a JSON object")
        unknown = set(doc) - set(_FIELD_CHECKS)
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        if "benchmark" not in doc or "x0" not in doc:
            raise ScenarioError("scenario requires 'benchmark' and 'x0'")
        return Scenario(**doc)


# field name -> (check, what it asks for), from the declared annotations
_FIELD_CHECKS = {name: _TYPE_CHECKS.get(kind, _SEQUENCE_CHECK)
                 for name, kind in get_type_hints(Scenario).items()}


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}:{exc.lineno}: invalid JSON") from exc
    return Scenario.from_json_dict(doc)


def _nominal_array(spec: dict, key: str) -> Array:
    try:
        value = np.asarray(spec.get(key, []), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"nominal.{key} must be numeric: {exc}") from None
    if not np.all(np.isfinite(value)):
        raise ScenarioError(f"nominal.{key} must be finite, got {spec[key]!r}")
    return value


def _nominal_controller(scenario: Scenario, model: SystemModel
                        ) -> Callable[[float, Array], Array]:
    spec = scenario.nominal
    kind = spec["kind"]
    m = model.input_dim
    if kind == "constant":
        value = _nominal_array(spec, "value")
        if value.shape != (m,):
            raise ScenarioError(f"nominal.value must have {m} entries")
        return lambda t, x: value
    if kind == "proportional":
        gain = _nominal_array(spec, "gain")
        ref = _nominal_array(spec, "reference")
        if gain.shape != (m, model.state_dim) or ref.shape != (model.state_dim,):
            raise ScenarioError("nominal.gain must be (input_dim x state_dim) "
                                "and nominal.reference a state vector")
        return lambda t, x: gain @ (ref - x)
    times = _nominal_array(spec, "times_s")
    values = _nominal_array(spec, "values")
    if times.ndim != 1 or times.size == 0 or values.shape != (times.size, m):
        raise ScenarioError("nominal table needs times_s (T,) and values (T, m)")
    if np.any(np.diff(times) <= 0.0):
        raise ScenarioError("nominal table times must be strictly increasing")

    def lookup(t: float, x: Array) -> Array:
        idx = int(np.searchsorted(times, t, side="right") - 1)
        return values[max(idx, 0)]

    return lookup


# ---------------------------------------------------------------------------
# Simulation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimLog:
    """Column-oriented record of one simulation run."""

    scenario: Scenario
    times: Array
    states: Array
    u_nominal: Array
    u_star: Array
    h_values: Array
    constraint_values: Array      # hC_k at the current state
    flow_minima: Array            # min over the flow grid, per constraint
    qp_status: tuple[str, ...]
    active_counts: Array
    fallbacks: Array
    timings_us: Array             # columns: integrate, rows, qp
    state_names: tuple[str, ...]
    input_names: tuple[str, ...]
    constraint_names: tuple[str, ...]

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValidationError("log times must be strictly increasing")

    def min_constraint_value(self) -> float:
        return float(self.constraint_values.min())

    def summary(self) -> dict:
        return {
            "label": self.scenario.label,
            "benchmark": self.scenario.benchmark,
            "filter_on": self.scenario.filter_on,
            "steps": int(self.times.size),
            "min_h": float(self.h_values.min()) if self.h_values.size else None,
            "min_constraint": self.min_constraint_value(),
            "fallback_steps": int(self.fallbacks.sum()),
        }

    def timing_summary(self) -> dict:
        """Median and p95 wall time (us) of each filter phase over the run's
        steps, and of their per-step total; zero when the filter is off."""
        phases = {"integration": self.timings_us[:, 0],
                  "rows": self.timings_us[:, 1],
                  "qp": self.timings_us[:, 2],
                  "total": self.timings_us.sum(axis=1)}
        return {name: {"median_us": float(np.median(col)),
                       "p95_us": float(np.percentile(col, 95))}
                for name, col in phases.items()}

    def to_csv(self, path: str, include_timings: bool = True) -> None:
        """Write the log; timing columns are wall-clock measurements and can
        be dropped when byte-stable output is wanted."""
        cols = (["t_s"]
                + [f"x_{n}" for n in self.state_names]
                + [f"u0_{n}" for n in self.input_names]
                + [f"ustar_{n}" for n in self.input_names]
                + ["h_value"]
                + [f"hC_{n}" for n in self.constraint_names]
                + [f"flowmin_{n}" for n in self.constraint_names]
                + ["qp_status", "n_active", "fallback"])
        if include_timings:
            cols += ["t_integrate_us", "t_rows_us", "t_qp_us"]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(self.times.size):
                row = ([repr(float(self.times[i]))]
                       + [repr(float(v)) for v in self.states[i]]
                       + [repr(float(v)) for v in self.u_nominal[i]]
                       + [repr(float(v)) for v in self.u_star[i]]
                       + [repr(float(self.h_values[i]))]
                       + [repr(float(v)) for v in self.constraint_values[i]]
                       + [repr(float(v)) for v in self.flow_minima[i]]
                       + [self.qp_status[i], str(int(self.active_counts[i])),
                          str(int(self.fallbacks[i]))])
                if include_timings:
                    row += [str(int(v)) for v in self.timings_us[i]]
                fh.write(",".join(row) + "\n")


def simulate(scenario: Scenario) -> SimLog:
    """Run the closed loop for ``duration_s`` at ``dt_s``, filtering the
    nominal input at every step when the filter is on."""
    model, policy, spec = scenario.build()
    nominal = _nominal_controller(scenario, model)
    solver = QpSolver()
    try:        # an infinite or oversized step count, before the first step
        n_steps = int(round(scenario.duration_s / scenario.dt_s))
        times = np.empty(n_steps)
        states = np.empty((n_steps, model.state_dim))
        u_nom = np.empty((n_steps, model.input_dim))
        u_out = np.empty((n_steps, model.input_dim))
        h_vals = np.empty(n_steps)
        con_vals = np.empty((n_steps, len(spec.constraints)))
        flow_mins = np.empty((n_steps, len(spec.constraints)))
        actives = np.zeros(n_steps, dtype=int)
        fallbacks = np.zeros(n_steps, dtype=bool)
        timings = np.zeros((n_steps, 3), dtype=int)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ScenarioError(
            f"duration_s / dt_s = {scenario.duration_s!r} / "
            f"{scenario.dt_s!r} steps cannot be logged: {exc}") from None
    statuses: list[str] = []

    x = np.asarray(scenario.x0, dtype=float)

    for k in range(n_steps):
        t = k * scenario.dt_s
        u0 = np.asarray(nominal(t, x), dtype=float)
        con_vals[k] = [c.h_eval(x) for c in spec.constraints]
        if scenario.filter_on:
            try:
                u_star, diag = filter_control(
                    model, policy, spec, x, u0,
                    scenario.t_horizon_s, scenario.n_flow_steps,
                    solver=solver, margin=scenario.row_margin)
            except NumericalError as exc:
                raise NumericalError(f"step {k} (t = {t:.4g} s): {exc}") from exc
            except ValidationError as exc:
                raise ValidationError(f"step {k} (t = {t:.4g} s): {exc}") from exc
            h_vals[k] = diag.h_value
            flow_mins[k] = diag.flow_minima
            statuses.append(diag.qp_status)
            actives[k] = len(diag.active_rows)
            fallbacks[k] = diag.used_fallback
            timings[k] = (diag.timings_us["integrate"], diag.timings_us["rows"],
                          diag.timings_us["qp"])
        else:
            u_star = np.clip(u0, model.input_lower, model.input_upper)
            flow_mins[k] = con_vals[k]
            h_vals[k] = con_vals[k].min()
            statuses.append("off")
        times[k] = t
        states[k] = x
        u_nom[k] = u0
        u_out[k] = u_star
        (x,), _ = rk4_step(lambda xs: (affine_sum(
            model.f_eval(xs), model.g_eval(xs), u_star),), (x,), scenario.dt_s)

    if scenario.filter_on:
        # every applied input must respect the box
        if np.any(u_out < model.input_lower - 1e-9) or \
           np.any(u_out > model.input_upper + 1e-9):
            raise ValidationError("filtered input left the input box")

    return SimLog(scenario=scenario, times=times, states=states,
                  u_nominal=u_nom, u_star=u_out, h_values=h_vals,
                  constraint_values=con_vals, flow_minima=flow_mins,
                  qp_status=tuple(statuses), active_counts=actives,
                  fallbacks=fallbacks, timings_us=timings,
                  state_names=model.state_names,
                  input_names=model.input_names,
                  constraint_names=tuple(c.name or f"c{k}" for k, c in
                                         enumerate(spec.constraints)))


# ---------------------------------------------------------------------------
# Level-set artifacts.
# ---------------------------------------------------------------------------


def _plane_index(geom: GridGeometry, axis: int, value: float) -> int:
    """The node of ``axis`` nearest ``value``, modulo the period on a
    periodic axis; `GeometryError` unless ``value`` is finite and, on any
    other axis, at most half a spacing outside ``[lower, upper]``."""
    lo, hi = geom.lower[axis], geom.upper[axis]
    half = 0.5 * geom.spacing(axis)
    if not (is_finite_real(value) and (geom.periodic_axes[axis]
                                       or lo - half <= value <= hi + half)):
        raise GeometryError(f"slice value {value!r} is not a finite number within "
                            f"half a spacing of axis {axis} [{lo!r}, {hi!r}]")
    gap = np.abs(geom.axis_coordinates(axis) - value)
    if geom.periodic_axes[axis]:
        gap = np.minimum(gap % (hi - lo), (hi - lo) - gap % (hi - lo))
    return int(np.argmin(gap))


def slice_grid(grid: LevelGrid, axis: int, value: float) -> LevelGrid:
    """Fix one axis at the node `_plane_index` picks for ``value``; the
    result must still be a valid 2- or 3-axis grid."""
    geom = grid.geometry
    if geom.dims - 1 < 2:
        raise GeometryError("slice would leave fewer than 2 axes")
    if not (is_integer(axis) and 0 <= axis < geom.dims):
        raise GeometryError(f"axis {axis!r} is not an integer in range "
                            f"[0, {geom.dims})")
    axes = [a for i, a in enumerate(axis_records(geom)) if i != axis]
    return LevelGrid(geometry_from_axes(axes),
                     np.take(grid.values, _plane_index(geom, axis, value), axis))


def resolve_axis(model: SystemModel, name_or_index: str | int) -> int:
    """The state axis named by ``name_or_index``: a state name, or an index
    ``0 <= i < state_dim`` given as an int or a decimal string."""
    if name_or_index in model.state_names:
        return model.state_names.index(name_or_index)
    text = str(name_or_index)
    if (isinstance(name_or_index, (str, int, np.integer)) and text.isdecimal()
            and not isinstance(name_or_index, bool)
            and int(text) < model.state_dim):
        return int(text)
    raise GeometryError(f"unknown axis {name_or_index!r}; state axes are "
                        f"0..{model.state_dim - 1} {model.state_names}")


def run_levelset(scenario: Scenario, geometry: GridGeometry,
                 slices: Sequence[tuple[str | int, float]] = (),
                 out_dir: str = ".", include_hj: bool = False,
                 hj_tol: float = HJ_TOL, hj_max_steps: int = HJ_MAX_STEPS
                 ) -> dict:
    """The map of paths `write_levelset` writes (every one a grid file)."""
    return write_levelset(scenario, geometry, slices, out_dir, include_hj,
                          hj_tol, hj_max_steps)[0]


def write_levelset(scenario: Scenario, geometry: GridGeometry,
                   slices: Sequence[tuple[str | int, float]] = (),
                   out_dir: str = ".", include_hj: bool = False,
                   hj_tol: float = HJ_TOL, hj_max_steps: int = HJ_MAX_STEPS
                   ) -> tuple[dict, SolveRecord | None]:
    """Sweep the implicit barrier over the grid (optionally also the
    baseline invariant-set field), write each grid as CSV and JSON and each
    requested slice of it as CSV, named ``slice_<axis>_<value:g>``; returns
    the map of written paths and the baseline's `SolveRecord` (``None``
    without it).  The slices and the solve limits are checked first, so a
    bad one, or two slices that would write one file, fails fast and
    leaves no ``out_dir`` behind; ``out_dir`` is then created before the
    sweep, so an unusable one fails fast too."""
    model, policy, spec = scenario.build()
    if include_hj:
        check_solve_limits(hj_tol, hj_max_steps)
    if slices and geometry.dims != 3:
        raise GeometryError(f"a slice needs a 3-axis grid, got {geometry.dims}")
    planes = {}
    for name_or_index, value in slices:
        axis = resolve_axis(model, name_or_index)
        _plane_index(geometry, axis, value)
        suffix = f"slice_{model.state_names[axis]}_{value:g}"
        if suffix in planes:
            raise GeometryError(
                f"slices at {planes[suffix][1]!r} and {value!r} on axis "
                f"{model.state_names[axis]!r} would both write {suffix}")
        planes[suffix] = axis, value
    os.makedirs(out_dir, exist_ok=True)
    grids = {"backup": sweep_backup_h(model, policy, spec, geometry,
                                      scenario.t_horizon_s,
                                      scenario.n_flow_steps)}
    if include_hj:
        grids["hj"] = solve_invariant(constraint_grid(geometry, spec), model,
                                      tol=hj_tol, max_steps=hj_max_steps)
    written: dict[str, str] = {}
    for suffix, (axis, value) in {"grid": (None, None), **planes}.items():
        for name, grid in grids.items():
            key = f"{name}_{suffix}"
            written[key] = os.path.join(out_dir, key + ".csv")
            if axis is None:
                write_grid_csv(grid, written[key])
                written[key + "_json"] = os.path.join(out_dir, key + ".json")
                write_grid_json(grid, written[key + "_json"])
            else:
                write_grid_csv(slice_grid(grid, axis, value), written[key])
    return written, grids["hj"].solve if include_hj else None


def run_compare(path_a: str, path_b: str, threshold: float = 0.0,
                out_path: str | None = None) -> dict:
    """Compare two on-disk grids; optionally write the metrics JSON."""
    metrics = compare_sets(read_grid(path_a), read_grid(path_b), threshold)
    metrics["grid_a"] = path_a
    metrics["grid_b"] = path_b
    metrics["threshold"] = threshold
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(metrics, fh, indent=2)
    return metrics
