"""Seeded inputs, the three workloads, and the checks on their outputs.

Every input is generated from the workload seed alone and handed to the
package through its public API (`Scenario`, `simulate`, `run_levelset`,
`run_compare`).  The closed loops have one client: each filter call is
issued by `simulate` only after the previous plant step completed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from backup_cbf import harness, hjgrid
from backup_cbf.barrier import filter_control
from backup_cbf.errors import NumericalError, ValidationError
from backup_cbf.harness import Scenario
from backup_cbf.hjgrid import GridGeometry, read_grid
from backup_cbf.systems import di_closed_form_h

_now = time.perf_counter

CLOSED_LOOPS = ("lane_keep", "collision_avoid")

EPISODES = 64          # generated per seed; a run cycles through them in order
EPISODE_S = 2.0        # simulated seconds per episode: 100 filter calls
DT_S = 0.02
MIN_CONSTRAINT = -1e-3  # closed-loop tolerance, as in acceptance criterion 3
BOX_TOL = 1e-9
MAX_VIOLATION = 0.01   # backup set outside the one-cell-dilated HJ set
DI_PARAMS = {"c_limit_m": 10.0, "u_max_mps2": 1.0}


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------


def _jitter(rng, centre, half_widths) -> tuple[float, ...]:
    return tuple(float(c + rng.uniform(-w, w))
                 for c, w in zip(centre, half_widths))


def lane_keep_inputs(seed: int) -> list[Scenario]:
    """Dubins episodes alternating the two gain profiles, started at the
    demo state ``(0, 5, 0)`` plus jitter, steering at a seeded +-0.5."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for e in range(EPISODES):
        profile = ("conservative", "aggressive")[e % 2]
        x0 = _jitter(rng, (0.0, 5.0, 0.0), (0.3, 0.5, 0.1))
        steer = float(rng.choice((-0.5, 0.5)))
        out.append(Scenario(
            benchmark="dubins", params={"profile": profile},
            t_horizon_s=8.0, n_flow_steps=100,
            nominal={"kind": "constant", "value": [0.0, steer]},
            x0=x0, duration_s=EPISODE_S, dt_s=DT_S,
            label=f"lane_keep_{e}_{profile}"))
    return out


def collision_avoid_inputs(seed: int) -> list[Scenario]:
    """Aeroplane head-on episodes jittered from ``(4, 0.3, pi)``, N = 200."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for e in range(EPISODES):
        x0 = _jitter(rng, (4.0, 0.3, math.pi), (0.3, 0.1, 0.1))
        out.append(Scenario(
            benchmark="aeroplane", t_horizon_s=4.0, n_flow_steps=200,
            nominal={"kind": "constant", "value": [0.0]},
            x0=x0, duration_s=EPISODE_S, dt_s=DT_S,
            label=f"collision_avoid_{e}"))
    return out


@dataclass(frozen=True)
class GridCase:
    """One ``bcbf levelset --hj`` invocation followed by ``bcbf compare``."""

    label: str
    scenario: Scenario
    geometry: GridGeometry
    slices: tuple[tuple[str, float], ...] = ()


def _di_case() -> GridCase:
    return GridCase(
        "double_integrator",
        Scenario(benchmark="double_integrator", params=dict(DI_PARAMS),
                 t_horizon_s=10.0, n_flow_steps=100,
                 nominal={"kind": "constant", "value": [0.0]}, x0=(0.0, 0.0)),
        GridGeometry((-10.0, -5.0), (12.0, 5.0), (101, 101), (False, False)))


def _aeroplane_case(slices) -> GridCase:
    return GridCase(
        "aeroplane",
        Scenario(benchmark="aeroplane", t_horizon_s=4.0, n_flow_steps=200,
                 nominal={"kind": "constant", "value": [0.0]},
                 x0=(4.0, 0.3, math.pi)),
        GridGeometry((-6.0, -6.0, -math.pi), (6.0, 6.0, math.pi),
                     (31, 31, 31), (False, False, True)),
        tuple(slices))


def _dubins_case(slices) -> GridCase:
    return GridCase(
        "dubins_conservative",
        Scenario(benchmark="dubins", params={"profile": "conservative"},
                 t_horizon_s=8.0, n_flow_steps=100,
                 nominal={"kind": "constant", "value": [0.0, 0.0]},
                 x0=(0.0, 5.0, 0.0)),
        GridGeometry((-2.25, -1.0, -1.25), (2.25, 11.0, 1.25),
                     (45, 45, 45), (False, False, False)),
        tuple(slices))


def levelset_inputs(seed: int) -> list[GridCase]:
    """The three grids are fixed; the seed picks the slice planes.  Dubins
    needs 45 points per axis for the containment check to hold."""
    rng = np.random.default_rng([seed, 3])
    return [_di_case(),
            _aeroplane_case([("dpsi", float(rng.uniform(-3.0, 3.0)))]),
            _dubins_case([("v", float(rng.uniform(3.0, 7.0)))])]


def digest(inputs) -> str:
    """SHA-256 over the exact generated inputs (floats by ``repr``)."""
    docs = []
    for item in inputs:
        if isinstance(item, GridCase):
            g = item.geometry
            docs.append({"scenario": item.scenario.to_json_dict(),
                         "grid": [g.lower, g.upper, g.counts, g.periodic_axes],
                         "slices": item.slices})
        else:
            docs.append(item.to_json_dict())
    text = json.dumps(docs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Timers around the public calls, from outside the package.
# ---------------------------------------------------------------------------


class Recorder:
    """Times the calls each workload reports and keeps what the output
    checks need (diagnostics, written and re-read grids).  With a
    reference clock it samples the clock between calls, outside the
    intervals it records."""

    def __init__(self, clock=None):
        self.clock = clock      # a RefClock to tick between calls, or None
        self.filter_t: list[tuple[float, float]] = []    # (start, end)
        self.filter_errors = 0
        self.fallbacks = 0
        self.sweep_t: list[tuple[float, float]] = []
        self.sweep_nodes = 0
        self.hj_t: list[tuple[float, float]] = []
        self.written: dict[str, object] = {}
        self.read: dict[str, object] = {}

    def replacements(self) -> list:
        """Wrappers for the current ``harness`` attributes; take them after
        any tracing wrappers are in place so the timers sit outside."""
        inner_filter = harness.filter_control
        inner_sweep = harness.sweep_backup_h
        inner_solve = harness.solve_invariant
        inner_csv = harness.write_grid_csv
        inner_json = harness.write_grid_json
        inner_read = harness.read_grid
        tick = self.clock.tick if self.clock else lambda: None

        def filter_call(*args, **kwargs):
            t0 = _now()
            try:
                u, diag = inner_filter(*args, **kwargs)
            except (NumericalError, ValidationError):
                self.filter_errors += 1
                raise
            self.filter_t.append((t0, _now()))
            tick()
            self.fallbacks += bool(diag.used_fallback)
            return u, diag

        def sweep(*args, **kwargs):
            tick()
            t0 = _now()
            grid = inner_sweep(*args, **kwargs)
            self.sweep_t.append((t0, _now()))
            tick()
            self.sweep_nodes += grid.values.size
            return grid

        def solve(*args, **kwargs):
            tick()
            t0 = _now()
            grid = inner_solve(*args, **kwargs)
            self.hj_t.append((t0, _now()))
            tick()
            return grid

        def write_csv(grid, path):
            self.written[path] = grid
            tick()
            return inner_csv(grid, path)

        def write_json(grid, path):
            self.written[path] = grid
            tick()
            return inner_json(grid, path)

        def read(path):
            tick()
            grid = inner_read(path)
            self.read[path] = grid
            return grid

        return [(harness, "filter_control", filter_call),
                (harness, "sweep_backup_h", sweep),
                (harness, "solve_invariant", solve),
                (harness, "write_grid_csv", write_csv),
                (harness, "write_grid_json", write_json),
                (harness, "read_grid", read)]


def clock_replacements(clock) -> list:
    """Make the model's drift tick ``clock``, so that the reference clock
    is sampled inside long grid sweeps too; wrapped where `Scenario.build`
    makes the triple, like the tracing hooks."""
    original_make = harness.make_benchmark

    def make_benchmark(name, params=None):
        model, policy, spec = original_make(name, params)
        f_eval = model.f_eval

        def ticking_f(x):
            clock.tick()
            return f_eval(x)

        return dataclasses.replace(model, f_eval=ticking_f), policy, spec

    return [(harness, "make_benchmark", make_benchmark)]


# ---------------------------------------------------------------------------
# Set-up: build every triple once and warm each code path before timing.
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    workload: str
    inputs: list
    boxes: dict = field(default_factory=dict)   # config key -> input box


def _config_key(sc: Scenario) -> str:
    return json.dumps([sc.benchmark, sc.params], sort_keys=True)


def prepare_closed_loop(workload: str, inputs: list[Scenario]) -> Prepared:
    """Build every configuration's triple and warm it up with one filter
    call, so lazy imports and first-call costs fall outside the timing."""
    prepared = Prepared(workload, inputs)
    for sc in inputs:
        key = _config_key(sc)
        if key in prepared.boxes:
            continue
        model, policy, spec = sc.build()
        prepared.boxes[key] = (model.input_lower, model.input_upper)
        filter_control(model, policy, spec, np.asarray(sc.x0),
                       np.asarray(sc.nominal["value"]), sc.t_horizon_s,
                       sc.n_flow_steps)
    return prepared


def prepare_levelset(workload: str, inputs: list[GridCase]) -> Prepared:
    """Warm each grid case up with a coarse sweep and two value-iteration
    passes before timing."""
    for case in inputs:
        model, policy, spec = case.scenario.build()
        g = case.geometry
        coarse = GridGeometry(g.lower, g.upper, (5,) * g.dims, g.periodic_axes)
        hjgrid.sweep_backup_h(model, policy, spec, coarse,
                              case.scenario.t_horizon_s,
                              case.scenario.n_flow_steps)
        hjgrid.solve_invariant(hjgrid.constraint_grid(coarse, spec), model,
                               tol=0.0, max_steps=2)
    return Prepared(workload, inputs)


def prepare(workload: str, seed: int) -> Prepared:
    """Generate the workload's inputs from the seed and warm up."""
    if workload == "lane_keep":
        return prepare_closed_loop(workload, lane_keep_inputs(seed))
    if workload == "collision_avoid":
        return prepare_closed_loop(workload, collision_avoid_inputs(seed))
    return prepare_levelset(workload, levelset_inputs(seed))


def di_probe_inputs(seed: int) -> list[Scenario]:
    """One short double-integrator closed loop pushed at full throttle
    towards the wall, so the filter and its QP engage."""
    rng = np.random.default_rng([seed, 4])
    return [Scenario(benchmark="double_integrator", params=dict(DI_PARAMS),
                     t_horizon_s=10.0, n_flow_steps=100,
                     nominal={"kind": "constant", "value": [1.0]},
                     x0=_jitter(rng, (6.0, 1.8), (0.5, 0.3)),
                     duration_s=1.0, dt_s=DT_S, label="probe_double_integrator")]


def grid_probe_inputs() -> list[GridCase]:
    return [_di_case()]


# ---------------------------------------------------------------------------
# Closed loops.
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one pass over a workload did and what its checks found."""

    ops: int = 0                 # filter calls or grid pipelines attempted
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    episodes: int = 0            # episodes simulated, or rounds of grids
    steps: int = 0
    wall_s: float = 0.0          # time inside simulate / grid pipelines
    units: list[tuple[float, float]] = field(default_factory=list)
    case_t: dict[str, list[tuple[float, float]]] = \
        field(default_factory=dict)  # (start, end) of each grid pipeline
    facts: dict = field(default_factory=dict)


def check_episode(log, box) -> list[str]:
    """Closed-loop output checks: safety margin, input box, no fallback."""
    label = log.scenario.label
    problems = []
    worst = log.min_constraint_value()
    if not worst >= MIN_CONSTRAINT:
        problems.append(f"{label}: worst constraint {worst!r} < "
                        f"{MIN_CONSTRAINT}")
    lower, upper = box
    if np.any(log.u_star < lower - BOX_TOL) or \
            np.any(log.u_star > upper + BOX_TOL):
        problems.append(f"{label}: applied input left the box")
    n_fallback = int(log.fallbacks.sum())
    if n_fallback or "infeasible_fallback" in log.qp_status:
        problems.append(f"{label}: {n_fallback} fallback steps")
    return problems


def run_closed_loop(prepared: Prepared, seconds: float, recorder: Recorder,
                    episodes: int | None = None) -> Outcome:
    """Simulate episodes in order until ``seconds`` have passed (or exactly
    ``episodes`` of them), checking each log."""
    out = Outcome()
    deadline = _now() + seconds
    calls_before = len(recorder.filter_t) + recorder.filter_errors
    fallbacks_before = recorder.fallbacks
    i = 0
    worst = math.inf
    while True:
        sc = prepared.inputs[i % len(prepared.inputs)]
        t0 = _now()
        try:
            log = harness.simulate(sc)
        except (NumericalError, ValidationError) as exc:
            log = None
            out.failures.append(f"{sc.label}: {type(exc).__name__}: {exc}")
        out.units.append((t0, _now()))
        out.wall_s += out.units[-1][1] - t0
        out.checks += 1
        if log is not None:
            out.steps += log.times.size
            worst = min(worst, log.min_constraint_value())
            problems = check_episode(log, prepared.boxes[_config_key(sc)])
            out.failures.extend(problems)
        i += 1
        if episodes is not None:
            if i >= episodes:
                break
        elif _now() >= deadline:
            break
    out.episodes = i
    out.ops = len(recorder.filter_t) + recorder.filter_errors - calls_before
    out.failures.extend("filter call fell back to the backup input"
                        for _ in range(recorder.fallbacks - fallbacks_before))
    out.facts["worst_constraint"] = worst
    return out


# ---------------------------------------------------------------------------
# Level sets.
# ---------------------------------------------------------------------------


def grid_pipeline(case: GridCase, out_dir: str):
    """``bcbf levelset --hj`` then ``bcbf compare`` on the two grids."""
    written = harness.run_levelset(case.scenario, case.geometry, case.slices,
                                   out_dir, include_hj=True)
    compared = harness.run_compare(written["backup_grid"], written["hj_grid"])
    return written, compared


def check_grid_case(case: GridCase, written: dict, compared: dict,
                    recorder: Recorder, facts: dict) -> tuple[int, list[str]]:
    """Level-set output checks; returns (checks made, problems)."""
    problems = []
    checks = 0
    for path in written.values():
        checks += 1
        grid = recorder.written.get(path)
        back = recorder.read.get(path) or read_grid(path)
        if grid is None or back.geometry != grid.geometry or \
                not np.array_equal(back.values, grid.values):
            problems.append(f"{case.label}: {os.path.basename(path)} does "
                            f"not read back bit-equal")
    backup = recorder.written[written["backup_grid"]]
    hj = recorder.written[written["hj_grid"]]
    members = backup.membership()
    checks += 1
    if compared["cell_counts"]["a"] != int(members.sum()):
        problems.append(f"{case.label}: compare counts disagree with the grid")
    checks += 1
    if case.label == "double_integrator":
        oracle = di_closed_form_h(case.geometry.nodes(), DI_PARAMS["c_limit_m"],
                                  DI_PARAMS["u_max_mps2"])
        agree = float(np.mean(members.ravel() == (oracle >= 0.0)))
        facts[f"{case.label}.sign_agreement"] = agree
        if agree != 1.0:
            problems.append(f"{case.label}: sweep agrees in sign with the "
                            f"closed form on {agree:.4%} of nodes, not all")
    else:
        outside = members & ~hjgrid.dilate_set(hj)
        violation = float(outside.sum() / max(int(members.sum()), 1))
        facts[f"{case.label}.containment_violation"] = violation
        if violation > MAX_VIOLATION:
            problems.append(f"{case.label}: {violation:.4f} of the backup set "
                            f"lies outside the dilated HJ set")
    return checks, problems


def run_grid_case(case: GridCase, out_dir: str, recorder: Recorder,
                  out: Outcome, pipeline=grid_pipeline) -> None:
    out.ops += 1
    t0 = _now()
    try:
        written, compared = pipeline(case, out_dir)
    except (NumericalError, ValidationError) as exc:
        out.failures.append(f"{case.label}: {type(exc).__name__}: {exc}")
        return
    out.units.append((t0, _now()))
    out.wall_s += out.units[-1][1] - t0
    out.case_t.setdefault(case.label, []).append(out.units[-1])
    out.facts.setdefault("csv_bytes", 0)
    out.facts["csv_bytes"] += sum(os.path.getsize(p) for p in written.values()
                                  if p.endswith(".csv"))
    checks, problems = check_grid_case(case, written, compared, recorder,
                                       out.facts)
    out.checks += checks
    out.failures.extend(problems)
    for path in written.values():
        os.remove(path)
    recorder.written.clear()
    recorder.read.clear()


def run_levelset(prepared: Prepared, seconds: float, recorder: Recorder,
                 out_dir: str, rounds: int | None = None,
                 pipeline=grid_pipeline) -> Outcome:
    """Run every grid case, round after round, until ``seconds`` have
    passed (or exactly ``rounds`` rounds)."""
    out = Outcome()
    deadline = _now() + seconds
    done = 0
    while True:
        for case in prepared.inputs:
            run_grid_case(case, out_dir, recorder, out, pipeline)
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif _now() >= deadline:
            break
    out.episodes = done
    return out
