"""Benchmark of the backup-CBF toolkit, run from the repository root:

    python3 perfbench/run.py --workload lane_keep --seed 1 --seconds 10 --trace 0

It imports ``backup_cbf`` from ``./src`` only, calls nothing but the
package's public API, and runs in one process on one thread
(``BCBF_THREADS`` and the BLAS thread counts are pinned to 1).  Without
``./src/backup_cbf`` it exits with code 2 and prints no result.

Workloads (inputs come from ``--seed`` alone; a digest of them is printed):

``lane_keep``
    Dubins closed loops, both gain profiles, demo start ``(0, 5, 0)`` plus
    seeded jitter, nominal steering a seeded +-0.5, through
    ``harness.simulate``.  405 rows, m = 2, the filter is active on almost
    every step: the workload where the QP and row assembly weigh most.
``collision_avoid``
    Aeroplane head-on closed loops jittered from ``(4, 0.3, pi)``, N = 200
    flow steps.  The flow is ~93 % of each call and the QP is mostly idle:
    a QP or row change should not move it, a flow change should move it
    most.
``levelset``
    ``harness.run_levelset`` with the HJ baseline, then
    ``harness.run_compare``, on double integrator 101^2, aeroplane 31^3
    (periodic heading) and Dubins conservative 45^3.  Batch flow without
    sensitivity, value iteration and grid files; no QP.  Guards against
    merging the scalar and batch flow paths at the closed loops' expense.

Every run builds and warms up its inputs before timing, nine times over;
``setup_s`` is the median of the nine.  The closed loops are closed loops
with one client: each filter call follows the previous plant step.  A run
simulates whole two-second episodes until ``--seconds`` have passed;
``levelset`` runs whole rounds of its three grids.

End-to-end metrics (``--trace 0``), one name per quantity a user sees,
whose meaning depends on the workload's operation:

==============  ======================================  ====================
metric          closed loops                            levelset
==============  ======================================  ====================
setup_s         set-up and warm-up, median of 9         same
op_p50_ms       filter_control call, median             median of the three
                (reported as filter_call_p50_ms)        grids' pipeline times
op_p95_ms       filter_control call, 95th percentile    95th percentile of
                (>= 200 calls, >= 10 beyond it)         the same three
items_per_s     simulated plant steps per second        swept grid nodes per
                (sim_steps_per_s)                       second
                                                        (sweep_nodes_per_s)
peak_rss_mb     peak resident set size of the process  same
==============  ======================================  ====================

Every run reports every metric, so each name covers the workload's own
operation.

Timings are in *reference seconds* (see ``refclock.py``).  On a 2-vCPU VM
on a shared host, per-second medians of one fixed aeroplane filter call
swung between 20 and 37 ms, CPU time as much as wall time, and ten-seed
quartile spreads of wall-clock metrics reached 0.27 of the median.  So a
fixed reference kernel that uses no part of ``backup_cbf`` is run between
filter calls (closed loops, after every call) or between grid stages and
model evaluations (``levelset``, at most every 0.1 s), and each timed
interval is scaled by the kernel's nominal over its local duration, with
the kernel's own time left out.  A slower program still reads slower; a
slower host does not.  The ``report`` line gives the same figures in wall
seconds (``*_wall``, less the kernel's time) and the host's speed factor.
The timing bounds in BENCHMARK.json are the widest allowed, 0.25.

Each filter call and each grid pipeline is timed from outside, by a
wrapper around the name ``harness`` calls it through.  Failed operations
(a raised error, an ``infeasible_fallback``, a failed output check) are
counted in ``failed`` against ``attempted``; their ratio is
``failed_ops_frac``.  The lines before the final JSON print, under the
names the project's ROADMAP uses, ``filter_call_p50_ms``,
``filter_call_p95_ms``, ``sim_steps_per_s``, ``levelset_s``,
``sweep_nodes_per_s``, ``hj_solve_s``, ``peak_rss_mb``,
``failed_ops_frac`` and ``setup_s``, ``null`` where one does not apply,
together with the machine facts and the input digest.  The traced run's
per-layer times are plain wall-clock times.

Output checks (any failure makes the run exit 1):

- closed loops: worst constraint value >= -1e-3, every applied input in
  the box, no fallback;
- ``levelset``: the double-integrator sweep agrees in sign with
  ``di_closed_form_h`` at every node; for aeroplane and Dubins at most 1 %
  of the backup set lies outside the HJ set dilated by one cell (at the CLI
  default ``hj_tol`` = 1e-3); every written grid file reads back bit-equal.

Per-layer metrics (``--trace 1``) come from a separate traced run that
records spans around the calls between modules (see ``layers.py``).  It
runs each episode or grid case traced and untraced, back to back in
alternating order; ``trace.overhead_frac`` is the relative difference of
the two totals.  Which end-to-end metric each layer metric should move:

- ``systems.evals_per_call``, ``systems.ms_per_call`` -> ``op_*`` on both
  closed loops, ``items_per_s`` on ``levelset``;
- ``flow.integrate_ms``, ``flow.share_of_call`` -> ``op_*``, most on
  ``collision_avoid``;
- ``flow.batch_us_per_node`` -> ``items_per_s`` and ``op_*`` on
  ``levelset``;
- ``barrier.*`` and ``qp.*`` -> ``op_*`` on ``lane_keep``; near zero effect
  on ``collision_avoid``;
- ``hjgrid.*`` -> ``op_*`` on ``levelset``.  ``hjgrid.pass_ms`` is one
  value-iteration pass over every grid, measured as
  ``solve_invariant(tol=0, max_steps=P)`` / P; ``hjgrid.passes_derived``
  is ``hjgrid.solve_s`` / ``hjgrid.pass_ms``, derived, not counted;
- ``harness.simulate_self_ms_per_step`` -> ``items_per_s`` on the closed
  loops only.

Spans are written to ``.perfbench_out/spans-<workload>-<seed>.csv``; grid
files go to a scratch directory under ``.perfbench_out`` and are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time

THREADS = {"BCBF_THREADS": "1", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# BLAS reads its thread count when numpy is first imported.
os.environ.update(THREADS)

import numpy as np  # noqa: E402

from refclock import RefClock  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 9
WORKLOADS = ("lane_keep", "collision_avoid", "levelset")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(tag: str, doc: dict) -> None:
    print(f"{tag} {json.dumps(doc)}", flush=True)


def _setup(wl, workload: str, seed: int, clock):
    """Prepare the inputs ``SETUP_REPEATS`` times, sampling the reference
    clock around each; returns the (start, end) of every repeat."""
    spans = []
    for _ in range(SETUP_REPEATS):
        clock.tick(force=True)
        t0 = time.perf_counter()
        prepared = wl.prepare(workload, seed)
        spans.append((t0, time.perf_counter()))
    clock.tick(force=True)
    return prepared, spans


def _percentile_ms(samples, q) -> float:
    return float(np.percentile(samples, q)) * 1e3


def _pairs(intervals):
    starts, ends = zip(*intervals) if intervals else ((), ())
    return np.array(starts), np.array(ends)


def untraced_run(args, prepared, setup_spans, clock, grid_dir):
    """The timed run.  Every interval is converted to reference seconds
    (the metrics) and to wall seconds less the clock's own samples (the
    ``*_wall`` figures of the report)."""
    import workloads as wl
    from spans import patched

    recorder = wl.Recorder(clock)
    closed = prepared.workload in wl.CLOSED_LOOPS
    hooks = [] if closed else wl.clock_replacements(clock)
    clock.tick(force=True)
    with patched(hooks), patched(recorder.replacements()):
        if closed:
            out = wl.run_closed_loop(prepared, args.seconds, recorder)
        else:
            out = wl.run_levelset(prepared, args.seconds, recorder, grid_dir)
    clock.tick(force=True)

    def ref(intervals):
        return clock.to_ref(*_pairs(intervals))

    def wall(intervals):
        return clock.to_ref(*_pairs(intervals), scaled=False)

    setup_s = float(np.median(ref(setup_spans)))
    report = dict.fromkeys(
        ["filter_call_p50_ms", "filter_call_p95_ms", "filter_calls",
         "sim_steps_per_s", "levelset_s", "sweep_nodes_per_s", "hj_solve_s"])
    if closed:
        calls, calls_wall = ref(recorder.filter_t), wall(recorder.filter_t)
        p50, p95 = _percentile_ms(calls, 50), _percentile_ms(calls, 95)
        rate = out.steps / ref(out.units).sum()
        report.update(filter_call_p50_ms=p50, filter_call_p95_ms=p95,
                      filter_calls=len(calls), sim_steps_per_s=rate,
                      filter_call_p50_ms_wall=_percentile_ms(calls_wall, 50),
                      filter_call_p95_ms_wall=_percentile_ms(calls_wall, 95),
                      sim_steps_per_s_wall=out.steps
                      / wall(out.units).sum())
    else:
        # Each grid's pipeline time is reduced to its median first, so the
        # sample set is the same three operations however many rounds ran.
        per_case = {k: float(np.median(ref(v))) for k, v in out.case_t.items()}
        p50 = _percentile_ms(list(per_case.values()), 50)
        p95 = _percentile_ms(list(per_case.values()), 95)
        rate = recorder.sweep_nodes / ref(recorder.sweep_t).sum()
        report.update(
            levelset_s=sum(per_case.values()), sweep_nodes_per_s=rate,
            hj_solve_s=ref(recorder.hj_t).sum() / out.episodes,
            grid_pipeline_s=per_case,
            levelset_s_wall=sum(float(np.median(wall(v)))
                                for v in out.case_t.values()),
            sweep_nodes_per_s_wall=recorder.sweep_nodes
            / wall(recorder.sweep_t).sum())
    attempted = out.ops + out.checks
    peak = _peak_rss_mb()
    report.update(peak_rss_mb=peak,
                  failed_ops_frac=len(out.failures) / attempted,
                  setup_s=setup_s,
                  setup_s_wall=float(np.median(wall(setup_spans))),
                  episodes_or_rounds=out.episodes,
                  ref_clock={"kernel": clock.kernel_name,
                             "samples": len(clock.samples),
                             "speed_factor": clock.factor(),
                             "nominal_kernel_s": clock.nominal_s})
    report.update(out.facts)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (p50, "ms"),
        "op_p95_ms": (p95, "ms"),
        "items_per_s": (rate, "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return out.failures, attempted, metrics, report


def traced_run(args, prepared, grid_dir):
    import workloads as wl
    from layers import LAYER_METRICS, layer_metrics, pass_ms, \
        tracing_replacements
    from spans import Tracer, check_spans, patched

    closed = prepared.workload in wl.CLOSED_LOOPS
    tracer = Tracer()
    tracer.op_name = "barrier.filter_control" if closed else "levelset.grid"
    recorder = wl.Recorder()
    tracing = tracing_replacements(tracer)
    grid_op = tracer.wrap("levelset.grid", wl.grid_pipeline)

    def run_unit(unit, traced: bool):
        """One episode or grid case, traced or not, timed from outside."""
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(patched(tracing))
            stack.enter_context(patched(recorder.replacements()))
            single = wl.Prepared(prepared.workload, [unit], prepared.boxes)
            if closed:
                return wl.run_closed_loop(single, 0.0, recorder, episodes=1)
            return wl.run_levelset(single, 0.0, recorder, grid_dir, rounds=1,
                                   pipeline=grid_op if traced
                                   else wl.grid_pipeline)

    # Each unit runs traced and untraced back to back, in alternating order,
    # so that the overhead estimate compares the two under the same load.
    traced, plain = [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        tracer.episode = i
        unit = prepared.inputs[i % len(prepared.inputs)]
        if i % 2:
            plain.append(run_unit(unit, False))
        traced.append(run_unit(unit, True))
        if not i % 2:
            plain.append(run_unit(unit, False))
        i += 1
        whole_round = closed or i % len(prepared.inputs) == 0
        if whole_round and time.perf_counter() >= deadline:
            break

    # Layers the workload does not reach are measured by a probe, prepared
    # (and warmed up) before tracing starts.
    if closed:
        probe = wl.prepare_levelset("probe", wl.grid_probe_inputs())
    else:
        probe = wl.prepare_closed_loop("probe", wl.di_probe_inputs(args.seed))
    with patched(tracing), patched(recorder.replacements()), tracer.probe():
        tracer.episode = -1
        if closed:
            probe_out = wl.run_levelset(probe, 0.0, recorder, grid_dir,
                                        rounds=1, pipeline=grid_op)
            grid_units, grid_rounds = [probe_out], 1
        else:
            probe_out = wl.run_closed_loop(probe, 0.0, recorder, episodes=1)
            grid_units, grid_rounds = traced, i // len(prepared.inputs)
    grid_cases = probe.inputs if closed else prepared.inputs
    outcomes = traced + plain + [probe_out]
    overhead = (sum(o.wall_s for o in traced) / sum(o.wall_s for o in plain)
                - 1.0)

    problems = check_spans(tracer)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR,
                              f"spans-{args.workload}-{args.seed}.csv")
    tracer.write_csv(spans_path)

    csv_bytes = sum(o.facts.get("csv_bytes", 0) for o in grid_units)
    values = layer_metrics(tracer, grid_rounds, csv_bytes, pass_ms(grid_cases),
                           overhead)
    metrics = {name: (values[name], unit)
               for name, unit in LAYER_METRICS.items()}
    attempted = sum(o.ops + o.checks for o in outcomes) + 1  # + span check
    failures = [f for o in outcomes for f in o.failures]
    failures += [f"span self-check: {p}" for p in problems[:20]]
    report = {"spans": len(tracer.spans), "spans_file": spans_path,
              "span_self_check": "ok" if not problems else
              f"{len(problems)} problems",
              "orphan_leaf_calls": tracer.orphan_n,
              "units": i, "traced_wall_s": sum(o.wall_s for o in traced),
              "untraced_wall_s": sum(o.wall_s for o in plain),
              "tracing_overhead_frac": overhead}
    return failures, attempted, metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "backup_cbf", "__init__.py")):
        print("error: ./src/backup_cbf not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import backup_cbf
    import_s = time.perf_counter() - t0
    if not os.path.abspath(backup_cbf.__file__).startswith(src + os.sep):
        print(f"error: backup_cbf was imported from {backup_cbf.__file__}, "
              "not ./src", file=sys.stderr)
        return 2
    import workloads as wl

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else None
    _emit("facts", {"nproc": os.cpu_count(), "cpus_usable": affinity,
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "machine": platform.machine(), "threads": THREADS,
                    "import_s": import_s})

    # The closed loops sample the clock after every filter call; the grid
    # sweeps call the model thousands of times, so there at most every 0.1 s.
    clock = RefClock("scalar", 0.0) if args.workload in wl.CLOSED_LOOPS \
        else RefClock("grid", 0.1)
    prepared, setup_spans = _setup(wl, args.workload, args.seed, clock)
    _emit("inputs", {"workload": args.workload, "seed": args.seed,
                     "count": len(prepared.inputs),
                     "sha256": wl.digest(prepared.inputs)})

    grid_dir = os.path.join(OUT_DIR, f"grids-{os.getpid()}")
    os.makedirs(grid_dir, exist_ok=True)
    try:
        if args.trace:
            failures, attempted, metrics, report = traced_run(args, prepared,
                                                              grid_dir)
        else:
            failures, attempted, metrics, report = untraced_run(
                args, prepared, setup_spans, clock, grid_dir)
    finally:
        shutil.rmtree(grid_dir, ignore_errors=True)

    _emit("report", report)
    for line in failures[:20]:
        print(f"FAILED {line}", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    result = {"correct": not failures, "attempted": int(attempted),
              "failed": len(failures),
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
