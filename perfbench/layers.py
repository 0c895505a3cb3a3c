"""Tracing hooks for the traced run and the per-layer metrics built from
its spans.

Spans are recorded by replacing, for the traced run only, the names
through which one module of ``backup_cbf`` calls the next (for example
``barrier.integrate_flow`` or ``harness.solve_invariant``).  Model and
policy callables are wrapped where `Scenario.build` makes the triple, and
count as ``systems`` leaf work.  Nothing inside the package changes.

A layer that the workload's own path never reaches is measured by a small
seeded probe in the same traced run, so every layer metric is a real
measurement on every workload: the closed loops probe the grid layers on a
21-point-per-axis grid of their own benchmark, and ``levelset`` probes the
filter layers with a short double-integrator closed loop.  Probe spans do
not count towards the workload's per-operation figures.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from backup_cbf import barrier, harness, hjgrid, qp

from spans import Tracer

_now = time.perf_counter

FLOW = ("flow.integrate_flow", "flow.integrate_flow_batch")
EVAL_H = ("barrier.eval_h", "barrier.eval_h_batch")
PASS_PROBE_STEPS = 10

# name -> unit, in the order of the report and of BENCHMARK.json.
LAYER_METRICS = {
    "systems.evals_per_call": "count",
    "systems.ms_per_call": "ms",
    "flow.integrate_ms": "ms",
    "flow.share_of_call": "frac",
    "flow.batch_us_per_node": "us",
    "barrier.eval_h_self_ms": "ms",
    "barrier.build_constraints_ms": "ms",
    "barrier.filter_self_ms": "ms",
    "barrier.rows_per_call": "count",
    "barrier.active_row_ratio": "frac",
    "qp.problem_ms": "ms",
    "qp.solve_ms_p50": "ms",
    "qp.solve_ms_p95": "ms",
    "qp.iterations": "count",
    "qp.status_optimal": "count",
    "qp.status_infeasible": "count",
    "qp.status_max_iter": "count",
    "hjgrid.pass_ms": "ms",
    "hjgrid.passes_derived": "count",
    "hjgrid.solve_s": "s",
    "hjgrid.sweep_s": "s",
    "hjgrid.write_csv_s": "s",
    "hjgrid.write_json_s": "s",
    "hjgrid.read_s": "s",
    "hjgrid.csv_bytes": "bytes",
    "harness.simulate_self_ms_per_step": "ms",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
}


def tracing_replacements(tracer: Tracer) -> list:
    """``(owner, attribute, traced callable)`` for every module boundary."""
    wrap = tracer.wrap
    original_make = harness.make_benchmark

    def make_benchmark(name, params=None):
        model, policy, spec = original_make(name, params)
        leaf = tracer.leaf
        model = dataclasses.replace(
            model, f_eval=leaf(model.f_eval), g_eval=leaf(model.g_eval),
            df_dx=leaf(model.df_dx),
            dg_dx=None if model.dg_dx is None else leaf(model.dg_dx))
        policy = dataclasses.replace(policy, pi_eval=leaf(policy.pi_eval),
                                     dpi_dx=leaf(policy.dpi_dx))
        return model, policy, spec

    def rows(args, kwargs, problem):
        return len(problem.rows)

    def solved(args, kwargs, solution):
        kept = sum(1 for kind, _ in solution.active_set if kind == "row")
        return solution.status, solution.iterations, kept

    def batch_size(args, kwargs, result):
        return len(args[2] if len(args) > 2 else kwargs["x0s"])

    def steps(args, kwargs, log):
        return log.times.size

    return [
        (harness, "make_benchmark", make_benchmark),
        (harness, "simulate", wrap("harness.simulate", harness.simulate,
                                   steps)),
        (harness, "run_levelset", wrap("harness.run_levelset",
                                       harness.run_levelset)),
        (harness, "run_compare", wrap("harness.run_compare",
                                      harness.run_compare)),
        (harness, "filter_control", wrap("barrier.filter_control",
                                         harness.filter_control)),
        (barrier, "eval_h", wrap("barrier.eval_h", barrier.eval_h)),
        (barrier, "integrate_flow", wrap("flow.integrate_flow",
                                         barrier.integrate_flow)),
        (barrier, "build_constraints", wrap("barrier.build_constraints",
                                            barrier.build_constraints)),
        (barrier, "QpProblem", wrap("qp.QpProblem", barrier.QpProblem, rows)),
        (qp.QpSolver, "solve", wrap("qp.QpSolver.solve", qp.QpSolver.solve,
                                    solved)),
        (harness, "sweep_backup_h", wrap("hjgrid.sweep_backup_h",
                                         harness.sweep_backup_h)),
        (hjgrid, "eval_h_batch", wrap("barrier.eval_h_batch",
                                      hjgrid.eval_h_batch)),
        (barrier, "integrate_flow_batch",
         wrap("flow.integrate_flow_batch", barrier.integrate_flow_batch,
              batch_size)),
        (harness, "constraint_grid", wrap("hjgrid.constraint_grid",
                                          harness.constraint_grid)),
        (harness, "solve_invariant", wrap("hjgrid.solve_invariant",
                                          harness.solve_invariant)),
        (harness, "write_grid_csv", wrap("hjgrid.write_grid_csv",
                                         harness.write_grid_csv)),
        (harness, "write_grid_json", wrap("hjgrid.write_grid_json",
                                          harness.write_grid_json)),
        (harness, "read_grid", wrap("hjgrid.read_grid", harness.read_grid)),
        (harness, "compare_sets", wrap("hjgrid.compare_sets",
                                       harness.compare_sets)),
    ]


def pass_ms(cases) -> float:
    """One value-iteration pass over every grid, timed from outside as
    ``solve_invariant(tol=0, max_steps=P)`` divided by P."""
    total = 0.0
    for case in cases:
        model, _, spec = case.scenario.build()
        grid0 = hjgrid.constraint_grid(case.geometry, spec)
        t0 = _now()
        hjgrid.solve_invariant(grid0, model, tol=0.0,
                               max_steps=PASS_PROBE_STEPS)
        total += (_now() - t0) / PASS_PROBE_STEPS
    return total * 1e3


def layer_metrics(tracer: Tracer, grid_rounds: int, csv_bytes: int,
                  pass_ms_value: float, overhead_frac: float) -> dict:
    """Per-layer figures from the recorded spans.

    Per-operation figures (``systems.*``, ``flow.integrate_ms``,
    ``flow.share_of_call``, ``barrier.eval_h_self_ms``) use the workload's
    operations only: filter calls in a closed loop, grid pipelines in
    ``levelset``.  Filter-layer and grid-layer figures use every span of
    their layer, the probe's included; grid totals are per round of grids.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def dur(names, in_ops=False) -> float:
        return sum(spans[i].duration for n in names for i in by_name.get(n, ())
                   if not in_ops or spans[i].op >= 0)

    def own(names, in_ops=False) -> float:
        return sum(selfs[i] for n in names for i in by_name.get(n, ())
                   if not in_ops or spans[i].op >= 0)

    ops = [i for i, s in enumerate(spans) if s.op == i]
    n_ops = max(len(ops), 1)
    op_time = sum(spans[i].duration for i in ops)
    in_op = [s for s in spans if s.op >= 0]

    filters = by_name.get("barrier.filter_control", [])
    n_filters = max(len(filters), 1)
    problems = [spans[i].info for i in by_name.get("qp.QpProblem", [])]
    solves = [spans[i] for i in by_name.get("qp.QpSolver.solve", [])]
    solve_ms = np.array([s.duration * 1e3 for s in solves]) if solves \
        else np.zeros(1)
    statuses = [s.info[0] for s in solves]
    batch_nodes = sum(spans[i].info
                      for i in by_name.get("flow.integrate_flow_batch", []))
    simulated_steps = sum(spans[i].info
                          for i in by_name.get("harness.simulate", []))
    rounds = max(grid_rounds, 1)
    solve_s = dur(["hjgrid.solve_invariant"]) / rounds

    return {
        "systems.evals_per_call": sum(s.leaf_n for s in in_op) / n_ops,
        "systems.ms_per_call": sum(s.leaf_s for s in in_op) * 1e3 / n_ops,
        "flow.integrate_ms": dur(FLOW, True) * 1e3 / n_ops,
        "flow.share_of_call": dur(FLOW, True) / op_time if op_time else 0.0,
        "flow.batch_us_per_node": (dur(["flow.integrate_flow_batch"]) * 1e6
                                   / max(batch_nodes, 1)),
        "barrier.eval_h_self_ms": own(EVAL_H, True) * 1e3 / n_ops,
        "barrier.build_constraints_ms": (dur(["barrier.build_constraints"])
                                         * 1e3 / n_filters),
        "barrier.filter_self_ms": (own(["barrier.filter_control"]) * 1e3
                                   / n_filters),
        "barrier.rows_per_call": sum(problems) / max(len(problems), 1),
        "barrier.active_row_ratio": (sum(s.info[2] for s in solves)
                                     / max(sum(problems), 1)),
        "qp.problem_ms": dur(["qp.QpProblem"]) * 1e3 / max(len(problems), 1),
        "qp.solve_ms_p50": float(np.percentile(solve_ms, 50)),
        "qp.solve_ms_p95": float(np.percentile(solve_ms, 95)),
        "qp.iterations": (sum(s.info[1] for s in solves)
                          / max(len(solves), 1)),
        "qp.status_optimal": statuses.count("optimal"),
        "qp.status_infeasible": statuses.count("infeasible"),
        "qp.status_max_iter": statuses.count("max_iter"),
        "hjgrid.pass_ms": pass_ms_value,
        "hjgrid.passes_derived": solve_s / (pass_ms_value / 1e3),
        "hjgrid.solve_s": solve_s,
        "hjgrid.sweep_s": dur(["hjgrid.sweep_backup_h"]) / rounds,
        "hjgrid.write_csv_s": dur(["hjgrid.write_grid_csv"]) / rounds,
        "hjgrid.write_json_s": dur(["hjgrid.write_grid_json"]) / rounds,
        "hjgrid.read_s": dur(["hjgrid.read_grid"]) / rounds,
        "hjgrid.csv_bytes": csv_bytes / rounds,
        "harness.simulate_self_ms_per_step": (own(["harness.simulate"]) * 1e3
                                              / max(simulated_steps, 1)),
        "trace.overhead_frac": overhead_frac,
        "trace.spans": len(spans),
    }
