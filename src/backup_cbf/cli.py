"""Command-line surface: simulate closed loops, sweep level sets, compare
grids, and time the filter phases along a scenario's closed loop.

Exit codes: 0 on success, 2 on validation/configuration errors (no grid
file is written), 3 on numerical failures.  ``--grid`` tokens are read by
the grid CSV header's axis parser; ``BCBF_THREADS`` caps sweep threads.
``levelset`` prints the map of written grid files as JSON; with ``--hj``
one more line follows, ``{"hj_solve": ...}``, the baseline's `SolveRecord`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .errors import NumericalError, ScenarioError, ValidationError
from .harness import load_scenario, run_compare, simulate, write_levelset
from .hjgrid import (HJ_MAX_STEPS, HJ_TOL, GridGeometry, axis_from_fields,
                     geometry_from_axes)


def _parse_grid_spec(spec: str) -> GridGeometry:
    """Grid spec: one 'lo:hi:count[:periodic]' token per axis, joined by
    commas, in state order.  Example: '-2.25:2.25:61,0:10:61,-1.25:1.25:61'.
    """
    axes = []
    for token in spec.split(","):
        try:
            axes.append(axis_from_fields(token.strip().split(":")))
        except ValueError as exc:
            raise ValidationError(f"bad grid axis token {token!r}; expected "
                                  "lo:hi:count[:periodic]") from exc
    return geometry_from_axes(axes)


def _parse_slices(tokens: list[str]) -> list[tuple[str, float]]:
    out = []
    for token in tokens:
        if "=" not in token:
            raise ValidationError(f"bad slice {token!r}; expected axis=value")
        name, _, value = token.partition("=")
        try:
            out.append((name.strip(), float(value)))
        except ValueError as exc:
            raise ValidationError(f"bad slice value in {token!r}") from exc
    return out


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    log = simulate(scenario)
    out_dir = args.out or scenario.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    log.to_csv(os.path.join(out_dir, "simlog.csv"))
    summary = log.summary()
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    with open(os.path.join(out_dir, "scenario.json"), "w") as fh:
        json.dump(scenario.to_json_dict(), fh, indent=2)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_levelset(args) -> int:
    scenario = load_scenario(args.scenario)
    geometry = _parse_grid_spec(args.grid)
    slices = _parse_slices(args.slice or [])
    out_dir = args.out or scenario.out_dir or "."
    written, solve = write_levelset(scenario, geometry, slices, out_dir,
                                    include_hj=args.hj, hj_tol=args.hj_tol,
                                    hj_max_steps=args.hj_max_steps)
    print(json.dumps(written, indent=2))
    if solve is not None:
        print(json.dumps({"hj_solve": dataclasses.asdict(solve)}))
    return 0


def _cmd_compare(args) -> int:
    metrics = run_compare(args.grid_a, args.grid_b, threshold=args.threshold,
                          out_path=args.out)
    print(json.dumps(metrics, indent=2))
    return 0


def _cmd_bench(args) -> int:
    scenario = load_scenario(args.scenario)
    if not scenario.filter_on:
        raise ScenarioError("bench times the filter; the scenario has "
                            "filter_on false")
    log = simulate(scenario)
    report = {"benchmark": scenario.benchmark, "label": scenario.label,
              "steps": int(log.times.size),
              "n_flow_steps": scenario.n_flow_steps, **log.timing_summary()}
    if report["qp"]["median_us"] <= report["integration"]["median_us"]:
        print("warning: QP share is not the larger part of the filter call",
              file=sys.stderr)
    print(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcbf",
        description="Backup-policy control barrier function toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a closed-loop scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("levelset", help="sweep barrier (and optional "
                                        "baseline) grids to CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--grid", required=True,
                   help="per-axis lo:hi:count[:periodic], comma separated")
    p.add_argument("--hj", action="store_true",
                   help="also solve the grid-based invariant-set baseline")
    p.add_argument("--hj-tol", type=float, default=HJ_TOL)
    p.add_argument("--hj-max-steps", type=int, default=HJ_MAX_STEPS)
    p.add_argument("--slice", action="append",
                   help="axis=value, may repeat")
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_levelset)

    p = sub.add_parser("compare", help="set metrics between two grid files")
    p.add_argument("grid_a")
    p.add_argument("grid_b")
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bench", help="median/p95 of the filter phases "
                                     "over the scenario's closed loop")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
