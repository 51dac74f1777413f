"""Command-line interface: plan one query, generate suites, benchmark, validate.

Exit codes for ``plan``: 0 solved, 1 failure, 2 unsolvable; ``plan`` also
prints the planner's counters, one ``key: value`` line each.  ``validate``
exits 0 for a valid path and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .ara_star import MotionPrimitiveSet, parse_primitives
from .bench import FAILURE, PLANNERS, aggregate, emit_csv, emit_table, plan, run_suite
from .core import Path as PlanPath
from .core import UNSOLVABLE, path_cost, query_from_scenario, validate_path
from .errors import ParseError, PlanbenchError, read_text
from .params import PlannerParams, load_params
from .robot import RobotModel
from .world import (OBJECTS_ONLY, PLUS_HEIGHT, PLUS_ROTATION, generate_variations,
                    load_scenario, serialize_scenario)

_FAMILIES = {"objects": OBJECTS_ONLY, "height": PLUS_HEIGHT, "rotation": PLUS_ROTATION}
_PLAN_EXIT_CODES = {FAILURE: 1, UNSOLVABLE: 2}  # solved exits 0


def _write_path_csv(path: Path, waypoints: np.ndarray) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"q{i}" for i in range(waypoints.shape[1])])
        for row in waypoints:
            writer.writerow([repr(float(v)) for v in row])


def _read_path_csv(path: Path, dof: int) -> np.ndarray:
    """Waypoints, one row of ``dof`` numbers each; a first row with a cell
    that is not a number is a header and is skipped."""
    reader = csv.reader(io.StringIO(read_text(path)))
    rows = [(reader.line_num, row) for row in reader if row]
    waypoints = []
    for k, (line, row) in enumerate(rows):
        try:
            values = np.array(row, dtype=float)
        except ValueError:
            if not k:
                continue
            values = None
        if values is None or values.shape != (dof,):
            raise ParseError(f"path file {path}: expected {dof} numbers, got {row}", line)
        waypoints.append(values)
    if not waypoints:
        raise PlanbenchError(f"path file {path} has no waypoints")
    return np.array(waypoints)


def _load_params_arg(value: str | None) -> PlannerParams:
    return load_params(value) if value else PlannerParams()


def _load_primitives_arg(value: str | None,
                         robot: RobotModel) -> MotionPrimitiveSet | None:
    if not value:
        return None
    return parse_primitives(read_text(value), robot)


def _cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    result = plan(scenario, args.planner, _load_params_arg(args.params), args.seed,
                  _load_primitives_arg(args.primitives, scenario.robot))

    print(f"scenario: {scenario.name}")
    print(f"planner: {args.planner}")
    print(f"status: {result.status} ({result.reason})" if result.status == UNSOLVABLE
          else f"status: {result.status}")
    print(f"planning_time_s: {result.planning_time:.6f}")
    if result.path is not None:
        print(f"path_cost: {path_cost(scenario.robot, result.path):.6f}")
        print(f"waypoints: {len(result.path)}")
        if args.path_out:
            _write_path_csv(Path(args.path_out), result.path.waypoints)
    for key, value in sorted(result.stats.items()):
        print(f"{key}: {value}")
    return _PLAN_EXIT_CODES.get(result.status, 0)


def _cmd_gen(args) -> int:
    base_path = Path(args.base)
    base = load_scenario(base_path)
    variations = generate_variations(base, _FAMILIES[args.family], args.count, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    robot_abs = (base_path.parent / base.robot_file).resolve()
    robot_file = _relative_or_absolute(robot_abs, out_dir)
    for scenario in variations:
        target = out_dir / f"{scenario.name}.scenario"
        target.write_text(serialize_scenario(replace(scenario, robot_file=robot_file)),
                          encoding="utf-8")
    print(f"wrote {len(variations)} scenarios to {out_dir}")
    return 0


def _relative_or_absolute(target: Path, start: Path) -> str:
    try:
        return os.path.relpath(target, start)
    except ValueError:  # different drive on some platforms
        return str(target)


def _suite_files(suite_dir: Path) -> list[Path]:
    generated = suite_dir / "generated"
    if generated.is_dir():
        return sorted(generated.glob("*.scenario"))
    return sorted(suite_dir.glob("*.scenario"))


def _cmd_bench(args) -> int:
    suite_dir = Path(args.suite)
    files = _suite_files(suite_dir)
    if not files:
        print(f"no *.scenario files under {suite_dir}", file=sys.stderr)
        return 1
    scenarios = [load_scenario(f) for f in files]
    params = _load_params_arg(args.params)
    planners = [p.strip() for p in args.planners.split(",") if p.strip()]
    if not planners:
        print(f"no planner named in --planners {args.planners!r}", file=sys.stderr)
        return 1
    for planner in planners:
        if planner not in PLANNERS:
            print(f"unknown planner {planner!r}", file=sys.stderr)
            return 1
        if planners.count(planner) > 1:
            print(f"planner {planner!r} listed twice in --planners", file=sys.stderr)
            return 1
    primitives = _load_primitives_arg(args.primitives, scenarios[0].robot)

    records = []
    for planner in planners:
        records.extend(run_suite(
            scenarios, planner, params, repetitions=args.reps,
            base_seed=args.seed, primitives=primitives, workers=args.workers))
    rows = aggregate(records, suite=suite_dir.name)
    Path(args.out).write_text(emit_csv(records), encoding="utf-8")
    print(f"wrote {len(records)} records to {args.out}")
    if args.table:
        print(emit_table(rows))
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    params = _load_params_arg(args.params)
    query = query_from_scenario(scenario, params.goal_tolerance_default)
    waypoints = _read_path_csv(Path(args.path), scenario.robot.dof)
    step = params.rrt_connect.edge_step if args.step is None else args.step
    ok = validate_path(scenario.robot, scenario.world, query, PlanPath(waypoints), step)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planbench",
        description="Motion-planning benchmark: RRT-Connect and ARA* over one substrate.")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="plan a single scenario")
    plan.add_argument("--scenario", required=True)
    plan.add_argument("--planner", required=True, choices=PLANNERS)
    plan.add_argument("--params", default=None)
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--primitives", default=None,
                      help="primitives file (ara-star only)")
    plan.add_argument("--path-out", default=None,
                      help="write the solution waypoints as CSV")
    plan.set_defaults(func=_cmd_plan)

    gen = sub.add_parser("gen", help="materialize scenario variations")
    gen.add_argument("--base", required=True)
    gen.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    gen.add_argument("--count", required=True, type=int)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    bench = sub.add_parser("bench", help="run planners over a scenario suite")
    bench.add_argument("--suite", required=True)
    bench.add_argument("--planners", required=True,
                       help="comma-separated planner ids")
    bench.add_argument("--params", default=None)
    bench.add_argument("--reps", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    bench.add_argument("--table", action="store_true")
    bench.add_argument("--primitives", default=None)
    bench.add_argument("--workers", type=int, default=1)
    bench.set_defaults(func=_cmd_bench)

    validate = sub.add_parser("validate", help="re-check a stored path")
    validate.add_argument("--scenario", required=True)
    validate.add_argument("--path", required=True)
    validate.add_argument("--step", type=float, default=None,
                          help="edge check step (default: the params' edge_step)")
    validate.add_argument("--params", default=None)
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PlanbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
