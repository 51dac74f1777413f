"""Benchmark harness: run planners over scenario suites and aggregate results.

Both planners run under identical conditions: same scenarios, budgets and
collision substrate.  RRT-Connect seeds are derived as ``base_seed +
scenario_index * repetitions + repetition``, reproducible regardless of
worker scheduling; ARA* takes no seed, so its records carry None.  A run's
planning time is the one the planner reports, measured by its own monotonic
clock from its first step to its result.

Records carry the status of the PlannerResult (solved-forward,
solved-backward, failure, unsolvable) plus an "error" status for per-record
harness failures such as scenario/robot dimension mismatches; errors never
abort the suite.  ``emit_csv`` writes the records one line each;
``aggregate`` reduces them to one row per planner, the five status counts
and the solved runs' median, geometric mean and max planning time, which
``emit_table`` prints.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ara_star import MotionPrimitiveSet, default_primitives, plan_ara_star
from .core import (FAILURE, SOLVED_BACKWARD, SOLVED_FORWARD, UNSOLVABLE, PlannerResult,
                   path_cost, query_from_scenario)
from .errors import ContractViolation, PlanbenchError, field_eq, integer
from .params import PlannerParams
from .rrt_connect import plan_rrt_connect
from .world import Scenario

RRT_CONNECT = "rrt-connect"
ARA_STAR = "ara-star"
PLANNERS = (RRT_CONNECT, ARA_STAR)

ERROR = "error"
STATUSES = (SOLVED_FORWARD, SOLVED_BACKWARD, FAILURE, UNSOLVABLE, ERROR)

CSV_HEADER = ("scenario", "planner", "seed", "status", "planning_time_s", "path_cost")


@dataclass(eq=False)
class RunRecord:
    """One (scenario, planner, repetition) outcome.

    ``stats``, ``error``, and ``path`` are in-memory only; the CSV schema
    carries exactly the fields named in CSV_HEADER.
    """

    scenario: str
    planner: str
    seed: int | None
    status: str
    planning_time: float
    path_cost: float | None = None
    stats: dict = field(default_factory=dict)
    error: str | None = None
    path: np.ndarray | None = None

    __eq__ = field_eq


@dataclass(frozen=True)
class SuiteAggregate:
    """The status counts (in STATUSES order) of one (suite, planner) group, and
    ``solved_s``: the median, geometric mean and max planning time of its
    solved runs in seconds, None when no run solved."""

    suite: str
    planner: str
    total: int
    success_forward: int
    success_backward: int
    failure: int
    unsolvable: int
    errors: int
    solved_s: tuple[float, float, float] | None


def plan(scenario: Scenario, planner: str, params: PlannerParams,
         seed: int | None = None,
         primitives: MotionPrimitiveSet | None = None) -> PlannerResult:
    """Plan one scenario with the planner named ``planner``.

    A ``seed`` replaces RRT-Connect's seed in ``params``; ARA* searches with
    ``primitives``, the robot's default primitives when None.
    """
    if seed is not None:
        params = params.with_seed(seed)
    query = query_from_scenario(scenario, params.goal_tolerance_default)
    robot, world = scenario.robot, scenario.world
    if planner == RRT_CONNECT:
        return plan_rrt_connect(robot, world, query, params.rrt_connect)
    if planner == ARA_STAR:
        return plan_ara_star(robot, world, query,
                             primitives or default_primitives(robot), params.ara_star)
    raise ContractViolation(f"unknown planner {planner!r}")


def run_one(scenario: Scenario, planner: str, params: PlannerParams, seed: int,
            primitives: MotionPrimitiveSet | None = None) -> RunRecord:
    """Execute a single query; harness failures become an error record."""
    seed = seed if planner == RRT_CONNECT else None
    try:
        result = plan(scenario, planner, params, seed, primitives)
    except PlanbenchError as exc:
        return RunRecord(scenario=scenario.name, planner=planner, seed=seed,
                         status=ERROR, planning_time=0.0, error=str(exc))
    cost = None
    path = None
    if result.path is not None:
        cost = path_cost(scenario.robot, result.path)
        path = result.path.waypoints
    return RunRecord(scenario=scenario.name, planner=planner, seed=seed,
                     status=result.status, planning_time=result.planning_time,
                     path_cost=cost, stats=dict(result.stats), path=path)


def run_suite(scenarios, planner: str, params: PlannerParams,
              repetitions: int = 1, base_seed: int = 0, *,
              primitives: MotionPrimitiveSet | None = None,
              workers: int = 1) -> list[RunRecord]:
    """Run every scenario ``repetitions`` times with one planner.

    Each worker owns one query end to end, and no more workers start than
    there are runs; the record order is always scenario-major,
    repetition-minor regardless of worker count.  An unknown
    ``planner`` gives one error record per run, as in ``run_one``.
    """
    repetitions = integer(repetitions, "repetitions", least=1)
    scenarios = list(scenarios)
    tasks = []
    for index, scenario in enumerate(scenarios):
        for rep in range(repetitions):
            seed = base_seed + index * repetitions + rep
            tasks.append((scenario, planner, params, seed, primitives))
    if workers <= 1 or len(tasks) <= 1:
        return [run_one(*task) for task in tasks]
    # A forked pool starts all its workers at the first submit.
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(run_one, *zip(*tasks)))


def aggregate(records, suite: str = "suite") -> tuple[SuiteAggregate, ...]:
    """One row per planner, in name order.  Unsolvable runs end in
    milliseconds, so the times summarize the solved runs only."""
    records = list(records)
    if not records:
        raise ContractViolation("aggregate requires at least one record")
    rows = []
    for planner in sorted({r.planner for r in records}):
        group = [r for r in records if r.planner == planner]
        counts = [sum(1 for r in group if r.status == status) for status in STATUSES]
        times = [r.planning_time for r in group
                 if r.status in (SOLVED_FORWARD, SOLVED_BACKWARD)]
        solved_s = (statistics.median(times),
                    math.exp(statistics.fmean(math.log(max(t, 1e-12)) for t in times)),
                    max(times)) if times else None
        rows.append(SuiteAggregate(suite, planner, len(group), *counts, solved_s))
    return tuple(rows)


def emit_csv(records) -> str:
    """Per-run CSV in raw seconds, one line per record, under the pinned
    header ``scenario,planner,seed,status,planning_time_s,path_cost``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([r.scenario, r.planner, r.seed, r.status,
                         repr(float(r.planning_time)),
                         "" if r.path_cost is None else repr(float(r.path_cost))])
    return out.getvalue()


def _aligned(header, cells) -> list[str]:
    widths = [max(len(h), len(c)) for h, c in zip(header, cells)]
    return ["  ".join(x.ljust(w) for x, w in zip(line, widths)) for line in (header, cells)]


def emit_table(rows) -> str:
    """Render ``aggregate`` rows, one block per planner: a header and row of
    [suite, success_forward, success_backward, failure, unsolvable], where
    RRT-Connect renders "-" as its bidirectionality is internal, then one of
    [total, errors, solved_median_s, solved_geomean_s, solved_max_s], whose
    times are "-" when no run solved."""
    lines = []
    for row in rows:
        backward = "-" if row.planner == RRT_CONNECT else str(row.success_backward)
        times = ["-"] * 3 if row.solved_s is None else [f"{t:.6f}" for t in row.solved_s]
        lines.append(f"planner: {row.planner}")
        lines += _aligned(("suite", "success_forward", "success_backward", "failure",
                           "unsolvable"),
                          (row.suite, str(row.success_forward), backward,
                           str(row.failure), str(row.unsolvable)))
        lines += [line.rstrip() for line in _aligned(
            ("total", "errors", "solved_median_s", "solved_geomean_s", "solved_max_s"),
            (str(row.total), str(row.errors), *times))]
        lines.append("")
    return "\n".join(lines)
