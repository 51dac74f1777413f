"""planbench benchmark: shelf planning and fine path validation, end to end
and layer by layer.

    python3 benchmark/run.py --workload ara-shelf --seed 1 --seconds 30 --trace 0

Each workload is a closed loop in one process: one client, ``workers=1``,
and every query starts only after the previous one has finished.  The run
repeats the workload's fixed query list (a *pass*) while another pass is
expected to end within ``--seconds``, at least once.  ``--seed`` sets the
order in which a pass visits the queries and the kernel probe's samples; the
queries themselves come from ``--suite-seed`` (the 30-scene
``objects_only`` shelf suite of the baseline by default), because a suite
drawn afresh per run varies more in difficulty than any regression bound
allows (see README.md).

The host's speed drifts by more than any regression bound over minutes, so
a unit of fixed reference work (reference.py) runs before every query, after
the last one and every READ_EVERY_S inside the pass, and every reported time
is scaled to the reference speed by the readings taken around and during it.  The raw wall times are in the provenance line.

Every query gets a time budget far above the slowest one, so statuses,
counters and paths never depend on the clock.  Every output is checked:
solved paths are re-validated at the planner's own edge step, validation
verdicts are compared with the stored ones, and every pass, the traced pass
and every earlier run of the same suite must reproduce the same outcomes.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run makes one untraced pass, one
traced pass and a kernel probe, and reports the per-layer metrics.  The exit
code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PATH_SET = BENCH_DIR / "paths_fine.json"

if not (ROOT / "src" / "planbench").is_dir():
    sys.exit(f"benchmark: no planbench sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from planbench import (ara_star, bench, collision, core, params, robot,  # noqa: E402
                       rrt_connect, world)
from planbench.data import data_path  # noqa: E402

from reference import Reference, Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

ARA_SHELF = "ara-shelf"
RRT_SHELF = "rrt-shelf"
VALIDATE_FINE = "validate-fine"
WORKLOADS = (ARA_SHELF, RRT_SHELF, VALIDATE_FINE)

DEFAULT_SUITE_SEED = 424242  # the ROADMAP baseline and test_c08
HELD_OUT_SUITE_SEED = 20240613  # for confirming a claim on unseen scenes
SUITE_SIZE = 30
PLANNER_BASE_SEED = 0  # query i plans with seed base + i, as run_suite does
# The slowest query of the default suite takes about 4 s; with this budget no
# deadline is ever reached, so no outcome depends on the machine's speed.
BUDGET_S = 120.0
FINE_STEP = 0.005  # edge_step / 10, the ROADMAP's valid_fine
SETUP_REPEATS = 11
# A unit of reference work runs before every query, after the last one and
# every READ_EVERY_S inside the passes: (configs per batch, batches per unit,
# the unit's time at the reference speed).  Batches of 150 tracked both
# planners' speed best; validate-fine's are sized like its free_mask calls
# and its unit is short, like its queries.
# Timings are reported scaled to the reference speed (see reference.py).
REFERENCE = {ARA_SHELF: (150, 2, 0.0064), RRT_SHELF: (150, 2, 0.0064),
             VALIDATE_FINE: (49, 2, 0.0043)}
READ_EVERY_S = 0.2
PROBE_BATCHES = {"m1": (1, 2000), "m11": (11, 1000), "m150": (150, 200)}  # m, calls
TAIL_ABOVE = 10  # the tail percentile leaves this many queries above it

PLANNER_OF = {ARA_SHELF: bench.ARA_STAR, RRT_SHELF: bench.RRT_CONNECT}
SOLVED = (bench.SOLVED_FORWARD, bench.SOLVED_BACKWARD)


class CheckFailed(Exception):
    """Outcomes that must repeat exactly did not."""


@dataclass(frozen=True)
class Op:
    """One query of a workload: a planning query or a path to certify."""

    index: int
    scenario: world.Scenario
    query: core.Query
    seed: int = 0
    path: core.Path | None = None
    expected_valid: bool | None = None
    expected_cost: float | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    params: params.PlannerParams
    primitives: ara_star.MotionPrimitiveSet
    path_set_sha256: str | None = None

    def run(self, op: Op):
        """Execute one query through the public API and return its outcome."""
        if self.name == VALIDATE_FINE:
            rob, wld = op.scenario.robot, op.scenario.world
            valid = (core.validate_query(rob, wld, op.query) == core.OK
                     and core.validate_path(rob, wld, op.query, op.path, FINE_STEP))
            return valid, core.path_cost(rob, op.path)
        return bench.run_one(op.scenario, PLANNER_OF[self.name], self.params,
                             op.seed, self.primitives)


# --------------------------------------------------------------------- set-up

def set_up(name: str, suite_seed: int) -> Workload:
    """The workload's queries on the shelf suite, every budget set to BUDGET_S."""
    base = world.load_scenario(data_path("scenarios", "shelf_reach.yaml"))
    scenes = [replace(s, time_budget=BUDGET_S) for s in world.generate_variations(
        base, world.OBJECTS_ONLY, SUITE_SIZE, suite_seed)]
    tuned = params.load_params(data_path("params", "shelf_tuned.yaml"))
    primitives = ara_star.default_primitives(base.robot)
    queries = [core.query_from_scenario(s, tuned.goal_tolerance_default) for s in scenes]
    if name != VALIDATE_FINE:
        ops = [Op(i, s, q, seed=PLANNER_BASE_SEED + i)
               for i, (s, q) in enumerate(zip(scenes, queries))]
        return Workload(name, ops, tuned, primitives)
    raw = PATH_SET.read_bytes()
    doc = json.loads(raw)
    if doc["suite_seed"] != suite_seed or doc["step"] != FINE_STEP:
        raise SystemExit(f"benchmark: {PATH_SET.name} holds suite seed "
                         f"{doc['suite_seed']} at step {doc['step']}; regenerate "
                         "it with make_paths.py for another suite")
    ops = [Op(i, scenes[p["scene"]], queries[p["scene"]],
              path=core.Path(np.array(p["waypoints"], dtype=float)),
              expected_valid=p["valid"], expected_cost=p["cost"])
           for i, p in enumerate(doc["paths"])]
    return Workload(name, ops, tuned, primitives, hashlib.sha256(raw).hexdigest())


def timed_set_up(name: str, suite_seed: int,
                 reference: Reference) -> tuple[Workload, float]:
    """Set up SETUP_REPEATS times; return the last workload and the median
    time, each set-up scaled by the reference readings on either side."""
    times = []
    before = reference.reading()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = set_up(name, suite_seed)
        elapsed = time.perf_counter() - t0
        after = reference.reading()
        times.append(reference.scale(elapsed, [before, after]))
        before = after
    return workload, statistics.median(times)


# ------------------------------------------------------------------- passes

@dataclass
class Pass:
    seconds: float  # wall time of the whole pass, reference work included
    query_s: list[float]  # wall time of each query
    scaled_s: list[float]  # each query's time at the reference speed
    readings: list[float]  # reference unit times, in the order they were read
    outcomes: list


def run_pass(workload: Workload, order: list[int], reference: Reference,
             tracer: Tracer | None = None) -> Pass:
    n = len(workload.ops)
    query_s, scaled_s, outcomes = [0.0] * n, [0.0] * n, [None] * n
    sampler = Sampler(reference, READ_EVERY_S)
    boundary = []  # index of the reading taken just before each query, and after the last
    perf = time.perf_counter
    start = perf()
    # A traced pass reads only between queries, so no reading adds to a span.
    with sampler.ticking() if tracer is None else nullcontext():
        for i in order:
            sampler.read()
            boundary.append(len(sampler.readings) - 1)
            if tracer is not None:
                tracer.begin_query(i)
            spent, t0 = sampler.spent, perf()
            outcomes[i] = workload.run(workload.ops[i])
            query_s[i] = perf() - t0 - (sampler.spent - spent)
        sampler.read()
        boundary.append(len(sampler.readings) - 1)
    seconds = perf() - start
    readings = sampler.readings
    for k, i in enumerate(order):
        # the readings just before and just after query i, and those during it
        scaled_s[i] = reference.scale(query_s[i], readings[boundary[k] : boundary[k + 1] + 1])
    return Pass(seconds, query_s, scaled_s, readings, outcomes)


def outcome_key(outcome):
    """Everything about an outcome that must repeat exactly."""
    if isinstance(outcome, bench.RunRecord):
        path = None if outcome.path is None else outcome.path.tobytes()
        return (outcome.status, tuple(sorted(outcome.stats.items())),
                outcome.path_cost, path, outcome.error)
    return outcome


def require_same(reference: Pass, other: Pass) -> None:
    for i, (a, b) in enumerate(zip(reference.outcomes, other.outcomes)):
        if outcome_key(a) != outcome_key(b):
            raise CheckFailed(f"query {i} differs between passes: "
                              f"{outcome_key(a)[:3]} vs {outcome_key(b)[:3]}")


def count_failed(workload: Workload, outcomes: list) -> list[str]:
    """Failed operations of one pass, with the reason for each."""
    failed = []
    planner_params = workload.params.ara_star if workload.name == ARA_SHELF \
        else workload.params.rrt_connect
    for op, out in zip(workload.ops, outcomes):
        if workload.name == VALIDATE_FINE:
            valid, cost = out
            if valid != op.expected_valid:
                failed.append(f"path {op.index}: verdict {valid}, stored {op.expected_valid}")
            elif not abs(cost - op.expected_cost) <= 1e-9 * max(1.0, op.expected_cost):
                failed.append(f"path {op.index}: cost {cost!r}, stored {op.expected_cost!r}")
            continue
        rob, wld = op.scenario.robot, op.scenario.world
        if out.status in SOLVED:
            if not core.validate_path(rob, wld, op.query, core.Path(out.path),
                                      planner_params.edge_step):
                failed.append(f"query {op.index}: path invalid at its own edge step")
        elif out.status == core.UNSOLVABLE:
            if core.validate_query(rob, wld, op.query) == core.OK:
                failed.append(f"query {op.index}: unsolvable with free endpoints")
        else:
            failed.append(f"query {op.index}: status {out.status} {out.error or ''}")
    return failed


def source_digest() -> str:
    """Hash of the program and the benchmark, so a stored outcome digest is
    only ever compared with a run of the same code."""
    h = hashlib.sha256(np.__version__.encode())
    files = sorted((ROOT / "src" / "planbench").rglob("*.py"))
    files += sorted((ROOT / "src" / "planbench" / "data").rglob("*.yaml"))
    files += sorted(BENCH_DIR.glob("*.py")) + [PATH_SET]
    for f in files:
        h.update(f.relative_to(ROOT).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def require_repeatable(name: str, suite_seed: int, outcomes: list) -> str:
    """Compare this run's outcomes with those of earlier runs of the same
    suite and code in this checkout; the query order does not matter."""
    digest = hashlib.sha256(repr([outcome_key(o) for o in outcomes]).encode()).hexdigest()
    record = OUT_DIR / f"outcomes-{name}-{suite_seed}-{source_digest()}.txt"
    if record.exists():
        earlier = record.read_text().strip()
        if earlier != digest:
            raise CheckFailed(f"outcomes differ from an earlier run of suite "
                              f"{suite_seed}: {digest[:12]} vs {earlier[:12]}")
    else:
        OUT_DIR.mkdir(exist_ok=True)
        tmp = record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(digest + "\n")
        os.replace(tmp, record)
    return digest


# ------------------------------------------------------------------ metrics

def per_query_seconds(passes: list[Pass]) -> list[float]:
    """Each query's median time at the reference speed over the passes."""
    return [statistics.median(p.scaled_s[i] for p in passes)
            for i in range(len(passes[0].scaled_s))]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile that leaves TAIL_ABOVE values above it."""
    ranked = sorted(values)
    rank = len(ranked) - TAIL_ABOVE  # 1-based rank of the reported value
    return ranked[rank - 1], 100.0 * rank / len(ranked)


def program_counters(outcomes: list) -> dict[str, int]:
    totals: dict[str, int] = {}
    for out in outcomes:
        if isinstance(out, bench.RunRecord):
            prefix = "ara_star" if out.planner == bench.ARA_STAR else "rrt_connect"
            for key, value in out.stats.items():
                totals[f"{prefix}.{key}"] = totals.get(f"{prefix}.{key}", 0) + value
    return totals


def end_to_end(workload: Workload, passes: list[Pass], setup_s: float) -> dict:
    per_query = per_query_seconds(passes)
    first = passes[0].outcomes
    if workload.name == VALIDATE_FINE:
        solved = sum(1 for valid, _ in first if valid)
        costs = [cost for _, cost in first]
    else:
        solved = sum(1 for r in first if r.status in SOLVED)
        costs = [r.path_cost for r in first if r.status in SOLVED]
    return {
        "setup_s": (setup_s, "s"),
        "suite_s": (statistics.median(sum(p.scaled_s) for p in passes), "s"),
        "query_s.p50": (statistics.median(per_query), "s"),
        "query_s.tail": (tail(per_query)[0], "s"),
        "solved": (solved, "count"),
        "path_cost.mean": (statistics.fmean(costs), "cspace"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# -------------------------------------------------------------- tracing

def _count_fk(tracer, args, kwargs, result):
    tracer.counts["robot.fk.configs"] += result.shape[0]


def _count_free_mask(tracer, args, kwargs, result):
    tracer.counts["collision.free_mask.configs"] += result.shape[0]
    tracer.counts["collision.free_mask.free"] += int(np.count_nonzero(result))
    if tracer.parent_name() == "ara_star.successors":
        tracer.counts["ara_star.successors.configs"] += result.shape[0]


def _count_check_motion(tracer, args, kwargs, result):
    if not result:
        tracer.counts["collision.check_motion.rejects"] += 1


def _count_successors(tracer, args, kwargs, result):
    tracer.counts["ara_star.successors.returned"] += len(result)
    tracer.counts["ara_star.successors.moves"] += len(args[1].primitives)


def _count_ara_search(tracer, args, kwargs, result):
    # The lattice cache is shared by the forward and backward searches of one
    # query; count each cache once, at its final size.
    cache = kwargs["cache"]
    size = len(cache.edges) + len(cache.snap)
    previous = tracer.per_query.get(id(cache), 0)
    tracer.per_query[id(cache)] = size
    tracer.counts["ara_star.cache_entries"] += size - previous


def _count_extend(tracer, args, kwargs, result):
    if result[0] == rrt_connect.TRAPPED:
        tracer.counts["rrt_connect.extend.trapped"] += 1


def _count_connect(tracer, args, kwargs, result):
    if result == (rrt_connect.TRAPPED, None):
        tracer.counts["rrt_connect.connect.first_trapped"] += 1


TRACE_TARGETS = (
    (robot, "sphere_centers_batch", "robot.fk", _count_fk),
    (world, "load_scenario", "world.load_scenario", None),
    (world, "generate_variations", "world.generate_variations", None),
    (collision, "free_mask", "collision.free_mask", _count_free_mask),
    (collision, "check_motion", "collision.check_motion", _count_check_motion),
    (collision, "check_config", "collision.check_config", None),
    (ara_star, "successors", "ara_star.successors", _count_successors),
    (ara_star, "ara_search", "ara_star.ara_search", _count_ara_search),
    (ara_star, "plan_ara_star", "ara_star.plan_ara_star", None),
    (rrt_connect, "nearest", "rrt_connect.nearest", None),
    (rrt_connect, "extend", "rrt_connect.extend", _count_extend),
    (rrt_connect, "connect", "rrt_connect.connect", _count_connect),
    (rrt_connect, "plan_rrt_connect", "rrt_connect.plan_rrt_connect", None),
    (core, "validate_query", "core.validate_query", None),
    (core, "validate_path", "core.validate_path", None),
    (core, "path_cost", "core.path_cost", None),
    (bench, "run_one", "bench.run_one", None),
)


def kernel_probe(workload: Workload, seed: int) -> dict[str, float]:
    """Median microseconds per free_mask call on sampled configs of scene 0."""
    scene = workload.ops[0].scenario
    rng = np.random.default_rng(seed)
    samples = rng.uniform(scene.robot.lower, scene.robot.upper, size=(4096, scene.robot.dof))
    out = {}
    for label, (m, calls) in PROBE_BATCHES.items():
        times = []
        for k in range(calls):
            lo = (k * m) % (len(samples) - m)
            batch = samples[lo : lo + m]
            t0 = time.perf_counter()
            collision.free_mask(scene.robot, scene.world, batch)
            times.append(time.perf_counter() - t0)
        out[label] = statistics.median(times) * 1e6
    return out


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer was never used."""
    return num / den if den else 0.0


def per_layer(tracer: Tracer, counters: dict, traced: Pass, untraced: Pass,
              probe: dict) -> dict:
    c, n, own, total = tracer.counts, tracer.calls, tracer.self_s, tracer.total_s
    fm = "collision.free_mask"
    metrics = {
        "robot.fk.calls": (n["robot.fk"], "count"),
        "robot.fk.configs": (c["robot.fk.configs"], "count"),
        "robot.fk.self_s": (own["robot.fk"], "s"),
        f"{fm}.calls": (n[fm], "count"),
        f"{fm}.configs": (c[f"{fm}.configs"], "count"),
        f"{fm}.configs_per_call": (ratio(c[f"{fm}.configs"], n[fm]), "configs/call"),
        f"{fm}.self_s": (own[fm], "s"),
        f"{fm}.us_per_config": (ratio(total[fm] * 1e6, c[f"{fm}.configs"]), "us"),
        f"{fm}.free_ratio": (ratio(c[f"{fm}.free"], c[f"{fm}.configs"]), "ratio"),
        f"{fm}.suite_share": (ratio(total[fm], sum(traced.query_s)), "ratio"),
        "collision.check_motion.calls": (n["collision.check_motion"], "count"),
        "collision.check_motion.self_s": (own["collision.check_motion"], "s"),
        "collision.check_motion.reject_ratio": (
            ratio(c["collision.check_motion.rejects"], n["collision.check_motion"]), "ratio"),
        "collision.check_config.calls": (n["collision.check_config"], "count"),
        "collision.check_config.self_s": (own["collision.check_config"], "s"),
        "ara_star.successors.calls": (n["ara_star.successors"], "count"),
        "ara_star.successors.self_s": (own["ara_star.successors"], "s"),
        "ara_star.successors.configs_per_call": (
            ratio(c["ara_star.successors.configs"], n["ara_star.successors"]), "configs/call"),
        "ara_star.successors.yield": (
            ratio(c["ara_star.successors.returned"], c["ara_star.successors.moves"]), "ratio"),
        "ara_star.successors.suite_share": (
            ratio(total["ara_star.successors"], sum(traced.query_s)), "ratio"),
        "ara_star.ara_search.self_s": (own["ara_star.ara_search"], "s"),
        "ara_star.plan_ara_star.self_s": (own["ara_star.plan_ara_star"], "s"),
        "ara_star.expansions": (counters.get("ara_star.expansions", 0), "count"),
        "ara_star.collision_checks": (counters.get("ara_star.collision_checks", 0), "count"),
        "ara_star.cache_entries": (c["ara_star.cache_entries"], "count"),
        "ara_star.configs_per_expansion": (
            ratio(counters.get("ara_star.collision_checks", 0),
                  counters.get("ara_star.expansions", 0)), "configs"),
        "rrt_connect.extend.calls": (n["rrt_connect.extend"], "count"),
        "rrt_connect.extend.trapped_ratio": (
            ratio(c["rrt_connect.extend.trapped"], n["rrt_connect.extend"]), "ratio"),
        "rrt_connect.extend.self_s": (own["rrt_connect.extend"], "s"),
        "rrt_connect.connect.calls": (n["rrt_connect.connect"], "count"),
        "rrt_connect.connect.first_trapped_ratio": (
            ratio(c["rrt_connect.connect.first_trapped"], n["rrt_connect.connect"]), "ratio"),
        "rrt_connect.nearest.calls": (n["rrt_connect.nearest"], "count"),
        "rrt_connect.nearest.self_s": (own["rrt_connect.nearest"], "s"),
        "rrt_connect.plan_rrt_connect.self_s": (own["rrt_connect.plan_rrt_connect"], "s"),
        "rrt_connect.iterations": (counters.get("rrt_connect.iterations", 0), "count"),
        "rrt_connect.collision_checks": (counters.get("rrt_connect.collision_checks", 0), "count"),
        "rrt_connect.nodes": (counters.get("rrt_connect.nodes", 0), "count"),
        "core.validate_query.self_s": (own["core.validate_query"], "s"),
        "core.validate_path.self_s": (own["core.validate_path"], "s"),
        "core.path_cost.self_s": (own["core.path_cost"], "s"),
        "bench.run_one.self_s": (own["bench.run_one"], "s"),
        "world.generate_variations.s": (
            ratio(total["world.generate_variations"], n["world.generate_variations"]), "s"),
        "world.load_scenario.s": (
            ratio(total["world.load_scenario"], n["world.load_scenario"]), "s"),
        "trace.overhead_s": (sum(traced.scaled_s) - sum(untraced.scaled_s), "s"),
    }
    for label, us in probe.items():
        metrics[f"{fm}.us_per_call.{label}"] = (us, "us")
    return metrics


# --------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="order of the queries in a pass and the probe's samples")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="repeat passes while they fit in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite-seed", type=int, default=DEFAULT_SUITE_SEED,
                        help=f"scene generation seed (held-out: {HELD_OUT_SUITE_SEED})")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()
    tracer = Tracer() if args.trace else None
    problems: list[str] = []
    reference = Reference(*REFERENCE[args.workload])
    reference.reading()  # warm-up

    if tracer is None:
        workload, setup_s = timed_set_up(args.workload, args.suite_seed, reference)
    else:
        with tracer.installed(TRACE_TARGETS):
            workload, setup_s = timed_set_up(args.workload, args.suite_seed, reference)
    order = list(range(len(workload.ops)))
    random.Random(args.seed).shuffle(order)

    passes = [run_pass(workload, order, reference)]
    if tracer is None:
        # Start another pass only if it should end within --seconds.
        while sum(p.seconds for p in passes) * (1 + 1 / len(passes)) <= args.seconds:
            passes.append(run_pass(workload, order, reference))
    repeats = passes[1:]
    if tracer is not None:
        with tracer.installed(TRACE_TARGETS):
            traced = run_pass(workload, order, reference, tracer)
        repeats.append(traced)
    failed = count_failed(workload, passes[0].outcomes)
    problems += failed
    try:
        for other in repeats:
            require_same(passes[0], other)
        digest = require_repeatable(args.workload, args.suite_seed, passes[0].outcomes)
    except CheckFailed as exc:
        problems.append(str(exc))
        digest = None

    counters = program_counters(passes[0].outcomes)
    n_queries = len(workload.ops)
    if tracer is None:
        metrics = end_to_end(workload, passes, setup_s)
    else:
        probe = kernel_probe(workload, args.seed)
        metrics = per_layer(tracer, counters, traced, passes[0], probe)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")

    provenance = {
        "workload": args.workload, "seed": args.seed, "suite_seed": args.suite_seed,
        "held_out_suite_seed": HELD_OUT_SUITE_SEED, "queries": n_queries,
        "passes": len(passes), "budget_s": BUDGET_S,
        "wall_suite_s": statistics.median(sum(p.query_s) for p in passes),
        "reference_s": statistics.median(r for p in passes for r in p.readings),
        "reference_nominal_s": reference.nominal_s,
        "tail_percentile": tail(per_query_seconds(passes))[1],
        "path_set_sha256": workload.path_set_sha256, "outcome_digest": digest,
        "counters": counters, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for problem in problems:
        print(f"benchmark: check failed: {problem}", file=sys.stderr)
    n_passes = 1 + len(repeats)  # every pass repeats the outcomes of the first
    result = {
        "correct": not problems,
        "attempted": n_queries * n_passes,
        "failed": len(failed) * n_passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
