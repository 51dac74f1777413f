"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
output.  The shelf assets shipped under planbench/data are the fixed
scenarios these criteria refer to.
"""

import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from planbench.ara_star import (BUDGET_SPLIT, AraParams, ara_search, default_primitives,
                                plan_ara_star)
from planbench.bench import (ARA_STAR, RRT_CONNECT, RunRecord, aggregate,
                             emit_table, run_suite)
from planbench.collision import check_config
from planbench.core import (BUDGET_GRACE, SOLVED_BACKWARD, SOLVED_FORWARD, Query,
                            query_from_scenario, validate_path)
from planbench.params import parse_params
from planbench.rrt_connect import RrtParams, plan_rrt_connect
from planbench.world import GoalSpec, WorldModel, generate_variations, load_scenario

from planbench.data import data_path

from conftest import gantry_robot, random_robot, random_world, solution_cost
from oracles import (box_obstacle, brute_force_check, matrix_chain_spheres,
                     sample_uniform, sphere_obstacle)

TUNED_PARAMS = parse_params(data_path("params", "shelf_tuned.yaml").read_text())


def _report(name: str):
    print(f"[acceptance] {name}: PASS")


@pytest.fixture(scope="module")
def shelf_easy():
    return load_scenario(data_path("scenarios", "shelf_easy.yaml"))


@pytest.fixture(scope="module")
def shelf_reach():
    return load_scenario(data_path("scenarios", "shelf_reach.yaml"))


@pytest.fixture(scope="module")
def suite_records(shelf_reach):
    """Both planners over the 30-scenario generated shelf suite."""
    scenarios = generate_variations(shelf_reach, "objects_only", 30, seed=424242)
    primitives = default_primitives(shelf_reach.robot)
    records = {}
    for planner in (ARA_STAR, RRT_CONNECT):
        records[planner] = run_suite(
            scenarios, planner, TUNED_PARAMS, repetitions=1, base_seed=0,
            primitives=primitives if planner == ARA_STAR else None)
    return scenarios, records


def test_c01_collision_oracle_equivalence():
    """check_config's verdict is the brute-force pairwise oracle's."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    robots = [random_robot(rng, n_spheres=int(rng.integers(3, 7)))
              for _ in range(5)]
    shapes_seen = set()
    for case in range(10_000):
        robot = robots[case % len(robots)]
        world = random_world(rng)
        shapes_seen.update(o.shape for o in world.obstacles)
        if rng.random() < 0.75:
            q = rng.uniform(robot.lower, robot.upper)
        else:
            q = rng.uniform(robot.lower - 0.3, robot.upper + 0.3)
        got = check_config(robot, world, q)
        want = brute_force_check(robot, world, q)
        assert got is (want == ("free",)), (case, got, want)
    elapsed = time.perf_counter() - t0
    assert shapes_seen == {"box", "cylinder", "sphere"}
    assert elapsed < 30.0, f"collision oracle sweep took {elapsed:.1f}s"
    _report(f"collision-oracle equivalence (10000 cases, {elapsed:.1f}s)")


def test_c02_fk_matrix_chain_oracle(shelf_easy):
    """FK matches an independent homogeneous-matrix chain within 1e-9."""
    from planbench.robot import sphere_centers_batch
    rng = np.random.default_rng(777)
    robots = [shelf_easy.robot, random_robot(rng, dof=8, n_spheres=6)]
    for robot in robots:
        configs = np.array([sample_uniform(robot, rng) for _ in range(500)])
        for q, got in zip(configs, sphere_centers_batch(robot, configs)):
            want = matrix_chain_spheres(robot, q)
            assert len(want) == len(got)
            for (center, _), placed in zip(want, got):
                assert np.all(np.abs(placed - center) <= 1e-9)
    _report("forward-kinematics matrix-chain oracle (1000 configs)")


def test_c03_ara_optimal_at_unit_epsilon(lattice_cases):
    """At inflation 1.0 the search cost equals the Dijkstra optimum."""
    cases, build_seconds = lattice_cases
    t0 = time.perf_counter()
    params = AraParams(epsilon_schedule=(1.0,), edge_step=0.05)
    for robot, world, start, goal, primitives, optimum in cases:
        solution, _ = ara_search(start, goal, primitives, params, robot, world,
                                 deadline=math.inf)
        assert solution is not None
        assert abs(solution_cost(robot, solution) - optimum) <= 1e-9
    elapsed = build_seconds + (time.perf_counter() - t0)
    assert elapsed < 120.0, f"unit-epsilon sweep took {elapsed:.1f}s"
    _report(f"ARA* optimality at eps=1 (50 instances, {elapsed:.1f}s)")


def test_c04_bounded_suboptimality(lattice_cases):
    """Every incumbent is within eps of optimal; incumbents never worsen."""
    cases, _ = lattice_cases
    schedule = (3.0, 2.0, 1.5, 1.0)
    params = AraParams(epsilon_schedule=schedule, edge_step=0.05)
    for robot, world, start, goal, primitives, optimum in cases:
        solution, stats = ara_search(start, goal, primitives, params, robot,
                                     world, deadline=math.inf)
        assert solution is not None
        previous = float("inf")
        for eps, cost in zip(schedule, stats.incumbent_costs):
            if cost is None:
                continue
            assert cost <= eps * optimum + 1e-9
            assert cost <= previous + 1e-12
            previous = cost
        assert abs(stats.incumbent_costs[-1] - optimum) <= 1e-9
    _report("bounded suboptimality over [3.0, 2.0, 1.5, 1.0] (50 instances)")


def test_c05_rrt_connect_completeness_smoke(shelf_easy):
    """100/100 seeds solve the fixed shelf scenario within the 5 s budget."""
    query = query_from_scenario(shelf_easy)
    assert query.time_budget == 5.0
    times = []
    for seed in range(100):
        result = plan_rrt_connect(shelf_easy.robot, shelf_easy.world, query,
                                  RrtParams(seed=seed))
        assert result.status == SOLVED_FORWARD, f"seed {seed}: {result.status}"
        assert result.planning_time <= query.time_budget + BUDGET_GRACE
        assert validate_path(shelf_easy.robot, shelf_easy.world, query,
                             result.path, 0.05), f"seed {seed}"
        times.append(result.planning_time)
    _report(f"RRT-Connect smoke 100/100 (median {statistics.median(times):.3f}s, "
            f"max {max(times):.3f}s)")


def test_c06_backward_search_benefit():
    """A deep-cavity goal solves backward while the forward half fails."""
    robot = gantry_robot(resolution=0.015)
    world = WorldModel((
        box_obstacle((2.71, 2.8, 0.0), (0.21, 1.8, 0.5)),   # slot left wall
        box_obstacle((3.29, 2.8, 0.0), (0.21, 1.8, 0.5)),   # slot right wall
        box_obstacle((3.0, 0.95, 0.0), (0.5, 0.1, 0.5)),    # slot floor
    ))
    goal = GoalSpec.config_goal([3.0, 1.3], [0.0, 0.0])
    query = Query(start=[1.2, 4.8], goal=goal, time_budget=4.0)
    params = AraParams(epsilon_schedule=(50.0,), edge_step=0.05)
    result = plan_ara_star(robot, world, query, default_primitives(robot), params)
    assert result.status == SOLVED_BACKWARD  # the forward half-budget failed
    assert result.planning_time >= query.time_budget * BUDGET_SPLIT
    assert result.stats["expansions_forward"] > result.stats["expansions_backward"]
    assert validate_path(robot, world, query, result.path, 0.05)
    _report(f"backward-search benefit (forward {result.stats['expansions_forward']} "
            f"vs backward {result.stats['expansions_backward']} expansions)")


def test_c07_unsolvable_detection(shelf_easy):
    """Colliding endpoints yield 'unsolvable', never 'failure'."""
    robot = shelf_easy.robot
    from planbench.robot import sphere_centers_batch
    start_tip, goal_tip = sphere_centers_batch(
        robot, np.array([shelf_easy.start, shelf_easy.goal.target]))[:, -1]
    blocked_start = replace(shelf_easy, world=WorldModel(
        shelf_easy.world.obstacles + (sphere_obstacle(start_tip, 0.08),)))
    blocked_goal = replace(shelf_easy, world=WorldModel(
        shelf_easy.world.obstacles + (sphere_obstacle(goal_tip, 0.08),)))
    assert not check_config(robot, blocked_start.world, shelf_easy.start)
    assert check_config(robot, blocked_goal.world, shelf_easy.start)
    assert not check_config(robot, blocked_goal.world, shelf_easy.goal.target)

    primitives = default_primitives(robot)
    for scenario, reason in ((blocked_start, "start_in_collision"),
                             (blocked_goal, "goal_in_collision")):
        query = query_from_scenario(scenario)
        for planner in ("rrt", "ara"):
            if planner == "rrt":
                result = plan_rrt_connect(robot, scenario.world, query, RrtParams())
            else:
                result = plan_ara_star(robot, scenario.world, query, primitives,
                                       TUNED_PARAMS.ara_star)
            assert result.status == "unsolvable", (planner, reason, result.status)
            assert result.reason == reason
    _report("unsolvable detection for both planners, both endpoints")


def test_c08_report_shape(suite_records):
    """Synthetic mixed-direction counts render the documented table row;
    conservation holds on reports aggregated from real runs."""
    synthetic = []
    index = 0
    for status, count in (("solved-forward", 47), ("solved-backward", 53),
                          ("failure", 0), ("unsolvable", 0)):
        for _ in range(count):
            synthetic.append(RunRecord(
                scenario=f"s{index:03d}", planner="ara-star", seed=index,
                status=status, planning_time=0.1,
                path_cost=1.0 if status.startswith("solved") else None))
            index += 1
    report = aggregate(synthetic, suite="shelf_zero_test")
    table = emit_table(report)
    rows = [line.split() for line in table.splitlines() if line]
    assert ["shelf_zero_test", "47", "53", "0", "0"] in rows
    row = report[0]
    assert (row.success_forward + row.success_backward + row.failure
            + row.unsolvable + row.errors) == row.total

    _, records = suite_records
    real = aggregate(records[ARA_STAR] + records[RRT_CONNECT], suite="shelf_reach")
    for row in real:
        assert (row.success_forward + row.success_backward + row.failure
                + row.unsolvable + row.errors) == row.total
        assert row.total == 30
    _report("report shape: Table-1 style row and conservation invariant")


def test_c09_qualitative_speed_ordering(suite_records):
    """ARA* with suite-tuned primitives beats RRT-Connect on median time."""
    scenarios, records = suite_records
    assert len(scenarios) == 30
    ara_times = [r.planning_time for r in records[ARA_STAR]]
    rrt_times = [r.planning_time for r in records[RRT_CONNECT]]
    ara_median = statistics.median(ara_times)
    rrt_median = statistics.median(rrt_times)
    assert ara_median < rrt_median, (ara_median, rrt_median)
    # Identical conditions: both planners saw the same unsolvable scenarios.
    ara_unsolvable = {r.scenario for r in records[ARA_STAR] if r.status == "unsolvable"}
    rrt_unsolvable = {r.scenario for r in records[RRT_CONNECT] if r.status == "unsolvable"}
    assert ara_unsolvable == rrt_unsolvable
    for planner in (ARA_STAR, RRT_CONNECT):
        solved = sum(1 for r in records[planner] if r.status.startswith("solved"))
        assert solved >= 25, f"{planner} solved only {solved}/30"
    _report(f"speed ordering: ARA* median {ara_median*1000:.0f}ms < "
            f"RRT-Connect median {rrt_median*1000:.0f}ms")


def test_c10_bench_determinism(shelf_reach):
    """Two identical bench invocations agree in statuses and paths."""
    scenarios = generate_variations(shelf_reach, "objects_only", 6, seed=7)
    primitives = default_primitives(shelf_reach.robot)
    runs = []
    for _ in range(2):
        records = []
        for planner in (ARA_STAR, RRT_CONNECT):
            records.extend(run_suite(
                scenarios, planner, TUNED_PARAMS, repetitions=1, base_seed=99,
                primitives=primitives if planner == ARA_STAR else None))
        runs.append(records)
    first, second = runs
    assert [r.status for r in first] == [r.status for r in second]
    for a, b in zip(first, second):
        if a.path is None:
            assert b.path is None
        else:
            assert np.array_equal(a.path, b.path)
        assert a.path_cost == b.path_cost
    _report("bench determinism: identical status columns and paths")
