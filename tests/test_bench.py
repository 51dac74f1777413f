"""Benchmark harness: suite execution, aggregation, report rendering."""

import numpy as np
import pytest

from planbench import bench
from planbench.bench import (ARA_STAR, CSV_HEADER, RRT_CONNECT, STATUSES, RunRecord,
                             aggregate, emit_csv, emit_table, plan, run_one, run_suite)
from planbench.core import (BUDGET_GRACE, FAILURE, SOLVED_BACKWARD, SOLVED_FORWARD,
                            UNSOLVABLE)
from planbench.errors import ContractViolation, ValidationError
from planbench.params import parse_params
from planbench.world import GoalSpec, Scenario, WorldModel, parse_scenario

from conftest import csv_rows, gantry_robot
from oracles import box_obstacle

GANTRY_ROBOT = """
joints:
  - {name: x, type: prismatic, axis: [1, 0, 0], limits: [0.0, 6.0], resolution: 0.25}
  - {name: y, type: prismatic, axis: [0, 1, 0], limits: [0.0, 6.0], resolution: 0.25}
collision_spheres:
  - {link: 1, center: [0, 0, 0], radius: 0.05}
"""


def scenario_doc(name="case", start=(1.0, 1.0), target=(5.0, 5.0), budget=5.0,
                 obstacles=""):
    return (
        f"name: {name}\n"
        "robot: gantry.yaml\n"
        f"start: [{start[0]}, {start[1]}]\n"
        f"goal: {{type: config, target: [{target[0]}, {target[1]}]}}\n"
        "world:\n"
        f"  obstacles: [{obstacles}]\n"
        f"time_budget_s: {budget}\n"
    )


@pytest.fixture
def suite(tmp_path):
    (tmp_path / "gantry.yaml").write_text(GANTRY_ROBOT)
    simple = parse_scenario(scenario_doc("simple"), base_dir=tmp_path)
    walled = parse_scenario(scenario_doc(
        "walled", obstacles="{shape: box, center: [3.0, 3.0, 0.0], yaw: 0.0, "
        "half_extents: [0.2, 1.5, 0.5]}"), base_dir=tmp_path)
    blocked = parse_scenario(scenario_doc(
        "blocked_start",
        obstacles="{shape: sphere, center: [1.0, 1.0, 0.0], radius: 0.3}"),
        base_dir=tmp_path)
    return [simple, walled, blocked]


PARAMS = parse_params("ara_star: {epsilon_schedule: [3.0, 1.0]}\n")


@pytest.fixture
def outcomes(suite, tmp_path):
    """The suite plus a goal walled in on all sides, which no planner
    reaches, and ARA*'s slot scenario, whose forward half-budget fails and
    whose backward search solves, each with the params it runs under."""
    sealed = parse_scenario(scenario_doc("sealed", budget=0.3, obstacles=", ".join(
        f"{{shape: box, center: [{x}, {y}, 0.0], half_extents: [{hx}, {hy}, 0.5]}}"
        for x, y, hx, hy in ((5.0, 5.4, 0.5, 0.05), (5.0, 4.6, 0.5, 0.05),
                             (4.6, 5.0, 0.05, 0.5), (5.4, 5.0, 0.05, 0.5)))),
        base_dir=tmp_path)
    slot = Scenario(
        name="slot", robot_file="gantry.yaml", robot=gantry_robot(resolution=0.015),
        start=[1.2, 4.8], goal=GoalSpec.config_goal([3.0, 1.3], [0.0, 0.0]),
        world=WorldModel((box_obstacle((2.71, 2.8, 0.0), (0.21, 1.8, 0.5)),
                          box_obstacle((3.29, 2.8, 0.0), (0.21, 1.8, 0.5)),
                          box_obstacle((3.0, 0.95, 0.0), (0.5, 0.1, 0.5)))),
        time_budget=4.0)
    cases = {s.name: (s, PARAMS) for s in suite + [sealed]}
    cases["slot"] = slot, parse_params("ara_star: {epsilon_schedule: [50.0]}\n")
    return cases


class TestRunSuite:
    @pytest.mark.parametrize("planner, name, status", [
        (RRT_CONNECT, "simple", SOLVED_FORWARD),
        (ARA_STAR, "simple", SOLVED_FORWARD),
        (ARA_STAR, "slot", SOLVED_BACKWARD),
        (RRT_CONNECT, "sealed", FAILURE),
        (ARA_STAR, "sealed", FAILURE),
        (RRT_CONNECT, "blocked_start", UNSOLVABLE),
        (ARA_STAR, "blocked_start", UNSOLVABLE),
    ])
    def test_record_status_is_the_planner_status(self, outcomes, monkeypatch,
                                                 planner, name, status):
        # The planners return record statuses, which run_one copies as is.
        results = []
        monkeypatch.setattr(bench, "plan", lambda *args: (
            results.append(plan(*args)) or results[-1]))
        scenario, params = outcomes[name]
        record = run_one(scenario, planner, params, seed=0)
        assert [result.status for result in results] == [status]
        assert record.status == status and status in STATUSES
        assert (record.path is None) == (results[0].path is None)

    def test_statuses_and_counts(self, suite):
        for planner in (RRT_CONNECT, ARA_STAR):
            records = run_suite(suite, planner, PARAMS, repetitions=1, base_seed=7)
            assert len(records) == 3
            by_name = {r.scenario: r for r in records}
            assert by_name["simple"].status.startswith("solved")
            assert by_name["walled"].status.startswith("solved")
            assert by_name["blocked_start"].status == "unsolvable"
            for r in records:
                if r.status.startswith("solved"):
                    assert r.path_cost is not None and r.planning_time > 0

    def test_deterministic_statuses_and_paths(self, suite):
        a = run_suite(suite, RRT_CONNECT, PARAMS, repetitions=2, base_seed=3)
        b = run_suite(suite, RRT_CONNECT, PARAMS, repetitions=2, base_seed=3)
        assert [r.status for r in a] == [r.status for r in b]
        for ra, rb in zip(a, b):
            if ra.path is None:
                assert rb.path is None
            else:
                assert np.array_equal(ra.path, rb.path)

    def test_seed_offsets_are_stable(self, suite):
        records = run_suite(suite, RRT_CONNECT, PARAMS, repetitions=2, base_seed=100)
        assert [r.seed for r in records] == [100, 101, 102, 103, 104, 105]

    def test_ara_records_carry_no_seed(self, suite):
        # ARA* takes no seed: its records carry None and an empty CSV cell.
        records = [run_one(suite[0], ARA_STAR, PARAMS, seed=4),
                   *run_suite(suite[:1], RRT_CONNECT, PARAMS, base_seed=5)]
        assert [r.seed for r in records] == [None, 5]
        text = emit_csv(records)
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        assert [row["seed"] for row in csv_rows(text)] == ["", "5"]

    def test_error_record_on_dof_mismatch(self, suite):
        from planbench.ara_star import MotionPrimitiveSet
        bad = MotionPrimitiveSet(primitives=np.array([[1, 0, 0], [-1, 0, 0]]),
                                 snap_radius=0.1)
        records = run_suite(suite, ARA_STAR, PARAMS, base_seed=0, primitives=bad)
        assert all(r.status == "error" for r in records)
        assert all(r.error for r in records)

    def test_error_record_on_unknown_planner(self, suite):
        record = run_one(suite[0], "dijkstra", PARAMS, seed=0)
        assert record.status == "error"
        assert "dijkstra" in record.error

    def test_budget_compliance(self, suite):
        for planner in (RRT_CONNECT, ARA_STAR):
            for r in run_suite(suite, planner, PARAMS, base_seed=1):
                budget = {s.name: s.time_budget for s in suite}[r.scenario]
                assert r.planning_time <= budget + BUDGET_GRACE + 0.05

    def test_rrt_never_solved_backward(self, suite):
        records = run_suite(suite, RRT_CONNECT, PARAMS, repetitions=3, base_seed=0)
        assert all(r.status != "solved-backward" for r in records)

    def test_input_validation(self, suite):
        # repetitions enters through errors.integer: 2.5 and True once passed
        # the bare `< 1` test.
        for repetitions in (0, 2.5, True, "1"):
            with pytest.raises(ValidationError):
                run_suite(suite, RRT_CONNECT, PARAMS, repetitions=repetitions)

    @pytest.mark.parametrize("argument, value", [
        ("base_seed", -1), ("base_seed", 1.5), ("base_seed", True),  # once ran as seed 1
        ("workers", 0), ("workers", "2"), ("workers", 1.5),
    ])
    def test_run_arguments_checked_before_the_first_run(self, suite, monkeypatch,
                                                        argument, value):
        # A negative seed once gave one error record and a fractional one an
        # error record per run; workers=0 once ran serially without a word.
        monkeypatch.setattr(bench, "run_one", lambda *task: pytest.fail("a run started"))
        with pytest.raises(ValidationError, match=argument):
            run_suite(suite, RRT_CONNECT, PARAMS, **{argument: value})

    def test_unknown_planner_gives_error_records(self, suite):
        # Errors never abort the suite: each run becomes an error record.
        records = run_suite(suite, "dijkstra", PARAMS, repetitions=2)
        assert len(records) == 2 * len(suite)
        assert all(r.status == "error" and "dijkstra" in r.error for r in records)

    def test_parallel_workers_match_sequential(self, suite):
        seq = run_suite(suite, RRT_CONNECT, PARAMS, repetitions=1, base_seed=5)
        par = run_suite(suite, RRT_CONNECT, PARAMS, repetitions=1, base_seed=5,
                        workers=2)
        assert [r.status for r in seq] == [r.status for r in par]
        for a, b in zip(seq, par):
            if a.path is not None:
                assert np.array_equal(a.path, b.path)

    def test_workers_capped_at_the_run_count(self, suite, monkeypatch):
        # A forked pool starts every worker at its first submit, so a large
        # --workers on a small suite must not ask for more processes than
        # runs.  The fake pool records the count and maps in this process.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", FakePool)
        records = run_suite(suite[:2], RRT_CONNECT, PARAMS, workers=10_000)
        assert sizes == [2]
        assert [r.scenario for r in records] == ["simple", "walled"]
        run_suite(suite, RRT_CONNECT, PARAMS, repetitions=2, workers=4)
        assert sizes == [2, 4]


def synthetic_records(planner, sf, sb, fail, unsolv, suite_name="shelf_zero_test"):
    records = []
    index = 0
    for status, count in (("solved-forward", sf), ("solved-backward", sb),
                          ("failure", fail), ("unsolvable", unsolv)):
        for _ in range(count):
            cost = 1.5 if status.startswith("solved") else None
            records.append(RunRecord(
                scenario=f"{suite_name}_{index:03d}", planner=planner, seed=index,
                status=status, planning_time=0.25 + 0.001 * index, path_cost=cost))
            index += 1
    return records


class TestAggregate:
    def test_mixed_direction_counts(self):
        records = synthetic_records("ara-star", 47, 53, 0, 0)
        row, = aggregate(records, suite="shelf_zero_test")
        assert (row.success_forward, row.success_backward, row.failure,
                row.unsolvable) == (47, 53, 0, 0)
        assert (row.success_forward + row.success_backward + row.failure
                + row.unsolvable + row.errors) == row.total

    def test_counts_with_failures(self):
        records = synthetic_records("rrt-connect", 85, 0, 15, 0)
        row, = aggregate(records, suite="shelf_zero_test")
        assert (row.success_forward, row.failure) == (85, 15)
        assert (row.success_forward + row.success_backward + row.failure
                + row.unsolvable + row.errors) == row.total

    def test_all_failure_suite_has_empty_solved_summary(self):
        records = synthetic_records("rrt-connect", 0, 0, 10, 0)
        row, = aggregate(records, suite="synthetic")
        assert row.solved_s is None

    def test_geometric_mean_over_solved_only(self):
        records = [
            RunRecord("a", "ara-star", 0, "solved-forward", 0.1, 1.0),
            RunRecord("b", "ara-star", 1, "solved-backward", 0.4, 1.0),
            RunRecord("c", "ara-star", 2, "failure", 9.0, None),
        ]
        row, = aggregate(records)
        median, geomean, maximum = row.solved_s
        assert median == pytest.approx(0.25)
        assert geomean == pytest.approx((0.1 * 0.4) ** 0.5)
        assert maximum == 0.4

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            aggregate([])

    def test_conservation_always(self, suite):
        records = []
        for planner in (RRT_CONNECT, ARA_STAR):
            records.extend(run_suite(suite, planner, PARAMS, repetitions=2,
                                     base_seed=0))
        rows = aggregate(records, suite="mixed")
        assert [row.planner for row in rows] == [ARA_STAR, RRT_CONNECT]
        for row in rows:
            assert (row.success_forward + row.success_backward + row.failure
                    + row.unsolvable + row.errors) == row.total
            assert row.total == 6


def table_rows(records, suite="shelf_zero_test"):
    return [line.split() for line in emit_table(aggregate(records, suite)).splitlines()
            if line]


class TestEmitReport:
    def test_table_row_matches_documented_layout(self):
        rows = table_rows(synthetic_records("ara-star", 47, 53, 0, 0))
        assert ["planner:", "ara-star"] in rows
        assert ["suite", "success_forward", "success_backward", "failure",
                "unsolvable"] in rows
        assert ["shelf_zero_test", "47", "53", "0", "0"] in rows

    def test_rrt_backward_column_renders_dash(self):
        rows = table_rows(synthetic_records("rrt-connect", 85, 0, 15, 0))
        assert ["shelf_zero_test", "85", "-", "15", "0"] in rows

    def test_second_row_shows_solved_times(self):
        records = [
            RunRecord("a", "ara-star", None, "solved-forward", 0.1, 1.0),
            RunRecord("b", "ara-star", None, "solved-backward", 0.4, 1.0),
            RunRecord("c", "ara-star", None, "solved-forward", 3.2, 1.0),
            RunRecord("d", "ara-star", None, "unsolvable", 0.001, None),
        ]
        text = emit_table(aggregate(records, "t"))
        assert text.splitlines()[1:5] == [
            "suite  success_forward  success_backward  failure  unsolvable",
            "t      2                1                 0        1         ",
            "total  errors  solved_median_s  solved_geomean_s  solved_max_s",
            "4      0       0.400000         0.503968          3.200000",
        ]

    def test_second_row_dashes_when_nothing_solved(self):
        rows = table_rows(synthetic_records("rrt-connect", 0, 0, 3, 2))
        assert ["total", "errors", "solved_median_s", "solved_geomean_s",
                "solved_max_s"] in rows
        assert ["5", "0", "-", "-", "-"] in rows

    def test_error_record_counted(self):
        records = synthetic_records("rrt-connect", 2, 0, 1, 1)
        records.append(RunRecord("broken", "rrt-connect", -1, "error", 0.0, None))
        row, = aggregate(records)
        assert row.errors == 1
        assert row.total == 5 == (row.success_forward + row.success_backward
                                  + row.failure + row.unsolvable + row.errors)
        assert ["5", "1"] == table_rows(records)[-1][:2]

    def test_csv_round_trip(self):
        records = synthetic_records("ara-star", 2, 1, 1, 1)
        rows = csv_rows(emit_csv(records))
        assert len(rows) == len(records)
        for r, row in zip(records, rows):
            assert (r.scenario, r.planner, str(r.seed), r.status) == \
                (row["scenario"], row["planner"], row["seed"], row["status"])
            assert r.planning_time == float(row["planning_time_s"])
            assert r.path_cost == (float(row["path_cost"]) if row["path_cost"] else None)

    def test_empty_record_list_renders_header_only_csv(self):
        assert emit_csv([]).splitlines() == [",".join(CSV_HEADER)]
