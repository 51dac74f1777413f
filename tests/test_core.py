"""Planner-core: queries, paths, goals, validation."""

import json
import re
from pathlib import Path as FilePath

import numpy as np
import pytest

from planbench import collision
from planbench.collision import check_config
from planbench.core import (FAILURE, GOAL_IN_COLLISION, OK, START_IN_COLLISION,
                            UNSOLVABLE, Path, Query, goal_satisfied, path_cost,
                            query_from_scenario, screen_query, validate_path, validate_query)
from planbench.data import data_path
from planbench.errors import ContractViolation, ValidationError
from planbench.params import load_params
from planbench.robot import config_distance
from planbench.world import GoalSpec, WorldModel, generate_variations, load_scenario

from conftest import gantry_robot, random_robot
from oracles import box_obstacle, sample_uniform, sphere_obstacle


@pytest.fixture
def robot():
    return gantry_robot()


def config_goal(target, tol=None):
    return GoalSpec.config_goal(target, tol)


class TestValidateQuery:
    def test_empty_world_ok(self, robot, empty_world):
        q = Query(start=[1, 1], goal=config_goal([2, 2]), time_budget=1.0)
        assert validate_query(robot, empty_world, q) == OK

    def test_start_inside_box(self, robot):
        world = WorldModel((box_obstacle((1.0, 1.0, 0.0), (0.3, 0.3, 0.3)),))
        q = Query(start=[1, 1], goal=config_goal([3, 3]), time_budget=1.0)
        assert not check_config(robot, world, [1.0, 1.0])
        assert validate_query(robot, world, q) == START_IN_COLLISION

    def test_config_goal_in_collision(self, robot):
        world = WorldModel((box_obstacle((3.0, 3.0, 0.0), (0.3, 0.3, 0.3)),))
        q = Query(start=[1, 1], goal=config_goal([3, 3]), time_budget=1.0)
        assert validate_query(robot, world, q) == GOAL_IN_COLLISION
        assert screen_query(robot, world, q)[1] is None

    def test_config_goal_outside_limits(self, robot, empty_world):
        # The target is screened as one free_mask row, limits included.
        goal = config_goal([6.5, 2.0])
        q = Query(start=[0.5, 0.5], goal=goal, time_budget=1.0)
        assert validate_query(robot, empty_world, q) == GOAL_IN_COLLISION
        assert screen_query(robot, empty_world, q)[1] is None
        q = Query(start=[0.5, 0.5], goal=config_goal([2, 2]), time_budget=1.0)
        assert screen_query(robot, empty_world, q)[1].tolist() == [2, 2]

    def test_config_goal_screen_checks_start_then_target(self, robot, empty_world,
                                                         monkeypatch):
        # Two one-row free_mask calls: check_config's start row, then the
        # target.  ROADMAP item 8 sends both rows through one call.
        import planbench.core as core

        calls = []
        free_mask = collision.free_mask

        def counted(robot, world, configs, **kw):
            calls.append(np.array(configs).tolist())
            return free_mask(robot, world, configs, **kw)

        monkeypatch.setattr(collision, "free_mask", counted)
        monkeypatch.setattr(core, "free_mask", counted)
        q = Query(start=[1, 1], goal=config_goal([2, 3]), time_budget=1.0)
        verdict, representative = screen_query(robot, empty_world, q)
        assert (verdict, representative.tolist()) == (OK, [2.0, 3.0])
        assert calls == [[[1.0, 1.0]], [[2.0, 3.0]]]

    def test_region_goal_fully_blocked(self, robot):
        # The region sits entirely inside a solid box: all 33 samples collide.
        world = WorldModel((box_obstacle((3.0, 3.0, 0.0), (1.0, 1.0, 1.0)),))
        goal = GoalSpec(type="region", lower=[2.7, 2.7], upper=[3.3, 3.3])
        q = Query(start=[0.5, 0.5], goal=goal, time_budget=1.0)
        assert validate_query(robot, world, q) == GOAL_IN_COLLISION
        assert screen_query(robot, world, q)[1] is None

    def test_region_goal_outside_limits(self, robot, empty_world):
        # No configuration of the region lies within the joint limits.
        goal = GoalSpec(type="region", lower=[6.5, 2.0], upper=[7.0, 3.0])
        q = Query(start=[0.5, 0.5], goal=goal, time_budget=1.0)
        assert validate_query(robot, empty_world, q) == GOAL_IN_COLLISION

    def test_region_goal_partially_free(self, robot):
        world = WorldModel((box_obstacle((3.0, 3.0, 0.0), (0.2, 0.2, 0.2)),))
        goal = GoalSpec(type="region", lower=[2.0, 2.0], upper=[4.0, 4.0])
        q = Query(start=[0.5, 0.5], goal=goal, time_budget=1.0)
        assert validate_query(robot, world, q) == OK


def slab(lo, hi):
    """A box over the planar rectangle [lo, hi], tall enough for the gantry."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    (cx, cy), (hx, hy) = (lo + hi) / 2.0, (hi - lo) / 2.0
    return box_obstacle((cx, cy, 0.0), (hx, hy, 0.5))


# The gantry's sphere (radius 0.05) reaches the region goal [2, 4]^2 only
# along a corridor y = 3 +- 0.02 that runs from x = 1.75 to just past the
# region's center (3, 3): about 1% of the region is free, so 32 uniform draws
# usually all collide.  Sealing the corridor up to x = 2.85 leaves a free
# pocket around the center that the start cannot reach.
CORRIDOR = (slab((1.8, 3.07), (4.2, 4.2)), slab((1.8, 1.8), (4.2, 2.93)),
            slab((3.07, 2.9), (4.2, 3.1)))
SEAL = slab((1.8, 2.9), (2.8, 3.1))
REGION = GoalSpec(type="region", lower=[2.0, 2.0], upper=[4.0, 4.0])


class TestRegionGoalVerdict:
    """A region goal's verdict is a property of the query, not of a seed."""

    @staticmethod
    def verdicts(world, budget):
        from planbench.ara_star import AraParams, default_primitives, plan_ara_star
        from planbench.rrt_connect import RrtParams, plan_rrt_connect

        robot = gantry_robot()
        q = Query(start=[0.5, 3.0], goal=REGION, time_budget=budget)
        assert validate_query(robot, world, q) == OK
        primitives = default_primitives(robot)
        yield "ara", plan_ara_star(robot, world, q, primitives, AraParams())
        for seed in range(8):
            yield seed, plan_rrt_connect(robot, world, q, RrtParams(), seed)

    def test_corridor_never_unsolvable(self):
        for seed, result in self.verdicts(WorldModel(CORRIDOR), budget=5.0):
            assert result.status != UNSOLVABLE, (seed, result.reason)

    def test_sealed_pocket_is_a_timeout(self):
        for seed, result in self.verdicts(WorldModel(CORRIDOR + (SEAL,)), budget=0.25):
            assert result.status == FAILURE, (seed, result.reason)

    def test_goal_screened_once_per_plan(self, robot, monkeypatch):
        # Only the goal screen calls core's free_mask.  In the sealed pocket
        # ARA*'s forward search fails and its backward search starts from
        # the representative, which it takes from its own query screen.
        import planbench.core as core
        from planbench.ara_star import AraParams, default_primitives, plan_ara_star
        from planbench.rrt_connect import RrtParams, plan_rrt_connect

        screens = []
        free_mask = core.free_mask
        monkeypatch.setattr(core, "free_mask", lambda robot, world, configs, **kw: (
            screens.append(len(configs)) or free_mask(robot, world, configs, **kw)))
        world = WorldModel(CORRIDOR + (SEAL,))
        q = Query(start=[0.5, 3.0], goal=REGION, time_budget=0.1)
        assert plan_rrt_connect(robot, world, q, RrtParams(), 0).status == FAILURE
        assert screens == [33]
        screens.clear()
        result = plan_ara_star(robot, world, q, default_primitives(robot), AraParams())
        assert result.status == FAILURE and result.stats["expansions_backward"] > 0
        assert screens == [33]

    def test_representative_is_the_free_center(self, robot):
        for world in (WorldModel(CORRIDOR), WorldModel(CORRIDOR + (SEAL,)),
                      WorldModel(())):
            q = Query(start=[0.5, 3.0], goal=REGION, time_budget=1.0)
            assert np.array_equal(screen_query(robot, world, q)[1], [3.0, 3.0])


class TestPathCost:
    def test_single_waypoint_zero(self, robot):
        assert path_cost(robot, Path(np.array([[1.0, 1.0]]))) == 0.0

    def test_unit_chain(self):
        from conftest import make_joint
        from planbench.robot import RobotModel
        r1 = RobotModel(joints=(make_joint("a", limits=(-10, 10)),))
        path = Path(np.array([[0.0], [1.0], [2.0]]))
        assert path_cost(r1, path) == pytest.approx(2.0)

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(31)
        robot = random_robot(rng, dof=5)
        waypoints = np.array([sample_uniform(robot, rng) for _ in range(12)])
        got = path_cost(robot, Path(waypoints))
        want = 0.0
        for k in range(len(waypoints) - 1):
            diff = waypoints[k + 1] - waypoints[k]
            want += float(np.sqrt(np.sum(robot.weights * diff * diff)))
        assert got == pytest.approx(want, abs=1e-12)

    def test_equals_left_to_right_config_distances(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            robot = random_robot(rng)
            waypoints = np.array([sample_uniform(robot, rng) for _ in range(12)])
            want = 0.0
            for a, b in zip(waypoints, waypoints[1:]):
                want += config_distance(robot, a, b)
            assert path_cost(robot, Path(waypoints)) == want

    def test_dimension_mismatch_rejected(self, robot):
        with pytest.raises(ContractViolation):
            path_cost(robot, Path(np.zeros((2, robot.dof + 1))))


class TestGoalSatisfied:
    def test_target_always_satisfies(self):
        goal = config_goal([1.0, 2.0], tol=[0.0, 0.0])
        assert goal_satisfied(goal, [1.0, 2.0])

    def test_tolerance_boundary_closed(self):
        # Binary-exact values so the closed boundary is hit precisely.
        goal = config_goal([1.0, 2.0], tol=[0.125, 0.125])
        assert goal_satisfied(goal, [1.125, 1.875])
        assert not goal_satisfied(goal, [1.125 + 1e-9, 1.875])

    def test_region_boundary_closed(self):
        goal = GoalSpec(type="region", lower=[0.0, 0.0], upper=[1.0, 1.0])
        assert goal_satisfied(goal, [1.0, 0.5])
        assert not goal_satisfied(goal, [1.0 + 1e-12, 0.5])

    def test_none_tolerance_means_exact(self):
        goal = config_goal([1.0, 2.0])
        assert goal_satisfied(goal, [1.0, 2.0])
        assert not goal_satisfied(goal, [1.0, 2.0 + 1e-12])


class TestValidatePath:
    def test_null_plan(self, robot, empty_world):
        q = Query(start=[1, 1], goal=config_goal([1, 1], tol=[0.1, 0.1]),
                  time_budget=1.0)
        assert validate_path(robot, empty_world, q, Path(np.array([[1.0, 1.0]])), 0.05)

    def test_wrong_start_rejected(self, robot, empty_world):
        q = Query(start=[1, 1], goal=config_goal([2, 2], tol=[0.1, 0.1]),
                  time_budget=1.0)
        path = Path(np.array([[1.0, 1.0 + 1e-9], [2.0, 2.0]]))
        assert not validate_path(robot, empty_world, q, path, 0.05)

    def test_goal_miss_rejected(self, robot, empty_world):
        q = Query(start=[1, 1], goal=config_goal([2, 2], tol=[0.0, 0.0]),
                  time_budget=1.0)
        path = Path(np.array([[1.0, 1.0], [2.0, 2.1]]))
        assert not validate_path(robot, empty_world, q, path, 0.05)

    def test_colliding_segment_rejected(self, robot):
        world = WorldModel((sphere_obstacle((2.0, 1.0, 0.0), 0.3),))
        q = Query(start=[1, 1], goal=config_goal([3, 1], tol=[0.0, 0.0]),
                  time_budget=1.0)
        path = Path(np.array([[1.0, 1.0], [3.0, 1.0]]))
        assert not validate_path(robot, world, q, path, 0.05)

    @pytest.mark.parametrize("count", [1, 2])
    def test_colliding_lone_waypoint_rejected(self, robot, count):
        # A one-waypoint path has no segment, yet its waypoint is checked
        # as two equal waypoints are.
        world = WorldModel((sphere_obstacle((1.0, 1.0, 0.0), 0.3),))
        q = Query(start=[1, 1], goal=config_goal([1, 1]), time_budget=1.0)
        path = Path(np.array([[1.0, 1.0]] * count))
        assert not validate_path(robot, world, q, path, 0.05)

    def test_stored_fine_paths_skip_proven_samples(self, monkeypatch):
        # The 58 stored paths of the benchmark's validate-fine workload, at
        # their step 0.005: every stored verdict, with most samples proven
        # free unchecked: 12,140 configurations in 257 kernel calls, where
        # checking every sample takes 97,485 in 984.  A path is one proof
        # group, so its first colliding row ends its check; one group per
        # segment would take 12,230 in 287.
        doc = json.loads((FilePath(__file__).resolve().parents[1] / "benchmark"
                          / "paths_fine.json").read_text(encoding="utf-8"))
        base = load_scenario(data_path("scenarios", "shelf_reach.yaml"))
        scenes = generate_variations(base, "objects_only", 30, doc["suite_seed"])
        tolerance = load_params(data_path("params", "shelf_tuned.yaml")).goal_tolerance_default
        checked = {"calls": 0, "configs": 0}
        fk = collision.sphere_centers_batch

        def counted(robot, configs):
            checked["calls"] += 1
            checked["configs"] += len(configs)
            return fk(robot, configs)

        for entry in doc["paths"]:
            scene = scenes[entry["scene"]]
            query = query_from_scenario(scene, tolerance)
            screened = validate_query(scene.robot, scene.world, query) == OK
            with monkeypatch.context() as patch:
                patch.setattr(collision, "sphere_centers_batch", counted)
                valid = validate_path(scene.robot, scene.world, query,
                                      Path(np.array(entry["waypoints"])), doc["step"])
            assert (screened and valid) is entry["valid"]
        assert len(doc["paths"]) == 58
        assert checked == {"calls": 257, "configs": 12_140}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_waypoint_rejected(self, bad):
        # A NaN or infinite waypoint would reach motion sampling as a
        # non-finite length; the path itself refuses it.
        with pytest.raises(ValidationError, match="finite"):
            Path(np.array([[1.0, 1.0], [bad, 2.0], [3.0, 1.0]]))


@pytest.mark.parametrize("start, budget", [
    ([np.nan, 1.0], 1.0), ([[1.0, 1.0]], 1.0), ([1.0, 1.0], np.inf),
    ([True, 1.0], 1.0), (["1.0", 1.0], 1.0), (np.array([True, False]), 1.0),
    ([1.0, 1.0], True), ([1.0, 1.0], "1.0"), ([1.0, 1.0], None),
], ids=["nan-start", "2d-start", "inf-budget", "bool-start", "string-start",
        "bool-array-start", "bool-budget", "string-budget", "none-budget"])
def test_malformed_query_rejected(start, budget):
    with pytest.raises(ValidationError):
        Query(start=start, goal=config_goal([2, 2]), time_budget=budget)


class TestQueryFromScenario:
    def test_default_tolerance_applied(self, tmp_path):
        robot_doc = ("joints:\n"
                     "  - {name: x, type: prismatic, axis: [1, 0, 0],"
                     " limits: [0.0, 6.0], resolution: 0.02}\n"
                     "  - {name: y, type: prismatic, axis: [0, 1, 0],"
                     " limits: [0.0, 6.0], resolution: 0.02}\n"
                     "collision_spheres:\n"
                     "  - {link: 1, center: [0, 0, 0], radius: 0.05}\n")
        (tmp_path / "g.yaml").write_text(robot_doc)
        from planbench.world import parse_scenario
        doc = ("name: t\nrobot: g.yaml\nstart: [1.0, 1.0]\n"
               "goal: {type: config, target: [2.0, 2.0]}\n"
               "world: {obstacles: []}\ntime_budget_s: 1.0\n")
        scenario = parse_scenario(doc, base_dir=tmp_path)
        query = query_from_scenario(scenario, goal_tolerance_default=0.25)
        assert np.allclose(query.goal.tolerance, [0.25, 0.25])
        # Explicit tolerances are never overridden.
        doc2 = doc.replace("target: [2.0, 2.0]}", "target: [2.0, 2.0], tolerance: [0.1, 0.1]}")
        scenario2 = parse_scenario(doc2, base_dir=tmp_path)
        query2 = query_from_scenario(scenario2, goal_tolerance_default=0.25)
        assert np.allclose(query2.goal.tolerance, [0.1, 0.1])


class TestSolvedResultsValidate:
    def test_every_solved_result_passes_validate_path(self):
        # End-to-end self-check: random worlds and queries, both planners.
        from planbench.ara_star import AraParams, default_primitives, plan_ara_star
        from planbench.rrt_connect import RrtParams, plan_rrt_connect
        from conftest import random_world

        robot = gantry_robot(resolution=0.25)
        primitives = default_primitives(robot)
        rng = np.random.default_rng(61)
        solved = 0
        for case in range(40):
            world = random_world(rng, count=int(rng.integers(0, 4)), span=4.0)
            start = sample_uniform(robot, rng)
            target = sample_uniform(robot, rng)
            q = Query(start=start, goal=GoalSpec.config_goal(target, [0.0, 0.0]),
                      time_budget=2.0)
            for planner, plan in (("rrt", plan_rrt_connect), ("ara", plan_ara_star)):
                if planner == "rrt":
                    result = plan(robot, world, q, RrtParams(), case)
                else:
                    result = plan(robot, world, q, primitives,
                                  AraParams(epsilon_schedule=(3.0, 1.0)))
                if result.path is not None:
                    solved += 1
                    assert validate_path(robot, world, q, result.path, 0.05), \
                        (planner, case)
        assert solved >= 50  # most random cases are solvable


SHELF_EASY = load_scenario(data_path("scenarios", "shelf_easy.yaml"))
# Goals whose box is not arm8's 8 joints: a one-joint box was broadcast
# over every joint (ok and solved, or unsolvable), a two-joint one met
# numpy's broadcasting error.
WRONG_GOALS = {"one_joint_wide": GoalSpec(type="region", lower=[-5.0], upper=[5.0]),
               "one_joint_narrow": GoalSpec(type="region", lower=[-0.5], upper=[0.5]),
               "two_joint_region": GoalSpec(type="region", lower=[-1, -1], upper=[1, 1]),
               "two_joint_config": config_goal([0.1, 0.2])}


class TestDimensionContract:
    """Every robot-sized array passes robot.as_configurations: a wrong size
    raises ContractViolation naming the input and both shapes, never a
    verdict or a numpy error."""

    @pytest.mark.parametrize("goal", WRONG_GOALS.values(), ids=WRONG_GOALS)
    def test_wrong_size_goal_raises(self, goal):
        from planbench.ara_star import AraParams, default_primitives, plan_ara_star
        from planbench.rrt_connect import RrtParams, plan_rrt_connect

        robot, world, start = SHELF_EASY.robot, SHELF_EASY.world, SHELF_EASY.start
        q = Query(start=start, goal=goal, time_budget=5.0)
        expected = rf"goal has shape \({goal.dof},\), expected \(8,\)"
        calls = [lambda: validate_query(robot, world, q),
                 lambda: plan_rrt_connect(robot, world, q, RrtParams(), 0),
                 lambda: plan_ara_star(robot, world, q, default_primitives(robot), AraParams()),
                 lambda: validate_path(robot, world, q, Path(np.array([start, start])), 0.05)]
        for call in calls:
            with pytest.raises(ContractViolation, match=expected):
                call()

    def test_wrong_size_path_raises(self):
        robot, world = SHELF_EASY.robot, SHELF_EASY.world
        q = query_from_scenario(SHELF_EASY)
        path = Path(np.zeros((2, 7)))
        for call in (lambda: validate_path(robot, world, q, path, 0.05),
                     lambda: path_cost(robot, path),
                     lambda: collision.path_free(robot, world, path.waypoints, 0.05)):
            with pytest.raises(ContractViolation, match=r"path has shape \(2, 7\), "
                                                        r"expected \(k, 8\)"):
                call()

    def test_wrong_size_start_raises_in_validate_path(self):
        robot, world = SHELF_EASY.robot, SHELF_EASY.world
        q = Query(start=SHELF_EASY.start[:7], goal=SHELF_EASY.goal, time_budget=5.0)
        path = Path(np.array([SHELF_EASY.start, SHELF_EASY.goal.target]))
        with pytest.raises(ContractViolation, match=r"start has shape \(7,\)"):
            validate_path(robot, world, q, path, 0.05)
        with pytest.raises(ContractViolation, match=r"shape \(7,\), expected \(8,\)"):
            validate_query(robot, world, q)

    @pytest.mark.parametrize("shape", [(3, 7), (3, 9), (8,), (1, 1, 8), ()])
    def test_wrong_size_batch_raises(self, shape):
        from planbench.robot import sphere_centers_batch
        from planbench.rrt_connect import Tree, nearest

        robot, world, start = SHELF_EASY.robot, SHELF_EASY.world, SHELF_EASY.start
        bad = np.zeros(shape)
        calls = [lambda: collision.free_mask(robot, world, bad),
                 lambda: sphere_centers_batch(robot, bad),
                 lambda: collision.motions_free(robot, world, start, bad, 0.05),
                 lambda: nearest(Tree(robot, start), bad)]
        for call in calls:
            with pytest.raises(ContractViolation,
                               match=re.escape(f"has shape {shape}, expected (k, 8)")):
                call()

    @pytest.mark.parametrize("shape", [(7,), (2, 7), (1, 1, 8)])
    def test_wrong_size_motion_start_raises(self, shape):
        robot, world, start = SHELF_EASY.robot, SHELF_EASY.world, SHELF_EASY.start
        with pytest.raises(ContractViolation, match=re.escape(f"motion starts has shape {shape}")):
            collision.motions_free(robot, world, np.zeros(shape), np.array([start, start]), 0.05)

    def test_wrong_size_check_motion_raises(self):
        robot, world, start = SHELF_EASY.robot, SHELF_EASY.world, SHELF_EASY.start
        for a, b in ((start[:7], start), (start, np.append(start, 0.0))):
            with pytest.raises(ContractViolation, match=r"expected \(8,\)"):
                collision.check_motion(robot, world, a, b, 0.05)

    def test_wrong_size_primitives_raise(self):
        from planbench.ara_star import AraParams, default_primitives, plan_ara_star

        robot, world = SHELF_EASY.robot, SHELF_EASY.world
        primitives = default_primitives(random_robot(np.random.default_rng(5), dof=3))
        with pytest.raises(ContractViolation, match=r"primitives has shape \(6, 3\)"):
            plan_ara_star(robot, world, query_from_scenario(SHELF_EASY), primitives,
                          AraParams())

    def test_well_formed_float64_input_is_not_copied(self):
        from planbench.robot import as_configuration, as_configurations

        robot = SHELF_EASY.robot
        rows = np.zeros((3, 8))
        assert as_configurations(robot, rows, "rows") is rows
        assert np.shares_memory(as_configuration(robot, rows[0]), rows)
        assert as_configurations(robot, [[0] * 8], "rows").dtype == np.float64
