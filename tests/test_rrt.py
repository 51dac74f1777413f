"""RRT-Connect: tree mechanics, extend/connect semantics, full planning."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from planbench.collision import check_motion
from planbench.core import (FAILURE, SOLVED_FORWARD, UNSOLVABLE, BUDGET_GRACE, Query,
                            query_from_scenario, validate_path)
from planbench.data import data_path
from planbench.errors import ContractViolation, ValidationError
from planbench.params import load_params
from planbench.robot import config_distance
from planbench import rrt_connect
from planbench.rrt_connect import (ADVANCED, LOOKAHEAD, REACHED, TRAPPED, RrtParams,
                                   Tree, connect, extend, nearest, plan_rrt_connect)
from planbench.world import GoalSpec, WorldModel, generate_variations, load_scenario

from conftest import gantry_robot, random_robot
from oracles import box_obstacle, rrt_connect_sequential, sample_uniform


@pytest.fixture
def robot():
    return gantry_robot()


PARAMS = RrtParams(step_eta=0.5, edge_step=0.05)


class TestNearest:
    def test_single_node(self, robot):
        tree = Tree(robot, [1.0, 1.0])
        assert nearest(tree, [[5.0, 5.0]]).tolist() == [0]

    def test_existing_node_lowest_index_tie(self, robot):
        tree = Tree(robot, [1.0, 1.0])
        tree.add(np.array([2.0, 2.0]), 0)
        tree.add(np.array([2.0, 2.0]), 0)  # duplicate: tie breaks to index 1
        assert nearest(tree, [[2.0, 2.0]]).tolist() == [1]

    def test_rejects_a_single_configuration(self, robot):
        tree = Tree(robot, [1.0, 1.0])
        with pytest.raises(ContractViolation):
            nearest(tree, [2.0, 2.0])

    def test_matches_linear_scan_oracle(self, robot):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            tree = Tree(robot, sample_uniform(robot, rng))
            for _ in range(int(rng.integers(1, 30))):
                tree.add(sample_uniform(robot, rng), 0)
            targets = np.array([sample_uniform(robot, rng)
                                for _ in range(int(rng.integers(1, 6)))])
            want = []
            for q in targets:
                best, best_d = 0, None
                for i in range(tree.size):
                    d = config_distance(robot, tree.nodes[i], q)
                    if best_d is None or d < best_d:
                        best, best_d = i, d
                want.append(best)
            assert nearest(tree, targets).tolist() == want

    @pytest.mark.parametrize("size, k", [(257, 16), (1000, 8), (2000, 16), (2000, 1)])
    def test_matches_linear_scan_oracle_at_planner_sizes(self, size, k):
        arm = load_scenario(data_path("scenarios", "shelf_reach.yaml")).robot
        rng = np.random.default_rng(size + k)
        tree = Tree(arm, sample_uniform(arm, rng))
        for _ in range(size - 1):
            tree.add(sample_uniform(arm, rng), 0)
        targets = np.array([sample_uniform(arm, rng) for _ in range(k)])
        want = [min(range(size), key=lambda i: (config_distance(arm, tree.nodes[i], q), i))
                for q in targets]
        assert nearest(tree, targets).tolist() == want

    def test_duplicates_at_the_end_of_a_long_tree_tie_low(self):
        arm = load_scenario(data_path("scenarios", "shelf_reach.yaml")).robot
        rng = np.random.default_rng(5)
        tree = Tree(arm, sample_uniform(arm, rng))
        for _ in range(1499):
            tree.add(sample_uniform(arm, rng), 0)
        fresh = sample_uniform(arm, rng)
        for q in (tree.config(700), tree.config(700), fresh, fresh):
            tree.add(q, 0)
        assert nearest(tree, [tree.config(700), fresh]).tolist() == [700, 1502]


class TestTree:
    def test_matches_a_list_reference_past_capacity_doublings(self, robot):
        rng = np.random.default_rng(8)
        configs, parents = [np.array([1.0, 1.0])], [0]
        tree = Tree(robot, configs[0])
        for index in range(1, 300):
            configs.append(sample_uniform(robot, rng))
            parents.append(int(rng.integers(index)))
            assert tree.add(configs[-1], parents[-1]) == index
        assert tree.size == 300
        assert np.array_equal(tree.nodes, np.array(configs))
        assert [tree.branch(i)[-2] for i in range(1, 300)] == parents[1:]
        for index in (0, 1, 63, 64, 65, 128, 299):
            chain = [index]
            while chain[-1] != 0:
                chain.append(parents[chain[-1]])
            assert tree.branch(index) == chain[::-1]

    def test_config_is_a_copy(self, robot):
        tree = Tree(robot, [1.0, 2.0])
        q = tree.config(0)
        q[:] = 0.0
        assert not np.shares_memory(q, tree.nodes)
        assert tree.nodes.tolist() == [[1.0, 2.0]]


class TestSteps:
    def test_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(13)
        kinds = set()
        for _ in range(20):
            robot = random_robot(rng)
            params = RrtParams(step_eta=float(rng.uniform(0.1, 1.0)), edge_step=0.05)
            q_near, targets = (np.array([sample_uniform(robot, rng) for _ in range(12)])
                               for _ in range(2))
            targets[0] = q_near[0]  # coinciding: no step
            targets[1] = q_near[1] + 1e-3  # within step_eta: reached
            rows = rrt_connect._steps(robot, params, q_near, targets)
            for k, step in enumerate(rows):
                one = rrt_connect._steps(robot, params, q_near[k:k + 1],
                                         targets[k:k + 1])[0]
                kinds.add(None if step is None else step[1])
                assert (step is None) == (one is None)
                if step is not None:
                    assert step[0].tobytes() == one[0].tobytes() and step[1] == one[1]
        assert kinds == {None, True, False}


def lookahead(robot, world, tree):
    """A lookahead cache over ``tree`` and a second tree rooted at its root,
    as ``plan_rrt_connect`` builds one."""
    return rrt_connect._Lookahead(robot, world, PARAMS, 0,
                                  (tree, Tree(robot, tree.config(0))), {})


class TestExtend:
    def test_reached_within_step(self, robot, empty_world):
        tree = Tree(robot, [1.0, 1.0])
        status, idx = extend(tree, [1.2, 1.0], lookahead(robot, empty_world, tree))
        assert status == REACHED
        assert tree.size == 2
        assert np.allclose(tree.nodes[idx], [1.2, 1.0])

    def test_advanced_clamps_to_step(self, robot, empty_world):
        tree = Tree(robot, [1.0, 1.0])
        status, idx = extend(tree, [4.0, 1.0], lookahead(robot, empty_world, tree))
        assert status == ADVANCED
        d = config_distance(robot, tree.nodes[0], tree.nodes[idx])
        assert d == pytest.approx(PARAMS.step_eta, abs=1e-9)

    def test_trapped_leaves_tree_unchanged(self, robot):
        # The start sits inside a one-sided pocket: any motion outward hits.
        world = WorldModel((box_obstacle((1.5, 1.0, 0.0), (0.05, 1.0, 0.5)),
                            box_obstacle((0.5, 1.0, 0.0), (0.05, 1.0, 0.5)),
                            box_obstacle((1.0, 1.6, 0.0), (0.6, 0.05, 0.5)),
                            box_obstacle((1.0, 0.4, 0.0), (0.6, 0.05, 0.5))))
        tree = Tree(robot, [1.0, 1.0])
        status, idx = extend(tree, [4.0, 1.0], lookahead(robot, world, tree))
        assert status == TRAPPED and idx is None
        assert tree.size == 1

    def test_degenerate_target_no_duplicate(self, robot, empty_world):
        tree = Tree(robot, [1.0, 1.0])
        status, idx = extend(tree, [1.0, 1.0], lookahead(robot, empty_world, tree))
        assert status == REACHED and idx == 0
        assert tree.size == 1


class TestConnect:
    def test_counted_extensions_on_free_line(self, robot, empty_world):
        tree = Tree(robot, [1.0, 1.0])
        target = np.array([1.0 + 3 * PARAMS.step_eta, 1.0])
        status, idx = connect(tree, target, lookahead(robot, empty_world, tree), math.inf)
        assert status == REACHED
        assert tree.size == 4  # root + exactly 3 extensions

    def test_immediate_obstacle_trapped(self, robot):
        world = WorldModel((box_obstacle((1.3, 1.0, 0.0), (0.05, 2.0, 0.5)),))
        tree = Tree(robot, [1.0, 1.0])
        status, idx = connect(tree, [4.0, 1.0], lookahead(robot, world, tree), math.inf)
        assert status == TRAPPED
        assert tree.size == 1 and idx is None

    def test_target_equals_nearest(self, robot, empty_world):
        tree = Tree(robot, [1.0, 1.0])
        status, idx = connect(tree, [1.0, 1.0], lookahead(robot, empty_world, tree),
                              math.inf)
        assert status == REACHED and tree.size == 1

    def test_past_deadline_stops_after_one_step(self, robot, empty_world):
        tree = Tree(robot, [1.0, 1.0])
        status, idx = connect(tree, [4.0, 1.0], lookahead(robot, empty_world, tree), 0.0)
        assert status == TRAPPED and idx == 1 and tree.size == 2


def shelf_world():
    # A wall with a gap: start and goal on opposite sides.
    return WorldModel((
        box_obstacle((3.0, 1.5, 0.0), (0.1, 1.5, 0.5)),
        box_obstacle((3.0, 4.9, 0.0), (0.1, 1.1, 0.5)),
    ))


class TestPlan:
    def test_start_satisfies_goal(self, robot, empty_world):
        goal = GoalSpec.config_goal([1.0, 1.0], [0.2, 0.2])
        q = Query(start=[1.0, 1.0], goal=goal, time_budget=1.0)
        result = plan_rrt_connect(robot, empty_world, q, PARAMS, 0)
        assert result.status == SOLVED_FORWARD
        assert len(result.path) == 1
        assert result.planning_time < 0.1

    def test_solves_across_seeds_and_validates(self, robot):
        world = shelf_world()
        goal = GoalSpec.config_goal([5.0, 1.0], [0.0, 0.0])
        q = Query(start=[1.0, 1.0], goal=goal, time_budget=5.0)
        for seed in range(20):
            result = plan_rrt_connect(robot, world, q, RrtParams(), seed)
            assert result.status == SOLVED_FORWARD, seed
            assert validate_path(robot, world, q, result.path, 0.05)

    def test_start_in_collision_unsolvable(self, robot):
        world = WorldModel((box_obstacle((1.0, 1.0, 0.0), (0.3, 0.3, 0.3)),))
        q = Query(start=[1.0, 1.0], goal=GoalSpec.config_goal([5.0, 5.0]),
                  time_budget=1.0)
        result = plan_rrt_connect(robot, world, q, PARAMS, 0)
        assert result.status == UNSOLVABLE
        assert result.reason == "start_in_collision"

    def test_deterministic_given_seed(self, robot):
        world = shelf_world()
        goal = GoalSpec.config_goal([5.0, 1.0], [0.0, 0.0])
        q = Query(start=[1.0, 1.0], goal=goal, time_budget=5.0)
        a = plan_rrt_connect(robot, world, q, RrtParams(), 11)
        b = plan_rrt_connect(robot, world, q, RrtParams(), 11)
        assert a.status == b.status
        assert np.array_equal(a.path.waypoints, b.path.waypoints)
        assert a.stats["iterations"] == b.stats["iterations"]

    def test_budget_respected_on_impossible_query(self, robot):
        # Goal region is enclosed by walls: planner must run out the budget.
        world = WorldModel((
            box_obstacle((4.0, 4.0, 0.0), (0.6, 0.05, 0.5)),
            box_obstacle((4.0, 2.8, 0.0), (0.6, 0.05, 0.5)),
            box_obstacle((3.4, 3.4, 0.0), (0.05, 0.65, 0.5)),
            box_obstacle((4.6, 3.4, 0.0), (0.05, 0.65, 0.5)),
        ))
        goal = GoalSpec.config_goal([4.0, 3.4], [0.0, 0.0])
        budget = 0.8
        q = Query(start=[1.0, 1.0], goal=goal, time_budget=budget)
        t0 = time.perf_counter()
        result = plan_rrt_connect(robot, world, q, PARAMS, 0)
        wall = time.perf_counter() - t0
        assert result.status == FAILURE
        assert result.planning_time <= budget + BUDGET_GRACE
        assert wall <= budget + 10 * BUDGET_GRACE  # generous wall-clock sanity

    def test_max_iterations_bounds_work(self, robot):
        world = shelf_world()
        goal = GoalSpec.config_goal([5.0, 1.0], [0.0, 0.0])
        q = Query(start=[1.0, 1.0], goal=goal, time_budget=30.0)
        params = RrtParams(max_iterations=1)
        result = plan_rrt_connect(robot, world, q, params, 0)
        assert result.stats["iterations"] <= 1

    def test_region_goal_representative(self, robot, empty_world):
        goal = GoalSpec(type="region", lower=[4.5, 4.5], upper=[5.0, 5.0])
        q = Query(start=[1.0, 1.0], goal=goal, time_budget=5.0)
        result = plan_rrt_connect(robot, empty_world, q, PARAMS, 0)
        assert result.status == SOLVED_FORWARD
        assert validate_path(robot, empty_world, q, result.path, 0.05)

    def test_path_endpoints_exact(self, robot):
        world = shelf_world()
        goal = GoalSpec.config_goal([5.0, 1.0], [0.0, 0.0])
        q = Query(start=[1.0, 1.0], goal=goal, time_budget=5.0)
        result = plan_rrt_connect(robot, world, q, RrtParams(), 2)
        assert np.array_equal(result.path.waypoints[0], np.array([1.0, 1.0]))
        assert np.array_equal(result.path.waypoints[-1], np.array([5.0, 1.0]))


class TestTreeInvariants:
    def test_edges_revalidate(self, robot):
        # Every non-root node hangs below an earlier node, and every edge
        # passes the motion check at the planner's edge step.
        world = shelf_world()
        rng = np.random.default_rng(5)
        tree = Tree(robot, [1.0, 1.0])
        cache = lookahead(robot, world, tree)
        for _ in range(100):
            extend(tree, sample_uniform(robot, rng), cache)
        assert tree.size > 10 and tree.branch(0) == [0]
        for child in range(1, tree.size):
            parent = tree.branch(child)[-2]
            assert parent < child
            assert check_motion(robot, world, tree.nodes[parent], tree.nodes[child],
                                PARAMS.edge_step)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            RrtParams(step_eta=0.01, edge_step=0.05)
        with pytest.raises(ValidationError):
            RrtParams(max_iterations=0)


# ---------------------------------------------------------------------------
# The planner's cached loop against the sequential reference loop.

REAL_DEFAULT_RNG = np.random.default_rng


class ScriptedRng:
    """A generator whose uniform draws come from a real one, except that the
    rows numbered in ``script`` (counted over every call) are replaced."""

    def __init__(self, seed, script):
        self._rng = REAL_DEFAULT_RNG(seed)
        self._script = script
        self._row = 0

    def uniform(self, low, high, size=None):
        out = self._rng.uniform(low, high, size)
        for row in np.atleast_2d(out):
            if self._row in self._script:
                row[:] = self._script[self._row]
            self._row += 1
        return out


def assert_same_as_sequential(robot, world, query, params, seed):
    result = plan_rrt_connect(robot, world, query, params, seed)
    status, waypoints, stats = rrt_connect_sequential(robot, world, query, params, seed)
    assert result.status == status
    if waypoints is None:
        assert result.path is None
    else:
        assert result.path.waypoints.tobytes() == waypoints.tobytes()
    assert {key: result.stats[key] for key in stats} == stats
    return result


TUNED = load_params(data_path("params", "shelf_tuned.yaml"))


def shelf_reach_suite():
    base = load_scenario(data_path("scenarios", "shelf_reach.yaml"))
    return generate_variations(base, "objects_only", 4, seed=424242)


class TestSequentialEquivalence:
    @pytest.mark.parametrize("index", range(6))
    def test_shelf_variations(self, index):
        base = load_scenario(data_path("scenarios", "shelf_easy.yaml"))
        scenario = generate_variations(base, "objects_only", 6, seed=7)[index]
        query = query_from_scenario(replace(scenario, time_budget=600.0),
                                    TUNED.goal_tolerance_default)
        for seed in range(3):
            result = assert_same_as_sequential(
                scenario.robot, scenario.world, query, TUNED.rrt_connect, seed)
            assert result.status == SOLVED_FORWARD

    @pytest.mark.parametrize("index", range(4))
    def test_shelf_reach_suite(self, index):
        # The benchmark's scenes: shelf_reach, objects_only, suite seed 424242.
        scenario = shelf_reach_suite()[index]
        query = query_from_scenario(replace(scenario, time_budget=600.0),
                                    TUNED.goal_tolerance_default)
        for seed in range(2):
            result = assert_same_as_sequential(
                scenario.robot, scenario.world, query, TUNED.rrt_connect, seed)
            assert result.status == SOLVED_FORWARD

    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 7])
    def test_bounded_iterations(self, robot, max_iterations):
        world = shelf_world()
        goal = GoalSpec.config_goal([5.0, 1.0], [0.0, 0.0])
        query = Query(start=[1.0, 1.0], goal=goal, time_budget=600.0)
        for seed in range(12):
            params = RrtParams(max_iterations=max_iterations)
            result = assert_same_as_sequential(robot, world, query, params, seed)
            assert result.stats["iterations"] <= max_iterations

    def test_connect_of_the_last_allowed_iteration_runs(self, robot, empty_world):
        # The first extend advances and its connect reaches the goal tree.
        goal = GoalSpec.config_goal([2.0, 1.0], [0.0, 0.0])
        query = Query(start=[1.0, 1.0], goal=goal, time_budget=600.0)
        result = assert_same_as_sequential(robot, empty_world, query,
                                           RrtParams(max_iterations=1), 0)
        assert result.status == SOLVED_FORWARD and result.stats["iterations"] == 1

    def test_region_goal(self, robot):
        goal = GoalSpec(type="region", lower=[4.5, 0.5], upper=[5.5, 1.5])
        query = Query(start=[1.0, 1.0], goal=goal, time_budget=600.0)
        for seed in range(5):
            result = assert_same_as_sequential(robot, shelf_world(), query,
                                               RrtParams(), seed)
            assert result.status == SOLVED_FORWARD

    @pytest.mark.parametrize("script_rows, max_iterations", [
        ((0, 2, 6, 11), None),  # extends of the start tree toward its root
        ((1, 5, 8), None),  # rows 1 and 5 hit the goal root, row 8 the start root
        ((0, 1, 2, 3), 3),
    ])
    def test_degenerate_extends(self, robot, monkeypatch, script_rows, max_iterations):
        start, goal_q = np.array([1.0, 1.0]), np.array([5.0, 1.0])
        script = {row: (goal_q if row % 2 else start) for row in script_rows}
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: ScriptedRng(seed, script))
        query = Query(start=start, goal=GoalSpec.config_goal(goal_q, [0.0, 0.0]),
                      time_budget=600.0)
        for seed in range(3):
            assert_same_as_sequential(robot, shelf_world(), query,
                                      RrtParams(max_iterations=max_iterations), seed)

    def test_degenerate_connect_step(self, robot, empty_world, monkeypatch):
        # Sample 0 is the goal itself: the start tree reaches it, and the
        # connect's first step finds it already in the goal tree.
        start, goal_q = np.array([1.0, 1.0]), np.array([1.4, 1.0])
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: ScriptedRng(seed, {0: goal_q}))
        query = Query(start=start, goal=GoalSpec.config_goal(goal_q, [0.0, 0.0]),
                      time_budget=600.0)
        result = assert_same_as_sequential(robot, empty_world, query, RrtParams(), 0)
        assert result.status == SOLVED_FORWARD and result.stats["nodes"] == 3


class TestLookahead:
    @pytest.mark.parametrize("index", range(3))
    def test_few_collision_calls_per_iteration(self, index):
        scenario = shelf_reach_suite()[index]
        query = query_from_scenario(replace(scenario, time_budget=600.0),
                                    TUNED.goal_tolerance_default)
        result = plan_rrt_connect(scenario.robot, scenario.world, query, TUNED.rrt_connect,
                                  0)
        assert result.status == SOLVED_FORWARD and result.stats["iterations"] >= 200
        assert 3 * result.stats["check_calls"] <= result.stats["iterations"]

    @pytest.mark.parametrize("max_iterations", [1, 2, 17])
    def test_refill_never_steers_past_max_iterations(self, robot, monkeypatch,
                                                     max_iterations):
        # Every steered target passes through nearest; samples from
        # max_iterations on belong to iterations that never run.
        targets = set()
        real_nearest = rrt_connect.nearest

        def recording_nearest(tree, rows):
            targets.update(row.tobytes() for row in np.asarray(rows, dtype=float))
            return real_nearest(tree, rows)

        monkeypatch.setattr(rrt_connect, "nearest", recording_nearest)
        goal = GoalSpec.config_goal([5.0, 1.0], [0.0, 0.0])
        query = Query(start=[1.0, 1.0], goal=goal, time_budget=600.0)
        for seed in range(6):
            targets.clear()
            plan_rrt_connect(robot, shelf_world(), query,
                             RrtParams(max_iterations=max_iterations), seed)
            samples = REAL_DEFAULT_RNG(seed).uniform(
                robot.lower, robot.upper, size=(max_iterations + 2 * LOOKAHEAD, robot.dof))
            assert samples[0].tobytes() in targets
            assert not any(q.tobytes() in targets for q in samples[max_iterations:])

    @pytest.mark.parametrize("index", range(3))
    def test_few_configurations_per_iteration(self, index):
        # Far endpoints are checked first, so most blocked motions cost one
        # configuration; checking every motion in full costs over 16.
        scenario = shelf_reach_suite()[index]
        query = query_from_scenario(replace(scenario, time_budget=600.0),
                                    TUNED.goal_tolerance_default)
        result = plan_rrt_connect(scenario.robot, scenario.world, query, TUNED.rrt_connect,
                                  0)
        assert result.status == SOLVED_FORWARD
        assert result.stats["collision_checks"] <= 12 * result.stats["iterations"]

    def test_blocked_far_endpoint_costs_one_configuration(self, robot, monkeypatch):
        # Sample 0 lies inside the wall, within step_eta of the start: the
        # only motion, [1, 1] -> [3, 1], has 41 configurations.
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: ScriptedRng(seed, {0: [3.0, 1.0]}))
        goal = GoalSpec.config_goal([5.0, 1.0], [0.0, 0.0])
        query = Query(start=[1.0, 1.0], goal=goal, time_budget=600.0)
        result = plan_rrt_connect(robot, shelf_world(), query,
                                  RrtParams(step_eta=3.0, max_iterations=1), 0)
        assert result.path is None
        assert result.stats == {"iterations": 1, "collision_checks": 1,
                                "check_calls": 1, "nodes": 2}

    def test_remembered_nearest_after_the_tree_grows(self, robot, empty_world,
                                                     monkeypatch):
        rng = np.random.default_rng(3)
        trees = (Tree(robot, [1.0, 1.0]), Tree(robot, [5.0, 5.0]))
        for _ in range(20):
            trees[0].add(sample_uniform(robot, rng), 0)
        cache = rrt_connect._Lookahead(robot, empty_world, PARAMS, 0, trees,
                                       {"check_calls": 0})
        root = trees[0].config(0)
        cache.free(root, root)  # a refill steers samples 0..LOOKAHEAD
        tree, closer, tied = trees[0], cache.sample(0), cache.sample(2)
        monkeypatch.setattr(rrt_connect, "nearest", None)  # no full scan from here
        # A node appended strictly closer than the remembered one wins.
        tree.add(closer.copy(), 0)
        assert cache.steer(tree, closer)[0] == nearest(tree, closer[None])[0] == tree.size - 1
        # A node appended exactly as far as the remembered one loses to it.
        older = cache.steer(tree, tied)[0]
        tree.add(tree.config(older), 0)
        assert older < tree.size - 1
        assert cache.steer(tree, tied)[0] == nearest(tree, tied[None])[0] == older
        # The step found with a node is kept with it: a tie returns that step
        # without steering again, a strictly closer node gets a fresh one.
        steps = rrt_connect._steps

        def steer(q_near, target):
            return steps(robot, PARAMS, q_near[None], target[None])[0]

        want = steer(tree.nodes[older], tied)
        monkeypatch.setattr(rrt_connect, "_steps", None)
        index, step = cache.steer(tree, tied)
        assert index == older and np.array_equal(step[0], want[0]) and step[1] == want[1]
        monkeypatch.setattr(rrt_connect, "_steps", steps)
        target = next(q for q in map(cache.sample, range(4, LOOKAHEAD + 1, 2))
                      if not cache.steer(tree, q)[1][1])  # a clamped step
        index, remembered = cache.steer(tree, target)
        tree.add(target + 0.5 * (tree.nodes[index] - target), 0)
        index, step = cache.steer(tree, target)
        want = steer(tree.nodes[index], target)
        assert index == tree.size - 1
        assert np.array_equal(step[0], want[0]) and step[1] == want[1]
        assert not np.array_equal(step[0], remembered[0])
