"""Anytime search: optimality at eps=1, bounded suboptimality, equality with
the eager search, planning wrapper."""

import dataclasses
import math
import time

import numpy as np
import pytest

from planbench import ara_star, collision
from planbench.ara_star import (AraParams, LatticeCache, MotionPrimitiveSet, ara_search,
                                decode, default_primitives, discretize,
                                lattice_max_coords, plan_ara_star)
from planbench.bench import ARA_STAR, run_one
from planbench.collision import check_motion, free_mask
from planbench.core import (BUDGET_GRACE, FAILURE, OK, SOLVED_BACKWARD, SOLVED_FORWARD,
                            UNSOLVABLE, Query, goal_satisfied, query_from_scenario,
                            validate_path, validate_query)
from planbench.data import data_path
from planbench.errors import ValidationError
from planbench.params import PlannerParams, parse_params
from planbench.world import GoalSpec, WorldModel, generate_variations, load_scenario

from conftest import gantry_robot, lattice_instance, random_robot, solution_cost
from oracles import ara_search_eager, box_obstacle, dijkstra_lattice, sphere_obstacle


class TestParams:
    def test_schedule_must_decrease(self):
        with pytest.raises(ValidationError):
            AraParams(epsilon_schedule=(2.0, 2.0))

    def test_schedule_must_be_at_least_one(self):
        with pytest.raises(ValidationError):
            AraParams(epsilon_schedule=(0.5,))

    def test_schedule_non_empty(self):
        with pytest.raises(ValidationError):
            AraParams(epsilon_schedule=())


class TestAraSearch:
    def test_optimal_at_unit_epsilon(self):
        rng = np.random.default_rng(101)
        params = AraParams(epsilon_schedule=(1.0,), edge_step=0.05)
        solved = 0
        for _ in range(10):
            robot, world, start, goal, prim, optimum = lattice_instance(
                rng, require_solvable=True)
            solution, stats = ara_search(start, goal, prim, params, robot, world,
                                         deadline=math.inf)
            assert solution is not None
            assert solution_cost(robot, solution) == pytest.approx(optimum, abs=1e-9)
            solved += 1
        assert solved == 10

    def test_bounded_suboptimality_and_monotone_incumbents(self):
        rng = np.random.default_rng(202)
        schedule = (3.0, 2.0, 1.5, 1.0)
        params = AraParams(epsilon_schedule=schedule, edge_step=0.05)
        for _ in range(8):
            robot, world, start, goal, prim, optimum = lattice_instance(
                rng, require_solvable=True)
            solution, stats = ara_search(start, goal, prim, params, robot, world,
                                         deadline=math.inf)
            assert solution is not None
            previous = math.inf
            for eps, cost in zip(schedule, stats.incumbent_costs):
                if cost is None:
                    continue
                assert cost <= eps * optimum + 1e-9
                assert cost <= previous + 1e-12
                previous = cost
            assert stats.incumbent_costs[-1] == pytest.approx(optimum, abs=1e-9)

    def test_start_satisfying_goal_is_immediate(self):
        robot = gantry_robot(resolution=0.5)
        goal = GoalSpec(type="region", lower=[2.0, 2.0], upper=[4.0, 4.0])
        start = discretize(robot, [3.0, 3.0])
        params = AraParams(epsilon_schedule=(3.0, 1.0), edge_step=0.05)
        solution, stats = ara_search(start, goal, default_primitives(robot),
                                     params, robot, WorldModel(()), deadline=math.inf)
        assert solution is not None
        assert solution_cost(robot, solution) == 0.0
        assert len(solution) == 1
        assert stats.expansions_per_epsilon[0] == 1  # the start only

    @pytest.mark.parametrize("seed", range(12))
    def test_goal_test_is_goal_satisfied_on_every_cell(self, seed):
        # One primitive longer than the lattice leaves every state without a
        # move, so a search returns its start alone iff the search's goal
        # test accepts the start's cell, and nothing otherwise.  Each goal
        # bound lies exactly on a lattice value or strictly between two.
        rng = np.random.default_rng(seed)
        robot = random_robot(rng, dof=int(rng.integers(1, 4)), n_spheres=0,
                             lattice_cells=(2, 7))
        max_coords = lattice_max_coords(robot)
        far = [int(max_coords.max()) + 1] + [0] * (robot.dof - 1)
        primitives = MotionPrimitiveSet(primitives=[far, [-v for v in far]],
                                        snap_radius=0.0)
        params = AraParams(epsilon_schedule=(1.0,))
        goals, shape = [], (2, robot.dof)
        for _ in range(4):
            # A lattice value, or that value moved by a fraction of a cell.
            off = rng.integers(-1, 2, size=shape) * rng.uniform(0.01, 0.99, size=shape)
            bounds = decode(robot, rng.integers(0, max_coords + 1, size=shape))
            bounds += off * robot.resolutions
            goals.append(GoalSpec(type="region", lower=bounds.min(axis=0),
                                  upper=bounds.max(axis=0)))
        cell = decode(robot, rng.integers(0, max_coords + 1, size=robot.dof))
        goals.append(GoalSpec.config_goal(cell, tolerance=robot.resolutions / 2.0))
        for goal in goals:
            for state in np.ndindex(*(max_coords + 1)):
                solution, _ = ara_search(state, goal, primitives, params, robot,
                                         WorldModel(()), deadline=math.inf)
                q = decode(robot, state)
                assert (solution is not None) == goal_satisfied(goal, q)
                assert solution is None or np.array(solution).tobytes() == q.tobytes()

    def test_deadline_returns_current_incumbent(self):
        robot = gantry_robot(resolution=0.02)
        goal = GoalSpec.config_goal([5.0, 5.0], [0.0, 0.0])
        start = discretize(robot, [1.0, 1.0])
        params = AraParams(epsilon_schedule=(3.0, 1.0), edge_step=0.05)
        deadline = time.perf_counter() + 0.05
        solution, stats = ara_search(start, goal, default_primitives(robot),
                                     params, robot, WorldModel(()), deadline)
        # Either an incumbent was found in time or none: both are valid; the
        # call must simply return promptly.
        assert time.perf_counter() - deadline < 0.5

    def test_shared_cache_keeps_snap_verdicts_per_goal(self):
        # The forward and backward attempts share one cache but snap to
        # different configurations: a free snap edge toward the first goal
        # must not stand for the blocked one toward the second.
        robot = gantry_robot(extent=6.0, resolution=0.5)
        world = WorldModel((box_obstacle((3.2, 3.0, 0.0), (0.02, 0.3, 0.3)),))
        primitives = default_primitives(robot)  # snap radius 1.0
        params = AraParams(epsilon_schedule=(1.0,))
        cache = LatticeCache()
        for target in ([2.6, 3.0], [3.4, 3.0]):  # the wall is at x = 3.2
            goal = GoalSpec.config_goal(target, [0.0, 0.0])
            solution, _ = ara_search((6, 6), goal, primitives, params, robot,
                                     world, deadline=math.inf, cache=cache)
            path = np.array(solution)
            assert np.array_equal(path[-1], target)
            assert all(check_motion(robot, world, a, b, 0.05)
                       for a, b in zip(path, path[1:]))

    def test_unreachable_goal_returns_none(self):
        robot = gantry_robot(resolution=0.25)
        # Goal enclosed in a solid ring of boxes.
        world = WorldModel((
            box_obstacle((4.0, 4.0, 0.0), (0.75, 0.1, 0.5)),
            box_obstacle((4.0, 2.6, 0.0), (0.75, 0.1, 0.5)),
            box_obstacle((3.3, 3.3, 0.0), (0.1, 0.8, 0.5)),
            box_obstacle((4.7, 3.3, 0.0), (0.1, 0.8, 0.5)),
        ))
        goal = GoalSpec.config_goal([4.0, 3.3], [0.0, 0.0])
        start = discretize(robot, [1.0, 1.0])
        params = AraParams(epsilon_schedule=(1.0,), edge_step=0.05)
        solution, stats = ara_search(start, goal, default_primitives(robot),
                                     params, robot, world, deadline=math.inf)
        assert solution is None
        optimum = dijkstra_lattice(robot, world, default_primitives(robot),
                                   start, goal, 0.05,
                                   goal_config=np.array([4.0, 3.3]))
        assert optimum is None


def assert_same_as_eager(start, goal, primitives, params, robot, world):
    """The lazy search returns the eager search's path, cost, per-iteration
    record and reopened count; returns the record and the count."""
    lazy_counts, eager_counts = {}, {}
    lazy, lazy_stats = ara_search(start, goal, primitives, params, robot, world,
                                  deadline=math.inf, stats=lazy_counts)
    eager, eager_stats = ara_search_eager(start, goal, primitives, params, robot, world,
                                          stats=eager_counts)
    assert dataclasses.astuple(lazy_stats) == dataclasses.astuple(eager_stats)
    reopened = eager_counts.get("reopened", 0)
    assert lazy_counts.get("reopened", 0) == reopened
    assert (lazy is None) == (eager is None)
    if eager is not None:
        assert solution_cost(robot, lazy) == solution_cost(robot, eager)
        assert np.array(lazy).tobytes() == np.array(eager).tobytes()
    return eager_stats, reopened


DEFAULT_SCHEDULE = AraParams().epsilon_schedule


@pytest.fixture(scope="module")
def shelf_suite():
    """The solvable-endpoint scenes of the generated shelf suite: the start
    state, goal, robot and world of each one's forward search."""
    base = load_scenario(data_path("scenarios", "shelf_reach.yaml"))
    scenes = {}
    for scenario in generate_variations(base, "objects_only", 30, seed=424242):
        query = query_from_scenario(scenario)
        robot, world = scenario.robot, scenario.world
        if validate_query(robot, world, query) == OK:
            scenes[scenario.name] = (discretize(robot, query.start), query.goal,
                                     robot, world)
    return scenes


class TestEagerEquivalence:
    """Lazy edge evaluation changes which edges are checked, never the
    search: expansions, incumbents, reopenings and paths equal the search
    that validates every move when its source is expanded."""

    def test_random_lattices(self, lattice_cases):
        cases, _ = lattice_cases
        for robot, world, start, goal, primitives, _ in cases:
            target = decode(robot, discretize(robot, goal.target))
            region = GoalSpec(type="region", lower=target - robot.resolutions,
                              upper=target + robot.resolutions / 2)
            for schedule in ((1.0,), DEFAULT_SCHEDULE):
                params = AraParams(epsilon_schedule=schedule)
                for g in (goal, region):  # goal snap; no snap, several goal states
                    assert_same_as_eager(start, g, primitives, params, robot, world)

    def test_shelf_suite_tuned(self, shelf_suite):
        params = parse_params(
            data_path("params", "shelf_tuned.yaml").read_text()).ara_star
        reopened = 0
        for start, goal, robot, world in shelf_suite.values():
            reopened += assert_same_as_eager(start, goal, default_primitives(robot),
                                             params, robot, world)[1]
        assert len(shelf_suite) == 29 and reopened > 0

    @pytest.mark.parametrize("name", ["shelf_reach_021", "shelf_reach_026",
                                      "shelf_reach_029"])
    def test_shelf_default_schedule(self, shelf_suite, name):
        # On these scenes, applying a state's candidates in cost order rather
        # than generation order changes the epsilon = 1 iteration.
        start, goal, robot, world = shelf_suite[name]
        stats, _ = assert_same_as_eager(start, goal, default_primitives(robot),
                                        AraParams(epsilon_schedule=DEFAULT_SCHEDULE),
                                        robot, world)
        assert len(stats.expansions_per_epsilon) == len(DEFAULT_SCHEDULE)

    def test_shelf_chain_rewired_after_last_iteration(self, shelf_suite):
        # Ending the schedule above 1 leaves an improving candidate of a
        # state on the returned chain unresolved at termination; the eager
        # search rewired that state's parent, for a cheaper path (as on
        # shelf_reach_025).  Candidates left unresolved at eps = 6 also carry
        # into the eps = 2.5 iteration on every scene.
        params = AraParams(epsilon_schedule=(6.0, 2.5))
        for start, goal, robot, world in shelf_suite.values():
            assert_same_as_eager(start, goal, default_primitives(robot), params,
                                 robot, world)
        assert len(shelf_suite) == 29

    def test_shelf_suite_carries_candidates(self, shelf_suite):
        # Only the closed states' candidates are resolved between iterations;
        # the others wait in OPEN for the next one, where many are never
        # needed.  The bound lies between the 165,501 configurations checked
        # with candidates carried and the 314,993 of resolving them all.
        params = AraParams(epsilon_schedule=(6.0, 2.5))
        stats = {}  # summed over the suite
        for start, goal, robot, world in shelf_suite.values():
            ara_search(start, goal, default_primitives(robot), params, robot, world,
                       deadline=math.inf, stats=stats)
        assert stats["collision_checks"] <= 200_000

    def test_backward_attempt_of_slot_scenario(self):
        # The backward search of test_c06: out of the slot toward the start.
        robot = gantry_robot(resolution=0.015)
        world = WorldModel((
            box_obstacle((2.71, 2.8, 0.0), (0.21, 1.8, 0.5)),
            box_obstacle((3.29, 2.8, 0.0), (0.21, 1.8, 0.5)),
            box_obstacle((3.0, 0.95, 0.0), (0.5, 0.1, 0.5)),
        ))
        start = discretize(robot, [3.0, 1.3])
        goal = GoalSpec.config_goal([1.2, 4.8], tolerance=robot.resolutions / 2.0)
        params = AraParams(epsilon_schedule=(50.0,))
        stats, _ = assert_same_as_eager(start, goal, default_primitives(robot),
                                        params, robot, world)
        assert stats.incumbent_costs[0] is not None


@pytest.fixture
def checked_rows(monkeypatch):
    """Every configuration that reaches ``free_mask``, as row bytes."""
    rows = []

    def recording(robot, world, configs, stats=None):
        rows.extend(row.tobytes() for row in configs)
        return free_mask(robot, world, configs, stats=stats)

    monkeypatch.setattr(collision, "free_mask", recording)
    return rows


class TestStateCache:
    """Lattice states carry no verdict of their own: every edge check covers
    both endpoint configurations, so an edge into or out of a colliding
    state is blocked by its own check, and every checked row is counted."""

    def test_colliding_start_blocks_every_edge(self):
        # Only the start cell's own configuration collides: every other
        # configuration of the motions out of it is free, so each edge is
        # blocked by its first row alone.
        robot = gantry_robot(resolution=0.5)
        world = WorldModel((sphere_obstacle((1.0, 1.0, 0.1), 0.055),))
        start = discretize(robot, [1.0, 1.0])
        assert not free_mask(robot, world, decode(robot, start)[None])[0]
        for step in ([0.05, 0.0], [0.0, 0.05], [-0.05, 0.0], [0.0, -0.05]):
            near = decode(robot, start) + step
            assert check_motion(robot, world, near, near + 9 * np.array(step), 0.05)
        goal = GoalSpec(type="region", lower=[4.5, 4.5], upper=[5.5, 5.5])
        solution, _ = ara_search(start, goal, default_primitives(robot),
                                 AraParams(epsilon_schedule=(1.0,)), robot, world,
                                 deadline=math.inf)
        assert solution is None
        assert_same_as_eager(start, goal, default_primitives(robot),
                             AraParams(epsilon_schedule=(1.0,)), robot, world)

    def test_checked_rows_are_counted(self, checked_rows):
        robot = gantry_robot(resolution=0.25)
        world = WorldModel((box_obstacle((3.0, 3.0, 0.0), (0.3, 1.2, 0.5)),
                            box_obstacle((2.0, 4.6, 0.0), (1.0, 0.2, 0.5))))
        goal = GoalSpec(type="region", lower=[4.6, 4.6], upper=[5.2, 5.2])
        params = AraParams(epsilon_schedule=DEFAULT_SCHEDULE)
        stats = {}
        solution, _ = ara_search(discretize(robot, [1.0, 1.0]), goal,
                                 default_primitives(robot), params, robot, world,
                                 deadline=math.inf, stats=stats)
        assert solution is not None
        assert len(checked_rows) == stats["collision_checks"] > 1000
        assert 0 < stats["edges_blocked"] < stats["edges_resolved"]


def simple_query(goal_xy=(5.0, 5.0), budget=10.0, tol=0.0):
    goal = GoalSpec.config_goal(list(goal_xy), [tol, tol])
    return Query(start=[1.0, 1.0], goal=goal, time_budget=budget)


def backward_junction_case(monkeypatch):
    """(robot, world, query, primitives, params) solved backward only: the
    forward attempt gets no budget, and with no goal snap the backward
    search ends on the off-lattice start's cell, not at the start."""
    monkeypatch.setattr(ara_star, "BUDGET_SPLIT", 0.0)
    robot = gantry_robot(resolution=0.25)
    query = Query(start=[1.13, 1.21], goal=GoalSpec.config_goal([4.0, 4.0], [0.0, 0.0]),
                  time_budget=10.0)
    return (robot, WorldModel(()), query, default_primitives(robot, snap_radius=0.0),
            AraParams(epsilon_schedule=(3.0, 1.0)))


def thin_wall_case(monkeypatch):
    """(robot, world, query, primitives, params) that fails after the
    backward search: a wall 0.02 thick splits the plane between the
    off-lattice start (1.1, 1.0) and its cell center (1.0, 1.0)."""
    robot = gantry_robot(resolution=0.25, radius=0.01)
    world = WorldModel((box_obstacle((1.05, 3.0, 0.0), (0.01, 3.1, 0.5)),))
    query = Query(start=[1.1, 1.0], goal=GoalSpec.config_goal([0.5, 4.0], [0.0, 0.0]),
                  time_budget=10.0)
    return (robot, world, query, default_primitives(robot),
            AraParams(epsilon_schedule=(3.0, 1.0), edge_step=0.01))


def free_case(query):
    def case(monkeypatch):
        robot = gantry_robot(resolution=0.25)
        return (robot, WorldModel(()), query, default_primitives(robot),
                AraParams(epsilon_schedule=(3.0, 1.0)))
    return case


def start_in_collision_case(monkeypatch):
    robot = gantry_robot(resolution=0.25)
    world = WorldModel((box_obstacle((1.0, 1.0, 0.0), (0.3, 0.3, 0.3)),))
    return (robot, world, simple_query(), default_primitives(robot),
            AraParams(epsilon_schedule=(3.0, 1.0)))


ARA_COUNTERS = ["check_calls", "collision_checks", "edges_blocked", "edges_resolved",
                "expansions", "expansions_backward", "expansions_forward", "reopened"]


class TestPinnedWork:
    """ARA*'s work counters on the shelf suite (seed 424242), pinned to
    literal values.  Which states share a collision call (the lookahead
    batch) decides ``check_calls``, and the edges each call checks decide
    ``collision_checks`` and ``edges_resolved``, so a change to the batch or
    to the edges fails here even where paths and costs do not change."""

    @staticmethod
    def counters(params, names=None):
        """Each scene's counters in ``ARA_COUNTERS`` order; every scene's when
        ``names`` is None."""
        base = load_scenario(data_path("scenarios", "shelf_reach.yaml"))
        scenes = generate_variations(base, "objects_only", 30, seed=424242)
        primitives = default_primitives(base.robot)
        return {s.name: [run_one(s, ARA_STAR, params, i, primitives).stats[c]
                         for c in ARA_COUNTERS]
                for i, s in enumerate(scenes) if names is None or s.name in names}

    def test_shelf_suite_tuned(self):
        params = parse_params(data_path("params", "shelf_tuned.yaml").read_text())
        per_scene = self.counters(params)
        totals = dict(zip(ARA_COUNTERS, map(sum, zip(*per_scene.values()))))
        assert totals == {"check_calls": 1797, "collision_checks": 100665,
                          "edges_blocked": 4908, "edges_resolved": 9490,
                          "expansions": 2132, "expansions_backward": 0,
                          "expansions_forward": 2132, "reopened": 58}

    def test_shelf_scenes_default_schedule(self):
        # The default schedule (3, 2, 1.5, 1) re-keys OPEN three times.
        got = self.counters(PlannerParams(), ("shelf_reach_002", "shelf_reach_010",
                                              "shelf_reach_015"))
        assert got == {"shelf_reach_002": [155, 11046, 323, 1118, 345, 0, 345, 2],
                       "shelf_reach_010": [318, 27044, 683, 2716, 751, 0, 751, 2],
                       "shelf_reach_015": [150, 11153, 306, 1134, 348, 0, 348, 2]}


class TestPlanAraStar:
    def test_free_world_forward(self):
        robot = gantry_robot(resolution=0.25)
        params = AraParams(epsilon_schedule=(3.0, 1.0), edge_step=0.05)
        query = simple_query()
        result = plan_ara_star(robot, WorldModel(()), query,
                               default_primitives(robot), params)
        assert result.status == SOLVED_FORWARD
        assert validate_path(robot, WorldModel(()), query, result.path, 0.05)

    def test_off_lattice_endpoints_joined_exactly(self):
        robot = gantry_robot(resolution=0.25)
        params = AraParams(epsilon_schedule=(3.0, 1.0), edge_step=0.05)
        # Start and goal deliberately off the lattice.
        goal = GoalSpec.config_goal([4.87, 4.61], [0.0, 0.0])
        query = Query(start=[1.13, 1.21], goal=goal, time_budget=10.0)
        result = plan_ara_star(robot, WorldModel(()), query,
                               default_primitives(robot), params)
        assert result.status == SOLVED_FORWARD
        assert np.array_equal(result.path.waypoints[0], np.array([1.13, 1.21]))
        assert np.array_equal(result.path.waypoints[-1], np.array([4.87, 4.61]))
        assert validate_path(robot, WorldModel(()), query, result.path, 0.05)

    def test_start_in_collision_unsolvable_without_expansion(self):
        robot = gantry_robot(resolution=0.25)
        world = WorldModel((box_obstacle((1.0, 1.0, 0.0), (0.3, 0.3, 0.3)),))
        params = AraParams(epsilon_schedule=(3.0, 1.0), edge_step=0.05)
        result = plan_ara_star(robot, world, simple_query(),
                               default_primitives(robot), params)
        assert result.status == UNSOLVABLE
        assert result.reason == "start_in_collision"
        assert result.stats.get("expansions", 0) == 0

    def test_start_satisfies_goal(self):
        robot = gantry_robot(resolution=0.25)
        params = AraParams(epsilon_schedule=(3.0, 1.0), edge_step=0.05)
        goal = GoalSpec.config_goal([1.0, 1.0], [0.5, 0.5])
        query = Query(start=[1.0, 1.0], goal=goal, time_budget=5.0)
        result = plan_ara_star(robot, WorldModel(()), query,
                               default_primitives(robot), params)
        assert result.status == SOLVED_FORWARD
        assert len(result.path) == 1

    def test_deterministic(self):
        robot = gantry_robot(resolution=0.25)
        world = WorldModel((box_obstacle((3.0, 3.0, 0.0), (0.3, 1.2, 0.5)),))
        params = AraParams(epsilon_schedule=(3.0, 1.0), edge_step=0.05)
        a = plan_ara_star(robot, world, simple_query(), default_primitives(robot), params)
        b = plan_ara_star(robot, world, simple_query(), default_primitives(robot), params)
        assert a.status == b.status == SOLVED_FORWARD
        assert np.array_equal(a.path.waypoints, b.path.waypoints)

    def test_region_goal_forward(self):
        robot = gantry_robot(resolution=0.25)
        goal = GoalSpec(type="region", lower=[4.5, 4.5], upper=[5.5, 5.5])
        query = Query(start=[1.0, 1.0], goal=goal, time_budget=10.0)
        params = AraParams(epsilon_schedule=(3.0, 1.0), edge_step=0.05)
        result = plan_ara_star(robot, WorldModel(()), query,
                               default_primitives(robot), params)
        assert result.status == SOLVED_FORWARD
        assert goal_satisfied(goal, result.path.waypoints[-1])
        assert validate_path(robot, WorldModel(()), query, result.path, 0.05)

    def test_backward_direction_on_slot_scenario(self):
        # Goal buried in a deep slot whose interior is tiny: the forward
        # search floods the open basin and exhausts its half budget, while
        # the backward search escapes the slot quickly and runs home.
        robot = gantry_robot(resolution=0.015)
        world = WorldModel((
            box_obstacle((2.71, 2.8, 0.0), (0.21, 1.8, 0.5)),   # left wall
            box_obstacle((3.29, 2.8, 0.0), (0.21, 1.8, 0.5)),   # right wall
            box_obstacle((3.0, 0.95, 0.0), (0.5, 0.1, 0.5)),    # slot floor
        ))
        goal = GoalSpec.config_goal([3.0, 1.3], [0.0, 0.0])
        query = Query(start=[1.2, 4.8], goal=goal, time_budget=4.0)
        params = AraParams(epsilon_schedule=(50.0,), edge_step=0.05)
        result = plan_ara_star(robot, world, query, default_primitives(robot), params)
        assert result.status == SOLVED_BACKWARD
        assert validate_path(robot, world, query, result.path, 0.05)

    def test_backward_solution_joined_to_an_off_lattice_start(self, monkeypatch):
        # The forward attempt returns at its expired deadline; the start
        # junction joins the start to the backward search's first waypoint.
        robot, world, query, primitives, params = backward_junction_case(monkeypatch)
        result = plan_ara_star(robot, world, query, primitives, params)
        assert result.status == SOLVED_BACKWARD
        waypoints = result.path.waypoints
        assert np.array_equal(waypoints[0], query.start)
        assert np.array_equal(waypoints[1], decode(robot, discretize(robot, query.start)))
        assert result.stats["expansions_forward"] == 0
        assert result.stats["expansions_backward"] > 0
        assert validate_path(robot, world, query, result.path, 0.05)

    def test_blocked_junctions_fail_after_the_backward_search(self, monkeypatch):
        # The wall blocks the forward junction from the start to its cell;
        # the backward search ends on that cell (the goal snap to the start
        # crosses the wall too), and the start junction is blocked again.
        robot, world, query, primitives, params = thin_wall_case(monkeypatch)
        start_cell = decode(robot, discretize(robot, query.start))
        assert free_mask(robot, world, np.array([query.start, start_cell])).all()
        assert not check_motion(robot, world, query.start, start_cell, params.edge_step)
        result = plan_ara_star(robot, world, query, primitives, params)
        assert result.status == FAILURE
        assert result.stats["expansions_forward"] == 0
        assert result.stats["expansions_backward"] > 0

    @pytest.mark.parametrize("case, status", [
        (start_in_collision_case, UNSOLVABLE),
        (free_case(Query(start=[1.0, 1.0], goal=GoalSpec.config_goal([1.0, 1.0], [0.5, 0.5]),
                         time_budget=5.0)), SOLVED_FORWARD),
        (free_case(simple_query()), SOLVED_FORWARD),
        (backward_junction_case, SOLVED_BACKWARD),
        (thin_wall_case, FAILURE),
    ], ids=["start-in-collision", "start-in-goal", "forward", "backward", "failure"])
    def test_every_result_carries_the_same_counters(self, monkeypatch, case, status):
        result = plan_ara_star(*case(monkeypatch))
        assert result.status == status
        assert sorted(result.stats) == ARA_COUNTERS

    def test_budget_respected(self):
        robot = gantry_robot(resolution=0.02)
        world = WorldModel((
            box_obstacle((4.0, 4.0, 0.0), (0.6, 0.05, 0.5)),
            box_obstacle((4.0, 2.8, 0.0), (0.6, 0.05, 0.5)),
            box_obstacle((3.4, 3.4, 0.0), (0.05, 0.65, 0.5)),
            box_obstacle((4.6, 3.4, 0.0), (0.05, 0.65, 0.5)),
        ))
        goal = GoalSpec.config_goal([4.0, 3.4], [0.0, 0.0])
        budget = 0.8
        query = Query(start=[1.0, 1.0], goal=goal, time_budget=budget)
        params = AraParams(epsilon_schedule=(1.0,), edge_step=0.05)
        t0 = time.perf_counter()
        result = plan_ara_star(robot, world, query, default_primitives(robot), params)
        assert result.status == FAILURE
        assert result.planning_time <= budget + 0.05
        assert time.perf_counter() - t0 <= budget + 0.5

    def test_budget_grace_with_mostly_blocked_edges(self):
        # A field of posts blocks most lattice edges and the goal is walled
        # in, so lazy resolution runs until the deadline.
        robot = gantry_robot(resolution=0.02, radius=0.05)
        posts = tuple(box_obstacle((0.3 + 0.25 * i, 0.3 + 0.25 * j, 0.0),
                                   (0.06, 0.06, 0.5))
                      for i in range(22) for j in range(22))
        walls = (
            box_obstacle((4.0, 4.0, 0.0), (0.6, 0.05, 0.5)),
            box_obstacle((4.0, 2.8, 0.0), (0.6, 0.05, 0.5)),
            box_obstacle((3.4, 3.4, 0.0), (0.05, 0.65, 0.5)),
            box_obstacle((4.6, 3.4, 0.0), (0.05, 0.65, 0.5)),
        )
        world = WorldModel(posts + walls)
        goal = GoalSpec.config_goal([4.175, 3.425], [0.0, 0.0])  # between posts
        budget = 0.3
        query = Query(start=[0.17, 0.17], goal=goal, time_budget=budget)
        params = AraParams(epsilon_schedule=(3.0, 1.0), edge_step=0.05)
        result = plan_ara_star(robot, world, query, default_primitives(robot), params)
        assert result.status == FAILURE
        assert result.stats["expansions"] > 0
        assert result.planning_time <= budget + BUDGET_GRACE
