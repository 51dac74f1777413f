"""Lattice building blocks: discretization, primitives, successors, heuristic."""

import numpy as np
import pytest

from planbench.ara_star import (GOAL_NODE, MotionPrimitiveSet, decode,
                                default_primitives, discretize, heuristic,
                                lattice_max_coords, parse_primitives, successors)
from planbench.core import goal_satisfied
from planbench.data import data_path
from planbench.errors import ValidationError
from planbench.robot import RobotModel, config_distance
from planbench.world import GoalSpec, WorldModel, load_scenario

from conftest import gantry_robot, lattice_instance, make_joint, random_robot
from oracles import (box_obstacle, dijkstra_lattice, sample_uniform, valid_successors,
                     within_limits)


@pytest.fixture
def robot():
    return gantry_robot(extent=6.0, resolution=0.5)


def anywhere(robot):
    """A region goal over the whole joint box: no snap target."""
    return GoalSpec(type="region", lower=robot.lower, upper=robot.upper)


class TestDiscretize:
    def test_lower_bounds_map_to_zero(self, robot):
        assert discretize(robot, robot.lower) == (0, 0)

    def test_cell_center_round_trips(self, robot):
        state = (3, 7)
        q = decode(robot, state)
        assert discretize(robot, q) == state
        assert np.allclose(decode(robot, discretize(robot, q)), q, atol=1e-12)

    def test_rounding_bound(self):
        rng = np.random.default_rng(14)
        robot = random_robot(rng, dof=4)
        for _ in range(10_000):
            q = sample_uniform(robot, rng)
            back = decode(robot, discretize(robot, q))
            assert np.all(np.abs(back - q) <= robot.resolutions / 2 + 1e-12)

    def test_decode_always_within_limits(self):
        rng = np.random.default_rng(15)
        robot = random_robot(rng, dof=3)
        max_coords = lattice_max_coords(robot)
        for _ in range(200):
            state = tuple(int(rng.integers(0, c + 1)) for c in max_coords)
            assert within_limits(robot, decode(robot, state))


class TestDefaultPrimitives:
    def test_axis_moves_for_three_dof(self):
        rng = np.random.default_rng(2)
        robot = random_robot(rng, dof=3)
        prim = default_primitives(robot)
        assert prim.primitives.shape == (6, 3)

    def test_extra_vector_closed_under_negation(self):
        rng = np.random.default_rng(2)
        robot = random_robot(rng, dof=3)
        prim = default_primitives(robot, extra_vectors=[(1, 1, 0)])
        rows = {tuple(r) for r in prim.primitives}
        assert (1, 1, 0) in rows and (-1, -1, 0) in rows

    def test_all_nonzero_integer_vectors(self):
        rng = np.random.default_rng(3)
        robot = random_robot(rng, dof=4)
        prim = default_primitives(robot, extra_vectors=[(2, 0, -1, 0)])
        assert prim.primitives.dtype.kind == "i"
        assert np.all(np.any(prim.primitives != 0, axis=1))

    def test_wrong_length_rejected(self):
        rng = np.random.default_rng(4)
        robot = random_robot(rng, dof=3)
        with pytest.raises(ValidationError):
            default_primitives(robot, extra_vectors=[(1, 0)])

    def test_zero_vector_rejected(self):
        rng = np.random.default_rng(4)
        robot = random_robot(rng, dof=3)
        with pytest.raises(ValidationError, match="nonzero"):
            default_primitives(robot, extra_vectors=[(0, 0, 0)])

    def test_negation_closure_validated(self):
        with pytest.raises(ValidationError):
            MotionPrimitiveSet(primitives=np.array([[1, 0]]), snap_radius=0.1)

    @pytest.mark.parametrize("rows", [np.array([[1.5, 0], [-1.5, 0]]), [[1, 0], [-1, 0.5]],
                                      [[True, 0], [-1, 0]]])
    def test_non_integer_entries_rejected(self, rows):
        # A set built in code once cast its entries with int(): [[1.5, 0],
        # [-1.5, 0]] became the axis moves [[1, 0], [-1, 0]].
        with pytest.raises(ValidationError, match="primitive vector entry must be an integer"):
            MotionPrimitiveSet(primitives=rows, snap_radius=0.0)

    @pytest.mark.parametrize("rows", [np.array([1, -1]), [[1, 0], [-1]]],
                             ids=["one-dimensional", "ragged"])
    def test_malformed_array_rejected(self, rows):
        # These raised TypeError and numpy's ValueError while each row's
        # entries were read before the array's shape was known.
        with pytest.raises(ValidationError, match=r"primitives must be a \(P, n\) integer array"):
            MotionPrimitiveSet(primitives=rows, snap_radius=0.0)

    def test_repeated_vector_kept_once(self):
        prim = MotionPrimitiveSet(primitives=[[1, 0], [-1, 0], [1, 0]], snap_radius=0.0)
        assert prim.primitives.tolist() == [[1, 0], [-1, 0]]

    def test_primitives_file(self):
        rng = np.random.default_rng(5)
        robot = random_robot(rng, dof=3)
        prim = parse_primitives("primitives:\n  - [1, 1, 0]\nsnap_radius: 0.4\n", robot)
        assert prim.snap_radius == 0.4
        rows = {tuple(r) for r in prim.primitives}
        assert (-1, -1, 0) in rows and len(rows) == 8

    def test_primitives_file_unknown_key(self):
        rng = np.random.default_rng(5)
        robot = random_robot(rng, dof=3)
        with pytest.raises(ValidationError):
            parse_primitives("primitives: []\nstep: 2\n", robot)


class TestSuccessors:
    def test_interior_state_has_2n_successors(self, robot):
        prim = default_primitives(robot)
        state = (6, 6)
        out = successors(state, prim, robot, anywhere(robot), lattice_max_coords(robot))
        assert len(out) == 4
        for node, cost, _ in out:
            assert cost == pytest.approx(0.5, abs=1e-12)
            assert sum(abs(a - b) for a, b in zip(node, state)) == 1

    def test_lower_bound_clips_moves(self, robot):
        prim = default_primitives(robot)
        out = successors((0, 6), prim, robot, anywhere(robot), lattice_max_coords(robot))
        nodes = {node for node, _, _ in out}
        assert (0 - 1, 6) not in {tuple(n) for n in nodes if n != GOAL_NODE}
        assert len(out) == 3

    def test_blocked_moves_excluded(self, robot):
        world = WorldModel((box_obstacle((3.5, 3.0, 0.0), (0.2, 0.2, 0.2)),))
        prim = default_primitives(robot)
        out = valid_successors((6, 6), prim, robot, world)  # decode -> (3.0, 3.0)
        nodes = {node for node, _ in out}
        assert (7, 6) not in nodes  # stepping toward the box is invalid
        assert (5, 6) in nodes

    def test_snap_emits_exact_goal(self, robot):
        prim = default_primitives(robot)  # snap radius = 2 * 0.5 = 1.0
        goal = GoalSpec.config_goal([3.3, 3.0], [0.0, 0.0])
        out = successors((6, 6), prim, robot, goal, lattice_max_coords(robot))
        snap = [entry for entry in out if entry[0] == GOAL_NODE]
        assert len(snap) == 1
        assert snap[0][1] == pytest.approx(0.3, abs=1e-12)
        assert snap[0][2] == 0.0

    def test_snap_respects_radius(self, robot):
        prim = default_primitives(robot, snap_radius=0.1)
        out = successors((6, 6), prim, robot, GoalSpec.config_goal([3.3, 3.0], [0.0, 0.0]),
                         lattice_max_coords(robot))
        assert all(entry[0] != GOAL_NODE for entry in out)

    def test_snap_blocked_by_obstacle(self, robot):
        world = WorldModel((box_obstacle((3.15, 3.0, 0.0), (0.02, 0.3, 0.3)),))
        prim = default_primitives(robot)
        out = valid_successors((6, 6), prim, robot, world, np.array([3.4, 3.0]))
        assert all(entry[0] != GOAL_NODE for entry in out)

    def test_costs_match_metric(self):
        # The vectorized costs and heuristics must equal config_distance and
        # heuristic bit for bit: the search's keys, and so its expansion
        # order, depend on the last bit.  Goals of both kinds, snap included.
        rng = np.random.default_rng(8)
        shelf = load_scenario(data_path("scenarios", "shelf_reach.yaml")).robot
        robots = [shelf] + [random_robot(rng, dof=int(rng.integers(2, 8)))
                            for _ in range(20)]
        checked = snapped = 0
        for robot in robots:
            prim = default_primitives(robot, extra_vectors=[(1,) * robot.dof],
                                      snap_radius=float(np.sum(robot.resolutions)))
            bound = lattice_max_coords(robot)
            for _ in range(100):
                a, b = sample_uniform(robot, rng), sample_uniform(robot, rng)
                state = discretize(robot, a)
                q = decode(robot, state)
                goal = (GoalSpec(type="region", lower=np.minimum(a, b), upper=np.maximum(a, b))
                        if rng.random() < 0.5 else
                        GoalSpec.config_goal(q + robot.resolutions / 2,
                                             rng.random() * robot.resolutions))
                for node, cost, h in successors(state, prim, robot, goal, bound):
                    end = goal.target if node == GOAL_NODE else decode(robot, node)
                    assert cost == config_distance(robot, q, end)
                    assert h == heuristic(node, goal, robot)
                    snapped += node == GOAL_NODE
                    checked += 1
        assert checked > 20_000 and snapped > 500


class TestHeuristic:
    def test_zero_inside_region(self, robot):
        goal = GoalSpec(type="region", lower=[2.0, 2.0], upper=[4.0, 4.0])
        assert heuristic((6, 6), goal, robot) == 0.0  # decodes to (3, 3)

    def test_one_dof_distance(self):
        r1 = RobotModel(joints=(make_joint("a", limits=(0.0, 10.0), resolution=1.0),))
        goal = GoalSpec.config_goal([5.0], [0.0])
        assert heuristic((0,), goal, r1) == pytest.approx(5.0)

    def test_zero_inside_config_tolerance(self, robot):
        # (3, 3) lies inside the +-0.25 box, 0.28 away from its target.
        goal = GoalSpec.config_goal([3.2, 3.2], [0.25, 0.25])
        assert goal_satisfied(goal, decode(robot, (6, 6)))
        assert heuristic((6, 6), goal, robot) == 0.0
        assert heuristic((4, 6), goal, robot) == pytest.approx(0.95)  # to x = 2.95

    def test_zero_on_every_goal_satisfying_state(self):
        # Toleranced config goals (the backward search uses half a cell) and
        # region goals, with boundary states hit exactly.
        rng = np.random.default_rng(71)
        satisfied = 0
        for _ in range(40):
            robot = random_robot(rng, dof=int(rng.integers(2, 4)), n_spheres=1,
                                 lattice_cells=(5, 10))
            max_coords = lattice_max_coords(robot)
            center = tuple(int(rng.integers(0, c + 1)) for c in max_coords)
            cells = rng.integers(0, 3, size=robot.dof)
            goals = [
                GoalSpec.config_goal(decode(robot, center), robot.resolutions / 2.0),
                GoalSpec.config_goal(decode(robot, center) + robot.resolutions / 3.0,
                                     cells * robot.resolutions),
                GoalSpec(type="region",
                         lower=decode(robot, center) - cells * robot.resolutions,
                         upper=decode(robot, center) + robot.resolutions * 0.7),
            ]
            for state in np.ndindex(*(max_coords + 1)):
                for goal in goals:
                    h = heuristic(state, goal, robot)
                    if goal_satisfied(goal, decode(robot, state)):
                        satisfied += 1
                        assert h == 0.0, (state, goal)
                    else:
                        assert h > 0.0
        assert satisfied > 100

    def test_goal_node_has_zero_heuristic(self, robot):
        goal = GoalSpec.config_goal([3.0, 3.0], [0.0, 0.0])
        assert heuristic(GOAL_NODE, goal, robot) == 0.0

    def test_admissible_against_dijkstra(self):
        # h(s) never exceeds the true optimal cost-to-goal on the lattice.
        rng = np.random.default_rng(33)
        for _ in range(5):
            robot, world, start, goal, prim, _ = lattice_instance(rng)
            goal_config = np.asarray(goal.target)
            # Sample states reachable from the start and compare.
            seen = [start]
            frontier = [start]
            for _ in range(40):
                if not frontier:
                    break
                node = frontier.pop()
                for nxt, _ in valid_successors(node, prim, robot, world,
                                               goal_config, 0.05):
                    if nxt != GOAL_NODE and nxt not in seen:
                        seen.append(nxt)
                        frontier.append(nxt)
            for state in seen[:25]:
                optimum = dijkstra_lattice(robot, world, prim, state, goal, 0.05,
                                           goal_config=goal_config)
                if optimum is None:
                    continue
                assert heuristic(state, goal, robot) <= optimum + 1e-9

    def test_consistent_over_generated_edges(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            robot, world, start, goal, prim, _ = lattice_instance(rng)
            frontier = [start]
            seen = {start}
            for _ in range(50):
                if not frontier:
                    break
                node = frontier.pop()
                h_node = heuristic(node, goal, robot)
                for nxt, cost, _ in successors(node, prim, robot, goal,
                                               lattice_max_coords(robot)):
                    assert h_node <= cost + heuristic(nxt, goal, robot) + 1e-9
                    if nxt != GOAL_NODE and nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
