"""Shared fixtures and factories for the test suite."""

from __future__ import annotations

import csv
import io
import math
import time

import numpy as np
import pytest

from planbench.core import Path, path_cost
from planbench.robot import (PRISMATIC, REVOLUTE, CollisionSphere, JointSpec,
                             RobotModel)
from planbench.world import WorldModel

from oracles import box_obstacle, cylinder_obstacle, sphere_obstacle


def make_joint(name, type=REVOLUTE, axis=(0, 0, 1), origin_xyz=(0, 0, 0),
               origin_rpy=(0, 0, 0), limits=(-3.0, 3.0), resolution=None,
               weight=1.0):
    lo, hi = limits
    if resolution is None:
        resolution = (hi - lo) / 10.0
    return JointSpec(name=name, type=type, axis=axis, origin_xyz=origin_xyz,
                     origin_rpy=origin_rpy, limits=(lo, hi),
                     resolution=resolution, weight=weight)


def solution_cost(robot, waypoints):
    """The cost of the waypoints ``ara_search`` returns, by ``path_cost``."""
    return path_cost(robot, Path(np.array(waypoints)))


def csv_rows(text):
    """The records of an ``emit_csv`` document, one dict of cell strings each."""
    return list(csv.DictReader(io.StringIO(text)))


def single_revolute_robot(sphere_at=(1.0, 0.0, 0.0), radius=0.1):
    """One z-axis revolute joint at the origin carrying one sphere."""
    return RobotModel(
        joints=(make_joint("j0", limits=(-math.pi, math.pi)),),
        spheres=(CollisionSphere(0, sphere_at, radius),))


def gantry_robot(extent=6.0, resolution=0.02, radius=0.05):
    """Two prismatic joints (x then y) moving a point sphere in the plane.

    The configuration space equals the workspace, which makes worlds easy to
    reason about in lattice tests.
    """
    jx = make_joint("x", type=PRISMATIC, axis=(1, 0, 0), limits=(0.0, extent),
                    resolution=resolution)
    jy = make_joint("y", type=PRISMATIC, axis=(0, 1, 0), limits=(0.0, extent),
                    resolution=resolution)
    return RobotModel(joints=(jx, jy),
                      spheres=(CollisionSphere(1, (0, 0, 0), radius),))


def random_robot(rng, dof=None, n_spheres=None, lattice_cells=(4, 12)):
    """A random serial chain with unit-normalized axes and modest reach."""
    if dof is None:
        dof = int(rng.integers(2, 7))
    if n_spheres is None:
        n_spheres = int(rng.integers(2, 7))
    joints = []
    for j in range(dof):
        kind = PRISMATIC if rng.random() < 0.25 else REVOLUTE
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        lo = float(rng.uniform(-1.5, -0.2))
        hi = float(rng.uniform(0.2, 1.5))
        cells = int(rng.integers(*lattice_cells))
        joints.append(JointSpec(
            name=f"j{j}", type=kind, axis=axis,
            origin_xyz=rng.uniform(-0.25, 0.25, size=3),
            origin_rpy=rng.uniform(-math.pi, math.pi, size=3),
            limits=(lo, hi), resolution=(hi - lo) / cells,
            weight=float(rng.uniform(0.5, 2.0))))
    spheres = tuple(
        CollisionSphere(int(rng.integers(0, dof)),
                        rng.uniform(-0.2, 0.2, size=3),
                        float(rng.uniform(0.02, 0.1)))
        for _ in range(n_spheres))
    return RobotModel(joints=tuple(joints), spheres=spheres)


def random_world(rng, count=None, span=1.0):
    """A world of random boxes, cylinders, and spheres near the origin."""
    if count is None:
        count = int(rng.integers(1, 4))
    obstacles = []
    for _ in range(count):
        shape = rng.choice(["box", "cylinder", "sphere"])
        center = rng.uniform(-span, span, size=3)
        if shape == "box":
            obstacles.append(box_obstacle(center, rng.uniform(0.05, 0.4, size=3),
                                          yaw=float(rng.uniform(-math.pi, math.pi))))
        elif shape == "cylinder":
            obstacles.append(cylinder_obstacle(center, float(rng.uniform(0.05, 0.4)),
                                                float(rng.uniform(0.05, 0.4)),
                                                yaw=float(rng.uniform(-math.pi, math.pi))))
        else:
            obstacles.append(sphere_obstacle(center, float(rng.uniform(0.05, 0.4))))
    return WorldModel(tuple(obstacles))


@pytest.fixture
def gantry():
    return gantry_robot()


@pytest.fixture
def empty_world():
    return WorldModel(())


def lattice_instance(rng, dof=None, require_solvable=False, edge_step=0.05,
                     max_tries=300):
    """A random small lattice planning instance: free start state and an
    on-lattice zero-tolerance config goal, optionally certified solvable by
    a uniform-cost sweep over the successor graph."""
    from planbench.ara_star import (decode, default_primitives, discretize,
                                    lattice_max_coords)
    from planbench.collision import check_config
    from oracles import sample_uniform
    from planbench.world import GoalSpec

    for _ in range(max_tries):
        robot = random_robot(rng, dof=dof or int(rng.integers(2, 4)),
                             n_spheres=int(rng.integers(1, 4)),
                             lattice_cells=(5, 12))
        world = random_world(rng, count=int(rng.integers(1, 3)), span=0.8)
        start_state = None
        for _ in range(30):
            s = discretize(robot, sample_uniform(robot, rng))
            if check_config(robot, world, decode(robot, s)):
                start_state = s
                break
        if start_state is None:
            continue
        goal_state = None
        max_coords = lattice_max_coords(robot)
        for _ in range(30):
            g = tuple(int(rng.integers(0, c + 1)) for c in max_coords)
            if g != start_state and check_config(robot, world, decode(robot, g)):
                goal_state = g
                break
        if goal_state is None:
            continue
        goal = GoalSpec.config_goal(decode(robot, goal_state),
                                    tolerance=np.zeros(robot.dof))
        primitives = default_primitives(robot)
        if require_solvable:
            from oracles import dijkstra_lattice
            optimum = dijkstra_lattice(robot, world, primitives, start_state,
                                       goal, edge_step,
                                       goal_config=np.asarray(goal.target))
            if optimum is None:
                continue
            return robot, world, start_state, goal, primitives, optimum
        return robot, world, start_state, goal, primitives, None
    raise RuntimeError("unable to build a lattice instance")


@pytest.fixture(scope="session")
def lattice_cases():
    """Fifty random 2-3 DOF lattice instances with their Dijkstra optima,
    and the seconds it took to build them."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(918273)
    cases = [lattice_instance(rng, require_solvable=True) for _ in range(50)]
    return cases, time.perf_counter() - t0
