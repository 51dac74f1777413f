"""Collision kernel: configuration checks, motion checks, and the signs of
the distance oracle the kernel is checked against."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planbench import collision
from planbench.collision import (_CLEARANCE_ROWS, _MAX_PIECES, _clearances, _cuts, _pieces,
                                 _sample_counts, _self_overlap_mask,
                                 _world_penetration_mask, check_config, check_motion,
                                 free_mask, motion_configs, motions_free, path_free)
from planbench.core import Path, Query, validate_path
from planbench.data import data_path
from planbench.errors import ContractViolation
from planbench.robot import (PRISMATIC, CollisionSphere, RobotModel, config_distance,
                             sphere_centers_batch)
from planbench.world import GoalSpec, WorldModel, load_scenario

import oracles
from conftest import gantry_robot, make_joint, random_robot, random_world
from oracles import (box_obstacle, brute_force_check, brute_force_masks,
                     clearances_gather, cylinder_obstacle, free_mask_dense, linspace_motion,
                     path_free_bisect, sample_uniform, self_mask_dense, self_pairs_dense,
                     sphere_centers_3x3, sphere_obstacle,
                     sphere_obstacle_distance_oracle,
                     sphere_penetrates_monte_carlo, within_limits,
                     world_mask_dense)


class TestSphereObstacleDistance:
    """The scalar signed-distance oracle that ``test_c01`` checks the
    collision kernel against."""

    def test_sign_matches_monte_carlo_membership(self):
        # Signs must agree with a surface-sampling membership oracle (1000
        # samples per pair) outside a narrow band around contact, over 1e5
        # random shape pairs covering all three shapes.
        from oracles import spheres_penetrate_monte_carlo
        rng = np.random.default_rng(99)
        total_pairs = 100_000
        chunk = 2500
        checked = 0
        disagreements = 0
        for _ in range(total_pairs // chunk):
            world = random_world(rng, count=1)
            obstacle_proto = world.obstacles[0]
            # One chunk per obstacle instance keeps the oracle vectorizable.
            centers = rng.uniform(-1.2, 1.2, size=(chunk, 3))
            radii = rng.uniform(0.05, 0.4, size=chunk)
            d = np.array([sphere_obstacle_distance_oracle(centers[i], radii[i], obstacle_proto)
                          for i in range(chunk)])
            keep = np.abs(d) >= 2e-2
            if not keep.any():
                continue
            kept_centers = centers[keep]
            kept_radii = radii[keep]
            kept_d = d[keep]
            penetrates = spheres_penetrate_monte_carlo(
                kept_centers, kept_radii, [obstacle_proto] * int(keep.sum()),
                rng, samples=1000)
            checked += int(keep.sum())
            for i in np.flatnonzero(penetrates != (kept_d < 0)):
                # Finite sampling is one-sided: a shallow edge/corner clip can
                # hide from 1000 surface samples.  Adjudicate with a much
                # denser draw before counting a true sign disagreement.
                dense = sphere_penetrates_monte_carlo(
                    kept_centers[i], kept_radii[i], obstacle_proto, rng,
                    samples=200_000)
                disagreements += int(dense != (kept_d[i] < 0))
        assert checked > 50_000
        assert disagreements == 0


def one_sphere_robot():
    return gantry_robot(extent=6.0, radius=0.1)


class TestCheckConfig:
    def test_empty_world_free(self):
        robot = one_sphere_robot()
        assert check_config(robot, WorldModel(()), [1.0, 1.0]) is True

    def test_overlapping_spheres_collide(self):
        robot = one_sphere_robot()
        world = WorldModel((sphere_obstacle((1.15, 1.0, 0.0), 0.1),))
        assert check_config(robot, world, [1.0, 1.0]) is False
        centers = sphere_centers_batch(robot, np.array([[1.0, 1.0]]))
        assert np.argwhere(_world_penetration_mask(
            world, centers, robot.sphere_radii)[0]).tolist() == [[0, 0]]

    @pytest.mark.parametrize("obstacle", [
        box_obstacle((2.0, 1.0, 0.0), (0.5, 0.5, 0.5)),
        cylinder_obstacle((2.0, 1.0, 0.0), radius=0.5, half_height=0.5),
        sphere_obstacle((2.0, 1.0, 0.0), 0.5),
    ], ids=["box_face", "cylinder_side", "sphere"])
    def test_touching_is_free_just_inside_collides(self, obstacle):
        # The robot sphere (radius 0.25) sits at (x, 1, 0); at x = 1.25 its
        # surface touches the obstacle's -x side.  Every value is a dyadic
        # rational, so the kernel's arithmetic on them is exact.
        robot = gantry_robot(radius=0.25)
        world = WorldModel((obstacle,))
        touching, inside = [1.25, 1.0], [1.25 + 2.0 ** -10, 1.0]
        assert check_config(robot, world, touching)
        assert not check_config(robot, world, inside)
        mask = free_mask(robot, world, np.array([touching, inside]))
        assert mask.tolist() == [True, False]

    def test_limits_violation_is_not_free(self):
        # The one sphere is far from any obstacle, so only the limit decides.
        robot = one_sphere_robot()
        assert not check_config(robot, WorldModel(()), [-0.5, 1.0])
        assert not check_config(robot, WorldModel(()), [1.0, 6.5])

    @staticmethod
    def _folding_chain(ignored=frozenset()):
        # Folding joint b by pi brings the link-2 sphere next to the link-0 one.
        joints = (
            make_joint("a", limits=(-3.2, 3.2)),
            make_joint("b", origin_xyz=(0.4, 0, 0), limits=(-3.2, 3.2)),
            make_joint("c", origin_xyz=(0.4, 0, 0), limits=(-3.2, 3.2)),
        )
        return RobotModel(
            joints=joints,
            spheres=(CollisionSphere(0, (-0.15, 0, 0), 0.1),
                     CollisionSphere(2, (0.2, 0, 0), 0.1)),
            self_collision_ignored=ignored)

    def test_self_collision_detected(self):
        robot = self._folding_chain()
        assert not check_config(robot, WorldModel(()), [0.0, math.pi, 0.0])
        assert check_config(robot, WorldModel(()), [0.0, 0.0, 0.0])

    def test_ignored_pair_not_reported(self):
        robot = self._folding_chain(ignored=frozenset({(0, 1)}))
        assert check_config(robot, WorldModel(()), [0.0, math.pi, 0.0])

    def test_self_touching_is_free_just_closer_collides(self):
        # Three prismatic joints along x, y and z.  Sphere 3 (link 2,
        # radius 0.5, offset 0.25 in x) sits at (0.25, y, z) from sphere 0
        # (link 0, radius 0.25), so at y = z = 0.5 the center distance is
        # sqrt(0.0625 + 0.25 + 0.25) = 0.75, the radius sum.  Sphere 1 on the
        # adjacent link 1 is never checked and sphere 2 is far, so the pairs
        # are (0, 2) and (0, 3).  Every value is a dyadic rational, so the
        # kernel's arithmetic on them is exact.
        joints = tuple(make_joint(name, type=PRISMATIC, axis=axis, limits=(-2.0, 2.0))
                       for name, axis in (("x", (1, 0, 0)), ("y", (0, 1, 0)),
                                          ("z", (0, 0, 1))))
        robot = RobotModel(joints=joints, spheres=(
            CollisionSphere(0, (0.0, 0.0, 0.0), 0.25),
            CollisionSphere(1, (0.0, 0.0, 0.0), 0.5),
            CollisionSphere(2, (0.0, 0.0, 4.0), 0.25),
            CollisionSphere(2, (0.25, 0.0, 0.0), 0.5)))
        assert robot.self_collision_pairs.tolist() == [[0, 2], [0, 3]]
        world = WorldModel(())
        touching, closer = [1.0, 0.5, 0.5], [1.0, 0.5, 0.5 - 2.0 ** -10]
        assert check_config(robot, world, touching)
        assert not check_config(robot, world, closer)
        centers = sphere_centers_batch(robot, np.array([touching, closer]))
        assert _self_overlap_mask(robot, centers).tolist() == [[False, False],
                                                               [False, True]]
        mask = free_mask(robot, world, np.array([touching, closer]))
        assert mask.tolist() == [True, False]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        robots = [random_robot(rng) for _ in range(4)]
        for case in range(2000):
            robot = robots[case % len(robots)]
            world = random_world(rng)
            if rng.random() < 0.7:
                q = sample_uniform(robot, rng)
            else:
                # Inflated box to exercise limit violations.
                q = rng.uniform(robot.lower - 0.3, robot.upper + 0.3)
            got = check_config(robot, world, q)
            want = brute_force_check(robot, world, q) == ("free",)
            assert got is want


class TestCheckMotion:
    def test_zero_length_single_check(self):
        robot = one_sphere_robot()
        stats = {}
        assert check_motion(robot, WorldModel(()), [1, 1], [1, 1], 0.05, stats=stats)
        assert stats["collision_checks"] == 1

    def test_blocked_at_midpoint(self):
        robot = one_sphere_robot()
        world = WorldModel((sphere_obstacle((3.0, 1.0, 0.0), 0.3),))
        a, b = [1.0, 1.0], [5.0, 1.0]
        assert not check_motion(robot, world, a, b, 0.05)
        # Dense sweep confirms the segment truly crosses the obstacle.
        from planbench.collision import free_mask
        dense = linspace_motion(robot, a, b, 4.0 / 10_000)
        assert not free_mask(robot, world, dense).all()

    def test_empty_world_always_true(self):
        robot = one_sphere_robot()
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = sample_uniform(robot, rng)
            b = sample_uniform(robot, rng)
            assert check_motion(robot, WorldModel(()), a, b, 0.1)

    def test_symmetry(self):
        robot = one_sphere_robot()
        rng = np.random.default_rng(8)
        world = random_world(rng, count=2, span=3.0)
        for _ in range(200):
            a = sample_uniform(robot, rng)
            b = sample_uniform(robot, rng)
            assert check_motion(robot, world, a, b, 0.05) == \
                check_motion(robot, world, b, a, 0.05)

    def test_refinement_monotone_on_fat_obstacles(self):
        # A failure at step s must persist at finer steps when the colliding
        # interval is wider than the fine spacing (true for solid obstacles).
        robot = one_sphere_robot()
        world = WorldModel((box_obstacle((3.0, 1.0, 0.0), (0.4, 0.4, 0.4)),))
        a, b = [1.0, 1.0], [5.0, 1.0]
        for step in (0.4, 0.2, 0.1, 0.05, 0.01):
            assert not check_motion(robot, world, a, b, step)

    def test_check_count(self):
        robot = one_sphere_robot()
        stats = {}
        # Distance 2.0 at step 0.5 -> ceil(4) + 1 = 5 configurations.
        assert check_motion(robot, WorldModel(()), [1, 1], [3, 1], 0.5, stats=stats)
        assert stats["collision_checks"] == 5

    def test_rejected_motion_counts_every_configuration(self):
        # The first of the motion's 81 configurations collides; all of them
        # are checked and counted, more than one old 64-configuration chunk.
        robot = one_sphere_robot()
        world = WorldModel((sphere_obstacle((1.0, 1.0, 0.0), 0.3),))
        stats = {}
        assert not check_motion(robot, world, [1, 1], [5, 1], 0.05, stats=stats)
        assert not check_config(robot, world, [1, 1])
        assert stats["collision_checks"] == 81

    def test_nonpositive_step_rejected(self):
        robot = one_sphere_robot()
        with pytest.raises(ContractViolation):
            check_motion(robot, WorldModel(()), [1, 1], [2, 1], 0.0)

    @pytest.mark.parametrize("step", [math.inf, math.nan])
    def test_non_finite_step_rejected(self, step):
        # The shelf's start -> goal motion passes through the lower board
        # between two free endpoints; an infinite step would check only the
        # end configuration and call it free.
        robot, world = SHELF.robot, SHELF.world
        assert not check_motion(robot, world, SHELF.start, SHELF.goal.target, 0.05)
        with pytest.raises(ContractViolation):
            check_motion(robot, world, SHELF.start, SHELF.goal.target, step)


class TestMotionsFree:
    def test_stack_equals_linspace_reference_bitwise(self):
        rng = np.random.default_rng(41)
        for i in range(200):
            robot = SHELF.robot if i % 4 == 0 else random_robot(rng, n_spheres=3)
            k = int(rng.integers(1, 17))
            starts = rng.uniform(robot.lower, robot.upper, size=(k, robot.dof))
            scale = rng.choice([0.0, 1e-13, 0.01, 0.3, 2.0], size=(k, 1))
            ends = starts + scale * rng.normal(size=(k, robot.dof))
            step = float(rng.choice([0.005, 0.05, 0.13]))
            configs, offsets = motion_configs(robot, starts, ends, step)
            want = [linspace_motion(robot, a, b, step) for a, b in zip(starts, ends)]
            assert offsets.tolist() == np.cumsum([0] + [len(w) for w in want[:-1]]).tolist()
            assert configs.tobytes() == np.vstack(want).tobytes()

    def test_verdicts_match_check_motion(self):
        rng = np.random.default_rng(43)
        robot = one_sphere_robot()
        for _ in range(40):
            world = random_world(rng, count=3, span=3.0)
            starts = rng.uniform(robot.lower, robot.upper, size=(8, robot.dof))
            ends = starts + rng.normal(size=(8, robot.dof))
            stats = {}
            got = motions_free(robot, world, starts, ends, 0.05, stats=stats)
            want = [check_motion(robot, world, a, b, 0.05) for a, b in zip(starts, ends)]
            assert got.tolist() == want
            # Every configuration is checked, with no early stop.
            assert stats["collision_checks"] == sum(
                len(linspace_motion(robot, a, b, 0.05)) for a, b in zip(starts, ends))

    def test_shared_start_row(self):
        robot = one_sphere_robot()
        world = WorldModel((sphere_obstacle((3.0, 1.0, 0.0), 0.3),))
        got = motions_free(robot, world, [1.0, 1.0], [[5.0, 1.0], [1.0, 3.0]], 0.05)
        assert got.tolist() == [False, True]

    def test_zero_motions(self):
        stats = {}
        got = motions_free(SHELF.robot, SHELF.world, SHELF.start,
                           np.empty((0, SHELF.robot.dof)), 0.05, stats=stats)
        assert got.dtype == bool and got.shape == (0,)
        assert stats["collision_checks"] == 0


SHELF = load_scenario(data_path("scenarios", "shelf_reach.yaml"))


class TestBatchScalarAgreement:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 150))
    def test_shelf_verdict_independent_of_stack(self, seed, m):
        # Batched extension relies on this: a configuration's verdict does not
        # depend on the stack it is checked in, its position there, or the
        # single-configuration path.
        robot, world = SHELF.robot, SHELF.world
        rng = np.random.default_rng(seed)
        configs = rng.uniform(robot.lower - 0.05, robot.upper + 0.05, size=(m, robot.dof))
        # Half the rows lie on motions out of the start, many near contact.
        near = rng.random(m) < 0.5
        configs[near] = SHELF.start + rng.random((int(near.sum()), 1)) * (
            configs[near] - SHELF.start)
        mask = free_mask(robot, world, configs)
        order = rng.permutation(m)
        assert free_mask(robot, world, configs[order]).tolist() == mask[order].tolist()
        for k in range(m):
            assert free_mask(robot, world, configs[k : k + 1])[0] == mask[k]
            assert check_config(robot, world, configs[k]) == mask[k]

    def test_free_mask_matches_check_config(self):
        # The batch and single-configuration paths share one kernel and must
        # agree on every input, including near-contact cases.
        rng = np.random.default_rng(29)
        robot = random_robot(rng, n_spheres=4)
        for _ in range(50):
            world = random_world(rng, count=2)
            batch = rng.uniform(robot.lower - 0.1, robot.upper + 0.1, size=(40, robot.dof))
            mask = free_mask(robot, world, batch)
            for k in range(batch.shape[0]):
                assert mask[k] == check_config(robot, world, batch[k])


class TestPairMasksAgainstBruteForce:
    def test_shelf_entries_match_away_from_contact(self):
        # Every (sphere, obstacle) and (sphere, sphere) entry of the package's
        # masks against the pair's own distance by the independent oracle,
        # except where the oracle's margin is too close to contact for the
        # two computations' rounding to agree.
        robot, world = SHELF.robot, SHELF.world
        configs = np.random.default_rng(15).uniform(robot.lower, robot.upper,
                                                    size=(400, robot.dof))
        centers = sphere_centers_batch(robot, configs)
        world_got = _world_penetration_mask(world, centers, robot.sphere_radii)
        self_got = _self_overlap_mask(robot, centers)
        assert self_got.shape[1] == len(self_pairs_dense(robot))
        hits = np.zeros(2, dtype=int)
        for k, q in enumerate(configs):
            world_hit, self_hit, world_margin, self_margin = brute_force_masks(
                robot, world, q)
            clear = np.abs(world_margin) > 1e-9
            assert np.array_equal(world_got[k][clear], world_hit[clear]), k
            clear = np.abs(self_margin) > 1e-9
            assert np.array_equal(self_got[k][clear], self_hit[clear]), k
            hits += (world_hit.sum(), self_hit.sum())
        assert hits.min() > 0, hits


def point_robot(radius):
    """Three prismatic joints along x, y and z carrying one sphere, whose
    center is the configuration itself, exactly."""
    joints = tuple(make_joint(name, type=PRISMATIC, axis=axis, limits=(-5.0, 5.0))
                   for name, axis in (("x", (1, 0, 0)), ("y", (0, 1, 0)), ("z", (0, 0, 1))))
    return RobotModel(joints=joints, spheres=(CollisionSphere(2, (0, 0, 0), radius),))


def grazing_rows(radius):
    """(world, rows, inside): sphere centers at radius * (1 - 1e-12) and
    radius * (1 + 1e-12) from a yawed box's face and corner, a cylinder's side
    and a sphere obstacle; ``inside`` marks the rows that penetrate."""
    box = box_obstacle((0.3, -0.2, 0.5), (0.4, 0.25, 0.3), yaw=0.7)
    cylinder = cylinder_obstacle((-1.0, 1.2, 0.2), radius=0.35, half_height=0.5, yaw=1.1)
    ball = sphere_obstacle((1.5, 1.5, -0.4), 0.45)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hx, hy, hz = box.half_extents

    def box_point(local):
        return box.center + np.array([c * local[0] - s * local[1],
                                      s * local[0] + c * local[1], local[2]])

    corner = np.array([hx, -hy, hz])
    outward = np.array([1.0, -1.0, 1.0]) / math.sqrt(3.0)
    phi = 2.3
    side = np.array([math.cos(phi), math.sin(phi), 0.0])
    toward = np.array([0.6, -0.48, 0.64])
    rows, inside = [], []
    for scale in (1 - 1e-12, 1 + 1e-12):
        d = radius * scale
        rows += [box_point([hx + d, 0.3 * hy, -0.2 * hz]),
                 box_point(corner + d * outward),
                 cylinder.center + (cylinder.radius + d) * side + [0, 0, 0.3],
                 ball.center + (ball.radius + d) * toward]
        inside += [scale < 1] * 4
    return WorldModel((box, cylinder, ball)), np.array(rows), inside


class TestBroadphaseExactness:
    """The culled kernel against the dense one it replaced
    (``oracles.free_mask_dense``): sphere centers bit for bit (within
    ``fk_atol`` on random robots, whose rounding the homogeneous FK chain
    changes), and masks and verdicts exactly."""

    @staticmethod
    def assert_same(robot, world, configs, fk_atol=0.0):
        centers = sphere_centers_batch(robot, configs)
        judge = sphere_centers_3x3(robot, configs)
        if fk_atol:
            assert np.abs(centers - judge).max() <= fk_atol
        else:
            assert centers.tobytes() == judge.tobytes()
        got = _world_penetration_mask(world, centers, robot.sphere_radii)
        assert np.array_equal(got, world_mask_dense(world, centers, robot.sphere_radii))
        overlap = _self_overlap_mask(robot, centers)
        assert np.array_equal(overlap, self_mask_dense(robot, centers))
        mask = free_mask(robot, world, configs)
        assert mask.tolist() == free_mask_dense(robot, world, configs).tolist()
        assert [check_config(robot, world, q) for q in configs] == mask.tolist()
        return mask

    def test_random_robots_and_worlds(self):
        rng = np.random.default_rng(2024)
        verdicts = set()
        for case in range(250):
            robot = random_robot(rng, dof=int(rng.integers(2, 9)))
            world = random_world(rng, count=int(rng.integers(1, 7)), span=0.6)
            m = (1, 2, 11, 55, 150)[case % 5]
            configs = rng.uniform(robot.lower - 0.05, robot.upper + 0.05,
                                  size=(m, robot.dof))
            verdicts.update(self.assert_same(robot, world, configs,
                                             fk_atol=1e-12).tolist())
        assert verdicts == {True, False}

    def test_shelf_robot(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 11, 55, 150):
            configs = SHELF.start + rng.random((m, 1)) * (
                rng.uniform(SHELF.robot.lower, SHELF.robot.upper, size=(m, 8)) - SHELF.start)
            self.assert_same(SHELF.robot, SHELF.world, configs)

    def test_grazing_rows_alone_and_after_far_rows(self):
        radius = 0.1
        robot = point_robot(radius)
        world, rows, inside = grazing_rows(radius)
        far = np.array([[-4.5, -4.5, -4.5], [4.5, -4.5, 4.5], [-4.5, 4.5, 4.0]])
        for row, penetrates in zip(rows, inside):
            assert free_mask(robot, world, row[None]).tolist() == [not penetrates]
            self.assert_same(robot, world, row[None])
            batch = np.vstack([far, row])
            assert free_mask(robot, world, batch).tolist() == [True] * 3 + [not penetrates]
            self.assert_same(robot, world, batch)

    def test_empty_batch(self):
        got = free_mask(SHELF.robot, SHELF.world, np.empty((0, SHELF.robot.dof)))
        assert got.dtype == bool and got.shape == (0,)

    def test_empty_clearance_batch(self):
        robot = SHELF.robot
        free, gaps = _clearances(robot, SHELF.world, np.empty((0, robot.dof)))
        assert free.dtype == bool and free.shape == (0,)
        assert gaps.shape == (0, len(robot.spheres) + len(robot.self_pair_arrays[0]))


class TestFreeImpliesWithinLimits:
    def test_free_configs_are_within_limits(self):
        rng = np.random.default_rng(12)
        robot = random_robot(rng)
        world = random_world(rng)
        for _ in range(500):
            q = rng.uniform(robot.lower - 0.2, robot.upper + 0.2)
            if check_config(robot, world, q):
                assert within_limits(robot, q)


class TestClearances:
    """``_clearances``, the kernel path validation reads: each row's verdict
    is its ``free_mask`` verdict, and on a free row each clearance is, by the
    independent scalar oracle, a sphere's distance to its nearest obstacle
    less its radius, or a checked pair's center distance less the radius
    sum."""

    def test_random_robots_and_worlds(self):
        rng = np.random.default_rng(31)
        verdicts = set()
        for _ in range(120):
            robot = random_robot(rng, dof=int(rng.integers(2, 7)))
            world = random_world(rng, count=int(rng.integers(1, 7)), span=0.6)
            # Up to three blocks of the kernel's rows.
            r = _CLEARANCE_ROWS
            rows = int(rng.choice([1, 7, r, r + 1, 2 * r + 1]))
            configs = rng.uniform(robot.lower, robot.upper, size=(rows, robot.dof))
            free, gaps = _clearances(robot, world, configs)
            assert free.tolist() == free_mask(robot, world, configs).tolist()
            centers = sphere_centers_3x3(robot, configs)
            for row in np.flatnonzero(free):
                want = [min(sphere_obstacle_distance_oracle(c, s.radius, o)
                            for o in world.obstacles)
                        for c, s in zip(centers[row], robot.spheres)]
                want += [np.linalg.norm(centers[row, i] - centers[row, j])
                         - robot.spheres[i].radius - robot.spheres[j].radius
                         for i, j in self_pairs_dense(robot)]
                assert np.allclose(gaps[row], want, rtol=0.0, atol=1e-9)
            verdicts.update(free.tolist())
        assert verdicts == {True, False}

    def test_equals_the_gather_kernel_bitwise(self):
        # The component-major kernel against the gather kernel it replaced
        # (``oracles.clearances_gather``): every verdict and clearance bit
        # for bit, on worlds with every shape and yawed boxes, an empty
        # world and robots with no checked sphere pair, across block
        # boundaries; and each row equals its own one-row call.
        rng = np.random.default_rng(53)
        r = _CLEARANCE_ROWS
        verdicts = set()
        for case in range(30):
            robot = random_robot(rng, dof=int(rng.integers(2, 7)),
                                 n_spheres=1 if case % 5 == 1 else None)
            center, size = rng.uniform(-0.6, 0.6, size=(3, 3)), rng.uniform(0.05, 0.4, size=5)
            shapes = (box_obstacle(center[0], size[:3], yaw=float(rng.uniform(-math.pi, math.pi))),
                      cylinder_obstacle(center[1], float(size[3]), float(size[4])),
                      sphere_obstacle(center[2], float(size[0])))
            extra = random_world(rng, count=int(rng.integers(0, 4)), span=0.6).obstacles
            world = WorldModel(() if case % 5 == 0 else shapes + extra)
            configs = rng.uniform(robot.lower, robot.upper, size=(2 * r + 1, robot.dof))
            for m in (1, r - 1, r, r + 1, 2 * r + 1):
                free, gaps = _clearances(robot, world, configs[:m])
                want_free, want_gaps = clearances_gather(robot, world, configs[:m])
                assert free.tolist() == want_free.tolist()
                assert gaps.shape == want_gaps.shape
                assert gaps.tobytes() == want_gaps.tobytes()
            for row, q in enumerate(configs):
                one_free, one_gaps = _clearances(robot, world, q[None])
                assert one_free[0] == free[row]
                assert one_gaps[0].tobytes() == gaps[row].tobytes()
            verdicts.update(free.tolist())
        assert verdicts == {True, False}

    def test_touching_is_free_with_zero_clearance(self):
        # Dyadic sizes make each contact exact: the sphere touches a box
        # face, a cylinder side or a sphere obstacle, and a row 2**-20
        # closer penetrates.
        robot = point_robot(0.25)
        shapes = (box_obstacle((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)),
                  cylinder_obstacle((0.0, 0.0, 0.0), 0.5, 0.5),
                  sphere_obstacle((0.0, 0.0, 0.0), 0.5))
        touching = np.array([[0.75, 0.0, 0.0], [0.0, -0.75, 0.25], [0.0, 0.0, 0.75]])
        for obstacle, q in zip(shapes, touching):
            world = WorldModel((obstacle,))
            closer = q * (1 - 2.0**-20)
            free, gaps = _clearances(robot, world, np.vstack([q, closer]))
            assert free.tolist() == [True, False]
            assert gaps[0, 0] == 0.0 and gaps[1, 0] < 0.0

    def test_no_obstacle_is_infinitely_far(self):
        robot = TestCheckConfig._folding_chain()
        free, gaps = _clearances(robot, WorldModel(()), np.array([[0.0, 0.0, 0.0]]))
        assert free.tolist() == [True]
        assert gaps[0, :2].tolist() == [math.inf, math.inf]
        assert gaps[0, 2:] == pytest.approx([1.15 - 0.2])


def dense_path_verdict(robot, world, waypoints, step):
    """Whether every ``motion_configs`` row of the path is free by the dense
    kernel, and whether ``validate_path`` says the path is valid."""
    ends = waypoints[1:] if len(waypoints) > 1 else waypoints
    configs, _ = motion_configs(robot, waypoints[:len(ends)], ends, step)
    query = Query(start=waypoints[0], goal=GoalSpec.config_goal(waypoints[-1]),
                  time_budget=1.0)
    return (bool(free_mask_dense(robot, world, configs).all()),
            validate_path(robot, world, query, Path(waypoints), step))


class TestPathValidationSkipsProvenSamples:
    """``validate_path`` checks only the samples that clearance and lever
    arms cannot prove free, and its verdict is the dense one: every sample
    of every segment checked by ``oracles.free_mask_dense``.  It is also the
    verdict of the midpoint bisection it replaced
    (``oracles.path_free_bisect``), which it reaches in no more kernel
    calls."""

    @staticmethod
    def kernel_calls(monkeypatch):
        """Rows per ``_clearances`` call of the package and the oracle."""
        calls, kernel = [], collision._clearances

        def counted(robot, world, configs):
            calls.append(len(configs))
            return kernel(robot, world, configs)

        monkeypatch.setattr(collision, "_clearances", counted)
        monkeypatch.setattr(oracles, "_clearances", counted)
        return calls

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([0.01, 0.05, 0.2]),
           st.booleans())
    def test_random_paths_equal_the_dense_verdict(self, seed, k, step, leave_limits):
        # Random robots, worlds and paths, some segments short; one middle
        # waypoint optionally leaves a joint limit by one ulp.
        rng = np.random.default_rng(seed)
        robot = random_robot(rng, dof=int(rng.integers(2, 7)))
        world = random_world(rng, count=int(rng.integers(1, 5)), span=0.6)
        waypoints = rng.uniform(robot.lower, robot.upper, size=(k, robot.dof))
        short = rng.random(k) < 0.3
        waypoints[1:][short[1:]] = waypoints[:-1][short[1:]] + 0.05 * (
            waypoints[1:][short[1:]] - waypoints[:-1][short[1:]])
        if leave_limits:
            row, joint = int(rng.integers(0, k)), int(rng.integers(0, robot.dof))
            waypoints[row, joint] = (np.nextafter(robot.upper[joint], np.inf) if rng.random() < 0.5
                                     else np.nextafter(robot.lower[joint], -np.inf))
        dense, got = dense_path_verdict(robot, world, waypoints, step)
        assert got is dense
        assert path_free_bisect(robot, world, waypoints, step) is dense
        if leave_limits:
            assert not got

    def test_random_paths_reach_both_verdicts(self):
        rng = np.random.default_rng(77)
        verdicts = []
        for _ in range(60):
            robot = random_robot(rng, dof=int(rng.integers(2, 7)))
            world = random_world(rng, count=int(rng.integers(1, 5)), span=0.6)
            waypoints = rng.uniform(robot.lower, robot.upper, size=(3, robot.dof))
            waypoints[1:] = waypoints[:-1] + 0.2 * (waypoints[1:] - waypoints[:-1])
            dense, got = dense_path_verdict(robot, world, waypoints, 0.02)
            assert got is dense
            assert path_free_bisect(robot, world, waypoints, 0.02) is dense
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 10), min_size=1, max_size=5),
           st.sampled_from([0.005, 0.05]))
    def test_grazing_waypoints_equal_the_dense_verdict(self, picks, step):
        # Waypoints 1e-12 of the radius inside or outside contact with each
        # shape, and far free ones: clearances of about 1e-13 prove nothing,
        # so the rows next to a grazing waypoint are all checked.
        radius = 0.1
        robot = point_robot(radius)
        world, rows, _ = grazing_rows(radius)
        far = np.array([[-4.5, -4.5, -4.5], [4.5, -4.5, 4.5], [-4.5, 4.5, 4.0]])
        candidates = np.vstack([rows, far])
        dense, got = dense_path_verdict(robot, world, candidates[picks], step)
        assert got is dense
        assert path_free_bisect(robot, world, candidates[picks], step) is dense

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_middle_waypoint_one_ulp_past_a_limit_is_invalid(self, side):
        robot = point_robot(0.1)
        world = WorldModel((sphere_obstacle((4.0, 4.0, 4.0), 0.2),))
        limit = getattr(robot, side)[1]
        waypoints = np.array([[0.0, 0.0, 0.0], [1.0, limit, 0.0], [2.0, 0.0, 0.0]])
        assert dense_path_verdict(robot, world, waypoints, 0.05) == (True, True)
        waypoints[1, 1] = np.nextafter(limit, math.copysign(np.inf, limit))
        assert dense_path_verdict(robot, world, waypoints, 0.05) == (False, False)

    def test_segment_sample_one_ulp_past_a_limit_is_invalid(self):
        # With 2**54 + 1 samples, the second-to-last one along x from -1.36
        # to 1.88 rounds to one ulp above 1.88: an upper limit of 1.88 makes
        # the segment invalid though both endpoints are within it.  Too many
        # samples to list; the one sample is computed as ``motion_configs``
        # computes it.
        a, b = np.array([-1.36, 0.0, 0.0]), np.array([1.88, 0.0, 0.0])
        count = 2 ** 54 + 1
        sample = a[0] + ((count - 2) * (1.0 / (count - 1))) * (b[0] - a[0])
        assert sample == np.nextafter(1.88, np.inf)
        query = Query(start=a, goal=GoalSpec.config_goal(b), time_budget=1.0)
        for upper, valid in ((1.88, False), (sample, True)):
            joints = tuple(make_joint(name, type=PRISMATIC, axis=axis, limits=(-5.0, hi))
                           for name, axis, hi in (("x", (1, 0, 0), upper),
                                                  ("y", (0, 1, 0), 5.0),
                                                  ("z", (0, 0, 1), 5.0)))
            robot = RobotModel(joints=joints, spheres=(CollisionSphere(2, (0, 0, 0), 0.1),))
            step = config_distance(robot, a, b) / 2 ** 54
            assert validate_path(robot, WorldModel(()), query, Path(np.array([a, b])),
                                 step) is valid

    @pytest.mark.parametrize("step", [1e-300, 5e-324])
    def test_step_too_fine_for_an_int64_count_raises(self, step):
        # ceil(d / step) + 1 does not fit an int64 (at 5e-324, d / step is
        # infinite): a contract violation, not an OverflowError.
        scenario = load_scenario(data_path("scenarios", "shelf_easy.yaml"))
        query = Query(start=scenario.start, goal=scenario.goal, time_budget=1.0)
        path = Path(np.array([scenario.start, scenario.goal.target]))
        with pytest.raises(ContractViolation, match="2\\*\\*63 - 1 samples"):
            validate_path(scenario.robot, scenario.world, query, path, step)

    @pytest.mark.parametrize("wall_x, valid", [(2.0, False), (4.5, False), (5.6, True)])
    def test_counts_above_2_62_bisect_exactly(self, wall_x, valid):
        # About 2**62.9 samples: the midpoint of two late sample indices
        # would overflow as (lo + hi) // 2 and skip the wall at x = 4.5.
        robot = gantry_robot()
        a, b = np.array([1.0, 1.0]), np.array([5.0, 1.0])
        world = WorldModel((box_obstacle((wall_x, 1.0, 0.0), (0.05, 0.5, 0.5)),))
        query = Query(start=a, goal=GoalSpec.config_goal(b), time_budget=1.0)
        step = config_distance(robot, a, b) / 2 ** 62.9
        assert validate_path(robot, world, query, Path(np.array([a, b])), step) is valid

    def test_self_collision_between_free_endpoints(self):
        # Joint b of the folding chain swings the link-2 sphere past the
        # link-0 one: some motions between free configurations overlap there.
        robot, world = TestCheckConfig._folding_chain(), WorldModel(())
        rng = np.random.default_rng(5)
        blocked = 0
        for _ in range(150):
            waypoints = rng.uniform(robot.lower, robot.upper, size=(2, robot.dof))
            if free_mask(robot, world, waypoints).all():
                dense, got = dense_path_verdict(robot, world, waypoints, 0.01)
                assert got is dense
                blocked += not got
        assert blocked >= 5

    @pytest.mark.parametrize("blocked", [False, True])
    def test_no_more_kernel_calls_than_bisection(self, monkeypatch, blocked):
        # A sphere slides 1e-6 past a long box face over 1601 samples, so no
        # run of samples is proven and each is checked; a thin second box
        # blocks only sample 1001, at x = 1.005, which bisection reaches at
        # its last level, since the index is odd.
        radius = 0.1
        robot = point_robot(radius)
        face = box_obstacle((0.0, radius + 1e-6 + 0.25, 0.0), (4.5, 0.25, 0.25))
        bump = box_obstacle((1.005, radius - 1e-6 + 0.25, 0.0), (0.001, 0.25, 0.25))
        world = WorldModel((face, bump) if blocked else (face,))
        waypoints, step = np.array([[-4.0, 0.0, 0.0], [4.0, 0.0, 0.0]]), 0.005
        configs, _ = motion_configs(robot, waypoints[:1], waypoints[1:], step)
        assert len(configs) == 1601
        assert np.flatnonzero(~free_mask_dense(robot, world, configs)).tolist() == (
            [1001] if blocked else [])
        calls = self.kernel_calls(monkeypatch)
        assert path_free(robot, world, waypoints, step) is not blocked
        split = len(calls)
        calls.clear()
        assert path_free_bisect(robot, world, waypoints, step) is not blocked
        assert split <= len(calls)

    def test_interval_touching_at_both_ends_takes_the_cap(self, monkeypatch):
        # Every sample touches a box face exactly (all values dyadic), so
        # the segment's clearance sum is 0: one level cuts it into
        # _MAX_PIECES pieces of one sample each.  A face 2**-10 closer
        # collides.
        robot = gantry_robot(radius=0.25)
        waypoints = np.array([[1.0, 1.0], [3.0, 1.0]])
        step = 2.0 / _MAX_PIECES
        calls = self.kernel_calls(monkeypatch)
        world = WorldModel((box_obstacle((3.0, 1.5, 0.0), (2.5, 0.25, 0.25)),))
        assert path_free(robot, world, waypoints, step)
        assert calls == [2, _MAX_PIECES - 1]
        assert dense_path_verdict(robot, world, waypoints, step) == (True, True)
        world = WorldModel((box_obstacle((3.0, 1.5 - 2.0 ** -10, 0.0), (2.5, 0.25, 0.25)),))
        assert dense_path_verdict(robot, world, waypoints, step) == (False, False)

    def test_touching_samples_are_free(self):
        # The motion's middle row touches the sphere obstacle exactly (all
        # values dyadic), so it is checked, and free.
        robot = gantry_robot(radius=0.25)
        world = WorldModel((sphere_obstacle((2.0, 1.5, 0.0), 0.25),))
        waypoints = np.array([[1.0, 1.0], [3.0, 1.0]])
        assert dense_path_verdict(robot, world, waypoints, 0.5) == (True, True)
        world = WorldModel((sphere_obstacle((2.0, 1.5 - 2.0 ** -10, 0.0), 0.25),))
        assert dense_path_verdict(robot, world, waypoints, 0.5) == (False, False)


class TestIntervalCuts:
    """``_pieces`` and ``_cuts``, the rule by which path validation cuts an
    unproven interval into k equal index pieces."""

    @staticmethod
    def assert_exact(lo, hi, pieces):
        # Each cut is floor(w t / k) past lo in exact integers, strictly
        # increasing and strictly between lo and hi.
        owner, cut = _cuts(np.array(lo), np.array(hi), np.array(pieces))
        assert owner.tolist() == [i for i, k in enumerate(pieces) for _ in range(k - 1)]
        at = 0
        for a, b, k in zip(lo, hi, pieces):
            assert 2 <= k <= b - a
            ends = [a, *cut[at:at + k - 1].tolist(), b]
            assert ends[1:-1] == [a + (b - a) * t // k for t in range(1, k)]
            assert all(x < y for x, y in zip(ends, ends[1:]))
            at += k - 1

    def test_widths_2_to_24_every_piece_count(self):
        rng = np.random.default_rng(3)
        cases = [(int(rng.integers(0, 1000)), w, k)
                 for w in range(2, 25) for k in range(2, min(_MAX_PIECES, w) + 1)]
        for lo, w, k in cases:
            self.assert_exact([lo], [lo + w], [k])
        # All of them stacked in one call.
        self.assert_exact([lo for lo, _, _ in cases], [lo + w for lo, w, _ in cases],
                          [k for _, _, k in cases])

    def test_counts_above_2_62_do_not_overflow(self):
        # The segment of ``test_counts_above_2_62_bisect_exactly``, about
        # 2**62.9 samples: computed as (w * t) // k, every cut would
        # overflow int64.
        robot = gantry_robot()
        a, b = np.array([1.0, 1.0]), np.array([5.0, 1.0])
        step = config_distance(robot, a, b) / 2 ** 62.9
        w = int(_sample_counts(robot, (b - a)[None], step)[0]) - 1
        assert w > 2 ** 62
        for k in range(2, _MAX_PIECES + 1):
            self.assert_exact([0, w // 3, w - 24], [w, w, w], [k, k, min(k, 24)])

    def test_pieces_follow_the_ratio_within_the_clamp(self):
        # Largest ratios B / G of 0.5, 2, 2.5 and 100, at widths 30, 2 and 5.
        room = np.full((4, 3), 1.0)
        bound = np.full((4, 3), 0.25)
        bound[:, 1] = [0.5, 2.0, 2.5, 100.0]
        assert _pieces(bound, room, np.full(4, 30)).tolist() == [2, 2, 3, _MAX_PIECES]
        assert _pieces(bound, room, np.full(4, 2)).tolist() == [2, 2, 2, 2]
        assert _pieces(bound, room, np.full(4, 5)).tolist() == [2, 2, 3, 5]

    def test_no_clearance_takes_the_cap_without_a_warning(self):
        # A clearance sum of 0 (both ends touching) or of a rounding error
        # below it takes the cap, and divides by nothing.
        bound = np.full((3, 2), 1e-9)
        room = np.array([[0.0, 1.0], [-1e-17, 1.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for width in range(2, 25):
                got = _pieces(bound, room, np.full(3, width)).tolist()
                assert got == [min(_MAX_PIECES, width)] * 3
