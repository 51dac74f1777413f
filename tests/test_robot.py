"""Robot model: kinematics, metric, limits, sampling, parsing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planbench.collision import free_mask
from planbench.data import data_path
from planbench.errors import ContractViolation, ValidationError
from planbench.robot import (PRISMATIC, CollisionSphere, JointSpec, RobotModel,
                             config_distance, load_robot, parse_robot,
                             sphere_centers_batch, weighted_norms)
from planbench.world import WorldModel

from conftest import make_joint, random_robot, single_revolute_robot
from oracles import (matrix_chain_spheres, sample_uniform, sphere_centers_3x3,
                     weighted_norms_rowwise, within_limits)


class TestForwardKinematics:
    """``sphere_centers_batch``, the forward kinematics the collision kernel
    calls."""

    def test_identity_configuration(self):
        robot = single_revolute_robot()
        centers = sphere_centers_batch(robot, np.array([[0.0]]))
        assert np.allclose(centers[0, 0], [1.0, 0.0, 0.0])
        assert robot.sphere_radii.tolist() == [0.1]

    def test_quarter_turn(self):
        robot = single_revolute_robot()
        centers = sphere_centers_batch(robot, np.array([[math.pi / 2]]))
        assert np.allclose(centers[0, 0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_radius_unchanged_and_one_per_sphere(self):
        rng = np.random.default_rng(7)
        robot = random_robot(rng, dof=4, n_spheres=5)
        centers = sphere_centers_batch(robot, np.zeros((3, 4)))
        assert centers.shape == (3, 5, 3)
        assert robot.sphere_radii.tolist() == [s.radius for s in robot.spheres]

    def test_matches_matrix_chain_oracle(self):
        rng = np.random.default_rng(42)
        robot = random_robot(rng, dof=8, n_spheres=6)
        configs = np.array([sample_uniform(robot, rng) for _ in range(200)])
        actual = sphere_centers_batch(robot, configs)
        for q, centers in zip(configs, actual):
            expected = matrix_chain_spheres(robot, q)
            for (center, _), out in zip(expected, centers):
                assert np.allclose(out, center, atol=1e-9)

    def test_byte_equal_to_3x3_chain_on_arm8(self):
        # The shipped robot's centers are those of the earlier 3x3 chain bit
        # for bit, signed zeros included, so no verdict can move; exact
        # zeros and lattice values make entries and products exactly zero.
        robot = load_robot(data_path("robots", "arm8.yaml"))
        rng = np.random.default_rng(13)
        for m in (1, 11, 150):
            configs = rng.uniform(robot.lower, robot.upper, size=(m, robot.dof))
            cells = np.round((configs - robot.lower) / robot.resolutions)
            lattice = robot.lower + cells * robot.resolutions
            pick = rng.random(configs.shape)
            configs = np.where(pick < 0.2, 0.0, np.where(pick < 0.5, lattice, configs))
            centers = sphere_centers_batch(robot, configs)
            assert centers.tobytes() == sphere_centers_3x3(robot, configs).tobytes()
            for k in range(m):
                row = sphere_centers_batch(robot, configs[k : k + 1])
                assert row.tobytes() == centers[k : k + 1].tobytes()

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        robot = random_robot(rng, dof=5)
        q = sample_uniform(robot, rng)[None, :]
        first = sphere_centers_batch(robot, q)
        second = sphere_centers_batch(robot, q)
        assert first.tobytes() == second.tobytes()

    def test_dimension_mismatch_rejected(self):
        robot = single_revolute_robot()
        with pytest.raises(ContractViolation):
            sphere_centers_batch(robot, np.array([[0.0, 1.0]]))


class TestLeverArms:
    """``RobotModel.lever_arms``: how far a sphere center can move per unit
    of each joint's travel, the bound path validation proves samples free
    with."""

    def test_table_of_a_chain_with_a_prismatic_joint(self):
        # Joint b slides along x in [-0.5, 0.3], so a joint before it reaches
        # 0.5 further; the sphere sits 0.2 from link 2's origin.
        robot = RobotModel(joints=(
            make_joint("a", limits=(-3.0, 3.0)),
            make_joint("b", type=PRISMATIC, axis=(1, 0, 0), origin_xyz=(0.3, 0.4, 0.0),
                       limits=(-0.5, 0.3)),
            make_joint("c", origin_xyz=(0.0, 0.0, 0.6), limits=(-3.0, 3.0)),
            make_joint("d", origin_xyz=(1.0, 0.0, 0.0), limits=(-3.0, 3.0))),
            spheres=(CollisionSphere(2, (0.2, 0.0, 0.0), 0.1),
                     CollisionSphere(0, (0.0, 0.0, 0.0), 0.1)))
        assert robot.lever_arms.tolist() == [[0.5 + 0.5 + 0.6 + 0.2, 1.0, 0.2, 0.0],
                                             [0.0, 0.0, 0.0, 0.0]]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_dense_sweep_stays_within_the_bound(self, seed):
        # Every sample of a random segment, swept at step 1e-3 in each
        # joint, is within sum_j arm[s, j] |q_j - a_j| of the start's center.
        rng = np.random.default_rng(seed)
        robot = random_robot(rng, dof=int(rng.integers(1, 7)))
        a, b = rng.uniform(robot.lower, robot.upper, size=(2, robot.dof))
        count = int(np.ceil(np.abs(b - a).max() / 1e-3)) + 1
        configs = a + np.linspace(0.0, 1.0, count)[:, None] * (b - a)
        centers = sphere_centers_batch(robot, configs)
        moved = np.linalg.norm(centers - centers[:1], axis=-1)
        bound = np.abs(configs - a) @ robot.lever_arms.T
        assert np.all(moved <= bound + 1e-12)


class TestConfigDistance:
    def test_identity(self, gantry):
        q = np.array([1.0, 2.0])
        assert config_distance(gantry, q, q) == 0.0

    def test_pythagorean(self, gantry):
        assert config_distance(gantry, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_weights_scale(self):
        joints = (make_joint("a", limits=(-10, 10), weight=4.0),
                  make_joint("b", limits=(-10, 10), weight=1.0))
        robot = RobotModel(joints=joints)
        assert config_distance(robot, [0, 0], [1, 0]) == pytest.approx(2.0)

    def test_weighted_norms_rows_equal_config_distance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            robot = random_robot(rng)
            a, b = (rng.uniform(-2, 2, size=(9, robot.dof)) for _ in range(2))
            assert weighted_norms(robot, a - b) == [
                config_distance(robot, x, y) for x, y in zip(a, b)]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 11), st.sampled_from([0, 1, 40]),
           st.floats(1e-6, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_weighted_norms_equal_rowwise_dots_bitwise(self, seed, dof, rows, scale):
        # Each row is its squares' own dot product with the (non-unit)
        # weights, byte for byte; a gemv over all rows sums in another order.
        rng = np.random.default_rng(seed)
        robot = random_robot(rng, dof=dof)
        deltas = rng.normal(size=(rows, dof)) * scale
        got = weighted_norms(robot, deltas)
        assert [type(d) for d in got] == [float] * rows
        assert (np.array(got).tobytes()
                == np.array(weighted_norms_rowwise(robot, deltas)).tobytes())

    @given(st.integers(0, 2**32 - 1), st.integers(1, 11), st.integers(1, 40),
           st.floats(1e-6, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_weighted_norms_do_not_depend_on_memory_layout(self, seed, dof, rows, scale):
        # F-ordered, column-strided and broadcast rows give the C-ordered
        # rows' norms, each sqrt((r * r).dot(w)) of a contiguous row r, byte
        # for byte: squaring an F-ordered array in its own order once moved
        # about one row in five.
        rng = np.random.default_rng(seed)
        robot = random_robot(rng, dof=dof)
        deltas = rng.normal(size=(rows, dof)) * scale
        want = [math.sqrt((r * r).dot(robot.weights)) for r in deltas]
        spaced = np.zeros((rows, 2 * dof))
        spaced[:, ::2] = deltas
        for layout in (deltas, np.asfortranarray(deltas), spaced[:, ::2]):
            assert (np.array(weighted_norms(robot, layout)).tobytes()
                    == np.array(want).tobytes())
        shared = np.broadcast_to(deltas[0], deltas.shape)
        assert weighted_norms(robot, shared) == [want[0]] * rows

    def test_metric_axioms_randomized(self):
        rng = np.random.default_rng(11)
        robot = random_robot(rng, dof=4)
        for _ in range(10_000):
            a, b, c = (rng.uniform(-2, 2, size=4) for _ in range(3))
            dab = config_distance(robot, a, b)
            assert dab >= 0
            assert dab == pytest.approx(config_distance(robot, b, a), abs=1e-12)
            assert dab <= (config_distance(robot, a, c)
                           + config_distance(robot, c, b) + 1e-9)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
           st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_property(self, a, b):
        robot = RobotModel(joints=(make_joint("a", limits=(-10, 10)),
                                   make_joint("b", limits=(-10, 10), weight=2.5)))
        assert config_distance(robot, a, b) == config_distance(robot, b, a)


class TestLimitsAndSampling:
    """Closed joint limits as the collision kernel applies them, and the
    uniform sampler that the reference RRT-Connect loop draws with."""

    def test_exact_bounds_are_inside(self, gantry):
        empty = WorldModel(())
        assert free_mask(gantry, empty, np.array([gantry.lower, gantry.upper])).all()

    def test_epsilon_above_is_outside(self, gantry):
        q = gantry.upper.copy()
        q[0] += 1e-9
        assert not free_mask(gantry, WorldModel(()), q[None, :])[0]

    def test_sampler_respects_limits(self):
        rng = np.random.default_rng(23)
        robot = random_robot(rng, dof=5)
        rng2 = np.random.default_rng(99)
        for _ in range(10_000):
            assert within_limits(robot, sample_uniform(robot, rng2))

    def test_sampler_deterministic(self, gantry):
        a = sample_uniform(gantry, np.random.default_rng(1234))
        b = sample_uniform(gantry, np.random.default_rng(1234))
        assert np.array_equal(a, b)

    def test_sampler_mean(self):
        robot = RobotModel(joints=(make_joint("a", limits=(-2.0, 4.0)),))
        rng = np.random.default_rng(8)
        samples = np.array([sample_uniform(robot, rng)[0] for _ in range(100_000)])
        # Uniform on [-2, 4]: mean 1, variance 3; three standard errors.
        se = math.sqrt(3.0 / len(samples))
        assert abs(samples.mean() - 1.0) < 3 * se

    def test_degenerate_narrow_interval(self):
        robot = RobotModel(joints=(make_joint("a", limits=(0.0, 0.1), resolution=0.1),))
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert within_limits(robot, sample_uniform(robot, rng))


class TestValidation:
    def test_bad_axis_norm(self):
        with pytest.raises(ValidationError):
            make_joint("a", axis=(0, 0, 2))

    def test_inverted_limits(self):
        with pytest.raises(ValidationError):
            make_joint("a", limits=(1.0, -1.0))

    def test_resolution_larger_than_range(self):
        with pytest.raises(ValidationError):
            make_joint("a", limits=(0.0, 1.0), resolution=1.5)

    def test_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            make_joint("a", weight=0.0)

    def test_sphere_link_out_of_range(self):
        with pytest.raises(ValidationError):
            RobotModel(joints=(make_joint("a"),),
                       spheres=(CollisionSphere(1, (0, 0, 0), 0.1),))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValidationError):
            RobotModel(joints=())


ROBOT_DOC = """
joints:
  - {name: lift, type: prismatic, axis: [0, 0, 1], origin_xyz: [0, 0, 0.1],
     origin_rpy: [0, 0, 0], limits: [0.0, 0.4], resolution: 0.1}
  - {name: pan, type: revolute, axis: [0, 0, 1], origin_xyz: [0.1, 0, 0.2],
     origin_rpy: [0, 0, 0], limits: [-1.6, 1.6], resolution: 0.2, weight: 1.5}
collision_spheres:
  - {link: 0, center: [0, 0, 0], radius: 0.1}
  - {link: 1, center: [0.05, 0, 0], radius: 0.08}
self_collision_ignore:
  - [0, 1]
"""

MINIMAL_JOINT = ("joints:\n  - {{name: {name}, type: {type}, axis: [0, 0, 1], "
                 "limits: [-1.0, 1.0], resolution: 0.1}}\n")


class TestRobotFile:
    def test_parse_round_fields(self):
        robot = parse_robot(ROBOT_DOC)
        assert robot.dof == 2
        assert robot.joints[0].type == "prismatic"
        assert robot.joints[1].weight == 1.5
        assert robot.joints[1].limits == (-1.6, 1.6)
        assert len(robot.spheres) == 2
        assert (0, 1) in robot.self_collision_ignored

    def test_default_weight_is_one(self):
        robot = parse_robot(ROBOT_DOC)
        assert robot.joints[0].weight == 1.0

    def test_omitted_keys_take_the_dataclass_defaults(self):
        # The zero origins and unit weight are named once, on JointSpec.
        robot = parse_robot(MINIMAL_JOINT.format(name="j0", type="revolute"))
        built = JointSpec(name="j0", type="revolute", axis=(0, 0, 1), limits=(-1.0, 1.0),
                          resolution=0.1)
        assert robot.joints[0] == built
        assert built.origin_xyz.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("name, type_, what", [
        (5, "revolute", "joint name must be a string, got 5"),
        (["j0"], "revolute", r"joint name must be a string, got \['j0'\]"),
        ("j0", 5, "unknown type 5"),
    ])
    def test_name_and_type_are_not_cast(self, name, type_, what):
        # The parser once took str() of both, so `name: 5` became '5'.
        with pytest.raises(ValidationError, match=what):
            parse_robot(MINIMAL_JOINT.format(name=json.dumps(name), type=json.dumps(type_)))
        with pytest.raises(ValidationError, match=what):
            JointSpec(name=name, type=type_, axis=(0, 0, 1), limits=(-1.0, 1.0),
                      resolution=0.1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_robot(ROBOT_DOC + "\nextra: 1\n")

    def test_malformed_yaml_reports_line(self):
        from planbench.errors import ParseError
        with pytest.raises(ParseError):
            parse_robot("joints:\n  - {name: a, type: revolute\n")
