"""World/scenario module: obstacles, parsing, round-trips, and variations."""

import copy
import dataclasses
import hashlib
import math

import numpy as np
import pytest
import yaml

from planbench.ara_star import MotionPrimitiveSet, parse_primitives
from planbench.bench import RunRecord
from planbench.core import Path, Query
from planbench.data import data_path
from planbench.errors import ContractViolation, ParseError, ValidationError
from planbench.params import parse_params
from planbench.robot import load_robot, parse_robot
from planbench.world import (GoalSpec, Obstacle, VariationSpec, WorldModel,
                             generate_variations, load_scenario, parse_scenario,
                             serialize_scenario)

from oracles import box_obstacle, cylinder_obstacle

MINI_ROBOT = """
joints:
  - {name: j0, type: revolute, axis: [0, 0, 1], limits: [-1.0, 1.0], resolution: 0.1}
collision_spheres:
  - {link: 0, center: [0.2, 0, 0], radius: 0.05}
"""

GANTRY_ROBOT = """
joints:
  - {name: x, type: prismatic, axis: [1, 0, 0], limits: [0.0, 6.0], resolution: 0.02}
  - {name: y, type: prismatic, axis: [0, 1, 0], limits: [0.0, 6.0], resolution: 0.02}
collision_spheres:
  - {link: 1, center: [0, 0, 0], radius: 0.05}
"""


@pytest.fixture
def robot_file(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(MINI_ROBOT)
    return path


@pytest.fixture
def gantry_file(tmp_path):
    path = tmp_path / "gantry.yaml"
    path.write_text(GANTRY_ROBOT)
    return path


def minimal_doc(robot_name="mini.yaml"):
    return (
        "name: demo\n"
        f"robot: {robot_name}\n"
        "start: [0.0]\n"
        "goal: {type: config, target: [0.5]}\n"
        "world: {obstacles: []}\n"
        "time_budget_s: 1.0\n"
    )


class TestObstacle:
    def test_box_requires_half_extents(self):
        with pytest.raises(ValidationError):
            Obstacle(shape="box", center=(0, 0, 0), radius=1.0)

    def test_sphere_rejects_yaw(self):
        with pytest.raises(ValidationError):
            Obstacle(shape="sphere", center=(0, 0, 0), yaw=0.3, radius=1.0)

    def test_positive_sizes(self):
        with pytest.raises(ValidationError):
            box_obstacle((0, 0, 0), (0.1, -0.1, 0.1))

    def test_unknown_shape(self):
        with pytest.raises(ValidationError):
            Obstacle(shape="cone", center=(0, 0, 0), radius=1.0)


# Each shape's size fields, written out independently of the package.
SIZES = {"box": {"half_extents": [0.1, 0.2, 0.3]},
         "cylinder": {"radius": 0.1, "half_height": 0.2},
         "sphere": {"radius": 0.1}}
SIZE_FIELDS = ("half_extents", "radius", "half_height")


def obstacle_doc(fields):
    """A one-obstacle scenario document for the MINI_ROBOT file."""
    entry = ", ".join(f"{k}: {v}" for k, v in fields.items())
    return minimal_doc().replace("obstacles: []", f"obstacles: [{{{entry}}}]")


@pytest.mark.parametrize("shape", sorted(SIZES))
@pytest.mark.parametrize("field", SIZE_FIELDS)
def test_missing_or_foreign_size_field_rejected(shape, field, tmp_path, robot_file):
    fields = {"shape": shape, "center": [1, 0, 0], **SIZES[shape]}
    if field in SIZES[shape]:
        del fields[field]
    else:
        fields[field] = SIZES["box" if field == "half_extents" else "cylinder"][field]
    with pytest.raises(ValidationError):
        Obstacle(**fields)
    with pytest.raises(ValidationError):
        parse_scenario(obstacle_doc(fields), base_dir=tmp_path)


@pytest.mark.parametrize("fields", [
    {"shape": "box", "half_extents": [0.1, 0.0, 0.1]},
    {"shape": "box", "half_extents": [0.1, 0.1]},
    {"shape": "cylinder", "radius": 0.1, "half_height": -0.2},
    {"shape": "cylinder", "radius": 0.0, "half_height": 0.2},
    {"shape": "sphere", "radius": -0.1},
    {"shape": "sphere", "radius": 0.1, "yaw": 0.3},
    {"shape": ["box"], "half_extents": [0.1, 0.1, 0.1]},
], ids=["box-zero", "box-length", "cylinder-height", "cylinder-radius", "sphere-radius",
        "sphere-yaw", "unhashable-shape"])
def test_invalid_obstacle_rejected(fields, tmp_path, robot_file):
    fields = {"center": [1, 0, 0], **fields}
    with pytest.raises(ValidationError):
        Obstacle(**fields)
    with pytest.raises(ValidationError):
        parse_scenario(obstacle_doc(fields), base_dir=tmp_path)


def _changed(obj, field, value):
    """A copy of ``obj`` with one field replaced, bypassing validation."""
    other = copy.copy(obj)
    object.__setattr__(other, field, value)
    return other


def _assert_each_field_compared(obj, changes):
    assert obj == copy.copy(obj)
    for field, value in changes.items():
        other = _changed(obj, field, value)
        assert obj != other, field
        assert other != obj, field


def test_equality_compares_every_obstacle_field():
    box = box_obstacle((1.0, 0.0, 0.0), (0.1, 0.2, 0.3), yaw=0.5)
    _assert_each_field_compared(box, {
        "shape": "cylinder", "center": np.array([1.0, 0.0, 0.5]), "yaw": 0.25,
        "half_extents": np.array([0.1, 0.2, 0.4]), "radius": 0.1, "half_height": 0.1})
    cylinder = cylinder_obstacle((1.0, 0.0, 0.0), 0.1, 0.2)
    _assert_each_field_compared(cylinder, {"radius": 0.15, "half_height": 0.25,
                                           "half_extents": np.ones(3)})


def test_equality_compares_every_goal_field():
    goal = GoalSpec.config_goal([0.5, 0.5], [0.1, 0.1])
    _assert_each_field_compared(goal, {
        "type": "region", "target": np.array([0.5, 0.25]), "tolerance": None,
        "lower": np.array([0.4, 0.3]), "upper": np.array([0.6, 0.7])})
    region = GoalSpec(type="region", lower=[0.0, 0.0], upper=[1.0, 1.0])
    _assert_each_field_compared(region, {"target": np.zeros(2), "tolerance": np.zeros(2)})


@pytest.mark.parametrize("stray", [{"target": np.array([1.2, 1.2])}, {"target": [1.2, 1.2]},
                                   {"tolerance": [0.1, 0.1]}],
                         ids=["array-target", "list-target", "tolerance"])
def test_region_goal_rejects_target_and_tolerance(stray, tmp_path, gantry_file):
    # A region goal built in code once kept a stray array target, which
    # ARA* snapped to: a path ending at [1.2, 1.2], outside the region, was
    # reported solved.  A list target crashed the search.
    with pytest.raises(ValidationError, match="region goal is given by its box"):
        GoalSpec(type="region", lower=[4, 4], upper=[5, 5], **stray)
    entry = ", ".join(f"{key}: {np.asarray(value).tolist()}" for key, value in stray.items())
    doc = minimal_doc("gantry.yaml").replace("start: [0.0]", "start: [1.0, 1.0]").replace(
        "{type: config, target: [0.5]}",
        f"{{type: region, lower: [4, 4], upper: [5, 5], {entry}}}")
    parse_scenario(doc.replace(f", {entry}", ""), base_dir=tmp_path)
    with pytest.raises(ValidationError, match="region goal is given by its box"):
        parse_scenario(doc, base_dir=tmp_path)


def test_equality_compares_every_robot_field():
    # The generated dataclass __eq__ compared numpy fields with ==, so two
    # loads of one robot file raised ValueError instead of comparing equal.
    robot = load_robot(data_path("robots", "arm8.yaml"))
    assert robot == load_robot(data_path("robots", "arm8.yaml"))
    joint, sphere = robot.joints[1], robot.spheres[1]
    _assert_each_field_compared(joint, {
        "name": "other", "type": "prismatic", "axis": np.array([0.0, 1.0, 0.0]),
        "limits": (-1.0, 1.0), "resolution": 0.5, "origin_xyz": np.array([0.0, 0.0, 9.0]),
        "origin_rpy": np.array([0.0, 0.0, 1.0]), "weight": 9.0})
    _assert_each_field_compared(sphere, {"link": 7, "center": np.array([9.0, 0.0, 0.0]),
                                         "radius": 9.0})
    _assert_each_field_compared(robot, {
        "joints": robot.joints[:-1] + (_changed(robot.joints[-1], "weight", 9.0),),
        "spheres": robot.spheres[1:], "self_collision_ignored": frozenset({(0, 1)})})


@pytest.mark.parametrize("build, changes", [
    (lambda: Query(start=[0.0, 0.0], goal=GoalSpec.config_goal([0.5, 0.5]), time_budget=1.0),
     {"start": np.array([0.0, 1.0]), "time_budget": 2.0}),
    (lambda: Path([[0.0, 0.0], [0.5, 0.5]]), {"waypoints": np.zeros((2, 2))}),
    (lambda: MotionPrimitiveSet(primitives=[[1, 0], [-1, 0]], snap_radius=0.5),
     {"primitives": np.array([[0, 1], [0, -1]]), "snap_radius": 1.0}),
    (lambda: RunRecord("s", "ara-star", None, "solved-forward", 0.1, path=np.zeros((2, 2))),
     {"path": np.ones((2, 2)), "status": "failure"}),
], ids=["query", "path", "primitives", "record"])
def test_values_built_from_one_input_compare_equal(build, changes):
    assert build() == build()
    _assert_each_field_compared(build(), changes)


@pytest.mark.parametrize("key, value, what", [
    ("name", 5, "scenario name must be a string, got 5"),
    ("name", ["demo"], r"scenario name must be a string, got \['demo'\]"),
    ("robot", 5, "TypeError"),
    ("robot", ["mini.yaml"], "TypeError"),
], ids=["name-int", "name-list", "robot-int", "robot-list"])
def test_name_and_robot_are_not_cast(key, value, what, tmp_path, robot_file):
    # The parser once took str() of both, so `name: 5` became '5'.  A robot
    # path that is no string fails where the document's robot is loaded.
    with pytest.raises(ValidationError, match=what):
        # The given value, with the document's own commented out.
        parse_scenario(minimal_doc().replace(f"{key}: ", f"{key}: {value!r} # "),
                       base_dir=tmp_path)
    scenario = parse_scenario(minimal_doc(), base_dir=tmp_path)
    field = "robot_file" if key == "robot" else key
    with pytest.raises(ValidationError, match=f"scenario {field} must be a string"):
        dataclasses.replace(scenario, **{field: value})


def test_equality_compares_every_scenario_field(tmp_path, gantry_file):
    scenario = shelf_scenario(tmp_path, gantry_file)
    _assert_each_field_compared(scenario, {
        "name": "other", "robot_file": "other.yaml", "start": np.array([0.5, 0.75]),
        "goal": GoalSpec.config_goal([5.0, 4.0]),
        "world": WorldModel(scenario.world.obstacles[:2]), "time_budget": 3.0,
        "variation": None})
    # The robot is identified by its file; the loaded model is not compared.
    assert _changed(scenario, "robot", None) == scenario


@pytest.mark.parametrize("name", ["shelf_easy.yaml", "shelf_reach.yaml"])
def test_shipped_scenarios_serialize_to_their_files(name):
    path = data_path("scenarios", name)
    assert serialize_scenario(load_scenario(path)) == path.read_text(encoding="utf-8")


class TestParse:
    def test_minimal_document(self, tmp_path, robot_file):
        scenario = parse_scenario(minimal_doc(), base_dir=tmp_path)
        assert scenario.name == "demo"
        assert len(scenario.world.obstacles) == 0
        assert scenario.goal.type == "config"
        assert scenario.time_budget == 1.0

    def test_single_box(self, tmp_path, robot_file):
        doc = minimal_doc().replace(
            "world: {obstacles: []}",
            "world: {obstacles: [{shape: box, center: [1, 0, 0], yaw: 0.0, "
            "half_extents: [0.1, 0.1, 0.1]}]}")
        scenario = parse_scenario(doc, base_dir=tmp_path)
        assert len(scenario.world.obstacles) == 1
        box = scenario.world.obstacles[0]
        assert box.shape == "box"
        assert np.allclose(box.center, [1, 0, 0])

    def test_unknown_shape_rejected(self, tmp_path, robot_file):
        doc = minimal_doc().replace(
            "world: {obstacles: []}",
            "world: {obstacles: [{shape: wedge, center: [0, 0, 0]}]}")
        with pytest.raises(ValidationError):
            parse_scenario(doc, base_dir=tmp_path)

    def test_dimension_mismatch_rejected(self, tmp_path, robot_file):
        doc = minimal_doc().replace("start: [0.0]", "start: [0.0, 0.0]")
        with pytest.raises(ValidationError):
            parse_scenario(doc, base_dir=tmp_path)

    @pytest.mark.parametrize("goal", ["{type: config, target: [0.5, 0.5]}",
                                      "{type: region, lower: [0.0, 0.0], upper: [0.5, 0.5]}"],
                             ids=["config", "region"])
    def test_goal_dimension_mismatch_rejected(self, tmp_path, robot_file, goal):
        # A scenario file keeps its own error: the goal is input to check,
        # not a contract of the caller, so this is no ContractViolation.
        doc = minimal_doc().replace("{type: config, target: [0.5]}", goal)
        with pytest.raises(ValidationError, match="goal dimension does not match"):
            parse_scenario(doc, base_dir=tmp_path)

    def test_malformed_yaml_reports_line(self, tmp_path, robot_file):
        with pytest.raises(ParseError) as err:
            parse_scenario("name: x\nworld: {obstacles: [\n", base_dir=tmp_path)
        assert err.value.line is not None

    def test_region_goal_must_intersect_limits(self, tmp_path, robot_file):
        doc = minimal_doc().replace(
            "goal: {type: config, target: [0.5]}",
            "goal: {type: region, lower: [2.0], upper: [3.0]}")
        with pytest.raises(ValidationError):
            parse_scenario(doc, base_dir=tmp_path)

    def test_missing_robot_file(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_scenario(minimal_doc("missing.yaml"), base_dir=tmp_path)


# A box on the robot's base that a non-finite center would make vanish.
NAN_BOX = ("obstacles: [{shape: box, center: [.nan, 0, 0], yaw: 0.0, "
           "half_extents: [0.5, 0.5, 0.5]}]")


@pytest.mark.parametrize("kind, doc", [
    ("robot", "joints: 3\n"),
    ("robot", MINI_ROBOT.replace("limits: [-1.0, 1.0]", "limits: abc")),
    ("scenario", minimal_doc().replace("time_budget_s: 1.0", "time_budget_s: abc")),
    ("scenario", minimal_doc().replace(
        "obstacles: []", "obstacles: [{shape: sphere, center: abc, radius: 0.1}]")),
    ("scenario", minimal_doc().replace("obstacles: []", NAN_BOX)),
    ("scenario", minimal_doc().replace("obstacles: []", NAN_BOX.replace(
        "[.nan, 0, 0], yaw: 0.0", "[0, 0, 0], yaw: .nan"))),
    ("scenario", minimal_doc().replace("obstacles: []", NAN_BOX.replace(".nan", ".inf"))),
    ("scenario", minimal_doc() + "variation: {shelf_indices: [a]}\n"),
    ("scenario", minimal_doc() + "variation: {height_range: .nan}\n"),
    ("scenario", minimal_doc() + "variation: {yaw_range_deg: .inf}\n"),
    ("robot", MINI_ROBOT.replace("axis: [0, 0, 1]", "axis: [0, 0, .nan]")),
    ("robot", MINI_ROBOT.replace("axis: [0, 0, 1]",
                                 "axis: [0, 0, 1], origin_xyz: [.nan, 0, 0]")),
    ("robot", MINI_ROBOT.replace("axis: [0, 0, 1]",
                                 "axis: [0, 0, 1], origin_rpy: [0, .inf, 0]")),
    ("robot", MINI_ROBOT.replace("limits: [-1.0, 1.0]", "limits: [-1.0, .inf]")),
    ("robot", MINI_ROBOT.replace("resolution: 0.1}", "resolution: 0.1, weight: .inf}")),
    ("robot", MINI_ROBOT.replace("center: [0.2, 0, 0]", "center: [.nan, 0, 0]")),
    ("robot", MINI_ROBOT.replace("radius: 0.05", "radius: .inf")),
    ("scenario", minimal_doc().replace("start: [0.0]", "start: [.nan]")),
    ("scenario", minimal_doc().replace("target: [0.5]", "target: [.nan]")),
    ("scenario", minimal_doc().replace("target: [0.5]", "target: [0.5], tolerance: [.inf]")),
    ("scenario", minimal_doc().replace("{type: config, target: [0.5]}",
                                       "{type: region, lower: [-.inf], upper: [0.5]}")),
    ("scenario", minimal_doc().replace("{type: config, target: [0.5]}",
                                       "{type: region, lower: [0.0], upper: [.inf]}")),
    ("scenario", minimal_doc().replace("time_budget_s: 1.0", "time_budget_s: .inf")),
    ("primitives", "primitives: 5\n"),
    ("primitives", "snap_radius: abc\n"),
    ("primitives", "snap_radius: .nan\n"),
    ("primitives", "snap_radius: .inf\n"),
], ids=["robot-joints", "robot-limits", "scenario-budget", "obstacle-center",
        "obstacle-nan-center", "obstacle-nan-yaw", "obstacle-inf-center",
        "variation-indices", "variation-nan-range", "variation-inf-range",
        "joint-nan-axis", "joint-nan-origin-xyz", "joint-inf-origin-rpy",
        "joint-inf-limits", "joint-inf-weight", "sphere-nan-center", "sphere-inf-radius",
        "scenario-nan-start", "goal-nan-target", "goal-inf-tolerance",
        "goal-inf-lower", "goal-inf-upper", "scenario-inf-budget", "primitives-list",
        "primitives-snap", "primitives-nan-snap", "primitives-inf-snap"])
def test_malformed_values_raise_validation_error(kind, doc, tmp_path, robot_file):
    parse = {
        "robot": parse_robot,
        "scenario": lambda text: parse_scenario(text, base_dir=tmp_path),
        "primitives": lambda text: parse_primitives(text, parse_robot(MINI_ROBOT)),
    }[kind]
    with pytest.raises(ValidationError):
        parse(doc)


TWO_SPHERES = ("obstacles: [{shape: sphere, center: [5, 5, 5], radius: 0.1}, "
               "{shape: sphere, center: [6, 6, 6], radius: 0.1}]")


@pytest.mark.parametrize("kind, template, bad", [
    ("robot", GANTRY_ROBOT.replace("link: 1", "link: VALUE"), "1.7"),
    ("robot", GANTRY_ROBOT.replace("link: 1", "link: VALUE"), "true"),
    ("robot", GANTRY_ROBOT.replace("link: 1", "link: VALUE"), "'1'"),
    ("robot", GANTRY_ROBOT + "self_collision_ignore: [[VALUE, 0]]\n", "0.9"),
    ("scenario", minimal_doc().replace("obstacles: []", TWO_SPHERES)
     + "variation: {object_indices: [VALUE]}\n", "1.5"),
    ("scenario", minimal_doc().replace("obstacles: []", TWO_SPHERES)
     + "variation: {object_indices: [VALUE]}\n", "true"),
    ("scenario", minimal_doc().replace("obstacles: []", TWO_SPHERES)
     + "variation: {shelf_indices: [VALUE]}\n", "1.0"),
    ("primitives", "primitives: [[VALUE, 1]]\n", "1.5"),
    ("primitives", "primitives: [[VALUE, 1]]\n", "0.4"),
    ("primitives", "primitives: [[VALUE, 1]]\n", "'1'"),
], ids=["sphere-link-float", "sphere-link-bool", "sphere-link-string", "ignore-pair-float",
        "object-index-float", "object-index-bool", "shelf-index-float",
        "primitive-float", "primitive-fraction", "primitive-string"])
def test_integer_fields_reject_non_integers(kind, template, bad, tmp_path, robot_file):
    # Each field once took int() of what it was given: 1.7 became link 1,
    # true became 1 and [0.4, 1] the axis move [0, 1].  The integer 0 parses.
    parse = {
        "robot": parse_robot,
        "scenario": lambda text: parse_scenario(text, base_dir=tmp_path),
        "primitives": lambda text: parse_primitives(text, parse_robot(GANTRY_ROBOT)),
    }[kind]
    parse(template.replace("VALUE", "0"))
    with pytest.raises(ValidationError, match=r"must be an integer, got"):
        parse(template.replace("VALUE", bad))


ONE_OBSTACLE = minimal_doc().replace("obstacles: []", "obstacles: [OBSTACLE]")


@pytest.mark.parametrize("bad", ["true", "'0.5'"])
@pytest.mark.parametrize("kind, template, valid, what", [
    ("robot", MINI_ROBOT.replace("resolution: 0.1", "resolution: VALUE"), "0.5",
     "joint 'j0' resolution"),
    ("robot", MINI_ROBOT.replace("resolution: 0.1", "resolution: 0.1, weight: VALUE"), "0.5",
     "joint 'j0' weight"),
    ("robot", MINI_ROBOT.replace("radius: 0.05", "radius: VALUE"), "0.5", "sphere radius"),
    ("scenario", ONE_OBSTACLE.replace(
        "OBSTACLE", "{shape: box, center: [5, 5, 5], yaw: VALUE, half_extents: [1, 1, 1]}"),
     "0.5", "obstacle yaw"),
    ("scenario", ONE_OBSTACLE.replace(
        "OBSTACLE", "{shape: cylinder, center: [5, 5, 5], radius: VALUE, half_height: 1}"),
     "0.5", "cylinder radius"),
    ("scenario", ONE_OBSTACLE.replace(
        "OBSTACLE", "{shape: cylinder, center: [5, 5, 5], radius: 1, half_height: VALUE}"),
     "0.5", "cylinder half_height"),
    ("scenario", ONE_OBSTACLE.replace(
        "OBSTACLE", "{shape: sphere, center: [5, 5, 5], radius: VALUE}"),
     "0.5", "sphere radius"),
    ("scenario", minimal_doc() + "variation: {object_jitter_xy: VALUE}\n", "0.5",
     "variation object_jitter_xy"),
    ("scenario", minimal_doc() + "variation: {height_range: VALUE}\n", "0.5",
     "variation height_range"),
    ("scenario", minimal_doc() + "variation: {yaw_range_deg: VALUE}\n", "0.5",
     "variation yaw_range_deg"),
    ("scenario", minimal_doc().replace("time_budget_s: 1.0", "time_budget_s: VALUE"), "0.5",
     "time budget"),
    ("query", "VALUE", "0.5", "time budget"),
    ("primitives", "snap_radius: VALUE\n", "0.5", "snap_radius"),
    ("params", "common: {edge_step: VALUE}\n", "0.5", "edge_step"),
    ("params", "rrt_connect: {step_eta: VALUE}\n", "0.5", "step_eta"),
    ("params", "common: {goal_tolerance_default: VALUE}\n", "0.5", "goal_tolerance_default"),
    ("params", "ara_star: {epsilon_schedule: [2.0, VALUE]}\n", "1.5", "epsilon_schedule"),
], ids=["joint-resolution", "joint-weight", "sphere-radius", "obstacle-yaw",
        "cylinder-radius", "cylinder-half-height", "sphere-obstacle-radius",
        "variation-jitter", "variation-height", "variation-yaw", "scenario-budget",
        "query-budget", "primitives-snap", "params-edge-step", "params-step-eta",
        "params-goal-tolerance", "params-epsilon-schedule"])
def test_real_fields_reject_bools_and_strings(kind, template, valid, what, bad, tmp_path,
                                              robot_file):
    # Each field once took float() of what it was given, or compared it as
    # given: true became 1.0 and the string '0.5' the number 0.5.
    parse = {
        "robot": parse_robot,
        "scenario": lambda text: parse_scenario(text, base_dir=tmp_path),
        "query": lambda text: Query(start=[0.0], goal=GoalSpec.config_goal([0.5]),
                                    time_budget=yaml.safe_load(text)),
        "primitives": lambda text: parse_primitives(text, parse_robot(GANTRY_ROBOT)),
        "params": parse_params,
    }[kind]
    parse(template.replace("VALUE", valid))
    with pytest.raises(ValidationError,
                       match=rf"^{what} must (be a finite real number|hold real numbers), got"):
        parse(template.replace("VALUE", bad))


@pytest.mark.parametrize("bad", ["[true, 5, 5]", "['5', 5, 5]"])
@pytest.mark.parametrize("template, what", [
    (ONE_OBSTACLE.replace("OBSTACLE", "{shape: sphere, center: VALUE, radius: 0.5}"),
     "obstacle center"),
    (ONE_OBSTACLE.replace(
        "OBSTACLE", "{shape: box, center: [5, 5, 5], half_extents: VALUE}"), "box half_extents"),
    (minimal_doc().replace("start: [0.0]", "start: VALUE"), "start"),
], ids=["obstacle-center", "box-half-extents", "start"])
def test_array_entries_reject_bools_and_strings(template, what, bad, tmp_path, robot_file):
    # np.array(..., dtype=float) reads true as 1.0 and '5' as 5.0.
    with pytest.raises(ValidationError, match=rf"^{what} must hold real numbers, got"):
        parse_scenario(template.replace("VALUE", bad), base_dir=tmp_path)


def random_scenario_doc(rng, robot_name="gantry.yaml"):
    """A random but valid scenario document for round-trip fuzzing."""
    obstacles = []
    for _ in range(int(rng.integers(0, 4))):
        shape = rng.choice(["box", "cylinder", "sphere"])
        center = [round(float(v), 4) for v in rng.uniform(0, 6, size=3)]
        if shape == "box":
            he = [round(float(v), 4) for v in rng.uniform(0.05, 0.5, size=3)]
            obstacles.append(
                f"{{shape: box, center: {center}, yaw: {round(float(rng.uniform(-1, 1)), 4)}, "
                f"half_extents: {he}}}")
        elif shape == "cylinder":
            obstacles.append(
                f"{{shape: cylinder, center: {center}, yaw: 0.1, "
                f"radius: {round(float(rng.uniform(0.05, 0.4)), 4)}, "
                f"half_height: {round(float(rng.uniform(0.05, 0.4)), 4)}}}")
        else:
            obstacles.append(
                f"{{shape: sphere, center: {center}, "
                f"radius: {round(float(rng.uniform(0.05, 0.4)), 4)}}}")
    start = [round(float(v), 4) for v in rng.uniform(0, 6, size=2)]
    if rng.random() < 0.5:
        target = [round(float(v), 4) for v in rng.uniform(0, 6, size=2)]
        goal = f"goal: {{type: config, target: {target}}}"
    else:
        lower = [round(float(v), 4) for v in rng.uniform(0, 3, size=2)]
        upper = [round(lo + round(float(rng.uniform(0.1, 2.0)), 4), 4) for lo in lower]
        goal = f"goal: {{type: region, lower: {lower}, upper: {upper}}}"
    lines = [
        f"name: fuzz_{int(rng.integers(0, 10_000))}",
        f"robot: {robot_name}",
        f"start: {start}",
        goal,
        "world:",
        "  obstacles:",
    ]
    lines.extend(f"    - {o}" for o in obstacles)
    if not obstacles:
        lines[-1] = "  obstacles: []"
    lines.append(f"time_budget_s: {round(float(rng.uniform(0.5, 30.0)), 3)}")
    return "\n".join(lines) + "\n"


class TestRoundTrip:
    def test_serialize_parse_identity_fuzzed(self, tmp_path, gantry_file):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            doc = random_scenario_doc(rng)
            scenario = parse_scenario(doc, base_dir=tmp_path)
            reparsed = parse_scenario(serialize_scenario(scenario), base_dir=tmp_path)
            assert reparsed == scenario

    def test_round_trip_preserves_variation(self, tmp_path, gantry_file):
        doc = minimal_doc("gantry.yaml").replace("start: [0.0]", "start: [0.0, 0.0]")
        doc = doc.replace("goal: {type: config, target: [0.5]}",
                          "goal: {type: config, target: [0.5, 0.5], tolerance: [0.1, 0.1]}")
        doc += ("world2: null\n")  # exercise unknown-key rejection separately
        with pytest.raises(ValidationError):
            parse_scenario(doc, base_dir=tmp_path)
        doc = doc.replace("world2: null\n", "")
        doc += ("variation:\n  object_jitter_xy: 0.05\n  height_range: 0.1\n"
                "  yaw_range_deg: 15\n  shelf_indices: []\n  object_indices: []\n")
        scenario = parse_scenario(doc, base_dir=tmp_path)
        reparsed = parse_scenario(serialize_scenario(scenario), base_dir=tmp_path)
        assert reparsed == scenario
        assert reparsed.variation.yaw_range_deg == 15.0


def shelf_scenario(tmp_path, gantry_file):
    doc = "\n".join([
        "name: shelf",
        "robot: gantry.yaml",
        "start: [0.5, 0.5]",
        "goal: {type: config, target: [5.0, 5.0]}",
        "world:",
        "  obstacles:",
        "    - {shape: box, center: [3.0, 3.0, 0.0], yaw: 0.0, half_extents: [0.5, 0.1, 0.5]}",
        "    - {shape: cylinder, center: [2.8, 3.2, 0.0], yaw: 0.0, radius: 0.1, half_height: 0.3}",
        "    - {shape: cylinder, center: [3.2, 3.2, 0.0], yaw: 0.0, radius: 0.1, half_height: 0.3}",
        "time_budget_s: 2.0",
        "variation:",
        "  object_jitter_xy: 0.1",
        "  height_range: 0.15",
        "  yaw_range_deg: 30",
        "  shelf_indices: [0]",
        "  object_indices: [1, 2]",
    ]) + "\n"
    return parse_scenario(doc, base_dir=tmp_path)


# sha256 of the 30 serialized scenes of shelf_reach.yaml, concatenated, per
# suite seed and family.
SUITE_SHA256 = {
    (424242, "objects_only"): "11b818a61ddbee9d2b918e02c036aea6348246247903c6f7cbcab9f9963f0b60",
    (424242, "plus_height"): "d7165c1b3d3c2f971ae079d63ab9b2a4c6cfdaa3a0cff86c09d29de316b44a0a",
    (424242, "plus_rotation"): "288348dc3066bfbf7940e9b06c0462ddd54fe4411e95545270c5e153cb5e520c",
    (20240613, "objects_only"): "4a2ae8b6f10fe780cbd976784609ec6a576b7d007458257f971b6d3e6fd0485a",
    (20240613, "plus_height"): "933f6aff1e77ed3db949f963cce00d817b3f23e1ba7e2cd28947d05f40f19bb8",
    (20240613, "plus_rotation"): "12701a914802341e55b580234f7d98a1d08d924f42343dda25134f351aeef1c0",
}


@pytest.mark.parametrize("suite_seed, family", SUITE_SHA256)
def test_generated_suite_bytes_pinned(suite_seed, family):
    # A generator change that moves any obstacle of the shipped suites, or
    # the text they serialize to, shows here before it reaches a benchmark.
    base = load_scenario(data_path("scenarios", "shelf_reach.yaml"))
    text = "".join(map(serialize_scenario, generate_variations(base, family, 30, suite_seed)))
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_SHA256[suite_seed, family]


class TestVariations:
    def test_zero_width_ranges_reproduce_base(self, tmp_path, gantry_file):
        base = shelf_scenario(tmp_path, gantry_file)
        var = VariationSpec(object_jitter_xy=0.0, height_range=0.0, yaw_range_deg=0.0,
                            shelf_indices=(0,), object_indices=(1, 2))
        from dataclasses import replace
        degenerate = replace(base, variation=var)
        out = generate_variations(degenerate, "plus_rotation", 1, seed=5)
        assert len(out) == 1
        assert out[0] == replace(degenerate, name=f"{base.name}_000")

    @pytest.mark.parametrize("family", ["objects_only", "plus_height", "plus_rotation"])
    def test_variations_have_unique_indexed_names(self, tmp_path, gantry_file, family):
        base = shelf_scenario(tmp_path, gantry_file)
        names = [s.name for s in generate_variations(base, family, 12, seed=4)]
        assert names == [f"{base.name}_{i:03d}" for i in range(12)]

    def test_deterministic(self, tmp_path, gantry_file):
        base = shelf_scenario(tmp_path, gantry_file)
        a = generate_variations(base, "plus_rotation", 10, seed=9)
        b = generate_variations(base, "plus_rotation", 10, seed=9)
        assert a == b

    def test_objects_only_keeps_shelf_fixed(self, tmp_path, gantry_file):
        base = shelf_scenario(tmp_path, gantry_file)
        out = generate_variations(base, "objects_only", 100, seed=1)
        moved = 0
        for scenario in out:
            assert scenario.world.obstacles[0] == base.world.obstacles[0]
            if not all(scenario.world.obstacles[i] == base.world.obstacles[i]
                       for i in (1, 2)):
                moved += 1
        assert moved == 100

    def test_object_z_unchanged_in_objects_only(self, tmp_path, gantry_file):
        base = shelf_scenario(tmp_path, gantry_file)
        for scenario in generate_variations(base, "objects_only", 20, seed=3):
            for i in (1, 2):
                assert scenario.world.obstacles[i].center[2] == \
                    base.world.obstacles[i].center[2]

    def test_plus_height_shifts_group_together(self, tmp_path, gantry_file):
        base = shelf_scenario(tmp_path, gantry_file)
        for scenario in generate_variations(base, "plus_height", 20, seed=3):
            dz = scenario.world.obstacles[0].center[2] - base.world.obstacles[0].center[2]
            for i in (1, 2):
                # Objects get xy jitter, but their z shift matches the shelf's.
                got = scenario.world.obstacles[i].center[2] - base.world.obstacles[i].center[2]
                assert got == pytest.approx(dz, abs=1e-12)

    def test_family_nesting_shares_common_draws(self, tmp_path, gantry_file):
        base = shelf_scenario(tmp_path, gantry_file)
        jitter_only = generate_variations(base, "objects_only", 5, seed=77)
        with_height = generate_variations(base, "plus_height", 5, seed=77)
        for a, b in zip(jitter_only, with_height):
            for i in (1, 2):
                # Same xy jitter in both families for equal seeds.
                assert a.world.obstacles[i].center[0] == b.world.obstacles[i].center[0]
                assert a.world.obstacles[i].center[1] == b.world.obstacles[i].center[1]

    def test_rotation_rotates_about_base_z(self, tmp_path, gantry_file):
        base = shelf_scenario(tmp_path, gantry_file)
        out = generate_variations(base, "plus_rotation", 10, seed=13)
        for scenario in out:
            shelf = scenario.world.obstacles[0]
            dyaw = shelf.yaw - base.world.obstacles[0].yaw
            c, s = math.cos(dyaw), math.sin(dyaw)
            # Undo the height shift, then the rotation must map base -> new.
            dz = shelf.center[2] - base.world.obstacles[0].center[2]
            bx, by, bz = base.world.obstacles[0].center + np.array([0.0, 0.0, dz])
            expected = np.array([c * bx - s * by, s * bx + c * by, bz])
            assert np.allclose(shelf.center, expected, atol=1e-12)

    def test_count_and_family_validation(self, tmp_path, gantry_file):
        base = shelf_scenario(tmp_path, gantry_file)
        # A count or seed enters through errors.integer: 2.5 once raised
        # TypeError, True passed as 1 and a negative seed reached numpy.
        for count, seed in ((0, 1), (2.5, 1), (True, 1), ("2", 1), (1, -1), (1, 1.0)):
            with pytest.raises(ValidationError):
                generate_variations(base, "objects_only", count, seed=seed)
        with pytest.raises(ContractViolation):
            generate_variations(base, "everything", 1, seed=1)
        assert len(generate_variations(base, "objects_only", np.int64(2), seed=np.int64(0))) == 2

    def test_an_index_listed_twice_is_rejected(self):
        # Each listing moved the obstacle once more: on shelf_reach under
        # plus_height at seed 7, board 0 also listed as an object ended at
        # z = 0.352 instead of 0.510, with an xy jitter it should not get.
        for shelf, objects in (((0,), (0, 1)), ((0, 0), (1,)), ((0,), (1, 2, 1))):
            with pytest.raises(ValidationError, match="twice"):
                VariationSpec(shelf_indices=shelf, object_indices=objects)
        path = data_path("scenarios", "shelf_reach.yaml")
        text = path.read_text(encoding="utf-8")
        assert parse_scenario(text, base_dir=path.parent).variation.shelf_indices[0] == 0
        with pytest.raises(ValidationError, match="twice"):
            parse_scenario(text.replace("  object_indices:\n", "  object_indices:\n  - 0\n"),
                           base_dir=path.parent)

    def test_an_index_outside_the_obstacles_is_rejected(self):
        # Index -1 once jittered shelf_reach's last obstacle, and index 7 on
        # its 7 obstacles raised IndexError in generate_variations and
        # serialized to a document that did not parse back.
        base = load_scenario(data_path("scenarios", "shelf_reach.yaml"))
        assert len(base.world.obstacles) == 7
        with pytest.raises(ValidationError, match="must be at least 0, got -1"):
            dataclasses.replace(base, variation=VariationSpec(object_indices=(-1,)))
        for spec in (VariationSpec(object_indices=(7,)), VariationSpec(shelf_indices=(0, 7))):
            with pytest.raises(ValidationError, match="variation index 7 out of obstacle range"):
                dataclasses.replace(base, variation=spec)
        dataclasses.replace(base, variation=VariationSpec(object_indices=(6,)))

    def test_all_outputs_serializable(self, tmp_path, gantry_file):
        base = shelf_scenario(tmp_path, gantry_file)
        for scenario in generate_variations(base, "plus_rotation", 5, seed=2):
            reparsed = parse_scenario(serialize_scenario(scenario), base_dir=tmp_path)
            assert reparsed == scenario


class TestLoadScenario:
    def test_relative_robot_path(self, tmp_path, gantry_file):
        path = tmp_path / "case.scenario"
        path.write_text(minimal_doc("gantry.yaml").replace(
            "start: [0.0]", "start: [1.0, 1.0]").replace(
            "goal: {type: config, target: [0.5]}",
            "goal: {type: config, target: [2.0, 2.0]}"))
        scenario = load_scenario(path)
        assert scenario.robot.dof == 2
