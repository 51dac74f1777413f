"""Obstacle region, scenario files, and shelf-style scenario variations.

The world is a finite set of primitive obstacles (boxes, cylinders, spheres)
whose only orientation freedom is a yaw about the world z axis.  Scenario
documents bundle a robot file reference, start configuration, goal, world,
and planning time budget; ``generate_variations`` reproduces the three
shelf-variation families (object jitter, plus shelf height, plus shelf
rotation about the robot base vertical).

All types are immutable after construction and safe to share across
concurrent queries; generation is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

from .errors import (ContractViolation, ValidationError, build, check_keys, field_eq,
                     finite_array, integer, parse_mapping, read_text, real)
from .robot import RobotModel, load_robot

BOX = "box"
CYLINDER = "cylinder"
SPHERE = "sphere"

OBJECTS_ONLY = "objects_only"
PLUS_HEIGHT = "plus_height"
PLUS_ROTATION = "plus_rotation"
FAMILIES = (OBJECTS_ONLY, PLUS_HEIGHT, PLUS_ROTATION)


# The size fields of each obstacle shape, in document order, with each
# field's array shape (() for a scalar).  The constructor and serialization
# read this; the kernel table's rows come from ``_kernel_row``.
_OBSTACLE_SIZE = {BOX: {"half_extents": (3,)},
                  CYLINDER: {"radius": (), "half_height": ()},
                  SPHERE: {"radius": ()}}
_SIZE_FIELDS = {name for sizes in _OBSTACLE_SIZE.values() for name in sizes}


@dataclass(frozen=True, eq=False)
class Obstacle:
    """One primitive obstacle: box, cylinder (z-aligned), or sphere."""

    shape: str
    center: np.ndarray
    yaw: float = 0.0
    half_extents: np.ndarray | None = None
    radius: float | None = None
    half_height: float | None = None

    def __post_init__(self):
        if not isinstance(self.shape, str) or self.shape not in _OBSTACLE_SIZE:
            raise ValidationError(f"unknown obstacle shape {self.shape!r}")
        sizes = _OBSTACLE_SIZE[self.shape]
        object.__setattr__(self, "center", finite_array(self.center, "obstacle center", (3,)))
        object.__setattr__(self, "yaw", real(self.yaw, "obstacle yaw"))
        if {n for n in _SIZE_FIELDS if getattr(self, n) is not None} != set(sizes):
            raise ValidationError(
                f"{self.shape} requires exactly {', '.join(map(repr, sizes))}")
        for name, dims in sizes.items():
            value, what = getattr(self, name), f"{self.shape} {name}"
            value = finite_array(value, what, dims) if dims else real(value, what)
            if min(np.ravel(value).tolist()) <= 0:
                raise ValidationError(f"{what} must be positive")
            object.__setattr__(self, name, value)
        if self.shape == SPHERE and self.yaw != 0.0:
            raise ValidationError("sphere orientation is the identity; yaw must be 0")

    __eq__ = field_eq


@dataclass(frozen=True)
class WorldModel:
    """The obstacle region: a finite, possibly empty set of obstacles."""

    obstacles: tuple[Obstacle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))

    @cached_property
    def kernel_table(self):
        """The obstacles as the collision kernel reads them, in kernel order:
        boxes, then cylinders, then spheres, each kind in original order.

        ``"index"`` maps each row to its original obstacle index and
        ``"split"`` holds the rows where the cylinders and the spheres
        begin.  ``"center"`` (O, 3) holds the rows' centers and ``"params"``
        (5, O) per row the yaw's cosine and sine, 1 and 0 for a cylinder or a
        sphere, so that a cylinder's yaw is ignored, then its sizes along
        the three axes of ``collision._squared_excess``: a box's
        half-extents, a cylinder's (radius, +inf, half-height) and a
        sphere's (radius, +inf, +inf).
        ``"bounds"`` holds every row's axis-aligned bounding box, lower and
        upper corners (2, O, 3).  Its half-widths are |cos|*hx + |sin|*hy,
        |sin|*hx + |cos|*hy and hz for a yawed box, (r, r, hh) for a
        cylinder and (r, r, r) for a sphere, each padded by 1e-9 relative and
        absolute so that rounding in the kernel can never place a penetrating
        sphere outside it.
        """
        kind = [_KERNEL_ORDER.index(o.shape) for o in self.obstacles]
        index = sorted(range(len(kind)), key=kind.__getitem__)
        rows = [_kernel_row(self.obstacles[i]) for i in index]
        center = np.array([self.obstacles[i].center for i in index]).reshape(-1, 3)
        half = np.array([h for _, h in rows]).reshape(-1, 3)
        half = half + 1e-9 * (1.0 + np.abs(center) + half)
        return {
            "index": np.array(index, dtype=int),
            "split": np.cumsum([kind.count(0), kind.count(1)]),
            "center": center,
            "params": np.array([p for p, _ in rows], dtype=float).reshape(-1, 5).T,
            "bounds": np.stack([center - half, center + half]),
        }


_KERNEL_ORDER = (BOX, CYLINDER, SPHERE)


def _kernel_row(o: Obstacle) -> tuple[list[float], list[float]]:
    """One obstacle's kernel parameters, its yaw's cosine and sine and its
    sizes along the kernel's three axes (+inf where absent), and the
    half-widths of the axis-aligned box around it."""
    if o.shape == BOX:
        c, s = math.cos(o.yaw), math.sin(o.yaw)
        hx, hy, hz = o.half_extents.tolist()
        return [c, s, hx, hy, hz], [abs(c) * hx + abs(s) * hy, abs(s) * hx + abs(c) * hy, hz]
    r = o.radius
    if o.shape == CYLINDER:
        return [1.0, 0.0, r, math.inf, o.half_height], [r, r, o.half_height]
    return [1.0, 0.0, r, math.inf, math.inf], [r, r, r]


@dataclass(frozen=True, eq=False)
class GoalSpec:
    """Goal region: the closed axis box ``lower``..``upper``.

    A region goal is given by its box alone.  A config goal is given by a
    ``target`` and optional per-joint ``tolerance`` alone, and its box,
    target plus or minus tolerance, is derived here; a ``tolerance`` of None
    means "unspecified" (a zero-width box) and consumers may substitute the
    configured default.  The field names are the scenario document's goal
    keys.
    """

    type: str  # "config" | "region"
    target: np.ndarray | None = None
    tolerance: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        if self.type == "config":
            if self.target is None:
                raise ValidationError("config goal requires a target")
            if self.lower is not None or self.upper is not None:
                raise ValidationError("a config goal's box is derived, not given")
            target = finite_array(self.target, "goal target", (None,))
            object.__setattr__(self, "target", target)
            tol = 0.0
            if self.tolerance is not None:
                tol = finite_array(self.tolerance, "goal tolerance", target.shape)
                if not np.all(tol >= 0):
                    raise ValidationError("goal tolerance entries must be >= 0")
                object.__setattr__(self, "tolerance", tol)
            lower, upper = target - tol, target + tol
            lower.flags.writeable = upper.flags.writeable = False
        elif self.type == "region":
            if self.lower is None or self.upper is None:
                raise ValidationError("region goal requires lower and upper")
            if self.target is not None or self.tolerance is not None:
                raise ValidationError("a region goal is given by its box, not a target")
            lower = finite_array(self.lower, "region lower", (None,))
            upper = finite_array(self.upper, "region upper", lower.shape)
            if not np.all(lower <= upper):
                raise ValidationError("region lower must be <= upper component-wise")
        else:
            raise ValidationError(f"unknown goal type {self.type!r}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def config_goal(cls, target, tolerance=None):
        return cls(type="config", target=target, tolerance=tolerance)

    @property
    def dof(self) -> int:
        return len(self.lower)

    def limited_box(self, robot: RobotModel) -> tuple[np.ndarray, np.ndarray]:
        """The goal box intersected with the robot's joint limits, as
        (lower, upper); empty when some lower entry exceeds its upper."""
        return np.maximum(self.lower, robot.lower), np.minimum(self.upper, robot.upper)

    __eq__ = field_eq


@dataclass(frozen=True)
class VariationSpec:
    """Declared perturbation ranges and the shelf/object position convention.

    Obstacles are tagged by list position: ``shelf_indices`` move as one rigid
    group for height/rotation, ``object_indices`` additionally jitter in xy.
    An index is listed at most once in the two, since each listing moves the
    obstacle.  When a scenario file omits the block entirely, every obstacle
    is treated as a movable object.
    """

    object_jitter_xy: float = 0.1
    height_range: float = 0.15
    yaw_range_deg: float = 30.0
    shelf_indices: tuple[int, ...] = ()
    object_indices: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("shelf_indices", "object_indices"):
            object.__setattr__(self, name, tuple(integer(i, f"variation {name} entry", least=0)
                                                 for i in getattr(self, name)))
        moved = self.shelf_indices + self.object_indices
        if len(set(moved)) < len(moved):
            raise ValidationError(f"variation lists an obstacle index twice: {list(moved)}")
        for name in ("object_jitter_xy", "height_range", "yaw_range_deg"):
            object.__setattr__(self, name, real(getattr(self, name), f"variation {name}"))
            if getattr(self, name) < 0:
                raise ValidationError(f"variation {name} must be >= 0")


@dataclass(frozen=True, eq=False)
class Scenario:
    """One planning problem instance plus its declared variation ranges."""

    name: str
    robot_file: str
    robot: RobotModel = field(compare=False)  # identified by ``robot_file``
    start: np.ndarray
    goal: GoalSpec
    world: WorldModel
    time_budget: float
    variation: VariationSpec | None = None

    def __post_init__(self):
        for name in ("name", "robot_file"):
            if not isinstance(value := getattr(self, name), str):
                raise ValidationError(f"scenario {name} must be a string, got {value!r}")
        object.__setattr__(
            self, "start", finite_array(self.start, "start", (self.robot.dof,)))
        if self.goal.dof != self.robot.dof:
            raise ValidationError("goal dimension does not match robot DOF")
        if self.goal.type == "region":  # reachable only where it meets the limits
            lo, hi = self.goal.limited_box(self.robot)
            if not np.all(lo <= hi):
                raise ValidationError("region goal does not intersect the joint limits")
        object.__setattr__(self, "time_budget", real(self.time_budget, "time budget"))
        if self.time_budget <= 0:
            raise ValidationError("time budget must be positive")
        if self.variation is not None:
            for idx in self.variation.shelf_indices + self.variation.object_indices:
                if idx >= len(self.world.obstacles):
                    raise ValidationError(f"variation index {idx} out of obstacle range")

    __eq__ = field_eq


_SCENARIO_KEYS = {"name", "robot", "start", "goal", "world", "time_budget_s", "variation"}


def parse_scenario(text: str, base_dir: str | Path | None = None) -> Scenario:
    """Parse and fully validate a scenario document.

    The referenced robot file is loaded (relative paths resolve against
    ``base_dir``) so dimensional consistency can be checked here rather than
    at planning time.  ``serialize_scenario`` round-trips through this parser
    with field equality.
    """
    return parse_mapping(text, "scenario", _SCENARIO_KEYS,
                         lambda doc: _build_scenario(doc, base_dir))


def _build_scenario(doc: dict, base_dir: str | Path | None) -> Scenario:
    for key in ("name", "robot", "start", "goal", "world", "time_budget_s"):
        if key not in doc:
            raise ValidationError(f"scenario missing required key {key!r}")

    robot_path = Path(doc["robot"])  # a robot that is no string raises TypeError
    if not robot_path.is_absolute() and base_dir is not None:
        robot_path = Path(base_dir) / robot_path
    try:
        robot = load_robot(robot_path)
    except OSError as exc:
        raise ValidationError(f"cannot read robot file {robot_path}: {exc}") from exc

    world_doc = check_keys(doc["world"], "world", {"obstacles"})
    obstacles = tuple(build(Obstacle, entry, "obstacle")
                      for entry in world_doc.get("obstacles") or ())

    variation = doc.get("variation")
    return Scenario(
        name=doc["name"],
        robot_file=doc["robot"],
        robot=robot,
        start=doc["start"],
        goal=build(GoalSpec, doc["goal"], "goal"),
        world=WorldModel(obstacles),
        time_budget=doc["time_budget_s"],
        variation=None if variation is None else build(VariationSpec, variation, "variation"),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file; relative robot paths resolve against its directory."""
    path = Path(path)
    return parse_scenario(read_text(path), base_dir=path.parent)


def _obstacle_doc(o: Obstacle) -> dict:
    doc = {"shape": o.shape, "center": o.center.tolist()}
    if o.shape != SPHERE:
        doc["yaw"] = o.yaw
    for name in _OBSTACLE_SIZE[o.shape]:
        doc[name] = np.asarray(getattr(o, name)).tolist()
    return doc


# libyaml's emitter writes the same text as PyYAML's, about four times faster.
YamlDumper = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario as a document that parses back field-equal."""
    goal = scenario.goal  # a config goal's box is derived, so not written
    given = ("target", "tolerance") if goal.type == "config" else ("lower", "upper")
    doc = {
        "name": scenario.name,
        "robot": scenario.robot_file,
        "start": [float(v) for v in scenario.start],
        "goal": {"type": goal.type, **{name: getattr(goal, name).tolist() for name in given
                                       if getattr(goal, name) is not None}},
        "world": {"obstacles": [_obstacle_doc(o) for o in scenario.world.obstacles]},
        "time_budget_s": scenario.time_budget,
    }
    if scenario.variation is not None:
        doc["variation"] = {name: list(value) if isinstance(value, tuple) else value
                            for name, value in vars(scenario.variation).items()}
    return yaml.dump(doc, Dumper=YamlDumper, sort_keys=False)


def _rotated(center: np.ndarray, yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    x, y, z = center
    return np.array([c * x - s * y, s * x + c * y, z])


def generate_variations(base: Scenario, family: str, count: int, seed: int) -> list[Scenario]:
    """Generate ``count`` perturbed copies of a scenario, deterministically.

    Variation i is named ``{base.name}_{i:03d}``.

    ``objects_only`` jitters movable-object centers in xy; ``plus_height``
    additionally shifts shelf and contents by one shared z offset;
    ``plus_rotation`` additionally rotates shelf and contents about the robot
    base z axis.  Draws for variation i come from a stream keyed on
    (seed, i), so the shared perturbations agree across families.
    """
    if family not in FAMILIES:
        raise ContractViolation(f"unknown variation family {family!r}")
    count = integer(count, "variation count", least=1)
    seed = integer(seed, "variation seed", least=0)
    var = base.variation or VariationSpec(
        object_indices=tuple(range(len(base.world.obstacles))))
    moved = var.shelf_indices + var.object_indices

    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        obstacles = list(base.world.obstacles)
        for idx in var.object_indices:
            jitter = rng.uniform(-var.object_jitter_xy, var.object_jitter_xy, size=2)
            o = obstacles[idx]
            obstacles[idx] = replace(o, center=o.center + np.array([jitter[0], jitter[1], 0.0]))
        if family in (PLUS_HEIGHT, PLUS_ROTATION):
            dz = rng.uniform(-var.height_range, var.height_range)
            for idx in moved:
                o = obstacles[idx]
                obstacles[idx] = replace(o, center=o.center + np.array([0.0, 0.0, dz]))
        if family == PLUS_ROTATION:
            dyaw = rng.uniform(-math.radians(var.yaw_range_deg),
                               math.radians(var.yaw_range_deg))
            for idx in moved:
                o = obstacles[idx]
                new_yaw = o.yaw + dyaw if o.shape != SPHERE else 0.0
                obstacles[idx] = replace(o, center=_rotated(o.center, dyaw), yaw=new_yaw)
        out.append(replace(base, name=f"{base.name}_{i:03d}",
                           world=WorldModel(tuple(obstacles))))
    return out
