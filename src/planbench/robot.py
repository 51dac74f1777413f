"""Robot model: a serial kinematic chain carrying a sphere-set collision body.

A robot is an ordered chain of revolute and prismatic joints.  Each joint
contributes one configuration-space dimension bounded by a closed limit
interval; revolute joints are plain bounded intervals (no 2*pi wraparound).
Configurations are float64 numpy arrays of length ``robot.dof``.

Collision geometry is approximated by spheres, each rigidly attached to the
frame reached after applying the joint named by its ``link_index``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ContractViolation, ValidationError, check_keys, parse_mapping

REVOLUTE = "revolute"
PRISMATIC = "prismatic"

_AXIS_NORM_TOL = 1e-9


def _vec3(value, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"{what} must be a 3-vector, got shape {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class JointSpec:
    """One degree of freedom: a fixed origin transform followed by axis motion.

    The origin transform is a translation plus a roll-pitch-yaw rotation in
    the parent frame; the joint then rotates about (revolute) or translates
    along (prismatic) ``axis`` by the joint value.  ``weight`` scales this
    joint's contribution to the configuration-space metric and ``resolution``
    is the lattice cell width used by search-based planning.
    """

    name: str
    kind: str
    axis: np.ndarray
    origin_translation: np.ndarray
    origin_rotation: np.ndarray  # roll-pitch-yaw, radians
    limits: tuple[float, float]
    resolution: float
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in (REVOLUTE, PRISMATIC):
            raise ValidationError(f"joint {self.name!r}: unknown kind {self.kind!r}")
        object.__setattr__(self, "axis", _vec3(self.axis, f"joint {self.name!r} axis"))
        object.__setattr__(
            self, "origin_translation",
            _vec3(self.origin_translation, f"joint {self.name!r} origin translation"))
        object.__setattr__(
            self, "origin_rotation",
            _vec3(self.origin_rotation, f"joint {self.name!r} origin rotation"))
        lo, hi = (float(self.limits[0]), float(self.limits[1]))
        object.__setattr__(self, "limits", (lo, hi))
        if not lo < hi:
            raise ValidationError(f"joint {self.name!r}: limits must satisfy lo < hi")
        if abs(float(np.linalg.norm(self.axis)) - 1.0) > _AXIS_NORM_TOL:
            raise ValidationError(f"joint {self.name!r}: axis must have unit norm")
        if not self.weight > 0:
            raise ValidationError(f"joint {self.name!r}: weight must be positive")
        if not 0 < self.resolution <= hi - lo:
            raise ValidationError(
                f"joint {self.name!r}: resolution must lie in (0, hi - lo]")


@dataclass(frozen=True)
class CollisionSphere:
    """A sphere rigidly attached to the frame after joint ``link_index``."""

    link_index: int
    local_center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(
            self, "local_center", _vec3(self.local_center, "sphere center"))
        if not self.radius > 0:
            raise ValidationError("sphere radius must be positive")


@dataclass(frozen=True)
class RobotModel:
    """Serial chain plus collision spheres; immutable and safe to share."""

    joints: tuple[JointSpec, ...]
    spheres: tuple[CollisionSphere, ...] = ()
    self_collision_ignored: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "spheres", tuple(self.spheres))
        n = len(self.joints)
        if n < 1:
            raise ValidationError("robot requires at least one joint")
        for s in self.spheres:
            if not 0 <= s.link_index < n:
                raise ValidationError(
                    f"sphere link index {s.link_index} out of range for {n} joints")
        pairs = set()
        for pair in self.self_collision_ignored:
            i, j = int(pair[0]), int(pair[1])
            if not (0 <= i < len(self.spheres) and 0 <= j < len(self.spheres)):
                raise ValidationError(f"ignored pair {pair} references missing sphere")
            pairs.add((min(i, j), max(i, j)))
        object.__setattr__(self, "self_collision_ignored", frozenset(pairs))

    @property
    def dof(self) -> int:
        return len(self.joints)

    @cached_property
    def lower(self) -> np.ndarray:
        return _frozen(np.array([j.limits[0] for j in self.joints]))

    @cached_property
    def upper(self) -> np.ndarray:
        return _frozen(np.array([j.limits[1] for j in self.joints]))

    @cached_property
    def weights(self) -> np.ndarray:
        return _frozen(np.array([j.weight for j in self.joints]))

    @cached_property
    def resolutions(self) -> np.ndarray:
        return _frozen(np.array([j.resolution for j in self.joints]))

    @cached_property
    def _prismatic_mask(self) -> np.ndarray:
        return _frozen(np.array([j.kind == PRISMATIC for j in self.joints]))

    @cached_property
    def _origin_rotations(self) -> np.ndarray:
        return _frozen(np.stack([_rpy_matrix(j.origin_rotation) for j in self.joints]))

    @cached_property
    def _origin_translations(self) -> np.ndarray:
        return _frozen(np.stack([j.origin_translation for j in self.joints]))

    @cached_property
    def _axes(self) -> np.ndarray:
        return _frozen(np.stack([j.axis for j in self.joints]))

    @cached_property
    def _skews(self) -> np.ndarray:
        """Each joint axis as its cross-product matrix K (n, 3, 3)."""
        return _frozen(np.stack([
            np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
            for kx, ky, kz in self._axes.tolist()]))

    @cached_property
    def _skews_sq(self) -> np.ndarray:
        """K @ K for each joint's K, one 3x3 product per joint."""
        return _frozen(np.stack([k @ k for k in self._skews]))

    @cached_property
    def _rotated_origins(self) -> np.ndarray:
        """Whether each joint's origin rotation differs from the identity."""
        return _frozen(np.array([not np.array_equal(r, np.eye(3))
                                 for r in self._origin_rotations]))

    @cached_property
    def _sphere_links(self) -> np.ndarray:
        return _frozen(np.array([s.link_index for s in self.spheres], dtype=int))

    @cached_property
    def _sphere_locals(self) -> np.ndarray:
        if not self.spheres:
            return _frozen(np.zeros((0, 3)))
        return _frozen(np.stack([s.local_center for s in self.spheres]))

    @cached_property
    def sphere_radii(self) -> np.ndarray:
        return _frozen(np.array([s.radius for s in self.spheres]))

    @cached_property
    def self_collision_pairs(self) -> np.ndarray:
        """Sphere index pairs checked for self-collision, in lexicographic order.

        Pairs on the same or chain-adjacent links are skipped: spheres
        straddling a joint overlap by construction.
        """
        pairs = []
        for i in range(len(self.spheres)):
            for j in range(i + 1, len(self.spheres)):
                if abs(self.spheres[i].link_index - self.spheres[j].link_index) <= 1:
                    continue
                if (i, j) in self.self_collision_ignored:
                    continue
                pairs.append((i, j))
        return _frozen(np.array(pairs, dtype=int).reshape(len(pairs), 2))

    @cached_property
    def self_pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First and second sphere index and (r_i + r_j)**2 of each checked pair."""
        first, second = _frozen(self.self_collision_pairs.T.copy())
        reach = self.sphere_radii[first] + self.sphere_radii[second]
        return first, second, _frozen(reach * reach)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _rpy_matrix(rpy: np.ndarray) -> np.ndarray:
    """Rotation matrix for roll-pitch-yaw: Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    r, p, y = float(rpy[0]), float(rpy[1]), float(rpy[2])
    cr, sr = math.cos(r), math.sin(r)
    cp, sp = math.cos(p), math.sin(p)
    cy, sy = math.cos(y), math.sin(y)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


def as_configuration(robot: RobotModel, q) -> np.ndarray:
    """Coerce to a float64 configuration array, enforcing the robot's DOF."""
    arr = np.asarray(q, dtype=float)
    if arr.shape != (robot.dof,):
        raise ContractViolation(
            f"configuration has shape {arr.shape}, expected ({robot.dof},)")
    return arr


def link_frames_batch(robot: RobotModel, configs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World rotation (m, n, 3, 3) and translation (m, n, 3) of every link frame.

    Frame i is the composition of joints 0..i, each contributing its fixed
    origin transform followed by the joint motion.  A revolute joint turns
    by the Rodrigues matrix I + sin(q) K + (1 - cos(q)) K @ K of its axis'
    cross-product matrix K, built for every joint and configuration at once
    as (n, 3, 3, m), batch innermost, and viewed as (n, m, 3, 3).  An
    identity origin rotation is skipped: multiplying by it changes no entry.
    """
    m, n = configs.shape
    eye = np.eye(3)
    rot = np.broadcast_to(eye, (m, 3, 3)).copy()
    trans = np.zeros((m, 3))
    link_rot = np.empty((m, n, 3, 3))
    link_trans = np.empty((m, n, 3))
    q = configs.T[:, None, None, :]
    turns = (eye[:, :, None] + np.sin(q) * robot._skews[..., None]
             + (1.0 - np.cos(q)) * robot._skews_sq[..., None]).transpose(0, 3, 1, 2)
    for j in range(n):
        trans = trans + rot @ robot._origin_translations[j]
        if robot._rotated_origins[j]:
            rot = rot @ robot._origin_rotations[j]
        if robot._prismatic_mask[j]:
            trans = trans + (rot @ robot._axes[j]) * configs[:, j : j + 1]
        else:
            rot = rot @ turns[j]
        link_rot[:, j] = rot
        link_trans[:, j] = trans
    return link_rot, link_trans


def sphere_centers_batch(robot: RobotModel, configs: np.ndarray) -> np.ndarray:
    """World-frame collision sphere centers (m, S, 3) for a batch of configs."""
    if configs.ndim != 2 or configs.shape[1] != robot.dof:
        raise ContractViolation(
            f"config batch has shape {configs.shape}, expected (m, {robot.dof})")
    if not robot.spheres:
        return np.zeros((configs.shape[0], 0, 3))
    link_rot, link_trans = link_frames_batch(robot, configs)
    rot = link_rot[:, robot._sphere_links]      # (m, S, 3, 3)
    trans = link_trans[:, robot._sphere_links]  # (m, S, 3)
    return np.einsum("msij,sj->msi", rot, robot._sphere_locals) + trans


def config_distance(robot: RobotModel, a, b) -> float:
    """Weighted Euclidean metric sqrt(sum_i w_i * (a_i - b_i)^2)."""
    a = as_configuration(robot, a)
    b = as_configuration(robot, b)
    d = a - b
    return float(math.sqrt(float(np.dot(d * d, robot.weights))))


_JOINT_KEYS = {"name", "type", "axis", "origin_xyz", "origin_rpy", "limits",
               "weight", "resolution"}
_SPHERE_KEYS = {"link", "center", "radius"}
_ROBOT_KEYS = {"joints", "collision_spheres", "self_collision_ignore"}


def _build_robot(doc: dict) -> RobotModel:
    if not doc.get("joints"):
        raise ValidationError("robot document requires a non-empty 'joints' list")
    joints = []
    for entry in doc["joints"]:
        check_keys(entry, "joint", _JOINT_KEYS)
        joints.append(JointSpec(
            name=str(entry["name"]),
            kind=str(entry["type"]),
            axis=entry["axis"],
            origin_translation=entry.get("origin_xyz", (0.0, 0.0, 0.0)),
            origin_rotation=entry.get("origin_rpy", (0.0, 0.0, 0.0)),
            limits=(entry["limits"][0], entry["limits"][1]),
            resolution=float(entry["resolution"]),
            weight=float(entry.get("weight", 1.0)),
        ))
    spheres = []
    for entry in doc.get("collision_spheres") or ():
        check_keys(entry, "sphere", _SPHERE_KEYS)
        spheres.append(CollisionSphere(
            link_index=int(entry["link"]),
            local_center=entry["center"],
            radius=float(entry["radius"]),
        ))
    ignored = frozenset(
        (int(pair[0]), int(pair[1])) for pair in doc.get("self_collision_ignore") or ())
    return RobotModel(joints=tuple(joints), spheres=tuple(spheres),
                      self_collision_ignored=ignored)


def parse_robot(text: str) -> RobotModel:
    """Parse a robot definition document (YAML subset, UTF-8).

    Top-level keys: ``joints``, ``collision_spheres``, ``self_collision_ignore``.
    Angles are radians, lengths meters.
    """
    return parse_mapping(text, "robot", _ROBOT_KEYS, _build_robot)


def load_robot(path: str | Path) -> RobotModel:
    """Load a robot definition file."""
    return parse_robot(Path(path).read_text(encoding="utf-8"))
