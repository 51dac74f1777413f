"""Robot model: a serial kinematic chain carrying a sphere-set collision body.

A robot is an ordered chain of revolute and prismatic joints.  Each joint
contributes one configuration-space dimension bounded by a closed limit
interval; revolute joints are plain bounded intervals (no 2*pi wraparound).
Configurations are float64 numpy arrays of length ``robot.dof``.

Collision geometry is approximated by spheres, each rigidly attached to the
frame reached after applying the joint named by its ``link``.  Forward
kinematics chains homogeneous 4x4 transforms, one stacked matmul per joint
for a whole batch, and places every sphere center in one more matmul.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (ContractViolation, ValidationError, build, field_eq, finite_array,
                     integer, parse_mapping, read_text, real)

REVOLUTE = "revolute"
PRISMATIC = "prismatic"

_AXIS_NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class JointSpec:
    """One degree of freedom: a fixed origin transform followed by axis motion.

    The origin transform is a translation ``origin_xyz`` plus a roll-pitch-yaw
    rotation ``origin_rpy`` in the parent frame, both zero by default; the
    joint then rotates about (revolute) or translates along (prismatic)
    ``axis`` by the joint value.  ``weight`` scales this joint's contribution
    to the configuration-space metric and ``resolution`` is the lattice cell
    width used by search-based planning.  The field names are the robot
    document's joint keys.
    """

    name: str
    type: str
    axis: np.ndarray
    limits: tuple[float, float]
    resolution: float
    origin_xyz: np.ndarray = (0.0, 0.0, 0.0)
    origin_rpy: np.ndarray = (0.0, 0.0, 0.0)  # radians
    weight: float = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValidationError(f"joint name must be a string, got {self.name!r}")
        if self.type not in (REVOLUTE, PRISMATIC):
            raise ValidationError(f"joint {self.name!r}: unknown type {self.type!r}")
        for field, shape in (("axis", (3,)), ("origin_xyz", (3,)),
                             ("origin_rpy", (3,)), ("limits", (2,))):
            object.__setattr__(self, field, finite_array(
                getattr(self, field), f"joint {self.name!r} {field}", shape))
        for field in ("resolution", "weight"):
            object.__setattr__(self, field, real(getattr(self, field),
                                                 f"joint {self.name!r} {field}"))
        lo, hi = self.limits.tolist()
        object.__setattr__(self, "limits", (lo, hi))
        if not lo < hi:
            raise ValidationError(f"joint {self.name!r}: limits must satisfy lo < hi")
        if abs(float(np.linalg.norm(self.axis)) - 1.0) > _AXIS_NORM_TOL:
            raise ValidationError(f"joint {self.name!r}: axis must have unit norm")
        if self.weight <= 0:
            raise ValidationError(f"joint {self.name!r}: weight must be positive")
        if not 0 < self.resolution <= hi - lo:
            raise ValidationError(
                f"joint {self.name!r}: resolution must lie in (0, hi - lo]")

    __eq__ = field_eq


@dataclass(frozen=True, eq=False)
class CollisionSphere:
    """A sphere rigidly attached to the frame after joint ``link``, centered
    at ``center`` in that frame."""

    link: int
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "link", integer(self.link, "sphere link"))
        object.__setattr__(self, "center", finite_array(self.center, "sphere center", (3,)))
        object.__setattr__(self, "radius", real(self.radius, "sphere radius"))
        if self.radius <= 0:
            raise ValidationError("sphere radius must be positive")

    __eq__ = field_eq


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
            if not 0 <= s.link < n:
                raise ValidationError(f"sphere link index {s.link} out of range for {n} joints")
        pairs = set()
        for pair in self.self_collision_ignored:
            i, j = (integer(k, "ignored pair sphere index") for k in pair)
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
    def _joint_template(self) -> tuple[np.ndarray, ...]:
        """Each joint's 4x4 transform as A + u B + (1 - cos q) C, u = sin q for
        a revolute joint and q for a prismatic one: a revolute joint's rotation
        block is O (I + sin q K + (1 - cos q) K²) for its origin rotation O and
        its axis' cross-product matrix K, a prismatic joint's translation column
        its origin plus q O axis.  Returns A (n, 1, 16) flattened, whether each
        joint is revolute (n, 1), and the joint index, entry index and A, B and
        C values of the entries where B or C is nonzero.  An identity O changes
        no nonzero entry."""
        n = self.dof
        a, b, c = np.zeros((3, n, 4, 4))
        a[:, 3, 3] = 1.0
        for j, joint in enumerate(self.joints):
            rot = _rpy_matrix(joint.origin_rpy) + 0.0  # no negative zeros
            kx, ky, kz = joint.axis.tolist()
            k = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
            a[j, :3, :3], a[j, :3, 3] = rot, joint.origin_xyz
            if joint.type == PRISMATIC:
                b[j, :3, 3] = rot @ joint.axis
            else:
                b[j, :3, :3], c[j, :3, :3] = rot @ k, rot @ (k @ k)
        a, b, c = (x.reshape(n, 16) for x in (a, b, c))
        joint, entry = np.nonzero((b != 0) | (c != 0))
        revolute = np.array([[j.type == REVOLUTE] for j in self.joints])
        return tuple(_frozen(x) for x in (
            a[:, None], revolute, joint, entry, a[joint, entry, None],
            b[joint, entry, None], c[joint, entry, None]))

    @cached_property
    def _sphere_links(self) -> np.ndarray:
        return _frozen(np.array([s.link for s in self.spheres], dtype=int))

    @cached_property
    def _sphere_locals(self) -> np.ndarray:
        """Homogeneous local centers [l; 1] (S, 4, 1)."""
        return _frozen(np.array([[*s.center, 1.0] for s in self.spheres])
                       .reshape(len(self.spheres), 4, 1))

    @cached_property
    def sphere_radii(self) -> np.ndarray:
        return _frozen(np.array([s.radius for s in self.spheres]))

    @cached_property
    def lever_arms(self) -> np.ndarray:
        """Bound (S, n) on how far each sphere center moves per unit of each
        joint's travel within the joint limits (Schwarzer, Saha & Latombe,
        T-RO 2005).  A prismatic joint at or before the sphere's link moves it
        by its travel, 1.  A revolute one swings it about an axis through the
        joint's frame origin, whose distance to the center is at most the
        local center's norm plus each later joint's up to the link: its origin
        offset's norm, and a prismatic joint's largest limit magnitude.  A
        joint after the link does not move the sphere, 0."""
        reach = [float(np.linalg.norm(j.origin_xyz))
                 + (max(map(abs, j.limits)) if j.type == PRISMATIC else 0.0)
                 for j in self.joints]
        arms = np.zeros((len(self.spheres), self.dof))
        for s, sphere in enumerate(self.spheres):
            arm = float(np.linalg.norm(sphere.center))
            for j in range(sphere.link, -1, -1):
                arms[s, j] = 1.0 if self.joints[j].type == PRISMATIC else arm
                arm += reach[j]
        return _frozen(arms)

    @cached_property
    def self_pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First and second sphere index and (r_i + r_j)**2 of each sphere
        pair checked for self-collision, in lexicographic order.

        Pairs on the same or chain-adjacent links, where spheres straddling
        a joint overlap by construction, and ignored pairs are skipped.
        """
        spheres = self.spheres
        pairs = [(i, j) for i, j in itertools.combinations(range(len(spheres)), 2)
                 if abs(spheres[i].link - spheres[j].link) > 1
                 and (i, j) not in self.self_collision_ignored]
        first, second = np.array(pairs, dtype=int).reshape(len(pairs), 2).T.copy()
        reach = self.sphere_radii[first] + self.sphere_radii[second]
        return _frozen(first), _frozen(second), _frozen(reach * reach)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


_IDENTITY = _frozen(np.eye(4))  # the base frame every FK chain starts from


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


def sphere_centers_batch(robot: RobotModel, configs: np.ndarray) -> np.ndarray:
    """World-frame collision sphere centers (m, S, 3) for a batch of configs.

    Link frame i is the homogeneous product T_0 ... T_i of the joints'
    transforms, each its fixed origin followed by the joint motion (see
    ``_joint_template``).  Every T_j is built for the whole batch at once,
    and each frame is one stacked 4x4 matmul of the previous frame with T_j.
    Each center is the top three rows of its link frame times [l; 1], one
    matrix-vector product per sphere over the whole batch, so each row equals
    its one-row call.  The result views (S, m, 3) memory, sphere-major.
    """
    if configs.ndim != 2 or configs.shape[1] != robot.dof:
        raise ContractViolation(
            f"config batch has shape {configs.shape}, expected (m, {robot.dof})")
    m, n = configs.shape
    base, revolute, joint, entry, a, b, c = robot._joint_template
    q = configs.T
    u = np.where(revolute, np.sin(q), q)
    turns = np.repeat(base, m, axis=1)
    turns[joint, :, entry] = a + u[joint] * b + (1.0 - np.cos(q))[joint] * c
    turns = turns.reshape(n, m, 4, 4)
    frames = np.empty((n, m, 4, 4))
    prev = _IDENTITY
    for j in range(n):
        prev = np.matmul(prev, turns[j], out=frames[j])
    ns = len(robot.spheres)
    centers = frames[robot._sphere_links, :, :3].reshape(ns, 3 * m, 4) @ robot._sphere_locals
    return centers.reshape(ns, m, 3).transpose(1, 0, 2)


def weighted_norms(robot: RobotModel, deltas: np.ndarray) -> list[float]:
    """Weighted Euclidean norm sqrt(sum_i w_i * d_i^2) of each row of the
    (k, n) ``deltas``: the metric's one summation.

    Each row is its own dot product of its squares with the weights: the
    stacked (1 x n)(n x 1) matmul hands every row to numpy's ``DOUBLE_dot``,
    the function ``ndarray.dot`` calls, so row i does not depend on the
    other rows and equals ``math.sqrt(row.dot(weights))`` bit for bit.  A
    matrix-vector product (gemv) sums in another order and can differ in the
    last bit on multi-joint rows, and so does a strided row: the squares are
    formed in C order, whatever the layout of ``deltas``.
    """
    sq = np.multiply(deltas, deltas, order="C")
    return np.sqrt(np.matmul(sq[:, None, :], robot.weights[:, None])).ravel().tolist()


def config_distance(robot: RobotModel, a, b) -> float:
    """Weighted Euclidean metric sqrt(sum_i w_i * (a_i - b_i)^2)."""
    a = as_configuration(robot, a)
    b = as_configuration(robot, b)
    return weighted_norms(robot, (a - b)[None])[0]


_ROBOT_KEYS = {"joints", "collision_spheres", "self_collision_ignore"}


def _build_robot(doc: dict) -> RobotModel:
    if not doc.get("joints"):
        raise ValidationError("robot document requires a non-empty 'joints' list")
    ignored = frozenset(tuple(pair) for pair in doc.get("self_collision_ignore") or ())
    return RobotModel(
        joints=tuple(build(JointSpec, entry, "joint") for entry in doc["joints"]),
        spheres=tuple(build(CollisionSphere, entry, "sphere")
                      for entry in doc.get("collision_spheres") or ()),
        self_collision_ignored=ignored)


def parse_robot(text: str) -> RobotModel:
    """Parse a robot definition document (YAML subset, UTF-8).

    Top-level keys: ``joints``, ``collision_spheres``, ``self_collision_ignore``.
    Angles are radians, lengths meters.
    """
    return parse_mapping(text, "robot", _ROBOT_KEYS, _build_robot)


def load_robot(path: str | Path) -> RobotModel:
    """Load a robot definition file."""
    return parse_robot(read_text(path))
