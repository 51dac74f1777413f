"""Collision checking: sphere-vs-primitive penetration tests.

A configuration is free when it is inside the joint limits, no placed robot
sphere penetrates an obstacle, and no checked sphere pair overlaps (center
distance strictly below the radius sum).  A sphere penetrates a box or a
cylinder when the squared distance from its center to the solid (zero
inside it) is strictly below its squared radius, and a sphere obstacle when
the squared center distance is strictly below the squared radius sum; so
touching counts as free.  Sphere pairs on the same or chain-adjacent links
are never checked.

A batch call first drops every (sphere, obstacle) pair whose bounding boxes
over the batch are separated: the box around the sphere's centers in every
configuration of the batch, widened by its radius, against the obstacle's
padded box from ``WorldModel.packs``.  FK returns the centers as a view of
sphere-major memory, one matmul output per sphere; the bounds reduce a
packed (m, S, 3) copy, about 4x faster at m >= 60, used for nothing else.
Only the remaining pairs are tested, by the same arithmetic, so masks and
verdicts are exactly those of testing every pair, and touching counts as
free as before.  Self pairs are all tested, each squared center distance
summed as (dx² + dy²) + dz², the order of ``np.sum`` over three.

Straight-line motions are validated at a fixed number of evenly spaced
configurations along the segment; this is discretized edge checking, not
continuous collision detection.  Every configuration of a motion is checked,
in one batch with no early stop at the first colliding one.

Everything here is a pure function over immutable inputs and safe to call
concurrently from any number of workers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation
from .robot import RobotModel, as_configuration, sphere_centers_batch, weighted_norms
from .world import BOX, CYLINDER, SPHERE, WorldModel


def _world_penetration_mask(world: WorldModel, centers: np.ndarray,
                            radii: np.ndarray) -> np.ndarray:
    """Boolean penetration mask (m, S, O), ordered by original obstacle index.

    Only pairs whose batch bounding boxes overlap are tested (see the module
    docstring); every other pair is separated by more than rounding can
    close, so its entry is False either way.

    Square-root free: penetration of a box or cylinder is equivalent to the
    squared clamped excess falling below the squared sphere radius (points
    inside clamp to zero excess).  A pair's entry is computed by the same
    arithmetic whatever the rest of the batch.
    """
    packs = world.packs
    m, ns = centers.shape[0], centers.shape[1]
    hit = np.zeros((m, ns, len(world.obstacles)), dtype=bool)
    packed = np.ascontiguousarray(centers)
    lower, upper = packs["bounds"]
    overlap = (((packed.min(axis=0) - radii[:, None])[:, None] <= upper)
               & ((packed.max(axis=0) + radii[:, None])[:, None] >= lower))
    near = overlap[..., 0] & overlap[..., 1] & overlap[..., 2]
    r_sq = radii * radii

    pack = packs[BOX]
    sph, obs = np.nonzero(near[:, pack["index"]])
    if len(sph):
        rel = centers[:, sph] - pack["center"][obs]
        c, s = pack["cos"][obs], pack["sin"][obs]
        half = pack["half_extents"][obs]
        ax = np.abs(c * rel[..., 0] + s * rel[..., 1]) - half[:, 0]
        ay = np.abs(-s * rel[..., 0] + c * rel[..., 1]) - half[:, 1]
        az = np.abs(rel[..., 2]) - half[:, 2]
        np.maximum(ax, 0.0, out=ax)
        np.maximum(ay, 0.0, out=ay)
        np.maximum(az, 0.0, out=az)
        hit[:, sph, pack["index"][obs]] = (ax * ax + ay * ay + az * az) < r_sq[sph]

    pack = packs[CYLINDER]
    sph, obs = np.nonzero(near[:, pack["index"]])
    if len(sph):
        rel = centers[:, sph] - pack["center"][obs]
        dr = np.hypot(rel[..., 0], rel[..., 1]) - pack["radius"][obs]
        dz = np.abs(rel[..., 2]) - pack["half_height"][obs]
        np.maximum(dr, 0.0, out=dr)
        np.maximum(dz, 0.0, out=dz)
        hit[:, sph, pack["index"][obs]] = (dr * dr + dz * dz) < r_sq[sph]

    pack = packs[SPHERE]
    sph, obs = np.nonzero(near[:, pack["index"]])
    if len(sph):
        rel = centers[:, sph] - pack["center"][obs]
        dist_sq = np.sum(rel * rel, axis=-1)
        reach = pack["radius"][obs] + radii[sph]
        hit[:, sph, pack["index"][obs]] = dist_sq < reach * reach
    return hit


def free_mask(robot: RobotModel, world: WorldModel, configs: np.ndarray,
              stats: dict | None = None) -> np.ndarray:
    """Vectorized free/colliding decision for a batch of configurations (m, n);
    ``stats`` counts them in ``collision_checks`` and the call in ``check_calls``."""
    if stats is not None:
        stats["collision_checks"] = stats.get("collision_checks", 0) + configs.shape[0]
        stats["check_calls"] = stats.get("check_calls", 0) + 1
    ok = np.all((configs >= robot.lower) & (configs <= robot.upper), axis=1)
    if not robot.spheres or not len(configs):
        return ok
    centers = sphere_centers_batch(robot, configs)
    if world.obstacles:
        mask = _world_penetration_mask(world, centers, robot.sphere_radii)
        ok &= ~mask.any(axis=(1, 2))
    ok &= ~_self_overlap_mask(robot, centers).any(axis=1)
    return ok


def _self_overlap_mask(robot: RobotModel, centers: np.ndarray) -> np.ndarray:
    """Boolean overlap per checked sphere pair (m, P), lexicographic order."""
    first, second, reach_sq = robot.self_pair_arrays
    diff = centers[:, first] - centers[:, second]
    diff *= diff
    dist_sq = diff[..., 0] + diff[..., 1]
    dist_sq += diff[..., 2]
    return dist_sq < reach_sq


def check_config(robot: RobotModel, world: WorldModel, q) -> bool:
    """True iff the one configuration ``q`` is free: its ``free_mask`` row."""
    return bool(free_mask(robot, world, as_configuration(robot, q)[None])[0])


def motion_configs(robot: RobotModel, starts: np.ndarray, ends: np.ndarray,
                   step: float) -> tuple[np.ndarray, np.ndarray]:
    """The configurations of every motion starts[i] -> ends[i], stacked, and
    the row at which each motion begins.

    A motion of weighted length d (``weighted_norms``) gets ceil(d / step)
    + 1 configurations, endpoints exact.  The parameter spacing is computed
    as ``np.linspace`` computes it, so each motion's rows do not depend on
    the other motions in the stack.  An infinite step would check only the
    end configuration, so the step must be finite.
    """
    if not 0 < step < math.inf:
        raise ContractViolation(f"motion step must be positive and finite, got {step}")
    delta = ends - starts
    counts = np.array([int(math.ceil(d / step)) + 1
                       for d in weighted_norms(robot, delta)], dtype=int)
    offsets = np.cumsum(counts) - counts
    motion = np.repeat(np.arange(len(counts)), counts)
    spacing = 1.0 / np.maximum(counts - 1, 1)
    ts = (np.arange(motion.shape[0]) - offsets[motion]) * spacing[motion]
    configs = starts[motion] + ts[:, None] * delta[motion]
    configs[offsets] = starts
    configs[offsets + counts - 1] = ends
    return configs, offsets


def motions_free(robot: RobotModel, world: WorldModel, starts, ends, step: float,
                 stats: dict | None = None) -> np.ndarray:
    """Verdict per motion for straight motions starts[i] -> ends[i] (a
    single start row is shared by every motion), in one free_mask call.

    Each motion is sampled at ceil(d / step) + 1 evenly spaced
    configurations, endpoints exact, and is free iff all of them are.  There
    is no early stop: every configuration is checked and counted in
    ``stats``.
    """
    ends = np.asarray(ends, dtype=float)
    starts = np.broadcast_to(np.asarray(starts, dtype=float), ends.shape)
    configs, offsets = motion_configs(robot, starts, ends, step)
    return np.logical_and.reduceat(free_mask(robot, world, configs, stats=stats), offsets)


def check_motion(robot: RobotModel, world: WorldModel, a, b, step: float,
                 stats: dict | None = None) -> bool:
    """True iff every sampled configuration along the segment is free.

    The segment is checked at ceil(d(a, b) / step) + 1 evenly spaced
    configurations including both endpoints: a one-motion ``motions_free``,
    so there is no early stop and every configuration is counted in
    ``stats``.
    """
    a = as_configuration(robot, a)
    b = as_configuration(robot, b)
    return bool(motions_free(robot, world, a, b[None], step, stats)[0])
