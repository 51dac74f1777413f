"""Independent reference implementations used to cross-check the package.

Most of it is written from scratch against the documented behavior:
homogeneous-matrix forward kinematics, scalar pairwise collision
classification, Monte-Carlo shape membership and ``np.linspace`` motion
sampling, none of which reuses the package's geometry kernels.  The lattice
searches, Dijkstra and the eager anytime search, run over
``valid_successors``, which builds moves one at a time and checks them with
the package's ``motions_free`` but does not use its move generator; so
comparing the lazy search with the eager one checks which edges it
validates and when, not the collision checker.  The sequential RRT-Connect
loop has its own extend and connect, which check one motion per
``motions_free`` call, and shares only the package's nearest-node scan
``nearest`` and steering step ``_steps`` with the planner; with
``sample_uniform`` here, which draws the planner's sample stream one sample
at a time, comparing the two checks how the planner's lookahead cache
orders, reuses and commits verdicts.  Steering inputs and motion sampling are checked on
their own, against the linear-scan ``nearest`` oracle and against
``linspace_motion`` bit for bit.  The dense collision kernel is the
package's earlier one: the 3x3 rotation chain that forward kinematics used
before the homogeneous one, kept verbatim, every (sphere, obstacle) pair
tested, and its own self mask over a pair list built here, with ``np.sum``
of the squared center difference against the squared radius sum.  The
package must reproduce its sphere centers bit for bit on ``arm8`` and on
axis-aligned robots (within 1e-12 on random ones, whose rounding the
homogeneous chain changes), and its masks and verdicts exactly.  The
gather clearance kernel is the package's earlier ``_clearances``, kept
verbatim; the component-major kernel must reproduce its verdicts and
clearances bit for bit.  In both kernels a sphere obstacle has since become
a solid ball, as boxes and cylinders are: its distance is the center
distance less its radius, zero inside it, against the robot sphere's
radius, not the center distance against the radius sum.  Both kernels read
each shape's obstacles through ``shape_arrays``, built here from
``world.obstacles``, not through the package's kernel table.  The midpoint
bisection ``path_free_bisect`` is the package's earlier path-validation
loop, kept verbatim; the package's loop must reach its verdicts, which are
the dense ones, in no more kernel calls.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from planbench.ara_star import (GOAL_NODE, SearchStats, decode, heuristic,
                                lattice_max_coords)
from planbench.collision import (_PROOF_MARGIN, _clearances, _sample_counts, _samples,
                                 motions_free)
from planbench.core import OK, goal_satisfied, screen_query
from planbench.errors import ContractViolation
from planbench.robot import PRISMATIC, config_distance, sphere_centers_batch
from planbench.rrt_connect import ADVANCED, REACHED, TRAPPED, Tree, _steps, nearest
from planbench.world import BOX, CYLINDER, SPHERE, Obstacle


# ---------------------------------------------------------------------------
# Forward kinematics via an explicit 4x4 homogeneous matrix chain.

def _rot_x(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1.0]])


def _rot_y(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s, 0], [0, 1, 0, 0], [-s, 0, c, 0], [0, 0, 0, 1.0]])


def _rot_z(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])


def _translation(v):
    t = np.eye(4)
    t[:3, 3] = v
    return t


def _axis_angle(axis, angle):
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    one = 1.0 - c
    m = np.eye(4)
    m[:3, :3] = [
        [c + x * x * one, x * y * one - z * s, x * z * one + y * s],
        [y * x * one + z * s, c + y * y * one, y * z * one - x * s],
        [z * x * one - y * s, z * y * one + x * s, c + z * z * one],
    ]
    return m


def matrix_chain_spheres(robot, q):
    """Placed spheres [(center ndarray, radius)] via 4x4 composition."""
    transforms = []
    current = np.eye(4)
    for j, joint in enumerate(robot.joints):
        r, p, y = joint.origin_rpy
        origin = _translation(joint.origin_xyz) @ _rot_z(y) @ _rot_y(p) @ _rot_x(r)
        if joint.type == PRISMATIC:
            motion = _translation(np.asarray(joint.axis) * q[j])
        else:
            motion = _axis_angle(joint.axis, q[j])
        current = current @ origin @ motion
        transforms.append(current)
    placed = []
    for sphere in robot.spheres:
        frame = transforms[sphere.link]
        center = frame @ np.append(sphere.center, 1.0)
        placed.append((center[:3], sphere.radius))
    return placed


# ---------------------------------------------------------------------------
# Scalar signed distances, independent of the vectorized kernel.

def point_box_distance(point, center, yaw, half):
    rel = np.asarray(point, dtype=float) - np.asarray(center, dtype=float)
    c, s = math.cos(yaw), math.sin(yaw)
    local = np.array([c * rel[0] + s * rel[1], -s * rel[0] + c * rel[1], rel[2]])
    excess = np.abs(local) - np.asarray(half, dtype=float)
    if np.all(excess <= 0):
        return float(np.max(excess))
    clipped = np.maximum(excess, 0.0)
    return float(math.sqrt(float(np.sum(clipped * clipped))))


def point_cylinder_distance(point, center, radius, half_height):
    rel = np.asarray(point, dtype=float) - np.asarray(center, dtype=float)
    dr = math.hypot(rel[0], rel[1]) - radius
    dz = abs(rel[2]) - half_height
    if dr <= 0 and dz <= 0:
        return max(dr, dz)
    return math.hypot(max(dr, 0.0), max(dz, 0.0))


def point_sphere_distance(point, center, radius):
    rel = np.asarray(point, dtype=float) - np.asarray(center, dtype=float)
    return float(np.linalg.norm(rel)) - radius


def sphere_obstacle_distance_oracle(center, radius, obstacle):
    if obstacle.shape == "box":
        d = point_box_distance(center, obstacle.center, obstacle.yaw, obstacle.half_extents)
    elif obstacle.shape == "cylinder":
        d = point_cylinder_distance(center, obstacle.center, obstacle.radius,
                                    obstacle.half_height)
    else:
        d = point_sphere_distance(center, obstacle.center, obstacle.radius)
    return d - radius


def box_obstacle(center, half_extents, yaw=0.0):
    return Obstacle(shape="box", center=center, yaw=yaw, half_extents=half_extents)


def cylinder_obstacle(center, radius, half_height, yaw=0.0):
    return Obstacle(shape="cylinder", center=center, yaw=yaw, radius=radius,
                    half_height=half_height)


def sphere_obstacle(center, radius):
    return Obstacle(shape="sphere", center=center, radius=radius)


def weighted_norms_rowwise(robot, deltas):
    """``robot.weighted_norms`` row by row: each row's squares' ``ndarray.dot``
    with the weights, then ``math.sqrt``."""
    return [math.sqrt(row.dot(robot.weights)) for row in deltas * deltas]


def sample_uniform(robot, rng):
    """One configuration with each joint value drawn uniform over its limits:
    one row of the planner's batched ``rng.uniform`` draw."""
    return rng.uniform(robot.lower, robot.upper)


def within_limits(robot, q):
    """True iff every joint value lies in its closed limit interval."""
    return bool(np.all(q >= robot.lower) and np.all(q <= robot.upper))


def linspace_motion(robot, a, b, step):
    """Configurations along a -> b at ceil(d / step) + 1 ``np.linspace``
    parameters, endpoints overwritten with a and b exactly."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = math.sqrt(float(np.dot((a - b) * (a - b), robot.weights)))
    ts = np.linspace(0.0, 1.0, int(math.ceil(d / step)) + 1)
    configs = a[None, :] + ts[:, None] * (b - a)[None, :]
    configs[0] = a
    configs[-1] = b
    return configs


def brute_force_check(robot, world, q):
    """Classify one configuration by recomputing every pairwise distance.

    Returns ("free",), or the first violation found: ("limits", joint),
    ("world", sphere, obstacle) or ("self", a, b), scanning limits by joint
    index, then world collisions sphere-major/obstacle-minor, then
    self-collision pairs lexicographically.  Touching counts as free for
    obstacles; self pairs collide on strict overlap.
    """
    q = np.asarray(q, dtype=float)
    for j, joint in enumerate(robot.joints):
        lo, hi = joint.limits
        if q[j] < lo or q[j] > hi:
            return ("limits", j)
    placed = matrix_chain_spheres(robot, q)
    for si, (center, radius) in enumerate(placed):
        for oi, obstacle in enumerate(world.obstacles):
            if sphere_obstacle_distance_oracle(center, radius, obstacle) < 0:
                return ("world", si, oi)
    for si in range(len(placed)):
        for sj in range(si + 1, len(placed)):
            if abs(robot.spheres[si].link - robot.spheres[sj].link) <= 1:
                continue
            if (si, sj) in robot.self_collision_ignored:
                continue
            ci, ri = placed[si]
            cj, rj = placed[sj]
            if float(np.linalg.norm(ci - cj)) < ri + rj:
                return ("self", si, sj)
    return ("free",)


def brute_force_masks(robot, world, q):
    """(world, self, world_margin, self_margin) for one configuration, every
    pair judged by its own distance: the (S, O) world mask and its signed
    ``sphere_obstacle_distance_oracle`` margins, and the (P,) self mask over
    ``self_pairs_dense`` with margins ``|ci - cj| - (ri + rj)``.  An entry is
    True iff its margin is negative."""
    placed = matrix_chain_spheres(robot, np.asarray(q, dtype=float))
    world_margin = np.array([[sphere_obstacle_distance_oracle(c, r, o)
                              for o in world.obstacles] for c, r in placed])
    world_margin = world_margin.reshape(len(placed), len(world.obstacles))
    self_margin = np.array([float(np.linalg.norm(placed[i][0] - placed[j][0]))
                            - (placed[i][1] + placed[j][1])
                            for i, j in self_pairs_dense(robot)])
    return world_margin < 0, self_margin < 0, world_margin, self_margin


# ---------------------------------------------------------------------------
# The dense collision kernel: the 3x3-chain FK and every pair tested.

def sphere_centers_3x3(robot, configs):
    """World-frame sphere centers (m, S, 3) by the package's earlier FK, a
    3x3 rotation chain with a separate translation, kept verbatim except
    that its per-robot constants are built here: the judge that the
    homogeneous chain must match bit for bit on ``arm8``."""
    axes = np.stack([j.axis for j in robot.joints])
    skews = np.stack([np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
                      for kx, ky, kz in axes.tolist()])
    skews_sq = np.stack([k @ k for k in skews])
    origin_rotations = np.stack([(_rot_z(y) @ _rot_y(p) @ _rot_x(r))[:3, :3]
                                 for r, p, y in (j.origin_rpy for j in robot.joints)])
    rotated_origins = [not np.array_equal(r, np.eye(3)) for r in origin_rotations]
    origin_translations = np.stack([j.origin_xyz for j in robot.joints])
    prismatic = [j.type == PRISMATIC for j in robot.joints]

    m, n = configs.shape
    eye = np.eye(3)
    rot = np.broadcast_to(eye, (m, 3, 3)).copy()
    trans = np.zeros((m, 3))
    link_rot = np.empty((m, n, 3, 3))
    link_trans = np.empty((m, n, 3))
    q = configs.T[:, None, None, :]
    turns = (eye[:, :, None] + np.sin(q) * skews[..., None]
             + (1.0 - np.cos(q)) * skews_sq[..., None]).transpose(0, 3, 1, 2)
    for j in range(n):
        trans = trans + rot @ origin_translations[j]
        if rotated_origins[j]:
            rot = rot @ origin_rotations[j]
        if prismatic[j]:
            trans = trans + (rot @ axes[j]) * configs[:, j : j + 1]
        else:
            rot = rot @ turns[j]
        link_rot[:, j] = rot
        link_trans[:, j] = trans

    if not robot.spheres:
        return np.zeros((m, 0, 3))
    links = [s.link for s in robot.spheres]
    local_centers = np.stack([s.center for s in robot.spheres])
    rot = link_rot[:, links]
    trans = link_trans[:, links]
    return np.einsum("msij,sj->msi", rot, local_centers) + trans


def shape_arrays(world, shape):
    """The obstacles of one shape as arrays, in original order: their
    indices, centers, yaw cosines and sines, and one array per size field."""
    index = [i for i, o in enumerate(world.obstacles) if o.shape == shape]
    obs = [world.obstacles[i] for i in index]
    arrays = {"index": np.array(index, dtype=int),
              "center": np.array([o.center for o in obs]).reshape(len(obs), 3),
              "cos": np.array([math.cos(o.yaw) for o in obs]),
              "sin": np.array([math.sin(o.yaw) for o in obs])}
    if shape == BOX:
        arrays["half_extents"] = np.array([o.half_extents for o in obs]).reshape(len(obs), 3)
    else:
        arrays["radius"] = np.array([o.radius for o in obs], dtype=float)
    if shape == CYLINDER:
        arrays["half_height"] = np.array([o.half_height for o in obs], dtype=float)
    return arrays


def world_mask_dense(world, centers, radii):
    """Penetration mask (m, S, O) with every (sphere, obstacle) pair tested;
    a sphere obstacle is measured as a solid ball."""
    packs = {shape: shape_arrays(world, shape) for shape in (BOX, CYLINDER, SPHERE)}
    m, ns = centers.shape[0], centers.shape[1]
    hit = np.zeros((m, ns, len(world.obstacles)), dtype=bool)
    r_sq = (radii * radii)[None, :, None]

    pack = packs["box"]
    if len(pack["index"]):
        rel = centers[:, :, None, :] - pack["center"]
        c, s = pack["cos"], pack["sin"]
        half = pack["half_extents"]
        ax = np.abs(c * rel[..., 0] + s * rel[..., 1]) - half[:, 0]
        ay = np.abs(-s * rel[..., 0] + c * rel[..., 1]) - half[:, 1]
        az = np.abs(rel[..., 2]) - half[:, 2]
        np.maximum(ax, 0.0, out=ax)
        np.maximum(ay, 0.0, out=ay)
        np.maximum(az, 0.0, out=az)
        hit[:, :, pack["index"]] = (ax * ax + ay * ay + az * az) < r_sq

    pack = packs["cylinder"]
    if len(pack["index"]):
        rel = centers[:, :, None, :] - pack["center"]
        dr = np.hypot(rel[..., 0], rel[..., 1]) - pack["radius"]
        dz = np.abs(rel[..., 2]) - pack["half_height"]
        np.maximum(dr, 0.0, out=dr)
        np.maximum(dz, 0.0, out=dz)
        hit[:, :, pack["index"]] = (dr * dr + dz * dz) < r_sq

    pack = packs["sphere"]
    if len(pack["index"]):
        rel = centers[:, :, None, :] - pack["center"]
        dr = np.sqrt(np.sum(rel * rel, axis=-1)) - pack["radius"]
        np.maximum(dr, 0.0, out=dr)
        hit[:, :, pack["index"]] = dr * dr < r_sq
    return hit


def self_pairs_dense(robot):
    """Checked sphere pairs (P, 2) in lexicographic order: not on the same or
    chain-adjacent links and not ignored."""
    links = [s.link for s in robot.spheres]
    pairs = [(i, j) for i in range(len(links)) for j in range(i + 1, len(links))
             if abs(links[i] - links[j]) > 1 and (i, j) not in robot.self_collision_ignored]
    return np.array(pairs, dtype=int).reshape(len(pairs), 2)


def self_mask_dense(robot, centers):
    """Self-overlap mask (m, P) over ``self_pairs_dense``: every pair tested."""
    pairs = self_pairs_dense(robot)
    diff = centers[:, pairs[:, 0]] - centers[:, pairs[:, 1]]
    reach = robot.sphere_radii[pairs[:, 0]] + robot.sphere_radii[pairs[:, 1]]
    return np.sum(diff * diff, axis=-1) < reach ** 2


def free_mask_dense(robot, world, configs):
    """``free_mask`` verdicts (m,) by the dense kernel."""
    ok = np.all((configs >= robot.lower) & (configs <= robot.upper), axis=1)
    centers = sphere_centers_3x3(robot, configs)
    ok &= ~world_mask_dense(world, centers, robot.sphere_radii).any(axis=(1, 2))
    return ok & ~self_mask_dense(robot, centers).any(axis=1)


# ---------------------------------------------------------------------------
# The gather clearance kernel: the package's earlier ``_clearances``, kept
# verbatim apart from its names and its sphere-obstacle rule (see the module
# docstring).  It gathers every (sphere, obstacle) pair's
# parameters through ``np.indices`` pair arrays, takes each pair's square
# root, and stacks 64-row blocks; the package's kernel must reproduce its
# verdicts and clearances bit for bit.

_GATHER_ROWS = 64


def _squared_excess_gather(shape, pack, centers, sph, obs, radii):
    rel = centers[:, sph]
    rel -= pack["center"][obs]
    if shape == SPHERE:
        rel *= rel
        axes = (np.sqrt(rel.sum(axis=-1)) - pack["radius"][obs],)
    elif shape == BOX:
        c, s = pack["cos"][obs], pack["sin"][obs]
        half = pack["half_extents"][obs]
        axes = (np.abs(c * rel[..., 0] + s * rel[..., 1]) - half[:, 0],
                np.abs(-s * rel[..., 0] + c * rel[..., 1]) - half[:, 1],
                np.abs(rel[..., 2]) - half[:, 2])
    else:
        axes = (np.hypot(rel[..., 0], rel[..., 1]) - pack["radius"][obs],
                np.abs(rel[..., 2]) - pack["half_height"][obs])
    del rel
    for a in axes:  # max(a, 0)²
        np.maximum(a, 0.0, out=a)
        a *= a
    excess = axes[0]
    for a in axes[1:]:
        excess += a
    return excess, radii


def _self_distances_sq_gather(robot, centers):
    first, second, _ = robot.self_pair_arrays
    diff = centers[:, first]
    diff -= centers[:, second]
    diff *= diff
    dist_sq = diff[..., 0] + diff[..., 1]
    dist_sq += diff[..., 2]
    return dist_sq


def clearances_gather(robot, world, configs):
    """(verdicts (m,), clearances (m, S + P)) by the gather kernel."""
    centers = sphere_centers_batch(robot, configs)
    blocks = [_block_clearances_gather(robot, world, centers[i:i + _GATHER_ROWS])
              for i in range(0, len(centers), _GATHER_ROWS)]
    return np.concatenate([b[0] for b in blocks]), np.vstack([b[1] for b in blocks])


def _block_clearances_gather(robot, world, centers):
    radii = robot.sphere_radii
    m, ns = centers.shape[0], centers.shape[1]
    free = np.ones(m, dtype=bool)
    world_gap = np.full((m, ns), np.inf)
    for shape in (BOX, CYLINDER, SPHERE):
        pack = shape_arrays(world, shape)
        k = len(pack["index"])
        if k:
            sph, obs = np.indices((ns, k)).reshape(2, -1)
            excess, reach = _squared_excess_gather(shape, pack, centers, sph, obs, radii[sph])
            free &= ~(excess < reach * reach).any(axis=1)
            gap = np.sqrt(excess, out=excess)
            gap -= reach
            np.minimum(world_gap, gap.reshape(m, ns, k).min(axis=2), out=world_gap)
    first, second, reach_sq = robot.self_pair_arrays
    dist_sq = _self_distances_sq_gather(robot, centers)
    free &= ~(dist_sq < reach_sq).any(axis=1)
    self_gap = np.sqrt(dist_sq) - (radii[first] + radii[second])
    return free, np.hstack([world_gap, self_gap])


# ---------------------------------------------------------------------------
# Midpoint bisection: the package's earlier ``path_free``, kept verbatim
# apart from its name and docstring.  Each unproven interval is split at its
# middle row; the package's loop, which cuts an interval into as many pieces
# as its clearance asks for, must give the same verdicts in no more
# ``_clearances`` calls.

def path_free_bisect(robot, world, waypoints, step):
    """``path_free`` by midpoint bisection."""
    if waypoints.shape[1] != robot.dof:
        raise ContractViolation(
            f"path has {waypoints.shape[1]} joints, robot has {robot.dof}")
    ends = waypoints[1:] if len(waypoints) > 1 else waypoints
    starts = waypoints[:len(ends)]
    delta = ends - starts
    counts = _sample_counts(robot, delta, step)
    inner = np.flatnonzero(counts > 2)  # segments with rows between their ends
    extremes = _samples(starts, delta, counts, np.concatenate([inner, inner]),
                        np.concatenate([np.ones_like(inner), counts[inner] - 2]))
    rows = np.vstack([waypoints, extremes])
    if not np.all((rows >= robot.lower) & (rows <= robot.upper)):
        return False
    if not robot.spheres:
        return True
    free, gaps = _clearances(robot, world, waypoints)
    if not free.all():
        return False
    first, second, _ = robot.self_pair_arrays
    arms = np.vstack([robot.lever_arms, robot.lever_arms[first] + robot.lever_arms[second]])
    arms = np.ascontiguousarray(arms.T)  # (n, S + P)
    # Each pending interval: its segment, its end rows, and their
    # configurations and clearances.
    motion, lo, hi = np.arange(len(ends)), np.zeros(len(ends), dtype=int), counts - 1
    q_lo, q_hi = starts, ends
    gap_lo, gap_hi = gaps[:len(ends)], gaps[len(waypoints) - len(ends):]
    while True:
        # clr(i) + clr(k) > B + margin, tested as clr(k) > B + margin - clr(i)
        # in one (intervals, S + P) array: the margin dwarfs the rounding.
        slack = np.abs(q_hi - q_lo) @ arms
        slack += _PROOF_MARGIN
        slack -= gap_lo
        pending = (hi - lo > 1) & ~np.all(slack < gap_hi, axis=1)
        del slack
        if not pending.any():
            return True
        # One array at a time, so that each old one is freed before the next.
        motion, lo, hi = motion[pending], lo[pending], hi[pending]
        q_lo, q_hi = q_lo[pending], q_hi[pending]
        gap_lo = gap_lo[pending]
        gap_hi = gap_hi[pending]
        mid = lo + (hi - lo) // 2  # (lo + hi) // 2 could overflow int64
        q_mid = _samples(starts, delta, counts, motion, mid)
        free, gap_mid = _clearances(robot, world, q_mid)
        if not free.all():
            return False
        motion = np.concatenate([motion, motion])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        q_lo, q_hi = np.vstack([q_lo, q_mid]), np.vstack([q_mid, q_hi])
        gap_lo = np.vstack([gap_lo, gap_mid])
        gap_hi = np.vstack([gap_mid, gap_hi])


# ---------------------------------------------------------------------------
# Monte-Carlo membership: does a sphere penetrate an obstacle?

def point_inside(points, obstacle):
    """Boolean mask: strictly inside the obstacle."""
    pts = np.atleast_2d(points)
    rel = pts - obstacle.center
    if obstacle.shape == "box":
        c, s = math.cos(obstacle.yaw), math.sin(obstacle.yaw)
        local = np.stack([c * rel[:, 0] + s * rel[:, 1],
                          -s * rel[:, 0] + c * rel[:, 1], rel[:, 2]], axis=1)
        return np.all(np.abs(local) < obstacle.half_extents, axis=1)
    if obstacle.shape == "cylinder":
        return (np.hypot(rel[:, 0], rel[:, 1]) < obstacle.radius) \
            & (np.abs(rel[:, 2]) < obstacle.half_height)
    return np.sum(rel * rel, axis=1) < obstacle.radius ** 2


def sphere_penetrates_monte_carlo(center, radius, obstacle, rng, samples=1000):
    """True when surface samples or the centers witness penetration."""
    dirs = rng.normal(size=(samples, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    surface = np.asarray(center) + radius * dirs
    if point_inside(surface, obstacle).any():
        return True
    if point_inside(np.asarray(center)[None, :], obstacle)[0]:
        return True
    # Obstacle center inside the sphere covers containment of tiny obstacles.
    return float(np.linalg.norm(np.asarray(center) - obstacle.center)) < radius


def spheres_penetrate_monte_carlo(centers, radii, obstacles, rng, samples=1000):
    """Vectorized membership oracle: one sphere against its own obstacle.

    ``obstacles`` must share one shape.  Point membership uses this module's
    own formulas, evaluated for surface samples plus both center witnesses.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    count = centers.shape[0]
    dirs = rng.normal(size=(count, samples, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    points = centers[:, None, :] + radii[:, None, None] * dirs
    points = np.concatenate([points, centers[:, None, :]], axis=1)  # + center

    shape = obstacles[0].shape
    obs_centers = np.stack([o.center for o in obstacles])
    rel = points - obs_centers[:, None, :]
    if shape == "box":
        yaw = np.array([o.yaw for o in obstacles])
        half = np.stack([o.half_extents for o in obstacles])
        c, s = np.cos(yaw)[:, None], np.sin(yaw)[:, None]
        local_x = c * rel[:, :, 0] + s * rel[:, :, 1]
        local_y = -s * rel[:, :, 0] + c * rel[:, :, 1]
        inside = ((np.abs(local_x) < half[:, None, 0])
                  & (np.abs(local_y) < half[:, None, 1])
                  & (np.abs(rel[:, :, 2]) < half[:, None, 2]))
    elif shape == "cylinder":
        r_obs = np.array([o.radius for o in obstacles])
        hh = np.array([o.half_height for o in obstacles])
        inside = ((np.hypot(rel[:, :, 0], rel[:, :, 1]) < r_obs[:, None])
                  & (np.abs(rel[:, :, 2]) < hh[:, None]))
    else:
        r_obs = np.array([o.radius for o in obstacles])
        inside = np.sum(rel * rel, axis=2) < (r_obs[:, None]) ** 2
    hit = inside.any(axis=1)
    # Obstacle center inside the sphere covers small contained obstacles.
    gap = np.linalg.norm(centers - obs_centers, axis=1)
    return hit | (gap < radii)


# ---------------------------------------------------------------------------
# Validated lattice moves, Dijkstra, and the eager anytime search over them.

_TIE = 1e-12  # the relaxation and termination margin of ara_search

def valid_successors(state, primitives, robot, world, goal_config=None,
                     edge_step=0.05):
    """The lattice moves from ``state`` whose straight motion is collision
    free at ``edge_step``, priced by ``config_distance``: one move per
    in-bounds primitive in primitive order, then the goal-snap move when the
    goal configuration lies within the snap radius.

    The moves are built one by one here; their motions are checked in one
    ``motions_free`` call, which ``TestMotionsFree`` holds to the verdicts of
    ``check_motion`` motion by motion.
    """
    q = decode(robot, state)
    max_coords = lattice_max_coords(robot)
    moves = []
    for delta in primitives.primitives:
        nxt = tuple(int(a) + int(d) for a, d in zip(state, delta))
        if all(0 <= c <= m for c, m in zip(nxt, max_coords)):
            moves.append((nxt, decode(robot, nxt)))
    if goal_config is not None and \
            config_distance(robot, q, goal_config) <= primitives.snap_radius:
        moves.append((GOAL_NODE, np.asarray(goal_config, dtype=float)))
    if not moves:
        return []
    free = motions_free(robot, world, q, np.array([q2 for _, q2 in moves]), edge_step)
    return [(nxt, config_distance(robot, q, q2))
            for (nxt, q2), ok in zip(moves, free) if ok]


def dijkstra_lattice(robot, world, primitives, start_state, goal, edge_step,
                     goal_config=None):
    """Optimal cost to any goal-satisfying node, or None when unreachable:
    a uniform-cost search over ``valid_successors`` with its own goal test."""
    def satisfied(node):
        if node == GOAL_NODE:
            return True
        q = decode(robot, node)
        if goal.type == "config":
            tol = goal.tolerance if goal.tolerance is not None else 0.0
            return bool(np.all(np.abs(q - goal.target) <= tol))
        return bool(np.all(q >= goal.lower) and np.all(q <= goal.upper))

    dist = {start_state: 0.0}
    heap = [(0.0, start_state)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf):
            continue
        if satisfied(node):
            return d
        for nxt, cost in valid_successors(node, primitives, robot, world,
                                          goal_config, edge_step):
            nd = d + cost
            if nd < dist.get(nxt, math.inf) - 1e-15:
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return None


def ara_search_eager(start_state, goal, primitives, params, robot, world, stats=None):
    """(waypoints, SearchStats) of anytime weighted A* that validates every
    move when its source is expanded, with no clock.

    This is the search ``ara_search`` runs lazily: same keys, tie-breaking,
    relaxation rule, inconsistent-state list and path reconstruction, over
    the moves of ``valid_successors``.  It counts the closed states reopened
    into ``stats["reopened"]``, as ``ara_search`` does.
    """
    goal_config = goal.target
    stats = {} if stats is None else stats
    search_stats = SearchStats()
    g = {start_state: 0.0}
    parent = {start_state: None}
    best_cost = math.inf
    best_node = None

    def h(s):
        return heuristic(s, goal, robot)

    def is_goal(s):
        return s == GOAL_NODE or goal_satisfied(goal, decode(robot, s))

    seeds = {start_state}
    for eps in params.epsilon_schedule:
        heap = [(g[s] + eps * h(s), -g[s], s) for s in seeds]
        heapq.heapify(heap)
        closed = set()
        incons = set()
        expansions = 0
        while heap:
            f, neg_g, s = heap[0]
            if -neg_g != g[s]:
                heapq.heappop(heap)
                continue
            if best_cost <= f + _TIE:
                break
            heapq.heappop(heap)
            if s in closed:
                continue
            closed.add(s)
            expansions += 1
            if is_goal(s):
                if g[s] < best_cost:
                    best_cost = g[s]
                    best_node = s
                continue
            for nxt, cost in valid_successors(s, primitives, robot, world,
                                              goal_config, params.edge_step):
                tentative = g[s] + cost
                if tentative < g.get(nxt, math.inf) - _TIE:
                    g[nxt] = tentative
                    parent[nxt] = s
                    if nxt in closed:
                        if nxt not in incons:
                            incons.add(nxt)
                            stats["reopened"] = stats.get("reopened", 0) + 1
                    else:
                        heapq.heappush(heap, (tentative + eps * h(nxt), -tentative, nxt))
        search_stats.expansions_per_epsilon.append(expansions)
        search_stats.incumbent_costs.append(None if best_node is None else best_cost)
        seeds = {s for _, neg_g, s in heap if -neg_g == g[s]} | incons

    if best_node is None:
        return None, search_stats
    chain = [best_node]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return [goal_config.copy() if s == GOAL_NODE else decode(robot, s)
            for s in chain], search_stats


# ---------------------------------------------------------------------------
# RRT-Connect as the sequential loop: one sample, one extend, one connect.

def extend_one(tree, target, params, robot, world):
    """(status, node) of one bounded step of the nearest node toward
    ``target``, its motion checked in its own ``motions_free`` call."""
    near = int(nearest(tree, target[None])[0])
    step = _steps(robot, params, tree.nodes[near][None], target[None])[0]
    if step is None:
        return REACHED, near
    q_new, reached = step
    if not motions_free(robot, world, tree.nodes[near], q_new[None], params.edge_step)[0]:
        return TRAPPED, None
    return (REACHED if reached else ADVANCED), tree.add(q_new, near)


def connect_one(tree, target, params, robot, world):
    """``extend_one`` toward ``target`` until reached or trapped; on TRAPPED
    the node is the last one added, if any."""
    last = None
    while True:
        status, index = extend_one(tree, target, params, robot, world)
        if status == TRAPPED:
            return TRAPPED, last
        if status == REACHED:
            return REACHED, index
        last = index


def rrt_connect_sequential(robot, world, query, params, seed):
    """(status, waypoints, stats) of the textbook RRT-Connect loop.

    Each iteration draws one sample from the generator seeded with
    ``seed``, extends one tree toward it, connects the other tree toward
    the new node when the extend was not trapped, and swaps the trees.
    There is no clock: the loop ends when the trees meet or after
    ``params.max_iterations`` iterations, so the query must be solvable or
    the iterations bounded.  Stats hold iterations and nodes; status is
    "solved-forward", "unsolvable" or "failure".
    """
    stats = {"iterations": 0, "nodes": 0}
    verdict, representative = screen_query(robot, world, query)
    if verdict != OK:
        return "unsolvable", None, stats
    if goal_satisfied(query.goal, query.start):
        return "solved-forward", query.start[None, :].copy(), stats
    rng = np.random.default_rng(seed)
    start_tree = Tree(robot, query.start)
    tree_a, tree_b = start_tree, Tree(robot, representative)
    while params.max_iterations is None or stats["iterations"] < params.max_iterations:
        stats["iterations"] += 1
        status, new_index = extend_one(tree_a, sample_uniform(robot, rng), params, robot,
                                       world)
        if status != TRAPPED:
            status_b, meet = connect_one(tree_b, tree_a.config(new_index), params, robot,
                                         world)
            if status_b == REACHED:
                stats["nodes"] = tree_a.size + tree_b.size
                if tree_a is start_tree:
                    return "solved-forward", _joined(tree_a, new_index, tree_b, meet), stats
                return "solved-forward", _joined(tree_b, meet, tree_a, new_index), stats
        tree_a, tree_b = tree_b, tree_a
    stats["nodes"] = tree_a.size + tree_b.size
    return "failure", None, stats


def _joined(start_tree, start_meet, goal_tree, goal_meet):
    """Root-to-meet branch of the start tree, then the goal tree's branch
    from the meet back to its root, with a shared meet waypoint kept once."""
    first = [start_tree.config(i) for i in start_tree.branch(start_meet)]
    second = [goal_tree.config(i) for i in reversed(goal_tree.branch(goal_meet))]
    if np.array_equal(first[-1], second[0]):
        second = second[1:]
    return np.array(first + second)
