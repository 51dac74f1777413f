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
continuous collision detection.  A planner's motions (``motions_free``) have
every configuration checked, in one batch with no early stop at the first
colliding one.  A path (``path_free``) gets the same verdict with most
configurations skipped: a run of samples between two checked ones is proven
free when the two's clearances exceed by 1e-9, far above rounding, how far
the robot's lever arms let each sphere move between them, so touching still
counts as free.  A run that is not proven is cut into as many equal pieces,
2 to 8, as the ratio of that motion bound to the clearances asks for, the
adaptive step of Schwarzer, Saha & Latombe (T-RO 2005).  ``_clearances``
computes every sphere-obstacle pair exactly, with no broadphase,
component-major in 256-row blocks, with one square root per sphere for all
boxes and cylinders.  Certifying the continuous sweep is ROADMAP item 1.

Everything here is a pure function over immutable inputs and safe to call
concurrently from any number of workers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation
from .robot import RobotModel, as_configuration, sphere_centers_batch, weighted_norms
from .world import BOX, CYLINDER, SPHERE, WorldModel

# The clearance sum must exceed the lever-arm bound by this much (meters).
_PROOF_MARGIN = 1e-9
# Rows per pass of the clearance kernel's pair arithmetic.
_CLEARANCE_ROWS = 256
# Most pieces path validation cuts an unproven interval into per level.
_MAX_PIECES = 8


def _squared_excess(shape: str, pack: dict, obs, rel: np.ndarray,
                    radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared excess and reach of the sphere-center offsets ``rel`` (3, ...),
    x, y and z stacked first and overwritten, from the obstacles ``obs`` of
    one shape's ``pack``, for spheres of ``radii``: a sphere penetrates iff
    the excess is below the squared reach, and its clearance is the excess'
    square root less the reach.

    ``obs`` makes each per-obstacle parameter broadcast against a component:
    the penetration mask's (m, k) components of k gathered pairs take the
    pairs' obstacle indices, the clearance kernel's (k, N) ones of every
    obstacle against N centers take ``np.s_[:, None]``, a (k, 1) column, and
    an entry's arithmetic is the same either way.  A box's or cylinder's
    excess is the squared distance from the center to the solid (zero inside
    it) and its reach the sphere radius; a sphere obstacle's are the squared
    center distance, (dx² + dy²) + dz², and the radius sum.
    """
    x, y, z = rel
    if shape == SPHERE:
        rel *= rel
        return x + y + z, pack["radius"][obs] + radii
    if shape == BOX:
        c, s = pack["cos"][obs], pack["sin"][obs]
        half = pack["half_extents"][obs]
        axes = (np.abs(c * x + s * y) - half[..., 0],
                np.abs(-s * x + c * y) - half[..., 1],
                np.abs(z) - half[..., 2])
    else:
        axes = (np.hypot(x, y) - pack["radius"][obs],
                np.abs(z) - pack["half_height"][obs])
    for a in axes:  # max(a, 0)²
        np.maximum(a, 0.0, out=a)
        a *= a
    excess = axes[0]
    for a in axes[1:]:
        excess += a
    return excess, radii


def _world_penetration_mask(world: WorldModel, centers: np.ndarray,
                            radii: np.ndarray) -> np.ndarray:
    """Boolean penetration mask (m, S, O), ordered by original obstacle index.

    Only pairs whose batch bounding boxes overlap are tested (see the module
    docstring); every other pair is separated by more than rounding can
    close, so its entry is False either way.
    """
    packs = world.packs
    m, ns = centers.shape[0], centers.shape[1]
    hit = np.zeros((m, ns, len(world.obstacles)), dtype=bool)
    packed = np.ascontiguousarray(centers)
    lower, upper = packs["bounds"]
    overlap = (((packed.min(axis=0) - radii[:, None])[:, None] <= upper)
               & ((packed.max(axis=0) + radii[:, None])[:, None] >= lower))
    near = overlap[..., 0] & overlap[..., 1] & overlap[..., 2]
    for shape in (BOX, CYLINDER, SPHERE):
        pack = packs[shape]
        if not len(pack["index"]):
            continue
        sph, obs = np.nonzero(near[:, pack["index"]])
        if len(sph):
            rel = centers[:, sph]
            rel -= pack["center"][obs]
            excess, reach = _squared_excess(shape, pack, obs, rel.transpose(2, 0, 1), radii[sph])
            hit[:, sph, pack["index"][obs]] = excess < reach * reach
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


def _self_distances_sq(robot: RobotModel, centers: np.ndarray) -> np.ndarray:
    """Squared center distance per checked sphere pair (m, P), lexicographic
    order, summed as (dx² + dy²) + dz²."""
    first, second, _ = robot.self_pair_arrays
    diff = centers[:, first]
    diff -= centers[:, second]
    diff *= diff
    dist_sq = diff[..., 0] + diff[..., 1]
    dist_sq += diff[..., 2]
    return dist_sq


def _self_overlap_mask(robot: RobotModel, centers: np.ndarray) -> np.ndarray:
    """Boolean overlap per checked sphere pair (m, P), lexicographic order."""
    return _self_distances_sq(robot, centers) < robot.self_pair_arrays[2]


def _clearances(robot: RobotModel, world: WorldModel,
                configs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``free_mask`` verdict apart from the joint limits, and its
    clearances (m, S + P): every sphere's distance to the nearest obstacle
    less its radius (inf with no obstacle), then every checked pair's center
    distance less the radius sum.

    Every (sphere, obstacle) pair is computed, with no broadphase, by the
    penetration mask's arithmetic, so each verdict is that row's ``free_mask``
    verdict within the limits exactly, whatever rows share the call.  The
    kernel is component-major: per ``_CLEARANCE_ROWS`` rows, one contiguous
    (3, N) copy of their N sphere centers and per shape the (3, k, N) offsets
    from its k obstacles, whose parameters are (k, 1) columns, with no pair
    index (300 KB of box offsets at 256 rows of ``shelf_reach``).  Boxes and
    cylinders share the reach r, the sphere radius, so their least squared
    excess e comes first, then one square root gives the clearance
    sqrt(e) - r and one comparison the verdict e < r².  That is exact: IEEE
    square root is correctly rounded, hence monotone, as is subtracting r,
    so min_k(sqrt(e_k) - r) is sqrt(min_k e_k) - r bit for bit, and some
    e_k < r² iff min_k e_k < r².  A sphere obstacle's reach R + r differs
    per obstacle, so its clearances are taken before their minimum.
    """
    radii = robot.sphere_radii
    first, second, reach_sq = robot.self_pair_arrays
    centers = sphere_centers_batch(robot, configs)
    m, ns = centers.shape[0], centers.shape[1]
    free, gaps = np.empty(m, dtype=bool), np.empty((m, ns + len(first)))
    for i in range(0, m, _CLEARANCE_ROWS):
        rows = slice(i, i + _CLEARANCE_ROWS)
        block = centers[rows]
        n = len(block) * ns  # column j S + s is sphere s of row j
        points = np.ascontiguousarray(block.transpose(2, 0, 1)).reshape(3, 1, n)
        r = np.tile(radii, len(block))
        nearest = np.full(n, np.inf)  # min squared excess over boxes and cylinders
        for shape in (BOX, CYLINDER):
            pack = world.packs[shape]
            if len(pack["index"]):
                rel = np.subtract(points, pack["center"].T[:, :, None], order="C")
                excess, _ = _squared_excess(shape, pack, np.s_[:, None], rel, r)
                np.minimum(nearest, excess.min(axis=0), out=nearest)
        hit, gap = nearest < r * r, np.sqrt(nearest) - r
        pack = world.packs[SPHERE]
        if len(pack["index"]):
            rel = np.subtract(points, pack["center"].T[:, :, None], order="C")
            excess, reach = _squared_excess(SPHERE, pack, np.s_[:, None], rel, r)
            hit |= (excess < reach * reach).any(axis=0)
            excess = np.sqrt(excess, out=excess) - reach
            np.minimum(gap, excess.min(axis=0), out=gap)
        gaps[rows, :ns] = gap.reshape(-1, ns)
        dist_sq = _self_distances_sq(robot, block)
        free[rows] = ~hit.reshape(-1, ns).any(axis=1) & ~(dist_sq < reach_sq).any(axis=1)
        gaps[rows, ns:] = np.sqrt(dist_sq) - (radii[first] + radii[second])
    return free, gaps


def check_config(robot: RobotModel, world: WorldModel, q) -> bool:
    """True iff the one configuration ``q`` is free: its ``free_mask`` row."""
    return bool(free_mask(robot, world, as_configuration(robot, q)[None])[0])


def _sample_counts(robot: RobotModel, delta: np.ndarray, step: float) -> np.ndarray:
    """ceil(d / step) + 1 configurations for each motion of weighted length d;
    a count that does not fit an int64 raises ContractViolation."""
    if not 0 < step < math.inf:
        raise ContractViolation(f"motion step must be positive and finite, got {step}")
    try:  # math.ceil of an infinite d / step raises OverflowError too
        return np.array([math.ceil(d / step) + 1 for d in weighted_norms(robot, delta)],
                        dtype=np.int64)
    except OverflowError:
        raise ContractViolation(
            f"motion step {step} gives more than 2**63 - 1 samples") from None


def _samples(starts: np.ndarray, delta: np.ndarray, counts: np.ndarray,
             motion: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Configuration ``index[i]`` of motion ``motion[i]``, starts + t delta at
    t = index / (count - 1) as ``np.linspace`` spaces it; the endpoints are
    the caller's to set exactly.  Each joint's value is monotone in the
    index, since every rounding step is."""
    configs = delta[motion]
    configs *= (index * (1.0 / np.maximum(counts - 1, 1))[motion])[:, None]
    configs += starts[motion]
    return configs


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
    delta = ends - starts
    counts = _sample_counts(robot, delta, step)
    offsets = np.cumsum(counts) - counts
    motion = np.repeat(np.arange(len(counts)), counts)
    configs = _samples(starts, delta, counts, motion,
                       np.arange(motion.shape[0]) - offsets[motion])
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


def _pieces(bound: np.ndarray, room: np.ndarray, width: np.ndarray) -> np.ndarray:
    """How many equal index pieces each unproven interval is cut into, from
    its lever-arm bounds B and clearance sums G (intervals, S + P): the
    ceiling of the largest B / G, clamped to [2, min(_MAX_PIECES, width)], as
    Schwarzer, Saha & Latombe (T-RO 2005) pick the step from this ratio.  A
    G of 0 or less takes the cap, with no division by it."""
    ratio = np.divide(bound, room, out=np.full_like(bound, np.inf), where=room > 0)
    need = np.minimum(np.ceil(ratio.max(axis=1)), _MAX_PIECES).astype(np.int64)
    return np.maximum(np.minimum(need, width), 2)


def _cuts(lo: np.ndarray, hi: np.ndarray,
          pieces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cuts lo + floor(w t / k), t = 1 .. k - 1 and w = hi - lo, that
    split each interval into k = ``pieces`` equal index pieces, stacked
    interval by interval, and the interval each cut belongs to.  A cut is
    computed as lo + (w // k) t + ((w % k) t) // k, which cannot overflow
    int64; since k <= w, the cuts are strictly increasing and strictly
    between lo and hi."""
    owner = np.repeat(np.arange(len(pieces)), pieces - 1)
    t = np.arange(1, len(owner) + 1) - (np.cumsum(pieces - 1) - (pieces - 1))[owner]
    whole, part = np.divmod(hi - lo, pieces)
    return owner, lo[owner] + whole[owner] * t + (part[owner] * t) // pieces[owner]


def path_free(robot: RobotModel, world: WorldModel, waypoints: np.ndarray,
              step: float) -> bool:
    """True iff every ``motion_configs`` row of the segments between the
    (k, n) ``waypoints`` (a lone waypoint's to itself) is free, as
    ``free_mask`` decides it row by row; the rows that clearance and lever
    arms prove free are never computed.

    Every row is within the joint limits iff the waypoints and each
    segment's second and second-to-last rows are, since a segment's rows
    are monotone in each joint.  One ``_clearances`` call then evaluates the
    waypoints, which are the segments' end rows.  A segment's rows i < j < k,
    with i and k evaluated and free, lie on one line, so each sphere center
    at j is within Σ_l arm[l] |q_jl - q_il| of its center at i and within
    Σ_l arm[l] |q_kl - q_jl| of its center at k (``RobotModel.lever_arms``),
    and the two bounds add up to the bound B from i to k.  Rows i and k
    prove every row between them free when each sphere's clearances satisfy
    clr(i) + clr(k) > B + 1e-9, and each checked pair's satisfy the same test
    with both spheres' bounds summed: every clearance at j is then above
    5e-10 m, so no pair touches.  The 1e-9 margin is far above the FK and
    rounding error, about 1e-15 m on meter-scale robots.  An interval that
    is not proven is cut into k equal index pieces, k the ceiling of the
    largest ratio of B + 1e-9 to clr(i) + clr(k) over its spheres and pairs,
    2 to min(8, its width) (``_pieces``, ``_cuts``); the cuts of all
    intervals go into one call per level, and the first row found in
    collision returns False.  Touching still counts as free, since each
    evaluated row's verdict is exactly its ``free_mask`` verdict.
    """
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
        bound = np.abs(q_hi - q_lo) @ arms
        bound += _PROOF_MARGIN
        pending = (hi - lo > 1) & ~np.all(bound - gap_lo < gap_hi, axis=1)
        if not pending.any():
            return True
        # One array at a time, so that each old one is freed before the next.
        motion, lo, hi = motion[pending], lo[pending], hi[pending]
        q_lo, q_hi = q_lo[pending], q_hi[pending]
        gap_lo, gap_hi = gap_lo[pending], gap_hi[pending]
        pieces = _pieces(bound[pending], gap_lo + gap_hi, hi - lo)
        del bound
        owner, cut = _cuts(lo, hi, pieces)
        q_cut = _samples(starts, delta, counts, motion[owner], cut)
        free, gap_cut = _clearances(robot, world, q_cut)
        if not free.all():
            return False
        # Interval i becomes a piece from lo to its first cut, then one from
        # each cut to the next cut or to hi: row right[j] of [cuts, his].
        last = np.cumsum(pieces - 1) - 1  # each interval's last cut
        right = np.arange(1, len(cut) + 1)
        right[last] = len(cut) + np.arange(len(lo))
        right = np.concatenate([last + 2 - pieces, right])
        motion = np.concatenate([motion, motion[owner]])
        lo, hi = np.concatenate([lo, cut]), np.concatenate([cut, hi])[right]
        q_lo, q_hi = np.concatenate([q_lo, q_cut]), np.concatenate([q_cut, q_hi])[right]
        gap_lo = np.concatenate([gap_lo, gap_cut])
        gap_hi = np.concatenate([gap_cut, gap_hi])[right]
