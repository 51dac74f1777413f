"""Collision checking: sphere-vs-primitive penetration tests.

A configuration is free when it is inside the joint limits, no placed robot
sphere penetrates an obstacle, and no checked sphere pair overlaps (center
distance strictly below the radius sum).  Every obstacle, a box, a
cylinder or a sphere, is a solid, and a robot sphere penetrates it when its
center is strictly nearer to the solid than its radius: when the squared
distance from the center to the solid (zero inside it) is strictly below
the squared radius, so touching counts as free.  Sphere pairs on the same
or chain-adjacent links are never checked.

A batch call first drops every (sphere, obstacle) pair whose bounding boxes
over the batch are separated: the box around the sphere's centers in every
configuration of the batch, widened by its radius, against the obstacle's
padded box from ``WorldModel.kernel_table``.  FK returns the centers as a
view of sphere-major memory, one matmul output per sphere; the bounds
reduce a packed (m, S, 3) copy, about 4x faster at m >= 60, used for
nothing else.  Only the remaining near pairs are tested, every shape in one
pass: the table lists the obstacles boxes first, then cylinders, then
spheres, with the same three axes for each, so one formula
(``_squared_excess``) measures every pair and only its first axis is
computed per kind, one slice each.  Each row's verdict is the OR of one
(m, k) mask over the k near pairs: no (m, S, O) mask over every pair is
formed.  Verdicts are exactly those of testing every pair, and touching
counts as free as before.  Self pairs are all tested, each squared center
distance summed as (dx² + dy²) + dz², the order of ``np.sum`` over three.

Straight-line motions are validated at a fixed number of evenly spaced
configurations along the segment; this is discretized edge checking, not
continuous collision detection.  A planner's motions (``motions_free``) have
every configuration checked, in one batch with no early stop at the first
colliding one.  The one proof loop, ``_groups_free``, gives each group of
motions the AND of their verdicts with most configurations skipped: the
clearances of two checked rows and the robot's lever arms prove the rows
between them free, touching still counting as free, and an unproven run is
cut into 2 to 8 equal pieces, the adaptive step of Schwarzer, Saha &
Latombe (T-RO 2005).  A group's first colliding row ends its check, and a
path (``path_free``) is one group.  ``_clearances`` computes every
sphere-obstacle pair exactly, with no broadphase, component-major in
256-row blocks, one square root per sphere.  Certifying the continuous
sweep is ROADMAP item 2.

A batch, motion or path of the wrong dimension raises ContractViolation
(``robot.as_configurations``).  Everything here is a pure function over
immutable inputs and safe to call concurrently from any number of workers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation
from .robot import (RobotModel, as_configuration, as_configurations, sphere_centers_batch,
                    weighted_norms)
from .world import WorldModel

# The clearance sum must exceed the lever-arm bound by this much (meters).
_PROOF_MARGIN = 1e-9
# Rows per pass of the clearance kernel's pair arithmetic.
_CLEARANCE_ROWS = 256
# Most pieces path validation cuts an unproven interval into per level.
_MAX_PIECES = 8


def _squared_excess(table: dict, obs, rel: np.ndarray, split) -> np.ndarray:
    """Squared distance from the sphere-center offsets ``rel`` (3, k, ...),
    x, y and z stacked first and overwritten, to the k solids of
    ``WorldModel.kernel_table`` that ``obs`` picks, zero inside one: a sphere
    of radius r penetrates a solid iff this is below r², and its clearance
    is the square root less r.

    The obstacle axis is each component's first, and each per-obstacle
    parameter becomes a (k, 1) column: the near-pair kernel's (k, m)
    components of k gathered pairs take the pairs' table rows as ``obs``,
    the clearance kernel's (k, N) ones of every obstacle against N centers
    take ``slice(None)``, and an entry's arithmetic is the same either way.
    ``split`` holds the component rows where the cylinders and the spheres
    begin, since the rows run in kernel order.

    It is the sum of max(a, 0)² over three axes a, in the frame u = cos x +
    sin y, v = -sin x + cos y, less the row's three sizes: a box's (|u|,
    |v|, |z|), a cylinder's (hypot(u, v), |v|, |z|) and a sphere's
    (sqrt((u² + v²) + z²), |v|, |z|).  A cylinder's or sphere's cos 1 and
    sin 0 make u and v exactly x and y, and an axis less a size of +inf adds
    an exact 0, so each shape's distance is the one its own axes give, bit
    for bit.
    """
    x, y, z = rel
    params = table["params"][:, obs, None]
    cx_sx, cy_sy = params[:2] * x, params[:2] * y
    np.add(cx_sx[0], cy_sy[1], out=x)  # u = cos x + sin y
    np.subtract(cy_sy[0], cx_sx[1], out=y)  # v = cos y - sin x = -sin x + cos y
    if split[0] < split[1]:
        cyl = slice(split[0], split[1])
        np.hypot(x[cyl], y[cyl], out=x[cyl])
    if split[1] < len(x):
        sph = slice(split[1], None)
        norm_sq = x[sph] * x[sph]
        norm_sq += y[sph] * y[sph]
        norm_sq += z[sph] * z[sph]
        np.sqrt(norm_sq, out=x[sph])
    np.abs(rel, out=rel)  # the three axes
    rel -= params[2:]
    np.maximum(rel, 0.0, out=rel)  # max(a, 0)²
    rel *= rel
    excess = x + y
    excess += z
    return excess


def _near_pair_hits(world: WorldModel, centers: np.ndarray,
                    radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (sphere index, obstacle index, (m, k) penetration mask) over the k
    (sphere, obstacle) pairs whose batch bounding boxes overlap, obstacles by
    original index, every shape in one pass.

    Every other pair is separated by more than rounding can close (see the
    module docstring), so it penetrates in no row.
    """
    table = world.kernel_table
    packed = np.ascontiguousarray(centers)
    lower, upper = table["bounds"]
    overlap = (((packed.min(axis=0) - radii[:, None])[:, None] <= upper)
               & ((packed.max(axis=0) + radii[:, None])[:, None] >= lower))
    near = overlap[..., 0] & overlap[..., 1] & overlap[..., 2]
    obs, sph = near.T.nonzero()  # pairs in kernel order
    if not len(obs):
        return sph, obs, np.zeros((len(centers), 0), dtype=bool)
    rel = centers.transpose(2, 1, 0)[:, sph]  # (3, k, m), each component contiguous
    rel -= table["center"].T[:, obs, None]
    excess = _squared_excess(table, obs, rel, obs.searchsorted(table["split"]))
    return sph, table["index"][obs], (excess < (radii * radii)[sph, None]).T


def free_mask(robot: RobotModel, world: WorldModel, configs: np.ndarray,
              stats: dict | None = None) -> np.ndarray:
    """Vectorized free/colliding decision for a batch of configurations (m, n);
    ``stats`` counts them in ``collision_checks`` and the call in ``check_calls``."""
    configs = as_configurations(robot, configs, "config batch")
    if stats is not None:
        stats["collision_checks"] = stats.get("collision_checks", 0) + configs.shape[0]
        stats["check_calls"] = stats.get("check_calls", 0) + 1
    ok = ((configs >= robot.lower) & (configs <= robot.upper)).all(axis=1)
    if not robot.spheres or not len(configs):
        return ok
    centers = sphere_centers_batch(robot, configs)
    ok &= ~_near_pair_hits(world, centers, robot.sphere_radii)[2].any(axis=1)
    ok &= ~(_self_distances_sq(robot, centers) < robot.self_pair_arrays[2]).any(axis=1)
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


def _clearances(robot: RobotModel, world: WorldModel,
                configs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``free_mask`` verdict apart from the joint limits, and its
    clearances (m, S + P): every sphere's distance to the nearest obstacle
    less its radius (inf with no obstacle), then every checked pair's center
    distance less the radius sum.

    Every (sphere, obstacle) pair is computed, with no broadphase, by the
    near-pair kernel's arithmetic, so each verdict is that row's ``free_mask``
    verdict within the limits exactly, whatever rows share the call.  The
    kernel is component-major: per ``_CLEARANCE_ROWS`` rows, one contiguous
    (3, N) copy of their N sphere centers and the (3, O, N) offsets from all
    O obstacles, whose parameters are (O, 1) columns, with no pair index
    (430 KB of offsets at 256 rows of ``shelf_reach``).  Every sphere's
    least squared distance e to any obstacle comes first, then one square root
    gives the clearance sqrt(e) - r and one comparison the verdict e < r².
    That is exact: IEEE square root is correctly rounded, hence monotone, as
    is subtracting r, so min_k(sqrt(e_k) - r) is sqrt(min_k e_k) - r bit for
    bit, and some e_k < r² iff min_k e_k < r².
    """
    radii = robot.sphere_radii
    table = world.kernel_table
    first, second, reach_sq = robot.self_pair_arrays
    centers = sphere_centers_batch(robot, configs)
    m, ns = centers.shape[0], centers.shape[1]
    free, gaps = np.empty(m, dtype=bool), np.empty((m, ns + len(first)))
    for i in range(0, m, _CLEARANCE_ROWS):
        rows = slice(i, i + _CLEARANCE_ROWS)
        block = centers[rows]
        n = len(block) * ns  # column j S + s is sphere s of row j
        points = np.ascontiguousarray(block.transpose(2, 0, 1)).reshape(3, 1, n)
        rel = np.subtract(points, table["center"].T[:, :, None], order="C")
        excess = _squared_excess(table, slice(None), rel, table["split"])
        # Least squared distance to any obstacle, per row and sphere.
        nearest = excess.min(axis=0, initial=np.inf).reshape(-1, ns)
        gaps[rows, :ns] = np.sqrt(nearest) - radii
        dist_sq = _self_distances_sq(robot, block)
        free[rows] = (~(nearest < radii * radii).any(axis=1)
                      & ~(dist_sq < reach_sq).any(axis=1))
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
    with np.errstate(over="ignore"):  # an infinite d / step fails the test below
        ceil = np.ceil(np.array(weighted_norms(robot, delta)) / step)
    if not (ceil < 2.0 ** 63).all():
        raise ContractViolation(f"motion step {step} gives more than 2**63 - 1 samples")
    return ceil.astype(np.int64) + 1


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
    ends = as_configurations(robot, ends, "motion ends")
    starts = as_configurations(robot, starts, "motion starts", 1 if np.ndim(starts) == 1 else 2)
    if starts.shape != ends.shape:
        starts = np.broadcast_to(starts, ends.shape)
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


def _groups_free(robot: RobotModel, world: WorldModel, rows: np.ndarray, ends: tuple,
                 group: np.ndarray, step: float) -> np.ndarray:
    """Per group g in 0 .. group.max(), True iff every ``motion_configs`` row
    of each motion i of g, rows[ends[0]][i] -> rows[ends[1]][i] (``ends`` two
    index arrays or slices), is free: the AND of those motions'
    ``motions_free`` verdicts, with the rows that clearance and lever arms
    prove free never computed.

    A motion's rows are all within the joint limits iff its end rows and its
    second and second-to-last rows are, since its rows are monotone in each
    joint.  One ``_clearances`` call then evaluates the end ``rows``.  Row j
    of a motion of c rows and joint step δ is its start plus j / (c - 1) δ, so
    each sphere center moves at most rate = Σ_l arm[l] |δ_l| / (c - 1) per
    index (``RobotModel.lever_arms``), and a checked pair its spheres' rates
    summed.  Between rows i < j < k, with i and k evaluated and free, each
    center at j is within (j - i) rate of its center at i and (k - j) rate of
    its center at k, which add up to B = (k - i) rate.  Rows i and k prove
    every row between them free when each sphere's and each checked pair's
    clearances satisfy clr(i) + clr(k) > B + 1e-9: every clearance at j is
    then above 5e-10 m, so no pair touches.  The 1e-9 margin is far above the
    FK error and the rounding of ``_samples``' t = j (1 / (c - 1)), about
    1e-16 relative.  An interval that is not proven is cut into k equal index
    pieces, k the ceiling of the largest ratio of B + 1e-9 to clr(i) + clr(k)
    over its spheres and pairs, 2 to min(8, its width) (``_pieces``,
    ``_cuts``); the cuts of all intervals go into one call per level.  A row
    found in collision makes its motion's group False and drops every interval
    of that group.  Touching still counts as free, since each evaluated row's
    verdict is exactly its ``free_mask`` verdict.
    """
    starts, stops = rows[ends[0]], rows[ends[1]]
    delta = stops - starts
    counts = _sample_counts(robot, delta, step)
    inner = np.flatnonzero(counts > 2)  # motions with rows between their ends
    extremes = _samples(starts, delta, counts, np.concatenate([inner, inner]),
                        np.concatenate([np.ones_like(inner), counts[inner] - 2]))
    stacked = np.vstack([rows, extremes])
    inside = ((stacked >= robot.lower) & (stacked <= robot.upper)).all(axis=1)
    verdict = np.ones(group.max() + 1, dtype=bool)
    if not inside.all():  # a row past a limit fails its motions' groups
        verdict[group[~(inside[ends[0]] & inside[ends[1]])]] = False
        verdict[group[np.concatenate([inner, inner])[~inside[len(rows):]]]] = False
    if not robot.spheres or not verdict.any():
        return verdict
    free, gaps = _clearances(robot, world, rows)
    if not free.all():
        verdict[group[~(free[ends[0]] & free[ends[1]])]] = False
    first, second, _ = robot.self_pair_arrays
    arms = np.vstack([robot.lever_arms, robot.lever_arms[first] + robot.lever_arms[second]])
    rate = (np.abs(delta) @ arms.T) / np.maximum(counts - 1, 1)[:, None]
    # Each interval: its motion, end rows and their clearances; hi = lo if its group failed.
    motion, lo, hi = np.arange(len(group)), np.zeros_like(counts), (counts - 1) * verdict[group]
    gap_lo, gap_hi = gaps[ends[0]], gaps[ends[1]]
    while True:
        # clr(i) + clr(k) > B + margin, tested as clr(k) > B + margin - clr(i)
        # in one (intervals, S + P) array: the margin dwarfs the rounding.
        width = hi - lo
        bound = width[:, None] * rate[motion]
        bound += _PROOF_MARGIN
        pending = (width > 1) & ~(bound - gap_lo < gap_hi).all(axis=1)
        if not pending.any():
            return verdict
        # One array at a time, so that each old one is freed before the next.
        motion, lo, hi = motion[pending], lo[pending], hi[pending]
        gap_lo, gap_hi = gap_lo[pending], gap_hi[pending]
        pieces = _pieces(bound[pending], gap_lo + gap_hi, width[pending])
        del bound
        owner, cut = _cuts(lo, hi, pieces)
        cut_motion = motion[owner]
        free, gap_cut = _clearances(robot, world, _samples(starts, delta, counts, cut_motion, cut))
        # Interval i becomes a piece from lo to its first cut, then one from
        # each cut to the next cut or to hi: row right[j] of [cuts, his].
        last = np.cumsum(pieces - 1) - 1  # each interval's last cut
        right = np.arange(1, len(cut) + 1)
        right[last] = len(cut) + np.arange(len(lo))
        right = np.concatenate([last + 2 - pieces, right])
        motion = np.concatenate([motion, cut_motion])
        lo, hi = np.concatenate([lo, cut]), np.concatenate([cut, hi])[right]
        gap_lo = np.concatenate([gap_lo, gap_cut])
        gap_hi = np.concatenate([gap_cut, gap_hi])[right]
        if not free.all():
            verdict[group[cut_motion[~free]]] = False
            hi = np.where(verdict[group[motion]], hi, lo)


def path_free(robot: RobotModel, world: WorldModel, waypoints: np.ndarray,
              step: float) -> bool:
    """True iff every ``motion_configs`` row of the segments between the
    (k, n) ``waypoints`` (a lone waypoint's to itself) is free: one group of
    ``_groups_free``, so the first row found in collision ends the check."""
    waypoints = as_configurations(robot, waypoints, "path")
    ends = slice(0, max(len(waypoints) - 1, 1)), slice(min(len(waypoints) - 1, 1), len(waypoints))
    return bool(_groups_free(robot, world, waypoints, ends, np.zeros(ends[0].stop, int), step)[0])
