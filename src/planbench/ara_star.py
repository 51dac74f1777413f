"""Search-and-sample planning: a joint-space lattice searched by anytime A*.

Configurations are discretized per joint at the robot's declared resolutions;
motion primitives are integer cell displacements applied to lattice states.
The search runs weighted A* once per entry of a strictly decreasing inflation
schedule, reusing cost-to-come values and an inconsistent-state list between
iterations, so every incumbent published at inflation eps costs at most
eps times the optimal lattice cost.  Lattice edges are collision checked
lazily, a few states per call, only when a candidate through them reaches
the top of the open list; the search's expansions and paths are those of
the search that checks every move when its source is expanded.  Each batch
of edges is checked by one ``motions_free`` call, as RRT-Connect's are.

Queries are answered by a forward search over half the budget followed, if
needed, by a backward search (roles of start and goal swapped, waypoints
reversed); off-lattice endpoints are joined to the lattice by explicitly
validated junction motions, never by loosening tolerances.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .collision import check_motion, motions_free
from .core import (FAILURE, SOLVED_BACKWARD, SOLVED_FORWARD, PlannerResult, Query,
                   run_planner)
from .errors import ValidationError, field_eq, finite_array, integer, parse_mapping, real
from .robot import RobotModel, as_configuration, as_configurations, config_distance, weighted_norms
from .world import GoalSpec, WorldModel

# Sentinel lattice node for the off-lattice goal configuration reached by the
# adaptive goal-snap primitive.  The empty tuple cannot be a real state
# (robots have >= 1 joint) and sorts before every real state.
GOAL_NODE: tuple[int, ...] = ()

_TIE = 1e-12
# The top of an empty heap: it keys above every entry.
_EMPTY = (math.inf,)

# Share of the query budget granted to the forward attempt; the backward
# attempt runs on the remainder.
BUDGET_SPLIT = 0.5

# States resolved per collision call: the state whose candidate tops OPEN and
# the next states in OPEN whose candidates await validation.
LOOKAHEAD = 4
# States per collision call when an iteration's closed states are resolved.
_SETTLE_STATES = 64


@dataclass(frozen=True, eq=False)
class MotionPrimitiveSet:
    """Integer cell displacements plus the adaptive goal-snap radius.

    The set is closed under negation, so every backward lattice edge is a
    valid forward edge reversed.  A repeated vector is kept once, where it
    first appears.
    """

    primitives: np.ndarray  # (P, n) integers
    snap_radius: float

    def __post_init__(self):
        # A row that is no sequence, rows of unequal lengths and an empty set
        # raise TypeError or ValueError here.
        try:
            rows = dict.fromkeys(tuple(integer(v, "primitive vector entry") for v in row)
                                 for row in self.primitives)
            prim = np.array(list(rows), dtype=int).reshape(len(rows), -1)
        except (TypeError, ValueError) as exc:
            raise ValidationError("primitives must be a (P, n) integer array") from exc
        for row in rows:
            if not any(row) or tuple(-v for v in row) not in rows:
                raise ValidationError(f"primitive {row} must be nonzero, with its negation")
        prim.flags.writeable = False
        object.__setattr__(self, "primitives", prim)
        object.__setattr__(self, "snap_radius", real(self.snap_radius, "snap_radius"))
        if self.snap_radius < 0:
            raise ValidationError("snap_radius must be >= 0")

    __eq__ = field_eq


@dataclass(frozen=True)
class AraParams:
    """Inflation schedule and search knobs.

    The schedule must be non-empty, strictly decreasing, finite and >= 1
    throughout.
    """

    epsilon_schedule: tuple[float, ...] = (3.0, 2.0, 1.5, 1.0)
    edge_step: float = 0.05

    def __post_init__(self):
        schedule = tuple(finite_array(self.epsilon_schedule, "epsilon_schedule",
                                      (None,)).tolist())
        object.__setattr__(self, "epsilon_schedule", schedule)
        if not schedule:
            raise ValidationError("epsilon_schedule must be non-empty")
        if not all(e >= 1.0 for e in schedule):
            raise ValidationError("every inflation factor must be >= 1")
        if any(b >= a for a, b in zip(schedule, schedule[1:])):
            raise ValidationError("epsilon_schedule must be strictly decreasing")
        object.__setattr__(self, "edge_step", real(self.edge_step, "edge_step"))
        if self.edge_step <= 0:
            raise ValidationError("edge_step must be positive")


@dataclass
class SearchStats:
    """Per-inflation record of one anytime search: iteration i searched at
    ``epsilon_schedule[i]``, the schedule's prefix as long as these lists.
    Counters summed over the run go to ``ara_search``'s ``stats`` dict."""

    expansions_per_epsilon: list[int] = field(default_factory=list)
    incumbent_costs: list[float | None] = field(default_factory=list)


class LatticeCache:
    """Memo of collision-checked edges, shared across inflation iterations
    and across the forward and backward attempts of one query.

    The search fills it lazily, only with the edges it resolves.  ``edges``
    maps an ordered state pair to its verdict; ``snap`` maps a (state, goal
    configuration bytes) pair to the verdict of that state's goal-snap edge,
    since the two attempts snap to different configurations.
    """

    def __init__(self):
        self.edges: dict = {}
        self.snap: dict = {}


def lattice_max_coords(robot: RobotModel) -> np.ndarray:
    """Largest valid cell index per joint."""
    span = robot.upper - robot.lower
    return np.floor(span / robot.resolutions + 1e-9).astype(int)


def discretize(robot: RobotModel, q) -> tuple[int, ...]:
    """Nearest lattice state; decoded values stay within joint limits."""
    q = as_configuration(robot, q)
    coords = np.rint((q - robot.lower) / robot.resolutions).astype(int)
    coords = np.clip(coords, 0, lattice_max_coords(robot))
    return tuple(int(c) for c in coords)


def decode(robot: RobotModel, state) -> np.ndarray:
    """Configuration at a lattice state's cell center; a (k, n) array of
    states decodes row by row."""
    return robot.lower + np.asarray(state, dtype=float) * robot.resolutions


def default_primitives(robot: RobotModel, extra_vectors=(),
                       snap_radius: float | None = None) -> MotionPrimitiveSet:
    """The 2n single-joint one-cell moves, plus declared extras.

    Extra vectors are added together with their negations, each once.  When
    no snap radius is given it defaults to twice the largest single-joint
    move cost.
    """
    n = robot.dof
    rows = [tuple(s if i == j else 0 for i in range(n)) for j in range(n) for s in (1, -1)]
    for vec in extra_vectors:
        row = tuple(vec)
        if len(row) != n:
            raise ValidationError(
                f"primitive vector {row} has length {len(row)}, expected {n}")
        rows += [row, (-v for v in row)]  # negated after MotionPrimitiveSet checks row
    if snap_radius is None:
        snap_radius = 2.0 * np.max(np.sqrt(robot.weights) * robot.resolutions)
    return MotionPrimitiveSet(primitives=rows, snap_radius=snap_radius)


_PRIMITIVES_KEYS = {"primitives", "snap_radius"}


def parse_primitives(text: str, robot: RobotModel) -> MotionPrimitiveSet:
    """Parse a primitives document: extra vectors plus the snap radius."""
    return parse_mapping(text, "primitives", _PRIMITIVES_KEYS, lambda doc: default_primitives(
        robot, doc.get("primitives") or (), doc.get("snap_radius")))


def heuristic(state: tuple[int, ...], goal: GoalSpec, robot: RobotModel) -> float:
    """Metric distance from the decoded state to the goal's box.

    The distance is taken to the closest point of the box, so it is 0 on
    every state that satisfies the goal, and it is consistent with the edge
    costs because edges are priced by the same metric.
    """
    if state == GOAL_NODE:
        return 0.0
    q = decode(robot, state)
    return config_distance(robot, q, np.minimum(np.maximum(q, goal.lower), goal.upper))


def successors(state: tuple[int, ...], primitives: MotionPrimitiveSet, robot: RobotModel,
               goal: GoalSpec, max_coords: np.ndarray
               ) -> list[tuple[tuple[int, ...], float, float]]:
    """Lattice moves from a state as (state, cost, heuristic), unvalidated.

    One move per primitive that stays inside the lattice (``max_coords`` is
    ``lattice_max_coords``), in primitive order, then the off-lattice move
    (GOAL_NODE, distance, 0.0) when the goal's target lies within the snap
    radius.  Nothing is collision checked here.  Every length comes from one
    ``weighted_norms`` call, so costs equal ``config_distance`` and
    heuristics ``heuristic``, bit for bit.
    """
    q = decode(robot, state)
    coords = np.asarray(state, dtype=int) + primitives.primitives
    coords = coords[((coords >= 0) & (coords <= max_coords)).all(axis=1)]
    ends = decode(robot, coords)
    rows = [ends - q, ends - np.minimum(np.maximum(ends, goal.lower), goal.upper)]
    if goal.target is not None:
        rows.append((q - goal.target)[None])
    dist = weighted_norms(robot, np.concatenate(rows))
    k = len(ends)
    moves = list(zip(map(tuple, coords.tolist()), dist[:k], dist[k:2 * k]))
    if goal.target is not None and dist[-1] <= primitives.snap_radius:
        moves.append((GOAL_NODE, dist[-1], 0.0))
    return moves


def ara_search(start_state: tuple[int, ...], goal: GoalSpec,
               primitives: MotionPrimitiveSet, params: AraParams,
               robot: RobotModel, world: WorldModel,
               deadline: float, *, cache: LatticeCache | None = None,
               stats: dict | None = None) -> tuple[list[np.ndarray] | None, SearchStats]:
    """Anytime inflated A* over the lattice induced by the primitives.

    Runs one weighted-A* iteration per schedule entry, carrying cost-to-come
    values and inconsistent states forward.  An iteration terminates once the
    smallest open key is no better than the best goal cost found, which
    certifies the eps-suboptimality bound for that iteration's incumbent.
    The search returns the last incumbent as its chain's waypoints, or None
    when OPEN empties or the deadline hits before it finds one.

    Edges are evaluated lazily.  An expansion pushes each move as an
    unvalidated candidate under the key a validated relaxation would get.
    When a candidate reaches the top of OPEN, its state and the next
    ``LOOKAHEAD - 1`` states in OPEN that await validation are resolved: all
    their candidate edges go to one collision call, and each state's valid
    candidates are then applied in generation order.  OPEN is kept as two
    heaps, its validated entries and its candidate entries, and its top is
    the smaller of their tops; the states to resolve are read from the
    candidates' heap alone.  Each iteration ends by resolving the closed
    states' candidates, which decide ``reopened`` and the inconsistent
    states; the others stay in OPEN, keyed at the next eps, and after the
    last iteration only the returned chain's are resolved.
    Unless the deadline cuts it short, the search expands, publishes, reopens
    and returns exactly what the search that validates every move at
    expansion would; only ``collision_checks`` differs.  ``stats`` also
    counts the edges checked (``edges_resolved``), found blocked
    (``edges_blocked``) and the closed states reopened (``reopened``).  The
    ``time.perf_counter`` deadline (``math.inf`` for none) is polled after
    every expansion and every collision call.

    Tie-breaking is deterministic: equal keys prefer larger cost-to-come,
    then lexicographically smaller states.
    """
    goal_config = goal.target  # the goal-snap target; regions have none
    snap_target = None if goal_config is None else goal_config.tobytes()
    if cache is None:
        cache = LatticeCache()
    stats = {} if stats is None else stats
    search_stats = SearchStats()
    max_coords = lattice_max_coords(robot)

    g: dict = {start_state: 0.0}
    parent: dict = {start_state: None}
    best_cost = math.inf
    best_node = None
    # Unvalidated candidates per state, as (cost-to-come, parent, sequence)
    # in generation order.  A heap entry is (key, -cost, state, sequence):
    # sequence 0 marks a validated entry, live while its cost is g[state];
    # a candidate's entry is live until its state is resolved.
    pending: dict = {}
    sequence = 0

    # Heuristic per state: every state that gets a key is the start or was
    # generated by ``successors``, which prices its heuristic.
    h: dict = {start_state: heuristic(start_state, goal, robot)}

    # inside[j][c]: cell c of joint j, by ``decode``'s arithmetic, is in the
    # goal box.  A state is a goal iff all its cells are (GOAL_NODE has none).
    cells = np.arange(max_coords.max() + 1.0) * robot.resolutions[:, None]
    cells += robot.lower[:, None]
    inside = ((cells >= goal.lower[:, None]) & (cells <= goal.upper[:, None])).tolist()

    def edge_free(a, b) -> bool | None:
        """The cached verdict of edge a -> b, None when unchecked."""
        if b == GOAL_NODE:
            return cache.snap.get((a, snap_target))
        return cache.edges.get((a, b) if a <= b else (b, a))

    def resolve(states) -> None:
        """Validate the candidates of ``states`` in one collision call and
        apply each state's valid ones in generation order."""
        unknown: dict = {}
        for s in states:
            for _, p, _ in pending[s]:
                if edge_free(p, s) is None:
                    unknown[p, s] = None
        if unknown:
            # Endpoints, sources first; a GOAL_NODE row takes the goal config.
            points = [p for p, _ in unknown] + [s for _, s in unknown]
            q = decode(robot, [x or points[0] for x in points])
            if snap_target is not None:
                q[[x == GOAL_NODE for x in points]] = goal_config
            free = motions_free(robot, world, q[:len(unknown)], q[len(unknown):],
                                params.edge_step, stats=stats)
            stats["edges_resolved"] = stats.get("edges_resolved", 0) + len(free)
            stats["edges_blocked"] = stats.get("edges_blocked", 0) + int((~free).sum())
            for (p, s), ok in zip(unknown, free.tolist()):
                if s == GOAL_NODE:
                    cache.snap[p, snap_target] = ok
                else:
                    cache.edges[(p, s) if p <= s else (s, p)] = ok
        for s in states:
            improved = False
            for t, p, _ in pending.pop(s):
                if t < g.get(s, math.inf) - _TIE and edge_free(p, s):
                    g[s] = t
                    parent[s] = p
                    improved = True
            if not improved:
                continue
            if s in closed:
                if s not in incons:
                    incons.add(s)
                    stats["reopened"] = stats.get("reopened", 0) + 1
            else:
                heapq.heappush(heap, (g[s] + eps * h[s], -g[s], s, 0))

    def out_of_time() -> bool:
        return time.perf_counter() >= deadline

    def settle(states: list) -> None:
        """Resolve ``states`` a chunk per call while time remains."""
        for k in range(0, len(states), _SETTLE_STATES):
            if out_of_time():
                return
            resolve(states[k:k + _SETTLE_STATES])

    def live(entry) -> bool:
        _, neg_t, s, seq = entry
        if seq:
            return s in pending and seq >= pending[s][0][2]
        return -neg_t == g[s]

    def awaiting_validation() -> list:
        """The top entry's state and the next states in OPEN with pending
        candidates, up to LOOKAHEAD, in OPEN's order, read from ``waiting``,
        OPEN's candidate entries; its validated entries are not popped.

        These are the states of the first live candidate entries, which are
        those of the first live entries in OPEN: a pending state's validated
        entry keys above its candidates', since each candidate was generated
        below g[s] - 1e-12, g[s] changes only when its candidates are
        resolved, and adding eps h[s] to both keeps them apart while keys
        stay below 2**12.  The popped candidate entries all belong to the
        batch's states, so they are dead after the call.
        """
        batch: dict = {}
        while waiting and len(batch) < LOOKAHEAD:
            entry = heapq.heappop(waiting)
            if live(entry):
                batch[entry[2]] = None
        return list(batch)

    incons: set = set()
    # OPEN: validated entries in ``heap``, candidate entries in ``waiting``.
    heap, waiting = [(0.0, -0.0, start_state, 0)], []
    for eps in params.epsilon_schedule:
        if out_of_time():  # also after an iteration or settle cut short
            break
        # OPEN and INCONS keyed at eps; a candidate's key is its validation's.
        rekeyed = [(-neg_t + eps * h[s], neg_t, s, seq)
                   for _, neg_t, s, seq in filter(live, heap + waiting)]
        heap = [entry for entry in rekeyed if not entry[3]]
        heap += [(g[s] + eps * h[s], -g[s], s, 0) for s in incons]
        waiting = [entry for entry in rekeyed if entry[3]]
        heapq.heapify(heap)
        heapq.heapify(waiting)
        closed, incons = set(), set()
        expansions = 0
        while True:
            while heap and not live(heap[0]):
                heapq.heappop(heap)  # stale entry
            while waiting and not live(waiting[0]):
                heapq.heappop(waiting)
            entry = min(heap[0] if heap else _EMPTY, waiting[0] if waiting else _EMPTY)
            if best_cost <= entry[0] + _TIE:
                break  # bound certified for this iteration, or OPEN empty
            s = entry[2]
            if s in pending:
                resolve(awaiting_validation())
            else:
                heapq.heappop(heap)
                if s in closed:
                    continue
                closed.add(s)
                expansions += 1
                if all(row[c] for row, c in zip(inside, s)):
                    if g[s] < best_cost:
                        best_cost = g[s]
                        best_node = s
                    continue  # terminal: paths through a goal cannot improve it
                for nxt, cost, h_nxt in successors(s, primitives, robot, goal,
                                                   max_coords):
                    tentative = g[s] + cost
                    if tentative >= g.get(nxt, math.inf) - _TIE:
                        continue  # could not lower g[nxt] even if valid
                    if (cache.edges.get((s, nxt) if s <= nxt else (nxt, s)) if nxt
                            else cache.snap.get((s, snap_target))) is False:
                        continue  # edge_free(s, nxt) is False: known blocked
                    sequence += 1
                    pending.setdefault(nxt, []).append((tentative, s, sequence))
                    h[nxt] = h_nxt
                    if nxt not in closed:  # a closed state only joins incons
                        heapq.heappush(waiting, (tentative + eps * h_nxt, -tentative,
                                                 nxt, sequence))
            if out_of_time():  # polled after every expansion and resolution
                break
        search_stats.expansions_per_epsilon.append(expansions)
        search_stats.incumbent_costs.append(
            None if best_node is None else best_cost)
        # The closed states' candidates decide ``reopened`` and INCONS.
        settle([s for s in pending if s in closed])

    if best_node is None:
        return None, search_stats
    chain = [best_node]
    while True:
        if chain[-1] in pending:
            resolve([chain[-1]])
        if parent[chain[-1]] is None:
            break
        chain.append(parent[chain[-1]])
    chain.reverse()
    return [goal_config.copy() if s == GOAL_NODE else decode(robot, s)
            for s in chain], search_stats


def plan_ara_star(robot: RobotModel, world: WorldModel, query: Query,
                  primitives: MotionPrimitiveSet, params: AraParams) -> PlannerResult:
    """Forward-then-backward anytime lattice planning under one budget.

    The forward search (start toward goal) gets ``BUDGET_SPLIT`` of the
    budget; on failure the backward search plans from the query's goal
    representative (``screen_query``) to the start (config goal with half-cell
    tolerances) and its waypoints are reversed, so the returned path always
    runs start to goal.  Both searches share one ``LatticeCache``.
    """
    as_configurations(robot, primitives.primitives, "primitives")
    stats = dict.fromkeys(("check_calls", "collision_checks", "edges_blocked",
                           "edges_resolved", "expansions", "expansions_backward",
                           "expansions_forward", "reopened"), 0)
    cache = LatticeCache()
    start = query.start

    def attempt(source: np.ndarray, goal: GoalSpec, deadline: float, label: str):
        """One directed search: snap ``source`` onto the lattice, search, and
        return waypoints beginning exactly at ``source`` (or None)."""
        if time.perf_counter() >= deadline:
            return None
        state = discretize(robot, source)
        cell = decode(robot, state)
        prefix = []
        if not np.array_equal(cell, source):
            if not check_motion(robot, world, source, cell, params.edge_step, stats=stats):
                return None
            prefix = [source]
        waypoints, search_stats = ara_search(state, goal, primitives, params, robot, world,
                                             deadline, cache=cache, stats=stats)
        stats[f"expansions_{label}"] = sum(search_stats.expansions_per_epsilon)
        stats["expansions"] += stats[f"expansions_{label}"]
        return None if waypoints is None else prefix + waypoints

    def search(representative: np.ndarray, t0: float):
        forward = attempt(start, query.goal, t0 + query.time_budget * BUDGET_SPLIT,
                          "forward")
        if forward is not None:
            return SOLVED_FORWARD, np.array(forward)
        back_goal = GoalSpec.config_goal(start, tolerance=robot.resolutions / 2.0)
        backward = attempt(representative, back_goal, t0 + query.time_budget, "backward")
        if backward is None:
            return FAILURE, None
        waypoints = backward[::-1]
        if not np.array_equal(waypoints[0], start):
            # Join the true start to the lattice with a validated motion.
            if not check_motion(robot, world, start, waypoints[0], params.edge_step,
                                stats=stats):
                return FAILURE, None
            waypoints.insert(0, start)
        return SOLVED_BACKWARD, np.array(waypoints)

    return run_planner(robot, world, query, stats, search)
