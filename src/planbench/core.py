"""Shared planner elements: query, path, result, planning frame and validation.

Both planners answer a ``Query`` through ``run_planner``, one frame that
screens the query, answers a start already in the goal, runs the planner's
search and builds the one ``PlannerResult``.  Its ``planning_time`` is read
from one clock and never exceeds the budget by more than the 0.05 s grace
period (the clock is polled at loop boundaries, not preemptively).
A start, goal box or path of the wrong dimension raises ContractViolation
(``robot.as_configurations``) before any verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .collision import check_config, free_mask, path_free
from .errors import ValidationError, field_eq, finite_array, real
from .robot import RobotModel, as_configuration, as_configurations, weighted_norms
from .world import GoalSpec, Scenario, WorldModel

BUDGET_GRACE = 0.05  # seconds

OK = "ok"
START_IN_COLLISION = "start_in_collision"
GOAL_IN_COLLISION = "goal_in_collision"

SOLVED_FORWARD = "solved-forward"
SOLVED_BACKWARD = "solved-backward"
FAILURE = "failure"
UNSOLVABLE = "unsolvable"

# Uniform draws, after the center, that stand for a region goal.
_GOAL_DRAWS = 32


@dataclass(frozen=True, eq=False)
class Query:
    """The planning problem: start configuration, goal region, time budget."""

    start: np.ndarray
    goal: GoalSpec
    time_budget: float

    def __post_init__(self):
        object.__setattr__(self, "start", finite_array(self.start, "start", (None,)))
        object.__setattr__(self, "time_budget", real(self.time_budget, "time budget"))
        if self.time_budget <= 0:
            raise ValidationError("time budget must be positive")

    __eq__ = field_eq


@dataclass(frozen=True, eq=False)
class Path:
    """A polyline in configuration space; validity holds at the producing
    planner's edge step, not continuously."""

    waypoints: np.ndarray  # (k, n)

    def __post_init__(self):
        wp = finite_array(self.waypoints, "path waypoints", (None, None))
        if wp.shape[0] < 1:
            raise ValidationError("path requires a (k >= 1, n) waypoint array")
        object.__setattr__(self, "waypoints", wp)

    __eq__ = field_eq

    def __len__(self) -> int:
        return self.waypoints.shape[0]


@dataclass(frozen=True)
class PlannerResult:
    """Outcome of one planning attempt plus timing and counter statistics.

    ``status`` is ``SOLVED_FORWARD`` or ``SOLVED_BACKWARD`` with a path,
    ``FAILURE`` when the budget ran out, or ``UNSOLVABLE`` with the
    ``validate_query`` verdict as ``reason``.
    """

    status: str
    planning_time: float
    stats: dict = field(default_factory=dict)
    path: Path | None = None
    reason: str | None = None  # unsolvable results only


def goal_satisfied(goal: GoalSpec, q) -> bool:
    """Membership in the goal's closed box."""
    q = np.asarray(q, dtype=float)
    return bool(np.all(q >= goal.lower) and np.all(q <= goal.upper))


def screen_query(robot: RobotModel, world: WorldModel,
                 query: Query) -> tuple[str, np.ndarray | None]:
    """The query's ``validate_query`` verdict and, when it is ``ok``, the
    configuration that stands for the goal, after the start's check.

    A config goal is represented by its target, checked: the goal collides
    when the target collides or leaves the joint limits.  A region goal is
    represented by the first free configuration among the center of the
    region clipped to the joint limits and 32 uniform draws over it from the
    fixed seed 0: the goal collides when all 33 collide or the region misses
    the joint limits.  Either way the candidates are checked in one
    ``free_mask`` call.  The representative is a property of the query:
    every planner and every seed gets the same one.
    """
    goal = query.goal
    as_configuration(robot, goal.lower, "goal")
    if not check_config(robot, world, query.start):
        return START_IN_COLLISION, None
    if goal.type == "config":
        candidates = goal.target[None]
    else:
        lo, hi = goal.limited_box(robot)
        if np.any(lo > hi):
            return GOAL_IN_COLLISION, None
        draws = np.random.default_rng(0).uniform(lo, hi, size=(_GOAL_DRAWS, robot.dof))
        candidates = np.vstack([(lo + hi) / 2.0, draws])
    free = np.flatnonzero(free_mask(robot, world, candidates))
    if not free.size:
        return GOAL_IN_COLLISION, None
    return OK, candidates[free[0]]


def run_planner(robot: RobotModel, world: WorldModel, query: Query, stats: dict,
                search) -> PlannerResult:
    """Answer ``query`` under one clock started here, with the planner's
    ``stats`` dict: ``UNSOLVABLE`` with the ``screen_query`` verdict as
    ``reason``, the one-waypoint ``SOLVED_FORWARD`` path for a start inside
    the goal, or else the (status, waypoints or None) that
    ``search(goal representative, t0)`` returns."""
    t0 = time.perf_counter()
    verdict, representative = screen_query(robot, world, query)
    if verdict != OK:
        status, waypoints = UNSOLVABLE, None
    elif goal_satisfied(query.goal, query.start):
        status, waypoints = SOLVED_FORWARD, query.start[None]
    else:
        status, waypoints = search(representative, t0)
    return PlannerResult(status, time.perf_counter() - t0, stats,
                         None if waypoints is None else Path(waypoints),
                         None if verdict == OK else verdict)


def validate_query(robot: RobotModel, world: WorldModel, query: Query) -> str:
    """Detect queries that are unsolvable because an endpoint collides.

    The start is checked itself, and the goal collides when it has no
    representative in ``screen_query``: when a config goal's target
    collides, or a region goal's center and all 32 draws do.  A planner that
    gets ``ok`` here plans toward a free representative, so its status is a
    solved one or ``failure``, never ``unsolvable``.
    """
    return screen_query(robot, world, query)[0]


def path_cost(robot: RobotModel, path: Path) -> float:
    """Sum of consecutive waypoint distances, added left to right (``sum``
    compensates from Python 3.12 on); a single waypoint costs 0."""
    deltas = np.diff(as_configurations(robot, path.waypoints, "path"), axis=0)
    total = 0.0
    for length in weighted_norms(robot, deltas):
        total += length
    return total


def validate_path(robot: RobotModel, world: WorldModel, query: Query,
                  path: Path, step: float) -> bool:
    """True iff the path starts exactly at the query start, ends inside the
    goal, and every segment (a lone waypoint's to itself) passes discretized
    collision checking at ``step``.

    The verdict is that of checking every sampled configuration with
    ``free_mask``.  ``collision.path_free`` gives it as the clearance proof's
    verdict for one group, the path's segments, and checks only the
    waypoints and the samples it cannot prove free: a run of k sample steps
    between two checked ones is skipped when their clearances exceed, by
    1e-9 (far above rounding), k times how far the lever arms let any sphere
    move per step.  Certifying the continuous sweep is ROADMAP item 2.
    """
    wp = as_configurations(robot, path.waypoints, "path")
    as_configuration(robot, query.goal.lower, "goal")
    if not np.array_equal(wp[0], as_configuration(robot, query.start, "start")):
        return False
    if not goal_satisfied(query.goal, wp[-1]):
        return False
    return path_free(robot, world, wp, step)


def query_from_scenario(scenario: Scenario, goal_tolerance_default: float = 0.0) -> Query:
    """Build the planning query, filling in unspecified config-goal tolerances."""
    goal = scenario.goal
    if goal.type == "config" and goal.tolerance is None and goal_tolerance_default > 0:
        tol = np.full(scenario.robot.dof, float(goal_tolerance_default))
        goal = GoalSpec.config_goal(goal.target, tol)
    return Query(start=scenario.start, goal=goal, time_budget=scenario.time_budget)
