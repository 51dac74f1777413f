"""RRT-Connect: two trees grown from start and goal with uniform sampling.

Each iteration samples the configuration space uniformly, extends one tree
toward the sample by at most ``step_eta`` (weighted distance), then greedily
connects the other tree toward the freshly added node; tree roles swap every
iteration.  Solutions are reported with direction "forward" always: the
bidirectional growth is internal.

The planner runs these iterations in speculative batches.  Samples depend
only on the random stream, not on the trees, so the extends of the next
``BATCH`` iterations are steered against the current trees and all of their
motions are checked in one collision call, together with the first step of
the pending connect.  Results are then taken in iteration order up to and
including the first extend that is not trapped; the samples after it stay
queued and are steered again against the grown trees.  Most extends and most
first connect steps are trapped, so most batches commit several iterations,
and the trees, paths and counters are exactly those of the sequential loop.
Only ``collision_checks`` differs: it also counts the configurations of the
speculative motions whose results were discarded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .collision import motions_free
from .core import (FORWARD, OK, PlannerResult, Path, Query, goal_representative,
                   goal_satisfied, validate_query)
from .errors import ContractViolation, ValidationError
from .robot import RobotModel, as_configuration, config_distance
from .world import WorldModel

REACHED = "reached"
ADVANCED = "advanced"
TRAPPED = "trapped"

_ZERO_DISTANCE = 1e-12
# Extends checked speculatively per collision call.  A larger batch spreads
# the fixed cost of a call over more motions but wastes more of the
# configurations checked after the first extend that is not trapped.
BATCH = 4


@dataclass(frozen=True)
class RrtParams:
    """Tuning knobs; defaults are desk-scale, reported in benchmark output."""

    step_eta: float = 0.5
    edge_step: float = 0.05
    max_iterations: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.edge_step > 0:
            raise ValidationError("edge_step must be positive")
        if self.step_eta < self.edge_step:
            raise ValidationError("step_eta must be >= edge_step")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValidationError("max_iterations must be a positive integer")


class Tree:
    """A rooted tree of configurations backed by growable numpy buffers.

    Node 0 is the root and is its own parent.  Every non-root edge was
    validated at insertion time, sampled as ``check_motion`` samples it.
    """

    def __init__(self, robot: RobotModel, root):
        self.robot = robot
        self._capacity = 64
        self._configs = np.empty((self._capacity, robot.dof))
        self._parents = np.empty(self._capacity, dtype=np.int64)
        self.size = 0
        self.add(as_configuration(robot, root), parent=0)

    @property
    def nodes(self) -> np.ndarray:
        return self._configs[: self.size]

    @property
    def parents(self) -> np.ndarray:
        return self._parents[: self.size]

    def config(self, index: int) -> np.ndarray:
        return self._configs[index].copy()

    def add(self, q: np.ndarray, parent: int) -> int:
        if self.size == self._capacity:
            self._capacity *= 2
            self._configs = np.vstack(
                [self._configs, np.empty_like(self._configs)])
            self._parents = np.concatenate(
                [self._parents, np.empty_like(self._parents)])
        index = self.size
        self._configs[index] = q
        self._parents[index] = parent
        self.size += 1
        return index

    def branch(self, index: int) -> list[int]:
        """Node indices from the root to ``index`` inclusive."""
        chain = [index]
        while self._parents[chain[-1]] != chain[-1]:
            chain.append(int(self._parents[chain[-1]]))
        chain.reverse()
        return chain


def nearest(tree: Tree, targets) -> np.ndarray:
    """Index of the tree node closest to each row of ``targets`` (k, n) in
    the weighted metric.

    Implemented as an exact linear scan; ties break to the lowest index.
    """
    if tree.size < 1:
        raise ContractViolation("nearest requires a non-empty tree")
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] != tree.robot.dof:
        raise ContractViolation(
            f"targets have shape {targets.shape}, expected (k, {tree.robot.dof})")
    diff = tree.nodes[None, :, :] - targets[:, None, :]
    return np.argmin(np.sum(diff * diff * tree.robot.weights, axis=2), axis=1)


def _steps(jobs, params: RrtParams, robot: RobotModel, world: WorldModel,
           stats: dict | None = None) -> list[list]:
    """Steer each (tree, target) job and check every motion in one call.

    Returns, per job, [nearest node index, new configuration, reached,
    free].  The new configuration is the target itself when it lies within
    ``step_eta`` (reached), else the point at distance ``step_eta`` toward
    it; it is None, with free True, when the target coincides with its
    nearest node.
    """
    steps: list = [None] * len(jobs)
    motions = []  # (job, nearest node, new configuration)
    for tree in dict.fromkeys(tree for tree, _ in jobs):
        members = [i for i, (t, _) in enumerate(jobs) if t is tree]
        near = nearest(tree, np.array([jobs[i][1] for i in members]))
        for i, k in zip(members, near.tolist()):
            q_near, target = tree.nodes[k], jobs[i][1]
            d = config_distance(robot, q_near, target)
            if d <= _ZERO_DISTANCE:
                steps[i] = [k, None, True, True]
                continue
            if d <= params.step_eta:
                q_new, reached = target, True
            else:
                q_new = q_near + (params.step_eta / d) * (target - q_near)
                reached = False
            steps[i] = [k, q_new, reached, None]
            motions.append((i, q_near, q_new))
    if motions:
        free = motions_free(robot, world, np.array([m[1] for m in motions]),
                            np.array([m[2] for m in motions]), params.edge_step,
                            stats=stats)
        for (i, _, _), ok in zip(motions, free.tolist()):
            steps[i][3] = ok
    return steps


def extend(tree: Tree, target, params: RrtParams, robot: RobotModel,
           world: WorldModel, stats: dict | None = None) -> tuple[str, int | None]:
    """One bounded step of the nearest node toward ``target``.

    Returns (REACHED, node) when the target itself was added (or already
    present), (ADVANCED, node) for a clamped step of length step_eta, and
    (TRAPPED, None) when the motion is blocked; trapped leaves the tree
    unchanged.
    """
    target = as_configuration(robot, target)
    near_index, q_new, reached, free = _steps([(tree, target)], params, robot,
                                              world, stats=stats)[0]
    if q_new is None:
        return REACHED, near_index  # degenerate: do not duplicate the node
    if not free:
        return TRAPPED, None
    index = tree.add(q_new, near_index)
    return (REACHED if reached else ADVANCED), index


def connect(tree: Tree, target, params: RrtParams, robot: RobotModel,
            world: WorldModel, stats: dict | None = None,
            deadline: float | None = None) -> tuple[str, int | None]:
    """Repeatedly extend toward a fixed target until reached or trapped.

    On TRAPPED the second element is the last advanced node, if any.
    """
    last = None
    while True:
        status, index = extend(tree, target, params, robot, world, stats=stats)
        if status == TRAPPED:
            return TRAPPED, last
        last = index
        if status == REACHED:
            return REACHED, index
        if deadline is not None and time.perf_counter() >= deadline:
            return TRAPPED, last


def _join_paths(start_tree: Tree, start_meet: int, goal_tree: Tree,
                goal_meet: int) -> np.ndarray:
    """Start-tree branch root->meet followed by the reversed goal branch."""
    first = [start_tree.config(i) for i in start_tree.branch(start_meet)]
    second = [goal_tree.config(i) for i in reversed(goal_tree.branch(goal_meet))]
    if second and np.array_equal(first[-1], second[0]):
        second = second[1:]  # the meet configuration appears once
    return np.array(first + second)


def plan_rrt_connect(robot: RobotModel, world: WorldModel, query: Query,
                     params: RrtParams) -> PlannerResult:
    """Plan with RRT-Connect under the query's wall-clock budget.

    Deterministic given (query, params): the seed drives all sampling, and
    the goal tree grows from the query's ``goal_representative``.  The
    iterations run in speculative batches (see the module docstring) with
    the trees, path and counters of the sequential loop, except
    ``collision_checks``, which also counts the speculative configurations.
    """
    t0 = time.perf_counter()
    deadline = t0 + query.time_budget
    stats = {"iterations": 0, "collision_checks": 0, "nodes": 0}

    verdict = validate_query(robot, world, query)
    if verdict != OK:
        return PlannerResult.unsolvable(verdict, time.perf_counter() - t0, stats)
    if goal_satisfied(query.goal, query.start):
        path = Path(query.start[None, :].copy())
        return PlannerResult.solved(path, FORWARD, time.perf_counter() - t0, stats)

    # Iteration i (counted from 0) extends trees[i % 2] toward sample i and
    # then connects trees[(i + 1) % 2] toward the new node.
    trees = (Tree(robot, query.start),
             Tree(robot, goal_representative(robot, world, query.goal)))
    rng = np.random.default_rng(params.seed)
    queue = np.empty((0, robot.dof))  # samples of the iterations not yet run
    pending = None  # node added by the last extend; its connect has not begun

    while True:
        count = BATCH
        if params.max_iterations is not None:
            count = min(count, params.max_iterations - stats["iterations"])
        if pending is None and (count == 0 or time.perf_counter() >= deadline):
            break
        if len(queue) < count:
            queue = np.vstack([queue, rng.uniform(
                robot.lower, robot.upper, size=(count - len(queue), robot.dof))])
        turn = stats["iterations"] % 2
        jobs = [(trees[(turn + p) % 2], queue[p]) for p in range(count)]
        if pending is not None:
            target = trees[1 - turn].config(pending)
            jobs.insert(0, (trees[turn], target))
        steps = _steps(jobs, params, robot, world, stats=stats)

        if pending is not None:
            new_index, pending = pending, None
            near_index, q_new, reached, free = steps.pop(0)
            if free:
                # The first step reached the target or grew trees[turn], which
                # makes the batch's extends stale: finish the connect alone.
                if q_new is None:
                    meet = near_index
                else:
                    meet = trees[turn].add(q_new, near_index)
                    if not reached:
                        if time.perf_counter() >= deadline:
                            continue
                        status, meet = connect(trees[turn], target, params, robot,
                                               world, stats=stats, deadline=deadline)
                        if status != REACHED:
                            continue
                ends = (new_index, meet) if turn == 1 else (meet, new_index)
                waypoints = _join_paths(trees[0], ends[0], trees[1], ends[1])
                stats["nodes"] = trees[0].size + trees[1].size
                return PlannerResult.solved(
                    Path(waypoints), FORWARD, time.perf_counter() - t0, stats)

        done = 0
        for p, (near_index, q_new, _, free) in enumerate(steps):
            if time.perf_counter() >= deadline:
                break
            done += 1
            if free:
                tree = trees[(turn + p) % 2]
                pending = near_index if q_new is None else tree.add(q_new, near_index)
                break
        stats["iterations"] += done
        queue = queue[done:]

    stats["nodes"] = trees[0].size + trees[1].size
    return PlannerResult.timeout(time.perf_counter() - t0, stats)
