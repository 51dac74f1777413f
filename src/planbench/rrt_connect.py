"""RRT-Connect: two trees grown from start and goal with uniform sampling.

Each iteration samples the configuration space uniformly, extends one tree
toward the sample by at most ``step_eta`` (weighted distance), then greedily
connects the other tree toward the freshly added node; tree roles swap every
iteration.  Solutions are always reported as ``solved-forward``: the
bidirectional growth is internal.

The planner runs this loop through ``extend`` and ``connect``, which read
each target's nearest node and step and each motion's verdict only from a
small per-query cache, ``_Lookahead``.  Samples depend only on the seed, so
on a miss the cache steers the extends of the next ``LOOKAHEAD`` samples
against the current trees.  Most blocked motions end in an obstacle, so one
collision call checks only the far endpoint of each and of the missed
motion; a second checks in full those with a free endpoint and the first
connect step toward each.  A verdict is reused only for bitwise identical
endpoints, and a remembered nearest node, with the step steered from it, is
compared with the nodes added since, so trees, paths and iterations are
those of the loop that checks one motion per call (``tests/oracles.py``
keeps it as the reference).  ``collision_checks`` counts every checked
configuration, a free endpoint twice and prefetches never used;
``check_calls`` counts the calls.

Trees store their nodes joint-major, so ``nearest`` sums the weighted squared
distance over the joints of a (dof, k, N) block, one joint after another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .collision import free_mask, motions_free
from .core import FAILURE, SOLVED_FORWARD, PlannerResult, Query, run_planner
from .errors import ContractViolation, ValidationError, integer, real
from .robot import RobotModel, as_configuration, as_configurations, weighted_norms
from .world import WorldModel

REACHED = "reached"
ADVANCED = "advanced"
TRAPPED = "trapped"

_ZERO_DISTANCE = 1e-12
# Samples whose extends a cache refill steers ahead of the loop.  A longer
# window spreads the fixed cost of a collision call over more motions but
# checks more motions that the growing trees make stale.
LOOKAHEAD = 16


@dataclass(frozen=True)
class RrtParams:
    """Tuning knobs, desk-scale by default: the weighted distance one extend
    steps at most, the edge check step and an optional iteration cap."""

    step_eta: float = 0.5
    edge_step: float = 0.05
    max_iterations: int | None = None

    def __post_init__(self):
        for name in ("edge_step", "step_eta"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if self.edge_step <= 0:
            raise ValidationError("edge_step must be positive")
        if self.step_eta < self.edge_step:
            raise ValidationError("step_eta must be >= edge_step")
        if self.max_iterations is not None:
            integer(self.max_iterations, "max_iterations", least=1)


class Tree:
    """A rooted tree of configurations backed by growable numpy buffers.

    Node 0 is the root and is its own parent.  Every non-root edge was
    validated before insertion through the ``_Lookahead`` cache, every
    sample at the edge step checked by ``motions_free``.
    Nodes are stored joint-major, one column per node, for the nearest-node scans.
    """

    def __init__(self, robot: RobotModel, root):
        self.robot = robot
        self._columns = np.empty((robot.dof, 64))
        self._parents = np.empty(64, dtype=np.int64)
        self.size = 0
        self.add(as_configuration(robot, root), parent=0)

    @property
    def nodes(self) -> np.ndarray:
        """The (size, dof) view of the nodes."""
        return self._columns[:, : self.size].T

    def config(self, index: int) -> np.ndarray:
        return self._columns[:, index].copy()

    def add(self, q: np.ndarray, parent: int) -> int:
        if self.size == len(self._parents):
            self._columns = np.hstack([self._columns, np.empty_like(self._columns)])
            self._parents = np.concatenate(
                [self._parents, np.empty_like(self._parents)])
        index = self.size
        self._columns[:, index] = q
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

    An exact linear scan of the weighted squared distance, summed joint by
    joint; ties break to the lowest index.
    """
    if tree.size < 1:
        raise ContractViolation("nearest requires a non-empty tree")
    targets = as_configurations(tree.robot, targets, "nearest targets")
    return np.argmin(_distances(tree.robot, tree.nodes.T, targets), axis=1)


def _distances(robot: RobotModel, columns: np.ndarray, targets) -> np.ndarray:
    """(k, N) weighted squared distances of (dof, N) ``columns``, each joint's
    row contiguous as in ``Tree``'s buffer, to (k, dof) ``targets``, summed
    over the joints in order and so equal bit for bit in every such block of
    k N >= 2 entries; numpy sums a lone entry or a column-major block pairwise."""
    diff = columns[:, None, :] - targets.T[:, :, None]
    diff *= diff
    diff *= robot.weights[:, None, None]
    return diff.sum(axis=0)


def _steps(robot: RobotModel, params: RrtParams, q_near: np.ndarray,
           targets: np.ndarray) -> list[tuple[np.ndarray, bool] | None]:
    """(new configuration, reached) of one step from each row of ``q_near``
    toward the same row of ``targets`` (k, n): the target itself within
    ``step_eta``, else the point at distance ``step_eta`` toward it; None
    when the two coincide.  Row i does not depend on the other rows."""
    eta, delta = params.step_eta, targets - q_near
    dist = weighted_norms(robot, delta)
    clamped = q_near + (eta / np.maximum(dist, eta))[:, None] * delta
    return [None if d <= _ZERO_DISTANCE else (target, True) if d <= eta else (q_far, False)
            for target, d, q_far in zip(targets, dist, clamped)]


class _Lookahead:
    """The motion verdicts and nearest nodes of one query, found ahead of the loop.

    The loop calls ``begin(i)`` before iteration i, which extends
    ``trees[i % 2]`` toward ``sample(i)``.  The cache keeps only the motions
    of its last refill, at most 2 * LOOKAHEAD + 3 of them, and the nearest
    node of each target it steered.
    """

    def __init__(self, robot: RobotModel, world: WorldModel, params: RrtParams,
                 seed: int, trees: tuple[Tree, Tree], stats: dict):
        self.robot, self.world, self.params = robot, world, params
        self.trees, self.stats = trees, stats
        self.rng = np.random.default_rng(seed)
        self.samples, self.first = np.empty((0, robot.dof)), 0  # row k: sample first + k
        self.verdicts: dict[bytes, bool] = {}
        self.near: dict[tuple[int, bytes], tuple] = {}  # (tree size, index, step)
        self.begin(0)

    def begin(self, iteration: int) -> None:
        # ``extending``: the iteration's extend has not looked up a verdict yet
        self.iteration, self.extending = iteration, True

    def sample(self, i: int) -> np.ndarray:
        """Sample i of one random stream drawn in blocks, which gives the
        values of one draw per iteration."""
        while i >= self.first + len(self.samples):
            block = self.rng.uniform(self.robot.lower, self.robot.upper,
                                     size=(LOOKAHEAD, self.robot.dof))
            self.samples = np.vstack([self.samples[self.iteration - self.first:], block])
            self.first = self.iteration
        return self.samples[i - self.first]

    def free(self, q_near: np.ndarray, q_new: np.ndarray) -> bool:
        """The verdict of the motion q_near -> q_new, refilling on a miss."""
        key = q_near.tobytes() + q_new.tobytes()
        if key not in self.verdicts:
            self._refill({key: (q_near, q_new)})
        self.extending = False
        return self.verdicts[key]

    def steer(self, tree: Tree, target: np.ndarray) -> tuple[int, tuple | None]:
        """The nearest node of ``target`` in ``tree`` and ``_steps``' step
        from it, from the node and step the last refill found when it
        steered ``target`` against ``tree``: that node and those added since,
        two or more columns, get ``nearest``'s distances bit for bit
        (``_distances``), and a tie keeps the older node and its step."""
        key = (0 if tree is self.trees[0] else 1, target.tobytes())
        found = self.near.get(key)
        if found is None:
            index = int(nearest(tree, target[None])[0])
            return index, _steps(self.robot, self.params, tree._columns[:, index][None],
                                 target[None])[0]
        size, index, step = found
        if size < tree.size:
            columns = tree._columns[:, :tree.size]
            block = np.concatenate([columns[:, index, None], columns[:, size:]], axis=1)
            k = int(_distances(self.robot, block, target[None])[0].argmin())
            if k:
                index = size + k - 1
                step = _steps(self.robot, self.params, columns[:, index][None],
                              target[None])[0]
            self.near[key] = (tree.size, index, step)
        return index, step

    def _refill(self, missed: dict) -> None:
        """Check the far endpoints of the missed motion and of the extends of
        the next LOOKAHEAD samples in one call; then, in another, the full
        motions whose endpoint is free with the first connect step toward
        each of them.  Keep only these motions and their nearest nodes and
        steps."""
        old, self.verdicts, self.near = self.verdicts, {}, {}
        last = self.iteration + LOOKAHEAD
        if self.params.max_iterations is not None:
            last = min(last, self.params.max_iterations - 1)
        first = self.iteration if self.extending else self.iteration + 1
        self.sample(last)  # draws samples first .. last, the window
        window = self.samples[first - self.first:last + 1 - self.first]
        extends = self._steer_all((window[first % 2::2], window[1 - first % 2::2]), missed)
        pending = self._unknown(missed, old)
        if pending:
            free = free_mask(self.robot, self.world,
                             np.array([q_new for _, q_new in pending.values()]),
                             stats=self.stats).tolist()
            self.verdicts.update((key, False) for key, ok in zip(pending, free) if not ok)
            pending = {key: m for (key, m), ok in zip(pending.items(), free) if ok}
        connects = {}
        self._steer_all([np.array([q for key, q in extends[1 - t]
                                   if key in pending or self.verdicts[key]]) for t in (0, 1)],
                        connects)
        pending.update(self._unknown(connects, old))
        if pending:
            pairs = np.array(list(pending.values()))
            self.verdicts.update(zip(pending, motions_free(
                self.robot, self.world, pairs[:, 0], pairs[:, 1], self.params.edge_step,
                stats=self.stats).tolist()))

    def _steer_all(self, targets, motions: dict) -> list:
        """Steer each row of ``targets[t]`` against ``trees[t]``, one scan and
        one ``_steps`` call per tree; remember each nearest node and step, add
        each motion to ``motions``, return per tree each (key, new config)."""
        steered = ([], [])
        for t, (tree, rows) in enumerate(zip(self.trees, targets)):
            if not len(rows):
                continue
            columns = tree._columns[:, :tree.size]
            near = _distances(self.robot, columns, rows).argmin(axis=1)
            q_near = columns.T[near]
            steps = _steps(self.robot, self.params, q_near, rows)
            for k, target, q, step in zip(near.tolist(), rows, q_near, steps):
                self.near[t, target.tobytes()] = (tree.size, k, step)
                if step is not None:
                    key = q.tobytes() + step[0].tobytes()
                    motions[key] = (q, step[0])
                    steered[t].append((key, step[0]))
        return steered

    def _unknown(self, motions: dict, old: dict) -> dict:
        """Take the verdicts ``old`` holds for ``motions``; return the rest."""
        self.verdicts.update((key, old[key]) for key in motions if key in old)
        return {key: m for key, m in motions.items() if key not in self.verdicts}


def extend(tree: Tree, target, cache: _Lookahead) -> tuple[str, int | None]:
    """One bounded step of the nearest node toward ``target``.

    Returns (REACHED, node) when the target itself was added (or already
    present), (ADVANCED, node) for a clamped step of length step_eta, and
    (TRAPPED, None) when the motion is blocked; trapped leaves the tree
    unchanged.  The nearest node, the step and the motion's verdict come
    from ``cache``, which counts its own checks.
    """
    near_index, step = cache.steer(tree, as_configuration(cache.robot, target))
    if step is None:
        return REACHED, near_index  # degenerate: do not duplicate the node
    q_new, reached = step
    if not cache.free(tree._columns[:, near_index], q_new):
        return TRAPPED, None
    return (REACHED if reached else ADVANCED), tree.add(q_new, near_index)


def connect(tree: Tree, target, cache: _Lookahead,
            deadline: float) -> tuple[str, int | None]:
    """Repeatedly extend toward a fixed target until reached, trapped or
    past the ``time.perf_counter`` deadline (``math.inf`` for none).

    On TRAPPED the second element is the last advanced node, if any.
    """
    last = None
    while True:
        status, index = extend(tree, target, cache)
        if status == TRAPPED:
            return TRAPPED, last
        last = index
        if status == REACHED:
            return REACHED, index
        if time.perf_counter() >= deadline:
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
                     params: RrtParams, seed: int) -> PlannerResult:
    """Plan with RRT-Connect under the query's wall-clock budget.

    Deterministic given (query, params, seed): the seed drives all sampling,
    and the goal tree grows from the query's goal representative.  Motion
    verdicts come from the lookahead cache (see the module docstring).
    """
    integer(seed, "seed", least=0)
    stats = {"iterations": 0, "collision_checks": 0, "check_calls": 0, "nodes": 0}

    def search(representative: np.ndarray, t0: float):
        deadline = t0 + query.time_budget
        trees = (Tree(robot, query.start), Tree(robot, representative))
        cache = _Lookahead(robot, world, params, seed, trees, stats)
        while params.max_iterations is None or stats["iterations"] < params.max_iterations:
            if time.perf_counter() >= deadline:
                break
            i = stats["iterations"]
            stats["iterations"] += 1
            cache.begin(i)
            tree, other = trees[i % 2], trees[1 - i % 2]
            status, new_index = extend(tree, cache.sample(i), cache)
            if status == TRAPPED:
                continue
            status, meet = connect(other, tree.config(new_index), cache, deadline)
            if status == REACHED:
                ends = (new_index, meet) if i % 2 == 0 else (meet, new_index)
                stats["nodes"] = trees[0].size + trees[1].size
                return SOLVED_FORWARD, _join_paths(trees[0], ends[0], trees[1], ends[1])
        stats["nodes"] = trees[0].size + trees[1].size
        return FAILURE, None

    return run_planner(robot, world, query, stats, search)
