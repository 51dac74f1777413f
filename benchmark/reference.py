"""A fixed reference computation that reads the host's current speed.

The benchmark's host is a share of a virtual machine whose speed drifts by
15 to 70% over tens of seconds and toggles between a fast and a slow state
within a second, for process CPU time as much as for wall time.  Every pass
therefore runs a short piece of fixed work between its queries and every
fifth of a second inside them (``Sampler``), and the timed queries are
scaled by how long that work took then, relative to how long it takes at
the reference speed (``nominal_s``).

The work follows the same sequence of numpy operations as the program's
collision check, on a robot and scene of the same sizes, without calling
it: a batched chain of joint transforms, sphere placement with ``einsum``,
sphere/box, sphere/cylinder and sphere/sphere tests, plus a short
pure-Python priority-queue loop, a nearest-neighbour scan over a table the
size of a large RRT tree and a walk over many small Python objects; with
these two the reference's slow-down followed the program's most closely.
It uses nothing from ``planbench``, so a change to the program never changes
the reference.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Sized like the shelf robot and scene: one prismatic and seven revolute
# joints, ten collision spheres, 34 checked sphere pairs, five boxes and two
# cylinders.
JOINTS = 8
SPHERES = 10
PAIRS = 34
BOXES = 5
CYLINDERS = 2
NODES = 4096  # rows of the nearest-neighbour table
SCANS = 6  # nearest-neighbour queries per batch
OBJECTS = 10000  # small Python objects walked per batch


def _rotations(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues rotations (m, 3, 3) about one unit axis."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    s = np.sin(angles)[:, None, None]
    c = (1.0 - np.cos(angles))[:, None, None]
    return np.eye(3) + s * k + c * (k @ k)


class Reference:
    """Fixed work on ``calls`` batches of ``batch`` configurations, which
    takes ``nominal_s`` seconds at the reference speed."""

    def __init__(self, batch: int, calls: int, nominal_s: float):
        rng = np.random.default_rng(20240613)
        self.calls = calls
        self.nominal_s = nominal_s
        self.configs = rng.uniform(-2.5, 2.5, size=(batch, JOINTS))
        self.configs[:, 0] = rng.uniform(0.0, 0.4, size=batch)
        axes = rng.normal(size=(JOINTS, 3))
        self.axes = axes / np.linalg.norm(axes, axis=1, keepdims=True)
        self.origin_t = rng.uniform(-0.1, 0.3, size=(JOINTS, 3))
        self.origin_r = np.stack([_rotations(a, np.array([t]))[0] for a, t in
                                  zip(self.axes[::-1], rng.uniform(-1, 1, JOINTS))])
        self.sphere_link = np.sort(rng.integers(0, JOINTS, size=SPHERES))
        self.sphere_local = rng.uniform(-0.05, 0.05, size=(SPHERES, 3))
        self.radii = rng.uniform(0.03, 0.08, size=SPHERES)
        self.box_center = rng.uniform(-0.8, 0.8, size=(BOXES, 3)) + [0.6, 0.0, 0.4]
        angle = rng.uniform(-np.pi, np.pi, size=BOXES)
        self.box_cos, self.box_sin = np.cos(angle), np.sin(angle)
        self.box_half = rng.uniform(0.02, 0.2, size=(BOXES, 3))
        self.cyl_center = rng.uniform(-0.8, 0.8, size=(CYLINDERS, 3)) + [0.6, 0.0, 0.4]
        self.cyl_radius = rng.uniform(0.02, 0.06, size=CYLINDERS)
        self.cyl_half = rng.uniform(0.05, 0.15, size=CYLINDERS)
        self.pairs = np.stack([rng.permutation(SPHERES)[:2] for _ in range(PAIRS)])
        self.nodes = rng.uniform(-2.5, 2.5, size=(NODES, JOINTS))
        self.weights = rng.uniform(0.5, 1.5, size=JOINTS)
        self.objects = [(float(x), [float(x)]) for x in rng.random(OBJECTS)]

    def _free(self, q: np.ndarray) -> np.ndarray:
        m = q.shape[0]
        rot = np.broadcast_to(np.eye(3), (m, 3, 3)).copy()
        trans = np.zeros((m, 3))
        link_rot = np.empty((m, JOINTS, 3, 3))
        link_trans = np.empty((m, JOINTS, 3))
        for j in range(JOINTS):
            trans = trans + rot @ self.origin_t[j]
            rot = rot @ self.origin_r[j]
            if j == 0:
                trans = trans + (rot @ self.axes[j]) * q[:, j : j + 1]
            else:
                rot = rot @ _rotations(self.axes[j], q[:, j])
            link_rot[:, j] = rot
            link_trans[:, j] = trans
        centers = (np.einsum("msij,sj->msi", link_rot[:, self.sphere_link], self.sphere_local)
                   + link_trans[:, self.sphere_link])
        r_sq = (self.radii * self.radii)[None, :, None]
        rel = centers[:, :, None, :] - self.box_center
        ax = np.abs(self.box_cos * rel[..., 0] + self.box_sin * rel[..., 1]) - self.box_half[:, 0]
        ay = np.abs(-self.box_sin * rel[..., 0] + self.box_cos * rel[..., 1]) - self.box_half[:, 1]
        az = np.abs(rel[..., 2]) - self.box_half[:, 2]
        np.maximum(ax, 0.0, out=ax)
        np.maximum(ay, 0.0, out=ay)
        np.maximum(az, 0.0, out=az)
        hit = ((ax * ax + ay * ay + az * az) < r_sq).any(axis=(1, 2))
        rel = centers[:, :, None, :] - self.cyl_center
        dr = np.hypot(rel[..., 0], rel[..., 1]) - self.cyl_radius
        dz = np.abs(rel[..., 2]) - self.cyl_half
        np.maximum(dr, 0.0, out=dr)
        np.maximum(dz, 0.0, out=dz)
        hit |= ((dr * dr + dz * dz) < r_sq).any(axis=(1, 2))
        diff = centers[:, self.pairs[:, 0]] - centers[:, self.pairs[:, 1]]
        sums = self.radii[self.pairs[:, 0]] + self.radii[self.pairs[:, 1]]
        hit |= (np.sum(diff * diff, axis=-1) < sums * sums).any(axis=1)
        return ~hit

    def run(self) -> int:
        """One unit of reference work; returns a checksum."""
        heap, total = [], 0
        for k in range(self.calls):
            free = self._free(self.configs + 0.01 * k)
            for i, ok in enumerate(free.tolist()):
                heapq.heappush(heap, (float(i ^ k), i))
                total += ok
            while len(heap) > 64:
                heapq.heappop(heap)
            for s in range(SCANS):
                d = (self.nodes - self.configs[s]) ** 2 @ self.weights
                total += int(d.argmin())
            for a, b in self.objects:
                total += a < b[0]
        return total

    def reading(self) -> float:
        """Seconds that one unit of reference work takes now."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def scale(self, seconds: float, readings: list[float]) -> float:
        """``seconds`` measured at the speed that ``readings`` show, expressed
        at the reference speed.  The median keeps a reading slowed by a
        passing disturbance from counting for the whole interval."""
        return seconds * self.nominal_s / statistics.median(readings)


class Sampler:
    """Readings of a Reference, taken on request and every ``interval``
    seconds from a SIGALRM handler, so that they also fall inside long
    queries.  ``spent`` is the time taken by readings, which the caller
    subtracts from the work it times."""

    def __init__(self, reference: Reference, interval: float):
        self.reference = reference
        self.interval = interval
        self.readings: list[float] = []
        self.spent = 0.0
        self._busy = False

    def read(self) -> None:
        if self._busy:  # an alarm during a reading
            return
        self._busy = True
        t0 = time.perf_counter()
        self.readings.append(self.reference.reading())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.read()

    @contextmanager
    def ticking(self):
        """Read every ``interval`` seconds inside the ``with`` block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
