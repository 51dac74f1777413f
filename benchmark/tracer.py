"""Spans around public planbench functions, recorded from outside the package.

``Tracer.installed`` wraps each target function once and rebinds the name in
every ``planbench`` module that holds it (``free_mask`` lives in both
``collision`` and ``ara_star``, for example), so calls made inside the
package are traced too.  Leaving the ``with`` block restores the originals.

A span records its name, start, end, the span that caused it and the index
of the query it belongs to.  Spans stay in memory until ``write`` saves them.
Self time is a span's duration minus the durations of its direct children;
it is summed per name as spans close.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.query = -1
        self.per_query: dict = {}  # hook state that lives for one query
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, name, children seconds]
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_query = array("i")
        self._span_start = array("d")
        self._span_end = array("d")

    def begin_query(self, index: int) -> None:
        self.query = index
        self.per_query.clear()

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller, inside a hook)."""
        return self._stack[-1][1] if self._stack else None

    def _wrap(self, name: str, fn, hook):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self._span_start)
            self._span_name.append(name_id)
            self._span_parent.append(stack[-1][0] if stack else -1)
            self._span_query.append(self.query)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
            frame = [index, name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self._span_start[index] = start
                self._span_end[index] = end
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Trace ``targets``, a sequence of (module, attribute, span name, hook).

        A hook is called as ``hook(tracer, args, kwargs, result)`` after the
        span closes, so its cost counts towards the caller's self time.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == "planbench" or n.startswith("planbench.")]
        patched = []
        try:
            for module, attr, name, hook in targets:
                original = getattr(module, attr)
                traced = self._wrap(name, original, hook)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, traced)
                            patched.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)

    def write(self, path: Path) -> None:
        """Save every span as arrays indexed by span, in opening order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(list(self._name_ids)),
                 name=np.frombuffer(self._span_name, dtype=np.int32),
                 parent=np.frombuffer(self._span_parent, dtype=np.int32),
                 query=np.frombuffer(self._span_query, dtype=np.int32),
                 start=np.frombuffer(self._span_start, dtype=np.float64),
                 end=np.frombuffer(self._span_end, dtype=np.float64))
