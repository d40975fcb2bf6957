"""In-memory spans around the program's public functions.

A :class:`Tracer` replaces functions by wrappers at the place their callers
look them up (a module attribute), records one span per call (name, start,
end, parent) in flat arrays, and restores the originals on :meth:`close`.
Counters that depend on returned values (sweeps, ``max_sweeps`` exits,
flagged verdicts) are kept by per-function hooks.  The per-layer metrics are
derived from the spans and counters after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        t = time.perf_counter()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Trace ``owner.attr`` under ``name``; ``on_result(args, kwargs, out)`` sees each result."""
        fn = getattr(owner, attr)
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def wrap_eigh(self, caller: str) -> None:
        """Trace ``numpy.linalg.eigh`` calls made from module ``caller``.

        Spans are named ``kernel.eigh.d<n>`` for n x n matrices; the counter
        of the same name plus ``.matrices`` counts the stacked matrices.
        """
        fn = np.linalg.eigh
        ids = {}

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != caller:
                return fn(a, *args, **kwargs)
            shape = np.shape(a)
            name = f"kernel.eigh.d{shape[-1]}"
            if name not in ids:
                ids[name] = self._id(name)
            self.counts[name + ".matrices"] += int(np.prod(shape[:-2], dtype=np.int64))
            i = self._open(ids[name])
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(i)

        np.linalg.eigh = traced
        self._restore.append((np.linalg, "eigh", fn))

    def close(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(len(self.start)):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - self.child[i]
        return out

    def inclusive_under(self, parent_name: str, names: set[str]) -> float:
        """Inclusive time of ``names`` spans whose direct parent is a ``parent_name`` span."""
        pid = self._ids.get(parent_name)
        wanted = {self._ids[n] for n in names if n in self._ids}
        total = 0.0
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and self.name_id[p] == pid and self.name_id[i] in wanted:
                total += self.end[i] - self.start[i]
        return total

    def top_level(self, prefix: str) -> float:
        """Inclusive time of spans named ``prefix...`` that have no traced parent."""
        total = 0.0
        for i in range(len(self.start)):
            if self.parent[i] < 0 and self.names[self.name_id[i]].startswith(prefix):
                total += self.end[i] - self.start[i]
        return total

    def write(self, path) -> None:
        """One JSON line per span, times in seconds from the tracer's creation."""
        t0 = self.origin
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'{{"span":{i},"name":"{self.names[self.name_id[i]]}",'
                    f'"start":{self.start[i] - t0:.9f},"end":{self.end[i] - t0:.9f},'
                    f'"parent":{self.parent[i]}}}\n'
                )
