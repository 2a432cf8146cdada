"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's side only: `Tracer.wrap`
replaces a public function or method of the package with a wrapper that
records (name, start, end, parent) around each call, and `Tracer.restore`
puts the originals back. Nothing inside the package is edited.

Each span may also carry an integer outcome computed from the call's
result (1 for a hit, a page count, ...), so ratios are counted at the
same boundary the time is measured. A span's self time is its duration
minus the durations of its direct children; the phase of a span is the
name of its root span (the benchmark opens one root span per phase).
"""
from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.outcome = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start_ns)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outcome.append(0)
        self.end_ns.append(0)
        self._stack.append(idx)
        self.start_ns.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end_ns[idx] = time.perf_counter_ns()
        self._stack.pop()

    def phase(self, name: str) -> "_Phase":
        """Context manager for a root span naming a benchmark phase."""
        return _Phase(self, self._intern(name))

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        outcome: Optional[Callable[[object], int]] = None,
    ) -> None:
        fn = getattr(owner, attr)
        nid = self._intern(name)
        # Bound locally so the wrapper adds as little as possible inside
        # the interval it measures.
        clock = time.perf_counter_ns
        stack = self._stack
        push, pop = stack.append, stack.pop
        add_name, add_parent = self.name_id.append, self.parent.append
        add_start, add_end, add_outcome = (
            self.start_ns.append, self.end_ns.append, self.outcome.append
        )
        starts, ends, outcomes = self.start_ns, self.end_ns, self.outcome

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_end(0)
            add_outcome(0)
            push(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()
            if outcome is not None:
                outcomes[idx] = outcome(result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def summary(self) -> dict[tuple[str, str], list[int]]:
        """(phase, span name) -> [calls, total ns, self ns, outcome sum]."""
        n = len(self.start_ns)
        child_ns = [0] * n
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end_ns[i] - self.start_ns[i]
                root[i] = root[p]
            else:
                root[i] = i
        out: dict[tuple[str, str], list[int]] = {}
        for i in range(n):
            dur = self.end_ns[i] - self.start_ns[i]
            key = (self.names[self.name_id[root[i]]], self.names[self.name_id[i]])
            agg = out.get(key)
            if agg is None:
                agg = out[key] = [0, 0, 0, 0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child_ns[i]
            agg[3] += self.outcome[i]
        return out

    def write(self, path) -> None:
        """Write every span as CSV: index, name, start, end, parent, outcome."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,outcome\n")
            names = self.names
            for i in range(len(self.start_ns)):
                fh.write(
                    f"{i},{names[self.name_id[i]]},{self.start_ns[i]},"
                    f"{self.end_ns[i]},{self.parent[i]},{self.outcome[i]}\n"
                )


class _Phase:
    def __init__(self, tracer: Tracer, nid: int):
        self._tracer = tracer
        self._nid = nid

    def __enter__(self) -> None:
        self._idx = self._tracer._open(self._nid)

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._idx)
