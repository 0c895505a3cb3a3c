"""In-memory span recorder for the traced run.

A span records one call across a module boundary: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it started
(its parent), the episode it belongs to, and the operation span it falls
under.  Model and policy callables are far too frequent for one span per
call, so they are recorded as *leaf* time: a count and a duration added to
whichever span is open when they run.

A span's self time is its duration minus its children's durations and its
leaf time.  `check_spans` verifies that children nest inside their parent,
that siblings do not overlap, that every self time is non-negative, and
that self and leaf times of a tree sum to the duration of its root.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "episode", "op",
                 "leaf_n", "leaf_s", "info")

    def __init__(self, name: str, parent: int, episode: int):
        self.name = name
        self.parent = parent
        self.episode = episode
        self.op = -1
        self.start = self.end = 0.0
        self.leaf_n = 0
        self.leaf_s = 0.0
        self.info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.episode = -1
        # Spans with this name open an operation; the spans below it carry
        # its index in ``op``.  None while a layer probe runs, so probe
        # spans never count towards the workload's per-operation figures.
        self.op_name: str | None = None
        self.orphan_n = 0   # leaf calls made while no span was open

    def wrap(self, name: str, fn: Callable,
             info: Callable[[tuple, dict, Any], Any] | None = None) -> Callable:
        """``fn`` with every call recorded as a span named ``name``;
        ``info(args, kwargs, result)`` is stored on the span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, parent, self.episode)
            index = len(spans)
            if name == self.op_name:
                span.op = index
            elif parent >= 0:
                span.op = spans[parent].op
            spans.append(span)
            stack.append(index)
            span.start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _now()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def leaf(self, fn: Callable) -> Callable:
        """``fn`` with its calls counted and timed as leaf work of the
        enclosing span."""
        spans, stack = self.spans, self._stack

        def counted(x):
            t0 = _now()
            result = fn(x)
            elapsed = _now() - t0
            if stack:
                span = spans[stack[-1]]
                span.leaf_n += 1
                span.leaf_s += elapsed
            else:
                self.orphan_n += 1
            return result

        return counted

    @contextlib.contextmanager
    def probe(self):
        """Record spans without attributing them to workload operations."""
        saved, self.op_name = self.op_name, None
        try:
            yield
        finally:
            self.op_name = saved

    def child_durations(self) -> list[float]:
        out = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                out[span.parent] += span.duration
        return out

    def self_times(self) -> list[float]:
        children = self.child_durations()
        return [s.duration - c - s.leaf_s for s, c in zip(self.spans, children)]

    def write_csv(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,episode,op,leaf_calls,"
                     "leaf_s,self_s\n")
            for i, (s, own) in enumerate(zip(self.spans, selfs)):
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},"
                         f"{s.episode},{s.op},{s.leaf_n},{s.leaf_s!r},"
                         f"{own!r}\n")


def check_spans(tracer: Tracer, tol: float = 1e-9) -> list[str]:
    """Problems with the recorded span tree; empty when it is consistent."""
    spans = tracer.spans
    problems: list[str] = []
    last_child_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {i} ({s.name}) leaves its parent "
                                f"{s.parent} ({p.name})")
            if s.start < last_child_end.get(s.parent, -float("inf")):
                problems.append(f"span {i} ({s.name}) overlaps a sibling")
            last_child_end[s.parent] = s.end
    selfs = tracer.self_times()
    for i, own in enumerate(selfs):
        if own < -tol:
            problems.append(f"span {i} ({spans[i].name}) has negative self "
                            f"time {own!r}")
    tree_total: dict[int, float] = {}
    for i, s in enumerate(spans):
        root = i
        while spans[root].parent >= 0:
            root = spans[root].parent
        tree_total[root] = tree_total.get(root, 0.0) + selfs[i] + s.leaf_s
    for root, total in tree_total.items():
        if abs(total - spans[root].duration) > tol * max(1.0, len(spans)):
            problems.append(f"self times under span {root} sum to {total!r}, "
                            f"not its duration {spans[root].duration!r}")
    return problems


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, Callable]]):
    """Set each ``(owner, attribute, value)`` for the duration of the block
    and restore the originals afterwards, in reverse order."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
