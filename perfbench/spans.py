"""In-memory spans around calls into the library's public functions.

A :class:`Tracer` records one span per wrapped call: its layer name, start
and end (``time.perf_counter``), and the index of the enclosing span on the
same thread.  Spans stay in memory until the run ends; :func:`self_times`
then turns them into per-layer self time, which is a span's duration minus
the time covered by its direct children.  Counts are taken by the same
wrappers, so a ratio such as members per second is measured where the work
happens.

:func:`installed` swaps each target attribute for a wrapper and restores
the original on exit, so nothing outside the ``with`` block is traced.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any, Optional

#: ``count(counts, args, kwargs, result)`` adds to the tracer's counters.
CountFn = Callable[[dict, tuple, dict, Any], None]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into the span list, same thread

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``getattr(owner, attr)`` becomes a span."""

    owner: Any
    attr: str
    layer: str
    count: Optional[CountFn] = None


class Tracer:
    """Span and counter registry; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            # Placeholder keeps the index stable while children append.
            self.spans.append(Span(layer, 0.0, 0.0, parent))
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = Span(layer, start, end, parent)

    def wrap(self, fn: Callable, layer: str, count: Optional[CountFn]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if count is not None:
                with self._lock:
                    count(self.counts, args, kwargs, result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer, targets: Iterable[Target]) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore."""
    originals = []
    try:
        for target in targets:
            original = target.owner.__dict__[target.attr]
            originals.append((target.owner, target.attr, original))
            setattr(
                target.owner,
                target.attr,
                tracer.wrap(original, target.layer, target.count),
            )
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per-layer self time: each span minus its direct children, summed.

    A child's whole duration is subtracted from its parent once; the
    child's own children are subtracted from the child, not again from
    the grandparent.  Sibling spans of one layer add up.
    """
    spans = list(spans)
    own = [span.seconds for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.seconds
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, own):
        totals[span.name] += seconds
    return dict(totals)


def to_json(tracer: Tracer) -> dict[str, Any]:
    """The spans and counters as plain JSON (for a traced child process)."""
    return {
        "spans": [[s.name, s.start, s.end, s.parent] for s in tracer.spans],
        "counts": dict(tracer.counts),
    }


def from_json(payload: dict[str, Any]) -> tuple[list[Span], dict[str, float]]:
    spans = [Span(name, start, end, parent) for name, start, end, parent in payload["spans"]]
    return spans, dict(payload["counts"])
