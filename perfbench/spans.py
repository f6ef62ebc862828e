"""In-memory spans around calls into the program, recorded from outside it.

A hook replaces a module attribute (a function, where the caller looks it up)
with a wrapper that records one span per call: name, start, end and the index
of the span that was open when the call began.  Nothing is written while the
program runs; the spans are read once it has returned.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attribute`` in a span called ``name``; ``count``, if
    given, adds to the tracer's counts from the call's arguments and result."""

    module: object
    attribute: str
    name: str
    count: Callable[[Counter, tuple, object], None] | None = None


class Tracer:
    """The spans and counts of one traced run."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._spans: list[tuple | None] = []
        self._open: list[int] = []

    @property
    def spans(self) -> list[Span]:
        return [Span(*span) for span in self._spans]

    def traced(self, name: str, fn: Callable, count=None) -> Callable:
        """``fn`` wrapped so that each call records a span called ``name``."""
        spans, opened, counts, clock = self._spans, self._open, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = opened[-1] if opened else -1
            opened.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    @contextmanager
    def hooked(self, hooks: Iterable[Hook]) -> Iterator[list[str]]:
        """Install every hook whose attribute exists, restore all on exit.
        Yields the ``module.attribute`` names that were not found."""
        saved = []
        missing = []
        try:
            for hook in hooks:
                original = getattr(hook.module, hook.attribute, None)
                if original is None:
                    missing.append(f"{hook.module.__name__}.{hook.attribute}")
                    continue
                saved.append((hook.module, hook.attribute, original))
                setattr(hook.module, hook.attribute, self.traced(hook.name, original, hook.count))
            yield missing
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another (work in parallel) or outlast their
    parent; only the union of their intervals inside the parent counts.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def totals_by_name(spans: list[Span]) -> tuple[Counter, Counter]:
    """Self time summed per span name, and the number of spans per name."""
    seconds: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        seconds[span.name] += own
    return seconds, Counter(span.name for span in spans)
