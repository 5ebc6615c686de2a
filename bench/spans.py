"""Layer spans recorded from outside the program.

A ``Tracer`` replaces public functions in the namespace of the module
that calls them with wrappers, so the program itself is unchanged.  Two
kinds of wrapper exist:

* a span records name, start, end, parent span and operation id, and
  may add counters computed from the call's arguments and result;
* a counter only counts calls, for functions called hundreds of
  thousands of times (a span each would swamp the work it measures).

Spans stay in memory until the run ends.  ``uninstall`` restores every
original attribute.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installing wrappers ------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        original = owner[attr] if isinstance(owner, dict) else \
            owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, on_result=None):
        """Wrap ``owner.attr`` (or ``owner[attr]`` for a dict) in a span.

        ``on_result(counts, args, kwargs, result)`` may add counters.
        """
        fn = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                                   self.op_id))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
            self.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr: str, name: str):
        """Count calls of ``owner.attr``; keeps a classmethod a classmethod."""
        raw = owner.__dict__[attr]
        counts = self.counts
        if isinstance(raw, classmethod):
            fn = raw.__func__

            def counted(cls, *args, **kwargs):
                counts[name] += 1
                return fn(cls, *args, **kwargs)

            replacement = classmethod(functools.wraps(fn)(counted))
        else:
            @functools.wraps(raw)
            def replacement(*args, **kwargs):
                counts[name] += 1
                return raw(*args, **kwargs)

        self._patch(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- reading the record ---------------------------------------------------

    def self_times(self, first: int = 0) -> Counter:
        """Seconds per span name over spans[first:], minus the time
        covered by child spans."""
        out = Counter()
        for s in self.spans[first:]:
            out[s.name] += s.end - s.start
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def as_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op_id} for s in self.spans]
