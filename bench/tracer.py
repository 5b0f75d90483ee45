"""Span tracing from outside the library.

The benchmark replaces public functions at the module attribute their
caller resolves with wrappers that record one span per call, and puts
the originals back afterwards. Spans are kept in memory and reduced to
per-layer numbers once the traced call has returned. The library itself
holds no tracing code.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a root
    failed: bool = False


@dataclass
class Tracer:
    """Spans of one traced top-level call plus counters and observations."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    def _open(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def spanned(self, fn, name: str, observe=None):
        """Wrap fn so each call records a span; observe(result) sees returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def counted(self, fn, name: str, within: str):
        """Wrap fn to count calls (and raised calls) made directly inside a
        `within` span. Cheaper than a span, for functions called ~1e5 times."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open() != within:
                return fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".failed"] += 1
                raise

        return wrapper

    @contextmanager
    def patched(self, targets):
        """Install wrappers for (owner, attribute, wrap) targets; restore on exit.

        wrap maps the original function to its replacement.
        """
        originals = []
        try:
            for owner, attr, wrap in targets:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def by_name(self) -> dict[str, dict]:
        """name -> {calls, failed, self_s, durations_s}."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            agg = out.setdefault(s.name, {"calls": 0, "failed": 0, "self_s": 0.0, "durations_s": []})
            agg["calls"] += 1
            agg["failed"] += int(s.failed)
            agg["self_s"] += own
            agg["durations_s"].append(s.end - s.start)
        return out
