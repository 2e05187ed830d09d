"""Counters and spans recorded from outside the package.

Both classes work by replacing a module attribute that callers look up at
call time (``tape.accepts_basis``, ``counting.avoids_basis``, ...) with a
wrapper, and putting the original back afterwards.  No package source
changes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


@contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` attributes; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class TapeCounter:
    """Sums the deterministic counters of every ``TapeRun`` that
    ``accepts_basis`` returns, and checks each against the space bound.

    It costs one attribute sum per call, so it stays on in untraced runs:
    ``tape_steps`` and the per-pass self-checks need it.
    """

    def __init__(self) -> None:
        self.tick = None  # called after each call, when set
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.accepted = 0
        self.steps = 0
        self.max_cells = 0
        self.violations = 0

    def wrap(self, accepts_basis):
        def counted(word, basis, trace=None):
            run = accepts_basis(word, basis, trace)
            self.calls += 1
            self.accepted += bool(run.verdict)
            self.steps += run.steps
            if run.max_cells_touched > self.max_cells:
                self.max_cells = run.max_cells_touched
            if run.max_cells_touched > len(word) + 1:
                self.violations += 1
            if self.tick is not None:
                self.tick()
            return run

        return counted


class Tracer:
    """Per-name call counts, inclusive seconds and child seconds.

    A span is open while a wrapped call runs; a span that closes adds its
    duration to the child time of the span below it on the stack, so a
    layer's self time is its inclusive time minus its children's.
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.child_seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []

    def _timed(self, name, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.calls[name] += 1
            self.seconds[name] += elapsed
            self.child_seconds[name] += frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def span(self, name, fn, count=None):
        """Wrap ``fn`` in a span; ``count(args, result)`` adds to ``counts[name]``."""

        def wrapper(*args, **kwargs):
            result = self._timed(name, fn, args, kwargs)
            if count is not None:
                self.counts[name] += count(args, result)
            return result

        return wrapper

    def span_each_item(self, name, fn):
        """Wrap a function returning an iterator: each ``next`` is a span,
        and ``counts[name]`` counts the items yielded."""

        def wrapper(*args, **kwargs):
            # the call itself stays eager, so argument errors raise here
            return self._each_item(name, iter(fn(*args, **kwargs)))

        return wrapper

    def _each_item(self, name, items):
        while True:
            try:
                item = self._timed(name, next, (items,), {})
            except StopIteration:
                return
            self.counts[name] += 1
            yield item

    def self_seconds(self, name: str) -> float:
        return self.seconds[name] - self.child_seconds[name]
