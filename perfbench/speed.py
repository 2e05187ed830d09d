"""Machine speed, measured beside the requests with a fixed probe.

The reference machine is a shared VM whose speed for interpreted code
moves by up to 1.8x in phases lasting from seconds to minutes, while a
run lasts well under a minute.  The fastest repeat of a request cannot
see past a phase that long, but a probe run between the requests slows
with it.  Over 4-second windows of a 120-second test, the median time of
a batch of tape requests moved with a standard deviation of 8.3%, and
its ratio to the probe's median time by 3.9%.

So every request is also timed in *reference seconds*: its wall time
times ``PROBE_NOMINAL_S`` over the median probe time around it.  That is
what the request would take on the reference machine when the probe runs
at its nominal speed.  The probe is the benchmark's own code, so a change
to the package moves the request times and never the probe.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# About the fastest time of one probe() on the reference machine
# (2.1 GHz Xeon VM, CPython 3.11).
PROBE_NOMINAL_S = 1.0e-3
# Probe time spent after each request, as a share of the request's time.
PROBE_SHARE = 0.04
# Probes this close to a request, before or after it, are its neighbours.
WINDOW_S = 0.25
# Inside a request, a tick probes once this much time has passed since the
# last probe, so that a long request has neighbours all along it.
TICK_S = 0.05


class _Cell:
    __slots__ = ("count", "cells")

    def __init__(self) -> None:
        self.count = 0
        self.cells = [0] * 64

    def step(self, i: int) -> int:
        self.count += 1
        self.cells[i & 63] = self.cells[(i * 7) & 63] + 1
        return self.count


class _Tape:
    """A head on a list of (letter, mark) cells, as the package's tape is."""

    __slots__ = ("cells", "head", "steps")

    def __init__(self, word: str) -> None:
        self.cells = [(letter, 0) for letter in word]
        self.head = 0
        self.steps = 0

    def move_right(self) -> None:
        if self.head + 1 >= len(self.cells):
            raise IndexError("probe head ran off the tape")
        self.head += 1
        self.steps += 1

    def move_left(self) -> None:
        if self.head == 0:
            raise IndexError("probe head ran off the tape")
        self.head -= 1
        self.steps += 1

    def read(self) -> tuple[str, int]:
        self.steps += 1
        return self.cells[self.head]

    def write_mark(self, mark: int) -> None:
        self.steps += 1
        letter, _ = self.cells[self.head]
        self.cells[self.head] = (letter, mark)


_LETTERS = "lrmft" * 20
_WORD = "mtmmtlttltttftrtftff"


def probe() -> int:
    """A fixed slice of interpreted work: a loop of method calls, list
    access and small-int arithmetic, then sweeps of a head that reads and
    marks a codeword.  Either half alone tracked the tape's slowdowns with
    a slope of 0.8 or 1.1; the two together, 1.0."""
    cell = _Cell()
    for i in range(2800):
        cell.step(i)
        if _LETTERS[i % 100] == "m":
            cell.step(-i)
    tape = _Tape(_WORD)
    n = len(_WORD)
    for _ in range(7):
        for start in range(n - 1):
            while tape.head < start:
                tape.move_right()
            while tape.head < n - 1:
                tape.move_right()
                letter, mark = tape.read()
                if letter == "m" and mark == 0:
                    tape.write_mark(1)
            while tape.head > start:
                _, mark = tape.read()
                if mark:
                    tape.write_mark(0)
                tape.move_left()
    return cell.count + tape.steps


class SpeedLog:
    """Probe times by when they ran, and the reference time of an interval."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.inside = 0.0  # seconds of probing done by ticks
        self.last = perf_counter()

    def _probe_once(self) -> float:
        start = perf_counter()
        probe()
        self.last = perf_counter()
        took = self.last - start
        self.at.append(start)
        self.took.append(took)
        return took

    def probe(self, seconds: float = 0.0) -> None:
        """Probe at least once, and until ``seconds`` of probing is done."""
        spent = 0.0
        while spent == 0.0 or spent < seconds:
            spent += self._probe_once()

    def after(self, elapsed: float) -> None:
        """The probes that follow a request that took ``elapsed`` seconds."""
        self.probe(PROBE_SHARE * elapsed)

    def tick(self) -> None:
        """Called inside a request: probe if ``TICK_S`` has passed.  The
        caller subtracts the growth of ``inside`` from the request's time."""
        if perf_counter() - self.last >= TICK_S:
            self.inside += self._probe_once()

    def reference(self, start: float, end: float, inside: float = 0.0) -> float:
        """Reference seconds for the wall interval ``start``..``end``, of
        which ``inside`` seconds were ticks' probes."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        near = self.took[lo:hi]
        if not near:
            raise RuntimeError("no probe ran near a timed interval")
        return (end - start - inside) * PROBE_NOMINAL_S / statistics.median(near)
