"""Space-bounded tape procedures with exact step and space accounting.

The procedures here decide codeword legality, the relative position of two
inserted entries, and pattern avoidance, all as head-movement programs over
a BoundedTape of |w|+1 cells.  Four primitives exist — move-left,
move-right, read, write-mark — and each costs exactly one step.  The
letters are read-only and marks are an overlay channel over them, so
"return the original string on the tape" means clearing marks; every
public procedure restores the tape before returning and verifies that it
did.

Loop counters and selected cell indices are held in ordinary control state
outside the tape; all work that touches the tape is charged through the
primitives.  The space bound is enforced, not just measured: any primitive
stepping outside the |w|+1 cells raises TapeFault, which is a bug in a
procedure, never an input condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .codec import check_letters, validate
from .permutations import Basis

NO_MARK = 0
STAR = 1
DOUBLE_STAR = 2
DAGGER = 3

_MARK_TEXT = {NO_MARK: "", STAR: "*", DOUBLE_STAR: "**", DAGGER: "+"}

BLANK = " "

TraceFn = Callable[[str], None]


class TapeFault(RuntimeError):
    """A procedure broke the machine model (out of bounds, bad restoration)."""


class PairOrder(Enum):
    """Relative position of two inserted entries: the earlier-inserted entry
    either ends up to the left (ascending, "12") or to the right ("21")."""

    ASCENDING = "12"
    DESCENDING = "21"


@dataclass(frozen=True)
class TapeRun:
    """Outcome of one tape procedure, with its exact resource counters."""

    verdict: bool | PairOrder
    steps: int
    max_cells_touched: int


class BoundedTape:
    """Fixed-capacity tape: the input word plus one blank boundary cell.

    Cells hold (letter, mark) pairs; the head starts on cell 0.  The four
    primitives are ``move_left``, ``move_right``, ``read`` and
    ``write_mark``: the letters are read-only, so the tape holds its input
    exactly when no cell is marked.  Counters: ``steps`` is the number of
    primitives executed, ``max_cells_touched`` the number of distinct cells
    the head has visited (the head only moves one cell at a time from cell
    0, so that is max head index + 1).

    The tape also counts its marked cells, so ``holds_input`` answers in
    O(1).  That count is bookkeeping of the simulator, like the step
    counter, not tape contents the procedures read.

    ``seek`` and ``clear_marks`` are head-movement programs built from the
    primitives.  With a trace attached they run primitive by primitive, one
    trace line each; without one they charge the same steps and the same
    high-water mark in closed form.
    """

    __slots__ = (
        "_cells",
        "_capacity",
        "_head",
        "_steps",
        "_max_head",
        "_marked",
        "trace",
    )

    def __init__(self, word: str, trace: TraceFn | None = None) -> None:
        self._cells: list[tuple[str, int]] = [(ch, NO_MARK) for ch in word]
        self._cells.append((BLANK, NO_MARK))
        self._capacity = len(word) + 1
        self._head = 0
        self._steps = 0
        self._max_head = 0
        self._marked = 0
        self.trace = trace

    @property
    def head(self) -> int:
        return self._head

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def max_cells_touched(self) -> int:
        return self._max_head + 1

    def _emit(self, primitive: str, before: tuple[str, int], after: tuple[str, int]) -> None:
        bt = before[0] + _MARK_TEXT[before[1]]
        at = after[0] + _MARK_TEXT[after[1]]
        self.trace(f"{self._steps}\t{self._head}\t{primitive}\t{bt} -> {at}")  # type: ignore[misc]

    def move_right(self) -> None:
        if self._head + 1 >= self._capacity:
            raise TapeFault(f"head moved right past cell {self._capacity - 1}")
        self._head += 1
        self._steps += 1
        if self._head > self._max_head:
            self._max_head = self._head
        if self.trace is not None:
            cell = self._cells[self._head]
            self._emit("move-right", cell, cell)

    def move_left(self) -> None:
        if self._head == 0:
            raise TapeFault("head moved left past cell 0")
        self._head -= 1
        self._steps += 1
        if self.trace is not None:
            cell = self._cells[self._head]
            self._emit("move-left", cell, cell)

    def read(self) -> tuple[str, int]:
        self._steps += 1
        cell = self._cells[self._head]
        if self.trace is not None:
            self._emit("read", cell, cell)
        return cell

    def write_mark(self, mark: int) -> None:
        self._steps += 1
        before = self._cells[self._head]
        after = (before[0], mark)
        self._cells[self._head] = after
        if before[1] == NO_MARK:
            if mark != NO_MARK:
                self._marked += 1
        elif mark == NO_MARK:
            self._marked -= 1
        if self.trace is not None:
            self._emit("write-mark", before, after)

    # Head-movement programs with closed-form charges when untraced.

    def seek(self, pos: int) -> None:
        """Move the head to cell pos: |pos - head| moves."""
        if not 0 <= pos < self._capacity:
            raise TapeFault(f"seek to cell {pos} outside 0..{self._capacity - 1}")
        if self.trace is not None:
            while self._head < pos:
                self.move_right()
            while self._head > pos:
                self.move_left()
            return
        head = self._head
        self._steps += pos - head if pos > head else head - pos
        if pos > self._max_head:
            self._max_head = pos
        self._head = pos

    def clear_marks(self, n: int) -> None:
        """Clearing scan of cells 0..n-1: seek cell 0, then read each cell,
        write NO_MARK over a mark, and move right until cell n-1, where the
        head stays.  Costs head + n reads + (n-1) moves + one write per
        cleared mark."""
        if not 0 < n <= self._capacity:
            raise TapeFault(f"clearing scan of {n} cells on a tape of {self._capacity}")
        if self.trace is not None:
            self.seek(0)
            while True:
                _, mark = self.read()
                if mark != NO_MARK:
                    self.write_mark(NO_MARK)
                if self._head == n - 1:
                    return
                self.move_right()
        cleared = 0
        if self._marked:
            cells = self._cells
            for i in range(n):
                letter, mark = cells[i]
                if mark != NO_MARK:
                    cells[i] = (letter, NO_MARK)
                    cleared += 1
            self._marked -= cleared
        self._steps += self._head + 2 * n - 1 + cleared
        if n - 1 > self._max_head:
            self._max_head = n - 1
        self._head = n - 1

    def restore(self) -> None:
        """Clear the marks on the word's cells (charged scan) and verify the
        tape holds its input; a mark on the boundary cell, which the scan
        never visits, faults."""
        if self._capacity > 1:
            self.clear_marks(self._capacity - 1)
        if not self.holds_input():
            raise TapeFault("tape does not hold the unmarked input word")

    def holds_input(self) -> bool:
        """True iff no cell is marked: the letters never change."""
        return self._marked == 0

    # Snapshot inspection for assertions and tests; not machine work.

    def marks_clear(self) -> bool:
        return all(mark == NO_MARK for _, mark in self._cells)


# --- legality -------------------------------------------------------------

def _check_legal_on_tape(tape: BoundedTape, n: int) -> bool:
    """Marking procedure for legality.

    Repeatedly find an innermost unmarked m..f pair (only l, r, t or marked
    cells between), star both, and license one unmarked t in front of every
    insertion cell inside the pair's span.  Accept iff afterwards no
    unmarked m or t remains, no unmarked f remains before the end, and the
    last cell is an unmarked f (the one that fills the initial slot).
    """
    if n == 0:
        tape.read()
        return False
    while True:
        tape.seek(0)
        open_m = -1
        pair = None
        while True:
            letter, mark = tape.read()
            if mark == NO_MARK:
                if letter == "m":
                    open_m = tape.head
                elif letter == "f" and open_m >= 0:
                    pair = (open_m, tape.head)
                    break
            if tape.head == n - 1:
                break
            tape.move_right()
        if pair is None:
            break
        i, j = pair
        tape.write_mark(STAR)
        tape.seek(i)
        tape.write_mark(STAR)
        _license_span(tape, i, j)
    # final verification scan
    tape.seek(0)
    ok = True
    pos = 0
    while True:
        letter, mark = tape.read()
        if pos == n - 1:
            if letter != "f" or mark != NO_MARK:
                ok = False
            break
        if mark == NO_MARK and letter in "mft":
            ok = False
            break
        tape.move_right()
        pos += 1
    return ok


def _license_span(tape: BoundedTape, i: int, j: int) -> None:
    """One t-licence per insertion cell in (i, j].

    For every l, r, previously-paired m or f, and the closing f itself, mark
    a single still-unmarked t in the run immediately to its left, if any.
    Leaves the head at j.
    """
    pos = i
    while pos < j:
        tape.move_right()
        pos += 1
        letter, _ = tape.read()
        if letter == "t":
            continue
        p = pos
        while p > 0:
            tape.move_left()
            p -= 1
            run_letter, run_mark = tape.read()
            if run_letter != "t":
                break
            if run_mark == NO_MARK:
                tape.write_mark(STAR)
                break
        tape.seek(pos)


def check_legal(word: str, trace: TraceFn | None = None) -> TapeRun:
    """Decide legality on a bounded tape, restoring the word afterwards."""
    check_letters(word)
    tape = BoundedTape(word, trace)
    ok = _check_legal_on_tape(tape, len(word))
    tape.restore()
    return TapeRun(ok, tape.steps, tape.max_cells_touched)


# --- pairwise positional comparison ---------------------------------------

def _stars_beat_ts(tape: BoundedTape, z: int) -> bool:
    """True iff plain-star cells strictly outnumber the t-run before cell z.

    Pairs run t's (marked with a dagger) against starred cells (remarked
    with a double star), both scanned right to left, shuttling the head
    between the two regions.  All marks placed here are undone before
    returning; the head ends back on z.
    """
    t_scan = z
    lo = z  # leftmost cell this shuttle may have marked
    result: bool | None = None
    while result is None:
        tape.seek(t_scan)
        p = t_scan
        found_t = -1
        boundary_star = False
        while p > 0:
            tape.move_left()
            p -= 1
            letter, mark = tape.read()
            if letter != "t":
                boundary_star = mark == STAR
                break
            if mark == NO_MARK:
                found_t = p
                break
        if found_t < 0:
            # run exhausted: stars win iff an unmatched star remains
            if boundary_star:
                result = True
                break
            result = False
            while p > 0:
                tape.move_left()
                p -= 1
                _, mark = tape.read()
                if mark == STAR:
                    result = True
                    break
            break
        tape.write_mark(DAGGER)
        if found_t < lo:
            lo = found_t
        t_scan = found_t
        q = found_t
        found_s = -1
        while q > 0:
            tape.move_left()
            q -= 1
            _, mark = tape.read()
            if mark == STAR:
                found_s = q
                break
        if found_s < 0:
            result = False
        else:
            tape.write_mark(DOUBLE_STAR)
            if found_s < lo:
                lo = found_s
    # undo shuttle marks: daggers cleared, double stars back to stars
    tape.seek(z)
    p = z
    while p > lo:
        tape.move_left()
        p -= 1
        _, mark = tape.read()
        if mark == DAGGER:
            tape.write_mark(NO_MARK)
        elif mark == DOUBLE_STAR:
            tape.write_mark(STAR)
    tape.seek(z)
    return result


def _drop_rightmost_star(tape: BoundedTape, z: int) -> bool:
    """Clear the star nearest to the left of z; report whether stars remain."""
    p = z
    cleared = False
    remain = False
    while p > 0:
        tape.move_left()
        p -= 1
        _, mark = tape.read()
        if mark == STAR:
            if cleared:
                remain = True
                break
            tape.write_mark(NO_MARK)
            cleared = True
    if not cleared:
        raise TapeFault("asked to drop a star but none exists")
    tape.seek(z)
    return remain


def _compare_on_tape(tape: BoundedTape, x_pos: int, y_pos: int) -> PairOrder:
    """Positional order of the entries inserted at cells x_pos < y_pos.

    Stars the t-run before x (plus x itself when it is r or m), so the star
    count equals the number of open slots left of x's entry.  Walking right,
    every m or f whose own t-run is beaten by the stars inserts left of x
    and bumps the count up or down.  If the stars ever run out, x's entry
    has no open slot to its left and the answer is ascending.  At y, stars
    strictly exceeding y's t-run means y inserts left of x: descending.
    """
    tape.seek(x_pos)
    x_letter, _ = tape.read()
    have_stars = False
    if x_letter in "rm":
        tape.write_mark(STAR)
        have_stars = True
    p = x_pos
    while p > 0:
        tape.move_left()
        p -= 1
        letter, _ = tape.read()
        if letter != "t":
            break
        tape.write_mark(STAR)
        have_stars = True
    if not have_stars:
        return PairOrder.ASCENDING
    tape.seek(x_pos)
    pos = x_pos
    while True:
        tape.move_right()
        pos += 1
        letter, _ = tape.read()
        if pos == y_pos:
            beat = _stars_beat_ts(tape, pos)
            return PairOrder.DESCENDING if beat else PairOrder.ASCENDING
        if letter == "m":
            if _stars_beat_ts(tape, pos):
                tape.write_mark(STAR)
        elif letter == "f":
            if _stars_beat_ts(tape, pos):
                if not _drop_rightmost_star(tape, pos):
                    return PairOrder.ASCENDING


def compare(word: str, x_pos: int, y_pos: int, trace: TraceFn | None = None) -> TapeRun:
    """Decide whether the entry inserted at x_pos lands before or after the
    one inserted at y_pos, on a bounded tape, restoring the word afterwards.

    Preconditions (violations raise ValueError): x_pos < y_pos, both cells
    hold insertion letters, and the word is a legal codeword.
    """
    verdict = validate(word)  # raises first on a foreign letter
    n = len(word)
    if not (0 <= x_pos < y_pos < n):
        raise ValueError(f"need 0 <= x_pos < y_pos < {n}, got {x_pos}, {y_pos}")
    if word[x_pos] == "t" or word[y_pos] == "t":
        raise ValueError("compared cells must hold insertion letters, not t")
    if not verdict:
        raise ValueError(f"compare requires a legal codeword: {verdict.reason}")
    tape = BoundedTape(word, trace)
    order = _compare_on_tape(tape, x_pos, y_pos)
    tape.restore()
    return TapeRun(order, tape.steps, tape.max_cells_touched)


# --- pattern avoidance -----------------------------------------------------

def _insertion_cells(tape: BoundedTape, n: int) -> list[int]:
    cells = []
    tape.seek(0)
    while True:
        letter, _ = tape.read()
        if letter != "t":
            cells.append(tape.head)
        if tape.head == n - 1:
            break
        tape.move_right()
    return cells


def _avoids_on_tape(tape: BoundedTape, n: int, pattern: tuple[int, ...]) -> bool:
    """Legality check, then a depth-first search for an occurrence.

    The insertion cells are in value order, so a tuple of cells taken left
    to right holds the values 1..k of a candidate occurrence.  The search
    extends a tuple of cell indices in lexicographic order: level j tries
    each cell y after the one chosen at level j-1 (while k-j cells remain)
    and compares it with the chosen cells in order; the first pair whose
    order disagrees with the pattern prunes y and everything below it.  A
    full k-tuple is an occurrence.  Control state is the pattern's inverse
    and the chosen cell indices; every compare is followed by a restore.
    """
    legal = _check_legal_on_tape(tape, n)
    tape.restore()
    if not legal:
        return False
    k = len(pattern)
    cells = _insertion_cells(tape, n)
    if k > len(cells):
        return True
    place = [0] * k  # place[r]: position of value rank r+1 in the pattern
    for position, rank in enumerate(pattern):
        place[rank - 1] = position
    chosen: list[int] = []
    i = 0
    while True:
        j = len(chosen)
        if i > len(cells) - k + j:  # fewer than k-j cells left: back up
            if j == 0:
                return True
            i = chosen.pop() + 1
            continue
        y = cells[i]
        for a in range(j):
            order = _compare_on_tape(tape, cells[chosen[a]], y)
            tape.restore()
            # y's entry lies left of chosen[a]'s iff rank j+1 precedes rank a+1
            if (order is PairOrder.DESCENDING) != (place[j] < place[a]):
                break
        else:
            if j + 1 == k:
                return False
            chosen.append(i)
        i += 1


def accepts_basis(word: str, basis: Basis, trace: TraceFn | None = None) -> TapeRun:
    """Accept iff the word is a legal codeword whose permutation avoids every
    pattern in the basis; a single pattern p is ``Basis([p])``.

    Runs the single-pattern procedure once per pattern on the same tape;
    each run leaves the codeword unmarked for the next.
    """
    check_letters(word)
    tape = BoundedTape(word, trace)
    ok = all(_avoids_on_tape(tape, len(word), pattern.ranks) for pattern in basis)
    return TapeRun(ok, tape.steps, tape.max_cells_touched)


# --- primality by sieve strides --------------------------------------------

def is_prime(n: int, trace: TraceFn | None = None) -> TapeRun:
    """Sieve on a tape of n cells: for each i in 2..n-1, stride i cells at a
    time from cell i; landing exactly on the last cell means i divides n.

    Accepts iff no i divides n, with n = 1 rejected outright.  Uses at most
    n + 1 cells (the word plus its blank boundary).
    """
    if n < 1:
        raise ValueError("n must be positive")
    tape = BoundedTape("a" * n, trace)
    verdict = True
    if n == 1:
        tape.read()
        verdict = False
    else:
        for i in range(2, n):
            tape.seek(i - 1)
            tape.write_mark(STAR)
            pos = i - 1
            divides = False
            while True:
                hop = min(i, n - pos)
                pos += hop
                tape.seek(pos)
                letter, _ = tape.read()
                if letter == BLANK or hop < i:
                    break
                tape.write_mark(DAGGER)
                if pos == n - 1:
                    divides = True
                    break
            # clear this round's marks walking back to the start
            while pos > 0:
                tape.move_left()
                pos -= 1
                _, mark = tape.read()
                if mark != NO_MARK:
                    tape.write_mark(NO_MARK)
            if divides:
                verdict = False
                break
    tape.restore()
    return TapeRun(verdict, tape.steps, tape.max_cells_touched)
