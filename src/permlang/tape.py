"""Space-bounded tape procedures with exact step and space accounting.

The procedures here decide codeword legality, the relative position of two
inserted entries, and pattern avoidance, all as head-movement programs over
a BoundedTape of |w|+1 cells.  Four primitives exist — move-left,
move-right, read, write-mark — and each costs exactly one step.  The
letters are read-only and marks are an overlay channel over them, so
"return the original string on the tape" means clearing marks; every
procedure ends on a restored tape.

Loop counters and selected cell indices are held in ordinary control state
outside the tape; all work that touches the tape is charged through the
primitives.  The space bound is enforced, not just measured: any primitive
stepping outside the |w|+1 cells raises TapeFault, which is a bug in a
procedure, never an input condition.

Traced, every procedure runs primitive by primitive on a BoundedTape and
ends in ``restore``, the clearing scan, which verifies the tape and leaves
the head on the word's last cell.  Untraced, no tape is built: legality,
the compare (one walk from x gives its whole row) and the sieve are
functions of the word and a start head that return the traced run's
verdict and steps, its restore included, and the occurrence search reads
each compare from a table of those rows.  Every word procedure reaches
the word's last cell and no further, so its high-water mark is |w| cells.
"""

from __future__ import annotations

import functools
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

# Rewrites for BoundedTape.rewrite_left: undo a shuttle's daggers and
# double stars, and clear every mark.
_UNDO_SHUTTLE = bytes.maketrans(bytes([DAGGER, DOUBLE_STAR]), bytes([NO_MARK, STAR]))
_CLEAR = bytes.maketrans(bytes([STAR, DOUBLE_STAR, DAGGER]), bytes(3))

TraceFn = Callable[[str], None]
# A row of compares of one insertion cell: (descending, steps) per later cell
Row = list[tuple[bool, int]]


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

    The letters are an immutable string and the marks a ``bytearray`` over
    it, one byte per cell; the head starts on cell 0.  The four primitives
    are ``move_left``, ``move_right``, ``read`` and ``write_mark``: the
    letters are read-only, so the tape holds its input exactly when no cell
    is marked.  Counters: ``steps`` is the number of primitives executed,
    ``max_cells_touched`` the number of distinct cells the head has visited
    (the head only moves one cell at a time from cell 0, so that is max
    head index + 1).

    The methods after the primitives are head-movement programs built from
    them: ``seek``, ``scan_insertions``, ``left_past_marked_ts``,
    ``left_to_star``, ``star_t_run``, ``rewrite_left``, ``right_to_m_or_f``,
    ``right_to_pair``, ``right_to_unmarked_mft`` and ``restore`` (the
    clearing scan).  ``scan_insertions``, ``right_to_pair`` and
    ``right_to_unmarked_mft`` take no range: each stops on the word's last
    cell.  Every program runs primitive by primitive, one trace line a
    primitive when traced, and none has a closed form.  They serve the
    four procedures, which build a tape only when traced: ``right_to_pair``,
    ``left_past_marked_ts`` and ``right_to_unmarked_mft`` serve legality;
    ``left_past_marked_ts``, ``left_to_star``, ``star_t_run``,
    ``rewrite_left`` and ``right_to_m_or_f`` the positional compare;
    ``scan_insertions`` the occurrence search; ``rewrite_left`` the sieve;
    and ``restore`` ends each of them.
    """

    __slots__ = (
        "_letters",
        "_marks",
        "_blank",
        "_capacity",
        "_head",
        "_steps",
        "_max_head",
        "trace",
    )

    def __init__(self, word: str, trace: TraceFn | None = None) -> None:
        self._letters = word + BLANK
        self._capacity = cap = len(word) + 1
        self._marks = bytearray(cap)
        self._blank = bytes(cap)
        self._head = 0
        self._steps = 0
        self._max_head = 0
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
            cell = (self._letters[self._head], self._marks[self._head])
            self._emit("move-right", cell, cell)

    def move_left(self) -> None:
        if self._head == 0:
            raise TapeFault("head moved left past cell 0")
        self._head -= 1
        self._steps += 1
        if self.trace is not None:
            cell = (self._letters[self._head], self._marks[self._head])
            self._emit("move-left", cell, cell)

    def read(self) -> tuple[str, int]:
        self._steps += 1
        cell = (self._letters[self._head], self._marks[self._head])
        if self.trace is not None:
            self._emit("read", cell, cell)
        return cell

    def write_mark(self, mark: int) -> None:
        self._steps += 1
        head = self._head
        if self.trace is not None:
            letter = self._letters[head]
            before = self._marks[head]
            self._marks[head] = mark
            self._emit("write-mark", (letter, before), (letter, mark))
        else:
            self._marks[head] = mark

    # Head-movement programs, each a primitive loop.

    def seek(self, pos: int) -> None:
        """Move the head to cell pos: |pos - head| moves."""
        if not 0 <= pos < self._capacity:
            raise TapeFault(f"seek to cell {pos} outside 0..{self._capacity - 1}")
        while self._head < pos:
            self.move_right()
        while self._head > pos:
            self.move_left()

    def scan_insertions(self) -> list[int]:
        """Seek cell 0, then read each cell and move right until the word's
        last cell, where the head stays.  Returns the cells whose letter is
        not t."""
        last = self._capacity - 2
        cells = []
        self.seek(0)
        while True:
            letter, _ = self.read()
            if letter != "t":
                cells.append(self._head)
            if self._head == last:
                return cells
            self.move_right()

    def left_past_marked_ts(self, start: int) -> tuple[str, int] | None:
        """Seek cell start, then move left and read until the cell read is
        not a t or is an unmarked t, or cell 0 has been read.  Returns the
        last cell read, None when start is cell 0."""
        self.seek(start)
        cell = None
        while self._head > 0:
            self.move_left()
            cell = self.read()
            if cell[0] != "t" or cell[1] == NO_MARK:
                break
        return cell

    def left_to_star(self) -> int:
        """Move left and read until a STAR is read or cell 0 has been read.
        Returns the starred cell, or -1 when there is none."""
        while self._head > 0:
            self.move_left()
            if self.read()[1] == STAR:
                return self._head
        return -1

    def star_t_run(self) -> int:
        """Move left and read until a letter other than t is read or cell 0
        has been read, writing STAR on every t read.  Returns the number of
        t's starred."""
        starred = 0
        while self._head > 0:
            self.move_left()
            if self.read()[0] != "t":
                break
            self.write_mark(STAR)
            starred += 1
        return starred

    def rewrite_left(self, start: int, lo: int, table: bytes) -> None:
        """Seek cell start, then move left and read until the head is on
        cell lo, writing table[mark] over every mark the table changes;
        table is a ``bytes.maketrans`` table over the marks."""
        if lo < 0:
            raise TapeFault(f"rewrite scan down to cell {lo}")
        self.seek(start)
        while self._head > lo:
            self.move_left()
            _, mark = self.read()
            if table[mark] != mark:
                self.write_mark(table[mark])

    def right_to_m_or_f(self, stop: int) -> tuple[str, int]:
        """Move right and read until the head is on cell stop or the letter
        read is m or f.  Returns the last cell read."""
        while True:
            self.move_right()
            cell = self.read()
            if self._head == stop or cell[0] in "mf":
                return cell

    def right_to_pair(self) -> int:
        """Read, then move right and read, until an unmarked f has been read
        after an unmarked m, or the word's last cell has been read.  Returns
        the last unmarked m read before that f, or -1 when there is none."""
        last = self._capacity - 2
        open_m = -1
        while True:
            letter, mark = self.read()
            if mark == NO_MARK:
                if letter == "m":
                    open_m = self._head
                elif letter == "f" and open_m >= 0:
                    return open_m
            if self._head == last:
                return -1
            self.move_right()

    def right_to_unmarked_mft(self) -> tuple[str, int]:
        """Read, then move right and read, until an unmarked m, f or t has
        been read, or the word's last cell has been read.  Returns the last
        cell read."""
        last = self._capacity - 2
        while True:
            cell = self.read()
            if self._head == last or (cell[1] == NO_MARK and cell[0] in "mft"):
                return cell
            self.move_right()

    def restore(self) -> None:
        """Clearing scan, then verify the tape holds its input.  The scan
        seeks cell 0, then reads each of the word's n cells, writes NO_MARK
        over a mark and moves right until the last letter, where the head
        stays: head + n reads + (n-1) moves + one write per cleared mark.
        A mark on the boundary cell, which the scan never visits, faults.
        The closed forms charge this cost as their last term."""
        last = self._capacity - 2
        if last >= 0:
            self.seek(0)
            while True:
                if self.read()[1] != NO_MARK:
                    self.write_mark(NO_MARK)
                if self._head == last:
                    break
                self.move_right()
        if self._marks != self._blank:
            raise TapeFault("tape does not hold the unmarked input word")

    def holds_input(self) -> bool:
        """True iff no cell is marked: the letters never change."""
        return self._marks == self._blank

    # Snapshot inspection for assertions and tests; not machine work.

    def snapshot(self) -> tuple[str, bytes]:
        """The letters (boundary blank included) and a copy of the marks."""
        return self._letters, bytes(self._marks)


# --- legality -------------------------------------------------------------

def _check_legal_on_tape(tape: BoundedTape, n: int) -> bool:
    """Marking procedure for legality.

    Repeatedly find an innermost unmarked m..f pair (only l, r, t or marked
    cells between), star both, and license one unmarked t in front of every
    insertion cell inside the pair's span.  Accept iff afterwards no
    unmarked m or t remains, no unmarked f remains before the end, and the
    last cell is an unmarked f (the one that fills the initial slot).

    It starts on an unmarked tape and faults otherwise, before any step,
    and ends restored with the head on cell n-1 (the empty word's run is
    its one read).  It runs ``right_to_pair``, ``_license_span`` and
    ``right_to_unmarked_mft`` primitive by primitive, then ``restore``;
    ``_legal_closed_form`` gives its verdict and steps without a tape.
    """
    if not tape.holds_input():
        raise TapeFault("legality started on a tape that does not hold its input")
    if n == 0:
        tape.read()
        return False
    while True:
        tape.seek(0)
        i = tape.right_to_pair()
        if i < 0:
            break
        j = tape.head
        tape.write_mark(STAR)
        tape.seek(i)
        tape.write_mark(STAR)
        _license_span(tape, i, j)
    # final verification scan
    tape.seek(0)
    letter, mark = tape.right_to_unmarked_mft()
    legal = tape.head == n - 1 and letter == "f" and mark == NO_MARK
    tape.restore()
    return legal


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
        if tape.left_past_marked_ts(pos) == ("t", NO_MARK):
            tape.write_mark(STAR)
        tape.seek(pos)


def _legal_closed_form(word: str, cells: list[int], head: int) -> tuple[bool, int]:
    """The verdict and steps of ``_check_legal_on_tape`` on the word from a
    head on cell head of an unmarked tape, restore included; cells holds
    the word's insertion cells (those whose letter is not t), left to right.

    The empty word's run is one read.  Otherwise the loop stars exactly the
    bracket matching of m (open) and f (close), in increasing order of the
    f, so one pass with a stack of open m's gives every pair (i, j) in the
    loop's order.  A round costs the seek to cell 0 from the previous head
    (the last j, or the start), 2j+1 for ``right_to_pair``, two stars, j-i
    back to i and 2(j-i) for the span walk.  An insertion cell inside d
    spans, with a t-run of r before it, has its licences taken from the
    right of that run, so its c-th visit (c = 0, 1, ...) walks past c
    licensed t's and pays 3c+4 while c < r, and 3(r+1) after that, or 3r
    when the run reaches cell 0.  The end pays the seek to 0, 2n-1 for the
    last pair scan, n-1 back to 0 and 2p+1 for the verification scan, which
    stops on p, the first unmarked m, f or t, or on n-1.  The restore from
    p pays p + 2n-1 and a write per star: two a pair and one a licence.
    The verdict's f on n-1 is unmarked unless it closed a pair: a licence
    only ever marks a t.
    """
    n = len(word)
    if n == 0:
        return False, 1
    opened: list[int] = []  # indices into cells of the m's still open
    spans = [0] * (len(cells) + 1)  # difference array of the nesting depth
    stop = n - 1  # the verification scan's stop
    paired = -1  # the last f paired
    steps = head + 3 * n - 1
    for c, pos in enumerate(cells):
        letter = word[pos]
        if letter == "m":
            opened.append(c)
        elif letter == "f":
            if opened:
                a = opened.pop()
                i = cells[a]
                # the round, the seek to 0 from pos after it, and the
                # restore's two writes over the pair's stars
                steps += 5 + 3 * pos + 3 * (pos - i)
                paired = pos
                spans[a + 1] += 1
                spans[c + 1] -= 1
            elif pos < stop:
                stop = pos
    if opened and cells[opened[0]] < stop:
        stop = cells[opened[0]]
    depth = 0
    prev = -1
    for c, pos in enumerate(cells):
        depth += spans[c]
        run = pos - prev - 1
        licensed = depth if depth < run else run
        if depth:  # the visits, and the restore's write over each licence
            steps += licensed * (3 * licensed + 7) // 2
            steps += 3 * (depth - licensed) * (pos - (prev if prev > 0 else 0))
        if licensed < run and prev + 1 < stop:
            stop = prev + 1
        prev = pos
    if prev + 1 < stop:  # a bare run of t's ends the word
        stop = prev + 1
    # the verification scan to stop, then the restore from there
    legal = stop == n - 1 and word[stop] == "f" and paired != stop
    return legal, steps + 3 * stop + 2 * n - 1


def check_legal(word: str, trace: TraceFn | None = None) -> TapeRun:
    """Decide legality on a bounded tape, which ends holding the word."""
    check_letters(word)
    if trace is None:
        cells = [pos for pos, letter in enumerate(word) if letter != "t"]
        return TapeRun(*_legal_closed_form(word, cells, 0), len(word) or 1)
    tape = BoundedTape(word, trace)
    ok = _check_legal_on_tape(tape, len(word))
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
    while True:
        cell = tape.left_past_marked_ts(t_scan)
        if cell != ("t", NO_MARK):
            # run exhausted: stars win iff an unmatched star remains
            result = cell is not None and cell[0] != "t" and cell[1] == STAR
            if not result:
                result = tape.left_to_star() >= 0
            break
        tape.write_mark(DAGGER)
        t_scan = tape.head
        if t_scan < lo:
            lo = t_scan
        found_s = tape.left_to_star()
        if found_s < 0:
            result = False
            break
        tape.write_mark(DOUBLE_STAR)
        if found_s < lo:
            lo = found_s
    # undo shuttle marks: daggers cleared, double stars back to stars
    if lo < z:
        tape.rewrite_left(z, lo, _UNDO_SHUTTLE)
    tape.seek(z)
    return result


def _drop_rightmost_star(tape: BoundedTape, z: int) -> bool:
    """Clear the star nearest to the left of z; report whether stars remain."""
    if tape.left_to_star() < 0:
        raise TapeFault("asked to drop a star but none exists")
    tape.write_mark(NO_MARK)
    remain = tape.left_to_star() >= 0
    tape.seek(z)
    return remain


def _compare_on_tape(tape: BoundedTape, cells: list[int], a: int, b: int) -> PairOrder:
    """Positional order of the entries inserted at cells[a] and cells[b].

    cells holds the word's insertion cells (those whose letter is not t)
    from left to right, as ``scan_insertions`` returns them, and a < b
    index into it; call x = cells[a] and y = cells[b].  Stars the t-run
    before x (plus x itself when it is r or m), so the star count equals
    the number of open slots left of x's entry.  Walking right, every m or
    f whose own t-run is beaten by the stars inserts left of x and bumps
    the count up or down.  If the stars ever run out, x's entry has no open
    slot to its left and the answer is ascending.  At y, stars strictly
    exceeding y's t-run means y inserts left of x: descending.

    It starts on an unmarked tape, with 0 <= a < b < len(cells), and
    faults otherwise, and ends restored with the head on the word's last
    cell.  It runs the programs and shuttles above primitive by primitive,
    then ``restore``, which clears the stars; the last entry of
    ``_compare_row``'s walk from x to y gives its verdict and steps
    without a tape.
    """
    if not tape.holds_input():
        raise TapeFault("compare started on a tape that does not hold its input")
    if not 0 <= a < b < len(cells):
        raise TapeFault(f"compare of insertion cells {a}, {b}: need 0 <= a < b < {len(cells)}")
    x_pos, y_pos = cells[a], cells[b]
    tape.seek(x_pos)
    x_letter, _ = tape.read()
    x_starred = x_letter in "rm"
    if x_starred:
        tape.write_mark(STAR)
    descending = False
    if tape.star_t_run() or x_starred:
        tape.seek(x_pos)
        while True:
            letter, _ = tape.right_to_m_or_f(y_pos)
            pos = tape.head
            if pos == y_pos:
                descending = _stars_beat_ts(tape, pos)
                break
            if letter == "m":
                if _stars_beat_ts(tape, pos):
                    tape.write_mark(STAR)
            # an f: a won shuttle drops a star, and with none left x's entry
            # has no open slot to its left
            elif _stars_beat_ts(tape, pos) and not _drop_rightmost_star(tape, pos):
                break
    tape.restore()
    return PairOrder.DESCENDING if descending else PairOrder.ASCENDING


def _compare_row(word: str, cells: list[int], a: int, last: int, head: int) -> Row:
    """The compare's closed form: the row of ``_compare_on_tape`` of a with
    each c = a+1..last on the word, from a head on cell head of an unmarked
    tape.  Entry c-a-1 is (whether it is descending, its steps, the closing
    restore's included: the head the walk leaves, 2n-1 and a write per
    star).

    The compare's only marks are its stars, which change only at their
    right end: the start pushes x's t-run (and x when it is r or m), a won
    shuttle at an m pushes the m, one at an f pops.  The walk right from x
    is the same for every y up to y, so one walk gives the row: at cell c
    the shuttle at c is entry c, and only an m or f moves the walk on.
    Every star lies left of the shuttled cell z, and z's t-run lies right
    of x, unmarked.  The cells between two neighbouring insertion cells
    are t's, so x's t-run starts after cells[a-1] (or at cell 0) and z's
    after the insertion cell before it.  The shuttle pairs the t's z-1,
    ..., z-r with the stars S[-1], ..., S[-r], so it wins iff len(S) > r,
    and its steps are sums of the distances between paired cells.  The
    walk passes each insertion cell at 2 steps.  Once the stars run out,
    every later compare is ascending with the same steps.
    """
    restore = 2 * len(word) - 1
    x_pos = cells[a]
    # seek x, read it, star it when r or m, then star_t_run
    steps = abs(x_pos - head) + 1
    x_starred = word[x_pos] in "rm"
    run_stop = cells[a - 1] if a else -1
    run = x_pos - run_stop - 1
    head = run_stop if run_stop >= 0 else 0
    steps += x_starred + 2 * (x_pos - head) + run
    stars = list(range(run_stop + 1, x_pos + x_starred))
    row: Row = []
    if stars:
        steps += x_pos - head  # seek x
        head = x_pos
        for c in range(a + 1, last + 1):
            z = cells[c]
            # right_to_m_or_f to z, then the shuttle at z: it pairs the t
            # on z-k with the star S[-k] for k = 1, 2, ...: 4 steps per
            # pair plus 3 times the sum of their distances (paired), then
            # the walk on to the next star or to cell 0, and the undo scan
            # down to the leftmost paired cell; the terms are summed from
            # the loops of _stars_beat_ts
            here = steps + 2 * (z - head)
            r = z - cells[c - 1] - 1
            s = len(stars)
            if s > r:  # won: r pairs, and S[-r-1] is left over
                here += 3 * (z - stars[-r - 1])
                if r:
                    paired = r * z - r * (r + 1) // 2 - sum(stars[-r:])
                    here += 4 * r + 3 * paired + 3 * (z - stars[-r])
                beat = True
            else:  # lost: s pairs, then a dagger on z-s-1 unless s == r
                paired = s * z - s * (s + 1) // 2 - sum(stars)
                here += 4 * s + 3 * paired + 6 * z - 3 * stars[0] + (2 if s < r else 0)
                beat = False
            row.append((beat, here + z + restore + s))
            if c == last:
                break
            letter = word[z]
            if letter not in "mf":
                continue  # right_to_m_or_f passes an l or r
            steps = here
            head = z
            if beat:
                if letter == "m":
                    stars.append(z)
                    steps += 1
                else:  # drop the rightmost star: walk to it, clear it,
                    stars.pop()  # then walk to the next one and back to z
                    steps += 3 * (z - (stars[-1] if stars else 0)) + 1
                    if not stars:
                        break
    row += [(False, steps + head + restore)] * (last - a - len(row))
    return row


def compare(word: str, x_pos: int, y_pos: int, trace: TraceFn | None = None) -> TapeRun:
    """Decide whether the entry inserted at x_pos lands before or after the
    one inserted at y_pos, on a bounded tape, which ends holding the word.

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
    # the insertion cells, as bookkeeping of the simulator like the step
    # counter: the occurrence search scans them on the tape instead
    cells = [i for i, letter in enumerate(word) if letter != "t"]
    a, b = cells.index(x_pos), cells.index(y_pos)
    if trace is None:
        descending, steps = _compare_row(word, cells, a, b, 0)[-1]
        order = PairOrder.DESCENDING if descending else PairOrder.ASCENDING
        return TapeRun(order, steps, n)
    tape = BoundedTape(word, trace)
    order = _compare_on_tape(tape, cells, a, b)
    return TapeRun(order, tape.steps, tape.max_cells_touched)


# --- pattern avoidance -----------------------------------------------------

# Occurrence-search plans kept at once, like ``re``'s compiled-pattern
# cache: far more than the patterns of any one basis or benchmark pass.
_PLAN_CACHE_SIZE = 512


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _neighbours(pattern: tuple[int, ...]) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """The occurrence search's plan for the pattern: entry j holds level
    j's left, then right, positional neighbour among levels 0..j-1, as
    (level a, whether the new cell's entry must lie left of a's), either
    one missing when no chosen rank stands on that side.  It depends on
    the pattern alone, so it is built once and cached."""
    k = len(pattern)
    place = [0] * k  # place[r]: position of value rank r+1 in the pattern
    for position, rank in enumerate(pattern):
        place[rank - 1] = position
    plan = []
    for j in range(k):
        before = [a for a in range(j) if place[a] < place[j]]
        after = [a for a in range(j) if place[a] > place[j]]
        pair = []
        if before:
            pair.append((max(before, key=place.__getitem__), False))
        if after:
            pair.append((min(after, key=place.__getitem__), True))
        plan.append(tuple(pair))
    return tuple(plan)


def _avoids(
    cells: list[int], pattern: tuple[int, ...], descending: Callable[[list[int], int, int], bool]
) -> bool:
    """Depth-first search for an occurrence of the pattern; True iff none.

    The insertion cells are in value order, so a tuple of cells taken left
    to right holds the values 1..k of a candidate occurrence.  The search
    extends a tuple of cell indices in lexicographic order: level j tries
    each cell y after the one chosen at level j-1 (while k-j cells remain)
    and compares it with at most two chosen cells, its positional
    neighbours in the pattern: first the left one (the chosen level whose
    rank stands nearest before rank j+1 in the pattern, so y's entry must
    lie to its right: ascending), then the right one (nearest after:
    descending).  The chosen entries already stand in the pattern's
    positional order, so y agrees with every chosen cell exactly when it
    agrees with those two; a disagreement prunes y and everything below
    it.  A full k-tuple is an occurrence.  Control state is the chosen
    cell indices and the pattern's neighbour table, ``_neighbours``,
    which is built once per pattern, not once per word.

    ``descending(chosen, a, y)`` makes the compare of the cell chosen at
    level a with the candidate y, both indices into cells, and says
    whether it is descending.
    """
    nbrs = _neighbours(pattern)
    k = len(pattern)
    slack = len(cells) - k
    chosen: list[int] = []
    i = 0
    while True:
        j = len(chosen)
        if i > slack + j:  # fewer than k-j cells left: back up
            if j == 0:
                return True
            i = chosen.pop() + 1
            continue
        for a, desc in nbrs[j]:
            if descending(chosen, a, i) != desc:
                break
        else:
            if j + 1 == k:
                return False
            chosen.append(i)
        i += 1


def _avoids_on_tape(tape: BoundedTape, n: int, pattern: tuple[int, ...]) -> bool:
    """One pattern pass on the tape: legality, ``scan_insertions``, then the
    search with every compare on the tape; each ends on cell n-1."""
    if not _check_legal_on_tape(tape, n):
        return False
    cells = tape.scan_insertions()
    return _avoids(cells, pattern, lambda chosen, a, y: (
        _compare_on_tape(tape, cells, chosen[a], y) is PairOrder.DESCENDING))


def accepts_basis(word: str, basis: Basis, trace: TraceFn | None = None) -> TapeRun:
    """Accept iff the word is a legal codeword whose permutation avoids every
    pattern in the basis; a single pattern p is ``Basis([p])``.

    Runs the single-pattern procedure once per pattern on the same tape;
    each run leaves the codeword unmarked for the next.  Untraced, every
    compare starts on an unmarked tape with the head on cell n-1, where
    legality, the scan and every compare leave it, so it depends on the
    word and its two cells alone: the search reads it from a table of
    ``_compare_row`` rows, one per x, built the first time x is compared
    and shared by the basis's patterns.  The insertion cells are listed
    once, for legality and the search alike.
    """
    check_letters(word)
    n = len(word)
    if trace is not None:
        tape = BoundedTape(word, trace)
        ok = all(_avoids_on_tape(tape, n, pattern.ranks) for pattern in basis)
        return TapeRun(ok, tape.steps, tape.max_cells_touched)
    cells = [pos for pos, letter in enumerate(word) if letter != "t"]
    legal, legality = _legal_closed_form(word, cells, 0)
    if not legal:
        return TapeRun(False, legality, n or 1)
    rows: list[Row | None] = [None] * len(cells)

    def descending(chosen: list[int], a: int, y: int) -> bool:
        nonlocal steps
        x = chosen[a]
        row = rows[x]
        if row is None:
            row = rows[x] = _compare_row(word, cells, x, len(cells) - 1, n - 1)
        verdict, cost = row[y - x - 1]
        steps += cost
        return verdict

    steps = 1 - n  # the first pass starts on cell 0, not n-1
    for pattern in basis:
        # legality from n-1 (its head counts only in its seek to cell 0),
        # then scan_insertions from n-1: head + 2n - 1
        steps += n - 1 + legality + 3 * n - 2
        if not _avoids(cells, pattern.ranks, descending):
            return TapeRun(False, steps, n)
    return TapeRun(True, steps, n)


# --- primality by sieve strides --------------------------------------------

def _sieve_closed_form(n: int) -> tuple[bool, int, int]:
    """The verdict, steps and cells touched of ``is_prime``'s sieve with the
    final restore, from a head on cell 0 of an unmarked tape of n cells.

    n = 1 is rejected with one read and a one-cell restore.  Round i
    starts on cell 0 and daggers the d = n//i - 1 stride cells below n.
    When i does not divide n it costs 3n + 3d + 3: i-1 moves to the star,
    the star, n-i+1 moves to the blank cell n with a read on each stride
    cell and on cell n, d daggers, and the clearing walk back to cell 0,
    two steps a cell plus one write per mark.  The first i that divides n
    ends its strides on cell n-1 and walks back from there, leaving that
    dagger for the final restore: 3n + 3d - 2.  The restore from cell 0
    pays 2n-1, plus one write when a dagger is left.
    """
    if n == 1:
        return False, 2, 1
    steps = 2 * n - 1  # the final restore from cell 0
    cells = n
    for i in range(2, n):
        d = n // i - 1
        if n % i == 0:  # plus the restore's write over the dagger on n-1
            return False, steps + 3 * (n + d) - 1, cells
        steps += 3 * (n + d + 1)
        cells = n + 1
    return True, steps, cells


def is_prime(n: int, trace: TraceFn | None = None) -> TapeRun:
    """Sieve on a tape of n cells: for each i in 2..n-1, stride i cells at a
    time from cell i; landing exactly on the last cell means i divides n.

    Accepts iff no i divides n, with n = 1 rejected outright.  Uses at most
    n + 1 cells (the word plus its blank boundary).  With a trace attached
    the sieve runs primitive by primitive, Θ(n²) trace lines for a prime n,
    then the final restore; without one, ``_sieve_closed_form`` gives the
    same verdict and counters without a tape.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if trace is None:
        return TapeRun(*_sieve_closed_form(n))
    tape = BoundedTape("a" * n, trace)
    if n == 1:
        tape.read()
    verdict = n > 1
    for i in range(2, n):
        tape.seek(i - 1)
        tape.write_mark(STAR)
        pos = i - 1
        while True:
            hop = min(i, n - pos)
            pos += hop
            tape.seek(pos)
            letter, _ = tape.read()
            if letter == BLANK or hop < i:
                break
            tape.write_mark(DAGGER)
            if pos == n - 1:  # i divides n
                verdict = False
                break
        # clear this round's marks walking back to the start
        tape.rewrite_left(pos, 0, _CLEAR)
        if not verdict:
            break
    tape.restore()
    return TapeRun(verdict, tape.steps, tape.max_cells_touched)
