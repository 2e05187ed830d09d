"""Space-bounded tape procedures with exact step and space accounting.

The procedures here decide codeword legality, the relative position of two
inserted entries, and pattern avoidance, all as head-movement programs over
a BoundedTape of |w|+1 cells.  Four primitives exist — move-left,
move-right, read, write-mark — and each costs exactly one step.  The
letters are read-only and marks are an overlay channel over them, so
"return the original string on the tape" means clearing marks; every
procedure ends on a restored tape.

Loop counters and selected cell indices are held in ordinary control state
outside the tape, and all work that touches the tape is charged through the
primitives.  One gap: the occurrence search holds its k chosen cell numbers
and the compare its two cells, but ``_accepts_basis_on_tape`` also keeps a
Python list of every insertion cell, up to n integers, to map the search's
numbers to cells; it is the one procedure that holds or indexes that list,
and its rows reach it only through a compare defined there.  The counters
are exact, but a literal linear-bounded automaton would hold those cells
as marks.  The space bound is enforced, not just measured: any primitive
stepping outside the |w|+1 cells raises TapeFault, which is a bug in a
procedure, never an input condition.

A BoundedTape exists only for traced runs, and ``BoundedTape.run`` is
the one way into a procedure: it faults unless the tape holds its input,
and each procedure runs primitive by primitive and ends in ``restore``,
the clearing scan, which verifies the tape and leaves the head on the
word's last cell.  Untraced, no tape is built: legality and the sieve
are functions of the word from cell 0, and the compare (one walk from x
gives its whole row) of the word and a start head; each returns the
traced run's verdict and steps, its restore included.  In both modes the
occurrence search, ``_search``, reads each compare from a pair table of
rows, one per insertion cell: untraced, ``_compare_row`` rows built on
first read; traced, rows that run the compare on the tape when read.
Every word procedure reaches the word's last cell and no further, so its
high-water mark is |w| cells (one for the empty word).
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Callable, Iterator

from .codec import IllegalCodewordError, check_letters, validate
from .permutations import Basis, check_size

NO_MARK = 0
STAR = 1
DOUBLE_STAR = 2
DAGGER = 3

_MARK_TEXT = ("", "*", "**", "+")  # indexed by mark

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


class TapeRun(namedtuple("TapeRun", "verdict steps max_cells_touched")):
    """Outcome of one tape procedure, with its exact resource counters.
    A named tuple: it equals, and unpacks like, the tuple of its fields."""

    __slots__ = ()


class BoundedTape:
    """Fixed-capacity tape: the input word plus one blank boundary cell.

    The letters are an immutable string and the marks a ``bytearray`` over
    it, one byte per cell; the head starts on cell 0.  The four primitives
    are ``move_left``, ``move_right``, ``read`` and ``write_mark``: the
    letters are read-only, so the tape holds its input, of length ``n``,
    exactly when no cell is marked.  Counters: ``steps`` is the number of
    primitives executed, ``max_cells_touched`` the number of distinct cells
    the head has visited (the head only moves one cell at a time from cell
    0, so that is max head index + 1).

    The methods after the primitives are head-movement programs built from
    them: ``seek``, ``sweep_right``, ``sweep_left``, ``left_past_marked_ts``,
    ``left_to_star``, ``rewrite_left`` and ``restore`` (the clearing scan).
    A sweep yields each cell it reads with the head on it, so a scan is a
    ``for`` loop over one that breaks where the scan stops, and a broken-off
    sweep runs no further primitive.  Every program runs primitive by
    primitive, one trace line a primitive, and none has a closed form.
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

    def __init__(self, word: str, trace: TraceFn) -> None:
        self._letters = word + BLANK
        self._capacity = cap = len(word) + 1
        self._marks = bytearray(cap)
        self._blank = bytes(cap)
        self._head = 0
        self._steps = 0
        self._max_head = 0
        self.trace = trace

    @property
    def n(self) -> int:
        return self._capacity - 1

    @property
    def head(self) -> int:
        return self._head

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def max_cells_touched(self) -> int:
        return self._max_head + 1

    def _emit(self, primitive: str, before: str | None = None) -> None:
        """Trace the step just taken: the head's cell as it is now, and
        before it when a write changed it."""
        head = self._head
        at = self._letters[head] + _MARK_TEXT[self._marks[head]]
        self.trace(f"{self._steps}\t{head}\t{primitive}\t{before or at} -> {at}")

    def move_right(self) -> None:
        if self._head + 1 >= self._capacity:
            raise TapeFault(f"head moved right past cell {self._capacity - 1}")
        self._head += 1
        self._steps += 1
        if self._head > self._max_head:
            self._max_head = self._head
        self._emit("move-right")

    def move_left(self) -> None:
        if self._head == 0:
            raise TapeFault("head moved left past cell 0")
        self._head -= 1
        self._steps += 1
        self._emit("move-left")

    def read(self) -> tuple[str, int]:
        self._steps += 1
        self._emit("read")
        return self._letters[self._head], self._marks[self._head]

    def write_mark(self, mark: int) -> None:
        self._steps += 1
        before = self._letters[self._head] + _MARK_TEXT[self._marks[self._head]]
        self._marks[self._head] = mark
        self._emit("write-mark", before)

    # Head-movement programs, each a primitive loop.

    def seek(self, pos: int) -> None:
        """Move the head to cell pos: |pos - head| moves."""
        if not 0 <= pos < self._capacity:
            raise TapeFault(f"seek to cell {pos} outside 0..{self._capacity - 1}")
        while self._head < pos:
            self.move_right()
        while self._head > pos:
            self.move_left()

    def sweep_right(self) -> Iterator[tuple[str, int]]:
        """Read, then move right and read, until the word's last cell has
        been read, yielding each cell read with the head on it.  From the
        boundary cell, or on the empty word, it faults."""
        last = self._capacity - 2
        while True:
            yield self.read()
            if self._head == last:
                return
            self.move_right()

    def sweep_left(self, lo: int = 0) -> Iterator[tuple[str, int]]:
        """Move left and read until the head is on cell lo, yielding each
        cell read with the head on it."""
        while self._head > lo:
            self.move_left()
            yield self.read()

    def left_past_marked_ts(self, start: int) -> tuple[str, int] | None:
        """Seek cell start, then sweep left until the cell read is not a t
        or is an unmarked t.  Returns the last cell read, None when start
        is cell 0."""
        self.seek(start)
        cell = None
        for cell in self.sweep_left():
            if cell[0] != "t" or cell[1] == NO_MARK:
                break
        return cell

    def left_to_star(self) -> int:
        """Sweep left until a STAR is read.  Returns the starred cell, or
        -1 when there is none."""
        for _, mark in self.sweep_left():
            if mark == STAR:
                return self._head
        return -1

    def rewrite_left(self, start: int, lo: int, table: bytes) -> None:
        """Seek cell start, then sweep left to cell lo, writing table[mark]
        over every mark the table changes; table is a ``bytes.maketrans``
        table over the marks."""
        if lo < 0:
            raise TapeFault(f"rewrite scan down to cell {lo}")
        self.seek(start)
        for _, mark in self.sweep_left(lo):
            if table[mark] != mark:
                self.write_mark(table[mark])

    def restore(self) -> None:
        """Clearing scan, then verify the tape holds its input.  The scan
        seeks cell 0, then sweeps right over the word's n cells, writing
        NO_MARK over each mark, and stays on the last letter: head + n reads
        + (n-1) moves + one write per cleared mark.  A mark on the boundary
        cell, which the scan never visits, faults.  The closed forms charge
        this cost as their last term."""
        if self._capacity > 1:
            self.seek(0)
            for _, mark in self.sweep_right():
                if mark != NO_MARK:
                    self.write_mark(NO_MARK)
        if not self.holds_input():
            raise TapeFault("tape does not hold the unmarked input word")

    def holds_input(self) -> bool:
        """True iff no cell is marked: the letters never change."""
        return self._marks == self._blank

    def run(self, procedure: Callable[..., bool], *args: object) -> TapeRun:
        """Run ``procedure(self, *args)``, after faulting unless the tape
        holds its input, and return the verdict with the tape's counters."""
        if not self.holds_input():
            raise TapeFault(f"{procedure.__name__} started on a tape that does not hold its input")
        return TapeRun(procedure(self, *args), self._steps, self.max_cells_touched)


# --- legality -------------------------------------------------------------

def _check_legal_on_tape(tape: BoundedTape) -> bool:
    """Marking procedure for legality.

    Repeatedly find an innermost unmarked m..f pair (only l, r, t or marked
    cells between), star both, and license one unmarked t in front of every
    insertion cell inside the pair's span.  Accept iff afterwards no
    unmarked m or t remains, no unmarked f remains before the end, and the
    last cell is an unmarked f (the one that fills the initial slot).

    It starts on an unmarked tape and ends restored with the head on cell
    n-1 (the empty word's run is its one read); ``_legal_closed_form``
    gives its verdict and steps without a tape.
    """
    if tape.n == 0:
        tape.read()
        return False
    while True:
        tape.seek(0)
        i = -1
        for letter, mark in tape.sweep_right():
            if mark == NO_MARK:
                if letter == "m":
                    i = tape.head
                elif letter == "f" and i >= 0:
                    break
        else:
            break
        j = tape.head
        tape.write_mark(STAR)
        tape.seek(i)
        tape.write_mark(STAR)
        _license_span(tape, i, j)
    # final verification scan
    tape.seek(0)
    for letter, mark in tape.sweep_right():
        if mark == NO_MARK and letter in "mft":
            break
    legal = tape.head == tape.n - 1 and letter == "f" and mark == NO_MARK
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


def _legal_closed_form(word: str) -> tuple[bool, int, list[int]]:
    """The verdict and steps of ``_check_legal_on_tape`` on the word from
    cell 0 of an unmarked tape, restore included, and the word's insertion
    cells (those whose letter is not t), which it lists first, so that
    ``accepts_basis`` reads them without a pass of its own.

    The empty word's run is one read.  Otherwise the loop stars exactly the
    bracket matching of m (open) and f (close), in increasing order of the
    f, so one pass with a stack of open m's gives every pair (i, j) in the
    loop's order.  A round costs the seek to cell 0 from the last j (none
    for the first round), 2j+1 for the pair scan, two stars, j-i back
    to i and 2(j-i) for the span walk.  An insertion cell inside d
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
        return False, 1, []
    cells = [pos for pos, letter in enumerate(word) if letter != "t"]
    opened: list[int] = []  # indices into cells of the m's still open
    spans = [0] * (len(cells) + 1)  # difference array of the nesting depth
    stop = n - 1  # the verification scan's stop
    paired = -1  # the last f paired
    steps = 3 * n - 1
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
    return legal, steps + 3 * stop + 2 * n - 1, cells


def check_legal(word: str, trace: TraceFn | None = None) -> TapeRun:
    """Decide legality on a bounded tape, which ends holding the word."""
    check_letters(word)
    if trace is None:
        return TapeRun(*_legal_closed_form(word)[:2], len(word) or 1)
    return BoundedTape(word, trace).run(_check_legal_on_tape)


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


def _compare_on_tape(tape: BoundedTape, x_pos: int, y_pos: int) -> bool:
    """Whether the entry inserted at cell y_pos lands left of the one
    inserted at cell x_pos (descending) or right of it (ascending).

    Call x = x_pos and y = y_pos, two insertion cells (whose letter is not
    t) with x left of y.  Stars the t-run before x (plus x itself when it
    is r or m), so the star count equals the number of open slots left of
    x's entry.  Walking right, every m or f whose own t-run is beaten by
    the stars inserts left of x and bumps the count up or down.  If the
    stars ever run out, x's entry has no open slot to its left and the
    answer is ascending.  At y, stars strictly exceeding y's t-run means y
    inserts left of x: descending.

    It starts on an unmarked tape, with x and y insertion cells and
    0 <= x < y < n, and faults before any step when they are not, reading
    their letters off the tape's word as ``seek`` reads its bounds; it ends
    restored with the head on the word's last cell.  Entry b-a-1 of
    ``_compare_row``'s walk from x gives its verdict and steps without a
    tape, where x and y are insertion cells a and b.
    """
    n, letters = tape.n, tape._letters
    if not (0 <= x_pos < y_pos < n and "t" not in (letters[x_pos], letters[y_pos])):
        raise TapeFault(
            f"compare of cells {x_pos}, {y_pos}: need insertion cells 0 <= x < y < {n}")
    tape.seek(x_pos)
    x_letter, _ = tape.read()
    starred = x_letter in "rm"
    if starred:
        tape.write_mark(STAR)
    for letter, _ in tape.sweep_left():  # star x's t-run
        if letter != "t":
            break
        tape.write_mark(STAR)
        starred = True
    descending = False
    if starred:
        tape.seek(x_pos)
        while True:  # the walk right to y, shuttling at y, an m or an f
            tape.move_right()
            letter, _ = tape.read()
            pos = tape.head
            if pos == y_pos:
                descending = _stars_beat_ts(tape, pos)
                break
            if letter == "m":
                if _stars_beat_ts(tape, pos):
                    tape.write_mark(STAR)
            elif letter == "f":
                # a won shuttle drops a star, and with none left x's entry
                # has no open slot to its left
                if _stars_beat_ts(tape, pos) and not _drop_rightmost_star(tape, pos):
                    break
    tape.restore()
    return descending


def _compare_row(word: str, cells: list[int], a: int, head: int) -> Row:
    """The compare's closed form: the row of ``_compare_on_tape`` of a with
    each later insertion cell c on the word, from a head on cell head of an
    unmarked tape.  Entry c-a-1 is (whether it is descending, its steps,
    the closing restore's included: the head the walk leaves, 2n-1 and a
    write per star).

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
    # seek x, read it, star it when r or m, then star its t-run
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
        for c in range(a + 1, len(cells)):
            z = cells[c]
            # the walk to z, then the shuttle at z: it pairs the t
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
            letter = word[z]
            if letter not in "mf":
                continue  # the walk passes an l or r
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
    row += [(False, steps + head + restore)] * (len(cells) - 1 - a - len(row))
    return row


def compare(word: str, x_pos: int, y_pos: int, trace: TraceFn | None = None) -> TapeRun:
    """Decide whether the entry inserted at x_pos lands before or after the
    one inserted at y_pos, on a bounded tape, which ends holding the word.
    The verdict is True when y's entry lands left of x's (descending,
    "21") and False when it lands right of it (ascending, "12").

    Preconditions, checked in this order, each violation a ValueError: the
    letters are in the alphabet, x_pos < y_pos, both cells hold insertion
    letters, and the word is a legal codeword; an illegal one raises
    ``IllegalCodewordError`` as ``decode`` does ("illegal codeword 'lff':
    premature-slot-exhaustion").
    """
    verdict = validate(word)  # raises first on a foreign letter
    n = len(word)
    if not (0 <= x_pos < y_pos < n):
        raise ValueError(f"need 0 <= x_pos < y_pos < {n}, got {x_pos}, {y_pos}")
    if word[x_pos] == "t" or word[y_pos] == "t":
        raise ValueError("compared cells must hold insertion letters, not t")
    if not verdict:
        raise IllegalCodewordError(word, verdict.reason)
    if trace is not None:
        return BoundedTape(word, trace).run(_compare_on_tape, x_pos, y_pos)
    cells = [pos for pos, letter in enumerate(word) if letter != "t"]
    a, b = cells.index(x_pos), cells.index(y_pos)
    return TapeRun(*_compare_row(word, cells, a, 0)[b - a - 1], n)


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


class _TapeRow:
    """A row of the pair table on a traced tape: reading entry y-x-1 runs
    the compare of cell number x with cell number y on the tape, through
    the row's compare, and charges 0 steps, since the tape counts them."""

    __slots__ = ("_compare", "_x")

    def __init__(self, compare: Callable[[int, int], bool], x: int) -> None:
        self._compare = compare
        self._x = x

    def __getitem__(self, i: int) -> tuple[bool, int]:
        return self._compare(self._x, self._x + i + 1), 0


def _search(
    basis: Basis, rows: list[Row | _TapeRow | None], word: str = "",
    cells: list[int] | None = None,
) -> tuple[bool, int]:
    """Depth-first search for an occurrence of each pattern of the basis
    in turn among len(rows) insertion cells, numbered left to right, up to
    the first one contained: (True iff none occurs, the steps of its
    compares).

    The insertion cells are in value order, so a tuple of cells taken left
    to right holds the values 1..k of a candidate occurrence.  The search
    extends a tuple of cell numbers in lexicographic order: level j tries
    each cell y after the one chosen at level j-1 (while k-j cells remain)
    and compares it with at most two chosen cells, its positional
    neighbours in the pattern: first the left one (the chosen level whose
    rank stands nearest before rank j+1 in the pattern, so y's entry must
    lie to its right: ascending), then the right one (nearest after:
    descending).  The chosen entries already stand in the pattern's
    positional order, so y agrees with every chosen cell exactly when it
    agrees with those two; a disagreement prunes y and everything below
    it.  A full k-tuple is an occurrence.  Control state is the k chosen
    cell numbers and the pattern's neighbour table, ``_neighbours``, which
    is built once per pattern, not once per word; the search reads no
    cell's position.

    Every compare is read from the pair table ``rows``: entry y-x-1 of row
    x is (whether the compare of cells x < y is descending, its steps),
    and the search sums the steps.  Untraced, every row starts as None and
    is built the first time it is read, as ``_compare_row`` of the word
    and its insertion cells from a head on cell n-1, then kept for the
    basis's later patterns; traced rows are never None.
    """
    count = len(rows)
    steps = 0
    for pattern in basis:
        nbrs = _neighbours(pattern.ranks)
        k = len(nbrs)
        slack = count - k
        chosen: list[int] = []
        i = j = 0  # j = len(chosen), the level
        while True:
            if i > slack + j:  # fewer than k-j cells left: back up
                if j == 0:
                    break
                i = chosen.pop() + 1
                j -= 1
                continue
            for a, desc in nbrs[j]:
                x = chosen[a]
                row = rows[x]
                if row is None:
                    row = rows[x] = _compare_row(word, cells, x, len(word) - 1)
                verdict, cost = row[i - x - 1]
                steps += cost
                if verdict != desc:
                    break
            else:
                if j + 1 == k:
                    return False, steps
                chosen.append(i)
                j += 1
            i += 1
    return True, steps


def _accepts_basis_on_tape(tape: BoundedTape, basis: Basis) -> bool:
    """``accepts_basis`` on the tape: legality once, as it is a property of
    the word, and a sweep from cell 0 listing the insertion cells once
    after it; then ``_search`` over rows whose entries run
    ``_compare_on_tape`` when read.  Each procedure ends in ``restore`` on
    cell n-1, which checks the tape the next one starts on.  The cell
    list, up to n integers, is held off the tape, and only here: the
    search sees its length and the compare two cells, which the rows'
    compare maps from the search's cell numbers.  It is the machine
    model's one gap."""
    if not _check_legal_on_tape(tape):
        return False
    tape.seek(0)
    cells = [tape.head for letter, _ in tape.sweep_right() if letter != "t"]

    def descending(x: int, y: int) -> bool:
        return _compare_on_tape(tape, cells[x], cells[y])

    return _search(basis, [_TapeRow(descending, x) for x in range(len(cells))])[0]


def accepts_basis(word: str, basis: Basis, trace: TraceFn | None = None) -> TapeRun:
    """Accept iff the word is a legal codeword whose permutation avoids every
    pattern in the basis; a single pattern p is ``Basis([p])``.

    Traced, ``_accepts_basis_on_tape`` runs on a tape from cell 0, and
    each of its procedures ends restored on cell n-1.  Untraced, every
    compare therefore starts on an unmarked tape with the head on cell
    n-1, so it depends on the word and its two cells alone: ``_search``
    reads it from a table of ``_compare_row`` rows, one per x, built the
    first time x is compared and shared by the basis's patterns.
    Legality's closed form lists the insertion cells, once for both.
    """
    check_letters(word)
    n = len(word)
    if trace is not None:
        return BoundedTape(word, trace).run(_accepts_basis_on_tape, basis)
    legal, steps, cells = _legal_closed_form(word)
    if not legal:
        return TapeRun(False, steps, n or 1)
    # the cell sweep from cell n-1 (head + 2n - 1), then the search
    verdict, searched = _search(basis, [None] * len(cells), word, cells)
    return TapeRun(verdict, steps + 3 * n - 2 + searched, n)


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
    ``_is_prime_on_tape`` runs, Θ(n²) trace lines for a prime n; without
    one, ``_sieve_closed_form`` gives the same counters: for n = 4999, 0.7 ms
    against 57 s traced to a no-op sink (CPython 3.11.7, 2 cores).
    """
    check_size(n, positive=True)
    if trace is None:
        return TapeRun(*_sieve_closed_form(n))
    return BoundedTape("a" * n, trace).run(_is_prime_on_tape)


def _is_prime_on_tape(tape: BoundedTape) -> bool:
    """The sieve on a tape of n cells, primitive by primitive, then the
    final restore; from cell 0, ``_sieve_closed_form`` gives its verdict
    and counters without a tape."""
    n = tape.n
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
    return verdict
