"""Deterministic stack automaton with a read-only descending cursor.

The machine owns a stack with a permanent root token at the bottom, a
cursor that may walk down the stack read-only, and a three-state control
(start / accept / fail).  Pushes and pops happen only at the top, the root
is never popped, and the cursor never leaves the stack; violating any of
that raises, because it would be a bug in an acceptor, not bad input.

Two acceptors are built on it: one for the codeword language (equivalent
to codec.validate, which the tests check exhaustively) and one for words
a^i1 b^i2 a^i3 ... with nondecreasing block lengths, whose count at each
length equals the integer partition number.  Each is a procedure on a
machine its caller passes in, which after the run is the run's record;
the public functions run it on a fresh machine and return the verdict.
"""

from __future__ import annotations

from collections.abc import Callable

from .codec import check_letters, tokens

START = "start"
ACCEPT = "accept"
FAIL = "fail"

TraceFn = Callable[[str], None]


class StackDisciplineError(RuntimeError):
    """An acceptor violated the stack/cursor rules (a bug, not bad input)."""


class StackMachine:
    """Finite control plus a rooted stack and a descending read-only cursor."""

    __slots__ = ("state", "_height", "_cursor", "pushes", "pops")

    def __init__(self) -> None:
        self.state = START
        self._height = 0  # tokens above the root
        self._cursor = 0  # cursor offset above the root; 0 = at the root
        self.pushes = 0
        self.pops = 0

    # read-only: an acceptor moves the stack only by the operations below
    @property
    def height(self) -> int:
        return self._height

    @property
    def cursor_depth(self) -> int:
        return self._cursor

    def cursor_to_top(self) -> None:
        self._cursor = self._height

    def cursor_down(self, j: int = 1) -> None:
        """Walk the cursor down j tokens; raises, leaving the cursor where
        it was, unless 0 <= j <= cursor_depth."""
        if not 0 <= j <= self._cursor:
            raise StackDisciplineError("cursor cannot descend below the root")
        self._cursor -= j

    def push(self) -> None:
        if self._cursor != self._height:
            raise StackDisciplineError("push requires the cursor at the top")
        self._height += 1
        self._cursor = self._height
        self.pushes += 1

    def pop(self) -> None:
        if self._cursor != self._height:
            raise StackDisciplineError("pop requires the cursor at the top")
        if self._height == 0:
            raise StackDisciplineError("the root token is never popped")
        self._height -= 1
        self._cursor = self._height
        self.pops += 1


def _trace_line(idx: int, letter: str, state: str, cursor: int, height: int) -> str:
    return f"{idx}\t{letter}\tstate={state}\tcursor={cursor}\theight={height}"


def accepts_codewords(word: str, trace: TraceFn | None = None) -> bool:
    """Run the codeword acceptor on a fresh machine; see ``_codewords_on``."""
    return _codewords_on(StackMachine(), word, trace)


def _codewords_on(machine: StackMachine, word: str, trace: TraceFn | None) -> bool:
    """The codeword acceptor on the caller's fresh machine, which the run
    leaves holding its state and counters; the stack height tracks #m - #f.

    l and r return the cursor to the top; m pushes; each t walks the cursor
    down one token, failing at the root; f pops, except on an empty stack,
    where it accepts iff it is the last letter.

    ``codec.tokens`` checks the letters, then reads the word a t-run at a
    time.  A t-run never pushes or pops, so ``cursor_down(run)`` charges it
    at once; a trace still gets one line per t, the state after that letter.
    """
    cursor_down, cursor_to_top = machine.cursor_down, machine.cursor_to_top
    push, pop = machine.push, machine.pop  # bound once per word
    idx = 0  # index of the first letter of the t-run or insertion
    for run, letter in tokens(word):
        if run:
            depth = machine._cursor
            if trace is not None:  # one line per t read, up to a t that finds the root
                for k in range(1, min(run, depth + 1) + 1):
                    state, cursor = (START, depth - k) if k <= depth else (FAIL, 0)
                    trace(_trace_line(idx + k - 1, "t", state, cursor, machine._height))
            if run > depth:  # the t after the depth-th finds the cursor at the root
                cursor_down(depth)
                machine.state = FAIL
                break
            cursor_down(run)
            if not letter:
                break
            idx += run
        cursor_to_top()
        if letter == "m":
            push()
        elif letter == "f":
            if machine._height:
                pop()
            else:  # an f on the root ends the run
                machine.state = ACCEPT if idx == len(word) - 1 else FAIL
                if trace is not None:
                    trace(_trace_line(idx, letter, machine.state, 0, 0))
                break
        if trace is not None:
            trace(_trace_line(idx, letter, START, machine._cursor, machine._height))
        idx += 1
    return machine.state == ACCEPT


def accepts_partition_language(word: str, trace: TraceFn | None = None) -> bool:
    """Run the partition acceptor on a fresh machine; see ``_partitions_on``."""
    return _partitions_on(StackMachine(), word, trace)


def _partitions_on(machine: StackMachine, word: str, trace: TraceFn | None) -> bool:
    """Accept a^i1 b^i2 a^i3 ... with 1 <= i1 <= i2 <= ... (either final
    letter), on the caller's fresh machine, as ``_codewords_on`` runs.

    Each block first walks the cursor down the tokens left by the previous
    block; reaching the root switches to pushing, so on block exit the stack
    height equals the block's length.  A block that ends while the cursor is
    still above the root was shorter than its predecessor: reject.  The
    empty word is rejected; a letter other than a and b raises before the
    run starts.
    """
    if word.strip("ab"):  # tested here: a call per word costs as much as a short run
        check_letters(word, "ab")  # raises, naming the first foreign letter
    block = "a"
    pushing = True  # trivially at the bottom before the first block
    for idx, ch in enumerate(word):
        if ch != block:
            if not pushing:
                machine.state = FAIL
            else:
                block = ch
                machine.cursor_to_top()
                pushing = False
        if machine.state == START:
            if pushing:
                machine.cursor_to_top()
                machine.push()
            elif machine.cursor_depth == 0:
                machine.state = FAIL  # walking down from the root: block 1 must be a's
            else:
                machine.cursor_down()
                if machine.cursor_depth == 0:
                    pushing = True
        if trace is not None:
            trace(
                _trace_line(idx, ch, machine.state, machine.cursor_depth, machine.height)
            )
        if machine.state != START:
            break
    if machine.state == START and word and pushing:
        machine.state = ACCEPT
    elif machine.state == START:
        machine.state = FAIL
    return machine.state == ACCEPT
