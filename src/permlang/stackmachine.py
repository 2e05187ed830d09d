"""Deterministic stack automaton with a read-only descending cursor.

The machine owns a stack with a permanent root token at the bottom, a
cursor that may walk down the stack read-only, and a three-state control
(start / accept / fail).  Pushes and pops happen only at the top, the root
is never popped, and the cursor never leaves the stack; violating any of
that raises, because it would be a bug in an acceptor, not bad input.

Two acceptors are built on it: one for the codeword language and one for
words a^i1 b^i2 a^i3 ... with nondecreasing block lengths, whose count at
each length equals the integer partition number.  The machine serves
traced runs only, as ``tape.BoundedTape`` does: a traced run is the
literal machine, a procedure on a machine its caller passes in, which
reads a letter, makes that letter's stack operations and writes one
trace line, then reads the next, and after the run holds the run's
state and counters.  The public functions run it on a fresh machine and
return the verdict.

An untraced run builds no machine.  The codeword acceptor's is
``codec.validate``'s scan, whose slot count is the machine's height plus
one; the literal machine stays the independent stack route that the
tests hold to ``validate``.  The partition acceptor's is a closed form by
blocks: the word starts with a and its block lengths never decrease.
"""

from __future__ import annotations

from collections.abc import Callable

from .codec import check_letters, validate

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

    def cursor_down(self) -> None:
        """Walk the cursor down one token; at the root, raises and leaves
        it there."""
        if not self._cursor:
            raise StackDisciplineError("cursor cannot descend below the root")
        self._cursor -= 1

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
    """Accept exactly the legal codewords; the stack height tracks #m - #f.

    l and r return the cursor to the top; m pushes; each t walks the cursor
    down one token, failing at the root; f pops, except on an empty stack,
    where it accepts iff it is the last letter.

    A traced run is the literal machine, ``_codewords_by_letters`` on a
    fresh ``StackMachine``.  An untraced run is ``codec.validate``'s scan,
    which decides alike and builds no machine.
    """
    if trace is None:
        return bool(validate(word))
    return _codewords_by_letters(StackMachine(), word, trace)


def _codewords_by_letters(machine: StackMachine, word: str, trace: TraceFn) -> bool:
    """The codeword acceptor a letter at a time: a ``cursor_down()`` per t,
    and ``cursor_to_top`` then ``push`` or ``pop`` per insertion letter.
    After each letter the trace gets one line, the state after it; the run
    stops at the first state that is not start.  A letter outside the
    alphabet raises before the run starts.
    """
    check_letters(word)
    last = len(word) - 1
    for idx, letter in enumerate(word):
        if letter == "t":
            if machine._cursor == 0:
                machine.state = FAIL
            else:
                machine.cursor_down()
        else:
            machine.cursor_to_top()
            if letter == "m":
                machine.push()
            elif letter == "f":
                if machine._height:
                    machine.pop()
                else:
                    machine.state = ACCEPT if idx == last else FAIL
        trace(_trace_line(idx, letter, machine.state, machine._cursor, machine._height))
        if machine.state != START:
            break
    return machine.state == ACCEPT


def accepts_partition_language(word: str, trace: TraceFn | None = None) -> bool:
    """Accept a^i1 b^i2 a^i3 ... with 1 <= i1 <= i2 <= ... (either final
    letter); the empty word is rejected.  A letter other than a and b
    raises before the run starts.

    A traced run is the literal machine, ``_partitions_on`` on a fresh
    ``StackMachine``.  An untraced run builds no machine: it walks the
    word a block at a time with ``str.find`` and rejects at the first
    block shorter than the one before it.
    """
    if word.strip("ab"):  # tested here: a call per word costs as much as a short run
        check_letters(word, "ab")  # raises, naming the first foreign letter
    if trace is not None:
        return _partitions_on(StackMachine(), word, trace)
    if not word.startswith("a"):
        return False
    start = longest = 0  # where the block starts; the longest block before it
    while (end := word.find("ab"[word[start] == "a"], start)) >= 0:  # the other letter
        if end - start < longest:
            return False
        start, longest = end, end - start
    return len(word) - start >= longest


def _partitions_on(machine: StackMachine, word: str, trace: TraceFn) -> bool:
    """The partition acceptor a letter at a time, on the caller's fresh
    machine, which the run leaves holding its state and counters; the
    caller has checked the letters.

    Each block first walks the cursor down the tokens left by the previous
    block; reaching the root switches to pushing, so on block exit the stack
    height equals the block's length.  A block that ends while the cursor is
    still above the root was shorter than its predecessor: reject.
    """
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
        trace(_trace_line(idx, ch, machine.state, machine.cursor_depth, machine.height))
        if machine.state != START:
            break
    if machine.state == START and word and pushing:
        machine.state = ACCEPT
    elif machine.state == START:
        machine.state = FAIL
    return machine.state == ACCEPT
