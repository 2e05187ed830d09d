"""Deterministic stack automaton with a read-only descending cursor.

The machine owns a stack with a permanent root token at the bottom, a
cursor that may walk down the stack read-only, and a three-state control
(start / accept / fail).  Pushes and pops happen only at the top, the root
is never popped, and the cursor never leaves the stack; violating any of
that raises, because it would be a bug in an acceptor, not bad input.

Two acceptors are built on it: one for the codeword language (equivalent
to codec.validate, which the tests check exhaustively) and one for words
a^i1 b^i2 a^i3 ... with nondecreasing block lengths, whose count at each
length equals the integer partition number.
"""

from __future__ import annotations

from typing import Callable

from .codec import check_letters

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

    @property
    def height(self) -> int:
        return self._height

    @property
    def cursor_depth(self) -> int:
        return self._cursor

    @property
    def at_root(self) -> bool:
        return self._cursor == 0

    @property
    def at_top(self) -> bool:
        return self._cursor == self._height

    def cursor_to_top(self) -> None:
        self._cursor = self._height

    def cursor_down(self) -> None:
        if self._cursor == 0:
            raise StackDisciplineError("cursor cannot descend below the root")
        self._cursor -= 1

    def push(self) -> None:
        if not self.at_top:
            raise StackDisciplineError("push requires the cursor at the top")
        self._height += 1
        self._cursor = self._height
        self.pushes += 1

    def pop(self) -> None:
        if not self.at_top:
            raise StackDisciplineError("pop requires the cursor at the top")
        if self._height == 0:
            raise StackDisciplineError("the root token is never popped")
        self._height -= 1
        self._cursor = self._height
        self.pops += 1
        if self.pops > self.pushes:
            raise StackDisciplineError("more pops than pushes")


def accepts_codewords(word: str, trace: TraceFn | None = None) -> bool:
    """Run the codeword acceptor; the stack height tracks #m - #f.

    l and r return the cursor to the top; m pushes; each t walks the cursor
    down one token, failing at the root; f pops, except on an empty stack,
    where it accepts iff it is the last letter.
    """
    check_letters(word)
    machine = StackMachine()
    last = len(word) - 1
    for idx, ch in enumerate(word):
        if ch in "lr":
            machine.cursor_to_top()
        elif ch == "m":
            machine.cursor_to_top()
            machine.push()
        elif ch == "f":
            machine.cursor_to_top()
            if machine.height == 0:
                machine.state = ACCEPT if idx == last else FAIL
            else:
                machine.pop()
        else:  # t
            if machine.at_root:
                machine.state = FAIL
            else:
                machine.cursor_down()
        if trace is not None:
            trace(
                f"{idx}\t{ch}\tstate={machine.state}"
                f"\tcursor={machine.cursor_depth}\theight={machine.height}"
            )
        if machine.state != START:
            break
    return machine.state == ACCEPT


def accepts_partition_language(word: str, trace: TraceFn | None = None) -> bool:
    """Accept a^i1 b^i2 a^i3 ... with 1 <= i1 <= i2 <= ... (either final letter).

    Each block first walks the cursor down the tokens left by the previous
    block; reaching the root switches to pushing, so on block exit the stack
    height equals the block's length.  A block that ends while the cursor is
    still above the root was shorter than its predecessor: reject.  The
    empty word is rejected.
    """
    machine = StackMachine()
    block = "a"
    pushing = True  # trivially at the bottom before the first block
    for idx, ch in enumerate(word):
        if ch not in "ab":
            raise ValueError(f"letter {ch!r} at position {idx} is not one of 'ab'")
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
            elif machine.at_root:
                machine.state = FAIL  # walking down from the root: block 1 must be a's
            else:
                machine.cursor_down()
                if machine.at_root:
                    pushing = True
        if trace is not None:
            trace(
                f"{idx}\t{ch}\tstate={machine.state}"
                f"\tcursor={machine.cursor_depth}\theight={machine.height}"
            )
        if machine.state != START:
            break
    if machine.state == START and word and pushing:
        machine.state = ACCEPT
    elif machine.state == START:
        machine.state = FAIL
    return machine.state == ACCEPT
