"""Validation, decoding and encoding of slot-insertion codewords.

A codeword is a word over the alphabet l, r, m, f, t that describes how a
permutation is built by inserting 1, 2, 3, ... into open slots, starting
from a single slot.  Each insertion letter acts on one slot: l puts the
next value at the slot's left end (keeping the rest of the slot open),
r at its right end, m in the middle (splitting the slot in two), and f
fills the slot completely.  A run of j consecutive t letters in front of
an insertion letter redirects it to slot j+1, slots counted from the left;
the target resets to slot 1 after every insertion.

``MOVES`` is the one table of each insertion letter's change to the
number of open slots; ``validate`` and ``moves`` read it.  ``moves`` is
the one rule of which moves a state of the insertion encoding allows,
and ``codewords_with_insertions`` walks it.  ``decode`` edits its list of
slots instead, and the tape and the stack automaton's literal machine
keep their own rules, as independent routes.

A word is legal when every insertion targets a slot that exists and the
word ends exactly when the last slot is filled.  Scanning left to right
with ``slots = 1 + #m - #f``, that means: slots >= 1 before every
insertion, every t-run has length <= slots - 1, the final letter is f,
and slots == 0 precisely at the end of the word.

A codeword for a permutation of size n has n insertion letters but up to
Θ(n²) t letters, so every reader here takes a word in tokens (see
``tokens``, which also checks the letters): one per insertion letter,
with its t-run.  The readers do their Python work per token; the t's
meet only ``tokens``' two byte passes over the whole word.  ``tokens``
keeps the split of the last word it read, so validate, the untraced
stack acceptor (which is validate) and decode, run on one word in a row,
split it once.  It keeps one entry and no more: a second entry could
only serve a word read again after another word, which no caller does,
and so would only cost memory.  The tape and the stack automaton's
literal machines do not read words through ``tokens``: they check the
letters with ``check_letters`` and read the word cell by cell or letter
by letter (``tape.compare`` only calls validate for its precondition).
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator

from .permutations import Permutation, check_size

ALPHABET = "lrmft"

MOVES = {"l": 0, "r": 0, "m": 1, "f": -1}

REASON_EMPTY = "empty-word"
REASON_T_OVERFLOW = "t-overflow"
REASON_EXHAUSTED = "premature-slot-exhaustion"
REASON_TRAILING = "trailing-non-f"
REASON_UNFILLED = "unfilled-slots"


class Legality(namedtuple("Legality", "reason", defaults=(None,))):
    """Verdict of validate(); falsy verdicts carry a machine-readable reason.
    A named tuple: it equals, and unpacks like, the tuple ``(reason,)``."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.reason is None


# Verdicts are frozen, so validate hands out shared ones: building a fresh
# one is a large share of the time to scan a short word.
_LEGAL = Legality()
_ILLEGAL = {
    reason: Legality(reason)
    for reason in (
        REASON_EMPTY,
        REASON_T_OVERFLOW,
        REASON_EXHAUSTED,
        REASON_TRAILING,
        REASON_UNFILLED,
    )
}


class IllegalCodewordError(ValueError):
    """Raised when an operation requires a legal codeword but got none."""

    def __init__(self, word: str, reason: str) -> None:
        super().__init__(f"illegal codeword {word!r}: {reason}")
        self.word = word
        self.reason = reason


def check_letters(word: str, alphabet: str = ALPHABET) -> None:
    """Reject strings containing characters outside the alphabet (the
    codeword alphabet unless given), naming the first one.

    An ASCII word passes if deleting the alphabet's bytes leaves nothing,
    a C pass over the whole word; any other word is walked letter by
    letter to name the first foreign one.
    """
    if word.isascii() and not word.encode().translate(None, alphabet.encode()):
        return
    for i, ch in enumerate(word):
        if ch not in alphabet:
            raise ValueError(
                f"letter {ch!r} at position {i} is not one of {alphabet!r}"
            )


# every insertion letter becomes 0xff, a byte no ASCII word holds, so the
# word splits into its t-runs: one more than its insertion letters
_RUN_ENDS = bytes.maketrans(b"lrmf", b"\xff\xff\xff\xff")


@functools.lru_cache(maxsize=1)  # the last word read; see tokens
def _split(word: str) -> tuple[list[bytes], str | list[str]]:
    """The word's t-runs and its letters, for ``tokens``."""
    if not word.isascii():
        check_letters(word)  # raises: the alphabet is ASCII
    data = word.encode()
    runs = data.translate(_RUN_ENDS).split(b"\xff")
    letters = data.translate(None, b"t")
    if len(letters) != len(runs) - 1:  # a byte neither t nor l, r, m, f
        check_letters(word)  # raises, naming the first foreign letter
    letters = letters.decode()
    if runs[-1]:  # the bare run after the last insertion letter
        letters = [*letters, ""]
    return runs, letters


def tokens(word: str) -> Iterator[tuple[int, str]]:
    """Read a word as ``(run, letter)``: one token per insertion letter,
    ``run`` being the number of t's right in front of it, plus
    ``(run, "")`` if the word ends in a bare run of t's: ``mrtltff``
    reads ``(0, "m"), (0, "r"), (1, "l"), (1, "f"), (0, "f")``.

    The runs and the letters come from two byte passes over the whole
    word (split at the insertion letters; delete the t's), so a t costs
    no Python work.  Raises, naming the first foreign letter, unless the
    bytes left after deleting the t's are as many as the insertion letters
    the split found, that is, all insertion letters.

    The split of the last word read is kept, so a word that several
    readers take in a row (validate, the stack acceptor, decode) is split
    once; an equal word reads it whatever the object.  Any other word
    replaces it: one entry cannot grow, and a word that raises is never
    kept.  ``encode`` does not fill the entry, so the readers still check
    every word it writes.  The pairing stays lazy, so a reader that stops
    early pays nothing for the rest.
    """
    runs, letters = _split(word)
    return zip(map(len, runs), letters)


def validate(word: str) -> Legality:
    """Left-to-right legality scan, a token at a time, with constant extra
    state; it names the same first fault as a letter-by-letter scan."""
    if not word:
        return _ILLEGAL[REASON_EMPTY]
    slots = 1
    for run, letter in tokens(word):
        if slots == 0:
            return _ILLEGAL[REASON_EXHAUSTED]
        if run >= slots:
            return _ILLEGAL[REASON_T_OVERFLOW]
        if letter:  # not the bare run of t's that ends the word
            slots += MOVES[letter]
    if word[-1] != "f":
        return _ILLEGAL[REASON_TRAILING]
    if slots != 0:
        return _ILLEGAL[REASON_UNFILLED]
    return _LEGAL


def decode(word: str) -> Permutation:
    """Build the permutation a legal codeword describes.

    Raises IllegalCodewordError, carrying the reason validate would give,
    otherwise.  The result's length equals the number of non-t letters.

    The entries form a linked list, ``after[v]`` being the entry right of
    value v and ``after[0]`` the leftmost.  The open slots are the list
    ``slots`` of the entries they follow, left to right (0 at the left
    end), so a token's slot is ``slots[run]`` and its value is linked in
    right after that entry: l moves the slot past the value, m opens a new
    slot after it, f closes the slot.  ``len(slots)`` is validate's slot
    count, so the same pass makes validate's checks in validate's order.
    A t costs no Python work; only the list shifts of m and f grow with
    the number of open slots.
    """
    if not word:
        raise IllegalCodewordError(word, REASON_EMPTY)
    after = [0]
    slots = [0]
    for run, letter in tokens(word):
        if run >= len(slots):
            reason = REASON_T_OVERFLOW if slots else REASON_EXHAUSTED
            raise IllegalCodewordError(word, reason)
        if not letter:  # the bare run of t's that ends the word
            break
        value = len(after)
        left = slots[run]
        after.append(after[left])
        after[left] = value
        if letter == "l":
            slots[run] = value
        elif letter == "m":
            slots.insert(run + 1, value)
        elif letter == "f":
            del slots[run]
    if word[-1] != "f":
        raise IllegalCodewordError(word, REASON_TRAILING)
    if slots:
        raise IllegalCodewordError(word, REASON_UNFILLED)
    items = []
    value = after[0]
    while value:
        items.append(value)
        value = after[value]
    # the walk visits each of 1..n once
    return Permutation.of_ranks(tuple(items))


def encode(perm: Permutation) -> str:
    """Inverse of decode: the unique codeword building the given permutation.

    Works on the not-yet-filled cells 1..n of the target, between two filled
    sentinel cells 0 and n+1: their maximal runs are exactly the open slots,
    left to right.  The entry at cell pos is encoded by one t per open run
    ending before pos, then f/l/r/m according to whether pos is its run's
    only cell, its left end, its right end, or interior.  The runs' right
    ends are kept sorted, so that count is one ``bisect``.
    """
    n = len(perm)
    if n == 0:
        raise ValueError("the empty permutation has no codeword")
    cell = [0] * n  # cell[v - 1]: the cell of value v
    for pos, value in enumerate(perm.ranks, 1):
        cell[value - 1] = pos
    filled = bytearray(n + 2)
    filled[0] = filled[n + 1] = 1
    ends = [n]  # the right ends of the open runs, left to right
    out: list[str] = []
    for pos in cell:
        run = bisect_left(ends, pos)  # ends[run] closes pos's own run
        out.append("t" * run)
        if filled[pos - 1]:
            if filled[pos + 1]:
                out.append("f")
                del ends[run]
            else:
                out.append("l")
        elif filled[pos + 1]:
            out.append("r")
            ends[run] = pos - 1
        else:
            out.append("m")
            ends.insert(run, pos - 1)
        filled[pos] = 1
    return "".join(out)


def moves(slots: int, remaining: int) -> list[tuple[int, str, int]]:
    """The moves from ``slots`` open slots with ``remaining`` insertions
    left, as (t's, letter, slots after): j t's send the letter to slot
    j+1.  A move is kept when the insertions after it can still fill the
    slots it leaves, or when it ends the word on its last insertion.
    Listed by t's, then in ``MOVES``' order of letters."""
    return [
        (j, letter, slots + move)
        for j in range(slots)
        for letter, move in MOVES.items()
        if 0 < slots + move < remaining or slots + move == 0 == remaining - 1
    ]


def codewords_with_insertions(n: int) -> Iterator[str]:
    """Yield every legal codeword with exactly n insertion (non-t) letters.

    Backtracks over the slot count along ``moves``, which prunes the
    branches that cannot reach slots == 0 on their final letter; the
    stream has exactly n! elements.  Refuses n < 1.  The stream is lazy,
    so it takes no cap: a caller that consumes it whole checks n first.

    The walk keeps its own stack of (prefix, moves left), one entry per
    insertion, so no n meets Python's recursion limit.  A state is the
    number of open slots and of insertions left; its moves, each the
    letters it appends and the state they lead to (None when they end the
    word), are spelled once per state and stream.
    """
    check_size(n, positive=True)  # the empty permutation has no codeword

    def walk() -> Iterator[str]:
        spelled: dict[tuple[int, int], list[tuple[str, tuple[int, int] | None]]] = {}

        def moves_from(state: tuple[int, int]) -> Iterator[tuple[str, tuple[int, int] | None]]:
            if state not in spelled:
                remaining = state[1]
                spelled[state] = [
                    ("t" * j + letter, (after, remaining - 1) if after else None)
                    for j, letter, after in moves(*state)
                ]
            return iter(spelled[state])

        stack = [("", moves_from((1, n)))]
        while stack:
            prefix, rest = stack[-1]
            for letters, state in rest:
                if state is None:
                    yield prefix + letters
                else:
                    stack.append((prefix + letters, moves_from(state)))
                    break
            else:
                stack.pop()

    return walk()
