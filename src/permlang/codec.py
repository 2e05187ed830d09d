"""Validation, decoding and encoding of slot-insertion codewords.

A codeword is a word over the alphabet l, r, m, f, t that describes how a
permutation is built by inserting 1, 2, 3, ... into open slots, starting
from a single slot.  Each insertion letter acts on one slot: l puts the
next value at the slot's left end (keeping the rest of the slot open),
r at its right end, m in the middle (splitting the slot in two), and f
fills the slot completely.  A run of j consecutive t letters in front of
an insertion letter redirects it to slot j+1, slots counted from the left;
the target resets to slot 1 after every insertion.

A word is legal when every insertion targets a slot that exists and the
word ends exactly when the last slot is filled.  Scanning left to right
with ``slots = 1 + #m - #f``, that means: slots >= 1 before every
insertion, every t-run has length <= slots - 1, the final letter is f,
and slots == 0 precisely at the end of the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .permutations import DEFAULT_ENUMERATION_CAP, CapExceededError, Permutation

ALPHABET = "lrmft"

REASON_EMPTY = "empty-word"
REASON_T_OVERFLOW = "t-overflow"
REASON_EXHAUSTED = "premature-slot-exhaustion"
REASON_TRAILING = "trailing-non-f"
REASON_UNFILLED = "unfilled-slots"


@dataclass(frozen=True)
class Legality:
    """Verdict of validate(); falsy verdicts carry a machine-readable reason."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class IllegalCodewordError(ValueError):
    """Raised when an operation requires a legal codeword but got none."""

    def __init__(self, word: str, reason: str) -> None:
        super().__init__(f"illegal codeword {word!r}: {reason}")
        self.word = word
        self.reason = reason


def check_letters(word: str) -> None:
    """Reject strings containing characters outside the codeword alphabet."""
    if frozenset(ALPHABET).issuperset(word):
        return
    for i, ch in enumerate(word):
        if ch not in ALPHABET:
            raise ValueError(
                f"letter {ch!r} at position {i} is not one of {ALPHABET!r}"
            )


def validate(word: str) -> Legality:
    """Plain left-to-right legality scan with constant extra state."""
    check_letters(word)
    if not word:
        return Legality(False, REASON_EMPTY)
    slots, t_run = 1, 0
    for ch in word:
        if slots == 0:
            return Legality(False, REASON_EXHAUSTED)
        if ch == "t":
            t_run += 1
            if t_run > slots - 1:
                return Legality(False, REASON_T_OVERFLOW)
        else:
            if ch == "m":
                slots += 1
            elif ch == "f":
                slots -= 1
            t_run = 0
    if word[-1] != "f":
        return Legality(False, REASON_TRAILING)
    if slots != 0:
        return Legality(False, REASON_UNFILLED)
    return Legality(True)


def decode(word: str) -> Permutation:
    """Build the permutation a legal codeword describes.

    Raises IllegalCodewordError (carrying the validate reason) otherwise.
    The result's length equals the number of non-t letters.
    """
    verdict = validate(word)
    if not verdict:
        raise IllegalCodewordError(word, verdict.reason or "illegal")
    items: list[int | None] = [None]
    next_entry, next_slot = 1, 1
    for ch in word:
        if ch == "t":
            next_slot += 1
            continue
        idx = -1
        for _ in range(next_slot):
            idx = items.index(None, idx + 1)
        if ch == "l":
            items[idx : idx + 1] = [next_entry, None]
        elif ch == "r":
            items[idx : idx + 1] = [None, next_entry]
        elif ch == "m":
            items[idx : idx + 1] = [None, next_entry, None]
        else:
            items[idx] = next_entry
        next_entry += 1
        next_slot = 1
    return Permutation(items)  # type: ignore[arg-type]  # no None left in a legal word


def encode(perm: Permutation) -> str:
    """Inverse of decode: the unique codeword building the given permutation.

    Works on the not-yet-filled cells 1..n of the target, between two filled
    sentinel cells 0 and n+1: their maximal runs are exactly the open slots,
    left to right.  The entry at cell pos is encoded by one t per open run
    ending before pos (each such end is an unfilled cell followed by a
    filled one), then f/l/r/m according to whether pos is its run's only
    cell, its left end, its right end, or interior.
    """
    n = len(perm)
    if n == 0:
        raise ValueError("the empty permutation has no codeword")
    cell = [0] * n  # cell[v - 1]: the cell of value v
    for pos, value in enumerate(perm.ranks, 1):
        cell[value - 1] = pos
    filled = bytearray(n + 2)
    filled[0] = filled[n + 1] = 1
    out: list[str] = []
    for pos in cell:
        out.append("t" * filled.count(b"\x00\x01", 0, pos))
        if filled[pos - 1]:
            out.append("f" if filled[pos + 1] else "l")
        else:
            out.append("r" if filled[pos + 1] else "m")
        filled[pos] = 1
    return "".join(out)


def codewords_with_insertions(
    n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[str]:
    """Yield every legal codeword with exactly n insertion (non-t) letters.

    Backtracks over the slot count, pruning branches that cannot reach
    slots == 0 on their final letter; the stream has exactly n! elements.
    """
    if n < 1:
        raise ValueError("n must be positive; the empty permutation has no codeword")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds codeword enumeration cap {cap}")

    def walk(slots: int, remaining: int, prefix: str) -> Iterator[str]:
        for j in range(slots):
            head = prefix + "t" * j
            for ch in "lrmf":
                new_slots = slots + (1 if ch == "m" else -1 if ch == "f" else 0)
                if new_slots == 0:
                    if remaining == 1:
                        yield head + ch
                elif remaining - 1 >= new_slots:
                    yield from walk(new_slots, remaining - 1, head + ch)

    return walk(1, n, "")
