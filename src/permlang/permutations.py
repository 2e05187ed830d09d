"""Permutations as rank sequences, order isomorphism, and pattern containment.

Everything in this module is deliberately plain: these functions are the
trusted oracles that the machine-model implementations elsewhere in the
package are tested against, so they favour obviousness over speed.  An
oracle may hold the literal definition, the pruning its docstring states,
and ordinary loops that break on the first disagreement.  It holds no
cache, no table and no further pruning.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator


class CapExceededError(ValueError):
    """A size exceeded its cap."""


def check_size(
    value: int, cap: int | None = None, name: str = "n", positive: bool = False
) -> None:
    """Refuse a size before any work starts: ValueError below 0 (below 1
    when positive), CapExceededError above cap (no upper bound when cap is
    None).  The package's one size guard; each caller names its size."""
    if value < positive:
        raise ValueError(f"{name} must be {'positive' if positive else 'nonnegative'}")
    if cap is not None and value > cap:
        raise CapExceededError(f"{name}={value} exceeds the cap {cap}")


def is_positive_decimal(token: str) -> bool:
    """True iff the token is a positive integer in ASCII decimal with no
    leading zero: the only number text that input never reinterprets."""
    return token.isascii() and token.isdigit() and token[0] != "0"


_TEXT = (str, bytes, bytearray)


class Permutation:
    """An immutable permutation stored as ranks 1..n.

    Any sequence of distinct numbers is accepted and normalized to its rank
    sequence, since every notion used here (containment, avoidance, order
    isomorphism) depends only on relative order.  Text raises TypeError
    rather than being ranked character by character or entry by entry:
    it goes through ``from_text``.
    """

    __slots__ = ("_ranks",)

    def __init__(self, values: Iterable[float]) -> None:
        if isinstance(values, _TEXT):
            raise TypeError(f"parse text with Permutation.from_text, got {values!r}")
        vals = tuple(values)
        if len(set(vals)) != len(vals):
            raise ValueError(f"permutation entries must be distinct, got {vals}")
        ordered = sorted(vals)
        # sorted raises on text mixed with numbers, so the first entry
        # tells whether all of them are text
        if ordered and isinstance(ordered[0], _TEXT):
            raise TypeError(f"parse text with Permutation.from_text, got {vals!r}")
        rank = {v: i + 1 for i, v in enumerate(ordered)}
        self._ranks = tuple(rank[v] for v in vals)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self._ranks

    def __len__(self) -> int:
        return len(self._ranks)

    def __iter__(self):
        return iter(self._ranks)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Permutation):
            return self._ranks == other._ranks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._ranks)

    def __repr__(self) -> str:
        return f"Permutation({list(self._ranks)!r})"

    def to_text(self) -> str:
        """One-line text form: decimal ranks separated by single spaces."""
        return " ".join(str(r) for r in self._ranks)

    @classmethod
    def from_text(cls, line: str) -> "Permutation":
        """Parse the text form; the empty line is the empty permutation.

        Unlike the constructor this does not rank-normalize: the entries
        must be exactly 1..k, each written in ASCII decimal with no leading
        zero, so that text input is never reinterpreted.
        """
        tokens = line.split()
        entries = []
        for tok in tokens:
            if not is_positive_decimal(tok):
                raise ValueError(f"bad permutation token: {tok!r}")
            entries.append(int(tok))
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError(
                f"entries {line.strip()!r} are not a permutation of 1..{len(entries)}"
            )
        return cls.of_ranks(tuple(entries))

    @classmethod
    def of_ranks(cls, ranks: tuple[int, ...]) -> "Permutation":
        """The permutation with exactly these ranks, taken as they are.

        The caller guarantees a tuple holding each of 1..n once; nothing is
        checked or re-ranked.  Callers that build 1..n by construction use
        this instead of the rank-normalizing constructor.
        """
        perm = object.__new__(cls)
        perm._ranks = ranks
        return perm


class Basis:
    """A nonempty, duplicate-free set of forbidden patterns of length >= 1.

    Iteration order is deterministic (by length, then ranks).
    """

    __slots__ = ("_patterns",)

    def __init__(self, patterns: Iterable) -> None:
        pats = frozenset(
            p if isinstance(p, Permutation) else Permutation(p) for p in patterns
        )
        if not pats:
            raise ValueError("a basis must contain at least one pattern")
        if any(len(p) == 0 for p in pats):
            raise ValueError("basis patterns must be nonempty")
        self._patterns = tuple(sorted(pats, key=lambda p: (len(p), p.ranks)))

    @property
    def patterns(self) -> tuple[Permutation, ...]:
        return self._patterns

    def __iter__(self):
        return iter(self._patterns)

    def __len__(self) -> int:
        return len(self._patterns)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Basis):
            return self._patterns == other._patterns
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._patterns)

    def __repr__(self) -> str:
        return f"Basis({[list(p.ranks) for p in self._patterns]!r})"


def order_isomorphic(p: Permutation, q: Permutation) -> bool:
    """True iff p and q have equal length and the same relative order everywhere.

    Implemented as the literal pairwise definition; a length mismatch is
    simply False, never an error.
    """
    if len(p) != len(q):
        return False
    pr, qr = p.ranks, q.ranks
    for i in range(len(pr)):
        for j in range(i + 1, len(pr)):
            if (pr[i] < pr[j]) != (qr[i] < qr[j]):
                return False
    return True


def contains_pattern(p: Permutation, q: Permutation) -> bool:
    """True iff some subsequence of p is order-isomorphic to q.

    Pruned depth-first search over index subsequences: a partial match is
    extended only by values consistent with the pattern's relative order.
    Equivalent to the exhaustive scan of all C(|p|,|q|) subsequences.
    """
    pr, qr = p.ranks, q.ranks
    k, n = len(qr), len(pr)
    if k > n:
        return False
    if k == 0:
        return True
    # chosen holds the values matched to q's first j entries, and stack[j]
    # the positions of p still to try for entry j: a loop, not a recursion,
    # so a q longer than the interpreter's recursion limit needs no frames
    chosen: list[int] = []
    stack = [iter(range(n - k + 1))]
    while True:
        j = len(chosen)
        for pos in stack[-1]:
            v = pr[pos]
            for i, c in enumerate(chosen):
                if (v > c) != (qr[j] > qr[i]):
                    break
            else:
                if j + 1 == k:
                    return True
                chosen.append(v)
                stack.append(iter(range(pos + 1, n - (k - j) + 2)))
                break
        else:
            if not chosen:
                return False
            stack.pop()
            chosen.pop()


def avoids_basis(p: Permutation, basis: Basis) -> bool:
    """True iff p contains none of the basis patterns: each pattern in the
    basis's order, up to the first one contained."""
    for q in basis:
        if contains_pattern(p, q):
            return False
    return True


def all_permutations(n: int) -> Iterator[Permutation]:
    """Yield all n! permutations of {1..n} exactly once, in lexicographic order.

    Refuses a negative n.  Each call's stream is independent and lazy, so
    it takes no cap: a caller that consumes it whole checks n first.
    """
    check_size(n)
    return map(Permutation.of_ranks, itertools.permutations(range(1, n + 1)))
