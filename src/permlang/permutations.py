"""Permutations as rank sequences, order isomorphism, and pattern containment.

Everything in this module is deliberately plain: these functions are the
trusted oracles that the machine-model implementations elsewhere in the
package are tested against, so they favour obviousness over speed.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

DEFAULT_ENUMERATION_CAP = 10


class CapExceededError(ValueError):
    """An enumeration request exceeded its configured size cap."""


class Permutation:
    """An immutable permutation stored as ranks 1..n.

    Any sequence of distinct numbers is accepted and normalized to its rank
    sequence, since every notion used here (containment, avoidance, order
    isomorphism) depends only on relative order.
    """

    __slots__ = ("_ranks",)

    def __init__(self, values: Iterable[float]) -> None:
        vals = tuple(values)
        if len(set(vals)) != len(vals):
            raise ValueError(f"permutation entries must be distinct, got {vals}")
        rank = {v: i + 1 for i, v in enumerate(sorted(vals))}
        self._ranks = tuple(rank[v] for v in vals)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self._ranks

    def __len__(self) -> int:
        return len(self._ranks)

    def __iter__(self):
        return iter(self._ranks)

    def __getitem__(self, index: int) -> int:
        return self._ranks[index]

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
        must be exactly 1..k, so that text input is never reinterpreted.
        """
        tokens = line.split()
        entries = []
        for tok in tokens:
            if not tok.isdigit() or int(tok) < 1:
                raise ValueError(f"bad permutation token: {tok!r}")
            entries.append(int(tok))
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError(
                f"entries {line.strip()!r} are not a permutation of 1..{len(entries)}"
            )
        return cls(entries)


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

    def __contains__(self, item: object) -> bool:
        return item in self._patterns

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
    k, n = len(q), len(p)
    if k > n:
        return False
    if k == 0:
        return True
    pr, qr = p.ranks, q.ranks

    def extend(start: int, chosen: list[int]) -> bool:
        j = len(chosen)
        if j == k:
            return True
        for pos in range(start, n - (k - j) + 1):
            v = pr[pos]
            if all((v > c) == (qr[j] > qr[i]) for i, c in enumerate(chosen)):
                chosen.append(v)
                if extend(pos + 1, chosen):
                    return True
                chosen.pop()
        return False

    return extend(0, [])


def avoids_basis(p: Permutation, basis: Basis) -> bool:
    """True iff p contains none of the basis patterns."""
    return not any(contains_pattern(p, q) for q in basis)


def all_permutations(
    n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Permutation]:
    """Yield all n! permutations of {1..n} exactly once, in lexicographic order.

    Refuses with CapExceededError when n exceeds the cap; the stream returned
    by each call is independent and restartable.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds enumeration cap {cap}")
    return (Permutation(tup) for tup in itertools.permutations(range(1, n + 1)))
