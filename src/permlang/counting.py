"""Avoidance counting along two independent routes, plus codeword statistics.

The brute-force route filters all permutations of a given length with the
direct containment oracle; the codeword route filters all legal codewords
with the bounded-tape acceptor.  The two totals must agree, and a table
construction that sees a mismatch fails loudly instead of recording it.
The module also counts legal codewords by their number of t letters and
provides an exact integer-partition counter used to cross-check the stack
automaton's partition-word language.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import tape
from .codec import codewords_with_insertions
from .permutations import Basis, CapExceededError, all_permutations, avoids_basis

DEFAULT_COUNT_CAP = 8
PARTITION_LIMIT = 10000

_partition_cache = [1]


class CountMismatchError(RuntimeError):
    """The two counting routes disagreed; carries the offending row."""

    def __init__(self, n: int, brute: int, codeword: int) -> None:
        super().__init__(
            f"count mismatch at n={n}: brute-force {brute} != codeword {codeword}"
        )
        self.n = n
        self.brute = brute
        self.codeword = codeword


@dataclass(frozen=True)
class CountRow:
    n: int
    brute: int
    codeword: int


@dataclass(frozen=True)
class CountTable:
    """Rows of (length, brute-force count, codeword-route count).

    Equality of the two count columns is enforced at construction.
    """

    rows: tuple[CountRow, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if row.brute != row.codeword:
                raise CountMismatchError(row.n, row.brute, row.codeword)

    def counts(self) -> tuple[int, ...]:
        return tuple(row.brute for row in self.rows)

    def to_csv(self) -> str:
        lines = ["n,brute,codeword"]
        lines.extend(f"{r.n},{r.brute},{r.codeword}" for r in self.rows)
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {"rows": [{"n": r.n, "brute": r.brute, "codeword": r.codeword} for r in self.rows]}
        )


def _check_size(n: int, cap: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds counting cap {cap}")


def count_avoiders(n: int, basis: Basis, cap: int = DEFAULT_COUNT_CAP) -> tuple[int, int]:
    """Count length-n avoiders of the basis along both routes.

    Returns (brute_force, via_codewords); n = 0 is (1, 1) by convention,
    the empty permutation avoiding every nonempty pattern.
    """
    _check_size(n, cap)
    if n == 0:
        return (1, 1)
    brute = sum(1 for p in all_permutations(n, cap=cap) if avoids_basis(p, basis))
    via_codewords = sum(
        1
        for w in codewords_with_insertions(n, cap=cap)
        if tape.accepts_basis(w, basis).verdict
    )
    return (brute, via_codewords)


def sequence(basis: Basis, n_max: int, cap: int = DEFAULT_COUNT_CAP) -> CountTable:
    """Avoider counts for n = 0..n_max along both routes; raises on mismatch.

    n_max is checked against the cap before any row is computed.
    """
    _check_size(n_max, cap)
    rows = []
    for n in range(n_max + 1):
        brute, via = count_avoiders(n, basis, cap=cap)
        rows.append(CountRow(n, brute, via))
    return CountTable(tuple(rows))


def count_codewords_bivariate(
    n_insertions: int, cap: int = DEFAULT_COUNT_CAP
) -> dict[int, int]:
    """Partition the n! legal codewords with n insertions by their t-count."""
    if n_insertions < 1:
        raise ValueError("n_insertions must be positive")
    _check_size(n_insertions, cap)
    table: dict[int, int] = {}
    for word in codewords_with_insertions(n_insertions, cap=cap):
        t_count = word.count("t")
        table[t_count] = table.get(t_count, 0) + 1
    return dict(sorted(table.items()))


def partition_count(n: int) -> int:
    """Exact number of integer partitions of n, via the pentagonal-number
    recurrence; p(0) = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > PARTITION_LIMIT:
        raise ValueError(f"n={n} exceeds supported limit {PARTITION_LIMIT}")
    while len(_partition_cache) <= n:
        m = len(_partition_cache)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _partition_cache[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * _partition_cache[m - g2]
            k += 1
        _partition_cache.append(total)
    return _partition_cache[n]
