"""Avoidance counting along independent routes, plus codeword statistics.

``ROUTES`` is the one list of counting routes, in column order, each a
function of n >= 1 and basis: brute force filters all permutations of
length n with the direct containment oracle, and the codeword route
filters all legal codewords with the bounded-tape acceptor.  The streams
take no cap, so the n! limit is this module's: each function here that
consumes a whole stream checks n against its cap (``DEFAULT_COUNT_CAP``
unless given) before any stream is created.  ``CountRow``'s fields are
``n`` and the route names, so the CSV header, the JSON keys and
``CountMismatchError``'s text follow the table.  A row whose routes
disagree cannot be built, so a mismatch fails loudly instead of being
recorded.  The routes look the oracle, the generators and the tape up in
this module when called, so replacing those attributes reaches every call.
The module also counts legal codewords by their number of t letters.
"""

from __future__ import annotations

from collections import namedtuple

from . import tape
from .codec import codewords_with_insertions
from .permutations import Basis, all_permutations, avoids_basis, check_size

DEFAULT_COUNT_CAP = 8


class CountMismatchError(RuntimeError):
    """The counting routes disagreed; carries the offending row as ``row``."""

    def __init__(self, row: CountRow) -> None:
        counts = " != ".join(f"{name} {count}" for name, count in zip(row._fields[1:], row[1:]))
        super().__init__(f"count mismatch at n={row.n}: {counts}")
        self.row = row


def _brute(n: int, basis: Basis) -> int:
    return sum(1 for p in all_permutations(n) if avoids_basis(p, basis))


def _codeword(n: int, basis: Basis) -> int:
    return sum(1 for w in codewords_with_insertions(n) if tape.accepts_basis(w, basis).verdict)


ROUTES = {"brute": _brute, "codeword": _codeword}


class CountRow(namedtuple("CountRow", ["n", *ROUTES])):
    """The number of length-n avoiders, once per route: each field after
    ``n`` is a route of ``ROUTES``, and construction refuses routes that
    disagree, also through ``_make`` and ``_replace``.  A named tuple: it
    equals, and unpacks like, the tuple of its fields."""

    __slots__ = ()

    def __new__(cls, n: int, *counts: int) -> CountRow:
        row = super().__new__(cls, n, *counts)
        if len(set(counts)) > 1:
            raise CountMismatchError(row)
        return row

    @classmethod
    def _make(cls, iterable) -> CountRow:
        return cls(*iterable)  # _replace builds its row here too


class CountTable(namedtuple("CountTable", "rows")):
    """Rows for n = 0, 1, ..., one column per ``CountRow`` field.  A named
    tuple: it equals, and unpacks like, the tuple ``(rows,)``."""

    __slots__ = ()

    def to_csv(self) -> str:
        lines = [",".join(CountRow._fields)]
        lines.extend(",".join(map(str, row)) for row in self.rows)
        return "\n".join(lines)

    def to_json(self) -> str:
        import json  # here, so that importing the package does not load json

        return json.dumps({"rows": [row._asdict() for row in self.rows]})


def count_avoiders(n: int, basis: Basis, cap: int = DEFAULT_COUNT_CAP) -> CountRow:
    """Count length-n avoiders of the basis along every route of ``ROUTES``.

    Raises ``CountMismatchError`` when the routes disagree.  n = 0 counts 1
    on each route by convention, the empty permutation avoiding every
    nonempty pattern, and runs no route.
    """
    check_size(n, cap)
    if n == 0:
        return CountRow(0, *[1] * len(ROUTES))
    return CountRow(n, *(route(n, basis) for route in ROUTES.values()))


def sequence(basis: Basis, n_max: int, cap: int = DEFAULT_COUNT_CAP) -> CountTable:
    """Avoider counts for n = 0..n_max along every route; raises on mismatch.

    n_max is checked against the cap before any row is computed.
    """
    check_size(n_max, cap, "n_max")
    return CountTable(tuple(count_avoiders(n, basis, cap=cap) for n in range(n_max + 1)))


def count_codewords_bivariate(
    n_insertions: int, cap: int = DEFAULT_COUNT_CAP
) -> dict[int, int]:
    """Partition the n! legal codewords with n insertions by their t-count;
    refuses n_insertions < 1 or above the cap before the stream is created."""
    check_size(n_insertions, cap, positive=True)
    table: dict[int, int] = {}
    for word in codewords_with_insertions(n_insertions):
        t_count = word.count("t")
        table[t_count] = table.get(t_count, 0) + 1
    return dict(sorted(table.items()))
