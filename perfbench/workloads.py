"""The three workloads: inputs drawn from a seed, one request, its check.

Each workload holds ``items``, the inputs of one pass, and offers
``call(item)`` (one timed call) and ``check(item, output)`` (the number of
failed units, checked against the oracles outside the timed region).
``pass_seconds``, the nominal wall time of one pass, sets how many passes
``--seconds`` holds.
"""

from __future__ import annotations

import io
import itertools
import math
from contextlib import redirect_stdout


class Workload:
    """Defaults: each call is one request, one unit and one unit of work."""

    def units(self, item) -> int:
        """Units attempted, over which failures are counted."""
        return 1

    def work(self, item) -> int:
        """Work units, counted by ``throughput_per_s``."""
        return 1

    def request_latencies(self, latencies: list[float]) -> list[float]:
        """Latencies of the requests a user makes, from those of the calls."""
        return latencies


# --- enum -------------------------------------------------------------------

N_MAX = 6
CATALAN = (1, 1, 2, 5, 14, 42, 132)
# Basis shapes: pattern lengths of a single pattern, or of a pair.  The
# pairs are the only bases for which accepts_basis repeats legality.
BASIS_SHAPES = ((3,), (4,), (3, 4), (4, 4))
# Distinct bases drawn per shape.  One basis's cost moves by up to 40%
# with its patterns; two per shape narrow a pass's spread by about 30%.
BASES_PER_SHAPE = 2


def random_pattern(rng, k: int) -> tuple[int, ...]:
    ranks = list(range(1, k + 1))
    rng.shuffle(ranks)
    return tuple(ranks)


class EnumWorkload(Workload):
    """``counting.sequence(basis, 6)`` for two bases of each shape: every
    codeword up to n=6 decided on the tape (legality plus every tuple),
    beside the brute-force route.

    It is a batch job: the pass is its one request, so latency is time to
    solution.  A basis's units are its rows n=0..6, and its work is the
    permutations counted, each along both routes.
    """

    name = "enum"
    pass_seconds = 11.0  # nominal, on a busy 2.1 GHz Xeon VM with CPython 3.11

    def __init__(self, pkg, rng) -> None:
        self.pkg = pkg
        bases = []
        for shape in BASIS_SHAPES:
            drawn = 0
            while drawn < BASES_PER_SHAPE:
                patterns: list[tuple[int, ...]] = []
                for k in shape:
                    q = random_pattern(rng, k)
                    while q in patterns:
                        q = random_pattern(rng, k)
                    patterns.append(q)
                basis = pkg.permutations.Basis(patterns)
                if basis not in bases:
                    bases.append(basis)
                    drawn += 1
        self.items = bases
        self.first_tables: dict = {}

    def describe(self) -> str:
        return "bases " + " ".join(
            "{" + ",".join("".join(map(str, p)) for p in basis) + "}"
            for basis in self.items
        )

    def call(self, basis):
        return self.pkg.counting.sequence(basis, N_MAX)

    def request_latencies(self, latencies: list[float]) -> list[float]:
        return [sum(latencies)]

    def units(self, basis) -> int:
        return N_MAX + 1

    def work(self, basis) -> int:
        return sum(math.factorial(n) for n in range(1, N_MAX + 1))

    def check(self, basis, table) -> int:
        """Rows that fail: a wrong n, routes that disagree, a length-3
        singleton off the Catalan numbers, or a row that differs from the
        first pass."""
        rows = table.rows
        if len(rows) != N_MAX + 1:
            return N_MAX + 1
        first = self.first_tables.setdefault(basis, rows)
        catalan = len(basis) == 1 and len(basis.patterns[0]) == 3
        return sum(
            row.n != n
            or row.brute != row.codeword
            or (catalan and row.brute != CATALAN[n])
            or row != first[n]
            for n, row in enumerate(rows)
        )


# --- check ------------------------------------------------------------------

# Queries per half (built avoiders, random permutations) in each (n, |q|)
# cell.  A query's cost spreads over ~20x between cells.  The costly cells
# are few: they set the tail.  The cheap ones are many, so the percentiles
# rest on many samples.  A pass is ~36 M tape steps.
CHECK_CELLS = {
    (9, 4): 60, (9, 5): 24, (10, 4): 24, (10, 5): 12,
    (11, 4): 10, (11, 5): 3, (12, 4): 3, (12, 5): 1,
}
# Candidates drawn per query chosen, and at least this many per half-cell.
POOL_FACTOR = 8
POOL_MIN = 32


def longest_increasing(seq) -> int:
    tails: list[int] = []
    for v in seq:
        lo, hi = 0, len(tails)
        while lo < hi:
            mid = (lo + hi) // 2
            if tails[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        tails[lo:lo + 1] = [v]
    return len(tails)


def built_avoider(rng, n: int, q: tuple[int, ...]) -> list[int]:
    """A permutation of 1..n that avoids q by construction.

    It interleaves LIS(q) - 1 decreasing runs, so its longest increasing
    subsequence is shorter than q's and no occurrence of q fits.  A
    decreasing q (LIS 1) is handled by building an avoider of its reverse
    and reversing that.
    """
    runs = longest_increasing(q) - 1
    if runs == 0:
        return built_avoider(rng, n, q[::-1])[::-1]
    labels = [rng.randrange(runs) for _ in range(n)]
    members: list[list[int]] = [[] for _ in range(runs)]
    for value, label in zip(range(n, 0, -1), labels):
        members[label].append(value)
    rng.shuffle(labels)
    return [members[label].pop(0) for label in labels]


def first_occurrence(p: list[int], q: tuple[int, ...]) -> int | None:
    """How many value tuples v1 < ... < vk, taken in lexicographic order,
    come before the first one whose positions spell q; None if p avoids q."""
    where = [0] * (len(p) + 1)
    for position, value in enumerate(p):
        where[value] = position
    order = [rank - 1 for rank in q]  # q[j] is the rank of the j-th leftmost
    for index, values in enumerate(itertools.combinations(range(1, len(p) + 1), len(q))):
        positions = [where[values[r]] for r in order]
        if all(a < b for a, b in zip(positions, positions[1:])):
            return index
    return None


def spread_evenly(candidates: list, size, count: int) -> list:
    """``count`` of the candidates at evenly spaced quantiles of ``size``."""
    ranked = sorted(candidates, key=size)
    return [ranked[(2 * i + 1) * len(ranked) // (2 * count)] for i in range(count)]


class CheckWorkload(Workload):
    """``permlang check --pattern q --perm p`` in process, stdout captured.

    Half the queries are built avoiders, so avoiders, which scan all
    C(n,|q|) tuples, are half the queries or more by construction.

    A query's cost follows its *search size*: the value tuples the search
    must try before it knows the answer (all C(n,|q|) for an avoider, up
    to the first occurrence of q for a container), times the square of
    the codeword's length (of the powers tried, the square fits the tape's
    step counts best).  Each half of each cell draws ``POOL_FACTOR`` times
    as many candidates as it needs and keeps those at evenly spaced
    quantiles of search size.  The queries are still the seed's random
    draws, but each seed gets nearly the same spread of costs: over seeds,
    the tape steps of a pass spread 3% and its percentiles 4-6%, against
    10-18% for plain draws.
    """

    name = "check"
    pass_seconds = 13.0  # nominal, on a busy 2.1 GHz Xeon VM with CPython 3.11

    def __init__(self, pkg, rng) -> None:
        self.pkg = pkg
        perms = pkg.permutations
        self.items = []
        for (n, k), count in CHECK_CELLS.items():
            tuples = math.comb(n, k)
            pool = max(POOL_FACTOR * count, POOL_MIN)
            for built in (True, False):
                candidates = []
                for _ in range(pool):
                    q = random_pattern(rng, k)
                    if built:  # an avoider; the oracle checks the ones kept
                        p = built_avoider(rng, n, q)
                        tried = tuples
                    else:
                        p = list(range(1, n + 1))
                        rng.shuffle(p)
                        found = first_occurrence(p, q)
                        tried = tuples if found is None else found + 1
                    letters = len(pkg.codec.encode(perms.Permutation(p)))
                    candidates.append((tried * letters**2, q, p))
                for _, q, p in spread_evenly(candidates, lambda c: c[0], count):
                    avoids = perms.avoids_basis(perms.Permutation(p), perms.Basis([q]))
                    if built and not avoids:
                        raise RuntimeError(f"built permutation {p} does not avoid {q}")
                    argv = ("check", "--pattern", "".join(map(str, q)),
                            "--perm", " ".join(map(str, p)))
                    self.items.append((argv, avoids))
        self.avoiders = sum(avoids for _, avoids in self.items)

    def describe(self) -> str:
        return f"{len(self.items)} queries, {self.avoiders} avoiders (oracle)"

    def call(self, item):
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.pkg.cli.main(list(item[0]))
        return code, out.getvalue()

    def check(self, item, output) -> int:
        avoids = item[1]
        expected = (0, "avoid\n") if avoids else (1, "contain\n")
        return int(output != expected)


# --- codec ------------------------------------------------------------------

# Each size's n spread evenly over [size, size + 100) from a seeded offset,
# so that the n near each percentile, which sets its time, barely moves
# from seed to seed; the permutations themselves are random.
CODEC_SIZES = range(200, 1000, 100)
CODEC_PER_SIZE = 14


class CodecWorkload(Workload):
    """encode, then validate, then the stack acceptor, then decode, on
    random permutations with n in 200..999; no tape work at all."""

    name = "codec"
    pass_seconds = 7.0  # nominal, on a busy 2.1 GHz Xeon VM with CPython 3.11

    def __init__(self, pkg, rng) -> None:
        self.pkg = pkg
        self.items = []
        for size in CODEC_SIZES:
            offset = rng.random()
            for i in range(CODEC_PER_SIZE):
                n = size + int((i + offset) * 100 / CODEC_PER_SIZE)
                ranks = list(range(1, n + 1))
                rng.shuffle(ranks)
                self.items.append(pkg.permutations.Permutation(ranks))

    def describe(self) -> str:
        return f"{len(self.items)} permutations, n {min(map(len, self.items))}..{max(map(len, self.items))}"

    def call(self, perm):
        codec = self.pkg.codec
        word = codec.encode(perm)
        legal = codec.validate(word)
        stack_ok = self.pkg.stackmachine.accepts_codewords(word)
        return legal, stack_ok, codec.decode(word)

    def check(self, perm, output) -> int:
        legal, stack_ok, decoded = output
        return int(not (legal and stack_ok is True and decoded == perm))


WORKLOADS = {w.name: w for w in (EnumWorkload, CheckWorkload, CodecWorkload)}
