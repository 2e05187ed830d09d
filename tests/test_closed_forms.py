"""One differential harness: each untraced closed form against its traced run.

Untraced, the tape procedures build no tape: legality is
``_legal_closed_form``, the compare is an entry of a ``_compare_row``
walk, ``accepts_basis`` reads its compares from a table of those rows, and
the sieve is ``_sieve_closed_form``.  Traced, each runs primitive by
primitive on a ``BoundedTape`` and ends in its restore.  Each row of ROWS
runs every distinct input of its sources once traced, through
``BoundedTape.run`` on a tape the row builds and reads, and checks that
the two runs agree on the verdict, the steps and the cells touched, that
the tape ends holding its input with the head on the word's last cell,
and that trace line i starts with step i.  A module-scoped fixture runs
a row's inputs traced once, and each check is its own test over that
pass, so a failure names the check and the row; each row also pins its
number of distinct inputs, so a shrunk input set fails.

A traced basis run makes legality from cell 0 and every compare of its
search from cell n-1, so the basis row checks those on its own words.
"""

import itertools
import random

import pytest
from conftest import basis_sum_cases, insertion_cells, seeded_bases, words
from test_golden import counter_runs

from permlang import cli, tape
from permlang.codec import ALPHABET, codewords_with_insertions, encode
from permlang.permutations import Basis, Permutation
from permlang.tape import BoundedTape, TapeRun, accepts_basis


def golden(section):
    """The arguments of the golden counters' runs of one section."""
    return [args for name, _, _, args in counter_runs() if name == section]


def random_codeword(rng, lo, hi):
    n = rng.randint(lo, hi)
    return encode(Permutation(rng.sample(range(1, n + 1), n))), n


def legality_inputs():
    """(word, start head): every word of length <= 6, legal or not, and
    mrtltff from cell 0; the same words, then seeded codewords and random
    words, where nesting, t-runs and licences run long, from drawn heads;
    the ``bench_word`` codewords of length 10..40, whose legality runs
    ``golden_bench.txt`` freezes, from cell 0.  The golden counters'
    legality words are among the short words."""
    short = list(words(range(7)))
    yield from ((word, 0) for word in short + ["mrtltff"])
    rng = random.Random(1997)
    drawn = short + [random_codeword(rng, 8, 40)[0] for _ in range(300)]
    drawn += ["".join(rng.choices(ALPHABET, k=rng.randint(1, 60))) for _ in range(300)]
    yield from ((word, rng.randrange(len(word) + 1)) for word in drawn)
    yield from ((cli.bench_word(size), 0) for size in range(10, 41))


def compare_inputs():
    """(word, a, b, start head) with insertion cells a < b: every pair of
    every codeword with n <= 5, and seeded pairs on words with n = 20..60,
    from cell 0; every pair with n <= 6 and seeded pairs with n = 8..40
    from drawn heads; every row of every codeword with n <= 6 and seeded
    rows with n = 7..40 from cell n-1, where the search makes them; the
    golden pairs from cell 0."""
    small = [(word, n) for n in range(1, 7) for word in codewords_with_insertions(n)]
    for word, n in small:
        if n <= 5:
            yield from ((word, a, b, 0) for a, b in itertools.combinations(range(n), 2))
    rng = random.Random(1985)
    for n in range(20, 61, 5):
        word = encode(Permutation(rng.sample(range(1, n + 1), n)))
        yield from ((word, *sorted(rng.sample(range(n), 2)), 0) for _ in range(6))
    rng = random.Random(2005)
    cases = [(word, a, b) for word, n in small for a, b in itertools.combinations(range(n), 2)]
    for _ in range(300):
        word, n = random_codeword(rng, 8, 40)
        cases.append((word, *sorted(rng.sample(range(n), 2))))
    yield from ((*case, rng.randrange(len(case[0]) + 1)) for case in cases)
    rng = random.Random(2026)
    rows = [(word, n, a) for word, n in small for a in range(n - 1)]
    for _ in range(24):
        word, n = random_codeword(rng, 7, 40)
        rows.append((word, n, rng.randrange(n - 1)))
    for word, n, a in rows:
        yield from ((word, a, b, len(word) - 1) for b in range(a + 1, n))
    for word, x, y in golden("compare"):
        cells = insertion_cells(word)
        yield word, cells.index(x), cells.index(y), 0


def basis_inputs():
    """(word, basis): every codeword with n <= 5 against every pattern with
    k <= 4, then seeded bases of two and three patterns, where a later
    pattern reads rows an earlier one built; the step-sum cases, each with
    its single-pattern runs; every codeword with n <= 4 against 132, 2413;
    the golden runs."""
    patterns = [Basis([q]) for k in range(1, 5) for q in itertools.permutations(range(1, k + 1))]
    for n in range(1, 6):
        for word in codewords_with_insertions(n):
            yield from ((word, basis) for basis in patterns)
    yield from seeded_bases(2027, [6] * 30 + list(range(9, 15)) * 5)
    for word, basis in basis_sum_cases():
        yield word, basis
        yield from ((word, Basis([pattern])) for pattern in basis)
    two = Basis([[1, 3, 2], [2, 4, 1, 3]])
    for n in range(1, 5):
        yield from ((word, two) for word in codewords_with_insertions(n))
    yield from golden("accepts_basis")


def sieve_inputs():
    """(n,): every n to 150, then the shapes whose rounds end differently:
    a prime square's first divisor is its root, a power of two and 2p stop
    in round 2 on a tape no non-dividing round has widened."""
    primes = [p for p in range(2, 200) if all(p % i for i in range(2, p))]
    ns = list(range(1, 151))
    ns += [p * p for p in primes if p * p <= 400]
    ns += [2**e for e in range(1, 9)] + [2 * p for p in primes]
    return [(n,) for n in ns]


def legality_untraced(word, head):
    # from cell 0: a later start head pays the seek to it and legality's
    # seek back to cell 0
    legal, steps, cells = tape._legal_closed_form(word)
    assert cells == insertion_cells(word), word
    return TapeRun(legal, steps + 2 * head, max(head + 1, len(word)))


def legality_traced(word, head, trace):
    t = BoundedTape(word, trace)
    t.seek(head)
    return t.run(tape._check_legal_on_tape), t


def compare_untraced(word, a, b, head):
    cells = insertion_cells(word)
    descending, steps = tape._compare_row(word, cells, a, head)[b - a - 1]
    return TapeRun(descending, steps + head, max(head + 1, len(word)))


def compare_traced(word, a, b, head, trace):
    t = BoundedTape(word, trace)
    t.seek(head)
    cells = insertion_cells(word)
    return t.run(tape._compare_on_tape, cells[a], cells[b]), t


def basis_traced(word, basis, trace):
    t = BoundedTape(word, trace)
    return t.run(tape._accepts_basis_on_tape, basis), t


def sieve_traced(n, trace):
    t = BoundedTape("a" * n, trace)
    return t.run(tape._is_prime_on_tape), t


# row: (inputs, untraced run, traced run and its tape, distinct inputs)
ROWS = {
    "legality": (legality_inputs, legality_untraced, legality_traced, 36_788),
    "compare": (compare_inputs, compare_untraced, compare_traced, 24_831),
    "accepts_basis": (basis_inputs, accepts_basis, basis_traced, 6_138),
    "sieve": (sieve_inputs, lambda n: TapeRun(*tape._sieve_closed_form(n)), sieve_traced, 179),
}


class Traced:
    """A row's traced runs, one per distinct input, and what each left."""

    def __init__(self, name, keys):
        self.name = name
        self.keys = keys
        self.runs = {}  # key -> TapeRun
        self.ends = {}  # key -> (holds its input, head, last cell)
        self.lines = {}  # key -> (trace lines, whether line i starts with step i)


@pytest.fixture(scope="module", params=list(ROWS))
def traced_row(request):
    """Runs every distinct input of one row traced, once for all of the
    row's checks."""
    name = request.param
    inputs, _, traced, _ = ROWS[name]
    row = Traced(name, list(dict.fromkeys(inputs())))
    prefixes = []  # "1\t", "2\t", ...: how trace lines 1, 2, ... start
    for key in row.keys:
        lines = []
        run, t = traced(*key, lines.append)
        row.runs[key] = run
        row.ends[key] = (t.holds_input(), t.head, max(t.n - 1, 0))
        prefixes += [f"{i}\t" for i in range(len(prefixes) + 1, run.steps + 1)]
        row.lines[key] = (len(lines), all(map(str.startswith, lines, prefixes)))
    return row


def test_distinct_inputs(traced_row):
    assert len(traced_row.keys) == ROWS[traced_row.name][3]


def test_untraced_matches_traced(traced_row):
    untraced = ROWS[traced_row.name][1]
    for key, run in traced_row.runs.items():
        assert untraced(*key) == run, (traced_row.name, key)
    assert {run.verdict for run in traced_row.runs.values()} == {True, False}


def test_tape_ends_restored(traced_row):
    for key, (holds_input, head, last) in traced_row.ends.items():
        assert (holds_input, head) == (True, last), (traced_row.name, key)


def test_trace_lines_number_the_steps(traced_row):
    for key, run in traced_row.runs.items():
        assert traced_row.lines[key] == (run.steps, True), (traced_row.name, key)
