"""Shared helpers and sweeps of the test suite, and its layout.

Tier-1 is a bare ``pytest`` from the repository root; ``pyproject.toml``
points it at ``tests/`` with ``src`` on the path.  Each tier-1 check has
one home, and no unit test repeats a larger test's check on a subset of
its inputs:

- ``test_acceptance.py`` holds the acceptance criteria, each with its
  exhaustive sweep and a PASS line;
- ``test_closed_forms.py`` checks every untraced closed form of the tape
  against its traced run;
- ``test_golden.py`` freezes the machines' exact bytes in three golden
  files: the tape's counters, the machines' traces and the ``bench`` CSV;
- ``cli_cases.py`` holds the CLI's bytes: one row per argv whose check is
  its exact exit status, stdout and stderr.  ``test_cli.py`` runs every
  row through ``cli.main``, and CI's ``console-script`` job runs the file
  as a script on the installed ``permlang``;
- ``test_trace_bytes`` in ``test_cli.py`` holds the CLI's trace bytes: each
  golden trace run that a ``--trace`` command reaches, run through
  ``cli.main``, with its verdict line and exit status;
- ``test_module_state.py`` holds the package's module-level state: the
  caches of ROADMAP's cache ledger and the tables that nothing mutates;
- ``test_token_readers.py`` holds every codeword reader against its
  letter-by-letter reference: one table, ``READERS``, and one test that
  reads each word of ``READ`` with each reader, then a neighbour, then
  the word again.  It is also the home of the codeword acceptor's verdict
  and counters, against ``accepts_by_letters``, and ``test_stackmachine.py``
  that of the partition acceptor's, against ``by_blocks``;
- the other modules hold worked examples, error orders, seeded words past
  the exhaustive range and checks that no sweep makes.

Reference helpers that several modules use are written once here: among
them ``insertion_cells``, ``words``, which reads every short word over an
alphabet, ``basis_of``, which reads the tests' basis text, the partition
recursion ``partitions_of``, the one home of partition numbers, and
``run_python``, the one way a test starts a child interpreter.  So is each
family of class members the tests build: ``increasing_runs``, its mirror
``layers`` and ``adjacent_swaps``.  A test that reads a machine's record
builds the machine itself: a ``BoundedTape`` given ``no_trace`` and
entered through ``BoundedTape.run``, or a ``StackMachine`` handed to an
acceptor's procedure, such as a subclass that counts operation calls.

Sweeps.  Each exhaustive agreement check is one sweep function here,
called by tier-1 and by the slow tier alike, and each returns (how many it
checked, failures):

- ``legality_sweep(length)``: acceptance 03;
- ``round_trip_sweep(n)``: acceptance 02;
- ``avoidance_sweep(n, bases)``: acceptance 04 and ``TestAcceptsBasis``;
- ``compare_sweep(n)``: ``TestCompare``;
- ``reverse_sweep(n, bases)``: ``test_reverse.py``;
- ``symmetry_sweep(n)``: ``TestSequence``;
- ``pinned_sweep(n, rows)``: acceptance 05;
- ``census_sweep(n, classes, groups)``: ``TestSequence``, over the classes
  of pairs of length-4 patterns that ``pair_classes`` builds;
- ``relation_sweep(n, family, decide)``: ``TestAcceptsBasis``'s
  ``test_respects_the_containment_order_as_the_oracle_does``, on each
  family of ``RELATION_FAMILIES``, in tier-1 only.  It holds one decider
  to the containment order of patterns on words far past the exhaustive
  sweeps' sizes; the test runs it with the tape and with the oracle and
  compares the two deciders' verdicts on every question it asks.

Pinned counts.  ``PINNED_COUNTS`` is the one home of every avoider count
the tests pin: one row per basis, with its count at length n as a
published formula or the published values, and its source.  No other
test writes a count of its own; acceptance 05 checks every row on both
counting routes to n = 7, and the slow tier the rows it marks at n = 9.
A new counting route reaches further by raising a size, not by copying
counts.

Golden files.  ``assert_golden`` compares a golden file's bytes with what
its render function in ``test_golden.py`` returns, so one changed byte
fails, naming the first differing line and how many lines differ.  A file
freezes only what no reference in the tests computes: where a plain
reference exists, as for the stack acceptors' counters, a test compares
the machine with it, untraced and traced, in place of a frozen file.
Regenerate a file only for a deliberate change, and state the delta:

    PYTHONPATH=src python tests/test_golden.py <file> > tests/<file>

Tape faults.  ``TestBoundedTape.FAULTS`` in ``test_tape.py`` lists every
way a tape run faults, with its message and whether it faults before the
call's first step, where the head and steps must stay as they were.  Two
tests run every entry: one checks the message, the precheck and that the
head stayed on the |w|+1 cells, the other the faulted run's trace
numbering.

Slow tier.  ``tests/slow_tier.py`` runs tier-1's sweeps at larger sizes;
pytest does not collect it:

    PYTHONPATH=src python tests/slow_tier.py

Its rows run on every core, largest first, and ``ROWS`` holds the time
each row took.  In tier-1, ``test_slow_tier.py`` checks that every row
runs its check at a size above the largest tier-1 runs it at, that every
row records its time, and that two workers each get under 12 minutes.

Line audit.  ``tests/line_audit.py`` runs tier-1 under a line tracer and
fails on every executable line of ``src/permlang`` that no test ran;
pytest does not collect it either:

    python tests/line_audit.py
"""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from permlang import stackmachine, tape
from permlang.codec import ALPHABET, codewords_with_insertions, decode, encode, tokens, validate
from permlang.counting import count_avoiders, sequence
from permlang.permutations import Basis, Permutation, all_permutations, avoids_basis

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    """A child interpreter given args, run from the repository root with
    ``src`` on PYTHONPATH: its CompletedProcess, with text output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=60)


def words(lengths, alphabet=ALPHABET):
    """Every word over alphabet of each length in lengths, in that order,
    each length's words in lexicographic order of the alphabet."""
    for n in lengths:
        yield from map("".join, itertools.product(alphabet, repeat=n))


def basis_of(text):
    """The basis written as comma-separated patterns of digits, such as
    ``"132,4321"``."""
    return Basis([int(d) for d in item] for item in text.split(","))


def legality_sweep(length):
    """Acceptance 03 at one length: (words checked, failures) of validate,
    tape.check_legal and the stack acceptor on every word over lrmft of
    that length.  A word fails when the verdicts disagree or the tape run
    touches other than |w| cells (one for the empty word)."""
    checked, odd = 0, []
    for word in words([length]):
        direct = bool(validate(word))
        run = tape.check_legal(word)
        if (
            run.verdict is not direct
            or run.max_cells_touched != (length or 1)
            or stackmachine.accepts_codewords(word) != direct
        ):
            odd.append(word)
        checked += 1
    if checked != len(ALPHABET) ** length:
        odd.append(f"{checked} words checked")
    return checked, odd


def round_trip_sweep(n):
    """Acceptance 02 at one n: (codewords checked, failures) over the
    codewords with n insertion letters.  A word fails when validate refuses
    it or encode does not give it back from its decode; the decodes must
    be n! distinct permutations, exactly those of 1..n."""
    checked, odd, seen = 0, [], set()
    for word in codewords_with_insertions(n):
        perm = decode(word)
        if not validate(word) or encode(perm) != word:
            odd.append(word)
        seen.add(bytes(perm.ranks))
        checked += 1
    if (
        checked != math.factorial(n)
        or len(seen) != checked
        or seen != {bytes(p.ranks) for p in all_permutations(n)}
    ):
        odd.append(f"{checked} codewords, {len(seen)} distinct decodes")
    return checked, odd


# acceptance 04's input: the 33 one-pattern bases of length 1 to 4
SHORT_PATTERNS = [
    Basis([p]) for k in range(1, 5) for p in itertools.permutations(range(1, k + 1))
]


def avoidance_sweep(n, bases):
    """Acceptance 04 at one n: (word/basis pairs checked, failures) over the
    codewords with n insertion letters and each basis.  A pair fails when
    tape.accepts_basis and the oracle on the word's decode disagree or the
    tape run touches other than |w| cells."""
    checked, odd = 0, []
    for word in codewords_with_insertions(n):
        perm = decode(word)
        for basis in bases:
            run = tape.accepts_basis(word, basis)
            if run.verdict is not avoids_basis(perm, basis) or run.max_cells_touched != len(word):
                odd.append((word, basis))
            checked += 1
    if checked != math.factorial(n) * len(bases):
        odd.append(f"{checked} word/basis pairs checked")
    return checked, odd


_MIRROR = str.maketrans("lr", "rl")


def reverse_codeword(word):
    """The codeword of the reverse of a legal word's permutation.  With s
    open slots before a token, slot j+1 from the left is slot s - j from
    the right, so the token (run j, letter) becomes s - 1 - j t's and the
    letter with l and r swapped; m and f keep their slot change."""
    out, slots = [], 1
    for run, letter in tokens(word):
        out += "t" * (slots - 1 - run), letter.translate(_MIRROR)
        slots += (letter == "m") - (letter == "f")
    return "".join(out)


def reverse_sweep(n, bases):
    """The reverse relation at one n: (word/basis pairs checked, failures)
    over the codewords with n insertion letters and each basis.  A pair
    fails unless tape.accepts_basis gives the reversed word against the
    reversed patterns the verdict it gives the word against the basis.
    The search meets the insertions in another order, so the two runs'
    steps mostly differ; no oracle takes part."""
    pairs = [(basis, Basis(p.ranks[::-1] for p in basis)) for basis in bases]
    checked, odd = 0, []
    for word in codewords_with_insertions(n):
        mirrored = reverse_codeword(word)
        for basis, reversed_basis in pairs:
            verdict = tape.accepts_basis(word, basis).verdict
            if tape.accepts_basis(mirrored, reversed_basis).verdict is not verdict:
                odd.append((word, basis))
            checked += 1
    if checked != math.factorial(n) * len(bases):
        odd.append(f"{checked} word/basis pairs checked")
    return checked, odd


def compare_sweep(n):
    """The compare at one n: (compares checked, failures) over every pair of
    insertion cells of every codeword with n insertion letters.  A compare
    fails unless it orders the two values as they stand in the word's
    decode and touches at most |w|+1 cells."""
    checked, odd = 0, []
    for word in codewords_with_insertions(n):
        ranks = decode(word).ranks
        cells = insertion_cells(word)
        for a, b in itertools.combinations(range(n), 2):
            descending = ranks.index(a + 1) > ranks.index(b + 1)
            run = tape.compare(word, cells[a], cells[b])
            if run.verdict is not descending or run.max_cells_touched > len(word) + 1:
                odd.append((word, cells[a], cells[b]))
            checked += 1
    if checked != math.factorial(n) * math.comb(n, 2):
        odd.append(f"{checked} compares checked")
    return checked, odd


def superpatterns(q):
    """The distinct patterns one entry longer than q that contain it: q
    with a new entry of each value 1..k+1 put at each position 0..k."""
    longer = set()
    for v in range(1, len(q) + 2):
        lifted = tuple(r + (r >= v) for r in q)
        longer.update(lifted[:at] + (v,) + lifted[at:] for at in range(len(q) + 1))
    return sorted(longer)


def deletions(q):
    """The distinct patterns made by deleting one entry of q."""
    return sorted({tuple(r - (r > q[i]) for r in q[:i] + q[i + 1:]) for i in range(len(q))})


def increasing_runs(n, count):
    """count increasing runs of near-equal length, the highest first: an
    avoider of the decreasing pattern of length count + 1."""
    cuts = [n * i // count for i in range(count + 1)]
    return [v for i in reversed(range(count)) for v in range(cuts[i] + 1, cuts[i + 1] + 1)]


def layers(n, count):
    """count decreasing runs of near-equal length, the lowest first, the
    mirror of increasing_runs: an avoider of the increasing pattern of
    length count + 1.  Two layers make a codeword with no t."""
    return increasing_runs(n, count)[::-1]


def adjacent_swaps(n):
    """2 1 4 3 6 5 ..., ending in n when n is odd: an avoider of 321 whose
    codeword carries m, f and t letters."""
    return [v for i in range(1, n + 1, 2) for v in ((i + 1, i) if i < n else (i,))]


# relation_sweep's families: (q, a member of Av(q) of length n)
RELATION_FAMILIES = [
    ((1, 2, 3), lambda n: layers(n, 2)),
    ((3, 2, 1), lambda n: increasing_runs(n, 2)),
    ((4, 3, 2, 1), lambda n: increasing_runs(n, 3)),
]


def relation_sweep(n, family, decide):
    """The containment relations at one n: (relations checked, failures).
    ``decide(word, q)`` is a decider's verdict on the word for the basis
    {q}; no other decider takes part.  The family (q, member) of
    RELATION_FAMILIES gives two words: the codeword of its member of Av(q)
    of length n, and its mutant, the codeword with its middle l or r
    swapped for the other, which is legal as l and r leave the open slots
    as they are.  For each q' one entry longer than q, Up: a word accepted
    for {q} is accepted for {q'}, and Down: a word rejected for {q'} is
    rejected for every pattern made by deleting one entry of q'.  Only the
    relations whose premise holds count as checked.  A member rejected for
    q fails, and so does a sweep in which no word is rejected for a longer
    pattern, as it checks no Down."""
    q, member = family
    word = encode(Permutation(member(n)))
    swappable = [i for i, letter in enumerate(word) if letter in "lr"]
    at = swappable[len(swappable) // 2]
    mutant = word[:at] + word[at].translate(_MIRROR) + word[at + 1:]
    checked, odd, downs = 0, [], 0
    if not decide(word, q):
        odd.append(("member", word, q))
    for w in (word, mutant):
        accepts = functools.cache(functools.partial(decide, w))
        for longer in superpatterns(q):
            if accepts(q):
                checked += 1
                if not accepts(longer):
                    odd.append(("up", w, q, longer))
            if not accepts(longer):
                downs += 1
                for shorter in deletions(longer):
                    checked += 1
                    if accepts(shorter):
                        odd.append(("down", w, longer, shorter))
    if not downs:
        odd.append("no word rejected for a longer pattern")
    return checked, odd


def assert_golden(golden: Path, rendered: str) -> None:
    """Fail unless the golden file holds exactly the bytes of rendered,
    naming the first line that differs and how many lines differ."""
    want = golden.read_bytes()
    got = rendered.encode()
    if got == want:
        return
    want_lines = want.splitlines(keepends=True)
    got_lines = got.splitlines(keepends=True)
    differ = [
        i
        for i in range(max(len(want_lines), len(got_lines)))
        if want_lines[i : i + 1] != got_lines[i : i + 1]
    ]
    first = differ[0]
    raise AssertionError(
        f"{golden.name}: {len(differ)} line(s) differ, the first is line {first + 1}: "
        f"want {want_lines[first : first + 1]}, got {got_lines[first : first + 1]}"
    )


def insertion_cells(word):
    """The cells of word whose letter is not t: value v's insertion is at
    cell v-1 of the list."""
    return [i for i, letter in enumerate(word) if letter != "t"]


def partitions(n, largest=None):
    """The partitions of n into parts of at most largest (at most n when
    omitted), each a non-increasing tuple, by direct recursion."""
    if n == 0:
        yield ()
    for part in range(min(n if largest is None else largest, n), 0, -1):
        yield from ((part, *rest) for rest in partitions(n - part, part))


def partitions_of(n):
    """The number of partitions of n, counted one by one."""
    return sum(1 for _ in partitions(n))


def no_trace(line):
    """A trace sink that drops its lines.  Every tape a test builds gets
    it, and a public procedure given it runs every step, restore included,
    on a tape: untraced, none builds one."""


def longest_increasing_at_most(n, k):
    """How many permutations of length n have no increasing subsequence
    longer than k: the sum of f_lambda squared over the partitions lambda
    of n whose first row is at most k (Schensted 1961), with f_lambda from
    the hook-length formula (Frame, Robinson and Thrall 1954)."""
    total = 0
    for shape in partitions(n, k):
        hooks = 1
        for i, row in enumerate(shape):
            for j in range(row):  # arm + leg + 1
                hooks *= row - j + sum(1 for below in shape[i + 1 :] if below > j)
        total += (math.factorial(n) // hooks) ** 2
    return total


def longest_increasing(seq):
    best = []
    for i, v in enumerate(seq):
        best.append(1 + max((best[j] for j in range(i) if seq[j] < v), default=0))
    return max(best)


def built_avoider(rng, n, q):
    """A random permutation of 1..n avoiding q: LIS(q) - 1 interleaved
    decreasing runs leave no increasing subsequence long enough for q.  A
    decreasing q is avoided by the reverse of an avoider of its reverse.

    It is not a uniform avoider.  For every q with LIS(q) = 2, 4 of the 6
    length-3 patterns and 13 of the 24 length-4 ones, it is one decreasing
    run, n..1, or the reverse of one, 1..n, so many built avoiders are
    monotone, not typical members of the class: 24 of the 70 in
    ``TestOccurrenceSearch.seeded_pairs``, 25 of the 64 in
    ``TestAcceptsBasis.test_matches_oracle_on_random_larger_words`` and 8
    of the 20 in ``test_golden.counter_long_words`` are monotone.  They
    stay until uniform draws replace them (ROADMAP item 13); the golden
    words must keep their bytes, and rejection sampling at n = 14 and
    k = 3 takes about 33,000 draws a word."""
    runs = longest_increasing(q) - 1
    if runs == 0:
        return built_avoider(rng, n, q[::-1])[::-1]
    labels = [rng.randrange(runs) for _ in range(n)]
    values = rng.sample(range(1, n + 1), n)
    pools = [
        sorted((v for v, label in zip(values, labels) if label == run), reverse=True)
        for run in range(runs)
    ]
    return [pools[label].pop(0) for label in labels]


def reverse(ranks):
    return ranks[::-1]


def complement(ranks):
    return [len(ranks) + 1 - v for v in ranks]


def inverse(ranks):
    inv = [0] * len(ranks)
    for position, value in enumerate(ranks, 1):
        inv[value - 1] = position
    return inv


def square_symmetries(patterns):
    """The patterns under each of the eight symmetries of the square, one
    list per symmetry: the identity, reverse, complement and both, then
    each of those after inverse."""
    images = []
    for turned in (patterns, [inverse(q) for q in patterns]):
        for flipped in (turned, [reverse(q) for q in turned]):
            images += [flipped, [complement(q) for q in flipped]]
    return images


_BONA_1342 = (1, 1, 2, 6, 23, 103, 512, 2740, 15485, 91245)  # n = 0..9

# Every avoider count the tests pin, and their one home: one row per basis,
# (basis, its count at length n, source, whether the slow tier counts it at
# n = 9).  The count is a published formula where there is one, else the
# published values.  Acceptance 05 runs pinned_sweep on every row to n = 7;
# tests/slow_tier.py on the marked rows at n = 9.
PINNED_COUNTS = [
    ("1", lambda n: int(n == 0), "only the empty permutation avoids 1", False),
    ("21", lambda n: 1, "only the increasing permutation avoids 21", False),
    *(("".join(map(str, q)), lambda n: math.comb(2 * n, n) // (n + 1),
       "the Catalan number (Simion and Schmidt 1985)", q == (2, 3, 1))
      for q in itertools.permutations((1, 2, 3))),
    ("312,321", lambda n: 2 ** (n - 1) if n else 1,
     "2^(n-1) from n = 1 (Simion and Schmidt 1985)", True),
    ("123,3412", lambda n: 2 ** (n + 1) - math.comb(n + 1, 3) - 2 * n - 1,
     "2^(n+1) - C(n+1, 3) - 2n - 1", True),
    ("1234", lambda n: longest_increasing_at_most(n, 3),
     "no increasing subsequence longer than 3 (Gessel 1990)", True),
    ("12345", lambda n: longest_increasing_at_most(n, 4),
     "no increasing subsequence longer than 4 (Gessel 1990)", False),
    ("1342", _BONA_1342.__getitem__, "Bona (1997)", True),
    ("2431", _BONA_1342.__getitem__, "the reverse of 1342 (Bona 1997)", True),
]


def pinned_sweep(n, rows):
    """The pinned counts at one n: (avoiders counted, failures) over rows of
    PINNED_COUNTS.  Each row's basis is counted by count_avoiders, whose
    routes must agree (it raises CountMismatchError otherwise), and fails
    unless they count the row's count at n."""
    checked, odd = 0, []
    for text, count, _, _ in rows:
        got = count_avoiders(n, basis_of(text), cap=n).brute
        if got != count(n):
            odd.append(f"Av({text}) at n={n}: {got}, want {count(n)}")
        checked += got
    return checked, odd


def pair_classes():
    """The 276 pairs of distinct length-4 patterns in their 56 classes under
    the symmetries of the square: one list of bases per class, sorted by
    ranks, so that its representative, the least pair, comes first; the
    classes are in the order of their representatives."""
    classes = {}
    for pair in itertools.combinations(itertools.permutations(range(1, 5)), 2):
        images = [tuple(sorted(map(tuple, image))) for image in square_symmetries(pair)]
        classes.setdefault(min(images), set()).add(pair)
    return [[Basis(pair) for pair in sorted(members)] for _, members in sorted(classes.items())]


def census_sweep(n, classes, groups):
    """The census of pattern pairs at one n: (bases counted, failures) over
    classes of bases, each with its representative first.  Each basis is
    counted to n by ``sequence``, whose routes must agree; it fails unless
    it has its representative's counts, and the census fails unless the
    representatives' counts fall into exactly ``groups`` distinct
    sequences."""
    def counts(basis):  # the routes agree, so each row's first route
        return tuple(row[1] for row in sequence(basis, n).rows)

    checked, odd, sequences = 0, [], set()
    for representative, *others in classes:
        want = counts(representative)
        sequences.add(want)
        odd += [(representative, basis) for basis in others if counts(basis) != want]
        checked += 1 + len(others)
    if len(sequences) != groups:
        odd.append(f"{len(sequences)} distinct sequences, want {groups}")
    return checked, odd


def symmetry_sweep(n):
    """The symmetry check at one n: (images checked, failures).  A symmetry
    of the square maps the avoiders of a basis one to one onto those of its
    image, so each other image of four seeded bases of one or two patterns
    of length 3 or 4 must have its basis's ``sequence`` to n."""
    rng = random.Random(1983)
    checked, odd = 0, []
    for _ in range(4):
        lengths = rng.choices((3, 4), k=rng.randint(1, 2))
        patterns = [rng.sample(range(1, k + 1), k) for k in lengths]
        basis = Basis(patterns)
        want = sequence(basis, n)
        for image in {Basis(image) for image in square_symmetries(patterns)} - {basis}:
            checked += 1
            if sequence(image, n) != want:
                odd.append((basis, image))
    return checked, odd


def seeded_bases(seed, sizes):
    """(codeword, basis) for each n in sizes: a basis of two or three
    patterns of length 3-5, and a word that avoids one of them about half
    the time."""
    rng = random.Random(seed)
    for n in sizes:
        lengths = rng.choices((3, 4, 5), k=rng.randint(2, 3))
        basis = [rng.sample(range(1, k + 1), k) for k in lengths]
        if rng.random() < 0.5:
            p = built_avoider(rng, n, rng.choice(basis))
        else:
            p = rng.sample(range(1, n + 1), n)
        yield encode(Permutation(p)), Basis(basis)


def basis_sum_cases():
    """(word, basis) pairs whose basis run is checked against its
    single-pattern runs: every codeword with n <= 5 against three fixed
    bases, every word of at most three letters (most of them illegal)
    against one of them, then seeded bases on n = 9..12."""
    fixed = [Basis([[1, 3, 2], [4, 3, 2, 1]]), Basis([[2, 1], [1, 2, 3]]),
             Basis([[1, 2, 3], [2, 4, 1, 3]])]
    cases = [
        (word, basis)
        for n in range(1, 6)
        for word in codewords_with_insertions(n)
        for basis in fixed
    ]
    cases += [(word, fixed[1]) for word in words(range(4))]
    return cases + list(seeded_bases(2031, list(range(9, 13)) * 4))
