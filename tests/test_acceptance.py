"""Acceptance suite: one test per criterion, each printing a PASS line.

    01  the worked examples mrlff and mrtltff decode as stated;
    02  the bijection: every codeword with n <= 7 decodes and encodes back,
        and passes validate;
    03  validate, tape.check_legal and the stack acceptor agree on all
        488,281 words of length <= 8;
    04  tape.accepts_basis matches the oracle on every codeword with
        n <= 6 and every pattern with k <= 4;
    05  every pinned avoider count, conftest.PINNED_COUNTS, to n = 7 along
        both counting routes;
    06  the space bound |w|+1 on traced tapes;
    07  legality and the compare leave a traced tape holding its input,
        with no further restore;
    08  the log-log slopes of the step counts;
    09  the partition language: every word to length 20, and counts to
        n = 25, against the enumeration conftest.partitions_of;
    10  the primes machine against trial division to n = 200.

Each criterion runs on its own; no unit test repeats its sweep on fewer
inputs.  Criteria 2-5 call sweeps of ``tests/conftest.py`` that
``tests/slow_tier.py`` runs at larger sizes.  Criterion 2 validates every
generated word.  Criteria 3-4 check that every untraced tape run reports
|w| cells touched (one for the empty word), the figure the closed-form
harness checks against the traced high-water mark; criterion 6 measures
the space bound |w|+1 on traced tapes of its own.
"""

import itertools
import math
import random

from conftest import (PINNED_COUNTS, SHORT_PATTERNS, adjacent_swaps, avoidance_sweep,
                      insertion_cells, legality_sweep, no_trace, partitions, partitions_of,
                      pinned_sweep, round_trip_sweep, words)

from permlang import cli, stackmachine, tape
from permlang.codec import codewords_with_insertions, decode, encode
from permlang.permutations import Basis, Permutation

def fitted_slope(sizes, values):
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def test_criterion_01_worked_examples():
    assert decode("mrlff").ranks == (3, 4, 2, 1, 5)
    assert decode("mrtltff").ranks == (5, 2, 1, 3, 4)
    print("ACCEPTANCE 01 worked examples: PASS")


def test_criterion_02_bijection_up_to_seven():
    # tests/slow_tier.py runs the same sweep at n = 9
    for n in range(1, 8):
        odd = round_trip_sweep(n)[1]
        assert not odd, (n, odd[:5])
    print("ACCEPTANCE 02 bijection n=1..7: PASS")


def test_criterion_03_validator_equivalence():
    # tests/slow_tier.py runs the same sweep at lengths 9 and 10
    checked = 0
    for n in range(0, 9):
        words, odd = legality_sweep(n)
        assert not odd, (n, odd[:5])
        checked += words
    assert checked == sum(5**n for n in range(0, 9))
    print(f"ACCEPTANCE 03 validator equivalence on {checked} strings: PASS")


def test_criterion_04_acceptor_matches_oracle():
    # tests/slow_tier.py runs the same sweep at n = 7 and 8
    checked = 0
    for n in range(1, 7):
        pairs, odd = avoidance_sweep(n, SHORT_PATTERNS)
        assert not odd, (n, odd[:5])
        checked += pairs
    assert checked == 28_809
    print(f"ACCEPTANCE 04 acceptor vs oracle on {checked} word/pattern pairs: PASS")


def test_criterion_05_sequences():
    # tests/slow_tier.py runs the same sweep at n = 9 on the rows it marks
    checked = 0
    for n in range(8):
        avoiders, odd = pinned_sweep(n, PINNED_COUNTS)
        assert not odd, odd[:5]
        checked += avoiders
    print(f"ACCEPTANCE 05 pinned counts of {len(PINNED_COUNTS)} bases to n=7, "
          f"{checked} avoiders on both routes: PASS")


def test_criterion_06_space_bound():
    # measured, not computed: each run builds a traced tape, whose
    # max_cells_touched is its head's high-water mark
    runs = []
    for word in words(range(6)):
        runs.append((word, tape.check_legal(word, no_trace)))
    for n in range(1, 6):
        for word in codewords_with_insertions(n):
            cells = insertion_cells(word)
            for x, y in itertools.combinations(cells, 2):
                runs.append((word, tape.compare(word, x, y, no_trace)))
            for q in ([1, 3, 2], [2, 1, 4, 3]):
                runs.append((word, tape.accepts_basis(word, Basis([q]), no_trace)))
    for word, run in runs:
        assert run.max_cells_touched <= len(word) + 1, word
    print(f"ACCEPTANCE 06 space bound <= |w|+1 over {len(runs)} traced runs: PASS")


def test_criterion_07_tape_restoration():
    # Every tape procedure ends restored: it ends in BoundedTape.restore,
    # which raises TapeFault unless the tape holds the unmarked word (the
    # public procedures build a tape only when traced).  Here legality and
    # the compare run through BoundedTape.run on traced tapes this test
    # owns, and each tape must hold its input straight after the procedure,
    # with no restore of the test's.
    checked = 0
    for n in range(1, 5):
        for word in codewords_with_insertions(n):
            cells = insertion_cells(word)
            t = tape.BoundedTape(word, no_trace)
            assert t.run(tape._check_legal_on_tape).verdict
            assert t.holds_input(), word
            for a, b in itertools.combinations(range(len(cells)), 2):
                t = tape.BoundedTape(word, no_trace)
                t.run(tape._compare_on_tape, cells[a], cells[b])
                assert t.holds_input(), (word, cells[a], cells[b])
                checked += 1
    print(f"ACCEPTANCE 07 tape restoration over {checked} owned traced compare tapes: PASS")


def test_criterion_08_complexity_slopes():
    sizes = list(range(10, 41, 4))  # 10, 14, ..., 38: eight sizes

    legality_steps = [tape.check_legal(cli.bench_word(s)).steps for s in sizes]
    slope = fitted_slope(sizes, legality_steps)
    assert slope <= 2.5, slope
    legality_slope = slope

    compare_steps = []
    for s in sizes:
        word = cli.bench_word(s)
        compare_steps.append(tape.compare(word, 0, len(word) - 1).steps)
    slope = fitted_slope(sizes, compare_steps)
    assert slope <= 2.5, slope
    compare_slope = slope

    # k = 2: only strictly decreasing permutations avoid 12, so the full
    # tuple enumeration runs on r...rf
    words_k2 = ["r" * (s - 1) + "f" for s in sizes]
    steps_k2 = [tape.accepts_basis(w, Basis([[1, 2]])).steps for w in words_k2]
    slope_k2 = fitted_slope([len(w) for w in words_k2], steps_k2)
    assert slope_k2 <= 4.5, slope_k2

    # k = 3: conftest.adjacent_swaps, 2 1 4 3 6 5 ..., avoid 321 while
    # their codewords still carry m, f and t letters
    words_k3 = [encode(Permutation(adjacent_swaps(max(4, 2 * s // 3)))) for s in sizes]
    steps_k3 = [tape.accepts_basis(w, Basis([[3, 2, 1]])).steps for w in words_k3]
    slope_k3 = fitted_slope([len(w) for w in words_k3], steps_k3)
    assert slope_k3 <= 5.5, slope_k3

    print(
        "ACCEPTANCE 08 complexity slopes "
        f"(legality {legality_slope:.2f}, compare {compare_slope:.2f}, "
        f"avoid k=2 {slope_k2:.2f}, k=3 {slope_k3:.2f}): PASS"
    )


def test_criterion_09_partition_language():
    # the counts are enumerated partition by partition, with p(10) pinned
    assert partitions_of(10) == 42

    # exhaustive over all words up to length 20
    for n in range(1, 21):
        count = sum(map(stackmachine.accepts_partition_language, words([n], "ab")))
        assert count == partitions_of(n), n

    # lengths 21..25 by block structure: every nondecreasing-part word is
    # accepted and there are exactly p(n) of them; random other words reject
    def partition_words(n):
        for shape in partitions(n):  # each word's blocks, smallest first
            yield "".join(("a" if i % 2 == 0 else "b") * p for i, p in enumerate(shape[::-1]))

    rng = random.Random(20260808)
    for n in range(21, 26):
        accepted = set(partition_words(n))
        assert len(accepted) == partitions_of(n), n
        assert all(stackmachine.accepts_partition_language(w) for w in accepted)
        rejected = 0
        while rejected < 500:
            w = "".join(rng.choice("ab") for _ in range(n))
            if w not in accepted:
                assert not stackmachine.accepts_partition_language(w), w
                rejected += 1
    print("ACCEPTANCE 09 partition language counts n=1..25: PASS")


def test_criterion_10_primes_machine():
    def trial_division(n):
        return n >= 2 and all(n % i for i in range(2, int(n**0.5) + 1))

    for n in range(1, 201):
        run = tape.is_prime(n)
        assert bool(run.verdict) is trial_division(n), n
        assert run.max_cells_touched <= n + 1, n
    print("ACCEPTANCE 10 primes machine n=1..200 within space n+1: PASS")
