"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 6 (space bound) aggregates statistics over the bounded-tape runs
performed by criteria 3-5, so this module keeps a running tally; pytest
executes the tests in definition order.
"""

import itertools
import math
import random

from permlang import cli, codec, counting, stackmachine, tape
from permlang.codec import codewords_with_insertions, decode, encode, validate
from permlang.permutations import (
    Basis,
    Permutation,
    all_permutations,
    avoids_basis,
)

STATS = {"runs": 0, "space_violations": 0}


def record(run: tape.TapeRun, word: str) -> None:
    STATS["runs"] += 1
    if run.max_cells_touched > len(word) + 1:
        STATS["space_violations"] += 1


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
    for n in range(1, 8):
        words = list(codewords_with_insertions(n))
        assert len(words) == math.factorial(n), n
        perms = [decode(w) for w in words]
        assert len(set(perms)) == len(perms), n
        assert set(perms) == set(all_permutations(n)), n
        for word, perm in zip(words, perms):
            assert encode(perm) == word
    print("ACCEPTANCE 02 bijection n=1..7: PASS")


def test_criterion_03_validator_equivalence():
    checked = 0
    for n in range(0, 9):
        for tup in itertools.product(codec.ALPHABET, repeat=n):
            word = "".join(tup)
            direct = bool(validate(word))
            run = tape.check_legal(word)
            record(run, word)
            assert run.verdict == direct, word
            assert stackmachine.accepts_codewords(word) == direct, word
            checked += 1
    assert checked == sum(5**n for n in range(0, 9))
    print(f"ACCEPTANCE 03 validator equivalence on {checked} strings: PASS")


def test_criterion_04_acceptor_matches_oracle():
    patterns = [
        Permutation(p)
        for k in range(1, 5)
        for p in itertools.permutations(range(1, k + 1))
    ]
    checked = 0
    for n in range(1, 7):
        for word in codewords_with_insertions(n):
            perm = decode(word)
            for pattern in patterns:
                want = avoids_basis(perm, Basis([pattern]))
                run = tape.accepts_basis(word, Basis([pattern]))
                record(run, word)
                assert run.verdict is want, (word, pattern.ranks)
                checked += 1
    print(f"ACCEPTANCE 04 acceptor vs oracle on {checked} word/pattern pairs: PASS")


def test_criterion_05_sequences():
    table_123 = counting.sequence(Basis([[1, 2, 3]]), 7)
    assert table_123.counts() == (1, 1, 2, 5, 14, 42, 132, 429)
    table_1234 = counting.sequence(Basis([[1, 2, 3, 4]]), 7)
    assert table_1234.counts() == (1, 1, 2, 6, 23, 103, 513, 2761)
    # feed the aggregate space tally with this workload's runs
    for basis in (Basis([[1, 2, 3]]), Basis([[1, 2, 3, 4]])):
        for n in range(1, 7):
            for word in codewords_with_insertions(n):
                record(tape.accepts_basis(word, basis), word)
    print("ACCEPTANCE 05 sequences Av(123), Av(1234) to n=7, both routes: PASS")


def test_criterion_06_space_bound():
    assert STATS["runs"] > 500_000, "criteria 3-5 must run first"
    assert STATS["space_violations"] == 0
    print(
        f"ACCEPTANCE 06 space bound <= |w|+1 over {STATS['runs']} runs, "
        f"{STATS['space_violations']} violations: PASS"
    )


def test_criterion_07_tape_restoration():
    # Every public procedure ends in tape._restore, which raises TapeFault
    # unless the tape holds the unmarked word, so criteria 3-5 already ran
    # that check.  Here the procedures run on tapes this test owns: they
    # write only marks, and the clearing scan removes every one of them.
    checked = 0
    for n in range(1, 5):
        for word in codewords_with_insertions(n):
            t = tape.BoundedTape(word)
            assert tape._check_legal_on_tape(t, len(word))
            assert t.text() == word
            tape._restore(t, word)
            assert t.marks_clear()
            cells = [i for i, ch in enumerate(word) if ch != "t"]
            for x, y in itertools.combinations(cells, 2):
                t = tape.BoundedTape(word)
                tape._compare_on_tape(t, x, y)
                assert t.text() == word, (word, x, y)
                tape._restore(t, word)
                assert t.marks_clear(), (word, x, y)
                checked += 1
    print(f"ACCEPTANCE 07 tape restoration over {checked} owned compare tapes: PASS")


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

    # k = 3: adjacent-swap permutations 2 1 4 3 6 5 ... avoid 321 while
    # their codewords still carry m, f and t letters
    words_k3 = []
    for target in sizes:
        n = max(4, (2 * target) // 3)
        perm = []
        for i in range(1, n + 1, 2):
            pair = [i + 1, i] if i + 1 <= n else [i]
            perm.extend(pair)
        words_k3.append(encode(Permutation(perm)))
    steps_k3 = [tape.accepts_basis(w, Basis([[3, 2, 1]])).steps for w in words_k3]
    slope_k3 = fitted_slope([len(w) for w in words_k3], steps_k3)
    assert slope_k3 <= 5.5, slope_k3

    print(
        "ACCEPTANCE 08 complexity slopes "
        f"(legality {legality_slope:.2f}, compare {compare_slope:.2f}, "
        f"avoid k=2 {slope_k2:.2f}, k=3 {slope_k3:.2f}): PASS"
    )


def test_criterion_09_partition_language():
    # p(10) verified against direct enumeration, independent of the recurrence
    def direct(n, largest=None):
        if n == 0:
            return 1
        if largest is None:
            largest = n
        return sum(direct(n - part, part) for part in range(min(largest, n), 0, -1))

    assert counting.partition_count(10) == direct(10) == 42

    # exhaustive over all words up to length 20
    for n in range(1, 21):
        count = sum(
            1
            for tup in itertools.product("ab", repeat=n)
            if stackmachine.accepts_partition_language("".join(tup))
        )
        assert count == counting.partition_count(n), n

    # lengths 21..25 by block structure: every nondecreasing-part word is
    # accepted and there are exactly p(n) of them; random other words reject
    def partition_words(n):
        def parts(remaining, minimum):
            if remaining == 0:
                yield []
                return
            for part in range(minimum, remaining + 1):
                for rest in parts(remaining - part, part):
                    yield [part] + rest

        for ps in parts(n, 1):
            yield "".join(("a" if i % 2 == 0 else "b") * p for i, p in enumerate(ps))

    rng = random.Random(20260808)
    for n in range(21, 26):
        words = set(partition_words(n))
        assert len(words) == counting.partition_count(n), n
        assert all(stackmachine.accepts_partition_language(w) for w in words)
        rejected = 0
        while rejected < 500:
            w = "".join(rng.choice("ab") for _ in range(n))
            if w not in words:
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
