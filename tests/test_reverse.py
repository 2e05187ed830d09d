"""Reverse on codewords: relations that need no oracle, so they check the
machines at sizes the oracle cannot reach."""

import random

from conftest import (SHORT_PATTERNS, adjacent_swaps, insertion_cells, layers, reverse_codeword,
                      reverse_sweep)

from permlang import stackmachine, tape
from permlang.codec import ALPHABET, codewords_with_insertions, decode, encode, validate
from permlang.permutations import Basis, Permutation


def test_reverse_codeword_is_an_involution_that_reverses_the_decode():
    checked = 0
    for n in range(1, 8):
        for word in codewords_with_insertions(n):
            mirrored = reverse_codeword(word)
            assert decode(mirrored).ranks == decode(word).ranks[::-1], word
            assert reverse_codeword(mirrored) == word
            checked += 1
    assert checked == 5_913


def test_accepts_basis_gives_the_reverse_the_same_verdict():
    for n in range(1, 6):
        checked, odd = reverse_sweep(n, SHORT_PATTERNS)
        assert odd == [], n


def test_seeded_reverses_are_legal_and_compare_the_other_way():
    # 5 words at each n, 20 compares a word: 300 compares
    rng = random.Random(4)
    for n in (20, 50, 100):
        for _ in range(5):
            word = encode(Permutation(rng.sample(range(1, n + 1), n)))
            mirrored = reverse_codeword(word)
            assert decode(mirrored).ranks == decode(word).ranks[::-1]
            assert validate(mirrored)
            assert stackmachine.accepts_codewords(mirrored)
            assert tape.check_legal(mirrored).verdict
            cells, mirrored_cells = insertion_cells(word), insertion_cells(mirrored)
            for _ in range(20):
                a, b = sorted(rng.sample(range(n), 2))
                run = tape.compare(word, cells[a], cells[b])
                mirrored_run = tape.compare(mirrored, mirrored_cells[a], mirrored_cells[b])
                assert mirrored_run.verdict is not run.verdict, (word, a, b)


def seeded_members():
    """(codeword, basis) for built avoiders past the oracle's range: acceptance
    08's families, r...rf against 12 and conftest.adjacent_swaps against
    321, at n = 20..200, and conftest.layers, four decreasing runs, each
    above the last, against 12345 at n = 20..60."""
    for n in (20, 50, 100, 200):
        yield "r" * (n - 1) + "f", Basis([[1, 2]])
        yield encode(Permutation(adjacent_swaps(n))), Basis([[3, 2, 1]])
    for n in (20, 40, 60):
        yield encode(Permutation(layers(n, 4))), Basis([[1, 2, 3, 4, 5]])


def legal_mutant(rng, word):
    """A legal word that differs from word in one letter, drawn from all of
    them (a letter l or r can always turn into the other)."""
    mutants = [word[:i] + letter + word[i + 1 :]
               for i in range(len(word)) for letter in ALPHABET if letter != word[i]]
    return rng.choice([mutant for mutant in mutants if validate(mutant)])


def test_seeded_members_and_their_mutants_get_the_reverse_verdict():
    rng = random.Random(9)
    members = list(seeded_members())
    runs = []
    for word, basis in members + [(legal_mutant(rng, word), basis) for word, basis in members]:
        run = tape.accepts_basis(word, basis)
        mirrored = tape.accepts_basis(reverse_codeword(word), Basis(p.ranks[::-1] for p in basis))
        assert mirrored.verdict is run.verdict, (word, basis)
        runs.append((run, mirrored))
    assert all(run.verdict for run, _ in runs[: len(members)])
    # the search meets the insertions in another order: a second computation
    differ = sum(run.steps != mirrored.steps for run, mirrored in runs)
    assert differ > len(runs) / 2, differ
