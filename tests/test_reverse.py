"""Reverse on codewords: relations that need no oracle, so they check the
machines at sizes the oracle cannot reach."""

import random

from conftest import SHORT_PATTERNS, insertion_cells, reverse_codeword, reverse_sweep

from permlang import stackmachine, tape
from permlang.codec import codewords_with_insertions, decode, encode, validate
from permlang.permutations import Permutation


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
