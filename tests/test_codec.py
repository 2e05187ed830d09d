import random
import sys

import pytest
from conftest import words

from permlang.codec import (
    IllegalCodewordError,
    REASON_EMPTY,
    REASON_EXHAUSTED,
    REASON_T_OVERFLOW,
    REASON_TRAILING,
    REASON_UNFILLED,
    codewords_with_insertions,
    decode,
    encode,
    validate,
)
from permlang.permutations import Permutation


@pytest.mark.parametrize(
    "word, ok, reason",
    [
        ("f", True, None),
        ("tf", False, REASON_T_OVERFLOW),
        ("mrtltff", True, None),
        ("", False, REASON_EMPTY),
        ("ff", False, REASON_EXHAUSTED),
        ("lfl", False, REASON_EXHAUSTED),
        ("mt", False, REASON_TRAILING),
        ("ml", False, REASON_TRAILING),
        ("mf", False, REASON_UNFILLED),
        ("mmff", False, REASON_UNFILLED),
        ("mtff", True, None),
        ("mrlff", True, None),
    ],
)
def test_validate_cases(word, ok, reason):
    verdict = validate(word)
    assert bool(verdict) is ok
    assert verdict.reason == reason


def test_decode_worked_examples():
    assert decode("mrlff").ranks == (3, 4, 2, 1, 5)
    assert decode("mrtltff").ranks == (5, 2, 1, 3, 4)
    assert decode("f").ranks == (1,)


def test_decode_rejects_illegal_with_reason():
    with pytest.raises(IllegalCodewordError) as err:
        decode("tf")
    assert err.value.reason == REASON_T_OVERFLOW
    with pytest.raises(IllegalCodewordError) as err:
        decode("mf")
    assert err.value.reason == REASON_UNFILLED


def test_decode_length_law():
    for n in range(1, 6):
        for word in codewords_with_insertions(n):
            assert len(decode(word)) == sum(1 for ch in word if ch != "t")


def test_encode_worked_examples():
    assert encode(Permutation([1])) == "f"
    assert encode(Permutation([3, 4, 2, 1, 5])) == "mrlff"
    assert encode(Permutation([5, 2, 1, 3, 4])) == "mrtltff"


def test_encode_rejects_empty():
    with pytest.raises(ValueError):
        encode(Permutation([]))


def test_codewords_with_insertions_small():
    assert list(codewords_with_insertions(1)) == ["f"]
    assert set(codewords_with_insertions(2)) == {"lf", "rf"}
    assert decode("lf").ranks == (1, 2)
    assert decode("rf").ranks == (2, 1)


def test_codewords_with_insertions_is_lazy_and_refuses_zero():
    # 11! codewords: only a lazy stream hands out the first at once; past
    # the recursion limit, only a walk that keeps its own stack does
    for n in (11, sys.getrecursionlimit() + 100):
        assert next(codewords_with_insertions(n)) == "l" * (n - 1) + "f"
    with pytest.raises(ValueError, match="positive"):
        codewords_with_insertions(0)


def test_random_round_trip_beyond_enumeration():
    # legal codewords are in bijection with permutations, so a legal
    # encode(p) that decodes back to p is the one codeword of p
    rng = random.Random(2026)
    for n in range(20, 61):
        for _ in range(3):
            p = Permutation(rng.sample(range(1, n + 1), n))
            word = encode(p)
            assert validate(word), p
            assert decode(word) == p


def test_exhaustive_legal_words_match_generator():
    # brute force over all strings: the legal ones with n insertions are
    # exactly what the generator yields
    for n in range(1, 5):
        generated = set(codewords_with_insertions(n))
        brute = set()
        for w in words(range(1, 2 * n)):
            if validate(w) and sum(1 for c in w if c != "t") == n:
                brute.add(w)
        assert brute == generated
