import itertools
import random

import pytest

from permlang.permutations import (
    Basis,
    CapExceededError,
    Permutation,
    all_permutations,
    avoids_basis,
    contains_pattern,
    order_isomorphic,
)


def test_normalizes_distinct_values_to_ranks():
    assert Permutation([2, 7, 5]).ranks == (1, 3, 2)
    assert Permutation([3.5, -1, 0]).ranks == (3, 1, 2)
    assert Permutation([]).ranks == ()


def test_rejects_duplicates():
    with pytest.raises(ValueError):
        Permutation([1, 2, 2])


def test_text_roundtrip():
    p = Permutation([3, 4, 2, 1, 5])
    assert p.to_text() == "3 4 2 1 5"
    assert Permutation.from_text("3 4 2 1 5") == p
    assert Permutation.from_text("") == Permutation([])
    with pytest.raises(ValueError):
        Permutation.from_text("3 x 1")
    # text is never rank-normalized: the entries must be exactly 1..k
    for line in ("5 9", "1 3", "2 1 2", "0 1"):
        with pytest.raises(ValueError):
            Permutation.from_text(line)


def test_order_isomorphic_examples():
    assert order_isomorphic(Permutation([2, 7, 5]), Permutation([1, 3, 2]))
    assert not order_isomorphic(Permutation([1, 2]), Permutation([2, 1]))
    assert order_isomorphic(Permutation([]), Permutation([]))
    assert not order_isomorphic(Permutation([1]), Permutation([1, 2]))


def test_order_isomorphic_is_equivalence_relation():
    rng = random.Random(20260808)
    pool = [
        Permutation(rng.sample(range(1, n + 1), n))
        for n in range(0, 7)
        for _ in range(8)
    ]
    for p in pool:
        assert order_isomorphic(p, p)
    for p, q in itertools.combinations(pool, 2):
        assert order_isomorphic(p, q) == order_isomorphic(q, p)
    for p, q, r in zip(pool, pool[1:], pool[2:]):
        if order_isomorphic(p, q) and order_isomorphic(q, r):
            assert order_isomorphic(p, r)


@pytest.mark.parametrize(
    "p, q, expected",
    [
        ([3, 4, 2, 1, 5], [1, 2], True),
        ([3, 2, 1], [1, 2], False),
        ([5, 2, 1, 3, 4], [3, 1, 2], True),
    ],
)
def test_contains_pattern_examples(p, q, expected):
    assert contains_pattern(Permutation(p), Permutation(q)) is expected


def test_contains_pattern_matches_exhaustive_scan():
    # the pruned search must equal the literal all-subsequences definition
    def exhaustive(p, q):
        k = len(q)
        return any(
            order_isomorphic(Permutation(sub), q)
            for sub in itertools.combinations(p.ranks, k)
        )

    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 7)
        k = rng.randint(1, 4)
        p = Permutation(rng.sample(range(1, n + 1), n))
        q = Permutation(rng.sample(range(1, k + 1), k))
        assert contains_pattern(p, q) == exhaustive(p, q)


def test_contains_pattern_reflexive_and_length_bound():
    for n in range(0, 6):
        for p in all_permutations(n):
            assert contains_pattern(p, p)
    assert not contains_pattern(Permutation([1, 2]), Permutation([1, 2, 3]))


def test_avoids_basis_examples():
    assert avoids_basis(Permutation([1, 2, 3]), Basis([[3, 2, 1]]))
    assert not avoids_basis(Permutation([3, 2, 1]), Basis([[3, 2, 1]]))
    # 4 1 3 2 contains 4,3,2 which is the pattern 321
    assert not avoids_basis(Permutation([4, 1, 3, 2]), Basis([[1, 2, 3], [3, 2, 1]]))
    # 2 4 1 3 genuinely avoids both
    assert avoids_basis(Permutation([2, 4, 1, 3]), Basis([[1, 2, 3], [3, 2, 1]]))


def test_avoids_basis_is_antitone_in_the_basis():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 6)
        p = Permutation(rng.sample(range(1, n + 1), n))
        base = Basis([[1, 2, 3]])
        extra = Basis([[1, 2, 3], rng.sample(range(1, 4), 3)])
        if not avoids_basis(p, base):
            assert not avoids_basis(p, extra)


def test_empty_permutation_avoids_every_basis():
    assert avoids_basis(Permutation([]), Basis([[1], [2, 1], [1, 2, 3]]))


def test_basis_dedupes_and_validates():
    b = Basis([[1, 2], [1, 2], Permutation([2, 1])])
    assert len(b) == 2
    with pytest.raises(ValueError):
        Basis([])
    with pytest.raises(ValueError):
        Basis([[]])


def test_all_permutations_small():
    assert [p.ranks for p in all_permutations(0)] == [()]
    assert [p.ranks for p in all_permutations(2)] == [(1, 2), (2, 1)]


def test_all_permutations_count_uniqueness_and_order():
    seen = list(all_permutations(4))
    assert len(seen) == 24
    assert len(set(seen)) == 24
    assert [p.ranks for p in seen] == sorted(p.ranks for p in seen)


def test_all_permutations_cap():
    with pytest.raises(CapExceededError):
        all_permutations(11)
    with pytest.raises(CapExceededError):
        all_permutations(3, cap=2)


def test_all_permutations_streams_are_independent():
    first = all_permutations(3)
    second = all_permutations(3)
    next(first)
    assert list(second) != list(first)
    assert len(list(all_permutations(3))) == 6
