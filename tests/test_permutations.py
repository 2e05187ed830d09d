import itertools
import random
import sys

import pytest

from permlang.permutations import (
    Basis,
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
    # any run of whitespace separates, and outer whitespace is ignored
    assert Permutation.from_text(" 2\t4  1 3 ") == Permutation.from_text("2 4 1 3")
    with pytest.raises(ValueError):
        Permutation.from_text("3 x 1")
    # text is never rank-normalized: the entries must be exactly 1..k
    # nor read beyond ASCII decimal: no leading zeros, no other digit scripts
    for line in ("5 9", "1 3", "2 1 2", "0 1", "01 2", "\u0661 \u0662", "1 \u00b2"):
        with pytest.raises(ValueError):
            Permutation.from_text(line)


def test_constructor_refuses_text():
    # ranked character by character, "1 2" would be [2, 1, 3]; ranked
    # entry by entry, ["1", "10", "2"] would be [1, 2, 3]
    for values in ("1 2", "132", b"12", bytearray(b"12"), ["1", "10", "2"], [b"2", b"10"]):
        with pytest.raises(TypeError, match="from_text"):
            Permutation(values)
    for patterns in (["1 2"], [["1", "10", "2"]]):
        with pytest.raises(TypeError, match="from_text"):
            Basis(patterns)


def test_of_ranks_matches_the_constructor():
    for n in range(5):
        for ranks in itertools.permutations(range(1, n + 1)):
            trusted, built = Permutation.of_ranks(ranks), Permutation(list(ranks))
            assert trusted == built
            assert hash(trusted) == hash(built)
            assert repr(trusted) == repr(built)


def test_from_text_keeps_its_int_tuple():
    ranks = Permutation.from_text("3 1 2").ranks
    assert ranks == (3, 1, 2)
    assert type(ranks) is tuple
    assert all(type(r) is int for r in ranks)


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
    # the pruned search must equal the literal all-subsequences definition:
    # on every p with n <= 6 against every q with k <= 4 (28,842 pairs)
    def exhaustive(p, q):
        k = len(q)
        return any(
            order_isomorphic(Permutation(sub), q)
            for sub in itertools.combinations(p.ranks, k)
        )

    patterns = [q for k in range(1, 5) for q in all_permutations(k)]
    for n in range(0, 7):
        for p in all_permutations(n):
            for q in patterns:
                assert contains_pattern(p, q) == exhaustive(p, q), (p, q)
    # at n = 7, distinct permutations each meet one seeded pattern
    rng = random.Random(7)
    for p in rng.sample(list(all_permutations(7)), 300):
        q = rng.choice(patterns)
        assert contains_pattern(p, q) == exhaustive(p, q), (p, q)


def test_contains_pattern_reflexive_and_length_bound():
    for n in range(0, 6):
        for p in all_permutations(n):
            assert contains_pattern(p, p)
    assert not contains_pattern(Permutation([1, 2]), Permutation([1, 2, 3]))


def test_contains_pattern_takes_patterns_past_the_recursion_limit():
    # the search keeps its own stack, so a pattern with more entries than
    # the interpreter has frames is decided like a short one
    identity = list(range(1, sys.getrecursionlimit() + 101))
    swapped = identity[:-2] + identity[:-3:-1]
    assert contains_pattern(Permutation(identity), Permutation(identity))
    assert not contains_pattern(Permutation(identity), Permutation(swapped))


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


def test_basis_patterns_repr_and_foreign_equality():
    b = Basis([[2, 1], [1]])
    assert b.patterns == (Permutation([1]), Permutation([2, 1]))
    assert repr(b) == "Basis([[1], [2, 1]])"
    # a tuple is neither type: __eq__ returns NotImplemented, so == falls
    # back to identity and != to its negation
    for value, other in ((Permutation([2, 1]), (2, 1)), (b, b.patterns)):
        assert not value == other
        assert value != other


def test_all_permutations_small():
    assert [p.ranks for p in all_permutations(0)] == [()]
    assert [p.ranks for p in all_permutations(2)] == [(1, 2), (2, 1)]


def test_all_permutations_count_uniqueness_and_order():
    seen = list(all_permutations(4))
    assert len(seen) == 24
    assert len(set(seen)) == 24
    assert [p.ranks for p in seen] == sorted(p.ranks for p in seen)


def test_all_permutations_rejects_negative_n():
    with pytest.raises(ValueError, match="nonnegative"):
        all_permutations(-1)


def test_all_permutations_is_lazy_and_takes_no_cap():
    # 11! permutations: only a lazy stream hands out the first at once
    assert next(all_permutations(11)).ranks == tuple(range(1, 12))


def test_all_permutations_streams_are_independent():
    first = all_permutations(3)
    second = all_permutations(3)
    next(first)
    assert list(second) != list(first)
    assert len(list(all_permutations(3))) == 6


def test_all_permutations_streams_interleave():
    # the second stream is read two at a time, so the two never line up
    first, second = all_permutations(4), all_permutations(4)
    seen_first, seen_second = [], []
    for _ in range(12):
        seen_first.append(next(first).ranks)
        seen_second.append(next(second).ranks)
        seen_second.append(next(second).ranks)
    seen_first.extend(p.ranks for p in first)
    seen_second.extend(p.ranks for p in second)
    expected = list(itertools.permutations(range(1, 5)))
    assert seen_first == seen_second == expected
