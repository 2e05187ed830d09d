import json

import pytest
from conftest import census_sweep, pair_classes, partitions, partitions_of, symmetry_sweep

from permlang import counting
from permlang.codec import encode
from permlang.counting import (
    CountMismatchError,
    CountRow,
    CountTable,
    count_avoiders,
    count_codewords_bivariate,
    sequence,
)
from permlang.permutations import (
    Basis,
    CapExceededError,
    all_permutations,
)


class TestCountAvoiders:
    def test_cap(self, monkeypatch):
        assert count_avoiders(3, Basis([[2, 1]]), cap=3) == CountRow(3, 1, 1)
        # counting owns the n! limit: the streams take no cap, so each
        # function that consumes one refuses n before creating it
        calls = []
        for name in ("all_permutations", "codewords_with_insertions"):
            monkeypatch.setattr(counting, name, lambda *args, name=name: calls.append(name))
        basis = Basis([[1, 2]])
        with pytest.raises(CapExceededError, match="^n=9 exceeds the cap 8$"):
            count_avoiders(9, basis)
        with pytest.raises(CapExceededError, match="^n_max=9 exceeds the cap 8$"):
            sequence(basis, 9)
        with pytest.raises(CapExceededError, match="^n=9 exceeds the cap 8$"):
            count_codewords_bivariate(9)
        assert calls == []

    def test_routes_that_disagree_raise_with_the_row(self, monkeypatch):
        # only a bug can reach this: an oracle that rejects everything
        monkeypatch.setattr(counting, "avoids_basis", lambda p, basis: False)
        with pytest.raises(CountMismatchError) as err:
            count_avoiders(1, Basis([[1, 2]]))
        row = err.value.row
        assert (row.n, row.brute, row.codeword) == (1, 0, 1)

    def test_each_route_runs_once(self, monkeypatch):
        calls = []
        for name in counting.ROUTES:

            def spy(n, basis, name=name):
                calls.append((name, n, basis))
                return 7

            monkeypatch.setitem(counting.ROUTES, name, spy)
        basis = Basis([[1, 2]])
        assert count_avoiders(0, basis) == CountRow(0, *[1] * len(counting.ROUTES))
        assert calls == []
        assert count_avoiders(3, basis, cap=5) == CountRow(3, *[7] * len(counting.ROUTES))
        assert calls == [(name, 3, basis) for name in counting.ROUTES]
        table = CountTable((count_avoiders(1, basis),))
        assert table.to_csv().splitlines()[0] == ",".join(["n", *counting.ROUTES])
        assert list(json.loads(table.to_json())["rows"][0]) == ["n", *counting.ROUTES]

    def test_subset_monotonicity(self):
        small = Basis([[1, 3, 2]])
        large = Basis([[1, 3, 2], [2, 1]])
        for n in range(0, 6):
            assert count_avoiders(n, large).brute <= count_avoiders(n, small).brute


class TestSequence:
    def test_symmetries_preserve_counts(self):
        # tests/slow_tier.py runs the same sweep to n = 7
        assert symmetry_sweep(6) == (24, [])

    def test_pair_census_to_five(self):
        # every pair of length-4 patterns has its class representative's
        # counts; tests/slow_tier.py counts the representatives to n = 8,
        # where they fall into 38 groups
        classes = pair_classes()
        assert len(classes) == 56
        assert len({basis for members in classes for basis in members}) == 276
        assert census_sweep(5, classes, 5) == (276, [])

    def test_size_checked_before_any_row(self, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(counting, "count_avoiders", no_rows)
        with pytest.raises(CapExceededError):
            sequence(Basis([[1, 2]]), 9)
        with pytest.raises(ValueError):
            sequence(Basis([[1, 2]]), -1)

    def test_csv_shape(self):
        csv = sequence(Basis([[1, 2, 3]]), 3).to_csv()
        lines = csv.splitlines()
        assert lines[0] == "n,brute,codeword"
        assert lines[-1] == "3,5,5"

    def test_json_mirrors_rows(self):
        data = json.loads(sequence(Basis([[2, 1]]), 2).to_json())
        assert data == {
            "rows": [
                {"n": 0, "brute": 1, "codeword": 1},
                {"n": 1, "brute": 1, "codeword": 1},
                {"n": 2, "brute": 1, "codeword": 1},
            ]
        }

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CountRow(3, 5, 4),
            lambda: CountRow._make((3, 5, 4)),
            lambda: CountRow(3, 5, 5)._replace(codeword=4),
        ],
        ids=["new", "make", "replace"],
    )
    def test_mismatch_fails_loudly(self, build):
        with pytest.raises(CountMismatchError) as err:
            build()
        assert err.value.row.n == 3
        assert str(err.value) == "count mismatch at n=3: brute 5 != codeword 4"

    def test_table_is_built_from_count_avoiders_rows(self, monkeypatch):
        calls = []

        def row(n, basis, cap):
            calls.append(n)
            return CountRow(n, 7, 7)

        monkeypatch.setattr(counting, "count_avoiders", row)
        table = sequence(Basis([[1, 2]]), 3)
        assert calls == [0, 1, 2, 3]
        assert table == CountTable(tuple(CountRow(n, 7, 7) for n in range(4)))


class TestBivariate:
    def test_examples(self):
        assert count_codewords_bivariate(1) == {0: 1}
        assert count_codewords_bivariate(2) == {0: 2}
        table = count_codewords_bivariate(4)
        assert sum(table.values()) == 24

    def test_matches_encode_route(self):
        for n in range(1, 7):
            table: dict[int, int] = {}
            for p in all_permutations(n):
                t_count = encode(p).count("t")
                table[t_count] = table.get(t_count, 0) + 1
            assert count_codewords_bivariate(n) == table

    def test_cap_and_bounds(self):
        with pytest.raises(CapExceededError):
            count_codewords_bivariate(9)
        with pytest.raises(ValueError):
            count_codewords_bivariate(0)


def pentagonal_partition_numbers(limit):
    """p(0..limit) by Euler's pentagonal-number recurrence, a reference
    independent of ``conftest.partitions_of``'s enumeration."""
    p = [1]
    for n in range(1, limit + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for pentagonal in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pentagonal <= n:
                    total += sign * p[n - pentagonal]
            k += 1
        p.append(total)
    return p


class TestPartitionCount:
    """``conftest.partitions_of`` is the one home of partition numbers, and
    acceptance 09 counts the partition acceptor against it."""

    def test_examples(self):
        assert partitions_of(0) == 1
        assert partitions_of(5) == 7
        assert partitions_of(10) == 42
        assert list(partitions(5)) == [
            (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)
        ]

    def test_against_direct_enumeration(self):
        for n, expected in enumerate(pentagonal_partition_numbers(25)):
            assert partitions_of(n) == expected, n

    def test_large_values_exact(self):
        # the reference recurrence at published values (OEIS A000041),
        # big enough to overflow doubles if done carelessly
        p = pentagonal_partition_numbers(1000)
        assert p[100] == 190569292
        assert p[1000] == int("24061467864032622473692149727991")

    def test_bounds(self):
        assert partitions_of(-1) == 0
        assert list(partitions(0, 0)) == [()]
        assert list(partitions(3, 0)) == []
        assert list(partitions(5, 2)) == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
