import json

import pytest

from permlang import counting
from permlang.codec import encode
from permlang.counting import (
    CountMismatchError,
    CountRow,
    CountTable,
    count_avoiders,
    count_codewords_bivariate,
    partition_count,
    sequence,
)
from permlang.permutations import (
    Basis,
    CapExceededError,
    all_permutations,
)


class TestCountAvoiders:
    def test_examples(self):
        assert count_avoiders(3, Basis([[1, 2, 3]])) == (5, 5)
        assert count_avoiders(0, Basis([[1, 2]])) == (1, 1)
        assert count_avoiders(5, Basis([[1, 2, 3, 4]])) == (103, 103)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            count_avoiders(9, Basis([[1, 2]]))
        assert count_avoiders(3, Basis([[2, 1]]), cap=3) == (1, 1)

    def test_single_entry_pattern_kills_everything(self):
        for n in range(1, 5):
            assert count_avoiders(n, Basis([[1]])) == (0, 0)

    def test_subset_monotonicity(self):
        small = Basis([[1, 3, 2]])
        large = Basis([[1, 3, 2], [2, 1]])
        for n in range(0, 6):
            assert count_avoiders(n, large)[0] <= count_avoiders(n, small)[0]


class TestSequence:
    def test_catalan(self):
        table = sequence(Basis([[1, 2, 3]]), 6)
        assert table.counts() == (1, 1, 2, 5, 14, 42, 132)

    def test_increasing_only(self):
        assert sequence(Basis([[2, 1]]), 5).counts() == (1, 1, 1, 1, 1, 1)

    def test_av_1234_prefix(self):
        assert sequence(Basis([[1, 2, 3, 4]]), 6).counts() == (1, 1, 2, 6, 23, 103, 513)

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

    def test_mismatch_fails_loudly(self):
        with pytest.raises(CountMismatchError) as err:
            CountTable((CountRow(3, 5, 4),))
        assert err.value.n == 3


class TestBivariate:
    def test_examples(self):
        assert count_codewords_bivariate(1) == {0: 1}
        assert count_codewords_bivariate(2) == {0: 2}
        table = count_codewords_bivariate(4)
        assert sum(table.values()) == 24

    def test_frozen_tables_from_encode_route(self):
        # derived independently by encoding every permutation and counting ts
        assert count_codewords_bivariate(3) == {0: 5, 1: 1}
        assert count_codewords_bivariate(4) == {0: 14, 1: 8, 2: 2}
        assert count_codewords_bivariate(5) == {0: 42, 1: 45, 2: 25, 3: 7, 4: 1}

    def test_matches_encode_route(self):
        for n in range(1, 7):
            table: dict[int, int] = {}
            for p in all_permutations(n):
                t_count = encode(p).count("t")
                table[t_count] = table.get(t_count, 0) + 1
            assert count_codewords_bivariate(n) == table

    def test_total_is_factorial(self):
        import math

        for n in range(1, 7):
            assert sum(count_codewords_bivariate(n).values()) == math.factorial(n)

    def test_cap_and_bounds(self):
        with pytest.raises(CapExceededError):
            count_codewords_bivariate(9)
        with pytest.raises(ValueError):
            count_codewords_bivariate(0)


class TestPartitionCount:
    def test_examples(self):
        assert partition_count(0) == 1
        assert partition_count(5) == 7
        assert partition_count(10) == 42

    def test_against_direct_enumeration(self):
        def direct(n, largest=None):
            # partitions of n into parts <= largest, counted recursively
            if n == 0:
                return 1
            if largest is None:
                largest = n
            return sum(direct(n - part, part) for part in range(min(largest, n), 0, -1))

        for n in range(0, 21):
            assert partition_count(n) == direct(n), n

    def test_large_values_exact(self):
        # spot values big enough to overflow doubles if done carelessly
        assert partition_count(100) == 190569292
        assert partition_count(1000) == int(
            "24061467864032622473692149727991"
        )

    def test_bounds(self):
        with pytest.raises(ValueError):
            partition_count(-1)
        with pytest.raises(ValueError):
            partition_count(10001)
