import itertools

import pytest

from permlang import codec
from permlang.counting import partition_count
from permlang.stackmachine import (
    StackDisciplineError,
    StackMachine,
    accepts_codewords,
    accepts_partition_language,
)


class TestStackMachine:
    def test_push_pop_discipline(self):
        m = StackMachine()
        m.push()
        m.push()
        assert m.height == 2 and m.at_top
        m.cursor_down()
        assert m.cursor_depth == 1 and not m.at_top
        with pytest.raises(StackDisciplineError):
            m.pop()  # cursor not at top
        m.cursor_to_top()
        m.pop()
        m.pop()
        assert m.height == 0 and m.at_root
        with pytest.raises(StackDisciplineError):
            m.pop()  # never pop the root
        with pytest.raises(StackDisciplineError):
            m.cursor_down()

    def test_pop_count_never_exceeds_push_count(self):
        m = StackMachine()
        for _ in range(3):
            m.push()
        for _ in range(3):
            m.pop()
        assert m.pops <= m.pushes


class TestAcceptsCodewords:
    @pytest.mark.parametrize(
        "word, expected",
        [
            ("mrtltff", True),
            ("ff", False),
            ("tf", False),
            ("f", True),
            ("mrlff", True),
            ("", False),
            ("mf", False),
        ],
    )
    def test_examples(self, word, expected):
        assert accepts_codewords(word) is expected

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            accepts_codewords("abc")
        # checked before the run, not when the machine reaches the letter
        with pytest.raises(ValueError, match="'x' at position 1"):
            accepts_codewords("fx")

    def test_agrees_with_validate_exhaustively(self):
        for n in range(0, 7):
            for tup in itertools.product(codec.ALPHABET, repeat=n):
                word = "".join(tup)
                assert accepts_codewords(word) == bool(codec.validate(word)), word

    def test_trace_lines(self):
        lines: list[str] = []
        accepts_codewords("mrtltff", trace=lines.append)
        assert len(lines) == 7
        assert all("state=" in ln and "cursor=" in ln and "height=" in ln for ln in lines)
        assert lines[-1].split("\t")[1] == "f"


class TestAcceptsPartitionLanguage:
    @pytest.mark.parametrize(
        "word, expected",
        [
            ("abb", True),  # parts 1 <= 2
            ("aab", False),  # 2 > 1
            ("a", True),
            ("", False),
            ("b", False),  # blocks start with a
            ("aabb", True),
            ("aba", True),  # 1, 1, 1
            ("abba", False),  # third block shorter than second
            ("abaa", True),  # 1, 1, 2
        ],
    )
    def test_examples(self, word, expected):
        assert accepts_partition_language(word) is expected

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            accepts_partition_language("abc")

    def test_accepted_count_equals_partition_number(self):
        for n in range(1, 15):
            count = sum(
                1
                for tup in itertools.product("ab", repeat=n)
                if accepts_partition_language("".join(tup))
            )
            assert count == partition_count(n), n

    def test_accepts_exactly_the_nondecreasing_block_words(self):
        def blocks(word):
            return [len(list(g)) for _, g in itertools.groupby(word)]

        for n in range(1, 12):
            for tup in itertools.product("ab", repeat=n):
                word = "".join(tup)
                want = word.startswith("a") and blocks(word) == sorted(blocks(word))
                assert accepts_partition_language(word) is want, word

    def test_trace_lines(self):
        lines: list[str] = []
        accepts_partition_language("abb", trace=lines.append)
        assert len(lines) == 3
