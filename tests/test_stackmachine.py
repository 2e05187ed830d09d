import itertools

import pytest
from conftest import words

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
        assert m.height == m.cursor_depth == 2
        m.cursor_down()
        assert m.cursor_depth == 1
        with pytest.raises(StackDisciplineError):
            m.pop()  # cursor not at top
        m.cursor_to_top()
        m.pop()
        m.pop()
        assert m.height == m.cursor_depth == 0
        with pytest.raises(StackDisciplineError):
            m.pop()  # never pop the root
        with pytest.raises(StackDisciplineError):
            m.cursor_down()

    def test_cursor_down_zero_does_nothing(self):
        m = StackMachine()
        m.cursor_down(0)  # at the root: zero steps never descend
        m.push()
        m.push()
        m.cursor_down(0)
        assert (m.cursor_depth, m.height, m.pushes, m.pops) == (2, 2, 2, 0)

    def test_cursor_down_walks_j_tokens(self):
        m = StackMachine()
        for _ in range(3):
            m.push()
        m.cursor_down(2)
        assert m.cursor_depth == 1
        m.cursor_down()  # one token by default: exactly to the root
        assert (m.cursor_depth, m.height) == (0, 3)

    @pytest.mark.parametrize("depth, j", [(0, 1), (2, 3), (3, 7)])
    def test_cursor_down_past_the_root_raises_in_place(self, depth, j):
        m = StackMachine()
        for _ in range(depth):
            m.push()
        with pytest.raises(StackDisciplineError):
            m.cursor_down(j)
        assert m.cursor_depth == m.height == depth
        with pytest.raises(StackDisciplineError):
            m.cursor_down(-1)
        assert m.cursor_depth == depth

    def test_push_below_the_top_raises_in_place(self):
        m = StackMachine()
        m.push()
        m.push()
        m.cursor_down()
        with pytest.raises(StackDisciplineError):
            m.push()
        assert (m.height, m.cursor_depth, m.pushes) == (2, 1, 2)


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
        # checked before the run: the block rule rejects at "b" before "x"
        with pytest.raises(ValueError, match="'x' at position 1"):
            accepts_partition_language("bx")
        with pytest.raises(ValueError, match="'x' at position 3"):
            accepts_partition_language("aabx")

    def test_accepts_exactly_the_nondecreasing_block_words(self):
        def blocks(word):
            return [len(list(g)) for _, g in itertools.groupby(word)]

        for word in words(range(1, 12), "ab"):
            want = word.startswith("a") and blocks(word) == sorted(blocks(word))
            assert accepts_partition_language(word) is want, word
