"""The stack machine's discipline, and both stack acceptors on worked
examples.  The partition acceptor's verdict and counters have their one
home here: ``by_blocks`` reads them off the word's blocks, and the acceptor
must match it, untraced and traced, on every word over a, b of length
<= 11 and on ``PARTITION_LONG_WORDS``.  The codeword acceptor's verdict and
counters are checked against ``accepts_by_letters`` in
``test_token_readers.py``.
"""

import itertools
import random

import pytest
from conftest import words

from permlang.stackmachine import (
    StackDisciplineError,
    StackMachine,
    _partitions_on,
    accepts_codewords,
    accepts_partition_language,
)


def by_blocks(word: str) -> list:
    """[verdict, pushes, pops, height, cursor] of the partition acceptor: each
    block walks down to the root, then pushes until the stack is as high as
    the block is long; a block shorter than the one before ends the run."""
    if not word.startswith("a"):
        return [False, 0, 0, 0, 0]
    height = cursor = 0
    for _, run in itertools.groupby(word):
        b = len(list(run))
        if b < height:
            return [False, height, 0, height, height - b]
        cursor = b if b > height else 0
        height = b
    return [True, height, 0, height, cursor]


def partition_long_words() -> list[str]:
    """Seeded block words of length 11..60 whose block lengths are
    nondecreasing, each followed by a copy with one seeded letter flipped
    and by a seeded random word of its length."""
    rng = random.Random(3)
    words = []
    for _ in range(20):
        n = rng.randint(11, 60)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, 8)))
        parts = sorted(b - a for a, b in zip([0, *cuts], [*cuts, n]))
        word = "".join("ab"[i % 2] * part for i, part in enumerate(parts))
        pos = rng.randrange(n)
        flipped = word[:pos] + "ba"["ab".index(word[pos])] + word[pos + 1 :]
        words += [word, flipped, "".join(rng.choices("ab", k=n))]
    return words


PARTITION_LONG_WORDS = partition_long_words()


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
        # verdict and counters, untraced and traced, against the blocks
        for word in [*words(range(12), "ab"), *PARTITION_LONG_WORDS]:
            want = by_blocks(word)
            for trace in (None, lambda line: None):
                m = StackMachine()
                verdict = _partitions_on(m, word, trace)
                assert [verdict, m.pushes, m.pops, m.height, m.cursor_depth] == want, word
        assert {by_blocks(word)[0] for word in PARTITION_LONG_WORDS} == {True, False}
