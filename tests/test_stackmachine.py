"""The stack machine's discipline, and both stack acceptors on worked
examples.  This module is the one home of the partition acceptor's literal
machine: on every a/b word of length <= 11 and on ``PARTITION_LONG_WORDS``,
one traced pass per word must give the lines, end state, pushes and
verdict that ``partition_lines_by_letters`` reads off the letters, never
pop, and make one ``cursor_down()`` per letter that walks; the untraced
verdict, a closed form by blocks, must be the reference's.  The codeword
acceptor's literal machine answers to ``test_token_readers.py``.
"""

import random

import pytest
from conftest import CountingMachine, words

from permlang.stackmachine import (ACCEPT, FAIL, START, StackDisciplineError, StackMachine,
                                   _partitions_on, accepts_codewords, accepts_partition_language)


def partition_lines_by_letters(word: str) -> tuple[list[list[str]], int, bool]:
    """The fields of each trace line the partition machine writes on the
    word, with its pushes, the height it reaches, as it never pops, and its
    verdict.  A block walks the cursor down from the height the previous
    block left, one token per letter, and then pushes one token per letter.
    A new block fails on its first letter if the previous block stopped
    above the root, or if the first block is made of b's; a word accepts
    iff its last block reached the root."""
    lines, height, cursor, state = [], 0, 0, START
    left = 0  # tokens the block has still to walk down
    for idx, letter in enumerate(word):
        if word[idx - 1 : idx] != letter:  # a block's first letter
            if left or letter == "b" and not idx:
                state = FAIL
            left = height
        if state == START and left:
            left -= 1
            cursor = left
        elif state == START:
            height += 1
            cursor = height
        lines.append([str(idx), letter, f"state={state}", f"cursor={cursor}", f"height={height}"])
        if state == FAIL:
            break
    return lines, height, bool(word) and state == START and not left


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

    def test_cursor_down_walks_one_token(self):
        m = StackMachine()
        for _ in range(3):
            m.push()
        for depth in (2, 1, 0):  # the third walk reaches exactly the root
            m.cursor_down()
            assert (m.cursor_depth, m.height, m.pushes, m.pops) == (depth, 3, 3, 0)

    @pytest.mark.parametrize("depth, j", [(0, 1), (2, 3), (3, 7)])
    def test_cursor_down_past_the_root_raises_in_place(self, depth, j):
        # j one-token walks from the top of depth tokens: the first depth
        # reach the root, and each one after raises and leaves it there
        m = StackMachine()
        for _ in range(depth):
            m.push()
        for walked in range(1, j + 1):
            if walked <= depth:
                m.cursor_down()
            else:
                with pytest.raises(StackDisciplineError):
                    m.cursor_down()
            assert (m.cursor_depth, m.height) == (max(depth - walked, 0), depth)

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
        # one traced pass per word, on a machine that counts its operation
        # calls, and the untraced verdict, against the reference
        for word in [*words(range(12), "ab"), *PARTITION_LONG_WORDS]:
            want, pushes, verdict = partition_lines_by_letters(word)
            assert accepts_partition_language(word) is verdict, word
            lines, m = [], CountingMachine()
            assert _partitions_on(m, word, lines.append) is verdict, word
            assert [line.split("\t") for line in lines] == want, word
            # the verdict's state, the stack as the last line left it
            last = want[-1][3:] if want else ["cursor=0", "height=0"]
            assert [f"state={m.state}", f"cursor={m.cursor_depth}", f"height={m.height}"] == [
                f"state={ACCEPT if verdict else FAIL}", *last], word
            # a letter that leaves the run going and the height as it was
            # walks down one token: one cursor_down()
            heights = ["height=0"] + [fields[4] for fields in want]
            walks = sum(before == after and fields[2] == f"state={START}"
                        for before, after, fields in zip(heights, heights[1:], want))
            assert (m.pushes, m.pops, m.calls["push"], m.calls["pop"], m.calls["cursor_down"]) == (
                pushes, 0, pushes, 0, walks), word
        assert {partition_lines_by_letters(w)[2] for w in PARTITION_LONG_WORDS} == {True, False}
