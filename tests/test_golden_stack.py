"""Golden stack runs: the validate reason and the stack acceptor's counters.

``golden_stack.json`` freezes, for every word of a fixed set,
``[reason, verdict, pushes, pops, height, cursor]``: the ``codec.validate``
reason (null for a legal word), the verdict of
``stackmachine.accepts_codewords``, and the push and pop counts, final
stack height and final cursor depth of the one ``StackMachine`` that the
acceptor created (recorded by the ``machines`` fixture of ``conftest.py``).
The set is every word of length <= 5, plus ``encode(p)`` for seeded random
p with n = 20..60, each also with one letter changed.
A change that claims the same machine behaviour must leave the file
untouched; a change that alters it on purpose regenerates it and states
the delta:

    PYTHONPATH=src python tests/test_golden_stack.py > tests/golden_stack.json
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from conftest import assert_golden, record_machines

from permlang import codec, stackmachine
from permlang.codec import ALPHABET, encode, validate
from permlang.permutations import Permutation

GOLDEN = Path(__file__).with_name("golden_stack.json")

LONG_SEED = 2
LONG_COUNT = 30


def long_words() -> list[str]:
    """encode(p) for seeded p with n = 20..60, each followed by a copy with
    one letter changed.  Of every five copies, one ends in l, r or m, one
    fills the slot of its last l or r (so the slots run out early), and
    three change a seeded position to a seeded other letter."""
    rng = random.Random(LONG_SEED)
    words = []
    for i in range(LONG_COUNT):
        n = rng.randint(20, 60)
        word = encode(Permutation(rng.sample(range(1, n + 1), n)))
        if i % 5 == 0:
            pos, letter = len(word) - 1, rng.choice("lrm")
        elif i % 5 == 1:
            pos, letter = max(word.rfind("l"), word.rfind("r")), "f"
        else:
            pos = rng.randrange(len(word))
            letter = rng.choice([ch for ch in ALPHABET if ch != word[pos]])
        words += [word, word[:pos] + letter + word[pos + 1 :]]
    return words


def collect(machines: list) -> dict[str, list]:
    words = [
        "".join(letters)
        for n in range(6)
        for letters in itertools.product(ALPHABET, repeat=n)
    ]
    rows = {}
    for word in words + long_words():
        before = len(machines)
        verdict = stackmachine.accepts_codewords(word)
        assert len(machines) == before + 1, word
        m = machines[-1]
        rows[word] = [
            validate(word).reason,
            verdict,
            m.pushes,
            m.pops,
            m.height,
            m.cursor_depth,
        ]
    return rows


def render(rows: dict[str, list]) -> str:
    """One word per line, so a change shows up as a readable diff."""
    body = ",\n".join(
        f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}"
        for k, v in rows.items()
    )
    return "{\n" + body + "\n}\n"


def test_golden_stack_unchanged(machines):
    assert_golden(GOLDEN, render(collect(machines)))


def test_long_words_cover_every_reason():
    golden = json.loads(GOLDEN.read_text())
    reasons = {golden[word][0] for word in long_words()}
    assert reasons == {
        None,
        codec.REASON_T_OVERFLOW,
        codec.REASON_EXHAUSTED,
        codec.REASON_TRAILING,
        codec.REASON_UNFILLED,
    }
    assert golden[""][0] == codec.REASON_EMPTY


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        sys.stdout.write(render(collect(record_machines(mp))))
