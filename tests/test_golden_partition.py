"""Golden partition runs: the partition acceptor's verdict and counters.

``golden_partition.json`` freezes, for every word of a fixed set,
``[verdict, pushes, pops, height, cursor]``: the verdict of
``stackmachine.accepts_partition_language`` and the push and pop counts,
final stack height and final cursor depth of the one ``StackMachine`` that
the acceptor created (recorded by the ``machines`` fixture of
``conftest.py``).  The set is every word over a, b of length <= 10, plus
seeded words of length 11..60: block words with nondecreasing block
lengths, each followed by a copy with one letter flipped and by a random
word of the same length.
A change that claims the same machine behaviour must leave the file
untouched; a change that alters it on purpose regenerates it and states
the delta:

    PYTHONPATH=src python tests/test_golden_partition.py > tests/golden_partition.json
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from conftest import assert_golden, record_machines

from permlang import stackmachine

GOLDEN = Path(__file__).with_name("golden_partition.json")

LONG_SEED = 3
LONG_COUNT = 20


def long_words() -> list[str]:
    """Seeded block words of length 11..60 whose block lengths are
    nondecreasing, each followed by a copy with one seeded letter flipped
    and by a seeded random word of its length."""
    rng = random.Random(LONG_SEED)
    words = []
    for _ in range(LONG_COUNT):
        n = rng.randint(11, 60)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, 8)))
        parts = sorted(b - a for a, b in zip([0, *cuts], [*cuts, n]))
        word = "".join("ab"[i % 2] * part for i, part in enumerate(parts))
        pos = rng.randrange(n)
        flipped = word[:pos] + "ba"["ab".index(word[pos])] + word[pos + 1 :]
        words += [word, flipped, "".join(rng.choices("ab", k=n))]
    return words


def collect(machines: list) -> dict[str, list]:
    words = ["".join(letters) for n in range(11) for letters in itertools.product("ab", repeat=n)]
    rows = {}
    for word in words + long_words():
        before = len(machines)
        verdict = stackmachine.accepts_partition_language(word)
        assert len(machines) == before + 1, word
        m = machines[-1]
        rows[word] = [verdict, m.pushes, m.pops, m.height, m.cursor_depth]
    return rows


def render(rows: dict[str, list]) -> str:
    """One word per line, so a change shows up as a readable diff."""
    body = ",\n".join(
        f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}" for k, v in rows.items()
    )
    return "{\n" + body + "\n}\n"


def test_golden_partition_unchanged(machines):
    assert_golden(GOLDEN, render(collect(machines)))


def test_long_words_accept_and_reject():
    golden = json.loads(GOLDEN.read_text())
    assert {golden[word][0] for word in long_words()} == {True, False}


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        sys.stdout.write(render(collect(record_machines(mp))))
