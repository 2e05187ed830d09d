"""Golden machine counters: verdict, steps and cells of fixed tape runs.

``golden_counters.json`` freezes ``(verdict, steps, max_cells_touched)``
for every tape procedure over a fixed input set.  A refactor that claims
the same machine behaviour must leave the file untouched; a change that
alters the counters on purpose regenerates it and states the delta:

    PYTHONPATH=src python tests/test_golden_counters.py > tests/golden_counters.json
"""

import itertools
import json
import random
import sys
from pathlib import Path

from conftest import assert_golden, built_avoider

from permlang import tape
from permlang.cli import bench_word
from permlang.codec import ALPHABET, codewords_with_insertions, encode
from permlang.permutations import Basis, Permutation

GOLDEN = Path(__file__).with_name("golden_counters.json")

BASES = ("12", "321", "123", "1342", "132,4321")

# Longer words, where t-runs and star counts grow past what n <= 5 reaches.
LONG_WORDS = 40
LONG_PAIRS = 3


def _row(run: tape.TapeRun) -> list:
    verdict = run.verdict
    if isinstance(verdict, tape.PairOrder):
        verdict = verdict.value
    return [verdict, run.steps, run.max_cells_touched]


def long_words() -> list[tuple[tuple[int, ...], str]]:
    """Seeded (pattern, encode(p)) pairs with n = 9..14 and |q| = 3..5;
    every other p is built to avoid q, so the full search runs."""
    rng = random.Random(2026)
    pairs = []
    for i in range(LONG_WORDS):
        n, k = rng.randint(9, 14), rng.randint(3, 5)
        q = tuple(rng.sample(range(1, k + 1), k))
        p = built_avoider(rng, n, q) if i % 2 == 0 else rng.sample(range(1, n + 1), n)
        pairs.append((q, encode(Permutation(p))))
    return pairs


def runs():
    """(section, key, procedure, args) of every run the file freezes, in
    the file's order."""
    long = long_words()
    for n in range(6):
        for letters in itertools.product(ALPHABET, repeat=n):
            word = "".join(letters)
            yield "check_legal", word, tape.check_legal, (word,)
    for size in range(10, 41):
        word = bench_word(size)
        yield "check_legal", word, tape.check_legal, (word,)

    for n in range(1, 5):
        for word in codewords_with_insertions(n):
            cells = [i for i, ch in enumerate(word) if ch != "t"]
            for x, y in itertools.combinations(cells, 2):
                yield "compare", f"{word} {x} {y}", tape.compare, (word, x, y)
    rng = random.Random(2027)
    for _, word in long:
        cells = [i for i, ch in enumerate(word) if ch != "t"]
        for _ in range(LONG_PAIRS):
            x, y = sorted(rng.sample(cells, 2))
            yield "compare", f"{word} {x} {y}", tape.compare, (word, x, y)

    for text in BASES:
        basis = Basis([int(d) for d in item] for item in text.split(","))
        for n in range(1, 6):
            for word in codewords_with_insertions(n):
                yield "accepts_basis", f"{text} {word}", tape.accepts_basis, (word, basis)
    for q, word in long:
        text = "".join(map(str, q))
        yield "accepts_basis", f"{text} {word}", tape.accepts_basis, (word, Basis([q]))

    for n in range(1, 61):
        yield "is_prime", str(n), tape.is_prime, (n,)


def collect() -> dict[str, dict[str, list]]:
    table: dict[str, dict[str, list]] = {}
    for section, key, procedure, args in runs():
        table.setdefault(section, {})[key] = _row(procedure(*args))
    return table


def render(table: dict[str, dict[str, list]]) -> str:
    """One entry per line, so a counter change shows up as a readable diff."""
    sections = []
    for name, rows in table.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items())
        sections.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def test_golden_counters_unchanged():
    assert_golden(GOLDEN, render(collect()))


if __name__ == "__main__":
    sys.stdout.write(render(collect()))
