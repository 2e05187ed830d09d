"""Golden files: the exact bytes of fixed tape runs.

Each file named in ``GOLDEN`` holds what its render function returns:

- ``golden_counters.json``: ``[verdict, steps, max_cells_touched]`` of
  every tape procedure over a fixed input set, one section a procedure;
- ``golden_traces.txt``: the full text trace that the tape procedures
  emit through their ``trace`` callback, each run under a
  ``# <procedure> <arguments>`` header: nine tape runs.  One of them,
  ``accepts_basis 21,123 llf``, avoids its first pattern, so it shows a
  second pattern's search after the one legality pass and cell scan;
- ``golden_bench.txt``: the CSV that ``permlang bench`` prints for each of
  the five commands of ``BENCH_COMMANDS``, under a ``# <arguments>``
  header.  The golden counters stop at n <= 14; ``bench_word`` reaches
  size 100, where a 33-t run sits inside 33 nested m..f pairs; the
  counters file does not repeat its legality rows.

A file freezes only what no reference in the tests computes, and no file
freezes a run that another already holds.  No file freezes a stack run:
each stack acceptor's trace lines, counters and verdict answer to a
letter-level reference, ``stack_lines_by_letters`` in
``test_token_readers.py`` and ``partition_lines_by_letters`` in
``test_stackmachine.py``.

A change that claims the same machine behaviour must leave every file
untouched; a change that alters one on purpose regenerates it and states
the delta:

    PYTHONPATH=src python tests/test_golden.py <file> > tests/<file>

A test runs that command for ``golden_traces.txt`` and compares its
output with the file, byte for byte.
"""

import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from conftest import assert_golden, basis_of, built_avoider, insertion_cells, run_python, words

from permlang import cli, tape
from permlang.codec import codewords_with_insertions, encode
from permlang.permutations import Basis, Permutation

HERE = Path(__file__).parent

# --- tape counters ---------------------------------------------------------

BASES = ("12", "321", "123", "1342", "132,4321")

# Longer words, where t-runs and star counts grow past what n <= 5 reaches.
LONG_WORDS = 40
LONG_PAIRS = 3


def counter_long_words() -> list[tuple[tuple[int, ...], str]]:
    """Seeded (pattern, encode(p)) pairs with n = 9..14 and |q| = 3..5;
    every other p is built to avoid q, but 8 of those 20 are monotone, not
    typical avoiders (see ``conftest.built_avoider``)."""
    rng = random.Random(2026)
    pairs = []
    for i in range(LONG_WORDS):
        n, k = rng.randint(9, 14), rng.randint(3, 5)
        q = tuple(rng.sample(range(1, k + 1), k))
        p = built_avoider(rng, n, q) if i % 2 == 0 else rng.sample(range(1, n + 1), n)
        pairs.append((q, encode(Permutation(p))))
    return pairs


def counter_runs():
    """(section, key, procedure, args) of every run golden_counters.json
    freezes, in the file's order."""
    long = counter_long_words()
    for word in words(range(6)):
        yield "check_legal", word, tape.check_legal, (word,)

    for n in range(1, 5):
        for word in codewords_with_insertions(n):
            cells = insertion_cells(word)
            for x, y in itertools.combinations(cells, 2):
                yield "compare", f"{word} {x} {y}", tape.compare, (word, x, y)
    rng = random.Random(2027)
    for _, word in long:
        cells = insertion_cells(word)
        for _ in range(LONG_PAIRS):
            x, y = sorted(rng.sample(cells, 2))
            yield "compare", f"{word} {x} {y}", tape.compare, (word, x, y)

    for text in BASES:
        basis = basis_of(text)
        for n in range(1, 6):
            for word in codewords_with_insertions(n):
                yield "accepts_basis", f"{text} {word}", tape.accepts_basis, (word, basis)
    for q, word in long:
        text = "".join(map(str, q))
        yield "accepts_basis", f"{text} {word}", tape.accepts_basis, (word, Basis([q]))

    for n in range(1, 61):
        yield "is_prime", str(n), tape.is_prime, (n,)


def render_counters() -> str:
    """One entry per line, so a counter change shows up as a readable diff."""
    table: dict[str, dict[str, list]] = {}
    for section, key, procedure, args in counter_runs():
        run = procedure(*args)
        # a compare's verdict is written as the pair's order: 21 is descending
        verdict = ("21" if run.verdict else "12") if section == "compare" else run.verdict
        table.setdefault(section, {})[key] = [verdict, run.steps, run.max_cells_touched]
    sections = []
    for name, rows in table.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items())
        sections.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


# --- traces ----------------------------------------------------------------

# (header, procedure, arguments before the trace sink)
TRACE_RUNS = (
    ("check_legal mrtltff", tape.check_legal, "mrtltff"),
    # the empty word: legality's one read
    ('check_legal ""', tape.check_legal, ""),
    ("compare mrtltff 0 6", tape.compare, "mrtltff", 0, 6),
    ("accepts_basis 132,21 mrtltff", tape.accepts_basis, "mrtltff", Basis([[1, 3, 2], [2, 1]])),
    ("accepts_basis 123 mmtlff", tape.accepts_basis, "mmtlff", Basis([[1, 2, 3]])),
    # 21 is avoided, so the search reaches its second pattern, 123
    ("accepts_basis 21,123 llf", tape.accepts_basis, "llf", Basis([[2, 1], [1, 2, 3]])),
    # legality rejects, so no occurrence search runs
    ("accepts_basis 12 tf", tape.accepts_basis, "tf", Basis([[1, 2]])),
    # a read, then the one-cell restore
    ("is_prime 1", tape.is_prime, 1),
    ("is_prime 12", tape.is_prime, 12),
)


def render_traces() -> str:
    lines = []
    for header, procedure, *args in TRACE_RUNS:
        lines.append(f"# {header}")
        procedure(*args, lines.append)
    return "".join(line + "\n" for line in lines)


# --- permlang bench --------------------------------------------------------

BENCH_COMMANDS = (
    "bench --suite legality --sizes 1..100",
    "bench --suite compare --sizes 2..100",
    "bench --suite avoid --pattern 21 --sizes 1..100",
    "bench --suite avoid --pattern 123 --sizes 1..60",
    "bench --suite avoid --pattern 4231 --sizes 1..30",
)


def render_bench() -> str:
    out = io.StringIO()
    for command in BENCH_COMMANDS:
        out.write(f"# {command}\n")
        with contextlib.redirect_stdout(out):
            assert cli.main(command.split()) == cli.EXIT_OK, command
    return out.getvalue()


GOLDEN = {
    "golden_counters.json": render_counters,
    "golden_traces.txt": render_traces,
    "golden_bench.txt": render_bench,
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_unchanged(name):
    assert_golden(HERE / name, GOLDEN[name]())


def test_regenerator_prints_a_golden_file_and_rejects_an_unknown_name():
    # the command the module docstring gives for regenerating a file, run
    # from the repository root
    done = run_python("tests/test_golden.py", "golden_traces.txt")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.encode() == (HERE / "golden_traces.txt").read_bytes()
    done = run_python("tests/test_golden.py", "golden_nothing.txt")
    usage = f"usage: python tests/test_golden.py {{{','.join(GOLDEN)}}}\n"
    assert (done.returncode, done.stdout, done.stderr) == (1, "", usage)


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in GOLDEN:
        sys.exit(f"usage: python tests/test_golden.py {{{','.join(GOLDEN)}}}")
    sys.stdout.write(GOLDEN[sys.argv[1]]())
