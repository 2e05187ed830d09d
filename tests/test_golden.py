"""Golden files: the exact bytes of fixed machine runs.

Each file named in ``GOLDEN`` holds what its render function returns:

- ``golden_counters.json``: ``[verdict, steps, max_cells_touched]`` of
  every tape procedure over a fixed input set, one section a procedure;
- ``golden_traces.txt``: the full text trace that the tape procedures and
  the two stack acceptors emit through their ``trace`` callback, each run
  under a ``# <procedure> <arguments>`` header: nine tape runs, four
  codeword-acceptor runs and four partition-acceptor runs.  One of them,
  ``accepts_basis 21,123 llf``, avoids its first pattern, so it shows a
  second pattern's search after the one legality pass and cell scan;
- ``golden_bench.txt``: the CSV that ``permlang bench`` prints for each of
  the five commands of ``BENCH_COMMANDS``, under a ``# <arguments>``
  header.  The golden counters stop at n <= 14; ``bench_word`` reaches
  size 100, where a 33-t run sits inside 33 nested m..f pairs;
- ``golden_stack.json``: ``[reason, verdict, pushes, pops, height,
  cursor]`` per word: the ``codec.validate`` reason (null for a legal
  word), then the verdict of the codeword acceptor ``_codewords_on``,
  run on a ``StackMachine`` that the test builds for the word, and that
  machine's push and pop counts, final stack height and final cursor
  depth, for every word of length <= 5 and 60 seeded long words;
- ``golden_partition.json``: ``[verdict, pushes, pops, height, cursor]``
  per word, the same for the partition acceptor ``_partitions_on``, for
  every word over a, b of length <= 10 and 60 seeded words of length
  11..60.

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
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import assert_golden, built_avoider, insertion_cells

from permlang import cli, codec, stackmachine, tape
from permlang.codec import ALPHABET, codewords_with_insertions, encode, validate
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
    for n in range(6):
        for letters in itertools.product(ALPHABET, repeat=n):
            word = "".join(letters)
            yield "check_legal", word, tape.check_legal, (word,)
    for size in range(10, 41):
        word = cli.bench_word(size)
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
        basis = Basis([int(d) for d in item] for item in text.split(","))
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
# encode(9 1 10 3 8 12 2 7 6 11 5 4): three t-runs walk to the root exactly
TRACE_RUNS += tuple(
    (f"accepts_codewords {word}", stackmachine.accepts_codewords, word)
    for word in ("mrtltff", "tf", "mttf", "mtmtmtttrtttrtttmtttfttlfftff")
)
# two accepted, one rejected at its first letter, one at a short block
TRACE_RUNS += tuple(
    (f"accepts_partition_language {word}", stackmachine.accepts_partition_language, word)
    for word in ("abb", "ba", "aab", "aabbb")
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


# --- stack machine counters ------------------------------------------------

def machine_runs(acceptor, words) -> dict[str, list]:
    """word -> [verdict, pushes, pops, height, cursor] of the acceptor run
    untraced on a fresh StackMachine, for each distinct word in order."""
    rows = {}
    for word in dict.fromkeys(words):
        m = stackmachine.StackMachine()
        verdict = acceptor(m, word, None)
        rows[word] = [verdict, m.pushes, m.pops, m.height, m.cursor_depth]
    return rows


def render_rows(rows: dict[str, list]) -> str:
    """One word per line, so a change shows up as a readable diff."""
    body = ",\n".join(
        f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}" for k, v in rows.items()
    )
    return "{\n" + body + "\n}\n"


def stack_long_words() -> list[str]:
    """encode(p) for seeded p with n = 20..60, each followed by a copy with
    one letter changed.  Of every five copies, one ends in l, r or m, one
    fills the slot of its last l or r (so the slots run out early), and
    three change a seeded position to a seeded other letter."""
    rng = random.Random(2)
    words = []
    for i in range(30):
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


def render_stack() -> str:
    """Every word of length <= 5, then the long words."""
    words = ["".join(w) for n in range(6) for w in itertools.product(ALPHABET, repeat=n)]
    rows = machine_runs(stackmachine._codewords_on, words + stack_long_words())
    return render_rows({word: [validate(word).reason, *row] for word, row in rows.items()})


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


def render_partition() -> str:
    """Every word over a, b of length <= 10, then the long words."""
    words = ["".join(w) for n in range(11) for w in itertools.product("ab", repeat=n)]
    return render_rows(
        machine_runs(stackmachine._partitions_on, words + partition_long_words())
    )


GOLDEN = {
    "golden_counters.json": render_counters,
    "golden_traces.txt": render_traces,
    "golden_bench.txt": render_bench,
    "golden_stack.json": render_stack,
    "golden_partition.json": render_partition,
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_unchanged(name):
    assert_golden(HERE / name, GOLDEN[name]())


def test_long_words_cover_every_reason():
    golden = json.loads((HERE / "golden_stack.json").read_text())
    reasons = {golden[word][0] for word in stack_long_words()}
    assert reasons == {
        None,
        codec.REASON_T_OVERFLOW,
        codec.REASON_EXHAUSTED,
        codec.REASON_TRAILING,
        codec.REASON_UNFILLED,
    }
    assert golden[""][0] == codec.REASON_EMPTY


def test_long_words_accept_and_reject():
    golden = json.loads((HERE / "golden_partition.json").read_text())
    assert {golden[word][0] for word in partition_long_words()} == {True, False}


def test_regenerator_prints_a_golden_file_and_rejects_an_unknown_name():
    # the command the module docstring gives for regenerating a file, run
    # from the repository root
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))

    def regenerate(name):
        return subprocess.run(
            [sys.executable, "tests/test_golden.py", name],
            capture_output=True, cwd=HERE.parent, env=env, timeout=60,
        )

    done = regenerate("golden_traces.txt")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (HERE / "golden_traces.txt").read_bytes()
    done = regenerate("golden_nothing.txt")
    usage = f"usage: python tests/test_golden.py {{{','.join(GOLDEN)}}}\n"
    assert (done.returncode, done.stdout, done.stderr.decode()) == (1, b"", usage)


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in GOLDEN:
        sys.exit(f"usage: python tests/test_golden.py {{{','.join(GOLDEN)}}}")
    sys.stdout.write(GOLDEN[sys.argv[1]]())
