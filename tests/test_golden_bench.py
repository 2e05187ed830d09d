"""Golden bench output: the bytes of fixed ``permlang bench`` runs.

``golden_bench.txt`` freezes the CSV that ``permlang bench`` prints for
each command of ``COMMANDS``, under a ``# <arguments>`` header.  The
golden counters stop at n <= 14; ``bench_word`` reaches size 100, where a
33-t run sits inside 33 nested m..f pairs.  A change that claims the same
machine behaviour must leave the file untouched; a change that alters the
counters on purpose regenerates it and states the delta:

    PYTHONPATH=src python tests/test_golden_bench.py > tests/golden_bench.txt
"""

import contextlib
import io
import sys
from pathlib import Path

from conftest import assert_golden

from permlang import cli

GOLDEN = Path(__file__).with_name("golden_bench.txt")

COMMANDS = (
    "bench --suite legality --sizes 1..100",
    "bench --suite compare --sizes 2..100",
    "bench --suite avoid --pattern 21 --sizes 1..100",
    "bench --suite avoid --pattern 123 --sizes 1..60",
    "bench --suite avoid --pattern 4231 --sizes 1..30",
)


def render() -> str:
    out = io.StringIO()
    for command in COMMANDS:
        out.write(f"# {command}\n")
        with contextlib.redirect_stdout(out):
            assert cli.main(command.split()) == cli.EXIT_OK, command
    return out.getvalue()


def test_golden_bench_unchanged():
    assert_golden(GOLDEN, render())


if __name__ == "__main__":
    sys.stdout.write(render())
