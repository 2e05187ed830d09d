"""Golden machine traces: the full text trace of a few fixed machine runs.

``golden_traces.txt`` freezes, line for line, what the tape procedures and
the two stack acceptors emit through their ``trace`` callback on a small
fixed input set, each run under a ``# <procedure> <arguments>`` header.  A change that claims the same
machine behaviour must leave the file untouched; a change that alters the
traces on purpose regenerates it and states the delta:

    PYTHONPATH=src python tests/test_golden_traces.py > tests/golden_traces.txt
"""

import sys
from pathlib import Path

from conftest import assert_golden

from permlang import stackmachine, tape
from permlang.permutations import Basis

GOLDEN = Path(__file__).with_name("golden_traces.txt")

RUNS = (
    ("check_legal mrtltff", lambda trace: tape.check_legal("mrtltff", trace)),
    # the empty word: legality's one read
    ('check_legal ""', lambda trace: tape.check_legal("", trace)),
    ("compare mrtltff 0 6", lambda trace: tape.compare("mrtltff", 0, 6, trace)),
    (
        "accepts_basis 132,21 mrtltff",
        lambda trace: tape.accepts_basis("mrtltff", Basis([[1, 3, 2], [2, 1]]), trace),
    ),
    (
        "accepts_basis 123 mmtlff",
        lambda trace: tape.accepts_basis("mmtlff", Basis([[1, 2, 3]]), trace),
    ),
    # 21 is avoided, so the search reaches its second pattern, 123
    (
        "accepts_basis 21,123 llf",
        lambda trace: tape.accepts_basis("llf", Basis([[2, 1], [1, 2, 3]]), trace),
    ),
    # legality rejects, so no occurrence search runs
    ("accepts_basis 12 tf", lambda trace: tape.accepts_basis("tf", Basis([[1, 2]]), trace)),
    # a read, then the one-cell restore
    ("is_prime 1", lambda trace: tape.is_prime(1, trace)),
    ("is_prime 12", lambda trace: tape.is_prime(12, trace)),
)
# encode(9 1 10 3 8 12 2 7 6 11 5 4): three t-runs walk to the root exactly
STACK_WORDS = ("mrtltff", "tf", "mttf", "mtmtmtttrtttrtttmtttfttlfftff")
RUNS += tuple(
    (
        f"accepts_codewords {word}",
        lambda trace, word=word: stackmachine.accepts_codewords(word, trace),
    )
    for word in STACK_WORDS
)
# two accepted, one rejected at its first letter, one at a short block
PARTITION_WORDS = ("abb", "ba", "aab", "aabbb")
RUNS += tuple(
    (
        f"accepts_partition_language {word}",
        lambda trace, word=word: stackmachine.accepts_partition_language(word, trace),
    )
    for word in PARTITION_WORDS
)


def render() -> str:
    lines = []
    for header, run in RUNS:
        lines.append(f"# {header}")
        run(lines.append)
    return "".join(line + "\n" for line in lines)


def test_golden_traces_unchanged():
    assert_golden(GOLDEN, render())


if __name__ == "__main__":
    sys.stdout.write(render())
