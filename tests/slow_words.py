"""Slow tier: the three legality routes on every word of length 9, and
encode and decode on every codeword with n = 9.

pytest does not collect this file, since its name does not match
``test_*.py``.  Run it from the repository root:

    PYTHONPATH=src python tests/slow_words.py

Tier-1's acceptance 03 stops at length 8.  Here each of the 5^9 words
over lrmft of length 9 goes through ``validate``, ``tape.check_legal``
and the stack acceptor, with acceptance 03's checks: the three verdicts
agree, and the tape run touches exactly 9 cells.  Then each of the 9!
codewords with nine insertion letters must be legal, ``encode`` must give
it back from its decode, and the decodes must be distinct.  On a 2-core
VM with CPython 3.11.7 the words take about 25 s and the codewords about
6 s.  The script exits 1 on any mismatch, naming the first few words.
"""

import itertools
import math
import sys
import time

from permlang import stackmachine, tape
from permlang.codec import ALPHABET, codewords_with_insertions, decode, encode, validate

LENGTH = 9
N = 9
SHOWN = 5  # mismatching words printed per check


def legality_routes() -> tuple[int, list[str]]:
    checked, odd = 0, []
    for letters in itertools.product(ALPHABET, repeat=LENGTH):
        word = "".join(letters)
        direct = bool(validate(word))
        run = tape.check_legal(word)
        if (
            run.verdict != direct
            or run.max_cells_touched != LENGTH
            or stackmachine.accepts_codewords(word) != direct
        ):
            odd.append(word)
        checked += 1
    if checked != len(ALPHABET) ** LENGTH:
        odd.append(f"{checked} words checked")
    return checked, odd


def codeword_round_trips() -> tuple[int, list[str]]:
    checked, odd, seen = 0, [], set()
    for word in codewords_with_insertions(N):
        perm = decode(word)
        if not validate(word) or encode(perm) != word:
            odd.append(word)
        seen.add(bytes(perm.ranks))
        checked += 1
    if checked != math.factorial(N) or len(seen) != checked:
        odd.append(f"{checked} codewords, {len(seen)} distinct decodes")
    return checked, odd


def main() -> int:
    failed = 0
    for what, check in (
        (f"validate, check_legal and the stack on the words of length {LENGTH}",
         legality_routes),
        (f"decode and encode on the codewords with n={N}", codeword_round_trips),
    ):
        start = time.perf_counter()
        checked, odd = check()
        seconds = time.perf_counter() - start
        verdict = f"MISMATCH on {odd[:SHOWN]}" if odd else "ok"
        print(f"{what}: {checked} checked: {verdict} ({seconds:.1f} s)", flush=True)
        failed += bool(odd)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
