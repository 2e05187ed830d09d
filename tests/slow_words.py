"""Slow tier: the three legality routes on every word of length 9, and
encode and decode on every codeword with n = 9.

pytest does not collect this file, since its name does not match
``test_*.py``.  Run it from the repository root:

    PYTHONPATH=src python tests/slow_words.py

Tier-1's acceptance 03 and 02 run the same two sweeps of
``tests/conftest.py`` up to length 8 and n = 7.  Here each of the 5^9
words over lrmft of length 9 goes through ``validate``,
``tape.check_legal`` and the stack acceptor: the three verdicts agree,
and the tape run touches exactly 9 cells.  Then each of the 9! codewords
with nine insertion letters must be legal, ``encode`` must give it back
from its decode, and the decodes must be distinct and be every
permutation of 1..9.  On a 2-core VM with CPython 3.11.7 the words take
about 25 s and the codewords about 6 s.  The script exits 1 on any
mismatch, naming the first few words.
"""

import sys
import time

from conftest import legality_sweep, round_trip_sweep

LENGTH = 9
N = 9
SHOWN = 5  # mismatching words printed per check


def main() -> int:
    failed = 0
    for what, sweep, size in (
        (f"validate, check_legal and the stack on the words of length {LENGTH}",
         legality_sweep, LENGTH),
        (f"decode and encode on the codewords with n={N}", round_trip_sweep, N),
    ):
        start = time.perf_counter()
        checked, odd = sweep(size)
        seconds = time.perf_counter() - start
        verdict = f"MISMATCH on {odd[:SHOWN]}" if odd else "ok"
        print(f"{what}: {checked} checked: {verdict} ({seconds:.1f} s)", flush=True)
        failed += bool(odd)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
