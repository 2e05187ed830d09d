"""Slow tier: tier-1's exhaustive agreement checks at the next sizes.

pytest does not collect this file, since its name does not match
``test_*.py``.  Run it from the repository root:

    PYTHONPATH=src python tests/slow_tier.py

Each row of ROWS calls one check at one size and returns (how many it
checked, failures).  The Av rows count both routes of ``count_avoiders``
at n = 9 against pinned counts; every other row is a sweep of
``tests/conftest.py`` that tier-1 runs at smaller sizes (tier-1's
``test_slow_tier.py`` checks that each row here is larger).  The script
prints one line per row with its count and seconds, and exits 1 if any
row fails, naming its first failures.  The rows took 6 min 8 s in all
on a 2-core VM with CPython 3.11.7 before the reverse row, which takes
7.7 s more there; CI runs the script in its ``slow-tier`` job.
"""

import sys
import time

from conftest import (SHORT_PATTERNS, avoidance_sweep, compare_sweep, legality_sweep,
                      reverse_sweep, round_trip_sweep, symmetry_sweep)

from permlang.counting import CountMismatchError, count_avoiders
from permlang.permutations import Basis

SHOWN = 5  # failures printed per row


def pinned_count(n, text, want):
    """Both counting routes on the basis written as text at n: (avoiders
    counted, failures); the routes must agree and count want."""
    row = count_avoiders(n, Basis([int(d) for d in item] for item in text.split(",")), cap=n)
    return row.brute, [] if row.brute == want else [f"want {want}"]


# (what the row checks, with {} for its size; check; size; further arguments)
ROWS = [
    *((f"Av({text}) on both counting routes at n={{}}, {source}", pinned_count, 9, text, want)
      for text, want, source in [
          ("231", 4_862, "the Catalan number C(9) (Simion and Schmidt 1985)"),
          ("312,321", 256, "2^(n-1) (Simion and Schmidt 1985)"),
          ("123,3412", 885, "2^(n+1) - C(n+1, 3) - 2n - 1"),
          ("1234", 94_359, "Gessel (1990)"),
          ("1342", 91_245, "Bona (1997)"),
          ("2431", 91_245, "the reverse of 1342"),
      ]),
    ("images under the symmetries of the square with their bases' counts at n=0..{}",
     symmetry_sweep, 7),
    *(("words of length {} on which validate, check_legal and the stack agree",
       legality_sweep, length) for length in (9, 10)),
    ("codewords with n={} that encode gives back from their decode", round_trip_sweep, 9),
    *(("codeword/pattern pairs with n={} on which accepts_basis matches the oracle",
       avoidance_sweep, n, SHORT_PATTERNS) for n in (7, 8)),
    *(("compares of codewords with n={} that order their values as the decode does",
       compare_sweep, n) for n in (7, 8)),
    ("codeword/pattern pairs with n={} that accepts_basis judges as their reverses",
     reverse_sweep, 7, SHORT_PATTERNS),
]


def main() -> int:
    failed = 0
    for what, check, size, *args in ROWS:
        start = time.perf_counter()
        try:
            checked, odd = check(size, *args)
        except CountMismatchError as err:
            checked, odd = 0, [str(err)]
        seconds = time.perf_counter() - start
        verdict = f"MISMATCH on {odd[:SHOWN]}" if odd else "ok"
        print(f"{what.format(size)}: {checked:,}: {verdict} ({seconds:.1f} s)", flush=True)
        failed += bool(odd)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
