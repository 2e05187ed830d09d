"""Slow tier: tier-1's exhaustive agreement checks at the next sizes.

pytest does not collect this file, since its name does not match
``test_*.py``.  Run it from the repository root:

    PYTHONPATH=src python tests/slow_tier.py

Each row of ROWS calls one sweep of ``tests/conftest.py`` at one size,
a size above the largest tier-1 runs it at (tier-1's
``test_slow_tier.py`` checks that), and returns (how many it checked,
failures).  The Av rows count both routes of ``count_avoiders`` at n = 9
for the six rows of ``conftest.PINNED_COUNTS`` marked for this tier; the
census row counts the 56 classes of pairs of length-4 patterns to n = 8
by their representatives, which must fall into Le's 38 groups (Wilf
classes of pairs of permutations of length 4, 2005); the reverse rows run
``reverse_sweep`` at n = 7 and 8.  The script prints one line per row
with its count and seconds, and exits 1 if any row fails, naming its
first failures.  The 17 rows took 7 min 32 s in all on a 2-core machine
with CPython 3.11.7: the census row 2 min 2 s, legality at length 10
83 s, the reverse relation at n = 8 62 s, avoidance at n = 8 50 s, and
the Av rows 12-19 s each.
CI runs the script in its ``slow-tier`` job.
"""

import sys
import time

from conftest import (PINNED_COUNTS, SHORT_PATTERNS, avoidance_sweep, census_sweep,
                      compare_sweep, legality_sweep, pair_classes, pinned_sweep,
                      reverse_sweep, round_trip_sweep, symmetry_sweep)

from permlang.counting import CountMismatchError

SHOWN = 5  # failures printed per row

# (what the row checks, with {} for its size; check; size; further arguments)
ROWS = [
    *((f"Av({text}) avoiders on both counting routes at n={{}}: {source}",
       pinned_sweep, 9, [(text, count, source, slow)])
      for text, count, source, slow in PINNED_COUNTS if slow),
    ("classes of pairs of length-4 patterns whose representatives' counts to n={} "
     "fall into 38 groups (Le 2005)",
     census_sweep, 8, [members[:1] for members in pair_classes()], 38),
    ("images under the symmetries of the square with their bases' counts at n=0..{}",
     symmetry_sweep, 7),
    *(("words of length {} on which validate, check_legal and the stack agree",
       legality_sweep, length) for length in (9, 10)),
    ("codewords with n={} that encode gives back from their decode", round_trip_sweep, 9),
    *(("codeword/pattern pairs with n={} on which accepts_basis matches the oracle",
       avoidance_sweep, n, SHORT_PATTERNS) for n in (7, 8)),
    *(("compares of codewords with n={} that order their values as the decode does",
       compare_sweep, n) for n in (7, 8)),
    *(("codeword/pattern pairs with n={} that accepts_basis judges as their reverses",
       reverse_sweep, n, SHORT_PATTERNS) for n in (7, 8)),
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
