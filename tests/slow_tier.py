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
``reverse_sweep`` at n = 7 and 8.

Each row records how long it took, and ROWS is the one place those times
are kept.  The rows run on every usable core: a pool of one worker process
per core, never more than there are rows, is handed the rows largest
recorded time first, and each worker takes the next row when it finishes
one (Graham's LPT rule, *Bounds on multiprocessing timing anomalies*,
SIAM J. Appl. Math. 1969).  On one core that is one row after another.
The script prints one line per row as it finishes, with its count and
seconds, then a last line with the row and worker counts, the verdict and
the wall time, and exits 1 if any row fails, naming its first failures.
CI runs the script in its ``slow-tier`` job.
"""

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from conftest import (PINNED_COUNTS, SHORT_PATTERNS, avoidance_sweep, census_sweep,
                      compare_sweep, legality_sweep, pair_classes, pinned_sweep,
                      reverse_sweep, round_trip_sweep, symmetry_sweep)

from permlang.counting import CountMismatchError

SHOWN = 5  # failures printed per row

# (seconds the row took on a 2-core VM under CPython 3.11.7, run alone;
# what the row checks, with {} for its size; check; size; further arguments).
# A row that is added or resized records its new time here.
ROWS = [
    *((seconds, f"Av({text}) avoiders on both counting routes at n={{}}: {source}",
       pinned_sweep, 9, [(text, count, source, slow)])
      for seconds, (text, count, source, slow) in zip(
          (11.1, 10.3, 11.5, 16.5, 17.3, 17.5),
          [row for row in PINNED_COUNTS if row[-1]], strict=True)),
    (141.2, "classes of pairs of length-4 patterns whose representatives' counts to n={} "
     "fall into 38 groups (Le 2005)",
     census_sweep, 8, [members[:1] for members in pair_classes()], 38),
    (5.3, "images under the symmetries of the square with their bases' counts at n=0..{}",
     symmetry_sweep, 7),
    *((seconds, "words of length {} on which validate, check_legal and the stack agree",
       legality_sweep, length) for length, seconds in ((9, 17.4), (10, 78.9))),
    (4.4, "codewords with n={} that encode gives back from their decode", round_trip_sweep, 9),
    *((seconds, "codeword/pattern pairs with n={} on which accepts_basis matches the oracle",
       avoidance_sweep, n, SHORT_PATTERNS) for n, seconds in ((7, 5.1), (8, 44.9))),
    *((seconds, "compares of codewords with n={} that order their values as the decode does",
       compare_sweep, n) for n, seconds in ((7, 0.6), (8, 6.5), (9, 95.5))),
    *((seconds, "codeword/pattern pairs with n={} that accepts_basis judges as their reverses",
       reverse_sweep, n, SHORT_PATTERNS) for n, seconds in ((7, 7.1), (8, 67.7))),
]


def run_row(index: int) -> bool:
    """Run ROWS[index], print its line, and return whether it failed.

    A worker is handed the row's index, not the row: the Av rows' counts
    are lambdas, which do not pickle."""
    _, what, check, size, *args = ROWS[index]
    start = time.perf_counter()
    try:
        checked, odd = check(size, *args)
    except CountMismatchError as err:
        checked, odd = 0, [str(err)]
    seconds = time.perf_counter() - start
    verdict = f"MISMATCH on {odd[:SHOWN]}" if odd else "ok"
    print(f"{what.format(size)}: {checked:,}: {verdict} ({seconds:.1f} s)", flush=True)
    return bool(odd)


def main() -> int:
    start = time.perf_counter()
    # the cores this process may run on, where the platform says
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(cores, len(ROWS))
    largest_first = sorted(range(len(ROWS)), key=lambda index: ROWS[index][0], reverse=True)
    with ProcessPoolExecutor(workers) as pool:
        failed = sum(pool.map(run_row, largest_first))
    verdict = f"{failed} failed" if failed else "ok"
    print(f"{len(ROWS)} rows on {workers} workers: {verdict} "
          f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
