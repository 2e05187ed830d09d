"""Slow tier: both counting routes at n = 9 against pinned counts, and
at n = 0..7 under the symmetries of the square.

pytest does not collect this file, since its name does not match
``test_*.py``.  Run it from the repository root:

    PYTHONPATH=src python tests/slow_counts.py

Each row of PINNED runs ``count_avoiders(9, basis, cap=9)``, the
brute-force route and the tape route over every codeword, which raises
when the two disagree, and compares the count with its pinned value.  A
row takes 16-38 s on a 2-core VM with CPython 3.11.7.  Then
``conftest.symmetry_sweep``, which tier-1 runs to n = 6, checks that
every image of its four seeded bases under the eight symmetries of the
square has its basis's counts at n = 0..7: about 9-10 s.  The script
exits 1 on any mismatch.
"""

import sys
import time

from conftest import symmetry_sweep

from permlang.counting import CountMismatchError, count_avoiders
from permlang.permutations import Basis

N = 9
SYMMETRY_N = 7

# (basis, count at n = 9, where the count comes from)
PINNED = [
    ("231", 4_862, "the Catalan number C(9) (Simion and Schmidt 1985)"),
    ("312,321", 256, "2^(n-1) (Simion and Schmidt 1985)"),
    ("123,3412", 885, "2^(n+1) - C(n+1, 3) - 2n - 1"),
    ("1234", 94_359, "Gessel (1990)"),
    ("1342", 91_245, "Bona (1997)"),
    ("2431", 91_245, "the reverse of 1342"),
]


def main() -> int:
    failed = 0
    for text, want, source in PINNED:
        basis = Basis([int(d) for d in item] for item in text.split(","))
        start = time.perf_counter()
        try:
            row = count_avoiders(N, basis, cap=N)
            ok = row.brute == want
            got = f"{row.brute} on both routes"
        except CountMismatchError as err:
            ok = False
            got = f"brute {err.row.brute}, codeword {err.row.codeword}"
        seconds = time.perf_counter() - start
        verdict = "ok" if ok else "MISMATCH"
        line = f"Av({text}) at n={N}: {got}; want {want}, {source}: {verdict}"
        print(f"{line} ({seconds:.1f} s)", flush=True)
        failed += not ok
    start = time.perf_counter()
    try:
        checked, odd = symmetry_sweep(SYMMETRY_N)
        got = f"{checked} images checked on both routes"
    except CountMismatchError as err:
        odd = [err.row]
        got = f"brute {err.row.brute}, codeword {err.row.codeword}"
    seconds = time.perf_counter() - start
    verdict = f"MISMATCH on {odd}" if odd else "ok"
    line = f"symmetries of the square at n=0..{SYMMETRY_N}: {got}: {verdict}"
    print(f"{line} ({seconds:.1f} s)", flush=True)
    failed += bool(odd)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
