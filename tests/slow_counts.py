"""Slow tier: both counting routes at n = 9 against pinned counts, and
at n = 7 under the symmetries of the square.

pytest does not collect this file, since its name does not match
``test_*.py``.  Run it from the repository root:

    PYTHONPATH=src python tests/slow_counts.py

Each row of PINNED runs ``count_avoiders(9, basis, cap=9)``, the
brute-force route and the tape route over every codeword, which raises
when the two disagree, and compares the count with its pinned value.  A
row takes 16-37 s on a 2-core VM with CPython 3.11.7.  Then, for each of
the seeded bases that tier-1's symmetry test checks to n = 6, the n = 7
row of every image of the basis under the eight symmetries of the square
must equal the basis's own: about 13 s for the four.  The script exits 1
on any mismatch.
"""

import sys
import time

from conftest import square_symmetries, symmetry_bases

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
    for patterns in symmetry_bases():
        basis = Basis(patterns)
        images = {Basis(image) for image in square_symmetries(patterns)} - {basis}
        start = time.perf_counter()
        try:
            want = count_avoiders(SYMMETRY_N, basis)
            odd = [image for image in images if count_avoiders(SYMMETRY_N, image) != want]
            got = f"{want.brute} on both routes, {len(images)} other images"
        except CountMismatchError as err:
            odd = [err.row]
            got = f"brute {err.row.brute}, codeword {err.row.codeword}"
        seconds = time.perf_counter() - start
        verdict = f"MISMATCH on {odd}" if odd else "ok"
        print(f"{basis} at n={SYMMETRY_N}: {got}: {verdict} ({seconds:.1f} s)", flush=True)
        failed += bool(odd)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
