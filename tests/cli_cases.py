"""The CLI's bytes: each row of CASES is a ``permlang`` argv with the
exact exit status, stdout and stderr it gives.

argv is one string that ``shlex.split`` reads as a shell would.  Tier-1
runs every row through ``cli.main`` (``test_cli.py``), also with
``COLUMNS`` set.  Run as a script, this file runs every row on the
``permlang`` command on PATH, prints one line per row, naming each row
that differs, and exits 1 if any does.  It imports no part of the
package, so from outside the checkout only the installed command can
answer:

    cd /tmp && python3 <checkout>/tests/cli_cases.py

No argv, and every first word that is neither a command nor ``-h`` or
``--help``, are rows: ``cli.main`` refuses them in the package's own
words under a fixed usage line.  Only the top-level ``-h`` and ``--help``
keep argparse's top-level text, which Python versions may word
differently, so no row holds it.
"""

import shlex
import subprocess
import sys

# (argv, exit status, stdout, stderr)
CASES = [
    ("decode mrlff", 0, "3 4 2 1 5\n", ""),
    ("decode tf", 2, "", "error: illegal codeword 'tf': t-overflow\n"),
    ("decode mrxff", 2, "", "error: letter 'x' at position 2 is not one of 'lrmft'\n"),
    ("encode 5 2 1 3 4", 0, "mrtltff\n", ""),
    ("encode '3 4 2 1 5'", 0, "mrlff\n", ""),
    ("encode 3 x", 2, "", "error: bad permutation token: 'x'\n"),
    ("encode 5 9", 2, "", "error: entries '5 9' are not a permutation of 1..2\n"),
    # tokens that int() would reinterpret
    ("encode 01 2", 2, "", "error: bad permutation token: '01'\n"),
    ("encode \u0661 \u0662", 2, "", "error: bad permutation token: '\u0661'\n"),
    ("encode 1 \u00b2", 2, "", "error: bad permutation token: '\u00b2'\n"),
    ("validate tf", 1, "false t-overflow\n", ""),
    ("validate mrtltff", 0, "true\n", ""),
    # the three machines agree
    ("validate mrtltff --machine direct", 0, "true\n", ""),
    ("validate mrtltff --machine lba", 0, "true\n", ""),
    ("validate mrtltff --machine stack", 0, "true\n", ""),
    ("validate mmff --machine direct", 1, "false unfilled-slots\n", ""),
    ("validate mmff --machine lba", 1, "false unfilled-slots\n", ""),
    ("validate mmff --machine stack", 1, "false unfilled-slots\n", ""),
    # a t-run that passes the cursor by two or more: the stack trace stops
    # at the first t that fails, with no line for the rest of the run
    ("validate --machine stack --trace ttf", 1, "false t-overflow\n",
     "0\tt\tstate=fail\tcursor=0\theight=0\n"),
    ("validate --machine stack --trace mtttff", 1, "false t-overflow\n",
     "0\tm\tstate=start\tcursor=1\theight=1\n"
     "1\tt\tstate=start\tcursor=0\theight=1\n"
     "2\tt\tstate=fail\tcursor=0\theight=1\n"),
    ("validate mf --trace", 2, "", "error: --trace is only for --machine lba or stack\n"),
    ("validate mf --trace --machine direct", 2, "",
     "error: --trace is only for --machine lba or stack\n"),
    # refused before the word is read
    ("validate mxf --trace", 2, "", "error: --trace is only for --machine lba or stack\n"),
    ("check --pattern 12 mrlff", 1, "contain\n", ""),
    ("check --pattern 123 rrf", 0, "avoid\n", ""),
    ("check --basis 123,321 --perm '2 4 1 3'", 0, "avoid\n", ""),
    ("check --pattern 12 --perm '1 2' --oracle", 1, "contain\n", ""),
    ("check --pattern 12 tf", 2, "", "error: illegal codeword 'tf': t-overflow\n"),
    ("check mrlff", 2, "", "error: check needs --pattern and/or --basis\n"),
    ("check --pattern '' --perm 1", 2, "", "error: empty pattern\n"),
    ("check --pattern ' ' --perm 1", 2, "", "error: empty pattern\n"),
    ("check --basis '' --perm 1", 2, "", "error: empty pattern\n"),
    ("check --basis ' ' --perm 1", 2, "", "error: empty pattern\n"),
    # entries must be 1..k, in ASCII decimal
    ("check --pattern 102 mrlff", 2, "", "error: bad permutation token: '0'\n"),
    ("check --pattern 35 mrlff", 2, "", "error: entries '3 5' are not a permutation of 1..2\n"),
    ("check --perm '5 9' --pattern 12", 2, "",
     "error: entries '5 9' are not a permutation of 1..2\n"),
    ("check --perm '2 01' --pattern 12", 2, "", "error: bad permutation token: '01'\n"),
    ("check --perm '\u0662 \u0661' --pattern 12", 2, "",
     "error: bad permutation token: '\u0662'\n"),
    # exactly one input
    ("check --pattern 12", 2, "", "error: check needs exactly one of a codeword or --perm\n"),
    ("check --pattern 12 rf --perm '2 1'", 2, "",
     "error: check needs exactly one of a codeword or --perm\n"),
    ("enumerate --basis 123 --n-max 6", 0,
     "n,brute,codeword\n0,1,1\n1,1,1\n2,2,2\n3,5,5\n4,14,14\n5,42,42\n6,132,132\n", ""),
    ("enumerate --basis 21 --n-max 2 --json", 0,
     '{"rows": [{"n": 0, "brute": 1, "codeword": 1}, {"n": 1, "brute": 1, "codeword": 1}, '
     '{"n": 2, "brute": 1, "codeword": 1}]}\n', ""),
    ("enumerate --basis 123,3142 --n-max 5", 0,
     "n,brute,codeword\n0,1,1\n1,1,1\n2,2,2\n3,5,5\n4,13,13\n5,34,34\n", ""),
    ("enumerate --basis 123 --n-max 6 --json", 0,
     '{"rows": [{"n": 0, "brute": 1, "codeword": 1}, {"n": 1, "brute": 1, "codeword": 1}, '
     '{"n": 2, "brute": 2, "codeword": 2}, {"n": 3, "brute": 5, "codeword": 5}, '
     '{"n": 4, "brute": 14, "codeword": 14}, {"n": 5, "brute": 42, "codeword": 42}, '
     '{"n": 6, "brute": 132, "codeword": 132}]}\n', ""),
    # a word avoiding 132 goes on to the search for 4321, which a
    # one-pattern basis never reaches
    ("enumerate --basis 132,4321 --n-max 6", 0,
     "n,brute,codeword\n0,1,1\n1,1,1\n2,2,2\n3,5,5\n4,13,13\n5,31,31\n6,66,66\n", ""),
    ("enumerate --basis 12 --n-max -1", 2, "",
     "usage: permlang enumerate [-h] --basis BASIS --n-max N_MAX [--cap CAP]\n"
     "                          [--json]\n"
     "permlang enumerate: error: argument --n-max: expected a nonnegative decimal integer "
     "like 12, got '-1'\n"),
    ("enumerate --basis 12 --n-max 9", 2, "", "error: n_max=9 exceeds the cap 8 (see --cap)\n"),
    # zero only where the option allows it
    ("enumerate --basis 12 --n-max 0", 0, "n,brute,codeword\n0,1,1\n", ""),
    ("enumerate --basis 12 --n-max 0 --cap 0", 0, "n,brute,codeword\n0,1,1\n", ""),
    ("bivariate --n 0", 2, "",
     "usage: permlang bivariate [-h] --n N [--cap CAP]\n"
     "permlang bivariate: error: argument --n: expected a positive decimal integer like 12, "
     "got '0'\n"),
    ("simulate --machine primes --n 0", 2, "",
     "usage: permlang simulate [-h] --machine {primes,partitions} [--n N]\n"
     "                         [--word WORD] [--cap CAP] [--trace]\n"
     "permlang simulate: error: argument --n: expected a positive decimal integer like 12, "
     "got '0'\n"),
    ("bivariate --n 4", 0, "t_count,words\n0,14\n1,8\n2,2\n", ""),
    ("simulate --machine primes --n 7", 0, "accept\n", ""),
    ("simulate --machine primes --n 9", 1, "reject\n", ""),
    ("simulate --machine partitions --word abb", 0, "accept\n", ""),
    ("simulate --machine partitions --word aab", 1, "reject\n", ""),
    # a block that starts while the cursor is above the root fails on its
    # first letter; a word that ends there is rejected with no fail line
    ("simulate --machine partitions --trace --word aaba", 1, "reject\n",
     "0\ta\tstate=start\tcursor=1\theight=1\n"
     "1\ta\tstate=start\tcursor=2\theight=2\n"
     "2\tb\tstate=start\tcursor=1\theight=2\n"
     "3\ta\tstate=fail\tcursor=1\theight=2\n"),
    ("simulate --machine partitions --trace --word aab", 1, "reject\n",
     "0\ta\tstate=start\tcursor=1\theight=1\n"
     "1\ta\tstate=start\tcursor=2\theight=2\n"
     "2\tb\tstate=start\tcursor=1\theight=2\n"),
    ("simulate --machine partitions --word bx", 2, "",
     "error: letter 'x' at position 1 is not one of 'ab'\n"),
    # the block rule rejects aab before the x: the letters are checked first
    ("simulate --machine partitions --word aabx", 2, "",
     "error: letter 'x' at position 3 is not one of 'ab'\n"),
    ("simulate --machine primes", 2, "", "error: --machine primes needs --n\n"),
    ("simulate --machine partitions", 2, "", "error: --machine partitions needs --word\n"),
    ("simulate --machine primes --n 7 --word zz", 2, "",
     "error: --word is only for --machine partitions\n"),
    ("simulate --machine partitions --word ab --n 5", 2, "",
     "error: --n is only for --machine primes\n"),
    # refused before the other machine's missing option is reported
    ("simulate --machine primes --word ab", 2, "",
     "error: --word is only for --machine partitions\n"),
    ("simulate --machine partitions --n 5", 2, "", "error: --n is only for --machine primes\n"),
    ("simulate --machine partitions --word abb --cap 1", 2, "",
     "error: --cap is only for --machine primes\n"),
    ("simulate --machine partitions --cap 5000", 2, "",
     "error: --cap is only for --machine primes\n"),
    # one past the default cap; 5001 = 3 * 1667, so even uncapped it is quick
    ("simulate --machine primes --n 5001", 2, "",
     "error: --n=5001 exceeds the cap 5000 (see --cap)\n"),
    ("simulate --machine primes --n 7 --cap 6", 2, "",
     "error: --n=7 exceeds the cap 6 (see --cap)\n"),
    ("simulate --machine primes --n 7 --cap 7", 0, "accept\n", ""),
    ("bench --suite legality --sizes 10..12", 0,
     "size,steps,max_cells\n10,249,10\n11,284,11\n12,319,12\n", ""),
    ("bench --suite legality --sizes abc", 2, "",
     "error: bad --sizes value 'abc', expected a..b\n"),
    # bounds are ASCII decimal with no leading zero, as in permutation text
    ("bench --suite legality --sizes \u0661\u0660..\u0661\u0661", 2, "",
     "error: bad --sizes value '\u0661\u0660..\u0661\u0661', expected a..b\n"),
    ("bench --suite legality --sizes 010..11", 2, "",
     "error: bad --sizes value '010..11', expected a..b\n"),
    ("bench --suite legality --sizes 0..3", 2, "",
     "error: bad --sizes value '0..3', expected a..b\n"),
    ("bench --suite legality --sizes 12..11", 2, "", "error: bad size range '12..11'\n"),
    # checked before the header and the first size
    ("bench --suite legality --sizes 100..101", 2, "",
     "error: size=101 exceeds the cap 100 (see --cap)\n"),
    ("bench --suite legality --sizes 10..12 --cap 11", 2, "",
     "error: size=12 exceeds the cap 11 (see --cap)\n"),
    ("bench --suite legality --sizes 10..12 --cap 12", 0,
     "size,steps,max_cells\n10,249,10\n11,284,11\n12,319,12\n", ""),
    ("bench --suite legality --sizes 3..4 --pattern 4231", 2, "",
     "error: --pattern is only for --suite avoid\n"),
    ("bench --suite compare --sizes 3..4 --pattern 21", 2, "",
     "error: --pattern is only for --suite avoid\n"),
    # refused before the sizes or the pattern are read
    ("bench --suite legality --sizes abc --pattern 1x", 2, "",
     "error: --pattern is only for --suite avoid\n"),
    # bench_word(1) is "f", with no second cell to compare: refused before
    # the header
    ("bench --suite compare --sizes 1..3", 2, "",
     "error: the compare suite needs sizes of at least 2, got '1..3'\n"),
    ("bench --suite compare --sizes 2..3", 0, "size,steps,max_cells\n2,4,2\n3,6,3\n", ""),
    # no command, or a first word that is neither a command nor -h or --help,
    # is refused by main, not by argparse
    ("", 2, "",
     "usage: permlang [-h] COMMAND ...\n"
     "permlang: error: no command (choose from decode, encode, validate, check, enumerate, "
     "bivariate, simulate, bench)\n"),
    *((argv, 2, "",
       "usage: permlang [-h] COMMAND ...\n"
       f"permlang: error: unknown command {argv.split()[0]!r} (choose from decode, encode, "
       "validate, check, enumerate, bivariate, simulate, bench)\n")
      for argv in ("frobnicate", "-", "-1", "--bogus", "--bogus frobnicate")),
    # the subcommand's own parser reports an unknown flag
    ("decode f --bogus", 2, "",
     "usage: permlang decode [-h] codeword\n"
     "permlang decode: error: unrecognized arguments: --bogus\n"),
    ("decode mrlff --bogus", 2, "",
     "usage: permlang decode [-h] codeword\n"
     "permlang decode: error: unrecognized arguments: --bogus\n"),
    ("check --pattern 12 mrlff --bogus", 2, "",
     "usage: permlang check [-h] [--perm PERM] [--pattern PATTERN] [--basis BASIS]\n"
     "                      [--oracle]\n"
     "                      [codeword]\n"
     "permlang check: error: unrecognized arguments: --bogus\n"),
]


def main() -> int:
    differ = 0
    for argv, *want in CASES:
        done = subprocess.run(["permlang", *shlex.split(argv)], stdin=subprocess.DEVNULL,
                              capture_output=True, text=True)
        got = [done.returncode, done.stdout, done.stderr]
        if got == want:
            print(f"same: permlang {argv}")
        else:
            differ += 1
            print(f"DIFFERS: permlang {argv}: want {want!r}, got {got!r}")
    print(f"{differ} of {len(CASES)} rows differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
