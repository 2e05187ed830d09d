"""Command-line front end: codec, machines, enumeration, benchmarking.

Results go to standard output, diagnostics and traces to standard error.
Exit status 0 means success/accept, 1 means reject/false, 2 means a usage
or input error.  Output is deterministic: identical argv yields identical
bytes, and help and usage text wrap at 78 columns whatever the terminal.
Every row of the project's CLI table (``tests/cli_cases.py``) gives the
same bytes on every supported Python: each command's results and errors,
and ``main``'s refusal, under a fixed usage line, of an empty argv and of
every first word that is neither a command nor ``-h`` or ``--help``.  Only
the top-level ``-h`` and ``--help`` keep argparse's top-level text; that
text, and argparse's errors within a command (an option value outside its
choices), Python versions may word differently.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import math
import sys
from collections.abc import Callable, Sequence

from . import codec, counting, stackmachine, tape
from .permutations import (
    Basis,
    CapExceededError,
    Permutation,
    avoids_basis,
    check_size,
    is_positive_decimal,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2

# Largest --n for the primes machine, which bounds the step count and the
# Θ(n²) lines of a --trace on a prime n (the untraced sieve is a closed
# form), and largest bench size (legality and compare cost Θ(size²) steps
# per word).
DEFAULT_PRIMES_CAP = 5000
DEFAULT_BENCH_CAP = 100
DEFAULT_AVOID_PATTERN = "21"


def _parse_pattern(text: str) -> Permutation:
    """One pattern: a digit string like 3142, or quoted whitespace-separated
    ranks for patterns longer than nine."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty pattern")
    if len(tokens) == 1:
        text = " ".join(tokens[0])  # digit form: one entry per character
    return Permutation.from_text(text)


def _parse_basis(text: str) -> Basis:
    return Basis(_parse_pattern(item) for item in text.split(","))


def _decimal(zero_ok: bool) -> Callable[[str], int]:
    """Argparse type for an integer option: ASCII decimal with no sign,
    underscore, space or leading zero, the rule permutation text follows;
    "0" passes only when zero_ok."""
    kind = "nonnegative" if zero_ok else "positive"

    def parse(text: str) -> int:
        if not (is_positive_decimal(text) or (zero_ok and text == "0")):
            raise argparse.ArgumentTypeError(
                f"expected a {kind} decimal integer like 12, got {text!r}"
            )
        return int(text)

    return parse


_COUNT = _decimal(zero_ok=True)
_POSITIVE = _decimal(zero_ok=False)


def _stderr_trace(line: str) -> None:
    print(line, file=sys.stderr)


def _cmd_decode(args: argparse.Namespace) -> int:
    print(codec.decode(args.codeword).to_text())
    return EXIT_OK


def _cmd_encode(args: argparse.Namespace) -> int:
    perm = Permutation.from_text(" ".join(args.rank))
    print(codec.encode(perm))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.trace and args.machine == "direct":
        raise ValueError("--trace is only for --machine lba or stack")
    trace = _stderr_trace if args.trace else None
    verdict = None
    if args.machine == "lba":
        ok = tape.check_legal(args.codeword, trace=trace).verdict
    elif args.machine == "stack":
        ok = stackmachine.accepts_codewords(args.codeword, trace=trace)
    else:
        verdict = codec.validate(args.codeword)
        ok = bool(verdict)
    if ok:
        print("true")
        return EXIT_OK
    # the three validators agree, so the direct scan names the reason
    if verdict is None:
        verdict = codec.validate(args.codeword)
    print(f"false {verdict.reason}")
    return EXIT_REJECT


def _cmd_check(args: argparse.Namespace) -> int:
    patterns = []
    if args.pattern is not None:
        patterns.append(_parse_pattern(args.pattern))
    if args.basis is not None:
        patterns.extend(_parse_basis(args.basis))
    if not patterns:
        raise ValueError("check needs --pattern and/or --basis")
    basis = Basis(patterns)

    if (args.perm is None) == (args.codeword is None):
        raise ValueError("check needs exactly one of a codeword or --perm")
    if args.perm is not None:
        perm = Permutation.from_text(args.perm)
        if args.oracle or len(perm) == 0:
            ok = avoids_basis(perm, basis)
        else:
            ok = tape.accepts_basis(codec.encode(perm), basis).verdict
    elif args.oracle:
        # decode checks the word while decoding it, raising
        # IllegalCodewordError (a ValueError) with the validate reason
        ok = avoids_basis(codec.decode(args.codeword), basis)
    else:
        verdict = codec.validate(args.codeword)
        if not verdict:
            raise codec.IllegalCodewordError(args.codeword, verdict.reason)
        ok = tape.accepts_basis(args.codeword, basis).verdict
    print("avoid" if ok else "contain")
    return EXIT_OK if ok else EXIT_REJECT


def _cmd_enumerate(args: argparse.Namespace) -> int:
    table = counting.sequence(_parse_basis(args.basis), args.n_max, cap=args.cap)
    print(table.to_json() if args.json else table.to_csv())
    return EXIT_OK


def _cmd_bivariate(args: argparse.Namespace) -> int:
    table = counting.count_codewords_bivariate(args.n, cap=args.cap)
    print("t_count,words")
    for t_count, words in table.items():
        print(f"{t_count},{words}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = _stderr_trace if args.trace else None
    if args.machine == "primes":
        if args.word is not None:
            raise ValueError("--word is only for --machine partitions")
        if args.n is None:
            raise ValueError("--machine primes needs --n")
        check_size(args.n, DEFAULT_PRIMES_CAP if args.cap is None else args.cap, "--n")
        ok = tape.is_prime(args.n, trace=trace).verdict
    else:
        if args.n is not None:
            raise ValueError("--n is only for --machine primes")
        if args.cap is not None:
            raise ValueError("--cap is only for --machine primes")
        if args.word is None:
            raise ValueError("--machine partitions needs --word")
        ok = stackmachine.accepts_partition_language(args.word, trace=trace)
    print("accept" if ok else "reject")
    return EXIT_OK if ok else EXIT_REJECT


def bench_word(size: int) -> str:
    """Deterministic legal codeword of the given length: a block of m's, up
    to two filler l's, a full-length t-run, then the matching f's."""
    check_size(size, name="size", positive=True)
    a = (size - 1) // 3
    pad = size - 1 - 3 * a
    return "m" * a + "l" * pad + "t" * a + "f" * (a + 1)


def _parse_sizes(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not (sep and is_positive_decimal(lo) and is_positive_decimal(hi)):
        raise ValueError(f"bad --sizes value {text!r}, expected a..b")
    lo_n, hi_n = int(lo), int(hi)
    if lo_n > hi_n:
        raise ValueError(f"bad size range {text!r}")
    return range(lo_n, hi_n + 1)


def _avoid_size_cap(cap: int, k: int) -> int:
    """Largest avoid-suite size for a length-k pattern: no more than the cap,
    and no more k-tuples of cells, C(size, k), than C(cap, 3)."""
    tuples = math.comb(cap, 3)
    return bisect.bisect_right(range(cap + 1), tuples, key=lambda s: math.comb(s, k)) - 1


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.pattern is not None and args.suite != "avoid":
        raise ValueError("--pattern is only for --suite avoid")
    pattern = _parse_pattern(DEFAULT_AVOID_PATTERN if args.pattern is None else args.pattern)
    sizes = _parse_sizes(args.sizes)
    check_size(sizes[-1], args.cap, "size")
    if args.suite == "compare" and sizes[0] < 2:
        # bench_word(1) is "f": one insertion cell, nothing to compare it with
        raise ValueError(f"the compare suite needs sizes of at least 2, got {args.sizes!r}")
    if args.suite == "avoid":
        # the tuple search, not the size, sets the avoid suite's work
        cap = _avoid_size_cap(args.cap, len(pattern))
        check_size(sizes[-1], cap, f"size (pattern length {len(pattern)})")
    print("size,steps,max_cells")
    for size in sizes:
        word = bench_word(size)
        if args.suite == "legality":
            run = tape.check_legal(word)
        elif args.suite == "compare":
            run = tape.compare(word, 0, len(word) - 1)
        else:
            run = tape.accepts_basis(word, Basis([pattern]))
        print(f"{len(word)},{run.steps},{run.max_cells_touched}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Wraps help and usage at 78 columns, not the terminal's width; each
    subcommand's parser is one too, as add_subparsers copies the class."""

    def __init__(self, **kwargs):
        formatter = functools.partial(argparse.HelpFormatter, width=78)
        super().__init__(formatter_class=formatter, **kwargs)


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each subcommand's parser by name."""
    parser = _Parser(
        prog="permlang",
        # fixed, since argparse wraps a list of choices differently by version
        usage="permlang [-h] COMMAND ...",
        description="Slot-insertion codec for permutations, with bounded-tape "
        "and stack acceptors, pattern-avoidance checks, and enumeration.",
    )
    # prog: without it each subcommand's usage would start with the fixed one.
    # main hands every parse to a subcommand's parser, so this one only prints
    # help and needs no dest
    sub = parser.add_subparsers(prog="permlang")

    p = sub.add_parser("decode", help="print the permutation a codeword builds")
    p.add_argument("codeword")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("encode", help="print the codeword for a permutation")
    p.add_argument("rank", nargs="+", help="space-separated ranks, e.g. 3 4 2 1 5")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("validate", help="is the word a legal codeword?")
    p.add_argument("codeword")
    p.add_argument("--machine", choices=("direct", "lba", "stack"), default="direct")
    p.add_argument("--trace", action="store_true", help="machine trace on stderr")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="does a codeword/permutation avoid patterns?")
    p.add_argument("codeword", nargs="?", default=None)
    p.add_argument("--perm", help="permutation text instead of a codeword")
    p.add_argument("--pattern", help="single pattern, e.g. 123")
    p.add_argument("--basis", help="comma-separated patterns, e.g. 123,3142")
    p.add_argument("--oracle", action="store_true", help="use the brute-force path")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="avoider counts along both routes")
    p.add_argument("--basis", required=True)
    p.add_argument("--n-max", type=_COUNT, required=True)
    p.add_argument("--cap", type=_COUNT, default=counting.DEFAULT_COUNT_CAP)
    p.add_argument("--json", action="store_true", help="JSON instead of CSV output")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bivariate", help="legal codewords by t-count")
    p.add_argument("--n", type=_POSITIVE, required=True, help="number of insertions")
    p.add_argument("--cap", type=_COUNT, default=counting.DEFAULT_COUNT_CAP)
    p.set_defaults(func=_cmd_bivariate)

    p = sub.add_parser("simulate", help="run the primes or partitions machine")
    p.add_argument("--machine", choices=("primes", "partitions"), required=True)
    p.add_argument("--n", type=_POSITIVE, help="tape length for the primes machine")
    p.add_argument("--word", help="input for the partitions machine")
    p.add_argument("--cap", type=_COUNT, help=f"largest --n (default {DEFAULT_PRIMES_CAP})")
    p.add_argument("--trace", action="store_true", help="machine trace on stderr")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="steps and cells touched per input size")
    p.add_argument("--suite", choices=("legality", "compare", "avoid"), required=True)
    p.add_argument("--sizes", required=True, help="inclusive range, e.g. 10..40")
    p.add_argument(
        "--pattern", help=f"pattern for the avoid suite (default {DEFAULT_AVOID_PATTERN})"
    )
    p.add_argument(
        "--cap",
        type=_COUNT,
        default=DEFAULT_BENCH_CAP,
        help="largest size; the avoid suite also keeps C(size, |pattern|) <= C(cap, 3)",
    )
    p.set_defaults(func=_cmd_bench)

    return parser, sub.choices


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parsers main uses: built on the first call, not at import, and
    shared by every later call in the process (parsing leaves them as built)."""
    return _build_parsers()


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    # A known subcommand goes straight to its own parser, one argparse pass
    # where the full parser makes two. Only -h or --help goes to the full
    # parser, which prints its help. No argv, or any other first word, is
    # refused here, in the package's own words, since argparse's refusal
    # differs by version.
    command = commands.get(argv[0]) if argv else None
    try:
        if not command and argv[:1] not in (["-h"], ["--help"]):
            what = f"unknown command {argv[0]!r}" if argv else "no command"
            parser.error(f"{what} (choose from {', '.join(commands)})")
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, counting.CountMismatchError) as exc:
        # every size cap the CLI meets is its command's --cap
        hint = " (see --cap)" if isinstance(exc, CapExceededError) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_USAGE
