import argparse
import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest
from cli_cases import CASES
from conftest import ROOT, run_python
from test_golden import TRACE_RUNS

from permlang import cli, codec, counting, stackmachine, tape


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, status, stdout, stderr", CASES, ids=[case[0] for case in CASES])
def test_cli_case(argv, status, stdout, stderr):
    assert run_cli(*shlex.split(argv)) == (status, stdout, stderr)


class TestDecodeEncode:
    def test_long_codeword_round_trip(self):
        # 1 31 2 32 ... 30 60: its codeword's t-runs grow to 28 letters
        ranks = " ".join(f"{i} {i + 30}" for i in range(1, 31))
        code, word, _ = run_cli("encode", *ranks.split())
        assert code == 0 and max(map(len, re.findall("t+", word))) == 28
        assert run_cli("validate", "--machine", "stack", word.strip()) == (0, "true\n", "")
        assert run_cli("decode", word.strip()) == (0, ranks + "\n", "")


class TestCheck:
    def test_oracle_and_machine_paths_agree(self):
        corpus = ["mrlff", "rrf", "mrtltff", "lf", "mtff"]
        for word in corpus:
            for pattern in ("12", "21", "123", "231"):
                machine = run_cli("check", "--pattern", pattern, word)
                oracle = run_cli("check", "--pattern", pattern, "--oracle", word)
                assert machine == oracle, (word, pattern)

    def test_perm_oracle_and_tape_paths_agree(self, monkeypatch):
        runs = []
        accepts_basis = cli.tape.accepts_basis
        monkeypatch.setattr(cli.tape, "accepts_basis",
                            lambda *args: runs.append(args) or accepts_basis(*args))
        verdicts = set()
        for perm in ("1", "1 2", "2 1", "3 4 2 1 5", "2 4 1 3", "5 2 1 3 4"):
            for pattern in ("12", "21", "123", "231"):
                oracle = run_cli("check", "--pattern", pattern, "--perm", perm, "--oracle")
                assert not runs
                machine = run_cli("check", "--pattern", pattern, "--perm", perm)
                assert len(runs) == 1
                runs.clear()
                assert machine == oracle, (perm, pattern)
                verdicts.add(oracle)
        assert verdicts == {(0, "avoid\n", ""), (1, "contain\n", "")}

    def test_oracle_decides_a_pattern_past_the_recursion_limit(self):
        # 1..1200 contains itself: exit 1 with the verdict, not a traceback
        ranks = " ".join(map(str, range(1, 1201)))
        assert run_cli("check", "--oracle", "--pattern", ranks, "--perm", ranks) == (
            1, "contain\n", "")

    def test_empty_perm_takes_the_oracle_path(self, monkeypatch):
        # the empty permutation has no codeword, so the tape never runs
        monkeypatch.setattr(cli.tape, "accepts_basis", None)
        assert run_cli("check", "--pattern", "12", "--perm", "") == (0, "avoid\n", "")

    @pytest.mark.parametrize("option, rest", [("--pattern", ""), ("--basis", ",321")])
    def test_pattern_ranks_split_on_any_whitespace(self, option, rest):
        # a pattern longer than nine is written as ranks, which tabs and
        # outer whitespace separate as single spaces do
        ranks = " ".join(map(str, [10, *range(1, 10)]))
        for text in (ranks, ranks.replace(" ", "\t"), f" {ranks}\n"):
            assert run_cli("check", option, text + rest, "--perm", ranks) == (1, "contain\n", "")


class TestEnumerate:
    def test_route_mismatch_is_an_error(self, monkeypatch):
        # only a bug can reach this: an oracle that rejects everything
        monkeypatch.setattr(counting, "avoids_basis", lambda p, basis: False)
        assert run_cli("enumerate", "--basis", "12", "--n-max", "2") == (
            2,
            "",
            "error: count mismatch at n=1: brute 0 != codeword 1\n",
        )


class TestIntegerOptions:
    """Integer options read ASCII decimal only, as permutation text does."""

    OPTIONS = [
        ("enumerate", "--basis", "12", "--n-max"),
        ("enumerate", "--basis", "12", "--n-max", "3", "--cap"),
        ("bivariate", "--n"),
        ("bivariate", "--n", "3", "--cap"),
        ("simulate", "--machine", "primes", "--n"),
        ("simulate", "--machine", "primes", "--n", "3", "--cap"),
        ("bench", "--suite", "legality", "--sizes", "1..3", "--cap"),
    ]

    @pytest.mark.parametrize("argv", OPTIONS)
    @pytest.mark.parametrize("text", ["\u0663", "0_3", "1_3", "+3", "03", " 3", "3 ", "-1", "3.0", ""])
    def test_reinterpreted_text_is_refused(self, argv, text):
        code, out, err = run_cli(*argv, text)
        assert (code, out) == (2, "")
        assert f"argument {argv[-1]}: expected a" in err
        assert repr(text) in err

    @pytest.mark.parametrize("argv", OPTIONS)
    def test_plain_decimal_is_read(self, argv):
        code, out, _ = run_cli(*argv, "3")
        assert code == 0
        assert out


class TestBench:
    def test_avoid_cap_bounds_the_tuple_search(self):
        # C(100, 5) tuples, far over the C(100, 3) of a length-3 pattern at
        # the size cap: refused before the header and the first size
        avoid = ("bench", "--suite", "avoid", "--sizes")
        assert run_cli(*avoid, "1..100", "--pattern", "12345") == (
            2, "", "error: size (pattern length 5)=100 exceeds the cap 30 (see --cap)\n"
        )
        code, out, _ = run_cli(*avoid, "1..100", "--pattern", "21")
        assert code == 0
        assert len(out.splitlines()) == 101
        # --cap 10: C(8, 4) = 70 <= C(10, 3) = 120 < C(9, 4) = 126
        assert run_cli(*avoid, "8..8", "--pattern", "1234", "--cap", "10")[0] == 0
        assert run_cli(*avoid, "9..9", "--pattern", "1234", "--cap", "10")[:2] == (2, "")

    def test_avoid_suite_defaults_to_pattern_21(self):
        avoid = ("bench", "--suite", "avoid", "--sizes", "3..6")
        assert run_cli(*avoid) == run_cli(*avoid, "--pattern", "21")
        assert run_cli(*avoid)[0] == 0

    def test_bench_words_are_legal(self):
        from permlang.codec import validate

        for size in range(1, 50):
            assert validate(cli.bench_word(size)), size

    def test_bench_word_needs_a_positive_size(self):
        with pytest.raises(ValueError, match="positive"):
            cli.bench_word(0)


class TestHarness:
    def test_determinism_byte_identical(self, monkeypatch):
        # the bytes do not depend on COLUMNS, the width argparse would wrap to
        argvs = [["--help"], *([name, "--help"] for name in cli._parsers()[1])]
        argvs += [shlex.split(argv) for argv, *_ in CASES]
        monkeypatch.delenv("COLUMNS", raising=False)
        unset = [run_cli(*argv) for argv in argvs]
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert [run_cli(*argv) for argv in argvs] == unset, columns


# The argv that traces each golden procedure through the CLI, the run's one
# argument last; the CLI runs compare and accepts_basis untraced only.
TRACE_ARGV = {
    tape.check_legal: "validate --trace --machine lba",
    tape.is_prime: "simulate --trace --machine primes --n",
    stackmachine.accepts_codewords: "validate --trace --machine stack",
    stackmachine.accepts_partition_language: "simulate --trace --machine partitions --word",
}
CLI_TRACE_RUNS = [run for run in TRACE_RUNS if run[1] not in (tape.compare, tape.accepts_basis)]


@pytest.mark.parametrize("header, procedure, arg", CLI_TRACE_RUNS, ids=[r[0] for r in CLI_TRACE_RUNS])
def test_trace_bytes(header, procedure, arg):
    # stderr is the golden run's trace, stdout the verdict line, and the
    # exit status 0 on accept, 1 on reject
    lines = []
    run = procedure(arg, lines.append)
    ok = run.verdict if isinstance(run, tape.TapeRun) else run
    command, *options = TRACE_ARGV[procedure].split()
    if command == "validate":
        verdict = "true" if ok else f"false {codec.validate(arg).reason}"
    else:
        verdict = "accept" if ok else "reject"
    trace = "".join(line + "\n" for line in lines)
    assert run_cli(command, *options, str(arg)) == (0 if ok else 1, verdict + "\n", trace)


def readme_tour_lines():
    """(argv, comment) of every command in the README's CLI tour, the
    comment being the text after its #, or "" when it has none."""
    block = (ROOT / "README.md").read_text().split("## CLI tour", 1)[1].split("```")[1]
    return [
        (shlex.split(line, comments=True)[1:], line.partition("#")[2].strip())
        for line in block.splitlines()
        if line.startswith("permlang ")
    ]


def readme_tour():
    """The argv of every command in the README's CLI tour."""
    return [argv for argv, _ in readme_tour_lines()]


# the tour's one comment that states no result; it says the line takes the
# oracle's path, so its output must be the tape path's
TOUR_PROSE = {"brute-force path instead of tape"}


def test_the_readme_tour_prints_what_its_comments_state():
    # Every line's comment states its result: the first stdout line (the
    # header after "CSV: "), or "JSON: the rows above" for the previous
    # line's rows as one JSON object; then the status as "(exit N)", 0 when
    # none is given, and may add "; trace on stderr".
    previous = None
    for argv, comment in readme_tour_lines():
        code, out, err = run_cli(*argv)
        if comment in TOUR_PROSE:
            assert "--oracle" in argv
            tape_path = [arg for arg in argv if arg != "--oracle"]
            assert (code, out) == run_cli(*tape_path)[:2], argv
        else:
            body, _, status = comment.partition(" (exit ")
            result, _, note = body.partition("; ")
            assert code == (int(status.removesuffix(")")) if status else 0), argv
            if result == "JSON: the rows above":
                assert previous == [arg for arg in argv if arg != "--json"], argv
                header, *lines = run_cli(*previous)[1].splitlines()
                rows = [dict(zip(header.split(","), map(int, line.split(",")))) for line in lines]
                assert json.loads(out) == {"rows": rows}, argv
            else:
                assert result and out.splitlines()[0] == result.removeprefix("CSV: "), argv
            assert note in ("", "trace on stderr"), argv
            assert bool(err) == bool(note), argv
        previous = argv


def test_the_readme_names_no_private_identifier():
    # the README states the user's contract; a name that starts with _ or
    # holds ._ is mechanism, which its module's docstrings describe
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    assert len(spans) > 100
    assert [span for span in spans if span.startswith("_") or "._" in span] == []


def parse(parser, argv):
    """The namespace a parser gives for argv, or the exit code it raises."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code


class TestParserReuse:
    # first words that main refuses itself, with no parse
    REFUSED = [["frobnicate"], ["--bogus", "frobnicate"]]
    # help, usage errors, an input error, and --oracle right before a check
    # without it, so that no parse can leak into the next
    EXTRA = [
        ["--help"],
        ["check", "--help"],
        *REFUSED,
        ["check", "--pattern", "1x2", "mrlff"],
        ["check", "--pattern", "12", "--oracle", "mrlff"],
        ["check", "--pattern", "12", "mrlff"],
    ]

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
    def test_reused_parser_matches_a_fresh_one(self, monkeypatch, order):
        tour = readme_tour()
        assert {argv[0] for argv in tour} == {
            "decode", "encode", "validate", "check",
            "enumerate", "bivariate", "simulate", "bench",
        }
        commands = (tour + self.EXTRA)[::order]
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_parsers", cli._build_parsers)
            expected = [run_cli(*argv) for argv in commands]

        seen = []  # what each parse_args call main makes returns, or exits with
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, args=None, namespace=None):
            try:
                seen.append(parse_args(parser, args, namespace))
            except SystemExit as exc:
                seen.append(exc.code)
                raise
            return seen[-1]

        cli._parsers.cache_clear()
        for argv, want in zip(commands, expected):
            with monkeypatch.context() as spied:
                spied.setattr(argparse.ArgumentParser, "parse_args", spy)
                assert run_cli(*argv) == want, argv
            # the namespace too: a leaked --oracle would not show in the
            # bytes, since both paths give the same verdicts. main hands a
            # subcommand's argv to that subcommand's parser, which gives the
            # full parser's namespace
            full = parse(cli._build_parsers()[0], argv)
            assert seen == ([] if argv in self.REFUSED else [full]), argv
            seen.clear()
            assert parse(cli._parsers()[0], argv) == parse(cli._build_parsers()[0], argv), argv
        assert cli._parsers.cache_info().currsize == 1

    def test_a_subcommand_skips_the_full_parser(self, monkeypatch):
        top, subcommands = cli._parsers()
        seen = []
        parse_args = top.parse_args
        monkeypatch.setattr(top, "parse_args", lambda argv: seen.append(argv) or parse_args(argv))
        for argv in readme_tour() + self.EXTRA:
            if argv[0] in subcommands:
                run_cli(*argv)
                assert seen == [], argv
        # only -h or --help reaches the full parser; main refuses no argv and
        # every other first word itself, with no parse
        for argv, code, parsed in (([], 2, []), (["-h"], 0, [["-h"]]),
                                   (["--help"], 0, [["--help"]]),
                                   *((argv, 2, []) for argv in self.REFUSED)):
            assert run_cli(*argv)[0] == code
            assert seen == parsed
            seen.clear()

    def test_main_builds_the_parser_once(self, monkeypatch):
        builds = []
        build = cli._build_parsers

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "_build_parsers", counted)
        cli._parsers.cache_clear()
        for argv in readme_tour()[:7] * 3 + self.EXTRA:
            run_cli(*argv)
        assert len(builds) == 1

    def test_build_parsers_returns_fresh_parsers(self):
        assert cli._build_parsers()[0] is not cli._build_parsers()[0]


class TestValidateCalls:
    """Each command judges the word's legality once: one codec.validate or
    codec.decode call, since decode makes validate's checks as it decodes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        words = []
        for name in ("validate", "decode"):

            def counted(word, reader=getattr(codec, name)):
                words.append(word)
                return reader(word)

            monkeypatch.setattr(codec, name, counted)
        return words

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["validate", "mf", "--machine", "direct"], (1, "false unfilled-slots\n", "")),
            (["validate", "mf", "--machine", "lba"], (1, "false unfilled-slots\n", "")),
            (["validate", "mf", "--machine", "stack"], (1, "false unfilled-slots\n", "")),
            (["check", "--pattern", "12", "--oracle", "mrlff"], (1, "contain\n", "")),
            (["check", "--pattern", "12", "mrlff"], (1, "contain\n", "")),
        ],
    )
    def test_one_call(self, calls, argv, expected):
        assert run_cli(*argv) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("oracle", [["--oracle"], []], ids=["oracle", "tape"])
    def test_illegal_codeword_message(self, calls, oracle):
        code, out, err = run_cli("check", "--pattern", "12", *oracle, "tf")
        assert (code, out, err) == (2, "", "error: illegal codeword 'tf': t-overflow\n")
        assert calls == ["tf"]


def test_python_dash_m_runs_the_cli():
    done = run_python("-m", "permlang", "decode", "mrlff")
    assert (done.returncode, done.stdout, done.stderr) == (0, "3 4 2 1 5\n", "")


def test_import_builds_no_parser():
    # every workload imports cli; the first main call pays for the parser
    done = run_python("-c", "from permlang import cli; print(cli._parsers.cache_info().currsize)")
    assert (done.returncode, done.stdout) == (0, "0\n")


def test_import_loads_only_what_a_request_uses():
    # a one-shot request pays for every module the import loads. pytest
    # itself loads all four modules below, so the probe runs in a fresh
    # interpreter, with -S so that site loads none of them either; it
    # checks which modules load and times nothing
    probe = (
        "import sys\n"
        "from permlang import cli\n"
        "early = [m for m in ('dataclasses', 'inspect', 'json', 'typing') if m in sys.modules]\n"
        "cli.main(['enumerate', '--basis', '123', '--n-max', '3', '--json'])\n"
        "print(early, 'json' in sys.modules)\n"
    )
    done = run_python("-S", "-c", probe)
    assert (done.returncode, done.stdout.splitlines()[-1], done.stderr) == (0, "[] True", "")
