import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from permlang import cli, codec

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestDecodeEncode:
    def test_decode_worked_example(self):
        code, out, _ = run_cli("decode", "mrlff")
        assert (code, out) == (0, "3 4 2 1 5\n")

    def test_decode_illegal_word_is_input_error(self):
        code, out, err = run_cli("decode", "tf")
        assert code == 2
        assert out == ""
        assert "t-overflow" in err

    def test_decode_bad_letter_names_token(self):
        code, _, err = run_cli("decode", "mrxff")
        assert code == 2
        assert "'x'" in err

    def test_encode(self):
        code, out, _ = run_cli("encode", "5", "2", "1", "3", "4")
        assert (code, out) == (0, "mrtltff\n")

    def test_encode_quoted_form(self):
        code, out, _ = run_cli("encode", "3 4 2 1 5")
        assert (code, out) == (0, "mrlff\n")

    def test_encode_bad_token(self):
        code, _, err = run_cli("encode", "3", "x")
        assert code == 2
        assert "'x'" in err

    def test_encode_rejects_entries_outside_one_to_k(self):
        code, out, err = run_cli("encode", "5", "9")
        assert (code, out) == (2, "")
        assert "1..2" in err

    @pytest.mark.parametrize(
        "ranks, bad",
        [(("01", "2"), "'01'"), (("\u0661", "\u0662"), "'\u0661'"), (("1", "\u00b2"), "'\u00b2'")],
    )
    def test_encode_rejects_reinterpretable_tokens(self, ranks, bad):
        code, out, err = run_cli("encode", *ranks)
        assert (code, out) == (2, "")
        assert bad in err


class TestValidate:
    def test_false_with_reason(self):
        code, out, _ = run_cli("validate", "tf")
        assert (code, out) == (1, "false t-overflow\n")

    def test_true(self):
        code, out, _ = run_cli("validate", "mrtltff")
        assert (code, out) == (0, "true\n")

    @pytest.mark.parametrize("machine", ["direct", "lba", "stack"])
    def test_machines_agree(self, machine):
        assert run_cli("validate", "mrtltff", "--machine", machine)[0] == 0
        assert run_cli("validate", "mmff", "--machine", machine)[0] == 1

    def test_lba_trace_goes_to_stderr(self):
        code, out, err = run_cli("validate", "f", "--machine", "lba", "--trace")
        assert code == 0
        assert out == "true\n"
        assert "read" in err

    @pytest.mark.parametrize("argv", [
        ("mf", "--trace"),
        ("mf", "--trace", "--machine", "direct"),
        # refused before the word is read
        ("mxf", "--trace"),
    ])
    def test_trace_without_a_machine_is_refused(self, argv):
        message = "error: --trace is only for --machine lba or stack\n"
        assert run_cli("validate", *argv) == (2, "", message)


class TestCheck:
    def test_codeword_contains(self):
        code, out, _ = run_cli("check", "--pattern", "12", "mrlff")
        assert (code, out) == (1, "contain\n")

    def test_codeword_avoids(self):
        code, out, _ = run_cli("check", "--pattern", "123", "rrf")
        assert (code, out) == (0, "avoid\n")

    def test_perm_input_and_basis(self):
        code, out, _ = run_cli("check", "--basis", "123,321", "--perm", "2 4 1 3")
        assert (code, out) == (0, "avoid\n")

    def test_oracle_and_machine_paths_agree(self):
        corpus = ["mrlff", "rrf", "mrtltff", "lf", "mtff"]
        for word in corpus:
            for pattern in ("12", "21", "123", "231"):
                machine = run_cli("check", "--pattern", pattern, word)
                oracle = run_cli("check", "--pattern", pattern, "--oracle", word)
                assert machine == oracle, (word, pattern)

    def test_perm_oracle_contains(self):
        assert run_cli("check", "--pattern", "12", "--perm", "1 2", "--oracle") == (
            1, "contain\n", "")

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

    def test_empty_perm_takes_the_oracle_path(self, monkeypatch):
        # the empty permutation has no codeword, so the tape never runs
        monkeypatch.setattr(cli.tape, "accepts_basis", None)
        assert run_cli("check", "--pattern", "12", "--perm", "") == (0, "avoid\n", "")

    def test_illegal_codeword_is_input_error(self):
        code, _, err = run_cli("check", "--pattern", "12", "tf")
        assert code == 2
        assert "t-overflow" in err

    def test_missing_pattern_and_basis(self):
        code, _, err = run_cli("check", "mrlff")
        assert code == 2
        assert "pattern" in err

    @pytest.mark.parametrize("option", ["--pattern", "--basis"])
    @pytest.mark.parametrize("value", ["", " "])
    def test_empty_pattern_given(self, option, value):
        assert run_cli("check", option, value, "--perm", "1") == (2, "", "error: empty pattern\n")

    @pytest.mark.parametrize(
        "option, value, named",
        [
            ("--pattern", "102", "'0'"),
            ("--pattern", "35", "1..2"),
            ("--perm", "5 9", "1..2"),
            ("--perm", "2 01", "'01'"),
            ("--perm", "\u0662 \u0661", "'\u0662'"),
        ],
    )
    def test_entries_must_be_one_to_k(self, option, value, named):
        argv = ["check", option, value]
        argv += ["--pattern", "12"] if option == "--perm" else ["mrlff"]
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert named in err

    def test_needs_exactly_one_input(self):
        assert run_cli("check", "--pattern", "12")[0] == 2
        assert run_cli("check", "--pattern", "12", "rf", "--perm", "2 1")[0] == 2


class TestEnumerate:
    def test_catalan_csv(self):
        code, out, _ = run_cli("enumerate", "--basis", "123", "--n-max", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,brute,codeword"
        assert lines[-1] == "6,132,132"

    def test_json(self):
        code, out, _ = run_cli("enumerate", "--basis", "21", "--n-max", "2", "--json")
        assert code == 0
        assert json.loads(out)["rows"][-1] == {"n": 2, "brute": 1, "codeword": 1}

    def test_negative_n_max(self):
        code, out, err = run_cli("enumerate", "--basis", "12", "--n-max", "-1")
        assert (code, out) == (2, "")
        assert "nonnegative" in err

    def test_cap_guard(self):
        code, _, err = run_cli("enumerate", "--basis", "12", "--n-max", "9")
        assert code == 2
        assert "cap" in err


class TestBivariate:
    def test_table(self):
        code, out, _ = run_cli("bivariate", "--n", "4")
        assert code == 0
        assert out == "t_count,words\n0,14\n1,8\n2,2\n"


class TestSimulate:
    def test_primes(self):
        assert run_cli("simulate", "--machine", "primes", "--n", "7")[:2] == (0, "accept\n")
        assert run_cli("simulate", "--machine", "primes", "--n", "9")[0] == 1

    def test_partitions(self):
        assert run_cli("simulate", "--machine", "partitions", "--word", "abb")[0] == 0
        assert run_cli("simulate", "--machine", "partitions", "--word", "aab")[0] == 1

    def test_partitions_foreign_letter_is_input_error(self):
        # the block rule rejects aab before the x: the letters are checked first
        for word in ("bx", "aabx"):
            code, out, err = run_cli("simulate", "--machine", "partitions", "--word", word)
            assert (code, out) == (2, "")
            assert "'x'" in err

    def test_partitions_trace(self):
        code, _, err = run_cli(
            "simulate", "--machine", "partitions", "--word", "abb", "--trace"
        )
        assert code == 0
        assert len(err.strip().splitlines()) == 3

    def test_missing_argument(self):
        for machine, option in (("primes", "--n"), ("partitions", "--word")):
            message = f"error: --machine {machine} needs {option}\n"
            assert run_cli("simulate", "--machine", machine) == (2, "", message)

    @pytest.mark.parametrize("argv, message", [
        (("--machine", "primes", "--n", "7", "--word", "zz"),
         "error: --word is only for --machine partitions\n"),
        (("--machine", "partitions", "--word", "ab", "--n", "5"),
         "error: --n is only for --machine primes\n"),
        # refused before the other machine's missing option is reported
        (("--machine", "primes", "--word", "ab"),
         "error: --word is only for --machine partitions\n"),
        (("--machine", "partitions", "--n", "5"),
         "error: --n is only for --machine primes\n"),
        (("--machine", "partitions", "--word", "abb", "--cap", "1"),
         "error: --cap is only for --machine primes\n"),
        (("--machine", "partitions", "--cap", "5000"),
         "error: --cap is only for --machine primes\n"),
    ])
    def test_other_machines_option_is_refused(self, argv, message):
        assert run_cli("simulate", *argv) == (2, "", message)

    def test_cap_guard(self):
        # one past the default cap; 5001 = 3 * 1667, so even uncapped it is quick
        code, out, err = run_cli("simulate", "--machine", "primes", "--n", "5001")
        assert (code, out) == (2, "")
        assert "cap" in err
        argv = ("simulate", "--machine", "primes", "--n", "7")
        assert run_cli(*argv, "--cap", "6")[:2] == (2, "")
        assert run_cli(*argv, "--cap", "7")[:2] == (0, "accept\n")


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

    def test_zero_only_where_the_option_allows_it(self):
        assert run_cli("enumerate", "--basis", "12", "--n-max", "0")[:2] == (
            0,
            "n,brute,codeword\n0,1,1\n",
        )
        assert run_cli("enumerate", "--basis", "12", "--n-max", "0", "--cap", "0")[0] == 0
        for argv in (("bivariate", "--n", "0"), ("simulate", "--machine", "primes", "--n", "0")):
            code, out, err = run_cli(*argv)
            assert (code, out) == (2, "")
            assert "expected a positive decimal integer" in err


class TestBench:
    def test_output_shape(self):
        code, out, _ = run_cli("bench", "--suite", "legality", "--sizes", "10..12")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "size,steps,max_cells"
        assert len(lines) == 4
        for line in lines[1:]:
            size, steps, cells = map(int, line.split(","))
            assert cells <= size + 1

    def test_bad_sizes(self):
        assert run_cli("bench", "--suite", "legality", "--sizes", "abc")[0] == 2
        # bounds are ASCII decimal with no leading zero, as in permutation text
        for sizes in ("\u0661\u0660..\u0661\u0661", "010..11", "0..3", "12..11"):
            assert run_cli("bench", "--suite", "legality", "--sizes", sizes)[:2] == (2, "")

    def test_cap_guard(self):
        # checked before the header and the first size
        code, out, err = run_cli("bench", "--suite", "legality", "--sizes", "100..101")
        assert (code, out) == (2, "")
        assert "cap" in err
        argv = ("bench", "--suite", "legality", "--sizes", "10..12")
        assert run_cli(*argv, "--cap", "11")[:2] == (2, "")
        assert run_cli(*argv, "--cap", "12")[0] == 0

    def test_avoid_cap_bounds_the_tuple_search(self):
        # C(100, 5) tuples, far over the C(100, 3) of a length-3 pattern at
        # the size cap: refused before the header and the first size
        avoid = ("bench", "--suite", "avoid", "--sizes")
        code, out, err = run_cli(*avoid, "1..100", "--pattern", "12345")
        assert (code, out) == (2, "")
        assert "cap" in err
        code, out, _ = run_cli(*avoid, "1..100", "--pattern", "21")
        assert code == 0
        assert len(out.splitlines()) == 101
        # --cap 10: C(8, 4) = 70 <= C(10, 3) = 120 < C(9, 4) = 126
        assert run_cli(*avoid, "8..8", "--pattern", "1234", "--cap", "10")[0] == 0
        assert run_cli(*avoid, "9..9", "--pattern", "1234", "--cap", "10")[:2] == (2, "")

    @pytest.mark.parametrize("argv", [
        ("--suite", "legality", "--sizes", "3..4", "--pattern", "4231"),
        ("--suite", "compare", "--sizes", "3..4", "--pattern", "21"),
        # refused before the sizes or the pattern are read
        ("--suite", "legality", "--sizes", "abc", "--pattern", "1x"),
    ])
    def test_pattern_outside_the_avoid_suite_is_refused(self, argv):
        message = "error: --pattern is only for --suite avoid\n"
        assert run_cli("bench", *argv) == (2, "", message)

    def test_avoid_suite_defaults_to_pattern_21(self):
        avoid = ("bench", "--suite", "avoid", "--sizes", "3..6")
        assert run_cli(*avoid) == run_cli(*avoid, "--pattern", "21")
        assert run_cli(*avoid)[0] == 0

    def test_compare_suite_needs_two_insertion_cells(self):
        # bench_word(1) is "f", with no second cell to compare: refused
        # before the header
        code, out, err = run_cli("bench", "--suite", "compare", "--sizes", "1..3")
        assert (code, out) == (2, "")
        assert "at least 2" in err
        code, out, _ = run_cli("bench", "--suite", "compare", "--sizes", "2..3")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_bench_words_are_legal(self):
        from permlang.codec import validate

        for size in range(1, 50):
            assert validate(cli.bench_word(size)), size


class TestHarness:
    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate")[0] == 2

    def test_unknown_flag_rejected(self):
        assert run_cli("decode", "f", "--bogus")[0] == 2

    def test_determinism_byte_identical(self):
        for argv in (
            ("enumerate", "--basis", "123,3142", "--n-max", "5"),
            ("bivariate", "--n", "5"),
            ("decode", "mrtltff"),
            ("bench", "--suite", "compare", "--sizes", "10..13"),
        ):
            assert run_cli(*argv) == run_cli(*argv)


def readme_tour():
    """The argv of every command in the README's CLI tour."""
    block = (ROOT / "README.md").read_text().split("## CLI tour", 1)[1].split("```")[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("permlang ")
    ]


def parse(parser, argv):
    """The namespace a parser gives for argv, or the exit code it raises."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code


class TestParserReuse:
    # help, a usage error, an input error, and --oracle right before a check
    # without it, so that no parse can leak into the next
    EXTRA = [
        ["--help"],
        ["check", "--help"],
        ["frobnicate"],
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
            fresh.setattr(cli, "_parser", cli.build_parser)
            expected = [run_cli(*argv) for argv in commands]
        cli._parser.cache_clear()
        for argv, want in zip(commands, expected):
            assert run_cli(*argv) == want, argv
            # the namespace too: a leaked --oracle would not show in the
            # bytes, since both paths give the same verdicts
            assert parse(cli._parser(), argv) == parse(cli.build_parser(), argv), argv
        assert cli._parser.cache_info().currsize == 1

    def test_main_builds_the_parser_once(self, monkeypatch):
        builds = []
        build = cli.build_parser

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for argv in readme_tour()[:7] * 3 + self.EXTRA:
            run_cli(*argv)
        assert len(builds) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestValidateCalls:
    """codec.validate runs once per command; decode's own call counts."""

    @pytest.fixture
    def calls(self, monkeypatch):
        words = []
        validate = codec.validate

        def counted(word):
            words.append(word)
            return validate(word)

        monkeypatch.setattr(codec, "validate", counted)
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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "permlang", "decode", "mrlff"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "3 4 2 1 5\n", "")


def test_import_builds_no_parser():
    # every workload imports cli; the first main call pays for the parser
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "from permlang import cli; print(cli._parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "0\n")
