import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from permlang import cli


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

    def test_illegal_codeword_is_input_error(self):
        code, _, err = run_cli("check", "--pattern", "12", "tf")
        assert code == 2
        assert "t-overflow" in err

    def test_missing_pattern_and_basis(self):
        code, _, err = run_cli("check", "mrlff")
        assert code == 2
        assert "pattern" in err

    @pytest.mark.parametrize(
        "option, value, named",
        [("--pattern", "102", "'0'"), ("--pattern", "35", "1..2"), ("--perm", "5 9", "1..2")],
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

    def test_partitions_trace(self):
        code, _, err = run_cli(
            "simulate", "--machine", "partitions", "--word", "abb", "--trace"
        )
        assert code == 0
        assert len(err.strip().splitlines()) == 3

    def test_missing_argument(self):
        assert run_cli("simulate", "--machine", "primes")[0] == 2


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
