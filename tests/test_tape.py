import itertools

import pytest

from permlang import codec, tape
from permlang.codec import codewords_with_insertions, decode, validate
from permlang.permutations import Basis, Permutation, avoids_basis
from permlang.tape import (
    BoundedTape,
    NO_MARK,
    PairOrder,
    STAR,
    TapeFault,
    TapeRun,
    accepts_basis,
    check_legal,
    compare,
    is_prime,
)


@pytest.fixture
def tapes(monkeypatch):
    """Record every (word, tape) pair the procedures create, so a test can
    inspect the tape a public procedure left behind."""
    made = []

    class RecordingTape(BoundedTape):
        __slots__ = ()

        def __init__(self, word, trace=None):
            super().__init__(word, trace)
            made.append((word, self))

    monkeypatch.setattr(tape, "BoundedTape", RecordingTape)
    return made


def assert_tapes_clean(tapes):
    """Every recorded tape holds its input word again, with no marks left."""
    assert tapes
    for word, t in tapes:
        assert t.text() == word, word
        assert t.marks_clear(), word


class TestBoundedTape:
    def test_each_primitive_costs_one_step(self):
        t = BoundedTape("lf")
        assert t.steps == 0
        t.read()
        assert t.steps == 1
        t.move_right()
        assert t.steps == 2
        t.write_mark(STAR)
        assert t.steps == 3
        t.write_letter("m")
        assert t.steps == 4
        t.move_left()
        assert t.steps == 5
        assert t.read() == ("l", NO_MARK)

    def test_capacity_is_word_plus_one(self):
        t = BoundedTape("lf")
        t.move_right()
        t.move_right()  # the blank boundary cell
        assert t.read() == (tape.BLANK, NO_MARK)
        with pytest.raises(TapeFault):
            t.move_right()

    def test_left_edge_faults(self):
        t = BoundedTape("f")
        with pytest.raises(TapeFault):
            t.move_left()

    def test_max_cells_touched_tracks_head_high_water(self):
        t = BoundedTape("mrlff")
        assert t.max_cells_touched == 1
        t.move_right()
        t.move_right()
        t.move_left()
        assert t.max_cells_touched == 3

    def test_marks_are_an_overlay(self):
        t = BoundedTape("mf")
        t.write_mark(STAR)
        assert t.read() == ("m", STAR)
        t.write_mark(NO_MARK)
        assert t.read() == ("m", NO_MARK)
        assert t.text() == "mf"

    def test_trace_lines_one_per_primitive(self):
        lines = []
        t = BoundedTape("tf", trace=lines.append)
        t.read()
        t.write_mark(STAR)
        t.move_right()
        assert len(lines) == 3
        assert "read" in lines[0] and "t -> t" in lines[0]
        assert "write-mark" in lines[1] and "t -> t*" in lines[1]
        assert "move-right" in lines[2]


class TestRestore:
    def test_clears_a_mark_left_mid_word(self):
        t = BoundedTape("mrlff")
        t.move_right()
        t.move_right()
        t.write_mark(STAR)
        tape._restore(t, "mrlff")
        assert t.marks_clear()
        assert t.text() == "mrlff"

    def test_overwritten_letter_faults(self):
        t = BoundedTape("mrlff")
        t.move_right()
        t.write_letter("l")
        with pytest.raises(TapeFault):
            tape._restore(t, "mrlff")

    def test_mark_on_the_boundary_cell_faults(self):
        # the clearing scan stops at the last letter and never visits it
        t = BoundedTape("lf")
        t.move_right()
        t.move_right()
        t.write_mark(STAR)
        with pytest.raises(TapeFault):
            tape._restore(t, "lf")


class TestCheckLegal:
    @pytest.mark.parametrize(
        "word, expected",
        [
            ("mrlff", True),
            ("mmff", False),  # ends with one slot still open
            ("tf", False),
            ("f", True),
            ("mrtltff", True),
            ("", False),
        ],
    )
    def test_verdicts(self, word, expected, tapes):
        run = check_legal(word)
        assert run.verdict is expected
        assert_tapes_clean(tapes)

    def test_agrees_with_direct_validate_exhaustively(self, tapes):
        for n in range(0, 7):
            for tup in itertools.product(codec.ALPHABET, repeat=n):
                word = "".join(tup)
                run = check_legal(word)
                assert run.verdict == bool(validate(word)), word
                assert run.max_cells_touched <= len(word) + 1
        assert_tapes_clean(tapes)

    def test_counters_small_word(self):
        run = check_legal("f")
        assert run.steps >= 1
        assert run.max_cells_touched <= 2

    def test_steps_quadratic_calibrated_then_verified(self):
        # calibrate the constant on |w| <= 10, then check words up to 40
        from permlang.cli import bench_word

        ratios = []
        for n in range(1, 7):
            for word in codewords_with_insertions(n):
                if len(word) <= 10:
                    ratios.append(check_legal(word).steps / len(word) ** 2)
        c = max(ratios) * 1.5
        for size in range(12, 41, 7):
            word = bench_word(size)
            assert check_legal(word).steps <= c * len(word) ** 2


class TestCompare:
    @pytest.mark.parametrize(
        "word, x, y, expected",
        [
            ("mrlff", 0, 1, PairOrder.DESCENDING),
            ("lf", 0, 1, PairOrder.ASCENDING),
            ("rf", 0, 1, PairOrder.DESCENDING),
        ],
    )
    def test_examples(self, word, x, y, expected, tapes):
        run = compare(word, x, y)
        assert run.verdict is expected
        assert_tapes_clean(tapes)

    def test_precondition_violations_raise(self):
        with pytest.raises(ValueError):
            compare("mrlff", 1, 1)
        with pytest.raises(ValueError):
            compare("mrtltff", 0, 2)  # position 2 holds a t
        with pytest.raises(ValueError):
            compare("tf", 0, 1)  # illegal word

    def test_matches_decoded_positions_exhaustively(self, tapes):
        for n in range(1, 6):
            for word in codewords_with_insertions(n):
                perm = decode(word)
                cells = [i for i, ch in enumerate(word) if ch != "t"]
                for a, b in itertools.combinations(range(len(cells)), 2):
                    pos_a = perm.ranks.index(a + 1)
                    pos_b = perm.ranks.index(b + 1)
                    want = (
                        PairOrder.ASCENDING
                        if pos_a < pos_b
                        else PairOrder.DESCENDING
                    )
                    run = compare(word, cells[a], cells[b])
                    assert run.verdict is want, (word, cells[a], cells[b])
                    assert run.max_cells_touched <= len(word) + 1
        assert_tapes_clean(tapes)


class TestAcceptsAvoiding:
    """accepts_basis on single-pattern bases."""

    @pytest.mark.parametrize(
        "word, pattern, expected",
        [
            ("mrlff", [1, 2], False),  # 34215 contains 12
            ("rrf", [1, 2, 3], True),  # 321 avoids 123
            ("f", [1, 2], True),
        ],
    )
    def test_examples(self, word, pattern, expected):
        assert accepts_basis(word, Basis([pattern])).verdict is expected

    def test_illegal_words_rejected(self):
        assert accepts_basis("tf", Basis([[1, 2]])).verdict is False
        assert accepts_basis("", Basis([[1]])).verdict is False

    def test_matches_oracle_on_small_words(self):
        patterns = [
            Permutation(p)
            for k in range(1, 4)
            for p in itertools.permutations(range(1, k + 1))
        ]
        for n in range(1, 5):
            for word in codewords_with_insertions(n):
                perm = decode(word)
                for q in patterns:
                    want = avoids_basis(perm, Basis([q]))
                    run = accepts_basis(word, Basis([q]))
                    assert run.verdict is want, (word, q)
                    assert run.max_cells_touched <= len(word) + 1


class TestAcceptsBasis:
    def test_examples(self):
        assert accepts_basis("rrf", Basis([[1, 2, 3], [2, 1, 3]])).verdict is True
        assert accepts_basis("mrlff", Basis([[1, 2]])).verdict is False
        assert accepts_basis("f", Basis([[1, 2], [2, 1, 3]])).verdict is True

    def test_matches_oracle(self):
        bases = [
            Basis([[1, 2]]),
            Basis([[2, 1], [1, 2, 3]]),
            Basis([[1, 3, 2], [3, 1, 2]]),
        ]
        for n in range(1, 5):
            for word in codewords_with_insertions(n):
                perm = decode(word)
                for basis in bases:
                    want = avoids_basis(perm, basis)
                    assert accepts_basis(word, basis).verdict is want

    def test_cumulative_counters_cover_all_patterns(self):
        single = accepts_basis("rrf", Basis([[1, 2, 3]]))
        double = accepts_basis("rrf", Basis([[1, 2, 3], [2, 1, 3]]))
        assert double.steps > single.steps


class TestIsPrime:
    def test_examples(self):
        assert is_prime(7).verdict is True
        assert is_prime(9).verdict is False
        assert is_prime(1).verdict is False
        assert is_prime(2).verdict is True
        assert is_prime(3).verdict is True

    def test_against_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % i for i in range(2, int(n**0.5) + 1))

        for n in range(1, 120):
            run = is_prime(n)
            assert bool(run.verdict) is trial(n), n
            assert run.max_cells_touched <= n + 1

    def test_space_bound_at_fifty(self):
        assert is_prime(50).max_cells_touched <= 51

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_prime(0)


def test_trace_is_deterministic():
    first: list[str] = []
    second: list[str] = []
    check_legal("mrtltff", trace=first.append)
    check_legal("mrtltff", trace=second.append)
    assert first == second
    assert len(first) == check_legal("mrtltff").steps


def test_taperun_is_frozen():
    run = check_legal("f")
    assert isinstance(run, TapeRun)
    with pytest.raises(AttributeError):
        run.steps = 0
