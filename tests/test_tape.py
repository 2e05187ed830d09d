import contextlib
import itertools
import math
import random

import pytest
from conftest import built_avoider

from permlang import codec, counting, stackmachine, tape
from permlang.codec import codewords_with_insertions, decode, validate
from permlang.permutations import Basis, Permutation, avoids_basis
from permlang.tape import (
    BoundedTape,
    DAGGER,
    DOUBLE_STAR,
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
    inspect the tape a public procedure left behind; only traced runs
    build a tape."""
    made = []

    class RecordingTape(BoundedTape):
        __slots__ = ()

        def __init__(self, word, trace=None):
            super().__init__(word, trace)
            made.append((word, self))

    monkeypatch.setattr(tape, "BoundedTape", RecordingTape)
    return made


def no_trace(line):
    """A trace that drops its lines.  Untraced, no procedure builds a tape
    and the occurrence search reads each compare from its pair table, so
    the tests that spy on ``_compare_on_tape`` or inspect a procedure's
    tape pass this to run every step, restore included, on a tape."""


@pytest.fixture
def compares(monkeypatch):
    """Record the (x_pos, y_pos) of every compare the tape procedures make
    on a traced tape."""
    made = []
    inner = tape._compare_on_tape

    def counting(t, cells, a, b):
        made.append((cells[a], cells[b]))
        return inner(t, cells, a, b)

    monkeypatch.setattr(tape, "_compare_on_tape", counting)
    return made


@pytest.fixture
def searched(monkeypatch):
    """Record every compare of an occurrence search as (prefix, x_pos,
    y_pos), where prefix is the tuple of cells chosen when the compare is
    made, as the search hands its control state to its compare: a run of
    equal (prefix, y_pos) is one candidate of one level."""
    made = []
    inner = tape._avoids

    def recording(cells, pattern, descending):
        def watched(chosen, a, y):
            made.append((tuple(cells[c] for c in chosen), cells[chosen[a]], cells[y]))
            return descending(chosen, a, y)

        return inner(cells, pattern, watched)

    monkeypatch.setattr(tape, "_avoids", recording)
    return made


def candidates(log):
    """Group a ``searched`` log into [(prefix, y_pos, [x_pos, ...])], one
    entry per candidate the search compared."""
    grouped = []
    for prefix, x, y in log:
        if not grouped or grouped[-1][:2] != (prefix, y):
            grouped.append((prefix, y, []))
        grouped[-1][2].append(x)
    return grouped


def first_occurrence(p, q):
    """The lexicographically first value tuple v1 < ... < vk of p whose
    positions spell q, or None if p avoids q."""
    where = {value: position for position, value in enumerate(p)}
    for values in itertools.combinations(range(1, len(p) + 1), len(q)):
        positions = [where[values[rank - 1]] for rank in q]
        if positions == sorted(positions):
            return values
    return None


def positional_neighbours(q, j):
    """Of the ranks 1..j, the one nearest before rank j+1 in q, then the
    one nearest after it; either may be missing."""
    at = q.index(j + 1)
    before = [r for r in q[:at] if r <= j]
    after = [r for r in q[at + 1 :] if r <= j]
    return before[-1:] + after[:1]


def search_by_all_pairs(word, q):
    """Reference for the tape's occurrence search, on positions read from
    decode: the same depth-first search over insertion cells, but each
    candidate is checked against every chosen cell.  Returns whether the
    word avoids q and the (prefix, y_pos) of every candidate tried below
    level 0, in order."""
    p = decode(word)
    n, k = len(p), len(q)
    cell = [i for i, ch in enumerate(word) if ch != "t"]  # value v at cell[v-1]
    where = {value: position for position, value in enumerate(p)}
    place = [q.index(rank) for rank in range(1, k + 1)]
    tried = []

    def extend(chosen, first):
        j = len(chosen)
        for v in range(first, n - k + j + 2):  # leave k-j-1 values after v
            if j:
                tried.append((tuple(cell[c - 1] for c in chosen), cell[v - 1]))
            agree = all(
                (where[v] < where[c]) == (place[j] < place[a]) for a, c in enumerate(chosen)
            )
            if agree and (j + 1 == k or extend(chosen + [v], v + 1)):
                return True
        return False

    return not extend([], 1), tried


def assert_tapes_clean(tapes):
    """Every recorded tape is left with no marks, so restoring it again does
    not fault."""
    assert tapes
    for word, t in tapes:
        assert t.holds_input(), word
        t.restore()


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
        t.move_left()
        assert t.steps == 4
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
        assert t.holds_input()

    def test_seek_charges_one_step_per_cell(self):
        for trace in (None, [].append):
            t = BoundedTape("mrlff", trace)
            t.seek(4)
            assert (t.head, t.steps, t.max_cells_touched) == (4, 4, 5)
            t.seek(1)
            assert (t.head, t.steps, t.max_cells_touched) == (1, 7, 5)
            t.seek(1)
            assert t.steps == 7

    @pytest.mark.parametrize("pos", [-1, 6, 100])
    @pytest.mark.parametrize("trace", [None, lambda _: None])
    def test_seek_outside_the_tape_faults(self, pos, trace):
        t = BoundedTape("mrlff", trace)
        t.seek(2)
        with pytest.raises(TapeFault):
            t.seek(pos)
        assert (t.head, t.steps) == (2, 2)

    def test_counts_match_snapshot_reference(self):
        # holds_input() compares the marks with a blank copy; the reference
        # rescans the snapshot, so random programs of seeks, reads, mark
        # writes and clearing scans must keep the two equal and every letter
        # as input
        rng = random.Random(20261018)
        for _ in range(300):
            word = "".join(rng.choice(codec.ALPHABET) for _ in range(rng.randint(0, 6)))
            t = BoundedTape(word)
            for _ in range(rng.randint(1, 20)):
                t.seek(rng.randrange(len(word) + 1))
                step = rng.random()
                if step < 0.2:
                    t.read()
                elif step < 0.9:
                    t.write_mark(rng.choice([NO_MARK, NO_MARK, STAR, DAGGER]))
                else:
                    # the clearing scan, which faults on a marked boundary cell
                    fault = t.snapshot()[1][-1] != NO_MARK
                    with pytest.raises(TapeFault) if fault else contextlib.nullcontext():
                        t.restore()
                assert t.holds_input() == (not any(t.snapshot()[1])), word
                assert t.snapshot()[0] == word + tape.BLANK

    # seek, rewrite_left and restore, which run their primitive loops
    # traced or not, must fault alike either way and write one trace line
    # per step; each with arguments drawn for a tape of `cap` cells,
    # sometimes outside it, so that both tape ends are reached.
    PROGRAMS = {
        "seek": lambda rng, cap: (rng.randint(-1, cap),),
        "rewrite_left": lambda rng, cap: (
            rng.randrange(cap),
            rng.randint(-1, cap),
            rng.choice([tape._UNDO_SHUTTLE, tape._CLEAR]),
        ),
        "restore": lambda rng, cap: (),
    }

    @staticmethod
    def run_program(word, marks, head, name, args, trace):
        """The program's outcome on a prepared tape: its return value and
        the tape's head, counters, contents and restoration flag, or
        TapeFault."""
        t = BoundedTape(word, trace)
        for i, mark in marks:
            t.seek(i)
            t.write_mark(mark)
        t.seek(head)
        try:
            value = getattr(t, name)(*args)
        except TapeFault:
            return TapeFault
        return (value, t.head, t.steps, t.max_cells_touched, t.snapshot(), t.holds_input())

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_scan_program_faults_alike_and_traces_each_step(self, name):
        rng = random.Random(name)
        outcomes = set()
        for _ in range(400):
            word = "".join(rng.choice(codec.ALPHABET) for _ in range(rng.randint(0, 9)))
            cap = len(word) + 1
            density = rng.random()
            marks = [(i, rng.choice([STAR, STAR, DOUBLE_STAR, DAGGER]))
                     for i in range(cap) if rng.random() < density]
            head = rng.randrange(cap)
            args = self.PROGRAMS[name](rng, cap)
            untraced = self.run_program(word, marks, head, name, args, None)
            lines = []
            traced = self.run_program(word, marks, head, name, args, lines.append)
            assert untraced == traced, (word, marks, head, args)
            if traced is not TapeFault:
                # the traced run wrote one line per primitive
                assert len(lines) == traced[2], (word, marks, head, args)
            outcomes.add(traced is TapeFault)
        assert outcomes == ({False, True} if name in self.FAULTING else {False})

    # Programs that fault on some drawn tapes: a drawn cell outside the tape
    # takes seek's or rewrite_left's head off it, and restore finds a marked
    # boundary cell.
    FAULTING = {"restore", "rewrite_left", "seek"}

    @pytest.mark.parametrize("trace", [None, lambda _: None])
    def test_scan_programs_fault_at_both_tape_ends(self, trace):
        cases = [
            ("mrltt", 3, "rewrite_left", (3, -1, tape._CLEAR)),  # left end
            ("mrltt", 3, "right_to_m_or_f", (6,)),  # no m or f after cell 3
            ("mrltt", 3, "right_to_m_or_f", (2,)),  # stop behind the head is never met
            # the head on the boundary cell, past the word's last cell
            ("mrltt", 5, "right_to_pair", ()),
            ("mrltt", 5, "right_to_unmarked_mft", ()),
            ("", 0, "right_to_pair", ()),
            ("", 0, "right_to_unmarked_mft", ()),
            ("", 0, "scan_insertions", ()),  # the empty word has no last cell
        ]
        for word, head, name, args in cases:
            t = BoundedTape(word, trace)
            for i in range(len(word)):
                t.seek(i)
                t.write_mark(STAR)
            t.seek(head)
            with pytest.raises(TapeFault):
                getattr(t, name)(*args)

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
        t.restore()
        assert t.holds_input()

    def test_mark_on_the_boundary_cell_faults(self):
        # the clearing scan stops at the last letter and never visits it
        t = BoundedTape("lf")
        t.move_right()
        t.move_right()
        t.write_mark(STAR)
        with pytest.raises(TapeFault):
            t.restore()


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
        assert check_legal(word, no_trace) == run
        assert_tapes_clean(tapes)

    def test_agrees_with_direct_validate_exhaustively(self, tapes):
        for n in range(0, 7):
            for tup in itertools.product(codec.ALPHABET, repeat=n):
                word = "".join(tup)
                run = check_legal(word)
                assert run.verdict == bool(validate(word)), word
                assert run.max_cells_touched <= len(word) + 1
                assert check_legal(word, no_trace) == run, word
        assert_tapes_clean(tapes)

    @staticmethod
    def traced_legality(word, head):
        """``_check_legal_on_tape`` on a traced tape from a head on cell
        head: its verdict and steps from there.  The tape must end restored
        with the head on cell n-1, having reached no further than n-1 or
        the start head."""
        n = len(word)
        t = BoundedTape(word, no_trace)
        t.seek(head)
        verdict = tape._check_legal_on_tape(t, n)
        assert t.holds_input(), (word, head)
        assert (t.head, t.max_cells_touched) == (max(n - 1, 0), max(head + 1, n)), (word, head)
        return verdict, t.steps - head

    def test_closed_form_matches_primitive_composition(self):
        # every word of length <= 6, legal or not, then seeded codewords and
        # random words, where nesting, t-runs and licences run long
        rng = random.Random(1997)
        words = [
            "".join(tup) for n in range(7) for tup in itertools.product(codec.ALPHABET, repeat=n)
        ]
        for _ in range(300):
            n = rng.randint(8, 40)
            words.append(codec.encode(Permutation(rng.sample(range(1, n + 1), n))))
        for _ in range(300):
            words.append("".join(rng.choices(codec.ALPHABET, k=rng.randint(1, 60))))
        for word in words:
            head = rng.randrange(len(word) + 1)
            traced = self.traced_legality(word, head)
            cells = [pos for pos, letter in enumerate(word) if letter != "t"]
            assert tape._legal_closed_form(word, cells, head) == traced, (word, head)

    @pytest.mark.parametrize("word, cell", [("mrlff", 3), ("", 0)])
    @pytest.mark.parametrize("trace", [None, lambda _: None])
    def test_legality_on_a_marked_tape_faults(self, word, cell, trace):
        # the empty word's only cell is the boundary
        t = BoundedTape(word, trace)
        t.seek(cell)
        t.write_mark(STAR)
        with pytest.raises(TapeFault, match="does not hold its input"):
            tape._check_legal_on_tape(t, len(word))
        assert (t.head, t.steps) == (cell, cell + 1)

    def test_agrees_with_validate_and_stack_beyond_n_8(self):
        # seeded codewords with n = 50..200, and copies with an insertion
        # letter substituted, deleted or given a letter in front, which are
        # mostly illegal (a t added or dropped inside a run mostly is not)
        rng = random.Random(2004)
        words = []
        for _ in range(20):
            n = rng.randint(50, 200)
            word = codec.encode(Permutation(rng.sample(range(1, n + 1), n)))
            words.append(word)
            cells = [i for i, letter in enumerate(word) if letter != "t"]
            for _ in range(4):
                pos = rng.choice(cells)
                letter = rng.choice(codec.ALPHABET.replace(word[pos], ""))
                words.append(word[:pos] + letter + word[pos + 1 :])
                words.append(word[:pos] + rng.choice(codec.ALPHABET) + word[pos:])
                words.append(word[:pos] + word[pos + 1 :])
        verdicts = []
        for word in words:
            direct = bool(validate(word))
            assert check_legal(word).verdict is direct, word
            assert stackmachine.accepts_codewords(word) is direct, word
            verdicts.append(direct)
        assert 0 < verdicts.count(True) < len(words) // 2

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
        assert compare(word, x, y, no_trace) == run
        assert_tapes_clean(tapes)

    def test_letters_checked_once(self, monkeypatch):
        real = codec.check_letters
        calls = []

        def counting_check(word):
            calls.append(word)
            return real(word)

        monkeypatch.setattr(codec, "check_letters", counting_check)
        monkeypatch.setattr(tape, "check_letters", counting_check)
        compare("mrlff", 0, 1)
        assert calls == ["mrlff"]

    def test_error_order(self):
        # letters, then positions, then t cells, then legality
        with pytest.raises(ValueError, match="'x'"):
            compare("tx", 1, 0)
        with pytest.raises(ValueError, match="x_pos < y_pos"):
            compare("ttf", 1, 0)
        with pytest.raises(ValueError, match="not t"):
            compare("ttf", 0, 2)
        with pytest.raises(ValueError, match="legal"):
            compare("lff", 0, 2)

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
                    assert compare(word, cells[a], cells[b], no_trace) == run
        assert_tapes_clean(tapes)

    @staticmethod
    def traced_compare(word, cells, a, b, head):
        """``_compare_on_tape`` of the insertion cells a < b on a traced
        tape from a head on cell head: whether it is descending, and its
        steps from there.  The tape must end restored with the head on cell
        n-1, having reached no further than n-1 or the start head."""
        n = len(word)
        t = BoundedTape(word, no_trace)
        t.seek(head)
        order = tape._compare_on_tape(t, cells, a, b)
        assert t.holds_input(), (word, a, b, head)
        assert (t.head, t.max_cells_touched) == (n - 1, max(head + 1, n)), (word, a, b, head)
        return order is PairOrder.DESCENDING, t.steps - head

    def test_closed_form_matches_primitive_composition(self):
        # every insertion-cell pair of every codeword with n <= 6, then
        # seeded pairs on longer words, where t-runs and stacks run long
        rng = random.Random(2005)
        cases = []
        for n in range(1, 7):
            for word in codewords_with_insertions(n):
                cases += [(word, a, b) for a, b in itertools.combinations(range(n), 2)]
        for _ in range(300):
            n = rng.randint(8, 40)
            word = codec.encode(Permutation(rng.sample(range(1, n + 1), n)))
            cases.append((word, *sorted(rng.sample(range(n), 2))))
        for word, a, b in cases:
            head = rng.randrange(len(word) + 1)
            cells = [i for i, ch in enumerate(word) if ch != "t"]
            traced = self.traced_compare(word, cells, a, b, head)
            assert tape._compare_row(word, cells, a, b, head)[-1] == traced, (word, a, b, head)

    def test_row_entries_match_traced_compare_and_restore(self):
        # every row of every codeword with n <= 6, then one row of each of
        # 24 seeded codewords up to n = 40: entry b is the compare of a and b
        # from a head on cell n-1, where the occurrence search makes it,
        # restore included, which leaves the head and high-water mark on n-1
        rng = random.Random(2026)
        rows = []
        for n in range(2, 7):
            for word in codewords_with_insertions(n):
                rows += [(word, a) for a in range(n - 1)]
        for _ in range(24):
            n = rng.randint(7, 40)
            word = codec.encode(Permutation(rng.sample(range(1, n + 1), n)))
            rows.append((word, rng.randrange(n - 1)))
        for word, a in rows:
            n = len(word)
            cells = [i for i, ch in enumerate(word) if ch != "t"]
            row = tape._compare_row(word, cells, a, len(cells) - 1, n - 1)
            assert len(row) == len(cells) - a - 1, (word, a)
            for b in range(a + 1, len(cells)):
                want = self.traced_compare(word, cells, a, b, n - 1)
                assert row[b - a - 1] == want, (word, a, b)

    @pytest.mark.parametrize("trace", [None, lambda _: None])
    def test_compare_on_a_marked_tape_faults(self, trace):
        t = BoundedTape("mrlff", trace)
        t.seek(3)
        t.write_mark(STAR)
        with pytest.raises(TapeFault, match="does not hold its input"):
            tape._compare_on_tape(t, [0, 1, 2, 3, 4], 0, 1)
        assert (t.head, t.steps) == (3, 4)

    @pytest.mark.parametrize("a, b", [(1, 0), (1, 1), (0, 7), (-1, 2)])
    @pytest.mark.parametrize("trace", [None, lambda _: None])
    def test_compare_outside_its_cells_faults(self, a, b, trace):
        # a after b, a on b, b one past the last insertion cell, a negative a
        t = BoundedTape("mrlmfff", trace)
        with pytest.raises(TapeFault, match="need 0 <= a < b < 7"):
            tape._compare_on_tape(t, list(range(7)), a, b)
        assert (t.head, t.steps) == (0, 0)

    def test_matches_decoded_positions_on_large_words(self):
        # seeded words far past the exhaustive range, where t-runs and star
        # counts run long; the traced run must agree with the untraced one
        rng = random.Random(1985)
        for n in range(20, 61, 5):
            p = rng.sample(range(1, n + 1), n)
            word = codec.encode(Permutation(p))
            cells = [i for i, ch in enumerate(word) if ch != "t"]  # value v at cell[v-1]
            for _ in range(6):
                a, b = sorted(rng.sample(range(1, n + 1), 2))
                want = PairOrder.ASCENDING if p.index(a) < p.index(b) else PairOrder.DESCENDING
                run = compare(word, cells[a - 1], cells[b - 1])
                assert run.verdict is want, (p, a, b)
                assert compare(word, cells[a - 1], cells[b - 1], lambda _: None) == run


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

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_nothing_to_prune_for_12_on_a_decreasing_word(self, m, compares):
        # m..1: every pair is descending, so every pair is a full 12-tuple
        # that fails only on its one compare
        word = "r" * (m - 1) + "f"
        assert accepts_basis(word, Basis([[1, 2]]), no_trace).verdict is True
        assert len(compares) == math.comb(m, 2)

    @pytest.mark.parametrize("m", [4, 5, 8])
    def test_first_pair_prunes_123_on_a_decreasing_word(self, m, compares):
        # every level-1 pair is descending and prunes its subtree; all
        # C(m, 3) triples at C(3, 2) compares each would be 3 * C(m, 3)
        word = "r" * (m - 1) + "f"
        assert accepts_basis(word, Basis([[1, 2, 3]]), no_trace).verdict is True
        assert len(compares) == math.comb(m - 1, 2) < 3 * math.comb(m, 3)

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_first_disagreeing_pair_ends_the_compares_at_y(self, m, compares):
        # 1..m with 312: every level-1 pair is ascending, as 3 1 2 wants of
        # values 1 and 2; at level 2, y against the first cell is ascending,
        # not descending, so y's second compare is never made
        word = "l" * (m - 1) + "f"
        assert accepts_basis(word, Basis([[3, 1, 2]]), no_trace).verdict is True
        assert len(compares) == math.comb(m - 1, 2) + math.comb(m, 3)

    def test_search_stops_at_the_lexicographically_first_occurrence(self, compares):
        rng = random.Random(4)
        checked = 0
        while checked < 30:
            n, k = rng.randrange(5, 10), rng.randrange(2, 5)
            p = rng.sample(range(1, n + 1), n)
            q = rng.sample(range(1, k + 1), k)
            first = first_occurrence(p, q)
            if first is None:
                continue
            word = codec.encode(Permutation(p))
            cell = [i for i, ch in enumerate(word) if ch != "t"]  # value v at cell[v-1]
            compares.clear()
            assert accepts_basis(word, Basis([q]), no_trace).verdict is False
            # the last compares extend the first occurrence's (k-1)-prefix
            # by its last cell: against its left, then its right, positional
            # neighbour among the prefix, the ranks beside k in q
            last = cell[first[-1] - 1]
            beside = positional_neighbours(q, k - 1)
            assert compares[-len(beside):] == [(cell[first[r - 1] - 1], last) for r in beside]
            checked += 1


class TestOccurrenceSearch:
    """The occurrence search compares each candidate with at most its two
    positional neighbours among the chosen cells, and visits the same
    candidates in the same order as comparing with every chosen cell."""

    @staticmethod
    def seeded_pairs(seed, count):
        """(word, q) with n = 9..12 and |q| = 3..6, half built avoiders."""
        rng = random.Random(seed)
        for i in range(count):
            n, k = rng.randint(9, 12), rng.randint(3, 6)
            q = rng.sample(range(1, k + 1), k)
            p = built_avoider(rng, n, q) if i % 2 else rng.sample(range(1, n + 1), n)
            yield codec.encode(Permutation(p)), q

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_increasing_pattern_makes_one_compare_per_level(self, k, compares):
        # 1..8 with 12...k: the first k cells are an occurrence, and each
        # level's one positional neighbour is the level before it, so the
        # search makes k-1 compares, not the C(k, 2) of every chosen cell
        word = "l" * 7 + "f"
        assert accepts_basis(word, Basis([list(range(1, k + 1))]), no_trace).verdict is False
        assert compares == [(j - 1, j) for j in range(1, k)]

    def test_plan_holds_each_levels_positional_neighbours(self):
        for k in range(1, 7):
            for q in itertools.permutations(range(1, k + 1)):
                plan = tape._neighbours(q)
                assert len(plan) == k, q
                for j in range(k):
                    # rank r is chosen at level r-1, and y's entry lies left
                    # of its right neighbour's: that compare is descending
                    expected = tuple(
                        (r - 1, q.index(r) > q.index(j + 1)) for r in positional_neighbours(q, j)
                    )
                    assert plan[j] == expected, (q, j)
        # a bounded cache, built once per pattern however many words meet it
        assert isinstance(tape._neighbours.cache_info().maxsize, int)
        tape._neighbours.cache_clear()
        counting.sequence(Basis([[1, 3, 2], [2, 4, 1, 3]]), 6)
        assert tape._neighbours.cache_info().misses == 2

    def test_each_candidate_meets_only_its_positional_neighbours(self, searched):
        tried = 0
        for word, q in self.seeded_pairs(2010, 60):
            searched.clear()
            accepts_basis(word, Basis([q]), no_trace)
            for prefix, y, xs in candidates(searched):
                # prefix[r-1] holds rank r, and y is a candidate for the next
                beside = [prefix[r - 1] for r in positional_neighbours(q, len(prefix))]
                assert 1 <= len(xs) <= 2, (word, q, prefix, y)
                assert xs == beside[: len(xs)], (word, q, prefix, y)
                tried += 1
        assert tried > 1000

    def test_matches_all_pairs_search_on_small_words(self, searched):
        patterns = [list(q) for k in range(1, 5) for q in itertools.permutations(range(1, k + 1))]
        for n in range(1, 6):
            for word in codewords_with_insertions(n):
                for q in patterns:
                    searched.clear()
                    verdict = accepts_basis(word, Basis([q]), no_trace).verdict
                    tried = [(prefix, y) for prefix, y, _ in candidates(searched)]
                    assert (verdict, tried) == search_by_all_pairs(word, q), (word, q)

    def test_matches_all_pairs_search_on_random_larger_words(self, searched):
        verdicts = set()
        for word, q in self.seeded_pairs(2011, 80):
            searched.clear()
            verdict = accepts_basis(word, Basis([q]), no_trace).verdict
            tried = [(prefix, y) for prefix, y, _ in candidates(searched)]
            assert (verdict, tried) == search_by_all_pairs(word, q), (word, q)
            verdicts.add(verdict)
        assert verdicts == {True, False}


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

    def test_matches_oracle_on_random_larger_words(self):
        # half built avoiders, so the full search runs as often as not
        rng = random.Random(2005)
        for n in range(9, 13):
            for k in (4, 5):
                for built in (True, False) * 8:
                    q = rng.sample(range(1, k + 1), k)
                    p = built_avoider(rng, n, q) if built else rng.sample(range(1, n + 1), n)
                    perm, basis = Permutation(p), Basis([q])
                    want = avoids_basis(perm, basis)
                    assert want or not built, (p, q)
                    assert accepts_basis(codec.encode(perm), basis).verdict is want, (p, q)

    def test_untraced_matches_traced(self):
        # untraced, the search reads its compares from a pair table that the
        # basis's patterns share; traced, every compare runs on the tape.
        # Every codeword with n <= 5 against every pattern with k <= 4, then
        # seeded bases of two and three patterns, where a later pattern
        # reads rows an earlier one built
        patterns = [list(q) for k in range(1, 5) for q in itertools.permutations(range(1, k + 1))]
        cases = [
            (word, Basis([q]))
            for n in range(1, 6)
            for word in codewords_with_insertions(n)
            for q in patterns
        ]
        rng = random.Random(2027)
        for n in [6] * 30 + list(range(9, 15)) * 5:
            lengths = rng.choices((3, 4, 5), k=rng.randint(2, 3))
            basis = [rng.sample(range(1, k + 1), k) for k in lengths]
            if rng.random() < 0.5:  # an avoider of one of the patterns
                p = built_avoider(rng, n, rng.choice(basis))
            else:
                p = rng.sample(range(1, n + 1), n)
            cases.append((codec.encode(Permutation(p)), Basis(basis)))
        verdicts = set()
        for word, basis in cases:
            run = accepts_basis(word, basis)
            assert run == accepts_basis(word, basis, no_trace), (word, basis)
            if len(basis) > 1:
                verdicts.add(run.verdict)
        assert verdicts == {True, False}

    def test_cumulative_counters_cover_all_patterns(self):
        single = accepts_basis("rrf", Basis([[1, 2, 3]]))
        double = accepts_basis("rrf", Basis([[1, 2, 3], [2, 1, 3]]))
        assert double.steps > single.steps


class TestSymmetries:
    """Reverse, complement and inverse preserve avoidance when applied to
    the permutation and the pattern together, so the tape verdict on
    encode(p) against q must be its verdict on the transformed pair; no
    oracle is consulted."""

    @staticmethod
    def reverse(ranks):
        return ranks[::-1]

    @staticmethod
    def complement(ranks):
        return [len(ranks) + 1 - v for v in ranks]

    @staticmethod
    def inverse(ranks):
        inv = [0] * len(ranks)
        for position, value in enumerate(ranks, 1):
            inv[value - 1] = position
        return inv

    @pytest.mark.parametrize("sigma", ["reverse", "complement", "inverse"])
    def test_verdict_is_invariant(self, sigma):
        move = getattr(self, sigma)
        rng = random.Random(1995)
        verdicts = set()
        for built in (True, False) * 10:
            n, k = rng.randint(9, 11), rng.randint(3, 4)
            q = rng.sample(range(1, k + 1), k)
            p = built_avoider(rng, n, q) if built else rng.sample(range(1, n + 1), n)
            verdict = accepts_basis(codec.encode(Permutation(p)), Basis([q])).verdict
            moved = accepts_basis(codec.encode(Permutation(move(p))), Basis([move(q)]))
            assert moved.verdict is verdict, (p, q)
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestIsPrime:
    def test_examples(self):
        assert is_prime(7).verdict is True
        assert is_prime(9).verdict is False
        assert is_prime(1).verdict is False
        assert is_prime(2).verdict is True
        assert is_prime(3).verdict is True

    def test_against_trial_division(self):
        # untraced, the sieve is a closed form that divides by construction,
        # so the traced primitive composition is the independent side
        def trial(n):
            return n >= 2 and all(n % i for i in range(2, int(n**0.5) + 1))

        for trace in (None, lambda _: None):
            for n in range(1, 120):
                run = is_prime(n, trace)
                assert bool(run.verdict) is trial(n), n
                assert run.max_cells_touched <= n + 1

    def test_closed_form_matches_primitive_composition(self, tapes):
        # every n to 150, then the shapes whose rounds end differently: a
        # prime square's first divisor is its root, a power of two and 2p
        # stop in round 2 on a tape no non-dividing round has widened
        primes = [p for p in range(2, 200) if all(p % i for i in range(2, p))]
        ns = set(range(1, 151))
        ns.update(p * p for p in primes if p * p <= 400)
        ns.update(2**e for e in range(1, 9))
        ns.update(2 * p for p in primes)
        for n in sorted(ns):
            lines = []
            tapes.clear()
            traced = is_prime(n, lines.append)
            want = (traced.verdict, traced.steps, traced.max_cells_touched)
            assert tape._sieve_closed_form(n) == want, n
            assert len(lines) == traced.steps, n
            [(_, t)] = tapes
            assert (t.head, t.holds_input()) == (n - 1, True), n

    def test_pinned_counters_at_the_cli_cap(self):
        assert is_prime(4999) == TapeRun(True, 75_065_074, 5000)
        assert is_prime(5000) == TapeRun(False, 32_495, 5000)

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


def test_untraced_procedures_run_no_primitive(monkeypatch):
    # untraced, no procedure builds a tape, so no primitive runs: each
    # returns its verdict and counters from functions of the word (or of
    # n), restore included; the closed-form ledger in ROADMAP.md times
    # whole passes on this premise
    built = []
    inner = BoundedTape.__init__

    def spy(self, word, trace=None):
        built.append(word)
        inner(self, word, trace)

    monkeypatch.setattr(BoundedTape, "__init__", spy)
    bases = [Basis([[2, 1, 3]]), Basis([[1, 3, 2], [2, 4, 1, 3]])]
    pinned = [
        (check_legal, ("",), TapeRun(False, 1, 1)),
        (is_prime, (1,), TapeRun(False, 2, 1)),
        (accepts_basis, ("", Basis([[1], [2, 1]])), TapeRun(False, 1, 1)),
    ]
    for n in range(0, 6):
        for letters in itertools.product(codec.ALPHABET, repeat=n):
            word = "".join(letters)
            check_legal(word)
            for basis in bases:
                accepts_basis(word, basis)
    for n in range(1, 6):
        for word in codewords_with_insertions(n):
            cells = [i for i, ch in enumerate(word) if ch != "t"]
            for x, y in itertools.combinations(cells, 2):
                compare(word, x, y)
    for n in range(1, 60):
        is_prime(n)
    for procedure, args, run in pinned:
        assert procedure(*args) == run, procedure
    assert built == []
    # the spy sees a traced run, and the traced runs pin the same counters
    for procedure, args, run in pinned:
        assert procedure(*args, no_trace) == run, procedure
    assert built == ["", "a", ""]
