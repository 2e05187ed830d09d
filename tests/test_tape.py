import contextlib
import itertools
import math
import random
import sys

import pytest
from conftest import (avoidance_sweep, basis_sum_cases, built_avoider, compare_sweep,
                      complement, insertion_cells, inverse, no_trace, reverse)

from permlang import codec, counting, stackmachine, tape
from permlang.codec import codewords_with_insertions, decode, validate
from permlang.permutations import Basis, Permutation, avoids_basis
from permlang.tape import (
    BoundedTape,
    DAGGER,
    DOUBLE_STAR,
    NO_MARK,
    STAR,
    TapeFault,
    TapeRun,
    accepts_basis,
    check_legal,
    compare,
    is_prime,
)


def search(word, q):
    """Whether a legal word avoids q by the occurrence search, each compare
    made by ``compare``, and every compare as (prefix, x_pos, y_pos), where
    prefix is the tuple of cells chosen when it is made: a run of equal
    (prefix, y_pos) is one candidate of one level."""
    cells = insertion_cells(word)
    made = []

    def descending(chosen, a, y):
        made.append((tuple(cells[c] for c in chosen), cells[chosen[a]], cells[y]))
        return compare(word, cells[chosen[a]], cells[y]).verdict

    return tape._avoids(cells, tuple(q), descending), made


def candidates(log):
    """Group a ``search`` log into [(prefix, y_pos, [x_pos, ...])], one
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
    cell = insertion_cells(word)
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


class TestBoundedTape:
    def test_each_primitive_costs_one_step(self):
        t = BoundedTape("lf", no_trace)
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
        t = BoundedTape("lf", no_trace)
        t.move_right()
        t.move_right()  # the blank boundary cell
        assert t.read() == (tape.BLANK, NO_MARK)
        with pytest.raises(TapeFault):
            t.move_right()

    def test_max_cells_touched_tracks_head_high_water(self):
        t = BoundedTape("mrlff", no_trace)
        assert t.max_cells_touched == 1
        t.move_right()
        t.move_right()
        t.move_left()
        assert t.max_cells_touched == 3

    def test_marks_are_an_overlay(self):
        t = BoundedTape("mf", no_trace)
        t.write_mark(STAR)
        assert t.read() == ("m", STAR)
        t.write_mark(NO_MARK)
        assert t.read() == ("m", NO_MARK)
        assert t.holds_input()

    def test_seek_charges_one_step_per_cell(self):
        t = BoundedTape("mrlff", no_trace)
        t.seek(4)
        assert (t.head, t.steps, t.max_cells_touched) == (4, 4, 5)
        t.seek(1)
        assert (t.head, t.steps, t.max_cells_touched) == (1, 7, 5)
        t.seek(1)
        assert t.steps == 7

    def test_counts_match_snapshot_reference(self):
        # holds_input() compares the marks with a blank copy; the reference
        # rescans the snapshot, so random programs of seeks, reads, mark
        # writes and clearing scans must keep the two equal and every letter
        # as input
        rng = random.Random(20261018)
        for _ in range(300):
            word = "".join(rng.choice(codec.ALPHABET) for _ in range(rng.randint(0, 6)))
            t = BoundedTape(word, no_trace)
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

    # seek, the sweeps, rewrite_left and restore, which run their primitive
    # loops, must write one trace line per step; each with arguments drawn
    # for a tape of `cap` cells, sometimes outside it, so that both tape
    # ends are reached.  A sweep runs as it is iterated, so it is run to
    # its end.
    PROGRAMS = {
        "seek": lambda rng, cap: (rng.randint(-1, cap),),
        "sweep_right": lambda rng, cap: (),
        "sweep_left": lambda rng, cap: (rng.randint(-1, cap),),
        "rewrite_left": lambda rng, cap: (
            rng.randrange(cap),
            rng.randint(-1, cap),
            rng.choice([tape._UNDO_SHUTTLE, tape._CLEAR]),
        ),
        "restore": lambda rng, cap: (),
    }

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_scan_program_faults_alike_and_traces_each_step(self, name):
        rng = random.Random(name)
        outcomes = set()
        for _ in range(400):
            word = "".join(rng.choice(codec.ALPHABET) for _ in range(rng.randint(0, 9)))
            cap = len(word) + 1
            density = rng.random()
            lines = []
            t = BoundedTape(word, lines.append)
            for i in range(cap):
                if rng.random() < density:
                    t.seek(i)
                    t.write_mark(rng.choice([STAR, STAR, DOUBLE_STAR, DAGGER]))
            t.seek(rng.randrange(cap))
            args = self.PROGRAMS[name](rng, cap)
            try:
                ran = getattr(t, name)(*args)
                if name.startswith("sweep_"):
                    list(ran)
            except TapeFault:
                outcomes.add(True)
                continue
            outcomes.add(False)
            # one line per primitive, the tape's preparation included
            assert len(lines) == t.steps, (word, t.snapshot(), args)
        assert outcomes == ({False, True} if name in self.FAULTING else {False})

    # Programs that fault on some drawn tapes: a drawn cell outside the tape
    # takes seek's, sweep_left's or rewrite_left's head off it, sweep_right
    # from the boundary cell moves past it, and restore finds a marked
    # boundary cell.
    FAULTING = {"restore", "rewrite_left", "seek", "sweep_left", "sweep_right"}

    # Sweeps, each as (word, start head, lo), lo None for sweep_right: a
    # sweep reads each cell from next to the head (the head's own, going
    # right) to its end, and yields it with the head on it.
    SWEEPS = {
        "right-from-cell-0": ("mrltf", 0, None),
        "right-from-inside": ("mrltf", 2, None),
        "right-from-last-cell": ("mrltf", 4, None),
        "right-of-one-letter": ("f", 0, None),
        "left-from-boundary": ("mrltf", 5, 0),
        "left-to-lo": ("mrltf", 4, 2),
        "left-from-lo": ("mrltf", 2, 2),
        "left-from-below-lo": ("mrltf", 1, 3),
    }

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_a_sweep_yields_each_cell_with_the_head_on_it(self, name):
        word, head, lo = self.SWEEPS[name]
        marked = {i for i in (1, 3) if i < len(word)}
        if lo is None:
            cells, cost = list(range(head, len(word))), lambda k: 2 * k + 1
        else:
            cells, cost = list(range(head - 1, lo - 1, -1)), lambda k: 2 * (k + 1)
        want = [(i, (word[i] if i < len(word) else tape.BLANK, STAR if i in marked else NO_MARK))
                for i in cells]

        def prepared():
            t = BoundedTape(word, no_trace)
            for i in marked:
                t.seek(i)
                t.write_mark(STAR)
            t.seek(head)
            return t, t.steps, t.sweep_right() if lo is None else t.sweep_left(lo)

        t, before, sweep = prepared()
        assert t.steps == before, name  # a sweep runs only as it is iterated
        assert [(t.head, cell) for cell in sweep] == want, name
        assert t.head == (cells[-1] if cells else head), name
        assert t.steps - before == (cost(len(cells) - 1) if cells else 0), name
        # broken off after its k-th cell, a sweep leaves the head there
        for k, (i, _) in enumerate(want):
            t, before, sweep = prepared()
            for _ in itertools.islice(sweep, k + 1):
                pass
            assert (t.head, t.steps - before) == (i, cost(k)), (name, k)

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

    # Every way a tape run faults, each as (word, marked cells, start head,
    # the faulting call, its message, whether it faults before the call's
    # first step).  A primitive checks its move before it counts or emits,
    # so the trace of a faulted run stops at the last counted step.
    FAULTS = {
        "move-right-past-boundary": (
            "lf", (), 2, lambda t: t.move_right(), "head moved right past cell 2", True),
        "move-left-past-cell-0": (
            "f", (), 0, lambda t: t.move_left(), "head moved left past cell 0", True),
        "seek-left-of-cell-0": (
            "mrlff", (), 2, lambda t: t.seek(-1), "seek to cell -1 outside 0..5", True),
        "seek-past-boundary": (
            "mrlff", (), 2, lambda t: t.seek(6), "seek to cell 6 outside 0..5", True),
        "seek-far-past-boundary": (
            "mrlff", (), 2, lambda t: t.seek(100), "seek to cell 100 outside 0..5", True),
        "rewrite-below-cell-0": (
            "mrltt", range(5), 3, lambda t: t.rewrite_left(3, -1, tape._CLEAR),
            "rewrite scan down to cell -1", True),
        # the head on the boundary cell, past the word's last cell, which the
        # empty word does not have
        "sweep-right-from-boundary": (
            "mrltt", range(5), 5, lambda t: list(t.sweep_right()),
            "head moved right past cell 5", False),
        "sweep-right-of-empty-word": (
            "", (), 0, lambda t: list(t.sweep_right()), "head moved right past cell 0", False),
        # a sweep down to a cell left of cell 0 moves off the tape
        "sweep-left-below-cell-0": (
            "mrlff", (), 2, lambda t: list(t.sweep_left(-1)), "head moved left past cell 0", False),
        # the clearing scan stops at the last letter and never visits it
        "restore-with-boundary-mark": (
            "lf", (2,), 2, lambda t: t.restore(),
            "tape does not hold the unmarked input word", False),
        # BoundedTape.run checks the start of every procedure it enters
        "legality-on-marked-tape": (
            "mrlff", (3,), 3, lambda t: t.run(tape._check_legal_on_tape),
            "_check_legal_on_tape started on a tape that does not hold its input", True),
        # the empty word's only cell is the boundary
        "legality-on-marked-empty-word": (
            "", (0,), 0, lambda t: t.run(tape._check_legal_on_tape),
            "_check_legal_on_tape started on a tape that does not hold its input", True),
        "compare-on-marked-tape": (
            "mrlff", (3,), 3, lambda t: t.run(tape._compare_on_tape, [0, 1, 2, 3, 4], 0, 1),
            "_compare_on_tape started on a tape that does not hold its input", True),
        "sieve-on-marked-tape": (
            "aaaa", (1,), 2, lambda t: t.run(tape._is_prime_on_tape),
            "_is_prime_on_tape started on a tape that does not hold its input", True),
        # a after b, a on b, b one past the last insertion cell, a negative a
        "compare-outside-its-cells": (
            "mrlmfff", (), 0, lambda t: t.run(tape._compare_on_tape, list(range(7)), 1, 0),
            "compare of insertion cells 1, 0: need 0 <= a < b < 7", True),
        "compare-a-on-b": (
            "mrlmfff", (), 0, lambda t: t.run(tape._compare_on_tape, list(range(7)), 1, 1),
            "compare of insertion cells 1, 1: need 0 <= a < b < 7", True),
        "compare-b-past-last-cell": (
            "mrlmfff", (), 0, lambda t: t.run(tape._compare_on_tape, list(range(7)), 0, 7),
            "compare of insertion cells 0, 7: need 0 <= a < b < 7", True),
        "compare-negative-a": (
            "mrlmfff", (), 0, lambda t: t.run(tape._compare_on_tape, list(range(7)), -1, 2),
            "compare of insertion cells -1, 2: need 0 <= a < b < 7", True),
        "drop-star-with-none-left": (
            "mrlff", (), 4, lambda t: tape._drop_rightmost_star(t, 4),
            "asked to drop a star but none exists", False),
    }

    def run_fault(self, name):
        """Prepare the entry's tape, run its call, and return the tape, the
        fault, its trace lines and the head and steps before the call."""
        word, marked, head, call, _, _ = self.FAULTS[name]
        lines = []
        t = BoundedTape(word, lines.append)
        for i in marked:
            t.seek(i)
            t.write_mark(STAR)
        t.seek(head)
        before = (t.head, t.steps)
        with pytest.raises(TapeFault) as fault:
            call(t)
        return t, fault.value, lines, before

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_a_fault_names_its_cause_and_keeps_the_head_on_the_tape(self, name):
        word, _, _, _, message, precheck = self.FAULTS[name]
        t, fault, _, before = self.run_fault(name)
        assert str(fault) == message, name
        # a precheck leaves head and steps as they were, any other fault moves them
        assert ((t.head, t.steps) == before) is precheck, name
        # the fault fires before the head leaves the |w|+1 cells
        assert 0 <= t.head <= len(word), name
        assert t.max_cells_touched <= len(word) + 1, name

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_a_faulted_run_traces_each_step_up_to_the_fault(self, name):
        t, _, lines, _ = self.run_fault(name)
        # one numbered line per counted step, the last on the head's cell
        assert len(lines) == t.steps, name
        for i, line in enumerate(lines, 1):
            assert line.startswith(f"{i}\t"), (name, i, line)
        if lines:
            assert lines[-1].split("\t")[1] == str(t.head), name


class TestRestore:
    def test_clears_a_mark_left_mid_word(self):
        t = BoundedTape("mrlff", no_trace)
        t.move_right()
        t.move_right()
        t.write_mark(STAR)
        t.restore()
        assert t.holds_input()


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
    def test_verdicts(self, word, expected):
        assert check_legal(word).verdict is expected

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
            cells = insertion_cells(word)
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
            ("mrlff", 0, 1, True),
            ("lf", 0, 1, False),
            ("rf", 0, 1, True),
        ],
    )
    def test_examples(self, word, x, y, expected):
        assert compare(word, x, y).verdict is expected

    def test_letters_checked_once(self, monkeypatch):
        # codec.tokens checks the letters; check_letters only names a
        # foreign one, so a legal word never reaches it
        real = codec.tokens
        calls = []

        def counting_tokens(word):
            calls.append(word)
            return real(word)

        monkeypatch.setattr(codec, "tokens", counting_tokens)
        called = set()  # the code of every Python function called
        previous = sys.getprofile()  # a profiler the suite may run under
        sys.setprofile(lambda frame, event, arg: called.add(frame.f_code))
        try:
            compare("mrlff", 0, 1)
        finally:
            sys.setprofile(previous)
        assert calls == ["mrlff"]
        assert codec.check_letters.__code__ not in called

    def test_error_order(self):
        # letters, then positions, then t cells, then legality
        with pytest.raises(ValueError, match="'x'"):
            compare("tx", 1, 0)
        with pytest.raises(ValueError, match="x_pos < y_pos"):
            compare("ttf", 1, 0)
        with pytest.raises(ValueError, match="x_pos < y_pos"):
            compare("mrlff", 1, 1)
        with pytest.raises(ValueError, match="not t"):
            compare("ttf", 0, 2)
        with pytest.raises(ValueError, match="legal"):
            compare("lff", 0, 2)

    def test_matches_decoded_positions_exhaustively(self):
        # tests/slow_tier.py runs the same sweep at n = 7 and 8
        for n in range(1, 6):
            odd = compare_sweep(n)[1]
            assert not odd, (n, odd[:5])

    def test_matches_decoded_positions_on_large_words(self):
        # seeded words far past the exhaustive range, where t-runs and star
        # counts run long
        rng = random.Random(1985)
        for n in range(20, 61, 5):
            p = rng.sample(range(1, n + 1), n)
            word = codec.encode(Permutation(p))
            cells = insertion_cells(word)
            for _ in range(6):
                a, b = sorted(rng.sample(range(1, n + 1), 2))
                want = p.index(a) > p.index(b)  # descending
                run = compare(word, cells[a - 1], cells[b - 1])
                assert run.verdict is want, (p, a, b)


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

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_nothing_to_prune_for_12_on_a_decreasing_word(self, m):
        # m..1: every pair is descending, so every pair is a full 12-tuple
        # that fails only on its one compare
        word = "r" * (m - 1) + "f"
        avoids, made = search(word, [1, 2])
        assert avoids is True
        assert len(made) == math.comb(m, 2)

    @pytest.mark.parametrize("m", [4, 5, 8])
    def test_first_pair_prunes_123_on_a_decreasing_word(self, m):
        # every level-1 pair is descending and prunes its subtree; all
        # C(m, 3) triples at C(3, 2) compares each would be 3 * C(m, 3)
        word = "r" * (m - 1) + "f"
        avoids, made = search(word, [1, 2, 3])
        assert avoids is True
        assert len(made) == math.comb(m - 1, 2) < 3 * math.comb(m, 3)

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_first_disagreeing_pair_ends_the_compares_at_y(self, m):
        # 1..m with 312: every level-1 pair is ascending, as 3 1 2 wants of
        # values 1 and 2; at level 2, y against the first cell is ascending,
        # not descending, so y's second compare is never made
        word = "l" * (m - 1) + "f"
        avoids, made = search(word, [3, 1, 2])
        assert avoids is True
        assert len(made) == math.comb(m - 1, 2) + math.comb(m, 3)

    def test_search_stops_at_the_lexicographically_first_occurrence(self):
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
            cell = insertion_cells(word)
            avoids, made = search(word, q)
            assert avoids is False
            # the last compares extend the first occurrence's (k-1)-prefix
            # by its last cell: against its left, then its right, positional
            # neighbour among the prefix, the ranks beside k in q
            last = cell[first[-1] - 1]
            beside = positional_neighbours(q, k - 1)
            compares = [(x, y) for _, x, y in made[-len(beside):]]
            assert compares == [(cell[first[r - 1] - 1], last) for r in beside]
            checked += 1


class TestOccurrenceSearch:
    """The occurrence search compares each candidate with at most its two
    positional neighbours among the chosen cells, and visits the same
    candidates in the same order as comparing with every chosen cell."""

    @staticmethod
    def seeded_pairs(seed, count):
        """(word, q) with n = 9..12 and |q| = 3..6, half built avoiders;
        24 of the 70 built ones that the two tests draw are monotone (see
        ``conftest.built_avoider``)."""
        rng = random.Random(seed)
        for i in range(count):
            n, k = rng.randint(9, 12), rng.randint(3, 6)
            q = rng.sample(range(1, k + 1), k)
            p = built_avoider(rng, n, q) if i % 2 else rng.sample(range(1, n + 1), n)
            yield codec.encode(Permutation(p)), q

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_increasing_pattern_makes_one_compare_per_level(self, k):
        # 1..8 with 12...k: the first k cells are an occurrence, and each
        # level's one positional neighbour is the level before it, so the
        # search makes k-1 compares, not the C(k, 2) of every chosen cell
        word = "l" * 7 + "f"
        avoids, made = search(word, range(1, k + 1))
        assert avoids is False
        assert [(x, y) for _, x, y in made] == [(j - 1, j) for j in range(1, k)]

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

    def test_each_candidate_meets_only_its_positional_neighbours(self):
        tried = 0
        for word, q in self.seeded_pairs(2010, 60):
            for prefix, y, xs in candidates(search(word, q)[1]):
                # prefix[r-1] holds rank r, and y is a candidate for the next
                beside = [prefix[r - 1] for r in positional_neighbours(q, len(prefix))]
                assert 1 <= len(xs) <= 2, (word, q, prefix, y)
                assert xs == beside[: len(xs)], (word, q, prefix, y)
                tried += 1
        assert tried > 1000

    def test_matches_all_pairs_search_on_small_words(self):
        patterns = [list(q) for k in range(1, 5) for q in itertools.permutations(range(1, k + 1))]
        for n in range(1, 6):
            for word in codewords_with_insertions(n):
                for q in patterns:
                    verdict, made = search(word, q)
                    tried = [(prefix, y) for prefix, y, _ in candidates(made)]
                    assert (verdict, tried) == search_by_all_pairs(word, q), (word, q)

    def test_matches_all_pairs_search_on_random_larger_words(self):
        verdicts = set()
        for word, q in self.seeded_pairs(2011, 80):
            verdict, made = search(word, q)
            tried = [(prefix, y) for prefix, y, _ in candidates(made)]
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
            odd = avoidance_sweep(n, bases)[1]
            assert not odd, (n, odd[:5])

    def test_matches_oracle_on_random_larger_words(self):
        # half built avoiders, but 25 of the 64 are monotone, not typical
        # avoiders (see conftest.built_avoider)
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

    def test_cumulative_counters_cover_all_patterns(self):
        # legality and the cell sweep run once per word, not once per
        # pattern: a basis run is the single-pattern runs of the s patterns
        # it searches (up to and including the first one contained), less
        # the legality pass and the scan from cell n-1 (3n-2 steps) of each
        # of the s-1 runs after the first.  An illegal word pays legality
        # alone.
        searched = set()
        for word, basis in basis_sum_cases():
            n = len(word)
            run = accepts_basis(word, basis)
            legality = check_legal(word)
            if not legality.verdict:
                assert run == TapeRun(False, legality.steps, n or 1), (word, basis)
                continue
            singles = []
            for pattern in basis:
                singles.append(accepts_basis(word, Basis([pattern])))
                if not singles[-1].verdict:
                    break
            s = len(singles)
            searched.add(s)
            want = sum(single.steps for single in singles) - (s - 1) * (
                legality.steps + 3 * n - 2)
            assert run == TapeRun(singles[-1].verdict, want, n), (word, basis)
        assert searched == {1, 2, 3}


class TestSymmetries:
    """Reverse, complement and inverse preserve avoidance when applied to
    the permutation and the pattern together, so the tape verdict on
    encode(p) against q must be its verdict on the transformed pair.  The
    oracle only draws the inputs: half are uniform permutations it keeps
    as avoiders of q, half uniform ones.  The verdicts are compared with
    each other, never with it."""

    @staticmethod
    def drawn_avoider(rng, n, q):
        # rejection: at n = 11 and k = 3 about one draw in 680 avoids q
        while True:
            p = rng.sample(range(1, n + 1), n)
            if avoids_basis(Permutation(p), Basis([q])):
                return p

    @pytest.mark.parametrize("move", [reverse, complement, inverse], ids=lambda f: f.__name__)
    def test_verdict_is_invariant(self, move):
        rng = random.Random(1995)
        verdicts, monotone = set(), 0
        for drawn in (True, False) * 10:
            n, k = rng.randint(9, 11), rng.randint(3, 4)
            q = rng.sample(range(1, k + 1), k)
            p = self.drawn_avoider(rng, n, q) if drawn else rng.sample(range(1, n + 1), n)
            monotone += drawn and p in (sorted(p), sorted(p, reverse=True))
            verdict = accepts_basis(codec.encode(Permutation(p)), Basis([q])).verdict
            moved = accepts_basis(codec.encode(Permutation(move(p))), Basis([move(q)]))
            assert moved.verdict is verdict, (p, q)
            verdicts.add(verdict)
        assert verdicts == {True, False}
        assert monotone <= 1


class TestIsPrime:
    def test_examples(self):
        assert is_prime(7).verdict is True
        assert is_prime(9).verdict is False
        assert is_prime(1).verdict is False
        assert is_prime(2).verdict is True
        assert is_prime(3).verdict is True

    def test_pinned_counters_at_the_cli_cap(self):
        assert is_prime(4999) == TapeRun(True, 75_065_074, 5000)
        assert is_prime(5000) == TapeRun(False, 32_495, 5000)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_prime(0)


# the package's four records: each is a named tuple, so it is immutable,
# prints its fields by name, hashes as its fields and equals a plain tuple of
# them; (record, a field, repr, truth)
RECORDS = [
    (check_legal("f"), "steps", "TapeRun(verdict=True, steps=3, max_cells_touched=1)", True),
    (codec.Legality(), "reason", "Legality(reason=None)", True),
    (validate("tf"), "reason", "Legality(reason='t-overflow')", False),
    (counting.CountRow(2, 2, 2), "brute", "CountRow(n=2, brute=2, codeword=2)", True),
    (counting.CountTable((counting.CountRow(0, 1, 1),)), "rows",
     "CountTable(rows=(CountRow(n=0, brute=1, codeword=1),))", True),
]


@pytest.mark.parametrize("record, field, text, truth", RECORDS, ids=[r[2] for r in RECORDS])
def test_records_are_frozen_named_tuples(record, field, text, truth):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert repr(record) == text
    assert bool(record) is truth
    twin = type(record)(*record)
    assert twin == record == tuple(record)
    assert hash(twin) == hash(record)


def test_validate_hands_out_shared_verdicts():
    assert validate("mrlff") is validate("f") is codec._LEGAL
    assert validate("tf") is validate("ttf") is codec._ILLEGAL[codec.REASON_T_OVERFLOW]


def test_untraced_procedures_run_no_primitive(monkeypatch):
    # untraced, no procedure builds a tape, so no primitive runs: each
    # returns its verdict and counters from functions of the word (or of
    # n), restore included; the closed-form ledger in ROADMAP.md times
    # whole passes on this premise
    built = []
    inner = BoundedTape.__init__

    def spy(self, word, trace):
        built.append(word)
        inner(self, word, trace)

    monkeypatch.setattr(BoundedTape, "__init__", spy)
    bases = [Basis([[2, 1, 3]]), Basis([[1, 3, 2], [2, 4, 1, 3]])]
    pinned = [
        (check_legal, ("",), TapeRun(False, 1, 1)),
        (is_prime, (1,), TapeRun(False, 2, 1)),
        (accepts_basis, ("", Basis([[1], [2, 1]])), TapeRun(False, 1, 1)),
        # a real word for each public function; the basis run reaches its
        # second pattern
        (check_legal, ("mrlff",), TapeRun(True, 67, 5)),
        (compare, ("mrtff", 0, 4), TapeRun(True, 64, 5)),
        (accepts_basis, ("mrtltff", Basis([[1, 3, 2], [4, 3, 2, 1]])), TapeRun(True, 1533, 7)),
        (is_prime, (12,), TapeRun(False, 73, 12)),
    ]
    for n in range(0, 6):
        for letters in itertools.product(codec.ALPHABET, repeat=n):
            word = "".join(letters)
            check_legal(word)
            for basis in bases:
                accepts_basis(word, basis)
    for n in range(1, 6):
        for word in codewords_with_insertions(n):
            cells = insertion_cells(word)
            for x, y in itertools.combinations(cells, 2):
                compare(word, x, y)
    for n in range(1, 60):
        is_prime(n)
    # == alone would let a verdict of 1 pass for True
    for procedure, args, run in pinned:
        got = procedure(*args)
        assert got == run and got.verdict is run.verdict, procedure
    assert built == []
    # the spy sees a traced run, and the traced runs pin the same counters
    for procedure, args, run in pinned:
        got = procedure(*args, no_trace)
        assert got == run and got.verdict is run.verdict, procedure
    assert built == ["", "a", "", "mrlff", "mrtff", "mrtltff", "a" * 12]
