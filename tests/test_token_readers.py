"""Every codeword reader against its letter-by-letter reference.

The package reads a codeword a token (an insertion letter with its t-run)
at a time.  ``READERS`` is the one table of those readers: each entry
pairs what a reader makes of a word with what a plain per-letter
reference makes of it.  These are ``codec.validate``'s reason,
``codec.decode``'s permutation or reason, the stack acceptor's verdict
with its machine's state and counters, untraced and traced, and its
trace, ``tape.check_legal``'s verdict, and the word that ``codec.tokens``
spells back.  One test reads each word A of ``READ`` with each reader,
then a neighbour B, then A again, and holds all three reads to the
reference.  ``codec.tokens`` keeps the split of the last word it read, so
a reader must read a word alike whatever it read before.  ``READ`` holds
long seeded codewords, copies with one letter changed, copies whose t-run
to the root is one letter longer, copies with an l after the last f or in
its place, the empty word, and copies with an insertion letter deleted or
with a letter put in front of one; those words reach every reason.  Every
reader of the table, and the tape's occurrence search, must name a
foreign letter alike.

This module is the one home of the codeword acceptor's verdict and
counters: on ``READ``, on ``LONG_WORDS`` (codewords of n = 20..60 and
one-letter mutants of them) and on every word of length <= 5, untraced
and traced, they must be ``accepts_by_letters``'.  ``codec.validate``'s
reason must be ``validate_by_letters``' on ``LONG_WORDS`` and on every word
of length <= 7.  The stack acceptor must also make one operation call per
t-run, insertion letter, push and pop it reads or makes, and the partition
acceptor one per push and per token its cursor walks down.
``encode_by_cells`` is the plain reference for ``codec.encode``.
"""

import itertools
import random
import re

import pytest
from conftest import insertion_cells, run_python, words

from permlang import codec, stackmachine, tape
from permlang.codec import ALPHABET, IllegalCodewordError, encode
from permlang.permutations import Basis, Permutation, all_permutations
from permlang.stackmachine import ACCEPT, FAIL, START, StackMachine

SEED = 2005
COUNT = 10


def validate_by_letters(word: str) -> str | None:
    """The validate reason, None for a legal word."""
    if not word:
        return codec.REASON_EMPTY
    slots, t_run = 1, 0
    for ch in word:
        if slots == 0:
            return codec.REASON_EXHAUSTED
        if ch == "t":
            t_run += 1
            if t_run > slots - 1:
                return codec.REASON_T_OVERFLOW
        else:
            if ch == "m":
                slots += 1
            elif ch == "f":
                slots -= 1
            t_run = 0
    if word[-1] != "f":
        return codec.REASON_TRAILING
    if slots != 0:
        return codec.REASON_UNFILLED
    return None


def decode_by_letters(word: str) -> Permutation:
    """Decode a legal word by splicing a list of entries and open slots."""
    items: list[int | None] = [None]
    next_entry, next_slot = 1, 1
    for ch in word:
        if ch == "t":
            next_slot += 1
            continue
        idx = -1
        for _ in range(next_slot):
            idx = items.index(None, idx + 1)
        if ch == "l":
            items[idx : idx + 1] = [next_entry, None]
        elif ch == "r":
            items[idx : idx + 1] = [None, next_entry]
        elif ch == "m":
            items[idx : idx + 1] = [None, next_entry, None]
        else:
            items[idx] = next_entry
        next_entry += 1
        next_slot = 1
    return Permutation(items)


def encode_by_cells(perm: Permutation) -> str:
    """Encode by counting, for each entry, the open runs of unfilled cells
    that end before its cell (an unfilled cell followed by a filled one)."""
    n = len(perm)
    cell = [0] * n  # cell[v - 1]: the cell of value v
    for pos, value in enumerate(perm.ranks, 1):
        cell[value - 1] = pos
    filled = bytearray(n + 2)
    filled[0] = filled[n + 1] = 1
    out: list[str] = []
    for pos in cell:
        out.append("t" * filled.count(b"\x00\x01", 0, pos))
        if filled[pos - 1]:
            out.append("f" if filled[pos + 1] else "l")
        else:
            out.append("r" if filled[pos + 1] else "m")
        filled[pos] = 1
    return "".join(out)


def counters(machine: StackMachine) -> tuple:
    """The machine's state, pushes, pops, height and cursor."""
    return machine.state, machine.pushes, machine.pops, machine.height, machine.cursor_depth


def accepts_by_letters(word: str, trace=None) -> tuple[bool, tuple]:
    """The stack acceptor, one cursor_down per t: its verdict and its
    machine's counters."""
    machine = StackMachine()
    last = len(word) - 1
    for idx, ch in enumerate(word):
        if ch in "lr":
            machine.cursor_to_top()
        elif ch == "m":
            machine.cursor_to_top()
            machine.push()
        elif ch == "f":
            machine.cursor_to_top()
            if machine.height == 0:
                machine.state = ACCEPT if idx == last else FAIL
            else:
                machine.pop()
        else:  # t
            if machine.cursor_depth == 0:
                machine.state = FAIL
            else:
                machine.cursor_down()
        if trace is not None:
            trace(
                f"{idx}\t{ch}\tstate={machine.state}"
                f"\tcursor={machine.cursor_depth}\theight={machine.height}"
            )
        if machine.state != START:
            break
    return machine.state == ACCEPT, counters(machine)


def root_runs(word: str) -> list[int]:
    """Positions of the insertion letters whose t-run ends at the root:
    the run has slots - 1 letters, the most a legal word allows."""
    slots, t_run, found = 1, 0, []
    for i, ch in enumerate(word):
        if ch == "t":
            t_run += 1
            continue
        if t_run and t_run == slots - 1:
            found.append(i)
        slots += (ch == "m") - (ch == "f")
        t_run = 0
    return found


def make_cases() -> list[str]:
    rng = random.Random(SEED)
    words = []
    for _ in range(COUNT):
        n = rng.randint(100, 300)
        word = encode(Permutation(rng.sample(range(1, n + 1), n)))
        pos = rng.randrange(len(word))
        letter = rng.choice([ch for ch in ALPHABET if ch != word[pos]])
        past = rng.choice(root_runs(word))
        words.append(word)
        words.append(word[:pos] + letter + word[pos + 1 :])
        words.append(word[:past] + "t" + word[past:])
    return words


CASES = make_cases()
SEEDED = CASES[0::3]
# each seeded codeword with an l after its last f (exhaustion) and with an
# l for it (trailing), then the empty word: kept apart from CASES, whose
# thirds test_cases_reach_the_root_and_one_past_it reads
ENDINGS = [*(word + "l" for word in SEEDED), *(word[:-1] + "l" for word in SEEDED), ""]


def make_splices() -> list[str]:
    """Each seeded codeword with one insertion letter deleted, then each
    with a letter put in front of one: one letter shorter and one longer."""
    rng = random.Random(SEED + 1)
    deleted, inserted = [], []
    for word in SEEDED:
        cells = insertion_cells(word)
        pos = rng.choice(cells)
        deleted.append(word[:pos] + word[pos + 1 :])
        pos = rng.choice(cells)
        inserted.append(word[:pos] + rng.choice(ALPHABET) + word[pos:])
    return deleted + inserted


SPLICES = make_splices()
READ = CASES + ENDINGS + SPLICES


def stack_long_words() -> list[str]:
    """encode(p) for seeded p with n = 20..60, each followed by a copy with
    one letter changed.  Of every five copies, one ends in l, r or m, one
    fills the slot of its last l or r (so the slots run out early), and
    three change a seeded position to a seeded other letter."""
    rng = random.Random(2)
    words = []
    for i in range(30):
        n = rng.randint(20, 60)
        word = encode(Permutation(rng.sample(range(1, n + 1), n)))
        if i % 5 == 0:
            pos, letter = len(word) - 1, rng.choice("lrm")
        elif i % 5 == 1:
            pos, letter = max(word.rfind("l"), word.rfind("r")), "f"
        else:
            pos = rng.randrange(len(word))
            letter = rng.choice([ch for ch in ALPHABET if ch != word[pos]])
        words += [word, word[:pos] + letter + word[pos + 1 :]]
    return words


# shorter than READ's words: codewords of n = 20..60 and their mutants
LONG_WORDS = stack_long_words()
# B for each A = READ[i], read between two reads of A.  A word of a CASES
# triple (seeded, one letter changed, one t more) is followed by the next
# word of its triple, and the third by the first: B has A's length, one
# letter more and one letter less, in turn.  An ending is followed by the
# seeded word it was made from, one letter shorter or of A's length, and
# the empty word by "f", one letter longer.  A splice is followed by the
# seeded word it was made from, one letter longer or one letter shorter.
NEIGHBOURS = [*(CASES[i - i % 3 + (i + 1) % 3] for i in range(len(CASES))),
              *SEEDED, *SEEDED, "f", *SEEDED, *SEEDED]


def test_cases_reach_the_root_and_one_past_it():
    assert all(root_runs(word) for word in SEEDED)
    assert {validate_by_letters(word) for word in SEEDED} == {None}
    # one t more than the run to the root: the first overflow is that t
    for word in CASES[2::3]:
        lines = []
        accepts_by_letters(word, lines.append)
        assert validate_by_letters(word) == codec.REASON_T_OVERFLOW
        assert lines[-1].split("\t")[1:4] == ["t", f"state={FAIL}", "cursor=0"]


def test_cases_reach_every_reason():
    nonempty = {None, codec.REASON_T_OVERFLOW, codec.REASON_EXHAUSTED,
                codec.REASON_TRAILING, codec.REASON_UNFILLED}
    assert {validate_by_letters(word) for word in READ} == nonempty | {codec.REASON_EMPTY}
    reasons = [codec.validate(word).reason for word in LONG_WORDS]
    assert reasons == [validate_by_letters(word) for word in LONG_WORDS]
    assert set(reasons) == nonempty


def rebuilt(word: str) -> str:
    """The word that codec.tokens spells back."""
    return "".join("t" * run + letter for run, letter in codec.tokens(word))


def decode_or_reason(word: str) -> Permutation | str:
    try:
        return codec.decode(word)
    except IllegalCodewordError as err:
        return err.reason


def acceptor_on_fresh_machine(word: str, trace) -> tuple[bool, tuple]:
    machine = StackMachine()
    return stackmachine._codewords_on(machine, word, trace), counters(machine)


def untraced_and_traced(run):
    """A stack run read untraced, then traced, with the trace lines."""
    def read(word):
        lines = []
        return run(word, None), run(word, lines.append), lines

    return read


# each codeword reader: what it makes of a word, and what its
# letter-by-letter reference makes of it
READERS = {
    "validate": (lambda word: codec.validate(word).reason, validate_by_letters),
    "decode": (decode_or_reason, lambda word: validate_by_letters(word) or decode_by_letters(word)),
    "accepts_codewords": (untraced_and_traced(acceptor_on_fresh_machine),
                          untraced_and_traced(accepts_by_letters)),
    "check_legal": (lambda word: tape.check_legal(word).verdict,
                    lambda word: validate_by_letters(word) is None),
    "tokens": (rebuilt, lambda word: word),
}


@pytest.mark.parametrize("index", range(len(READ)))
@pytest.mark.parametrize("reader", READERS)
def test_reader_matches_its_reference_after_another_word(reader, index):
    # A, B, A: the second A comes after another word, so tokens must split
    # A again, not read B's split
    read, reference = READERS[reader]
    a, b = READ[index], NEIGHBOURS[index]
    want_a, want_b = reference(a), reference(b)
    assert read(a) == want_a, "A"
    assert read(b) == want_b, "B"
    assert read(a) == want_a, "A after B"


def test_decode_gives_validate_reason_on_every_short_word():
    # decode makes validate's checks in its own pass: same reason, same order
    for word in words(range(8)):
        reason = codec.validate(word).reason
        assert reason == validate_by_letters(word), word
        try:
            perm = codec.decode(word)
        except IllegalCodewordError as err:
            assert err.reason == reason, word
        else:
            assert codec.validate(word), word
            assert perm == decode_by_letters(word), word


OPERATIONS = ("cursor_down", "cursor_to_top", "push", "pop")


def counted(name: str):
    def operation(self, *args):
        self.calls[name] += 1
        return getattr(StackMachine, name)(self, *args)

    return operation


class CountingMachine(StackMachine):
    """A StackMachine that counts the calls of each stack operation."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = dict.fromkeys(OPERATIONS, 0)

    cursor_down, cursor_to_top, push, pop = map(counted, OPERATIONS)


def test_stack_acceptor_moves_the_stack_only_by_its_operations():
    # the verdict and counters, untraced and traced, are the reference's;
    # every push and pop the counters show, every t-run read and every
    # insertion letter read is one call of an operation, with its check
    for word in itertools.chain(READ, LONG_WORDS, words(range(6))):
        lines = []
        want = accepts_by_letters(word, lines.append)
        read = "".join(line.split("\t")[1] for line in lines)
        for trace in (None, lambda line: None):
            machine = CountingMachine()
            verdict = stackmachine._codewords_on(machine, word, trace)
            assert (verdict, counters(machine)) == want, word
            assert machine.calls == {
                "cursor_down": len(re.findall("t+", read)),
                "cursor_to_top": len(read) - read.count("t"),
                "push": machine.pushes,
                "pop": machine.pops,
            }, word
    # the partition acceptor never pops, and a letter that leaves the run
    # going and the height as it was walks down one token: one cursor_down()
    for word in words(range(11), "ab"):
        lines = []
        untraced, traced = CountingMachine(), CountingMachine()
        stackmachine._partitions_on(untraced, word, None)
        stackmachine._partitions_on(traced, word, lines.append)
        heights = [0] + [int(line.rsplit("=", 1)[1]) for line in lines]
        steps = sum(
            before == after and f"state={START}" in line
            for before, after, line in zip(heights, heights[1:], lines)
        )
        for machine in (untraced, traced):
            calls = machine.calls
            assert calls["cursor_down"] == steps, word
            assert (calls["push"], calls["pop"]) == (machine.pushes, machine.pops), word
            assert machine.pops == 0, word


def test_tokens_give_back_every_short_word():
    for word in words(range(8)):
        assert rebuilt(word) == word


def test_tokens_name_each_run_and_letter():
    assert list(codec.tokens("mrtltff")) == [
        (0, "m"), (0, "r"), (1, "l"), (1, "f"), (0, "f")
    ]
    assert list(codec.tokens("ftt")) == [(0, "f"), (2, "")]
    assert list(codec.tokens("ttt")) == [(3, "")]
    assert list(codec.tokens("")) == []


FOREIGN = [
    # "|", "\0" and "\xff" are bytes a byte-level letter test could take
    # for its own
    ("l|f", "'|' at position 1"),
    ("r\xfff", "'\xff' at position 1"),
    ("m\x00f", "'\\x00' at position 1"),
    ("lF", "'F' at position 1"),
    ("\uff46", "'\uff46' at position 0"),  # fullwidth f
    ("l\u00e9", "'\u00e9' at position 1"),
    ("r\u0661f", "'\u0661' at position 1"),  # Arabic-Indic digit one
    ("l\ud800f", "'\\ud800' at position 1"),  # a lone surrogate has no UTF-8
    ("fx", "'x' at position 1"),  # the f on the root ends a stack run before x
]
# every reader of the table, and the tape's occurrence search
FOREIGN_READERS = {name: read for name, (read, _) in READERS.items()} | {
    "accepts_basis": lambda word: tape.accepts_basis(word, Basis([[1, 2]]))}


@pytest.mark.parametrize("reader", sorted(FOREIGN_READERS))
@pytest.mark.parametrize("word, where", FOREIGN)
def test_foreign_letters_are_named(reader, word, where):
    read = FOREIGN_READERS[reader]
    before = read("mrtltff")
    for _ in range(2):  # a word that raises is never kept: it raises again
        with pytest.raises(ValueError) as err:
            read(word)
        assert type(err.value) is ValueError
        assert str(err.value) == f"letter {where} is not one of 'lrmft'"
    assert read("mrtltff") == before


FIRST_READ = """
from permlang.codec import tokens, validate
from permlang.stackmachine import accepts_codewords
word = {word!r}
print(list(tokens(word)), list(tokens(word)), validate(word).reason, accepts_codewords(word))
"""


@pytest.mark.parametrize(
    "word, want",
    [("", "[] [] empty-word False"), ("ttt", "[(3, '')] [(3, '')] t-overflow False")],
)
def test_a_process_first_reads_a_word_without_letters(word, want):
    # the kept split starts with no word, so even the empty word is split
    done = run_python("-c", FIRST_READ.format(word=word))
    assert (done.returncode, done.stdout, done.stderr) == (0, want + "\n", "")


def test_equal_words_read_alike_whatever_the_object():
    word = CASES[0]
    twin = "".join(list(word))
    assert twin == word and twin is not word
    assert list(codec.tokens(word)) == list(codec.tokens(twin))
    assert rebuilt(twin) == word


class SplitCountingWord(str):
    """A word that counts how often it is encoded, once per split."""

    def __init__(self, text):
        self.splits = 0

    def encode(self, *args, **kwargs):
        self.splits += 1
        return super().encode(*args, **kwargs)


def test_tokens_keep_one_split():
    rebuilt("mrlff")  # any other word, so that neither word below is kept
    a, b = SplitCountingWord(CASES[0]), SplitCountingWord(CASES[3])
    # the round trip's readers, one after another, split a word once
    codec.validate(a), stackmachine.accepts_codewords(a), codec.decode(a)
    assert a.splits == 1
    # A, B, A: one entry, so B puts A out and A is split again
    for word in (b, a):
        assert rebuilt(word) == word
    assert (a.splits, b.splits) == (2, 1)


@pytest.mark.parametrize("index", range(0, len(CASES), 3))
def test_encode_matches_cell_counts_on_seeded_permutations(index):
    perm = decode_by_letters(CASES[index])
    assert len(perm) >= 100
    assert codec.encode(perm) == encode_by_cells(perm)


def test_encode_matches_cell_counts_up_to_seven():
    for n in range(1, 8):
        for perm in all_permutations(n):
            assert codec.encode(perm) == encode_by_cells(perm)
