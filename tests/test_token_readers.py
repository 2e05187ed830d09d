"""The token readers against the letter-by-letter readers they replaced.

``codec.validate``, ``codec.decode`` and ``stackmachine.accepts_codewords``
read a codeword a token (an insertion letter with its t-run) at a time.
The plain per-letter readers below are the references.  On long seeded
codewords, on copies with one letter changed, on copies whose t-run to
the root is one letter longer, on copies with an l after the last f or
in its place, and on the empty word, the token readers must give the
same reason, the same permutation, and the same stack verdict, counters
and trace; those words reach every reason.  The stack acceptor must
still make one operation call per t-run, insertion letter, push and pop
it reads or makes, and the partition acceptor one per push and per token
its cursor walks down.
``encode_by_cells`` is the plain reference for ``codec.encode``, and the
tokeniser itself must give back every word it reads and name a foreign
letter as every reader does.  ``codec.tokens`` keeps the split of the
last word it read: every reader must read a word alike whatever it read
before, and the tokeniser must split a word again once another word came
between.
"""

import itertools
import random
import re

import pytest
from conftest import run_python, words

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


def accepts_by_letters(word: str, trace) -> tuple[bool, StackMachine]:
    """The stack acceptor, one cursor_down per t."""
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
        trace(
            f"{idx}\t{ch}\tstate={machine.state}"
            f"\tcursor={machine.cursor_depth}\theight={machine.height}"
        )
        if machine.state != START:
            break
    return machine.state == ACCEPT, machine


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
# each seeded codeword with an l after its last f (exhaustion) and with an
# l for it (trailing), then the empty word: kept apart from CASES, whose
# thirds test_cases_reach_the_root_and_one_past_it reads
ENDINGS = [*(word + "l" for word in CASES[0::3]),
           *(word[:-1] + "l" for word in CASES[0::3]), ""]
READ = CASES + ENDINGS


def test_cases_reach_the_root_and_one_past_it():
    legal = CASES[0::3]
    assert all(root_runs(word) for word in legal)
    assert {validate_by_letters(word) for word in legal} == {None}
    # one t more than the run to the root: the first overflow is that t
    for word in CASES[2::3]:
        lines = []
        accepts_by_letters(word, lines.append)
        assert validate_by_letters(word) == codec.REASON_T_OVERFLOW
        assert lines[-1].split("\t")[1:4] == ["t", f"state={FAIL}", "cursor=0"]


def test_cases_reach_every_reason():
    assert {validate_by_letters(word) for word in READ} == {
        None, codec.REASON_EMPTY, codec.REASON_T_OVERFLOW, codec.REASON_EXHAUSTED,
        codec.REASON_TRAILING, codec.REASON_UNFILLED}


@pytest.mark.parametrize("index", range(len(READ)))
def test_validate_matches_letter_scan(index):
    word = READ[index]
    assert codec.validate(word).reason == validate_by_letters(word)


@pytest.mark.parametrize("index", range(len(READ)))
def test_decode_matches_list_splicing(index):
    word = READ[index]
    reason = validate_by_letters(word)
    if reason is None:
        assert codec.decode(word) == decode_by_letters(word)
    else:
        with pytest.raises(IllegalCodewordError) as err:
            codec.decode(word)
        assert err.value.reason == reason


def test_decode_gives_validate_reason_on_every_short_word():
    # decode makes validate's checks in its own pass: same reason, same order
    for word in words(range(8)):
        try:
            perm = codec.decode(word)
        except IllegalCodewordError as err:
            assert err.reason == codec.validate(word).reason, word
        else:
            assert codec.validate(word), word
            assert perm == decode_by_letters(word), word


@pytest.mark.parametrize("index", range(len(READ)))
def test_stack_acceptor_matches_letter_run(index):
    word = READ[index]
    want_lines, got_lines = [], []
    want, reference = accepts_by_letters(word, want_lines.append)
    untraced, traced = StackMachine(), StackMachine()
    assert stackmachine._codewords_on(untraced, word, None) is want
    assert stackmachine._codewords_on(traced, word, got_lines.append) is want
    assert got_lines == want_lines

    def counters(m):
        return m.state, m.pushes, m.pops, m.height, m.cursor_depth

    assert [counters(m) for m in (untraced, traced)] == [counters(reference)] * 2


def read_by_tokens(reader: str, word: str):
    """What a token reader makes of a word: a reason, a permutation, or
    the stack verdict untraced and traced with the trace."""
    if reader == "validate":
        return codec.validate(word).reason
    if reader == "decode":
        try:
            return codec.decode(word)
        except IllegalCodewordError as err:
            return err.reason
    lines = []
    untraced = stackmachine.accepts_codewords(word)
    return untraced, stackmachine.accepts_codewords(word, lines.append), lines


def read_by_letters(reader: str, word: str):
    """read_by_tokens by the letter-by-letter references."""
    if reader == "validate":
        return validate_by_letters(word)
    if reader == "decode":
        return validate_by_letters(word) or decode_by_letters(word)
    lines = []
    accepted = accepts_by_letters(word, lines.append)[0]
    return accepted, accepted, lines


@pytest.mark.parametrize("reader", ["validate", "decode", "accepts_codewords"])
@pytest.mark.parametrize("index", range(len(CASES)))
def test_a_word_reads_alike_after_another(reader, index):
    # A, B, A: the second A comes after another word of the same length
    # or one letter longer, so tokens must split A again, not read B's split
    first = index - index % 3  # the legal word of A's triple
    a, b = CASES[index], CASES[first + (index + 1) % 3]
    want = {word: read_by_letters(reader, word) for word in (a, b)}
    for word in (a, b, a):
        assert read_by_tokens(reader, word) == want[word], (reader, index)


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
    # every push and pop the counters show, every t-run read and every
    # insertion letter read is one call of an operation, with its check
    for word in itertools.chain(READ, words(range(6))):
        lines = []
        accepts_by_letters(word, lines.append)
        read = "".join(line.split("\t")[1] for line in lines)
        for trace in (None, lambda line: None):
            machine = CountingMachine()
            stackmachine._codewords_on(machine, word, trace)
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


def rebuilt(word: str) -> str:
    return "".join("t" * run + letter for run, letter in codec.tokens(word))


def test_tokens_give_back_every_short_word():
    for word in words(range(8)):
        assert rebuilt(word) == word


@pytest.mark.parametrize("word", ["", "t", "ttt", "tf", "ftt", *CASES])
def test_tokens_give_back_the_word(word):
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
]

READERS = {
    "validate": codec.validate,
    "decode": codec.decode,
    "accepts_codewords": stackmachine.accepts_codewords,
    "check_legal": tape.check_legal,
    "accepts_basis": lambda word: tape.accepts_basis(word, Basis([[1, 2]])),
    "tokens": lambda word: list(codec.tokens(word)),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("word, where", FOREIGN)
def test_foreign_letters_are_named(reader, word, where):
    read = READERS[reader]
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
