"""Every codeword reader against its letter-by-letter reference.

The package reads a codeword a token (an insertion letter with its t-run)
at a time.  ``READERS`` is the one table of those readers: each entry
pairs what a reader makes of a word with what a plain per-letter
reference makes of it.  These are ``codec.validate``'s reason,
``codec.decode``'s permutation or reason, the stack acceptor's verdict,
``tape.check_legal``'s verdict, and the word that ``codec.tokens`` spells
back.  The stack acceptor's untraced run is ``validate``'s scan, and its
reference is the verdict of ``stack_lines_by_letters``, the letter-level
reference of its literal machine.  One test reads each word A of ``READ``
with each reader, then a neighbour B, then A again, and holds all three
reads to the reference.  ``codec.tokens`` keeps the split of the last
word it read, so a reader must read a word alike whatever it read
before.  ``READ`` holds long seeded codewords, copies with one letter
changed, copies whose t-run to the root is one letter longer, copies
with an l after the last f or in its place, the empty word, and copies
with an insertion letter deleted or with a letter put in front of one;
those words reach every reason.  Every reader of the table, and the tape's
occurrence search, must name a foreign letter alike, and so must the
stack acceptor's traced run.

This module is the one home of the codeword acceptor's literal machine.
On ``READ``, on ``LONG_WORDS`` (codewords of n = 20..60 and one-letter
mutants of them), on ``ROOT_WALKS`` and on every word of length <= 7, one
traced pass per word, on a ``CountingMachine``, must write what
``stack_lines_by_letters`` reads off the letters, one line per letter
read, numbered from 0, up to the letter that ended the run: the state
after the letter, the height #m - #f read so far, and the cursor as many
tokens below the top as t's were read since the last insertion letter,
at the root on a failing t.  The machine must end as its last line says,
its pushes must be the m's read and its pops the f's that found a token
above the root, and it must make one operation call per insertion
letter, push and pop it reads or makes, and per t that walks down.
``codec.validate``'s reason must be ``validate_by_letters``' on
``LONG_WORDS`` and on every word of length <= 7.  Untraced, neither
stack acceptor builds a machine, and each returns an exact bool.
``encode_by_cells`` is the plain reference for ``codec.encode``.
"""

import itertools
import random

import pytest
from conftest import (OPERATIONS, CountingMachine, insertion_cells, no_trace, run_python,
                      words)

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
        assert validate_by_letters(word) == codec.REASON_T_OVERFLOW
        assert stack_lines_by_letters(word)[0][-1][1:4] == ["t", f"state={FAIL}", "cursor=0"]


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


def stack_lines_by_letters(word: str) -> tuple[list[list[str]], int, int, bool]:
    """The fields of each trace line the literal machine writes on the
    word, with its pushes, pops and verdict.  A t walks the cursor one
    token down and fails at the root; an insertion letter returns it to
    the top; m pushes; f pops, and on the root accepts iff it is the last
    letter."""
    lines, height, walked, pushes, pops, state = [], 0, 0, 0, 0, START
    for idx, letter in enumerate(word):
        state = START
        if letter == "t":
            walked += 1
            if walked > height:
                state = FAIL
        else:
            walked = 0
            if letter == "m":
                height += 1
                pushes += 1
            elif letter == "f" and height:
                height -= 1
                pops += 1
            elif letter == "f":
                state = ACCEPT if idx == len(word) - 1 else FAIL
        cursor = max(height - walked, 0)
        lines.append([str(idx), letter, f"state={state}", f"cursor={cursor}", f"height={height}"])
        if state != START:
            break
    return lines, pushes, pops, state == ACCEPT


# each codeword reader: what it makes of a word, and what its
# letter-by-letter reference makes of it
READERS = {
    "validate": (lambda word: codec.validate(word).reason, validate_by_letters),
    "decode": (decode_or_reason, lambda word: validate_by_letters(word) or decode_by_letters(word)),
    "accepts_codewords": (stackmachine.accepts_codewords,
                          lambda word: stack_lines_by_letters(word)[3]),
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


# encode(9 1 10 3 8 12 2 7 6 11 5 4): three t-runs walk to the root exactly
ROOT_WALKS = "mtmtmtttrtttrtttmtttfttlfftff"


def test_stack_trace_is_a_line_per_letter_read():
    # the traced run, the literal machine, writes one line per letter, the
    # state after it, and stops at the first state that is not start; one
    # pass per word checks its lines, its machine and its operation calls:
    # one per insertion letter read, push and pop, and one cursor_down()
    # per t that finds the cursor above the root
    for word in itertools.chain(READ, LONG_WORDS, [ROOT_WALKS], words(range(8))):
        lines, machine = [], CountingMachine()
        verdict = stackmachine._codewords_by_letters(machine, word, lines.append)
        want, pushes, pops, accepts = stack_lines_by_letters(word)
        assert [line.split("\t") for line in lines] == want, word
        # the machine ends as its last line says; the empty word reads nothing
        last = want[-1][2:] if want else [f"state={START}", "cursor=0", "height=0"]
        assert [f"state={machine.state}", f"cursor={machine.cursor_depth}",
                f"height={machine.height}"] == last, word
        assert (verdict, machine.pushes, machine.pops) == (accepts, pushes, pops), word
        assert machine.calls == {
            "cursor_down": sum(fields[1:3] == ["t", f"state={START}"] for fields in want),
            "cursor_to_top": sum(fields[1] != "t" for fields in want),
            "push": pushes,
            "pop": pops,
        }, word


def test_stack_acceptor_moves_the_stack_only_by_its_operations(monkeypatch):
    # untraced, neither acceptor builds a machine or calls an operation
    made = []

    def spied(name):
        inner = getattr(StackMachine, name)

        def spy(self):
            made.append(name)
            return inner(self)

        return spy

    for name in ("__init__", *OPERATIONS):
        monkeypatch.setattr(StackMachine, name, spied(name))
    runs = {
        stackmachine.accepts_codewords: itertools.chain(READ, LONG_WORDS, words(range(6))),
        stackmachine.accepts_partition_language: words(range(11), "ab"),
    }
    for accepts, inputs in runs.items():
        verdicts = [accepts(word) for word in inputs]
        assert made == []
        assert set(map(type, verdicts)) == {bool} and len(set(verdicts)) == 2
    # the spy sees traced runs
    assert stackmachine.accepts_codewords("mrtltff", lambda line: None) is True
    assert made == ["__init__", "cursor_to_top", "push", "cursor_to_top", "cursor_down",
                    "cursor_to_top", "cursor_down", "cursor_to_top", "pop", "cursor_to_top"]
    made.clear()
    assert stackmachine.accepts_partition_language("ab", lambda line: None) is True
    assert made == ["__init__", "cursor_to_top", "push", "cursor_to_top", "cursor_down"]


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
# every reader of the table, the stack acceptor's traced run and the
# tape's occurrence search
FOREIGN_READERS = {name: read for name, (read, _) in READERS.items()} | {
    "accepts_codewords traced": lambda word: stackmachine.accepts_codewords(word, no_trace),
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
