import pytest

from permlang import stackmachine


def record_machines(monkeypatch) -> list:
    """Record every StackMachine the acceptors create."""
    made = []

    class RecordingMachine(stackmachine.StackMachine):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(stackmachine, "StackMachine", RecordingMachine)
    return made


@pytest.fixture
def machines(monkeypatch):
    """Every StackMachine created during the test, in order."""
    return record_machines(monkeypatch)


def no_trace(line):
    """A trace sink that drops its lines.  Every tape a test builds gets
    it, and a public procedure given it runs every step, restore included,
    on a tape: untraced, none builds one."""


def longest_increasing(seq):
    best = []
    for i, v in enumerate(seq):
        best.append(1 + max((best[j] for j in range(i) if seq[j] < v), default=0))
    return max(best)


def built_avoider(rng, n, q):
    """A random permutation of 1..n avoiding q: LIS(q) - 1 interleaved
    decreasing runs leave no increasing subsequence long enough for q.  A
    decreasing q is avoided by the reverse of an avoider of its reverse."""
    runs = longest_increasing(q) - 1
    if runs == 0:
        return built_avoider(rng, n, q[::-1])[::-1]
    labels = [rng.randrange(runs) for _ in range(n)]
    values = rng.sample(range(1, n + 1), n)
    pools = [
        sorted((v for v, label in zip(values, labels) if label == run), reverse=True)
        for run in range(runs)
    ]
    return [pools[label].pop(0) for label in labels]
