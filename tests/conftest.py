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
