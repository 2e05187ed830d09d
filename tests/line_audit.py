"""Line audit: every executable line of ``src/permlang`` runs in tier-1.

pytest does not collect this file, since its name does not match
``test_*.py``.  It takes no options; run it from anywhere:

    python tests/line_audit.py

It installs a ``sys.settrace`` tracer that follows only code compiled from
``src/permlang`` before anything imports the package, then runs tier-1 in
this process through ``pytest.main``.  A line ran when the tracer saw a
``line`` event on it, or a ``call`` event, which names a code object's
first line.  The executable lines are those of every code object compiled
from each module's source, found through ``co_lines()`` and the code
objects in ``co_consts``.  The script exits 1 naming every executable line
that no test ran, and with tier-1's own status when tier-1 fails.

``__main__.py`` is exempt: tier-1 runs ``python -m permlang`` only in a
subprocess, which this tracer does not follow, so its lines never run
here.  Under the tracer, tier-1 takes several times its usual time:
196-251 s on a 2-core VM under CPython 3.11.7.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "permlang"
EXEMPT = {"__main__.py"}


def line_tracer(ran: dict[str, set[int]]):
    """A global tracer for ``sys.settrace`` that adds to ran[path] every
    line run in a module of the package, path being its real path, and
    follows no other frame."""
    followers = {}  # co_filename: its local tracer, or None

    def follow(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = followers[filename]
        except KeyError:
            path = os.path.realpath(filename)
            local = followers[filename] = (
                follow(ran.setdefault(path, set())) if Path(path).parent == PACKAGE else None)
        # the call event's line is the code object's first line
        return local and local(frame, "line", arg)

    return trace


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from the module's source."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def main() -> int:
    ran: dict[str, set[int]] = {}
    sys.settrace(line_tracer(ran))
    import pytest

    os.chdir(ROOT)
    status = pytest.main(["-q", "--continue-on-collection-errors"])
    sys.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT:
            continue
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path.resolve()), set())):
            print(f"not run: {path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"line audit: {missed} executable lines of src/permlang not run by tier-1")
    return int(status) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main())
