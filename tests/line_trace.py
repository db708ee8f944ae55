"""Print the lines of src/oql that no Tier-1 test runs.

Runs the Tier-1 suite in this process under sys.settrace (and
threading.settrace), recording the lines executed in the modules under
src/oql, then prints, per module, the executable lines that never ran:
the line numbers of the compiled module's code objects that no test
reached. Subprocesses the tests start are not traced. A code object
stops being traced once every one of its lines has run, so hot loops
cost little after their first pass. Needs nothing beyond pytest.

    python tests/line_trace.py            # all of Tier-1
    python tests/line_trace.py tests/test_catalog.py -k schema

Arguments, if any, go to pytest in place of the tests directory. The
exit status is pytest's when pytest fails, else 1 when some executable
line never ran and 0 when every one did, so the list cannot grow
unnoticed.
"""

import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "oql") + os.sep


def code_lines(code) -> set[int]:
    """The line numbers of code's own instructions."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: str) -> set[int]:
    """The line numbers of every code object compiled from path."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines |= code_lines(code)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(lines) -> str:
    """Sorted line numbers as ranges: 3, 7-9, 12."""
    out: list[list[int]] = []
    for line in sorted(lines):
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv: list[str]) -> int:
    # code object -> (its file, its lines not yet run); the file is None
    # outside src/oql, so the global tracer skips such code at once
    pending: dict = {}
    files: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            left = pending[frame.f_code][1]
            left.discard(frame.f_lineno)
            if not left:
                return None  # every line has run: stop tracing this frame
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        entry = pending.get(code)
        if entry is None:
            name = code.co_filename
            if name not in files:
                real = os.path.realpath(name)
                files[name] = real if real.startswith(SRC) else None
            path = files[name]
            entry = pending[code] = (path, code_lines(code) if path else set())
        # the call itself runs the code's first line (its def or decorator)
        entry[1].discard(code.co_firstlineno)
        return local if entry[1] else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(argv or [os.path.join(ROOT, "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran: dict[str, set[int]] = {}
    for code, (path, left) in pending.items():
        if path:
            ran.setdefault(path, set()).update(code_lines(code) - left)
    total = 0
    for dirpath, _, names in sorted(os.walk(SRC)):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                missed = executable_lines(path) - ran.get(path, set())
                total += len(missed)
                if missed:
                    print(f"{os.path.relpath(path, ROOT)}: {len(missed)} "
                          f"line(s) never ran: {spans(missed)}")
    print(f"{total} executable line(s) under src/oql never ran")
    return int(status) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
