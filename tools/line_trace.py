"""Statements of trapwalk that the test suite never runs.

    python tools/line_trace.py [PYTEST_ARGS ...]

Runs pytest in this process (by default ``-q --continue-on-collection-errors``
over the ``tests`` directory, the tier-1 suite; any arguments given replace
the directory) under a ``sys.settrace`` tracer that records the lines run in
the files of ``src/trapwalk`` and of nothing else.  It then prints, for each
module, the statements none of whose header lines ran, with their line
numbers and first lines, and how many statements that leaves out of how
many.  A statement's header is its own lines for a simple statement and the
lines before its body for a compound one (decorators included); a ``try``
counts as run when the first line of its body does.  Docstrings are not
statements.  Code that runs only in a subprocess of the suite, such as a
``python -m trapwalk`` call, is not seen.  trapwalk is imported from the
``src`` directory of the tree this file sits in.  Besides pytest, only the
standard library and ``tools/code_lines.py`` (for the docstring lines) are
used.  The exit status is 0 whatever the tests give; their own summary is
printed above the report.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

from code_lines import docstring_lines

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trapwalk"
_PREFIX = str(SRC) + "/"


def statements(tree: ast.Module) -> dict[int, range]:
    """The header lines of each statement of a module but its docstrings,
    keyed by the statement's line."""
    docstrings = docstring_lines(tree)
    headers = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in docstrings:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        if not body:
            end = node.end_lineno
        elif isinstance(node, (ast.Try, ast.TryStar)):
            end = body[0].lineno
        else:
            end = max(node.lineno, body[0].lineno - 1)
        headers[node.lineno] = range(start, end + 1)
    return headers


def trace(pytest_args: list[str]) -> dict[str, set[int]]:
    """Run pytest with ``pytest_args`` and return the lines run in each
    file under ``src/trapwalk``."""
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        # Frames made at interpreter shutdown may have no file name.
        filename = frame.f_code.co_filename
        if filename is None or not filename.startswith(_PREFIX):
            return None
        ran.setdefault(filename, set())
        return local

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(start)
    sys.settrace(start)
    try:
        pytest.main(["-q", "--continue-on-collection-errors", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def main(argv: list[str]) -> int:
    ran = trace(argv or [str(ROOT / "tests")])
    missed_total = total = 0
    print()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        headers = statements(ast.parse(source))
        seen = ran.get(str(path), set())
        missed = [line for line, header in sorted(headers.items()) if seen.isdisjoint(header)]
        missed_total += len(missed)
        total += len(headers)
        print(f"{path.stem}: {len(missed)} of {len(headers)} statements never ran")
        for line in missed:
            print(f"  {line:5d}  {lines[line - 1].strip()}")
    print(f"total: {missed_total} of {total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
