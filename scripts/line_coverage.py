"""List the package statements that a pytest run never executes.

    python3 scripts/line_coverage.py [pytest arguments ...]

Runs pytest in this process (on tests/ without arguments) under a
``sys.settrace`` hook that traces lines only in frames whose file lies
under src/repairchain, then prints ``file:line: source`` for each package
statement that never ran, definitions and docstrings skipped; exits 0.
Child processes are not traced, so code that only the CLI subprocess
tests reach counts as not run.  Stdlib only; about 1.7 times slower.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repairchain"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ran: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(PACKAGE) + os.sep) else None


def never_run(path: Path):
    """(line, source) of each statement of path none of whose lines ran."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    docs = {id(n.body[0]) for n in ast.walk(tree)
            if isinstance(n, _DEFS + (ast.Module,)) and ast.get_docstring(n) is not None}
    for n in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        if isinstance(n, ast.stmt) and not isinstance(n, _DEFS) and id(n) not in docs:
            # a compound statement runs its header, which ends where its body starts
            end = n.body[0].lineno if hasattr(n, "body") else n.end_lineno + 1
            if not any((str(path), line) in ran for line in range(n.lineno, end)):
                yield n.lineno, source.splitlines()[n.lineno - 1].strip()


if __name__ == "__main__":
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    threading.settrace(_calls)
    sys.settrace(_calls)
    pytest.main(sys.argv[1:] or [str(ROOT / "tests")])
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in never_run(path):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
