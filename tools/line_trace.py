"""List the statements of the package's functions that a pytest run never executed.

Usage: python tools/line_trace.py [PYTEST_ARGS...]

Runs ``pytest.main(PYTEST_ARGS)`` (the ``tests`` directory by default) in
this process under a ``sys.settrace`` line tracer that records only frames
whose code lies in ``src/flocklab/``.  The tracer is installed before
anything imports ``flocklab``, so a function body that runs only at import
time counts as run.  Then one line per statement inside a function that
never ran, ``path:line: first source line``, and a last line with their
count.  A compound statement counts as run when any of its lines ran, its
nested statements included; one that never ran is listed once, without
the statements nested in it.  Docstrings and ``global``/``nonlocal``
declarations execute nothing and are skipped.  Code run only in a child
process is not seen.  The exit status is pytest's.
"""

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SRC = HERE / "src"
PACKAGE = SRC / "flocklab"
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unrun_statements(source: str, executed) -> list:
    """``(line, first source line)`` of each outermost statement inside a function of source that never ran.

    ``executed`` holds the numbers of the lines that ran.  A statement ran
    when any line from its first decorator to its last line did.  Each
    function, nested ones too, is judged on its own body.
    """
    lines = source.splitlines()
    missed = []

    def visit(body):
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            if not any(line in executed for line in range(first, node.end_lineno + 1)):
                missed.append((node.lineno, lines[node.lineno - 1].strip()))
            elif not isinstance(node, _SCOPES):
                visit(_nested(node))

    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(func.body[1:] if ast.get_docstring(func, clean=False) is not None else func.body)
    return sorted(missed)


def _nested(node) -> list:
    """The statements directly nested in a compound statement."""
    out = [*getattr(node, "body", ()), *getattr(node, "orelse", ()), *getattr(node, "finalbody", ())]
    for block in (*getattr(node, "handlers", ()), *getattr(node, "cases", ())):
        out.extend(block.body)
    return out


def _tracer(prefix: str, executed):
    """A ``sys.settrace`` function that adds each line run in a file under prefix to ``executed[file]``."""

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen = executed[filename]

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    return on_call


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    sys.path.insert(0, str(SRC))
    import pytest

    executed = defaultdict(set)
    sys.settrace(_tracer(f"{PACKAGE}{os.sep}", executed))
    try:
        status = pytest.main(argv or [str(HERE / "tests")])
    finally:
        sys.settrace(None)
    count = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, text in unrun_statements(path.read_text(encoding="utf-8"), executed.get(str(path), ())):
            print(f"{path.relative_to(HERE)}:{line}: {text}")
            count += 1
    print(f"{count} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
