"""The statements of src/hatt that the tier-1 suite never executes.

Run from the repository root:

    python tests/statements.py [extra pytest arguments]

It runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` on
``tests/``) in this process under a ``sys.settrace`` line tracer, before
``hatt`` is imported, then prints ``path:line: statement`` for every
statement of ``src/hatt`` that no test ran, and a count.  A statement is
listed by its first line, if that line starts code; a ``global`` line
compiles to no code, so it is never listed.  Also never listed: the bodies
of ``__repr__`` methods, ``if __name__ == "__main__":`` blocks and
``__main__.py``, which only a session or ``python -m hatt`` runs.  Code
that the suite runs in a subprocess (the demos, ``python -c`` probes) is
not traced.  The suite takes several times as long under the tracer.  The
exit status is pytest's.

This file has no ``test_`` prefix, so pytest does not collect it.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hatt"


def starts_code(code):
    """The lines at which `code`, or a code object nested in it, starts code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= starts_code(const)
    return lines


def statements(path):
    """{first line: source line} of the statements of `path` that start
    code, without the bodies of __repr__ methods and __main__ guards."""
    source = path.read_text()
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
                or isinstance(node, ast.FunctionDef) and node.name == "__repr__"):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    code = starts_code(compile(source, str(path), "exec"))
    lines = source.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node.lineno in code
            and node.lineno not in skipped}


def run_traced(args):
    """Run pytest with `args` under a line tracer of the files in SRC;
    returns pytest's exit status and the set of (path, line) that ran."""
    prefix = str(SRC) + os.sep
    inside, ran = {}, set()

    def trace_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_line

    def trace_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return trace_line if inside[name] else None

    sys.settrace(trace_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), {(Path(os.path.realpath(name)), line) for name, line in ran}


def main():
    sys.path.insert(0, str(SRC.parent))
    status, ran = run_traced([str(ROOT / "tests"), "-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider", *sys.argv[1:]])
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__main__.py":
            continue
        found = statements(path)
        total += len(found)
        for line, text in sorted(found.items()):
            if (path, line) not in ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{missed} of {total} statements in src/hatt never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
