"""List every ``raise`` line in ``src/stabkit`` that no in-process test reaches.

Run from anywhere, with extra pytest arguments if wanted:

    python tests/unreached_raises.py [PYTEST_ARGS...]

The script runs the test suite in this process under ``sys.settrace``
and prints ``path:line`` for each ``raise`` statement that never ran,
then a count.  Only this process is traced: a line that only tests
running ``stabkit`` in a subprocess reach is listed as unreached too.
The exit status is pytest's when the suite fails, else 0.  pytest does
not collect this file, since its name does not start with ``test_``.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stabkit"


def raise_lines() -> dict[str, set[int]]:
    """Line numbers of the raise statements of each package module."""
    return {
        str(path): {node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Raise)}
        for path in sorted(PACKAGE.glob("*.py"))
    }


def main(argv: list[str]) -> int:
    pending = raise_lines()

    def local(frame, event, arg):
        if event == "line":
            pending[frame.f_code.co_filename].discard(frame.f_lineno)
        return local

    def call(frame, event, arg):
        # trace only the package's frames, and only while their module has a raise left
        return local if pending.get(frame.f_code.co_filename) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    left = [(Path(name).relative_to(ROOT), line) for name, lines in pending.items() for line in sorted(lines)]
    for path, line in left:
        print(f"{path}:{line}")
    print(f"{len(left)} raise lines reached by no in-process test")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
