"""List the lines of ``src/amld3`` that no in-process test runs.

Usage, from anywhere::

    python tests/tools/untested_lines.py [extra pytest args]

Runs the test suite in this process under ``sys.settrace``, recording line
events in ``src/amld3`` only, then prints ``path:line: source`` for each
executable line that was never reached, and a count per file.  Executable
lines are the line numbers of the compiled bytecode, so a line with no code
of its own (``else:``, a docstring) is never listed.  Tests that run the CLI
in a child process are not traced: a line that only they reach is listed
too.  Only the standard library is used (``coverage`` is not needed), and
pytest does not collect this file.  Tracing slows the suite about twofold.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "amld3"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction in the file's code objects."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    reached: dict[Path, set[int]] = defaultdict(set)
    owner: dict[str, Path | None] = {}  # co_filename -> package file

    def local(frame, event, arg):
        if event == "line":
            reached[owner[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            path = Path(name).resolve()
            owner[name] = path if path.parent == PACKAGE else None
        return local if owner[name] else None

    sys.settrace(tracer)
    try:
        code = pytest.main(
            [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *argv]
        )
    finally:
        sys.settrace(None)

    print("\nLines of src/amld3 that no in-process test reached "
          "(CLI subprocess tests are not traced):")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - reached[path])
        text = path.read_text().splitlines()
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}: {text[line - 1].strip()}")
        if missed:
            print(f"{rel}: {len(missed)} untested lines")
        total += len(missed)
    print(f"total: {total} untested lines")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
