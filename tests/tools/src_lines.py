"""Count the lines of each module of ``src/amld3``, by kind.

Usage, from anywhere::

    python tests/tools/src_lines.py

Prints, for each module and as a total, its lines and how many of them are
code, docstring, comment and blank.  A docstring line is any line of a
string-constant expression statement (module, class and function
docstrings, and the strings written under a constant), blank lines inside
it included.  Of the other lines, one that is empty after stripping is
blank, one that starts with ``#`` after stripping is a comment, and the
rest are code.  Only the standard library is used, and pytest does not
collect this file.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "amld3"
KINDS = ("code", "docstring", "comment", "blank")


def count(path: Path) -> dict[str, int]:
    """Lines of one file by kind."""
    text = path.read_text()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            doc.update(range(node.lineno, node.end_lineno + 1))
    tally = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        kind = ("docstring" if number in doc else "blank" if not line
                else "comment" if line.startswith("#") else "code")
        tally[kind] += 1
    return tally


def main() -> None:
    rows = {p.name: count(p) for p in sorted(PACKAGE.glob("*.py"))}
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in KINDS}
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name, r in rows.items():
        print(f"{name:<16}{sum(r.values()):>7}"
              + "".join(f"{r[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main()
