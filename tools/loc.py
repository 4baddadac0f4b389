"""Count code lines and physical lines per Python module under a directory.

    python tools/loc.py src/heatlab

A code line is any line that is not blank, not a comment line and not part
of a docstring, where a docstring is any string-constant expression
statement (module, class and function docstrings, and a bare string used as
a comment anywhere else).  Physical lines are all lines.  Prints one row per
module, sorted by path, and the totals.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def count(source: str) -> tuple[int, int]:
    """(code lines, physical lines) of one module's source."""
    lines = source.splitlines()
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            skip.update(range(node.lineno, node.end_lineno + 1))
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))
    return code, len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/loc.py DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    rows = [(str(p.relative_to(root)), *count(p.read_text()))
            for p in sorted(root.rglob("*.py"))]
    width = max([len("total")] + [len(name) for name, *_ in rows])
    print(f"{'module':<{width}}  {'code':>6}  {'physical':>8}")
    for name, code, physical in rows:
        print(f"{name:<{width}}  {code:>6}  {physical:>8}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
