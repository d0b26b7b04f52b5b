"""Print the code lines of each Python module, without docstrings, comments or blank lines.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched recursively for them; the
default is src/bellkit.  A physical line is a code line when some token
other than a comment, a line break, an indent or a dedent covers it (a
string over several lines covers each of them), and no docstring does.  A
docstring is the string statement that opens a module, class or function
body (ast.get_docstring's rule).  The output is one "count  path" line per
module, in path order, then the total over all of them.
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of a parsed module cover."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one module."""
    with path.open("rb") as source:
        tokens = [t for t in tokenize.tokenize(source.readline) if t.type not in SKIPPED]
    covered = {line for t in tokens for line in range(t.start[0], t.end[0] + 1)}
    return len(covered - docstring_lines(ast.parse(path.read_bytes())))


def modules(paths: list[Path]) -> list[Path]:
    """The .py files that the paths name, in path order."""
    found = [p for path in paths for p in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]
    return sorted(found)


def main(argv: list[str] | None = None) -> int:
    paths = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    total = 0
    for path in modules(paths or [ROOT / "src" / "bellkit"]):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
