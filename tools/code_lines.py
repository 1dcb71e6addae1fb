"""Count the lines of Python source that hold code.

A line holds code when a token other than a comment or a line break
starts, ends or runs through it, and it lies outside every docstring
(the first statement of a module, class or function when that
statement is a string).  Blank lines, comment lines and docstring
lines are skipped; a multi-line string that is not a docstring counts
on every line it spans.  Stdlib only.

Run from the repository root:

    python tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them; the default
is src/hurwitz.  Prints one count per file, then the total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring of tree spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths: list[str]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for path in map(pathlib.Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    total = 0
    for path in python_files(argv or ["src/hurwitz"]):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print("%6d  %s" % (count, path))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
