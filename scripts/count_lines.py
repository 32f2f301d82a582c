"""Count the physical lines and the code lines of Python modules.

Usage: python3 scripts/count_lines.py [PATH ...]

Each PATH is a .py file or a directory, whose *.py files are counted (not
recursively); the default is this tree's src/bchromatic. Prints one row per
module and a total. Physical lines are what `wc -l` counts. Code lines leave
out blank lines, comment lines and docstrings, so that deleting a docstring
or a comment does not read as a smaller program.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "bchromatic"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    # (start, end) positions of the docstring of the module and of each class
    # and function
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The lines that hold a token other than a comment or a docstring."""
    spans = _docstring_spans(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start < b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths: list[Path]) -> list[Path]:
    found = []
    for path in paths:
        found += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[DEFAULT])
    args = parser.parse_args(argv)
    rows = []
    for path in modules(args.paths):
        text = path.read_text(encoding="utf-8")
        rows.append((path.name, text.count("\n"), code_lines(text)))
    width = max([len(name) for name, _, _ in rows] + [len("total")])
    print(f"{'module':<{width}} {'physical':>8} {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<{width}} {physical:>8} {code:>6}")
    print(f"{'total':<{width}} {sum(r[1] for r in rows):>8} {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
