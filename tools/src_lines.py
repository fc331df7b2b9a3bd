"""Print the lines and code lines of each module in a source directory.

    python tools/src_lines.py [DIR]      (DIR defaults to src/vradapt)

One row per ``DIR/*.py`` module, then the total.  A code line is a line
that holds a token which is not a comment, not a line break or an
indent, and not part of a module, class or function docstring; tokens
come from ``tokenize`` and docstrings from ``ast``.  A token spanning
several lines (a multi-line string) puts each of them on the count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree):
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and (
                isinstance(first.value.value, str)
            ):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def count(text):
    """(lines, code lines) of the Python source ``text``."""
    spans = _docstrings(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT or any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv):
    root = Path(argv[0] if argv else "src/vradapt")
    total_lines = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
