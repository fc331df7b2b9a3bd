"""The prose in ``src/vradapt`` holds no timing figure and no dangling pointer.

A contract is stated once, at the code that keeps it, and other
docstrings point to it by name (``problems._ordered_sum``,
``_client_rows``); measurements belong to CHANGES.md and the
``BENCH_<pr>.json`` files, not to the source, where they go stale with
the host.  These tests parse each module, docstrings by ``ast`` and
comments by ``tokenize`` as ``tools/src_lines.py`` reads them, so a
rename that strands a pointer, or a figure written back into a
docstring, fails here.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vradapt"
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

TIMING = re.compile(r"\d(?:\.\d+)?\s?(?:ns|us|µs|ms|s)\b|\btimeit\b")
POINTER = re.compile(r"``(.+?)``")


def _prose(path):
    """(line number, text) of every docstring and comment line of ``path``."""
    text = path.read_text()
    lines = text.splitlines()
    found = []
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and (
                isinstance(first.value.value, str)
            ):
                found += [(no, lines[no - 1]) for no in range(first.lineno, first.end_lineno + 1)]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            found.append((tok.start[0], tok.string))
    return found


def _defined_names():
    """Every name ``src/vradapt`` defines: functions, classes, parameters,
    and the targets of assignments, attributes included."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
    return names


def test_no_timings_in_src():
    hits = [
        f"{path.name}:{no}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for no, line in _prose(path)
        if TIMING.search(line)
    ]
    assert not hits, "\n".join(hits)


def test_doc_pointers_resolve():
    defined = _defined_names()
    dangling, checked = [], 0
    for path in sorted(SRC.glob("*.py")):
        # a pointer may wrap onto the next line of its docstring
        prose = " ".join(line.strip().lstrip("#") for _, line in _prose(path))
        for span in POINTER.findall(prose):
            dotted = re.match(r"(\w+)\.(\w+)", span)
            if dotted and dotted[1] in MODULES:
                checked += 1
                module = importlib.import_module(f"vradapt.{dotted[1]}")
                if not hasattr(module, dotted[2]):
                    dangling.append(f"{path.name}: ``{span}``")
            private = re.match(r"_\w+", span)
            if private:
                checked += 1
                if private[0] not in defined:
                    dangling.append(f"{path.name}: ``{span}``")
    # the parse finds the pointers at all
    assert checked > 20
    assert not dangling, dangling
