"""Each of scipy's private sparse kernels is reached from one checked place.

``scipy.sparse._sparsetools`` runs C loops that check no bounds: a row
index out of range, or a vector of the wrong length, reads or writes
outside an array.  ``problems._matvec`` checks its point before it calls
``csr_matvec``, ``problems._gather`` checks its rows before it calls
``csr_row_index``, and ``LogisticProblem.batch_sum`` checks its stack
of coefficients against the gathered rows before it calls
``csc_matvecs``.  ``problems`` imports the module in ``_import_scipy``
and binds the name to None until then.  This test parses
``src/vradapt/*.py``, loads none of them, and finds every use of the
name ``_sparsetools``, so an unchecked call added anywhere else fails
here rather than corrupting memory.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vradapt"
KERNEL_MODULE = "_sparsetools"

# (file, enclosing function or "<module>", what is used): one entry per use
ALLOWED = Counter([
    ("problems.py", "_import_scipy", "import scipy.sparse._sparsetools"),
    # the None bound at import: _sparsetools = csr_matrix = vstack = expit = None
    ("problems.py", "<module>", "_sparsetools"),
    ("problems.py", "_matvec", "_sparsetools.csr_matvec"),
    ("problems.py", "_gather", "_sparsetools.csr_row_index"),
    ("problems.py", "batch_sum", "_sparsetools.csc_matvecs"),
])


def _uses(path):
    """(file, enclosing function, use) for each appearance of the kernel
    module's name in ``path``: an import naming it, an attribute read
    from it, the bare name (an alias or argument) or a string equal to
    it (``getattr``)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            for alias in node.names:
                name = f"{module}.{alias.name}" if module else alias.name
                if KERNEL_MODULE in name:
                    found.append((path.name, scope, f"import {name}"))
        elif isinstance(node, ast.Attribute) and node.attr == KERNEL_MODULE:
            found.append((path.name, scope, ast.unparse(node)))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
            node.value.id == KERNEL_MODULE
        ):
            found.append((path.name, scope, ast.unparse(node)))
            return
        elif isinstance(node, ast.Name) and node.id == KERNEL_MODULE:
            found.append((path.name, scope, node.id))
        elif isinstance(node, ast.Constant) and node.value == KERNEL_MODULE:
            found.append((path.name, scope, repr(node.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_kernels_are_called_only_from_their_checked_helpers():
    uses = Counter(use for path in sorted(SRC.glob("*.py")) for use in _uses(path))
    # equality of counts, not a subset: the parse must also find the
    # checked calls, and a second alias of the module is one use too many
    assert uses == ALLOWED, sorted((uses - ALLOWED) + (ALLOWED - uses))
