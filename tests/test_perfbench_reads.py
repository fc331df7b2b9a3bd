"""Every vradapt attribute the benchmark reads exists.

``perfbench/*.py`` imports vradapt's modules by name and reads their
attributes (``estimators.METHODS``, ``compressors.TopK``, ...).  This
test parses those files, loads none of them and writes nothing under
``perfbench/``, and looks each ``<module>.<attr>`` read up in the
module, so deleting or renaming a name the benchmark uses fails here
rather than in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"data", "engine", "estimators", "problems", "verify", "compressors", "schedulers"}


def _reads(path):
    """(module, attribute, line) for each ``<module>.<attr>`` in ``path``,
    the module bound by a ``from vradapt import ...`` in that file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "vradapt" and node.level == 0
        for alias in node.names
        if alias.name in MODULES
    }
    return [
        (bound[node.value.id], node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in bound
    ]


def test_perfbench_reads_only_names_vradapt_has():
    reads = [(path.name, *read) for path in sorted(PERFBENCH.glob("*.py")) for read in _reads(path)]
    # the parse finds the reads: the tracer's patch targets among them
    assert ("tracing.py", "compressors", "TopK") in {read[:3] for read in reads}
    missing = [
        f"{name}:{line}: vradapt.{module}.{attr}"
        for name, module, attr, line in reads
        if not hasattr(importlib.import_module(f"vradapt.{module}"), attr)
    ]
    assert not missing, missing
