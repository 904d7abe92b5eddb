"""The layer names that the benchmark's span tracer wraps must exist in the
package, so a renamed or deleted traced function fails here, in tier 1,
rather than only in the minutes-long benchmark smoke test.  And every other
function, class and method of the package must be referenced from the
package itself, or be on a short named list, so that no entry point that
only a test reaches stays in `src/`."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
SOURCE = ROOT / "src" / "cauchypairs"

# the definitions that no code in the package references, and why each stays
UNREFERENCED = {
    "frame_core.connection_cauchy":
        "the paper's closed-form connection of a parallel Cauchy pair",
    "flow.comoving_metric":
        "the development metric of a comoving family, whose curvature the "
        "planned Ricci isotropy and Cauchy-data read-back checks read",
    "frame_core.ShapeOperator.zero":
        "the zero shape operator, the flat pair, a constructor of the API",
}


@pytest.fixture(scope="module")
def spans():
    # loaded from its file without writing a bytecode cache next to it
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_layer_resolves(spans):
    for module, attrs in spans.LAYERS.items():
        mod = importlib.import_module(f"{spans.PACKAGE}.{module}")
        for attr in attrs:
            obj = mod
            for part in attr.split("."):
                assert hasattr(obj, part), f"{module}.{attr} is traced but missing"
                obj = getattr(obj, part)
            assert callable(obj), f"{module}.{attr} is not callable"


def test_every_traced_kernel_resolves(spans):
    for kernel in spans.KERNELS:
        owner = np.linalg if kernel.startswith("linalg.") else np
        assert callable(getattr(owner, kernel.split(".")[-1]))


def _definitions(body, prefix=""):
    """(qualified name, node) of every function, class and method in `body`."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}{node.name}.")


def test_every_definition_is_referenced(spans):
    # a reference is a Name or Attribute node of the package outside the
    # definition's own body, so a docstring mention or a recursive call
    # does not count; a traced layer is referenced by the benchmark
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    refs = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                ident = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(ident, []).append((module, node.lineno))
    traced = {f"{module}.{attr}" for module, attrs in spans.LAYERS.items() for attr in attrs}
    unreferenced = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(tree.body):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(mod != module or not node.lineno <= line <= node.end_lineno
                       for mod, line in refs.get(node.name, ())):
                unreferenced.add(f"{module}.{qualname}")
    assert unreferenced - traced == set(UNREFERENCED)
