"""The layer names that the benchmark's span tracer wraps must exist in the
package, so a renamed or deleted traced function fails here, in tier 1,
rather than only in the minutes-long benchmark smoke test."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
