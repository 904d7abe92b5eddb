"""Span tracing of the package's layers from outside the package.

`Tracer.installed()` replaces each traced function with a wrapper that
records a span (name, start, end, parent, computed bytes) and restores the
originals on exit.  A name is replaced in every namespace that binds the
same object, since modules import some functions by name (`flow` binds
`interior_max4` and `Metric4Grid` from `spacetime_verifier`).  Spans stay in
memory; `write()` dumps them once the run is over.

Self time is a span's duration minus the time its child spans cover.  A
numpy kernel span is attributed to its calling layer through its parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "cauchypairs"

# module -> traced attributes; "Class.__init__" traces a constructor
LAYERS = {
    "cli": ("run",),
    "classifier": ("enumerate_family", "classify", "normal_form_verify"),
    "frame_core": ("structure_from_theta", "ricci_frame", "codazzi_predicate",
                   "codazzi_predicate_conditions", "is_cauchy"),
    "coordinate_fields": ("constraint_residual_fd", "fd_exterior_derivative",
                          "christoffel3_fd", "covariant_derivative_covector",
                          "interior_max", "build_universal_theta",
                          "UniversalCoverData.__init__"),
    "spacetime_verifier": ("christoffel_fd", "ricci4_fd", "riemann4_fd",
                           "covariant_derivative4", "parallel_pair_residual",
                           "interior_max4", "Metric4Grid.__init__"),
    "flow": ("plane_wave_check", "comoving_residual", "diagonal_solution",
             "diagonal_ricci_flat_residual", "pp_metric"),
}

# the numpy kernel layer below the package
KERNELS = ("gradient", "linalg.inv", "linalg.det", "linalg.eigvalsh", "einsum")

# kernel self time attributed to the layer or function that called it
ATTRIBUTED = (
    ("gradient", "coordinate_fields"), ("gradient", "spacetime_verifier"),
    ("gradient", "flow"),
    ("linalg.inv", "coordinate_fields"), ("linalg.inv", "spacetime_verifier"),
    ("linalg.inv", "flow"),
    ("einsum", "coordinate_fields"), ("einsum", "spacetime_verifier"),
    ("einsum", "flow"),
    ("linalg.inv", "coordinate_fields.christoffel3_fd"),
    ("einsum", "flow.plane_wave_check"),
)

OP = "bench.op"


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    return 0


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for module, attrs in LAYERS.items():
        for attr in attrs:
            for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
                names[f"{module}.{attr}.{stat}"] = unit
    for kernel in KERNELS:
        for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"),
                           ("computed_bytes", "B")):
            names[f"numpy.{kernel}.{stat}"] = unit
    for kernel, caller in ATTRIBUTED:
        names[f"numpy.{kernel}.in_{caller.split('.')[-1]}.self_s"] = "s"
    names["numpy.gradient.in_coordinate_fields.computed_bytes"] = "B"
    names.update({
        "coordinate_fields.christoffel3_fd.per_residual": "ratio",
        "spacetime_verifier.christoffel_fd.per_metric": "ratio",
        "flow.diagonal_solution.per_flow_diag": "ratio",
        "flow.plane_wave_check.einsum_share": "ratio",
        "bench.unattributed_s": "s",
        "bench.tracing_overhead_s": "s",
    })
    return names


class Tracer:
    """In-memory span recorder; one instance per traced section."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, computed bytes)
        self._stack = []

    def _record(self, name, fn, kernel):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                nb = _nbytes(args) + _nbytes(tuple(kwargs.values())) + _nbytes(out) \
                    if kernel else 0
                spans[sid] = (name, t0, t1, parent, nb)

        return traced

    @contextmanager
    def op(self, kind):
        """Root span of one op of the workload's closed loop."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = (f"{OP}.{kind}", t0, perf_counter(), -1, 0)

    @contextmanager
    def installed(self):
        """Wrap every traced name in every package module that binds it;
        restore the originals on exit."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        patches = []  # (owner, attribute, original)
        for module, attrs in LAYERS.items():
            mod = modules[module]
            for attr in attrs:
                if attr.endswith(".__init__"):
                    cls = getattr(mod, attr.split(".")[0])
                    patches.append((cls, "__init__", cls.__init__))
                    cls.__init__ = self._record(f"{module}.{attr}", cls.__init__, False)
                    continue
                patches += self._replace(getattr(mod, attr), f"{module}.{attr}",
                                         namespaces, False)
        for kernel in KERNELS:
            owner = np.linalg if kernel.startswith("linalg.") else np
            original = getattr(owner, kernel.split(".")[-1])
            patches += self._replace(original, f"numpy.{kernel}",
                                     [owner] + namespaces, True)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _replace(self, original, name, namespaces, kernel):
        wrapper = self._record(name, original, kernel)
        patches = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)
        return patches

    # -- analysis -----------------------------------------------------------

    def per_layer(self, traced_s):
        """Per-layer metrics of a traced section that lasted `traced_s`;
        zero where a layer idles.  The caller fills in the tracing overhead."""
        spans = self.spans
        child = [0.0] * len(spans)
        op_of = [-1] * len(spans)
        for sid, (name, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                op_of[sid] = op_of[parent]
            if name.startswith(OP):
                op_of[sid] = sid

        metrics = dict.fromkeys(per_layer_names(), 0.0)
        counts = {}  # (function name, op kind) -> calls
        top_level = 0.0
        for sid, (name, t0, t1, parent, nb) in enumerate(spans):
            if name.startswith(OP):
                continue
            dur = t1 - t0
            self_s = dur - child[sid]
            op_kind = spans[op_of[sid]][0][len(OP) + 1:] if op_of[sid] >= 0 else ""
            counts[name, op_kind] = counts.get((name, op_kind), 0) + 1
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.total_s"] += dur
            metrics[f"{name}.self_s"] += self_s
            if parent < 0 or spans[parent][0].startswith(OP):
                top_level += dur
            if not name.startswith("numpy."):
                continue
            metrics[f"{name}.computed_bytes"] += nb
            caller = spans[parent][0] if parent >= 0 else ""
            kernel = name[len("numpy."):]
            for k, where in ATTRIBUTED:
                if k == kernel and (caller == where or caller.startswith(where + ".")):
                    metrics[f"{name}.in_{where.split('.')[-1]}.self_s"] += self_s
            if kernel == "gradient" and caller.startswith("coordinate_fields."):
                metrics["numpy.gradient.in_coordinate_fields.computed_bytes"] += nb

        def calls(name, op_kind=None):
            return sum(c for (n, k), c in counts.items()
                       if n == name and (op_kind is None or k == op_kind))

        def ratio(num, den):
            return num / den if den else 0.0

        metrics["coordinate_fields.christoffel3_fd.per_residual"] = ratio(
            calls("coordinate_fields.christoffel3_fd"),
            calls("coordinate_fields.constraint_residual_fd"))
        metrics["spacetime_verifier.christoffel_fd.per_metric"] = ratio(
            calls("spacetime_verifier.christoffel_fd", "flow-pp"),
            calls("spacetime_verifier.Metric4Grid.__init__", "flow-pp"))
        metrics["flow.diagonal_solution.per_flow_diag"] = ratio(
            calls("flow.diagonal_solution", "flow-diag"),
            sum(1 for s in spans if s[0] == f"{OP}.flow-diag"))
        metrics["flow.plane_wave_check.einsum_share"] = ratio(
            metrics["numpy.einsum.in_plane_wave_check.self_s"],
            metrics["flow.plane_wave_check.total_s"])
        metrics["bench.unattributed_s"] = traced_s - top_level
        return metrics

    def write(self, path):
        """Dump the spans as tab-separated rows: id, parent, name, start, end, bytes."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\tcomputed_bytes\n")
            for sid, (name, t0, t1, parent, nb) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{nb}\n")
