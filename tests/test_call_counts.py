"""The call counts that the benchmark's smoke test pins, counted in tier 1.

Each counted function is wrapped in every package module that binds it, as
`bench/spans.py` traces it, so a refactor that changes a pinned count fails
here rather than only in the minutes-long benchmark smoke test."""

import sys

import numpy as np
import pytest

from cauchypairs import cli, coordinate_fields as cf, flow, spacetime_verifier as sv

from test_coordinate_fields import warped_realization

PACKAGE = "cauchypairs"


@pytest.fixture
def counter(monkeypatch):
    """counter(module, name) wraps module.name in every package namespace
    that binds it and returns the list its calls append to."""
    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for modname, ns in list(sys.modules.items()):
            if modname == PACKAGE or modname.startswith(PACKAGE + "."):
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        monkeypatch.setattr(ns, attr, counted)
        return calls
    return install


def test_two_christoffel_sets_per_single_slab_residual(counter):
    e, th = warped_realization(17)
    assert len(cf._slabs(e.shape)) == 1
    calls = counter(cf, "christoffel3_fd")
    cf.constraint_residual_fd(e, th)
    assert len(calls) == 2


@pytest.mark.parametrize("include_boundary,side", [(False, 13), (True, 17)])
def test_christoffel_sets_cover_the_output_box(monkeypatch, include_boundary, side):
    # each set is built only on the nodes the report's norm reads
    e, th = warped_realization(17)
    shapes = []
    christoffel = cf.christoffel3_fd

    def recorded(*args, **kwargs):
        gamma = christoffel(*args, **kwargs)
        shapes.append(gamma.shape)
        return gamma

    monkeypatch.setattr(cf, "christoffel3_fd", recorded)
    cf.constraint_residual_fd(e, th, include_boundary=include_boundary)
    assert shapes == [(3, 3, 3) + (side,) * 3] * 2


FLOW_PP = {"mode": "flow-pp",
           "pp": {"a_l": 0.1, "b_l": -1.5, "a_n": -0.2, "b_n": 1.2, "c": 0.3},
           "box": [[-0.0005, 0.0005], [0, 1], [0, 1], [0, 1]], "n": [5, 5, 5, 5]}


def test_four_christoffel_sets_per_flow_pp_metric(counter, monkeypatch):
    metrics = []
    init = sv.Metric4Grid.__init__
    monkeypatch.setattr(sv.Metric4Grid, "__init__",
                        lambda self, *a, **kw: metrics.append(1) or init(self, *a, **kw))
    calls = counter(sv, "christoffel_fd")
    cli.run(FLOW_PP)
    assert len(metrics) == 1
    assert len(calls) == 4


def test_two_diagonal_solutions_per_flow_diag_run(counter):
    config = {"mode": "flow-diag",
              "family": {"case": "B_nonzero", "a": 1.5, "b": 0.5,
                         "Ll": {"kind": "exp_affine", "w1": 1.0, "w2": 1.0, "rate": 1.0},
                         "Ln": {"kind": "const", "value": 2.0}},
              "interval": [0.0, 0.01], "box": [[0.0, 0.01]] * 3, "n": [9, 9, 5, 5]}
    calls = counter(flow, "diagonal_solution")
    cli.run(config)
    assert len(calls) == 2


def test_no_numpy_gradient_on_the_grid(monkeypatch):
    """Every grid derivative takes its quotients from `grid._difference`; a
    second stencil on the grid would show here as numpy.gradient calls."""
    calls = []
    gradient = np.gradient
    monkeypatch.setattr(np, "gradient", lambda *a, **kw: calls.append(1) or gradient(*a, **kw))
    cli.run(FLOW_PP)
    cli.run({"mode": "verify-spacetime", "metric": {"kind": "milne", "a": 1.0, "b": 0.5},
             "pair": {"u": [1, 0, 0, 1], "l": [0, 0, 1, 0]}, "n": 5})
    assert calls == []
    # the 1-D profile derivatives on coordinate arrays keep numpy's stencil
    flow.pp_ricci_residual(flow.PPWaveData(fl=np.sin, fn=np.cos), np.linspace(0, 1, 9))
    assert len(calls) == 4


def test_counter_sees_calls_through_every_binding(counter):
    calls = counter(sv, "interior_max4")
    flow.interior_max4(np.zeros((5, 5, 5, 5)))  # bound by name in flow
    sv.interior_max4(np.zeros((5, 5, 5, 5)))
    assert len(calls) == 2
