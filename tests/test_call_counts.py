"""The call counts that the benchmark's smoke test pins, counted in tier 1.

Each counted function is wrapped in every package module that binds it, as
`bench/spans.py` traces it, so a refactor that changes a pinned count fails
here rather than only in the minutes-long benchmark smoke test."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from cauchypairs import classifier, cli, coordinate_fields as cf, flow, grid as fd
from cauchypairs import spacetime_verifier as sv
from cauchypairs.errors import ConfigInvalid, NotInGHForm, PairAlgebraViolated, SignatureViolation

import test_spacetime
from conftest import row_variants, sample_families
from test_coordinate_fields import rotating_hx, warped_realization

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
    assert len(fd._slabs(e.shape)) == 1
    calls = counter(cf, "christoffel3_fd")
    cf.constraint_residual_fd(e, th)
    assert len(calls) == 2


def test_no_4d_christoffel_set_in_the_3d_residual(counter):
    e, th = warped_realization(17)
    calls = counter(sv, "christoffel_fd")
    cf.constraint_residual_fd(e, th)
    assert calls == []


def test_one_metric_inverse_per_single_slab_residual(counter):
    # it tests h on every node and serves both Christoffel sets
    e, th = warped_realization(17)
    assert len(fd._slabs(e.shape)) == 1
    calls = counter(fd, "plane_inverse")
    cf.constraint_residual_fd(e, th)
    assert len(calls) == 1


def test_christoffel_sets_cover_the_output_box(monkeypatch):
    # each set is built only on the nodes the report's norm reads: the 17^3
    # grid less the 2-node collar
    e, th = warped_realization(17)
    shapes = []
    christoffel = cf.christoffel3_fd

    def recorded(*args, **kwargs):
        gamma = christoffel(*args, **kwargs)
        shapes.append(gamma.shape)
        return gamma

    monkeypatch.setattr(cf, "christoffel3_fd", recorded)
    cf.constraint_residual_fd(e, th)
    assert shapes == [(3, 3, 3) + (13,) * 3] * 2


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


@pytest.fixture
def christoffel_shapes(monkeypatch):
    """The shapes of the Christoffel planes that each 4D set is built on."""
    shapes = []
    christoffel = fd.plane_christoffel

    def recorded(*args, **kwargs):
        gamma = christoffel(*args, **kwargs)
        shapes.append(gamma.shape)
        return gamma

    monkeypatch.setattr(fd, "plane_christoffel", recorded)
    return shapes


def test_verify_spacetime_builds_its_christoffel_set_on_the_interior(christoffel_shapes):
    # 9^4 less the 2-node collar
    cli.run({"mode": "verify-spacetime", "n": 9})
    assert christoffel_shapes == [(4, 4, 4) + (5,) * 4]


def test_flow_pp_christoffel_sets_cover_their_boxes(christoffel_shapes):
    # B, the interior of (9, 7, 7, 7) less the collar, is (5, 3, 3, 3).  Ric
    # on B takes Gamma on grow(B); nabla u and W_a take it on B; R on
    # grow(B), whose partials on B are taken, takes it on grow(grow(B))
    cli.run({**FLOW_PP, "n": [9, 7, 7, 7]})
    assert christoffel_shapes == [(4, 4, 4) + n for n in
                                  ((7, 5, 5, 5), (5, 3, 3, 3), (9, 7, 7, 7), (5, 3, 3, 3))]


def test_ricci_differentiates_gamma_one_axis_per_pair_slot(monkeypatch):
    # Ric is the trace of riemann4_fd's pair curvature: each pair (p, s)
    # takes d_p Gamma_s and d_s Gamma_p, one single-axis partial on a box each
    g = test_spacetime.generic_metric(5)
    gamma = sv.christoffel_fd(g)
    monkeypatch.setattr(sv, "christoffel_fd", lambda metric, own: gamma[own])
    axes = []
    grad = fd.Grid.grad
    monkeypatch.setattr(fd.Grid, "grad", lambda grid, values, axis, own=None:
                        axes.append(axis) or grad(grid, values, axis, own))
    sv.ricci4_fd(g)
    assert sorted(axes) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]


def refused_pairs():
    """(pair, error) couples that `parallel_pair_residual` refuses, each pair
    built through validation: on Minkowski space with l not purely spatial
    (l + u/2 is still unit and orthogonal to the null u) or with u = 0, on a
    metric with a dt-dx cross term, and on a Lorentzian metric whose g_00 is
    positive."""
    g = test_spacetime.minkowski(n=5)
    u = np.zeros(g.shape + (4,))
    u[..., 0] = u[..., 1] = 1.0
    l = np.zeros(g.shape + (4,))
    l[..., 2] = 1.0
    cross = g.values.copy()
    cross[..., 0, 1] = cross[..., 1, 0] = 0.1
    # dt + (sqrt(1.01) - 0.1) dx is null for -dt^2 + 0.2 dt dx + dx^2 + ...
    u_cross = u * [1.0, math.sqrt(1.01) - 0.1, 0.0, 0.0]
    flipped = g.values * [-1.0, -1.0, 1.0, 1.0]  # diag(1, -1, 1, 1)
    return {"spatial-l": (sv.ParabolicPairData(g, u, l + 0.5 * u), PairAlgebraViolated),
            "u0": (sv.ParabolicPairData(g, 0 * u, l), PairAlgebraViolated),
            "cross-term": (sv.ParabolicPairData(sv.Metric4Grid(g.box, cross), u_cross, l),
                           NotInGHForm),
            "g00": (sv.ParabolicPairData(sv.Metric4Grid(g.box, flipped), u, l),
                    SignatureViolation)}


@pytest.mark.parametrize("case", ["spatial-l", "u0", "cross-term", "g00"])
def test_refused_pair_builds_no_christoffel_set(counter, case):
    pair, error = refused_pairs()[case]
    calls = counter(sv, "christoffel_fd")
    with pytest.raises(error):
        sv.parallel_pair_residual(pair)
    assert calls == []


MILNE = {"mode": "verify-spacetime", "metric": {"kind": "milne", "a": 1.0, "b": 0.5},
         "pair": {"u": [1, 0, 0, 1], "l": [0, 0, 1, 0]}, "n": 5}


@pytest.mark.parametrize("config", [FLOW_PP, MILNE, {"mode": "verify-spacetime"}],
                         ids=["flow-pp", "verify-spacetime", "minkowski"])
def test_one_metric_inverse_per_4d_run(counter, monkeypatch, config):
    # the metric's one closed-form pass tests its signature and inverts it;
    # every Christoffel set, the pair algebra and kappa (through the pair's
    # g^-1 l) take that inverse, no 3x3 inverse of h is built beside it,
    # and LAPACK is not called
    lapack = []
    for name in ("inv", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **kw:
                            lapack.append(_n) or _f(*a, **kw))
    closed_form = counter(fd, "inverse4")
    closed_form3 = counter(fd, "plane_inverse")
    cli.run(config)
    assert len(closed_form) == 1
    assert lapack == []
    assert closed_form3 == []


def test_one_planes_conversion_per_metric(counter):
    # Metric4Grid converts g to component planes once, at validation; the
    # Christoffel set and the GH decomposition read those planes
    g = test_spacetime.milne(n=7)
    calls = counter(fd, "to_planes")
    g = sv.Metric4Grid(g.box, np.array(g.values))
    assert len(calls) == 1
    sv.christoffel_fd(g)
    sv.christoffel_fd(g, sv.INTERIOR)
    sv.gh_decomposition(g)
    assert len(calls) == 1


def test_no_planes_copy_of_the_metric_in_flow_pp(monkeypatch):
    # the covariant derivative of the null column of g that plane_wave_check
    # takes reads that column in place, as a view of g's planes: no
    # to_planes call copies any part of g
    metrics, conversions = [], []
    init, to_planes = sv.Metric4Grid.__init__, fd.to_planes
    monkeypatch.setattr(sv.Metric4Grid, "__init__",
                        lambda self, *a, **kw: init(self, *a, **kw) or metrics.append(self))

    def recorded(values, ndim):
        planes = to_planes(values, ndim)
        conversions.append((values, planes))
        return planes

    monkeypatch.setattr(fd, "to_planes", recorded)
    cli.run(FLOW_PP)
    assert len(metrics) == 1
    g = metrics[0].planes
    assert conversions
    assert all(np.may_share_memory(p, g) for v, p in conversions if np.may_share_memory(v, g))


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
    """Every derivative takes its quotients from `grid._difference`, and the
    universal cover factors h_x once with matmul contractions: a second
    stencil, an einsum or a second eigenvalue pass would show here as a call
    to numpy.gradient, numpy.einsum or numpy.linalg.eigvalsh.  Only the
    classifier's einsum, which serves the frame algebra, may run."""
    calls = []
    for module, name in ((np, "gradient"), (np, "einsum"), (np.linalg, "eigvalsh")):
        def recorded(*a, _f=getattr(module, name), _n=name, **kw):
            calls.append((_n, sys._getframe(1).f_globals["__name__"]))
            return _f(*a, **kw)
        monkeypatch.setattr(module, name, recorded)
    for mode in cli.MODES:
        try:
            cli.run({"mode": mode})
        except ConfigInvalid:
            assert mode in ("flow-diag", "reproduce")  # each needs a family or fixture
    for fixture in ("tau3mu", "table", "diag1", "diag2", "ppwave", "universal"):
        cli.run({"mode": "reproduce", "fixture": fixture})
    # a B_zero family with a named a(x): the quadrature and its estimate run
    report = cli.run({"mode": "flow-diag", "interval": [0.0, 0.01],
                      "family": {"case": "B_zero", "a": {"kind": "exp", "rate": 0.7}, "b": 0.0},
                      "box": [[0.1, 0.15], [0, 0.01], [0, 0.01]], "n": [9, 17, 5, 5]})
    assert report["result"]["primitive_error_estimate"] > 0
    g = cf.FieldGrid.from_function(((0, 0.1),) * 3, (33, 5, 5), lambda x, y, z: 0.0 * x)
    cf.build_universal_theta(cf.UniversalCoverData(g, hx=rotating_hx, F=lambda x: 0.0))
    cf.warped_F_for_ricci_flat(lambda x: x, g)
    assert ("einsum", "cauchypairs.classifier") in calls  # the recording sees calls
    assert {call for call in calls if call != ("einsum", "cauchypairs.classifier")} == set()


@pytest.mark.parametrize("hx, inverses",
                         [(rotating_hx, 2), (lambda x: np.exp(2 * x) * np.eye(2), 1)],
                         ids=["rotating", "conformal"])
def test_one_factorization_of_the_universal_cover(monkeypatch, hx, inverses):
    # one eigh for the root, one inverse of the rows, and one more where the
    # rotation repair runs; Theta reuses the rows' inverse
    lapack = []
    for name in ("eigh", "eigvalsh", "inv"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **kw:
                            lapack.append(_n) or _f(*a, **kw))
    g = cf.FieldGrid.from_function(((0, 0.1),) * 3, (33, 5, 5), lambda x, y, z: 0.0 * x)
    cf.build_universal_theta(cf.UniversalCoverData(g, hx=hx, F=lambda x: 0.0))
    assert sorted(lapack) == ["eigh"] + ["inv"] * inverses


def test_no_numpy_gradient_in_the_frame_stream(monkeypatch, rng):
    """enumerate_family -> classify -> normal_form_verify -> verify-pair,
    in float and in exact arithmetic, once on every classification-table
    cell: the frame algebra takes no finite difference."""
    calls = []
    gradient = np.gradient
    monkeypatch.setattr(np, "gradient", lambda *a, **kw: calls.append(1) or gradient(*a, **kw))
    cells = sum(len(row_variants(row)) for row in classifier.ROW_IDS)
    for fam in sample_families(rng, cells):
        _, change = classifier.classify(fam.theta)
        classifier.normal_form_verify(fam.theta, change)
        theta = {k: float(getattr(fam.theta, k)) for k in cli.THETA_KEYS}
        cli.run({"mode": "verify-pair", "theta": theta})
        exact = {k: str(Fraction(v).limit_denominator(10**6)) for k, v in theta.items()}
        cli.run({"mode": "verify-pair", "theta": exact}, exact=True)
    assert cells == 13
    assert calls == []


@pytest.mark.parametrize("config", [{"mode": "verify-spacetime"}, MILNE],
                         ids=["minkowski", "milne"])
def test_no_einsum_in_verify_spacetime(monkeypatch, config):
    """The pair algebra, kappa, the Christoffel set and the covariant
    derivatives all run on component planes."""
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **kw: calls.append(1) or einsum(*a, **kw))
    cli.run(config)
    assert calls == []


def test_counter_sees_calls_through_every_binding(counter):
    g = test_spacetime.minkowski(n=5)
    calls = counter(sv, "Metric4Grid")
    flow.Metric4Grid(g.box, g.values)  # bound by name in flow
    sv.Metric4Grid(g.box, g.values)
    assert len(calls) == 2
