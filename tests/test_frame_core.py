"""Unit tests for the frame-component algebra of left-invariant Cauchy pairs."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchypairs import classifier, frame_core as fc
from cauchypairs.errors import CauchyPairsError
from cauchypairs.frame_core import ShapeOperator, StructureData

from conftest import (
    TRIPLES,
    bracket_coeffs,
    codazzi_antisymmetry_residual,
    connection_koszul,
    d_squared,
    loop_codazzi,
    max_abs_diff,
    metric_compat_residual,
    nabla_theta_oracle,
    sample_families,
    tensor,
)


def ricci_from_curvature(theta):
    """Oracle: Ricci by contracting the curvature of the Koszul connection.

    R(e_a, e_b) e_c = nabla_a nabla_b e_c - nabla_b nabla_a e_c
                      - nabla_{[e_a, e_b]} e_c, then Ric_cb = <R(e_a,e_b)e_c, e_a>.
    Entirely independent of the closed-form Ricci expression under test.
    """
    d = fc.structure_from_theta(theta)
    gam = np.array(connection_koszul(d), dtype=float)
    c = np.array(bracket_coeffs(d), dtype=float)
    riem = (
        np.einsum("ead,dbc->ecab", gam, gam)
        - np.einsum("ebd,dac->ecab", gam, gam)
        - np.einsum("kab,ekc->ecab", c, gam)
    )
    return np.einsum("acab->cb", riem)


class TestShapeOperator:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(CauchyPairsError):
            ShapeOperator([[0, 1, 0], [2, 0, 0], [0, 0, 0]])

    @pytest.mark.parametrize("k", range(-12, 7))
    def test_symmetry_verdict_is_scale_invariant(self, k):
        # a 50% asymmetry is refused and a 1e-13 round-off one admitted at
        # every scale; an absolute 1e-12 floor let the first through at 1e-12
        s = 10.0**k
        with pytest.raises(CauchyPairsError, match="symmetric"):
            ShapeOperator([[s, 0.5 * s, 0], [0, s, 0], [0, 0, s]])
        roundoff = ShapeOperator([[s, 0.5 * s * (1 + 1e-13), 0], [0.5 * s, s, 0], [0, 0, s]])
        assert roundoff.ul == roundoff[1, 0]

    def test_rejects_nonfinite(self):
        with pytest.raises(CauchyPairsError):
            ShapeOperator.from_components(uu=float("nan"))
        with pytest.raises(CauchyPairsError):
            ShapeOperator.from_components(ul=float("inf"))

    def test_rejects_float_entries_beyond_theta_max(self):
        # at the bound the degree-2 and degree-3 quantities stay in binary64
        at_bound = ShapeOperator.from_components(ll=fc.THETA_MAX)
        assert math.isfinite(fc.ricci_frame(at_bound)[0][1][1])
        fc.codazzi_predicate_conditions(at_bound)
        classifier.classify(at_bound)
        # beyond it ricci_frame and codazzi_predicate_conditions would
        # overflow and classify would meet a singular matrix, so the operator
        # cannot be built; exact entries have no bound
        for big in (1e200, -1e101):
            with pytest.raises(CauchyPairsError, match="magnitude"):
                ShapeOperator.from_components(ll=big)
        assert ShapeOperator.from_components(ll=10**200).ll == 10**200

    def test_rejects_wrong_shape(self):
        with pytest.raises(CauchyPairsError):
            ShapeOperator([[1, 0], [0, 1]])

    def test_immutable(self):
        theta = ShapeOperator.zero()
        with pytest.raises(AttributeError):
            theta.entries = None

    def test_exact_invariants(self):
        theta = ShapeOperator.from_components(
            uu=Fraction(1, 2), ll=2, ln=Fraction(1, 3), nn=-1
        )
        assert theta.is_exact
        assert theta.trace == Fraction(3, 2)
        assert theta.block_trace == 1
        assert theta.block_det == -2 - Fraction(1, 9)
        assert theta.norm_sq == sum(
            x * x for row in theta.entries for x in row
        )

    def test_square_matches_numpy(self, rng):
        m = rng.standard_normal((3, 3))
        m = m + m.T
        theta = ShapeOperator(m.tolist())
        expected = np.array(theta.entries, dtype=float) @ np.array(
            theta.entries, dtype=float
        )
        assert np.allclose(np.array(theta.square(), dtype=float), expected)

    def test_row_is_frame_covector(self):
        theta = ShapeOperator.from_components(uu=1, ul=2, un=3)
        assert theta.row(0) == (1, 2, 3)


class TestStructureData:
    def test_antisymmetry_enforced(self):
        bad = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        bad[0][1][2] = 1  # missing the mirrored -1 entry
        with pytest.raises(CauchyPairsError):
            StructureData(bad)

    def test_structure_from_diagonal_theta(self):
        mu = Fraction(1, 2)
        d = fc.structure_from_theta(ShapeOperator.diagonal(1, mu, 1))
        # d e_l = mu e_l ^ e_u and d e_n = e_n ^ e_u
        assert d[1, 1, 0] == mu and d[1, 0, 1] == -mu
        assert d[2, 2, 0] == 1 and d[2, 0, 2] == -1
        assert d[0, 1, 2] == 0

    def test_jacobi_iff_integrability(self, rng):
        for fam in sample_families(rng, 30):
            d = fc.structure_from_theta(fam.theta)
            assert d_squared(d) == (0, 0, 0) or all(
                abs(float(v)) < 1e-12 for v in d_squared(d)
            )
        # a theta violating integrability yields a non-Jacobi structure
        bad = ShapeOperator.from_components(ul=1, ll=1, nn=-1)
        assert any(v != 0 for v in fc.integrability_residual(bad))
        d = fc.structure_from_theta(bad)
        assert any(v != 0 for v in d_squared(d))


class TestConnection:
    def test_koszul_matches_cauchy_connection(self, rng):
        for fam in sample_families(rng, 100):
            d = fc.structure_from_theta(fam.theta)
            koszul = connection_koszul(d)
            direct = fc.connection_cauchy(fam.theta)
            assert max_abs_diff(koszul, direct) < 1e-12

    def test_koszul_matches_exactly_in_rational_mode(self):
        theta = ShapeOperator.diagonal(1, Fraction(1, 2), 1)
        d = fc.structure_from_theta(theta)
        assert connection_koszul(d) == fc.connection_cauchy(theta)

    def test_metric_compatibility(self, rng):
        for fam in sample_families(rng, 30):
            conn = fc.connection_cauchy(fam.theta)
            assert metric_compat_residual(conn) < 1e-12

    def test_koszul_rejects_non_jacobi_structure(self):
        bad = ShapeOperator.from_components(ul=1, ll=1, nn=-1)
        d = fc.structure_from_theta(bad)
        with pytest.raises(CauchyPairsError):
            connection_koszul(d)


class TestNablaTheta:
    def test_closed_form_matches_product_rule_oracle(self, rng):
        for fam in sample_families(rng, 60):
            closed = np.array(fc.nabla_theta(fam.theta), dtype=float)
            oracle = np.array(nabla_theta_oracle(fam.theta), dtype=float)
            assert np.abs(closed - oracle).max() < 1e-12

    def test_divergence_is_trace_of_nabla(self, rng):
        for fam in sample_families(rng, 60):
            nt = np.array(fc.nabla_theta(fam.theta), dtype=float)
            contracted = np.einsum("aac->c", nt)
            div = np.array(fc.divergence_theta(fam.theta), dtype=float)
            assert np.abs(contracted - div).max() < 1e-12

    def test_exact_divergence(self):
        theta = ShapeOperator.diagonal(1, Fraction(1, 2), 1)
        div = fc.divergence_theta(theta)
        assert div == (theta.norm_sq - theta.trace * theta.uu, 0, 0)


class TestCurvature:
    def test_ricci_matches_curvature_contraction(self, rng):
        for fam in sample_families(rng, 60):
            ric, asym = fc.ricci_frame(fam.theta)
            assert asym < 1e-12
            oracle = ricci_from_curvature(fam.theta)
            assert np.abs(np.array(ric, dtype=float) - oracle).max() < 1e-10

    def test_ricci_trace_is_scalar_curvature(self, rng):
        for fam in sample_families(rng, 60):
            ric, _ = fc.ricci_frame(fam.theta)
            trace = sum(ric[a][a] for a in range(3))
            assert abs(float(trace - fc.scalar_curvature(fam.theta))) < 1e-12

    def test_exact_scalar_curvature_family(self):
        for mu in (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 1)):
            theta = ShapeOperator.diagonal(1, mu, 1)
            assert fc.scalar_curvature(theta) == -2 * (1 + mu + mu * mu)
            assert theta.norm_sq == 2 + mu * mu
            assert fc.hamiltonian_residual(theta) == 2 * mu * (1 - mu)


class TestConstraints:
    def test_hamiltonian_is_twice_constrained_residual(self, rng):
        for fam in sample_families(rng, 60):
            ham = fc.hamiltonian_residual(fam.theta)
            crf = fc.constrained_ricci_flat_residual(fam.theta)
            assert abs(float(ham - 2 * crf)) < 1e-12

    def test_hamiltonian_iff_momentum(self, rng):
        # on admissible pairs the two constraints hold simultaneously
        for fam in sample_families(rng, 200):
            ham_zero = fc.is_zero(fc.hamiltonian_residual(fam.theta), 1e-9)
            mom_zero = all(
                fc.is_zero(v, 1e-9) for v in fc.momentum_residual(fam.theta)
            )
            assert ham_zero == mom_zero

    def test_zero_theta_flat(self):
        theta = ShapeOperator.zero()
        assert fc.scalar_curvature(theta) == 0
        assert fc.hamiltonian_residual(theta) == 0
        assert fc.momentum_residual(theta) == (0, 0, 0)
        ric, asym = fc.ricci_frame(theta)
        assert asym == 0 and all(v == 0 for row in ric for v in row)


class TestCodazzi:
    def test_predicate_agrees_with_closed_form_conditions(self, rng):
        for fam in sample_families(rng, 200):
            assert fc.codazzi_predicate(fam.theta) == \
                fc.codazzi_predicate_conditions(fam.theta)

    def test_antisymmetry_identity(self, rng):
        for fam in sample_families(rng, 100):
            assert codazzi_antisymmetry_residual(fam.theta) < 1e-12

    def test_known_codazzi_examples(self):
        assert fc.codazzi_predicate(ShapeOperator.diagonal(2, 2, 2))
        assert fc.codazzi_predicate(ShapeOperator.diagonal(3, 3, 0))
        assert fc.codazzi_predicate(ShapeOperator.diagonal(5, 0, 0))
        assert not fc.codazzi_predicate(
            ShapeOperator.from_components(ll=1, nn=-1)
        )
        assert not fc.codazzi_predicate(ShapeOperator.diagonal(0, 1, 1))


finite_entry = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)


class TestProperties:
    @given(uu=finite_entry, ul=finite_entry, un=finite_entry,
           ll=finite_entry, ln=finite_entry, nn=finite_entry)
    @settings(max_examples=200, deadline=None)
    def test_jacobi_iff_integrability_any_theta(self, uu, ul, un, ll, ln, nn):
        theta = ShapeOperator.from_components(uu, ul, un, ll, ln, nn)
        d = fc.structure_from_theta(theta)
        jac = [float(v) for v in d_squared(d)]
        i1, i2 = (float(v) for v in fc.integrability_residual(theta))
        # d o d vanishes exactly when the integrability bilinears do:
        # the Jacobi defect components are (0, -i1, -i2)
        scale = max(1.0, abs(i1), abs(i2))
        assert abs(jac[0]) < 1e-9 * scale
        assert abs(jac[1] + i1) < 1e-9 * scale
        assert abs(jac[2] + i2) < 1e-9 * scale

    @given(uu=finite_entry, ll=finite_entry, nn=finite_entry)
    @settings(max_examples=200, deadline=None)
    def test_codazzi_implies_constrained_rf(self, uu, ll, nn):
        theta = ShapeOperator.diagonal(uu, ll, nn)
        if fc.codazzi_predicate(theta, 1e-12):
            assert fc.is_zero(
                fc.constrained_ricci_flat_residual(theta), 1e-7
            )

    @given(comps=st.tuples(*[st.one_of(
        st.sampled_from([0, 0.0, -0.0, 1, 2.0, Fraction(1, 2)]),
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        finite_entry,
    )] * 6), tol=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_codazzi_predicate_is_every_entry_zero(self, comps, tol):
        theta = ShapeOperator.from_components(*comps)
        entries = flat(loop_codazzi(theta.entries, theta.square()))
        assert fc.codazzi_predicate(theta, tol) == all(fc.is_zero(x, tol) for x in entries)


# Per-index loop forms of the closed formulas (with conftest's `loop_codazzi`),
# evaluated in the library's operation order: with +-0.0 entries the sign of a
# zero result depends on it (-0.0 + 0 is 0.0, while x - 0 keeps the sign of x).


def loop_structure(t):
    return tensor(lambda a, b, c: t[a][b] if c == 0 and b != 0
                  else -t[a][c] if b == 0 and c != 0 else 0)


def loop_connection(t):
    def entry(c, b, a):
        val = t[a][b] if c == 0 else 0
        return val - t[b][c] if a == 0 else val
    return tensor(entry)


def loop_nabla_theta(t, t2):
    def entry(a, b, c):
        val = -t[0][b] * t[a][c] - t[a][b] * t[0][c]
        val = val + t2[a][b] if c == 0 else val
        return val + t2[a][c] if b == 0 else val
    return tensor(entry)


def loop_ricci(theta, t, t2):
    nt = loop_nabla_theta(t, t2)
    div = fc.divergence_theta(theta)
    raw = [[t2[b][c] - theta.trace * t[b][c] + (-div[b] if c == 0 else 0)
            + nt[0][b][c] - nt[b][0][c] for c in range(3)] for b in range(3)]
    return [[raw[b][c] if raw[b][c] == raw[c][b] else (raw[b][c] + raw[c][b]) / 2
             for c in range(3)] for b in range(3)]


def flat(x):
    return [v for item in x for v in flat(item)] if isinstance(x, (list, tuple)) else [x]


def signed_zero_operators():
    """Every +-0.0 pattern of the six components, alone and mixed with nonzeros."""
    for signs in itertools.product((0.0, -0.0), repeat=6):
        yield signs
        yield tuple(x if k % 2 else (1.5, -2.0, 1)[k % 3] for k, x in enumerate(signs))
        yield (0, 0) + signs[2:]


def test_zero_signs_match_loop_forms():
    for comps in signed_zero_operators():
        theta = ShapeOperator.from_components(*comps)
        t, t2 = theta.entries, theta.square()
        pairs = [
            ("structure_from_theta", fc.structure_from_theta(theta).d, loop_structure(t)),
            ("connection_cauchy", fc.connection_cauchy(theta), loop_connection(t)),
            ("nabla_theta", fc.nabla_theta(theta), loop_nabla_theta(t, t2)),
            ("_codazzi_entry", [fc._codazzi_entry(t, t2, a, b, c) for a, b, c in TRIPLES],
             loop_codazzi(t, t2)),
            ("ricci_frame", fc.ricci_frame(theta)[0], loop_ricci(theta, t, t2)),
        ]
        for name, got, want in pairs:
            for x, y in zip(flat(got), flat(want), strict=True):
                assert type(x) is type(y) and x == y, (name, comps)
                assert math.copysign(1.0, x) == math.copysign(1.0, y), (name, comps)
