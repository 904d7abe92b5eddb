"""Tests for the left-invariant classification and the table families."""

from fractions import Fraction

import numpy as np
import pytest

from cauchypairs import classifier, frame_core as fc
from cauchypairs.classifier import (
    ABELIAN_R3,
    E11,
    ROW_GROUP,
    ROW_IDS,
    TAU2_PLUS_R,
    TAU3_MU,
    CoframeChange,
    GroupClass,
)
from cauchypairs.errors import DegenerateCase, ParamOutOfRange, RejectsNonCauchy
from cauchypairs.frame_core import ShapeOperator

from conftest import row_variants, sample_families, sample_row_params


class TestGroupClass:
    def test_mu_range_enforced(self):
        GroupClass(TAU3_MU, mu=0.5)
        GroupClass(TAU3_MU, mu=1.0)
        for bad in (0.0, -1.0, 1.5, None):
            with pytest.raises(DegenerateCase):
                GroupClass(TAU3_MU, mu=bad)

    def test_mu_only_for_tau3(self):
        with pytest.raises(ValueError):
            GroupClass(ABELIAN_R3, mu=0.5)

    def test_mu_for_other_tags_is_typed(self):
        with pytest.raises(ParamOutOfRange):
            GroupClass(E11, mu=0.5)


class TestClassify:
    def test_zero_theta_is_abelian(self):
        group, change = classifier.classify(ShapeOperator.zero())
        assert group.tag == ABELIAN_R3
        assert np.allclose(change.matrix_array(), np.eye(3))

    def test_diag_0_1_m1_is_e11(self):
        theta = ShapeOperator.diagonal(0, 1, -1)
        group, change = classifier.classify(theta)
        assert group.tag == E11
        assert classifier.normal_form_verify(theta, change) < 1e-12

    def test_pure_offdiagonal_block_e11(self):
        theta = ShapeOperator.from_components(ln=2)
        group, change = classifier.classify(theta)
        assert group.tag == E11
        assert change.case == "e11-offdiagonal"

    @pytest.mark.parametrize("comps, tol", [
        # an exact trace T = 3 within tol and no shear: no tau_2 (+) R change
        ({"ll": 2, "ln": 0.5, "nn": 1}, 1e308),
        # T = 0, yet a shear just above tol makes the pair non-unimodular: no sign(T)
        ({"ll": 1e-3, "nn": -1e-3, "ln": 1e-3, "ul": 2e-9}, 1e-9),
    ], ids=["exact-trace-within-tol", "zero-trace-shear-above-tol"])
    def test_round_off_degeneracies_raise_typed_error(self, comps, tol):
        with pytest.raises(DegenerateCase):
            classifier.classify(ShapeOperator.from_components(**comps), tol)

    @pytest.mark.parametrize("comps, tag, mu", [
        # |ll| << |ln|: 1 - ln / sqrt|Delta| would round to 0 and lose the
        # E(1,1) rotation angle, which the half angle of atan2 keeps
        ({"ll": 1, "nn": -1, "ln": 1e8}, E11, None),
        # ll = nn >> ln: T^2 - 4 Delta would cancel to 0, and lam - ll to a
        # rounding of ll; mu = (3e16 - 7) / (3e16 + 7) to the last bit
        ({"uu": 1e16, "ll": 1e16, "nn": 1e16, "ln": Fraction(-7, 3)}, TAU3_MU,
         0.9999999999999996),
    ], ids=["e11-tiny-diagonal", "tau3-near-equal-eigenvalues"])
    def test_cancelling_closed_forms_classify(self, comps, tag, mu):
        theta = ShapeOperator.from_components(**comps)
        group, change = classifier.classify(theta, 1e-9)
        assert (group.tag, group.mu) == (tag, mu)
        assert classifier.normal_form_verify(theta, change) <= 2.3e-16

    def test_shear_is_tau2_plus_r(self):
        theta = ShapeOperator.from_components(ul=1, un=2)
        group, change = classifier.classify(theta)
        assert group.tag == TAU2_PLUS_R
        assert classifier.normal_form_verify(theta, change) < 1e-12

    def test_tau3_recovers_mu(self):
        theta = ShapeOperator.diagonal(0, 2, 1)
        group, _ = classifier.classify(theta)
        assert group.tag == TAU3_MU
        assert group.mu == pytest.approx(0.5)

    @pytest.mark.parametrize("diag, mu, case", [
        ((0, 1, 2), 0.5, "tau3-diag-n"),
        ((0, -1, 2), -0.5, "tau3-diag-n"),
        ((0, 2, 1), 0.5, "tau3-diag-l"),
    ])
    def test_diagonal_tau3_divides_by_the_larger_entry(self, diag, mu, case):
        theta = ShapeOperator.diagonal(*diag)
        group, change = classifier.classify(theta)
        assert (group.tag, group.mu, change.case) == (TAU3_MU, mu, case)
        assert classifier.normal_form_verify(theta, change) == 0.0

    def test_tau3_mu_independent_of_block_presentation(self, rng):
        # rotating the (l, n) block leaves the eigenvalue ratio unchanged
        lam, mev = 2.0, 0.6
        for _ in range(20):
            a = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(a), np.sin(a)
            r = np.array([[c, -s], [s, c]])
            block = r @ np.diag([lam, mev]) @ r.T
            theta = ShapeOperator.from_components(
                ll=block[0, 0], ln=block[0, 1], nn=block[1, 1]
            )
            group, change = classifier.classify(theta)
            assert group.tag == TAU3_MU
            assert group.mu == pytest.approx(mev / lam, abs=1e-9)
            assert classifier.normal_form_verify(theta, change) < 1e-10

    def test_rejects_non_cauchy(self):
        with pytest.raises(RejectsNonCauchy):
            classifier.classify(ShapeOperator.from_components(ul=1, ll=1, nn=-1))

    def test_degenerate_band_raises(self):
        # |Delta| within a decade of the tolerance cannot be resolved
        theta = ShapeOperator.from_components(ll=1.0, nn=5e-9)
        with pytest.raises(DegenerateCase):
            classifier.classify(theta, tol=1e-9)

    def test_exact_mode_skips_degeneracy_band(self):
        theta = ShapeOperator.from_components(ll=1, nn=Fraction(1, 10**9))
        group, _ = classifier.classify(theta)
        assert group.tag == TAU3_MU

    def test_round_trip_all_rows(self, rng):
        for fam in sample_families(rng, 400):
            group, change = classifier.classify(fam.theta)
            assert group.tag == ROW_GROUP[fam.row], (fam.row, fam.theta)
            assert classifier.normal_form_verify(fam.theta, change) < 1e-10


class TestTransformStructure:
    def test_identity_change_is_noop(self, rng):
        for fam in sample_families(rng, 20):
            d = fc.structure_from_theta(fam.theta)
            got = classifier.transform_structure(d, np.eye(3))
            raw = np.array(
                [[[float(d[k, i, j]) for j in range(3)] for i in range(3)]
                 for k in range(3)]
            )
            assert np.allclose(got, raw)

    def test_scaling_change_scales_coefficients(self):
        theta = ShapeOperator.diagonal(0, 1, -1)
        d = fc.structure_from_theta(theta)
        m = np.diag([2.0, 1.0, 1.0])
        got = classifier.transform_structure(d, m)
        # f_u = 2 e_u scales c^u_{..} by 2 and c^._{u.} by 1/2
        assert got[0, 1, 0] == pytest.approx(2 * float(d[0, 1, 0]) / 2)
        assert got[1, 1, 0] == pytest.approx(float(d[1, 1, 0]) / 2)


class TestEnumerateFamily:
    def test_unknown_row_or_variant(self):
        with pytest.raises(ParamOutOfRange):
            classifier.enumerate_family("nope", {})
        with pytest.raises(ParamOutOfRange):
            classifier.enumerate_family("r3", {}, variant="bogus")

    @pytest.mark.parametrize("row", ["e11", "t2r_shear", "t2r_mixed_l",
                                     "t2r_mixed_n", "t2r_full"])
    def test_not_allowed_cells_raise(self, rng, row):
        params = sample_row_params(rng, row)
        for variant in ("crf", "codazzi"):
            with pytest.raises(ParamOutOfRange):
                classifier.enumerate_family(row, params, variant)

    def test_tau3_codazzi_not_allowed(self, rng):
        params = sample_row_params(rng, "tau3", "crf")
        with pytest.raises(ParamOutOfRange):
            classifier.enumerate_family("tau3", params, "codazzi")

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ParamOutOfRange):
            classifier.enumerate_family("e11", {"a": 0, "b": 0})
        with pytest.raises(ParamOutOfRange):
            classifier.enumerate_family("t2r_block", {"T": 0})
        with pytest.raises(ParamOutOfRange):
            classifier.enumerate_family("tau3", {"ll": 1, "nn": -1})

    def test_crf_variants_carry_distinguished_uu(self):
        fam = classifier.enumerate_family(
            "t2r_block", {"T": 1.5, "angle": 0.3}, "crf"
        )
        assert float(fam.theta.uu) == pytest.approx(1.5)
        assert fam.flags["constrained_rf"] and not fam.mismatches

        fam = classifier.enumerate_family(
            "tau3", {"ll": 2.0, "ln": 0.5, "nn": 1.0}, "crf"
        )
        t, delta = 3.0, 2.0 - 0.25
        assert float(fam.theta.uu) == pytest.approx((t * t - 2 * delta) / t)
        assert fam.flags["constrained_rf"] and not fam.mismatches

    def test_flags_match_table_on_random_sweep(self, rng):
        for fam in sample_families(rng, 300):
            assert fam.mismatches == (), (fam.row, fam.variant, fam.flags)

    def test_all_rows_have_variants(self):
        for row in ROW_IDS:
            assert "cauchy" in row_variants(row)


class TestCoframeChange:
    def test_matrix_invertible_on_sweep(self, rng):
        for fam in sample_families(rng, 100):
            _, change = classifier.classify(fam.theta)
            det = np.linalg.det(change.matrix_array())
            assert abs(det) > 1e-10

    def test_target_antisymmetry(self, rng):
        for fam in sample_families(rng, 50):
            _, change = classifier.classify(fam.theta)
            t = change.target_array()
            assert np.allclose(t, -np.swapaxes(t, 1, 2))
