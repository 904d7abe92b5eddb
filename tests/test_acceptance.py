"""Acceptance suite: seven end-to-end checks with pinned tolerances.

Each test prints a single machine-greppable verdict line of the form
"acceptance <k>: PASS|FAIL (<detail>)" before asserting.
"""

import math
import time
from fractions import Fraction

import numpy as np

from cauchypairs import classifier, coordinate_fields as cf, flow
from cauchypairs import frame_core as fc
from cauchypairs import spacetime_verifier as sv
from cauchypairs.frame_core import ShapeOperator

import conftest
from conftest import (
    codazzi_antisymmetry_residual,
    connection_koszul,
    d_squared,
    gh_pp_metric_and_pair,
    max_abs_diff,
    sample_families,
)
from test_coordinate_fields import warped_realization


def _verdict(k, ok, detail):
    line = f"acceptance {k}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    assert ok, detail


def test_acceptance_1_exact_rational_curvature_family():
    """Exact scalar curvature and constraint values for the diagonal
    one-parameter family diag(1, mu, 1), zero tolerance, under 1 second."""
    start = time.time()
    ok = True
    for mu in (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 1)):
        theta = ShapeOperator.diagonal(1, mu, 1)
        ok &= fc.scalar_curvature(theta) == -2 * (1 + mu + mu * mu)
        ok &= theta.norm_sq == 2 + mu * mu
        ok &= theta.trace ** 2 == (2 + mu) ** 2
        ok &= fc.hamiltonian_residual(theta) == 2 * mu * (1 - mu)
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    _verdict(1, ok, f"exact values at mu in {{-1/2, 1/2, 1}}, {elapsed:.3f}s")


def test_acceptance_2_classification_round_trip():
    """>= 10^4 random operators from every table row classify to the row's
    group with normal-form residual < 1e-10 and no flag mismatches, < 30 s."""
    start = time.time()
    rng = np.random.default_rng(7)
    count = 10_000
    worst = 0.0
    mismatched = []
    ok = True
    for fam in sample_families(rng, count):
        group, change = classifier.classify(fam.theta)
        ok &= group.tag == classifier.ROW_GROUP[fam.row]
        worst = max(worst, classifier.normal_form_verify(fam.theta, change))
        if fam.mismatches:
            mismatched.append((fam.row, fam.variant, fam.mismatches))
    elapsed = time.time() - start
    ok &= worst < 1e-10 and not mismatched and elapsed < 30.0
    _verdict(
        2,
        ok,
        f"{count} samples, max residual {worst:.2e}, "
        f"mismatched cells {mismatched!r}, {elapsed:.1f}s",
    )


def test_acceptance_3_oracle_equivalence():
    """Connection, Ricci-trace and Hamiltonian/momentum oracles agree on all
    sampled admissible operators; exact agreement in rational mode."""
    rng = np.random.default_rng(11)
    worst_conn = worst_trace = 0.0
    equiv_ok = True
    for fam in sample_families(rng, 2000):
        d = fc.structure_from_theta(fam.theta)
        worst_conn = max(
            worst_conn,
            max_abs_diff(connection_koszul(d), fc.connection_cauchy(fam.theta)),
        )
        ric, _ = fc.ricci_frame(fam.theta)
        trace = sum(ric[a][a] for a in range(3))
        worst_trace = max(
            worst_trace, abs(float(trace - fc.scalar_curvature(fam.theta)))
        )
        ham_zero = fc.is_zero(fc.hamiltonian_residual(fam.theta), 1e-9)
        mom_zero = all(
            fc.is_zero(v, 1e-9) for v in fc.momentum_residual(fam.theta)
        )
        equiv_ok &= ham_zero == mom_zero
    exact_ok = True
    for mu in (Fraction(-1, 2), Fraction(1, 2), 1):
        theta = ShapeOperator.diagonal(1, mu, 1)
        d = fc.structure_from_theta(theta)
        exact_ok &= connection_koszul(d) == fc.connection_cauchy(theta)
        ric, _ = fc.ricci_frame(theta)
        exact_ok &= sum(ric[a][a] for a in range(3)) == fc.scalar_curvature(theta)
    ok = worst_conn < 1e-12 and worst_trace < 1e-11 and equiv_ok and exact_ok
    _verdict(
        3,
        ok,
        f"connection diff {worst_conn:.2e}, trace diff {worst_trace:.2e}, "
        f"hamiltonian<->momentum {equiv_ok}, exact mode {exact_ok}",
    )


def test_acceptance_4_constraint_fd_convergence():
    """Warped realization of the diagonal pair: constraint residual converges
    at second order over n in {17, 33, 65, 129}, < 1e-6 at n = 129, < 60 s."""
    start = time.time()
    ns = (17, 33, 65, 129)
    res = {}
    for n in ns:
        e, th = warped_realization(n)
        res[n] = cf.constraint_residual_fd(e, th)["max"]
    orders = [math.log2(res[a] / res[b]) for a, b in zip(ns, ns[1:])]
    elapsed = time.time() - start
    ok = (
        all(1.8 <= o <= 2.2 for o in orders)
        and res[129] < 1e-6
        and elapsed < 60.0
    )
    _verdict(
        4,
        ok,
        f"orders {[f'{o:.2f}' for o in orders]}, "
        f"residual(129) {res[129]:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_5_diagonal_flow_families():
    """Both diagonal solution families satisfy the comoving flow system at
    n = 65, their Ricci-flat members have 4D Ricci < 1e-6, and a generic
    member is detected as non-Ricci-flat."""
    n = (65, 65, 5, 5)
    rf_exponential = flow.DiagonalFamily(
        case="B_nonzero", a=1.0, b=1.0,
        Ll=lambda s, y: np.exp(s) + 1.0, Ln=lambda s, z: 2.0 + 0.0 * s,
    )
    rf_linear = flow.DiagonalFamily(
        case="B_zero", a=lambda x: 1.0 + x, b=0.0,
        Ll=lambda s, y: 1.0 + 0.5 * s, Ln=lambda s, z: 2.0 - 0.25 * s,
        a_primitive=lambda x: x + x * x / 2,
    )
    worst_comoving = worst_ricci = 0.0
    for fam, side in ((rf_exponential, 0.0125), (rf_linear, 0.04)):
        box = ((0, side),) * 3
        coframe = flow.diagonal_solution(fam, (0.0, side), box, n)
        worst_comoving = max(worst_comoving, flow.comoving_residual(coframe)["max"])
        ric = sv.ricci4_fd(flow.comoving_metric(coframe))
        worst_ricci = max(worst_ricci, sv.interior_max4(ric))
    generic = flow.DiagonalFamily(
        case="B_nonzero", a=1.0, b=1.0,
        Ll=lambda s, y: np.exp(0.5 * s), Ln=lambda s, z: 2.0 + 0.0 * s,
    )
    detect = flow.diagonal_ricci_flat_residual(
        generic, (0, 0.0125), ((0, 0.0125),) * 3, (33, 33, 5, 5)
    )[2:-2, 2:-2].max()
    ok = worst_comoving < 1e-6 and worst_ricci < 1e-6 and detect > 1e-2
    _verdict(
        5,
        ok,
        f"comoving {worst_comoving:.2e}, ricci4 {worst_ricci:.2e}, "
        f"non-RF detection {detect:.2e}",
    )


def test_acceptance_6_pp_wave_suite():
    """Logarithmic pp-wave solutions: exact ODE residual, 4D Ricci < 1e-6 at
    n = 65, plane-wave criterion, second-order parallel-transport convergence,
    and the kappa-shift property under l -> l + f u."""
    data = flow.PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.3)
    xp = np.linspace(-0.02, 0.02, 65)
    r_l, r_n = flow.pp_ricci_residual(data, xp)
    ode_zero = float(np.abs(r_l).max()) == 0.0 and float(np.abs(r_n).max()) == 0.0

    g = flow.pp_metric(data, ((-0.02, 0.02), (0, 1), (0, 1), (0, 1)),
                       (65, 5, 5, 5))
    ricci_max = sv.interior_max4(sv.ricci4_fd(g))
    plane = flow.plane_wave_check(g, tol=1e-6)

    # convergence of the parallel-transport residuals in a globally
    # hyperbolic chart; unequal axis boxes prevent exact stencil cancellation
    exp_data = flow.PPWaveData(fl=lambda x: 0.3 * x, fn=lambda x: -0.2 * x,
                               c=0.2)
    res = {}
    for n in (17, 33, 65):
        gh, u, l = gh_pp_metric_and_pair(
            exp_data, ((0, 0.1), (0, 0.15), (0, 1), (0, 1)), (n, n, 5, 5)
        )
        pair = sv.ParabolicPairData(gh, u, l)
        nab_u, nab_l, _ = sv.parallel_pair_residual(pair)
        res[n] = max(nab_u, nab_l)
    orders = [math.log2(res[17] / res[33]), math.log2(res[33] / res[65])]
    order_ok = all(o >= 1.9 for o in orders) or res[65] < 1e-12

    # kappa shift: replacing l by l + f u shifts kappa by exactly df
    gh, u, l = gh_pp_metric_and_pair(
        flow.PPWaveData.log_solution(0.0, -2.0, 0.1, 2.0, c=0.2),
        ((0, 0.1), (0, 0.1), (0, 1), (0, 1)), (17, 17, 5, 5),
    )
    pair = sv.ParabolicPairData(gh, u, l)
    _, _, kappa = sv.parallel_pair_residual(pair)
    tt, xx, _, _ = gh.meshgrid()
    f = 0.3 * xx + 0.1 * tt
    df = np.zeros(gh.shape + (4,))
    df[..., 0] = 0.1
    df[..., 1] = 0.3
    shifted = sv.covariant_derivative4(gh, l + f[..., None] * u)
    shift_res = sv.interior_max4(
        shifted - (kappa + df)[..., :, None] * u[..., None, :]
    )

    ok = (
        ode_zero
        and ricci_max < 1e-6
        and plane["passed"]
        and order_ok
        and shift_res < 1e-6
    )
    _verdict(
        6,
        ok,
        f"ode exact {ode_zero}, ricci4 {ricci_max:.2e}, plane wave "
        f"{plane['passed']}, orders {[f'{o:.2f}' for o in orders]}, "
        f"kappa shift {shift_res:.2e}",
    )


def test_acceptance_7_property_suite():
    """Structural properties: pair rescaling invariance, Codazzi implies
    constrained Ricci-flat on 10^4 samples, obstruction-tensor antisymmetry,
    and the Jacobi/integrability equivalence."""
    start = time.time()

    # rescaling u -> c u: residual ratio and kappa (x) u invariant
    gh, u, l = gh_pp_metric_and_pair(
        flow.PPWaveData.log_solution(0.0, -2.0, 0.1, 2.0, c=0.2),
        ((0, 0.1), (0, 0.1), (0, 1), (0, 1)), (17, 17, 5, 5),
    )
    c = 2.5
    nab_u, _, kappa = sv.parallel_pair_residual(sv.ParabolicPairData(gh, u, l))
    nab_uc, _, kappa_c = sv.parallel_pair_residual(sv.ParabolicPairData(gh, c * u, l))
    u_norm = sv.interior_max4(u)
    ratio_inv = abs(nab_uc / (c * u_norm) - nab_u / u_norm) < 1e-12
    # the extracted kappa rescales by 1/c so that kappa (x) u is unchanged
    kappa_inv = float(np.abs(c * kappa_c - kappa).max()) < 1e-12

    rng = np.random.default_rng(13)
    implication_ok = True
    checked = 0
    for k in range(10_000):
        if k % 2 == 0:
            uu = rng.uniform(-3, 3)
            pattern = rng.integers(0, 4)
            ll = uu if pattern & 1 else 0.0
            nn = uu if pattern & 2 else 0.0
            theta = ShapeOperator.diagonal(uu, ll, nn)
        else:
            theta = ShapeOperator.diagonal(*rng.uniform(-3, 3, size=3))
        if fc.codazzi_predicate(theta, 1e-12):
            checked += 1
            implication_ok &= fc.is_zero(
                fc.constrained_ricci_flat_residual(theta), 1e-9
            )

    rng2 = np.random.default_rng(17)
    antisym_worst = 0.0
    for fam in sample_families(rng2, 500):
        antisym_worst = max(
            antisym_worst, codazzi_antisymmetry_residual(fam.theta)
        )

    jacobi_ok = True
    for _ in range(2000):
        theta = ShapeOperator.from_components(*rng2.uniform(-3, 3, size=6))
        d_zero = all(
            abs(float(v)) < 1e-11 for v in
            d_squared(fc.structure_from_theta(theta))
        )
        i_zero = all(
            abs(float(v)) < 1e-11 for v in fc.integrability_residual(theta)
        )
        jacobi_ok &= d_zero == i_zero

    elapsed = time.time() - start
    ok = (
        ratio_inv
        and kappa_inv
        and implication_ok
        and checked > 1000
        and antisym_worst < 1e-12
        and jacobi_ok
        and elapsed < 300.0
    )
    _verdict(
        7,
        ok,
        f"rescaling {ratio_inv and kappa_inv}, codazzi=>crf on {checked} "
        f"codazzi samples {implication_ok}, antisymmetry {antisym_worst:.2e}, "
        f"jacobi<->integrability {jacobi_ok}, {elapsed:.1f}s",
    )
