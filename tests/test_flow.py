"""Tests for the comoving flow solution families and the pp-wave family."""

import numpy as np
import pytest

from cauchypairs import flow, grid as fd, spacetime_verifier as sv
from cauchypairs.errors import (
    DegenerateCoframe,
    IntervalContainsSingularity,
    NullDirectionNotParallel,
    ParamOutOfRange,
    SingularMatrix,
)
from cauchypairs.flow import DiagonalFamily, FlowSolution, PPWaveData
from cauchypairs.spacetime_verifier import Grid4, Metric4Grid

from conftest import traced_peak

SMALL_BOX = ((0, 0.02), (0, 0.02), (0, 0.02))


def const_profile(s, y):
    return 1.0 + 0.0 * s


def grid_major_comoving(sol, include_boundary=False):
    """`flow.comoving_residual` in the grid-major layout with batched matmul
    contractions and LAPACK's inverse: the route that the component planes
    replaced, kept as their oracle."""
    grid, e = sol.coframe, sol.coframe.values
    h = np.swapaxes(e, -1, -2) @ e
    theta = -0.5 * grid.grad(h, 0)
    theta_e = e @ np.swapaxes(theta @ np.linalg.inv(h), -1, -2)

    def norm(res):
        return fd.interior_max(res, 4, include_boundary)

    def d(omega):
        partial = fd.partials(grid, omega, sv.SPATIAL_AXES)
        return partial - np.swapaxes(partial, -1, -2)

    eu = e[..., 0, :]
    report = {"evolution": norm(grid.grad(e, 0) + theta_e)}
    for a, name in enumerate("uln"):
        alpha = theta_e[..., a, :]
        wedge = alpha[..., :, None] * eu[..., None, :] - alpha[..., None, :] * eu[..., :, None]
        report[f"exterior_{name}"] = norm(d(e[..., a, :]) - wedge)
    report["exterior_max"] = max(report[f"exterior_{name}"] for name in "uln")
    report["theta_eu_closed"] = norm(d(theta_e[..., 0, :]))
    report["theta_eu_static"] = norm(grid.grad(theta_e[..., 0, :], 0))
    report["max"] = max(report.values())
    return report


class TestComponentPlanes:
    """`comoving_residual` on component planes against the grid-major oracle
    on a dense coframe family; the box has side 1, so every key is O(1) and
    the difference quotients amplify rounding differences little."""

    @pytest.mark.parametrize("include_boundary", [False, True])
    @pytest.mark.parametrize("shape", [(9, 9, 9, 9), (7, 9, 6, 5)])
    def test_matches_the_grid_major_route(self, shape, include_boundary):
        grid = Grid4(((0.0, 1.0),) * 4, np.zeros(shape))
        tt, xx, yy, zz = grid.meshgrid()
        e = np.empty(grid.shape + (3, 3))
        for a in range(3):
            for j in range(3):
                e[..., a, j] = (a == j) + 0.3 * np.sin((a + 1) * tt + (j + 1) * xx
                                                       - a * yy + (a + j) * zz + a * j + 0.5 * j + 0.37)
        sol = FlowSolution((0.0, 1.0), grid.like(e))
        assert np.all(e != 0.0)
        report = flow.comoving_residual(sol, include_boundary=include_boundary)
        ref = grid_major_comoving(sol, include_boundary)
        assert set(report) == set(ref)
        assert min(ref.values()) > 0.1
        for key in ref:
            assert abs(report[key] - ref[key]) <= 1e-14 * ref[key], key


class TestDiagonalFamilyValidation:
    def test_unknown_case(self):
        with pytest.raises(ParamOutOfRange):
            DiagonalFamily(case="C", a=1.0, b=1.0, Ll=const_profile,
                           Ln=const_profile)

    def test_b_nonzero_requires_constant_a_and_nonzero_b(self):
        with pytest.raises(ParamOutOfRange):
            DiagonalFamily(case="B_nonzero", a=1.0, b=0.0, Ll=const_profile,
                           Ln=const_profile)
        with pytest.raises(ParamOutOfRange):
            DiagonalFamily(case="B_nonzero", a=lambda x: 1.0, b=1.0,
                           Ll=const_profile, Ln=const_profile)

    def test_b_zero_requires_function_a(self):
        with pytest.raises(ParamOutOfRange):
            DiagonalFamily(case="B_zero", a=1.0, b=0.0, Ll=const_profile,
                           Ln=const_profile)
        with pytest.raises(ParamOutOfRange):
            DiagonalFamily(case="B_zero", a=lambda x: 1.0, b=0.5,
                           Ll=const_profile, Ln=const_profile)


class TestDiagonalSolution:
    def test_interval_singularity_detected(self):
        fam = DiagonalFamily(case="B_nonzero", a=1.0, b=1.0,
                             Ll=const_profile, Ln=const_profile)
        with pytest.raises(IntervalContainsSingularity):
            flow.diagonal_solution(fam, (-2.0, 0.0), SMALL_BOX, 9)

    def test_vanishing_profile_detected(self):
        fam = DiagonalFamily(case="B_nonzero", a=1.0, b=1.0,
                             Ll=lambda s, y: s - s[s.shape[0] // 2, 0, 0, 0],
                             Ln=const_profile)
        with pytest.raises(DegenerateCoframe):
            flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, 9)

    def test_comoving_residual_small_both_families(self):
        fam1 = DiagonalFamily(
            case="B_nonzero", a=1.0, b=1.0,
            Ll=lambda s, y: np.exp(0.5 * s), Ln=const_profile,
        )
        fam2 = DiagonalFamily(
            case="B_zero", a=lambda x: 1.0 + x, b=0.0,
            Ll=lambda s, y: np.exp(0.5 * s), Ln=lambda s, z: 2.0 + s,
            a_primitive=lambda x: x + x * x / 2,
        )
        for fam in (fam1, fam2):
            sol = flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, 17)
            report = flow.comoving_residual(sol)
            assert report["max"] < 1e-5, (fam.case, report)

    def test_comoving_residual_second_order(self):
        fam = DiagonalFamily(
            case="B_nonzero", a=1.0, b=1.0,
            Ll=lambda s, y: np.exp(s), Ln=const_profile,
        )
        res = {}
        for n in (17, 33):
            sol = flow.diagonal_solution(fam, (0.0, 0.05),
                                         ((0, 0.05),) * 3, n)
            res[n] = flow.comoving_residual(sol)["max"]
        assert res[33] < res[17] / 3

    def test_comoving_residual_peak_memory_per_node(self):
        # h, its inverse and Theta_t are freed once Theta_t(e_a) is built,
        # and d_t e + Theta_t(e) once reduced, and every term but h and its
        # inverse lives on the nodes the norms read: ~310 B per node against
        # ~650 B with them alive on every node
        fam = DiagonalFamily(case="B_nonzero", a=1.0, b=1.0,
                             Ll=lambda s, y: np.exp(0.5 * s), Ln=const_profile)
        sol = flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, 17)
        assert traced_peak(lambda: flow.comoving_residual(sol)) < 600 * 17**4

    def test_non_solution_detected(self):
        # e^{t + 2x} is not a function of the characteristic variable zeta
        grid = Grid4(((0, 0.5),) * 4, np.zeros((9, 9, 5, 5, 1)))
        tt, xx, _, _ = grid.meshgrid()
        e = np.zeros(grid.shape + (3, 3))
        e[..., 0, 0] = 1.0
        e[..., 1, 1] = np.exp(tt + 2 * xx)
        e[..., 2, 2] = 1.0
        sol = FlowSolution(interval=(0, 0.5), coframe=Grid4(grid.box, e))
        report = flow.comoving_residual(sol)
        assert report["exterior_max"] > 0.1

    def test_degenerate_coframe_rejected(self):
        grid = Grid4(((0, 1),) * 4, np.zeros((5, 5, 5, 5, 1)))
        e = np.zeros(grid.shape + (3, 3))  # identically singular
        sol = FlowSolution(interval=(0, 1), coframe=Grid4(grid.box, e))
        with pytest.raises(DegenerateCoframe):
            flow.comoving_residual(sol)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_degeneracy_test_is_scale_invariant(self, c):
        fam = DiagonalFamily(case="B_nonzero", a=1.0, b=1.0,
                             Ll=lambda s, y: np.exp(0.5 * s), Ln=const_profile)
        sol = flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, 9)
        vals = c * sol.coframe.values
        report = flow.comoving_residual(FlowSolution(sol.interval, sol.coframe.like(vals)))
        assert np.isfinite(report["max"])
        vals[3, 4, 2, 1, 1] = 0.0
        with pytest.raises(DegenerateCoframe,
                           match=r"at 1 nodes, first at index \(3, 4, 2, 1\)$") as err:
            flow.comoving_residual(FlowSolution(sol.interval, sol.coframe.like(vals)))
        assert err.value.nodes == [(3, 4, 2, 1)]
        assert all(type(i) is int for i in err.value.nodes[0])

    @pytest.mark.parametrize("node", [(0, 4, 4, 4), (1, 4, 4, 4), (8, 4, 4, 4), (4, 4, 1, 4)])
    def test_unrepresentable_metric_inverse_on_any_node(self, node):
        # rows scaled by 2^-560 stay regular under Hadamard's bound, but
        # h = e^T e underflows to 0 there, so h^-1 is not representable; the
        # t-collar nodes are read by no norm
        fam = DiagonalFamily(case="B_nonzero", a=1.0, b=1.0,
                             Ll=lambda s, y: np.exp(0.5 * s), Ln=const_profile)
        sol = flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, 9)
        vals = sol.coframe.values.copy()
        vals[node] = np.ldexp(vals[node], -560)
        for include_boundary in (False, True):
            with pytest.raises(SingularMatrix):
                flow.comoving_residual(FlowSolution(sol.interval, sol.coframe.like(vals)),
                                       include_boundary=include_boundary)

    def test_simpson_primitive_close_to_exact(self):
        common = dict(
            case="B_zero", a=lambda x: np.exp(x), b=0.0,
            Ll=lambda s, y: 2.0 + s, Ln=const_profile,
        )
        with_exact = DiagonalFamily(a_primitive=lambda x: np.expm1(x), **common)
        with_quad = DiagonalFamily(**common)
        box, n = ((0, 0.1),) * 3, 17
        e1 = flow.diagonal_solution(with_exact, (0, 0.1), box, n).coframe.values
        e2 = flow.diagonal_solution(with_quad, (0, 0.1), box, n).coframe.values
        assert np.abs(e1 - e2).max() < 1e-9

    def test_ricci_flat_choice_vs_generic(self):
        rf = DiagonalFamily(
            case="B_nonzero", a=1.0, b=1.0,
            Ll=lambda s, y: np.exp(s) + 1.0, Ln=lambda s, z: 2.0 + 0.0 * s,
        )
        generic = DiagonalFamily(
            case="B_nonzero", a=1.0, b=1.0,
            Ll=lambda s, y: np.exp(0.5 * s), Ln=lambda s, z: 2.0 + 0.0 * s,
        )
        args = ((0, 0.02), SMALL_BOX, 17)
        res_rf = flow.diagonal_ricci_flat_residual(rf, *args)
        res_gen = flow.diagonal_ricci_flat_residual(generic, *args)
        assert res_rf[2:-2, 2:-2].max() < 1e-5
        assert res_gen[2:-2, 2:-2].max() > 1e-2


class TestPPWave:
    def test_log_solution_ode_residual_exactly_zero(self):
        data = PPWaveData.log_solution(0.3, -1.0, -0.2, 1.0, c=0.4)
        r_l, r_n = flow.pp_ricci_residual(data, np.linspace(-0.5, 0.5, 33))
        assert np.abs(r_l).max() == 0.0
        assert np.abs(r_n).max() == 0.0

    def test_fd_ode_residual_matches_analytic(self):
        data = PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0)
        fd_data = PPWaveData(fl=data.fl, fn=data.fn)
        x = np.linspace(-0.1, 0.1, 201)
        r_l, _ = flow.pp_ricci_residual(fd_data, x)
        assert np.abs(r_l[2:-2]).max() < 1e-3

    def test_metric_block_entries(self):
        data = PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.3)
        box = ((-0.05, 0.05), (0, 1), (0, 1), (0, 1))
        g = flow.pp_metric(data, box, (9, 5, 5, 5))
        xp = np.linspace(-0.05, 0.05, 9)
        g11, g12, g22 = data.metric_components(xp)
        assert np.allclose(g.values[..., 2, 2], g11[:, None, None, None])
        assert np.allclose(g.values[..., 2, 3], g12[:, None, None, None])
        assert np.allclose(g.values[..., 0, 1], 1.0)
        assert np.allclose(g.values[..., 0, 0], 0.0)
        assert np.all(data.delta(xp) > 0)

    def test_ricci_concentrated_in_null_slot(self):
        # a non-Ricci-flat profile still curves only the dx+ (x) dx+ slot
        data = PPWaveData(
            fl=lambda x: 0.3 * x,
            fn=lambda x: -0.2 * x,
            dfl=lambda x: 0.3 + 0.0 * x,
            dfn=lambda x: -0.2 + 0.0 * x,
            ddfl=lambda x: 0.0 * x,
            ddfn=lambda x: 0.0 * x,
        )
        g = flow.pp_metric(data, ((-0.1, 0.1), (0, 1), (0, 1), (0, 1)),
                           (33, 5, 5, 5))
        ric = sv.ricci4_fd(g)
        off_null = ric.copy()
        off_null[..., 0, 0] = 0.0
        assert sv.interior_max4(ric[..., 0, 0]) > 1e-3
        assert sv.interior_max4(off_null) < 1e-6


def walker_metric(n, shear):
    """2 dx+ dx- + f(x+, y1) (dy1^2 + dy2^2) with x+ = X0 + shear X2 on the
    coordinates (X0, x-, y1 = X2, y2).  d/dx- is parallel and null, its dual
    dx+ = dX0 + shear dX2; the y1-dependent transverse block curves the
    orthogonal complement, and a nonzero shear gives its spanning set a
    non-unit component."""
    def gfun(x0, xm, y1, y2):
        xp = x0 + shear * y1
        f = np.exp(0.7 * xp * y1 + 0.3 * y1**2) * (1.2 + 0.4 * np.sin(xp))
        out = np.zeros(x0.shape + (4, 4))
        out[..., 0, 1] = out[..., 1, 0] = 1.0
        out[..., 1, 2] = out[..., 2, 1] = shear
        out[..., 2, 2] = out[..., 3, 3] = f
        return out

    return Metric4Grid.from_metric_function(((0, 0.5),) * 4, n, gfun)


def plane_wave_reference(g, null_axis=1):
    """(perp_riemann, nabla_riemann) by the unoptimised formulas: one
    5-operand einsum for the projection, and the full nabla Riem contracted
    with the spanning set afterwards."""
    u_cov = g.values[..., :, null_axis]
    riem = np.einsum("...mk,...knps->...mnps", g.values, sv.riemann4_fd(g))
    big = int(np.argmax([np.abs(u_cov[..., m]).max() for m in range(4)]))
    perp = np.zeros(g.shape + (3, 4))
    for a, m in enumerate(m for m in range(4) if m != big):
        perp[..., a, m] = 1.0
        perp[..., a, big] = -u_cov[..., m] / u_cov[..., big]
    proj = np.einsum("...mnps,...am,...bn,...cp,...ds->...abcd",
                     riem, perp, perp, perp, perp)
    gamma = sv.christoffel_fd(g)
    nab = fd.partials(g, riem)
    nab = nab - np.einsum("...qlm,...qnps->...lmnps", gamma, riem)
    nab = nab - np.einsum("...qln,...mqps->...lmnps", gamma, riem)
    nab = nab - np.einsum("...qlp,...mnqs->...lmnps", gamma, riem)
    nab = nab - np.einsum("...qls,...mnpq->...lmnps", gamma, riem)
    directional = np.einsum("...lmnps,...al->...amnps", nab, perp)
    return sv.interior_max4(proj), sv.interior_max4(directional)


class TestPlaneWaveCheck:
    def test_log_solution_is_plane_wave(self):
        data = PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.3)
        g = flow.pp_metric(data, ((-0.02, 0.02), (0, 1), (0, 1), (0, 1)),
                           (33, 5, 5, 5))
        report = flow.plane_wave_check(g, tol=1e-5)
        assert report["passed"]
        assert report["nabla_null"] < 1e-10

    def test_nan_in_one_spanning_vector_fails(self, monkeypatch):
        # the nabla Riem maximum of the second spanning vector (the fourth
        # interior_max4 call, after nabla_null and perp_riemann) is NaN
        data = PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.3)
        g = flow.pp_metric(data, ((-0.02, 0.02), (0, 1), (0, 1), (0, 1)), (9, 5, 5, 5))
        calls = []

        def nan_on_fourth(values, include_boundary=False):
            calls.append(1)
            return float("nan") if len(calls) == 4 else sv.interior_max4(values, include_boundary)

        monkeypatch.setattr(flow, "interior_max4", nan_on_fourth)
        report = flow.plane_wave_check(g, tol=1e-5)
        assert len(calls) == 5
        assert np.isnan(report["nabla_riemann"]) and report["perp_riemann"] <= 1e-5
        assert not report["passed"]

    def test_non_parallel_direction_rejected(self):
        def gfun(t, x, y, z):
            out = np.zeros(t.shape + (4, 4))
            out[..., 0, 0] = -1.0
            out[..., 1, 1] = (1.0 + t) ** 2
            out[..., 2, 2] = 1.0
            out[..., 3, 3] = 1.0
            return out

        g = Metric4Grid.from_metric_function(((0, 0.5),) * 4, 9, gfun)
        with pytest.raises(NullDirectionNotParallel):
            flow.plane_wave_check(g, null_axis=1, tol=1e-6)

    def test_peak_memory_per_node(self):
        # nabla Riem is reduced one spanning vector at a time: ~9.5 kB per
        # node against ~18 kB with the 4^5 partials and the (3, 4^4)
        # directional derivative alive
        data = PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.3)
        shape = (33, 5, 5, 5)
        g = flow.pp_metric(data, ((-0.02, 0.02), (0, 1), (0, 1), (0, 1)), shape)
        assert traced_peak(lambda: flow.plane_wave_check(g, tol=1e-5)) < 12e3 * np.prod(shape)

    @pytest.mark.parametrize("shear, derivative_axes", [(0.0, [1, 2, 3]), (0.6, [0, 1, 2, 3])])
    def test_eliminated_axis_derivative_only_where_needed(self, monkeypatch, shear,
                                                          derivative_axes):
        # a pp-wave's spanning vectors have no component along the eliminated
        # axis (-0.0), so Riem is differentiated along the other three only
        calls = []
        grad = Metric4Grid.grad

        def counting_grad(self, values, axis):
            if values.ndim == 8:  # the Riemann tensor on the 4 grid axes
                calls.append(axis)
            return grad(self, values, axis)

        monkeypatch.setattr(Metric4Grid, "grad", counting_grad)
        flow.plane_wave_check(walker_metric(5, shear), tol=1e-6)
        assert sorted(calls) == derivative_axes

    # shear 1.5 > 1 moves the eliminated coordinate to y1 (the null covector
    # is dX0 + 1.5 dX2), between the kept axes
    @pytest.mark.parametrize("shear", [0.0, 0.6, 1.5])
    @pytest.mark.parametrize("n", [5, 7])
    def test_projection_matches_full_derivative_reference(self, n, shear):
        g = walker_metric(n, shear)
        report = flow.plane_wave_check(g, tol=1e-6)
        perp_riemann, nabla_riemann = plane_wave_reference(g)
        assert perp_riemann > 0.1 and nabla_riemann > 0.1
        assert abs(report["perp_riemann"] - perp_riemann) <= 1e-10 * perp_riemann
        assert abs(report["nabla_riemann"] - nabla_riemann) <= 1e-10 * nabla_riemann
        assert not report["passed"]
