"""Tests for the comoving flow solution families and the pp-wave family."""

import dataclasses

import numpy as np
import pytest

from cauchypairs import cli, flow, grid as fd, spacetime_verifier as sv
from cauchypairs.errors import (
    DegenerateCoframe,
    GridInvalid,
    IntervalContainsSingularity,
    NullDirectionNotParallel,
    ParamOutOfRange,
    SingularMatrix,
)
from cauchypairs.flow import DiagonalFamily, PPWaveData
from cauchypairs.spacetime_verifier import Grid4, Metric4Grid

from conftest import christoffel_reference, gradient_partials, riemann4_reference, traced_peak

SMALL_BOX = ((0, 0.02), (0, 0.02), (0, 0.02))


def const_profile(s, y):
    return 1.0 + 0.0 * s


def grid_major_comoving(grid):
    """`flow.comoving_residual` in the grid-major layout with batched matmul
    contractions, LAPACK's inverse and numpy's gradient: the route that the
    component planes replaced, kept as their oracle."""
    e = grid.values

    def d_t(values):
        return np.gradient(values, grid.spacing[0], axis=0, edge_order=2)

    h = np.swapaxes(e, -1, -2) @ e
    theta = -0.5 * d_t(h)
    theta_e = e @ np.swapaxes(theta @ np.linalg.inv(h), -1, -2)

    def norm(res):
        return fd.interior_max(res, 4)

    def d(omega):
        partial = gradient_partials(grid, omega, sv.SPATIAL_AXES)
        return partial - np.swapaxes(partial, -1, -2)

    eu = e[..., 0, :]
    report = {"evolution": norm(d_t(e) + theta_e)}
    for a, name in enumerate("uln"):
        alpha = theta_e[..., a, :]
        wedge = alpha[..., :, None] * eu[..., None, :] - alpha[..., None, :] * eu[..., :, None]
        report[f"exterior_{name}"] = norm(d(e[..., a, :]) - wedge)
    report["exterior_max"] = max(report[f"exterior_{name}"] for name in "uln")
    report["theta_eu_closed"] = norm(d(theta_e[..., 0, :]))
    report["theta_eu_static"] = norm(d_t(theta_e[..., 0, :]))
    report["max"] = max(report.values())
    return report


class TestComponentPlanes:
    """`comoving_residual` on component planes against the grid-major oracle
    on a dense coframe family; the box has side 1, so every key is O(1) and
    the difference quotients amplify rounding differences little."""

    @staticmethod
    def dense_solution(shape):
        """A coframe family on [0, 1]^4 with every entry nonzero."""
        def coframe(tt, xx, yy, zz):
            e = np.empty(tt.shape + (3, 3))
            for a in range(3):
                for j in range(3):
                    e[..., a, j] = (a == j) + 0.3 * np.sin(
                        (a + 1) * tt + (j + 1) * xx - a * yy + (a + j) * zz + a * j + 0.5 * j + 0.37)
            return e

        grid = Grid4.from_function(((0.0, 1.0),) * 4, shape, coframe)
        assert np.all(grid.values != 0.0)
        return grid

    @pytest.mark.parametrize("shape", [(9, 9, 9, 9), (7, 9, 6, 5)])
    def test_matches_the_grid_major_route(self, shape):
        coframe = self.dense_solution(shape)
        report = flow.comoving_residual(coframe)
        ref = grid_major_comoving(coframe)
        assert set(report) == set(ref)
        assert min(ref.values()) > 0.1
        for key in ref:
            assert abs(report[key] - ref[key]) <= 1e-14 * ref[key], key

    @pytest.mark.parametrize("axis", [0, 1, 2, 3])
    def test_outer_faces_reach_only_theta_eu_static(self, axis):
        # the report takes at most a first derivative along x, y and z, so
        # without the 2-node collar no node with an index 0 or n - 1 on those
        # axes reaches it; theta_eu_static is a second t-derivative of h, so
        # the t faces reach that key, and the max, and nothing else
        coframe = self.dense_solution((9, 9, 9, 9))
        ref = flow.comoving_residual(coframe)
        shear = np.array([[2.0, 0.3, -0.2], [0.25, 1.5, 0.4], [-0.15, 0.35, 3.0]])
        e = coframe.values.copy()
        face = (slice(None),) * axis + ([0, -1],)
        e[face] = e[face] @ shear
        report = flow.comoving_residual(coframe.like(e))
        assert list(report) == list(ref)
        changed = {key for key in ref if report[key] != ref[key]}
        assert changed == ({"theta_eu_static", "max"} if axis == 0 else set())


class TestComovingSlabs:
    """`comoving_residual` in t-slabs (`grid.slab_max`) against one slab: the
    same report bit for bit, and the same refusals."""

    @staticmethod
    def solutions():
        """The diag1 and diag2 fixtures' reports, and the dense coframe
        family, on which every key is nonzero, on two grids."""
        def fixture(name):
            return cli.run({"mode": "reproduce", "fixture": name})["result"]["comoving_residual"]

        def dense(shape):
            return flow.comoving_residual(TestComponentPlanes.dense_solution(shape))

        return [lambda: fixture("diag1"), lambda: fixture("diag2"),
                lambda: dense((17, 9, 9, 9)), lambda: dense((13, 5, 7, 6))]

    def test_slabs_match_one_slab(self, monkeypatch):
        monkeypatch.setattr(fd, "SLAB_NODES", 2**30)
        assert fd._slabs((17,) * 4) == [(0, 17)]
        whole = [run() for run in self.solutions()]
        # one-plane slabs, the first and last with the 2-plane collar folded
        # in, each read on a window with a two-plane halo; and 2-plane slabs
        monkeypatch.setattr(fd, "SLAB_NODES", 1)
        assert fd._slabs((17,) * 4) == [(0, 3)] + [(i, i + 1) for i in range(3, 14)] + [(14, 17)]
        for slab_nodes in (1, 2 * 9**3):
            monkeypatch.setattr(fd, "SLAB_NODES", slab_nodes)
            for run, ref in zip(self.solutions(), whole):
                report = run()
                assert list(report) == list(ref)
                assert [v.hex() for v in report.values()] == [v.hex() for v in ref.values()]
        assert min(min(ref.values()) for ref in whole[2:]) > 0.1

    @pytest.mark.parametrize("node", [
        (1, 4, 4, 4), (8, 4, 4, 4),  # t-collar planes, of the first and the last slab
        (4, 4, 4, 4), (2, 4, 4, 4),  # a halo plane of the first slab, and of the second
        (3, 4, 1, 4),  # the first plane of the second slab, on a y-collar
    ])
    def test_unrepresentable_metric_inverse_in_any_slab(self, monkeypatch, node):
        # slabs of planes [0, 3), [3, 4), [4, 5), [5, 6) and [6, 9), read on
        # [0, 5), [1, 6), [2, 7), [3, 8) and [4, 9)
        monkeypatch.setattr(fd, "SLAB_NODES", 1)
        assert fd._slabs((9,) * 4) == [(0, 3), (3, 4), (4, 5), (5, 6), (6, 9)]
        fam = DiagonalFamily(case="B_nonzero", a=1.0, b=1.0,
                             Ll=lambda s, y: np.exp(0.5 * s), Ln=const_profile)
        coframe = flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, 9)
        vals = coframe.values.copy()
        vals[node] = np.ldexp(vals[node], -560)
        with pytest.raises(SingularMatrix):
            flow.comoving_residual(coframe.like(vals))

    def test_degenerate_nodes_counted_over_every_slab(self, monkeypatch):
        fam = DiagonalFamily(case="B_nonzero", a=1.0, b=1.0,
                             Ll=lambda s, y: np.exp(0.5 * s), Ln=const_profile)
        coframe = flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, 9)
        vals = coframe.values.copy()
        for node in ((6, 1, 2, 3), (2, 4, 4, 4), (6, 0, 0, 0), (8, 8, 8, 8)):
            vals[node + (1,)] = 0.0
        bad = coframe.like(vals)
        for slab_nodes in (2**15, 1):
            monkeypatch.setattr(fd, "SLAB_NODES", slab_nodes)
            with pytest.raises(DegenerateCoframe,
                               match=r"at 4 nodes, first at index \(2, 4, 4, 4\)$") as err:
                flow.comoving_residual(bad)
            assert err.value.nodes == [(2, 4, 4, 4), (6, 0, 0, 0), (6, 1, 2, 3), (8, 8, 8, 8)]
        assert len(fd._slabs((9,) * 4)) == 5

    def test_residual_memory_is_bounded_by_the_slab(self, monkeypatch):
        # one slab of 65 planes peaks at ~310 B per grid node, 14.6 MB; slabs
        # of 4 planes that the norms read are read on windows of at most 8
        # planes of 9^3 nodes
        fam = DiagonalFamily(case="B_nonzero", a=1.0, b=1.0,
                             Ll=lambda s, y: np.exp(0.5 * s), Ln=const_profile)
        coframe = flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, (65, 9, 9, 9))
        monkeypatch.setattr(fd, "SLAB_NODES", 4 * 9**3)
        assert len(fd._slabs(coframe.shape)) == 16
        assert traced_peak(lambda: flow.comoving_residual(coframe)) < 400 * 8 * 9**3


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
            coframe = flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, 17)
            report = flow.comoving_residual(coframe)
            assert report["max"] < 1e-5, (fam.case, report)

    def test_comoving_residual_second_order(self):
        fam = DiagonalFamily(
            case="B_nonzero", a=1.0, b=1.0,
            Ll=lambda s, y: np.exp(s), Ln=const_profile,
        )
        res = {}
        for n in (17, 33):
            coframe = flow.diagonal_solution(fam, (0.0, 0.05), ((0, 0.05),) * 3, n)
            res[n] = flow.comoving_residual(coframe)["max"]
        assert res[33] < res[17] / 3

    def test_comoving_residual_peak_memory_per_node(self):
        # the 17^4 grid is three t-slabs, of 8, 6 and 3 planes, read on windows
        # of 10, 10 and 5 planes; in a window, h, its inverse and Theta_t are
        # freed once Theta_t(e_a) is built, and d_t e + Theta_t(e) once
        # reduced, and every term but h and its inverse lives on the nodes the
        # norms read: ~300 B per node of the larger window, ~172 B per grid
        # node, against ~650 B with them alive on every node
        fam = DiagonalFamily(case="B_nonzero", a=1.0, b=1.0,
                             Ll=lambda s, y: np.exp(0.5 * s), Ln=const_profile)
        coframe = flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, 17)
        assert traced_peak(lambda: flow.comoving_residual(coframe)) < 210 * 17**4

    def test_non_solution_detected(self):
        # e^{t + 2x} is not a function of the characteristic variable zeta
        def coframe(tt, xx, yy, zz):
            e = np.zeros(tt.shape + (3, 3))
            e[..., 0, 0] = 1.0
            e[..., 1, 1] = np.exp(tt + 2 * xx)
            e[..., 2, 2] = 1.0
            return e

        report = flow.comoving_residual(Grid4.from_function(((0, 0.5),) * 4, (9, 9, 5, 5), coframe))
        assert report["exterior_max"] > 0.1

    def test_degenerate_coframe_rejected(self):
        e = np.zeros((5, 5, 5, 5, 3, 3))  # identically singular
        with pytest.raises(DegenerateCoframe):
            flow.comoving_residual(Grid4(((0, 1),) * 4, e))

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_degeneracy_test_is_scale_invariant(self, c):
        fam = DiagonalFamily(case="B_nonzero", a=1.0, b=1.0,
                             Ll=lambda s, y: np.exp(0.5 * s), Ln=const_profile)
        coframe = flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, 9)
        vals = c * coframe.values
        report = flow.comoving_residual(coframe.like(vals))
        assert np.isfinite(report["max"])
        vals[3, 4, 2, 1, 1] = 0.0
        with pytest.raises(DegenerateCoframe,
                           match=r"at 1 nodes, first at index \(3, 4, 2, 1\)$") as err:
            flow.comoving_residual(coframe.like(vals))
        assert err.value.nodes == [(3, 4, 2, 1)]
        assert all(type(i) is int for i in err.value.nodes[0])

    @pytest.mark.parametrize("node", [(0, 4, 4, 4), (1, 4, 4, 4), (8, 4, 4, 4), (4, 4, 1, 4)])
    def test_unrepresentable_metric_inverse_on_any_node(self, node):
        # rows scaled by 2^-560 stay regular under Hadamard's bound, but
        # h = e^T e underflows to 0 there, so h^-1 is not representable; the
        # t-collar nodes are read by no norm
        fam = DiagonalFamily(case="B_nonzero", a=1.0, b=1.0,
                             Ll=lambda s, y: np.exp(0.5 * s), Ln=const_profile)
        coframe = flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, 9)
        vals = coframe.values.copy()
        vals[node] = np.ldexp(vals[node], -560)
        with pytest.raises(SingularMatrix):
            flow.comoving_residual(coframe.like(vals))

    def test_simpson_primitive_close_to_exact(self):
        common = dict(
            case="B_zero", a=lambda x: np.exp(x), b=0.0,
            Ll=lambda s, y: 2.0 + s, Ln=const_profile,
        )
        with_quad = DiagonalFamily(**common)
        n = 17
        for x0 in (0.0, 0.5):
            # the quadrature's primitive vanishes at the box's first x node,
            # so the exact one is shifted by A(x0) to be the same solution
            with_exact = DiagonalFamily(a_primitive=lambda x: np.expm1(x) - np.expm1(x0),
                                        **common)
            box = ((x0, x0 + 0.1), (0, 0.1), (0, 0.1))
            e1 = flow.diagonal_solution(with_exact, (0, 0.1), box, n).values
            e2 = flow.diagonal_solution(with_quad, (0, 0.1), box, n).values
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


@pytest.mark.parametrize("n", [(9, 9, 9), (9, 5, 5, 5, 5), 9.0],
                         ids=["three-counts", "five-counts", "float"])
class TestSampleCounts:
    """A count that is not one integer or four is refused before any
    function of the family is evaluated."""

    @staticmethod
    def recording(calls, f):
        return lambda *args: calls.append(1) or f(*args)

    def test_diagonal_solution(self, n):
        calls = []
        fam = DiagonalFamily(case="B_zero", a=self.recording(calls, lambda x: 1.0 + x), b=0.0,
                             Ll=self.recording(calls, const_profile),
                             Ln=self.recording(calls, const_profile))
        with pytest.raises(GridInvalid):
            flow.diagonal_solution(fam, (0.0, 0.02), SMALL_BOX, n)
        assert calls == []

    def test_pp_metric(self, n):
        calls = []
        log = PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.3)
        data = PPWaveData(fl=self.recording(calls, log.fl), fn=self.recording(calls, log.fn),
                          c=0.3)
        with pytest.raises(GridInvalid):
            flow.pp_metric(data, ((-0.02, 0.02), (0, 1), (0, 1), (0, 1)), n)
        assert calls == []


class TestPPWave:
    def test_log_solution_ode_residual_exactly_zero(self):
        data = PPWaveData.log_solution(0.3, -1.0, -0.2, 1.0, c=0.4)
        r_l, r_n = flow.pp_ricci_residual(data, np.linspace(-0.5, 0.5, 33))
        assert np.abs(r_l).max() == 0.0
        assert np.abs(r_n).max() == 0.0

    @pytest.mark.parametrize("missing", ["dfl", "dfn", "ddfl", "ddfn"])
    def test_ode_residual_refuses_data_without_exact_derivatives(self, missing):
        data = PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.3)
        bare = dataclasses.replace(data, **{missing: None})
        with pytest.raises(ParamOutOfRange, match="exact"):
            flow.pp_ricci_residual(bare, np.linspace(-0.1, 0.1, 9))
        # the metric reads no derivative, so such data still samples it
        box, n = ((-0.05, 0.05), (0, 1), (0, 1), (0, 1)), (9, 5, 5, 5)
        assert flow.pp_metric(bare, box, n).values.tobytes() \
            == flow.pp_metric(data, box, n).values.tobytes()

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

    return Metric4Grid.from_function(((0, 0.5),) * 4, n, gfun)


def plane_wave_reference(g, antisymmetrise=False, null_axis=1):
    """(perp_riemann, nabla_riemann) by the unoptimised formulas on the
    256-component R_mnps, (m, n)-antisymmetrised if asked: one 5-operand
    einsum for the projection, and nabla Riem from the full partials
    contracted with the spanning set."""
    u_cov = g.values[..., :, null_axis]
    riem = np.einsum("...mk,...knps->...mnps", g.values, riemann4_reference(g))
    if antisymmetrise:
        riem = 0.5 * (riem - np.swapaxes(riem, -4, -3))
    big = int(np.argmax([np.abs(u_cov[..., m]).max() for m in range(4)]))
    perp = np.zeros(g.shape + (3, 4))
    for a, m in enumerate(m for m in range(4) if m != big):
        perp[..., a, m] = 1.0
        perp[..., a, big] = -u_cov[..., m] / u_cov[..., big]
    proj = np.einsum("...mnps,...am,...bn,...cp,...ds->...abcd",
                     riem, perp, perp, perp, perp)
    # Gamma^q_{a x} = v_a^l Gamma^q_{l x}
    gamma = np.einsum("...al,...qlx->...qax", perp, christoffel_reference(g, g.values))
    nab = np.einsum("...al,...lmnps->...amnps", perp, gradient_partials(g, riem))
    nab -= np.einsum("...qam,...qnps->...amnps", gamma, riem)
    nab -= np.einsum("...qan,...mqps->...amnps", gamma, riem)
    nab -= np.einsum("...qap,...mnqs->...amnps", gamma, riem)
    nab -= np.einsum("...qas,...mnpq->...amnps", gamma, riem)
    return sv.interior_max4(proj), sv.interior_max4(nab)


def whole_grid_plane_wave(g, tol):
    """`plane_wave_check`'s report with every term built on every node from
    the whole-grid kernels and reduced by `interior_max4`: the reference of
    the box route."""
    u_cov = g.values[..., :, flow.NULL_AXIS]
    u_res = sv.interior_max4(sv.covariant_derivative4(g, u_cov))
    riem = sv.riemann4_fd(g)
    big = int(np.argmax([float(np.abs(u_cov[..., m]).max()) for m in range(4)]))
    perp = np.zeros(g.shape + (3, 4))
    for a, m in enumerate(m for m in range(4) if m != big):
        perp[..., a, m] = 1.0
        perp[..., a, big] = -u_cov[..., m] / u_cov[..., big]
    lo, hi = (list(i) for i in zip(*sv.PAIRS))
    first, second = perp[..., [0, 0, 1], :], perp[..., [1, 2, 2], :]
    wedge = first[..., lo] * second[..., hi] - first[..., hi] * second[..., lo]
    perp_riemann = sv.interior_max4(wedge @ riem @ np.swapaxes(wedge, -1, -2))
    gam = np.swapaxes(sv.christoffel_fd(g), -3, -2).reshape(g.shape + (4, 16))
    action = ((perp @ gam) @ flow._BIVECTOR_ACTION).reshape(g.shape + (3, 6, 6))
    d_big = g.grad(riem, big) if np.any(perp[..., big]) else None
    nabla_riemann = []
    for a, m in enumerate(m for m in range(4) if m != big):
        w = action[..., a, :, :]
        term = g.grad(riem, m)
        if d_big is not None:
            term += perp[..., a, big, None, None] * d_big
        term -= w @ riem
        term -= riem @ np.swapaxes(w, -1, -2)
        nabla_riemann.append(sv.interior_max4(term))
    nabla_riemann = float(np.max(nabla_riemann))
    return {"nabla_null": u_res, "perp_riemann": perp_riemann,
            "nabla_riemann": nabla_riemann,
            "passed": bool(perp_riemann <= tol and nabla_riemann <= tol)}


class TestPlaneWaveCheck:
    @pytest.mark.parametrize("metric", [
        lambda: flow.pp_metric(PPWaveData.log_solution(0.1, -1.5, -0.2, 1.2, c=0.4),
                               ((-0.3, 0.3), (0, 1), (0, 1), (0, 1)), (9, 7, 6, 8)),
        lambda: walker_metric((7, 5, 8, 6), 0.6),
        lambda: walker_metric((6, 7, 5, 8), 1.5),
    ], ids=["pp-wave", "walker-0.6", "walker-1.5"])
    def test_box_route_matches_the_whole_grid_report(self, metric):
        # the terms built on the nodes the norms read report the whole-grid
        # values bit for bit; on the Walker metrics R is also differentiated
        # along the eliminated axis
        g = metric()
        report = flow.plane_wave_check(g, tol=1e-6)
        reference = whole_grid_plane_wave(g, tol=1e-6)
        assert report == reference and reference["nabla_riemann"] > 0

    def test_log_solution_is_plane_wave(self):
        data = PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.3)
        g = flow.pp_metric(data, ((-0.02, 0.02), (0, 1), (0, 1), (0, 1)),
                           (33, 5, 5, 5))
        report = flow.plane_wave_check(g, tol=1e-5)
        assert report["passed"]
        assert report["nabla_null"] < 1e-10

    def test_nan_in_one_spanning_vector_fails(self, monkeypatch):
        # the nabla Riem maximum of the second spanning vector (the fourth
        # norm, after nabla_null and perp_riemann) is NaN
        data = PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.3)
        g = flow.pp_metric(data, ((-0.02, 0.02), (0, 1), (0, 1), (0, 1)), (9, 5, 5, 5))
        calls = []
        max_abs = fd.max_abs

        def nan_on_fourth(values):
            calls.append(1)
            return float("nan") if len(calls) == 4 else max_abs(values)

        monkeypatch.setattr(fd, "max_abs", nan_on_fourth)
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

        g = Metric4Grid.from_function(((0, 0.5),) * 4, 9, gfun)
        with pytest.raises(NullDirectionNotParallel):
            flow.plane_wave_check(g, tol=1e-6)

    def test_peak_memory_per_node(self):
        # R is the 6x6 bivector block and nabla R is reduced one spanning
        # vector at a time: ~3.1 kB per node
        data = PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.3)
        shape = (33, 5, 5, 5)
        g = flow.pp_metric(data, ((-0.02, 0.02), (0, 1), (0, 1), (0, 1)), shape)
        assert traced_peak(lambda: flow.plane_wave_check(g, tol=1e-5)) < 4.6e3 * np.prod(shape)

    @pytest.mark.parametrize("shear, derivative_axes", [(0.0, [1, 2, 3]), (0.6, [0, 1, 2, 3])])
    def test_eliminated_axis_derivative_only_where_needed(self, monkeypatch, shear,
                                                          derivative_axes):
        # a pp-wave's spanning vectors have no component along the eliminated
        # axis (-0.0), so R is differentiated along the other three only
        calls = []
        grad = fd.Grid.grad

        def counting_grad(grid, values, axis, own=None):
            if values.shape[4:] == (6, 6):  # the Riemann block, not a 4x4 Gamma_p
                calls.append(axis)
            return grad(grid, values, axis, own)

        monkeypatch.setattr(fd.Grid, "grad", counting_grad)
        flow.plane_wave_check(walker_metric(5, shear), tol=1e-6)
        assert sorted(calls) == derivative_axes

    # shear 1.5 > 1 moves the eliminated coordinate to y1 (the null covector
    # is dX0 + 1.5 dX2), between the kept axes
    @pytest.mark.parametrize("shear", [0.0, 0.6, 1.5])
    @pytest.mark.parametrize("n", [5, 7])
    def test_projection_matches_full_derivative_reference(self, n, shear):
        # on the (m, n)-antisymmetrised tensor the bivector form is the same
        # algebra, so only rounding separates the two
        g = walker_metric(n, shear)
        report = flow.plane_wave_check(g, tol=1e-6)
        perp_riemann, nabla_riemann = plane_wave_reference(g, antisymmetrise=True)
        assert perp_riemann > 0.1 and nabla_riemann > 0.1
        assert abs(report["perp_riemann"] - perp_riemann) <= 1e-10 * perp_riemann
        assert abs(report["nabla_riemann"] - nabla_riemann) <= 1e-10 * nabla_riemann
        assert not report["passed"]

    @pytest.mark.parametrize("shear", [0.6, 1.5])
    def test_shift_from_the_plain_tensor_is_discretisation_error(self, shear):
        # the plain FD tensor is antisymmetric in (m, n) only to O(h^2), so
        # nabla_riemann moves from the 256-component reference by a shift
        # that falls at second order (on this metric perp_riemann moves by
        # rounding only, and at shear 0 neither moves).  The metric varies
        # along X0 and y1 only, so only those axes are refined
        shifts = []
        for n in (9, 17):
            g = walker_metric((n, 5, n, 5), shear)
            report = flow.plane_wave_check(g, tol=1e-6)
            shifts.append(abs(report["nabla_riemann"] - plane_wave_reference(g)[1]))
        assert shifts[1] > 0
        assert np.log2(shifts[0] / shifts[1]) >= 1.8, shifts
