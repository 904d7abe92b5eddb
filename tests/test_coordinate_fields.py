"""Tests for sampled-field calculus and the universal-cover construction."""

import numpy as np
import pytest

from cauchypairs import coordinate_fields as cf
from cauchypairs import grid as fd
from cauchypairs.coordinate_fields import FieldGrid, UniversalCoverData
from cauchypairs.errors import (
    CauchyPairsError,
    DegenerateCoframe,
    GridInvalid,
    GridTooSmall,
    MixedConditionViolated,
    SingularMatrix,
    WDerivativeVanishes,
    YZDependence,
)

from conftest import christoffel_reference, gradient_partials, traced_peak

BOX = ((0.0, 0.1), (0.0, 0.1), (0.0, 0.1))


def warped_realization(n, mu=0.5, box=BOX):
    """Coframe e_u = dz, e_l = e^{-mu z} dx, e_n = e^{-z} dy with constant
    frame shape operator diag(1, mu, 1)."""
    grid = FieldGrid.from_function(box, n, lambda x, y, z: 0.0 * x)
    _, _, zz = grid.meshgrid()
    e = np.zeros(grid.shape + (3, 3))
    e[..., 0, 2] = 1.0
    e[..., 1, 0] = np.exp(-mu * zz)
    e[..., 2, 1] = np.exp(-zz)
    th = np.zeros(grid.shape + (3, 3))
    th[..., 0, 0] = 1.0
    th[..., 1, 1] = mu
    th[..., 2, 2] = 1.0
    return grid.like(e), grid.like(th)


class TestFieldGrid:
    def test_too_small_grid_rejected(self):
        with pytest.raises(GridTooSmall):
            FieldGrid(BOX, np.zeros((4, 5, 5)))

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            FieldGrid(((0, 0), (0, 1), (0, 1)), np.zeros((5, 5, 5)))

    def test_nonfinite_values_rejected(self):
        vals = np.zeros((5, 5, 5))
        vals[2, 2, 2] = np.nan
        with pytest.raises(ValueError):
            FieldGrid(BOX, vals)

    def test_spacing_and_axes(self):
        g = FieldGrid(((0, 1), (0, 2), (0, 3)), np.zeros((5, 9, 7)))
        assert g.spacing == (0.25, 0.25, 0.5)
        assert g.axis(2)[0] == 0 and g.axis(2)[-1] == 3


class TestExteriorCalculus:
    def test_d_of_affine_covector_exact(self):
        g = FieldGrid.from_function(BOX, 9, lambda x, y, z: 0.0 * x)
        xx, yy, zz = g.meshgrid()
        om = np.stack([yy, -xx, 2 * zz], axis=-1)
        d = cf.fd_exterior_derivative(g.like(om)).values
        assert np.allclose(d[..., 0, 1], -2.0)
        assert np.allclose(d[..., 1, 0], 2.0)
        assert np.allclose(d[..., 0, 2], 0.0)

    def test_dd_residual_small_for_smooth_field(self):
        g = FieldGrid.from_function(BOX, 17, lambda x, y, z: 0.0 * x)
        xx, yy, zz = g.meshgrid()
        om = np.stack([np.sin(3 * yy + zz), np.cos(2 * xx), xx * yy], axis=-1)
        d = cf.fd_exterior_derivative(g.like(om)).values
        # the dx^dy^dz coefficient of d(d omega): a cyclic sum of partials,
        # O(h^2) for the discrete operator
        dd = sum(g.grad(d[..., j, k], i) for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        assert cf.interior_max(g, dd) < 1e-10

    def test_interior_max_excludes_collar(self):
        g = FieldGrid.from_function(BOX, 9, lambda x, y, z: 0.0 * x)
        v = np.zeros(g.shape)
        v[0, 0, 0] = 100.0
        v[1, 4, 4] = 50.0  # the collar is two nodes deep
        v[4, 4, 4] = 1.0
        assert cf.interior_max(g, v) == 1.0


class TestChristoffel:
    def test_conformal_metric_matches_analytic(self):
        # h_ij = e^{2x} delta_ij: Gamma^k_ij = d_i phi delta_kj + d_j phi delta_ki
        #                                       - d_k phi delta_ij with phi = x
        g = FieldGrid.from_function(BOX, 33, lambda x, y, z: 0.0 * x)
        xx, _, _ = g.meshgrid()
        h = fd.to_planes(np.exp(2 * xx)[..., None, None] * np.eye(3), 3)
        gamma = fd.from_planes(cf.christoffel3_fd(g, h, fd.plane_inverse(h)), 3)
        dphi = np.array([1.0, 0.0, 0.0])
        expected = (
            np.einsum("i,kj->kij", dphi, np.eye(3))
            + np.einsum("j,ki->kij", dphi, np.eye(3))
            - np.einsum("k,ij->kij", dphi, np.eye(3))
        )
        assert np.abs(gamma - expected).max() < 1e-4

    def test_flat_metric_covariant_derivative_is_partial(self):
        g = FieldGrid.from_function(BOX, 9, lambda x, y, z: 0.0 * x)
        xx, yy, _ = g.meshgrid()
        h = fd.to_planes(np.broadcast_to(np.eye(3), g.shape + (3, 3)), 3)
        om = np.stack([yy, xx, 0 * xx])
        nab = cf.covariant_derivative_covector(g, h, om)
        assert np.allclose(nab[0, 1], 1.0)
        assert np.allclose(nab[1, 0], 1.0)
        assert np.allclose(nab[2, :], 0.0)


class TestConstraintResidual:
    def test_warped_realization_residual_small(self):
        e, th = warped_realization(33)
        report = cf.constraint_residual_fd(e, th)
        assert report["max"] < 1e-4
        assert set(report) >= {
            "exterior_u", "exterior_l", "exterior_n", "exterior_max",
            "theta_eu_closed", "covariant_u", "covariant_l", "max",
        }

    def test_wrong_theta_detected(self):
        e, th = warped_realization(17)
        wrong = th.like(th.values * 1.5)
        report = cf.constraint_residual_fd(e, wrong)
        assert report["max"] > 1e-2

    def test_malformed_payloads_raise_grid_invalid(self):
        e, th = warped_realization(9)
        with pytest.raises(GridInvalid):
            cf.constraint_residual_fd(e, th.like(th.values[..., 0]))
        with pytest.raises(GridInvalid):
            cf.fd_exterior_derivative(e)

    def test_singular_coframe_rejected(self):
        e, th = warped_realization(9)
        vals = e.values.copy()
        vals[3, 3, 3] = 0.0
        with pytest.raises(DegenerateCoframe, match=r"at 1 nodes, first at index \(3, 3, 3\)") as err:
            cf.constraint_residual_fd(e.like(vals), th)
        assert err.value.nodes == [(3, 3, 3)]
        assert all(type(i) is int for i in err.value.nodes[0])

    # at 1e+-150 det and the row-norm product over- or underflow unless each
    # row is rescaled first; at 1e+-100 so does an unscaled closed-form inverse
    @pytest.mark.parametrize("c", [1e-150, 1e-100, 1e-6, 1.0, 1e6, 1e100, 1e150])
    def test_degeneracy_test_is_scale_invariant(self, c):
        e, th = warped_realization(9)
        report = cf.constraint_residual_fd(e.like(c * e.values), th)
        assert np.isfinite(report["max"])
        vals = c * e.values
        vals[3, 3, 3, 1] = 0.0
        with pytest.raises(DegenerateCoframe) as err:
            cf.constraint_residual_fd(e.like(vals), th)
        assert err.value.nodes == [(3, 3, 3)]

    # past 1e+-154 the squared row norms over- or underflow; the Hadamard test
    # still passes the regular rows, and the metric inverse fails typed
    @pytest.mark.parametrize("c", [1e-200, 1e-160, 1e155, 1e200])
    def test_regular_coframe_past_the_norm_range(self, c):
        e, th = warped_realization(9)
        with np.errstate(all="ignore"), pytest.raises(CauchyPairsError) as err:
            cf.constraint_residual_fd(e.like(c * e.values), th)
        assert not isinstance(err.value, DegenerateCoframe)
        vals = c * e.values
        vals[3, 3, 3, 1] = 0.0
        with pytest.raises(DegenerateCoframe) as err:
            cf.constraint_residual_fd(e.like(vals), th)
        assert err.value.nodes == [(3, 3, 3)]

    def test_nan_reaches_the_max(self):
        # at 1e154 the Christoffel product overflows to NaN in both covariant
        # residuals while the exterior residuals stay finite
        e, th = warped_realization(9)
        with np.errstate(all="ignore"):
            report = cf.constraint_residual_fd(e.like(1e154 * e.values), th)
        assert np.isnan(report["covariant_u"]) and np.isfinite(report["exterior_max"])
        assert np.isnan(report["max"])

    def test_mismatched_theta_grid_rejected(self):
        e, _ = warped_realization(9)
        _, th = warped_realization(11)
        with pytest.raises(GridInvalid):
            cf.constraint_residual_fd(e, th)

    @pytest.mark.parametrize("n", [9, 17, 23])
    def test_slabs_match_one_slab(self, monkeypatch, n):
        e, th = warped_realization(n)
        xx, _, _ = e.meshgrid()
        off = th.values * 1.5 + np.cos(40 * xx)[..., None, None]
        cases = [(e, th), (e, th.like(off))]
        monkeypatch.setattr(fd, "SLAB_NODES", n**3)
        assert fd._slabs(e.shape) == [(0, n)]
        whole = [cf.constraint_residual_fd(*c) for c in cases]
        # one-plane slabs, the first and last with the 2-plane collar folded
        # in, read on 3-plane windows between 4-plane ones at the ends; and
        # 3-plane slabs with a shorter remainder
        monkeypatch.setattr(fd, "SLAB_NODES", 1)
        assert fd._slabs(e.shape) == ([(0, 3)] + [(i, i + 1) for i in range(3, n - 3)]
                                      + [(n - 3, n)])
        for slab_nodes in (1, 3 * n**2):
            monkeypatch.setattr(fd, "SLAB_NODES", slab_nodes)
            for (coframe, theta), ref in zip(cases, whole):
                report = cf.constraint_residual_fd(coframe, theta)
                assert list(report) == list(ref)
                assert [v.hex() for v in report.values()] == [v.hex() for v in ref.values()]
        assert min(whole[1].values()) > 0

    @staticmethod
    def off_solution(n):
        """The warped realization with a Theta that varies over the box, so
        that every reported residual is nonzero."""
        e, th = warped_realization(n)
        xx, yy, zz = e.meshgrid()
        wave = np.cos(40 * xx + 9 * yy - 13 * zz)[..., None, None]
        return e, th.like(th.values * 1.5 + wave * np.arange(1, 10).reshape(3, 3))

    @pytest.mark.parametrize("slab_nodes", [None, 1])
    def test_outer_faces_do_not_reach_the_report(self, monkeypatch, slab_nodes):
        # every term takes first derivatives only, so without the 2-node
        # collar the report reads no node with an index 0 or n - 1
        n = 17
        if slab_nodes:
            monkeypatch.setattr(fd, "SLAB_NODES", slab_nodes)
        e, th = self.off_solution(n)
        ref = cf.constraint_residual_fd(e, th)
        face = np.zeros(e.shape, dtype=bool)
        for axis in range(3):
            face[(slice(None),) * axis + (0,)] = face[(slice(None),) * axis + (-1,)] = True
        shear = np.array([[2.0, 0.3, -0.2], [0.25, 1.5, 0.4], [-0.15, 0.35, 3.0]])
        e_vals, th_vals = e.values.copy(), th.values.copy()
        e_vals[face] = e_vals[face] @ shear
        th_vals[face] = -7.0 * th_vals[face] + 0.5
        report = cf.constraint_residual_fd(e.like(e_vals), th.like(th_vals))
        assert report == ref and min(ref.values()) > 0

    @pytest.mark.parametrize("node,slab_nodes", [
        ((0, 0, 0), None), ((8, 0, 8), None), ((8, 1, 8), None), ((16, 8, 16), None),
        ((8, 8, 8), None),
        # one-plane slabs [0, 3), [3, 4), ..., [14, 17): an x-collar node of
        # the first and of the last slab, a y-collar node on the first own
        # plane of slab 2, which is the halo plane of slabs 1 and 3, and a
        # z-collar node on the last plane of slab 1
        ((1, 8, 8), 1), ((15, 8, 8), 1), ((3, 1, 8), 1), ((2, 8, 0), 1),
        # slabs of 4 planes that the norms read, [0, 6), [6, 10), ...: the
        # same on the first plane of slab 2, the halo plane of slab 1, and on
        # the last plane of slab 1
        ((6, 1, 8), 4 * 17**2), ((5, 8, 0), 4 * 17**2),
    ])
    def test_unrepresentable_metric_inverse_on_any_node(self, monkeypatch, node, slab_nodes):
        # rows scaled by 2^-560 stay regular under Hadamard's bound, but
        # h = e^T e underflows to 0 there, so h^-1 is not representable
        if slab_nodes:
            monkeypatch.setattr(fd, "SLAB_NODES", slab_nodes)
            assert fd._slabs((17, 17, 17))[:2] == ([(0, 3), (3, 4)] if slab_nodes == 1
                                                   else [(0, 6), (6, 10)])
        e, th = self.off_solution(17)
        vals = e.values.copy()
        vals[node] = np.ldexp(vals[node], -560)
        with pytest.raises(SingularMatrix):
            cf.constraint_residual_fd(e.like(vals), th)

    def test_residual_memory_is_bounded_by_the_slab(self):
        # nine slabs of 7 planes that the norms read, the first and last with
        # the 2-plane collar folded in: ~23.7 MiB
        e, th = warped_realization(65)
        assert traced_peak(lambda: cf.constraint_residual_fd(e, th)) < 29 * 2**20

    def test_christoffel_peak_memory_per_node(self):
        # ~432 B per node: the six partials d_i g_jl, the output, and three
        # planes each of the symmetrised partials and of one product (the
        # caller's inverse is allocated before the trace starts)
        n = 33
        e, _ = warped_realization(n)
        h = fd.coframe_metric(fd.to_planes(e.values, 3))
        hinv = fd.plane_inverse(h)
        assert traced_peak(lambda: cf.christoffel3_fd(e, h, hinv)) < 600 * n**3

    def test_coframe_metric(self):
        e, _ = warped_realization(9, mu=0.5)
        h = fd.coframe_metric(fd.to_planes(e.values, 3))
        _, _, zz = FieldGrid.from_function(BOX, 9, lambda x, y, z: 0.0 * x).meshgrid()
        assert np.allclose(h[0, 0], np.exp(-2 * 0.5 * zz))
        assert np.allclose(h[2, 2], 1.0)
        assert np.allclose(h[0, 1], 0.0)


def sheared_realization(n, mu=0.5, box=BOX):
    """The warped realization pulled back by x -> A x with a dense A: every
    coframe entry is nonzero, and Theta keeps its frame components."""
    a = np.array([[1.0, 0.3, -0.2], [0.25, 1.0, 0.4], [-0.15, 0.35, 1.0]])
    grid = FieldGrid.from_function(box, n, lambda x, y, z: 0.0 * x)
    mesh = np.stack(grid.meshgrid(), axis=-1)
    z = mesh @ a[2]
    rows = np.zeros(grid.shape + (3, 3))
    rows[..., 0, 2] = 1.0
    rows[..., 1, 0] = np.exp(-mu * z)
    rows[..., 2, 1] = np.exp(-z)
    th = np.zeros(grid.shape + (3, 3))
    th[..., 0, 0], th[..., 1, 1], th[..., 2, 2] = 1.0, mu, 1.0
    return grid.like(rows @ a), grid.like(th)


def grid_major_residual(coframe, theta):
    """`constraint_residual_fd` as one grid-major whole-grid evaluation from
    numpy's gradient and an einsum Christoffel set: the layout that the
    component-plane slabs replaced, kept as their oracle."""
    e, grid = coframe.values, coframe
    theta_e = theta.values @ e
    eu = e[..., 0, :]

    def norm(res):
        return fd.interior_max(res, 3)

    def d(omega):
        partial = gradient_partials(grid, omega)
        return partial - np.swapaxes(partial, -1, -2)

    def wedge(alpha, beta):
        return alpha[..., :, None] * beta[..., None, :] - alpha[..., None, :] * beta[..., :, None]

    def nabla(omega):
        return gradient_partials(grid, omega) - np.einsum("...kij,...k->...ij", gamma, omega)

    report = {f"exterior_{name}": norm(d(e[..., a, :]) - wedge(theta_e[..., a, :], eu))
              for a, name in enumerate("uln")}
    report["exterior_max"] = max(report.values())
    report["theta_eu_closed"] = norm(d(theta_e[..., 0, :]))
    gamma = christoffel_reference(grid, np.swapaxes(e, -1, -2) @ e)
    report["covariant_u"] = norm(nabla(eu) + np.swapaxes(e, -1, -2) @ theta_e
                                 - theta_e[..., 0, :, None] * eu[..., None, :])
    report["covariant_l"] = norm(nabla(e[..., 1, :]) - theta_e[..., 1, :, None] * eu[..., None, :])
    report["max"] = max(report.values())
    return report


class TestComponentPlanes:
    """The component-plane slabs against the grid-major oracle on a dense
    sheared coframe with an off-solution Theta, where the two layouts sum in
    different orders.  A rounding difference in h or Theta(e_u) reaches the
    report through a difference quotient, multiplied by ~1/h, so the box has
    side 1 and every key is O(1)."""

    @pytest.mark.parametrize("n", [9, 17])
    def test_matches_the_grid_major_route(self, n):
        e, th = sheared_realization(n, box=((0.0, 1.0),) * 3)
        xx, yy, _ = e.meshgrid()
        bump = np.array([[0.0, 1.0, -0.5], [1.0, 0.3, 0.2], [-0.5, 0.2, 0.7]])
        theta = th.like(1.5 * th.values + np.sin(3 * xx + yy)[..., None, None] * bump)
        assert np.all(e.values != 0.0)
        report = cf.constraint_residual_fd(e, theta)
        ref = grid_major_residual(e, theta)
        assert list(report) == list(ref)
        assert min(ref.values()) > 0.5
        for key in ref:
            assert abs(report[key] - ref[key]) <= 1e-14 * ref[key], key

    def test_planes_round_trip(self, rng):
        values = rng.standard_normal((5, 6, 7, 3, 2))
        planes = fd.to_planes(values, 3)
        assert planes.shape == (3, 2, 5, 6, 7) and planes.flags.c_contiguous
        np.testing.assert_array_equal(planes[1, 0], values[..., 1, 0])
        np.testing.assert_array_equal(fd.from_planes(planes, 3), values)


def rotating_hx(x):
    """A transverse metric whose eigenframe turns with x."""
    c, s = np.cos(0.3 * x), np.sin(0.3 * x)
    r = np.array([[c, -s], [s, c]])
    return r @ np.diag([np.exp(2 * x), np.exp(-x)]) @ r.T


class TestSpdSqrt:
    """The batched eigendecomposition root against scipy's sqrtm, which
    serves only as the oracle."""

    @staticmethod
    def sqrtm(blocks):
        linalg = pytest.importorskip("scipy.linalg")
        return np.array([np.real(linalg.sqrtm(m)) for m in blocks])

    @staticmethod
    def relative(root, ref):
        def frobenius(m):
            return np.sqrt((m**2).sum(axis=(-2, -1)))
        return (frobenius(root - ref) / frobenius(ref)).max()

    def test_bit_identical_on_conformal_blocks(self):
        # the universal fixture's transverse metric e^{2x} I
        blocks = np.exp(2 * np.linspace(0, 0.02, 33))[:, None, None] * np.eye(2)
        assert cf.spd_sqrt(blocks).tobytes() == self.sqrtm(blocks).tobytes()

    def test_random_spd_batch(self, rng):
        a = rng.standard_normal((2000, 2, 2))
        blocks = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(2)
        assert self.relative(cf.spd_sqrt(blocks), self.sqrtm(blocks)) <= 1e-15

    @pytest.mark.parametrize("n", [33, 65])
    def test_rotating_family(self, n):
        blocks = np.array([rotating_hx(x) for x in np.linspace(0, 0.1, n)])
        assert self.relative(cf.spd_sqrt(blocks), self.sqrtm(blocks)) <= 1e-15


class TestUniversalCover:
    def scalar_grid(self, n=33, box=((0, 0.02),) * 3):
        return FieldGrid.from_function(box, n, lambda x, y, z: 0.0 * x)

    @pytest.mark.parametrize("u_payload, hx", [
        ((3,), np.eye(2)),
        ((), np.eye(3)),
        ((), np.array([[1.0, 2.0], [0.0, 1.0]])),
        ((), -np.eye(2)),
    ])
    def test_malformed_input_raises_grid_invalid(self, u_payload, hx):
        g = FieldGrid(BOX, np.zeros((5, 5, 5) + u_payload))
        with pytest.raises(GridInvalid):
            UniversalCoverData(g, hx=lambda x: hx, F=lambda x: 0.0)

    @pytest.mark.parametrize("c", [1e-9, 1.0, 1e9])
    def test_symmetry_of_hx_is_tested_at_its_scale(self, c):
        # h_yz = c/2 against h_zy = 0; an absolute tolerance of 1e-8 let it
        # pass at c = 1e-9
        g = self.scalar_grid(9)
        UniversalCoverData(g, hx=lambda x: c * np.eye(2), F=lambda x: 0.0)
        with pytest.raises(GridInvalid, match="symmetric"):
            UniversalCoverData(g, hx=lambda x: c * np.array([[1.0, 0.5], [0.0, 1.0]]),
                               F=lambda x: 0.0)

    def test_requires_scalar_grid(self):
        g = FieldGrid(BOX, np.zeros((5, 5, 5, 3)))
        with pytest.raises(ValueError):
            UniversalCoverData(g, hx=lambda x: np.eye(2), F=lambda x: 0.0)

    def test_rejects_non_spd_transverse_metric(self):
        g = self.scalar_grid(9)
        with pytest.raises(ValueError):
            UniversalCoverData(g, hx=lambda x: -np.eye(2), F=lambda x: 0.0)
        with pytest.raises(ValueError):
            UniversalCoverData(
                g, hx=lambda x: np.array([[1.0, 2.0], [0.0, 1.0]]),
                F=lambda x: 0.0,
            )

    def test_diagonal_warped_theta_and_residual(self):
        g = self.scalar_grid()
        data = UniversalCoverData(
            g, hx=lambda x: np.exp(2 * x) * np.eye(2), F=lambda x: -1.0
        )
        assert data.mixed_residual == 0.0
        theta = cf.build_universal_theta(data)
        # u = 0, h_x = e^{2x} I, F = -1 gives the constant operator -identity
        # (up to the O(h^2) error of the sampled d_x h_x)
        assert np.abs(theta.values - (-np.eye(3))).max() < 1e-5
        report = cf.constraint_residual_fd(data.coframe_grid(), theta)
        assert report["max"] < 1e-6

    def test_rotating_family_repair_converges(self):
        residuals = {}
        for n in (33, 65):
            g = FieldGrid.from_function(((0, 0.1),) * 3, (n, 5, 5),
                                        lambda x, y, z: 0.0 * x)
            data = UniversalCoverData(g, hx=rotating_hx, F=lambda x: 0.0)
            theta = cf.build_universal_theta(data)
            report = cf.constraint_residual_fd(data.coframe_grid(), theta)
            residuals[n] = report["max"]
        # rotation repair leaves only the O(h^2) discretization floor
        assert residuals[65] < residuals[33] / 3

    def test_unrepaired_mixed_defect_raises(self):
        # an eigenframe turning ten radians per unit x: at 9 samples the
        # repaired defect (0.932 at x = 0.125) is FD error above the O(h^2) floor
        def hx(x):
            c, s = np.cos(10 * x), np.sin(10 * x)
            r = np.array([[c, -s], [s, c]])
            return r @ np.diag([1.0, 4.0]) @ r.T

        g = FieldGrid.from_function(((0, 1),) * 3, 9, lambda x, y, z: 0.0 * x)
        with pytest.raises(MixedConditionViolated) as info:
            UniversalCoverData(g, hx=hx, F=lambda x: 0.0)
        assert info.value.max_residual > 0
        assert info.value.location in g.axis(0)

    def test_warped_F_reproduces_constant(self):
        g = self.scalar_grid()
        F = cf.warped_F_for_ricci_flat(lambda x: x, g)
        assert np.abs(F + 1.0).max() < 1e-6

    def test_vanishing_w_derivative_rejected(self):
        g = self.scalar_grid(9)
        with pytest.raises(WDerivativeVanishes):
            cf.warped_F_for_ricci_flat(lambda x: x * x, g)

    def test_yz_dependent_conformal_factor_rejected(self):
        g = FieldGrid.from_function(((0, 0.5),) * 3, 17,
                                    lambda x, y, z: y * y)
        with pytest.raises(YZDependence):
            cf.warped_F_for_ricci_flat(lambda x: x, g)
