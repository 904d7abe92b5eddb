"""Tests for coordinate 4D curvature and parallel parabolic pair residuals."""

import numpy as np
import pytest

from cauchypairs import flow, grid as fd, spacetime_verifier as sv
from cauchypairs.errors import (
    GridInvalid,
    NotInGHForm,
    PairAlgebraViolated,
    SignatureViolation,
)
from cauchypairs.spacetime_verifier import Metric4Grid

from conftest import bivector_block, gh_pp_metric_and_pair, riemann4_reference, traced_peak

BOX = ((0.0, 0.2), (0.0, 0.2), (0.0, 0.2), (0.0, 0.2))


def minkowski(box=BOX, n=9):
    return Metric4Grid.from_function(
        box, n,
        lambda t, x, y, z: np.broadcast_to(
            np.diag([-1.0, 1, 1, 1]), t.shape + (4, 4)
        ),
    )


def milne(box=BOX, n=17):
    def gfun(t, x, y, z):
        out = np.zeros(t.shape + (4, 4))
        out[..., 0, 0] = -1.0
        out[..., 1, 1] = (1.0 + t) ** 2
        out[..., 2, 2] = 1.0
        out[..., 3, 3] = 1.0
        return out

    return Metric4Grid.from_function(box, n, gfun)


def generic_metric(n):
    """A Lorentzian metric on [0, 0.5]^4 whose every diagonal entry and three
    off-diagonal pairs vary, so each Gamma.Gamma product carries many
    nonzero terms."""
    def gfun(t, x, y, z):
        out = np.zeros(t.shape + (4, 4))
        out[..., 0, 0] = -(1 + 0.3 * np.sin(x + y))
        out[..., 1, 1] = 1 + 0.2 * t * z
        out[..., 2, 2] = np.exp(0.4 * x * t)
        out[..., 3, 3] = 1 + y**2
        out[..., 1, 2] = out[..., 2, 1] = 0.1 * np.cos(t + z)
        out[..., 0, 3] = out[..., 3, 0] = 0.05 * x * y
        return out

    return Metric4Grid.from_function(((0, 0.5),) * 4, n, gfun)


class TestMetric4Grid:
    def test_signature_enforced(self):
        with pytest.raises(SignatureViolation):
            Metric4Grid.from_function(
                BOX, 5,
                lambda t, x, y, z: np.broadcast_to(np.eye(4), t.shape + (4, 4)),
            )

    @pytest.mark.parametrize(
        "diag", [(-1.0, 0.0, 1, 1), (0.0, 1, 1, 1), (-1.0, 1, 1, 0.0), (-1.0, -1, 1, 1)]
    )
    def test_degenerate_or_wrong_signature_rejected(self, diag):
        # a zero eigenvalue is not Lorentzian: the metric has no inverse
        vals = np.broadcast_to(np.diag(diag), (5, 5, 5, 5, 4, 4))
        with pytest.raises(SignatureViolation):
            Metric4Grid(BOX, vals)

    def test_degenerate_at_one_slice_rejected(self):
        vals = np.broadcast_to(np.diag([-1.0, 1, 1, 1]), (5, 5, 5, 5, 4, 4)).copy()
        vals[4, ..., 1, 1] = 0.0
        with pytest.raises(SignatureViolation,
                           match=r"at 125 nodes, first at index \(4, 0, 0, 0\)$"):
            Metric4Grid(BOX, vals)

    def test_symmetry_enforced(self):
        vals = np.broadcast_to(np.diag([-1.0, 1, 1, 1]), (5, 5, 5, 5, 4, 4)).copy()
        vals[..., 0, 1] = 0.3
        with pytest.raises(ValueError):
            Metric4Grid(BOX, vals)

    @pytest.mark.parametrize("c", [1e-9, 1.0, 1e9])
    def test_symmetry_is_relative_to_each_node(self, c):
        # one node scaled by c with g_12 = c/2 against g_21 = 0; an absolute
        # tolerance of 1e-8 let it pass at c = 1e-9
        vals = np.broadcast_to(np.diag([-1.0, 1, 1, 1]), (5, 5, 5, 5, 4, 4)).copy()
        vals[2, 3, 1, 4] *= c
        Metric4Grid(BOX, vals)
        vals[2, 3, 1, 4, 1, 2] = 0.5 * c
        with pytest.raises(GridInvalid, match="symmetric"):
            Metric4Grid(BOX, vals)

    def test_payload_must_be_4x4(self):
        with pytest.raises(GridInvalid, match="4x4"):
            Metric4Grid(BOX, np.broadcast_to(np.eye(3), (5, 5, 5, 5, 3, 3)))

    def test_inverse(self):
        g = milne(n=5)
        prod = np.einsum("...ij,...jk->...ik", g.values, g.inverse())
        assert np.abs(prod - np.eye(4)).max() < 1e-12

    def test_inverse_is_computed_once_and_read_only(self):
        g = milne(n=5)
        inv = g.inverse()
        assert g.inverse() is inv
        assert not inv.flags.writeable

    def test_validated_values_are_read_only_views(self):
        # a write into a validated metric would bypass its symmetry and
        # signature test and leave its inverse stale
        sampled = []

        def gfun(t, x, y, z):
            sampled.append(np.broadcast_to(np.diag([-1.0, 1, 1, 1]), t.shape + (4, 4)).copy())
            return sampled[-1]

        vals = np.broadcast_to(np.diag([-1.0, 1, 1, 1]), (5, 5, 5, 5, 4, 4)).copy()
        planes = fd.to_planes(vals, 4)
        coframe = sv.Grid4(BOX, np.broadcast_to(np.eye(3), (5, 5, 5, 5, 3, 3)))
        for g, source in ((Metric4Grid.from_function(BOX, 5, gfun), sampled),
                          (Metric4Grid(BOX, vals), [vals]),
                          (Metric4Grid(BOX, fd.from_planes(planes, 4)), [planes]),
                          (flow.comoving_metric(coframe), [])):
            inverse = g.inverse().copy()
            with pytest.raises(ValueError, match="read-only"):
                g.values[..., 1, 1] = 2.0
            assert g.values[..., 1, 1].min() == 1.0
            # g holds its payload once, as its own planes, and values is their view
            assert g.planes.shape == (4, 4) + g.shape and g.planes.flags.c_contiguous
            assert np.shares_memory(g.values, g.planes) and not g.planes.flags.writeable
            # a write into the caller's array after validation reaches neither
            # g nor g^-1
            for a in source:
                assert a.flags.writeable
                a[...] = 4.0
            assert g.values[..., 1, 1].max() == 1.0
            assert g.inverse().tobytes() == inverse.tobytes()


class TestCurvature:
    def test_minkowski_flat(self):
        g = minkowski()
        assert np.abs(sv.christoffel_fd(g)).max() == 0.0
        assert sv.interior_max4(sv.ricci4_fd(g)) == 0.0
        assert sv.interior_max4(sv.riemann4_fd(g)) == 0.0

    def test_milne_slab_is_ricci_flat(self):
        # -dt^2 + (1+t)^2 dx^2 + dy^2 + dz^2 is flat space in expanding slicing
        g = milne(box=((0, 0.1),) * 4, n=17)
        ric = sv.ricci4_fd(g)
        assert sv.interior_max4(ric) < 1e-4
        # the exact Ricci vanishes identically, including the tt and xx slots
        assert sv.interior_max4(ric[..., 0, 0]) < 1e-4
        assert sv.interior_max4(ric[..., 1, 1]) < 1e-4

    def test_ricci_is_riemann_contraction(self):
        data = flow.PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.2)
        g = flow.pp_metric(data, ((-0.05, 0.05), (0, 1), (0, 1), (0, 1)),
                           (17, 5, 5, 5))
        ric = sv.ricci4_fd(g)
        contracted = np.einsum("...knks->...ns", riemann4_reference(g))
        assert np.abs(ric - contracted).max() < 1e-8

    def test_ricci_is_trace_of_riemann_on_a_generic_metric(self):
        # The FD Ricci has an O(h^2) antisymmetric part (from
        # d_i Gamma^m_mj), so the trace is taken over the slots that match
        # ricci4_fd's index order, Ric_ij = R^m_jmi.
        g = generic_metric(7)
        ric = sv.ricci4_fd(g)
        trace = np.einsum("...mjmi->...ij", riemann4_reference(g))
        scale = np.abs(ric).max()
        assert scale > 0.5
        assert np.abs(ric - trace).max() <= 1e-12 * scale

    def test_bivector_block_is_the_antisymmetrised_tensor(self):
        # R_AB = (1/2)(R_mnps - R_nmps) of the lowered 256-component tensor;
        # only the order of the sums differs
        g = generic_metric(7)
        block = sv.riemann4_fd(g)
        ref = bivector_block(np.einsum("...mk,...knps->...mnps", g.values, riemann4_reference(g)))
        assert block.shape == g.shape + (6, 6)
        scale = np.abs(ref).max()
        assert scale > 0.1
        assert np.abs(block - ref).max() <= 1e-12 * scale

    def test_christoffel_is_symmetric_bit_for_bit(self):
        # an asymmetry of g_ij that Metric4Grid accepts (1e-9 of the largest
        # entry) and that varies over the grid, so that its partials are
        # not zero: only the components g_jl, j <= l, may be read
        base = generic_metric(7)
        vals = base.values.copy()
        tt, xx, yy, zz = base.meshgrid()
        for i, j in ((0, 1), (1, 2), (0, 3), (2, 3)):
            vals[..., i, j] += 1e-9 * np.sin(3 * tt + 2 * xx - yy + (i + j) * zz)
        g = Metric4Grid(base.box, vals)
        assert not np.array_equal(vals, np.swapaxes(vals, -1, -2))
        gam = sv.christoffel_fd(g)
        assert gam.tobytes() == np.swapaxes(gam, -1, -2).tobytes()

    def test_ricci_peak_memory_per_node(self):
        # Ric is the trace of the 96-entry pair curvature: ~1.7 kB per node
        data = flow.PPWaveData.log_solution(0.0, -1.0, 0.0, 1.0, c=0.3)
        shape = (33, 5, 5, 5)
        g = flow.pp_metric(data, ((-0.02, 0.02), (0, 1), (0, 1), (0, 1)), shape)
        assert traced_peak(lambda: sv.ricci4_fd(g)) < 2.4e3 * np.prod(shape)

    def test_christoffel_peak_above_its_output_is_one_chunk(self):
        # boxes of 5 and 13 x 11^3 interior nodes, both cut into chunks of
        # 11^3 <= BLOCK_NODES nodes: above its 64 output planes a set holds
        # one chunk's temporaries, ~1.7 MiB at either size, where the
        # partials d_i g_jl of the whole box took ~2.6 and ~6.9 MiB
        extra = []
        for shape in ((9, 15, 15, 15), (17, 15, 15, 15)):
            g = generic_metric(shape)
            nodes = np.prod([c - 2 * fd.COLLAR for c in shape])
            assert nodes > fd.BLOCK_NODES
            extra.append(traced_peak(lambda: sv.christoffel_fd(g, sv.INTERIOR)) - 8 * 64 * nodes)
        assert 0 < extra[1] <= 1.02 * extra[0] and extra[1] < 3 * 2**20

    def test_covariant_derivative_flat_is_partial(self):
        g = minkowski(n=9)
        tt, xx, _, _ = g.meshgrid()
        om = np.stack([xx, tt, 0 * tt, 0 * tt], axis=-1)
        nab = sv.covariant_derivative4(g, om)
        assert np.allclose(nab[..., 0, 1], 1.0)
        assert np.allclose(nab[..., 1, 0], 1.0)


# An anisotropic grid and boxes on it, one slice per grid axis: boxes that
# touch faces (and so read one-sided stencils), inside ones, a corner and
# the nodes every 4D norm reads
KERNEL_SHAPE = (9, 7, 5, 8)
KERNEL_BOXES = {
    "faces": (slice(0, 4), slice(3, 7), slice(None), slice(5, 8)),
    "inside": (slice(2, 7), slice(2, 5), slice(1, 4), slice(3, 4)),
    "corner": (slice(8, 9), slice(0, 1), slice(4, 5), slice(0, 2)),
    "interior": sv.INTERIOR,
}


@pytest.fixture(scope="module")
def kernel_metric():
    return generic_metric(KERNEL_SHAPE)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("box", KERNEL_BOXES.values(), ids=KERNEL_BOXES)
class TestKernelsOnABox:
    """Each 4D kernel on a box `own` is its whole-grid result cut to that
    box, bit for bit, -0.0 included."""

    @pytest.mark.parametrize("kernel", [sv.christoffel_fd, sv.ricci4_fd, sv.riemann4_fd],
                             ids=["christoffel", "ricci", "riemann"])
    def test_curvature_kernels(self, kernel_metric, box, kernel):
        assert same_bits(kernel(kernel_metric, box), kernel(kernel_metric)[box])

    def test_covariant_derivative(self, kernel_metric, box):
        g = kernel_metric
        tt, xx, yy, zz = g.meshgrid()
        omega = np.stack([np.sin(xx + 2 * tt), tt * zz, np.exp(yy - xx), xx * yy * zz], axis=-1)
        whole = sv.covariant_derivative4(g, omega)[box]
        assert same_bits(sv.covariant_derivative4(g, omega, own=box), whole)
        gamma = sv.christoffel_fd(g, box)
        assert same_bits(sv.covariant_derivative4(g, omega, gamma, box), whole)


class TestGHDecomposition:
    def test_rejects_cross_terms(self):
        vals = np.broadcast_to(np.diag([-1.0, 1, 1, 1]), (5, 5, 5, 5, 4, 4)).copy()
        vals[..., 0, 1] = vals[..., 1, 0] = 0.2
        g = Metric4Grid(BOX, vals)
        with pytest.raises(ValueError):
            sv.gh_decomposition(g)

    def test_cross_terms_raise_typed_error(self):
        vals = np.broadcast_to(np.diag([-1.0, 1, 1, 1]), (5, 5, 5, 5, 4, 4)).copy()
        vals[..., 0, 2] = vals[..., 2, 0] = 0.2
        g = Metric4Grid(BOX, vals)
        with pytest.raises(NotInGHForm):
            sv.gh_decomposition(g)

    def test_comoving_metric_decomposition(self):
        def gfun(t, x, y, z):
            out = np.zeros(t.shape + (4, 4))
            out[..., 0, 0] = -1.0
            out[..., 1, 1] = (1.0 + t) ** 2
            out[..., 2, 2] = 1.0
            out[..., 3, 3] = 1.0
            return out

        g = Metric4Grid.from_function(((0, 0.1),) * 4, 9, gfun)
        lam, h, theta = sv.gh_decomposition(g)
        assert np.allclose(lam, 1.0)
        tt, _, _, _ = g.meshgrid()
        assert np.allclose(h[..., 0, 0], (1 + tt) ** 2)
        # theta = -d_t h / (2 lambda); h_xx quadratic in t so FD is exact
        assert np.abs(theta[..., 0, 0] + (1 + tt)).max() < 1e-10
        assert np.abs(theta[..., 1, 1]).max() < 1e-12


    def test_lapse_and_shape_operator_match_the_grid_major_formula(self):
        # an asymmetry of h_ij that Metric4Grid accepts (1e-9 of the largest
        # entry) and that varies in t: lambda and theta = -d_t h / (2 lambda)
        # from g's planes equal the grid-major formula on the caller's array
        # bit for bit, every entry of h read as given
        def gfun(t, x, y, z):
            out = np.zeros(t.shape + (4, 4))
            out[..., 0, 0] = -(1 + 0.3 * np.sin(x + t)) ** 2
            out[..., 1, 1] = (1.0 + t) ** 2
            out[..., 2, 2] = np.exp(0.4 * x * t)
            out[..., 3, 3] = 1 + y**2 + t
            out[..., 1, 2] = out[..., 2, 1] = 0.1 * np.cos(t + z)
            out[..., 1, 3] = out[..., 3, 1] = 0.05 * t * y
            for i, j in ((1, 2), (2, 3), (3, 1)):
                out[..., i, j] += 1e-9 * np.sin(3 * t + 2 * x - y + (i + j) * z)
            return out

        box = ((0, 0.5),) * 4
        vals = gfun(*sv.Grid4.from_function(box, 7, lambda *x: 0.0).meshgrid())
        g = Metric4Grid(box, vals)
        assert not np.array_equal(vals, np.swapaxes(vals, -1, -2))
        lam, h, theta = sv.gh_decomposition(g)
        ref_lam = np.sqrt(-vals[..., 0, 0])
        ref_theta = -g.grad(vals[..., 1:, 1:], 0) / (2 * ref_lam[..., None, None])
        assert lam.tobytes() == ref_lam.tobytes()
        assert np.ascontiguousarray(h).tobytes() == vals[..., 1:, 1:].tobytes()
        assert np.ascontiguousarray(theta).tobytes() == ref_theta.tobytes()


class TestParabolicPair:
    def test_algebra_validated(self):
        g = minkowski(n=5)
        u = np.zeros(g.shape + (4,))
        u[..., 0] = u[..., 1] = 1.0
        l = np.zeros(g.shape + (4,))
        l[..., 2] = 1.0
        sv.ParabolicPairData(g, u, l)  # valid pair
        with pytest.raises(PairAlgebraViolated):
            sv.ParabolicPairData(g, u, 2 * l)  # l not unit
        with pytest.raises(PairAlgebraViolated):
            sv.ParabolicPairData(g, l, l)  # u not null
        with pytest.raises(GridInvalid):
            sv.ParabolicPairData(g, u[..., :3], l)  # not a 4-covector grid

    def test_pair_keeps_its_raised_l(self):
        # g^-1 l from the metric's one inverse, read-only as that inverse is
        data = flow.PPWaveData.log_solution(0.0, -2.0, 0.1, 2.0, c=0.2)
        g, u, l = gh_pp_metric_and_pair(data, ((0, 0.3), (0, 0.4), (0, 1), (0, 1)), (9, 7, 6, 5))
        pair = sv.ParabolicPairData(g, u, l)
        assert pair.g is g
        expected = fd.to_planes((g.inverse() @ l[..., None])[..., 0], 4)
        assert np.abs(expected - fd.to_planes(l, 4)).max() > 1  # raising moves l
        np.testing.assert_allclose(pair.l_sharp, expected, rtol=1e-14, atol=1e-15)
        assert not pair.l_sharp.flags.writeable

    def test_pair_is_immutable(self):
        # a rebound l would reach the residual unvalidated: 2 l (not unit)
        # reports (0.0, 0.0), and dz is checked against the l_sharp of dy
        g = minkowski(n=7)
        u = np.zeros(g.shape + (4,))
        u[..., 0] = u[..., 1] = 1.0
        l = np.zeros(g.shape + (4,))
        l[..., 2] = 1.0
        pair = sv.ParabolicPairData(g, u, l)
        with pytest.raises(AttributeError, match="immutable"):
            pair.l = 2 * l
        for name in ("g", "u", "l_sharp"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(pair, name, getattr(pair, name))
        for field in (pair.u, pair.l, pair.l_sharp, pair.g.values):
            with pytest.raises(ValueError, match="read-only"):
                field[..., 0] = 2.0
        # u and l are views of the caller's arrays, not copies
        assert np.shares_memory(pair.u, u) and np.shares_memory(pair.l, l)
        assert u.flags.writeable and l.flags.writeable
        assert sv.parallel_pair_residual(pair)[:2] == (0.0, 0.0)

    def test_overflowing_algebra_is_rejected(self):
        # g^-1(u, u) = 1e400 overflows to inf - inf = NaN, the first of the
        # three residuals; a NaN must fail the check, not pass it
        g = minkowski(n=5)
        u = np.zeros(g.shape + (4,))
        u[..., :3] = 1e200
        l = np.zeros(g.shape + (4,))
        l[..., 2] = 1.0
        with pytest.raises(PairAlgebraViolated):
            sv.ParabolicPairData(g, u, l)

    def test_minkowski_pair_parallel(self):
        g = minkowski(n=9)
        u = np.zeros(g.shape + (4,))
        u[..., 0] = u[..., 1] = 1.0
        l = np.zeros(g.shape + (4,))
        l[..., 2] = 1.0
        pair = sv.ParabolicPairData(g, u, l)
        nab_u, nab_l, kappa = sv.parallel_pair_residual(pair)
        assert nab_u == 0.0 and nab_l == 0.0
        assert np.abs(kappa).max() == 0.0

    def test_requires_spatial_representative(self):
        g = minkowski(n=5)
        u = np.zeros(g.shape + (4,))
        u[..., 0] = u[..., 1] = 1.0
        l = np.zeros(g.shape + (4,))
        l[..., 2] = 1.0
        # l + u/2 is still unit and orthogonal to the null u, so the pair
        # passes validation, but its l_0 is 1/2
        pair = sv.ParabolicPairData(g, u, l + 0.5 * u)
        with pytest.raises(PairAlgebraViolated):
            sv.parallel_pair_residual(pair)

    @pytest.mark.parametrize("k", [60, -60])
    @pytest.mark.parametrize("l_axis", [2, 1])
    def test_residuals_scale_with_u(self, k, l_axis):
        # u = dt + dz is null on Milne space -dt^2 + (1 + t)^2 dx^2 + dy^2 +
        # dz^2, and l = dy, or (1 + t) dx, whose kappa is not 0, is unit and
        # orthogonal to it: u -> 2^k u scales nabla u by 2^k and kappa by
        # 2^-k, and leaves nabla l - kappa (x) u as it is, bit for bit; the
        # test that u0 vanishes is relative to |u|, so no scale is refused
        g = milne(n=9)
        tt = g.meshgrid()[0]
        u = np.zeros(g.shape + (4,))
        u[..., 0] = u[..., 3] = 1.0
        l = np.zeros(g.shape + (4,))
        l[..., l_axis] = 1.0 + tt if l_axis == 1 else 1.0
        nab_u, nab_l, kappa = sv.parallel_pair_residual(sv.ParabolicPairData(g, u, l))
        assert nab_u > 0 and (np.abs(kappa).max() > 0) == (l_axis == 1)
        scaled = sv.parallel_pair_residual(sv.ParabolicPairData(g, np.ldexp(u, k), l))
        assert scaled[0] == np.ldexp(nab_u, k)
        assert scaled[1] == nab_l
        assert scaled[2].tobytes() == np.ldexp(kappa, -k).tobytes()

    @staticmethod
    def comoving_diag_pair(n, scale=1.0):
        """The pair u = e^x (dt + (1 + t) dx), l = dy on the comoving
        development -dt^2 + (1 + t)^2 dx^2 + dy^2 + dz^2 of the diagonal flow
        f_u = 1 + t, with the spatial part of u multiplied by `scale`."""
        g = milne(((0.0, 0.1),) * 4, n)
        tt, xx, _, _ = g.meshgrid()
        u = np.zeros(g.shape + (4,))
        u[..., 0] = np.exp(xx)
        u[..., 1] = scale * np.exp(xx) * (1.0 + tt)
        l = np.zeros(g.shape + (4,))
        l[..., 2] = 1.0
        return g, u, l

    @pytest.mark.parametrize("n, nabla_u", [(9, 3.0175377998764574e-05),
                                            (17, 7.72751158617524e-06)])
    def test_comoving_diagonal_pair_parallel(self, n, nabla_u):
        # h is quadratic in t, so only e^x carries FD error, falling at second
        # order; kappa = 0, as l = dy is parallel
        g, u, l = self.comoving_diag_pair(n)
        nab_u, nab_l, kappa = sv.parallel_pair_residual(sv.ParabolicPairData(g, u, l))
        assert nab_u == pytest.approx(nabla_u, rel=1e-9)
        assert nab_l == 0.0 and np.abs(kappa).max() == 0.0

    def test_residuals_match_the_whole_grid_kernels(self):
        # the Christoffel set and both covariant derivatives are built on
        # INTERIOR only, and report the whole-grid values bit for bit
        data = flow.PPWaveData.log_solution(0.0, -2.0, 0.1, 2.0, c=0.2)
        g, u, l = gh_pp_metric_and_pair(data, ((0, 0.3), (0, 0.4), (0, 1), (0, 1)), (9, 7, 6, 5))
        nab_u, nab_l, kappa = sv.parallel_pair_residual(sv.ParabolicPairData(g, u, l))
        expected_l = sv.interior_max4(sv.covariant_derivative4(g, l)
                                      - kappa[..., :, None] * u[..., None, :])
        assert nab_u == sv.interior_max4(sv.covariant_derivative4(g, u)) and nab_u > 0
        assert nab_l == expected_l and nab_l > 0
        assert kappa.shape == g.shape + (4,)

    def test_comoving_diagonal_pair_with_scaled_u_is_not_null(self):
        g, u, l = self.comoving_diag_pair(17, scale=1.01)
        with pytest.raises(PairAlgebraViolated):
            sv.ParabolicPairData(g, u, l)

    def test_gh_pp_chart_pair_parallel(self):
        data = flow.PPWaveData.log_solution(0.0, -2.0, 0.1, 2.0, c=0.2)
        g, u, l = gh_pp_metric_and_pair(
            data, ((0, 0.1), (0, 0.1), (0, 1), (0, 1)), (9, 9, 5, 5)
        )
        pair = sv.ParabolicPairData(g, u, l)
        nab_u, nab_l, kappa = sv.parallel_pair_residual(pair)
        # metric components are quadratic in (t, x), so FD is exact
        assert nab_u < 1e-11
        assert nab_l < 1e-11
