"""Tests for the shared N-axis grid: typed errors, the binary layout of every
grid dimension, and the per-slice kernels against the 3D ones."""

import struct

import numpy as np
import pytest

from cauchypairs import coordinate_fields as cf
from cauchypairs import flow
from cauchypairs import grid as fd
from cauchypairs.coordinate_fields import FieldGrid
from cauchypairs.errors import CauchyPairsError, GridInvalid, GridTooSmall, SingularMatrix
from cauchypairs.spacetime_verifier import SPATIAL_AXES, Grid4, Metric4Grid

BOX3 = ((0.0, 0.1), (0.0, 0.2), (0.0, 0.3))
BOX4 = ((0.0, 1.0),) + BOX3


def field_blob(rng):
    return FieldGrid(BOX3, rng.standard_normal((5, 6, 7, 3))).to_binary()


class TestGridInvalid:
    def test_is_a_typed_value_error(self):
        assert issubclass(GridInvalid, CauchyPairsError)
        assert issubclass(GridInvalid, ValueError)

    @pytest.mark.parametrize("cls, box, shape", [
        (FieldGrid, BOX3[:2], (5, 5, 5)),
        (FieldGrid, BOX3, (5, 5)),
        (FieldGrid, ((0, 1), (0, 1), (1, 0)), (5, 5, 5)),
        (FieldGrid, ((0, 1), (0, 1), (0, np.nan)), (5, 5, 5)),
        (FieldGrid, ((0, 1), (0, 1), 7), (5, 5, 5)),
        (Grid4, BOX3, (5, 5, 5, 5)),
        (Grid4, BOX4, (5, 5, 5)),
    ])
    def test_constructor_rejects(self, cls, box, shape):
        with pytest.raises(GridInvalid):
            cls(box, np.zeros(shape))

    def test_non_finite_values_rejected(self):
        vals = np.zeros((5, 5, 5, 5))
        vals[2, 2, 2, 2] = np.inf
        with pytest.raises(GridInvalid):
            Grid4(BOX4, vals)

    @pytest.mark.parametrize("box", [
        ((0, 1), (0, 0), (0, 1), (0, 1)),
        ((0, 1), (0, 1), (0, 1), (1, 0.5)),
    ])
    def test_4d_box_must_be_nondegenerate(self, box):
        with pytest.raises(GridInvalid):
            Grid4(box, np.zeros((5, 5, 5, 5)))

    def test_bad_magic(self, rng):
        blob = field_blob(rng)
        with pytest.raises(GridInvalid):
            FieldGrid.from_binary(b"CPGRID2\n" + blob[8:])

    @pytest.mark.parametrize("cut", [8, 20, 79])
    def test_truncated_header(self, rng, cut):
        with pytest.raises(GridInvalid, match="truncated header"):
            FieldGrid.from_binary(field_blob(rng)[:cut])

    @pytest.mark.parametrize("cut", [88, 100, -8, -1])
    def test_truncated_data(self, rng, cut):
        with pytest.raises(GridInvalid):
            FieldGrid.from_binary(field_blob(rng)[:cut])

    def test_trailing_bytes(self, rng):
        with pytest.raises(GridInvalid):
            FieldGrid.from_binary(field_blob(rng) + b"\0" * 8)

    @pytest.mark.parametrize("offset", [8, 16, 88])
    def test_forged_size(self, rng, offset):
        # offsets 8 and 16 are axis sizes, 88 the payload dimension
        blob = bytearray(field_blob(rng))
        struct.pack_into("<q", blob, offset, 2**40)
        with pytest.raises(GridInvalid):
            FieldGrid.from_binary(bytes(blob))

    @pytest.mark.parametrize("rank", [2**40, -1])
    def test_forged_rank(self, rng, rank):
        blob = bytearray(field_blob(rng))
        struct.pack_into("<q", blob, 80, rank)
        with pytest.raises(GridInvalid):
            FieldGrid.from_binary(bytes(blob))


class TestSerialization:
    def test_field_grid_header_layout(self, rng):
        vals = rng.standard_normal((5, 6, 7, 3, 2))
        blob = FieldGrid(BOX3, vals).to_binary()
        header = 8 + 3 * 8 + 6 * 8 + 8 + 2 * 8
        assert len(blob) == header + vals.size * 8
        assert blob[:8] == b"CPGRID1\n"
        assert struct.unpack_from("<3q", blob, 8) == (5, 6, 7)
        assert struct.unpack_from("<6d", blob, 32) == (0.0, 0.1, 0.0, 0.2, 0.0, 0.3)
        assert struct.unpack_from("<3q", blob, 80) == (2, 3, 2)
        assert blob[header:] == vals.astype("<f8").tobytes()

    def test_grid4_round_trip(self, rng):
        g = Grid4(BOX4, rng.standard_normal((5, 6, 5, 7, 3)))
        blob = g.to_binary()
        assert len(blob) == 8 + 4 * 8 + 8 * 8 + 8 + 8 + g.values.size * 8
        back = Grid4.from_binary(blob)
        assert type(back) is Grid4
        assert back.box == g.box
        np.testing.assert_array_equal(back.values, g.values)

    def test_metric4_round_trip(self):
        def gfun(t, x, y, z):
            out = np.zeros(t.shape + (4, 4))
            out[..., 0, 0] = -1.0 - t**2
            out[..., 1, 1] = 1.0 + x * y
            out[..., 2, 2] = 1.0
            out[..., 3, 3] = np.exp(z)
            out[..., 1, 2] = out[..., 2, 1] = 0.1 * t
            return out

        g = Metric4Grid.from_metric_function(BOX4, (5, 6, 5, 5), gfun)
        back = Metric4Grid.from_binary(g.to_binary())
        assert type(back) is Metric4Grid
        assert back.box == g.box
        np.testing.assert_array_equal(back.values, g.values)


class TestSliceKernels:
    """Kernels over axes (1, 2, 3) of a t-independent 4D stack must equal the
    3D kernels on every slice, bit for bit."""

    @staticmethod
    def fields(n=9):
        g3 = FieldGrid.from_function(BOX3, (n, n + 2, n + 1), lambda x, y, z: 0.0 * x)
        xx, yy, zz = g3.meshgrid()
        e = np.zeros(g3.shape + (3, 3))
        e[..., 0, 0] = np.exp(xx * zz)
        e[..., 0, 1] = 0.3 * np.sin(yy)
        e[..., 1, 1] = 1.0 + xx**2
        e[..., 1, 2] = yy * zz
        e[..., 2, 2] = np.exp(-yy)
        e[..., 2, 0] = 0.2 * zz
        omega = np.stack([np.sin(xx + yy), xx * zz**2, np.cos(zz) * yy], axis=-1)
        coframe = g3.like(e)
        return coframe, fd.coframe_metric(fd.to_planes(e, 3)), omega

    def test_christoffel_and_covariant_derivative_per_slice(self):
        g3, h, omega = self.fields()
        om = fd.to_planes(omega, 3)
        nt = 5
        g4 = Grid4(BOX4, np.zeros((nt,) + g3.shape))
        h4 = np.broadcast_to(h[:, :, None], h.shape[:2] + (nt,) + h.shape[2:])
        om4 = np.broadcast_to(om[:, None], om.shape[:1] + (nt,) + om.shape[1:])
        gamma4 = fd.plane_christoffel(g4, h4, SPATIAL_AXES)
        nab4 = fd.plane_covariant_derivative(
            gamma4, fd.plane_partials(g4, om4, SPATIAL_AXES), om4)
        d4 = fd.exterior_derivative(g4, om4, SPATIAL_AXES)
        gamma3 = cf.christoffel3_fd(g3, h)
        nab3 = cf.covariant_derivative_covector(g3, h, om)
        d3 = fd.to_planes(cf.fd_exterior_derivative(g3.like(omega)).values, 3)
        for t in range(nt):
            np.testing.assert_array_equal(gamma4[..., t, :, :, :], gamma3)
            np.testing.assert_array_equal(nab4[..., t, :, :, :], nab3)
            np.testing.assert_array_equal(d4[..., t, :, :, :], d3)

    def test_comoving_exterior_system_matches_the_3d_constraint(self):
        # a t-independent stack has Theta_t = 0 exactly at the one interior
        # t-plane of 5, the only one left once the collar is cut
        coframe, _, _ = self.fields()
        e = coframe.values
        sol = flow.FlowSolution((0.0, 1.0), Grid4(BOX4, np.broadcast_to(e, (5,) + e.shape)))
        r4 = flow.comoving_residual(sol)
        r3 = cf.constraint_residual_fd(coframe, coframe.like(np.zeros(e.shape)))
        keys = ("exterior_u", "exterior_l", "exterior_n", "exterior_max", "theta_eu_closed")
        assert [r4[k].hex() for k in keys] == [r3[k].hex() for k in keys]
        assert min(r3[k] for k in keys[:3]) > 0

    def test_collar_over_grid_axes_only(self):
        v = np.zeros((9, 9, 3))
        v[1, 4, :] = 5.0
        v[4, 4, 2] = 1.0
        assert fd.interior_max(v, 2) == 1.0
        assert fd.interior_max(v, 2, include_boundary=True) == 5.0


class TestPlaneStencil:
    """Every derivative, grid-major or on component planes, is np.gradient's
    second-order stencil, bit for bit, on every grid axis and on any box of
    nodes."""

    @pytest.mark.parametrize("shape, ndim", [((9, 17, 6, 7), 3), ((2, 3, 5, 6, 5, 7), 4)])
    def test_matches_np_gradient(self, rng, shape, ndim):
        def wide(shape):
            return rng.standard_normal(shape) * np.exp(5 * rng.standard_normal(shape))

        planes = wide(shape)
        box = ((0.0, 0.37),) * ndim
        grid = (FieldGrid if ndim == 3 else Grid4)(box, np.zeros(shape[-ndim:]))
        for axis in range(ndim):
            ref = np.gradient(planes, grid.spacing[axis], axis=axis - ndim, edge_order=2)
            assert grid.plane_grad(planes, axis).tobytes() == ref.tobytes()
        # grid-major: a contiguous array, a sliced block view like
        # gh_decomposition's h and the strided view of the planes
        blocks = wide(grid.shape + (4, 4))
        for values in (blocks, blocks[..., 1:, 1:], fd.from_planes(planes, ndim)):
            partial = fd.partials(grid, values)
            spatial = fd.partials(grid, values, range(1, ndim))
            for axis in range(ndim):
                ref = np.gradient(values, grid.spacing[axis], axis=axis, edge_order=2).tobytes()
                assert grid.grad(values, axis).tobytes() == ref
                assert partial[(slice(None),) * ndim + (axis,)].tobytes() == ref
                if axis:
                    assert spatial[(slice(None),) * ndim + (axis - 1,)].tobytes() == ref
        # on a box, and on a box from the field on the nodes `grow` says it reads
        nx = shape[-ndim]
        whole = fd.plane_partials(grid, planes)
        rest = (slice(None),) * (ndim - 1)
        boxes = [(own,) + rest for own in (slice(0, 3), slice(1, nx - 1), slice(2, nx))]
        boxes += [(slice(2, -2),) * ndim, (slice(0, 1), slice(1, 2), slice(-1, None)) + rest[2:]]
        for own in boxes + [None]:
            on = (Ellipsis,) + (own or ())
            part = fd.plane_partials(grid, planes, own=own)
            assert part.tobytes() == np.ascontiguousarray(whole[on]).tobytes()
            shell, inner = fd.grow(own or rest + (slice(None),), shape[-ndim:])
            assert fd.plane_partials(grid, planes[(Ellipsis,) + shell], own=inner).tobytes() \
                == part.tobytes()


class TestWindow:
    """Planes [start, stop) of axis 0 keep the parent grid's spacing bit for
    bit, so first derivatives away from the window's own ends are unchanged."""

    BOX = ((0.0, 0.1), (0.0, 0.2), (0.0, 0.3))

    def test_spacing_kept_where_recomputing_it_differs(self):
        g = FieldGrid(self.BOX, np.zeros((9, 5, 6)))
        x = g.axis(0)
        assert (x[6] - x[0]) / 6 != g.spacing[0]
        w = g.window(0, 7)
        assert w.spacing == g.spacing and w.shape == (7, 5, 6)
        assert w.like(np.ones(w.shape)).spacing == g.spacing

    def test_derivatives_match_the_whole_grid(self):
        g = FieldGrid.from_function(self.BOX, (17, 5, 6), lambda x, y, z: np.sin(40 * x) * y)
        full = [g.grad(g.values, i) for i in range(3)]
        for start, stop in ((0, 7), (3, 10), (9, 17)):
            w = g.window(start, stop)
            inner = slice(1 if start else 0, stop - start - (stop < 17))
            for i in range(3):
                np.testing.assert_array_equal(w.grad(w.values, i)[inner],
                                              full[i][start:stop][inner])

    def test_window_needs_five_planes(self):
        with pytest.raises(GridTooSmall):
            FieldGrid(self.BOX, np.zeros((9, 5, 5))).window(2, 6)

    def test_like_rejects_another_grid_shape(self):
        with pytest.raises(GridInvalid):
            FieldGrid(self.BOX, np.zeros((9, 5, 5))).like(np.zeros((7, 5, 5)))


def spd_batch(rng, shape, n=3):
    """Dense symmetric positive definite n x n blocks over `shape`."""
    a = rng.standard_normal(shape + (n, n))
    return a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(n)


def plane_inverse(m):
    """`plane_inverse` of grid-major 3x3 blocks, read back grid-major."""
    k = m.ndim - 2
    return fd.from_planes(fd.plane_inverse(fd.to_planes(m, k)), k)


class TestClosedForms:
    """The 3x3 closed-form inverse on planes: accurate on dense blocks, exact
    under power-of-two rescaling, and never inf or NaN; grid-major blocks go
    through LAPACK."""

    def test_inverse_of_dense_spd_blocks(self, rng):
        m = spd_batch(rng, (7, 6, 5))
        residual = m @ plane_inverse(m) - np.eye(3)
        assert np.abs(residual).max() <= 1e-12

    # at |k| = 600 the unscaled closed form would overflow or underflow
    @pytest.mark.parametrize("k", [-600, -300, 300, 600])
    def test_power_of_two_rescaling_is_exact(self, rng, k):
        m = spd_batch(rng, (50,))
        np.testing.assert_array_equal(plane_inverse(2.0**k * m), plane_inverse(m) / 2.0**k)

    @pytest.mark.parametrize("bad", [
        np.zeros((3, 3)),
        np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 5.0]]),
        np.full((3, 3), np.inf),
    ])
    def test_singular_node_raises(self, rng, bad):
        m = spd_batch(rng, (4, 5))
        m[2, 3] = bad
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            plane_inverse(m)

    @pytest.mark.parametrize("n", [3, 4])
    def test_singular_matrix_is_typed(self, n):
        invert = plane_inverse if n == 3 else fd.inverse
        with pytest.raises(SingularMatrix) as err:
            invert(np.zeros((2, n, n)))
        assert isinstance(err.value, CauchyPairsError)
        assert isinstance(err.value, np.linalg.LinAlgError)

    def test_unrepresentable_inverse_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            plane_inverse(np.eye(3) * 1e-310)

    def test_4x4_blocks_go_through_lapack(self, rng, monkeypatch):
        calls = []
        lapack = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: calls.append(m.shape) or lapack(m))
        g = spd_batch(rng, (5, 6), 4)
        g[..., 0, 0] -= 2 * np.abs(g).sum(axis=(-2, -1))  # one negative eigenvalue
        eig = np.linalg.eigvalsh(g)
        assert np.all((eig[..., 0] < 0) & (eig[..., 1] > 0))
        np.testing.assert_array_equal(fd.inverse(g), lapack(g))
        plane_inverse(spd_batch(rng, (5, 6)))
        assert calls == [(5, 6, 4, 4)]


class TestDenseChristoffel:
    """The batched matmul contraction of `christoffel` against an einsum
    reference on dense, non-diagonal metrics, where the two sum in different
    orders; the sparse fixture coframes cannot tell them apart."""

    @staticmethod
    def reference(grid, metric):
        dg = fd.partials(grid, metric)
        sym = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
        return 0.5 * np.einsum("...kl,...ijl->...kij", np.linalg.inv(metric), sym)

    @staticmethod
    def dense_metric(grid, n, sign):
        mesh = grid.meshgrid()
        a = np.empty(grid.shape + (n, n))
        for i in range(n):
            for j in range(n):
                phase = sum((i + c + 1) * (j + 2) * x for c, x in enumerate(mesh))
                a[..., i, j] = np.sin(phase + i * j) / n
        g = a @ np.swapaxes(a, -1, -2) + np.eye(n)
        g[..., 0, 0] *= sign
        return g

    @pytest.mark.parametrize("cls, box, n, sign", [
        (FieldGrid, BOX3, 3, 1.0),
        (Grid4, BOX4, 4, -1.0),
    ])
    def test_matches_einsum_reference(self, cls, box, n, sign):
        grid = cls.from_function(box, 7, lambda *x: 0.0 * x[0])
        metric = self.dense_metric(grid, n, sign)
        if sign < 0:
            Metric4Grid(box, metric)  # the signature is Lorentzian
        gam = fd.christoffel(grid, metric)
        ref = self.reference(grid, metric)
        assert np.all(ref != 0.0)
        assert np.abs(gam - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_planes_route_matches_einsum_reference(self):
        grid = FieldGrid.from_function(BOX3, 7, lambda *x: 0.0 * x[0])
        metric = self.dense_metric(grid, 3, 1.0)
        gam = fd.from_planes(fd.plane_christoffel(grid, fd.to_planes(metric, 3)), 3)
        ref = self.reference(grid, metric)
        assert np.abs(gam - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_planes_route_on_a_range_of_planes(self):
        grid = FieldGrid.from_function(BOX3, (9, 6, 7), lambda *x: 0.0 * x[0])
        metric = fd.to_planes(self.dense_metric(grid, 3, 1.0), 3)
        whole = fd.plane_christoffel(grid, metric)
        # each range of x-planes over every y and z node, one-sided stencils
        # included, and over a box cut on y and z too
        for x in (slice(0, 4), slice(1, 8), slice(5, 9)):
            for own in ((x, slice(None), slice(None)), (x, slice(2, -2), slice(0, 1))):
                np.testing.assert_array_equal(fd.plane_christoffel(grid, metric, own=own),
                                              whole[(Ellipsis,) + own])


class TestQuadrature:
    """The trapezoid and Simpson primitives are scipy's, bit for bit; scipy
    serves only as the oracle."""

    @staticmethod
    def nodes(n, uniform, rng):
        if uniform:
            return np.linspace(-0.3, 0.7, n)
        return np.sort(rng.uniform(-0.3, 0.7, n))

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 17, 34])
    def test_match_scipy_bit_for_bit(self, rng, n, uniform):
        integrate = pytest.importorskip("scipy.integrate")
        x = self.nodes(n, uniform, rng)
        for y in (rng.standard_normal(n), np.exp(x), -np.zeros(n)):
            ref = integrate.cumulative_trapezoid(y, x, initial=0.0)
            assert fd.cumulative_trapezoid(y, x).tobytes() == ref.tobytes()
            ref = integrate.cumulative_simpson(y, x=x, initial=0.0)
            assert fd.cumulative_simpson(y, x).tobytes() == ref.tobytes()

    def test_simpson_is_exact_on_quadratics(self, rng):
        x = self.nodes(9, False, rng)
        prim = fd.cumulative_simpson(3 * x**2 - x + 2, x)

        def exact(s):
            return s**3 - s**2 / 2 + 2 * s

        np.testing.assert_allclose(prim, exact(x) - exact(x[0]), rtol=0, atol=1e-14)
