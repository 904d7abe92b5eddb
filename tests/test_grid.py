"""Tests for the shared N-axis grid: typed errors, sampling, the read-only
values of every grid type, and the per-slice kernels against the 3D ones."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cauchypairs import coordinate_fields as cf
from cauchypairs import flow
from cauchypairs import grid as fd
from cauchypairs import spacetime_verifier as sv
from cauchypairs.coordinate_fields import FieldGrid
from cauchypairs.errors import CauchyPairsError, GridInvalid, GridTooSmall, SingularMatrix
from cauchypairs.spacetime_verifier import SPATIAL_AXES, Grid4, Metric4Grid

from conftest import christoffel_reference, traced_peak

BOX3 = ((0.0, 0.1), (0.0, 0.2), (0.0, 0.3))
BOX4 = ((0.0, 1.0),) + BOX3


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
        with pytest.raises(GridInvalid, match=re.escape("inf at node (2, 2, 2, 2)") + "$"):
            Grid4(BOX4, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "last", "before_block", "after_block"])
    def test_non_finite_message_names_the_first_bad_entry(self, bad, where):
        # the finiteness test runs on blocks of x-planes: put the bad entry
        # at either end of the grid and on either side of a block boundary
        plane = (6, 5, 3, 3)
        rows = fd.FINITE_BLOCK // math.prod(plane)
        assert rows > 1
        vals = np.full((2 * rows,) + plane, 0.5)
        last = (2 * rows - 1, 5, 4, 2, 2)
        index = {
            "first": (0, 0, 0, 0, 0),
            "last": last,
            "before_block": (rows - 1, 5, 4, 2, 1),
            "after_block": (rows, 0, 0, 1, 0),
        }[where]
        if index != last:
            vals[last] = np.nan  # a later bad entry is not the one named
        vals[index] = bad
        message = f"field values must be finite: {bad} at node {index[:3]}, component {index[3:]}"
        with pytest.raises(GridInvalid, match=re.escape(message) + "$"):
            FieldGrid(BOX3, vals)

    @pytest.mark.parametrize("n, error", [
        ((7, 8, 9, 10), GridInvalid),
        ((7, 8), GridInvalid),
        (7.0, GridInvalid),
        ((7, 8.0, 9), GridInvalid),
        ("7", GridInvalid),
        (None, GridInvalid),
        ((7, 4, 9), GridTooSmall),
        (-1, GridTooSmall),
    ])
    def test_from_function_checks_counts_before_sampling(self, n, error):
        def func(*x):
            raise AssertionError("sampled")
        with pytest.raises(error):
            FieldGrid.from_function(BOX3, n, func)

    def test_from_function_takes_integer_counts_of_any_type(self):
        g = FieldGrid.from_function(BOX3, (np.int64(7), 8, np.array(9)), lambda *x: 0.0 * x[0])
        assert g.shape == (7, 8, 9)

    def test_like_rejects_another_grid_shape(self):
        with pytest.raises(GridInvalid):
            FieldGrid(BOX3, np.zeros((9, 5, 5))).like(np.zeros((7, 5, 5)))

    @pytest.mark.parametrize("box", [
        ((0, 1), (0, 0), (0, 1), (0, 1)),
        ((0, 1), (0, 1), (0, 1), (1, 0.5)),
    ])
    def test_4d_box_must_be_nondegenerate(self, box):
        def func(*x):
            raise AssertionError("sampled")
        with pytest.raises(GridInvalid):
            Grid4(box, np.zeros((5, 5, 5, 5)))
        with pytest.raises(GridInvalid):
            Grid4.from_function(box, 5, func)


class TestSampling:
    """Sampling and checking a grid costs only its payload: the coordinates
    are read-only broadcast views of the axes, and the finiteness test runs
    block by block."""

    def test_from_function_peak_is_its_payload(self):
        box = ((0.0, 1.0),) * 3
        peak = traced_peak(lambda: FieldGrid.from_function(box, 65, lambda x, y, z: 0.0 * x))
        assert peak <= 1.25 * 65**3 * 8

    def test_meshgrid_peak_is_linear_in_the_axes(self):
        grid = FieldGrid.from_function(BOX3, (65, 66, 67), lambda x, y, z: 0.0 * x)
        # three dense coordinate arrays would take 6.9 MB
        assert traced_peak(grid.meshgrid) <= 8 * sum(grid.shape) + 16384

    def test_wrapping_a_field_peaks_far_below_its_size(self):
        values = np.full((65, 65, 65, 3, 3), 0.5)
        assert traced_peak(lambda: FieldGrid(BOX3, values)) <= values.nbytes / 32

    @pytest.mark.parametrize("cls, box, n", [
        (FieldGrid, BOX3, (7, 8, 9)),
        (Grid4, BOX4, (5, 6, 7, 8)),
    ])
    def test_coordinates_are_read_only_and_exact(self, cls, box, n):
        grid = cls.from_function(box, n, lambda *x: 0.0 * x[0])
        dense = np.meshgrid(*(np.linspace(a, b, c) for (a, b), c in zip(box, n)), indexing="ij")
        for view, copy in zip(grid.meshgrid(), dense, strict=True):
            assert view.shape == copy.shape and view.tobytes() == copy.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            cls.from_function(box, n, lambda *x: x[-1].__iadd__(1.0))

    @pytest.mark.parametrize("func", [lambda x, y, z: y, lambda x, y, z: y[..., None]],
                             ids=["y", "y_column"])
    def test_a_coordinate_is_sampled_as_its_read_only_view(self, func):
        seen = []
        grid = FieldGrid.from_function(BOX3, (7, 8, 9), lambda *x: seen.append(x) or func(*x))
        y = seen[0][1]
        assert np.shares_memory(grid.values, y)
        np.testing.assert_array_equal(grid.values.reshape(y.shape), y)
        with pytest.raises(ValueError, match="read-only"):
            grid.values[...] = 0.0
        assert y[0, -1, 0] == BOX3[1][1]

    def test_a_constant_is_sampled_as_a_read_only_broadcast(self):
        box = ((0.0, 1.0),) * 3
        grid = FieldGrid.from_function(box, 65, lambda x, y, z: 2.5)
        assert grid.values.shape == (65, 65, 65)
        assert not grid.values.flags.writeable
        assert (grid.values == 2.5).all()
        # no grid-sized array: the payload would take 2.2 MB, and the
        # finiteness test's blocks take ~0.13 MB
        peak = traced_peak(lambda: FieldGrid.from_function(box, 65, lambda x, y, z: 2.5))
        assert peak <= 65**3 * 8 / 8


ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def _milne(t, x, y, z):
    g = np.zeros(t.shape + (4, 4))
    g[...] = ETA
    g[..., 1, 1] = (1.0 + t) ** 2
    return g


# grid type -> box, sample counts and func of each `from_function` route; a
# 4x4 payload is never a coordinate itself
SAMPLED = {
    FieldGrid: (BOX3, (7, 8, 9), {"dense": lambda x, y, z: x * y + z,
                                  "constant": lambda *x: 2.5,
                                  "coordinate": lambda x, y, z: y}),
    Grid4: (BOX4, (5, 6, 7, 8), {"dense": lambda t, x, y, z: t * x + y * z,
                                 "constant": lambda *x: -0.5,
                                 "coordinate": lambda t, x, y, z: z}),
    Metric4Grid: (BOX4, (5, 6, 5, 7), {"dense": _milne,
                                       "constant": lambda t, *x: np.broadcast_to(
                                           ETA, t.shape + (4, 4))}),
}


@pytest.mark.parametrize("cls, route", [
    (cls, route) for cls, (_, _, funcs) in SAMPLED.items()
    for route in ("constructor", *funcs, "like")
])
def test_every_grid_holds_read_only_values(cls, route):
    # a validated grid cannot be written, whichever route built it; the
    # caller's own array stays writable, and every route gives the spacing
    # that the box and counts fix
    box, n, funcs = SAMPLED[cls]
    source = cls.from_function(box, n, funcs["dense"])
    own = source.values.copy()
    if route == "constructor":
        grid = cls(box, own)
    elif route == "like":
        grid = source.like(own)
    else:
        grid = cls.from_function(box, n, funcs[route])
    assert type(grid) is cls and grid.shape == source.shape
    with pytest.raises(ValueError, match="read-only"):
        grid.values[(0,) * grid.values.ndim] = 1.0
    assert own.flags.writeable
    assert [h.hex() for h in grid.spacing] == [h.hex() for h in source.spacing]


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
        return g3.like(e), omega

    def test_partials_and_exterior_derivative_per_slice(self):
        g3, omega = self.fields()
        om = fd.to_planes(omega, 3)
        nt = 5
        g4 = Grid4.from_function(BOX4, (nt,) + g3.shape, lambda t, x, y, z: 0.0 * t)
        om4 = np.broadcast_to(om[:, None], om.shape[:1] + (nt,) + om.shape[1:])
        partial4 = fd.plane_partials(g4, om4, SPATIAL_AXES)
        d4 = partial4 - np.swapaxes(partial4, 0, 1)
        partial3 = fd.plane_partials(g3, om)
        d3 = fd.to_planes(cf.fd_exterior_derivative(g3.like(omega)).values, 3)
        for t in range(nt):
            np.testing.assert_array_equal(partial4[..., t, :, :, :], partial3)
            np.testing.assert_array_equal(d4[..., t, :, :, :], d3)

    def test_comoving_exterior_system_matches_the_3d_constraint(self):
        # a t-independent stack has Theta_t = 0 exactly at the one interior
        # t-plane of 5, the only one left once the collar is cut
        coframe, _ = self.fields()
        e = coframe.values
        r4 = flow.comoving_residual(Grid4(BOX4, np.broadcast_to(e, (5,) + e.shape)))
        r3 = cf.constraint_residual_fd(coframe, coframe.like(np.zeros(e.shape)))
        keys = ("exterior_u", "exterior_l", "exterior_n", "exterior_max", "theta_eu_closed")
        assert [r4[k].hex() for k in keys] == [r3[k].hex() for k in keys]
        assert min(r3[k] for k in keys[:3]) > 0

    def test_collar_over_grid_axes_only(self):
        v = np.zeros((9, 9, 3))
        v[1, 4, :] = 5.0
        v[4, 4, 2] = 1.0
        assert fd.interior_max(v, 2) == 1.0


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
        # grid-major: a contiguous array, a sliced block view like
        # gh_decomposition's h and the strided view of the planes
        blocks = wide(grid.shape + (4, 4))
        for values in (blocks, blocks[..., 1:, 1:], fd.from_planes(planes, ndim)):
            for axis in range(ndim):
                ref = np.gradient(values, grid.spacing[axis], axis=axis, edge_order=2).tobytes()
                assert grid.grad(values, axis).tobytes() == ref
        # on a box, and on a box from the field on the nodes `grow` says it reads
        nx = shape[-ndim]
        whole = fd.plane_partials(grid, planes)
        rest = (slice(None),) * (ndim - 1)
        boxes = [(own,) + rest for own in (slice(0, 3), slice(1, nx - 1), slice(2, nx))]
        boxes += [(slice(2, -2),) * ndim, (slice(0, 1), slice(1, 2), slice(-1, None)) + rest[2:]]
        major = fd.from_planes(planes, ndim)
        for own in boxes + [None]:
            on = (Ellipsis,) + (own or ())
            part = fd.plane_partials(grid, planes, own=own)
            assert part.tobytes() == np.ascontiguousarray(whole[on]).tobytes()
            shell, inner = fd.grow(own or rest + (slice(None),), shape[-ndim:])
            assert fd.plane_partials(grid, planes[(Ellipsis,) + shell], own=inner).tobytes() \
                == part.tobytes()
            # grid-major, on the box and from the shell
            for axis in range(ndim):
                cut = grid.grad(major, axis, own)
                assert cut.tobytes() == fd.from_planes(part[axis], ndim).copy().tobytes()
                assert grid.grad(major[shell], axis, inner).tobytes() == cut.tobytes()


class TestSlabs:
    """The slab plan of grid axis 0 (`_slabs`) and the driver on it
    (`slab_max`)."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(shape=st.lists(st.integers(5, 40), min_size=3, max_size=4).map(tuple),
           slab_nodes=st.sampled_from([1, 7, 100, 2000, 2**15]))
    def test_plan_tiles_axis_0(self, shape, slab_nodes):
        n, c = shape[0], fd.COLLAR
        boxes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fd, "SLAB_NODES", slab_nodes)
            slabs = fd._slabs(shape)
            fd.slab_max(shape, 1, lambda window, box, own: boxes.append(box[0]) or {"k": 0.0})
        step = max(1, slab_nodes // math.prod(shape[1:]))
        assert [i for a, b in slabs for i in range(a, b)] == list(range(n))
        # the planes the norms read come in runs of `step`, the last one
        # shorter or not; the collar planes are folded into the end slabs
        inner = [(max(a, c), min(b, n - c)) for a, b in slabs]
        assert all(b - a == step for a, b in inner[:-1])
        assert 1 <= inner[-1][1] - inner[-1][0] <= step
        assert slabs[0][0] == 0 and slabs[-1][1] == n
        # so every slab's box is non-empty
        assert len(boxes) == len(slabs) and all(b.start < b.stop for b in boxes)

    @pytest.mark.parametrize("n", [17, 33])
    def test_bench_grids_are_one_slab(self, n):
        # the benchmark's smoke test (`bench/test_smoke.py`) pins fd3-ladder's
        # `christoffel3_fd.per_residual == 2` on the 17^3 and 33^3 grids that
        # `--size tiny` runs: two Christoffel sets per slab, one slab each
        assert fd._slabs((n,) * 3) == [(0, n)]

    @pytest.mark.parametrize("halo", [1, 2])
    @pytest.mark.parametrize("shape", [(17, 5, 6), (23, 5, 5, 7), (5, 9, 9, 9)])
    def test_windows_boxes_and_reduction(self, monkeypatch, shape, halo):
        monkeypatch.setattr(fd, "SLAB_NODES", 1)
        n, c = shape[0], fd.COLLAR
        calls = []

        def residual(window, box, own):
            calls.append((window, box, own))
            return {"first": float(window.start), "nan": np.nan if window.start == 0 else 0.0}

        report = fd.slab_max(shape, halo, residual)
        slabs = fd._slabs(shape)
        assert len(calls) == len(slabs)
        rows = []
        for (a, b), (window, box, own) in zip(slabs, calls):
            assert window == slice(max(a - halo, 0), min(b + halo, n))
            assert (own.start + window.start, own.stop + window.start) == (a, b)
            assert box[1:] == (slice(c, -c),) * (len(shape) - 1)
            rows += range(box[0].start + window.start, box[0].stop + window.start)
        # the boxes tile axis 0 less the collar
        assert rows == list(range(c, n - c))
        assert report["first"] == max(slabs[-1][0] - halo, 0) and np.isnan(report["nan"])


def spd_batch(rng, shape, n=3):
    """Dense symmetric positive definite n x n blocks over `shape`."""
    a = rng.standard_normal(shape + (n, n))
    return a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(n)


def plane_inverse(m):
    """`plane_inverse` of grid-major 3x3 blocks, read back grid-major."""
    k = m.ndim - 2
    return fd.from_planes(fd.plane_inverse(fd.to_planes(m, k)), k)


def inverse4(m):
    """`inverse4` of grid-major 4x4 blocks, read back grid-major, and the
    verdict of its signature test."""
    verdict = []
    return fd.from_planes(fd.inverse4(m, verdict.append), m.ndim - 2), verdict[0]


def lorentzian_batch(rng, shape):
    """Dense symmetric 4x4 blocks over `shape` with one negative eigenvalue."""
    g = spd_batch(rng, shape, 4)
    g[..., 0, 0] -= 2 * np.abs(g).sum(axis=(-2, -1))
    return g


def lapack_verdict(m):
    """lambda_0 < 0 < lambda_1 on LAPACK's ascending eigenvalues of each
    block (eigvalsh reads the lower triangle)."""
    eig = np.linalg.eigvalsh(m)
    return (eig[..., 0] < 0) & (eig[..., 1] > 0)


class TestClosedForms:
    """The 3x3 and 4x4 closed-form inverses on planes: accurate on dense
    blocks, exact under power-of-two rescaling, never inf or NaN, and free
    of LAPACK."""

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
        invert = plane_inverse if n == 3 else lambda m: fd.inverse4(m, lambda lorentzian: None)
        with pytest.raises(SingularMatrix) as err:
            invert(np.zeros((2, n, n)))
        assert isinstance(err.value, CauchyPairsError)
        assert isinstance(err.value, np.linalg.LinAlgError)

    def test_unrepresentable_inverse_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            plane_inverse(np.eye(3) * 1e-310)
        with pytest.raises(SingularMatrix):
            inverse4(np.diag([-1.0, 1, 1, 1]) * 1e-310)

    def test_4x4_closed_form_matches_lapack_and_calls_none(self, rng, monkeypatch):
        g = lorentzian_batch(rng, (5, 6))
        assert lapack_verdict(g).all()
        lapack = np.linalg.inv(g)
        calls = []
        for name in ("inv", "eigvalsh", "eigh", "eigvals", "det", "slogdet", "solve"):
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, **kw: calls.append(_n))
        inv, lorentzian = inverse4(g)
        assert calls == []
        assert lorentzian.all()
        scale = np.abs(lapack).max(axis=(-2, -1))
        assert (np.abs(inv - lapack).max(axis=(-2, -1)) <= 1e-13 * scale).all()

    def test_4x4_inverse_reads_every_entry(self, rng):
        # a block that `is_symmetric` admits need not be exactly symmetric:
        # the inverse is that of the block as given, as LAPACK's was
        g = lorentzian_batch(rng, (3,))
        unperturbed = inverse4(g)[0]
        for i in range(4):
            for j in range(4):
                one = g.copy()
                one[1, i, j] *= 1 + 1e-9
                lapack = np.linalg.inv(one)
                inv = inverse4(one)[0]
                assert np.abs(inv - lapack).max() <= 1e-13 * np.abs(lapack).max()
                assert not np.array_equal(inv[1], unperturbed[1])

    @pytest.mark.parametrize("k", [-600, -300, 300, 600])
    def test_4x4_power_of_two_rescaling_is_exact(self, rng, k):
        g = lorentzian_batch(rng, (50,))
        inv, lorentzian = inverse4(g)
        scaled_inv, scaled_lorentzian = inverse4(2.0**k * g)
        np.testing.assert_array_equal(scaled_inv, inv / 2.0**k)
        np.testing.assert_array_equal(scaled_lorentzian, lorentzian)

    def test_4x4_singular_node_fails_the_signature_first(self, rng):
        g = lorentzian_batch(rng, (4, 5))
        g[2, 3] = np.diag([-1.0, 0, 1, 1])
        verdicts = []
        with pytest.raises(SingularMatrix):
            fd.inverse4(g, verdicts.append)
        assert np.argwhere(~verdicts[0]).tolist() == [[2, 3]]


class TestSignature:
    """`inverse4`'s signature test, e4 < 0 and three sign changes in
    (1, -e1, e2, -e3, e4), against LAPACK's eigenvalues on symmetric blocks
    with min |lambda| >= 1e-6 max |lambda|, at every power-of-two scale."""

    @staticmethod
    def blocks(kind, negatives, exponents, seed):
        """32 symmetric 4x4 blocks with `negatives` negative eigenvalues.
        "rotated": the spectrum +-10**`exponents`, scaled to a largest
        |lambda| of 1, so every |lambda| is in [1e-6, 1], under random
        orthogonal changes of basis; "near": those blocks with an asymmetry
        below `is_symmetric`'s 1e-8 of the largest |entry| added to the
        upper triangle; "minkowski": for 1 or 3 negatives, e2 = 0 exactly,
        +-diag(-1, 1, 1, 1) or a null pair [[0, 1], [1, 0]] with a signed
        unit pair, permuted and scaled by 3/4, 1 or 3/2 (exact squares)."""
        rng = np.random.default_rng(seed)
        if kind == "minkowski":
            pair = 1.0 if negatives == 1 else -1.0
            null = np.zeros((4, 4))
            null[0, 1] = null[1, 0] = 1.0
            null[2, 2] = null[3, 3] = pair
            base = (pair * np.diag([-1.0, 1, 1, 1]), null)
            out = []
            for _ in range(32):
                perm = rng.permutation(4)
                b = base[rng.integers(2)]
                out.append(b[np.ix_(perm, perm)] * rng.choice([0.75, 1.0, 1.5]))
            return np.array(out)
        spectrum = np.where(np.arange(4) < negatives, -1.0, 1.0) * 10.0 ** np.array(exponents)
        spectrum /= np.abs(spectrum).max()
        q = np.linalg.qr(rng.standard_normal((32, 4, 4)))[0]
        out = (q * spectrum) @ np.swapaxes(q, -1, -2)
        out = 0.5 * (out + np.swapaxes(out, -1, -2))
        if kind == "near":
            top = np.abs(out).max(axis=(-2, -1))[:, None, None]
            out += np.triu(rng.uniform(-0.9e-8, 0.9e-8, out.shape), 1) * top
        return out

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["rotated", "near", "minkowski"]),
           negatives=st.integers(0, 4),
           exponents=st.lists(st.floats(-6.0, 0.0), min_size=4, max_size=4),
           seed=st.integers(0, 2**32 - 1),
           k=st.integers(-500, 500))
    def test_matches_lapack_at_every_scale(self, kind, negatives, exponents, seed, k):
        if kind == "minkowski":
            negatives = 1 + 2 * (negatives % 2)  # one or three
        m = self.blocks(kind, negatives, exponents, seed)
        assert fd.is_symmetric(m)
        eig = np.abs(np.linalg.eigvalsh(m))
        assert (eig.min(axis=-1) >= 0.99e-6 * eig.max(axis=-1)).all()
        if kind == "near":
            assert not np.array_equal(m, np.swapaxes(m, -1, -2))
        if kind == "minkowski":
            e2 = sum(m[:, i, i] * m[:, j, j] - m[:, i, j] * m[:, j, i]
                     for i in range(4) for j in range(i + 1, 4))
            assert (e2 == 0.0).all()
        _, verdict = inverse4(m)
        np.testing.assert_array_equal(verdict, lapack_verdict(m))
        assert verdict.all() == (negatives == 1)
        np.testing.assert_array_equal(inverse4(np.ldexp(m, k))[1], verdict)


def whole_block_symmetric(m):
    """`is_symmetric` as a max over every block and its full transpose
    difference: the oracle of the plane-by-plane test."""
    scale = np.abs(m).max(axis=(-2, -1))[..., None, None]
    with np.errstate(invalid="ignore"):  # inf - inf on a diagonal
        return bool(np.all(np.abs(m - np.swapaxes(m, -1, -2)) <= 1e-8 * scale))


class TestSymmetry:
    """`is_symmetric` compares the entries ij, i < j, against an elementwise
    maximum over each block; it answers as the whole-block test does."""

    @staticmethod
    def cases(rng, n):
        sym = spd_batch(rng, (3, 4), n) - 0.7 * np.eye(n)  # entries of either sign
        yield sym
        tol = 1e-8 * np.abs(sym[1, 2]).max()
        for i, j in [(a, b) for a in range(n) for b in range(n)]:
            for d in (0.5 * tol, tol, 2 * tol, 1.0):
                one = sym.copy()
                one[1, 2, i, j] += d  # one asymmetric entry, if i != j
                yield one
            for bad in (np.nan, np.inf, -np.inf):
                one = sym.copy()
                one[0, 3, i, j] = bad
                yield one

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [0, -600, 600])
    def test_matches_the_whole_block_test(self, rng, n, k):
        verdicts = []
        for m in self.cases(rng, n):
            m = np.ldexp(m, k)
            verdicts.append(fd.is_symmetric(m))
            assert verdicts[-1] is whole_block_symmetric(m)
        assert True in verdicts and (n == 1 or False in verdicts)


class TestDenseChristoffel:
    """`plane_christoffel` against an einsum reference on dense, non-diagonal
    3x3 Riemannian and 4x4 Lorentzian metrics, where the two sum in different
    orders; the sparse fixture coframes cannot tell them apart."""

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
        k = grid.ndim
        planes = fd.to_planes(metric, k)
        inverse = fd.plane_inverse(planes) if n == 3 else fd.to_planes(inverse4(metric)[0], k)
        gam = fd.from_planes(fd.plane_christoffel(grid, planes, inverse), k)
        if sign < 0:
            # the signature is Lorentzian, and the 4D entry point is this route
            assert sv.christoffel_fd(Metric4Grid(box, metric)).tobytes() == gam.tobytes()
        ref = christoffel_reference(grid, metric)
        assert np.all(ref != 0.0)
        assert np.abs(gam - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_planes_route_matches_einsum_reference(self):
        # unequal node counts per axis, so a swapped plane or axis shows
        grid = FieldGrid.from_function(BOX3, (9, 6, 7), lambda *x: 0.0 * x[0])
        metric = self.dense_metric(grid, 3, 1.0)
        planes = fd.to_planes(metric, 3)
        gam = fd.from_planes(fd.plane_christoffel(grid, planes, fd.plane_inverse(planes)), 3)
        ref = christoffel_reference(grid, metric)
        assert np.all(ref != 0.0)
        assert np.abs(gam - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_planes_route_on_a_range_of_planes(self):
        grid = FieldGrid.from_function(BOX3, (9, 6, 7), lambda *x: 0.0 * x[0])
        metric = fd.to_planes(self.dense_metric(grid, 3, 1.0), 3)
        inverse = fd.plane_inverse(metric)
        whole = fd.plane_christoffel(grid, metric, inverse)
        # each range of x-planes over every y and z node, one-sided stencils
        # included, and over a box cut on y and z too, with the whole-grid
        # inverse cut to the box
        for x in (slice(0, 4), slice(1, 8), slice(5, 9)):
            for own in ((x, slice(None), slice(None)), (x, slice(2, -2), slice(0, 1))):
                on = (Ellipsis,) + own
                np.testing.assert_array_equal(
                    fd.plane_christoffel(grid, metric, inverse[on], own=own), whole[on])


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
