"""Uniform N-axis box grids and the finite-difference kernels on them.

Two array layouts are in use.  A grid's `values` are grid-major: the grid
axes come first and the field components after them, (*grid, *components).
The 3x3 pipelines (the 3D constraint residual and the comoving and general
flow residuals) run on component planes instead: the component axes first
and the grid axes last, (*components, *grid), so that every component is one
contiguous block and a per-node contraction is a few whole-array
multiply-adds.  Each such pipeline converts its fields once at entry
(`to_planes`); `from_planes` gives a grid-major view back.  The 4x4 metric
path (`partials`, `christoffel`, `covariant_derivative`) stays grid-major
with batched matmul contractions; on planes a 4x4 Christoffel set was no
faster at 5^4 to 9^4 nodes and its values moved by rounding.  So the payload
shape picks the route: 3x3 blocks are inverted in closed form on planes
(`plane_inverse`), grid-major 4x4 blocks by LAPACK (`inverse`).

Every derivative, on either layout, comes from one stencil, `_difference`:
second-order central differences with second-order one-sided stencils at
the boundary.  Residual norms exclude a 2-node boundary collar unless asked
otherwise.  The kernels act over a tuple of grid axes, all by
default; axes (1, 2, 3) of a (t, x, y, z) grid give the spatial operators on
every t-slice.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .errors import DegenerateCoframe, GridInvalid, GridTooSmall, SingularMatrix

MAGIC = b"CPGRID1\n"


class Grid:
    """A field sampled on a uniform box grid with `ndim` (fixed by each
    subclass) leading grid axes.  `box` holds one (lo, hi) interval per grid
    axis; `values` has shape (*grid_shape, *component_shape), with at least 5
    samples per grid axis."""

    ndim = 0

    def __init__(self, box, values):
        k = self.ndim
        try:
            box = tuple((float(a), float(b)) for a, b in box)
        except (TypeError, ValueError) as exc:
            raise GridInvalid(f"box must be a sequence of (lo, hi) pairs: {exc}") from None
        values = np.asarray(values, dtype=float)
        if len(box) != k:
            raise GridInvalid(f"box must have {k} axis intervals, got {len(box)}")
        if values.ndim < k:
            raise GridInvalid(f"values must carry {k} leading grid axes")
        if any(n < 5 for n in values.shape[:k]):
            raise GridTooSmall(f"need >= 5 samples per axis, got {values.shape[:k]}")
        if not all(-math.inf < a < b < math.inf for a, b in box):
            raise GridInvalid("box intervals must be finite and nondegenerate")
        if not np.all(np.isfinite(values)):
            raise GridInvalid("field values must be finite")
        self.box = box
        self.values = values
        self.spacing = tuple((b - a) / (n - 1) for (a, b), n in zip(box, self.shape))

    @property
    def shape(self):
        return self.values.shape[: self.ndim]

    @property
    def component_shape(self):
        return self.values.shape[self.ndim:]

    def axis(self, i):
        a, b = self.box[i]
        return np.linspace(a, b, self.shape[i])

    def meshgrid(self):
        return np.meshgrid(*(self.axis(i) for i in range(self.ndim)), indexing="ij")

    @classmethod
    def from_function(cls, box, n, func):
        """Sample func(*coordinates) (broadcasting over arrays) with n samples per axis."""
        if np.isscalar(n):
            n = (n,) * cls.ndim
        axes = [np.linspace(a, b, ni) for (a, b), ni in zip(box, n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        vals = np.asarray(func(*mesh), dtype=float)
        if vals.shape[: cls.ndim] != mesh[0].shape:
            vals = np.broadcast_to(vals, mesh[0].shape).copy()
        return cls(box, vals)

    def like(self, values):
        """A grid of the same type on the same nodes (box, shape and spacing)
        carrying `values`."""
        new = type(self)(self.box, values)
        if new.shape != self.shape:
            raise GridInvalid(f"values on grid {new.shape} do not fit grid {self.shape}")
        new.spacing = self.spacing
        return new

    def window(self, start, stop):
        """The planes [start, stop) of grid axis 0 as a grid of the same type.

        The window keeps this grid's spacing bit for bit: a spacing recomputed
        from the window's end coordinates can differ in the last bit, and so
        would every derivative.  Like any grid it needs >= 5 planes.
        """
        x = self.axis(0)
        sub = type(self)(((x[start], x[stop - 1]),) + self.box[1:], self.values[start:stop])
        sub.spacing = self.spacing
        return sub

    def grad(self, values, axis):
        """d/dx_axis of an array whose leading axes are this grid's; a negative
        axis counts from the end, as in numpy, and so names a trailing grid
        axis of component planes."""
        out = np.empty(values.shape)
        _difference(values, self.spacing[axis], axis, out)
        return out

    def plane_grad(self, planes, axis):
        """d/dx_axis of component planes, whose trailing axes are this grid's."""
        return self.grad(planes, axis - self.ndim)

    # -- serialization ------------------------------------------------------

    def to_binary(self) -> bytes:
        """Flat little-endian layout: magic, ndim int64 axis sizes, 2 ndim
        float64 box bounds, int64 payload rank and dims, row-major float64 data."""
        k, comp = self.ndim, self.component_shape
        bounds = (v for ab in self.box for v in ab)
        head = struct.pack(f"<{k}q{2 * k}dq{len(comp)}q", *self.shape, *bounds, len(comp), *comp)
        return MAGIC + head + np.ascontiguousarray(self.values, dtype="<f8").tobytes()

    @classmethod
    def from_binary(cls, blob: bytes):
        """Inverse of `to_binary`; every size is checked against the blob
        length before anything is allocated."""
        k = cls.ndim
        if blob[: len(MAGIC)] != MAGIC:
            raise GridInvalid("not a grid binary blob")
        head = struct.Struct(f"<{k}q{2 * k}dq")
        off = len(MAGIC) + head.size
        if len(blob) < off:
            raise GridInvalid(f"truncated header: {len(blob)} bytes, need {off}")
        fields = head.unpack_from(blob, len(MAGIC))
        shape, bounds, rank = fields[:k], fields[k: 3 * k], fields[3 * k]
        if not 0 <= rank <= (len(blob) - off) // 8:
            raise GridInvalid(f"payload rank {rank} does not fit a {len(blob)}-byte blob")
        full = shape + struct.unpack_from(f"<{rank}q", blob, off)
        off += 8 * rank
        if any(d < 0 for d in full) or 8 * math.prod(full) != len(blob) - off:
            raise GridInvalid(f"{len(blob) - off} data bytes do not fit shape {full}")
        values = np.frombuffer(blob, dtype="<f8", offset=off).reshape(full)
        box = tuple(zip(bounds[0::2], bounds[1::2]))
        return cls(box, values.copy())


def partials(grid: Grid, values, axes=None) -> np.ndarray:
    """d_i values for i in `axes`, stacked on a new axis after the grid axes."""
    if axes is None:
        axes = range(grid.ndim)
    axes = tuple(axes)
    k = grid.ndim
    out = np.empty(values.shape[:k] + (len(axes),) + values.shape[k:])
    for slot, i in enumerate(axes):
        _difference(values, grid.spacing[i], i, out[(slice(None),) * k + (slot,)])
    return out


def christoffel(grid: Grid, metric, axes=None) -> np.ndarray:
    """Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij) of a grid-major
    metric field: the 4x4 route (`plane_christoffel` is the 3x3 one)."""
    dg = partials(grid, metric, axes)  # dg[..., i, j, l] = d_i g_jl
    sym = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    del dg  # freed before the inverse and the product, whose temporaries set the peak
    m, n = sym.shape[-3:-1]
    # one (n, n) @ (n, m n) product per node, the columns running over (i, j)
    gam = inverse(metric) @ np.swapaxes(sym.reshape(sym.shape[:-3] + (m * n, n)), -1, -2)
    gam *= 0.5
    return gam.reshape(gam.shape[:-1] + (m, n))


def covariant_derivative(grid: Grid, gamma, omega, axes=None) -> np.ndarray:
    """(nabla omega)_ij = d_i omega_j - Gamma^k_ij omega_k of a grid-major
    covector field."""
    partial = partials(grid, omega, axes)
    return partial - np.einsum("...kij,...k->...ij", gamma, omega)


# -- component planes ---------------------------------------------------------


def to_planes(values, ndim: int) -> np.ndarray:
    """The component planes of grid-major `values` with `ndim` leading grid
    axes: shape (*components, *grid), as one contiguous copy."""
    values = np.asarray(values, dtype=float)
    k = values.ndim - ndim
    return np.ascontiguousarray(np.moveaxis(values, range(ndim), range(k, k + ndim)))


def from_planes(planes, ndim: int) -> np.ndarray:
    """The grid-major view of component planes with `ndim` trailing grid axes."""
    k = planes.ndim - ndim
    return np.moveaxis(planes, range(k, k + ndim), range(ndim))


def _on(planes, own):
    """The box `own` (one slice per grid axis, every node if None) of
    component planes."""
    return planes[(Ellipsis,) + tuple(own or ())]


def grow(box, shape):
    """The nodes that the partials on `box` (one slice per grid axis of a
    grid of `shape`) read, as a box grown by one node on each side and
    clipped to the grid (by enough to hold a one-sided stencil's three nodes
    at an end), and `box` again in the indices of that grown box.  A field
    needed only for its partials on `box` is built on the first and
    differentiated on the second."""
    outer, inner = [], []
    for s, n in zip(box, shape):
        lo, hi, _ = s.indices(n)
        a, b = max(min(lo - 1, n - 3), 0), min(max(hi + 1, 3), n)
        outer.append(slice(a, b))
        inner.append(slice(lo - a, hi - a))
    return tuple(outer), tuple(inner)


def plane_partials(grid: Grid, planes, axes=None, own=None) -> np.ndarray:
    """d_i planes for i in `axes` (all grid axes by default), stacked on a new
    leading axis, on the box `own`: one slice per grid axis, every node by
    default.  The derivative along axis i reads the box and its neighbours
    along axis i only (`grow`)."""
    k = grid.ndim
    axes = tuple(range(k) if axes is None else axes)
    own = (slice(None),) * k if own is None else tuple(own)
    out = np.empty((len(axes),) + _on(planes, own).shape)
    for slot, i in enumerate(axes):
        lo, hi, _ = own[i].indices(planes.shape[i - k])
        line = planes[(Ellipsis,) + own[:i] + (slice(None),) + own[i + 1:]]
        _difference(line, grid.spacing[i], i - k, out[slot], lo, hi)
    return out


def _difference(f, h, axis, out, lo=0, hi=None):
    """The entries [lo, hi) along `axis` of d f / dx, x spaced by h, written
    to `out`: second-order central differences, one-sided at the ends of the
    axis; numpy's `gradient(f, h, axis=axis, edge_order=2)` bit for bit, but
    with no temporaries and only the entries asked for.  The one difference
    stencil of every grid kernel."""
    n = f.shape[axis]
    hi = n if hi is None else hi

    def at(a, b):
        return (slice(None),) * (axis % f.ndim) + (slice(a, b),)

    c0, c1 = max(lo, 1), min(hi, n - 1)
    mid = out[at(c0 - lo, c1 - lo)]
    np.subtract(f[at(c0 + 1, c1 + 1)], f[at(c0 - 1, c1 - 1)], out=mid)
    mid /= 2.0 * h
    if lo == 0:
        end = out[at(0, 1)]
        np.multiply(-1.5 / h, f[at(0, 1)], out=end)
        end += 2.0 / h * f[at(1, 2)]
        end += -0.5 / h * f[at(2, 3)]
    if hi == n:
        end = out[at(n - 1 - lo, n - lo)]
        np.multiply(0.5 / h, f[at(n - 3, n - 2)], out=end)
        end += -2.0 / h * f[at(n - 2, n - 1)]
        end += 1.5 / h * f[at(n - 1, n)]


def plane_matmul(a, b, out=None) -> np.ndarray:
    """c_ij = sum_k a_ik b_kj of (m, n) and (n, p) component planes, summed in
    k order."""
    m, n, p = a.shape[0], a.shape[1], b.shape[1]
    if out is None:
        out = np.empty((m, p) + np.broadcast_shapes(a.shape[2:], b.shape[2:]))
    for i in range(m):
        # the row c_i. over every j at once
        np.multiply(a[i, 0], b[0], out=out[i])
        for k in range(1, n):
            out[i] += a[i, k] * b[k]
    return out


def plane_matvec(m, v) -> np.ndarray:
    """w_i = sum_j m_ij v_j of (n, n) and (n,) component planes."""
    return plane_matmul(m, v[:, None])[:, 0]


def plane_dot(a, b) -> np.ndarray:
    """sum_i a_i b_i of two (n,) component planes."""
    return plane_matmul(a[None], b[:, None])[0, 0]


def exterior_derivative(grid: Grid, omega, axes=None) -> np.ndarray:
    """(d omega)_ij = d_i omega_j - d_j omega_i of covector component planes
    along the grid axes `axes`."""
    partial = plane_partials(grid, omega, axes)
    return partial - np.swapaxes(partial, 0, 1)


# the components ij, i < j, that fix a 2-form
_UPPER = ((0, 1), (0, 2), (1, 2))


def _two_form(partial, wedge_of=None) -> np.ndarray:
    """The planes ij, i < j (in `_UPPER` order), of d omega - alpha ^ beta,
    from the partials partial[i, j] = d_i omega_j and `wedge_of` = (alpha,
    beta), or of d omega alone; the other planes are their exact negatives
    or 0."""
    out = np.empty((len(_UPPER),) + partial.shape[2:])
    for s, (i, j) in enumerate(_UPPER):
        np.subtract(partial[i, j], partial[j, i], out=out[s])
    if wedge_of is not None:
        alpha, beta = wedge_of
        w = np.empty(out.shape[1:])
        for s, (i, j) in enumerate(_UPPER):
            np.multiply(alpha[i], beta[j], out=w)
            w -= alpha[j] * beta[i]
            out[s] -= w
    return out


def coframe_metric(e) -> np.ndarray:
    """h_ij = sum_a (e_a)_i (e_a)_j of coframe planes (frame, component, *grid)."""
    return plane_matmul(np.swapaxes(e, 0, 1), e)


def plane_christoffel(grid: Grid, metric, axes=None, own=None) -> np.ndarray:
    """Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij) of a symmetric
    3x3 metric given as component planes, returned as planes (k, i, j, *grid)
    on the box `own` (as in `plane_partials`); the metric is inverted, and
    tested by `plane_inverse`, on that box only.  Only the six components
    g_jl, j <= l, are differentiated, and each symbol is formed once for
    i <= j."""
    n = len(metric)
    upper = [(j, l) for j in range(n) for l in range(j, n)]
    slot = {}
    for s, (j, l) in enumerate(upper):
        slot[j, l] = slot[l, j] = s
    dg = plane_partials(grid, metric[tuple(zip(*upper))], axes, own)  # d_i g_jl
    half_ginv = plane_inverse(_on(metric, own))
    half_ginv *= 0.5  # exact, so (g/2) s rounds as (g s)/2 short of underflow
    gam = np.empty((n, n, n) + half_ginv.shape[2:])
    sym = np.empty((n,) + half_ginv.shape[2:])
    tmp = np.empty(gam.shape[:1] + sym.shape[1:])
    for i in range(n):
        for j in range(i, n):
            for l in range(n):
                np.add(dg[i, slot[j, l]], dg[j, slot[i, l]], out=sym[l])
                sym[l] -= dg[l, slot[i, j]]
            # the column Gamma^k_ij over every k at once
            acc = gam[:, i, j]
            np.multiply(half_ginv[:, 0], sym[0], out=acc)
            for l in range(1, n):
                acc += np.multiply(half_ginv[:, l], sym[l], out=tmp)
            if j != i:
                gam[:, j, i] = acc
    return gam


def plane_covariant_derivative(gamma, partial, omega) -> np.ndarray:
    """(nabla omega)_ij = d_i omega_j - Gamma^k_ij omega_k of covector planes,
    from the partials partial[i, j] = d_i omega_j and the planes of Gamma."""
    acc = gamma[0] * omega[0]
    for k in range(1, len(omega)):
        acc += gamma[k] * omega[k]
    return np.subtract(partial, acc, out=acc)


def exterior_system(de, e_u, theta_e, d_theta_eu, norm) -> dict:
    """Residuals of the exterior system d e_a = Theta(e_a) ^ e_u (a = u, l, n)
    and of the closedness of Theta(e_u), each reduced by `norm`: the keys
    exterior_u, exterior_l, exterior_n, exterior_max and theta_eu_closed.
    All arguments are component planes: `de` yields the partials
    d_i (e_a)_j, (i, j, *grid), of each frame row a in turn (an array or a
    generator); `theta_e` holds the rows Theta(e_a), and `d_theta_eu` the
    partials of Theta(e_u).  Each residual is reduced as soon as it is
    built, over its planes ij, i < j: the others are their exact negatives
    or 0."""
    report = {
        f"exterior_{name}": norm(_two_form(d_ea, (theta_ea, e_u)))
        for name, d_ea, theta_ea in zip("uln", de, theta_e)
    }
    report["exterior_max"] = float(np.max(list(report.values())))  # NaN propagates
    report["theta_eu_closed"] = norm(_two_form(d_theta_eu))
    return report


def cumulative_trapezoid(y, x) -> np.ndarray:
    """The primitive of samples y on the increasing nodes x that vanishes at
    x[0], by the trapezoid rule; scipy.integrate.cumulative_trapezoid(y, x,
    initial=0) bit for bit."""
    out = np.zeros(len(y))
    out[1:] = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    return out


def _simpson_h1(y, dx):
    """Simpson integrals over the first interval of each node triple, on
    unequal intervals dx."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      - x21x21_x31x32 * y[2:])


def cumulative_simpson(y, x) -> np.ndarray:
    """The primitive of samples y on >= 3 increasing nodes x that vanishes at
    x[0], by Simpson's rule on the quadratic through each node and its two
    neighbours; scipy.integrate.cumulative_simpson(y, x=x, initial=0) bit for
    bit.  Interval i is integrated on the node triple that begins with it
    when i is even, on the one that ends with it when i is odd or last."""
    dx = np.diff(x)
    forward = _simpson_h1(y, dx)
    backward = _simpson_h1(y[::-1], dx[::-1])[::-1]
    parts = np.empty(len(dx))
    parts[:-1:2] = forward[::2]
    parts[1::2] = backward[::2]
    parts[-1] = backward[-1]
    out = np.zeros(len(y))
    out[1:] += np.cumsum(parts)  # += as scipy adds its initial 0: -0.0 gives 0.0
    return out


def require_regular(rows, tol: float, slabs=None) -> None:
    """Raise DegenerateCoframe where the frame rows (..., 3 frames, 3
    components) are dependent: |det| <= tol times the product of the row
    norms (Hadamard's bound), a test invariant under rows -> c rows.  Each row
    is first divided, exactly, by the power of two of its largest |entry|, so
    the scale of the rows alone never makes either side over- or underflow.
    `slabs`, plane ranges [a, b) of grid axis 0, bound the temporaries; one
    slab by default."""
    bad = []
    for a, b in slabs or [(0, rows.shape[0])]:
        part = to_planes(rows[a:b], rows.ndim - 2)  # part[r, j] = (e_r)_j
        # every row's largest |entry|, an elementwise maximum over the components
        top = functools.reduce(np.maximum, (np.abs(part[:, j]) for j in range(3)))
        part = np.ldexp(part, -np.frexp(top)[1][:, None], out=part)
        del top
        # the product of the row norms, one row at a time
        norms = functools.reduce(np.multiply, (np.sqrt(plane_dot(part[r], part[r]))
                                               for r in range(3)))
        # every row's largest |entry|, so every block's, is now in [0.5, 1):
        # the closed form needs no scaling of its own
        idx = np.argwhere(np.abs(_det3(part)) <= tol * norms)
        idx[:, 0] += a
        bad.append(idx)
    bad = np.concatenate(bad)
    if bad.size:
        nodes = [tuple(map(int, b)) for b in bad[:10]]
        raise DegenerateCoframe(
            f"coframe singular at {len(bad)} nodes, first at index {nodes[0]}", nodes=nodes
        )


def max_abs(values) -> float:
    """Max |values| over every entry; a NaN propagates."""
    return float(np.abs(values).max())


def interior_max(values, naxes: int, include_boundary: bool = False) -> float:
    """Max |values| over `naxes` leading grid axes, excluding a 2-node collar by default."""
    v = np.asarray(values)
    if not include_boundary:
        v = v[(slice(2, -2),) * naxes]
    return max_abs(v)


# The 3x3 blocks of component planes m[r, c] are inverted and reduced in
# closed form.  Each block is first divided by 2**k, the power of two of its
# largest |entry|, in one `ldexp` over the nine planes.  That is exact: the
# result is bit for bit that of the unscaled closed form wherever that form
# neither over- nor underflows, and no finite block makes it do so.  The
# scaled copy takes nine floats per node while an inverse is built, below the
# peak of the Christoffel set that calls it.


def _neg_exponents3(m):
    """-k per 3x3 block of planes m, 2**k <= max |entry| < 2**(k + 1)."""
    # an elementwise maximum over the nine entries; numpy's max over the two
    # short trailing axes took 0.37 ms where this takes 0.09 ms at 7225 nodes
    top = functools.reduce(np.maximum, (np.abs(m[i, j]) for i in range(3) for j in range(3)))
    return -np.frexp(top)[1]


def _cofactor3(m, i, j, out=None):
    """Cofactor C_ij of each 3x3 block of planes m; the cyclic index form
    carries the sign (-1)**(i + j)."""
    def e(r, c):
        return m[(i + r) % 3, (j + c) % 3]
    out = np.multiply(e(1, 1), e(2, 2), out=out)
    out -= e(1, 2) * e(2, 1)
    return out


def _det3(m, row0=None):
    """Determinant of each 3x3 block of planes m, expanded along the first
    row with its cofactors `row0` (computed here if not given)."""
    if row0 is None:
        row0 = [_cofactor3(m, 0, j) for j in range(3)]
    c0, c1, c2 = row0
    return m[0, 0] * c0 + m[0, 1] * c1 + m[0, 2] * c2


def _inverse3(m, adj):
    """The inverse of each 3x3 block of planes m, written to the planes `adj`
    (may be inf or NaN where a block is singular)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nk = _neg_exponents3(m)
        m = np.ldexp(m, nk)
        for i in range(3):
            for j in range(3):
                _cofactor3(m, i, j, out=adj[j, i, ...])
        adj /= _det3(m, (adj[0, 0], adj[1, 0], adj[2, 0]))
        np.ldexp(adj, nk, out=adj)


def _finite(inv):
    if not np.isfinite(inv).all():
        raise SingularMatrix("Singular matrix")
    return inv


def inverse(m) -> np.ndarray:
    """Inverses of the trailing square blocks of grid-major `m`, by LAPACK
    (`plane_inverse` is the 3x3 closed form on planes).  Raises
    SingularMatrix (a LinAlgError) where a block is singular or its inverse
    is not representable; never returns inf or NaN."""
    # a 4x4 closed form measured only 1.5-2x faster at 5^4-9^4 nodes, and
    # moved the narrow-box pp-wave nabla_riemann by 3.25e-13, nearly its
    # whole 1-ulp floor of 3.3e-13
    try:
        inv = np.linalg.inv(np.asarray(m, dtype=float))
    except np.linalg.LinAlgError:
        raise SingularMatrix("Singular matrix") from None
    return _finite(inv)


def plane_inverse(m) -> np.ndarray:
    """Inverses of the 3x3 blocks of component planes (3, 3, *grid), as
    planes, in closed form.  Raises SingularMatrix (a LinAlgError) where a
    block is singular or its inverse is not representable; never returns
    inf or NaN."""
    inv = np.empty(m.shape)
    _inverse3(m, inv)
    return _finite(inv)
