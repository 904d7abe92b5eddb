"""Uniform N-axis box grids and the finite-difference kernels on them.

Field components occupy the array axes after the grid axes.  Derivatives are
second-order central differences with second-order one-sided stencils at the
boundary; residual norms exclude a 2-node boundary collar unless asked
otherwise.  The kernels act over a tuple of grid axes, all by default; axes
(1, 2, 3) of a (t, x, y, z) grid give the spatial operators on every t-slice.
"""

from __future__ import annotations

import functools
import json
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
        """d/dx_axis of an array whose leading axes are this grid's."""
        return np.gradient(values, self.spacing[axis], axis=axis, edge_order=2)

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

    def to_text(self) -> str:
        """Structured text (JSON) form, intended for small grids."""
        return json.dumps(
            {
                "box": [list(ab) for ab in self.box],
                "shape": list(self.shape),
                "component_shape": list(self.component_shape),
                "values": self.values.tolist(),
            },
            sort_keys=True,
        )

    @classmethod
    def from_text(cls, text: str):
        doc = json.loads(text)
        return cls(doc["box"], np.array(doc["values"], dtype=float))


def partials(grid: Grid, values, axes=None) -> np.ndarray:
    """d_i values for i in `axes`, stacked on a new axis after the grid axes."""
    if axes is None:
        axes = range(grid.ndim)
    axes = tuple(axes)
    k = grid.ndim
    out = np.empty(values.shape[:k] + (len(axes),) + values.shape[k:])
    for slot, i in enumerate(axes):
        out[(slice(None),) * k + (slot,)] = grid.grad(values, i)
    return out


def exterior_derivative(grid: Grid, omega, axes=None) -> np.ndarray:
    """(d omega)_ij = d_i omega_j - d_j omega_i of a covector field."""
    partial = partials(grid, omega, axes)
    return partial - np.swapaxes(partial, grid.ndim, grid.ndim + 1)


def christoffel(grid: Grid, metric, axes=None) -> np.ndarray:
    """Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij) of a metric field."""
    dg = partials(grid, metric, axes)  # dg[..., i, j, l] = d_i g_jl
    sym = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    del dg  # freed before the inverse and the product, whose temporaries set the peak
    m, n = sym.shape[-3:-1]
    # one (n, n) @ (n, m n) product per node, the columns running over (i, j)
    gam = inverse(metric) @ np.swapaxes(sym.reshape(sym.shape[:-3] + (m * n, n)), -1, -2)
    gam *= 0.5
    return gam.reshape(gam.shape[:-1] + (m, n))


def covariant_derivative(grid: Grid, gamma, omega, axes=None) -> np.ndarray:
    """(nabla omega)_ij = d_i omega_j - Gamma^k_ij omega_k of a covector field."""
    partial = partials(grid, omega, axes)
    return partial - np.einsum("...kij,...k->...ij", gamma, omega)


def wedge(alpha, beta) -> np.ndarray:
    """(alpha ^ beta)_ij for covector arrays with a trailing component axis."""
    return alpha[..., :, None] * beta[..., None, :] - alpha[..., None, :] * beta[..., :, None]


def exterior_system(grid: Grid, e, theta_e, norm, axes=None) -> dict:
    """Residuals of the exterior system d e_a = Theta(e_a) ^ e_u (a = u, l, n)
    and of the closedness of Theta(e_u), each reduced by `norm`: the keys
    exterior_u, exterior_l, exterior_n, exterior_max and theta_eu_closed.
    `e` holds the coframe rows and `theta_e` the rows Theta(e_a), both of
    shape (..., frame, component), in components along the grid axes `axes`
    (all by default).  Each residual is reduced as soon as it is built, so
    at most one is alive."""
    eu = e[..., 0, :]
    report = {
        f"exterior_{name}": norm(exterior_derivative(grid, e[..., a, :], axes)
                                 - wedge(theta_e[..., a, :], eu))
        for a, name in enumerate("uln")
    }
    report["exterior_max"] = float(np.max(list(report.values())))  # NaN propagates
    report["theta_eu_closed"] = norm(exterior_derivative(grid, theta_e[..., 0, :], axes))
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
        part = rows[a:b]
        # an elementwise maximum over the components; numpy's max along the
        # short last axis took 0.95 ms where this takes 0.04 ms at 7225 nodes
        top = functools.reduce(np.maximum, (np.abs(part[..., j]) for j in range(3)))
        part = np.ldexp(part, -np.frexp(top)[1][..., None])
        del top
        # the product of the row norms, one row at a time
        norms = functools.reduce(np.multiply, (np.linalg.norm(part[..., r, :], axis=-1)
                                               for r in range(3)))
        # every row's largest |entry|, so every block's, is now in [0.5, 1):
        # the closed form needs no scaling of its own
        idx = np.argwhere(np.abs(_det3(part, None)) <= tol * norms)
        idx[:, 0] += a
        bad.append(idx)
    bad = np.concatenate(bad)
    if bad.size:
        nodes = [tuple(map(int, b)) for b in bad[:10]]
        raise DegenerateCoframe(
            f"coframe singular at {len(bad)} nodes, first at index {nodes[0]}", nodes=nodes
        )


def interior_max(values, naxes: int, include_boundary: bool = False) -> float:
    """Max |values| over `naxes` leading grid axes, excluding a 2-node collar by default."""
    v = np.abs(np.asarray(values))
    if not include_boundary:
        v = v[(slice(2, -2),) * naxes]
    return float(v.max())


def coframe_metric(e) -> np.ndarray:
    """h_ij = sum_a (e_a)_i (e_a)_j for coframe rows of shape (..., frame, component)."""
    return np.swapaxes(e, -1, -2) @ e


# The 3x3 blocks below are inverted and reduced in closed form.  Each entry is
# divided by 2**k as it is used, 2**k the power of two of its block's largest
# |entry|.  That is exact: the result is bit for bit that of the unscaled
# closed form wherever that form neither over- nor underflows, and no finite
# block makes it do so.  Scaling entry by entry keeps the temporaries at one
# float per node, where a scaled copy of the blocks would take nine.  A
# scale nk of None leaves the entries as they are.


def _neg_exponents3(m):
    """-k per trailing 3x3 block, 2**k <= max |entry| < 2**(k + 1)."""
    # an elementwise maximum over the nine entries; numpy's max over the two
    # short trailing axes took 0.37 ms where this takes 0.09 ms at 7225 nodes
    top = functools.reduce(np.maximum, (np.abs(m[..., i, j]) for i in range(3) for j in range(3)))
    return -np.frexp(top)[1]


def _entry(m, nk, r, c):
    """Entry (r, c) of each trailing 3x3 block, divided by 2**k = 2**-nk."""
    return m[..., r, c] if nk is None else np.ldexp(m[..., r, c], nk)


def _cofactor3(m, nk, i, j):
    """Cofactor C_ij of each trailing 3x3 block, its entries divided by
    2**k = 2**-nk; the cyclic index form carries the sign (-1)**(i + j)."""
    def e(r, c):
        return _entry(m, nk, (i + r) % 3, (j + c) % 3)
    return e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1)


def _det3(m, nk, row0=None):
    """Determinant of each trailing 3x3 block, its entries divided by
    2**k = 2**-nk, expanded along the first row with its cofactors `row0`
    (computed here if not given)."""
    if row0 is None:
        row0 = [_cofactor3(m, nk, 0, j) for j in range(3)]
    c0, c1, c2 = row0
    return (_entry(m, nk, 0, 0) * c0 + _entry(m, nk, 0, 1) * c1
            + _entry(m, nk, 0, 2) * c2)


def det(m) -> np.ndarray:
    """Determinants of the trailing square blocks of `m`."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (3, 3):
        return np.linalg.det(m)
    nk = _neg_exponents3(m)
    return np.ldexp(_det3(m, nk), -3 * nk)


def inverse(m) -> np.ndarray:
    """Inverses of the trailing square blocks of `m`.  Raises SingularMatrix
    (a LinAlgError) where a block is singular or its inverse is not
    representable; never returns inf or NaN."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (3, 3):
        # a 4x4 closed form measured only 1.5-2x faster at 5^4-9^4 nodes, and
        # moved the narrow-box pp-wave nabla_riemann by 3.25e-13, nearly its
        # whole 1-ulp floor of 3.3e-13
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            raise SingularMatrix("Singular matrix") from None
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            nk = _neg_exponents3(m)
            adj = np.empty(m.shape)
            for i in range(3):
                for j in range(3):
                    adj[..., j, i] = _cofactor3(m, nk, i, j)
            adj /= _det3(m, nk, (adj[..., 0, 0], adj[..., 1, 0], adj[..., 2, 0]))[..., None, None]
            inv = np.ldexp(adj, nk[..., None, None], out=adj)
    if not np.isfinite(inv).all():
        raise SingularMatrix("Singular matrix")
    return inv
