"""Uniform N-axis box grids and the finite-difference kernels on them.

A grid's `values` are grid-major: the grid axes come first and the field
components after them, (*grid, *components).  Every FD kernel here works on
component planes instead: the component axes first and the grid axes last,
(*components, *grid), so that every component is one contiguous block and a
per-node contraction is a few whole-array multiply-adds.  A pipeline converts
its fields once at entry (`to_planes`); `from_planes` gives a grid-major view
back, and `to_planes` of that view is the original array, not a copy.  The
3x3 and 4x4 paths share the kernels (`plane_partials`, `plane_christoffel`,
`plane_covariant_derivative`).  `plane_christoffel` forms a box one chunk
of at most `BLOCK_NODES` nodes at a time (`_chunks`), each as one block in
a few calls with index arrays, so its temporaries are bounded by a chunk;
the set does not depend on the chunks, bit for bit.  Only the
inverse depends on the block size, and each size has one closed-form
route on planes, with no LAPACK call: 3x3 blocks (`plane_inverse`), and
4x4 blocks (`inverse4`) in one pass that also tests each block's
Lorentzian signature, so a 4D metric is validated and inverted at once.
The caller hands the inverse to `plane_christoffel`, so each pipeline
inverts, and so tests, its metric once.  The universal cover's one LAPACK `eigh`, `coordinate_fields.spd_sqrt`,
refuses a block that is not positive definite.  The dense 4x4 and 6x6
curvature algebra of the 4D layer stays grid-major with batched matmuls and
takes single partials on a box with `Grid.grad`.

Every derivative in the package, on either layout and of 1-D samples along
one grid axis alike, comes from one stencil, `_difference`: second-order
central differences, one-sided at the boundary.  `derivative` runs it along
the first axis of a whole array, for the universal-cover and flow-profile
samples.  Every residual norm skips the `COLLAR` nodes at each end of each
grid axis, and every coframe passes one degeneracy test, `require_regular`
at `DEGENERACY_TOL`; neither is a parameter.  `plane_partials` acts over a tuple of grid axes,
all by default; axes (1, 2, 3) of a (t, x, y, z) grid give the spatial
partials on every t-slice.

Both coframe residuals, the 3D constraint system and the 4D comoving flow,
run in slabs of grid axis 0 of about `SLAB_NODES` nodes, down to a single
plane (`slab_max`): each slab reads its own planes and a halo of planes on
either side, and its report is max-reduced into the grid's, bit for bit the
whole-grid one.  So their working set is bounded by a slab, not by the
grid.  The degeneracy test walks the same slabs.

Sampling and checking a grid cost only its payload.  `Grid.meshgrid` and
`Grid.from_function` hand out the node coordinates as read-only broadcast
views of the axes, never as dense copies, and sampling makes no copy: a
constant stays a broadcast view, a coordinate the view it is.  Every grid
refuses a spacing below `MIN_SPACING`, and tests its values for inf and NaN
in blocks of at most `FINITE_BLOCK` entries, with no full-size temporary;
a refusal names the first bad node and component.  Every grid then keeps a
read-only view of the values it validated, so they cannot be written
through it; the caller hands its array over and must not write it after
validation.  A 4D metric (`spacetime_verifier.Metric4Grid`) instead holds
g as its own read-only planes, converted once at validation.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .errors import DegenerateCoframe, GridInvalid, GridTooSmall, SingularMatrix

# Nodes skipped at each end of each grid axis by every residual norm: no
# first or second difference quotient in a report then reads the one-sided
# end stencil (a third one, as in the covariant derivative of Riemann, does).
COLLAR = 2
DEGENERACY_TOL = 1e-12  # |det| of coframe rows over Hadamard's bound: singular at or below
# Entries of `values` per block of the finiteness test of `Grid` (one plane of
# grid axis 0 if that is larger): its boolean temporary takes as many bytes.
FINITE_BLOCK = 1 << 16
# The finest node spacing h of any grid: below it h**-3 overflows, the scale
# of a third difference quotient, the deepest that a check takes (that of
# the covariant derivative of Riemann).
MIN_SPACING = np.finfo(float).max ** (-1 / 3)


class Grid:
    """A field sampled on a uniform box grid with `ndim` (fixed by each
    subclass) leading grid axes.  `box` holds one (lo, hi) interval per grid
    axis; `values` has shape (*grid_shape, *component_shape), with at least 5
    samples per grid axis.  The grid keeps a read-only view of the values it
    validated, so nothing written through it escapes its checks, and not a
    copy, which would hold the payload twice: the caller hands its array over
    and must not write it after validation."""

    ndim = 0

    def __init__(self, box, values):
        k = self.ndim
        box = _box(box, k)
        values = np.asarray(values, dtype=float).view()
        if values.ndim < k:
            raise GridInvalid(f"values must carry {k} leading grid axes")
        _require_samples(values.shape[:k])
        _require_finite(values, k)
        values.flags.writeable = False
        self.box = box
        self.values = values
        self.spacing = _spacing(box, self.shape)

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
        """The coordinates of every node, one read-only array per grid axis
        (`_mesh`)."""
        return _mesh([self.axis(i) for i in range(self.ndim)])

    @classmethod
    def from_function(cls, box, n, func):
        """Sample func(*coordinates) (broadcasting over arrays) with n samples
        per axis: one count for every axis or one per axis.  The coordinates
        are read-only views (`_mesh`), so sampling allocates only what func
        returns: a scalar, or a result whose leading grid axes each hold the
        count or 1, becomes a broadcast view, any other result is refused,
        and a coordinate itself stays the view it is.  func runs with numpy's
        floating-point warnings off, as the finiteness test of `Grid` refuses
        a non-finite sample by name.  Any other count, and a box or spacing
        that `Grid` would refuse, is refused before func is called."""
        k = cls.ndim
        box = _box(box, k)
        try:
            counts = tuple(map(operator.index, n) if np.iterable(n) else (operator.index(n),) * k)
        except TypeError:
            raise GridInvalid(f"sample counts must be integers, got {n!r}") from None
        if len(counts) != k:
            raise GridInvalid(f"need {k} sample counts, got {len(counts)}")
        _require_samples(counts)
        _spacing(box, counts)
        axes = [np.linspace(a, b, c) for (a, b), c in zip(box, counts)]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = np.asarray(func(*_mesh(axes)), dtype=float)
        lead = vals.shape[:k]
        # a payload of its own (a constant block) would broadcast into the
        # trailing grid axes: only a scalar may be short of the grid axes
        if vals.ndim and (len(lead) < k or any(s not in (c, 1) for s, c in zip(lead, counts))):
            raise GridInvalid(f"result {vals.shape} not broadcastable to {counts}: a result "
                              f"is a scalar or leads with {k} axes of the count or 1")
        if lead != counts:
            vals = np.broadcast_to(vals, counts + vals.shape[k:])
        return cls(box, vals)

    def like(self, values):
        """A grid of the same type on the same nodes (box, shape and spacing)
        carrying `values`."""
        new = type(self)(self.box, values)
        if new.shape != self.shape:
            raise GridInvalid(f"values on grid {new.shape} do not fit grid {self.shape}")
        return new

    def grad(self, values, axis, own=None):
        """d/dx_axis of grid-major `values`, whose leading axes are this grid's
        (or a box of them), on the box `own` as in `plane_partials`, every
        node by default: it reads the box and its neighbours along `axis`."""
        own = (slice(None),) * self.ndim if own is None else tuple(own)
        lo, hi, _ = own[axis].indices(values.shape[axis])
        out = np.empty(values[own].shape)
        line = values[own[:axis] + (slice(None),) + own[axis + 1:]]
        _difference(line, self.spacing[axis], axis, out, lo, hi)
        return out


def _box(box, k):
    """`box` as k finite, nondegenerate (lo, hi) pairs of floats."""
    try:
        box = tuple((float(a), float(b)) for a, b in box)
    except (TypeError, ValueError) as exc:
        raise GridInvalid(f"box must be a sequence of (lo, hi) pairs: {exc}") from None
    if len(box) != k:
        raise GridInvalid(f"box must have {k} axis intervals, got {len(box)}")
    if not all(-math.inf < a < b < math.inf for a, b in box):
        raise GridInvalid("box intervals must be finite and nondegenerate")
    return box


def _require_samples(shape):
    if any(n < 5 for n in shape):
        raise GridTooSmall(f"need >= 5 samples per axis, got {shape}")


def _spacing(box, counts):
    """The node spacing along each axis of `box` with `counts` samples;
    GridInvalid where one is below `MIN_SPACING`."""
    spacing = tuple((b - a) / (n - 1) for (a, b), n in zip(box, counts))
    for i, h in enumerate(spacing):
        if h < MIN_SPACING:
            raise GridInvalid(f"spacing {h} along axis {i} is below {MIN_SPACING}, "
                              "where a third difference quotient overflows")
    return spacing


def _mesh(axes):
    """The coordinates of every node of the grid on `axes`, one array per
    axis: read-only broadcast views of the axes, which cost no memory of
    their own (numpy still lets a write into such a view through, with only
    a warning, and the write then changes every node on the line)."""
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)
    for x in mesh:
        x.flags.writeable = False
    return mesh


def _require_finite(values, k):
    """Raise GridInvalid, naming the first node and component in index order,
    where `values` (k leading grid axes) holds an inf or NaN.  The test runs
    on blocks of planes of grid axis 0, at most `FINITE_BLOCK` entries (or
    one plane) each, so its temporary is bounded whatever the grid's size."""
    rows = max(1, FINITE_BLOCK // max(1, values[0].size))
    for a in range(0, len(values), rows):
        finite = np.isfinite(values[a:a + rows])
        if not finite.all():
            first = np.argwhere(~finite)[0]
            first[0] += a
            node, comp = tuple(map(int, first[:k])), tuple(map(int, first[k:]))
            where = f"node {node}" + (f", component {comp}" if comp else "")
            raise GridInvalid(f"field values must be finite: {values[tuple(first)]} at {where}")


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
    out = np.empty((len(axes),) + planes[(Ellipsis,) + own].shape)
    for slot, i in enumerate(axes):
        lo, hi, _ = own[i].indices(planes.shape[i - k])
        line = planes[(Ellipsis,) + own[:i] + (slice(None),) + own[i + 1:]]
        _difference(line, grid.spacing[i], i - k, out[slot], lo, hi)
    return out


def derivative(f, h) -> np.ndarray:
    """d f / dx along the first axis of f, x spaced by h: `_difference` into a new array."""
    out = np.empty(np.shape(f))
    _difference(np.asarray(f, dtype=float), h, 0, out)
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


def plane_matmul(a, b) -> np.ndarray:
    """c_ij = sum_k a_ik b_kj of (m, n) and (n, p) component planes, summed in
    k order."""
    m, n, p = a.shape[0], a.shape[1], b.shape[1]
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


# the components ij, i < j, that fix a 2-form
_UPPER = ((0, 1), (0, 2), (1, 2))


def coframe_metric(e) -> np.ndarray:
    """h_ij = sum_a (e_a)_i (e_a)_j of coframe planes (frame, component, *grid),
    summed in the order of a.  Each entry j >= i is formed once and mirrored
    to h_ji, which the same sum of the same products gives bit for bit."""
    n = e.shape[1]
    h = np.empty((n, n) + e.shape[2:])
    for i in range(n):
        # the row h_ij over every j >= i at once
        np.multiply(e[0, i], e[0, i:], out=h[i, i:])
        for a in range(1, len(e)):
            h[i, i:] += e[a, i] * e[a, i:]
        h[i + 1:, i] = h[i, i + 1:]
    return h


# The most nodes of a chunk: `plane_christoffel` forms a larger box, and the
# 3D constraint residual reduces the terms of a larger slab, one chunk at a
# time (`_chunks`), so their temporaries are bounded by a chunk, not by the
# box.  A box of at most this many nodes is one chunk, formed in ~35 numpy
# calls per 4x4 set where a loop over the pairs (i, j) made ~170
# (`BENCH_30.json`): among them 13^3, the box of the n = 17 residual, and
# every 4D interior up to 7^4.
BLOCK_NODES = 2500


def _chunks(box, shape):
    """The sub-boxes of `box` (one slice per grid axis of a grid of `shape`)
    that cover it once, in index order, each of at most `BLOCK_NODES` nodes,
    as pairs (chunk in grid indices, chunk in the box's indices).  The box is
    cut along its leading axes: into single indices along every axis before
    the first whose trailing axes hold at most `BLOCK_NODES` nodes, and into
    runs along that one; a box of at most `BLOCK_NODES` nodes is one chunk."""
    lo = [s.indices(n)[0] for s, n in zip(box, shape)]
    size = [len(range(*s.indices(n))) for s, n in zip(box, shape)]
    k = 0
    while math.prod(size[k + 1:]) > BLOCK_NODES:
        k += 1
    step = BLOCK_NODES // max(1, math.prod(size[k + 1:]))
    tail = tuple(slice(0, m) for m in size[k + 1:])
    for lead in itertools.product(*map(range, size[:k])):
        for a in range(0, size[k], step):
            part = (*(slice(i, i + 1) for i in lead), slice(a, min(a + step, size[k])), *tail)
            yield tuple(slice(b + p.start, b + p.stop) for b, p in zip(lo, part)), part


@functools.cache
def _christoffel_slots(n):
    """The components (j, l), j <= l, of a symmetric n x n field in the
    order `plane_christoffel` differentiates them, and slot[j, l] ==
    slot[l, j], the place of each in that order."""
    upper = [(j, l) for j in range(n) for l in range(j, n)]
    slot = {}
    for s, (j, l) in enumerate(upper):
        slot[j, l] = slot[l, j] = s
    return upper, slot


@functools.cache
def _christoffel_gathers(n):
    """The index arrays of the block route: rows [l, s] of d_i g_jl (flat in
    (i, jl)) that give d_i g_jl, d_j g_il and d_l g_ij for the pair (i, j)
    in slot s."""
    upper, slot = _christoffel_slots(n)
    m = len(upper)
    first = np.array([[i * m + slot[j, l] for i, j in upper] for l in range(n)])
    second = np.array([[j * m + slot[i, l] for i, j in upper] for l in range(n)])
    third = np.array([[l * m + slot[i, j] for i, j in upper] for l in range(n)])
    for index in (first, second, third):
        index.flags.writeable = False  # shared by every call
    return first, second, third


def plane_christoffel(grid: Grid, metric, inverse, own=None) -> np.ndarray:
    """Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij) of a symmetric
    n x n metric given as component planes, returned as planes (k, i, j, *grid)
    on the box `own` (as in `plane_partials`).  `inverse` holds the planes of
    g^kl on that box: the caller inverts, and so tests, the metric.  Only the
    components g_jl, j <= l, are read and differentiated, and each symbol is
    formed once for i <= j, so Gamma^k_ij == Gamma^k_ji exactly.  The box is
    formed one chunk of at most `BLOCK_NODES` nodes at a time (`_chunks`),
    each as one block (`_block_christoffel`) from the partials of the
    metric on the shell it reads (`grow`); every entry takes the same
    operations in the same order whatever the chunks, so the set does not
    depend on them, bit for bit."""
    n = len(metric)
    upper = tuple(zip(*_christoffel_slots(n)[0]))
    window = metric.shape[2:]
    own = (slice(None),) * len(window) if own is None else tuple(own)
    gam = np.empty((n, n, n) + tuple(len(range(*s.indices(m))) for s, m in zip(own, window)))
    for at, part in _chunks(own, window):
        shell, inner = grow(at, window)
        dg = plane_partials(grid, metric[upper + shell], own=inner)  # d_i g_jl
        _block_christoffel(dg, inverse[(Ellipsis,) + part], gam[(Ellipsis,) + part])
    return gam


def _block_christoffel(dg, inverse, out) -> None:
    """`plane_christoffel`'s block route from the partials dg[i, s] =
    d_i g_jl, (j, l) in slot s, written to the planes `out`: the
    symmetrised partials of every pair i <= j and every l are gathered at
    once, raised with g^kl in l order over every k at once, and copied to
    (k, i, j) and (k, j, i) one row i at a time.  `take` runs with
    mode="clip" (every index is in range), as the default mode buffers its
    `out`."""
    n = len(inverse)
    first, second, third = _christoffel_gathers(n)
    nodes = dg.shape[2:]
    flat = dg.reshape((-1,) + nodes)
    sym = np.take(flat, first, axis=0, mode="clip")  # sym[l, s]
    tmp = np.take(flat, second, axis=0, mode="clip")
    sym += tmp
    sym -= np.take(flat, third, axis=0, out=tmp, mode="clip")
    sym *= 0.5  # exact, so g (s/2) rounds as (g s)/2 short of underflow
    # raised[k, s] = Gamma^k of the pair in slot s, over every k at once
    raised = np.multiply(inverse[:, 0, None], sym[0])
    for l in range(1, n):
        raised += np.multiply(inverse[:, l, None], sym[l], out=tmp)
    s = 0
    for i in range(n):
        # the slots of the pairs (i, j), j >= i, are consecutive
        out[:, i, i:] = raised[:, s:s + n - i]
        out[:, i + 1:, i] = raised[:, s + 1:s + n - i]
        s += n - i


def plane_covariant_derivative(gamma, partial, omega) -> np.ndarray:
    """(nabla omega)_ij = d_i omega_j - Gamma^k_ij omega_k of covector planes,
    from the partials partial[i, j] = d_i omega_j and the planes of Gamma."""
    acc = gamma[0] * omega[0]
    for k in range(1, len(omega)):
        acc += gamma[k] * omega[k]
    return np.subtract(partial, acc, out=acc)


def exterior_system(partial, norm, wedge_of=None) -> float:
    """The residual of one row a of the exterior system d e_a = Theta(e_a) ^
    e_u, reduced by `norm`, from the partials partial[i, j] = d_i (e_a)_j
    and `wedge_of` = (Theta(e_a), e_u); with no `wedge_of`, that of d omega
    = 0 from the partials of omega, the closedness of Theta(e_u).  All
    arguments are component planes.  The residual is built over its planes
    ij, i < j (in `_UPPER` order) only: the others are their exact
    negatives or 0.  Both coframe residuals call it as soon as a row's
    partials are built, so no two rows' partials need be alive at once."""
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
    return norm(out)


def exterior_report(rows, closed) -> dict:
    """The keys exterior_u, exterior_l, exterior_n, exterior_max and
    theta_eu_closed from the residuals of `exterior_system`: the rows
    (u, l, n) and the closedness of Theta(e_u)."""
    report = dict(zip(("exterior_u", "exterior_l", "exterior_n"), rows))
    report["exterior_max"] = float(np.max(rows))  # NaN propagates
    report["theta_eu_closed"] = closed
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


# Nodes per slab of grid axis 0 of `slab_max` and `require_regular`, not
# counting the collar planes folded into the end slabs.  The 3D constraint
# residual's traced working set is then ~12.6 MiB above its inputs at n = 33
# (one slab), ~14.4 MiB at n = 65 (seven-plane slabs) and ~17.2 MiB at
# n = 129 (one-plane slabs, where the peak is h's inverse on the 3-plane
# window).  At a Christoffel set the slab holds e and h (144 B per window
# node), h^-1 (72 B per box node), the set's 27 output planes (216 B per box
# node) and the temporaries of one chunk of at most `BLOCK_NODES` nodes,
# under 2 MiB whatever the box; every other term lives on one chunk between
# the sets.  The comoving residual's is ~300 B per node of a slab's window
# (own planes and a two-plane halo).
# 2**15 is the largest power of two that keeps 17^3 and 33^3 one slab each;
# 17^4 is three, of 8, 6 and 3 planes.
SLAB_NODES = 2**15


def _slabs(shape):
    """Plane ranges [a, b) covering grid axis 0 of a grid of `shape` once.
    The planes that the residual norms read, all but the `COLLAR` at each
    end, are cut into runs of about SLAB_NODES nodes at prod(shape[1:])
    nodes per plane, down to a single plane; the collar planes are folded
    into the first and the last slab, so that every slab holds a plane that
    the norms read."""
    n = shape[0]
    step = max(1, SLAB_NODES // math.prod(shape[1:]))
    cuts = list(range(COLLAR, n - COLLAR, step))[1:]
    return list(zip([0] + cuts, cuts + [n]))


def slab_max(shape, halo, residual) -> dict:
    """The report of a residual on a grid of `shape`, evaluated one slab of
    grid axis 0 (`_slabs`) at a time and max-reduced key by key, a NaN in
    any slab propagating.  `residual(window, box, own)` reports on one slab:
    `window` slices grid axis 0 to the slab's planes and `halo` planes on
    either side, clipped to the grid; `box`, one slice per grid axis in
    window indices, holds the nodes that its norms read, the slab's planes
    less the `COLLAR` (cut in grid indices) and the collar of every other
    axis, and is never empty, as the collar planes belong to the end slabs;
    `own` slices the window to the slab's planes.  A slab may be a single
    plane, read on a window of 2 halo + 1 planes.  A residual whose terms on
    `box` read at most `halo` planes beyond it along axis 0 (one per
    derivative along that axis) reports its whole-grid values exactly."""
    n = shape[0]
    parts = []
    for a, b in _slabs(shape):
        start = max(a - halo, 0)
        box = ((slice(max(a, COLLAR) - start, min(b, n - COLLAR) - start),)
               + (slice(COLLAR, -COLLAR),) * (len(shape) - 1))
        parts.append(residual(slice(start, min(b + halo, n)), box, slice(a - start, b - start)))
    # NaN propagates through np.max, so a NaN in any slab reaches the report
    return {key: float(np.max([p[key] for p in parts])) for key in parts[0]}


def slab_inverse(h, own, box) -> np.ndarray:
    """The planes of h^-1 on `box` (one slice per grid axis, as in
    `slab_max`) of a window of 3x3 metric planes h, as one contiguous array.
    h is inverted on the slab's own planes `own` and the planes of `box`
    together, so that the slabs test the inverse (`plane_inverse`) on every
    node of the grid, and a box may reach into the halo."""
    lo, hi = min(own.start, box[0].start), max(own.stop, box[0].stop)
    inv = plane_inverse(h[:, :, lo:hi])
    return np.ascontiguousarray(inv[(Ellipsis, slice(box[0].start - lo, box[0].stop - lo))
                                    + tuple(box[1:])])


def require_regular(rows) -> None:
    """Raise DegenerateCoframe where the frame rows (*grid, 3 frames, 3
    components) are dependent: |det| <= DEGENERACY_TOL times the product of
    the row norms (Hadamard's bound), a test invariant under rows -> c rows.
    Each row is first divided, exactly, by the power of two of its largest
    |entry|, so the scale of the rows alone never makes either side over- or
    underflow.  The test runs one slab of grid axis 0 (`_slabs`) at a time,
    which bounds its temporaries."""
    bad = []
    for a, b in _slabs(rows.shape[:-2]):
        part = to_planes(rows[a:b], rows.ndim - 2)  # part[r, j] = (e_r)_j
        top = _max_abs_entry(part[:, j] for j in range(3))  # over each row
        part = np.ldexp(part, -np.frexp(top)[1][:, None], out=part)
        del top
        # the product of the row norms, one row at a time
        norms = functools.reduce(np.multiply, (np.sqrt(plane_dot(part[r], part[r]))
                                               for r in range(3)))
        # every row's largest |entry|, so every block's, is now in [0.5, 1):
        # the closed form needs no scaling of its own
        idx = np.argwhere(np.abs(_det3(part)) <= DEGENERACY_TOL * norms)
        idx[:, 0] += a
        bad.append(idx)
    bad = np.concatenate(bad)
    if bad.size:
        nodes = [tuple(map(int, b)) for b in bad[:10]]
        raise DegenerateCoframe(
            f"coframe singular at {len(bad)} nodes, first at index {nodes[0]}", nodes=nodes
        )


def is_symmetric(m) -> bool:
    """Whether every trailing square block of `m` is symmetric to 1e-8 of
    its own largest |entry|, a test invariant under m -> c m; a NaN, or an
    inf on the diagonal, fails."""
    n = m.shape[-1]
    tol = 1e-8 * _max_abs_entry(m[..., i, j] for i in range(n) for j in range(n))
    # only the pairs i < j: a diagonal entry fails |m_ii - m_ii| <= tol only
    # where it is inf or NaN
    return (all(np.isfinite(m[..., i, i]).all() for i in range(n))
            and all((np.abs(m[..., i, j] - m[..., j, i]) <= tol).all()
                    for i in range(n) for j in range(i + 1, n)))


def _max_abs_entry(entries) -> np.ndarray:
    """max |entry| over the arrays `entries`, elementwise, one array at a time
    (a NaN propagates).  numpy's max over two short trailing axes took 0.37 ms
    where this takes 0.09 ms at 7225 nodes of 3x3 blocks."""
    return functools.reduce(np.maximum, (np.abs(x) for x in entries))


def max_abs(values) -> float:
    """Max |values| over every entry; a NaN propagates."""
    return float(np.abs(values).max())


def interior_max(values, naxes: int) -> float:
    """Max |values| over `naxes` leading grid axes less the `COLLAR`."""
    return max_abs(np.asarray(values)[(slice(COLLAR, -COLLAR),) * naxes])


# The 3x3 and 4x4 blocks of component planes m[r, c] are inverted and reduced
# in closed form.  Each block is first divided by 2**k, the power of two of
# its largest |entry|, in one `ldexp` over its planes.  That is exact: the
# result is bit for bit that of the unscaled closed form wherever that form
# neither over- nor underflows, and no finite block makes it do so.  The
# scaled copy takes n^2 floats per node while an inverse is built.


def _neg_exponents(m):
    """-k per n x n block of planes m, 2**k <= max |entry| < 2**(k + 1)."""
    n = len(m)
    return -np.frexp(_max_abs_entry(m[i, j] for i in range(n) for j in range(n)))[1]


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
        nk = _neg_exponents(m)
        m = np.ldexp(m, nk)
        for i in range(3):
            for j in range(3):
                _cofactor3(m, i, j, out=adj[j, i, ...])
        adj /= _det3(m, (adj[0, 0], adj[1, 0], adj[2, 0]))
        np.ldexp(adj, nk, out=adj)


# the column pairs (p, q), p < q, of the 2x2 minors of a 4x4 block
_COLUMN_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _minors4(m, r, s):
    """The 2x2 minors of rows (r, s) of each 4x4 block of planes m, keyed by
    their column pair (p, q) of `_COLUMN_PAIRS`."""
    out = {}
    for p, q in _COLUMN_PAIRS:
        out[p, q] = minor = np.multiply(m[r, p], m[s, q])
        minor -= m[s, p] * m[r, q]
    return out


def _adjugate4(m, top, bottom, adj):
    """The adjugate of each 4x4 block of planes m, written to the planes
    `adj`, from the 2x2 minors `top` of rows (0, 1) and `bottom` of rows
    (2, 3).  The cofactor C_ij expands the 3x3 minor without row i and
    column j along the other row of i's half, against the minors of the
    other half; that row is the first or the last of the minor, so the
    expansion's sign is (-1)**pos of the column's place in it."""
    tmp = np.empty(adj.shape[2:])
    for i in range(4):
        minors, row = (bottom, 1 - i) if i < 2 else (top, 5 - i)
        for j in range(4):
            cols = [c for c in range(4) if c != j]
            out = adj[j, i, ...]
            for pos, c in enumerate(cols):
                term = np.multiply(m[row, c], minors[tuple(x for x in cols if x != c)],
                                   out=tmp if pos else out)
                if pos == 1:
                    out -= term
                elif pos == 2:
                    out += term
            if (i + j) % 2:
                np.negative(out, out=out)


def inverse4(m, on_signature) -> np.ndarray:
    """Inverses of the 4x4 blocks of component planes `m` (4, 4, *grid), as
    read-only planes, in one closed-form pass that also tests each block's
    signature.  Raises SingularMatrix (a LinAlgError)
    where a block is singular or its inverse is not representable; never
    returns inf or NaN.

    The pass scales a copy of `m` and forms the twelve 2x2
    minors of rows (0, 1) and (2, 3) once.  From them come det m, the
    adjugate, so m^-1, and the coefficients of the characteristic
    polynomial x^4 - e1 x^3 + e2 x^2 - e3 x + e4: e1 = tr m, e2 the sum of
    the principal 2-minors, e3 = tr adj m and e4 = det m.  Like the
    inverse, they read all 16 entries of a block, both triangles: they are
    the block's own, not those of one triangle's symmetric completion
    (LAPACK's symmetric eigensolver reads the lower).

    `on_signature` is called with the boolean planes (*grid) of the test
    lambda_0 < 0 < lambda_1 on each block's ascending eigenvalues before
    the inverse is tested, so that a caller can refuse a block for its
    signature (every singular block fails the test) before it is refused
    as singular.  The test is e4 < 0 and exactly three sign
    changes in (1, -e1, e2, -e3, e4), zeros skipped: by Descartes' rule of
    signs, exact for a real-rooted polynomial such as a symmetric block's,
    three positive eigenvalues, and by the sign of their product with the
    fourth, one negative."""
    inv = np.empty(m.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nk = _neg_exponents(m)
        a = np.ldexp(m, nk)
        top, bottom = _minors4(a, 0, 1), _minors4(a, 2, 3)
        _adjugate4(a, top, bottom, inv)
        # Laplace's expansion along rows (0, 1), of sign (-1)**(1 + p + q)
        det = np.zeros(a.shape[2:])
        for p, q in _COLUMN_PAIRS:
            term = top[p, q] * bottom[tuple(c for c in range(4) if c not in (p, q))]
            if (p + q) % 2 == 0:
                det -= term
            else:
                det += term
        e1 = a[0, 0] + a[1, 1] + a[2, 2] + a[3, 3]
        e2 = top[0, 1] + bottom[2, 3]
        for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
            e2 += a[i, i] * a[j, j] - a[i, j] * a[j, i]
        e3 = inv[0, 0] + inv[1, 1] + inv[2, 2] + inv[3, 3]
        # with e4 < 0 the sign changes are odd, 1 or 3: 1 where the nonzero
        # signs of (-e1, e2, -e3) run + before -, 3 where a - comes before a +
        on_signature((det < 0) & (((e1 > 0) & ((e2 > 0) | (e3 < 0)))
                                  | ((e2 < 0) & (e3 < 0))))
        del top, bottom, a
        inv /= det
        np.ldexp(inv, nk, out=inv)
    inv = _finite(inv)
    inv.flags.writeable = False
    return inv


def _finite(inv):
    if not np.isfinite(inv).all():
        raise SingularMatrix("Singular matrix")
    return inv


def plane_inverse(m) -> np.ndarray:
    """Inverses of the 3x3 blocks of component planes (3, 3, *grid), as
    planes, in closed form.  Raises SingularMatrix (a LinAlgError) where a
    block is singular or its inverse is not representable; never returns
    inf or NaN."""
    inv = np.empty(m.shape)
    _inverse3(m, inv)
    return _finite(inv)
