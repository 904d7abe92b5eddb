"""Finite-difference exterior calculus on box grids and the universal-cover
construction of parallel Cauchy pairs.

Fields are sampled on 3-axis grids over a box in R^3 with the coordinate
order (x, y, z).  The grid type, the stencils, the residual collar
`grid.COLLAR`, the coframe degeneracy test at `grid.DEGENERACY_TOL` and the
slab driver `grid.slab_max`, which runs the constraint residual in x-slabs,
are those of `cauchypairs.grid`, shared with the 4D modules.  The universal
cover takes its x-derivatives from the same stencil (`grid.derivative`) and
factors h_x once: `spd_sqrt` gives the transverse rows B, one inverse gives
B^-1, whose columns are the frame vectors, and the mixed defect and Theta both
read it.  Its checks have one tolerance each, `MIXED_TOL`, `YZ_TOL` and
`DERIV_TOL`.
"""

from __future__ import annotations

import numpy as np

from . import grid as fd
from .errors import (
    GridInvalid,
    MixedConditionViolated,
    WDerivativeVanishes,
    YZDependence,
)


class FieldGrid(fd.Grid):
    """A scalar/covector/tensor field sampled on a uniform box grid in R^3.

    `box` is ((x0, x1), (y0, y1), (z0, z1)); `values` has shape
    (nx, ny, nz, *component_shape) with at least 5 samples per axis.
    """

    ndim = 3


def interior_max(grid: FieldGrid, values) -> float:
    """Max |values| over the grid less the `grid.COLLAR`."""
    return fd.interior_max(values, grid.ndim)


def fd_exterior_derivative(grid: FieldGrid) -> FieldGrid:
    """Exterior derivative of a covector grid: (d omega)_ij = d_i omega_j - d_j omega_i."""
    if grid.component_shape != (3,):
        raise GridInvalid("fd_exterior_derivative expects a covector grid")
    partial = fd.plane_partials(grid, fd.to_planes(grid.values, grid.ndim))
    return grid.like(fd.from_planes(partial - np.swapaxes(partial, 0, 1), grid.ndim))


def christoffel3_fd(grid: FieldGrid, h: np.ndarray, hinv: np.ndarray, own=None) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij of a 3-metric by central differences.
    `h` and the result are component planes, (i, j, x, y, z) and
    (k, i, j, x, y, z); the result covers the box `own`, one slice per grid
    axis (every node by default), and `hinv` holds the planes of h^-1 on
    that box."""
    return fd.plane_christoffel(grid, h, hinv, own=own)


def covariant_derivative_covector(grid: FieldGrid, h: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """(nabla omega)_ij = d_i omega_j - Gamma^k_ij omega_k of a covector, with
    `h`, `omega` and the result as component planes."""
    return fd.plane_covariant_derivative(christoffel3_fd(grid, h, fd.plane_inverse(h)),
                                         fd.plane_partials(grid, omega), omega)


def constraint_residual_fd(coframe: FieldGrid, theta: FieldGrid) -> dict:
    """Residual report of the first-order Cauchy system on a box.

    `coframe` holds the rows (e_u, e_l, e_n) in coordinate components,
    shape (..., 3, 3); `theta` holds symmetric frame components, shape
    (..., 3, 3).  Reports max-norms of d e_a - Theta(e_a) ^ e_u for each a,
    of d(Theta(e_u)) (closedness proxy for the cohomological condition), and
    of the covariant forms nabla e_u + Theta - Theta(e_u) (x) e_u and
    nabla e_l - Theta(e_l) (x) e_u computed with finite-difference
    Christoffel symbols of the frame metric.

    Every node must pass `grid.require_regular` (Hadamard's bound).

    Every term takes first derivatives only, so the report is evaluated one
    x-slab at a time (`grid.slab_max`) with a one-plane halo, bit for bit
    the whole-grid report.  Each term is built only on the nodes its norm
    reads, the grid less the `grid.COLLAR`, and on the one-node shell that
    their central differences read, so no node on an outer face reaches the
    report.  Every node still passes the degeneracy test and the
    `SingularMatrix` test of the inverse of h = e^T e, which each slab takes
    once, on its own planes, for both Christoffel sets.
    """
    if coframe.component_shape != (3, 3) or theta.component_shape != (3, 3):
        raise GridInvalid("coframe and theta grids must have 3x3 payloads")
    if theta.shape != coframe.shape:
        raise GridInvalid(f"theta grid {theta.shape} does not match coframe grid {coframe.shape}")
    if theta.box != coframe.box:
        raise GridInvalid(f"theta box {theta.box} does not match coframe box {coframe.box}")

    fd.require_regular(coframe.values)
    return fd.slab_max(coframe.shape, 1, lambda window, box, own: _slab_residuals(
        coframe, coframe.values[window], theta.values[window], box, own))


def _slab_residuals(coframe: FieldGrid, rows, th, box, own) -> dict:
    """The report of `constraint_residual_fd` over the nodes `box` (one slice
    per axis of the x-window) of one slab, from the window's coframe `rows`
    and Theta values `th`; `coframe` is the whole grid, whose spacing the
    window shares, and `own` the slab's own planes of the window.  h is
    inverted once, on the own planes (`grid.slab_inverse`), and both
    Christoffel sets take it cut to the box.

    Each Christoffel set is built on the whole box while only e, h and h^-1
    are alive.  After it, the terms are formed and max-reduced one chunk of
    the box at a time (`grid._chunks`): after the first set those of e_u and
    e_n and the closedness of Theta(e_u), after the second those of e_l.
    Every term lives on its chunk; only e, h and Theta(e_u), whose partials
    are taken, reach into the one-node shell around it (`grid.grow`).  A row
    Theta(e_a) is formed where it is used.  Every norm is a max, so the
    report does not depend on the chunks."""
    norm = fd.max_abs
    e = fd.to_planes(rows, 3)  # e[a, j] = (e_a)_j on the window
    with np.errstate(over="ignore", invalid="ignore"):
        h = fd.coframe_metric(e)
    # raises SingularMatrix wherever an inverse on the own planes is not representable
    hinv = fd.slab_inverse(h, own, box)
    window = e.shape[2:]
    chunks = list(fd._chunks(box, window))
    norms = {}

    def reduce(key, value):
        norms.setdefault(key, []).append(value)

    def theta_of(lo, hi, nodes):
        # the rows Theta(e_a) = sum_b theta_ab e_b, lo <= a < hi, in
        # coordinate components on the box `nodes`
        return fd.plane_matmul(fd.to_planes(th[nodes][..., lo:hi, :], 3), e[(Ellipsis,) + nodes])

    gamma = christoffel3_fd(coframe, h, hinv, box)
    for at, part in chunks:
        e_at = e[(Ellipsis,) + at]
        eu = e_at[0]
        de = fd.plane_partials(coframe, e[::2], own=at)  # d_i (e_a)_j, a = u, n
        nabla = fd.plane_covariant_derivative(gamma[(Ellipsis,) + part], de[:, 0], eu)
        theta_e = theta_of(0, 3, at)
        nabla += fd.plane_matmul(np.swapaxes(e_at, 0, 1), theta_e)  # theta_ab (e_a)_i (e_b)_j
        nabla -= theta_e[0][:, None] * eu[None, :]
        reduce("covariant_u", norm(nabla))
        reduce("exterior_u", fd.exterior_system(de[:, 0], norm, (theta_e[0], eu)))
        reduce("exterior_n", fd.exterior_system(de[:, 1], norm, (theta_e[2], eu)))
        del nabla, de, theta_e
        # Theta(e_u) feeds a derivative, so it spans the chunk and its shell
        shell, inner = fd.grow(at, window)
        reduce("closed", fd.exterior_system(
            fd.plane_partials(coframe, theta_of(0, 1, shell)[0], own=inner), norm))
    del gamma

    gamma = christoffel3_fd(coframe, h, hinv, box)
    del h, hinv
    for at, part in chunks:
        eu, el = e[(Ellipsis,) + at][:2]
        de = fd.plane_partials(coframe, e[1], own=at)
        nabla = fd.plane_covariant_derivative(gamma[(Ellipsis,) + part], de, el)
        theta_el = theta_of(1, 2, at)[0]
        nabla -= theta_el[:, None] * eu[None, :]
        reduce("covariant_l", norm(nabla))
        reduce("exterior_l", fd.exterior_system(de, norm, (theta_el, eu)))
    # NaN propagates through np.max, so a NaN on any chunk reaches the report
    worst = {key: float(np.max(values)) for key, values in norms.items()}
    report = fd.exterior_report([worst["exterior_" + row] for row in "uln"], worst["closed"])
    report["covariant_u"] = worst["covariant_u"]
    report["covariant_l"] = worst["covariant_l"]
    report["max"] = float(np.max(list(report.values())))
    return report


# ---------------------------------------------------------------------------
# universal cover construction
# ---------------------------------------------------------------------------


def spd_sqrt(m) -> np.ndarray:
    """The symmetric positive definite square root of each trailing SPD
    block of `m`, v diag(sqrt(w)) v^T from its eigendecomposition; raises
    GridInvalid where a block is not positive definite."""
    w, v = np.linalg.eigh(m)
    if np.any(w <= 0):
        raise GridInvalid("hx must be positive definite at every x sample")
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


# The mixed symmetry defect allowed, relative to max(1, |transverse rows|),
# unless the O(h^2) floor of its finite differences is larger
MIXED_TOL = 1e-8


class UniversalCoverData:
    """Ingredients of the metric e^{2u} dx (x) dx + h_x on R^3.

    `u_grid` is a scalar FieldGrid for the conformal exponent; `hx` maps the
    x-axis samples to 2x2 SPD matrices acting on (dy, dz) (constant in y, z);
    `F` is the free scalar function of x entering the shape operator.  The
    transverse coframe rows are the symmetric SPD square root of h_x,
    corrected by an x-dependent rotation so that the mixed symmetry condition
    (d_x e_l)(e_n#) = (d_x e_n)(e_l#) holds.
    """

    def __init__(self, u_grid: FieldGrid, hx, F):
        if u_grid.component_shape != ():
            raise GridInvalid("u_grid must be a scalar grid")
        self.u_grid = u_grid
        x = u_grid.axis(0)
        hx_samples = np.array([np.asarray(hx(xi), dtype=float) for xi in x])
        if hx_samples.shape[1:] != (2, 2):
            raise GridInvalid("hx must produce 2x2 matrices")
        bad = np.argwhere(~np.isfinite(hx_samples))
        if bad.size:
            i, a, b = map(int, bad[0])
            raise GridInvalid(f"hx must be finite: {hx_samples[i, a, b]} at x node {i}, "
                              f"component ({a}, {b})")
        if not fd.is_symmetric(hx_samples):
            raise GridInvalid("hx must be symmetric")
        root = spd_sqrt(hx_samples)
        self.hx_samples = hx_samples
        self.F_samples = np.array([float(F(xi)) for xi in x])
        self.transverse, self._transverse_inverse = self._factorize(x, root)

    def _factorize(self, x, root):
        """Rows B = (e_l, e_n) of a square-root factorization satisfying the
        mixed condition, and B^-1: the symmetric SPD `root`, then a rotation
        repair."""
        defect, binv = self._mixed_defect(root)
        scale = max(1.0, float(np.abs(root).max()))
        # the defect is measured with second-order finite differences, so it
        # cannot be resolved below an O(h^2) floor on any smooth family
        h = self.u_grid.spacing[0]
        floor = 4.0 * h * h * max(1.0, float(np.abs(defect).max()))
        threshold = max(MIXED_TOL * scale, floor)
        if np.abs(defect).max() > threshold:
            # for rows B = R(phi) S, B' B^-1 = phi' J + R (S' S^-1) R^T, and the
            # antisymmetric part of a 2x2 matrix is invariant under rotation,
            # so the defect of R(phi) S is that of S less 2 phi', which this
            # phi cancels
            phi = 0.5 * fd.cumulative_trapezoid(defect, x)
            c, s = np.cos(phi), np.sin(phi)
            root = np.array([[c, -s], [s, c]]).transpose(2, 0, 1) @ root
            defect, binv = self._mixed_defect(root)
            if np.abs(defect).max() > threshold:
                i = int(np.argmax(np.abs(defect)))
                raise MixedConditionViolated(
                    "mixed symmetry condition fails after rotation repair",
                    max_residual=float(np.abs(defect).max()),
                    location=float(x[i]),
                )
        self.mixed_residual = float(np.abs(defect).max())
        return root, binv

    def _mixed_defect(self, rows):
        """(d_x e_l)(e_n#) - (d_x e_n)(e_l#) along the x axis of the rows B,
        and B^-1.  With h_x = B^T B, e_a# is column a of B^-1, so the defect
        is the antisymmetric part of B' B^-1, its (l, n) entry less (n, l)."""
        binv = np.linalg.inv(rows)
        m = fd.derivative(rows, self.u_grid.spacing[0]) @ binv
        return m[:, 0, 1] - m[:, 1, 0], binv

    def coframe_grid(self) -> FieldGrid:
        """Coordinate components of (e_u, e_l, e_n) on the full grid."""
        e = np.zeros(self.u_grid.shape + (3, 3))
        e[..., 0, 0] = np.exp(self.u_grid.values)
        e[..., 1:, 1:] = self.transverse[:, None, None]
        return self.u_grid.like(e)


def build_universal_theta(data: UniversalCoverData) -> FieldGrid:
    """Frame components of the parallel shape operator of a universal-cover metric.

    Theta = (F e^{-u} + d_x e^{-u}) e_u (x) e_u + e_u (x) du + du (x) e_u
            - (1/2) e^{-u} d_x h_x,
    written on the orthonormal frame (e_u#, e_l#, e_n#).
    """
    g = data.u_grid
    u = g.values
    eu_exp = np.exp(-u)

    du = [g.grad(u, i) for i in range(3)]

    # transverse frame vectors: the columns of B^-1, B the transverse rows
    binv = data._transverse_inverse  # (nx, 2, 2)
    dhx = fd.derivative(data.hx_samples, g.spacing[0])

    th = np.zeros(g.shape + (3, 3))
    th[..., 0, 0] = eu_exp * (data.F_samples[:, None, None] + du[0])

    # Theta(e_u, e_i) = du(e_i#) for the transverse frame directions
    for i in range(2):  # frame index l, n
        v = binv[:, :, i]  # (nx, 2) components on (partial_y, partial_z)
        val = du[1] * v[:, None, None, 0] + du[2] * v[:, None, None, 1]
        th[..., 0, 1 + i] = val
        th[..., 1 + i, 0] = val

    block = -0.5 * (np.swapaxes(binv, 1, 2) @ dhx @ binv)
    th[..., 1:, 1:] = eu_exp[..., None, None] * block[:, None, None, :, :]
    return g.like(th)


YZ_TOL = 1e-8  # the (y, z) spread of the u-term allowed, relative to max(1, its size)
DERIV_TOL = 1e-12  # |w'| at or below which w' vanishes


def warped_F_for_ricci_flat(w, u_grid: FieldGrid):
    """The x-function F making the warped universal-cover pair satisfy the
    Hamiltonian constraint, for h_x = e^{2 w(x)} (dy^2 + dz^2).

    F = -(w'' + (w')^2)/w'
        - e^{2(u - w)} (2 u_y^2 + 2 u_z^2 + u_yy + u_zz) / (2 w'),
    valid when w' never vanishes and the bracketed u-term depends on x only.
    Returns the sampled F(x) array.
    """
    h = u_grid.spacing[0]
    w_s = np.array([float(w(xi)) for xi in u_grid.axis(0)])
    dw = fd.derivative(w_s, h)
    ddw = fd.derivative(dw, h)
    if np.any(np.abs(dw) <= DERIV_TOL):
        raise WDerivativeVanishes("w'(x) vanishes at some sample")

    u = u_grid.values
    uy = u_grid.grad(u, 1)
    uz = u_grid.grad(u, 2)
    uyy = u_grid.grad(uy, 1)
    uzz = u_grid.grad(uz, 2)
    bracket = np.exp(2 * (u - w_s[:, None, None])) * (
        2 * uy**2 + 2 * uz**2 + uyy + uzz
    )
    spread = bracket.max(axis=(1, 2)) - bracket.min(axis=(1, 2))
    scale = max(1.0, float(np.abs(bracket).max()))
    if spread.max() > YZ_TOL * scale:
        raise YZDependence(
            f"u-dependent term varies over (y, z) by {spread.max():.3e}"
        )
    bx = bracket.mean(axis=(1, 2))
    return -(ddw + dw**2) / dw - bx / (2 * dw)
