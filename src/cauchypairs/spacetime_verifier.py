"""Finite-difference certification of four-dimensional Lorentzian metrics.

All curvature here is computed from coordinate formulas (Christoffel symbols
of the metric components), independently of the frame algebra used elsewhere;
it serves as the oracle for every curvature claim.  Grids are uniform over
[t0, t1] x box with coordinate order (t, x, y, z) — or any relabeling, since
nothing below assumes which coordinate is time except the signature check
and the globally-hyperbolic decompositions.

A `Metric4Grid` is sampled by the inherited `Grid.from_function`, which
refuses a malformed count before it samples, and its values are read-only,
as every grid's are.  It tests its symmetry, then validates its signature
and inverts itself in one closed-form pass on component planes
(`grid.inverse4`), which returns g^-1 as read-only planes; `inverse`
returns their grid-major view, whose `to_planes` is those planes again.
Every Christoffel set, the pair algebra and kappa share that inverse: kappa
reads the g^-1 l that the pair algebra raised.
The FD kernels run on component planes, as the 3x3 ones do
(`grid.plane_christoffel`, `plane_covariant_derivative`,
`plane_partials`), and so do the null/unit/orthogonality algebra and kappa
of a parabolic pair; `christoffel_fd` and `covariant_derivative4` return
grid-major views of their planes.  Curvature has one route, the mixed
curvature R^k_n(p, s) on the index pairs of `PAIRS`, built with batched
4x4 matmuls on grid-major blocks: `riemann4_fd` lowers it to an operator
on bivectors (symmetric, for the exact tensor), the 6x6 block on those
pairs; `ricci4_fd` is its trace.

Each kernel (`christoffel_fd`, `ricci4_fd`, `riemann4_fd`,
`covariant_derivative4`) takes a box `own`, one slice per grid axis, as
`grid.plane_partials` does, and returns its whole-grid result cut to that
box, bit for bit; by default the box is every node.  It copies and
differentiates only the shell of the box that its partials read
(`grid.grow`), and g^-1 on the box.  `parallel_pair_residual` builds its
Christoffel set and covariant derivatives on `INTERIOR`, the nodes its
norms read.  The metric's symmetry test, its one pass of signature test
and inverse, the pair algebra and kappa stay on every node.
"""

from __future__ import annotations

import numpy as np

from . import grid as fd
from .errors import (
    GridInvalid,
    NotInGHForm,
    PairAlgebraViolated,
    SignatureViolation,
)

SPATIAL_AXES = (1, 2, 3)


class Grid4(fd.Grid):
    """A field sampled on a uniform 4D box grid; payload in trailing axes."""

    ndim = 4


# The nodes that every 4D norm reads: the grid less the `grid.COLLAR`, as a
# box (one slice per grid axis) that the kernels below take as `own`.
INTERIOR = (slice(fd.COLLAR, -fd.COLLAR),) * 4


def interior_max4(values) -> float:
    """Max |values| over a 4D grid less the `grid.COLLAR`."""
    return fd.interior_max(values, 4)


def _shell(g: Grid4, own):
    """The box `own` (every node if None) of g's grid, the shell around it
    that partials on it read (`grid.grow`), and `own` in shell indices."""
    own = (slice(None),) * g.ndim if own is None else tuple(own)
    return (own,) + fd.grow(own, g.shape)


class Metric4Grid(Grid4):
    """Per-node symmetric 4x4 metric with mostly-plus Lorentzian signature."""

    def __init__(self, box, values):
        super().__init__(box, values)
        if self.values.shape[4:] != (4, 4):
            raise GridInvalid("metric payload must be 4x4")
        if not fd.is_symmetric(self.values):
            raise GridInvalid("metric must be symmetric at every node")
        # one closed-form pass tests the signature and inverts every block
        self._inverse = fd.from_planes(fd.inverse4(self.values, self._require_lorentzian),
                                       self.ndim)

    @staticmethod
    def _require_lorentzian(lorentzian):
        """Raise SignatureViolation unless every node's ascending eigenvalues
        have lambda_0 < 0 < lambda_1 (the boolean planes `lorentzian`)."""
        bad = np.argwhere(~lorentzian)
        if bad.size:
            raise SignatureViolation(
                f"signature is not (-,+,+,+) at {len(bad)} nodes, "
                f"first at index {tuple(map(int, bad[0]))}"
            )

    def inverse(self) -> np.ndarray:
        """g^-1 at every node: the read-only, grid-major view of the planes
        that validation built; every call returns that same array."""
        return self._inverse


def christoffel_fd(g: Metric4Grid, own=None) -> np.ndarray:
    """Gamma^mu_{nu rho} = (1/2) g^{mu s}(d_nu g_{rho s} + d_rho g_{nu s} - d_s g_{nu rho})
    on the box `own`, one slice per grid axis (every node by default), the
    grid-major view of `grid.plane_christoffel`'s planes.  Only g on the
    box's shell and g^-1 on the box are copied."""
    k = g.ndim
    own, shell, inner = _shell(g, own)
    planes = fd.plane_christoffel(g, fd.to_planes(g.values[shell], k),
                                  fd.to_planes(g.inverse()[own], k), inner)
    return fd.from_planes(planes, k)


# the bivector index pairs A = (m, n), m < n, in the order of the 6x6 blocks
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _pair_curvature(g: Metric4Grid, own) -> np.ndarray:
    """R^k_n(p, s) = d_p Gamma_s - d_s Gamma_p + [Gamma_p, Gamma_s], with
    (Gamma_p)^k_n = Gamma^k_pn, as curv[..., B, k, n] on the pairs B = (p, s)
    of `PAIRS`, on the box `own`: the one curvature route of `riemann4_fd`
    and `ricci4_fd`.  Gamma is built on the box's shell."""
    _, shell, inner = _shell(g, own)
    gam = np.ascontiguousarray(np.swapaxes(christoffel_fd(g, shell), -3, -2))  # [p, k, n]
    box = np.ascontiguousarray(gam[inner])
    curv = np.empty(box.shape[:g.ndim] + (len(PAIRS), 4, 4))
    for b, (p, s) in enumerate(PAIRS):
        out = curv[..., b, :, :]
        np.subtract(g.grad(gam[..., s, :, :], p, inner),
                    g.grad(gam[..., p, :, :], s, inner), out=out)
        out += box[..., p, :, :] @ box[..., s, :, :]
        out -= box[..., s, :, :] @ box[..., p, :, :]
    return curv


def _pair_matrices():
    """The constant matrices of the pair curvature, of entries 0, +-1/2 and
    +-1: (16, 6) taking a 4x4 block T_mn, flat in (m, n), to
    (1/2)(T_mn - T_nm) on `PAIRS` to the last bit, and (96, 16) taking the
    pair curvature, flat in (B, k, n), to Ric_ij = R^m_j(m, i), flat in (i, j)."""
    anti, trace, j = np.zeros((4, 4, 6)), np.zeros((len(PAIRS), 4, 4, 4, 4)), np.arange(4)
    for b, (p, s) in enumerate(PAIRS):
        anti[p, s, b], anti[s, p, b] = 0.5, -0.5
        trace[b, p, j, s, j], trace[b, s, j, p, j] = 1.0, -1.0
    return anti.reshape(16, 6), trace.reshape(len(PAIRS) * 16, 16)


_ANTISYMMETRISER, _RICCI_TRACE = _pair_matrices()


def ricci4_fd(g: Metric4Grid, own=None) -> np.ndarray:
    """Ric_ij = R^m_jmi = d_m Gamma^m_ij - d_i Gamma^m_mj + Gamma^m_ms Gamma^s_ij
    - Gamma^m_is Gamma^s_mj, the trace of the pair curvature, on the box
    `own` (every node by default)."""
    curv = _pair_curvature(g, own)
    nodes = curv.shape[:g.ndim]
    return (curv.reshape(nodes + (len(PAIRS) * 16,)) @ _RICCI_TRACE).reshape(nodes + (4, 4))


def riemann4_fd(g: Metric4Grid, own=None) -> np.ndarray:
    """The Riemann tensor as a 6x6 operator on bivectors, (..., 6, 6), on the
    box `own` (every node by default): R_AB = (1/2)(R_mnps - R_nmps) for
    A = (m, n), B = (p, s) in `PAIRS`, with R_mnps = g_mk R^k_nps from the
    pair curvature.  The FD tensor is antisymmetric in (p, s) exactly but
    in (m, n) only to discretisation error, which the antisymmetrisation
    drops."""
    own = _shell(g, own)[0]
    low = g.values[own][..., None, :, :] @ _pair_curvature(g, own)  # low[..., B, m, n] = R_mnB
    return np.swapaxes(low.reshape(low.shape[:-2] + (16,)) @ _ANTISYMMETRISER, -1, -2)


def covariant_derivative4(g: Metric4Grid, omega: np.ndarray, gamma=None, own=None) -> np.ndarray:
    """(nabla omega)_{mu nu} = d_mu omega_nu - Gamma^l_{mu nu} omega_l on the
    box `own` (every node by default), with `gamma` the Christoffel set on
    that box (built here if not given).  Only omega on the box's shell is
    copied."""
    own, shell, inner = _shell(g, own)
    if gamma is None:
        gamma = christoffel_fd(g, own)
    k = g.ndim
    omega = fd.to_planes(omega[shell], k)
    partial = fd.plane_partials(g, omega, own=inner)
    return fd.from_planes(fd.plane_covariant_derivative(
        fd.to_planes(gamma, k), partial, omega[(Ellipsis,) + inner]), k)


# The largest residual of the null/unit/orthogonality algebra of a
# `ParabolicPairData`, the largest |g_0i| (dt-space cross term) that
# `gh_decomposition` accepts, and the largest |l_0| of a purely spatial l in
# `parallel_pair_residual`.
PAIR_TOL = 1e-9
CROSS_TOL = 1e-9
SPATIAL_L_TOL = 1e-9


class ParabolicPairData:
    """A null covector u and a unit spatial covector l orthogonal to it.

    Both are stored as coordinate components on the metric grid `g`; the
    algebra g(u, u) = 0, g(l, l) = 1, g(u, l) = 0 is validated pointwise at
    construction, to `PAIR_TOL`, and the raised l it tests is kept as the
    read-only planes `l_sharp` of g^-1 l, (4, *grid).  A pair is immutable:
    no attribute can be rebound, and neither g's values nor u, l and
    `l_sharp` can be written through it; u and l are read-only views of the
    caller's arrays, not copies.
    """

    __slots__ = ("g", "u", "l", "l_sharp")

    def __init__(self, g: Metric4Grid, u, l):
        u, l = (np.asarray(v, dtype=float).view() for v in (u, l))
        if u.shape != g.shape + (4,) or l.shape != g.shape + (4,):
            raise GridInvalid("u and l must be 4-covector grids on the metric grid")
        k = g.ndim
        ginv, up, lp = (fd.to_planes(v, k) for v in (g.inverse(), u, l))
        # NaN propagates: g^-1(u, u) overflowing to inf - inf must fail
        with np.errstate(over="ignore", invalid="ignore"):
            l_sharp = fd.plane_matvec(ginv, lp)
            uu = fd.plane_dot(up, fd.plane_matvec(ginv, up))
            ll = fd.plane_dot(lp, l_sharp)
            ul = fd.plane_dot(up, l_sharp)
        worst = float(np.max([np.abs(uu).max(), np.abs(ll - 1).max(), np.abs(ul).max()]))
        if not worst <= PAIR_TOL:
            raise PairAlgebraViolated(
                f"null/unit/orthogonality algebra residual {worst} exceeds {PAIR_TOL}"
            )
        for v in (u, l, l_sharp):
            v.flags.writeable = False
        for name, value in (("g", g), ("u", u), ("l", l), ("l_sharp", l_sharp)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def gh_decomposition(g: Metric4Grid):
    """Lapse, spatial metric and shape operator of a metric in the globally
    hyperbolic form -lambda^2 dt (x) dt + h_t; rejects metrics with dt-space
    cross terms above `CROSS_TOL`."""
    gv = g.values
    cross = float(np.abs(gv[..., 0, 1:]).max())
    if cross > CROSS_TOL:
        raise NotInGHForm(f"metric has dt-space cross terms of size {cross}")
    g00 = gv[..., 0, 0]
    if np.any(g00 >= 0):
        raise SignatureViolation("g_00 must be negative in the GH decomposition")
    lam = np.sqrt(-g00)
    h = gv[..., 1:, 1:]
    theta = -g.grad(h, 0) / (2 * lam[..., None, None])
    return lam, h, theta


def parallel_pair_residual(pair: ParabolicPairData):
    """Residuals of the parallelism conditions nabla u = 0, nabla l = kappa (x) u.

    kappa is extracted in closed form from the globally hyperbolic
    decomposition of `pair.g`: kappa(dt-slot) = -dlambda(l#)/u0, spatial part
    Theta(l#)/u0 with u0 = u_0/lambda and l# the spatial part of
    `pair.l_sharp`, h^-1 l to O(`CROSS_TOL` (`CROSS_TOL` + `SPATIAL_L_TOL`)).
    Requires the metric in GH form with a purely spatial representative l
    (|l_0| <= `SPATIAL_L_TOL`).  Returns
    (max |nabla u|, max |nabla l - kappa (x) u|, kappa grid).  Every refusal
    comes before any Christoffel symbol is built.  kappa is built on every
    node; the Christoffel set and both covariant derivatives only on the
    nodes the norms read, `INTERIOR`.
    """
    g = pair.g
    if float(np.abs(pair.l[..., 0]).max()) > SPATIAL_L_TOL:
        raise PairAlgebraViolated("l must be a purely spatial representative")

    lam, _, theta = gh_decomposition(g)
    # the 3x3 algebra on component planes; lam and u0 are planes already
    k = g.ndim
    u0 = pair.u[..., 0] / lam
    if np.any(np.abs(u0) < 1e-14):
        raise PairAlgebraViolated("u0 vanishes; kappa extraction undefined")
    l_sharp = pair.l_sharp[1:]
    kappa = np.empty((4,) + g.shape)
    kappa[0] = -fd.plane_dot(fd.plane_partials(g, lam, SPATIAL_AXES), l_sharp) / u0
    kappa[1:] = fd.plane_matvec(fd.to_planes(theta, k), l_sharp) / u0
    kappa = fd.from_planes(kappa, k)

    gamma = christoffel_fd(g, INTERIOR)
    nab_u = covariant_derivative4(g, pair.u, gamma, INTERIOR)
    res_l = covariant_derivative4(g, pair.l, gamma, INTERIOR)
    res_l -= kappa[INTERIOR][..., :, None] * pair.u[INTERIOR][..., None, :]
    return fd.max_abs(nab_u), fd.max_abs(res_l), kappa
