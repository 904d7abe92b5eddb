"""Comoving parallel spinor flows and their explicit solution families.

Covers the residual evaluation of the comoving flow system, the two diagonal
solution families on R^3, the two-function pp-wave family in adapted null
coordinates (x+, x-, y1, y2), and the plane-wave criterion for the latter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as fd
from . import spacetime_verifier as sv
from .errors import (
    DegenerateCoframe,
    IntervalContainsSingularity,
    NullDirectionNotParallel,
    ParamOutOfRange,
)
from .spacetime_verifier import SPATIAL_AXES, Grid4, Metric4Grid, interior_max4


@dataclass
class FlowSolution:
    """A time family of spatial coframes sampled on a (t, x, y, z) grid.

    `coframe` is a Grid4 with payload (3, 3): rows (e_u, e_l, e_n) in the
    coordinate components (dx, dy, dz).  The induced shape operator is
    Theta_t = -1/2 d_t (sum_a e_a (x) e_a), computed by central differences.
    """

    interval: tuple
    coframe: Grid4
    meta: dict = field(default_factory=dict)

    def spatial_metric(self) -> np.ndarray:
        """h_ij = sum_a (e_a)_i (e_a)_j, grid-major."""
        e = fd.to_planes(self.coframe.values, self.coframe.ndim)
        return fd.from_planes(fd.coframe_metric(e), self.coframe.ndim)

    def metric4(self, check_signature: bool = False) -> Metric4Grid:
        """The comoving development metric -dt (x) dt + h_t on the same grid."""
        h = self.spatial_metric()
        g = np.zeros(self.coframe.shape + (4, 4))
        g[..., 0, 0] = -1.0
        g[..., 1:, 1:] = h
        return Metric4Grid(self.coframe.box, g, check_signature=check_signature)


def comoving_residual(
    sol: FlowSolution,
    include_boundary: bool = False,
    degeneracy_tol: float = 1e-12,
) -> dict:
    """Max-norms of the comoving flow system for a sampled coframe family.

    Reports separately: the evolution equation d_t e_a + Theta_t(e_a), the
    spatial exterior system d e_a - Theta_t(e_a) ^ e_u, the closedness of
    Theta_t(e_u), and its time independence d_t(Theta_t(e_u)).

    A node is degenerate where |det e| <= degeneracy_tol times the product of
    the row norms |e_a| (Hadamard's bound), a test invariant under e -> c e.
    Each term is built only on the nodes its norm reads (without the 2-node
    collar unless `include_boundary`) and, where its partials are taken, on
    the one-node shell around them; every node still passes the degeneracy
    test and the `SingularMatrix` test of the inverse of h.
    """
    grid = sol.coframe
    fd.require_regular(grid.values, degeneracy_tol)
    e = fd.to_planes(grid.values, grid.ndim)  # e[a, i] = (e_a)_i
    box = (slice(None) if include_boundary else slice(2, -2),) * grid.ndim
    shell, inner = fd.grow(box, grid.shape)
    norm = fd.max_abs
    h = fd.coframe_metric(e)
    hinv = fd.plane_inverse(h)[(Ellipsis,) + shell]  # tested on every node
    theta = fd.plane_partials(grid, h, (0,), shell)[0]
    theta *= -0.5
    del h
    # Theta_t(e_a)_i = theta_ij hinv^jk (e_a)_k, with the first slot metric-raised,
    # on the box and its shell: its partials are taken
    raised = fd.plane_matmul(theta, hinv)
    del hinv, theta  # only theta_e is used below
    theta_e = fd.plane_matmul(e[(Ellipsis,) + shell], np.swapaxes(raised, 0, 1))
    del raised

    report = {}
    ev = fd.plane_partials(grid, e, (0,), box)[0]
    ev += theta_e[(Ellipsis,) + inner]
    report["evolution"] = norm(ev)
    del ev

    # the partials of one frame row at a time
    de = (fd.plane_partials(grid, e[a], SPATIAL_AXES, box) for a in range(3))
    report.update(fd.exterior_system(
        de, e[(0, Ellipsis) + box], theta_e[(Ellipsis,) + inner],
        fd.plane_partials(grid, theta_e[0], SPATIAL_AXES, inner), norm
    ))
    report["theta_eu_static"] = norm(fd.plane_partials(grid, theta_e[0], (0,), inner)[0])
    report["max"] = float(np.max(list(report.values())))  # NaN propagates
    return report


@dataclass
class DiagonalFamily:
    """Parameters of the diagonal comoving solution families.

    case "B_nonzero": f_u^t = a + b t with constants a, b (b != 0) and
    transverse profiles L_l(x + log|a + b t|/b, y), L_n(same, z).
    case "B_zero": b = 0, a = a(x) > 0, profiles L_l(t + A(x), y) and
    L_n(t + A(x), z) with A the primitive of a vanishing at 0.  Profiles
    must be nowhere zero on the sampled domain.  `a_primitive`, if given,
    replaces the composite-Simpson primitive with an exact one.
    """

    case: str
    a: object
    b: float
    Ll: object
    Ln: object
    a_primitive: object = None

    def __post_init__(self):
        if self.case not in ("B_nonzero", "B_zero"):
            raise ParamOutOfRange(f"unknown diagonal case {self.case!r}")
        if self.case == "B_nonzero":
            if self.b == 0:
                raise ParamOutOfRange("case B_nonzero requires b != 0")
            if callable(self.a):
                raise ParamOutOfRange("case B_nonzero requires constant a")
        else:
            if self.b != 0:
                raise ParamOutOfRange("case B_zero requires b = 0")
            if not callable(self.a):
                raise ParamOutOfRange("case B_zero requires a = a(x)")


def _diag_profiles(fam: DiagonalFamily, grid: Grid4):
    """Sample (f_u, f_l, f_n) of a diagonal family on the grid, plus an
    estimate of the primitive quadrature error for case B_zero."""
    tt, xx, yy, zz = grid.meshgrid()
    prim_err = 0.0
    if fam.case == "B_nonzero":
        fu = fam.a + fam.b * tt
        zeta = xx + np.log(np.abs(fu)) / fam.b
    else:
        x = grid.axis(1)
        a_x = np.array([float(fam.a(xi)) for xi in x])
        fu = np.broadcast_to(a_x[None, :, None, None], grid.shape).copy()
        if fam.a_primitive is not None:
            prim = np.array([float(fam.a_primitive(xi)) for xi in x])
        else:
            prim = fd.cumulative_simpson(a_x, x)
            h = grid.spacing[1]
            d4 = np.gradient(np.gradient(np.gradient(np.gradient(
                a_x, h), h), h), h)
            prim_err = float((x[-1] - x[0]) * h**4 * np.abs(d4).max() / 180)
        zeta = tt + prim[None, :, None, None]
    fl = np.asarray(fam.Ll(zeta, yy), dtype=float)
    fn = np.asarray(fam.Ln(zeta, zz), dtype=float)
    fl = np.broadcast_to(fl, grid.shape)
    fn = np.broadcast_to(fn, grid.shape)
    return fu, fl, fn, prim_err


def diagonal_solution(fam: DiagonalFamily, interval, box, n) -> FlowSolution:
    """Build the sampled coframe family of a diagonal solution.

    `interval` is the time range (t0, t1); `box` the spatial box; `n` the
    samples per axis (scalar or 4-tuple).  For case B_nonzero the interval
    must avoid the zero t = -a/b of f_u.
    """
    t0, t1 = interval
    if fam.case == "B_nonzero":
        t_sing = -fam.a / fam.b
        if t0 <= t_sing <= t1:
            raise IntervalContainsSingularity(
                f"f_u vanishes at t = {t_sing} inside [{t0}, {t1}]"
            )
    full_box = ((t0, t1),) + tuple(box)
    if np.isscalar(n):
        n = (n,) * 4
    grid = Grid4(full_box, np.zeros(tuple(n) + (1,)))
    fu, fl, fn, prim_err = _diag_profiles(fam, grid)
    for name, f in (("L_l", fl), ("L_n", fn)):
        if np.any(f == 0):
            raise DegenerateCoframe(f"profile {name} vanishes on the grid")
    e = np.zeros(grid.shape + (3, 3))
    e[..., 0, 0] = fu
    e[..., 1, 1] = fl
    e[..., 2, 2] = fn
    meta = {"family": fam.case, "primitive_error_estimate": prim_err,
            "completeness_checked": False}
    return FlowSolution(interval=(t0, t1), coframe=Grid4(full_box, e), meta=meta)


def diagonal_ricci_flat_residual(fam: DiagonalFamily, interval, box, n) -> np.ndarray:
    """The Ricci-flatness obstruction of a diagonal family,
    b (d_t f_l / f_l + d_t f_n / f_n) - d_t d_x f_l / f_l - d_t d_x f_n / f_n,
    reduced to a (t, x) field by max-abs over the transverse directions.
    """
    sol = diagonal_solution(fam, interval, box, n)
    grid = sol.coframe
    fl = grid.values[..., 1, 1]
    fn = grid.values[..., 2, 2]
    res = np.zeros(grid.shape)
    for f in (fl, fn):
        ft = grid.grad(f, 0)
        ftx = grid.grad(ft, 1)
        res += fam.b * ft / f - ftx / f
    return np.abs(res).max(axis=(2, 3))


# ---------------------------------------------------------------------------
# pp-waves
# ---------------------------------------------------------------------------


@dataclass
class PPWaveData:
    """Two-function pp-wave family in null coordinates (x+, x-, y1, y2).

    `fl`, `fn` are smooth functions of x+; `c` is a real constant.  Optional
    `dfl`, `dfn`, `ddfl`, `ddfn` provide analytic derivatives for the ODE
    residuals; otherwise central differences are used.
    """

    fl: object
    fn: object
    c: float = 0.0
    dfl: object = None
    dfn: object = None
    ddfl: object = None
    ddfn: object = None

    @classmethod
    def log_solution(cls, a_l, b_l, a_n, b_n, c: float = 0.0) -> "PPWaveData":
        """The Ricci-flat profiles f_i = a_i + log|x+ - b_i| with exact
        derivatives 1/(x+ - b_i) and -1/(x+ - b_i)^2."""
        return cls(
            fl=lambda x: a_l + np.log(np.abs(x - b_l)),
            fn=lambda x: a_n + np.log(np.abs(x - b_n)),
            c=c,
            dfl=lambda x: 1.0 / (x - b_l),
            dfn=lambda x: 1.0 / (x - b_n),
            ddfl=lambda x: -(1.0 / (x - b_l)) ** 2,
            ddfn=lambda x: -(1.0 / (x - b_n)) ** 2,
        )

    def p(self, x):
        return self.c * (np.exp(self.fl(x)) + np.exp(self.fn(x)))

    def delta(self, x):
        return np.exp(self.fl(x) + self.fn(x)) + self.p(x) ** 2

    def metric_components(self, x):
        """The (y1, y2) block entries (g11, g12, g22) as functions of x+."""
        efl, efn = np.exp(self.fl(x)), np.exp(self.fn(x))
        p2 = self.p(x) ** 2
        g11 = efl**2 + p2
        g22 = efn**2 + p2
        g12 = self.c * (efl**2 - efn**2)
        return g11, g12, g22


def pp_metric(data: PPWaveData, box, n, check_signature: bool = True) -> Metric4Grid:
    """Sample g = dx+ (.) dx- + k_{x+} on a 4D grid with axes (x+, x-, y1, y2)."""
    if np.isscalar(n):
        n = (n,) * 4
    grid = Grid4(tuple(box), np.zeros(tuple(n) + (1,)))
    xp = grid.axis(0)
    g11, g12, g22 = data.metric_components(xp)
    if np.any(data.delta(xp) <= 0):
        raise ParamOutOfRange("pp-wave transverse determinant delta must be positive")
    g = np.zeros(grid.shape + (4, 4))
    g[..., 0, 1] = g[..., 1, 0] = 1.0
    g[..., 2, 2] = g11[:, None, None, None]
    g[..., 2, 3] = g[..., 3, 2] = g12[:, None, None, None]
    g[..., 3, 3] = g22[:, None, None, None]
    return Metric4Grid(grid.box, g, check_signature=check_signature)


def pp_ricci_residual(data: PPWaveData, x):
    """The two Ricci-flat ODE residuals r_i = (d f_i)^2 + d^2 f_i sampled on x."""
    x = np.asarray(x, dtype=float)
    out = []
    for f, df, ddf in ((data.fl, data.dfl, data.ddfl),
                       (data.fn, data.dfn, data.ddfn)):
        if df is not None and ddf is not None:
            d1, d2 = np.asarray(df(x), dtype=float), np.asarray(ddf(x), dtype=float)
        else:
            vals = np.asarray(f(x), dtype=float)
            d1 = np.gradient(vals, x, edge_order=2)
            d2 = np.gradient(d1, x, edge_order=2)
        out.append(d1**2 + d2)
    return tuple(out)


def plane_wave_check(
    g: Metric4Grid,
    null_axis: int = 1,
    tol: float = 1e-6,
    parallel_tol: float = None,
    include_boundary: bool = False,
) -> dict:
    """Verify the plane-wave conditions for a metric with a declared parallel
    null coordinate direction.

    Checks that the Riemann tensor vanishes on quadruples of vectors
    orthogonal to the null direction and that its covariant derivative along
    every such vector vanishes, both to `tol`.  Raises
    NullDirectionNotParallel if the metric dual of the declared direction is
    not parallel to tolerance.
    """
    if parallel_tol is None:
        parallel_tol = tol
    u_cov = g.values[..., :, null_axis]
    nab_u = sv.covariant_derivative4(g, u_cov)
    u_res = interior_max4(nab_u, include_boundary)
    if u_res > parallel_tol:
        raise NullDirectionNotParallel(
            f"nabla of the declared null covector has norm {u_res} > {parallel_tol}"
        )

    shape = g.shape
    # R_{mnps} = g_{mk} R^k_{nps}
    riem = g.values @ sv.riemann4_fd(g).reshape(shape + (4, 64))
    riem = riem.reshape(shape + (4,) * 4)

    # spanning set of the orthogonal complement: eliminate the coordinate
    # carrying the largest component of the null covector
    comp_scale = [float(np.abs(u_cov[..., m]).max()) for m in range(4)]
    big = int(np.argmax(comp_scale))
    perp = []
    for m in range(4):
        if m == big:
            continue
        v = np.zeros(g.shape + (4,))
        v[..., m] = 1.0
        v[..., big] = -u_cov[..., m] / u_cov[..., big]
        perp.append(v)
    perp = np.stack(perp, axis=-2)  # (..., 3, 4)

    # R(v_a, v_b, v_c, v_d), one slot at a time: each step contracts the last
    # axis with perp and puts the new index first, so four steps leave the
    # axes in the order (a, b, c, d)
    proj = riem
    for _ in range(4):
        proj = perp @ np.swapaxes(proj.reshape(shape + (-1, 4)), -1, -2)
    perp_riemann = interior_max4(proj, include_boundary)

    # nabla_{v_a} R_{mnps} = v_a^l d_l R_{mnps} - Gamma^q_{am} R_{qnps}
    # - Gamma^q_{an} R_{mqps} - Gamma^q_{ap} R_{mnqs} - Gamma^q_{as} R_{mnpq}
    # with Gamma^q_{ax} = v_a^l Gamma^q_{lx}, one spanning vector at a time:
    # v_a = e_{m_a} + c_a e_big gives v_a^l d_l R = d_{m_a} R + c_a d_big R, so
    # three Riem-sized arrays (R, d_big R, the current term) and one gradient's
    # temporaries set the peak; neither the 4^5 partials nor nabla Riem is formed.
    # Where every c_a is zero (-0.0 on a pp-wave's null covector) d_big R is
    # neither built nor added: wherever it is finite, adding c_a d_big R = +-0
    # changes no magnitude
    gam_perp = np.einsum("...al,...qlx->...axq", perp, sv.christoffel_fd(g))  # [a, x, q]
    d_big = g.grad(riem, big) if np.any(perp[..., big]) else None
    nabla_riemann = []
    for a, m in enumerate(m for m in range(4) if m != big):
        gam_a = gam_perp[..., a, :, :]
        term = g.grad(riem, m)
        if d_big is not None:
            term += perp[..., a, big, None, None, None, None] * d_big
        term -= (gam_a @ riem.reshape(shape + (4, 64))).reshape(term.shape)
        term -= (gam_a[..., None, :, :] @ riem.reshape(shape + (4, 4, 16))).reshape(term.shape)
        term -= (gam_a[..., None, :, :] @ riem.reshape(shape + (16, 4, 4))).reshape(term.shape)
        term -= (riem.reshape(shape + (64, 4)) @ np.swapaxes(gam_a, -1, -2)).reshape(term.shape)
        nabla_riemann.append(interior_max4(term, include_boundary))
        del term  # freed before the next gradient is built
    nabla_riemann = float(np.max(nabla_riemann))  # NaN propagates

    return {
        "nabla_null": u_res,
        "perp_riemann": perp_riemann,
        "nabla_riemann": nabla_riemann,
        "passed": bool(perp_riemann <= tol and nabla_riemann <= tol),
    }
