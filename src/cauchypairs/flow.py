"""Comoving parallel spinor flows and their explicit solution families.

Covers the residual evaluation of the comoving flow system, the two diagonal
solution families on R^3, the two-function pp-wave family in adapted null
coordinates (x+, x-, y1, y2), and the plane-wave criterion for the latter.

A sampled flow is its coframe grid: `diagonal_solution` returns a `Grid4`
on (t, x, y, z) with payload (3, 3), the rows (e_u, e_l, e_n) in the
components (dx, dy, dz), and `comoving_residual` takes it;
`comoving_metric` is its development metric and `primitive_error_estimate`
the error of its quadrature.  Every family is sampled by
`Grid.from_function` (`pp_metric` by `Metric4Grid.from_function`), so a
malformed sample count is refused before any profile is evaluated.

Every norm skips the `grid.COLLAR` on all four axes.  No node on a spatial
face reaches the comoving report; the t faces reach `theta_eu_static`, a
second t-derivative of h, and `max`, and no other key.  `plane_wave_check`
builds each term only on the nodes its norm reads, `INTERIOR`, and the
Riemann block also on the one-node shell that its partials there read.  The comoving report
runs in t-slabs with a two-plane halo (`grid.slab_max`), as the 3D
constraint residual runs in x-slabs, so its working set is bounded by a
slab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as fd
from . import spacetime_verifier as sv
from .errors import (
    DegenerateCoframe,
    IntervalContainsSingularity,
    NullDirectionNotParallel,
    ParamOutOfRange,
)
from .spacetime_verifier import INTERIOR, SPATIAL_AXES, Grid4, Metric4Grid


def comoving_metric(coframe: Grid4) -> Metric4Grid:
    """The comoving development metric -dt (x) dt + h_t of a sampled coframe
    family, h_ij = sum_a (e_a)_i (e_a)_j, on the coframe's nodes; Lorentzian
    wherever the coframe is regular."""
    k = coframe.ndim
    g = np.zeros(coframe.shape + (4, 4))
    g[..., 0, 0] = -1.0
    g[..., 1:, 1:] = fd.from_planes(fd.coframe_metric(fd.to_planes(coframe.values, k)), k)
    return Metric4Grid(coframe.box, g)


def comoving_residual(grid: Grid4) -> dict:
    """Max-norms of the comoving flow system for a sampled coframe family:
    a Grid4 on (t, x, y, z) with payload (3, 3), the rows (e_u, e_l, e_n) in
    the components (dx, dy, dz), whose shape operator is
    Theta_t = -1/2 d_t (sum_a e_a (x) e_a).

    Reports separately: the evolution equation d_t e_a + Theta_t(e_a), the
    spatial exterior system d e_a - Theta_t(e_a) ^ e_u, the closedness of
    Theta_t(e_u), and its time independence d_t(Theta_t(e_u)).

    The report is evaluated one t-slab at a time (`grid.slab_max`) with a
    two-plane halo, as d_t(Theta_t(e_u)) is a second t-derivative of h, bit
    for bit the whole-grid report.  Each term is built only on the nodes its
    norm reads (the grid less the `grid.COLLAR`) and, where its partials are
    taken, on the one-node shell around them; every node still passes
    `grid.require_regular` and the `SingularMatrix` test of the inverse of h.
    """
    fd.require_regular(grid.values)
    return fd.slab_max(grid.shape, 2, lambda window, box, own: _slab_comoving(
        grid, grid.values[window], box, own))


def _slab_comoving(grid: Grid4, rows, box, own) -> dict:
    """The report of `comoving_residual` over the nodes `box` (one slice per
    axis of the t-window) of one slab, from the window's coframe `rows`;
    `grid` is the whole grid, whose spacing the window shares, and `own`
    the slab's own planes of the window.  h is inverted on the own planes
    and the box's shell together (`grid.slab_inverse`), so that the slabs
    test the inverse on every node, t-collar included."""
    e = fd.to_planes(rows, grid.ndim)  # e[a, i] = (e_a)_i on the window
    shell, inner = fd.grow(box, e.shape[2:])
    norm = fd.max_abs
    with np.errstate(over="ignore", invalid="ignore"):  # slab_inverse refuses a non-finite h
        h = fd.coframe_metric(e)
    hinv = fd.slab_inverse(h, own, shell)
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


def _diag_coframe(fam: DiagonalFamily, t, x, y, z) -> np.ndarray:
    """The coframe diag(f_u, f_l, f_n) of a diagonal family at the nodes
    (t, x, y, z), the read-only coordinates of `Grid.from_function`."""
    if fam.case == "B_nonzero":
        fu = fam.a + fam.b * t
        zeta = x + np.log(np.abs(fu)) / fam.b
    else:
        x = x[0, :, 0, 0]
        a_x = np.array([float(fam.a(xi)) for xi in x])
        if fam.a_primitive is not None:
            prim = np.array([float(fam.a_primitive(xi)) for xi in x])
        else:
            prim = fd.cumulative_simpson(a_x, x)
        fu = a_x[:, None, None]
        zeta = t + prim[:, None, None]
    e = np.zeros(t.shape + (3, 3))
    e[..., 0, 0] = fu
    for i, (name, profile, s) in enumerate((("L_l", fam.Ll, y), ("L_n", fam.Ln, z)), 1):
        e[..., i, i] = profile(zeta, s)
        if np.any(e[..., i, i] == 0):
            raise DegenerateCoframe(f"profile {name} vanishes on the grid")
    return e


def diagonal_solution(fam: DiagonalFamily, interval, box, n) -> Grid4:
    """The sampled coframe family of a diagonal solution, as
    `comoving_residual` takes it.

    `interval` is the time range (t0, t1); `box` the spatial box; `n` the
    samples per axis, one count or four (`Grid.from_function`).  For case
    B_nonzero the interval must avoid the zero t = -a/b of f_u.
    """
    t0, t1 = interval
    if fam.case == "B_nonzero":
        t_sing = -fam.a / fam.b
        if t0 <= t_sing <= t1:
            raise IntervalContainsSingularity(
                f"f_u vanishes at t = {t_sing} inside [{t0}, {t1}]"
            )
    return Grid4.from_function(((t0, t1),) + tuple(box), n,
                               lambda t, x, y, z: _diag_coframe(fam, t, x, y, z))


def primitive_error_estimate(fam: DiagonalFamily, coframe: Grid4) -> float:
    """An estimate of the error of case B_zero's composite-Simpson primitive
    on the x axis of its sampled `coframe`: (x1 - x0) h^4 max |a^(4)| / 180,
    with a^(4) by repeated central differences of the samples f_u = a(x).
    0 where no quadrature is made (case B_nonzero, or an exact
    `a_primitive`)."""
    if fam.case == "B_nonzero" or fam.a_primitive is not None:
        return 0.0
    x = coframe.axis(1)
    a_x = coframe.values[0, :, 0, 0, 0, 0]
    h = coframe.spacing[1]
    d4 = np.gradient(np.gradient(np.gradient(np.gradient(a_x, h), h), h), h)
    return float((x[-1] - x[0]) * h**4 * np.abs(d4).max() / 180)


def diagonal_ricci_flat_residual(fam: DiagonalFamily, interval, box, n) -> np.ndarray:
    """The Ricci-flatness obstruction of a diagonal family,
    b (d_t f_l / f_l + d_t f_n / f_n) - d_t d_x f_l / f_l - d_t d_x f_n / f_n,
    reduced to a (t, x) field by max-abs over the transverse directions.
    """
    grid = diagonal_solution(fam, interval, box, n)
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


def pp_metric(data: PPWaveData, box, n) -> Metric4Grid:
    """Sample g = dx+ (.) dx- + k_{x+} on a 4D grid with axes (x+, x-, y1, y2);
    `n` is one count or four (`Grid.from_function`)."""
    def sample(xp, xm, y1, y2):
        x = xp[:, 0, 0, 0]
        if np.any(data.delta(x) <= 0):
            raise ParamOutOfRange("pp-wave transverse determinant delta must be positive")
        g11, g12, g22 = (c[:, None, None, None] for c in data.metric_components(x))
        g = np.zeros(xp.shape + (4, 4))
        g[..., 0, 1] = g[..., 1, 0] = 1.0
        g[..., 2, 2] = g11
        g[..., 2, 3] = g[..., 3, 2] = g12
        g[..., 3, 3] = g22
        return g

    return Metric4Grid.from_function(box, n, sample)


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


def _bivector_action() -> np.ndarray:
    """The constant (16, 36) matrix that takes a 4x4 matrix Gamma^q_x, flat
    in (q, x), to W, flat in (A, B): the action of Gamma on the bivector
    pairs A = (m, n), B = (p, s) of `spacetime_verifier.PAIRS`,
    W[A, B] = Gamma^p_m d_ns - Gamma^s_m d_np + Gamma^s_n d_mp - Gamma^p_n d_ms,
    so that (W R)_AB = Gamma^q_m R_qnB + Gamma^q_n R_mqB."""
    out = np.zeros((4, 4, 6, 6))
    for a, (m, n) in enumerate(sv.PAIRS):
        for b, (p, s) in enumerate(sv.PAIRS):
            out[p, m, a, b] += n == s
            out[s, m, a, b] -= n == p
            out[s, n, a, b] += m == p
            out[p, n, a, b] -= m == s
    return out.reshape(16, 36)


_BIVECTOR_ACTION = _bivector_action()

# the axis of the parallel null vector field: x- of (x+, x-, y1, y2), dual to dx+
NULL_AXIS = 1


def plane_wave_check(g: Metric4Grid, tol: float = 1e-6) -> dict:
    """Verify the plane-wave conditions for a metric with the parallel null
    coordinate direction `NULL_AXIS`.

    Checks that the Riemann tensor vanishes on quadruples of vectors
    orthogonal to the null direction and that its covariant derivative along
    every such vector vanishes, both to `tol`.  Raises
    NullDirectionNotParallel if the metric dual of the null direction is not
    parallel to `tol`.

    Every term is built only on the nodes its norm reads, `INTERIOR`, and R
    also on the one-node shell that its partials there read.  The
    eliminated coordinate, and whether R is differentiated along it, are
    still decided on the whole grid.
    """
    norm = fd.max_abs
    u_cov = g.values[..., :, NULL_AXIS]
    u_res = norm(sv.covariant_derivative4(g, u_cov, own=INTERIOR))
    if u_res > tol:
        raise NullDirectionNotParallel(
            f"nabla of the declared null covector has norm {u_res} > {tol}"
        )

    # R_AB on the bivector pairs A, B, on the shell of INTERIOR: `inner` is
    # INTERIOR in shell indices
    shell, inner = fd.grow(INTERIOR, g.shape)
    riem = sv.riemann4_fd(g, shell)
    riem_box = riem[inner]

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
    perp_box = perp[INTERIOR]

    # R(v_a, v_b, v_c, v_d) is the entry (ab, cd) of V R V^T, whose rows are
    # the bivectors v_a ^ v_b, a < b
    lo, hi = (list(i) for i in zip(*sv.PAIRS))
    first, second = perp_box[..., [0, 0, 1], :], perp_box[..., [1, 2, 2], :]
    wedge = first[..., lo] * second[..., hi] - first[..., hi] * second[..., lo]
    perp_riemann = norm(wedge @ riem_box @ np.swapaxes(wedge, -1, -2))

    # nabla_{v_a} R = v_a(R) - W_a R - R W_a^T, with W_a the action on bivectors
    # of Gamma_a, (Gamma_a)^q_x = v_a^l Gamma^q_lx, one spanning vector at a
    # time: v_a = e_{m_a} + c_a e_big gives v_a(R) = d_{m_a} R + c_a d_big R.
    # Where every c_a is zero (-0.0 on a pp-wave's null covector) d_big R is
    # neither built nor added: wherever it is finite, adding c_a d_big R = +-0
    # changes no magnitude
    nodes = perp_box.shape[:g.ndim]
    gam = np.swapaxes(sv.christoffel_fd(g, INTERIOR), -3, -2).reshape(nodes + (4, 16))
    action = ((perp_box @ gam) @ _BIVECTOR_ACTION).reshape(nodes + (3, 6, 6))  # W_a
    d_big = g.grad(riem, big, inner) if np.any(perp[..., big]) else None
    nabla_riemann = []
    for a, m in enumerate(m for m in range(4) if m != big):
        w = action[..., a, :, :]
        term = g.grad(riem, m, inner)
        if d_big is not None:
            term += perp_box[..., a, big, None, None] * d_big
        term -= w @ riem_box
        term -= riem_box @ np.swapaxes(w, -1, -2)
        nabla_riemann.append(norm(term))
    nabla_riemann = float(np.max(nabla_riemann))  # NaN propagates

    return {
        "nabla_null": u_res,
        "perp_riemann": perp_riemann,
        "nabla_riemann": nabla_riemann,
        "passed": bool(perp_riemann <= tol and nabla_riemann <= tol),
    }
