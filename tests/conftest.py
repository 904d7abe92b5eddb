"""Shared samplers for admissible shape operators across the test suite,
a traced-memory probe for the per-node memory tests, the exact-layer oracles
that `frame_core`'s closed forms are tested against (the Koszul connection,
the product-rule nabla Theta, the Jacobi identity and the antisymmetry of the
Codazzi tensors), and the reference partials, Christoffel symbols and
256-component Riemann tensor that the FD kernels are tested against, built
from numpy's gradient and einsum alone."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cauchypairs import classifier, frame_core as fc
from cauchypairs.classifier import ROW_IDS
from cauchypairs.errors import CauchyPairsError

# Verdict lines recorded by the acceptance tests; replayed after the run so
# they reach the terminal even though pytest captures test stdout.
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def traced_peak(fn):
    """The peak of the memory `fn()` allocates through Python, in bytes
    (tracemalloc; arrays that exist before the call are not counted)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gradient_partials(grid, values, axes=None):
    """d_i values for i in `axes` (every grid axis by default), stacked on a
    new axis after the grid-major grid axes, by numpy's own stencil: an
    oracle independent of the package's difference kernels."""
    axes = range(grid.ndim) if axes is None else axes
    return np.stack([np.gradient(values, grid.spacing[i], axis=i, edge_order=2)
                     for i in axes], axis=grid.ndim)


def christoffel_reference(grid, metric):
    """Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij) of a
    grid-major metric, by numpy's gradient, LAPACK's inverse and einsum."""
    dg = gradient_partials(grid, metric)  # dg[..., i, j, l] = d_i g_jl
    sym = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    return 0.5 * np.einsum("...kl,...ijl->...kij", np.linalg.inv(metric), sym)


def riemann4_reference(g):
    """R^k_nps = d_p Gamma^k_sn - d_s Gamma^k_pn + Gamma^k_pq Gamma^q_sn
    - Gamma^k_sq Gamma^q_pn of a Metric4Grid, all 256 components per node,
    by einsum from `christoffel_reference`: the route that the 6x6 bivector
    block replaced."""
    gam = christoffel_reference(g, g.values)
    d_gam = gradient_partials(g, gam)  # d_gam[..., p, k, i, j] = d_p Gamma^k_ij
    term = np.einsum("...pksn->...knps", d_gam)
    riem = term - np.swapaxes(term, -2, -1)
    riem += np.einsum("...kpq,...qsn->...knps", gam, gam)
    riem -= np.einsum("...ksq,...qpn->...knps", gam, gam)
    return riem


def bivector_block(riem_low):
    """The (..., 6, 6) block (1/2)(R_mnps - R_nmps), m < n, p < s, in the
    pair order of `spacetime_verifier.PAIRS`, of a lowered R_mnps."""
    from cauchypairs.spacetime_verifier import PAIRS

    m, n = (list(i) for i in zip(*PAIRS))
    anti = 0.5 * (riem_low - np.swapaxes(riem_low, -4, -3))
    return anti[..., m, n, :, :][..., m, n]


# ---------------------------------------------------------------------------
# exact-layer oracles: frame components in the index order (u, l, n) = (0, 1,
# 2), as nested tuples; int/Fraction entries stay exact
# ---------------------------------------------------------------------------

TRIPLES = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]


def tensor(entry):
    """Nested 3x3x3 tuple whose [i][j][k] component is entry(i, j, k)."""
    return tuple(tuple(tuple(entry(i, j, k) for k in range(3)) for j in range(3))
                 for i in range(3))


def _half(x):
    """x / 2, kept exact for int input (int / 2 would round to a float)."""
    return Fraction(x, 2) if isinstance(x, int) else x / 2


def _max_abs(entry):
    """Max over all index triples of |entry(i, j, k)|, as a float."""
    return max(abs(float(entry(i, j, k))) for i, j, k in TRIPLES)


def max_abs_diff(gamma, other):
    """Max |gamma[c][b][a] - other[c][b][a]| of two connections."""
    return _max_abs(lambda c, b, a: gamma[c][b][a] - other[c][b][a])


def metric_compat_residual(gamma):
    """Max |gamma[c][b][a] + gamma[a][b][c]| (orthonormal-frame antisymmetry)."""
    return _max_abs(lambda c, b, a: gamma[c][b][a] + gamma[a][b][c])


def bracket_coeffs(d):
    """Structure constants c^k_{ij} of the dual frame of StructureData `d`:
    [e_i, e_j] = c^k_{ij} e_k.  These are minus the coframe coefficients:
    d e^k(e_i, e_j) = -e^k([e_i, e_j])."""
    return tensor(lambda k, i, j: -d.d[k][i][j])


# the nonzero Levi-Civita symbols eps_{kpq} as (sign, p, q), for each k, in
# ascending (p, q); eps is cyclic, so eps_{pqk} = eps_{kpq}
_EPS = (
    ((1, 1, 2), (-1, 2, 1)),
    ((-1, 0, 2), (1, 2, 0)),
    ((1, 0, 1), (-1, 1, 0)),
)


def _wedge(two_form, k):
    """Coefficient of e^u ^ e^l ^ e^n in e^k ^ (2-form), which equals (2-form) ^ e^k."""
    acc = 0
    for s, p, q in _EPS[k]:
        acc += s * two_form[p][q]
    return _half(acc)


def d_squared(d):
    """Coefficients of d(d e^k) on e^u ^ e^l ^ e^n, for each k, of
    StructureData `d`.  Vanishing of all three is the Jacobi/integrability
    identity."""
    out = []
    for k in range(3):
        acc = 0
        # d(sum_{i<j} d[k][i][j] e^i ^ e^j) = sum_{i<j} d[k][i][j] (de^i ^ e^j - e^i ^ de^j)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            c = d.d[k][i][j]
            if c != 0:
                acc += c * (_wedge(d.d[i], j) - _wedge(d.d[j], i))
        out.append(acc)
    return tuple(out)


def connection_koszul(d, tol=fc.DEFAULT_TOL):
    """Unique metric-compatible torsion-free connection gamma[c][b][a] of an
    orthonormal coframe with StructureData `d`, from the structure
    coefficients alone, via the Koszul formula
    <nabla_{e_b} e_a, e_c> = (c^c_{ba} - c^b_{ac} + c^a_{cb}) / 2.
    Fails if the Jacobi residual of `d` exceeds `tol`."""
    jac = d_squared(d)
    if not all(fc.is_zero(j, tol) for j in jac):
        raise CauchyPairsError(f"structure data violates Jacobi identity: {jac}")
    c = bracket_coeffs(d)
    return tensor(lambda cc, b, a: _half(c[cc][b][a] - c[b][a][cc] + c[a][cc][b]))


def nabla_theta_oracle(theta):
    """(nabla_{e_a} theta)_{bc} as nested [a][b][c], by the product rule with
    the Cauchy connection (the components of theta are constant)."""
    gam = fc.connection_cauchy(theta)
    t = theta.entries

    def entry(a, b, c):
        val = 0
        for m in range(3):
            val = val - gam[m][a][b] * t[m][c] - gam[m][a][c] * t[b][m]
        return val

    return tensor(entry)


def loop_codazzi(t, t2):
    """The Codazzi tensors (C_a)_{bc} as nested [a][b][c], from the entries t
    of theta and t2 of theta o theta, by a per-index loop form."""
    def entry(a, b, c):
        val = -t[0][b] * t[a][c] + t[0][a] * t[b][c]
        val = val + t2[a][c] if b == 0 else val
        return val - t2[b][c] if a == 0 else val
    return tensor(entry)


def codazzi_antisymmetry_residual(theta):
    """Max |C_a(e_b, e_d) + C_b(e_a, e_d)| over all index triples."""
    cs = loop_codazzi(theta.entries, theta.square())
    return _max_abs(lambda a, b, d: cs[a][b][d] + cs[b][a][d])


def _nonzero(rng, lo=0.2, hi=3.0):
    """A magnitude bounded away from zero, with random sign."""
    return rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi)


def sample_row_params(rng, row, variant="cauchy"):
    """Random parameters for one classification-table row.

    Block discriminants are kept away from the float degeneracy band so
    classification never aborts on a borderline sample.
    """
    if row == "r3":
        return {"uu": rng.uniform(-3, 3)}
    if row == "e11":
        return {"a": _nonzero(rng), "b": rng.uniform(-2, 2),
                "uu": rng.uniform(-2, 2)}
    if row == "t2r_shear":
        return {"ul": _nonzero(rng), "un": rng.uniform(-2, 2)}
    if row == "t2r_block":
        params = {"T": _nonzero(rng), "angle": rng.uniform(0, 2 * np.pi)}
        if variant == "cauchy":
            params["uu"] = rng.uniform(-2, 2)
        return params
    if row == "t2r_mixed_l":
        return {"ul": _nonzero(rng), "ll": _nonzero(rng)}
    if row == "t2r_mixed_n":
        return {"un": _nonzero(rng), "nn": _nonzero(rng)}
    if row == "t2r_full":
        return {"ul": _nonzero(rng), "un": _nonzero(rng), "ln": _nonzero(rng)}
    if row == "tau3":
        while True:
            ll, ln, nn = _nonzero(rng), rng.uniform(-2, 2), _nonzero(rng)
            if abs(ll + nn) > 0.1 and abs(ll * nn - ln * ln) > 0.1:
                break
        params = {"ll": ll, "ln": ln, "nn": nn}
        if variant == "cauchy":
            params["uu"] = rng.uniform(-2, 2)
        return params
    raise ValueError(f"unknown row {row!r}")


def row_variants(row):
    """The table columns that admit a pair in this row."""
    if row in ("r3", "t2r_block"):
        return ("cauchy", "crf", "codazzi")
    if row == "tau3":
        return ("cauchy", "crf")
    return ("cauchy",)


def sample_families(rng, count):
    """Yield `count` FamilyResult samples cycling through all rows/variants."""
    cells = [(row, v) for row in ROW_IDS for v in row_variants(row)]
    for k in range(count):
        row, variant = cells[k % len(cells)]
        params = sample_row_params(rng, row, variant)
        yield classifier.enumerate_family(row, params, variant)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def gh_pp_metric_and_pair(data, box, n):
    """A pp-wave metric in a globally hyperbolic chart, with a parabolic pair.

    Uses coordinates (t, x, y1, y2) with null coordinate x+ = (x + t)/sqrt(2),
    so g = -dt^2 + dx^2 + k_{x+}.  Returns (metric, u, l) with u = dt + dx
    (dual to the parallel null direction up to scale) and l the transverse
    coframe row e^{f_l} dy1 + p dy2, which is unit and orthogonal to u.
    """
    from cauchypairs import spacetime_verifier as sv

    def xplus(t, x):
        return (x + t) / np.sqrt(2.0)

    def gfun(t, x, y1, y2):
        g11, g12, g22 = data.metric_components(xplus(t, x))
        g = np.zeros(t.shape + (4, 4))
        g[..., 0, 0] = -1.0
        g[..., 1, 1] = 1.0
        g[..., 2, 2] = g11
        g[..., 2, 3] = g[..., 3, 2] = g12
        g[..., 3, 3] = g22
        return g

    metric = sv.Metric4Grid.from_function(box, n, gfun)
    tt, xx, _, _ = metric.meshgrid()
    xp = xplus(tt, xx)
    u = np.zeros(metric.shape + (4,))
    u[..., 0] = 1.0
    u[..., 1] = 1.0
    l = np.zeros(metric.shape + (4,))
    l[..., 2] = np.exp(data.fl(xp))
    l[..., 3] = data.p(xp)
    return metric, u, l
