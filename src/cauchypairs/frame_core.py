"""Exact/float algebra of left-invariant Cauchy pairs in an orthonormal frame.

All tensors are stored as frame components with the fixed index order
(u, l, n) = (0, 1, 2).  Arithmetic is plain Python, so `fractions.Fraction`
entries propagate exactly; float entries fall back to binary64.  Predicates
take an absolute tolerance (default 1e-9) which is ignored for exact inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CauchyPairsError

U, L, N = 0, 1, 2
AXES = (U, L, N)

DEFAULT_TOL = 1e-9
# bound on |Theta| float entries: the degree-3 residuals then stay inside binary64
THETA_MAX = 1e100


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _finite(x) -> bool:
    if _is_exact(x):
        return True
    return math.isfinite(x)


def is_zero(x, tol: float = DEFAULT_TOL) -> bool:
    """Zero test: exact for int/Fraction entries, |x| <= tol otherwise."""
    if _is_exact(x):
        return x == 0
    return abs(x) <= tol


def _symmetrized(m):
    """3x3 tuple of m with each unequal off-diagonal pair replaced by its mean.

    `(x + y) / 2`, not `Fraction(x + y, 2)`, so that float-mode int entries
    still average to a float.
    """
    return tuple(
        tuple(m[a][b] if m[a][b] == m[b][a] else (m[a][b] + m[b][a]) / 2 for b in AXES)
        for a in AXES
    )


def _tensor(entry):
    """Nested 3x3x3 tuple whose [i][j][k] component is entry(i, j, k)."""
    return tuple([
        tuple([(entry(i, j, U), entry(i, j, L), entry(i, j, N)) for j in AXES])
        for i in AXES
    ])


class _Frozen:
    """Immutable value type: __init__ sets its slots through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class ShapeOperator(_Frozen):
    """Symmetric 3x3 frame-component matrix of the shape operator.

    Entries may be int/Fraction (exact mode) or float.  NaN/inf entries, float
    entries above THETA_MAX in magnitude and asymmetric input are rejected at
    construction: exact entries must be symmetric, float ones to 1e-12 of
    the largest |entry|, and that round-off is symmetrised away.
    """

    __slots__ = ("entries",)

    def __init__(self, matrix):
        rows = [tuple(row) for row in matrix]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise CauchyPairsError("shape operator must be 3x3")
        for r in rows:
            for x in r:
                if not (_is_exact(x) or abs(x) <= THETA_MAX):
                    raise CauchyPairsError(
                        f"shape operator entries must be finite, with float "
                        f"magnitude <= {THETA_MAX:g}")
        for a in AXES:
            for b in AXES:
                if rows[a][b] != rows[b][a]:
                    da = rows[a][b] - rows[b][a]
                    scale = max(abs(float(x)) for r in rows for x in r)
                    # relative to the largest |entry|, so the verdict does
                    # not change when Theta is rescaled
                    if _is_exact(da) or abs(da) > 1e-12 * scale:
                        raise CauchyPairsError("shape operator must be symmetric")
        # symmetrize away float round-off so invariants hold exactly
        object.__setattr__(self, "entries", _symmetrized(rows))

    @classmethod
    def from_components(cls, uu=0, ul=0, un=0, ll=0, ln=0, nn=0):
        return cls([[uu, ul, un], [ul, ll, ln], [un, ln, nn]])

    @classmethod
    def zero(cls):
        return cls.from_components()

    @classmethod
    def diagonal(cls, uu, ll, nn):
        return cls.from_components(uu=uu, ll=ll, nn=nn)

    def __getitem__(self, ab):
        a, b = ab
        return self.entries[a][b]

    def __eq__(self, other):
        return isinstance(other, ShapeOperator) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ShapeOperator({[list(r) for r in self.entries]})"

    @property
    def uu(self):
        return self.entries[U][U]

    @property
    def ul(self):
        return self.entries[U][L]

    @property
    def un(self):
        return self.entries[U][N]

    @property
    def ll(self):
        return self.entries[L][L]

    @property
    def ln(self):
        return self.entries[L][N]

    @property
    def nn(self):
        return self.entries[N][N]

    @property
    def trace(self):
        return self.uu + self.ll + self.nn

    @property
    def block_trace(self):
        """T = theta_ll + theta_nn: trace of the restriction to ker(e_u)."""
        return self.ll + self.nn

    @property
    def block_det(self):
        """Delta = theta_ll theta_nn - theta_ln^2."""
        return self.ll * self.nn - self.ln * self.ln

    @property
    def norm_sq(self):
        return sum(self.entries[a][b] ** 2 for a in AXES for b in AXES)

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(x) for r in self.entries for x in r)

    def square(self):
        """Frame components of theta o theta (matrix square)."""
        t = self.entries
        return tuple(
            tuple(sum(t[a][m] * t[m][b] for m in AXES) for b in AXES) for a in AXES
        )

    def row(self, a):
        """Covector theta(e_a) in frame components."""
        return self.entries[a]


class StructureData(_Frozen):
    """Exterior-derivative coefficients of a left-invariant coframe.

    `d[k][i][j]` is antisymmetric in (i, j) and encodes
    d e^k = sum_{i<j} d[k][i][j] e^i wedge e^j in the frame (e_u, e_l, e_n).
    """

    __slots__ = ("d",)

    def __init__(self, coeffs):
        d = tuple(tuple(tuple(row) for row in plane) for plane in coeffs)
        for k in AXES:
            for i in AXES:
                for j in AXES:
                    if d[k][i][j] != -d[k][j][i]:
                        raise CauchyPairsError("structure data must be antisymmetric in (i, j)")
                    if not _finite(d[k][i][j]):
                        raise CauchyPairsError("structure data must be finite")
        object.__setattr__(self, "d", d)

    def __getitem__(self, kij):
        k, i, j = kij
        return self.d[k][i][j]

    def __eq__(self, other):
        return isinstance(other, StructureData) and self.d == other.d

    def __repr__(self):
        return f"StructureData({[[list(r) for r in p] for p in self.d]})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def structure_from_theta(theta: ShapeOperator) -> StructureData:
    """Exterior system of a left-invariant Cauchy pair: d e_a = theta(e_a) ^ e_u."""
    return StructureData(
        ((0, -l, -n), (l, 0, 0), (n, 0, 0)) for _, l, n in map(theta.row, AXES)
    )


def integrability_residual(theta: ShapeOperator):
    """The two bilinears whose vanishing is d o d = 0 for the induced structure."""
    return (
        theta.ll * theta.un - theta.ln * theta.ul,
        theta.ln * theta.un - theta.nn * theta.ul,
    )


def cohomology_residual(theta: ShapeOperator):
    """(theta_ul^2 + theta_un^2) Tr(theta); zero iff theta(e_u) is exact."""
    return (theta.ul ** 2 + theta.un ** 2) * theta.trace


def cauchy_residuals(theta: ShapeOperator):
    i1, i2 = integrability_residual(theta)
    return (i1, i2, cohomology_residual(theta))


def is_cauchy(theta: ShapeOperator, tol: float = DEFAULT_TOL) -> bool:
    return all(is_zero(r, tol) for r in cauchy_residuals(theta))


def is_unimodular(theta: ShapeOperator, tol: float = DEFAULT_TOL) -> bool:
    """Unimodularity of the underlying group: T = 0 and theta_ul = theta_un = 0."""
    return (
        is_zero(theta.block_trace, tol)
        and is_zero(theta.ul, tol)
        and is_zero(theta.un, tol)
    )


def connection_cauchy(theta: ShapeOperator):
    """Levi-Civita connection of a parallel Cauchy pair, as nested [c][b][a]
    with nabla_{e_b} e_a = sum_c gamma[c][b][a] e_c:

    nabla_{e_b} e_a = -delta_{au} theta(e_b) + theta(e_a, e_b) e_u.
    """
    t = theta.entries

    def entry(c, b, a):
        val = t[a][b] if c == U else 0
        if a == U:
            val = val - t[b][c]
        return val

    return _tensor(entry)


def nabla_theta(theta: ShapeOperator):
    """Covariant derivative (nabla_{e_a} theta)_{bc}, returned as nested [a][b][c].

    (nabla_a theta) = -theta(e_u) x theta(e_a) - theta(e_a) x theta(e_u)
                      + (theta o theta)(e_a) x e_u + e_u x (theta o theta)(e_a).
    """
    t = theta.entries
    t2 = theta.square()

    def entry(a, b, c):
        val = -t[U][b] * t[a][c] - t[a][b] * t[U][c]
        if c == U:
            val = val + t2[a][b]
        if b == U:
            val = val + t2[a][c]
        return val

    return _tensor(entry)


def divergence_theta(theta: ShapeOperator):
    """div theta = -Tr(theta) theta(e_u) + |theta|^2 e_u, in frame components."""
    tr = theta.trace
    nsq = theta.norm_sq
    return tuple(
        -tr * theta[U, c] + (nsq if c == U else 0) for c in AXES
    )


def ricci_frame(theta: ShapeOperator):
    """Ricci of the pair metric, term by term, symmetrized.

    Returns (ric, asymmetry_norm): `ric` symmetric 3x3 nested tuple, and the
    max-abs of the pre-symmetrization antisymmetric part.
    Ric = theta o theta - Tr(theta) theta + (dTr - div theta) x e_u
          + nabla_{e_u} theta - (nabla theta)(e_u),
    with dTr(theta) = 0 in the left-invariant case and
    ((nabla theta)(e_u))_{bc} = (nabla_{e_b} theta)_{uc}.
    """
    t2 = theta.square()
    tr = theta.trace
    div = divergence_theta(theta)
    nt = nabla_theta(theta)
    raw = [
        [
            t2[b][c]
            - tr * theta[b, c]
            + (-div[b] if c == U else 0)
            + nt[U][b][c]
            - nt[b][U][c]
            for c in AXES
        ]
        for b in AXES
    ]
    asym = max(abs(float(raw[b][c] - raw[c][b])) for b in AXES for c in AXES)
    return _symmetrized(raw), asym


def scalar_curvature(theta: ShapeOperator):
    """R = |theta|^2 - Tr(theta)^2 - 2 (div theta(e_u) - dTr(e_u)); dTr = 0 here."""
    div = divergence_theta(theta)
    return theta.norm_sq - theta.trace ** 2 - 2 * div[U]


def hamiltonian_residual(theta: ShapeOperator):
    """R - |theta|^2 + Tr(theta)^2; zero iff the Hamiltonian constraint holds."""
    return scalar_curvature(theta) - theta.norm_sq + theta.trace ** 2


def momentum_residual(theta: ShapeOperator):
    """dTr(theta) - div theta in frame components; dTr = 0 in the invariant case."""
    div = divergence_theta(theta)
    return tuple(-x for x in div)


def constrained_ricci_flat_residual(theta: ShapeOperator):
    """theta_uu Tr(theta) - |theta|^2; zero iff the pair is constrained Ricci-flat."""
    return theta.uu * theta.trace - theta.norm_sq


def _codazzi_entry(t, t2, a, b, c):
    """(C_a)_{bc} of the obstruction tensors C_a, a = u, l, n, from the entries
    t of theta and t2 of theta o theta:

    C_a = e_u x (theta o theta)(e_a) - theta(e_u) x theta(e_a)
          - delta_{ua} theta o theta + theta_{ua} theta.
    """
    val = -t[U][b] * t[a][c] + t[U][a] * t[b][c]
    if b == U:
        val = val + t2[a][c]
    if a == U:
        val = val - t2[b][c]
    return val


def codazzi_predicate(theta: ShapeOperator, tol: float = DEFAULT_TOL) -> bool:
    """True iff all C_a vanish (to tolerance); stops at the first entry that does not."""
    t, t2 = theta.entries, theta.square()
    return all(
        is_zero(_codazzi_entry(t, t2, a, b, c), tol)
        for a in AXES for b in AXES for c in AXES
    )


def codazzi_predicate_conditions(theta: ShapeOperator, tol: float = DEFAULT_TOL) -> bool:
    """Independent Codazzi route through the two closed-form conditions:

    either theta_ul = theta_un = theta_ln = 0 with theta_ll^2 = theta_ll theta_uu
    and theta_nn^2 = theta_nn theta_uu, or theta(e_u) = T e_u with Delta = 0.
    """
    if not (is_zero(theta.ul, tol) and is_zero(theta.un, tol)):
        return False
    bullet1 = (
        is_zero(theta.ln, tol)
        and is_zero(theta.ll ** 2 - theta.ll * theta.uu, tol)
        and is_zero(theta.nn ** 2 - theta.nn * theta.uu, tol)
    )
    bullet2 = (
        is_zero(theta.uu - theta.block_trace, tol)
        and is_zero(theta.block_det, tol)
    )
    return bullet1 or bullet2

