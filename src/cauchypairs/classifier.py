"""Classification of left-invariant Cauchy pairs by their simply connected group.

Given an admissible shape operator, `classify` identifies the group
(abelian R^3, E(1,1), tau_2 (+) R, or tau_{3,mu}) carrying the pair, and
returns an explicit invertible coframe change taking the induced structure
coefficients to the group's normal form.  `enumerate_family` generates the
admissible shape operators of each classification table row and recomputes
the constrained-Ricci-flat and Codazzi flags from first principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import frame_core as fc
from .errors import DegenerateCase, ParamOutOfRange, RejectsNonCauchy
from .frame_core import DEFAULT_TOL, ShapeOperator, StructureData

ABELIAN_R3 = "AbelianR3"
E11 = "E11"
TAU2_PLUS_R = "Tau2PlusR"
TAU3_MU = "Tau3Mu"


@dataclass(frozen=True)
class GroupClass:
    """Tagged classification result; `mu` is set only for the Tau3Mu tag."""

    tag: str
    mu: float | None = None

    def __post_init__(self):
        if self.tag == TAU3_MU:
            if self.mu is None or not (-1 < self.mu <= 1) or self.mu == 0:
                raise DegenerateCase(
                    f"tau_3 parameter mu={self.mu} outside (-1, 1] \\ {{0}}",
                    margin=self.mu,
                )
        elif self.mu is not None:
            raise ParamOutOfRange("mu is only meaningful for the Tau3Mu tag")


@dataclass(frozen=True)
class CoframeChange:
    """Invertible change of coframe f_i = sum_j matrix[i][j] e_j, e = (e_u, e_l, e_n).

    `target` holds the structure coefficients the transformed coframe must
    reproduce; `case` labels which construction produced the matrix.
    """

    matrix: tuple
    case: str
    target: tuple

    def matrix_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)

    def target_array(self) -> np.ndarray:
        return np.array(self.target, dtype=float)


def _target(entries) -> tuple:
    """Build an antisymmetric-completed coefficient array from (k, i, j, value)."""
    t = np.zeros((3, 3, 3))
    for k, i, j, v in entries:
        t[k][i][j] = v
        t[k][j][i] = -v
    return tuple(tuple(tuple(row) for row in plane) for plane in t)


TARGET_R3 = _target([])
TARGET_E11 = _target([(0, 1, 2, 1), (1, 0, 2, 1)])
TARGET_T2R = _target([(0, 0, 2, 1)])


def _target_tau3(mu: float) -> tuple:
    return _target([(0, 0, 2, 1), (1, 1, 2, mu)])


def transform_structure(d: StructureData, m: np.ndarray) -> np.ndarray:
    """Structure coefficients of the coframe f = m e: f_k = sum m[k][j] e_j."""
    arr = np.array(d.d, dtype=float)
    minv = np.linalg.inv(m)
    return np.einsum("km,mpq,pi,qj->kij", m, arr, minv, minv)


def classify(theta: ShapeOperator, tol: float = DEFAULT_TOL):
    """Identify the group of a left-invariant Cauchy pair with shape operator theta.

    Returns (GroupClass, CoframeChange); the change is verified internally to
    reproduce the normal form.  Raises RejectsNonCauchy when the integrability
    or cohomology residual exceeds `tol`, and DegenerateCase when `tol` cannot
    separate a vanishing from a non-vanishing discriminant (float mode only).
    """
    exact = theta.is_exact
    residuals = fc.cauchy_residuals(theta)
    if not all(fc.is_zero(r, tol) for r in residuals):
        raise RejectsNonCauchy(
            f"integrability/cohomology residuals {tuple(map(float, residuals))} exceed {tol}"
        )

    delta = theta.block_det
    if not exact and tol < abs(float(delta)) <= 10 * tol:
        raise DegenerateCase(
            f"|Delta| = {abs(float(delta))} within a decade of tolerance {tol}",
            margin=abs(float(delta)),
        )

    if fc.is_unimodular(theta, tol):
        if fc.is_zero(delta, tol):
            group = GroupClass(ABELIAN_R3)
            change = CoframeChange(
                matrix=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                case="abelian-identity",
                target=TARGET_R3,
            )
        else:
            group = GroupClass(E11)
            change = _e11_change(theta, tol)
    else:
        if fc.is_zero(delta, tol):
            group = GroupClass(TAU2_PLUS_R)
            change = _t2r_change(theta, tol)
        else:
            mu, change = _tau3_change(theta, tol)
            group = GroupClass(TAU3_MU, mu=mu)

    res = normal_form_verify(theta, change)
    # square roots force float evaluation even for exact input, hence 1e-10
    if res > max(1e-10, 10 * tol):
        raise DegenerateCase(
            f"normal-form residual {res} too large for case {change.case}", margin=res
        )
    return group, change


def normal_form_verify(theta: ShapeOperator, change: CoframeChange) -> float:
    """Max deviation of the transformed structure coefficients from the target."""
    d = fc.structure_from_theta(theta)
    got = transform_structure(d, change.matrix_array())
    return float(np.max(np.abs(got - change.target_array())))


def _e11_change(theta: ShapeOperator, tol: float) -> CoframeChange:
    a = float(theta.ll)
    b = float(theta.ln)
    if abs(a) <= tol:
        # pure off-diagonal block: (e_l, e_n, Theta_ln e_u) already normal form
        m = ((0, 1, 0), (0, 0, 1), (b, 0, 0))
        return CoframeChange(matrix=m, case="e11-offdiagonal", target=TARGET_E11)
    # the rotation by beta, half the angle of (b, a) taken in [0, 2 pi):
    # hypot and atan2 neither cancel nor overflow for any finite block
    r = math.hypot(a, b)  # = sqrt|Delta| here
    beta = (math.atan2(a, b) % (2 * math.pi)) / 2
    cosb, sinb = math.cos(beta), math.sin(beta)
    m = ((0, cosb, -sinb), (0, sinb, cosb), (r, 0, 0))
    return CoframeChange(matrix=m, case="e11-rotation", target=TARGET_E11)


def _t2r_change(theta: ShapeOperator, tol: float) -> CoframeChange:
    t = float(theta.block_trace)
    s = np.array([float(theta.ul), float(theta.un)])
    if abs(t) <= tol:
        # vanishing transverse block; the shear covector alone generates the algebra
        if not s.any():  # an exact nonzero T within tol: no coframe change exists
            raise DegenerateCase(f"T = {t} and the shear both vanish to tol", margin=abs(t))
        m = ((1, 0, 0), (0, s[1], -s[0]), (0, -s[0], -s[1]))
        return CoframeChange(matrix=m, case="t2r-shear", target=TARGET_T2R)
    if np.hypot(s[0], s[1]) <= tol:
        block = np.array(
            [[float(theta.ll), float(theta.ln)], [float(theta.ln), float(theta.nn)]]
        )
        col = block[:, 0] if abs(block[0, 0]) >= abs(block[1, 1]) else block[:, 1]
        v = col / np.linalg.norm(col)
        q = np.array([-v[1], v[0]])
        m = ((0, v[0], v[1]), (0, q[0], q[1]), (t, 0, 0))
        return CoframeChange(matrix=m, case="t2r-block", target=TARGET_T2R)
    k = float(np.hypot(s[0], s[1]))
    v = s / k
    q = np.array([-v[1], v[0]])
    m = ((1, 0, 0), (0, q[0], q[1]), (t, -k * v[0], -k * v[1]))
    return CoframeChange(matrix=m, case="t2r-general", target=TARGET_T2R)


def _tau3_change(theta: ShapeOperator, tol: float):
    t = float(theta.block_trace)
    tll, tln, tnn = float(theta.ll), float(theta.ln), float(theta.nn)
    if abs(tln) > tol:
        # sign(T) needs T != 0, which holds exactly here; in float mode a shear just
        # above tol can bring a pair with T = 0 to this branch
        if abs(t) <= tol:
            raise DegenerateCase(f"tau_3 block trace T = {t} within tol", margin=abs(t))
        # the eigenvalue lam of the sign of T and mev = Delta / lam, with
        # sq = sqrt(T^2 - 4 Delta) > 0 by hypot: no step cancels
        sq = math.hypot(tll - tnn, 2 * tln)
        lam = (t + math.copysign(sq, t)) / 2
        # |mu| <= 1 exactly; a rounding of Delta / lam^2 above 1 is cut back
        mu = min(float(theta.block_det) / lam / lam, 1.0)
        # the eigenvector slopes (lam - tll) / tln and (mev - tll) / tln: the
        # one whose numerator (tnn - tll +- sq) / 2 adds like signs, and -1
        # over it for the other, as the two eigenvectors are orthogonal
        d = tnn - tll
        s = 1.0 if d >= 0 else -1.0
        big = (d + s * sq) / 2 / tln
        k_lam, k_mev = (big, -1 / big) if (s > 0) == (t > 0) else (-1 / big, big)
        m = ((0, 1, k_lam), (0, 1, k_mev), (lam, 0, 0))
        return mu, CoframeChange(matrix=m, case="tau3-offdiagonal",
                                 target=_target_tau3(mu))
    if abs(tll) >= abs(tnn):
        mu = tnn / tll
        m = ((0, 1, 0), (0, 0, 1), (tll, 0, 0))
        case = "tau3-diag-l"
    else:
        mu = tll / tnn
        m = ((0, 0, 1), (0, 1, 0), (tnn, 0, 0))
        case = "tau3-diag-n"
    return mu, CoframeChange(matrix=m, case=case, target=_target_tau3(mu))


# ---------------------------------------------------------------------------
# table families
# ---------------------------------------------------------------------------

ROW_IDS = (
    "r3",
    "e11",
    "t2r_shear",
    "t2r_block",
    "t2r_mixed_l",
    "t2r_mixed_n",
    "t2r_full",
    "tau3",
)

ROW_GROUP = {
    "r3": ABELIAN_R3,
    "e11": E11,
    "t2r_shear": TAU2_PLUS_R,
    "t2r_block": TAU2_PLUS_R,
    "t2r_mixed_l": TAU2_PLUS_R,
    "t2r_mixed_n": TAU2_PLUS_R,
    "t2r_full": TAU2_PLUS_R,
    "tau3": TAU3_MU,
}


@dataclass(frozen=True)
class FamilyResult:
    """A table-row shape operator with recomputed and expected admissibility flags."""

    row: str
    variant: str
    theta: ShapeOperator
    flags: dict = field(compare=False)
    expected: dict = field(compare=False)
    mismatches: tuple = ()


def _require(cond: bool, msg: str):
    if not cond:
        raise ParamOutOfRange(msg)


def enumerate_family(row: str, params: dict, variant: str = "cauchy") -> FamilyResult:
    """Build the shape operator of one classification-table row.

    `variant` selects the column: "cauchy" (general admissible form),
    "crf" (constrained-Ricci-flat form) or "codazzi".  For rows whose table
    cell reads "not allowed" the crf/codazzi variants raise ParamOutOfRange.
    The returned flags are recomputed from the curvature predicates; any
    disagreement with the table's cells is listed in `mismatches` rather
    than suppressed.
    """
    if row not in ROW_IDS:
        raise ParamOutOfRange(f"unknown table row {row!r}")
    if variant not in ("cauchy", "crf", "codazzi"):
        raise ParamOutOfRange(f"unknown variant {variant!r}")

    theta, expected = _build_row(row, dict(params), variant)

    flags = {
        "cauchy": fc.is_cauchy(theta, DEFAULT_TOL),
        "constrained_rf": fc.is_zero(fc.constrained_ricci_flat_residual(theta), DEFAULT_TOL),
        "codazzi": fc.codazzi_predicate(theta, DEFAULT_TOL),
    }
    mismatches = tuple(
        k for k in ("cauchy", "constrained_rf", "codazzi") if flags[k] != expected[k]
    )
    return FamilyResult(
        row=row, variant=variant, theta=theta, flags=flags,
        expected=expected, mismatches=mismatches,
    )


def _build_row(row: str, p: dict, variant: str):
    not_allowed = {"cauchy": True, "constrained_rf": False, "codazzi": False}
    if row == "r3":
        uu = p.get("uu", 0)
        theta = ShapeOperator.from_components(uu=uu)
        return theta, {"cauchy": True, "constrained_rf": True, "codazzi": True}
    if row == "e11":
        _require(variant == "cauchy", "E(1,1) admits no crf or Codazzi pairs")
        a, b = p.get("a", 0), p.get("b", 0)
        _require(a * a + b * b != 0, "E(1,1) row needs a^2 + b^2 != 0")
        theta = ShapeOperator.from_components(uu=p.get("uu", 0), ll=a, nn=-a, ln=b)
        return theta, not_allowed
    if row == "t2r_shear":
        _require(variant == "cauchy", "shear row admits no crf or Codazzi pairs")
        ul, un = p.get("ul", 0), p.get("un", 0)
        _require(ul * ul + un * un != 0, "shear row needs ul^2 + un^2 != 0")
        theta = ShapeOperator.from_components(ul=ul, un=un)
        return theta, not_allowed
    if row == "t2r_block":
        t = p["T"]
        _require(t != 0, "block row needs T != 0")
        c, s = _unit(p.get("angle", 0))
        uu = t if variant in ("crf", "codazzi") else p.get("uu", 0)
        theta = ShapeOperator.from_components(
            uu=uu, ll=t * c * c, ln=t * c * s, nn=t * s * s
        )
        # bool(): a Python bool in the table cell for numpy-scalar params too
        allowed = bool(fc.is_zero(uu - t))
        return theta, {"cauchy": True, "constrained_rf": allowed, "codazzi": allowed}
    if row == "t2r_mixed_l":
        _require(variant == "cauchy", "mixed row admits no crf or Codazzi pairs")
        ul, ll = p["ul"], p["ll"]
        _require(ul != 0 and ll != 0, "mixed row needs ul != 0 and ll != 0")
        theta = ShapeOperator.from_components(uu=-ll, ul=ul, ll=ll)
        return theta, not_allowed
    if row == "t2r_mixed_n":
        _require(variant == "cauchy", "mixed row admits no crf or Codazzi pairs")
        un, nn = p["un"], p["nn"]
        _require(un != 0 and nn != 0, "mixed row needs un != 0 and nn != 0")
        theta = ShapeOperator.from_components(uu=-nn, un=un, nn=nn)
        return theta, not_allowed
    if row == "t2r_full":
        _require(variant == "cauchy", "full shear row admits no crf or Codazzi pairs")
        ul, un, ln = p["ul"], p["un"], p["ln"]
        _require(ul != 0 and un != 0 and ln != 0,
                 "full shear row needs ul, un, ln all nonzero")
        ll = ul * ln / un
        nn = un * ln / ul
        theta = ShapeOperator.from_components(
            uu=-(ll + nn), ul=ul, un=un, ll=ll, ln=ln, nn=nn
        )
        return theta, not_allowed
    # row == "tau3"
    _require(variant in ("cauchy", "crf"), "tau_3 admits no Codazzi pairs")
    ll, ln, nn = p["ll"], p.get("ln", 0), p["nn"]
    t = ll + nn
    delta = ll * nn - ln * ln
    _require(t != 0 and delta != 0, "tau_3 row needs T != 0 and Delta != 0")
    uu = (t * t - 2 * delta) / t if variant == "crf" else p.get("uu", 0)
    theta = ShapeOperator.from_components(uu=uu, ll=ll, ln=ln, nn=nn)
    crf_ok = bool(fc.is_zero(uu - (t * t - 2 * delta) / t))
    return theta, {"cauchy": True, "constrained_rf": crf_ok, "codazzi": False}


def _unit(angle):
    return math.cos(float(angle)), math.sin(float(angle))
