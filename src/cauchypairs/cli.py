"""Command-line front end: config ingestion, dispatch, and report emission.

Usage: cauchypairs <config.json> [--json] [--tolerance X] [--exact]

The config is a single JSON document with a "mode" key selecting the
operation; unknown keys are rejected, and so are --tolerance and --exact
in a mode that does not read them.  Exit codes: 0 all requested checks
passed, 2 invalid configuration, 3 a check failed, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, classifier, coordinate_fields as cf, flow
from . import grid as fd
from . import frame_core as fc
from . import spacetime_verifier as sv
from .errors import CauchyPairsError, ConfigInvalid
from .frame_core import DEFAULT_TOL, THETA_MAX, ShapeOperator

THETA_KEYS = ("uu", "ul", "un", "ll", "ln", "nn")


def _fail(msg: str):
    raise ConfigInvalid(msg)


def _check_keys(block, allowed, where: str):
    if not isinstance(block, dict):
        _fail(f"{where} must be a JSON object, got {block!r}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        _fail(f"unknown keys {unknown} in {where}")


def _block(cfg: dict, key: str, allowed) -> dict:
    """The JSON-object block `cfg[key]` (empty when absent), keys checked."""
    block = cfg.get(key, {})
    _check_keys(block, allowed, f"{key} block")
    return block


def _is_real(v) -> bool:
    """A finite JSON number, not a bool; huge ints compare exactly, never overflow."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and -sys.float_info.max <= v <= sys.float_info.max


def _real(block: dict, key: str, default, where: str = "", nonneg: bool = False):
    """`block[key]` (`default` when absent): a finite number, >= 0 if `nonneg`."""
    v = block.get(key, default)
    if not _is_real(v) or (nonneg and v < 0):
        _fail(f"{where}{key} must be a finite{' non-negative' * nonneg} number, got {v!r}")
    return float(v)


def _vector(value, size: int, where: str) -> tuple:
    """A list of `size` finite JSON numbers, as floats."""
    if not (isinstance(value, (list, tuple)) and len(value) == size
            and all(_is_real(v) for v in value)):
        _fail(f"{where} must be a list of {size} finite numbers, got {value!r}")
    return tuple(float(v) for v in value)


def _number(value, exact: bool, where: str):
    """A Theta entry: a JSON number, or a string parsed as an exact rational;
    at most THETA_MAX in magnitude, and rationalized under `exact`, a float
    otherwise, so that an integer or a rational string is read in float mode
    as its float."""
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(f"{where} is not a rational literal: {value!r}")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where} must be a number, got {value!r}")
    if not abs(value) <= THETA_MAX:
        _fail(f"{where} must be finite with magnitude <= {THETA_MAX:g}, got {value!r}")
    if not exact:
        return float(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    return Fraction(value)


def _interval(value, where: str):
    """A [lo, hi] pair of finite JSON numbers with lo < hi, as floats."""
    lo, hi = _vector(value, 2, f"{where} interval")
    if not lo < hi:
        _fail(f"{where} intervals need lo < hi, got {value!r}")
    return lo, hi


def _box_and_n(cfg: dict, default_box, default_n):
    """The `box` (as many intervals as `default_box`) and `n` of an FD mode;
    every FD mode samples a 4D grid, so `n` is one count or a list of four."""
    box = cfg.get("box", default_box)
    if not isinstance(box, (list, tuple)) or len(box) != len(default_box):
        _fail(f"box must list {len(default_box)} axis intervals, got {box!r}")
    box = tuple(_interval(ab, "box") for ab in box)
    n = cfg.get("n", default_n)
    counts = tuple(n) if isinstance(n, (list, tuple)) else (n,) * 4
    if len(counts) != 4 or not all(type(v) is int and v > 0 for v in counts):
        _fail(f"n must be a positive integer or a list of four, got {n!r}")
    return box, counts


def _theta_from(cfg: dict, exact: bool) -> ShapeOperator:
    block = _block(cfg, "theta", THETA_KEYS)
    comps = {k: _number(block.get(k, 0), exact, f"theta.{k}") for k in THETA_KEYS}
    return ShapeOperator.from_components(**comps)


def _fmt(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, str, int, type(None))):
        return x
    if isinstance(x, float):
        return float(f"{x:.12e}")
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return _fmt(x.tolist())
    if isinstance(x, (np.floating, np.integer)):
        return _fmt(float(x))
    return str(x)


# ---------------------------------------------------------------------------
# named profile functions for family parameters
# ---------------------------------------------------------------------------

PROFILE_DEFAULTS = {"value": 1.0, "w1": 1.0, "w2": 0.0, "rate": 1.0, "w1_y": 0.0, "w2_y": 0.0}


def _profile_params(spec, where: str, names=tuple(PROFILE_DEFAULTS)):
    """The `kind` of a named-function block and its `names` parameters."""
    _check_keys(spec, ("kind",) + names, where)
    return spec.get("kind"), [_real(spec, k, PROFILE_DEFAULTS[k], f"{where}.") for k in names]


def make_profile(spec: dict, where: str = "profile"):
    """Build a two-argument profile function from a named description.

    kinds: "const" (value), "affine" (w1*s + w2), "exp_affine"
    (w1*exp(rate*s) + w2), "exp" (exp(rate*s)).  Optional w1_y / w2_y add a
    linear dependence w_i + w_i_y * y on the second argument.
    """
    kind, (value, w1, w2, rate, w1y, w2y) = _profile_params(spec, where)
    if kind == "const":
        return lambda s, y: value + 0.0 * s
    if kind == "affine":
        return lambda s, y: (w1 + w1y * y) * s + (w2 + w2y * y)
    if kind == "exp_affine":
        return lambda s, y: (w1 + w1y * y) * np.exp(rate * s) + (w2 + w2y * y)
    if kind == "exp":
        return lambda s, y: np.exp(rate * s)
    _fail(f"unknown profile kind {kind!r}")


def make_scalar_function(spec: dict, where: str = "scalar function"):
    """One-argument named function: "const", "affine" or "exp"."""
    kind, (value, w1, w2, rate) = _profile_params(spec, where, ("value", "w1", "w2", "rate"))
    if kind == "const":
        return lambda x: value + 0.0 * np.asarray(x, dtype=float)
    if kind == "affine":
        return lambda x: w1 * np.asarray(x, dtype=float) + w2
    if kind == "exp":
        return lambda x: np.exp(rate * np.asarray(x, dtype=float))
    _fail(f"unknown scalar function kind {kind!r}")


# ---------------------------------------------------------------------------
# mode handlers: each returns (body dict, passed bool)
# ---------------------------------------------------------------------------


def _run_verify_pair(cfg, tolerance, exact):
    theta = _theta_from(cfg, exact)
    i1, i2 = fc.integrability_residual(theta)
    coh = fc.cohomology_residual(theta)
    ric, asym = fc.ricci_frame(theta)
    body = {
        "integrability_residual": [i1, i2],
        "cohomology_residual": coh,
        "is_cauchy": fc.is_cauchy(theta, tolerance),
        "is_unimodular": fc.is_unimodular(theta, tolerance),
        "scalar_curvature": fc.scalar_curvature(theta),
        "ricci": [list(r) for r in ric],
        "ricci_asymmetry": asym,
        "hamiltonian_residual": fc.hamiltonian_residual(theta),
        "momentum_residual": list(fc.momentum_residual(theta)),
        "constrained_ricci_flat_residual": fc.constrained_ricci_flat_residual(theta),
        "codazzi": fc.codazzi_predicate(theta, tolerance),
        "codazzi_by_conditions": fc.codazzi_predicate_conditions(theta, tolerance),
    }
    return body, bool(body["is_cauchy"])


def _run_classify(cfg, tolerance, exact):
    theta = _theta_from(cfg, exact)
    group, change = classifier.classify(theta, tolerance)
    residual = classifier.normal_form_verify(theta, change)
    body = {
        "group": group.tag,
        "mu": group.mu,
        "change_case": change.case,
        "change_matrix": [list(r) for r in np.asarray(change.matrix, dtype=float)],
        "normal_form_residual": residual,
    }
    return body, True


def _run_curvature(cfg, exact):
    theta = _theta_from(cfg, exact)
    ric, asym = fc.ricci_frame(theta)
    body = {
        "ricci": [list(r) for r in ric],
        "ricci_asymmetry": asym,
        "scalar_curvature": fc.scalar_curvature(theta),
        "hamiltonian_residual": fc.hamiltonian_residual(theta),
        "momentum_residual": list(fc.momentum_residual(theta)),
    }
    return body, True


def _family_from(cfg):
    fam_cfg = _block(cfg, "family", ("case", "a", "b", "Ll", "Ln"))
    case = fam_cfg.get("case")
    if case not in ("B_nonzero", "B_zero"):
        _fail(f"family case must be B_nonzero or B_zero, got {case!r}")
    a = fam_cfg.get("a")
    a = make_scalar_function(a, "family.a") if isinstance(a, dict) \
        else _real(fam_cfg, "a", 1.0, "family.")
    b = _real(fam_cfg, "b", 0.0, "family.")
    ll = make_profile(fam_cfg.get("Ll", {"kind": "const"}), "family.Ll")
    ln = make_profile(fam_cfg.get("Ln", {"kind": "const"}), "family.Ln")
    fam = flow.DiagonalFamily(case=case, a=a, b=b, Ll=ll, Ln=ln)
    interval = _interval(cfg.get("interval", (0.0, 1.0)), "interval")
    box, n = _box_and_n(cfg, ((0, 1), (0, 1), (0, 1)), 17)
    return fam, interval, box, n


def _run_flow_diag(cfg):
    fam, interval, box, n = _family_from(cfg)
    threshold = _real(cfg, "threshold", 1e-6, nonneg=True)
    coframe = flow.diagonal_solution(fam, interval, box, n)
    report = flow.comoving_residual(coframe)
    estimate = flow.primitive_error_estimate(fam, coframe)
    del coframe  # the obstruction samples the family again
    rf = flow.diagonal_ricci_flat_residual(fam, interval, box, n)
    body = {
        "comoving_residual": report,
        "ricci_flat_residual_max": fd.interior_max(rf, 2),
        "primitive_error_estimate": estimate,
    }
    return body, report["max"] <= threshold


PP_DEFAULTS = {"a_l": 0.0, "b_l": -1.0, "a_n": 0.0, "b_n": 1.0, "c": 0.0}


def _run_flow_pp(cfg):
    pp_cfg = _block(cfg, "pp", PP_DEFAULTS)
    data = flow.PPWaveData.log_solution(
        **{k: _real(pp_cfg, k, v, "pp.") for k, v in PP_DEFAULTS.items()}
    )
    box, n = _box_and_n(cfg, ((-0.3, 0.3), (0, 1), (0, 1), (0, 1)), (33, 5, 5, 5))
    threshold = _real(cfg, "threshold", 1e-6, nonneg=True)
    g = flow.pp_metric(data, box, n)
    r_l, r_n = flow.pp_ricci_residual(data, g.axis(0))
    ric = sv.ricci4_fd(g, sv.INTERIOR)
    pw = flow.plane_wave_check(g, tol=threshold)
    body = {
        "ode_residual_max": [float(np.abs(r_l).max()), float(np.abs(r_n).max())],
        "ricci4_max": fd.max_abs(ric),
        "plane_wave": pw,
    }
    passed = (
        np.max(body["ode_residual_max"]) <= threshold  # NaN propagates
        and body["ricci4_max"] <= threshold
        and pw["passed"]
    )
    return body, passed


def _run_verify_spacetime(cfg):
    metric_cfg = _block(cfg, "metric", ("kind", "a", "b"))
    kind = metric_cfg.get("kind", "minkowski")
    if kind not in ("minkowski", "milne"):
        _fail(f"unknown metric kind {kind!r}")
    box, n = _box_and_n(cfg, ((0, 1), (0, 1), (0, 1), (0, 1)), 9)
    # Minkowski is the Milne form -dt^2 + (a + b t)^2 dx^2 + dy^2 + dz^2 at a = 1, b = 0
    milne = kind == "milne"
    a = _real(metric_cfg, "a", 1.0, "metric.") if milne else 1.0
    b = _real(metric_cfg, "b", 1.0, "metric.") if milne else 0.0

    def gfun(t, x, y, z):
        out = np.zeros(t.shape + (4, 4))
        out[..., 0, 0] = -1.0
        out[..., 1, 1] = (a + b * t) ** 2
        out[..., 2, 2] = 1.0
        out[..., 3, 3] = 1.0
        return out

    g = sv.Metric4Grid.from_function(box, n, gfun)
    pair_cfg = _block(cfg, "pair", ("u", "l"))
    u_const = _vector(pair_cfg.get("u", (1, 1, 0, 0)), 4, "pair.u")
    l_const = _vector(pair_cfg.get("l", (0, 0, 1, 0)), 4, "pair.l")
    threshold = _real(cfg, "threshold", 1e-6, nonneg=True)
    u = np.broadcast_to(u_const, g.shape + (4,))  # read-only views
    l = np.broadcast_to(l_const, g.shape + (4,))
    nab_u, nab_l, kappa = sv.parallel_pair_residual(sv.ParabolicPairData(g, u, l))
    body = {
        "nabla_u_max": nab_u,
        "nabla_l_residual_max": nab_l,
        "kappa_max": float(np.abs(kappa).max()),
    }
    return body, nab_u <= threshold and nab_l <= threshold


# ---------------------------------------------------------------------------
# reproduce fixtures
# ---------------------------------------------------------------------------


def _fixture_tau3mu():
    rows = []
    ok = True
    for mu in (Fraction(1, 2), Fraction(1, 1)):
        theta = ShapeOperator.diagonal(1, mu, 1)
        r = fc.scalar_curvature(theta)
        ham = fc.hamiltonian_residual(theta)
        expect_r = -2 * (1 + mu + mu * mu)
        rows.append({
            "mu": str(mu),
            "scalar_curvature": str(r),
            "expected": str(expect_r),
            "hamiltonian_residual": str(ham),
        })
        ok = ok and r == expect_r and (ham == 0) == (mu == 1)
    return {"cases": rows}, ok


def _fixture_table():
    samples = [
        ("r3", {"uu": 5.0}, "cauchy"),
        ("e11", {"a": 1.0, "b": 0.5, "uu": 0.3}, "cauchy"),
        ("t2r_shear", {"ul": 1.0, "un": 2.0}, "cauchy"),
        ("t2r_block", {"T": 1.5, "angle": 0.7, "uu": 0.2}, "cauchy"),
        ("t2r_block", {"T": 1.5, "angle": 0.7}, "crf"),
        ("t2r_block", {"T": 1.5, "angle": 0.7}, "codazzi"),
        ("t2r_mixed_l", {"ul": 1.0, "ll": 2.0}, "cauchy"),
        ("t2r_mixed_n", {"un": 1.0, "nn": -1.5}, "cauchy"),
        ("t2r_full", {"ul": 1.0, "un": 2.0, "ln": 0.5}, "cauchy"),
        ("tau3", {"ll": 2.0, "ln": 0.5, "nn": 1.0, "uu": 0.4}, "cauchy"),
        ("tau3", {"ll": 2.0, "ln": 0.5, "nn": 1.0}, "crf"),
    ]
    rows = []
    ok = True
    for row, params, variant in samples:
        fam = classifier.enumerate_family(row, params, variant)
        group, change = classifier.classify(fam.theta)
        residual = classifier.normal_form_verify(fam.theta, change)
        entry = {
            "row": row,
            "variant": variant,
            "group": group.tag,
            "expected_group": classifier.ROW_GROUP[row],
            "normal_form_residual": residual,
            "flags": fam.flags,
            "expected_flags": fam.expected,
            "mismatches": list(fam.mismatches),
        }
        rows.append(entry)
        ok = ok and group.tag == classifier.ROW_GROUP[row]
        ok = ok and residual < 1e-10 and not fam.mismatches
    return {"rows": rows}, ok


def _fixture_diag(case):
    if case == 1:
        fam = flow.DiagonalFamily(
            case="B_nonzero", a=1.0, b=1.0,
            Ll=lambda s, y: 1.0 + 0.0 * s, Ln=lambda s, z: 1.0 + 0.0 * s,
        )
        interval, box = (0.0, 0.05), ((0, 0.05), (0, 0.05), (0, 0.05))
    else:
        fam = flow.DiagonalFamily(
            case="B_zero", a=lambda x: 1.0, b=0.0,
            Ll=lambda s, y: np.exp(s), Ln=lambda s, z: 1.0 + 0.0 * s,
            a_primitive=lambda x: x,
        )
        interval, box = (0.0, 0.01), ((0, 0.01), (0, 0.01), (0, 0.01))
    report = flow.comoving_residual(flow.diagonal_solution(fam, interval, box, 17))
    return {"comoving_residual": report}, report["max"] <= 1e-6


PPWAVE_CONFIG = {
    "mode": "flow-pp", "pp": {"a_l": 0.0, "b_l": -1.0, "a_n": 0.0, "b_n": 1.0, "c": 0.3},
    "box": [[-0.01, 0.01], [0, 1], [0, 1], [0, 1]], "n": [33, 5, 5, 5], "threshold": 1e-6,
}


def _fixture_ppwave():
    body, passed = _run_flow_pp(PPWAVE_CONFIG)
    # the log profiles have exact derivatives, so the ODE residuals vanish
    return body, passed and np.max(body["ode_residual_max"]) == 0.0


def _fixture_universal():
    grid = cf.FieldGrid.from_function(
        ((0, 0.02), (0, 0.02), (0, 0.02)), 33, lambda x, y, z: 0.0 * x
    )
    F = cf.warped_F_for_ricci_flat(lambda x: x, grid)
    data = cf.UniversalCoverData(
        grid, hx=lambda x: np.exp(2 * x) * np.eye(2), F=lambda x: -1.0
    )
    theta = cf.build_universal_theta(data)
    coframe = data.coframe_grid()
    report = cf.constraint_residual_fd(coframe, theta)
    body = {
        "warped_F_sample": float(F[0]),
        "constraint_residual": report,
        "mixed_residual": data.mixed_residual,
    }
    ok = abs(float(F[0]) + 1.0) <= 1e-6 and report["max"] <= 1e-6
    return body, ok


def _run_reproduce(cfg):
    fixture = cfg.get("fixture")
    table = {
        "tau3mu": _fixture_tau3mu,
        "table": _fixture_table,
        "diag1": lambda: _fixture_diag(1),
        "diag2": lambda: _fixture_diag(2),
        "ppwave": _fixture_ppwave,
        "universal": _fixture_universal,
    }
    if not isinstance(fixture, str) or fixture not in table:
        _fail(f"unknown fixture {fixture!r}; choose from {sorted(table)}")
    body, ok = table[fixture]()
    body["fixture"] = fixture
    return body, ok


FD_KEYS = ("box", "n", "threshold")
# mode -> (handler, its top-level keys besides "mode"): the whole config
# schema.  A row that lists "tolerance" reads it (config key or --tolerance),
# and one that lists "theta" reads --exact; every other mode refuses both.
HANDLERS = {
    "verify-pair": (_run_verify_pair, ("theta", "tolerance")),
    "classify": (_run_classify, ("theta", "tolerance")),
    "curvature": (_run_curvature, ("theta",)),
    "flow-diag": (_run_flow_diag, ("family", "interval") + FD_KEYS),
    "flow-pp": (_run_flow_pp, ("pp",) + FD_KEYS),
    "verify-spacetime": (_run_verify_spacetime, ("metric", "pair") + FD_KEYS),
    "reproduce": (_run_reproduce, ("fixture",)),
}
MODES = tuple(HANDLERS)


def _reading(key: str) -> str:
    """The modes whose `HANDLERS` row lists `key`."""
    return ", ".join(mode for mode, (_, keys) in HANDLERS.items() if key in keys)


def run(config: dict, tolerance=None, exact: bool = False) -> dict:
    """Execute one config document and return the full report."""
    if not isinstance(config, dict):
        _fail("config must be a JSON object")
    mode = config.get("mode")
    if mode not in MODES:
        _fail(f"mode must be one of {MODES}, got {mode!r}")
    handler, keys = HANDLERS[mode]
    _check_keys(config, ("mode",) + keys, "config")
    settings = {}
    if "tolerance" in keys:
        source = config if tolerance is None else {"tolerance": tolerance}
        settings["tolerance"] = _real(source, "tolerance", DEFAULT_TOL, nonneg=True)
    elif tolerance is not None:
        _fail(f"only {_reading('tolerance')} read a tolerance, not {mode}")
    if "theta" in keys:
        settings["exact"] = exact
    elif exact:
        _fail(f"--exact applies only to {_reading('theta')}, not to {mode}")
    body, passed = handler(config, **settings)
    return {
        "command": {"mode": mode, "config": _fmt(config)},
        "result": _fmt(body),
        # the settings the mode read, beside the tool
        "provenance": {"tool": "cauchypairs", "version": __version__, **settings},
        "passed": bool(passed),
    }


def _render_text(report: dict) -> str:
    lines = [f"cauchypairs {report['provenance']['version']} — mode "
             f"{report['command']['mode']}"]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in obj:
                walk(f"{prefix}{k}.", obj[k])
        else:
            lines.append(f"  {prefix[:-1]} = {obj}")

    walk("", report["result"])
    if "tolerance" in report["provenance"]:
        lines.append(f"tolerance = {report['provenance']['tolerance']}")
    lines.append("PASS" if report["passed"] else "FAIL")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cauchypairs",
        description="Verification toolkit for parallel-spinor Cauchy data",
    )
    parser.add_argument("config", help="path to a JSON config document")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the machine-readable report")
    parser.add_argument("--tolerance", type=float, default=None,
                        help=f"override the config tolerance ({_reading('tolerance')})")
    parser.add_argument("--exact", action="store_true",
                        help=f"parse the theta block exactly ({_reading('theta')})")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    started = time.time()
    try:
        report = run(config, tolerance=args.tolerance, exact=args.exact)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CauchyPairsError as exc:
        print(f"check failed: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 4

    report_out = dict(report)
    report_out["timestamp"] = started
    if args.as_json:
        print(json.dumps(report_out, sort_keys=True))
    else:
        print(_render_text(report))
    return 0 if report["passed"] else 3


if __name__ == "__main__":
    sys.exit(main())
