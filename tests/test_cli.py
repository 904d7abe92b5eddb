"""End-to-end tests of the command-line front end and the reproduce fixtures."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cauchypairs import cli, flow, spacetime_verifier as sv
from cauchypairs.errors import CauchyPairsError, ConfigInvalid

from conftest import traced_peak
from test_flow import whole_grid_plane_wave


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_non_dict_rejected(self):
        with pytest.raises(ConfigInvalid):
            cli.run(["not", "a", "config"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigInvalid):
            cli.run({"mode": "frobnicate"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigInvalid):
            cli.run({"mode": "verify-pair", "thetaa": {}})
        with pytest.raises(ConfigInvalid):
            cli.run({"mode": "verify-pair", "theta": {"xy": 1}})

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ConfigInvalid):
            cli.run({"mode": "verify-pair", "theta": {}, "tolerance": "lots"})

    def test_unknown_profile_kind_rejected(self):
        with pytest.raises(ConfigInvalid):
            cli.make_profile({"kind": "wavelet"})
        with pytest.raises(ConfigInvalid):
            cli.make_scalar_function({"kind": "wavelet"})

    def test_unknown_fixture_rejected(self):
        with pytest.raises(ConfigInvalid):
            cli.run({"mode": "reproduce", "fixture": "nope"})


class TestProfiles:
    """Every named profile and scalar-function kind, evaluated on arrays
    against its closed form, and run through a flow-diag config."""

    S, Y = np.array([0.0, 0.5, 2.0]), np.array([2.0, 2.0, -1.0])

    @pytest.mark.parametrize("spec, closed", [
        ({"kind": "const", "value": 1.5}, lambda s, y: 1.5 + 0 * s),
        ({"kind": "affine", "w1": 0.5, "w2": 1.0, "w1_y": 0.1, "w2_y": 0.2},
         lambda s, y: (0.5 + 0.1 * y) * s + 1.0 + 0.2 * y),
        ({"kind": "exp_affine", "w1": 2.0, "w2": -1.0, "rate": 0.3, "w1_y": 0.1},
         lambda s, y: (2.0 + 0.1 * y) * np.exp(0.3 * s) - 1.0),
        ({"kind": "exp", "rate": 0.3}, lambda s, y: np.exp(0.3 * s)),
    ], ids=["const", "affine", "exp_affine", "exp"])
    def test_profile_closed_form(self, spec, closed):
        values = cli.make_profile(spec)(self.S, self.Y)
        np.testing.assert_allclose(values, closed(self.S, self.Y), rtol=1e-15)
        assert values.shape == self.S.shape

    def test_profile_examples(self):
        affine = {"kind": "affine", "w1": 0.5, "w2": 1.0, "w1_y": 0.1, "w2_y": 0.2}
        assert cli.make_profile(affine)(0.5, 2.0) == pytest.approx(1.75, rel=1e-15)
        assert cli.make_profile({"kind": "exp", "rate": 0.3})(0.5, 0.0) \
            == pytest.approx(np.exp(0.15), rel=1e-15)

    @pytest.mark.parametrize("spec, closed", [
        ({"kind": "const", "value": 1.5}, lambda x: 1.5 + 0 * x),
        ({"kind": "affine", "w1": 0.5, "w2": 1.0}, lambda x: 0.5 * x + 1.0),
        ({"kind": "exp", "rate": 0.3}, lambda x: np.exp(0.3 * x)),
    ], ids=["const", "affine", "exp"])
    def test_scalar_function_closed_form(self, spec, closed):
        values = cli.make_scalar_function(spec)(self.S)
        np.testing.assert_allclose(values, closed(self.S), rtol=1e-15)
        assert values.shape == self.S.shape

    @pytest.mark.parametrize("family", [
        {"case": "B_nonzero", "a": 1.0, "b": 1.0,
         "Ll": {"kind": "affine", "w1": 0.5, "w2": 1.0, "w1_y": 0.1, "w2_y": 0.2}},
        {"case": "B_nonzero", "a": 1.0, "b": 1.0, "Ln": {"kind": "exp", "rate": 0.3}},
        {"case": "B_zero", "a": {"kind": "const", "value": 1.5}, "b": 0.0},
        {"case": "B_zero", "a": {"kind": "exp", "rate": 0.3}, "b": 0.0},
    ], ids=["profile-affine", "profile-exp", "scalar-const", "scalar-exp"])
    def test_flow_diag_runs_each_kind(self, family):
        report = cli.run(dict(FD_CONFIGS["flow-diag"], family=family))
        assert report["passed"]
        assert report["result"]["comoving_residual"]["max"] < 1e-6


class TestVerifyPair:
    def test_zero_theta_passes(self):
        report = cli.run({"mode": "verify-pair", "theta": {}})
        assert report["passed"]
        res = report["result"]
        assert res["integrability_residual"] == [0, 0]
        assert res["cohomology_residual"] == 0
        assert res["scalar_curvature"] == 0
        assert res["is_cauchy"] and res["is_unimodular"]

    def test_non_cauchy_theta_fails(self):
        report = cli.run(
            {"mode": "verify-pair", "theta": {"ul": 1, "ll": 1, "nn": -1}}
        )
        assert not report["passed"]

    @pytest.mark.parametrize("mode", ["verify-pair", "classify", "curvature"])
    def test_float_mode_reads_every_number_as_a_float(self, mode):
        # Theta = ul + ll has cohomology residual 1, within a tolerance of 10:
        # an integer and a rational string are read as the float 1.0 is
        config = {"mode": mode} if mode == "curvature" else {"mode": mode, "tolerance": 10}
        reports = [cli.run(dict(config, theta={"ul": one, "ll": one})) for one in (1, 1.0, "1")]
        # the JSON text tells 1 from 1.0 and "1"; the config echo differs
        seen = {json.dumps([r["passed"], r["result"], r["provenance"]]) for r in reports}
        assert len(seen) == 1
        assert reports[0]["provenance"]["exact"] is False
        if mode == "verify-pair":
            assert reports[0]["passed"]
            assert reports[0]["result"]["cohomology_residual"] == 1.0

    def test_exact_fractions_round_trip(self):
        report = cli.run(
            {"mode": "verify-pair",
             "theta": {"uu": "1", "ll": "1/2", "nn": "1"}},
            exact=True,
        )
        assert report["passed"]
        assert report["result"]["scalar_curvature"] == "-7/2"


class TestClassifyMode:
    def test_diag_0_1_m1_is_e11(self):
        report = cli.run(
            {"mode": "classify", "theta": {"ll": 1, "nn": -1}}
        )
        assert report["result"]["group"] == "E11"
        assert report["result"]["normal_form_residual"] < 1e-10

    def test_tau3_reports_mu(self):
        report = cli.run({"mode": "classify", "theta": {"ll": 2, "nn": 1}})
        assert report["result"]["group"] == "Tau3Mu"
        assert report["result"]["mu"] == pytest.approx(0.5)


class TestReports:
    def test_report_reproducible(self):
        cfg = {"mode": "classify", "theta": {"ll": 2, "ln": 0.5, "nn": 1}}
        a = cli.run(dict(cfg))
        b = cli.run(dict(cfg))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_provenance_fields(self, monkeypatch):
        report = cli.run({"mode": "verify-pair", "theta": {}}, tolerance=1e-8)
        prov = report["provenance"]
        assert prov["tool"] == "cauchypairs"
        assert prov["tolerance"] == 1e-8

    def test_render_text_has_verdict_line(self):
        report = cli.run({"mode": "verify-pair", "theta": {}})
        text = cli._render_text(report)
        assert text.splitlines()[-1] == "PASS"


class TestMainExitCodes:
    def test_missing_file_is_config_error(self, capsys):
        assert cli.main(["/does/not/exist.json"]) == 2

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert cli.main([str(path)]) == 2

    def test_schema_error_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode": "nope"})
        assert cli.main([str(path)]) == 2

    def test_passing_run_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode": "verify-pair", "theta": {}})
        assert cli.main([path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_check_exits_three(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"mode": "verify-pair", "theta": {"ul": 1, "ll": 1, "nn": -1}},
        )
        assert cli.main([path]) == 3

    def test_raised_check_error_exits_three(self, tmp_path, capsys):
        # classification rejects a non-Cauchy operator outright
        path = write_config(
            tmp_path,
            {"mode": "classify", "theta": {"ul": 1, "ll": 1, "nn": -1}},
        )
        assert cli.main([path]) == 3

    def test_json_reports_byte_identical_excluding_timestamp(
        self, tmp_path, capsys
    ):
        path = write_config(
            tmp_path, {"mode": "classify", "theta": {"ll": 2, "nn": 1}}
        )
        outs = []
        for _ in range(2):
            assert cli.main([path, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            payload.pop("timestamp")
            outs.append(json.dumps(payload, sort_keys=True).encode())
        assert outs[0] == outs[1]


class TestFlowModes:
    def test_flow_diag_config(self):
        report = cli.run({
            "mode": "flow-diag",
            "family": {
                "case": "B_nonzero", "a": 1.0, "b": 1.0,
                "Ll": {"kind": "exp_affine", "w1": 1.0, "w2": 1.0, "rate": 1.0},
                "Ln": {"kind": "const", "value": 2.0},
            },
            "interval": [0.0, 0.02],
            "box": [[0, 0.02], [0, 0.02], [0, 0.02]],
            "n": 17,
            "threshold": 1e-5,
        })
        assert report["passed"]
        assert report["result"]["ricci_flat_residual_max"] < 1e-5

    def test_flow_pp_config(self):
        report = cli.run({
            "mode": "flow-pp",
            "pp": {"a_l": 0.0, "b_l": -1.0, "a_n": 0.0, "b_n": 1.0, "c": 0.3},
            "box": [[-0.01, 0.01], [0, 1], [0, 1], [0, 1]],
            "n": [33, 5, 5, 5],
            "threshold": 1e-6,
        })
        assert report["passed"]
        assert max(report["result"]["ode_residual_max"]) == 0.0

    @staticmethod
    def stub_fd_checks(monkeypatch):
        """Let the FD Ricci and plane-wave checks of flow-pp pass, so that its
        ODE residuals alone decide the verdict."""
        monkeypatch.setattr(cli.sv, "ricci4_fd", lambda g, own: np.zeros(g.values[own].shape))
        monkeypatch.setattr(cli.flow, "plane_wave_check", lambda g, tol: {"passed": True})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_flow_pp_nan_ode_residual_fails(self, monkeypatch):
        # b_n = 1.0 is an x+ node, where the r_n profile divides by zero: its
        # ODE residual is NaN, after the finite r_l one
        self.stub_fd_checks(monkeypatch)
        report = cli.run({
            "mode": "flow-pp", "pp": {"a_l": 0.1, "b_l": -1.5, "b_n": 1.0, "c": 0.3},
            "box": [[1.0, 1.002], [0, 1], [0, 1], [0, 1]], "n": [9, 5, 5, 5],
        })
        r_l, r_n = report["result"]["ode_residual_max"]
        assert r_l == 0.0 and np.isnan(r_n)
        assert not report["passed"]

    def test_ppwave_fixture_nan_ode_residual_fails(self, monkeypatch):
        self.stub_fd_checks(monkeypatch)
        assert cli.run({"mode": "reproduce", "fixture": "ppwave"})["passed"]
        monkeypatch.setattr(cli.flow, "pp_ricci_residual",
                            lambda data, x: (np.zeros(len(x)), np.full(len(x), np.nan)))
        assert not cli.run({"mode": "reproduce", "fixture": "ppwave"})["passed"]

    def test_flow_diag_holds_one_sampled_family_at_a_time(self):
        # the coframe is freed before the obstruction samples the family
        # again: ~157 B per node, ~184 B with both alive
        n = 25
        peak = traced_peak(lambda: cli.run({
            "mode": "flow-diag", "family": {"case": "B_nonzero", "a": 1.0, "b": 1.0},
            "interval": [0.0, 0.01], "box": [[0, 0.01]] * 3, "n": n,
        }))
        assert peak < 170 * n**4

    def test_flow_pp_builds_its_terms_on_the_interior(self):
        # every term but g, its inverse and its whole-grid checks lives on
        # the nodes the norms read and their shell: ~1.46 kB per node, where
        # building every term on the whole grid took ~3.26 kB
        n = (17, 9, 9, 9)
        peak = traced_peak(lambda: cli.run({
            "mode": "flow-pp", "pp": {"c": 0.3},
            "box": [[-0.0005, 0.0005], [0, 1], [0, 1], [0, 1]], "n": n,
        }))
        assert peak < 1.8e3 * np.prod(n)

    def test_verify_spacetime_minkowski(self):
        report = cli.run({
            "mode": "verify-spacetime",
            "metric": {"kind": "minkowski"},
            "pair": {"u": [1, 1, 0, 0], "l": [0, 0, 1, 0]},
            "n": 9,
        })
        assert report["passed"]
        assert report["result"]["nabla_u_max"] == 0.0


class TestBoxRoute:
    """The 4D modes build each term only on the nodes its norm reads; every
    reported value equals the one rebuilt from the whole-grid kernels plus
    `interior_max4`."""

    PP = {"a_l": 0.1, "b_l": -1.5, "a_n": -0.2, "b_n": 1.2, "c": 0.4}

    @pytest.mark.parametrize("n", [(9, 7, 6, 8), (5, 5, 5, 5)])
    def test_flow_pp_report(self, n):
        box = ((-0.3, 0.3), (0, 1), (0, 1), (0, 1))
        report = cli.run({"mode": "flow-pp", "pp": self.PP, "box": box, "n": n})
        data = flow.PPWaveData.log_solution(**self.PP)
        g = flow.pp_metric(data, box, n)
        r_l, r_n = flow.pp_ricci_residual(data, g.axis(0))
        expected = {
            "ode_residual_max": [float(np.abs(r_l).max()), float(np.abs(r_n).max())],
            "ricci4_max": sv.interior_max4(sv.ricci4_fd(g)),
            "plane_wave": whole_grid_plane_wave(g, 1e-6),
        }
        assert expected["ricci4_max"] > 0 and expected["plane_wave"]["nabla_riemann"] > 0
        assert report["result"] == cli._fmt(expected)
        # and unrounded, from the kernels on the interior
        assert float(np.abs(sv.ricci4_fd(g, sv.INTERIOR)).max()) == expected["ricci4_max"]

    @pytest.mark.parametrize("n", [(9, 8, 7, 6), (5, 5, 5, 5)])
    def test_verify_spacetime_milne_report(self, n):
        a, b = 1.0, 0.5
        report = cli.run({"mode": "verify-spacetime", "metric": {"kind": "milne", "a": a, "b": b},
                          "pair": {"u": [1, 0, 0, 1], "l": [0, 0, 1, 0]}, "n": n})

        def gfun(t, x, y, z):
            out = np.zeros(t.shape + (4, 4))
            out[..., 0, 0] = -1.0
            out[..., 1, 1] = (a + b * t) ** 2
            out[..., 2, 2] = out[..., 3, 3] = 1.0
            return out

        g = sv.Metric4Grid.from_function(((0, 1),) * 4, n, gfun)
        u = np.broadcast_to([1.0, 0, 0, 1], g.shape + (4,)).copy()
        l = np.broadcast_to([0.0, 0, 1, 0], g.shape + (4,)).copy()
        nab_u, nab_l, kappa = sv.parallel_pair_residual(sv.ParabolicPairData(g, u, l))
        expected_u = sv.interior_max4(sv.covariant_derivative4(g, u))
        expected_l = sv.interior_max4(sv.covariant_derivative4(g, l)
                                      - kappa[..., :, None] * u[..., None, :])
        assert expected_u > 0  # l = dy is parallel on Milne space: expected_l is 0
        assert (nab_u, nab_l) == (expected_u, expected_l)
        assert report["result"] == cli._fmt({"nabla_u_max": expected_u,
                                             "nabla_l_residual_max": expected_l,
                                             "kappa_max": float(np.abs(kappa).max())})


class TestReproduceFixtures:
    @pytest.mark.parametrize(
        "fixture", ["tau3mu", "table", "diag1", "diag2", "ppwave", "universal"]
    )
    def test_fixture_passes(self, fixture):
        report = cli.run({"mode": "reproduce", "fixture": fixture})
        assert report["passed"], report["result"]

    def test_universal_holds_one_residual_slab(self):
        # the 33^3 residual is one slab, which holds only e, h and h^-1 at
        # each Christoffel set, and forms each set and each term one chunk
        # of at most BLOCK_NODES nodes at a time: ~17.8 MiB; the set's
        # partials on the whole box took ~21.9 MiB
        peak = traced_peak(lambda: cli.run({"mode": "reproduce", "fixture": "universal"}))
        assert peak < 19.5 * 2**20

    def test_tau3mu_numbers(self):
        report = cli.run({"mode": "reproduce", "fixture": "tau3mu"})
        cases = {c["mu"]: c for c in report["result"]["cases"]}
        assert cases["1/2"]["scalar_curvature"] == "-7/2"
        assert cases["1"]["scalar_curvature"] == "-6"
        # the Hamiltonian constraint holds only at mu = 1
        assert cases["1/2"]["hamiltonian_residual"] != "0"
        assert cases["1"]["hamiltonian_residual"] == "0"

    def test_table_lists_no_mismatches(self):
        report = cli.run({"mode": "reproduce", "fixture": "table"})
        for row in report["result"]["rows"]:
            assert row["mismatches"] == []
            assert row["group"] == row["expected_group"]


FD_CONFIGS = {
    "flow-diag": {
        "mode": "flow-diag",
        "family": {"case": "B_nonzero", "a": 1.0, "b": 1.0},
        "interval": [0.0, 0.02], "box": [[0, 0.02]] * 3, "n": 9,
    },
    "flow-pp": {
        "mode": "flow-pp", "pp": {"c": 0.3},
        "box": [[-0.0005, 0.0005], [0, 1], [0, 1], [0, 1]], "n": [5, 5, 5, 5],
    },
    "verify-spacetime": {
        "mode": "verify-spacetime", "metric": {"kind": "minkowski"},
        "box": [[0, 1]] * 4, "n": 5,
    },
}



class TestGridArguments:
    @pytest.mark.parametrize("mode", sorted(FD_CONFIGS))
    def test_valid_config_runs(self, mode):
        assert cli.run(FD_CONFIGS[mode])["passed"]

    @pytest.mark.parametrize("mode", sorted(FD_CONFIGS))
    @pytest.mark.parametrize("axes", [1, -1])
    def test_wrong_axis_count_rejected(self, mode, axes):
        box = FD_CONFIGS[mode]["box"]
        with pytest.raises(ConfigInvalid):
            cli.run(dict(FD_CONFIGS[mode], box=box[:axes] if axes > 0 else box + box[:1]))

    @pytest.mark.parametrize("mode", sorted(FD_CONFIGS))
    @pytest.mark.parametrize(
        "interval", [[0, "x"], [0, 1, 2], [0], [0, True], [1, 0], [0, 1e400], "0..1"]
    )
    def test_bad_box_interval_rejected(self, mode, interval):
        box = [interval] + FD_CONFIGS[mode]["box"][1:]
        with pytest.raises(ConfigInvalid):
            cli.run(dict(FD_CONFIGS[mode], box=box))
        if mode == "flow-diag":
            with pytest.raises(ConfigInvalid):
                cli.run(dict(FD_CONFIGS[mode], interval=interval))

    @pytest.mark.parametrize("mode", sorted(FD_CONFIGS))
    @pytest.mark.parametrize("n", ["7", 0, 7.0, True, [9, 5, 5], [9, 5, 5, "5"]])
    def test_bad_n_rejected(self, mode, n):
        with pytest.raises(ConfigInvalid):
            cli.run(dict(FD_CONFIGS[mode], n=n))

    @pytest.mark.parametrize("bad", [{"box": [[0, 1]]}, {"n": "7"}])
    def test_main_exits_two(self, tmp_path, capsys, bad):
        path = write_config(tmp_path, dict(FD_CONFIGS["verify-spacetime"], **bad))
        assert cli.main([path]) == 2
        assert "config error" in capsys.readouterr().err


FD_SMALL = FD_CONFIGS["verify-spacetime"]
THETA_CONFIG = {"mode": "verify-pair", "theta": {"ll": 2, "ln": 0.5, "nn": 1}}
REPRODUCE_CONFIG = {"mode": "reproduce", "fixture": "tau3mu"}
MILNE_CONFIG = dict(FD_SMALL, metric={"kind": "milne", "a": 1, "b": 0.001})

# (config, extra argv, exit code): malformed values exit 2, degenerate input 3
EXIT_CODE_TABLE = [
    (dict(THETA_CONFIG, theta={"ll": "abc"}), [], 2),
    (dict(THETA_CONFIG, theta={"ll": "1/0"}), [], 2),
    (dict(THETA_CONFIG, theta={"ll": float("nan")}), ["--exact"], 2),
    (dict(THETA_CONFIG, theta={"uu": 1e308, "ll": 1e308}), [], 2),
    (dict(THETA_CONFIG, theta={"ll": 10**400}), [], 2),
    (dict(FD_CONFIGS["flow-diag"], family={"case": "B_nonzero", "a": "x", "b": 1.0}), [], 2),
    (dict(FD_CONFIGS["flow-diag"], family={"case": "B_nonzero", "a": 1.0, "b": "x"}), [], 2),
    (dict(FD_CONFIGS["flow-diag"], family={
        "case": "B_nonzero", "a": 1.0, "b": 1.0, "Ll": {"kind": "affine", "w1": "x"}}), [], 2),
    (dict(FD_CONFIGS["flow-diag"], family={
        "case": "B_nonzero", "a": 1.0, "b": 1.0, "Ll": {"kind": "exp", "rate": "x"}}), [], 2),
    (dict(FD_CONFIGS["flow-pp"], pp={"a_l": "x"}), [], 2),
    (dict(FD_CONFIGS["flow-pp"], threshold="x"), [], 2),
    (dict(FD_SMALL, pair={"u": [1, 1]}), [], 2),
    (dict(FD_SMALL, pair={"u": ["a", 1, 0, 0]}), [], 2),
    (dict(FD_SMALL, metric={"kind": "milne", "a": "x"}), [], 2),
    ({"mode": "reproduce", "fixture": ["table"]}, [], 2),
    (dict(THETA_CONFIG, tolerance=-1), [], 2),
    (dict(THETA_CONFIG, tolerance="nan"), [], 2),
    (dict(THETA_CONFIG, tolerance=True), [], 2),
    (dict(THETA_CONFIG, mode="classify", tolerance=-1), [], 2),
    (dict(THETA_CONFIG, mode="classify", tolerance="nan"), [], 2),
    (dict(THETA_CONFIG, mode="classify", tolerance=True), [], 2),
    (dict(FD_SMALL, threshold=-1), [], 2),
    # regular operators that cancelling closed forms would refuse
    ({"mode": "classify", "theta": {"ll": 1, "nn": -1, "ln": 1e8}}, [], 0),
    ({"mode": "classify",
      "theta": {"uu": 1e16, "ll": 1e16, "nn": 1e16, "ln": "-7/3"}}, [], 0),
    ({"mode": "classify", "theta": {"ll": 1e-3, "nn": -1e-3, "ln": 1e-3, "ul": 2e-9}}, [], 3),
    # every entry vanishes to a tolerance of 1e308, so Theta is classified
    # as the abelian operator, as it is when its integers are written as floats
    (dict(THETA_CONFIG, mode="classify", tolerance=1e308), [], 0),
    (dict(FD_SMALL, metric={"kind": "milne", "a": 0, "b": 1}), [], 3),
    (dict(FD_SMALL, metric={"kind": "milne", "a": 1, "b": -1}), [], 3),
    # g^-1(u, u) = 1e400 overflows to inf - inf = NaN, which must not pass
    (dict(FD_SMALL, pair={"u": [1e200, 1e200, 1e200, 0]}), [], 3),
    # a setting that the mode does not read is refused
    (FD_CONFIGS["flow-pp"], ["--exact"], 2),
    (FD_SMALL, ["--exact"], 2),
    (REPRODUCE_CONFIG, ["--exact"], 2),
    (dict(FD_CONFIGS["flow-diag"], tolerance=1e-9), [], 2),
    (dict(THETA_CONFIG, mode="curvature", tolerance=1e-9), [], 2),
    (dict(REPRODUCE_CONFIG, tolerance=1e-9), [], 2),
    (FD_CONFIGS["flow-pp"], ["--tolerance", "1e-9"], 2),
    # g^-1(u, u) = -2.0e-3 on a Milne pair: the pair algebra is held to
    # PAIR_TOL, and no tolerance loosens it
    (MILNE_CONFIG, [], 3),
    (dict(MILNE_CONFIG, tolerance=0.1), [], 2),
    # e^(f_l + f_n) underflows to 0: the transverse determinant delta <= 0
    ({"mode": "flow-pp", "pp": {"a_l": -400, "a_n": -400}}, [], 3),
    # a spacing whose h^-3 overflows is refused before sampling, so no
    # difference quotient of it overflows
    ({"mode": "flow-pp", "pp": {"a_l": 0.3, "c": 0.2},
      "box": [[-1e-200, 1e-200], [0, 1], [0, 1], [0, 1]]}, [], 3),
]


@pytest.mark.parametrize("config, extra, code", EXIT_CODE_TABLE)
def test_exit_code_table(tmp_path, capsys, config, extra, code):
    assert cli.main([write_config(tmp_path, config)] + extra) == code
    err = capsys.readouterr().err
    assert {0: err == "", 2: "config error" in err, 3: "check failed" in err}[code]


MODE_CONFIGS = dict(
    FD_CONFIGS, reproduce=REPRODUCE_CONFIG,
    **{mode: dict(THETA_CONFIG, mode=mode) for mode in ("verify-pair", "classify", "curvature")},
)


@pytest.mark.parametrize("mode", cli.MODES)
def test_settings_only_in_the_modes_that_read_them(tmp_path, capsys, mode):
    config, keys = MODE_CONFIGS[mode], cli.HANDLERS[mode][1]
    reads = {"tolerance": "tolerance" in keys, "exact": "theta" in keys}
    report = cli.run(config)
    assert set(report["provenance"]) == {"tool", "version"} | {k for k in reads if reads[k]}
    assert ("tolerance = " in cli._render_text(report)) == reads["tolerance"]
    for setting, cfg, extra in [("tolerance", dict(config, tolerance=1e-8), []),
                                ("tolerance", config, ["--tolerance", "1e-8"]),
                                ("exact", config, ["--exact"])]:
        code = cli.main([write_config(tmp_path, cfg)] + extra)
        err = capsys.readouterr().err
        assert (code == 2 and "config error" in err) != reads[setting], (setting, err)


# small valid configs with every key of their blocks and profiles present
FUZZ_BASES = [
    THETA_CONFIG,
    dict(THETA_CONFIG, mode="classify", tolerance=1e-9),
    {"mode": "curvature", "theta": {"uu": "1", "ll": "1/2", "nn": "1"}},
    dict(FD_CONFIGS["flow-diag"], threshold=1e-5, family={
        "case": "B_nonzero", "a": 1.0, "b": 1.0,
        "Ll": {"kind": "exp_affine", "w1": 1.0, "w2": 1.0, "rate": 1.0,
               "w1_y": 0.0, "w2_y": 0.0},
        "Ln": {"kind": "const", "value": 2.0}}),
    dict(FD_CONFIGS["flow-diag"], family={
        "case": "B_zero", "a": {"kind": "affine", "w1": 0.5, "w2": 1.0}, "b": 0.0}),
    dict(FD_CONFIGS["flow-pp"], threshold=1e-6,
         pp={"a_l": 0.0, "b_l": -1.0, "a_n": 0.0, "b_n": 1.0, "c": 0.3}),
    dict(FD_SMALL, threshold=1e-6, metric={"kind": "milne", "a": 1.0, "b": 0.0},
         pair={"u": [1, 1, 0, 0], "l": [0, 0, 1, 0]}),
    REPRODUCE_CONFIG,
]


def _sites(cfg, path=()):
    """Paths of every top-level key and of every key inside a block or profile."""
    for key, value in cfg.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _sites(value, path + (key,))


FUZZ_SITES = [(i, site) for i, cfg in enumerate(FUZZ_BASES) for site in _sites(cfg)]
HOSTILE = ["x", "1/0", "nan", "1e400", None, True, [], [1], [1, 2], {},
           float("nan"), float("inf"), -float("inf"), 1e308, 10**400, -1, 0, 1.5]


def _replaced(cfg, site, value):
    out = dict(cfg)
    inner = out
    for key in site[:-1]:
        inner[key] = dict(inner[key])
        inner = inner[key]
    inner[site[-1]] = value
    return out


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(FUZZ_SITES), st.sampled_from(HOSTILE))
def test_fuzzed_configs_raise_only_typed_errors(site, value):
    index, path = site
    # no grid may be sized by a large count: the memory budget is not enforced
    if path == ("n",) and isinstance(value, int) and not isinstance(value, bool):
        value = min(value, 9)
    config = _replaced(FUZZ_BASES[index], path, value)
    for exact in (False, True):
        try:
            report = cli.run(config, exact=exact)
        except CauchyPairsError:
            continue
        assert isinstance(report["passed"], bool)
