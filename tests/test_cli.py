import json
from unittest import mock

import pytest

from rvol import cli
from rvol.bergomi import BergomiParams
from rvol.cli import main
from rvol.tables import table_rows


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelCommand:
    def test_single_interval_csv(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        code, stdout, _ = run_cli(
            capsys,
            [
                "kernel",
                "--method", "riemann-mid",
                "--hurst", "0.25",
                "--n", "1",
                "--truncation", "1.0",
                "--out", str(out),
            ],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,rho"
        assert len(lines) == 2
        summary = json.loads(stdout)
        assert summary["n_factors"] == 1

    def test_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "geometric", "hurst": 0.05, "n": 10, "tail_ratio": 3.0}))
        out = tmp_path / "k.csv"
        code, stdout, _ = run_cli(
            capsys, ["kernel", "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["n_factors"] == 20
        assert out.exists()

    def test_systematic_error_report(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            ["kernel", "--method", "systematic", "--hurst", "0.05", "--n", "80", "--horizon", "1.0"],
        )
        assert code == 0
        summary = json.loads(stdout)
        assert abs(summary["l2_error"] - 0.084) / 0.084 <= 0.10

    def test_invalid_method(self, capsys):
        code, _, err = run_cli(capsys, ["kernel", "--hurst", "0.2", "--n", "4"])
        assert code == 1
        assert "error" in err

    def test_default_split_matches_table_t4(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            [
                "kernel",
                "--method", "simpson",
                "--node-rule", "barycentric",
                "--hurst", "0.25",
                "--n", "16",
            ],
        )
        assert code == 0
        l2_sq_n = {row[0]: row[2] for row in table_rows("t4")[1]}
        assert json.loads(stdout)["l2_error_sq"] == l2_sq_n[0.25]

    def test_simpson_requires_order_two(self, capsys):
        code, stdout, err = run_cli(
            capsys, ["kernel", "--method", "simpson", "--n", "16", "--order", "4"]
        )
        assert (code, stdout) == (1, "")
        assert err == "error: Simpson rule is the J = 2 Newton-Cotes rule\n"


class TestTableCommand:
    def test_systematic_table(self, tmp_path, capsys):
        out = tmp_path / "t6.csv"
        code, _, _ = run_cli(capsys, ["table", "--id", "t6", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "H,n_total,l2_error"
        assert len(lines) == 7

    def test_convergence_table_to_stdout(self, capsys):
        code, stdout, _ = run_cli(capsys, ["table", "--id", "t2"])
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("H,n,")
        assert len(lines) == 4
        rate = float(lines[1].split(",")[-1])
        assert abs(rate - 0.80) <= 0.01

    def test_pricing_table_paths_passthrough(self, capsys):
        # uppercase id accepted; small path count only widens the CI
        code, stdout, _ = run_cli(capsys, ["table", "--id", "T7", "--paths", "300"])
        assert code == 0
        lines = stdout.splitlines()
        header = lines[0].split(",")
        assert header[0] == "N"
        assert "volterra_mean" in header and "hybrid_mean" in header
        assert len(lines) == 7
        first = lines[1].split(",")
        assert float(first[2]) > 1e-3  # wide half-width at 300 paths

    @pytest.mark.parametrize(
        "flags, names",
        [
            (["--paths", "7", "--seed", "3", "--workers", "2"], "--paths, --seed, --workers"),
            (["--seed", "0"], "--seed"),
            (["--paper-scale"], "--paper-scale"),
        ],
    )
    def test_deterministic_table_rejects_mc_flags(self, capsys, flags, names):
        # `table --id t1 --paths 7 --seed 3 --workers 2` once printed t1, ignoring all three
        code, stdout, err = run_cli(capsys, ["table", "--id", "t1", *flags])
        assert (code, stdout) == (1, "")
        assert err == f"error: table 't1' runs no Monte Carlo; it reads no {names}\n"

    def test_deterministic_table_takes_worker_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("RVOL_WORKERS", "2")
        code, stdout, _ = run_cli(capsys, ["table", "--id", "t1"])
        assert code == 0 and len(stdout.splitlines()) == 4


class TestPriceCommand:
    def test_heston_json(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            [
                "price",
                "--model", "heston",
                "--scheme", "multifactor-truncated",
                "--steps", "10",
                "--paths", "4000",
                "--seed", "1",
            ],
        )
        assert code == 0
        report = json.loads(stdout)
        assert 0.04 < report["mean"] < 0.08
        assert report["paths"] == 4000

    def test_single_path_deterministic(self, capsys):
        argv = [
            "price",
            "--model", "heston",
            "--scheme", "multifactor-truncated",
            "--steps", "4",
            "--paths", "1",
            "--seed", "11",
        ]
        code_a, out_a, _ = run_cli(capsys, argv)
        code_b, out_b, _ = run_cli(capsys, argv)
        assert code_a == code_b == 0
        report_a = json.loads(out_a)
        report_b = json.loads(out_b)
        report_a.pop("wall_seconds")
        report_b.pop("wall_seconds")
        assert report_a == report_b
        assert report_a["half_width_95"] == 0.0

    def test_invalid_combo(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["price", "--model", "bergomi", "--scheme", "hybrid", "--steps", "4", "--paths", "10"],
        )
        assert code == 1
        assert "error" in err


class TestInputErrors:
    PRICE = ["price", "--model", "heston", "--scheme", "volterra", "--steps", "2", "--paths", "8"]

    @pytest.mark.parametrize("env", ["abc", "0"])
    def test_bad_worker_environment(self, monkeypatch, capsys, env):
        monkeypatch.setenv("RVOL_WORKERS", env)
        code, stdout, err = run_cli(capsys, self.PRICE)
        assert (code, stdout) == (1, "")
        assert err == f"error: RVOL_WORKERS must be a positive integer, got {env!r}\n"

    def test_zero_worker_flag(self, capsys):
        code, stdout, err = run_cli(capsys, self.PRICE + ["--workers", "0"])
        assert (code, stdout) == (1, "")
        assert err == "error: workers must be >= 1, got 0\n"

    def test_worker_flag_overrides_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("RVOL_WORKERS", "abc")
        code, stdout, _ = run_cli(capsys, self.PRICE + ["--workers", "2"])
        assert code == 0 and json.loads(stdout)["paths"] == 8

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"method": "geometric", "n": 10}, "'hurst' is required"),
            ({"method": "geometric", "hurst": 0.05}, "'n' is required"),
            ([{"method": "geometric", "hurst": 0.05, "n": 10}], "must be a JSON object"),
            ({"method": "geometric", "hurst": 0.05, "n": [10]}, "'n' must be an integer"),
            ({"method": "geometric", "hurst": 0.05, "n": 10.7}, "'n' must be an integer"),
            ({"method": "geometric", "hurst": 0.05, "n": True}, "'n' must be an integer"),
            ({"method": "geometric", "hurst": "0.1", "n": 10}, "'hurst' must be a number"),
            ({"method": "simpson", "hurst": 0.1, "n": 10, "order": 2.0}, "'order' must be an"),
            ({"method": "geometric", "hurst": 0.1, "n": 10, "tail_ratio": None}, "must be a number"),
            (
                {"method": "systematic", "hurst": 0.1, "n": 10, "truncation": 5},
                "method 'systematic' does not read 'truncation'",
            ),
            (
                {"method": "riemann-bary", "hurst": 0.1, "n": 8, "beta": 0.5},
                "method 'riemann-bary' does not read 'beta'",
            ),
            (
                {"method": "geometric", "hurst": 0.1, "n": 10, "order": 4},
                "method 'geometric' does not read 'order'",
            ),
            (
                {"method": "riemann-mid", "hurst": 0.1, "n": 8, "node_rule": "barycentric"},
                "method 'riemann-mid' does not read 'node_rule'",
            ),
            (
                {"method": "geometric", "hurst": 0.1, "n": 10, "truncaton": 5, "beta": 0.5},
                "method 'geometric' does not read 'truncaton', 'beta'",
            ),
        ],
        ids=[
            "no-hurst",
            "no-n",
            "top-level-list",
            "n-list",
            "n-fraction",
            "n-bool",
            "hurst-string",
            "order-float",
            "tail-ratio-null",
            "systematic-truncation",
            "riemann-beta",
            "geometric-order",
            "riemann-mid-node-rule",
            "misspelt-key",
        ],
    )
    def test_bad_kernel_config(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, stdout, err = run_cli(capsys, ["kernel", "--config", str(path)])
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--method", "systematic", "--truncation", "5"], "'systematic' does not read --truncation"),
            (["--method", "riemann-bary", "--beta", "0.5"], "'riemann-bary' does not read --beta"),
            (["--method", "geometric", "--order", "4"], "'geometric' does not read --order"),
            (
                ["--method", "riemann-mid", "--node-rule", "barycentric"],
                "'riemann-mid' does not read --node-rule",
            ),
            (
                ["--method", "systematic", "--tail-ratio", "3", "--beta", "0.5"],
                "'systematic' does not read --beta, --tail-ratio",
            ),
        ],
        ids=["systematic-truncation", "riemann-beta", "geometric-order", "node-rule", "two-flags"],
    )
    def test_unread_kernel_flags(self, capsys, flags, message):
        code, stdout, err = run_cli(capsys, ["kernel", "--n", "10", *flags])
        assert (code, stdout) == (1, "")
        assert err == f"error: method {message}\n"

    def test_config_rejects_kernel_flags(self, tmp_path, capsys):
        # these flags were silently dropped: the output matched --config alone
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"method": "geometric", "hurst": 0.1, "n": 10}))
        argv = ["kernel", "--config", str(path), "--tail-ratio", "9", "--hurst", "0.3"]
        code, stdout, err = run_cli(capsys, argv)
        assert (code, stdout) == (1, "")
        assert err == "error: --config does not combine with --hurst, --tail-ratio\n"
        code, stdout, _ = run_cli(capsys, ["kernel", "--config", str(path), "--steps", "20"])
        assert code == 0 and json.loads(stdout)["n_factors"] == 20

    @pytest.mark.parametrize(
        "command, model, scheme",
        [
            ("price", "heston", "volterra"),
            ("price", "heston", "integrated-volterra"),
            ("path-dump", "heston", "volterra"),
            ("price", "bergomi", "exact"),
            ("path-dump", "bergomi", "exact"),
        ],
    )
    def test_factors_rejected_without_kernel(self, capsys, command, model, scheme):
        # `--scheme volterra --factors 7` once priced, ignoring the odd count
        argv = [command, "--model", model, "--scheme", scheme, "--factors", "10", "--steps", "2"]
        code, stdout, err = run_cli(capsys, argv + (["--paths", "8"] if command == "price" else []))
        assert (code, stdout) == (1, "")
        field = "scheme" if model == "heston" else "mode"
        assert err == f"error: {field} {scheme!r} runs on the rough kernel; it reads no kernel_factors\n"

    @pytest.mark.parametrize(
        "model, scheme", [("heston", "multifactor"), ("heston", "hybrid"), ("bergomi", "multifactor")]
    )
    def test_factors_read_by_factor_schemes(self, capsys, model, scheme):
        argv = ["path-dump", "--model", model, "--scheme", scheme, "--factors", "10", "--steps", "2"]
        code, stdout, _ = run_cli(capsys, argv)
        assert code == 0 and len(stdout.splitlines()) == 4

    def test_rejected_steps_write_no_kernel_file(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        argv = ["kernel", "--method", "riemann-bary", "--n", "8", "--steps", "0", "--out", str(out)]
        code, stdout, err = run_cli(capsys, argv)
        assert (code, stdout) == (1, "")
        assert "step count N must be >= 1" in err
        assert not out.exists()

    def test_paper_scale_sets_the_path_count(self, capsys):
        argv = ["price", "--model", "heston", "--scheme", "volterra", "--paper-scale"]
        with mock.patch.object(cli, "price") as priced:
            priced.return_value.to_json.return_value = "{}"
            assert run_cli(capsys, argv) == (0, "{}\n", "")
        (_, _, _, cfg), _ = priced.call_args
        assert cfg.paths == 1_000_000

    def test_paper_scale_rejects_paths(self, capsys):
        # --paper-scale once overrode an explicit --paths
        argv = ["price", "--model", "heston", "--scheme", "volterra", "--paper-scale"]
        code, stdout, err = run_cli(capsys, argv + ["--paths", "8"])
        assert (code, stdout) == (1, "")
        assert err == "error: --paper-scale sets the path count; it does not combine with --paths\n"

    def test_zero_smile_points(self, capsys):
        code, stdout, err = run_cli(capsys, ["smile", "--points", "0", "--paths", "8"])
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ")


class TestSmileCommand:
    # `rvol smile --points 3 --paths 4096`, as printed when the smile flags
    # carried their own copies of the BergomiParams and kernel defaults
    DEFAULT_CSV = (
        "mode,k,price,ci_halfwidth,implied_vol\n"
        "exact,-0.10000000000000001,0.095958946732172479,0.0012738308571196301,0.27710005268454552\n"
        "exact,-0.024999999999999994,0.033530185116871669,0.00089145615685826129,0.23369183763861656\n"
        "exact,0.050000000000000003,0.001223149108416632,0.00020688243322843281,0.17245127633213997\n"
        "multifactor,-0.10000000000000001,0.095962609862288328,0.0012690567569782459,0.27733318880200386\n"
        "multifactor,-0.024999999999999994,0.03342704475464757,0.00089025417990989996,0.23220358416438103\n"
        "multifactor,0.050000000000000003,0.0012774676390951401,0.00018736092717867769,0.17426031455397606\n"
    )

    def test_default_output_unchanged(self, capsys):
        argv = ["smile", "--points", "3", "--paths", "4096"]
        assert run_cli(capsys, argv) == (0, self.DEFAULT_CSV, "")
        # the six model flags at the defaults' values print the same bytes
        argv += ["--spot", "1.0", "--variance", repr(0.235**2), "--eta", "1.9"]
        argv += ["--rho", "-0.9", "--hurst", "0.07", "--factors", "40"]
        assert run_cli(capsys, argv) == (0, self.DEFAULT_CSV, "")

    @pytest.mark.parametrize(
        "flags, fields, factors",
        [
            ([], {}, None),
            (["--hurst", "0.1"], {"H": 0.1}, None),
            (["--spot", "2", "--rho", "0.5"], {"S0": 2.0, "rho": 0.5}, None),
            (["--variance", "0.04", "--eta", "1.2"], {"v0": 0.04, "eta": 1.2}, None),
            (["--factors", "12"], {}, 12),
        ],
        ids=["bare", "hurst-only", "spot-rho", "variance-eta", "factors-only"],
    )
    def test_only_given_flags_reach_the_model(self, capsys, flags, fields, factors):
        with mock.patch.object(cli, "bergomi_smile", return_value=[]) as smile:
            code, _, _ = run_cli(capsys, ["smile", "--points", "2", *flags])
        assert code == 0
        (params, _, _, _), kwargs = smile.call_args
        assert params == BergomiParams(**fields)
        assert kwargs == {"kernel_factors": factors}

    def test_single_point(self, tmp_path, capsys):
        out = tmp_path / "smile.csv"
        code, _, _ = run_cli(
            capsys,
            [
                "smile",
                "--points", "1",
                "--kmin", "0.0",
                "--steps", "8",
                "--paths", "2000",
                "--factors", "10",
                "--out", str(out),
            ],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,k,price,ci_halfwidth,implied_vol"
        assert len(lines) == 3  # one strike, two modes

    def test_flat_smile_when_eta_zero(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            [
                "smile",
                "--points", "2",
                "--kmin", "-0.02",
                "--kmax", "0.02",
                "--eta", "1e-12",
                "--steps", "4",
                "--paths", "20000",
                "--factors", "4",
                "--variance", "0.04",
            ],
        )
        assert code == 0
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        vols = [float(r[4]) for r in rows]
        assert all(abs(v - 0.2) < 0.02 for v in vols)

    @pytest.mark.parametrize("kmin, kmax, k", [("0", "800", "800.0"), ("-800", "0", "-800.0")])
    def test_strike_out_of_float_range(self, capsys, kmin, kmax, k):
        argv = ["smile", "--points", "2", "--kmin", kmin, "--kmax", kmax]
        argv += ["--paths", "64", "--steps", "4"]
        code, stdout, err = run_cli(capsys, argv)
        assert code == 1 and stdout == ""
        assert f"log strike k = {k}" in err

    def test_strike_without_implied_vol(self, capsys):
        # the multifactor price at k = -0.5 is 0.393227 +- 0.001463, below
        # the intrinsic value 0.393469
        argv = ["smile", "--points", "2", "--kmin", "-0.5", "--kmax", "0"]
        argv += ["--paths", "4096", "--steps", "4"]
        code, stdout, err = run_cli(capsys, argv)
        assert code == 1 and stdout == ""
        assert "multifactor at k = -0.5: price 0.39322" in err
        assert "intrinsic value 0.39346" in err


class TestPathDump:
    def test_heston_path(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        code, _, _ = run_cli(
            capsys,
            [
                "path-dump",
                "--model", "heston",
                "--scheme", "multifactor",
                "--steps", "6",
                "--out", str(out),
            ],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,price,variance"
        assert len(lines) == 8

    def test_bergomi_exact_path(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            ["path-dump", "--model", "bergomi", "--scheme", "exact", "--steps", "5", "--horizon", "0.041"],
        )
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 7
        first = lines[1].split(",")
        assert float(first[1]) == 1.0  # S0
