"""End-to-end command-line behavior through cli.main and as a separate process."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtsfit
from gtsfit import cli, mle
from gtsfit.mle import fit_gbm
from gtsfit.model import GtsParams

PRICES = "date,price\n2020-01-01,100.0\n2020-01-02,101.0\n2020-01-03,99.5\n2020-01-06,100.2\n"


# Absolute, so child processes import this checkout's package whatever their
# working directory.
PACKAGE_ROOT = str(Path(gtsfit.__file__).resolve().parents[1])


def run_cli(argv):
    """Run `argv` as a separate process that imports this checkout's gtsfit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(argv, capture_output=True, text=True, timeout=300, env=env)


def console_script_target(name):
    """The `module:function` that `[project.scripts]` declares for `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def write_console_script(bindir, name):
    """Write the wrapper an installer generates for a console script."""
    module, func = console_script_target(name).split(":")
    bindir.mkdir()
    script = bindir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    script.chmod(0o755)


def write_returns(path, values):
    path.write_text("return\n" + "\n".join(f"{v:.17g}" for v in values) + "\n")
    return path


@pytest.fixture()
def spy_json(fixtures_dir):
    return str(fixtures_dir / "gts_spy.json")


@pytest.fixture()
def gbm_json(fixtures_dir):
    return str(fixtures_dir / "gbm_spy.json")


class TestSummarize:
    def test_stdout_json(self, tmp_path, capsys):
        p = tmp_path / "prices.csv"
        p.write_text(PRICES)
        rc = cli.main(["summarize", str(p)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert doc["m"] == 3
        r = 100.0 * np.diff(np.log([100.0, 101.0, 99.5, 100.2]))
        assert doc["mean"] == pytest.approx(r.mean(), rel=1e-12)
        assert doc["variance"] == pytest.approx(np.mean((r - r.mean()) ** 2), rel=1e-12)

    def test_outlier_flag_reports_removed(self, tmp_path, capsys):
        p = tmp_path / "prices.csv"
        p.write_text(
            "date,price\n2020-01-01,100.0\n2020-01-02,101.0\n"
            "2020-01-03,99.5\n2020-01-06,180.0\n"
        )
        rc = cli.main(["summarize", str(p), "--outlier", "abs:10"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed"] == [2]
        assert doc["m"] == 2

    def test_out_file_respects_outdir(self, tmp_path, monkeypatch):
        p = tmp_path / "prices.csv"
        p.write_text(PRICES)
        monkeypatch.setenv("GTSFIT_OUTDIR", str(tmp_path))
        rc = cli.main(["summarize", str(p), "--out", "stats.json"])
        assert rc == 0
        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["m"] == 3

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["summarize", str(tmp_path / "nope.csv")]) == 2


class TestFit:
    def test_gbm_model(self, tmp_path, capsys):
        r = write_returns(tmp_path / "r.csv", [1.0, 2.0, 3.0, 4.0])
        rc = cli.main(["fit", str(r), "--model", "gbm"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "gbm"
        ref = fit_gbm(np.array([1.0, 2.0, 3.0, 4.0]))
        assert doc["mu"] == pytest.approx(ref.mu, rel=1e-15)
        assert doc["sigma"] == pytest.approx(ref.sigma, rel=1e-15)

    def test_gts_fit_writes_params_and_trace(
        self, tmp_path, spy_params, spy_sample_600
    ):
        r = write_returns(tmp_path / "r.csv", spy_sample_600)
        init = ",".join(f"{v:.7f}" for v in spy_params.to_vector())
        out = tmp_path / "fit.json"
        trace = tmp_path / "trace.csv"
        rc = cli.main(
            [
                "fit", str(r), f"--init={init}", "--tol", "1e-6",
                "--trace", str(trace), "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["model"] == "gts"
        fitted = GtsParams(*(doc[k] for k in (
            "mu", "beta_plus", "beta_minus", "alpha_plus", "alpha_minus",
            "lambda_plus", "lambda_minus",
        )))
        assert abs(fitted.mu - spy_params.mu) < 1.0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("iteration,mu,")
        assert len(lines) >= 3
        last = lines[-1].split(",")
        assert float(last[-2]) < 1e-6

    def test_budget_exhaustion_exits_3_with_trace(
        self, tmp_path, spy_sample_600, capsys
    ):
        r = write_returns(tmp_path / "r.csv", spy_sample_600)
        trace = tmp_path / "trace.csv"
        out = tmp_path / "fit.json"
        rc = cli.main(
            ["fit", str(r), "--max-iter", "1", "--trace", str(trace), "--out", str(out)]
        )
        assert rc == 3
        assert "convergence" in capsys.readouterr().err
        assert len(trace.read_text().splitlines()) == 2
        assert json.loads(out.read_text())["model"] == "gts"

    def test_bad_init_exits_2(self, tmp_path):
        r = write_returns(tmp_path / "r.csv", [0.1] * 60)
        assert cli.main(["fit", str(r), "--init", "1,2,3"]) == 2

    @pytest.mark.parametrize(
        "init,reason",
        [
            ("0,0.5,0.5,0.5,0.5,1,-1", "lambda_minus must be > 0"),
            ("0,0.5,0.5,-1,0.5,1,1", "alpha_plus must be >= 0"),
            ("0,0.5,0.5,0.5,0.5,1,abc", "could not convert string to float"),
        ],
    )
    def test_bad_init_names_the_reason(self, tmp_path, capsys, init, reason):
        r = write_returns(tmp_path / "r.csv", [0.1] * 60)
        assert cli.main(["fit", str(r), "--init", init]) == 2
        err = capsys.readouterr().err
        assert reason in err
        assert "invalid _init_vector value" not in err

    @pytest.mark.parametrize("init", ["0,-0.5,-0.5,0.5,0.5,1,1", "0,0.5,-0.5,0,0.5,1,1"])
    def test_init_with_atom_exits_2(self, tmp_path, spy_sample_600, capsys, init):
        r = write_returns(tmp_path / "r.csv", spy_sample_600)
        assert cli.main(["fit", str(r), "--init", init]) == 2
        assert "atom of mass" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["gts", "gbm"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_exits_2(self, tmp_path, spy_sample_600, capsys, model, bad):
        r = write_returns(tmp_path / "r.csv", np.insert(spy_sample_600[:60], 7, bad))
        assert cli.main(["fit", str(r), "--model", model]) == 2
        assert f"r.csv row 9: return must be finite, got {bad:.17g}" in capsys.readouterr().err


class TestGof:
    def test_raw_returns_against_params(self, tmp_path, spy_json, spy_sample_600, capsys):
        r = write_returns(tmp_path / "r.csv", spy_sample_600[:300])
        rc = cli.main(["gof", str(r), "--params", spy_json])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 300
        assert 0.0 < doc["d_m"] < 0.2
        assert 0.0 <= doc["p_value"] <= 1.0
        assert doc["component"] in ("at_edge", "pre_jump")
        assert max(doc["components"]) == doc["d_m"]

    def test_raw_returns_against_gbm_params(self, tmp_path, gbm_json, spy_sample_600, capsys):
        from scipy import stats

        r = write_returns(tmp_path / "r.csv", spy_sample_600)
        assert cli.main(["gof", str(r), "--params", gbm_json]) == 0
        doc = json.loads(capsys.readouterr().out)
        gb = json.loads(Path(gbm_json).read_text())
        ref = stats.kstest(spy_sample_600, stats.norm(gb["mu"], gb["sigma"]).cdf)
        assert abs(doc["d_m"] - ref.statistic) <= 1e-12

    def test_binned_table_model_column(self, fixtures_dir, capsys):
        rc = cli.main(
            ["gof", str(fixtures_dir / "spy_cdf.csv"), "--binned", "--use-table-model"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 3046
        assert doc["d_m"] == pytest.approx(0.022526537596848306, rel=1e-12)
        assert doc["p_value"] == pytest.approx(0.08950694488242206, rel=1e-9)
        assert doc["components"][0] == pytest.approx(0.014180782403151682, rel=1e-12)

    def test_binned_sample_size_override(self, fixtures_dir, capsys):
        rc = cli.main(
            [
                "gof", str(fixtures_dir / "spy_cdf.csv"), "--binned",
                "--use-table-model", "--m", "3000",
            ]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["m"] == 3000

    def test_binned_without_model_source_exits_2(self, fixtures_dir):
        rc = cli.main(["gof", str(fixtures_dir / "spy_cdf.csv"), "--binned"])
        assert rc == 2

    @pytest.mark.parametrize("column,source", [("F", "table"), ("x_j", "params")])
    def test_binned_nan_cell_exits_2(self, tmp_path, fixtures_dir, spy_json, capsys, column, source):
        lines = (fixtures_dir / "spy_cdf.csv").read_text().splitlines()
        k = lines[0].split(",").index(column)
        cells = lines[10].split(",")
        cells[k] = "nan"
        lines[10] = ",".join(cells)
        t = tmp_path / "nan.csv"
        t.write_text("\n".join(lines) + "\n")
        model = ["--use-table-model"] if source == "table" else ["--params", spy_json]
        assert cli.main(["gof", str(t), "--binned", *model]) == 2
        assert f"row 11: {column} must be finite, got nan" in capsys.readouterr().err

    def test_raw_returns_nan_row_exits_2(self, tmp_path, spy_json, spy_sample_600, capsys):
        r = write_returns(tmp_path / "r.csv", np.append(spy_sample_600[:50], np.nan))
        assert cli.main(["gof", str(r), "--params", spy_json]) == 2
        assert "r.csv row 52: return must be finite, got nan" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic_output_files(self, tmp_path, spy_json):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = cli.main(
                ["simulate", "--params", spy_json, "--n", "64", "--seed", "9",
                 "--out", str(path)]
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "sample"
        assert len(lines) == 65

    def test_stdout_stream(self, spy_json, capsys):
        rc = cli.main(["simulate", "--params", spy_json, "--n", "5", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sample"
        assert len(lines) == 6

    def test_stdout_matches_out_file(self, tmp_path, spy_json, capsys):
        path = tmp_path / "draws.csv"
        argv = ["simulate", "--params", spy_json, "--n", "70", "--seed", "3"]
        assert cli.main(argv + ["--out", str(path)]) == 0
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode() == path.read_bytes()

    def test_gbm_params_rejected(self, gbm_json):
        assert cli.main(["simulate", "--params", gbm_json, "--n", "5", "--seed", "1"]) == 2

    @pytest.mark.parametrize("tails", [(-0.5, -0.5, 0.5), (0.5, -0.5, 0.0)])
    def test_law_with_atom_exits_2(self, tmp_path, capsys, tails):
        beta_plus, beta_minus, alpha_plus = tails
        params = tmp_path / "atom.json"
        params.write_text(json.dumps({
            "schema_version": 1, "model": "gts", "mu": 0.0,
            "beta_plus": beta_plus, "beta_minus": beta_minus,
            "alpha_plus": alpha_plus, "alpha_minus": 0.5,
            "lambda_plus": 1.0, "lambda_minus": 1.0,
        }))
        assert cli.main(["simulate", "--params", str(params), "--n", "5", "--seed", "1"]) == 2
        assert "atom of mass" in capsys.readouterr().err

    def test_non_finite_cumulant_exits_2(self, tmp_path, capsys):
        """lambda_plus^(2 - beta_plus) underflows to 0, so the sampler's
        variance cumulant is not a finite float."""
        params = tmp_path / "tiny.json"
        params.write_text(json.dumps({
            "schema_version": 1, "model": "gts", "mu": 0.0,
            "beta_plus": 0.5, "beta_minus": 0.5,
            "alpha_plus": 0.5, "alpha_minus": 0.5,
            "lambda_plus": 1e-320, "lambda_minus": 1.0,
        }))
        assert cli.main(["simulate", "--params", str(params), "--n", "5", "--seed", "1"]) == 2
        assert "cumulant 2 is not a finite float" in capsys.readouterr().err


class TestRecenter:
    def test_decile_unit_target(self, fixtures_dir, capsys):
        rc = cli.main(
            [
                "recenter", "--params", str(fixtures_dir / "gts_btc.json"),
                "--target", "0.1790993", "--unit-scale", "10",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mu"] == pytest.approx(0.06655372158466355, rel=1e-10)
        src = json.loads((fixtures_dir / "gts_btc.json").read_text())
        for k in ("beta_plus", "beta_minus", "alpha_plus", "alpha_minus",
                  "lambda_plus", "lambda_minus"):
            assert doc[k] == src[k]

    def test_default_scale_is_model_units(self, spy_json, capsys):
        rc = cli.main(["recenter", "--params", spy_json, "--target", "0.0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        from gtsfit.model import cumulant

        p = GtsParams(*(doc[k] for k in (
            "mu", "beta_plus", "beta_minus", "alpha_plus", "alpha_minus",
            "lambda_plus", "lambda_minus",
        )))
        assert cumulant(p, 1) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("scale", ["0", "-10", "inf", "nan"])
    def test_bad_unit_scale_exits_2(self, spy_json, tmp_path, capsys, scale):
        out = tmp_path / "p.json"
        argv = ["recenter", "--params", spy_json, "--target", "0.1",
                f"--unit-scale={scale}", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "--unit-scale must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


class TestPlot:
    def test_csv_and_svg_byte_stable(self, tmp_path, spy_json, gbm_json, spy_sample_600):
        r = write_returns(tmp_path / "r.csv", spy_sample_600[:200])
        argv = [
            "plot", str(r), "--params", spy_json, "--gbm", gbm_json,
            "--bins", "20",
            "--out-csv", str(tmp_path / "plot.csv"),
            "--out-svg", str(tmp_path / "plot.svg"),
        ]
        assert cli.main(argv) == 0
        csv_1 = (tmp_path / "plot.csv").read_bytes()
        svg_1 = (tmp_path / "plot.svg").read_bytes()
        assert cli.main(argv) == 0
        assert (tmp_path / "plot.csv").read_bytes() == csv_1
        assert (tmp_path / "plot.svg").read_bytes() == svg_1
        lines = csv_1.decode().splitlines()
        assert lines[0] == "bin_center,empirical_density,gts_density,gbm_density"
        assert len(lines) == 21
        svg = svg_1.decode()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 3

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bins_below_one_exits_2(
        self, tmp_path, spy_json, gbm_json, spy_sample_600, bins
    ):
        r = write_returns(tmp_path / "r.csv", spy_sample_600[:200])
        argv = [
            "plot", str(r), "--params", spy_json, "--gbm", gbm_json,
            "--bins", bins,
            "--out-csv", str(tmp_path / "plot.csv"),
            "--out-svg", str(tmp_path / "plot.svg"),
        ]
        assert cli.main(argv) == 2
        assert not (tmp_path / "plot.csv").exists()

    def test_nan_row_exits_2(self, tmp_path, spy_json, gbm_json, spy_sample_600, capsys):
        r = write_returns(tmp_path / "r.csv", np.append(spy_sample_600[:200], np.nan))
        argv = [
            "plot", str(r), "--params", spy_json, "--gbm", gbm_json,
            "--out-csv", str(tmp_path / "plot.csv"),
            "--out-svg", str(tmp_path / "plot.svg"),
        ]
        assert cli.main(argv) == 2
        assert "r.csv row 202: return must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "plot.csv").exists()


class TestConfigAndParsing:
    def test_fit_defaults_are_fit_options_defaults(self):
        args = cli._build_parser().parse_args(["fit", "r.csv"])
        opts = mle.FitOptions()
        assert args.init == opts.init
        assert args.tol == opts.tol_grad
        assert args.max_iter == opts.max_iter

    def test_removed_step_rule_option_exits_2(self, tmp_path, spy_sample_600, capsys):
        """The fit has one step rule: the option that chose between two is
        gone, both as a flag and as a config key, and nothing is written."""
        name = "policy"
        r = write_returns(tmp_path / "r.csv", spy_sample_600)
        out = tmp_path / "p.json"
        argv = ["fit", str(r), "--max-iter", "1", "--out", str(out)]
        assert cli.main(argv + [f"--{name}", "safeguarded"]) == 2
        assert f"--{name}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: "safeguarded"}))
        assert cli.main(["--config", str(cfg)] + argv) == 2
        assert f"'{name}'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_supplies_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "prices.csv"
        p.write_text(PRICES)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "from_config.json"}))
        rc = cli.main(["--config", str(cfg), "summarize", str(p)])
        assert rc == 0
        assert json.loads((tmp_path / "from_config.json").read_text())["m"] == 3

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert cli.main(["--config", str(cfg), "summarize", "x.csv"]) == 2

    def test_config_without_value_exits_2(self):
        assert cli.main(["--config"]) == 2

    @pytest.mark.parametrize(
        "spelling", [["--config={}"], ["--conf", "{}"]], ids=["equals", "prefix"]
    )
    def test_config_spellings_supply_defaults(self, tmp_path, monkeypatch, spelling):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "prices.csv"
        p.write_text(PRICES)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "from_config.json"}))
        rc = cli.main([a.format(cfg) for a in spelling] + ["summarize", str(p)])
        assert rc == 0
        assert json.loads((tmp_path / "from_config.json").read_text())["m"] == 3

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"out"'])
    def test_config_not_an_object_exits_2(self, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main(["--config", str(cfg), "summarize", "x.csv"]) == 2

    def test_config_internal_dest_exits_2(self, tmp_path, capsys):
        p = tmp_path / "prices.csv"
        p.write_text(PRICES)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"func": "x"}))
        assert cli.main(["--config", str(cfg), "summarize", str(p)]) == 2
        assert "'func'" in capsys.readouterr().err

    def test_config_misspelt_flag_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "prices.csv"
        p.write_text(PRICES)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"outt": "from_config.json"}))
        assert cli.main(["--config", str(cfg), "summarize", str(p)]) == 2
        assert "'outt'" in capsys.readouterr().err
        assert not (tmp_path / "from_config.json").exists()

    def test_unknown_subcommand_exits_2(self):
        assert cli.main(["frobnicate"]) == 2

    def test_params_json_round_trip(self, tmp_path):
        p = GtsParams(0.1, 0.2, -0.3, 0.4, 0.5, 1.6, 1.7)
        doc = json.loads(cli.params_to_json(p))
        assert doc["schema_version"] == 1
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        q = cli.params_from_json(path)
        assert q == p

    def test_console_script_runs(self, spy_json, tmp_path):
        bindir = tmp_path / "bin"
        write_console_script(bindir, "gtsfit")
        exe = shutil.which("gtsfit", path=str(bindir))
        assert exe, "console script not installed"
        res = run_cli([exe, "simulate", "--params", spy_json, "--n", "5", "--seed", "1"])
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "sample"
        assert len(lines) == 6

    def test_python_m_runs(self, spy_json):
        res = run_cli([sys.executable, "-m", "gtsfit", "simulate",
                       "--params", spy_json, "--n", "5", "--seed", "1"])
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "sample"
        assert len(lines) == 6

    def test_python_m_missing_file_exits_2(self, tmp_path):
        res = run_cli([sys.executable, "-m", "gtsfit", "summarize",
                       str(tmp_path / "nope.csv")])
        assert res.returncode == 2
