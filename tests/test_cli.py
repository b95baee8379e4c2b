import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noisestab.cli as cli
from noisestab import ComparisonResult, Estimate, seeding
from noisestab.config import load_config
from noisestab.report import report_fingerprint
from noisestab.verify import ExperimentOutput, VIOLATED

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

PARALLEL_DOC = """
[experiment]
kind = verify-main
n = 2

[matrix]
type = equicorrelated
k = 2
rho = 0.5

[sets]
a1 = halfspace([1, 0], 0.0)
a2 = halfspace([1, 0], 0.5244005127080407)

[sampling]
samples = 50000
seed = 7
target_se = 0.0005
"""


def _write_cfg(tmp_path, doc, name="exp.cfg", report=None, csv=None):
    extra = "\n[output]\n"
    if report is not None:
        extra += f"report = {report}\n"
    if csv is not None:
        extra += f"csv = {csv}\n"
    path = tmp_path / name
    path.write_text(doc + (extra if report or csv else ""))
    return str(path)


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.cli_main([]) == 1

    def test_unknown_command(self, capsys):
        assert cli.cli_main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert cli.cli_main(["verify-main"]) == 1
        assert "requires --config" in capsys.readouterr().err

    def test_unreadable_config(self, capsys):
        assert cli.cli_main(["verify-main", "--config", "/no/such.cfg"]) == 1

    def test_dimension_mismatch_exit_one(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, PARALLEL_DOC.replace("n = 2", "n = 3"))
        assert cli.cli_main(["verify-main", "--config", cfg]) == 1
        assert "[experiment] n" in capsys.readouterr().err

    def test_unknown_key_exit_one(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, PARALLEL_DOC.replace("samples =",
                                                        "sampels ="))
        assert cli.cli_main(["verify-main", "--config", cfg]) == 1
        assert "[sampling]: unknown key(s) ['sampels']" \
            in capsys.readouterr().err

    def test_nan_set_exit_one(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, PARALLEL_DOC.replace(
            "a2 = halfspace([1, 0], 0.5244005127080407)",
            "a2 = halfspace([1, 0], nan)"))
        assert cli.cli_main(["verify-main", "--config", cfg]) == 1
        assert "[sets] a2: offset must not be nan" in capsys.readouterr().err

    def test_default_section_exit_one(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[DEFAULT]\nseed = 5\n" + PARALLEL_DOC)
        assert cli.cli_main(["verify-main", "--config", cfg]) == 1
        assert "[DEFAULT]: keys are not allowed here" \
            in capsys.readouterr().err

    def test_negative_random_x_exit_one(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[experiment]\nkind = hessian-sweep\n"
                         "[matrix]\ntype = equicorrelated\nk = 2\n"
                         "rho = 0.5\n[sweep]\nrandom_x = -3\n")
        assert cli.cli_main(["hessian-sweep", "--config", cfg]) == 1
        assert "[sweep] random_x: -3 is negative" in capsys.readouterr().err

    def test_rhos_with_explicit_matrix_exit_one(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[experiment]\nkind = hessian-sweep\n"
                         "[matrix]\ntype = explicit\n"
                         "rows = 1, 0.3; 0.3, 1\n"
                         "[sweep]\nrhos = 0.2, 0.8\n")
        assert cli.cli_main(["hessian-sweep", "--config", cfg]) == 1
        assert ("[sweep] rhos: needs [matrix] type = equicorrelated, "
                "not explicit") in capsys.readouterr().err

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("target_se", ["-1", "0", "nan"])
    def test_bad_sweep_target_se_exit_one(self, tmp_path, capsys, target_se,
                                          k):
        cfg = _write_cfg(tmp_path, "[experiment]\nkind = hessian-sweep\n"
                         f"[matrix]\ntype = equicorrelated\nk = {k}\n"
                         "rho = 0.5\n[sweep]\nx = 0.5\n"
                         f"[sampling]\ntarget_se = {target_se}\n")
        assert cli.cli_main(["hessian-sweep", "--config", cfg]) == 1
        assert "target_se must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_empty_matrix_exit_one(self, tmp_path, capsys, k):
        cfg = _write_cfg(tmp_path, PARALLEL_DOC.replace("k = 2", f"k = {k}"))
        assert cli.cli_main(["verify-main", "--config", cfg]) == 1
        assert f"[matrix] k: {k}, but" in capsys.readouterr().err

    def test_equality_case_exit_zero(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        cfg = _write_cfg(tmp_path, PARALLEL_DOC, report=str(report))
        assert cli.cli_main(["verify-main", "--config", cfg]) == 0
        data = json.loads(report.read_text())
        assert data["results"][0]["verdict"] == "equality_band"
        assert "equality_band" in capsys.readouterr().out

    def test_negative_entry_exit_one(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, PARALLEL_DOC.replace("rho = 0.5",
                                                        "rho = -0.3"))
        assert cli.cli_main(["verify-main", "--config", cfg]) == 1
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    @pytest.mark.parametrize("kind, name", [("exit-time", "exit_ball"),
                                            ("occupation",
                                             "occupation_balls")])
    def test_nonfinite_horizon_exit_one(self, tmp_path, capsys, tau, kind,
                                        name):
        code = cli.cli_main([kind, "--config", str(CONFIGS / f"{name}.cfg"),
                             "--tau", tau, "--paths", "2000", "--steps", "4",
                             "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "horizon must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("paths", ["0", "-3"])
    @pytest.mark.parametrize("kind, sets", [
        ("exit-time", "a1 = halfspace([1, 0], 0.3)"),
        ("occupation", "a1 = halfspace([1, 0], 0.3)\n"
                       "a2 = halfspace([1, 0], -0.2)")],
        ids=["exit-time", "occupation"])
    def test_exact_arms_reject_no_paths(self, tmp_path, capsys, paths, kind,
                                        sets):
        # both arms are exact half-space values, so no scan runs; the
        # path count is checked all the same
        doc = f"""
[experiment]
kind = {kind}
n = 2

[sets]
{sets}

[grid]
taus = 0.1, 0.5
steps = 16
"""
        cfg = _write_cfg(tmp_path, doc)
        out = tmp_path / "r.json"
        argv = [kind, "--config", cfg, "--quiet", "--out", str(out)]
        assert cli.cli_main(argv + ["--paths", "5"]) == 0
        out.unlink()
        assert cli.cli_main(argv + ["--paths", paths]) == 1
        assert "sample count must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tau", [",", " , "])
    @pytest.mark.parametrize("kind, name", [("exit-time", "exit_ball"),
                                            ("occupation",
                                             "occupation_balls")])
    def test_empty_horizon_list_exit_one(self, tmp_path, capsys, tau, kind,
                                         name):
        code = cli.cli_main([kind, "--config", str(CONFIGS / f"{name}.cfg"),
                             "--tau", tau, "--paths", "2000", "--steps", "4",
                             "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "--tau: expected at least one horizon" \
            in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_violated_exit_two_with_report(self, tmp_path, monkeypatch,
                                           capsys):
        # the inequality cannot be honestly violated at test scale, so a
        # synthetic violated result exercises the exit contract
        bad = ComparisonResult(
            name="synthetic", lhs=Estimate(0.9, 0.001, 10, 0),
            rhs=Estimate(0.1, 0.001, 10, 0), margin_se=-400.0,
            verdict=VIOLATED)
        fake = ExperimentOutput(results=[{
            "name": "synthetic", "lhs": {"value": 0.9}, "rhs": {"value": 0.1},
            "margin_se": -400.0, "verdict": VIOLATED}],
            csv_columns=["name"], csv_rows=[["synthetic"]],
            comparisons=[bad])
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: fake)
        report = tmp_path / "report.json"
        cfg = _write_cfg(tmp_path, PARALLEL_DOC, report=str(report))
        assert cli.cli_main(["verify-main", "--config", cfg]) == 2
        assert report.exists()  # written before the nonzero exit


class TestOutputs:
    def test_csv_format_out(self, tmp_path):
        doc = """
[experiment]
kind = hessian-sweep

[matrix]
type = equicorrelated
k = 2
rho = 0.5

[sweep]
x = 0.25, 0.5, 0.75

[sampling]
seed = 3
target_se = 0.0005
"""
        cfg = _write_cfg(tmp_path, doc)
        out = tmp_path / "rows.csv"
        code = cli.cli_main(["hessian-sweep", "--config", cfg, "--quiet",
                             "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "name,x,max_eigenvalue,se,cap_hit"
        assert len(lines) == 1 + 9

    def test_condition_check_without_config(self, tmp_path, capsys):
        assert cli.cli_main(["condition-check", "--seed", "5",
                             "--quiet"]) == 0

    def test_tau_and_seed_flags(self, tmp_path):
        doc = """
[experiment]
kind = exit-time

[sets]
a1 = halfspace([1, 0], 0.0)

[sampling]
paths = 2000
samples = 10000

[grid]
steps = 16
"""
        report = tmp_path / "r.json"
        cfg = _write_cfg(tmp_path, doc, report=str(report))
        code = cli.cli_main(["exit-time", "--config", cfg, "--seed", "21",
                             "--tau", "0.1,0.3", "--quiet"])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["config"]["sampling"]["seed"] == 21
        assert data["config"]["grid"]["taus"] == [0.1, 0.3]
        assert len(data["results"]) == 2

    def test_env_seed_in_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOISESTAB_SEED", "777")
        report = tmp_path / "r.json"
        cfg = _write_cfg(tmp_path, PARALLEL_DOC.replace("seed = 7", ""),
                         report=str(report))
        assert cli.cli_main(["verify-main", "--config", cfg, "--quiet"]) == 0
        data = json.loads(report.read_text())
        assert data["config"]["sampling"]["seed"] == 777

    def test_config_seed_zero_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOISESTAB_SEED", "777")
        report = tmp_path / "r.json"
        cfg = _write_cfg(tmp_path, PARALLEL_DOC.replace("seed = 7", "seed = 0"),
                         report=str(report))
        assert cli.cli_main(["verify-main", "--config", cfg, "--quiet"]) == 0
        data = json.loads(report.read_text())
        assert data["config"]["sampling"]["seed"] == 0


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        out = tmp_path / "r.json"
        cfg = _write_cfg(tmp_path, PARALLEL_DOC)
        assert cli.cli_main(["verify-main", "--config", cfg, "--quiet",
                             "--out", str(out)]) == 0
        first = json.loads(out.read_text())
        assert cli.cli_main(["verify-main", "--config", cfg, "--quiet",
                             "--out", str(out)]) == 0
        second = json.loads(out.read_text())
        assert report_fingerprint(first) == report_fingerprint(second)

    def test_report_schema(self, tmp_path):
        report = tmp_path / "r.json"
        cfg = _write_cfg(tmp_path, PARALLEL_DOC, report=str(report))
        cli.cli_main(["verify-main", "--config", cfg, "--quiet"])
        data = json.loads(report.read_text())
        assert set(data) == {"config", "results", "runtime_seconds",
                             "library_version", "timestamp"}
        row = data["results"][0]
        assert set(row) >= {"name", "lhs", "rhs", "margin_se", "verdict"}
        assert set(row["lhs"]) == {"value", "se", "samples", "seed",
                                   "cap_hit"}


class TestImportCost:
    # each of these would add to every CLI start: scipy.stats about 0.85 s,
    # scipy.integrate about 0.3 s, scipy.linalg about 6 MB of resident
    # memory
    HEAVY = ("scipy.stats", "scipy.integrate", "scipy.linalg")

    def test_cli_import_skips_heavy_scipy(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, noisestab.cli\n"
                f"print(sorted(set({self.HEAVY!r}) & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout.strip() == "[]"


class TestShippedConfigs:
    """Each shipped config, run through the CLI at its own seed, gives a
    pinned report, and a pinned CSV where it sets ``[output] csv``, for
    one worker and for two. Sizes are the shipped ones except for the
    flags beside each digest, which keep a run under a second."""

    CASES = {
        "ball_vs_bound": (
            ["--samples", "100000"],
            "5466f7079aeadf082f3ec9b848caaa78f0f45d01f7588481caee4e367719d393"),
        "composite_main": (
            ["--samples", "100000"],
            "ed813a8c0a0c32a04968c603b8f57076e6d105c62399188692a63a55e4d42b80"),
        "condition": (
            [],
            "a42c7c9ae129bad3c68441037cb6a0d06df168df40617dfecebac6a41b309733"),
        "equality_diag": (
            [],
            "ca51317467dc2c93e2071f215f90bd93d57181fbf51d5c5f72ea6bde1c932b19"),
        "exit_ball": (
            ["--paths", "4000"],
            "93c346ee47a02e6702e9b177a772cd106caad617d9b4730f4d3d7cc66820c7a4"),
        "k2grid": (
            [],
            "a5ada160bdc36ff1df867a7acba7321becbed41e46fd9f86327bdc6077ef20f5"),
        "noise_ball": (
            ["--samples", "100000"],
            "1a5c60005023e2b2c7e9119e346132f28793ab0a2dd727c8fb0f382df2f20a26"),
        "occupation_balls": (
            ["--paths", "4000"],
            "5ebd2e9dfbee28ceae9c1fb27a2871c1c59c696e306b91c9b6a355e314e35990"),
        "parallel": (
            ["--samples", "100000"],
            "2e3206dd4d698350cc1a7241a94b778e689d5f62a9da5f9de3148770718870d9"),
    }

    # sha256 of the CSV written to the config's [output] csv
    CSV = {
        "condition":
            "af672a4b88516aec358e06066ce98a47702b8bc4755ae76e1a5f802945b3ea1f",
        "equality_diag":
            "d89964e43a4db336cae28b2006e2cffe94ff7e338d521457146cfc17397c4c0f",
        "exit_ball":
            "17ed771895cf6fa8802204d369d7284dc19e5df476559e89c98f12ae20c657a7",
        "k2grid":
            "6f89ff0ca36b681b9fdee0c8f3c9c46f3de94392a480c9173827291c63f87e0d",
    }

    def test_every_config_pinned(self):
        configs = sorted(CONFIGS.glob("*.cfg"))
        assert [p.stem for p in configs] == sorted(self.CASES)
        assert [p.stem for p in configs
                if load_config(str(p)).output.csv] == sorted(self.CSV)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_fingerprint(self, name, workers, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(seeding, "WORKERS", workers)
        path = CONFIGS / f"{name}.cfg"
        flags, want = self.CASES[name]
        assert cli.cli_main([load_config(str(path)).kind, "--config",
                             str(path), "--quiet", "--out", "report.json"]
                            + flags) == 0
        report = json.loads(Path("report.json").read_text())
        assert hashlib.sha256(report_fingerprint(report)).hexdigest() == want
        csv = load_config(str(path)).output.csv
        if csv:
            assert hashlib.sha256(Path(csv).read_bytes()).hexdigest() \
                == self.CSV[name]
