import json

import noisestab.cli as cli
from noisestab import ComparisonResult, Estimate
from noisestab.report import report_fingerprint
from noisestab.verify import ExperimentOutput, VIOLATED

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
