"""CLI contract: output schemas, determinism, encodings, exit codes."""

import json

import pytest

from arcan import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestClassifyCommand:
    def test_json_verdict(self, capsys):
        code, out = run_cli(capsys, [
            "classify", "guard(x^3/(x^2+y^2),0)", "--point", "0,0",
            "--kmax", "3", "--seed", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "NonAnalytic"
        assert doc["kStar"] == 1

    def test_rational_mode_prints_fractions(self, capsys):
        code, out = run_cli(capsys, [
            "classify", "guard(x^3/(x^2+y^2),0)", "--point", "1/2,0",
            "--kmax", "2", "--mode", "rational", "--seed", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["point"] == ["1/2", "0"]
        assert doc["status"] == "AnalyticUpTo"


class TestScanCommand:
    ARGS = ["scan", "guard(x^3/(x^2+y^2),0)",
            "--grid", "x:-0.5:0.5:0.25;y:-0.5:0.5:0.25",
            "--kmax", "3", "--seed", "2"]

    def test_json_lines(self, capsys):
        code, out = run_cli(capsys, self.ARGS)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 25
        flagged = [l for l in lines if l["status"] == "NonAnalytic"]
        assert [l["point"] for l in flagged] == [[0.0, 0.0]]

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, self.ARGS)
        _, second = run_cli(capsys, self.ARGS)
        assert first == second

    def test_csv_and_json_hold_the_same_verdicts(self, capsys):
        _, json_out = run_cli(capsys, self.ARGS)
        _, csv_out = run_cli(capsys, self.ARGS + ["--format", "csv"])
        json_statuses = sorted(json.loads(l)["status"]
                               for l in json_out.strip().splitlines())
        rows = csv_out.strip().splitlines()
        header = rows[0].split(",")
        idx = header.index("status")
        csv_statuses = sorted(r.split(",")[idx] for r in rows[1:])
        assert json_statuses == csv_statuses

    def test_grid_must_cover_all_variables(self, capsys):
        code, _ = run_cli(capsys, [
            "scan", "x+y", "--grid", "x:-1:1:0.5"])
        assert code == 1


class TestArcCommand:
    def test_removable_mismatch_report(self, capsys):
        code, out = run_cli(capsys, [
            "arc", "guard(x*y/(x^2+y^2),0)", "--arc", "t, t"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "RemovableMismatch"
        assert doc["mismatch"] == 0.5

    def test_pole_report(self, capsys):
        code, out = run_cli(capsys, [
            "arc", "guard(1/(x^2+y^2),0)", "--arc", "t, 0"])
        doc = json.loads(out)
        assert doc["kind"] == "Pole"
        assert doc["valuation"] == -2


class TestBlowupCommand:
    def test_pullback_with_divisor_classification(self, capsys):
        code, out = run_cli(capsys, [
            "blowup", "guard(x^3/(x^2+y^2),0)",
            "--chart", '{"n":2,"center":[1,2],"axis":1}',
            "--classify-divisor", "4", "--kmax", "3", "--seed", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["cancelledPower"] == 2
        statuses = {v["status"] for v in doc["divisorVerdicts"]}
        assert statuses == {"AnalyticUpTo"}


class TestVerifyCommand:
    def test_euler_exact(self, capsys):
        code, out = run_cli(capsys, [
            "verify", "euler", "--trials", "50", "--mode", "rational"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["worstResidual"] == 0

    def test_binoms_exact(self, capsys):
        code, out = run_cli(capsys, [
            "verify", "binoms", "--trials", "50", "--mode", "rational"])
        assert code == 0
        assert json.loads(out)["worstResidual"] == 0


class TestCorpusCommand:
    def test_single_entry(self, capsys):
        code, out = run_cli(capsys, ["corpus", "E1", "--kmax", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["passed"] is True
        assert json.loads(lines[-1])["summary"] == "ok"

    def test_listing(self, capsys):
        code, out = run_cli(capsys, ["corpus", "--list"])
        assert code == 0
        names = [json.loads(l)["name"] for l in out.strip().splitlines()]
        assert names == ["E1", "E2", "E3", "E4", "E5", "E6"]

    def test_mismatch_exits_two(self, capsys, monkeypatch):
        from arcan.verify import EntryReport
        fake = EntryReport("E1", ((0.0, 0.0),), (), False, (), False)
        monkeypatch.setattr(cli, "verify_corpus", lambda *a, **k: [fake])
        code, out = run_cli(capsys, ["corpus", "E1"])
        assert code == 2
        assert json.loads(out.strip().splitlines()[-1])["summary"] == "mismatch"


class TestUsageContract:
    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["classify", "x", "--bogus"])
        assert err.value.code == 1

    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 1

    def test_runtime_error_exits_one(self, capsys):
        code = cli.main(["classify", "x +", "--point", "0"])
        assert code == 1

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_must_be_finite_and_positive(self, capsys, tol):
        code = cli.main(["classify", "x", "--point", "1", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("arcan: error: --tol")

    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_trials_must_be_positive(self, capsys, trials):
        code = cli.main(["verify", "binoms", "--trials", trials])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("arcan: error: --trials")

    def test_jobs_must_fit_the_machine(self, capsys, monkeypatch):
        # Rejected before any worker pool exists: a pool must never start.
        import os
        from arcan import classify

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")
        monkeypatch.setattr(classify, "ProcessPoolExecutor", no_pool)
        too_many = str((os.cpu_count() or 1) + 1)
        for jobs in ("0", "-1", too_many):
            code = cli.main(["scan", "x^2+y^2", "--grid",
                             "x:-1:1:0.5;y:-1:1:0.5", "--jobs", jobs])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err.startswith("arcan: error: --jobs")

    def test_env_seed_fallback(self, capsys, monkeypatch):
        argv = ["classify", "guard(x^3/(x^2+y^2),0)", "--point", "0,0",
                "--kmax", "2"]
        monkeypatch.setenv("ARCAN_SEED", "17")
        _, from_env = run_cli(capsys, argv)
        monkeypatch.delenv("ARCAN_SEED")
        _, explicit = run_cli(capsys, argv + ["--seed", "17"])
        assert from_env == explicit


class TestJsonEmitter:
    def test_seventeen_significant_digits(self):
        assert cli.emit_json(1 / 3) == "0.33333333333333331"

    def test_fraction_as_string(self):
        from fractions import Fraction
        assert cli.emit_json({"a": Fraction(-3, 4)}) == '{"a": "-3/4"}'

    def test_nonfinite_floats_quoted(self):
        assert cli.emit_json(float("inf")) == '"inf"'
