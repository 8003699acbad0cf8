"""CLI contract: output schemas, determinism, encodings, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from arcan import cli
from arcan.classify import classify_point
from arcan.corpus import lookup
from arcan.expr import eval_point
from arcan.parser import parse


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestClassifyCommand:
    def test_json_verdict(self, capsys):
        code, out = run_cli(capsys, [
            "classify", "guard(x^3/(x^2+y^2),0)", "--point", "0,0",
            "--kmax", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "NonAnalytic"
        assert doc["kStar"] == 1

    def test_rational_mode_prints_fractions(self, capsys):
        code, out = run_cli(capsys, [
            "classify", "guard(x^3/(x^2+y^2),0)", "--point", "1/2,0",
            "--kmax", "2", "--mode", "rational"])
        assert code == 0
        doc = json.loads(out)
        assert doc["point"] == ["1/2", "0"]
        assert doc["status"] == "AnalyticUpTo"

    def test_rational_residuals_are_quoted_fractions(self, capsys):
        # h_k below a jet's valuation is an exact zero, printed as "0".
        code, out = run_cli(capsys, [
            "classify", "x*y", "--point", "0,0", "--mode", "rational",
            "--kmax", "3"])
        assert code == 0
        # an exact order passes only at zero residuals: threshold 0
        tol = '"threshold": 0, "margin": 0'
        assert out == (
            '{"point": ["0", "0"], "status": "AnalyticUpTo", "kMax": 3, '
            '"perOrder": [{"k": 0, "residuals": ["0", "0"], "scale": 1, '
            f'{tol}, "fitted": {{"nvars": 2, "degree": 0, '
            '"coeffs": ["0"]}}, {"k": 1, "residuals": ["0", "0"], '
            f'"scale": 1, {tol}, "fitted": {{"nvars": 2, '
            '"degree": 1, "coeffs": ["0", "0"]}}, {"k": 2, '
            f'"residuals": ["0", "0", "0"], "scale": 169, {tol}, '
            '"fitted": {"nvars": 2, "degree": 2, "coeffs": ["0", "1", "0"]}}, '
            f'{{"k": 3, "residuals": ["0", "0", "0", "0"], "scale": 1, {tol}, '
            '"fitted": {"nvars": 2, "degree": 3, '
            '"coeffs": ["0", "0", "0", "0"]}}]}\n')

    def test_a_long_rational_ladder_is_conclusive(self, capsys):
        # The plane's 318 lattice lines cover order 100's 202 rows, and
        # only the exact rank of a fit block matters.
        start = time.perf_counter()
        code, out = run_cli(capsys, [
            "classify", "x*y", "--point", "1,2", "--kmax", "100",
            "--mode", "rational"])
        assert time.perf_counter() - start < 10
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "AnalyticUpTo"
        assert {entry["margin"] for entry in doc["perOrder"]} == {0}

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_zeroth_power_of_a_pole_is_the_constant_one(self, capsys, mode):
        # (1/x^20)^0 is 1 wherever 1/x^20 is defined, as (1/x^30)*x^30 is
        verdicts = []
        for text in ("(1/x^20)^0", "(1/x^30)*x^30"):
            code, out = run_cli(capsys, ["classify", text, "--point", "0",
                                         "--kmax", "2", "--mode", mode])
            assert code == 0
            verdicts.append(json.loads(out))
        assert verdicts[0]["status"] == "AnalyticUpTo"
        assert verdicts[0] == verdicts[1]

    @pytest.mark.parametrize("expr, point", [("x*y", "1e200,1e200"),
                                             ("x+y", "1e308,1e308")])
    def test_a_float_overflow_is_inconclusive(self, expr, point):
        # h_0 is inf: the order's residuals say nothing either way
        done = subprocess.run(
            [sys.executable, "-m", "arcan", "classify", expr, "--point",
             point, "--kmax", "2"], env=TestModuleEntryPoint.ENV,
            capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        doc = json.loads(done.stdout)
        assert doc["status"] == "Inconclusive"
        assert "order 0" in doc["reason"] and "overflow" in doc["reason"]
        assert "--mode rational" in doc["reason"]

    @pytest.mark.parametrize("expr, point, mode, reason", [
        ("sqrt(2)*x^2000", "2", "float",
         "order 0: h_0 or its residuals overflow the float range"),
        ("sqrt(2)*x^2000", "2", "rational",
         "the jet along (1,) overflows the float range"),
        ("x^1000", "3", "float",
         "order 0: h_0 or its residuals overflow the float range"),
    ], ids=["irrational-float", "irrational-rational", "power-float"])
    def test_a_point_value_beyond_the_float_range_is_left_to_the_ladder(
            self, expr, point, mode, reason):
        done = subprocess.run(
            [sys.executable, "-m", "arcan", "classify", expr, "--point",
             point, "--kmax", "2", "--mode", mode],
            env=TestModuleEntryPoint.ENV, capture_output=True, text=True,
            timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        doc = json.loads(done.stdout)
        assert doc["status"] == "Inconclusive"
        assert doc["reason"].startswith(reason)

    def test_a_ladder_decides_where_the_point_value_overflows(self, capsys):
        # 0 * x^2000 + x is x: the point value overflows in x^2000, the
        # jets of (x - x) * x^2000 are zero
        code, out = run_cli(capsys, ["classify", "(x-x)*x^2000 + x",
                                     "--point", "2", "--kmax", "3"])
        assert code == 0 and json.loads(out)["status"] == "AnalyticUpTo"

    @pytest.mark.parametrize("expr, point", [("x^2000", "2"), ("x", "1e400")])
    def test_exact_values_beyond_the_float_range(self, capsys, expr, point):
        code, out = run_cli(capsys, ["classify", expr, "--point", point,
                                     "--kmax", "2", "--mode", "rational"])
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "AnalyticUpTo"
        assert doc["perOrder"][0]["scale"] == "inf"
        assert doc["perOrder"][0]["margin"] == 0

    def test_exact_orders_below_a_float_term_stay_exact(self, capsys):
        # sqrt(2)*x^40 is float, but reaches no h_k of the ladder: order 1
        # is solved exactly and fails on a residual of ~2e-12, which the
        # float test (threshold 1e-7) would pass
        code, out = run_cli(capsys, [
            "classify", "guard(x^3/(x^2+y^2),0)/10^12 + sqrt(2)*x^40",
            "--point", "0,0", "--mode", "rational"])
        doc = json.loads(out)
        assert (code, doc["status"], doc["kStar"]) == (0, "NonAnalytic", 1)
        assert doc["perOrder"][1]["threshold"] == 0
        assert doc["perOrder"][1]["residuals"] == [
            "399/9605000000000000", "10089/4802500000000000"]

    def test_an_exact_residual_beyond_the_float_range(self, capsys):
        code, out = run_cli(capsys, [
            "classify", "guard(x^3/(x^2+y^2),0) * 10^500", "--point", "0,0",
            "--kmax", "2", "--mode", "rational"])
        doc = json.loads(out)
        assert code == 0
        assert (doc["status"], doc["kStar"], doc["residual"]) == \
            ("NonAnalytic", 1, "inf")
        assert doc["perOrder"][1]["margin"] == "inf"

    def test_a_float_jet_beyond_the_float_range_is_inconclusive(self,
                                                                capsys):
        # an irrational sqrt makes the jets float; times 10^400 they overflow
        code, out = run_cli(capsys, [
            "classify", "sqrt(x^2+y^2) * 10^400", "--point", "0,0",
            "--kmax", "2", "--mode", "rational"])
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "Inconclusive"
        assert "overflows the float range" in doc["reason"]

    @pytest.mark.parametrize("argv, message", [
        (["classify", "x*y", "--point", "1,-1e400"], "coordinate -1e400"),
        (["scan", "x*y", "--grid", "x:0:1:1;y:0:1e309:1e309"],
         "grid axis 'y' bound 1e309"),
    ])
    def test_float_inputs_beyond_the_float_range(self, capsys, argv,
                                                 message):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (f"arcan: error: {message} is beyond the "
                                "float range; --mode rational keeps it "
                                "exact\n")
        assert cli.main(argv + ["--mode", "rational", "--kmax", "2"]) == 0

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("argv, message", [
        (["classify", "x*y", "--point", "1,1/0"], "coordinate 1/0"),
        (["scan", "x*y", "--grid", "x:0:1:1;y:-1/0:1:1"],
         "grid axis 'y' bound -1/0"),
        (["scan", "x*y", "--grid", "x:0:1:1;y:0:1: 1/0 "],
         "grid axis 'y' step 1/0"),
    ], ids=["point", "bound", "step"])
    def test_a_zero_denominator_names_its_field(self, capsys, argv,
                                                 message, mode):
        code = cli.main(argv + ["--mode", mode])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == \
            f"arcan: error: {message} has a zero denominator\n"


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

    def test_a_point_value_beyond_the_float_range_ends_no_scan(self, capsys):
        # the rational shortcut's point evaluation overflows at x = 2
        code, out = run_cli(capsys, ["scan", "sqrt(2)*x^2000", "--grid",
                                     "x:1:2:1", "--mode", "rational",
                                     "--kmax", "2"])
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 0
        assert [l["status"] for l in lines] == ["AnalyticUpTo", "Inconclusive"]
        assert "overflows the float range" in lines[1]["reason"]

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

    def test_worker_count_changes_no_line(self, capsys):
        args = ["scan", "guard(x^3/(x^2+y^2),0)", "--grid",
                "x:-0.5:0.5:0.25;y:-0.5:0.5:0.5", "--kmax", "4", "--seed", "3",
                "--no-shortcut"]
        _, serial = run_cli(capsys, args + ["--jobs", "1"])
        _, parallel = run_cli(capsys, args + ["--jobs", "2"])
        assert serial == parallel
        assert "nodeSeed" not in serial

    def test_grid_must_cover_all_variables(self, capsys):
        code, _ = run_cli(capsys, [
            "scan", "x+y", "--grid", "x:-1:1:0.5"])
        assert code == 1

    @pytest.mark.parametrize("expr, grid", [
        ("x", "x:0:1:1;x:5:6:1"),
        # x1 names the same axis as x
        ("x*y", "x:0:0:1;y:0:0:1;x1:7:7:1"),
    ])
    def test_repeated_grid_axis_is_refused(self, capsys, expr, grid):
        code = cli.main(["scan", expr, "--grid", grid])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "arcan: error: grid axis 'x' given twice\n"


    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("text", ["((x-x)/x^30)^0",
                                      "guard((x-x)/x^30, 0) + x"])
    def test_a_short_jet_window_is_inconclusive(self, capsys, text, mode):
        # at x = 0 the division by x^30 leaves jets that end below t^0
        code, out = run_cli(capsys, ["scan", text, "--grid", "x:-1:1:1",
                                     "--kmax", "2", "--mode", mode])
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [line["status"] for line in lines] == \
            ["AnalyticUpTo", "Inconclusive", "AnalyticUpTo"]
        assert "retained order" in lines[1]["reason"]
        assert "--order 8" in lines[1]["reason"]


class TestArcCommand:
    def test_removable_mismatch_report(self, capsys):
        code, out = run_cli(capsys, [
            "arc", "guard(x*y/(x^2+y^2),0)", "--arc", "t, t"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "RemovableMismatch"
        assert doc["mismatch"] == 0.5

    def test_float_zeroth_powers_print_as_floats(self, capsys):
        code, out = run_cli(capsys, ["arc", "x^0/y^0 + x", "--arc", "t, 1+t"])
        assert code == 0
        coeffs = json.loads(out)["coeffs"]
        assert coeffs == [1, 1] + [0] * 19
        assert not any(isinstance(c, str) for c in coeffs)

    def test_float_zeroth_powers_of_zero_print_as_floats(self, capsys):
        # (x-x)^0 is the float 1.0, so the quotient stays float
        code, out = run_cli(capsys, ["arc", "(x-x)^0/(y-y)^0 + x", "--arc",
                                     "t, 1+t"])
        assert code == 0
        doc = json.loads(out)
        assert doc["coeffs"] == [1, 1] + [0] * 19
        assert not any(isinstance(c, str) for c in doc["coeffs"])
        assert '"coeffs": [1, 1, 0,' in out

    def test_pole_report(self, capsys):
        code, out = run_cli(capsys, [
            "arc", "guard(1/(x^2+y^2),0)", "--arc", "t, 0"])
        doc = json.loads(out)
        assert doc["kind"] == "Pole"
        assert doc["valuation"] == -2

    @pytest.mark.parametrize("order", [4, 30])
    def test_order_is_the_series_window(self, capsys, order):
        # not raised to a ladder's 2*kmax+4: arc runs no ladder
        code, out = run_cli(capsys, ["arc", "x", "--arc", "t", "--order",
                                     str(order)])
        doc = json.loads(out)
        assert (code, doc["order"]) == (0, order)
        assert doc["coeffs"] == [1] + [0] * (order - 1)

    def test_zeroth_power_of_a_pole_is_the_constant_one(self, capsys):
        code, out = run_cli(capsys, ["arc", "(1/x^20)^0", "--arc", "t",
                                     "--order", "8"])
        assert code == 0
        _, same = run_cli(capsys, ["arc", "(1/x^30)*x^30", "--arc", "t",
                                   "--order", "8"])
        assert json.loads(out)["kind"] == "RemovableMismatch"
        assert out == same

    def test_rational_coefficients_are_quoted_fractions(self, capsys):
        code, out = run_cli(capsys, [
            "arc", "x*y + 1", "--arc", "t, t^2", "--mode", "rational"])
        assert code == 0
        coeffs = ", ".join(['"1"', '"0"', '"0"', '"1"'] + ['"0"'] * 17)
        assert out == (
            '{"kind": "Analytic", "valuation": 0, "order": 20, '
            f'"coeffs": [{coeffs}], "pointValue": "1", "mismatch": "0"}}\n')

    @pytest.mark.parametrize("expr, order, coeffs", [
        ("x/3 + 0*sqrt(2)", 3, '"1/3", "0", "0"'),
        ("x/3 + sqrt(2)*x^3", 4, '"1/3", "0", 1.4142135623730951, 0'),
        ("(x/3 + sqrt(2)*x^3)^0 + (0*sqrt(2))^0", 2, '"2", 0, 0')])
    def test_a_rational_coefficient_no_float_reaches_stays_exact(
            self, capsys, expr, order, coeffs):
        # past an irrational sqrt, each coefficient turns float only where
        # a float reaches it; a zero jet carries no float
        code, out = run_cli(capsys, ["arc", expr, "--arc", "t", "--mode",
                                     "rational", "--order", str(order)])
        assert code == 0
        assert f'"coeffs": [{coeffs}]' in out

    def test_an_exact_jet_beyond_the_float_range_names_the_arc(self, capsys):
        # an irrational sqrt makes the jet float; 2^2000 does not fit one
        code = cli.main(["arc", "sqrt(2)*x^2000*y", "--arc", "t+2, t^2-1/3",
                         "--mode", "rational", "--order", "8"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(
            "arcan: error: the jet along the arc t -> (t + 2), "
            "((t ^ 2) - (1/3)) overflows the float range (")


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

    def test_rational_divisor_points_are_exact(self, capsys, monkeypatch):
        from arcan import blowup
        seen = []

        def spy(e, x, *args, **kwargs):
            seen.append(tuple(x))
            return classify_point(e, x, *args, **kwargs)
        monkeypatch.setattr(blowup, "classify_point", spy)
        code, out = run_cli(capsys, [
            "blowup", "guard(x^3/(x^2+y^2),0)",
            "--chart", '{"n":2,"center":[1,2],"axis":1}',
            "--classify-divisor", "3", "--kmax", "3", "--mode", "rational"])
        assert code == 0 and len(seen) == 3
        assert all(type(c) in (int, Fraction) for pt in seen for c in pt)
        for verdict in json.loads(out)["divisorVerdicts"]:
            assert verdict["status"] == "AnalyticUpTo"
            assert all(isinstance(c, str) for c in verdict["point"])
            assert {(entry["threshold"], entry["margin"])
                    for entry in verdict["perOrder"]} == {(0, 0)}


    CHART3 = '{"n":3,"center":[1,2],"axis":1}'

    @pytest.mark.parametrize("power", [20, 30, 40])
    def test_a_long_expansion_reparses(self, capsys, power):
        code, out = run_cli(capsys, ["blowup", f"(x+y+z)^{power}/x",
                                     "--chart", self.CHART3])
        assert code == 0
        e = parse(json.loads(out)["expr"])
        # in the chart x = s and y = s y: (s + s y + z)^power / s
        s, y, z = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
        assert eval_point(e, (s, y, z), True) == (s + s * y + z) ** power / s

    def test_a_repeated_power_is_expanded_once(self, capsys):
        # expanding (x+y+z)^40 twice would pass the budget
        text = "((x+y+z)^40 + (x+y+z)^40)/x"
        code, out = run_cli(capsys, ["blowup", text, "--chart", self.CHART3])
        assert code == 0
        pulled = parse(json.loads(out)["expr"])
        s, y, z = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
        assert eval_point(pulled, (s, y, z), True) \
            == eval_point(parse(text), (s, s * y, z), True)

    def test_an_expansion_past_the_bound_is_refused(self, capsys):
        start = time.perf_counter()
        code = cli.main(["blowup", "(x+y+z)^200/x", "--chart", self.CHART3])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 10
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("arcan: error: expanding a product")

    def test_one_budget_bounds_all_expansions_of_a_pullback(self, capsys):
        # Twelve distinct powers, each under the bound alone: the budget
        # is the whole pullback's, so it runs out within the second power.
        text = "(" + " + ".join(f"(x+y+{k}*z)^40" for k in range(1, 13)) \
            + ")/x"
        start = time.perf_counter()
        code = cli.main(["blowup", text, "--chart", self.CHART3])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 2
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("arcan: error: expanding a product")
        assert "100000 term pairs" in captured.err


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

    @pytest.mark.parametrize("identity", ["alibaba", "loja"])
    def test_float_identities_refuse_rational_mode(self, capsys, identity):
        code = cli.main(["verify", identity, "--mode", "rational"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (f"arcan: error: verify {identity} runs in "
                                "float mode only\n")

    @pytest.mark.parametrize("flags, named", [
        (["--trials", "1000"], "--trials"), (["--seed", "3"], "--seed"),
        (["--trials", "5", "--seed", "3"], "--trials or --seed")])
    def test_loja_refuses_the_flags_it_cannot_read(self, capsys, flags,
                                                    named):
        # its two growth fits run on a fixed grid: "trials" is always 2
        code = cli.main(["verify", "loja", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (f"arcan: error: verify loja takes no {named}: "
                                "its two growth fits are fixed\n")

    def test_loja_without_the_flags(self, capsys):
        code, out = run_cli(capsys, ["verify", "loja"])
        doc = json.loads(out)
        assert code == 0
        assert (doc["identity"], doc["trials"], doc["passed"]) \
            == ("loja", 2, True)


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

    def test_listing_one_entry(self, capsys):
        code, out = run_cli(capsys, ["corpus", "--list", "E4"])
        assert code == 0
        assert [json.loads(l)["name"] for l in out.splitlines()] == ["E4"]

    @pytest.mark.parametrize("argv", [["corpus", "E9"],
                                      ["corpus", "--list", "E9"]])
    def test_unknown_entry(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "arcan: error: no corpus entry named 'E9'\n"

    def test_rational_mode_is_refused(self, capsys):
        # corpus scans run in float arithmetic only
        with pytest.raises(SystemExit) as err:
            cli.main(["corpus", "E1", "--mode", "rational"])
        assert err.value.code == 1
        assert capsys.readouterr().err.endswith(
            "arcan: error: unrecognized arguments: --mode rational\n")

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

    @pytest.mark.parametrize("argv, value", [
        (["classify", "x*y", "--point", "-1,2"], "--point=-1,2"),
        (["arc", "sqrt(x)", "--arc", "-t^2"], "--arc=-t^2")])
    def test_a_subcommand_s_usage_error_is_arcan_s(self, capsys, argv,
                                                   value):
        # a value beginning with "-" reads as a flag unless written --flag=
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        captured = capsys.readouterr()
        assert (err.value.code, captured.out) == (1, "")
        assert captured.err.splitlines()[-1] == (
            f"arcan: error: argument {argv[2]}: expected one argument")
        assert cli.main(argv[:2] + [value]) in (0, 1)
        assert "expected one argument" not in capsys.readouterr().err

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

    @pytest.mark.parametrize("trials", ["0", "100001", "1000000000000"])
    def test_trials_are_bounded(self, capsys, trials):
        # a trial count that would run for days is refused up front
        code = cli.main(["verify", "binoms", "--trials", trials])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == \
            "arcan: error: --trials must be between 1 and 100000\n"

    @pytest.mark.parametrize("argv, flag", [
        (["classify", "x", "--point", "1", "--order", "-1"], "--order"),
        (["arc", "x", "--arc", "t", "--arc-tol", "-1"], "--arc-tol"),
        (["arc", "x", "--arc", "t", "--arc-tol", "nan"], "--arc-tol"),
        (["arc", "x", "--arc", "t", "--arc-tol", "inf"], "--arc-tol"),
        (["blowup", "x*y", "--chart", '{"n":2,"center":[1,2],"axis":1}',
          "--classify-divisor", "-2"], "--classify-divisor"),
        (["classify", "x", "--point", "1", "--order", "405"], "--order"),
        (["classify", "x", "--point", "1", "--kmax", "0"], "--kmax"),
        (["classify", "x", "--point", "1", "--kmax", "101"], "--kmax"),
        (["classify", "x", "--point", "1", "--kmax", "100000"], "--kmax"),
        # d(3, 62) = 2016 directions per order
        (["classify", "x+y+z", "--point", "1,1,1", "--kmax", "62"], "--kmax"),
        (["scan", "x+y+z", "--grid", "x:0:1:1;y:0:1:1;z:0:1:1",
          "--kmax", "62"], "--kmax"),
        (["corpus", "E6", "--kmax", "100"], "--kmax"),
        (["blowup", "x*y*z", "--chart", '{"n":3,"center":[1,2],"axis":1}',
          "--classify-divisor", "1", "--kmax", "62"], "--kmax"),
    ])
    def test_numeric_arguments_are_checked(self, capsys, argv, flag):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"arcan: error: {flag} ")

    def test_boundary_values_are_accepted(self, capsys):
        assert cli.main(["classify", "x", "--point", "1", "--order", "0",
                         "--kmax", "1"]) == 0
        assert cli.main(["arc", "x", "--arc", "t", "--arc-tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["kind"] \
            == "Analytic"
        assert cli.main(["blowup", "x*y", "--chart",
                         '{"n":2,"center":[1,2],"axis":1}',
                         "--classify-divisor", "0"]) == 0
        assert cli.main(["arc", "x", "--arc", "t", "--order", "404"]) == 0

    def test_classify_divisor_is_bounded_before_any_work(self, capsys,
                                                         monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("ran before --classify-divisor was checked")
        for name in ("parse", "pullback", "classify_pullback"):
            monkeypatch.setattr(cli, name, unreachable)
        code = cli.main(["blowup", "x*y", "--chart",
                         '{"n":2,"center":[1,2],"axis":1}',
                         "--classify-divisor",
                         str(cli.MAX_DIVISOR_POINTS + 1)])
        captured = capsys.readouterr()
        assert cli.MAX_DIVISOR_POINTS == 1000
        assert code == 1 and captured.out == ""
        assert captured.err == "arcan: error: --classify-divisor must be " \
            "between 0 and 1000\n"

    def test_ladder_bound_admits_three_variables_at_kmax_60(self):
        # d(3, 60) = 1891; checked without running the ladder
        cli._check_ladder(60, 3)
        with pytest.raises(cli.ArcanError, match="2016 directions"):
            cli._check_ladder(62, 3)

    def test_jobs_must_fit_the_machine(self, capsys, monkeypatch):
        # Rejected before any worker pool exists: a pool must never start.
        # iter_scan imports the pool where it starts one.
        import os

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        too_many = str((os.cpu_count() or 1) + 1)
        for jobs in ("0", "-1", too_many):
            code = cli.main(["scan", "x^2+y^2", "--grid",
                             "x:-1:1:0.5;y:-1:1:0.5", "--jobs", jobs])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err.startswith("arcan: error: --jobs")

    @pytest.mark.parametrize("expr", [
        "x^99999",
        "(" * 3000 + "x" + ")" * 3000,
    ], ids=["huge-exponent", "deep-parens"])
    def test_hostile_expressions_end_in_an_error(self, capsys, expr):
        code = cli.main(["classify", expr, "--point", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("arcan: error: ")

    def test_nested_powers_are_refused_at_once(self, capsys):
        t0 = time.perf_counter()
        code = cli.main(["classify", "(x^10000)^10000", "--point", "3",
                         "--mode", "rational", "--kmax", "2"])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("arcan: error: nested exponents")
        assert elapsed < 1.0

    def test_grid_above_the_cap_is_refused_before_it_is_built(self, capsys):
        t0 = time.perf_counter()
        code = cli.main(["scan", "x", "--grid", "x:0:1:1e-7"])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("arcan: error: grid has 10000001 points")
        assert elapsed < 1.0

    def test_env_seed_fallback(self, capsys, monkeypatch):
        # the seed draws blowup's divisor points
        argv = ["blowup", "guard(x^3/(x^2+y^2),0)", "--chart", CHART,
                "--classify-divisor", "2", "--kmax", "2"]
        monkeypatch.setenv("ARCAN_SEED", "17")
        _, from_env = run_cli(capsys, argv)
        monkeypatch.delenv("ARCAN_SEED")
        _, explicit = run_cli(capsys, argv + ["--seed", "17"])
        _, default = run_cli(capsys, argv)
        assert from_env == explicit != default

    def test_scan_ignores_its_seed(self, capsys):
        # ladders read no seed: --seed is accepted, and changes no byte
        entry = lookup("E6")
        for extra in ([], ["--no-shortcut"]):
            argv = ["scan", entry.source, "--grid",
                    "x:-1:3:1/2;y:-1:1:1;z:0:0:1", "--kmax", "4", *extra]
            outputs = [run_cli(capsys, argv + seed) for seed in
                       ([], ["--seed", "0"], ["--seed", "1"])]
            assert outputs[0][0] == 0 and '"NonAnalytic"' in outputs[0][1]
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_classify_takes_no_seed(self, capsys):
        argv = ["classify", "x*y", "--point", "1,2", "--seed", "1"]
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 1 and captured.out == ""
        assert captured.err.endswith(
            "arcan: error: unrecognized arguments: --seed 1\n")
        assert "Traceback" not in captured.err


# Each subcommand's flags, and a valid value for each flag.
FLAGS = {
    "classify": ["--point", "--mode", "--kmax", "--tol", "--order"],
    "scan": ["--grid", "--no-shortcut", "--mode", "--kmax", "--tol",
             "--order", "--seed", "--format", "--jobs"],
    "arc": ["--arc", "--arc-tol", "--mode", "--order"],
    "blowup": ["--chart", "--classify-divisor", "--mode", "--kmax", "--tol",
               "--order", "--seed"],
    "verify": ["--trials", "--mode", "--seed"],
    "corpus": ["--list", "--kmax", "--tol", "--seed", "--jobs"],
}
CHART = '{"n":2,"center":[1,2],"axis":1}'
VALUES = {"--point": "0", "--grid": "x:0:1:1", "--no-shortcut": None,
          "--mode": "float", "--kmax": "2", "--tol": "1e-6", "--order": "8",
          "--seed": "1", "--format": "csv", "--jobs": "1", "--arc": "t",
          "--arc-tol": "0", "--chart": CHART, "--classify-divisor": "1",
          "--trials": "1", "--list": None}
# A cheap valid invocation of each subcommand.
BASE = {"classify": ["classify", "x", "--point", "0"],
        "scan": ["scan", "x", "--grid", "x:0:1:1"],
        "arc": ["arc", "x", "--arc", "t"],
        "blowup": ["blowup", "x*y", "--chart", CHART],
        "verify": ["verify", "binoms", "--trials", "1"],
        "corpus": ["corpus", "E1", "--list"]}


def flag_argv(flag: str) -> list:
    return [flag] if VALUES[flag] is None else [flag, VALUES[flag]]


def parser_flags() -> dict:
    """Each subcommand's long options, as build_parser() declares them."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: [flag for action in p._actions
                   for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"]
            for name, p in sub.choices.items()}


class TestOptionSurface:
    def test_each_subcommand_declares_exactly_its_flags(self):
        assert {name: sorted(flags) for name, flags in parser_flags().items()} \
            == {name: sorted(flags) for name, flags in FLAGS.items()}
        assert sum(map(len, FLAGS.values())) == 33

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in FLAGS for flag in FLAGS[command]])
    def test_a_subcommand_takes_its_flags(self, command, flag):
        args = cli.build_parser().parse_args(BASE[command] + flag_argv(flag))
        assert args.command == command

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in FLAGS for flag in sorted(VALUES)
        if flag not in FLAGS[command]])
    def test_any_other_flag_is_unrecognized(self, capsys, command, flag):
        with pytest.raises(SystemExit) as err:
            cli.main(BASE[command] + flag_argv(flag))
        captured = capsys.readouterr()
        assert err.value.code == 1 and captured.out == ""
        assert "arcan: error: unrecognized arguments: " + flag in captured.err
        assert "Traceback" not in captured.err

    def test_readme_lists_each_subcommand_s_flags(self):
        # the README's per-subcommand flag lines follow build_parser()
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = {match[1]: re.findall(r"--[a-z-]+", match[2])
                  for match in re.finditer(r"^- `(\w+)`: (.*)$", readme,
                                           re.MULTILINE)}
        assert listed == parser_flags()

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_arcan_seed_is_read_by_the_commands_taking_seed(
            self, capsys, monkeypatch, command):
        # scan and corpus accept --seed and ignore it, and ARCAN_SEED too
        monkeypatch.setenv("ARCAN_SEED", "x")
        code = cli.main(BASE[command])
        captured = capsys.readouterr()
        if command in ("blowup", "verify"):
            assert code == 1
            assert captured.err == ("arcan: error: ARCAN_SEED must be an "
                                    "integer, got 'x'\n")
        else:
            assert (code, captured.err) == (0, "")


class TestModuleEntryPoint:
    ENV = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}

    def test_python_dash_m_arcan_help(self):
        done = subprocess.run([sys.executable, "-m", "arcan", "--help"],
                              env=self.ENV, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: arcan")

    def test_the_worker_pool_module_loads_only_for_a_pool(self):
        # concurrent.futures.process costs every process ~15 ms to import:
        # neither the CLI's import nor a scan that starts no pool loads it
        script = (
            "import contextlib, io, sys\n"
            "import arcan.cli\n"
            "print('concurrent.futures.process' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = arcan.cli.main(['scan', 'x/y', '--grid',\n"
            "                           'x:-1:1:1/2;y:-1:1:1/2', '--jobs', '1'])\n"
            "print(code, out.getvalue().count('NonAnalytic'))\n"
            "print('concurrent.futures.process' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", script], env=self.ENV,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        # the scan ran ladders: x/y is NonAnalytic on the line y = 0
        assert done.stdout == "False\n0 5\nFalse\n"

    @pytest.mark.parametrize("argv", [
        ["classify", "x*y", "--point", "1,2"],
        # 4913 lines, written in blocks
        ["scan", "x*y*z", "--grid", "x:-1:1:1/8;y:-1:1:1/8;z:-1:1:1/8"]])
    def test_closed_stdout_exits_one_without_a_traceback(self, argv):
        # The reader closes its end before arcan writes anything.
        proc = subprocess.Popen(
            [sys.executable, "-m", "arcan", *argv], env=self.ENV,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err.startswith("arcan: error: ")
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestJsonEmitter:
    def test_seventeen_significant_digits(self):
        assert cli.emit_json(1 / 3) == "0.33333333333333331"

    def test_subclasses_emit_as_their_base_type(self):
        from collections import OrderedDict, namedtuple
        from enum import IntEnum

        class Label(str):
            pass

        class Level(IntEnum):
            HIGH = 3

        Pair = namedtuple("Pair", "a b")
        doc = OrderedDict([("flag", True), ("n", Level.HIGH),
                           ("name", Label('a"b')), ("pair", Pair(0.5, None)),
                           ("x", np.float64(0.1)), ("nested", [{"k": False}])])
        assert cli.emit_json(doc) == (
            '{"flag": true, "n": 3, "name": "a\\"b", "pair": [0.5, null], '
            '"x": 0.10000000000000001, "nested": [{"k": false}]}')
        with pytest.raises(TypeError):
            cli.emit_json({"a": object()})

    def test_fraction_as_string(self):
        from fractions import Fraction
        assert cli.emit_json({"a": Fraction(-3, 4)}) == '{"a": "-3/4"}'

    def test_nonfinite_floats_quoted(self):
        assert cli.emit_json(float("inf")) == '"inf"'
