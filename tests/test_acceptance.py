"""Acceptance suite: the package's exit criteria.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure) and asserts the criterion at its stated tolerance.
"""

import random
import time
from fractions import Fraction

from arcan.blowup import classify_pullback, fiber_lift_check, make_chart, pullback
from arcan.classify import ANALYTIC_UP_TO, NON_ANALYTIC, arc_symmetry_check, \
    flagged_points, gateaux_coeff, grid_points, loja_estimate, scan_region
from arcan.corpus import corpus_list, lookup
from arcan.expr import REMOVABLE_MISMATCH, arc_check
from arcan.parser import parse, parse_arc
from arcan.verify import check_alibaba, check_binoms, check_euler, \
    check_interp_roundtrip, loja_grid_samples

from helpers import random_arc

F = Fraction
SEED = 2026


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_identity_suite_exact():
    t0 = time.time()
    binoms = check_binoms(1000, SEED, exact=True)
    interp = check_interp_roundtrip(1000, SEED, exact=True)
    euler = check_euler(1000, SEED, exact=True)
    elapsed = time.time() - t0
    ok = (binoms.passed and binoms.worst_residual == 0
          and interp.passed and interp.worst_residual == 0
          and euler.passed and euler.worst_residual == 0
          and elapsed < 60.0)
    _report("criterion-1 identity-suite", ok,
            f"residuals binoms={binoms.worst_residual} "
            f"interp={interp.worst_residual} euler={euler.worst_residual}, "
            f"3000 rational trials in {elapsed:.1f}s (< 60s)")


def test_criterion_2_corpus_loci():
    details = []
    ok = True
    for name in ("E1", "E2", "E3"):
        entry = lookup(name)
        verdicts = scan_region(entry.expr(), entry.scan_axes, k_max=6,
                               tol=1e-7)
        flags = set(flagged_points(verdicts))
        ok = ok and flags == {(0.0, 0.0)}
        details.append(f"{name}:{len(flags)} flag(s)")
    entry = lookup("E5")
    verdicts = scan_region(entry.expr(), entry.scan_axes, k_max=6, tol=1e-7)
    flags = set(flagged_points(verdicts))
    expected = {p for p in grid_points(entry.scan_axes)
                if p[0] == 0.0 and p[1] == 0.0}
    ok = ok and flags == expected
    details.append(f"E5:{len(flags)}/{len(expected)} axis points, "
                   f"false_pos={len(flags - expected)}, "
                   f"false_neg={len(expected - flags)}")
    _report("criterion-2 corpus-loci", ok, "; ".join(details))


def test_criterion_3_discontinuity_detection():
    report = arc_check(lookup("E4").expr(), parse_arc("t, t"), order=8)
    ok = (report.kind == REMOVABLE_MISMATCH
          and abs(report.mismatch - 0.5) <= 1e-12)
    _report("criterion-3 discontinuity", ok,
            f"kind={report.kind}, mismatch={report.mismatch!r}")


def test_criterion_4_blowup_resolution():
    e1 = lookup("E1").expr()
    chart = make_chart(2, (1, 2), 1)
    pb = pullback(e1, chart)
    points = [(0.0, -2.0 + i * 0.35) for i in range(12)]
    verdicts = classify_pullback(e1, chart, points, k_max=6, tol=1e-7)
    analytic = sum(1 for v in verdicts if v.status == ANALYTIC_UP_TO)
    ok = pb.cancelled_power == 2 and analytic >= 10 and analytic == len(points)
    _report("criterion-4 blowup-resolution", ok,
            f"cancelledPower={pb.cancelled_power}, "
            f"analytic divisor points {analytic}/{len(points)}")


def test_criterion_5_fiber_lift():
    e = parse("guard(z^3 / (z^2 + x^2 + y^2), 0)", nvars=3)
    chart = make_chart(3, (2, 3), 3)
    report = fiber_lift_check(e, chart, (0.0, 0.0, 0.0), k_max=6, tol=1e-7,
                              seed=SEED, n_fiber=16)
    bad = sum(1 for v in report.fiber_verdicts if v.status == NON_ANALYTIC)
    ok = report.consistent and bad == 16
    _report("criterion-5 fiber-lift", ok,
            f"consistent={report.consistent}, non-analytic fiber points "
            f"{bad}/16")


def test_criterion_6_arc_symmetry():
    rng = random.Random(SEED)
    worst = 0
    checked = 0
    ok = True
    for entry in corpus_list():
        e = entry.expr()
        locus_pts = [tuple(float(c) for c in p)
                     for p in entry.exact_locus_points]
        for i in range(100):
            if i % 4 == 0 and locus_pts:
                through = locus_pts[i % len(locus_pts)]
            else:
                through = None
            arc = random_arc(rng, entry.nvars, degree=4, through=through)
            report = arc_symmetry_check(e, arc, samples=64, k_max=4,
                                        tol=1e-7, allowed_exceptions=2)
            checked += 1
            if report.negative_uniformly_analytic:
                worst = max(worst, report.positive_exceptions)
            ok = ok and not report.violation
    _report("criterion-6 arc-symmetry", ok,
            f"{checked} arcs over {len(corpus_list())} entries, no violation; "
            f"worst positive-side exception count {worst}/64 (allowed 2)")


def test_criterion_7_loja_fits():
    samples = loja_grid_samples()
    gamma = [(0.0, 0.0)]
    inv = loja_estimate(parse("guard(1/(x^2+y^2), 0)"), gamma, samples)
    e4 = loja_estimate(lookup("E4").expr(), gamma, samples)
    ok = (inv.N == 2 and 1.0 <= inv.C <= 1.01
          and e4.N == 0 and 0.5 <= e4.C <= 0.51)
    _report("criterion-7 loja-fits", ok,
            f"1/r^2: N={inv.N}, C={inv.C:.6f} (want [1,1.01]); "
            f"E4: N={e4.N}, C={e4.C:.6f} (want [0.5,0.51]); "
            f"{len(samples)} samples")


def test_criterion_8_gateaux_homogeneity():
    rng = random.Random(SEED + 8)
    worst = 0.0
    for entry in corpus_list():
        e = entry.expr()
        for _ in range(100):
            x = tuple(rng.uniform(-1, 1) for _ in range(entry.nvars))
            v = tuple(rng.uniform(-1, 1) for _ in range(entry.nvars))
            lam = rng.uniform(0.25, 2.0) * rng.choice((-1, 1))
            k = rng.randint(0, 6)
            lhs = gateaux_coeff(e, x, tuple(lam * c for c in v), k, order=16)
            rhs = lam ** k * gateaux_coeff(e, x, v, k, order=16)
            rel = abs(lhs - rhs) / (1 + abs(rhs))
            worst = max(worst, rel)
    ok = worst <= 1e-9
    _report("criterion-8 gateaux-homogeneity", ok,
            f"600 trials over 6 entries, worst relative deviation {worst:.3g} "
            f"(tol 1e-9)")


def test_criterion_9_shrink_bound():
    report = check_alibaba(trials=100, seed=SEED, max_n=3, max_k=6,
                           n_samples=10_000)
    _report("criterion-9 shrink-bound", report.passed,
            f"100 random polynomials, bounds held in every trial; worst "
            f"sampled excess over bound {report.worst_residual:.3g}")
