"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from arcan import verify  # noqa: E402
from arcan.classify import ANALYTIC_UP_TO, INCONCLUSIVE, NON_ANALYTIC, \
    Verdict  # noqa: E402
from arcan.corpus import lookup  # noqa: E402
from arcan.seeds import derive_seed  # noqa: E402


def _keys(name, seed, c=0):
    return [op.key for op in workloads.build(name, seed)(c)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_op_inputs(name):
    assert _keys(name, 7) == _keys(name, 7)
    assert _keys(name, 7, 1) == _keys(name, 7, 1)
    assert _keys(name, 7) != _keys(name, 8)
    assert _keys(name, 7) != _keys(name, 7, 1)
    assert len(_keys(name, 7)) == len(_keys(name, 7, 1))


def test_pinned_cases_are_in_every_op_list():
    for seed in (0, 1, 2):
        ladder = _keys("ladder-float", seed, seed)
        assert ladder[0] == ("classify", "E6", ("0.25", "1.0", "0.25"), 3, 10,
                             False)
        exact = _keys("exact-rational", seed, seed)
        assert ("classify", "E5", ("1", "0", "0"), 0, 10, True) in exact
        assert ("classify", "E6", ("1/2", "0", "0"), 0, 10, True) in exact


def test_ladder_cycles_scan_the_whole_grid_with_scan_seeds():
    import arcan.classify as classify
    points = classify.grid_points(workloads.LADDER_AXES)
    chunks = 2 * len(points) // workloads.LADDER_CHUNK
    cycle = workloads.build("ladder-float", 5)
    for n, scan_seed in ((0, 5), (1, derive_seed(5, "ladder-float", 1))):
        want = {("classify", name, tuple(map(str, p)),
                 derive_seed(scan_seed, "scan", i), workloads.LADDER_K_MAX,
                 False)
                for name in ("E5", "E6") for i, p in enumerate(points)}
        keys = []
        for c in range(n * chunks, (n + 1) * chunks):
            ops = cycle(c)
            assert len(ops) == 1 + workloads.LADDER_CHUNK
            keys += [op.key for op in ops[1:]]
        assert len(keys) == len(want) and set(keys) == want


def test_trial_shape_mirrors_the_identity_checks(monkeypatch):
    drawn = []
    real = verify.random_poly

    def spy(n, k, rng, exact=True):
        drawn.append((n, k))
        return real(n, k, rng, exact)
    monkeypatch.setattr(verify, "random_poly", spy)
    for identity, func in workloads.IDENTITY_FUNCS.items():
        for seed in range(12):
            drawn.clear()
            getattr(verify, func)(1, seed, exact=True)
            assert drawn == [workloads.trial_shape(derive_seed, identity, seed)]


def _verdict(point, status, k_star=None):
    return Verdict(point, status, 10, k_star=k_star)


def test_oracle_flags_planted_wrong_verdicts():
    e5 = lookup("E5")
    on, off = (0.0, 0.0, 0.5), (0.5, 0.5, 0.5)
    assert e5.locus.contains(on) and not e5.locus.contains(off)
    judge = oracle.judge_verdict
    assert judge(_verdict(on, NON_ANALYTIC, 1), True).status == oracle.CORRECT
    assert judge(_verdict(off, ANALYTIC_UP_TO), False).status == oracle.CORRECT
    assert judge(_verdict(off, NON_ANALYTIC, 9), False).status == oracle.WRONG
    assert judge(_verdict(on, ANALYTIC_UP_TO), True).status == oracle.WRONG
    assert judge(_verdict(on, INCONCLUSIVE), True).status == oracle.INCONCLUSIVE


def test_oracle_flags_a_nonzero_exact_residual():
    good = verify.IdentityReport("euler", 1, True, 0.0)
    bad = verify.IdentityReport("euler", 1, False, 1e-30)
    assert oracle.judge_identity(good).status == oracle.CORRECT
    outcome = oracle.judge_identity(bad)
    assert outcome.status == oracle.WRONG and outcome.hard


def test_oracle_flags_a_planted_wrong_scan_line():
    op = next(op for op in workloads.build("corpus-shortcut", 0)(0)
              if op.argv[:2] == ("scan", lookup("E1").source))
    rc, out = op.run()
    assert op.judge((rc, out)).status == oracle.CORRECT
    lines = out.splitlines()
    regular = next(i for i, line in enumerate(lines) if ANALYTIC_UP_TO in line)
    lines[regular] = lines[regular].replace(
        f'"status": "{ANALYTIC_UP_TO}"', f'"status": "{NON_ANALYTIC}"')
    assert op.judge((rc, "\n".join(lines) + "\n")).status == oracle.WRONG
    assert op.judge((rc, "\n".join(lines[1:]) + "\n")).status == oracle.RAISED
    assert op.judge((1, "")).hard


def test_oracle_corpus_mismatch_is_wrong_not_failed():
    out = ('{"name": "E1", "passed": false}\n'
           '{"summary": "mismatch", "failed": ["E1"]}\n')
    assert oracle.judge_corpus(2, out).status == oracle.WRONG
    assert oracle.judge_corpus(1, "").status == oracle.RAISED


def test_oracle_grid_matches_the_program():
    from arcan.classify import grid_points
    axes = lookup("E6").scan_axes
    assert oracle.grid(axes) == grid_points(axes)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_gives_the_plain_verdict_digest(name):
    ops = workloads.build(name, 3)(0)[:8]
    plain = run.run_ops(lambda c: ops, 0, cycles=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_ops(lambda c: ops, 0, cycles=1, tracer=tracer)
    finally:
        tracer.uninstall()
    digest = [oracle.digest(o.record for o in p.first) for p in (plain, traced)]
    assert digest[0] == digest[1]
    assert len(tracer) > len(ops)
    assert all(start <= end for _, _, start, end, _, _ in tracer.spans())
    calls, total, own = tracer.self_times()
    assert calls["op.run"] == len(ops)
    assert all(own[k] <= total[k] + 1e-12 for k in total)


def test_tracer_restores_arcan():
    from arcan import classify, homog, jets
    before = (classify.eval_jets, homog.HomoPoly.__call__,
              jets.LaurentJet.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    assert classify.eval_jets is not before[0]
    tracer.uninstall()
    assert (classify.eval_jets, homog.HomoPoly.__call__,
            jets.LaurentJet.__mul__) == before


def test_interleave_keeps_the_mix_in_every_prefix():
    import random
    merged = workloads.interleave([["a"] * 20, ["b"] * 10], random.Random(0))
    for cut in range(3, len(merged) + 1, 3):
        assert abs(merged[:cut].count("a") - 2 * cut / 3) <= 1


def test_rational_points_stay_exact():
    for op in workloads.build("exact-rational", 0)(0):
        if op.kind == "classify":
            assert op.exact
            assert all(isinstance(c, (int, Fraction)) for c in op.point)


class _DriftingOp:
    """An op whose output changes every time it runs."""

    kind = "identity"
    key = ("drifting",)

    def __init__(self):
        self.runs = 0

    def run(self):
        self.runs += 1
        return self.runs

    def judge(self, result):
        return oracle.Outcome(oracle.CORRECT, ("x",), str(result))


def test_a_repeated_op_must_repeat_its_output():
    p = run.run_ops(lambda c: [_DriftingOp()], 0, cycles=3)
    assert p.nondeterministic == 0
    op = _DriftingOp()
    p = run.run_ops(lambda c: [op], 0, cycles=3)
    assert p.nondeterministic == 2


def test_metrics_match_benchmark_json():
    import json
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    cycle = workloads.build("corpus-shortcut", 0)
    ops = cycle(0)[:2]
    p = run.run_ops(lambda c: ops, 0, cycles=1)
    report = run.summary(p)
    plain = run.plain_metrics(p, report, [0.1])
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == \
        {(k, u) for k, (_, u) in plain.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_ops(lambda c: ops, 0, cycles=1, tracer=tracer)
    finally:
        tracer.uninstall()
    layers = run.trace_metrics(tracer, traced, p, report, 0, tracer.counts.copy())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, u) for k, (_, u) in layers.items()]
