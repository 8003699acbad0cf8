"""Charts, pullbacks, cancellation soundness, and the fiber-lift diagnostic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcan import blowup, mpoly
from arcan.blowup import BlowupChart, classify_pullback, fiber_lift_check, \
    make_chart, pullback
from arcan.classify import ANALYTIC_UP_TO, NON_ANALYTIC, classify_point, \
    regular_points
from arcan.errors import BadCenter, PremiseViolated
from arcan.expr import Add, Div, Expr, Mul, Sqrt, eval_point, is_polynomial, \
    substitute
from arcan.parser import parse, to_text

from helpers import FRACTIONS, chart_apply, chart_invert, jacobian_power, \
    pullback_sequence, random_point, random_safe_rational_expr, trees, \
    walker_is_polynomial, walker_pullback, walker_substitute, walker_to_text

F = Fraction

E1 = parse("guard(x^3 / (x^2 + y^2), 0)")
ZCONE = parse("guard(z^3 / (z^2 + x^2 + y^2), 0)", nvars=3)
POINT_CHART = make_chart(2, (1, 2), 1)
XAXIS_CHART = make_chart(3, (2, 3), 3)


class TestCharts:
    def test_point_blowup_substitution(self):
        assert chart_apply(POINT_CHART, (2.0, 3.0)) == (2.0, 6.0)  # (s, s*y)

    def test_subspace_chart_formula(self):
        # (x, y, z) -> (x, s*y, s) for the chart of the x-axis with axis z
        assert chart_apply(XAXIS_CHART, (5.0, 2.0, 0.5)) == (5.0, 1.0, 0.5)

    def test_codimension_one_rejected(self):
        with pytest.raises(BadCenter):
            make_chart(3, (1,), 1)

    def test_axis_outside_center_rejected(self):
        with pytest.raises(ValueError):
            make_chart(3, (2, 3), 1)

    def test_jacobian_power(self):
        assert jacobian_power(POINT_CHART) == 1
        assert jacobian_power(XAXIS_CHART) == 1
        assert jacobian_power(make_chart(3, (1, 2, 3), 2)) == 2

    def test_json_roundtrip(self):
        doc = XAXIS_CHART.to_json()
        assert doc == {"n": 3, "center": [2, 3], "axis": 3}
        assert BlowupChart.from_json(doc) == XAXIS_CHART

    def test_invert(self):
        pt = (1.5, -0.75)
        assert chart_invert(POINT_CHART, chart_apply(POINT_CHART, pt)) == pt
        with pytest.raises(ValueError):
            chart_invert(POINT_CHART, (0.0, 1.0))


class TestPullback:
    def test_worked_point_blowup(self):
        result = pullback(E1, POINT_CHART)
        assert result.cancelled_power == 2
        assert not result.non_rational
        # oracle: evaluation equivalence off the divisor
        rng = random.Random(41)
        for _ in range(50):
            s = rng.uniform(0.05, 2.0) * rng.choice((-1, 1))
            y = rng.uniform(-2.0, 2.0)
            lhs = eval_point(result.expr, (s, y))
            rhs = eval_point(E1, chart_apply(POINT_CHART, (s, y)))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    def test_no_division_means_no_cancellation(self):
        result = pullback(parse("x^2 + y^2"), POINT_CHART)
        assert result.cancelled_power == 0
        assert not result.non_rational
        for s, y in ((0.5, 1.0), (-1.0, 2.0), (2.0, -0.25)):
            assert eval_point(result.expr, (s, y)) == pytest.approx(
                s * s * (1 + y * y), rel=1e-12)

    def test_partial_cancellation_blocked_by_transverse_term(self):
        # denominator s^2 + x^2 + s^2 y^2 shares no s power with z^3 = s^3
        result = pullback(ZCONE, XAXIS_CHART)
        assert result.cancelled_power == 0
        rng = random.Random(43)
        for _ in range(50):
            pt = (rng.uniform(-1, 1), rng.uniform(-2, 2),
                  rng.uniform(0.05, 1.5) * rng.choice((-1, 1)))
            lhs = eval_point(result.expr, pt)
            rhs = eval_point(ZCONE, chart_apply(XAXIS_CHART, pt))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    def test_sqrt_blocks_expansion_with_flag(self):
        e = parse("guard(x^3 / (x^2 + sqrt(x^4 + y^4)), 0)")
        result = pullback(e, POINT_CHART)
        assert result.non_rational
        assert result.cancelled_power == 0
        pt = (0.7, -0.3)
        assert eval_point(result.expr, pt) == pytest.approx(
            eval_point(e, chart_apply(POINT_CHART, pt)), rel=1e-12)

    def test_a_division_by_a_sqrt_expands_its_operand_once(self, monkeypatch):
        budgets = []

        class Recorded(mpoly.Budget):
            def __init__(self):
                super().__init__()
                budgets.append(self)
        monkeypatch.setattr(mpoly, "Budget", Recorded)
        chart = make_chart(3, (1, 2), 1)

        def spent(text):
            pullback(parse(text), chart)
            return mpoly.MAX_PRODUCT_TERMS - budgets[-1].left
        assert spent("((x+y+z)^36/x)/sqrt(x^2+1)") \
            == spent("(x+y+z)^36/x") == 34854
        # 51,872 pairs: within the budget once, not twice
        result = pullback(parse("((x+y+z)^40/x)/sqrt(x^2+1)"), chart)
        assert result.non_rational

    def test_a_repeated_subtree_is_expanded_once(self, monkeypatch):
        budgets = []

        class Recorded(mpoly.Budget):
            def __init__(self):
                super().__init__()
                budgets.append(self)
        monkeypatch.setattr(mpoly, "Budget", Recorded)
        chart = make_chart(3, (1, 2), 1)

        def spent(text):
            pullback(parse(text), chart)
            return mpoly.MAX_PRODUCT_TERMS - budgets[-1].left
        # the sum of the two 496-term numerators over 1 costs 2 * 496 + 1
        assert spent("((x+y+z)^30 + (x+y+z)^30)/x") \
            == spent("(x+y+z)^30/x") + 2 * 496 + 1 == 23518
        # twice 51,872 pairs would pass the budget; once does not
        e = parse("((x+y+z)^40 + (x+y+z)^40)/x")
        result = pullback(e, chart)
        assert result.cancelled_power == 0 and not result.non_rational
        pt = (F(1, 2), F(-1, 3), F(1, 5))
        assert eval_point(result.expr, pt, True) \
            == eval_point(e, chart_apply(chart, pt), True)

    @pytest.mark.parametrize("text", [
        "(x+y+z)^40/x + (x+y+z)^40/y",
        "((x+y+z)^40/x)/y + sqrt((x+y+z)^40/x)"])
    def test_distinct_divisions_share_a_subtree_once(self, monkeypatch,
                                                     text):
        # Each division's own pass charged (x+y+z)^40 (51,872 pairs) again,
        # past the budget; one pass for the whole pullback charges it once.
        budgets = []

        class Recorded(mpoly.Budget):
            def __init__(self):
                super().__init__()
                budgets.append(self)
        monkeypatch.setattr(mpoly, "Budget", Recorded)
        chart = make_chart(3, (1, 2), 1)
        e = parse(text)
        result = pullback(e, chart)
        assert mpoly.MAX_PRODUCT_TERMS - budgets[-1].left < 2 * 51872
        pt = (F(1, 2), F(-1, 3), F(1, 5))
        assert eval_point(result.expr, pt, True) \
            == eval_point(e, chart_apply(chart, pt), True)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pullback(E1, XAXIS_CHART)

    def test_substitution_correctness_random(self):
        rng = random.Random(47)
        for trial in range(20):
            e = random_safe_rational_expr(rng, 3)
            center = rng.choice(((0, 1), (1, 2), (0, 2), (0, 1, 2)))
            axis = rng.choice(center)
            chart = BlowupChart(3, center, axis)
            result = pullback(e, chart)
            for _ in range(10):
                pt = list(random_point(rng, 3, box=1.5))
                if abs(pt[axis]) < 0.05:
                    pt[axis] = 0.5
                pt = tuple(pt)
                lhs = eval_point(result.expr, pt)
                rhs = eval_point(e, chart_apply(chart, pt))
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    def test_cancellation_preserves_values(self):
        # raw substitution versus the simplified pullback, off the divisor
        raw = Expr(substitute(E1.root, POINT_CHART.substitution_map()), 2)
        simplified = pullback(E1, POINT_CHART).expr
        rng = random.Random(53)
        for _ in range(100):
            s = rng.uniform(0.01, 2.0) * rng.choice((-1, 1))
            y = rng.uniform(-3.0, 3.0)
            a = eval_point(raw, (s, y))
            b = eval_point(simplified, (s, y))
            assert abs(a - b) <= 1e-10 * (1 + abs(a))

    def test_chart_overlap_consistency(self):
        # two charts over the same center agree under the transition map
        chart_a = make_chart(3, (2, 3), 3)
        chart_b = make_chart(3, (2, 3), 2)
        e = parse("guard(z^3 / (z^2 + x^2 + y^2), 0)", nvars=3)
        pa, pb = pullback(e, chart_a), pullback(e, chart_b)
        rng = random.Random(59)
        for _ in range(100):
            pt_a = (rng.uniform(-1, 1), rng.uniform(0.1, 2) * rng.choice((-1, 1)),
                    rng.uniform(0.1, 2) * rng.choice((-1, 1)))
            base = chart_apply(chart_a, pt_a)
            pt_b = chart_invert(chart_b, base)
            va = eval_point(pa.expr, pt_a)
            vb = eval_point(pb.expr, pt_b)
            assert abs(va - vb) <= 1e-9 * (1 + abs(va))

    def test_serialization(self):
        doc = pullback(E1, POINT_CHART).to_json()
        assert doc["cancelledPower"] == 2
        assert doc["exceptionalDivisor"] == "{x = 0}"
        assert "expr" in doc and doc["chart"]["axis"] == 1
        reparsed = parse(doc["expr"])
        assert eval_point(reparsed, (0.5, 1.0)) == pytest.approx(0.25)

    def test_sequence_folds_charts_in_their_own_frames(self):
        charts = [XAXIS_CHART, make_chart(3, (1, 2), 1)]
        folded = pullback_sequence(ZCONE, charts)
        rng = random.Random(71)
        for _ in range(30):
            pt = tuple(rng.uniform(0.1, 1.5) * rng.choice((-1, 1))
                       for _ in range(3))
            base = chart_apply(charts[0], chart_apply(charts[1], pt))
            lhs = eval_point(folded.expr, pt)
            rhs = eval_point(ZCONE, base)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))
        with pytest.raises(ValueError):
            pullback_sequence(ZCONE, [])

    def test_corpus_resolution_hints_resolve_their_divisors(self):
        from arcan.corpus import corpus_list
        for entry in corpus_list():
            if not entry.resolution_charts:
                continue
            (chart,) = entry.resolution_charts
            points = []
            for y in (-1.5, -0.5, 0.5, 1.5):
                pt = [0.3] * entry.nvars
                pt[chart.axis] = 0.0
                for i in chart.center:
                    if i != chart.axis:
                        pt[i] = y
                points.append(tuple(pt))
            verdicts = classify_pullback(entry.expr(), chart, points,
                                         k_max=3)
            for v in verdicts:
                assert v.status == ANALYTIC_UP_TO, (entry.name, v.point)


class TestClassifyPullback:
    def test_divisor_becomes_analytic_for_resolvable_example(self):
        points = [(0.0, -2.0 + 0.4 * i) for i in range(11)]
        verdicts = classify_pullback(E1, POINT_CHART, points, k_max=4)
        assert all(v.status == ANALYTIC_UP_TO for v in verdicts)

    def test_unresolved_fiber_stays_bad(self):
        points = [(0.0, -1.5 + 0.5 * i, 0.0) for i in range(7)]
        verdicts = classify_pullback(ZCONE, XAXIS_CHART, points, k_max=3)
        assert all(v.status == NON_ANALYTIC for v in verdicts)

    def test_polynomial_is_everywhere_analytic(self):
        points = [(0.0, y) for y in (-1.0, 0.0, 1.0)]
        verdicts = classify_pullback(parse("x^2 + y^2"), POINT_CHART, points,
                                     k_max=3)
        assert all(v.status == ANALYTIC_UP_TO for v in verdicts)

    def test_points_off_divisor_rejected(self):
        with pytest.raises(ValueError):
            classify_pullback(E1, POINT_CHART, [(0.5, 1.0)], k_max=2)


class TestFiberLift:
    def test_consistent_over_origin(self):
        report = fiber_lift_check(ZCONE, XAXIS_CHART, (0.0, 0.0, 0.0),
                                  k_max=4, seed=67)
        assert report.consistent
        assert report.base_verdict.status == NON_ANALYTIC
        assert len(report.fiber_verdicts) == 16
        assert report.analytic_fiber_points == 0

    def test_regular_base_point_violates_premise(self):
        with pytest.raises(PremiseViolated):
            fiber_lift_check(ZCONE, XAXIS_CHART, (1.0, 0.0, 0.0),
                             k_max=3, seed=67)

    def test_center_inside_bad_set_violates_premise(self):
        # for x^3/(x^2+y^2) in three variables the whole z-axis is bad, so
        # no regular center point accumulates at the origin
        e5 = parse("guard(x^3 / (x^2 + y^2), 0)", nvars=3)
        z_axis_chart = make_chart(3, (1, 2), 1)
        with pytest.raises(PremiseViolated):
            fiber_lift_check(e5, z_axis_chart, (0.0, 0.0, 0.0),
                             k_max=3, seed=67)

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_point_centre_reuses_the_base_verdict(self, monkeypatch,
                                                    exact):
        # With no free coordinate every centre sample is the base point,
        # which classifies NonAnalytic: only the base ladder runs.
        calls = []

        def spy(e, x, *args, **kwargs):
            calls.append(tuple(x))
            return classify_point(e, x, *args, **kwargs)
        monkeypatch.setattr(blowup, "classify_point", spy)
        with pytest.raises(PremiseViolated,
                           match="no nearby regular point of the center"):
            fiber_lift_check(E1, POINT_CHART, (0, 0), k_max=3, seed=67,
                             exact=exact)
        assert calls == [(0, 0)]

    def test_base_point_must_lie_on_center(self):
        with pytest.raises(ValueError):
            fiber_lift_check(ZCONE, XAXIS_CHART, (0.0, 1.0, 0.0), k_max=2)

    def test_exact_mode_samples_exact_points(self, monkeypatch):
        seen, center = [], []

        def spy(e, x, *args, **kwargs):
            seen.append(tuple(x))
            return classify_point(e, x, *args, **kwargs)

        def center_spy(e, points, exact):
            center.extend(points)
            return regular_points(e, points, exact)
        monkeypatch.setattr(blowup, "classify_point", spy)
        monkeypatch.setattr(blowup, "regular_points", center_spy)
        report = fiber_lift_check(ZCONE, XAXIS_CHART, (0.0, 0.0, 0.0),
                                  k_max=2, seed=67, n_fiber=4, n_center=3,
                                  exact=True)
        # the three center samples are regular: only the base point and
        # the four fiber points run the ladder
        assert report.consistent and report.regular_center_samples == 3
        assert len(center) == 3 and len(seen) == 1 + 4
        assert all(type(c) in (int, F) for pt in seen + center for c in pt)
        assert {ev.threshold for v in report.fiber_verdicts
                for ev in v.evidence} == {0}


def outcome(call):
    """A call's result, or its error's type and message."""
    try:
        return "returns", call()
    except Exception as exc:
        return "raises", type(exc), str(exc)


def refused(result) -> bool:
    return result[0] == "raises" and "term pairs allowed" in result[2]


def with_repeats(nvars: int):
    """`trees` in `nvars` variables, and trees that repeat a division."""
    t = trees(FRACTIONS, (0, 1, 2, 3, 7), nvars)
    return st.one_of(t, st.builds(
        lambda a, b: Add(Div(a, b), Mul(Sqrt(a), Div(a, b))), t, t))


class TestPassesMatchTheWalkers:
    """The tape passes against the recursive walkers they replaced.

    A pullback may differ only where the walker's budget refused a product
    that the tape pass, expanding each distinct subtree once, no longer
    needs: the pass then gives what the walker gives on a budget without
    bound, or its own refusal further on.  A budget of 10 term pairs makes
    refusals common, so their text is compared too.
    """

    CHARTS = {2: [make_chart(2, (1, 2), 1), make_chart(2, (1, 2), 2)],
              3: [make_chart(3, (1, 2), 1), make_chart(3, (2, 3), 3),
                  make_chart(3, (1, 2, 3), 2)]}

    @pytest.mark.parametrize("nvars", [2, 3])
    @pytest.mark.parametrize("max_terms", [10, mpoly.MAX_PRODUCT_TERMS])
    def test_on_random_trees(self, nvars, max_terms, monkeypatch):
        budgets = []

        class Recorded(mpoly.Budget):
            def __init__(self):
                super().__init__()
                budgets.append(self)
        monkeypatch.setattr(mpoly, "Budget", Recorded)

        def run(fn, e, chart, terms=max_terms):
            monkeypatch.setattr(mpoly, "MAX_PRODUCT_TERMS", terms)
            return outcome(lambda: fn(e, chart).to_json()), budgets[-1].left

        @settings(max_examples=100, deadline=None, database=None)
        @given(with_repeats(nvars))
        def check(root):
            e = Expr(root, nvars)
            assert to_text(e) == walker_to_text(e)
            assert is_polynomial(root) == walker_is_polynomial(root)
            for chart in self.CHARTS[nvars]:
                mapping = chart.substitution_map()
                assert substitute(root, mapping) \
                    == walker_substitute(root, mapping)
                ours, ours_left = run(pullback, e, chart)
                theirs, theirs_left = run(walker_pullback, e, chart)
                if ours == theirs:
                    assert ours[0] == "raises" or ours_left >= theirs_left
                    continue
                assert refused(theirs)
                assert refused(ours) \
                    or ours == run(walker_pullback, e, chart, 10 ** 9)[0]
        check()
