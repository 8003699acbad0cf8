"""Expression evaluation: pointwise, along arcs, and the arc reports."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcan.classify import classify_point, regular_points
from arcan.corpus import lookup
from arcan.errors import ArcDomainError, DomainError, FloatOverflow, \
    ZeroDenominator
from arcan.expr import ANALYTIC, POLE, REMOVABLE_MISMATCH, ArcSpec, Expr, \
    arc_check, compile_tape, eval_arc, eval_point, eval_point_flagged, \
    regular_at
from arcan.parser import parse, parse_arc

from helpers import BEYOND_FLOATS, LATTICE, MODE_AND_TREE, \
    arc_analytic_entries, arc_from_coeffs, eval_poly, laurent_of, random_arc, \
    random_polynomial_expr, walker_eval_point_flagged, walker_finds_regular, \
    walker_regular_at

F = Fraction

E1 = parse("guard(x^3 / (x^2 + y^2), 0)")
E4 = parse("guard(x * y / (x^2 + y^2), 0)")


class TestEvalPoint:
    def test_guard_default_at_denominator_zero(self):
        assert eval_point(E1, (0, 0)) == 0.0

    def test_direct_substitution(self):
        assert eval_point(E1, (1, 1)) == 0.5

    def test_constant_along_diagonal(self):
        for t in (0.25, -0.5, 1.0, 3.0):
            assert eval_point(E4, (t, t)) == pytest.approx(0.5)

    def test_exact_mode(self):
        assert eval_point(E1, (F(1), F(1)), exact=True) == F(1, 2)

    def test_unguarded_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            eval_point(parse("1 / (x^2 + y^2)"), (0, 0))

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            eval_point(parse("sqrt(x)"), (-1.0,))

    def test_guard_flag(self):
        _, fired = eval_point_flagged(E1, (0, 0))
        assert fired
        _, fired = eval_point_flagged(E1, (1, 0))
        assert not fired

    def test_guard_does_not_catch_sqrt(self):
        with pytest.raises(DomainError):
            eval_point(parse("guard(sqrt(x) / y, 0)"), (-1.0, 1.0))

    def test_float_overflow_is_an_arcan_error(self):
        with pytest.raises(FloatOverflow):
            eval_point(parse("x^1000"), (3.0,))
        assert eval_point(parse("x^1000"), (F(3),), exact=True) == 3 ** 1000


def outcome(fn, *args):
    """What a call gives: its result's types and exact digits, or its error."""
    try:
        result = fn(*args)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    parts = result if isinstance(result, tuple) else (result,)
    return "returns", tuple((type(v), repr(v)) for v in parts)


def assert_matches_walker(e, point, exact):
    """The tape's value and error are the walker's; `regular_at` is True
    exactly where the walker's check returns True, and an error the
    walker raises (an overflow) is not regular."""
    assert outcome(eval_point_flagged, e, point, exact) \
        == outcome(walker_eval_point_flagged, e, point, exact)
    assert regular_at(e, point, exact) is walker_finds_regular(e, point, exact)


class TestPointOnTheTape:
    """The tape's point evaluation against the recursive walker it replaced."""

    @settings(max_examples=500, deadline=None)
    @given(MODE_AND_TREE, st.lists(st.tuples(st.sampled_from(LATTICE),
                                             st.sampled_from(LATTICE)),
                                   min_size=1, max_size=4))
    def test_equals_the_walker_on_random_trees(self, mode_and_tree, points):
        exact, root = mode_and_tree
        e = Expr(root, 2)
        for point in points:
            if exact:
                point = tuple(F(c) for c in point)
            assert_matches_walker(e, point, exact)

    @pytest.mark.parametrize("text, point, exact, value, regular", [
        # a subtree shared inside and outside a guard
        ("guard(1/x, 5) + 1/x", (0.0,), False, ZeroDenominator, False),
        ("1/x + guard(1/x, 5)", (0.0,), False, ZeroDenominator, False),
        # the first error decides whether the guard catches it
        ("guard(1/x + sqrt(-1), 0)", (0.0,), False, (0.0, True), False),
        ("guard(sqrt(-1) + 1/x, 0)", (0.0,), False, DomainError, False),
        # exact sqrt of 10^400 + x overflows a float, after sqrt(x) failed
        ("sqrt(x) + sqrt(x + 10^400)", (F(-1),), True, DomainError, False),
        ("sqrt(x)", (0.0,), False, (0.0, False), False),
        ("guard(x^1100, 0) + 1/x", (5.0,), False, FloatOverflow, FloatOverflow),
        ("x + " + str(BEYOND_FLOATS), (1.0,), False, OverflowError,
         OverflowError),
    ])
    def test_targeted_cases(self, text, point, exact, value, regular):
        e = parse(text)
        assert_matches_walker(e, point, exact)
        for fn, expected in ((eval_point_flagged, value),
                             (walker_regular_at, regular)):
            if isinstance(expected, type):
                with pytest.raises(expected):
                    fn(e, point, exact)
            else:
                assert fn(e, point, exact) == expected
        # where the walker's check overflows, the point is not regular
        assert regular_at(e, point, exact) is (regular is True)


class TestTape:
    def test_equal_trees_compile_to_equal_tapes(self):
        first = lookup("E6").expr().root
        second = lookup("E6").expr().root
        assert first is not second and first == second
        assert compile_tape(second) == compile_tape(first)

    def test_a_node_keeps_its_tape(self):
        root = lookup("E6").expr().root
        assert compile_tape(root) is compile_tape(root)

    def test_hash_matches_for_equal_subtrees(self):
        # Structurally equal subtrees hash alike and share one tape slot.
        root = parse("(x - 3/2)^2 + (x - 3/2)").root
        assert hash(root.left.base) == hash(root.right)
        assert len(compile_tape(root)) == 5


class TestRegularAt:
    def test_regular_away_from_zero_set(self):
        assert regular_at(E1, (0.125, 0.0))
        assert not regular_at(E1, (0.0, 0.0))

    def test_sqrt_boundary_is_not_regular(self):
        e2 = parse("sqrt(x^4 + y^4)")
        assert regular_at(e2, (0.5, 0.5))
        assert not regular_at(e2, (0.0, 0.0))

    @pytest.mark.parametrize("point", [(1.0,), (1.0, 2.0, 3.0)])
    def test_point_length_must_match(self, point):
        with pytest.raises(ValueError, match="point has"):
            regular_at(parse("x+y"), point)

    @pytest.mark.parametrize("exact", [False, True])
    def test_shortcut_checks_the_point_length(self, exact):
        e = parse("x+y")
        with pytest.raises(ValueError, match="point has 3 coordinates"):
            regular_points(e, [(1, 2), (1, 2, 3)] if exact else [(1, 2, 3)],
                           exact)
        with pytest.raises(ValueError, match="point has 3 coordinates"):
            classify_point(e, (1, 2, 3), exact=exact)


class TestEvalArc:
    def test_diagonal_germ_with_sampling_oracle(self):
        arc = parse_arc("t, t")
        jet = eval_arc(E1, arc, order=4)
        assert jet.valuation == 1
        assert jet.coefficients()[0] == pytest.approx(0.5)
        assert all(abs(c) < 1e-14 for c in jet.coefficients()[1:])
        # oracle: sample f along the arc and divide out the leading power
        for t in (1e-1, 1e-2, 1e-3, 1e-4):
            assert eval_point(E1, (t, t)) / t == pytest.approx(0.5, abs=1e-9)

    def test_pole_along_axis(self):
        e = parse("guard(1 / (x^2 + y^2), 0)")
        jet = eval_arc(e, parse_arc("t, 0"), order=4)
        assert jet.valuation == -2
        assert jet.coefficients()[0] == pytest.approx(1.0)

    def test_polynomial_arc_exact(self):
        e = parse("x^2 + y^2")
        jet = eval_arc(e, parse_arc("t, 2*t"), order=4, exact=True)
        assert jet.valuation == 2
        assert jet.coefficients()[0] == 5

    def test_arc_inside_zero_set_raises(self):
        with pytest.raises(ArcDomainError):
            eval_arc(E1, parse_arc("0, 0"), order=4)

    def test_sqrt_leaving_domain(self):
        with pytest.raises(ArcDomainError):
            eval_arc(parse("sqrt(x)", nvars=1), parse_arc("0 - t^2"), order=6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_arc(E1, parse_arc("t"), order=4)


class TestArcSpec:
    def test_components_must_be_polynomial(self):
        with pytest.raises(ValueError):
            ArcSpec((parse("sqrt(t)", varmap={"t": 0}),))
        with pytest.raises(ValueError):
            ArcSpec((parse("1/t", varmap={"t": 0}),))
        with pytest.raises(ValueError):  # a constant divisor that is 0
            ArcSpec((parse("t/(1-1)", varmap={"t": 0}),))

    def test_division_by_constant_is_polynomial(self):
        arc = parse_arc("t/2, t")
        assert arc.basepoint() == (0.0, 0.0)

    def test_from_coeffs_matches_parse(self):
        built = arc_from_coeffs([[F(1), F(2)], [F(0), F(0), F(3)]])
        parsed = parse_arc("1 + 2*t, 3*t^2")
        for order in (3, 6):
            assert [laurent_of(j) for j in built.jets(order, exact=True)] \
                == [laurent_of(j) for j in parsed.jets(order, exact=True)]

    def test_basepoint(self):
        arc = parse_arc("1 + t, 2 - t^2")
        assert arc.basepoint() == (1.0, 2.0)


class TestArcCheck:
    def test_removable_mismatch(self):
        report = arc_check(E4, parse_arc("t, t"), order=6)
        assert report.kind == REMOVABLE_MISMATCH
        assert report.mismatch == pytest.approx(0.5, abs=1e-15)

    def test_analytic(self):
        report = arc_check(E1, parse_arc("t, t"), order=6)
        assert report.kind == ANALYTIC

    def test_pole(self):
        report = arc_check(parse("guard(1/(x^2+y^2), 0)"), parse_arc("t, 0"),
                           order=6)
        assert report.kind == POLE

    def test_unguarded_undefined_point_is_a_mismatch(self):
        report = arc_check(parse("x^3 / (x^2 + y^2)"), parse_arc("t, t"), order=6)
        assert report.kind == REMOVABLE_MISMATCH
        assert report.mismatch == math.inf


class TestSeriesPointConsistency:
    def test_truncated_series_matches_pointwise_values(self):
        rng = random.Random(4242)
        for _ in range(60):
            nvars = rng.randint(1, 3)
            e = random_polynomial_expr(rng, nvars)
            arc = random_arc(rng, nvars, degree=4)
            order = 40  # above any composed degree: the jet is the polynomial
            jet = eval_arc(e, arc, order)
            for t0 in (1e-2, -1e-2, 1e-3, -1e-3):
                direct = eval_point(e, tuple(
                    eval_point(c, (t0,)) for c in arc.components))
                series = eval_poly(laurent_of(jet), t0)
                assert abs(series - direct) <= 1e-9 * (1 + abs(direct))


class TestCorpusArcsStayAnalytic:
    def test_no_pole_or_mismatch_on_arc_analytic_entries(self):
        rng = random.Random(777)
        for entry in arc_analytic_entries():
            e = entry.expr()
            locus_pts = list(entry.exact_locus_points)
            for i in range(200):
                if i % 4 == 0 and locus_pts:
                    through = locus_pts[i % len(locus_pts)]
                else:
                    through = tuple(F(rng.randint(-8, 8), 8)
                                    for _ in range(entry.nvars))
                arc = random_arc(rng, entry.nvars, degree=4, through=through)
                report = arc_check(e, arc, order=12, tol=1e-8)
                assert report.kind == ANALYTIC, (
                    f"{entry.name}: {report.kind} along arc through {through}")
