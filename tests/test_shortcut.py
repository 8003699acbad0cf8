"""The regularity shortcut, decided by `regular_points` for scans,
arc-symmetry checks and fibre-lift samples, against the recursive walker
`walker_regular_at`."""

import contextlib
import io
import itertools
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arcan import classify, cli
from arcan.blowup import fiber_lift_check, make_chart
from arcan.classify import ANALYTIC_UP_TO, INCONCLUSIVE, Verdict, \
    arc_symmetry_check, classify_point, grid_array, grid_axis_values, \
    grid_points, iter_scan, regular_points, scan_region, verdict_to_json
from arcan.corpus import corpus_list, lookup
from arcan.errors import ArcanError, FloatOverflow, PremiseViolated
from arcan.expr import Div, Expr, IntPow, RationalConst, Sub, Var, \
    _RegularLanes, eval_point, regular_at, regular_lanes
from arcan.parser import parse, parse_arc, var_name
from arcan.seeds import derive_seed, sample_scalar

from helpers import BEYOND_FLOATS, FRACTIONS, LATTICE, MODE_AND_TREE, trees, \
    walker_finds_regular, walker_regular_at


def walker(e, pt, exact=False):
    """What the recursive walker's check gives at one point: True, False
    or "overflow"."""
    try:
        return walker_regular_at(e, pt, exact)
    except (FloatOverflow, OverflowError):
        return "overflow"


def assert_matches_walker(e, points):
    """A lane is regular exactly where the walker's check is True."""
    regular = regular_lanes(e.root, np.array(points, dtype=float))
    assert regular.tolist() == [walker(e, pt) is True for pt in points]


class TestRegularLanes:
    @settings(max_examples=300, deadline=None)
    @given(trees(FRACTIONS + [BEYOND_FLOATS]),
           st.lists(st.tuples(st.sampled_from(LATTICE),
                              st.sampled_from(LATTICE)),
                    min_size=1, max_size=12))
    def test_equals_the_walker_on_random_trees(self, root, points):
        assert_matches_walker(Expr(root, 2), points)

    @pytest.mark.parametrize("text, point, expected", [
        ("x^2000 + 1/(y - y)", (3.0, 1.0), "overflow"),
        ("1/(y - y) + x^2000", (3.0, 1.0), False),
        ("sqrt(y - 1) + x^2000", (3.0, 1.0), False),
        ("sqrt(x)", (0.0, 1.0), False),
        ("sqrt(x - 1)", (1.0, 1.0), False),
        ("guard(1/x, 0)", (0.0, 1.0), False),
        ("guard(1/x, 0)", (2.0, 1.0), True),
        # 10^200 * 10^200 is inf, and inf - inf is nan: no event, regular
        ("1/(x^200 * x^200 - x^200 * x^200) + y", (10.0, 1.0), True),
        ("sqrt(x^200 * x^200 - x^200 * x^200) + y", (10.0, 1.0), True),
        ("1/(x^200 * x^200) + y", (10.0, 1.0), True),
        ("1/(x^200 * x^200 * 0) + y", (10.0, 1.0), True),
    ])
    def test_targeted_cases(self, text, point, expected):
        e = parse(text, nvars=2)
        assert walker(e, point) == expected
        assert_matches_walker(e, [point, (0.5, 0.5), (-1.0, 2.0)])

    def test_powers_round_as_python_does(self):
        # Python's 2.9 ** 3 is the constant, so the denominator is exactly
        # 0 under Python's rounding; np.power rounds 2.9^3 differently on
        # some platforms and would call the point regular.
        c = Fraction(2.9 ** 3)
        e = Expr(Div(RationalConst(1), Sub(IntPow(Var(0), 3),
                                           RationalConst(c))), 1)
        points = [(2.9,), (1.1,), (3.3,)]
        assert walker(e, (2.9,)) is False
        assert_matches_walker(e, points)

    @pytest.mark.parametrize("power", [2, 3, 5])
    def test_powers_equal_python_lane_by_lane(self, power):
        # each distinct bit pattern is raised once: -0.0 and 0.0, and two
        # NaN payloads, must not share a power
        nan2 = np.array([0x7FF8000000000002]).view(np.float64)[0]
        bases = np.array([0.0, -0.0, math.nan, nan2, math.inf, -math.inf,
                          5e-324, 1e200, -1e200, 2.9, 2.9, -0.5, 0.0, 1e200,
                          -0.0, nan2])
        lanes = _RegularLanes(bases, np.zeros(len(bases), dtype=bool))
        out = lanes.pow_int(power)
        expected, overflow = [], []
        for c in bases.tolist():
            try:
                expected.append(c ** power)
                overflow.append(False)
            except OverflowError:
                expected.append(math.nan)
                overflow.append(True)
        overflow = np.array(overflow)
        assert overflow.any()  # 1e200 ** 2 leaves the float range
        assert out.irregular.tolist() == overflow.tolist()
        assert lanes.irregular is out.irregular
        assert out.value[~overflow].view(np.int64).tolist() \
            == np.array(expected)[~overflow].view(np.int64).tolist()

    def test_a_constant_beyond_floats_makes_every_lane_irregular(self):
        e = parse(f"x + {BEYOND_FLOATS}")
        with pytest.raises(OverflowError):
            walker_regular_at(e, (1.0,))
        assert regular_at(e, (1.0,)) is False
        assert not regular_lanes(e.root, np.array([(1.0,), (2.0,)])).any()


def pointwise_verdict(e, pt, k_max, tol, order, exact):
    """One point's verdict decided on its own: a shortcut verdict where
    `regular_at` is True (an overflow is not), else `classify_point`, and
    an ArcanError as an Inconclusive verdict."""
    if walker(e, pt, exact) is True:
        return Verdict(pt, ANALYTIC_UP_TO, k_max, shortcut=True)
    try:
        return classify_point(e, pt, k_max, tol, order, exact)
    except ArcanError as exc:
        return Verdict(pt, INCONCLUSIVE, k_max, reason=str(exc))


def pointwise_verdicts(e, axes, k_max=8, exact=False):
    """`pointwise_verdict` at each grid point."""
    return [pointwise_verdict(e, pt, k_max, classify.DEFAULT_TOL, 20, exact)
            for pt in grid_points(axes, exact)]


def pointwise_lines(e, axes, k_max=8, exact=False, fmt="json"):
    """The generic serializer's scan output over `pointwise_verdicts`."""
    verdicts = pointwise_verdicts(e, axes, k_max, exact)
    if fmt == "csv":
        names = [var_name(i, e.nvars) for i in range(e.nvars)]
        return [",".join(["index", *names, "status", "kStar", "residual"])] \
            + [cli._csv_line(i, v) for i, v in enumerate(verdicts)]
    return [cli.emit_json({**verdict_to_json(v), "index": i})
            for i, v in enumerate(verdicts)]


def grid_text(e, axes):
    return ";".join(f"{var_name(a, e.nvars)}:{lo}:{hi}:{step}"
                    for a, (lo, hi, step) in enumerate(axes))


def cli_text(source, nvars):
    """The source as the CLI must read it to see `nvars` variables."""
    e = parse(source)
    if nvars is None or nvars == e.nvars:
        return source
    return f"{source} + 0*{var_name(nvars - 1, nvars)}"


def cli_scan_lines(text, axes, seed, jobs=1, k_max=8, fmt="json",
                   mode="float"):
    argv = ["scan", text, "--grid", grid_text(parse(text), axes),
            "--seed", str(seed), "--kmax", str(k_max), "--format", fmt,
            "--mode", mode, "--jobs", str(jobs)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue().splitlines()


JOBS = [1, 2] if (os.cpu_count() or 1) >= 2 else [1]
GRIDS = [(entry.name, entry.source, entry.nvars, entry.scan_axes)
         for entry in corpus_list()]
# the CLI reads E5 in two variables, over the window of the two it sees
GRIDS.append(("E5-cli", lookup("E5").source, None, lookup("E5").scan_axes[:2]))


class TestScanByteIdentity:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name, source, nvars, axes", GRIDS,
                             ids=[g[0] for g in GRIDS])
    def test_cli_scan_equals_the_generic_lines(self, name, source, nvars,
                                               axes, seed):
        # the scan's --seed is accepted and ignored
        text = cli_text(source, nvars)
        e = parse(text)
        assert e.nvars == len(axes)
        for fmt in ("json", "csv"):
            expected = pointwise_lines(e, axes, fmt=fmt)
            for jobs in JOBS:
                assert cli_scan_lines(text, axes, seed, jobs, fmt=fmt) \
                    == expected, (fmt, jobs)

    @pytest.mark.parametrize("name, source, nvars, axes", GRIDS,
                             ids=[g[0] for g in GRIDS])
    def test_no_verdict_exactly_at_the_regular_points(self, name, source,
                                                      nvars, axes):
        e = parse(source, nvars=nvars)
        points = grid_points(axes)
        pairs = list(iter_scan(e, axes, order=20))
        irregular = np.flatnonzero(~regular_points(e, points, False))
        assert [i for i, _ in pairs] == irregular.tolist() \
            == [i for i, pt in enumerate(points) if walker(e, pt) is not True]
        ladder = [v for v in pointwise_verdicts(e, axes) if not v.shortcut]
        assert [v for _, v in pairs] == ladder
        assert all(v.point == points[i] for i, v in pairs)
        assert scan_region(e, axes, order=20) == ladder

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("shortcut", [True, False])
    @pytest.mark.parametrize("jobs", JOBS)
    def test_every_ladder_point_in_grid_order(self, exact, shortcut, jobs,
                                              monkeypatch):
        monkeypatch.setattr(classify, "_POOL_BATCH", 4)  # batches of 4
        e, axes = parse(lookup("E1").source), [(-1, 1, Fraction(1, 2))] * 2
        points = grid_points(axes, exact)
        pairs = list(iter_scan(e, axes, k_max=2, exact=exact,
                               shortcut=shortcut, jobs=jobs))
        expected = [i for i, pt in enumerate(points)
                    if not shortcut or walker(e, pt, exact) is not True]
        assert [i for i, _ in pairs] == expected
        assert [v for _, v in pairs] == [classify_point(
            e, points[i], 2, exact=exact) for i in expected]
        assert all(type(c) is (Fraction if exact else float)
                   for _, v in pairs for c in v.point)

    @pytest.mark.parametrize("text, axes", [
        ("x^2000 + 1/(y - y)", [(0, 3, 1), (0, 1, 1)]),
        ("1/(y - y) + x^2000", [(0, 3, 1), (0, 1, 1)]),
        ("1/(x^3 - 24389/1000)", [(Fraction(5, 2), Fraction(7, 2),
                                   Fraction(1, 10))]),
        # coordinates whose 17 significant digits print unusually
        ("sqrt(x^2) + y", [(Fraction(-2, 10 ** 5), Fraction(2, 10 ** 5),
                            Fraction(1, 10 ** 5)),
                           (10 ** 16, 10 ** 16 + 4, 1)]),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_events_and_their_order(self, text, axes, fmt):
        e = parse(text)
        assert cli_scan_lines(text, axes, 0, k_max=2, fmt=fmt) \
            == pointwise_lines(e, axes, k_max=2, fmt=fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rational_scan_is_unchanged(self, fmt):
        source, axes = lookup("E1").source, [(-1, 1, Fraction(1, 2))] * 2
        assert cli_scan_lines(source, axes, 2, k_max=3, fmt=fmt,
                              mode="rational") \
            == pointwise_lines(parse(source), axes, k_max=3, exact=True,
                               fmt=fmt)

    def test_overflow_lines_are_unchanged(self, capsys):
        assert cli.main(["scan", "(x^200)^2", "--grid", "x:0:10:1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == pointwise_lines(parse("(x^200)^2"),
                                                   [(0, 10, 1)])
        # the ladder decides a point whose value leaves the float range
        overflows = [line for line in out.splitlines()
                     if "order 0: h_0 or its residuals overflow" in line]
        # 6.0 ** 400 is the first power beyond the float range
        assert len(overflows) == 5
        assert all('"status": "Inconclusive"' in line for line in overflows)


class TestShortcutCost:
    @pytest.mark.parametrize("name, mode, step", [
        ("E6", "float", None), ("E1", "rational", Fraction(1, 4))])
    def test_a_scan_builds_no_verdict_at_a_shortcut_point(
            self, monkeypatch, name, mode, step):
        entry = lookup(name)
        e, exact = entry.expr(), mode == "rational"
        axes = [(lo, hi, step or s) for lo, hi, s in entry.scan_axes]
        points = grid_points(axes, exact)
        ladder = int((~regular_points(e, points, exact)).sum())
        assert ladder == {"E6": 2, "E1": 1}[name]  # the flagged points
        counts = {"Verdict": 0, "verdict_to_json": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        counting(classify, "Verdict")
        counting(cli, "verdict_to_json")
        lines = cli_scan_lines(entry.source, axes, 0, mode=mode)
        assert len(lines) == len(points)
        assert counts["Verdict"] == ladder
        # one more renders the shortcut lines' fixed text
        assert counts["verdict_to_json"] == ladder + 1


class TestGridArray:
    @pytest.mark.parametrize("axes", [g[3] for g in GRIDS] + [
        [(Fraction(-7, 10), Fraction(13, 10), Fraction(1, 10))],
        [(-1, 1, 0.1), (Fraction(-1, 3), 1, Fraction(1, 6))],
        [(Fraction(-2, 10 ** 5), Fraction(2, 10 ** 5), Fraction(1, 10 ** 5)),
         (10 ** 16, 10 ** 16 + 4, 1)],
        # numerators beyond 2**53: each coordinate must round once
        [(Fraction(-10 ** 17 - 1, 3), Fraction(-10 ** 17 + 20, 3),
          Fraction(1, 7))]],
        ids=[g[0] for g in GRIDS] + ["tenths", "mixed", "wide", "huge"])
    def test_rows_are_the_grid_points(self, axes):
        grid = grid_array(axes)
        points = grid_points(axes)
        assert grid.shape == (len(points), len(axes))
        assert [tuple(row) for row in grid.tolist()] == points
        # bit for bit, and each coordinate rounded once from its exact value
        exact = [tuple(map(float, p)) for p in grid_points(axes, True)]
        assert grid.view(np.int64).tolist() \
            == np.array(exact).view(np.int64).tolist()
        assert not grid.flags.writeable

    @pytest.mark.parametrize("exact", [False, True])
    def test_the_grid_is_the_product_of_its_axes(self, exact):
        axes = [(Fraction(-1, 3), 1, Fraction(1, 2)), (0, 1, 0.25), (2, 2, 1)]
        values = grid_axis_values(axes, exact)
        grid = grid_array(axes, exact)
        assert grid.tolist() == [list(p) for p in itertools.product(*values)]
        assert grid_points(axes, exact) == list(itertools.product(*values))
        assert grid.dtype == (object if exact else float)
        assert all(type(c) is (Fraction if exact else float)
                   for c in grid.tolist()[0])
        assert not grid.flags.writeable

    def test_equal_bounds_of_other_types_are_other_grids(self):
        # 0.1 is read as 1/10, Fraction(0.1) as the binary float
        assert grid_array([(0, 1, 0.1)]).shape == (11, 1)
        assert grid_array([(0, 1, Fraction(0.1))]).shape == (10, 1)
        assert grid_array([(0, 1, 0.1)]).shape == (11, 1)


class TestRegularPoints:
    def test_a_coordinate_beyond_floats_is_a_float_overflow(self):
        # Float mode cannot hold 10^400: the documented error, not a bare
        # OverflowError; exact mode keeps it.
        e = parse("1/x")
        for call in (lambda: regular_at(e, (BEYOND_FLOATS,)),
                     lambda: regular_points(e, [(BEYOND_FLOATS,)], False),
                     lambda: eval_point(e, (BEYOND_FLOATS,))):
            with pytest.raises(FloatOverflow, match="beyond the float range"):
                call()
        assert regular_at(e, (BEYOND_FLOATS,), exact=True)
        assert regular_points(e, [(BEYOND_FLOATS,)], True).tolist() == [True]
        assert eval_point(e, (BEYOND_FLOATS,), exact=True) == 1 / BEYOND_FLOATS

    @pytest.mark.parametrize("name, source, nvars, axes", GRIDS,
                             ids=[g[0] for g in GRIDS])
    def test_rational_equals_regular_at(self, name, source, nvars, axes):
        e = parse(source, nvars=nvars)
        points = grid_points(axes, exact=True)
        assert regular_points(e, points, True).tolist() \
            == [walker(e, pt, True) is True for pt in points]

    @pytest.mark.parametrize("text", ["sqrt(x^2 + y^2 - 1/2)",
                                      "x^2000 + 1/(y - y)", "1/(x*y)"])
    def test_float_blocks_equal_regular_at(self, text, monkeypatch):
        monkeypatch.setattr(classify, "_SHORTCUT_BLOCK", 7)
        e = parse(text, nvars=2)
        points = grid_points([(0, 3, Fraction(1, 2))] * 2)
        assert regular_points(e, points, False).tolist() \
            == [walker(e, pt) is True for pt in points]

    @settings(max_examples=300, deadline=None)
    @given(MODE_AND_TREE, st.lists(st.tuples(st.sampled_from(LATTICE),
                                             st.sampled_from(LATTICE)),
                                   min_size=1, max_size=10))
    # an irrational root times an exact value beyond the float range
    @example((True, parse(f"sqrt(2) * {BEYOND_FLOATS} * x").root),
             [(1.0, 0.0), (0.0, 0.0), (0.5, 1.0)])
    def test_blocks_equal_the_walker_on_random_trees(self, mode_and_tree,
                                                     points):
        # irrational roots and values beyond the float range included: the
        # trees take square roots of 1/2 and the constant 10^400
        exact, root = mode_and_tree
        e = Expr(root, 2)
        if exact:
            points = [tuple(map(Fraction, pt)) for pt in points]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "_SHORTCUT_BLOCK", 3)
            regular = regular_points(e, points, exact)
        assert regular.tolist() == [walker_finds_regular(e, pt, exact)
                                    for pt in points]
        assert regular_points(e, np.array(points, dtype=object if exact
                                          else float), exact).tolist() \
            == regular.tolist()

    @pytest.mark.parametrize("exact", [False, True])
    def test_no_points_and_ragged_points(self, exact):
        e = parse("x+y")
        empty = regular_points(e, [], exact)
        assert empty.dtype == bool and empty.shape == (0,)
        with pytest.raises(ValueError, match="point has 3 coordinates"):
            regular_points(e, [(1, 2), (1, 2, 3)], exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_an_overflow_is_not_regular(self, exact):
        e = parse("sqrt(2)*x^2000")
        points = grid_points([(1, 2, 1)], exact)
        assert [walker(e, pt, exact) for pt in points] == [True, "overflow"]
        assert regular_points(e, points, exact).tolist() == [True, False]


# (expression, arc): regular samples, samples on the locus, samples whose
# check overflows, and samples outside the domain.
ARCS = [("guard(x^3/(x^2 + y^2), 0)", "t, t"),
        ("sqrt(x^2) + y", "t^2 - 1/16, t"),
        ("sqrt(y^2) + x", "t, 0"),
        ("sqrt(2)*x^2000 + y", "t + 2, t"),
        ("sqrt(x - 1/8) + y", "t, t^2")]


def pointwise_arc_statuses(e, arc, samples, k_max, exact):
    """Each side's statuses with every sample decided on its own."""
    t_max = sample_scalar(0.5, exact)
    ts = [t_max * (i + 1) / samples for i in range(samples)]
    return tuple(tuple(pointwise_verdict(
        e, tuple(eval_point(c, (t,), exact) for c in arc.components), k_max,
        classify.DEFAULT_TOL, None, exact).status for t in side)
        for side in ([-t for t in ts], ts))


def pointwise_center_count(e, chart, base, k_max, seed, n_center, exact):
    """Fibre-lift centre samples that classify analytic, drawn as
    `fiber_lift_check` draws them and each decided on its own."""
    base = tuple(map(Fraction, base) if exact else base)
    rng = random.Random(derive_seed(seed, "center-samples"))
    count = 0
    for _ in range(n_center):
        pt = list(base)
        for i in range(e.nvars):
            if i not in chart.center:
                pt[i] += sample_scalar(0.25 * (rng.random() * 1.5 + 0.5)
                                       * rng.choice((-1, 1)), exact)
        count += pointwise_verdict(e, tuple(pt), k_max, classify.DEFAULT_TOL,
                                   None, exact).status == ANALYTIC_UP_TO
    return count


class TestSampledChecks:
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("text, arc", ARCS)
    def test_arc_symmetry_equals_the_pointwise_reference(self, text, arc,
                                                         exact):
        e, spec = parse(text, nvars=2), parse_arc(arc)
        report = arc_symmetry_check(e, spec, samples=8, k_max=2, exact=exact)
        neg, pos = pointwise_arc_statuses(e, spec, 8, 2, exact)
        assert (report.negative_statuses, report.positive_statuses) \
            == (neg, pos)
        assert report.negative_uniformly_analytic \
            == all(s == ANALYTIC_UP_TO for s in neg)
        assert report.positive_exceptions \
            == sum(s == classify.NON_ANALYTIC for s in pos)
        assert type(report.positive_exceptions) is int

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("text, center, axis", [
        ("guard(z^3/(z^2 + x^2 + y^2), 0)", (2, 3), 3),
        # no centre sample is regular, and the ladder finds one analytic
        ("guard(z^3/(z^2 + x^2 + y^2), 0) + guard(y*(y+z)/(y+z), 0)",
         (2, 3), 3),
        ("guard(x^3/(x^2 + y^2), 0)", (1, 2), 1)])
    def test_fiber_lift_equals_the_pointwise_reference(self, text, center,
                                                       axis, exact):
        e, chart = parse(text, nvars=3), make_chart(3, center, axis)
        expected = pointwise_center_count(e, chart, (0, 0, 0), 2, 7, 6, exact)
        try:
            report = fiber_lift_check(e, chart, (0, 0, 0), k_max=2, seed=7,
                                      n_fiber=2, n_center=6, exact=exact)
        except PremiseViolated as exc:
            assert expected == 0 and "no nearby regular point" in str(exc)
            return
        assert report.regular_center_samples == expected
        assert type(report.regular_center_samples) is int
