"""A scan's regularity shortcut, decided per block of points, against `regular_at`."""

import contextlib
import io
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcan import classify, cli
from arcan.classify import INCONCLUSIVE, Verdict, classify_point, grid_points, \
    iter_scan, scan_region, verdict_to_json
from arcan.corpus import corpus_list, lookup
from arcan.errors import ArcanError, FloatOverflow
from arcan.expr import Div, Expr, IntPow, RationalConst, Sub, Var, regular_at, \
    regular_lanes
from arcan.parser import parse, var_name

from helpers import BEYOND_FLOATS, FRACTIONS, LATTICE, trees


def walker(e, pt):
    """What `regular_at` gives at one point: True, False or "overflow"."""
    try:
        return regular_at(e, pt)
    except (FloatOverflow, OverflowError):
        return "overflow"


def assert_matches_walker(e, points):
    """A lane is regular exactly where `regular_at` is True."""
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

    def test_a_constant_beyond_floats_makes_every_lane_irregular(self):
        e = parse(f"x + {BEYOND_FLOATS}")
        with pytest.raises(OverflowError):
            regular_at(e, (1.0,))
        assert not regular_lanes(e.root, np.array([(1.0,), (2.0,)])).any()


def pointwise_verdicts(e, axes, seed, k_max=8, exact=False):
    """Each grid point through `classify_point` with the shortcut, under
    the scan seed, and an ArcanError as an Inconclusive verdict."""
    verdicts = []
    for pt in grid_points(axes, exact):
        try:
            v = classify_point(e, pt, k_max, seed=seed, order=20,
                               exact=exact, shortcut=True)
        except ArcanError as exc:
            v = Verdict(pt, INCONCLUSIVE, k_max, reason=str(exc))
        verdicts.append(v)
    return verdicts


def pointwise_lines(e, axes, seed, k_max=8, exact=False, fmt="json"):
    """The generic serializer's scan output over `pointwise_verdicts`."""
    verdicts = pointwise_verdicts(e, axes, seed, k_max, exact)
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
        text = cli_text(source, nvars)
        e = parse(text)
        assert e.nvars == len(axes)
        for fmt in ("json", "csv"):
            expected = pointwise_lines(e, axes, seed, fmt=fmt)
            for jobs in JOBS:
                assert cli_scan_lines(text, axes, seed, jobs, fmt=fmt) \
                    == expected, (fmt, jobs)

    @pytest.mark.parametrize("name, source, nvars, axes", GRIDS,
                             ids=[g[0] for g in GRIDS])
    def test_no_verdict_exactly_at_the_regular_points(self, name, source,
                                                      nvars, axes):
        e = parse(source, nvars=nvars)
        pairs = list(iter_scan(e, axes, seed=1, order=20))
        assert [pt for pt, _ in pairs] == grid_points(axes)
        assert [v is None for _, v in pairs] \
            == [walker(e, pt) is True for pt, _ in pairs]
        ladder = [v for v in pointwise_verdicts(e, axes, 1) if not v.shortcut]
        assert [v for _, v in pairs if v is not None] == ladder
        assert scan_region(e, axes, seed=1, order=20) == ladder

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
            == pointwise_lines(e, axes, 0, k_max=2, fmt=fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rational_scan_is_unchanged(self, fmt):
        source, axes = lookup("E1").source, [(-1, 1, Fraction(1, 2))] * 2
        assert cli_scan_lines(source, axes, 2, k_max=3, fmt=fmt,
                              mode="rational") \
            == pointwise_lines(parse(source), axes, 2, k_max=3, exact=True,
                               fmt=fmt)

    def test_overflow_lines_are_unchanged(self, capsys):
        assert cli.main(["scan", "(x^200)^2", "--grid", "x:0:10:1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == pointwise_lines(parse("(x^200)^2"),
                                                   [(0, 10, 1)], 0)
        # the ladder decides a point whose value leaves the float range
        overflows = [line for line in out.splitlines()
                     if "order 0: h_0 or its residuals overflow" in line]
        # 6.0 ** 400 is the first power beyond the float range
        assert len(overflows) == 5
        assert all('"status": "Inconclusive"' in line for line in overflows)


class TestShortcutCost:
    def test_a_float_scan_builds_no_verdict_at_a_shortcut_point(
            self, monkeypatch):
        entry = lookup("E6")
        e = entry.expr()
        regular = regular_lanes(e.root, np.array(grid_points(entry.scan_axes)))
        ladder = int((~regular).sum())
        assert ladder == 2  # the flagged points of the E6 window
        counts = {"Verdict": 0, "verdict_to_json": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        counting(classify, "Verdict")
        counting(cli, "verdict_to_json")
        lines = cli_scan_lines(entry.source, entry.scan_axes, 0)
        assert len(lines) == len(regular)
        assert counts["Verdict"] == ladder
        # one more renders the shortcut lines' fixed text
        assert counts["verdict_to_json"] == ladder + 1
