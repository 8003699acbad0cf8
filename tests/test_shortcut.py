"""A scan's regularity shortcut, decided per block of points, against the walker."""

import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcan import classify, cli
from arcan.classify import iter_scan, verdict_to_json
from arcan.corpus import corpus_list, lookup
from arcan.errors import FloatOverflow
from arcan.expr import Add, Div, Expr, Guard, IntPow, Mul, RationalConst, \
    Sqrt, Sub, Var, regular_at, regular_lanes
from arcan.parser import parse

# Coordinates on a small lattice, so denominators and radicands hit exact
# zeros; 3 and 5 make powers of 1100 overflow a float.
LATTICE = (-1.0, -0.5, 0.0, 0.5, 1.0, 3.0, 5.0)
FRACTIONS = [Fraction(p, q) for p in range(-2, 3) for q in (1, 2)]


def walker(e, pt):
    """What `regular_at` gives at one point: True, False or "overflow"."""
    try:
        return regular_at(e, pt)
    except FloatOverflow:
        return "overflow"


def assert_matches_walker(e, points):
    regular, overflow = regular_lanes(e.root, np.array(points, dtype=float))
    for pt, hit, over in zip(points, regular.tolist(), overflow.tolist()):
        expected = walker(e, pt)
        if hit:
            assert expected is True, pt
        elif over:
            assert expected in (False, "overflow"), pt
        else:
            assert expected is False, pt


def trees():
    leaves = st.one_of(st.builds(Var, st.integers(0, 1)),
                       st.builds(RationalConst, st.sampled_from(FRACTIONS)))

    def extend(children):
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(IntPow, children, st.sampled_from([0, 1, 2, 3, 1100])),
            st.builds(Sqrt, children),
            st.builds(Guard, children, st.sampled_from(FRACTIONS)))
    return st.recursive(leaves, extend, max_leaves=12)


class TestRegularLanes:
    @settings(max_examples=300, deadline=None)
    @given(trees(), st.lists(st.tuples(st.sampled_from(LATTICE),
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

    def test_a_constant_beyond_floats_raises_as_the_walker_does(self):
        e = parse("x + " + "1" + "0" * 400)
        with pytest.raises(OverflowError):
            regular_at(e, (1.0,))
        with pytest.raises(OverflowError):
            regular_lanes(e.root, np.array([(1.0,)]))


def scan_lines(e, axes, seed, jobs, k_max=8):
    return [cli.emit_json({**verdict_to_json(v), "index": i})
            for i, v in enumerate(iter_scan(e, axes, k_max, seed=seed,
                                            order=20, jobs=jobs))]


def decide_nothing(e, points, exact, shortcut):
    return np.zeros(len(points), dtype=bool), np.full(len(points), shortcut)


JOBS = [1, 2] if (os.cpu_count() or 1) >= 2 else [1]
GRIDS = [(entry.name, entry.source, entry.nvars, entry.scan_axes)
         for entry in corpus_list()]
# the CLI reads E5 in two variables, over the window of the two it sees
GRIDS.append(("E5-cli", lookup("E5").source, None, lookup("E5").scan_axes[:2]))


class TestScanByteIdentity:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name, source, nvars, axes", GRIDS,
                             ids=[g[0] for g in GRIDS])
    def test_block_pass_changes_no_line(self, monkeypatch, name, source,
                                        nvars, axes, seed):
        e = parse(source, nvars=nvars)
        for jobs in JOBS:
            fast = scan_lines(e, axes, seed, jobs)
            with monkeypatch.context() as m:
                m.setattr(classify, "_shortcut_plan", decide_nothing)
                slow = scan_lines(e, axes, seed, jobs)
            assert fast == slow

    @pytest.mark.parametrize("text, axes", [
        ("x^2000 + 1/(y - y)", [(0, 3, 1), (0, 1, 1)]),
        ("1/(y - y) + x^2000", [(0, 3, 1), (0, 1, 1)]),
        ("1/(x^3 - 24389/1000)", [(Fraction(5, 2), Fraction(7, 2),
                                   Fraction(1, 10))]),
    ])
    def test_events_and_their_order(self, monkeypatch, text, axes):
        e = parse(text)
        fast = scan_lines(e, axes, 0, 1, k_max=2)
        monkeypatch.setattr(classify, "_shortcut_plan", decide_nothing)
        assert fast == scan_lines(e, axes, 0, 1, k_max=2)

    def test_overflow_lines_are_unchanged(self, capsys, monkeypatch):
        argv = ["scan", "(x^200)^2", "--grid", "x:0:10:1"]
        assert cli.main(argv) == 0
        fast = capsys.readouterr().out
        monkeypatch.setattr(classify, "_shortcut_plan", decide_nothing)
        assert cli.main(argv) == 0
        assert fast == capsys.readouterr().out
        overflows = [line for line in fast.splitlines()
                     if "overflows a float" in line]
        # 6.0 ** 400 is the first power beyond the float range
        assert len(overflows) == 5
        assert all('"status": "Inconclusive"' in line for line in overflows)
