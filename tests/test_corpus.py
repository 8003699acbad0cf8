"""Corpus registry: structure, tags, and locus membership tests."""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from arcan import cli
from arcan.classify import NON_ANALYTIC, classify_point, grid_array, \
    grid_points
from arcan.corpus import ARC_ANALYTIC, ARC_MEROMORPHIC_ONLY, DISCONTINUOUS, \
    NOT_C2, NOT_DIFFERENTIABLE, NOT_LIPSCHITZ, OvalLocus, PointLocus, \
    SubspaceLocus, corpus_list, lookup
from arcan.expr import eval_point

from helpers import arc_analytic_entries, permuted, signed_permutations

F = Fraction


class TestRegistry:
    def test_expected_entries_present(self):
        names = [e.name for e in corpus_list()]
        assert names == ["E1", "E2", "E3", "E4", "E5", "E6"]

    def test_every_entry_parses_and_evaluates(self):
        for entry in corpus_list():
            e = entry.expr()
            assert e.nvars == entry.nvars
            value = eval_point(e, (0.3,) * entry.nvars)
            assert isinstance(value, float)

    def test_lookup(self):
        assert lookup("E2").tags == frozenset({ARC_ANALYTIC, NOT_C2})
        with pytest.raises(KeyError):
            lookup("E9")

    def test_tags(self):
        assert NOT_DIFFERENTIABLE in lookup("E1").tags
        assert NOT_LIPSCHITZ in lookup("E3").tags
        assert lookup("E4").tags == frozenset({ARC_MEROMORPHIC_ONLY, DISCONTINUOUS})
        assert len(arc_analytic_entries()) == 5

    def test_json(self):
        doc = lookup("E1").to_json()
        assert doc["expr"].startswith("guard")
        assert doc["resolutionCharts"] == [{"n": 2, "center": [1, 2], "axis": 1}]


class TestLoci:
    def test_point_locus(self):
        locus = lookup("E1").locus
        assert locus.contains((0.0, 0.0))
        assert not locus.contains((0.125, 0.0))

    def test_subspace_locus(self):
        locus = lookup("E5").locus
        assert locus.contains((0.0, 0.0, 0.75))
        assert not locus.contains((0.125, 0.0, 0.75))
        assert "z" not in locus.describe().replace("x = y = 0", "")

    def test_oval_membership_exact(self):
        locus = lookup("E6").locus
        assert locus.contains((F(0), F(0), F(0)))
        assert locus.contains((F(1), F(0), F(0)))
        # on the quartic curve but on the right-hand component
        assert not locus.contains((F(2), F(0), F(0)))
        assert not locus.contains((F(3), F(0), F(0)))
        # off the z = 0 plane
        assert not locus.contains((F(0), F(0), F(1, 2)))

    def test_oval_has_no_point_on_the_separating_line(self):
        # x = 3/2 gives y^2 + 9/16 = 0: empty over the reals
        locus = OvalLocus()
        for y in (F(0), F(1, 2), F(-3, 4), F(17, 8)):
            assert not locus.contains((F(3, 2), y, F(0)))

    def test_locus_points_really_sit_on_the_locus(self):
        for entry in corpus_list():
            for pt in entry.exact_locus_points:
                assert entry.locus.contains(pt), (entry.name, pt)
            for pt in entry.regular_points:
                assert not entry.locus.contains(pt), (entry.name, pt)

    def test_e6_denominator_vanishes_exactly_on_locus_points(self):
        e = lookup("E6").expr()
        # g1(0,0) = sqrt(9/4) - 3/2 = 0 exactly, so the guard fires
        assert eval_point(e, (0.0, 0.0, 0.0)) == 0.0
        assert eval_point(e, (1.0, 0.0, 0.0)) == 0.0
        # on the companion component the denominator stays positive
        assert eval_point(e, (2.0, 0.0, 0.5)) != 0.0

    def test_e6_epsilon_certificate(self, capsys):
        # the script certifies the constant E6's source freezes
        path = Path(__file__).resolve().parents[1] / "scripts" \
            / "verify_e6_epsilon.py"
        spec = importlib.util.spec_from_file_location("verify_e6_epsilon", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert f"({script.EPS})" in lookup("E6").source
        assert script.main() == 0
        assert "PASS" in capsys.readouterr().out


def near_locus_points(entry, count, seed, tol=1e-9):
    """`count` float points within 1e-8 of the entry's locus: half of them
    on it with each coordinate moved by at most 1e-8 (log-uniformly from
    1e-13, or not at all), half on the edge of `contains`' tolerance
    `tol`, where a change in rounding flips the membership."""
    rng = random.Random(seed)
    edge = [tol, -tol, math.nextafter(tol, 0), math.nextafter(tol, 1)]
    points = []
    for j in range(count):
        locus, on_edge = entry.locus, j % 2
        moved = (lambda: rng.choice(edge)) if on_edge else \
            (lambda: rng.choice((0, -1, 1)) * 10 ** rng.uniform(-13, -8))
        if isinstance(locus, PointLocus):
            pt = [float(c) + moved() for c in rng.choice(locus.points)]
        elif isinstance(locus, SubspaceLocus):
            pt = [moved() if i in locus.zero_axes else rng.uniform(-1, 1)
                  for i in range(locus.nvars)]
        else:  # the oval: g(x, y) = 0, or g(x, y) about ±tol on the edge
            x = rng.uniform(0, 1)
            g = rng.choice((tol, -tol)) if on_edge else 0.0
            y = rng.choice((-1, 1)) * math.sqrt(
                max(0.0, g - x * (x - 1) * (x - 2) * (x - 3)))
            pt = [x, y, moved()] if on_edge else \
                [x + moved(), y + moved(), moved()]
        points.append(tuple(pt))
    return points


class TestLocusRows:
    """`contains_rows` equals `contains` point by point, in float."""

    @pytest.mark.parametrize("name", [e.name for e in corpus_list()])
    def test_on_the_scan_window(self, name):
        entry = lookup(name)
        grid = grid_array(entry.scan_axes)
        assert entry.locus.contains_rows(grid).tolist() \
            == [entry.locus.contains(p) for p in grid_points(entry.scan_axes)]

    @pytest.mark.parametrize("name", [e.name for e in corpus_list()])
    def test_near_the_locus(self, name):
        entry = lookup(name)
        points = near_locus_points(entry, 200, name)
        mask = entry.locus.contains_rows(np.array(points)).tolist()
        assert mask == [entry.locus.contains(p) for p in points]
        assert 20 < sum(mask) < 180  # both sides of the tolerance


class TestExactChecks:
    """The exact checks of `arcan corpus` hold whatever the directions."""

    @pytest.mark.parametrize("name, seed", [
        # a validation direction repeated a fit direction up to sign
        ("E1", "5360874646403647522"), ("E1", "1436822614659119867"),
        # a direction fell on E5's axis (0, 0, 1), where its denominator
        # vanishes identically
        ("E5", "3380286699141575858"), ("E5", "4091971518205606762")])
    def test_former_failing_seeds_pass(self, capsys, name, seed):
        # --seed is still accepted, and ignored: ladders read no seed
        assert cli.main(["corpus", name, "--seed", seed]) == 0
        assert '"passed": false' not in capsys.readouterr().out

    def test_every_signed_permutation_flags_every_locus_point(self):
        # f∘M at x M⁻¹ reads f's jets along the rows U M, as a seed that
        # picked M did: these cases cover every such seed.
        for entry in corpus_list():
            n = entry.nvars
            flips = signed_permutations(n)
            assert len(set(flips)) == 2 ** n * math.factorial(n)
            e = entry.expr()
            for pt in entry.exact_locus_points:
                v = classify_point(e, pt, k_max=4, exact=True)
                assert v.status == NON_ANALYTIC, (entry.name, pt)
                for flip in flips:
                    w = classify_point(*permuted(e, pt, flip), k_max=4,
                                       exact=True)
                    assert (w.status, w.k_star) == (v.status, v.k_star), \
                        (entry.name, pt, flip)
