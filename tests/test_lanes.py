"""Batched float jets (`LaneJet`, `eval_lanes`) against the scalar path."""

import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from arcan import classify
from arcan.classify import SeededDesign, _DesignJets, classify_point, \
    grid_points, verdict_to_json
from arcan.cli import emit_json
from arcan.corpus import corpus_list, lookup
from arcan.errors import ArcanError, IrregularBatch
from arcan.expr import eval_jets, eval_lanes
from arcan.homog import dim_homog
from arcan.jets import LaneJet, LaurentJet
from arcan.parser import parse
from arcan.seeds import derive_seed

from helpers import unit_vector

ORDER = 24
CUBE = ((Fraction(-1), Fraction(1), Fraction(1, 4)),) * 3


def scalar_jet(e, x, v, order=ORDER):
    pad = (0,) * (order - 1)
    var_jets = tuple(LaurentJet(0, (xi, vi) + pad, order)
                     for xi, vi in zip(x, v))
    return eval_jets(e.root, var_jets, order)


def bits(jet):
    return (jet.valuation, jet.order,
            [struct.pack("<d", float(c)) for c in jet.coeffs])


def outcome(thunk, as_bits=bits):
    try:
        return ("value", as_bits(thunk()))
    except (ArcanError, ValueError) as exc:
        return ("raise", type(exc), str(exc))


def float_bits(value):
    return struct.pack("<d", float(value))


def corpus_points():
    for entry in corpus_list():
        pts = [tuple(float(c) for c in p)
               for p in entry.regular_points + entry.exact_locus_points]
        # a scan-grid point with a zero coordinate
        pts.append((0.0, -0.5, 0.25)[:entry.nvars])
        for x in pts:
            yield entry.name, x


@pytest.mark.parametrize("name, x", list(corpus_points()))
def test_lanes_match_scalar_jets_bit_for_bit(name, x):
    e = lookup(name).expr()
    rng = random.Random(derive_seed("lanes", name, x))
    dirs = [unit_vector(rng, e.nvars) for _ in range(24)]
    batch = eval_lanes(e.root, x, np.array(dirs), ORDER)
    for i, v in enumerate(dirs):
        assert bits(batch.lane(i)) == bits(scalar_jet(e, x, v))


def test_zeroth_powers_stay_in_the_lanes():
    # x^0 is the float constant 1.0 in lanes and scalar jets alike, and
    # dividing by it stays float.
    e = parse("x^0/y^0 + x*y^0 + (1/x)^0 / (x + y)^0")
    x = (0.5, 0.25)
    rng = random.Random(5)
    dirs = [unit_vector(rng, 2) for _ in range(8)]
    batch = eval_lanes(e.root, x, np.array(dirs), ORDER)
    for i, v in enumerate(dirs):
        jet = scalar_jet(e, x, v)
        assert bits(batch.lane(i)) == bits(jet)
        assert not any(isinstance(c, Fraction) for c in jet.coeffs)


def test_zeroth_power_of_zero_stays_in_the_lanes():
    # (x - x)^0 is the evaluator's float 1.0 in lanes and scalar jets alike
    e = parse("(x - x)^0/(y - y)^0 + x")
    x = (0.5, 0.25)
    rng = random.Random(6)
    dirs = [unit_vector(rng, 2) for _ in range(8)]
    batch = eval_lanes(e.root, x, np.array(dirs), ORDER)
    for i, v in enumerate(dirs):
        jet = scalar_jet(e, x, v)
        assert bits(batch.lane(i)) == bits(jet)
        assert all(type(c) is float for c in jet.coeffs)


@pytest.mark.parametrize("text", ["((x - x)/x^30)^0",
                                  "guard((x - x)/x^30, 0) + x"])
def test_a_window_short_of_t0_stays_in_the_lanes(text):
    # Dividing by x^30 at 0 leaves a zero jet known only below t^0, and its
    # zeroth power or a sum with it too: lanes and scalar jets alike, and
    # reading h_0 raises ShortWindow.
    e = parse(text)
    dirs = [(1.0,), (-1.0,)]
    batch = eval_lanes(e.root, (0.0,), np.array(dirs), 8)
    jets = _DesignJets(e, (0.0,), 8, np.array(dirs))
    assert jets._passes != [None]
    for i, v in enumerate(dirs):
        assert bits(batch.lane(i)) == bits(scalar_jet(e, (0.0,), v, 8))
        assert outcome(lambda: jets.taylor_values(0, 2)) == \
            outcome(lambda: scalar_jet(e, (0.0,), v, 8).taylor_coeff(0))
    for exact in (False, True):
        v = classify_point(e, (0,), k_max=2, exact=exact)
        assert v.status == classify.INCONCLUSIVE
        assert "retained order" in v.reason and "--order 8" in v.reason


def test_large_ladders_split_into_bounded_passes():
    e = parse("x1 * x2 * x3 / (x1^2 + x2^2 + x3^2 + x4^2)")
    x = (0.5, 0.25, 0.125, 0.375)
    plan = SeededDesign(0, 4, 10)
    jets = _DesignJets(e, x, ORDER, plan.directions)
    ahead = 2 * dim_homog(4, 10)
    assert len(plan.directions) == ahead > classify.LANES_PER_PASS
    for i in range(ahead):
        v = tuple(plan.directions[i].tolist())
        assert bits(jets.jet(i)) == bits(scalar_jet(e, x, v))
    assert len(jets._passes) > 1
    assert max(batch.lanes for batch in jets._passes) \
        <= classify.LANES_PER_PASS


# (expression, point, directions, the batch's reason to fall back)
FALLBACKS = [
    ("x", (0.0, 0.0), [(1.0, 0.0), (0.0, 1.0)] * 2,
     "leading zeros differ"),
    ("1/(x - x)", (0.5,), [(1.0,), (-1.0,)], "zero divisor"),
    ("sqrt(x)", (0.0,), [(1.0,), (0.5,)], "odd valuation"),
    ("sqrt(x)", (-1.0,), [(1.0,), (0.5,)], "negative leading"),
    ("x^2000", (2.0,), [(1.0,), (-1.0,)], "non-finite"),
]


@pytest.mark.parametrize("text, x, dirs, reason", FALLBACKS)
def test_irregular_batch_falls_back_to_the_scalar_path(text, x, dirs, reason):
    e = parse(text, nvars=len(x))
    with np.errstate(all="ignore"), pytest.raises(IrregularBatch, match=reason):
        eval_lanes(e.root, x, np.array(dirs), ORDER)

    # Jets along exactly these directions answer as the scalar path.
    jets = _DesignJets(e, x, ORDER, np.array(dirs))
    assert jets._passes == [None]
    for i, v in enumerate(dirs):
        assert outcome(lambda: jets.jet(i)) == \
            outcome(lambda: scalar_jet(e, x, v))
        assert outcome(lambda: jets.taylor_values(1, i + 1)[i], float_bits) \
            == outcome(lambda: scalar_jet(e, x, v).taylor_coeff(1), float_bits)


def _grid_lines(cases):
    points = grid_points(CUBE)
    exprs = {name: lookup(name).expr() for name in ("E5", "E6")}
    lines = []
    for name, i, scan_seed in cases:
        v = classify_point(exprs[name], points[i], k_max=10,
                           seed=derive_seed(scan_seed, "scan", i))
        lines.append(emit_json(verdict_to_json(v)))
    v = classify_point(exprs["E6"], (0.25, 1.0, 0.25), k_max=10, seed=3)
    return lines + [emit_json(verdict_to_json(v))]


def test_batched_ladder_matches_the_scalar_ladder(monkeypatch):
    # 364 is the origin and 365 a z-axis point (NonAnalytic for E5).
    cases = [(name, i, s) for name in ("E5", "E6")
             for i, s in ((3, 1), (4, 1), (40, 0), (200, 0), (364, 0),
                          (365, 1), (482, 1), (700, 0))]
    regular = []
    original = classify.eval_lanes

    def counting(*args):
        batch = original(*args)
        regular.append(batch.lanes)
        return batch
    monkeypatch.setattr(classify, "eval_lanes", counting)
    batched = _grid_lines(cases)
    assert regular

    def always_irregular(*args):
        raise IrregularBatch("forced")
    monkeypatch.setattr(classify, "eval_lanes", always_irregular)
    assert _grid_lines(cases) == batched


# Entries of the sparse-product operands: negatives make 0·b a −0.0.
ENTRIES = (-3.0, -1.5, -0.25, 0.5, 1.0, 2.0)


def sparse_operand(rng, lanes, valuation, order):
    """A `LaneJet` with all-zero rows inside and at the end, rows zero in
    some lanes only, and zeros of both signs; its lead row is nonzero."""
    rows = []
    for r in range(order - valuation + 1):
        if r and rng.random() < 0.4:
            rows.append([rng.choice((0.0, -0.0)) for _ in range(lanes)])
            continue
        rows.append([rng.choice(ENTRIES) if r == 0 or rng.random() < 0.6
                     else rng.choice((0.0, -0.0)) for _ in range(lanes)])
    trailing = rng.randrange(len(rows))
    for r in range(max(trailing, 1), len(rows)):
        rows[r] = [0.0] * lanes
    return LaneJet(valuation, np.array(rows), order)


@pytest.mark.parametrize("case", range(40))
def test_sparse_lane_products_match_scalar_products_bit_for_bit(case):
    rng = random.Random(derive_seed("sparse products", case))
    lanes = rng.randint(1, 6)
    operands = []
    for _ in range(2):  # unequal windows: valuations and orders differ
        valuation = rng.randint(-2, 2)
        operands.append(sparse_operand(rng, lanes, valuation,
                                       valuation + rng.randint(0, 12)))
    a, b = operands
    product = a * b
    for i in range(lanes):
        assert bits(product.lane(i)) == bits(a.lane(i) * b.lane(i))
    for exponent in range(13):
        power = a.pow_int(exponent)
        for i in range(lanes):
            # a base with a nonzero lead never calls the constant builder
            assert bits(power.lane(i)) == \
                bits(a.lane(i).pow_int(exponent, None))
