"""Batched float jets (`LaneJet`, `eval_lanes`) against the scalar path."""

import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from arcan import classify
from arcan.classify import _PointSession, classify_point, grid_points, \
    verdict_to_json
from arcan.cli import emit_json
from arcan.corpus import corpus_list, lookup
from arcan.errors import ArcanError, IrregularBatch
from arcan.expr import eval_jets, eval_lanes
from arcan.homog import dim_homog
from arcan.jets import LaurentJet
from arcan.parser import parse
from arcan.seeds import derive_seed, unit_vector

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


def outcome(thunk):
    try:
        return ("value", bits(thunk()))
    except ArcanError as exc:
        return ("raise", type(exc), str(exc))


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


def test_large_ladders_split_into_bounded_passes():
    e = parse("x1 * x2 * x3 / (x1^2 + x2^2 + x3^2 + x4^2)")
    x = (0.5, 0.25, 0.125, 0.375)
    session = _PointSession(e, x, ORDER, False, 0, 1e6, 10)
    ahead = 2 * dim_homog(4, 10)
    assert ahead > classify.LANES_PER_PASS
    passes = {}
    for i in range(ahead):
        batch, _ = session._lane[i]
        passes[id(batch)] = batch.lanes
        assert bits(session.jet(i)) == bits(scalar_jet(e, x, session.dir(i)))
    assert len(passes) > 1
    assert max(passes.values()) <= classify.LANES_PER_PASS


# (expression, point, directions, the batch's reason to fall back)
FALLBACKS = [
    ("x", (0.0, 0.0), [(1.0, 0.0), (0.0, 1.0)] * 2,
     "leading zeros differ"),
    ("1/(x - x)", (0.5,), [(1.0,), (-1.0,)], "zero divisor"),
    ("sqrt(x)", (0.0,), [(1.0,), (0.5,)], "odd valuation"),
    ("sqrt(x)", (-1.0,), [(1.0,), (0.5,)], "negative leading"),
    ("x^2000", (2.0,), [(1.0,), (-1.0,)], "non-finite"),
    ("x^0", (0.5,), [(1.0,), (-1.0,)], "zeroth power"),
]


@pytest.mark.parametrize("text, x, dirs, reason", FALLBACKS)
def test_irregular_batch_falls_back_to_the_scalar_path(monkeypatch, text, x,
                                                      dirs, reason):
    e = parse(text, nvars=len(x))
    with np.errstate(all="ignore"), pytest.raises(IrregularBatch, match=reason):
        eval_lanes(e.root, x, np.array(dirs), ORDER)

    # A session drawing exactly these directions answers as the scalar path.
    assert len(dirs) == 2 * dim_homog(e.nvars, 1)
    stream = iter(dirs)
    monkeypatch.setattr(classify, "direction", lambda rng, n, exact: next(stream))
    session = _PointSession(e, x, ORDER, False, 0, 1e6, 1)
    for i, v in enumerate(dirs):
        assert outcome(lambda: session.jet(i)) == \
            outcome(lambda: scalar_jet(e, x, v))


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
    # Grid indices 3 and 4 retry a fit block under scan seed 1; 364 is the
    # origin and 365 a z-axis point (NonAnalytic for E5).
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


@pytest.mark.parametrize("index, k, starts", [(3, 9, (110,)),
                                               (4, 10, (132, 198))])
def test_retry_block_starts_at_the_high_water_mark(monkeypatch, index, k,
                                                   starts):
    # E5 under scan seed 1: order k rejects its first block.  The retry
    # blocks start at 2*d(3,k), the pool size the ladder has asked for,
    # not at the 2*d(3,10) directions evaluated ahead.
    tried, accepted = [], {}
    original_fit = _PointSession.fit_indices
    original_cond = classify.matrix_condition

    def spy_fit(self, order):
        result = original_fit(self, order)
        accepted[order] = result[0]
        return result

    def spy_cond(matrix):
        tried.append(len(matrix))
        return original_cond(matrix)
    monkeypatch.setattr(_PointSession, "fit_indices", spy_fit)
    monkeypatch.setattr(classify, "matrix_condition", spy_cond)
    points = grid_points(CUBE)
    classify_point(lookup("E5").expr(), points[index], k_max=10,
                   seed=derive_seed(1, "scan", index))
    d = dim_homog(3, k)
    assert starts[0] == 2 * d
    assert accepted[k] == list(range(starts[-1], starts[-1] + d))
    assert tried.count(d) == len(starts) + 1
    for j in range(11):
        if j != k:
            assert accepted[j] == list(range(dim_homog(3, j)))
