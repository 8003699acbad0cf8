"""Batched jets (`LaneJet`, `RationalJet`, `eval_lanes`) against one-lane
reruns and the scalar references (`helpers.LaurentJet` for floats,
`helpers.ScalarRationalJet` for exact jets)."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arcan import classify
from arcan.classify import _DesignJets, _series, \
    classify_point, grid_points, verdict_to_json
from arcan.cli import emit_json
from arcan.corpus import corpus_list, lookup
from arcan.errors import ArcanError, IrregularBatch
from arcan.expr import Expr, eval_lanes
from arcan.homog import dim_homog
from arcan.jets import LaneJet, RationalJet
from arcan.parser import parse
from arcan.seeds import derive_seed

from helpers import LATTICE, LaurentJet, laurent_of, laurent_series, \
    permuted, scalar_rational_series, signed_permutation, trees, unit_vector

ORDER = 24
CUBE = ((Fraction(-1), Fraction(1), Fraction(1, 4)),) * 3


def bits(jet, lane=0):
    """A jet's window and its coefficients' bit patterns: a `LaurentJet`,
    or one lane of a `LaneJet`.  Every NaN counts as one pattern: IEEE
    arithmetic leaves the sign of a NaN to the order of operations (the
    scalar jet subtracts as a + (−b)), and no reader tells NaNs apart."""
    if not isinstance(jet, LaurentJet):
        jet = laurent_of(jet, lane)
    coeffs = np.array(jet.coeffs, dtype=float)
    coeffs[np.isnan(coeffs)] = np.nan
    return jet.valuation, jet.order, coeffs.view(np.int64).tolist()


def outcome(thunk, as_bits=bits):
    try:
        return ("value", as_bits(thunk()))
    except (ArcanError, ValueError) as exc:
        return ("raise", type(exc), str(exc))


def float_bits(value):
    return np.array([value], dtype=float).view(np.int64).tolist()


def rerun(e, x, v, order=ORDER):
    """The one-lane jet of one line, as `_DesignJets` reruns it."""
    return _series(e, x, tuple(v), order, False)


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
        reference = bits(laurent_series(e, x, v, ORDER))
        assert bits(batch, i) == reference
        assert bits(rerun(e, x, v)) == reference


def test_zeroth_powers_stay_in_the_lanes():
    # x^0 is the float constant 1.0 in lanes and scalar jets alike, and
    # dividing by it stays float.
    e = parse("x^0/y^0 + x*y^0 + (1/x)^0 / (x + y)^0")
    x = (0.5, 0.25)
    rng = random.Random(5)
    dirs = [unit_vector(rng, 2) for _ in range(8)]
    batch = eval_lanes(e.root, x, np.array(dirs), ORDER)
    for i, v in enumerate(dirs):
        jet = laurent_series(e, x, v, ORDER)
        assert bits(batch, i) == bits(jet) == bits(rerun(e, x, v))
        assert not any(isinstance(c, Fraction) for c in jet.coeffs)


def test_zeroth_power_of_zero_stays_in_the_lanes():
    # (x - x)^0 is the evaluator's float 1.0 in lanes and scalar jets alike
    e = parse("(x - x)^0/(y - y)^0 + x")
    x = (0.5, 0.25)
    rng = random.Random(6)
    dirs = [unit_vector(rng, 2) for _ in range(8)]
    batch = eval_lanes(e.root, x, np.array(dirs), ORDER)
    for i, v in enumerate(dirs):
        jet = laurent_series(e, x, v, ORDER)
        assert bits(batch, i) == bits(jet) == bits(rerun(e, x, v))
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
    assert jets.batch(0) is not None
    for i, v in enumerate(dirs):
        reference = laurent_series(e, (0.0,), v, 8)
        assert bits(batch, i) == bits(reference) \
            == bits(rerun(e, (0.0,), v, 8))
        assert outcome(lambda: jets.taylor_values(0, 2)) == \
            outcome(lambda: reference.taylor_coeff(0))
    for exact in (False, True):
        v = classify_point(e, (0,), k_max=2, exact=exact)
        assert v.status == classify.INCONCLUSIVE
        assert "retained order" in v.reason and "--order 8" in v.reason


def test_large_ladders_split_into_bounded_passes():
    e = parse("x1 * x2 * x3 / (x1^2 + x2^2 + x3^2 + x4^2)")
    x = (0.5, 0.25, 0.125, 0.375)
    directions = classify.design(4, 10)[0]
    jets = _DesignJets(e, x, ORDER, directions)
    ahead = 2 * dim_homog(4, 10)
    assert len(directions) == ahead > classify.LANES_PER_PASS
    for i in range(ahead):
        v = tuple(directions[i].tolist())
        batch = jets.batch(i // classify.LANES_PER_PASS)
        assert bits(batch, i % classify.LANES_PER_PASS) \
            == bits(laurent_series(e, x, v, ORDER)) == bits(jets.jet(i))
    assert len(jets._passes) > 1
    assert max(batch.lanes for batch in jets._passes.values()) \
        <= classify.LANES_PER_PASS


# (expression, point, directions, the batch's reason to be rerun)
IRREGULAR = [
    ("x", (0.0, 0.0), [(1.0, 0.0), (0.0, 1.0)] * 2,
     "leading zeros differ"),
    ("1/(x - x)", (0.5,), [(1.0,), (-1.0,)],
     "every retained coefficient of the divisor is zero"),
    ("sqrt(x)", (0.0,), [(1.0,), (0.5,)], "leading exponent 1 is odd"),
    ("sqrt(x)", (-1.0,), [(1.0,), (0.5,)],
     "leading coefficient -1.0 is negative"),
    ("x^2000", (2.0,), [(1.0,), (-1.0,)], "non-finite"),
]


@pytest.mark.parametrize("text, x, dirs, reason", IRREGULAR)
def test_an_irregular_batch_is_rerun_one_lane_at_a_time(text, x, dirs,
                                                         reason):
    e = parse(text, nvars=len(x))
    with pytest.raises(IrregularBatch, match=reason):
        eval_lanes(e.root, x, np.array(dirs), ORDER)

    # Jets along exactly these directions answer as the scalar path.
    jets = _DesignJets(e, x, ORDER, np.array(dirs))
    assert jets._starts == [0] and jets.batch(0) is None
    for i, v in enumerate(dirs):
        assert outcome(lambda: jets.jet(i)) == \
            outcome(lambda: laurent_series(e, x, v, ORDER))
        assert outcome(lambda: jets.taylor_values(1, i + 1)[i], float_bits) \
            == outcome(lambda: laurent_series(e, x, v, ORDER).taylor_coeff(1),
                       float_bits)


@pytest.mark.parametrize("text, x", [("x^2000", (2.0,)),
                                     ("x^1100 - x^1100", (3.0,)),
                                     ("1/x^1100 + x", (5.0,)),
                                     ("(x - x)*x^2000 + x", (2.0,))])
def test_a_one_lane_jet_keeps_non_finite_coefficients(text, x):
    # The float range ends inside these jets; a lone lane, like the scalar
    # path, carries inf and NaN on, bit for bit, so the ladder reads an
    # order's values as they are (and (x - x)*x^2000 is the zero jet).
    e = parse(text, nvars=1)
    seen = []
    for v in ((1.0,), (-0.5,)):
        jet = rerun(e, x, v)
        assert bits(jet) == bits(laurent_series(e, x, v, ORDER))
        seen += jet.coefficients()
    assert text.startswith("(x - x)") or not np.isfinite(seen).all()


def _grid_lines(cases, exact, k_max):
    points = grid_points(CUBE, exact)
    exprs = {name: lookup(name).expr() for name in ("E5", "E6")}
    lines = []
    # each point along the rows its former scan seed's permutation picked
    for name, i, scan_seed in cases:
        flip = signed_permutation(derive_seed(scan_seed, "scan", i), 3)
        v = classify_point(*permuted(exprs[name], points[i], flip),
                           k_max=k_max, exact=exact)
        lines.append(emit_json(verdict_to_json(v)))
    v = classify_point(*permuted(exprs["E6"], (Fraction(1, 4), 1,
                                               Fraction(1, 4)),
                                 signed_permutation(3, 3)),
                       k_max=k_max, exact=exact)
    return lines + [emit_json(verdict_to_json(v))]


@pytest.mark.parametrize("exact, k_max", [(False, 10), (True, 6)])
def test_batched_ladder_matches_the_one_lane_ladder(monkeypatch, exact,
                                                    k_max):
    # 364 is the origin and 365 a z-axis point (NonAnalytic for E5); 526
    # is (1/2, 0, 0), where E6's square root is irrational in every lane.
    cases = [(name, i, s) for name in ("E5", "E6")
             for i, s in ((3, 1), (4, 1), (40, 0), (200, 0), (364, 0),
                          (365, 1), (482, 1), (526, 0), (700, 0))]
    regular = []
    original = classify.eval_lanes

    def counting(*args):
        batch = original(*args)
        regular.append(batch.lanes)
        return batch
    monkeypatch.setattr(classify, "eval_lanes", counting)
    batched = _grid_lines(cases, exact, k_max)
    assert regular

    def always_irregular(*args):
        raise IrregularBatch("forced")
    monkeypatch.setattr(classify, "eval_lanes", always_irregular)
    assert _grid_lines(cases, exact, k_max) == batched


def test_no_corpus_rational_ladder_reruns_a_direction(monkeypatch):
    # Every corpus exact-locus and regular point batches all of its
    # directions, those past E2's and E6's irrational roots included.
    reruns, handovers = [], []
    original_series, original_sqrt = classify._series, LaneJet.sqrt

    def counting_series(*args):
        reruns.append(args[1:3])
        return original_series(*args)

    def counting_sqrt(jet):
        handovers.append(jet.lanes)
        return original_sqrt(jet)
    monkeypatch.setattr(classify, "_series", counting_series)
    monkeypatch.setattr(LaneJet, "sqrt", counting_sqrt)
    for entry in corpus_list():
        e = entry.expr()
        for x in entry.exact_locus_points + entry.regular_points:
            for k_max in (8, 10):
                for seed in range(3):
                    flip = signed_permutation(seed, entry.nvars)
                    classify_point(*permuted(e, x, flip), k_max, exact=True)
    assert reruns == []
    assert handovers and min(handovers) > 1


# Coordinates of points and directions: zeros (so that lanes' leading
# zeros differ) and magnitudes whose squares or powers leave the float
# range.
POINT_COORDS = LATTICE + (1e154, -1e200, 1e-200)
DIRECTION_COORDS = (0.0, -0.0, 1.0, -0.5, 0.25, 3.0, 1e154, -1e300)
PROPERTY_ORDER = 6


@settings(max_examples=300, deadline=None)
@given(trees(),
       st.tuples(*[st.sampled_from(POINT_COORDS)] * 2),
       st.lists(st.tuples(*[st.sampled_from(DIRECTION_COORDS)] * 2),
                min_size=1, max_size=6))
def test_lanes_reruns_and_the_scalar_reference_agree(root, x, dirs):
    """Each direction's jet, bit for bit: a lane of the batch (unless the
    batch is irregular), its one-lane rerun and the scalar `LaurentJet`,
    non-finite coefficients included; where one raises, each raises the
    same error and message."""
    e = Expr(root, 2)
    try:
        batch = ("value", eval_lanes(root, x, np.array(dirs), PROPERTY_ORDER))
    except (ArcanError, ValueError) as exc:
        batch = ("raise", type(exc), str(exc))
    for i, v in enumerate(dirs):
        reference = outcome(lambda: laurent_series(e, x, v, PROPERTY_ORDER))
        assert outcome(lambda: rerun(e, x, v, PROPERTY_ORDER)) == reference
        if batch[0] == "value":
            assert ("value", bits(batch[1], i)) == reference
        elif batch[1] is not IrregularBatch:
            assert batch == reference  # one lane, or alike in every lane


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


def one_lane(jet, lane):
    return LaneJet(jet.valuation, jet.coeffs[:, [lane]], jet.order)


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
        reference = bits(laurent_of(a, i) * laurent_of(b, i))
        assert bits(product, i) == reference
        assert bits(one_lane(a, i) * one_lane(b, i)) == reference
    for exponent in range(13):
        power = a.pow_int(exponent)
        for i in range(lanes):
            reference = bits(laurent_of(a, i).pow_int(exponent))
            assert bits(power, i) == reference
            assert bits(one_lane(a, i).pow_int(exponent)) == reference


# --- exact lanes ---------------------------------------------------------------

def typed(values):
    """Values with their types: floats as bit patterns (one for every
    NaN), exact values as they are."""
    return tuple((type(c).__name__,
                  float_bits(math.nan if c != c else c)[0]
                  if isinstance(c, float) else c) for c in values)


def lane(jet, i):
    """Lane i of a batch as a one-lane jet of its kind."""
    if isinstance(jet, RationalJet):
        return RationalJet(jet.valuation, jet.nums[:, [i]], jet.den[[i]],
                           jet.order)
    return one_lane(jet, i)


def exact_reads(jet):
    """A one-lane jet's window and what a ladder reads from it, with
    types: the coefficients of t^0..t^order, or the pole's."""
    if not jet.is_zero and jet.valuation < 0:
        return "pole", jet.valuation, jet.order, typed(jet.coefficients())
    return jet.valuation, jet.order, typed(
        [jet.taylor_coeff(k) for k in range(jet.order + 1)])


def exact_outcome(thunk):
    try:
        return "value", exact_reads(thunk())
    except Exception as exc:
        return "raise", type(exc), str(exc)


# Lattice points, exactly, and integer rows: zeros (leading zeros differ
# between lanes) and Pythagorean pairs (a root of x^2 + y^2 at the origin
# is rational along (3, 4) and (5, 12), irrational along (1, 1)).
EXACT_POINT_COORDS = tuple(Fraction(c) for c in LATTICE)
ROW_COORDS = (0, 1, -1, 2, 3, -4, 5, 12)
CONE = parse("sqrt(x^2 + y^2) * y + x").root


@settings(max_examples=200, deadline=None)
@given(trees(exponents=(0, 1, 2, 3)),  # nested exact powers of 1100 never end
       st.tuples(*[st.sampled_from(EXACT_POINT_COORDS)] * 2),
       st.lists(st.tuples(*[st.sampled_from(ROW_COORDS)] * 2),
                min_size=1, max_size=6))
@example(CONE, (Fraction(0), Fraction(0)), [(3, 4), (5, 12)])
@example(CONE, (Fraction(0), Fraction(0)), [(1, 1), (1, 2), (-4, 3)])
@example(CONE, (Fraction(0), Fraction(0)), [(1, 1), (2, 1)])
@example(parse("sqrt(2 + x) * x^1100 + y").root, (Fraction(5), Fraction(0)),
         [(1, 1), (0, 1)])
def test_exact_lanes_reruns_and_the_list_jet_agree(root, x, rows):
    """Each direction's exact jet, in value and type (`Fraction`, int or
    float): a lane of the batch (unless the batch is irregular, or a lane
    leaves the float range), its one-lane rerun and the list jet
    `ScalarRationalJet`; where one raises, each raises the same error."""
    e = Expr(root, 2)
    try:
        batch = ("value", eval_lanes(root, x, np.array(rows, dtype=object),
                                     PROPERTY_ORDER, True))
    except Exception as exc:
        batch = ("raise", type(exc), str(exc))
    references = []
    for i, v in enumerate(rows):
        reference = exact_outcome(
            lambda: scalar_rational_series(e, x, v, PROPERTY_ORDER))
        assert exact_outcome(
            lambda: _series(e, x, v, PROPERTY_ORDER, True)) == reference
        if batch[0] == "value":
            assert ("value", exact_reads(lane(batch[1], i))) == reference
        references.append(reference)
    if batch[0] == "raise" and batch[1] is OverflowError:
        assert any(r[:2] == ("raise", OverflowError) for r in references)
    elif batch[0] == "raise" and batch[1] is not IrregularBatch:
        assert all(r == batch for r in references)


# Entries of object-dtype operands: exact values, exact and float zeros of
# both signs, and floats (Python gives 0 * -1.5 == -0.0, and a Fraction
# plus 0.0 is a float).
OBJECT_ENTRIES = (Fraction(1, 3), Fraction(-2), 3, 0, Fraction(0), 0.0,
                  -0.0, -1.5, 0.25, 2.0)


def object_operand(rng, lanes, valuation, order, positive_lead=False):
    rows = [[rng.choice(OBJECT_ENTRIES) for _ in range(lanes)]
            for _ in range(order - valuation + 1)]
    rows[0] = [rng.choice((Fraction(9, 4), 2.0, 4, Fraction(1, 2))
                          if positive_lead else (Fraction(1, 3), -1.5, 3))
               for _ in range(lanes)]
    return LaneJet(valuation, np.array(rows, dtype=object), order)


@pytest.mark.parametrize("case", range(40))
def test_object_lanes_match_one_lane_jets(case):
    # The jets past an irrational root: each lane of a batch of Python
    # scalars is its one-lane jet in value and type, signed zeros and
    # infinities included.
    rng = random.Random(derive_seed("object lanes", case))
    lanes = rng.randint(2, 5)
    a, b = (object_operand(rng, lanes, v, v + rng.randint(0, 8))
            for v in (rng.randint(-1, 2), rng.randint(-1, 2)))
    if case % 4 == 0:  # a lane with an infinity, no longer a float batch
        b.coeffs[-1, 0] = math.inf
    root = object_operand(rng, lanes, 2 * rng.randint(0, 2), 8, True)
    ops = [lambda a, b, r: a + b, lambda a, b, r: a - b,
           lambda a, b, r: a * b, lambda a, b, r: b * a,
           lambda a, b, r: a / b, lambda a, b, r: a.pow_int(0),
           lambda a, b, r: a.pow_int(3), lambda a, b, r: r.sqrt() * a]
    compared = 0
    for op in ops:
        try:
            batch = op(a, b, root)
        except IrregularBatch:  # lanes that cancel to different valuations
            continue
        compared += 1
        assert batch.lanes == lanes
        for i in range(lanes):
            alone = op(one_lane(a, i), one_lane(b, i), one_lane(root, i))
            assert typed(one_lane(batch, i).coefficients()) \
                == typed(alone.coefficients())
            assert (batch.valuation, batch.order) \
                == (alone.valuation, alone.order)
    assert compared >= 4
