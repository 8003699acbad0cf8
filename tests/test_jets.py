"""Jet arithmetic: examples, error cases, and ring-law properties."""

import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcan.classify import _series, default_order
from arcan.corpus import corpus_list, lookup
from arcan.errors import NegativeLeading, OddValuation, PoleAtOrigin, \
    ShortWindow, ZeroDivisor
from arcan.homog import canonical_design, dim_homog
from arcan.jets import LaneJet, RationalJet, jet_sqrt

from helpers import LaurentJet, coeff_norm, eval_poly, \
    fraction_gateaux_series, jets_agree, laurent_of, random_laurent, \
    random_poly_jet, rational_of

F = Fraction


def exact(valuation, coeffs, order=None):
    """The `RationalJet` of int and Fraction coefficients from t^valuation."""
    return rational_of(LaurentJet(valuation, coeffs, order))


def floats(valuation, coeffs, order=None):
    """The one-lane `LaneJet` of these coefficients from t^valuation."""
    if order is None:
        order = valuation + len(coeffs) - 1
    return LaneJet(valuation, np.array(coeffs, dtype=float).reshape(-1, 1),
                   order)


def lane_of(jet: LaurentJet) -> LaneJet:
    """A `LaurentJet` as a one-lane `LaneJet`: float coefficients as
    floats, others as Python scalars (`object` dtype)."""
    if all(type(c) is float for c in jet.coeffs):
        return floats(jet.valuation, jet.coeffs, jet.order)
    coeffs = np.empty((len(jet.coeffs), 1), dtype=object)
    coeffs[:, 0] = jet.coeffs
    return LaneJet(jet.valuation, coeffs, jet.order)


def taylor(*coeffs):
    """The exact jet of a polynomial in t, known up to t^(len(coeffs) - 1)."""
    return exact(0, coeffs, len(coeffs) - 1)


JET_KINDS = {"exact": exact, "float": floats}


@pytest.mark.parametrize("kind", JET_KINDS)
class TestJetBasics:
    def test_mul_telescopes(self, kind):
        jet = JET_KINDS[kind]
        product = jet(0, [1, 1, 0]) * jet(0, [1, -1, 0])
        assert product.coefficients() == [1, 0, -1]

    def test_add_constant(self, kind):
        jet = JET_KINDS[kind]
        assert (jet(0, [1, 1, 0]) + jet(0, [1, -1, 0])).coefficients() \
            == [2, 0, 0]

    def test_monomial_shift(self, kind):
        jet = JET_KINDS[kind]
        product = jet(0, [0, 1, 1, 0]) * jet(0, [0, 1, 0, 0])
        assert [product.taylor_coeff(k) for k in range(4)] == [0, 0, 1, 1]

    def test_sub(self, kind):
        jet = JET_KINDS[kind]
        assert (jet(0, [3, 2, 1]) - jet(0, [1, 2, 3])).coefficients() \
            == [2, 0, -2]


@pytest.mark.parametrize("kind", JET_KINDS)
class TestLaurentDivision:
    def test_cubic_over_quadratic(self, kind):
        # the germ of x^3/(x^2+y^2) along the diagonal arc
        jet = JET_KINDS[kind]
        q = jet(3, [1, 0, 0, 0], 6) / jet(2, [2, 0, 0, 0], 5)
        assert q.valuation == 1
        assert q.coefficients()[0] == F(1, 2)
        assert all(c == 0 for c in q.coefficients()[1:])

    def test_reciprocal_square(self, kind):
        jet = JET_KINDS[kind]
        q = jet(0, [1, 0, 0, 0, 0], 4) / jet(2, [1, 0, 0], 4)
        assert q.valuation == -2
        assert q.coefficients()[0] == 1

    def test_factor_cancellation(self, kind):
        jet = JET_KINDS[kind]
        q = jet(2, [1, 1, 0], 4) / jet(2, [1, 0, 0], 4)
        assert q.valuation == 0
        assert q.coefficients()[:2] == [1, 1]

    def test_zero_divisor(self, kind):
        jet = JET_KINDS[kind]
        with pytest.raises(ZeroDivisor):
            jet(0, [1, 0, 0, 0, 0], 4) / jet(5, [], 4)

    def test_taylor_jets_divide_to_a_laurent_jet(self, kind):
        jet = JET_KINDS[kind]
        q = jet(0, [0, 0, 0, 1]) / jet(0, [0, 0, 2, 0])
        assert q.valuation == 1
        assert q.coefficients()[0] == F(1, 2)

    def test_zero_numerator(self, kind):
        jet = JET_KINDS[kind]
        q = jet(7, [], 6) / jet(2, [1, 0, 0], 4)
        assert q.is_zero
        assert q.order == 4


@pytest.mark.parametrize("kind", JET_KINDS)
class TestSqrt:
    def test_perfect_square(self, kind):
        r = jet_sqrt(JET_KINDS[kind](0, [1, 2, 1], 2))
        assert r.valuation == 0
        assert r.coefficients() == [1, 1, 0]

    def test_scaled_quartic(self, kind):
        # sqrt(2 t^4): oracle is squaring the result
        a = JET_KINDS[kind](4, [2, 0, 0], 6)
        r = jet_sqrt(a)
        assert isinstance(r, LaneJet) and r.lanes == 1
        assert r.valuation == 2
        assert abs(r.coefficients()[0] - math.sqrt(2)) < 1e-15
        assert jets_agree(laurent_of(r * r), laurent_of(a), tol=1e-12)

    def test_odd_valuation(self, kind):
        with pytest.raises(OddValuation, match="leading exponent 3 is odd"):
            jet_sqrt(JET_KINDS[kind](3, [1, 0], 4))

    def test_negative_leading(self, kind):
        with pytest.raises(NegativeLeading, match="leading coefficient -1"):
            jet_sqrt(JET_KINDS[kind](0, [-1, 0], 1))

    def test_zero_jet(self, kind):
        assert jet_sqrt(JET_KINDS[kind](7, [], 6)).is_zero


@pytest.mark.parametrize("kind", JET_KINDS)
class TestDeriveCoeff:
    def test_linear_coefficient(self, kind):
        a = JET_KINDS[kind](1, [F(1, 2), 0, 0], 3)
        assert a.taylor_coeff(1) == F(1, 2)

    def test_zero_odd_coefficient(self, kind):
        assert JET_KINDS[kind](0, [1, 0, -1]).taylor_coeff(1) == 0

    def test_pole_raises(self, kind):
        with pytest.raises(PoleAtOrigin):
            JET_KINDS[kind](-2, [1, 0, 0], 0).taylor_coeff(0)

    def test_beyond_window(self, kind):
        with pytest.raises(ShortWindow):
            JET_KINDS[kind](0, [1, 2]).taylor_coeff(5)


class TestRingLaws:
    """Ring laws on random exact jets of order <= 12, and float division
    and square roots within round-off."""

    def test_commutativity_and_associativity(self):
        rng = random.Random(101)
        for _ in range(150):
            order = rng.randint(2, 12)
            a, b, c = (rational_of(random_laurent(rng, order))
                       for _ in range(3))
            assert laurent_of(a * b) == laurent_of(b * a)
            assert laurent_of(a + b) == laurent_of(b + a)
            assert jets_agree(laurent_of((a * b) * c),
                              laurent_of(a * (b * c)))
            assert jets_agree(laurent_of((a + b) + c),
                              laurent_of(a + (b + c)))

    def test_distributivity(self):
        rng = random.Random(202)
        for _ in range(150):
            order = rng.randint(2, 12)
            a, b, c = (rational_of(random_laurent(rng, order))
                       for _ in range(3))
            assert jets_agree(laurent_of(a * (b + c)),
                              laurent_of(a * b + a * c))

    def test_division_roundtrip_exact(self):
        rng = random.Random(303)
        for _ in range(150):
            order = rng.randint(2, 12)
            a = rational_of(random_laurent(rng, order))
            b = rational_of(random_laurent(rng, order))
            assert jets_agree(laurent_of((a / b) * b), laurent_of(a))

    def test_division_roundtrip_float(self):
        # relative to the roundtrip's own magnitude: the quotient recurrence
        # can amplify coefficients geometrically before the multiply cancels
        rng = random.Random(404)
        for _ in range(150):
            order = rng.randint(2, 12)
            a = lane_of(random_laurent(rng, order, exact=False))
            b = lane_of(random_laurent(rng, order, exact=False))
            q = laurent_of(a / b)
            scale = (1.0 + coeff_norm(q)) * (1.0 + coeff_norm(laurent_of(b)))
            assert jets_agree(laurent_of((a / b) * b), laurent_of(a),
                              tol=1e-12, scale=scale)

    @pytest.mark.parametrize("kind", JET_KINDS)
    def test_sqrt_roundtrip(self, kind):
        rng = random.Random(505)
        for _ in range(100):
            order = rng.randint(2, 12)
            a = random_laurent(rng, order, min_val=0)
            # even valuation, positive leading coefficient
            a = rational_of(a * a) if kind == "exact" else lane_of(a * a)
            r = jet_sqrt(a)
            assert jets_agree(laurent_of(r * r), laurent_of(a), tol=1e-12)


class TestLeibnizConsistency:
    def test_product_derivative_matches_finite_differences(self):
        # the jet product encodes the Leibniz convolution; cross-check the degree-exact
        # product against numeric derivatives of the evaluated polynomials.
        rng = random.Random(606)
        for _ in range(40):
            da, db = rng.randint(1, 4), rng.randint(1, 4)
            order = da + db + 2
            a = random_poly_jet(rng, order, da, exact=False)
            b = random_poly_jet(rng, order, db, exact=False)
            c = laurent_of(lane_of(a) * lane_of(b))
            c_prime = LaurentJet(
                0, [(i + 1) * c.coeff(i + 1) for i in range(c.order)],
                c.order - 1)
            for _ in range(5):
                t = rng.uniform(-0.5, 0.5)
                h = 1e-6
                numeric = (eval_poly(a, t + h) * eval_poly(b, t + h)
                           - eval_poly(a, t - h) * eval_poly(b, t - h)) / (2 * h)
                assert abs(eval_poly(c_prime, t) - numeric) \
                    < 1e-8 * (1 + abs(numeric))


@pytest.mark.parametrize("kind", JET_KINDS)
class TestNormalization:
    def test_zero_jet_canonical_window(self, kind):
        z = JET_KINDS[kind](0, [0, 0, 0], 2)
        assert z.is_zero
        assert z.valuation == 3  # order + 1, the canonical empty window

    def test_leading_zero_stripped(self, kind):
        a = JET_KINDS[kind](0, [0, 1, 2], 2)
        assert a.valuation == 1
        assert a.coefficients() == [1, 2]


# --- RationalJet ------------------------------------------------------------------

ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


def outcome(fn):
    """What fn() gives: the jet bit for bit, or its exception type and message."""
    try:
        jet = fn()
    except Exception as exc:
        return type(exc), str(exc)
    return bits(jet if isinstance(jet, LaurentJet) else laurent_of(jet))


def bits(jet: LaurentJet) -> tuple:
    """A LaurentJet's window and exact coefficients (floats as hex)."""
    return (jet.valuation, jet.order,
            tuple(c.hex() if isinstance(c, float) else Fraction(c)
                  for c in jet.coeffs))


@st.composite
def fraction_jets(draw):
    """Exact LaurentJets: valuation -2..3, order 0..10, zero jets included."""
    order = draw(st.integers(0, 10))
    valuation = draw(st.integers(-2, min(3, order + 1)))
    coeffs = draw(st.lists(
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
        min_size=order - valuation + 1, max_size=order - valuation + 1))
    if draw(st.booleans()):
        # a polynomial in t: trailing zeros, as along straight lines
        cut = draw(st.integers(1, len(coeffs) or 1))
        coeffs = coeffs[:cut] + [Fraction(0)] * (len(coeffs) - cut)
    return LaurentJet(valuation, coeffs, order)


class TestRationalJet:
    @settings(max_examples=400, deadline=None)
    @given(fraction_jets(), fraction_jets(), st.integers(0, 4),
           st.booleans())
    def test_agrees_with_fraction_laurent_jets(self, a, b, exponent, square):
        ra, rb = rational_of(a), rational_of(b)
        assert bits(laurent_of(ra)) == bits(a)
        for op in ARITHMETIC:
            assert outcome(lambda: op(ra, rb)) == outcome(lambda: op(a, b)), op
        assert outcome(lambda: ra.pow_int(exponent)) \
            == outcome(lambda: a.pow_int(exponent, one=F(1)))
        # results feed later operations: a quotient's square root
        assert outcome(lambda: jet_sqrt(ra / rb)) \
            == outcome(lambda: (a / b).sqrt())
        radicand = a * a if square else a
        assert outcome(lambda: jet_sqrt(rational_of(radicand))) \
            == outcome(lambda: radicand.sqrt())

    def test_normalised_form(self):
        def fields(jet):
            return jet.valuation, jet.nums.tolist(), jet.den.tolist()
        a = exact(0, [F(2, 3), F(4, 3)], 1)
        assert fields(a) == (0, [[2], [4]], [3])
        b = exact(0, [F(1, 3), F(2, 3)], 1)
        assert fields(a + b) == (0, [[1], [2]], [1])
        diff = a - a
        assert diff.is_zero and fields(diff) == (2, [], [1])
        # the quotient's denominator starts as 1 * (-2)^3: its sign moves up
        q = RationalJet.constant(F(1), 1, 2) / RationalJet.constant(F(-2), 1, 2)
        assert fields(q) == (0, [[-1], [0], [0]], [2])
        # each lane reduces on its own
        lanes = rational_of(LaurentJet(0, [F(2, 3), F(4, 3)], 1),
                            LaurentJet(0, [F(1, 2), F(-5, 6)], 1))
        assert fields(lanes + lanes) == (0, [[4, 3], [8, -5]], [3, 3])
        assert fields(lanes * lanes) == (0, [[4, 3], [16, -10]], [9, 12])
        assert fields(lanes - lanes) == (2, [], [1, 1])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda lanes: st.tuples(
        st.lists(st.integers(-12, 12).filter(bool), min_size=lanes,
                 max_size=lanes),
        st.lists(st.lists(st.integers(-12, 12), min_size=lanes,
                          max_size=lanes), max_size=3),
        st.lists(st.integers(1, 36), min_size=lanes, max_size=lanes))))
    def test_reduction_divides_by_each_lanes_full_gcd(self, fields):
        # the lead row's gcd with den decides first; the normal form is
        # the one the gcd of den and every row gives
        lead, rest, den = fields
        nums = np.array([lead, *rest], dtype=object)
        den = np.array(den, dtype=object)
        g = np.gcd(np.gcd.reduce(nums, axis=0), den)
        jet = RationalJet._reduced(1, nums, den, 4)
        assert (jet.valuation, jet.nums.tolist(), jet.den.tolist()) \
            == (1, (nums // g).tolist(), (den // g).tolist())

    def test_taylor_coeff_is_always_a_fraction(self):
        jet = exact(2, [F(3), 0], 3)
        values = [jet.taylor_coeff(k) for k in range(4)]
        assert values == [0, 0, 3, 0]
        assert all(type(c) is Fraction for c in values)
        with pytest.raises(ShortWindow, match="beyond retained order 3"):
            jet.taylor_coeff(4)
        pole = exact(-1, [F(1)], -1)
        with pytest.raises(PoleAtOrigin):
            pole.taylor_coeff(0)

    def test_sqrt_errors_keep_their_messages(self):
        negative = exact(0, [F(-3, 4), 1], 1)
        with pytest.raises(NegativeLeading,
                           match="leading coefficient -3/4 is negative"):
            negative.sqrt()
        with pytest.raises(OddValuation, match="leading exponent 1 is odd"):
            exact(1, [F(4)], 1).sqrt()

    def test_sqrt_of_a_non_square_lead_degrades_to_floats(self):
        root = exact(0, [F(2), F(1)], 1).sqrt()
        assert isinstance(root, LaneJet) and root.lanes == 1
        assert root.coefficients() == [math.sqrt(2), 1 / (2 * math.sqrt(2))]

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_operands_give_the_laurent_result(self, seed):
        # A RationalJet meeting a one-lane LaneJet gives what its Fraction
        # coefficients give: exact until a float reaches a coefficient.
        rng = random.Random(seed)
        for _ in range(50):
            order = rng.randint(0, 10)
            fractions = random_laurent(rng, order, min_val=-2)
            other = random_laurent(rng, rng.randint(0, 10), min_val=-2,
                                   exact=rng.random() < 0.3)
            rational, lanes = rational_of(fractions), lane_of(other)
            for op in ARITHMETIC:
                assert outcome(lambda: op(rational, lanes)) \
                    == outcome(lambda: op(fractions, other)), op
                assert outcome(lambda: op(lanes, rational)) \
                    == outcome(lambda: op(other, fractions)), op
            # the zeroth power of a zero jet is the evaluator's exact 1
            for result in [op(rational, lanes) for op in ARITHMETIC[:3]]:
                assert outcome(lambda: result.pow_int(0)) == outcome(
                    lambda: laurent_of(result).pow_int(0, one=F(1)))

    @pytest.mark.parametrize("window", [1, 2])
    def test_mixed_operands_round_only_what_they_read(self, window):
        # 10^400 t^2 leaves the float range.  With a float operand whose
        # window ends at t^1, no operation reads it, and each gives what
        # the Fraction coefficients give; with one ending at t^2, all do.
        big = F(10 ** 400)
        fractions = LaurentJet(0, [F(1, 3), F(-2), big], 2)
        other = LaurentJet(0, [0.5, 1.5, -0.25][:window + 1], window)
        rational, lanes = rational_of(fractions), lane_of(other)
        for op in ARITHMETIC:
            assert outcome(lambda: op(rational, lanes)) \
                == outcome(lambda: op(fractions, other)), op
            assert outcome(lambda: op(lanes, rational)) \
                == outcome(lambda: op(other, fractions)), op
        assert (outcome(lambda: rational + lanes)[0] is OverflowError) \
            == (window == 2)


def _exact_points():
    """Every corpus exact-locus and regular point at k_max 8, and two
    regular points at k_max 10."""
    cases = [(entry.name, tuple(p), 8) for entry in corpus_list()
             for p in entry.exact_locus_points + entry.regular_points]
    return cases + [("E5", (1, 0, 0), 10), ("E6", (Fraction(1, 2), 0, 0), 10)]


@pytest.mark.parametrize("name, point, k_max", _exact_points())
def test_exact_series_equal_the_fraction_path(name, point, k_max):
    e = lookup(name).expr()
    order = default_order(k_max)
    for v in canonical_design(e.nvars).rows(2 * dim_homog(e.nvars, k_max)):
        assert outcome(lambda: _series(e, point, v, order, True)) \
            == outcome(lambda: fraction_gateaux_series(e, point, v, order)), v
