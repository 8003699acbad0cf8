"""Jet arithmetic: examples, error cases, and ring-law properties."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcan.classify import _series, default_order
from arcan.corpus import corpus_list, lookup
from arcan.errors import NegativeLeading, OddValuation, PoleAtOrigin, \
    ShortWindow, ZeroDivisor
from arcan.homog import canonical_design, dim_homog
from arcan.jets import LaurentJet, RationalJet, jet_sqrt

from helpers import coeff_norm, eval_poly, fraction_gateaux_series, \
    jets_agree, random_laurent, random_poly_jet

F = Fraction


def taylor(*coeffs):
    """The jet of a polynomial in t, known up to t^(len(coeffs) - 1)."""
    return LaurentJet(0, coeffs, len(coeffs) - 1)


class TestJetBasics:
    def test_mul_telescopes(self):
        assert (taylor(1, 1, 0) * taylor(1, -1, 0)).coeffs == (1, 0, -1)

    def test_add_constant(self):
        assert (taylor(1, 1, 0) + taylor(1, -1, 0)).coeffs == (2, 0, 0)

    def test_monomial_shift(self):
        product = taylor(0, 1, 1, 0) * taylor(0, 1, 0, 0)
        assert [product.taylor_coeff(k) for k in range(4)] == [0, 0, 1, 1]

    def test_sub(self):
        assert (taylor(3, 2, 1) - taylor(1, 2, 3)).coeffs == (2, 0, -2)


class TestLaurentDivision:
    def test_cubic_over_quadratic(self):
        # the germ of x^3/(x^2+y^2) along the diagonal arc
        num = LaurentJet(3, [F(1), 0, 0, 0], 6)
        den = LaurentJet(2, [F(2), 0, 0, 0], 5)
        q = num / den
        assert q.valuation == 1
        assert q.coeffs[0] == F(1, 2)
        assert all(c == 0 for c in q.coeffs[1:])

    def test_reciprocal_square(self):
        one = LaurentJet.constant(F(1), 4)
        q = one / LaurentJet(2, [F(1), 0, 0], 4)
        assert q.valuation == -2
        assert q.coeffs[0] == 1

    def test_factor_cancellation(self):
        num = LaurentJet(2, [F(1), F(1), 0], 4)
        q = num / LaurentJet(2, [F(1), 0, 0], 4)
        assert q.valuation == 0
        assert q.coeffs[:2] == (1, 1)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            LaurentJet.constant(F(1), 4) / LaurentJet.zero(4)

    def test_taylor_jets_divide_to_a_laurent_jet(self):
        q = taylor(0, 0, 0, 1) / taylor(0, 0, 2, 0)
        assert q.valuation == 1
        assert q.coeffs[0] == F(1, 2)

    def test_zero_numerator(self):
        q = LaurentJet.zero(6) / LaurentJet(2, [F(1), 0, 0], 4)
        assert q.is_zero
        assert q.order == 4


class TestSqrt:
    def test_perfect_square(self):
        r = jet_sqrt(LaurentJet(0, [F(1), F(2), F(1)], 2))
        assert r.valuation == 0
        assert r.coeffs == (1, 1, 0)

    def test_scaled_quartic(self):
        # sqrt(2 t^4): oracle is squaring the result
        a = LaurentJet(4, [2.0, 0.0, 0.0], 6)
        r = jet_sqrt(a)
        assert r.valuation == 2
        assert abs(r.coeffs[0] - math.sqrt(2)) < 1e-15
        assert jets_agree(r * r, a, tol=1e-12)

    def test_odd_valuation(self):
        with pytest.raises(OddValuation):
            jet_sqrt(LaurentJet(3, [F(1), 0], 4))

    def test_negative_leading(self):
        with pytest.raises(NegativeLeading):
            jet_sqrt(LaurentJet(0, [F(-1), 0], 1))

    def test_zero_jet(self):
        assert jet_sqrt(LaurentJet.zero(6)).is_zero


class TestDeriveCoeff:
    def test_linear_coefficient(self):
        a = LaurentJet(1, [F(1, 2), 0, 0], 3)
        assert a.taylor_coeff(1) == F(1, 2)

    def test_zero_odd_coefficient(self):
        assert taylor(1, 0, -1).taylor_coeff(1) == 0

    def test_pole_raises(self):
        with pytest.raises(PoleAtOrigin):
            LaurentJet(-2, [F(1), 0, 0], 0).taylor_coeff(0)

    def test_beyond_window(self):
        with pytest.raises(ShortWindow):
            taylor(1, 2).taylor_coeff(5)


class TestRingLaws:
    """Exact ring laws on random rational jets of order <= 12."""

    def test_commutativity_and_associativity(self):
        rng = random.Random(101)
        for _ in range(150):
            order = rng.randint(2, 12)
            a = random_laurent(rng, order)
            b = random_laurent(rng, order)
            c = random_laurent(rng, order)
            assert a * b == b * a
            assert a + b == b + a
            assert jets_agree((a * b) * c, a * (b * c))
            assert jets_agree((a + b) + c, a + (b + c))

    def test_distributivity(self):
        rng = random.Random(202)
        for _ in range(150):
            order = rng.randint(2, 12)
            a = random_laurent(rng, order)
            b = random_laurent(rng, order)
            c = random_laurent(rng, order)
            assert jets_agree(a * (b + c), a * b + a * c)

    def test_division_roundtrip_exact(self):
        rng = random.Random(303)
        for _ in range(150):
            order = rng.randint(2, 12)
            a = random_laurent(rng, order)
            b = random_laurent(rng, order)
            assert jets_agree((a / b) * b, a)

    def test_division_roundtrip_float(self):
        # relative to the roundtrip's own magnitude: the quotient recurrence
        # can amplify coefficients geometrically before the multiply cancels
        rng = random.Random(404)
        for _ in range(150):
            order = rng.randint(2, 12)
            a = random_laurent(rng, order, exact=False)
            b = random_laurent(rng, order, exact=False)
            q = a / b
            scale = (1.0 + coeff_norm(q)) * (1.0 + coeff_norm(b))
            assert jets_agree(q * b, a, tol=1e-12, scale=scale)

    def test_sqrt_roundtrip(self):
        rng = random.Random(505)
        for _ in range(100):
            order = rng.randint(2, 12)
            a = random_laurent(rng, order, min_val=0)
            a = a * a  # even valuation, positive leading coefficient
            r = jet_sqrt(a)
            assert jets_agree(r * r, a, tol=1e-12)


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
            c = a * b
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


class TestNormalization:
    def test_zero_jet_canonical_window(self):
        z = LaurentJet(0, [0, 0, 0], 2)
        assert z.is_zero
        assert z.valuation == 3  # order + 1, the canonical empty window

    def test_leading_zero_stripped(self):
        a = LaurentJet(0, [0, F(1), F(2)], 2)
        assert a.valuation == 1
        assert a.coeffs == (1, 2)

    def test_immutable(self):
        a = LaurentJet(0, [F(1)], 0)
        with pytest.raises(AttributeError):
            a.valuation = 3


# --- RationalJet ------------------------------------------------------------------

ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


def outcome(fn):
    """What fn() gives: the jet bit for bit, or its exception type and message."""
    try:
        jet = fn()
    except Exception as exc:
        return type(exc), str(exc)
    return bits(jet.to_laurent())


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
        ra, rb = RationalJet.from_laurent(a), RationalJet.from_laurent(b)
        assert bits(ra.to_laurent()) == bits(a)
        for op in ARITHMETIC:
            assert outcome(lambda: op(ra, rb)) == outcome(lambda: op(a, b)), op
        assert outcome(lambda: ra.pow_int(exponent)) \
            == outcome(lambda: a.pow_int(exponent,
                                         lambda c: LaurentJet.constant(c, 0)))
        # results feed later operations: a quotient's square root
        assert outcome(lambda: jet_sqrt(ra / rb)) \
            == outcome(lambda: jet_sqrt(a / b))
        radicand = a * a if square else a
        assert outcome(lambda: jet_sqrt(RationalJet.from_laurent(radicand))) \
            == outcome(lambda: jet_sqrt(radicand))

    def test_normalised_form(self):
        a = RationalJet.from_laurent(LaurentJet(0, [F(2, 3), F(4, 3)], 1))
        assert (a.nums, a.den) == ([2, 4], 3)
        b = RationalJet.from_laurent(LaurentJet(0, [F(1, 3), F(2, 3)], 1))
        total = a + b
        assert (total.valuation, total.nums, total.den) == (0, [1, 2], 1)
        diff = a - a
        assert diff.is_zero and (diff.valuation, diff.den) == (2, 1)
        # the quotient's denominator starts as 1 * (-2)^3: its sign moves up
        q = RationalJet.constant(F(1), 2) / RationalJet.constant(F(-2), 2)
        assert (q.nums, q.den) == ([-1, 0, 0], 2)

    def test_taylor_coeff_is_always_a_fraction(self):
        jet = RationalJet.from_laurent(LaurentJet(2, [F(3), 0], 3))
        values = [jet.taylor_coeff(k) for k in range(4)]
        assert values == [0, 0, 3, 0]
        assert all(type(c) is Fraction for c in values)
        with pytest.raises(ShortWindow, match="beyond retained order 3"):
            jet.taylor_coeff(4)
        pole = RationalJet.from_laurent(LaurentJet(-1, [F(1)], -1))
        with pytest.raises(PoleAtOrigin):
            pole.taylor_coeff(0)

    def test_sqrt_errors_keep_their_messages(self):
        negative = RationalJet.from_laurent(LaurentJet(0, [F(-3, 4), 1], 1))
        with pytest.raises(NegativeLeading,
                           match="leading coefficient -3/4 is negative"):
            negative.sqrt()
        with pytest.raises(OddValuation, match="leading exponent 1 is odd"):
            RationalJet.from_laurent(LaurentJet(1, [F(4)], 1)).sqrt()

    def test_sqrt_of_a_non_square_lead_degrades_to_floats(self):
        root = RationalJet.from_laurent(LaurentJet(0, [F(2), F(1)], 1)).sqrt()
        assert isinstance(root, LaurentJet)
        assert root.coeffs[0] == math.sqrt(2)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_operands_give_the_laurent_result(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            order = rng.randint(0, 10)
            exact = random_laurent(rng, order, min_val=-2)
            other = random_laurent(rng, rng.randint(0, 10), min_val=-2,
                                   exact=rng.random() < 0.3)
            rational = RationalJet.from_laurent(exact)
            for op in ARITHMETIC:
                assert outcome(lambda: op(rational, other)) \
                    == outcome(lambda: op(exact, other)), op
                assert outcome(lambda: op(other, rational)) \
                    == outcome(lambda: op(other, exact)), op


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
        assert outcome(lambda: _series(e, point, v, order, True).to_laurent()) \
            == outcome(lambda: fraction_gateaux_series(e, point, v, order)), v
