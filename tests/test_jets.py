"""Jet arithmetic: examples, error cases, and ring-law properties."""

import math
import random
from fractions import Fraction

import pytest

from arcan.errors import NegativeLeading, OddValuation, PoleAtOrigin, ZeroDivisor
from arcan.jets import LaurentJet, jet_sqrt

from helpers import coeff_norm, jets_agree, random_laurent, random_poly_jet

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
        with pytest.raises(ValueError):
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
                numeric = (a.eval_poly(t + h) * b.eval_poly(t + h)
                           - a.eval_poly(t - h) * b.eval_poly(t - h)) / (2 * h)
                assert abs(c_prime.eval_poly(t) - numeric) < 1e-8 * (1 + abs(numeric))


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
