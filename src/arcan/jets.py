"""Truncated power-series and Laurent-series arithmetic in one variable.

A jet stores finitely many coefficients of a series around t = 0 together
with the highest exponent that is still trustworthy (the window).  Every
operation propagates windows conservatively, so any coefficient read out of
a jet is one the arithmetic actually determined.

`LaurentJet` holds float or exact (`int`/`fractions.Fraction`)
coefficients; the two interoperate, and operations on exact inputs stay
exact unless a square root forces an irrational leading coefficient.  It
admits a negative valuation, which encodes a pole at t = 0 of the composed
function along an arc; `taylor_coeff` reads a pole-free jet's
coefficients.  `RationalJet` is the exact jet the evaluator runs on:
integer numerators over one positive denominator, reduced once per
operation instead of once per coefficient (fraction-free, as in
Bareiss's elimination).  Where its square root meets a lead that is not a
rational square it hands over a `LaurentJet`, and from there on the
evaluation takes `LaurentJet`'s mixed `Fraction`/float path.  `LaneJet`
holds the float jets of many arcs ("lanes") that share one valuation and
order, as one numpy array, and reproduces `LaurentJet`'s float arithmetic
lane by lane, bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import Sequence, Union

import numpy as np

from .errors import IrregularBatch, NegativeLeading, OddValuation, PoleAtOrigin, \
    ShortWindow, ZeroDivisor

Scalar = Union[int, float, Fraction]


def _exact_div(a: Scalar, b: Scalar) -> Scalar:
    # int/int must stay exact; everything else already promotes correctly.
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def sqrt_scalar(x: Scalar) -> Scalar:
    """Square root that stays exact when it can.

    Fractions whose numerator and denominator are perfect squares come back
    as Fractions; anything else degrades to a float.  The caller checks the
    sign first.
    """
    if isinstance(x, float):
        return math.sqrt(x)
    f = Fraction(x)
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return math.sqrt(float(f))


class LaurentJet:
    """Finitely many series coefficients starting at exponent `valuation`.

    Normalized form: the coefficient at t^valuation is nonzero, except for
    the zero jet, which is stored with an empty coefficient tuple and
    valuation = order + 1 (an empty window of known zeros).
    """

    __slots__ = ("valuation", "order", "coeffs")

    def __init__(self, valuation: int, coeffs: Sequence[Scalar], order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = valuation + len(coeffs) - 1
        if valuation + len(coeffs) - 1 != order:
            raise ValueError("coefficient count does not match valuation/order")
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            valuation += 1
        if not coeffs:
            valuation = order + 1
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentJet is immutable")

    def __reduce__(self):
        return (LaurentJet, (self.valuation, self.coeffs, self.order))

    # --- constructors -------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "LaurentJet":
        return LaurentJet(order + 1, (), order)

    @staticmethod
    def constant(value: Scalar, order: int) -> "LaurentJet":
        """The constant `value`; a window ending below t^0 holds only zeros."""
        if value == 0 or order < 0:
            return LaurentJet.zero(order)
        return LaurentJet(0, (value,) + (0,) * order, order)

    # --- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Scalar:
        """Coefficient of t^k; raises if k lies beyond the trusted window."""
        if k > self.order:
            raise ShortWindow(f"coefficient {k} beyond retained order {self.order}")
        if k < self.valuation:
            return 0
        return self.coeffs[k - self.valuation]

    def taylor_coeff(self, k: int) -> Scalar:
        """Coefficient of t^k of a pole-free jet (the k-th scaled derivative)."""
        if not self.is_zero and self.valuation < 0:
            raise PoleAtOrigin(f"series has a pole of order {-self.valuation} at t=0")
        return self.coeff(k)

    def to_laurent(self) -> "LaurentJet":
        """The jet itself, so that either kind converts with `to_laurent()`."""
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentJet):
            return NotImplemented
        return (self.valuation, self.order, self.coeffs) == (
            other.valuation, other.order, other.coeffs)

    def __hash__(self):
        return hash((self.valuation, self.order, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"LaurentJet(O(t^{self.order + 1}))"
        terms = " + ".join(
            f"{c}*t^{self.valuation + i}" for i, c in enumerate(self.coeffs) if c != 0)
        return f"LaurentJet({terms} + O(t^{self.order + 1}))"

    # --- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "LaurentJet":
        return LaurentJet(self.valuation, tuple(-c for c in self.coeffs), self.order)

    def __add__(self, other: "LaurentJet") -> "LaurentJet":
        if not isinstance(other, LaurentJet):
            return NotImplemented
        k = min(self.order, other.order)
        if self.is_zero and other.is_zero:
            return LaurentJet.zero(k)
        lo = min(self.valuation, other.valuation)
        if lo > k:
            return LaurentJet.zero(k)
        acc = [0] * (k - lo + 1)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                e = src.valuation + i
                if e <= k:
                    acc[e - lo] += c
        return LaurentJet(lo, acc, k)

    def __sub__(self, other: "LaurentJet") -> "LaurentJet":
        if not isinstance(other, LaurentJet):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentJet") -> "LaurentJet":
        if not isinstance(other, LaurentJet):
            return NotImplemented
        # The factor known to O(t^{order+1}) times the other's leading power
        # bounds the trusted window of the product.
        if self.is_zero or other.is_zero:
            order = min(self.order + other.valuation, other.order + self.valuation)
            return LaurentJet.zero(order)
        rel = min(self.order - self.valuation, other.order - other.valuation)
        a, b = self.coeffs, other.coeffs
        out = [0] * (rel + 1)
        for i in range(min(len(a), rel + 1)):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(min(len(b), rel + 1 - i)):
                out[i + j] += ai * b[j]
        v = self.valuation + other.valuation
        return LaurentJet(v, out, v + rel)

    def __truediv__(self, other: "LaurentJet") -> "LaurentJet":
        if not isinstance(other, LaurentJet):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisor(
                "every retained coefficient of the divisor is zero "
                f"(window O(t^{other.order + 1}))")
        if self.is_zero:
            return LaurentJet.zero(self.order - other.valuation)
        rel = min(self.order - self.valuation, other.order - other.valuation)
        a, b = self.coeffs, other.coeffs
        lead = b[0]
        q = [0] * (rel + 1)
        for i in range(rel + 1):
            acc = a[i] if i < len(a) else 0
            for j in range(1, min(i, len(b) - 1) + 1):
                acc -= b[j] * q[i - j]
            q[i] = _exact_div(acc, lead)
        v = self.valuation - other.valuation
        return LaurentJet(v, q, v + rel)

    def pow_int(self, exponent: int, constant) -> "LaurentJet":
        """self ** exponent; `constant` is the evaluator's constant builder,
        whose 1 a zero base raises to the 0th power (a zero jet cannot tell
        float from exact)."""
        if exponent < 0:
            raise ValueError("negative exponents go through division")
        if exponent == 0:
            # The constant 1 in the kind of the base's lead, in the base's
            # window; a pole's window ends below t^0, so it keeps the base's
            # relative precision instead, and may still end below t^0.
            one = self.coeffs[0] ** 0 if self.coeffs \
                else constant(1).taylor_coeff(0)
            return LaurentJet.constant(
                one, max(self.order, self.order - self.valuation))
        return _power(self, exponent)


def _power(base, exponent: int):
    """base ** exponent (exponent >= 1) by repeated squaring, in any jet kind."""
    result = None
    e = exponent
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return result


def jet_sqrt(a: "LaurentJet | RationalJet") -> "LaurentJet | RationalJet":
    """Series square root with positive leading coefficient.

    Requires an even valuation and a strictly positive leading coefficient;
    either failure means the arc left the region where the function admits a
    real series.  A `RationalJet` takes its own exact recurrence.
    """
    if isinstance(a, RationalJet):
        return a.sqrt()
    if a.is_zero:
        return LaurentJet.zero(a.order // 2)
    if a.valuation % 2 != 0:
        raise OddValuation(f"leading exponent {a.valuation} is odd")
    lead = a.coeffs[0]
    if lead < 0:
        raise NegativeLeading(f"leading coefficient {lead} is negative")
    rel = a.order - a.valuation
    r0 = sqrt_scalar(lead)
    out = [r0] + [0] * rel
    for i in range(1, rel + 1):
        acc = a.coeffs[i] if i < len(a.coeffs) else 0
        for j in range(1, i):
            acc -= out[j] * out[i - j]
        out[i] = _exact_div(acc, 2 * r0)
    v = a.valuation // 2
    return LaurentJet(v, out, v + rel)


def _support(nums: list[int], rel: int) -> int:
    """Length of nums[:rel + 1] without its trailing zeros (nums[0] != 0)."""
    n = min(len(nums), rel + 1)
    while not nums[n - 1]:
        n -= 1
    return n


class RationalJet:
    """An exact Laurent jet: integer numerators over one denominator.

    Coefficient i, of t^(valuation + i), is nums[i] / den.  Normalised
    form: den > 0, gcd(den, *nums) == 1 and nums[0] != 0, except for the
    zero jet, which has no numerators, den 1 and valuation order + 1, as
    in `LaurentJet`.  Each operation runs an integer recurrence and reduces
    its result once (one `math.gcd` call), where `Fraction` coefficients
    would reduce every product and sum.  Windows, valuations and errors
    (types and messages) are `LaurentJet`'s, so `to_laurent()` of a result
    equals the `LaurentJet` computed from equal `Fraction` inputs.  An
    operation with a `LaurentJet` operand converts this jet with
    `to_laurent()` first and returns the `LaurentJet` result.
    """

    __slots__ = ("valuation", "order", "nums", "den")

    def __init__(self, valuation: int, nums: list[int], den: int, order: int):
        """Takes normalised fields as they are; see `_reduced`."""
        self.valuation = valuation
        self.order = order
        self.nums = nums
        self.den = den

    @staticmethod
    def _reduced(valuation: int, nums: list[int], den: int,
                 order: int) -> "RationalJet":
        """The normalised jet of nums / den (den nonzero, either sign)."""
        lead = 0
        while lead < len(nums) and not nums[lead]:
            lead += 1
        if lead == len(nums):
            return RationalJet.zero(order)
        if lead:
            nums = nums[lead:]
            valuation += lead
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        return RationalJet(valuation, nums, den, order)

    # --- constructors and conversion ----------------------------------------

    @staticmethod
    def zero(order: int) -> "RationalJet":
        return RationalJet(order + 1, [], 1, order)

    @staticmethod
    def constant(value: int | Fraction, order: int) -> "RationalJet":
        if value == 0 or order < 0:  # as in LaurentJet.constant
            return RationalJet.zero(order)
        value = Fraction(value)
        return RationalJet(0, [value.numerator] + [0] * order,
                           value.denominator, order)

    @staticmethod
    def from_laurent(jet: LaurentJet) -> "RationalJet":
        """The jet of a `LaurentJet` whose coefficients are ints or Fractions."""
        if jet.is_zero:
            return RationalJet.zero(jet.order)
        den = math.lcm(*(c.denominator for c in jet.coeffs))
        return RationalJet(jet.valuation,
                           [c.numerator * (den // c.denominator)
                            for c in jet.coeffs], den, jet.order)

    def to_laurent(self) -> LaurentJet:
        """The same jet with `Fraction` coefficients."""
        den = self.den
        return LaurentJet(self.valuation, [Fraction(c, den) for c in self.nums],
                          self.order)

    # --- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def taylor_coeff(self, k: int) -> Fraction:
        """`LaurentJet.taylor_coeff`, always as a `Fraction`."""
        if self.nums and self.valuation < 0:
            raise PoleAtOrigin(f"series has a pole of order {-self.valuation} at t=0")
        if k > self.order:
            raise ShortWindow(f"coefficient {k} beyond retained order {self.order}")
        if k < self.valuation:
            return Fraction(0)
        return Fraction(self.nums[k - self.valuation], self.den)

    # --- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "RationalJet":
        return RationalJet(self.valuation, [-c for c in self.nums], self.den,
                           self.order)

    def _sum(self, other: "RationalJet", sign: int) -> "RationalJet":
        """self + sign * other over the lcm of the two denominators."""
        k = min(self.order, other.order)
        lo = min(self.valuation, other.valuation)
        if lo > k:
            return RationalJet.zero(k)
        g = math.gcd(self.den, other.den)
        acc = [0] * (k - lo + 1)
        for src, scale in ((self, other.den // g),
                           (other, sign * (self.den // g))):
            part = src.nums[:max(k - src.valuation + 1, 0)]
            if scale != 1:
                part = [c * scale for c in part]
            start = src.valuation - lo
            end = start + len(part)
            acc[start:end] = map(add, acc[start:end], part)
        return RationalJet._reduced(lo, acc, self.den // g * other.den, k)

    def __add__(self, other):
        if isinstance(other, RationalJet):
            return self._sum(other, 1)
        return self.to_laurent() + other

    def __sub__(self, other):
        if isinstance(other, RationalJet):
            return self._sum(other, -1)
        return self.to_laurent() - other

    def __mul__(self, other):
        if not isinstance(other, RationalJet):
            return self.to_laurent() * other
        if not self.nums or not other.nums:
            order = min(self.order + other.valuation, other.order + self.valuation)
            return RationalJet.zero(order)
        rel = min(self.order - self.valuation, other.order - other.valuation)
        a, b = self.nums, other.nums
        na, nb = _support(a, rel), _support(b, rel)
        if na > nb:
            a, b, na, nb = b, a, nb, na
        # Polynomial jets end in zeros: only the first na + nb - 1
        # coefficients can be nonzero, and only na terms of each.
        a = a[:na]
        top = min(na + nb - 1, rel + 1)
        out = [sum(map(mul, a[:i + 1], b[i::-1])) for i in range(top)]
        out += [0] * (rel + 1 - top)
        v = self.valuation + other.valuation
        return RationalJet._reduced(v, out, self.den * other.den, v + rel)

    def __truediv__(self, other):
        """Fraction-free long division.

        With b0 = B[0], Q_i = A_i b0^i - sum_{j=1..i} B_j b0^(j-1) Q_{i-j}
        and the quotient's coefficient i is Q_i db / (da b0^(i+1)), all put
        over the denominator da b0^(rel+1).
        """
        if not isinstance(other, RationalJet):
            return self.to_laurent() / other
        if not other.nums:
            raise ZeroDivisor(
                "every retained coefficient of the divisor is zero "
                f"(window O(t^{other.order + 1}))")
        if not self.nums:
            return RationalJet.zero(self.order - other.valuation)
        rel = min(self.order - self.valuation, other.order - other.valuation)
        a, b = self.nums, other.nums
        b0 = b[0]
        scaled = []          # B_j b0^(j-1), j = 1..rel, up to B's last nonzero
        power = 1
        for j in range(1, _support(b, rel)):
            scaled.append(b[j] * power)
            power *= b0
        q = []
        power = 1            # b0^i
        for i in range(rel + 1):
            q.append(a[i] * power - sum(map(mul, scaled[:i], q[::-1])))
            power *= b0
        nums = [0] * (rel + 1)
        shift = other.den    # db b0^(rel-i)
        for i in range(rel, -1, -1):
            nums[i] = q[i] * shift
            shift *= b0
        v = self.valuation - other.valuation
        return RationalJet._reduced(v, nums, self.den * power, v + rel)

    def __radd__(self, other):
        return other + self.to_laurent()

    def __rsub__(self, other):
        return other - self.to_laurent()

    def __rmul__(self, other):
        return other * self.to_laurent()

    def __rtruediv__(self, other):
        return other / self.to_laurent()

    def pow_int(self, exponent: int, constant=None) -> "RationalJet":
        if exponent < 0:
            raise ValueError("negative exponents go through division")
        if exponent == 0:  # in the window LaurentJet.pow_int gives
            return RationalJet.constant(
                1, max(self.order, self.order - self.valuation))
        return _power(self, exponent)

    def sqrt(self) -> "RationalJet | LaurentJet":
        """`jet_sqrt`, exact while the lead is the square of a rational.

        With a0 = A[0] = den (p/q)^2, U_i = A_i (4 a0)^(i-1) -
        sum_{j=1..i-1} U_j U_{i-j} and the root's coefficient i >= 1 is
        (p/q) U_i / (2^(2i-1) a0^i), which over the denominator
        q (4 a0)^rel has the numerator 2 p U_i (4 a0)^(rel-i).  Any other
        lead makes the root irrational: the result is then `jet_sqrt` of
        `to_laurent()`, whose coefficients are floats.
        """
        if not self.nums:
            return RationalJet.zero(self.order // 2)
        if self.valuation % 2 != 0:
            raise OddValuation(f"leading exponent {self.valuation} is odd")
        a = self.nums
        a0, den = a[0], self.den
        if a0 < 0:
            raise NegativeLeading(
                f"leading coefficient {Fraction(a0, den)} is negative")
        g = math.gcd(a0, den)
        p, q = math.isqrt(a0 // g), math.isqrt(den // g)
        if p * p * g != a0 or q * q * g != den:
            return jet_sqrt(self.to_laurent())
        rel = self.order - self.valuation
        four_a0 = 4 * a0
        u = [0]              # U_0 is not used
        power = 1            # (4 a0)^(i-1)
        for i in range(1, rel + 1):
            u.append(a[i] * power - sum(map(mul, u[1:i], u[i - 1:0:-1])))
            power *= four_a0
        nums = [p * power] + [0] * rel
        shift = 2 * p        # 2 p (4 a0)^(rel-i)
        for i in range(rel, 0, -1):
            nums[i] = u[i] * shift
            shift *= four_a0
        v = self.valuation // 2
        return RationalJet._reduced(v, nums, q * power, v + rel)


class LaneJet:
    """Float Laurent jets of several lanes with one valuation and order.

    `coeffs` is a `(order - valuation + 1, lanes)` array, one row per
    exponent, so the recurrences step through contiguous rows; the zero jet
    has no rows and valuation order + 1, as in `LaurentJet`.  Every
    operation runs `LaurentJet`'s float recurrence across the lanes at once
    and adds terms in the same order (one elementwise numpy step per scalar
    step, or a sequential `subtract.reduce`), so each lane is bit-identical
    to the jet the scalar path computes.  Where the scalar path would treat
    lanes differently, the operation raises `IrregularBatch` instead:
    leading zeros in some lanes only, a zero divisor, an odd valuation or a
    negative lead under `sqrt`, a non-finite coefficient (where skipping
    zero terms, as `LaurentJet.__mul__` does, is no longer exact).

    `*` skips structural zeros as the scalar product does: it steps only
    through the rows of the left factor that are nonzero in some lane, and
    each step stops at the right factor's last nonzero row.  A line jet
    has two nonzero rows, and low-degree products stay short.  The skipped
    terms are 0·b and a·0, which are ±0 because every coefficient is
    finite.  The sums start at +0.0 and, rounding to nearest, never become
    −0.0, and adding ±0 to a value other than −0.0 leaves it unchanged; so
    skipping them changes no bit.  `/` and `sqrt` do not skip: their
    recurrences subtract, the scalar path runs them over trailing zero
    coefficients too, and x − (−0.0) is not x when x is −0.0.
    """

    __slots__ = ("valuation", "order", "coeffs")

    def __init__(self, valuation: int, coeffs: np.ndarray, order: int):
        if not np.isfinite(coeffs).all():
            raise IrregularBatch("non-finite coefficient")
        lead = 0
        while lead < len(coeffs):
            nonzero = coeffs[lead] != 0
            if nonzero.all():
                break
            if nonzero.any():
                raise IrregularBatch("leading zeros differ between lanes")
            lead += 1
        self.valuation = valuation + lead
        self.order = order
        self.coeffs = coeffs[lead:]

    @staticmethod
    def zero(lanes: int, order: int) -> "LaneJet":
        return LaneJet(order + 1, np.zeros((0, lanes)), order)

    @staticmethod
    def constant(value: float, lanes: int, order: int) -> "LaneJet":
        if order < 0:  # as in LaurentJet.constant
            return LaneJet.zero(lanes, order)
        coeffs = np.zeros((order + 1, lanes))
        coeffs[0] = value
        return LaneJet(0, coeffs, order)

    @staticmethod
    def line(x: float, v: np.ndarray, order: int) -> "LaneJet":
        """The jets of t -> x + t v_l, one lane per entry of v."""
        if order < 1:
            raise IrregularBatch("a line needs order >= 1")
        coeffs = np.zeros((order + 1, len(v)))
        coeffs[0] = x
        coeffs[1] = v
        return LaneJet(0, coeffs, order)

    @property
    def lanes(self) -> int:
        return self.coeffs.shape[1]

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def lane(self, i: int) -> LaurentJet:
        return LaurentJet(self.valuation, self.coeffs[:, i].tolist(), self.order)

    def taylor_column(self, k: int) -> list:
        """`LaurentJet.taylor_coeff(k)` of every lane, with its errors."""
        if not self.is_zero and self.valuation < 0:
            raise PoleAtOrigin(f"series has a pole of order {-self.valuation} at t=0")
        if k > self.order:
            raise ShortWindow(f"coefficient {k} beyond retained order {self.order}")
        if k < self.valuation:
            return [0] * self.lanes
        return self.coeffs[k - self.valuation].tolist()

    def _sum(self, other: "LaneJet", subtract: bool) -> "LaneJet":
        k = min(self.order, other.order)
        lo = min(self.valuation, other.valuation)
        if lo > k:
            return LaneJet.zero(self.lanes, k)
        # Zeros first, then each operand in turn, as LaurentJet.__add__.
        acc = np.zeros((k - lo + 1, self.lanes))
        for src, minus in ((self, False), (other, subtract)):
            n = min(len(src.coeffs), k - src.valuation + 1)
            if n > 0:
                part = acc[src.valuation - lo:src.valuation - lo + n]
                if minus:
                    part -= src.coeffs[:n]
                else:
                    part += src.coeffs[:n]
        return LaneJet(lo, acc, k)

    def __add__(self, other: "LaneJet") -> "LaneJet":
        return self._sum(other, False)

    def __sub__(self, other: "LaneJet") -> "LaneJet":
        # a + (-b) and a - b round alike, signed zeros included.
        return self._sum(other, True)

    def __mul__(self, other: "LaneJet") -> "LaneJet":
        if self.is_zero or other.is_zero:
            order = min(self.order + other.valuation, other.order + self.valuation)
            return LaneJet.zero(self.lanes, order)
        rel = min(self.order - self.valuation, other.order - other.valuation)
        a, b = self.coeffs, other.coeffs
        out = np.zeros((rel + 1, self.lanes))
        # Only rows nonzero in some lane contribute; see the class docstring.
        rows = np.flatnonzero(a[:rel + 1].any(axis=1)).tolist()
        nb = int(np.flatnonzero(b[:rel + 1].any(axis=1))[-1]) + 1
        for i in rows:
            m = min(nb, rel + 1 - i)
            out[i:i + m] += a[i] * b[:m]
        v = self.valuation + other.valuation
        return LaneJet(v, out, v + rel)

    def __truediv__(self, other: "LaneJet") -> "LaneJet":
        if other.is_zero:
            raise IrregularBatch("zero divisor")
        if self.is_zero:
            return LaneJet.zero(self.lanes, self.order - other.valuation)
        rel = min(self.order - self.valuation, other.order - other.valuation)
        a, b = self.coeffs, other.coeffs
        q = np.empty((rel + 1, self.lanes))
        terms = np.empty((rel + 1, self.lanes))
        for i in range(rel + 1):
            # a_i - b_1 q_{i-1} - ... - b_i q_0, subtracted left to right
            terms[0] = a[i]
            if i:
                np.multiply(b[1:i + 1], q[i - 1::-1], out=terms[1:i + 1])
            np.divide(np.subtract.reduce(terms[:i + 1]), b[0], out=q[i])
        v = self.valuation - other.valuation
        return LaneJet(v, q, v + rel)

    def sqrt(self) -> "LaneJet":
        """`jet_sqrt` lane by lane."""
        if self.is_zero:
            return LaneJet.zero(self.lanes, self.order // 2)
        if self.valuation % 2 != 0:
            raise IrregularBatch("odd valuation under sqrt")
        a = self.coeffs
        if (a[0] < 0).any():
            raise IrregularBatch("negative leading coefficient under sqrt")
        rel = self.order - self.valuation
        out = np.empty((rel + 1, self.lanes))
        out[0] = np.sqrt(a[0])
        twice = 2 * out[0]
        terms = np.empty((rel + 1, self.lanes))
        for i in range(1, rel + 1):
            # a_i - r_1 r_{i-1} - ... - r_{i-1} r_1, subtracted left to right
            terms[0] = a[i]
            np.multiply(out[1:i], out[i - 1:0:-1], out=terms[1:i])
            np.divide(np.subtract.reduce(terms[:i]), twice, out=out[i])
        v = self.valuation // 2
        return LaneJet(v, out, v + rel)

    def pow_int(self, exponent: int, constant=None) -> "LaneJet":
        if exponent == 0:
            return LaneJet.constant(1.0, self.lanes,
                                    max(self.order, self.order - self.valuation))
        return _power(self, exponent)
