"""Truncated power-series and Laurent-series arithmetic in one variable.

A jet stores finitely many coefficients of a series around t = 0 together
with the highest exponent that is still trustworthy (the window).  Every
operation propagates windows conservatively, so any coefficient read out of
a jet is one the arithmetic actually determined.  A jet admits a negative
valuation, which encodes a pole at t = 0 of the composed function along an
arc; `taylor_coeff` reads a pole-free jet's coefficients.

There are two kinds.  `RationalJet` is the exact jet: integer numerators
over one positive denominator, reduced once per operation instead of once
per coefficient (fraction-free, as in Bareiss's elimination).  `LaneJet`
holds the float jets of one or more arcs ("lanes") that share one
valuation and order, as one numpy array.  A one-lane `LaneJet` is the
float jet of a single arc; a batch raises `IrregularBatch` where its lanes
would part ways, and its caller reruns them one lane at a time.  Where a
square root meets an exact lead that is not a rational square, the root
is irrational: `RationalJet` hands over a one-lane `LaneJet` of Python
scalars (numpy's `object` dtype), and from there on each coefficient
stays a `Fraction` until a float reaches it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import Union

import numpy as np

from .errors import IrregularBatch, NegativeLeading, OddValuation, PoleAtOrigin, \
    ShortWindow, ZeroDivisor

Scalar = Union[int, float, Fraction]


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


def jet_sqrt(a: "RationalJet | LaneJet") -> "RationalJet | LaneJet":
    """Series square root with positive leading coefficient.

    Requires an even valuation and a strictly positive leading coefficient;
    either failure means the arc left the region where the function admits a
    real series.
    """
    return a.sqrt()


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
    zero jet, which has no numerators, den 1 and valuation order + 1 (an
    empty window of known zeros).  Each operation runs an integer
    recurrence and reduces its result once (one `math.gcd` call), where
    `Fraction` coefficients would reduce every product and sum.  An
    operation with a `LaneJet` operand converts this jet with `to_lanes`
    and returns the `LaneJet` result.
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
        """The constant `value`; a window ending below t^0 holds only zeros."""
        if value == 0 or order < 0:
            return RationalJet.zero(order)
        value = Fraction(value)
        return RationalJet(0, [value.numerator] + [0] * order,
                           value.denominator, order)

    @staticmethod
    def line(x: Scalar, v: Scalar, order: int) -> "RationalJet":
        """The jet of t -> x + t v (rationals), through t^order."""
        x, v = Fraction(x), Fraction(v)
        den = math.lcm(x.denominator, v.denominator)
        nums = [x.numerator * (den // x.denominator),
                v.numerator * (den // v.denominator)] + [0] * (order - 1)
        return RationalJet._reduced(0, nums[:order + 1], den, order)

    def to_lanes(self) -> "LaneJet":
        """The same jet as a one-lane `LaneJet` of `Fraction`s (`object`
        dtype)."""
        coeffs = np.empty((len(self.nums), 1), dtype=object)
        coeffs[:, 0] = self.coefficients()
        return LaneJet(self.valuation, coeffs, self.order)

    # --- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def taylor_coeff(self, k: int) -> Fraction:
        """Coefficient of t^k (the k-th scaled derivative) of a pole-free
        jet, always as a `Fraction`; ShortWindow beyond the window."""
        if self.nums and self.valuation < 0:
            raise PoleAtOrigin(f"series has a pole of order {-self.valuation} at t=0")
        if k > self.order:
            raise ShortWindow(f"coefficient {k} beyond retained order {self.order}")
        if k < self.valuation:
            return Fraction(0)
        return Fraction(self.nums[k - self.valuation], self.den)

    def coefficients(self) -> list[Fraction]:
        """The retained coefficients from t^valuation up."""
        return [Fraction(c, self.den) for c in self.nums]

    # --- arithmetic ---------------------------------------------------------

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
        return self.to_lanes() + other

    def __sub__(self, other):
        if isinstance(other, RationalJet):
            return self._sum(other, -1)
        return self.to_lanes() - other

    def __mul__(self, other):
        if not isinstance(other, RationalJet):
            return self.to_lanes() * other
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
            return self.to_lanes() / other
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

    def pow_int(self, exponent: int) -> "RationalJet":
        if exponent < 0:
            raise ValueError("negative exponents go through division")
        if exponent == 0:
            # The constant 1 in the base's window; a pole's window ends
            # below t^0, so it keeps the base's relative precision instead,
            # and may still end below t^0.
            return RationalJet.constant(
                1, max(self.order, self.order - self.valuation))
        return _power(self, exponent)

    def sqrt(self) -> "RationalJet | LaneJet":
        """`jet_sqrt`, exact while the lead is the square of a rational.

        With a0 = A[0] = den (p/q)^2, U_i = A_i (4 a0)^(i-1) -
        sum_{j=1..i-1} U_j U_{i-j} and the root's coefficient i >= 1 is
        (p/q) U_i / (2^(2i-1) a0^i), which over the denominator
        q (4 a0)^rel has the numerator 2 p U_i (4 a0)^(rel-i).  Any other
        lead makes the root irrational: the result is then the root of
        `to_lanes()`, whose coefficients are floats.
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
            return self.to_lanes().sqrt()
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
    """Float Laurent jets of one or more lanes with one valuation and order.

    `coeffs` is a `(order - valuation + 1, lanes)` array, one row per
    exponent, so the recurrences step through contiguous rows; the zero jet
    has no rows and valuation order + 1.  Every operation runs one float
    recurrence across the lanes at once and adds terms in the same order
    for every lane (one elementwise numpy step per scalar step, or a
    sequential `subtract.reduce`), so each lane of a batch is bit-identical
    to the one-lane jet of its arc.  A one-lane jet raises the errors of
    jet arithmetic: `ZeroDivisor`, `OddValuation`, `NegativeLeading`.  A
    batch raises `IrregularBatch` instead wherever its lanes could part
    ways: leading zeros in some lanes only, any of those errors, and a
    non-finite coefficient (where skipping zero terms is no longer exact);
    its caller then reruns the lanes one at a time.  A one-lane jet keeps
    non-finite coefficients, as IEEE arithmetic makes them.

    A one-lane jet of `object` dtype holds Python scalars: it is what
    exact evaluation turns into past an irrational square root
    (`RationalJet.to_lanes`).  The same recurrences then run on
    `Fraction`s and floats, so a coefficient stays exact until a float
    reaches it, and an exact value is rounded where it meets one (with
    OverflowError beyond the float range).  Such a jet's zeroth power, or
    a zero one's, is the exact 1.

    `*` skips structural zeros: it steps only through the rows of the left
    factor that are nonzero in some lane, and each step stops at the right
    factor's last nonzero row.  A line jet has two nonzero rows, and
    low-degree products stay short.  With finite float factors a skipped
    term a·b with a zero is ±0, and skipping it changes no bit: the sums
    start at +0.0 and, rounding to nearest, never become −0.0, and adding
    ±0 to a value other than −0.0 leaves it unchanged.  A product whose
    left factor is not finite, or of `object` dtype (where a·0 is a float
    when a is one), does not stop at the right factor's last nonzero row.
    `/` and `sqrt` do not skip: their recurrences subtract, and x − (−0.0)
    is not x when x is −0.0.
    """

    __slots__ = ("valuation", "order", "coeffs")

    def __init__(self, valuation: int, coeffs: np.ndarray, order: int):
        if coeffs.shape[1] > 1 and not np.isfinite(coeffs).all():
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

    def _fail(self, error: type, message: str):
        """Raise `error`, or in a batch `IrregularBatch`, so that its lanes
        are rerun one at a time."""
        raise (error if self.lanes == 1 else IrregularBatch)(message)

    @staticmethod
    def zero(lanes: int, order: int, dtype=float) -> "LaneJet":
        return LaneJet(order + 1, np.zeros((0, lanes), dtype), order)

    @staticmethod
    def constant(value: Scalar, lanes: int, order: int,
                 dtype=float) -> "LaneJet":
        """The constant `value`; a window ending below t^0 holds only zeros."""
        if order < 0:
            return LaneJet.zero(lanes, order, dtype)
        coeffs = np.zeros((order + 1, lanes), dtype)
        coeffs[0] = value
        return LaneJet(0, coeffs, order)

    @staticmethod
    def line(x: float, v: np.ndarray, order: int) -> "LaneJet":
        """The jets of t -> x + t v_l through t^order, one lane per entry
        of v."""
        coeffs = np.zeros((order + 1, len(v)))
        coeffs[0] = x
        coeffs[1:2] = v
        return LaneJet(0, coeffs, order)

    @property
    def lanes(self) -> int:
        return self.coeffs.shape[1]

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def taylor_column(self, k: int) -> list:
        """Coefficient of t^k (the k-th scaled derivative) of every lane of
        a pole-free jet; ShortWindow beyond the window."""
        if not self.is_zero and self.valuation < 0:
            raise PoleAtOrigin(f"series has a pole of order {-self.valuation} at t=0")
        if k > self.order:
            raise ShortWindow(f"coefficient {k} beyond retained order {self.order}")
        if k < self.valuation:
            return [0] * self.lanes
        return self.coeffs[k - self.valuation].tolist()

    def taylor_coeff(self, k: int) -> Scalar:
        """`taylor_column(k)` of a one-lane jet, as `RationalJet.taylor_coeff`."""
        return self.taylor_column(k)[0]

    def coefficients(self) -> list[Scalar]:
        """A one-lane jet's retained coefficients from t^valuation up."""
        return self.coeffs[:, 0].tolist()

    def _sum(self, other: "LaneJet | RationalJet", subtract: bool) -> "LaneJet":
        other = _as_lanes(other)
        k = min(self.order, other.order)
        lo = min(self.valuation, other.valuation)
        dtype = _dtype(self, other)
        if lo > k:
            return LaneJet.zero(self.lanes, k, dtype)
        # Zeros first, then each operand in turn.
        acc = np.zeros((k - lo + 1, self.lanes), dtype)
        for src, minus in ((self, False), (other, subtract)):
            n = min(len(src.coeffs), k - src.valuation + 1)
            if n > 0:
                part = acc[src.valuation - lo:src.valuation - lo + n]
                if minus:
                    part -= src.coeffs[:n]
                else:
                    part += src.coeffs[:n]
        return LaneJet(lo, acc, k)

    def __add__(self, other: "LaneJet | RationalJet") -> "LaneJet":
        return self._sum(other, False)

    def __sub__(self, other: "LaneJet | RationalJet") -> "LaneJet":
        # a + (-b) and a - b round alike, signed zeros included.
        return self._sum(other, True)

    def __mul__(self, other: "LaneJet | RationalJet") -> "LaneJet":
        other = _as_lanes(other)
        dtype = _dtype(self, other)
        if self.is_zero or other.is_zero:
            order = min(self.order + other.valuation, other.order + self.valuation)
            return LaneJet.zero(self.lanes, order, dtype)
        rel = min(self.order - self.valuation, other.order - other.valuation)
        a, b = self.coeffs[:rel + 1], other.coeffs[:rel + 1]
        out = np.zeros((rel + 1, self.lanes), dtype)
        # Only rows nonzero in some lane contribute; see the class docstring.
        rows = np.flatnonzero(a.any(axis=1)).tolist()
        nb = len(b)
        if dtype != object and (self.lanes > 1 or np.isfinite(a).all()):
            nb = int(np.flatnonzero(b.any(axis=1))[-1]) + 1
        for i in rows:
            m = min(nb, rel + 1 - i)
            out[i:i + m] += a[i] * b[:m]
        v = self.valuation + other.valuation
        return LaneJet(v, out, v + rel)

    def __truediv__(self, other: "LaneJet | RationalJet") -> "LaneJet":
        other = _as_lanes(other)
        dtype = _dtype(self, other)
        if other.is_zero:
            self._fail(ZeroDivisor, "every retained coefficient of the divisor "
                       f"is zero (window O(t^{other.order + 1}))")
        if self.is_zero:
            return LaneJet.zero(self.lanes, self.order - other.valuation, dtype)
        rel = min(self.order - self.valuation, other.order - other.valuation)
        a, b = self.coeffs, other.coeffs
        q = np.empty((rel + 1, self.lanes), dtype)
        terms = np.empty((rel + 1, self.lanes), dtype)
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
            return LaneJet.zero(self.lanes, self.order // 2, self.coeffs.dtype)
        if self.valuation % 2 != 0:
            self._fail(OddValuation, f"leading exponent {self.valuation} is odd")
        a = self.coeffs
        if (a[0] < 0).any():
            self._fail(NegativeLeading,
                       f"leading coefficient {a[0].min()} is negative")
        rel = self.order - self.valuation
        out = np.empty((rel + 1, self.lanes), a.dtype)
        out[0] = np.sqrt(a[0]) if a.dtype != object \
            else [sqrt_scalar(c) for c in a[0]]
        twice = 2 * out[0]
        terms = np.empty((rel + 1, self.lanes), a.dtype)
        for i in range(1, rel + 1):
            # a_i - r_1 r_{i-1} - ... - r_{i-1} r_1, subtracted left to right
            terms[0] = a[i]
            np.multiply(out[1:i], out[i - 1:0:-1], out=terms[1:i])
            np.divide(np.subtract.reduce(terms[:i]), twice, out=out[i])
        v = self.valuation // 2
        return LaneJet(v, out, v + rel)

    def pow_int(self, exponent: int) -> "LaneJet":
        if exponent == 0:
            # 1 in the kind of the lead (of Python scalars, a zero jet's is
            # the exact 1), in RationalJet.pow_int's window
            one = 1.0
            if self.coeffs.dtype == object:
                one = self.coeffs[0, 0] ** 0 if len(self.coeffs) else Fraction(1)
            return LaneJet.constant(one, self.lanes,
                                    max(self.order, self.order - self.valuation),
                                    self.coeffs.dtype)
        return _power(self, exponent)


def _dtype(a: LaneJet, b: LaneJet):
    """The dtype of an operation on a and b: float, or `object` if either
    holds Python scalars."""
    return a.coeffs.dtype if a.coeffs.dtype == b.coeffs.dtype else object


def _as_lanes(jet: "LaneJet | RationalJet") -> LaneJet:
    """An operand of a `LaneJet` operation, a `RationalJet` as a one-lane
    jet (`RationalJet.to_lanes`)."""
    return jet if isinstance(jet, LaneJet) else jet.to_lanes()


# The name the benchmark's tracer patches (`__mul__`, `__truediv__`).
LaurentJet = LaneJet
