"""Truncated power-series and Laurent-series arithmetic in one variable.

A jet stores finitely many coefficients of a series around t = 0 together
with the highest exponent that is still trustworthy (the window).  Every
operation propagates windows conservatively, so any coefficient read out of
a jet is one the arithmetic actually determined.  Coefficients may be exact
`fractions.Fraction` values or floats; the two interoperate, and operations
on exact inputs stay exact unless a square root forces an irrational
leading coefficient.

`Jet` is the plain Taylor carrier (exponents 0..order).  `LaurentJet`
additionally admits a negative valuation, which encodes a pole at t = 0 of
the composed function along an arc.  `LaneJet` holds the float jets of many
arcs ("lanes") that share one valuation and order, as one numpy array, and
reproduces `LaurentJet`'s float arithmetic lane by lane, bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import IrregularBatch, NegativeLeading, OddValuation, PoleAtOrigin, \
    ZeroDivisor

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
        if value == 0:
            return LaurentJet.zero(order)
        return LaurentJet(0, (value,) + (0,) * order, order)

    @staticmethod
    def variable(order: int) -> "LaurentJet":
        """The jet of t itself (at order 0 the window cannot see it)."""
        if order < 1:
            return LaurentJet.zero(order)
        return LaurentJet(1, (1,) + (0,) * (order - 1), order)

    # --- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Scalar:
        """Coefficient of t^k; raises if k lies beyond the trusted window."""
        if k > self.order:
            raise ValueError(f"coefficient {k} beyond retained order {self.order}")
        if k < self.valuation:
            return 0
        return self.coeffs[k - self.valuation]

    def taylor_coeff(self, k: int) -> Scalar:
        """Coefficient of t^k of a pole-free jet (the k-th scaled derivative)."""
        if not self.is_zero and self.valuation < 0:
            raise PoleAtOrigin(f"series has a pole of order {-self.valuation} at t=0")
        return self.coeff(k)

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

    def eval_poly(self, t: Scalar) -> Scalar:
        """Evaluate the retained terms as a (Laurent) polynomial at t != 0."""
        acc = 0
        for i, c in enumerate(reversed(self.coeffs)):
            acc = acc * t + c
        return acc * t ** self.valuation if self.coeffs else 0 * t

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

    def scaled(self, factor: Scalar) -> "LaurentJet":
        if factor == 0:
            return LaurentJet.zero(self.order)
        return LaurentJet(self.valuation,
                          tuple(factor * c for c in self.coeffs), self.order)

    def pow_int(self, exponent: int) -> "LaurentJet":
        if exponent < 0:
            raise ValueError("negative exponents go through division")
        if exponent == 0:
            return LaurentJet.constant(1, self.order)
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result


def jet_sqrt(a: LaurentJet) -> LaurentJet:
    """Series square root with positive leading coefficient.

    Requires an even valuation and a strictly positive leading coefficient;
    either failure means the arc left the region where the function admits a
    real series.
    """
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
            raise ValueError(f"coefficient {k} beyond retained order {self.order}")
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
        for i in range(rel + 1):
            out[i:] += a[i] * b[:rel + 1 - i]
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

    def pow_int(self, exponent: int) -> "LaneJet":
        if exponent == 0:
            # The scalar path returns an integer constant jet, whose exact
            # divisions (int / int -> Fraction) floats would not reproduce.
            raise IrregularBatch("zeroth power")
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result


class Jet:
    """Plain truncated Taylor series: coefficients of t^0 .. t^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Scalar], order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(coeffs) != order + 1:
            raise ValueError(f"need exactly {order + 1} coefficients")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    def __reduce__(self):
        return (Jet, (self.coeffs, self.order))

    def to_laurent(self) -> LaurentJet:
        return LaurentJet(0, self.coeffs, self.order)

    @staticmethod
    def from_laurent(a: LaurentJet) -> "Jet":
        if not a.is_zero and a.valuation < 0:
            raise PoleAtOrigin("cannot truncate a pole to a Taylor jet")
        return Jet([a.coeff(i) for i in range(a.order + 1)], a.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.order, self.coeffs) == (other.order, other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"Jet({list(self.coeffs)})"

    def __neg__(self) -> "Jet":
        return Jet([-c for c in self.coeffs], self.order)

    def __add__(self, other: "Jet") -> "Jet":
        k = min(self.order, other.order)
        return Jet([self.coeffs[i] + other.coeffs[i] for i in range(k + 1)], k)

    def __sub__(self, other: "Jet") -> "Jet":
        k = min(self.order, other.order)
        return Jet([self.coeffs[i] - other.coeffs[i] for i in range(k + 1)], k)

    def __mul__(self, other: "Jet") -> "Jet":
        k = min(self.order, other.order)
        out = [0] * (k + 1)
        for i in range(min(len(self.coeffs), k + 1)):
            ai = self.coeffs[i]
            if ai == 0:
                continue
            for j in range(min(len(other.coeffs), k + 1 - i)):
                out[i + j] += ai * other.coeffs[j]
        return Jet(out, k)

    def eval_poly(self, t: Scalar) -> Scalar:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


AnyJet = Union[Jet, LaurentJet]


def _pair(a: AnyJet, b: AnyJet):
    """Promote a mixed Jet/LaurentJet pair to a common kind."""
    if isinstance(a, Jet) and isinstance(b, Jet):
        return a, b
    la = a.to_laurent() if isinstance(a, Jet) else a
    lb = b.to_laurent() if isinstance(b, Jet) else b
    return la, lb


def jet_add(a: AnyJet, b: AnyJet) -> AnyJet:
    x, y = _pair(a, b)
    return x + y


def jet_sub(a: AnyJet, b: AnyJet) -> AnyJet:
    x, y = _pair(a, b)
    return x - y


def jet_mul(a: AnyJet, b: AnyJet) -> AnyJet:
    x, y = _pair(a, b)
    return x * y


def jet_div(a: AnyJet, b: AnyJet) -> LaurentJet:
    la = a.to_laurent() if isinstance(a, Jet) else a
    lb = b.to_laurent() if isinstance(b, Jet) else b
    return la / lb


def jet_derive_coeff(a: AnyJet, k: int) -> Scalar:
    """The t^k Taylor coefficient, i.e. (1/k!) times the k-th derivative at 0."""
    la = a.to_laurent() if isinstance(a, Jet) else a
    return la.taylor_coeff(k)
