"""Truncated power-series and Laurent-series arithmetic in one variable.

A jet stores finitely many coefficients of a series around t = 0 together
with the highest exponent that is still trustworthy (the window).  Every
operation propagates windows conservatively, so any coefficient read out of
a jet is one the arithmetic actually determined.  A jet admits a negative
valuation, which encodes a pole at t = 0 of the composed function along an
arc; `taylor_coeff` reads a pole-free jet's coefficients.

There are two kinds, and each holds the jets of one or more arcs
("lanes") that share one valuation and order.  `RationalJet` is the exact
jet: integer numerators over one positive denominator per lane, reduced
once per operation instead of once per coefficient (fraction-free, as in
Bareiss's elimination).  `LaneJet` holds float jets as one numpy array.
A one-lane jet is the jet of a single arc; a batch raises `IrregularBatch`
where its lanes would part ways, and its caller reruns them one lane at a
time.  Where a square root meets exact leads that are rational squares in
no lane, the roots are irrational: `RationalJet` hands over a `LaneJet`
of Python scalars (numpy's `object` dtype), and from there on each
coefficient stays a `Fraction` until a float reaches it.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


class _Batch:
    """What both jet kinds share: a batch of lanes fails as a whole."""

    __slots__ = ()

    def _fail(self, error: type, message: str):
        """Raise `error`, or in a batch `IrregularBatch`, so that its lanes
        are rerun one at a time."""
        raise (error if self.lanes == 1 else IrregularBatch)(message)

    def taylor_coeff(self, k: int) -> Scalar:
        """`taylor_column(k)` of a one-lane jet."""
        return self.taylor_column(k, 1)[0]


_FRACTION = np.frompyfunc(Fraction, 2, 1)


def _leading_zeros(rows: np.ndarray) -> int:
    """The rows zero in every lane before one nonzero in all (every row of
    a zero jet); IrregularBatch where the lanes differ."""
    lead = 0
    while lead < len(rows) and not rows[lead].all():
        if rows[lead].any():
            raise IrregularBatch("leading zeros differ between lanes")
        lead += 1
    return lead


def _powers(base: np.ndarray, top: int) -> np.ndarray:
    """base ** 0 .. base ** top, one row each, as Python ints."""
    rows = [np.ones(len(base), dtype=object)]
    for _ in range(top):
        rows.append(rows[-1] * base)
    return np.array(rows, dtype=object)


class RationalJet(_Batch):
    """Exact Laurent jets of one or more lanes with one valuation and order.

    `nums` is an `(order - valuation + 1, lanes)` `object` array of Python
    ints and `den` a `(lanes,)` one: coefficient i of lane l, of
    t^(valuation + i), is nums[i, l] / den[l].  Normalised form: each den
    is positive and coprime to its lane's numerators, and row 0 is nonzero
    in every lane, except for the zero jet, which has no rows, every den 1
    and valuation order + 1 (an empty window of known zeros).  Each
    operation runs one integer recurrence across the lanes and reduces
    each lane once (`np.gcd`), where `Fraction` coefficients would reduce
    every product and sum.  Exact values do not depend on batching, so
    each lane equals the one-lane jet of its arc, in value and type.  A
    batch raises `IrregularBatch` where its lanes would part ways, as a
    `LaneJet` does, and where a square root is rational in some lanes
    only (the lanes would go on in different arithmetics).  A square root
    rational in no lane, and an operation with a `LaneJet` operand,
    continue on `to_lanes()`.
    """

    __slots__ = ("valuation", "order", "nums", "den")

    def __init__(self, valuation: int, nums: np.ndarray, den: np.ndarray,
                 order: int):
        """Takes normalised fields as they are; see `_reduced`."""
        self.valuation = valuation
        self.order = order
        self.nums = nums
        self.den = den

    @staticmethod
    def _reduced(valuation: int, nums: np.ndarray, den: np.ndarray,
                 order: int) -> "RationalJet":
        """The normalised jet of nums / den (den positive)."""
        lead = _leading_zeros(nums)
        if lead == len(nums):
            return RationalJet.zero(nums.shape[1], order)
        nums = nums[lead:]
        g = np.gcd(np.gcd.reduce(nums, axis=0), den)
        if (g != 1).any():
            nums = nums // g
            den = den // g
        return RationalJet(valuation + lead, nums, den, order)

    # --- constructors and conversion ----------------------------------------

    @staticmethod
    def zero(lanes: int, order: int) -> "RationalJet":
        return RationalJet(order + 1, np.zeros((0, lanes), dtype=object),
                           np.ones(lanes, dtype=object), order)

    @staticmethod
    def constant(value: int | Fraction, lanes: int,
                 order: int) -> "RationalJet":
        """The constant `value`; a window ending below t^0 holds only zeros."""
        if value == 0 or order < 0:
            return RationalJet.zero(lanes, order)
        value = Fraction(value)
        nums = np.zeros((order + 1, lanes), dtype=object)
        nums[0] = value.numerator
        return RationalJet(0, nums, np.full(lanes, value.denominator,
                                            dtype=object), order)

    @staticmethod
    def line(x: Scalar, v, order: int) -> "RationalJet":
        """The jets of t -> x + t v_l (rationals) through t^order, one lane
        per entry of v; x and each v_l in lowest terms leave each lane so."""
        x = Fraction(x)
        v = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in v]
        den = [math.lcm(x.denominator, c.denominator) for c in v]
        nums = np.zeros((order + 1, len(v)), dtype=object)
        nums[0] = [x.numerator * (d // x.denominator) for d in den]
        nums[1:2] = [c.numerator * (d // c.denominator)
                     for c, d in zip(v, den)]
        jet = RationalJet(0, nums, np.array(den, dtype=object), order)
        return jet if x else RationalJet._reduced(0, nums, jet.den, order)

    def to_lanes(self) -> "LaneJet":
        """The same jets as a `LaneJet` of `Fraction`s (`object` dtype)."""
        return LaneJet(self.valuation, _FRACTION(self.nums, self.den),
                       self.order)

    # --- inspection ---------------------------------------------------------

    @property
    def lanes(self) -> int:
        return self.nums.shape[1]

    @property
    def is_zero(self) -> bool:
        return len(self.nums) == 0

    def taylor_column(self, k: int, count: int | None = None) -> list[Fraction]:
        """Coefficient of t^k (the k-th scaled derivative) of the first
        `count` lanes (all by default) of a pole-free jet, always as
        `Fraction`s; ShortWindow beyond the window."""
        if len(self.nums) and self.valuation < 0:
            raise PoleAtOrigin(f"series has a pole of order {-self.valuation} at t=0")
        if k > self.order:
            raise ShortWindow(f"coefficient {k} beyond retained order {self.order}")
        if k < self.valuation:
            return [Fraction(0)] * len(range(self.lanes)[:count])
        return list(map(Fraction, self.nums[k - self.valuation, :count].tolist(),
                        self.den[:count].tolist()))

    def coefficients(self) -> list[Fraction]:
        """A one-lane jet's retained coefficients from t^valuation up."""
        return [Fraction(c, self.den[0]) for c in self.nums[:, 0].tolist()]

    # --- arithmetic ---------------------------------------------------------

    def _sum(self, other: "RationalJet", sign: int) -> "RationalJet":
        """self + sign * other over the lcm of the two denominators."""
        k = min(self.order, other.order)
        lo = min(self.valuation, other.valuation)
        if lo > k:
            return RationalJet.zero(self.lanes, k)
        g = np.gcd(self.den, other.den)
        acc = np.zeros((k - lo + 1, self.lanes), dtype=object)
        for src, scale in ((self, other.den // g),
                           (other, sign * (self.den // g))):
            n = min(len(src.nums), k - src.valuation + 1)
            if n > 0:
                acc[src.valuation - lo:src.valuation - lo + n] += \
                    src.nums[:n] * scale
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
        if self.is_zero or other.is_zero:
            order = min(self.order + other.valuation, other.order + self.valuation)
            return RationalJet.zero(self.lanes, order)
        rel = min(self.order - self.valuation, other.order - other.valuation)
        a, b = self.nums[:rel + 1], other.nums[:rel + 1]
        # Polynomial jets end in zeros: step through the rows of the factor
        # with fewer nonzero rows, each up to the other's last nonzero row.
        rows_a = np.flatnonzero(a.any(axis=1))
        rows_b = np.flatnonzero(b.any(axis=1))
        if len(rows_a) > len(rows_b):
            a, b, rows_a, rows_b = b, a, rows_b, rows_a
        nb = int(rows_b[-1]) + 1
        out = np.zeros((rel + 1, self.lanes), dtype=object)
        for i in rows_a.tolist():
            m = min(nb, rel + 1 - i)
            out[i:i + m] += a[i] * b[:m]
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
        if other.is_zero:
            self._fail(ZeroDivisor, "every retained coefficient of the divisor "
                       f"is zero (window O(t^{other.order + 1}))")
        if self.is_zero:
            return RationalJet.zero(self.lanes, self.order - other.valuation)
        rel = min(self.order - self.valuation, other.order - other.valuation)
        b = other.nums
        power = _powers(b[0], rel + 1)              # b0^i
        nb = min(int(np.flatnonzero(b.any(axis=1))[-1]) + 1, rel + 1)
        scaled = b[1:nb] * power[:nb - 1]           # B_j b0^(j-1)
        q = self.nums[:rel + 1] * power[:rel + 1]   # A_i b0^i, then Q_i
        for i in range(1, rel + 1):
            j = min(i, nb - 1)
            if j:
                q[i] -= (scaled[:j] * q[i - j:i][::-1]).sum(axis=0)
        v = self.valuation - other.valuation
        sign = np.where(b[0] < 0, -1, 1) ** (rel + 1)  # that of b0^(rel+1)
        return RationalJet._reduced(v, q * (other.den * power[rel::-1] * sign),
                                    self.den * power[rel + 1] * sign, v + rel)

    def pow_int(self, exponent: int) -> "RationalJet":
        if exponent < 0:
            raise ValueError("negative exponents go through division")
        if exponent == 0:
            # The constant 1 in the base's window; a pole's window ends
            # below t^0, so it keeps the base's relative precision instead,
            # and may still end below t^0.
            return RationalJet.constant(
                1, self.lanes, max(self.order, self.order - self.valuation))
        return _power(self, exponent)

    def sqrt(self) -> "RationalJet | LaneJet":
        """`jet_sqrt`, exact while the lead is the square of a rational.

        With a0 = A[0] = den (p/q)^2, U_i = A_i (4 a0)^(i-1) -
        sum_{j=1..i-1} U_j U_{i-j} and the root's coefficient i >= 1 is
        (p/q) U_i / (2^(2i-1) a0^i), which over the denominator
        q (4 a0)^rel has the numerator 2 p U_i (4 a0)^(rel-i).  A lead
        that is a rational square in no lane makes every root irrational:
        the result is then the root of `to_lanes()`, whose coefficients
        are floats.
        """
        if self.is_zero:
            return RationalJet.zero(self.lanes, self.order // 2)
        if self.valuation % 2 != 0:
            self._fail(OddValuation, f"leading exponent {self.valuation} is odd")
        roots = []
        for a0, den in zip(self.nums[0].tolist(), self.den.tolist()):
            if a0 < 0:
                self._fail(NegativeLeading, "leading coefficient "
                           f"{Fraction(a0, den)} is negative")
            g = math.gcd(a0, den)
            p, q = math.isqrt(a0 // g), math.isqrt(den // g)
            roots.append((p, q) if p * p * g == a0 and q * q * g == den
                         else None)
        if None in roots:
            if any(roots):
                raise IrregularBatch("a square root is rational in some "
                                     "lanes only")
            return self.to_lanes().sqrt()
        rel = self.order - self.valuation
        power = _powers(4 * self.nums[0], rel)      # (4 a0)^i
        u = np.empty((rel + 1, self.lanes), dtype=object)
        for i in range(1, rel + 1):
            u[i] = self.nums[i] * power[i - 1]
            if i > 1:
                u[i] -= (u[1:i] * u[i - 1:0:-1]).sum(axis=0)
        p, q = (np.array(c, dtype=object) for c in zip(*roots))
        nums = np.empty((rel + 1, self.lanes), dtype=object)
        nums[0] = p * power[rel]
        nums[1:] = u[1:] * (2 * p * power[rel - 1::-1][:rel])
        v = self.valuation // 2
        return RationalJet._reduced(v, nums, q * power[rel], v + rel)


class LaneJet(_Batch):
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

    A jet of `object` dtype holds Python scalars: it is what exact
    evaluation turns into past irrational square roots
    (`RationalJet.to_lanes`).  The same recurrences then run on
    `Fraction`s and floats, so a coefficient stays exact until a float
    reaches it, and an exact value is rounded where it meets one (with
    OverflowError beyond the float range).  Its zeroth power is each
    lane's lead to the 0, or for a zero jet the exact 1.  Its lanes part
    ways only as exact jets' do: its products skip a term in just the
    lanes where the left factor is 0, so no term is skipped in some lanes
    and not others, and a non-finite float is no reason to rerun them.

    `*` skips structural zeros: it steps only through the rows of the left
    factor that are nonzero in some lane, and each step stops at the right
    factor's last nonzero row.  A line jet has two nonzero rows, and
    low-degree products stay short.  With finite float factors a skipped
    term a·b with a zero is ±0, and skipping it changes no bit: the sums
    start at +0.0 and, rounding to nearest, never become −0.0, and adding
    ±0 to a value other than −0.0 leaves it unchanged.  A product whose
    left factor is not finite, or of `object` dtype (where a·0 is a float
    when a is one, and 0·b is -0.0 when b is a negative float), does not
    stop at the right factor's last nonzero row.
    `/` and `sqrt` do not skip: their recurrences subtract, and x − (−0.0)
    is not x when x is −0.0.
    """

    __slots__ = ("valuation", "order", "coeffs")

    def __init__(self, valuation: int, coeffs: np.ndarray, order: int):
        if coeffs.shape[1] > 1 and coeffs.dtype != object \
                and not np.isfinite(coeffs).all():
            raise IrregularBatch("non-finite coefficient")
        lead = _leading_zeros(coeffs)
        self.valuation = valuation + lead
        self.order = order
        self.coeffs = coeffs[lead:]

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

    def taylor_row(self, k: int, count: int | None = None) -> np.ndarray:
        """Coefficient of t^k (the k-th scaled derivative) of the first
        `count` lanes (all by default) of a pole-free jet, as one array of
        the jet's dtype: a view of its row, or zeros below its valuation;
        ShortWindow beyond the window."""
        if not self.is_zero and self.valuation < 0:
            raise PoleAtOrigin(f"series has a pole of order {-self.valuation} at t=0")
        if k > self.order:
            raise ShortWindow(f"coefficient {k} beyond retained order {self.order}")
        if k < self.valuation:
            return np.zeros(len(range(self.lanes)[:count]), self.coeffs.dtype)
        return self.coeffs[k - self.valuation, :count]

    def taylor_column(self, k: int, count: int | None = None) -> list:
        """`taylor_row` as Python scalars, the int 0 below the valuation."""
        row = self.taylor_row(k, count)
        return [0] * len(row) if k < self.valuation else row.tolist()

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
        if dtype == object:
            for i in rows:
                m = min(nb, rel + 1 - i)
                keep = a[i] != 0    # per lane, as its one-lane product steps
                out[i:i + m, keep] += a[i, keep] * b[:m, keep]
        else:
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
            # 1 in the kind of each lane's lead (of Python scalars, a zero
            # jet's is the exact 1), in RationalJet.pow_int's window
            one = 1.0
            if self.coeffs.dtype == object:
                one = [c ** 0 for c in self.coeffs[0]] if len(self.coeffs) \
                    else Fraction(1)
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
