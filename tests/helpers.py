"""Shared random generators for the property tests, and reference code.

The seeded generators use `random`; `trees` is a Hypothesis strategy.
`walker_eval_point_flagged` and `walker_regular_at` are the recursive
pointwise evaluator that the tape evaluator replaced, kept as its
reference.  `walker_to_fraction_pair`, `walker_pullback`,
`walker_substitute`, `walker_is_polynomial` and `walker_to_text` are the
recursive structural walkers that the tape passes replaced, kept as
their reference.  `LaurentJet` is the scalar jet that `RationalJet` and
one-lane `LaneJet`s replaced: Python floats or `Fraction`s, one
coefficient at a time.  It is kept as their reference, with
`laurent_series` (the scalar float path along a line),
`fraction_gateaux_series` (exact jets over `Fraction` coefficients) and
the conversions `laurent_of` and `rational_of`.  `ScalarRationalJet` is
the exact jet of one arc as `RationalJet` ran it before its lanes were
batched, integer numerators as lists; with `scalar_rational_series` it is
the reference for exact lanes.  `qr_residuals` is the
float order test as it was before the canonical design: a QR of the
evaluation matrix at the very directions the jets were taken along.
`list_order_result` is the float order test as it ran before its values
and residuals travelled as one array: lists of Python floats, every fit
solved.  `eager_least_squares_fit` is `interp_fit`'s least-squares fit
as it ran before its coefficients were solved only when read.
`seeded_exact_fit` is the exact fit as it was before the canonical integer
blocks: a solve on the permuted rows themselves.  `signed_permutation` is
the signed permutation M a ladder seed picked before ladders read the
canonical rows as they are; `signed_permutations` lists all 2^n n! of
them, and `permuted` turns a ladder of f along U M into one of f∘M along
U, the probe of direction sensitivity that replaced the seed;
`permuted_form` is P∘M for a form P.  `fraction_sum_value` and
`fraction_sum_derivative` are `HomoPoly`'s evaluation and radial
derivative as they were before exact forms were evaluated in integers over
one common denominator: a sum of terms in the inputs' own arithmetic, a
`Fraction` operation per factor.  `solve_rational` is the exact solve as
it was before systems were prepared once per matrix: any square rational
system, its rows scaled to integers per call (`scale_rows`).
`arc_from_coeffs`, `chart_apply`,
`jacobian_power`, `chart_invert`, `pullback_sequence`, `eval_poly`,
`arc_analytic_entries` and `unit_vector` are small tools only the tests
use.
"""

from __future__ import annotations

import itertools
import math
import random
from operator import add, mul
from fractions import Fraction
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from arcan import mpoly
from arcan.blowup import BlowupChart, PullbackResult, pullback
from arcan.corpus import ARC_ANALYTIC, CorpusEntry, corpus_list
from arcan.errors import DomainError, FloatOverflow, GenericityFailure, \
    NegativeLeading, OddValuation, PoleAtOrigin, ShortWindow, \
    ZeroDenominator, ZeroDivisor
from arcan.expr import Add, ArcSpec, Div, Expr, Guard, IntPow, Mul, \
    RationalConst, Sqrt, Sub, Var, _exact_div, compile_tape, run_tape, \
    substitute
from arcan.homog import HomoPoly, canonical_design, dim_homog, \
    evaluation_matrix, monomials
from arcan.jets import LaneJet, RationalJet, Scalar, _power, jet_sqrt, \
    sqrt_scalar
from arcan.linalg import IntegerSystem
from arcan.parser import var_name
from arcan.seeds import derive_seed


# --- the scalar jet (reference for RationalJet and one-lane LaneJets) ----------

class LaurentJet:
    """Finitely many series coefficients starting at exponent `valuation`.

    Normalized form: the coefficient at t^valuation is nonzero, except for
    the zero jet, which is stored with an empty coefficient tuple and
    valuation = order + 1 (an empty window of known zeros).  Coefficients
    are floats or exact (`int`/`Fraction`), and the two interoperate.
    """

    __slots__ = ("valuation", "order", "coeffs")

    def __init__(self, valuation: int, coeffs: Sequence[Scalar],
                 order: int | None = None):
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

    @staticmethod
    def zero(order: int) -> "LaurentJet":
        return LaurentJet(order + 1, (), order)

    @staticmethod
    def constant(value: Scalar, order: int) -> "LaurentJet":
        """The constant `value`; a window ending below t^0 holds only zeros."""
        if value == 0 or order < 0:
            return LaurentJet.zero(order)
        return LaurentJet(0, (value,) + (0,) * order, order)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentJet):
            return NotImplemented
        return (self.valuation, self.order, self.coeffs) == (
            other.valuation, other.order, other.coeffs)

    def __hash__(self):
        return hash((self.valuation, self.order, self.coeffs))

    def __neg__(self) -> "LaurentJet":
        return LaurentJet(self.valuation, tuple(-c for c in self.coeffs), self.order)

    def __add__(self, other: "LaurentJet") -> "LaurentJet":
        k = min(self.order, other.order)
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
        return self + (-other)

    def __mul__(self, other: "LaurentJet") -> "LaurentJet":
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

    def pow_int(self, exponent: int, one: Scalar = 1.0) -> "LaurentJet":
        """self ** exponent; the zeroth power is the constant 1 in the kind
        of the lead, or `one` for a zero base (the float evaluator's 1 by
        default), in `RationalJet.pow_int`'s window."""
        if exponent < 0:
            raise ValueError("negative exponents go through division")
        if exponent == 0:
            return LaurentJet.constant(
                self.coeffs[0] ** 0 if self.coeffs else one,
                max(self.order, self.order - self.valuation))
        result, e, base = None, exponent, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def sqrt(self) -> "LaurentJet":
        """Series square root with positive leading coefficient."""
        if self.is_zero:
            return LaurentJet.zero(self.order // 2)
        if self.valuation % 2 != 0:
            raise OddValuation(f"leading exponent {self.valuation} is odd")
        lead = self.coeffs[0]
        if lead < 0:
            raise NegativeLeading(f"leading coefficient {lead} is negative")
        rel = self.order - self.valuation
        r0 = sqrt_scalar(lead)
        out = [r0] + [0] * rel
        for i in range(1, rel + 1):
            acc = self.coeffs[i] if i < len(self.coeffs) else 0
            for j in range(1, i):
                acc -= out[j] * out[i - j]
            out[i] = _exact_div(acc, 2 * r0)
        v = self.valuation // 2
        return LaurentJet(v, out, v + rel)


# --- the list jet (reference for exact RationalJet lanes) ---------------------

def _support(nums: list[int], rel: int) -> int:
    """Length of nums[:rel + 1] without its trailing zeros (nums[0] != 0)."""
    n = min(len(nums), rel + 1)
    while not nums[n - 1]:
        n -= 1
    return n


class ScalarRationalJet:
    """The exact jet of one arc as `RationalJet` ran it before its lanes
    were batched: integer numerators over one denominator, as lists.

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
                 order: int) -> "ScalarRationalJet":
        """The normalised jet of nums / den (den nonzero, either sign)."""
        lead = 0
        while lead < len(nums) and not nums[lead]:
            lead += 1
        if lead == len(nums):
            return ScalarRationalJet.zero(order)
        if lead:
            nums = nums[lead:]
            valuation += lead
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        return ScalarRationalJet(valuation, nums, den, order)

    # --- constructors and conversion ----------------------------------------

    @staticmethod
    def zero(order: int) -> "ScalarRationalJet":
        return ScalarRationalJet(order + 1, [], 1, order)

    @staticmethod
    def constant(value: int | Fraction, order: int) -> "ScalarRationalJet":
        """The constant `value`; a window ending below t^0 holds only zeros."""
        if value == 0 or order < 0:
            return ScalarRationalJet.zero(order)
        value = Fraction(value)
        return ScalarRationalJet(0, [value.numerator] + [0] * order,
                           value.denominator, order)

    @staticmethod
    def line(x: Scalar, v: Scalar, order: int) -> "ScalarRationalJet":
        """The jet of t -> x + t v (rationals), through t^order."""
        x, v = Fraction(x), Fraction(v)
        den = math.lcm(x.denominator, v.denominator)
        nums = [x.numerator * (den // x.denominator),
                v.numerator * (den // v.denominator)] + [0] * (order - 1)
        return ScalarRationalJet._reduced(0, nums[:order + 1], den, order)

    @property
    def lanes(self) -> int:
        return 1

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

    def _sum(self, other: "ScalarRationalJet", sign: int) -> "ScalarRationalJet":
        """self + sign * other over the lcm of the two denominators."""
        k = min(self.order, other.order)
        lo = min(self.valuation, other.valuation)
        if lo > k:
            return ScalarRationalJet.zero(k)
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
        return ScalarRationalJet._reduced(lo, acc, self.den // g * other.den, k)

    def __add__(self, other):
        if isinstance(other, ScalarRationalJet):
            return self._sum(other, 1)
        return self.to_lanes() + other

    def __sub__(self, other):
        if isinstance(other, ScalarRationalJet):
            return self._sum(other, -1)
        return self.to_lanes() - other

    def __mul__(self, other):
        if not isinstance(other, ScalarRationalJet):
            return self.to_lanes() * other
        if not self.nums or not other.nums:
            order = min(self.order + other.valuation, other.order + self.valuation)
            return ScalarRationalJet.zero(order)
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
        return ScalarRationalJet._reduced(v, out, self.den * other.den, v + rel)

    def __truediv__(self, other):
        """Fraction-free long division.

        With b0 = B[0], Q_i = A_i b0^i - sum_{j=1..i} B_j b0^(j-1) Q_{i-j}
        and the quotient's coefficient i is Q_i db / (da b0^(i+1)), all put
        over the denominator da b0^(rel+1).
        """
        if not isinstance(other, ScalarRationalJet):
            return self.to_lanes() / other
        if not other.nums:
            raise ZeroDivisor(
                "every retained coefficient of the divisor is zero "
                f"(window O(t^{other.order + 1}))")
        if not self.nums:
            return ScalarRationalJet.zero(self.order - other.valuation)
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
        return ScalarRationalJet._reduced(v, nums, self.den * power, v + rel)

    def pow_int(self, exponent: int) -> "ScalarRationalJet":
        if exponent < 0:
            raise ValueError("negative exponents go through division")
        if exponent == 0:
            # The constant 1 in the base's window; a pole's window ends
            # below t^0, so it keeps the base's relative precision instead,
            # and may still end below t^0.
            return ScalarRationalJet.constant(
                1, max(self.order, self.order - self.valuation))
        return _power(self, exponent)

    def sqrt(self) -> "ScalarRationalJet | LaneJet":
        """`jet_sqrt`, exact while the lead is the square of a rational.

        With a0 = A[0] = den (p/q)^2, U_i = A_i (4 a0)^(i-1) -
        sum_{j=1..i-1} U_j U_{i-j} and the root's coefficient i >= 1 is
        (p/q) U_i / (2^(2i-1) a0^i), which over the denominator
        q (4 a0)^rel has the numerator 2 p U_i (4 a0)^(rel-i).  Any other
        lead makes the root irrational: the result is then the root of
        `to_lanes()`, whose coefficients are floats.
        """
        if not self.nums:
            return ScalarRationalJet.zero(self.order // 2)
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
        return ScalarRationalJet._reduced(v, nums, q * power, v + rel)


def scalar_rational_series(e: Expr, x: Sequence[Scalar], v: Sequence[Scalar],
                           order: int) -> "ScalarRationalJet | LaneJet":
    """The exact jet of t -> f(x + t v) over `ScalarRationalJet`s, handing
    over to a one-lane `LaneJet` past an irrational square root."""
    return run_tape(compile_tape(e.root),
                    [ScalarRationalJet.line(xi, vi, order)
                     for xi, vi in zip(x, v)],
                    lambda c: ScalarRationalJet.constant(c, order),
                    jet_sqrt, lambda body, default: body)


def laurent_series(e: Expr, x: Sequence[Scalar], v: Sequence[Scalar],
                   order: int) -> LaurentJet:
    """The jet of t -> f(x + t v) over `LaurentJet`s, floats for float x, v."""
    pad = (0,) * (order - 1)
    var_jets = [LaurentJet(0, (xi, vi) + pad, order) for xi, vi in zip(x, v)]
    return run_tape(compile_tape(e.root), var_jets,
                    lambda c: LaurentJet.constant(float(c), order),
                    LaurentJet.sqrt, lambda body, default: body)


def laurent_of(jet: RationalJet | LaneJet, lane: int = 0) -> LaurentJet:
    """A `RationalJet` with `Fraction` coefficients, or one lane of a
    `LaneJet` with float ones, as a `LaurentJet`."""
    if isinstance(jet, RationalJet):
        return LaurentJet(jet.valuation, jet.coefficients(), jet.order)
    return LaurentJet(jet.valuation, jet.coeffs[:, lane].tolist(), jet.order)


def rational_of(*jets: LaurentJet) -> RationalJet:
    """`LaurentJet`s with int and Fraction coefficients and one valuation
    and order as the lanes of a `RationalJet`."""
    if jets[0].is_zero:
        return RationalJet.zero(len(jets), jets[0].order)
    dens = [math.lcm(*(Fraction(c).denominator for c in jet.coeffs))
            for jet in jets]
    nums = np.array([[int(c * den) for c in jet.coeffs]
                     for jet, den in zip(jets, dens)], dtype=object).T
    return RationalJet(jets[0].valuation, nums, np.array(dens, dtype=object),
                       jets[0].order)


def rand_fraction(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_nonzero_fraction(rng: random.Random, span: int = 6) -> Fraction:
    while True:
        f = rand_fraction(rng, span)
        if f != 0:
            return f


def random_laurent(rng: random.Random, order: int, exact: bool = True,
                   min_val: int = -3, allow_zero: bool = False) -> LaurentJet:
    val = rng.randint(min_val, max(min_val, order - 2))
    length = order - val + 1
    coeffs = [rand_fraction(rng) for _ in range(length)]
    if not allow_zero:
        coeffs[0] = rand_nonzero_fraction(rng)
    if not exact:
        coeffs = [float(c) for c in coeffs]
    return LaurentJet(val, coeffs, order)


def random_poly_jet(rng: random.Random, order: int, degree: int,
                    exact: bool = True) -> LaurentJet:
    coeffs = [rand_fraction(rng) for _ in range(degree + 1)]
    coeffs += [Fraction(0)] * (order - degree)
    if not exact:
        coeffs = [float(c) for c in coeffs]
    return LaurentJet(0, coeffs, order)


def jets_agree(a: LaurentJet, b: LaurentJet, tol: float = 0.0,
               scale: float | None = None) -> bool:
    """Coefficientwise agreement on the intersection of trusted windows.

    With tol > 0 the comparison is relative, either to each coefficient pair
    or, when `scale` is given, to that uniform magnitude (use the size of the
    intermediate computation for roundtrips that amplify coefficients).
    """
    hi = min(a.order, b.order)
    lo = min(a.valuation, b.valuation)
    for i in range(lo, hi + 1):
        ca, cb = a.coeff(i), b.coeff(i)
        if tol == 0.0:
            if ca != cb:
                return False
        else:
            s = scale if scale is not None \
                else max(1.0, abs(float(ca)), abs(float(cb)))
            if abs(float(ca) - float(cb)) > tol * s:
                return False
    return True


def coeff_norm(a: LaurentJet) -> float:
    return max((abs(float(c)) for c in a.coeffs), default=0.0)


# --- random expression trees ----------------------------------------------------

def random_tree(rng: random.Random, nvars: int, depth: int):
    """Arbitrary well-formed node, used for parser/printer roundtrips."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Var(rng.randrange(nvars))
        return RationalConst(rand_fraction(rng, span=9))
    kind = rng.choice(("add", "sub", "mul", "div", "pow", "sqrt", "guard"))
    if kind in ("add", "sub", "mul", "div"):
        left = random_tree(rng, nvars, depth - 1)
        right = random_tree(rng, nvars, depth - 1)
        if kind == "div" and isinstance(left, RationalConst) \
                and isinstance(right, RationalConst):
            # the parser folds literal quotients, so never generate them
            right = Add(right, Var(rng.randrange(nvars)))
        return {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](left, right)
    if kind == "pow":
        return IntPow(random_tree(rng, nvars, depth - 1), rng.randint(0, 6))
    if kind == "sqrt":
        return Sqrt(random_tree(rng, nvars, depth - 1))
    return Guard(random_tree(rng, nvars, depth - 1), rand_fraction(rng, span=9))


def random_polynomial_expr(rng: random.Random, nvars: int, depth: int = 3) -> Expr:
    """A random polynomial expression (no division, sqrt, or guard)."""
    def node(d):
        if d <= 0 or rng.random() < 0.3:
            if rng.random() < 0.6:
                return Var(rng.randrange(nvars))
            return RationalConst(rand_fraction(rng))
        kind = rng.choice(("add", "sub", "mul", "pow"))
        if kind == "pow":
            return IntPow(node(d - 1), rng.randint(0, 3))
        cls = {"add": Add, "sub": Sub, "mul": Mul}[kind]
        return cls(node(d - 1), node(d - 1))
    return Expr(node(depth), nvars)


def random_safe_rational_expr(rng: random.Random, nvars: int) -> Expr:
    """Numerator / (square + positive constant): analytic everywhere."""
    num = random_polynomial_expr(rng, nvars, depth=3).root
    den_core = random_polynomial_expr(rng, nvars, depth=2).root
    den = Add(IntPow(den_core, 2), RationalConst(Fraction(rng.randint(1, 3))))
    return Expr(Div(num, den), nvars)


def random_arc(rng: random.Random, nvars: int, degree: int = 4,
               through=None) -> ArcSpec:
    """Random polynomial arc; `through` pins the basepoint gamma(0)."""
    rows = []
    for i in range(nvars):
        c0 = Fraction(through[i]) if through is not None else rand_fraction(rng)
        row = [c0] + [rand_fraction(rng, span=4) for _ in range(degree)]
        if all(c == 0 for c in row[1:]):
            row[1] = rand_nonzero_fraction(rng, span=4)
        rows.append(row)
    return arc_from_coeffs(rows)


def random_point(rng: random.Random, nvars: int, box: float = 1.0) -> tuple:
    return tuple(rng.uniform(-box, box) for _ in range(nvars))


# Coordinates on a small lattice, so denominators and radicands hit exact
# zeros; 3 and 5 make powers of 1100 overflow a float.
LATTICE = (-1.0, -0.5, 0.0, 0.5, 1.0, 3.0, 5.0)
FRACTIONS = [Fraction(p, q) for p in range(-2, 3) for q in (1, 2)]
# beyond the float range: float(BEYOND_FLOATS) raises OverflowError
BEYOND_FLOATS = Fraction(10 ** 400)


def trees(constants=FRACTIONS, exponents=(0, 1, 2, 3, 1100), nvars=2):
    """Random `+ - * / ^ sqrt guard` trees in `nvars` variables."""
    leaves = st.one_of(st.builds(Var, st.integers(0, nvars - 1)),
                       st.builds(RationalConst, st.sampled_from(constants)))

    def extend(children):
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(IntPow, children, st.sampled_from(exponents)),
            st.builds(Sqrt, children),
            st.builds(Guard, children, st.sampled_from(constants)))
    return st.recursive(leaves, extend, max_leaves=12)


# (exact, tree): exact powers of 1100 nest into integers too large to build
MODE_AND_TREE = st.one_of(
    st.tuples(st.just(False), trees(FRACTIONS + [BEYOND_FLOATS])),
    st.tuples(st.just(True), trees(FRACTIONS + [BEYOND_FLOATS], (0, 1, 2, 3))))


# --- the recursive pointwise walker (reference for the tape evaluator) ----------

def _const(value: Fraction, exact: bool) -> Scalar:
    return value if exact else float(value)


def _eval_point(node, x: Sequence[Scalar], exact: bool,
                strict: bool, flags: list) -> Scalar:
    if isinstance(node, RationalConst):
        return _const(node.value, exact)
    if isinstance(node, Var):
        return x[node.index]
    if isinstance(node, Add):
        return _eval_point(node.left, x, exact, strict, flags) \
            + _eval_point(node.right, x, exact, strict, flags)
    if isinstance(node, Sub):
        return _eval_point(node.left, x, exact, strict, flags) \
            - _eval_point(node.right, x, exact, strict, flags)
    if isinstance(node, Mul):
        return _eval_point(node.left, x, exact, strict, flags) \
            * _eval_point(node.right, x, exact, strict, flags)
    if isinstance(node, Div):
        num = _eval_point(node.left, x, exact, strict, flags)
        den = _eval_point(node.right, x, exact, strict, flags)
        if den == 0:
            raise ZeroDenominator("division by zero")
        return num / den if not exact else _frac_div(num, den)
    if isinstance(node, IntPow):
        base = _eval_point(node.base, x, exact, strict, flags)
        try:
            return base ** node.exponent
        except OverflowError as exc:
            raise FloatOverflow(
                f"{base!r} ** {node.exponent} overflows a float") from exc
    if isinstance(node, Sqrt):
        arg = _eval_point(node.arg, x, exact, strict, flags)
        if arg < 0:
            raise DomainError(f"sqrt of negative value {arg}")
        if strict and arg == 0:
            raise DomainError("sqrt radicand vanishes")
        return sqrt_scalar(arg)
    if isinstance(node, Guard):
        if strict:
            return _eval_point(node.body, x, exact, strict, flags)
        try:
            return _eval_point(node.body, x, exact, strict, flags)
        except ZeroDenominator:
            flags.append(node)
            return _const(node.default, exact)
    raise TypeError(f"not an expression node: {node!r}")


def _frac_div(num: Scalar, den: Scalar) -> Scalar:
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def walker_eval_point_flagged(e: Expr, x: Sequence[Scalar], exact: bool = False):
    """Pointwise value plus a flag telling whether any guard fired at x."""
    if len(x) != e.nvars:
        raise ValueError(f"point has {len(x)} coordinates, expression has {e.nvars}")
    xs = tuple(x) if exact else tuple(float(c) for c in x)
    flags: list = []
    value = _eval_point(e.root, xs, exact, False, flags)
    return value, bool(flags)


def walker_regular_at(e: Expr, x: Sequence[Scalar], exact: bool = False) -> bool:
    """True when x avoids every denominator zero and sqrt boundary."""
    xs = tuple(x) if exact else tuple(float(c) for c in x)
    try:
        _eval_point(e.root, xs, exact, True, [])
    except (DomainError, ZeroDenominator):
        return False
    return True


def walker_finds_regular(e: Expr, x: Sequence[Scalar],
                         exact: bool = False) -> bool:
    """Whether `walker_regular_at` returns True: an error it raises (an
    overflow, or a float divided by an exact value that rounds to 0) is
    not regular."""
    try:
        return walker_regular_at(e, x, exact)
    except Exception:
        return False


# --- the recursive structural walkers (reference for the tape passes) -----------

def _contains(node, kind) -> bool:
    if isinstance(node, kind):
        return True
    return any(_contains(child, kind) for child in _children(node))


def _children(node) -> tuple:
    if isinstance(node, (Add, Sub, Mul, Div)):
        return node.left, node.right
    if isinstance(node, IntPow):
        return (node.base,)
    if isinstance(node, Sqrt):
        return (node.arg,)
    if isinstance(node, Guard):
        return (node.body,)
    return ()


def walker_to_fraction_pair(node, nvars: int, budget: mpoly.Budget):
    """Flatten a subtree free of sqrt and guard nodes to (numerator,
    denominator)."""
    if isinstance(node, RationalConst):
        return mpoly.p_const(node.value, nvars), mpoly.p_const(Fraction(1), nvars)
    if isinstance(node, Var):
        return mpoly.p_var(node.index, nvars), mpoly.p_const(Fraction(1), nvars)
    if isinstance(node, (Add, Sub)):
        n1, d1 = walker_to_fraction_pair(node.left, nvars, budget)
        n2, d2 = walker_to_fraction_pair(node.right, nvars, budget)
        if isinstance(node, Sub):
            n2 = {e: -c for e, c in n2.items()}
        return mpoly.p_add(mpoly.p_mul(n1, d2, budget),
                           mpoly.p_mul(n2, d1, budget)), \
            mpoly.p_mul(d1, d2, budget)
    if isinstance(node, Mul):
        lhs = walker_to_fraction_pair(node.left, nvars, budget)
        rhs = walker_to_fraction_pair(node.right, nvars, budget)
        return mpoly.p_mul(lhs[0], rhs[0], budget), \
            mpoly.p_mul(lhs[1], rhs[1], budget)
    if isinstance(node, Div):
        lhs = walker_to_fraction_pair(node.left, nvars, budget)
        rhs = walker_to_fraction_pair(node.right, nvars, budget)
        if not rhs[0]:
            raise ZeroDivisionError("division by an identically zero denominator")
        return mpoly.p_mul(lhs[0], rhs[1], budget), \
            mpoly.p_mul(lhs[1], rhs[0], budget)
    if isinstance(node, IntPow):
        num, den = walker_to_fraction_pair(node.base, nvars, budget)
        return mpoly.p_pow(num, node.exponent, nvars, budget), \
            mpoly.p_pow(den, node.exponent, nvars, budget)
    raise TypeError(f"not a rational expression node: {node!r}")


def _walker_cancel(node, s_index: int, nvars: int, budget: mpoly.Budget):
    """Expand rational division subtrees and strip their common s-power."""
    if isinstance(node, Div):
        if not _contains(node, (Sqrt, Guard)):
            num, den = walker_to_fraction_pair(node, nvars, budget)
            vn = min((m[s_index] for m in num), default=None)
            vd = min((m[s_index] for m in den), default=None)
            if vd is None:
                raise ZeroDivisionError("identically zero denominator")
            c = vd if vn is None else min(vn, vd)
            num = mpoly.shift_down(num, s_index, c)
            den = mpoly.shift_down(den, s_index, c)
            return Div(mpoly.to_node(num, nvars), mpoly.to_node(den, nvars)), \
                c, False
        left, cl, _ = _walker_cancel(node.left, s_index, nvars, budget)
        right, cr, _ = _walker_cancel(node.right, s_index, nvars, budget)
        return Div(left, right), cl + cr, True
    if isinstance(node, (Add, Sub, Mul)):
        left, cl, fl = _walker_cancel(node.left, s_index, nvars, budget)
        right, cr, fr = _walker_cancel(node.right, s_index, nvars, budget)
        return type(node)(left, right), cl + cr, fl or fr
    if isinstance(node, IntPow):
        base, c, f = _walker_cancel(node.base, s_index, nvars, budget)
        return IntPow(base, node.exponent), c, f
    if isinstance(node, Sqrt):
        arg, c, f = _walker_cancel(node.arg, s_index, nvars, budget)
        return Sqrt(arg), c, f
    if isinstance(node, Guard):
        body, c, f = _walker_cancel(node.body, s_index, nvars, budget)
        return Guard(body, node.default), c, f
    return node, 0, False


def walker_pullback(e: Expr, chart: BlowupChart) -> PullbackResult:
    """Substitute chart coordinates and cancel each division's s-power."""
    if e.nvars != chart.nvars:
        raise ValueError("chart and expression dimensions differ")
    substituted = walker_substitute(e.root, chart.substitution_map())
    simplified, cancelled, non_rational = _walker_cancel(
        substituted, chart.axis, e.nvars, mpoly.Budget())
    return PullbackResult(Expr(simplified, e.nvars), cancelled, non_rational,
                          chart)


def walker_substitute(node, mapping: dict):
    """Replace each Var(i) present in `mapping` by the given node."""
    if isinstance(node, Var):
        return mapping.get(node.index, node)
    if isinstance(node, (Add, Sub, Mul, Div)):
        return type(node)(walker_substitute(node.left, mapping),
                          walker_substitute(node.right, mapping))
    if isinstance(node, IntPow):
        return IntPow(walker_substitute(node.base, mapping), node.exponent)
    if isinstance(node, Sqrt):
        return Sqrt(walker_substitute(node.arg, mapping))
    if isinstance(node, Guard):
        return Guard(walker_substitute(node.body, mapping), node.default)
    return node


def walker_is_polynomial(node) -> bool:
    """True when the node evaluates to a polynomial of the variables."""
    if isinstance(node, (RationalConst, Var)):
        return True
    if isinstance(node, (Add, Sub, Mul)):
        return walker_is_polynomial(node.left) \
            and walker_is_polynomial(node.right)
    if isinstance(node, Div):
        if _contains(node.right, (Var, Sqrt, Guard)):
            return False
        try:
            divisor = _eval_point(node.right, (), True, False, [])
        except ZeroDenominator:
            return False
        return divisor != 0 and walker_is_polynomial(node.left)
    if isinstance(node, IntPow):
        return walker_is_polynomial(node.base)
    return False


def walker_to_text(e: Expr, names: Sequence[str] = ()) -> str:
    """Fully parenthesized canonical form."""
    return _print(e.root, names or [var_name(i, e.nvars)
                                    for i in range(e.nvars)])


def _print(node, names: Sequence[str]) -> str:
    if isinstance(node, RationalConst):
        text = str(node.value)
        if node.value < 0 or node.value.denominator != 1:
            return f"({text})"
        return text
    if isinstance(node, Var):
        return names[node.index]
    if isinstance(node, (Add, Sub, Mul, Div)):
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(node)]
        return f"({_print(node.left, names)} {op} {_print(node.right, names)})"
    if isinstance(node, IntPow):
        return f"({_print(node.base, names)} ^ {node.exponent})"
    if isinstance(node, Sqrt):
        return f"sqrt({_print(node.arg, names)})"
    if isinstance(node, Guard):
        return f"guard({_print(node.body, names)}, {node.default})"
    raise TypeError(f"not an expression node: {node!r}")


# --- exact jets over Fraction coefficients (reference for RationalJet) ----------

def fraction_gateaux_series(e: Expr, x: Sequence[Scalar], v: Sequence[Scalar],
                            order: int) -> LaurentJet:
    """Exact jet of t -> f(x + t v), every coefficient a reduced Fraction."""
    pad = (0,) * (order - 1)
    var_jets = [LaurentJet(0, (xi, vi) + pad, order) for xi, vi in zip(x, v)]
    return run_tape(compile_tape(e.root), var_jets,
                    lambda c: LaurentJet.constant(c, order), LaurentJet.sqrt,
                    lambda body, default: body)


# --- the Fraction-sum evaluation (reference for HomoPoly's integer path) --------

def _mono_value(exponents: tuple[int, ...], v: Sequence[Scalar]) -> Scalar:
    acc = 1
    for base, e in zip(v, exponents):
        if e:
            acc = acc * base ** e
    return acc


def fraction_sum_value(p: HomoPoly, v: Sequence[Scalar]) -> Scalar:
    """p(v) as the sum of c * v^e over the nonzero coefficients, each term
    in the coefficients' and coordinates' own arithmetic."""
    exps = monomials(p.nvars, p.degree)
    return sum(c * _mono_value(e, v) for c, e in zip(p.coeffs, exps) if c != 0)


def fraction_sum_derivative(p: HomoPoly, v: Sequence[Scalar]) -> Scalar:
    """sum_i v_i * dp/dv_i at v, term by term in the inputs' own arithmetic."""
    exps = monomials(p.nvars, p.degree)
    total = 0
    for c, e in zip(p.coeffs, exps):
        if c == 0:
            continue
        for i, ei in enumerate(e):
            if ei == 0:
                continue
            term = c * ei
            for l, el in enumerate(e):
                power = el - (1 if l == i else 0)
                if power:
                    term = term * v[l] ** power
            total += term * v[i]
    return total


# --- the per-seed QR (reference for the permuted canonical design) -------------

def qr_residuals(directions: Sequence[Sequence[float]], values: Sequence[float],
                 n: int, k: int) -> np.ndarray:
    """|h - Q Qᵀ h| for V = QR, V the degree-k evaluation matrix of the
    directions and h their values."""
    q, _ = np.linalg.qr(evaluation_matrix(directions, n, k))
    h = np.asarray(values, dtype=float)
    return np.abs(h - q @ (q.T @ h))


def eager_least_squares_fit(values: Sequence[Scalar], n: int, k: int):
    """The form R⁻¹Qᵀh solved at once, its residuals |h - Q Qᵀ h| and the
    scale 1 + max |h|, on the canonical unit rows' factors."""
    q, r_inv = canonical_design(n).factors(k)
    h = np.asarray(values, dtype=float)
    projection = q.T @ h
    fitted = HomoPoly(n, k, tuple((r_inv @ projection + 0.0).tolist()))
    return fitted, np.abs(h - q @ projection), 1.0 + float(np.abs(h).max())


def list_order_result(jets, shortage: str, k: int, tol: float,
                      point_value: Scalar | None):
    """`classify._order_result` of a float ladder as it ran before float
    residuals travelled as one array: h_k read as a list of Python scalars
    (`taylor_column` per pass, `taylor_coeff` per rerun), the least-squares
    fit's residuals `tolist()`-ed, the point value appended at k = 0, a
    per-residual exactness scan, and the largest residual taken by `max`
    over the list, in its own `np.errstate`."""
    from arcan.classify import PolyTestResult
    assert not jets.exact
    n = jets.directions.shape[1]
    count = 2 * dim_homog(n, k)
    if count > len(jets.directions):
        raise GenericityFailure(shortage)
    values: list = []
    try:
        for p, (start, stop) in enumerate(zip(jets._starts, jets._stops)):
            if start >= count:
                break
            stop = min(count, stop)
            batch = jets.batch(p)
            values += [jets.jet(i).taylor_coeff(k) for i in range(start, stop)] \
                if batch is None else batch.taylor_column(k, stop - start)
    except PoleAtOrigin:
        bad = next(i for i in range(count) if jets.has_pole(i))
        return PolyTestResult(k, None, (), 1.0, tol,
                              tuple(jets.directions[bad].tolist()))
    with np.errstate(over="ignore", invalid="ignore"):
        fitted, residuals, scale = eager_least_squares_fit(values, n, k)
    if not np.isfinite(residuals).all():
        raise FloatOverflow(
            f"order {k}: h_{k} or its residuals overflow the float "
            "range; --mode rational evaluates rational inputs exactly")
    residuals = residuals.tolist()
    if k == 0 and point_value is not None:
        residuals.append(abs(fitted.coeffs[0] - point_value))
    exact = all(isinstance(r, (int, Fraction)) for r in residuals)
    return PolyTestResult(k, fitted, tuple(residuals), scale,
                          0.0 if exact else tol * scale,
                          worst=max(residuals, default=0))


def permuted_rows(flip, count: int) -> list[tuple[int, ...]]:
    """The canonical design's first `count` integer rows under `flip`."""
    rows = canonical_design(len(flip)).rows(count)
    return [tuple(s * u[i] for i, s in flip) for u in rows]


def seeded_exact_fit(values: Sequence[Scalar], flip, k: int):
    """The exact fit of `values` along the permuted rows: the form solved on
    the first d(n, k) rows' own evaluation matrix, and |h - p(w)| from
    `HomoPoly.__call__` on the others."""
    n = len(flip)
    d = dim_homog(n, k)
    rows = permuted_rows(flip, len(values))
    matrix = [[math.prod(c ** e for c, e in zip(w, exps))
               for exps in monomials(n, k)] for w in rows[:d]]
    fitted = HomoPoly(n, k, tuple(solve_rational(matrix, values[:d])))
    return fitted, [abs(h - fitted(w)) for h, w in zip(values[d:], rows[d:])]


def scale_rows(rows: Sequence[Sequence], rhs: Sequence
               ) -> tuple[list[list[int]], list[Fraction]]:
    """Integer rows A' and b' with A x = b iff A' x = b': each row and its
    right-hand side entry scaled by the row's common denominator."""
    scaled, scaled_b = [], []
    for row, b in zip(rows, rhs):
        entries = [Fraction(v) for v in row]
        scale = math.lcm(*(e.denominator for e in entries))
        scaled.append([int(e * scale) for e in entries])
        scaled_b.append(Fraction(b) * scale)
    return scaled, scaled_b


def solve_rational(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """A x = b exactly for a square A of ints or Fractions, its rows scaled
    to integers (`scale_rows`) and solved on a fresh `IntegerSystem`."""
    if len(rhs) != len(rows):
        raise ValueError("need a square system with matching right-hand side")
    scaled, scaled_b = scale_rows(rows, rhs)
    return IntegerSystem(scaled).solve(scaled_b)


# --- signed permutations of the coordinates (the former ladder seeds) -----------

def signed_permutation(seed: int, n: int) -> tuple[tuple[int, int], ...]:
    """The signed permutation M a ladder seed picked, as a pair (i, sign)
    per coordinate j of u M: (u M)_j = sign * u[i].  M is integer and
    orthogonal, so V_k(U M) is V_k(U) with columns permuted and negated:
    rank, condition and parallel rows do not depend on it."""
    rng = random.Random(derive_seed(seed, "directions", n))
    sources = list(range(n))
    rng.shuffle(sources)
    return tuple((i, rng.choice((1, -1))) for i in sources)


def signed_permutations(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every signed permutation of n coordinates, 2^n n!, identity first,
    in `signed_permutation`'s form."""
    return [tuple(zip(p, s)) for p in itertools.permutations(range(n))
            for s in itertools.product((1, -1), repeat=n)]


def permuted(e: Expr, x: Sequence[Scalar], flip) -> tuple[Expr, tuple]:
    """g = f∘M and y = x M⁻¹ for the signed permutation M = `flip`.

    g(y + t u) = f(x + t u M), so g's ladder at y on the canonical rows U
    reads the jets f's ladder at x read along U M, as under a seed that
    picked M: in value and type when exact, and bit for bit in floats
    (negation is exact).
    """
    g = substitute(e.root, {j: Var(i) if s > 0
                            else Mul(RationalConst(Fraction(-1)), Var(i))
                            for j, (i, s) in enumerate(flip)})
    y = [None] * len(flip)
    for j, (i, s) in enumerate(flip):
        y[i] = x[j] if s > 0 else -x[j]
    return Expr(g, e.nvars), tuple(y)


def permuted_form(p: HomoPoly, flip) -> HomoPoly:
    """The form u -> p(u M) for the signed permutation M = `flip`: v^a
    becomes sign(a)·u^b, where b[i] = a[j] for (u M)_j = ±u[i]."""
    coeffs = {}
    for c, a in zip(p.coeffs, monomials(p.nvars, p.degree)):
        b, sign = [0] * p.nvars, 1
        for j, (i, s) in enumerate(flip):
            b[i] = a[j]
            sign *= s ** a[j]
        coeffs[tuple(b)] = sign * c
    return HomoPoly(p.nvars, p.degree,
                    tuple(coeffs[b] for b in monomials(p.nvars, p.degree)))


# --- tools only the tests use ----------------------------------------------------

def arc_from_coeffs(rows: Sequence[Sequence[Scalar]]) -> ArcSpec:
    """Build an arc from per-component coefficient lists (low degree first)."""
    comps = []
    for row in rows:
        node = RationalConst(Fraction(0))
        for i, c in enumerate(row):
            if c == 0:
                continue
            term = RationalConst(Fraction(c))
            if i >= 1:
                tnode = Var(0) if i == 1 else IntPow(Var(0), i)
                term = Mul(term, tnode) if Fraction(c) != 1 else tnode
            node = term if node == RationalConst(Fraction(0)) else Add(node, term)
        comps.append(Expr(node, 1))
    return ArcSpec(tuple(comps))


def chart_apply(chart: BlowupChart, chart_point: Sequence[Scalar]) -> tuple:
    """Map chart coordinates to the original coordinates."""
    s = chart_point[chart.axis]
    out = list(chart_point)
    for i in chart.center:
        if i != chart.axis:
            out[i] = s * chart_point[i]
    return tuple(out)


def jacobian_power(chart: BlowupChart) -> int:
    """The chart map's Jacobian determinant is s to this power."""
    return len(chart.center) - 1


def chart_invert(chart: BlowupChart, base_point: Sequence[Scalar]) -> tuple:
    """Chart coordinates over a base point with nonzero axis coordinate."""
    s = base_point[chart.axis]
    if s == 0:
        raise ValueError("point lies over the center; chart inverse undefined")
    out = list(base_point)
    for i in chart.center:
        if i != chart.axis:
            out[i] = base_point[i] / s
    return tuple(out)


def pullback_sequence(e: Expr, charts: Sequence[BlowupChart]) -> PullbackResult:
    """Fold `pullback` over successive charts, each in its own frame.

    No global atlas is kept: the k-th chart acts on the coordinates produced
    by the (k-1)-th.  Cancelled powers accumulate and the non-rational flag
    sticks once set; the reported chart is the last one applied.
    """
    if not charts:
        raise ValueError("need at least one chart")
    cancelled = 0
    non_rational = False
    for chart in charts:
        result = pullback(e, chart)
        e = result.expr
        cancelled += result.cancelled_power
        non_rational = non_rational or result.non_rational
    return PullbackResult(e, cancelled, non_rational, charts[-1])


def eval_poly(jet: LaurentJet, t: Scalar) -> Scalar:
    """A jet's retained terms as a (Laurent) polynomial, evaluated at t != 0."""
    acc = 0
    for c in reversed(jet.coeffs):
        acc = acc * t + c
    return acc * t ** jet.valuation if jet.coeffs else 0 * t


def unit_vector(rng: random.Random, n: int) -> tuple[float, ...]:
    """A uniformly distributed direction on the unit sphere of R^n."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = sum(c * c for c in v) ** 0.5
        if norm > 1e-8:
            return tuple(c / norm for c in v)


def arc_analytic_entries() -> tuple[CorpusEntry, ...]:
    """The corpus entries tagged arc-analytic."""
    return tuple(e for e in corpus_list() if ARC_ANALYTIC in e.tags)
