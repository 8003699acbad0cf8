"""Exact dense linear solve over the rationals, on prepared integer systems.

Sized for interpolation systems of a few dozen unknowns.  An
`IntegerSystem` holds a square integer matrix `A` and what every solve
`A x = b` on it reuses, so a matrix solved for many right-hand sides pays
its setup once: the ladder keeps one per canonical block, in the design
budget (`homog.LatticeDesign.system`).  Systems of `DIXON_MIN_SIZE`
unknowns or more are solved by Dixon's p-adic lifting (J. D. Dixon, "Exact
solution of linear equations using p-adic expansions", Numer. Math. 40,
1982): `A` is inverted once, when the system is prepared, modulo the
word-size prime `P` by Gauss-Jordan in numpy `int64`.  A solve scales `b`
to integers over one common denominator and adds one base-`P` digit of the
solution per lifting step,

    x_i = A^-1 r (mod P),    r <- (r - A x_i) / P,

and rational reconstruction turns the `P`-adic approximation into
fractions.  The product `A x_i` runs in int64 when it cannot overflow and
on Python ints otherwise, so large entries need no other path.
Reconstruction is tried after 2, 4, 8, ... steps, and a candidate is
accepted only when the integer identity `A num = b den` holds exactly, so
an early exit is certified, not guessed.  The steps stop for good at the
Hadamard bound, which makes reconstruction unique; the rows' squared norms
it reads are kept with the system.

Smaller systems, and systems whose matrix is singular modulo `P`, go to
Bareiss's fraction-free elimination (`solve_bareiss`) on every solve:
every division is exact, keeping entries at determinant-minor size, and
back-substitution runs in rational arithmetic.  It raises
`SingularSystem` for a matrix that is singular over the rationals.  Exact
solutions are unique, so both paths return the same fractions.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SingularSystem

# The largest prime below 2**26: a product of two residues stays below
# 2**52, so an int64 dot product of up to 2**11 such terms cannot overflow.
P = 67108859
# Below this many unknowns Bareiss is faster than a lifting solve on a
# prepared system, whose fixed cost is a few numpy round trips: on the
# ladder's exact fits (CPython 3.11, one Xeon core), one unknown takes
# 11 us by Bareiss and 15 us by lifting, two take 30 and 19 us, ten 556
# and 51 us.
DIXON_MIN_SIZE = 2
_INT64_LIMIT = 2 ** 63


class IntegerSystem:
    """A square integer matrix A, prepared for exact solves A x = b.

    Holds A's `rows`; the `matrix` the lifting multiplies by, in int64 where
    A x_i cannot overflow and as Python ints otherwise; the `inverse` of A
    modulo P, or None where Bareiss answers (fewer than DIXON_MIN_SIZE
    unknowns, more than an int64 dot product of residues allows, or P
    divides det A, as for every matrix singular over the rationals); and
    each row's squared norm (`norms`) for the step cap.
    The rows are tuples and the arrays read-only: `solve` keeps no state.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = tuple(tuple(map(operator.index, row)) for row in rows)
        m = len(self.rows)
        if any(len(row) != m for row in self.rows):
            raise ValueError("need a square matrix")
        self.norms = tuple(sum(v * v for v in row) for row in self.rows)
        self.matrix = self.inverse = None
        if m < DIXON_MIN_SIZE or m * (P - 1) ** 2 >= _INT64_LIMIT:
            return
        top = max(abs(v) for row in self.rows for v in row)
        matrix = np.array(self.rows, dtype=np.int64
                          if top * m * (P - 1) < _INT64_LIMIT else object)
        inverse = _inverse_mod_p((matrix % P).astype(np.int64))
        if inverse is not None:
            matrix.flags.writeable = inverse.flags.writeable = False
            self.matrix, self.inverse = matrix, inverse

    @cached_property
    def nbytes(self) -> int:
        """Bytes the system adds to the rows it was given: its tuples, its
        norms and its arrays.  The row entries are the caller's own int
        objects (`operator.index` returns an int as it is)."""
        arrays = [a for a in (self.matrix, self.inverse) if a is not None]
        return sum(map(sys.getsizeof, (self.rows, self.norms, *self.rows,
                                       *self.norms))) \
            + sum(a.nbytes for a in arrays)

    def solve(self, rhs: Sequence) -> list[Fraction]:
        """The x with A x = rhs (ints or Fractions), as Fractions; raises
        SingularSystem if A is singular over the rationals."""
        if len(rhs) != len(self.rows):
            raise ValueError("need one right-hand side entry per row")
        if self.inverse is not None:
            x = self._lift(rhs)
            if x is not None:
                return x
        return solve_bareiss(self.rows, rhs)

    def _lift(self, rhs: Sequence) -> list[Fraction] | None:
        """P-adic lifting with certified rational reconstruction; None when
        no candidate passes the certificate by the Hadamard step cap, which
        the bound rules out."""
        b = [Fraction(v) for v in rhs]
        den_b = math.lcm(*(v.denominator for v in b))
        c = [v.numerator * (den_b // v.denominator) for v in b]
        a, a_mat, inverse = self.rows, self.matrix, self.inverse
        r = c
        approx = [0] * len(a)
        modulus = 1
        steps, next_try, cap = 0, 2, None
        while True:
            digits = (inverse @ np.array([v % P for v in r], dtype=np.int64)) % P
            approx = [s + d * modulus for s, d in zip(approx, digits.tolist())]
            modulus *= P
            steps += 1
            if steps == next_try or steps == cap:
                found = _reconstruct(approx, modulus)
                if found is not None and _certified(a, c, *found):
                    nums, den = found
                    den *= den_b
                    return [Fraction(v, den) for v in nums]
                if cap is None:
                    cap = _step_cap(self.norms, c)
                if steps >= cap:
                    return None
                next_try = min(2 * steps, cap)
            shift = (a_mat @ digits.astype(a_mat.dtype)).tolist()
            r = [(v - s) // P for v, s in zip(r, shift)]


def solve_bareiss(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Fraction-free Gaussian elimination; raises SingularSystem."""
    m = len(rows)
    aug = []
    for row, b in zip(rows, rhs):
        entries = [Fraction(v) for v in row] + [Fraction(b)]
        scale = math.lcm(*(e.denominator for e in entries))
        aug.append([int(e * scale) for e in entries])

    prev = 1
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularSystem(f"no pivot in column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, m):
            row_r, row_c = aug[r], aug[col]
            factor = row_r[col]
            for c in range(col + 1, m + 1):
                row_r[c] = (pivot * row_r[c] - factor * row_c[c]) // prev
            row_r[col] = 0
        prev = pivot

    x: list[Fraction] = [Fraction(0)] * m
    for r in range(m - 1, -1, -1):
        acc = Fraction(aug[r][m])
        for c in range(r + 1, m):
            acc -= aug[r][c] * x[c]
        x[r] = acc / aug[r][r]
    return x


def _inverse_mod_p(a: np.ndarray) -> np.ndarray | None:
    """A^-1 mod P by Gauss-Jordan on [A | I] in int64, or None if singular.

    `a` holds residues in [0, P).  A row swap also swaps the two identity
    columns it disturbed, so before step `col` the columns left of it are
    unit vectors and those right of m + col still identity columns: each
    step updates only the block between, and the column swaps are undone
    at the end.
    """
    m = len(a)
    work = np.concatenate([a, np.eye(m, dtype=np.int64)], axis=1)
    swaps = []
    for col in range(m):
        nonzero = np.flatnonzero(work[col:, col])
        if len(nonzero) == 0:
            return None
        pivot = col + int(nonzero[0])
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            work[:, [m + col, m + pivot]] = work[:, [m + pivot, m + col]]
            swaps.append((m + col, m + pivot))
        block = work[:, col:m + col + 1]
        block[col] = block[col] * pow(int(block[col, 0]), -1, P) % P
        factors = block[:, 0].copy()
        factors[col] = 0
        block -= factors[:, None] * block[col]
        block %= P
    for i, j in reversed(swaps):
        work[:, [i, j]] = work[:, [j, i]]
    return work[:, m:]


def _reconstruct(approx: list[int], modulus: int) -> tuple[list[int], int] | None:
    """Numerators over one common denominator, each within the balanced
    bound sqrt(modulus / 2), congruent to `approx`; None if there are none.

    A component whose value times the running denominator already lies
    within the bound needs no extended Euclid.
    """
    half = modulus // 2
    bound = math.isqrt(half)
    nums: list[int] = []
    den = 1
    for value in approx:
        u = value * den % modulus
        if u > half:
            u -= modulus
        if abs(u) > bound:
            pair = _rational_reconstruction(u, modulus, bound)
            if pair is None:
                return None
            u, d = pair
            den *= d
            if den > bound:
                return None
            nums = [v * d for v in nums]
        nums.append(u)
    return nums, den


def _rational_reconstruction(u: int, modulus: int, bound: int):
    """(n, d) with n = u d (mod modulus), |n| <= bound, 0 < d <= bound."""
    r0, r1 = modulus, u % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _certified(a: Sequence[Sequence[int]], c: list[int], nums: list[int],
               den: int) -> bool:
    """The exact integer identity A nums = c den."""
    return all(sum(map(operator.mul, row, nums)) == ci * den
               for row, ci in zip(a, c))


def _step_cap(norms: Sequence[int], c: list[int]) -> int:
    """Lifting steps after which P**steps > 2 max(N, D)**2, for rows of
    squared norms `norms` and the integer right-hand side c.

    By Cramer's rule and Hadamard's inequality the solution is y / det A
    with |y_j|, |det A| <= prod_i |(A_i, c_i)|; reconstruction with the
    balanced bound is unique once the modulus exceeds twice its square.
    """
    log2_bound = sum(math.log2(norm + ci * ci)
                     for norm, ci in zip(norms, c)) / 2
    return math.ceil((1 + 2 * log2_bound) / math.log2(P)) + 1
