"""Exact dense linear solve over the rationals.

Sized for interpolation systems of a few dozen unknowns.  Each row of
`A x = b` is scaled to integers and the right-hand side to one common
denominator.  Systems of `DIXON_MIN_SIZE` unknowns or more are solved by
Dixon's p-adic lifting (J. D. Dixon, "Exact solution of linear equations
using p-adic expansions", Numer. Math. 40, 1982): `A` is inverted once
modulo the word-size prime `P` by Gauss-Jordan in numpy `int64`, then each
lifting step adds one base-`P` digit of the solution,

    x_i = A^-1 r (mod P),    r <- (r - A x_i) / P,

and rational reconstruction turns the `P`-adic approximation into
fractions.  The product `A x_i` runs in int64 when it cannot overflow and
on Python ints otherwise, so large entries need no other path.
Reconstruction is tried after 2, 4, 8, ... steps, and a candidate is
accepted only when the integer identity `A num = b den` holds exactly, so
an early exit is certified, not guessed.  The steps stop for good at the
Hadamard bound, which makes reconstruction unique.

Smaller systems, and systems whose matrix is singular modulo `P`, go to
Bareiss's fraction-free elimination (`solve_bareiss`): every division is
exact, keeping entries at determinant-minor size, and back-substitution
runs in rational arithmetic.  It raises `SingularSystem` for a matrix that
is singular over the rationals.  Exact solutions are unique, so both paths
return the same fractions.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import SingularSystem

# The largest prime below 2**26: a product of two residues stays below
# 2**52, so an int64 dot product of up to 2**11 such terms cannot overflow.
P = 67108859
# Below this many unknowns Bareiss is faster than the lifting's fixed cost
# (one modular inverse and a few numpy round trips).
DIXON_MIN_SIZE = 5
_INT64_LIMIT = 2 ** 63


def solve_exact(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Solve A x = b exactly; entries may be ints or Fractions."""
    m = len(rows)
    if any(len(r) != m for r in rows) or len(rhs) != m:
        raise ValueError("need a square system with matching right-hand side")
    if m >= DIXON_MIN_SIZE:
        x = solve_dixon(rows, rhs)
        if x is not None:
            return x
    return solve_bareiss(rows, rhs)


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


def solve_dixon(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """P-adic lifting with certified rational reconstruction.

    Returns None when P divides det A (which includes every matrix singular
    over the rationals), or, which the Hadamard bound rules out, when no
    candidate passes the certificate by that bound; the caller then falls
    back to Bareiss.
    """
    m = len(rows)
    if m * (P - 1) ** 2 >= _INT64_LIMIT:
        return None
    a, c, den_b = _integer_system(rows, rhs)
    # The matvec A x_i (0 <= x_i < P) runs in int64 when it cannot
    # overflow, else on Python ints.
    try:
        a_mat = np.array(a, dtype=np.int64)
        fits = max(-int(a_mat.min()), int(a_mat.max())) * m * (P - 1) \
            < _INT64_LIMIT
    except OverflowError:
        fits = False
    if not fits:
        a_mat = np.array(a, dtype=object)
    inverse = _inverse_mod_p((a_mat % P).astype(np.int64))
    if inverse is None:
        return None

    r = c
    approx = [0] * m
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
                cap = _step_cap(a, c)
            if steps >= cap:
                return None
            next_try = min(2 * steps, cap)
        shift = (a_mat @ digits.astype(a_mat.dtype)).tolist()
        r = [(v - s) // P for v, s in zip(r, shift)]


def _integer_system(rows, rhs) -> tuple[list[list[int]], list[int], int]:
    """Integer A' and c with A x = b iff A' (den x) = c."""
    a, scaled_b = [], []
    for row, b in zip(rows, rhs):
        if set(map(type, row)) <= {int}:
            a.append(list(row))
            scaled_b.append(Fraction(b))
            continue
        entries = [Fraction(v) for v in row]
        scale = math.lcm(*(e.denominator for e in entries))
        a.append([int(e * scale) for e in entries])
        scaled_b.append(Fraction(b) * scale)
    den = math.lcm(*(b.denominator for b in scaled_b))
    c = [b.numerator * (den // b.denominator) for b in scaled_b]
    return a, c, den


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


def _certified(a: list[list[int]], c: list[int], nums: list[int], den: int) -> bool:
    """The exact integer identity A nums = c den."""
    return all(sum(map(operator.mul, row, nums)) == ci * den
               for row, ci in zip(a, c))


def _step_cap(a: list[list[int]], c: list[int]) -> int:
    """Lifting steps after which P**steps > 2 max(N, D)**2.

    By Cramer's rule and Hadamard's inequality the solution is y / det A
    with |y_j|, |det A| <= prod_i |(A_i, c_i)|; reconstruction with the
    balanced bound is unique once the modulus exceeds twice its square.
    """
    log2_bound = sum(math.log2(sum(v * v for v in row) + ci * ci)
                     for row, ci in zip(a, c)) / 2
    return math.ceil((1 + 2 * log2_bound) / math.log2(P)) + 1
