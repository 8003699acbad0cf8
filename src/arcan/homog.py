"""Homogeneous polynomials, the direction design, the fit, and two identities.

The space of degree-k homogeneous polynomials in n variables has dimension
C(n+k-1, k), one coefficient per exponent vector summing to k; coefficients
are stored in graded-lexicographic order (descending lex within the fixed
degree).  Every direction arcan samples is a row of one canonical design
per n (`LatticeDesign`), as it is: its integer rows in rational mode, the
rows scaled to unit length in float mode.  `interp_fit`, the one fit of
both arithmetics, fits on what is built once per (n, k): the unit rows'
QR `factors`, or the integer `block` and its prepared exact `system`.

`fd_reconstruct` evaluates the finite-difference identity

    P(v) = (1/k!) * sum_{s=0..k} (-1)^(k-s) * C(k,s) * P(a + s v),

valid for every degree-k homogeneous P and every shift a, and
`shrink_bound_check` samples the companion sup-bound transfer: |P| <= L on
a shifted starlike region forces |P| <= L * 2^k / k! on the region scaled
by 1/k, hence |P| <= L on the region scaled by 1/(2e).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import GenericityFailure, PremiseViolated, SingularSystem
from .jets import Scalar
from .linalg import IntegerSystem
from .seeds import derive_seed, lattice_vector

# Bytes of QR factors, integer blocks and exact systems the canonical
# designs keep, every n together: ~0.3 MB of factors at n=3, k_max 10, but
# ~1.1 GB at k_max 60, whose orders beyond the budget are computed again
# per point.
MAX_DESIGN_BYTES = 64 * 2 ** 20
# The numerators `random_poly` draws from.
_NUMERATORS = tuple(i for i in range(-9, 10) if i != 0)
# `interp_fit`'s exact solve, `solve_exact(system, rhs)` = `system.solve(rhs)`,
# under the name the benchmark's tracer patches.
solve_exact = IntegerSystem.solve


def dim_homog(n: int, k: int) -> int:
    """Number of degree-k monomials in n variables."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return math.comb(n + k - 1, k)


@lru_cache(maxsize=None)
def monomials(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors summing to k, in descending lexicographic order."""
    if n == 1:
        return ((k,),)
    out = []
    for first in range(k, -1, -1):
        for rest in monomials(n - 1, k - first):
            out.append((first,) + rest)
    return tuple(out)


def _power_table(v: Sequence[Scalar], k: int) -> list[list[Scalar]]:
    """v_c ** e at [c][e] for e <= k, the int 1 at e = 0."""
    return [[1, *(base ** e for e in range(1, k + 1))] for base in v]


@lru_cache(maxsize=None)
def _exponent_array(n: int, k: int) -> np.ndarray:
    return np.array(monomials(n, k), dtype=np.intp).reshape(-1, n)


def gather_matrix(powers: np.ndarray, n: int, k: int) -> np.ndarray:
    """Evaluation matrix of the directions whose powers are given, in the
    powers' dtype (Python ints in an object array stay exact).

    `powers` has shape (directions, n, top + 1) with top >= k and holds
    v_c ** e at [r, c, e].  Entry (r, j) multiplies the coordinate powers of
    monomial j left to right, in basis order.
    """
    exps = _exponent_array(n, k)
    m = powers[:, 0, exps[:, 0]]
    for c in range(1, n):
        m = m * powers[:, c, exps[:, c]]
    return m


@dataclass(frozen=True, eq=False)
class HomoPoly:
    """Degree-k homogeneous polynomial on the graded-lex monomial basis.

    Two are equal where their variables, degree and coefficients are,
    whichever way the coefficients came (`interp_fit`'s least-squares
    form solves them when first read)."""

    nvars: int
    degree: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        expected = dim_homog(self.nvars, self.degree)
        if len(self.coeffs) != expected:
            raise ValueError(f"need {expected} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomoPoly):
            return NotImplemented
        return (self.nvars, self.degree, self.coeffs) \
            == (other.nvars, other.degree, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.nvars, self.degree, self.coeffs))

    @cached_property
    def _integer_form(self) -> tuple | None:
        """The coefficients as numerators over their common denominator D,
        D, the coordinates a nonzero one's monomial reads, and whether a
        nonzero one is a Fraction; None if a nonzero one is not exact."""
        exps = monomials(self.nvars, self.degree)
        nonzero = [(c, e) for c, e in zip(self.coeffs, exps) if c != 0]
        if not all(isinstance(c, (int, Fraction)) for c, _ in nonzero):
            return None
        den = math.lcm(*(c.denominator for c, _ in nonzero))
        return (tuple(c.numerator * (den // c.denominator) if c else 0
                      for c in self.coeffs),
                den, {i for _, e in nonzero for i, ei in enumerate(e) if ei},
                any(isinstance(c, Fraction) for c, _ in nonzero))

    def _operands(self, v: Sequence[Scalar]) -> tuple:
        """Coefficients, point and power table to sum on, and how to finish.
        An exact form at an exact point sums integers, the point as numerators
        over B, then divides by D·B^k: a Fraction if a term would be one."""
        form = self._integer_form
        if form is None or not all(isinstance(c, (int, Fraction)) for c in v):
            return self.coeffs, v, _power_table(v, self.degree), lambda t: t
        nums, den, used, fraction = form
        scale = math.lcm(*(c.denominator for c in v))
        point = [c.numerator * (scale // c.denominator) for c in v]
        den *= scale ** self.degree
        fraction = fraction or any(isinstance(v[i], Fraction) for i in used)
        return nums, point, _power_table(point, self.degree), \
            (lambda t: Fraction(t, den)) if fraction else (lambda t: t // den)

    def __call__(self, v: Sequence[Scalar]) -> Scalar:
        coeffs, _, table, finish = self._operands(v)
        exps = monomials(self.nvars, self.degree)
        return finish(sum(c * math.prod(map(list.__getitem__, table, e))
                          for c, e in zip(coeffs, exps) if c != 0))

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation at an (m, n) array of points."""
        return evaluation_matrix(points, self.nvars, self.degree) \
            @ np.array([float(c) for c in self.coeffs])

    def directional_derivative(self, v: Sequence[Scalar]) -> Scalar:
        """The radial derivative sum_i v_i * dP/dv_i evaluated at v."""
        coeffs, point, table, finish = self._operands(v)
        exps = monomials(self.nvars, self.degree)
        total = 0
        for c, e in zip(coeffs, exps):
            if c == 0:
                continue
            for i, ei in enumerate(e):
                if ei == 0:
                    continue
                term = c * ei
                for l, el in enumerate(e):
                    power = el - (1 if l == i else 0)
                    if power:
                        term = term * table[l][power]
                total += term * point[i]
        return finish(total) if self.degree else 0  # k = 0 sums no term

    def to_json(self) -> dict:
        return {"nvars": self.nvars, "degree": self.degree,
                "coeffs": list(self.coeffs)}


class _LeastSquaresForm(HomoPoly):
    """The least-squares form R⁻¹(Qᵀh) of order k, kept as its projection
    Qᵀh and solved, under its own `np.errstate`, when a coefficient is
    first read; it pickles and copies as the `HomoPoly` of its
    coefficients."""

    def __init__(self, nvars: int, degree: int, r_inv: np.ndarray,
                 projection: np.ndarray):
        self.__dict__.update(nvars=nvars, degree=degree,
                             _solve=(r_inv, projection))

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        r_inv, projection = self.__dict__.pop("_solve")
        with np.errstate(over="ignore", invalid="ignore"):
            # + 0.0 turns the -0.0 of an all-zero h into 0.0
            return tuple((r_inv @ projection + 0.0).tolist())

    def __reduce__(self):
        return HomoPoly, (self.nvars, self.degree, self.coeffs)


def random_poly(n: int, k: int, rng: random.Random, exact: bool = True) -> HomoPoly:
    """A random homogeneous polynomial with small nonzero coefficients."""
    coeffs = []
    for _ in range(dim_homog(n, k)):
        num = rng.choice(_NUMERATORS)
        den = rng.randint(1, 4)
        coeffs.append(Fraction(num, den) if exact else num / den)
    return HomoPoly(n, k, tuple(coeffs))


def evaluation_matrix(nodes: Sequence[Sequence[Scalar]] | np.ndarray, n: int,
                      k: int) -> np.ndarray:
    """The degree-k float evaluation matrix at the nodes, one row each."""
    nodes = np.asarray(nodes, dtype=float).reshape(-1, n)
    return gather_matrix(_powers(nodes, k), n, k)


# condition_estimate is unused here; the benchmark's tracer patches it.
def condition_estimate(nodes: Sequence[Sequence[Scalar]], n: int, k: int) -> float:
    try:
        return float(np.linalg.cond(evaluation_matrix(nodes, n, k)))
    except np.linalg.LinAlgError:
        return math.inf


class LatticeDesign:
    """The canonical directions of every ladder in n variables.

    `lattice_vector` draws the integer rows from one stream that no seed
    changes; in one variable they are exactly (1,), (-1,).  No row has a
    zero coordinate: along an axis row a denominator can vanish
    identically (E5's does).  A draw parallel to an earlier row is
    skipped; the rows are finite (318 in two variables), so 1000 skips in
    a row raise GenericityFailure.  Rational ladders evaluate along the
    integer rows, float ladders along the rows scaled to unit length
    (`unit`).  Order k tests on the rows [0, 2·d(n, k)) whatever the
    ladder's top order, so `factors(k)`, `block(k)` and the exact fit's
    `system(k)` (the block's first d(n, k) rows with their inverse modulo
    a prime) depend on (n, k) only, and are kept, every n together, within
    MAX_DESIGN_BYTES.
    """

    def __init__(self, n: int):
        self.n = n
        self._rng = random.Random(derive_seed("canonical lattice design", n))
        self.directions: list[tuple[int, ...]] = [(1,), (-1,)] if n == 1 else []
        self._lines = set(map(_line, self.directions))
        self._unit = np.empty((0, n))
        self._factors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._blocks: dict[int, tuple[np.ndarray, int]] = {}
        self._systems: dict[int, IntegerSystem] = {}

    def rows(self, count: int) -> list[tuple[int, ...]]:
        """The first `count` rows."""
        skips = 0
        while len(self.directions) < count:
            if skips == 1000:
                raise GenericityFailure(f"the lattice design of {self.n} variables "
                                        f"has only {len(self.directions)} rows")
            v = lattice_vector(self._rng, self.n)
            skips += 1
            if _line(v) not in self._lines:
                self.directions.append(v)
                self._lines.add(_line(v))
                skips = 0
        return self.directions[:count]

    def unit(self, count: int) -> np.ndarray:
        """The first `count` rows divided by their lengths, in floats; kept
        as one array, extended on demand."""
        if count > len(self._unit):
            rows = np.array(self.rows(count), dtype=float).reshape(-1, self.n)
            self._unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        return self._unit[:count]

    def factors(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Q and R⁻¹ of order k's evaluation matrix V = QR at its 2·d(n, k)
        unit rows, computed once per process.

        GenericityFailure unless min |R_ii| > max |R_ii|·rows·eps; since the
        design is fixed, an order fails so at every point alike.  The
        factors are kept while those of every canonical design fit in
        MAX_DESIGN_BYTES.
        """
        held = self._factors.get(k)
        if held is not None:
            return held
        rows = 2 * dim_homog(self.n, k)
        q, r = np.linalg.qr(gather_matrix(_powers(self.unit(rows), k),
                                          self.n, k))
        diag = np.abs(np.diagonal(r))
        if not diag.min() > diag.max() * rows * np.finfo(float).eps:
            raise GenericityFailure(
                f"the directions of order {k} are not generic "
                f"(|R_ii| from {diag.min():.3g} to {diag.max():.3g})")
        factors = q, np.linalg.inv(r)
        if _held_bytes() + q.nbytes + r.nbytes <= MAX_DESIGN_BYTES:
            self._factors[k] = factors
        return factors

    def keeps_factors(self, k: int) -> bool:
        """Whether `factors(k)` is kept, so every call returns the same
        arrays."""
        return k in self._factors

    def block(self, k: int) -> np.ndarray:
        """Order k's evaluation matrix at its 2·d(n, k) integer rows, as
        Python ints, kept (counted at the ints' own size) while everything
        the canonical designs keep fits in MAX_DESIGN_BYTES."""
        held = self._blocks.get(k)
        if held is not None:
            return held[0]
        rows = np.array(self.rows(2 * dim_homog(self.n, k)), dtype=object)
        block = gather_matrix(_powers(rows, k), self.n, k)
        size = block.nbytes + sum(map(sys.getsizeof, block.flat))
        if _held_bytes() + size <= MAX_DESIGN_BYTES:
            self._blocks[k] = block, size
        return block

    def system(self, k: int) -> IntegerSystem:
        """The first d(n, k) rows of `block(k)`, prepared for the exact fits
        of order k: its modular inverse is computed once, so a fit only
        lifts.  Kept, as the blocks are, while everything the canonical
        designs keep fits in MAX_DESIGN_BYTES; beyond it, built per call.
        Its rows hold the block's own ints, which the block is charged
        for, so the system is charged its `nbytes` alone."""
        held = self._systems.get(k)
        if held is not None:
            return held
        system = IntegerSystem(self.block(k)[:dim_homog(self.n, k)].tolist())
        if _held_bytes() + system.nbytes <= MAX_DESIGN_BYTES:
            self._systems[k] = system
        return system


def _line(v: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive vector of v's line whose first nonzero entry is > 0."""
    return tuple(c // math.gcd(*v) for c in max(v, tuple(-c for c in v)))


# The canonical design of each n, built on first use.
_DESIGNS: dict[int, LatticeDesign] = {}


def canonical_design(n: int) -> LatticeDesign:
    """The canonical design of n variables, one per process."""
    held = _DESIGNS.get(n)
    if held is None:
        held = _DESIGNS[n] = LatticeDesign(n)
    return held


def _held_bytes() -> int:
    """Bytes of the factors, blocks and systems the canonical designs keep."""
    return sum(sum(a.nbytes for pair in d._factors.values() for a in pair)
               + sum(size for _, size in d._blocks.values())
               + sum(system.nbytes for system in d._systems.values())
               for d in _DESIGNS.values())


def _powers(directions: np.ndarray, top: int) -> np.ndarray:
    """v_c ** e at [r, c, e] for e <= top, by repeated multiplication, in
    the directions' dtype."""
    powers = np.ones(directions.shape + (top + 1,), dtype=directions.dtype)
    for e in range(1, top + 1):
        powers[:, :, e] = powers[:, :, e - 1] * directions
    return powers


def sample_nodes(n: int, k: int, exact: bool = True
                 ) -> list[tuple[Scalar, ...]]:
    """The directions `interp_fit` reads at order k in n variables: the
    canonical design's first d(n, k) integer rows if `exact` (exact values
    are solved on those alone), else its first 2·d(n, k) rows at unit
    length."""
    d = dim_homog(n, k)
    design = canonical_design(n)
    if exact:
        return design.rows(d)
    return list(map(tuple, design.unit(2 * d).tolist()))


def interp_fit(values: Sequence[Scalar] | np.ndarray, n: int, k: int,
               exact: bool = False) -> tuple[HomoPoly, list | np.ndarray, float]:
    """The degree-k form q fitted to h_k's `values` along the canonical rows
    of n variables, the residuals it leaves, and the scale 1 + max |h_k|
    (at unit length for a least-squares fit).

    In `exact` mode all-exact values are interpolated: q solves the first
    d(n, k) rows of the integer `block`, on the design's prepared
    `system(k)`, so a fit only lifts (or runs Bareiss); the solve proves
    their rank (GenericityFailure if singular over Q, at every point
    alike), and q leaves |h - q(u)| on the other rows, a list of integer
    dot products over q's common denominator.  Other values take least
    squares on 2·d(n, k) unit rows, an integer row's h_k divided by |u|^k:
    the residuals |h - Q Qᵀ h| travel as one read-only float array, and
    q = R⁻¹Qᵀh keeps Qᵀh and is solved when a coefficient is first read
    (the order test reads the residuals alone), or at once where the
    design did not keep order k's factors.  Float values given as a float
    array are fitted without a copy.  A value or residual beyond the float
    range leaves a residual that is not finite; the caller decides what
    that means (the ladder's order test raises FloatOverflow), and enters
    `np.errstate` to keep numpy from warning about it.
    """
    design = canonical_design(n)
    if exact and all(isinstance(h, (int, Fraction)) for h in values):
        d = dim_homog(n, k)
        block = design.block(k)
        try:
            q = solve_exact(design.system(k), values[:d])
        except SingularSystem as exc:
            raise GenericityFailure(f"the lattice directions of order {k} "
                                    f"are not generic ({exc})") from exc
        fitted = HomoPoly(n, k, tuple(q))
        if any(q):
            den = math.lcm(*(c.denominator for c in q))
            dots = block[d:len(values)] @ np.array(
                [c.numerator * (den // c.denominator) for c in q], dtype=object)
            residuals = [abs(h - Fraction(dot, den))
                         for h, dot in zip(values[d:], dots.tolist())]
        else:  # p(u) is then the int 0, as `HomoPoly.__call__` sums no term
            residuals = [abs(h) for h in values[d:]]
        return fitted, residuals, 1.0 + _magnitude(max(map(abs, values)))
    q, r_inv = design.factors(k)
    h = np.asarray(values, dtype=float)
    if exact:  # h_k(x, u/|u|) = h_k(x, u)/|u|^k
        h = h / np.linalg.norm(np.array(design.rows(len(h)), dtype=float),
                               axis=1) ** k
    projection = q.T @ h
    residuals = np.abs(h - q @ projection)
    residuals.flags.writeable = False
    fitted = _LeastSquaresForm(n, k, r_inv, projection)
    if not design.keeps_factors(k):
        # Factors beyond the budget are built per call: a form would hold
        # an R⁻¹ of its own (5.9 MB at n = 3, k = 40) while its verdict lives.
        fitted = HomoPoly(n, k, fitted.coeffs)
    return fitted, residuals, 1.0 + float(np.abs(h).max())


def _magnitude(x: Scalar) -> float:
    """float(x) of an x >= 0, or inf for an exact x beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def fd_reconstruct(P: HomoPoly, a: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """(1/k!) sum_{s=0..k} (-1)^(k-s) C(k,s) P(a+sv); equals P(v) identically."""
    if len(a) != P.nvars or len(v) != P.nvars:
        raise ValueError("shift and direction must match the polynomial dimension")
    k = P.degree
    total = 0
    for s in range(k + 1):
        point = tuple(ai + s * vi for ai, vi in zip(a, v))
        term = math.comb(k, s) * P(point)
        total = total + term if (k - s) % 2 == 0 else total - term
    if isinstance(total, (int, Fraction)):
        return Fraction(total, math.factorial(k))
    return total / math.factorial(k)


def euler_check(P: HomoPoly, v: Sequence[Scalar]) -> Scalar:
    """Residual of Euler's formula sum_i v_i dP/dv_i = k P at v; zero always."""
    return P.directional_derivative(v) - P.degree * P(v)


def _ball_points(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    raw = rng.standard_normal((m, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = rng.random(m) ** (1.0 / n)
    return raw * radii[:, None]


@dataclass(frozen=True)
class ShrinkBoundReport:
    degree: int
    n_samples: int
    premise_max: float
    bound: float
    shrink_max: float
    shrink_holds: bool
    mid_max: float | None
    mid_bound: float | None
    mid_holds: bool | None


def shrink_bound_check(P: HomoPoly, a: Sequence[Scalar], L: float | None = None,
                       n_samples: int = 10_000, seed: int = 0,
                       region: np.ndarray | None = None) -> ShrinkBoundReport:
    """Sample the sup-bound transfer from a shifted region to shrunk copies.

    With V the sampled starlike region (unit ball by default) and
    |P| <= L on a + V, checks |P| <= L * 2^k / k! on (1/k) V for k >= 1 and
    |P| <= L on (1/(2e)) V.  Raises PremiseViolated when the hypothesis
    already fails on the a + V samples.
    """
    k = P.degree
    if region is None:
        rng = np.random.default_rng(derive_seed(seed, "ball", P.nvars, k))
        region = _ball_points(rng, n_samples, P.nvars)
    a_arr = np.array([float(c) for c in a])
    premise_max = float(np.max(np.abs(P.eval_many(region + a_arr))))
    if L is None:
        L = premise_max
    if premise_max > L:
        raise PremiseViolated(
            f"sampled sup {premise_max:.6g} on the shifted region exceeds L={L:.6g}")
    shrink_max = float(np.max(np.abs(P.eval_many(region / (2 * math.e)))))
    if k >= 1:
        mid_max = float(np.max(np.abs(P.eval_many(region / k))))
        mid_bound = L * 2.0 ** k / math.factorial(k)
        mid_holds = mid_max <= mid_bound
    else:
        mid_max = mid_bound = mid_holds = None
    return ShrinkBoundReport(k, len(region), premise_max, L, shrink_max,
                             shrink_max <= L, mid_max, mid_bound, mid_holds)
