"""Homogeneous polynomials, generic interpolation nodes, and two identities.

The space of degree-k homogeneous polynomials in n variables has dimension
C(n+k-1, k), one coefficient per exponent vector summing to k; coefficients
are stored in graded-lexicographic order (descending lex within the fixed
degree).  Sampling directions generically makes evaluation at C(n+k-1, k)
of them a linear isomorphism, which `sample_nodes` realizes by rejection on
a condition estimate and `interp_fit` inverts, exactly over the rationals
or in floats.  The float ladder instead keeps an array of coordinate powers
for a fixed set of directions and gathers each order's evaluation matrix
from it (`gather_matrix`), which it factors once for a least-squares test.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import GenericityFailure, PremiseViolated, SingularSystem
from .jets import Scalar
from .linalg import solve_exact
from .seeds import derive_seed, direction


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


def _mono_value(exponents: tuple[int, ...], v: Sequence[Scalar]) -> Scalar:
    acc = 1
    for base, e in zip(v, exponents):
        if e:
            acc = acc * base ** e
    return acc


@lru_cache(maxsize=None)
def _exponent_array(n: int, k: int) -> np.ndarray:
    return np.array(monomials(n, k), dtype=np.intp).reshape(-1, n)


def gather_matrix(powers: np.ndarray, n: int, k: int) -> np.ndarray:
    """Float evaluation matrix of the directions whose powers are given.

    `powers` has shape (directions, n, top + 1) with top >= k and holds
    v_c ** e at [r, c, e].  Entry (r, j) multiplies the coordinate powers of
    monomial j left to right, in basis order.
    """
    exps = _exponent_array(n, k)
    m = powers[:, 0, exps[:, 0]]
    for c in range(1, n):
        m = m * powers[:, c, exps[:, c]]
    return m


@dataclass(frozen=True)
class HomoPoly:
    """Degree-k homogeneous polynomial on the graded-lex monomial basis."""

    nvars: int
    degree: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        expected = dim_homog(self.nvars, self.degree)
        if len(self.coeffs) != expected:
            raise ValueError(f"need {expected} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __call__(self, v: Sequence[Scalar]) -> Scalar:
        exps = monomials(self.nvars, self.degree)
        return sum(c * _mono_value(e, v) for c, e in zip(self.coeffs, exps) if c != 0)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation at an (m, n) array of points."""
        exps = np.array(monomials(self.nvars, self.degree), dtype=float)
        coeffs = np.array([float(c) for c in self.coeffs])
        powers = np.power(points[:, None, :], exps[None, :, :])
        return powers.prod(axis=2) @ coeffs

    def directional_derivative(self, v: Sequence[Scalar]) -> Scalar:
        """The radial derivative sum_i v_i * dP/dv_i evaluated at v."""
        exps = monomials(self.nvars, self.degree)
        total = 0
        for c, e in zip(self.coeffs, exps):
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

    def to_json(self) -> dict:
        return {"nvars": self.nvars, "degree": self.degree,
                "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json(doc: dict) -> "HomoPoly":
        return HomoPoly(doc["nvars"], doc["degree"], tuple(doc["coeffs"]))


def random_poly(n: int, k: int, rng: random.Random, exact: bool = True) -> HomoPoly:
    """A random homogeneous polynomial with small nonzero coefficients."""
    coeffs = []
    for _ in range(dim_homog(n, k)):
        num = rng.choice([i for i in range(-9, 10) if i != 0])
        den = rng.randint(1, 4)
        coeffs.append(Fraction(num, den) if exact else num / den)
    return HomoPoly(n, k, tuple(coeffs))


@dataclass(frozen=True)
class NodeSet:
    """Interpolation directions with an invertible evaluation matrix."""

    nvars: int
    degree: int
    nodes: tuple[tuple[Scalar, ...], ...]
    cond: float
    seed: int | None
    exact: bool

    def matrix(self) -> list[list[Scalar]]:
        exps = monomials(self.nvars, self.degree)
        return [[_mono_value(e, node) for e in exps] for node in self.nodes]


def evaluation_matrix(nodes: Sequence[Sequence[Scalar]], n: int, k: int) -> np.ndarray:
    exps = monomials(n, k)
    return np.array([[float(_mono_value(e, node)) for e in exps] for node in nodes])


def condition_estimate(nodes: Sequence[Sequence[Scalar]], n: int, k: int) -> float:
    try:
        return float(np.linalg.cond(evaluation_matrix(nodes, n, k)))
    except np.linalg.LinAlgError:
        return math.inf


def sample_nodes(n: int, k: int, seed: int, cond_cap: float = 1e6,
                 exact: bool = False, retries: int = 64) -> NodeSet:
    """Rejection-sample a generic node set, deterministically from the seed.

    Float mode draws unit-sphere directions; exact mode draws small-integer
    directions so downstream solves stay in cheap rational arithmetic.
    """
    if cond_cap <= 0:
        raise ValueError("cond_cap must be positive")
    d = dim_homog(n, k)
    rng = random.Random(derive_seed(seed, "nodes", n, k))
    last = math.inf
    for _ in range(retries):
        nodes = tuple(direction(rng, n, exact) for _ in range(d))
        last = condition_estimate(nodes, n, k)
        if math.isfinite(last) and last <= cond_cap:
            return NodeSet(n, k, nodes, last, seed, exact)
    raise GenericityFailure(
        f"no node set with condition <= {cond_cap} in {retries} attempts "
        f"(last estimate {last:.3g})")


def interp_fit(values: Sequence[Scalar], nodeset: NodeSet) -> HomoPoly:
    """The unique homogeneous P of the node set's degree with P(v_i) = values[i]."""
    d = dim_homog(nodeset.nvars, nodeset.degree)
    if len(values) != d:
        raise ValueError(f"need {d} values, got {len(values)}")
    use_exact = nodeset.exact and all(
        isinstance(v, (int, Fraction)) for v in values)
    if use_exact:
        coeffs = solve_exact(nodeset.matrix(), list(values))
        return HomoPoly(nodeset.nvars, nodeset.degree, tuple(coeffs))
    m = evaluation_matrix(nodeset.nodes, nodeset.nvars, nodeset.degree)
    try:
        sol = np.linalg.solve(m, np.array([float(v) for v in values]))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return HomoPoly(nodeset.nvars, nodeset.degree, tuple(float(c) for c in sol))


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
