"""Randomized identity checks and corpus fixture verification.

These back the `verify` and `corpus` CLI commands and the acceptance
suite.  Identity checks run in exact rational arithmetic by default, where
"passes" means a residual of exactly zero, not merely small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .classify import ANALYTIC_UP_TO, NON_ANALYTIC, classify_point, \
    flagged_points, grid_array, grid_points, loja_estimate, scan_region
from .corpus import ARC_MEROMORPHIC_ONLY, CorpusEntry, corpus_list, lookup
from .expr import REMOVABLE_MISMATCH, arc_check
from .homog import euler_check, fd_reconstruct, interp_fit, random_poly, \
    sample_nodes, shrink_bound_check
from .parser import parse, parse_arc
from .seeds import derive_seed

IDENTITIES = ("binoms", "euler", "interp-roundtrip", "alibaba", "loja")


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    trials: int
    passed: bool
    worst_residual: float
    detail: str = ""

    def to_json(self) -> dict:
        return {"identity": self.identity, "trials": self.trials,
                "passed": self.passed, "worstResidual": self.worst_residual,
                "detail": self.detail}


def _rand_fraction(rng: random.Random, span: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def _rand_vector(rng: random.Random, n: int, nonzero: bool = False):
    while True:
        v = tuple(_rand_fraction(rng) for _ in range(n))
        if not nonzero or any(v):
            return v


def check_binoms(trials: int = 1000, seed: int = 0, exact: bool = True,
                 max_n: int = 4, max_k: int = 6) -> IdentityReport:
    """Finite-difference reconstruction equals direct evaluation."""
    rng = random.Random(derive_seed(seed, "binoms"))
    worst = 0
    for _ in range(trials):
        n = rng.randint(1, max_n)
        k = rng.randint(0, max_k)
        poly = random_poly(n, k, rng, exact)
        a = _rand_vector(rng, n)
        v = _rand_vector(rng, n)
        if not exact:
            a = tuple(float(c) for c in a)
            v = tuple(float(c) for c in v)
        residual = abs(fd_reconstruct(poly, a, v) - poly(v))
        worst = max(worst, residual)
    tol = 0 if exact else 1e-6
    return IdentityReport("binoms", trials, worst <= tol, float(worst))


def check_euler(trials: int = 1000, seed: int = 0, exact: bool = True,
                max_n: int = 4, max_k: int = 6) -> IdentityReport:
    """Radial derivative equals degree times value, every trial."""
    rng = random.Random(derive_seed(seed, "euler"))
    worst = 0
    for _ in range(trials):
        n = rng.randint(1, max_n)
        k = rng.randint(0, max_k)
        poly = random_poly(n, k, rng, exact)
        v = _rand_vector(rng, n)
        if not exact:
            v = tuple(float(c) for c in v)
        worst = max(worst, abs(euler_check(poly, v)))
    tol = 0 if exact else 1e-7
    return IdentityReport("euler", trials, worst <= tol, float(worst))


def check_interp_roundtrip(trials: int = 1000, seed: int = 0,
                           exact: bool = True, max_n: int = 4,
                           max_k: int = 6) -> IdentityReport:
    """The ladder's own fit through sampled values recovers the sampled
    polynomial: exact trials evaluate it at the d(n, k) integer rows the
    exact fit solves on, float trials at the order's 2·d(n, k) unit rows
    (`sample_nodes`), both the canonical rows every ladder reads.
    """
    rng = random.Random(derive_seed(seed, "interp"))
    worst = 0
    for _ in range(trials):
        n = rng.randint(1, max_n)
        k = rng.randint(0, max_k)
        poly = random_poly(n, k, rng, exact)
        values = [poly(v) for v in sample_nodes(n, k, exact)]
        fitted = interp_fit(values, n, k, exact)[0]
        for c_in, c_out in zip(poly.coeffs, fitted.coeffs):
            denom = max(1, abs(c_in)) if not exact else 1
            worst = max(worst, abs(c_out - c_in) / denom)
    tol = 0 if exact else 1e-10
    return IdentityReport("interp-roundtrip", trials, worst <= tol, float(worst))


def check_alibaba(trials: int = 100, seed: int = 0, max_n: int = 3,
                  max_k: int = 6, n_samples: int = 10_000) -> IdentityReport:
    """Sampled sup-bound transfer to the shrunken starlike region."""
    rng = random.Random(derive_seed(seed, "alibaba"))
    worst_excess = 0.0
    ok = True
    for i in range(trials):
        n = rng.randint(1, max_n)
        k = rng.randint(0, max_k)
        poly = random_poly(n, k, rng, exact=False)
        a = tuple(rng.uniform(-1, 1) for _ in range(n))
        report = shrink_bound_check(poly, a, L=None, n_samples=n_samples,
                                    seed=derive_seed(seed, "alibaba", i))
        excess = report.shrink_max - report.bound
        if report.mid_bound is not None:
            excess = max(excess, report.mid_max - report.mid_bound)
            ok = ok and report.mid_holds
        ok = ok and report.shrink_holds
        worst_excess = max(worst_excess, excess)
    return IdentityReport("alibaba", trials, ok, worst_excess,
                          "worst residual is max sampled sup minus its bound")


def loja_grid_samples(step: Fraction = Fraction(1, 50)) -> list[tuple]:
    pts = grid_points(((-1, 1, step), (-1, 1, step)))
    return [p for p in pts if p != (0.0, 0.0)]


def check_loja() -> IdentityReport:
    """The two reference growth fits near the origin, on a fixed grid: no
    trial count or seed changes them."""
    samples = loja_grid_samples()
    gamma = [(0.0, 0.0)]
    inv = loja_estimate(parse("guard(1/(x^2+y^2), 0)"), gamma, samples)
    e4 = loja_estimate(parse("guard(x*y/(x^2+y^2), 0)"), gamma, samples)
    ok = inv.N == 2 and 1.0 <= inv.C <= 1.01 and e4.N == 0 and 0.5 <= e4.C <= 0.51
    worst = max(abs(inv.C - 1.0), abs(e4.C - 0.5))
    return IdentityReport(
        "loja", 2, ok, worst,
        f"1/r^2: N={inv.N}, C={inv.C:.6g}; xy/r^2: N={e4.N}, C={e4.C:.6g}")


def run_identity(identity: str, trials: int, seed: int,
                 exact: bool = True) -> IdentityReport:
    if identity == "binoms":
        return check_binoms(trials, seed, exact)
    if identity == "euler":
        return check_euler(trials, seed, exact)
    if identity == "interp-roundtrip":
        return check_interp_roundtrip(trials, seed, exact)
    if identity == "alibaba":
        return check_alibaba(trials, seed)
    if identity == "loja":
        return check_loja()
    raise ValueError(f"unknown identity {identity!r}; choose from {IDENTITIES}")


# --- corpus fixtures ----------------------------------------------------------

@dataclass(frozen=True)
class EntryReport:
    name: str
    expected: tuple[tuple, ...]
    observed: tuple[tuple, ...]
    loci_match: bool
    checks: tuple[tuple[str, bool], ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expected": [list(p) for p in self.expected],
            "observed": [list(p) for p in self.observed],
            "lociMatch": self.loci_match,
            "checks": [{"name": n, "passed": ok} for n, ok in self.checks],
            "passed": self.passed,
        }


def verify_entry(entry: CorpusEntry, k_max: int = 6, tol: float = 1e-7,
                 jobs: int = 1) -> EntryReport:
    """Scan the entry's window and compare flagged points with its locus.

    On top of the grid comparison: on-locus rational points must classify
    NonAnalytic in exact arithmetic, the designated regular points must
    classify analytic, and the discontinuous entry must show its germ/value
    mismatch along the diagonal arc.
    """
    e = entry.expr()
    verdicts = scan_region(e, entry.scan_axes, k_max, tol, shortcut=True,
                           jobs=jobs)
    observed = tuple(sorted(flagged_points(verdicts)))
    grid = grid_array(entry.scan_axes)
    expected = tuple(sorted(map(tuple, grid[entry.locus.contains_rows(grid)]
                                .tolist())))
    loci_match = observed == expected

    checks: list[tuple[str, bool]] = []
    for pt in entry.exact_locus_points:
        v = classify_point(e, pt, k_max=max(3, min(k_max, 4)), tol=tol,
                           exact=True)
        checks.append((f"locus point {tuple(map(str, pt))} non-analytic (exact)",
                       v.status == NON_ANALYTIC))
    for pt in entry.regular_points:
        v = classify_point(e, pt, k_max=max(3, min(k_max, 4)), tol=tol)
        checks.append((f"regular point {tuple(map(float, pt))} analytic",
                       v.status == ANALYTIC_UP_TO))
    if ARC_MEROMORPHIC_ONLY in entry.tags:
        report = arc_check(e, parse_arc(", ".join(["t"] * entry.nvars)),
                           order=8, tol=1e-12)
        checks.append(("diagonal arc shows removable value mismatch",
                       report.kind == REMOVABLE_MISMATCH
                       and abs(report.mismatch - 0.5) <= 1e-12))

    passed = loci_match and all(ok for _, ok in checks)
    return EntryReport(entry.name, expected, observed, loci_match,
                       tuple(checks), passed)


def verify_corpus(names: Sequence[str] | None = None, k_max: int = 6,
                  tol: float = 1e-7, jobs: int = 1) -> list[EntryReport]:
    entries = corpus_list() if not names else [lookup(n) for n in names]
    return [verify_entry(entry, k_max, tol, jobs) for entry in entries]
