"""Registry of benchmark functions with known non-analyticity behaviour.

Each entry records the expression source, its documented properties, the
expected non-analyticity locus as a decidable membership test, and enough
verification data (scan window, on-locus rational points, a resolving
chart) for the fixture suite to compare expectation against observation.

E6 deserves a note: its locus is the compact oval X1 = {g = 0, x < 3/2} of
the quartic g(x,y) = y^2 + x(x-1)(x-2)(x-3), placed in the plane z = 0.
The separating function g1 = sqrt(h^2 + eps*g) + h (h = x - 3/2) vanishes
exactly on X1 because g1 = 0 forces h <= 0 and g = 0.  The curve meets
rational points at (0,0) and (1,0), where exact arithmetic can certify the
verdict; eps = 1/100 keeps h^2 + eps*g strictly positive everywhere, which
scripts/verify_e6_epsilon.py rechecks by grid minimization plus a
coercivity bound outside the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .blowup import BlowupChart, make_chart
from .expr import Expr
from .jets import Scalar
from .parser import parse

ARC_ANALYTIC = "arcAnalytic"
NOT_DIFFERENTIABLE = "notDifferentiable"
NOT_C2 = "notC2"
NOT_LIPSCHITZ = "notLipschitz"
ARC_MEROMORPHIC_ONLY = "arcMeromorphicOnly"
DISCONTINUOUS = "discontinuous"


@dataclass(frozen=True)
class PointLocus:
    points: tuple[tuple[Fraction, ...], ...]

    def contains(self, x: Sequence[Scalar], tol: float = 1e-9) -> bool:
        return any(all(abs(xi - pi) <= tol for xi, pi in zip(x, p))
                   for p in self.points)

    def contains_rows(self, x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """`contains` at each float row of x, as a boolean array."""
        p = np.array([[float(c) for c in p] for p in self.points])
        return (abs(x[:, None, :] - p) <= tol).all(axis=2).any(axis=1)

    def describe(self) -> str:
        return "points " + ", ".join(str(tuple(map(str, p))) for p in self.points)


@dataclass(frozen=True)
class SubspaceLocus:
    zero_axes: tuple[int, ...]
    nvars: int

    def contains(self, x: Sequence[Scalar], tol: float = 1e-9) -> bool:
        return all(abs(x[i]) <= tol for i in self.zero_axes)

    def contains_rows(self, x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """`contains` at each float row of x, as a boolean array."""
        return (abs(x[:, list(self.zero_axes)]) <= tol).all(axis=1)

    def describe(self) -> str:
        names = "xyz" if self.nvars <= 3 else None
        labels = [(names[i] if names else f"x{i+1}") for i in self.zero_axes]
        return "subspace {" + " = ".join(labels) + " = 0}"


def _oval_poly(x: Scalar, y: Scalar) -> Scalar:
    return y * y + x * (x - 1) * (x - 2) * (x - 3)


@dataclass(frozen=True)
class OvalLocus:
    """The z = 0 copy of the left compact component of {g = 0}.

    Membership is exactly decidable at rational points: z = 0, g(x,y) = 0,
    and x < 3/2 (the separating line; the curve never meets it).
    """

    def contains(self, x: Sequence[Scalar], tol: float = 1e-9) -> bool:
        if abs(x[2]) > tol:
            return False
        if isinstance(x[0], (int, Fraction)) and isinstance(x[1], (int, Fraction)):
            return _oval_poly(Fraction(x[0]), Fraction(x[1])) == 0 \
                and Fraction(x[0]) < Fraction(3, 2)
        return abs(_oval_poly(float(x[0]), float(x[1]))) <= tol and x[0] < 1.5

    def contains_rows(self, x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """`contains` at each float row of x, as a boolean array: the same
        float operations in the same order."""
        return (abs(x[:, 2]) <= tol) \
            & (abs(_oval_poly(x[:, 0], x[:, 1])) <= tol) & (x[:, 0] < 1.5)

    def describe(self) -> str:
        return "oval {y^2 + x(x-1)(x-2)(x-3) = 0, x < 3/2} x {z = 0}"


Locus = PointLocus | SubspaceLocus | OvalLocus


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: str
    nvars: int
    tags: frozenset[str]
    locus: Locus
    scan_axes: tuple[tuple, ...]
    exact_locus_points: tuple[tuple[Fraction, ...], ...] = ()
    regular_points: tuple[tuple, ...] = ()
    resolution_charts: tuple[BlowupChart, ...] = ()
    notes: str = ""

    def expr(self) -> Expr:
        return parse(self.source, nvars=self.nvars)

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "expr": self.source,
            "nvars": self.nvars,
            "tags": sorted(self.tags),
            "locus": self.locus.describe(),
            "scanAxes": [list(map(str, ax)) for ax in self.scan_axes],
            "notes": self.notes,
        }
        if self.resolution_charts:
            doc["resolutionCharts"] = [c.to_json()
                                       for c in self.resolution_charts]
        return doc


_F = Fraction
_SQUARE = ((_F(-1), _F(1), _F(1, 8)),) * 2
_CUBE = ((_F(-1), _F(1), _F(1, 8)),) * 3

_ENTRIES = (
    CorpusEntry(
        name="E1",
        source="guard(x^3 / (x^2 + y^2), 0)",
        nvars=2,
        tags=frozenset({ARC_ANALYTIC, NOT_DIFFERENTIABLE}),
        locus=PointLocus(((_F(0), _F(0)),)),
        scan_axes=_SQUARE,
        exact_locus_points=((_F(0), _F(0)),),
        regular_points=((1, 0), (_F(1, 2), _F(-1, 2)), (0, 1)),
        resolution_charts=(make_chart(2, (1, 2), 1),),
        notes="Cubic over the squared distance to the origin; value 0 there. "
              "Not differentiable at the origin; one point blow-up resolves it.",
    ),
    CorpusEntry(
        name="E2",
        source="sqrt(x^4 + y^4)",
        nvars=2,
        tags=frozenset({ARC_ANALYTIC, NOT_C2}),
        locus=PointLocus(((_F(0), _F(0)),)),
        scan_axes=_SQUARE,
        exact_locus_points=((_F(0), _F(0)),),
        regular_points=((1, 1), (_F(-1, 2), _F(1, 4))),
        resolution_charts=(make_chart(2, (1, 2), 1),),
        notes="Smooth of class C^1 but not C^2 at the origin.",
    ),
    CorpusEntry(
        name="E3",
        source="guard(x * y^5 / (x^4 + y^6), 0)",
        nvars=2,
        tags=frozenset({ARC_ANALYTIC, NOT_LIPSCHITZ}),
        locus=PointLocus(((_F(0), _F(0)),)),
        scan_axes=_SQUARE,
        exact_locus_points=((_F(0), _F(0)),),
        regular_points=((1, 1), (_F(1, 4), _F(-1, 2))),
        notes="Continuous, arc-analytic, yet not Lipschitz near the origin.",
    ),
    CorpusEntry(
        name="E4",
        source="guard(x * y / (x^2 + y^2), 0)",
        nvars=2,
        tags=frozenset({ARC_MEROMORPHIC_ONLY, DISCONTINUOUS}),
        locus=PointLocus(((_F(0), _F(0)),)),
        scan_axes=_SQUARE,
        exact_locus_points=((_F(0), _F(0)),),
        regular_points=((1, 1), (_F(1, 2), _F(1, 3))),
        notes="No value at the origin makes this continuous: along x = y the "
              "germ is the constant 1/2, along x = -y it is -1/2.",
    ),
    CorpusEntry(
        name="E5",
        source="guard(x^3 / (x^2 + y^2), 0)",
        nvars=3,
        tags=frozenset({ARC_ANALYTIC, NOT_DIFFERENTIABLE}),
        locus=SubspaceLocus((0, 1), 3),
        scan_axes=_CUBE,
        exact_locus_points=((_F(0), _F(0), _F(0)), (_F(0), _F(0), _F(1, 2))),
        regular_points=((1, 0, 0), (_F(1, 2), _F(-1, 4), _F(3, 4))),
        resolution_charts=(make_chart(3, (1, 2), 1),),
        notes="E1 read in three variables: the bad set becomes the whole "
              "z-axis, a positive-dimensional locus.",
    ),
    CorpusEntry(
        name="E6",
        source="guard(z^3 / (z^2 + (sqrt((x - 3/2)^2 + (1/100) * (y^2 + "
               "x * (x - 1) * (x - 2) * (x - 3))) + (x - 3/2))^2), 0)",
        nvars=3,
        tags=frozenset({ARC_ANALYTIC}),
        locus=OvalLocus(),
        scan_axes=_CUBE,
        exact_locus_points=((_F(0), _F(0), _F(0)), (_F(1), _F(0), _F(0))),
        regular_points=((_F(1, 2), 0, 0), (0, 0, _F(1, 2)), (_F(5, 2), 0, 0),
                        (_F(2), _F(0), _F(0))),
        notes="The denominator vanishes exactly on a compact oval in the "
              "z = 0 plane; the locus is a curve, not a point.  The point "
              "(2, 0, 0) lies on the companion oval where the separating "
              "function stays positive, so it must classify analytic.",
    ),
)


def corpus_list() -> tuple[CorpusEntry, ...]:
    """All registry entries, in a stable order."""
    return _ENTRIES


def lookup(name: str) -> CorpusEntry:
    for entry in _ENTRIES:
        if entry.name == name:
            return entry
    raise KeyError(f"no corpus entry named {name!r}")
