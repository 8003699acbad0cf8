"""Affine charts of coordinate-subspace blow-ups and expression pullbacks.

Blowing up the subspace T = {x_i = 0 : i in center} replaces T by the
directions normal to it.  In the affine chart indexed by a chosen axis
j in center, the substitution is

    x_j = s,    x_i = s * y_i  (i in center, i != j),    x_i unchanged,

with the exceptional divisor at {s = 0}.  Pulling an expression back means
substituting, then cancelling the common power of s from each rational
subtree so the behaviour on the divisor becomes visible to the classifier.

`fiber_lift_check` samples the contrapositive diagnostic: when a point of
the center is non-analytic for f but regular points of the center
accumulate at it, the non-analyticity must lift to the whole fiber above it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple, Sequence

from .classify import ANALYTIC_UP_TO, DEFAULT_TOL, NON_ANALYTIC, Verdict, \
    classify_point, regular_points
from .errors import BadCenter, PremiseViolated
from .expr import Add, Div, Expr, Guard, Mul, Node, RationalConst, Sqrt, Sub, \
    Var, _fold, substitute
from .jets import Scalar
from . import mpoly
from .seeds import derive_seed, sample_scalar


@dataclass(frozen=True)
class BlowupChart:
    """One affine chart of the blow-up of a coordinate subspace.

    Indices are 0-based variable positions; `center` lists the coordinates
    that vanish on the blown-up subspace and `axis` is the one playing the
    role of s in this chart.  Chart coordinates live at the same positions
    as the originals: position `axis` holds s, the other center positions
    hold the normal slopes y_i.
    """

    nvars: int
    center: tuple[int, ...]
    axis: int

    def __post_init__(self):
        center = tuple(sorted(set(self.center)))
        object.__setattr__(self, "center", center)
        if any(i < 0 or i >= self.nvars for i in center):
            raise ValueError("center indices out of range")
        if len(center) < 2:
            raise BadCenter("blow-up center must have codimension >= 2")
        if self.axis not in center:
            raise ValueError("chart axis must belong to the center")

    def substitution_map(self) -> dict[int, Node]:
        return {i: Mul(Var(self.axis), Var(i))
                for i in self.center if i != self.axis}

    def to_json(self) -> dict:
        return {"n": self.nvars, "center": [i + 1 for i in self.center],
                "axis": self.axis + 1}

    @staticmethod
    def from_json(doc) -> "BlowupChart":
        n, center, axis = (doc.get(key) for key in ("n", "center", "axis")) \
            if isinstance(doc, dict) else (None, None, None)
        if not all(isinstance(i, int) for i in [n, axis, *(
                center if isinstance(center, list) else [None])]):
            raise ValueError('a chart is {"n": int, "center": [int], "axis": int}')
        return make_chart(n, center, axis)


def make_chart(nvars: int, center: Sequence[int], axis: int) -> BlowupChart:
    """Build a chart from 1-based variable numbers (as in the JSON form)."""
    return BlowupChart(nvars, tuple(i - 1 for i in center), axis - 1)


@dataclass(frozen=True)
class PullbackResult:
    """An expression rewritten in chart coordinates."""

    expr: Expr
    cancelled_power: int
    non_rational: bool
    chart: BlowupChart

    def to_json(self) -> dict:
        from .parser import to_text, var_name
        s = var_name(self.chart.axis, self.chart.nvars)
        return {"expr": to_text(self.expr), "cancelledPower": self.cancelled_power,
                "nonRationalCancellation": self.non_rational,
                "exceptionalDivisor": f"{{{s} = 0}}",
                "chart": self.chart.to_json()}


class _Slot(NamedTuple):
    """A slot of the pullback pass: `node` is the subtree in chart
    coordinates, `blocked` tells whether a sqrt or guard lies in it,
    `pair` computes its (numerator, denominator) on first call, and
    `reaches` maps in walk order the divisions a walk from it expands to
    their `pair`."""
    node: Node
    rebuilt: Node
    power: int
    non_rational: bool
    blocked: bool
    reaches: dict
    pair: Callable


def _pullback_pass(root: Node, expanded: dict, fraction) -> _Slot:
    """The root's slot, each division that `expanded` keys replaced by its
    (expansion, cancelled power).  A walk stops at, and expands, each
    division in which no sqrt or guard blocks the expansion.  `fraction`
    is `mpoly.fraction_ops`: a slot's pair is computed only when a
    division above it is expanded, and once, whatever shares it."""
    var, constant, fraction_combine = fraction

    def leaf(node: Node, pair) -> _Slot:
        return _Slot(node, node, 0, False, False, {}, lambda: pair)

    def combine(kind, *args) -> _Slot:
        operands = args if kind in (Add, Sub, Mul, Div) else args[:1]
        extra = args[len(operands):]
        node = kind(*(o.node for o in operands), *extra)
        blocked = kind in (Sqrt, Guard) or any(o.blocked for o in operands)
        pair = cache(lambda: fraction_combine(
            kind, *(o.pair() for o in operands), *extra))
        reaches = {node: pair} if kind is Div and not blocked \
            else {d: p for o in operands for d, p in o.reaches.items()}
        if node in expanded:
            return _Slot(node, *expanded[node], False, False, reaches, pair)
        return _Slot(node, kind(*(o.rebuilt for o in operands), *extra),
                     sum(o.power for o in operands),
                     kind is Div or any(o.non_rational for o in operands),
                     blocked, reaches, pair)
    return _fold(root, lambda i: leaf(Var(i), var(i)),
                 lambda c: leaf(RationalConst(c), constant(c)), combine)


def pullback(e: Expr, chart: BlowupChart) -> PullbackResult:
    """Substitute chart coordinates into the expression and simplify.

    Every rational division subtree is expanded to a single fraction and
    the highest power of s dividing both numerator and denominator is
    removed; guard defaults are carried through unchanged.  Square roots
    block the expansion of the subtree containing them, which is flagged
    (not an error) and leaves that division unsimplified.  All expansions
    of one pullback run in one fraction pass, on one `mpoly.Budget` of
    term pairs, which each distinct subtree below an expanded division
    charges once; overdrawing it raises ValueError.
    """
    if e.nvars != chart.nvars:
        raise ValueError("chart and expression dimensions differ")
    substituted = substitute(e.root, chart.substitution_map())
    fraction = mpoly.fraction_ops(e.nvars, mpoly.Budget())
    expanded = {}
    for division, pair in _pullback_pass(substituted, {},
                                         fraction).reaches.items():
        num, den = pair()
        c = min(m[chart.axis] for m in (*num, *den))  # den is never 0
        num, den = (mpoly.to_node(mpoly.shift_down(p, chart.axis, c),
                                  e.nvars) for p in (num, den))
        expanded[division] = Div(num, den), c
    result = _pullback_pass(substituted, expanded, fraction)
    return PullbackResult(Expr(result.rebuilt, e.nvars), result.power,
                          result.non_rational, chart)


def classify_pullback(e: Expr, chart: BlowupChart,
                      points_on_divisor: Sequence[Sequence[Scalar]],
                      k_max: int = 6, tol: float = DEFAULT_TOL,
                      exact: bool = False, order: int | None = None
                      ) -> list[Verdict]:
    """Classify the pulled-back expression at points of {s = 0}."""
    pb = pullback(e, chart)
    verdicts = []
    for pt in points_on_divisor:
        if pt[chart.axis] != 0:
            raise ValueError(
                f"point {tuple(pt)} is not on the exceptional divisor")
        verdicts.append(classify_point(pb.expr, pt, k_max, tol, order, exact))
    return verdicts


@dataclass(frozen=True)
class FiberLiftReport:
    """Sampled verdicts along the fiber over a non-analytic center point."""

    consistent: bool
    base_verdict: Verdict
    fiber_verdicts: tuple[Verdict, ...]
    regular_center_samples: int
    analytic_fiber_points: int
    inconclusive_fiber_points: int


def fiber_lift_check(e: Expr, chart: BlowupChart, base_point: Sequence[Scalar],
                     k_max: int = 6, tol: float = DEFAULT_TOL, seed: int = 0,
                     n_fiber: int = 16, n_center: int = 8,
                     center_delta: float = 0.25, fiber_box: float = 2.0,
                     exact: bool = False,
                     order: int | None = None) -> FiberLiftReport:
    """Test that non-analyticity at a center point lifts to its whole fiber.

    Premises checked on samples: the base point itself classifies
    NonAnalytic, and regular points of the center accumulate at it (some
    nearby center sample classifies analytic; a centre with no free
    coordinate is the base point alone, which fails that at once).  Under
    those premises every sampled fiber point must classify NonAnalytic;
    an analytic fiber point would certify the base point analytic, a
    contradiction.  In exact mode the base point is taken as exact
    rationals and each sample draw as a small one (`sample_scalar`);
    `seed` drives the draws.  The center samples pass the regularity
    shortcut together (`regular_points`); the rest run the ladder.
    """
    base_point = tuple(map(Fraction, base_point) if exact else base_point)
    if len(base_point) != e.nvars:
        raise ValueError("base point dimension mismatch")
    if any(base_point[i] != 0 for i in chart.center):
        raise ValueError("base point must lie on the blow-up center")

    base_verdict = classify_point(e, base_point, k_max, tol, order, exact)
    if base_verdict.status != NON_ANALYTIC:
        raise PremiseViolated(
            f"base point classifies {base_verdict.status}, not NonAnalytic")

    free_center = [i for i in range(e.nvars) if i not in chart.center]
    rng = random.Random(derive_seed(seed, "center-samples"))
    center_points = []
    for _ in range(n_center if free_center else 0):
        pt = list(base_point)
        for i in free_center:
            pt[i] += sample_scalar(center_delta * (rng.random() * 1.5 + 0.5)
                                   * rng.choice((-1, 1)), exact)
        center_points.append(tuple(pt))
    hits = regular_points(e, center_points, exact).tolist()
    regular = sum(hit or classify_point(
        e, pt, k_max, tol, order, exact).status == ANALYTIC_UP_TO
        for pt, hit in zip(center_points, hits))
    if regular == 0:
        raise PremiseViolated(
            "no nearby regular point of the center was found; the base point "
            "is not in the closure of the regular part of the center")

    rng = random.Random(derive_seed(seed, "fiber-samples"))
    fiber_points = []
    for _ in range(n_fiber):
        pt = list(base_point)
        pt[chart.axis] = 0
        for i in chart.center:
            if i != chart.axis:
                pt[i] = sample_scalar(fiber_box * (2 * rng.random() - 1),
                                      exact)
        fiber_points.append(tuple(pt))
    verdicts = tuple(classify_pullback(e, chart, fiber_points, k_max, tol,
                                       exact, order))
    analytic = sum(1 for v in verdicts if v.status == ANALYTIC_UP_TO)
    inconclusive = sum(1 for v in verdicts
                       if v.status not in (ANALYTIC_UP_TO, NON_ANALYTIC))
    return FiberLiftReport(analytic == 0, base_verdict, verdicts, regular,
                           analytic, inconclusive)
