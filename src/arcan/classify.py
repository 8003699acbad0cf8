"""Pointwise analyticity classification and region scans.

The detector rests on the directional series coefficients

    h_k(x, v) = (1/k!) d^k/dt^k f(x + t v) |_{t=0},

which are k-homogeneous in v and, at a point where f is an analytic germ,
polynomial in v.  `poly_test` probes one order k: it reads h_k(x, .) off
jets along d(n,k) generic directions, fits the unique candidate homogeneous
polynomial through those values, and measures the mismatch at fresh
validation directions.  A pole along a direction, or a validation residual
above tolerance, certifies the differential is not polynomial at that
order; `classify_point` runs the ladder k = 0..k_max and reports the first
failing order.  A finite ladder cannot prove analyticity, so the positive
verdict is the honest `AnalyticUpTo(k_max)`.

In float mode a point's jets come from one batched pass: every direction
the ladder will need is evaluated at once as a lane of a `LaneJet`, bit
for bit as the scalar `LaurentJet` path would, and each order gathers one
evaluation matrix from per-direction power tables for its condition
estimate, fit and validation.  A batch whose lanes cannot share one
valuation and order (or that meets a zero divisor, a failing square root
or a non-finite value) falls back to the scalar path, so verdicts, reasons
and residual digits do not depend on the batching.  Exact (rational) mode
always runs the scalar path.

Region scans and arc-symmetry checks reuse the pointwise verdict.  They
default to a sound fast path: where every denominator and square-root
radicand stays away from zero the function is a composition of analytic
germs, and no sampling is needed.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ArcanError, ArcDomainError, CapExceeded, DomainError, \
    GenericityFailure, IrregularBatch, PoleAtOrigin
from .expr import ArcSpec, Expr, eval_jets, eval_lanes, eval_point, \
    eval_point_flagged, regular_at
from .homog import HomoPoly, NodeSet, condition_estimate, dim_homog, \
    fit_matrix, gather_matrix, interp_fit, matrix_condition, power_table
from .jets import LaneJet, LaurentJet, Scalar
from .seeds import derive_seed, direction

ANALYTIC_UP_TO = "AnalyticUpTo"
NON_ANALYTIC = "NonAnalytic"
INCONCLUSIVE = "Inconclusive"

DEFAULT_K_MAX = 8
DEFAULT_TOL = 1e-7
DEFAULT_COND_CAP = 1e6
# Directions per batched jet pass: 2*d(3,10) = 132 fit in one.
LANES_PER_PASS = 256


def default_order(k_max: int) -> int:
    """Retained jet order: divisions shift valuations, so keep headroom."""
    return 2 * k_max + 4


# --- directional series coefficients -----------------------------------------

def gateaux_series(e: Expr, x: Sequence[Scalar], v: Sequence[Scalar],
                   order: int, exact: bool = False) -> LaurentJet:
    """Laurent jet of t -> f(x + t v) at t = 0."""
    if len(x) != e.nvars or len(v) != e.nvars:
        raise ValueError("point and direction must match the expression dimension")
    pad = (0,) * (order - 1)
    var_jets = tuple(LaurentJet(0, (xi, vi) + pad, order)
                     for xi, vi in zip(x, v))
    return eval_jets(e.root, var_jets, order, exact)


def gateaux_coeff(e: Expr, x: Sequence[Scalar], v: Sequence[Scalar], k: int,
                  order: int | None = None, exact: bool = False) -> Scalar:
    """h_k(x, v): the t^k coefficient of f along the straight arc x + t v.

    Raises PoleAtOrigin when the composed series has a genuine pole, i.e.
    f blows up along this direction germ.
    """
    if order is None:
        order = default_order(max(k, 1))
    if k > order:
        raise ValueError(f"k={k} exceeds the retained order {order}")
    xs = tuple(x) if exact else tuple(float(c) for c in x)
    vs = tuple(v) if exact else tuple(float(c) for c in v)
    return gateaux_series(e, xs, vs, order, exact).taylor_coeff(k)


# --- per-point direction/jet bookkeeping --------------------------------------

class _PointSession:
    """Seeded direction pool and jet cache for one classification point.

    Directions are drawn one at a time from a per-point stream; order k
    fits on the prefix slice of length d(n,k) and validates on the next
    slice.  Prefixes overlap across orders, so each direction's jet is
    evaluated once and shared by every order that uses it.  A slice whose
    evaluation matrix is badly conditioned falls back to a fresh block at
    the pool's high-water mark, the number of directions the ladder has
    asked for so far (deterministically).

    In float mode the session draws the 2·d(n, k_top) directions the
    ladder will need up front and evaluates their jets in one batched pass
    (`eval_lanes`); a retry block beyond them is batched the same way when
    it is first read.  Each direction keeps a table of its coordinate
    powers, from which every order gathers one evaluation matrix for its
    condition estimate, fit and validation.  Directions drawn ahead do not
    move the high-water mark, so retry blocks start where they would
    without the batch.  A batch the lanes cannot share (`IrregularBatch`)
    is dropped, and its directions' jets come from the scalar path when
    they are read, raising what the scalar path raises.  Exact mode is
    always scalar.
    """

    def __init__(self, e: Expr, x: tuple, order: int, exact: bool, seed: int,
                 cond_cap: float, k_top: int):
        self.e = e
        self.x = x
        self.order = order
        self.exact = exact
        self.seed = seed
        self.cond_cap = cond_cap
        self.n = e.nvars
        self.k_top = k_top
        self._rng = random.Random(derive_seed(seed, "directions", self.n))
        self._dirs: list[tuple] = []
        self._asked = 0
        self._jets: dict[int, LaurentJet] = {}
        self._lane: dict[int, tuple[LaneJet, int]] = {}
        self._scalar: set[int] = set()
        self._fit_idx: dict[int, tuple[list[int], float, np.ndarray | None]] = {}
        self._powers: list[list[list[float]]] = []
        self._power_array: np.ndarray | None = None
        if not exact:
            ahead = 2 * dim_homog(self.n, k_top)
            self._draw(ahead)
            self._batch(range(ahead))

    def _draw(self, count: int) -> None:
        while len(self._dirs) < count:
            v = direction(self._rng, self.n, self.exact)
            self._dirs.append(v)
            if not self.exact:
                self._powers.append(power_table(v, self.k_top))

    def _ensure(self, count: int) -> None:
        self._asked = max(self._asked, count)
        self._draw(count)

    def dir(self, i: int) -> tuple:
        self._ensure(i + 1)
        return self._dirs[i]

    def _batch(self, indices: Sequence[int]) -> None:
        """Evaluate the float jets of drawn directions not held yet, in one pass.

        At most LANES_PER_PASS directions share a pass, which bounds the
        memory a pass holds for large n and k_max.  An irregular batch
        leaves its directions to the scalar path.
        """
        todo = [i for i in indices
                if i not in self._lane and i not in self._jets
                and i not in self._scalar]
        if self.exact:
            return
        for start in range(0, len(todo), LANES_PER_PASS):
            chunk = todo[start:start + LANES_PER_PASS]
            try:
                with np.errstate(all="ignore"):
                    batch = eval_lanes(self.e.root, self.x,
                                       np.array([self._dirs[i] for i in chunk]),
                                       self.order)
            except IrregularBatch:
                self._scalar.update(chunk)
                continue
            for row, i in enumerate(chunk):
                self._lane[i] = (batch, row)

    def jet(self, i: int) -> LaurentJet:
        j = self._jets.get(i)
        if j is None:
            v = self.dir(i)
            held = self._lane.get(i)
            if held is not None:
                j = held[0].lane(held[1])
            else:
                j = gateaux_series(self.e, self.x, v, self.order, self.exact)
            self._jets[i] = j
        return j

    def taylor_values(self, k: int, indices: Sequence[int]) -> list:
        """h_k at each direction, in order; raises as the first bad jet does."""
        self._batch(indices)
        columns: dict[int, list] = {}
        out = []
        for i in indices:
            held = self._lane.get(i)
            if held is None:
                out.append(self.jet(i).taylor_coeff(k))
                continue
            batch, row = held
            column = columns.get(id(batch))
            if column is None:
                column = columns[id(batch)] = batch.taylor_column(k)
            out.append(column[row])
        return out

    def matrix(self, indices: Sequence[int], k: int) -> np.ndarray:
        """Float evaluation matrix of degree k at the given directions."""
        if self._power_array is None or len(self._power_array) < len(self._powers):
            self._power_array = np.array(self._powers)
        return gather_matrix(self._power_array[indices], self.n, k)

    def fit_indices(self, k: int) -> tuple[list[int], float, np.ndarray | None]:
        """Fit directions of order k, their condition and (float) matrix."""
        cached = self._fit_idx.get(k)
        if cached is not None:
            return cached
        d = dim_homog(self.n, k)
        self._ensure(2 * d)
        candidate = list(range(d))
        cond = math.inf
        for _ in range(8):
            if self.exact:
                matrix = None
                cond = condition_estimate([self.dir(i) for i in candidate],
                                          self.n, k)
            else:
                matrix = self.matrix(candidate, k)
                cond = matrix_condition(matrix)
            if math.isfinite(cond) and cond <= self.cond_cap:
                self._fit_idx[k] = (candidate, cond, matrix)
                return self._fit_idx[k]
            start = self._asked
            self._ensure(start + d)
            candidate = list(range(start, start + d))
        raise GenericityFailure(
            f"no well-conditioned fit directions for order {k} "
            f"(last estimate {cond:.3g})")

    def validation_indices(self, k: int, m: int) -> list[int]:
        d = dim_homog(self.n, k)
        self._ensure(d + m)
        return list(range(d, d + m))


# --- the per-order polynomiality test -----------------------------------------

@dataclass(frozen=True)
class PolyTestResult:
    """Outcome of probing one order k at one point."""

    k: int
    polynomial: bool
    fitted: HomoPoly | None
    residuals: tuple
    scale: float
    max_residual: float
    node_seed: int
    pole_direction: tuple | None = None


def _poly_test_session(session: _PointSession, k: int, tol: float,
                       validation_count: int | None,
                       point_value: Scalar | None) -> PolyTestResult:
    fit_idx, cond, matrix = session.fit_indices(k)
    m = validation_count if validation_count is not None \
        else dim_homog(session.n, k)
    val_idx = session.validation_indices(k, m)

    try:
        fit_values = session.taylor_values(k, fit_idx)
        val_values = session.taylor_values(k, val_idx)
    except PoleAtOrigin:
        bad = next(i for i in fit_idx + val_idx
                   if not session.jet(i).is_zero
                   and session.jet(i).valuation < 0)
        return PolyTestResult(k, False, None, (), 1.0, math.inf,
                              session.seed, session.dir(bad))

    scale = 1.0 + max((abs(v) for v in fit_values), default=0)
    if session.exact:
        nodes = NodeSet(session.n, k, tuple(session.dir(i) for i in fit_idx),
                        cond, session.seed, session.exact)
        fitted = interp_fit(fit_values, nodes)
        predicted = [fitted(session.dir(i)) for i in val_idx]
    else:
        fitted = fit_matrix(matrix, fit_values, session.n, k)
        predicted = fitted.eval_rows(session.matrix(val_idx, k))
    residuals = [abs(value - p) for value, p in zip(val_values, predicted)]
    if k == 0 and point_value is not None:
        residuals.append(abs(fitted.coeffs[0] - point_value))
    max_residual = max(residuals, default=0)
    ok = max_residual <= tol * scale
    return PolyTestResult(k, ok, fitted, tuple(residuals), float(scale),
                          float(max_residual), session.seed)


def poly_test(e: Expr, x: Sequence[Scalar], k: int, node_seed: int = 0,
              validation_count: int | None = None, tol: float = DEFAULT_TOL,
              order: int | None = None, exact: bool = False,
              cond_cap: float = DEFAULT_COND_CAP) -> PolyTestResult:
    """Decide whether h_k(x, .) looks polynomial of degree k.

    Fits from d(n,k) generic directions and validates at as many fresh
    ones (by default); `polynomial` is True iff every validation residual
    is at most tol * (1 + max |h_k| over the fit directions).
    """
    if order is None:
        order = default_order(max(k, 1))
    xs = tuple(x) if exact else tuple(float(c) for c in x)
    try:
        point_value = eval_point(e, xs, exact)
    except DomainError:
        point_value = None
    session = _PointSession(e, xs, order, exact, node_seed, cond_cap, k)
    return _poly_test_session(session, k, tol, validation_count, point_value)


# --- the pointwise verdict ----------------------------------------------------

@dataclass(frozen=True)
class OrderEvidence:
    k: int
    fitted: HomoPoly | None
    residuals: tuple
    scale: float
    node_seed: int
    pole_direction: tuple | None = None


@dataclass(frozen=True)
class Verdict:
    """Analyticity classification of one point."""

    point: tuple
    status: str
    k_max: int
    k_star: int | None = None
    residual: float | None = None
    reason: str | None = None
    guard_triggered: bool = False
    shortcut: bool = False
    evidence: tuple[OrderEvidence, ...] = field(default=())

    @property
    def flagged(self) -> bool:
        return self.status == NON_ANALYTIC


def classify_point(e: Expr, x: Sequence[Scalar], k_max: int = DEFAULT_K_MAX,
                   tol: float = DEFAULT_TOL, seed: int = 0,
                   order: int | None = None, exact: bool = False,
                   shortcut: bool = False,
                   cond_cap: float = DEFAULT_COND_CAP) -> Verdict:
    """Run the polynomiality ladder k = 0..k_max at one point.

    NonAnalytic(k_star) means orders below k_star passed and k_star failed
    validation; AnalyticUpTo(k_max) means every order passed.  Genericity
    failures and directions leaving the function's real domain yield an
    Inconclusive verdict rather than a guess.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if order is None:
        order = default_order(k_max)
    xs = tuple(x) if exact else tuple(float(c) for c in x)

    if shortcut and regular_at(e, xs, exact):
        return Verdict(xs, ANALYTIC_UP_TO, k_max, shortcut=True)

    guard_flag = False
    try:
        point_value, guard_flag = eval_point_flagged(e, xs, exact)
    except DomainError:
        point_value = None

    session = _PointSession(e, xs, order, exact, seed, cond_cap, k_max)
    evidence: list[OrderEvidence] = []
    for k in range(k_max + 1):
        try:
            result = _poly_test_session(session, k, tol, None, point_value)
        except GenericityFailure as exc:
            return Verdict(xs, INCONCLUSIVE, k_max, reason=str(exc),
                           guard_triggered=guard_flag, evidence=tuple(evidence))
        except ArcDomainError as exc:
            return Verdict(xs, INCONCLUSIVE, k_max, reason=str(exc),
                           guard_triggered=guard_flag, evidence=tuple(evidence))
        evidence.append(OrderEvidence(k, result.fitted, result.residuals,
                                      result.scale, result.node_seed,
                                      result.pole_direction))
        if not result.polynomial:
            return Verdict(xs, NON_ANALYTIC, k_max, k_star=k,
                           residual=result.max_residual,
                           guard_triggered=guard_flag, evidence=tuple(evidence))
    return Verdict(xs, ANALYTIC_UP_TO, k_max, guard_triggered=guard_flag,
                   evidence=tuple(evidence))


# --- region scans -------------------------------------------------------------

def grid_points(axes: Sequence[tuple], exact: bool = False) -> list[tuple]:
    """Row-major lattice for per-axis (lo, hi, step) bounds, endpoints included.

    Coordinates are generated in exact rational arithmetic so the point
    count never depends on float rounding, then converted per mode.
    """
    axis_values = []
    for lo, hi, step in axes:
        lo_f, hi_f, step_f = (_as_fraction(v) for v in (lo, hi, step))
        if step_f <= 0:
            raise ValueError("grid step must be positive")
        if hi_f < lo_f:
            raise ValueError("grid upper bound below lower bound")
        count = int((hi_f - lo_f) / step_f) + 1
        values = [lo_f + i * step_f for i in range(count)]
        axis_values.append(values if exact else [float(v) for v in values])
    points: list[tuple] = [()]
    for values in axis_values:
        points = [p + (v,) for p in points for v in values]
    return points


def _as_fraction(v) -> Fraction:
    if isinstance(v, float):
        return Fraction(str(v))
    return Fraction(v)


def _scan_one(args) -> Verdict:
    e, pt, k_max, tol, pseed, order, exact, shortcut, cond_cap = args
    try:
        return classify_point(e, pt, k_max, tol, pseed, order, exact,
                              shortcut, cond_cap)
    except ArcanError as exc:
        return Verdict(tuple(pt), INCONCLUSIVE, k_max, reason=str(exc))


def iter_scan(e: Expr, axes: Sequence[tuple], k_max: int = DEFAULT_K_MAX,
              tol: float = DEFAULT_TOL, seed: int = 0,
              order: int | None = None, exact: bool = False,
              shortcut: bool = True, jobs: int = 1,
              cond_cap: float = DEFAULT_COND_CAP):
    """Yield one verdict per grid point, in grid (row-major) order.

    Each point gets a seed derived from (seed, grid index), so the verdicts
    do not depend on worker scheduling, and a permissible error at one point
    becomes an Inconclusive verdict instead of aborting the scan.
    """
    points = grid_points(axes, exact)
    tasks = [(e, pt, k_max, tol, derive_seed(seed, "scan", i), order, exact,
              shortcut, cond_cap) for i, pt in enumerate(points)]
    if jobs <= 1:
        for t in tasks:
            yield _scan_one(t)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_scan_one, tasks, chunksize=64)


def scan_region(e: Expr, axes: Sequence[tuple], k_max: int = DEFAULT_K_MAX,
                tol: float = DEFAULT_TOL, seed: int = 0,
                order: int | None = None, exact: bool = False,
                shortcut: bool = True, jobs: int = 1,
                cond_cap: float = DEFAULT_COND_CAP) -> list[Verdict]:
    """Classify every grid point; see `iter_scan` for the contract."""
    return list(iter_scan(e, axes, k_max, tol, seed, order, exact, shortcut,
                          jobs, cond_cap))


def flagged_points(verdicts: Sequence[Verdict]) -> list[tuple]:
    return [v.point for v in verdicts if v.status == NON_ANALYTIC]


# --- arc symmetry -------------------------------------------------------------

@dataclass(frozen=True)
class ArcSymmetryReport:
    """Verdict symmetry along one arc, sampled at +/- t."""

    samples: int
    negative_uniformly_analytic: bool
    positive_exceptions: int
    allowed_exceptions: int
    violation: bool
    negative_statuses: tuple[str, ...]
    positive_statuses: tuple[str, ...]


def arc_symmetry_check(e: Expr, arc: ArcSpec, samples: int = 64,
                       k_max: int = 4, tol: float = DEFAULT_TOL,
                       seed: int = 0, t_max: float = 0.5,
                       allowed_exceptions: int = 2, exact: bool = False,
                       shortcut: bool = True,
                       order: int | None = None) -> ArcSymmetryReport:
    """Check that non-analyticity cannot appear on just one side of t = 0.

    A violation needs every sampled t < 0 point analytic while more than
    `allowed_exceptions` of the t > 0 samples classify NonAnalytic; finitely
    many positive-side exceptions are legitimate, so a small allowance is
    part of the check, not a fudge.
    """
    if arc.nvars != e.nvars:
        raise ValueError("arc dimension does not match the expression")
    ts = [t_max * (i + 1) / samples for i in range(samples)]

    def classify_at(t: float) -> str:
        pt = tuple(eval_point(c, (t,), exact) for c in arc.components)
        v = _scan_one((e, pt, k_max, tol, derive_seed(seed, "arcsym", t),
                       order, exact, shortcut, DEFAULT_COND_CAP))
        return v.status

    neg = tuple(classify_at(-t) for t in ts)
    pos = tuple(classify_at(t) for t in ts)
    negative_uniform = all(s == ANALYTIC_UP_TO for s in neg)
    exceptions = sum(1 for s in pos if s == NON_ANALYTIC)
    violation = negative_uniform and exceptions > allowed_exceptions
    return ArcSymmetryReport(samples, negative_uniform, exceptions,
                             allowed_exceptions, violation, neg, pos)


# --- growth bound near an exceptional set --------------------------------------

@dataclass(frozen=True)
class LojaFit:
    """Fitted bound |f(x)| <= C * dist(x, Gamma)^(-N) over the samples."""

    C: float
    N: int
    gamma: str
    quality: float


def loja_estimate(e: Expr, gamma_points: Sequence[Sequence[float]],
                  samples: Sequence[Sequence[float]], n_cap: int = 10,
                  margin: float = 0.5, near_quantile: float = 0.1) -> LojaFit:
    """Smallest integer N (up to the cap) taming |f| near the sampled set.

    For each candidate N the products |f(x)| dist(x)^N are compared between
    the samples nearest the set and the rest; N is accepted once the near
    region stops dominating, i.e. the bound does not blow up as x approaches
    the set.  C is then the overall sampled maximum of |f| dist^N.
    """
    if not gamma_points:
        raise ValueError("need at least one point of the exceptional set")
    gam = np.array([[float(c) for c in p] for p in gamma_points])
    pts = np.array([[float(c) for c in p] for p in samples])
    if pts.ndim != 2 or len(pts) < 20:
        raise ValueError("need at least 20 samples")
    diffs = pts[:, None, :] - gam[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(axis=2)).min(axis=1)
    if np.any(dists == 0):
        raise ValueError("samples must avoid the exceptional set exactly")
    values = np.array([abs(eval_point(e, tuple(p))) for p in pts])

    cut = float(np.quantile(dists, near_quantile))
    near = dists <= cut
    if not near.any() or near.all():
        raise ValueError("sample distances do not straddle the near cutoff")
    for n_exp in range(n_cap + 1):
        scaled = values * dists ** n_exp
        near_max = float(scaled[near].max())
        far_max = float(scaled[~near].max())
        if far_max == 0.0 and near_max == 0.0:
            return LojaFit(0.0, n_exp, _gamma_desc(gamma_points), 0.0)
        if far_max > 0 and near_max <= (1.0 + margin) * far_max:
            return LojaFit(float(scaled.max()), n_exp,
                           _gamma_desc(gamma_points),
                           near_max / far_max)
    raise CapExceeded(f"no exponent up to {n_cap} bounds the growth")


def _gamma_desc(gamma_points) -> str:
    if len(gamma_points) == 1:
        return f"point {tuple(float(c) for c in gamma_points[0])}"
    return f"{len(gamma_points)} sampled points"


# --- serialization -------------------------------------------------------------

def verdict_to_json(v: Verdict) -> dict:
    doc: dict = {"point": list(v.point), "status": v.status, "kMax": v.k_max}
    if v.k_star is not None:
        doc["kStar"] = v.k_star
    if v.residual is not None:
        doc["residual"] = v.residual
    if v.reason is not None:
        doc["reason"] = v.reason
    if v.guard_triggered:
        doc["guardTriggered"] = True
    if v.shortcut:
        doc["shortcut"] = True
    per_order = []
    for ev in v.evidence:
        entry: dict = {"k": ev.k, "residuals": list(ev.residuals),
                       "scale": ev.scale, "nodeSeed": ev.node_seed}
        if ev.fitted is not None:
            entry["fitted"] = ev.fitted.to_json()
        if ev.pole_direction is not None:
            entry["pole"] = list(ev.pole_direction)
        per_order.append(entry)
    doc["perOrder"] = per_order
    return doc
