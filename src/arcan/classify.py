"""Pointwise analyticity classification and region scans.

The detector rests on the directional series coefficients

    h_k(x, v) = (1/k!) d^k/dt^k f(x + t v) |_{t=0},

which are k-homogeneous in v and, at a point where f is an analytic germ,
polynomial in v.  `classify_point` probes the orders k = 0..k_max in turn
(the ladder) and reports the first failing order.  A pole along a
direction, a nonzero exact residual, or a float residual above
tol * (1 + max |h_k|) certifies that the differential is not polynomial
at that order; a float order whose values or residuals overflow certifies
nothing, and the verdict is `Inconclusive`.  A finite ladder cannot prove
analyticity, so the positive verdict is the honest `AnalyticUpTo(k_max)`.

Both modes run one ladder.  Every ladder evaluates its jets along the
rows of one canonical design per n (`homog.LatticeDesign`), as they
are: the integer rows in rational mode, those rows scaled to unit length
in float mode.  No seed changes them.  `design` caches the rows a ladder
reads, shared by every point of a scan, and order k reads h_k along the
first 2·d(n,k) rows.  One fit, `homog.interp_fit`, tests every order, on
blocks of the canonical rows built once per (n, k).  An order whose
values are all exact (rational mode, each h_k a `Fraction` read from a
`RationalJet`) is interpolated on the first half of its rows and
validated on the rest; the exact solve proves the fit block's rank.
Every other order, in either mode, is tested by one least-squares rule:
h_k must lie in the column space of the degree-k evaluation matrix
V = QR of the unit rows, and the residual |h - Q Qᵀ h| is bounded by the
error of h itself, not amplified by the condition of V (Golub & Van
Loan, *Matrix Computations*, §5.3).  Along an integer row w,
h_k(x, w/|w|) = h_k(x, w)/|w|^k.  A point's jets, float or exact, come
from batched passes over the rows (`eval_lanes`); a batch the lanes
cannot share is rerun one direction at a time, as one-lane jets equal to
its lanes: bit for bit in floats, in value and type when exact.

The ladder reads no coefficient above k_max, so its jets run truncated
after t^k_max first, and are run again to the window `order` (the CLI's
--order, by default 2·k_max + 4) only where the narrow window could
change the verdict: where it divides by a jet that vanishes in it, reads
past a window that divisions shortened, takes the square root of a jet
that vanishes in it, or overflows the float range (`_ladder`).

Region scans, arc-symmetry checks and fibre-lift centre samples reuse
the pointwise verdict behind a sound fast path: where every denominator
and square-root radicand stays away from zero the function is a
composition of analytic germs, and no sampling is needed.
`regular_points` alone decides that shortcut, in either arithmetic a
block of points at a time in one tape pass (`regular_lanes`, one lane
per point).  A scan builds its grid once, as one array (`grid_array`:
floats, or the axes' own Fractions), and only the indices the shortcut
does not find regular are visited in Python: they run the ladder.  A
point it finds regular gets no `Verdict`: `iter_scan` does not yield
it, `scan_region` leaves it out, and the CLI writes its line from fixed
text.  `classify_point` always runs the ladder.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ArcanError, ArcDomainError, CapExceeded, DomainError, \
    FloatOverflow, GenericityFailure, IrregularBatch, PoleAtOrigin, \
    ShortWindow
# regular_at and derive_seed are unused here; the benchmark's tracer
# patches them.
from .expr import ArcSpec, Expr, _check_point, eval_jets, eval_lanes, \
    eval_point, eval_point_flagged, float_points, regular_at, regular_lanes
# condition_estimate is unused here; the benchmark's tracer patches it.
from .homog import HomoPoly, _magnitude, canonical_design, \
    condition_estimate, dim_homog, interp_fit
from .jets import LaneJet, RationalJet, Scalar
from .seeds import derive_seed, sample_scalar

ANALYTIC_UP_TO = "AnalyticUpTo"
NON_ANALYTIC = "NonAnalytic"
INCONCLUSIVE = "Inconclusive"

DEFAULT_K_MAX = 8
DEFAULT_TOL = 1e-7
# Directions per batched jet pass: 2*d(3,10) = 132 fit in one.
LANES_PER_PASS = 256
# Points per pass of the regularity shortcut (a few MB at most).
_SHORTCUT_BLOCK = 4096
# Largest grid a scan builds: 10**6 points in 3 variables take 24 MB as
# one array (48 MB while it is built), as floats or as references to the
# axes' own Fractions.
MAX_GRID_POINTS = 10 ** 6
# Ladder points a scan hands a worker pool at once, ~5 MB of tasks.
_POOL_BATCH = 1 << 14
# Largest ladder the CLI runs: k_max, the d(n, k_max) monomials of its top
# order (x+y+z at k_max 60 has 1891), and the widest window its jets may
# widen to (2 * MAX_K_MAX + 4 is the default at the top k_max).
MAX_K_MAX = 100
MAX_LADDER_DIRECTIONS = 2000
MAX_ORDER = 404


def default_order(k_max: int) -> int:
    """The widest retained jet order of a ladder: its jets run to k_max
    first, and widen to this only where the window k_max could change
    the verdict (`_ladder`); divisions shift valuations, so keep
    headroom."""
    return 2 * k_max + 4


# --- directional series coefficients -----------------------------------------

def _series(e: Expr, x: Sequence[Scalar], v: Sequence[Scalar], order: int,
            exact: bool,
            provisional: bool = False) -> RationalJet | LaneJet:
    """The jet of t -> f(x + t v) at t = 0, as `eval_jets` returns it: a
    one-lane `RationalJet` (exact) or `LaneJet`."""
    if len(x) != e.nvars or len(v) != e.nvars:
        raise ValueError("point and direction must match the expression dimension")
    line = RationalJet.line if exact else LaneJet.line
    return eval_jets(e.root, [line(xi, (vi,), order) for xi, vi in zip(x, v)],
                     order, exact, provisional)


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
    return _series(e, xs, vs, order, exact).taylor_coeff(k)


# --- the ladder's direction design --------------------------------------------

@lru_cache(maxsize=4)
def design(n: int, k_top: int, exact: bool = False) -> tuple[np.ndarray, str]:
    """The rows of every ladder of n variables up to order k_top, and why
    they fall short, if they do.

    The rows are the canonical design's first 2·d(n, k_top), integer in
    rational mode and at unit length in float mode, as one read-only
    array.  The design's rows are finite: where they run out, the array
    holds them all and the text is the GenericityFailure an order beyond
    them raises; the orders below still run.  Otherwise the text is "".
    """
    canonical = canonical_design(n)
    read = canonical.rows if exact else canonical.unit
    shortage = ""
    try:
        rows = read(2 * dim_homog(n, k_top))
    except GenericityFailure as exc:
        rows, shortage = read(len(canonical.directions)), str(exc)
    rows = np.array(rows, dtype=object if exact else float)
    rows.flags.writeable = False
    return rows, shortage


class _DesignJets:
    """Jets of f(x + t v) at one point, v running over a design's rows,
    truncated after t^order (the window).

    The jets come from `eval_lanes` passes of at most LANES_PER_PASS
    directions (bounding a pass's memory), each run when first read.  An
    exact lane costs about what its direction alone does, so an exact
    first pass holds just the rows of orders 0 and 1, where most points a
    scan leaves to the ladder fail.  A pass the lanes cannot share
    (`IrregularBatch`, a value beyond the float range, or a domain error
    of a one-lane pass) is rerun one direction at a time (`_series`),
    each raising what it raises where read.  A lane equals its rerun: bit
    for bit in floats, in value and type when exact.  Where an exact jet
    meets the float of an irrational square root, an exact value beyond
    the float range raises FloatOverflow.  In a `provisional` window, one
    the ladder widens when it cannot decide, a square root of a radicand
    that vanishes in the window raises ShortWindow (`eval_jets`).  Float
    h_k travel as one array (`taylor_values`): into the fit, and from it
    as the one array of residuals the order's `PolyTestResult` keeps.
    """

    def __init__(self, e: Expr, x: tuple, order: int, directions: np.ndarray,
                 exact: bool = False, provisional: bool = False):
        self.e, self.x, self.order, self.exact = e, x, order, exact
        self.directions, self.provisional = directions, provisional
        first = 2 * directions.shape[1] if exact else LANES_PER_PASS
        self._starts = [0, *range(first, len(directions), LANES_PER_PASS)]
        self._stops = self._starts[1:] + [len(directions)]
        self._passes: dict[int, RationalJet | LaneJet | None] = {}
        self._reruns: dict[int, RationalJet | LaneJet] = {}

    def batch(self, p: int) -> RationalJet | LaneJet | None:
        """Pass p's jets, or None where its directions run alone."""
        if p not in self._passes:
            try:
                self._passes[p] = eval_lanes(
                    self.e.root, self.x,
                    self.directions[self._starts[p]:self._stops[p]],
                    self.order, self.exact, self.provisional)
            except (IrregularBatch, OverflowError, ArcDomainError):
                self._passes[p] = None  # the reruns raise where read
        return self._passes[p]

    def jet(self, i: int) -> RationalJet | LaneJet:
        """Direction i's jet alone (its rerun)."""
        if i not in self._reruns:
            v = tuple(self.directions[i].tolist())
            try:
                self._reruns[i] = _series(self.e, self.x, v, self.order,
                                          self.exact, self.provisional)
            except OverflowError as exc:
                raise FloatOverflow(
                    f"the jet along {v} overflows the float range "
                    f"({exc})") from exc
        return self._reruns[i]

    def has_pole(self, i: int) -> bool:
        """Whether direction i's jet has a pole at t = 0, read from its
        pass where it has one (the lanes share one valuation)."""
        batch = self.batch(bisect_right(self._starts, i) - 1)
        jet = self.jet(i) if batch is None else batch
        return not jet.is_zero and jet.valuation < 0

    def taylor_values(self, k: int, count: int) -> list | np.ndarray:
        """h_k along the first `count` directions; raises as the first bad
        jet.  Exact: a list of the jets' own scalars.  Float: one float
        array, a view of the pass's row where one pass holds them all."""
        parts: list = []
        for p, (start, stop) in enumerate(zip(self._starts, self._stops)):
            if start >= count:
                break
            stop = min(count, stop)
            batch = self.batch(p)
            if batch is None:
                reruns = [self.jet(i).taylor_coeff(k) for i in range(start, stop)]
                parts.append(reruns if self.exact
                             else np.array(reruns, dtype=float))
            elif self.exact:
                parts.append(batch.taylor_column(k, stop - start))
            else:
                parts.append(batch.taylor_row(k, stop - start))
        if self.exact:
            return [h for part in parts for h in part]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


# --- the per-order polynomiality test -----------------------------------------

@dataclass(frozen=True, eq=False)
class PolyTestResult:
    """Outcome of probing one order k at one point (a verdict's evidence):
    it passes iff no direction meets a pole and `margin` <= 1.

    `residuals` is a tuple of exact residuals where the order was solved
    exactly, else one read-only float array, as `interp_fit` returns it;
    `worst` is their largest, computed once.  Two results are equal where
    their fields are, the residuals compared by value."""

    k: int
    fitted: HomoPoly | None
    residuals: tuple | np.ndarray
    scale: float
    threshold: float
    pole_direction: tuple | None = None
    worst: Scalar = 0

    @property
    def polynomial(self) -> bool:
        return self.pole_direction is None and self.worst <= self.threshold

    @property
    def max_residual(self) -> float:
        if self.pole_direction is not None:
            return math.inf
        return _magnitude(self.worst)

    @property
    def margin(self) -> float:
        if self.threshold:
            return self.max_residual / self.threshold
        return 0.0 if self.max_residual == 0 else math.inf

    def residual_list(self) -> list:
        """The residuals as a list of Python scalars."""
        if isinstance(self.residuals, np.ndarray):
            return self.residuals.tolist()
        return list(self.residuals)

    def _key(self) -> tuple:
        return (self.k, self.fitted, tuple(self.residual_list()), self.scale,
                self.threshold, self.pole_direction, self.worst)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyTestResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _order_result(jets: _DesignJets, shortage: str, k: int, tol: float,
                  point_value: Scalar | None) -> PolyTestResult:
    """Order k's test on h_k along the design's rows [0, 2·d(n, k)).

    A pole along a row fails the order.  Otherwise `interp_fit` fits the
    form; at k = 0 the point value is one more residual.  An order whose
    residuals are all exact (int or Fraction) passes only if every one is
    0; one with a float residual passes if none exceeds tol * scale.  A
    least-squares fit's largest residual is also its finite check: where
    it is not finite, h_k or the fit overflowed and the order gives no
    evidence either way (FloatOverflow).
    """
    n = jets.directions.shape[1]
    count = 2 * dim_homog(n, k)
    if count > len(jets.directions):  # the design's rows ran out
        raise GenericityFailure(shortage)
    try:
        values = jets.taylor_values(k, count)
    except PoleAtOrigin:
        bad = next(i for i in range(count) if jets.has_pole(i))
        return PolyTestResult(k, None, (), 1.0, tol,
                              tuple(jets.directions[bad].tolist()))
    fitted, residuals, scale = interp_fit(values, n, k, jets.exact)
    solved = isinstance(residuals, list)  # an exact solve's exact residuals
    if solved:
        worst = max(residuals)
    else:
        worst = float(residuals.max())
        if not math.isfinite(worst):
            raise FloatOverflow(
                f"order {k}: h_{k} or its residuals overflow the float "
                "range; --mode rational evaluates rational inputs exactly")
    exact = solved
    if k == 0 and point_value is not None:
        extra = abs(fitted.coeffs[0] - point_value)
        worst = max(worst, extra)
        if solved:
            residuals.append(extra)
            exact = isinstance(extra, (int, Fraction))
        else:
            residuals = np.append(residuals, extra)
            residuals.flags.writeable = False
    return PolyTestResult(k, fitted, tuple(residuals) if solved else residuals,
                          scale, 0.0 if exact else tol * scale, worst=worst)


# --- the pointwise verdict ----------------------------------------------------

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
    evidence: tuple[PolyTestResult, ...] = field(default=())


def classify_point(e: Expr, x: Sequence[Scalar], k_max: int = DEFAULT_K_MAX,
                   tol: float = DEFAULT_TOL, order: int | None = None,
                   exact: bool = False, *, seed: int | None = None) -> Verdict:
    """Run the polynomiality ladder k = 0..k_max at one point.

    NonAnalytic(k_star) means orders below k_star passed and k_star failed;
    AnalyticUpTo(k_max) means every order passed.  Non-generic directions
    and directions leaving the function's real domain yield an
    Inconclusive verdict rather than a guess, and so do jets whose window
    (`order`, the CLI's --order) ends below a coefficient the ladder reads.

    The jets run in the window k_max first, and in the window `order`
    only where that pass could change the verdict (`_ladder`).  A point
    value beyond the float range is left to the ladder, as one outside
    the domain is.  `seed` is accepted and ignored: ladders read no seed.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if order is None:
        order = default_order(k_max)
    xs = tuple(x) if exact else tuple(float(c) for c in x)
    if order > k_max:
        verdict = _ladder(e, xs, k_max, tol, k_max, exact, provisional=True)
        if verdict is not None:
            return verdict
    return _ladder(e, xs, k_max, tol, order, exact)


def _ladder(e: Expr, xs: tuple, k_max: int, tol: float, window: int,
            exact: bool, provisional: bool = False) -> Verdict | None:
    """The ladder at xs on jets truncated after t^window.

    Coefficient i of `+ - * / sqrt` reads only operand coefficients up to
    i, and every jet kind adds its terms in the same order whatever the
    window, so each coefficient a narrower window holds equals the wider
    window's bit for bit.  The two differ only at a jet that vanishes in
    the narrower window: a divisor there raises ArcDomainError, a read past
    a shortened window ShortWindow, and a radicand there, in a provisional
    window, ShortWindow too (`eval_jets`).  An exact value may also leave
    the float range in the wider window only.  A provisional ladder returns
    None on ShortWindow, ArcDomainError and FloatOverflow, for the caller
    to run the ladder in a wider window; GenericityFailure depends only on
    the design, and is final in any window.  So a provisional verdict is
    the wider window's, except where only a coefficient beyond the
    narrower window would leave the float range.
    """
    guard_flag = False
    try:
        point_value, guard_flag = eval_point_flagged(e, xs, exact)
    except (DomainError, FloatOverflow, OverflowError):
        point_value = None

    evidence: list[PolyTestResult] = []
    try:
        rows, shortage = design(e.nvars, k_max, exact)
        jets = _DesignJets(e, xs, window, rows, exact, provisional)
        # an order whose values overflow raises FloatOverflow, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(k_max + 1):
                result = _order_result(jets, shortage, k, tol, point_value)
                evidence.append(result)
                if not result.polynomial:
                    return Verdict(xs, NON_ANALYTIC, k_max, k_star=k,
                                   residual=result.max_residual,
                                   guard_triggered=guard_flag,
                                   evidence=tuple(evidence))
    except GenericityFailure as exc:
        return Verdict(xs, INCONCLUSIVE, k_max, reason=str(exc),
                       guard_triggered=guard_flag, evidence=tuple(evidence))
    except (ArcDomainError, FloatOverflow, ShortWindow) as exc:
        if provisional:
            return None
        reason = str(exc)
        if isinstance(exc, ShortWindow):
            reason += (f": divisions shortened the jets of --order {window}; "
                       "a larger --order keeps more")
        return Verdict(xs, INCONCLUSIVE, k_max, reason=reason,
                       guard_triggered=guard_flag, evidence=tuple(evidence))
    return Verdict(xs, ANALYTIC_UP_TO, k_max, guard_triggered=guard_flag,
                   evidence=tuple(evidence))


# --- region scans -------------------------------------------------------------

def grid_points(axes: Sequence[tuple], exact: bool = False) -> list[tuple]:
    """The rows of `grid_array(axes, exact)` as tuples."""
    return [tuple(row) for row in grid_array(axes, exact).tolist()]


def grid_axis_values(axes: Sequence[tuple], exact: bool = False) -> list[list]:
    """Each axis's coordinates, lo, lo + step, ... up to hi, of a grid.

    Coordinates are generated in exact rational arithmetic so the point
    count never depends on float rounding, then converted per mode.  A grid
    of more than `MAX_GRID_POINTS` points is refused before it is built.
    """
    bounds = []
    for lo, hi, step in axes:
        lo_f, hi_f, step_f = (_as_fraction(v) for v in (lo, hi, step))
        if step_f <= 0:
            raise ValueError("grid step must be positive")
        if hi_f < lo_f:
            raise ValueError("grid upper bound below lower bound")
        bounds.append((lo_f, step_f, int((hi_f - lo_f) / step_f) + 1))
    total = math.prod(count for _, _, count in bounds)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid has {total} points, more than the "
                         f"{MAX_GRID_POINTS} allowed")
    axis_values = []
    for lo_f, step_f, count in bounds:
        if exact:
            axis_values.append([lo_f + i * step_f for i in range(count)])
            continue
        # lo + i*step over one denominator: int / int rounds once, as
        # float(Fraction) does
        den = lo_f.denominator * step_f.denominator
        lo_n = lo_f.numerator * step_f.denominator
        step_n = step_f.numerator * lo_f.denominator
        axis_values.append([(lo_n + i * step_n) / den for i in range(count)])
    return axis_values


def _as_fraction(v) -> Fraction:
    if isinstance(v, float):
        return Fraction(str(v))
    return Fraction(v)


def _scan_one(args) -> Verdict:
    e, pt, k_max, tol, order, exact = args
    try:
        return classify_point(e, pt, k_max, tol, order, exact)
    except ArcanError as exc:
        return Verdict(tuple(pt), INCONCLUSIVE, k_max, reason=str(exc))


def grid_array(axes: Sequence[tuple], exact: bool = False) -> np.ndarray:
    """Row-major lattice for per-axis (lo, hi, step) bounds, endpoints
    included, as one read-only (points, nvars) array of the product of
    `grid_axis_values`: floats, or exact, the axes' own Fractions."""
    return _grid_array(tuple(tuple(map(_as_fraction, ax)) for ax in axes),
                       exact)


@lru_cache(maxsize=1)
def _grid_array(axes: tuple, exact: bool) -> np.ndarray:
    """`grid_array` of exact bounds; the last grid is kept, so a corpus
    check and its scan build it once."""
    values = grid_axis_values(axes, exact)
    grid = np.stack(np.meshgrid(*values, indexing="ij"), axis=-1) \
        .reshape(-1, len(values))
    grid.flags.writeable = False
    return grid


def regular_points(e: Expr, points: Sequence[tuple] | np.ndarray,
                   exact: bool) -> np.ndarray:
    """Which points `regular_at` finds regular, as a boolean array.

    The points, a list of tuples or an array of rows, are decided a block
    of `_SHORTCUT_BLOCK` at a time (`regular_lanes`), in floats or, exact,
    in Python scalars.  A point whose check overflows the float range is
    not regular: the ladder decides it.  A point of the wrong length
    raises ValueError; an array is checked by its shape.
    """
    if not isinstance(points, np.ndarray):
        for pt in points:  # ragged tuples would make a 1-D array of tuples
            _check_point(e, pt)
    elif len(points):
        _check_point(e, points[0])
    points = (np.asarray(points, dtype=object) if exact
              else float_points(points)).reshape(len(points), e.nvars)
    regular = np.zeros(len(points), dtype=bool)
    for start in range(0, len(points), _SHORTCUT_BLOCK):
        regular[start:start + _SHORTCUT_BLOCK] = regular_lanes(
            e.root, points[start:start + _SHORTCUT_BLOCK])
    return regular


def iter_scan(e: Expr, axes: Sequence[tuple], k_max: int = DEFAULT_K_MAX,
              tol: float = DEFAULT_TOL, order: int | None = None,
              exact: bool = False, shortcut: bool = True, jobs: int = 1):
    """Yield (index, verdict) at each grid point that runs the ladder, in
    grid (row-major) order; `index` is the point's row in
    `grid_array(axes, exact)`.

    Every point's ladder reads the same canonical rows, so the verdicts
    do not depend on worker scheduling.  A permissible error at one point
    becomes an Inconclusive verdict instead of aborting the scan.

    The grid is built once, as `grid_array`.  With the shortcut on,
    `regular_points` decides it for the whole grid.  A point it finds
    regular is `AnalyticUpTo(k_max)` by the shortcut and is not yielded:
    no ladder runs and no `Verdict` is built there.  Only the other
    indices are visited, and only their points reach the worker pool when
    `jobs` > 1, `_POOL_BATCH` at a time.
    """
    grid = grid_array(axes, exact)
    regular = regular_points(e, grid, exact) if shortcut \
        else np.zeros(len(grid), dtype=bool)
    ladder = np.flatnonzero(~regular).tolist()

    def tasks(indices):
        return ((e, tuple(grid[i].tolist()), k_max, tol, order, exact)
                for i in indices)
    if jobs <= 1:
        yield from zip(ladder, map(_scan_one, tasks(ladder)))
        return
    # imported here only: it adds ~15 ms to every process's start-up
    from concurrent.futures import ProcessPoolExecutor
    # a pool takes all the tasks it is given at once: a batch at a time
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for start in range(0, len(ladder), _POOL_BATCH):
            batch = ladder[start:start + _POOL_BATCH]
            yield from zip(batch, pool.map(_scan_one, tasks(batch),
                                           chunksize=64))


def scan_region(e: Expr, axes: Sequence[tuple], k_max: int = DEFAULT_K_MAX,
                tol: float = DEFAULT_TOL, order: int | None = None,
                exact: bool = False, shortcut: bool = True,
                jobs: int = 1) -> list[Verdict]:
    """The verdicts `iter_scan` yields, in grid order.

    A point the shortcut finds regular is `AnalyticUpTo(k_max)` and is
    left out, so `flagged_points` of the list is the scan's.
    """
    return [v for _, v in iter_scan(e, axes, k_max, tol, order, exact,
                                    shortcut, jobs)]


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
                       t_max: float = 0.5, allowed_exceptions: int = 2,
                       exact: bool = False,
                       order: int | None = None) -> ArcSymmetryReport:
    """Check that non-analyticity cannot appear on just one side of t = 0.

    A violation needs every sampled t < 0 point analytic while more than
    `allowed_exceptions` of the t > 0 samples classify NonAnalytic; finitely
    many positive-side exceptions are legitimate, so a small allowance is
    part of the check, not a fudge.  Each side's points pass the
    regularity shortcut together (`regular_points`); the rest run the
    ladder.
    """
    if arc.nvars != e.nvars:
        raise ValueError("arc dimension does not match the expression")
    t_max = sample_scalar(t_max, exact)
    ts = [t_max * (i + 1) / samples for i in range(samples)]

    def statuses(side: list) -> tuple[str, ...]:
        points = [tuple(eval_point(c, (t,), exact) for c in arc.components)
                  for t in side]
        regular = regular_points(e, points, exact).tolist()
        return tuple(ANALYTIC_UP_TO if hit else _scan_one(
            (e, pt, k_max, tol, order, exact)).status
            for pt, hit in zip(points, regular))

    neg = statuses([-t for t in ts])
    pos = statuses(ts)
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
        entry: dict = {"k": ev.k, "residuals": ev.residual_list(),
                       "scale": ev.scale, "threshold": ev.threshold,
                       "margin": ev.margin}
        if ev.fitted is not None:
            entry["fitted"] = ev.fitted.to_json()
        if ev.pole_direction is not None:
            entry["pole"] = list(ev.pole_direction)
        per_order.append(entry)
    doc["perOrder"] = per_order
    return doc
