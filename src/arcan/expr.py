"""Expression trees for the functions under analysis, and their evaluation.

Supported shapes: rational constants, variables, `+ - * /`, non-negative
integer powers, `sqrt`, and `guard(body, default)`.  A guard returns its
body's value except where the body's evaluation divides by zero, in which
case it returns the default; this is how a rational function gets a chosen
value on its denominator's zero set.

Every evaluation compiles the tree once to a hash-consed postorder tape
(`compile_tape`) and runs it over an algebra (`run_tape`).  Pointwise
(`eval_point`), the tape runs over float or exact scalars and honours
guard defaults.  Along analytic arcs (`eval_arc`), it composes the
expression with a polynomial arc in jet arithmetic (`eval_jets`: exact
`RationalJet`s or float `LaneJet`s, and `eval_lanes` for a batch of lines
at one point) and ignores guard defaults, because the series of the body
is what the germ at t = 0 sees.  Over numpy columns, one
lane per point, float or exact, it decides regularity for a block of
points at once (`regular_lanes`, and `regular_at` for one point),
treating every denominator zero and `sqrt` boundary as leaving the
domain.  Structural
passes run on it too (`_fold`), each distinct subtree once:
`substitute`, `is_polynomial`, printing (`parser.to_text`), and the
pullback of `blowup.pullback` with its fraction expansion
(`mpoly.fraction_ops`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partialmethod
from typing import Sequence, Union

import numpy as np

from .errors import ArcDomainError, DomainError, FloatOverflow, NegativeLeading, \
    OddValuation, ShortWindow, ZeroDenominator, ZeroDivisor
from .jets import LaneJet, RationalJet, Scalar, jet_sqrt, sqrt_scalar


def _node(cls):
    """A frozen dataclass that computes its hash once.

    The generated hash hashes the whole subtree, so without the cache every
    lookup of a subtree (`compile_tape` hash-conses on them) would cost a
    walk over it.
    """
    cls = dataclass(frozen=True)(cls)
    subtree_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = subtree_hash(self)
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__
    return cls


@_node
class RationalConst:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@_node
class Var:
    index: int


@_node
class Add:
    left: "Node"
    right: "Node"


@_node
class Sub:
    left: "Node"
    right: "Node"


@_node
class Mul:
    left: "Node"
    right: "Node"


@_node
class Div:
    left: "Node"
    right: "Node"


@_node
class IntPow:
    base: "Node"
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("IntPow exponent must be non-negative")


@_node
class Sqrt:
    arg: "Node"


@_node
class Guard:
    body: "Node"
    default: Fraction

    def __post_init__(self):
        object.__setattr__(self, "default", Fraction(self.default))


Node = Union[RationalConst, Var, Add, Sub, Mul, Div, IntPow, Sqrt, Guard]

_BINOPS = (Add, Sub, Mul, Div)


@dataclass(frozen=True)
class Expr:
    """An expression tree together with the ambient dimension."""

    root: Node
    nvars: int

    def __post_init__(self):
        used = max_var_index(self.root)
        if used >= self.nvars:
            raise ValueError(
                f"expression uses variable index {used} but nvars={self.nvars}")


# --- the tape ------------------------------------------------------------------

# Tape instructions (op, a, b): `a` and `b` are earlier slots, or the
# constant, variable index, exponent or guard default the op carries.
_CONST, _VAR, _ADD, _SUB, _MUL, _DIV, _POW, _SQRT, _GUARD = range(9)
_OP_CODES = {RationalConst: _CONST, Var: _VAR, Add: _ADD, Sub: _SUB, Mul: _MUL,
             Div: _DIV, IntPow: _POW, Sqrt: _SQRT, Guard: _GUARD}


def compile_tape(node: Node) -> tuple[tuple, ...]:
    """Postorder program for a tree, one instruction per distinct subtree.

    Structurally equal subtrees share one slot (frozen nodes hash by
    value).  The last slot holds the value of `node`.  The tape is kept on
    the node, as its hash is, so each later call returns the same tuple.
    """
    try:
        return node._tape
    except AttributeError:
        pass
    slots: dict[Node, int] = {}
    tape: list[tuple] = []

    def visit(n: Node) -> int:
        slot = slots.get(n)
        if slot is not None:
            return slot
        if isinstance(n, RationalConst):
            ins = (_CONST, n.value, None)
        elif isinstance(n, Var):
            ins = (_VAR, n.index, None)
        elif isinstance(n, _BINOPS):
            ins = (_OP_CODES[type(n)], visit(n.left), visit(n.right))
        elif isinstance(n, IntPow):
            ins = (_POW, visit(n.base), n.exponent)
        elif isinstance(n, Sqrt):
            ins = (_SQRT, visit(n.arg), None)
        elif isinstance(n, Guard):
            ins = (_GUARD, visit(n.body), n.default)
        else:
            raise TypeError(f"not an expression node: {n!r}")
        slots[n] = len(tape)
        tape.append(ins)
        return slots[n]

    visit(node)
    object.__setattr__(node, "_tape", tuple(tape))
    return node._tape


def run_tape(tape: tuple[tuple, ...], var_values: Sequence, constant, sqrt,
             guard):
    """Run a tape over any algebra: `+ - * /`, `pow_int`, `sqrt`, `guard`.

    `constant(value)` builds a constant, and `guard(body, default)` the
    value of a guard from its body's.  A zero divisor or a failed square
    root of a jet becomes `ArcDomainError`; a batch of lanes raises
    `IrregularBatch` instead, which passes through.
    """
    slots: list = []
    for op, a, b in tape:
        if op == _CONST:
            r = constant(a)
        elif op == _VAR:
            r = var_values[a]
        elif op == _ADD:
            r = slots[a] + slots[b]
        elif op == _SUB:
            r = slots[a] - slots[b]
        elif op == _MUL:
            r = slots[a] * slots[b]
        elif op == _DIV:
            try:
                r = slots[a] / slots[b]
            except ZeroDivisor as exc:
                raise ArcDomainError(
                    "denominator vanishes identically along the arc "
                    "(to the retained order)") from exc
        elif op == _POW:
            r = slots[a].pow_int(b)
        elif op == _SQRT:
            try:
                r = sqrt(slots[a])
            except (OddValuation, NegativeLeading) as exc:
                raise ArcDomainError(
                    f"arc leaves the real domain of sqrt: {exc}") from exc
        else:
            r = guard(slots[a], b)
        slots.append(r)
    return slots[-1]


def _transparent_guard(body, default):
    """A guard's body itself: along arcs the body's series is the germ, and
    regularity looks through guards."""
    return body


def max_var_index(node: Node) -> int:
    return max((a for op, a, _ in compile_tape(node) if op == _VAR), default=-1)


def _fold(node: Node, var, constant, combine):
    """Run `node`'s tape over a structural pass: `var(i)` and
    `constant(value)` give the leaves' values, and `combine(kind, *args)`
    an op's, from its node class and its operands' values (then its
    exponent or default).  Each distinct subtree is combined once."""
    leaves = [_Fold(var(i), combine) for i in range(max_var_index(node) + 1)]
    return run_tape(compile_tape(node), leaves,
                    lambda c: _Fold(constant(c), combine), _Fold.sqrt,
                    _Fold.guard).value


class _Fold:
    """One slot of `_fold`, whose ops call `combine`."""

    __slots__ = ("value", "combine")

    def __init__(self, value, combine):
        self.value = value
        self.combine = combine

    def _op(self, kind, *args) -> "_Fold":
        args = (a.value if isinstance(a, _Fold) else a for a in args)
        return _Fold(self.combine(kind, self.value, *args), self.combine)

    __add__ = partialmethod(_op, Add)
    __sub__ = partialmethod(_op, Sub)
    __mul__ = partialmethod(_op, Mul)
    __truediv__ = partialmethod(_op, Div)
    sqrt = partialmethod(_op, Sqrt)
    guard = partialmethod(_op, Guard)

    def pow_int(self, exponent: int) -> "_Fold":
        return self._op(IntPow, exponent)


def substitute(node: Node, mapping: dict[int, Node]) -> Node:
    """Replace each Var(i) present in `mapping` by the given node."""
    return _fold(node, lambda i: mapping.get(i, Var(i)), RationalConst,
                 lambda kind, *args: kind(*args))


def is_polynomial(node: Node) -> bool:
    """True when the node evaluates to a polynomial of the variables.

    Division is tolerated only by a constant subtree (a nonzero rational),
    which is still a polynomial; `sqrt` and `guard` never are.  The pass
    carries (polynomial?, the exact value of a constant subtree or None).
    """
    return _fold(node, lambda i: (True, None), lambda c: (True, c),
                 _polynomial)[0]


_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
               Div: operator.truediv}


def _polynomial(kind, a, b=None):
    if kind is IntPow:
        return a[0], None if a[1] is None else a[1] ** b
    if kind in (Sqrt, Guard) or kind is Div and not b[1]:
        return False, None  # a divisor must be a nonzero constant
    if a[1] is None or b[1] is None:
        return a[0] and b[0], None
    return True, _ARITHMETIC[kind](a[1], b[1])


# --- pointwise evaluation ----------------------------------------------------

def _exact_div(a: Scalar, b: Scalar) -> Scalar:
    # int/int must stay exact; everything else already promotes correctly.
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


class _PointRun:
    """The mode and guard flag of one point evaluation, and its scalar ops."""

    def __init__(self, exact: bool):
        self.exact = exact
        self.fired = False

    def constant(self, c: Fraction) -> "_Point":
        return _Point(self, c) if self.exact else _Point(self, c)._apply(float)

    def divide(self, num: Scalar, den: Scalar) -> Scalar:
        if den == 0:
            raise ZeroDenominator("division by zero")
        return _exact_div(num, den) if self.exact else num / den

    def sqrt(self, arg: Scalar) -> Scalar:
        if arg < 0:
            raise DomainError(f"sqrt of negative value {arg}")
        return sqrt_scalar(arg)

    def guard(self, body: "_Point", default: Fraction) -> "_Point":
        """The default where the body divides by zero."""
        if isinstance(body.error, ZeroDenominator):
            self.fired = True
            return self.constant(default)
        return body


def _power(base: Scalar, exponent: int) -> Scalar:
    try:
        return base ** exponent
    except OverflowError as exc:
        raise FloatOverflow(
            f"{base!r} ** {exponent} overflows a float") from exc


class _Point:
    """One tape slot of a point evaluation: a value, or the first error met.

    The error is the left operand's, else the right operand's, else the
    op's own, which is what a depth-first walk raises at that node.  Every
    exception an op raises is kept, not only the domain errors: exact
    `sqrt` can overflow a float, and a walk raises that only if no earlier
    error stopped it.  The caller raises the root's error.
    """

    __slots__ = ("run", "value", "error")

    def __init__(self, run: _PointRun, value=None, error=None):
        self.run = run
        self.value = value
        self.error = error

    def _apply(self, op, other: "_Point | None" = None) -> "_Point":
        if self.error is not None:
            return self
        if other is not None and other.error is not None:
            return other
        try:
            value = op(self.value) if other is None \
                else op(self.value, other.value)
        except Exception as exc:  # deferred: the root's error is raised
            return _Point(self.run, error=exc)
        return _Point(self.run, value)

    def __add__(self, other: "_Point") -> "_Point":
        return self._apply(operator.add, other)

    def __sub__(self, other: "_Point") -> "_Point":
        return self._apply(operator.sub, other)

    def __mul__(self, other: "_Point") -> "_Point":
        return self._apply(operator.mul, other)

    def __truediv__(self, other: "_Point") -> "_Point":
        return self._apply(self.run.divide, other)

    def pow_int(self, exponent: int) -> "_Point":
        return self._apply(lambda base: _power(base, exponent))

    def sqrt(self) -> "_Point":
        return self._apply(self.run.sqrt)


def eval_point(e: Expr, x: Sequence[Scalar], exact: bool = False) -> Scalar:
    """Pointwise value of the expression, honouring guard defaults."""
    value, _ = eval_point_flagged(e, x, exact)
    return value


def eval_point_flagged(e: Expr, x: Sequence[Scalar], exact: bool = False):
    """Pointwise value plus a flag telling whether any guard fired at x."""
    _check_point(e, x)
    run = _PointRun(exact)
    root = run_tape(compile_tape(e.root),
                    [_Point(run, c) for c in (x if exact else
                                              float_points([x])[0].tolist())],
                    run.constant, _Point.sqrt, run.guard)
    if root.error is not None:
        raise root.error
    return root.value, run.fired


def _check_point(e: Expr, x: Sequence[Scalar]) -> None:
    if len(x) != e.nvars:
        raise ValueError(f"point has {len(x)} coordinates, expression has {e.nvars}")


def float_points(points) -> np.ndarray:
    """Points, a sequence of rows, as a float array; FloatOverflow where a
    coordinate lies beyond the float range."""
    try:
        return np.asarray(points, dtype=float)
    except OverflowError as exc:
        raise FloatOverflow(f"a coordinate lies beyond the float range "
                            f"({exc}); --mode rational keeps it exact") from exc


def regular_at(e: Expr, x: Sequence[Scalar], exact: bool = False) -> bool:
    """True when x avoids every denominator zero and sqrt boundary.

    At such a point the expression is a composition of functions analytic in
    a neighbourhood, hence an analytic germ; this is the sound fast path the
    region scans use to skip interpolation work.  The one-point call of
    `regular_lanes`, so an overflow is not regular.
    """
    _check_point(e, x)
    return bool(regular_lanes(e.root, np.array([x], dtype=object) if exact
                              else float_points([x]))[0])


def regular_lanes(node: Node, points: np.ndarray) -> np.ndarray:
    """Which rows of `points` (shape (lanes, nvars)) are regular points, as
    a boolean array: one tape pass over its columns, one lane per row,
    looking through guards.  A float block computes as float `eval_point`
    does; a block of Python scalars (`object` dtype) as exact `eval_point`
    does, each value exact until a square root makes it a float.  A lane
    is irregular where any slot meets an event: a zero divisor, a radicand
    that is not positive, a power or constant beyond the float range, or,
    in an exact block, any op that raises.  Regularity means that no event
    happens anywhere, so which event comes first does not matter here.
    """
    lanes, exact = len(points), points.dtype == object
    irregular = np.zeros(lanes, dtype=bool)
    try:
        with np.errstate(all="ignore"):
            run_tape(compile_tape(node),
                     [_RegularLanes(points[:, i], irregular)
                      for i in range(points.shape[1])],
                     lambda c: _RegularLanes(np.full(
                         lanes, c if exact else float(c), points.dtype),
                         irregular),
                     _RegularLanes.sqrt, _transparent_guard)
    except OverflowError:  # a constant beyond the float range: every lane
        return np.zeros(lanes, dtype=bool)
    return ~irregular


# The exact lanes' division and square root, as the pointwise path's.
_EXACT_DIV = np.frompyfunc(_exact_div, 2, 1)
_EXACT_SQRT = np.frompyfunc(sqrt_scalar, 1, 1)


class _RegularLanes:
    """Values of one tape slot across the lanes of `regular_lanes`.

    Float lanes run `+ - * /` and `sqrt` in numpy, which rounds them as
    Python floats do, and powers as Python `float ** int`, once per
    distinct base, because `np.power` may round differently.  Exact lanes
    are Python scalars in an `object` array, and each op runs as Python's.
    There an op that raises aborts the whole array, so it is rerun lane by
    lane, and a lane where it raises is irregular.  Every slot of a pass
    shares one mask, `irregular`, of the lanes that met an event.  Past an
    event a lane's values are meaningless, but the lane is already out of
    the regular set.
    """

    __slots__ = ("value", "irregular")

    def __init__(self, value: np.ndarray, irregular: np.ndarray):
        self.value = value
        self.irregular = irregular

    def _map(self, op, *others: "_RegularLanes") -> "_RegularLanes":
        """op over the lanes' values; only exact lanes raise."""
        values = [self.value, *(o.value for o in others)]
        try:
            return _RegularLanes(op(*values), self.irregular)
        except Exception:
            out = np.zeros(len(self.value), dtype=object)
            for i in range(len(out)):
                try:
                    out[i] = op(*(v[i:i + 1] for v in values))[0]
                except Exception:
                    self.irregular[i] = True
            return _RegularLanes(out, self.irregular)

    def __add__(self, other: "_RegularLanes") -> "_RegularLanes":
        return self._map(operator.add, other)

    def __sub__(self, other: "_RegularLanes") -> "_RegularLanes":
        return self._map(operator.sub, other)

    def __mul__(self, other: "_RegularLanes") -> "_RegularLanes":
        return self._map(operator.mul, other)

    def __truediv__(self, other: "_RegularLanes") -> "_RegularLanes":
        self.irregular |= other.value == 0
        return self._map(_EXACT_DIV if self.value.dtype == object
                         else operator.truediv, other)

    def pow_int(self, e: int) -> "_RegularLanes":
        if self.value.dtype == object:
            return self._map(lambda v: np.power(v, e))
        # each distinct bit pattern once (-0.0 and 0.0, and NaN payloads,
        # stay apart), then scattered back to its lanes
        bases, lanes = np.unique(self.value.view(np.int64),
                                 return_inverse=True)
        powers = np.empty(len(bases))
        overflow = np.zeros(len(bases), dtype=bool)
        for i, c in enumerate(bases.view(np.float64).tolist()):
            try:
                powers[i] = c ** e
            except OverflowError:
                overflow[i], powers[i] = True, math.nan
        self.irregular |= overflow[lanes]
        return _RegularLanes(powers[lanes], self.irregular)

    def sqrt(self) -> "_RegularLanes":
        self.irregular |= self.value <= 0
        return self._map(_EXACT_SQRT if self.value.dtype == object
                         else np.sqrt)


# --- evaluation along arcs ---------------------------------------------------

def _window_sqrt(sqrt, provisional: bool):
    """The `sqrt` hook of a jet pass.

    In a provisional window, one its caller widens when the window cannot
    decide, a radicand that vanishes in the window raises ShortWindow.
    Its root would be a zero jet whose window a later product with a
    positive valuation lengthens, while a wider window may find the
    radicand's lead at an odd exponent or negative, and leave the domain.
    """
    if not provisional:
        return sqrt

    def root(a):
        if a.is_zero:
            raise ShortWindow("a square root's radicand vanishes to its "
                              f"retained order {a.order}")
        return sqrt(a)
    return root


def eval_jets(node: Node, var_jets: Sequence[RationalJet | LaneJet],
              order: int, exact: bool = False,
              provisional: bool = False) -> RationalJet | LaneJet:
    """Evaluate over jet arithmetic; guards use series semantics.

    Exact evaluation runs on `RationalJet`s and returns one, or a
    `LaneJet` of Python scalars past a square root whose lead is not a
    rational square, exact in each coefficient no float reaches.  Float
    evaluation runs on `LaneJet`s.  Either has one lane for a single arc,
    or one per line of a batch (`eval_lanes`).  `provisional`: see
    `_window_sqrt`.
    """
    lanes = var_jets[0].lanes if var_jets else 1
    if exact:
        def constant(c):
            return RationalJet.constant(c, lanes, order)
    else:
        def constant(c):
            return LaneJet.constant(float(c), lanes, order)
    with np.errstate(all="ignore"):
        return run_tape(compile_tape(node), var_jets, constant,
                        _window_sqrt(jet_sqrt, provisional),
                        _transparent_guard)


def eval_lanes(node: Node, x: Sequence[Scalar], directions: np.ndarray,
               order: int, exact: bool = False,
               provisional: bool = False) -> RationalJet | LaneJet:
    """Jets of f(x + t v) for every row v of `directions`, in one pass:
    floats, or `exact` jets of a rational x and rows.

    Each lane equals the one-lane jet of its line (with the same
    `provisional`): bit for bit in floats, in value and type when exact.
    Raises `IrregularBatch` where the lanes need to be run one at a time.
    """
    line = RationalJet.line if exact else LaneJet.line
    return eval_jets(node, [line(xi, directions[:, i], order)
                            for i, xi in enumerate(x)], order, exact,
                     provisional)


@dataclass(frozen=True)
class ArcSpec:
    """A polynomial arc t -> (gamma_1(t), ..., gamma_n(t)) based at t = 0."""

    components: tuple[Expr, ...]

    def __post_init__(self):
        for comp in self.components:
            if comp.nvars != 1:
                raise ValueError("arc components must be univariate (in t)")
            if not is_polynomial(comp.root):
                raise ValueError("arc components must be polynomial")

    @property
    def nvars(self) -> int:
        return len(self.components)

    def basepoint(self, exact: bool = False) -> tuple[Scalar, ...]:
        return tuple(eval_point(c, (Fraction(0),) if exact else (0.0,), exact)
                     for c in self.components)

    def jets(self, order: int,
             exact: bool = False) -> tuple[RationalJet | LaneJet, ...]:
        """Each component's jet through t^order: one-lane `RationalJet`s,
        or one-lane `LaneJet`s in float mode."""
        # t is O(t^1): invisible in a window of order 0
        t = (RationalJet if exact else LaneJet).line(0, (1,), order)
        return tuple(eval_jets(c.root, (t,), order, exact)
                     for c in self.components)


def eval_arc(e: Expr, arc: ArcSpec, order: int,
             exact: bool = False) -> RationalJet | LaneJet:
    """Laurent jet of f(gamma(t)) at t = 0, with guard defaults ignored:
    a one-lane `RationalJet`, or a one-lane `LaneJet` in float mode and
    past an irrational square root."""
    if arc.nvars != e.nvars:
        raise ValueError(f"arc has {arc.nvars} components, expression has {e.nvars}")
    if order < 0:
        raise ValueError("order must be non-negative")
    try:
        return eval_jets(e.root, arc.jets(order, exact), order, exact)
    except OverflowError as exc:
        from .parser import to_text
        gamma = ", ".join(to_text(c, ("t",)) for c in arc.components)
        raise FloatOverflow(f"the jet along the arc t -> {gamma} overflows "
                            f"the float range ({exc})") from exc


ANALYTIC = "Analytic"
REMOVABLE_MISMATCH = "RemovableMismatch"
POLE = "Pole"


@dataclass(frozen=True)
class ArcReport:
    """Classification of the germ of f along one arc at t = 0; `laurent` is
    its jet as `eval_arc` returns it."""

    kind: str
    laurent: RationalJet | LaneJet
    point_value: Scalar | None
    mismatch: Scalar | None


def arc_check(e: Expr, arc: ArcSpec, order: int, tol: float = 1e-9,
              exact: bool = False) -> ArcReport:
    """Compare the series germ of f along the arc with the pointwise value.

    `Pole` means the composed series has a genuine pole at t = 0.
    `RemovableMismatch` means the series is finite but its constant term
    disagrees with f at the basepoint (or f is undefined there), the
    signature of a function made discontinuous by its assigned values.
    """
    laurent = eval_arc(e, arc, order, exact)
    if not laurent.is_zero and laurent.valuation < 0:
        return ArcReport(POLE, laurent, None, None)
    try:
        point_value = eval_point(e, arc.basepoint(exact), exact)
    except DomainError:
        return ArcReport(REMOVABLE_MISMATCH, laurent, None, math.inf)
    mismatch = abs(point_value - laurent.taylor_coeff(0))
    if mismatch > tol:
        return ArcReport(REMOVABLE_MISMATCH, laurent, point_value, mismatch)
    return ArcReport(ANALYTIC, laurent, point_value, mismatch)
