"""Expression trees for the functions under analysis, and their evaluation.

Supported shapes: rational constants, variables, `+ - * /`, non-negative
integer powers, `sqrt`, and `guard(body, default)`.  A guard returns its
body's value except where the body's evaluation divides by zero, in which
case it returns the default; this is how a rational function gets a chosen
value on its denominator's zero set.

Evaluation comes in two flavours: pointwise (`eval_point`), which honours
guard defaults, and along analytic arcs (`eval_arc`), which composes the
expression with a polynomial arc in jet arithmetic and ignores guard
defaults, because the series of the body is what the germ at t = 0 sees.
Jet evaluation compiles a tree once to a hash-consed postorder tape
(`compile_tape`) and runs it over scalar `LaurentJet`s (`eval_jets`) or
over a batch of float lines at one point (`eval_lanes`).  The same tape
decides the regularity test of `regular_at` for a block of float points
at once (`regular_lanes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import ArcDomainError, DomainError, FloatOverflow, NegativeLeading, \
    OddValuation, ZeroDenominator, ZeroDivisor
from .jets import LaneJet, LaurentJet, Scalar, jet_sqrt, sqrt_scalar


def _node(cls):
    """A frozen dataclass that computes its hash once.

    The generated hash hashes the whole subtree, so without the cache every
    lookup of a tree (the tape cache keys on it) would cost a walk over it.
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


def max_var_index(node: Node) -> int:
    if isinstance(node, Var):
        return node.index
    if isinstance(node, _BINOPS):
        return max(max_var_index(node.left), max_var_index(node.right))
    if isinstance(node, IntPow):
        return max_var_index(node.base)
    if isinstance(node, Sqrt):
        return max_var_index(node.arg)
    if isinstance(node, Guard):
        return max_var_index(node.body)
    return -1


def contains(node: Node, kind) -> bool:
    if isinstance(node, kind):
        return True
    if isinstance(node, _BINOPS):
        return contains(node.left, kind) or contains(node.right, kind)
    if isinstance(node, IntPow):
        return contains(node.base, kind)
    if isinstance(node, Sqrt):
        return contains(node.arg, kind)
    if isinstance(node, Guard):
        return contains(node.body, kind)
    return False


def is_polynomial(node: Node) -> bool:
    """True when the node evaluates to a polynomial of the variables.

    Division is tolerated only by a constant subtree (a nonzero rational),
    which is still a polynomial; `sqrt` and `guard` never are.
    """
    if isinstance(node, (RationalConst, Var)):
        return True
    if isinstance(node, (Add, Sub, Mul)):
        return is_polynomial(node.left) and is_polynomial(node.right)
    if isinstance(node, Div):
        if max_var_index(node.right) >= 0 \
                or contains(node.right, (Sqrt, Guard)):
            return False
        try:
            divisor = _eval_point(node.right, (), True, False, [])
        except ZeroDenominator:
            return False
        return divisor != 0 and is_polynomial(node.left)
    if isinstance(node, IntPow):
        return is_polynomial(node.base)
    return False


def substitute(node: Node, mapping: dict[int, Node]) -> Node:
    """Replace each Var(i) present in `mapping` by the given node."""
    if isinstance(node, Var):
        return mapping.get(node.index, node)
    if isinstance(node, Add):
        return Add(substitute(node.left, mapping), substitute(node.right, mapping))
    if isinstance(node, Sub):
        return Sub(substitute(node.left, mapping), substitute(node.right, mapping))
    if isinstance(node, Mul):
        return Mul(substitute(node.left, mapping), substitute(node.right, mapping))
    if isinstance(node, Div):
        return Div(substitute(node.left, mapping), substitute(node.right, mapping))
    if isinstance(node, IntPow):
        return IntPow(substitute(node.base, mapping), node.exponent)
    if isinstance(node, Sqrt):
        return Sqrt(substitute(node.arg, mapping))
    if isinstance(node, Guard):
        return Guard(substitute(node.body, mapping), node.default)
    return node


# --- pointwise evaluation ----------------------------------------------------

def _const(value: Fraction, exact: bool) -> Scalar:
    return value if exact else float(value)


def _eval_point(node: Node, x: Sequence[Scalar], exact: bool,
                strict: bool, flags: list) -> Scalar:
    if isinstance(node, RationalConst):
        return _const(node.value, exact)
    if isinstance(node, Var):
        return x[node.index]
    if isinstance(node, Add):
        return _eval_point(node.left, x, exact, strict, flags) \
            + _eval_point(node.right, x, exact, strict, flags)
    if isinstance(node, Sub):
        return _eval_point(node.left, x, exact, strict, flags) \
            - _eval_point(node.right, x, exact, strict, flags)
    if isinstance(node, Mul):
        return _eval_point(node.left, x, exact, strict, flags) \
            * _eval_point(node.right, x, exact, strict, flags)
    if isinstance(node, Div):
        num = _eval_point(node.left, x, exact, strict, flags)
        den = _eval_point(node.right, x, exact, strict, flags)
        if den == 0:
            raise ZeroDenominator("division by zero")
        return num / den if not exact else _frac_div(num, den)
    if isinstance(node, IntPow):
        base = _eval_point(node.base, x, exact, strict, flags)
        try:
            return base ** node.exponent
        except OverflowError as exc:
            raise FloatOverflow(
                f"{base!r} ** {node.exponent} overflows a float") from exc
    if isinstance(node, Sqrt):
        arg = _eval_point(node.arg, x, exact, strict, flags)
        if arg < 0:
            raise DomainError(f"sqrt of negative value {arg}")
        if strict and arg == 0:
            raise DomainError("sqrt radicand vanishes")
        return sqrt_scalar(arg)
    if isinstance(node, Guard):
        if strict:
            return _eval_point(node.body, x, exact, strict, flags)
        try:
            return _eval_point(node.body, x, exact, strict, flags)
        except ZeroDenominator:
            flags.append(node)
            return _const(node.default, exact)
    raise TypeError(f"not an expression node: {node!r}")


def _frac_div(num: Scalar, den: Scalar) -> Scalar:
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def eval_point(e: Expr, x: Sequence[Scalar], exact: bool = False) -> Scalar:
    """Pointwise value of the expression, honouring guard defaults."""
    value, _ = eval_point_flagged(e, x, exact)
    return value


def eval_point_flagged(e: Expr, x: Sequence[Scalar], exact: bool = False):
    """Pointwise value plus a flag telling whether any guard fired at x."""
    if len(x) != e.nvars:
        raise ValueError(f"point has {len(x)} coordinates, expression has {e.nvars}")
    xs = tuple(x) if exact else tuple(float(c) for c in x)
    flags: list = []
    value = _eval_point(e.root, xs, exact, False, flags)
    return value, bool(flags)


def regular_at(e: Expr, x: Sequence[Scalar], exact: bool = False) -> bool:
    """True when x avoids every denominator zero and sqrt boundary.

    At such a point the expression is a composition of functions analytic in
    a neighbourhood, hence an analytic germ; this is the sound fast path the
    region scans use to skip interpolation work.
    """
    xs = tuple(x) if exact else tuple(float(c) for c in x)
    try:
        _eval_point(e.root, xs, exact, True, [])
    except (DomainError, ZeroDenominator):
        return False
    return True


def regular_lanes(node: Node, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`regular_at` in float mode for a block of points, one lane per row.

    Runs the tape once over columns of `points` (shape (lanes, nvars)).
    Returns two boolean arrays over the lanes: where `regular_at` is True,
    and where a power overflowed a float.  At an overflow lane the walker
    raises `FloatOverflow` or returns False, whichever event it meets
    first, so only the walker can decide it; at every other lane
    `regular_at` is False.  A constant beyond the float range raises
    OverflowError, as it does in the walker.
    """
    lanes = len(points)
    irregular = np.zeros(lanes, dtype=bool)
    overflow = np.zeros(lanes, dtype=bool)

    def column(values) -> _RegularLanes:
        return _RegularLanes(values, irregular, overflow)

    with np.errstate(all="ignore"):
        run_tape(compile_tape(node),
                 [column(points[:, i]) for i in range(points.shape[1])],
                 lambda c: column(np.full(lanes, float(c))),
                 _RegularLanes.sqrt)
    return ~(irregular | overflow), overflow


class _RegularLanes:
    """Float values of one tape slot across the lanes of `regular_lanes`.

    `+ - * /` and `sqrt` run in numpy, which rounds them as Python floats
    do; powers run lane by lane as Python `float ** int`, because
    `np.power` may round differently.  Every slot of a pass shares its two
    masks: `irregular` marks lanes with a zero divisor or a radicand that
    is not positive (where the walker returns False), `overflow` lanes
    whose power left the float range.  Past a marked event a lane's values
    are meaningless, but the lane is already out of the regular set.
    """

    __slots__ = ("value", "irregular", "overflow")

    def __init__(self, value: np.ndarray, irregular: np.ndarray,
                 overflow: np.ndarray):
        self.value = value
        self.irregular = irregular
        self.overflow = overflow

    def _like(self, value: np.ndarray) -> "_RegularLanes":
        return _RegularLanes(value, self.irregular, self.overflow)

    def __add__(self, other: "_RegularLanes") -> "_RegularLanes":
        return self._like(self.value + other.value)

    def __sub__(self, other: "_RegularLanes") -> "_RegularLanes":
        return self._like(self.value - other.value)

    def __mul__(self, other: "_RegularLanes") -> "_RegularLanes":
        return self._like(self.value * other.value)

    def __truediv__(self, other: "_RegularLanes") -> "_RegularLanes":
        self.irregular |= other.value == 0
        return self._like(self.value / other.value)

    def pow_int(self, e: int) -> "_RegularLanes":
        bases = self.value.tolist()
        try:
            powers = [c ** e for c in bases]
        except OverflowError:
            powers = []
            for lane, c in enumerate(bases):
                try:
                    powers.append(c ** e)
                except OverflowError:
                    self.overflow[lane] = True
                    powers.append(math.nan)
        return self._like(np.array(powers, dtype=float))

    def sqrt(self) -> "_RegularLanes":
        self.irregular |= self.value <= 0
        return self._like(np.sqrt(self.value))


# --- evaluation along arcs ---------------------------------------------------

# Tape instructions (op, a, b): `a` and `b` are earlier slots, or the
# constant, variable index or exponent the op carries.
_CONST, _VAR, _ADD, _SUB, _MUL, _DIV, _POW, _SQRT = range(8)
_BINOP_CODES = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}


@lru_cache(maxsize=256)
def compile_tape(node: Node) -> tuple[tuple, ...]:
    """Postorder program for a tree, one instruction per distinct subtree.

    Structurally equal subtrees share one slot (frozen nodes hash by
    value), and a guard compiles to its body: along arcs the body's series
    is what the germ sees.  The last slot holds the value of `node`.
    """
    slots: dict[Node, int] = {}
    tape: list[tuple] = []

    def visit(n: Node) -> int:
        if isinstance(n, Guard):
            return visit(n.body)
        slot = slots.get(n)
        if slot is not None:
            return slot
        if isinstance(n, RationalConst):
            ins = (_CONST, n.value, None)
        elif isinstance(n, Var):
            ins = (_VAR, n.index, None)
        elif isinstance(n, _BINOPS):
            ins = (_BINOP_CODES[type(n)], visit(n.left), visit(n.right))
        elif isinstance(n, IntPow):
            ins = (_POW, visit(n.base), n.exponent)
        elif isinstance(n, Sqrt):
            ins = (_SQRT, visit(n.arg), None)
        else:
            raise TypeError(f"not an expression node: {n!r}")
        slots[n] = len(tape)
        tape.append(ins)
        return slots[n]

    visit(node)
    return tuple(tape)


def run_tape(tape: tuple[tuple, ...], var_values: Sequence, constant, sqrt):
    """Run a tape over any jet algebra: `+ - * /`, `pow_int`, `sqrt`.

    `constant(value)` builds a constant jet.  A zero divisor or a failed
    square root becomes `ArcDomainError`; the batched algebra raises
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
        else:
            try:
                r = sqrt(slots[a])
            except (OddValuation, NegativeLeading) as exc:
                raise ArcDomainError(
                    f"arc leaves the real domain of sqrt: {exc}") from exc
        slots.append(r)
    return slots[-1]


def eval_jets(node: Node, var_jets: Sequence[LaurentJet], order: int,
              exact: bool = False) -> LaurentJet:
    """Evaluate over jet arithmetic; guards use series semantics."""
    return run_tape(compile_tape(node), var_jets,
                    lambda c: LaurentJet.constant(_const(c, exact), order),
                    jet_sqrt)


def eval_lanes(node: Node, x: Sequence[float], directions: np.ndarray,
               order: int) -> LaneJet:
    """Float jets of f(x + t v) for every row v of `directions`, in one pass.

    Each lane equals, bit for bit, what `eval_jets` gives for that line;
    raises `IrregularBatch` where the lanes need the scalar path.
    """
    lanes = len(directions)
    var_jets = [LaneJet.line(xi, directions[:, i], order)
                for i, xi in enumerate(x)]
    return run_tape(compile_tape(node), var_jets,
                    lambda c: LaneJet.constant(float(c), lanes, order),
                    LaneJet.sqrt)


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

    @staticmethod
    def from_coeffs(rows: Sequence[Sequence[Scalar]]) -> "ArcSpec":
        """Build an arc from per-component coefficient lists (low degree first)."""
        comps = []
        for row in rows:
            node: Node = RationalConst(Fraction(0))
            for i, c in enumerate(row):
                if c == 0:
                    continue
                term: Node = RationalConst(Fraction(c))
                if i >= 1:
                    tnode: Node = Var(0) if i == 1 else IntPow(Var(0), i)
                    term = Mul(term, tnode) if Fraction(c) != 1 else tnode
                node = term if node == RationalConst(Fraction(0)) else Add(node, term)
            comps.append(Expr(node, 1))
        return ArcSpec(tuple(comps))

    def jets(self, order: int, exact: bool = False) -> tuple[LaurentJet, ...]:
        one = Fraction(1) if exact else 1.0
        if order >= 1:
            t = LaurentJet(1, (one,) + (0,) * (order - 1), order)
        else:
            t = LaurentJet.zero(0)  # t is O(t^1): invisible in a window of order 0
        return tuple(eval_jets(c.root, (t,), order, exact) for c in self.components)


def eval_arc(e: Expr, arc: ArcSpec, order: int, exact: bool = False) -> LaurentJet:
    """Laurent jet of f(gamma(t)) at t = 0, with guard defaults ignored."""
    if arc.nvars != e.nvars:
        raise ValueError(f"arc has {arc.nvars} components, expression has {e.nvars}")
    if order < 0:
        raise ValueError("order must be non-negative")
    return eval_jets(e.root, arc.jets(order, exact), order, exact)


ANALYTIC = "Analytic"
REMOVABLE_MISMATCH = "RemovableMismatch"
POLE = "Pole"


@dataclass(frozen=True)
class ArcReport:
    """Classification of the germ of f along one arc at t = 0."""

    kind: str
    laurent: LaurentJet
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
    mismatch = abs(point_value - laurent.coeff(0))
    if mismatch > tol:
        return ArcReport(REMOVABLE_MISMATCH, laurent, point_value, mismatch)
    return ArcReport(ANALYTIC, laurent, point_value, mismatch)
