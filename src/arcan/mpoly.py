"""Sparse multivariate polynomials over the rationals.

Just enough algebra to flatten a rational expression subtree into a single
numerator/denominator pair and strip monomial content in one chosen
variable; exponent tuples key a dict of Fraction coefficients.  The
products of one expansion share a `Budget` of `MAX_PRODUCT_TERMS` term
pairs, and a product that would overdraw it is refused before it is built.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import Add, Div, Guard, IntPow, Mul, Node, RationalConst, Sqrt, \
    Sub, Var

Poly = dict[tuple[int, ...], Fraction]

# Term pairs len(a) * len(b) that the products of one expansion may form
# in all, each ~7 us: pulling (x+y+z)^40/x back forms 51,872, (x+y+z)^200/x
# 4.6 million.
MAX_PRODUCT_TERMS = 10 ** 5


class Budget:
    """The term pairs an expansion's products may still form."""

    def __init__(self):
        self.left = MAX_PRODUCT_TERMS


def p_const(c: Fraction, nvars: int) -> Poly:
    c = Fraction(c)
    return {} if c == 0 else {(0,) * nvars: c}


def p_var(i: int, nvars: int) -> Poly:
    e = tuple(1 if j == i else 0 for j in range(nvars))
    return {e: Fraction(1)}


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def p_mul(a: Poly, b: Poly, budget: Budget) -> Poly:
    pairs = len(a) * len(b)
    if pairs > budget.left:
        raise ValueError(f"expanding a product of {len(a)} by {len(b)} terms "
                         f"takes the expansion past the {MAX_PRODUCT_TERMS} "
                         f"term pairs allowed")
    budget.left -= pairs
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, Fraction(0)) + ca * cb
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def p_pow(a: Poly, k: int, nvars: int, budget: Budget) -> Poly:
    if k < 0:
        raise ValueError("negative power")
    result = p_const(Fraction(1), nvars)
    base = a
    while k:
        if k & 1:
            result = p_mul(result, base, budget)
        k >>= 1
        if k:
            base = p_mul(base, base, budget)
    return result


def fraction_ops(nvars: int, budget: Budget):
    """The variable, constant and `combine` functions of the fraction pass
    (as `expr._fold` takes them), whose values are the (numerator,
    denominator) pairs of subtrees free of sqrt and guard nodes."""
    one = p_const(Fraction(1), nvars)

    def combine(kind, a, b=None):
        if kind is IntPow:
            return p_pow(a[0], b, nvars, budget), p_pow(a[1], b, nvars, budget)
        if kind in (Sqrt, Guard):
            raise TypeError(f"{kind.__name__.lower()} in a rational subtree")
        (n1, d1), (n2, d2) = a, b
        if kind is Div:
            if not n2:
                raise ZeroDivisionError("division by an identically zero denominator")
            n2, d2 = d2, n2  # times the reciprocal
        if kind in (Mul, Div):
            return p_mul(n1, n2, budget), p_mul(d1, d2, budget)
        if kind is Sub:
            n2 = {e: -c for e, c in n2.items()}
        return p_add(p_mul(n1, d2, budget), p_mul(n2, d1, budget)), \
            p_mul(d1, d2, budget)

    return (lambda i: (p_var(i, nvars), one),
            lambda c: (p_const(c, nvars), one), combine)


def shift_down(p: Poly, var: int, power: int) -> Poly:
    if power == 0:
        return p
    out: Poly = {}
    for e, c in p.items():
        le = list(e)
        le[var] -= power
        out[tuple(le)] = c
    return out


def to_node(p: Poly, nvars: int) -> Node:
    """Rebuild an expression node, terms in descending graded-lex order.

    Sums and products are balanced trees, O(log terms) deep, so the
    parenthesized text `to_text` prints reparses within the parser's depth
    bound.
    """
    if not p:
        return RationalConst(Fraction(0))
    keys = sorted(p, key=lambda e: (sum(e), e), reverse=True)
    terms = []
    for e in keys:
        c = p[e]
        factors: list[Node] = [Var(i) if ei == 1 else IntPow(Var(i), ei)
                               for i, ei in enumerate(e) if ei]
        if not factors or c != 1:
            factors.insert(0, RationalConst(c))
        terms.append(_balanced(Mul, factors))
    return _balanced(Add, terms)


def _balanced(op, nodes: list[Node]) -> Node:
    """nodes[0] op nodes[1] op ... as a tree ceil(log2(len)) deep."""
    if len(nodes) == 1:
        return nodes[0]
    half = (len(nodes) + 1) // 2
    return op(_balanced(op, nodes[:half]), _balanced(op, nodes[half:]))
