"""Recursive-descent parser and canonical printer for the expression grammar.

Grammar (UTF-8 text):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' INT)?
    atom    := NUMBER | VARIABLE | 'sqrt' '(' expr ')'
             | 'guard' '(' expr ',' signed_rational ')' | '(' expr ')'

Variables are `x`, `y`, `z` (aliases of `x1`, `x2`, `x3`) or `x1..xN`.
Numbers are integer, `p/q`, or decimal literals; a quotient of two integer
literals folds to a single rational constant, so the printer's `p/q` output
reparses to the same node.  The printer emits a fully parenthesized form.

Text may nest at most `MAX_DEPTH` levels (parentheses, `sqrt`, `guard`,
unary minus) and build a tree at most `MAX_DEPTH` nodes deep, which keeps
the parser and `compile_tape` well inside Python's recursion limit.  An
exponent may be at most `MAX_EXPONENT`, and so may the product of the
exponents nested along any path of the tree, which bounds the degree a
power tower can reach (`(x^10000)^10000` is refused).
Text beyond any of these bounds raises `ExprSyntaxError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ArityError, ExprSyntaxError
from .expr import Add, Div, Expr, Guard, IntPow, Mul, Node, RationalConst, Sqrt, \
    Sub, Var, _fold

_NAMED_VARS = {"x": 0, "y": 1, "z": 2}

MAX_DEPTH = 100
MAX_EXPONENT = 10_000
# ASCII only: str.isdigit() also accepts superscripts, which int() rejects.
_DIGITS = frozenset("0123456789")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c in _DIGITS or (c == "." and text[i + 1:i + 2] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], varmap: dict[str, int] | None):
        self.tokens = tokens
        self.pos = 0
        self.varmap = varmap
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return tok

    # Each parse_* method returns the node, the depth of its tree and the
    # largest product of exponents nested along a path of it.

    def parse_expr(self) -> tuple[Node, int, int]:
        node, depth, power = self.parse_term()
        while self.peek().kind in ("+", "-"):
            tok = self.next()
            rhs, rhs_depth, rhs_power = self.parse_term()
            node = Add(node, rhs) if tok.kind == "+" else Sub(node, rhs)
            depth = self._deeper(max(depth, rhs_depth), tok)
            power = max(power, rhs_power)
        return node, depth, power

    def parse_term(self) -> tuple[Node, int, int]:
        node, depth, power = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            tok = self.next()
            rhs, rhs_depth, rhs_power = self.parse_unary()
            if tok.kind == "/" and isinstance(node, RationalConst) \
                    and isinstance(rhs, RationalConst) and rhs.value != 0:
                node = RationalConst(node.value / rhs.value)
            else:
                node = (Mul if tok.kind == "*" else Div)(node, rhs)
                depth = self._deeper(max(depth, rhs_depth), tok)
                power = max(power, rhs_power)
        return node, depth, power

    def parse_unary(self) -> tuple[Node, int, int]:
        if self.peek().kind == "-":
            tok = self.next()
            operand, depth, power = self._nested(self.parse_unary, tok)
            if isinstance(operand, RationalConst):
                return RationalConst(-operand.value), 1, 1
            return Sub(RationalConst(Fraction(0)), operand), \
                self._deeper(depth, tok), power
        return self.parse_power()

    def parse_power(self) -> tuple[Node, int, int]:
        base, depth, power = self.parse_atom()
        if self.peek().kind != "^":
            return base, depth, power
        caret = self.next()
        tok = self.peek()
        if tok.kind != "number" or "." in tok.text:
            raise ExprSyntaxError("exponent must be a non-negative integer", caret.pos)
        self.next()
        if len(tok.text.lstrip("0")) > len(str(MAX_EXPONENT)) \
                or int(tok.text) > MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent above {MAX_EXPONENT}", tok.pos)
        exponent = int(tok.text)
        if power * exponent > MAX_EXPONENT:
            raise ExprSyntaxError(
                f"nested exponents multiply to {power * exponent}, "
                f"above {MAX_EXPONENT}", tok.pos)
        return IntPow(base, exponent), self._deeper(depth, caret), \
            power * exponent

    def parse_atom(self) -> tuple[Node, int, int]:
        tok = self.next()
        if tok.kind == "number":
            return RationalConst(Fraction(tok.text)), 1, 1
        if tok.kind == "(":
            inner = self._nested(self.parse_expr, tok)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            if tok.text == "sqrt":
                self.expect("(")
                arg, depth, power = self._nested(self.parse_expr, tok)
                self.expect(")")
                return Sqrt(arg), self._deeper(depth, tok), power
            if tok.text == "guard":
                self.expect("(")
                body, depth, power = self._nested(self.parse_expr, tok)
                self.expect(",")
                default, _, _ = self.parse_expr()
                self.expect(")")
                if not isinstance(default, RationalConst):
                    raise ArityError("guard default must be a rational constant")
                return Guard(body, default.value), self._deeper(depth, tok), \
                    power
            return Var(self._var_index(tok)), 1, 1
        raise ExprSyntaxError(f"unexpected token {tok.text or 'end of input'!r}",
                              tok.pos)

    def _nested(self, parse, tok: _Token):
        """Run `parse` one nesting level deeper than `tok`."""
        if self.nesting == MAX_DEPTH:
            raise ExprSyntaxError(f"text nests deeper than {MAX_DEPTH} levels",
                                  tok.pos)
        self.nesting += 1
        result = parse()
        self.nesting -= 1
        return result

    @staticmethod
    def _deeper(depth: int, tok: _Token) -> int:
        """The depth of a node over a child `depth` deep, built at `tok`."""
        if depth == MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression tree deeper than {MAX_DEPTH} levels", tok.pos)
        return depth + 1

    def _var_index(self, tok: _Token) -> int:
        name = tok.text
        if self.varmap is not None:
            if name not in self.varmap:
                raise ExprSyntaxError(f"unknown variable {name!r}", tok.pos)
            return self.varmap[name]
        if name in _NAMED_VARS:
            return _NAMED_VARS[name]
        if name[:1] == "x" and _DIGITS.issuperset(name[1:]) \
                and name[1:] and int(name[1:]) >= 1:
            return int(name[1:]) - 1
        raise ExprSyntaxError(f"unknown variable {name!r}", tok.pos)


def parse(text: str, nvars: int | None = None,
          varmap: dict[str, int] | None = None) -> Expr:
    """Parse expression text; `nvars` widens the inferred dimension."""
    parser = _Parser(_tokenize(text), varmap)
    root, _, _ = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    from .expr import max_var_index
    inferred = max_var_index(root) + 1
    if nvars is None:
        nvars = max(inferred, 1)
    elif nvars < inferred:
        raise ArityError(f"expression needs {inferred} variables, nvars={nvars}")
    return Expr(root, nvars)


def parse_arc(text: str):
    """Parse comma-separated univariate polynomial components in t."""
    from .expr import ArcSpec
    parts = _split_top_level(text)
    comps = tuple(parse(p, nvars=1, varmap={"t": 0}) for p in parts)
    return ArcSpec(comps)


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    if any(not p.strip() for p in parts):
        raise ExprSyntaxError("empty arc component", 0)
    return parts


def var_name(index: int, nvars: int) -> str:
    if nvars <= 3:
        return "xyz"[index]
    return f"x{index + 1}"


_FORMATS = {Add: "({} + {})", Sub: "({} - {})", Mul: "({} * {})",
            Div: "({} / {})", IntPow: "({} ^ {})", Sqrt: "sqrt({})",
            Guard: "guard({}, {})"}


def to_text(e: Expr, names: Sequence[str] = ()) -> str:
    """Fully parenthesized canonical form; reparses to the same tree.
    Variable i prints as names[i], by default as `var_name` has it."""
    names = names or [var_name(i, e.nvars) for i in range(e.nvars)]
    return _fold(e.root, names.__getitem__, _constant_text,
                 lambda kind, *args: _FORMATS[kind].format(*args))


def _constant_text(value: Fraction) -> str:
    # fractions and negatives get their own parentheses so that an
    # enclosing power or product reparses to the same node
    return f"({value})" if value < 0 or value.denominator != 1 \
        else str(value)
