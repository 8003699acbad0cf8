"""Grammar: parsing, printing, and the roundtrip property."""

import random
from fractions import Fraction

import pytest

from arcan.errors import ArityError, ExprSyntaxError
from arcan.expr import Add, Div, Expr, Guard, IntPow, RationalConst, Sqrt, Sub, Var
from arcan.parser import MAX_DEPTH, MAX_EXPONENT, parse, parse_arc, to_text

from helpers import random_tree

F = Fraction


class TestParse:
    def test_guarded_rational(self):
        e = parse("guard(x^3 / (x^2 + y^2), 0)")
        assert isinstance(e.root, Guard)
        assert e.root.default == 0
        body = e.root.body
        assert isinstance(body, Div)
        assert body.left == IntPow(Var(0), 3)
        assert e.nvars == 2

    def test_sqrt_expression(self):
        e = parse("sqrt(x^4 + y^4)")
        assert isinstance(e.root, Sqrt)
        assert e.nvars == 2

    def test_incomplete_input(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x + ")
        assert err.value.position == 4

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("x + y) * 2")

    def test_rational_literal_folds(self):
        assert parse("3/4").root == RationalConst(F(3, 4))
        assert parse("-3/4").root == RationalConst(F(-3, 4))
        assert parse("3/4/5").root == RationalConst(F(3, 20))

    def test_decimal_literal(self):
        assert parse("0.25").root == RationalConst(F(1, 4))
        assert parse(".5").root == RationalConst(F(1, 2))

    def test_division_by_zero_literal_stays_structural(self):
        e = parse("3/0")
        assert isinstance(e.root, Div)

    def test_unary_minus(self):
        assert parse("-x").root == Sub(RationalConst(F(0)), Var(0))
        assert parse("--2").root == RationalConst(F(2))

    def test_precedence(self):
        e = parse("1 + 2 * x ^ 2")
        # parses as 1 + (2 * (x^2))
        assert isinstance(e.root, Add)
        assert e.root.left == RationalConst(F(1))

    def test_numbered_variables(self):
        e = parse("x1 + x4")
        assert e.root == Add(Var(0), Var(3))
        assert e.nvars == 4

    def test_nvars_widening(self):
        e = parse("x^2", nvars=3)
        assert e.nvars == 3
        with pytest.raises(ArityError):
            parse("z", nvars=2)

    def test_bad_exponent(self):
        with pytest.raises(ExprSyntaxError):
            parse("x^-1")
        with pytest.raises(ExprSyntaxError):
            parse("x^1.5")
        with pytest.raises(ExprSyntaxError):
            parse("x^y")

    def test_exponent_bound(self):
        assert parse(f"x^{MAX_EXPONENT}").root == IntPow(Var(0), MAX_EXPONENT)
        assert parse(f"x^00{MAX_EXPONENT}").root == IntPow(Var(0), MAX_EXPONENT)
        for text in (f"x^{MAX_EXPONENT + 1}", "x^99999", "x^" + "9" * 5000):
            with pytest.raises(ExprSyntaxError) as err:
                parse(text)
            assert err.value.position == 2

    @pytest.mark.parametrize("text", [
        "(x^100)^100", "(x^10000)^1", "(x^2 * y^5000)^2",
        "sqrt((x^100)^100) + (y^100)^100", "guard(1/(x^5000)^2, 0)",
        "(x^10000)^0", "((x^0)^10000)^10000",
    ])
    def test_nested_exponents_up_to_the_bound(self, text):
        parse(text)

    @pytest.mark.parametrize("text, exponent", [
        ("(x^10000)^10000", "10000"), ("(x^100)^101", "101"),
        ("((x^2)^2)^2501", "2501"), ("sqrt((x^5001)^2)", "2"),
        ("guard(1/(x^5000)^3, 0)", "3"), ("-((x^100)^200)", "200"),
        ("(" * 14 + "x" + "^2)" * 14, "2"),
    ])
    def test_nested_exponents_above_the_bound(self, text, exponent):
        # reported at the last exponent of the tower, where the product
        # first exceeds the bound
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.position == text.rindex("^" + exponent) + 1
        assert "nested exponents multiply" in str(err.value)

    @pytest.mark.parametrize("text", [
        "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
        "sqrt(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
        "-" * (MAX_DEPTH - 1) + "x",
        "+".join(["x"] * MAX_DEPTH),
    ], ids=["parens", "sqrt", "minus", "sum"])
    def test_nesting_up_to_the_bound(self, text):
        parse(text)

    @pytest.mark.parametrize("text", [
        "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1),
        "(" * 3000 + "x" + ")" * 3000,
        "sqrt(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
        "-" * 5000 + "x",
        "+".join(["x"] * (MAX_DEPTH + 1)),
        "*".join(["x"] * 100_000),
    ], ids=["parens", "parens-3000", "sqrt", "minus-5000", "sum",
            "product-100000"])
    def test_nesting_beyond_the_bound(self, text):
        with pytest.raises(ExprSyntaxError):
            parse(text)

    def test_guard_default_must_be_rational(self):
        assert parse("guard(x, -1/2)").root.default == F(-1, 2)
        with pytest.raises(ArityError):
            parse("guard(x, y)")

    def test_unknown_token(self):
        with pytest.raises(ExprSyntaxError):
            parse("x $ y")
        # digits are ASCII: str.isdigit() also accepts superscripts
        for text in ("²", "x + ٣"):
            with pytest.raises(ExprSyntaxError):
                parse(text)

    def test_unknown_variable(self):
        for text in ("foo + 1", "x²", "x1²"):
            with pytest.raises(ExprSyntaxError):
                parse(text)


class TestPrinter:
    def test_fully_parenthesized(self):
        e = parse("guard(x^3/(x^2+y^2), 0)")
        assert to_text(e) == "guard(((x ^ 3) / ((x ^ 2) + (y ^ 2))), 0)"

    def test_numbered_names_above_three_vars(self):
        e = Expr(Add(Var(0), Var(3)), 4)
        assert to_text(e) == "(x1 + x4)"

    def test_roundtrip_500_random_trees(self):
        rng = random.Random(31415)
        for _ in range(500):
            nvars = rng.randint(1, 4)
            tree = random_tree(rng, nvars, depth=rng.randint(1, 8))
            e = Expr(tree, nvars)
            back = parse(to_text(e), nvars=nvars)
            assert back == e


class TestParseArc:
    def test_components(self):
        arc = parse_arc("t, t^2 - 1")
        assert arc.nvars == 2
        assert arc.basepoint() == (0.0, -1.0)

    def test_nested_commas_do_not_split(self):
        # parenthesized groups keep their commas out of the component split
        arc = parse_arc("(t + (1/2)), t")
        assert arc.basepoint() == (0.5, 0.0)

    def test_empty_component(self):
        with pytest.raises(ExprSyntaxError):
            parse_arc("t, ")

    def test_t_is_the_only_variable(self):
        with pytest.raises(ExprSyntaxError):
            parse_arc("x, t")
