"""Hostile input, generated: the parser and the CLI fail only as documented,
and the printer's text parses back to the tree it printed."""

import contextlib
import io

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from arcan import cli
from arcan.errors import ArityError, ExprSyntaxError
from arcan.expr import Div, Expr, IntPow, RationalConst
from arcan.parser import MAX_EXPONENT, parse, to_text

from helpers import trees

GRAMMAR = "xyz0123456789+-*/^()., guardsqrt"
EXPRESSIONS = ["x", "x+y", "1/x", "x*y/(x^2+y^2)", "guard(x*y/(x^2+y^2),0)",
               "sqrt(x)", "(1/x^20)^0", "x^10001", "((", "", "x1+x2+x3",
               "1/0", "guard(1/(x^2+y^2), 1/2)", "-x^2"]
# Option values stay small: a large --kmax, grid or --jobs is refused at the
# boundary or costs time, not a different failure.  Each list starts with
# two valid values.
OPTIONS = {
    "--mode": ["float", "rational", "complex"],
    "--kmax": ["2", "3", "0", "-1", "x", "101"],
    "--tol": ["1e-7", "1e-3", "0", "-1", "nan", "inf", "x"],
    "--order": ["5", "12", "0", "-1", "405", "x"],
    "--seed": ["0", "1", "-5", "x"],
    "--format": ["json", "csv", "xml"],
    "--jobs": ["1", "1", "0", "-1", "x"],
    "--point": ["0,0", "0", "1/2,0", "a", "", "1e400", "0,0,0", "0,,0",
                "1/0"],
    "--grid": ["x:0:1:1", "x:0:1:1;y:0:1:1", "x:0:1:0", "x:1:0:1", "bad",
               "x:0:1:1;x:0:1:1", "y:0:1:1/2", "x:0:1:1/0"],
    "--arc": ["t, t", "t", "t^2, t", "", "t,", "s"],
    "--arc-tol": ["1e-9", "0", "-1", "nan"],
    "--chart": ['{"n":2,"center":[1,2],"axis":1}',
                '{"n":3,"center":[2,3],"axis":3}', "{}", "x", "[]",
                '{"n":2,"center":[1],"axis":1}',
                '{"n":"2","center":[1,2],"axis":1}', '{"n":2,"center":1,"axis":1}',
                '{"n":2,"center":[1,2.5],"axis":1}', "null",
                '{"n":2,"center":[1,2],"axis":3}', '{"n":1e400}'],
    "--classify-divisor": ["0", "1", "-1"],
    "--trials": ["1", "2", "0", "-1", "x"],
    "--list": None,
    "--no-shortcut": None,
    "--help": None,
}
LADDER = ["--mode", "--kmax", "--tol", "--order"]
# Each command with the options it requires and the others it takes.
COMMANDS = {"classify": (["--point"], LADDER),
            "scan": (["--grid"], LADDER + ["--seed", "--no-shortcut",
                                            "--format", "--jobs"]),
            "arc": (["--arc"], ["--arc-tol", "--mode", "--order"]),
            "blowup": (["--chart"], LADDER + ["--seed",
                                              "--classify-divisor"]),
            "verify": (["--trials"], ["--mode", "--seed"]),
            "corpus": ([], ["--list", "--kmax", "--tol", "--seed", "--jobs"]),
            "bogus": ([], [])}
IDENTITIES = ["binoms", "euler", "loja", "alibaba", "interp-roundtrip"]
POSITIONALS = EXPRESSIONS + IDENTITIES + ["E1", "E4", "E9"]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(GRAMMAR), max_size=30)
       | st.text(max_size=12))
def test_parse_raises_only_syntax_or_arity_errors(text):
    try:
        parse(text)
    except (ExprSyntaxError, ArityError):
        pass


def children(node) -> list:
    return [getattr(node, name) for name in ("left", "right", "base", "arg",
                                             "body") if hasattr(node, name)]


def nested_exponents(node) -> int:
    """The largest product of exponents along a root-to-leaf path."""
    inner = max(map(nested_exponents, children(node)), default=1)
    return inner * node.exponent if isinstance(node, IntPow) else inner


def literal_quotient(node) -> bool:
    """Whether the tree divides a constant by a nonzero constant, a
    quotient the parser folds into one constant."""
    if isinstance(node, Div) and isinstance(node.left, RationalConst) \
            and isinstance(node.right, RationalConst) and node.right.value:
        return True
    return any(map(literal_quotient, children(node)))


@settings(max_examples=200, deadline=None)
@given(trees())
def test_printed_trees_parse_back_to_themselves(tree):
    # the parser refuses the first and folds the second
    assume(nested_exponents(tree) <= MAX_EXPONENT)
    assume(not literal_quotient(tree))
    e = Expr(tree, 2)
    assert parse(to_text(e), nvars=2) == e


@st.composite
def argvs(draw):
    """A command, one positional, its required options and a few others:
    mostly its own, sometimes any (bad usage), with values that lean valid.
    """
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, own = COMMANDS[command]
    others = st.sampled_from(sorted(own + ["--help"]))
    options = required + draw(st.lists(
        others | others | st.sampled_from(sorted(OPTIONS)), max_size=3))
    positional = IDENTITIES if command == "verify" else EXPRESSIONS
    chunks = [[draw(st.sampled_from(positional) | st.sampled_from(POSITIONALS)
                    | st.text(max_size=6))]]
    for option in options:
        values = OPTIONS[option]
        chunks.append([option] if values is None else [option, draw(
            st.sampled_from(values[:2]) | st.sampled_from(values))])
    return [command] + [w for chunk in draw(st.permutations(chunks))
                        for w in chunk]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_exits_with_a_documented_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
