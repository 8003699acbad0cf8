"""Command-line interface.

Subcommands: classify, scan, arc, blowup, verify, corpus.  Output is
machine-readable JSON (JSON lines for scans, CSV on request); in float mode
numbers print with 17 significant digits, in rational mode as p/q strings,
and identical invocations produce byte-identical output.

Exit codes: 0 success, 1 usage or runtime error, 2 expected-vs-observed
mismatch from `corpus` or a failed `verify` identity.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .blowup import BlowupChart, classify_pullback, pullback
from .classify import ANALYTIC_UP_TO, MAX_K_MAX, MAX_LADDER_DIRECTIONS, \
    MAX_ORDER, Verdict, classify_point, default_order, grid_axis_values, \
    iter_scan, verdict_to_json
from .corpus import corpus_list, lookup
from .errors import ArcanError
from .expr import arc_check
from .homog import dim_homog
from .parser import MAX_EXPONENT, above_max_exponent, parse, parse_arc
from .seeds import derive_seed, sample_scalar
from .verify import IDENTITIES, run_identity, verify_corpus


# --- deterministic JSON -------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return json.dumps(str(x))
    return f"{x:.17g}"


def emit_json(obj) -> str:
    """JSON with pinned float formatting and p/q strings for rationals."""
    emit = _EMITTERS.get(type(obj))
    if emit is None:
        emit = next((emit for kind, emit in _EMITTERS.items()
                     if isinstance(obj, kind)), None)
        if emit is None:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    return emit(obj)


def _emit_dict(obj) -> str:
    return "{" + ", ".join([_json_key(k) + emit_json(v)
                            for k, v in obj.items()]) + "}"


def _emit_list(obj) -> str:
    return "[" + ", ".join(map(emit_json, obj)) + "]"


def _emit_bool(obj) -> str:
    return "true" if obj else "false"


def _emit_null(obj) -> str:
    return "null"


def _emit_fraction(obj) -> str:
    return json.dumps(str(obj))


@lru_cache(maxsize=256, typed=True)
def _json_key(key) -> str:
    """A dict key as emitted, with its separator (keys repeat line after line)."""
    return f"{json.dumps(str(key))}: "


# Looked up by exact type; a subclass takes the first entry it is an
# instance of, so bool must come before int.  `encode_basestring_ascii` is
# what `json.dumps` runs for a str.
_EMITTERS = {float: _fmt_float, dict: _emit_dict, list: _emit_list,
             tuple: _emit_list, str: encode_basestring_ascii,
             bool: _emit_bool, int: str, type(None): _emit_null,
             Fraction: _emit_fraction}


def _csv_cell(obj) -> str:
    if obj is None:
        return ""
    if isinstance(obj, float):
        return f"{obj:.17g}"
    return str(obj)


# --- options ------------------------------------------------------------------

# The decimal exponent at the end of a number as `Fraction` reads it.
_EXPONENT = re.compile(r"e[-+]?(\d[\d_]*)\Z", re.IGNORECASE)


def _bounded(flag: str, value: int, lo: int, hi: int) -> int:
    if not lo <= value <= hi:
        raise ArcanError(f"{flag} must be between {lo} and {hi}")
    return value


def _tol(value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ArcanError("--tol must be a finite number above 0")
    return value


def _seed(value: int | None) -> int:
    """--seed, else ARCAN_SEED, else 0."""
    if value is not None:
        return value
    raw = os.environ.get("ARCAN_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ArcanError(f"ARCAN_SEED must be an integer, got {raw!r}")


def _ladder_options(args) -> dict:
    """A ladder's keyword arguments from --mode, --kmax, --tol and --order,
    each checked; --order is raised to 2*kmax+4."""
    k_max = _bounded("--kmax", args.kmax, 1, MAX_K_MAX)
    tol = _tol(args.tol)
    order = default_order(k_max)
    if args.order is not None:
        order = max(order, _bounded("--order", args.order, 0, MAX_ORDER))
    return dict(k_max=k_max, tol=tol, order=order,
                exact=args.mode == "rational")


def _check_ladder(k_max: int, nvars: int) -> None:
    """Refuse a ladder whose top order needs too many directions."""
    d = dim_homog(nvars, k_max)
    if d > MAX_LADDER_DIRECTIONS:
        raise ArcanError(
            f"--kmax {k_max} in {nvars} variables needs {d} directions "
            f"per order, more than the {MAX_LADDER_DIRECTIONS} allowed")


def _parse_number(text: str, exact: bool, what: str = "coordinate"):
    """A number as `Fraction` reads it, refused (naming `what`) where it
    is not one, its denominator is zero, its decimal exponent is beyond
    ±MAX_EXPONENT (`Fraction` would build 10**exponent first), or, in
    float mode, it is beyond the float range."""
    text = text.strip()
    exponent = _EXPONENT.search(text)
    if exponent and above_max_exponent(exponent.group(1).replace("_", "")):
        raise ArcanError(f"{what} {text} has a decimal exponent beyond "
                         f"±{MAX_EXPONENT}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ArcanError(f"{what} {text} has a zero denominator") from None
    except ValueError as exc:  # not a number, or beyond int()'s digit limit
        detail = "" if str(exc).startswith("Invalid literal") \
            else f" ({exc})"
        raise ArcanError(f"{what} {text!r} is not a number{detail}") \
            from None
    if exact:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ArcanError(f"{what} {text} is beyond the float range; "
                         "--mode rational keeps it exact") from None


def _parse_point(text: str, exact: bool) -> tuple:
    return tuple(_parse_number(part, exact) for part in text.split(","))


def _axis_index(name: str) -> int:
    name = name.strip()
    if name in ("x", "y", "z"):
        return "xyz".index(name)
    if name.startswith("x") and name[1:].isdigit() and int(name[1:]) >= 1:
        return int(name[1:]) - 1
    raise ArcanError(f"unknown grid axis {name!r}")


def _parse_grid(text: str, nvars: int, exact: bool) -> list[tuple]:
    """Parse 'x:lo:hi:step;y:lo:hi:step' into per-variable-index axes of
    exact bounds; in float mode lo and hi must lie in the float range."""
    axes: dict[int, tuple] = {}
    names: dict[int, str] = {}
    for part in text.split(";"):
        fields = part.split(":")
        if len(fields) != 4:
            raise ArcanError(f"grid axis {part!r} must be name:lo:hi:step")
        idx = _axis_index(fields[0])
        if idx in axes:
            raise ArcanError(f"grid axis {names[idx]!r} given twice")
        names[idx] = fields[0].strip()
        what = f"grid axis {names[idx]!r}"
        for bound in fields[1:3]:
            _parse_number(bound, exact, f"{what} bound")
        axes[idx] = (*(Fraction(f.strip()) for f in fields[1:3]),
                     _parse_number(fields[3], True, f"{what} step"))
    if sorted(axes) != list(range(nvars)):
        raise ArcanError(
            f"grid must specify every variable of the expression (need {nvars})")
    return [axes[i] for i in range(nvars)]


# --- subcommands ---------------------------------------------------------------

def _cmd_classify(args) -> int:
    opts = _ladder_options(args)
    e = parse(args.expr)
    _check_ladder(opts["k_max"], e.nvars)
    point = _parse_point(args.point, opts["exact"])
    print(emit_json(verdict_to_json(classify_point(e, point, **opts))))
    return 0


def _json_line(index: int, v) -> str:
    return emit_json({**verdict_to_json(v), "index": index})


def _csv_line(index: int, v) -> str:
    return ",".join(_csv_cell(c) for c in
                    [index, *v.point, v.status, v.k_star, v.residual])


def _shortcut_lines(line, cell, k_max: int, axis_values: list[list]):
    """Every grid point's line as a block-shortcut point's, in grid order.

    `line` renders one shortcut verdict whose index and coordinates are
    marker strings, and the text around the markers, as `cell` renders
    them, is every line's fixed text: the generic line stays the one
    definition of the format.  Each coordinate is rendered once per axis
    value, not per point; they cannot be keyed by value, as 0.0 == -0.0.
    """
    n = len(axis_values)
    marks = [f"\0{i}\0" for i in range(n + 1)]
    text = line(marks[n], Verdict(tuple(marks[:n]), ANALYTIC_UP_TO, k_max,
                                  shortcut=True))
    first, last, index = cell(marks[0]), cell(marks[n - 1]), cell(marks[n])
    head, _, rest = text.partition(first)
    sep = rest.partition(cell(marks[1]))[0] if n > 1 else ""
    tail = text.partition(last)[2]
    coords = _row_major([[cell(c) for c in values] for values in axis_values],
                        sep)
    if index in tail:
        mid, _, tail = tail.partition(index)
        return (f"{head}{c}{mid}{i}{tail}" for i, c in enumerate(coords))
    head, _, mid = head.partition(index)
    return (f"{head}{i}{mid}{c}{tail}" for i, c in enumerate(coords))


def _row_major(axis_texts: list[list[str]], sep: str):
    """Each grid point's coordinate texts joined by `sep`, in row-major
    order; the axes after the first are joined once, up front."""
    rest = axis_texts[-1]
    for texts in reversed(axis_texts[1:-1]):
        rest = [t + sep + r for t in texts for r in rest]
    if len(axis_texts) == 1:
        return iter(rest)
    return (t + sep + r for t in axis_texts[0] for r in rest)


# Shortcut lines per write of a scan's output, about 7 KB of JSON lines;
# 64 KB blocks raised the benchmark's peak RSS and gained no speed.
_BLOCK_LINES = 64


def _cmd_scan(args) -> int:
    opts = _ladder_options(args)
    jobs = _bounded("--jobs", args.jobs, 1, os.cpu_count() or 1)
    e = parse(args.expr)
    _check_ladder(opts["k_max"], e.nvars)
    axes = _parse_grid(args.grid, e.nvars, opts["exact"])
    if args.format == "csv":
        from .parser import var_name
        names = [var_name(i, e.nvars) for i in range(e.nvars)]
        header = ",".join(["index", *names, "status", "kStar", "residual\n"])
        line, cell = _csv_line, _csv_cell
    else:
        header, line, cell = "", _json_line, emit_json
    axis_values = grid_axis_values(axes, opts["exact"])
    shortcut_lines = _shortcut_lines(line, cell, opts["k_max"], axis_values)
    ladder = iter_scan(e, axes, shortcut=not args.no_shortcut, jobs=jobs,
                       **opts)
    write = sys.stdout.write
    write(header)
    done = 0  # the lines written
    for i, v in itertools.chain(ladder, [(math.prod(map(len, axis_values)),
                                          None)]):
        for start in range(done, i, _BLOCK_LINES):
            write("\n".join(itertools.islice(
                shortcut_lines, min(_BLOCK_LINES, i - start))) + "\n")
        if v is not None:
            next(shortcut_lines)
            write(line(i, v) + "\n")
        done = i + 1
    return 0


def _cmd_arc(args) -> int:
    order = _bounded("--order", args.order, 0, MAX_ORDER)
    if not (math.isfinite(args.arc_tol) and args.arc_tol >= 0):
        raise ArcanError("--arc-tol must be a finite number of at least 0")
    e = parse(args.expr)
    arc = parse_arc(args.arc)
    report = arc_check(e, arc, order, args.arc_tol, args.mode == "rational")
    doc = {
        "kind": report.kind,
        "valuation": report.laurent.valuation,
        "order": report.laurent.order,
        "coeffs": report.laurent.coefficients(),
        "pointValue": report.point_value,
        "mismatch": report.mismatch,
    }
    print(emit_json(doc))
    return 0


# Most divisor points `blowup --classify-divisor` classifies: the document
# holds every verdict before it prints, about 4.9 KB per point at --kmax 8.
MAX_DIVISOR_POINTS = 1000


def _cmd_blowup(args) -> int:
    opts = _ladder_options(args)
    seed = _seed(args.seed)
    _bounded("--classify-divisor", args.classify_divisor, 0,
             MAX_DIVISOR_POINTS)
    e = parse(args.expr)
    if args.classify_divisor:
        _check_ladder(opts["k_max"], e.nvars)
    chart = BlowupChart.from_json(json.loads(args.chart))
    doc = pullback(e, chart).to_json()
    if args.classify_divisor:
        exact = opts["exact"]
        rng = random.Random(derive_seed(seed, "divisor-points"))
        points = []
        for _ in range(args.classify_divisor):
            pt = [Fraction(0) if exact else 0.0] * e.nvars
            for i in chart.center:
                if i != chart.axis:
                    pt[i] = sample_scalar(rng.uniform(-2.0, 2.0), exact)
            points.append(tuple(pt))
        verdicts = classify_pullback(e, chart, points, **opts)
        doc["divisorVerdicts"] = [verdict_to_json(v) for v in verdicts]
    print(emit_json(doc))
    return 0


# The identities that check float machinery only.
_FLOAT_IDENTITIES = ("alibaba", "loja")
# Most random trials `verify` runs: at the cap about an hour for alibaba
# (10,000 samples a trial), minutes for the others, on one x86_64 core.
MAX_TRIALS = 100_000


def _cmd_verify(args) -> int:
    exact = args.mode == "rational"
    if exact and args.identity in _FLOAT_IDENTITIES:
        raise ArcanError(f"verify {args.identity} runs in float mode only")
    if args.identity == "loja":
        given = [flag for flag, value in (("--trials", args.trials),
                                          ("--seed", args.seed))
                 if value is not None]
        if given:
            raise ArcanError(f"verify loja takes no {' or '.join(given)}: "
                             "its two growth fits are fixed")
        seed = trials = 0  # read by no fit
    else:
        seed = _seed(args.seed)
        trials = _bounded("--trials", 1000 if args.trials is None
                          else args.trials, 1, MAX_TRIALS)
    report = run_identity(args.identity, trials, seed, exact)
    print(emit_json(report.to_json()))
    return 0 if report.passed else 2


def _cmd_corpus(args) -> int:
    k_max = _bounded("--kmax", args.kmax, 1, MAX_K_MAX)
    tol = _tol(args.tol)
    jobs = _bounded("--jobs", args.jobs, 1, os.cpu_count() or 1)
    try:
        entries = [lookup(args.name)] if args.name else corpus_list()
    except KeyError as exc:
        raise ArcanError(exc.args[0]) from None
    if args.list:
        for entry in entries:
            print(emit_json(entry.to_json()))
        return 0
    _check_ladder(k_max, max(entry.nvars for entry in entries))
    names = [args.name] if args.name else None
    reports = verify_corpus(names, k_max, tol, jobs)
    for rep in reports:
        print(emit_json(rep.to_json()))
    failed = [r.name for r in reports if not r.passed]
    if failed:
        print(emit_json({"summary": "mismatch", "failed": failed}))
        return 2
    print(emit_json({"summary": "ok", "entries": [r.name for r in reports]}))
    return 0


# --- argument plumbing ----------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage, and a subcommand's parser names
    itself; the documented contract is `arcan: error:` and exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"arcan: error: {message}\n")


# The options more than one subcommand takes; each subcommand takes only
# the options it reads.
_SHARED = {
    "--mode": dict(choices=("float", "rational"), default="float",
                   help="coefficient arithmetic (default float)"),
    "--kmax": dict(type=int, default=8,
                   help="highest differential order tested (default 8)"),
    "--tol": dict(type=float, default=1e-7,
                  help="validation residual tolerance (default 1e-7)"),
    "--order": dict(type=int, default=None,
                    help="widest retained jet order (auto-raised to "
                         "2*kmax+4); a ladder's jets run to kmax first and "
                         "widen to it only where that could change the "
                         "verdict"),
    "--seed": dict(type=int, default=None,
                   help="base seed of the sampled points or trials "
                        "(default: ARCAN_SEED or 0)"),
    "--jobs": dict(type=int, default=1,
                   help="worker processes for scans (default 1)"),
}
_LADDER = ("--mode", "--kmax", "--tol", "--order")
# scan and corpus still accept --seed, and ignore it: ladders read no seed.
_IGNORED_SEED = dict(type=int, default=None,
                     help="accepted and ignored: ladders read no seed")


def _add_shared(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_SHARED[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="arcan",
        description="Detect and certify where a function stops being analytic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one point")
    p.add_argument("expr")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    _add_shared(p, *_LADDER)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan", help="classify every point of a grid")
    p.add_argument("expr")
    p.add_argument("--grid", required=True,
                   help='per-axis bounds, e.g. "x:-1:1:0.125;y:-1:1:0.125"')
    p.add_argument("--no-shortcut", action="store_true",
                   help="run the full ladder even at manifestly regular points")
    _add_shared(p, *_LADDER)
    p.add_argument("--seed", **_IGNORED_SEED)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output encoding (default json lines)")
    _add_shared(p, "--jobs")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("arc", help="series-vs-value report along one arc")
    p.add_argument("expr")
    p.add_argument("--arc", required=True,
                   help='comma-separated polynomial components in t, e.g. "t, t^2"')
    p.add_argument("--arc-tol", type=float, default=1e-9,
                   help="mismatch tolerance for the basepoint comparison")
    _add_shared(p, "--mode")
    p.add_argument("--order", type=int, default=20,
                   help="the series window: coefficients through t^order "
                        "(default 20)")
    p.set_defaults(func=_cmd_arc)

    p = sub.add_parser("blowup", help="pull an expression back through a chart")
    p.add_argument("expr")
    p.add_argument("--chart", required=True,
                   help='chart JSON, e.g. \'{"n":3,"center":[2,3],"axis":3}\'')
    p.add_argument("--classify-divisor", type=int, default=0, metavar="N",
                   help="also classify N sampled points of the divisor")
    _add_shared(p, *_LADDER, "--seed")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("verify", help="run a randomized identity check")
    p.add_argument("identity", choices=IDENTITIES)
    p.add_argument("--trials", type=int, default=None,
                   help="random trials (default 1000); verify loja takes none")
    _add_shared(p, "--mode", "--seed")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corpus", help="run the fixture suite")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true",
                   help="print the entries (or the named one) and exit")
    _add_shared(p, "--kmax", "--tol")
    p.add_argument("--seed", **_IGNORED_SEED)
    _add_shared(p, "--jobs")
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (ArcanError, ValueError, KeyError, OverflowError,
            ZeroDivisionError, json.JSONDecodeError) as exc:
        print(f"arcan: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at devnull so that the
        # flush at exit does not fail again, as the Python docs suggest.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("arcan: error: stdout closed before the output was written",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
