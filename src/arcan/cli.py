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
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .blowup import BlowupChart, classify_pullback, pullback
from .classify import classify_point, default_order, iter_scan, verdict_to_json
from .corpus import corpus_list
from .errors import ArcanError
from .expr import arc_check
from .parser import parse, parse_arc
from .seeds import derive_seed
from .verify import IDENTITIES, run_identity, verify_corpus


# --- deterministic JSON -------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return json.dumps(str(x))
    return f"{x:.17g}"


def emit_json(obj) -> str:
    """JSON with pinned float formatting and p/q strings for rationals."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {emit_json(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(emit_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(obj) -> str:
    if obj is None:
        return ""
    if isinstance(obj, float):
        return f"{obj:.17g}"
    return str(obj)


# --- configuration ------------------------------------------------------------

@dataclass
class RunConfig:
    mode: str = "float"
    k_max: int = 8
    tol: float = 1e-7
    order: int | None = None
    seed: int = 0
    fmt: str = "json"
    jobs: int = 1

    @property
    def exact(self) -> bool:
        return self.mode == "rational"

    @property
    def jet_order(self) -> int:
        floor = default_order(self.k_max)
        if self.order is None or self.order < floor:
            return floor
        return self.order


def _env_seed() -> int:
    raw = os.environ.get("ARCAN_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ArcanError(f"ARCAN_SEED must be an integer, got {raw!r}")


def _config(args) -> RunConfig:
    if args.kmax < 1:
        raise ArcanError("--kmax must be at least 1")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ArcanError("--tol must be a finite number above 0")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ArcanError(f"--jobs must be between 1 and {cpus}")
    seed = args.seed if args.seed is not None else _env_seed()
    return RunConfig(mode=args.mode, k_max=args.kmax, tol=args.tol,
                     order=args.order, seed=seed, fmt=args.format,
                     jobs=args.jobs)


def _parse_number(text: str, exact: bool):
    value = Fraction(text.strip())
    return value if exact else float(value)


def _parse_point(text: str, exact: bool) -> tuple:
    return tuple(_parse_number(part, exact) for part in text.split(","))


def _axis_index(name: str) -> int:
    name = name.strip()
    if name in ("x", "y", "z"):
        return "xyz".index(name)
    if name.startswith("x") and name[1:].isdigit() and int(name[1:]) >= 1:
        return int(name[1:]) - 1
    raise ArcanError(f"unknown grid axis {name!r}")


def _parse_grid(text: str, nvars: int) -> list[tuple]:
    """Parse 'x:lo:hi:step;y:lo:hi:step' into per-variable-index axes."""
    axes: dict[int, tuple] = {}
    for part in text.split(";"):
        fields = part.split(":")
        if len(fields) != 4:
            raise ArcanError(f"grid axis {part!r} must be name:lo:hi:step")
        idx = _axis_index(fields[0])
        axes[idx] = tuple(Fraction(f.strip()) for f in fields[1:])
    if sorted(axes) != list(range(nvars)):
        raise ArcanError(
            f"grid must specify every variable of the expression (need {nvars})")
    return [axes[i] for i in range(nvars)]


# --- subcommands ---------------------------------------------------------------

def _cmd_classify(args) -> int:
    cfg = _config(args)
    e = parse(args.expr)
    point = _parse_point(args.point, cfg.exact)
    verdict = classify_point(e, point, cfg.k_max, cfg.tol, cfg.seed,
                             cfg.jet_order, cfg.exact)
    print(emit_json(verdict_to_json(verdict)))
    return 0


def _verdict_csv_row(index: int, v) -> list:
    return [index, *v.point, v.status, v.k_star, v.residual]


def _cmd_scan(args) -> int:
    cfg = _config(args)
    e = parse(args.expr)
    axes = _parse_grid(args.grid, e.nvars)
    stream = iter_scan(e, axes, cfg.k_max, cfg.tol, cfg.seed, cfg.jet_order,
                       cfg.exact, shortcut=not args.no_shortcut, jobs=cfg.jobs)
    if cfg.fmt == "csv":
        from .parser import var_name
        names = [var_name(i, e.nvars) for i in range(e.nvars)]
        print(",".join(["index", *names, "status", "kStar", "residual"]))
        for i, v in enumerate(stream):
            print(",".join(_csv_cell(c) for c in _verdict_csv_row(i, v)))
    else:
        for i, v in enumerate(stream):
            doc = verdict_to_json(v)
            doc["index"] = i
            print(emit_json(doc))
    return 0


def _cmd_arc(args) -> int:
    cfg = _config(args)
    e = parse(args.expr)
    arc = parse_arc(args.arc)
    report = arc_check(e, arc, cfg.jet_order, args.arc_tol, cfg.exact)
    doc = {
        "kind": report.kind,
        "valuation": report.laurent.valuation,
        "order": report.laurent.order,
        "coeffs": list(report.laurent.coeffs),
        "pointValue": report.point_value,
        "mismatch": report.mismatch,
    }
    print(emit_json(doc))
    return 0


def _cmd_blowup(args) -> int:
    cfg = _config(args)
    e = parse(args.expr)
    chart = BlowupChart.from_json(json.loads(args.chart))
    result = pullback(e, chart)
    doc = result.to_json()
    if args.classify_divisor:
        rng = random.Random(derive_seed(cfg.seed, "divisor-points"))
        points = []
        for _ in range(args.classify_divisor):
            pt = [0.0] * e.nvars
            for i in chart.center:
                if i != chart.axis:
                    pt[i] = rng.uniform(-2.0, 2.0)
            points.append(tuple(pt))
        verdicts = classify_pullback(e, chart, points, cfg.k_max, cfg.tol,
                                     cfg.seed, cfg.exact, cfg.jet_order)
        doc["divisorVerdicts"] = [verdict_to_json(v) for v in verdicts]
    print(emit_json(doc))
    return 0


def _cmd_verify(args) -> int:
    cfg = _config(args)
    if args.trials < 1:
        raise ArcanError("--trials must be at least 1")
    report = run_identity(args.identity, args.trials, cfg.seed,
                          exact=(cfg.mode == "rational"))
    print(emit_json(report.to_json()))
    return 0 if report.passed else 2


def _cmd_corpus(args) -> int:
    cfg = _config(args)
    names = [args.name] if args.name else None
    if args.list:
        for entry in corpus_list():
            print(emit_json(entry.to_json()))
        return 0
    reports = verify_corpus(names, cfg.k_max, cfg.tol, cfg.seed, cfg.jobs)
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
    """argparse exits 2 on bad usage; the documented contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("float", "rational"), default="float",
                   help="coefficient arithmetic (default float)")
    p.add_argument("--kmax", type=int, default=8,
                   help="highest differential order tested (default 8)")
    p.add_argument("--tol", type=float, default=1e-7,
                   help="validation residual tolerance (default 1e-7)")
    p.add_argument("--order", type=int, default=None,
                   help="retained jet order (auto-raised to 2*kmax+4)")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (default: ARCAN_SEED or 0)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output encoding for scans (default json lines)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for scans (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="arcan",
        description="Detect and certify where a function stops being analytic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one point")
    p.add_argument("expr")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan", help="classify every point of a grid")
    p.add_argument("expr")
    p.add_argument("--grid", required=True,
                   help='per-axis bounds, e.g. "x:-1:1:0.125;y:-1:1:0.125"')
    p.add_argument("--no-shortcut", action="store_true",
                   help="run the full ladder even at manifestly regular points")
    _add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("arc", help="series-vs-value report along one arc")
    p.add_argument("expr")
    p.add_argument("--arc", required=True,
                   help='comma-separated polynomial components in t, e.g. "t, t^2"')
    p.add_argument("--arc-tol", type=float, default=1e-9,
                   help="mismatch tolerance for the basepoint comparison")
    _add_common(p)
    p.set_defaults(func=_cmd_arc)

    p = sub.add_parser("blowup", help="pull an expression back through a chart")
    p.add_argument("expr")
    p.add_argument("--chart", required=True,
                   help='chart JSON, e.g. \'{"n":3,"center":[2,3],"axis":3}\'')
    p.add_argument("--classify-divisor", type=int, default=0, metavar="N",
                   help="also classify N sampled points of the divisor")
    _add_common(p)
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("verify", help="run a randomized identity check")
    p.add_argument("identity", choices=IDENTITIES)
    p.add_argument("--trials", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corpus", help="run the fixture suite")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="print entries and exit")
    _add_common(p)
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArcanError as exc:
        print(f"arcan: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"arcan: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
