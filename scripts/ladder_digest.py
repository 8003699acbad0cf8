#!/usr/bin/env python3
"""Digests of the full ladder's output, float and rational, of default
scans, pullbacks, `arcan arc` and `arcan corpus`, on the corpus.

Float: runs `classify_point` (the full ladder) in float mode at k_max 10
at every point of every corpus entry's `scan_axes` grid (E1–E6, 10,982
points).  Rational: runs it in rational mode at every corpus exact-locus
and regular point (23 points), at k_max 8 and 10.  Ladders read no seed;
each verdict is hashed once per seed the ladders used to take (two float,
three rational), so that the counts and the status digest stay
comparable with commits whose ladders were seeded.  Prints, per
arithmetic, the number of verdicts and the SHA-256 of their
`emit_json(verdict_to_json(...))` lines, each ended by a newline.
Status: hashes only each of those float and rational verdicts' point,
status and `kStar`, one `emit_json` line per verdict, so that it stays
put where only printed digits change.  Scan:
runs `arcan scan` in-process, shortcut on, over every corpus entry's grid
as the CLI reads it (E5 in two variables, over the window of the two), in
JSON and CSV, under --seed 0 and 1 (which `scan` and `corpus` accept
and ignore; both runs are kept so the counts stay comparable), and
prints the number of lines and the SHA-256 of the concatenated stdout.
Rational scan: the same, with `--mode rational --kmax 3` and each grid's
step widened to 1/4.  Pullback: pulls every corpus entry back along
each of its `resolution_charts` and each axis chart of the blow-up of
the origin (centre = all variables), and prints the number of pullbacks
and the SHA-256 of their `emit_json(pullback(...).to_json())` lines (an
error's type and message in place of a document).  Arc: runs `arcan arc`
in-process on every corpus entry along three fixed arcs (README's
`t, t`, a line with a zero component, and `t, t^2`, each extended in
three variables), in both modes, at `--order` 0, 4 and 10, and prints
the number of runs and the SHA-256 of their stdout and, where a run
fails, its exit status and stderr.  Corpus: runs `arcan corpus`
in-process over every entry, under --seed 0 and 1, and prints the
number of lines and the SHA-256 of the concatenated stdout (a mismatch
exits 2 and stops the script).  Verify: runs `arcan verify` in-process
at `--trials 200` under --seed 0, 1 and 2, for `binoms`, `euler` and
`interp-roundtrip` in both modes and `alibaba` in float mode, and prints
the number of lines, one per run, and the SHA-256 of the concatenated
stdout (a failed identity exits 2 and stops the script).  Sampled: runs
`arc_symmetry_check` on every corpus entry along each of the arcs above,
and `fiber_lift_check` at the origin along each of its
`resolution_charts`, in both modes, with their default samples, and
prints the number of checks and the SHA-256 of one line per check: its
statuses (and the fibre lift's count of regular centre samples), or the
`PremiseViolated` text.  Equal digests on two
commits mean byte-identical output, residual digits included.  Each
part's wall time, in-process, goes to stderr.  Takes about a minute and a
half on a 2-core x86_64 machine:

    PYTHONPATH=src python scripts/ladder_digest.py

It then compares each printed line with the line of the same name in
`ladder_digest.expected`, next to this script, and exits 1, naming each
part that differs or is missing; so exit 0 means the output is
byte-identical to what that file records.  A change that alters output
on purpose updates that file with it.
"""

import contextlib
import hashlib
import io
import os
import sys
import time
from fractions import Fraction

from arcan import cli
from arcan.blowup import BlowupChart, fiber_lift_check, pullback
from arcan.classify import arc_symmetry_check, classify_point, grid_points, \
    verdict_to_json
from arcan.cli import emit_json
from arcan.corpus import corpus_list
from arcan.errors import PremiseViolated
from arcan.parser import parse, parse_arc, var_name

K_MAX = 10
SCAN_SEEDS = (0, 1)
RATIONAL_SCAN = ("--mode", "rational", "--kmax", "3")
RATIONAL_SCAN_STEP = Fraction(1, 4)
RATIONAL_K_MAX = (8, 10)
RATIONAL_SEEDS = (0, 1, 2)
ARCS = {2: ("t, t", "t, 0", "t, t^2"), 3: ("t, t, t", "t, 0, t", "t, t^2, t^3")}
ARC_ORDERS = (0, 4, 10)
VERIFY_RUNS = tuple((identity, mode)
                    for identity in ("binoms", "euler", "interp-roundtrip")
                    for mode in ("float", "rational")) + (("alibaba", "float"),)
VERIFY_TRIALS = 200
VERIFY_SEEDS = (0, 1, 2)
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "ladder_digest.expected")


def float_verdicts():
    for entry in corpus_list():
        e = entry.expr()
        for x in grid_points(entry.scan_axes):
            yield from [classify_point(e, x, K_MAX)] * len(SCAN_SEEDS)


def rational_verdicts():
    for entry in corpus_list():
        e = entry.expr()
        for x in entry.exact_locus_points + entry.regular_points:
            for k_max in RATIONAL_K_MAX:
                yield from [classify_point(e, x, k_max, exact=True)] \
                    * len(RATIONAL_SEEDS)


def cli_stdout(argv) -> str:
    """In-process `arcan` stdout; exits the script on a nonzero status."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"arcan {' '.join(argv)} exited {code}")
    return out.getvalue()


def arc_outputs():
    """Each `arcan arc` run's stdout, and its status and stderr if it fails."""
    for entry in corpus_list():
        for arc in ARCS[entry.nvars]:
            for mode in ("float", "rational"):
                for order in ARC_ORDERS:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = cli.main(["arc", entry.source, "--arc", arc,
                                         "--mode", mode,
                                         "--order", str(order)])
                    yield out.getvalue() + (
                        f"exit {code}: {err.getvalue()}" if code else "")


def corpus_outputs():
    for seed in SCAN_SEEDS:
        yield cli_stdout(["corpus", "--seed", str(seed)])


def verify_outputs():
    for identity, mode in VERIFY_RUNS:
        for seed in VERIFY_SEEDS:
            yield cli_stdout(["verify", identity, "--mode", mode, "--trials",
                              str(VERIFY_TRIALS), "--seed", str(seed)])


def scan_outputs(options=(), step=None):
    """Each corpus scan's stdout; `step`, if given, replaces every axis's."""
    for entry in corpus_list():
        nvars = parse(entry.source).nvars
        grid = ";".join(f"{var_name(a, nvars)}:{lo}:{hi}:{step or axis_step}"
                        for a, (lo, hi, axis_step)
                        in enumerate(entry.scan_axes[:nvars]))
        for fmt in ("json", "csv"):
            for seed in SCAN_SEEDS:
                yield cli_stdout(["scan", entry.source, "--grid", grid,
                                  "--format", fmt, "--seed", str(seed),
                                  *options])


def scan_digest(outputs) -> str:
    h = hashlib.sha256()
    lines = 0
    for text in outputs:
        h.update(text.encode())
        lines += text.count("\n")
    return f"{lines} lines sha256 {h.hexdigest()}"


def pullback_lines():
    for entry in corpus_list():
        e = entry.expr()
        origin = tuple(range(e.nvars))
        for chart in entry.resolution_charts + tuple(
                BlowupChart(e.nvars, origin, axis) for axis in origin):
            try:
                yield emit_json(pullback(e, chart).to_json())
            except Exception as exc:
                yield f"{type(exc).__name__}: {exc}"


def sampled_lines():
    """One line per arc-symmetry and fibre-lift check: its statuses, or
    the premise it found violated."""
    for entry in corpus_list():
        e = entry.expr()
        for mode in ("float", "rational"):
            exact = mode == "rational"
            for arc in ARCS[entry.nvars]:
                report = arc_symmetry_check(e, parse_arc(arc), exact=exact)
                yield " ".join((entry.name, mode, arc, "|",
                                *report.negative_statuses, "|",
                                *report.positive_statuses))
            for chart in entry.resolution_charts:
                head = f"{entry.name} {mode} {emit_json(chart.to_json())}"
                try:
                    report = fiber_lift_check(e, chart, (0,) * e.nvars,
                                              exact=exact)
                except PremiseViolated as exc:
                    yield f"{head} PremiseViolated: {exc}"
                    continue
                yield " ".join((head, report.base_verdict.status,
                                *(v.status for v in report.fiber_verdicts),
                                str(report.regular_center_samples)))


def lines_digest(lines, noun: str) -> str:
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode() + b"\n")
        count += 1
    return f"{count} {noun} sha256 {h.hexdigest()}"


# The point, status and kStar of every verdict `digest` hashed, in order.
STATUS_LINES: list[str] = []


def digest(verdicts) -> str:
    def lines():
        for v in verdicts:
            STATUS_LINES.append(emit_json([list(v.point), v.status,
                                           v.k_star]))
            yield emit_json(verdict_to_json(v))
    return lines_digest(lines(), "verdicts")


def read_expected() -> dict[str, str]:
    """The `name: ...` lines of EXPECTED, by name."""
    with open(EXPECTED, encoding="utf-8") as f:
        return dict(line.rstrip("\n").split(": ", 1) for line in f
                    if line.strip())


def main() -> None:
    expected = read_expected()
    mismatches = []
    for name, run in (("float", lambda: digest(float_verdicts())),
                      ("rational", lambda: digest(rational_verdicts())),
                      ("status", lambda: lines_digest(STATUS_LINES,
                                                      "verdicts")),
                      ("scan", lambda: scan_digest(scan_outputs())),
                      ("rational-scan", lambda: scan_digest(scan_outputs(
                          RATIONAL_SCAN, RATIONAL_SCAN_STEP))),
                      ("pullback", lambda: lines_digest(pullback_lines(),
                                                        "pullbacks")),
                      ("arc", lambda: lines_digest(arc_outputs(), "runs")),
                      ("corpus", lambda: scan_digest(corpus_outputs())),
                      ("verify", lambda: scan_digest(verify_outputs())),
                      ("sampled", lambda: lines_digest(sampled_lines(),
                                                       "checks"))):
        start = time.perf_counter()
        got = run()
        print(f"{name}: {got}", flush=True)
        print(f"{name}: {time.perf_counter() - start:.2f} s", file=sys.stderr,
              flush=True)
        want = expected.pop(name, "no line")
        if want != got:
            mismatches.append(f"{name}: printed {got}, expected {want}")
    if expected:
        mismatches += [f"{name}: expected, not printed" for name in expected]
    if mismatches:
        sys.exit("\n".join(["digests differ from " + EXPECTED,
                             *mismatches]))


if __name__ == "__main__":
    main()
