"""Benchmark arcan's analyticity ladder.

Run from the repository root:

    python3 perfbench/run.py --workload ladder-float --seed 1 --seconds 30 --trace 0

A plain run (``--trace 0``) reports the end-to-end metrics; a traced run
(``--trace 1``) wraps arcan's public functions and reports per-layer counts
and times.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a report with the run environment, the verdict digest and the op
counts.  Both are also written under ``perfbench/out/``.

The program is loaded from ``src/`` of the checkout; the run fails (exit 1,
no result) when it is missing.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import tracing
import workloads

# One BLAS thread: numpy's solves must not fan out across cores and make op
# times depend on scheduling.  Set before numpy is imported.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
SETUP_REPS = 21

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


# --- environment ----------------------------------------------------------------

def git_revision(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(ROOT),
        "seed": seed,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


# --- host speed ---------------------------------------------------------------------

# A shared host's speed drifts by up to half over tens of seconds (other
# tenants share the cores), and process CPU time drifts with it.  So a fixed
# kernel is timed between ops, and each op's time is scaled by the kernel's
# nominal cost over its cost measured next to that op: times are reported
# as they would read on this host at the speed where the kernel takes
# KERNEL_NOMINAL_S.
CALIBRATE_EVERY_S = 0.05
KERNEL_NOMINAL_S = 0.4e-3
KERNEL_NEIGHBOURS = 3


def kernel():
    """Fixed interpreter-bound work: small Fraction arithmetic and tuples.

    Of the kernels tried (float loops, big integers, a numpy SVD), these two
    tracked the speed of both float and rational classify ops best.
    """
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
    rows = [tuple(float(j) * i for j in range(8)) for i in range(120)]
    return acc, rows


class HostClock:
    """Kernel timings taken through a run, to read the host's speed at a time."""

    def __init__(self):
        self.at: list[float] = []
        self.cost: list[float] = []

    def sample(self, force: bool = False) -> None:
        if (not force and self.at
                and time.perf_counter() - self.at[-1] < CALIBRATE_EVERY_S):
            return
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.cost.append(t1 - t0)

    def scale(self, t: float) -> float:
        """Nominal over measured kernel cost, from the samples nearest to t."""
        i = bisect.bisect(self.at, t)
        near = self.cost[max(0, i - KERNEL_NEIGHBOURS):i + KERNEL_NEIGHBOURS]
        return KERNEL_NOMINAL_S / statistics.median(near)


# --- set-up -------------------------------------------------------------------------

def purge_arcan() -> None:
    for name in [m for m in sys.modules if m == "arcan" or m.startswith("arcan.")]:
        del sys.modules[name]


def timed_setup(name: str, seed: int):
    """Import arcan afresh and build the first cycle, SETUP_REPS times.

    numpy stays loaded after the first repetition, so the median measures
    arcan's own import, parsing and op construction.  Each repetition is
    scaled by the host's speed like an op.
    """
    clock = HostClock()
    times = []
    for _ in range(SETUP_REPS):
        purge_arcan()
        clock.sample(force=True)
        t0 = time.perf_counter()
        cycle = workloads.build(name, seed)
        cycle(0)
        t1 = time.perf_counter()
        clock.sample(force=True)
        times.append((t0, t1 - t0))
    return cycle, [d * clock.scale(t + d / 2) for t, d in times]


# --- the measurement loop -------------------------------------------------------------

class Pass:
    """Durations and oracle outcomes of the ops one loop executed.

    Full outcomes are kept for the first cycle only (the digest's records).
    An op whose inputs repeat must repeat its output fingerprint.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.started: list[float] = []
        self.clock = HostClock()
        self.cycle_ops = 0
        self.cycles = 0
        self.first: list = []
        self.statuses: list[str] = []
        self.fingerprints: list[str] = []
        self.seen: dict = {}
        self.hard = 0
        self.nondeterministic = 0
        self.bytes_out = 0

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def count(self, status: str) -> int:
        return self.statuses.count(status)

    def add(self, op, outcome) -> None:
        if self.cycles == 1:
            self.first.append(outcome)
        if self.seen.setdefault(op.key, outcome.fingerprint) != outcome.fingerprint:
            self.nondeterministic += 1
        self.statuses.append(outcome.status)
        self.fingerprints.append(outcome.fingerprint)
        self.hard += outcome.hard


def run_op(op, p: Pass, tracer=None) -> None:
    """Time op.run() alone; the oracle judges the result outside the timing."""
    p.clock.sample()
    if tracer is not None:
        tracer.op = p.attempted
        span = tracer.open("op.run")
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is counted, not fatal
        result, error = None, exc
    else:
        error = None
    p.durations.append(time.perf_counter() - t0)
    p.started.append(t0)
    if tracer is not None:
        tracer.close(span)
    if error is None:
        try:
            outcome = op.judge(result)
        except Exception as exc:  # output the oracle cannot read
            outcome = oracle.raised(exc)
        if op.kind == "cli":
            p.bytes_out += len(result[1])
    else:
        outcome = oracle.raised(error)
    p.add(op, outcome)


def run_ops(cycle, seconds: float, cycles: int | None = None,
            tracer=None, whole: bool = False) -> Pass:
    """Run cycle(0), cycle(1), ...: exactly `cycles` cycles if given, else
    until `seconds` have passed and one cycle is done, stopping mid-cycle
    unless `whole`.
    """
    p = Pass()
    t_start = time.perf_counter()

    def time_up() -> bool:
        return time.perf_counter() - t_start >= seconds

    while cycles is None or p.cycles < cycles:
        if cycles is None and p.cycles >= 1 and time_up():
            break
        ops = cycle(p.cycles)
        p.cycle_ops = len(ops)
        p.cycles += 1
        for op in ops:
            if cycles is None and not whole and p.cycles > 1 and time_up():
                break
            run_op(op, p, tracer)
    p.clock.sample(force=True)
    return p


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary(p: Pass) -> dict:
    attempted = p.attempted
    return {
        "ops": attempted,
        "cycle_ops": p.cycle_ops,
        "cycles": round(attempted / p.cycle_ops, 3),
        "verdict_digest": oracle.digest(o.record for o in p.first),
        "digest_ops": len(p.first),
        "wrong": p.count(oracle.WRONG),
        "inconclusive": p.count(oracle.INCONCLUSIVE),
        "failed": p.count(oracle.RAISED),
        "nondeterministic": p.nondeterministic,
        "error_frac": (p.count(oracle.WRONG) + p.count(oracle.RAISED)) / attempted,
        "inconclusive_frac": p.count(oracle.INCONCLUSIVE) / attempted,
        "hard_failures": p.hard,
    }


def normalized(p: Pass) -> list[float]:
    return [d * p.clock.scale(t + d / 2) for t, d in zip(p.started, p.durations)]


def timing(durations: list[float]) -> dict:
    return {"ops_per_s": len(durations) / sum(durations),
            "op_ms_p50": 1e3 * quantile(durations, 50),
            "op_ms_p90": 1e3 * quantile(durations, 90)}


def plain_metrics(p: Pass, report: dict, setup_times) -> dict:
    report["raw"] = timing(p.durations)
    scaled = timing(normalized(p))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_ms_p50": (scaled["op_ms_p50"], "ms"),
        "op_ms_p90": (scaled["op_ms_p90"], "ms"),
        "ok_frac": (1.0 - report["error_frac"], "ratio"),
        "conclusive_frac": (1.0 - report["inconclusive_frac"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def trace_metrics(tracer, traced: Pass, plain: Pass, report: dict,
                  op_start: int, setup_counts) -> dict:
    n = traced.attempted
    calls, total, own = tracer.self_times(op_start)
    setup_calls, setup_total, _ = tracer.self_times(0, op_start)
    counts = tracer.counts - setup_counts
    validate = tracer.calls_under("homog.poly_eval", "classify.point", op_start)

    def per_op(x):
        return x / n

    def layer_own(layer):
        return sum(v for k, v in own.items() if k.split(".")[0] == layer)

    regular = calls["expr.regular"]
    plain_s = sum(normalized(plain))
    overhead = sum(normalized(traced)) - plain_s
    return {
        "jets.evals": (per_op(calls["jets.eval"]), "count/op"),
        "jets.eval_s": (per_op(total["jets.eval"]), "s/op"),
        "jets.us_per_eval": (1e6 * total["jets.eval"] / calls["jets.eval"]
                             if calls["jets.eval"] else 0.0, "us"),
        "jets.mul_calls": (per_op(counts["jets.mul"]), "count/op"),
        "jets.div_calls": (per_op(counts["jets.div"]), "count/op"),
        "jets.sqrt_calls": (per_op(counts["jets.sqrt"]), "count/op"),
        "homog.cond_calls": (per_op(calls["homog.cond"]), "count/op"),
        "homog.cond_s": (per_op(total["homog.cond"]), "s/op"),
        "homog.fit_calls": (per_op(calls["homog.fit"]), "count/op"),
        "homog.fit_s": (per_op(total["homog.fit"]), "s/op"),
        "homog.validate_calls": (per_op(validate[0]), "count/op"),
        "homog.validate_s": (per_op(validate[1]), "s/op"),
        "homog.fit_accept_frac": (calls["homog.fit"] / calls["homog.cond"]
                                  if calls["homog.cond"] else 0.0, "ratio"),
        "linalg.solves": (per_op(calls["linalg.solve"]), "count/op"),
        "linalg.solve_s": (per_op(total["linalg.solve"]), "s/op"),
        "expr.point_calls": (per_op(calls["expr.point"] + regular), "count/op"),
        "expr.point_s": (per_op(total["expr.point"] + total["expr.regular"]),
                         "s/op"),
        "expr.shortcut_hit_frac": (counts["expr.shortcut_hits"] / regular
                                   if regular else 0.0, "ratio"),
        "seeds.derive_calls": (per_op(counts["seeds.derive"]), "count/op"),
        "parser.calls": (setup_calls["parser.parse"], "count"),
        "parser.s": (setup_total["parser.parse"], "s"),
        "classify.points": (per_op(calls["classify.point"]), "count/op"),
        "classify.self_s": (per_op(layer_own("classify")), "s/op"),
        **{f"classify.verdicts.{s}": (per_op(counts[f"classify.verdicts.{s}"]),
                                      "count/op")
           for s in ("AnalyticUpTo", "NonAnalytic", "Inconclusive")},
        "cli.self_s": (per_op(own["cli.main"]), "s/op"),
        "cli.emit_calls": (per_op(calls["cli.emit"]), "count/op"),
        "cli.emit_s": (per_op(total["cli.emit"]), "s/op"),
        "cli.bytes_out": (per_op(traced.bytes_out), "B/op"),
        "verify.self_s": (per_op(layer_own("verify")), "s/op"),
        "trace.overhead_s": (per_op(overhead), "s/op"),
        "trace.overhead_frac": (overhead / plain_s, "ratio"),
        "oracle.error_frac": (report["error_frac"], "ratio"),
        "oracle.inconclusive_frac": (report["inconclusive_frac"], "ratio"),
    }


# --- entry point ------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "arcan" / "__init__.py").is_file():
        print(f"perfbench: error: no arcan package under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: error: unknown workload {args.workload!r}; choose "
              f"from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1

    if args.trace:
        # Traced whole cycles for half the time, then the same cycles plain:
        # the difference is the tracing overhead.
        workloads.load_arcan()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cycle = workloads.build(args.workload, args.seed)
            op_start, setup_counts = len(tracer), tracer.counts.copy()
            traced = run_ops(cycle, args.seconds / 2, tracer=tracer,
                             whole=True)
        finally:
            tracer.uninstall()
        plain = run_ops(cycle, 0, cycles=traced.cycles)
        p = traced
    else:
        cycle, setup_times = timed_setup(args.workload, args.seed)
        p = run_ops(cycle, args.seconds)

    report = summary(p)
    if args.trace:
        report["nondeterministic"] += sum(
            a != b for a, b in zip(traced.fingerprints, plain.fingerprints))
        metrics = trace_metrics(tracer, traced, plain, report, op_start,
                                setup_counts)
    else:
        report["setup_s_reps"] = setup_times
        metrics = plain_metrics(p, report, setup_times)
    correct = report["hard_failures"] == 0 and report["nondeterministic"] == 0
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed), **report}
    result = {"correct": correct, "attempted": p.attempted,
              "failed": report["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{stem}.csv.gz")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
