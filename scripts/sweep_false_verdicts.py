#!/usr/bin/env python3
"""Count wrong verdicts of the full ladder, float and rational, on the corpus.

Both arithmetics read one canonical design per n, as it is: rational
ladders its integer rows, float ladders those rows scaled to unit length.
To see how verdicts depend on the directions, this sweeps all 2ⁿ·n!
signed permutations M of the coordinates: it classifies f∘M at x M⁻¹
(`tests/helpers.permuted`), whose jets along the rows U are f's along
U M, and judges the verdict as f's at x.

Float: runs `classify_point` (the full ladder, k_max 10) at every point of
every corpus entry's `scan_axes` grid and of an E6 slab near the oval
(x in [-1/4, 13/4] step 1/8, y in [-1, 1] step 1/8, z in [1/16, 1/4] step
1/16), under every signed permutation: 12,954 points, 575,552 verdicts.
Rational: every corpus exact-locus point (which must be NonAnalytic) and
regular point (AnalyticUpTo), among them E5 (1, 0, 0) and E6 (1/2, 0, 0),
at k_max 8, 10 and 12, under every signed permutation: 584 cases per
k_max; and E2's points at k_max 20 (8 permutations).  Orders with float
values (an irrational `sqrt`, as at E2 (1, 1)) take the float ladders'
least-squares test on the unit rows; k_max 20 checks them past order 16,
where a square solve on the first half of those rows would exceed
condition 1e6.

Each verdict is judged against the entry's locus: a NonAnalytic verdict off
the locus is false, any other verdict on it is missed.  Prints every wrong
verdict, the counts per arithmetic, and how far apart right verdicts stay
from the threshold: the largest margin (residual over threshold) of a right
AnalyticUpTo verdict, and the smallest margin of the failing order of a
right NonAnalytic verdict (inf for a pole).  An order whose values are all
exact has threshold 0 and margin 0 (pass) or inf (fail), so the rational
margins other than 0 and inf come from orders with float values (an
irrational `sqrt`).  Exits 1 on any false, missed or Inconclusive
verdict.  Needs the tests' dependencies (`tests/helpers.py` imports
hypothesis).  Takes about 5 minutes with 2 workers on a 2-core x86_64
machine:

    PYTHONPATH=src python scripts/sweep_false_verdicts.py --jobs 2
"""

import argparse
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from arcan.classify import ANALYTIC_UP_TO, INCONCLUSIVE, NON_ANALYTIC, \
    classify_point, grid_points
from arcan.corpus import corpus_list, lookup

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from helpers import permuted, signed_permutations  # noqa: E402

K_MAX = 10
RATIONAL_K_MAX = (8, 10, 12)
# (corpus entry, k_max) of the rational half's one deeper ladder
DEEP_RATIONAL = ("E2", 20)
SLAB = ((Fraction(-1, 4), Fraction(13, 4), Fraction(1, 8)),
        (Fraction(-1), Fraction(1), Fraction(1, 8)),
        (Fraction(1, 16), Fraction(1, 4), Fraction(1, 16)))


def grids():
    """(label, corpus entry name, axes) of every grid the float sweep covers."""
    out = [(entry.name, entry.name, entry.scan_axes) for entry in corpus_list()]
    return out + [("E6-slab", "E6", SLAB)]


class Tally:
    """Verdict counts of one task, and the margins of its right verdicts."""

    def __init__(self):
        self.count, self.inconclusive, self.wrong = 0, 0, []
        self.analytic_margin, self.failing_margin = 0.0, math.inf

    def judge(self, v, on_locus, where):
        self.count += 1
        if v.status == INCONCLUSIVE:
            self.inconclusive += 1
            print(f"{where}: Inconclusive ({v.reason})", flush=True)
        if (v.status == NON_ANALYTIC) != on_locus:
            kind = "missed" if on_locus else "false"
            self.wrong.append(kind)
            print(f"{where}: {kind} {v.status}({v.k_star})", flush=True)
        elif v.status == ANALYTIC_UP_TO:
            self.analytic_margin = max([self.analytic_margin]
                                       + [ev.margin for ev in v.evidence])
        elif v.status == NON_ANALYTIC:
            self.failing_margin = min(self.failing_margin,
                                      v.evidence[-1].margin)


def sweep_float(task):
    """The tally of one grid under one signed permutation."""
    label, name, axes, flip = task
    entry = lookup(name)
    e = entry.expr()
    tally = Tally()
    for i, pt in enumerate(grid_points(axes)):
        v = classify_point(*permuted(e, pt, flip), K_MAX)
        tally.judge(v, entry.locus.contains(pt),
                    f"float M {flip} {label} i={i} {tuple(map(str, pt))}")
    return "float", tally


def sweep_rational(task):
    """The tally of one corpus entry's exact-locus and regular points in
    rational mode at one k_max, under every signed permutation."""
    name, k_max = task
    entry = lookup(name)
    e = entry.expr()
    cases = [(pt, True) for pt in entry.exact_locus_points] \
        + [(pt, False) for pt in entry.regular_points]
    tally = Tally()
    for pt, on_locus in cases:
        for flip in signed_permutations(entry.nvars):
            v = classify_point(*permuted(e, pt, flip), k_max, exact=True)
            tally.judge(v, on_locus, f"rational k_max {k_max} M {flip} "
                                     f"{name} {tuple(map(str, pt))}")
    return "rational", tally


def run(task):
    return sweep_float(task) if len(task) == 4 else sweep_rational(task)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    args = parser.parse_args(argv)
    tasks = [(label, name, axes, flip) for label, name, axes in grids()
             for flip in signed_permutations(lookup(name).nvars)]
    tasks += [(entry.name, k_max) for k_max in RATIONAL_K_MAX
              for entry in corpus_list()] + [DEEP_RATIONAL]
    totals = {kind: Tally() for kind in ("float", "rational")}
    started = time.perf_counter()
    with ProcessPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        for kind, tally in pool.map(run, tasks):
            total = totals[kind]
            total.count += tally.count
            total.inconclusive += tally.inconclusive
            total.wrong += tally.wrong
            total.analytic_margin = max(total.analytic_margin,
                                        tally.analytic_margin)
            total.failing_margin = min(total.failing_margin,
                                       tally.failing_margin)
    for kind, total in totals.items():
        print(f"{kind}: {total.count} points, "
              f"{total.wrong.count('false')} false, "
              f"{total.wrong.count('missed')} missed, "
              f"{total.inconclusive} inconclusive")
        print(f"{kind}: largest AnalyticUpTo margin "
              f"{total.analytic_margin:.3g}, smallest NonAnalytic failing "
              f"margin {total.failing_margin:.3g}")
    print(f"{time.perf_counter() - started:.0f} s")
    bad = sum(len(t.wrong) + t.inconclusive for t in totals.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
