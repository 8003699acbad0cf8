#!/usr/bin/env python3
"""Count wrong verdicts of the full ladder, float and rational, on the corpus.

Runs `classify_point` (shortcut off, k_max 10) at every point of every
corpus entry's `scan_axes` grid and of an E6 slab near the oval
(x in [-1/4, 13/4] step 1/8, y in [-1, 1] step 1/8, z in [1/16, 1/4] step
1/16), under seeds 0-3: 51,816 points.  It does so twice: with per-point
seeds `derive_seed(seed, "scan", i)` (i the grid index), and with the seed
itself shared by every point, as `arcan scan` runs them.  Each verdict is
judged against the entry's locus: a NonAnalytic verdict off the locus is
false, any other verdict on it is missed.

Prints the counts by seeding, grid and kind, and every wrong point, and per
seeding how far apart right verdicts stay from the threshold: the largest
margin (residual over threshold) of a right AnalyticUpTo verdict, and the
smallest margin of the failing order of a right NonAnalytic verdict (inf
for a pole).

Then it sweeps rational mode: every corpus exact-locus point (which must be
NonAnalytic) and regular point (AnalyticUpTo), among them E5 (1, 0, 0) and
E6 (1/2, 0, 0), at k_max 8 and 10, under every signed permutation of the
coordinates, the whole set of designs a seed can pick: 584 cases per k_max.
It prints the same counts and margins.  Exits 1 on any false or missed
verdict, or any Inconclusive rational one.  Takes several minutes on one
core:

    PYTHONPATH=src python scripts/sweep_false_verdicts.py [--jobs N]
"""

import argparse
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from arcan.classify import ANALYTIC_UP_TO, INCONCLUSIVE, NON_ANALYTIC, \
    classify_point, grid_points
from arcan.corpus import corpus_list, lookup
from arcan.homog import signed_permutation
from arcan.seeds import derive_seed

K_MAX = 10
RATIONAL_K_MAX = (8, 10)
SEEDS = (0, 1, 2, 3)
SLAB = ((Fraction(-1, 4), Fraction(13, 4), Fraction(1, 8)),
        (Fraction(-1), Fraction(1), Fraction(1, 8)),
        (Fraction(1, 16), Fraction(1, 4), Fraction(1, 16)))
SEEDINGS = ("per-point", "shared")


def grids():
    """(label, corpus entry name, axes) of every grid the sweep covers."""
    out = [(entry.name, entry.name, entry.scan_axes) for entry in corpus_list()]
    return out + [("E6-slab", "E6", SLAB)]


def sweep(task):
    """Wrong and Inconclusive verdicts of one grid under one seed and
    seeding, and the margins of its right ones."""
    label, name, axes, seed, seeding = task
    entry = lookup(name)
    e = entry.expr()
    wrong, inconclusive = [], 0
    analytic_margin, failing_margin = 0.0, math.inf
    points = grid_points(axes)
    for i, pt in enumerate(points):
        pseed = derive_seed(seed, "scan", i) if seeding == "per-point" else seed
        v = classify_point(e, pt, K_MAX, seed=pseed, shortcut=False)
        on_locus = entry.locus.contains(pt)
        if v.status == INCONCLUSIVE:
            inconclusive += 1
        if (v.status == NON_ANALYTIC) != on_locus:
            kind = "missed" if on_locus else "false"
            wrong.append((kind, i, pt, v.status, v.k_star))
        elif v.status == ANALYTIC_UP_TO:
            analytic_margin = max([analytic_margin]
                                  + [ev.margin for ev in v.evidence])
        elif v.status == NON_ANALYTIC:
            failing_margin = min(failing_margin, v.evidence[-1].margin)
    return (label, seed, seeding, len(points), wrong, inconclusive,
            analytic_margin, failing_margin)


def permutation_seeds(n):
    """One seed per signed permutation of n coordinates: 2^n n! seeds."""
    found = {}
    seed = 0
    while len(found) < 2 ** n * math.factorial(n):
        found.setdefault(signed_permutation(seed, n), seed)
        seed += 1
    return list(found.values())


def sweep_rational(task):
    """The same tally for one corpus entry's exact-locus and regular points
    in rational mode at one k_max, under every signed permutation."""
    name, k_max = task
    entry = lookup(name)
    e = entry.expr()
    cases = [(pt, True) for pt in entry.exact_locus_points] \
        + [(pt, False) for pt in entry.regular_points]
    wrong, inconclusive = [], 0
    analytic_margin, failing_margin = 0.0, math.inf
    seeds = permutation_seeds(entry.nvars)
    for pt, on_locus in cases:
        for seed in seeds:
            v = classify_point(e, pt, k_max, seed=seed, exact=True)
            if v.status == INCONCLUSIVE:
                inconclusive += 1
            if (v.status == NON_ANALYTIC) != on_locus:
                kind = "missed" if on_locus else "false"
                wrong.append((kind, seed, pt, v.status, v.k_star))
            elif v.status == ANALYTIC_UP_TO:
                analytic_margin = max([analytic_margin]
                                      + [ev.margin for ev in v.evidence])
            elif v.status == NON_ANALYTIC:
                failing_margin = min(failing_margin, v.evidence[-1].margin)
    return (name, k_max, len(cases) * len(seeds), wrong, inconclusive,
            analytic_margin, failing_margin)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    args = parser.parse_args(argv)
    tasks = [(label, name, axes, seed, seeding) for seeding in SEEDINGS
             for seed in SEEDS for label, name, axes in grids()]
    totals = {s: {"points": 0, "false": 0, "missed": 0, "inconclusive": 0}
              for s in SEEDINGS + ("rational",)}
    margins = {s: [0.0, math.inf] for s in totals}
    started = time.perf_counter()
    with ProcessPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        for label, seed, seeding, count, wrong, inconclusive, analytic, \
                failing in pool.map(sweep, tasks):
            total = totals[seeding]
            total["points"] += count
            total["inconclusive"] += inconclusive
            margins[seeding][0] = max(margins[seeding][0], analytic)
            margins[seeding][1] = min(margins[seeding][1], failing)
            for kind, i, pt, status, k_star in wrong:
                total[kind] += 1
                print(f"{seeding} seed {seed} {label} i={i} "
                      f"{tuple(map(str, pt))}: {kind} {status}({k_star})")
        rational = [(entry.name, k_max) for k_max in RATIONAL_K_MAX
                    for entry in corpus_list()]
        for name, k_max, count, wrong, inconclusive, analytic, failing \
                in pool.map(sweep_rational, rational):
            total = totals["rational"]
            total["points"] += count
            total["inconclusive"] += inconclusive
            margins["rational"][0] = max(margins["rational"][0], analytic)
            margins["rational"][1] = min(margins["rational"][1], failing)
            for kind, seed, pt, status, k_star in wrong:
                total[kind] += 1
                print(f"rational k_max {k_max} seed {seed} {name} "
                      f"{tuple(map(str, pt))}: {kind} {status}({k_star})")
    for seeding, total in totals.items():
        print(f"{seeding}: " + ", ".join(f"{v} {k}" for k, v in total.items()))
        analytic, failing = margins[seeding]
        print(f"{seeding}: largest AnalyticUpTo margin {analytic:.3g}, "
              f"smallest NonAnalytic failing margin {failing:.3g}")
    print(f"{time.perf_counter() - started:.0f} s")
    bad = sum(t["false"] + t["missed"] for t in totals.values()) \
        + totals["rational"]["inconclusive"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
