#!/usr/bin/env python3
"""Digests of the full ladder's output, float and rational, on the corpus.

Float: runs `classify_point` in float mode with the shortcut off at k_max
10 at every point of every corpus entry's `scan_axes` grid (E1–E6, 10,982
points), under two seeds per point: `derive_seed(s, "scan", i)` for
s = 0, 1 and i the point's grid index.  Rational: runs it in rational mode
at every corpus exact-locus and regular point (23 points), at k_max 8 and
10, under seeds 0, 1 and 2.  Prints, per arithmetic, the number of
verdicts and the SHA-256 of their `emit_json(verdict_to_json(...))` lines,
each ended by a newline.  Equal digests on two commits mean byte-identical
output, residual digits included.  Each half's wall time, in-process, goes
to stderr.  Takes about a minute and a half on a 2-core x86_64 machine:

    PYTHONPATH=src python scripts/ladder_digest.py
"""

import hashlib
import sys
import time

from arcan.classify import classify_point, grid_points, verdict_to_json
from arcan.cli import emit_json
from arcan.corpus import corpus_list
from arcan.seeds import derive_seed

K_MAX = 10
SCAN_SEEDS = (0, 1)
RATIONAL_K_MAX = (8, 10)
RATIONAL_SEEDS = (0, 1, 2)


def float_verdicts():
    for entry in corpus_list():
        e = entry.expr()
        for i, x in enumerate(grid_points(entry.scan_axes)):
            for s in SCAN_SEEDS:
                yield classify_point(e, x, K_MAX, seed=derive_seed(s, "scan", i))


def rational_verdicts():
    for entry in corpus_list():
        e = entry.expr()
        for x in entry.exact_locus_points + entry.regular_points:
            for k_max in RATIONAL_K_MAX:
                for seed in RATIONAL_SEEDS:
                    yield classify_point(e, x, k_max, seed=seed, exact=True)


def digest(verdicts) -> str:
    h = hashlib.sha256()
    count = 0
    for v in verdicts:
        h.update(emit_json(verdict_to_json(v)).encode() + b"\n")
        count += 1
    return f"{count} verdicts sha256 {h.hexdigest()}"


def main() -> None:
    for name, verdicts in (("float", float_verdicts),
                           ("rational", rational_verdicts)):
        start = time.perf_counter()
        print(f"{name}: {digest(verdicts())}", flush=True)
        print(f"{name}: {time.perf_counter() - start:.2f} s", file=sys.stderr,
              flush=True)


if __name__ == "__main__":
    main()
