#!/usr/bin/env python3
"""Digest of the float full ladder's output over the corpus scan grids.

Runs `classify_point` in float mode with the shortcut off at k_max 10 at
every point of every corpus entry's `scan_axes` grid (E1–E6, 10,982
points), under two seeds per point: `derive_seed(s, "scan", i)` for
s = 0, 1 and i the point's grid index.  Prints the number of verdicts and
the SHA-256 of their `emit_json(verdict_to_json(...))` lines, each ended
by a newline.  Equal digests on two commits mean byte-identical float
output, residual digits included.  Takes about a minute on a 2-core
x86_64 machine:

    PYTHONPATH=src python scripts/ladder_digest.py
"""

import hashlib

from arcan.classify import classify_point, grid_points, verdict_to_json
from arcan.cli import emit_json
from arcan.corpus import corpus_list
from arcan.seeds import derive_seed

K_MAX = 10
SCAN_SEEDS = (0, 1)


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for entry in corpus_list():
        e = entry.expr()
        for i, x in enumerate(grid_points(entry.scan_axes)):
            for s in SCAN_SEEDS:
                v = classify_point(e, x, K_MAX, seed=derive_seed(s, "scan", i))
                digest.update(emit_json(verdict_to_json(v)).encode() + b"\n")
                count += 1
    print(f"{count} verdicts sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
