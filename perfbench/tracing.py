"""Traced runs: spans and counts recorded around arcan's public functions.

The tracer replaces functions at the sites where arcan modules import
them (``arcan.classify.eval_jets``, ``arcan.homog.solve_exact``, ...), so
nothing under ``src/`` changes.  A span is ``(name, start, end, parent,
op)``; spans live in memory and are written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.
``LaurentJet`` arithmetic and seed derivation are counted, not timed: they
run too often for a span each.

Span names are ``<layer>.<what>``; the layer is the arcan module the
wrapped function belongs to (``jets.eval`` is the top-level ``eval_jets``
call made by the classifier).
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name): functions wrapped where they are imported.
SPAN_SITES = (
    ("arcan.classify", "eval_jets", "jets.eval"),
    ("arcan.classify", "condition_estimate", "homog.cond"),
    ("arcan.classify", "interp_fit", "homog.fit"),
    ("arcan.classify", "regular_at", "expr.regular"),
    ("arcan.classify", "eval_point_flagged", "expr.point"),
    ("arcan.classify", "classify_point", "classify.point"),
    ("arcan.classify", "grid_points", "classify.grid"),
    ("arcan.homog", "condition_estimate", "homog.cond"),
    ("arcan.homog", "solve_exact", "linalg.solve"),
    ("arcan.verify", "classify_point", "classify.point"),
    ("arcan.verify", "scan_region", "classify.scan"),
    ("arcan.verify", "grid_points", "classify.grid"),
    ("arcan.verify", "interp_fit", "homog.fit"),
    ("arcan.verify", "sample_nodes", "homog.sample"),
    ("arcan.verify", "random_poly", "homog.random_poly"),
    ("arcan.verify", "verify_entry", "verify.entry"),
    ("arcan.verify", "check_binoms", "verify.identity"),
    ("arcan.verify", "check_euler", "verify.identity"),
    ("arcan.verify", "check_interp_roundtrip", "verify.identity"),
    ("arcan.cli", "main", "cli.main"),
    ("arcan.cli", "parse", "parser.parse"),
    ("arcan.cli", "verify_corpus", "verify.corpus"),
    ("arcan.cli", "emit_json", "cli.emit"),
    ("arcan.corpus", "parse", "parser.parse"),
    ("arcan.parser", "parse", "parser.parse"),
)
# (module, attribute, counter): functions only counted.
COUNT_SITES = (
    ("arcan.expr", "jet_sqrt", "jets.sqrt"),
    ("arcan.classify", "derive_seed", "seeds.derive"),
    ("arcan.homog", "derive_seed", "seeds.derive"),
    ("arcan.verify", "derive_seed", "seeds.derive"),
    ("arcan.cli", "derive_seed", "seeds.derive"),
)
# (module, class, method, span name or counter)
METHOD_SPANS = (("arcan.homog", "HomoPoly", "__call__", "homog.poly_eval"),)
METHOD_COUNTS = (("arcan.jets", "LaurentJet", "__mul__", "jets.mul"),
                 ("arcan.jets", "LaurentJet", "__truediv__", "jets.div"))

# emit_json recurses through its module global: only the outer call is a span.
TOP_LEVEL_ONLY = "cli.emit"


class Tracer:
    """Records spans and counts while installed; restores arcan on removal.

    Spans are stored column-wise in typed arrays (a scan op opens thousands),
    span names as indices into `names`; an open span's end is NaN.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_of = array("q")
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[tuple[int, str]] = []
        self._undo: list = []

    def __len__(self) -> int:
        return len(self.start)

    # --- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.start)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(math.nan)
        self._stack.append((idx, name))
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        tracer = self
        top_only = name == TOP_LEVEL_ONLY

        def traced(*args, **kwargs):
            if top_only and tracer._stack and tracer._stack[-1][1] == name:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._observe(name, result)
            return result
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _observe(self, name: str, result) -> None:
        if name == "classify.point":
            self.counts["classify.verdicts." + result.status] += 1
        elif name == "expr.regular" and result:
            self.counts["expr.shortcut_hits"] += 1

    # --- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        mod = sys.modules.__getitem__
        for module, attr, name in SPAN_SITES:
            owner = mod(module)
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        for module, attr, name in COUNT_SITES:
            owner = mod(module)
            self._patch(owner, attr, self._count(name, getattr(owner, attr)))
        for module, cls, meth, name in METHOD_SPANS:
            owner = getattr(mod(module), cls)
            self._patch(owner, meth, self._span(name, getattr(owner, meth)))
        for module, cls, meth, name in METHOD_COUNTS:
            owner = getattr(mod(module), cls)
            self._patch(owner, meth, self._count(name, getattr(owner, meth)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- analysis ---------------------------------------------------------------

    def spans(self, since: int = 0, until: int | None = None):
        """(index, name, start, end, parent, op) of spans[since:until]."""
        until = len(self) if until is None else until
        for i in range(since, until):
            yield (i, self.names[self.name_id[i]], self.start[i], self.end[i],
                   self.parent[i], self.op_of[i])

    def self_times(self, since: int = 0, until: int | None = None
                   ) -> tuple[Counter, Counter, Counter]:
        """Per span name over spans[since:until]: calls, seconds, self seconds."""
        child = array("d", bytes(8 * len(self)))
        for _, _, start, end, parent, _ in self.spans(since, until):
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        for i, name, start, end, _, _ in self.spans(since, until):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return calls, total, own

    def calls_under(self, name: str, parent_name: str, since: int = 0
                    ) -> tuple[int, float]:
        """Calls and seconds of `name` spans opened directly inside `parent_name`."""
        calls, seconds = 0, 0.0
        for _, span, start, end, parent, _ in self.spans(since):
            if (span == name and parent >= 0
                    and self.names[self.name_id[parent]] == parent_name):
                calls += 1
                seconds += end - start
        return calls, seconds

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start,end,parent,op\n")
            for _, name, start, end, parent, op in self.spans():
                f.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
