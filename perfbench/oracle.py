"""Ground-truth oracle: judges each op's output against the corpus.

Every op ends in exactly one outcome:

- ``correct``: the output agrees with ground truth;
- ``wrong``: a verdict contradicts ``entry.locus.contains``, an exact
  identity left a nonzero residual, or ``arcan corpus`` reported a mismatch
  (exit 2);
- ``inconclusive``: the program declined to decide (an ``Inconclusive``
  verdict), without contradicting ground truth;
- ``raised``: the op raised, the CLI exited 1, or its output was malformed.

Wrong verdicts are measured, not fatal: the program has known
seed-dependent verdict defects (float round-off false positives, parallel
lattice directions in exact mode), and the benchmark exists to show them.
What makes a run incorrect is listed in ``Outcome.hard``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

CORRECT = "correct"
WRONG = "wrong"
INCONCLUSIVE = "inconclusive"
RAISED = "raised"

NON_ANALYTIC = "NonAnalytic"
INCONCLUSIVE_STATUS = "Inconclusive"


@dataclass(frozen=True)
class Outcome:
    """The oracle's judgement of one op.

    ``record`` is what the verdict digest hashes: ``(status, kStar)`` for a
    verdict, or its analogue for identities and CLI commands.
    ``fingerprint`` is compared across repetitions of the same op, so a
    repeated op that prints anything different is caught.  ``hard`` marks
    an outcome that makes the whole run incorrect: an exact identity with a
    nonzero residual, malformed output, or an exception.
    """

    status: str
    record: tuple
    fingerprint: str
    hard: bool = False


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def raised(exc: BaseException) -> Outcome:
    name = type(exc).__name__
    return Outcome(RAISED, (RAISED, name), _sha(f"{name}: {exc}"), hard=True)


def _status_outcome(status: str, on_locus: bool) -> str:
    if status == INCONCLUSIVE_STATUS:
        return INCONCLUSIVE
    return CORRECT if (status == NON_ANALYTIC) == on_locus else WRONG


def judge_verdict(verdict, on_locus: bool) -> Outcome:
    """A Verdict from classify_point, against locus membership of its point."""
    status = _status_outcome(verdict.status, on_locus)
    record = (verdict.status, verdict.k_star)
    return Outcome(status, record,
                   _sha(repr((verdict.status, verdict.k_star, verdict.residual,
                              verdict.reason))))


def judge_identity(report) -> Outcome:
    """An IdentityReport from an exact trial: the residual must be exactly 0."""
    exact_zero = report.worst_residual == 0 and report.passed
    status = CORRECT if exact_zero else WRONG
    return Outcome(status, ("Identity", report.identity, exact_zero),
                   _sha(repr(report.worst_residual)), hard=not exact_zero)


def _malformed(what: str, out: str) -> Outcome:
    return Outcome(RAISED, (RAISED, what), _sha(out), hard=True)


def judge_corpus(rc: int, out: str) -> Outcome:
    """``arcan corpus <E>``: exit 0 with ``"summary": "ok"``; exit 2 is wrong."""
    if rc not in (0, 2):
        return _malformed(f"exit {rc}", out)
    try:
        docs = [json.loads(line) for line in out.splitlines()]
    except json.JSONDecodeError:
        return _malformed("bad json", out)
    if not docs or "summary" not in docs[-1]:
        return _malformed("no summary", out)
    summary = docs[-1]["summary"]
    entries_ok = all(d.get("passed") is True for d in docs[:-1])
    ok = rc == 0 and summary == "ok" and entries_ok
    if not ok and not (rc == 2 and summary == "mismatch"):
        return _malformed("inconsistent summary", out)
    return Outcome(CORRECT if ok else WRONG, ("corpus", rc, summary), _sha(out))


@lru_cache(maxsize=None)
def grid(axes: tuple) -> list[tuple]:
    """Row-major lattice of per-axis (lo, hi, step), endpoints included.

    The oracle's own copy of the grid the CLI documents, built in exact
    arithmetic and converted to floats, to check every scan line's point.
    """
    values = []
    for lo, hi, step in axes:
        lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
        count = int((hi - lo) / step) + 1
        values.append([float(lo + i * step) for i in range(count)])
    return list(itertools.product(*values))


def judge_scan(rc: int, out: str, points, locus) -> Outcome:
    """``arcan scan``: one JSON line per grid point, in grid order.

    Each line's status is judged like a single verdict; the op is wrong if
    any line is wrong, else inconclusive if any line is inconclusive.
    """
    if rc != 0:
        return _malformed(f"exit {rc}", out)
    lines = out.splitlines()
    if len(lines) != len(points):
        return _malformed(f"{len(lines)} lines for {len(points)} points", out)
    statuses = []
    worst = CORRECT
    for i, (line, pt) in enumerate(zip(lines, points)):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            return _malformed("bad json", out)
        if doc.get("index") != i or tuple(doc.get("point", ())) != tuple(pt):
            return _malformed(f"line {i} out of grid order", out)
        k_star = doc.get("kStar")
        statuses.append((doc["status"], k_star))
        s = _status_outcome(doc["status"], locus.contains(pt))
        if s == WRONG or (s == INCONCLUSIVE and worst == CORRECT):
            worst = s
    return Outcome(worst, ("scan", tuple(statuses)), _sha(out))


def digest(records) -> str:
    """Stable hash of an ordered list of op records."""
    text = json.dumps([list(r) for r in records], default=str)
    return _sha(text)
