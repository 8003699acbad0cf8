"""Detect and certify the non-analyticity locus of arc-analytic functions.

The package composes expressions with polynomial arcs in truncated
Laurent-series arithmetic, reads off directional series coefficients,
tests them for polynomiality by generic interpolation, and examines how
verdicts transform under blow-ups of coordinate subspaces.
"""

from .blowup import BlowupChart, FiberLiftReport, PullbackResult, \
    classify_pullback, fiber_lift_check, make_chart, pullback
from .classify import ANALYTIC_UP_TO, INCONCLUSIVE, NON_ANALYTIC, LojaFit, \
    Verdict, arc_symmetry_check, classify_point, gateaux_coeff, loja_estimate, \
    scan_region
from .corpus import CorpusEntry, corpus_list, lookup
from .errors import ArcanError
from .expr import ANALYTIC, POLE, REMOVABLE_MISMATCH, ArcReport, ArcSpec, Expr, \
    arc_check, eval_arc, eval_point, regular_at
from .homog import HomoPoly, dim_homog, euler_check, fd_reconstruct, \
    interp_fit, monomials, sample_nodes, shrink_bound_check
from .jets import jet_sqrt
from .parser import parse, parse_arc, to_text

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC", "ANALYTIC_UP_TO", "ArcReport", "ArcSpec", "ArcanError",
    "BlowupChart", "CorpusEntry", "Expr", "FiberLiftReport", "HomoPoly",
    "INCONCLUSIVE", "LojaFit", "NON_ANALYTIC",
    "POLE", "PullbackResult", "REMOVABLE_MISMATCH", "Verdict",
    "arc_check", "arc_symmetry_check", "classify_point", "classify_pullback",
    "corpus_list", "dim_homog", "euler_check", "eval_arc", "eval_point",
    "fd_reconstruct", "fiber_lift_check", "gateaux_coeff",
    "interp_fit", "jet_sqrt", "loja_estimate", "lookup", "make_chart",
    "monomials", "parse", "parse_arc", "pullback", "regular_at",
    "sample_nodes", "scan_region",
    "shrink_bound_check", "to_text",
]
