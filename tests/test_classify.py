"""Directional coefficients, the polynomiality ladder, scans, and estimates."""

import itertools
import math
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcan import classify, homog
from arcan.classify import ANALYTIC_UP_TO, DEFAULT_TOL, INCONCLUSIVE, \
    NON_ANALYTIC, Verdict, _ladder, arc_symmetry_check, \
    classify_point, default_order, design, flagged_points, gateaux_coeff, \
    grid_points, loja_estimate, regular_points, scan_region, \
    verdict_to_json
from arcan.cli import emit_json
from arcan.corpus import corpus_list, lookup
from arcan.errors import CapExceeded, PoleAtOrigin
from arcan.expr import Expr, eval_arc
from arcan.homog import HomoPoly, LatticeDesign, canonical_design, \
    dim_homog, gather_matrix
from arcan.parser import parse, parse_arc
from arcan.seeds import derive_seed

from helpers import BEYOND_FLOATS, FRACTIONS, LATTICE, arc_from_coeffs, \
    list_order_result, permuted, permuted_form, qr_residuals, random_arc, \
    random_point, random_polynomial_expr, random_safe_rational_expr, \
    signed_permutation, signed_permutations, trees

F = Fraction

E1 = parse("guard(x^3 / (x^2 + y^2), 0)")
E2 = parse("sqrt(x^4 + y^4)")
E5 = parse("guard(x^3 / (x^2 + y^2), 0)", nvars=3)
INV = parse("guard(1 / (x^2 + y^2), 0)")


class TestGateauxCoeff:
    def test_worked_directional_series(self):
        assert gateaux_coeff(E1, (0, 0), (1, 1), 1) == pytest.approx(0.5)
        assert gateaux_coeff(E1, (0, 0), (1, 1), 0) == 0
        assert gateaux_coeff(E1, (0, 0), (1, 1), 2) == pytest.approx(0.0)

    def test_plain_square(self):
        e = parse("x^2", nvars=2)
        assert gateaux_coeff(e, (0, 0), (1, 0), 2) == pytest.approx(1.0)

    def test_sqrt_coefficient_via_squaring_oracle(self):
        h2 = gateaux_coeff(E2, (0, 0), (1, 1), 2)
        assert h2 ** 2 == pytest.approx(2.0, rel=1e-12)

    def test_pole_raises(self):
        with pytest.raises(PoleAtOrigin):
            gateaux_coeff(INV, (0, 0), (1, 0), 0)

    def test_zeroth_powers_stay_float_or_exact(self):
        e = parse("x^0/y^0")
        h0 = gateaux_coeff(e, (0.5, 0.25), (1.0, 2.0), 0)
        assert type(h0) is float and h0 == 1.0
        exact = gateaux_coeff(e, (F(1, 2), F(1, 4)), (1, 2), 0, exact=True)
        assert exact == 1 and isinstance(exact, (int, F))

    def test_matches_arc_evaluation_exactly(self):
        # cross-module consistency: same jets along the straight arc
        rng = random.Random(21)
        for _ in range(25):
            nvars = rng.randint(1, 3)
            e = random_safe_rational_expr(rng, nvars)
            x = random_point(rng, nvars)
            v = random_point(rng, nvars)
            rows = [[xi, vi] for xi, vi in zip(x, v)]
            jet = eval_arc(e, arc_from_coeffs(rows), order=10)
            for k in range(0, 7):
                assert gateaux_coeff(e, x, v, k, order=10) == jet.taylor_coeff(k)

    def test_homogeneity(self):
        rng = random.Random(22)
        for entry in corpus_list():
            e = entry.expr()
            for _ in range(10):
                x = random_point(rng, entry.nvars)
                v = random_point(rng, entry.nvars)
                lam = rng.uniform(0.25, 2.0) * rng.choice((-1, 1))
                k = rng.randint(0, 4)
                lhs = gateaux_coeff(e, x, tuple(lam * c for c in v), k)
                rhs = lam ** k * gateaux_coeff(e, x, v, k)
                assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


class TestPolyTest:
    """One order's evidence, as the ladder reports it."""

    def test_non_polynomial_first_order(self):
        result = classify_point(E1, (0, 0), k_max=1).evidence[1]
        assert not result.polynomial
        assert result.max_residual > 1e-3

    def test_polynomial_differentials_of_polynomials(self):
        e = parse("x^3 + x * y^2")
        evidence = classify_point(e, (1, 2), k_max=3).evidence
        for k in range(0, 4):
            result = evidence[k]
            assert result.polynomial, f"k={k}: {result.max_residual}"

    def test_sqrt_second_order(self):
        result = classify_point(E2, (0, 0), k_max=2).evidence[2]
        assert not result.polynomial

    def test_pole_reported_as_evidence(self):
        result = classify_point(INV, (0, 0), k_max=1).evidence[0]
        assert not result.polynomial
        assert result.pole_direction is not None
        assert result.max_residual == math.inf

    def test_guarded_value_mismatch_caught_at_order_zero(self):
        # the series germ is x but the assigned value is 3: order 0 must fail
        e = parse("guard((x^2 + y^2) * x / (x^2 + y^2), 3)")
        result = classify_point(e, (0, 0), k_max=1).evidence[0]
        assert not result.polynomial


class TestClassifyPoint:
    def test_flags_first_example_at_origin(self):
        v = classify_point(E1, (0, 0), k_max=4)
        assert v.status == NON_ANALYTIC
        assert v.k_star == 1
        assert v.guard_triggered

    def test_regular_point_passes_all_orders(self):
        v = classify_point(E1, (1, 0), k_max=4)
        assert v.status == ANALYTIC_UP_TO
        assert len(v.evidence) == 5

    def test_oval_denominator_in_exact_mode(self):
        entry = next(e for e in corpus_list() if e.name == "E6")
        v = classify_point(entry.expr(), (F(1), F(0), F(0)), k_max=2,
                           exact=True)
        assert v.status == NON_ANALYTIC
        assert v.k_star == 1

    def test_kmax_must_be_positive(self):
        with pytest.raises(ValueError):
            classify_point(E1, (0, 0), k_max=0)

    def test_shortcut_agrees_with_full_ladder(self):
        rng = random.Random(23)
        points = [random_point(rng, 2) for _ in range(20)]
        assert regular_points(E1, points, False).all()
        assert all(classify_point(E1, x, k_max=3).status
                   == ANALYTIC_UP_TO for x in points)

    def test_analytic_baseline_residuals(self):
        # random polynomial and safe rational functions: every order passes
        # with residuals far below tolerance
        rng = random.Random(24)
        for i in range(50):
            nvars = rng.randint(1, 3)
            e = random_polynomial_expr(rng, nvars) if i % 2 == 0 \
                else random_safe_rational_expr(rng, nvars)
            for j in range(20):
                x = random_point(rng, nvars, box=1.5)
                # the rows a seed of its own once picked for the point
                g, y = permuted(e, x, signed_permutation(derived(i, j), nvars))
                v = classify_point(g, y, k_max=4)
                assert v.status == ANALYTIC_UP_TO
                for ev in v.evidence:
                    assert max(ev.residuals, default=0) <= 1e-9 * ev.scale

    def test_status_does_not_depend_on_the_directions(self):
        # f∘M at x M⁻¹ reads f's jets along the rows U M: every signed
        # permutation M gives the status f has at x
        for entry in corpus_list():
            e = entry.expr()
            points = [tuple(float(c) for c in entry.exact_locus_points[0]),
                      tuple(float(c) for c in entry.regular_points[0])]
            for pt in points:
                status = classify_point(e, pt, k_max=3).status
                statuses = {classify_point(*permuted(e, pt, flip),
                                           k_max=3).status
                            for flip in signed_permutations(entry.nvars)}
                assert statuses == {status}, f"{entry.name} at {pt}"


def derived(i: int, j: int) -> int:
    return 7919 * i + j


# E6 points of its cube (`scan_axes`) and of a slab near the oval that the
# fit-then-validate float test flagged at k_max 10 under the scan seed 0 of
# per-point seeding, derive_seed(0, "scan", i): round-off amplified by the
# fit's Lebesgue factor, by a margin of 1.1 to 9.2.  The probes read the
# jets along the rows that seed's signed permutation picked.
SLAB = ((F(-1, 4), F(13, 4), F(1, 8)), (F(-1), F(1), F(1, 8)),
        (F(1, 16), F(1, 4), F(1, 16)))
FORMER_FALSE_POSITIVES = [
    ("cube", 2642, (F(1, 8), F(-3, 4), F(-1, 8))),
    ("cube", 2661, (F(1, 8), F(-5, 8), F(1, 8))),
    ("cube", 3186, (F(3, 8), -1, F(-1, 8))),
    ("cube", 3188, (F(3, 8), -1, F(1, 8))),
    ("cube", 3202, (F(3, 8), F(-7, 8), F(-1, 4))),
    ("cube", 3458, (F(3, 8), 1, F(-1, 8))),
    ("cube", 3783, (F(5, 8), F(-7, 8), F(1, 8))),
    ("cube", 4090, (F(3, 4), F(-3, 4), F(1, 4))),
    ("slab", 255, (F(1, 8), F(1, 2), F(1, 4))),
    ("slab", 716, (1, F(1, 8), F(1, 16))),
]


class HeldValues:
    """Stands in for a point's float jets: h_k along the rows of
    `design(n, k)`, read as one float array."""

    exact = False

    def __init__(self, n, k, values):
        self.directions = design(n, k)[0]
        self.values = np.array(values, dtype=float)

    def taylor_values(self, k, count):
        return self.values[:count]


class TestLeastSquaresLadder:
    @pytest.mark.parametrize("grid, index, point", FORMER_FALSE_POSITIVES)
    def test_former_false_positives_are_analytic(self, grid, index, point):
        e6 = lookup("E6")
        axes = e6.scan_axes if grid == "cube" else SLAB
        x = grid_points(axes)[index]
        assert x == tuple(float(c) for c in point)
        flip = signed_permutation(derive_seed(0, "scan", index), 3)
        for v in (classify_point(e6.expr(), x, k_max=10),
                  classify_point(*permuted(e6.expr(), x, flip), k_max=10)):
            assert v.status == ANALYTIC_UP_TO
            assert max(ev.margin for ev in v.evidence) < 0.01

    def test_roadmap_false_positive_is_analytic(self):
        e6, x = lookup("E6").expr(), (0.25, 1.0, 0.25)
        assert classify_point(e6, x, k_max=10).status == ANALYTIC_UP_TO
        assert classify_point(*permuted(e6, x, signed_permutation(3, 3)),
                              k_max=10).status == ANALYTIC_UP_TO

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), k=st.integers(0, 12),
           seed=st.integers(0, 2 ** 32), coeff_seed=st.integers(0, 2 ** 32),
           spread=st.sampled_from([1.0, 1e3, 1e-3]))
    def test_polynomial_data_passes_with_a_small_margin(self, n, k, seed,
                                                        coeff_seed, spread):
        # P along the rows U M is the form P∘M along U: the fit gives its
        # coefficients
        rng = random.Random(coeff_seed)
        P = HomoPoly(n, k, tuple(rng.uniform(-spread, spread)
                                 for _ in range(dim_homog(n, k))))
        flip = signed_permutation(seed, n)
        rows = design(n, k)[0].tolist()
        values = HeldValues(n, k, [P([s * u[i] for i, s in flip])
                                   for u in rows])
        result = classify._order_result(values, "", k, 1e-7, None)
        assert result.polynomial
        assert result.margin <= 1e-3
        assert len(result.residuals) == 2 * dim_homog(n, k)
        np.testing.assert_allclose(result.fitted.coeffs,
                                   permuted_form(P, flip).coeffs, rtol=0,
                                   atol=1e-9 * max(map(abs, P.coeffs)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), k=st.integers(0, 10),
           seed=st.integers(0, 2 ** 32), family=st.sampled_from([0, 1]))
    def test_residuals_equal_a_qr_at_the_rotated_directions(self, n, k, seed,
                                                            family):
        # The canonical Q spans what a QR of the permuted directions' own
        # evaluation matrix spans, so non-polynomial data along the rows
        # U M leaves the same residuals.
        flip = signed_permutation(seed, n)
        dirs = [[s * u[i] for i, s in flip] for u in design(n, k)[0].tolist()]
        if family == 0:
            h = [abs(v[0]) ** (k | 1) for v in dirs]
        else:
            h = [math.hypot(*v) ** k / (v[0] + 2) for v in dirs]
        result = classify._order_result(HeldValues(n, k, h), "", k, 1e-7,
                                        None)
        expected = qr_residuals(dirs, h, n, k)
        assert max(result.residuals) == pytest.approx(
            float(expected.max()), rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_float_ladders_read_the_canonical_unit_rows(self, n):
        rows = 2 * dim_homog(n, 6)
        canonical = canonical_design(n).unit(rows).copy()
        directions, shortage = design(n, 6)
        assert shortage == "" and not directions.flags.writeable
        assert directions.tobytes() == canonical.tobytes()
        assert canonical_design(n).unit(rows).tobytes() == canonical.tobytes()
        if n == 1:
            assert canonical.tolist() == [[1.0], [-1.0]]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_signed_permutation_fits_the_permuted_form(self, n):
        # P along the rows U M is the form P∘M along U, for every M: the
        # fit on the canonical rows gives P∘M's coefficients.
        rng = random.Random(n)
        polys = [HomoPoly(n, k, tuple(rng.uniform(-1, 1)
                                      for _ in range(dim_homog(n, k))))
                 for k in range(7)]
        rows = design(n, 6)[0].tolist()
        for flip in signed_permutations(n):
            for k, P in enumerate(polys):
                values = HeldValues(n, 6, [P([s * u[i] for i, s in flip])
                                           for u in rows])
                result = classify._order_result(values, "", k, 1e-7, None)
                assert result.polynomial
                np.testing.assert_allclose(result.fitted.coeffs,
                                           permuted_form(P, flip).coeffs,
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_float_rows_are_the_rational_rows_at_unit_length(self, n):
        # one design for both arithmetics
        rational = np.array(design(n, 8, True)[0], dtype=float)
        unit = rational / np.linalg.norm(rational, axis=1, keepdims=True)
        assert design(n, 8)[0].tobytes() == unit.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_canonical_orders_are_generic(self, n):
        plan = LatticeDesign(n)
        for k in range(11):
            q, r_inv = plan.factors(k)
            assert q.shape == (2 * dim_homog(n, k), dim_homog(n, k))

    def test_top_order_24_in_three_variables_is_analytic(self):
        v = classify_point(parse("x+y+z"), (1, 1, 1), k_max=24)
        assert v.status == ANALYTIC_UP_TO

    def test_repeated_direction_is_inconclusive(self, monkeypatch):
        # a repeated draw is skipped: a stream of one line runs the design
        # short before order 0's two rows
        monkeypatch.setattr(homog, "_DESIGNS", {})
        design.cache_clear()
        monkeypatch.setattr(homog, "lattice_vector", lambda rng, n: (3, 4))
        try:
            v = classify_point(parse("x*y"), (0.5, 0.5), k_max=2)
        finally:
            design.cache_clear()
        assert v.status == INCONCLUSIVE
        assert "has only 1 rows" in v.reason
        assert v.evidence == ()

    def test_design_cache_and_factor_budget(self, monkeypatch):
        assert design(3, 6) is design(3, 6)
        assert design(3, 6, True) is not design(3, 6)
        unbounded = LatticeDesign(3)
        full = [unbounded.factors(k) for k in range(11)]
        blocks = [unbounded.block(k) for k in range(11)]
        budget = sum(q.nbytes + r.nbytes for q, r in full[:6])
        monkeypatch.setattr(homog, "_DESIGNS", {})
        monkeypatch.setattr(homog, "MAX_DESIGN_BYTES", budget)
        for lattice in (canonical_design(3), canonical_design(2)):
            for k in range(11):
                q, r_inv = lattice.factors(k)
                block = lattice.block(k)
                if lattice.n == 3:
                    assert q.tobytes() == full[k][0].tobytes()
                    assert r_inv.tobytes() == full[k][1].tobytes()
                    assert block.tolist() == blocks[k].tolist()
            assert 0 < homog._held_bytes() <= budget
        assert sorted(homog._DESIGNS) == [2, 3]

    def test_integer_blocks_count_at_their_ints_size(self, monkeypatch):
        # A block holds Python ints: its bytes are the array's pointers and
        # every int object.  One beyond the budget is built again per call.
        monkeypatch.setattr(homog, "_DESIGNS", {})
        lattice = canonical_design(3)
        block = lattice.block(10)
        ints = sum(map(sys.getsizeof, block.flat))
        assert ints > block.nbytes
        assert homog._held_bytes() == block.nbytes + ints
        assert lattice.block(10) is block
        monkeypatch.setattr(homog, "MAX_DESIGN_BYTES", homog._held_bytes())
        again = lattice.block(9)
        assert lattice.block(9) is not again
        assert again.tolist() == lattice.block(9).tolist()
        assert homog._held_bytes() == block.nbytes + ints
        assert 9 not in lattice._blocks
        # an exact ladder still decides beyond the budget
        design.cache_clear()
        try:
            v = classify_point(parse("x*y*z"), (1, 1, 1), k_max=9,
                               exact=True)
        finally:
            design.cache_clear()
        assert v.status == ANALYTIC_UP_TO

    def test_held_bytes_count_the_exact_systems(self, monkeypatch):
        # A system keeps A's rows, the lifting matrix, A⁻¹ mod P and the
        # row norms beside its block, all counted in one budget.  Its rows
        # hold the block's own ints, which the block is charged for: the
        # system adds only its own tuples, norms and arrays.
        monkeypatch.setattr(homog, "_DESIGNS", {})
        lattice = canonical_design(3)
        blocks = homog._held_bytes()
        assert blocks == 0
        block = lattice.block(10)
        blocks = homog._held_bytes()
        system = lattice.system(10)
        assert lattice.system(10) is system
        assert all(a is b for row, kept in zip(block.tolist(), system.rows)
                   for a, b in zip(row, kept))
        own = sum(map(sys.getsizeof, (system.rows, system.norms,
                                      *system.rows, *system.norms))) \
            + system.matrix.nbytes + system.inverse.nbytes
        assert system.nbytes == own
        assert homog._held_bytes() == blocks + own
        assert list(lattice._systems) == [10]

    def test_exact_systems_beyond_the_budget_are_built_per_call(
            self, monkeypatch):
        # h_k is a polynomial up to order 6 and not at order 7, whose
        # residuals are then nonzero
        e = parse("guard(x^9 / (x^2 + y^2), 0)", nvars=3)
        point = (0, 0, F(1, 2))
        monkeypatch.setattr(homog, "_DESIGNS", {})
        design.cache_clear()
        try:
            kept = classify_point(e, point, k_max=9, exact=True)
            monkeypatch.setattr(homog, "_DESIGNS", {})
            design.cache_clear()
            lattice = canonical_design(3)
            classify_point(e, point, k_max=5, exact=True)
            held = homog._held_bytes()
            monkeypatch.setattr(homog, "MAX_DESIGN_BYTES", held)
            assert lattice.system(8) is not lattice.system(8)
            beyond = classify_point(e, point, k_max=9, exact=True)
        finally:
            design.cache_clear()
        assert homog._held_bytes() == held
        assert sorted(lattice._systems) == list(range(6))
        assert kept.status == NON_ANALYTIC
        assert any(kept.evidence[-1].residuals)
        assert verdict_to_json(beyond) == verdict_to_json(kept)

    def test_lattice_factors_share_the_code_and_the_budget(self, monkeypatch):
        # Q and R of the lattice rows scaled to unit length, kept while the
        # factors of every n's design fit in one budget
        monkeypatch.setattr(homog, "_DESIGNS", {})
        for k in range(9):
            q, r_inv = canonical_design(3).factors(k)
            rows = np.array(canonical_design(3).rows(2 * dim_homog(3, k)),
                            dtype=float)
            unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
            v = gather_matrix(homog._powers(unit, k), 3, k)
            np.testing.assert_allclose(q @ np.linalg.inv(r_inv), v,
                                       atol=1e-12)
        held = homog._held_bytes()
        assert held > 0
        monkeypatch.setattr(homog, "MAX_DESIGN_BYTES", held)
        canonical_design(2).factors(8)
        assert homog._held_bytes() == held
        assert 8 not in canonical_design(2)._factors

    @pytest.mark.parametrize("n, k_top", [(2, 60), (3, 24)])
    def test_unit_lattice_rows_pass_the_rank_check(self, n, k_top):
        lattice = LatticeDesign(n)
        for k in range(k_top + 1):
            q, _ = lattice.factors(k)
            assert q.shape == (2 * dim_homog(n, k), dim_homog(n, k))

    def test_evidence_reports_threshold_and_margin(self):
        v = classify_point(E1, (0, 0), k_max=3)
        for ev, entry in zip(v.evidence, verdict_to_json(v)["perOrder"]):
            assert ev.threshold == pytest.approx(1e-7 * ev.scale)
            assert entry["threshold"] == ev.threshold
            assert entry["margin"] == ev.margin
            assert (ev.margin <= 1) == (ev.k < v.k_star)
        exact = classify_point(E1, (0, 0), k_max=3, exact=True)
        assert all(isinstance(ev.margin, float) for ev in exact.evidence)


class TestExactLadder:
    """Rational mode on the lattice design, decided exactly."""

    @pytest.mark.parametrize("p", range(31))
    def test_a_scaled_e1_fails_order_one_at_every_scale(self, p):
        # an exact residual fails at any size: no float tolerance applies
        e = parse(f"guard(x^3/(x^2+y^2)/{10 ** p}, 0)")
        v = classify_point(*permuted(e, (0, 0), signed_permutation(p, 2)),
                           k_max=4, exact=True)
        assert (v.status, v.k_star) == (NON_ANALYTIC, 1)
        failing = v.evidence[-1]
        assert failing.threshold == 0 and failing.margin == math.inf
        assert all(isinstance(r, F) for r in failing.residuals)

    def test_exact_orders_have_a_zero_threshold(self):
        v = classify_point(parse("x*y + x^3"), (1, 2), k_max=5,
                           exact=True)
        assert v.status == ANALYTIC_UP_TO
        for entry in verdict_to_json(v)["perOrder"]:
            assert set(entry["residuals"]) == {F(0)}
            assert (entry["threshold"], entry["margin"]) == (0, 0)

    @pytest.mark.parametrize("flip", signed_permutations(2))
    def test_float_valued_orders_keep_the_float_tolerance(self, flip):
        # sqrt(2) is irrational: E2's jets at (1, 1) carry floats, tested by
        # least squares on the lattice rows scaled to unit length.
        v = classify_point(*permuted(E2, (1, 1), flip), k_max=16, exact=True)
        assert v.status == ANALYTIC_UP_TO
        degraded = [ev for ev in v.evidence
                    if any(isinstance(r, float) for r in ev.residuals)]
        assert degraded
        for ev in degraded:
            assert ev.threshold == pytest.approx(1e-7 * ev.scale)
            assert ev.margin < 1e-3

    def test_x_plus_y_plus_z_at_kmax_24_is_conclusive(self):
        # the lattice fit blocks pass condition 1e6 at order 8; only their
        # rank matters
        v = classify_point(parse("x+y+z"), (1, 1, 1), k_max=24, exact=True)
        assert v.status == ANALYTIC_UP_TO

    def test_forty_variables_at_kmax_2_are_conclusive(self):
        e = parse("+".join(f"x{i}" for i in range(1, 41)))
        v = classify_point(e, (1,) * 40, k_max=2, exact=True)
        assert v.status == ANALYTIC_UP_TO

    def test_a_row_shortage_keeps_the_orders_below(self, monkeypatch):
        # a stream of four lines: orders 0 and 1 run, order 2 needs six rows
        lines = itertools.cycle([(1, 2), (2, -1), (3, 1), (1, -3)])
        monkeypatch.setattr(homog, "lattice_vector",
                            lambda rng, n: next(lines))
        monkeypatch.setattr(homog, "_DESIGNS", {})
        design.cache_clear()
        try:
            v = classify_point(parse("x*y"), (1, 2), k_max=3, exact=True)
        finally:
            design.cache_clear()
        assert v.status == INCONCLUSIVE and "only 4 rows" in v.reason
        assert [ev.k for ev in v.evidence] == [0, 1]

    @pytest.mark.parametrize("flip", signed_permutations(2))
    def test_float_valued_orders_pass_through_order_20(self, flip):
        # A square solve on the unit rows passed a condition gate (1e6)
        # only through order 16, and was Inconclusive at order 17.  The
        # least-squares residual does not grow with the rows' condition.
        v = classify_point(*permuted(E2, (1, 1), flip), k_max=20, exact=True)
        assert v.status == ANALYTIC_UP_TO
        assert max(ev.margin for ev in v.evidence) <= 1e-6
        for ev, entry in zip(v.evidence, verdict_to_json(v)["perOrder"]):
            # every order has float values, kept as one float array and
            # printed as floats; k = 0 adds the point value
            assert ev.residuals.dtype == float
            assert all(type(r) is float for r in entry["residuals"])
            assert len(ev.residuals) == 2 * dim_homog(2, ev.k) + (ev.k == 0)

    def test_float_valued_orders_in_three_variables(self):
        # was Inconclusive at order 13 (condition 2.43e6 on the unit rows)
        v = classify_point(parse("sqrt(x^4+y^4+z^4)"), (1, 1, 1), k_max=16,
                           exact=True)
        assert v.status == ANALYTIC_UP_TO
        assert max(ev.margin for ev in v.evidence) <= 1e-6

    def test_the_design_is_shared_and_reads_the_canonical_rows(self):
        rows = canonical_design(3).rows(2 * dim_homog(3, 4))
        directions, shortage = design(3, 4, True)
        assert design(3, 4, True) == (directions, shortage)
        assert directions.tolist() == [list(u) for u in rows]
        assert all(type(c) is int for c in directions.flat)
        assert shortage == "" and not directions.flags.writeable
        assert design(3, 4) is not design(3, 4, True)


def half_binomial_source(top: int) -> str:
    """The sum of binom(1/2, j) x^j over j = 0..top, as exact source: the
    Taylor polynomial of sqrt(1 + x) of degree top."""
    terms, c = [], F(1)
    for j in range(top + 1):
        terms.append(f"({c})*x^{j}")
        c *= (F(1, 2) - j) / (j + 1)
    return " + ".join(terms)


# (exact, tree, point): exact powers of 1100 nest into integers too large
# to build; float trees meet constants and powers beyond the float range
WINDOW_CASES = st.one_of(
    st.tuples(st.just(False), trees(FRACTIONS + [BEYOND_FLOATS]),
              st.tuples(st.sampled_from(LATTICE), st.sampled_from(LATTICE))),
    st.tuples(st.just(True), trees(FRACTIONS, (0, 1, 2, 3)),
              st.tuples(st.sampled_from(LATTICE), st.sampled_from(LATTICE))
              .map(lambda p: tuple(map(F, p)))))


class TestJetWindow:
    """Jets run in the window k_max first, in `order` only where that
    window could change the verdict."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("power", [5, 6])
    def test_a_radicand_vanishing_in_the_window_widens_it(self, power,
                                                          exact):
        # sqrt(1+x) - P11(x) begins with binom(1/2, 12) x^12 < 0: it is
        # zero in the window 10, and its root a zero jet that x^5 or x^6
        # would carry to order 10; the window 24 sees the negative lead.
        e = parse(f"sqrt(sqrt(1+x) - ({half_binomial_source(11)})) "
                  f"* x^{power}")
        lead = F(-29393, 4194304)
        v = classify_point(e, (0,), 10, exact=exact)
        assert v.status == INCONCLUSIVE
        assert v.reason == ("arc leaves the real domain of sqrt: leading "
                            f"coefficient {lead if exact else float(lead)} "
                            "is negative")

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("order", [None, 10, 40])
    @pytest.mark.parametrize("text, point", [
        ("guard(x^3/(x^2+y^2), 0)", (0, 0)),
        ("1/x + y", (0, 0)),
        ("x/(y-y)", (1, 1)),
        ("sqrt(x-x) + y", (0, 0)),
        ("sqrt(x^2+y^2)", (0, 0)),
        ("sqrt(x^4+y^4)", (1, 1)),
        ("x^12/(x^2+y^2)^6", (0, 0)),
        ("x^40/(x^2+y^2)^15", (0, 0)),
        ("1/(y-y+x^30)", (0, 0)),
        ("(x-x)/y^30 + x", (0, 0)),
        ("x*y/(x^2+y^2)^8 * (x^2+y^2)^8", (0, 0)),
    ])
    def test_window_edges_give_the_ladder_at_order(self, text, point, order,
                                                   exact):
        e = parse(text, nvars=2)
        pt = tuple(map(F, point)) if exact else tuple(map(float, point))
        expected = _ladder(e, pt, 10, DEFAULT_TOL,
                           order or default_order(10), exact)
        assert emit_json(verdict_to_json(classify_point(
            e, pt, 10, order=order, exact=exact))) \
            == emit_json(verdict_to_json(expected))

    @settings(max_examples=150, deadline=None)
    @given(WINDOW_CASES, st.integers(1, 3),
           st.sampled_from(signed_permutations(2)))
    def test_the_verdict_is_the_ladder_at_order(self, case, k_max, flip):
        exact, root, point = case
        e, point = permuted(Expr(root, 2), point, flip)
        expected = _ladder(e, point, k_max, DEFAULT_TOL,
                           default_order(k_max), exact)
        assert emit_json(verdict_to_json(classify_point(
            e, point, k_max, exact=exact))) \
            == emit_json(verdict_to_json(expected))


def _verdict(e, x, k_max):
    """A float verdict, or the error it raised."""
    try:
        return classify_point(e, x, k_max)
    except Exception as exc:  # compared, not hidden
        return type(exc), str(exc)


def _printed(v) -> str | tuple:
    """`_verdict`'s verdict as the CLI prints it, or its error."""
    return emit_json(verdict_to_json(v)) if isinstance(v, Verdict) else v


def _solved(v: Verdict) -> list[bool]:
    """Per order, whether its fit's coefficients have been solved."""
    return ["coeffs" in vars(ev.fitted) for ev in v.evidence
            if ev.fitted is not None]


class TestResidualArrays:
    """A float order's h_k and residuals travel as one array, and its fit
    is solved only where read.  The verdict equals, evidence and fitted
    forms compared by value, and prints as the list-based order test's
    (`list_order_result`), which solves every fit at once."""

    @staticmethod
    def assert_prints_as_lists(e, x, k_max):
        arrays = _verdict(e, x, k_max)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(classify, "_order_result", list_order_result)
            lists = _verdict(e, x, k_max)
        assert arrays == lists
        assert _printed(arrays) == _printed(lists)
        return classify_point(e, x, k_max)

    def test_the_ladder_solves_only_the_fit_it_reads(self, monkeypatch):
        # order 0 reads its fit's value at the point; no other order reads
        # its fit until the verdict is printed.  Fresh designs: a form is
        # lazy only on factors the design keeps.
        monkeypatch.setattr(homog, "_DESIGNS", {})
        v = classify_point(lookup("E6").expr(), (0.25, 1.0, 0.25), 10)
        assert _solved(v) == [True] + [False] * 10
        printed = emit_json(verdict_to_json(v))
        assert _solved(v) == [True] * 11
        assert emit_json(verdict_to_json(v)) == printed
        assert all(type(ev.fitted) is HomoPoly
                   for ev in pickle.loads(pickle.dumps(v)).evidence)

    def test_order_zero_carries_the_point_value(self):
        v = self.assert_prints_as_lists(lookup("E6").expr(),
                                        (0.25, 1.0, 0.25), 10)
        assert v.status == ANALYTIC_UP_TO
        for ev in v.evidence:
            assert isinstance(ev.residuals, np.ndarray)
            assert not ev.residuals.flags.writeable
            assert len(ev.residuals) == 2 * dim_homog(3, ev.k) + (ev.k == 0)
            assert ev.worst == max(ev.residuals.tolist())

    def test_order_zero_fails_on_the_point_value(self):
        # the germ is x, the value 3: the point value's residual is the
        # order's largest
        e = parse("guard((x^2 + y^2) * x / (x^2 + y^2), 3)")
        v = self.assert_prints_as_lists(e, (0.0, 0.0), 4)
        assert (v.status, v.k_star, v.residual) == (NON_ANALYTIC, 0, 3.0)
        assert v.evidence[0].residuals[-1] == 3.0

    def test_a_pole_order(self):
        v = self.assert_prints_as_lists(INV, (0.0, 0.0), 4)
        assert (v.status, v.k_star) == (NON_ANALYTIC, 0)
        assert v.evidence[0].pole_direction is not None

    def test_a_rerun_pass(self):
        # the first canonical row of three variables has u_1 + u_3 = 0, so
        # the lanes of x + z at the origin part ways (IrregularBatch) and
        # every direction is rerun alone
        e, x = parse("x + z + y^3", nvars=3), (0.0, 0.0, 0.0)
        assert classify._DesignJets(e, x, 4, design(3, 4)[0]).batch(0) \
            is None
        v = self.assert_prints_as_lists(e, x, 4)
        assert v.status == ANALYTIC_UP_TO

    @pytest.mark.parametrize("text, x, k", [
        ("x*y", (1e200, 1e200), 0),
        ("1/x + y", (1e-40, 0.5), 7)])
    def test_a_non_finite_order(self, text, x, k):
        v = self.assert_prints_as_lists(parse(text, nvars=2), x, 10)
        assert v.status == INCONCLUSIVE
        assert v.reason == (f"order {k}: h_{k} or its residuals overflow the "
                            "float range; --mode rational evaluates rational "
                            "inputs exactly")
        assert len(v.evidence) == k

    @pytest.mark.parametrize("text, x", [
        ("(1/x^30)*x^30 + y", (0.0, 0.5)),
        ("sqrt(x-x) + y", (0.0, 0.0))])
    def test_a_widened_window(self, text, x):
        e = parse(text, nvars=2)
        # the window k_max cannot decide: the ladder runs again in the
        # window `order`
        assert _ladder(e, x, 4, DEFAULT_TOL, 4, False, provisional=True) \
            is None
        v = self.assert_prints_as_lists(e, x, 4)
        assert v.status == ANALYTIC_UP_TO and len(v.evidence) == 5

    @settings(max_examples=80, deadline=None)
    @given(trees(FRACTIONS + [BEYOND_FLOATS]),
           st.tuples(st.sampled_from(LATTICE), st.sampled_from(LATTICE)),
           st.integers(1, 4))
    def test_random_trees(self, root, x, k_max):
        self.assert_prints_as_lists(Expr(root, 2), x, k_max)


class TestOneVariable:
    """A one-variable ladder tests both sides of the point."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("text, k_star", [
        ("sqrt(x^2)", 1), ("guard(x^3/sqrt(x^2), 0)", 2)])
    def test_a_kink_fails_under_both_signs(self, text, k_star, exact):
        e = parse(text)
        for flip in signed_permutations(1):
            v = classify_point(*permuted(e, (0,), flip), k_max=4, exact=exact)
            assert (v.status, v.k_star) == (NON_ANALYTIC, k_star), flip

    @pytest.mark.parametrize("flip", signed_permutations(1))
    def test_full_ladder_scan_flags_the_kink(self, flip):
        g, _ = permuted(parse("sqrt(x^2)"), (0,), flip)
        verdicts = scan_region(g, [(-1, 1, F(1, 2))], shortcut=False)
        assert flagged_points(verdicts) == [(0.0,)]


class TestScanRegion:
    def test_flags_exactly_the_origin(self):
        verdicts = scan_region(E1, [(-1, 1, F(1, 4))] * 2, k_max=4)
        assert flagged_points(verdicts) == [(0.0, 0.0)]

    def test_polynomial_scan_has_no_flags(self):
        verdicts = scan_region(parse("x^2 + y^2"), [(-1, 1, F(1, 2))] * 2,
                               k_max=3)
        assert flagged_points(verdicts) == []

    def test_z_axis_line_in_three_variables(self):
        # scan the line x = y = 0: every point sits on the bad set
        axes = [(0, 0, 1), (0, 0, 1), (-1, 1, F(1, 4))]
        verdicts = scan_region(E5, axes, k_max=3)
        assert len(verdicts) == 9
        assert all(v.status == NON_ANALYTIC for v in verdicts)

    def test_grid_points_counts_are_exact(self):
        pts = grid_points([(-1, 1, 0.125), (-1, 1, 0.125)])
        assert len(pts) == 17 * 17
        assert (0.0, 0.0) in pts

    def test_parallel_scan_matches_serial(self):
        axes = [(-1, 1, F(1, 2))] * 2
        serial = scan_region(E1, axes, k_max=3, jobs=1)
        parallel = scan_region(E1, axes, k_max=3, jobs=2)
        assert [v.status for v in serial] == [v.status for v in parallel]
        assert [v.point for v in serial] == [v.point for v in parallel]


class TestArcSymmetry:
    def test_arc_inside_the_bad_set_is_symmetric(self):
        report = arc_symmetry_check(E5, parse_arc("0, 0, t"), samples=16,
                                    k_max=3)
        assert not report.violation
        assert not report.negative_uniformly_analytic
        assert all(s == NON_ANALYTIC for s in report.positive_statuses)

    def test_transversal_arc_has_finite_exceptions(self):
        report = arc_symmetry_check(E5, parse_arc("t, 0, 0"), samples=16,
                                    k_max=3)
        assert not report.violation
        assert report.negative_uniformly_analytic
        assert report.positive_exceptions == 0

    def test_everywhere_analytic_function(self):
        e = parse("x^2 + y^2 + z^2")
        report = arc_symmetry_check(e, parse_arc("t, t^2, 1 - t"), samples=16,
                                    k_max=3)
        assert not report.violation
        assert report.positive_exceptions == 0

    def test_exception_fraction_small_on_corpus_arcs(self):
        rng = random.Random(26)
        for entry in corpus_list():
            e = entry.expr()
            arc = random_arc(rng, entry.nvars, degree=3)
            report = arc_symmetry_check(e, arc, samples=64, k_max=3)
            if report.negative_uniformly_analytic:
                assert report.positive_exceptions <= 2

    def test_exact_mode_samples_exact_points(self, monkeypatch):
        seen = []
        verdicts = []

        def spy(e, x, *args, **kwargs):
            seen.append(tuple(x))
            verdicts.append(classify_point(e, x, *args, **kwargs))
            return verdicts[-1]
        monkeypatch.setattr(classify, "classify_point", spy)
        report = arc_symmetry_check(E5, parse_arc("0, 0, t"), samples=4,
                                    k_max=2, exact=True)
        assert not report.violation and len(seen) == 8
        assert all(type(c) in (int, F) for pt in seen for c in pt)
        assert {ev.threshold for v in verdicts for ev in v.evidence} == {0}


class TestLojaEstimate:
    def setup_method(self):
        self.samples = [p for p in grid_points([(-1, 1, F(1, 25))] * 2)
                        if p != (0.0, 0.0)]
        self.gamma = [(0.0, 0.0)]

    def test_inverse_square_distance(self):
        fit = loja_estimate(INV, self.gamma, self.samples)
        assert fit.N == 2
        assert fit.C == pytest.approx(1.0, abs=1e-9)

    def test_bounded_ratio(self):
        e4 = parse("guard(x * y / (x^2 + y^2), 0)")
        fit = loja_estimate(e4, self.gamma, self.samples)
        assert fit.N == 0
        assert fit.C == pytest.approx(0.5, abs=1e-12)

    def test_bounded_function_needs_no_decay(self):
        e = parse("x", nvars=2)
        fit = loja_estimate(e, self.gamma, self.samples)
        assert fit.N == 0
        assert fit.C == pytest.approx(1.0, abs=1e-12)  # sup |x| on the grid

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            loja_estimate(INV, self.gamma, self.samples, n_cap=1)

    def test_samples_on_gamma_rejected(self):
        with pytest.raises(ValueError):
            loja_estimate(INV, self.gamma,
                          self.samples + [(0.0, 0.0)])


class TestVerdictJson:
    def test_shape(self):
        doc = verdict_to_json(classify_point(E1, (0, 0), k_max=3))
        assert doc["status"] == NON_ANALYTIC
        assert doc["kStar"] == 1
        assert doc["point"] == [0.0, 0.0]
        assert {e["k"] for e in doc["perOrder"]} == {0, 1}
        assert all("residuals" in e for e in doc["perOrder"])

    def test_inconclusive_reason_serialized(self):
        e = parse("sqrt(x)", nvars=1)
        v = classify_point(e, (0.0,), k_max=2)
        assert v.status == INCONCLUSIVE
        assert "reason" in verdict_to_json(v)
