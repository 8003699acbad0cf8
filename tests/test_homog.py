"""Homogeneous polynomial space, interpolation, and the two identities."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from arcan import classify, homog
from arcan.errors import GenericityFailure, PremiseViolated
from arcan.homog import HomoPoly, LatticeDesign, _powers, canonical_design, \
    condition_estimate, dim_homog, euler_check, evaluation_matrix, \
    fd_reconstruct, gather_matrix, interp_fit, monomials, random_poly, \
    sample_nodes, shrink_bound_check
from arcan.parser import parse
from arcan.verify import check_interp_roundtrip

from helpers import fraction_sum_derivative, fraction_sum_value, \
    permuted, permuted_form, permuted_rows, seeded_exact_fit, \
    signed_permutation, signed_permutations, solve_rational

F = Fraction


class TestDimension:
    @pytest.mark.parametrize("n,k,expected", [(2, 3, 4), (3, 2, 6), (1, 7, 1),
                                              (4, 6, 84), (2, 0, 1)])
    def test_monomial_count(self, n, k, expected):
        assert dim_homog(n, k) == expected
        assert len(monomials(n, k)) == expected

    def test_graded_lex_order(self):
        assert monomials(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            dim_homog(0, 1)


class TestHomoPoly:
    def test_evaluation(self):
        p = HomoPoly(2, 3, (F(0), F(1), F(0), F(0)))  # x^2 y
        assert p((2, 3)) == 12

    def test_homogeneity_exact(self):
        rng = random.Random(99)
        for _ in range(100):
            n, k = rng.randint(1, 4), rng.randint(0, 6)
            p = random_poly(n, k, rng)
            v = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            lam = F(rng.randint(-8, 8), rng.randint(1, 4))
            assert p(tuple(lam * vi for vi in v)) == lam ** k * p(v)

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            HomoPoly(2, 2, (1, 2))

    def test_matches_the_fraction_sum(self):
        # Value and radial derivative equal the term-by-term reference in
        # value and type on exact inputs (an int where no term is a
        # Fraction, the int 0 for a zero form), bit for bit on float ones.
        rng = random.Random(24)
        coefficient = {
            "fraction": lambda: F(rng.randint(-9, 9), rng.randint(1, 6)),
            "int": lambda: rng.randint(-9, 9),
            "sparse": lambda: rng.choice((0, 0, 0, 3, F(-2, 5))),
            "zero": lambda: rng.choice((0, F(0))),
            "float": lambda: rng.uniform(-9, 9),
            "mixed": lambda: rng.choice((rng.uniform(-1, 1), 2, F(1, 3), 0))}
        coordinate = {
            "fraction": lambda: F(rng.randint(-6, 6), rng.randint(1, 5)),
            "int": lambda: rng.randint(-6, 6),
            "mixed": lambda: rng.choice((0, -3, F(-7, 2), F(4, 2))),
            "float": lambda: rng.choice((0.0, -0.0, rng.uniform(-3, 3))),
            "mixed float": lambda: rng.choice((0.25, -3, F(1, 3)))}
        for _ in range(2400):
            n, k = rng.randint(1, 4), rng.randint(0, 8)
            draw = coefficient[rng.choice(list(coefficient))]
            p = HomoPoly(n, k, tuple(draw() for _ in range(dim_homog(n, k))))
            for kind in rng.sample(list(coordinate), 2):
                v = tuple(coordinate[kind]() for _ in range(n))
                for got, want in ((p(v), fraction_sum_value(p, v)),
                                  (p.directional_derivative(v),
                                   fraction_sum_derivative(p, v))):
                    assert type(got) is type(want), (p, v, got, want)
                    if isinstance(want, float):
                        assert got.hex() == want.hex(), (p, v, got, want)
                    else:
                        assert got == want, (p, v, got, want)

    def test_eval_many_matches_scalar(self):
        rng = random.Random(7)
        p = random_poly(3, 4, rng, exact=False)
        pts = np.array([[0.3, -1.2, 0.7], [1.0, 0.0, -2.0]])
        batch = p.eval_many(pts)
        for row, val in zip(pts, batch):
            assert val == pytest.approx(p(tuple(row)), rel=1e-12)


class TestPowerTables:
    """A design's power array and the matrices gathered from it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gathered_matrix_is_bit_identical(self, n):
        # Each entry multiplies the monomial's coordinate powers left to
        # right, and the powers are the directions' to rounding.
        dirs = LatticeDesign(n).unit(2 * dim_homog(n, 6))
        powers = _powers(dirs, 6)
        for e in range(7):
            np.testing.assert_allclose(powers[:, :, e], dirs ** e, rtol=1e-14)
        for k in range(7):
            gathered = gather_matrix(powers, n, k)
            expected = [[math.prod(powers[r, c, exp[c]] for c in range(n))
                         for exp in monomials(n, k)] for r in range(len(dirs))]
            assert gathered.tobytes() == np.array(expected).tobytes()
            np.testing.assert_allclose(
                gathered, evaluation_matrix(dirs.tolist(), n, k), rtol=1e-13)

    @pytest.mark.parametrize("k", [0, 1, 4, 10])
    def test_row_evaluation_is_bit_identical(self, k):
        # Order k tests on the same unit rows, and so gets the same factors,
        # whatever the top order the design was first drawn to.
        low, high = LatticeDesign(3), LatticeDesign(3)
        high.unit(2 * dim_homog(3, 10))
        rows = 2 * dim_homog(3, k)
        assert low.unit(rows).tobytes() == high.unit(rows).tobytes()
        assert len(low.directions) == len(low.unit(rows)) == rows
        for a, b in zip(low.factors(k), high.factors(k)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n, k", [(1, 5), (2, 12), (3, 10), (4, 6)])
    def test_integer_block_is_the_exact_evaluation_matrix(self, n, k):
        design = LatticeDesign(n)
        block = design.block(k)
        assert block.shape == (2 * dim_homog(n, k), dim_homog(n, k))
        assert block.tolist() == [
            [math.prod(c ** e for c, e in zip(u, exps))
             for exps in monomials(n, k)]
            for u in design.rows(2 * dim_homog(n, k))]
        assert {type(a) for a in block.flat} == {int}


class TestSampleNodes:
    def test_two_directions_not_collinear(self):
        (a, b), (c, d) = sample_nodes(2, 1)
        assert a * d - b * c != 0

    def test_four_node_matrix_invertible_exactly(self):
        rows = [[math.prod(c ** e for c, e in zip(v, exps))
                 for exps in monomials(2, 3)] for v in sample_nodes(2, 3)]
        # direct oracle: exact solve against a basis vector must succeed
        sol = solve_rational(rows, [1, 0, 0, 0])
        assert any(c != 0 for c in sol)

    def test_a_rank_deficient_order_fails_under_every_permutation(
            self, monkeypatch):
        # Six pairwise independent rows in one plane: order 1's unit rows
        # have rank 2, the R-diagonal check fails, and it fails so for
        # f∘M at x M⁻¹ under every signed permutation M.
        rows = iter([(1, 1, 1), (1, 2, 3), (2, 3, 4),
                     (3, 4, 5), (1, 3, 5), (4, 5, 6)])
        monkeypatch.setattr(homog, "lattice_vector", lambda rng, n: next(rows))
        monkeypatch.setattr(homog, "_DESIGNS", {})
        with pytest.raises(GenericityFailure, match="order 1 are not generic"):
            canonical_design(3).factors(1)
        classify.design.cache_clear()
        try:
            for flip in signed_permutations(3):
                v = classify.classify_point(
                    *permuted(parse("x*y*z"), (1, 1, 1), flip), k_max=1)
                assert v.status == classify.INCONCLUSIVE
                assert "order 1 are not generic" in v.reason
                assert [ev.k for ev in v.evidence] == [0]
        finally:
            classify.design.cache_clear()

    def test_deterministic(self):
        # the canonical rows, the same on every call
        assert sample_nodes(3, 2) == sample_nodes(3, 2) \
            == canonical_design(3).rows(dim_homog(3, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_float_nodes_are_the_canonical_fit_rows(self, n):
        # every shape `verify interp-roundtrip` draws: k <= 6.  A float
        # ladder's rows are the float nodes, the integer rows scaled to
        # unit length; its first d(n, k) are the exact nodes so scaled.
        for k in range(7):
            d = dim_homog(n, k)
            unit = canonical_design(n).unit(2 * d)
            assert condition_estimate(unit[:d].tolist(), n, k) <= 1e4
            rows = classify.design(n, k)[0]
            assert rows.tobytes() == unit.tobytes()
            assert sample_nodes(n, k, exact=False) \
                == list(map(tuple, rows.tolist()))
            nodes = np.array(sample_nodes(n, k), dtype=float)
            scaled = nodes / np.linalg.norm(nodes, axis=1, keepdims=True)
            assert scaled.tobytes() == rows[:d].tobytes()

    def test_float_roundtrip_seed_two_passes(self):
        # random node sets with condition up to 1e6 missed 1e-10 here
        report = check_interp_roundtrip(1000, 2, exact=False)
        assert report.passed and report.worst_residual <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_float_roundtrip_is_at_round_off(self, seed):
        # the ladder's least-squares fit on 2·d unit rows
        report = check_interp_roundtrip(1000, seed, exact=False)
        assert report.worst_residual <= 1e-12


class TestLatticeDesign:
    def test_one_variable_rows_are_both_signs(self):
        assert canonical_design(1).rows(2) == [(1,), (-1,)]
        assert canonical_design(1).unit(2).tolist() == [[1.0], [-1.0]]
        with pytest.raises(GenericityFailure):
            LatticeDesign(1).rows(3)

    @pytest.mark.parametrize("n, k", [(2, 12), (3, 10), (4, 6)])
    def test_rows_are_off_the_axes_and_distinct(self, n, k):
        rows = canonical_design(n).rows(2 * dim_homog(n, k))
        assert all(all(u) and max(map(abs, u)) <= 16 for u in rows)
        lines = {tuple(c * (1 if u[0] > 0 else -1) // math.gcd(*u) for c in u)
                 for u in rows}
        assert len(lines) == len(rows)

    def test_two_variables_run_out_of_rows(self):
        # nonzero coordinates up to 16: 318 lines in the plane, enough for
        # the 202 rows of order 100
        design = LatticeDesign(2)
        assert len(design.rows(318)) == 318
        with pytest.raises(GenericityFailure):
            design.rows(319)

    def test_forty_variables_draw_rows_off_the_axes(self):
        # a scale-16 rounded unit vector almost always had a zero here
        rows = LatticeDesign(40).rows(2 * dim_homog(40, 2))
        assert len(rows) == 1640 and all(all(u) for u in rows)

    def test_exact_nodes_are_the_fit_block(self):
        # and a signed permutation of the rows keeps the block's condition
        fit = canonical_design(3).rows(dim_homog(3, 4))
        assert sample_nodes(3, 4) == fit
        cond = condition_estimate(fit, 3, 4)
        for flip in signed_permutations(3):
            assert condition_estimate(permuted_rows(flip, len(fit)), 3, 4) \
                == pytest.approx(cond)

    def test_a_singular_fit_block_is_inconclusive_under_every_permutation(
            self, monkeypatch):
        # Pairwise independent rows whose first three are linearly
        # dependent: order 1's fit block is singular over Q, for f∘M at
        # x M⁻¹ under every signed permutation M.
        rows = iter([(1, 1, 1), (1, 2, 3), (2, 3, 4),
                     (1, -1, 2), (3, 1, -2), (2, -3, 1)])
        monkeypatch.setattr(homog, "lattice_vector", lambda rng, n: next(rows))
        monkeypatch.setattr(homog, "_DESIGNS", {})
        classify.design.cache_clear()
        try:
            for flip in signed_permutations(3):
                v = classify.classify_point(
                    *permuted(parse("x*y*z"), (1, 1, 1), flip), k_max=1,
                    exact=True)
                assert v.status == classify.INCONCLUSIVE
                assert "order 1 are not generic" in v.reason
                assert [ev.k for ev in v.evidence] == [0]
        finally:
            classify.design.cache_clear()


class TestPermutedForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_permuted_form_is_p_along_u_m(self, n):
        # the tests' P∘M: q = permuted_form(p, M) satisfies q(u) = p(u M)
        rng = random.Random(n)
        for flip in signed_permutations(n)[:12]:
            for k in range(7):
                p = HomoPoly(n, k, tuple(F(rng.randint(-9, 9))
                                         for _ in range(dim_homog(n, k))))
                u = tuple(rng.randint(-5, 5) for _ in range(n))
                moved = tuple(s * u[i] for i, s in flip)
                assert permuted_form(p, flip)(u) == p(moved), (flip, k)


class TestInterpFit:
    def test_recovers_exact_member(self):
        p = HomoPoly(2, 3, (F(0), F(1), F(0), F(0)))
        fitted, residuals, _ = interp_fit(
            [p(v) for v in sample_nodes(2, 3)], 2, 3, True)
        assert fitted.coeffs == p.coeffs and residuals == []

    def test_zero_values_give_zero_polynomial(self):
        fitted, _, _ = interp_fit([F(0)] * 6, 3, 2, exact=True)
        assert all(c == 0 for c in fitted.coeffs)

    def test_non_polynomial_function_leaves_residual(self):
        # v -> v1^3/(v1^2+v2^2) is 1-homogeneous but not linear: fitting at
        # two rows must miss at the other two by a clear margin
        def h(v):
            return F(v[0] ** 3, v[0] ** 2 + v[1] ** 2)
        _, residuals, _ = interp_fit(
            [h(v) for v in canonical_design(2).rows(4)], 2, 1, exact=True)
        assert min(residuals) > 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_solve_on_the_permuted_rows(self, n):
        # Values along the rows U M: the fit on the canonical block is
        # P∘M for P the solve on the permuted rows themselves, with
        # residuals of the same values and types: a zero form leaves |h|
        # as it is (the int 0 of int zeros), a nonzero one Fractions.
        rng = random.Random(n)
        for k in range(7):
            d = dim_homog(n, k)
            p = random_poly(n, k, rng)
            noise = [F(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(2 * d)]
            families = [
                lambda rows: [p(v) for v in rows],
                lambda rows: noise,
                lambda rows: [F(v[0] ** (k + 2), sum(c * c for c in v[:2]))
                              for v in rows],
                lambda rows: [0] * (2 * d),
                lambda rows: [F(0)] * (2 * d),
                lambda rows: [0] * d + noise[d:]]
            for flip in signed_permutations(n):
                rows = permuted_rows(flip, 2 * d)
                for family in families:
                    values = family(rows)
                    fitted, residuals, _ = interp_fit(values, n, k, True)
                    want, want_residuals = seeded_exact_fit(values, flip, k)
                    assert fitted == permuted_form(want, flip)
                    assert [(type(r), r) for r in residuals] \
                        == [(type(r), r) for r in want_residuals]

    def test_roundtrip_exact_small_sweep(self):
        rng = random.Random(13)
        for trial in range(60):
            n, k = rng.randint(1, 4), rng.randint(0, 5)
            p = random_poly(n, k, rng)
            flip = signed_permutation(1000 + trial, n)
            fitted, _, _ = interp_fit(
                [p(v) for v in permuted_rows(flip, dim_homog(n, k))], n, k,
                exact=True)
            assert fitted.coeffs == permuted_form(p, flip).coeffs

    def test_roundtrip_float(self):
        # float values take the ladder's least-squares fit on 2·d unit rows
        rng = random.Random(14)
        for trial in range(40):
            n, k = rng.randint(1, 4), rng.randint(0, 6)
            p = random_poly(n, k, rng, exact=False)
            flip = signed_permutation(2000 + trial, n)
            fitted, residuals, _ = interp_fit(
                [p([s * u[i] for i, s in flip])
                 for u in sample_nodes(n, k, exact=False)], n, k)
            assert len(residuals) == 2 * dim_homog(n, k)
            for a, b in zip(permuted_form(p, flip).coeffs, fitted.coeffs):
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestFdReconstruct:
    def test_linear_case(self):
        p = HomoPoly(1, 1, (F(2),))
        assert fd_reconstruct(p, (F(5),), (F(3),)) == p((F(3),))

    def test_worked_cubic(self):
        p = HomoPoly(2, 3, (F(0), F(1), F(0), F(0)))  # x^2 y
        assert fd_reconstruct(p, (F(1), F(1)), (F(2), F(-1))) == F(-4)
        assert p((2, -1)) == -4

    def test_shift_free_square(self):
        p = HomoPoly(1, 2, (F(1),))
        assert fd_reconstruct(p, (F(0),), (F(3),)) == 9

    def test_random_exact_sweep(self):
        rng = random.Random(15)
        for _ in range(200):
            n, k = rng.randint(1, 4), rng.randint(0, 6)
            p = random_poly(n, k, rng)
            a = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            v = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            assert fd_reconstruct(p, a, v) - p(v) == 0


class TestEuler:
    def test_examples(self):
        p = HomoPoly(2, 3, (F(0), F(1), F(0), F(0)))
        assert euler_check(p, (F(1), F(2))) == 0
        q = HomoPoly(2, 3, (F(1), F(0), F(0), F(1)))  # x^3 + y^3
        assert euler_check(q, (F(1), F(1))) == 0

    def test_random_exact_sweep(self):
        rng = random.Random(16)
        for _ in range(200):
            n, k = rng.randint(1, 4), rng.randint(0, 6)
            p = random_poly(n, k, rng)
            v = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
            assert euler_check(p, v) == 0


class TestShrinkBound:
    def test_monomial_bound(self):
        k = 4
        p = HomoPoly(1, k, (1.0,))
        report = shrink_bound_check(p, (0.0,), L=1.0, n_samples=2000, seed=1)
        assert report.shrink_holds
        assert report.shrink_max <= (1 / (2 * math.e)) ** k + 1e-12

    def test_random_with_sampled_sup(self):
        rng = random.Random(17)
        for i in range(10):
            n, k = rng.randint(1, 3), rng.randint(0, 6)
            p = random_poly(n, k, rng, exact=False)
            a = tuple(rng.uniform(-1, 1) for _ in range(n))
            report = shrink_bound_check(p, a, L=None, n_samples=4000, seed=i)
            assert report.shrink_holds
            if report.mid_holds is not None:
                assert report.mid_holds

    def test_premise_violated(self):
        p = HomoPoly(2, 2, (1.0, 0.0, 1.0))
        with pytest.raises(PremiseViolated):
            shrink_bound_check(p, (0.0, 0.0), L=1e-9, n_samples=500, seed=2)


class TestSolveExact:
    def test_fraction_system(self):
        rows = [[F(1, 2), F(1)], [F(1), F(-1)]]
        x = solve_rational(rows, [F(2), F(1)])
        assert [sum(r * c for r, c in zip(row, x)) for row in rows] == [2, 1]

    def test_singular(self):
        from arcan.errors import SingularSystem
        with pytest.raises(SingularSystem):
            solve_rational([[1, 2], [2, 4]], [1, 1])
