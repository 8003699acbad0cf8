"""Homogeneous polynomial space, interpolation, and the two identities."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from arcan.errors import GenericityFailure, PremiseViolated
from arcan.homog import HomoPoly, dim_homog, euler_check, evaluation_matrix, \
    fd_reconstruct, gather_matrix, interp_fit, monomials, power_table, \
    random_poly, sample_nodes, shrink_bound_check
from arcan.linalg import solve_exact
from arcan.seeds import unit_vector

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

    def test_json_roundtrip(self):
        p = HomoPoly(3, 2, tuple(F(i, 3) for i in range(6)))
        assert HomoPoly.from_json(p.to_json()) == p

    def test_eval_many_matches_scalar(self):
        rng = random.Random(7)
        p = random_poly(3, 4, rng, exact=False)
        pts = np.array([[0.3, -1.2, 0.7], [1.0, 0.0, -2.0]])
        batch = p.eval_many(pts)
        for row, val in zip(pts, batch):
            assert val == pytest.approx(p(tuple(row)), rel=1e-12)


class TestPowerTables:
    """The gathered matrix and row evaluation reproduce the scalar formulas."""

    @staticmethod
    def directions(n, m, seed):
        rng = random.Random(seed)
        return [unit_vector(rng, n) for _ in range(m)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gathered_matrix_is_bit_identical(self, n):
        dirs = self.directions(n, 40, n)
        powers = np.array([power_table(v, 10) for v in dirs])
        for k in range(11):
            gathered = gather_matrix(powers, n, k)
            assert gathered.tobytes() == evaluation_matrix(dirs, n, k).tobytes()

    @pytest.mark.parametrize("k", [0, 1, 4, 10])
    def test_row_evaluation_is_bit_identical(self, k):
        rng = random.Random(k)
        dirs = self.directions(3, 50, 100 + k)
        coeffs = [0.0 if rng.random() < 0.2 else rng.uniform(-1e3, 1e3)
                  for _ in range(dim_homog(3, k))]
        P = HomoPoly(3, k, tuple(coeffs))
        rows = P.eval_rows(evaluation_matrix(dirs, 3, k))
        assert np.array(rows).tobytes() == \
            np.array([float(P(v)) for v in dirs]).tobytes()


class TestSampleNodes:
    def test_two_directions_not_collinear(self):
        ns = sample_nodes(2, 1, seed=5)
        (a, b), (c, d) = ns.nodes
        assert abs(a * d - b * c) > 1e-6

    def test_four_node_matrix_invertible_exactly(self):
        ns = sample_nodes(2, 3, seed=5, exact=True)
        rows = ns.matrix()
        # direct oracle: exact solve against a basis vector must succeed
        sol = solve_exact(rows, [1, 0, 0, 0])
        assert any(c != 0 for c in sol)

    def test_condition_cap_one_fails(self):
        with pytest.raises(GenericityFailure):
            sample_nodes(2, 1, seed=5, cond_cap=1.0, retries=8)

    def test_deterministic(self):
        assert sample_nodes(3, 2, seed=9).nodes == sample_nodes(3, 2, seed=9).nodes
        assert sample_nodes(3, 2, seed=9).nodes != sample_nodes(3, 2, seed=10).nodes


class TestInterpFit:
    def test_recovers_exact_member(self):
        ns = sample_nodes(2, 3, seed=11, exact=True)
        p = HomoPoly(2, 3, (F(0), F(1), F(0), F(0)))
        fitted = interp_fit([p(v) for v in ns.nodes], ns)
        assert fitted.coeffs == p.coeffs

    def test_zero_values_give_zero_polynomial(self):
        ns = sample_nodes(3, 2, seed=11, exact=True)
        fitted = interp_fit([F(0)] * 6, ns)
        assert all(c == 0 for c in fitted.coeffs)

    def test_non_polynomial_function_leaves_residual(self):
        # v -> v1^3/(v1^2+v2^2) is 1-homogeneous but not linear: fitting at
        # two nodes must miss at a third by a clear margin
        def h(v):
            return v[0] ** 3 / (v[0] ** 2 + v[1] ** 2)
        ns = sample_nodes(2, 1, seed=3)
        fitted = interp_fit([h(v) for v in ns.nodes], ns)
        probe = sample_nodes(2, 1, seed=4).nodes[0]
        assert abs(h(probe) - fitted(probe)) > 1e-3

    def test_roundtrip_exact_small_sweep(self):
        rng = random.Random(13)
        for trial in range(60):
            n, k = rng.randint(1, 4), rng.randint(0, 5)
            p = random_poly(n, k, rng)
            ns = sample_nodes(n, k, seed=1000 + trial, exact=True)
            fitted = interp_fit([p(v) for v in ns.nodes], ns)
            assert fitted.coeffs == p.coeffs

    def test_roundtrip_float(self):
        rng = random.Random(14)
        for trial in range(40):
            n, k = rng.randint(1, 4), rng.randint(0, 6)
            p = random_poly(n, k, rng, exact=False)
            ns = sample_nodes(n, k, seed=2000 + trial)
            fitted = interp_fit([p(v) for v in ns.nodes], ns)
            for a, b in zip(p.coeffs, fitted.coeffs):
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
        x = solve_exact(rows, [F(2), F(1)])
        assert [sum(r * c for r, c in zip(row, x)) for row in rows] == [2, 1]

    def test_singular(self):
        from arcan.errors import SingularSystem
        with pytest.raises(SingularSystem):
            solve_exact([[1, 2], [2, 4]], [1, 1])
