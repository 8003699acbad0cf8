"""Exact solves: Dixon lifting against the Bareiss reference, and fallbacks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcan import linalg
from arcan.errors import SingularSystem
from arcan.homog import canonical_design, random_poly
from arcan.linalg import DIXON_MIN_SIZE, P, solve_bareiss, solve_dixon, \
    solve_exact

F = Fraction


def residual_free(rows, x, rhs) -> bool:
    return all(sum(F(a) * v for a, v in zip(row, x)) == b
               for row, b in zip(rows, rhs))


def random_matrix(rng: random.Random, n: int, span: int = 9) -> list[list[int]]:
    return [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]


@st.composite
def systems(draw):
    """n from 1 to 30; int or Fraction entries, some zero (so some singular)."""
    n = draw(st.integers(1, 30))
    span = draw(st.sampled_from([1, 3, 50, 10 ** 12]))
    fraction_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        num = rng.randint(-span, span)
        if rng.random() < fraction_share:
            return F(num, rng.randint(1, 9))
        return num
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    return rows, [entry() for _ in range(n)]


class TestDixonMatchesBareiss:
    @settings(max_examples=60, deadline=None)
    @given(systems())
    def test_random_int_and_fraction_systems(self, system):
        rows, rhs = system
        try:
            expected = solve_bareiss(rows, rhs)
        except SingularSystem:
            assert solve_dixon(rows, rhs) is None
            with pytest.raises(SingularSystem):
                solve_exact(rows, rhs)
            return
        x = solve_dixon(rows, rhs)
        assert x == expected
        assert all(type(v) is Fraction for v in x)
        assert solve_exact(rows, rhs) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interpolation_system_84(self, seed):
        # The largest system the identity suite solves: n=4, k=6, on the
        # canonical integer block.
        design = canonical_design(4)
        poly = random_poly(4, 6, random.Random(seed), exact=True)
        rows = design.block(6)[:84].tolist()
        values = [poly(v) for v in design.rows(84)]
        assert len(rows) == 84
        assert solve_dixon(rows, values) == list(poly.coeffs)
        assert solve_exact(rows, values) == list(poly.coeffs)

    def test_dense_solution_needs_many_lifting_steps(self):
        # A random right-hand side gives denominators near det A, beyond
        # what the early reconstructions can recover.
        rng = random.Random(4)
        rows = random_matrix(rng, 16)
        rhs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(16)]
        x = solve_dixon(rows, rhs)
        assert x == solve_bareiss(rows, rhs)
        assert max(v.denominator for v in x) > P ** 2


class TestFallbacks:
    def test_determinant_divisible_by_p(self):
        # det A = P * (minor), nonzero over Q but zero mod P: the lifting
        # cannot start, and Bareiss answers.
        rng = random.Random(7)
        n = DIXON_MIN_SIZE + 3
        rows = random_matrix(rng, n)
        rows[0] = list(rows[1])
        rows[0][0] += P
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        assert solve_dixon(rows, rhs) is None
        x = solve_exact(rows, rhs)
        assert x == solve_bareiss(rows, rhs)
        assert residual_free(rows, x, rhs)

    def test_diagonal_entry_equal_to_p(self):
        n = DIXON_MIN_SIZE + 1
        rows = [[(1 if i == j else 0) + (2 if j > i else 0) for j in range(n)]
                for i in range(n)]
        rows[n - 1][n - 1] = P
        rhs = list(range(1, n + 1))
        assert solve_dixon(rows, rhs) is None
        x = solve_exact(rows, rhs)
        assert x[-1] == F(n, P)
        assert residual_free(rows, x, rhs)

    @pytest.mark.parametrize("n", [3, DIXON_MIN_SIZE + 5])
    def test_singular_raises(self, n):
        rng = random.Random(n)
        rows = random_matrix(rng, n)
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        with pytest.raises(SingularSystem):
            solve_exact(rows, [1] * n)

    def test_not_square(self):
        with pytest.raises(ValueError):
            solve_exact([[1, 2]], [1])


class TestLargeEntries:
    @pytest.mark.parametrize("bits", [40, 70, 200])
    def test_entries_beyond_the_int64_matvec(self, bits):
        # 40 bits fits int64 but not an int64 product with a digit; 70 and
        # 200 bits do not fit int64 at all.
        rng = random.Random(bits)
        n = DIXON_MIN_SIZE + 2
        rows = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)]
                for _ in range(n)]
        rhs = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)]
        x = solve_dixon(rows, rhs)
        assert x == solve_bareiss(rows, rhs)
        assert residual_free(rows, x, rhs)

    def test_fractions_with_large_denominators(self):
        rng = random.Random(11)
        n = DIXON_MIN_SIZE + 2
        rows = [[F(rng.randint(-99, 99), rng.randint(1, 10 ** 30))
                 for _ in range(n)] for _ in range(n)]
        rhs = [F(rng.randint(-99, 99), rng.randint(1, 10 ** 30))
               for _ in range(n)]
        x = solve_dixon(rows, rhs)
        assert x == solve_bareiss(rows, rhs)


class TestUnbalancedSolution:
    """Large numerators over small denominators need the balanced bound
    2 max(N, D)^2: stopping at 2 N D leaves the numerators unrecoverable."""

    # With one unknown an early reconstruction is usually a wrong small
    # fraction, which only the certificate A num = b den rejects.
    @pytest.mark.parametrize("n", [1, 3, DIXON_MIN_SIZE + 2])
    def test_large_numerator_small_denominator(self, n):
        rng = random.Random(n)
        rows = random_matrix(rng, n)
        x = [F(10 ** 60 + rng.randint(0, 10 ** 6), 3) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        assert solve_dixon(rows, rhs) == x
        assert solve_exact(rows, rhs) == x

    def test_step_cap_covers_the_balanced_bound(self):
        rows = [[1, 0], [0, 1]]
        rhs = [10 ** 40, 1]
        cap = linalg._step_cap(rows, rhs)
        assert P ** cap > 2 * (10 ** 40) ** 2
