"""Exact solves on prepared integer systems: Dixon lifting against the
Bareiss reference, the fallbacks, and what a system keeps."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcan import linalg
from arcan.errors import SingularSystem
from arcan.homog import canonical_design, dim_homog, random_poly
from arcan.linalg import DIXON_MIN_SIZE, P, IntegerSystem, solve_bareiss

from helpers import scale_rows, solve_rational

F = Fraction


def residual_free(rows, x, rhs) -> bool:
    return all(sum(F(a) * v for a, v in zip(row, x)) == b
               for row, b in zip(rows, rhs))


def random_matrix(rng: random.Random, n: int, span: int = 9) -> list[list[int]]:
    return [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]


def lifting(rows) -> IntegerSystem:
    """The system of `rows` prepared for lifting at any size, as one of
    DIXON_MIN_SIZE unknowns or more is."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "DIXON_MIN_SIZE", 1)
        return IntegerSystem(rows)


def lift(rows, rhs):
    """The lifting's own answer: None if it cannot start or, which the
    Hadamard bound rules out, finds no certified candidate."""
    system = lifting(rows)
    return None if system.inverse is None else system._lift(rhs)


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
        rows, rhs = scale_rows(*system)
        try:
            expected = solve_bareiss(rows, rhs)
        except SingularSystem:
            assert lifting(rows).inverse is None
            with pytest.raises(SingularSystem):
                solve_rational(*system)
            return
        x = lift(rows, rhs)
        assert x == expected
        assert all(type(v) is Fraction for v in x)
        assert solve_rational(*system) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interpolation_system_84(self, seed):
        # The largest system the identity suite solves: n=4, k=6, on the
        # canonical integer block.
        design = canonical_design(4)
        poly = random_poly(4, 6, random.Random(seed), exact=True)
        rows = design.block(6)[:84].tolist()
        values = [poly(v) for v in design.rows(84)]
        assert len(rows) == 84
        assert lift(rows, values) == list(poly.coeffs)
        assert IntegerSystem(rows).solve(values) == list(poly.coeffs)

    def test_dense_solution_needs_many_lifting_steps(self):
        # A random right-hand side gives denominators near det A, beyond
        # what the early reconstructions can recover.
        rng = random.Random(4)
        rows = random_matrix(rng, 16)
        rhs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(16)]
        x = lift(rows, rhs)
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
        assert lift(rows, rhs) is None
        x = IntegerSystem(rows).solve(rhs)
        assert x == solve_bareiss(rows, rhs)
        assert residual_free(rows, x, rhs)

    def test_diagonal_entry_equal_to_p(self):
        n = DIXON_MIN_SIZE + 1
        rows = [[(1 if i == j else 0) + (2 if j > i else 0) for j in range(n)]
                for i in range(n)]
        rows[n - 1][n - 1] = P
        rhs = list(range(1, n + 1))
        assert lift(rows, rhs) is None
        x = IntegerSystem(rows).solve(rhs)
        assert x[-1] == F(n, P)
        assert residual_free(rows, x, rhs)

    @pytest.mark.parametrize("n", [3, DIXON_MIN_SIZE + 5])
    def test_singular_raises(self, n):
        rng = random.Random(n)
        rows = random_matrix(rng, n)
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        with pytest.raises(SingularSystem):
            IntegerSystem(rows).solve([1] * n)

    def test_not_square(self):
        with pytest.raises(ValueError):
            IntegerSystem([[1, 2]])
        with pytest.raises(ValueError):
            IntegerSystem([[1, 2], [3, 4]]).solve([1])


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
        x = lift(rows, rhs)
        assert x == solve_bareiss(rows, rhs)
        assert residual_free(rows, x, rhs)

    def test_fractions_with_large_denominators(self):
        rng = random.Random(11)
        n = DIXON_MIN_SIZE + 2
        rows = [[F(rng.randint(-99, 99), rng.randint(1, 10 ** 30))
                 for _ in range(n)] for _ in range(n)]
        rhs = [F(rng.randint(-99, 99), rng.randint(1, 10 ** 30))
               for _ in range(n)]
        x = lift(*scale_rows(rows, rhs))
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
        assert lift(rows, rhs) == x
        assert IntegerSystem(rows).solve(rhs) == x

    def test_step_cap_covers_the_balanced_bound(self):
        rows = [[1, 0], [0, 1]]
        rhs = [10 ** 40, 1]
        cap = linalg._step_cap(IntegerSystem(rows).norms, rhs)
        assert P ** cap > 2 * (10 ** 40) ** 2


# Every canonical block the identity trials and the ladders solve on.
CANONICAL = [(n, k) for n in range(1, 5) for k in range(7)] \
    + [(3, k) for k in range(7, 11)]


@st.composite
def canonical_fits(draw):
    """A canonical (n, k) and Fraction right-hand sides, some over
    denominators beyond 2**63."""
    n, k = draw(st.sampled_from(CANONICAL))
    dens = st.sampled_from([1, 2, 3, 7, 2 ** 63 + 1, 2 ** 64 - 59])
    entry = st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20), dens)
    d = dim_homog(n, k)
    return n, k, draw(st.lists(entry, min_size=d, max_size=d))


class TestKeptSystem:
    @settings(max_examples=40, deadline=None)
    @given(canonical_fits())
    def test_canonical_blocks_equal_bareiss(self, fit):
        n, k, rhs = fit
        system = canonical_design(n).system(k)
        assert (system.inverse is None) == (len(rhs) < DIXON_MIN_SIZE)
        x = system.solve(rhs)
        assert x == solve_bareiss(system.rows, rhs)
        assert all(type(v) is Fraction for v in x)

    def test_singular_mod_p_answers_by_bareiss_on_every_call(self, monkeypatch):
        rng = random.Random(7)
        n = DIXON_MIN_SIZE + 3
        rows = random_matrix(rng, n)
        rows[0] = list(rows[1])
        rows[0][0] += P
        system = IntegerSystem(rows)
        assert system.inverse is None and system.matrix is None
        calls = []
        monkeypatch.setattr(linalg, "solve_bareiss",
                            lambda a, b: calls.append(b) or solve_bareiss(a, b))
        for _ in range(3):
            rhs = [rng.randint(-9, 9) for _ in range(n)]
            x = system.solve(rhs)
            assert x == solve_bareiss(rows, rhs)
            assert residual_free(rows, x, rhs)
        assert len(calls) == 3

    def test_singular_raises_on_every_call(self):
        rng = random.Random(3)
        n = DIXON_MIN_SIZE + 3
        rows = random_matrix(rng, n)
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        system = IntegerSystem(rows)
        for _ in range(3):
            with pytest.raises(SingularSystem):
                system.solve([rng.randint(-9, 9) for _ in range(n)])

    @pytest.mark.parametrize("k, dtype", [(5, np.int64), (9, object)])
    def test_solves_leave_the_kept_arrays_unchanged(self, k, dtype):
        design = canonical_design(3)
        system = design.system(k)
        assert system.matrix.dtype == dtype
        kept = (system.rows, system.norms, system.matrix.copy(),
                system.inverse.copy())
        for a in (system.matrix, system.inverse):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1
        rows = design.rows(len(system.rows))
        for seed in range(4):
            poly = random_poly(3, k, random.Random(seed), exact=True)
            assert system.solve([poly(v) for v in rows]) == list(poly.coeffs)
        assert design.system(k) is system
        assert (system.rows, system.norms) == kept[:2]
        assert system.matrix.tolist() == kept[2].tolist()
        assert system.inverse.tolist() == kept[3].tolist()

    def test_rows_must_be_integers(self):
        with pytest.raises(TypeError):
            IntegerSystem([[F(1, 2), 1], [1, 1]])
        assert IntegerSystem(np.eye(2, dtype=np.int64)).rows == ((1, 0), (0, 1))
