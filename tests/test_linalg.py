"""Field-generic exact linear algebra: ints and Fractions reduce over Q."""

import random
from fractions import Fraction

import pytest

from diffcech import linalg
from diffcech.coeff import ALPHA, Scalar


def _random_matrix(rng, m, n, rank):
    """An m x n integer matrix of rank at most `rank`, as a product."""
    P = [[rng.randrange(-3, 4) for _ in range(rank)] for _ in range(m)]
    Q = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(rank)]
    return [[sum(P[i][t] * Q[t][j] for t in range(rank)) for j in range(n)]
            for i in range(m)]


def _exact(x):
    return type(x) in (int, Fraction, Scalar)


def _matrices(seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        yield _random_matrix(rng, m, n, rng.randrange(0, min(m, n) + 1))


def _dense_rref(M):
    """Row reduction that updates every entry of a row, zeros included."""
    A = [list(row) for row in M]
    m, n = len(A), len(A[0]) if A else 0
    pivots, r = [], 0
    for col in range(n):
        piv = next((i for i in range(r, m) if A[i][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = Fraction(1) / A[r][col]
        A[r] = [x * inv for x in A[r]]
        for i in range(m):
            if i != r and A[i][col]:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return A, pivots


def _sparse_matrices(seed, count=30):
    """Seeded int, Fraction and Scalar matrices with at most a fifth of
    their entries nonzero."""
    rng = random.Random(seed)
    entries = [
        lambda: rng.choice([-3, -2, -1, 1, 2, 3]),
        lambda: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randrange(1, 5)),
        lambda: Scalar.of(rng.randrange(-3, 4)) + ALPHA * rng.choice([-1, 1]),
    ]
    for t in range(count):
        entry = entries[t % 3]
        m, n = rng.randrange(1, 11), rng.randrange(1, 11)
        yield [[entry() if rng.random() < 0.2 else 0 for _ in range(n)]
               for _ in range(m)]


class TestRref:
    def test_sparse_update_is_the_dense_update(self):
        # the RREF is unique, so skipping the zeros of the pivot row may
        # change no value and no pivot
        for M in _sparse_matrices(17):
            R, pivots = linalg.rref(M)
            R_dense, pivots_dense = _dense_rref(M)
            assert pivots == pivots_dense
            assert R == R_dense
            assert not any(isinstance(x, float) for row in R for x in row)

    def test_integer_rref_is_the_scalar_rref(self):
        # the RREF is unique and Q lies in Q(a), so reducing the integers as
        # they are gives the values of their lift to Q(a)
        for M in _matrices(3):
            R, pivots = linalg.rref(M)
            RS, pivots_s = linalg.rref([[Scalar.of(x) for x in row]
                                        for row in M])
            assert pivots == pivots_s
            assert R == RS
            assert not any(isinstance(x, Scalar) for row in R for x in row)

    def test_no_floating_point(self):
        for M in _matrices(5):
            R, _ = linalg.rref(M)
            results = [x for row in R for x in row]
            results += [x for v in linalg.nullspace(M) for x in v]
            sol = linalg.solve(M, [sum(row) for row in M])
            results += sol
            assert all(_exact(x) for x in results), results

    def test_mixed_entries(self):
        # rational rows beside Q(a) rows, as the function-class systems mix
        # unit selector rows with Scalar coordinates
        M = [[ALPHA, Scalar.of(1), Scalar.of(0)], [0, 2, Fraction(1, 3)]]
        R, pivots = linalg.rref(M)
        assert pivots == [0, 1]
        assert R == linalg.rref([[Scalar.of(x) for x in row]
                                 for row in M])[0]

    def test_nullspace(self):
        for M in _matrices(7):
            n = len(M[0])
            basis = linalg.nullspace(M)
            assert len(basis) == n - linalg.rank(M)
            for v in basis:
                assert all(sum(a * x for a, x in zip(row, v)) == 0
                           for row in M)


class TestSolve:
    @staticmethod
    def _system(rng, consistent):
        # M = U [P Q; 0], with U invertible by row operations: M x = b is
        # solvable exactly when the lower block of U^-1 b vanishes
        m, n = rng.randrange(2, 7), rng.randrange(1, 6)
        r = rng.randrange(0, min(m - 1, n) + 1)
        M = _random_matrix(rng, r, n, r) + [[0] * n for _ in range(m - r)]
        x0 = [rng.randrange(-3, 4) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in M]
        if not consistent:
            b[rng.randrange(r, m)] += rng.choice((-2, -1, 1, 2))
        for _ in range(3 * m):
            i, j = rng.sample(range(m), 2)
            f = rng.randrange(-2, 3)
            M[i] = [a + f * c for a, c in zip(M[i], M[j])]
            b[i] += f * b[j]
        return M, b

    @pytest.mark.parametrize("consistent", [True, False])
    def test_none_exactly_when_inconsistent(self, consistent):
        rng = random.Random(11 + consistent)
        for _ in range(60):
            M, b = self._system(rng, consistent)
            x = linalg.solve(M, b)
            if not consistent:
                assert x is None, (M, b)
                continue
            assert x is not None, (M, b)
            assert [sum(a * v for a, v in zip(row, x)) for row in M] == b

    def test_scalar_right_hand_side(self):
        # integer system, Q(a) right-hand side: coordinates come back in Q(a)
        x = linalg.solve([[1, 1], [0, 2]], [ALPHA, Scalar.of(4)])
        assert x == [ALPHA - 2, Scalar.of(2)]
        assert all(isinstance(v, Scalar) for v in x)

    def test_span_coords(self):
        # coordinates in the span of the columns of a row matrix, none of
        # them (two rows of width 0) or the one column (1, 1)
        assert linalg.solve([[], []], [0, Scalar.of(0)]) == []
        assert linalg.solve([[], []], [0, ALPHA]) is None
        assert linalg.solve([[1], [1]], [ALPHA, ALPHA]) == [ALPHA]
        assert linalg.solve([[1], [1]], [ALPHA, 1]) is None
