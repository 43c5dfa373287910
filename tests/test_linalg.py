"""Exact linear algebra over Q(a): int, Fraction and Scalar entries reduce to
canonical Scalars."""

import random
from fractions import Fraction
from math import gcd

import pytest

from diffcech import gallery, linalg
from diffcech.grpcoh import _generator_rows
from diffcech.coeff import ALPHA, ZERO, Scalar
from diffcech.presentation import GroupQuotient

_ROW, _ELIMINATE = linalg._poly_row, linalg._poly_eliminate


def _primitive(row):
    return gcd(*[c for x in row.values() for c in x]) in (0, 1)


def _checked_row(row):
    """``linalg._poly_row``, checked: the lifted row is primitive."""
    out = _ROW(row)
    assert _primitive(out), out
    return out


def _checked_eliminate(row, piv, col):
    """``linalg._poly_eliminate``, checked: the row comes out primitive and
    clear at col, and where the pivot row has no entry it keeps the sign of
    each leading coefficient, since its multiplier p / gcd(p, f) has a
    positive one."""
    out = _ELIMINATE(row, piv, col)
    assert col not in out and _primitive(out), out
    assert all((out[j][-1] > 0) == (x[-1] > 0)
               for j, x in row.items() if j not in piv), (row, piv, out)
    return out


@pytest.fixture(autouse=True)
def _checked_elimination(monkeypatch):
    # the reduced form is unique, so a row's sign and content never show in
    # an output; every reduction in this module checks them as it runs
    monkeypatch.setattr(linalg, "_poly_row", _checked_row)
    monkeypatch.setattr(linalg, "_poly_eliminate", _checked_eliminate)


def _random_matrix(rng, m, n, rank):
    """An m x n integer matrix of rank at most `rank`, as a product."""
    P = [[rng.randrange(-3, 4) for _ in range(rank)] for _ in range(m)]
    Q = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(rank)]
    return [[sum(P[i][t] * Q[t][j] for t in range(rank)) for j in range(n)]
            for i in range(m)]


def _exact(x):
    return type(x) in (int, Fraction, Scalar)


def _nullspace(M):
    """The kernel vector of every free column of M, ascending, and those
    free columns: ``linalg.kernel`` with all free columns back-solved."""
    free, vectors = linalg.kernel(M)
    return vectors(free), free


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


def _poly(rng, deg):
    """A nonzero polynomial in a of degree at most deg, small coefficients."""
    while True:
        p = Scalar([rng.randrange(-3, 4) for _ in range(deg + 1)])
        if p:
            return p


def _sparse(rng, m, n, entry, density=0.4):
    return [[entry() if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)]


def _poly_denominators(rng):
    # rational functions with non-constant denominators
    m, n = rng.randrange(2, 7), rng.randrange(2, 7)
    return _sparse(rng, m, n, lambda: _poly(rng, 2) / (ALPHA + rng.choice(
        [-2, -1, 1, 3])) / _poly(rng, 1))


def _shared_factors(rng):
    # each row a multiple of one of a few polynomial factors, so that
    # pivots and multipliers share factors with whole rows
    factors = [ALPHA + 1, ALPHA * ALPHA - 2, 3 * ALPHA - 1]
    m, n = rng.randrange(2, 7), rng.randrange(2, 7)
    M = _sparse(rng, m, n, lambda: _poly(rng, 1), 0.6)
    return [[x * f if x else 0 for x in row]
            for row, f in zip(M, (rng.choice(factors) for _ in M))]


def _specialization(rng):
    """An integer matrix of rank r with one row moved off its span by
    (a - 2) times a vector outside it: the rank is r + 1 over Q(a), and r at
    a = 2.  Returns the matrix and r + 1."""
    n = rng.randrange(3, 7)
    r = rng.randrange(1, n)
    M = _random_matrix(rng, rng.randrange(r + 1, r + 4), n, r)
    while linalg.rank(M) != r:
        M = _random_matrix(rng, len(M), n, r)
    while True:
        v = [rng.randrange(-3, 4) for _ in range(n)]
        if linalg.rank(M + [v]) == r + 1:
            break
    i = rng.randrange(len(M))
    M[i] = [x + (ALPHA - 2) * y for x, y in zip(M[i], v)]
    return M, r + 1


def _large_content(rng):
    # huge common factors in integer and rational rows
    m, n = rng.randrange(2, 7), rng.randrange(2, 7)
    big = 10 ** 40 * 3 ** rng.randrange(1, 30)
    return [[x * big if i % 2 else Fraction(x * big, 7 ** 25)
             for x in row] for i, row in enumerate(
                _random_matrix(rng, m, n, rng.randrange(1, min(m, n) + 1)))]


def _mixed(rng):
    # int, Fraction, constant Scalar and Q(a) entries side by side
    kinds = [
        lambda: rng.randrange(-3, 4),
        lambda: Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
        lambda: Scalar.of(Fraction(rng.randrange(-3, 4), 2)),
        lambda: _poly(rng, 2) / rng.choice([1, ALPHA, ALPHA + 2]),
    ]
    m, n = rng.randrange(2, 8), rng.randrange(2, 8)
    return _sparse(rng, m, n, lambda: rng.choice(kinds)(), 0.5)


def _itorus_matrices():
    """d: C^0 -> C^1 of the irrational torus (its generator rows) at D = 3
    and 4, in its class and in the widened class, with the transposes."""
    gens = gallery.get_presentation("irrational-torus").generators
    for d in (3, 4):
        pres = GroupQuotient(1, gens, free=True, function_class_degree=d)
        for cls in (pres.function_class(), pres.function_class().widen(1)):
            M = _generator_rows(pres, cls)
            yield M
            yield [list(col) for col in zip(*M)]


def _canonical_pairs(R):
    """Each entry of R as its canonical pair (znum, zden); an entry that is
    not a Scalar fails."""
    for row in R:
        for x in row:
            assert type(x) is Scalar, x
    return [[(x.znum, x.zden) for x in row] for row in R]


def _assert_rref_is_the_dense_rref(M):
    """Pivots and entries of the fraction-free RREF against the dense field
    RREF, each entry a Scalar compared by its canonical pair (znum, zden)."""
    R, pivots = linalg.rref(M)
    R_dense, pivots_dense = _dense_rref(M)
    assert pivots == pivots_dense
    assert len(R) == len(M)
    assert _canonical_pairs(R) == _canonical_pairs(
        [[Scalar.of(y) for y in row] for row in R_dense])


class TestFractionFree:
    @pytest.mark.parametrize("family", [_poly_denominators, _shared_factors,
                                        _large_content, _mixed])
    def test_seeded_families(self, family):
        rng = random.Random(f"rref:{family.__name__}")
        for _ in range(25):
            _assert_rref_is_the_dense_rref(family(rng))

    def test_rank_drop_at_a_specialization(self):
        # a - 2 is not zero in Q(a): the row stays a pivot row
        rng = random.Random(41)
        for _ in range(25):
            M, r = _specialization(rng)
            assert linalg.rank(M) == r
            _assert_rref_is_the_dense_rref(M)

    def test_irrational_torus_coboundary_matrices(self):
        for M in _itorus_matrices():
            _assert_rref_is_the_dense_rref(M)
            b = [sum(row, Scalar.of(0)) for row in M]
            x = linalg.solve(M, b)
            assert [sum((a * v for a, v in zip(row, x)), Scalar.of(0))
                    for row in M] == b

    def test_type_contract(self):
        # canonical Scalars for every input, int and Fraction included;
        # never a float, an int or a Fraction
        rng = random.Random(43)
        cases = [_random_matrix(rng, 4, 5, 2),
                 [[0, Fraction(1, 2)], [3, 0]],
                 [[0, 0], [0, 0]],
                 [[0, 1], [2, Scalar.of(0)]],
                 [[Scalar.of(0)] * 3] * 2,
                 [[1, 2], [3, Scalar.of(4)]],
                 _mixed(rng)]
        for M in cases:
            _assert_rref_is_the_dense_rref(M)
            for v in _nullspace(M)[0]:
                assert all(type(x) in (int, Scalar) for x in v)
        assert linalg.rref([]) == ([], [])
        assert linalg.rref([[], []]) == ([[], []], [])


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
        # the RREF is unique and Q lies in Q(a), so int, Fraction and
        # Scalar.of input reduce to the same canonical Scalars, those of the
        # dense RREF
        for M in _matrices(3):
            _assert_rref_is_the_dense_rref(M)
            R, pivots = linalg.rref(M)
            for lift in (Fraction, Scalar.of):
                RL, pivots_l = linalg.rref([[lift(x) for x in row]
                                            for row in M])
                assert pivots_l == pivots
                assert _canonical_pairs(RL) == _canonical_pairs(R)

    def test_no_floating_point(self):
        for M in _matrices(5):
            R, _ = linalg.rref(M)
            results = [x for row in R for x in row]
            results += [x for v in _nullspace(M)[0] for x in v]
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
            basis, _ = _nullspace(M)
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


def _q_alpha_matrices(seed, count=40):
    """Seeded Q(a) matrices: products of rank at most r, so rank-deficient
    when r < min(m, n), next to all-zero ones and ones of width 0."""
    rng = random.Random(seed)

    def entry():
        return rng.choice([
            0, rng.randrange(-3, 4),
            Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)),
            _poly(rng, 2) / rng.choice([1, ALPHA, ALPHA + 1])])

    yield from ([[], []], [[0] * 4 for _ in range(3)], [[Scalar.of(0)] * 5])
    for _ in range(count):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        r = rng.randrange(0, min(m, n) + 1)
        P = [[entry() for _ in range(r)] for _ in range(m)]
        Q = [[entry() for _ in range(n)] for _ in range(r)]
        yield [[sum((P[i][t] * Q[t][j] for t in range(r)), Scalar.of(0))
                for j in range(n)] for i in range(m)]


class TestFreeCoordinates:
    def test_free_columns_are_the_greedy_non_pivots(self):
        # a column is free when it lies in the span of the columns before
        # it; each basis vector is the identity there, ends at its own free
        # column and is killed by M
        for M in _q_alpha_matrices(53):
            n = len(M[0])
            basis, free = _nullspace(M)
            pivots = _dense_rref(M)[1]
            assert free == [j for j in range(n) if j not in pivots]
            assert len(basis) == len(free)
            for v, f in zip(basis, free):
                assert [v[j] for j in free] == [int(j == f) for j in free]
                assert max(j for j, x in enumerate(v) if x) == f
                assert not any(sum((a * x for a, x in zip(row, v)),
                                   Scalar.of(0)) for row in M)
        assert _nullspace([]) == ([], [])

    def test_trailing_pivots_are_the_greedy_complement(self):
        # greedily over [M^T | I]: a unit column e_j is passed over exactly
        # when some vector of the row space of M ends at j; and j ends one
        # exactly when the columns from j on have more rank than those after j
        for M in _q_alpha_matrices(59):
            m, n = len(M), len(M[0])
            ends = linalg.trailing_pivots(M)
            MT_I = [list(col) + [int(i == j) for j in range(n)]
                    for i, col in enumerate(zip(*M))]
            pivots = _dense_rref(MT_I)[1]
            assert ends == [j for j in range(n) if m + j not in pivots]
            ranks = [len(_dense_rref([row[j:] for row in M])[1])
                     for j in range(n + 1)]
            assert ends == [j for j in range(n) if ranks[j] > ranks[j + 1]]
            assert len(ends) == linalg.rank(M)
        assert linalg.trailing_pivots([]) == []
        assert linalg.trailing_pivots([[0, ALPHA, 1]]) == [2]
        assert linalg.trailing_pivots([[0, ALPHA, 1], [0, 1, 0]]) == [1, 2]


def _rref_solve(M, b):
    """The solve route through the full rref of [M | b]: x at each pivot
    column read off the b column, free unknowns int 0, None when the b
    column is a pivot."""
    n = len(M[0]) if M else 0
    R, pivots = linalg.rref([list(row) + [bv] for row, bv in zip(M, b)])
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for r, col in enumerate(pivots):
        x[col] = R[r][n]
    return x


def _rref_nullspace(M):
    """One kernel vector per free column, read off the full rref."""
    n = len(M[0])
    R, pivots = linalg.rref(M)
    basis = []
    for j in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[j] = 1
        for r, col in enumerate(pivots):
            v[col] = -R[r][j]
        basis.append(v)
    return basis


def _typed(v):
    # Scalar(0) == 0, so the type of each entry is compared too
    return None if v is None else [(type(x), x) for x in v]


def _route_matrices():
    """Seeded Z and Q(a) matrices: rank-deficient products, all-zero ones,
    ones of width 0 and ones of one row."""
    rng = random.Random(61)
    yield from _matrices(67)
    yield from _q_alpha_matrices(71)
    for _ in range(10):
        yield _random_matrix(rng, 1, rng.randrange(1, 7), rng.randrange(2))
    yield from ([[0, ALPHA, 0, 1]], [[Fraction(1, 2), 0, ALPHA * ALPHA]],
                [[]], [[0] * 3])


class TestBackSolveRoutes:
    """The forward pass and the back solve of the columns read, against the
    full rref as the oracle."""

    def test_each_back_solved_column_is_the_rref_column(self):
        # the full rref shares the back substitution, so it is checked
        # against the dense field rref first
        for M in _route_matrices():
            _assert_rref_is_the_dense_rref(M)
            R, pivots = linalg.rref(M)
            forward = linalg._forward(M)
            assert forward[0] == pivots
            for j in range(len(M[0])):
                out = linalg._back(*forward, [j])
                # each row leaves out its pivot, the 1 of the reduced form
                column = [Scalar.of(1) if col == j else row.get(j, ZERO)
                          for col, row in zip(pivots, out)]
                assert set().union(*out) <= {j}
                assert _canonical_pairs([column]) == _canonical_pairs(
                    [[row[j] for row in R[:len(pivots)]]])

    def test_kernel_vectors_of_any_free_columns(self):
        # a kernel vector is fixed by its free entries, so it comes out the
        # same whichever other free columns are back-solved with it
        rng = random.Random(73)
        for M in _route_matrices():
            basis = _rref_nullspace(M)
            free, vectors = linalg.kernel(M)
            assert _nullspace(M) == (basis, free)
            assert list(map(_typed, _nullspace(M)[0])) == list(
                map(_typed, basis))
            for _ in range(3):
                picked = sorted(rng.sample(range(len(free)),
                                           rng.randrange(len(free) + 1)))
                out = vectors([free[i] for i in picked])
                assert list(map(_typed, out)) == [_typed(basis[i])
                                                  for i in picked]
                for v in out:
                    # the identity in int at the free columns, a Scalar at
                    # each pivot column, zero ones included
                    assert all(type(v[j]) is int for j in free)
                    assert all(type(x) is Scalar for j, x in enumerate(v)
                               if j not in free)

    def test_solve_is_the_rref_solve(self):
        rng = random.Random(79)
        for M in _route_matrices():
            m, n = len(M), len(M[0])
            x0 = [rng.choice([0, 1, -2, ALPHA, Fraction(1, 3)])
                  for _ in range(n)]
            image = [sum((a * x for a, x in zip(row, x0)), Scalar.of(0))
                     for row in M]
            moved = [rng.randrange(-2, 3) for _ in range(m)]
            for b in (image, [0] * m, moved,
                      [y + z for y, z in zip(image, moved)]):
                x = linalg.solve(M, b)
                assert _typed(x) == _typed(_rref_solve(M, b)), (M, b)
                if x is not None:
                    pivots = linalg.rref(M)[1]
                    assert all(type(v) is (Scalar if j in pivots else int)
                               for j, v in enumerate(x))
        assert any(linalg.solve(M, [1] + [0] * (len(M) - 1)) is None
                   for M in _route_matrices())

    def test_rank_and_trailing_pivots_are_the_rref_pivots(self):
        for M in _route_matrices():
            n = len(M[0])
            assert linalg.rank(M) == len(linalg.rref(M)[1])
            assert linalg.trailing_pivots(M) == sorted(
                n - 1 - p for p in linalg.rref([r[::-1] for r in M])[1])
