"""The sparse Smith normal form against the dense one it replaced.

`_dense_snf` below is the earlier dense implementation, kept verbatim as the
oracle.  Both follow the same pivot sequence, so D, U, V and V^-1 must agree
entry by entry, whichever factors are tracked.  `_snf` gets sparse rows, as
`boundary_matrix` returns them, and the oracle their densified copy.
"""

import itertools
import random

import pytest

from diffcech import gallery
from diffcech.cech import boundary_matrix
from diffcech.coeff import _snf, sparse_apply, sparse_mix

from test_cech import GALLERY_NERVES, _dense_rows, _torus_nerve
from test_coeff import _sparse


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _dense_snf(M, want_u=True, want_v=True, want_vinv=False):
    """Diagonalize M by unimodular row/column operations.

    Returns (D, U, V, Vinv) with D = U*M*V; untracked factors are None.
    Pivot rule: smallest magnitude nonzero entry, row-major tie-break.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(row) for row in M]
    U = _identity(m) if want_u else None
    V = _identity(n) if want_v else None
    Vinv = _identity(n) if want_vinv else None

    def swap_rows(i, j):
        if i == j:
            return
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def add_row(i, j, q):
        # row i += q * row j
        ai, aj = A[i], A[j]
        for k in range(n):
            if aj[k]:
                ai[k] += q * aj[k]
        if U is not None:
            ui, uj = U[i], U[j]
            for k in range(m):
                if uj[k]:
                    ui[k] += q * uj[k]

    def neg_row(i):
        A[i] = [-x for x in A[i]]
        if U is not None:
            U[i] = [-x for x in U[i]]

    def swap_cols(i, j):
        if i == j:
            return
        for row in A:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]
        if Vinv is not None:
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def add_col(i, j, q):
        # col i += q * col j
        for row in A:
            if row[j]:
                row[i] += q * row[j]
        if V is not None:
            for row in V:
                if row[j]:
                    row[i] += q * row[j]
        if Vinv is not None:
            # (E^-1) Vinv with E = I + q*e_j e_i^T: row j -= q * row i
            rj, ri = Vinv[j], Vinv[i]
            for k in range(n):
                if ri[k]:
                    rj[k] -= q * ri[k]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            row = A[i]
            if not any(row):
                continue
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return best
        return best

    def diagonalize(t0):
        t = t0
        while t < min(m, n):
            piv = find_pivot(t)
            if piv is None:
                break
            _, pi, pj = piv
            swap_rows(t, pi)
            swap_cols(t, pj)
            while True:
                p = A[t][t]
                dirty = False
                for i in range(t + 1, m):
                    if A[i][t]:
                        q = A[i][t] // p
                        add_row(i, t, -q)
                        if A[i][t]:
                            dirty = True
                for j in range(t + 1, n):
                    if A[t][j]:
                        q = A[t][j] // p
                        add_col(j, t, -q)
                        if A[t][j]:
                            dirty = True
                if not dirty:
                    break
                piv = find_pivot(t)
                _, pi, pj = piv
                swap_rows(t, pi)
                swap_cols(t, pj)
            t += 1
        return t

    rank = diagonalize(0)
    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = A[i][i], A[i + 1][i + 1]
            if di and dj and dj % di != 0:
                add_col(i, i + 1, 1)
                diagonalize(i)
                changed = True
    for i in range(rank):
        if A[i][i] < 0:
            neg_row(i)
    return A, U, V, Vinv




def _check_inverse(M, n, rng):
    """Uinv, tracked by columns, is the inverse of U: exactly on small
    matrices, and on seeded vectors x through U * (Uinv * x) = x."""
    S = _snf(M, n, want_uinv=True)
    m = len(M)
    if m <= 60:
        U = S.dense()[1]
        Uinv = [[S.Uinv[j].get(i, 0) for j in range(m)] for i in range(m)]
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*Uinv)]
                for row in U] == _identity(m)
    for _ in range(3):
        x = [rng.randrange(-9, 10) for _ in range(m)]
        y = sparse_mix({i: v for i, v in enumerate(x) if v}, S.Uinv)
        assert sparse_apply(S.U, _dense_rows([y], m)[0]) == x


def _check(M, n, flags=None):
    """The sparse rows M with n columns against the oracle on their dense
    copy.  The oracle reads the column count off the first row, so with no
    rows its V and V^-1 are the identity on n columns."""
    for want in ([flags] if flags else
                 itertools.product((False, True), repeat=3)):
        want_u, want_v, want_vinv = want
        got = _snf(M, n, want_u=want_u, want_v=want_v, want_vinv=want_vinv)
        oracle = _dense_snf(_dense_rows(M, n), want_u, want_v, want_vinv)
        if not M:
            oracle = oracle[:2] + tuple(_identity(n) if w else None
                                        for w in (want_v, want_vinv))
        assert got.dense() == oracle, want
    _check_inverse(M, n, random.Random(len(M)))


def _random_matrix(rng):
    rows, cols = rng.randrange(0, 7), rng.randrange(1, 7)
    bound = rng.choice((1, 2, 9, 100))
    fill = rng.choice((0.0, 0.3, 0.7, 1.0))
    return [[rng.randrange(-bound, bound + 1) if rng.random() < fill else 0
             for _ in range(cols)] for _ in range(rows)]


def test_seeded_random_matrices():
    rng = random.Random(1201)
    shapes = set()
    for _ in range(400):
        M = _random_matrix(rng)
        shapes.add((len(M), len(M[0]) if M else 0, any(map(any, M))))
        _check(_sparse(M), len(M[0]) if M else 0)
    # empty, one-column and all-zero matrices are among them
    assert (0, 0, False) in shapes
    assert any(c == 1 for _, c, _ in shapes)
    assert any(r and not nonzero for r, _, nonzero in shapes)


@pytest.mark.parametrize("M,diag", [
    ([[2, 0], [0, 3]], [1, 6]),
    ([[6, 0, 0], [0, 4, 0], [0, 0, 10]], [2, 2, 60]),
    ([[4, 0], [0, 6], [0, 0]], [2, 12]),
    ([[0, 9, 0], [15, 0, 0]], [3, 45]),
])
def test_divisibility_chain(M, diag):
    assert _snf(_sparse(M), len(M[0])).diag == diag
    _check(_sparse(M), len(M[0]))


@pytest.mark.parametrize("name", GALLERY_NERVES)
def test_gallery_nerves(name):
    pres = gallery.get_presentation(name)
    for k in range(pres.k_max):
        _check(boundary_matrix(pres, k), len(pres.tuples(k)))


@pytest.mark.parametrize("size,alternating", [
    (size, alternating) for size in (4, 5, 6) for alternating in (True, False)])
def test_torus_boundary_matrices(size, alternating):
    # the repeats-allowed degree-2 matrices of the 5x5 torus (2875 x 775)
    # take the dense oracle several seconds, and that of the 6x6 torus is
    # over the matrix side limit
    pres = _torus_nerve(size, alternating)
    degrees = range(pres.k_max if alternating or size == 4 else 2)
    for k in degrees:
        _check(boundary_matrix(pres, k), len(pres.tuples(k)),
               flags=(True, True, True))


def _sparse_matrix(rng, units):
    """Seeded sparse rows up to 24 x 24 and their column count; without
    units every pivot leaves remainders, so the pivot moves and the
    divisibility chain needs fixing."""
    rows, n = rng.randrange(1, 25), rng.randrange(1, 25)
    fill = rng.choice((0.1, 0.2, 0.35))
    values = (-3, -2, -1, 1, 2, 3) if units else (-15, -10, -9, -6, -4, -3,
                                                 -2, 2, 3, 4, 6, 9, 10, 15)
    return [{j: rng.choice(values) for j in range(n) if rng.random() < fill}
            for _ in range(rows)], n


def test_seeded_sparse_matrices_that_re_pivot():
    rng = random.Random(2001)
    diags = []
    for trial in range(40):
        M, n = _sparse_matrix(rng, units=trial % 2)
        _check(M, n)
        diags.append(_snf(M, n, want_u=False, want_v=False).diag)
    # non-unit invariant factors are among them
    assert sum(any(d > 1 for d in diag) for diag in diags) >= 10


def test_tracked_factors_do_not_depend_on_the_others():
    rng = random.Random(2002)
    cases = [_sparse_matrix(rng, units=trial % 2) for trial in range(16)]
    for name in GALLERY_NERVES:
        pres = gallery.get_presentation(name)
        cases += [(boundary_matrix(pres, k), len(pres.tuples(k)))
                  for k in range(pres.k_max)]
    for M, n in cases:
        full = _snf(M, n, True, True, True, True)
        for want in itertools.product((False, True), repeat=4):
            got = _snf(M, n, *want)
            assert got.diag == full.diag
            for factor, tracked in zip(("U", "V", "Vinv", "Uinv"), want):
                assert getattr(got, factor) == (
                    getattr(full, factor) if tracked else None), want
