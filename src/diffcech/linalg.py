"""Exact linear algebra over the field Q(a).

Matrices are lists of rows.  Entries may be ints, Fractions or Scalars of
Q(a), mixed freely; an entry is zero when it is falsy, and every reduced
entry is a canonical Scalar.  ``rref`` reduces fraction-free, after Bareiss
(Math. Comp. 1968), in one arithmetic: each row is cleared of denominators
once, into a sparse primitive row over Z[a], and a rational entry becomes a
polynomial of length 1.  An element of Z[a] is an integer coefficient tuple,
as inside ``Scalar``, and this module does its arithmetic with ``coeff``'s
private helpers ``_zmul``, ``_zadd``, ``_zquo`` and ``_zgcd``.  A row is
eliminated as p * row - f * pivot row, with p and f divided by their gcd, on
nonzero entries only, and is then divided by its integer content.  Each
output entry is one quotient, made canonical at the end.  The reduced row
echelon form is unique, so the pivot rows may be chosen for small
multipliers.

The reduction runs in two steps: a forward pass, which fixes the pivots, and
a back substitution of the columns asked for, which carries no other
column.  Each entry of the reduced form is fixed by its own column and the
pivot columns, so it comes out the same whichever other columns are
reduced.  ``rank`` and ``trailing_pivots`` read pivots
alone and run the forward pass only; ``solve`` back-substitutes only the
right-hand side; ``kernel`` only the free columns whose vectors are asked
for; ``rref`` every column.  Used by the quotient engines of ``grpcoh`` for
the function-class linear systems of quotient presentations; nerve
cohomology needs none of it, since its integer matrices go through the
Smith normal form of ``coeff``.
"""

from __future__ import annotations

from math import gcd
from typing import List, Optional, Tuple

from .coeff import (ONE, ZERO, Scalar, _make, _zadd, _zgcd, _zmul, _zneg, _zquo,
                    _ztrim)

_Z_ONE = (1,)


# ---------------------------------------------------------------------------
# rows over Z[a]: {column: nonzero int tuple}


def _poly_lift(row):
    """Entries {column: x} of Q(a) as numerators {column: p} over Z[a] and
    their least common denominator, so that x = p / denominator."""
    parts = {j: (x.znum, x.zden) if x.__class__ is Scalar
             else ((x.numerator,), (x.denominator,))
             for j, x in row.items()}
    dens = {d for _, d in parts.values()}
    m = _Z_ONE
    for d in dens:
        m = _zmul(m, _zquo(d, _zgcd(m, d)))
    cofactor = {d: _zquo(m, d) for d in dens}
    return {j: _zmul(n, cofactor[d]) for j, (n, d) in parts.items()}, m


def _poly_row(row):
    """Nonzero entries {column: x} of Q(a) as a primitive row over Z[a]."""
    return _poly_primitive(_poly_lift(row)[0])


def _poly_size(x):
    return len(x), abs(x[-1])


def _poly_primitive(row):
    c = gcd(*[c for x in row.values() for c in x])
    if c > 1:
        return {j: tuple([v // c for v in x]) for j, x in row.items()}
    return row


def _poly_eliminate(row, piv, col):
    """p * row - f * piv for the entries p of piv and f of row at col, over
    the gcd of p and f taken with the sign of lead(p), then made primitive."""
    p, f = piv[col], row[col]
    g = _zgcd(p, f)
    if p[-1] < 0:
        g = _zneg(g)
    if g != _Z_ONE:
        p, f = _zquo(p, g), _zquo(f, g)
    f = _zneg(f)
    new = row.copy() if p == _Z_ONE else {j: _zmul(p, x)
                                          for j, x in row.items()}
    for j, y in piv.items():
        x = new.get(j)
        v = _zmul(f, y) if x is None else _zadd(x, _zmul(f, y))
        if v:
            new[j] = v
        else:
            del new[j]
    return _poly_primitive(new)


def _quotient(x, d):
    """The canonical Scalar x/d of two nonzero polynomials over Z."""
    g = _zgcd(x, d)
    if d[-1] < 0:
        g = _zneg(g)
    if g != _Z_ONE:
        x, d = _zquo(x, g), _zquo(d, g)
    return _make(x, d)


def apply_integer_map(fn, vec):
    """fn(vec) as canonical Scalars, for a Z-linear fn on lists of ints and
    a dense vector over Q(a): the vector is lifted to Z[a] over one
    denominator, and fn maps it power by power."""
    num, den = _poly_lift(dict(enumerate(vec)))
    size = max([1, *map(len, num.values())])
    parts = [fn([p[e] if e < len(p) else 0 for p in num.values()])
             for e in range(size)]
    out = []
    for coeffs in zip(*parts):
        p = _ztrim(list(coeffs))
        out.append(_quotient(p, den) if p else ZERO)
    return out


def _forward(M):
    """The forward pass of the reduction of M: its pivot columns ascending,
    and their pivot rows, primitive over Z[a] and each with no entry before
    its pivot."""
    n = len(M[0]) if M else 0
    # the zero Scalar is mostly the one ZERO, passed over without a call
    rows = [{j: x for j, x in enumerate(row) if x is not ZERO and x}
            for row in M]
    active = [r for r in map(_poly_row, rows) if r]
    done, pivots = [], []
    for col in range(n):
        hits = [row for row in active if col in row]
        if not hits:
            continue
        # the smallest pivot entry, then the sparsest row
        piv = min(hits, key=lambda row: (_poly_size(row[col]), len(row)))
        active = [row for row in active if col not in row]
        for row in hits:
            if row is not piv:
                row = _poly_eliminate(row, piv, col)
                if row:
                    active.append(row)
        done.append(piv)
        pivots.append(col)
        if not active:
            break
    return pivots, done


def _back(pivots, done, cols):
    """The columns cols of the reduced row echelon form, from the forward
    pass (pivots, done): one {column: nonzero canonical Scalar} per
    pivot row, its pivot left out.  A row operation acts on each column
    alone, with multipliers read at pivot columns, and the reduced form is
    unique; so each row carries only its pivot and the non-pivot columns of
    cols.  Under the key -1 it carries the factor s that its row operations
    have multiplied it by: its entry at a later pivot column c is s times
    the forward row's, read off as c is eliminated."""
    keep = set(cols).difference(pivots)
    rows = []
    # from the last pivot row up, so that every row used is already reduced
    # and brings in no pivot column but its own
    for k in range(len(done) - 1, -1, -1):
        old = done[k]
        row = {j: x for j, x in old.items() if j in keep}
        row[pivots[k]] = old[pivots[k]]
        row[-1] = _Z_ONE
        for col, piv in zip(pivots[:k:-1], rows):
            if col in old:
                row[col] = _zmul(row[-1], old[col])
                row = _poly_eliminate(row, piv, col)
        del row[-1]
        rows.append(row)
    out = []
    for col, row in zip(pivots, reversed(rows)):
        d = row.pop(col)
        out.append({j: _quotient(x, d) for j, x in row.items()})
    return out


def rref(M) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form, its entries canonical Scalars, and the
    pivot column indices: the forward pass and the back substitution of
    every column."""
    m = len(M)
    n = len(M[0]) if m else 0
    pivots, done = _forward(M)
    R = []
    for col, row in zip(pivots, _back(pivots, done, range(n))):
        out = [ZERO] * n
        out[col] = ONE
        for j, x in row.items():
            out[j] = x
        R.append(out)
    R += [[ZERO] * n for _ in range(m - len(pivots))]
    return R, pivots


def rank(M) -> int:
    """The number of pivots of M, from the forward pass alone."""
    return len(_forward(M)[0])


def kernel(M):
    """The free columns of M, ascending, from the forward pass alone, and a
    function that back-solves the kernel vectors of the free columns given:
    one vector per column, the identity at the free columns (int 1 at its
    own, int 0 at the others) and a Scalar at each pivot column.  Only the
    columns asked for are back-substituted; each vector is fixed by its
    entries at the free columns, so it does not depend on which others
    are.  With no column there is none, and no reduction."""
    n = len(M[0]) if M else 0
    pivots, done = _forward(M) if n else ([], [])
    pivot_set = set(pivots)

    def vectors(cols):
        rows = _back(pivots, done, cols)
        basis = []
        for j in cols:
            v = [0] * n
            v[j] = 1
            for col, row in zip(pivots, rows):
                v[col] = -row.get(j, ZERO)
            basis.append(v)
        return basis

    return [j for j in range(n) if j not in pivot_set], vectors


def trailing_pivots(M) -> List[int]:
    """The columns, ascending, at which some vector of the row space of M
    has its last nonzero entry: the pivots of M with its columns reversed,
    from the forward pass alone.  With no row there is none, and no
    reduction."""
    if not M:
        return []
    n = len(M[0])
    return sorted(n - 1 - p for p in _forward([row[::-1] for row in M])[0])


def solve(M, b) -> Optional[list]:
    """One exact solution of M x = b, free unknowns int 0, or None when
    inconsistent (the augmented column is a pivot).  The forward pass runs
    on [M | b] and only the b column is back-substituted: with the free
    unknowns 0, x at each pivot column is that column's entry in the
    reduced form, a Scalar, which the other columns do not change."""
    n = len(M[0]) if M else 0
    pivots, done = _forward([list(row) + [bv] for row, bv in zip(M, b)])
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for col, row in zip(pivots, _back(pivots, done, [n])):
        x[col] = row.get(n, ZERO)
    return x
