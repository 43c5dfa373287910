"""Exact linear algebra over any field of exact elements.

Matrices are lists of rows.  Entries may be ints, Fractions or Scalars of
Q(a), mixed freely: an entry is zero when it is falsy, and pivots are
inverted as ``Fraction(1) / pivot``, so integer and rational systems are
reduced over Q as they are and never meet floating point.  The reduced row
echelon form is unique, so a rational matrix gives the same pivots and
values here as its lift to Q(a).  Used wherever coefficients live in a field:
field-coefficient cohomology of nerves and the function-class linear systems
of quotient presentations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

_ONE = Fraction(1)


def rref(M) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form and the pivot column indices."""
    A = [list(row) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if A[i][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = _ONE / A[r][col]
        A[r] = [x * inv if x else x for x in A[r]]
        for i in range(m):
            if i != r and A[i][col]:
                f = A[i][col]
                A[i] = [x - f * y if y else x for x, y in zip(A[i], A[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return A, pivots


def rank(M) -> int:
    return len(rref(M)[1])


def nullspace(M) -> List[list]:
    """Basis of the kernel, one vector per free column, deterministic order."""
    n = len(M[0]) if M else 0
    if n == 0:
        return []
    R, pivots = rref(M)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -R[r][free]
        basis.append(v)
    return basis


def solve(M, b) -> Optional[list]:
    """One exact solution of M x = b, free unknowns 0, or None when
    inconsistent (the augmented column is a pivot)."""
    n = len(M[0]) if M else 0
    R, pivots = rref([list(row) + [bv] for row, bv in zip(M, b)])
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for r, col in enumerate(pivots):
        x[col] = R[r][n]
    return x
