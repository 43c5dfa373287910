"""Finite-dimensional polynomial function classes with affine group actions.

A ``FunctionClass`` models the smooth functions a presentation actually needs:
polynomial maps of bounded total degree on the nebula domain, valued in the
scalar-field model of R.  Affine precomposition (translations, reflections)
never raises the total degree, so the class is closed under every action the
gallery uses.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement
from typing import Dict, Sequence, Tuple

from .coeff import ZERO, RAlphaGroup, Scalar
from .errors import ClassError
from .exprs import (format_poly_terms, mul_terms, neg_terms,
                    parse_poly_terms, scale_terms, sum_terms)
from . import linalg

Expo = Tuple[int, ...]

_ONE = Scalar.of(1)
_R = RAlphaGroup()
_new = object.__new__


class AffineMap:
    """x |-> A x + b with exact scalar entries."""

    __slots__ = ("a", "b", "_images")

    def __init__(self, a, b):
        self.a = tuple(tuple(Scalar.of(x) for x in row) for row in a)
        self.b = tuple(Scalar.of(x) for x in b)
        n = len(self.b)
        if len(self.a) != n or any(len(row) != n for row in self.a):
            raise ClassError("affine map has inconsistent dimensions")
        # monomial y^e -> sparse coefficients of (phi(y))^e, filled on demand
        self._images = {(0,) * n: {(0,) * n: _ONE}}

    @property
    def dim(self):
        return len(self.b)

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], [0] * n
        )

    @staticmethod
    def translation(b) -> "AffineMap":
        n = len(b)
        return AffineMap(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], b
        )

    def apply(self, point: Sequence[Scalar]):
        return tuple(
            sum((aij * x for aij, x in zip(row, point)), Scalar.of(0)) + bi
            for row, bi in zip(self.a, self.b)
        )

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: x |-> self(other(x)), each entry a dot product
        of canonical rows that skips zero factors."""
        cols = [*zip(*other.a), other.b]
        a, b = [], []
        for row, bi in zip(self.a, self.b):
            out = [_dot(row, col) for col in cols]
            last = out.pop()
            a.append(tuple(out))
            b.append(last + bi if last else bi)
        return _affine(tuple(a), tuple(b))

    def power(self, n: int) -> "AffineMap":
        """self composed with itself n times (powers of the inverse for
        n < 0), by repeated squaring."""
        base = self if n >= 0 else self.inverse()
        n, out = abs(n), None
        while n:
            if n & 1:
                out = base if out is None else base.compose(out)
            n >>= 1
            if n:
                base = base.compose(base)
        return out if out is not None else AffineMap.identity(self.dim)

    def monomial_image(self, e: Expo) -> Dict[Expo, Scalar]:
        """y |-> (phi(y))^e as {exponent: coefficient}, memoized on self.

        img(e) = img(e - u_i) * phi_i, peeling the first variable that e
        uses; phi_i is the affine row sum_j a_ij y_j + b_i.
        """
        img = self._images.get(e)
        if img is not None:
            return img
        i = next(j for j, k in enumerate(e) if k)
        prev = self.monomial_image(e[:i] + (e[i] - 1,) + e[i + 1:])
        origin = (0,) * self.dim
        phi_i = {origin[:j] + (1,) + origin[j + 1:]: aij
                 for j, aij in enumerate(self.a[i]) if not aij.is_zero()}
        if not self.b[i].is_zero():
            phi_i[origin] = self.b[i]
        img = self._images[e] = mul_terms(prev, phi_i)
        return img

    def inverse(self) -> "AffineMap":
        n = self.dim
        ident = AffineMap.identity(n).a
        aug, pivots = linalg.rref(
            [row + e for row, e in zip(self.a, ident)])
        if pivots != list(range(n)):
            raise ClassError("affine map is not invertible")
        ainv = [row[n:] for row in aug]
        binv = [
            -sum((ainv[i][k] * self.b[k] for k in range(n)), Scalar.of(0))
            for i in range(n)
        ]
        return AffineMap(ainv, binv)

    def __eq__(self, other):
        return (
            isinstance(other, AffineMap) and self.a == other.a and self.b == other.b
        )

    def __hash__(self):
        return hash((self.a, self.b))

    def is_identity(self):
        return self == AffineMap.identity(self.dim)

    def __repr__(self):
        return f"AffineMap(a={self.a}, b={self.b})"


def _dot(u, v) -> Scalar:
    acc = None
    for x, y in zip(u, v):
        if x and y:
            acc = x * y if acc is None else acc + x * y
    return ZERO if acc is None else acc


def _affine(a, b) -> AffineMap:
    """An affine map from tuples of canonical Scalars; nothing is checked."""
    phi = _new(AffineMap)
    phi.a, phi.b = a, b
    n = len(b)
    phi._images = {(0,) * n: {(0,) * n: _ONE}}
    return phi


def monomial_basis(n: int, max_degree: int):
    """All exponent tuples of total degree <= max_degree, graded lex order."""
    if n == 0:  # the one empty monomial, however large max_degree is
        return [()] if max_degree >= 0 else []
    basis = []
    for d in range(max_degree + 1):
        degs = set()
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for i in combo:
                e[i] += 1
            degs.add(tuple(e))
        basis.extend(sorted(degs))
    return basis


class FunctionClass:
    """Polynomials of total degree <= max_degree in n variables."""

    def __init__(self, n: int, max_degree: int):
        self.n = n
        self.max_degree = max_degree

    @cached_property
    def basis(self):
        return monomial_basis(self.n, self.max_degree)

    @property
    def dimension(self):
        return len(self.basis)

    def zero(self) -> "FunctionElement":
        return _make(self, {})

    def monomial(self, e: Expo) -> "FunctionElement":
        return FunctionElement(self, {tuple(e): _ONE})

    def parse(self, text: str) -> "FunctionElement":
        return FunctionElement(self, parse_poly_terms(text, self.n,
                                                      self.max_degree))

    def from_coordinates(self, coords) -> "FunctionElement":
        terms = {
            e: Scalar.of(c) for e, c in zip(self.basis, coords) if Scalar.of(c)
        }
        return FunctionElement(self, terms)

    def widen(self, extra: int) -> "FunctionClass":
        return FunctionClass(self.n, self.max_degree + extra)

    def random(self, rng) -> "FunctionElement":
        return self.from_coordinates([_R.random(rng) for _ in self.basis])

    def __eq__(self, other):
        return (
            isinstance(other, FunctionClass)
            and self.n == other.n
            and self.max_degree == other.max_degree
        )

    def __hash__(self):
        return hash((self.n, self.max_degree))

    def __repr__(self):
        return f"FunctionClass(n={self.n}, D={self.max_degree})"


class FunctionElement:
    """A polynomial in its class, stored sparsely by monomial.

    The constructor checks every term; arithmetic inside the package builds
    its results with ``_make``, which trusts terms that are canonical by
    construction.
    """

    __slots__ = ("cls", "terms")

    def __init__(self, cls: FunctionClass, terms: Dict[Expo, Scalar]):
        clean = {}
        for e, c in terms.items():
            c = Scalar.of(c)
            if c.is_zero():
                continue
            if len(e) != cls.n:
                raise ClassError(f"monomial {e} has wrong arity for {cls!r}")
            if sum(e) > cls.max_degree:
                raise ClassError(
                    f"monomial {e} exceeds max degree {cls.max_degree}"
                )
            clean[tuple(e)] = c
        self.cls = cls
        self.terms = clean

    def in_class(self, cls: FunctionClass) -> "FunctionElement":
        if cls.n != self.cls.n:
            raise ClassError("cannot move between classes of different arity")
        if cls.max_degree >= self.cls.max_degree:
            return _make(cls, self.terms)
        return FunctionElement(cls, self.terms)  # narrowing: check degrees

    def __add__(self, other):
        return _make(_join(self.cls, other.cls),
                     sum_terms(((1, self.terms), (1, other.terms))))

    def __neg__(self):
        return _make(self.cls, neg_terms(self.terms))

    def __sub__(self, other):
        return _make(_join(self.cls, other.cls),
                     sum_terms(((1, self.terms), (-1, other.terms))))

    def scale(self, s) -> "FunctionElement":
        return _make(self.cls, scale_terms(self.terms, Scalar.of(s)))

    __mul__ = scale

    def is_zero(self):
        return not self.terms

    def coordinates(self):
        """Coefficient vector in the monomial basis of the class."""
        return [self.terms.get(e, Scalar.of(0)) for e in self.cls.basis]

    def evaluate(self, point: Sequence):
        pt = [Scalar.of(x) for x in point]
        total = Scalar.of(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                for _ in range(k):
                    v = v * x
            total = total + v
        return total

    def compose_affine(self, phi: AffineMap) -> "FunctionElement":
        """Coefficients of y |-> self(phi(y)), computed exactly: the sum of
        c * image(e) over the terms, which stays in the class because an
        affine map never raises the total degree."""
        if phi.dim != self.cls.n:
            raise ClassError("affine map has wrong dimension for this class")
        out = {}
        image = phi.monomial_image
        for e, c in self.terms.items():
            for f, v in image(e).items():
                s = c * v
                out[f] = out[f] + s if f in out else s
        return _make(self.cls, {f: s for f, s in out.items()
                                if not s.is_zero()})

    def __eq__(self, other):
        return (
            isinstance(other, FunctionElement)
            and self.cls.n == other.cls.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.cls.n, frozenset(self.terms.items())))

    def __str__(self):
        return format_poly_terms(self.terms)

    def __repr__(self):
        return f"FunctionElement({self})"


def _make(cls: FunctionClass, terms: Dict[Expo, Scalar]) -> FunctionElement:
    """An element from terms already canonical in cls: nonzero Scalars on
    exponent tuples of its arity and degree.  Nothing is checked."""
    h = _new(FunctionElement)
    h.cls = cls
    h.terms = terms
    return h


def _join(a: FunctionClass, b: FunctionClass) -> FunctionClass:
    """The class of a sum: the wider of a and b, a when they are as wide."""
    if a.n != b.n:
        raise ClassError("arity mismatch")
    return a if a.max_degree >= b.max_degree else b


def signed_sum(cls: FunctionClass, signed) -> FunctionElement:
    """The sum of s * h over the (s, h) pairs, s = 1 or -1, added into one
    dict (`exprs.sum_terms`); its class is the one that adding the hs to an
    element of cls one by one gives."""
    parts = []
    for s, h in signed:
        if h.cls is not cls:
            cls = _join(cls, h.cls)
        parts.append((s, h.terms))
    return _make(cls, sum_terms(parts))


def act(phi: AffineMap, h: FunctionElement) -> FunctionElement:
    """The precomposition action: (act(phi, h))(y) = h(phi(y))."""
    return h.compose_affine(phi)

