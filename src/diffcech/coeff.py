"""Exact abelian coefficient groups and integer matrix normal forms.

The scalar field is Q(a), rational functions in a formal symbol ``a`` with
rational coefficients.  The symbol stands for a fixed irrational number and is
treated as transcendental, so equality of scalars is decidable and exact.
Group elements carry a group tag; all arithmetic keeps canonical
representatives (residues in [0,m) for Z/m, rationals in [0,1) for Q/Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import ClassError, ParseError, TagError

# ---------------------------------------------------------------------------
# univariate polynomials over Q, represented as tuples of Fractions
# (index = power of the symbol, no trailing zeros, () is the zero polynomial)


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(p, q):
    n = max(len(p), len(q))
    return _ptrim(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def _pneg(p):
    return tuple(-c for c in p)


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ptrim(out)


def _pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    lead = q[-1]
    while len(rem) >= len(q):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(q):
            break
        c = rem[-1] / lead
        d = len(rem) - len(q)
        quo[d] = c
        for i, b in enumerate(q):
            rem[i + d] -= c * b
        rem.pop()
    return _ptrim(quo), _ptrim(rem)


def _pmonic(p):
    if not p:
        return p
    lead = p[-1]
    return tuple(c / lead for c in p)


def _pgcd(p, q):
    while q:
        p, q = q, _pdivmod(p, q)[1]
    return _pmonic(p)


_P_ONE = (Fraction(1),)


def _fmt_poly(p, sym="a"):
    """Canonical compact form, descending powers, e.g. '2*a^2-a+1'."""
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        if k == 0:
            term = str(c) if c > 0 else str(-c)
        else:
            mag = abs(c)
            base = sym if k == 1 else f"{sym}^{k}"
            term = base if mag == 1 else f"{mag}*{base}"
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+" if c > 0 else "-") + term)
    return "".join(parts)


class Scalar:
    """An element of Q(a), kept in canonical reduced form.

    Canonical form: numerator/denominator coprime, denominator monic.  Two
    scalars are equal iff their canonical representations are identical.
    A denominator equal to 1 is always the one tuple ``_P_ONE``, so
    ``den is _P_ONE`` tells a polynomial, and polynomials add and multiply
    without a gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P_ONE):
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            num, den = (), _P_ONE
        elif len(den) == 1:
            lead = den[0]
            if lead != 1:
                num = tuple(c / lead for c in num)
            den = _P_ONE
        else:
            g = _pgcd(num, den)
            if len(g) > 1 or g[0] != 1:
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
            lead = den[-1]
            if lead != 1:
                num = tuple(c / lead for c in num)
                den = tuple(c / lead for c in den)
            if den == _P_ONE:
                den = _P_ONE
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            f = Fraction(x)
            return Scalar(() if f == 0 else (f,))
        raise TypeError(f"cannot convert {x!r} to Scalar")

    @staticmethod
    def alpha() -> "Scalar":
        return Scalar((Fraction(0), Fraction(1)))

    @staticmethod
    def parse(text: str) -> "Scalar":
        from .exprs import parse_scalar

        return parse_scalar(text)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        other = Scalar.of(other)
        if self.den is _P_ONE and other.den is _P_ONE:
            return Scalar(_padd(self.num, other.num))
        return Scalar(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return Scalar(_pneg(self.num), self.den)

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        other = Scalar.of(other)
        if self.den is _P_ONE and other.den is _P_ONE:
            return Scalar(_pmul(self.num, other.num))
        return Scalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        if not other.num:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return len(self.num) <= 1 and self.den == _P_ONE

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ClassError(f"scalar {self} is not rational")
        return self.num[0] if self.num else Fraction(0)

    def is_integer(self) -> bool:
        return self.is_rational() and self.as_fraction().denominator == 1

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ClassError(f"scalar {self} is not an integer")
        return f.numerator

    def alpha_coefficients(self):
        """Coefficients (c0, c1, ...) when the scalar is a polynomial in a."""
        if self.den != _P_ONE:
            raise ClassError(f"scalar {self} is not polynomial in a")
        return self.num

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __str__(self):
        num = _fmt_poly(self.num)
        if self.den == _P_ONE:
            return num
        nterms = sum(1 for c in self.num if c != 0)
        if nterms > 1 or self.num[-1] < 0:
            num = f"({num})"
        den = _fmt_poly(self.den)
        if sum(1 for c in self.den if c != 0) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"Scalar({self})"


ZERO = Scalar(())
ONE = Scalar.of(1)
ALPHA = Scalar.alpha()


# ---------------------------------------------------------------------------
# coefficient groups


class Group:
    """An effective abelian group with exact, canonical arithmetic."""

    tag: str

    def zero(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def canonical(self, x):
        raise NotImplementedError

    def mul_int(self, n: int, x):
        raise NotImplementedError

    def div_int(self, n: int, x):
        """A solution g of n*g = x, or None if none exists."""
        raise NotImplementedError

    def random(self, rng):
        raise NotImplementedError

    def format_el(self, x) -> str:
        raise NotImplementedError

    def parse_el(self, s: str):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Group) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"Group[{self.tag}]"


class ZGroup(Group):
    tag = "Z"

    def zero(self):
        return 0

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def canonical(self, x):
        if not isinstance(x, int):
            raise TagError(f"Z element must be int, got {x!r}")
        return x

    def mul_int(self, n, x):
        return n * x

    def div_int(self, n, x):
        if n == 0:
            return 0 if x == 0 else None
        return x // n if x % n == 0 else None

    def random(self, rng):
        return rng.randrange(-9, 10)

    def format_el(self, x):
        return str(x)

    def parse_el(self, s):
        try:
            return int(s)
        except ValueError:
            raise ParseError(f"bad Z element {s!r}")


class ZmodGroup(Group):
    def __init__(self, m: int):
        if m < 2:
            raise ParseError(f"modulus must be >= 2, got {m}")
        self.m = m
        self.tag = f"Z/{m}"

    def zero(self):
        return 0

    def add(self, x, y):
        return (x + y) % self.m

    def neg(self, x):
        return (-x) % self.m

    def canonical(self, x):
        if not isinstance(x, int):
            raise TagError(f"{self.tag} element must be int, got {x!r}")
        return x % self.m

    def mul_int(self, n, x):
        return (n * x) % self.m

    def div_int(self, n, x):
        import math

        n %= self.m
        if n == 0:
            return 0 if x % self.m == 0 else None
        d = math.gcd(n, self.m)
        if x % d != 0:
            return None
        mm = self.m // d
        return ((x // d) * pow(n // d, -1, mm)) % self.m if mm > 1 else 0

    def random(self, rng):
        return rng.randrange(self.m)

    def format_el(self, x):
        return str(x)

    def parse_el(self, s):
        try:
            return int(s) % self.m
        except ValueError:
            raise ParseError(f"bad {self.tag} element {s!r}")


class QmodZGroup(Group):
    tag = "Q/Z"

    def zero(self):
        return Fraction(0)

    def add(self, x, y):
        return (x + y) % 1

    def neg(self, x):
        return (-x) % 1

    def canonical(self, x):
        if isinstance(x, int):
            x = Fraction(x)
        if not isinstance(x, Fraction):
            raise TagError(f"Q/Z element must be Fraction, got {x!r}")
        return x % 1

    def mul_int(self, n, x):
        return (n * x) % 1

    def div_int(self, n, x):
        if n == 0:
            return Fraction(0) if x == 0 else None
        return (x / n) % 1

    def random(self, rng):
        d = rng.choice([2, 3, 4, 6, 12])
        return Fraction(rng.randrange(d), d)

    def format_el(self, x):
        return str(x)

    def parse_el(self, s):
        try:
            return Fraction(s) % 1
        except ValueError:
            raise ParseError(f"bad Q/Z element {s!r}")


class RAlphaGroup(Group):
    """Additive group of the scalar field; the exact model of R."""

    tag = "R(alpha)"

    def zero(self):
        return ZERO

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def canonical(self, x):
        if isinstance(x, (int, Fraction)):
            return Scalar.of(x)
        if not isinstance(x, Scalar):
            raise TagError(f"R(alpha) element must be Scalar, got {x!r}")
        return x

    def mul_int(self, n, x):
        return x * n

    def div_int(self, n, x):
        if n == 0:
            return ZERO if x.is_zero() else None
        return x / n

    def random(self, rng):
        return Scalar.of(Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3]))) + (
            ALPHA * Fraction(rng.randrange(-3, 4))
        )

    def format_el(self, x):
        return str(x)

    def parse_el(self, s):
        return Scalar.parse(s)


def _split_top(text: str):
    """Split at the commas outside any brackets; no parts for ''."""
    if not text:
        return []
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return parts


class ProductGroup(Group):
    def __init__(self, factors: Sequence[Group]):
        self.factors = tuple(factors)
        self.tag = "prod[" + ",".join(g.tag for g in self.factors) + "]"

    def zero(self):
        return tuple(g.zero() for g in self.factors)

    def add(self, x, y):
        return tuple(g.add(a, b) for g, a, b in zip(self.factors, x, y))

    def neg(self, x):
        return tuple(g.neg(a) for g, a in zip(self.factors, x))

    def canonical(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.factors):
            raise TagError(f"{self.tag} element must be a {len(self.factors)}-tuple")
        return tuple(g.canonical(a) for g, a in zip(self.factors, x))

    def mul_int(self, n, x):
        return tuple(g.mul_int(n, a) for g, a in zip(self.factors, x))

    def div_int(self, n, x):
        parts = [g.div_int(n, a) for g, a in zip(self.factors, x)]
        return None if any(p is None for p in parts) else tuple(parts)

    def random(self, rng):
        return tuple(g.random(rng) for g in self.factors)

    def format_el(self, x):
        return "(" + ",".join(g.format_el(a) for g, a in zip(self.factors, x)) + ")"

    def parse_el(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ParseError(f"bad product element {s!r}")
        parts = _split_top(s[1:-1])
        if len(parts) != len(self.factors):
            raise ParseError(f"bad product element {s!r}")
        return tuple(g.parse_el(p) for g, p in zip(self.factors, parts))


def group_from_tag(tag: str) -> Group:
    tag = tag.strip()
    if tag == "Z":
        return ZGroup()
    if tag == "Q/Z":
        return QmodZGroup()
    if tag == "R(alpha)":
        return RAlphaGroup()
    if tag.startswith("Z/"):
        try:
            return ZmodGroup(int(tag[2:]))
        except ValueError:
            raise ParseError(f"bad group tag {tag!r}")
    if tag.startswith("prod[") and tag.endswith("]"):
        return ProductGroup([group_from_tag(p) for p in _split_top(tag[5:-1])])
    raise ParseError(f"unknown group tag {tag!r}")


class GroupElement:
    """A value paired with its group; arithmetic checks tags."""

    __slots__ = ("group", "value")

    def __init__(self, group: Group, value):
        self.group = group
        self.value = group.canonical(value)

    def _check(self, other):
        if not isinstance(other, GroupElement):
            raise TagError(f"expected GroupElement, got {other!r}")
        if other.group != self.group:
            raise TagError(f"tag mismatch: {self.group.tag} vs {other.group.tag}")

    def __add__(self, other):
        self._check(other)
        return GroupElement(self.group, self.group.add(self.value, other.value))

    def __neg__(self):
        return GroupElement(self.group, self.group.neg(self.value))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, n: int):
        return GroupElement(self.group, self.group.mul_int(n, self.value))

    __rmul__ = __mul__

    def is_zero(self):
        return self.value == self.group.zero()

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group == other.group and self.value == other.value

    def __hash__(self):
        return hash((self.group.tag, self.value))

    def __str__(self):
        return self.group.format_el(self.value)

    def __repr__(self):
        return f"<{self.group.tag}: {self}>"


# ---------------------------------------------------------------------------
# short exact coefficient sequences


@dataclass(frozen=True)
class CoefficientSES:
    """0 -> A -> B -> C -> 0 with a deterministic lifting oracle C -> B."""

    a: Group
    b: Group
    c: Group
    injection: Callable
    surjection: Callable
    lift_fn: Callable
    injection_preimage: Callable
    name: str

    def inject(self, x: GroupElement) -> GroupElement:
        if x.group != self.a:
            raise TagError(f"expected {self.a.tag} element")
        return GroupElement(self.b, self.injection(x.value))

    def surject(self, x: GroupElement) -> GroupElement:
        if x.group != self.b:
            raise TagError(f"expected {self.b.tag} element")
        return GroupElement(self.c, self.surjection(x.value))

    def lift(self, x: GroupElement) -> GroupElement:
        if x.group != self.c:
            raise TagError(f"expected {self.c.tag} element")
        return GroupElement(self.b, self.lift_fn(x.value))

    def preimage_a(self, x: GroupElement) -> GroupElement:
        """The unique a with injection(a) = x; raises if x is not in the image."""
        if x.group != self.b:
            raise TagError(f"expected {self.b.tag} element")
        return GroupElement(self.a, self.injection_preimage(x.value))


def ses_mod(m: int) -> CoefficientSES:
    """0 -> Z --*m--> Z --reduce--> Z/m -> 0 with residue lift in [0,m)."""
    zg, zm = ZGroup(), ZmodGroup(m)

    def preimage(b):
        if b % m != 0:
            raise ClassError(f"{b} is not in the image of multiplication by {m}")
        return b // m

    return CoefficientSES(
        a=zg,
        b=zg,
        c=zm,
        injection=lambda a: m * a,
        surjection=lambda b: b % m,
        lift_fn=lambda c: c % m,
        injection_preimage=preimage,
        name=f"Z:Z:Z/{m}",
    )


def ses_z_r_qmodz() -> CoefficientSES:
    """0 -> Z -> R(alpha) -> Q/Z -> 0 with representative lift in [0,1)."""
    zg, rg, qg = ZGroup(), RAlphaGroup(), QmodZGroup()

    def surject(b):
        return b.as_fraction() % 1

    def preimage(b):
        return b.as_int()

    return CoefficientSES(
        a=zg,
        b=rg,
        c=qg,
        injection=lambda a: Scalar.of(a),
        surjection=surject,
        lift_fn=lambda c: Scalar.of(c % 1),
        injection_preimage=preimage,
        name="Z:R(alpha):Q/Z",
    )


def parse_ses(spec: str) -> CoefficientSES:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError(f"SES spec must be A:B:C, got {spec!r}")
    a, b, c = (p.strip() for p in parts)
    if a == "Z" and b == "Z" and c.startswith("Z/"):
        return ses_mod(group_from_tag(c).m)
    if a == "Z" and b in ("R(alpha)", "R") and c == "Q/Z":
        return ses_z_r_qmodz()
    raise ParseError(f"unsupported SES {spec!r}")


# ---------------------------------------------------------------------------
# Smith normal form and integer lattice utilities


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf(M, want_u=True, want_v=True, want_vinv=False):
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


def smith_normal_form(M):
    """Return (D, U, V) with D = U*M*V diagonal, invariant factors d1 | d2 | ...

    U and V are unimodular; diagonal entries are non-negative; the result is
    deterministic (smallest-magnitude pivot, row-major tie-break).
    """
    D, U, V, _ = _snf(M, want_u=True, want_v=True)
    return D, U, V


def mat_mul(A, B):
    n, k = len(A), len(B)
    p = len(B[0]) if k else 0
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(p):
                    if Bt[j]:
                        Oi[j] += a * Bt[j]
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v) if a) for row in A]


def rank_and_diag(D):
    r = 0
    for i in range(min(len(D), len(D[0]) if D else 0)):
        if D[i][i]:
            r += 1
    return r, [D[i][i] for i in range(r)]


class IntSolver:
    """Reusable exact solver for M x = v over the integers (via SNF)."""

    def __init__(self, M):
        self.m = len(M)
        self.n = len(M[0]) if self.m else 0
        self.D, self.U, self.V, _ = _snf(M, want_u=True, want_v=True)
        self.rank, self.diag = rank_and_diag(self.D)

    def solve(self, v):
        """An integer solution x of M x = v, or None."""
        w = mat_vec(self.U, v)
        y = [0] * self.n
        for i in range(self.rank):
            if w[i] % self.diag[i] != 0:
                return None
            y[i] = w[i] // self.diag[i]
        for i in range(self.rank, self.m):
            if w[i] != 0:
                return None
        return mat_vec(self.V, y)

    def kernel_basis(self):
        return [[self.V[i][j] for i in range(self.n)] for j in range(self.rank, self.n)]

    def solve_group(self, values, group: Group):
        """Solve M x = v with entries of v (and x) in an abelian group.

        Uses the SNF transform plus per-group division by integers; returns a
        list of raw group values or None when the system is inconsistent.
        """
        zero = group.zero()
        w = []
        for i in range(self.m):
            acc = zero
            Ui = self.U[i]
            for k, val in enumerate(values):
                if Ui[k]:
                    acc = group.add(acc, group.mul_int(Ui[k], val))
            w.append(acc)
        y = []
        for i in range(self.rank):
            g = group.div_int(self.diag[i], w[i])
            if g is None:
                return None
            y.append(g)
        for i in range(self.rank, self.m):
            if w[i] != zero:
                return None
        xs = []
        for i in range(self.n):
            acc = zero
            Vi = self.V[i]
            for j in range(self.rank):
                if Vi[j]:
                    acc = group.add(acc, group.mul_int(Vi[j], y[j]))
            xs.append(acc)
        return xs


def integer_kernel_basis(M):
    """Basis (list of columns) of the integer kernel of M."""
    return IntSolver(M).kernel_basis()
