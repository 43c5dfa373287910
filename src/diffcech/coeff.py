"""Exact abelian coefficient groups and integer matrix normal forms.

The scalar field is Q(a), rational functions in a formal symbol ``a`` with
rational coefficients.  The symbol stands for a fixed irrational number and is
treated as transcendental, so equality of scalars is decidable and exact.
A scalar is stored as a quotient P/Q of two polynomials with integer
coefficients (the layout of FLINT's ``fmpq_poly``), reduced so that
gcd(P, Q) = 1 in Z[a] and the leading coefficient of Q is positive; gcds are
taken by the primitive remainder sequence over Z[a].
Group elements carry a group tag; all arithmetic keeps canonical
representatives (residues in [0,m) for Z/m, rationals in [0,1) for Q/Z).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence

from .errors import ClassError, ParseError, TagError

# ---------------------------------------------------------------------------
# univariate polynomials over Z, represented as tuples of ints
# (index = power of the symbol, no trailing zeros, () is the zero polynomial)


def _ztrim(c):
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _zadd(p, q):
    lp, lq = len(p), len(q)
    s = [x + y for x, y in zip(p, q)]
    if lp > lq:
        return tuple(s) + p[lq:]
    if lp < lq:
        return tuple(s) + q[lp:]
    return _ztrim(s)


def _zneg(p):
    return tuple([-c for c in p])


def _zscale(p, k):
    return p if k == 1 else tuple([c * k for c in p])


def _zmul(p, q):
    if len(p) == 1:
        return _zscale(q, p[0])
    if len(q) == 1:
        return _zscale(p, q[0])
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return tuple(out)


def _zquo(p, g):
    """p / g for a divisor g of p in Z[a]; the division is exact."""
    if len(g) == 1:
        g0 = g[0]
        return p if g0 == 1 else tuple([c // g0 for c in p])
    r = list(p)
    lead, low = g[-1], g[:-1]
    dg = len(low)
    out = [0] * (len(p) - dg)
    while len(r) > dg:
        c = r.pop()
        if c:
            k = c // lead
            s = len(r) - dg
            out[s] = k
            for i, b in enumerate(low):
                r[s + i] -= k * b
    return tuple(out)


def _zprem(p, q):
    """A pseudo-remainder: lead(q)^e * p mod q, with deg p >= deg q."""
    r = list(p)
    lead, low = q[-1], q[:-1]
    dq = len(low)
    while len(r) > dq:
        c = r.pop()
        s = len(r) - dq
        if lead != 1:
            r = [x * lead for x in r]
        for i, b in enumerate(low):
            r[s + i] -= c * b
        while r and not r[-1]:
            r.pop()
    return r


def _zgcd(p, q):
    """gcd of two nonzero polynomials in Z[a], with positive leading
    coefficient: the content gcd times the last primitive remainder."""
    if len(q) == 1:  # the constant first, so that gcd stops early at 1
        return (gcd(q[0], *p),)
    if len(p) == 1:
        return (gcd(p[0], *q),)
    cp, cq = gcd(*p), gcd(*q)
    c = gcd(cp, cq)
    p, q = _zquo(p, (cp,)), _zquo(q, (cq,))
    if len(p) < len(q):
        p, q = q, p
    while True:
        r = _zprem(p, q)
        if not r:
            break
        if len(r) == 1:
            return (c,)
        p, q = q, _zquo(r, (gcd(*r),))
    if q[-1] < 0:
        q = _zneg(q)
    return _zscale(q, c)


_Z_ONE = (1,)
_P_ONE = (Fraction(1),)


def _fmt_poly(p):
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
            base = "a" if k == 1 else f"a^{k}"
            term = base if mag == 1 else f"{mag}*{base}"
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+" if c > 0 else "-") + term)
    return "".join(parts)


def _lift(coeffs):
    """Integer coefficients and a positive integer m with coeffs = ints / m."""
    for c in coeffs:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"Scalar coefficient must be int or Fraction, "
                            f"got {c!r}")
    m = lcm(*(c.denominator for c in coeffs))
    return _ztrim([c.numerator * (m // c.denominator) for c in coeffs]), m


_new = object.__new__


def _make(znum, zden):
    s = _new(Scalar)
    s.znum = znum
    s.zden = zden
    return s


def _reduce_const(n, d):
    """n/d for an int tuple n and a positive int d, content-reduced."""
    if not n:
        return ZERO
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            n = tuple([c // g for c in n])
            d //= g
    return _make(n, (d,))


def _times(p, q, r, s):
    """(p/q) * (r/s) for canonical pairs of nonzero scalars: cancel across,
    then the product is canonical as it stands."""
    g = _zgcd(p, s)
    if g != _Z_ONE:
        p, s = _zquo(p, g), _zquo(s, g)
    g = _zgcd(r, q)
    if g != _Z_ONE:
        r, q = _zquo(r, g), _zquo(q, g)
    return _make(_zmul(p, r), _zmul(q, s))


class Scalar:
    """An element of Q(a), kept in canonical reduced form.

    ``znum`` and ``zden`` hold the integer coefficients of a numerator P and
    a denominator Q, with gcd(P, Q) = 1 in Z[a] and a positive leading
    coefficient of Q; two scalars are equal iff these tuples are identical.
    A polynomial has a one-term Q: a positive integer coprime to the content
    of P, so polynomials add and multiply as integer tuples with at most one
    integer gcd.  ``num`` and ``den`` give the same element as tuples of
    Fractions, numerator and denominator coprime and the denominator monic;
    ``den`` of every polynomial is the one tuple ``_P_ONE``.  The public
    constructor takes int and Fraction coefficients, exactly.
    """

    __slots__ = ("znum", "zden")

    def __init__(self, num, den=_P_ONE):
        n, m = _lift(num)
        d, k = _lift(den)
        if not d:
            raise ZeroDivisionError("scalar with zero denominator")
        n, d = _zscale(n, k), _zscale(d, m)
        if not n:
            d = _Z_ONE
        else:
            g = _zgcd(n, d)
            n, d = _zquo(n, g), _zquo(d, g)
            if d[-1] < 0:
                n, d = _zneg(n), _zneg(d)
        self.znum, self.zden = n, d

    @property
    def num(self):
        lead = self.zden[-1]
        return tuple([Fraction(c, lead) for c in self.znum])

    @property
    def den(self):
        d = self.zden
        if len(d) == 1:
            return _P_ONE
        return tuple([Fraction(c, d[-1]) for c in d])

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            n = x.numerator
            return _make((n,), (x.denominator,)) if n else ZERO
        raise TypeError(f"cannot convert {x!r} to Scalar")

    @staticmethod
    def alpha() -> "Scalar":
        return _make((0, 1), _Z_ONE)

    @staticmethod
    def parse(text: str) -> "Scalar":
        from .exprs import parse_scalar

        return parse_scalar(text)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.of(other)
        p, q = self.znum, self.zden
        r, s = other.znum, other.zden
        if len(q) == 1 and len(s) == 1:
            q0, s0 = q[0], s[0]
            if q0 == s0:
                return _reduce_const(_zadd(p, r), q0)
            # distinct canonical denominators: the sum is not zero, and of
            # the denominator lcm(q0, s0), only factors of g can cancel
            g = gcd(q0, s0)
            n = _zadd(_zscale(p, s0 // g), _zscale(r, q0 // g))
            if g == 1:
                return _make(n, (q0 * s0,))
            return _reduce_const(n, q0 // g * s0)
        if not p:
            return other
        if not r:
            return self
        # p/q + r/s over the denominator lcm(q, s) = q1 * s: of its factors,
        # only those of g = gcd(q, s) can divide the numerator
        g = _zgcd(q, s)
        q1, s1 = _zquo(q, g), _zquo(s, g)
        n = _zadd(_zmul(p, s1), _zmul(r, q1))
        if not n:
            return ZERO
        d = _zmul(q1, s)
        if g != _Z_ONE:
            h = _zgcd(n, g)
            n, d = _zquo(n, h), _zquo(d, h)
        return _make(n, d)

    __radd__ = __add__

    def __neg__(self):
        return _make(_zneg(self.znum), self.zden)

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.of(other)
        p, q = self.znum, self.zden
        r, s = other.znum, other.zden
        if not p or not r:
            return ZERO
        if len(q) == 1 and len(s) == 1:
            return _reduce_const(_zmul(p, r), q[0] * s[0])
        return _times(p, q, r, s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.of(other)
        r, s = other.znum, other.zden
        if not r:
            raise ZeroDivisionError("scalar division by zero")
        p, q = self.znum, self.zden
        if not p:
            return ZERO
        if r[-1] < 0:
            r, s = _zneg(r), _zneg(s)
        if len(q) == 1 and len(r) == 1:
            return _reduce_const(_zmul(p, s), q[0] * r[0])
        return _times(p, q, s, r)

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.znum

    def is_rational(self) -> bool:
        return len(self.znum) <= 1 and len(self.zden) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ClassError(f"scalar {self} is not rational")
        return Fraction(self.znum[0], self.zden[0]) if self.znum else Fraction(0)

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ClassError(f"scalar {self} is not an integer")
        return f.numerator

    def alpha_coefficients(self):
        """Coefficients (c0, c1, ...) when the scalar is a polynomial in a."""
        if len(self.zden) != 1:
            raise ClassError(f"scalar {self} is not polynomial in a")
        return self.num

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.znum == other.znum and self.zden == other.zden

    def __hash__(self):
        return hash((self.znum, self.zden))

    def __bool__(self):
        return bool(self.znum)

    def __str__(self):
        num = _fmt_poly(self.num)
        if len(self.zden) == 1:
            return num
        if len(self.znum) - self.znum.count(0) > 1 or self.znum[-1] < 0:
            num = f"({num})"
        den = _fmt_poly(self.den)
        if len(self.zden) - self.zden.count(0) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"Scalar({self})"


ZERO = _make((), _Z_ONE)
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

    def sub(self, x, y):
        return self.add(x, self.neg(y))

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
        n %= self.m
        if n == 0:
            return 0 if x % self.m == 0 else None
        d = gcd(n, self.m)
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
        # Fraction would expand an exponent form (10**exp digits) before any
        # size check; format_el never writes one
        if isinstance(s, str) and "e" in s.lower():
            raise ParseError(f"bad Q/Z element {s!r}: exponent forms are "
                             f"not read")
        try:
            return Fraction(s) % 1
        except (ValueError, ZeroDivisionError, OverflowError):
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

    def sub(self, x, y):
        return x - y

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
        """n/d + m*a for n, d and m drawn in that order, built canonical:
        with g = gcd(n, d), the numerator n/g + (m*d/g)*a over d/g has
        content prime to d/g."""
        n, d = rng.randrange(-6, 7), rng.choice([1, 2, 3])
        g = gcd(n, d)
        return _make(_ztrim([n // g, rng.randrange(-3, 4) * d // g]), (d // g,))

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


class CoefficientSES:
    """0 -> A -> B -> C -> 0 with a deterministic lifting oracle C -> B."""

    def __init__(self, a: Group, b: Group, c: Group, injection: Callable,
                 surjection: Callable, lift_fn: Callable,
                 injection_preimage: Callable, name: str):
        self.a = a
        self.b = b
        self.c = c
        self.injection = injection
        self.surjection = surjection
        self.lift_fn = lift_fn
        self.injection_preimage = injection_preimage
        self.name = name


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
# Smith normal form over sparse integer rows
#
# A sparse vector is a {index: nonzero int} dict.  A matrix is kept as a list
# of such rows, or as a list of such columns where its column operations are
# the frequent ones.


def _unit(n):
    return [{i: 1} for i in range(n)]


def _axpy(dst, src, q):
    """dst += q * src for sparse vectors, q != 0."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def sparse_apply(rows, vec):
    """The dense vector rows * vec for sparse rows."""
    return [sum(x * vec[k] for k, x in row.items()) for row in rows]


def sparse_mix(coeffs, vecs):
    """The sparse vector sum of coeffs[k] * vecs[k] over the sparse coeffs,
    each vecs[k] sparse; like every sparse vector, it stores no zero."""
    out = {}
    for k, c in coeffs.items():
        _axpy(out, vecs[k], c)
    return out


def _dense(vecs, size):
    return (None if vecs is None else
            [[vec.get(j, 0) for j in range(size)] for vec in vecs])


class SmithForm:
    """D = U*M*V for an m x n integer matrix M, given as m sparse rows and
    the column count n: D is diagonal with the invariant factors
    diag[0] | diag[1] | ... > 0, U and V are unimodular.

    U and Vinv are lists of sparse rows, V and Uinv (the inverse of U) lists
    of sparse columns, in the logical order of D; a factor that was not
    tracked is None.  No pivot choice reads a factor, so each factor is the
    same whichever others were tracked."""

    def __init__(self, m, n, diag, U, V, Vinv, Uinv):
        self.m, self.n, self.diag = m, n, diag
        self.rank = len(diag)
        self.U, self.V, self.Vinv, self.Uinv = U, V, Vinv, Uinv

    def dense(self):
        """(D, U, V, Vinv) as lists of rows, None where not tracked."""
        D = [{i: d} for i, d in enumerate(self.diag)]
        V = _dense(self.V, self.n)
        return (_dense(D + [{}] * (self.m - self.rank), self.n),
                _dense(self.U, self.m), V and [list(col) for col in zip(*V)],
                _dense(self.Vinv, self.n))

    def kernel(self):
        """The integer kernel of M: the sparse columns of V past the rank."""
        return self.V[self.rank:]

    def solve(self, v):
        """An integer solution x of M x = v, or None."""
        return self.solve_group(v, ZGroup())

    def solve_group(self, values, group: Group):
        """A solution x of M x = values with entries in an abelian group, by
        division by the invariant factors in the group; None when there is
        none."""
        zero = group.zero()
        w = []
        for row in self.U:
            acc = zero
            for k, u in row.items():
                acc = group.add(acc, group.mul_int(u, values[k]))
            w.append(acc)
        if any(x != zero for x in w[self.rank:]):
            return None
        xs = [zero] * self.n
        for d, x, col in zip(self.diag, w, self.V):
            y = group.div_int(d, x)
            if y is None:
                return None
            for i, v in col.items():
                xs[i] = group.add(xs[i], group.mul_int(v, y))
        return xs


def _snf(M, n, want_u=True, want_v=True, want_vinv=False, want_uinv=False):
    """The SmithForm of M, a list of sparse integer rows with n columns, with
    the factors asked for.  No row of M may store a zero; M is not changed.

    Pivot rule: the least (|x|, i, j) over the rows and columns not yet
    diagonal, so the smallest magnitude with a row-major tie-break.  A row
    operation on U is the inverse column operation on Uinv, and a column
    operation on V the inverse row operation on Vinv.

    A and the factors keep the physical row and column ids of M; rid and cid
    map the logical positions (i, j) to them and cpos maps columns back, so
    a swap moves no entry.  In one pivot each row operation reads only the
    pivot row and its own pivot-column entry (a column operation likewise),
    so the order of the physical ids visited changes no entry."""
    m = len(M)
    A = [dict(row) for row in M]
    cols = [set() for _ in range(n)]  # column c -> rows with a nonzero there
    for i, row in enumerate(A):
        for j in row:
            cols[j].add(i)
    U = _unit(m) if want_u else None
    Uinv = _unit(m) if want_uinv else None
    V = _unit(n) if want_v else None
    Vinv = _unit(n) if want_vinv else None
    rid = list(range(m))
    cid, cpos = list(range(n)), list(range(n))

    def add_row(r, s, q):
        # row r += q * row s
        ar = A[r]
        for c, x in A[s].items():
            y = ar.get(c, 0) + q * x
            if y:
                ar[c] = y
                cols[c].add(r)
            else:
                del ar[c]
                cols[c].discard(r)
        if U is not None:
            _axpy(U[r], U[s], q)
        if Uinv is not None:
            _axpy(Uinv[s], Uinv[r], -q)

    def add_col(c, d, q):
        # col c += q * col d
        cc = cols[c]
        for r in cols[d]:
            row = A[r]
            y = row.get(c, 0) + q * row[d]
            if y:
                row[c] = y
                cc.add(r)
            else:
                del row[c]
                cc.discard(r)
        if V is not None:
            _axpy(V[c], V[d], q)
        if Vinv is not None:
            _axpy(Vinv[d], Vinv[c], -q)

    def find_pivot(t):
        # (|x|, logical row, logical column) of the least entry in the rows
        # at positions >= t, which vanish left of column t
        best = None
        for i in range(t, m):
            row = A[rid[i]]
            if row:
                x, j = min(zip(map(abs, row.values()),
                               map(cpos.__getitem__, row)))
                if best is None or x < best[0]:
                    best = (x, i, j)
                    if x == 1:
                        break
        return best

    def diagonalize(t):
        while t < min(m, n):
            piv = find_pivot(t)
            if piv is None:
                break
            while True:
                _, i, j = piv
                pr, pc = rid[i], cid[j]
                rid[t], rid[i] = pr, rid[t]
                cid[t], cid[j] = pc, cid[t]
                cpos[pc], cpos[cid[j]] = t, j
                prow = A[pr]
                p = prow[pc]
                for r in [r for r in cols[pc] if r != pr]:
                    add_row(r, pr, -(A[r][pc] // p))
                others = [c for c in prow if c != pc]
                if p == 1 or p == -1:
                    # column pc is now p alone, so clearing row pr changes
                    # only that row of A
                    for c in others:
                        q = -prow.pop(c) * p
                        cols[c].discard(pr)
                        if V is not None:
                            _axpy(V[c], V[pc], q)
                        if Vinv is not None:
                            _axpy(Vinv[pc], Vinv[c], -q)
                    break
                for c in others:
                    add_col(c, pc, -(prow[c] // p))
                if len(cols[pc]) == 1 and len(prow) == 1:
                    break
                piv = find_pivot(t)
            t += 1
        return t

    rank = diagonalize(0)
    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if A[rid[i + 1]][cid[i + 1]] % A[rid[i]][cid[i]]:
                add_col(cid[i], cid[i + 1], 1)
                diagonalize(i)
                changed = True
    for r, c in zip(rid[:rank], cid):
        if A[r][c] < 0:
            for F in (A, U, Uinv):
                if F is not None:
                    F[r] = {k: -x for k, x in F[r].items()}
    U, V, Vinv, Uinv = (F and [F[k] for k in ids] for F, ids in (
        (U, rid), (V, cid), (Vinv, cid), (Uinv, rid)))
    return SmithForm(m, n, [A[r][c] for r, c in zip(rid[:rank], cid)],
                     U, V, Vinv, Uinv)


def smith_normal_form(M):
    """Return (D, U, V) with D = U*M*V diagonal, invariant factors d1 | d2 | ...

    U and V are unimodular; diagonal entries are non-negative; the result is
    deterministic (smallest-magnitude pivot, row-major tie-break).  M and
    the factors are lists of dense integer rows.
    """
    rows = [{j: x for j, x in enumerate(row) if x} for row in M]
    return _snf(rows, len(M[0]) if M else 0).dense()[:3]
