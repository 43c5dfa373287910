"""Parsing and printing of exact polynomial expressions.

Grammar: integers, the scalar symbol ``a``, variables ``x0, x1, ...`` (plain
``x`` is an alias for ``x0``), operators + - * / ^ and parentheses.  Division
is only allowed by subexpressions that are constant in the x-variables.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import Scalar
from .errors import ParseError

_OPS = set("+-*/^()")

# largest |k| accepted in x^k, and largest degree (see _MP.degree) a power,
# product, quotient or sum may produce; powers, products and quotients are
# checked before they are expanded, sums after each term (a sum of quotients
# grows its common denominator term by term)
MAX_EXPONENT = 64


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # too many digits for int(), or a superscript digit
        raise ParseError(f"cannot read the {len(digits)}-digit integer "
                         f"starting {digits[:8]!r}")


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            toks.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_int(text[i:j]))
            i = j
        elif ch == "a" and (i + 1 >= n or not text[i + 1].isalnum()):
            toks.append("a")
            i += 1
        elif ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("var", _int(text[i + 1 : j]) if j > i + 1 else 0))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
    return toks


class _MP:
    """Multivariate polynomial over Q(a), keyed by exponent tuples."""

    __slots__ = ("n", "terms")

    def __init__(self, n=0, terms=None):
        self.n = n
        self.terms = terms or {}

    @staticmethod
    def const(s: Scalar) -> "_MP":
        return _MP(0, {(): s} if not s.is_zero() else {})

    @staticmethod
    def var(i: int) -> "_MP":
        e = tuple(0 if k < i else 1 for k in range(i + 1))
        return _MP(i + 1, {e: Scalar.of(1)})

    def _pad(self, n):
        if self.n >= n:
            return self
        return _MP(n, {e + (0,) * (n - self.n): c for e, c in self.terms.items()})

    def add(self, other):
        n = max(self.n, other.n)
        a, b = self._pad(n), other._pad(n)
        out = dict(a.terms)
        for e, c in b.terms.items():
            s = out.get(e, Scalar.of(0)) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return _MP(n, out)

    def neg(self):
        return _MP(self.n, {e: -c for e, c in self.terms.items()})

    def mul(self, other):
        n = max(self.n, other.n)
        a, b = self._pad(n), other._pad(n)
        out = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                s = out.get(e, Scalar.of(0)) + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return _MP(n, out)

    def as_scalar(self):
        if any(any(e) for e in self.terms):
            return None
        if not self.terms:
            return Scalar.of(0)
        return next(iter(self.terms.values()))

    def div(self, other):
        s = other.as_scalar()
        if s is None:
            raise ParseError("division by a non-constant expression")
        return _MP(self.n, {e: c / s for e, c in self.terms.items()})

    def degree(self) -> int:
        """The larger of the total degree in the variables and the degree in
        a of the numerators and denominators of the coefficients."""
        return max((max(sum(e), len(c.num) - 1, len(c.den) - 1)
                    for e, c in self.terms.items()), default=0)

    def pow(self, k: int):
        if k < 0:
            s = self.as_scalar()
            if s is None:
                raise ParseError("negative power of a non-constant expression")
            return _MP.const(_scalar_pow(s, k))
        out = _MP.const(Scalar.of(1))
        for _ in range(k):
            out = out.mul(self)
        return out


def _scalar_pow(s: Scalar, k: int) -> Scalar:
    out = Scalar.of(1)
    for _ in range(abs(k)):
        out = out * s
    return Scalar.of(1) / out if k < 0 else out


class _Parser:
    def __init__(self, toks, text, nvars):
        self.toks = toks
        self.pos = 0
        self.text = text
        self.nvars = nvars

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def expr(self):
        if self.peek() in ("+", "-"):
            sign = self.next()
            v = self.term()
            if sign == "-":
                v = v.neg()
        else:
            v = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            t = self.term()
            v = v.add(t.neg() if op == "-" else t)
            if v.degree() > MAX_EXPONENT:
                raise ParseError(f"sum of degree {v.degree()} in {self.text!r} "
                                 f"exceeds the degree limit of {MAX_EXPONENT}")
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            f = self.factor()
            d = v.degree() + f.degree()
            if d > MAX_EXPONENT:
                raise ParseError(f"{'product' if op == '*' else 'quotient'} "
                                 f"of degree {d} in {self.text!r} exceeds "
                                 f"the degree limit of {MAX_EXPONENT}")
            v = v.mul(f) if op == "*" else v.div(f)
        return v

    def factor(self):
        neg = False
        while self.peek() == "-":
            self.next()
            neg = not neg
        v = self.atom()
        if self.peek() == "^":
            self.next()
            k = self.next()
            sign = 1
            if k == "-":
                sign, k = -1, self.next()
            if not isinstance(k, int):
                raise ParseError(f"bad exponent in {self.text!r}")
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {sign * k} in {self.text!r} "
                                 f"exceeds the limit of {MAX_EXPONENT}")
            if v.degree() * k > MAX_EXPONENT:
                raise ParseError(f"power ^{sign * k} of a degree-{v.degree()} "
                                 f"expression in {self.text!r} exceeds the "
                                 f"degree limit of {MAX_EXPONENT}")
            v = v.pow(sign * k)
        return v.neg() if neg else v

    def atom(self):
        t = self.next()
        if t is None:
            raise ParseError(f"unexpected end of expression in {self.text!r}")
        if isinstance(t, int):
            return _MP.const(Scalar.of(t))
        if t == "a":
            return _MP.const(Scalar.alpha())
        if isinstance(t, tuple) and t[0] == "var":
            if t[1] >= self.nvars:
                raise ParseError(f"{self.text!r} uses more than {self.nvars} "
                                 "variables")
            return _MP.var(t[1])
        if t == "(":
            v = self.expr()
            if self.next() != ")":
                raise ParseError(f"unbalanced parentheses in {self.text!r}")
            return v
        raise ParseError(f"unexpected token {t!r} in {self.text!r}")


def parse_poly_terms(text: str, nvars: int):
    """Parse into a {exponent tuple: Scalar} dict with tuples of length
    nvars; a variable x_i with i >= nvars is refused before it is built."""
    p = _Parser(_tokenize(text), text, nvars)
    v = p.expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input in {text!r}")
    return dict(v._pad(nvars).terms)


def parse_scalar(text: str) -> Scalar:
    return parse_poly_terms(text, 0).get((), Scalar.of(0))


def _fmt_monomial(e) -> str:
    parts = []
    for i, k in enumerate(e):
        if k == 1:
            parts.append(f"x{i}")
        elif k > 1:
            parts.append(f"x{i}^{k}")
    return "*".join(parts)


def _coeff_prefix(c: Scalar) -> str:
    s = str(c)
    if s == "1":
        return ""
    if s == "-1":
        return "-"
    simple = s.lstrip("-").replace("/", "").isdigit()
    return (s if simple else f"({s})") + "*"


def format_poly_terms(terms) -> str:
    """Canonical form, e.g. 'x0^2 + (2*a)*x0 + a^2'; descending total degree."""
    items = [(e, c) for e, c in terms.items() if not c.is_zero()]
    if not items:
        return "0"
    items.sort(key=lambda ec: (-sum(ec[0]), tuple(-k for k in ec[0])))
    out = []
    for e, c in items:
        mono = _fmt_monomial(e)
        text = str(c) if not mono else _coeff_prefix(c) + mono
        if not out:
            out.append(text)
        elif text.startswith("-"):
            out.append(" - " + text[1:])
        else:
            out.append(" + " + text)
    return "".join(out)
