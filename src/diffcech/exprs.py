"""Exact polynomials in x0..x(n-1) over Q(a): arithmetic, parsing, printing.

A polynomial is a dict {exponent tuple: nonzero Scalar} whose tuples all have
the arity n.  `sum_terms`, `neg_terms`, `scale_terms` and `mul_terms` are
the one arithmetic on such dicts; the parser and `funclass` both use them.

Grammar: integers, the scalar symbol ``a``, variables ``x0, x1, ...`` (plain
``x`` is an alias for ``x0``), operators + - * / ^ and parentheses.  A divisor
or the base of a negative power must be a nonzero constant in the
x-variables.
"""

from __future__ import annotations

from .coeff import Scalar
from .errors import ClassError, ParseError

_OPS = set("+-*/^()")

# largest |k| accepted in x^k, and largest degree (see _degree) a power,
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


def sum_terms(signed):
    """The sum of sign * p over the (sign, p) pairs, sign 1 or -1, for
    {exponent tuple: Scalar} dicts of one arity, added term by term into one
    dict: the first p is copied, and no negated or partial copy of another
    is made.  Terms that cancel are dropped, as in every helper below."""
    out = None
    for sign, p in signed:
        if out is None:
            out = dict(p) if sign > 0 else neg_terms(p)
            continue
        for e, c in p.items():
            if sign < 0:
                c = -c
            if e in out:
                c = out[e] + c
                if not c.znum:
                    del out[e]
                    continue
            out[e] = c
    return {} if out is None else out


def neg_terms(p):
    return {e: -c for e, c in p.items()}


def scale_terms(p, s: Scalar):
    return {e: c * s for e, c in p.items()} if not s.is_zero() else {}


def mul_terms(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            s = out[e] + c1 * c2 if e in out else c1 * c2
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _degree(p) -> int:
    """The larger of the total degree in the variables and the degree in a
    of the numerators and denominators of the coefficients."""
    return max((max(sum(e), len(c.znum) - 1, len(c.zden) - 1)
                for e, c in p.items()), default=0)


class _Parser:
    def __init__(self, toks, text, nvars, max_degree):
        self.toks = toks
        self.pos = 0
        self.text = text
        self.nvars = nvars
        self.max_degree = max_degree
        self.origin = (0,) * nvars

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def const(self, s: Scalar):
        return {self.origin: s} if not s.is_zero() else {}

    def reciprocal(self, p, what="division by") -> Scalar:
        """1/c for a term dict p = {origin: c}, constant in the variables."""
        if any(any(e) for e in p):
            raise ParseError(f"{what} a non-constant expression")
        if not p:
            raise ParseError(f"division by zero in {self.text!r}")
        return Scalar.of(1) / p[self.origin]

    def expr(self):
        if self.peek() in ("+", "-"):
            sign = self.next()
            v = self.term()
            if sign == "-":
                v = neg_terms(v)
        else:
            v = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            t = self.term()
            v = sum_terms(((1, v), (-1 if op == "-" else 1, t)))
            if _degree(v) > MAX_EXPONENT:
                raise ParseError(f"sum of degree {_degree(v)} in {self.text!r} "
                                 f"exceeds the degree limit of {MAX_EXPONENT}")
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            f = self.factor()
            d = _degree(v) + _degree(f)
            if d > MAX_EXPONENT:
                raise ParseError(f"{'product' if op == '*' else 'quotient'} "
                                 f"of degree {d} in {self.text!r} exceeds "
                                 f"the degree limit of {MAX_EXPONENT}")
            if op == "*":
                if v and f:  # deg pq = deg p + deg q for nonzero p and q
                    deg = max(map(sum, v)) + max(map(sum, f))
                    self.within_class(f"product of degree {deg}", deg, v, f)
                v = mul_terms(v, f)
            else:
                v = scale_terms(v, self.reciprocal(f))
        return v

    def within_class(self, what, deg, *polys):
        """Refuse a power or product in two or more variables of total
        degree deg over max_degree, before it is expanded; in one variable
        the class's own monomial check names the monomial."""
        if (self.max_degree is not None and deg > self.max_degree
                and sum(map(any, zip(*(e for p in polys for e in p)))) > 1):
            raise ClassError(f"{what} in {self.text!r} exceeds max degree "
                             f"{self.max_degree}")

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
            if _degree(v) * k > MAX_EXPONENT:
                raise ParseError(f"power ^{sign * k} of a degree-{_degree(v)} "
                                 f"expression in {self.text!r} exceeds the "
                                 f"degree limit of {MAX_EXPONENT}")
            if sign * k < 0:
                v = self.const(self.reciprocal(v, "negative power of"))
            base, v = v, self.const(Scalar.of(1))
            if sum(map(any, zip(*base))) > 1:
                deg = max(map(sum, base))
                self.within_class(f"power ^{k} of a degree-{deg} expression",
                                  deg * k, base)
                # in two or more variables the squares of a dense base hold
                # more terms than the k successive products do
                for _ in range(k):
                    v = mul_terms(v, base)
            else:
                while k:  # repeated squaring
                    if k & 1:
                        v = mul_terms(v, base)
                    k >>= 1
                    if k:
                        base = mul_terms(base, base)
        return neg_terms(v) if neg else v

    def atom(self):
        t = self.next()
        if t is None:
            raise ParseError(f"unexpected end of expression in {self.text!r}")
        if isinstance(t, int):
            return self.const(Scalar.of(t))
        if t == "a":
            return self.const(Scalar.alpha())
        if isinstance(t, tuple) and t[0] == "var":
            i = t[1]
            if i >= self.nvars:
                raise ParseError(f"{self.text!r} uses more than {self.nvars} "
                                 "variables")
            return {self.origin[:i] + (1,) + self.origin[i + 1:]: Scalar.of(1)}
        if t == "(":
            v = self.expr()
            if self.next() != ")":
                raise ParseError(f"unbalanced parentheses in {self.text!r}")
            return v
        raise ParseError(f"unexpected token {t!r} in {self.text!r}")


def parse_poly_terms(text: str, nvars: int, max_degree=None):
    """Parse into a {exponent tuple: Scalar} dict with tuples of length
    nvars; a variable x_i with i >= nvars is refused before it is built, and
    so is a power or product in two or more variables of total degree over
    max_degree (a power or product of nonzero polynomials has exactly that
    degree)."""
    p = _Parser(_tokenize(text), text, nvars, max_degree)
    v = p.expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input in {text!r}")
    return v


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
