"""Cochains, the coboundary operator, the cocycle test, nerve cohomology and
class comparison; quotient requests are dispatched to the engines of `grpcoh`.

The coboundary is the alternating sum over the degeneracy maps,
(d f)(x0,...,x_{k+1}) = sum_i (-1)^i f(d_i(x0,...,x_{k+1})).  Nerve cochains
are sparse tables of group values over alive tuples: only nonzero values are
stored, and a tuple the table does not hold reads as the group's zero
(`_Values`).  A degree-k quotient cochain is
a function-valued map on K^k, stored as one function in degree 0, a full table
over K^k for finite K, crossed data (one function per group generator,
extended by the cocycle law) in degree 1 over infinite K, and a lazily
evaluated payload above degree 1 over infinite K.  `_quotient_points` is the
one place this layout is chosen; `_quotient_cochain` builds a cochain from
its values there.
"""

from __future__ import annotations

import random
from itertools import permutations, product
from math import factorial
from typing import Callable, Dict, List, Optional, Tuple

from .coeff import (
    CoefficientSES,
    Group,
    RAlphaGroup,
    ZGroup,
    ZmodGroup,
)
from . import linalg
from .errors import (
    ClassError,
    CocycleError,
    DegreeError,
    ParseError,
    TagError,
)
from .exprs import parse_poly_terms
from .funclass import FunctionElement, act, signed_sum
from .reduce import Reduction

DEFAULT_SEED = 1729
# entries a presentation's crossed-sum cache holds before it is cleared; its
# keys hold the crossed value itself, so fresh cocycles add keys that
# nothing reads again
CROSSED_CACHE_SIZE = 1024


def _sort_parity(t):
    """Sign of the sorting permutation; 0 when the tuple has repeats."""
    t = list(t)
    sign = 1
    for i in range(len(t)):
        for j in range(len(t) - 1 - i):
            if t[j] > t[j + 1]:
                t[j], t[j + 1] = t[j + 1], t[j]
                sign = -sign
            elif t[j] == t[j + 1]:
                return 0, tuple(t)
    return sign, tuple(t)


class GroupHom:
    """A homomorphism of coefficient groups acting on raw values."""

    def __init__(self, source: Group, target: Group, fn: Callable, name: str = ""):
        self.source = source
        self.target = target
        self.fn = fn
        self.name = name

    def apply(self, value):
        return self.target.canonical(self.fn(value))

    @staticmethod
    def reduction(m: int) -> "GroupHom":
        return GroupHom(ZGroup(), ZmodGroup(m), lambda v: v % m, f"mod {m}")

    def __repr__(self):
        return f"GroupHom({self.source.tag} -> {self.target.tag}, {self.name})"


class _Values(dict):
    """A nerve cochain's payload: its nonzero values by alive tuple, in
    tuple order.  A tuple it does not hold reads as the group's zero, and
    is not stored, so every read payload[t] of a nerve cochain defaults to
    zero; `_stored` builds it."""

    __slots__ = ("zero",)

    def __missing__(self, t):
        return self.zero


class Cochain:
    """A degree-k cochain on a presentation.

    Payload kinds: "values" (nerve table of the nonzero values), "function"
    (quotient degree 0), "crossed" (quotient degree 1, infinite K), "table"
    (quotient, finite K), "lazy" (quotient degree >= 2, infinite K).
    Arithmetic is value-wise in the coefficient group through `_valuewise`,
    and lazy when kinds differ.
    """

    def __init__(self, pres, degree: int, group: Group, payload_kind: str,
                 payload):
        self.pres = pres
        self.degree = degree
        self.group = group
        self.payload_kind = payload_kind
        self.payload = payload
        # a cochain is a value: q_value and is_cocycle keep what they find
        self._memo = {}
        self._check = None

    # -- constructors ---------------------------------------------------
    @staticmethod
    def nerve(pres, degree: int, group: Group, values: Dict) -> "Cochain":
        return _nerve_cochain(pres, degree, group, values, group.canonical)

    @staticmethod
    def function(pres, h: FunctionElement) -> "Cochain":
        if pres.kind != "quotient":
            raise ParseError("function cochain needs a quotient presentation")
        _check_arity(pres, [h])
        return Cochain(pres, 0, RAlphaGroup(), "function", h)

    @staticmethod
    def crossed(pres, values: Dict[int, FunctionElement]) -> "Cochain":
        """Degree-1 data from its generator values, extended by the crossed
        law and stored as `_quotient_points` says (a table on finite K)."""
        if pres.kind != "quotient":
            raise ParseError("crossed cochain needs a quotient presentation")
        for i in values:
            if i not in range(pres.rank):
                raise ParseError(f"crossed key {i!r} out of range")
        _check_arity(pres, values.values())
        vals = {i: values.get(i, pres.function_class().zero())
                for i in range(pres.rank)}
        return _quotient_cochain(
            pres, 1, lambda kt: crossed_value(pres, vals, kt[0]))

    @staticmethod
    def table(pres, degree: int, table: Dict[Tuple, FunctionElement]) -> "Cochain":
        if pres.kind != "quotient" or not pres.is_finite():
            raise ParseError("table cochains need a finite-group quotient")
        _check_arity(pres, table.values())
        full = {}
        for kt in _k_tuples(pres, degree):
            if kt not in table:
                raise ParseError(f"missing table value at {kt}")
            full[kt] = table[kt]
        for kt in table:
            if kt not in full:
                raise ParseError(f"table value at unknown group tuple {kt}")
        return Cochain(pres, degree, RAlphaGroup(), "table", full)

    @staticmethod
    def lazy(pres, degree: int, fn: Callable) -> "Cochain":
        if pres.kind != "quotient":
            raise ParseError("lazy cochain needs a quotient presentation")
        return Cochain(pres, degree, RAlphaGroup(), "lazy", fn)

    # -- value access ----------------------------------------------------
    def value_at(self, t):
        """Nerve value at an alive (k+1)-tuple; in alternating mode at any
        ordering of one (alternating extension), and zero where a chart of
        an alive face repeats.  Any other tuple is refused."""
        if self.payload_kind != "values":
            raise ParseError("value_at applies to nerve cochains")
        t = tuple(t)
        sign, s = _sort_parity(t) if self.pres.alternating else (1, t)
        if len(t) != self.degree + 1 or (
                s not in self.pres.index(self.degree) if sign
                else frozenset(t) not in self.pres.faces):
            raise ParseError(f"a degree-{self.degree} nerve cochain is read "
                             f"at alive {self.degree + 1}-tuples, not at {t}")
        if sign == 0:
            return self.group.zero()
        v = self.payload[s]
        return v if sign == 1 else self.group.neg(v)

    def q_value(self, ktuple) -> FunctionElement:
        """Quotient value at a tuple of group elements (length = degree)."""
        if self.payload_kind == "values":
            raise ParseError("q_value applies to quotient cochains")
        kt = tuple(self.pres.k_canonical(k) for k in ktuple)
        if len(kt) != self.degree:
            raise ParseError(f"a degree-{self.degree} cochain is read at "
                             f"{self.degree} group elements, not {len(kt)}")
        return self._q(kt)

    def _q(self, kt) -> FunctionElement:
        """The quotient value at kt, trusted to be a tuple of canonical group
        tuples: a stored point of a finite K, a tuple that `q_value` has made
        canonical, or a face or `_k_sub` shift of one.  Nothing is checked."""
        k = self.payload_kind
        if k == "function":
            return self.payload
        if k == "table":
            return self.payload[kt]
        v = self._memo.get(kt)
        if v is None:
            v = self._memo[kt] = (
                crossed_value(self.pres, self.payload, kt[0]) if k == "crossed"
                else self.payload(kt))
        return v

    # -- arithmetic -------------------------------------------------------
    def _check_compatible(self, other: "Cochain"):
        if (self.pres != other.pres or self.degree != other.degree
                or self.group != other.group):
            raise TagError("cochain mismatch (presentation, degree, or group)")

    def _valuewise(self, fn: Callable, *others: "Cochain") -> "Cochain":
        """The cochain with value fn(self(p), *(o(p) for o in others)) at
        every point p: stored in the shared payload kind, lazy otherwise."""
        for o in others:
            self._check_compatible(o)
        ops, k = (self,) + others, self.payload_kind
        if k == "lazy" or any(o.payload_kind != k for o in others):
            k, payload = "lazy", lambda kt: fn(*(c._q(kt) for c in ops))
        elif k == "function":
            payload = fn(*(c.payload for c in ops))
        elif k == "values":
            # fn is additive, so it is zero where every operand is: the
            # keys are those of self, or the union in tuple order
            keys = (sorted(set().union(*(c.payload for c in ops))) if others
                    else self.payload)
            return _stored(self.pres, self.degree, self.group, zip(
                keys, map(fn, *(map(c.payload.__getitem__, keys)
                                for c in ops))))
        else:
            payload = {p: fn(*(c.payload[p] for c in ops)) for p in self.payload}
        return Cochain(self.pres, self.degree, self.group, k, payload)

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._valuewise(self.group.add, other)

    def __neg__(self) -> "Cochain":
        return self._valuewise(self.group.neg)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._valuewise(self.group.sub, other)

    def scale_int(self, n: int) -> "Cochain":
        return self._valuewise(lambda v: self.group.mul_int(n, v))

    def is_zero(self) -> bool:
        k = self.payload_kind
        if k == "values":
            return not self.payload
        if k == "function":
            return self.payload.is_zero()
        if k in ("crossed", "table"):
            return all(v.is_zero() for v in self.payload.values())
        raise ParseError("lazy cochains have no decidable zero test")

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        if (self.pres != other.pres or self.degree != other.degree
                or self.group != other.group):
            return False
        if "lazy" in (self.payload_kind, other.payload_kind):
            return self is other
        if self.payload_kind != other.payload_kind:
            return False
        return self.payload == other.payload

    def __repr__(self):
        return (f"Cochain(k={self.degree}, {self.group.tag}, "
                f"{self.payload_kind})")

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        if self.payload_kind == "values":
            return {
                "degree": self.degree,
                "values": {_tuple_key(t): self.group.format_el(v)
                           for t, v in self.payload.items()},
            }
        if self.payload_kind == "function":
            return {"degree": 0, "function": str(self.payload)}
        if self.payload_kind == "crossed":
            return {
                "degree": 1,
                "crossed": {
                    f"g{i + 1}": str(v) for i, v in sorted(self.payload.items())
                },
            }
        if self.payload_kind == "table":
            return {
                "degree": self.degree,
                "table": {
                    _ktuple_key(t): str(v) for t, v in sorted(self.payload.items())
                },
            }
        raise ParseError("lazy cochains cannot be serialized")

    @staticmethod
    def from_dict(pres, group: Group, doc: dict) -> "Cochain":
        """Read a cochain document; its payload field must fit the
        presentation, the degree and the group before any value is parsed."""
        if "degree" not in doc:
            raise ParseError("cochain document is missing 'degree'")
        k = doc["degree"]
        field = next((f for f in ("values", "function", "crossed", "table")
                      if f in doc), None)
        if field is None:
            raise ParseError("cochain document has no payload field")
        if type(k) is not int or k < 0:
            raise ParseError(f"cochain degree must be a non-negative integer, "
                             f"got {k!r}")
        if (field == "values") != (pres.kind == "nerve"):
            raise ParseError(f"a {field!r} payload does not fit a "
                             f"{pres.kind} presentation")
        if field == "values":
            vals = {
                _parse_tuple_key(key): group.parse_el(_value_text(v))
                for key, v in doc["values"].items()
            }
            # parse_el returns canonical values
            return _nerve_cochain(pres, k, group, vals, lambda v: v)
        if group.tag != "R(alpha)":
            raise ParseError("quotient cochains are valued in the R model")
        want = {"function": 0, "crossed": 1}.get(field, k)
        if k != want:
            raise ParseError(f"a {field!r} payload has degree {want}, not {k}")
        cls = pres.function_class()
        if field == "function":
            return Cochain.function(pres, _parse_in_widest(cls, doc["function"]))
        if field == "crossed":
            vals = {}
            for key, text in doc["crossed"].items():
                if not (key.startswith("g") and key[1:].isdigit()):
                    raise ParseError(f"bad crossed key {key!r}")
                i = int(key[1:]) - 1
                if not (0 <= i < pres.rank):
                    raise ParseError(f"crossed key {key!r} out of range")
                vals[i] = _parse_in_widest(cls, text)
            return Cochain.crossed(pres, vals)
        if not pres.is_finite():
            raise ParseError("table cochains need a finite-group quotient")
        vals = {
            _parse_ktuple_key(key): _parse_in_widest(cls, text)
            for key, text in doc["table"].items()
        }
        return Cochain.table(pres, k, vals)


def _check_arity(pres, values):
    """Refuse a function whose variables are not the quotient's
    coordinates.  `act_function` returns a constant without reading the
    affine map, so this is where such a value is caught."""
    for h in values:
        if h.cls.n != pres.dim:
            raise ClassError(f"a function of {h.cls.n} variables on a "
                             f"quotient of dimension {pres.dim}")


def _nerve_cochain(pres, degree: int, group: Group, values: Dict,
                   canonical: Callable) -> Cochain:
    """The nerve cochain of canonical(values[t]) at each alive tuple t that
    values holds, and zero at the others; the values at alive tuples are
    made canonical first, in tuple order, then a value at a dead or unknown
    tuple is refused."""
    if pres.kind != "nerve":
        raise ParseError("nerve cochain needs a nerve presentation")
    vals = [(t, canonical(values[t])) for t in pres.tuples(degree)
            if t in values]
    if len(vals) < len(values):
        index = pres.index(degree)
        t = next(t for t in values if t not in index)
        raise ParseError(f"cochain value at dead or unknown tuple {t}")
    return _stored(pres, degree, group, vals)


def _stored(pres, degree: int, group: Group, items) -> Cochain:
    """The nerve cochain of the (tuple, canonical value) pairs in items,
    given in tuple order, with the zero values left out."""
    zero = group.zero()
    values = _Values({t: v for t, v in items if v != zero})
    values.zero = zero
    return Cochain(pres, degree, group, "values", values)


def _value_text(v) -> str:
    """A nerve cochain value as the text its group reads: JSON strings and
    integers are taken; floats, booleans, null and lists are refused, since
    a group would read them inexactly or not at all."""
    if isinstance(v, str):
        return v
    if type(v) is int:
        return str(v)
    raise ParseError(f"cochain value {v!r} is not a string or an integer")


def _parse_in_widest(cls, text: str) -> FunctionElement:
    """Parse allowing the witness headroom of one extra degree; a power of
    several variables over that degree is refused before it is expanded."""
    terms = parse_poly_terms(text, cls.n, cls.max_degree + 1)
    try:
        return FunctionElement(cls, terms)
    except ClassError:
        return FunctionElement(cls.widen(1), terms)


def _tuple_key(t) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def _parse_tuple_key(key: str) -> Tuple[int, ...]:
    key = key.strip()
    if not (key.startswith("(") and key.endswith(")")):
        raise ParseError(f"bad tuple key {key!r}")
    inner = key[1:-1].strip().rstrip(",")
    if not inner:
        return ()
    try:
        return tuple(map(int, inner.split(",")))
    except ValueError:
        raise ParseError(f"bad tuple key {key!r}")


def _ktuple_key(kt) -> str:
    return ";".join(_tuple_key(k) for k in kt)


def _parse_ktuple_key(key: str) -> Tuple[Tuple[int, ...], ...]:
    key = key.strip()
    if not key:
        return ()
    return tuple(_parse_tuple_key(p) for p in key.split(";"))


# most points a cochain of a finite-group quotient is tabulated on; degree-j
# cochains are tables on K^j, so H^k needs |K|^(k+1) <= MAX_K_TUPLES
MAX_K_TUPLES = 256


def _k_tuples(pres, degree: int) -> List[Tuple]:
    """All degree-length tuples of elements of a finite acting group."""
    size = pres.k_order() ** degree
    if size > MAX_K_TUPLES:
        raise DegreeError(
            f"|K|^{degree} = {size} group tuples exceed the limit of "
            f"{MAX_K_TUPLES} (diffcech.cech.MAX_K_TUPLES)")
    return list(product(pres.k_elements(), repeat=degree))


def _quotient_points(pres, k: int) -> Optional[List[Tuple]]:
    """The group tuples a degree-k quotient cochain is stored at: () in
    degree 0, all of K^k for finite K, the generators in degree 1; None where
    the payload is lazy."""
    if k < 0:
        raise DegreeError(f"quotient cochains have no degree {k}")
    if k == 0:
        return [()]
    if pres.is_finite():
        return _k_tuples(pres, k)
    if k == 1:
        return [(pres.gen_power(i),) for i in range(pres.rank)]
    return None


def _quotient_cochain(pres, k: int, value: Callable) -> Cochain:
    """The degree-k quotient cochain with value(kt) at each stored point."""
    points = _quotient_points(pres, k)
    if points is None:
        return Cochain.lazy(pres, k, value)
    if k == 0:
        return Cochain.function(pres, value(()))
    if pres.is_finite():
        return Cochain(pres, k, RAlphaGroup(), "table",
                       {kt: value(kt) for kt in points})
    return Cochain(pres, 1, RAlphaGroup(), "crossed",
                   {i: value(kt) for i, kt in enumerate(points)})


def zero_cochain(pres, degree: int, group: Group) -> Cochain:
    if pres.kind == "nerve":
        pres.tuples(degree)  # refuses a degree over k_max
        return _stored(pres, degree, group, ())
    if group.tag != "R(alpha)":
        raise ParseError("quotient cochains are valued in the R model")
    zero = pres.function_class().zero()
    return _quotient_cochain(pres, degree, lambda kt: zero)


# ---------------------------------------------------------------------------
# crossed data extension


def crossed_value(pres, values: Dict[int, FunctionElement], k) -> FunctionElement:
    """Extend generator data by the law kappa(k+k') = kappa(k) + kappa(k').k.

    Each generator's part is acted on by the prefix of k before it through
    `act_function`, so a constant part, and the first part, build no
    affine map."""
    k = pres.k_canonical(k)
    cls = pres.function_class()
    acc = cls.zero()
    prefix = pres.k_identity()
    for i, n in enumerate(k):
        if n == 0:
            continue
        if i not in values:
            raise ParseError(f"crossed key {i!r} out of range of the data")
        acc = acc + pres.act_function(_crossed_single(pres, values[i], i, n),
                                      prefix)
        prefix = pres.k_add(prefix, pres.gen_power(i, n))
    return acc


def _crossed_single(pres, val: FunctionElement, i: int, n: int) -> FunctionElement:
    """S(n) = sum_{0 <= j < n} val.g_i^j, by S(1) = val, S(2m) = S(m) +
    g_i^m.S(m) and S(m+1) = S(m) + g_i^m.val; S(-n) = -g_i^(-n).S(n).

    S is built over the binary prefixes p of |n|, shortest first, in a loop,
    so that no exponent is too large for the stack; each S(p) is cached under
    (val, i, p).  n itself is looked up first; S(n) of a zero val is val.
    Each action goes through `act_function`: a constant val makes every S(p)
    constant, so S(n) = n * val is summed without an affine map, while other
    data builds O(log |n|) of them.
    """
    if n == 1 or not val.terms:
        return val
    cache = getattr(pres, "_crossed_cache", None)
    if cache is None:
        cache = pres._crossed_cache = {}
    acc = cache.get((val, i, n))
    if acc is not None:
        return acc
    a = abs(n)
    steps = [a >> s for s in range(a.bit_length() - 2, -1, -1)]
    if n < 0:
        steps.append(n)
    acc = val
    for p in steps:
        key = (val, i, p)
        part, acc = acc, (None if p == n else cache.get(key))
        if acc is None:
            if p < 0:
                acc = -pres.act_function(part, pres.gen_power(i, p))
            else:
                m = p // 2
                acc = part + pres.act_function(part, pres.gen_power(i, m))
                if p % 2:
                    acc = acc + pres.act_function(val,
                                                  pres.gen_power(i, p - 1))
            if len(cache) >= CROSSED_CACHE_SIZE:
                cache.clear()
            cache[key] = acc
    return acc


def crossed_relations(pres, values: Dict[int, FunctionElement]):
    """(location, residual) for each relation crossed data must satisfy.

    In order: for each generator g_i, the commuting pairs (g_i, g_j), j > i,
    as kappa_i + kappa_j.g_i - kappa_j - kappa_i.g_j, then for torsion
    generators the unreduced orbit sum (canonicalizing first would erase it).
    The data is crossed exactly when every residual vanishes.
    """
    for i, gi in enumerate(pres.generators):
        for j in range(i + 1, pres.rank):
            lhs = values[i] + pres.act_function(values[j], pres.gen_power(i))
            rhs = values[j] + pres.act_function(values[i], pres.gen_power(j))
            yield f"(g{i + 1},g{j + 1})", lhs - rhs
        if gi.torsion:
            yield (f"g{i + 1}^(torsion)",
                   _crossed_single(pres, values[i], i, gi.torsion))


# ---------------------------------------------------------------------------
# coboundary


def coboundary(c: Cochain) -> Cochain:
    k = c.degree
    pres = c.pres
    if pres.kind == "nerve":
        if k + 1 > pres.k_max:
            raise DegreeError(f"degree {k + 1} exceeds k_max={pres.k_max}")
        g = c.group
        out = []
        for t in pres.tuples(k + 1):
            acc = g.zero()
            for i in range(k + 2):
                v = c.payload[t[:i] + t[i + 1 :]]
                acc = g.add(acc, v if i % 2 == 0 else g.neg(v))
            out.append((t, acc))
        return _stored(pres, k + 1, g, out)

    def dvalue(kt):
        # kt is canonical: a stored point, or a tuple q_value has made so;
        # the one point that may not be, (g_i,) of a torsion-1 generator in
        # degree 1, has no shift and only the face ()
        k1 = kt[0]
        head = pres.act_function(
            c._q(tuple(pres._k_sub(kj, k1) for kj in kt[1:])), k1)
        return signed_sum(head.cls, [(1, head)] + [
            (-1 if i % 2 else 1, c._q(kt[: i - 1] + kt[i:]))
            for i in range(1, k + 2)])

    # d of a degree-0 function is principal crossed data; d of crossed data
    # satisfies no relation a priori and is evaluated lazily
    return _quotient_cochain(pres, k + 1, dvalue)


# ---------------------------------------------------------------------------
# cocycle checking


class CocycleCheck:
    """Outcome of is_cocycle: truthy, or carries a counterexample."""

    def __init__(self, ok: bool, location=None, detail: str = ""):
        self.ok = ok
        self.location = location
        self.detail = detail

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "CocycleCheck(yes)"
        return f"CocycleCheck(counterexample at {self.location}: {self.detail})"


def is_cocycle(c: Cochain) -> CocycleCheck:
    """Decide crossed data by its generator relations, and any other stored
    cochain by a scan of d(c).  A lazy cochain (computed, over an infinite K)
    has no exact test and is refused.  The outcome is kept on c."""
    if c.payload_kind == "lazy":
        raise DegreeError("lazy cochains have no decidable cocycle test")
    if c._check is None:
        c._check = _cocycle_check(c)
    return c._check


def _cocycle_check(c: Cochain) -> CocycleCheck:
    pres = c.pres
    if pres.kind == "nerve":
        if c.degree >= pres.k_max:
            # no room to evaluate d; treat top-degree cochains as cocycles
            return CocycleCheck(True, detail="top degree")
        zero = c.group.zero()
    elif c.degree == 0:
        for i in range(pres.rank):
            diff = pres.act_function(c.payload, pres.gen_power(i)) - c.payload
            if not diff.is_zero():
                return CocycleCheck(False, f"g{i + 1}", str(diff))
        return CocycleCheck(True)
    elif c.payload_kind == "crossed":
        # crossed exactly when the Fox derivatives of the relators vanish:
        # the commuting pairs and torsion orbit sums (Brown, ch. IV)
        for location, residual in crossed_relations(pres, c.payload):
            if not residual.is_zero():
                return CocycleCheck(False, location, str(residual))
        return CocycleCheck(True)
    else:
        zero = pres.function_class().zero()
    for p, v in coboundary(c).payload.items():
        if v != zero:
            return CocycleCheck(False, p, c.group.format_el(v))
    return CocycleCheck(True)


# ---------------------------------------------------------------------------
# boundary matrices and the cohomology engines


# longest side of a matrix that the SNF sees: a boundary matrix factored as it
# is, or the leftover of one after its unit pivots (`reduce`); rows are
# sparse, but the SNF of an a x b matrix keeps b x b (or a x a) transforms,
# which fill in
MAX_MATRIX_SIDE = 4096


def boundary_matrix(pres, k: int) -> List[Dict[int, int]]:
    """Integer matrix of d: C^k -> C^{k+1} on a nerve, one sparse row per
    (k+2)-tuple.  A face of a stored tuple is stored as it is: increasing
    tuples have increasing faces, so no face needs a sign from sorting, and
    faces that cancel (repeats allowed) leave no entry."""
    rows = pres.tuples(k + 1)
    idx = pres.index(k)
    M = [{} for _ in rows]
    for row, t in zip(M, rows):
        for i in range(k + 2):
            j = idx[t[:i] + t[i + 1 :]]
            x = row.pop(j, 0) + (-1 if i % 2 else 1)
            if x:
                row[j] = x
    return M


def _within_side(what: str, *sides: int):
    if max(sides) > MAX_MATRIX_SIDE:
        raise DegreeError(
            f"{what} is {' x '.join(map(str, sides))}; a side exceeds the "
            f"limit of {MAX_MATRIX_SIDE} (diffcech.cech.MAX_MATRIX_SIDE)")


class CohomologyReport:
    """Structure of H^k plus representative cocycles and a class oracle."""

    def __init__(self, pres, degree: int, group: Group, free_rank: int = 0,
                 invariant_factors=(), representatives=(),
                 oracle: Optional[Callable] = None, note: str = ""):
        self.pres = pres
        self.degree = degree
        self.group = group
        # over the field R(alpha) the free rank is read as a dimension
        field = group.tag == "R(alpha)"
        self.kind = "field" if field else "integer"
        self.free_rank = 0 if field else free_rank
        self.invariant_factors = list(invariant_factors)
        self.dimension = free_rank if field else 0
        self.representatives = list(representatives)
        self._oracle = oracle
        self.note = note

    def group_description(self) -> str:
        if self.kind == "field":
            return "0" if self.dimension == 0 else f"R^{self.dimension}"
        parts = []
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"

    def class_coordinates(self, c: Cochain):
        """Coordinates of the class of a cocycle in the reported structure."""
        if self._oracle is None:
            raise ParseError("report carries no class oracle")
        return self._oracle(c)

    def is_zero_class(self, c: Cochain) -> bool:
        return all(x == 0 for x in self.class_coordinates(c))

    def to_dict(self) -> dict:
        doc = {
            "degree": self.degree,
            "coefficients": self.group.tag,
            "presentation": getattr(self.pres, "name", None) or self.pres.kind,
            "group": self.group_description(),
        }
        if self.kind == "integer":
            doc["free_rank"] = self.free_rank
            doc["invariant_factors"] = self.invariant_factors
        else:
            doc["dimension"] = self.dimension
        if self.note:
            doc["note"] = self.note
        doc["representatives"] = [r.to_dict() for r in self.representatives]
        return doc

    def __repr__(self):
        return (f"CohomologyReport(H^{self.degree}({self.group.tag}) = "
                f"{self.group_description()})")


def _nerve_vector(c: Cochain) -> list:
    return [c.payload[t] for t in c.pres.tuples(c.degree)]


def _nerve_from_vector(pres, degree, group, vec) -> Cochain:
    """The cochain of an engine's sparse {position: value} vector, built
    trusted: only its entries are made canonical, and those that are zero
    are left out."""
    tuples = pres.tuples(degree)
    return _stored(pres, degree, group, (
        (tuples[j], group.canonical(vec[j])) for j in sorted(vec)))


def _reduction(pres, k: int) -> Reduction:
    """d_{k-1} and d_k of a nerve with their unit pivots eliminated; there
    is no d_k at the top degree, where every cochain counts as a cocycle."""
    red = Reduction(boundary_matrix(pres, k - 1), len(pres.tuples(k - 1)),
                    boundary_matrix(pres, k) if k < pres.k_max else [],
                    len(pres.tuples(k)))
    _within_side(f"the complex for H^{k} left by the unit pivots",
                 *map(len, red.cells))
    return red


def _within_values(k: int, values: int):
    # the nonzero values that the generators of H^k print
    if values > MAX_MATRIX_SIDE ** 2:
        raise DegreeError(
            f"the generators of H^{k} hold {values} nonzero values, over the "
            f"limit of {MAX_MATRIX_SIDE ** 2} "
            f"(diffcech.cech.MAX_MATRIX_SIDE squared)")


def _integer_cohomology(pres, k: int, group: Group) -> CohomologyReport:
    """H^k (k >= 1) of a nerve over Z, Z/m or R(alpha), from the complex of
    d_{k-1} and d_k with its unit pivots eliminated (`reduce.Reduction`).
    Over R(alpha) the class oracle maps the integer numerators of a
    cochain, power by power of a.  A repeats-allowed nerve is computed on
    its alternating twin: the representatives are the alternating
    extensions of the twin's, and the oracle checks the cocycle law on the
    ordered complex and reads the restriction to increasing tuples.  The
    ordered tuples are counted, not listed."""
    alt = pres
    if not pres.alternating:
        pres.count(k + 1)
        alt = pres.twin()
    red = _reduction(alt, k)
    field = group.tag == "R(alpha)"
    free, factors, reps, coords = red.cohomology(
        lambda: boundary_matrix(alt, k), getattr(group, "m", 0), field)
    reps = [_nerve_from_vector(alt, k, group, z) for z in reps]
    values = sum(len(r.payload) for r in reps)
    if alt is not pres:
        # an increasing tuple is printed at each of its (k+1)! orderings
        values *= factorial(k + 1)
    _within_values(k, values)
    if alt is not pres and values:
        # the value at an increasing tuple s, with the sign of the
        # permutation, at each ordering of s; a tuple that repeats a chart
        # is zero.  A face of k+1 charts exists, and its orderings were
        # counted, so there are few permutations
        neg = group.neg
        signs = [(p, _sort_parity(p)[0] > 0)
                 for p in permutations(range(k + 1))]
        reps = [_stored(pres, k, group, sorted(
            (tuple(s[i] for i in p), v if even else neg(v))
            for s, v in r.payload.items() for p, even in signs))
            for r in reps]

    def oracle(c: Cochain):
        _require_degree(c, pres, k, group)
        if alt is not pres:
            _require_cocycle(c)
        vec = [c.payload[t] for t in alt.tuples(k)]
        return tuple(linalg.apply_integer_map(coords, vec) if field
                     else coords(vec))

    return CohomologyReport(
        pres, k, group, free_rank=free, invariant_factors=factors,
        representatives=reps, oracle=oracle)


def _components(pres, group: Group) -> CohomologyReport:
    """H^0 of a nerve: the locally constant data, one free generator per
    connected component (of order m over Z/m), which is 1 on it and 0
    elsewhere; its coordinate is the value at the component's first chart.
    The edges that d_0 would list are counted, and refused, first."""
    pres.count(1)
    comps = pres.components()
    _within_side("the complex for H^0 left by the unit pivots",
                 0, len(comps), 0)
    one = group.canonical(1)
    reps = [_stored(pres, 0, group, (((i,), one) for i in comp))
            for comp in comps]
    _within_values(0, sum(len(r.payload) for r in reps))

    def oracle(c):
        _require_degree(c, pres, 0, group)
        _require_cocycle(c)
        return tuple(c.payload[(comp[0],)] for comp in comps)

    m = getattr(group, "m", 0)
    return CohomologyReport(
        pres, 0, group, free_rank=0 if m else len(comps),
        invariant_factors=[m] * len(comps) if m else (),
        representatives=reps, oracle=oracle)


def cohomology(pres, group: Group, k: int) -> CohomologyReport:
    """Compute H^k of the presentation with the given coefficient group."""
    if pres.kind == "nerve":
        if k < 0 or k >= pres.k_max:
            raise DegreeError(
                f"degree {k} not supported with k_max={pres.k_max}"
            )
        _require_nerve_tag(group)
        if not k:
            return _components(pres, group)
        return _integer_cohomology(pres, k, group)
    from .grpcoh import quotient_cohomology

    return quotient_cohomology(pres, group, k)


def h0_global_sections(pres, group: Group) -> CohomologyReport:
    """H^0 as global sections: locally constant data glued over the nerve,
    or the K-invariant functions of a quotient."""
    if pres.kind == "nerve":
        _require_nerve_tag(group)
        rep = _components(pres, group)
        rep.note = f"{len(rep.representatives)} component(s)"
        return rep
    return cohomology(pres, group, 0)


def _require_nerve_tag(group: Group):
    tag = group.tag
    if tag not in ("Z", "R(alpha)") and not tag.startswith("Z/"):
        raise ParseError(f"unsupported coefficient tag {tag!r} "
                         "for nerve cohomology")


def _require_degree(c: Cochain, pres, k: int, group: Group):
    if c.pres != pres or c.degree != k or c.group != group:
        raise TagError(f"the class oracle of H^{k} takes degree-{k} "
                       f"cochains on its presentation, over its group")


def _require_cocycle(c: Cochain):
    chk = is_cocycle(c)
    if not chk:
        raise CocycleError(f"not a cocycle: {chk.location} -> {chk.detail}")


# ---------------------------------------------------------------------------
# functoriality


def pullback_cochain(m, c: Cochain) -> Cochain:
    """(f# c)(b0,...,bk) = c(phi(b0),...,phi(bk)) along a morphism m."""
    if c.pres != m.target:
        raise TagError("cochain does not live on the morphism target")
    src = m.source
    if src.kind == "nerve":
        vals = {t: c.value_at(m.map_tuple(t)) for t in src.tuples(c.degree)}
        return Cochain.nerve(src, c.degree, c.group, vals)
    return _quotient_cochain(
        src, c.degree,
        lambda kt: act(m.affine, c.q_value(tuple(m.map_k(x) for x in kt))))


def push_coefficients(h: GroupHom, c: Cochain) -> Cochain:
    """Apply a coefficient homomorphism value-wise."""
    if c.group != h.source:
        raise TagError(f"cochain group {c.group.tag} does not match "
                       f"homomorphism source {h.source.tag}")
    if c.payload_kind != "values":
        raise ParseError("coefficient pushforward applies to nerve cochains")
    vals = {t: h.apply(v) for t, v in c.payload.items()}
    return Cochain.nerve(c.pres, c.degree, h.target, vals)


def connecting_map(ses: CoefficientSES, c: Cochain) -> Cochain:
    """The connecting homomorphism: lift value-wise, take d, pull back to A."""
    if c.group != ses.c:
        raise TagError(f"cochain group {c.group.tag} does not match the "
                       f"SES quotient {ses.c.tag}")
    if c.payload_kind != "values":
        raise ParseError("connecting map applies to nerve cochains")
    _require_cocycle(c)
    b = Cochain.nerve(c.pres, c.degree, ses.b,
                      {t: ses.lift_fn(v) for t, v in c.payload.items()})
    db = coboundary(b)
    vals = {t: ses.injection_preimage(v) for t, v in db.payload.items()}
    return Cochain.nerve(c.pres, c.degree + 1, ses.a, vals)


# ---------------------------------------------------------------------------
# class comparison


class ClassComparison:
    """Result of classes_equal: a witness cochain or a distinctness note."""

    def __init__(self, equal: bool, witness: Optional[Cochain],
                 certificate: str):
        self.equal = equal
        self.witness = witness
        self.certificate = certificate

    def __bool__(self):
        return self.equal

    def __repr__(self):
        return ("ClassComparison(equal, witness)" if self.equal
                else f"ClassComparison(distinct: {self.certificate})")


def classes_equal(f1: Cochain, f2: Cochain) -> ClassComparison:
    """Solve d(alpha) = f2 - f1 exactly; witness alpha or distinct."""
    if f1.pres != f2.pres or f1.degree != f2.degree or f1.group != f2.group:
        raise TagError("cochains live on different presentations or degrees")
    pres, k = f1.pres, f1.degree
    if pres.kind == "quotient" and k > 1 and not pres.is_finite():
        raise DegreeError(
            "class comparison above degree 1 needs a finite group")
    _require_cocycle(f1)
    _require_cocycle(f2)
    diff = f2 - f1
    if pres.kind == "nerve":
        if k == 0:
            if diff.is_zero():
                return ClassComparison(True, zero_cochain(pres, 0, f1.group),
                                       "equal as global sections")
            return ClassComparison(False, None,
                                   "degree-0 classes differ value-wise")
        sol = _reduction(pres, k).solve(_nerve_vector(diff), f1.group)
        if sol is None:
            return ClassComparison(
                False, None,
                f"no (k-1)-cochain alpha over {f1.group.tag} solves "
                f"d(alpha) = difference",
            )
        alpha = _nerve_from_vector(pres, k - 1, f1.group, sol)
        return ClassComparison(True, alpha, "witness found")
    from .grpcoh import _quotient_classes_equal

    return _quotient_classes_equal(pres, k, diff)


# ---------------------------------------------------------------------------
# random cochains


def random_cochain(pres, degree: int, group: Group, rng) -> Cochain:
    if pres.kind == "nerve":
        return Cochain.nerve(pres, degree, group,
                             {t: group.random(rng) for t in pres.tuples(degree)})
    cls = pres.function_class()
    if _quotient_points(pres, degree) is not None:
        return _quotient_cochain(pres, degree, lambda kt: cls.random(rng))
    seed = rng.randrange(1 << 30)
    # the lazy payload memoizes each value (Cochain.q_value)
    return _quotient_cochain(
        pres, degree, lambda kt: cls.random(random.Random(f"{seed}:{kt}")))


def random_cocycle(pres, degree: int, group: Group, rng,
                   distinguished=()) -> Cochain:
    """A random degree-k cocycle: a coboundary plus distinguished classes."""
    base = coboundary(random_cochain(pres, degree - 1, group, rng))
    for c in distinguished:
        base = base + c.scale_int(rng.randrange(-3, 4))
    return base
