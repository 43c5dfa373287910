"""Finite presentations of diffeological spaces.

Two kinds are representable: good-cover nerves (locally constant data, one
coefficient value per alive chart tuple) and quotients of a contractible
nebula domain by a finitely generated abelian group acting affinely.  Both
carry the simplicial structure of the iterated fiber products of the nebula:
alive tuples, degeneracy maps dropping one factor, and morphisms induced by
refinements.
"""

from __future__ import annotations

from copy import copy
from itertools import combinations, product
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CompatibilityError, DegreeError, ParseError
from .funclass import AffineMap, FunctionClass

# most alive tuples a nerve may have in one degree; cochain groups and
# boundary matrices grow with this count
MAX_TUPLES = 1 << 18

# most monomials, C(n+D+1, D+1), in the class one degree above a quotient's
# function class (n variables, degree D): H^1 and class comparison look for
# witnesses there, and their linear systems grow with this count
MAX_CLASS_DIMENSION = 64


def _within_limit(k, count):
    """Refuse a count of alive tuples of degree k over the limit."""
    if count > MAX_TUPLES:
        raise DegreeError(
            f"more than {MAX_TUPLES} alive tuples in degree {k} "
            f"(diffcech.presentation.MAX_TUPLES)")


def _refuse_entry(face, i):
    """Refuse a face holding an entry that is not an int (named by repr, the
    least first), or else the chart index i, which is out of range."""
    odd = [x for x in face if type(x) is not int]
    if odd:
        raise ParseError(f"face {sorted(face, key=repr)} holds "
                         f"{min(odd, key=repr)!r}, which is not an integer "
                         f"chart index")
    raise ParseError(f"face {sorted(face)} references unknown chart {i}")


class FiniteNerve:
    """Nerve of a good cover, given by its abstract simplicial complex.

    ``faces`` holds every alive support set (including singletons); an ordered
    tuple with repeats is alive iff its support is a face.  In alternating
    mode only strictly increasing tuples index cochain values.
    """

    kind = "nerve"

    def __init__(self, charts, faces, k_max: int, alternating: bool = True,
                 name: Optional[str] = None):
        self.charts = list(charts)
        self.k_max = k_max
        self.alternating = alternating
        self.name = name
        self.faces = frozenset(frozenset(f) for f in faces)
        self._tuple_cache: Dict[int, List[Tuple[int, ...]]] = {}
        self._index_cache: Dict[int, Dict[Tuple[int, ...], int]] = {}
        self._validate()

    def _validate(self):
        """Check the faces, and group them by size (``_by_size``)."""
        n = len(self.charts)
        by_size: Dict[int, List[frozenset]] = {}
        for f in self.faces:
            if not f:
                raise ParseError("empty face in nerve")
            for i in f:
                if type(i) is not int or not 0 <= i < n:
                    _refuse_entry(f, i)
            by_size.setdefault(len(f), []).append(f)
        for i in range(n):
            if frozenset([i]) not in self.faces:
                raise ParseError(f"missing singleton face [{i}]")
        # the faces of an edge are singletons, checked above
        for f in self.faces:
            if len(f) > 2:
                for i in f:
                    sub = f - {i}
                    if sub not in self.faces:
                        raise ParseError(
                            f"alive tuple {sorted(f)} is not face-closed: "
                            f"missing face {sorted(sub)}"
                        )
        self._by_size = by_size

    @staticmethod
    def from_facets(nchart: int, facets, k_max: int, alternating: bool = True,
                    name: Optional[str] = None) -> "FiniteNerve":
        faces = set()
        for facet in facets:
            fs = frozenset(facet)
            stack = [fs]
            while stack:
                f = stack.pop()
                if f and f not in faces:
                    faces.add(f)
                    for i in f:
                        stack.append(f - {i})
        for i in range(nchart):
            faces.add(frozenset([i]))
        return FiniteNerve(list(range(nchart)), faces, k_max, alternating, name)

    def tuples(self, k: int) -> List[Tuple[int, ...]]:
        """Alive (k+1)-tuples in lexicographic order.

        In alternating mode these are the sorted faces of size k+1.  With
        repeats allowed, every prefix of an alive tuple is alive, as faces
        are closed under subsets: degree j extends each tuple of degree j-1
        by the charts sharing an edge with its last entry, in increasing
        order, caching every degree.
        """
        if k < 0:
            return [()]
        if k > self.k_max:
            raise DegreeError(f"degree {k} exceeds k_max={self.k_max}")
        cache = self._tuple_cache
        if self.alternating and k not in cache:
            cache[k] = sorted(
                tuple(sorted(f)) for f in self._by_size.get(k + 1, ()))
            _within_limit(k, len(cache[k]))
        if k not in cache:
            # nbrs[i]: the charts sharing an edge face with chart i, itself
            # included, increasing
            nbrs = [{i} for i in range(len(self.charts))]
            for i, j in self._by_size.get(2, ()):
                nbrs[i].add(j)
                nbrs[j].add(i)
            nbrs = [sorted(nb) for nb in nbrs]
            level = cache[len(cache) - 1] if cache else [()]
            for j in range(len(cache), k + 1):
                out = []
                for t in level:
                    if t:
                        base = frozenset(t)
                        out.extend(t + (v,) for v in nbrs[t[-1]]
                                   if v in base or base | {v} in self.faces)
                    else:
                        out.extend((v,) for v in range(len(self.charts)))
                    _within_limit(j, len(out))
                cache[j] = level = out
        return cache[k]

    def count(self, k: int) -> int:
        """len(tuples(k)), refused as tuples(k) is, with no tuple listed.
        With repeats allowed, the tuples of length L on a face of s charts
        are the s! S(L, s) maps of L positions onto it, and every degree up
        to k is checked in turn, as tuples(k) lists them."""
        if self.alternating:
            total = len(self._by_size.get(k + 1, ()))
            _within_limit(k, total)
            return total
        for j in range(k + 1):
            total = sum(len(fs) * sum((-1) ** i * comb(s, i)
                                      * (s - i) ** (j + 1)
                                      for i in range(s + 1))
                        for s, fs in self._by_size.items())
            _within_limit(j, total)
        return total

    def twin(self) -> "FiniteNerve":
        """The alternating nerve of the same cover.  Its cochains are the
        alternating cochains of this one, restricted to increasing tuples: a
        subcomplex of the ordered complex with the same cohomology (Serre,
        Ann. Math. 1955).  The faces were validated and grouped by size with
        this nerve, so the twin is a copy with its own tuple caches."""
        twin = copy(self)
        twin.alternating = True
        twin._tuple_cache, twin._index_cache = {}, {}
        return twin

    def index(self, k: int) -> Dict[Tuple[int, ...], int]:
        """The position of each alive (k+1)-tuple in ``tuples(k)``."""
        if k not in self._index_cache:
            self._index_cache[k] = {t: j for j, t in enumerate(self.tuples(k))}
        return self._index_cache[k]

    def components(self) -> List[List[int]]:
        """Connected components of the chart intersection graph: faces are
        closed under subsets, so its edges are the faces of size 2."""
        n = len(self.charts)
        seen, comps = set(), []
        adj = [[] for _ in range(n)]
        for i, j in self._by_size.get(2, ()):
            adj[i].append(j)
            adj[j].append(i)
        for i in range(n):
            if i in seen:
                continue
            comp, stack = [], [i]
            while stack:
                j = stack.pop()
                if j in seen:
                    continue
                seen.add(j)
                comp.append(j)
                stack.extend(adj[j])
            comps.append(sorted(comp))
        return comps

    def __eq__(self, other):
        return (
            isinstance(other, FiniteNerve)
            and self.charts == other.charts
            and self.faces == other.faces
            and self.k_max == other.k_max
            and self.alternating == other.alternating
        )

    def __hash__(self):
        return hash((tuple(map(str, self.charts)), self.faces, self.k_max,
                     self.alternating))

    def __repr__(self):
        return (
            f"FiniteNerve({self.name or len(self.charts)} charts, "
            f"k_max={self.k_max}, alternating={self.alternating})"
        )


class Generator:
    """One generator of the acting group: torsion order and affine map."""

    __slots__ = ("torsion", "affine")

    def __init__(self, torsion: int, affine: AffineMap):
        self.torsion = torsion  # 0 means infinite order
        self.affine = affine

    def __eq__(self, other):
        return (
            isinstance(other, Generator)
            and self.torsion == other.torsion
            and self.affine == other.affine
        )

    def __hash__(self):
        return hash((self.torsion, self.affine))


def _wide_class_over_the_cap(n: int, D: int) -> bool:
    """Whether C(n+D+1, D+1) > MAX_CLASS_DIMENSION, for n, D >= 0.  With
    k = min(n, D+1) it is built as C(n+D+1-k+i, i) for i = 1..k, which
    grows with i, so a huge n or D stops after a few steps."""
    k = min(n, D + 1)
    top, size = n + D + 1 - k, 1
    for i in range(1, k + 1):
        size = size * (top + i) // i
        if size > MAX_CLASS_DIMENSION:
            return True
    return False


class GroupQuotient:
    """Quotient of a contractible nebula domain R^n by an affine K-action."""

    kind = "quotient"

    def __init__(self, dim: int, generators: Sequence[Generator], free: bool,
                 function_class_degree: int = 1, name: Optional[str] = None):
        self.dim = dim
        self.generators = list(generators)
        self.free = free
        self.function_class_degree = function_class_degree
        self.name = name
        self._affine_cache: Dict[Tuple[int, ...], AffineMap] = {}
        for what, size in (("dimension", dim),
                           ("function class degree", function_class_degree)):
            if size < 0:
                raise DegreeError(f"the {what} {size} is negative")
        if _wide_class_over_the_cap(dim, function_class_degree):
            raise DegreeError(
                f"the function class (n={dim}, D={function_class_degree}) has "
                f"over {MAX_CLASS_DIMENSION} monomials one degree up, where "
                f"witnesses are sought "
                f"(diffcech.presentation.MAX_CLASS_DIMENSION)")
        self._validate()
        self._torsion = tuple(g.torsion for g in self.generators)
        self._torsion_free = not any(self._torsion)
        self._function_class = FunctionClass(dim, function_class_degree)

    def _validate(self):
        for g in self.generators:
            if g.affine.dim != self.dim:
                raise ParseError("generator affine map has wrong dimension")
        for i, g in enumerate(self.generators):
            for h in self.generators[i + 1 :]:
                if g.affine.compose(h.affine) != h.affine.compose(g.affine):
                    raise ParseError("generator affine maps do not commute")
            if g.torsion < 0:
                raise ParseError(f"torsion order {g.torsion} is negative "
                                 "(0 means infinite order)")
            if g.torsion and not g.affine.power(g.torsion).is_identity():
                raise ParseError(
                    f"torsion order {g.torsion} not satisfied by affine map"
                )

    # -- the acting group K -------------------------------------------
    @property
    def rank(self):
        return len(self.generators)

    def k_identity(self) -> Tuple[int, ...]:
        return (0,) * self.rank

    def k_canonical(self, k) -> Tuple[int, ...]:
        given = tuple(k)
        k = tuple(map(int, given))
        if k != given:
            bad = next(x for x, n in zip(given, k) if x != n)
            raise ParseError(
                f"group element {given} has the non-integral exponent {bad}")
        if len(k) != len(self._torsion):
            raise ParseError(f"group element {k} has wrong rank")
        if self._torsion_free:
            return k
        return tuple(x % t if t else x for x, t in zip(k, self._torsion))

    def k_add(self, k1, k2):
        return self.k_canonical(tuple(a + b for a, b in zip(k1, k2)))

    def _k_sub(self, k1, k2) -> Tuple[int, ...]:
        """k1 - k2, reduced by the torsion; k1 and k2 are trusted to be
        canonical tuples of this group, and nothing is checked."""
        if self._torsion_free:
            return tuple([a - b for a, b in zip(k1, k2)])
        return tuple([(a - b) % t if t else a - b
                      for a, b, t in zip(k1, k2, self._torsion)])

    def gen_power(self, i: int, n: int = 1) -> Tuple[int, ...]:
        """The exponent vector of g_i^n, not reduced by the torsion."""
        return tuple(n if j == i else 0 for j in range(self.rank))

    def is_finite(self) -> bool:
        return all(self._torsion)

    def k_order(self) -> int:
        if not self.is_finite():
            raise DegreeError("acting group is infinite")
        n = 1
        for g in self.generators:
            n *= g.torsion
        return n

    def k_elements(self) -> List[Tuple[int, ...]]:
        if not self.is_finite():
            raise DegreeError("acting group is infinite")
        # each exponent is below its order: canonical as it is made
        return list(product(*[range(t) for t in self._torsion]))

    def affine_of(self, k) -> AffineMap:
        """The affine action of the group element with exponent vector k.

        Each map is cached under its canonical k and built from cached
        parts: an element on several generators is the product of its
        one-generator parts (the generators commute), g_i^n is the square
        of g_i^(n/2), times g_i^(+-1) when n is odd, and g_i^-1 is the
        inverse of g_i, computed once.
        """
        k = self.k_canonical(k)
        cache = self._affine_cache
        phi = cache.get(k)
        if phi is not None:
            return phi
        used = [i for i, n in enumerate(k) if n]
        if not used:
            phi = cache[k] = AffineMap.identity(self.dim)
        elif len(used) > 1:
            phi = self.affine_of(self.gen_power(used[0], k[used[0]]))
            for i in used[1:]:
                phi = self.affine_of(self.gen_power(i, k[i])).compose(phi)
            cache[k] = phi
        else:
            # g_i^(sign p) for the binary prefixes p of |n|: the longest one
            # cached is looked up first, and the longer ones are built from
            # it, shortest first, in loops, so that no exponent is too large
            # for the stack and a walk that starts where an earlier one
            # ended makes few lookups.  Each key is canonical: a torsion
            # exponent is positive and below the order, and so is each
            # prefix.
            i = used[0]
            head, n, tail = k[:i], k[i], k[i + 1:]
            sign = 1 if n > 0 else -1
            key = head + (sign,) + tail
            step = cache.get(key)
            if step is None:
                g = self.generators[i].affine
                step = cache[key] = g if sign > 0 else g.inverse()
            a = abs(n)
            todo = [a >> shift for shift in range(a.bit_length() - 1)]
            phi = step
            for j in range(1, len(todo)):
                hit = cache.get(head + (sign * todo[j],) + tail)
                if hit is not None:
                    phi, todo = hit, todo[:j]
                    break
            for p in reversed(todo):
                phi = phi.compose(phi)
                if p & 1:
                    phi = step.compose(phi)
                cache[head + (sign * p,) + tail] = phi
        return phi

    def act_point(self, point, k):
        return self.affine_of(k).apply(point)

    def function_class(self) -> FunctionClass:
        return self._function_class

    def random_k(self, rng):
        return self.k_canonical(
            tuple(
                rng.randrange(g.torsion) if g.torsion else rng.randrange(-4, 5)
                for g in self.generators
            )
        )

    def __eq__(self, other):
        return (
            isinstance(other, GroupQuotient)
            and self.dim == other.dim
            and self.generators == other.generators
            and self.free == other.free
            and self.function_class_degree == other.function_class_degree
        )

    def __hash__(self):
        return hash((self.dim, tuple(self.generators), self.free,
                     self.function_class_degree))

    def __repr__(self):
        return (
            f"GroupQuotient({self.name or ''} dim={self.dim}, "
            f"rank={self.rank}, free={self.free}, "
            f"D={self.function_class_degree})"
        )


class PresentationMorphism:
    """A refinement-style map between presentations.

    Nerve to nerve: a chart index map compatible with alive tuples.  Quotient
    to quotient: an affine map of nebula domains plus a group homomorphism
    intertwining the actions (checked symbolically on generators).
    """

    def __init__(self, source, target, index_map=None, affine=None,
                 hom=None, name: Optional[str] = None):
        self.source = source
        self.target = target
        self.index_map = index_map
        self.affine = affine
        self.hom = hom  # list of target K-elements, one per source generator
        self.name = name
        self._validate()

    def _validate(self):
        s, t = self.source, self.target
        if s.kind == "nerve" and t.kind == "nerve":
            if self.index_map is None or len(self.index_map) != len(s.charts):
                raise CompatibilityError("nerve morphism needs a full index map")
            for f in s.faces:
                image = frozenset(self.index_map[i] for i in f)
                if image not in t.faces:
                    raise CompatibilityError(
                        f"index map sends alive tuple {sorted(f)} to dead tuple "
                        f"{sorted(image)}"
                    )
        elif s.kind == "quotient" and t.kind == "quotient":
            if self.affine is None or self.hom is None:
                raise CompatibilityError(
                    "quotient morphism needs an affine map and a homomorphism"
                )
            if s.dim != t.dim:
                raise CompatibilityError("quotient morphism must preserve dimension")
            for g, img in zip(s.generators, self.hom):
                img = t.k_canonical(img)
                # F(y . g) = F(y) . hom(g), checked as affine map equality
                lhs = self.affine.compose(g.affine)
                rhs = t.affine_of(img).compose(self.affine)
                if lhs != rhs:
                    raise CompatibilityError(
                        "morphism does not intertwine the group actions"
                    )
        else:
            raise CompatibilityError(
                f"unsupported morphism kind {s.kind} -> {t.kind}"
            )

    @staticmethod
    def identity(pres) -> "PresentationMorphism":
        if pres.kind == "nerve":
            return PresentationMorphism(
                pres, pres, index_map=list(range(len(pres.charts))), name="id"
            )
        return PresentationMorphism(
            pres, pres, affine=AffineMap.identity(pres.dim),
            hom=[pres.k_canonical(pres.gen_power(i))
                 for i in range(pres.rank)],
            name="id",
        )

    def map_tuple(self, tup):
        return tuple(self.index_map[i] for i in tup)

    def map_k(self, k) -> Tuple[int, ...]:
        """Image of a source group element under the homomorphism."""
        out = self.target.k_identity()
        for n, img in zip(k, self.hom):
            out = self.target.k_add(
                out, self.target.k_canonical(tuple(n * x for x in img))
            )
        return out

    def __repr__(self):
        return f"PresentationMorphism({self.name or ''})"


def common_refinement(q, r, joint: Optional[FiniteNerve] = None):
    """A presentation refining both q and r, with the two refinement maps.

    Identical presentations refine themselves.  For distinct nerves the caller
    must declare compatibility by passing ``joint``: a nerve over the disjoint
    union of the two chart sets (q charts first) recording which mixed
    intersections are alive.  The result is the pairwise-intersection cover.
    """
    if q == r:
        return q, PresentationMorphism.identity(q), PresentationMorphism.identity(q)
    if q.kind != "nerve" or r.kind != "nerve":
        raise CompatibilityError("common refinement of distinct presentations "
                                 "is only supported for nerves")
    if q.alternating != r.alternating:
        raise CompatibilityError("nerves must share the alternating flag")
    if joint is None:
        raise CompatibilityError(
            "distinct nerves need caller-declared joint cover data"
        )
    na, nb = len(q.charts), len(r.charts)
    if len(joint.charts) != na + nb:
        raise CompatibilityError(
            "joint nerve must cover both chart sets (q charts first)"
        )
    pairs = [
        (a, b)
        for a in range(na)
        for b in range(nb)
        if frozenset([a, na + b]) in joint.faces
    ]
    index = {p: i for i, p in enumerate(pairs)}
    k_max = min(q.k_max, r.k_max)
    faces = set()
    for size in range(1, k_max + 2):
        for combo in combinations(range(len(pairs)), size):
            support = frozenset()
            for ci in combo:
                a, b = pairs[ci]
                support |= {a, na + b}
            if support in joint.faces:
                faces.add(frozenset(combo))
    s = FiniteNerve([f"{q.charts[a]}&{r.charts[b]}" for a, b in pairs], faces,
                    k_max, q.alternating,
                    name=f"refine({q.name or 'Q'},{r.name or 'R'})")
    mq = PresentationMorphism(s, q, index_map=[pairs[i][0] for i in range(len(pairs))],
                              name="to_q")
    mr = PresentationMorphism(s, r, index_map=[pairs[i][1] for i in range(len(pairs))],
                              name="to_r")
    return s, mq, mr


def circle_arc_nerve(arcs, k_max: int = 4, alternating: bool = True,
                     name: Optional[str] = None) -> FiniteNerve:
    """Nerve of a cover of the circle R/Z by open arcs (start, length).

    Arcs are given with exact rational endpoints; intersections are computed
    on the circle, so joint nerves of two arc covers are available for common
    refinements.
    """
    from fractions import Fraction

    arcs = [(Fraction(s), Fraction(l)) for s, l in arcs]
    if any(l <= 0 or l >= 1 for _, l in arcs):
        raise ParseError("arc lengths must lie strictly between 0 and 1")

    def intervals(arc):
        s, l = arc
        s %= 1
        if s + l <= 1:
            return [(s, s + l)]
        return [(s, Fraction(1)), (Fraction(0), s + l - 1)]

    def nonempty_intersection(sel):
        segs = [intervals(arcs[i]) for i in sel]
        # brute force over lifted segment choices
        for choice in product(*segs):
            lo = max(a for a, _ in choice)
            hi = min(b for _, b in choice)
            if lo < hi:
                return True
        return False

    n = len(arcs)
    faces = set()
    for size in range(1, min(n, k_max + 2) + 1):
        for combo in combinations(range(n), size):
            if all(frozenset(c) in faces
                   for c in combinations(combo, size - 1)) or size == 1:
                if nonempty_intersection(combo):
                    faces.add(frozenset(combo))
    return FiniteNerve(list(range(n)), faces, k_max, alternating, name)


def joint_circle_nerve(arcs_q, arcs_r) -> FiniteNerve:
    """Joint cover nerve for two arc covers of the circle (q arcs first)."""
    return circle_arc_nerve(list(arcs_q) + list(arcs_r), name="joint")
