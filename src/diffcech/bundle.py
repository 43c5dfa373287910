"""Principal G-bundle presentations and their classification by cocycles.

A bundle is stored by its defining degree-1 cocycle f; the total space is the
groupoid quotient of N(Q) x G under (y1,y2).(y2,g) = (y1, f(y1,y2)+g) and is
never materialized.  Points are equivalence classes [y, g]; the division map
returns the unique group element translating one fiber point to another.
"""

from __future__ import annotations

from math import lcm
from typing import Optional

from .cech import (
    Cochain,
    ClassComparison,
    classes_equal,
    coboundary,
    is_cocycle,
    zero_cochain,
)
from .coeff import Group, GroupElement, Scalar, _snf
from .errors import CocycleError, FiberError, ParseError
from .funclass import AffineMap


class BundlePoint:
    """A representative (y, g) of the class [y, g] in the quotient."""

    __slots__ = ("y", "g")

    def __init__(self, y, g):
        self.y = y
        self.g = g

    def __repr__(self):
        return f"BundlePoint(y={self.y}, g={self.g})"


class BundlePresentation:
    """A principal G-bundle given by base presentation and defining cocycle."""

    def __init__(self, base, group: Group, cocycle: Cochain,
                 name: Optional[str] = None):
        if cocycle.pres != base or cocycle.degree != 1:
            raise ParseError("defining cocycle must be degree 1 on the base")
        if cocycle.group != group:
            raise ParseError("cocycle group does not match the bundle group")
        chk = is_cocycle(cocycle)
        if not chk:
            raise CocycleError(
                f"defining cochain fails the cocycle law at {chk.location}: "
                f"{chk.detail}"
            )
        self.base = base
        self.group = group
        self.cocycle = cocycle
        self.name = name

    # -- the canonical trivialization tau0: y |-> [y, 0] ------------------
    def tau0(self, y) -> BundlePoint:
        return BundlePoint(y, self.group.zero())

    def point(self, y, g) -> BundlePoint:
        return BundlePoint(y, self.group.canonical(g))

    def act(self, p: BundlePoint, g) -> BundlePoint:
        """The right G-action [y, h].g = [y, h+g]."""
        return BundlePoint(p.y, self.group.add(p.g, self.group.canonical(g)))

    def f_value(self, y1, y2):
        """The cocycle value f(y1, y2) on a fiber pair of nebula points."""
        if self.base.kind == "nerve":
            if frozenset((y1, y2)) not in self.base.faces:
                raise FiberError(f"charts {y1} and {y2} do not overlap")
            return self.cocycle.value_at((y1, y2))
        k = _arrow(self.base, y1, y2)
        return self.cocycle.q_value((k,)).evaluate(y1)

    def __eq__(self, other):
        return (isinstance(other, BundlePresentation)
                and self.base == other.base and self.group == other.group
                and self.cocycle == other.cocycle)

    def __repr__(self):
        return (f"BundlePresentation({self.name or ''} over "
                f"{getattr(self.base, 'name', self.base.kind)}, "
                f"G={self.group.tag})")


def _arrow(pres, y1, y2):
    """The group element k with y1.k = y2, for quotient presentations."""
    if pres.is_finite():
        for k in pres.k_elements():
            if pres.act_point(y1, k) == tuple(Scalar.of(x) for x in y2):
                return k
        raise FiberError("points lie in different orbits")
    # translation actions: solve sum n_i t_i = y2 - y1 exactly
    shifts = []
    for g in pres.generators:
        if g.affine.a != AffineMap.identity(pres.dim).a:
            raise FiberError("arrow search supports translation actions only")
        shifts.append(g.affine.b)
    diff = [Scalar.of(b) - Scalar.of(a) for a, b in zip(y1, y2)]
    # compare coefficient-wise in the symbol a, coordinate by coordinate, and
    # clear each equation of denominators: a linear system over Z, solved
    # in integers by the SNF (over Q a free unknown set to 0 may leave a
    # fraction where an integer solution exists)
    degree = max((len(x.alpha_coefficients())
                  for x in diff + [x for s in shifts for x in s]), default=0)
    rows = []
    for c in range(pres.dim):
        for p in range(degree):
            eq = [_coeff(s[c], p) for s in shifts] + [_coeff(diff[c], p)]
            scale = lcm(*(x.denominator for x in eq))
            rows.append({j: int(x * scale) for j, x in enumerate(eq) if x})
    rhs = [row.pop(len(shifts), 0) for row in rows]
    sol = _snf(rows, len(shifts)).solve(rhs)
    if sol is None:
        raise FiberError("points lie in different orbits")
    k = pres.k_canonical(tuple(sol))
    if pres.act_point(y1, k) != tuple(Scalar.of(x) for x in y2):
        raise FiberError("points lie in different orbits")
    return k


def _coeff(s: Scalar, p: int):
    cs = s.alpha_coefficients()
    return cs[p] if p < len(cs) else 0


def bundle_from_cocycle(pres, f: Cochain) -> BundlePresentation:
    """The groupoid-quotient bundle (N(Q) x G)/R with defining cocycle f."""
    return BundlePresentation(pres, f.group, f)


def division(b: BundlePresentation, p1: BundlePoint,
             p2: BundlePoint) -> GroupElement:
    """The unique g with p1.g = p2, namely f(p1.y, p2.y) + p2.g - p1.g."""
    f = b.f_value(p1.y, p2.y)
    g = b.group
    val = g.add(g.canonical(f),
                g.add(g.canonical(p2.g), g.neg(g.canonical(p1.g))))
    return GroupElement(g, val)


def cocycle_from_bundle(b: BundlePresentation,
                        alpha: Optional[Cochain] = None) -> Cochain:
    """The cocycle of the trivialization tau_alpha: y |-> [y, alpha(y)].

    alpha = 0 (or None) returns the defining cocycle exactly; in general
    c(tau_alpha, P) = f + d(alpha).
    """
    if alpha is None:
        return b.cocycle
    if alpha.pres != b.base or alpha.degree != 0 or alpha.group != b.group:
        raise ParseError("trivialization shift must be a 0-cochain over G")
    return b.cocycle + coboundary(alpha)


def is_trivializable(b: BundlePresentation) -> ClassComparison:
    """Witness alpha with d(alpha) = -f (a global section y |-> [y, alpha(y)]),
    or a class-relative nontriviality certificate."""
    return classes_equal(b.cocycle, zero_cochain(b.base, 1, b.group))


def isomorphic(b1: BundlePresentation, b2: BundlePresentation) -> ClassComparison:
    """Bundles are isomorphic iff their defining cocycles are cohomologous."""
    if b1.base != b2.base or b1.group != b2.group:
        raise ParseError("bundles live over different bases or groups")
    return classes_equal(b1.cocycle, b2.cocycle)


def pullback_bundle(m, b: BundlePresentation) -> BundlePresentation:
    """phi*P, presented by the pulled-back defining cocycle."""
    from .cech import pullback_cochain

    if b.base != m.target:
        raise ParseError("morphism does not target the bundle base")
    return BundlePresentation(m.source, b.group,
                              pullback_cochain(m, b.cocycle),
                              name=f"pullback({b.name or 'P'})")
