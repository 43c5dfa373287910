"""Built-in presentations, distinguished cocycles, and gallery morphisms.

The gallery covers the standard desk-scale examples: a point, two arc covers
of the circle, a 9-chart torus cover, the 6-vertex projective plane, the
irrational torus R/(Z + alpha Z), a Z/2 reflection orbifold, the circle as
R/Z, and the real line as a trivial quotient.
"""

from __future__ import annotations

from fractions import Fraction

from .bundle import BundlePresentation
from .cech import (
    DEFAULT_SEED,
    Cochain,
    coboundary,
    is_cocycle,
    random_cochain,
)
from .coeff import ALPHA, RAlphaGroup, Scalar, ZGroup
from .errors import ParseError
from .funclass import AffineMap
from .presentation import (
    FiniteNerve,
    Generator,
    GroupQuotient,
    PresentationMorphism,
    circle_arc_nerve,
    common_refinement,
    joint_circle_nerve,
)


class GalleryEntry:
    """A named presentation or bundle with distinguished cocycles."""

    def __init__(self, name: str, kind: str, obj, description: str,
                 cocycles=None, expected=None):
        self.name = name
        self.kind = kind  # "presentation" | "bundle"
        self.obj = obj
        self.description = description
        self.cocycles = cocycles or {}
        self.expected = expected or {}

    def __repr__(self):
        return f"GalleryEntry({self.name})"


_CIRCLE3_ARCS = [(Fraction(j, 3), Fraction(5, 12)) for j in range(3)]
_CIRCLE6_ARCS = [(Fraction(j, 6), Fraction(5, 24)) for j in range(6)]


def _torus9_facets():
    def v(i, j):
        return 3 * (i % 3) + (j % 3)

    facets = []
    for i in range(3):
        for j in range(3):
            facets.append((v(i, j), v(i + 1, j), v(i, j + 1)))
            facets.append((v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)))
    return facets


_RP2_FACETS = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]


def _build():
    entries = {}

    def add(entry):
        entries[entry.name] = entry

    point = FiniteNerve.from_facets(1, [(0,)], k_max=4, name="point")
    add(GalleryEntry("point", "presentation", point,
                     "one contractible chart"))

    circle3 = circle_arc_nerve(_CIRCLE3_ARCS, k_max=4, name="circle3")
    winding1 = Cochain.nerve(circle3, 1, ZGroup(), {(0, 2): -1})
    add(GalleryEntry(
        "circle3", "presentation", circle3,
        "circle covered by three arcs (pairwise overlaps, no triple)",
        cocycles={"winding1": winding1},
        expected={(0, "Z"): "Z", (1, "Z"): "Z"},
    ))

    circle6 = circle_arc_nerve(_CIRCLE6_ARCS, k_max=4, name="circle6")
    winding1_6 = Cochain.nerve(circle6, 1, ZGroup(), {(0, 5): -1})
    add(GalleryEntry(
        "circle6", "presentation", circle6,
        "circle covered by six short arcs",
        cocycles={"winding1": winding1_6},
        expected={(0, "Z"): "Z", (1, "Z"): "Z"},
    ))

    torus9 = FiniteNerve.from_facets(9, _torus9_facets(), k_max=4,
                                     name="torus9")
    add(GalleryEntry(
        "torus9", "presentation", torus9,
        "torus as the 9-vertex grid triangulation (nerve of vertex stars)",
        expected={(0, "Z"): "Z", (1, "Z"): "Z^2"},
    ))

    rp2 = FiniteNerve.from_facets(6, _RP2_FACETS, k_max=4, name="rp2")
    add(GalleryEntry(
        "rp2", "presentation", rp2,
        "projective plane as the 6-vertex triangulation (nerve of stars)",
        expected={(1, "Z"): "0", (2, "Z"): "Z/2", (1, "Z/2"): "Z/2"},
    ))

    itorus = GroupQuotient(
        1,
        [Generator(0, AffineMap.translation([Scalar.of(1)])),
         Generator(0, AffineMap.translation([ALPHA]))],
        free=True,
        function_class_degree=3,
        name="irrational-torus",
    )
    cls = itorus.function_class()
    kappa = Cochain.crossed(itorus, {0: cls.zero(),
                                     1: cls.from_coordinates(
                                         [ALPHA] + [0] * (cls.dimension - 1))})
    add(GalleryEntry(
        "irrational-torus", "presentation", itorus,
        "R modulo translations by 1 and alpha",
        cocycles={"kappa": kappa},
        expected={(1, "R(alpha)"): "R^1"},
    ))

    z2 = GroupQuotient(
        1,
        [Generator(2, AffineMap([[Scalar.of(-1)]], [Scalar.of(0)]))],
        free=False,
        function_class_degree=3,
        name="z2-reflection",
    )
    zcls = z2.function_class()
    linear = Cochain.table(z2, 1, {
        ((0,),): zcls.zero(),
        ((1,),): zcls.monomial((1,)),
    })
    add(GalleryEntry(
        "z2-reflection", "presentation", z2,
        "the half-line orbifold R / (x ~ -x)",
        cocycles={"linear": linear},
        expected={(1, "R(alpha)"): "0", (2, "R(alpha)"): "0"},
    ))

    circle_rz = GroupQuotient(
        1,
        [Generator(0, AffineMap.translation([Scalar.of(1)]))],
        free=True,
        function_class_degree=2,
        name="circle-rz",
    )
    add(GalleryEntry(
        "circle-rz", "presentation", circle_rz,
        "circle as R modulo integer translation",
        expected={(1, "R(alpha)"): "0"},
    ))

    line = GroupQuotient(1, [], free=True, function_class_degree=3,
                         name="line")
    add(GalleryEntry("line", "presentation", line,
                     "the real line as a trivial quotient",
                     expected={(1, "R(alpha)"): "0"}))

    add(GalleryEntry(
        "irrational-torus-bundle", "bundle",
        BundlePresentation(itorus, RAlphaGroup(), kappa,
                           name="irrational-torus-bundle"),
        "the R-bundle T^2 -> T_alpha with cocycle kappa(m+n*alpha) = n*alpha",
    ))
    add(GalleryEntry(
        "circle3-winding1-bundle", "bundle",
        BundlePresentation(circle3, ZGroup(), winding1,
                           name="circle3-winding1-bundle"),
        "the winding-one Z-bundle over the 3-arc circle",
    ))
    return entries


_ENTRIES = None


def entries():
    global _ENTRIES
    if _ENTRIES is None:
        _ENTRIES = _build()
    return _ENTRIES


def names():
    return sorted(entries())


def get(name: str) -> GalleryEntry:
    table = entries()
    if name not in table:
        raise ParseError(f"unknown gallery entry {name!r} "
                         f"(available: {', '.join(sorted(table))})")
    return table[name]


def get_presentation(name: str):
    e = get(name)
    return e.obj if e.kind == "presentation" else e.obj.base


def full_variant(nerve: FiniteNerve) -> FiniteNerve:
    """The repeats-allowed complex of the same cover."""
    return FiniteNerve(nerve.charts, nerve.faces, nerve.k_max,
                       alternating=False,
                       name=f"{nerve.name or 'nerve'}-full")


def circle_double_cover() -> PresentationMorphism:
    """Index map of the double cover: arc j of circle6 wraps onto arc j mod 3.

    Under x -> 2x on R/Z the j-th short arc maps exactly onto the
    (j mod 3)-rd arc of the 3-arc cover.
    """
    c6 = get_presentation("circle6")
    c3 = get_presentation("circle3")
    return PresentationMorphism(c6, c3, index_map=[j % 3 for j in range(6)],
                                name="double-cover")


def circle_refinement():
    """Common refinement of the two arc covers of the circle."""
    c3 = get_presentation("circle3")
    c6 = get_presentation("circle6")
    joint = joint_circle_nerve(_CIRCLE3_ARCS, _CIRCLE6_ARCS)
    return common_refinement(c3, c6, joint)


def line_to_irrational_torus() -> PresentationMorphism:
    """The one-chart presentation of R mapping into the irrational torus."""
    return PresentationMorphism(
        get_presentation("line"), get_presentation("irrational-torus"),
        affine=AffineMap.identity(1), hom=[], name="cover",
    )


def verify_entry(name: str):
    """Self-test of one entry: validation, the coboundary law on random
    cochains drawn from DEFAULT_SEED, and its advertised data."""
    import random

    from .cech import cohomology
    from .coeff import group_from_tag

    e = get(name)
    results = []
    pres = e.obj if e.kind == "presentation" else e.obj.base
    results.append(("validates", True))  # construction already validates
    rng = random.Random(DEFAULT_SEED)
    ok = True
    degrees = range(0, 3) if pres.kind != "nerve" else \
        range(0, max(1, pres.k_max - 1))
    for k in degrees:
        group = RAlphaGroup() if pres.kind == "quotient" else ZGroup()
        for _ in range(5):
            c = random_cochain(pres, k, group, rng)
            dd = coboundary(coboundary(c))
            if pres.kind == "nerve":
                ok = ok and dd.is_zero()
            else:
                for _ in range(3):
                    kt = tuple(pres.random_k(rng) for _ in range(k + 2))
                    ok = ok and dd.q_value(kt).is_zero()
    results.append(("coboundary law d(d(c)) = 0", ok))
    for cname, c in e.cocycles.items():
        results.append((f"cocycle {cname}", bool(is_cocycle(c))))
    for (k, tag), want in e.expected.items():
        rep = cohomology(pres, group_from_tag(tag), k)
        results.append((f"H^{k}({tag}) = {want}",
                        rep.group_description() == want))
    if e.kind == "bundle":
        results.append(("defining cocycle", bool(is_cocycle(e.obj.cocycle))))
    return results
