"""Bundle presentations: cocycle laws, division, classification."""

import random
from fractions import Fraction

import pytest

from diffcech import gallery
from diffcech.bundle import (
    BundlePoint,
    BundlePresentation,
    bundle_from_cocycle,
    cocycle_from_bundle,
    division,
    is_trivializable,
    isomorphic,
    pullback_bundle,
    random_fiber_pair,
)
from diffcech.cech import Cochain, coboundary, random_cochain, zero_cochain
from diffcech.coeff import ALPHA, RAlphaGroup, Scalar, ZGroup
from diffcech.errors import CocycleError, FiberError
from diffcech.funclass import AffineMap
from diffcech.presentation import Generator, GroupQuotient


def _winding_bundle():
    return gallery.get("circle3-winding1-bundle").obj


def _itorus_bundle():
    return gallery.get("irrational-torus-bundle").obj


class TestConstruction:
    def test_non_cocycle_rejected(self):
        t9 = gallery.get_presentation("torus9")
        vals = {t: 0 for t in t9.tuples(1)}
        vals[t9.tuples(1)[0]] = 1
        bad = Cochain.nerve(t9, 1, ZGroup(), vals)
        with pytest.raises(CocycleError):
            bundle_from_cocycle(t9, bad)

    def test_defining_cocycle_round_trip(self):
        b = _winding_bundle()
        assert cocycle_from_bundle(b) is b.cocycle


class TestCocycleLaw:
    def test_nerve_triple_law(self):
        # f(y1, y3) = f(y1, y2) + f(y2, y3) wherever all pairs overlap
        b = bundle_from_cocycle(
            gallery.get_presentation("torus9"),
            coboundary(random_cochain(gallery.get_presentation("torus9"), 0,
                                      ZGroup(), random.Random(3))),
        )
        for t in b.base.tuples(2):
            y1, y2, y3 = t
            assert b.f_value(y1, y3) == b.f_value(y1, y2) + b.f_value(y2, y3)

    def test_quotient_triple_law(self):
        b = _itorus_bundle()
        pres = b.base
        rng = random.Random(5)
        for _ in range(15):
            y1 = pres.random_point(rng)
            y2 = pres.act_point(y1, pres.random_k(rng))
            y3 = pres.act_point(y1, pres.random_k(rng))
            assert b.f_value(y1, y3) == b.f_value(y1, y2) + b.f_value(y2, y3)

    def test_irrational_torus_values(self):
        # f(x, x + m + n alpha) = n alpha
        b = _itorus_bundle()
        y = (Scalar.of(0),)
        assert b.f_value(y, (Scalar.of(3),)).is_zero()
        assert b.f_value(y, (Scalar.of(-1) + ALPHA * 4,)) == ALPHA * 4

    def test_dead_pair_raises(self):
        t9 = gallery.get_presentation("torus9")
        b = bundle_from_cocycle(t9, zero_cochain(t9, 1, ZGroup()))
        dead = next(
            (i, j)
            for i in range(9) for j in range(9)
            if frozenset((i, j)) not in t9.faces
        )
        with pytest.raises(FiberError):
            b.f_value(*dead)
        # the quotient bundle rejects points in different orbits
        bq = _itorus_bundle()
        with pytest.raises(FiberError):
            bq.f_value((Scalar.of(0),), (Scalar.of(1) / 2,))

    @pytest.mark.parametrize("shifts,reached,missed", [
        ([1, 2], [3, -7], [Fraction(1, 2), ALPHA]),
        ([1, ALPHA, 1 + ALPHA], [2 + 3 * ALPHA, -ALPHA, 5],
         [ALPHA / 2, Fraction(1, 3)]),
        # 1 = 3 - 2 and 1/6 = 2/3 - 1/2 are reached by no solution over Q
        # whose free unknowns are 0
        ([2, 3], [1, -1, 7], [Fraction(1, 2), ALPHA]),
        ([Fraction(1, 2), Fraction(1, 3), 2 * ALPHA, 3 * ALPHA],
         [Fraction(1, 6), ALPHA - Fraction(5, 6)],
         [Fraction(1, 12), ALPHA / 2]),
    ])
    def test_dependent_translations(self, shifts, reached, missed):
        # with linearly dependent translations the arrow search leaves free
        # unknowns, and must find an integer solution wherever one exists
        pres = GroupQuotient(
            1, [Generator(0, AffineMap([[Scalar.of(1)]], [Scalar.of(t)]))
                for t in shifts], free=False)
        b = bundle_from_cocycle(pres, zero_cochain(pres, 1, RAlphaGroup()))
        y = (Scalar.of(Fraction(2, 5)),)
        for t in reached:
            assert b.f_value(y, (y[0] + t,)).is_zero()
        for t in missed:
            assert not b.same_fiber(b.tau0(y), b.tau0((y[0] + t,)))

    def test_finite_group_arrow(self):
        # over a finite K the arrow is found by search: -3 = 3.g1, and the
        # linear cocycle's value at g1 is x0, so f(3, -3) = 3
        z2 = gallery.get_presentation("z2-reflection")
        b = BundlePresentation(
            z2, RAlphaGroup(), gallery.get("z2-reflection").cocycles["linear"])
        assert b.f_value((3,), (-3,)) == 3
        assert b.f_value((3,), (3,)).is_zero()
        with pytest.raises(FiberError, match="different orbits"):
            b.f_value((3,), (2,))


class TestDivision:
    def test_division_translates(self):
        rng = random.Random(7)
        for b in (_winding_bundle(), _itorus_bundle()):
            for _ in range(20):
                p1, p2 = random_fiber_pair(b, rng)
                g = division(b, p1, p2)
                assert b.points_equal(b.act(p1, g.value), p2)

    def test_division_cocycle_identity(self):
        # division(p1, p3) = division(p1, p2) + division(p2, p3)
        b = _itorus_bundle()
        pres = b.base
        rng = random.Random(9)
        for _ in range(10):
            y = pres.random_point(rng)
            p1 = BundlePoint(y, b.group.random(rng))
            p2 = BundlePoint(pres.act_point(y, pres.random_k(rng)),
                             b.group.random(rng))
            p3 = BundlePoint(pres.act_point(y, pres.random_k(rng)),
                             b.group.random(rng))
            assert division(b, p1, p3) == division(b, p1, p2) + division(b, p2, p3)

    def test_action_is_free(self):
        b = _winding_bundle()
        p = b.tau0(0)
        assert not b.points_equal(p, b.act(p, 1))


class TestClassification:
    def test_coboundary_is_trivializable(self):
        c3 = gallery.get_presentation("circle3")
        rng = random.Random(11)
        f = coboundary(random_cochain(c3, 0, ZGroup(), rng))
        res = is_trivializable(bundle_from_cocycle(c3, f))
        assert res.equal
        assert (coboundary(res.witness) + f).is_zero()

    def test_winding_bundle_is_nontrivial(self):
        assert not is_trivializable(_winding_bundle()).equal

    def test_shift_law(self):
        # c(tau_alpha, P) = f + d(alpha), and the shifted cocycle is
        # cohomologous to the original
        b = _winding_bundle()
        rng = random.Random(13)
        alpha = random_cochain(b.base, 0, ZGroup(), rng)
        shifted = cocycle_from_bundle(b, alpha)
        assert (shifted - b.cocycle - coboundary(alpha)).is_zero()
        assert isomorphic(b, bundle_from_cocycle(b.base, shifted)).equal

    def test_isomorphic_detects_distinct_classes(self):
        b = _winding_bundle()
        trivial = bundle_from_cocycle(b.base, zero_cochain(b.base, 1, ZGroup()))
        assert not isomorphic(b, trivial).equal

    def test_itorus_bundle_nontrivial_but_pullback_trivial(self):
        b = _itorus_bundle()
        assert not is_trivializable(b).equal
        pulled = pullback_bundle(gallery.line_to_irrational_torus(), b)
        assert is_trivializable(pulled).equal


def _count_coboundaries(monkeypatch):
    """The payload kind of each cochain whose coboundary cech takes; the
    cocycle check takes one per scan of a nerve or crossed cochain."""
    from diffcech import cech

    kinds = []
    original = cech.coboundary

    def counting(c):
        kinds.append(c.payload_kind)
        return original(c)

    monkeypatch.setattr(cech, "coboundary", counting)
    return kinds


def _count_relation_scans(monkeypatch):
    """The generator values of each crossed cochain whose relations cech
    scans; the cocycle check makes one scan per crossed cochain."""
    from diffcech import cech

    scanned = []
    original = cech.crossed_relations

    def counting(pres, values):
        scanned.append(values)
        return original(pres, values)

    monkeypatch.setattr(cech, "crossed_relations", counting)
    return scanned


class TestCocycleChecksAreKept:
    def test_trivializable_scans_each_crossed_cocycle_once(self, monkeypatch):
        # the bundle checks kappa's relations when it is built;
        # is_trivializable reuses that check and scans only the zero cocycle
        # it compares against, and neither check takes a coboundary
        gens = gallery.get_presentation("irrational-torus").generators
        pres = GroupQuotient(1, gens, True, 2, "irrational-torus-D2")
        cls = pres.function_class()
        kappa = Cochain.crossed(pres, {1: cls.from_coordinates(
            [ALPHA * 2] + [0] * (cls.dimension - 1))})
        kinds = _count_coboundaries(monkeypatch)
        scanned = _count_relation_scans(monkeypatch)
        res = is_trivializable(bundle_from_cocycle(pres, kappa))
        assert not res.equal
        assert len(scanned) == 2
        assert scanned[0] is kappa.payload
        assert all(v.is_zero() for v in scanned[1].values())
        assert "crossed" not in kinds

    def test_isomorphic_scans_each_cocycle_once(self, monkeypatch):
        t9 = gallery.get_presentation("torus9")
        rng = random.Random(17)
        f1, f2 = (coboundary(random_cochain(t9, 0, ZGroup(), rng))
                  for _ in range(2))
        kinds = _count_coboundaries(monkeypatch)
        assert isomorphic(bundle_from_cocycle(t9, f1),
                          bundle_from_cocycle(t9, f2)).equal
        assert kinds == ["values", "values"]
