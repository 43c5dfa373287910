"""Haar averaging over finite translation groupoids."""

import random

import pytest

from diffcech import gallery
from diffcech.average import (
    FiniteTranslationGroupoid,
    _homotopy,
    haar_average,
    trivializing_homotopy,
)
from diffcech.cech import (
    MAX_K_TUPLES,
    Cochain,
    _quotient_points,
    coboundary,
    random_cocycle,
)
from diffcech.coeff import GroupElement, RAlphaGroup, Scalar
from diffcech.errors import ParseError

from test_cech import _klein_four, _textbook_d, _z4_rotation
from test_grpcoh import GALLERY_QUOTIENTS
from test_presentation import random_point


def _z2():
    return gallery.get_presentation("z2-reflection")


class TestGroupoid:
    def test_order(self):
        assert FiniteTranslationGroupoid(_z2()).order == 2

    def test_infinite_group_rejected(self):
        it = gallery.get_presentation("irrational-torus")
        with pytest.raises(ParseError):
            FiniteTranslationGroupoid(it)


class TestHaarAverage:
    def test_average_kills_odd_functions(self):
        pres = _z2()
        gpd = FiniteTranslationGroupoid(pres)
        h = pres.function_class().parse("x0")
        # (1/2)(h(u) + h(-u)) = 0 for h = x0
        assert haar_average(gpd, (Scalar.of(3),), h).is_zero()
        rng = random.Random(11)
        for _ in range(10):
            assert haar_average(gpd, random_point(pres, rng), h).is_zero()

    def test_average_fixes_invariants(self):
        pres = _z2()
        gpd = FiniteTranslationGroupoid(pres)
        h = pres.function_class().parse("x0^2 + 3")
        rng = random.Random(13)
        for _ in range(10):
            u = random_point(pres, rng)
            assert haar_average(gpd, u, h) == GroupElement(RAlphaGroup(),
                                                           h.evaluate(u))


class TestTrivializingHomotopy:
    def test_linear_example(self):
        pres = _z2()
        gpd = FiniteTranslationGroupoid(pres)
        f = gallery.get("z2-reflection").cocycles["linear"]
        g = trivializing_homotopy(gpd, f)
        assert g.degree == 0
        assert str(g.payload) == "1/2*x0"
        # d(g) = (-1)^1 f = -f
        assert (coboundary(g) + f).is_zero()

    def test_crossed_data_on_a_finite_group(self):
        # a cochain document may give degree-1 data on a finite K as crossed
        # generator values; the homotopy reads it at every point of K
        pres = _z2()
        f = Cochain.from_dict(pres, RAlphaGroup(),
                              {"degree": 1, "crossed": {"g1": "2*x0"}})
        g = trivializing_homotopy(FiniteTranslationGroupoid(pres), f)
        assert str(g.payload) == "x0"
        dg = coboundary(g)
        assert all((dg.q_value(kt) + f.q_value(kt)).is_zero()
                   for kt in dg.payload)
        # the crossed data is stored as the table of K^1, so the sum stays
        # a table with a decidable zero test
        assert f.payload_kind == "table"
        assert (dg + f).is_zero()

    def test_random_cocycles(self):
        # the averaging identity d(g) = (-1)^k f, which trivializing_homotopy
        # does not re-check, in degrees 1-3: the cocycle check of degree 3
        # tabulates K^4, at most MAX_K_TUPLES points for |K| <= 4
        rng = random.Random(5)
        for pres in (_z2(), _z4_rotation(1), _z4_rotation(2), _klein_four(1)):
            gpd = FiniteTranslationGroupoid(pres)
            assert gpd.order ** 4 <= MAX_K_TUPLES
            for k in (1, 2, 3):
                for _ in range(10):
                    f = random_cocycle(pres, k, RAlphaGroup(), rng)
                    g = trivializing_homotopy(gpd, f)
                    assert g.degree == k - 1
                    sign = (-1) ** k
                    assert (coboundary(g) - f.scale_int(sign)).is_zero(), (
                        pres.name, k)

    @pytest.mark.parametrize("pres", [
        *(gallery.get_presentation(name) for name in GALLERY_QUOTIENTS
          if gallery.get_presentation(name).is_finite()),
        _z4_rotation(1), _klein_four(1)],
        ids=[name for name in GALLERY_QUOTIENTS
             if gallery.get_presentation(name).is_finite()]
        + ["z4-rotation", "klein-four"])
    def test_homotopy_is_inverted_by_the_textbook_d(self, pres):
        # d(_homotopy(f)) = (-1)^k f at every point of K^k, with d written
        # out as the alternating sum of q_values, in degrees 1 and 2
        rng = random.Random(47)
        for k in (1, 2):
            for _ in range(3):
                f = random_cocycle(pres, k, RAlphaGroup(), rng)
                g = _homotopy(pres, f)
                for kt in _quotient_points(pres, k):
                    v = f.q_value(kt)
                    assert _textbook_d(g, kt) == (-v if k % 2 else v), kt

    def test_cohomology_vanishes(self):
        from diffcech.cech import cohomology
        pres = _z2()
        assert cohomology(pres, RAlphaGroup(), 1).dimension == 0
        assert cohomology(pres, RAlphaGroup(), 2).dimension == 0
