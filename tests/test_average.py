"""Haar averaging over finite translation groupoids."""

import random

import pytest

from diffcech import gallery
from diffcech.average import (
    FiniteTranslationGroupoid,
    haar_average,
    trivializing_homotopy,
)
from diffcech.cech import Cochain, coboundary, random_cocycle
from diffcech.coeff import RAlphaGroup, Scalar
from diffcech.errors import ParseError


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
        cls = pres.function_class()
        # (1/2)(h(u) + h(-u)) = 0 for h = x0
        avg = haar_average(gpd, (Scalar.of(3),), cls.parse("x0"))
        assert avg.is_zero()
        from diffcech.average import haar_average_function
        assert haar_average_function(gpd, cls.parse("x0")).is_zero()

    def test_average_fixes_invariants(self):
        pres = _z2()
        gpd = FiniteTranslationGroupoid(pres)
        cls = pres.function_class()
        h = cls.parse("x0^2 + 3")
        from diffcech.average import haar_average_function
        assert haar_average_function(gpd, h) == h


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
        pres = _z2()
        gpd = FiniteTranslationGroupoid(pres)
        rng = random.Random(5)
        for k in (1, 2):
            for _ in range(10):
                f = random_cocycle(pres, k, RAlphaGroup(), rng)
                g = trivializing_homotopy(gpd, f)
                sign = 1 if k % 2 == 0 else -1
                assert (coboundary(g) - f.scale_int(sign)).is_zero()

    def test_cohomology_vanishes(self):
        from diffcech.cech import cohomology
        pres = _z2()
        assert cohomology(pres, RAlphaGroup(), 1).dimension == 0
        assert cohomology(pres, RAlphaGroup(), 2).dimension == 0
