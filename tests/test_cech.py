"""Cochains, the coboundary operator, cohomology reports, class comparison."""

import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from diffcech import cech, gallery, linalg, reduce, serialize
from diffcech.average import FiniteTranslationGroupoid, trivializing_homotopy
from diffcech.cech import (
    CROSSED_CACHE_SIZE,
    MAX_MATRIX_SIDE,
    Cochain,
    GroupHom,
    _crossed_single,
    _quotient_points,
    MAX_K_TUPLES,
    boundary_matrix,
    classes_equal,
    coboundary,
    cohomology,
    connecting_map,
    crossed_value,
    h0_global_sections,
    is_cocycle,
    pullback_cochain,
    push_coefficients,
    random_cochain,
    random_cocycle,
    zero_cochain,
)
from diffcech.coeff import (
    ALPHA,
    ONE,
    ZERO,
    CoefficientSES,
    RAlphaGroup,
    Scalar,
    ZGroup,
    ZmodGroup,
    _snf,
    group_from_tag,
    ses_mod,
    sparse_apply,
)
from diffcech.errors import CocycleError, DegreeError, ParseError, TagError
from diffcech.funclass import AffineMap, act
from diffcech.grpcoh import _add_into, _generator_rows, h1_group
from diffcech.presentation import (
    FiniteNerve,
    Generator,
    GroupQuotient,
    PresentationMorphism,
    circle_arc_nerve,
)

from test_golden import CASES as GOLDEN_CASES, GOLDEN
from test_grpcoh import GALLERY_QUOTIENTS, _mixed, principal_crossed
from test_linalg import _nullspace


class TestNerveCochains:
    def test_degree_zero_coboundary_formula(self):
        c3 = gallery.get_presentation("circle3")
        f = Cochain.nerve(c3, 0, ZGroup(), {(0,): 2, (1,): 5, (2,): -1})
        df = coboundary(f)
        # (df)(i, j) = f(j) - f(i)
        assert df.payload[(0, 1)] == 3
        assert df.payload[(0, 2)] == -3
        assert df.payload[(1, 2)] == -6

    def test_alternating_extension(self):
        c3 = gallery.get_presentation("circle3")
        f = Cochain.nerve(c3, 1, ZGroup(), {(0, 1): 4, (0, 2): 0, (1, 2): 0})
        assert f.value_at((1, 0)) == -4
        assert f.value_at((1, 1)) == 0

    def test_coboundary_squares_to_zero(self):
        rng = random.Random(17)
        for name in ("circle3", "torus9", "rp2"):
            pres = gallery.get_presentation(name)
            for k in (0, 1):
                for _ in range(10):
                    c = random_cochain(pres, k, ZGroup(), rng)
                    assert coboundary(coboundary(c)).is_zero()

    def test_is_cocycle_counterexample(self):
        t9 = gallery.get_presentation("torus9")
        vals = {t: 0 for t in t9.tuples(1)}
        vals[t9.tuples(1)[0]] = 1
        # a single nonzero edge value cannot close up on the torus
        chk = is_cocycle(Cochain.nerve(t9, 1, ZGroup(), vals))
        assert not chk
        assert chk.location in t9.tuples(2)

    def test_arithmetic(self):
        c3 = gallery.get_presentation("circle3")
        w = gallery.get("circle3").cocycles["winding1"]
        assert (w - w).is_zero()
        assert (w + w).payload == w.scale_int(2).payload
        z = zero_cochain(c3, 1, ZGroup())
        assert (w + z).payload == w.payload

    def test_documents_are_read_as_nerve_cochains(self):
        # a document's values are parsed canonical and stored as
        # Cochain.nerve stores the raw values; by both routes a missing
        # value is refused before a value at a dead tuple
        c3 = gallery.get_presentation("circle3")
        g = ZmodGroup(4)
        raw = {(0, 1): 7, (0, 2): -1, (1, 2): 4}
        doc = {"degree": 1, "values": {"(0,1)": "7", "(0,2)": -1,
                                       "(1,2)": "4"}}
        c = Cochain.from_dict(c3, g, doc)
        assert c.payload == Cochain.nerve(c3, 1, g, raw).payload == {
            (0, 1): 3, (0, 2): 3, (1, 2): 0}
        missing = "missing cochain value at tuple (1, 2)"
        dead = "cochain value at dead or unknown tuple (0, 5)"
        for values, message in (({(0, 1): 1, (0, 2): 1, (0, 5): 1}, missing),
                                ({**raw, (0, 5): 1}, dead)):
            doc = {"degree": 1, "values": {
                f"({a},{b})": str(v) for (a, b), v in values.items()}}
            with pytest.raises(ParseError, match=re.escape(message)):
                Cochain.from_dict(c3, g, doc)
            with pytest.raises(ParseError, match=re.escape(message)):
                Cochain.nerve(c3, 1, g, values)

    def test_mismatch_rejected(self):
        c3 = gallery.get_presentation("circle3")
        w = gallery.get("circle3").cocycles["winding1"]
        other = zero_cochain(c3, 1, ZmodGroup(2))
        with pytest.raises(TagError):
            w + other


def _lazy_cochain(pres, degree, seed):
    cls = pres.function_class()
    return Cochain.lazy(
        pres, degree, lambda kt: cls.random(random.Random(f"{seed}:{kt}")))


class TestCochains:
    def test_cocycle_check_is_kept_once(self):
        # a cochain is a value: its check is computed once, and a failing
        # check stays failing; a lazy cochain is refused
        it = gallery.get_presentation("irrational-torus")
        t9 = gallery.get_presentation("torus9")
        rng = random.Random(23)
        f = random_cocycle(it, 1, RAlphaGroup(), rng)
        chk = is_cocycle(f)
        assert chk and is_cocycle(f) is chk
        vals = {t: 0 for t in t9.tuples(1)}
        vals[t9.tuples(1)[0]] = 1
        bad = Cochain.nerve(t9, 1, ZGroup(), vals)
        chk = is_cocycle(bad)
        assert not chk and is_cocycle(bad) is chk
        with pytest.raises(CocycleError):
            classes_equal(bad, bad)
        with pytest.raises(DegreeError, match="no decidable cocycle test"):
            is_cocycle(_lazy_cochain(it, 2, 3))

    @staticmethod
    def _points(c, rng):
        """The points c stores values at, plus random group tuples where K
        is infinite (crossed and lazy data)."""
        pres = c.pres
        if pres.kind == "nerve":
            return pres.tuples(c.degree)
        points = list(_quotient_points(pres, c.degree) or [])
        if not pres.is_finite() and c.degree > 0:
            points += [tuple(pres.random_k(rng) for _ in range(c.degree))
                       for _ in range(5)]
        return points

    @staticmethod
    def _value(c, p):
        return c.payload[p] if c.pres.kind == "nerve" else c.q_value(p)

    @pytest.mark.parametrize("case", [
        ("circle3", 1, "Z"), ("circle3", 1, "Z/4"), ("circle3", 1, "R(alpha)"),
        ("circle3", 1, "prod[Z,Z/2]"), ("irrational-torus", 0, "R(alpha)"),
        ("irrational-torus", 1, "R(alpha)"), ("z2-reflection", 1, "R(alpha)"),
        ("z2-reflection", 2, "R(alpha)"), "lazy", "crossed+lazy",
    ], ids=["values-Z", "values-Z/4", "values-R(alpha)", "values-prod",
            "function", "crossed", "table-1", "table-2", "lazy",
            "crossed+lazy"])
    def test_arithmetic_is_valuewise(self, case):
        rng = random.Random(71)
        it = gallery.get_presentation("irrational-torus")
        if case == "lazy":
            a, b = _lazy_cochain(it, 2, 1), _lazy_cochain(it, 2, 2)
        elif case == "crossed+lazy":
            a = random_cochain(it, 1, RAlphaGroup(), rng)
            b = _lazy_cochain(it, 1, 3)
        else:
            name, degree, tag = case
            pres, group = gallery.get_presentation(name), group_from_tag(tag)
            a, b = (random_cochain(pres, degree, group, rng) for _ in "ab")
        g = a.group
        shared = (a.payload_kind if a.payload_kind == b.payload_kind
                  else "lazy")

        def times(n, v):
            # n * v as repeated group addition
            acc = g.add(v, g.neg(v))
            for _ in range(abs(n)):
                acc = g.add(acc, v)
            return acc if n >= 0 else g.neg(acc)

        results = [(a + b, shared, lambda x, y: g.add(x, y)),
                   (-a, a.payload_kind, lambda x, y: g.neg(x)),
                   (a - b, shared, lambda x, y: g.add(x, g.neg(y)))]
        results += [(a.scale_int(n), a.payload_kind,
                     lambda x, y, n=n: times(n, x)) for n in (-2, 0, 3)]
        for c, kind, want in results:
            assert c.payload_kind == kind
            assert (c.pres, c.degree, c.group) == (a.pres, a.degree, g)
            for p in self._points(a, rng):
                assert self._value(c, p) == want(self._value(a, p),
                                                 self._value(b, p)), p


class TestNerveCohomology:
    def test_circle(self):
        c3 = gallery.get_presentation("circle3")
        h0 = cohomology(c3, ZGroup(), 0)
        h1 = cohomology(c3, ZGroup(), 1)
        assert h0.group_description() == "Z"
        assert h1.group_description() == "Z"
        w = gallery.get("circle3").cocycles["winding1"]
        assert h1.class_coordinates(w) == (1,)
        assert h1.class_coordinates(w.scale_int(3)) == (3,)
        assert h1.is_zero_class(coboundary(random_cochain(
            c3, 0, ZGroup(), random.Random(1))))

    def test_circle_mod_m(self):
        c3 = gallery.get_presentation("circle3")
        h1 = cohomology(c3, ZmodGroup(5), 1)
        assert h1.group_description() == "Z/5"
        w = gallery.get("circle3").cocycles["winding1"]
        wm = push_coefficients(GroupHom.reduction(5), w)
        coords = h1.class_coordinates(wm)
        assert coords[0] % 5 != 0
        assert h1.is_zero_class(wm.scale_int(5))

    def test_torus(self):
        t9 = gallery.get_presentation("torus9")
        assert cohomology(t9, ZGroup(), 1).group_description() == "Z^2"

    def test_projective_plane(self):
        rp2 = gallery.get_presentation("rp2")
        assert cohomology(rp2, ZGroup(), 1).group_description() == "0"
        h2 = cohomology(rp2, ZGroup(), 2).group_description()
        assert h2 == "Z/2"
        assert cohomology(rp2, ZmodGroup(2), 1).group_description() == "Z/2"

    def test_field_coefficients(self):
        c3 = gallery.get_presentation("circle3")
        h1 = cohomology(c3, RAlphaGroup(), 1)
        assert h1.group_description() == "R^1"

    def test_degree_cap(self):
        c3 = gallery.get_presentation("circle3")
        with pytest.raises(DegreeError):
            cohomology(c3, ZGroup(), 4)

    def test_h0_matches_global_sections(self):
        # both read the components; the route that reduces d_0 must find
        # the same group and read the same generators as a basis
        from test_reduce import _check_routes, _reduced_cohomology

        rng = random.Random(29)
        for name in ("circle3", "torus9", "rp2", "point"):
            pres = gallery.get_presentation(name)
            for group in (ZGroup(), ZmodGroup(4), RAlphaGroup()):
                rep = cohomology(pres, group, 0)
                sec = h0_global_sections(pres, group)
                assert rep.group_description() == sec.group_description()
                _check_routes(rep, _reduced_cohomology(pres, 0, group), rng)

    def test_oracles_refuse_foreign_cochains(self):
        # a cochain of another presentation, degree or group is refused
        # before any value is read
        c3 = gallery.get_presentation("circle3")
        w = gallery.get("circle3").cocycles["winding1"]
        c6 = gallery.get_presentation("circle6")
        refusals = [(cohomology(c6, ZGroup(), 1), w),
                    (h0_global_sections(c3, ZGroup()), w),
                    (cohomology(c3, ZmodGroup(2), 1), w),
                    (cohomology(c3, RAlphaGroup(), 1), w)]
        for rep, c in refusals:
            with pytest.raises(TagError):
                rep.class_coordinates(c)

    def test_sparse_relations_memory(self):
        # boundary and relation matrices are sparse rows end to end: on
        # Python 3.11.7 the traced peak of this request read 14.2 MB with
        # dense ones and 3.3 MB with sparse ones
        pres = _torus_nerve(16, True)
        tracemalloc.start()
        try:
            rep = cohomology(pres, ZmodGroup(2), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.group_description() == "Z/2 x Z/2"
        assert peak < 6_000_000, peak


class TestQuotientCochains:
    def test_crossed_extension_law(self):
        it = gallery.get_presentation("irrational-torus")
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        # kappa(m + n alpha) = n alpha, independent of m
        v = kappa.q_value(((2, 3),))
        assert v == it.function_class().from_coordinates(
            [ALPHA * 3] + [Scalar.of(0)] * 3)
        assert kappa.q_value(((5, 0),)).is_zero()

    def test_table_rejects_unknown_keys(self):
        z2 = gallery.get_presentation("z2-reflection")
        table = {"(0)": "0", "(1)": "x0", "(3)": "x0^2", "(7,7)": "5"}
        with pytest.raises(ParseError, match="unknown group tuple"):
            Cochain.from_dict(z2, RAlphaGroup(), {"degree": 1, "table": table})
        del table["(3)"], table["(7,7)"]
        c = Cochain.from_dict(z2, RAlphaGroup(), {"degree": 1, "table": table})
        assert sorted(c.payload) == [((0,),), ((1,),)]

    @pytest.mark.parametrize("name", GALLERY_QUOTIENTS)
    def test_coordinates_round_trip(self, name):
        # a quotient cochain has coordinates at (), on K^k for a finite K,
        # and at the generators in degree 1 otherwise
        pres = gallery.get_presentation(name)
        cls = pres.function_class()
        rng = random.Random(67)
        for k in ((0, 1, 2) if pres.is_finite() else (0, 1)):
            c = random_cochain(pres, k, RAlphaGroup(), rng)
            vec = _quotient_vector(c, cls)
            assert _quotient_from_vector(pres, k, cls, vec) == c, k

    @pytest.mark.parametrize("name", ["z2-reflection", "irrational-torus"])
    def test_public_readers_check_their_input(self, name):
        # the package reads stored values at canonical tuples unchecked, so
        # every payload kind must refuse a wrong-rank or non-integral group
        # element at q_value, as k_add and affine_of do; a nerve cochain has
        # no group tuples, and refuses before any is read
        pres = gallery.get_presentation(name)
        rng = random.Random(61)
        rank = pres.rank
        good, long = (1,) * rank, (1,) * (rank + 1)
        half = (Fraction(1, 2),) + (0,) * (rank - 1)
        for k in range(3):
            c = random_cochain(pres, k, RAlphaGroup(), rng)
            for c in (c, coboundary(c)):
                n = c.degree
                if n == 0:
                    continue
                with pytest.raises(ParseError, match=re.escape(
                        f"group element {long} has wrong rank")):
                    c.q_value((good,) * (n - 1) + (long,))
                with pytest.raises(ParseError, match="non-integral exponent "
                                   "1/2"):
                    c.q_value((half,) + (good,) * (n - 1))
        with pytest.raises(ParseError, match="non-integral exponent 3/2"):
            pres.k_add(half, good)
        with pytest.raises(ParseError, match="wrong rank"):
            pres.k_add(long, long)
        with pytest.raises(ParseError, match="wrong rank"):
            pres.affine_of(long)
        with pytest.raises(ParseError, match="q_value applies to quotient "
                           "cochains"):
            gallery.get("circle3").cocycles["winding1"].q_value(((0,),))

    @pytest.mark.parametrize("name", ["z2-reflection", "irrational-torus"])
    def test_negative_degree_refused(self, name):
        # a degree-0 random cocycle is d of a degree -1 cochain, which a
        # quotient does not have; a nerve's degree -1 is the empty tuple
        pres = gallery.get_presentation(name)
        rng = random.Random(71)
        with pytest.raises(DegreeError, match="no degree -1"):
            random_cochain(pres, -1, RAlphaGroup(), rng)
        with pytest.raises(DegreeError, match="no degree -1"):
            random_cocycle(pres, 0, RAlphaGroup(), rng)
        c3 = gallery.get_presentation("circle3")
        assert c3.tuples(-1) == [()]
        assert coboundary(random_cochain(c3, -1, RAlphaGroup(), rng)).degree == 0

    def test_degree_zero_invariance_check(self):
        it = gallery.get_presentation("irrational-torus")
        cls = it.function_class()
        assert is_cocycle(Cochain.function(it, cls.parse("2")))
        assert not is_cocycle(Cochain.function(it, cls.parse("x0")))

    def test_lazy_refusals_and_table_counterexamples(self):
        # d of crossed data and a random 2-cochain over an infinite K are
        # lazy and refused; a finite K scans its table
        it = gallery.get_presentation("irrational-torus")
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        dk = coboundary(kappa)
        assert dk.payload_kind == "lazy" and dk.degree == 2
        c = random_cochain(it, 2, RAlphaGroup(), random.Random(5))
        assert c.payload_kind == "lazy"
        for lazy in (dk, c):
            with pytest.raises(DegreeError):
                is_cocycle(lazy)
        z2 = gallery.get_presentation("z2-reflection")
        c = random_cochain(z2, 1, RAlphaGroup(), random.Random(3))
        assert c.payload_kind == "table"
        chk = is_cocycle(c)
        assert not chk
        assert chk.location == ((0,), (0,))
        assert chk.detail == "(-3*a-5/3)*x0^3 + (a+1/3)*x0^2 + (a-2)*x0 + a-1"

    @pytest.mark.parametrize("source", [
        "random", "coboundary", "random-cocycle", "sum"])
    def test_lazy_cochains_are_refused(self, source, monkeypatch):
        # no exact test decides a lazy cochain (degree 2 over an infinite
        # K): each question is refused, the cocycle test before d(c) is taken
        it = gallery.get_presentation("irrational-torus")
        R = RAlphaGroup()
        rng = random.Random(29)
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        c = {"random": lambda: random_cochain(it, 2, R, rng),
             "coboundary": lambda: coboundary(kappa),
             "random-cocycle": lambda: random_cocycle(it, 2, R, rng),
             "sum": lambda: (random_cochain(it, 2, R, rng)
                             + coboundary(kappa))}[source]()
        assert (c.payload_kind, c.degree) == ("lazy", 2)

        def no_coboundary(c):
            raise AssertionError("a coboundary was taken")

        monkeypatch.setattr(cech, "coboundary", no_coboundary)
        with pytest.raises(DegreeError, match="no decidable cocycle test"):
            is_cocycle(c)
        with pytest.raises(ParseError, match="no decidable zero test"):
            c.is_zero()
        with pytest.raises(ParseError, match="cannot be serialized"):
            c.to_dict()

    def test_crossed_cache_stays_bounded(self):
        # the cache keys hold the crossed value, so every fresh cocycle adds
        # keys (about 18 per value here) that nothing reads again
        it = serialize.presentation_from_dict(serialize.presentation_to_dict(
            gallery.get_presentation("irrational-torus")))
        rng = random.Random(5)
        sizes = []
        for _ in range(200):
            c = random_cocycle(it, 1, RAlphaGroup(), rng)
            k = tuple(rng.choice((-1, 1)) * rng.randrange(2 ** 8, 2 ** 10)
                      for _ in range(it.rank))
            crossed_value(it, c.payload, k)
            sizes.append(len(it._crossed_cache))
        assert max(sizes) <= CROSSED_CACHE_SIZE
        # the loop adds more keys than the bound, so the cache was cleared
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_crossed_value_takes_huge_exponents(self):
        # S(n) is built in a loop over the bits of n, not a recursion
        it = serialize.presentation_from_dict(serialize.presentation_to_dict(
            gallery.get_presentation("irrational-torus")))
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        cls = it.function_class()
        n = 2 ** 3000 + 1
        assert crossed_value(it, kappa.payload, (0, n)) == cls.from_coordinates(
            [ALPHA * n] + [Scalar.of(0)] * 3)

    @pytest.mark.parametrize("cache_size", [CROSSED_CACHE_SIZE, 5])
    def test_crossed_loop_matches_the_recursion(self, cache_size,
                                                monkeypatch):
        # the loop against the halving recursion on random functions, with
        # the cache warm from earlier exponents and, at size 5, cleared in
        # the middle of a walk
        monkeypatch.setattr(cech, "CROSSED_CACHE_SIZE", cache_size)
        rng = random.Random(f"crossed-loop:{cache_size}")
        exponents = list(range(1, 301)) + [
            2 ** j + s for j in range(1, 41) for s in (-1, 1)]
        exponents += [-n for n in exponents]
        for pres in (gallery.get_presentation("irrational-torus"),
                     _z4_rotation()):
            pres = serialize.presentation_from_dict(
                serialize.presentation_to_dict(pres))
            vals = [pres.function_class().random(rng) for _ in range(2)]
            assert not any(v.is_zero() for v in vals)
            rng.shuffle(exponents)
            for n in exponents:
                i = n % pres.rank
                val = vals[n % 2]
                want = _crossed_single_recursive(pres, val, i, n)
                assert _crossed_single(pres, val, i, n) == want, (pres, n)
                assert len(pres._crossed_cache) <= cache_size

    def test_coboundary_of_function_is_principal(self):
        it = gallery.get_presentation("irrational-torus")
        rng = random.Random(23)
        h = Cochain.function(it, it.function_class().random(rng))
        dh = coboundary(h)
        assert dh.payload_kind == "crossed"
        assert is_cocycle(dh)
        k = it.random_k(rng)
        from diffcech.funclass import act
        want = act(it.affine_of(k), h.payload) - h.payload
        assert dh.q_value((k,)) == want

    def test_quotient_coboundary_squares_to_zero(self):
        rng = random.Random(29)
        for name in ("irrational-torus", "z2-reflection", "circle-rz"):
            pres = gallery.get_presentation(name)
            for k in (0, 1):
                c = random_cochain(pres, k, RAlphaGroup(), rng)
                dd = coboundary(coboundary(c))
                if pres.is_finite():
                    assert dd.is_zero()
                else:
                    for _ in range(3):
                        kt = tuple(pres.random_k(rng) for _ in range(k + 2))
                        assert dd.q_value(kt).is_zero()


class TestQuotientCohomology:
    def test_irrational_torus_h1(self):
        it = gallery.get_presentation("irrational-torus")
        h1 = cohomology(it, RAlphaGroup(), 1)
        assert h1.dimension == 1
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        assert not h1.is_zero_class(kappa)
        rng = random.Random(31)
        db = coboundary(random_cochain(it, 0, RAlphaGroup(), rng))
        assert h1.is_zero_class(db)

    def test_h0_invariants(self):
        it = gallery.get_presentation("irrational-torus")
        h0 = cohomology(it, RAlphaGroup(), 0)
        assert h0.dimension == 1  # only the constants are invariant
        z2 = gallery.get_presentation("z2-reflection")
        # invariants of the reflection are spanned by 1 and x^2
        h0 = cohomology(z2, RAlphaGroup(), 0)
        assert h0.dimension == 2
        assert h0.note == "invariants of class (n=1, D=3)"
        cls = z2.function_class()
        assert h0.class_coordinates(Cochain.function(
            z2, cls.parse("3*x0^2 - 1"))) == (Scalar.of(-1), Scalar.of(3))
        with pytest.raises(CocycleError):
            h0.class_coordinates(Cochain.function(z2, cls.parse("x0")))

    @pytest.mark.parametrize("name,k,other,other_k", [
        ("irrational-torus", 1, "z2-reflection", 1),
        ("z2-reflection", 0, "z2-reflection", 1),
        ("irrational-torus", 0, "irrational-torus", 1)])
    def test_oracle_refuses_other_tags(self, name, k, other, other_k):
        # H^0 and h1_group read a cochain's values at the generators; a
        # cochain of another presentation or degree is refused before that
        # (the first case once read (0,), the others KeyError and IndexError)
        R = RAlphaGroup()
        rep = cohomology(gallery.get_presentation(name), R, k)
        c = random_cocycle(gallery.get_presentation(other), other_k, R,
                           random.Random(f"tags:{name}:{k}"))
        assert is_cocycle(c)
        with pytest.raises(TagError):
            rep.class_coordinates(c)

    def test_finite_quotient_vanishing(self):
        z2 = gallery.get_presentation("z2-reflection")
        assert cohomology(z2, RAlphaGroup(), 1).dimension == 0
        assert cohomology(z2, RAlphaGroup(), 2).dimension == 0

    @pytest.mark.parametrize("name", ["z2-reflection", "z4-rotation",
                                      "irrational-torus"])
    def test_negative_degree_refused(self, name):
        pres = (_z4_rotation() if name == "z4-rotation"
                else gallery.get_presentation(name))
        for k in (-1, -2):
            with pytest.raises(DegreeError,
                               match=f"quotient cohomology has no degree {k}$"):
                cohomology(pres, RAlphaGroup(), k)

    def test_quotient_refusals_in_order(self):
        # the degree is refused before the coefficients are read, and an
        # infinite K has cohomology in degrees 0 and 1 only
        pres = gallery.get_presentation("irrational-torus")
        with pytest.raises(DegreeError,
                           match="^quotient cohomology has no degree -1$"):
            cohomology(pres, ZGroup(), -1)
        with pytest.raises(
                ParseError,
                match="^quotient cohomology uses the R model coefficients$"):
            cohomology(pres, ZGroup(), 0)
        with pytest.raises(DegreeError, match="^infinite-group quotient "
                           "cohomology is supported in degrees 0 and 1$"):
            cohomology(pres, RAlphaGroup(), 2)

    @pytest.mark.parametrize("name", GALLERY_QUOTIENTS)
    def test_global_sections_of_a_quotient(self, name):
        # the K-invariant functions are valued in the R model alone: over Z
        # they used to be reported as "H^0(Z) = Z"; over R(alpha) the report
        # is that of cohomology in degree 0, representatives included
        pres = gallery.get_presentation(name)
        for tag in ("Z", "Z/2", "prod[Z,Z/2]"):
            with pytest.raises(
                    ParseError,
                    match="^quotient cohomology uses the R model "
                          "coefficients$"):
                h0_global_sections(pres, group_from_tag(tag))
        R = RAlphaGroup()
        sec = h0_global_sections(pres, R)
        assert sec.note.startswith("invariants of class")
        assert (json.dumps(sec.to_dict(), sort_keys=True)
                == json.dumps(cohomology(pres, R, 0).to_dict(),
                              sort_keys=True))


GALLERY_NERVES = [
    name for name in gallery.names()
    if gallery.get(name).kind == "presentation"
    and gallery.get_presentation(name).kind == "nerve"
]


def _torus_nerve(n, alternating):
    """Nerve of the triangulated n x n torus, k_max = 3."""
    def v(i, j):
        return (i % n) * n + j % n

    facets = [f for i in range(n) for j in range(n)
              for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                        (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    return FiniteNerve.from_facets(n * n, facets, 3, alternating)


def _named_nerve(name):
    """A gallery nerve, or the alternating n x n torus for "torus<n>"."""
    if name.startswith("torus") and name != "torus9":
        return _torus_nerve(int(name[5:]), True)
    return gallery.get_presentation(name)


def _circle_nerve(m, alternating):
    """Nerve of m equal arcs covering the circle, each meeting only its
    two neighbours, k_max = 2."""
    arcs = [(Fraction(i, m), Fraction(5, 4 * m)) for i in range(m)]
    return circle_arc_nerve(arcs, k_max=2, alternating=alternating)


def _dense_rows(rows, n):
    """Sparse rows {column: nonzero int} as dense rows of n entries."""
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def _rank_mod_p(M, p):
    """Rank over GF(p) by plain Gaussian elimination."""
    rows = [[x % p for x in row] for row in M]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % p
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _builder_cases():
    """Each gallery nerve, the 4x4-6x6 tori and the 3-6 arc circles, each
    alternating and with repeats allowed ("-full")."""
    for name in GALLERY_NERVES:
        pres = gallery.get_presentation(name)
        yield pytest.param(pres, id=name)
        yield pytest.param(gallery.full_variant(pres), id=f"{name}-full")
    for space, build, sizes in (("torus", _torus_nerve, (4, 5, 6)),
                                ("arcs", _circle_nerve, (3, 4, 5, 6))):
        for size in sizes:
            yield pytest.param(build(size, True), id=f"{space}{size}")
            yield pytest.param(build(size, False), id=f"{space}{size}-full")


def _z4_rotation(d=1):
    rotation = AffineMap([[0, -1], [1, 0]], [0, 0])
    return GroupQuotient(2, [Generator(4, rotation)], free=False,
                         function_class_degree=d, name="z4-rotation")


def _lattice2():
    shifts = [[1, 0], [0, 1], [ALPHA, 0], [0, ALPHA]]
    return GroupQuotient(
        2, [Generator(0, AffineMap.translation(b)) for b in shifts], True, 1,
        "lattice2")


def _quotient_vector(c, cls):
    """Coordinates in cls of a quotient cochain's values at its points."""
    return [x for kt in _quotient_points(c.pres, c.degree)
            for x in c.q_value(kt).in_class(cls).coordinates()]


def _quotient_from_vector(pres, k, cls, vec):
    d = cls.dimension
    values = {kt: cls.from_coordinates(vec[j * d : (j + 1) * d])
              for j, kt in enumerate(_quotient_points(pres, k))}
    return cech._quotient_cochain(pres, k, values.__getitem__)


def _k_neg(pres, k):
    """The inverse of the group element k, made canonical."""
    return pres.k_canonical(tuple(-a for a in k))


def _coboundary_matrix(pres, k, cls):
    """Rows of d: C^k -> C^{k+1} of a quotient, in the coordinates of cls,
    tabulated on all of K^(k+1) for a finite K (the generators in degree 1
    otherwise).

    The row block of kt = (k1, ...) holds the monomial images of k1's action
    in the column block of the shifted tuple (kj - k1)_j, and (-1)^i on the
    diagonal of the block of its i-th face, as in ``coboundary``.
    """
    cols = _quotient_points(pres, k)
    rows = _quotient_points(pres, k + 1)
    if rows is None:
        raise DegreeError("infinite-group quotient cochains have coordinates "
                          "only as degree-1 crossed data")
    basis = cls.basis
    d = len(basis)
    where = {e: i for i, e in enumerate(basis)}
    start = {p: j * d for j, p in enumerate(cols)}
    M = [[ZERO] * (len(cols) * d) for _ in range(len(rows) * d)]
    for r, kt in enumerate(rows):
        block = M[r * d:(r + 1) * d]
        k1 = kt[0]
        c = start[tuple(pres.k_add(kj, _k_neg(pres, k1)) for kj in kt[1:])]
        phi = pres.affine_of(k1)
        for j, e in enumerate(basis):
            for e_out, x in phi.monomial_image(e).items():
                _add_into(block[where[e_out]], c + j, x)
        for i in range(1, k + 2):
            c = start[kt[:i - 1] + kt[i:]]
            sign = -ONE if i % 2 else ONE
            for j in range(d):
                _add_into(block[j], c + j, sign)
    return M


def _textbook_d(c, kt):
    """(dc)(k_0, ..., k_k) = k_0.c(k_1 - k_0, ..., k_k - k_0) plus
    (-1)^i c(kt without k_{i-1}) for i = 1..k+1, for c of degree k, term by
    term with the public q_value, act, + and unary -; the shifts are left
    for q_value to reduce."""
    pres, k0 = c.pres, kt[0]
    acc = act(pres.affine_of(k0), c.q_value(
        tuple(tuple(a - b for a, b in zip(kj, k0)) for kj in kt[1:])))
    for i in range(1, len(kt) + 1):
        v = c.q_value(kt[:i - 1] + kt[i:])
        acc = acc + (-v if i % 2 else v)
    return acc


def _unit_cochain_matrix(pres, k, cls):
    """Rows of d: C^k -> C^{k+1}: the full coboundary of each unit cochain,
    read back in the coordinates of cls."""
    n = len(_quotient_points(pres, k)) * cls.dimension
    cols = []
    for j in range(n):
        unit = [int(i == j) for i in range(n)]
        dc = coboundary(_quotient_from_vector(pres, k, cls, unit))
        cols.append(_quotient_vector(dc, cls))
    return [list(row) for row in zip(*cols)]


def _crossed_single_recursive(pres, val, i, n):
    """S(n) = sum_{0 <= j < n} val.g_i^j by S(2m) = S(m) + g_i^m.S(m),
    S(m+1) = S(m) + g_i^m.val and S(-n) = -g_i^(-n).S(n), recursively and
    uncached."""
    if n == 1:
        return val
    if n < 0:
        pos = _crossed_single_recursive(pres, val, i, -n)
        return -act(pres.affine_of(pres.gen_power(i, n)), pos)
    m = n // 2
    half = _crossed_single_recursive(pres, val, i, m)
    acc = half + act(pres.affine_of(pres.gen_power(i, m)), half)
    if n % 2:
        acc = acc + act(pres.affine_of(pres.gen_power(i, n - 1)), val)
    return acc


def _z2_reflection(d):
    return GroupQuotient(1, [Generator(2, AffineMap([[-1]], [0]))],
                         free=False, function_class_degree=d,
                         name=f"z2-reflection-D{d}")


def _klein_four(d):
    """Z/2 x Z/2 as the two commuting coordinate reflections of R^2."""
    flips = (AffineMap([[-1, 0], [0, 1]], [0, 0]),
             AffineMap([[1, 0], [0, -1]], [0, 0]))
    return GroupQuotient(2, [Generator(2, f) for f in flips], free=False,
                         function_class_degree=d, name=f"klein-four-D{d}")


def _count_snf_calls(monkeypatch):
    """The list that gets one entry per `_snf` call made by the nerve
    engine in `reduce`, which runs every SNF of a nerve request."""
    calls = []
    monkeypatch.setattr(reduce, "_snf", lambda *args, **kw: calls.append(
        kw) or _snf(*args, **kw))
    return calls


def _loop_sum(c):
    """Sum of a 1-cochain around the loop of arcs 0 -> 1 -> ... -> 0."""
    n = len(c.pres.charts)
    return sum(c.value_at((j, (j + 1) % n)) for j in range(n))


class TestIndependentRoutes:
    """Two unrelated computations of one answer must agree."""

    @pytest.mark.parametrize("pres", [
        *(pytest.param(gallery.get_presentation(n), id=n)
          for n in GALLERY_QUOTIENTS
          if not gallery.get_presentation(n).is_finite()),
        pytest.param(_lattice2(), id="lattice2"),
        pytest.param(_mixed(), id="mixed")])
    def test_crossed_extension_is_a_cocycle_everywhere(self, pres):
        # is_cocycle decides crossed data by its generator relations alone;
        # d of random crossed cocycles (principal plus every H^1
        # representative) must then vanish at seeded pairs of group elements
        # with exponents +-1, +-2^j +- 1 and about 2^300
        pres = serialize.presentation_from_dict(
            serialize.presentation_to_dict(pres))
        rng = random.Random(f"crossed-extension:{pres.name}")
        reps = h1_group(pres).representatives
        exps = [0, 1, -1, 2 ** 300 + 1, -2 ** 300 + 1] + [
            s * 2 ** j + t for j in range(1, 9) for s in (-1, 1)
            for t in (-1, 1)]
        for c in [random_cocycle(pres, 1, RAlphaGroup(), rng, reps)
                  for _ in range(2)]:
            assert c.payload_kind == "crossed" and is_cocycle(c)
            d = coboundary(c)
            points = [tuple(tuple(rng.choice(exps) for _ in range(pres.rank))
                            for _ in range(2)) for _ in range(25)]
            assert any(abs(n) > 2 ** 299 for kt in points for k in kt
                       for n in k)
            for kt in points:
                assert d.q_value(kt).is_zero(), kt
            # the crossed law walked one generator step at a time, in a
            # random order, from the identity
            for _ in range(10):
                k = [rng.randrange(-6, 7) for _ in range(pres.rank)]
                steps = [(i, 1 if n > 0 else -1)
                         for i, n in enumerate(k) for _ in range(abs(n))]
                rng.shuffle(steps)
                acc = pres.function_class().zero()
                prefix = pres.k_identity()
                for i, s in steps:
                    if s < 0:
                        prefix = pres.k_add(prefix, pres.gen_power(i, -1))
                    part = act(pres.affine_of(prefix), c.payload[i])
                    acc = acc + (part if s > 0 else -part)
                    if s > 0:
                        prefix = pres.k_add(prefix, pres.gen_power(i))
                assert crossed_value(pres, c.payload, k) == acc, k

    @pytest.mark.parametrize("tag", ["Z", "Z/2", "Z/3", "Z/4", "Z/6"])
    def test_circle_class_is_the_loop_sum(self, tag):
        # H^1 of an arc cover of the circle is read off by one loop, so the
        # SNF oracle must agree with the loop sum up to one sign per report;
        # the double cover runs the loop of circle3 twice
        group = group_from_tag(tag)
        rng = random.Random(53)
        reports, signs = {}, {}

        def check(name, c, loop):
            (coord,) = reports[name].class_coordinates(c)
            signs[name] &= {s for s in (1, -1)
                            if group.canonical(coord - s * loop) == 0}
            assert signs[name], (name, coord, loop)

        for name in ("circle3", "circle6"):
            pres = gallery.get_presentation(name)
            rep = reports[name] = cohomology(pres, group, 1)
            signs[name] = {1, -1}
            for c in rep.representatives + [
                    random_cocycle(pres, 1, group, rng, rep.representatives)
                    for _ in range(8)]:
                check(name, c, _loop_sum(c))
        cover = gallery.circle_double_cover()
        c3 = gallery.get_presentation("circle3")
        for _ in range(8):
            c = random_cocycle(c3, 1, group, rng,
                               reports["circle3"].representatives)
            check("circle6", pullback_cochain(cover, c), 2 * _loop_sum(c))

    @pytest.mark.parametrize("build,size,betti", [
        (_torus_nerve, 3, (1, 2, 1)), (_torus_nerve, 4, (1, 2, 1)),
        (_torus_nerve, 5, (1, 2, 1)), (_circle_nerve, 3, (1, 1)),
        (_circle_nerve, 4, (1, 1)), (_circle_nerve, 5, (1, 1)),
        (_circle_nerve, 6, (1, 1))])
    def test_alternating_matches_full_complex(self, build, size, betti):
        # the ordered complex (repeats allowed) and the alternating one are
        # different cochain complexes with the same cohomology
        alt, full = build(size, True), build(size, False)
        assert [cohomology(alt, ZGroup(), k).free_rank
                for k in range(alt.k_max)] == list(betti)
        for group in (ZGroup(), ZmodGroup(2)):
            for k in range(alt.k_max):
                a = cohomology(alt, group, k)
                f = cohomology(full, group, k)
                assert (a.free_rank, a.invariant_factors) == (
                    f.free_rank, f.invariant_factors), (group.tag, k)

    @pytest.mark.parametrize("name", GALLERY_NERVES + ["torus4", "torus5",
                                                      "torus6"])
    def test_field_dimension_is_integer_free_rank(self, name):
        # universal coefficients: the dimension read off the integer SNF is
        # dim C^k - rank(d_k) - rank(d_{k-1}), with both ranks from Q(a) row
        # reduction, and no torsion survives over the field
        pres = _named_nerve(name)

        def rank(j):
            return linalg.rank(_dense_rows(boundary_matrix(pres, j),
                                           len(pres.tuples(j))))

        for k in range(pres.k_max):
            rep = cohomology(pres, RAlphaGroup(), k)
            ranks = rank(k) + (rank(k - 1) if k else 0)
            assert rep.dimension == len(pres.tuples(k)) - ranks, k
            assert rep.dimension == cohomology(pres, ZGroup(), k).free_rank
            assert len(rep.representatives) == rep.dimension
            assert rep.invariant_factors == []

    @pytest.mark.parametrize("name", GALLERY_NERVES + ["torus4", "torus5",
                                                      "torus6"])
    def test_field_coordinates_solve_beside_the_boundaries(self, name):
        # generic Q(a) cocycles: Q(a)-multiples of the representatives plus
        # a coboundary; the class coordinates are the multiples, and they
        # solve [B | representatives] x = c by Q(a) row reduction
        pres = _named_nerve(name)
        group, rng = RAlphaGroup(), random.Random(f"field:{name}")
        third = (ALPHA + 1) / 3

        def generic():
            return (Scalar.of(rng.randrange(-4, 5))
                    + ALPHA * rng.randrange(-4, 5)) * third

        for k in range(pres.k_max):
            rep = cohomology(pres, group, k)
            tuples = pres.tuples(k)
            width = len(pres.tuples(k - 1)) if k else 0
            B = (_dense_rows(boundary_matrix(pres, k - 1), width) if k
                 else [[] for _ in tuples])
            reps = [[r.payload[t] for t in tuples]
                    for r in rep.representatives]
            A = [row + [v[i] for v in reps] for i, row in enumerate(B)]
            for _ in range(3):
                xs = [generic() for _ in reps]
                ys = [generic() for _ in range(width)]
                vec = [sum((a * y for a, y in zip(row, ys)), Scalar.of(0))
                       + sum((x * v[i] for x, v in zip(xs, reps)),
                             Scalar.of(0)) for i, row in enumerate(B)]
                c = Cochain.nerve(pres, k, group, dict(zip(tuples, vec)))
                coords = list(rep.class_coordinates(c))
                assert coords == linalg.solve(A, vec)[width:] == xs, k
            # a cochain off the cocycles is refused
            zero = dict.fromkeys(tuples, Scalar.of(0))
            units = (Cochain.nerve(pres, k, group, {**zero, t: third})
                     for t in tuples)
            c = next((c for c in units if not is_cocycle(c)), None)
            if c is not None:
                with pytest.raises(CocycleError):
                    rep.class_coordinates(c)

    def test_nerve_cohomology_reaches_no_row_reduction(self, monkeypatch):
        # over R(alpha) a nerve report and its oracle come from the integer
        # SNF alone
        calls = []
        monkeypatch.setattr(linalg, "rref",
                            lambda M: calls.append(M) or ([], []))
        rng = random.Random(61)
        for name in GALLERY_NERVES:
            pres = gallery.get_presentation(name)
            for k in range(pres.k_max):
                rep = cohomology(pres, RAlphaGroup(), k)
                for c in rep.representatives + [random_cocycle(
                        pres, k, RAlphaGroup(), rng, rep.representatives)]:
                    rep.class_coordinates(c)
        assert calls == []

    @pytest.mark.parametrize("name,alternating", [
        *((name, True) for name in GALLERY_NERVES),
        ("torus4", True), ("torus4", False)])
    def test_report_and_oracle_snf_counts(self, name, alternating,
                                          monkeypatch):
        # in degree k >= 1 a report runs the SNF of what is left of d_k after
        # its unit pivots and that of the relations without U; its oracle
        # runs the relations once more for U, on its first call.  With
        # repeats allowed, these are the SNFs of the alternating twin.  H^0
        # reads the components, and neither its report nor its oracle runs
        # an SNF
        pres = _named_nerve(name)
        if not alternating:
            pres = gallery.full_variant(pres)
        calls = _count_snf_calls(monkeypatch)
        rng = random.Random(62)
        for k in range(pres.k_max):
            report, oracle = (2, 3) if k else (0, 0)
            for tag in ("Z", "Z/2", "R(alpha)"):
                group = group_from_tag(tag)
                del calls[:]
                rep = cohomology(pres, group, k)
                assert len(calls) == report, (k, tag)
                zero = zero_cochain(pres, k, group)
                assert not any(rep.class_coordinates(zero))
                assert len(calls) == oracle, (k, tag)
                for c in rep.representatives + [random_cocycle(
                        pres, k, group, rng, rep.representatives)]:
                    rep.class_coordinates(c)
                assert len(calls) == oracle, (k, tag)

    @pytest.mark.parametrize("name", [
        name for name in GOLDEN_CASES
        if name.startswith("coords ") and name.split()[1] in GALLERY_NERVES])
    def test_oracle_snf_counts_keep_the_goldens(self, name, monkeypatch):
        # each case runs one report and a dozen oracle calls
        calls = _count_snf_calls(monkeypatch)
        with open(GOLDEN, encoding="utf-8") as fh:
            assert GOLDEN_CASES[name]() == json.load(fh)[name]
        assert len(calls) == 3

    @pytest.mark.parametrize("name", GALLERY_NERVES + ["torus4", "torus5",
                                                      "torus6"])
    def test_rank_mod_p_is_snf_rank(self, name):
        # over GF(p) the rank of d is the number of invariant factors that p
        # does not divide; the elimination above shares nothing with the SNF
        pres = _named_nerve(name)
        for k in range(pres.k_max):
            M, n = boundary_matrix(pres, k), len(pres.tuples(k))
            diag = _snf(M, n, want_u=False, want_v=False).diag
            for p in (2, 3, 5):
                assert _rank_mod_p(_dense_rows(M, n), p) == sum(
                    d % p != 0 for d in diag), (k, p)
        if name == "rp2":
            assert _rank_mod_p(_dense_rows(boundary_matrix(pres, 1),
                                           len(pres.tuples(1))), 2) == 9

    @pytest.mark.parametrize("pres", list(_builder_cases()))
    def test_boundary_matrix_is_the_coboundary(self, pres):
        # the sparse rows against coboundary's own face loop on seeded
        # integer cochains; no row stores a zero, and d_{k+1} d_k = 0
        rng = random.Random(67)
        mats = {}
        for k in range(pres.k_max):
            rows, cols = pres.tuples(k + 1), pres.tuples(k)
            if max(len(rows), len(cols)) > MAX_MATRIX_SIDE:
                continue
            M = mats[k] = boundary_matrix(pres, k)
            assert len(M) == len(rows)
            assert all(x and 0 <= j < len(cols)
                       for row in M for j, x in row.items())
            for _ in range(3):
                c = random_cochain(pres, k, ZGroup(), rng)
                dc = coboundary(c)
                assert sparse_apply(M, [c.payload[t] for t in cols]) == [
                    dc.payload[t] for t in rows], k
        for k in mats:
            for row in mats.get(k + 1, ()):
                dd = {}
                for j, x in row.items():
                    for i, y in mats[k][j].items():
                        dd[i] = dd.get(i, 0) + x * y
                assert not any(dd.values()), k

    @pytest.mark.parametrize("pres", [
        *(gallery.get_presentation(name) for name in GALLERY_NERVES),
        _torus_nerve(3, True), _torus_nerve(4, True),
        *(_circle_nerve(m, True) for m in (3, 4, 5, 6))],
        ids=GALLERY_NERVES + ["torus3", "torus4", "arcs3", "arcs4", "arcs5",
                              "arcs6"])
    def test_euler_characteristic(self, pres):
        # with no tuples in degree k_max every boundary matrix is in play, so
        # the alternating sum of the H^k dimensions is that of the tuple
        # counts, which reads nothing of the row reduction
        assert not pres.tuples(pres.k_max)
        reps = [cohomology(pres, RAlphaGroup(), k) for k in range(pres.k_max)]
        assert (sum((-1) ** k * rep.dimension for k, rep in enumerate(reps))
                == sum((-1) ** k * len(pres.tuples(k))
                       for k in range(pres.k_max)))
        rng = random.Random(59)
        for k, rep in enumerate(reps):
            for c in rep.representatives + [random_cocycle(
                    pres, k, RAlphaGroup(), rng, rep.representatives)]:
                assert all(isinstance(v, Scalar) for v in c.payload.values())
                assert all(isinstance(x, Scalar)
                           for x in rep.class_coordinates(c))

    @pytest.mark.parametrize("pres", [
        *(gallery.get_presentation(name) for name in GALLERY_QUOTIENTS),
        _z4_rotation(), _lattice2()],
        ids=GALLERY_QUOTIENTS + ["z4-rotation", "lattice2"])
    def test_coboundary_matrix_is_the_unit_cochain_route(self, pres):
        # the matrix of d against d applied to each unit cochain and read
        # back, entry by entry and type by type, in the class and widened;
        # then against d of random cochains (a function in degree 0, tables
        # or crossed data above), read back, as the matrix times their
        # coordinates
        rng = random.Random(43)
        for cls in (pres.function_class(), pres.function_class().widen(1)):
            for k in range(3):
                if _quotient_points(pres, k + 1) is None:
                    with pytest.raises(DegreeError):
                        _coboundary_matrix(pres, k, cls)
                    continue
                got = _coboundary_matrix(pres, k, cls)
                want = _unit_cochain_matrix(pres, k, cls)
                assert got == want, (k, cls)
                assert ([[type(x) for x in row] for row in got]
                        == [[type(x) for x in row] for row in want])
                for _ in range(3):
                    c = random_cochain(pres, k, RAlphaGroup(), rng)
                    x = _quotient_vector(c, cls)
                    assert _quotient_vector(coboundary(c), cls) == [
                        sum((a * b for a, b in zip(row, x) if a), ZERO)
                        for row in got], (k, cls)

    @pytest.mark.parametrize("pres", [
        gallery.get_presentation("irrational-torus"), _mixed()],
        ids=["irrational-torus", "mixed"])
    def test_coboundary_is_the_textbook_sum(self, pres):
        # d of a function (crossed data), of random crossed data and of a
        # lazy cochain, at seeded random tuples, against the alternating
        # sum; each tuple is also given with its torsion exponents raised
        # by their orders, which q_value must reduce
        rng = random.Random(41)
        orders = [g.torsion for g in pres.generators]
        for k in range(3):
            for _ in range(3):
                c = random_cochain(pres, k, RAlphaGroup(), rng)
                dc = coboundary(c)
                for _ in range(4):
                    kt = tuple(pres.random_k(rng) for _ in range(k + 1))
                    want = _textbook_d(c, kt)
                    assert dc.q_value(kt) == want, (k, kt)
                    raised = tuple(tuple(x + t for x, t in zip(kj, orders))
                                   for kj in kt)
                    assert coboundary(c).q_value(raised) == want, (k, kt)

    @pytest.mark.parametrize("pres", [
        *(gallery.get_presentation(name) for name in GALLERY_QUOTIENTS),
        _z4_rotation(), _lattice2()],
        ids=GALLERY_QUOTIENTS + ["z4-rotation", "lattice2"])
    def test_generator_rows_are_d0_at_the_generators(self, pres):
        # the generator rows against the rows of the unit-cochain d_0 at the
        # generator points, and against the principal crossed data of each
        # basis monomial, entry by entry and type by type
        points = _quotient_points(pres, 1)
        for cls in (pres.function_class(), pres.function_class().widen(1)):
            d = cls.dimension
            got = _generator_rows(pres, cls)
            assert len(got) == pres.rank * d
            table = _unit_cochain_matrix(pres, 0, cls)
            at_gens = []
            for i in range(pres.rank):
                r = points.index((pres.k_canonical(pres.gen_power(i)),))
                at_gens += table[r * d:(r + 1) * d]
            assert got == at_gens, cls
            cols = [[x for i in range(pres.rank) for x in principal_crossed(
                         pres, cls.monomial(e)).values[i]
                     .in_class(cls).coordinates()]
                    for e in cls.basis]
            assert got == [list(row) for row in zip(*cols)], cls
            for want in (at_gens, zip(*cols)):
                assert ([[type(x) for x in row] for row in got]
                        == [[type(x) for x in row] for row in want])

    @pytest.mark.parametrize("pres", [
        *(gallery.get_presentation(name) for name in GALLERY_QUOTIENTS),
        _z4_rotation(), _z4_rotation(2), _lattice2()],
        ids=GALLERY_QUOTIENTS + ["z4-rotation", "z4-rotation-D2", "lattice2"])
    def test_h0_is_the_kernel_of_the_tabulated_d0(self, pres):
        # H^0 is read off the generator rows; the tabulated d_0 on all of K
        # has the same kernel, and RREF is unique, so the representatives
        # and the oracle's coordinates are the same bytes
        cls = pres.function_class()
        rep = cohomology(pres, RAlphaGroup(), 0)
        kernel, _ = _nullspace(_coboundary_matrix(pres, 0, cls))
        assert rep.dimension == len(kernel)
        tabulated = [_quotient_from_vector(pres, 0, cls, v) for v in kernel]
        assert ([json.dumps(r.to_dict()) for r in rep.representatives]
                == [json.dumps(r.to_dict()) for r in tabulated])
        assert ([_quotient_vector(r, cls) for r in rep.representatives]
                == [[Scalar.of(x) for x in v] for v in kernel])
        if not pres.generators:
            assert rep.group_description() == f"R^{cls.dimension}"
        rng = random.Random(f"h0:{pres.name}")
        columns = [list(row) for row in zip(*kernel)]
        for _ in range(4):
            c = zero_cochain(pres, 0, RAlphaGroup())
            for r in rep.representatives:
                c = c + r.scale_int(rng.randrange(-3, 4))
            want = linalg.solve(columns, _quotient_vector(c, cls))
            assert (json.dumps(rep.class_coordinates(c), default=str)
                    == json.dumps(want, default=str))

    def test_torsion_vanishes_over_the_field(self):
        rp2 = gallery.get_presentation("rp2")
        assert cohomology(rp2, ZGroup(), 2).group_description() == "Z/2"
        assert cohomology(rp2, RAlphaGroup(), 2).dimension == 0

    def test_table_engine_matches_h1_group(self):
        for pres in (gallery.get_presentation("z2-reflection"),
                     _z4_rotation()):
            table = cohomology(pres, RAlphaGroup(), 1)
            assert table.note.startswith("relative to class")
            assert table.dimension == h1_group(pres).dimension == 0

    @pytest.mark.parametrize("build, d", [
        (_z2_reflection, 1), (_z2_reflection, 2), (_z2_reflection, 3),
        (_z4_rotation, 1), (_z4_rotation, 2), (_klein_four, 1),
        (_klein_four, 2)])
    def test_finite_vanishing_is_the_rank_count(self, build, d):
        # H^k of a finite K is reported as 0 with no matrix built; the ranks
        # of the tabulated d_k and d_(k-1) give the same dimension, and
        # averaging over K trivializes every cocycle
        pres = build(d)
        cls = pres.function_class()
        R = RAlphaGroup()
        groupoid = FiniteTranslationGroupoid(pres)
        rng = random.Random(f"finite-vanishing:{pres.name}:{d}")
        for k in (1, 2, 3):
            assert pres.k_order() ** (k + 1) <= MAX_K_TUPLES
            rep = cohomology(pres, R, k)
            n = len(_quotient_points(pres, k)) * cls.dimension
            ranks = [linalg.rank(_coboundary_matrix(pres, j, cls))
                     for j in (k, k - 1)]
            assert rep.dimension == n - sum(ranks), k
            assert rep.group_description() == "0" and not rep.representatives
            assert rep.note == (
                f"relative to class (n={cls.n}, D={cls.max_degree})")
            f = random_cocycle(pres, k, R, rng)
            assert f.payload_kind == "table" and not f.is_zero()
            assert rep.class_coordinates(f) == ()
            assert rep.is_zero_class(f)
            g = trivializing_homotopy(groupoid, f)
            assert coboundary(g) == f.scale_int((-1) ** k)
            table = dict(f.payload)
            kt = rng.choice(sorted(table))
            table[kt] = table[kt] + cls.random(rng)
            with pytest.raises(CocycleError):
                rep.class_coordinates(Cochain.table(pres, k, table))
            for other in (zero_cochain(pres, k - 1, R),
                          zero_cochain(pres, k + 1, R),
                          random_cocycle(build(d + 1), k, R, rng)):
                with pytest.raises(TagError):
                    rep.class_coordinates(other)


class TestClassesEqual:
    def test_nerve_witness(self):
        c3 = gallery.get_presentation("circle3")
        rng = random.Random(37)
        w = gallery.get("circle3").cocycles["winding1"]
        shifted = w + coboundary(random_cochain(c3, 0, ZGroup(), rng))
        res = classes_equal(w, shifted)
        assert res.equal
        assert (coboundary(res.witness) - (shifted - w)).is_zero()
        assert not classes_equal(w, zero_cochain(c3, 1, ZGroup()))

    def test_quotient_witness(self):
        it = gallery.get_presentation("irrational-torus")
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        rng = random.Random(41)
        shifted = kappa + coboundary(random_cochain(it, 0, RAlphaGroup(), rng))
        assert classes_equal(kappa, shifted).equal
        res = classes_equal(kappa, Cochain.crossed(it, {}))
        assert not res.equal
        assert "no witness" in res.certificate

    def test_infinite_quotient_above_degree_one_is_refused_first(
            self, monkeypatch):
        # the degree is refused before either cochain is checked: no lazy
        # coboundary is taken, and a non-cocycle gets the same refusal
        it = gallery.get_presentation("irrational-torus")
        R = RAlphaGroup()
        rng = random.Random(43)
        f1, f2 = random_cocycle(it, 2, R, rng), random_cocycle(it, 2, R, rng)
        bad = random_cochain(it, 2, R, rng)
        assert f1.payload_kind == bad.payload_kind == "lazy"

        def no_coboundary(c):
            raise AssertionError("a coboundary was taken")

        monkeypatch.setattr(cech, "coboundary", no_coboundary)
        for a, b in ((f1, f2), (f1, bad), (bad, f1)):
            with pytest.raises(DegreeError, match="needs a finite group"):
                classes_equal(a, b)
        monkeypatch.undo()
        with pytest.raises(DegreeError):
            is_cocycle(bad)

    def test_quotient_witness_one_degree_up(self):
        # d(x0^(D+1)) on the irrational torus lies in class D; its only
        # witnesses, up to constants, lie one degree up
        it = gallery.get_presentation("irrational-torus")
        wide = it.function_class().widen(1)
        top = Cochain.function(it, wide.monomial((wide.max_degree,)))
        diff = coboundary(top)
        assert all(v.in_class(it.function_class()) == v
                   for v in diff.payload.values())
        res = classes_equal(zero_cochain(it, 1, RAlphaGroup()), diff)
        assert res.equal and coboundary(res.witness) == diff
        assert res.witness.payload == top.payload

    @pytest.mark.parametrize("build, d", [
        (_z2_reflection, 1), (_z2_reflection, 2), (_z2_reflection, 3),
        (_z4_rotation, 1), (_z4_rotation, 2), (_klein_four, 1),
        (_klein_four, 2)])
    def test_finite_witnesses_in_degrees_1_to_3(self, build, d):
        # d(witness) is the difference in every degree; above degree 1 the
        # witness is averaged and stays in class D, and in degree 1 it is
        # the solution of the system tabulated on all of K, byte for byte
        pres = build(d)
        cls, wide = pres.function_class(), pres.function_class().widen(1)
        R = RAlphaGroup()
        rng = random.Random(f"finite-witness:{pres.name}")
        for k in (1, 2, 3):
            f1 = random_cocycle(pres, k, R, rng)
            f2 = f1 + coboundary(random_cochain(pres, k - 1, R, rng))
            res = classes_equal(f1, f2)
            assert res.equal and res.certificate == "witness found", k
            assert coboundary(res.witness) == f2 - f1, k
            if k == 1:
                sol = linalg.solve(_coboundary_matrix(pres, 0, wide),
                                   _quotient_vector(f2 - f1, wide))
                table = _quotient_from_vector(pres, 0, wide, sol)
                assert (json.dumps(res.witness.to_dict())
                        == json.dumps(table.to_dict()))
            else:
                assert res.witness.payload_kind == "table"
                for v in res.witness.payload.values():
                    assert v.in_class(cls) == v

    def test_nerve_degree_zero(self):
        c3 = gallery.get_presentation("circle3")
        two = Cochain.nerve(c3, 0, ZGroup(), {t: 2 for t in c3.tuples(0)})
        three = Cochain.nerve(c3, 0, ZGroup(), {t: 3 for t in c3.tuples(0)})
        res = classes_equal(two, two)
        assert res.equal and res.certificate == "equal as global sections"
        assert res.witness.degree == 0 and res.witness.is_zero()
        res = classes_equal(two, three)
        assert not res.equal and res.witness is None
        assert res.certificate == "degree-0 classes differ value-wise"

    def test_quotient_degree_zero(self):
        it = gallery.get_presentation("irrational-torus")
        cls = it.function_class()
        two = Cochain.function(it, cls.parse("2"))
        res = classes_equal(two, Cochain.function(it, cls.parse("2")))
        assert res.equal and res.certificate == "equal functions"
        res = classes_equal(two, Cochain.function(it, cls.parse("3")))
        assert not res.equal and res.certificate == "functions differ"


class TestPullbacks:
    def test_double_cover_doubles_winding(self):
        m = gallery.circle_double_cover()
        w3 = gallery.get("circle3").cocycles["winding1"]
        pulled = pullback_cochain(m, w3)
        h1 = cohomology(m.source, ZGroup(), 1)
        assert h1.class_coordinates(pulled) == (2,)

    def test_pullback_commutes_with_coboundary(self):
        m = gallery.circle_double_cover()
        rng = random.Random(43)
        f = random_cochain(m.target, 0, ZGroup(), rng)
        lhs = pullback_cochain(m, coboundary(f))
        rhs = coboundary(pullback_cochain(m, f))
        assert (lhs - rhs).is_zero()

    @staticmethod
    def _doubling():
        # x -> 2x on the irrational torus, g1 -> (2, 0), g2 -> (0, 2)
        it = gallery.get_presentation("irrational-torus")
        return PresentationMorphism(it, it, affine=AffineMap([[2]], [0]),
                                    hom=[(2, 0), (0, 2)], name="doubling")

    def test_doubling_doubles_kappa(self):
        m = self._doubling()
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        pulled = pullback_cochain(m, kappa)
        assert pulled.payload_kind == "crossed"
        assert pulled.to_dict() == {"degree": 1,
                                    "crossed": {"g1": "0", "g2": "2*a"}}
        h1 = cohomology(m.source, RAlphaGroup(), 1)
        assert h1.class_coordinates(kappa) == (Scalar.of(-1),)
        assert h1.class_coordinates(pulled) == (Scalar.of(-2),)

    def test_quotient_pullback_commutes_with_coboundary(self):
        z2 = gallery.get_presentation("z2-reflection")
        tripling = PresentationMorphism(z2, z2, affine=AffineMap([[3]], [0]),
                                        hom=[(1,)], name="tripling")
        rng = random.Random(61)
        for m in (self._doubling(), tripling):
            pres = m.target
            for k in (0, 1, 2):
                c = random_cochain(pres, k, RAlphaGroup(), rng)
                lhs = pullback_cochain(m, coboundary(c))
                rhs = coboundary(pullback_cochain(m, c))
                if pres.is_finite():
                    assert lhs.payload_kind == rhs.payload_kind == "table"
                    assert lhs == rhs
                    continue
                for _ in range(3):
                    kt = tuple(pres.random_k(rng) for _ in range(k + 1))
                    assert lhs.q_value(kt) == rhs.q_value(kt), (k, kt)

    def test_quotient_pullback_to_line(self):
        m = gallery.line_to_irrational_torus()
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        pulled = pullback_cochain(m, kappa)
        assert is_cocycle(pulled)
        line = gallery.get_presentation("line")
        assert classes_equal(pulled, zero_cochain(line, 1, RAlphaGroup())).equal


class TestConnectingMap:
    def test_bockstein_on_projective_plane(self):
        rp2 = gallery.get_presentation("rp2")
        gen = cohomology(rp2, ZmodGroup(2), 1).representatives[0]
        delta = connecting_map(ses_mod(2), gen)
        h2 = cohomology(rp2, ZGroup(), 2)
        assert h2.class_coordinates(delta) == (1,)

    def test_lift_independence(self):
        # the class of the connecting image does not depend on the lift
        rp2 = gallery.get_presentation("rp2")
        gen = cohomology(rp2, ZmodGroup(2), 1).representatives[0]
        ses = ses_mod(2)
        shifted = CoefficientSES(
            ses.a, ses.b, ses.c, ses.injection, ses.surjection,
            lambda c: (c % 2) - 2, ses.injection_preimage, ses.name)
        d1 = connecting_map(ses, gen)
        d2 = connecting_map(shifted, gen)
        assert classes_equal(d1, d2).equal


def _rebuilt(c):
    """c through the checked constructor: every value made canonical again,
    stored in tuples(k) order."""
    return Cochain.nerve(c.pres, c.degree, c.group, dict(c.payload))


def _typed(c):
    return [(t, type(v), v) for t, v in c.payload.items()]


def _gallery_nerve(name, full):
    pres = gallery.get_presentation(name)
    return gallery.full_variant(pres) if full else pres


def _assert_in_tuple_order(c):
    assert list(c.payload) == c.pres.tuples(c.degree)
    fmt = c.group.format_el
    assert list(c.to_dict()["values"].items()) == [
        (cech._tuple_key(t), fmt(v)) for t, v in sorted(c.payload.items())]


class TestTrustedNerveCochains:
    """H^k generators and class witnesses are built without the checks of
    Cochain.nerve, and to_dict walks a payload in its stored order; each
    agrees with the checked and sorted routes."""

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("name", GALLERY_NERVES)
    def test_generators_and_witnesses_match_their_rebuilds(self, name, full):
        pres = _gallery_nerve(name, full)
        rng = random.Random(f"trusted:{name}:{full}")
        for tag in ("Z", "Z/2", "Z/3", "R(alpha)"):
            group = group_from_tag(tag)
            for k in range(min(3, pres.k_max)):
                rep = cohomology(pres, group, k)
                for r in rep.representatives:
                    assert _typed(r) == _typed(_rebuilt(r)), (tag, k)
                    _assert_in_tuple_order(r)
                if k == 0:
                    continue
                f1 = random_cocycle(pres, k, group, rng, rep.representatives)
                f2 = f1 + coboundary(random_cochain(pres, k - 1, group, rng))
                res = classes_equal(f1, f2)
                assert res.equal, (tag, k)
                assert _typed(res.witness) == _typed(_rebuilt(res.witness))
                assert coboundary(res.witness) == f2 - f1

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("name", GALLERY_NERVES)
    def test_values_are_stored_in_tuple_order(self, name, full):
        pres = _gallery_nerve(name, full)
        rng = random.Random(f"order:{name}:{full}")
        z = ZGroup()
        for k in range(min(3, pres.k_max)):
            tuples = pres.tuples(k)
            vals = {t: rng.randrange(-5, 6)
                    for t in rng.sample(tuples, len(tuples))}
            c = Cochain.nerve(pres, k, z, vals)
            items = list(c.to_dict()["values"].items())
            rng.shuffle(items)
            read = Cochain.from_dict(pres, z, {"degree": k,
                                               "values": dict(items)})
            e = random_cochain(pres, k, z, rng)
            cases = [c, read, c + e, c - e, -c, c.scale_int(3),
                     push_coefficients(GroupHom.reduction(2), c),
                     zero_cochain(pres, k, z)]
            if k < pres.k_max:
                cases.append(coboundary(c))
            for x in cases:
                _assert_in_tuple_order(x)
            assert read == c

    def test_pullback_and_connecting_map_are_stored_in_tuple_order(self):
        m = gallery.circle_double_cover()
        rng = random.Random(71)
        for k in (0, 1):
            c = random_cochain(m.target, k, ZGroup(), rng)
            _assert_in_tuple_order(pullback_cochain(m, c))
        rp2 = gallery.get_presentation("rp2")
        for gen in cohomology(rp2, ZmodGroup(2), 1).representatives:
            _assert_in_tuple_order(connecting_map(ses_mod(2), gen))
