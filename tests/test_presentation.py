"""Nerve and quotient presentations: validation, simplicial identities, maps."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from diffcech import gallery
from diffcech.cech import Cochain
from diffcech.coeff import ALPHA, Scalar
from diffcech.errors import CompatibilityError, DegreeError, ParseError
from diffcech.funclass import AffineMap
from diffcech.presentation import (
    MAX_CLASS_DIMENSION,
    MAX_TUPLES,
    FiniteNerve,
    Generator,
    GroupQuotient,
    PresentationMorphism,
    circle_arc_nerve,
    common_refinement,
    joint_circle_nerve,
)


def random_point(pres, rng):
    """A random point of a quotient's nebula, with entries in Z + aZ."""
    return tuple(Scalar.of(rng.randrange(-5, 6)) + ALPHA * rng.randrange(-2, 3)
                 for _ in range(pres.dim))


class TestFiniteNerve:
    def test_face_closure_required(self):
        with pytest.raises(ParseError, match="not face-closed"):
            FiniteNerve(["U0", "U1", "U2"],
                        {frozenset([0]), frozenset([1]), frozenset([2]),
                         frozenset([0, 1, 2]), frozenset([0, 1]),
                         frozenset([0, 2])},
                        k_max=4)

    def test_from_facets_closes_downward(self):
        n = FiniteNerve.from_facets(3, [(0, 1, 2)], k_max=4)
        assert frozenset([1, 2]) in n.faces
        assert frozenset([0]) in n.faces

    def test_tuples_ordering_and_alternating(self):
        n = FiniteNerve.from_facets(3, [(0, 1, 2)], k_max=4)
        assert n.tuples(1) == [(0, 1), (0, 2), (1, 2)]
        for t in n.tuples(2):
            assert list(t) == sorted(set(t))

    def test_full_mode_allows_repeats(self):
        n = FiniteNerve.from_facets(2, [(0, 1)], k_max=3, alternating=False)
        assert (0, 0) in n.tuples(1)
        assert (1, 0) in n.tuples(1)

    def test_degree_cap(self):
        n = FiniteNerve.from_facets(1, [(0,)], k_max=2)
        with pytest.raises(DegreeError):
            n.tuples(3)

    @staticmethod
    def _product_and_filter(nerve, k):
        # the enumeration tuples() replaced: every (k+1)-word over the
        # charts, kept when alive (and strictly increasing if alternating)
        n = len(nerve.charts)
        return [t for t in itertools.product(range(n), repeat=k + 1)
                if (not nerve.alternating
                    or all(t[i] < t[i + 1] for i in range(k)))
                and frozenset(t) in nerve.faces]

    def test_tuples_match_product_and_filter(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randint(1, 6)
            facets = [rng.sample(range(n), rng.randint(1, min(n, 4)))
                      for _ in range(rng.randint(0, 5))]
            k_max = rng.randint(0, 4)
            for alternating in (True, False):
                nerve = FiniteNerve.from_facets(n, facets, k_max, alternating)
                degrees = list(range(-1, k_max + 1))
                rng.shuffle(degrees)  # any order of first requests
                for k in degrees:
                    want = (self._product_and_filter(nerve, k) if k >= 0
                            else [()])
                    assert nerve.tuples(k) == want, (n, facets, alternating, k)

    def test_tuple_count_limit(self):
        two = FiniteNerve.from_facets(2, [(0, 1)], k_max=24,
                                      alternating=False)
        assert len(two.tuples(17)) == 2 ** 18 == MAX_TUPLES
        with pytest.raises(DegreeError, match="alive tuples in degree 18"):
            two.tuples(22)
        # a 32x32 triangulated torus stays well inside the limit
        def v(i, j):
            return (i % 32) * 32 + j % 32

        facets = [f for i in range(32) for j in range(32)
                  for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                            (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
        for alternating, top in ((True, 0), (False, 117760)):
            torus = FiniteNerve.from_facets(1024, facets, 3, alternating)
            assert len(torus.tuples(2)) == (2048 if alternating else 31744)
            assert len(torus.tuples(3)) == top

    def test_components(self):
        n = FiniteNerve.from_facets(4, [(0, 1), (2, 3)], k_max=4)
        assert n.components() == [[0, 1], [2, 3]]


class TestGroupQuotient:
    def test_noncommuting_generators_rejected(self):
        flip = Generator(2, AffineMap([[Scalar.of(-1)]], [Scalar.of(0)]))
        shift = Generator(0, AffineMap.translation([Scalar.of(1)]))
        with pytest.raises(ParseError, match="commute"):
            GroupQuotient(1, [flip, shift], free=False,
                          function_class_degree=2)

    def test_torsion_identity_enforced(self):
        # an order-2 label on a translation is inconsistent
        shift = Generator(2, AffineMap.translation([Scalar.of(1)]))
        with pytest.raises(ParseError):
            GroupQuotient(1, [shift], free=False, function_class_degree=2)

    def test_negative_torsion_rejected(self):
        flip = AffineMap([[Scalar.of(-1)]], [Scalar.of(0)])
        shift = AffineMap.translation([Scalar.of(1)])
        for g in (Generator(-2, flip), Generator(-3, shift)):
            with pytest.raises(ParseError, match="negative"):
                GroupQuotient(1, [g], free=False, function_class_degree=1)

    def test_class_size_cap(self):
        # C(n+D+1, D+1) monomials one degree up, against the cap; a huge n
        # or D is refused (or, with no variables, built) at once
        for n in range(12):
            for d in range(70):
                wide = math.comb(n + d + 1, d + 1)
                if wide > MAX_CLASS_DIMENSION:
                    with pytest.raises(DegreeError, match="MAX_CLASS_DIM"):
                        GroupQuotient(n, [], free=True,
                                      function_class_degree=d)
                    break
                cls = GroupQuotient(n, [], free=True,
                                    function_class_degree=d).function_class()
                assert cls.dimension == math.comb(n + d, d)
        for n, d in ((1, 10 ** 12), (10 ** 12, 0), (10 ** 9, 10 ** 9)):
            with pytest.raises(DegreeError):
                GroupQuotient(n, [], free=True, function_class_degree=d)
        empty = GroupQuotient(0, [], free=True, function_class_degree=10 ** 12)
        assert empty.function_class().basis == [()]

    def test_affine_of_uses_repeated_squaring(self, monkeypatch):
        gens = gallery.get_presentation("irrational-torus").generators
        it = GroupQuotient(1, gens, free=True, function_class_degree=1)
        calls = []
        compose = AffineMap.compose

        def counting(self, other):
            calls.append(other)
            return compose(self, other)

        monkeypatch.setattr(AffineMap, "compose", counting)
        phi = it.affine_of((10**4, 0))
        assert len(calls) <= 2 * math.log2(10**4)
        assert phi == AffineMap.translation([Scalar.of(10**4)])
        assert it.affine_of((-10**4, 7)) == AffineMap.translation(
            [Scalar.of(-10**4) + ALPHA * 7])

    def test_affine_of_matches_generator_powers(self):
        # the oracle is the product of AffineMap.power over the generators,
        # on the raw exponents (torsion wrap-around is not reduced first)
        def oracle(pres, k):
            phi = AffineMap.identity(pres.dim)
            for g, n in zip(pres.generators, k):
                if n:
                    phi = g.affine.power(n).compose(phi)
            return phi

        shear = AffineMap([[1, 1], [0, 1]], [0, 1])
        lattice = GroupQuotient(2, [
            Generator(0, shear),
            Generator(0, AffineMap.translation([1, 0])),
            Generator(0, AffineMap.translation([ALPHA, 0])),
            Generator(0, AffineMap([[1, ALPHA], [0, 1]], [0, ALPHA]))],
            free=True, function_class_degree=1)
        z4 = GroupQuotient(2, [Generator(4, AffineMap([[0, -1], [1, 0]],
                                                      [0, 0]))], free=False)
        mixed = GroupQuotient(
            2, [Generator(2, AffineMap([[-1, 0], [0, 1]], [0, 0])),
                Generator(0, AffineMap.translation([0, 1]))], free=False)
        quotients = [gallery.get_presentation(name) for name in gallery.names()
                     if gallery.get_presentation(name).kind == "quotient"]
        rng = random.Random(22)
        big = [10**4, -10**4, 10**4 + 1, -10**4 - 1]
        big += [s * (2**j + d) for j in range(1, 15)
                for d in (-1, 1) for s in (1, -1)]
        for pres in quotients + [z4, mixed, lattice]:
            r = pres.rank
            box = list(itertools.product(range(-9, 10), repeat=r))
            if len(box) > 400:
                box = rng.sample(box, 400)
            ks = box + [pres.gen_power(i, n) for i in range(r) for n in big]
            ks += [tuple(rng.choice(big) for _ in range(r)) for _ in range(20)]
            for i, g in enumerate(pres.generators):
                if g.torsion:
                    ks += [pres.gen_power(i, q * g.torsion + s)
                           for q in (-3, -1, 1, 5) for s in range(g.torsion)]
            expected = {k: oracle(pres, k) for k in ks}
            for _ in range(3):
                fresh = GroupQuotient(pres.dim, pres.generators, pres.free,
                                      pres.function_class_degree)
                rng.shuffle(ks)
                for k in ks:
                    assert fresh.affine_of(k) == expected[k], (pres, k)

    def test_affine_of_takes_huge_exponents(self):
        gens = gallery.get_presentation("irrational-torus").generators
        it = GroupQuotient(1, gens, free=True, function_class_degree=1)
        k = (2**3000 + 1, -2**5000 - 3)
        assert it.affine_of(k) == AffineMap.translation(
            [Scalar.of(k[0]) + ALPHA * k[1]])

    def test_crossed_value_composes_logarithmically(self, monkeypatch):
        # kappa at (10^6, -10^6) on a fresh torus: a few compositions per bit
        gens = gallery.get_presentation("irrational-torus").generators
        it = GroupQuotient(1, gens, free=True, function_class_degree=3)
        cls = it.function_class()
        kappa = Cochain.crossed(it, {0: cls.zero(), 1: cls.from_coordinates(
            [ALPHA] + [0] * (cls.dimension - 1))})
        calls = []
        compose = AffineMap.compose

        def counting(self, other):
            calls.append(other)
            return compose(self, other)

        monkeypatch.setattr(AffineMap, "compose", counting)
        v = kappa.q_value(((10**6, -10**6),))
        assert len(calls) <= 5 * math.log2(10**6)
        assert v == cls.from_coordinates(
            [-10**6 * ALPHA] + [0] * (cls.dimension - 1))

    def test_crossed_value_looks_up_each_prefix_a_few_times(self):
        # the crossed sum asks for g^m at each binary prefix m of n, one
        # prefix longer each time; each walk stops at the longest cached
        # prefix, so the cache lookups grow with the bits of n, not with
        # their square (about 200 per bit at 2^400 with shortest-first walks)
        class Counting(dict):
            gets = 0

            def get(self, key, default=None):
                self.gets += 1
                return super().get(key, default)

        gens = gallery.get_presentation("irrational-torus").generators
        for n in (2**400 + 1, -2**400 - 1, 3**250):
            it = GroupQuotient(1, gens, free=True, function_class_degree=1)
            it._affine_cache = Counting()
            cls = it.function_class()
            kappa = Cochain.crossed(it, {0: cls.zero(), 1: cls.from_coordinates(
                [ALPHA] + [0] * (cls.dimension - 1))})
            assert kappa.q_value(((0, n),)) == cls.from_coordinates(
                [n * ALPHA] + [0] * (cls.dimension - 1))
            assert it._affine_cache.gets <= 5 * n.bit_length(), n

    def test_canonical_torsion_reduction(self):
        z2 = gallery.get_presentation("z2-reflection")
        assert z2.k_canonical((5,)) == (1,)
        assert z2.k_add((1,), (1,)) == (0,)

    def test_k_canonical(self):
        it = gallery.get_presentation("irrational-torus")
        assert it.k_canonical((-7, 10**6)) == (-7, 10**6)
        assert it.k_canonical([Fraction(3), True]) == (3, 1)
        rotation = AffineMap([[0, -1], [1, 0]], [0, 0])
        z4 = GroupQuotient(2, [Generator(4, rotation)], free=False)
        assert z4.k_canonical((-1,)) == (3,)
        assert z4.k_canonical((-8,)) == (0,)
        assert z4.k_canonical((9,)) == (1,)
        # a free generator beside a torsion one is left as it is
        mixed = GroupQuotient(
            2, [Generator(2, AffineMap([[-1, 0], [0, 1]], [0, 0])),
                Generator(0, AffineMap.translation([0, 1]))], free=False)
        assert mixed.k_canonical((-3, -3)) == (1, -3)
        for pres, k in ((it, (1,)), (it, (1, 2, 3)), (z4, ()), (z4, (1, 1))):
            with pytest.raises(ParseError, match="wrong rank"):
                pres.k_canonical(k)

    def test_non_integral_exponents_refused(self):
        it = gallery.get_presentation("irrational-torus")
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        with pytest.raises(ParseError, match=r"non-integral exponent 2\.7"):
            kappa.q_value(((0, 2.7),))
        for k, bad in (((Fraction(3, 2), 0), "3/2"),
                       ((Fraction(1, 2), 0), "1/2"), ((4, -0.5), "-0.5")):
            with pytest.raises(ParseError, match=f"integral exponent {bad}"):
                it.affine_of(k)
        z2 = gallery.get_presentation("z2-reflection")
        with pytest.raises(ParseError, match="non-integral exponent 2.5"):
            z2.k_canonical((2.5,))
        assert it.k_canonical((Fraction(6, 3), 2.0)) == (2, 2)

    def test_function_class_is_built_once(self):
        it = gallery.get_presentation("irrational-torus")
        cls = it.function_class()
        assert it.function_class() is cls
        assert cls == it.function_class() and (cls.n, cls.max_degree) == (1, 3)

    def test_action_is_a_homomorphism(self):
        it = gallery.get_presentation("irrational-torus")
        rng = random.Random(3)
        for _ in range(20):
            k1, k2 = it.random_k(rng), it.random_k(rng)
            y = random_point(it, rng)
            both = it.act_point(it.act_point(y, k1), k2)
            assert both == it.act_point(y, it.k_add(k1, k2))

    def test_translation_action_value(self):
        it = gallery.get_presentation("irrational-torus")
        y = (Scalar.of(0),)
        assert it.act_point(y, (2, 3)) == (Scalar.of(2) + ALPHA * 3,)

    def test_finite_enumeration(self):
        z2 = gallery.get_presentation("z2-reflection")
        assert z2.is_finite() and z2.k_order() == 2
        it = gallery.get_presentation("irrational-torus")
        assert not it.is_finite()
        with pytest.raises(DegreeError):
            it.k_elements()


class TestMorphisms:
    def test_nerve_morphism_checks_tuples(self):
        c3 = gallery.get_presentation("circle3")
        # a target whose charts never meet cannot receive the arc overlaps
        disjoint = FiniteNerve.from_facets(2, [(0,), (1,)], k_max=4)
        with pytest.raises(CompatibilityError):
            PresentationMorphism(c3, disjoint, index_map=[0, 1, 0])

    def test_double_cover_is_compatible(self):
        m = gallery.circle_double_cover()
        assert m.map_tuple((0, 5)) == (0, 2)

    def test_quotient_morphism_intertwines(self):
        m = gallery.line_to_irrational_torus()
        assert m.map_k(()) == (0, 0)
        # a non-equivariant map is rejected
        it = gallery.get_presentation("irrational-torus")
        crz = gallery.get_presentation("circle-rz")
        with pytest.raises(CompatibilityError):
            PresentationMorphism(
                crz, it,
                affine=AffineMap([[Scalar.of(2)]], [Scalar.of(0)]),
                hom=[(1, 0)],
            )

    def test_identity_refinement(self):
        c3 = gallery.get_presentation("circle3")
        s, mq, mr = common_refinement(c3, c3)
        assert s == c3
        assert mq.map_tuple((0, 1)) == (0, 1)


class TestCircleNerves:
    def test_three_arc_cover(self):
        arcs = [(Fraction(j, 3), Fraction(5, 12)) for j in range(3)]
        n = circle_arc_nerve(arcs, k_max=4)
        assert n.tuples(1) == [(0, 1), (0, 2), (1, 2)]
        assert n.tuples(2) == []

    def test_six_arc_cover_adjacency(self):
        arcs = [(Fraction(j, 6), Fraction(5, 24)) for j in range(6)]
        n = circle_arc_nerve(arcs, k_max=4)
        assert n.tuples(1) == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_common_refinement_covers_circle(self):
        s, mq, mr = gallery.circle_refinement()
        assert s.kind == "nerve"
        assert len(s.charts) == 12
        # both refinement maps send alive tuples to alive tuples
        for t in s.tuples(1):
            assert frozenset(mq.map_tuple(t)) in mq.target.faces
            assert frozenset(mr.map_tuple(t)) in mr.target.faces

    def test_distinct_nerves_need_joint_data(self):
        c3 = gallery.get_presentation("circle3")
        c6 = gallery.get_presentation("circle6")
        with pytest.raises(CompatibilityError):
            common_refinement(c3, c6)
