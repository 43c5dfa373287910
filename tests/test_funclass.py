"""Affine maps, polynomial function classes, and the precomposition action."""

import random
from fractions import Fraction

import pytest

from diffcech.coeff import ALPHA, Scalar
from diffcech.errors import ClassError
from diffcech.funclass import (
    AffineMap,
    FunctionClass,
    FunctionElement,
    act,
    monomial_basis,
)


def _random_affine(rng, n):
    """A random invertible affine map (unit upper triangular times diagonal)."""
    a = [[Scalar.of(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = Scalar.of(rng.choice([1, -1, 2]))
        for j in range(i + 1, n):
            a[i][j] = Scalar.of(rng.randrange(-2, 3))
    b = [Scalar.of(rng.randrange(-3, 4)) + ALPHA * rng.randrange(-1, 2)
         for _ in range(n)]
    return AffineMap(a, b)


def _compose_by_sums(phi, psi):
    """phi after psi, each entry a generic sum started at Scalar.of(0) and
    every map built by the checking constructor."""
    n = phi.dim
    a = [[sum((phi.a[i][k] * psi.a[k][j] for k in range(n)), Scalar.of(0))
          for j in range(n)] for i in range(n)]
    b = [sum((phi.a[i][k] * psi.b[k] for k in range(n)), Scalar.of(0))
         + phi.b[i] for i in range(n)]
    return AffineMap(a, b)


def _random_point(rng, n):
    return [Scalar.of(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
            for _ in range(n)]


class TestAffineMap:
    def test_identity_and_translation(self):
        phi = AffineMap.translation([Scalar.of(2)])
        assert tuple(phi.apply([Scalar.of(3)])) == (Scalar.of(5),)
        assert AffineMap.identity(2).is_identity()

    def test_compose_matches_pointwise(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randrange(1, 3)
            phi, psi = _random_affine(rng, n), _random_affine(rng, n)
            p = _random_point(rng, n)
            assert phi.compose(psi).apply(p) == phi.apply(psi.apply(p))

    def test_compose_is_the_generic_sum(self):
        # zero entries, rational and Q(a) entries and denominators that are
        # not constant in a; the entries, their hash and the monomial images
        # must be those of the sums built through the checking constructor
        rng = random.Random(18)
        pool = [0, 0, 0, 1, -1, 2, Fraction(-2, 3), ALPHA, ALPHA * 3 - 1,
                Scalar.of(1) / (ALPHA + 1),
                (ALPHA - 2) / (ALPHA * ALPHA + 3)]
        for _ in range(60):
            n = rng.randrange(1, 4)
            phi, psi = (AffineMap(
                [[rng.choice(pool) for _ in range(n)] for _ in range(n)],
                [rng.choice(pool) for _ in range(n)]) for _ in range(2))
            got, want = phi.compose(psi), _compose_by_sums(phi, psi)
            assert got.a == want.a and got.b == want.b
            assert all(type(row) is tuple for row in (got.a, got.b, *got.a))
            assert all(type(x) is Scalar for x in (*got.b, *sum(got.a, ())))
            assert got == want and hash(got) == hash(want)
            for e in FunctionClass(n, 3).basis:
                assert got.monomial_image(e) == want.monomial_image(e)

    def test_power_matches_repeated_compose(self):
        rng = random.Random(14)
        for _ in range(10):
            n = rng.randrange(1, 3)
            phi = _random_affine(rng, n)
            step, inv = AffineMap.identity(n), AffineMap.identity(n)
            for k in range(9):
                assert phi.power(k) == step
                assert phi.power(-k) == inv
                step, inv = phi.compose(step), phi.inverse().compose(inv)

    def test_monomial_image_is_the_power_product(self):
        # (phi(y))^e expanded once and memoized, checked pointwise
        rng = random.Random(16)
        for _ in range(10):
            n = rng.randrange(1, 3)
            phi = _random_affine(rng, n)
            cls = FunctionClass(n, 4)
            p = _random_point(rng, n)
            q = phi.apply(p)
            for e in cls.basis:
                img = FunctionElement(cls, phi.monomial_image(e))
                want = Scalar.of(1)
                for x, k in zip(q, e):
                    for _ in range(k):
                        want = want * x
                assert img.evaluate(p) == want
                assert phi.monomial_image(e) is phi.monomial_image(e)

    def test_inverse(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randrange(1, 3)
            phi = _random_affine(rng, n)
            p = _random_point(rng, n)
            assert tuple(phi.inverse().apply(phi.apply(p))) == tuple(p)
        singular = AffineMap([[1, 2], [2, 4]], [0, 1])
        with pytest.raises(ClassError):
            singular.inverse()


class TestMonomialBasis:
    def test_counts(self):
        # dim of polynomials of degree <= D in n variables is C(n + D, D)
        assert len(monomial_basis(1, 3)) == 4
        assert len(monomial_basis(2, 2)) == 6
        assert len(monomial_basis(3, 1)) == 4

    def test_graded_order(self):
        basis = monomial_basis(2, 2)
        degrees = [sum(e) for e in basis]
        assert degrees == sorted(degrees)


class TestFunctionElement:
    def test_parse_and_format(self):
        cls = FunctionClass(1, 3)
        h = cls.parse("x0^2 - 2*x0 + 1")
        assert cls.parse(str(h)) == h

    def test_square_expansion_under_shift(self):
        # (x + a)^2 composed with x -> x + 1 is (x + 1 + a)^2
        cls = FunctionClass(1, 2)
        h = cls.parse("(x0 + a)^2")
        shifted = act(AffineMap.translation([Scalar.of(1)]), h)
        assert shifted == cls.parse("(x0 + 1 + a)^2")

    def test_act_agrees_with_evaluation(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randrange(1, 3)
            cls = FunctionClass(n, 3)
            h = cls.random(rng)
            phi = _random_affine(rng, n)
            p = _random_point(rng, n)
            assert act(phi, h).evaluate(p) == h.evaluate(phi.apply(p))

    def test_act_is_contravariant(self):
        # h o (phi o psi) = (h o phi) o psi
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randrange(1, 3)
            cls = FunctionClass(n, 3)
            h = cls.random(rng)
            phi, psi = _random_affine(rng, n), _random_affine(rng, n)
            assert act(phi.compose(psi), h) == act(psi, act(phi, h))

    def test_act_is_linear(self):
        rng = random.Random(10)
        cls = FunctionClass(1, 3)
        for _ in range(20):
            h1, h2 = cls.random(rng), cls.random(rng)
            phi = _random_affine(rng, 1)
            assert act(phi, h1 + h2) == act(phi, h1) + act(phi, h2)
            assert act(phi, h1.scale(ALPHA)) == act(phi, h1).scale(ALPHA)

    def test_coordinates_round_trip(self):
        rng = random.Random(12)
        cls = FunctionClass(2, 2)
        for _ in range(10):
            h = cls.random(rng)
            assert cls.from_coordinates(h.coordinates()) == h

    def test_trusted_results_are_canonical(self):
        # +, -, scale and act build their results unchecked; each must be
        # what the checking constructor builds from the same terms, with no
        # zero coefficient.  Acting by phi on act(phi^-1, g) for a sparse g
        # cancels terms inside compose_affine.
        rng = random.Random(15)

        def maps(n):
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            flip = [[-x for x in row] for row in ident]
            shift = [ALPHA * rng.randrange(-3, 4) + rng.randrange(-2, 3)
                     for _ in range(n)]
            return [AffineMap.translation(shift), AffineMap(flip, shift),
                    AffineMap(flip, [0] * n), _random_affine(rng, n)]

        def sparse(cls):
            h = cls.zero()
            for _ in range(rng.randrange(1, 4)):
                e = rng.choice(cls.basis)
                h = h + cls.monomial(e).scale(
                    rng.randrange(-3, 4) + ALPHA * rng.randrange(-1, 2))
            return h

        def check(r, cls):
            assert r.cls == cls
            assert all(isinstance(c, Scalar) and not c.is_zero()
                       for c in r.terms.values())
            rebuilt = FunctionElement(r.cls, r.terms)
            assert r == rebuilt and r.terms == rebuilt.terms

        cancelled = 0
        for _ in range(40):
            n = rng.randrange(1, 3)
            cls = FunctionClass(n, rng.randrange(1, 4))
            g, h = sparse(cls), cls.random(rng)
            for r in (g + h, g - h, h - h, g - g + h, -g, g.scale(0),
                      h.scale(ALPHA - 2)):
                check(r, cls)
            wide = cls.widen(1)
            check(g.in_class(wide) + h, wide)
            check(h.in_class(wide).in_class(cls), cls)
            for phi in maps(n):
                pre = act(phi.inverse(), g)
                back = act(phi, pre)
                assert back == g
                cancelled += len(pre.terms) > len(g.terms)
                for r in (pre, back, act(phi, h), act(phi, h - h)):
                    check(r, cls)
        assert cancelled  # some act really did cancel terms

    def test_degree_bound_enforced(self):
        cls = FunctionClass(1, 2)
        with pytest.raises(ClassError):
            FunctionElement(cls, {(3,): Scalar.of(1)})

    def test_widen(self):
        cls = FunctionClass(1, 2)
        wide = cls.widen(1)
        assert wide.max_degree == 3
        h = cls.parse("x0^2 + a")
        assert h.in_class(wide).in_class(cls) == h
