"""Coefficient groups, Q(a) scalars, Smith normal form, and SES oracles."""

import math
import random
from fractions import Fraction

import pytest

from diffcech.coeff import (
    ALPHA,
    GroupElement,
    ProductGroup,
    QmodZGroup,
    RAlphaGroup,
    Scalar,
    ZGroup,
    ZmodGroup,
    _P_ONE,
    _snf,
    _zgcd,
    group_from_tag,
    parse_ses,
    ses_mod,
    ses_z_r_qmodz,
    smith_normal_form,
)
from diffcech import linalg
from diffcech.errors import ClassError, ParseError, TagError


def _det(M):
    """Exact determinant by fraction-free expansion (small matrices only)."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = M[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _random_matrix(rng, rows, cols, bound=9):
    return [[rng.randrange(-bound, bound + 1) for _ in range(cols)]
            for _ in range(rows)]


def _sparse(M):
    """Dense integer rows as the sparse rows `_snf` takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in M]


class TestScalar:
    def test_canonical_form_examples(self):
        assert Scalar((2,), (4,)) == Scalar.of(Fraction(1, 2))
        a = ALPHA
        # (a^2 - 1) / (a - 1) reduces to a + 1
        num = a * a - 1
        den = a - 1
        assert num / den == a + 1
        assert str(a + 1) in ("a+1", "1+a")

    def test_field_axioms_random(self):
        rng = random.Random(3)
        for _ in range(50):
            def rand():
                return (Scalar.of(Fraction(rng.randrange(-9, 10),
                                           rng.randrange(1, 7)))
                        + ALPHA * rng.randrange(-3, 4))
            x, y, z = rand(), rand(), rand()
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert (x - x).is_zero()
            if not y.is_zero():
                assert (x / y) * y == x

    def test_polynomial_denominator_is_interned(self):
        # the polynomial fast paths of + and * test `den is _P_ONE`
        x, y = Scalar.parse("(a^2-1)/(a-1)"), ALPHA + 1
        inv = 1 / (ALPHA + 1)
        results = [
            x, y * inv, x + y, x * y, x / y, x - y, -x, y - inv + inv,
            Scalar.parse("(2*a+2)/(4*a+4)"),
            Scalar.parse("a/(a-1)") * Scalar.parse("(a-1)/a"),
            Scalar((Fraction(3),), (Fraction(6),)),
        ]
        for s in results:
            assert s.den == _P_ONE
            assert s.den is _P_ONE, s

    def test_integer_input_gives_fraction_coefficients(self):
        # int coefficients are read exactly: no division may produce a float
        cases = [
            Scalar((2,), (4,)), Scalar((1, 2), (3, 6)), Scalar((3, 0, 6), (9,)),
            Scalar((1,), (2, 4)), Scalar((4, 2), (6, 0, 2)), Scalar((5,)),
        ]
        for s in cases:
            for c in s.num + s.den:
                assert type(c) is Fraction, (s, c)
        assert Scalar((1, 2), (3, 6)).num == (Fraction(1, 3),)
        assert Scalar((4, 2), (6, 0, 2)).num == (Fraction(2), Fraction(1))
        assert Scalar((4, 2), (6, 0, 2)).den == (Fraction(3), 0, Fraction(1))

    def test_parse_round_trip(self):
        for text in ["0", "3/4", "a", "a^2-2*a+1", "-a/2+5"]:
            s = Scalar.parse(text)
            assert Scalar.parse(str(s)) == s

    def test_exponent_cap(self):
        from diffcech.exprs import MAX_EXPONENT
        from diffcech.funclass import FunctionClass

        assert MAX_EXPONENT == 64
        want = Scalar.of(1)
        for _ in range(64):
            want = want * ALPHA
        assert Scalar.parse("a^64") == want
        assert Scalar.parse("a^-64") == Scalar.of(1) / want
        for text in ("a^65", "a^-65", "(a+1)^2000"):
            with pytest.raises(ParseError, match="exceeds the limit of 64"):
                Scalar.parse(text)
        with pytest.raises(ParseError, match="exceeds the limit"):
            FunctionClass(1, 2).parse("x0^65")

    def test_power_degree_cap(self):
        # a power is checked by the degree it builds, before it is expanded
        assert Scalar.parse("((a+1)^8)^8") == Scalar.parse("(a+1)^64")
        assert Scalar.parse("(1/(a+1))^-64") == Scalar.parse("(a+1)^64")
        for text in ("((a+1)^64)^64", "(((a+1)^8)^8)^8", "(a^2)^33",
                     "(a^2)^-33"):
            with pytest.raises(ParseError, match="degree limit of 64"):
                Scalar.parse(text)
        from diffcech.funclass import FunctionClass

        with pytest.raises(ParseError, match="degree limit of 64"):
            FunctionClass(2, 2).parse("(x0^2+x1)^33")

    def test_product_degree_cap(self):
        # products and quotients are checked by the degree they build,
        # before they are expanded
        assert Scalar.parse("(a+1)^32*(a+1)^32") == Scalar.parse("(a+1)^64")
        assert Scalar.parse("a^63/(a+1)") * (ALPHA + 1) == Scalar.parse("a^63")
        factors = "*".join(["(a+1)^64"] * 20)
        for text in ("a^64*a", "(a+1)^64/(a+2)", factors):
            with pytest.raises(ParseError, match="degree limit of 64"):
                Scalar.parse(text)
        from diffcech.funclass import FunctionClass

        with pytest.raises(ParseError, match="degree limit of 64"):
            FunctionClass(1, 2).parse("x0^64*x0")

    def test_sum_degree_cap(self):
        # a sum of quotients grows its common denominator term by term, so
        # each partial sum is checked
        def harmonic(n):
            return "+".join(f"1/(a+{i})" for i in range(1, n + 1))

        assert Scalar.parse(harmonic(64)) == (Scalar.parse(harmonic(63))
                                              + Scalar.parse("1/(a+64)"))
        for text in (harmonic(65), harmonic(150), f"{harmonic(64)}-1/(a-1)"):
            with pytest.raises(ParseError, match="sum of degree 65"):
                Scalar.parse(text)

    def test_variable_index_cap(self):
        # an index past the arity is refused before its exponent tuple
        # (of that length) is built
        from diffcech.funclass import FunctionClass

        assert FunctionClass(2, 1).parse("x1").terms == {(0, 1): Scalar.of(1)}
        for text in ("x2", "x10000000", "1 + x0*x99"):
            with pytest.raises(ParseError, match="uses more than 2 variables"):
                FunctionClass(2, 1).parse(text)
        with pytest.raises(ParseError, match="uses more than 0 variables"):
            Scalar.parse("x10000000")

    def test_rational_predicates(self):
        assert Scalar.of(5).as_int() == 5
        assert Scalar.of(Fraction(1, 2)).is_rational()
        with pytest.raises(ClassError):
            Scalar.of(Fraction(1, 2)).as_int()
        assert not ALPHA.is_rational()
        with pytest.raises(ClassError):
            ALPHA.as_fraction()
        assert (ALPHA * 2 + 3).alpha_coefficients() == (3, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Scalar.of(1) / Scalar.of(0)


# Euclid's algorithm over Q on tuples of Fractions, as Scalar reduced before
# it moved to Z[a]; kept here as an oracle for the gcd over Z[a]


def _euclid_pdivmod(p, q):
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(rem) >= len(q):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(q):
            break
        c = rem[-1] / q[-1]
        d = len(rem) - len(q)
        quo[d] = c
        for i, b in enumerate(q):
            rem[i + d] -= c * b
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _euclid_gcd(p, q):
    p, q = [Fraction(c) for c in p], [Fraction(c) for c in q]
    while q:
        p, q = q, _euclid_pdivmod(p, q)[1]
    return tuple(c / p[-1] for c in p)


def _int_poly(rng, degree, bound=6):
    p = [rng.randrange(-bound, bound + 1) for _ in range(degree)]
    return tuple(p + [rng.choice([-3, -2, -1, 1, 2, 5])])


def _random_scalar(rng):
    """A rational function of degree up to 3 over 2, with a common factor
    and a common content left in for the constructor to cancel."""
    if rng.random() < 0.08:
        return Scalar(())
    num = [Fraction(rng.randrange(-5, 6), rng.choice([1, 1, 2, 3]))
           for _ in range(rng.randrange(0, 4))]
    num.append(Fraction(rng.choice([-4, -1, 1, 3]), rng.choice([1, 2])))
    den = list(_int_poly(rng, rng.choice([0, 0, 1, 2])))
    if rng.random() < 0.4:
        r, k = rng.randrange(-3, 4), rng.choice([1, 2, 6])
        num = [k * c for c in _mul(num, (-r, 1))]
        den = [k * c for c in _mul(den, (-r, 1))]
    return Scalar(tuple(num), tuple(den))


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _at(s, q):
    """s evaluated at a = q through its stored integer polynomials, or None
    at a pole."""
    den = sum(c * q ** i for i, c in enumerate(s.zden))
    if den == 0:
        return None
    return Fraction(sum(c * q ** i for i, c in enumerate(s.znum))) / den


_POINTS = [Fraction(2), Fraction(1, 3), Fraction(-5, 7), Fraction(3),
           Fraction(-7, 2), Fraction(11), Fraction(13, 5), Fraction(-1),
           Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)]


def _assert_canonical(s):
    """gcd(P, Q) = 1 in Z[a] and lc(Q) > 0, checked through Gauss's lemma:
    coprime contents and, by Euclid over Q, coprime polynomials."""
    p, q = s.znum, s.zden
    assert all(type(c) is int for c in p + q), s
    assert q and q[-1] > 0, (p, q)
    if not p:
        assert q == (1,)
        return
    assert math.gcd(*p, *q) == 1, (p, q)
    assert _euclid_gcd(p, q) == (1,), (p, q)
    assert s.den[-1] == 1 and s.num == tuple(Fraction(c, q[-1]) for c in p)


class TestSpecialization:
    """Evaluation at a rational a = q that misses every pole is a ring
    homomorphism Q(a) -> Q; Fraction arithmetic is the independent route."""

    def test_arithmetic_commutes_with_evaluation(self):
        rng = random.Random(1103)
        checked = 0
        for _ in range(200):
            x, y = _random_scalar(rng), _random_scalar(rng)
            _assert_canonical(x)
            ops = [("+", x + y, lambda u, v: u + v),
                   ("-", x - y, lambda u, v: u - v),
                   ("*", x * y, lambda u, v: u * v)]
            if y:
                ops.append(("/", x / y, lambda u, v: u / v))
                assert (x / y) * y == x
            assert (x + y) - y == x
            points = [q for q in _POINTS
                      if _at(x, q) is not None and _at(y, q) is not None
                      and (not y or _at(y, q) != 0)][:3]
            assert len(points) == 3
            for name, got, op in ops:
                _assert_canonical(got)
                for q in points:
                    assert _at(got, q) == op(_at(x, q), _at(y, q)), (x, name, y)
                    checked += 1
        assert checked > 2000

    def test_rank_is_at_least_every_specialized_rank(self):
        rng = random.Random(1109)
        a = ALPHA
        matrices = [[[a - 2, Scalar.of(1)], [Scalar.of(0), a - 2]],
                    [[a - Fraction(1, 3), a], [Scalar.of(0), 1 / (a + 1)]]]
        for _ in range(40):
            rows, cols = rng.randrange(2, 5), rng.randrange(2, 5)
            M = [[_random_scalar(rng) for _ in range(cols)]
                 for _ in range(rows)]
            if rng.random() < 0.5:
                # a row that is a Q(a)-combination of two others
                u, v = _random_scalar(rng), _random_scalar(rng)
                M[-1] = [u * s + v * t for s, t in zip(M[0], M[1])]
            matrices.append(M)
        drops = 0
        for M in matrices:
            rank = linalg.rank(M)
            points = [q for q in _POINTS
                      if all(_at(x, q) is not None for row in M for x in row)]
            ranks = [linalg.rank([[_at(x, q) for x in row] for row in M])
                     for q in points[:3]]
            assert len(ranks) == 3
            assert all(r <= rank for r in ranks), (M, rank, ranks)
            assert rank in ranks, (M, rank, ranks)
            drops += min(ranks) < rank
        assert drops >= 2

    def test_gcd_over_z_matches_euclid_over_q(self):
        rng = random.Random(1117)
        for _ in range(300):
            g = _int_poly(rng, rng.randrange(0, 3))
            k = rng.choice([1, 1, 2, 6, -3])
            p = tuple(k * c for c in _mul(_int_poly(rng, rng.randrange(0, 4)), g))
            q = tuple(c for c in _mul(_int_poly(rng, rng.randrange(0, 4)), g))
            got = _zgcd(p, q)
            assert got[-1] > 0
            assert tuple(Fraction(c, got[-1]) for c in got) == _euclid_gcd(p, q)
            assert math.gcd(*got) == math.gcd(math.gcd(*p), math.gcd(*q))


class TestSmithNormalForm:
    def test_known_diagonal(self):
        # oracle: gcd of entries is 2, |det| = 8, so the factors are 2 and 4
        M = [[2, 4], [6, 8]]
        D, U, V = smith_normal_form(M)
        assert [D[0][0], D[1][1]] == [2, 4]
        assert _mat_mul(_mat_mul(U, M), V) == D
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1

    def test_random_factorization(self):
        rng = random.Random(11)
        for _ in range(30):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            M = _random_matrix(rng, rows, cols)
            D, U, V = smith_normal_form(M)
            assert _mat_mul(_mat_mul(U, M), V) == D
            assert abs(_det(U)) == 1 and abs(_det(V)) == 1
            diag = [D[i][i] for i in range(min(rows, cols))]
            for i in range(len(diag) - 1):
                if diag[i + 1]:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert D[i][j] == 0

    def test_solver_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            M = _random_matrix(rng, rows, cols)
            x0 = [rng.randrange(-5, 6) for _ in range(cols)]
            b = _mat_vec(M, x0)
            sol = _snf(_sparse(M), cols).solve(b)
            assert sol is not None
            assert _mat_vec(M, sol) == b

    def test_solver_detects_inconsistency(self):
        # 2x = 1 has no integer solution
        assert _snf([{0: 2}], 1).solve([1]) is None

    def test_kernel_basis(self):
        rng = random.Random(7)
        for _ in range(25):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            M = _random_matrix(rng, rows, cols)
            for col in _snf(_sparse(M), cols).kernel():
                v = [col.get(i, 0) for i in range(cols)]
                assert _mat_vec(M, v) == [0] * rows
                assert any(v)

    def test_solve_group_mod_m(self):
        # 3x = 1 in Z/5 has the solution x = 2
        sol = _snf([{0: 3}], 1).solve_group([1], ZmodGroup(5))
        assert sol is not None
        assert (3 * sol[0]) % 5 == 1


class TestGroups:
    def test_tags_round_trip(self):
        rng = random.Random(11)
        for tag in ["Z", "Z/4", "Q/Z", "R(alpha)", "prod[Z,Z/2]", "prod[]",
                    "prod[Z/3,prod[Z,R(alpha)]]"]:
            g = group_from_tag(tag)
            assert g.tag == tag
            for x in (g.zero(), g.random(rng)):
                assert g.parse_el(g.format_el(x)) == x

    def test_parse_el_is_canonical(self):
        # Cochain.from_dict stores what parse_el returns without making it
        # canonical again, which is exact only if this holds; the values
        # are written unreduced where the group has a reduction
        def unreduced(g, rng):
            if isinstance(g, ProductGroup):
                return tuple(unreduced(f, rng) for f in g.factors)
            if isinstance(g, ZmodGroup):
                return rng.randrange(-3 * g.m, 3 * g.m)
            if isinstance(g, QmodZGroup):
                return Fraction(rng.randrange(-20, 21), rng.choice([1, 4, 6]))
            return g.random(rng)

        rng = random.Random(19)
        for g in [ZGroup(), ZmodGroup(5), QmodZGroup(), RAlphaGroup(),
                  group_from_tag("prod[Z,Z/3,Q/Z,R(alpha)]")]:
            for _ in range(40):
                for x in (g.random(rng), unreduced(g, rng)):
                    y = g.parse_el(g.format_el(x))
                    assert g.canonical(y) == y == g.canonical(x), (g, x)

    def test_random_scalar_is_the_fraction_formula(self):
        # R(alpha) draws n/d + m*a built canonical; the sum of Fractions it
        # replaced gives the same scalars from the same draws
        g = RAlphaGroup()
        for seed in range(2000):
            rng, twin = random.Random(seed), random.Random(seed)
            for _ in range(3):
                want = Scalar.of(Fraction(twin.randrange(-6, 7),
                                          twin.choice([1, 2, 3]))) + (
                    ALPHA * Fraction(twin.randrange(-3, 4)))
                got = g.random(rng)
                assert (got.znum, got.zden) == (want.znum, want.zden), seed
                assert Scalar(got.num, got.den) == got
            assert rng.getstate() == twin.getstate()

    def test_unknown_tag(self):
        with pytest.raises(ParseError):
            group_from_tag("F_2")

    def test_group_axioms_random(self):
        rng = random.Random(13)
        for g in [ZGroup(), ZmodGroup(6), QmodZGroup(), RAlphaGroup(),
                  group_from_tag("prod[Z,Z/3]")]:
            for _ in range(20):
                x = GroupElement(g, g.random(rng))
                y = GroupElement(g, g.random(rng))
                assert x + y == y + x
                assert (x - x).is_zero()
                assert 3 * x == x + x + x

    def test_mod_m_division(self):
        g = ZmodGroup(6)
        # 2y = 4 is solvable; 2y = 3 is not
        assert g.div_int(2, 4) is not None
        assert g.div_int(2, 3) is None

    def test_tag_mismatch(self):
        x = GroupElement(ZGroup(), 1)
        y = GroupElement(ZmodGroup(2), 1)
        with pytest.raises(TagError):
            x + y


class TestCoefficientSES:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_mod_m_exactness_samples(self, m):
        ses = ses_mod(m)
        rng = random.Random(m)
        for _ in range(30):
            a = rng.randrange(-20, 21)
            b = ses.injection(a)
            # injectivity via the declared preimage and exactness at B
            assert ses.injection_preimage(b) == a
            assert ses.surjection(b) == ses.c.zero()
            c = rng.randrange(m)
            # the lift is a set-theoretic section
            assert ses.surjection(ses.lift_fn(c)) == c

    def test_z_r_qmodz(self):
        ses = ses_z_r_qmodz()
        c = Fraction(2, 3)
        assert ses.surjection(ses.lift_fn(c)) == c
        assert ses.surjection(ses.injection(7)) == ses.c.zero()

    def test_parse_ses(self):
        assert parse_ses("Z:Z:Z/3").name == "Z:Z:Z/3"
        assert parse_ses("Z:R(alpha):Q/Z").name == "Z:R(alpha):Q/Z"
        with pytest.raises(ParseError):
            parse_ses("Z:Z")
        with pytest.raises(ParseError):
            parse_ses("Z/2:Z:Z/2")
