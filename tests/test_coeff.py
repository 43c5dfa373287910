"""Coefficient groups, Q(a) scalars, Smith normal form, and SES oracles."""

import random
from fractions import Fraction

import pytest

from diffcech.coeff import (
    ALPHA,
    GroupElement,
    IntSolver,
    QmodZGroup,
    RAlphaGroup,
    Scalar,
    ZGroup,
    ZmodGroup,
    _P_ONE,
    group_from_tag,
    integer_kernel_basis,
    mat_mul,
    mat_vec,
    parse_ses,
    ses_mod,
    ses_z_r_qmodz,
    smith_normal_form,
)
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


def _random_matrix(rng, rows, cols, bound=9):
    return [[rng.randrange(-bound, bound + 1) for _ in range(cols)]
            for _ in range(rows)]


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
        assert Scalar.of(5).is_integer()
        assert Scalar.of(Fraction(1, 2)).is_rational()
        assert not ALPHA.is_rational()
        with pytest.raises(ClassError):
            ALPHA.as_fraction()
        assert (ALPHA * 2 + 3).alpha_coefficients() == (3, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Scalar.of(1) / Scalar.of(0)


class TestSmithNormalForm:
    def test_known_diagonal(self):
        # oracle: gcd of entries is 2, |det| = 8, so the factors are 2 and 4
        M = [[2, 4], [6, 8]]
        D, U, V = smith_normal_form(M)
        assert [D[0][0], D[1][1]] == [2, 4]
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1

    def test_random_factorization(self):
        rng = random.Random(11)
        for _ in range(30):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            M = _random_matrix(rng, rows, cols)
            D, U, V = smith_normal_form(M)
            assert mat_mul(mat_mul(U, M), V) == D
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
            b = mat_vec(M, x0)
            sol = IntSolver(M).solve(b)
            assert sol is not None
            assert mat_vec(M, sol) == b

    def test_solver_detects_inconsistency(self):
        # 2x = 1 has no integer solution
        assert IntSolver([[2]]).solve([1]) is None

    def test_kernel_basis(self):
        rng = random.Random(7)
        for _ in range(25):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            M = _random_matrix(rng, rows, cols)
            for v in integer_kernel_basis(M):
                assert mat_vec(M, v) == [0] * rows
                assert any(v)

    def test_solve_group_mod_m(self):
        # 3x = 1 in Z/5 has the solution x = 2
        solver = IntSolver([[3]])
        sol = solver.solve_group([1], ZmodGroup(5))
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
            a = GroupElement(ses.a, rng.randrange(-20, 21))
            b = ses.inject(a)
            # injectivity via the declared preimage and exactness at B
            assert ses.preimage_a(b) == a
            assert ses.surject(b).is_zero()
            c = GroupElement(ses.c, rng.randrange(m))
            # the lift is a set-theoretic section
            assert ses.surject(ses.lift(c)) == c

    def test_z_r_qmodz(self):
        ses = ses_z_r_qmodz()
        c = GroupElement(ses.c, Fraction(2, 3))
        assert ses.surject(ses.lift(c)) == c
        assert ses.surject(ses.inject(GroupElement(ses.a, 7))).is_zero()

    def test_parse_ses(self):
        assert parse_ses("Z:Z:Z/3").name == "Z:Z:Z/3"
        assert parse_ses("Z:R(alpha):Q/Z").name == "Z:R(alpha):Q/Z"
        with pytest.raises(ParseError):
            parse_ses("Z:Z")
        with pytest.raises(ParseError):
            parse_ses("Z/2:Z:Z/2")
