"""Crossed homomorphisms and the group-cohomology dictionary."""

import random
from fractions import Fraction

import pytest

from diffcech import gallery, grpcoh, linalg
from diffcech.cech import (
    Cochain,
    classes_equal,
    coboundary,
    cohomology,
    crossed_relations,
    random_cochain,
    random_cocycle,
    zero_cochain,
)
from diffcech.coeff import ALPHA, ZERO, RAlphaGroup, Scalar
from diffcech.errors import CocycleError, FreenessError, TagError
from diffcech.funclass import AffineMap, act
from diffcech.presentation import Generator, GroupQuotient
from diffcech.grpcoh import (
    CrossedHom,
    cocycle_from_crossed,
    crossed_from_cocycle,
    h1_group,
)

from test_linalg import _nullspace, _rref_solve


R = RAlphaGroup()


def principal_crossed(pres, alpha):
    """kappa(k) = alpha.k - alpha: the crossed data of d(alpha)."""
    return CrossedHom(pres, {i: act(g.affine, alpha) - alpha
                             for i, g in enumerate(pres.generators)})


def _is_valid(kappa):
    """Generator compatibility and torsion consistency, symbolically."""
    return all(residual.is_zero() for _, residual
               in crossed_relations(kappa.pres, kappa.values))


def _itorus():
    return gallery.get_presentation("irrational-torus")


def _itorus_degree(d):
    gens = _itorus().generators
    return GroupQuotient(1, gens, True, d, f"irrational-torus-D{d}")


def _lattice2(order=(0, 1, 2, 3), d=1):
    shifts = [[1, 0], [0, 1], [ALPHA, 0], [0, ALPHA]]
    return GroupQuotient(
        2, [Generator(0, AffineMap.translation(shifts[i])) for i in order],
        True, d, "lattice2")


def _mixed():
    """A reflection of x0 (order 2) next to a unit translation of x1."""
    reflection = AffineMap([[-1, 0], [0, 1]], [0, 0])
    return GroupQuotient(
        2, [Generator(2, reflection), Generator(0, AffineMap.translation(
            [0, 1]))], False, 1, "mixed")


def _z4_rotation(d=1):
    rotation = AffineMap([[0, -1], [1, 0]], [0, 0])
    return GroupQuotient(2, [Generator(4, rotation)], False, d, "z4-rotation")


def _scaled_swap(b, torsion):
    """(x, y) |-> (2y + b, x/2): of order 2 when b = 0.  Its degree-2
    potentials cancel at top degree in xy and in x^2/4 + y^2, so the
    principal block mixes columns with a coefficient other than 1."""
    swap = AffineMap([[0, 2], [Fraction(1, 2), 0]], [b, 0])
    return GroupQuotient(2, [Generator(torsion, swap)], False, 1,
                         f"scaled-swap-{b}")


def _matrices_handed_on(pres, monkeypatch):
    """A and B as h1_group hands them to the field cohomology engine."""
    seen = []
    original = grpcoh._field_cohomology_from_matrices

    def spy(pres, k, group, A, B, *rest):
        seen.append((A, B))
        return original(pres, k, group, A, B, *rest)

    monkeypatch.setattr(grpcoh, "_field_cohomology_from_matrices", spy)
    h1_group(pres)
    (matrices,) = seen
    return matrices


def _unit_vector_relations(pres):
    """The crossed relations of h1_group, one column per wide monomial in
    each generator slot: the residuals of crossed_relations on that unit
    data, in wide coordinates; then a unit row per top-degree coordinate."""
    cls = pres.function_class()
    wide = cls.widen(1)
    dim, r = wide.dimension, pres.rank
    top = [t for t, e in enumerate(wide.basis) if sum(e) > cls.max_degree]
    rel_cols = []
    for i in range(r):
        for e in wide.basis:
            unit = {j: wide.monomial(e) if j == i else wide.zero()
                    for j in range(r)}
            rel_cols.append([x for _, res in crossed_relations(pres, unit)
                             for x in res.in_class(wide).coordinates()])
    A = [list(row) for row in zip(*rel_cols)]
    return A + [[int(u == i * dim + t) for u in range(r * dim)]
                for i in range(r) for t in top]


class TestCrossedHom:
    def test_crossed_law(self):
        # kappa(k + k') = kappa(k) + kappa(k').k on random pairs
        pres = _itorus()
        rng = random.Random(3)
        for _ in range(10):
            f = random_cocycle(pres, 1, RAlphaGroup(), rng)
            beta = crossed_from_cocycle(f)
            k1, k2 = pres.random_k(rng), pres.random_k(rng)
            lhs = beta.value(pres.k_add(k1, k2))
            rhs = beta.value(k1) + act(pres.affine_of(k1), beta.value(k2))
            assert lhs == rhs

    def test_value_at_large_k(self):
        # kappa(m + n*a) = n*a, evaluated in O(log |k|) steps
        from diffcech.coeff import ALPHA
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        assert kappa.q_value(((10**6, -10**6),)).terms == {(0,): ALPHA * -10**6}
        assert kappa.q_value(((300, 300),)).terms == {(0,): ALPHA * 300}

    def test_crossed_sum_agrees_with_term_by_term_sum(self):
        # S(n) = sum_{j<n} val.g^j against the plain loop, both signs
        from diffcech.cech import _crossed_single
        pres = _itorus()
        val = pres.function_class().parse("x0^2 - a*x0 + 1")
        for i in range(pres.rank):
            unit = tuple(int(j == i) for j in range(pres.rank))
            plain = pres.function_class().zero()
            for n in range(1, 12):
                plain = plain + act(pres.affine_of(
                    tuple((n - 1) * u for u in unit)), val)
                assert _crossed_single(pres, val, i, n) == plain
                back = -act(pres.affine_of(tuple(-n * u for u in unit)),
                            plain)
                assert _crossed_single(pres, val, i, -n) == back

    def test_validity_detects_torsion_violation(self):
        z2 = gallery.get_presentation("z2-reflection")
        cls = z2.function_class()
        # kappa(g) = 1 is not crossed: kappa(g) + kappa(g).g = 2 != 0
        bad = CrossedHom(z2, {0: cls.parse("1")})
        assert not _is_valid(bad)
        good = CrossedHom(z2, {0: cls.parse("x0")})
        assert _is_valid(good)

    def test_principal_is_valid(self):
        pres = _itorus()
        rng = random.Random(5)
        alpha = pres.function_class().random(rng)
        assert _is_valid(principal_crossed(pres, alpha))

    def test_principal_matches_coboundary(self):
        pres = _itorus()
        rng = random.Random(7)
        alpha = pres.function_class().random(rng)
        dh = coboundary(Cochain.function(pres, alpha))
        assert crossed_from_cocycle(dh) == principal_crossed(pres, alpha)


class TestDictionary:
    def test_round_trip_infinite(self):
        pres = _itorus()
        rng = random.Random(11)
        for _ in range(10):
            f = random_cocycle(pres, 1, RAlphaGroup(), rng,
                               distinguished=[gallery.get(
                                   "irrational-torus").cocycles["kappa"]])
            beta = crossed_from_cocycle(f)
            f2 = cocycle_from_crossed(beta)
            for _ in range(3):
                k = pres.random_k(rng)
                assert f2.q_value((k,)) == f.q_value((k,))

    def test_round_trip_finite_free(self):
        crz = gallery.get_presentation("circle-rz")
        rng = random.Random(13)
        f = random_cocycle(crz, 1, RAlphaGroup(), rng)
        beta = crossed_from_cocycle(f)
        f2 = cocycle_from_crossed(beta)
        k = crz.random_k(rng)
        assert f2.q_value((k,)) == f.q_value((k,))

    def test_freeness_required(self):
        z2 = gallery.get_presentation("z2-reflection")
        beta = CrossedHom(z2, {0: z2.function_class().parse("x0")})
        with pytest.raises(FreenessError):
            cocycle_from_crossed(beta)

    def test_serialization(self):
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        beta = crossed_from_cocycle(kappa)
        doc = beta.to_dict()
        assert set(doc["values"]) == {"g1", "g2"}
        assert doc["values"]["g1"] == "0"


class TestH1Group:
    def test_agrees_with_cech_on_irrational_torus(self):
        pres = _itorus()
        rep_g = h1_group(pres)
        rep_c = cohomology(pres, RAlphaGroup(), 1)
        assert rep_g.dimension == rep_c.dimension == 1
        kappa = gallery.get("irrational-torus").cocycles["kappa"]
        assert not rep_g.is_zero_class(kappa)
        assert not rep_c.is_zero_class(kappa)
        rng = random.Random(17)
        db = coboundary(random_cochain(pres, 0, RAlphaGroup(), rng))
        assert rep_g.is_zero_class(db)
        assert rep_c.is_zero_class(db)

    def test_circle_as_r_mod_z(self):
        crz = gallery.get_presentation("circle-rz")
        assert h1_group(crz).dimension == 0
        assert cohomology(crz, RAlphaGroup(), 1).dimension == 0

    @pytest.mark.parametrize("pres", [
        *(_itorus_degree(d) for d in (1, 2, 3)), _lattice2(),
        gallery.get_presentation("circle-rz"), _mixed(),
        gallery.get_presentation("z2-reflection"), _z4_rotation()],
        ids=["irrational-torus-D1", "irrational-torus-D2",
             "irrational-torus-D3", "lattice2", "circle-rz", "mixed",
             "z2-reflection", "z4-rotation"])
    def test_zero_class_is_a_witness(self, pres):
        # on an infinite K, cohomology(pres, R, 1) is h1_group itself; the
        # witness search of classes_equal solves d(alpha) = c on the
        # generator rows of the widened class and reads no crossed relation
        # and no top-degree cancellation (the rows themselves are checked
        # against two routes in test_cech)
        rep = h1_group(pres)
        zero = zero_cochain(pres, 1, R)
        rng = random.Random(19)
        cocycles = rep.representatives + [
            coboundary(random_cochain(pres, 0, R, rng)) for _ in range(3)]
        cocycles += [random_cocycle(pres, 1, R, rng, rep.representatives)
                     for _ in range(4)]
        for c in cocycles:
            assert rep.is_zero_class(c) == classes_equal(c, zero).equal

    @pytest.mark.parametrize("pres", [
        *(gallery.get_presentation(name) for name in
          ("circle-rz", "irrational-torus", "line", "z2-reflection")),
        _itorus_degree(2), _lattice2(), _mixed(), _z4_rotation(),
        _scaled_swap(0, 2), _scaled_swap(1, 0)],
        ids=["circle-rz", "irrational-torus", "line", "z2-reflection",
             "irrational-torus-D2", "lattice2", "mixed", "z4-rotation",
             "scaled-swap", "scaled-swap-shifted"])
    def test_principal_block_is_the_principal_crossed_route(
            self, pres, monkeypatch):
        # B, as h1_group hands it on, against the principal crossed data of
        # each wide monomial combined by the top-degree cancellations
        _, B = _matrices_handed_on(pres, monkeypatch)
        cls = pres.function_class()
        wide = cls.widen(1)
        dim, r = wide.dimension, pres.rank
        top = [t for t, e in enumerate(wide.basis) if sum(e) > cls.max_degree]
        cols = [[x for i in range(r) for x in principal_crossed(
                     pres, wide.monomial(e)).values[i]
                 .in_class(wide).coordinates()]
                for e in wide.basis]
        combos, _ = _nullspace([[col[i * dim + t] for col in cols]
                               for i in range(r) for t in top])
        want = [[sum((col[u] * c for col, c in zip(cols, combo) if c), ZERO)
                 for combo in combos] for u in range(r * dim)]
        assert B == want

    @pytest.mark.parametrize("pres", [
        *(gallery.get_presentation(name) for name in
          ("circle-rz", "irrational-torus", "line", "z2-reflection")),
        _itorus_degree(2), _lattice2(), _lattice2((2, 0, 3, 1)), _mixed(),
        _z4_rotation(), _scaled_swap(0, 2), _scaled_swap(1, 0)],
        ids=["circle-rz", "irrational-torus", "line", "z2-reflection",
             "irrational-torus-D2", "lattice2", "lattice2-reordered", "mixed",
             "z4-rotation", "scaled-swap", "scaled-swap-shifted"])
    def test_relation_rows_are_the_unit_vector_route(self, pres, monkeypatch):
        # A, read off the generator rows, against the residuals of
        # crossed_relations on unit data: entry by entry, row by row
        A, _ = _matrices_handed_on(pres, monkeypatch)
        assert A == _unit_vector_relations(pres)

    def test_representative_is_a_cocycle(self):
        rep = h1_group(_itorus())
        from diffcech.cech import is_cocycle
        assert all(bool(is_cocycle(r)) for r in rep.representatives)


GALLERY_QUOTIENTS = [
    name for name in gallery.names()
    if gallery.get(name).kind == "presentation"
    and gallery.get_presentation(name).kind == "quotient"
]
FIELD_CASES = [
    *(pytest.param(gallery.get_presentation(name), id=name)
      for name in GALLERY_QUOTIENTS),
    *(pytest.param(_z4_rotation(d), id=f"z4-rotation-D{d}") for d in (1, 2)),
    *(pytest.param(_lattice2(order, d),
                   id=f"lattice2-{''.join(map(str, order))}-D{d}")
      for order in ((0, 1, 2, 3), (2, 0, 3, 1)) for d in (1, 2)),
    *(pytest.param(_itorus_degree(d), id=f"irrational-torus-D{d}")
      for d in range(1, 9)),
]


def _engine_inputs(pres, k, monkeypatch):
    """H^0, or h1_group in degree 1, with the arguments that it handed to
    the field cohomology engine: (pres, k, group, A, B, to_vector,
    from_vector, note)."""
    seen = []
    original = grpcoh._field_cohomology_from_matrices

    def spy(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(grpcoh, "_field_cohomology_from_matrices", spy)
    rep = h1_group(pres) if k else cohomology(pres, R, 0)
    (args,) = seen
    return rep, args


def _greedy_route(A, B):
    """ker A / im B chosen on whole vectors: the kernel vectors that are
    pivots of rref([B | kernel]), which leave the span of B and of the
    kernel vectors before them; and class coordinates that solve
    [B | chosen] for the whole vector through its full rref, None when it
    is off that span."""
    kernel, _ = _nullspace(A)
    width = len(B[0]) if B else 0

    def beside_B(vectors):
        return [row + [v[i] for v in vectors] for i, row in enumerate(B)]

    pivots = linalg.rref(beside_B(kernel))[1] if kernel else []
    chosen = [kernel[p - width] for p in pivots if p >= width]
    B_chosen = beside_B(chosen)

    def coordinates(vec):
        x = _rref_solve(B_chosen, vec)
        return None if x is None else tuple(x[width:])

    return chosen, coordinates


class TestFreeCoordinateChoice:
    """The field engine picks its representatives in the kernel's free
    coordinates; the greedy choice on whole vectors is the other route."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("pres", FIELD_CASES)
    def test_same_representatives_and_coordinates(self, pres, k,
                                                  monkeypatch):
        rep, (_, _, _, A, B, to_vector, from_vector, _) = _engine_inputs(
            pres, k, monkeypatch)
        chosen, coordinates = _greedy_route(A, B)
        assert [to_vector(r) for r in rep.representatives] == chosen
        assert ([r.to_dict() for r in rep.representatives]
                == [from_vector(v).to_dict() for v in chosen])
        rng = random.Random(f"free-coordinates:{pres.name}:{k}")
        third = (ALPHA + 1) / 3

        def generic():
            return (Scalar.of(rng.randrange(-4, 5))
                    + ALPHA * rng.randrange(-4, 5)) * third

        width = len(B[0]) if B else 0
        for _ in range(5):
            xs = tuple(generic() for _ in chosen)
            ys = [generic() for _ in range(width)]
            vec = [sum((b * y for b, y in zip(row, ys)), ZERO)
                   + sum((x * v[u] for x, v in zip(xs, chosen)), ZERO)
                   for u, row in enumerate(B)]
            c = from_vector(vec)
            assert rep.class_coordinates(c) == coordinates(to_vector(c)) == xs
        # off the cocycles: a multiple of a unit vector that A does not
        # kill (with no generator, A kills every vector in degree 0)
        moved = [j for j in range(len(vec)) if any(row[j] for row in A)]
        assert moved or not pres.generators
        for j in moved[:1] + moved[-1:]:
            c = from_vector([x + third * (u == j) for u, x in enumerate(vec)])
            assert coordinates(to_vector(c)) is None
            with pytest.raises(CocycleError):
                rep.class_coordinates(c)
        other = _itorus_degree(9) if pres.name != "line" else _lattice2()
        for foreign in (zero_cochain(other, k, R),
                        zero_cochain(pres, 1 - k, R)):
            with pytest.raises(TagError):
                rep.class_coordinates(foreign)

    @pytest.mark.parametrize("pres", FIELD_CASES)
    def test_row_reductions(self, pres, monkeypatch):
        # H^0 runs one forward pass, on the generator rows, in its kernel
        # call; H^1 runs three, on the top-degree rows and A in its two
        # kernel calls and then on B restricted to the free coordinates,
        # transposed (with no generator, H^1 has no row to reduce).  No full
        # rref runs, and the back solve on A (the generator rows for H^0)
        # builds one kernel vector per representative, at the free column
        # where it ends
        forward, back, rrefs = [], [], []
        original = linalg._forward, linalg._back, linalg.rref

        def counting_forward(M):
            out = original[0](M)
            forward.append(((len(M), len(M[0]) if M else 0), out[1]))
            return out

        def counting_back(pivots, done, cols):
            back.append((done, list(cols)))
            return original[1](pivots, done, cols)

        def counting_rref(M):
            rrefs.append(M)
            return original[2](M)

        def ends(rep, to_vector):
            return [max(j for j, x in enumerate(to_vector(r)) if x)
                    for r in rep.representatives]

        rep0, (_, _, _, _, _, to_vector0, _, _) = _engine_inputs(
            pres, 0, monkeypatch)
        rep1, (_, _, _, A, B, to_vector1, _, _) = _engine_inputs(
            pres, 1, monkeypatch)
        free = len(A[0]) - len(original[2](A)[1]) if A else 0
        monkeypatch.setattr(linalg, "_forward", counting_forward)
        monkeypatch.setattr(linalg, "_back", counting_back)
        monkeypatch.setattr(linalg, "rref", counting_rref)
        rep = cohomology(pres, R, 0)
        assert len(forward) == 1
        assert back == [(forward[0][1], ends(rep0, to_vector0))]
        assert len(rep.representatives) == len(rep0.representatives)
        forward.clear()
        back.clear()
        h1_group(pres)
        if pres.generators:
            assert len(forward) == 3 and forward[2][0] == (len(B[0]), free)
            on_A = [cols for done, cols in back if done is forward[1][1]]
            assert on_A == [ends(rep1, to_vector1)]
            assert all(done is forward[0][1] for done, _ in back
                       if done is not forward[1][1])
        else:
            assert not forward and not any(cols for _, cols in back)
        assert not rrefs
        # a function that K moves is refused before any reduction
        forward.clear()
        cls = pres.function_class()
        for h in map(cls.monomial, cls.basis):
            if any(act(g.affine, h) != h for g in pres.generators):
                with pytest.raises(CocycleError):
                    rep0.class_coordinates(Cochain.function(pres, h))
        assert not forward
        for r in rep0.representatives:
            assert rep0.class_coordinates(r) == tuple(
                int(s is r) for s in rep0.representatives)
