"""The nerve engine on the complex left by its unit pivots, against the
engines it replaced.

`_unreduced_cohomology` is the engine that factored the full boundary
matrices, kept here as the oracle, as `_dense_snf` is kept for the sparse
SNF: the same presented group, read off the SNF of d_k and of the relations
of its kernel, with no reduction.  `_reduced_cohomology` is the `Reduction`
engine run on the complex as given, in degree 0 and with repeats allowed,
which the components and the alternating twin replaced.  `_full_solve` is
the class comparison by the SNF of the full d_(k-1), which the degree-k
`Reduction` replaced.  Two engines must report the same group, their
generators must be cocycles, and each must read the other's generators as a
basis: the two coordinate matrices are inverse to each other modulo the
torsion orders.  Two comparisons must decide alike, and each witness alpha
must satisfy d(alpha) = f2 - f1.
"""

import math
import random
from itertools import combinations

import pytest

from diffcech import cech, gallery, linalg, presentation, reduce
from diffcech.cech import (
    CohomologyReport,
    _nerve_from_vector,
    boundary_matrix,
    classes_equal,
    coboundary,
    cohomology,
    h0_global_sections,
    is_cocycle,
    random_cochain,
    random_cocycle,
    zero_cochain,
)
from diffcech.coeff import _snf, group_from_tag, sparse_apply, sparse_mix
from diffcech.errors import CocycleError, DegreeError, TagError
from diffcech.presentation import FiniteNerve

from test_cech import GALLERY_NERVES, _torus_nerve

TAGS = ["Z", "Z/2", "Z/3", "Z/4", "R(alpha)"]


def _unreduced_cohomology(pres, k, group):
    """H^k from the SNFs of the full d_k and of its kernel's relations."""
    n = len(pres.tuples(k))
    S = _snf(boundary_matrix(pres, k), n, want_u=False, want_vinv=True)
    r = S.rank
    B = boundary_matrix(pres, k - 1) if k else [{}] * n
    width = len(pres.tuples(k - 1)) if k else 0
    m = getattr(group, "m", 0)
    field = group.tag == "R(alpha)"
    if not m:
        gens, scale = S.kernel(), [1] * (n - r)
        rel = [sparse_mix(row, B) for row in S.Vinv[r:]]

        def to_gens(z):
            if any(z[:r]):
                raise CocycleError("class oracle applied to a non-cocycle")
            return z[r:]
    else:
        gens = S.V
        scale = [m // math.gcd(d, m) for d in S.diag + [0] * (n - r)]
        rel = [{width + i: m // s} for i, s in enumerate(scale)]
        for i in range(r, n):
            rel[i] = {**sparse_mix(S.Vinv[i], B), width + i: m // scale[i]}

        def to_gens(z):
            z = [x % m for x in z]
            if any(x % sj for x, sj in zip(z, scale)):
                raise CocycleError("class oracle applied to a non-cocycle")
            return [x // sj for x, sj in zip(z, scale)]

    q = len(gens)
    R = _snf(rel, width + (n if m else 0), want_v=False, want_uinv=True)
    rR, eR = R.rank, R.diag
    torsion = [] if field else [i for i in range(rR) if eR[i] > 1]
    out_idx = torsion + list(range(rR, q))
    mods = [eR[i] for i in torsion] + [0] * (q - rR)
    U_out = [R.U[i] for i in out_idx]

    def coords(z):
        return sparse_apply(U_out, to_gens(sparse_apply(S.Vinv, z)))

    def oracle(c):
        vec = [c.payload[t] for t in pres.tuples(k)]
        w = linalg.apply_integer_map(coords, vec) if field else coords(vec)
        return tuple(x % e if e else x for x, e in zip(w, mods))

    reps = [_nerve_from_vector(pres, k, group, sparse_mix(
        {j: scale[j] * x for j, x in R.Uinv[i].items()}, gens))
        for i in out_idx]
    return CohomologyReport(pres, k, group, free_rank=q - rR,
                            invariant_factors=mods[:len(torsion)],
                            representatives=reps, oracle=oracle)


def _reduced_cohomology(pres, k, group):
    """H^k from the `Reduction` of d_{k-1} and d_k of the complex as given:
    in degree 0 d_{-1} is the map from the zero group, n empty rows, and a
    repeats-allowed nerve is reduced as its whole ordered complex."""
    n = len(pres.tuples(k))
    red = reduce.Reduction(boundary_matrix(pres, k - 1) if k else [{}] * n,
                           len(pres.tuples(k - 1)) if k else 0,
                           boundary_matrix(pres, k), n)
    field = group.tag == "R(alpha)"
    free, factors, reps, coords = red.cohomology(
        lambda: boundary_matrix(pres, k), getattr(group, "m", 0), field)

    def oracle(c):
        vec = [c.payload[t] for t in pres.tuples(k)]
        return tuple(linalg.apply_integer_map(coords, vec) if field
                     else coords(vec))

    return CohomologyReport(
        pres, k, group, free_rank=free, invariant_factors=factors,
        representatives=[_nerve_from_vector(pres, k, group, z) for z in reps],
        oracle=oracle)


def _full_solve(f1, f2):
    """A (k-1)-cochain alpha with d(alpha) = f2 - f1, from the SNF of the
    full d_{k-1} with U and V, or None."""
    pres, k, group = f1.pres, f1.degree, f1.group
    diff = f2 - f1
    sol = _snf(boundary_matrix(pres, k - 1), len(pres.tuples(k - 1))
               ).solve_group([diff.payload[t] for t in pres.tuples(k)], group)
    return (None if sol is None
            else _nerve_from_vector(pres, k - 1, group, dict(enumerate(sol))))


def _rp2_subdivision_edges():
    """Edges of the barycentric subdivision of the 6-vertex RP^2, a flag
    complex: its vertices are the faces, joined when one contains the other."""
    faces = sorted({frozenset(c) for f in gallery._RP2_FACETS
                    for s in (1, 2, 3) for c in combinations(f, s)},
                   key=lambda f: (len(f), sorted(f)))
    return len(faces), {(i, j) for i, j in combinations(range(len(faces)), 2)
                        if faces[i] < faces[j]}


def _flag_complex(nverts, edges, k_max=3, name=None):
    """The clique complex of a graph, up to (k_max + 1)-cliques."""
    nbrs = [set() for _ in range(nverts)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    cliques = []

    def grow(clique, cands):
        cliques.append(clique)
        if len(clique) <= k_max:
            for v in sorted(cands):
                if v > clique[-1]:
                    grow(clique + (v,), cands & nbrs[v])

    for v in range(nverts):
        grow((v,), nbrs[v])
    return FiniteNerve.from_facets(nverts, cliques, k_max, name=name)


def _random_flag(seed):
    """A seeded flag complex: every fourth one a subdivided RP^2 with a few
    edges added (or, every eighth, also removed), so some keep its Z/2; the
    others the clique complex of a random graph on 6-11 vertices."""
    rng = random.Random(f"flag:{seed}")
    if seed % 4 == 0:
        n, edges = _rp2_subdivision_edges()
        pairs = sorted(set(combinations(range(n), 2)) - edges)
        edges |= set(rng.sample(pairs, rng.randrange(3)))
        if seed % 8 == 0:
            edges -= set(rng.sample(sorted(edges), 2))
    else:
        n, p = rng.randrange(6, 12), rng.choice([0.3, 0.45, 0.6])
        edges = {e for e in combinations(range(n), 2) if rng.random() < p}
    return _flag_complex(n, edges, name=f"flag{seed}")


def _disconnected(seed, alternating=True):
    """A seeded disjoint union of two or three flag complexes and up to two
    isolated charts, its charts shuffled, k_max = 3."""
    rng = random.Random(f"disconnected:{seed}")
    facets, n = [], 0
    for _ in range(rng.randrange(2, 4)):
        piece = _random_flag(rng.randrange(1, 40))
        facets += [[n + i for i in f] for f in piece.faces]
        n += len(piece.charts)
    n += rng.randrange(3)
    label = list(range(n))
    rng.shuffle(label)
    return FiniteNerve.from_facets(n, [[label[i] for i in f] for f in facets],
                                   3, alternating, name=f"disconnected{seed}")


def _combine(coeffs, vectors, mods):
    out = [sum(c * v[i] for c, v in zip(coeffs, vectors))
           for i in range(len(mods))]
    return [x % e if e else x for x, e in zip(out, mods)]


def _check_against_unreduced(pres, k, tag, rng):
    group = group_from_tag(tag)
    _check_routes(cohomology(pres, group, k),
                  _unreduced_cohomology(pres, k, group), rng)


def _check_routes(new, old, rng):
    """Equal groups; the generators of each report are cocycles, and a basis
    for the other's oracle, which reads seeded cocycles alike."""
    pres, k, group = new.pres, new.degree, new.group
    assert new.group_description() == old.group_description()
    assert (new.free_rank, new.invariant_factors, new.dimension) == (
        old.free_rank, old.invariant_factors, old.dimension)
    assert all(is_cocycle(c) for c in new.representatives)
    mods = old.invariant_factors + [0] * (len(old.representatives)
                                          - len(old.invariant_factors))
    # P: the new generators in old coordinates, Q the old ones in new
    P = [old.class_coordinates(c) for c in new.representatives]
    Q = [new.class_coordinates(c) for c in old.representatives]
    units = [[int(i == j) for i in range(len(mods))] for j in range(len(mods))]
    assert [_combine(q, P, mods) for q in Q] == units
    assert [_combine(p, Q, mods) for p in P] == units
    for _ in range(2):
        c = random_cocycle(pres, k, group, rng, new.representatives
                           + old.representatives)
        a, b = old.class_coordinates(c), new.class_coordinates(c)
        assert list(a) == _combine(b, P, mods)
        assert list(b) == _combine(a, Q, mods)


def _cases():
    for name in GALLERY_NERVES:
        pres = gallery.get_presentation(name)
        yield pytest.param(pres, TAGS, id=name)
        yield pytest.param(gallery.full_variant(pres), ["Z", "Z/2"],
                           id=f"{name}-full")
    for n in range(4, 9):
        yield pytest.param(_torus_nerve(n, True), TAGS, id=f"torus{n}")
    for n in range(4, 9):
        yield pytest.param(_torus_nerve(n, False), ["Z", "Z/2"],
                           id=f"torus{n}-full")


@pytest.mark.parametrize("pres,tags", list(_cases()))
def test_matches_the_unreduced_engine(pres, tags):
    rng = random.Random(f"reduce:{pres.name}:{pres.alternating}")
    for k in range(pres.k_max):
        for tag in tags:
            _check_against_unreduced(pres, k, tag, rng)


def test_random_flag_complexes_match_the_unreduced_engine():
    torsion = 0
    for seed in range(40):
        pres = _random_flag(seed)
        rng = random.Random(seed)
        for k in range(pres.k_max):
            for tag in ("Z", TAGS[1 + seed % 4]):
                _check_against_unreduced(pres, k, tag, rng)
            torsion += bool(cohomology(pres, group_from_tag("Z"),
                                       k).invariant_factors)
    assert torsion >= 4


def test_snf_sides_are_the_critical_cells(monkeypatch):
    # in degree k >= 1 the first SNF sees the leftover of d_k, critical
    # (k+1)-cells by critical k-cells; the relations have one row per
    # critical k-cell at most, and a column per critical (k-1)-cell (and one
    # per k-cell mod m); the critical cells are at most the cells (of the
    # alternating twin, with repeats allowed, which are fewer), and in no
    # row of the leftover of d_k and no column of that of d_{k-1} is every
    # entry zero.  H^0 reads the components: no reduction and no SNF
    shapes = []
    monkeypatch.setattr(reduce, "_snf", lambda M, n, **kw: shapes.append(
        (len(M), n)) or _snf(M, n, **kw))
    built = []
    monkeypatch.setattr(cech, "Reduction", lambda *args: built.append(
        reduce.Reduction(*args)) or built[-1])
    cases = [_torus_nerve(n, alt) for n in (4, 6) for alt in (True, False)]
    cases += [gallery.get_presentation(name) for name in GALLERY_NERVES]
    cases += [_random_flag(seed) for seed in range(8)]
    for pres in cases:
        for k in range(pres.k_max):
            for tag in ("Z", "Z/4", "R(alpha)"):
                del shapes[:], built[:]
                cohomology(pres, group_from_tag(tag), k)
                if not k:
                    assert built == shapes == []
                    continue
                red = built[0]
                prev, cur, nxt = map(len, red.cells)
                assert all(a <= len(pres.tuples(j)) for a, j in zip(
                    (prev, cur, nxt), (k - 1, k, k + 1)))
                assert all(red.B) and len(red.B) == nxt
                assert {j for row in red.A for j in row} == set(range(prev))
                m = tag == "Z/4"
                assert shapes[0] == (nxt, cur)
                assert shapes[1][0] <= cur
                assert shapes[1][1] == prev + (cur if m else 0)


@pytest.mark.parametrize("n", [4, 7, 16])
def test_torus_reduces_to_its_betti_numbers(n):
    # the triangulated torus keeps two critical 1-cells, one per Betti
    # number, and no other cell meets them: its SNFs see a 0 x 2 matrix and
    # two relations on no columns
    pres = _torus_nerve(n, True)
    red = reduce.Reduction(boundary_matrix(pres, 0), n * n,
                           boundary_matrix(pres, 1), 3 * n * n)
    assert [len(ids) for ids in red.cells] == [0, 2, 0]
    assert red.A == [{}, {}] and red.B == []


def test_non_cocycles_are_refused_on_the_full_complex():
    # a cochain that the projection would send to a critical cocycle (one
    # paired k-cell) is still refused
    pres = gallery.get_presentation("torus9")
    for tag in TAGS:
        group = group_from_tag(tag)
        rep = cohomology(pres, group, 1)
        for t in pres.tuples(1):
            c = _nerve_from_vector(pres, 1, group, {pres.index(1)[t]: 1})
            if not is_cocycle(c):
                with pytest.raises(CocycleError):
                    rep.class_coordinates(c)


def _projective_planes(copies):
    """Copies of the 6-vertex RP^2 glued along the loop 0-1-3 (not a face):
    H^1 keeps one critical edge and a critical triangle per copy."""
    facets = []
    for c in range(copies):
        label = {0: 0, 1: 1, 3: 2, 2: 3 * c + 3, 4: 3 * c + 4, 5: 3 * c + 5}
        facets += [tuple(label[v] for v in f) for f in gallery._RP2_FACETS]
    return FiniteNerve.from_facets(3 * copies + 3, facets, 2)


def test_limits_are_inclusive(monkeypatch):
    # with a side limit of 13 the SNF may see 13 critical triangles but not
    # 14, and 2 generators of 75 values (torus5) but not of 147 (torus7)
    monkeypatch.setattr(cech, "MAX_MATRIX_SIDE", 13)
    Z = group_from_tag("Z")
    assert cohomology(_projective_planes(13), Z, 1).group_description() == "0"
    with pytest.raises(DegreeError, match="0 x 1 x 14; a side exceeds the "
                                          "limit of 13"):
        cohomology(_projective_planes(14), Z, 1)
    assert cohomology(_torus_nerve(5, True), Z, 1).free_rank == 2
    with pytest.raises(DegreeError, match="2 critical 1-cells by 147 1-cells "
                                          "exceed the limit of 169"):
        cohomology(_torus_nerve(7, True), Z, 1)


def _det(M):
    """The determinant of a square integer matrix, by Laplace expansion."""
    if not M:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j, x in enumerate(M[0]))


@pytest.mark.parametrize("name,k,tag", [
    ("torus9", 1, "R(alpha)"), ("torus9", 1, "Z/3"), ("torus9", 1, "Z/6"),
    ("torus9", 1, "Z"), ("torus9", 2, "R(alpha)"), ("torus9", 2, "Z"),
    ("rp2", 1, "Z/2"), ("rp2", 2, "Z"), ("rp2", 2, "Z/2"), ("rp2", 2, "Z/4"),
    ("torus9-full", 1, "Z"), ("circle3", 1, "R(alpha)"), ("circle6", 1, "Z")])
def test_golden_generators_are_a_basis_for_the_unreduced_oracle(name, k, tag):
    # the generators that the CLI and coordinate goldens print: the
    # unreduced oracle maps them to a matrix that is invertible modulo the
    # one torsion order of each group (over Z and R(alpha), determinant +-1)
    pres = (gallery.full_variant(gallery.get_presentation("torus9"))
            if name == "torus9-full" else gallery.get_presentation(name))
    group = group_from_tag(tag)
    new = cohomology(pres, group, k)
    old = _unreduced_cohomology(pres, k, group)
    P = [[int(str(x)) for x in old.class_coordinates(c)]
         for c in new.representatives]
    (order,) = set(old.invariant_factors) or {0}
    assert math.gcd(_det(P), order) == 1 if order else abs(_det(P)) == 1, P


def _route_cases():
    """Every gallery nerve, the 4x4-8x8 tori, the 40 seeded flag complexes
    and 8 seeded disconnected nerves, each alternating and with repeats
    allowed ("-full")."""
    for name in GALLERY_NERVES:
        pres = gallery.get_presentation(name)
        yield pytest.param(pres, id=name)
        yield pytest.param(gallery.full_variant(pres), id=f"{name}-full")
    for n in range(4, 9):
        yield pytest.param(_torus_nerve(n, True), id=f"torus{n}")
        yield pytest.param(_torus_nerve(n, False), id=f"torus{n}-full")
    for seed in range(40):
        pres = _random_flag(seed)
        yield pytest.param(pres, id=pres.name)
        yield pytest.param(gallery.full_variant(pres), id=f"{pres.name}-full")
    for seed in range(8):
        yield pytest.param(_disconnected(seed), id=f"disconnected{seed}")
        yield pytest.param(_disconnected(seed, False),
                           id=f"disconnected{seed}-full")


ROUTE_CASES = list(_route_cases())


@pytest.mark.parametrize("pres", ROUTE_CASES)
def test_h0_is_the_d0_reduction(pres):
    # H^0 reads the components; the oracle reduces d_0.  The global
    # sections are the same report with its note
    rng = random.Random(f"h0:{pres.name}:{pres.alternating}")
    for tag in TAGS:
        group = group_from_tag(tag)
        new = cohomology(pres, group, 0)
        _check_routes(new, _reduced_cohomology(pres, 0, group), rng)
        sec = h0_global_sections(pres, group)
        assert sec.to_dict() == {**new.to_dict(),
                                 "note": f"{len(pres.components())} "
                                         f"component(s)"}
        for c in new.representatives:
            assert sec.class_coordinates(c) == new.class_coordinates(c)


@pytest.mark.parametrize("pres", [c for c in ROUTE_CASES
                                  if not c.values[0].alternating])
def test_repeats_allowed_is_the_ordered_complex(pres):
    # a repeats-allowed nerve is computed on its alternating twin; the
    # oracle reduces the whole ordered complex.  The representatives are
    # cocycles of the ordered complex that vanish on tuples with repeats
    # and change sign with every swap; a cochain whose restriction to
    # increasing tuples is a cocycle, but which is none itself, is refused
    rng = random.Random(f"full:{pres.name}")
    tags = TAGS if len(pres.charts) <= 9 else ["Z", "Z/2"]
    for k in range(1, pres.k_max):
        for tag in tags:
            group = group_from_tag(tag)
            new = cohomology(pres, group, k)
            _check_routes(new, _reduced_cohomology(pres, k, group), rng)
            for r in new.representatives:
                for t in pres.tuples(k):
                    sign, s = cech._sort_parity(t)
                    want = r.payload[s] if sign else group.zero()
                    assert r.payload[t] == (want if sign >= 0
                                            else group.neg(want)), t
            zero = zero_cochain(pres, k, group).payload
            units = (cech.Cochain.nerve(pres, k, group, {
                **zero, t: group.canonical(1)}) for t in pres.tuples(k)
                if len(set(t)) < len(t))
            bad = next((c for c in units if not is_cocycle(c)), None)
            assert bad is not None or len(pres.charts) == 1
            if bad is not None:
                with pytest.raises(CocycleError):
                    new.class_coordinates(bad)


def _comparison_pairs(pres, k, group, rng):
    """(f1, f2, equal) for degree-k cocycles f1 and f2 = f1 + move + a
    coboundary, where the move is zero (equal), or a generator of H^k
    (distinct), or the generator times its order (equal) or, for a free
    one, times 2 or -1 (distinct).  At the top degree every cochain counts
    as a cocycle, the move is a random cochain and equal is None."""
    if k == pres.k_max:
        f1 = random_cochain(pres, k, group, rng)
        moves = [(random_cochain(pres, k, group, rng), None)]
    else:
        rep = cohomology(pres, group, k)
        f1 = random_cocycle(pres, k, group, rng, rep.representatives)
        orders = rep.invariant_factors + [0] * (len(rep.representatives)
                                                - len(rep.invariant_factors))
        moves = [(r.scale_int(m), bool(order))
                 for r, order in zip(rep.representatives, orders)
                 for m in (order or rng.choice([2, -1]),)]
        moves += [(r, False) for r in rep.representatives]
    for move, equal in [(zero_cochain(pres, k, group), True)] + moves:
        yield f1, f1 + move + coboundary(
            random_cochain(pres, k - 1, group, rng)), equal


@pytest.mark.parametrize("pres", ROUTE_CASES)
def test_class_comparison_is_the_full_solve(pres):
    # classes_equal solves through the degree-k Reduction; the oracle
    # factors the full d_{k-1}.  Up to the top degree of the gallery
    # nerves, and up to degree 2 elsewhere
    rng = random.Random(f"compare:{pres.name}:{pres.alternating}")
    gallery_nerve = (pres.name or "").removesuffix("-full") in GALLERY_NERVES
    top = pres.k_max if gallery_nerve and pres.alternating else 2
    for k in range(1, top + 1):
        for tag in TAGS if gallery_nerve else ["Z", TAGS[1 + k % 4]]:
            group = group_from_tag(tag)
            for f1, f2, equal in _comparison_pairs(pres, k, group, rng):
                res, old = classes_equal(f1, f2), _full_solve(f1, f2)
                assert res.equal == (old is not None), (k, tag)
                assert equal in (None, res.equal), (k, tag)
                for alpha in (res.witness, old):
                    if alpha is not None:
                        assert (coboundary(alpha) - (f2 - f1)).is_zero()


def test_projective_plane_torsion_is_decided_alike():
    # H^2(RP^2; Z) = Z/2 and H^1, H^2 over Z/2: a generator is not zero,
    # twice a generator is, and three times is the generator
    pres = gallery.get_presentation("rp2")
    rng = random.Random(67)
    for k, tag in ((2, "Z"), (1, "Z/2"), (2, "Z/2")):
        group = group_from_tag(tag)
        (gen,) = cohomology(pres, group, k).representatives
        for m, equal in ((0, True), (1, False), (2, True), (3, False)):
            f1 = gen + coboundary(random_cochain(pres, k - 1, group, rng))
            f2 = gen.scale_int(1 + m) + coboundary(
                random_cochain(pres, k - 1, group, rng))
            res, old = classes_equal(f1, f2), _full_solve(f1, f2)
            assert res.equal == (old is not None) == equal, (k, tag, m)
            if equal:
                assert coboundary(res.witness) == f2 - f1


@pytest.mark.parametrize("name", GALLERY_NERVES)
def test_nerve_oracles_refuse_foreign_cochains(name):
    # a cochain of another presentation (the other complex model of the
    # same cover among them), of another degree or over another group
    alt = gallery.get_presentation(name)
    other = gallery.get_presentation("torus9" if name != "torus9"
                                     else "circle3")
    for pres, twin in ((alt, gallery.full_variant(alt)),
                       (gallery.full_variant(alt), alt)):
        for k in range(pres.k_max):
            for tag, wrong in (("Z", "Z/2"), ("Z/2", "Z"),
                               ("R(alpha)", "Z")):
                group = group_from_tag(tag)
                foreign = [zero_cochain(p, k, group) for p in (other, twin)]
                foreign += [zero_cochain(pres, j, group)
                            for j in (k - 1, k + 1) if j >= 0]
                foreign.append(zero_cochain(pres, k, group_from_tag(wrong)))
                reports = [cohomology(pres, group, k)]
                if not k:
                    reports.append(h0_global_sections(pres, group))
                for rep in reports:
                    for c in foreign:
                        with pytest.raises(TagError):
                            rep.class_coordinates(c)


@pytest.mark.parametrize("name", GALLERY_NERVES)
@pytest.mark.parametrize("tag", ["Q/Z", "prod[Z,Z/2]", "prod[Z/3,Q/Z]"])
def test_class_comparison_over_other_groups(name, tag):
    # class comparison takes any coefficient group of the package, as the
    # full solve did: pairs that differ by a coboundary, and a coboundary
    # against each cocycle among random cochains
    group = group_from_tag(tag)
    rng = random.Random(f"groups:{name}:{tag}")
    for pres in (gallery.get_presentation(name),
                 gallery.full_variant(gallery.get_presentation(name))):
        for k in (1, 2):
            f1 = coboundary(random_cochain(pres, k - 1, group, rng))
            pairs = [f1 + coboundary(random_cochain(pres, k - 1, group, rng))]
            pairs += [c for c in (random_cochain(pres, k, group, rng)
                                  for _ in range(3)) if is_cocycle(c)]
            for f2 in pairs:
                res, old = classes_equal(f1, f2), _full_solve(f1, f2)
                assert res.equal == (old is not None), k
                if res.equal:
                    assert (coboundary(res.witness) - (f2 - f1)).is_zero()
            assert classes_equal(f1, pairs[0]).equal


def test_h0_limits_are_counted_not_listed(monkeypatch):
    # H^0 lists no edge, but refuses the nerves whose d_0 would list more
    # than MAX_TUPLES of them, as when it did list them: on the complete
    # graph K_n that is C(n, 2) edges, or n^2 ordered pairs with repeats
    # allowed.  The generator-value cap (components times charts) guards
    # h0_global_sections as well
    monkeypatch.setattr(presentation, "MAX_TUPLES", 36)
    Z = group_from_tag("Z")
    routes = (lambda p: cohomology(p, Z, 0), lambda p: h0_global_sections(p, Z))

    def complete(n, alternating):
        return FiniteNerve.from_facets(n, combinations(range(n), 2), 2,
                                       alternating)

    for n, alternating in ((9, True), (6, False)):
        for h0 in routes:
            pres = complete(n, alternating)
            assert h0(pres).group_description() == "Z"
            assert 1 not in pres._tuple_cache
            pres = complete(n + 1, alternating)
            with pytest.raises(DegreeError, match="alive tuples in degree 1"):
                h0(pres)
            assert 1 not in pres._tuple_cache
    monkeypatch.setattr(cech, "MAX_MATRIX_SIDE", 13)
    for h0 in routes:
        # 12 x 14 generator values are admitted, 13 x 14 are not, and 14
        # components exceed the side of the complex left by the unit pivots
        pres = FiniteNerve.from_facets(14, [(0, 1), (2, 3)], 2)
        assert h0(pres).group_description() == "Z^12"
        with pytest.raises(DegreeError, match="13 critical 0-cells by 14 "
                                              "0-cells exceed the limit"):
            h0(FiniteNerve.from_facets(14, [(0, 1)], 2))
        with pytest.raises(DegreeError, match="0 x 14 x 0; a side exceeds"):
            h0(FiniteNerve.from_facets(14, [], 2))
