"""The nerve engine on the complex left by its unit pivots, against the
engine that factored the full boundary matrices.

`_unreduced_cohomology` is that earlier engine, kept here as the oracle, as
`_dense_snf` is kept for the sparse SNF: the same presented group, read off
the SNF of d_k and of the relations of its kernel, with no reduction.  Both
engines must report the same group, their generators must be cocycles, and
each must read the other's generators as a basis: the two coordinate
matrices are inverse to each other modulo the torsion orders.
"""

import math
import random
from itertools import combinations

import pytest

from diffcech import cech, gallery, linalg, reduce
from diffcech.cech import (
    CohomologyReport,
    _nerve_from_vector,
    boundary_matrix,
    cohomology,
    is_cocycle,
    random_cocycle,
)
from diffcech.coeff import _snf, group_from_tag, sparse_apply, sparse_mix
from diffcech.errors import CocycleError, DegreeError
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


def _combine(coeffs, vectors, mods):
    out = [sum(c * v[i] for c, v in zip(coeffs, vectors))
           for i in range(len(mods))]
    return [x % e if e else x for x, e in zip(out, mods)]


def _check_against_unreduced(pres, k, tag, rng):
    group = group_from_tag(tag)
    new = cohomology(pres, group, k)
    old = _unreduced_cohomology(pres, k, group)
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
    # the first SNF sees the leftover of d_k, critical (k+1)-cells by
    # critical k-cells; the relations have one row per critical k-cell at
    # most, and a column per critical (k-1)-cell (and one per k-cell mod m);
    # the critical cells are at most the cells, and in no row of the
    # leftover of d_k and no column of that of d_{k-1} is every entry zero
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
