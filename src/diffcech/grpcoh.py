"""Group cohomology of quotients: crossed homomorphisms and the engines.

Degree-1 Cech data on M/K corresponds to crossed homomorphisms
kappa: K -> C(M), kappa(k+k') = kappa(k) + kappa(k').k, via
kappa_f(k)(y) = f(y, y.k); coboundaries correspond to principal crossed
homomorphisms kappa(k) = alpha.k - alpha.  H1 is crossed modulo principal,
computed exactly inside the declared function class.  The quotient engines
solve on that class: H^0 (the K-invariant functions), H^1, class comparison
and the vanishing over a finite K, behind `quotient_cohomology` and
`_quotient_classes_equal`, which `cech` dispatches quotient requests to.
"""

from __future__ import annotations

from typing import Dict, List

from .average import _homotopy
from .cech import (
    ClassComparison,
    Cochain,
    CohomologyReport,
    _crossed_single,
    _quotient_points,
    _require_cocycle,
    _require_degree,
    crossed_value,
)
from .coeff import ONE, ZERO, RAlphaGroup, Scalar
from .errors import CocycleError, DegreeError, FreenessError, ParseError
from .funclass import FunctionElement
from . import linalg


class CrossedHom:
    """A crossed homomorphism, stored by its values on the generators."""

    def __init__(self, pres, values: Dict[int, FunctionElement]):
        if pres.kind != "quotient":
            raise ParseError("crossed homomorphisms need a quotient presentation")
        self.pres = pres
        self.values = {i: values.get(i, pres.function_class().zero())
                       for i in range(pres.rank)}

    def value(self, k) -> FunctionElement:
        """kappa(k) for an arbitrary group element, via the crossed law."""
        return crossed_value(self.pres, self.values, k)

    def __eq__(self, other):
        return (isinstance(other, CrossedHom) and self.pres == other.pres
                and self.values == other.values)

    def to_dict(self) -> dict:
        return {"values": {f"g{i + 1}": str(v)
                           for i, v in sorted(self.values.items())}}

    def __repr__(self):
        inner = ", ".join(f"g{i + 1} -> {v}"
                          for i, v in sorted(self.values.items()))
        return f"CrossedHom({inner})"


def crossed_from_cocycle(f: Cochain) -> CrossedHom:
    """Read off kappa_f(k)(y) = f(y, y.k) on the generators."""
    pres = f.pres
    if pres.kind != "quotient" or f.degree != 1:
        raise ParseError("expected a degree-1 cochain on a quotient")
    _require_cocycle(f)
    return CrossedHom(pres, {i: f.q_value((pres.gen_power(i),))
                             for i in range(pres.rank)})


def cocycle_from_crossed(beta: CrossedHom) -> Cochain:
    """f_beta(y1, y2) = beta(k(y1,y2))(y1); needs a free action."""
    pres = beta.pres
    if not pres.free:
        raise FreenessError(
            "the inverse dictionary needs a free action (arrow map undefined)"
        )
    return Cochain.crossed(pres, beta.values)


def h1_group(pres) -> CohomologyReport:
    """H1(K, C(M)) within the function class: crossed modulo principal.

    Cocycles are degree-D crossed data; principality is tested one degree up
    (witness potentials live in the widened class).  Both matrices have one
    column block per generator in wide coordinates.  The relation of
    (g_i, g_j) is -P_j on block i plus P_i on block j for the generator rows
    P_i of alpha |-> alpha.g_i - alpha, a torsion generator adds its orbit
    sum, and the principal block is read off P.
    """
    if pres.kind != "quotient":
        raise ParseError("h1_group needs a quotient presentation")
    cls = pres.function_class()
    wide = cls.widen(1)
    dim = wide.dimension
    r = pres.rank
    top = [t for t, e in enumerate(wide.basis) if sum(e) > cls.max_degree]
    P = _generator_rows(pres, wide)

    # cocycles: every crossed relation holds and the data lies in class D
    def placed(blocks):
        row = [ZERO] * (r * dim)
        for i, block in blocks:
            row[i * dim : (i + 1) * dim] = block
        return row

    A_s = []
    for i, gi in enumerate(pres.generators):
        for j in range(i + 1, r):
            A_s += [placed([(i, [-x if x else ZERO for x in P[j * dim + t]]),
                            (j, P[i * dim + t])]) for t in range(dim)]
        if gi.torsion:
            cols = [_crossed_single(pres, wide.monomial(e), i, gi.torsion)
                    .in_class(wide).coordinates() for e in wide.basis]
            A_s += [placed([(i, row)]) for row in zip(*cols)]
    A_s += [[int(u == i * dim + t) for u in range(r * dim)]
            for i in range(r) for t in top]

    # coboundaries: principal crossed data of wide potentials whose
    # degree-(D+1) part cancels
    free, vectors = linalg.kernel([P[i * dim + t]
                                   for i in range(r) for t in top])
    combos = vectors(free)
    B = [[ZERO] * len(combos) for _ in P]
    for row, out in zip(P, B):
        for c, x in enumerate(row):
            if x:
                for j, combo in enumerate(combos):
                    if combo[c]:
                        _add_into(out, j, x * combo[c])

    def from_vector(v):
        return Cochain.crossed(pres, {
            i: wide.from_coordinates(v[i * dim : (i + 1) * dim])
            for i in range(r)
        })

    note = (f"crossed mod principal; class (n={cls.n}, D={cls.max_degree}), "
            f"witnesses at D={wide.max_degree}")
    return _field_cohomology_from_matrices(
        pres, 1, RAlphaGroup(), A_s, B,
        lambda c: _generator_vector(c, wide), from_vector, note)


def _field_cohomology_from_matrices(pres, k: int, group, A, B,
                                    to_vector, from_vector,
                                    note: str = "") -> CohomologyReport:
    """H^k = ker A / im B over Q(a) for the row matrices A of d_k and B of
    d_{k-1} (n x 0 in degree 0) of a quotient's function-class system,
    reduced by `linalg`.  The representatives are the kernel vectors that
    leave the span of B, chosen greedily in order: the kernel pivots of
    [B | kernel].  Restricted to the kernel's free coordinates, a vector of
    ker A loses nothing, each kernel vector is a unit vector there, and the
    columns of B are coboundaries in ker A; so [B | kernel] has the pivots
    of [B_free | I], whose unit column j is a pivot unless some vector of
    the span of B_free ends at j (`linalg.trailing_pivots`).  The forward
    pass on A gives the free columns, and only the picked kernel vectors
    are back-solved: each is fixed by its free entries, whichever others
    are built.  The oracle refuses a cochain of another presentation or
    degree, and a v off ker A; its coordinates solve [B_free | chosen] on
    the free entries of v and are Scalars."""
    free, kernel = linalg.kernel(A)
    B_free = [B[j] for j in free]
    ends = set(linalg.trailing_pivots([list(col) for col in zip(*B_free)]))
    picked = [i for i in range(len(free)) if i not in ends]
    B_chosen = [row + [int(i == p) for p in picked]
                for i, row in enumerate(B_free)]
    width = len(B[0]) if B else 0

    def oracle(c: Cochain):
        _require_degree(c, pres, k, group)
        v = to_vector(c)
        if any(sum([a * x for a, x in zip(row, v) if a and x], ZERO)
               for row in A):
            raise CocycleError("class oracle applied to a non-cocycle")
        return tuple(linalg.solve(B_chosen, [v[j] for j in free])[width:])

    reps = list(map(from_vector, kernel([free[i] for i in picked])))
    return CohomologyReport(pres, k, group, free_rank=len(picked),
                            representatives=reps, oracle=oracle, note=note)


def _add_into(row, j, x):
    """row[j] += x, with the first contribution to a ZERO cell written as is."""
    v = row[j]
    row[j] = x if v is ZERO else v + x


def _generator_rows(pres, cls) -> List[List[Scalar]]:
    """Matrix of alpha |-> (alpha.g_i - alpha)_i in the coordinates of cls,
    one row block per generator g_i, read off its monomial images.  It
    stands for d_0 on all of K: its kernel is the K-invariant part of cls,
    and a crossed cochain is fixed by its generator values."""
    basis = cls.basis
    d = len(basis)
    where = {e: t for t, e in enumerate(basis)}
    M = []
    for g in pres.generators:
        block = [[ZERO] * d for _ in range(d)]
        for j, e in enumerate(basis):
            for e_out, x in g.affine.monomial_image(e).items():
                block[where[e_out]][j] = x
        for j in range(d):
            _add_into(block[j], j, -ONE)
        M += block
    return M


def _generator_vector(c: Cochain, cls) -> list:
    """Coordinates in cls of a degree-1 quotient cochain at the generators,
    in the row order of `_generator_rows`."""
    pres = c.pres
    return [x for i in range(pres.rank) for x in
            c.q_value((pres.gen_power(i),)).in_class(cls).coordinates()]


def _quotient_invariants(pres, group) -> CohomologyReport:
    """H^0 of a quotient: the K-invariant functions of its class, the
    kernel of the generator rows."""
    cls = pres.function_class()
    # with no generator there is no row to read the width off: one zero row
    # keeps every function invariant
    A = _generator_rows(pres, cls) or [[ZERO] * cls.dimension]
    return _field_cohomology_from_matrices(
        pres, 0, group, A, [[] for _ in range(cls.dimension)],
        lambda c: c.q_value(()).in_class(cls).coordinates(),
        lambda v: Cochain.function(pres, cls.from_coordinates(v)),
        f"invariants of class (n={cls.n}, D={cls.max_degree})")


def _finite_quotient_vanishing(pres, k: int, group) -> CohomologyReport:
    """H^k of a finite K for k >= 1 is 0 with no matrix built: averaging a
    cocycle f over K gives g with dg = +-f (`average.trivializing_homotopy`).
    The oracle refuses a cochain of another presentation or degree, and a
    non-cocycle, by scanning its coboundary's table."""
    # refuse a K^(k+1) over the limit, as a tabulated H^k would
    _quotient_points(pres, k + 1)
    cls = pres.function_class()

    def oracle(c: Cochain):
        _require_degree(c, pres, k, group)
        _require_cocycle(c)
        return ()

    return CohomologyReport(
        pres, k, group, oracle=oracle,
        note=f"relative to class (n={cls.n}, D={cls.max_degree})")


def quotient_cohomology(pres, group, k: int) -> CohomologyReport:
    """H^k of a quotient over R(alpha): the K-invariant functions in degree
    0, 0 above it over a finite K, and crossed modulo principal data in
    degree 1 over an infinite K (`h1_group`)."""
    if k < 0:
        raise DegreeError(f"quotient cohomology has no degree {k}")
    if group.tag != "R(alpha)":
        raise ParseError("quotient cohomology uses the R model coefficients")
    if k == 0:
        return _quotient_invariants(pres, group)
    if pres.is_finite():
        return _finite_quotient_vanishing(pres, k, group)
    if k == 1:
        return h1_group(pres)
    raise DegreeError(
        "infinite-group quotient cohomology is supported in degrees 0 and 1"
    )


def _quotient_classes_equal(pres, k: int, diff: Cochain) -> ClassComparison:
    """Degree 1 solves d(alpha) = diff on the generator rows, one degree up:
    crossed data is fixed by its generator values.  Above degree 1 over a
    finite K, averaging gives alpha with d(alpha) = (-1)^k diff."""
    if k == 0:
        if diff.is_zero():
            return ClassComparison(True, None, "equal functions")
        return ClassComparison(False, None, "functions differ")
    if k > 1:
        # f1 and f2 are checked cocycles, so diff is one
        g = _homotopy(pres, diff)
        return ClassComparison(True, g.scale_int((-1) ** k), "witness found")
    # unknown degree-0 alpha in the widened class
    wide = pres.function_class().widen(1)
    sol = linalg.solve(_generator_rows(pres, wide),
                       _generator_vector(diff, wide))
    if sol is None:
        return ClassComparison(
            False, None,
            f"no witness in class (n={wide.n}, D={wide.max_degree})",
        )
    return ClassComparison(
        True, Cochain.function(pres, wide.from_coordinates(sol)),
        "witness found")
