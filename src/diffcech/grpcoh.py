"""Group cohomology dictionary for quotient presentations.

Degree-1 Cech data on M/K corresponds to crossed homomorphisms
kappa: K -> C(M), kappa(k+k') = kappa(k) + kappa(k').k, via
kappa_f(k)(y) = f(y, y.k); coboundaries correspond to principal crossed
homomorphisms kappa(k) = alpha.k - alpha.  H1 is crossed modulo principal,
computed exactly inside the declared function class.
"""

from __future__ import annotations

from typing import Dict

from .cech import (
    Cochain,
    CohomologyReport,
    _add_into,
    _crossed_single,
    _field_cohomology_from_matrices,
    _generator_rows,
    _generator_vector,
    _require_cocycle,
    crossed_value,
)
from .coeff import ZERO, RAlphaGroup
from .errors import FreenessError, ParseError
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
    combos, _ = linalg.nullspace([P[i * dim + t]
                                  for i in range(r) for t in top])
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
