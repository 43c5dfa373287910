"""Haar averaging over finite translation groupoids.

For a quotient by a finite group K of order N, the normalized invariant
density is uniform, so the averaging operator is
delta(u)(h) = (1/N) sum_{gamma in K} h(u.gamma).  Averaging the last slot of
a degree-k cocycle f produces g with dg = (-1)^k f, an explicit certificate
that H^k vanishes with real coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .cech import Cochain, _quotient_cochain, _require_cocycle
from .coeff import GroupElement, RAlphaGroup, Scalar
from .errors import DegreeError, ParseError
from .funclass import FunctionElement, signed_sum


class FiniteTranslationGroupoid:
    """The translation groupoid M x K of a finite-group quotient."""

    def __init__(self, pres):
        if pres.kind != "quotient" or not pres.is_finite():
            raise ParseError("Haar averaging needs a finite-group quotient")
        self.pres = pres
        self.order = pres.k_order()
        self.weight = Fraction(1, self.order)

    def __repr__(self):
        return f"FiniteTranslationGroupoid(|K|={self.order})"


def haar_average(g: FiniteTranslationGroupoid, u, h: FunctionElement):
    """delta(u)(h) = (1/N) sum_gamma h(u.gamma), exact."""
    pres = g.pres
    total = Scalar.of(0)
    for gamma in pres.k_elements():
        total = total + h.evaluate(pres.act_point(u, gamma))
    return GroupElement(RAlphaGroup(), total * Scalar.of(g.weight))


def trivializing_homotopy(g: FiniteTranslationGroupoid, f: Cochain) -> Cochain:
    """g(u0,...,u_{k-1}) = delta(u0)(f(u0,...,u_{k-1},.)); dg = (-1)^k f."""
    pres = g.pres
    if f.pres != pres:
        raise ParseError("cocycle lives on a different presentation")
    if f.group.tag != "R(alpha)":
        raise ParseError("averaging needs the R model coefficients")
    k = f.degree
    if k < 1:
        raise DegreeError(f"expected a cocycle of positive degree, got {k}")
    _require_cocycle(f)
    return _homotopy(pres, f)


def _homotopy(pres, f: Cochain) -> Cochain:
    """Average the last slot of a degree-k >= 1 cocycle f on a finite
    quotient; d of the result is (-1)^k f, so f must already be checked."""
    w = Scalar.of(Fraction(1, pres.k_order()))
    elements = pres.k_elements()
    cls = pres.function_class()

    def average_last(kt):
        # kt is a stored point of the finite K, and so is each kt + (gamma,)
        return signed_sum(cls, [(1, f._q(kt + (gamma,)))
                                for gamma in elements]).scale(w)

    return _quotient_cochain(pres, f.degree - 1, average_last)
