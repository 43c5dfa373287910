"""Acceptance gate: ten criteria, one pass/fail line per criterion.

Run with ``pytest -v tests/test_acceptance.py``; each test below is one
criterion and its verbose line is the pass/fail record.  A PASS line is also
printed (visible with -s or in captured output).
"""

import random

from diffcech import gallery
from diffcech.average import FiniteTranslationGroupoid, trivializing_homotopy
from diffcech.bundle import (
    bundle_from_cocycle,
    cocycle_from_bundle,
    is_trivializable,
    pullback_bundle,
)
from diffcech.cech import (
    Cochain,
    GroupHom,
    classes_equal,
    coboundary,
    cohomology,
    connecting_map,
    h0_global_sections,
    is_cocycle,
    pullback_cochain,
    push_coefficients,
    random_cochain,
    random_cocycle,
    zero_cochain,
)
from diffcech.coeff import (
    ALPHA,
    RAlphaGroup,
    Scalar,
    ZGroup,
    ZmodGroup,
    ses_mod,
)
from diffcech.funclass import AffineMap
from diffcech.grpcoh import cocycle_from_crossed, crossed_from_cocycle, h1_group
from diffcech.presentation import Generator, GroupQuotient

from test_reduce import _reduced_cohomology

SEED = 20260823

PRESENTATIONS = [
    "point", "circle3", "circle6", "torus9", "rp2",
    "irrational-torus", "z2-reflection", "circle-rz", "line",
]


def _report(n, text):
    print(f"criterion {n}: PASS - {text}")


def _itorus_with_degree(d):
    return GroupQuotient(
        1,
        [Generator(0, AffineMap.translation([Scalar.of(1)])),
         Generator(0, AffineMap.translation([ALPHA]))],
        free=True,
        function_class_degree=d,
        name=f"irrational-torus-D{d}",
    )


def _kappa(pres):
    cls = pres.function_class()
    return Cochain.crossed(pres, {1: cls.from_coordinates(
        [ALPHA] + [Scalar.of(0)] * (cls.dimension - 1))})


def test_criterion_01_coboundary_law():
    """d(d(c)) = 0 exactly on 500 random cochains per gallery presentation."""
    rng = random.Random(SEED)
    for name in PRESENTATIONS:
        pres = gallery.get_presentation(name)
        group = RAlphaGroup() if pres.kind == "quotient" else ZGroup()
        for i in range(500):
            k = i % 3
            c = random_cochain(pres, k, group, rng)
            dd = coboundary(coboundary(c))
            if pres.kind == "nerve" or pres.is_finite():
                assert dd.is_zero(), (name, k)
            else:
                kt = tuple(pres.random_k(rng) for _ in range(k + 2))
                assert dd.q_value(kt).is_zero(), (name, k, kt)
    _report(1, "d o d = 0 on 500 random cochains x 9 presentations, "
               "degrees 0-2")


def test_criterion_02_classical_agreement():
    """Nerve cohomology matches the classical groups, full = alternating.
    A repeats-allowed nerve is computed on its alternating twin, so the
    group is also read off the reduction of the whole ordered complex."""
    expected = {
        ("circle3", 0, "Z"): "Z",
        ("circle3", 1, "Z"): "Z",
        ("torus9", 1, "Z"): "Z^2",
        ("rp2", 1, "Z"): "0",
        ("rp2", 2, "Z"): "Z/2",
        ("rp2", 1, "Z/2"): "Z/2",
    }
    for (name, k, tag), want in expected.items():
        pres = gallery.get_presentation(name)
        group = ZmodGroup(2) if tag == "Z/2" else ZGroup()
        alt = cohomology(pres, group, k).group_description()
        assert alt == want, (name, k, tag, alt)
        full = gallery.full_variant(pres)
        assert cohomology(full, group, k).group_description() == want, (
            name, k, tag, "full")
        assert _reduced_cohomology(full, k, group).group_description() == (
            want), (name, k, tag, "ordered complex")
    _report(2, "circle/torus/RP2 match the classical groups in both "
               "complex models")


def test_criterion_03_h0_is_global_sections():
    """H^0 equals global sections: G for connected nerves, constants on the
    irrational torus for every class degree D in {1, 2, 3}.  Both read the
    components of a nerve, so H^0 is also read off the reduction of d_0."""
    for name in ("point", "circle3", "circle6", "torus9", "rp2"):
        pres = gallery.get_presentation(name)
        assert pres.components() == [list(range(len(pres.charts)))]
        for group in (ZGroup(), ZmodGroup(3)):
            rep = cohomology(pres, group, 0)
            sec = h0_global_sections(pres, group)
            assert rep.group_description() == sec.group_description()
            assert rep.group_description() == group.tag
            assert _reduced_cohomology(pres, 0, group).group_description() \
                == group.tag
    for d in (1, 2, 3):
        pres = _itorus_with_degree(d)
        rep = h0_global_sections(pres, RAlphaGroup())
        assert rep.dimension == 1
        const = rep.representatives[0].payload
        assert all(x.is_zero() for x in const.coordinates()[1:])
    _report(3, "H^0 = global sections on connected nerves and the "
               "irrational torus (D = 1, 2, 3)")


def test_criterion_04_main_theorem_round_trip():
    """cocycle_from_bundle(bundle_from_cocycle(f)) = f on 200 random
    cocycles per base, and trivialization shifts obey c = f + d(alpha)."""
    rng = random.Random(SEED + 4)
    bases = ["circle3", "circle6", "torus9", "irrational-torus",
             "z2-reflection", "circle-rz"]
    for name in bases:
        pres = gallery.get_presentation(name)
        group = RAlphaGroup() if pres.kind == "quotient" else ZGroup()
        dist = list(gallery.get(name).cocycles.values())
        for i in range(200):
            f = random_cocycle(pres, 1, group, rng, distinguished=dist)
            b = bundle_from_cocycle(pres, f)
            assert (cocycle_from_bundle(b) - f).is_zero()
            if i % 20 == 0:
                alpha = random_cochain(pres, 0, group, rng)
                shifted = cocycle_from_bundle(b, alpha)
                assert (shifted - f - coboundary(alpha)).is_zero()
    _report(4, "bundle/cocycle round trip exact on 200 cocycles x 6 bases, "
               "shift law c(tau', P) = c(tau, P) + d(alpha) holds")


def test_criterion_05_irrational_torus():
    """The defining cocycle kappa(x, x + m + n alpha) = n alpha is a
    nontrivial class at D in {1, 2, 3}; H^1 has dimension 1; the pullback
    to the real line is trivializable."""
    for d in (1, 2, 3):
        pres = _itorus_with_degree(d)
        kappa = _kappa(pres)
        assert is_cocycle(kappa)
        b = bundle_from_cocycle(pres, kappa)
        res = is_trivializable(b)
        assert not res.equal
        assert "no witness in class" in res.certificate
        assert cohomology(pres, RAlphaGroup(), 1).dimension == 1
    pulled = pullback_bundle(gallery.line_to_irrational_torus(),
                             gallery.get("irrational-torus-bundle").obj)
    assert is_trivializable(pulled).equal
    _report(5, "kappa is a cocycle, nontrivial in class for D = 1, 2, 3, "
               "dim H^1 = 1, pullback to R trivializes")


def test_criterion_06_crossed_dictionary():
    """kappa_f / f_beta round trips on 200 random cocycles; h1_group agrees
    with cech.cohomology; the circle as R/Z has H^1 = 0."""
    rng = random.Random(SEED + 6)
    it = gallery.get_presentation("irrational-torus")
    kappa = gallery.get("irrational-torus").cocycles["kappa"]
    for i in range(200):
        f = random_cocycle(it, 1, RAlphaGroup(), rng, distinguished=[kappa])
        beta = crossed_from_cocycle(f)
        f2 = cocycle_from_crossed(beta)
        assert all(beta.values[j] == f2.payload[j] for j in range(it.rank))
        if i % 10 == 0:
            k = it.random_k(rng)
            assert f2.q_value((k,)) == f.q_value((k,))
    rep_g, rep_c = h1_group(it), cohomology(it, RAlphaGroup(), 1)
    assert rep_g.dimension == rep_c.dimension == 1
    assert not rep_g.is_zero_class(kappa)
    assert not rep_c.is_zero_class(kappa)
    assert not rep_c.is_zero_class(rep_g.representatives[0])
    crz = gallery.get_presentation("circle-rz")
    assert h1_group(crz).dimension == 0
    assert cohomology(crz, RAlphaGroup(), 1).dimension == 0
    _report(6, "crossed dictionary round trips 200 cocycles, h1_group and "
               "cohomology agree, H^1(R/Z) = 0")


def test_criterion_07_averaging_trivialization():
    """d(g) = (-1)^k f symbolically for 100 random cocycles in degrees 1
    and 2 over the Z/2 reflection; H^1 = H^2 = 0 with R coefficients."""
    rng = random.Random(SEED + 7)
    pres = gallery.get_presentation("z2-reflection")
    gpd = FiniteTranslationGroupoid(pres)
    for k in (1, 2):
        sign = 1 if k % 2 == 0 else -1
        for _ in range(100):
            f = random_cocycle(pres, k, RAlphaGroup(), rng)
            g = trivializing_homotopy(gpd, f)
            assert (coboundary(g) - f.scale_int(sign)).is_zero()
    assert cohomology(pres, RAlphaGroup(), 1).dimension == 0
    assert cohomology(pres, RAlphaGroup(), 2).dimension == 0
    _report(7, "averaged homotopy satisfies d(g) = (-1)^k f on 100 cocycles "
               "per degree, H^1 = H^2 = 0")


def test_criterion_08_long_exact_sequence():
    """The six-term sequence of 0 -> Z -> Z -> Z/m -> 0 is exact on the
    circle for m in {2, 3, 5}; on RP2 the Bockstein hits the nonzero
    element of H^2(Z)."""
    c3 = gallery.get_presentation("circle3")
    w = gallery.get("circle3").cocycles["winding1"]
    for m in (2, 3, 5):
        ses = ses_mod(m)
        times_m = GroupHom(ZGroup(), ZGroup(), lambda v, m=m: m * v, f"x{m}")
        red = GroupHom.reduction(m)
        h0z = cohomology(c3, ZGroup(), 0)
        h0m = cohomology(c3, ZmodGroup(m), 0)
        h1z = cohomology(c3, ZGroup(), 1)
        h1m = cohomology(c3, ZmodGroup(m), 1)
        assert (h0z.group_description(), h0m.group_description()) == \
            ("Z", f"Z/{m}")
        assert (h1z.group_description(), h1m.group_description()) == \
            ("Z", f"Z/{m}")
        one = h0z.representatives[0]
        # exact at H^0(Z/m): the reduction map is onto and delta kills it
        red_one = push_coefficients(red, one)
        assert h0m.class_coordinates(red_one)[0] % m != 0
        assert h1z.is_zero_class(connecting_map(ses, red_one))
        # exact at H^1(Z), incoming: delta^0 has zero image and x m is
        # injective on H^1(Z) = Z
        for k in range(1, m):
            assert not h1z.is_zero_class(w.scale_int(k))
        # exact at H^1(Z), outgoing into H^1(Z/m): ker(reduction) = m Z
        assert h1m.is_zero_class(push_coefficients(
            red, push_coefficients(times_m, w)))
        for k in range(1, m):
            assert not h1m.is_zero_class(push_coefficients(red, w.scale_int(k)))
        # exact at H^1(Z/m): H^2 = 0 so reduction must be onto
        assert cohomology(c3, ZGroup(), 2).group_description() == "0"
        coords = h1m.class_coordinates(push_coefficients(red, w))
        from math import gcd
        assert gcd(coords[0], m) == 1
    rp2 = gallery.get_presentation("rp2")
    gen = cohomology(rp2, ZmodGroup(2), 1).representatives[0]
    delta = connecting_map(ses_mod(2), gen)
    h2 = cohomology(rp2, ZGroup(), 2)
    assert h2.group_description() == "Z/2"
    assert h2.class_coordinates(delta) == (1,)
    _report(8, "six-term sequence exact on the circle for m = 2, 3, 5; "
               "RP2 Bockstein sends the H^1(Z/2) generator to the nonzero "
               "class in H^2(Z)")


def test_criterion_09_refinement_coherence():
    """classes_equal verdicts survive passage to common refinements; the
    winding-1 class pulls back to winding 2 along the 6 -> 3 double cover."""
    rng = random.Random(SEED + 9)
    s, mq, mr = gallery.circle_refinement()
    c3 = gallery.get_presentation("circle3")
    c6 = gallery.get_presentation("circle6")
    w3 = gallery.get("circle3").cocycles["winding1"]
    w6 = gallery.get("circle6").cocycles["winding1"]
    pairs3 = [
        (w3, w3 + coboundary(random_cochain(c3, 0, ZGroup(), rng))),
        (w3, zero_cochain(c3, 1, ZGroup())),
        (w3, w3.scale_int(2)),
    ]
    for f1, f2 in pairs3:
        before = classes_equal(f1, f2).equal
        after = classes_equal(pullback_cochain(mq, f1),
                              pullback_cochain(mq, f2)).equal
        assert before == after
    pairs6 = [
        (w6, w6 + coboundary(random_cochain(c6, 0, ZGroup(), rng))),
        (w6, zero_cochain(c6, 1, ZGroup())),
    ]
    for f1, f2 in pairs6:
        before = classes_equal(f1, f2).equal
        after = classes_equal(pullback_cochain(mr, f1),
                              pullback_cochain(mr, f2)).equal
        assert before == after
    # the two winding generators agree after refinement
    hs = cohomology(s, ZGroup(), 1)
    assert hs.group_description() == "Z"
    a = hs.class_coordinates(pullback_cochain(mq, w3))
    b = hs.class_coordinates(pullback_cochain(mr, w6))
    assert a == b or a == tuple(-x for x in b)
    # identity refinements are trivially coherent
    from diffcech.presentation import common_refinement
    for name in ("torus9", "irrational-torus"):
        pres = gallery.get_presentation(name)
        same, mi, _ = common_refinement(pres, pres)
        assert same == pres
    m = gallery.circle_double_cover()
    pulled = pullback_cochain(m, w3)
    h1 = cohomology(c6, ZGroup(), 1)
    assert h1.class_coordinates(pulled) == (2,)
    _report(9, "verdicts invariant under refinement; double cover pullback "
               "has winding 2")


def test_criterion_10_cli_determinism():
    """Repeated CLI runs produce byte-identical reports."""
    from diffcech.cli import run

    commands = [
        ["cohomology", "--degree", "1", "--coeff", "Z", "gallery:circle3"],
        ["cohomology", "--degree", "2", "--coeff", "Z", "gallery:rp2"],
        ["cohomology", "--degree", "1", "--coeff", "R(alpha)",
         "gallery:irrational-torus"],
        ["check-cocycle", "gallery:circle3#winding1"],
        ["classify-bundle", "gallery:irrational-torus-bundle"],
        ["isomorphic", "gallery:circle3-winding1-bundle",
         "gallery:circle3-winding1-bundle"],
        ["gallery", "show", "torus9"],
        ["gallery", "verify", "point"],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            lines = []
            code = run(argv, out=lines.append)
            runs.append((code, "\n".join(lines).encode()))
        assert runs[0] == runs[1], argv
    _report(10, "eight CLI commands byte-identical across repeated runs")
