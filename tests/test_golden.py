"""Byte-level golden reports of the cohomology engines.

Each case below renders a report exactly as a user sees it: CLI stdout lines,
or canonical JSON of a cohomology report or a class-comparison witness.  The
expected text is stored in ``golden_reports.json`` next to this file, so any
change in a representative, a note or a witness shows up as a diff.
"""

import json
import os
import random
import tempfile

import pytest

from diffcech import gallery
from diffcech.cech import (
    classes_equal,
    coboundary,
    cohomology,
    h0_global_sections,
    random_cochain,
    random_cocycle,
    zero_cochain,
)
from diffcech.cli import run
from diffcech.coeff import ALPHA, RAlphaGroup, group_from_tag
from diffcech.funclass import AffineMap
from diffcech.grpcoh import h1_group
from diffcech.presentation import FiniteNerve, Generator, GroupQuotient

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_reports.json")
R = RAlphaGroup()


def _cli(name, k, coeff="R(alpha)"):
    lines = []
    run(["cohomology", "--degree", str(k), "--coeff", coeff,
         f"gallery:{name}"], out=lines.append)
    return lines


def _report(name, k):
    rep = cohomology(gallery.get_presentation(name), R, k)
    return [json.dumps(rep.to_dict(), sort_keys=True)]


def _full_torus9_h1():
    pres = gallery.full_variant(gallery.get_presentation("torus9"))
    rep = cohomology(pres, group_from_tag("Z"), 1)
    return [json.dumps(rep.to_dict(), sort_keys=True)]


def _coords(name, k, tag, seed):
    pres = gallery.get_presentation(name)
    group = group_from_tag(tag)
    return _oracle_coords(cohomology(pres, group, k), seed)


def _oracle_coords(rep, seed):
    """Oracle coordinates of the reported generators, then of seeded
    cocycles: coboundaries plus random multiples of the generators (only
    the multiples in degree 0).  Scalar coordinates are written as text."""
    pres, k, group = rep.pres, rep.degree, rep.group
    rng = random.Random(seed)
    if k:
        cocycles = [random_cocycle(pres, k, group, rng, rep.representatives)
                    for _ in range(6)]
    else:
        cocycles = []
        for _ in range(6):
            c = zero_cochain(pres, 0, group)
            for r in rep.representatives:
                c = c + r.scale_int(rng.randrange(-3, 4))
            cocycles.append(c)
    return [json.dumps(list(rep.class_coordinates(c)), default=str)
            for c in rep.representatives + cocycles]


# a triangle and a separate edge: two components
_TWO_PIECES = FiniteNerve.from_facets(5, [[0, 1, 2], [3, 4]], k_max=3,
                                      name="two-pieces")


def _h0(pres, tag):
    """The global-sections report, then the coordinates of the section that
    is 2 on the first component and 5 on the others."""
    group = group_from_tag(tag)
    rep = h0_global_sections(pres, group)
    section = rep.representatives[0].scale_int(2)
    for other in rep.representatives[1:]:
        section = section + other.scale_int(5)
    return [json.dumps(rep.to_dict(), sort_keys=True),
            json.dumps([str(x) for x in rep.class_coordinates(section)])]


def _witness(f1, f2):
    res = classes_equal(f1, f2)
    assert res.equal
    return [json.dumps(res.witness.to_dict(), sort_keys=True)]


def _z2_witness(k):
    pres = gallery.get_presentation("z2-reflection")
    rng = random.Random(7)
    f1 = random_cocycle(pres, k, R, rng)
    return _witness(f1, f1 + coboundary(random_cochain(pres, k - 1, R, rng)))


def _itorus_witness():
    entry = gallery.get("irrational-torus")
    kappa = entry.cocycles["kappa"]
    shift = random_cochain(entry.obj, 0, R, random.Random(11))
    return _witness(kappa + coboundary(shift), kappa)


def _h1(pres):
    return [json.dumps(h1_group(pres).to_dict(), sort_keys=True)]


def _itorus(d):
    gens = gallery.get_presentation("irrational-torus").generators
    return GroupQuotient(1, gens, True, d, f"irrational-torus-D{d}")


def _z4_rotation():
    rotation = AffineMap([[0, -1], [1, 0]], [0, 0])
    return GroupQuotient(2, [Generator(4, rotation)], False, 1, "z4-rotation")


def _lattice():
    shifts = [[1, 0], [0, 1], [ALPHA, 0], [0, ALPHA]]
    return GroupQuotient(
        2, [Generator(0, AffineMap.translation(b)) for b in shifts], True, 1,
        "lattice2")


# a reflection of x0 (order 2) next to a unit translation of x1
_MIXED = {
    "kind": "quotient", "dim": 2, "free": False, "function_class_degree": 1,
    "generators": [
        {"torsion": 2, "affine": {"A": [["-1", "0"], ["0", "1"]],
                                  "b": ["0", "0"]}},
        {"torsion": 0, "affine": {"A": [["1", "0"], ["0", "1"]],
                                  "b": ["0", "1"]}},
    ],
}


def _gallery_verify():
    lines = []
    code = run(["gallery", "verify"], out=lines.append)
    return [f"exit {code}"] + lines


def _check_cocycle(presentation, crossed):
    doc = {"presentation": presentation, "group": "R(alpha)",
           "cochain": {"degree": 1, "crossed": crossed}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cochain.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        lines = []
        code = run(["check-cocycle", path], out=lines.append)
    return [f"exit {code}"] + lines


CASES = {
    "cli torus9 H^1": lambda: _cli("torus9", 1),
    "cli torus9 H^2": lambda: _cli("torus9", 2),
    "cli circle3 H^0": lambda: _cli("circle3", 0),
    "cli circle3 H^1": lambda: _cli("circle3", 1),
    "cli rp2 H^1 Z/2": lambda: _cli("rp2", 1, "Z/2"),
    "cli rp2 H^2 Z": lambda: _cli("rp2", 2, "Z"),
    "cli rp2 H^2 Z/2": lambda: _cli("rp2", 2, "Z/2"),
    "cli torus9 H^1 Z/3": lambda: _cli("torus9", 1, "Z/3"),
    "cli torus9 H^2 Z": lambda: _cli("torus9", 2, "Z"),
    "cli circle3 H^0 Z/4": lambda: _cli("circle3", 0, "Z/4"),
    "cli circle6 H^1 Z": lambda: _cli("circle6", 1, "Z"),
    "torus9-full H^1 Z": _full_torus9_h1,
    "coords torus9 H^1 Z": lambda: _coords("torus9", 1, "Z", 3),
    "coords torus9 H^2 Z": lambda: _coords("torus9", 2, "Z", 4),
    "coords torus9 H^1 Z/6": lambda: _coords("torus9", 1, "Z/6", 5),
    "coords rp2 H^1 Z/2": lambda: _coords("rp2", 1, "Z/2", 6),
    "coords rp2 H^2 Z": lambda: _coords("rp2", 2, "Z", 7),
    "coords rp2 H^2 Z/4": lambda: _coords("rp2", 2, "Z/4", 8),
    "coords circle6 H^1 Z/4": lambda: _coords("circle6", 1, "Z/4", 9),
    "coords torus9 H^1 R(alpha)": lambda: _coords("torus9", 1, "R(alpha)", 10),
    "coords torus9 H^2 R(alpha)": lambda: _coords("torus9", 2, "R(alpha)", 11),
    "coords circle3 H^1 R(alpha)":
        lambda: _coords("circle3", 1, "R(alpha)", 12),
    "coords irrational-torus H^0":
        lambda: _coords("irrational-torus", 0, "R(alpha)", 13),
    "coords h1_group irrational-torus D=1":
        lambda: _oracle_coords(h1_group(_itorus(1)), 14),
    "coords h1_group irrational-torus D=2":
        lambda: _oracle_coords(h1_group(_itorus(2)), 15),
    "coords h1_group irrational-torus D=3":
        lambda: _oracle_coords(h1_group(_itorus(3)), 16),
    "coords h1_group lattice2 D=1":
        lambda: _oracle_coords(h1_group(_lattice()), 17),
    "h0 torus9 Z": lambda: _h0(gallery.get_presentation("torus9"), "Z"),
    "h0 two-pieces Z": lambda: _h0(_TWO_PIECES, "Z"),
    "h0 two-pieces Z/3": lambda: _h0(_TWO_PIECES, "Z/3"),
    "h0 two-pieces R(alpha)": lambda: _h0(_TWO_PIECES, "R(alpha)"),
    "z2-reflection H^0": lambda: _report("z2-reflection", 0),
    "z2-reflection H^1": lambda: _report("z2-reflection", 1),
    "z2-reflection H^2": lambda: _report("z2-reflection", 2),
    "irrational-torus H^0": lambda: _report("irrational-torus", 0),
    "z2-reflection witness degree 1": lambda: _z2_witness(1),
    "z2-reflection witness degree 2": lambda: _z2_witness(2),
    "irrational-torus witness degree 1": _itorus_witness,
    "h1_group irrational-torus D=1": lambda: _h1(_itorus(1)),
    "h1_group irrational-torus D=2": lambda: _h1(_itorus(2)),
    "h1_group irrational-torus D=3": lambda: _h1(_itorus(3)),
    "h1_group circle-rz": lambda: _h1(gallery.get_presentation("circle-rz")),
    "h1_group z2-reflection":
        lambda: _h1(gallery.get_presentation("z2-reflection")),
    "h1_group z4-rotation D=1": lambda: _h1(_z4_rotation()),
    "h1_group lattice2 D=1": lambda: _h1(_lattice()),
    # g1 then g2 on the irrational torus: x0 + 0 != 0 + (x0 + a)
    "cli check-cocycle fails a generator pair":
        lambda: _check_cocycle("gallery:irrational-torus",
                               {"g1": "x0", "g2": "0"}),
    # the orbit sum of the reflection: 1 + 1 != 0
    "cli check-cocycle fails the torsion sum":
        lambda: _check_cocycle(_MIXED, {"g1": "1", "g2": "0"}),
    "cli gallery verify": _gallery_verify,
}


def render_all():
    return {name: case() for name, case in CASES.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert CASES[name]() == expected[name]
