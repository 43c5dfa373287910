"""Byte-level golden reports of the field-coefficient engines.

Each case below renders a report exactly as a user sees it: CLI stdout lines,
or canonical JSON of a cohomology report or a class-comparison witness.  The
expected text is stored in ``golden_reports.json`` next to this file, so any
change in a representative, a note or a witness shows up as a diff.
"""

import json
import os
import random

import pytest

from diffcech import gallery
from diffcech.cech import (
    classes_equal,
    coboundary,
    cohomology,
    random_cochain,
    random_cocycle,
)
from diffcech.cli import run
from diffcech.coeff import RAlphaGroup

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_reports.json")
R = RAlphaGroup()


def _cli(name, k):
    lines = []
    run(["cohomology", "--degree", str(k), "--coeff", "R(alpha)",
         f"gallery:{name}"], out=lines.append)
    return lines


def _report(name, k):
    rep = cohomology(gallery.get_presentation(name), R, k)
    return [json.dumps(rep.to_dict(), sort_keys=True)]


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


CASES = {
    "cli torus9 H^1": lambda: _cli("torus9", 1),
    "cli torus9 H^2": lambda: _cli("torus9", 2),
    "cli circle3 H^0": lambda: _cli("circle3", 0),
    "cli circle3 H^1": lambda: _cli("circle3", 1),
    "z2-reflection H^0": lambda: _report("z2-reflection", 0),
    "z2-reflection H^1": lambda: _report("z2-reflection", 1),
    "z2-reflection H^2": lambda: _report("z2-reflection", 2),
    "irrational-torus H^0": lambda: _report("irrational-torus", 0),
    "z2-reflection witness degree 1": lambda: _z2_witness(1),
    "z2-reflection witness degree 2": lambda: _z2_witness(2),
    "irrational-torus witness degree 1": _itorus_witness,
}


def render_all():
    return {name: case() for name, case in CASES.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert CASES[name]() == expected[name]
