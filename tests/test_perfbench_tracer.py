"""The benchmark's span tracer still finds everything it wraps and probes.

``perfbench/tracer.py`` patches package functions by name and looks into
package caches by key.  A rename breaks only traced benchmark runs, so this
loads the tracer (without writing byte code next to it) and checks both.
"""

import importlib
import importlib.util
import os
import sys

from diffcech import cech, cli, gallery, reduce
from diffcech.presentation import FiniteNerve, GroupQuotient

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _target(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


def test_install_and_uninstall_resolve_every_target():
    tracer = _load_tracer()
    targets = [(m, a) for _, m, a, *_ in tracer.SPANS + tracer.COUNTERS]
    before = {t: _target(*t) for t in targets}
    t = tracer.Tracer()
    t.install()
    try:
        assert all(_target(*key) is not fn for key, fn in before.items())
        lines = []
        assert cli.run(["cohomology", "--degree", "1", "--coeff", "Z",
                        "gallery:circle3"], out=lines.append) == 0
        assert t.stats["cli.run"].calls == 1
        assert t.stats["cech.cohomology"].calls == 1
    finally:
        t.uninstall()
    assert all(_target(*key) is fn for key, fn in before.items())

    # the SNF span reads its first argument as rows times the length of the
    # first row, which for the sparse rows it gets counts that row's
    # nonzeros: H^0 over Z factors what the unit pivots leave of the
    # degree-0 boundary matrix, no row on the connected torus9 and one
    # critical column, then the one relation row of the kernel generator,
    # which is empty
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.run(["cohomology", "--degree", "0", "--coeff", "Z",
                        "gallery:torus9"], out=lines.append) == 0
    finally:
        t.uninstall()
    pres = gallery.get_presentation("torus9")
    n = len(pres.tuples(0))
    red = reduce.Reduction([{}] * n, 0, cech.boundary_matrix(pres, 0), n)
    assert red.B == [] and len(red.cells[1]) == 1
    snf = t.stats["coeff.snf"]
    assert snf.calls == 2
    assert snf.sizes == {"entries": 0, "max_dim": 1}


def test_probed_caches_keep_their_keys():
    tracer = _load_tracer()
    nerve = FiniteNerve.from_facets(3, [(0, 1), (1, 2), (0, 2)], k_max=2)
    assert not tracer._tuples_hit(nerve, 1)
    nerve.tuples(1)
    assert 1 in nerve._tuple_cache and tracer._tuples_hit(nerve, 1)

    gens = gallery.get_presentation("irrational-torus").generators
    pres = GroupQuotient(1, gens, free=True, function_class_degree=2)
    assert not tracer._affine_hit(pres, (3, -2))
    pres.affine_of((3, -2))
    assert (3, -2) in pres._affine_cache and tracer._affine_hit(pres, (3, -2))

    val = pres.function_class().parse("x0")
    assert not tracer._crossed_hit(pres, val, 1, 5)
    cech._crossed_single(pres, val, 1, 5)
    assert (val, 1, 5) in pres._crossed_cache
    assert tracer._crossed_hit(pres, val, 1, 5)


def test_crossed_value_reaches_the_traced_action():
    # the per-layer metrics of the action count calls through
    # FunctionElement.compose_affine and GroupQuotient.affine_of; an
    # evaluation path that went round them would zero those metrics
    tracer = _load_tracer()
    gens = gallery.get_presentation("irrational-torus").generators
    pres = GroupQuotient(1, gens, free=True, function_class_degree=2)
    cls = pres.function_class()
    values = {0: cls.parse("x0^2 - a"), 1: cls.parse("x0")}
    t = tracer.Tracer()
    t.install()
    try:
        cech.crossed_value(pres, values, (3, -2))
    finally:
        t.uninstall()
    assert t.stats["cech.crossed_value"].calls == 1
    assert t.stats["funclass.compose_affine"].calls > 0
    assert t.stats["presentation.affine_of"].calls > 0
