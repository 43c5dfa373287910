"""The package contract: the standard library only, no floating point, a
light start-up, and no code or parameter default under src/ that nothing
calls or sets."""

import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import diffcech

MODULES = sorted(Path(diffcech.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_stdlib_only_and_no_floats(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            roots = [] if node.level else [node.module.split(".")[0]]
        else:
            roots = []
        for root in roots:
            assert root in sys.stdlib_module_names or root == "diffcech", (
                f"{path.name}:{node.lineno} imports {root}")
        assert not (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))), (
            f"{path.name}:{node.lineno} has a float literal")
        assert not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"), (
            f"{path.name}:{node.lineno} calls float")


# CPython's parser keeps a module's tokens in an array that doubles in size;
# at 8,192 tokens the peak of compile() rises by about 0.5 MB, which shows in
# the peak RSS of every process that imports the module from source
MAX_PARSER_TOKENS = 8192
NOT_PARSED = (tokenize.NL, tokenize.COMMENT, tokenize.ENCODING)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_below_the_parser_token_step(path):
    with path.open("rb") as f:
        count = sum(1 for tok in tokenize.tokenize(f.readline)
                    if tok.type not in NOT_PARSED)
    assert count < MAX_PARSER_TOKENS, (
        f"{path.name} has {count} parser tokens; split it or trim it below "
        f"{MAX_PARSER_TOKENS}")


def test_import_pulls_in_no_introspection_modules():
    # dataclasses imports inspect, which imports ast, dis and tokenize
    code = ("import sys, diffcech\n"
            "from diffcech import gallery\n"
            "gallery.names()\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(diffcech.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# functions and methods under src/ that nothing in src/ calls and __init__.py
# does not export, each with the reason it stays
UNCALLED = {
    "bundle.BundlePresentation.tau0":
        "the canonical trivialization y |-> [y, 0] that cocycle_from_bundle "
        "is stated against",
    "bundle.BundlePresentation.point":
        "builds the fiber point [y, g] that division and act take",
    "bundle.BundlePresentation.act":
        "the right G-action [y, h].g = [y, h + g] of the principal bundle",
    "cech.GroupHom.reduction":
        "the reduction Z -> Z/m that push_coefficients is given",
    "cech.CohomologyReport.is_zero_class":
        "the class test of a report, beside class_coordinates",
    "cech.random_cocycle":
        "draws the cocycles of the benchmark workloads",
    "linalg.rank":
        "perfbench/tracer.py wraps it by name until it reads in-package spans "
        "(ROADMAP item 2, stage b)",
    "gallery.full_variant":
        "gallery example: the repeats-allowed twin of a nerve",
    "gallery.circle_double_cover":
        "gallery example: the morphism of the pullback acceptance criterion",
    "gallery.circle_refinement":
        "gallery example: a common refinement of two circle covers",
    "gallery.line_to_irrational_torus":
        "gallery example: the cover R -> T_alpha that bundles pull back along",
    "serialize.cochain_document_to_dict":
        "writes the cochain document that cochain_document_from_dict reads",
}


def _defs():
    """(module.qualname, node, is_method) of every module-level function and
    method under src/, with the parsed modules."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in MODULES}
    defs = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{mod}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{mod}.{node.name}.{sub.name}", sub, True)
                         for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
    return trees, defs


def _references(trees):
    """Each attribute ("attr") and plain ("name") reference in src/, keyed by
    kind and name, as the list of (module, the set of defs it sits in, and
    for an attribute of a plain name that name)."""
    refs = {}

    def visit(mod, n, inside):
        if isinstance(n, ast.Attribute):
            base = n.value.id if isinstance(n.value, ast.Name) else None
            refs.setdefault(("attr", n.attr), []).append((mod, inside, base))
        elif isinstance(n, ast.Name):
            refs.setdefault(("name", n.id), []).append((mod, inside, None))
        if isinstance(n, ast.FunctionDef):
            inside = inside | {n}
        for child in ast.iter_child_nodes(n):
            visit(mod, child, inside)

    for mod, tree in trees.items():
        visit(mod, tree, frozenset())
    return refs


def _from_imports(trees):
    """{module: the (source module, name) pairs it from-imports} in src/."""
    return {mod: {(n.module.rpartition(".")[2], a.name)
                  for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) and n.module
                  for a in n.names}
            for mod, tree in trees.items()}


def test_every_function_has_a_caller():
    trees, defs = _defs()
    exported = {f"{n.module}.{a.name}" for n in trees["__init__"].body
                if isinstance(n, ast.ImportFrom) for a in n.names}
    names = {name for name, _, _ in defs}
    assert set(UNCALLED) <= names, set(UNCALLED) - names
    refs = _references(trees)
    imports = _from_imports(trees)

    def called(name, node, is_method):
        # outside its own def: for a method, an attribute reference of its
        # name; for a function, its plain name in its own module or in one
        # that from-imports it, or an attribute of its module's name
        mod = name.split(".")[0]
        if is_method:
            return any(node not in inside
                       for _, inside, _ in refs.get(("attr", node.name), ()))
        return (any(node not in inside and base == mod
                    for _, inside, base in refs.get(("attr", node.name), ()))
                or any(node not in inside and (
                    user == mod or (mod, node.name) in imports[user])
                    for user, inside, _ in refs.get(("name", node.name), ())))

    uncalled = {name for name, node, is_method in defs
                if not (node.name.startswith("__")
                        and node.name.endswith("__"))
                and name not in exported
                and not called(name, node, is_method)}
    assert uncalled - set(UNCALLED) == set(), (
        "no caller in src/: delete these, move them into the tests that use "
        "them, or list them in UNCALLED with the reason they stay")
    assert set(UNCALLED) - uncalled == set(), (
        "these have a caller now: take them off UNCALLED")


# parameter defaults under src/ that no call in src/ passes, by position or
# by keyword, each with the reason the parameter stays
UNSET = {
    "bundle.cocycle_from_bundle(alpha)":
        "the shift of the trivialization tau_alpha, whose cocycle is "
        "f + d(alpha); acceptance criterion and benchmark workload pass it",
    "cech.random_cocycle(distinguished)":
        "adds multiples of given classes to the random coboundary; the "
        "benchmark workloads draw cocycles in nonzero classes with it",
    "cli.run(out)":
        "the stream a report is written to; the tests capture it",
    "coeff.Scalar.__init__(den)":
        "the denominator of the public constructor Scalar(num, den); src/ "
        "builds reduced scalars through _make, the tests through Scalar",
    "presentation.FiniteNerve.from_facets(alternating)":
        "the nerve model; the tests build repeats-allowed nerves with it",
    "presentation.circle_arc_nerve(alternating)":
        "the nerve model; the tests build repeats-allowed circles with it",
}


def _set_by(call, index, arg):
    """Whether a call passes the parameter at position index (None when it
    is keyword-only) named arg."""
    if any(k.arg in (arg, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return (len(call.args) > index
            or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_default_is_set_by_a_caller():
    trees, defs = _defs()
    calls = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(
                    n.func, (ast.Name, ast.Attribute)):
                name = (n.func.id if isinstance(n.func, ast.Name)
                        else n.func.attr)
                calls.setdefault(name, []).append(n)
    unset = set()
    for name, node, is_method in defs:
        a = node.args
        # a constructor call is a call of __init__; a bound call passes
        # self or cls itself
        callee = name.split(".")[1] if node.name == "__init__" else node.name
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in node.decorator_list)
        shift = 1 if is_method and not static else 0
        params = a.posonlyargs + a.args
        first = len(params) - len(a.defaults)
        defaulted = [(i - shift, p.arg) for i, p in enumerate(params)
                     if i >= first]
        defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
        unset |= {f"{name}({arg})" for index, arg in defaulted
                  if not any(_set_by(c, index, arg)
                             for c in calls.get(callee, ()))}
    assert unset - set(UNSET) == set(), (
        "no call in src/ sets these defaults: drop the parameter, or list it "
        "in UNSET with the reason it stays")
    assert set(UNSET) - unset == set(), (
        "a call in src/ sets these now: take them off UNSET")
