"""The package contract: the standard library only, no floating point, and
a light start-up."""

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
