"""The package contract: the standard library only, and no floating point."""

import ast
import sys
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
