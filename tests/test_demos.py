"""The demos import only names that stasep still has.

Running all of them takes about half a minute; parsing their imports takes
milliseconds, and that is enough to catch a demo left behind by a rename or
a deletion."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    for node in ast.walk(ast.parse(demo.read_text(), filename=str(demo))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stasep":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{demo.name}: {node.module} has no {missing}"
