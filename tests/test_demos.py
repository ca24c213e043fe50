"""The demos import only names that stasep still has, and each runs to
exit 0.

Parsing their imports takes milliseconds and names a demo left behind by a
rename or a deletion; running them catches a demo that raises."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stasep

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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = str(Path(stasep.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
