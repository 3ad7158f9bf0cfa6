"""Repository guards: the demos run, and the engine holds no `assert`."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitzcalc

PACKAGE = Path(hurwitzcalc.__file__).resolve().parent
DEMOS = sorted((PACKAGE.parents[1] / "demos").glob("*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)],
                            env={"PYTHONPATH": str(PACKAGE.parent)},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_assert_in_the_engine(module):
    # `python -O` strips asserts; every derivation check is a `require`
    tree = ast.parse(module.read_text(), filename=str(module))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"assert at {module.name} lines {lines}"
