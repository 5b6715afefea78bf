"""Package-wide properties: no bare asserts, one version number."""

import ast
from pathlib import Path

import pytest

import massform

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "massform").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_assert_statements(path):
    # asserts vanish under python -O; theorem checks raise
    # InternalConsistencyError instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert massform.__version__ == project["version"]
