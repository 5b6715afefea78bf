"""Package-wide properties: no bare asserts, no unused imports, one
version number, immutable values, `dataclasses` in one module only, and
ramification data validated by its constructor only."""

import ast
import importlib
from pathlib import Path

import pytest

import massform
from massform.record import Record

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


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(massform.__all__)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path)
    assert unused == [], f"{path.name}: unused imports (line, name) {unused}"


def _value_field_names() -> set[str]:
    """The compared fields of every record class."""
    for path in SOURCES:
        # as massform: a second package root massform.__init__ would answer
        # hasattr probes through its own __getattr__ and fail
        importlib.import_module(f"massform.{path.stem}".removesuffix(".__init__"))
    return set().union(*(cls._fields for cls in Record.__subclasses__()))


def _target_nodes(target):
    """The nodes of an assignment target, less the index expressions of
    its subscripts: `counts[p.degree] = n` binds no attribute `degree`."""
    yield target
    for child in ast.iter_child_nodes(target):
        if not (isinstance(target, ast.Subscript) and child is target.slice):
            yield from _target_nodes(child)


def _series_attribute_bindings(path, names):
    """(line, code) of each statement outside a constructor that binds an
    attribute named in `names`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    in_constructor = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        for sub in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in in_constructor:
            continue
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            if any(
                isinstance(sub, ast.Attribute) and sub.attr in names
                for target in targets
                for sub in _target_nodes(target)
            ):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func, name = node.func, node.args[1]
            setter = getattr(func, "id", None) == "setattr" or getattr(func, "attr", None) == "__setattr__"
            if setter and isinstance(name, ast.Constant) and name.value in names:
                found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_series_attributes_are_bound_only_in_constructors(path):
    # the records (TruncatedSeriesFq among them) are hashed by value but,
    # for speed, do not forbid rebinding their fields; nothing in the
    # package may rebind them (a record's memos are not among the names)
    found = _series_attribute_bindings(path, _value_field_names())
    assert found == [], f"{path.name}: series attribute bound at {found}"


def test_dataclasses_is_imported_by_the_matrix_models_only():
    # every other module would put its 8-10 ms import, inspect included,
    # on commands that never run a model check
    importers = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules or "inspect" in modules:
                importers.setdefault(path.name, []).append(node.col_offset)
    # col_offset 0: at the top of the module, never inside a function
    assert importers == {"localmodels.py": [0]}


def _callers_of(name: str) -> list[tuple[str, str]]:
    """(module file, enclosing qualified name) of every call to `name`,
    as a bare name or as an attribute."""
    callers = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, (*scope, child.name))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    callers.append((path.name, ".".join(scope)))
            visit(child, path, scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), path, ())
    return callers


def test_ramification_data_is_validated_by_its_constructor_only():
    # a datum is valid by construction; no engine or command checks again
    assert _callers_of("validate") == [("csa.py", "RamificationData.__init__")]
    assert [path.name for path in SOURCES if "ensure_valid" in path.read_text()] == []
