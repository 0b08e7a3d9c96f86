"""Import hygiene of the package's modules: every module-level import is
used (the check a linter's unused-import rule would make), every import is
at module level, and no module imports a private name from a sibling."""

import ast
from pathlib import Path

import pytest

import covlearn

MODULES = sorted(
    p for p in Path(covlearn.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in referenced
    ]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


PACKAGE_MODULES = sorted(Path(covlearn.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_imports_are_module_level(path):
    tree = ast.parse(path.read_text())
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert nested == [], f"{path.name} imports inside a function or class: {nested}"


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_no_private_names_from_sibling_modules(path):
    tree = ast.parse(path.read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("covlearn"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports private names: {private}"


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_one_import_statement_per_sibling_module(path):
    tree = ast.parse(path.read_text())
    sources = [
        "." * node.level + (node.module or "")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    repeated = sorted({s for s in sources if sources.count(s) > 1})
    assert repeated == [], f"{path.name} imports more than once from {repeated}"



SEARCH_CONSTANTS = {"PAC_THETA_DIV", "PROPER_THETA_DIV", "PROPER_PHASE_FAILURE"}
NOT_LEARNERS = [p for p in PACKAGE_MODULES if p.name != "learners.py"]


@pytest.mark.parametrize("path", NOT_LEARNERS, ids=lambda p: p.name)
def test_search_constants_stay_in_learners(path):
    # other modules read the search's thresholds and failure split through
    # learners.search_thresholds and the sample counts built on it
    named = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    assert named & SEARCH_CONSTANTS == set(), f"{path.name} names a search constant"
