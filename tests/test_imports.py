"""Every module-level import in the package's modules is used: the check a
linter's unused-import rule would make."""

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
