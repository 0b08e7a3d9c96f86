"""Import hygiene of the package's modules: every module-level import is
used (the check a linter's unused-import rule would make), every import is
at module level, and no module imports a private name from a sibling.  The
CLI imports no scipy until an LP loads scipy's HiGHS extension, without
scipy.optimize, and the process then holds one such module whichever of the
two comes first.  Every module-qualified name README puts in backticks
resolves."""

import ast
import functools
import importlib
import importlib.machinery
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import covlearn
from covlearn import regression

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


README = Path(__file__).resolve().parent.parent / "README.md"
QUALIFIED = re.compile(
    r"(?:covlearn\.)?({})((?:\.\w+)*)".format("|".join(p.stem for p in MODULES))
)


def test_readme_names_resolve():
    # such as `cube.cell_index` or `covlearn.learners.UniformTableOracle.draw`
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    names = sorted({s for s in spans if "." in s and QUALIFIED.fullmatch(s)})
    assert len(names) >= 20
    missing = []
    for name in names:
        module, attrs = QUALIFIED.fullmatch(name).groups()
        try:
            obj = importlib.import_module(f"covlearn.{module}")
            functools.reduce(getattr, attrs.split(".")[1:], obj)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == [], f"README names what the package does not have: {missing}"


def _python(script: str, *args: str) -> str:
    """Runs script in a fresh interpreter that imports covlearn from the
    tree under test; returns its stdout, stripped."""
    src = os.path.dirname(os.path.dirname(covlearn.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_out_scipy_optimize(tmp_path):
    # neither the import nor a verb that solves no LP, such as PMAC
    # learning, imports scipy or loads the binding
    cfg = {"learner": "pmac", "n": 6, "seed": 4, "trials": 1, "eval_samples": 2000,
           "target": {"max_terms": 3, "max_arity": 2},
           "params": {"gamma": 0.5, "delta": 0.2}}
    cfg_path = tmp_path / "pmac.json"
    cfg_path.write_text(json.dumps(cfg))
    script = (
        "import json, sys, covlearn.cli\n"
        "names = ('scipy', 'scipy.optimize', covlearn.regression.HIGHS_MODULE)\n"
        "before = [name for name in names if name in sys.modules]\n"
        "code = covlearn.cli.main(sys.argv[1:])\n"
        "after = [name for name in names if name in sys.modules]\n"
        "print(json.dumps([before, code, after]))\n"
    )
    args = ["learn", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    before, code, after = json.loads(_python(script, *args).splitlines()[-1])
    assert (before, code, after) == ([], 0, [])


HIGHS_CHECK = """
import importlib, sys
import numpy as np
for name in sys.argv[1:]:
    if name == "lp":  # covlearn solves an LP through HiGHS before scipy loads
        from covlearn import regression
        # one column cannot fit targets 0 and 1 at x = 1 and x = 2
        p = regression.L1Problem(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]))
        assert regression.solve_l1(p).objective == 0.25
        assert regression._highs.cache_info().currsize == 1
        assert "scipy.optimize" not in sys.modules
    else:
        importlib.import_module(name)
import scipy.optimize._highspy._core as core
from covlearn import regression
from scipy.optimize import linprog
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
chain = sys.modules["scipy"].optimize._highspy._core is core
print(core is regression.highs, chain, res.status, res.fun)
"""


@pytest.mark.parametrize(
    "order",
    [
        ("covlearn.cli", "scipy.optimize"),
        ("scipy.optimize", "covlearn.cli"),
        ("covlearn.cli", "lp", "scipy.optimize"),
    ],
    ids=["covlearn-first", "scipy-first", "covlearn-lp-first"],
)
def test_one_highs_module_in_either_import_order(order):
    assert _python(HIGHS_CHECK, *order) == "True True 0 1.0"


def test_highs_module_is_an_attribute_of_its_package():
    # covlearn loads the extension, on its first use, before its packages
    # exist; importing it by name afterwards runs them, and the package
    # holds covlearn's module
    script = (
        "import covlearn.cli, scipy\n"
        "covlearn.regression.highs\n"
        "import scipy.optimize._highspy._core\n"
        "print(scipy.optimize._highspy._core is covlearn.regression.highs)"
    )
    assert _python(script) == "True"


def test_missing_highs_extension_names_its_folder(monkeypatch):
    # registered only once scipy.optimize imports it
    monkeypatch.delitem(sys.modules, regression.HIGHS_MODULE, raising=False)
    monkeypatch.setattr(
        importlib.machinery.PathFinder, "find_spec", lambda *args, **kwargs: None
    )
    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    with pytest.raises(ImportError, match=f"in {folder}$"):
        regression._load_highs()


def test_failed_highs_load_is_not_kept():
    # the accessor keeps its module for the process, so a fresh interpreter
    # shows that a load that raised is tried again once the finder is back
    script = """
import importlib.machinery, scipy
from unittest import mock
from covlearn import regression
finder = importlib.machinery.PathFinder
with mock.patch.object(finder, "find_spec", lambda *args, **kwargs: None):
    try:
        regression._highs()
    except ImportError as exc:
        print("raised", exc.name)
print(regression._highs() is regression.highs, regression.highs.__name__)
"""
    assert _python(script).splitlines() == [
        f"raised {regression.HIGHS_MODULE}",
        f"True {regression.HIGHS_MODULE}",
    ]
