"""Golden outputs: the CLI run in-process over a fixed matrix of small
configs at CLI seeds 101 and 202, checked against tests/golden/manifest.json.

Each run records its exit code, stdout, stderr, the SHA-256 of every file it
writes apart from the reports, and the SHA-256 of its report rows (without
runtime_sec) and aggregate.  It also records how many LPs it hands to
HiGHS and one SHA-256 over every run's inputs (the model's costs, column
and row bounds and CSC arrays, the options and the count of columns whose
upper-bound duals are read), so a change that alters an LP without altering
an output still shows.  The hashes are compared only on the numpy and scipy
versions the manifest was made with; on other versions two in-process runs
must still agree byte for byte, and the test says that it skipped the
hashes.

A second test runs every config for one trial with child_rng spied at each
covlearn module that binds it, and checks that no (seed, path) stream is
opened twice in one run: no two consumers share a stream.  A third runs each
config in a fresh interpreter and checks which modules the verb imports
that `import covlearn.cli` did not: none when the manifest records no LP for
the run, and otherwise only the HiGHS binding and the modules under it,
which the first LP loads.

After an intended change of outputs, regenerate the manifest with

    PYTHONPATH=src python tests/golden/regenerate.py

and list the changed entries in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
import scipy

from covlearn import cube, regression
from covlearn.cli import main

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"
SEEDS = (101, 202)
REPORTS = ("report.json", "report.csv")

_TARGET = {"max_terms": 3, "max_arity": 2}
_PRODUCT = {"variant": "product", "biases": [0.3, 0.5, 0.6, 0.7]}


def _learn(learner: str, n: int, params: dict, **extra) -> tuple[str, dict]:
    cfg = {"learner": learner, "n": n, "eval_samples": 2000, "params": params}
    if learner != "dnf-reduction":
        cfg["target"] = _TARGET
    return "learn", dict(cfg, **extra)


def _release(
    variant: str, alpha_bar: float, dataset: dict, **extra
) -> tuple[str, dict]:
    cfg = {
        "release": variant,
        "alpha_bar": alpha_bar,
        "epsilon": 1.0,
        "delta": 0.1,
        "eval_queries": 500,
        "dataset": dataset,
    }
    return "release", dict(cfg, **extra)


def matrix(work: Path) -> dict[str, tuple[str, dict]]:
    """Entry name -> (verb, config).  The empty-synthetic entry reads a
    dataset file of all -1 rows, written into work."""
    ones = work / "ones.txt"
    ones.write_text("11111\n" * 60)
    return {
        "learn-pac": _learn("pac", 6, {"epsilon": 0.4}, trials=2),
        # 2^13 cells: the matrix's table of 2^13 cells or more
        "learn-pac-n13": _learn("pac", 13, {"epsilon": 0.4}),
        "learn-pmac": _learn("pmac", 6, {"gamma": 0.5, "delta": 0.2}),
        # 2^15 cells: a dense table and transform of two blocks, and a check
        # that samples its 2,000 masks
        "learn-pmac-n15": _learn("pmac", 15, {"gamma": 0.5, "delta": 0.2}),
        "learn-proper": _learn("proper", 5, {"epsilon": 0.4, "size_bound": 2}),
        "learn-agnostic-uniform": _learn("agnostic", 4, {"epsilon": 0.5}),
        "learn-agnostic-product": _learn(
            "agnostic", 4, {"epsilon": 0.5, "noise_scale": 0.05}, distribution=_PRODUCT
        ),
        "learn-agnostic-layer": _learn(
            "agnostic", 4, {"epsilon": 0.5},
            distribution={"variant": "layer", "n": 4, "k": 2},
        ),
        "learn-agnostic-symmetric": _learn(
            "agnostic", 4, {"epsilon": 0.6},
            distribution={"variant": "symmetric", "weights": [0, 0.2, 0.5, 0.3, 0]},
        ),
        "learn-proper-agnostic": _learn(
            "proper-agnostic", 4, {"epsilon": 0.6, "kappa": 0.3}, distribution=_PRODUCT
        ),
        "learn-dnf-reduction": _learn(
            "dnf-reduction", 5, {"s": 2, "epsilon": 0.1, "inner": "exact"}
        ),
        "release-all-marginals": _release(
            "all-marginals", 0.5, {"n": 5, "gate_factor": 1}
        ),
        "release-k-way": _release("k-way", 0.9, {"n": 4, "gate_factor": 1}, k=2),
        "release-synthetic": _release(
            "synthetic", 0.9, {"n": 4, "gate_factor": 1}, size_bound=5
        ),
        "release-synthetic-empty": _release(
            "synthetic", 0.9, {"path": str(ones)}, epsilon=math.inf, size_bound=1
        ),
        "release-gate-refused": _release(
            "all-marginals", 0.25, {"n": 5, "size": 100}
        ),
        "generate": (
            "generate",
            {
                "coverage": {"n": 6, "max_terms": 4, "max_arity": 3, "count": 2},
                "dataset": {"distribution": _PRODUCT, "size": 50},
            },
        ),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _feed(h, value) -> None:
    """Adds one value to the hash h: an array or a list of numbers by its
    dtype, shape and bytes, anything else (a size, the matrix format, the
    options) by its repr."""
    if isinstance(value, (list, np.ndarray)):
        array = np.asarray(value)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    else:
        h.update(repr(value).encode())


def _lp_spy():
    """A stand-in for regression._run_highs that hashes every run's inputs,
    in call order, then runs HiGHS; returns it and its record."""
    record = {"calls": 0, "hash": hashlib.sha256()}
    solve = regression._run_highs

    def spy(lp, options, bounded):
        record["calls"] += 1
        a = lp.a_matrix_
        for value in (
            lp.num_col_, lp.num_row_, a.format_, a.start_, a.index_, a.value_,
            lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_,
            lp.row_upper_, options, bounded,
        ):
            _feed(record["hash"], value)
        return solve(lp, options, bounded)

    return spy, record


def _run_one(work: Path, name: str, verb: str, cfg: dict, seed: int) -> dict:
    cfg_path = work / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work / f"{name}-{seed}"
    stdout, stderr = io.StringIO(), io.StringIO()
    spy, lps = _lp_spy()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.object(regression, "_run_highs", spy):
        code = main(
            [verb, "--config", str(cfg_path), "--seed", str(seed), "--out", str(out)]
        )
    entry = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    entry["lp"] = {"calls": lps["calls"], "sha256": lps["hash"].hexdigest()}
    entry["files"] = {
        p.name: _sha256(p.read_bytes())
        for p in sorted(out.iterdir())
        if p.name not in REPORTS
    }
    report = out / "report.json"
    if report.exists():
        payload = json.loads(report.read_text())
        for row in payload["rows"]:
            row.pop("runtime_sec", None)
        del payload["config"]  # it may hold a path under work
        entry["report"] = _sha256(json.dumps(payload, sort_keys=True).encode())
    return entry


def run_matrix() -> dict[str, dict]:
    """Every matrix entry at every seed, keyed "name@seed"."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        return {
            f"{name}@{seed}": _run_one(work, name, verb, cfg, seed)
            for name, (verb, cfg) in matrix(work).items()
            for seed in SEEDS
        }


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def test_outputs_match_the_golden_manifest():
    manifest = json.loads(MANIFEST.read_text())
    runs = run_matrix()
    if manifest["versions"] != versions():
        assert run_matrix() == runs, "two in-process runs differ"
        print(
            f"golden hashes skipped: manifest made with {manifest['versions']}, "
            f"running {versions()}; checked that two runs agree instead"
        )
        return
    assert sorted(runs) == sorted(manifest["runs"])
    for key, entry in runs.items():
        assert entry == manifest["runs"][key], key


def test_matrix_covers_the_verbs_and_exit_codes():
    manifest = json.loads(MANIFEST.read_text())["runs"]
    assert {e["exit"] for e in manifest.values()} == {0, 3}
    written = {f.split("_")[0] for e in manifest.values() for f in e["files"]}
    assert {"hypothesis", "summary", "synthetic", "target", "dataset.txt"} <= written


@contextlib.contextmanager
def _stream_audit():
    """Patches child_rng at every covlearn module binding with a spy and
    yields a Counter of the (seed, *path) streams it opens."""
    opened = Counter()
    real = cube.child_rng

    def spy(seed, *path):
        opened[(seed, *path)] += 1
        return real(seed, *path)

    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            bound = getattr(module, "child_rng", None)
            if name.split(".")[0] == "covlearn" and bound is real:
                stack.enter_context(mock.patch.object(module, "child_rng", spy))
        yield opened


@pytest.mark.parametrize("seed", SEEDS)
def test_no_two_consumers_share_a_stream(tmp_path, seed):
    """Every golden config, one trial each: no (seed, path) is opened twice."""
    shared = {}
    for name, (verb, cfg) in matrix(tmp_path).items():
        if verb != "generate":
            cfg = dict(cfg, trials=1)
        with _stream_audit() as opened:
            _run_one(tmp_path, name, verb, cfg, seed)
        assert opened, name
        twice = sorted(key for key, count in opened.items() if count > 1)
        if twice:
            shared[f"{name}@{seed}"] = twice
    assert not shared


FRESH_RUN = """
import json, sys
import covlearn.cli
before = set(sys.modules)
covlearn.cli.main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_no_verb_imports_a_module(tmp_path):
    """A verb that hands no LP to HiGHS imports nothing; one that does
    imports only the binding, regression.HIGHS_MODULE, and names under it."""
    src = os.path.dirname(os.path.dirname(cube.__file__))
    manifest = json.loads(MANIFEST.read_text())["runs"]
    binding = regression.HIGHS_MODULE
    gained, lp_runs = {}, 0
    for name, (verb, cfg) in matrix(tmp_path).items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [verb, "--config", str(cfg_path), "--seed", str(SEEDS[0]),
                "--out", str(tmp_path / name)]
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_RUN, *argv], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        modules = json.loads(proc.stdout.splitlines()[-1])
        if manifest[f"{name}@{SEEDS[0]}"]["lp"]["calls"] > 0:
            lp_runs += 1
            modules = [
                m for m in modules if m != binding and not m.startswith(binding + ".")
            ]
        if modules:
            gained[name] = modules
    assert not gained
    assert lp_runs > 0  # the matrix holds a run that loads the binding


# an exact agnostic fit whose design, 4,096 distinct points by 299 parities,
# is large enough for BLAS to split its products between threads
_AGNOSTIC_N12 = ("learn", {"learner": "agnostic", "n": 12, "trials": 1,
                           "target": {"max_terms": 8, "max_arity": 3},
                           "params": {"epsilon": 0.5}})


@pytest.mark.parametrize(
    "name", ["learn-proper", "learn-agnostic-n12", "release-k-way"]
)
def test_blas_threads_leave_the_hypotheses_unchanged(tmp_path, name):
    """The median fit solves least squares with BLAS: a proper and an
    agnostic fit write the same hypotheses, and a k-way release the same
    summaries, byte for byte, under one OpenBLAS thread as under two."""
    src = os.path.dirname(os.path.dirname(cube.__file__))
    verb, cfg = dict(matrix(tmp_path), **{"learn-agnostic-n12": _AGNOSTIC_N12})[name]
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    written = set()
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        argv = [verb, "--config", str(cfg_path), "--seed", str(SEEDS[0]),
                "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_RUN, *argv], capture_output=True,
            text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        pattern = "summary_*.json" if verb == "release" else "hypothesis_*.json"
        files = sorted(out.glob(pattern))
        assert files
        written.add(tuple((p.name, p.read_bytes()) for p in files))
    assert len(written) == 1
