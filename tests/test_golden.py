"""Golden outputs: the CLI run in-process over a fixed matrix of small
configs at CLI seeds 101 and 202, checked against tests/golden/manifest.json.

Each run records its exit code, stdout, stderr, the SHA-256 of every file it
writes apart from the reports, and the SHA-256 of its report rows (without
runtime_sec) and aggregate.  The hashes are compared only on the numpy and
scipy versions the manifest was made with; on other versions two in-process
runs must still agree byte for byte, and the test says that it skipped the
hashes.

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
import tempfile
from pathlib import Path

import numpy as np
import scipy

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
        # 2^13 cells: draw_counts draws the table as two blocks
        "learn-pac-n13": _learn("pac", 13, {"epsilon": 0.4}),
        "learn-pmac": _learn("pmac", 6, {"gamma": 0.5, "delta": 0.2}),
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


def _run_one(work: Path, name: str, verb: str, cfg: dict, seed: int) -> dict:
    cfg_path = work / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work / f"{name}-{seed}"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(
            [verb, "--config", str(cfg_path), "--seed", str(seed), "--out", str(out)]
        )
    entry = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
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
