"""Tests of the benchmark harness itself.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q

The smoke tests run the whole harness on one tiny invocation of each
workload, traced and untraced, in a few seconds each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload: str, trace: int, seed: int = 3) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _span(i, name, start, end, parent):
    return {"id": i, "name": name, "site": name, "start": start, "end": end,
            "parent": parent, "trial": 0}


def test_self_time_of_hand_built_spans():
    tree = [
        _span(0, "cli.main", 0.0, 10.0, None),
        _span(1, "learners.pmac_learn", 1.0, 7.0, 0),
        _span(2, "learners.SparsePolynomial.eval_masks", 2.0, 5.0, 1),
        _span(3, "coverage.walsh_hadamard", 2.5, 4.0, 2),
        _span(4, "learners.SparsePolynomial.eval_masks", 5.5, 6.0, 1),
        _span(5, "serialize.dump_json", 8.0, 9.0, 0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({
        "cli.main": 10.0 - 6.0 - 1.0,
        "learners.pmac_learn": 6.0 - 3.0 - 0.5,
        "learners.SparsePolynomial.eval_masks": (3.0 - 1.5) + 0.5,
        "coverage.walsh_hadamard": 1.5,
        "serialize.dump_json": 1.0,
    })
    # self times partition the root span
    assert sum(got.values()) == pytest.approx(10.0)


def test_benchmark_json_names_the_code_metrics():
    assert SPEC["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert set(run.PER_LAYER) <= set(spans.layer_metrics([], 1.0, 1.0))
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload):
    plain = _smoke(workload, 0)
    traced = _smoke(workload, 1)
    for result, spec in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[spec]}
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
            assert 0 < value["value"] < 2**53


def test_traced_counts_repeat_exactly():
    units = run.PER_LAYER
    first, second = (_smoke("learn-proper", 1)["metrics"] for _ in range(2))
    counts = [
        k for k, unit in units.items()
        if unit == "count"
    ]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {
        k: second[k]["value"] for k in counts
    }


def test_renamed_function_fails_install():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import covlearn.estimation, spans\n"
        "del covlearn.estimation.lattice_search\n"
        "spans.install(spans.Recorder(), 'cli.coverage_from_json')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "src"), BENCH],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "lattice_search" in proc.stderr


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = _bench("--workload", "learn-pmac", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
