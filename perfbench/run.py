"""covlearn benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload learn-pmac --seed 1 --seconds 35 --trace 0

Each run is one closed-loop caller: it starts one worker process per CLI
invocation and waits for it before starting the next.  Workers run with one
BLAS thread.  The seed chooses the CLI seeds of a fixed plan of invocations
(see workloads.py); the program receives only the generated config.

--trace 0 prints the end-to-end metrics, tracing off:
  setup_s           median over invocations of process start, import of
                    covlearn (numpy, scipy) and writing the config, up to the
                    call into the verb
  run_s             wall seconds of the verb calls, summed over the plan
  trial_s_p50       median of the report rows' runtime_sec
  peak_rss_mb       largest ru_maxrss of an invocation process
  error_mean        mean over trials of the reported error (l1_error or
                    avg_error) plus its reported half-width: the upper end of
                    the error's confidence interval, which an exact fit keeps
                    above 0
  success_fraction  trials that met their contract, out of trials attempted
Trials that raised or whose process crashed are the result's "failed" count
against "attempted".

--trace 1 runs the first half of the workload's plan plus the first
invocation of each other workload, so that every layer is exercised and no
per-layer metric of the result is 0.  Each invocation runs twice, untraced
and traced with spans.py; both must write byte-identical hypothesis or
summary files.  The result holds the PER_LAYER metrics summed over the
traced invocations.  The host line holds each layer's share of the traced
time per workload, and result.json every metric of spans.layer_metrics per
workload, zeros included.

Every run checks each invocation: exit code 0, report.json aggregate.pass,
and the expected hypothesis_NNN.json or summary_NNN.json files.  The last
line of stdout is the result; the line before it holds the host block and
the run's size.  Outputs go to perfbench/_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_runs")
WALL_LIMIT_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import TARGETS_FILE, WORKLOADS, Workload  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "trial_s_p50": "s",
    "peak_rss_mb": "MB",
    "error_mean": "l1",
    "success_fraction": "ratio",
}


# The per-layer metrics of the result: the ones an optimisation of a layer
# moves, each above 0 whenever every workload runs once.  Metrics that are 0
# when all is well (non-optimal LPs, the duality gap) stay in the full set.
PER_LAYER = {
    "estimation.lattice_search_s": "s",
    "estimation.coeff_lookups": "count",
    "estimation.kept_sets": "count",
    "coverage.walsh_hadamard_s": "s",
    "coverage.walsh_hadamard_cells": "count",
    "learners.draw_counts_s": "s",
    "learners.draw_counts_calls": "count",
    "learners.hypothesis_eval_s": "s",
    "cube.sample_masks_s": "s",
    "cube.batch_eval_s": "s",
    "regression.solve_l1_s": "s",
    "regression.rows": "count",
    "regression.nnz": "count",
    "regression.distinct_rows": "count",
    "privacy.query_s": "s",
    "privacy.queries": "count",
    "privacy.distinct_query_masks": "count",
    "serialize.write_s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.covered_fraction": "ratio",
    "trace.slowdown": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


# --------------------------------------------------------------------------
# host


def _cache_sizes() -> dict[str, int]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        if level in ("2", "3"):
            out[f"l{level}_bytes"] = value
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict[str, str]:
    """The environment of a worker: one BLAS thread.  On a 2-CPU host two
    OpenBLAS threads made a PMAC invocation 40% slower than one and left it
    at the mercy of any other busy process."""
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def host_block() -> dict:
    caches = _cache_sizes()
    l2 = caches.get("l2_bytes", 0)
    env = worker_env()
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        **caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "working_set": {
            w.name: {"table_bytes": 8 << w.table_n,
                     "table_fits_l2": 8 << w.table_n <= l2}
            for w in WORKLOADS.values()
        },
    }


# --------------------------------------------------------------------------
# invocations


def invoke(w: Workload, inv: dict, pool: list | None, run_dir: str, tag: str,
           traced: bool, smoke: bool, deadline: float) -> dict:
    """Runs one CLI invocation in its own process and checks its outputs."""
    inv_dir = os.path.join(run_dir, f"{w.name}-{tag}{inv['index']:03d}")
    out_dir = os.path.join(inv_dir, "out")
    os.makedirs(inv_dir)
    target_path = None
    if pool is not None:
        target_path = os.path.join(inv_dir, "target.json")
        with open(target_path, "w") as fh:
            json.dump(pool[inv["index"] % len(pool)], fh)
    job = {
        "src": SRC,
        "verb": w.verb,
        "config": w.cli_config(inv["cli_seed"], target_path, smoke),
        "config_path": os.path.join(inv_dir, "config.json"),
        "out": out_dir,
        "result_path": os.path.join(inv_dir, "result.json"),
        "trace": None,
    }
    if traced:
        job["trace"] = {
            "trial_marker": w.trial_marker,
            "spans_path": os.path.join(inv_dir, "spans.jsonl"),
        }
    job_path = os.path.join(inv_dir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)

    record = {"workload": w.name, "index": inv["index"], "cli_seed": inv["cli_seed"],
              "dir": inv_dir, "ok": False, "rows": [], "problems": []}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        record["problems"].append("not started: run wall limit reached")
        return record
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path],
            cwd=inv_dir, env=worker_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        record["problems"].append(f"timed out after {timeout:.0f} s")
        return record
    if proc.returncode != 0 or not os.path.exists(job["result_path"]):
        tail = proc.stderr.strip().splitlines()[-3:]
        record["problems"].append(f"worker exit {proc.returncode}: {' | '.join(tail)}")
        return record
    with open(job["result_path"]) as fh:
        result = json.load(fh)
    record.update(
        setup_s=result["t_call"] - t_spawn,
        verb_s=result["t_end"] - result["t_call"],
        maxrss_kb=result["maxrss_kb"],
        trace=result.get("trace"),
    )
    if result["rc"] != 0:
        record["problems"].append(f"covlearn exit code {result['rc']}")
    report_path = os.path.join(out_dir, "report.json")
    if not os.path.exists(report_path):
        record["problems"].append("no report.json")
        return record
    with open(report_path) as fh:
        report = json.load(fh)
    record["rows"] = report["rows"]
    if not report["aggregate"]["pass"]:
        record["problems"].append("report aggregate.pass is false")
    for row in report["rows"]:
        if "error" in row:
            record["problems"].append(f"trial {row['trial']}: {row['error']}")
    for name in w.expected_files():
        if not os.path.exists(os.path.join(out_dir, name)):
            record["problems"].append(f"missing {name}")
    record["ok"] = not record["problems"]
    return record


def failed_trials(record: dict) -> int:
    if not record["rows"]:
        return WORKLOADS[record["workload"]].trials
    return sum(1 for row in record["rows"] if "error" in row)


def same_outputs(w: Workload, a: dict, b: dict) -> bool:
    """Byte equality of the hypothesis or summary files of two passing
    invocations."""
    for name in w.expected_files():
        with open(os.path.join(a["dir"], "out", name), "rb") as fa, \
                open(os.path.join(b["dir"], "out", name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


# --------------------------------------------------------------------------
# metrics


def end_to_end(records: list[dict], attempted: int) -> dict[str, float]:
    done = [r for r in records if "verb_s" in r]
    rows = [row for r in records for row in r["rows"] if "error" not in row]
    errors = [
        row.get("l1_error", row.get("avg_error")) + row["l1_half_width"]
        for row in rows
    ]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in done) if done else 0.0,
        "run_s": sum(r["verb_s"] for r in done),
        "trial_s_p50": statistics.median(row["runtime_sec"] for row in rows)
        if rows else 0.0,
        "peak_rss_mb": max((r["maxrss_kb"] for r in done), default=0) / 1024.0,
        "error_mean": statistics.fmean(errors) if errors else 0.0,
        "success_fraction": sum(1 for row in rows if row["success"]) / attempted,
    }


def load_pool(w: Workload, smoke: bool) -> list | None:
    key = w.pool_key(smoke)
    if key is None:
        return None
    with open(os.path.join(HERE, TARGETS_FILE)) as fh:
        return json.load(fh)[key]


def traced_plan(w: Workload, seed: int, seconds: float,
                smoke: bool) -> list[tuple[Workload, dict]]:
    """The first half of the workload's plan, then the first invocation of
    every other workload, so that each layer runs in every traced run."""
    own = w.plan(seed, seconds, smoke)
    jobs = [(w, inv) for inv in own[: max(1, len(own) // 2)]]
    jobs += [(o, o.plan(seed, seconds, smoke)[0])
             for o in WORKLOADS.values() if o is not w]
    return jobs


def layer_share(metrics: dict[str, float]) -> dict[str, float]:
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    return {layer: metrics[f"{layer}.self_s"] / total if total else 0.0
            for layer in spans.LAYERS}


def run_traced(w: Workload, seed: int, seconds: float, smoke: bool, run_dir: str,
               deadline: float) -> tuple[list[dict], list[str], dict, dict]:
    """Runs the traced plan; returns the records, the problems, the result's
    per-layer metrics and every layer metric per workload."""
    plain, traced_recs, problems = [], [], []
    pools: dict[str, list | None] = {}
    for o, inv in traced_plan(w, seed, seconds, smoke):
        if o.name not in pools:
            pools[o.name] = load_pool(o, smoke)
        a = invoke(o, inv, pools[o.name], run_dir, "plain", False, smoke, deadline)
        b = invoke(o, inv, pools[o.name], run_dir, "traced", True, smoke, deadline)
        plain.append(a)
        traced_recs.append(b)
        if a["ok"] and b["ok"] and not same_outputs(o, a, b):
            problems.append(f"{o.name} invocation {inv['index']}: traced and "
                            "untraced outputs differ")

    def metrics_of(keep) -> dict[str, float]:
        pairs = [(a, b) for a, b in zip(plain, traced_recs) if keep(b)]
        return spans.layer_metrics(
            [b["trace"] for _, b in pairs if b.get("trace")],
            sum(b.get("verb_s", 0.0) for _, b in pairs),
            sum(a.get("verb_s", 0.0) for a, _ in pairs),
        )

    by_workload = {}
    for name in pools:
        mine = [r for r in traced_recs if r["workload"] == name]
        if all(r.get("trace") for r in mine):
            hit = set().union(*(r["trace"]["hits"] for r in mine))
            missing = [site for site in WORKLOADS[name].expect if site not in hit]
            if missing:
                raise BenchError(f"{name}: traced sites never hit: {', '.join(missing)}")
        layers = metrics_of(lambda r, name=name: r["workload"] == name)
        by_workload[name] = {"layer_share": layer_share(layers), "metrics": layers}
    metrics = metrics_of(lambda r: True)
    return plain + traced_recs, problems, metrics, by_workload


def run(w: Workload, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    deadline = time.monotonic() + WALL_LIMIT_S
    run_dir = os.path.join(WORK, f"{w.name}-seed{seed}-trace{int(traced)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    by_workload = None
    if not traced:
        pool = load_pool(w, smoke)
        records = [invoke(w, inv, pool, run_dir, "inv", False, smoke, deadline)
                   for inv in w.plan(seed, seconds, smoke)]
        problems: list[str] = []
        metrics = end_to_end(records, w.trials * len(records))
        units = END_TO_END
    else:
        records, problems, metrics, by_workload = run_traced(
            w, seed, seconds, smoke, run_dir, deadline)
        units = PER_LAYER

    for r in records:
        problems.extend(f"{r['workload']} invocation {r['index']}: {p}"
                        for p in r["problems"])
    attempted = sum(WORKLOADS[r["workload"]].trials for r in records)
    failed = sum(failed_trials(r) for r in records)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    info = {
        "host": host_block(),
        "run": {
            "workload": w.name,
            "seed": seed,
            "trace": int(traced),
            "invocations": len(records),
            "trials": attempted,
            "problems": problems,
        },
    }
    if by_workload is not None:
        info["layer_share"] = {k: v["layer_share"] for k, v in by_workload.items()}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({**info, "layers": by_workload, "result": result,
                   "invocations": records}, fh, indent=1)
    for r in records:
        shutil.rmtree(os.path.join(r["dir"], "out"), ignore_errors=True)
    print(json.dumps(info))
    # a metric at 0 means a layer that was never measured
    zero = [k for k, m in result["metrics"].items()
            if not (math.isfinite(m["value"]) and m["value"] > 0)]
    if zero and not problems:
        raise BenchError(f"metrics not above 0: {', '.join(zero)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny invocation, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # a terminated run raises, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.exists(os.path.join(SRC, "covlearn", "cli.py")):
        print(f"error: no covlearn sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
