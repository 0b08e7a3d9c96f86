"""Experiment driver: generate targets and datasets, run learners and
release algorithms from JSON configs, evaluate hypotheses, emit reports.

Verbs: generate | learn | release | selftest.  Exit codes: 0 pass,
1 contract failure, 2 usage, schema or out-of-range config error,
3 privacy-gate refusal.
Everything is deterministic in (config, seed); trials use disjoint child
seeds, and report rows are ordered by trial index.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coverage import (
    CoverageFunction,
    dense_table,
    exact_fourier,
    hoeffding_half_width,
    junta_variables,
    l1_distance_mc,
    average_project,
    random_coverage,
)
from .cube import (
    MAX_COMPACT_N,
    DistributionSpec,
    IndexSet,
    cell_index,
    child_rng,
    child_seed,
    format_point_line,
    sample_masks,
)
from .estimation import exact_source, lattice_search
from .learners import (
    DIRECT_DRAW_CAP,
    OracleExhausted,
    SampledOracle,
    UniformTableOracle,
    agnostic_learn,
    dnf_reduction_learn,
    dnf_to_coverage,
    pac_learn_uniform,
    pmac_learn,
    proper_agnostic_learn,
    proper_pac_learn,
    random_disjoint_dnf,
)
from .privacy import (
    BudgetExhausted,
    Dataset,
    GateRefused,
    all_conjunction_answers,
    coverage_of_dataset,
    gate_size,
    k_way_query_budget,
    marginals_query_budget,
    release_all_marginals,
    release_k_way,
    release_synthetic,
    synthetic_query_budget,
)
from .regression import L1Problem, LPNotOptimal, solve_l1
from .serialize import (
    DATASET_EXPANSION_CAP,
    as_integer,
    coverage_from_json,
    coverage_to_json,
    dataset_from_text,
    dataset_to_text,
    dump_json,
    hypothesis_to_json,
    load_json,
    summary_to_json,
)

EXIT_PASS = 0
EXIT_CONTRACT = 1
EXIT_USAGE = 2
EXIT_GATE = 3

LEARNER_NAMES = ("pac", "pmac", "proper", "agnostic", "proper-agnostic", "dnf-reduction")
RELEASE_NAMES = ("all-marginals", "k-way", "synthetic")
DEFAULT_EVAL_SAMPLES = 100_000
DEFAULT_EVAL_QUERIES = 10_000
SUCCESS_THRESHOLD = 2.0 / 3.0
REPORT_COLUMNS = (  # report.csv columns, in order; those no row has are left out
    "trial", "seed", "l1_error", "l1_half_width", "mult_fraction", "avg_error",
    "samples", "privacy_budget", "runtime_sec", "success",
)


class SchemaError(ValueError):
    """Config does not match the expected schema."""


@contextlib.contextmanager
def _reading():
    """An OSError raised while reading a config or input path, or creating
    the output directory, is a usage error; its message names the path."""
    try:
        yield
    except OSError as exc:
        raise SchemaError(str(exc)) from exc


def _get(cfg: dict, key: str, kind, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise SchemaError(f"missing required field {key!r}")
        return default
    value = cfg[key]
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"field {key!r}: {exc}") from exc


def _count(cfg: dict, key: str, default=None, required: bool = False) -> int:
    value = _get(cfg, key, as_integer, default, required)
    if value < 1:
        raise SchemaError(f"field {key!r}: must be >= 1")
    return value


def _eval_size(cfg: dict, key: str, default: int) -> int:
    """A check's sample size: a count of at most DIRECT_DRAW_CAP, since the
    check draws its masks in one array."""
    value = _count(cfg, key, default)
    if value > DIRECT_DRAW_CAP:
        raise SchemaError(f"field {key!r}: must be <= {DIRECT_DRAW_CAP}")
    return value


def _size_bound(cfg: dict) -> float:
    size_bound = _get(cfg, "size_bound", float, math.inf)
    if not size_bound >= 1:  # NaN fails too
        raise SchemaError("field 'size_bound': must be >= 1")
    return size_bound


def _dist_field(obj: dict, key: str, kind=as_integer):
    if key not in obj:
        raise KeyError(key)  # reported as a missing distribution field
    return _get(obj, key, kind)


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _dist_from_json(obj) -> DistributionSpec:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise SchemaError("distribution must be an object with a 'variant' field")
    variant = obj["variant"]
    try:
        if variant == "uniform":
            return DistributionSpec.uniform(_dist_field(obj, "n"))
        if variant == "product":
            return DistributionSpec.product(_dist_field(obj, "biases", _floats))
        if variant == "layer":
            n, k = _dist_field(obj, "n"), _dist_field(obj, "k")
            return DistributionSpec.layer(n, k)
        if variant == "symmetric":
            return DistributionSpec.symmetric(_dist_field(obj, "weights", _floats))
    except KeyError as exc:
        raise SchemaError(f"distribution field {exc} is missing") from exc
    except ValueError as exc:
        raise SchemaError(f"distribution field invalid: {exc}") from exc
    raise SchemaError(f"unknown distribution variant {variant!r}")


# --------------------------------------------------------------------------
# generate


def _try_writing(path: str) -> None:
    """Opens path for writing without truncating it, then removes it if that
    created it; an OSError is a usage error naming the path."""
    created = not os.path.lexists(path)
    with _reading(), open(path, "a"):
        pass
    if created:
        os.remove(path)


def cmd_generate(cfg: dict, out_dir: str) -> int:
    """Reads and checks both blocks and tries every output path, then writes
    the targets and the dataset."""
    seed = _get(cfg, "seed", as_integer, 0)
    for key in ("coverage", "dataset"):
        if not isinstance(cfg.get(key, {}), dict):
            raise SchemaError(f"{key!r} must be an object")
    if "coverage" not in cfg and "dataset" not in cfg:
        raise SchemaError("generate config needs a 'coverage' or 'dataset' block")
    if "coverage" in cfg:
        block = cfg["coverage"]
        n = _get(block, "n", as_integer, required=True)
        max_terms = _get(block, "max_terms", as_integer, required=True)
        max_arity = _get(block, "max_arity", as_integer, required=True)
        count = _count(block, "count", 1)
        pattern = _get(block, "out", str, "target_{i}.json")
        if count > 1 and "{i}" not in pattern:
            raise SchemaError("field 'out': with count > 1 it must contain {i}")
    if "dataset" in cfg:
        block = cfg["dataset"]
        dist = _dist_from_json(block.get("distribution"))
        size = _count(block, "size", required=True)
        if size > DATASET_EXPANSION_CAP:
            raise SchemaError(f"field 'size': {size} exceeds the text expansion cap")
        dataset_path = os.path.join(out_dir, _get(block, "out", str, "dataset.txt"))
    target_paths = []
    if "coverage" in cfg:
        try:
            names = (pattern.format(i=i) if "{i}" in pattern else pattern
                     for i in range(count))
            target_paths = [os.path.join(out_dir, name) for name in names]
        except (LookupError, AttributeError, TypeError, ValueError) as exc:
            raise SchemaError(f"coverage block: {exc!r}") from exc
    for path in target_paths + ([dataset_path] if "dataset" in cfg else []):
        _try_writing(path)
    for i, path in enumerate(target_paths):
        try:  # a bad block fails at i = 0, before any file is written
            c = random_coverage(n, max_terms, max_arity, child_seed(seed, i, 0))
        except ValueError as exc:
            raise SchemaError(f"coverage block: {exc!r}") from exc
        dump_json(coverage_to_json(c), path)
    if "dataset" in cfg:
        masks = sample_masks(dist, size, child_rng(seed, 10**6))
        lines = [format_point_line(int(m), dist.n) for m in masks]
        with open(dataset_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_PASS


# --------------------------------------------------------------------------
# trials and reports


def _cube_or_masks(f, n: int, samples: int):
    """f, the per-point quantity a check averages over `samples` masks on n
    coordinates, as an array or a tuple of arrays; or, when the 2^n cells
    are no more than that, a gather from f evaluated once on every cell.
    Every eval_masks and answer_masks is elementwise, so both give the same
    values.  The masks a check draws lie in [0, 2^n)."""
    if (1 << n) > samples:
        return f
    tables = f(np.arange(1 << n, dtype=np.uint64))
    if isinstance(tables, tuple):
        return lambda masks: tuple(t[cell_index(masks)] for t in tables)
    return lambda masks: tables[cell_index(masks)]


def _trial_file(out_dir: str, kind: str, trial: int, ext: str) -> str:
    return os.path.join(out_dir, f"{kind}_{trial:03d}.{ext}")


def _run_trials(
    cfg: dict, trials: int, seed: int, run_trial, write, head: str, tail: str,
    out_dir: str,
) -> int:
    """Times run_trial(trial, child_seed(seed, trial, 0)), which fits and
    evaluates and returns the row's fields and an output that write(trial,
    output) then writes, outside runtime_sec.  A trial whose oracle, LP or
    private budget gives out is a failed row, with no runtime and no file.
    Then writes report.json and report.csv, prints "head: successes/trials
    tail" and returns the exit code."""
    rows = []
    for trial in range(trials):
        row = {"trial": trial, "seed": child_seed(seed, trial, 0)}
        start = time.monotonic()
        try:
            fields, output = run_trial(trial, row["seed"])
        except (OracleExhausted, LPNotOptimal, BudgetExhausted) as exc:
            rows.append({**row, "error": str(exc), "success": False})
            continue
        rows.append({**row, **fields, "runtime_sec": time.monotonic() - start})
        write(trial, output)
    successes = sum(1 for r in rows if r["success"])
    aggregate = {
        "trials": trials,
        "successes": successes,
        "success_fraction": successes / trials,
        "success_threshold": SUCCESS_THRESHOLD,
        "pass": successes >= SUCCESS_THRESHOLD * trials,
    }
    dump_json(
        {"config": cfg, "rows": rows, "aggregate": aggregate},
        os.path.join(out_dir, "report.json"),
    )
    used = [c for c in REPORT_COLUMNS if any(c in r for r in rows)]
    with open(os.path.join(out_dir, "report.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(used)
        for r in rows:
            writer.writerow(["" if r.get(c) is None else r.get(c) for c in used])
    print(f"{head}: {successes}/{trials} {tail}")
    return EXIT_PASS if aggregate["pass"] else EXIT_CONTRACT


# --------------------------------------------------------------------------
# learn


@dataclass(frozen=True)
class _CountingTableOracle(UniformTableOracle):
    """Table oracle that tallies the examples it draws; its restricted and
    scaled copies share the tally."""

    counter: list  # one shared cell: [examples drawn]

    def draw(self, m, rng):
        self.counter[0] += int(m)
        return super().draw(m, rng)

    def draw_counts(self, total, rng):
        self.counter[0] += int(total)
        return super().draw_counts(total, rng)

    def draw_hits(self, total, hit, rng):
        self.counter[0] += int(total)
        return super().draw_hits(total, hit, rng)


@dataclass(frozen=True)
class _PerturbedEval:
    """An exactly eps-accurate stand-in hypothesis: the true function plus a
    +-eps perturbation on the first coordinate's sign."""

    inner: CoverageFunction
    eps: float

    def eval_masks(self, masks):
        masks = np.asarray(masks, dtype=np.uint64)
        signs = 1.0 - 2.0 * ((masks & np.uint64(1)) == 1)
        return self.inner.eval_masks(masks) + self.eps * signs


def cmd_learn(cfg: dict, out_dir: str) -> int:
    learner = _get(cfg, "learner", str, required=True)
    if learner not in LEARNER_NAMES:
        raise SchemaError(
            f"unknown learner {learner!r}; valid names: {', '.join(LEARNER_NAMES)}"
        )
    trials = _count(cfg, "trials", 1)
    seed = _get(cfg, "seed", as_integer, 0)
    eval_samples = _eval_size(cfg, "eval_samples", DEFAULT_EVAL_SAMPLES)
    n = _count(cfg, "n", required=True)
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("'params' must be an object")
    uniform = DistributionSpec.uniform(n)

    def read_target():
        """Reads the target block.  Returns target(tseed) and the file target
        that every trial shares, None when each trial draws its own."""
        block = cfg.get("target")
        if not isinstance(block, dict):
            raise SchemaError("learn config needs a 'target' object")
        if "path" not in block:
            max_terms = _get(block, "max_terms", as_integer, required=True)
            max_arity = _get(block, "max_arity", as_integer, required=True)
            return lambda tseed: random_coverage(n, max_terms, max_arity, tseed), None
        with _reading():
            shared = coverage_from_json(load_json(_get(block, "path", os.fspath)))
        if shared.n != n:
            raise SchemaError(f"target has n={shared.n} but the config has n={n}")
        return lambda tseed: shared, shared

    def l1_check(bound, dist=uniform):
        """check by the l1 error on dist."""
        def check(h, truth, eval_seed):
            gap = lambda masks: np.abs(h.eval_masks(masks) - truth(masks))
            gap = _cube_or_masks(gap, n, eval_samples)
            err, hw = l1_distance_mc(gap, dist, eval_samples, eval_seed)
            return err, hw, None, err <= bound
        return check

    def table_fit(target, shared, learn, *args):
        """fit by learn(oracle, *args, tseed) on the dense table of the
        trial's target; a shared target is tabulated once, here, read-only."""
        if shared is not None:
            table = dense_table(shared)
            table.flags.writeable = False

        def fit(tseed, drawn):
            values = table if shared is not None else dense_table(target(tseed))
            oracle = _CountingTableOracle(n, tuple(range(n)), values, drawn)
            h = learn(oracle, *args, tseed)
            # the truth of a check's masks, which lie in [0, 2^n)
            return h, lambda masks: values[cell_index(masks)], h
        return fit

    def agnostic(learn, *extra):
        """Reads the target, epsilon, noise_scale, distribution and extra
        params.  fit by learn(oracle, dist, eps, *extra, tseed) on examples of
        dist labelled by the trial's target plus Laplace(noise_scale) noise,
        clipped to [0, 1]; check against eps + noise_scale."""
        target, _ = read_target()
        eps = _get(params, "epsilon", float, required=True)
        noise_scale = _get(params, "noise_scale", float, 0.0)
        if not 0 <= noise_scale < math.inf:
            raise SchemaError("field 'noise_scale': must be finite and >= 0")
        dist = uniform
        if "distribution" in cfg:
            dist = _dist_from_json(cfg["distribution"])
        if dist.n != n:
            raise SchemaError(f"distribution has n={dist.n} but the config has n={n}")
        extra = [_get(params, name, float, required=True) for name in extra]

        def fit(tseed, drawn):
            t = target(tseed)
            def labels(masks, rng):
                drawn[0] += len(masks)
                vals = t.eval_masks(masks)
                if noise_scale > 0:
                    vals = vals + rng.laplace(0.0, noise_scale, size=len(masks))
                return np.clip(vals, 0.0, 1.0)
            h = learn(SampledOracle(dist, labels), dist, eps, *extra, tseed)
            return h, t.eval_masks, h
        return fit, l1_check(eps + noise_scale, dist)

    # each learner reads its fields, then binds fit(tseed, drawn) -> (h,
    # truth, the hypothesis to write or None) and check(h, truth, eval_seed)
    # -> (l1_error, l1_half_width, mult_fraction, success)
    if learner == "dnf-reduction":
        if 2 * n > MAX_COMPACT_N:
            raise SchemaError(f"field 'n': dnf-reduction needs 2n <= {MAX_COMPACT_N}")
        s = _get(params, "s", as_integer, required=True)
        eps = _get(params, "epsilon", float, required=True)
        inner = _get(params, "inner", str, "exact")
        if inner not in ("exact", "perturbed"):
            raise SchemaError("field 'inner': expected 'exact' or 'perturbed'")

        def fit(tseed, drawn):
            dnf = random_disjoint_dnf(n, s, tseed)
            cov = dnf_to_coverage(dnf)
            oracle = SampledOracle(uniform, lambda masks, rng: dnf.eval_masks(masks))
            exact = inner == "exact"  # a perturbed inner has no file format
            h = dnf_reduction_learn(
                oracle, s, eps, lambda o, e: cov if exact else _PerturbedEval(cov, e)
            )
            return h, dnf.eval_masks, cov if exact else None

        check = l1_check(eps)
    elif learner == "pmac":
        target, shared = read_target()
        gamma = _get(params, "gamma", float, required=True)
        delta = _get(params, "delta", float, required=True)
        fit = table_fit(target, shared, pmac_learn, gamma, delta)

        def check(h, truth, eval_seed):
            def gap_and_within(masks):
                hv, cv = h.eval_masks(masks), truth(masks)
                within = (hv <= cv + 1e-9) & (cv <= (1 + gamma) * hv + 1e-9)
                return np.abs(hv - cv), within

            gap_and_within = _cube_or_masks(gap_and_within, n, eval_samples)
            masks = sample_masks(uniform, eval_samples, child_rng(eval_seed, 0))
            gap, within = gap_and_within(masks)
            mult = float(within.mean())
            hw = hoeffding_half_width(eval_samples, 1)
            return float(gap.mean()), hw, mult, mult >= 1 - delta
    elif learner == "pac":
        target, shared = read_target()
        eps = _get(params, "epsilon", float, required=True)
        fit = table_fit(target, shared, pac_learn_uniform, eps)
        check = l1_check(eps)
    elif learner == "proper":
        target, shared = read_target()
        eps = _get(params, "epsilon", float, required=True)
        fit = table_fit(target, shared, proper_pac_learn, eps, _size_bound(params))
        check = l1_check(eps)
    elif learner == "agnostic":
        fit, check = agnostic(agnostic_learn)
    else:  # proper-agnostic
        fit, check = agnostic(proper_agnostic_learn, "kappa")

    def run_trial(trial: int, tseed: int):
        drawn = [0]  # examples drawn by the trial's oracles
        h, truth, hypothesis = fit(tseed, drawn)
        err, hw, mult_fraction, success = check(h, truth, child_seed(seed, trial, 1))
        return {
            "l1_error": err, "l1_half_width": hw, "mult_fraction": mult_fraction,
            "samples": drawn[0], "success": success,
        }, hypothesis

    def write(trial: int, hypothesis) -> None:
        if hypothesis is not None:
            path = _trial_file(out_dir, "hypothesis", trial, "json")
            dump_json(hypothesis_to_json(hypothesis, arrays=True), path)

    head = f"learn {learner}"
    tail = f"successful trials (threshold {SUCCESS_THRESHOLD:.3f})"
    return _run_trials(cfg, trials, seed, run_trial, write, head, tail, out_dir)


# --------------------------------------------------------------------------
# release


def _release_dataset(block, seed: int, gate: Callable[[int], float]) -> Dataset:
    """The dataset at the block's path, or one drawn i.i.d. uniform on
    child_rng(seed, 10**6 + 1) with the block's size, or with gate_factor
    times gate(n), the admission gate of a dataset on n coordinates."""
    if not isinstance(block, dict):
        raise SchemaError("release config needs a 'dataset' object")
    if "path" in block:
        with _reading(), open(_get(block, "path", os.fspath)) as fh:
            return dataset_from_text(fh.read())
    n = _count(block, "n", required=True)
    if "size" in block:
        size = _count(block, "size")
    else:
        size = _get(block, "gate_factor", float, required=True) * max(gate(n), 1.0)
        if not 0 < size < math.inf:  # NaN fails too
            raise SchemaError("field 'gate_factor': must be > 0 and give a finite size")
    return Dataset.iid_uniform(n, math.ceil(size), child_rng(seed, 10**6 + 1))


def cmd_release(cfg: dict, out_dir: str) -> int:
    variant = _get(cfg, "release", str, required=True)
    if variant not in RELEASE_NAMES:
        raise SchemaError(
            f"unknown release variant {variant!r}; valid: {', '.join(RELEASE_NAMES)}"
        )
    alpha_bar = _get(cfg, "alpha_bar", float, required=True)
    epsilon = _get(cfg, "epsilon", float, required=True)
    if not epsilon > 0:  # NaN fails too; inf is the noiseless limit
        raise SchemaError("field 'epsilon': must be > 0")
    delta = _get(cfg, "delta", float, required=True)
    for name, value in (("alpha_bar", alpha_bar), ("delta", delta)):
        if not 0 < value < 1:  # NaN fails too
            raise SchemaError(f"field {name!r}: must lie in (0,1)")
    trials = _count(cfg, "trials", 1)
    seed = _get(cfg, "seed", as_integer, 0)
    eval_queries = _eval_size(cfg, "eval_queries", DEFAULT_EVAL_QUERIES)
    # each variant's query budget (n, alpha_bar) -> (q, tau), release call
    # (d, alpha_bar, epsilon, delta, seed) -> summary, and query distribution
    qdist = DistributionSpec.uniform
    if variant == "all-marginals":
        budget, release = marginals_query_budget, release_all_marginals
    elif variant == "k-way":
        k = _get(cfg, "k", as_integer, required=True)
        budget = k_way_query_budget
        # looked up per call, as perfbench's traced cli.release_k_way site needs
        release = lambda d, *args: release_k_way(d, k, *args)
        qdist = lambda n: DistributionSpec.layer(n, k)
    else:  # synthetic
        size_bound = _size_bound(cfg)
        budget = lambda n, a: synthetic_query_budget(n, a, size_bound)
        release = functools.partial(release_synthetic, size_bound=size_bound)
    gate = lambda n: gate_size(*budget(n, alpha_bar), epsilon, delta)
    d = _release_dataset(cfg.get("dataset"), seed, gate)
    truth_table = all_conjunction_answers(d)

    def run_trial(trial: int, tseed: int):
        summary = release(d, alpha_bar, epsilon, delta, tseed)
        error = lambda masks: np.abs(
            summary.answer_masks(masks) - truth_table[cell_index(masks)]
        )
        error = _cube_or_masks(error, d.n, eval_queries)
        x_masks = sample_masks(qdist(d.n), eval_queries, child_rng(seed, trial, 2))
        avg_error = float(error(x_masks).mean())
        hw = hoeffding_half_width(eval_queries, 1)
        return {
            "avg_error": avg_error, "l1_half_width": hw,
            "privacy_budget": summary.queries_used, "success": avg_error <= alpha_bar,
        }, summary

    def write(trial: int, summary) -> None:
        path = _trial_file(out_dir, "summary", trial, "json")
        dump_json(summary_to_json(summary, arrays=True), path)
        if summary.synthetic is not None and not summary.synthetic.is_empty():
            with open(_trial_file(out_dir, "synthetic", trial, "txt"), "w") as fh:
                fh.write(dataset_to_text(summary.synthetic))

    head = f"release {variant}"
    tail = f"trials within average error {alpha_bar}"
    return _run_trials(cfg, trials, seed, run_trial, write, head, tail, out_dir)


# --------------------------------------------------------------------------
# selftest


def _require(ok) -> None:
    """A selftest check: raises AssertionError when ok is false, also under
    python -O, which strips assert statements."""
    if not ok:
        raise AssertionError


def _selftest_checks():
    def spectral_norm():
        for i in range(100):
            c = random_coverage(8, 10, 6, 1000 + i)
            _require(exact_fourier(c).spectral_l1() <= 2 + 1e-9)

    def coefficient_monotonicity():
        for i in range(30):
            c = random_coverage(7, 8, 5, 2000 + i)
            t = exact_fourier(c)
            for v in range(1, 1 << c.n):
                cv = abs(t[v])
                _require(cv <= 2.0 ** -int(v).bit_count() + 1e-12)
                _require(t[v] <= 1e-15)
                sub = (v - 1) & v
                while True:
                    if sub:
                        _require(cv <= abs(t[sub]) + 1e-12)
                    if sub == 0:
                        break
                    sub = (sub - 1) & v

    def expectation_bound():
        for i in range(50):
            c = random_coverage(8, 10, 6, 3000 + i)
            _require(exact_fourier(c)[0] >= dense_table(c).max() / 2 - 1e-12)

    def junta_projection():
        for i in range(30):
            c = random_coverage(8, 10, 6, 4000 + i)
            t = exact_fourier(c)
            for eps in (0.5, 0.25):
                i_set = junta_variables(t, eps)
                _require(i_set.size() <= 4 / eps**2)
                proj = average_project(c, i_set)
                l1 = float(np.abs(dense_table(c) - dense_table(proj)).mean())
                _require(l1 <= eps + 1e-12)

    def parseval():
        for i in range(50):
            c = random_coverage(8, 10, 6, 5000 + i)
            table = dense_table(c)
            total = sum(v * v for v in exact_fourier(c).coeffs.values())
            _require(abs(total - float((table**2).mean())) <= 1e-9)

    def fourier_path_agreement():
        for i in range(50):
            c = random_coverage(8, 10, 6, 6000 + i)
            a = exact_fourier(c, "analytic")
            b = exact_fourier(c, "wht")
            keys = set(a.coeffs) | set(b.coeffs)
            _require(all(abs(a[k] - b[k]) <= 1e-9 for k in keys))

    def counting_identity():
        for i in range(20):
            rng = child_rng(7000 + i, 0)
            n = 6
            d = Dataset.iid_uniform(n, int(rng.integers(1, 200)), rng)
            cd = coverage_of_dataset(d)
            table = all_conjunction_answers(d)
            masks = np.arange(1 << n, dtype=np.uint64)
            _require(np.abs(cd.eval_masks(masks) - (1.0 - table[masks])).max() <= 1e-12)

    def lp_duality():
        for i in range(20):
            rng = child_rng(8000 + i, 0)
            design = rng.random((40, 6))
            targets = rng.random(40)
            sol = solve_l1(L1Problem(design, targets))
            _require(sol.duality_gap <= 1e-7)

    def lattice_exactness():
        for i in range(20):
            c = random_coverage(7, 8, 5, 9000 + i)
            t = exact_fourier(c)
            theta = 0.05
            kept = lattice_search(
                exact_source(t), IndexSet.from_indices(range(c.n), c.n), theta, c.n
            )
            brute = {m for m in range(1, 1 << c.n) if abs(t[m]) >= theta}
            _require({m for m in kept if m != 0} == brute)

    return [
        ("spectral-norm-bound", spectral_norm),
        ("coefficient-monotonicity", coefficient_monotonicity),
        ("expectation-bound", expectation_bound),
        ("junta-projection", junta_projection),
        ("parseval", parseval),
        ("fourier-path-agreement", fourier_path_agreement),
        ("counting-identity", counting_identity),
        ("lp-duality", lp_duality),
        ("lattice-exactness", lattice_exactness),
    ]


def cmd_selftest() -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except AssertionError:
            print(f"FAIL {name}")
            failures += 1
        else:
            print(f"ok   {name}")
    print("selftest:", "pass" if failures == 0 else f"{failures} failures")
    return EXIT_PASS if failures == 0 else EXIT_CONTRACT


# --------------------------------------------------------------------------
# entry point

_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameters, from malloc.h
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> tuple[int, ...]:
    """Has glibc serve blocks up to 32 MiB (on 64-bit; the largest mmap
    threshold glibc has always accepted) from the heap, and trim the heap
    only above twice that, glibc's own rule.  A trial's 2^n tables and check
    arrays, 0.5 MiB and more at n = 16, then reuse the pages the trial
    before freed instead of faulting in fresh ones.  Returns mallopt's
    results, 1 each when it took the value, and () where there is no
    mallopt (not glibc)."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # no process-wide symbol table
        mallopt = None
    if mallopt is None:
        return ()
    cap = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
    return mallopt(_M_MMAP_THRESHOLD, cap), mallopt(_M_TRIM_THRESHOLD, 2 * cap)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covlearn",
        description="Coverage-function learning and private query release.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("generate", "learn", "release"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
    sub.add_parser("selftest")
    return parser


# built once, at import: its messages' gettext imports locale, which a verb
# would otherwise pay for inside main
PARSER = _parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS

    _keep_freed_heap()  # the CLI owns its process; a library caller keeps its policy
    if args.verb == "selftest":
        return cmd_selftest()

    try:
        with _reading():
            cfg = load_json(args.config)
            if not isinstance(cfg, dict):
                raise SchemaError("config root must be a JSON object")
            os.makedirs(args.out, exist_ok=True)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.verb == "generate":
            return cmd_generate(cfg, args.out)
        if args.verb == "learn":
            return cmd_learn(cfg, args.out)
        return cmd_release(cfg, args.out)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GateRefused as exc:
        print(
            f"privacy gate refused: {exc} (grow the dataset to at least "
            f"{math.ceil(exc.required)} rows)",
            file=sys.stderr,
        )
        return EXIT_GATE


if __name__ == "__main__":
    sys.exit(main())
