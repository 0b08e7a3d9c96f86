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
    DistributionSpec,
    IndexSet,
    child_rng,
    child_seed,
    format_point_line,
    sample_masks,
)
from .estimation import exact_source, lattice_search
from .learners import (
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


def _integer(value) -> int:
    """int(value) for an integral value; a boolean or a non-integral number
    is refused rather than truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


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
    value = _get(cfg, key, _integer, default, required)
    if value < 1:
        raise SchemaError(f"field {key!r}: must be >= 1")
    return value


def _size_bound(cfg: dict) -> float:
    size_bound = _get(cfg, "size_bound", float, math.inf)
    if not size_bound >= 1:  # NaN fails too
        raise SchemaError("field 'size_bound': must be >= 1")
    return size_bound


def _dist_field(obj: dict, key: str, kind=_integer):
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


def cmd_generate(cfg: dict, out_dir: str) -> int:
    seed = _get(cfg, "seed", _integer, 0)
    did_anything = False
    if "coverage" in cfg:
        block = cfg["coverage"]
        n = _get(block, "n", _integer, required=True)
        max_terms = _get(block, "max_terms", _integer, required=True)
        max_arity = _get(block, "max_arity", _integer, required=True)
        count = _count(block, "count", 1)
        pattern = _get(block, "out", str, "target_{i}.json")
        if count > 1 and "{i}" not in pattern:
            raise SchemaError("field 'out': with count > 1 it must contain {i}")
        for i in range(count):
            try:  # a bad pattern fails at i = 0, before any file is written
                c = random_coverage(n, max_terms, max_arity, child_seed(seed, i, 0))
                name = pattern.format(i=i) if "{i}" in pattern else pattern
            except (LookupError, AttributeError, TypeError, ValueError) as exc:
                raise SchemaError(f"coverage block: {exc!r}") from exc
            dump_json(coverage_to_json(c), os.path.join(out_dir, name))
        did_anything = True
    if "dataset" in cfg:
        block = cfg["dataset"]
        dist = _dist_from_json(block.get("distribution"))
        size = _count(block, "size", required=True)
        if size > DATASET_EXPANSION_CAP:
            raise SchemaError(
                f"field 'size': {size} exceeds the text expansion cap"
            )
        name = _get(block, "out", str, "dataset.txt")
        masks = sample_masks(dist, size, child_rng(seed, 10**6))
        lines = [format_point_line(int(m), dist.n) for m in masks]
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        did_anything = True
    if not did_anything:
        raise SchemaError("generate config needs a 'coverage' or 'dataset' block")
    return EXIT_PASS


# --------------------------------------------------------------------------
# trials and reports


def _trial_file(out_dir: str, kind: str, trial: int, ext: str) -> str:
    return os.path.join(out_dir, f"{kind}_{trial:03d}.{ext}")


def _run_trials(
    cfg: dict, trials: int, seed: int, run_trial, write, head: str, tail: str,
    out_dir: str,
) -> int:
    """Times run_trial(trial, child_seed(seed, trial, 0)), which fits and
    evaluates and returns the row's fields and an output that write(trial,
    output) then writes, outside runtime_sec.  A trial whose oracle or LP
    gives out is a failed row, with no runtime and no file.  Then writes
    report.json and report.csv, prints "head: successes/trials tail" and
    returns the exit code."""
    rows = []
    for trial in range(trials):
        row = {"trial": trial, "seed": child_seed(seed, trial, 0)}
        start = time.monotonic()
        try:
            fields, output = run_trial(trial, row["seed"])
        except (OracleExhausted, LPNotOptimal) as exc:
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


def _load_target(cfg: dict, n: int, trial_seed: int) -> CoverageFunction:
    block = cfg.get("target")
    if not isinstance(block, dict):
        raise SchemaError("learn config needs a 'target' object")
    if "path" in block:
        with _reading():
            target = coverage_from_json(load_json(_get(block, "path", os.fspath)))
        if target.n != n:
            raise SchemaError(f"target has n={target.n} but the config has n={n}")
        return target
    max_terms = _get(block, "max_terms", _integer, required=True)
    max_arity = _get(block, "max_arity", _integer, required=True)
    return random_coverage(n, max_terms, max_arity, trial_seed)


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


def _run_learn_trial(
    cfg: dict, learner: str, eval_samples: int, seed: int, trial: int, tseed: int
) -> tuple[dict, CoverageFunction | None]:
    """One learn trial: each learner branch builds its oracle, hypothesis,
    truth function, evaluation distribution and error bound; one block
    then evaluates the hypothesis.  Returns the row's fields and the
    hypothesis to write, None for a perturbed DNF inner.  samples is every
    example any oracle of the trial drew."""
    n = _count(cfg, "n", required=True)
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("'params' must be an object")
    eval_seed = child_seed(seed, trial, 1)
    drawn = [0]  # examples drawn by the trial's oracles
    if learner == "dnf-reduction":
        s = _get(params, "s", _integer, required=True)
        eps = _get(params, "epsilon", float, required=True)
        inner_kind = _get(params, "inner", str, "exact")
        dnf = random_disjoint_dnf(n, s, tseed)
        target_cov = dnf_to_coverage(dnf)
        truth, dist = dnf.eval_masks, DistributionSpec.uniform(n)
        oracle = SampledOracle(dist, lambda masks, rng: dnf.eval_masks(masks))
        if inner_kind == "exact":
            inner_learner = lambda orc, e: target_cov
        elif inner_kind == "perturbed":
            inner_learner = lambda orc, e: _PerturbedEval(target_cov, e)
        else:
            raise SchemaError("field 'inner': expected 'exact' or 'perturbed'")
        h = dnf_reduction_learn(oracle, s, eps, inner_learner)
        bound = eps
        hypothesis = target_cov if inner_kind == "exact" else None
    else:
        target = _load_target(cfg, n, tseed)
        truth, dist = target.eval_masks, DistributionSpec.uniform(n)
        if learner in ("agnostic", "proper-agnostic"):
            eps = _get(params, "epsilon", float, required=True)
            noise_scale = _get(params, "noise_scale", float, 0.0)
            if not 0 <= noise_scale < math.inf:
                raise SchemaError("field 'noise_scale': must be finite and >= 0")
            if "distribution" in cfg:
                dist = _dist_from_json(cfg["distribution"])
                if dist.n != n:
                    raise SchemaError(
                        f"distribution has n={dist.n} but the config has n={n}"
                    )

            def labels(masks, rng):
                drawn[0] += len(masks)
                vals = target.eval_masks(masks)
                if noise_scale > 0:
                    vals = vals + rng.laplace(0.0, noise_scale, size=len(masks))
                return np.clip(vals, 0.0, 1.0)

            oracle = SampledOracle(dist, labels)
            if learner == "agnostic":
                h = agnostic_learn(oracle, dist, eps, tseed)
            else:
                kappa = _get(params, "kappa", float, required=True)
                h = proper_agnostic_learn(oracle, dist, eps, kappa, tseed)
            bound = eps + noise_scale
        else:
            oracle = _CountingTableOracle(
                target.n, tuple(range(target.n)), dense_table(target), drawn
            )
            if learner == "pmac":
                gamma = _get(params, "gamma", float, required=True)
                delta = _get(params, "delta", float, required=True)
                h = pmac_learn(oracle, gamma, delta, tseed)
            else:
                bound = _get(params, "epsilon", float, required=True)
                if learner == "pac":
                    h = pac_learn_uniform(oracle, bound, tseed)
                else:
                    h = proper_pac_learn(oracle, bound, _size_bound(params), tseed)
        hypothesis = h

    if learner == "pmac":
        masks = sample_masks(dist, eval_samples, child_rng(eval_seed, 0))
        cv = truth(masks)
        hv = h.eval_masks(masks)
        tol = 1e-9
        mult_fraction = float(
            ((hv <= cv + tol) & (cv <= (1 + gamma) * hv + tol)).mean()
        )
        hw = hoeffding_half_width(eval_samples, 1)
        err = float(np.abs(hv - cv).mean())
        success = mult_fraction >= 1 - delta
    else:
        err, hw = l1_distance_mc(h.eval_masks, truth, dist, eval_samples, eval_seed)
        mult_fraction = None
        success = err <= bound
    return {
        "l1_error": err, "l1_half_width": hw, "mult_fraction": mult_fraction,
        "samples": drawn[0], "success": success,
    }, hypothesis


def cmd_learn(cfg: dict, out_dir: str) -> int:
    learner = _get(cfg, "learner", str, required=True)
    if learner not in LEARNER_NAMES:
        raise SchemaError(
            f"unknown learner {learner!r}; valid names: {', '.join(LEARNER_NAMES)}"
        )
    trials = _count(cfg, "trials", 1)
    seed = _get(cfg, "seed", _integer, 0)
    eval_samples = _count(cfg, "eval_samples", DEFAULT_EVAL_SAMPLES)

    run_trial = functools.partial(_run_learn_trial, cfg, learner, eval_samples, seed)

    def write(trial: int, hypothesis) -> None:
        if hypothesis is not None:
            path = _trial_file(out_dir, "hypothesis", trial, "json")
            dump_json(hypothesis_to_json(hypothesis), path)

    head = f"learn {learner}"
    tail = f"successful trials (threshold {SUCCESS_THRESHOLD:.3f})"
    return _run_trials(cfg, trials, seed, run_trial, write, head, tail, out_dir)


# --------------------------------------------------------------------------
# release


def _release_gate(
    variant: str, n: int, alpha_bar: float, epsilon: float, delta: float,
    size_bound: float,
) -> float:
    if variant == "all-marginals":
        q, tau = marginals_query_budget(n, alpha_bar)
    elif variant == "k-way":
        q, tau = k_way_query_budget(n, alpha_bar)
    else:
        q, tau = synthetic_query_budget(n, alpha_bar, size_bound)
    return gate_size(q, tau, epsilon, delta)


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
    trials = _count(cfg, "trials", 1)
    seed = _get(cfg, "seed", _integer, 0)
    eval_queries = _count(cfg, "eval_queries", DEFAULT_EVAL_QUERIES)
    size_bound = _size_bound(cfg) if variant == "synthetic" else math.inf
    k = _get(cfg, "k", _integer, required=True) if variant == "k-way" else None
    d = _release_dataset(
        cfg.get("dataset"),
        seed,
        lambda n: _release_gate(variant, n, alpha_bar, epsilon, delta, size_bound),
    )
    truth_table = all_conjunction_answers(d)

    def run_trial(trial: int, tseed: int):
        if variant == "all-marginals":
            summary = release_all_marginals(d, alpha_bar, epsilon, delta, tseed)
            qdist = DistributionSpec.uniform(d.n)
        elif variant == "k-way":
            summary = release_k_way(d, k, alpha_bar, epsilon, delta, tseed)
            qdist = DistributionSpec.layer(d.n, k)
        else:
            summary = release_synthetic(
                d, alpha_bar, epsilon, delta, tseed, size_bound=size_bound
            )
            qdist = DistributionSpec.uniform(d.n)
        x_masks = sample_masks(qdist, eval_queries, child_rng(seed, trial, 2))
        answers = summary.answer_masks(x_masks)
        avg_error = float(np.abs(answers - truth_table[x_masks]).mean())
        hw = hoeffding_half_width(eval_queries, 1)
        return {
            "avg_error": avg_error, "l1_half_width": hw,
            "privacy_budget": summary.queries_used, "success": avg_error <= alpha_bar,
        }, summary

    def write(trial: int, summary) -> None:
        path = _trial_file(out_dir, "summary", trial, "json")
        dump_json(summary_to_json(summary), path)
        if summary.synthetic is not None and not summary.synthetic.is_empty():
            with open(_trial_file(out_dir, "synthetic", trial, "txt"), "w") as fh:
                fh.write(dataset_to_text(summary.synthetic))

    head = f"release {variant}"
    tail = f"trials within average error {alpha_bar}"
    return _run_trials(cfg, trials, seed, run_trial, write, head, tail, out_dir)


# --------------------------------------------------------------------------
# selftest


def _selftest_checks():
    def spectral_norm():
        for i in range(100):
            c = random_coverage(8, 10, 6, 1000 + i)
            assert exact_fourier(c).spectral_l1() <= 2 + 1e-9

    def coefficient_monotonicity():
        for i in range(30):
            c = random_coverage(7, 8, 5, 2000 + i)
            t = exact_fourier(c)
            for v in range(1, 1 << c.n):
                cv = abs(t[v])
                assert cv <= 2.0 ** -int(v).bit_count() + 1e-12
                assert t[v] <= 1e-15
                sub = (v - 1) & v
                while True:
                    if sub:
                        assert cv <= abs(t[sub]) + 1e-12
                    if sub == 0:
                        break
                    sub = (sub - 1) & v

    def expectation_bound():
        for i in range(50):
            c = random_coverage(8, 10, 6, 3000 + i)
            assert exact_fourier(c)[0] >= dense_table(c).max() / 2 - 1e-12

    def junta_projection():
        for i in range(30):
            c = random_coverage(8, 10, 6, 4000 + i)
            t = exact_fourier(c)
            for eps in (0.5, 0.25):
                i_set = junta_variables(t, eps)
                assert i_set.size() <= 4 / eps**2
                proj = average_project(c, i_set)
                l1 = float(np.abs(dense_table(c) - dense_table(proj)).mean())
                assert l1 <= eps + 1e-12

    def parseval():
        for i in range(50):
            c = random_coverage(8, 10, 6, 5000 + i)
            table = dense_table(c)
            total = sum(v * v for v in exact_fourier(c).coeffs.values())
            assert abs(total - float((table**2).mean())) <= 1e-9

    def fourier_path_agreement():
        for i in range(50):
            c = random_coverage(8, 10, 6, 6000 + i)
            a = exact_fourier(c, "analytic")
            b = exact_fourier(c, "wht")
            keys = set(a.coeffs) | set(b.coeffs)
            assert all(abs(a[k] - b[k]) <= 1e-9 for k in keys)

    def counting_identity():
        for i in range(20):
            rng = child_rng(7000 + i, 0)
            n = 6
            d = Dataset.iid_uniform(n, int(rng.integers(1, 200)), rng)
            cd = coverage_of_dataset(d)
            table = all_conjunction_answers(d)
            masks = np.arange(1 << n, dtype=np.uint64)
            assert np.abs(cd.eval_masks(masks) - (1.0 - table[masks])).max() <= 1e-12

    def lp_duality():
        for i in range(20):
            rng = child_rng(8000 + i, 0)
            design = rng.random((40, 6))
            targets = rng.random(40)
            sol = solve_l1(L1Problem(design, targets))
            assert sol.duality_gap <= 1e-7

    def lattice_exactness():
        for i in range(20):
            c = random_coverage(7, 8, 5, 9000 + i)
            t = exact_fourier(c)
            theta = 0.05
            kept = lattice_search(
                exact_source(t), IndexSet.from_indices(range(c.n), c.n), theta, c.n
            )
            brute = {m for m in range(1, 1 << c.n) if abs(t[m]) >= theta}
            assert {m for m in kept if m != 0} == brute

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


def main(argv=None) -> int:
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

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS

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
