"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: each instrumented public
function of covlearn is replaced, at every module attribute through which it
is looked up (modules import by name, so ``covlearn.learners.solve_l1`` is a
different binding from ``covlearn.regression.solve_l1``), by a wrapper that
opens a span, calls the original and closes the span.  A span records its
name, the lookup site, start, end, parent span and trial id.  Counts are
taken at the same boundaries.  Work done only to take a count runs inside a
``trace.hook`` span, so it is charged to the tracer and not to the layer.

Nothing here changes an argument value or a result: coefficient sources are
wrapped by counting proxies that return what the source returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

import numpy as np

LAYERS = (
    "cube",
    "coverage",
    "estimation",
    "learners",
    "regression",
    "privacy",
    "serialize",
    "cli",
)
HOOK = "trace.hook"
ROOT_SPAN = "cli.main"

# Span name -> per-layer metric that sums the self time of those spans.
TIMED = {
    "estimation.lattice_search": "estimation.lattice_search_s",
    "coverage.walsh_hadamard": "coverage.walsh_hadamard_s",
    "learners.UniformTableOracle.draw_counts": "learners.draw_counts_s",
    "learners.UniformTableOracle.draw": "learners.draw_s",
    "learners.SampledOracle.draw": "learners.draw_s",
    "learners.SparsePolynomial.eval_masks": "learners.hypothesis_eval_s",
    "learners.PmacHypothesis.eval_masks": "learners.hypothesis_eval_s",
    "cube.sample_masks": "cube.sample_masks_s",
    "cube.eval_parity_batch": "cube.batch_eval_s",
    "cube.eval_disjunction_batch": "cube.batch_eval_s",
    "regression.solve_l1": "regression.solve_l1_s",
    "privacy.PrivateOracle.query": "privacy.query_s",
    "privacy.all_conjunction_answers": "privacy.truth_table_s",
    "coverage.dense_table": "coverage.dense_table_s",
    "coverage.l1_distance_mc": "coverage.l1_distance_mc_s",
    "serialize.dump_json": "serialize.write_s",
}

# Counters the hooks below maintain; each is a metric, 0 where unused.
COUNTED = (
    "estimation.coeff_lookups",
    "estimation.lattice_lookups",
    "estimation.kept_sets",
    "coverage.walsh_hadamard_calls",
    "coverage.walsh_hadamard_cells",
    "coverage.walsh_hadamard_bytes_computed",
    "learners.draw_counts_calls",
    "learners.examples_drawn",
    "learners.boost_runs",
    "cube.points_sampled",
    "cube.batch_eval_calls",
    "regression.calls",
    "regression.rows",
    "regression.cols",
    "regression.nnz",
    "regression.distinct_rows",
    "regression.nonoptimal",
    "privacy.queries",
    "serialize.bytes_written",
)


class Recorder:
    """Spans and counts of one traced process; single-threaded."""

    def __init__(self) -> None:
        # one list per span: [name, site, start, end, parent index, trial]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.hits: Counter = Counter()
        self.trial: int | None = None
        self.query_masks: set[tuple[int | None, int]] = set()  # (trial, mask)
        self.oracles: dict[int, object] = {}
        self.max_gap = 0.0
        self.lattice_depth = 0

    def open(self, name: str, site: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, site, time.perf_counter(), None, parent, self.trial])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order")

    def records(self) -> list[dict]:
        t0 = self.spans[0][2] if self.spans else 0.0
        return [
            {
                "id": i,
                "name": name,
                "site": site,
                "start": start - t0,
                "end": end - t0,
                "parent": parent,
                "trial": trial,
            }
            for i, (name, site, start, end, parent, trial) in enumerate(self.spans)
        ]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: each span's duration minus the durations of
    its direct children.  Spans of one thread nest, so children never
    overlap one another."""
    child_total: Counter = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] += s["end"] - s["start"]
    out: Counter = Counter()
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - child_total[s["id"]]
    return dict(out)


# --------------------------------------------------------------------------
# Hooks get the call's arguments by parameter name: before(rec, args) may
# replace arguments; after(rec, args, result) takes counts.  Hooks that do
# real work run inside a trace.hook span.


class CountingSource:
    """Coefficient source proxy that counts lookups and returns the
    source's own estimate."""

    def __init__(self, rec: Recorder, inner) -> None:
        self.rec = rec
        self.inner = inner

    def __call__(self, mask: int):
        self.rec.counts["estimation.coeff_lookups"] += 1
        if self.rec.lattice_depth:
            self.rec.counts["estimation.lattice_lookups"] += 1
        return self.inner(mask)


def _counting(rec: Recorder, source):
    return source if isinstance(source, CountingSource) else CountingSource(rec, source)


def _wrap_phase_sources(rec: Recorder, args: dict) -> None:
    args["phase1_source"] = _counting(rec, args["phase1_source"])
    factory = args["phase2_source_for"]
    args["phase2_source_for"] = lambda pool: _counting(rec, factory(pool))


def _lattice_before(rec: Recorder, args: dict) -> None:
    args["coeff_source"] = _counting(rec, args["coeff_source"])
    rec.lattice_depth += 1


def _lattice_after(rec: Recorder, args: dict, kept) -> None:
    rec.lattice_depth -= 1
    rec.counts["estimation.kept_sets"] += sum(1 for t in kept if t != 0)


def _wht_after(rec: Recorder, args: dict, result) -> None:
    cells = len(result)
    rec.counts["coverage.walsh_hadamard_calls"] += 1
    rec.counts["coverage.walsh_hadamard_cells"] += cells
    # computed, not measured: one float64 read and write of every cell per
    # butterfly level, plus the initial copy
    rec.counts["coverage.walsh_hadamard_bytes_computed"] += (
        16 * cells * (cells.bit_length())
    )


def _draw_counts_after(rec: Recorder, args: dict, result) -> None:
    rec.counts["learners.draw_counts_calls"] += 1
    rec.counts["learners.examples_drawn"] += int(args["total"])


def _draw_after(rec: Recorder, args: dict, result) -> None:
    rec.counts["learners.examples_drawn"] += int(args["m"])


def _boost_after(rec: Recorder, args: dict, result) -> None:
    rec.counts["learners.boost_runs"] += 1


def _sample_after(rec: Recorder, args: dict, result) -> None:
    rec.counts["cube.points_sampled"] += int(args["m"])


def _batch_eval_after(rec: Recorder, args: dict, result) -> None:
    rec.counts["cube.batch_eval_calls"] += 1


def _solve_before(rec: Recorder, args: dict) -> None:
    p = args["p"]
    rows, cols = p.design.shape
    pairs = np.ascontiguousarray(np.column_stack([p.design, p.targets]))
    rec.counts["regression.calls"] += 1
    rec.counts["regression.rows"] += rows
    rec.counts["regression.cols"] += cols
    rec.counts["regression.nnz"] += int(np.count_nonzero(p.design))
    rec.counts["regression.distinct_rows"] += len({row.tobytes() for row in pairs})


def _solve_after(rec: Recorder, args: dict, sol) -> None:
    if sol.status != "optimal":
        rec.counts["regression.nonoptimal"] += 1
    rec.max_gap = max(rec.max_gap, float(sol.duality_gap))


def _query_after(rec: Recorder, args: dict, result) -> None:
    oracle = args["self"]
    rec.counts["privacy.queries"] += 1
    rec.oracles[id(oracle)] = oracle


def _and_query_before(rec: Recorder, args: dict) -> None:
    rec.query_masks.add((rec.trial, int(args["set_mask"])))


def _dump_after(rec: Recorder, args: dict, result) -> None:
    rec.counts["serialize.bytes_written"] += os.path.getsize(args["path"])


# (module, attribute path, sites or None for every site, span?, before, after)
# A site is the module through which the function is looked up.  A class
# attribute is looked up on the class, so its only site is the class.
INSTRUMENTS = (
    ("estimation", "lattice_search", None, True, _lattice_before, _lattice_after),
    ("estimation", "spectrum_from_counts", None, True, None, None),
    ("coverage", "walsh_hadamard", None, True, None, _wht_after),
    ("coverage", "dense_table", None, True, None, None),
    ("coverage", "l1_distance_mc", None, True, None, None),
    ("coverage", "random_coverage", None, True, None, None),
    ("learners", "UniformTableOracle.draw_counts", None, True, None,
     _draw_counts_after),
    ("learners", "UniformTableOracle.draw", None, True, None, _draw_after),
    ("learners", "SampledOracle.draw", None, True, None, _draw_after),
    ("learners", "SparsePolynomial.eval_masks", None, True, None, None),
    ("learners", "PmacHypothesis.eval_masks", None, True, None, None),
    ("learners", "pac_learn_uniform", None, True, None, _boost_after),
    ("learners", "pac_core", None, True, _wrap_phase_sources, None),
    ("learners", "proper_pac_core", None, True, _wrap_phase_sources, None),
    ("learners", "pmac_learn", None, True, None, None),
    ("learners", "proper_pac_learn", None, True, None, None),
    ("learners", "agnostic_learn", None, True, None, None),
    ("cube", "sample_masks", None, True, None, _sample_after),
    ("cube", "eval_parity_batch", ("learners",), True, None, _batch_eval_after),
    ("cube", "eval_disjunction_batch", ("learners",), True, None, _batch_eval_after),
    ("regression", "solve_l1", None, True, _solve_before, _solve_after),
    ("privacy", "PrivateOracle.query", None, True, None, _query_after),
    ("privacy", "and_query", None, False, _and_query_before, None),
    ("privacy", "all_conjunction_answers", None, True, None, None),
    ("privacy", "release_k_way", None, True, None, None),
    ("serialize", "coverage_from_json", None, True, None, None),
    ("serialize", "dump_json", None, True, None, _dump_after),
)


# hooks whose cost is worth a span of its own (a sort of the LP rows)
COSTLY_HOOKS = (_solve_before,)


def _hook(rec: Recorder, fn, *args) -> None:
    if fn not in COSTLY_HOOKS:
        fn(rec, *args)
        return
    idx = rec.open(HOOK, HOOK)
    try:
        fn(rec, *args)
    finally:
        rec.close(idx)


def _wrapper(rec: Recorder, orig, name: str, site: str, span: bool,
             before, after, marker: bool):
    names = list(inspect.signature(orig).parameters)

    @functools.wraps(orig)
    def wrapped(*args, **kwargs):
        rec.hits[site] += 1
        if marker:
            rec.trial = 0 if rec.trial is None else rec.trial + 1
        if before is not None or after is not None:
            # every instrumented function takes plain named parameters
            kwargs = {**dict(zip(names, args)), **kwargs}
            args = ()
        if before is not None:
            _hook(rec, before, kwargs)
        if not span:
            return orig(*args, **kwargs)
        idx = rec.open(name, site)
        try:
            result = orig(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            _hook(rec, after, kwargs, result)
        return result

    return wrapped


def install(rec: Recorder, trial_marker: str) -> list[str]:
    """Wraps every instrumented function at each of its lookup sites and
    returns the sites.  trial_marker names the site whose every call starts
    a new trial.  Raises if an instrumented name no longer exists, so that a
    rename cannot silently drop a layer."""
    pkg = importlib.import_module("covlearn")
    modules = {name: importlib.import_module(f"covlearn.{name}") for name in LAYERS}
    modules["covlearn"] = pkg
    sites: list[str] = []
    for layer, attr, only, span, before, after in INSTRUMENTS:
        home = modules[layer]
        name = f"{layer}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            site = name
            setattr(cls, meth, _wrapper(rec, orig, name, site, span, before, after,
                                        site == trial_marker))
            sites.append(site)
            continue
        orig = getattr(home, attr)
        for mod_name, mod in modules.items():
            if only is not None and mod_name not in only:
                continue
            if vars(mod).get(attr) is orig:
                site = f"{mod_name}.{attr}"
                setattr(mod, attr, _wrapper(rec, orig, name, site, span, before,
                                            after, site == trial_marker))
                sites.append(site)
    if trial_marker not in sites:
        raise RuntimeError(f"trial marker {trial_marker} is not an instrumented site")
    return sites


def summarize(rec: Recorder) -> dict:
    """Self time per span name plus the counts, for one traced process."""
    counts = {k: int(rec.counts[k]) for k in COUNTED}
    counts["privacy.budget_used"] = sum(o.used for o in rec.oracles.values())
    counts["privacy.budget_q"] = sum(o.q for o in rec.oracles.values())
    counts["privacy.distinct_query_masks"] = len(rec.query_masks)
    return {
        "self_s": self_times(rec.records()),
        "counts": counts,
        "max_duality_gap": rec.max_gap,
        "hits": dict(rec.hits),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summaries: list[dict], traced_run_s: float,
                  untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics summed over the traced processes of one run."""
    self_s: Counter = Counter()
    counts: Counter = Counter()
    gap = 0.0
    for s in summaries:
        self_s.update(s["self_s"])
        counts.update(s["counts"])
        gap = max(gap, s["max_duality_gap"])
    out: dict[str, float] = {metric: 0.0 for metric in TIMED.values()}
    for name, metric in TIMED.items():
        out[metric] += self_s.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer
        )
    for key in COUNTED:
        out[key] = counts[key]
    out["estimation.kept_ratio"] = _ratio(
        counts["estimation.kept_sets"], counts["estimation.lattice_lookups"]
    )
    out["regression.distinct_row_ratio"] = _ratio(
        counts["regression.distinct_rows"], counts["regression.rows"]
    )
    out["regression.max_duality_gap"] = gap
    out["privacy.distinct_query_masks"] = counts["privacy.distinct_query_masks"]
    out["privacy.distinct_query_ratio"] = _ratio(
        counts["privacy.distinct_query_masks"], counts["privacy.queries"]
    )
    out["privacy.budget_used_fraction"] = _ratio(
        counts["privacy.budget_used"], counts["privacy.budget_q"]
    )
    # self times partition the root spans, so their sum is the traced time
    layer_s = sum(v for k, v in self_s.items() if k not in (ROOT_SPAN, HOOK))
    root_s = sum(self_s.values())
    out["trace.run_s"] = traced_run_s
    out["trace.hook_s"] = self_s.get(HOOK, 0.0)
    out["trace.covered_fraction"] = _ratio(layer_s, root_s)
    out["trace.slowdown"] = _ratio(traced_run_s, untraced_run_s)
    return out
