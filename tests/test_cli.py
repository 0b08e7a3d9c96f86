import builtins
import ctypes
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from covlearn import cli, learners, privacy, regression
from covlearn.coverage import CHECK_CHUNK, dense_table, random_coverage
from covlearn.cube import DistributionSpec, child_rng, child_seed, sample_masks
from covlearn.learners import SampledOracle, UniformTableOracle
from covlearn.estimation import hoeffding_samples
from covlearn.cli import (
    EXIT_CONTRACT,
    EXIT_GATE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from covlearn.privacy import (
    gate_size,
    k_way_query_budget,
    marginals_query_budget,
    synthetic_query_budget,
)
from covlearn.regression import SIMPLEX_LIKE, L1Problem, LPNotOptimal, solve_l1
from covlearn.serialize import coverage_from_json, dataset_from_text, load_json


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_fresh(script: str, *args: str) -> str:
    """Runs script in a fresh interpreter that imports this tree's covlearn,
    with args as sys.argv[1:]; returns the last line it prints."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def run(tmp_path, verb, cfg, out="out", extra=()):
    cfg_path = write_config(tmp_path, f"{verb}_cfg.json", cfg)
    out_dir = str(tmp_path / out)
    return main([verb, "--config", cfg_path, "--out", out_dir, *extra]), out_dir


class TestUsageErrors:
    def test_unknown_verb(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["learn", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_USAGE

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["learn", "--config", str(path)]) == EXIT_USAGE

    def test_schema_error_names_field(self, tmp_path, capsys):
        cfg = {
            "dataset": {
                "distribution": {"variant": "product", "biases": [0.5, 1.5]},
                "size": 10,
            }
        }
        code, _ = run(tmp_path, "generate", cfg)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bias" in err

    def test_unknown_learner_lists_valid_names(self, tmp_path, capsys):
        code, _ = run(tmp_path, "learn", {"learner": "quantum", "n": 3})
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "quantum" in err and "pac" in err and "dnf-reduction" in err


    def test_calls_share_the_parser_independently(self, tmp_path, capsys):
        # main parses with one parser per process: a usage error leaves
        # nothing behind that changes the next call's files
        cfg = {
            "seed": 9,
            "coverage": {"n": 5, "max_terms": 3, "max_arity": 2, "out": "t.json"},
            "dataset": {"distribution": {"variant": "uniform", "n": 4}, "size": 50},
        }
        cfg_path = write_config(tmp_path, "generate.json", cfg)
        assert main(["generate", "--seed", "3"]) == EXIT_USAGE
        assert "--config" in capsys.readouterr().err
        code, out_dir = run(tmp_path, "generate", cfg, out="shared")
        assert code == EXIT_PASS
        script = "import sys\nfrom covlearn.cli import main\nprint(main(sys.argv[1:]))"
        fresh = tmp_path / "fresh"
        args = ["generate", "--config", cfg_path, "--out", str(fresh)]
        assert run_fresh(script, *args) == str(EXIT_PASS)
        shared = sorted((p.name, p.read_bytes()) for p in Path(out_dir).iterdir())
        assert shared == sorted((p.name, p.read_bytes()) for p in fresh.iterdir())
        assert [name for name, _ in shared] == ["dataset.txt", "t.json"]


class TestGenerate:
    COVERAGE = {"n": 4, "max_terms": 2, "max_arity": 2, "count": 2, "out": "t{i}.json"}

    def test_coverage_files(self, tmp_path):
        cfg = {
            "seed": 5,
            "coverage": {"n": 6, "max_terms": 4, "max_arity": 3, "count": 3},
        }
        code, out_dir = run(tmp_path, "generate", cfg)
        assert code == EXIT_PASS
        for i in range(3):
            c = coverage_from_json(load_json(os.path.join(out_dir, f"target_{i}.json")))
            assert c.n == 6 and c.size() <= 4

    def test_dataset_file(self, tmp_path):
        cfg = {
            "seed": 1,
            "dataset": {
                "distribution": {"variant": "uniform", "n": 5},
                "size": 200,
                "out": "d.txt",
            },
        }
        code, out_dir = run(tmp_path, "generate", cfg)
        assert code == EXIT_PASS
        d = dataset_from_text(Path(out_dir, "d.txt").read_text())
        assert d.n == 5 and d.size == 200

    def test_byte_identical_reruns(self, tmp_path):
        cfg = {
            "seed": 9,
            "coverage": {"n": 5, "max_terms": 3, "max_arity": 2, "out": "t.json"},
            "dataset": {
                "distribution": {"variant": "uniform", "n": 4},
                "size": 50,
                "out": "d.txt",
            },
        }
        _, out_a = run(tmp_path, "generate", cfg, out="a")
        _, out_b = run(tmp_path, "generate", cfg, out="b")
        for name in ("t.json", "d.txt"):
            a = Path(out_a, name).read_bytes()
            b = Path(out_b, name).read_bytes()
            assert a == b

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {
            "seed": 9,
            "coverage": {"n": 5, "max_terms": 3, "max_arity": 2, "out": "t.json"},
        }
        _, out_a = run(tmp_path, "generate", cfg, out="a")
        _, out_b = run(tmp_path, "generate", cfg, out="b", extra=["--seed", "10"])
        a = Path(out_a, "t.json").read_text()
        b = Path(out_b, "t.json").read_text()
        assert a != b

    def test_empty_config_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "generate", {"seed": 1})
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "pattern",
        ["t.json", "t_{j}.json", "t_{0}.json", "t_{i}_{j}.json", "t_{i}_{0}.json"],
        ids=["no-index", "unknown-field", "positional-field", "index-and-unknown",
             "index-and-positional"],
    )
    def test_bad_name_pattern_writes_nothing(self, tmp_path, capsys, pattern):
        # three targets must get three names, from a pattern that formats
        cfg = {
            "coverage": {
                "n": 4, "max_terms": 2, "max_arity": 2, "count": 3, "out": pattern
            }
        }
        code, out_dir = run(tmp_path, "generate", cfg)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize(
        "cfg,message",
        [
            ({"coverage": 5}, "'coverage' must be an object"),
            ({"dataset": 5}, "'dataset' must be an object"),
            ({"coverage": COVERAGE, "dataset": [1]}, "'dataset' must be an object"),
            (
                {"coverage": COVERAGE, "dataset": {"distribution": {"variant": "uniform"}}},
                "distribution field 'n' is missing",
            ),
            (
                {"coverage": COVERAGE, "dataset": {
                    "distribution": {"variant": "uniform", "n": 3}}},
                "missing required field 'size'",
            ),
        ],
        ids=["coverage-number", "dataset-number", "dataset-list", "dataset-distribution",
             "dataset-size"],
    )
    def test_bad_block_writes_nothing(self, tmp_path, capsys, cfg, message):
        # both blocks are read and checked before the first file is written
        code, out_dir = run(tmp_path, "generate", cfg)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(out_dir) == []

    def test_lone_target_keeps_a_literal_name(self, tmp_path):
        block = {"n": 4, "max_terms": 2, "max_arity": 2, "out": "t_{0}.json"}
        code, out_dir = run(tmp_path, "generate", {"coverage": block})
        assert code == EXIT_PASS
        assert os.listdir(out_dir) == ["t_{0}.json"]


class TestLearn:
    def test_pac_report(self, tmp_path, capsys):
        cfg = {
            "learner": "pac",
            "n": 6,
            "seed": 3,
            "trials": 2,
            "eval_samples": 20_000,
            "target": {"max_terms": 3, "max_arity": 2},
            "params": {"epsilon": 0.4},
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_PASS
        report = load_json(os.path.join(out_dir, "report.json"))
        assert report["aggregate"]["pass"] is True
        rows = report["rows"]
        assert [r["trial"] for r in rows] == [0, 1]
        for r in rows:
            assert r["l1_error"] <= 0.4
            assert r["l1_half_width"] > 0
            assert r["samples"] > 0
            assert r["runtime_sec"] >= 0
        assert os.path.exists(os.path.join(out_dir, "hypothesis_000.json"))
        with open(os.path.join(out_dir, "report.csv")) as fh:
            csv_head = fh.readline()
        assert csv_head.startswith("trial,seed,l1_error,l1_half_width")

    def test_pmac_reports_mult_fraction(self, tmp_path, capsys):
        cfg = {
            "learner": "pmac",
            "n": 6,
            "seed": 4,
            "trials": 1,
            "eval_samples": 20_000,
            "target": {"max_terms": 3, "max_arity": 2},
            "params": {"gamma": 0.5, "delta": 0.2},
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        report = load_json(os.path.join(out_dir, "report.json"))
        row = report["rows"][0]
        assert row["mult_fraction"] is not None
        assert code in (EXIT_PASS, EXIT_CONTRACT)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_pmac_at_small_n(self, tmp_path, capsys, n):
        # PMAC's subcubes go down to a single point at these n
        for seed in range(1, 9):
            cfg = {
                "learner": "pmac",
                "n": n,
                "seed": seed,
                "target": {"max_terms": 4, "max_arity": n},
                "params": {"gamma": 0.5, "delta": 0.2},
            }
            code, _ = run(tmp_path, "learn", cfg, out=f"out{seed}")
            assert code == EXIT_PASS, (n, seed, capsys.readouterr().err)

    def test_dnf_exact_inner(self, tmp_path, capsys):
        cfg = {
            "learner": "dnf-reduction",
            "n": 5,
            "seed": 6,
            "trials": 2,
            "eval_samples": 5000,
            "params": {"s": 2, "epsilon": 0.1, "inner": "exact"},
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_PASS
        report = load_json(os.path.join(out_dir, "report.json"))
        for r in report["rows"]:
            assert r["l1_error"] == 0.0

    def test_dnf_perturbed_inner(self, tmp_path, capsys):
        cfg = {
            "learner": "dnf-reduction",
            "n": 5,
            "seed": 6,
            "trials": 1,
            "eval_samples": 5000,
            "params": {"s": 2, "epsilon": 0.1, "inner": "perturbed"},
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_PASS

    def test_agnostic_with_distribution(self, tmp_path, capsys):
        cfg = {
            "learner": "agnostic",
            "n": 3,
            "seed": 7,
            "trials": 1,
            "eval_samples": 10_000,
            "distribution": {"variant": "uniform", "n": 3},
            "target": {"max_terms": 2, "max_arity": 2},
            "params": {"epsilon": 0.3},
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_PASS

    def test_target_from_path(self, tmp_path, capsys):
        gen = {
            "seed": 2,
            "coverage": {"n": 5, "max_terms": 2, "max_arity": 2, "out": "t.json"},
        }
        _, gen_dir = run(tmp_path, "generate", gen, out="gen")
        cfg = {
            "learner": "proper",
            "n": 5,
            "seed": 8,
            "trials": 1,
            "eval_samples": 10_000,
            "target": {"path": os.path.join(gen_dir, "t.json")},
            "params": {"epsilon": 0.4, "size_bound": 2},
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_PASS


    def test_pmac_leaves_no_threads_behind(self, tmp_path):
        # at n=14 the root table has 2^14 cells; a fresh interpreter shows
        # every thread the run starts and does not join
        cfg = {
            "learner": "pmac",
            "n": 14,
            "seed": 4,
            "trials": 1,
            "eval_samples": 2000,
            "target": {"max_terms": 3, "max_arity": 2},
            "params": {"gamma": 0.5, "delta": 0.2},
        }
        cfg_path = write_config(tmp_path, "pmac.json", cfg)
        script = (
            "import sys, threading\n"
            "from covlearn.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, threading.active_count())\n"
        )
        args = ["learn", "--config", cfg_path, "--out", str(tmp_path / "out")]
        assert run_fresh(script, *args) == f"{EXIT_PASS} 1"

    def test_pmac_trials_reuse_freed_pages(self, tmp_path):
        # at n=16 every table and check array is above glibc's default mmap
        # threshold; a fresh interpreter runs one trial to warm up, then
        # counts the minor page faults of four more
        cfg = {
            "learner": "pmac",
            "n": 16,
            "seed": 4,
            "target": {"max_terms": 50, "max_arity": 8},
            "params": {"gamma": 0.5, "delta": 0.2},
        }
        one = write_config(tmp_path, "one.json", dict(cfg, trials=1))
        four = write_config(tmp_path, "four.json", dict(cfg, trials=4))
        script = (
            "import resource, sys\n"
            "from covlearn.cli import main\n"
            "one, four, out = sys.argv[1:]\n"
            "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "main(['learn', '--config', one, '--out', out])\n"
            "before = faults()\n"
            "code = main(['learn', '--config', four, '--out', out])\n"
            "print(code, (faults() - before) / 4)\n"
        )
        code, per_trial = run_fresh(script, one, four, str(tmp_path / "out")).split()
        assert code == str(EXIT_PASS)
        # the pages of one 2^16-cell float64 table; the default policy
        # faults in about 1,600 per trial
        assert float(per_trial) < 128


class TestMemoryPolicy:
    """The CLI sets glibc's allocator policy for its process; where there is
    no mallopt it sets nothing and runs the same."""

    def test_mallopt_takes_both_values(self):
        if not hasattr(ctypes.CDLL(None), "mallopt"):
            pytest.skip("no mallopt: the C library is not glibc")
        assert cli._keep_freed_heap() == (1, 1)

    def test_no_mallopt_runs_the_same(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.time, "monotonic", lambda: 0.0)  # equal runtimes
        cfg = dict(TestCountFields.LEARN, learner="pmac", n=6, trials=2,
                   params={"gamma": 0.5, "delta": 0.2})
        assert run(tmp_path, "learn", cfg, out="with")[0] == EXIT_PASS
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert cli._keep_freed_heap() == ()
        assert run(tmp_path, "learn", cfg, out="without")[0] == EXIT_PASS
        with_policy, without = (
            {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
            for out in ("with", "without")
        )
        assert with_policy == without


class TestWhereChecksEvaluate:
    """Every check evaluates its hypothesis once on the 2^n cells when they
    are no more than its sample size, and at the sampled masks otherwise;
    either way each report row is the same."""

    TARGET = {"max_terms": 4, "max_arity": 2}

    @pytest.mark.parametrize(
        "verb,cfg,cls,method",
        [
            (
                "learn",
                {"learner": "pac", "n": 6, "eval_samples": 2000,
                 "target": TARGET, "params": {"epsilon": 0.3}},
                learners.SparsePolynomial, "eval_masks",
            ),
            (
                "learn",
                {"learner": "pac", "n": 13, "eval_samples": 2000,
                 "target": TARGET, "params": {"epsilon": 0.3}},
                learners.SparsePolynomial, "eval_masks",
            ),
            (
                "learn",
                {"learner": "pmac", "n": 6, "eval_samples": 2000,
                 "target": TARGET, "params": {"gamma": 0.5, "delta": 0.2}},
                learners.PmacHypothesis, "eval_masks",
            ),
            (
                "learn",
                {"learner": "pmac", "n": 6, "eval_samples": 50,
                 "target": TARGET, "params": {"gamma": 0.5, "delta": 0.2}},
                learners.PmacHypothesis, "eval_masks",
            ),
            (
                "learn",
                {"learner": "agnostic", "n": 4, "eval_samples": 2000,
                 "target": TARGET, "params": {"epsilon": 0.5}},
                learners.SparsePolynomial, "eval_masks",
            ),
            (
                "release",
                {"release": "k-way", "k": 2, "alpha_bar": 0.5, "epsilon": 1.0,
                 "delta": 0.1, "eval_queries": 500,
                 "dataset": {"n": 4, "gate_factor": 2}},
                privacy.ReleaseSummary, "answer_masks",
            ),
            (
                "release",
                {"release": "k-way", "k": 2, "alpha_bar": 0.5, "epsilon": 1.0,
                 "delta": 0.1, "eval_queries": 10,
                 "dataset": {"n": 4, "gate_factor": 2}},
                privacy.ReleaseSummary, "answer_masks",
            ),
        ],
        ids=["pac-6", "pac-13", "pmac-6", "pmac-6-few-samples", "agnostic-4",
             "release-k-way-4", "release-k-way-4-few-queries"],
    )
    def test_cube_exactly_when_it_fits(
        self, tmp_path, capsys, monkeypatch, verb, cfg, cls, method
    ):
        cfg = dict(cfg, seed=5)
        n = cfg["n"] if verb == "learn" else cfg["dataset"]["n"]
        samples = cfg.get("eval_samples", cfg.get("eval_queries"))
        calls = []
        real = getattr(cls, method)

        def spy(self, masks):
            masks = np.asarray(masks)
            on_cube = np.array_equal(masks, np.arange(1 << n))
            calls.append(("cells" if on_cube else "samples", len(masks)))
            return real(self, masks)

        with monkeypatch.context() as m:
            m.setattr(cls, method, spy)
            code, out_dir = run(tmp_path, verb, cfg, out="cube_or_masks")
        on_cube = 1 << n <= samples
        assert calls == [("cells", 1 << n) if on_cube else ("samples", samples)]

        monkeypatch.setattr(cli, "_cube_or_masks", lambda f, n, samples: f)
        ref_code, ref_dir = run(tmp_path, verb, cfg, out="masks")
        assert code == ref_code
        rows, ref_rows = (
            [{k: v for k, v in r.items() if k != "runtime_sec"}
             for r in load_json(os.path.join(d, "report.json"))["rows"]]
            for d in (out_dir, ref_dir)
        )
        assert rows == ref_rows
        for name in sorted(os.listdir(out_dir)):
            if name.startswith(("hypothesis", "summary")):
                with open(os.path.join(out_dir, name), "rb") as a, \
                        open(os.path.join(ref_dir, name), "rb") as b:
                    assert a.read() == b.read()


class TestCheckRowsPerSample:
    """On both sides of the 2^n <= samples rule, each check's row is the
    per-sample formula: the hypothesis and the truth evaluated at the
    check's drawn masks, then the row's quantity averaged.  A sample of at
    most one chunk gives the one-array mean's bits; a larger one sums per
    chunk, which may move the mean's last bits only."""

    TARGET = {"max_terms": 4, "max_arity": 2}
    SEED = 5
    SIZES = [CHECK_CHUNK, CHECK_CHUNK + 2]

    def fitted(self, tmp_path, monkeypatch, verb, cfg):
        """The report row and the hypothesis or summary trial 0 wrote."""
        written = []
        to_json = "hypothesis_to_json" if verb == "learn" else "summary_to_json"
        real = getattr(cli, to_json)
        spy = lambda h, **kw: written.append(h) or real(h, **kw)
        monkeypatch.setattr(cli, to_json, spy)
        code, out_dir = run(tmp_path, verb, dict(cfg, seed=self.SEED))
        assert code in (EXIT_PASS, EXIT_CONTRACT)
        (row,) = load_json(os.path.join(out_dir, "report.json"))["rows"]
        return row, written[0]

    def eval_masks(self, dist, samples):
        return sample_masks(dist, samples, child_rng(child_seed(self.SEED, 0, 1), 0))

    @staticmethod
    def assert_mean(value, per_sample):
        mean = float(per_sample.mean())
        if len(per_sample) <= CHECK_CHUNK:
            assert value == mean
        else:
            assert value == pytest.approx(mean, rel=1e-15, abs=0)

    @pytest.mark.parametrize("samples", [20, 2000] + SIZES)
    @pytest.mark.parametrize(
        "learner,n,params,dist",
        [
            ("pac", 6, {"epsilon": 0.3}, None),
            ("proper", 5, {"epsilon": 0.4, "size_bound": 3}, None),
            ("agnostic", 5, {"epsilon": 0.5},
             {"variant": "product", "biases": [0.2, 0.5, 0.7, 0.4, 0.9]}),
        ],
    )
    def test_l1_row(self, tmp_path, monkeypatch, learner, n, params, dist, samples):
        cfg = {"learner": learner, "n": n, "eval_samples": samples,
               "target": self.TARGET, "params": params}
        if dist is not None:
            cfg["distribution"] = dist
        row, h = self.fitted(tmp_path, monkeypatch, "learn", cfg)
        target = random_coverage(n, 4, 2, child_seed(self.SEED, 0, 0))
        law = cli._dist_from_json(dist) if dist else DistributionSpec.uniform(n)
        masks = self.eval_masks(law, samples)
        truth = target.eval_masks(masks) if dist else dense_table(target)[masks]
        self.assert_mean(row["l1_error"], np.abs(h.eval_masks(masks) - truth))

    @pytest.mark.parametrize("samples", [50, 2000] + SIZES)
    def test_pmac_row(self, tmp_path, monkeypatch, samples):
        cfg = {"learner": "pmac", "n": 6, "eval_samples": samples,
               "target": self.TARGET, "params": {"gamma": 0.5, "delta": 0.2}}
        row, h = self.fitted(tmp_path, monkeypatch, "learn", cfg)
        target = random_coverage(6, 4, 2, child_seed(self.SEED, 0, 0))
        masks = self.eval_masks(DistributionSpec.uniform(6), samples)
        hv, cv = h.eval_masks(masks), dense_table(target)[masks]
        within = (hv <= cv + 1e-9) & (cv <= 1.5 * hv + 1e-9)
        self.assert_mean(row["mult_fraction"], within)
        self.assert_mean(row["l1_error"], np.abs(hv - cv))

    @pytest.mark.parametrize("queries", [10, 500] + SIZES)
    def test_release_row(self, tmp_path, monkeypatch, queries):
        cfg = {"release": "k-way", "k": 2, "alpha_bar": 0.5, "epsilon": 1.0,
               "delta": 0.1, "eval_queries": queries,
               "dataset": {"n": 4, "gate_factor": 2}}
        tables = []
        real = cli.all_conjunction_answers
        spy = lambda d: tables.append(real(d)) or tables[0]
        monkeypatch.setattr(cli, "all_conjunction_answers", spy)
        row, summary = self.fitted(tmp_path, monkeypatch, "release", cfg)
        truth_table = tables[0]
        # a layer law's Floyd passes run per chunk, so its masks are drawn
        # chunk by chunk
        law, rng = DistributionSpec.layer(4, 2), child_rng(self.SEED, 0, 2)
        masks = np.concatenate([
            sample_masks(law, min(CHECK_CHUNK, queries - start), rng)
            for start in range(0, queries, CHECK_CHUNK)
        ])
        errors = np.abs(summary.answer_masks(masks) - truth_table[masks])
        self.assert_mean(row["avg_error"], errors)


class TestCheckChunks:
    """A check draws and scores its sample check_chunk(n) masks at a time:
    a uniform or product law draws the masks of one draw, and the check's
    memory does not grow with eval_samples."""

    @pytest.mark.parametrize(
        "d",
        [DistributionSpec.uniform(8), DistributionSpec.uniform(40),
         DistributionSpec.product([0.2, 0.5, 0.7, 0.4, 0.9, 0.1])],
        ids=["uniform-8", "uniform-40", "product-6"],
    )
    def test_chunks_draw_the_masks_of_one_draw(self, monkeypatch, d):
        samples = 2 * CHECK_CHUNK + 2
        seen = []
        spy = lambda *args: seen.append(sample_masks(*args)) or seen[-1]
        monkeypatch.setattr(cli, "sample_masks", spy)
        f = lambda masks: (np.ones(len(masks)),)
        assert cli._check_means(f, d, samples, child_rng(3, 0)) == [1.0]
        assert [len(m) for m in seen] == [CHECK_CHUNK, CHECK_CHUNK, 2]
        one = sample_masks(d, samples, child_rng(3, 0))
        assert np.concatenate(seen).tobytes() == one.tobytes()

    @pytest.mark.parametrize("learner,n,params", [
        ("pmac", 10, {"gamma": 0.5, "delta": 0.2}),
        ("proper", 8, {"epsilon": 0.3, "size_bound": 5}),
    ])
    def test_check_memory_does_not_grow_with_eval_samples(
        self, tmp_path, monkeypatch, learner, n, params
    ):
        # the traced memory from the fit's return to the hypothesis's write,
        # at 2^22 samples: 32 MB of masks drawn as one array
        fit_name = {"pmac": "pmac_learn", "proper": "proper_pac_learn"}[learner]
        real_fit, real_to_json = getattr(cli, fit_name), cli.hypothesis_to_json
        marks = []

        def fit(*args):
            h = real_fit(*args)
            marks.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return h

        def to_json(h, **kw):
            marks.append(tracemalloc.get_traced_memory()[1])
            return real_to_json(h, **kw)

        monkeypatch.setattr(cli, fit_name, fit)
        monkeypatch.setattr(cli, "hypothesis_to_json", to_json)
        cfg = {"learner": learner, "n": n, "seed": 2, "eval_samples": 1 << 22,
               "target": {"max_terms": 5, "max_arity": 3}, "params": params}
        tracemalloc.start()
        try:
            code, _ = run(tmp_path, "learn", cfg)
        finally:
            tracemalloc.stop()
        assert code == EXIT_PASS
        start, peak = marks
        assert peak - start < 2 << 20


class TestSampleCount:
    """A learn row's samples is every example the trial's oracles drew,
    counted exactly, PMAC's restricted and scaled oracles included."""

    @pytest.mark.parametrize(
        "learner,params",
        [
            ("pac", {"epsilon": 0.4}),
            ("pmac", {"gamma": 0.5, "delta": 0.2}),
            ("proper", {"epsilon": 0.4, "size_bound": 3}),
            ("agnostic", {"epsilon": 0.5, "noise_scale": 0.05}),
            ("proper-agnostic", {"epsilon": 0.6, "kappa": 0.5}),
        ],
    )
    def test_samples_equal_examples_drawn(
        self, tmp_path, capsys, monkeypatch, learner, params
    ):
        drawn = []

        def spy(cls, name):
            orig = getattr(cls, name)

            def counted(self, size, *args):
                drawn.append(int(size))
                return orig(self, size, *args)

            monkeypatch.setattr(cls, name, counted)

        spy(UniformTableOracle, "draw")
        spy(UniformTableOracle, "draw_counts")
        spy(UniformTableOracle, "draw_hits")
        spy(SampledOracle, "draw")
        cfg = {
            "learner": learner,
            "n": 4 if "agnostic" in learner else 6,
            "seed": 4,
            "trials": 1,
            "eval_samples": 2000,
            "target": {"max_terms": 3, "max_arity": 2},
            "params": params,
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code in (EXIT_PASS, EXIT_CONTRACT)
        (row,) = load_json(os.path.join(out_dir, "report.json"))["rows"]
        assert drawn and type(row["samples"]) is int
        assert row["samples"] == sum(drawn)

    def test_pac_samples_are_one_search_sample(self, tmp_path, capsys):
        # the screen and the search share one sample, sized by a union bound
        # over the sets the search can ask
        cfg = {
            "learner": "pac",
            "n": 6,
            "seed": 4,
            "trials": 1,
            "eval_samples": 2000,
            "target": {"max_terms": 3, "max_arity": 2},
            "params": {"epsilon": 0.4},
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code in (EXIT_PASS, EXIT_CONTRACT)
        (row,) = load_json(os.path.join(out_dir, "report.json"))["rows"]
        t = learners.search_thresholds(0.4, None)
        asked, _ = t.family(6)
        assert row["samples"] == hoeffding_samples(t.tolerance, (1 / 3) / asked)


def _generate_target(tmp_path, n):
    gen = {
        "seed": 2,
        "coverage": {"n": n, "max_terms": 3, "max_arity": 2, "out": "t.json"},
    }
    _, gen_dir = run(tmp_path, "generate", gen, out="gen")
    return os.path.join(gen_dir, "t.json")


def _record(monkeypatch, name, calls):
    """Replaces cli.<name> by a spy that appends (args, result) to calls."""
    orig = getattr(cli, name)

    def recorded(*args, **kwargs):
        result = orig(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(cli, name, recorded)


class TestFileTarget:
    """A target given by target.path is read, and for a table learner
    tabulated, once per invocation; every trial shares that read-only table
    but counts its own examples."""

    FIT = {
        "pac": "pac_learn_uniform", "pmac": "pmac_learn", "proper": "proper_pac_learn",
    }
    PARAMS = {
        "pac": {"epsilon": 0.4},
        "pmac": {"gamma": 0.5, "delta": 0.2},
        "proper": {"epsilon": 0.4, "size_bound": 3},
    }

    def spied_run(self, tmp_path, monkeypatch, learner, target):
        calls = {"read": [], "table": [], "fit": []}
        _record(monkeypatch, "coverage_from_json", calls["read"])
        _record(monkeypatch, "dense_table", calls["table"])
        _record(monkeypatch, self.FIT[learner], calls["fit"])
        cfg = {
            "learner": learner, "n": 6, "seed": 5, "trials": 3,
            "eval_samples": 2000, "target": target, "params": self.PARAMS[learner],
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code in (EXIT_PASS, EXIT_CONTRACT)
        rows = load_json(os.path.join(out_dir, "report.json"))["rows"]
        assert [r["trial"] for r in rows] == [0, 1, 2]
        oracles = [args[0] for args, _ in calls["fit"]]
        return cfg, rows, oracles, calls

    @pytest.mark.parametrize("learner", ["pac", "pmac", "proper"])
    def test_read_and_tabulated_once(self, tmp_path, capsys, monkeypatch, learner):
        target = {"path": _generate_target(tmp_path, 6)}
        cfg, rows, oracles, calls = self.spied_run(
            tmp_path, monkeypatch, learner, target
        )
        assert len(calls["read"]) == 1 and len(calls["table"]) == 1
        (_, table), = calls["table"]
        assert len(oracles) == 3
        assert all(o.values is table for o in oracles)
        # each trial's oracle keeps its own tally, which its row reports
        assert [o.examples_drawn for o in oracles] == [r["samples"] for r in rows]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
        # the trials rebuilt one by one, each by its own invocation of
        # cmd_learn, count the same examples: no tally is carried from one
        # trial to the next
        built = []  # run_trial of each rebuild, the fourth argument of _run_trials
        monkeypatch.setattr(cli, "_run_trials", lambda *args: built.append(args[3]))
        for row in rows:
            cli.cmd_learn(cfg, str(tmp_path / "rebuilt"))
            fields, _ = built[-1](row["trial"], row["seed"])
            assert fields["samples"] == row["samples"]
            assert fields["l1_error"] == row["l1_error"]
        assert len(calls["read"]) == 4 and len(calls["table"]) == 4

    def test_drawn_targets_are_tabulated_per_trial(
        self, tmp_path, capsys, monkeypatch
    ):
        target = {"max_terms": 3, "max_arity": 2}
        _, _, oracles, calls = self.spied_run(tmp_path, monkeypatch, "pmac", target)
        assert calls["read"] == []
        assert len(calls["table"]) == 3
        assert len({repr(args[0]) for args, _ in calls["table"]}) == 3
        tables = [table for _, table in calls["table"]]
        assert len(oracles) == 3
        assert all(o.values is table for o, table in zip(oracles, tables))

    def test_n_mismatch_stops_before_the_first_trial(
        self, tmp_path, capsys, monkeypatch
    ):
        fits = []
        _record(monkeypatch, "pmac_learn", fits)
        cfg = {
            "learner": "pmac", "n": 9, "seed": 5, "trials": 3,
            "eval_samples": 2000,
            "target": {"path": _generate_target(tmp_path, 8)},
            "params": self.PARAMS["pmac"],
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: target has n=8 but the config has n=9\n"
        )
        assert fits == []
        written = os.listdir(out_dir) if os.path.isdir(out_dir) else []
        assert not [f for f in written if f.startswith(("report", "hypothesis_"))]

    @pytest.mark.parametrize(
        "learner,missing", [("pac", "epsilon"), ("pmac", "gamma"), ("proper", "epsilon")]
    )
    def test_bad_field_stops_before_tabulation(
        self, tmp_path, capsys, monkeypatch, learner, missing
    ):
        tables = []
        _record(monkeypatch, "dense_table", tables)
        params = dict(self.PARAMS[learner])
        del params[missing]
        cfg = {
            "learner": learner, "n": 6, "seed": 5, "trials": 3, "eval_samples": 2000,
            "target": {"path": _generate_target(tmp_path, 6)}, "params": params,
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: missing required field {missing!r}\n"
        assert tables == []
        assert os.listdir(out_dir) == []


class TestCountFields:
    LEARN = {
        "learner": "pac",
        "n": 4,
        "target": {"max_terms": 2, "max_arity": 2},
        "params": {"epsilon": 0.4},
    }
    RELEASE = {
        "release": "all-marginals",
        "alpha_bar": 0.4,
        "epsilon": 1e18,
        "delta": 0.1,
        "dataset": {"n": 3, "size": 50},
    }

    @pytest.mark.parametrize(
        "verb,field,value",
        [
            ("learn", "trials", 0),
            ("learn", "trials", -2),
            ("learn", "eval_samples", 0),
            ("release", "trials", 0),
            ("release", "trials", -2),
            ("release", "eval_queries", 0),
        ],
    )
    def test_below_one_is_a_schema_error(
        self, tmp_path, capsys, verb, field, value
    ):
        base = self.LEARN if verb == "learn" else self.RELEASE
        code, out_dir = run(tmp_path, verb, dict(base, **{field: value}))
        assert code == EXIT_USAGE
        assert f"field {field!r}: must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out_dir, "report.json"))

    @pytest.mark.parametrize(
        "verb,cfg,field",
        [
            ("learn", dict(LEARN, learner="pmac", params={"gamma": 0.5, "delta": 0.2}),
             "eval_samples"),
            ("release", dict(RELEASE, release="k-way", k=2), "eval_queries"),
        ],
    )
    @pytest.mark.parametrize("value", [learners.MEMORY_CAP // 16 + 1, 10**13])
    def test_check_sample_over_the_draw_cap(
        self, tmp_path, capsys, verb, cfg, field, value
    ):
        # refused as the config is read, not by a failed allocation after
        # the fit
        code, out_dir = run(tmp_path, verb, dict(cfg, **{field: value}))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: field {field!r}: must be <= {learners.MEMORY_CAP // 16}\n"
        )
        assert os.listdir(out_dir) == []


class TestIntegerFields:
    """An integer field refuses a boolean, a non-integral number or a string
    instead of converting it, wherever the field sits in the config."""

    LEARN = TestCountFields.LEARN
    RELEASE = TestCountFields.RELEASE
    LAYER = {"variant": "layer", "n": 4, "k": True}

    @pytest.mark.parametrize(
        "verb,cfg,field",
        [
            ("learn", dict(LEARN, trials=2.5), "trials"),
            ("learn", dict(LEARN, seed=1.5), "seed"),
            (
                "learn",
                dict(LEARN, target={"max_terms": True, "max_arity": 2}),
                "max_terms",
            ),
            (
                "learn",
                dict(LEARN, learner="dnf-reduction", params={"s": 2.5, "epsilon": 0.3}),
                "s",
            ),
            (
                "learn",
                dict(
                    LEARN, learner="agnostic", params={"epsilon": 0.5}, distribution=LAYER
                ),
                "k",
            ),
            ("release", dict(RELEASE, release="k-way", k=2.7), "k"),
            ("release", dict(RELEASE, dataset={"n": 3.5, "size": 50}), "n"),
            ("generate", {"coverage": {"n": 3.5, "max_terms": 2, "max_arity": 2}}, "n"),
            ("learn", dict(LEARN, trials="2"), "trials"),
            ("learn", dict(LEARN, seed="7"), "seed"),
            ("learn", dict(LEARN, eval_samples="100"), "eval_samples"),
            ("generate", {"coverage": {"n": "3", "max_terms": 2, "max_arity": 2}}, "n"),
        ],
        ids=[
            "count", "seed", "target-block", "params", "distribution", "top-level",
            "dataset-block", "generate-block", "count-string", "seed-string",
            "eval-samples-string", "generate-block-string",
        ],
    )
    def test_is_a_schema_error(self, tmp_path, capsys, verb, cfg, field):
        code, out_dir = run(tmp_path, verb, cfg)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"field {field!r}: expected an integer" in err
        assert len(err.splitlines()) == 1
        assert not os.path.exists(os.path.join(out_dir, "report.json"))

    def test_integral_float_is_accepted(self, tmp_path, capsys):
        cfg = dict(self.RELEASE, release="k-way", k=2.0, dataset={"n": 3.0, "size": 50})
        code, _ = run(tmp_path, "release", cfg)
        assert code == EXIT_PASS


class TestOutOfRange:
    """Config values the library rejects are usage errors, not crashes."""

    LEARN = TestCountFields.LEARN
    RELEASE = TestCountFields.RELEASE

    @pytest.mark.parametrize(
        "verb,cfg",
        [
            ("learn", dict(LEARN, params={"epsilon": 1.5})),
            ("learn", dict(LEARN, n=0)),
            (
                "learn",
                dict(LEARN, learner="pmac", params={"gamma": 0.5, "delta": 1.5}),
            ),
            ("release", dict(RELEASE, alpha_bar=1.5)),
            ("release", dict(RELEASE, dataset={"n": 3, "size": -3})),
            ("release", dict(RELEASE, dataset={"n": 0, "size": 50})),
            ("release", dict(RELEASE, release="k-way", k=9)),
            ("release", dict(RELEASE, dataset={"n": 3, "gate_factor": -1})),
        ],
        ids=[
            "epsilon", "n", "pmac-delta", "alpha_bar", "size", "dataset-n", "k",
            "gate_factor",
        ],
    )
    def test_exits_with_usage_error(self, tmp_path, capsys, verb, cfg):
        code, out_dir = run(tmp_path, verb, cfg)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(os.path.join(out_dir, "report.json"))

    @pytest.mark.parametrize("where", ["target", "distribution"])
    def test_n_must_match_the_config(self, tmp_path, capsys, where):
        gen = {
            "seed": 2,
            "coverage": {"n": 5, "max_terms": 2, "max_arity": 2, "out": "t.json"},
        }
        _, gen_dir = run(tmp_path, "generate", gen, out="gen")
        cfg = {
            "learner": "agnostic",
            "n": 5,
            "eval_samples": 1000,
            "target": {"path": os.path.join(gen_dir, "t.json")},
            "distribution": {"variant": "uniform", "n": 5},
            "params": {"epsilon": 0.5},
        }
        if where == "target":
            cfg["n"] = cfg["distribution"]["n"] = 7
        else:
            cfg["distribution"]["n"] = 7
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_USAGE
        assert f"{where} has n=" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out_dir, "report.json"))


class TestSchemaBranches:
    """Each way a config can fail the schema is one error line, exit 2."""

    LEARN = TestCountFields.LEARN
    RELEASE = TestCountFields.RELEASE
    AGNOSTIC = dict(LEARN, learner="agnostic", params={"epsilon": 0.5})
    DNF = dict(LEARN, learner="dnf-reduction")

    @pytest.mark.parametrize(
        "verb,cfg,message",
        [
            (
                "release",
                {k: v for k, v in RELEASE.items() if k != "alpha_bar"},
                "missing required field 'alpha_bar'",
            ),
            ("release", dict(RELEASE, release="k-way", k="two"), "field 'k': "),
            ("learn", dict(AGNOSTIC, distribution=5), "distribution must be"),
            (
                "learn",
                dict(AGNOSTIC, distribution={"variant": "layer", "n": 4}),
                "distribution field 'k' is missing",
            ),
            (
                "learn",
                dict(AGNOSTIC, distribution={"variant": "gaussian", "n": 4}),
                "unknown distribution variant 'gaussian'",
            ),
            (
                "generate",
                {"coverage": {"n": 3, "max_terms": 2, "max_arity": 5}},
                "coverage block: ",
            ),
            (
                "generate",
                {
                    "dataset": {
                        "distribution": {"variant": "uniform", "n": 3},
                        "size": 1_000_001,
                    }
                },
                "exceeds the text expansion cap",
            ),
            (
                "learn",
                {k: v for k, v in LEARN.items() if k != "target"},
                "needs a 'target' object",
            ),
            ("learn", dict(LEARN, params=[0.4]), "'params' must be an object"),
            (
                "learn",
                dict(DNF, params={"s": 2, "epsilon": 0.3, "inner": "oracle"}),
                "field 'inner'",
            ),
            (  # refused before the DNF is drawn, which would refuse this s
                "learn",
                dict(DNF, params={"s": 10**6, "epsilon": 0.3, "inner": "oracle"}),
                "field 'inner'",
            ),
            (  # the reduction's target lives on 2n coordinates
                "learn",
                dict(DNF, n=33, params={"s": 2, "epsilon": 0.3}),
                "field 'n': dnf-reduction needs 2n <= 64",
            ),
            ("learn", dict(DNF, n=64, params={"s": 2, "epsilon": 0.3}), "field 'n'"),
            ("learn", dict(DNF, params={"s": 2, "epsilon": -1}), "eps must lie in"),
            (
                "release",
                {k: v for k, v in RELEASE.items() if k != "dataset"},
                "needs a 'dataset' object",
            ),
            ("learn", [LEARN], "config root must be a JSON object"),
            (
                "learn",
                dict(AGNOSTIC, distribution={"variant": "product", "biases": 5}),
                "field 'biases': ",
            ),
            (
                "learn",
                dict(
                    AGNOSTIC,
                    distribution={
                        "variant": "symmetric", "weights": [0, 0.5, None, 0.5, 0]
                    },
                ),
                "field 'weights': ",
            ),
            ("learn", dict(LEARN, target={"path": 0}), "field 'path': "),
            ("learn", dict(LEARN, target={"path": ["x"]}), "field 'path': "),
            ("release", dict(RELEASE, dataset={"path": 0}), "field 'path': "),
            ("release", dict(RELEASE, dataset={"path": ["x"]}), "field 'path': "),
            (  # NaN fails every comparison, so the checks are written to fail it
                "learn",
                dict(
                    AGNOSTIC,
                    distribution={
                        "variant": "symmetric", "weights": [math.nan, 0.2, 0.5, 0.3, 0]
                    },
                ),
                "layer weights must be non-negative",
            ),
            ("learn", dict(LEARN, n=10**30), "is over the cap of 64"),
            (
                "generate",
                {"coverage": {"n": 10**30, "max_terms": 2, "max_arity": 2}},
                "n must lie in 1..64",
            ),
        ],
        ids=[
            "missing-field", "unconvertible-field", "distribution-not-object",
            "distribution-missing-field", "distribution-unknown-variant",
            "coverage-block", "dataset-over-expansion-cap", "no-target",
            "params-not-object", "unknown-inner", "unknown-inner-before-draw",
            "dnf-n-33", "dnf-n-64", "dnf-epsilon",
            "no-dataset", "root-not-object",
            "biases-not-a-list", "null-weight", "target-path-number",
            "target-path-list", "dataset-path-number", "dataset-path-list",
            "nan-weight", "learn-n-over-cap", "generate-n-over-cap",
        ],
    )
    def test_exits_with_one_error_line(
        self, tmp_path, capsys, monkeypatch, verb, cfg, message
    ):
        # open(0) would read stdin, and on a terminal wait for it
        real_open = builtins.open

        def no_descriptors(file, *args, **kwargs):
            assert not isinstance(file, int), "a config path opened a descriptor"
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", no_descriptors)
        code, out_dir = run(tmp_path, verb, cfg)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err
        assert not os.path.exists(os.path.join(out_dir, "report.json"))
        assert not os.path.exists(out_dir) or os.listdir(out_dir) == []


class TestUnreadablePaths:
    """A config or input path that cannot be read, an --out that names a
    file, or an output path that cannot be written, is one error line naming
    the path and exit 2, before any file is written."""

    LEARN = TestCountFields.LEARN
    RELEASE = TestCountFields.RELEASE
    GENERATE = {
        "coverage": TestGenerate.COVERAGE,
        "dataset": {
            "distribution": {"variant": "uniform", "n": 3}, "size": 5, "out": "."
        },
    }

    @pytest.mark.parametrize(
        "verb,cfg,config,out,named",
        [
            ("learn", LEARN, "a_directory", "out", "a_directory"),
            ("learn", LEARN, "cfg.json", "a_file", "a_file"),
            ("learn", dict(LEARN, target={"path": "."}), "cfg.json", "out", "."),
            ("release", dict(RELEASE, dataset={"path": "."}), "cfg.json", "out", "."),
            ("generate", GENERATE, "cfg.json", "out", os.path.join("out", ".")),
        ],
        ids=[
            "config-is-a-directory", "out-is-a-file", "target-path-is-a-directory",
            "dataset-path-is-a-directory", "generated-dataset-is-a-directory",
        ],
    )
    def test_unreadable_path(
        self, tmp_path, capsys, monkeypatch, verb, cfg, config, out, named
    ):
        monkeypatch.chdir(tmp_path)
        os.mkdir("a_directory")
        (tmp_path / "a_file").write_text("")
        write_config(tmp_path, "cfg.json", cfg)
        code = main([verb, "--config", config, "--out", out])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert repr(named) in err
        assert (tmp_path / "a_file").read_text() == ""
        assert not os.path.isdir(out) or os.listdir(out) == []


class TestTrialClock:
    """runtime_sec covers a trial's fit and evaluation, not the writes of
    its output files."""

    @pytest.mark.parametrize(
        "verb,cfg,to_json,output",
        [
            (
                "learn",
                dict(TestCountFields.LEARN, eval_samples=1000),
                "hypothesis_to_json",
                "hypothesis_{:03d}.json",
            ),
            (
                "release",
                dict(TestCountFields.RELEASE, eval_queries=1000),
                "summary_to_json",
                "summary_{:03d}.json",
            ),
        ],
        ids=["learn", "release"],
    )
    def test_output_writes_are_not_timed(
        self, tmp_path, capsys, monkeypatch, verb, cfg, to_json, output
    ):
        to_json_fast = getattr(cli, to_json)

        def slow(obj, **kwargs):
            time.sleep(0.3)
            return to_json_fast(obj, **kwargs)

        monkeypatch.setattr(cli, to_json, slow)
        _, out_dir = run(tmp_path, verb, dict(cfg, seed=3, trials=2))
        rows = load_json(os.path.join(out_dir, "report.json"))["rows"]
        assert [r["trial"] for r in rows] == [0, 1]
        assert all(r["runtime_sec"] < 0.3 for r in rows)
        for trial in range(2):
            assert os.path.exists(os.path.join(out_dir, output.format(trial)))


class TestJsonFiles:
    """Every JSON file a run writes is json.dump(obj, indent=2,
    sort_keys=True) plus a newline, byte for byte."""

    @pytest.mark.parametrize(
        "verb,cfg",
        [
            (
                "learn",
                {
                    "learner": "pmac",
                    "n": 6,
                    "eval_samples": 1000,
                    "target": {"max_terms": 3, "max_arity": 2},
                    "params": {"gamma": 0.5, "delta": 0.2},
                },
            ),
            (
                "release",
                {
                    "release": "k-way",
                    "k": 2,
                    "alpha_bar": 0.9,
                    "epsilon": 1.0,
                    "delta": 0.1,
                    "eval_queries": 500,
                    "dataset": {"n": 3, "gate_factor": 2},
                },
            ),
        ],
        ids=["learn-pmac", "release-k-way"],
    )
    def test_files_are_json_dump_text(self, tmp_path, capsys, verb, cfg):
        code, out_dir = run(tmp_path, verb, dict(cfg, seed=5, trials=2))
        assert code == EXIT_PASS
        names = sorted(f for f in os.listdir(out_dir) if f.endswith(".json"))
        assert len(names) == 3  # two trial files and report.json
        for name in names:
            with open(os.path.join(out_dir, name), "rb") as fh:
                raw = fh.read()
            text = json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"
            assert raw == text.encode(), name


class TestNonFiniteValues:
    """NaN, infinite or negative values are usage errors, never published."""

    def test_infinite_gate_factor(self, tmp_path, capsys):
        cfg = dict(TestCountFields.RELEASE, dataset={"n": 3, "gate_factor": "F"})
        path = tmp_path / "release_cfg.json"
        path.write_text(json.dumps(cfg).replace('"F"', "1e999"))
        out_dir = str(tmp_path / "out")
        assert main(["release", "--config", str(path), "--out", out_dir]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gate_factor" in err
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize(
        "term", [{"weight": 0.5}, [1, 2]], ids=["no-set", "not-an-object"]
    )
    def test_bad_target_term_is_a_usage_error(self, tmp_path, capsys, term):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"n": 4, "affine": 0.0, "terms": [term]}))
        cfg = dict(TestCountFields.LEARN, target={"path": str(target)})
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_USAGE
        assert "bad coverage-function JSON" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out_dir, "report.json"))

    def test_nan_privacy_epsilon_publishes_nothing(self, tmp_path, capsys):
        cfg = {
            "release": "all-marginals",
            "alpha_bar": 0.5,
            "epsilon": math.nan,
            "delta": 0.1,
            "dataset": {"n": 4, "size": 100_000},
        }
        code, out_dir = run(tmp_path, "release", cfg)
        assert code == EXIT_USAGE
        assert "epsilon" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out_dir, "summary_000.json"))

    @pytest.mark.parametrize("variant", ["all-marginals", "k-way", "synthetic"])
    @pytest.mark.parametrize("value", [0, -0.5, 1, math.nan])
    @pytest.mark.parametrize("field", ["alpha_bar", "delta"])
    def test_release_fractions_must_lie_in_the_open_unit_interval(
        self, tmp_path, capsys, field, value, variant
    ):
        # checked before the gate_factor dataset divides by them
        cfg = {
            "release": variant,
            "k": 2,
            "alpha_bar": 0.5,
            "epsilon": 1.0,
            "delta": 0.1,
            "dataset": {"n": 4, "gate_factor": 1},
            field: value,
        }
        code, out_dir = run(tmp_path, "release", cfg)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: field {field!r}: must lie in (0,1)\n"
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize("noise_scale", [-0.3, math.nan, math.inf])
    def test_noise_scale_must_be_finite_and_non_negative(
        self, tmp_path, capsys, noise_scale
    ):
        cfg = {
            "learner": "agnostic",
            "n": 5,
            "eval_samples": 1000,
            "target": {"max_terms": 3, "max_arity": 2},
            "params": {"epsilon": 0.5, "noise_scale": noise_scale},
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_USAGE
        assert "noise_scale" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out_dir, "report.json"))

    @pytest.mark.parametrize(
        "verb,cfg,field",
        [
            (
                "learn",
                {
                    "learner": "proper",
                    "n": 5,
                    "eval_samples": 1000,
                    "target": {"max_terms": 3, "max_arity": 2},
                    "params": {"epsilon": 0.4, "size_bound": math.nan},
                },
                "size_bound",
            ),
            (
                "release",
                {
                    "release": "synthetic",
                    "alpha_bar": 0.5,
                    "epsilon": 1.0,
                    "delta": 0.1,
                    "size_bound": math.nan,
                    "dataset": {"n": 4, "size": 1000},
                },
                "size_bound",
            ),
            (
                "release",
                {
                    "release": "all-marginals",
                    "alpha_bar": 0.5,
                    "epsilon": math.nan,
                    "delta": 0.1,
                    "dataset": {"n": 4, "gate_factor": 1},
                },
                "epsilon",
            ),
        ],
        ids=["learn-proper-size_bound", "synthetic-size_bound", "gate-epsilon"],
    )
    def test_nan_field_is_named(self, tmp_path, capsys, verb, cfg, field):
        code, out_dir = run(tmp_path, verb, cfg)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: field '{field}'")
        assert not os.path.exists(out_dir) or os.listdir(out_dir) == []

    @pytest.mark.parametrize(
        "n,set_,field",
        [(4.5, [1], "n"), (True, [1], "n"), (4, [True], "set")],
        ids=["n", "n-bool", "set"],
    )
    def test_non_integer_target_field_is_a_usage_error(
        self, tmp_path, capsys, n, set_, field
    ):
        # int() would read n=4.5 as 4, which passes the config's n check
        target = {"n": n, "affine": 0.0, "terms": [{"set": set_, "weight": 0.5}]}
        target_path = write_config(tmp_path, "target.json", target)
        cfg = dict(TestCountFields.LEARN, target={"path": target_path})
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"field {field!r}" in err
        assert not os.path.exists(os.path.join(out_dir, "report.json"))

    def test_nan_target_weight_is_a_usage_error(self, tmp_path, capsys):
        target = {"n": 4, "affine": 0.0, "terms": [{"set": [1], "weight": math.nan}]}
        target_path = write_config(tmp_path, "target.json", target)
        cfg = {
            "learner": "pac",
            "n": 4,
            "eval_samples": 1000,
            "target": {"path": target_path},
            "params": {"epsilon": 0.4},
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(os.path.join(out_dir, "report.json"))


class TestRelease:
    def test_all_marginals_noiseless(self, tmp_path, capsys):
        cfg = {
            "release": "all-marginals",
            "alpha_bar": 0.4,
            "epsilon": 1e18,
            "delta": 0.1,
            "seed": 1,
            "trials": 1,
            "eval_queries": 2000,
            "dataset": {"n": 5, "gate_factor": 1.5},
        }
        code, out_dir = run(tmp_path, "release", cfg)
        assert code == EXIT_PASS
        summary = load_json(os.path.join(out_dir, "summary_000.json"))
        assert summary["variant"] == "fourier"
        q, _ = marginals_query_budget(5, 0.4)
        assert summary["metadata"]["queries_used"] <= q

    def test_gate_refusal_exit_code_and_message(self, tmp_path, capsys):
        cfg = {
            "release": "all-marginals",
            "alpha_bar": 0.25,
            "epsilon": 1.0,
            "delta": 0.1,
            "seed": 1,
            "dataset": {"n": 5, "size": 100},
        }
        code, _ = run(tmp_path, "release", cfg)
        assert code == EXIT_GATE
        err = capsys.readouterr().err
        q, tau = marginals_query_budget(5, 0.25)
        required = math.ceil(gate_size(q, tau, 1.0, 0.1))
        assert str(required) in err

    @pytest.mark.parametrize(
        "variant,dataset",
        [
            # no size_bound: the admission gate asks for about 5.6e19 rows
            ("synthetic", {"n": 16, "gate_factor": 1}),
            ("k-way", {"n": 5, "size": 10**19}),
        ],
    )
    def test_undrawable_dataset_size_is_a_usage_error(
        self, tmp_path, capsys, variant, dataset
    ):
        cfg = {
            "release": variant,
            "k": 2,
            "alpha_bar": 0.5,
            "epsilon": 2.0,
            "delta": 0.1,
            "dataset": dataset,
        }
        code, _ = run(tmp_path, "release", cfg)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: dataset size") and len(err.splitlines()) == 1

    def test_dataset_wider_than_64_is_a_usage_error(self, tmp_path, capsys):
        data_path = tmp_path / "wide.txt"
        data_path.write_text(("10" * 35 + "\n") * 20)
        cfg = dict(TestCountFields.RELEASE, dataset={"path": str(data_path)})
        code, out_dir = run(tmp_path, "release", cfg)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: point width 70") and len(err.splitlines()) == 1
        assert os.listdir(out_dir) == []

    def test_empty_synthetic_release(self, tmp_path, capsys):
        # every row all -1: c_D is zero, the learned hypothesis rounds to
        # nothing, and the synthetic dataset is empty
        data_path = tmp_path / "ones.txt"
        data_path.write_text("11111\n" * 60)
        cfg = {
            "release": "synthetic",
            "alpha_bar": 0.9,
            "epsilon": math.inf,
            "delta": 0.1,
            "size_bound": 1,
            "seed": 101,
            "dataset": {"path": str(data_path)},
        }
        code, out_dir = run(tmp_path, "release", cfg)
        assert code == EXIT_PASS
        summary = load_json(os.path.join(out_dir, "summary_000.json"))
        assert summary["synthetic"] == []
        assert not os.path.exists(os.path.join(out_dir, "synthetic_000.txt"))
        rows = load_json(os.path.join(out_dir, "report.json"))["rows"]
        assert rows[0]["avg_error"] == 0.0

    def test_synthetic_release_and_reingestion(self, tmp_path, capsys):
        # build a structured base dataset, release privately at huge epsilon,
        # then feed the emitted synthetic file back in as a release input
        lines = []
        n = 5
        for i in range(n):
            lines.extend(["".join("0" if j == i else "1" for j in range(n))] * 40)
        lines.extend(["1" * n] * 20)
        data_path = tmp_path / "base.txt"
        data_path.write_text("\n".join(lines) + "\n")
        cfg = {
            "release": "synthetic",
            "alpha_bar": 0.4,
            "epsilon": 1e18,
            "delta": 0.1,
            "seed": 2,
            "trials": 1,
            "eval_queries": 2000,
            "size_bound": n + 1,
            "dataset": {"path": str(data_path)},
        }
        code, out_dir = run(tmp_path, "release", cfg)
        assert code == EXIT_PASS
        syn_path = os.path.join(out_dir, "synthetic_000.txt")
        assert os.path.exists(syn_path)
        d = dataset_from_text(Path(syn_path).read_text())
        assert d.n == n
        cfg2 = dict(cfg, dataset={"path": syn_path}, seed=3)
        code2, _ = run(tmp_path, "release", cfg2, out="out2")
        assert code2 == EXIT_PASS

    @pytest.mark.parametrize("variant", ["k-way", "synthetic"])
    def test_a_priori_budget_covers_every_query(self, tmp_path, capsys, variant):
        # at the gate with finite epsilon; an exhausted budget would fail a
        # trial (TestBudgetExhausted) and exit 1
        cfg = {
            "release": variant,
            "k": 2,
            "size_bound": 5,
            "alpha_bar": 0.9,
            "epsilon": 1.0,
            "delta": 0.1,
            "seed": 4,
            "trials": 3,
            "eval_queries": 500,
            "dataset": {"n": 4, "gate_factor": 1},
        }
        code, out_dir = run(tmp_path, "release", cfg)
        assert code == EXIT_PASS
        rows = load_json(os.path.join(out_dir, "report.json"))["rows"]
        if variant == "k-way":
            q, _ = k_way_query_budget(4, 0.9)
            assert [r["privacy_budget"] for r in rows] == [q] * 3
        else:
            q, _ = synthetic_query_budget(4, 0.9, 5)
            assert all(0 < r["privacy_budget"] <= q for r in rows)

    def test_unknown_variant(self, tmp_path, capsys):
        cfg = {
            "release": "histogram",
            "alpha_bar": 0.3,
            "epsilon": 1.0,
            "delta": 0.1,
            "dataset": {"n": 4, "size": 10},
        }
        code, _ = run(tmp_path, "release", cfg)
        assert code == EXIT_USAGE
        assert "all-marginals" in capsys.readouterr().err


class TestDesignTooLarge:
    def test_refused_before_any_draw(self, tmp_path, capsys, monkeypatch):
        # agnostic at n=20, eps=0.2: up to 2^20 design rows of 6196 features
        draws = []
        monkeypatch.setattr(SampledOracle, "draw", lambda *args: draws.append(args))
        cfg = {
            "learner": "agnostic",
            "n": 20,
            "target": {"max_terms": 2, "max_arity": 2},
            "params": {"epsilon": 0.2},
        }
        code, out_dir = run(tmp_path, "learn", cfg)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: regression design needs up to 51975815168 bytes")
        assert len(err.splitlines()) == 1
        assert draws == []
        assert not os.path.exists(os.path.join(out_dir, "report.json"))


class TestLpNotOptimal:
    @pytest.mark.parametrize(
        "verb,cfg,output",
        [
            (
                "learn",
                # noisy labels leave no beta at the rows' medians, so the
                # fit reaches HiGHS
                {
                    "learner": "proper-agnostic",
                    "n": 5,
                    "eval_samples": 1000,
                    "target": {"max_terms": 2, "max_arity": 2},
                    "params": {"epsilon": 0.6, "kappa": 0.3, "noise_scale": 0.1},
                },
                "hypothesis_000.json",
            ),
            (
                # at n=5 the synthetic release's private answers leave no
                # feasible beta at the medians, so its fit reaches HiGHS; the
                # k-way release's fit takes no LP
                "release",
                {
                    "release": "synthetic",
                    "size_bound": 5,
                    "alpha_bar": 0.9,
                    "epsilon": 1.0,
                    "delta": 0.1,
                    "dataset": {"n": 5, "gate_factor": 2},
                },
                "summary_000.json",
            ),
        ],
    )
    def test_becomes_a_failed_trial_row(
        self, tmp_path, capsys, monkeypatch, verb, cfg, output
    ):
        solve = regression._run_highs

        def stopped(lp, options, bounded):
            # HiGHS itself stops: no iteration allowed, nothing presolved
            limits = {"simplex_iteration_limit": 0, "ipm_iteration_limit": 0}
            return solve(lp, {**options, **limits, "presolve": "off"}, bounded)

        monkeypatch.setattr(regression, "_run_highs", stopped)
        with pytest.raises(LPNotOptimal, match="Iteration limit reached"):
            # two points whose labels no beta fits
            solve_l1(L1Problem(np.array([[1.0], [2.0]]), np.array([0.25, 0.25]),
                               SIMPLEX_LIKE))
        code, out_dir = run(tmp_path, verb, dict(cfg, seed=1, trials=1))
        assert code == EXIT_CONTRACT
        (row,) = load_json(os.path.join(out_dir, "report.json"))["rows"]
        assert row["success"] is False
        assert "Iteration limit reached" in row["error"]
        assert row["seed"] == child_seed(1, 0, 0)
        assert "runtime_sec" not in row
        assert not os.path.exists(os.path.join(out_dir, output))

    def test_beta_above_the_simplex(self, tmp_path, capsys, monkeypatch):
        # HiGHS's beta raised to sum 1 + 1e-6, within its feasibility
        # tolerance but off the simplex: a failed trial row, not a traceback
        solve = regression._run_highs

        def above(lp, options, bounded):
            run = solve(lp, options, bounded)
            k = lp.num_col_ - 2 * (lp.num_row_ - 1) - bounded
            beta = run.col_value[:k].copy()
            beta[0] += 1 + 1e-6 - beta.sum()
            return run._replace(col_value=np.r_[beta, run.col_value[k:]])

        monkeypatch.setattr(regression, "_run_highs", above)
        cfg = {
            "learner": "proper-agnostic",
            "n": 5,
            "eval_samples": 1000,
            "target": {"max_terms": 2, "max_arity": 2},
            "params": {"epsilon": 0.6, "kappa": 0.3, "noise_scale": 0.1},
        }
        code, out_dir = run(tmp_path, "learn", dict(cfg, seed=1, trials=1))
        assert code == EXIT_CONTRACT
        (row,) = load_json(os.path.join(out_dir, "report.json"))["rows"]
        assert row["success"] is False
        assert "off the simplex" in row["error"]
        assert "Traceback" not in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out_dir, "hypothesis_000.json"))


class TestUnboundedProper:
    def test_default_size_bound_finishes(self, tmp_path, capsys):
        # size_bound defaults to inf; read as 2^6 terms, the proper search
        # draws about 4e11 examples, not the 6e25 it asked for unbounded
        cfg = {
            "learner": "proper",
            "n": 6,
            "seed": 1,
            "trials": 1,
            "eval_samples": 1000,
            "target": {"max_terms": 2, "max_arity": 2},
            "params": {"epsilon": 0.2},
        }
        start = time.monotonic()
        code, out_dir = run(tmp_path, "learn", cfg)
        assert time.monotonic() - start < 5.0
        assert code == 0
        (row,) = load_json(os.path.join(out_dir, "report.json"))["rows"]
        assert row["success"] is True


class TestBudgetExhausted:
    def test_becomes_a_failed_trial_row(self, tmp_path, capsys, monkeypatch):
        # a budget of 3 queries: the screen asks 5 singletons in one batch;
        # the admission gate still reads the CLI's own budget
        real = privacy.marginals_query_budget
        monkeypatch.setattr(
            privacy, "marginals_query_budget", lambda n, a: (3, real(n, a)[1])
        )
        cfg = dict(TestCountFields.RELEASE, dataset={"n": 5, "size": 50})
        code, out_dir = run(tmp_path, "release", dict(cfg, seed=1, trials=2))
        assert code == EXIT_CONTRACT
        rows = load_json(os.path.join(out_dir, "report.json"))["rows"]
        for trial, row in enumerate(rows):
            assert row == {
                "trial": trial,
                "seed": child_seed(1, trial, 0),
                "error": "5 queries exceed the remaining budget of 3",
                "success": False,
            }
        assert not os.path.exists(os.path.join(out_dir, "summary_000.json"))
        assert capsys.readouterr().out.startswith("release all-marginals: 0/2")


class TestSelftest:
    def test_passes_and_prints_checks(self, capsys):
        assert main(["selftest"]) == EXIT_PASS
        out = capsys.readouterr().out
        for name in (
            "spectral-norm-bound",
            "coefficient-monotonicity",
            "expectation-bound",
            "junta-projection",
            "parseval",
            "fourier-path-agreement",
            "counting-identity",
            "lp-duality",
            "lattice-exactness",
        ):
            assert f"ok   {name}" in out
        assert "selftest: pass" in out

    def test_failing_check_prints_fail_and_exits_1(self, capsys, monkeypatch):
        def broken():
            raise AssertionError

        checks = [
            (name, broken if name == "parseval" else check)
            for name, check in cli._selftest_checks()
        ]
        monkeypatch.setattr(cli, "_selftest_checks", lambda: checks)
        assert main(["selftest"]) == EXIT_CONTRACT
        out = capsys.readouterr().out
        assert "FAIL parseval" in out and "ok   lp-duality" in out
        assert "selftest: 1 failures" in out

    def test_checks_hold_under_python_O(self):
        # python -O strips assert statements; the checks must still fail
        # when exact_fourier returns every coefficient doubled
        script = (
            "import sys\n"
            "from covlearn import cli, coverage\n"
            "real = cli.exact_fourier\n"
            "def doubled(c, *args):\n"
            "    t = real(c, *args)\n"
            "    return coverage.FourierTable(t.n, {k: 2 * v for k, v in t.coeffs.items()})\n"
            "cli.exact_fourier = doubled\n"
            "sys.exit(cli.main(['selftest']))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=300,
        )
        assert proc.returncode == EXIT_CONTRACT, proc.stdout + proc.stderr
        assert "selftest: 3 failures" in proc.stdout
