import builtins
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from covlearn import cli, learners, regression
from covlearn.cube import child_seed
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
from covlearn.regression import L1Problem, LPNotOptimal, solve_l1
from covlearn.serialize import coverage_from_json, dataset_from_text, load_json


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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


class TestGenerate:
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
        d = dataset_from_text(open(os.path.join(out_dir, "d.txt")).read())
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
            a = open(os.path.join(out_a, name), "rb").read()
            b = open(os.path.join(out_b, name), "rb").read()
            assert a == b

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {
            "seed": 9,
            "coverage": {"n": 5, "max_terms": 3, "max_arity": 2, "out": "t.json"},
        }
        _, out_a = run(tmp_path, "generate", cfg, out="a")
        _, out_b = run(tmp_path, "generate", cfg, out="b", extra=["--seed", "10"])
        a = open(os.path.join(out_a, "t.json")).read()
        b = open(os.path.join(out_b, "t.json")).read()
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
        csv_head = open(os.path.join(out_dir, "report.csv")).readline()
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


    def test_pmac_output_ignores_the_worker_count(self, tmp_path, monkeypatch):
        # at n=13 the first level's table is drawn as two blocks
        cfg = {
            "learner": "pmac",
            "n": 13,
            "seed": 4,
            "trials": 1,
            "eval_samples": 2000,
            "target": {"max_terms": 3, "max_arity": 2},
            "params": {"gamma": 0.5, "delta": 0.2},
        }
        _, pooled = run(tmp_path, "learn", cfg, out="pooled")
        used = []
        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setattr(learners, "_count_pool", lambda: used.append(1) or pool)
            _, single = run(tmp_path, "learn", cfg, out="single")
        assert used
        samples, hyps = [], []
        for d in (pooled, single):
            (row,) = load_json(os.path.join(d, "report.json"))["rows"]
            samples.append(row["samples"])
            with open(os.path.join(d, "hypothesis_000.json"), "rb") as fh:
                hyps.append(fh.read())
        assert samples[0] == samples[1]
        assert hyps[0] == hyps[1]


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

            def counted(self, size, rng):
                drawn.append(int(size))
                return orig(self, size, rng)

            monkeypatch.setattr(cls, name, counted)

        spy(UniformTableOracle, "draw")
        spy(UniformTableOracle, "draw_counts")
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
        # over the n singletons and the pool fixed by the target
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
        theta = 0.4**2 / 6
        family = 6 + learners.pac_pool_bound(theta, 6)
        assert row["samples"] == hoeffding_samples(theta / 2, (1 / 3) / family)


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


class TestIntegerFields:
    """An integer field refuses a boolean or a non-integral number instead
    of truncating it, wherever the field sits in the config."""

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
        ],
        ids=[
            "count", "seed", "target-block", "params", "distribution", "top-level",
            "dataset-block", "generate-block",
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
        ],
        ids=[
            "missing-field", "unconvertible-field", "distribution-not-object",
            "distribution-missing-field", "distribution-unknown-variant",
            "coverage-block", "dataset-over-expansion-cap", "no-target",
            "params-not-object", "unknown-inner", "no-dataset", "root-not-object",
            "biases-not-a-list", "null-weight", "target-path-number",
            "target-path-list", "dataset-path-number", "dataset-path-list",
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
    """A config or input path that cannot be read, or an --out that names a
    file, is one error line naming the path and exit 2, before any file is
    written."""

    LEARN = TestCountFields.LEARN
    RELEASE = TestCountFields.RELEASE

    @pytest.mark.parametrize(
        "verb,cfg,config,out,named",
        [
            ("learn", LEARN, "a_directory", "out", "a_directory"),
            ("learn", LEARN, "cfg.json", "a_file", "a_file"),
            ("learn", dict(LEARN, target={"path": "."}), "cfg.json", "out", "."),
            ("release", dict(RELEASE, dataset={"path": "."}), "cfg.json", "out", "."),
        ],
        ids=[
            "config-is-a-directory", "out-is-a-file", "target-path-is-a-directory",
            "dataset-path-is-a-directory",
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

        def slow(obj):
            time.sleep(0.3)
            return to_json_fast(obj)

        monkeypatch.setattr(cli, to_json, slow)
        _, out_dir = run(tmp_path, verb, dict(cfg, seed=3, trials=2))
        rows = load_json(os.path.join(out_dir, "report.json"))["rows"]
        assert [r["trial"] for r in rows] == [0, 1]
        assert all(r["runtime_sec"] < 0.3 for r in rows)
        for trial in range(2):
            assert os.path.exists(os.path.join(out_dir, output.format(trial)))


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
            # no size_bound: the admission gate asks for about 1.2e29 rows
            ("synthetic", {"n": 5, "gate_factor": 1}),
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
        d = dataset_from_text(open(syn_path).read())
        assert d.n == n
        cfg2 = dict(cfg, dataset={"path": syn_path}, seed=3)
        code2, _ = run(tmp_path, "release", cfg2, out="out2")
        assert code2 == EXIT_PASS

    @pytest.mark.parametrize("variant", ["k-way", "synthetic"])
    def test_a_priori_budget_covers_every_query(self, tmp_path, capsys, variant):
        # at the gate with finite epsilon; BudgetExhausted is not caught, so
        # an exhausted budget would end the command with a traceback
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
                {
                    "learner": "proper",
                    "n": 5,
                    "eval_samples": 1000,
                    "target": {"max_terms": 2, "max_arity": 2},
                    "params": {"epsilon": 0.4, "size_bound": 2},
                },
                "hypothesis_000.json",
            ),
            (
                "release",
                {
                    "release": "k-way",
                    "k": 2,
                    "alpha_bar": 0.9,
                    "epsilon": 1.0,
                    "delta": 0.1,
                    "dataset": {"n": 3, "gate_factor": 2},
                },
                "summary_000.json",
            ),
        ],
    )
    def test_becomes_a_failed_trial_row(
        self, tmp_path, capsys, monkeypatch, verb, cfg, output
    ):
        def stopped(*args, **kwargs):
            return OptimizeResult(status=1, message="Iteration limit reached.")

        monkeypatch.setattr(regression, "linprog", stopped)
        with pytest.raises(LPNotOptimal, match="status 1"):
            solve_l1(L1Problem(np.ones((2, 1)), np.zeros(2)))
        code, out_dir = run(tmp_path, verb, dict(cfg, seed=1, trials=1))
        assert code == EXIT_CONTRACT
        (row,) = load_json(os.path.join(out_dir, "report.json"))["rows"]
        assert row["success"] is False
        assert "Iteration limit reached" in row["error"]
        assert row["seed"] == child_seed(1, 0, 0)
        assert "runtime_sec" not in row
        assert not os.path.exists(os.path.join(out_dir, output))


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
