import json
import math

import numpy as np
import pytest

from covlearn.coverage import CoverageFunction, exact_fourier, random_coverage
from covlearn.cube import child_rng
from covlearn.learners import (
    PmacHypothesis,
    PmacNode,
    PmacPolyLeaf,
    PmacZeroLeaf,
    SparsePolynomial,
    UniformTableOracle,
    pac_learn_uniform,
    pmac_learn,
)
from covlearn.privacy import Dataset, ReleaseSummary, release_all_marginals
from covlearn.serialize import (
    coverage_from_json,
    coverage_to_json,
    dataset_from_text,
    dataset_to_text,
    fourier_from_csv,
    fourier_to_csv,
    hypothesis_from_json,
    hypothesis_to_json,
    pmac_from_json,
    pmac_to_json,
    polynomial_from_json,
    polynomial_to_json,
    summary_from_json,
    summary_to_json,
)


class TestCoverageJson:
    def test_one_based_indices(self):
        c = CoverageFunction(3, 0.1, {0b101: 0.4})
        obj = coverage_to_json(c)
        assert obj["terms"][0]["set"] == [1, 3]
        assert coverage_from_json(obj) == c

    def test_roundtrip_random(self):
        for seed in range(10):
            c = random_coverage(10, 8, 6, seed)
            assert coverage_from_json(coverage_to_json(c)) == c

    def test_json_text_roundtrip(self):
        c = random_coverage(6, 4, 3, 1)
        assert coverage_from_json(json.loads(json.dumps(coverage_to_json(c)))) == c

    def test_rejects_zero_based_index(self):
        with pytest.raises(ValueError):
            coverage_from_json(
                {"n": 3, "affine": 0.0, "terms": [{"set": [0], "weight": 0.5}]}
            )

    def test_rejects_missing_field(self):
        with pytest.raises(ValueError):
            coverage_from_json({"n": 3, "terms": []})

    @pytest.mark.parametrize(
        "terms",
        [[{"weight": 0.5}], [[1, 2]], [0.5], 3, [{"set": [1], "weight": "x"}]],
        ids=["no-set", "term-a-list", "term-a-number", "terms-a-number", "bad-weight"],
    )
    def test_bad_term_is_one_value_error(self, terms):
        with pytest.raises(ValueError, match="bad coverage-function JSON"):
            coverage_from_json({"n": 3, "affine": 0.0, "terms": terms})


class TestFourierCsv:
    def test_roundtrip_exact(self):
        t = exact_fourier(random_coverage(8, 6, 4, 2))
        back = fourier_from_csv(fourier_to_csv(t), 8)
        for m in set(t.coeffs) | set(back.coeffs):
            assert t[m] == back[m]  # repr roundtrip is bit-exact

    def test_rejects_garbage_line(self):
        with pytest.raises(ValueError):
            fourier_from_csv("zz,notanumber\n", 4)


class TestPolynomialJson:
    def test_parity_roundtrip(self):
        p = SparsePolynomial(5, "parity", {0: 0.5, 0b101: -0.25}, clamp=True)
        assert polynomial_from_json(polynomial_to_json(p)) == p

    def test_layered_roundtrip(self):
        p = SparsePolynomial(
            4, "layered_parity", layers={0: {0: 1.0}, 3: {0b11: -0.5}}, clamp=True
        )
        back = polynomial_from_json(polynomial_to_json(p))
        assert back.layers == p.layers
        assert back.basis == "layered_parity"


class TestPmacJson:
    def test_handwritten_tree_roundtrip(self):
        leaf = PmacPolyLeaf(SparsePolynomial(3, "parity", {0: 0.5}), 2.0, 0.1)
        root = PmacNode(1, leaf, PmacZeroLeaf())
        h = PmacHypothesis(3, root)
        back = pmac_from_json(pmac_to_json(h))
        masks = np.arange(8, dtype=np.uint64)
        assert np.array_equal(back.eval_masks(masks), h.eval_masks(masks))

    def test_learned_tree_roundtrip(self):
        c = random_coverage(6, 4, 3, 5)
        h = pmac_learn(UniformTableOracle.from_coverage(c), 0.5, 0.2, 0)
        back = pmac_from_json(pmac_to_json(h))
        masks = np.arange(64, dtype=np.uint64)
        assert np.array_equal(back.eval_masks(masks), h.eval_masks(masks))

    def test_vars_one_based(self):
        h = PmacHypothesis(2, PmacNode(0, PmacZeroLeaf(), PmacZeroLeaf()))
        assert pmac_to_json(h)["root"]["var"] == 1


class TestLearnedRoundTrip:
    """A hypothesis read back from its JSON file evaluates bit for bit like
    the learned one, although the file lists its terms in another order."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "learn",
        [
            lambda o, s: pac_learn_uniform(o, 0.3, s),
            lambda o, s: pmac_learn(o, 0.5, 0.2, s),
        ],
        ids=["pac", "pmac"],
    )
    def test_same_values(self, learn, seed):
        o = UniformTableOracle.from_coverage(random_coverage(6, 4, 3, seed))
        h = learn(o, seed)
        back = hypothesis_from_json(json.loads(json.dumps(hypothesis_to_json(h))))
        masks = np.arange(64, dtype=np.uint64)
        assert back.eval_masks(masks).tobytes() == h.eval_masks(masks).tobytes()


class TestHypothesisDispatch:
    def test_all_three_kinds(self):
        cases = [
            SparsePolynomial(3, "parity", {0: 0.5}),
            PmacHypothesis(3, PmacZeroLeaf()),
            CoverageFunction(3, 0.2, {0b1: 0.3}),
        ]
        for h in cases:
            back = hypothesis_from_json(hypothesis_to_json(h))
            assert type(back) is type(h)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            hypothesis_from_json({"type": "forest"})


class TestDatasetText:
    def test_roundtrip(self):
        d = Dataset.from_points([0b01, 0b01, 0b10], 2)
        text = dataset_to_text(d)
        # position i of each line is coordinate x_{i+1}; mask 0b01 is "10"
        assert text == "10\n10\n01\n"
        back = dataset_from_text(text)
        assert back.size == 3
        assert sorted(back.masks.tolist()) == [0b01, 0b10]

    def test_expansion_cap(self):
        d = Dataset.from_multiplicities([(0, 10**9)], 2)
        with pytest.raises(ValueError):
            dataset_to_text(d)

    def test_rejects_mixed_width(self):
        with pytest.raises(ValueError):
            dataset_from_text("01\n001\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dataset_from_text("\n\n")


class TestSummaryJson:
    def test_fourier_summary_roundtrip(self):
        d = Dataset.from_points(
            child_rng(0, 0).integers(0, 32, size=50).tolist(), 5
        )
        s = release_all_marginals(d, 0.4, math.inf, 0.1, 0)
        back = summary_from_json(json.loads(json.dumps(summary_to_json(s))))
        masks = np.arange(32, dtype=np.uint64)
        assert np.allclose(back.answer_masks(masks), s.answer_masks(masks))
        assert back.epsilon == math.inf or back.epsilon == s.epsilon

    def test_synthetic_summary_roundtrip(self):
        syn = Dataset.from_points([0b011, 0b011, 0b111], 3)
        s = ReleaseSummary("synthetic", 3, 0.25, 1.0, 0.1, 7, 100, synthetic=syn)
        back = summary_from_json(summary_to_json(s))
        masks = np.arange(8, dtype=np.uint64)
        assert np.array_equal(back.answer_masks(masks), s.answer_masks(masks))
        assert back.queries_used == 7 and back.dataset_size == 100

    def test_empty_synthetic_roundtrip(self):
        empty = Dataset(3, np.array([], dtype=np.uint64), np.array([], dtype=np.int64))
        s = ReleaseSummary("synthetic", 3, 0.25, 1.0, 0.1, 0, 10, synthetic=empty)
        back = summary_from_json(summary_to_json(s))
        assert (back.answer_masks(np.arange(8, dtype=np.uint64)) == 1.0).all()
