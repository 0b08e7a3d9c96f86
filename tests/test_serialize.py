import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    dump_json,
    fourier_from_csv,
    fourier_to_csv,
    hypothesis_from_json,
    hypothesis_to_json,
    load_json,
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
    """A hypothesis file holds json.dump's text, and the hypothesis read
    back from it evaluates bit for bit like the learned one, although the
    file lists its terms in another order."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "learn",
        [
            lambda o, s: pac_learn_uniform(o, 0.3, s),
            lambda o, s: pmac_learn(o, 0.5, 0.2, s),
        ],
        ids=["pac", "pmac"],
    )
    def test_same_values(self, tmp_path, learn, seed):
        o = UniformTableOracle.from_coverage(random_coverage(6, 4, 3, seed))
        h = learn(o, seed)
        obj = hypothesis_to_json(h)
        path = tmp_path / "hypothesis.json"
        dump_json(obj, str(path))
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == text.encode("ascii")
        back = hypothesis_from_json(load_json(str(path)))
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


# Strings with escapes json must write: quotes, backslashes, controls,
# non-ASCII, astral characters and lone surrogates.
_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\\x00\x1f\x7f\n\r\t\u00e9\u2028\ud800\U0001f600'),
    ),
    max_size=6,
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]),
)
_INTS = st.one_of(st.integers(), st.integers(-(2**200), 2**200))
_SET = st.lists(st.integers(1, 64), max_size=4)
_ROW = st.fixed_dictionaries({"set": _SET, "value": _FLOATS})
# rows that look like coefficient rows but are not, mixed with real ones
_NEAR_ROW = st.one_of(
    _ROW,
    st.fixed_dictionaries({"set": _SET, "value": _FLOATS, "extra": st.none()}),
    st.fixed_dictionaries({"set": _SET, "weight": _FLOATS}),
    st.fixed_dictionaries(
        {
            "set": st.lists(st.one_of(st.booleans(), _FLOATS, st.integers()), max_size=3),
            "value": _FLOATS,
        }
    ),
    st.fixed_dictionaries(
        {"set": _SET, "value": st.one_of(_INTS, _FLOATS.map(np.float64))}
    ),
    st.fixed_dictionaries({"set": _SET.map(tuple), "value": _FLOATS}),
)
_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        _INTS,
        _FLOATS,
        _FLOATS.map(np.float64),
        _TEXT,
        st.lists(_ROW, min_size=1, max_size=4),
        st.lists(_NEAR_ROW, min_size=1, max_size=4),
    ),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(_TEXT, kids, max_size=4),
        # keys json turns into strings, or fails to sort
        st.dictionaries(
            st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS), kids,
            max_size=3,
        ),
    ),
    max_leaves=24,
)


class TestDumpJson:
    """dump_json writes json.dumps(obj, indent=2, sort_keys=True) plus a
    newline, byte for byte, and fails where json fails."""

    @staticmethod
    def _check(tmp_path, obj):
        path = tmp_path / "out.json"
        try:
            want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        except TypeError as exc:
            with pytest.raises(TypeError) as got:
                dump_json(obj, str(path))
            assert str(got.value) == str(exc)
            return
        dump_json(obj, str(path))
        assert path.read_bytes() == want.encode("ascii")

    @settings(max_examples=300, deadline=None)
    @given(obj=_VALUES)
    def test_same_bytes_as_json(self, tmp_path_factory, obj):
        self._check(tmp_path_factory.mktemp("dump"), obj)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(_NEAR_ROW, min_size=1, max_size=4))
    def test_near_miss_rows(self, tmp_path_factory, rows):
        self._check(tmp_path_factory.mktemp("rows"), {"coeffs": rows})

    @pytest.mark.parametrize(
        "obj",
        [
            {"a": [1, object()]},
            {"rows": [{"set": [1], "value": np.float32(0.5)}]},
            {"set": [np.int64(1)], "value": 0.5},
            [{"set": [1], "value": 0.5}, {1, 2}],
            np.bool_(True),
        ],
    )
    def test_unserializable_raises_like_json(self, tmp_path, obj):
        with pytest.raises(TypeError):
            json.dumps(obj)
        self._check(tmp_path, obj)

    def test_coefficient_rows_at_depth(self, tmp_path):
        rows = [
            {"set": [], "value": 0.25},
            {"set": [1, 3], "value": -0.0},
            {"value": math.nan, "set": [2]},
            {"set": [16], "value": -math.inf},
        ]
        self._check(tmp_path, {"root": {"poly": {"coeffs": rows}}, "rows": rows})
