import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlearn.coverage import CoverageFunction, exact_fourier, random_coverage
from covlearn import learners
from covlearn.cube import child_rng, child_seed
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
from covlearn import serialize
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


class TestIntegerFields:
    """Integer fields of an input file follow the CLI's integer rule: an
    integral number, never a boolean or a fraction, which int() would
    truncate, nor a string of digits, which int() would parse."""

    COVERAGE = {"n": 3, "affine": 0.0, "terms": [{"set": [1, 3], "weight": 0.5}]}
    POLY = {"type": "polynomial", "n": 3, "basis": "parity",
            "coeffs": [{"set": [2], "value": 0.5}]}

    @pytest.mark.parametrize("n", [3.7, True, "3"], ids=["fraction", "bool", "string"])
    def test_coverage_n(self, n):
        with pytest.raises(ValueError, match="field 'n': expected an integer"):
            coverage_from_json(dict(self.COVERAGE, n=n))

    @pytest.mark.parametrize(
        "index", [True, 1.5, "2", b"2"], ids=["bool", "fraction", "string", "bytes"]
    )
    def test_set_index(self, index):
        terms = [{"set": [index], "weight": 0.5}]
        with pytest.raises(ValueError, match="field 'set': expected an integer"):
            coverage_from_json(dict(self.COVERAGE, terms=terms))
        coeffs = [{"set": [index], "value": 0.5}]
        with pytest.raises(ValueError, match="field 'set': expected an integer"):
            hypothesis_from_json(dict(self.POLY, coeffs=coeffs))

    def test_integral_floats_are_read(self):
        obj = dict(self.COVERAGE, n=3.0, terms=[{"set": [1.0, 3], "weight": 0.5}])
        assert coverage_from_json(obj) == CoverageFunction(3, 0.0, {0b101: 0.5})

    def test_pmac_var(self):
        obj = {"type": "pmac", "n": 3, "root": {
            "type": "node", "var": 1.5, "minus": {"type": "zero"},
            "plus": {"type": "zero"}}}
        with pytest.raises(ValueError, match="field 'var': expected an integer"):
            hypothesis_from_json(obj)

    @pytest.mark.parametrize("key", ["queries_used", "dataset_size"])
    def test_summary_metadata(self, key):
        d = Dataset.from_points(range(8), 3)
        obj = summary_to_json(release_all_marginals(d, 0.5, math.inf, 0.1, 0))
        obj["metadata"][key] = 2.5
        with pytest.raises(ValueError, match=f"field '{key}': expected an integer"):
            summary_from_json(obj)


class TestFourierCsv:
    def test_roundtrip_exact(self):
        t = exact_fourier(random_coverage(8, 6, 4, 2))
        back = fourier_from_csv(fourier_to_csv(t), 8)
        for m in set(t.coeffs) | set(back.coeffs):
            assert t[m] == back[m]  # repr roundtrip is bit-exact

    def test_rejects_garbage_line(self):
        with pytest.raises(ValueError):
            fourier_from_csv("zz,notanumber\n", 4)

    def test_skips_blank_lines(self):
        t = fourier_from_csv("\n1,0.25\n   \n\n5,-0.5\n\n", 3)
        assert t.coeffs == {1: 0.25, 5: -0.5}

    @pytest.mark.parametrize("mask_hex", ["ff", "8", "-1", "-0x1"])
    def test_rejects_set_outside_the_cube(self, mask_hex):
        with pytest.raises(ValueError, match=r"outside \[0, 2\^3\)"):
            fourier_from_csv(f"1,0.25\n{mask_hex},0.5\n", 3)

    @pytest.mark.parametrize("text", ["5,0.5\n5,0.25\n", "5,0.5\n0x5,0.5\n"])
    def test_rejects_repeated_set(self, text):
        with pytest.raises(ValueError, match=r"set \[1, 3\] is given twice"):
            fourier_from_csv(text, 3)


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

    def test_rejects_repeated_set(self):
        rows = [{"set": [1, 3], "value": 0.5}, {"set": [3, 1], "value": 0.25}]
        obj = {"type": "polynomial", "n": 3, "basis": "parity", "coeffs": rows}
        with pytest.raises(ValueError, match=r"set \[1, 3\] is given twice"):
            polynomial_from_json(obj)
        obj = dict(obj, basis="layered_parity", layers={"2": rows})
        del obj["coeffs"]
        with pytest.raises(ValueError, match=r"set \[1, 3\] is given twice"):
            polynomial_from_json(obj)


class TestPmacJson:
    def test_handwritten_tree_roundtrip(self):
        leaf = PmacPolyLeaf(SparsePolynomial(3, "parity", {0: 0.5}), 2.0, 0.1, 0.5)
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

    def test_every_leaf_writes_its_floor(self):
        # c = 0.25 + 0.05 OR_{x1} + 0.7 OR_{x2}: a quarter of the cube sits
        # at 0.25, so the root splits on x1, whose minus leaf takes the
        # pivot's label floor; on the plus half c >= 0.95 / 4, so the tail
        # leaf takes a quarter of its m_tilde.  The file keeps each floor.
        c = CoverageFunction(4, 0.25, {1: 0.05, 2: 0.7})
        h = pmac_learn(UniformTableOracle.from_coverage(c), 0.5, 0.2, 0)
        minus, tail = h.root.minus, h.root.plus
        assert minus.floor == minus.m_tilde / (16 * math.log(9 / 0.2))
        assert tail.floor == tail.m_tilde / 4
        obj = pmac_to_json(h)
        root = obj["root"]
        assert (root["minus"]["floor"], root["plus"]["floor"]) == (minus.floor, tail.floor)
        masks = np.arange(1 << 4, dtype=np.uint64)
        back = pmac_from_json(json.loads(json.dumps(obj)))
        assert back.eval_masks(masks).tobytes() == h.eval_masks(masks).tobytes()

    def test_leaf_without_floor_reads_a_quarter_of_m_tilde(self):
        leaf = {"type": "leaf", "m_tilde": 0.75, "shift": 0.0,
                "poly": {"type": "polynomial", "n": 3, "basis": "parity",
                         "coeffs": [{"set": [], "value": 0.0}]}}
        h = pmac_from_json({"type": "pmac", "n": 3, "root": leaf})
        assert h.root.floor == 0.1875
        assert h.eval_masks(np.arange(8, dtype=np.uint64)).tolist() == [0.1875] * 8

    def test_vars_one_based(self):
        h = PmacHypothesis(2, PmacNode(0, PmacZeroLeaf(), PmacZeroLeaf()))
        assert pmac_to_json(h)["root"]["var"] == 1

    @pytest.mark.parametrize("var", [0, -1, 17, 65])
    def test_rejects_split_variable_outside_1_to_n(self, var):
        leaf = {"type": "leaf", "m_tilde": 1.0, "shift": 0.0,
                "poly": {"type": "polynomial", "n": 16, "basis": "parity",
                         "coeffs": [{"set": [], "value": 0.5}]}}
        inner = {"type": "node", "var": var, "minus": leaf, "plus": {"type": "zero"}}
        root = {"type": "node", "var": 16, "minus": {"type": "zero"}, "plus": inner}
        with pytest.raises(ValueError, match=f"split variable {var} out of range"):
            pmac_from_json({"type": "pmac", "n": 16, "root": root})

    def test_rejects_leaf_polynomial_on_another_n(self):
        poly = SparsePolynomial(16, "parity", {0: 0.5, 1 << 15: 0.25})
        leaf = PmacPolyLeaf(poly, 1.0, 0.0, 0.25)
        obj = pmac_to_json(PmacHypothesis(16, PmacNode(2, leaf, PmacZeroLeaf())))
        assert pmac_from_json(obj).n == 16
        obj["n"] = 4
        with pytest.raises(ValueError, match="leaf polynomial on n=16 in a tree on n=4"):
            pmac_from_json(obj)


class TestRepeatedIndex:
    """An index given twice within one set is refused, naming the set, in
    every reader of 1-based sets; no writer produces one."""

    def test_coverage_term(self):
        obj = {"n": 3, "affine": 0.0, "terms": [{"set": [1, 1], "weight": 0.5}]}
        with pytest.raises(ValueError, match=r"set \[1, 1\] repeats index 1"):
            coverage_from_json(obj)

    @pytest.mark.parametrize("basis", ["parity", "layered_parity"])
    def test_coefficient_row(self, basis):
        rows = [{"set": [3, 2, 3], "value": 0.5}]
        obj = {"type": "polynomial", "n": 3, "basis": basis}
        obj.update({"coeffs": rows} if basis == "parity" else {"layers": {"2": rows}})
        with pytest.raises(ValueError, match=r"set \[3, 2, 3\] repeats index 3"):
            polynomial_from_json(obj)

    def test_pmac_leaf(self):
        poly = {"type": "polynomial", "n": 4, "basis": "parity",
                "coeffs": [{"set": [2, 2], "value": 0.25}]}
        leaf = {"type": "leaf", "poly": poly, "m_tilde": 1.0, "shift": 0.0}
        root = {"type": "node", "var": 1, "minus": leaf, "plus": {"type": "zero"}}
        with pytest.raises(ValueError, match=r"set \[2, 2\] repeats index 2"):
            pmac_from_json({"type": "pmac", "n": 4, "root": root})


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

    def test_written_from_arrays(self, tmp_path):
        d = Dataset.from_points(child_rng(0, 1).integers(0, 32, size=50).tolist(), 5)
        layered = SparsePolynomial(
            5, "layered_parity", layers={2: {0b11: -0.5, 0: 0.25}, 0: {}}, clamp=True
        )
        for s in (
            release_all_marginals(d, 0.4, math.inf, 0.1, 0),
            ReleaseSummary("polynomial", 5, 0.5, 1.0, 0.1, 9, 50, poly=layered),
        ):
            path = tmp_path / "summary.json"
            dump_json(summary_to_json(s, arrays=True), str(path))
            text = json.dumps(summary_to_json(s), indent=2, sort_keys=True) + "\n"
            assert path.read_bytes() == text.encode("ascii")

    def test_rejects_data_on_another_n(self):
        obj = summary_to_json(
            ReleaseSummary("polynomial", 9, 0.5, 1.0, 0.1, 9, 50,
                           poly=SparsePolynomial(9, "parity", {0b1: 0.5}))
        )
        obj["n"] = 3
        with pytest.raises(ValueError, match="summary on n=3 holds data on n=9"):
            summary_from_json(obj)
        syn = Dataset.from_points([0b00011, 0b10111], 5)
        obj = summary_to_json(
            ReleaseSummary("synthetic", 5, 0.25, 1.0, 0.1, 7, 100, synthetic=syn)
        )
        obj["n"] = 3
        with pytest.raises(ValueError, match="summary on n=3 holds data on n=5"):
            summary_from_json(obj)

    @pytest.mark.parametrize("key", ["queries_used", "dataset_size"])
    def test_rejects_negative_ledger_field(self, key):
        syn = Dataset.from_points([0b011], 3)
        obj = summary_to_json(
            ReleaseSummary("synthetic", 3, 0.25, 1.0, 0.1, 7, 100, synthetic=syn)
        )
        obj["metadata"][key] = -10
        with pytest.raises(ValueError, match="must be >= 0"):
            summary_from_json(obj)

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


def _write_and_reload(tmp_path, h):
    """Writes h as the CLI does and checks the file against json.dumps of
    hypothesis_to_json(h); returns the file's bytes and the hypothesis read
    back from it."""
    path = tmp_path / "hypothesis.json"
    dump_json(hypothesis_to_json(h, arrays=True), str(path))
    text = json.dumps(hypothesis_to_json(h), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == text.encode("ascii")
    return path.read_bytes(), hypothesis_from_json(load_json(str(path)))


def _points(n: int, count: int = 64) -> np.ndarray:
    return child_rng(n, 7).integers(0, 1 << n, size=count, dtype=np.uint64)


# NaN without payloads: json writes every NaN as "NaN"
_COEFF = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e22, math.nan, math.inf]),
)


@st.composite
def _polynomials(draw, n: int):
    full = (1 << n) - 1  # at n = 64, bit 63 is set
    masks = st.one_of(st.integers(0, full), st.sampled_from([0, full, 1 << (n - 1)]))
    coeffs = st.dictionaries(masks, _COEFF, max_size=10)
    clamp = draw(st.booleans())
    if draw(st.booleans()):
        return SparsePolynomial(n, "parity", draw(coeffs), clamp=clamp)
    layers = draw(st.dictionaries(st.integers(0, n), coeffs, max_size=4))
    return SparsePolynomial(n, "layered_parity", layers=layers, clamp=clamp)


@st.composite
def _hypotheses(draw):
    n = draw(st.one_of(st.just(64), st.integers(1, 64)))
    if draw(st.booleans()):
        return draw(_polynomials(n))

    def node(depth: int):
        kind = draw(st.sampled_from(["zero", "leaf", "node"][: 3 if depth < 3 else 2]))
        if kind == "zero":
            return PmacZeroLeaf()
        if kind == "leaf":
            return PmacPolyLeaf(
                draw(_polynomials(n)), draw(_COEFF), draw(_COEFF), draw(_COEFF)
            )
        return PmacNode(draw(st.integers(0, n - 1)), node(depth + 1), node(depth + 1))

    return PmacHypothesis(n, node(0))


class TestHypothesisFiles:
    """The file the CLI writes from a hypothesis's coefficient arrays is
    json.dumps of hypothesis_to_json, byte for byte, and reads back to a
    hypothesis that evaluates bit for bit like the written one."""

    @settings(max_examples=150, deadline=None)
    @given(h=_hypotheses())
    def test_written_from_arrays(self, tmp_path_factory, h):
        _, back = _write_and_reload(tmp_path_factory.mktemp("h"), h)
        x = _points(h.n)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN
            assert back.eval_masks(x).tobytes() == h.eval_masks(x).tobytes()

    def test_chunks_split_rows(self, tmp_path, monkeypatch):
        p = SparsePolynomial(12, "parity", {t: t / 7 for t in range(0, 4096, 3)})
        whole, _ = _write_and_reload(tmp_path, p)
        monkeypatch.setattr(serialize, "ROW_BLOCK", 5)
        assert _write_and_reload(tmp_path, p)[0] == whole

    def test_non_finite_values_after_a_finite_block(self, tmp_path, monkeypatch):
        # blocks of four rows: the first all finite, the second with NaN and
        # both infinities; each is written as json.dumps writes it
        monkeypatch.setattr(serialize, "ROW_BLOCK", 4)
        coeffs = {0: 0.5, 1: -0.0, 2: 1e22, 3: 5e-324,
                  4: math.nan, 5: math.inf, 6: -math.inf, 7: 0.25}
        leaf = PmacPolyLeaf(SparsePolynomial(3, "parity", coeffs), 1.0, 0.0, 0.0)
        tree = PmacHypothesis(3, PmacNode(1, leaf, PmacZeroLeaf()))
        text, _ = _write_and_reload(tmp_path, tree)
        assert b"NaN" in text and b"-Infinity" in text


class TestArrayConstruction:
    """A polynomial built from (masks, values) arrays and one built from the
    same items as an unsorted dict are equal, evaluate bit for bit alike and
    are written as the same bytes."""

    @staticmethod
    def _check_same(tmp_path, a, b):
        assert a == b
        x = _points(a.n)
        assert a.eval_masks(x).tobytes() == b.eval_masks(x).tobytes()
        assert _write_and_reload(tmp_path, a)[0] == _write_and_reload(tmp_path, b)[0]

    def test_parity_and_layers(self, tmp_path):
        rng = child_rng(3, 0)
        masks = rng.choice(1 << 10, size=300, replace=False).astype(np.uint64)
        values = rng.normal(size=300)
        items = dict(zip(masks.tolist(), values.tolist()))
        assert list(items) != sorted(items)
        for n_items in (300, 40):  # the dense and the per-set evaluation
            a = SparsePolynomial(10, "parity", (masks[:n_items], values[:n_items]))
            b = SparsePolynomial(10, "parity", dict(list(items.items())[:n_items]))
            self._check_same(tmp_path, a, b)
        layers = {k: (masks[k::4], values[k::4]) for k in (0, 3, 10)}
        a = SparsePolynomial(10, "layered_parity", layers=layers, clamp=True)
        as_dicts = {k: dict(zip(m.tolist(), v.tolist())) for k, (m, v) in layers.items()}
        b = SparsePolynomial(10, "layered_parity", layers=as_dicts, clamp=True)
        self._check_same(tmp_path, a, b)

    @pytest.mark.parametrize("free_vars", [(6, 1, 4), (0, 2, 3, 5, 7)])
    def test_lifted_pmac_leaf(self, tmp_path, free_vars):
        # the lift of a non-ascending free_vars reorders the masks
        table = child_rng(4, len(free_vars)).random(1 << len(free_vars))
        oracle = UniformTableOracle(8, free_vars, table)
        eps, eta, seed = 0.2, 0.05, 11
        leaf = learners._pmac_leaf(oracle, 1.0, 0.25, eps, 0.01, eta, seed, 2)
        compact = pac_learn_uniform(
            oracle.scaled(1.0 / 3.0), eps, child_seed(seed, 2), failure=eta
        )
        lifted = {
            sum(1 << v for i, v in enumerate(free_vars) if t >> i & 1): c
            for t, c in compact.coeffs.items()
        }
        assert len(lifted) > 3
        want = PmacPolyLeaf(SparsePolynomial(8, "parity", lifted), 1.0, 0.01, 0.25)
        assert leaf == want
        tree = lambda l: PmacHypothesis(8, PmacNode(3, l, PmacZeroLeaf()))
        self._check_same(tmp_path, tree(leaf), tree(want))
