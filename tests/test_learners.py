import copy
import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlearn.coverage import (
    CoverageFunction,
    dense_table,
    exact_fourier,
    random_coverage,
    walsh_hadamard,
)
from covlearn.cube import (
    DistributionSpec,
    child_rng,
    child_seed,
    eval_disjunction_batch,
    group_points,
)
from covlearn.estimation import exact_source, hoeffding_samples
from covlearn import learners, privacy, regression
from covlearn.learners import (
    DENSE_EVAL_SUPPORT,
    BasisTooLarge,
    Coefficients,
    DesignTooLarge,
    DisjointDnf,
    DnfClassifier,
    OracleExhausted,
    PmacHypothesis,
    PmacPolyLeaf,
    PmacZeroLeaf,
    SampledOracle,
    SparsePolynomial,
    UniformTableOracle,
    agnostic_degree,
    agnostic_learn,
    basis_size,
    dnf_input_map,
    dnf_reduction_learn,
    dnf_to_coverage,
    pac_core,
    pac_learn_uniform,
    pac_pool_bound,
    pmac_learn,
    proper_agnostic_learn,
    proper_pac_core,
    proper_pac_learn,
    proper_size_bound,
    random_disjoint_dnf,
    search_thresholds,
    _eval_parity_poly,
    truncation_length,
)


def l1_exact(h, c: CoverageFunction) -> float:
    masks = np.arange(1 << c.n, dtype=np.uint64)
    return float(np.abs(h.eval_masks(masks) - c.eval_masks(masks)).mean())


class TestSparsePolynomial:
    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            SparsePolynomial(3, "monomial")

    def test_rejects_bad_layer_key(self):
        with pytest.raises(ValueError):
            SparsePolynomial(3, "layered_parity", layers={4: {0: 1.0}})

    @pytest.mark.parametrize(
        "basis,field",
        [
            ("parity", {"layers": {1: {1: 0.5}}}),
            ("layered_parity", {"coeffs": {1: 0.5}}),
        ],
        ids=["parity-layers", "layered-coeffs"],
    )
    def test_refuses_a_field_its_basis_ignores(self, basis, field):
        # the ignored field would evaluate to 0 everywhere
        with pytest.raises(ValueError, match=f"takes no {next(iter(field))}"):
            SparsePolynomial(3, basis, **field)

    def test_clamp(self):
        p = SparsePolynomial(2, "parity", {0: 1.5}, clamp=True)
        assert p(0) == 1.0

    @pytest.mark.parametrize(
        "coeffs",
        [
            {8: 0.5, 1: 0.25},
            {-1: 0.5},
            (np.array([1, 2**64 - 1], dtype=np.uint64), np.array([0.5, 0.5])),
            (np.array([3, 1, 3]), np.array([0.5, 0.25, 0.5])),
            ([1, 2], [0.5]),
        ],
        ids=["mask-2^n", "negative", "mask-2^64-1", "repeated", "short-values"],
    )
    def test_rejects_bad_coefficients(self, coeffs):
        # a mask outside [0, 2^n) would be written as an index the file's
        # reader refuses, or evaluated as a constant
        with pytest.raises(ValueError):
            SparsePolynomial(3, "parity", coeffs)
        with pytest.raises(ValueError):
            SparsePolynomial(3, "layered_parity", layers={1: coeffs})

    def test_out_of_range_mask_is_named(self):
        with pytest.raises(ValueError, match=r"set mask 8 outside \[0, 2\^3\)"):
            SparsePolynomial(3, "parity", {8: 0.5, 1: 0.25})

    @pytest.mark.parametrize(
        "n,coeffs",
        [
            (3, {0: 0.5, 0b101: -0.25}),
            (10, {t: 1.0 / (t + 1) for t in range(DENSE_EVAL_SUPPORT + 44)}),
        ],
        ids=["per-coefficient", "dense"],
    )
    def test_call_refuses_a_point_outside_the_cube(self, n, coeffs):
        # the per-coefficient path read bits above n as absent, answering
        # 2^n with the value at 0; the dense path indexed past its table
        p = SparsePolynomial(n, "parity", coeffs)
        with pytest.raises(ValueError, match=rf"set mask {1 << n} outside \[0, 2\^{n}\)"):
            p(1 << n)
        with pytest.raises(ValueError, match=r"set mask -1 outside"):
            p(-1)
        assert p((1 << n) - 1) == p.eval_masks(np.array([(1 << n) - 1]))[0]

    @pytest.mark.parametrize("bad", [1 << 10, (1 << 64) - 1], ids=["2^n", "2^64-1"])
    def test_dense_eval_refuses_a_mask_outside_the_cube(self, bad):
        # the dense path reads its table through an int64 view, in which
        # 2^64 - 1 is -1, an index numpy would wrap to the last cell; the
        # per-coefficient path would drop the bits above n; 300 terms on 8
        # points would take the dense path
        for support in (DENSE_EVAL_SUPPORT + 44, DENSE_EVAL_SUPPORT):
            coeffs = {t: 1.0 / (t + 1) for t in range(support)}
            poly = SparsePolynomial(10, "parity", coeffs)
            tree = PmacHypothesis(10, PmacPolyLeaf(poly, 1.0, 0.0, 0.0))
            masks = np.array([3] * 7 + [bad], dtype=np.uint64)
            for h in (poly, tree):
                with pytest.raises(IndexError):
                    h.eval_masks(masks)

    @pytest.mark.parametrize(
        "h,masks",
        [
            (SparsePolynomial(3, "layered_parity", layers={1: {0: 0.5}}), [15, 1]),
            (PmacHypothesis(3, PmacZeroLeaf()), [8]),
        ],
        ids=["layered-popcount-over-n", "pmac-zero-leaf"],
    )
    def test_every_hypothesis_refuses_a_mask_outside_the_cube(self, h, masks):
        # no layer key matches popcount 4, and a zero leaf reads no bit, so
        # both answered 0 silently
        with pytest.raises(IndexError, match=rf"point mask {max(masks)} outside"):
            h.eval_masks(np.array(masks, dtype=np.uint64))

    @pytest.mark.parametrize("masks", [[1.7], [True]], ids=str)
    def test_refuses_masks_that_are_not_integers(self, masks):
        # numpy's cast read 1.7 and True as mask 1, where the value is -0.5
        poly = SparsePolynomial(3, "parity", {1: 0.5})
        tree = PmacHypothesis(3, PmacPolyLeaf(poly, 1.0, 0.0, 0.0))
        for h in (poly, tree):
            with pytest.raises(ValueError, match="must be integers"):
                h.eval_masks(masks)

    def test_masks_up_to_bit_63(self):
        p = SparsePolynomial(64, "parity", {2**64 - 1: 0.5, 1 << 63: 0.25, 0: 1.0})
        assert p.coeffs.masks.tolist() == [0, 1 << 63, 2**64 - 1]
        assert p(1 << 63) == 1.0 - 0.25 - 0.5

    def test_coefficients_are_a_read_only_view(self):
        p = SparsePolynomial(4, "parity", {0b101: -0.25, 0: 0.5, 0b10: 0.125})
        assert p.coeffs.masks.dtype == np.uint64 and p.coeffs.values.dtype == np.float64
        assert list(p.coeffs.items()) == [(0, 0.5), (0b10, 0.125), (0b101, -0.25)]
        assert p.coeffs == {0b10: 0.125, 0: 0.5, 0b101: -0.25}
        assert 0b101 in p.coeffs and 0b11 not in p.coeffs and -1 not in p.coeffs
        with pytest.raises(TypeError):
            p.coeffs[0] = 1.0
        with pytest.raises(ValueError):
            p.coeffs.values[0] = 1.0
        with pytest.raises(TypeError):
            p.layers[0] = {}

    def test_pickles(self):
        p = SparsePolynomial(4, "layered_parity", layers={1: {1: 0.5}, 3: {}}, clamp=True)
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert q == p and q.layers[1].masks.tolist() == [1]
            assert not q.layers[1].values.flags.writeable

    def test_dense_and_sparse_eval_agree(self):
        rng = child_rng(0, 0)
        coeffs = {int(t): float(v) for t, v in zip(range(300), rng.random(300))}
        p_big = SparsePolynomial(10, "parity", coeffs)
        sparse = SparsePolynomial(10, "parity", dict(list(coeffs.items())[:100]))
        masks = np.arange(1 << 10, dtype=np.uint64)
        rest = SparsePolynomial(10, "parity", dict(list(coeffs.items())[100:]))
        combined = sparse.eval_masks(masks) + rest.eval_masks(masks)
        assert np.abs(p_big.eval_masks(masks) - combined).max() < 1e-9

    def test_dense_fill_equals_per_coefficient_fill(self):
        n = 10
        rng = child_rng(0, 1)
        keys = rng.choice(1 << n, size=DENSE_EVAL_SUPPORT + 50, replace=False)
        coeffs = {int(t): float(v) for t, v in zip(keys, rng.normal(size=len(keys)))}
        masks = np.arange(1 << n, dtype=np.uint64)
        dense = np.zeros(1 << n, dtype=np.float64)
        for t, v in coeffs.items():
            dense[t] = v
        expected = walsh_hadamard(dense)[masks]
        got = _eval_parity_poly(n, Coefficients(n, coeffs), masks)
        assert got.tobytes() == expected.tobytes()

    def test_dense_table_only_when_it_costs_less_than_the_terms(self, monkeypatch):
        # 300 terms on 2^10 cells: the transform for 4 points, not for 3
        tables = []
        real = learners.walsh_hadamard
        monkeypatch.setattr(
            learners, "walsh_hadamard", lambda v: tables.append(len(v)) or real(v)
        )
        coeffs = Coefficients(10, {t: 1.0 / (t + 1) for t in range(300)})
        few = _eval_parity_poly(10, coeffs, np.arange(3, dtype=np.uint64))
        assert tables == []
        more = _eval_parity_poly(10, coeffs, np.arange(4, dtype=np.uint64))
        assert tables == [1 << 10]
        assert np.abs(more[:3] - few).max() < 1e-12

    def test_one_point_at_n24_builds_no_table(self):
        # the dense path would hold a 128 MB table and its transform
        n, point = 24, 0xABCDEF
        rng = child_rng(0, 2)
        masks = np.unique(rng.integers(0, 1 << n, size=290, dtype=np.uint64))
        coeffs = Coefficients(n, (masks, rng.normal(size=len(masks))))
        points = np.array([point], dtype=np.uint64)
        _eval_parity_poly(n, coeffs, points)
        tracemalloc.start()
        try:
            got = _eval_parity_poly(n, coeffs, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        want = 0.0
        for t, v in zip(coeffs.masks.tolist(), coeffs.values.tolist()):
            want += -v if (t & point).bit_count() % 2 else v
        assert got.tolist() == [want]

    def test_coefficients_repr(self):
        c = Coefficients(3, {0b101: -0.25, 0: 0.5})
        assert repr(c) == "Coefficients({0: 0.5, 5: -0.25})"


class TestUniformTableOracle:
    def test_restrict_conditions_exactly(self):
        c = random_coverage(5, 4, 3, 0)
        o = UniformTableOracle.from_coverage(c)
        r = o.restrict(2, -1)
        masks = np.arange(32, dtype=np.uint64)
        expected = c.eval_masks(masks)[(masks >> np.uint64(2)) & np.uint64(1) == 1]
        assert np.array_equal(r.values, expected)
        assert r.free_vars == (0, 1, 3, 4)

    @pytest.mark.parametrize("sign", [0, 2, -2, 0.5])
    def test_restrict_refuses_a_sign_other_than_plus_or_minus_one(self, sign):
        o = UniformTableOracle.from_coverage(random_coverage(3, 2, 2, 0))
        with pytest.raises(ValueError, match="sign must be -1 or \\+1"):
            o.restrict(0, sign)

    def test_lift_sets(self):
        o = UniformTableOracle(5, (1, 3, 4), np.zeros(8))
        lifted = o.lift_sets([0b101, 0, 0b010])
        assert lifted.dtype == np.uint64
        assert lifted.tolist() == [(1 << 1) | (1 << 4), 0, 1 << 3]
        point = UniformTableOracle(5, (), np.zeros(1))  # a 0-variable table
        assert point.lift_sets([0]).tolist() == [0]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_lift_sets_matches_the_bit_loop(self, data):
        coords = st.lists(st.integers(0, 63), max_size=8, unique=True)
        free_vars = tuple(data.draw(coords))
        o = UniformTableOracle(64, free_vars, np.zeros(1 << len(free_vars)))
        cells = st.integers(0, (1 << len(free_vars)) - 1)
        masks = [0] + data.draw(st.lists(cells, max_size=20))
        assert o.lift_sets(masks).tolist() == [_lift_by_bits(o, t) for t in masks]
        assert o.lift_sets(np.zeros(0, dtype=np.uint64)).tolist() == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_restrict_matches_the_index_mask(self, k, data):
        # a restricted copy keeps its parent's tally
        coords = st.sets(st.integers(0, 15), min_size=k, max_size=k)
        free_vars = tuple(sorted(data.draw(coords)))
        cells = st.lists(st.floats(0, 1), min_size=1 << k, max_size=1 << k)
        values = np.asarray(data.draw(cells))
        o = UniformTableOracle(16, free_vars, values)
        for var in range(k):
            for sign in (-1, +1):
                r = o.restrict(var, sign)
                want_vars, want_values = _restrict_by_index_mask(o, var, sign)
                assert r.free_vars == want_vars
                assert r.values.tobytes() == want_values.tobytes()
                assert not np.shares_memory(r.values, o.values)
                drawn = o.examples_drawn
                r.draw_hits(3, r.values > 0.5, child_rng(var, 0))
                assert o.examples_drawn == drawn + 3

    def test_scaled_clamp(self):
        o = UniformTableOracle(1, (0,), np.array([0.0, 3.0]))
        assert o.scaled(0.5).values.tolist() == [0.0, 1.0]

    def test_from_coverage_is_the_dense_table(self):
        c = random_coverage(6, 5, 3, 2)
        o = UniformTableOracle.from_coverage(c)
        assert o.values.tobytes() == dense_table(c).tobytes()
        assert o.free_vars == tuple(range(6)) and o.n_total == 6

    def test_from_coverage_refuses_a_table_too_large(self, monkeypatch):
        # n = 25 is past MAX_DENSE_N: a typed error, and no 2^25-point
        # evaluation is started
        def no_eval(self, masks):
            raise AssertionError("evaluated before the size check")

        monkeypatch.setattr(CoverageFunction, "eval_masks", no_eval)
        c = CoverageFunction(25, 0.0, {1 << 24: 0.5})
        with pytest.raises(ValueError, match="n <= 24"):
            UniformTableOracle.from_coverage(c)

    def test_draw_counts_total(self):
        o = UniformTableOracle.from_coverage(random_coverage(4, 3, 2, 1))
        counts = o.draw_counts(10_000, child_rng(1, 0))
        assert counts.sum() == 10_000

    def test_draw_cap(self):
        o = UniformTableOracle.from_coverage(random_coverage(3, 2, 2, 0))
        with pytest.raises(OracleExhausted):
            o.draw(1 << 27, child_rng(0, 0))
        assert o.examples_drawn == 0

    def test_every_draw_adds_to_the_tally(self):
        # copies share their parent's tally, and the tally is no part of
        # == or repr
        o = UniformTableOracle.from_coverage(random_coverage(4, 3, 2, 1))
        rng = child_rng(2, 0)
        assert o.examples_drawn == 0
        o.draw(7, rng)
        o.draw_counts(10**20, rng)
        o.restrict(1, -1).draw_hits(5, np.ones(8, dtype=bool), rng)
        o.scaled(0.5).restrict(0, +1).draw(np.int64(4), rng)
        assert o.examples_drawn == 7 + 10**20 + 5 + 4
        assert type(o.examples_drawn) is int
        fresh = UniformTableOracle(4, o.free_vars, o.values)
        assert repr(fresh) == repr(o) and "drawn" not in repr(o)
        assert o.examples_drawn != fresh.examples_drawn
        s = SampledOracle(DistributionSpec.uniform(3), lambda m, rng: np.zeros(len(m)))
        s.draw(6, rng)
        s.draw(0, rng)
        assert s.examples_drawn == 6
        with pytest.raises(OracleExhausted, match=f"draw of {(1 << 26) + 1} examples"):
            s.draw((1 << 26) + 1, rng)
        assert s.examples_drawn == 6
        assert SampledOracle(s.dist, s.label_fn) == s


def _lift_by_bits(o: UniformTableOracle, compact_mask: int) -> int:
    """Reference lift: one bit of the compact mask at a time."""
    mask = 0
    for i, v in enumerate(o.free_vars):
        if compact_mask >> i & 1:
            mask |= 1 << v
    return mask


def _restrict_by_index_mask(o: UniformTableOracle, var: int, sign: int):
    """Reference restriction: the free variables and values of the cells
    whose bit var is 1 for sign -1 and 0 for sign +1."""
    idx = np.arange(len(o.values))
    sel = (idx >> var) & 1 == (1 if sign == -1 else 0)
    return tuple(v for i, v in enumerate(o.free_vars) if i != var), o.values[sel]


class TestBlockSampler:
    """draw_counts is rng.multinomial over the whole table, drawn in exact
    chunks when the total passes the int64 range."""

    SIGMAS = 4  # every moment check allows this many standard errors

    @staticmethod
    def _table(n: int) -> UniformTableOracle:
        return UniformTableOracle(n, tuple(range(n)), np.zeros(1 << n))

    @pytest.mark.parametrize("n", [5, 12, 13, 15])
    def test_one_block_is_the_plain_draw(self, n):
        cells = 1 << n
        want = child_rng(4, n).multinomial(123_456, np.full(cells, 1.0 / cells))
        got = self._table(n).draw_counts(123_456, child_rng(4, n))
        assert got.tobytes() == want.astype(np.float64).tobytes()

    @pytest.mark.parametrize("total", [0, 1, 10**6, 9 * 10**18])
    def test_counts_sum_to_the_total(self, total):
        # 9e18 is three chunks; every cell count stays below 2^53
        counts = self._table(13).draw_counts(total, child_rng(5, 0))
        assert sum(int(c) for c in counts) == total

    def test_counts_are_exact_below_2_53_and_rounded_above(self):
        # PMAC's small leaves draw past 2^53 per cell; float64 rounds there
        table = self._table(1)
        exact = table.draw_counts(2**52, child_rng(9, 0))
        assert sum(int(c) for c in exact) == 2**52
        rounded = table.draw_counts(2**55, child_rng(9, 1))
        assert abs(sum(int(c) for c in rounded) - 2**55) <= 2**55 * 2.0**-52

    def test_moments_match_the_multinomial(self):
        cells, total, draws = 1 << 13, 10**6, 400
        table = self._table(13)
        counts = np.array(
            [table.draw_counts(total, child_rng(6, i)) for i in range(draws)]
        )
        p = 1.0 / cells
        cell_var = total * p * (1 - p)
        # half-table totals: Binomial(total, 1/2)
        block = counts[:, : cells // 2].sum(axis=1)
        mean_se = math.sqrt(total / 4 / draws)
        assert abs(block.mean() - total / 2) < self.SIGMAS * mean_se
        var_se = (total / 4) * math.sqrt(2 / (draws - 1))
        assert abs(block.var(ddof=1) - total / 4) < self.SIGMAS * var_se
        # each cell: Binomial(total, 1/cells); 5 sigmas over 8,192 cells
        z = (counts.mean(axis=0) - total * p) / math.sqrt(cell_var / draws)
        assert np.abs(z).max() < 5
        pooled_var = counts.var(axis=0, ddof=1).mean()
        pooled_se = cell_var * math.sqrt(2 / (draws - 1)) / math.sqrt(cells)
        assert abs(pooled_var - cell_var) < self.SIGMAS * pooled_se


class TestTableCoeffSource:
    @staticmethod
    def _count_transforms(monkeypatch):
        transforms = []
        real = learners.spectrum_from_counts
        monkeypatch.setattr(
            learners,
            "spectrum_from_counts",
            lambda *a: transforms.append(1) or real(*a),
        )
        return transforms

    @staticmethod
    def _oracle():
        return UniformTableOracle.from_coverage(random_coverage(6, 5, 3, 4))

    @pytest.mark.parametrize("mask", [-1, 1 << 6, 1 << 7])
    def test_rejects_masks_outside_the_cube(self, mask):
        src = learners._oracle_coeff_source(self._oracle(), 5000, child_rng(3, 0))
        with pytest.raises(ValueError):
            src(np.array([1, mask]))

    def test_one_transform_per_pac_run(self, monkeypatch):
        transforms = self._count_transforms(monkeypatch)
        o = UniformTableOracle.from_coverage(random_coverage(8, 6, 4, 11))
        pac_learn_uniform(o, 0.3, 5)
        assert transforms == [1]


def _spy_draws(monkeypatch, cls, name):
    """Records (size, state of the generator before the draw) per call."""
    calls = []
    real = getattr(cls, name)

    def spy(self, size, rng):
        calls.append((int(size), rng.bit_generator.state))
        return real(self, size, rng)

    monkeypatch.setattr(cls, name, spy)
    return calls


class TestOneSearchSample:
    """The singleton screen and the lattice search read one sample, drawn
    on child_rng(seed, 1) and sized by a union bound over the sets the
    search can ask: failure 1/3 for PAC, 2/9 for proper."""

    @staticmethod
    def _samples(n, t, failure):
        return hoeffding_samples(t.tolerance, failure / t.family(n)[0])

    @classmethod
    def _pac_samples(cls, n, eps, failure=1 / 3):
        return cls._samples(n, search_thresholds(eps, None), failure)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_pac_draws_once(self, monkeypatch, seed):
        calls = _spy_draws(monkeypatch, UniformTableOracle, "draw_counts")
        o = UniformTableOracle.from_coverage(random_coverage(8, 6, 4, 11))
        pac_learn_uniform(o, 0.3, seed)
        want = (self._pac_samples(8, 0.3), child_rng(seed, 1).bit_generator.state)
        assert calls == [want]

    @pytest.mark.parametrize("failure", [0.01, 1e-6])
    def test_pac_failure_sizes_the_sample(self, monkeypatch, failure):
        calls = _spy_draws(monkeypatch, UniformTableOracle, "draw_counts")
        o = UniformTableOracle.from_coverage(random_coverage(8, 6, 4, 11))
        pac_learn_uniform(o, 0.3, 5, failure=failure)
        assert [size for size, _ in calls] == [self._pac_samples(8, 0.3, failure)]

    def test_proper_screen_and_search_draw_once(self, monkeypatch):
        calls = _spy_draws(monkeypatch, UniformTableOracle, "draw_counts")
        o = UniformTableOracle.from_coverage(random_coverage(5, 3, 2, 1))
        eps, s_eps, seed = 0.5, 3, 2
        proper_pac_learn(o, eps, s_eps, seed)
        m = self._samples(5, search_thresholds(eps, s_eps), 2 / 9)
        assert calls == [(m, child_rng(seed, 1).bit_generator.state)]

    def test_sampled_oracle_draws_once(self, monkeypatch):
        calls = _spy_draws(monkeypatch, SampledOracle, "draw")
        c = random_coverage(6, 4, 3, 2)
        o = SampledOracle(DistributionSpec.uniform(6), lambda m, rng: c.eval_masks(m))
        pac_learn_uniform(o, 0.4, 3)
        want = (self._pac_samples(6, 0.4), child_rng(3, 1).bit_generator.state)
        assert calls == [want]


class TestSearchThresholds:
    """search_thresholds owns the screen's and the search's thresholds, and
    SearchThresholds.family the a-priori count of the sets they ask."""

    @pytest.mark.parametrize("eps", [0.9, 0.5, 0.25, 0.1])
    def test_pac_thresholds(self, eps):
        theta = eps * eps / 6
        t = search_thresholds(eps, None)
        assert t == (theta, theta, math.ceil(math.log2(2 / theta)))
        assert t.tolerance == theta / 2

    @pytest.mark.parametrize("eps,s_eps", [(0.5, 3), (0.25, 13), (0.4, 1)])
    def test_proper_thresholds(self, eps, s_eps):
        theta, keep_thr = eps * eps / 108, eps * eps / (54 * s_eps)
        t = search_thresholds(eps, s_eps)
        assert t == (theta, keep_thr, math.ceil(math.log2(6 / eps)))
        assert t.tolerance == min(theta, keep_thr) / 2

    @pytest.mark.parametrize("n", [0, 1, 5, 12, 16, 40])
    @pytest.mark.parametrize("eps,s_eps", [(0.5, None), (0.125, None), (0.125, 13)])
    def test_family_is_the_smaller_bound(self, n, eps, s_eps):
        t = search_thresholds(eps, s_eps)
        lattice = basis_size(n, t.max_level)
        asked, kept = t.family(n)
        assert asked == n + min(pac_pool_bound(t.keep_thr, n), lattice)
        assert kept == min(math.ceil(4 / t.keep_thr), lattice - 1)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        eps=st.sampled_from([0.3, 0.6, 0.9]),
        proper=st.booleans(),
        constant=st.sampled_from([1.0, -1.0, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adversarial_source_asks_at_most_the_lattice(
        self, n, eps, proper, constant, seed
    ):
        # every answer is `constant`, or uniform in [-1, 1] for None: the
        # search asks sets of at most max_level of the n variables, each
        # once, after the n singletons of the screen
        rng = child_rng(seed, 0)
        asked = []

        def source(masks):
            asked.extend(masks.tolist())
            if constant is None:
                return rng.uniform(-1.0, 1.0, len(masks))
            return np.full(len(masks), constant)

        if proper:
            t = search_thresholds(eps, 2.0)
            examples = UniformTableOracle.from_coverage(random_coverage(n, 2, 1, 0))
            proper_pac_core(
                n, eps, 2.0, source, lambda pool: source, examples, child_rng(1, 0)
            )
        else:
            t = search_thresholds(eps, None)
            pac_core(n, eps, source, lambda pool: source)
        cap = n + basis_size(n, t.max_level)
        assert len(asked) <= cap
        if constant is not None:  # every set is kept and extended
            assert len(asked) == cap
        lattice = asked[n:]
        assert len(set(lattice)) == len(lattice)
        assert max(bin(m).count("1") for m in lattice) <= t.max_level


class TestPacLearning:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_source_error_bound(self, seed):
        # with exact coefficient sources the kept tail satisfies the
        # Parseval bound, so the l1 error is at most eps deterministically
        n = 10
        c = random_coverage(n, 8, 6, seed)
        t = exact_fourier(c)
        src = exact_source(t)
        eps = 0.25
        h = pac_core(n, eps, src, lambda pool: src)
        assert l1_exact(h, c) <= eps
        # concentration: mass off the kept support is at most eps^2 / 3
        tail = sum(v * v for m, v in t.coeffs.items() if m not in h.coeffs)
        assert tail <= eps * eps / 3 + 1e-12

    def test_pair_disjunction_support_recovery(self):
        c = CoverageFunction(6, 0.0, {0b11: 0.25})
        o = UniformTableOracle.from_coverage(c)
        h = pac_learn_uniform(o, 0.4, 7)
        # theta = 0.16^... eps^2/6 = 0.0267: all four true sets pass it
        assert set(h.coeffs) >= {0, 0b01, 0b10, 0b11}
        assert l1_exact(h, c) <= 0.4

    def test_sampled_run_small_error(self):
        c = random_coverage(8, 6, 4, 11)
        o = UniformTableOracle.from_coverage(c)
        h = pac_learn_uniform(o, 0.3, 5)
        assert l1_exact(h, c) <= 0.3

    def test_rejects_bad_eps(self):
        o = UniformTableOracle.from_coverage(random_coverage(3, 2, 2, 0))
        with pytest.raises(ValueError):
            pac_learn_uniform(o, 1.5, 0)

    @pytest.mark.parametrize("failure", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_rejects_failure_outside_unit_interval(self, failure):
        o = UniformTableOracle.from_coverage(random_coverage(3, 2, 2, 0))
        with pytest.raises(ValueError):
            pac_learn_uniform(o, 0.5, 0, failure=failure)

    def test_design_over_byte_cap(self, monkeypatch):
        # the regression's examples are refused before any is drawn
        monkeypatch.setattr(learners, "MEMORY_CAP", 8)
        src = exact_source(exact_fourier(CoverageFunction(3, 0.0, {0b011: 0.5})))
        with pytest.raises(DesignTooLarge):
            learners.proper_pac_core(
                3, 0.5, 1, src, lambda pool: src, _undrawable_oracle(3), child_rng(0, 0)
            )

    def test_sampled_oracle_route(self):
        # a non-table oracle feeds both phases from drawn sample batches
        c = random_coverage(6, 4, 3, 2)
        o = SampledOracle(DistributionSpec.uniform(6), lambda m, rng: c.eval_masks(m))
        h = pac_learn_uniform(o, 0.4, 3)
        assert l1_exact(h, c) <= 0.4


class TestPmacLearning:
    def test_zero_target_gives_zero_leaf(self):
        o = UniformTableOracle.from_coverage(CoverageFunction.zero(5))
        h = pmac_learn(o, 0.5, 0.2, 0)
        assert isinstance(h.root, PmacZeroLeaf)
        assert h.eval_masks(np.arange(32, dtype=np.uint64)).max() == 0.0

    def test_bounded_away_target_single_leaf(self):
        # c = 1/2 + 1/2 OR_1 never drops below half its max, so no split
        c = CoverageFunction(5, 0.5, {1: 0.5})
        o = UniformTableOracle.from_coverage(c)
        h = pmac_learn(o, 0.5, 0.2, 1)
        assert isinstance(h.root, PmacPolyLeaf)

    @pytest.mark.parametrize("seed", range(3))
    def test_multiplicative_guarantee_and_nonnegativity(self, seed):
        c = random_coverage(8, 6, 4, seed + 20)
        o = UniformTableOracle.from_coverage(c)
        gamma, delta = 0.5, 0.2
        h = pmac_learn(o, gamma, delta, seed)
        masks = np.arange(1 << 8, dtype=np.uint64)
        hv = h.eval_masks(masks)
        cv = c.eval_masks(masks)
        assert (hv >= 0).all()
        good = (hv <= cv + 1e-12) & (cv <= (1 + gamma) * hv + 1e-12)
        assert good.mean() >= 1 - delta

    @pytest.mark.parametrize("gamma,delta", [(0.5, 0.05), (0.25, 0.1)])
    def test_small_leaves_draw_past_2_to_the_72(self, gamma, delta):
        # the smallest minus leaves draw about 3e22 and 2e22 examples as
        # counts, some 8,000 and 4,500 multinomial chunks
        c = random_coverage(6, 6, 4, 20)
        h = pmac_learn(UniformTableOracle.from_coverage(c), gamma, delta, 0)
        masks = np.arange(1 << 6, dtype=np.uint64)
        hv, cv = h.eval_masks(masks), c.eval_masks(masks)
        good = (hv <= cv + 1e-12) & (cv <= (1 + gamma) * hv + 1e-12)
        assert good.mean() >= 1 - delta

    def test_single_point_subcube_gets_a_leaf(self):
        # the split on x_0 leaves two 0-variable subcubes: c = 1 on the minus
        # point, 0 on the plus point
        c = CoverageFunction(1, 0.0, {1: 1.0})
        h = pmac_learn(UniformTableOracle.from_coverage(c), 0.5, 0.2, 3)
        assert h.depth() == 1
        assert isinstance(h.root.minus, PmacPolyLeaf)
        hv = h.eval_masks(np.array([0, 1], dtype=np.uint64))
        assert hv[0] == 0.0
        assert hv[1] <= 1.0 <= 1.5 * hv[1]

    def test_depth_capped(self):
        c = random_coverage(10, 8, 6, 3)
        o = UniformTableOracle.from_coverage(c)
        delta = 0.2
        h = pmac_learn(o, 0.5, delta, 2)
        assert h.depth() <= math.ceil(math.log2(3.0 / delta)) + 1

    def test_deterministic_in_seed(self):
        o = UniformTableOracle.from_coverage(random_coverage(8, 6, 4, 26))
        a = pmac_learn(o, 0.5, 0.2, 4)
        b = pmac_learn(o, 0.5, 0.2, 4)
        masks = np.arange(1 << 8, dtype=np.uint64)
        assert a.eval_masks(masks).tobytes() == b.eval_masks(masks).tobytes()

    def test_trials_draw_disjoint_streams(self, monkeypatch):
        # every leaf's PAC run of one seed is seeded apart from another's
        seeds = []
        inner = learners.pac_learn_uniform

        def spy(oracle, eps, seed, *args, **kwargs):
            seeds.append(seed)
            return inner(oracle, eps, seed, *args, **kwargs)

        monkeypatch.setattr(learners, "pac_learn_uniform", spy)
        o = UniformTableOracle.from_coverage(random_coverage(8, 6, 4, 26))
        runs = []
        for trial_seed in (31, 26):
            seeds.clear()
            pmac_learn(o, 0.5, 0.2, trial_seed)
            runs.append(set(seeds))
        assert runs[0] and runs[1]
        assert runs[0].isdisjoint(runs[1])

    def test_stops_when_every_coordinate_is_in_a_small_draw(self):
        # every cell but the maximum's is below the floor, so the pivot
        # draws below it cover both coordinates and no pivot is left
        o = UniformTableOracle(2, (0, 1), np.array([1.0, 0.0, 0.0, 0.0]))
        h = pmac_learn(o, 0.5, 0.2, 0)
        assert h.root == PmacZeroLeaf()

    def test_examples_drawn_sum_every_draw(self, monkeypatch):
        # the leaves draw on restricted and scaled copies, which add to the
        # tally of the oracle the run was given
        o = UniformTableOracle.from_coverage(random_coverage(8, 6, 4, 26))
        draws = []
        for name in ("draw", "draw_counts", "draw_hits"):
            def spy(self, size, *args, real=getattr(UniformTableOracle, name)):
                draws.append((self is o, int(size)))
                return real(self, size, *args)

            monkeypatch.setattr(UniformTableOracle, name, spy)
        pmac_learn(o, 0.5, 0.2, 4)
        assert {root for root, _ in draws} == {True, False}
        assert o.examples_drawn == sum(size for _, size in draws)

    def test_rejects_bad_args(self):
        o = UniformTableOracle.from_coverage(CoverageFunction.zero(3))
        with pytest.raises(ValueError):
            pmac_learn(o, 0.0, 0.2, 0)
        with pytest.raises(ValueError):
            pmac_learn(o, 0.5, 1.2, 0)


class TestPmacLeaf:
    """A PMAC leaf is one PAC run at failure eta, seeded from its path."""

    def test_leaf_makes_one_run_at_eta(self, monkeypatch):
        calls = []
        inner = learners.pac_learn_uniform

        def spy(oracle, eps, seed, *args, **kwargs):
            calls.append((seed, args, kwargs))
            return inner(oracle, eps, seed, *args, **kwargs)

        monkeypatch.setattr(learners, "pac_learn_uniform", spy)
        o = UniformTableOracle.from_coverage(random_coverage(8, 6, 4, 26))
        eta = 0.001
        m_tilde = float(o.values.max())
        learners._pmac_leaf(o, m_tilde, m_tilde / 4, 0.3, 0.01, eta, 7, 3, 1)
        assert calls == [(child_seed(7, 3, 1), (), {"failure": eta})]

    @pytest.mark.parametrize("seed", range(6))
    def test_scaled_error_within_eps(self, seed):
        # the leaf's polynomial against the labels it fitted, the table
        # scaled by 1/(3 m~), measured exactly on the whole cube
        o = UniformTableOracle.from_coverage(random_coverage(6, 5, 3, seed + 40))
        m_tilde, eps, eta = float(o.values.max()), 0.3, 0.05
        leaf = learners._pmac_leaf(o, m_tilde, m_tilde / 4, eps, 0.0, eta, seed, 0, 1)
        hv = leaf.poly.eval_masks(np.arange(1 << 6, dtype=np.uint64))
        assert float(np.abs(hv - o.values / (3.0 * m_tilde)).mean()) <= eps


class TestProperPac:
    def test_size_bound_formula(self):
        eps = 0.3
        expected = (12.0 / eps) ** math.ceil(math.log2(6.0 / eps))
        assert proper_size_bound(eps, math.inf) == expected
        assert proper_size_bound(eps, 5.0) == 5.0

    def test_zero_target(self):
        o = UniformTableOracle.from_coverage(CoverageFunction.zero(5))
        h = proper_pac_learn(o, 0.3, 5, 0)
        assert isinstance(h, CoverageFunction)
        assert l1_exact(h, CoverageFunction.zero(5)) <= 1e-7

    def test_recovers_small_target(self):
        c = random_coverage(8, 5, 4, 2)
        o = UniformTableOracle.from_coverage(c)
        h = proper_pac_learn(o, 0.3, c.size(), 3)
        # the hypothesis is a legal coverage function by construction
        assert isinstance(h, CoverageFunction)
        assert l1_exact(h, c) <= 0.3

    def test_rejects_bad_args(self):
        o = UniformTableOracle.from_coverage(CoverageFunction.zero(3))
        with pytest.raises(ValueError):
            proper_pac_learn(o, 0.3, 0.5, 0)

    def test_an_infinite_size_bound_is_read_as_2_to_the_n(self):
        # a target on n variables has fewer than 2^n terms; unbounded, the
        # search at eps 0.2 would size its sample at about 6e25 examples
        c = random_coverage(6, 3, 2, 5)
        o = UniformTableOracle.from_coverage(c)
        h = proper_pac_learn(o, 0.2, math.inf, 4)
        assert h == proper_pac_learn(o, 0.2, 64, 4)
        assert l1_exact(h, c) <= 0.2

    def test_sampled_oracle_route(self):
        c = CoverageFunction(5, 0.0, {0b00011: 0.5})
        o = SampledOracle(DistributionSpec.uniform(5), lambda m, rng: c.eval_masks(m))
        h = proper_pac_learn(o, 0.9, 1, 0)
        assert isinstance(h, CoverageFunction)
        assert l1_exact(h, c) <= 0.9


def _undrawable_oracle(n: int) -> SampledOracle:
    def label(masks, rng):
        raise AssertionError("no example may be drawn")

    return SampledOracle(DistributionSpec.uniform(n), label)


@st.composite
def drawn_examples(draw):
    """Masks and labels drawn from small pools, so points repeat with one
    label or several, labels repeat across points, and 0.0 meets -0.0."""
    masks = st.sampled_from([0, 3, 5, 2**63 + 1])
    labels = st.sampled_from([0.0, -0.0, 0.25, 1.0])
    pairs = draw(st.lists(st.tuples(masks, labels), min_size=1, max_size=40))
    return (
        np.array([m for m, _ in pairs], dtype=np.uint64),
        np.array([y for _, y in pairs]),
    )


class TestFitPassesExamples:
    @settings(max_examples=200, deadline=None)
    @given(examples=drawn_examples())
    def test_one_target_per_example(self, examples):
        # the fit hands the LP each example's label, zero sign included, on
        # a design with one row per distinct point
        masks, labels = examples
        sets = [1, 1 << 63]
        drawn = mock.Mock(n=64, draw=mock.Mock(return_value=examples))
        with mock.patch.object(learners, "solve_l1", wraps=learners.solve_l1) as spy:
            learners._fit_coverage(64, sets, drawn, len(masks), None, 1 << 64)
        drawn.draw.assert_called_once_with(len(masks), None)
        (problem,), _ = spy.call_args
        assert len(problem.points) == len(set(masks.tolist()))
        assert problem.targets.tobytes() == labels.tobytes()
        want = [np.ones(len(masks))] + [eval_disjunction_batch(s, masks) for s in sets]
        assert problem.design.tolist() == np.column_stack(want).tolist()


def labelled_draw(dist, m, seed):
    """The release labeller's draw of m examples from dist: the masks and
    the (points, rows, counts) group_points gave it, after checking that it
    asked one query per point, ascending and weighted by the point's count,
    and gave each example its point's answer."""
    grouped, asked = [], []

    def group(masks, n):
        grouped.append(group_points(masks, n))
        return grouped[-1]

    def query(predicates, weights):
        asked.append((predicates, weights))
        return np.arange(len(predicates), dtype=np.float64)

    oracle = mock.Mock(query=query)
    with mock.patch.object(privacy, "group_points", group), \
            mock.patch.object(privacy, "and_query", int):
        masks, labels = privacy._private_examples(oracle, dist).draw(
            m, child_rng(seed, 0)
        )
    [(points, rows, counts)] = grouped
    [(predicates, weights)] = asked
    assert predicates == points.tolist() and weights is counts
    assert labels.tolist() == (1.0 - rows).tolist()
    return masks, (points, rows, counts)


class TestCountingGrouping:
    """group_points groups a draw of at least 2^n examples by counting over
    the 2^n cells; the arrays are those np.unique gives, bit for bit."""

    @pytest.mark.parametrize(
        "dist,m",
        [
            (DistributionSpec.uniform(5), 32),
            (DistributionSpec.uniform(5), 31744),
            (DistributionSpec.layer(5, 0), 40),
            (DistributionSpec.layer(5, 2), 31744),
            (DistributionSpec.layer(5, 5), 40),
            (DistributionSpec.layer(12, 6), 1 << 12),
            (DistributionSpec.symmetric([0.1, 0.0, 0.3, 0.2, 0.4]), 500),
            (DistributionSpec.symmetric([0.0] * 12 + [1.0]), 53248),
        ],
        ids=["uniform-at-2^n", "uniform", "layer-0", "layer-2", "layer-n",
             "layer-12", "symmetric", "symmetric-top-layer"],
    )
    def test_equals_unique(self, dist, m):
        with mock.patch.object(learners.np, "unique", wraps=np.unique) as spy:
            masks, got = labelled_draw(dist, m, 3)
        assert spy.call_count == 0
        want = np.unique(masks, return_inverse=True, return_counts=True)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10), st.integers(-2, 2), st.data())
    def test_group_points_equals_unique(self, n, offset, data):
        # both sides of the cut at 2^n masks, on draws that miss cells
        m = max(1, (1 << n) + offset)
        pool = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=9))
        masks = child_rng(n, m).choice(np.array(pool, dtype=np.uint64), size=m)
        got = group_points(masks, n)
        want = np.unique(masks, return_inverse=True, return_counts=True)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_ungrouped_fit_counts(self):
        # per-example labels, as the CLI's noise_scale gives: 2048 examples
        # on 2^3 cells are grouped by counting, not sorted
        dist = DistributionSpec.uniform(3)
        oracle = SampledOracle(dist, lambda masks, rng: np.zeros(len(masks)))
        with mock.patch.object(learners.np, "unique", wraps=np.unique) as unique:
            h = agnostic_learn(oracle, dist, 0.5, 0)
        assert unique.call_count == 0
        assert np.abs(h.eval_masks(np.arange(8, dtype=np.uint64))).max() == 0.0

    @pytest.mark.parametrize(
        "dist", [DistributionSpec.uniform(5), DistributionSpec.layer(12, 6)]
    )
    def test_fewer_examples_than_cells_sort(self, dist):
        m = (1 << dist.n) - 1
        with (
            mock.patch.object(learners.np, "unique", wraps=np.unique) as unique,
            mock.patch.object(learners.np, "bincount", wraps=np.bincount) as bincount,
        ):
            labelled_draw(dist, m, 3)
        assert unique.call_count == 1 and bincount.call_count == 0


class TestAgnostic:
    def test_degree_formula(self):
        assert agnostic_degree(0.25) == math.ceil(math.log2(12))

    def test_basis_over_column_cap(self):
        # degree 4 at n=30: 1 + 30 + 435 + 4060 + 27405 = 31931 features
        d = DistributionSpec.uniform(30)
        with pytest.raises(BasisTooLarge, match="31931"):
            agnostic_learn(_undrawable_oracle(30), d, 0.2, 0)

    def test_design_over_byte_cap(self):
        # 6196 features at n=20; min(9,913,600 examples, 2^20 points) rows
        # of them would take about 52 GB
        d = DistributionSpec.uniform(20)
        with pytest.raises(DesignTooLarge, match="51975815168"):
            agnostic_learn(_undrawable_oracle(20), d, 0.2, 0)

    def test_design_has_one_row_per_distinct_point(self, monkeypatch):
        # 617,600 examples of 386 features on 2^10 points: a dense design
        # would take about 1.9 GB.  The target's terms of arity 7 and 4 are
        # outside the degree-4 parities, so no beta fits the labels and
        # the fit reaches HiGHS
        solved, solve = [], learners.solve_l1

        def spy(problem):
            solved.append(problem)
            return solve(problem)

        monkeypatch.setattr(learners, "solve_l1", spy)
        c = random_coverage(10, 3, 8, 6)
        d = DistributionSpec.uniform(10)
        with mock.patch.object(
            regression, "_run_highs", wraps=regression._run_highs
        ) as run:
            h = agnostic_learn(UniformTableOracle.from_coverage(c), d, 0.2, 0)
        (problem,) = solved
        assert problem.points.shape == (1024, 386)
        # one target per example; the table labels each point once, so the
        # LP has one equality row per distinct point at most
        assert len(problem.targets) == 617_600
        lp = run.call_args.args[0]
        assert lp.row_lower_ == lp.row_upper_ and lp.num_row_ <= 1024
        assert l1_exact(h, c) <= 0.2

    def test_single_layer_fits_constant_label(self):
        # all mass on the top layer with a constant label: the fit must
        # return that label at the all-minus-one point
        d = DistributionSpec.layer(4, 4)
        o = SampledOracle(d, lambda m, rng: np.full(len(m), 0.37))
        h = agnostic_learn(o, d, 0.3, 0)
        assert h(0b1111) == pytest.approx(0.37, abs=1e-6)

    def test_noisy_coverage_target(self):
        c = random_coverage(3, 3, 2, 1)
        d = DistributionSpec.uniform(3)
        noise = 0.05

        def label(m, rng):
            return np.clip(c.eval_masks(m) + rng.uniform(-noise, noise, len(m)), 0, 1)

        h = agnostic_learn(SampledOracle(d, label), d, 0.15, 4)
        assert l1_exact(h, c) <= noise + 0.15

    def test_symmetric_distribution_layered_output(self):
        d = DistributionSpec.symmetric([0.0, 0.5, 0.5, 0.0])
        c = CoverageFunction(3, 0.0, {0b001: 0.5})
        o = SampledOracle(d, lambda m, rng: c.eval_masks(m))
        h = agnostic_learn(o, d, 0.3, 6)
        assert h.basis == "layered_parity"
        masks = np.arange(8, dtype=np.uint64)
        weights = np.bitwise_count(masks)
        sel = (weights == 1) | (weights == 2)
        err = np.abs(h.eval_masks(masks) - c.eval_masks(masks))[sel].mean()
        assert err <= 0.3


class TestProperAgnostic:
    def test_truncation_length_formula(self):
        assert truncation_length(0.25, 0.25) == 16
        with pytest.raises(ValueError):
            truncation_length(0.6, 0.25)

    def test_constant_half_labels(self):
        d = DistributionSpec.uniform(3)
        o = SampledOracle(d, lambda m, rng: np.full(len(m), 0.5))
        h = proper_agnostic_learn(o, d, 0.5, 0.5, 0)
        assert isinstance(h, CoverageFunction)
        masks = np.arange(8, dtype=np.uint64)
        assert np.abs(h.eval_masks(masks) - 0.5).mean() <= 1e-6

    def test_exact_coverage_target(self):
        c = CoverageFunction(3, 0.1, {0b011: 0.4})
        d = DistributionSpec.uniform(3)
        o = SampledOracle(d, lambda m, rng: c.eval_masks(m))
        h = proper_agnostic_learn(o, d, 0.4, 0.5, 1)
        assert l1_exact(h, c) <= 0.4

    def test_basis_over_column_cap(self):
        # disjunctions of up to 16 of 30 variables, counted, never listed
        d = DistributionSpec.uniform(30)
        with pytest.raises(BasisTooLarge):
            proper_agnostic_learn(_undrawable_oracle(30), d, 0.2, 0.5, 0)

    def test_design_over_byte_cap(self, monkeypatch):
        monkeypatch.setattr(learners, "MEMORY_CAP", 8)
        d = DistributionSpec.uniform(3)
        with pytest.raises(DesignTooLarge):
            proper_agnostic_learn(_undrawable_oracle(3), d, 0.5, 0.5, 0)

    def test_rejects_unbounded_distribution(self):
        d = DistributionSpec.product([0.01, 0.5])
        o = SampledOracle(d, lambda m, rng: np.zeros(len(m)))
        with pytest.raises(ValueError):
            proper_agnostic_learn(o, d, 0.3, 0.25, 0)


class TestDnfReduction:
    def test_input_map_example(self):
        # x = (-1, +1) maps to (-1, +1, +1, -1)
        out = dnf_input_map(np.array([0b01], dtype=np.uint64), 2)
        assert out[0] == 0b1001

    def test_disjoint_validation(self):
        with pytest.raises(ValueError):
            DisjointDnf(2, (((0b01), 0b01),))  # both polarities of x_1
        with pytest.raises(ValueError):
            DisjointDnf(2, ((0b01, 0), (0b11, 0)))  # overlapping terms
        with pytest.raises(ValueError, match="over the cap of 64"):
            DisjointDnf(65, ((1 << 64, 0),))

    @pytest.mark.parametrize(
        "n,eps", [(33, 0.3), (4, -1.0), (4, 0.0), (4, 1.0), (4, math.nan)]
    )
    def test_reduction_refuses(self, n, eps):
        # 2n doubled coordinates must fit a mask, and eps must lie in (0, 1);
        # both are refused before the inner learner runs
        oracle = SampledOracle(
            DistributionSpec.uniform(n), lambda m, rng: np.zeros(len(m))
        )

        def inner(o, e):
            raise AssertionError("the inner learner ran")

        with pytest.raises(ValueError):
            dnf_reduction_learn(oracle, 2, eps, inner)

    @pytest.mark.parametrize("seed", range(10))
    def test_coverage_identity(self, seed):
        n, s = 5, 3
        d = random_disjoint_dnf(n, s, seed)
        c = dnf_to_coverage(d)
        masks = np.arange(1 << n, dtype=np.uint64)
        mapped = dnf_input_map(masks, n)
        lhs = d.eval_masks(masks)
        rhs = s * (1.0 - c.eval_masks(mapped))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_exact_inner_learner_zero_error(self):
        n, s = 6, 3
        d = random_disjoint_dnf(n, s, 4)
        target = dnf_to_coverage(d)

        class BoolOracle:
            n = d.n

            def draw(self, m, rng):
                masks = rng.integers(0, 1 << d.n, size=m, dtype=np.uint64)
                return masks, d.eval_masks(masks)

        h = dnf_reduction_learn(BoolOracle(), s, 0.1, lambda o, e: target)
        assert isinstance(h, DnfClassifier)
        masks = np.arange(1 << n, dtype=np.uint64)
        assert np.array_equal(h.eval_masks(masks), d.eval_masks(masks))

    def test_inner_learner_draws_mapped_examples(self):
        n, s = 4, 2
        d = random_disjoint_dnf(n, s, 1)
        dist = DistributionSpec.uniform(n)
        base = SampledOracle(dist, lambda m, rng: d.eval_masks(m))
        seen = {}

        def inner(oracle, eps):
            seen["n"] = oracle.n
            seen["draw"] = oracle.draw(300, child_rng(5, 0))
            return dnf_to_coverage(d)

        dnf_reduction_learn(base, s, 0.1, inner)
        masks, labels = seen["draw"]
        base_masks, ys = base.draw(300, child_rng(5, 0))
        assert ys.any() and not ys.all()
        assert seen["n"] == 2 * n
        assert masks.tolist() == dnf_input_map(base_masks, n).tolist()
        assert labels.tolist() == (1.0 - ys / s).tolist()
