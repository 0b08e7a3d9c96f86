import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from covlearn import cube
from covlearn.cube import (
    DimensionMismatch,
    DistributionSpec,
    IndexSet,
    Point,
    cell_index,
    check_points,
    child_rng,
    child_seed,
    eval_disjunction,
    eval_disjunction_batch,
    eval_parity,
    eval_parity_batch,
    format_point_line,
    iter_submasks,
    parse_point_line,
    sample,
    sample_masks,
)
from covlearn.estimation import spectrum_source
from covlearn.learners import UniformTableOracle


class TestPoint:
    def test_from_values_roundtrip(self):
        p = Point.from_values([-1, 1, 1, -1])
        assert p.mask == 0b1001
        assert p.values() == [-1, 1, 1, -1]
        assert p.weight() == 2

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Point.from_values([-1, 0])

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(ValueError):
            Point(0b100, 2)
        with pytest.raises(ValueError):
            Point(-1, 2)
        with pytest.raises(ValueError):
            Point(0, 0)


class TestIndexSet:
    def test_from_indices(self):
        s = IndexSet.from_indices([0, 2], 4)
        assert s.mask == 0b101
        assert s.indices() == [0, 2]
        assert s.size() == 2
        assert 0 in s and 1 not in s

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IndexSet.from_indices([4], 4)


class TestEvaluation:
    def test_disjunction_basics(self):
        s = IndexSet(0b011, 3)
        assert eval_disjunction(s, Point(0b001, 3)) == 1
        assert eval_disjunction(s, Point(0b100, 3)) == 0
        # empty set evaluates to 0, never the constant 1
        assert eval_disjunction(IndexSet(0, 3), Point(0b111, 3)) == 0

    def test_parity_basics(self):
        t = IndexSet(0b011, 3)
        assert eval_parity(t, Point(0b001, 3)) == -1
        assert eval_parity(t, Point(0b011, 3)) == 1
        assert eval_parity(IndexSet(0, 3), Point(0b101, 3)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_disjunction(IndexSet(1, 3), Point(1, 4))
        with pytest.raises(DimensionMismatch):
            eval_parity(IndexSet(1, 3), Point(1, 4))

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_batch_matches_scalar(self, set_mask, x_mask):
        masks = np.array([x_mask], dtype=np.uint64)
        s, x = IndexSet(set_mask, 8), Point(x_mask, 8)
        assert eval_disjunction_batch(set_mask, masks)[0] == eval_disjunction(s, x)
        assert eval_parity_batch(set_mask, masks)[0] == eval_parity(s, x)

    @given(st.integers(0, 1023), st.integers(0, 1023))
    def test_parity_is_intersection_parity(self, t, x):
        # chi_t(x) = (-1)^{|t intersect S_x|}
        expected = (-1) ** int(t & x).bit_count()
        assert eval_parity(IndexSet(t, 10), Point(x, 10)) == expected


def test_iter_submasks_exhaustive():
    subs = sorted(iter_submasks(0b1010))
    assert subs == [0b0000, 0b0010, 0b1000, 0b1010]


class TestDistributionSpec:
    def test_product_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec.product([0.5, 1.5])
        with pytest.raises(ValueError):
            DistributionSpec.product([0.0, 0.5])

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec.layer(4, 5)

    def test_symmetric_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec.symmetric([0.5, 0.6])
        with pytest.raises(ValueError):
            DistributionSpec.symmetric([1.5, -0.5])

    def test_nan_layer_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            DistributionSpec.symmetric([math.nan, 1.0])

    @pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (5, 2), (64, 63)])
    def test_layer_is_a_one_weight_symmetric_law(self, n, k):
        d = DistributionSpec.layer(n, k)
        assert d == DistributionSpec.symmetric([float(i == k) for i in range(n + 1)])
        assert d.layers == (k,)
        one_hot = DistributionSpec.symmetric([int(i == k) for i in range(n + 1)])
        got = sample_masks(d, 1000, child_rng(n, k))
        assert got.tobytes() == sample_masks(one_hot, 1000, child_rng(n, k)).tobytes()

    def test_layers(self):
        assert DistributionSpec.uniform(3).layers is None
        assert DistributionSpec.product([0.3, 0.6]).layers is None
        assert DistributionSpec.symmetric([0.25, 0, 0.75]).layers == (0, 2)


class TestSampling:
    def test_layer_zero_is_all_plus_one(self):
        d = DistributionSpec.layer(5, 0)
        masks = sample_masks(d, 50, child_rng(1, 0))
        assert (masks == 0).all()

    def test_layer_n_is_all_minus_one(self):
        d = DistributionSpec.layer(5, 5)
        masks = sample_masks(d, 50, child_rng(1, 0))
        assert (masks == 0b11111).all()

    def test_layer_weights_exact(self):
        d = DistributionSpec.layer(10, 3)
        masks = sample_masks(d, 200, child_rng(2, 0))
        assert (np.bitwise_count(masks) == 3).all()

    def test_symmetric_weights_respected(self):
        d = DistributionSpec.symmetric([0.0, 1.0, 0.0, 0.0])
        masks = sample_masks(d, 100, child_rng(3, 0))
        assert (np.bitwise_count(masks) == 1).all()

    def test_uniform_marginals(self):
        d = DistributionSpec.uniform(20)
        masks = sample_masks(d, 100_000, child_rng(4, 0))
        for i in range(20):
            frac = float(((masks >> np.uint64(i)) & np.uint64(1)).mean())
            assert abs(frac - 0.5) < 0.01

    def test_product_marginals(self):
        d = DistributionSpec.product([0.1, 0.9, 0.5])
        masks = sample_masks(d, 100_000, child_rng(5, 0))
        for i, b in enumerate(d.biases):
            frac = float(((masks >> np.uint64(i)) & np.uint64(1)).mean())
            assert abs(frac - b) < 0.01

    def test_uniform_full_width(self):
        masks = sample_masks(DistributionSpec.uniform(64), 1000, child_rng(6, 0))
        assert masks.dtype == np.uint64
        assert ((masks >> np.uint64(63)) & np.uint64(1)).any()

    def test_determinism(self):
        d = DistributionSpec.symmetric([0.2, 0.3, 0.5])
        a = sample_masks(d, 100, child_rng(7, 1, 2))
        b = sample_masks(d, 100, child_rng(7, 1, 2))
        assert (a == b).all()

    def test_child_seed_is_first_draw_of_its_path(self):
        # the CLI's trial and evaluation seeds rest on this rule
        assert child_seed(7, 3, 1) == int(child_rng(7, 3, 1).integers(0, 2**31))
        assert child_seed(7, 3, 1) != child_seed(7, 3, 2)

    def test_single_sample(self):
        p = sample(DistributionSpec.uniform(6), child_rng(8, 0))
        assert p.n == 6


def floyd_masks(n, ks, rng):
    """Floyd's algorithm one entry at a time, as the layer sampler's
    reference.  Pass j draws one integer in 0..j per entry, all passes in
    ascending j as the sampler draws them; each entry then runs its own last
    c = min(k, n - k) passes on a Python set, and a k above n / 2 takes the
    complement of the c-subset."""
    cs = [min(int(k), n - int(k)) for k in ks]
    passes = range(n - max(cs, default=0), n)
    draws = {j: rng.integers(0, j + 1, size=len(ks), dtype=np.uint64) for j in passes}
    masks = []
    for i, (k, c) in enumerate(zip(ks, cs)):
        chosen = set()
        for j in range(n - c, n):
            t = int(draws[j][i])
            chosen.add(j if t in chosen else t)
        if c != k:
            chosen = set(range(n)) - chosen
        masks.append(sum(1 << b for b in chosen))
    return np.array(masks, dtype=np.uint64)


def chi_square(counts, expected):
    """Pearson's statistic and its 0.999 quantile under the null."""
    counts, expected = np.asarray(counts), np.asarray(expected)
    statistic = float(((counts - expected) ** 2 / expected).sum())
    return statistic, float(stats.chi2.ppf(0.999, len(counts) - 1))


class TestLayerSamplerReference:
    @pytest.mark.parametrize("n", [1, 5, 16, 64])
    def test_constant_k_matches_floyd_reference(self, n):
        for k in sorted({0, 1, n // 2, n}):
            d = DistributionSpec.layer(n, k)
            got = sample_masks(d, 2000, child_rng(n, k))
            want = floyd_masks(n, [k] * 2000, child_rng(n, k))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 5, 16, 64])
    def test_mixed_ks_match_floyd_reference(self, n):
        weights = np.arange(1.0, n + 2)
        d = DistributionSpec.symmetric((weights / weights.sum()).tolist())
        got = sample_masks(d, 2000, child_rng(n, 99))
        rng = child_rng(n, 99)
        ks = rng.choice(n + 1, size=2000, p=np.asarray(d.layer_weights))
        assert got.tobytes() == floyd_masks(n, ks, rng).tobytes()

    @pytest.mark.parametrize("n", [1, 5, 16, 64])
    def test_exactly_k_bits(self, n):
        ks = np.random.default_rng(n).integers(0, n + 1, size=500)
        got = cube._sample_layer(n, ks, child_rng(n, 7))
        assert got.dtype == np.uint64
        assert (np.bitwise_count(got) == ks).all()
        if n < 64:
            assert (got >> np.uint64(n) == 0).all()

    @pytest.mark.parametrize("n", [1, 5, 16, 64])
    def test_one_weight_matches_the_weight_array(self, n):
        # a layer draw passes its weight once; the masks are those of the
        # same weight given once per entry, at 0, n and above n / 2
        for k in sorted({0, n, n // 2 + 1, n // 2}):
            for m in (0, 1, 7, 1000):
                for seed in range(3):
                    got = cube._sample_layer(n, k, child_rng(n, k, seed), m)
                    ks = np.full(m, k, dtype=np.int64)
                    want = cube._sample_layer(n, ks, child_rng(n, k, seed))
                    assert got.dtype == np.uint64 and got.shape == (m,)
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, k", [(5, 2), (6, 4)])
    def test_every_layer_point_is_equally_likely(self, n, k):
        masks = sample_masks(DistributionSpec.layer(n, k), 30_000, child_rng(n, k, 1))
        counts = np.bincount(masks.astype(np.int64), minlength=1 << n)
        on_layer = np.bitwise_count(np.arange(1 << n)) == k
        assert counts[~on_layer].sum() == 0
        assert on_layer.sum() == math.comb(n, k)
        statistic, bound = chi_square(
            counts[on_layer], np.full(math.comb(n, k), 30_000 / math.comb(n, k))
        )
        assert statistic < bound

    def test_symmetric_point_frequencies(self):
        # each point x has probability w(|x|) / C(n, |x|): the layer
        # frequencies and the uniform law within each layer at once
        n, m = 6, 60_000
        weights = np.arange(1.0, n + 2) / np.arange(1.0, n + 2).sum()
        masks = sample_masks(DistributionSpec.symmetric(weights.tolist()), m,
                             child_rng(6, 2))
        sizes = np.bitwise_count(np.arange(1 << n))
        expected = m * weights[sizes] / np.array([math.comb(n, s) for s in sizes])
        counts = np.bincount(masks.astype(np.int64), minlength=1 << n)
        statistic, bound = chi_square(counts, expected)
        assert statistic < bound
        layer_counts = np.bincount(np.bitwise_count(masks), minlength=n + 1)
        statistic, bound = chi_square(layer_counts, m * weights)
        assert statistic < bound

    @pytest.mark.parametrize(
        "d",
        [
            DistributionSpec.uniform(5),
            DistributionSpec.product([0.3, 0.6]),
            DistributionSpec.layer(5, 2),
            DistributionSpec.layer(5, 4),
            DistributionSpec.symmetric([0.25, 0.25, 0.5]),
        ],
        ids=["uniform", "product", "layer2", "layer4", "symmetric"],
    )
    def test_no_examples_is_an_empty_mask_array(self, d):
        masks = sample_masks(d, 0, child_rng(0, 0))
        assert masks.dtype == np.uint64 and masks.shape == (0,)

    @pytest.mark.parametrize("n", [4, 64])
    def test_product_matches_bit_sum(self, n):
        biases = np.linspace(0.1, 0.9, n)
        d = DistributionSpec.product(biases.tolist())
        got = sample_masks(d, 3000, child_rng(n, 1))
        chosen = child_rng(n, 1).random((3000, n)) < biases[None, :]
        bits = (np.uint64(1) << np.arange(n, dtype=np.uint64))[None, :]
        want = np.where(chosen, bits, np.uint64(0)).sum(axis=1, dtype=np.uint64)
        assert got.tobytes() == want.tobytes()


def tagged_sample_masks(variant, n, m, rng, biases=None, k=None, weights=None):
    """sample_masks as it was when a distribution was one of four variants
    named by a tag, with a k field for a layer: the reference for the
    streams of the two families."""
    if variant == "uniform":
        return rng.integers(0, 1 << n, size=m, dtype=np.uint64)
    if variant == "product":
        return cube._pack_bits(rng.random((m, n)) < np.asarray(biases)[None, :])
    if variant == "layer":
        return cube._sample_layer(n, k, rng, m)
    ks = rng.choice(n + 1, size=m, p=np.asarray(weights))
    return cube._sample_layer(n, ks.astype(np.int64), rng)


class TestTwoFamilyStreams:
    """Every law the four constructors build draws the stream it drew under
    its variant tag."""

    @pytest.mark.parametrize(
        "d, variant, params",
        [
            (DistributionSpec.uniform(1), "uniform", {}),
            (DistributionSpec.uniform(5), "uniform", {}),
            (DistributionSpec.uniform(64), "uniform", {}),
            (DistributionSpec.product([0.3, 0.5, 0.6, 0.7]), "product",
             {"biases": [0.3, 0.5, 0.6, 0.7]}),
            (DistributionSpec.product([0.2] * 64), "product", {"biases": [0.2] * 64}),
            (DistributionSpec.layer(5, 0), "layer", {"k": 0}),
            (DistributionSpec.layer(5, 2), "layer", {"k": 2}),
            (DistributionSpec.layer(4, 2), "layer", {"k": 2}),
            (DistributionSpec.layer(64, 40), "layer", {"k": 40}),
            (DistributionSpec.symmetric([0, 0.2, 0.5, 0.3, 0]), "symmetric",
             {"weights": [0, 0.2, 0.5, 0.3, 0]}),
            (DistributionSpec.symmetric([0.5, 0, 0, 0.5]), "symmetric",
             {"weights": [0.5, 0, 0, 0.5]}),
        ],
        ids=[
            "uniform1", "uniform5", "uniform64", "product4", "product64",
            "layer5-0", "layer5-2", "layer4-2", "layer64-40", "symmetric4",
            "symmetric3-ends",
        ],
    )
    @pytest.mark.parametrize("m", [0, 1, 7, 2000])
    def test_stream_matches_the_tagged_sampler(self, d, variant, params, m):
        for seed in range(3):
            got = sample_masks(d, m, child_rng(seed, m))
            want = tagged_sample_masks(variant, d.n, m, child_rng(seed, m), **params)
            assert got.dtype == np.uint64
            assert got.tobytes() == want.tobytes()


class TestTextFormat:
    def test_roundtrip(self):
        line = format_point_line(0b1001, 4)
        assert line == "1001"
        assert parse_point_line("1001") == (0b1001, 4)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_point_line("10x1")
        with pytest.raises(ValueError):
            parse_point_line("")

    @given(st.integers(0, 2**16 - 1))
    def test_roundtrip_property(self, mask):
        assert parse_point_line(format_point_line(mask, 16)) == (mask, 16)


class TestCellIndex:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_reads_and_writes_equal_the_uint64_ones(self, n, seed):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=1 << n)
        masks = rng.integers(0, 1 << n, size=500, dtype=np.uint64)
        masks[:2] = 0, (1 << n) - 1
        cells = cell_index(masks)
        assert cells.dtype == np.int64 and np.shares_memory(cells, masks)
        assert table[cells].tobytes() == table[masks].tobytes()
        assert spectrum_source(n, table)(masks).tobytes() == table[masks].tobytes()
        oracle = UniformTableOracle(n, tuple(range(n)), table)
        drawn, labels = oracle.draw(500, child_rng(seed, 0))
        assert labels.tobytes() == table[drawn].tobytes()
        written, expected, values = np.zeros(1 << n), np.zeros(1 << n), rng.random(500)
        written[cells], expected[masks] = values, values
        assert written.tobytes() == expected.tobytes()


class TestCheckPoints:
    def test_integer_masks_pass_as_uint64(self):
        for masks in ([0, 7], np.array([0, 7]), np.array([0, 7], dtype=np.uint8)):
            out = check_points(masks, 3)
            assert out.dtype == np.uint64 and out.tolist() == list(np.asarray(masks))
        assert check_points([], 3).tolist() == []

    @pytest.mark.parametrize("masks", [[1.7], [1.0, 2.0], [True, False]], ids=str)
    def test_refuses_an_array_not_of_integers(self, masks):
        # numpy would truncate 1.7 to mask 1 and read True as mask 1
        with pytest.raises(ValueError, match="must be integers"):
            check_points(masks, 3)

    @pytest.mark.parametrize("masks", [[8], [1, 9], [-1]], ids=str)
    def test_refuses_a_mask_outside_the_cube(self, masks):
        with pytest.raises(IndexError, match="outside"):
            check_points(np.array(masks), 3)
