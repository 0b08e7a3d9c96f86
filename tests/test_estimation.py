import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlearn.coverage import CoverageFunction, exact_fourier, random_coverage
from covlearn.cube import DistributionSpec, IndexSet, child_rng, sample_masks
from covlearn.learners import Coefficients
from covlearn.estimation import (
    batch_source,
    check_masks,
    exact_source,
    hoeffding_samples,
    lattice_search,
    spectrum_from_counts,
    spectrum_source,
)


class TestSampleBatch:
    """The draws batch_source refuses."""

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            batch_source(3, np.array([], dtype=np.uint64), np.array([]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            batch_source(3, np.zeros(2, dtype=np.uint64), np.zeros(3))

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            batch_source(3, np.zeros(1, dtype=np.uint64), np.array([1.5]))


class TestHoeffding:
    def test_plug_in_value(self):
        assert hoeffding_samples(1.0, 2 / math.e**2) == 4

    def test_derived_value(self):
        assert hoeffding_samples(0.1, 0.01) == math.ceil(200 * math.log(200))
        assert hoeffding_samples(0.1, 0.01) == 1060

    def test_halving_tolerance_quadruples(self):
        a = hoeffding_samples(0.2, 0.05)
        b = hoeffding_samples(0.1, 0.05)
        assert b in (4 * a, 4 * a - 1, 4 * a - 2, 4 * a - 3)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            hoeffding_samples(0.0, 0.5)
        with pytest.raises(ValueError):
            hoeffding_samples(0.5, 1.5)


def brute_force_estimates(masks, labels, set_masks):
    """The mean over the examples of label * chi_t, one example at a time."""
    return [
        sum(y * (-1) ** (int(x) & t).bit_count() for x, y in zip(masks, labels.tolist()))
        / len(masks)
        for t in set_masks
    ]


class TestEstimateCoefficient:
    """batch_source's estimates: exact on small draws, unbiased on uniform ones."""

    def test_zero_labels(self):
        src = batch_source(3, np.arange(8, dtype=np.uint64), np.zeros(8))
        assert src(np.arange(8)).tolist() == [0.0] * 8

    def test_one_labels_empty_set(self):
        src = batch_source(3, np.arange(8, dtype=np.uint64), np.ones(8))
        assert src(np.array([0]))[0] == 1.0

    def test_single_disjunction_monte_carlo(self):
        c = CoverageFunction(4, 0.0, {1: 1.0})
        masks = sample_masks(DistributionSpec.uniform(4), 100_000, child_rng(0, 0))
        est = batch_source(4, masks, c.eval_masks(masks))(np.array([1]))[0]
        assert abs(est - (-0.5)) < 0.02

    def test_unbiased(self):
        # 100 independent estimates of hat(c)({1}) for c = OR_1 average to
        # within 3 standard errors of -0.5
        c = CoverageFunction(4, 0.0, {1: 1.0})
        d = DistributionSpec.uniform(4)
        m = 400
        vals = []
        for i in range(100):
            masks = sample_masks(d, m, child_rng(1, i))
            vals.append(batch_source(4, masks, c.eval_masks(masks))(np.array([1]))[0])
        mean = float(np.mean(vals))
        stderr = 0.5 / math.sqrt(m * 100)  # variance of OR*chi is <= 1/4
        assert abs(mean - (-0.5)) < 3 * stderr

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 3, 5, 64]),
        m=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equals_brute_force_mean(self, n, m, seed, data):
        # draws from a pool of at most 6 points repeat points; at n < 64 the
        # draw has more examples than cells, and then fewer, as m varies
        top = (1 << n) - 1
        pool = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=6))
        rng = np.random.default_rng(seed)
        masks = rng.choice(np.array(pool, dtype=np.uint64), size=m)
        labels = rng.random(m)
        sets = data.draw(st.lists(st.integers(0, top), min_size=0, max_size=12))
        got = batch_source(n, masks, labels)(np.array(sets, dtype=np.uint64))
        want = brute_force_estimates(masks, labels, sets)
        assert got.dtype == np.float64 and len(got) == len(sets)
        assert np.abs(got - want).max(initial=0.0) <= 1e-12


class TestSpectrumFromCounts:
    def test_matches_batch_estimates(self):
        c = random_coverage(6, 6, 4, 3)
        values = c.eval_masks(np.arange(64, dtype=np.uint64))
        rng = child_rng(2, 0)
        counts = rng.multinomial(5000, np.full(64, 1 / 64)).astype(np.float64)
        spectrum = spectrum_from_counts(counts, values)
        # expand the counts into an explicit draw and compare every t
        masks = np.repeat(np.arange(64, dtype=np.uint64), counts.astype(int))
        direct = batch_source(6, masks, c.eval_masks(masks))(np.arange(64))
        assert np.abs(spectrum - direct).max() < 1e-12

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            spectrum_from_counts(np.zeros(4), np.zeros(4))


class TestCheckMasks:
    @pytest.mark.parametrize(
        "masks",
        [
            np.array([1.5, 2.9]),
            np.array([1.0]),
            np.array([True, False]),
            np.array([1 + 0j]),
            np.array([1, 2.5], dtype=object),
            [1, 2.0],
            [True],
        ],
        ids=["float", "integral-float", "bool", "complex", "object-float",
             "list-float", "list-bool"],
    )
    def test_refuses_non_integer_masks(self, masks):
        # numpy would truncate 1.5 to mask 1 and read True as mask 1
        with pytest.raises(ValueError, match="set masks must be integers"):
            check_masks(masks, 3)
        with pytest.raises(ValueError, match="set masks must be integers"):
            Coefficients(3, (masks, np.ones(len(masks))))

    def test_accepts_integer_masks(self):
        for masks in ([1, np.uint64(2), np.int64(3)], np.array([1], dtype=np.int8), 5):
            assert check_masks(masks, 3).dtype == np.uint64
        assert check_masks([], 3).tolist() == []


class TestSources:
    def test_exact_source(self):
        c = CoverageFunction(2, 0.0, {1: 1.0})
        src = exact_source(exact_fourier(c))
        assert src(np.array([0]))[0] == pytest.approx(0.5)
        assert src(np.array([1]))[0] == pytest.approx(-0.5)

    def test_spectrum_source_length_check(self):
        with pytest.raises(ValueError):
            spectrum_source(3, np.zeros(4))

    @pytest.mark.parametrize("mask", [-1, 1 << 3])
    def test_reject_masks_outside_the_cube(self, mask):
        # numpy would wrap a negative index into the spectrum silently
        c = CoverageFunction(3, 0.0, {1: 1.0})
        sources = [
            spectrum_source(3, np.zeros(8)),
            exact_source(exact_fourier(c)),
            batch_source(3, np.arange(8, dtype=np.uint64), np.ones(8)),
        ]
        for src in sources:
            with pytest.raises(ValueError):
                src(np.array([mask]))
            with pytest.raises(ValueError):
                src(np.array([1, mask, 2]))

    def test_batch_source(self):
        src = batch_source(2, np.arange(4, dtype=np.uint64), np.ones(4))
        assert src(np.array([0]))[0] == 1.0
        assert src(np.array([3]))[0] == 0.0


def reference_lattice_search(coeff_source, candidate_vars, theta, max_level):
    """The lattice loop that skips candidates below max(T) one by one."""
    candidates = candidate_vars.indices()
    kept = {0: coeff_source(0)}
    frontier = [0]
    for _ in range(max_level):
        next_frontier = []
        for t_mask in frontier:
            low = t_mask.bit_length()
            for i in candidates:
                if i < low:
                    continue
                ext = t_mask | 1 << i
                est = coeff_source(ext)
                if abs(est) >= theta:
                    kept[ext] = est
                    next_frontier.append(ext)
        if not next_frontier:
            break
        frontier = next_frontier
    return kept


def scalar_spy(source, seen):
    """The reference's view of an array source: one mask in, one float out."""

    def wrapped(mask):
        seen.append(mask)
        return float(source(np.array([mask], dtype=np.uint64))[0])

    return wrapped


def batch_spy(source, batches):
    def wrapped(masks):
        batches.append(np.asarray(masks).tolist())
        return source(masks)

    return wrapped


class TestLatticeSearch:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        candidate_mask=st.integers(0, 2**9 - 1),
        theta=st.floats(1e-3, 0.5),
        max_level=st.integers(1, 9),
    )
    def test_same_kept_order_and_lookups_as_reference(
        self, n, seed, candidate_mask, theta, max_level
    ):
        # random spectra, not monotone ones, so levels end at every depth
        rng = np.random.default_rng(seed)
        spectrum = rng.uniform(-1, 1, 1 << n) * rng.random(1 << n) ** 4
        source = spectrum_source(n, spectrum)
        candidates = IndexSet(candidate_mask & ((1 << n) - 1), n)
        batches, seen_ref = [], []
        kept = lattice_search(batch_spy(source, batches), candidates, theta, max_level)
        ref = reference_lattice_search(
            scalar_spy(source, seen_ref), candidates, theta, max_level
        )
        assert list(kept.items()) == list(ref.items())
        assert [m for batch in batches for m in batch] == seen_ref
        # one non-empty call per level: the empty set, then the level-k sets
        assert len(batches) <= max_level + 1
        for level, batch in enumerate(batches):
            assert batch and {int(m).bit_count() for m in batch} == {level}
        assert all(type(t) is int and type(v) is float for t, v in kept.items())

    def test_pair_disjunction_example(self):
        c = CoverageFunction(2, 0.0, {0b11: 0.25})
        src = exact_source(exact_fourier(c))
        kept = lattice_search(src, IndexSet(0b11, 2), 0.06, 2)
        assert set(kept) == {0, 0b01, 0b10, 0b11}
        assert kept[0] == pytest.approx(0.1875)
        for m in (0b01, 0b10, 0b11):
            assert kept[m] == pytest.approx(-0.0625)

    def test_high_threshold_keeps_only_empty(self):
        c = CoverageFunction(2, 0.0, {0b01: 1.0})
        src = exact_source(exact_fourier(c))
        kept = lattice_search(src, IndexSet(0b11, 2), 0.6, 2)
        assert set(kept) == {0}

    def test_threshold_above_one_keeps_only_empty(self):
        c = random_coverage(5, 5, 3, 0)
        src = exact_source(exact_fourier(c))
        kept = lattice_search(src, IndexSet(0b11111, 5), 1.01, 5)
        assert set(kept) == {0}

    @pytest.mark.parametrize("theta", [0.1, 0.03])
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_brute_force(self, theta, seed):
        n = 8
        c = random_coverage(n, 8, 5, seed)
        t = exact_fourier(c)
        kept = lattice_search(
            exact_source(t), IndexSet.from_indices(range(n), n), theta, n
        )
        brute = {m for m in range(1, 1 << n) if abs(t[m]) >= theta}
        assert {m for m in kept if m != 0} == brute

    def test_kept_count_bounded_by_spectral_norm(self):
        for seed in range(10):
            c = random_coverage(7, 8, 5, seed)
            theta = 0.05
            kept = lattice_search(
                exact_source(exact_fourier(c)),
                IndexSet.from_indices(range(7), 7),
                theta,
                7,
            )
            assert len(kept) - 1 <= 2 / theta

    def test_rejects_bad_args(self):
        src = exact_source(exact_fourier(CoverageFunction.zero(2)))
        with pytest.raises(ValueError):
            lattice_search(src, IndexSet(0, 2), 0.0, 2)
        with pytest.raises(ValueError):
            lattice_search(src, IndexSet(0, 2), 0.1, 0)

    @pytest.mark.parametrize("theta", [math.nan, -math.inf, -0.1])
    def test_rejects_theta_that_is_not_positive(self, theta):
        # a NaN theta keeps no set, so the search would return only {0}
        src = exact_source(exact_fourier(CoverageFunction(2, 0.0, {1: 1.0})))
        with pytest.raises(ValueError):
            lattice_search(src, IndexSet(0b11, 2), theta, 2)
