import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from covlearn import learners, privacy
from covlearn.coverage import MAX_DENSE_N, CoverageFunction, eval_coverage
from covlearn.cube import DistributionSpec, Point, child_rng, sample_masks
from covlearn.learners import (
    REGRESSION_SAMPLE_FACTOR,
    SparsePolynomial,
    agnostic_degree,
    basis_size,
    pac_pool_bound,
    search_thresholds,
    sets_up_to,
)
from covlearn.privacy import (
    BudgetExhausted,
    Dataset,
    GateRefused,
    PrivateOracle,
    ReleaseSummary,
    all_conjunction_answers,
    and_query,
    counting_query,
    coverage_of_dataset,
    gate_size,
    k_way_query_budget,
    marginals_query_budget,
    release_all_marginals,
    release_k_way,
    release_synthetic,
    synthesize_dataset,
    synthetic_query_budget,
)


def random_dataset(n: int, rows: int, seed: int) -> Dataset:
    rng = child_rng(seed, 0)
    return Dataset.from_points(rng.integers(0, 1 << n, size=rows).tolist(), n)


def sparse_dataset(n: int, seed: int) -> Dataset:
    """Rows with at most one +1 coordinate, so c_D has few distinct terms."""
    rng = child_rng(seed, 1)
    full = (1 << n) - 1
    points = [full & ~(1 << int(i)) for i in rng.integers(0, n, size=200)]
    points += [full] * 40
    return Dataset.from_points(points, n)


class TestDataset:
    def test_from_points_aggregates(self):
        d = Dataset.from_points([3, 3, 5], 3)
        assert d.size == 3
        assert sorted(d.masks.tolist()) == [3, 5]

    def test_rejects_duplicate_masks(self):
        with pytest.raises(ValueError):
            Dataset(2, np.array([1, 1], dtype=np.uint64), np.array([1, 1]))

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            Dataset(2, np.array([1], dtype=np.uint64), np.array([0]))

    @pytest.mark.parametrize(
        "n,masks",
        [(3, [8, 1]), (1, [2]), (63, [1 << 63]), (5, [-1, 2])],
        ids=["n3", "n1", "n63", "negative"],
    )
    def test_rejects_points_outside_the_cube(self, n, masks):
        # a mask of bit n or above would count as a point of the cube it is
        # not in, and index past the conjunction table
        with pytest.raises(ValueError, match="outside"):
            Dataset(n, np.array(masks), np.ones(len(masks), dtype=np.int64))

    def test_accepts_every_point_at_n64(self):
        masks = np.array([0, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
        d = Dataset(64, masks, np.array([1, 2, 3]))
        assert d.size == 6
        assert Dataset.from_points([(1 << 64) - 1, 0], 64).size == 2

    def test_from_points_refuses_a_width_over_64(self):
        with pytest.raises(ValueError, match="width 65"):
            Dataset.from_points([1 << 64], 65)

    def test_iid_uniform_exact_size(self):
        d = Dataset.iid_uniform(6, 12345, child_rng(0, 0))
        assert d.size == 12345

    @pytest.mark.parametrize("size", [-1, 1 << 63, 10**19])
    def test_iid_uniform_refuses_undrawable_size(self, size):
        # the multinomial counts are int64; a size past them is a ValueError,
        # not an OverflowError from inside the draw
        with pytest.raises(ValueError, match="outside"):
            Dataset.iid_uniform(5, size, child_rng(0, 0))

    def test_iid_uniform_empty(self):
        d = Dataset.iid_uniform(3, 0, child_rng(0, 0))
        assert d.is_empty() and d.size == 0

    def test_huge_multiplicities(self):
        d = Dataset.from_multiplicities([(0, 10**15), (1, 10**15)], 2)
        assert d.size == 2 * 10**15
        assert counting_query(d, and_query(0b01)) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "pairs,n,total",
        [
            ([(0, 2**62), (1, 2**62)], 1, 2**63),
            ([(0, 2**63 - 1), (1, 2**63 - 1), (2, 3)], 2, 2**64 + 1),
        ],
        ids=["2^63", "2^64+1"],
    )
    def test_refuses_a_size_past_int64(self, pairs, n, total):
        # an int64 sum wrapped these to -2^63 and 1, and every exact answer
        # and the noise scale divide by the size
        with pytest.raises(ValueError, match=rf"dataset size {total} is outside"):
            Dataset.from_multiplicities(pairs, n)

    def test_largest_size_is_exact(self):
        d = Dataset.from_multiplicities([(0, 2**62), (1, 2**62 - 1)], 1)
        assert d.size == 2**63 - 1 and type(d.size) is int


class TestCountingQuery:
    def test_two_point_example(self):
        # D = {(-1,+1), (+1,+1)}; AND over {1} matches only the first point
        d = Dataset.from_points([0b01, 0b00], 2)
        assert counting_query(d, and_query(0b01)) == 0.5
        assert counting_query(d, and_query(0)) == 1.0
        assert counting_query(d, and_query(0b10)) == 0.0

    def test_empty_dataset_rejected(self):
        d = Dataset(2, np.array([], dtype=np.uint64), np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            counting_query(d, and_query(0))


class TestDatasetCoverageIdentity:
    @pytest.mark.parametrize("seed", range(10))
    def test_identity_exhaustive(self, seed):
        # c_D(x) = 1 - CQ_D(AND over S_x) for every point of the cube
        n = 6
        d = random_dataset(n, 30, seed)
        c = coverage_of_dataset(d)
        for x in range(1 << n):
            lhs = eval_coverage(c, Point(x, n)) if x or True else None
            rhs = 1.0 - counting_query(d, and_query(x))
            assert abs(lhs - rhs) < 1e-12

    def test_empty_dataset_has_zero_coverage(self):
        c = coverage_of_dataset(Dataset.from_points([], 4))
        assert c == CoverageFunction.zero(4)
        assert (c.eval_masks(np.arange(16, dtype=np.uint64)) == 0.0).all()

    def test_coverage_is_valid(self):
        c = coverage_of_dataset(random_dataset(8, 100, 3))
        assert c.total_weight() <= 1 + 1e-12
        assert c.affine == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_all_conjunction_answers_match(self, seed):
        n = 6
        d = random_dataset(n, 40, seed)
        table = all_conjunction_answers(d)
        for s in range(1 << n):
            assert table[s] == pytest.approx(counting_query(d, and_query(s)))


class TestGate:
    def test_formula(self):
        q, tau, eps, delta = 100, 0.1, 1.0, 0.1
        expected = 100 * (math.log(100) + math.log(10)) / (1.0 * 0.1)
        assert gate_size(q, tau, eps, delta) == pytest.approx(expected)

    def test_infinite_epsilon_admits_anything(self):
        assert gate_size(10**6, 1e-6, math.inf, 0.1) == 0.0

    def test_refusal_carries_required_size(self):
        d = Dataset.from_points([0] * 10, 3)
        with pytest.raises(GateRefused) as exc:
            PrivateOracle(d, 100, 0.1, 1.0, 0.1, child_rng(0, 0))
        assert exc.value.required == gate_size(100, 0.1, 1.0, 0.1)

    def test_admission_above_gate(self):
        required = math.ceil(gate_size(10, 0.5, 1.0, 0.1))
        d = Dataset.from_multiplicities([(0, required + 1)], 3)
        o = PrivateOracle(d, 10, 0.5, 1.0, 0.1, child_rng(0, 0))
        assert o.scale == pytest.approx(10 / (1.0 * (required + 1)))


class TestPrivateOracle:
    def _oracle(self, q=5, epsilon=math.inf):
        d = Dataset.from_points([0b01, 0b00], 2)
        return PrivateOracle(d, q, 0.25, epsilon, 0.1, child_rng(1, 0))

    def test_budget_exhaustion_on_extra_query(self):
        o = self._oracle(q=5)
        for _ in range(5):
            o.query([and_query(0)])
        with pytest.raises(BudgetExhausted):
            o.query([and_query(0)])

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_rejects_epsilon_that_is_not_positive(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            self._oracle(epsilon=epsilon)

    def test_noiseless_limit(self):
        o = self._oracle(epsilon=math.inf)
        assert o.scale == 0.0
        assert o.query([and_query(0b01)])[0] == 0.5

    def test_answers_clamped(self):
        d = Dataset.from_multiplicities([(0, 10**6)], 2)
        o = PrivateOracle(d, 1, 0.25, 10.0, 0.1, child_rng(2, 0))
        assert 0.0 <= o.query([and_query(0)])[0] <= 1.0

    def test_noise_scale_distribution(self):
        d = Dataset.from_multiplicities([(0, 10**9)], 2)
        o = PrivateOracle(d, 100, 0.25, 1.0, 0.1, child_rng(3, 0))
        draws = o.noise(200_000)
        # mean absolute value of Laplace(0, b) is b
        assert abs(np.abs(draws).mean() - o.scale) < 0.02 * o.scale

    def test_audit_draws_leave_query_noise_unchanged(self):
        d = Dataset.from_multiplicities([(0, 10**9)], 2)
        plain = PrivateOracle(d, 10, 0.25, 1.0, 0.1, child_rng(4, 0))
        audited = PrivateOracle(d, 10, 0.25, 1.0, 0.1, child_rng(4, 0))
        answers, audited_answers = [], []
        for mask in (0b01, 0b10, 0b11):
            answers.append(plain.query([and_query(mask)])[0])
            audited.noise(3)
            audited_answers.append(audited.query([and_query(mask)])[0])
        assert audited_answers == answers

    def test_query_is_clamped_count_plus_laplace(self):
        d = Dataset.from_multiplicities([(0b01, 700), (0b10, 200), (0b11, 100)], 2)
        o = PrivateOracle(d, 30, 0.25, 2.0, 0.1, child_rng(5, 0))
        twin = child_rng(5, 0)
        scale = 30 / (2.0 * 1000)
        for i in range(30):
            predicate = and_query(i % 4)
            expected = counting_query(d, predicate) + float(
                twin.laplace(0.0, scale, size=1)[0]
            )
            assert o.query([predicate])[0] == min(1.0, max(0.0, expected))


def sequential_answers(d, masks, scale, rng):
    """The per-point loop a weighted batch replaces: for each distinct mask
    in sorted order, one exact count and one Laplace draw of size 1 at
    scale b/w for a mask that occurs w times, clamped with min and max;
    then each mask gets its point's answer."""
    sets, inverse, counts = np.unique(
        np.asarray(masks, dtype=np.uint64), return_inverse=True, return_counts=True
    )
    out = []
    for s, w in zip(sets, counts):
        noise = float(rng.laplace(0.0, scale / w, size=1)[0]) if scale else 0.0
        out.append(min(1.0, max(0.0, counting_query(d, and_query(int(s))) + noise)))
    return np.array(out, dtype=np.float64)[inverse]


def batch_answers(oracle, masks):
    """One weighted batch over masks: each distinct AND query is asked once
    with its multiplicity as weight, and each mask gets its point's
    answer."""
    sets, inverse, counts = np.unique(
        np.asarray(masks, dtype=np.uint64), return_inverse=True, return_counts=True
    )
    return oracle.query([and_query(int(s)) for s in sets], counts)[inverse]


def gated_dataset(rows: dict[int, int], n: int, q: int, epsilon: float) -> Dataset:
    """rows scaled by one factor so that the dataset passes the gate for q
    queries at tau 0.25 and delta 0.1."""
    factor = max(1, math.ceil(gate_size(q, 0.25, epsilon, 0.1)))
    return Dataset.from_multiplicities([(r, c * factor) for r, c in rows.items()], n)


class TestBatchedQuery:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 6),
        data=st.data(),
        epsilon=st.sampled_from([math.inf, 1.0, 40.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_sequential_loop(self, n, data, epsilon, seed):
        full = (1 << n) - 1
        # no row is all -1, so AND over every coordinate counts exactly 0
        # and noise below it clamps at 0; the empty AND counts exactly 1
        rows = data.draw(
            st.dictionaries(
                st.integers(0, max(full - 1, 0)), st.integers(1, 5), min_size=1
            )
        )
        masks = [0, full] * 3 + data.draw(st.lists(st.integers(0, full), max_size=60))
        d = gated_dataset(rows, n, len(masks) + 2, epsilon)
        o = PrivateOracle(d, len(masks) + 2, 0.25, epsilon, 0.1, child_rng(seed, 0))
        twin = child_rng(seed, 0)
        answers = batch_answers(o, masks)
        expected = sequential_answers(d, masks, o.scale, twin)
        assert answers.dtype == np.float64
        assert answers.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        # each example of a point carries its point's one answer
        for x in set(masks):
            assert len(set(answers[np.asarray(masks) == x].tolist())) == 1
        assert o.used == len(masks)
        assert o.rng.random() == twin.random()

    @pytest.mark.parametrize("epsilon", [1.0, math.inf])
    def test_clamps_at_both_ends(self, epsilon):
        d = gated_dataset({0b01: 3, 0b10: 1}, 2, 800, epsilon)
        o = PrivateOracle(d, 800, 0.25, epsilon, 0.1, child_rng(6, 0))
        masks = [0, 0b11] * 200
        answers = batch_answers(o, masks)
        assert answers.tolist() == sequential_answers(
            d, masks, o.scale, child_rng(6, 0)
        ).tolist()
        assert 0.0 <= answers.min() and answers.max() <= 1.0
        # 400 answers of weight 1 on the same two queries
        answers = o.query([and_query(0), and_query(0b11)] * 200)
        assert o.used == 800
        if math.isinf(epsilon):
            assert answers.tolist() == [1.0, 0.0] * 200
        else:
            # exact counts 1 and 0: about half the draws push each past its end
            assert 50 < (answers[0::2] == 1.0).sum() < 200
            assert 50 < (answers[1::2] == 0.0).sum() < 200
            assert 0.0 <= answers.min() and answers.max() <= 1.0

    @pytest.mark.parametrize(
        "dist,m,points",
        [(DistributionSpec.layer(4, 2), 500, 6), (DistributionSpec.uniform(8), 100, 84)],
        ids=["counted", "fewer-examples-than-cells"],
    )
    def test_label_draw_is_one_minus_sequential_answers(self, dist, m, points):
        # the labeller groups 500 examples on 2^4 cells by counting and 100
        # examples on 2^8 cells by sorting
        d = gated_dataset({0b0011: 2, 0b0101: 1, 0b1110: 4}, dist.n, 500, 2.0)
        o = PrivateOracle(d, 500, 0.25, 2.0, 0.1, child_rng(7, 0))
        masks, labels = privacy._private_examples(o, dist).draw(m, child_rng(7, 1))
        assert masks.tolist() == sample_masks(dist, m, child_rng(7, 1)).tolist()
        twin = child_rng(7, 0)
        answers = sequential_answers(d, masks, o.scale, twin)
        assert labels.dtype == np.float64
        assert labels.tolist() == (1.0 - answers).tolist()
        # one weighted answer per point drawn, m units charged
        assert len(set(zip(masks.tolist(), labels.tolist()))) == points
        assert len(np.unique(masks)) == points
        assert o.used == m
        assert o.rng.bit_generator.state == twin.bit_generator.state

    def test_label_draw_over_the_direct_draw_cap_is_refused(self):
        # k-way at n=13 and alpha_bar 0.1 asks for q examples in one draw;
        # the sampled oracle refuses before any point is drawn or queried
        q, _ = k_way_query_budget(13, 0.1)
        assert q == 104_857_600 > learners.MEMORY_CAP // 16
        d = Dataset.from_points([0b1, 0b10], 13)
        with pytest.raises(learners.OracleExhausted):
            release_k_way(d, 2, 0.1, math.inf, 0.1, 0)

    def test_over_budget_batch_charges_nothing(self):
        d = gated_dataset({0b01: 1, 0b10: 1}, 2, 10, 1.0)
        o = PrivateOracle(d, 10, 0.25, 1.0, 0.1, child_rng(8, 0))
        batch_answers(o, [0b01, 0b10, 0b01])
        state = o.rng.bit_generator.state
        with pytest.raises(BudgetExhausted):
            batch_answers(o, [0b01] * 8)
        assert o.used == 3
        assert o.rng.bit_generator.state == state
        # the batch that exactly spends the remaining budget is answered
        assert len(batch_answers(o, [0b01] * 7)) == 7
        assert o.used == o.q


class TestWeightedQuery:
    """An answer of weight w is one Laplace draw of scale b/w charged w
    units, so a batch spends the budget of sum(w) answers of scale b."""

    MASKS = (0b001, 0b010, 0b011, 0b101)

    def _oracle(self, q=40, epsilon=2.0, seed=9):
        d = gated_dataset({0b011: 5, 0b101: 2, 0b110: 3}, 3, q, epsilon)
        return PrivateOracle(d, q, 0.25, epsilon, 0.1, child_rng(seed, 0))

    def _predicates(self):
        return [and_query(s) for s in self.MASKS]

    def test_equals_one_twin_draw_at_scale_over_weight(self):
        o = self._oracle()
        twin = child_rng(9, 0)
        w = np.array([1, 7, 3, 12])
        answers = o.query(self._predicates(), w)
        exact = np.array([counting_query(o.dataset, p) for p in self._predicates()])
        expected = np.clip(exact + twin.laplace(0.0, o.scale / w), 0.0, 1.0)
        assert answers.dtype == np.float64
        assert answers.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert o.used == 23
        assert o.rng.bit_generator.state == twin.bit_generator.state

    def test_unit_weights_are_the_default(self):
        a, b = self._oracle(), self._oracle()
        plain = a.query(self._predicates())
        weighted = b.query(self._predicates(), np.ones(4, dtype=np.int64))
        assert plain.view(np.uint64).tolist() == weighted.view(np.uint64).tolist()
        assert a.used == b.used == 4
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    @pytest.mark.parametrize(
        "weights",
        [
            [1, 2, 3],  # one short
            [1, 2, 3, 4, 5],  # one over
            [[1, 2, 3, 4]],  # not 1-D
            [1, 0, 3, 4],
            [1, -2, 3, 4],
            [1, 2.5, 3, 4],
            [1, math.nan, 3, 4],
            [1, math.inf, 3, 4],
            [True, True, True, True],
        ],
    )
    def test_bad_weights_charge_nothing_and_draw_nothing(self, weights):
        o = self._oracle()
        o.query(self._predicates(), [2, 2, 2, 2])
        state = o.rng.bit_generator.state
        with pytest.raises(ValueError, match="weights"):
            o.query(self._predicates(), np.array(weights))
        assert o.used == 8
        assert o.rng.bit_generator.state == state

    def test_over_budget_batch_charges_nothing(self):
        o = self._oracle(q=20)
        o.query(self._predicates(), [1, 1, 1, 1])
        state = o.rng.bit_generator.state
        with pytest.raises(BudgetExhausted):
            o.query(self._predicates(), [5, 5, 5, 2])
        assert o.used == 4
        assert o.rng.bit_generator.state == state
        # the batch that exactly spends the remaining budget is answered
        assert len(o.query(self._predicates(), [5, 5, 5, 1])) == 4
        assert o.used == o.q == 20

    def test_noiseless_limit_draws_nothing(self):
        o = self._oracle(epsilon=math.inf)
        state = o.rng.bit_generator.state
        answers = o.query(self._predicates(), [3, 1, 4, 1])
        exact = [counting_query(o.dataset, p) for p in self._predicates()]
        assert answers.tolist() == exact
        assert o.used == 9
        assert o.rng.bit_generator.state == state

    def test_noise_is_laplace_at_scale_over_weight(self):
        # every exact count is near 1/2 and b/w is tiny, so no answer clamps
        d = Dataset.from_multiplicities([(0b01, 10**12), (0b10, 10**12)], 2)
        count = 20_000
        w = np.arange(count) % 9 + 1
        o = PrivateOracle(d, int(w.sum()), 0.25, 1.0, 0.1, child_rng(10, 0))
        answers = o.query([and_query(0b01)] * count, w)
        unclamped = (answers > 0.0) & (answers < 1.0)
        assert unclamped.all()
        z = (answers - 0.5) * w / o.scale
        assert stats.kstest(z[unclamped], "laplace").pvalue > 0.01
        # one answer of weight w, not the median of w: |z| has mean 1
        assert abs(np.abs(z).mean() - 1.0) < 0.03

    @pytest.mark.parametrize("seed", range(2))
    def test_release_ledgers_match_one_answer_per_example(self, seed):
        # literals from the release that drew one answer per drawn example
        def gated(q, tau):
            size = math.ceil(gate_size(q, tau, 1.0, 0.1))
            return Dataset.iid_uniform(4, size, child_rng(seed, 5))

        d = gated(*k_way_query_budget(4, 0.9))
        assert release_k_way(d, 2, 0.9, 1.0, 0.1, seed).queries_used == 4741
        d = gated(*synthetic_query_budget(4, 0.9, 5))
        summary = release_synthetic(d, 0.9, 1.0, 0.1, seed, size_bound=5)
        assert summary.queries_used == 5077


def two_sort_examples(oracle, dist):
    """The release's example oracle with two sorts of the drawn masks, the
    reference for group_points: the labeller sorts them for its weighted AND
    queries and _l1_fit sorts them again for the design."""

    def labels(masks, rng):
        sets, inverse, counts = np.unique(
            masks, return_inverse=True, return_counts=True
        )
        answers = oracle.query([privacy.and_query(int(s)) for s in sets], counts)
        return 1.0 - answers[inverse]

    return learners.SampledOracle(dist, labels)


def traced_k_way_release(d, k, alpha, epsilon, seed, examples):
    """release_k_way with `examples` as its example oracle: the summary, the
    AND masks asked in order, each query batch's weights and each LP."""
    asked, weights, problems = [], [], []
    query, solve = PrivateOracle.query, learners.solve_l1

    def and_spy(set_mask):
        asked.append(set_mask)
        return and_query(set_mask)

    def query_spy(self, predicates, w=None):
        weights.append(None if w is None else np.asarray(w).tolist())
        return query(self, predicates, w)

    def solve_spy(p):
        problems.append((p.points.tobytes(), p.rows.tolist(), p.targets.tobytes()))
        return solve(p)

    with mock.patch.object(privacy, "_private_examples", examples), \
            mock.patch.object(privacy, "and_query", and_spy), \
            mock.patch.object(PrivateOracle, "query", query_spy), \
            mock.patch.object(learners, "solve_l1", solve_spy):
        summary = release_k_way(d, k, alpha, epsilon, 0.1, seed)
    return summary, asked, weights, problems


class TestReleaseGrouping:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 5),
        data=st.data(),
        alpha=st.sampled_from([0.9, 0.7]),
        epsilon=st.sampled_from([math.inf, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_release_matches_two_sort_reference(self, n, data, alpha, epsilon, seed):
        k = data.draw(st.integers(0, n))
        q, tau = k_way_query_budget(n, alpha)
        d = Dataset.iid_uniform(n, math.ceil(gate_size(q, tau, 1.0, 0.1)),
                                child_rng(seed, 5))
        got = traced_k_way_release(d, k, alpha, epsilon, seed,
                                   privacy._private_examples)
        want = traced_k_way_release(d, k, alpha, epsilon, seed, two_sort_examples)
        assert got[1:] == want[1:]
        assert got[1] and len(got[2]) == len(got[3]) == 1
        assert got[0].queries_used == want[0].queries_used == q
        assert got[0].poly == want[0].poly


class TestQueryBudgets:
    def test_basis_size_counts_the_listed_basis(self):
        for n in range(1, 11):
            for degree in range(n + 2):
                assert basis_size(n, degree) == len(sets_up_to(n, degree))

    def test_k_way_budget_unchanged(self):
        alphas = [0.9, 0.6, 0.3, 0.2, 0.1, 0.05, 0.03, 0.02, 0.01, 0.005]
        degrees = set()
        for n in range(1, 11):
            for alpha in alphas:
                deg = agnostic_degree(alpha / 2.0)
                degrees.add(deg)
                features = len(sets_up_to(n, deg))
                q = math.ceil(REGRESSION_SAMPLE_FACTOR * features / (alpha / 2.0) ** 2)
                assert k_way_query_budget(n, alpha) == (q, alpha / 4.0)
        assert degrees >= set(range(3, 11))

    def test_search_budgets_count_the_sets_the_search_asks(self):
        # n singletons, then the smaller of the search's pool bound and the
        # basis_size(n, max_level) sets of its lattice
        assert marginals_query_budget(5, 0.5)[0] == 5 + 2**5  # all of it
        assert marginals_query_budget(16, 0.25)[0] == 16 + pac_pool_bound(
            0.25**2 / 6, 16
        )
        # acceptance test 10: 12 + basis_size(12, 6) sets asked, and the
        # regression over the 2,509 nonempty sets the search can keep
        assert basis_size(12, 6) == 2510
        assert synthetic_query_budget(12, 0.25, 13)[0] == 12 + 2510 + math.ceil(
            REGRESSION_SAMPLE_FACTOR * 2510 / 0.125**2
        )

    def test_k_way_budget_at_n64_lists_nothing(self):
        start = time.perf_counter()
        q, _ = k_way_query_budget(64, 0.2)
        assert time.perf_counter() - start < 0.5
        features = sum(math.comb(64, i) for i in range(agnostic_degree(0.1) + 1))
        assert q == math.ceil(REGRESSION_SAMPLE_FACTOR * features / 0.1**2)


class TestBudgetOutOfReach:
    """At the gate, where every answer is within tau with probability
    1 - delta, the a-priori q covers every query a release asks.  A budget
    that runs out anyway raises BudgetExhausted, a failed trial in the CLI."""

    @pytest.mark.parametrize("seed", range(3))
    def test_all_marginals_stays_within_q(self, seed):
        # n = 12: the search's pool bound, not its lattice, sizes q
        n, alpha = 12, 0.5
        q, tau = marginals_query_budget(n, alpha)
        t = search_thresholds(alpha, None)
        assert q == n + pac_pool_bound(t.keep_thr, n) < n + basis_size(n, t.max_level)
        size = math.ceil(gate_size(q, tau, 1.0, 0.1))
        d = Dataset.iid_uniform(n, size, child_rng(seed, 5))
        summary = release_all_marginals(d, alpha, 1.0, 0.1, seed)
        assert 0 < summary.queries_used <= q

    @pytest.mark.parametrize("seed", range(3))
    def test_k_way_spends_exactly_q(self, seed):
        n, k, alpha = 4, 2, 0.9
        q, tau = k_way_query_budget(n, alpha)
        size = math.ceil(gate_size(q, tau, 1.0, 0.1))
        d = Dataset.iid_uniform(n, size, child_rng(seed, 5))
        summary = release_k_way(d, k, alpha, 1.0, 0.1, seed)
        # agnostic_learn draws m = q examples on the layer distribution
        assert summary.queries_used == q

    @pytest.mark.parametrize("seed", range(3))
    def test_synthetic_stays_within_q(self, seed):
        n, alpha = 4, 0.9
        q, tau = synthetic_query_budget(n, alpha, n + 1)
        size = math.ceil(gate_size(q, tau, 1.0, 0.1))
        d = Dataset.iid_uniform(n, size, child_rng(seed, 5))
        summary = release_synthetic(d, alpha, 1.0, 0.1, seed, size_bound=n + 1)
        assert 0 < summary.queries_used <= q


class TestLevelBatchedFourierQueries:
    """A private coefficient source asked one lattice level per call gives
    the release, the ledger and the noise stream of one query per mask."""

    def _run(self, monkeypatch, release, per_mask):
        real = privacy._private_coeff_source
        oracles, calls, kept = [], [], []

        def patched(oracle):
            oracles.append(oracle)
            source = real(oracle)
            if per_mask:
                return lambda masks: np.concatenate(
                    [source(np.array([t], dtype=np.uint64)) for t in masks]
                )
            return lambda masks: calls.append(len(masks)) or source(masks)

        search = learners.lattice_search
        monkeypatch.setattr(privacy, "_private_coeff_source", patched)
        monkeypatch.setattr(
            learners, "lattice_search", lambda *a: kept.append(search(*a)) or kept[-1]
        )
        summary = release()
        monkeypatch.undo()
        (oracle,) = oracles
        return summary, oracle, list(kept[0].items()), calls

    @pytest.mark.parametrize("seed", range(2))
    def test_all_marginals(self, monkeypatch, seed):
        d = Dataset.from_multiplicities(
            [(0b00011, 10**7), (0b10110, 2 * 10**7), (0b11111, 10**7)], 5
        )

        def release():
            return release_all_marginals(d, 0.4, 50.0, 0.1, seed)

        a, oracle_a, kept_a, calls = self._run(monkeypatch, release, False)
        b, oracle_b, kept_b, _ = self._run(monkeypatch, release, True)
        assert max(calls) > 1
        assert len(kept_a) > 1 and kept_a == kept_b
        assert list(a.poly.coeffs.items()) == list(b.poly.coeffs.items())
        assert oracle_a.used == oracle_b.used == a.queries_used == sum(calls)
        assert oracle_a.rng.bit_generator.state == oracle_b.rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(2))
    def test_synthetic(self, monkeypatch, seed):
        d = Dataset.from_multiplicities(
            [(0b00011, 10**12), (0b10110, 2 * 10**12), (0b11111, 10**12)], 5
        )

        def release():
            return release_synthetic(d, 0.9, 1.0, 0.1, seed, size_bound=6)

        a, oracle_a, kept_a, calls = self._run(monkeypatch, release, False)
        b, oracle_b, kept_b, _ = self._run(monkeypatch, release, True)
        assert max(calls) > 1
        assert len(kept_a) > 1 and kept_a == kept_b
        assert a.synthetic.masks.tolist() == b.synthetic.masks.tolist()
        assert a.synthetic.mults.tolist() == b.synthetic.mults.tolist()
        assert oracle_a.used == oracle_b.used == a.queries_used
        assert oracle_a.rng.bit_generator.state == oracle_b.rng.bit_generator.state


def fourier_predicate(d: Dataset, t_mask: int):
    """Reference for the private Fourier source: F_T(z) = (1 + h(T)) / 2,
    h the Fourier coefficients of the disjunction z contributes, evaluated
    per row and averaged by counting_query."""
    full = (1 << d.n) - 1

    def predicate(masks: np.ndarray) -> np.ndarray:
        s_neg = ~masks & np.uint64(full)
        scale = 2.0 ** -np.bitwise_count(s_neg).astype(np.float64)
        if t_mask == 0:
            or_hat = 1.0 - scale
        else:
            inside = (s_neg & np.uint64(t_mask)) == t_mask
            or_hat = np.where(inside, -scale, 0.0)
        return (1.0 + or_hat) / 2.0

    return predicate


@st.composite
def fourier_cases(draw, exact: bool):
    """(dataset, set-mask batches): n in 1..10, multiplicities such that
    |D| * 2^(n+1) < 2^53 when exact, and far past it otherwise."""
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=64,
                         unique=True))
    top = 1 << (45 - n) if exact else 1 << 56
    mults = draw(st.lists(st.integers(1, top), min_size=len(rows),
                          max_size=len(rows)))
    batch = st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20)
    batches = draw(st.lists(batch, min_size=1, max_size=4))
    return Dataset.from_multiplicities(zip(rows, mults), n), batches


class TestFourierAnswersFromOneTransform:
    """The private Fourier source answers each batch off one transform of
    the conjunction counts, as asking the per-row predicates would."""

    def _both(self, d, batches, seed):
        q = sum(map(len, batches))
        oracles = [PrivateOracle(d, q, 1.0, 1e6, 0.1, child_rng(seed, 0))
                   for _ in range(2)]
        source = privacy._private_coeff_source(oracles[0])
        got = [source(np.array(b, dtype=np.uint64)) for b in batches]
        want = [2.0 * oracles[1].query([fourier_predicate(d, t) for t in b]) - 1.0
                for b in batches]
        return np.concatenate(got), np.concatenate(want), oracles

    @settings(max_examples=60, deadline=None)
    @given(fourier_cases(exact=True), st.integers(0, 2**32 - 1))
    def test_bit_identical_below_the_bound(self, case, seed):
        d, batches = case
        assert d.size * 2 ** (d.n + 1) < 2**53
        got, want, (a, b) = self._both(d, batches, seed)
        assert got.tobytes() == want.tobytes()
        assert a.used == b.used == len(got)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    @settings(max_examples=30, deadline=None)
    @given(fourier_cases(exact=False), st.integers(0, 2**32 - 1))
    def test_close_past_the_bound(self, case, seed):
        d, batches = case
        got, want, (a, b) = self._both(d, batches, seed)
        assert np.abs(got - want).max() <= 1e-12
        assert a.used == b.used == len(got)

    @pytest.mark.parametrize("release", ["all_marginals", "synthetic"])
    def test_refused_past_max_dense_n_before_any_query(self, monkeypatch, release):
        n = MAX_DENSE_N + 1
        d = Dataset.from_points([0, 5, (1 << n) - 1], n)
        oracles = []
        real = privacy._release_oracle
        monkeypatch.setattr(
            privacy, "_release_oracle",
            lambda *args: oracles.append(real(*args)) or oracles[-1],
        )
        run = {"all_marginals": release_all_marginals,
               "synthetic": release_synthetic}[release]
        with pytest.raises(ValueError, match=f"needs n <= {MAX_DENSE_N}"):
            run(d, 0.5, math.inf, 0.1, 0)
        (oracle,) = oracles
        assert oracle.used == 0


class TestReleases:
    def test_all_marginals_noiseless_small(self):
        n = 6
        d = random_dataset(n, 50, 7)
        summary = release_all_marginals(d, 0.3, math.inf, 0.1, 0)
        truth = all_conjunction_answers(d)
        masks = np.arange(1 << n, dtype=np.uint64)
        err = np.abs(summary.answer_masks(masks) - truth).mean()
        assert err <= 0.3
        q, _ = marginals_query_budget(n, 0.3)
        assert summary.queries_used <= q

    def test_all_marginals_reproducible(self):
        d = Dataset.from_multiplicities(
            [(0b00011, 10**7), (0b10110, 2 * 10**7), (0b11111, 10**7)], 5
        )
        a = release_all_marginals(d, 0.4, 50.0, 0.1, 3)
        b = release_all_marginals(d, 0.4, 50.0, 0.1, 3)
        assert a.poly.coeffs == b.poly.coeffs

    def test_all_plus_one_dataset(self):
        # every row all +1: c_D is the full disjunction, and the true answer
        # to every nonempty conjunction is 0
        n = 5
        d = Dataset.from_multiplicities([(0, 1000)], n)
        summary = release_all_marginals(d, 0.25, math.inf, 0.1, 0)
        truth = np.zeros(1 << n)
        truth[0] = 1.0
        masks = np.arange(1 << n, dtype=np.uint64)
        err = np.abs(summary.answer_masks(masks) - truth).mean()
        assert err <= 0.25

    def test_k_way_noiseless(self):
        n, k = 4, 2
        d = random_dataset(n, 60, 9)
        summary = release_k_way(d, k, 0.5, math.inf, 0.1, 0)
        truth = all_conjunction_answers(d)
        layer = np.array(
            [m for m in range(1 << n) if bin(m).count("1") == k], dtype=np.uint64
        )
        err = np.abs(summary.answer_masks(layer) - truth[layer]).mean()
        assert err <= 0.5
        q, _ = k_way_query_budget(n, 0.5)
        assert summary.queries_used <= q

    def test_synthetic_noiseless(self):
        n = 6
        d = sparse_dataset(n, 10)
        summary = release_synthetic(d, 0.4, math.inf, 0.1, 0, size_bound=n + 1)
        assert summary.variant == "synthetic"
        truth = all_conjunction_answers(d)
        masks = np.arange(1 << n, dtype=np.uint64)
        err = np.abs(summary.answer_masks(masks) - truth).mean()
        assert err <= 0.4
        q, _ = synthetic_query_budget(n, 0.4, n + 1)
        assert summary.queries_used <= q
        t = len(coverage_of_dataset(summary.synthetic).terms) or 1
        assert summary.synthetic.size <= math.ceil(4 * (n + 1) / 0.4)

    def test_summary_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            ReleaseSummary("table", 3, 0.1, 1.0, 0.1, 0, 0)

    @pytest.mark.parametrize(
        "variant,payload",
        [
            ("synthetic", {}),
            ("synthetic", {"poly": "poly"}),
            ("synthetic", {"poly": "poly", "synthetic": "data"}),
            ("fourier", {}),
            ("fourier", {"synthetic": "data"}),
            ("fourier", {"poly": "poly", "synthetic": "data"}),
            ("polynomial", {}),
            ("polynomial", {"synthetic": "data"}),
        ],
    )
    def test_summary_rejects_payload_of_another_variant(self, variant, payload):
        objects = {
            "poly": SparsePolynomial(3, "parity", {0: 0.5}),
            "data": Dataset.from_points([0b011], 3),
        }
        payload = {k: objects[v] for k, v in payload.items()}
        with pytest.raises(ValueError, match=variant):
            ReleaseSummary(variant, 3, 0.1, 1.0, 0.1, 0, 1, **payload)

    def test_from_oracle_stamps_the_oracle_ledger(self):
        d = Dataset.from_multiplicities([(0b011, 700), (0b101, 300)], 3)
        oracle = PrivateOracle(d, 5, 0.5, 2.0, 0.25, child_rng(0, 0))
        oracle.query([and_query(0b001), and_query(0b010)])
        poly = SparsePolynomial(3, "parity", {0: 0.5})
        s = ReleaseSummary.from_oracle("fourier", oracle, 0.3, poly=poly)
        assert (s.variant, s.n, s.alpha_bar) == ("fourier", 3, 0.3)
        assert (s.epsilon, s.delta) == (2.0, 0.25)
        assert (s.queries_used, s.dataset_size) == (2, 1000)
        assert s.poly is poly and s.synthetic is None

    def test_rejects_bad_alpha(self):
        d = random_dataset(3, 10, 0)
        with pytest.raises(ValueError):
            release_all_marginals(d, 1.2, math.inf, 0.1, 0)


class TestSynthesizeDataset:
    def test_two_term_example(self):
        # weights 0.25 and 0.5 on the alpha_bar = 0.5 grid with t = 2:
        # denominator 16, so 4 and 8 copies plus 4 all-minus-one pad rows
        h = CoverageFunction(3, 0.0, {0b001: 0.25, 0b110: 0.5})
        d = synthesize_dataset(h, 0.5)
        assert d.size == 16
        by_mask = dict(zip(d.masks.tolist(), d.mults.tolist()))
        assert by_mask[0b110] == 4  # +1 exactly on {1}
        assert by_mask[0b001] == 8  # +1 exactly on {2,3}
        assert by_mask[0b111] == 4  # padding
        # the synthetic coverage reproduces h exactly (weights on the grid)
        c = coverage_of_dataset(d)
        assert c.terms == {0b001: pytest.approx(0.25), 0b110: pytest.approx(0.5)}

    def test_affine_rides_on_full_disjunction(self):
        h = CoverageFunction(3, 0.5, {})
        d = synthesize_dataset(h, 0.5)
        c = coverage_of_dataset(d)
        assert c.terms == {0b111: pytest.approx(0.5)}

    def test_zero_hypothesis_gives_empty_dataset(self):
        d = synthesize_dataset(CoverageFunction.zero(4), 0.25)
        assert d.is_empty()
        s = ReleaseSummary("synthetic", 4, 0.25, 1.0, 0.1, 0, 0, synthetic=d)
        assert (s.answer_masks(np.arange(16, dtype=np.uint64)) == 1.0).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_rounding_loss_bounded(self, seed):
        from covlearn.coverage import random_coverage

        h = random_coverage(6, 5, 4, seed)
        alpha = 0.3
        d = synthesize_dataset(h, alpha)
        t = len(h.terms) + (1 if h.affine > 0 else 0)
        assert d.size <= math.ceil(4 * t / alpha)
        c = coverage_of_dataset(d)
        masks = np.arange(64, dtype=np.uint64)
        # each term loses under 1/denom plus the affine transfer 2^-n
        loss = np.abs(c.eval_masks(masks) - h.eval_masks(masks)).mean()
        assert loss <= alpha / 4 + 2.0**-6 + 1e-12
