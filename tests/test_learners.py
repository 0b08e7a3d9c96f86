import math
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from covlearn.coverage import (
    CoverageFunction,
    dense_table,
    exact_fourier,
    random_coverage,
    walsh_hadamard,
)
from covlearn.cube import DistributionSpec, child_rng, eval_disjunction_batch
from covlearn.estimation import exact_source, hoeffding_samples
from covlearn import learners, regression
from covlearn.learners import (
    DENSE_EVAL_SUPPORT,
    BasisTooLarge,
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
    dnf_input_map,
    dnf_reduction_learn,
    dnf_to_coverage,
    pac_core,
    pac_learn_uniform,
    pac_pool_bound,
    pmac_learn,
    proper_agnostic_learn,
    proper_pac_learn,
    proper_size_bound,
    random_disjoint_dnf,
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

    def test_clamp(self):
        p = SparsePolynomial(2, "parity", {0: 1.5}, clamp=True)
        assert p(0) == 1.0

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
        assert _eval_parity_poly(n, coeffs, masks).tobytes() == expected.tobytes()


class TestUniformTableOracle:
    def test_restrict_conditions_exactly(self):
        c = random_coverage(5, 4, 3, 0)
        o = UniformTableOracle.from_coverage(c)
        r = o.restrict(2, -1)
        masks = np.arange(32, dtype=np.uint64)
        expected = c.eval_masks(masks)[(masks >> np.uint64(2)) & np.uint64(1) == 1]
        assert np.array_equal(r.values, expected)
        assert r.free_vars == (0, 1, 3, 4)

    def test_lift_set(self):
        o = UniformTableOracle(5, (1, 3, 4), np.zeros(8))
        assert o.lift_set(0b101) == (1 << 1) | (1 << 4)

    def test_scaled_clamp(self):
        o = UniformTableOracle(1, (0,), np.array([0.0, 3.0]))
        assert o.scaled(0.5).values.tolist() == [0.0, 1.0]

    def test_draw_counts_total(self):
        o = UniformTableOracle.from_coverage(random_coverage(4, 3, 2, 1))
        counts = o.draw_counts(10_000, child_rng(1, 0))
        assert counts.sum() == 10_000

    def test_draw_cap(self):
        o = UniformTableOracle.from_coverage(random_coverage(3, 2, 2, 0))
        with pytest.raises(OracleExhausted):
            o.draw(1 << 27, child_rng(0, 0))


def _reference_counts(cells: int, total: int, rng) -> np.ndarray:
    """draw_counts' block rule as a sequential loop: block totals on rng,
    block b's cells on rng.spawn(blocks)[b], chunks of at most 4e18."""
    blocks = cells // learners.BLOCK_CELLS
    size = cells // blocks
    counts = np.zeros(cells)
    remaining = total
    while remaining > 0:
        chunk = min(remaining, 4 * 10**18)
        totals = rng.multinomial(chunk, np.full(blocks, 1.0 / blocks))
        for b, stream in enumerate(rng.spawn(blocks)):
            counts[b * size : (b + 1) * size] += stream.multinomial(
                totals[b], np.full(size, 1.0 / size)
            )
        remaining -= chunk
    return counts


class TestBlockSampler:
    """draw_counts against the single multinomial draw it replaced."""

    SIGMAS = 4  # every moment check allows this many standard errors

    @staticmethod
    def _table(n: int) -> UniformTableOracle:
        return UniformTableOracle(n, tuple(range(n)), np.zeros(1 << n))

    @pytest.mark.parametrize("n", [5, 12])  # 2^12 cells is exactly one block
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

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_never_reaches_the_counts(self, monkeypatch, workers):
        table = self._table(15)  # 8 blocks
        pooled = table.draw_counts(10**9, child_rng(7, 0))
        reference = _reference_counts(1 << 15, 10**9, child_rng(7, 0))
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(learners, "_count_pool", lambda: pool)
            patched = table.draw_counts(10**9, child_rng(7, 0))
        assert pooled.tobytes() == patched.tobytes() == reference.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
    def test_a_forked_child_draws_blocks(self):
        table = self._table(13)
        want = table.draw_counts(10**6, child_rng(8, 0))  # the pool is running
        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit, whatever happens
            code = 1
            try:
                got = table.draw_counts(10**6, child_rng(8, 0))
                code = 0 if got.tobytes() == want.tobytes() else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 20
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:  # the child hangs on a dead pool
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    def test_moments_match_the_multinomial(self):
        cells, total, draws = 1 << 13, 10**6, 400
        table = self._table(13)
        counts = np.array(
            [table.draw_counts(total, child_rng(6, i)) for i in range(draws)]
        )
        p = 1.0 / cells
        cell_var = total * p * (1 - p)
        # block totals: Binomial(total, 1/2)
        block = counts[:, : learners.BLOCK_CELLS].sum(axis=1)
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
    on child_rng(seed, 1) and sized by a union bound over the n singletons
    and the target-fixed pool: failure 1/3 for PAC, 2/9 for proper."""

    @staticmethod
    def _pac_samples(n, eps):
        theta = eps * eps / 6
        return hoeffding_samples(theta / 2, (1 / 3) / (n + pac_pool_bound(theta, n)))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_pac_draws_once(self, monkeypatch, seed):
        calls = _spy_draws(monkeypatch, UniformTableOracle, "draw_counts")
        o = UniformTableOracle.from_coverage(random_coverage(8, 6, 4, 11))
        pac_learn_uniform(o, 0.3, seed)
        want = (self._pac_samples(8, 0.3), child_rng(seed, 1).bit_generator.state)
        assert calls == [want]

    def test_proper_screen_and_search_draw_once(self, monkeypatch):
        calls = _spy_draws(monkeypatch, UniformTableOracle, "draw_counts")
        o = UniformTableOracle.from_coverage(random_coverage(5, 3, 2, 1))
        eps, s_eps, seed = 0.5, 3, 2
        proper_pac_learn(o, eps, s_eps, seed)
        theta = eps * eps / 108
        keep_thr = eps * eps / (54 * s_eps)
        family = 5 + pac_pool_bound(keep_thr, 5)
        m = hoeffding_samples(min(theta, keep_thr) / 2, (2 / 9) / family)
        assert calls == [(m, child_rng(seed, 1).bit_generator.state)]

    def test_sampled_oracle_draws_once(self, monkeypatch):
        calls = _spy_draws(monkeypatch, SampledOracle, "draw")
        c = random_coverage(6, 4, 3, 2)
        o = SampledOracle(DistributionSpec.uniform(6), lambda m, rng: c.eval_masks(m))
        pac_learn_uniform(o, 0.4, 3)
        want = (self._pac_samples(6, 0.4), child_rng(3, 1).bit_generator.state)
        assert calls == [want]


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

    def test_design_over_byte_cap(self, monkeypatch):
        # the regression's examples are refused before any is drawn
        monkeypatch.setattr(learners, "DESIGN_BYTES_CAP", 8)
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
        # every boosted PAC run of one seed is seeded apart from another's
        seeds = []
        inner = learners.pac_learn_uniform

        def spy(oracle, eps, seed):
            seeds.append(seed)
            return inner(oracle, eps, seed)

        monkeypatch.setattr(learners, "pac_learn_uniform", spy)
        o = UniformTableOracle.from_coverage(random_coverage(8, 6, 4, 26))
        runs = []
        for trial_seed in (31, 26):
            seeds.clear()
            pmac_learn(o, 0.5, 0.2, trial_seed)
            runs.append(set(seeds))
        assert runs[0] and runs[1]
        assert runs[0].isdisjoint(runs[1])

    def test_rejects_bad_args(self):
        o = UniformTableOracle.from_coverage(CoverageFunction.zero(3))
        with pytest.raises(ValueError):
            pmac_learn(o, 0.0, 0.2, 0)
        with pytest.raises(ValueError):
            pmac_learn(o, 0.5, 1.2, 0)


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
        drawn = mock.Mock(draw=mock.Mock(return_value=examples))
        with mock.patch.object(learners, "solve_l1", wraps=learners.solve_l1) as spy:
            learners._fit_coverage(64, sets, drawn, len(masks), None, 1 << 64)
        drawn.draw.assert_called_once_with(len(masks), None)
        (problem,), _ = spy.call_args
        assert len(problem.points) == len(set(masks.tolist()))
        assert problem.targets.tobytes() == labels.tobytes()
        want = [np.ones(len(masks))] + [eval_disjunction_batch(s, masks) for s in sets]
        assert problem.design.tolist() == np.column_stack(want).tolist()


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
        # would take about 1.9 GB
        solved, solve = [], learners.solve_l1

        def spy(problem):
            solved.append(problem)
            return solve(problem)

        monkeypatch.setattr(learners, "solve_l1", spy)
        c = random_coverage(10, 3, 2, 5)
        d = DistributionSpec.uniform(10)
        with mock.patch.object(regression, "linprog", wraps=linprog) as lp:
            h = agnostic_learn(UniformTableOracle.from_coverage(c), d, 0.2, 0)
        (problem,) = solved
        assert problem.points.shape == (1024, 386)
        # one target per example; the table labels each point once, so the
        # LP has one equality row per distinct point at most
        assert len(problem.targets) == 617_600
        assert lp.call_args.kwargs["A_eq"].shape[0] <= 1024
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
        monkeypatch.setattr(learners, "DESIGN_BYTES_CAP", 8)
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
