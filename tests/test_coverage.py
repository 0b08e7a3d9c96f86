import json
import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covlearn.cli import main as cli_main
from covlearn import coverage
from covlearn.coverage import (
    CHECK_CHUNK,
    MAX_DENSE_N,
    WHT_BLOCK,
    CoverageFunction,
    average_project,
    check_chunk,
    dense_table,
    eval_coverage,
    exact_fourier,
    junta_variables,
    l1_distance_mc,
    random_coverage,
    walsh_hadamard,
)
from covlearn.cube import (
    DimensionMismatch,
    DistributionSpec,
    IndexSet,
    Point,
    child_rng,
    sample_masks,
)
from covlearn.estimation import spectrum_from_counts


class TestCoverageFunction:
    def test_rejects_empty_set_term(self):
        with pytest.raises(ValueError):
            CoverageFunction(3, 0.0, {0: 0.5})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            CoverageFunction(3, 0.0, {1: -0.1})
        with pytest.raises(ValueError):
            CoverageFunction(3, -0.1, {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError):
            CoverageFunction(3, bad, {})
        with pytest.raises(ValueError):
            CoverageFunction(3, 0.0, {1: 0.5, 0b10: bad})

    def test_rejects_total_above_one(self):
        with pytest.raises(ValueError):
            CoverageFunction(3, 0.5, {1: 0.6})

    def test_eval_masks_refuses_a_point_outside_the_cube(self):
        # mask 9 read as mask 1 through the disjunction's bit test
        c = CoverageFunction(3, 0.0, {1: 0.5})
        with pytest.raises(IndexError, match="point mask 9 outside"):
            c.eval_masks(np.array([1, 9], dtype=np.uint64))

    def test_eval_masks_refuses_masks_that_are_not_integers(self):
        with pytest.raises(ValueError, match="must be integers"):
            CoverageFunction(3, 0.0, {1: 0.5}).eval_masks(np.array([1.5]))

    def test_rejects_out_of_range_set(self):
        with pytest.raises(ValueError):
            CoverageFunction(2, 0.0, {0b100: 0.5})
        # a point mask is one uint64, so no set may reach past x_64
        with pytest.raises(ValueError, match="over the cap of 64"):
            CoverageFunction(70, 0.0, {1 << 69: 1.0})

    @pytest.mark.parametrize("affine", [-0.0, 0.0, 0.125])
    @pytest.mark.parametrize("terms", [{}, {0b11: 0.25, 0b101100: 0.5, 0b10: 0.0}])
    def test_table_lookup_has_eval_masks_bytes(self, affine, terms):
        # eval_masks is elementwise, so the learn CLI may read its truth from
        # the dense table: the lookup keeps every bit, a -0.0 included
        c = CoverageFunction(6, affine, terms)
        masks = np.random.default_rng(1).integers(0, 64, 500).astype(np.uint64)
        assert dense_table(c)[masks].tobytes() == c.eval_masks(masks).tobytes()

    def test_size_and_total(self):
        c = CoverageFunction(3, 0.1, {1: 0.2, 0b110: 0.0})
        assert c.size() == 1
        assert abs(c.total_weight() - 0.3) < 1e-15


def reference_table(c):
    """The per-term loop dense_table replaced, as CoverageFunction.eval_masks
    runs it: the affine everywhere, then each nonzero weight times its
    disjunction, added in the order of c.terms."""
    cells = np.arange(1 << c.n, dtype=np.uint64)
    out = np.full(len(cells), c.affine)
    for mask, w in c.terms.items():
        if w:
            out += w * ((cells & np.uint64(mask)) != 0)
    return out


@st.composite
def coverages(draw):
    """n of 1 to 17, so one block, several blocks and sets of high bits
    only all occur; weights of 0.0 and -1e-13 and an affine of -0.0 among
    the others."""
    n = draw(st.integers(1, 17))
    full = (1 << n) - 1
    sets = [st.integers(1, full), st.just(full), st.just(full & (WHT_BLOCK - 1))]
    if n > 14:
        sets.append(st.integers(1, full >> 14).map(lambda high: high << 14))
    weights = st.one_of(st.sampled_from([0.0, -1e-13]), st.floats(0.0, 0.08))
    terms = draw(st.dictionaries(st.one_of(sets), weights, max_size=8))
    return CoverageFunction(n, draw(st.sampled_from([0.0, -0.0, 0.3])), terms)


class TestDenseTable:
    @settings(max_examples=200, deadline=None)
    @given(c=coverages())
    def test_bits_equal_the_per_term_loop(self, c):
        assert dense_table(c).tobytes() == reference_table(c).tobytes()


class TestEvalCoverage:
    def setup_method(self):
        # 0.5*OR_{1} + 0.5*OR_{2}
        self.c = CoverageFunction(2, 0.0, {0b01: 0.5, 0b10: 0.5})

    def test_all_plus(self):
        assert eval_coverage(self.c, Point(0b00, 2)) == 0.0

    def test_first_minus(self):
        assert eval_coverage(self.c, Point(0b01, 2)) == 0.5

    def test_both_minus(self):
        assert eval_coverage(self.c, Point(0b11, 2)) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_coverage(self.c, Point(0, 3))

    def test_batch_matches_scalar(self):
        masks = np.arange(4, dtype=np.uint64)
        vals = self.c.eval_masks(masks)
        for m in range(4):
            assert vals[m] == eval_coverage(self.c, Point(m, 2))

    def test_call_is_eval_coverage(self):
        for m in range(4):
            assert self.c(Point(m, 2)) == eval_coverage(self.c, Point(m, 2))
        with pytest.raises(DimensionMismatch):
            self.c(Point(0, 3))


def reference_wht(values):
    """The in-order, level-by-level butterfly: level h adds and subtracts
    the entries h apart within each block of 2h."""
    a = np.array(values, dtype=np.float64)
    size = len(a)
    h = 1
    while h < size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        a[:, :h] += a[:, h:]
        a[:, h:] = left - a[:, h:]
        a = a.reshape(size)
        h *= 2
    return a


def assert_same_bits_as_reference(values):
    before = values.tobytes()
    out = walsh_hadamard(values)
    assert out.tobytes() == reference_wht(values).tobytes()
    assert values.tobytes() == before
    assert not np.shares_memory(out, values)


class TestWalshHadamard:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3, 1e15]),
    )
    def test_bits_equal_level_by_level_form(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        assert_same_bits_as_reference(rng.uniform(-scale, scale, 1 << n))

    def test_bits_equal_level_by_level_form_at_n16(self):
        rng = np.random.default_rng(16)
        # multinomial-count-like cells at mixed magnitudes
        values = rng.random(1 << 16) * 10.0 ** rng.integers(-3, 16, 1 << 16)
        assert_same_bits_as_reference(values)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            walsh_hadamard(np.zeros(3))

    def test_self_inverse(self):
        rng = np.random.default_rng(0)
        v = rng.random(64)
        back = walsh_hadamard(walsh_hadamard(v)) / 64
        assert np.abs(back - v).max() < 1e-12

    def test_single_parity(self):
        # indicator spectrum of chi_{0b101} on n=3
        masks = np.arange(8, dtype=np.uint64)
        signs = 1.0 - 2.0 * (np.bitwise_count(masks & np.uint64(0b101)) % 2)
        spec = walsh_hadamard(signs) / 8
        assert abs(spec[0b101] - 1.0) < 1e-12
        assert np.abs(np.delete(spec, 0b101)).max() < 1e-12

    @pytest.mark.parametrize("n", range(18))
    def test_bits_equal_new_array(self, n):
        rng = np.random.default_rng(n)
        assert_same_bits_as_reference(rng.uniform(-1e3, 1e3, 1 << n))

    @pytest.mark.parametrize("n", [0, 1, 5, 14, 15, 17])
    def test_weighted_bits_equal_the_transform_of_the_product(self, n):
        # float and integer weights, on both sides of the block size
        rng = np.random.default_rng(n)
        values = rng.uniform(-1e3, 1e3, 1 << n)
        for weights in (rng.random(1 << n), rng.integers(0, 10**6, 1 << n)):
            before = values.tobytes(), weights.tobytes()
            out = walsh_hadamard(values, weights)
            assert out.tobytes() == reference_wht(weights * values).tobytes()
            assert (values.tobytes(), weights.tobytes()) == before

    def test_rejects_weights_of_another_length(self):
        with pytest.raises(ValueError):
            walsh_hadamard(np.zeros(4), np.ones(2))

    def test_size_one_is_a_new_array(self):
        values = np.array([-2.5])
        out = walsh_hadamard(values)
        assert out.tobytes() == values.tobytes()
        assert not np.shares_memory(out, values)

    @pytest.mark.parametrize("n", [13, 14, 15, 20])
    def test_bits_equal_on_both_sides_of_the_block(self, n):
        assert WHT_BLOCK == 1 << 14
        rng = np.random.default_rng(n)
        values = rng.random(1 << n) * 10.0 ** rng.integers(-3, 16, 1 << n)
        assert_same_bits_as_reference(values)

    def test_integer_input_transforms_as_float64(self):
        values = np.arange(-8, 24, 2)
        before = values.tobytes()
        out = walsh_hadamard(values)
        assert out.dtype == np.float64
        assert out.tobytes() == reference_wht(values).tobytes()
        assert values.tobytes() == before

    def test_interleaved_sizes(self):
        rng = np.random.default_rng(3)
        for n in (16, 3, 16, 0, 17, 5, 16):
            values = rng.random(1 << n) * 10.0 ** rng.integers(-3, 16, 1 << n)
            assert_same_bits_as_reference(values)

    def test_concurrent_threads_match_sequential(self):
        rng = np.random.default_rng(7)
        jobs = [
            [rng.random(1 << n) for n in sizes]
            for sizes in ((15, 4, 13, 15, 9) * 6, (12, 16, 6, 14, 11) * 6)
        ]
        expected = [[reference_wht(v).tobytes() for v in job] for job in jobs]
        got = [[], []]
        start = threading.Barrier(2)

        def run(i):
            start.wait()
            for v in jobs[i]:
                got[i].append(walsh_hadamard(v).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
    def test_forked_child_and_parent_transform_at_once(self):
        rng = np.random.default_rng(11)
        inputs = [rng.uniform(-1e3, 1e3, 1 << 16) for _ in range(2)]
        expected = [reference_wht(v).tobytes() for v in inputs]

        def transforms_match(values, want):
            # long enough that parent and child overlap for many transforms
            ok, deadline = True, time.monotonic() + 0.5
            while time.monotonic() < deadline:
                ok &= walsh_hadamard(values).tobytes() == want
            return ok

        ready_r, ready_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit, whatever happens
            code = 1
            try:
                os.write(ready_w, b"x")
                code = 0 if transforms_match(inputs[1], expected[1]) else 2
            finally:
                os._exit(code)
        try:
            os.read(ready_r, 1)
            parent_ok = transforms_match(inputs[0], expected[0])
        finally:
            os.close(ready_r)
            os.close(ready_w)
        deadline = time.monotonic() + 20
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
        assert parent_ok


def peak_traced_bytes(call):
    """Peak bytes tracemalloc sees allocated during call(), after one
    warm-up call; numpy reports its data buffers to tracemalloc."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SCRATCH_BYTES = 8 * WHT_BLOCK


class TestTransformAllocations:
    @pytest.mark.parametrize("n", [8, 14, 15, 16, 20])
    def test_transform_allocates_one_table_and_the_scratch(self, n):
        values = np.random.default_rng(n).random(1 << n)
        peak = peak_traced_bytes(lambda: walsh_hadamard(values))
        assert peak <= values.nbytes + min(values.nbytes, SCRATCH_BYTES) + 4096

    @pytest.mark.parametrize("n", [8, 14, 16])
    def test_weighted_transform_allocates_one_table_and_the_scratch(self, n):
        # the product of values and weights takes no memory of its own
        rng = np.random.default_rng(n)
        values, weights = rng.random(1 << n), rng.random(1 << n)
        peak = peak_traced_bytes(lambda: walsh_hadamard(values, weights))
        assert peak <= values.nbytes + min(values.nbytes, SCRATCH_BYTES) + 4096

    def test_spectrum_allocates_two_tables_and_the_scratch(self):
        # the product weights * labels and the transform's result
        rng = np.random.default_rng(16)
        counts = rng.multinomial(10**6, np.full(1 << 16, 2.0**-16)).astype(float)
        labels = rng.random(1 << 16)
        peak = peak_traced_bytes(lambda: spectrum_from_counts(counts, labels))
        assert peak <= 2 * counts.nbytes + SCRATCH_BYTES + 4096

    def test_one_pac_trial_holds_three_tables(self, tmp_path):
        # the target's table, the drawn counts and the transform's result,
        # plus the scratch and the check's sample arrays, under a tenth of a
        # table at n = 18; the counts' product with the labels takes none
        n = 18
        cfg = {"learner": "pac", "n": n, "seed": 4, "trials": 1,
               "target": {"max_terms": 50, "max_arity": 8},
               "params": {"epsilon": 0.4}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv = ["learn", "--config", str(path), "--out", str(tmp_path)]
        peak = peak_traced_bytes(lambda: cli_main(argv))
        assert peak <= 3.1 * (8 << n)


class TestExactFourier:
    def test_single_disjunction(self):
        c = CoverageFunction(2, 0.0, {0b01: 1.0})
        t = exact_fourier(c)
        assert t[0] == pytest.approx(0.5)
        assert t[0b01] == pytest.approx(-0.5)
        assert t[0b10] == 0.0
        assert t[0b11] == 0.0

    def test_pair_disjunction(self):
        c = CoverageFunction(2, 0.0, {0b11: 0.25})
        t = exact_fourier(c)
        assert t[0] == pytest.approx(0.1875)
        for mask in (0b01, 0b10, 0b11):
            assert t[mask] == pytest.approx(-0.0625)

    def test_constant_one(self):
        c = CoverageFunction(3, 1.0, {})
        t = exact_fourier(c)
        assert t[0] == 1.0
        assert all(t[m] == 0.0 for m in range(1, 8))

    def test_analytic_equals_wht(self):
        for seed in range(25):
            c = random_coverage(9, 8, 6, seed)
            a = exact_fourier(c, "analytic")
            b = exact_fourier(c, "wht")
            for m in set(a.coeffs) | set(b.coeffs):
                assert abs(a[m] - b[m]) < 1e-9

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            exact_fourier(CoverageFunction.zero(2), "fft")

    def test_term_of_weight_zero_adds_no_coefficient(self):
        with_zero = CoverageFunction(3, 0.125, {0b011: 0.0, 0b100: 0.5})
        without = CoverageFunction(3, 0.125, {0b100: 0.5})
        assert exact_fourier(with_zero).coeffs == exact_fourier(without).coeffs
        assert set(exact_fourier(with_zero).coeffs) == {0, 0b100}


class TestSpectralInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_spectral_norm_at_most_two(self, seed):
        c = random_coverage(10, 12, 8, seed)
        assert exact_fourier(c).spectral_l1() <= 2 + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_monotonicity_and_magnitude(self, seed):
        c = random_coverage(7, 8, 5, seed)
        t = exact_fourier(c)
        for v in range(1, 1 << 7):
            assert t[v] <= 1e-15  # non-positive off the empty set
            assert abs(t[v]) <= 2.0 ** -int(v).bit_count() + 1e-12
            sub = (v - 1) & v
            while sub:
                assert abs(t[v]) <= abs(t[sub]) + 1e-12
                sub = (sub - 1) & v

    @pytest.mark.parametrize("seed", range(10))
    def test_expectation_at_least_half_max(self, seed):
        c = random_coverage(8, 10, 6, seed)
        assert exact_fourier(c)[0] >= dense_table(c).max() / 2 - 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_parseval(self, seed):
        c = random_coverage(8, 10, 6, seed)
        table = dense_table(c)
        total = sum(v * v for v in exact_fourier(c).coeffs.values())
        assert abs(total - float((table**2).mean())) <= 1e-9


class TestAverageProject:
    def test_pair_projected_to_one_var(self):
        c = CoverageFunction(2, 0.0, {0b11: 1.0})
        p = average_project(c, IndexSet(0b01, 2))
        assert p.affine == pytest.approx(0.5)
        assert p.terms == {0b01: pytest.approx(0.5)}

    def test_inside_set_passes_through(self):
        c = CoverageFunction(2, 0.0, {0b01: 1.0})
        p = average_project(c, IndexSet(0b01, 2))
        assert p.affine == 0.0
        assert p.terms == {0b01: 1.0}

    def test_fully_outside_becomes_affine(self):
        c = CoverageFunction(2, 0.0, {0b10: 1.0})
        p = average_project(c, IndexSet(0b01, 2))
        assert p.affine == pytest.approx(0.5)
        assert p.terms == {}

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_brute_force_averaging(self, seed):
        n = 6
        c = random_coverage(n, 6, 4, seed)
        i_mask = (seed * 13 + 5) % (1 << n)
        proj = average_project(c, IndexSet(i_mask, n))
        table = dense_table(c)
        masks = np.arange(1 << n, dtype=np.uint64)
        outside = np.uint64(((1 << n) - 1) & ~i_mask)
        for x in range(1 << n):
            group = (masks & np.uint64(i_mask)) == (x & i_mask)
            expected = float(table[group].mean())
            assert abs(eval_coverage(proj, Point(x, n)) - expected) < 1e-12

    def test_projection_coefficients_match_inside(self):
        # projected coefficients equal original ones for sets inside I
        c = random_coverage(7, 8, 5, 3)
        i_set = IndexSet(0b0011011, 7)
        t0 = exact_fourier(c)
        t1 = exact_fourier(average_project(c, i_set))
        for sub in range(1 << 7):
            if sub & ~i_set.mask == 0:
                assert abs(t0[sub] - t1[sub]) < 1e-12


class TestJunta:
    @pytest.mark.parametrize("eps", [0.5, 0.25])
    @pytest.mark.parametrize("seed", range(5))
    def test_junta_bound_and_error(self, eps, seed):
        c = random_coverage(9, 10, 6, seed)
        t = exact_fourier(c)
        i_set = junta_variables(t, eps)
        assert i_set.size() <= 4 / eps**2
        proj = average_project(c, i_set)
        l1 = float(np.abs(dense_table(c) - dense_table(proj)).mean())
        assert l1 <= eps + 1e-12


class TestRandomCoverage:
    def test_single_term_structure(self):
        c = random_coverage(4, 1, 1, 0)
        assert c.size() == 1
        (mask,) = c.terms
        assert int(mask).bit_count() == 1

    def test_deterministic(self):
        a = random_coverage(8, 10, 5, 42)
        b = random_coverage(8, 10, 5, 42)
        assert a == b

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            random_coverage(4, 0, 2, 0)
        with pytest.raises(ValueError):
            random_coverage(4, 3, 5, 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_always_valid(self, seed):
        c = random_coverage(6, 8, 4, seed)
        assert c.total_weight() <= 1 + 1e-12


class TestL1DistanceMC:
    def test_identical_functions(self):
        c = random_coverage(5, 4, 3, 0)
        d = DistributionSpec.uniform(5)
        gap = lambda m: np.abs(c.eval_masks(m) - c.eval_masks(m))
        est, hw = l1_distance_mc(gap, d, 1000, 0)
        assert est == 0.0
        assert hw == pytest.approx(math.sqrt(math.log(2 / 0.05) * 2 / 1000))

    def test_constant_gap(self):
        d = DistributionSpec.uniform(4)
        est, _ = l1_distance_mc(lambda m: np.ones(len(m)), d, 500, 1)
        assert est == 1.0

    def test_half_gap(self):
        c = CoverageFunction(4, 0.0, {1: 1.0})
        d = DistributionSpec.uniform(4)
        est, hw = l1_distance_mc(c.eval_masks, d, 50_000, 2)
        assert abs(est - 0.5) < hw

    def test_check_chunk_is_one_cube_from_2_to_the_15_to_dense_n(self):
        for n in [1, 8, 14, MAX_DENSE_N + 1, 40, 64]:
            assert check_chunk(n) == CHECK_CHUNK
        for n in range(15, MAX_DENSE_N + 1):
            assert check_chunk(n) == 1 << n

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
        monkeypatch.setattr(coverage, "sample_masks", spy)
        assert l1_distance_mc(lambda m: np.ones(len(m)), d, samples, 3)[0] == 1.0
        assert [len(m) for m in seen] == [CHECK_CHUNK, CHECK_CHUNK, 2]
        one = sample_masks(d, samples, child_rng(3, 0))
        assert np.concatenate(seen).tobytes() == one.tobytes()
