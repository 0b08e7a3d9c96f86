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

from covlearn.coverage import (
    CoverageFunction,
    average_project,
    dense_table,
    eval_coverage,
    exact_fourier,
    junta_variables,
    l1_distance_mc,
    random_coverage,
    walsh_hadamard,
)
from covlearn.cube import DimensionMismatch, DistributionSpec, IndexSet, Point
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

    def test_rejects_out_of_range_set(self):
        with pytest.raises(ValueError):
            CoverageFunction(2, 0.0, {0b100: 0.5})

    def test_size_and_total(self):
        c = CoverageFunction(3, 0.1, {1: 0.2, 0b110: 0.0})
        assert c.size() == 1
        assert abs(c.total_weight() - 0.3) < 1e-15


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
    assert out is not values


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


class TestWalshHadamardOut:
    @pytest.mark.parametrize("n", range(18))
    def test_out_bits_equal_new_array(self, n):
        rng = np.random.default_rng(n)
        values = rng.uniform(-1e3, 1e3, 1 << n)
        before = values.tobytes()
        expected = walsh_hadamard(values)
        assert expected.tobytes() == reference_wht(values).tobytes()
        assert values.tobytes() == before  # out=None leaves values alone
        assert walsh_hadamard(values, out=values) is values
        assert values.tobytes() == expected.tobytes()

    def test_interleaved_sizes_reuse_the_scratch(self):
        rng = np.random.default_rng(3)
        for n in (16, 3, 16, 0, 17, 5, 16):
            values = rng.random(1 << n) * 10.0 ** rng.integers(-3, 16, 1 << n)
            expected = reference_wht(values).tobytes()
            assert walsh_hadamard(values, out=values).tobytes() == expected

    @pytest.mark.parametrize(
        "make_out",
        [
            lambda buf, values: np.zeros(8),  # a separate array
            lambda buf, values: values.copy(),
            lambda buf, values: buf[:8],  # values' memory, another object
            lambda buf, values: np.zeros(4),  # wrong length
            lambda buf, values: np.zeros(8, dtype=np.float32),  # wrong dtype
            lambda buf, values: buf[4:12],  # partly overlaps values
            lambda buf, values: buf[7::-1],  # values reversed
        ],
    )
    def test_any_out_but_values_is_refused(self, make_out):
        buf = np.arange(16.0)
        values = buf[:8]
        out = make_out(buf, values)
        before, out_before = buf.tobytes(), out.tobytes()
        with pytest.raises(ValueError):
            walsh_hadamard(values, out=out)
        assert buf.tobytes() == before
        assert out.tobytes() == out_before

    @pytest.mark.parametrize(
        "values", [np.arange(8), np.zeros(8, dtype=np.float32), np.zeros((4, 2))]
    )
    def test_in_place_needs_a_flat_float64_array(self, values):
        before = values.tobytes()
        with pytest.raises(ValueError):
            walsh_hadamard(values, out=values)
        assert values.tobytes() == before

    def test_concurrent_threads_match_sequential(self):
        rng = np.random.default_rng(7)
        jobs = [
            [rng.random(1 << n) for n in sizes]
            for sizes in ((15, 4, 13, 15, 9) * 6, (12, 16, 6, 14, 11) * 6)
        ]
        expected = [[walsh_hadamard(v).tobytes() for v in job] for job in jobs]
        got = [[], []]
        start = threading.Barrier(2)

        def run(i):
            start.wait()
            for v in jobs[i]:
                w = v.copy()
                got[i].append(walsh_hadamard(w, out=w).tobytes())

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
        walsh_hadamard(inputs[0])  # warm up: this thread now holds a scratch

        def transforms_match(values, want):
            # long enough that parent and child overlap for many transforms
            ok, deadline = True, time.monotonic() + 0.5
            while time.monotonic() < deadline:
                w = values.copy()
                ok &= walsh_hadamard(w, out=w).tobytes() == want
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


class TestTransformAllocations:
    @pytest.mark.parametrize("n", [15, 16])
    def test_in_place_transform_allocates_less_than_a_table(self, n):
        values = np.random.default_rng(n).random(1 << n)
        peak = peak_traced_bytes(lambda: walsh_hadamard(values, out=values))
        assert peak < values.nbytes

    def test_repeated_transforms_fault_in_no_new_table(self):
        # the scratch is an anonymous mapping, which tracemalloc does not
        # see; a fresh one per call would fault in 128 new pages each time
        resource = pytest.importorskip("resource")
        values = np.random.default_rng(1).random(1 << 16)
        walsh_hadamard(values, out=values)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            walsh_hadamard(values, out=values)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < values.nbytes // 4096

    def test_spectrum_allocates_at_most_its_result(self):
        rng = np.random.default_rng(16)
        counts = rng.multinomial(10**6, np.full(1 << 16, 2.0**-16)).astype(float)
        labels = rng.random(1 << 16)
        peak = peak_traced_bytes(lambda: spectrum_from_counts(counts, labels))
        assert peak <= counts.nbytes + 4096


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
        est, hw = l1_distance_mc(c.eval_masks, c.eval_masks, d, 1000, 0)
        assert est == 0.0
        assert hw == pytest.approx(math.sqrt(math.log(2 / 0.05) * 2 / 1000))

    def test_constant_gap(self):
        d = DistributionSpec.uniform(4)
        one = lambda m: np.ones(len(m))
        zero = lambda m: np.zeros(len(m))
        est, _ = l1_distance_mc(one, zero, d, 500, 1)
        assert est == 1.0

    def test_half_gap(self):
        c = CoverageFunction(4, 0.0, {1: 1.0})
        zero = lambda m: np.zeros(len(m))
        d = DistributionSpec.uniform(4)
        est, hw = l1_distance_mc(c.eval_masks, zero, d, 50_000, 2)
        assert abs(est - 0.5) < hw
