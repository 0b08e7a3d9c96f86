import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from covlearn import regression
from covlearn.coverage import DistributionSpec, dense_table, random_coverage
from covlearn.cube import child_rng, eval_disjunction_batch, parity_sign
from covlearn.learners import (
    UniformTableOracle,
    agnostic_learn,
    proper_pac_learn,
    sets_up_to,
)
from covlearn.regression import (
    SIMPLEX_LIKE,
    UNCONSTRAINED,
    L1Problem,
    LPNotOptimal,
    solve_l1,
)


def highs_spy():
    """Patches regression._run_highs with a spy that runs it: each call's
    args are (lp, options, bounded)."""
    return mock.patch.object(regression, "_run_highs", wraps=regression._run_highs)


def equality_rows(lp):
    """The HighsLp's rows whose lower bound equals the upper bound."""
    return int(np.count_nonzero(np.equal(lp.row_lower_, lp.row_upper_)))


def highs_matrix(lp):
    """The HighsLp's constraint matrix as a scipy CSC matrix."""
    a = lp.a_matrix_
    shape = (lp.num_row_, lp.num_col_)
    return sp.csc_matrix((a.value_, a.index_, a.start_), shape=shape)


def reference_l1(design, targets, constraint):
    """One LP row per example, with no merging of repeated rows: the
    coefficients (snapped as solve_l1 snaps them) and the mean objective."""
    m, k = design.shape
    eye = sp.identity(m, format="csc")
    a_eq = sp.hstack([sp.csc_matrix(design), eye, -eye], format="csc")
    cost = np.concatenate([np.zeros(k), np.ones(2 * m)])
    a_ub = b_ub = None
    bounds = [(None, None)] * k + [(0, None)] * (2 * m)
    if constraint == SIMPLEX_LIKE:
        a_ub = sp.hstack([sp.csr_matrix(np.ones((1, k))), sp.csr_matrix((1, 2 * m))])
        b_ub = np.array([1.0])
        bounds = [(0, None)] * (k + 2 * m)
    res = linprog(cost, A_eq=a_eq, b_eq=targets, A_ub=a_ub, b_ub=b_ub,
                  bounds=bounds, method="highs")
    assert res.status == 0
    beta = np.asarray(res.x[:k], dtype=np.float64)
    if constraint == SIMPLEX_LIKE:
        beta = np.clip(beta, 0.0, None)
        beta = beta / max(beta.sum(), 1.0)
    return beta, res.fun / m


@st.composite
def repeated_rows(draw):
    """Rows drawn from a small pool of (design row, target) pairs, each with
    its own multiplicity, in shuffled order."""
    k = draw(st.integers(1, 4))
    pool = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                st.integers(0, 4),
                st.integers(1, 6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    rows = [(row, target / 4) for row, target, mult in pool for _ in range(mult)]
    rows = draw(st.permutations(rows))
    design = np.array([row for row, _ in rows], dtype=np.float64)
    return design, np.array([t for _, t in rows])


class TestRowCollapse:
    @settings(max_examples=60, deadline=None)
    @given(problem=repeated_rows(), constraint=st.sampled_from([UNCONSTRAINED, SIMPLEX_LIKE]))
    def test_matches_one_row_per_example(self, problem, constraint):
        design, targets = problem
        s = solve_l1(L1Problem(design, targets, constraint))
        _, ref_objective = reference_l1(design, targets, constraint)
        assert s.objective == pytest.approx(ref_objective, abs=1e-7)
        assert s.duality_gap <= 1e-7

    @pytest.mark.parametrize("constraint", [UNCONSTRAINED, SIMPLEX_LIKE])
    def test_distinct_rows_solve_the_same_lp(self, constraint):
        rng = child_rng(3, 0)
        design = rng.standard_normal((40, 5))
        targets = rng.random(40)
        with highs_spy() as spy:
            s = solve_l1(L1Problem(design, targets, constraint))
        assert equality_rows(spy.call_args.args[0]) == 40
        ref_beta, _ = reference_l1(design, targets, constraint)
        assert np.array_equal(s.coefficients, ref_beta)

    def test_first_occurrence_order(self):
        design = np.array([[2.0], [1.0], [2.0], [3.0], [1.0], [2.0]])
        targets = np.array([0.5, 0.0, 0.5, 1.0, 0.0, 0.5])
        with highs_spy() as spy:
            solve_l1(L1Problem(design, targets))
        lp = spy.call_args.args[0]
        assert highs_matrix(lp)[:, 0].toarray().ravel().tolist() == [2.0, 1.0, 3.0]
        assert lp.row_lower_ == lp.row_upper_ == [0.5, 0.0, 1.0]
        # the columns: beta, then r+ and r- per row, each costing the
        # row's multiplicity
        assert lp.col_cost_.tolist() == [0.0, 3.0, 2.0, 1.0, 3.0, 2.0, 1.0]


def dict_grouping(design, targets):
    """_group_by_design_row in plain Python: the same six outputs, built
    from an insertion-ordered dict of per-row target counts, one example at
    a time.  A dict keeps the first key of equal ones, so each target keeps
    its earliest example's zero sign."""
    groups = {}
    for row, target in zip(map(tuple, design.tolist()), targets.tolist()):
        counts = groups.setdefault(row, {})
        counts[target] = counts.get(target, 0) + 1
    rows, low, weight, seg_row, width, slope = [], [], [], [], [], []
    for g, (row, counts) in enumerate(groups.items()):
        ys = sorted(counts)
        total = sum(counts.values())
        rows.append(row)
        low.append(ys[0])
        weight.append(total)
        below = 0
        for y, above in zip(ys, ys[1:]):
            below += counts[y]
            seg_row.append(g)
            width.append(above - y)
            slope.append(2 * below - total)
    return rows, low, weight, seg_row, width, slope


TARGETS = [-0.0, 0.0, 0.25, 0.5, 1.0]


@st.composite
def pooled_examples(draw):
    """Points whose design rows come from a small pool, so distinct points
    share a design row, some as 0.0 against -0.0; examples that pick points
    from a small pool, so points repeat or go unused.  Labels are a function
    of the point, noisy, or a mix of both, and -0.0 meets 0.0 among them.
    Returns (points, rows, targets)."""
    k = draw(st.integers(1, 3))
    entries = st.sampled_from([-1.0, -0.0, 0.0, 1.0])
    pool = draw(
        st.lists(st.lists(entries, min_size=k, max_size=k), min_size=1, max_size=4)
    )
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    label_of = draw(
        st.lists(st.sampled_from(TARGETS), min_size=len(points), max_size=len(points))
    )
    noise = draw(st.sampled_from([0.0, 0.5, 1.0]))  # share of noisy labels
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(points) - 1),
                st.sampled_from(TARGETS),
                st.floats(0.0, 1.0, exclude_max=True),
            ),
            min_size=1,
            max_size=40,
        )
    )
    rows = np.array([i for i, _, _ in picks])
    targets = [y if u < noise else label_of[i] for i, y, u in picks]
    return np.array(points), rows, np.array(targets)


class TestGrouping:
    @settings(max_examples=200, deadline=None)
    @given(problem=pooled_examples())
    def test_matches_dict_grouping(self, problem):
        points, rows, targets = problem
        got = regression._group_by_design_row(points, rows, targets)
        want = dict_grouping(points[rows], targets)
        assert got[0].tolist() == [list(row) for row in want[0]]
        # each group's row and smallest target are its earliest example's,
        # zero signs included
        assert np.signbit(got[0]).tolist() == np.signbit(want[0]).tolist()
        assert np.signbit(got[1]).tolist() == np.signbit(want[1]).tolist()
        for g, w in zip(got[1:], want[1:]):
            assert g.tolist() == w

    def test_first_target_negative_zero(self):
        # two points share a design row; its earliest example has target
        # -0.0, which the later 0.0 examples join
        points = np.array([[1.0], [1.0], [2.0]])
        rows = np.array([1, 0, 2, 1, 0])
        targets = np.array([-0.0, 0.0, 0.5, 0.5, 0.0])
        design, low, weight, seg_row, width, slope = regression._group_by_design_row(
            points, rows, targets
        )
        assert design.tolist() == [[1.0], [2.0]]
        assert low.tolist() == [0.0, 0.5] and np.signbit(low).tolist() == [True, False]
        assert weight.tolist() == [4.0, 1.0]
        assert seg_row.tolist() == [0] and width.tolist() == [0.5]
        assert slope.tolist() == [2.0]  # 3 at or below the gap, 1 above

    def test_point_labels_sort_no_example(self):
        # labels that are a function of the point leave nothing to sort but
        # the points and one first example per group
        points = np.array([[0.0], [1.0], [2.0]])
        rows = np.array([2, 0, 1, 0, 2, 2])
        targets = np.array([0.5, 1.0, 0.25, 1.0, 0.5, 0.5])
        with (
            mock.patch.object(regression.np, "lexsort", wraps=np.lexsort) as lex,
            mock.patch.object(regression.np, "argsort", wraps=np.argsort) as arg,
        ):
            got = regression._group_by_design_row(points, rows, targets)
        assert [len(call.args[0][0]) for call in lex.call_args_list] == [3]
        assert [len(call.args[0]) for call in arg.call_args_list] == [3, 3, 3, 3]
        assert got[0].tolist() == [[2.0], [0.0], [1.0]]
        assert got[2].tolist() == [3.0, 2.0, 1.0]


def reach_highs(points, rows, targets):
    """The problem with k + 1 more examples, each on a point of its own
    whose design row, constant at 3 or more, no drawn point has, and each
    with target 0.5.  No beta fits two of those rows, so the rows' medians
    are not interpolable under either constraint: the median fit declines
    and solve_l1 hands the problem to HiGHS.  Returns (points, rows,
    targets)."""
    k = points.shape[1]
    extra = np.repeat(np.arange(3.0, k + 4.0)[:, None], k, axis=1)
    return (
        np.vstack([points, extra]),
        np.r_[rows, len(points) + np.arange(k + 1)],
        np.r_[targets, np.full(k + 1, 0.5)],
    )


def reach_highs_dense(design, targets):
    """reach_highs for a problem with one design row per example."""
    rows = np.arange(len(design))
    design, _, targets = reach_highs(design, rows, targets)
    return design, targets


def lp_arguments(problem):
    """What solve_l1 hands HiGHS, as comparable values: the HighsLp's sizes
    and the bytes of its arrays, the options and the bounded column count."""
    with highs_spy() as spy:
        solve_l1(problem)
    lp, options, bounded = spy.call_args.args
    a = lp.a_matrix_
    arrays = (lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_,
              lp.row_upper_, a.start_, a.index_, a.value_)
    return [lp.num_col_, lp.num_row_, a.num_col_, a.num_row_, a.format_, options,
            bounded, *(np.asarray(x).tobytes() for x in arrays)]


def block_matrices(problem):
    """A_eq = [Phi | I | -I | seg] and the simplex row, stacked from scipy
    blocks: the reference for solve_l1's one-pass CSC arrays."""
    rows, _, _, seg_row, _, _ = regression._group_by_design_row(
        problem.points, problem.rows, problem.targets
    )
    m, k = rows.shape
    s = len(seg_row)
    eye = sp.identity(m, format="csc")
    seg = sp.csc_matrix((np.full(s, -1.0), (seg_row, np.arange(s))), shape=(m, s))
    a_eq = sp.hstack([sp.csc_matrix(rows), eye, -eye, seg], format="csc")
    if problem.constraint == UNCONSTRAINED:
        return a_eq, None
    zeros = sp.csr_matrix((1, 2 * m + s))
    return a_eq, sp.hstack([sp.csr_matrix(np.ones((1, k))), zeros], format="csc")


class TestLpAssembly:
    @settings(max_examples=150, deadline=None)
    @given(
        problem=pooled_examples(),
        constraint=st.sampled_from([UNCONSTRAINED, SIMPLEX_LIKE]),
        segments=st.booleans(),
    )
    def test_csc_arrays_equal_the_block_build(self, problem, constraint, segments):
        points, rows, targets = problem
        if segments:  # example 0's point once more, with a target of its own
            rows, targets = np.r_[rows, rows[0]], np.r_[targets, targets[0] + 0.125]
        else:  # targets a function of the design row: no segment column
            targets = np.abs(points[rows]).sum(axis=1) / 4
        points, rows, targets = reach_highs(points, rows, targets)
        p = L1Problem(points * 0.75, targets, constraint, rows)
        with highs_spy() as spy:
            solve_l1(p)
        lp = spy.call_args.args[0]
        m, k = equality_rows(lp), points.shape[1]
        assert (lp.num_col_ > k + 2 * m) == segments
        # linprog stacked A_ub over A_eq into one CSC matrix for HiGHS
        a_eq, a_ub = block_matrices(p)
        want = a_eq if a_ub is None else sp.vstack([a_ub, a_eq]).tocsc()
        a = lp.a_matrix_
        assert (lp.num_row_, lp.num_col_) == want.shape
        assert np.asarray(a.value_).tobytes() == want.data.tobytes()
        assert a.index_ == want.indices.tolist() and a.start_ == want.indptr.tolist()


class TestDistinctPoints:
    @settings(max_examples=100, deadline=None)
    @given(
        problem=pooled_examples(),
        constraint=st.sampled_from([UNCONSTRAINED, SIMPLEX_LIKE]),
    )
    def test_indexed_problem_hands_highs_the_dense_lp(self, problem, constraint):
        points, rows, targets = reach_highs(*problem)
        indexed = L1Problem(points, targets, constraint, rows)
        dense = L1Problem(points[rows], targets, constraint)
        assert lp_arguments(indexed) == lp_arguments(dense)

    def test_design_is_one_row_per_example(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = L1Problem(points, np.zeros(3), rows=np.array([1, 0, 1]))
        assert p.design.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize(
        "rows",
        [[0, 2], [-1, 0], [0.0, 1.0], [0, 1, 1]],
        ids=["past-the-end", "negative", "float", "too-long"],
    )
    def test_rejects_a_bad_index(self, rows):
        with pytest.raises(ValueError):
            L1Problem(np.ones((2, 1)), np.zeros(2), rows=np.array(rows))


@st.composite
def noisy_labels(draw):
    """Distinct design rows, each carrying several distinct labels with
    their own multiplicities, in shuffled order."""
    k = draw(st.integers(1, 4))
    pool = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                st.lists(
                    st.tuples(st.integers(0, 8), st.integers(1, 5)),
                    min_size=1,
                    max_size=4,
                    unique_by=lambda label: label[0],
                ),
            ),
            min_size=1,
            max_size=5,
            unique_by=lambda group: tuple(group[0]),
        )
    )
    rows = [
        (row, target / 8)
        for row, labels in pool
        for target, mult in labels
        for _ in range(mult)
    ]
    rows = draw(st.permutations(rows))
    design = np.array([row for row, _ in rows], dtype=np.float64)
    return design, np.array([t for _, t in rows])


class TestLabelSegments:
    @settings(max_examples=60, deadline=None)
    @given(problem=noisy_labels(), constraint=st.sampled_from([UNCONSTRAINED, SIMPLEX_LIKE]))
    def test_one_lp_row_per_design_row(self, problem, constraint):
        design, targets = reach_highs_dense(*problem)
        with highs_spy() as spy:
            s = solve_l1(L1Problem(design, targets, constraint))
        assert equality_rows(spy.call_args.args[0]) == len(np.unique(design, axis=0))
        _, ref_objective = reference_l1(design, targets, constraint)
        assert s.objective == pytest.approx(ref_objective, abs=1e-7)
        assert s.duality_gap <= 1e-7


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            L1Problem(np.zeros((0, 1)), np.zeros(0))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            L1Problem(np.zeros((2, 1)), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            L1Problem(np.array([[np.nan]]), np.zeros(1))

    def test_rejects_unknown_constraint(self):
        with pytest.raises(ValueError):
            L1Problem(np.ones((1, 1)), np.zeros(1), "convex")


class TestMedianExample:
    def test_objective_is_the_mean_over_examples(self):
        # a constant feature fitted to targets 0, 0, 0 and 1 on one point:
        # the median 0, with mean absolute residual 1/4
        p = L1Problem(np.ones((1, 1)), np.array([0.0, 1.0, 0.0, 0.0]),
                      rows=np.zeros(4, dtype=np.intp))
        s = solve_l1(p)
        assert s.coefficients[0] == pytest.approx(0.0, abs=1e-9)
        assert s.objective == pytest.approx(0.25, abs=1e-9)

    def test_constant_feature_fits_median(self):
        # one constant feature, targets {0, 1, 1}: the l1-optimal constant
        # is the median 1, with mean absolute residual 1/3
        p = L1Problem(np.ones((3, 1)), np.array([0.0, 1.0, 1.0]), SIMPLEX_LIKE)
        s = solve_l1(p)
        assert s.coefficients[0] == pytest.approx(1.0, abs=1e-7)
        assert s.objective == pytest.approx(1 / 3, abs=1e-7)
        assert s.duality_gap <= 1e-7


def test_zero_targets_simplex_gives_zero():
    rng = child_rng(0, 0)
    design = rng.random((20, 4))
    s = solve_l1(L1Problem(design, np.zeros(20), SIMPLEX_LIKE))
    assert s.objective == pytest.approx(0.0, abs=1e-9)
    assert np.abs(design @ s.coefficients).max() <= 1e-7


def test_disjunction_features_exact_recovery():
    # targets are 0.3*OR_{1} + 0.6*OR_{2,3} on all points of {-1,1}^3;
    # with those same disjunctions as features the fit is exact
    masks = np.arange(8, dtype=np.uint64)
    f1 = eval_disjunction_batch(0b001, masks).astype(np.float64)
    f2 = eval_disjunction_batch(0b110, masks).astype(np.float64)
    design = np.column_stack([f1, f2])
    targets = 0.3 * f1 + 0.6 * f2
    s = solve_l1(L1Problem(design, targets, SIMPLEX_LIKE))
    assert s.coefficients == pytest.approx([0.3, 0.6], abs=1e-7)
    assert s.objective <= 1e-7


class TestInvariants:
    def _random_problem(self, seed, constraint):
        rng = child_rng(1, seed)
        m = int(rng.integers(5, 60))
        k = int(rng.integers(1, 8))
        design = rng.standard_normal((m, k))
        targets = rng.random(m)
        return L1Problem(design, targets, constraint)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("constraint", [UNCONSTRAINED, SIMPLEX_LIKE])
    def test_gap_and_constraints(self, seed, constraint):
        p = self._random_problem(seed, constraint)
        s = solve_l1(p)
        assert s.status == "optimal"
        assert s.duality_gap <= 1e-7
        if constraint == SIMPLEX_LIKE:
            assert (s.coefficients >= -1e-9).all()
            assert s.coefficients.sum() <= 1 + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_not_beaten_by_random_feasible_points(self, seed):
        p = self._random_problem(seed + 100, SIMPLEX_LIKE)
        s = solve_l1(p)
        rng = child_rng(2, seed)
        k = p.design.shape[1]
        raw = rng.random((1000, k))
        scale = rng.random((1000, 1))
        betas = raw / raw.sum(axis=1, keepdims=True) * scale
        objectives = np.abs(betas @ p.design.T - p.targets).mean(axis=1)
        assert s.objective <= objectives.min() + 1e-7

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_fit_when_target_in_span(self, seed):
        c = random_coverage(5, 4, 3, seed)
        masks = np.arange(32, dtype=np.uint64)
        cols = [
            eval_disjunction_batch(m, masks).astype(np.float64) for m in c.terms
        ]
        design = np.column_stack(cols + [np.ones(32)])
        targets = c.eval_masks(masks)
        s = solve_l1(L1Problem(design, targets, SIMPLEX_LIKE))
        assert s.objective <= 1e-7
        assert np.abs(design @ s.coefficients - targets).max() <= 1e-6


@pytest.mark.parametrize("constraint", [UNCONSTRAINED, SIMPLEX_LIKE])
def test_interior_point_above_row_threshold(constraint):
    # distinct rows past the threshold: all but reach_highs' four have
    # targets in the span of the columns, and so many rows fitted exactly
    # outweigh the four, so beta is known
    rng = child_rng(4, 0)
    design = rng.random((regression.IPM_ROW_THRESHOLD - 3, 3))
    beta = np.array([0.2, 0.3, 0.1])
    design, targets = reach_highs_dense(design, design @ beta)
    with highs_spy() as spy:
        s = solve_l1(L1Problem(design, targets, constraint))
    lp, options, _ = spy.call_args.args
    assert equality_rows(lp) == regression.IPM_ROW_THRESHOLD + 1
    assert options["solver"] == "ipm"
    assert s.duality_gap <= regression.OPT_TOL
    assert s.coefficients == pytest.approx(beta, abs=1e-7)


def linprog_l1(p):
    """solve_l1 through scipy's linprog: the same grouped LP, method, presolve
    and snap, with the gap from linprog's marginals.  Returns the
    coefficients, the mean objective, the LP's objective and the gap."""
    _, low, weight, seg_row, width, slope = regression._group_by_design_row(
        p.points, p.rows, p.targets
    )
    a_eq, a_ub = block_matrices(p)
    m, cols = a_eq.shape
    k = cols - 2 * m - len(seg_row)
    cost = np.concatenate([np.zeros(k), weight, weight, slope])
    bounds = np.zeros((cols, 2))
    bounds[:, 1] = np.inf
    bounds[k + 2 * m :, 1] = width
    b_ub = None if a_ub is None else np.array([1.0])
    if a_ub is None:
        bounds[:k, 0] = -np.inf
    res = linprog(cost, A_eq=a_eq, b_eq=low, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                  method="highs" if m <= regression.IPM_ROW_THRESHOLD else "highs-ipm",
                  options={"presolve": len(seg_row) == 0})
    assert res.status == 0
    beta = np.asarray(res.x[:k], dtype=np.float64)
    if a_ub is not None:
        beta = np.clip(beta, 0.0, None)
        beta = beta / max(beta.sum(), 1.0)
    objective = float(np.abs((p.points @ beta)[p.rows] - p.targets).mean())
    dual = float(low @ res.eqlin.marginals)
    dual += float(width @ res.upper.marginals[k + 2 * m :])
    if a_ub is not None:
        dual += float(b_ub @ res.ineqlin.marginals)
    return beta, objective, res.fun, abs(res.fun - dual)


def solve_recording_runs(p):
    """solve_l1(p) and the _Run of each HiGHS call it made."""
    runs, run = [], regression._run_highs

    def record(*args):
        runs.append(run(*args))
        return runs[-1]

    with mock.patch.object(regression, "_run_highs", record):
        return solve_l1(p), runs


CONSTRAINTS = st.sampled_from([UNCONSTRAINED, SIMPLEX_LIKE])


class TestAgainstLinprog:
    """solve_l1 hands its LP to HiGHS directly; linprog solving the same
    grouped LP is the reference it must reproduce bit for bit."""

    def check(self, p):
        s, (run,) = solve_recording_runs(p)
        beta, objective, fun, gap = linprog_l1(p)
        assert s.coefficients.dtype == beta.dtype
        assert s.coefficients.tobytes() == beta.tobytes()
        assert s.objective == objective and run.objective == fun
        assert s.duality_gap <= regression.OPT_TOL and gap <= regression.OPT_TOL

    @settings(max_examples=150, deadline=None)
    @given(problem=pooled_examples(), constraint=CONSTRAINTS)
    def test_pooled_examples(self, problem, constraint):
        points, rows, targets = reach_highs(*problem)
        self.check(L1Problem(points, targets, constraint, rows))

    @settings(max_examples=60, deadline=None)
    @given(problem=noisy_labels(), constraint=CONSTRAINTS)
    def test_noisy_labels(self, problem, constraint):
        design, targets = reach_highs_dense(*problem)
        self.check(L1Problem(design, targets, constraint))

    def test_interior_point_above_row_threshold(self):
        rng = child_rng(4, 1)
        design = rng.random((regression.IPM_ROW_THRESHOLD + 1, 3))
        self.check(L1Problem(design, rng.random(len(design)), SIMPLEX_LIKE))

    def test_options_are_those_linprog_passed(self):
        # presolve only without segment columns (linprog's options), dual
        # simplex, no output; each one a valid HiGHS option
        expected = {"presolve": "on", "simplex_strategy": 1, "output_flag": False,
                    "log_to_console": False, "highs_debug_level": 0}
        points = np.array([[1.0], [2.0]])
        plain = reach_highs(points, np.arange(2), np.array([0.25, 0.5]))
        # two points, the first with two targets
        segmented = reach_highs(points, np.array([0, 0, 1]),
                                np.array([0.25, 0.5, 0.5]))
        with highs_spy() as spy:
            for points, rows, targets in (plain, segmented):
                solve_l1(L1Problem(points, targets, rows=rows))
        (_, plain, none), (_, segmented, one) = (c.args for c in spy.call_args_list)
        assert (plain, none) == (expected, 0)
        assert (segmented, one) == (dict(expected, presolve="off"), 1)
        h = regression.highs._Highs()
        for key, value in dict(expected, solver="ipm").items():
            assert h.setOptionValue(key, value) == regression.highs.HighsStatus.kOk
            assert h.getOptionValue(key)[1] == value


class TestChecks:
    """solve_l1 refuses a HiGHS run whose solution breaks its bounds or rows,
    or whose duals leave a gap above OPT_TOL per example."""

    P = L1Problem(np.array([[1.0], [2.0]]), np.array([0.25, 1.0]), SIMPLEX_LIKE)

    def solve_with(self, change):
        run = regression._run_highs
        with mock.patch.object(
            regression, "_run_highs", lambda *args: change(run(*args))
        ):
            return solve_l1(self.P)

    def test_unchanged_run_passes(self):
        assert self.solve_with(lambda r: r).duality_gap <= regression.OPT_TOL

    @pytest.mark.parametrize(
        "change",
        [
            # a residual column below its lower bound 0
            lambda r: r._replace(col_value=np.r_[r.col_value[:1], -1e-3, r.col_value[2:]]),
            # an equality row off its target
            lambda r: r._replace(row_value=r.row_value + 1e-3),
            # the sum(beta) <= 1 row above 1
            lambda r: r._replace(row_value=np.r_[1.001, r.row_value[1:]]),
            lambda r: r._replace(col_value=np.full_like(r.col_value, np.nan)),
        ],
        ids=["column-bound", "equality-row", "simplex-row", "nan"],
    )
    def test_solution_off_its_bounds(self, change):
        with pytest.raises(LPNotOptimal, match="bounds or rows"):
            self.solve_with(change)

    @pytest.mark.parametrize(
        "change",
        [
            lambda r: r._replace(row_dual=r.row_dual + 1e-3),
            lambda r: r._replace(objective=r.objective + 1e-6),
            lambda r: r._replace(objective=np.nan),
        ],
        ids=["row-duals", "objective", "nan"],
    )
    def test_gap_above_tolerance(self, change):
        with pytest.raises(LPNotOptimal, match="duality gap"):
            self.solve_with(change)

    def test_gap_is_per_example(self):
        # a gap of 1.5e-7 over two examples is 7.5e-8 each, within OPT_TOL
        s = self.solve_with(lambda r: r._replace(objective=r.objective + 1.5e-7))
        assert s.duality_gap == pytest.approx(1.5e-7, rel=1e-6)

    def test_status_other_than_optimal(self):
        with pytest.raises(LPNotOptimal, match="Iteration limit reached"):
            self.solve_with(lambda r: r._replace(status="Iteration limit reached"))


def forced_lp(p):
    """solve_l1(p) with the median fit declined, so HiGHS solves it."""
    with mock.patch.object(regression, "_median_fit", return_value=None):
        return solve_l1(p)


def loss(p, beta):
    """The sum over p's examples of |residual| under beta."""
    return float(np.abs((p.points @ beta)[p.rows] - p.targets).sum())


@st.composite
def independent_rows(draw):
    """An unconstrained problem whose m distinct design rows, m <= k, are
    linearly independent: a unit upper-triangular block on m of the k
    columns, shuffled, plus integer entries elsewhere.  Each point carries
    one label, or with segments several, with multiplicities that often
    split a point's weight evenly.  Returns the problem and m."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, k))
    upper = np.triu(np.array(draw(st.lists(st.integers(-2, 2), min_size=m * m,
                                           max_size=m * m))).reshape(m, m), 1)
    points = np.zeros((m, k))
    cols = np.array(draw(st.permutations(range(k))))
    points[:, cols[:m]] = upper + np.eye(m)
    for j in cols[m:]:
        points[:, j] = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    segments = draw(st.booleans())
    rows, targets = [], []
    for i in range(m):
        labels = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 3)),
                               min_size=1, max_size=4 if segments else 1,
                               unique_by=lambda label: label[0]))
        for target, mult in labels:
            rows += [i] * mult
            targets += [target / 8] * mult
    order = np.array(draw(st.permutations(range(len(rows)))))
    targets, rows = np.array(targets)[order], np.array(rows)[order]
    p = L1Problem(points, targets, UNCONSTRAINED, rows)
    return p, m


class TestMedianFit:
    """A problem whose distinct design rows are independent is fitted by
    per-row weighted medians, with no HiGHS call: by least squares on the
    columns of a basis when the rows are fewer than the columns, and on all
    columns otherwise.  One with dependent or ill-conditioned rows goes to
    HiGHS, as does a tall or simplex problem whose medians no feasible beta
    reaches."""

    @settings(max_examples=200, deadline=None)
    @given(problem=independent_rows())
    def test_matches_highs(self, problem):
        p, m = problem
        with highs_spy() as spy:
            s = solve_l1(p)
        assert spy.call_count == 0
        lp = forced_lp(p)
        examples = len(p.targets)
        assert abs(s.objective - lp.objective) <= regression.OPT_TOL
        # the certificate: no beta has a loss below the bound, and the
        # median fit's loss is the bound, up to the reported gap
        _, _, weight, seg_row, width, slope = regression._group_by_design_row(
            p.points, p.rows, p.targets
        )
        bound = float(width @ (weight[seg_row] - np.abs(slope))) / 2
        assert bound <= loss(p, lp.coefficients) + 1e-9
        assert s.duality_gap == pytest.approx(abs(loss(p, s.coefficients) - bound),
                                              abs=1e-12)
        assert s.duality_gap / examples <= regression.OPT_TOL
        # a basic beta, the same on every solve
        assert np.count_nonzero(s.coefficients) <= m
        assert solve_l1(p).coefficients.tobytes() == s.coefficients.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        problem=independent_rows(),
        mix=st.lists(st.integers(-2, 2), min_size=6, max_size=6),
    )
    def test_dependent_rows_go_to_highs(self, problem, mix):
        # one more point, whose design row is a combination of the others
        # (0 included) and differs from each of them: still m <= k rows
        p, m = problem
        combo = np.array(mix[:m], dtype=np.float64) @ p.points
        assume(m < p.points.shape[1] and not (p.points == combo).all(1).any())
        points = np.vstack([p.points, combo])
        rows = np.r_[p.rows, m]
        dependent = L1Problem(points, np.r_[p.targets, 0.5], UNCONSTRAINED, rows)
        with highs_spy() as spy:
            s = solve_l1(dependent)
        assert spy.call_count == 1
        assert s.coefficients.tobytes() == forced_lp(dependent).coefficients.tobytes()

    def test_even_split_takes_the_lower_median(self):
        # one point whose targets 0.25 and 0.75 weigh 2 each: every fit in
        # [0.25, 0.75] is optimal, and the median fit takes 0.25
        p = L1Problem(np.ones((1, 1)), np.array([0.75, 0.25, 0.25, 0.75]),
                      rows=np.zeros(4, dtype=np.intp))
        with highs_spy() as spy:
            s = solve_l1(p)
        assert spy.call_count == 0
        assert s.coefficients.tolist() == [0.25]
        assert s.objective == 0.25 and s.duality_gap == 0.0

    def test_basis_is_deterministic_and_sparse(self):
        # two points, four columns of which columns 1 and 3 are a basis of
        # the largest entries: beta is 0 on the others
        points = np.array([[1.0, 2.0, 1.0, 0.0], [1.0, 0.0, 1.0, -3.0]])
        p = L1Problem(points, np.array([0.5, 0.25]))
        assert regression._basis(points).tolist() == [1, 3]
        s = solve_l1(p)
        assert s.coefficients.tolist() == [0.0, 0.25, 0.0, -1 / 12]
        assert points @ s.coefficients == pytest.approx([0.5, 0.25], abs=1e-15)

    @pytest.mark.parametrize(
        "points",
        [
            [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]],  # rank 1 on two points
            [[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0]],  # rank 2
            [[1.0, 0.0], [1.0, 1e-10]],  # condition number about 2e10
        ],
        ids=["dependent", "row-sum", "ill-conditioned"],
    )
    def test_dependent_or_ill_conditioned_rows_go_to_highs(self, points):
        points = np.array(points)
        targets = np.linspace(0.0, 1.0, len(points))
        p = L1Problem(points, targets)
        with highs_spy() as spy:
            s = solve_l1(p)
        assert spy.call_count == 1
        assert s.coefficients.tobytes() == forced_lp(p).coefficients.tobytes()

    def test_ill_conditioned_rows_with_a_fair_diagonal_go_to_highs(self):
        # the rows of a 60 x 60 Kahan matrix: R's diagonal spans a factor
        # of 64 only, but the condition number is about 2e10
        s, c = np.sin(1.2), np.cos(1.2)
        kahan = np.diag(s ** np.arange(60)) @ (
            np.eye(60) - c * np.triu(np.ones((60, 60)), 1)
        )
        p = L1Problem(kahan.T, np.linspace(0.0, 1.0, 60))
        grouping = regression._group_by_design_row(p.points, p.rows, p.targets)
        diagonal = np.abs(np.diagonal(np.linalg.qr(kahan, mode="r")))
        assert diagonal.max() / diagonal.min() < 100
        assert regression._median_fit(p, *grouping) is None
        with highs_spy() as spy:
            solve_l1(p)
        assert spy.call_count == 1

    def test_dependent_k_way_design_declines_before_elimination(self):
        # the 252 points of layer 5 at n=10 by the 386 parities of degree
        # <= 4, as a k-way release designs it: rank 210, so R's diagonal
        # declines it and no elimination step (np.outer) runs
        points = np.array([sum(1 << i for i in c)
                           for c in itertools.combinations(range(10), 5)])
        sets = np.array(sets_up_to(10, 4))
        design = parity_sign(points[:, None] & sets).astype(np.float64)
        assert design.shape == (252, 386)
        with mock.patch.object(regression.np, "outer", side_effect=AssertionError):
            assert regression._basis(design) is None

    def test_failed_certificate_goes_to_highs(self):
        # a beta off the medians by 1e-3 fails the certificate
        p = L1Problem(np.eye(2), np.array([0.25, 0.5]))
        least_squares = regression._least_squares
        with (
            mock.patch.object(regression, "_least_squares",
                              lambda a, b: least_squares(a, b) + 1e-3),
            highs_spy() as spy,
        ):
            s = solve_l1(p)
        assert spy.call_count == 1
        assert s.coefficients == pytest.approx([0.25, 0.5], abs=1e-12)

    @pytest.mark.parametrize("constraint", [UNCONSTRAINED, SIMPLEX_LIKE])
    def test_more_rows_than_columns_or_simplex_go_to_highs(self, constraint):
        # a tall or simplex problem goes to HiGHS when no feasible beta
        # puts its rows at their medians: three rows on one line that no
        # beta fits, or, under SIMPLEX_LIKE, an interpolant that sums to 1.5
        if constraint == SIMPLEX_LIKE:
            points, targets = np.eye(2), np.full(2, 0.75)
        else:
            points, targets = np.ones((3, 2)).cumsum(0), np.full(3, 0.25)
        p = L1Problem(points, targets, constraint)
        with highs_spy() as spy:
            solve_l1(p)
        assert spy.call_count == 1


@st.composite
def interpolable(draw):
    """Distinct integer points labelled by a beta >= 0 with sum(beta) <= 1,
    so the problem is realizable under either constraint.  Each point's
    value comes with a count; some points also carry other labels of a
    smaller total count (segments), which leave the value their median.
    With noise, some points take a random label instead.  Returns (points,
    rows, targets, realizable)."""
    k = draw(st.integers(1, 4))
    points = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                                    min_size=1, max_size=8, unique_by=tuple)), dtype=float)
    beta = np.array(draw(st.lists(st.integers(0, 8), min_size=k, max_size=k))) / (8 * k)
    value = points @ beta
    noisy = draw(st.booleans())
    rows, targets = [], []
    for i, y in enumerate(value):
        if noisy and draw(st.booleans()):
            y = draw(st.sampled_from(TARGETS))
        count = draw(st.integers(1, 4))
        others = draw(st.lists(st.sampled_from(TARGETS), max_size=count - 1))
        rows += [i] * (count + len(others))
        targets += [y] * count + others
    order = np.array(draw(st.permutations(range(len(rows)))))
    return points, np.array(rows)[order], np.array(targets)[order], not noisy


def median_fit(p):
    """regression._median_fit(p) on p's grouped examples."""
    return regression._median_fit(
        p, *regression._group_by_design_row(p.points, p.rows, p.targets)
    )


class TestMedianRoute:
    """Under either constraint and for any shape, solve_l1 first tries the
    weighted medians of the rows: it accepts a fit only when its loss
    reaches their bound, and HiGHS solves the rest."""

    @settings(max_examples=300, deadline=None)
    @given(
        problem=st.one_of(interpolable(), pooled_examples().map(lambda p: (*p, False))),
        constraint=CONSTRAINTS,
    )
    def test_accepted_fit_is_linprogs_optimum(self, problem, constraint):
        points, rows, targets, realizable = problem
        p = L1Problem(points, targets, constraint, rows)
        fit = median_fit(p)
        if realizable and np.linalg.matrix_rank(points) == points.shape[1]:
            # a tall design of full rank: least squares finds the labelling beta
            assert fit is not None
        if fit is None:
            return
        examples = len(targets)
        assert fit.duality_gap / examples <= regression.OPT_TOL
        _, ref_objective = reference_l1(p.design, targets, constraint)
        assert abs(fit.objective - ref_objective) <= fit.duality_gap / examples + 1e-9
        if constraint == SIMPLEX_LIKE:
            assert (fit.coefficients >= 0).all() and fit.coefficients.sum() <= 1
        distinct = len(np.unique(points[rows], axis=0))
        if distinct < points.shape[1]:
            # a basic beta, as a vertex of the LP is, under either constraint
            assert np.count_nonzero(fit.coefficients) <= distinct
        with highs_spy() as spy:
            s = solve_l1(p)
        assert spy.call_count == 0
        assert s.coefficients.tobytes() == fit.coefficients.tobytes()

    @pytest.mark.parametrize("constraint", [UNCONSTRAINED, SIMPLEX_LIKE])
    def test_declines_labels_no_beta_interpolates(self, constraint):
        # three points on a line, whose labels are not on one
        p = L1Problem(np.array([[1.0], [2.0], [3.0]]), np.array([0.25, 0.5, 0.5]),
                      constraint)
        assert median_fit(p) is None
        with highs_spy() as spy:
            s = solve_l1(p)
        assert spy.call_count == 1
        assert s.objective == pytest.approx(0.25 / 3, abs=1e-9)  # beta = 0.25

    def test_declines_a_simplex_interpolant_with_a_negative_entry(self):
        # labels on the line 0.5 - 0.25 x: the unconstrained route fits them
        # exactly; under SIMPLEX_LIKE that beta is infeasible, so HiGHS runs
        points = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        targets = np.array([0.5, 0.25, 0.0])
        free = median_fit(L1Problem(points, targets))
        assert free.coefficients == pytest.approx([0.5, -0.25], abs=1e-15)
        assert free.objective <= 1e-15
        p = L1Problem(points, targets, SIMPLEX_LIKE)
        assert median_fit(p) is None
        with highs_spy() as spy:
            s = solve_l1(p)
        assert spy.call_count == 1 and s.objective > 0.05

    def test_simplex_fit_sums_to_at_most_one(self):
        # labels of beta = 1/4 everywhere: the fit's entries, divided by
        # their sum of about 1 + 1e-16, summed to 1 + 2^-52 before the snap
        # lowered its largest entry
        points = np.array([[-2, 1, -1, -2], [-2, 1, 1, 0], [0, 0, 2, 1],
                           [1, 1, -1, -2]], dtype=np.float64)
        p = L1Problem(points, points @ np.full(4, 0.25), SIMPLEX_LIKE)
        beta = solve_l1(p).coefficients
        assert (beta >= 0).all() and beta.sum() <= 1.0
        assert beta == pytest.approx(np.full(4, 0.25), abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(st.floats(-0.5, 1.0), min_size=1, max_size=30),
        excess=st.floats(-1e-9, 2e-9),
    )
    def test_snap_to_simplex_holds_exactly(self, entries, excess):
        # beta scaled so that its positive part sums to 1 + excess
        beta = np.array(entries)
        assume(beta.max() >= 0.01)
        beta = beta / np.clip(beta, 0.0, None).sum() * (1.0 + excess)
        clipped = np.clip(beta, 0.0, None)
        total = clipped.sum()
        snapped = regression._snap_to_simplex(beta)
        if total > 1.0 + regression.CONSTRAINT_TOL:
            assert snapped is None
            return
        assert (snapped >= 0).all() and snapped.sum() <= 1.0
        if total <= 1.0:
            assert snapped.tobytes() == clipped.tobytes()
        assert snapped == pytest.approx(clipped / max(total, 1.0), rel=0, abs=4e-15)

    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_inverse_factor_matches_lapack(self, k):
        rng = child_rng(5, k)
        rows = rng.standard_normal((2 * k + 3, k))
        gram = rows.T @ rows
        c = regression._inverse_factor(gram)
        assert c.T @ c == pytest.approx(np.linalg.inv(gram), rel=1e-9, abs=1e-12)
        # a matrix that is not positive definite has a pivot <= 0
        assert regression._inverse_factor(gram - 2 * np.abs(gram).max() * np.eye(k)) is None

    def test_noiseless_fits_make_no_highs_call(self):
        # a proper fit at n=8 (the first target of acceptance test 5) and an
        # agnostic fit at n=12 whose target lies in the degree-3 parities
        proper = random_coverage(8, 5, 4, 50000)
        agnostic = random_coverage(12, 8, 3, 7)
        with highs_spy() as spy:
            h = proper_pac_learn(UniformTableOracle.from_coverage(proper), 0.3, 5, 0)
            g = agnostic_learn(UniformTableOracle.from_coverage(agnostic),
                               DistributionSpec.uniform(12), 0.5, 3)
        assert spy.call_count == 0
        assert np.abs(dense_table(h) - dense_table(proper)).mean() <= 0.3
        masks = np.arange(1 << 12, dtype=np.uint64)
        assert np.abs(g.eval_masks(masks) - dense_table(agnostic)).mean() <= 1e-12
