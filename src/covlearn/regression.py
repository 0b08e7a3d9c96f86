"""Least-absolute-error linear regression, certified at its rows' weighted
medians or solved as a linear program.

minimize (1/m) sum_i |sum_j beta_j phi_j(x_i) - y_i|

over coefficients beta, optionally constrained to beta >= 0 and
sum(beta) <= 1 ("simplex-like", which makes the fit a legal coverage
weighting).  Standard split-variable formulation: residuals r+ , r- >= 0
with equality rows Phi beta + r+ - r- = y and objective sum (r+ + r-).

Callers draw m examples from a support that is often far smaller, so a
problem holds the design once per distinct drawn point, plus one target and
one point index per example; this module alone turns examples into LP rows.
The loss is separable by design row, so the LP has one equality row per
distinct design row (Barrodale and Roberts 1973).  A sort of the points
groups those that share a design row.  Only the examples whose target
differs from the first target of their group are sorted, with each group's
first example, so a draw whose labels are a function of the design row
sorts one example per group.  Equal targets of a row
become one target weighted by their count.  A row with several distinct
targets, as the CLI's noise_scale labels give, keeps them as sorted
breakpoints of its convex piecewise-linear loss, one bounded segment column
per gap between consecutive targets.  The optimum is that of one row per
example.

Every fit solve_l1 returns is certified (_certified): beta is feasible and
its sum of |residual| is within OPT_TOL per example of a lower bound on
every feasible beta's, the medians' bound or the LP's dual objective plus
the constant that the LP's objective leaves out.

Every fit first tries the rows' weighted medians, the LP's optimum when
the labels are realizable (Barrodale and Roberts): each distinct row takes
the weighted median of its targets, and the sum of the rows' least losses
bounds every beta's loss from below, under either constraint.  beta is
the least-squares solution on the distinct rows, solved so that its bits
do not depend on BLAS's thread count on designs of 0, 1 and -1, the only
ones covlearn builds (_least_squares), on a basis of Phi's columns when
the distinct rows are fewer than the columns (the trivial basic case) and
on all of them otherwise.  A problem whose design is ill-conditioned, or
whose medians no feasible beta reaches, as noisy labels give, goes to the
LP.

The LP goes to HiGHS (Huangfu and Hall 2018) as one model in one call,
through the binding that scipy's linprog wraps, with linprog's options and
its feasibility check but none of its Python set-up and read-back.  That
binding is loaded from its file by the first LP, so scipy.optimize's
__init__ (scipy.sparse, scipy.linalg and the rest, most of the import time)
never runs, and a process that solves no LP never imports scipy.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

HIGHS_MODULE = "scipy.optimize._highspy._core"


class _Loaded:
    """Meta path finder and loader of a module already in hand: importing
    its name then registers that very module and, as for any import, sets
    it as an attribute of its parent package."""

    def __init__(self, module) -> None:
        self.module = module

    def find_spec(self, name, path=None, target=None):
        if name != self.module.__name__:
            return None
        return importlib.machinery.ModuleSpec(name, self, origin=self.module.__file__)

    def create_module(self, spec):
        return self.module

    def exec_module(self, module) -> None:
        pass


def _load_highs():
    """The HiGHS binding that scipy's linprog calls, the extension module
    HIGHS_MODULE, loaded from its file without importing its packages.  It
    is taken from sys.modules when scipy.optimize loaded it first.
    Otherwise it is handed to the import system, which registers it when
    scipy.optimize, or anything else, imports it by name, after its parent
    packages: so a process holds one module, reachable as an attribute of
    its package, whichever of covlearn and scipy.optimize it imports first.
    scipy's folder comes from its spec, so no scipy code runs here."""
    if HIGHS_MODULE in sys.modules:
        return sys.modules[HIGHS_MODULE]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("HiGHS is scipy's extension; no scipy", name="scipy")
    folder = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(HIGHS_MODULE, [folder])
    if spec is None:
        raise ImportError(f"no HiGHS extension _core in {folder}", name=HIGHS_MODULE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.meta_path.insert(0, _Loaded(module))
    return module


# the binding, loaded by the first LP; a load that raises is not kept
_highs = functools.cache(_load_highs)


def __getattr__(name: str):
    """regression.highs, the binding, loaded when first asked for."""
    if name == "highs":
        return _highs()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


UNCONSTRAINED = "unconstrained"
SIMPLEX_LIKE = "simplex_like"

MAX_COLUMNS = 20000
CONSTRAINT_TOL = 1e-9
OPT_TOL = 1e-7
# bound and row residual linprog accepts from HiGHS: 10 sqrt(1e-9)
FEASIBILITY_TOL = 10 * np.sqrt(1e-9)
# above this equality-row count the interior-point method (with crossover)
# is far faster than simplex and still certifies the gap via exact duals
IPM_ROW_THRESHOLD = 10000
# largest spread of R's diagonal in _basis's screen of the distinct rows,
# and largest condition number of the Gram matrix the median fit solves;
# a design above either goes to the LP
MEDIAN_COND_CAP = 1e8


class LPNotOptimal(RuntimeError):
    """HiGHS stopped without a certified optimum (iteration limit, numerical
    trouble, a solution off its bounds, a beta off the simplex or a gap
    above OPT_TOL); its coefficients must not become a hypothesis."""


@dataclass(frozen=True)
class L1Problem:
    """points: one design row per distinct point, columns = features.
    Examples: targets in [0,1]; rows, each example's point index.  With no
    index, example i is point i."""

    points: np.ndarray
    targets: np.ndarray
    constraint: str = UNCONSTRAINED
    rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or min(self.points.shape[0], len(self.targets)) < 1:
            raise ValueError("design matrix needs at least one row")
        if not 1 <= self.points.shape[1] <= MAX_COLUMNS:
            raise ValueError(
                f"{self.points.shape[1]} feature columns, not 1 to {MAX_COLUMNS}"
            )
        if self.rows is None and self.points.shape[0] != len(self.targets):
            raise ValueError("row count must match target count")
        rows = np.arange(len(self.targets)) if self.rows is None else self.rows
        if rows.dtype.kind not in "iu" or rows.shape != (len(self.targets),):
            raise ValueError("rows must hold one integer point index per target")
        if not 0 <= rows.min() <= rows.max() < self.points.shape[0]:
            raise ValueError("point index out of range")
        object.__setattr__(self, "rows", rows)
        if not np.isfinite(self.points).all() or not np.isfinite(self.targets).all():
            raise ValueError("design and targets must be finite")
        if self.constraint not in (UNCONSTRAINED, SIMPLEX_LIKE):
            raise ValueError(f"unknown constraint flag {self.constraint!r}")

    @property
    def design(self) -> np.ndarray:
        """The dense design, one row per example."""
        return self.points[self.rows]


@dataclass(frozen=True)
class L1Solution:
    coefficients: np.ndarray
    objective: float  # mean absolute residual
    duality_gap: float
    status = "optimal"  # a solve that stops short raises LPNotOptimal


def _group_by_design_row(
    points: np.ndarray, rows: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Group the examples by design row.

    Points that share a design row form one group.  Groups come in order of
    their earliest example, and each takes its LP row and its first target
    from that example.  Within a group, equal targets become one target
    weighted by its count of examples, and targets ascend.  Returns the
    groups' design rows, smallest targets and counts, and for each gap
    between consecutive targets of a group: its group, its width, and its
    slope, the group's count at or below the gap minus its count above it.
    """
    m = len(targets)
    by = np.lexsort(points.T)
    ordered = points[by]
    label = np.empty(len(points), dtype=np.intp)
    label[by] = np.cumsum(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]) - 1
    label = label[rows]
    earliest = np.full(label.max() + 1, m)
    np.minimum.at(earliest, label, np.arange(m))
    rank = np.argsort(np.argsort(earliest))  # unused labels rank last
    group = rank[label]
    first = np.sort(earliest)[: np.count_nonzero(earliest < m)]
    # an example with its group's first target joins that target; only the
    # others, none when targets are a function of the design row, are
    # sorted, along with each group's first example, which carries the
    # count of its target.  The sort is by target, then stably by group: a
    # radix sort of the small group ids.  Each run of equal targets takes
    # its earliest example's target, zero sign included.
    rest = np.flatnonzero(targets != targets[first][group])
    kept = np.bincount(group) - np.bincount(group[rest], minlength=len(first))
    pick = np.concatenate([first, rest])
    w = np.concatenate([kept, np.ones(len(rest), dtype=kept.dtype)])
    by = np.argsort(targets[pick])
    ids = group[pick[by]].astype(np.min_scalar_type(len(first)))
    by = by[np.argsort(ids, kind="stable")]
    pick, w = pick[by], w[by]
    g, y = group[pick], targets[pick]
    new = (g[1:] != g[:-1]) | (y[1:] != y[:-1])
    runs = np.flatnonzero(np.concatenate([[True], new]))
    g, y = g[runs], targets[np.minimum.reduceat(pick, runs)]
    w = np.add.reduceat(w, runs).astype(np.float64)
    new = np.r_[True, g[1:] != g[:-1]]
    starts = np.flatnonzero(new)
    weight = np.add.reduceat(w, starts)
    at_or_below = np.cumsum(w)
    at_or_below -= (at_or_below - w)[starts][g]
    gap = np.flatnonzero(~new[1:])
    return (
        points[rows[first]],
        y[starts],
        weight,
        g[gap],
        y[gap + 1] - y[gap],
        2.0 * at_or_below[gap] - weight[g[gap]],
    )


class _Run(NamedTuple):
    """What one HiGHS run reports."""

    status: str  # HiGHS's model status, "Optimal" when solved
    col_value: np.ndarray
    row_value: np.ndarray
    row_dual: np.ndarray
    col_dual: np.ndarray  # reduced costs of the columns before the last ones
    upper_dual: np.ndarray  # of the last columns asked for, min(dual, 0)


def _run_highs(lp: highs.HighsLp, options: dict, bounded: int) -> _Run:
    """Solve lp once with HiGHS under the given options: the one call into
    the solver.  upper_dual holds min(dual, 0) of each of the last `bounded`
    columns: a column z in [0, width] adds width * min(dual, 0), the least
    of dual * z, to the Lagrangian dual bound, whatever the duals are.
    col_dual holds the reduced costs of the other columns, which have no
    upper bound."""
    h = _highs()._Highs()
    for key, value in options.items():
        h.setOptionValue(key, value)
    h.passModel(lp)
    h.run()
    sol = h.getSolution()
    col_dual = np.asarray(sol.col_dual)
    split = len(col_dual) - bounded
    return _Run(
        h.modelStatusToString(h.getModelStatus()),
        np.asarray(sol.col_value),
        np.asarray(sol.row_value),
        np.asarray(sol.row_dual),
        col_dual[:split],
        np.minimum(col_dual[split:], 0.0),
    )


def _within(values: np.ndarray, low: np.ndarray, high: np.ndarray) -> bool:
    """Every value within FEASIBILITY_TOL of its bounds; False on NaN."""
    tol = FEASIBILITY_TOL
    return bool(np.all((low - tol <= values) & (values <= high + tol)))


def _basis(phi: np.ndarray) -> np.ndarray | None:
    """Columns of phi, as many as its rows, that are independent when its
    rows are: Gaussian elimination with partial pivoting on phi's
    transpose.  Row by row, the pivot is the largest entry left in the row,
    the first of equal ones, and eliminating it zeroes its column.  None,
    before any elimination, when the rows are dependent: in phi.T = QR,
    R's diagonal holds each row's distance from the span of the rows
    before it, and a spread above MEDIAN_COND_CAP declines."""
    diagonal = np.abs(np.diagonal(np.linalg.qr(phi.T, mode="r")))
    if not diagonal.min() * MEDIAN_COND_CAP > diagonal.max():
        return None
    a = phi.copy()
    cols = np.empty(len(a), dtype=np.intp)
    for i, row in enumerate(a):
        j = cols[i] = np.argmax(np.abs(row))
        a[i + 1 :] -= np.outer(a[i + 1 :, j], row / row[j])
    return cols


def _inverse_factor(gram: np.ndarray) -> np.ndarray | None:
    """C with C.T @ C the inverse of a symmetric positive definite gram:
    with gram = U.T @ U, U upper triangular, C = U^-T, from Cholesky
    elimination on [gram | I], one pivot row at a time; None when a pivot
    is not positive.  Only numpy's elementwise operations touch the
    factor, so C's bits do not depend on how many threads BLAS runs."""
    k = len(gram)
    a = np.hstack([gram, np.eye(k)])
    for j in range(k):
        row = a[j, j:]  # becomes row j of U, then of C
        if not row[0] > 0:
            return None
        row /= math.sqrt(row[0])
        tail = row[1:]
        a[j + 1 :, j + 1 :] -= tail[: k - j - 1, None] * tail
    return a[:, k:]


def _least_squares(rows: np.ndarray, fit: np.ndarray) -> np.ndarray | None:
    """The least-squares solution of rows @ beta = fit, for rows no fewer
    than the columns, from the Gram matrix of the normal equations and one
    step of iterative refinement on the residual of the rows; None when the
    Gram matrix's condition number, the ratio of its extreme eigenvalues,
    exceeds MEDIAN_COND_CAP.  The other products are numpy's einsum loops,
    and the Gram matrix is one BLAS product, whose summation order can
    change with BLAS's thread count.  beta's bits do not depend on the
    thread count only because the designs covlearn builds hold 0, 1 and -1,
    whose Gram entries are exact integers in any order.  A real-valued
    design's Gram matrix can change bits with the thread count, so it must
    not come from a BLAS product."""
    gram = rows.T @ rows
    eig = np.linalg.eigvalsh(gram)
    if not (eig[0] > 0 and eig[-1] <= MEDIAN_COND_CAP * eig[0]):
        return None
    c = _inverse_factor(gram)
    if c is None:
        return None

    def step(r):  # the least-squares beta of rows @ beta = r
        r = np.einsum("ij,i->j", rows, r)
        return np.einsum("ij,i->j", c, np.einsum("ij,j->i", c, r))

    beta = step(fit)
    return beta + step(fit - np.einsum("ij,j->i", rows, beta))


def _snap_to_simplex(beta: np.ndarray) -> np.ndarray | None:
    """beta clipped at 0 and, when that sums to more than 1 but at most
    1 + CONSTRAINT_TOL, scaled to sum 1, its largest entry then lowered by
    the excess and an ulp for as long as the division leaves the sum above
    1, so that beta >= 0 and sum(beta) <= 1 hold exactly; None when the
    clipped sum is above 1 + CONSTRAINT_TOL."""
    beta = np.clip(beta, 0.0, None)
    total = beta.sum()
    if total > 1.0 + CONSTRAINT_TOL:
        return None
    if total > 1.0:
        beta /= total
        top = np.argmax(beta)
        while beta.sum() > 1.0:  # the division rounded the sum up
            beta[top] = np.nextafter(beta[top] - (beta.sum() - 1.0), 0.0)
    return beta


def _certified(p: L1Problem, beta: np.ndarray, bound: float) -> L1Solution | None:
    """The fit beta, snapped under SIMPLEX_LIKE, when its sum of |residual|
    over p's examples is within OPT_TOL per example of bound, a lower bound
    on every feasible beta's; None otherwise or when an entry of beta is
    below -FEASIBILITY_TOL under SIMPLEX_LIKE."""
    if p.constraint == SIMPLEX_LIKE:
        beta = _snap_to_simplex(beta) if beta.min() >= -FEASIBILITY_TOL else None
        if beta is None:
            return None
    residual = np.abs((p.points @ beta)[p.rows] - p.targets)
    gap = abs(float(residual.sum()) - bound)
    if not gap / len(p.targets) <= OPT_TOL:
        return None
    return L1Solution(beta, float(residual.mean()), gap)


def _median_fit(
    p: L1Problem, rows, low, weight, seg_row, width, slope
) -> L1Solution | None:
    """The l1 fit that puts every distinct design row at the weighted
    median of its targets, certified optimal, or None when no feasible beta
    found here reaches the medians.

    A row's median is its smallest target plus the width of each gap whose
    slope is negative; where the weight splits evenly (a gap of slope 0) it
    is the lower end of that gap.  beta is the least-squares solution on
    the distinct rows, under either constraint: on all columns when the
    rows are no fewer, and otherwise on the columns _basis picks, with 0 on
    the others, so that beta has at most as many nonzeros as rows, as a
    vertex of the LP has.  Dependent or ill-conditioned rows decline.

    A row's loss is at least the sum over its gaps of width * min(count
    below, count above) = width * (W - |slope|) / 2 whatever beta is, so the
    sum of those bounds the optimum from below under either constraint, and
    _certified holds beta to it: a beta that missed a median, as when the
    medians are not interpolable, declines.
    """
    fit = low + np.bincount(seg_row, width * (slope < 0), minlength=len(low))
    k = rows.shape[1]
    cols = _basis(rows) if len(rows) < k else slice(None)
    solved = None if cols is None else _least_squares(rows[:, cols], fit)
    if solved is None:
        return None
    beta = np.zeros(k)
    beta[cols] = solved
    return _certified(p, beta, float(width @ (weight[seg_row] - np.abs(slope))) / 2)


def solve_l1(p: L1Problem) -> L1Solution:
    """Solve the l1 fit by the rows' weighted medians (_median_fit) or,
    when that declines, by the LP with HiGHS; either route returns through
    _certified, so the reported objective is within OPT_TOL of the optimum.

    The median fit is tried first on every problem, under either constraint
    and for any shape; it never raises LPNotOptimal, and when no feasible
    beta it finds reaches the medians' bound, the LP below solves the
    problem.

    The LP has one equality row per distinct design row.  A design row with
    sorted distinct targets y_1 < ... < y_M, each the target of w_j examples,
    W in all, has the row  phi.beta + a - b - sum_j z_j = y_1,  where a, b >= 0
    cost W each and the segment column z_j in [0, y_{j+1} - y_j] costs
    2 (w_1 + ... + w_j) - W: the LP's objective plus sum_j w_j (y_j - y_1) is
    the sum of |residual| over the examples, and the Lagrangian bound of
    HiGHS's duals, valid whatever their signs, plus that constant is the LP
    route's bound.  IPM_ROW_THRESHOLD counts equality rows.  A design row
    with one distinct target has no segment columns.  Under SIMPLEX_LIKE the row
    sum(beta) <= 1 comes first.  Raises LPNotOptimal when HiGHS stops short
    of an optimum, when its solution is off its bounds or rows by more than
    FEASIBILITY_TOL, or when _certified declines its beta.
    """
    rows, low, weight, seg_row, width, slope = _group_by_design_row(
        p.points, p.rows, p.targets
    )
    fit = _median_fit(p, rows, low, weight, seg_row, width, slope)
    if fit is not None:
        return fit
    m, k = rows.shape
    s = len(seg_row)
    cols = k + 2 * m + s
    simplex = p.constraint == SIMPLEX_LIKE
    lead = int(simplex)  # the sum(beta) <= 1 row
    # A = [[1 | 0 | 0 | 0], [Phi | I | -I | seg]] as CSC arrays, column by
    # column, with the first row only under SIMPLEX_LIKE
    phi = np.vstack([np.ones((lead, k)), rows]).T
    nz = phi != 0
    eq = np.arange(lead, m + lead)
    data = np.concatenate([phi[nz], np.ones(m), np.full(m + s, -1.0)])
    index = np.concatenate([np.nonzero(nz)[1], eq, eq, seg_row + lead])
    start = np.r_[0, np.cumsum(nz.sum(axis=1)), nz.sum() + np.arange(1, cols - k + 1)]
    lower = np.zeros(cols)
    if not simplex:
        lower[:k] = -np.inf
    upper = np.full(cols, np.inf)
    upper[k + 2 * m :] = width
    row_lower = np.r_[np.full(lead, -np.inf), low]
    row_upper = np.r_[np.ones(lead), low]

    highs = _highs()
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cols
    lp.num_row_ = lp.a_matrix_.num_row_ = m + lead
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = data
    lp.col_cost_ = np.concatenate([np.zeros(k), weight, weight, slope])
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    options = {
        # a row's segment columns are parallel, and HiGHS presolve takes
        # time quadratic in their count, many times what the solve takes
        "presolve": "on" if s == 0 else "off",
        "simplex_strategy": 1,  # dual simplex
        "output_flag": False,
        "log_to_console": False,
        "highs_debug_level": 0,
    }
    if m > IPM_ROW_THRESHOLD:
        options["solver"] = "ipm"
    run = _run_highs(lp, options, s)
    if run.status != "Optimal":
        raise LPNotOptimal(f"HiGHS model status: {run.status}")
    if not (
        _within(run.col_value, lower, upper)
        and _within(run.row_value, row_lower, row_upper)
    ):
        raise LPNotOptimal(
            f"HiGHS solution off its bounds or rows by more than {FEASIBILITY_TOL:.2e}"
        )

    # the Lagrangian bound of HiGHS's duals plus the constant sum_j w_j
    # (y_j - y_1) that the LP's objective leaves out bounds every beta's sum
    # of |residual|, whatever the duals' signs.  The sum(beta) <= 1 row's
    # dual counts only when <= 0 (taking it as 0 only raises beta's reduced
    # costs), and a column with no upper bound whose reduced cost has the
    # wrong sign (< 0, or != 0 for a free beta) beyond FEASIBILITY_TOL, or
    # is NaN, makes the bound minus infinity.
    dual = float(low @ run.row_dual[lead:])
    if simplex:
        dual += min(float(run.row_dual[0]), 0.0)
    dual += float(width @ run.upper_dual)
    reduced = run.col_dual.copy()
    if not simplex:
        reduced[:k] = -np.abs(reduced[:k])
    if not np.all(reduced >= -FEASIBILITY_TOL):
        dual = -math.inf
    offset = float(width @ (weight[seg_row] - slope)) / 2
    fit = _certified(p, run.col_value[:k], dual + offset)
    if fit is None:
        raise LPNotOptimal(
            f"duality gap of HiGHS's beta above {OPT_TOL:g} per example,"
            " or the beta off the simplex"
        )
    return fit
