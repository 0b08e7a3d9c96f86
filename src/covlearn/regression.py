"""Least-absolute-error linear regression, solved as a linear program.

minimize (1/m) sum_i |sum_j beta_j phi_j(x_i) - y_i|

over coefficients beta, optionally constrained to beta >= 0 and
sum(beta) <= 1 ("simplex-like", which makes the fit a legal coverage
weighting).  Standard split-variable formulation: residuals r+ , r- >= 0
with equality rows Phi beta + r+ - r- = y and objective sum(r+ + r-).

The loss is separable by design row, so the LP has one equality row per
distinct design row (Barrodale and Roberts 1973).  One sort groups the
examples by design row.  Equal targets of a row become one target weighted
by its count.  A row with several distinct targets, as noisy private labels
give, keeps them as sorted breakpoints of its convex piecewise-linear loss,
one bounded segment column per gap between consecutive targets.  The
optimum is that of one row per example, and the primal-dual gap is in units
of the sum of |r_i| over the original rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

UNCONSTRAINED = "unconstrained"
SIMPLEX_LIKE = "simplex_like"

MAX_COLUMNS = 20000
CONSTRAINT_TOL = 1e-9
OPT_TOL = 1e-7
# above this equality-row count the interior-point method (with crossover)
# is far faster than simplex and still certifies the gap via exact duals
IPM_ROW_THRESHOLD = 10000


class LPNotOptimal(RuntimeError):
    """HiGHS stopped without a certified optimum (iteration limit, numerical
    trouble); its coefficients must not become a hypothesis."""


@dataclass(frozen=True)
class L1Problem:
    """design: rows = samples, columns = features; targets in [0,1]."""

    design: np.ndarray
    targets: np.ndarray
    constraint: str = UNCONSTRAINED

    def __post_init__(self) -> None:
        if self.design.ndim != 2 or self.design.shape[0] < 1:
            raise ValueError("design matrix needs at least one row")
        if self.design.shape[0] != len(self.targets):
            raise ValueError("row count must match target count")
        if self.design.shape[1] > MAX_COLUMNS:
            raise ValueError(
                f"{self.design.shape[1]} feature columns exceed the cap {MAX_COLUMNS}"
            )
        if not np.isfinite(self.design).all() or not np.isfinite(self.targets).all():
            raise ValueError("design and targets must be finite")
        if self.constraint not in (UNCONSTRAINED, SIMPLEX_LIKE):
            raise ValueError(f"unknown constraint flag {self.constraint!r}")


@dataclass(frozen=True)
class L1Solution:
    coefficients: np.ndarray
    objective: float  # mean absolute residual
    duality_gap: float
    status = "optimal"  # a solve that stops short raises LPNotOptimal


def _group_by_design_row(
    design: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Group the examples by design row.

    Groups come in first-occurrence order.  Within a group, equal targets
    become one target weighted by its count, and targets ascend.  Returns
    the groups' design rows, smallest targets and sizes, and for each gap
    between consecutive targets of a group: its group, its width, and its
    slope, the group's count at or below the gap minus its count above it.
    """
    m = len(targets)
    by = np.lexsort((targets, *design.T))
    ordered = design[by]
    runs = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])
    first = np.repeat(np.minimum.reduceat(by, runs), np.diff(np.r_[runs, m]))
    # stable, so targets still ascend within each group
    order = np.argsort(first, kind="stable")
    first, y = first[order], targets[by[order]]
    new = np.r_[True, first[1:] != first[:-1]]
    distinct = np.flatnonzero(new | np.r_[True, y[1:] != y[:-1]])
    w = np.diff(np.r_[distinct, m]).astype(np.float64)
    first, y, new = first[distinct], y[distinct], new[distinct]
    starts = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    weight = np.add.reduceat(w, starts)
    at_or_below = np.cumsum(w)
    at_or_below -= (at_or_below - w)[starts][group]
    gap = np.flatnonzero(~new[1:])
    return (
        design[first[starts]],
        y[starts],
        weight,
        group[gap],
        y[gap + 1] - y[gap],
        2.0 * at_or_below[gap] - weight[group[gap]],
    )


def solve_l1(p: L1Problem) -> L1Solution:
    """Solve the LP; the reported objective is within 1e-7 of the optimum,
    certified by the primal-dual gap.

    The LP has one equality row per distinct design row.  A design row with
    sorted distinct targets y_1 < ... < y_M of multiplicities w_j and total
    weight W has the row  phi.beta + a - b - sum_j z_j = y_1,  where a, b >= 0
    cost W each and the segment column z_j in [0, y_{j+1} - y_j] costs
    2 (w_1 + ... + w_j) - W: the LP's objective plus sum_j w_j (y_j - y_1) is
    the sum of |residual| over the original rows.  The gap (counting the
    segments' upper-bound duals) is in those units, and IPM_ROW_THRESHOLD
    counts equality rows.  A design row with one distinct target has no
    segment columns.  Raises LPNotOptimal when the solver stops short of an
    optimum.
    """
    rows, low, weight, seg_row, width, slope = _group_by_design_row(
        p.design, p.targets
    )
    m, k = rows.shape
    s = len(seg_row)
    phi = sp.csc_matrix(rows)
    eye = sp.identity(m, format="csc")
    seg = sp.csc_matrix((np.full(s, -1.0), (seg_row, np.arange(s))), shape=(m, s))
    a_eq = sp.hstack([phi, eye, -eye, seg], format="csc")
    cost = np.concatenate([np.zeros(k), weight, weight, slope])
    bounds = np.zeros((k + 2 * m + s, 2))
    bounds[:, 1] = np.inf
    bounds[k + 2 * m :, 1] = width
    if p.constraint == SIMPLEX_LIKE:
        a_ub = sp.hstack(
            [sp.csr_matrix(np.ones((1, k))), sp.csr_matrix((1, 2 * m + s))],
            format="csc",
        )
        b_ub = np.array([1.0])
    else:
        bounds[:k, 0] = -np.inf
        a_ub, b_ub = None, None
    res = linprog(
        cost,
        A_eq=a_eq,
        b_eq=low,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=bounds,
        method="highs" if m <= IPM_ROW_THRESHOLD else "highs-ipm",
        # a row's segment columns are parallel, and HiGHS presolve takes
        # time quadratic in their count, many times what the solve takes
        options={"presolve": s == 0},
    )
    if res.status != 0:
        raise LPNotOptimal(f"LP status {res.status}: {res.message}")

    beta = np.asarray(res.x[:k], dtype=np.float64)
    if p.constraint == SIMPLEX_LIKE:
        # snap solver-level noise so downstream invariants hold exactly
        beta = np.clip(beta, 0.0, None)
        total = beta.sum()
        if total > 1.0:
            if total > 1.0 + CONSTRAINT_TOL:
                raise RuntimeError("LP violated the simplex constraint")
            beta = beta / total
    objective = float(np.abs(p.design @ beta - p.targets).sum()) / len(p.targets)

    dual = float(low @ res.eqlin.marginals)
    if p.constraint == SIMPLEX_LIKE:
        dual += float(b_ub @ res.ineqlin.marginals)
    dual += float(width @ res.upper.marginals[k + 2 * m :])
    gap = abs(float(res.fun) - dual)
    return L1Solution(beta, objective, gap)
