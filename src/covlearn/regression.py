"""Least-absolute-error linear regression, solved as a linear program.

minimize (1/m) sum_i |sum_j beta_j phi_j(x_i) - y_i|

over coefficients beta, optionally constrained to beta >= 0 and
sum(beta) <= 1 ("simplex-like", which makes the fit a legal coverage
weighting).  Standard split-variable formulation: residuals r+ , r- >= 0
with equality rows Phi beta + r+ - r- = y and objective sum(r+ + r-).

Examples drawn from a noiseless oracle repeat, so rows that share the same
(design row, target) are merged into one LP row whose residual pair costs
its multiplicity: the weighted LP has the same optimum and the same
objective, sum over the original rows of |r_i|, so its primal-dual gap is
in those units too.  When every row is distinct the LP is the plain one.
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
# above this distinct-row count the interior-point method (with crossover)
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
    status: str

    def __post_init__(self) -> None:
        if self.status not in ("optimal", "iteration_limit", "failed"):
            raise ValueError(f"unknown status {self.status!r}")


def _collapse_rows(
    design: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (design row, target) pairs in first-occurrence order, with
    their multiplicities.  When every row is distinct the caller's arrays
    come back uncopied."""
    m, k = design.shape
    pairs = np.ascontiguousarray(np.column_stack([design, targets]))
    keys = pairs.view(np.dtype((np.void, pairs.itemsize * (k + 1)))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    if len(first) == m:
        return design, targets, np.ones(m)
    order = np.argsort(first)
    rows = first[order]
    return design[rows], targets[rows], counts[order].astype(np.float64)


def solve_l1(p: L1Problem) -> L1Solution:
    """Solve the LP; the reported objective is within 1e-7 of the optimum,
    certified by the primal-dual gap.

    Repeated (design row, target) pairs become one LP row weighted by its
    multiplicity, so the gap is in units of the sum of |residual| over the
    original rows, and IPM_ROW_THRESHOLD counts distinct rows.  Raises
    LPNotOptimal when the solver stops short of an optimum.
    """
    design, targets, weights = _collapse_rows(p.design, p.targets)
    m, k = design.shape
    phi = sp.csc_matrix(design)
    eye = sp.identity(m, format="csc")
    a_eq = sp.hstack([phi, eye, -eye], format="csc")
    cost = np.concatenate([np.zeros(k), weights, weights])
    if p.constraint == SIMPLEX_LIKE:
        bounds = [(0, None)] * (k + 2 * m)
        a_ub = sp.hstack(
            [sp.csr_matrix(np.ones((1, k))), sp.csr_matrix((1, 2 * m))], format="csc"
        )
        b_ub = np.array([1.0])
    else:
        bounds = [(None, None)] * k + [(0, None)] * (2 * m)
        a_ub, b_ub = None, None
    res = linprog(
        cost,
        A_eq=a_eq,
        b_eq=targets,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=bounds,
        method="highs" if m <= IPM_ROW_THRESHOLD else "highs-ipm",
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

    dual = float(targets @ res.eqlin.marginals)
    if p.constraint == SIMPLEX_LIKE:
        dual += float(b_ub @ res.ineqlin.marginals)
    gap = abs(float(res.fun) - dual)
    return L1Solution(beta, objective, gap, "optimal")
