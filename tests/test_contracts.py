"""The paper's guarantees, checked exactly on a fixed matrix of cells.

Each row holds one algorithm's cells; each cell runs the algorithm on a
fixed list of seeds and measures every output exactly.  A cell passes when
its successes reach the one-sided binomial quantile at 1e-3 for the
guarantee's confidence, so an algorithm that meets its confidence exactly
fails a cell with probability at most 1e-3.  The seeds are fixed, so every
check is deterministic.

k-way release row: alpha_bar 0.5, n in {4, 5, 6} and every k, epsilon inf
and 1, each dataset drawn i.i.d. uniform at the admission gate's size (at
least 1,000 rows).  A release succeeds when its average error over the
length-k conjunctions is at most alpha_bar, against the exact answers, and
every release spends exactly its budget q.  Its confidence is the agnostic
learner's 2/3 times the gate's 1 - delta.  At six seeds that confidence
asks no success of a cell, so the row's releases are also pooled and held
to the quantile for their number.
"""

import math

import numpy as np
import pytest
from scipy import stats

from covlearn.cube import child_rng
from covlearn.privacy import (
    Dataset,
    all_conjunction_answers,
    gate_size,
    k_way_query_budget,
    release_k_way,
)

LEVEL = 1e-3
SEEDS = range(6)
ALPHA_BAR, DELTA = 0.5, 0.1
K_WAY_CONFIDENCE = 2.0 / 3.0 * (1.0 - DELTA)
K_WAY_CELLS = [
    (n, k, epsilon) for n in (4, 5, 6) for k in range(n + 1) for epsilon in (math.inf, 1.0)
]


def floor_successes(trials: int, confidence: float) -> int:
    """Fewest successes in `trials` that a cell needs: an algorithm that
    succeeds with probability `confidence` has fewer with probability at
    most LEVEL."""
    return int(stats.binom.ppf(LEVEL, trials, confidence))


def k_way_release(n: int, k: int, epsilon: float, seed: int) -> tuple[bool, int]:
    """(error at most alpha_bar, queries_used == q) of one k-way release."""
    q, tau = k_way_query_budget(n, ALPHA_BAR)
    size = max(1000, math.ceil(gate_size(q, tau, epsilon, DELTA)))
    d = Dataset.iid_uniform(n, size, child_rng(seed, 5))
    summary = release_k_way(d, k, ALPHA_BAR, epsilon, DELTA, seed)
    layer = np.array([m for m in range(1 << n) if m.bit_count() == k], dtype=np.uint64)
    truth = all_conjunction_answers(d)[layer]
    error = np.abs(summary.answer_masks(layer) - truth).mean()
    return bool(error <= ALPHA_BAR), summary.queries_used == q


@pytest.fixture(scope="module")
def k_way_row():
    return {
        cell: [k_way_release(*cell, seed) for seed in SEEDS] for cell in K_WAY_CELLS
    }


def test_floor_matches_the_quoted_rule():
    # 12 seeds at confidence 2/3 need 3 successes; 2 has probability 5.4e-4
    assert floor_successes(12, 2.0 / 3.0) == 3
    assert stats.binom.cdf(2, 12, 2.0 / 3.0) == pytest.approx(5.4e-4, abs=1e-5)
    assert floor_successes(len(SEEDS), K_WAY_CONFIDENCE) == 0


@pytest.mark.parametrize("cell", K_WAY_CELLS, ids=lambda c: "n{}-k{}-eps{}".format(*c))
def test_k_way_cell(k_way_row, cell):
    runs = k_way_row[cell]
    assert all(spent for _, spent in runs), "a release spent other than q queries"
    successes = sum(ok for ok, _ in runs)
    assert successes >= floor_successes(len(runs), K_WAY_CONFIDENCE)


def test_k_way_row_pooled(k_way_row):
    runs = [ok for cell in k_way_row.values() for ok, _ in cell]
    assert len(runs) == 216
    assert sum(runs) >= floor_successes(len(runs), K_WAY_CONFIDENCE)
