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

PMAC row: gamma 0.5, delta 0.2, on three targets whose small term lies
between a minus leaf's floor and a quarter of its level's maximum, and on
64 random targets (n 5-10, at most 1-4 terms of arity 1-3, total weight at
most 1), twelve seeds each.  A run succeeds when its hypothesis h meets
h <= c <= (1 + gamma) h, to the CLI check's 1e-9, on at least 1 - delta of
the cube, counted exactly.  Its confidence is 2/3.
"""

import math

import numpy as np
import pytest
from scipy import stats

from covlearn.coverage import CoverageFunction, random_coverage
from covlearn.cube import child_rng
from covlearn.learners import (
    UniformTableOracle,
    pac_learn_uniform,
    pmac_learn,
    proper_pac_learn,
    proper_size_bound,
)
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


PMAC_GAMMA, PMAC_DELTA = 0.5, 0.2
PMAC_SEEDS = range(12)
PMAC_TARGETS = [
    CoverageFunction(8, 0.0, {1: 0.064, 16: 0.606}),
    CoverageFunction(9, 0.0, {64: 0.044, 256: 0.332}),
    CoverageFunction(10, 0.0, {1: 0.093, 8: 0.157, 32: 0.478}),
] + [random_coverage(5 + i % 6, 1 + i // 6 % 4, 1 + i // 24 % 3, i) for i in range(64)]


def pmac_succeeds(c: CoverageFunction, seed: int) -> bool:
    """Whether pmac_learn's h meets the multiplicative bound on at least
    1 - delta of the cube."""
    h = pmac_learn(UniformTableOracle.from_coverage(c), PMAC_GAMMA, PMAC_DELTA, seed)
    masks = np.arange(1 << c.n, dtype=np.uint64)
    hv, cv = h.eval_masks(masks), c.eval_masks(masks)
    within = (hv <= cv + 1e-9) & (cv <= (1 + PMAC_GAMMA) * hv + 1e-9)
    return bool(within.mean() >= 1 - PMAC_DELTA)


@pytest.mark.parametrize("target", range(len(PMAC_TARGETS)))
def test_pmac_cell(target):
    c = PMAC_TARGETS[target]
    successes = sum(pmac_succeeds(c, seed) for seed in PMAC_SEEDS)
    assert successes >= floor_successes(len(PMAC_SEEDS), 2.0 / 3.0)


EPS = 0.2
PAC_SEEDS = range(12)
WIDE = {"or-all", "chain", "long-and-small"}  # a term over n - 1 or more coordinates


def pac_targets(n: int) -> dict[str, CoverageFunction]:
    full = (1 << n) - 1
    chain = {(1 << k) - 1: 1.0 / n for k in range(1, n + 1)}
    return {
        "or-all": CoverageFunction(n, 0.0, {full: 1.0}),
        "chain": CoverageFunction(n, 0.0, chain),
        "long-and-small": CoverageFunction(n, 0.0, {full ^ 1: 0.9, 1: 0.05}),
        "singletons": CoverageFunction(n, 0.0, {1 << i: 1.0 / n for i in range(n)}),
        "affine": CoverageFunction(n, 0.4, {0b11: 0.3, 1 << (n - 1): 0.3}),
        "random-4": random_coverage(n, 4, 3, n),
        "random-8": random_coverage(n, 8, 4, n + 1),
    }


PAC_CELLS = [(n, name) for n in (6, 8, 10) for name in pac_targets(n)]
PROPER_CELLS = [(n, name) for n, name in PAC_CELLS if n == 6 or name not in WIDE]


def l1_error(h, c: CoverageFunction) -> float:
    masks = np.arange(1 << c.n, dtype=np.uint64)
    return float(np.abs(h.eval_masks(masks) - c.eval_masks(masks)).mean())


@pytest.mark.parametrize("cell", PAC_CELLS, ids="n{0[0]}-{0[1]}".format)
def test_pac_cell(cell):
    c = pac_targets(cell[0])[cell[1]]
    oracle = UniformTableOracle.from_coverage(c)
    successes = sum(
        l1_error(pac_learn_uniform(oracle, EPS, seed), c) <= EPS for seed in PAC_SEEDS
    )
    assert successes >= floor_successes(len(PAC_SEEDS), 2.0 / 3.0)


def proper_succeeds(c: CoverageFunction, seed: int) -> bool:
    """Whether proper_pac_learn, told the target's term count, returns a
    coverage function within eps with at most s_eps terms."""
    h = proper_pac_learn(UniformTableOracle.from_coverage(c), EPS, c.size(), seed)
    assert isinstance(h, CoverageFunction)
    return len(h.terms) <= proper_size_bound(EPS, c.size()) and l1_error(h, c) <= EPS


@pytest.mark.parametrize("cell", PROPER_CELLS, ids="n{0[0]}-{0[1]}".format)
def test_proper_cell(cell):
    c = pac_targets(cell[0])[cell[1]]
    successes = sum(proper_succeeds(c, seed) for seed in PAC_SEEDS)
    assert successes >= floor_successes(len(PAC_SEEDS), 2.0 / 3.0)
