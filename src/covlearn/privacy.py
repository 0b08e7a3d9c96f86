"""Differentially private release of monotone conjunction counting queries.

A dataset induces the coverage function c_D(x) = 1 - CQ_D(AND over S_x),
where S_x is the set of coordinates at which x is -1.  The release
algorithms learn c_D through a budgeted, Laplace-noised counting-query
oracle and publish a summary: a sparse Fourier polynomial (all marginals),
a layered polynomial (k-way marginals), or a synthetic dataset whose own
counting queries reproduce the learned hypothesis exactly.

Each release runs one of the learners' own statistical-query stages against
that oracle: Fourier coefficients come from coefficient sources that ask one
query batch per call, and a regression stage draws its examples from a
learners.SampledOracle whose labels are 1 - private AND-query answers.

Privacy model: each counting query has sensitivity 1/|D|; adding Laplace
noise of scale b = q/(epsilon * |D|) to each of at most q queries makes the
whole transcript epsilon-differentially private by basic composition.  An
answer may stand for w queries: it gets noise of scale b/w, and by the
Laplace mechanism it costs w * epsilon / q, the same as w answers of scale
b (Dwork, McSherry, Nissim and Smith 2006; basic composition, Dwork and
Roth 2014, Thm 3.16), so it is charged w units of the budget.  The weights
a release uses are the multiplicities of points it drew from a fixed
distribution, independent of the dataset.  Admission requires
|D| >= q (ln q + ln(1/delta)) / (epsilon * tau) so that, with probability
1 - delta, every noisy answer is within the tolerance tau that the
simulated learner needs; a weighted answer's noise is no wider than b, so
this covers it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .coverage import MAX_DENSE_N, CoverageFunction
from .cube import MAX_COMPACT_N, DistributionSpec, cell_index, child_rng, group_points
from .estimation import CoeffSource, check_masks
from .learners import (
    SampledOracle,
    SparsePolynomial,
    agnostic_learn,
    agnostic_samples,
    pac_core,
    proper_pac_core,
    proper_regression_samples,
    proper_size_bound,
    search_thresholds,
)

Predicate = Callable[[np.ndarray], np.ndarray]


class GateRefused(RuntimeError):
    """Dataset too small for the private simulation."""

    def __init__(self, size: int, required: float):
        super().__init__(
            f"dataset of size {size} is below the required size {required:.0f} "
            "for private simulation"
        )
        self.required = required


class BudgetExhausted(RuntimeError):
    """The private oracle refused a query beyond its budget."""


@dataclass(frozen=True)
class Dataset:
    """Multiset of cube points, stored as distinct masks with multiplicities
    so that datasets far larger than memory are exact."""

    n: int
    masks: np.ndarray
    mults: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.masks) != len(self.mults):
            raise ValueError("masks and multiplicities must have equal length")
        check_masks(self.masks, self.n)
        ordered = np.sort(self.masks)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("masks must be distinct")
        if (self.mults < 1).any():
            raise ValueError("multiplicities must be >= 1")

    @classmethod
    def from_points(cls, masks: Iterable[int], n: int) -> "Dataset":
        if n > MAX_COMPACT_N:
            raise ValueError(f"point width {n} is over the cap of {MAX_COMPACT_N}")
        arr = np.asarray(list(masks), dtype=np.uint64)
        uniq, counts = np.unique(arr, return_counts=True)
        return cls(n, uniq, counts.astype(np.int64))

    @classmethod
    def from_multiplicities(
        cls, pairs: Iterable[tuple[int, int]], n: int
    ) -> "Dataset":
        pairs = [(m, c) for m, c in pairs if c > 0]
        masks = np.asarray([m for m, _ in pairs], dtype=np.uint64)
        mults = np.asarray([c for _, c in pairs], dtype=np.int64)
        return cls(n, masks, mults)

    @classmethod
    def iid_uniform(cls, n: int, size: int, rng: np.random.Generator) -> "Dataset":
        """Exact i.i.d. uniform dataset of any size below 2^63 via cell counts."""
        if n > MAX_DENSE_N:
            raise ValueError(
                f"aggregated uniform sampling supports n <= {MAX_DENSE_N}"
            )
        if not 0 <= size < 1 << 63:
            raise ValueError(f"dataset size {size} is outside [0, 2^63)")
        counts = rng.multinomial(size, np.full(1 << n, 2.0**-n))
        nz = counts.nonzero()[0]
        return cls(n, nz.astype(np.uint64), counts[nz].astype(np.int64))

    @cached_property
    def size(self) -> int:
        # read by every exact counting query and by the noise scale
        return int(self.mults.sum())

    def is_empty(self) -> bool:
        return len(self.masks) == 0


def and_query(set_mask: int) -> Predicate:
    """AND over S: 1 iff every coordinate of S is -1.  The empty conjunction
    is constant 1."""
    s = np.uint64(set_mask)

    def predicate(masks: np.ndarray) -> np.ndarray:
        return ((masks & s) == s).astype(np.float64)

    return predicate


def counting_query(d: Dataset, predicate: Predicate) -> float:
    """Exact counting query: multiplicity-weighted average of the predicate
    (a vectorized map from point masks to values in [0,1])."""
    if d.is_empty():
        raise ValueError("counting query on an empty dataset")
    vals = np.asarray(predicate(d.masks), dtype=np.float64)
    return float(d.mults @ vals) / d.size


def coverage_of_dataset(d: Dataset) -> CoverageFunction:
    """c_D = sum over z in D of (1/|D|) OR over the +1-coordinates of z.

    A point with all coordinates -1 contributes the empty disjunction,
    identically 0, so it adds nothing; then c_D(x) = 1 - CQ_D(AND over S_x)
    pointwise.  An empty dataset gives the zero function.
    """
    full = (1 << d.n) - 1
    size = d.size
    terms: dict[int, float] = {}
    for mask, mult in zip(d.masks, d.mults):
        s = int(~mask) & full
        if s:
            terms[s] = terms.get(s, 0.0) + int(mult) / size
    return CoverageFunction(d.n, 0.0, terms)


def all_conjunction_answers(d: Dataset) -> np.ndarray:
    """Exact counting-query answers for every monotone conjunction at once.

    Returns a length-2^n array indexed by set mask: entry S is the fraction
    of dataset rows z with S contained in the -1-coordinates of z, computed
    by a superset-sum transform (n <= MAX_DENSE_N).
    """
    if d.n > MAX_DENSE_N:
        raise ValueError(f"dense conjunction table needs n <= {MAX_DENSE_N}")
    if d.is_empty():
        raise ValueError("counting query on an empty dataset")
    table = np.zeros(1 << d.n, dtype=np.float64)
    table[cell_index(d.masks)] = d.mults
    for bit in range(d.n):
        t = table.reshape(-1, 2 << bit)
        t[:, : 1 << bit] += t[:, 1 << bit :]
    return table / d.size


def gate_size(q: int, tau: float, epsilon: float, delta: float) -> float:
    """Minimum dataset size admitted for q tau-tolerant queries."""
    if math.isinf(epsilon):
        return 0.0
    return q * (math.log(q) + math.log(1.0 / delta)) / (epsilon * tau)


@dataclass
class PrivateOracle:
    """Budgeted Laplace-noised counting-query gate.

    The queries-used counter is the only mutable state in the package.
    Each answer has its own Laplace draw.  An answer of weight w stands for
    w queries: its noise has scale b/w and it is charged w units, which
    spends exactly the privacy of w answers of scale b.  The weights must
    not depend on the dataset; a release's come from its own point draws.
    """

    dataset: Dataset
    q: int
    tau: float
    epsilon: float
    delta: float
    rng: np.random.Generator
    used: int = 0
    # audit draws come from a stream spawned off rng on first use, so an
    # audit leaves the query noise, and with it every release, unchanged
    _audit_rng: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.q < 1 or self.tau <= 0 or not 0 < self.delta < 1:
            raise ValueError("need q >= 1, tau > 0, delta in (0,1)")
        if not self.epsilon > 0:  # NaN fails too; inf is the noiseless limit
            raise ValueError("privacy epsilon must be positive")
        required = gate_size(self.q, self.tau, self.epsilon, self.delta)
        if self.dataset.size < required:
            raise GateRefused(self.dataset.size, required)

    @property
    def scale(self) -> float:
        if math.isinf(self.epsilon):
            return 0.0
        return self.q / (self.epsilon * self.dataset.size)

    def noise(self, count: int = 1) -> np.ndarray:
        """Draws from the query noise distribution, for auditing; they come
        from their own stream and do not shift later query noise."""
        if self._audit_rng is None:
            self._audit_rng = self.rng.spawn(1)[0]
        if self.scale == 0.0:
            return np.zeros(count)
        return self._audit_rng.laplace(0.0, self.scale, size=count)

    def query(
        self, predicates: Sequence[Predicate], weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Noised answers, one per predicate: answer j stands for weights[j]
        queries (default 1 each), so its Laplace noise has scale b/weights[j]
        and it is charged weights[j] units.  Bad weights, or a batch over the
        remaining budget, raise before any budget is charged or noise
        drawn."""
        count = len(predicates)
        w = np.ones(count) if weights is None else _check_weights(weights, count)
        m = int(w.sum())
        if self.used + m > self.q:
            raise BudgetExhausted(
                f"{m} queries exceed the remaining budget of {self.q - self.used}"
            )
        exact = np.array([counting_query(self.dataset, p) for p in predicates])
        self.used += m
        noise = self.rng.laplace(0.0, self.scale / w) if self.scale else 0.0
        return np.clip(exact + noise, 0.0, 1.0)


def _check_weights(weights: np.ndarray, count: int) -> np.ndarray:
    """weights as float64 after checking they are one positive integer per
    predicate."""
    arr = np.asarray(weights)
    if arr.shape != (count,):
        raise ValueError(f"weights of shape {arr.shape} for {count} predicates")
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"weights of dtype {arr.dtype} are not numbers")
    w = arr.astype(np.float64)
    if not (np.isfinite(w) & (w >= 1) & (w == np.floor(w))).all():
        raise ValueError("weights must be positive integers")
    return w


def _fourier_predicate(d: Dataset, t_mask: int) -> Predicate:
    """F_T(z) = (1 + h(T)) / 2 where h is the Fourier coefficient of the
    disjunction contributed by z, computed analytically."""
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


def _private_coeff_source(oracle: PrivateOracle) -> CoeffSource:
    """Fourier coefficients of c_D through private counting queries:
    coefficient = 2 * query(F_T) - 1, one query batch per call."""
    d = oracle.dataset

    def source(masks: np.ndarray) -> np.ndarray:
        predicates = [_fourier_predicate(d, int(t)) for t in check_masks(masks, d.n)]
        return 2.0 * oracle.query(predicates) - 1.0

    return source


def _private_examples(oracle: PrivateOracle, dist: DistributionSpec) -> SampledOracle:
    """Example oracle for the regression stage of a release: points drawn
    from dist, labelled for c_D as 1 - private answer to AND over S_x, one
    query batch per draw.  A point drawn w times gets one answer of weight
    w, shared by its w examples; the points are asked in ascending order."""

    def labels(masks: np.ndarray, rng) -> np.ndarray:
        points, rows, counts = group_points(masks, dist.n)
        return 1.0 - oracle.query([and_query(int(s)) for s in points], counts)[rows]

    return SampledOracle(dist, labels)


@dataclass(frozen=True)
class ReleaseSummary:
    """Published summary answering monotone conjunction counting queries.

    variant "fourier" or "polynomial": answers are clamp(1 - h(x)) for the
    stored polynomial h, and no synthetic dataset rides along.  variant
    "synthetic": answers are 1 - c_S(x) for the stored synthetic dataset S
    and no polynomial; an empty S has the zero coverage function, so it
    answers every query with 1.
    """

    variant: str
    n: int
    alpha_bar: float
    epsilon: float
    delta: float
    queries_used: int
    dataset_size: int
    poly: SparsePolynomial | None = None
    synthetic: Dataset | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("fourier", "polynomial", "synthetic"):
            raise ValueError(f"unknown summary variant {self.variant!r}")
        syn = self.variant == "synthetic"
        if isinstance(self.synthetic, Dataset) != syn or (self.poly is None) != syn:
            need = "a synthetic dataset" if syn else "a poly"
            raise ValueError(f"a {self.variant} summary needs {need} and nothing else")
        data = self.synthetic if syn else self.poly
        if data.n != self.n:
            raise ValueError(f"a summary on n={self.n} holds data on n={data.n}")
        if self.queries_used < 0 or self.dataset_size < 0:
            raise ValueError("queries_used and dataset_size must be >= 0")

    @classmethod
    def from_oracle(
        cls,
        variant: str,
        oracle: PrivateOracle,
        alpha_bar: float,
        *,
        poly: SparsePolynomial | None = None,
        synthetic: Dataset | None = None,
    ) -> "ReleaseSummary":
        """Stamps a release with the ledger of the oracle that answered it."""
        d = oracle.dataset
        ledger = (oracle.epsilon, oracle.delta, oracle.used, d.size)
        return cls(variant, d.n, alpha_bar, *ledger, poly=poly, synthetic=synthetic)

    def answer_masks(self, x_masks: np.ndarray) -> np.ndarray:
        """Answers to the conjunction queries AND over S_x, one per mask."""
        x_masks = np.asarray(x_masks, dtype=np.uint64)
        if self.variant == "synthetic":
            return 1.0 - coverage_of_dataset(self.synthetic).eval_masks(x_masks)
        return np.clip(1.0 - self.poly.eval_masks(x_masks), 0.0, 1.0)


def _release_oracle(
    d: Dataset, alpha_bar: float, budget: Callable[[int, float], tuple[int, float]],
    epsilon: float, delta: float, seed: int,
) -> PrivateOracle:
    """The private oracle a release asks: (q, tau) = budget(d.n, alpha_bar),
    noise drawn on child_rng(seed, 0)."""
    if not 0 < alpha_bar < 1:
        raise ValueError("alpha_bar must lie in (0,1)")
    q, tau = budget(d.n, alpha_bar)
    return PrivateOracle(d, q, tau, epsilon, delta, child_rng(seed, 0))


def marginals_query_budget(n: int, alpha_bar: float) -> tuple[int, float]:
    """(q, tau) for the all-marginals release: a query per set pac_core asks."""
    t = search_thresholds(alpha_bar, None)
    return t.family(n)[0], t.tolerance / 2.0


def release_all_marginals(
    d: Dataset, alpha_bar: float, epsilon: float, delta: float, seed: int
) -> ReleaseSummary:
    """Private release answering all monotone conjunction queries with
    average error alpha_bar over the uniform query distribution."""
    oracle = _release_oracle(d, alpha_bar, marginals_query_budget, epsilon, delta, seed)
    source = _private_coeff_source(oracle)
    poly = pac_core(d.n, alpha_bar, source, lambda pool: source)
    return ReleaseSummary.from_oracle("fourier", oracle, alpha_bar, poly=poly)


def k_way_query_budget(n: int, alpha_bar: float) -> tuple[int, float]:
    """(q, tau) for the k-way release: a query per example agnostic_learn draws."""
    return agnostic_samples(n, alpha_bar / 2.0, 1), alpha_bar / 4.0


def release_k_way(
    d: Dataset, k: int, alpha_bar: float, epsilon: float, delta: float, seed: int
) -> ReleaseSummary:
    """Private release answering length-k conjunction queries with average
    error alpha_bar over the uniform distribution on length-k conjunctions."""
    if not 0 <= k <= d.n:
        raise ValueError("k must lie in 0..n")
    oracle = _release_oracle(d, alpha_bar, k_way_query_budget, epsilon, delta, seed)
    dist = DistributionSpec.layer(d.n, k)
    poly = agnostic_learn(_private_examples(oracle, dist), dist, alpha_bar / 2.0, seed)
    return ReleaseSummary.from_oracle("polynomial", oracle, alpha_bar, poly=poly)


def synthetic_query_budget(
    n: int, alpha_bar: float, size_bound: float
) -> tuple[int, float]:
    """(q, tau) for the synthetic release: a query per set proper_pac_core's
    search asks and per example its regression on every set kept draws."""
    eps_l = alpha_bar / 2.0
    t = search_thresholds(eps_l, proper_size_bound(eps_l, size_bound))
    asked, kept = t.family(n)
    q = asked + proper_regression_samples(eps_l, kept)
    return q, min(t.tolerance / 2.0, alpha_bar / 8.0)


def release_synthetic(
    d: Dataset,
    alpha_bar: float,
    epsilon: float,
    delta: float,
    seed: int,
    size_bound: float = math.inf,
) -> ReleaseSummary:
    """Private synthetic-dataset release: answers all monotone conjunction
    queries with average error alpha_bar over the uniform distribution.

    size_bound is an a-priori bound on the number of distinct disjunction
    terms of c_D (fewer distinct dataset rows means a smaller bound and a
    laxer admission gate); pass math.inf when unknown.
    """
    budget = lambda n, a: synthetic_query_budget(n, a, size_bound)
    oracle = _release_oracle(d, alpha_bar, budget, epsilon, delta, seed)
    eps_l = alpha_bar / 2.0
    s_eps = proper_size_bound(eps_l, size_bound)
    source = _private_coeff_source(oracle)
    examples = _private_examples(oracle, DistributionSpec.uniform(d.n))
    hypothesis = proper_pac_core(
        d.n, eps_l, s_eps, source, lambda pool: source, examples, child_rng(seed, 1)
    )
    synthetic = synthesize_dataset(hypothesis, alpha_bar)
    return ReleaseSummary.from_oracle(
        "synthetic", oracle, alpha_bar, synthetic=synthetic
    )


def synthesize_dataset(h: CoverageFunction, alpha_bar: float) -> Dataset:
    """Rounds a coverage hypothesis onto the grid alpha_bar/(4t) and emits
    the dataset whose coverage function equals the rounded hypothesis
    exactly.

    Each term OR_S becomes copies of the point that is +1 exactly on S; the
    affine weight rides on the all-(+1) point as OR over all coordinates,
    off by at most 2^-n in l1.  Padding with all-(-1) points (which
    contribute the identically-zero empty disjunction) fixes the denominator
    so the identity is exact rather than proportional.  When no weight
    reaches a grid step the result is the empty dataset, whose coverage
    function is zero.
    """
    full = (1 << h.n) - 1
    terms = [(s, w) for s, w in h.terms.items() if w > 0.0]
    if h.affine > 0.0:
        merged = dict(terms)
        merged[full] = merged.get(full, 0.0) + h.affine
        terms = list(merged.items())
    denom = math.ceil(4 * len(terms) / alpha_bar)
    pairs = [(full & ~s, math.floor(w * denom)) for s, w in terms]
    total = sum(c for _, c in pairs)
    if 0 < total < denom:
        # all-(-1) padding adds 0 to the coverage; no term row is all-(-1)
        pairs.append((full, denom - total))
    return Dataset.from_multiplicities(pairs, h.n)
