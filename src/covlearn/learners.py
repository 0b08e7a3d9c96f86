"""Learning algorithms for coverage functions.

Implemented learners, all from uniform or specified-distribution examples:

- pac_learn_uniform: sparse-polynomial hypothesis with l1 error eps.
- pmac_learn: multiplicative (1+gamma) approximation on 1-delta mass.
- proper_pac_learn: hypothesis is itself a coverage function.
- agnostic_learn: excess l1 error eps against the best coverage fit, for
  product and symmetric distributions.
- proper_agnostic_learn: agnostic and proper, for bounded product
  distributions.
- dnf_reduction_learn: learns disjoint DNFs through the coordinate-doubling
  reduction to coverage learning.

Nominal sample counts can be astronomically large at small accuracy
parameters.  When the example oracle is backed by a dense value table over
the (sub)cube (n up to ~24), drawing N uniform examples is simulated exactly
by a multinomial draw of per-cell counts, and the Fourier estimates come
from the Walsh-Hadamard transform of the weighted counts.  This is
distribution-identical to drawing the N examples one by one.  One such
sample serves both the singleton screen and the lattice search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from collections.abc import Mapping
from types import MappingProxyType
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import cube
from .coverage import (
    MAX_DENSE_N, WEIGHT_TOL, CoverageFunction, dense_table, walsh_hadamard
)
from .cube import (
    MAX_COMPACT_N,
    DistributionSpec,
    IndexSet,
    cell_index,
    child_rng,
    child_seed,
    eval_disjunction_batch,
    eval_parity_batch,
    group_points,
)
from .estimation import (
    CoeffSource,
    batch_source,
    check_masks,
    hoeffding_samples,
    lattice_search,
    spectrum_from_counts,
    spectrum_source,
)
from .regression import MAX_COLUMNS, SIMPLEX_LIKE, UNCONSTRAINED, L1Problem, solve_l1

# Centralized algorithm constants.  Accuracy/confidence parameters flow in
# from callers; these are the fixed numeric choices of the implementation.
PAC_THETA_DIV = 6  # theta = eps^2 / 6
PAC_SEARCH_FAILURE = 1 / 3  # default failure of a PAC run's one search sample
PROPER_THETA_DIV = 108  # theta = eps^2 / 108
PROPER_PHASE_FAILURE = 1 / 9  # screen and search 2/9 on one sample, regression 1/9
PMAC_ETA_NUM = 1 / 18  # eta = (1/18) / log2(3/delta)
REGRESSION_SAMPLE_FACTOR = 64  # m = ceil(64 * features / eps^2)
MEMORY_CAP = 1 << 30  # bytes: a float64 design, or 16 per drawn (mask, label)
DENSE_EVAL_SUPPORT = 256  # polynomial support above which dense eval may be used


class OracleExhausted(RuntimeError):
    """The example oracle cannot supply the requested sample."""


class BasisTooLarge(ValueError):
    """Feature basis exceeds the documented column cap."""


class DesignTooLarge(ValueError):
    """Regression design exceeds the documented byte cap."""


# --------------------------------------------------------------------------
# Hypothesis representations


class Coefficients(Mapping):
    """A polynomial's coefficients as two read-only arrays, masks (distinct
    and ascending, uint64) and values (float64), seen as a read-only mapping
    from set mask to value.  Built from a mapping or a (masks, values) pair
    in any order; a mask outside [0, 2^n) or a repeated one is refused."""

    def __init__(self, n: int, coeffs) -> None:
        if isinstance(coeffs, Coefficients):
            coeffs = coeffs.masks, coeffs.values
        elif isinstance(coeffs, Mapping):
            coeffs = list(coeffs), list(coeffs.values())
        masks, values = check_masks(coeffs[0], n), np.asarray(coeffs[1], dtype=float)
        if masks.ndim != 1 or masks.shape != values.shape:
            raise ValueError("masks and values must be 1-d and of equal length")
        order = np.argsort(masks, kind="stable")
        self.masks, self.values = masks[order], values[order]
        if (self.masks[1:] == self.masks[:-1]).any():
            raise ValueError("a set mask is repeated")
        self.masks.flags.writeable = self.values.flags.writeable = False

    def __getitem__(self, mask) -> float:
        i = np.searchsorted(self.masks, mask) if 0 <= mask < 1 << 64 else 0
        if i < len(self.masks) and self.masks[i] == mask:
            return float(self.values[i])
        raise KeyError(mask)

    def __iter__(self):
        return iter(self.masks.tolist())

    def __len__(self) -> int:
        return len(self.masks)

    def __repr__(self) -> str:
        return f"Coefficients({dict(self)!r})"


@dataclass(frozen=True)
class SparsePolynomial:
    """Sparse polynomial hypothesis.

    basis "parity": value = sum over T of coeffs[T] * chi_T(x).
    basis "layered_parity": a separate parity polynomial per Hamming layer,
    value = sum over T of layers[weight(x)][T] * chi_T(x).
    clamp restricts emitted values to [0,1].
    coeffs and each of layers' values are stored as Coefficients, built
    from a mapping or a (masks, values) pair; layers is read-only.
    """

    n: int
    basis: str = "parity"
    coeffs: Mapping[int, float] = field(default_factory=dict)
    layers: Mapping[int, Mapping[int, float]] = field(default_factory=dict)
    clamp: bool = False

    def __post_init__(self) -> None:
        if self.basis not in ("parity", "layered_parity"):
            raise ValueError(f"unknown basis {self.basis!r}")
        layers = {k: Coefficients(self.n, c) for k, c in self.layers.items()}
        coeffs = Coefficients(self.n, self.coeffs)
        if self.basis == "layered_parity":
            if any(not 0 <= k <= self.n for k in self.layers):
                raise ValueError("layer keys must lie in 0..n")
            if coeffs:
                raise ValueError("a layered_parity polynomial takes no coeffs")
        elif layers:
            raise ValueError("a parity polynomial takes no layers")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "layers", MappingProxyType(layers))

    def __reduce__(self):  # a mappingproxy does not pickle
        args = self.n, self.basis, self.coeffs, dict(self.layers), self.clamp
        return SparsePolynomial, args

    def eval_masks(self, masks: np.ndarray) -> np.ndarray:
        masks = _check_points(masks, self.n)
        if self.basis == "parity":
            out = _eval_parity_poly(self.n, self.coeffs, masks)
        else:
            out = np.zeros(len(masks), dtype=np.float64)
            weights = np.bitwise_count(masks)
            for k, coeffs in self.layers.items():
                sel = weights == k
                if sel.any():
                    out[sel] = _eval_parity_poly(self.n, coeffs, masks[sel])
        if self.clamp:
            out = np.clip(out, 0.0, 1.0)
        return out

    def __call__(self, mask: int) -> float:
        return float(self.eval_masks(check_masks([mask], self.n))[0])


def _check_points(masks, n: int) -> np.ndarray:
    """The point masks as uint64, refusing any outside [0, 2^n): a parity
    would drop its bits above n, a layer or a tree branch would answer it
    silently, and a dense table's view would wrap a mask of 2^63 or more."""
    masks = np.asarray(masks, dtype=np.uint64)
    top = int(masks.max()) if len(masks) else 0
    if top >> n:
        raise IndexError(f"point mask {top} outside [0, 2^{n})")
    return masks


def _eval_parity_poly(n: int, coeffs: Coefficients, masks: np.ndarray) -> np.ndarray:
    terms = len(coeffs)  # the sum takes terms x points steps, the transform n 2^n
    if terms > DENSE_EVAL_SUPPORT and n <= MAX_DENSE_N and terms * len(masks) >= 1 << n:
        dense = np.zeros(1 << n, dtype=np.float64)
        dense[cell_index(coeffs.masks)] = coeffs.values
        return walsh_hadamard(dense)[cell_index(masks)]
    # ascending mask order, the order a serialized polynomial is read back in
    out = np.zeros(len(masks), dtype=np.float64)
    for t, v in zip(coeffs.masks.tolist(), coeffs.values.tolist()):
        out += v * eval_parity_batch(t, masks)
    return out


@dataclass(frozen=True)
class PmacZeroLeaf:
    def eval_masks(self, masks: np.ndarray) -> np.ndarray:
        return np.zeros(len(masks), dtype=np.float64)

    def depth(self) -> int:
        return 0


@dataclass(frozen=True)
class PmacPolyLeaf:
    """Shifted, rescaled and clamped polynomial leaf:
    value = max(floor, 3*m_tilde*(poly(x) - shift)), where floor is the
    least target value its subcube's test supports (pmac_learn)."""

    poly: SparsePolynomial
    m_tilde: float
    shift: float
    floor: float

    def eval_masks(self, masks: np.ndarray) -> np.ndarray:
        out = self.poly.eval_masks(masks)  # a new array, worked in place
        out -= self.shift
        out *= 3.0 * self.m_tilde
        return np.maximum(out, self.floor, out=out)

    def depth(self) -> int:
        return 0


@dataclass(frozen=True)
class PmacNode:
    """Split on coordinate var: minus branch handles x_var = -1."""

    var: int
    minus: "PmacNode | PmacPolyLeaf | PmacZeroLeaf"
    plus: "PmacNode | PmacPolyLeaf | PmacZeroLeaf"

    def eval_masks(self, masks: np.ndarray) -> np.ndarray:
        out = np.empty(len(masks), dtype=np.float64)
        sel = ((masks >> np.uint64(self.var)) & np.uint64(1)) == 1
        if sel.any():
            out[sel] = self.minus.eval_masks(masks[sel])
        if (~sel).any():
            out[~sel] = self.plus.eval_masks(masks[~sel])
        return out

    def depth(self) -> int:
        return 1 + max(self.minus.depth(), self.plus.depth())


@dataclass(frozen=True)
class PmacHypothesis:
    """Decision tree of subcube prefixes with non-negative leaves."""

    n: int
    root: PmacNode | PmacPolyLeaf | PmacZeroLeaf

    def eval_masks(self, masks: np.ndarray) -> np.ndarray:
        return self.root.eval_masks(_check_points(masks, self.n))

    def depth(self) -> int:
        return self.root.depth()


# --------------------------------------------------------------------------
# Example oracles


@dataclass(frozen=True)
class _Tallied:
    """An oracle's examples_drawn, the examples its draws asked for, which
    its restricted and scaled copies add to; == and repr skip the tally.  A
    direct draw, 16 bytes an example, is refused above its cap."""

    _drawn: list = field(default_factory=lambda: [0], compare=False, repr=False,
                         kw_only=True)

    @property
    def examples_drawn(self) -> int:
        return self._drawn[0]

    def _count(self, m: int, cap: float = math.inf) -> None:
        if m > cap:
            raise OracleExhausted(f"direct draw of {m} examples is over the cap")
        self._drawn[0] += int(m)


@dataclass(frozen=True)
class UniformTableOracle(_Tallied):
    """Uniform example oracle over a subcube, backed by a dense value table.

    free_vars[i] is the original coordinate carried by compact bit i; values
    has one target value per compact cell mask.  Restriction fixes one free
    coordinate and compacts the table, which conditions the uniform
    distribution exactly.
    """

    n_total: int
    free_vars: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != 1 << len(self.free_vars):
            raise ValueError("table length must be 2^(free variable count)")

    @classmethod
    def from_coverage(cls, c: CoverageFunction) -> "UniformTableOracle":
        return cls(c.n, tuple(range(c.n)), dense_table(c))

    @property
    def n(self) -> int:
        return len(self.free_vars)

    def draw(self, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        self._count(m, MEMORY_CAP // 16)
        masks = rng.integers(0, len(self.values), size=m, dtype=np.uint64)
        return masks, self.values[cell_index(masks)]

    def draw_counts(self, total: int, rng: np.random.Generator) -> np.ndarray:
        """Per-cell counts of `total` i.i.d. uniform draws: one uniform
        multinomial draw on rng.  Totals beyond the int64 range are drawn in
        exact chunks of at most 4e18, one multinomial each.

        The counts are float64: exact while a cell stays below 2^53, and
        above it rounded, by a relative 2^-52 or less per chunk.  PMAC's
        small leaves go above it (a 32-cell leaf at n = 6 draws about 1e20
        examples), and their estimates only divide counts by the total, so
        the rounding stays far inside every tolerance used here.
        """
        self._count(total)
        cells = len(self.values)
        p = np.full(cells, 1.0 / cells)
        counts = None
        remaining = int(total)
        while remaining > 0:
            chunk = min(remaining, 4 * 10**18)
            remaining -= chunk
            draw = rng.multinomial(chunk, p)
            if not remaining:
                del p  # one chunk holds two tables at most: p or the sum, and the draw
            if counts is None:
                counts = draw.astype(np.float64)
            else:
                counts += draw
        return np.zeros(cells) if counts is None else counts

    def draw_hits(self, total: int, hit: np.ndarray, rng: np.random.Generator) -> int:
        """How many of `total` i.i.d. uniform draws land in the cells where
        hit is true: one Binomial(total, |hit| / cells) draw, whose dyadic
        probability is exact in float64."""
        self._count(total)
        return int(rng.binomial(total, np.count_nonzero(hit) / len(self.values)))

    def restrict(self, compact_var: int, sign: int) -> "UniformTableOracle":
        """Fix free coordinate compact_var to sign (-1 or +1)."""
        if not 0 <= compact_var < self.n:
            raise ValueError("variable index out of range")
        if sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {sign!r}")
        # axis 1 is bit compact_var of the cell mask; -1 is bit value 1
        half = self.values.reshape(-1, 2, 1 << compact_var)[:, 1 if sign == -1 else 0]
        free_vars = self.free_vars[:compact_var] + self.free_vars[compact_var + 1 :]
        return replace(self, free_vars=free_vars, values=half.flatten())

    def scaled(self, factor: float) -> "UniformTableOracle":
        """Labels multiplied by factor and clamped to [0, 1]."""
        return replace(self, values=np.clip(self.values * factor, 0.0, 1.0))

    def lift_sets(self, compact_masks: Sequence[int] | np.ndarray) -> np.ndarray:
        """Compact set masks on the original coordinates: bit i of each
        moves to bit free_vars[i]."""
        masks = np.asarray(compact_masks, dtype=np.uint64)
        bits = (masks[:, None] >> np.arange(self.n, dtype=np.uint64)) & np.uint64(1)
        return bits @ (np.uint64(1) << np.array(self.free_vars, dtype=np.uint64))


@dataclass(frozen=True)
class SampledOracle(_Tallied):
    """Generic example oracle: draws points from a distribution and labels
    them with label_fn(masks, rng), which may inject noise via rng."""

    dist: DistributionSpec
    label_fn: Callable[[np.ndarray, np.random.Generator], np.ndarray]

    @property
    def n(self) -> int:
        return self.dist.n

    def draw(self, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        self._count(m, MEMORY_CAP // 16)
        # looked up on the module: perfbench traces the cube.sample_masks site
        masks = cube.sample_masks(self.dist, m, rng)
        return masks, np.asarray(self.label_fn(masks, rng), dtype=np.float64)


def _oracle_coeff_source(oracle, m: int, rng: np.random.Generator) -> CoeffSource:
    """Empirical coefficient source from one sample of size m; on a dense
    table, a lookup into the spectrum of the drawn counts."""
    if isinstance(oracle, UniformTableOracle):
        counts = oracle.draw_counts(m, rng)
        return spectrum_source(oracle.n, spectrum_from_counts(counts, oracle.values))
    return batch_source(oracle.n, *oracle.draw(m, rng))


# --------------------------------------------------------------------------
# PAC learning (improper)


def pac_pool_bound(theta: float, itilde_size: int) -> int:
    # a kept set has |true coeff| >= theta/2, so spectral norm 2 bounds kept
    # sets by 4/theta; each is extended by at most |I~| candidates
    return math.ceil(4.0 / theta * max(itilde_size, 1)) + 1


class SearchThresholds(NamedTuple):
    """A singleton screen at theta, then a lattice search over the screened
    singletons that keeps sets at keep_thr for at most max_level levels."""

    theta: float
    keep_thr: float
    max_level: int

    @property
    def tolerance(self) -> float:  # the accuracy every estimate read needs
        return min(self.theta, self.keep_thr) / 2

    def family(self, n: int) -> tuple[int, int]:
        """(sets asked, nonempty sets kept) on n variables: the n screened
        singletons, then the smaller of the search's pool on estimates within
        tolerance (pac_pool_bound; at most 4/keep_thr kept) and the lattice
        of sets of at most max_level variables, a cap on any estimates."""
        lattice = basis_size(n, self.max_level)
        asked = n + min(pac_pool_bound(self.keep_thr, n), lattice)
        return asked, min(math.ceil(4.0 / self.keep_thr), lattice - 1)


def search_thresholds(eps: float, s_eps: float | None) -> SearchThresholds:
    """PAC search thresholds at eps (s_eps None), proper ones at (eps, s_eps)."""
    if s_eps is None:
        theta = eps * eps / PAC_THETA_DIV
        return SearchThresholds(theta, theta, math.ceil(math.log2(2.0 / theta)))
    theta = eps * eps / PROPER_THETA_DIV
    keep_thr = eps * eps / (PROPER_THETA_DIV / 2 * s_eps)
    return SearchThresholds(theta, keep_thr, math.ceil(math.log2(6.0 / eps)))


def _screen_and_search(
    n: int, t: SearchThresholds, phase1_source: CoeffSource,
    phase2_source_for: Callable[[int], CoeffSource],
) -> dict[int, float]:
    """Singletons whose phase-1 estimate reaches t.theta, all asked in one
    call, then a lattice search over them at t.keep_thr, on the source that
    phase2_source_for gives for the search's union-bound pool size.  A
    single point (n = 0) has no candidates; an IndexSet needs n >= 1."""
    singletons = np.uint64(1) << np.arange(n, dtype=np.uint64)
    itilde = np.flatnonzero(np.abs(phase1_source(singletons)) >= t.theta).tolist()
    pool = pac_pool_bound(t.keep_thr, len(itilde))
    candidates = IndexSet.from_indices(itilde, max(n, 1))
    return lattice_search(phase2_source_for(pool), candidates, t.keep_thr, t.max_level)


def pac_core(
    n: int,
    eps: float,
    phase1_source: CoeffSource,
    phase2_source_for: Callable[[int], CoeffSource],
) -> SparsePolynomial:
    """Two-phase sparse Fourier selection shared by the sampled and the
    private-query paths: singleton screen, then lattice search."""
    t = search_thresholds(eps, None)
    kept = _screen_and_search(n, t, phase1_source, phase2_source_for)
    masks = np.fromiter(kept, np.uint64, len(kept))
    return SparsePolynomial(n, "parity", (masks, np.fromiter(kept.values(), float)))


def _search_source(
    oracle, seed: int, t: SearchThresholds, failure: float
) -> CoeffSource:
    """One sample on child_rng(seed, 1) for the screen and the search of t,
    each estimate within t.tolerance with probability 1 - failure.  Both
    families t.family counts, the lattice and (by induction on the level)
    the pool, are fixed by the target: a union bound over either sizes it."""
    asked, _ = t.family(oracle.n)
    m = hoeffding_samples(t.tolerance, failure / asked)
    return _oracle_coeff_source(oracle, m, child_rng(seed, 1))


def pac_learn_uniform(
    oracle, eps: float, seed: int, failure: float = PAC_SEARCH_FAILURE
) -> SparsePolynomial:
    """PAC learner from uniform examples with l1 error eps and confidence
    1 - failure, 2/3 by default, when the target is a coverage function."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if not 0 < failure < 1:
        raise ValueError("failure must lie in (0,1)")
    source = _search_source(oracle, seed, search_thresholds(eps, None), failure)
    return pac_core(oracle.n, eps, source, lambda pool: source)


# --------------------------------------------------------------------------
# PMAC learning


def _pmac_leaf(
    oracle: UniformTableOracle,
    m_tilde: float,
    floor: float,
    eps: float,
    shift: float,
    eta: float,
    seed: int,
    *path: int,
) -> PmacPolyLeaf:
    """PAC fit of the labels scaled by 1/(3 m~) at failure eta, seeded from
    path, lifted to the full cube and floored at floor.

    Failure budget.  The fit is one run whose estimates are, by the union
    bound `_search_source` sizes its sample with, all within tau with
    probability at least 1 - eta; on that event its l1 error is at most
    eps."""
    scaled = oracle.scaled(1.0 / (3.0 * m_tilde))
    h = pac_learn_uniform(scaled, eps, child_seed(seed, *path), failure=eta)
    lifted = oracle.lift_sets(h.coeffs.masks), h.coeffs.values
    poly = SparsePolynomial(oracle.n_total, "parity", lifted)
    return PmacPolyLeaf(poly, m_tilde, shift, floor)


def pmac_learn(
    oracle: UniformTableOracle, gamma: float, delta: float, seed: int
) -> PmacHypothesis:
    """Multiplicative approximation: with probability at least 2/3 the output
    h satisfies Pr[h(x) <= c(x) <= (1+gamma) h(x)] >= 1-delta.

    The target may be any non-negative coverage function; the range is not
    assumed bounded by 1.  Level k walks one subcube further down the plus
    half of each pivot and draws from child_rng(seed, k, 0); it either stops
    with a leaf (stream path (k, 1)) or splits off a minus-half leaf (path
    (k, 2)).

    Leaf floors.  A leaf never falls below its floor, so it overshoots c
    where c is below the floor; each floor is the least value below which
    its level's draws bound the mass.  The tail leaf's is m~/4, which p~
    tested.  A minus leaf's is label_floor = m~ / (16 ln(9/delta)): had the
    pivot's minus half a delta/3 share of the level's points below
    label_floor, each of the m_piv = (3/delta) ln(n/eta) pivot draws would
    find one with probability delta/3, so that every draw misses them for
    some coordinate has probability at most eta.  The draws bound nothing
    between label_floor and m~/4.
    """
    if not 0 < gamma or not 0 < delta < 1:
        raise ValueError("gamma must be positive and delta in (0,1)")
    depth_cap = math.log2(3.0 / delta)
    eta = PMAC_ETA_NUM / depth_cap
    log_term = math.log(9.0 / delta)
    # 3-approximation of the maximum: Pr[c >= M/3] >= 1/4 per sample
    m_max = math.ceil(math.log(2.0 / eta) / math.log(4.0 / 3.0))
    # p~ estimates Pr[c <= M~/4] within delta/9
    m_p = hoeffding_samples(delta / 9, eta)
    splits = []  # (pivot coordinate, minus leaf), root first
    tail = PmacZeroLeaf()
    for k in range(math.floor(depth_cap) + 1):
        rng = child_rng(seed, k, 0)
        _, labels = oracle.draw(m_max, rng)
        m_tilde = float(labels.max())
        if m_tilde == 0.0:
            break
        small = oracle.values <= m_tilde / 4.0
        p_tilde = oracle.draw_hits(m_p, small, rng) / m_p
        if p_tilde < 2 * delta / 9:
            eps1 = (1.0 / 12.0) * (gamma / 2.0) * (delta / 3.0)
            tail = _pmac_leaf(
                oracle, m_tilde, m_tilde / 4.0, eps1, gamma / 24.0, eta, seed, k, 1
            )
            break

        # pivot search: the first coordinate set in no draw labelled below the
        # floor, so its -1 half has no small drawn label
        m_piv = math.ceil((3.0 / delta) * math.log(oracle.n / eta))
        masks, labels = oracle.draw(m_piv, rng)
        label_floor = m_tilde / (16.0 * log_term)
        below = int(np.bitwise_or.reduce(masks[labels < label_floor]))
        pivot = (~below & (below + 1)).bit_length() - 1  # lowest bit not in below
        if pivot >= oracle.n:
            break
        eps_minus = (gamma / 2.0) * (delta / 3.0) / (48.0 * log_term)
        shift = gamma / (96.0 * log_term)
        minus = oracle.restrict(pivot, -1)
        leaf = _pmac_leaf(
            minus, m_tilde, label_floor, eps_minus, shift, eta, seed, k, 2
        )
        splits.append((oracle.free_vars[pivot], leaf))
        oracle = oracle.restrict(pivot, +1)

    root = tail
    for var, leaf in reversed(splits):
        root = PmacNode(var, leaf, root)
    return PmacHypothesis(oracle.n_total, root)


# --------------------------------------------------------------------------
# Proper PAC learning


def proper_size_bound(eps: float, size_bound: float) -> float:
    """s_eps = min(size bound, (12/eps)^ceil(log2(6/eps)))."""
    return min(size_bound, (12.0 / eps) ** math.ceil(math.log2(6.0 / eps)))


def proper_regression_samples(eps: float, sets: int) -> int:
    """Examples proper_pac_core's regression on `sets` disjunctions draws."""
    floor = hoeffding_samples(eps / 2, PROPER_PHASE_FAILURE)
    return max(floor, regression_samples(eps, sets + 1))


def _fit_coverage(n: int, sets: Sequence[int], examples, m: int, rng, support: int):
    """Simplex-constrained l1 fit of m drawn examples over an affine column
    plus one OR_S column per set; the weights form a coverage function,
    whose terms are the sets weighted above WEIGHT_TOL: a least-squares fit
    leaves rounding dust of about 1e-17 on the sets it does not use."""

    def columns(points):
        yield 1.0  # the affine column
        for s in sets:
            yield eval_disjunction_batch(s, points)

    coef = _l1_fit(examples, m, rng, support, len(sets) + 1, columns, SIMPLEX_LIKE)
    terms = {s: float(w) for s, w in zip(sets, coef[1:]) if w > WEIGHT_TOL}
    return CoverageFunction(n, float(coef[0]), terms)


def proper_pac_core(
    n: int,
    eps: float,
    s_eps: float,
    phase1_source: CoeffSource,
    phase2_source_for: Callable[[int], CoeffSource],
    examples,
    rng: np.random.Generator,
) -> CoverageFunction:
    """Three stages shared by the sampled and the private-query paths:
    singleton screen, lattice search at the size-aware threshold, then
    simplex-constrained l1 regression over the selected disjunctions, on
    examples drawn from the `examples` oracle with rng."""
    t = search_thresholds(eps, s_eps)
    kept = _screen_and_search(n, t, phase1_source, phase2_source_for)
    sets = sorted(s for s in kept if s != 0)
    m3 = proper_regression_samples(eps, len(sets))
    return _fit_coverage(n, sets, examples, m3, rng, 1 << n)


def proper_pac_learn(
    oracle, eps: float, size_bound: float, seed: int
) -> CoverageFunction:
    """Proper PAC learner: the hypothesis is itself a coverage function with
    l1 error at most eps (confidence 2/3).  size_bound is the caller's bound
    on the number of terms of the target, or math.inf; a coverage function
    on n variables has fewer than 2^n terms, so 2^n bounds it too.  At n =
    6 and eps 0.2 an infinite bound would size the search's sample at about
    6e25 examples, and 2^6 sizes it at 4e11."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if not size_bound >= 1:  # NaN fails too
        raise ValueError("size_bound must be >= 1")
    s_eps = proper_size_bound(eps, min(size_bound, 2.0**oracle.n))
    t = search_thresholds(eps, s_eps)
    source = _search_source(oracle, seed, t, 2 * PROPER_PHASE_FAILURE)
    return proper_pac_core(
        oracle.n, eps, s_eps, source, lambda pool: source, oracle, child_rng(seed, 3)
    )


# --------------------------------------------------------------------------
# Agnostic learning


def regression_samples(eps: float, columns: int) -> int:
    """Examples for an l1 fit over `columns` features to accuracy eps."""
    return math.ceil(REGRESSION_SAMPLE_FACTOR * columns / eps**2)


def basis_size(n: int, degree: int) -> int:
    """Number of sets of at most `degree` of the n variables, the empty set
    included: len(sets_up_to(n, degree)) without listing them."""
    return sum(math.comb(n, i) for i in range(min(degree, n) + 1))


def _check_columns(n: int, degree: int, blocks: int = 1) -> None:
    """Rejects a basis of `blocks` copies of the sets of at most `degree`
    of the n variables (the empty set included) that is over the LP's column
    cap, before the basis is built or any example drawn."""
    count = blocks * basis_size(n, degree)
    if count > MAX_COLUMNS:
        raise BasisTooLarge(f"basis needs {count} features, over the cap {MAX_COLUMNS}")


def _support_size(d: DistributionSpec) -> int:
    """Number of points of the cube to which d gives positive mass."""
    if d.layers is None:
        return 1 << d.n  # product biases lie in (0, 1)
    return sum(math.comb(d.n, k) for k in d.layers)


def _l1_fit(examples, m: int, rng, support: int, width: int, columns, constraint):
    """The regression stage of the proper and agnostic learners: an l1 fit
    of m drawn labels over the `width` columns that columns(points) yields
    for the distinct drawn points; returns one coefficient per column.  The
    design has one float64 row per distinct point, so at most
    min(m, support) rows; one over MEMORY_CAP is refused before any example
    is drawn."""
    size = min(m, support) * width * 8
    if size > MEMORY_CAP:
        raise DesignTooLarge(
            f"regression design needs up to {size} bytes, over the cap {MEMORY_CAP}"
        )
    masks, labels = examples.draw(m, rng)
    points, rows, _ = group_points(masks, examples.n)
    design = np.empty((len(points), width), dtype=np.float64)
    for j, column in enumerate(columns(points)):
        design[:, j] = column
    return solve_l1(L1Problem(design, labels, constraint, rows)).coefficients


def agnostic_degree(eps: float) -> int:
    return math.ceil(math.log2(3.0 / eps))


def agnostic_samples(n: int, eps: float, blocks: int) -> int:
    """Examples agnostic_learn draws at eps on `blocks` layers of parities."""
    return regression_samples(eps, blocks * basis_size(n, agnostic_degree(eps)))


def sets_up_to(n: int, degree: int, include_empty: bool = True) -> list[int]:
    out = [0] if include_empty else []
    for size in range(1, min(degree, n) + 1):
        for combo in itertools.combinations(range(n), size):
            out.append(sum(1 << i for i in combo))
    return out


def agnostic_learn(
    oracle, d: DistributionSpec, eps: float, seed: int
) -> SparsePolynomial:
    """Agnostic learner for product and symmetric distributions: excess l1
    error at most eps over the best coverage-function fit (confidence 2/3).
    Labels may be arbitrary values in [0,1].  The examples are drawn from
    child_rng(seed, 1); path 0 is left to the caller's target or noise."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    n = d.n
    deg = agnostic_degree(eps)
    # one block of parities per Hamming layer in the support; None is the
    # single block of a product distribution, whose columns are not masked
    blocks: list[int | None] = [None] if d.layers is None else list(d.layers)
    _check_columns(n, deg, len(blocks))
    parities = sets_up_to(n, deg)
    features = [(k, t) for k in blocks for t in parities]

    def columns(points):
        weights = np.bitwise_count(points)
        for k, t in features:
            column = eval_parity_batch(t, points)
            yield column if k is None else column * (weights == k)

    coef = _l1_fit(oracle, agnostic_samples(n, eps, len(blocks)), child_rng(seed, 1),
                   _support_size(d), len(features), columns, UNCONSTRAINED)
    sets = np.array(parities, dtype=np.uint64)
    coef = coef.reshape(len(blocks), -1)
    layers = {k: (sets[c != 0.0], c[c != 0.0]) for k, c in zip(blocks, coef)}
    if blocks == [None]:
        return SparsePolynomial(n, "parity", layers[None], clamp=True)
    return SparsePolynomial(n, "layered_parity", layers=layers, clamp=True)


def truncation_length(kappa: float, eps: float) -> int:
    """Disjunction length beyond which terms are eps-close to constant under
    a kappa-bounded product distribution: (2/kappa) * ceil(log2(1/eps))."""
    if not 0 < kappa <= 0.5 or not 0 < eps < 1:
        raise ValueError("kappa must lie in (0,1/2] and eps in (0,1)")
    return math.ceil(2.0 / kappa * math.ceil(math.log2(1.0 / eps)))


def proper_agnostic_learn(
    oracle, d: DistributionSpec, eps: float, kappa: float, seed: int
) -> CoverageFunction:
    """Proper agnostic learner for kappa-bounded product distributions.

    The stated excess error eps is split internally: eps/2 for truncating to
    short disjunctions, eps/2 for the regression.  The examples are drawn
    from child_rng(seed, 1); path 0 is left to the caller's target."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if d.layers is not None:
        raise ValueError("proper agnostic learning needs a product distribution")
    biases = (0.5,) * d.n if d.biases is None else d.biases
    if any(min(b, 1 - b) < kappa - 1e-12 for b in biases):
        raise ValueError(f"marginals must satisfy min(bias, 1-bias) >= {kappa}")

    half = eps / 2.0
    k_len = truncation_length(kappa, half)
    _check_columns(d.n, k_len)
    sets = sets_up_to(d.n, k_len, include_empty=False)
    m = regression_samples(half, len(sets) + 1)
    return _fit_coverage(d.n, sets, oracle, m, child_rng(seed, 1), _support_size(d))


# --------------------------------------------------------------------------
# Disjoint-DNF reduction


@dataclass(frozen=True)
class DisjointDnf:
    """DNF whose terms are mutually exclusive.  Each term is a pair of masks:
    positive literals (require x_i = -1) and negated literals (require +1)."""

    n: int
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n > MAX_COMPACT_N:
            raise ValueError(f"dimension {self.n} is over the cap of {MAX_COMPACT_N}")
        for pos, neg in self.terms:
            if pos & neg:
                raise ValueError("a term uses a variable in both polarities")
            if (pos | neg) >> self.n:
                raise ValueError("term uses variables outside the first n")
        for a, b in itertools.combinations(self.terms, 2):
            if not ((a[0] & b[1]) | (b[0] & a[1])):
                raise ValueError("terms are not mutually exclusive")

    def eval_masks(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.uint64)
        out = np.zeros(len(masks), dtype=np.float64)
        for pos, neg in self.terms:
            hit = ((masks & np.uint64(pos)) == pos) & ((masks & np.uint64(neg)) == 0)
            out = np.maximum(out, hit.astype(np.float64))
        return out


def random_disjoint_dnf(n: int, s: int, seed: int) -> DisjointDnf:
    """Random s-term disjoint DNF: terms carry distinct patterns on a block
    of selector variables (which forces disjointness) plus random extra
    literals."""
    if s < 1:
        raise ValueError("s must be >= 1")
    k = max(1, math.ceil(math.log2(s)))
    if k > n:
        raise ValueError("too many terms for the dimension")
    rng = child_rng(seed, 0)
    terms = []
    for pattern in rng.choice(1 << k, size=s, replace=False):
        pos = neg = 0
        for b in range(k):
            if int(pattern) >> b & 1:
                pos |= 1 << b
            else:
                neg |= 1 << b
        for v in range(k, n):
            roll = rng.random()
            if roll < 0.2:
                pos |= 1 << v
            elif roll < 0.4:
                neg |= 1 << v
        terms.append((pos, neg))
    return DisjointDnf(n, tuple(terms))


def dnf_input_map(masks: np.ndarray, n: int) -> np.ndarray:
    """The coordinate-doubling map: output coordinate 2i copies x_i and
    coordinate 2i+1 carries its negation."""
    masks = np.asarray(masks, dtype=np.uint64)
    out = np.zeros(len(masks), dtype=np.uint64)
    for i in range(n):
        bit = (masks >> np.uint64(i)) & np.uint64(1)
        out |= bit << np.uint64(2 * i)
        out |= (np.uint64(1) - bit) << np.uint64(2 * i + 1)
    return out


def dnf_to_coverage(d: DisjointDnf) -> CoverageFunction:
    """The coverage function on 2n variables that the reduction targets:
    1 - d(x)/s = sum over terms of (1/s) OR over the negated-literal map."""
    s = len(d.terms)
    terms: dict[int, float] = {}
    for pos, neg in d.terms:
        mask = 0
        for i in range(d.n):
            if pos >> i & 1:
                mask |= 1 << (2 * i + 1)
            if neg >> i & 1:
                mask |= 1 << (2 * i)
        terms[mask] = terms.get(mask, 0.0) + 1.0 / s
    return CoverageFunction(2 * d.n, 0.0, terms)


@dataclass(frozen=True)
class DnfClassifier:
    """Boolean hypothesis from the reduction: predicts 1 iff
    s * (1 - h'(map(x))) >= 1/2."""

    n: int
    s: int
    inner: object  # anything with eval_masks over 2n-variable masks

    def eval_masks(self, masks: np.ndarray) -> np.ndarray:
        mapped = dnf_input_map(np.asarray(masks, dtype=np.uint64), self.n)
        vals = self.s * (1.0 - self.inner.eval_masks(mapped))
        return (vals >= 0.5).astype(np.float64)


@dataclass(frozen=True)
class _MappedOracle:
    """Transforms Boolean DNF examples (x, y) into coverage examples
    (map(x), 1 - y/s) on 2n variables."""

    base: object
    n_orig: int
    s: int

    @property
    def n(self) -> int:
        return 2 * self.n_orig

    def draw(self, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        masks, ys = self.base.draw(m, rng)
        return dnf_input_map(masks, self.n_orig), 1.0 - ys / self.s


def dnf_reduction_learn(
    boolean_oracle, s: int, eps: float, coverage_learner
) -> DnfClassifier:
    """Learns an s-term disjoint DNF through coverage learning.

    coverage_learner(oracle, eps') must return an l1-eps'-accurate hypothesis
    for the induced distribution on 2n variables; it is invoked at
    eps' = eps/(2s), which bounds the classification error by eps."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    n = boolean_oracle.n
    if 2 * n > MAX_COMPACT_N:
        raise ValueError(f"2n = {2 * n} doubled coordinates exceed {MAX_COMPACT_N}")
    mapped = _MappedOracle(boolean_oracle, n, s)
    inner = coverage_learner(mapped, eps / (2.0 * s))
    return DnfClassifier(n, s, inner)
