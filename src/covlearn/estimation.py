"""Sample-based Fourier coefficient estimation and the monotone lattice search.

A "coefficient source" is any callable mask -> float, the estimated Fourier
coefficient at that set; it raises ValueError for a mask outside [0, 2^n).
Three implementations live here: empirical estimation over a sample batch,
exact lookup in a Fourier table, and lookup in a precomputed spectrum built
from aggregated per-point counts (the route used when nominal sample counts
are astronomically large but n is small).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coverage import FourierTable, walsh_hadamard
from .cube import IndexSet, eval_parity_batch

CoeffSource = Callable[[int], float]

LABEL_TOL = 1e-9


@dataclass(frozen=True)
class SampleBatch:
    """Labeled sample: point masks and labels in [0,1], same length."""

    n: int
    masks: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if len(self.masks) == 0:
            raise ValueError("sample batch must be non-empty")
        if len(self.masks) != len(self.labels):
            raise ValueError("points and labels must have equal length")
        lo, hi = float(self.labels.min()), float(self.labels.max())
        if lo < -LABEL_TOL or hi > 1 + LABEL_TOL:
            raise ValueError(f"labels outside [0,1]: range [{lo}, {hi}]")

    def __len__(self) -> int:
        return len(self.masks)


def hoeffding_samples(tolerance: float, failure: float) -> int:
    """Samples for a two-sided Hoeffding bound on range-[-1,1] variables:
    ceil((2/tolerance^2) * ln(2/failure))."""
    if not 0 < tolerance <= 2 or not 0 < failure < 1:
        raise ValueError("tolerance must lie in (0,2] and failure in (0,1)")
    return math.ceil(2.0 / tolerance**2 * math.log(2.0 / failure))


def check_mask(mask: int, n: int) -> None:
    """Rejects a set mask outside [0, 2^n); numpy would wrap a negative one."""
    if not 0 <= mask < 1 << n:
        raise ValueError(f"set mask {mask} outside [0, 2^{n})")


def estimate_coefficient(batch: SampleBatch, mask: int) -> float:
    """Empirical mean of label * parity over the batch; unbiased for the
    coefficient when the batch is uniform."""
    check_mask(mask, batch.n)
    signs = eval_parity_batch(mask, batch.masks)
    return float(signs @ batch.labels) / len(batch)


def batch_source(batch: SampleBatch) -> CoeffSource:
    return lambda mask: estimate_coefficient(batch, mask)


def exact_source(table: FourierTable) -> CoeffSource:
    def source(mask: int) -> float:
        check_mask(mask, table.n)
        return table[mask]

    return source


def spectrum_source(n: int, spectrum: np.ndarray) -> CoeffSource:
    """Lookup into a length-2^n array of coefficients indexed by set mask."""
    size = 1 << n
    if len(spectrum) != size:
        raise ValueError("spectrum length must be 2^n")

    def source(mask: int) -> float:
        if not 0 <= mask < size:  # check_mask, inlined: it runs per lookup
            raise ValueError(f"set mask {mask} outside [0, 2^{n})")
        return float(spectrum[mask])

    return source


def spectrum_from_counts(weights: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """All empirical Fourier coefficients of a weighted sample at once.

    weights[x] is how many sample points landed on point mask x (any
    non-negative reals); labels[x] is the label shared by that cell.  The
    result equals estimate_coefficient for every t simultaneously, via one
    Walsh-Hadamard transform.
    """
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("weights must have positive total")
    spectrum = walsh_hadamard(np.asarray(weights, dtype=np.float64) * labels)
    spectrum /= total
    return spectrum


def lattice_search(
    coeff_source: CoeffSource,
    candidate_vars: IndexSet,
    theta: float,
    max_level: int,
) -> dict[int, float]:
    """Breadth-first search of the subset lattice of candidate_vars.

    Level t extends each surviving (t-1)-set; a set is kept iff the estimated
    coefficient satisfies |estimate| >= theta.  Runs at most max_level levels,
    stopping after the first level that keeps no set, and returns the
    estimate of every kept set plus the empty set, keyed by mask, in the
    order the sets were visited.  Each set is visited once: a set is
    extended only by variables above its maximum element, which reaches
    every subset exactly once, and coefficient-magnitude monotonicity over
    supersets means the surviving sets coincide with the all-orders search.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    candidates = candidate_vars.indices()  # ascending
    bits = [1 << i for i in candidates]
    kept = {0: coeff_source(0)}
    frontier = [0]
    for _ in range(max_level):
        next_frontier = []
        for t_mask in frontier:
            # extend by i > max(T) only
            for bit in bits[bisect_left(candidates, t_mask.bit_length()):]:
                ext = t_mask | bit
                est = coeff_source(ext)
                if abs(est) >= theta:
                    kept[ext] = est
                    next_frontier.append(ext)
        if not next_frontier:
            break
        frontier = next_frontier
    return kept

