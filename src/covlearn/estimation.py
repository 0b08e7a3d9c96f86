"""Sample-based Fourier coefficient estimation and the monotone lattice search.

A "coefficient source" is a callable from an integer array of set masks to
the float64 array of estimated Fourier coefficients at those sets, in the
same order; it raises ValueError for a mask outside [0, 2^n).  Three
implementations live here: empirical estimation over a sample batch, exact
lookup in a Fourier table, and one fancy index into a precomputed spectrum,
such as the spectrum of aggregated per-point counts (the route used when
nominal sample counts are astronomically large but n is small).  The
lattice search asks its source once per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coverage import FourierTable, walsh_hadamard
from .cube import IndexSet, eval_parity_batch

CoeffSource = Callable[[np.ndarray], np.ndarray]

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


def check_masks(masks, n: int) -> np.ndarray:
    """The set masks as a uint64 array; rejects any outside [0, 2^n), which
    numpy would wrap into range."""
    masks = np.asarray(masks)
    if masks.size:
        lo, hi = masks.min(), masks.max()
        if lo < 0 or hi >= 1 << n:
            raise ValueError(f"set mask {lo if lo < 0 else hi} outside [0, 2^{n})")
    return masks.astype(np.uint64, copy=False)


def estimate_coefficient(batch: SampleBatch, mask: int) -> float:
    """Empirical mean of label * parity over the batch; unbiased for the
    coefficient when the batch is uniform."""
    check_masks(mask, batch.n)
    signs = eval_parity_batch(mask, batch.masks)
    return float(signs @ batch.labels) / len(batch)


def batch_source(batch: SampleBatch) -> CoeffSource:
    # one estimate per mask, each checked by estimate_coefficient
    return lambda masks: np.array([estimate_coefficient(batch, int(t)) for t in masks])


def exact_source(table: FourierTable) -> CoeffSource:
    def source(masks: np.ndarray) -> np.ndarray:
        masks = check_masks(masks, table.n)
        return np.array([table[int(t)] for t in masks], dtype=np.float64)

    return source


def spectrum_source(n: int, spectrum: np.ndarray) -> CoeffSource:
    """Lookup into a length-2^n array of coefficients indexed by set mask."""
    if len(spectrum) != 1 << n:
        raise ValueError("spectrum length must be 2^n")
    return lambda masks: spectrum[check_masks(masks, n)]


def spectrum_from_counts(weights: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """All empirical Fourier coefficients of a weighted sample at once.

    weights[x] is how many sample points landed on point mask x (any
    non-negative reals); labels[x] is the label shared by that cell.  The
    result equals estimate_coefficient for every t simultaneously, via one
    Walsh-Hadamard transform run in place on the product weights * labels,
    so the returned array is the only table the call allocates.
    """
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("weights must have positive total")
    spectrum = np.multiply(weights, labels, dtype=np.float64)
    walsh_hadamard(spectrum, out=spectrum)
    spectrum /= total
    return spectrum


def lattice_search(
    coeff_source: CoeffSource,
    candidate_vars: IndexSet,
    theta: float,
    max_level: int,
) -> dict[int, float]:
    """Breadth-first search of the subset lattice of candidate_vars.

    Level t extends each surviving (t-1)-set, with one coeff_source call
    for the whole level; a set is kept iff the estimated coefficient
    satisfies |estimate| >= theta.  Runs at most max_level levels,
    stopping after the first level that keeps no set, and returns the
    estimate of every kept set plus the empty set, keyed by mask, in the
    order the sets were visited.  Each set is visited once: a set is
    extended only by variables above its maximum element, which reaches
    every subset exactly once, and coefficient-magnitude monotonicity over
    supersets means the surviving sets coincide with the all-orders search.
    """
    if not theta > 0:
        raise ValueError("theta must be positive")
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    bits = np.array([1 << i for i in candidate_vars.indices()], dtype=np.uint64)
    cols = np.arange(len(bits))
    kept = {0: float(coeff_source(np.zeros(1, dtype=np.uint64))[0])}
    # the frontier's sets, each with the position in bits just above its
    # maximum element
    frontier = np.zeros(1, dtype=np.uint64)
    starts = np.zeros(1, dtype=np.intp)
    for _ in range(max_level):
        above = cols >= starts[:, None]
        if not above.any():
            break
        # row-major: frontier order, then ascending bit
        ext = (frontier[:, None] | bits)[above]
        est = coeff_source(ext)
        hit = np.abs(est) >= theta
        if not hit.any():
            break
        frontier, starts = ext[hit], np.nonzero(above)[1][hit] + 1
        kept.update(zip(frontier.tolist(), est[hit].tolist()))
    return kept
