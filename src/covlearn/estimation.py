"""Sample-based Fourier coefficient estimation and the monotone lattice search.

A "coefficient source" is a callable from an integer array of set masks to
the float64 array of estimated Fourier coefficients at those sets, in the
same order; it raises ValueError for a mask outside [0, 2^n).  Three
implementations live here: empirical estimation over a drawn sample,
grouped into its distinct points; exact lookup in a Fourier table; and one
fancy index into a precomputed spectrum, such as the spectrum of aggregated
per-point counts (the route used when nominal sample counts are
astronomically large but n is small).  The lattice search asks its source
once per level.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .coverage import FourierTable, walsh_hadamard
from .cube import IndexSet, cell_index, eval_parity_batch, group_points

CoeffSource = Callable[[np.ndarray], np.ndarray]

LABEL_TOL = 1e-9


def hoeffding_samples(tolerance: float, failure: float) -> int:
    """Samples for a two-sided Hoeffding bound on range-[-1,1] variables:
    ceil((2/tolerance^2) * ln(2/failure))."""
    if not 0 < tolerance <= 2 or not 0 < failure < 1:
        raise ValueError("tolerance must lie in (0,2] and failure in (0,1)")
    return math.ceil(2.0 / tolerance**2 * math.log(2.0 / failure))


def check_masks(masks, n: int) -> np.ndarray:
    """The set masks as a uint64 array; rejects any outside [0, 2^n), which
    numpy would wrap into range, and any that is not an integer, which it
    would truncate.  Python ints are compared exactly, not as the floats
    numpy makes of a list that fits no integer dtype."""
    masks = masks if isinstance(masks, np.ndarray) else np.array(masks, dtype=object)
    if masks.dtype.kind not in "iuO" or masks.dtype.kind == "O" and not all(
        isinstance(m, (int, np.integer)) and not isinstance(m, bool) for m in masks.flat
    ):
        raise ValueError("set masks must be integers")
    if masks.size:
        lo, hi = masks.min(), masks.max()
        if lo < 0 or hi >= 1 << n:
            raise ValueError(f"set mask {lo if lo < 0 else hi} outside [0, 2^{n})")
    return masks.astype(np.uint64, copy=False)


def batch_source(n: int, masks: np.ndarray, labels: np.ndarray) -> CoeffSource:
    """Empirical coefficients of a drawn sample of uint64 point masks and
    labels in [0,1]: at set mask t, the mean over the examples of
    label * chi_t, unbiased for the coefficient when the draw is uniform.
    The draw is grouped once into its distinct points, with the sum of
    their labels, so each set mask costs one parity evaluation over the
    distinct points.  The sum is an einsum, not a BLAS dot, whose bits
    could depend on the thread count."""
    if len(masks) == 0:
        raise ValueError("sample must be non-empty")
    if len(masks) != len(labels):
        raise ValueError("points and labels must have equal length")
    lo, hi = float(np.min(labels)), float(np.max(labels))
    if lo < -LABEL_TOL or hi > 1 + LABEL_TOL:
        raise ValueError(f"labels outside [0,1]: range [{lo}, {hi}]")
    points, rows, _ = group_points(masks, n)
    sums, m = np.bincount(rows, weights=labels, minlength=len(points)), len(masks)

    def source(set_masks: np.ndarray) -> np.ndarray:
        set_masks = check_masks(set_masks, n).tolist()
        return np.array(
            [np.einsum("i,i->", eval_parity_batch(t, points), sums) for t in set_masks],
            dtype=np.float64,
        ) / m

    return source


def exact_source(table: FourierTable) -> CoeffSource:
    def source(masks: np.ndarray) -> np.ndarray:
        masks = check_masks(masks, table.n)
        return np.array([table[int(t)] for t in masks], dtype=np.float64)

    return source


def spectrum_source(n: int, spectrum: np.ndarray) -> CoeffSource:
    """Lookup into a length-2^n array of coefficients indexed by set mask."""
    if len(spectrum) != 1 << n:
        raise ValueError("spectrum length must be 2^n")
    return lambda masks: spectrum[cell_index(check_masks(masks, n))]


def spectrum_from_counts(weights: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """All empirical Fourier coefficients of a weighted sample at once.

    weights[x] is how many sample points landed on point mask x (any
    non-negative reals); labels[x] is the label shared by that cell.  The
    result is batch_source's estimate on the expanded sample at every t at
    once, via one Walsh-Hadamard transform of the product labels * weights,
    divided in place by the total weight.  The transform forms the product
    one block at a time, so its result is the one table the call allocates,
    besides the transform's scratch block of at most WHT_BLOCK cells, and
    the result is returned.
    """
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("weights must have positive total")
    spectrum = walsh_hadamard(labels, weights)
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
