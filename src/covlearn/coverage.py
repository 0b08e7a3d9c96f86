"""Coverage functions: representation, exact Fourier analysis, projections.

A coverage function here is affine + sum over non-empty sets S of
alpha_S * OR_S with alpha >= 0 and affine + sum(alpha) <= 1, so the range
is [0,1].  The affine part is stored separately instead of as a near-OR
term, keeping evaluation exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .cube import (
    MAX_COMPACT_N,
    DimensionMismatch,
    DistributionSpec,
    IndexSet,
    Point,
    child_rng,
    eval_disjunction_batch,
    iter_submasks,
    sample_masks,
)

WEIGHT_TOL = 1e-12
MAX_DENSE_N = 24
WHT_BLOCK = 1 << 14  # cells of the transform's scratch: 128 KB, within L2


@dataclass(frozen=True)
class CoverageFunction:
    """Non-negative combination of monotone disjunctions plus a constant.

    terms maps non-empty set bitmasks to weights alpha_S >= 0; affine is the
    weight of the constant-1 function.  affine + sum(alpha) <= 1.
    """

    n: int
    affine: float
    terms: Mapping[int, float]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.n > MAX_COMPACT_N:
            raise ValueError(f"dimension {self.n} is over the cap of {MAX_COMPACT_N}")
        if not self.affine >= -WEIGHT_TOL:  # NaN fails too
            raise ValueError("affine weight must be a non-negative number")
        total = self.affine
        for mask, w in self.terms.items():
            if mask == 0:
                raise ValueError("empty set not allowed as a term; use affine")
            if mask < 0 or mask >> self.n:
                raise ValueError("term set outside the first n coordinates")
            if not w >= -WEIGHT_TOL:
                raise ValueError("term weights must be non-negative numbers")
            total += w
        if total > 1 + WEIGHT_TOL:
            raise ValueError(f"total weight {total} exceeds 1")

    @classmethod
    def zero(cls, n: int) -> "CoverageFunction":
        return cls(n, 0.0, {})

    def size(self) -> int:
        return sum(1 for w in self.terms.values() if w != 0.0)

    def total_weight(self) -> float:
        return self.affine + sum(self.terms.values())

    def __call__(self, x: Point) -> float:
        return eval_coverage(self, x)

    def eval_masks(self, masks: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an array of point masks."""
        out = np.full(len(masks), self.affine, dtype=np.float64)
        for mask, w in self.terms.items():
            if w:
                out += w * eval_disjunction_batch(mask, masks)
        return out


@dataclass(frozen=True)
class FourierTable:
    """Sparse table of Fourier coefficients, keyed by set bitmask."""

    n: int
    coeffs: Mapping[int, float]

    def __getitem__(self, mask: int) -> float:
        return self.coeffs.get(mask, 0.0)

    def spectral_l1(self) -> float:
        return sum(abs(v) for v in self.coeffs.values())


def eval_coverage(c: CoverageFunction, x: Point) -> float:
    if x.n != c.n:
        raise DimensionMismatch(f"function on n={c.n}, point on n={x.n}")
    v = c.affine
    for mask, w in c.terms.items():
        if mask & x.mask:
            v += w
    return v


def walsh_hadamard(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """In-order Walsh-Hadamard transform of a length-2^n array, or of the
    product values * weights when weights is given, as a new float64 array;
    the inputs are left unchanged.

    Index bit i of a table position corresponds to coordinate i being -1,
    matching the mask encoding.  Output[t] = sum_x values[x]*chi_t(x); divide
    by 2^n for Fourier coefficients.

    The call allocates two arrays: the result table and one scratch block
    of min(2^n, WHT_BLOCK) cells.  The levels of the low bits run on each
    block of that many consecutive cells in constant-geometry (Pease) form:
    every level reads the even and odd entries of one array and writes
    their sums to the first half and their differences to the second half
    of another, which rotates the block index right by one bit, so after
    all the block's levels the rotation is the identity.  The first level
    reads the values and the later ones alternate between the scratch and
    the block's slice of the result, the last landing in the result.  With
    weights, the block's product is formed first in whichever of the two
    the first level does not write, so the product takes no memory of its
    own.  The levels of the high bits then pair whole blocks, in place on
    the result through the scratch.
    Each butterfly computes x0 + x1 and x0 - x1 on the same operands as the
    in-order, level-by-level form, in the same level order, so the output is
    bit-for-bit the same as that form's of the product.
    """
    values = np.asarray(values, dtype=np.float64)
    size = len(values)
    if size == 0 or size & (size - 1):
        raise ValueError("length must be a power of two")
    if weights is not None and np.shape(weights) != values.shape:
        raise ValueError("weights must match values in length")
    out = np.empty(size)
    block = min(size, WHT_BLOCK)
    scratch = np.empty(block)
    half, levels = block // 2, block.bit_length() - 1
    for start in range(0, size, block):
        src = values[start : start + block]
        if weights is not None:
            spare = out[start : start + block] if levels % 2 == 0 else scratch
            src = np.multiply(src, weights[start : start + block], out=spare)
        if levels == 0:
            out[:] = src
        for level in range(levels):
            dst = scratch if (levels - level) % 2 == 0 else out[start : start + block]
            np.add(src[0::2], src[1::2], out=dst[:half])
            np.subtract(src[0::2], src[1::2], out=dst[half:])
            src = dst
    blocks = out.reshape(-1, block)
    span = 1
    while span < len(blocks):
        for q in range(len(blocks)):
            if not q & span:
                x0, x1 = blocks[q], blocks[q + span]
                np.subtract(x0, x1, out=scratch)
                x0 += x1
                x1[:] = scratch
        span *= 2
    return out


def dense_table(c: CoverageFunction) -> np.ndarray:
    """Evaluations on all 2^n points, indexed by point mask, built one block
    of WHT_BLOCK cells at a time, term by term in the order of c.terms.

    A term whose set meets the block's high bits adds its weight to the
    whole block.  Otherwise the cells it misses are the subcube of the block
    with the set's low bits at 0: that subcube is saved, the block gets the
    weight and the subcube is restored.  A term that misses the whole block
    is skipped.  No mask array is built; the only temporary is the saved
    subcube, at most half a block.

    The bytes are those of the per-term loop table += w * OR_S.  That
    loop's adds of w * 0 change a cell only from -0.0 to +0.0, which its
    first positive weight does to every cell still at -0.0 (an affine of
    -0.0 that no term has reached); one closing table += 0.0 does the same.
    """
    if c.n > MAX_DENSE_N:
        raise ValueError(f"dense table needs n <= {MAX_DENSE_N}")
    table = np.full(1 << c.n, c.affine)
    size = min(len(table), WHT_BLOCK)
    bits = size.bit_length() - 1
    # per term, the index of the subcube of cells its low bits miss, on a
    # block seen with axis a as bit bits - 1 - a.  Each index is made from a
    # list, at its final size: a tuple grown from a generator is resized,
    # and every such tuple freed stays on the interpreter's free list.
    terms = [
        (mask, w, tuple([slice(1) if mask >> (bits - 1 - a) & 1 else slice(None)
                         for a in range(bits)]))
        for mask, w in c.terms.items()
        if w
    ]
    for start in range(0, len(table), size):
        block = table[start : start + size]
        axes = block.reshape((2,) * bits)
        for mask, w, index in terms:
            if mask & start:
                block += w
            elif mask & (size - 1):
                missed = axes[index]
                saved = missed.copy()
                block += w
                missed[...] = saved
            # else the term misses the whole block
    negative_zero = c.affine == 0 and math.copysign(1.0, c.affine) < 0
    if negative_zero and any(w > 0 for w in c.terms.values()):
        table += 0.0
    return table


def exact_fourier(c: CoverageFunction, method: str = "analytic") -> FourierTable:
    """Exact Fourier coefficients of a coverage function.

    analytic: hat(c)(empty) = affine + sum alpha_S (1 - 2^-|S|) and, for
    T != empty, hat(c)(T) = -sum over S containing T of alpha_S 2^-|S|,
    accumulated over each term's subset lattice.
    wht: full Walsh-Hadamard transform of the 2^n evaluation table.
    """
    if method == "analytic":
        coeffs: dict[int, float] = {0: c.affine}
        for mask, w in c.terms.items():
            if w == 0.0:
                continue
            scaled = w * 2.0 ** -int(mask).bit_count()
            coeffs[0] = coeffs.get(0, 0.0) + w - scaled
            for sub in iter_submasks(mask):
                if sub:
                    coeffs[sub] = coeffs.get(sub, 0.0) - scaled
        return FourierTable(c.n, coeffs)
    if method == "wht":
        spectrum = walsh_hadamard(dense_table(c))
        spectrum /= 1 << c.n
        coeffs = {int(t): float(v) for t, v in enumerate(spectrum) if v != 0.0}
        return FourierTable(c.n, coeffs)
    raise ValueError(f"unknown method {method!r}")


def average_project(c: CoverageFunction, i_set: IndexSet) -> CoverageFunction:
    """Average c over the coordinates outside i_set, uniformly.

    Each term OR_S splits: weight alpha_S*(1 - 2^-|S \\ I|) moves to the
    affine part and alpha_S*2^-|S \\ I| lands on OR_{S i_set I}; terms
    inside i_set pass through.  The result depends only on i_set and keeps
    all coverage invariants.
    """
    if i_set.n != c.n:
        raise DimensionMismatch(f"function on n={c.n}, index set on n={i_set.n}")
    affine = c.affine
    terms: dict[int, float] = {}
    for mask, w in c.terms.items():
        outside = int(mask & ~i_set.mask).bit_count()
        kept = mask & i_set.mask
        stay = w * 2.0**-outside
        affine += w - stay
        if kept:
            terms[kept] = terms.get(kept, 0.0) + stay
        # kept == 0: the residual weight sits on OR_empty, identically 0
    return CoverageFunction(c.n, affine, terms)


def junta_variables(table: FourierTable, eps: float) -> IndexSet:
    """I = {i : |hat(c)({i})| >= eps^2/2}, the junta of the averaging bound."""
    thr = eps * eps / 2.0
    idx = [i for i in range(table.n) if abs(table[1 << i]) >= thr]
    return IndexSet.from_indices(idx, table.n)


def random_coverage(
    n: int, max_terms: int, max_arity: int, seed: int
) -> CoverageFunction:
    """Random coverage function: <= max_terms distinct sets, weights summing
    to <= 1.  Arity is uniform on 1..max_arity, then a uniform set of that
    arity; deterministic in seed.
    """
    if not 1 <= n <= MAX_COMPACT_N:
        raise ValueError(f"n must lie in 1..{MAX_COMPACT_N}")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if max_arity > n:
        raise ValueError("max_arity cannot exceed n")
    rng = child_rng(seed, 0)
    sets: set[int] = set()
    for _ in range(max_terms):
        arity = int(rng.integers(1, max_arity + 1))
        members = rng.choice(n, size=arity, replace=False)
        sets.add(int(sum(1 << int(i) for i in members)))
    raw = rng.dirichlet(np.ones(len(sets) + 1))
    scale = float(rng.random())  # keep total strictly below 1 sometimes
    weights = raw[:-1] * (scale if rng.random() < 0.5 else 1.0)
    terms = {m: float(w) for m, w in zip(sorted(sets), weights)}
    return CoverageFunction(n, 0.0, terms)


def l1_distance_mc(
    gap: Callable[[np.ndarray], np.ndarray],
    d: DistributionSpec,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo estimate of E_d |f - g| with a Hoeffding half-width.

    gap maps an array of point masks to the gaps |f - g| at those points.
    Returns (estimate, hoeffding_half_width(samples, 2)): the half-width
    assumes gaps in a range of width 2, such as [-1,1].  For gaps in [0,1]
    it is twice as wide as needed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = child_rng(seed, 0)
    total = 0.0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, 1 << 20)
        total += float(gap(sample_masks(d, chunk, rng)).sum())
        remaining -= chunk
    return total / samples, hoeffding_half_width(samples, 2)


def hoeffding_half_width(samples: int, width: float) -> float:
    """The 95% two-sided Hoeffding half-width of a mean of `samples` values
    in a range of the given width: sqrt(width^2 ln(2/0.05) / (2 samples))."""
    return float(np.sqrt(width**2 * np.log(2 / 0.05) / (2 * samples)))
