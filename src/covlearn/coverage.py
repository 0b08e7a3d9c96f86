"""Coverage functions: representation, exact Fourier analysis, projections.

A coverage function here is affine + sum over non-empty sets S of
alpha_S * OR_S with alpha >= 0 and affine + sum(alpha) <= 1, so the range
is [0,1].  The affine part is stored separately instead of as a near-OR
term, keeping evaluation exact.
"""

from __future__ import annotations

import mmap
import threading
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .cube import (
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


def walsh_hadamard(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """In-order Walsh-Hadamard transform of a length-2^n array.

    Index bit i of a table position corresponds to coordinate i being -1,
    matching the mask encoding.  Output[t] = sum_x values[x]*chi_t(x); divide
    by 2^n for Fourier coefficients.  out=None returns a new array and
    leaves values unchanged; out=values, which must then be a flat float64
    array, transforms values in place and returns it.  Any other out is
    refused.

    Constant-geometry (Pease) form: every level reads the even and odd
    entries of one buffer and writes their sums to the first half and their
    differences to the second half of the other.  Each level therefore
    rotates the index right by one bit, so level k pairs the entries whose
    original indices differ in bit k, and after n levels the rotation is
    the identity.  Each butterfly computes x0 + x1 and x0 - x1 on the same
    operands as the in-order, level-by-level form, so the output is
    bit-for-bit the same as that form's.  The other buffer is a prefix of
    this thread's scratch, which grows to the largest transform the thread
    has run and is kept; after an odd number of levels one copy lands the
    result in out.
    """
    size = len(values)
    if size == 0 or size & (size - 1):
        raise ValueError("length must be a power of two")
    if out is None:
        out = np.array(values, dtype=np.float64)
    elif out is not values:
        raise ValueError("out must be None or values itself")
    elif out.dtype != np.float64 or out.ndim != 1:
        raise ValueError("an in-place transform needs a flat float64 array")
    if len(getattr(_scratch, "buf", ())) < size:
        buf = mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE)
        _scratch.buf = np.frombuffer(buf, dtype=np.float64)
    half = size // 2
    a, b = out, _scratch.buf[:size]
    for _ in range(size.bit_length() - 1):
        np.add(a[0::2], a[1::2], out=b[:half])
        np.subtract(a[0::2], a[1::2], out=b[half:])
        a, b = b, a
    if a is not out:
        out[...] = a
    return out


# buf: each thread's grow-only WHT buffer, in its own private anonymous
# mapping.  In the malloc heap it would pin the heap's top, so memory freed
# below it could not be returned (learn-pmac's peak RSS rose 0.5 MB); being
# private, a forked child that inherits it writes to copy-on-write pages.
_scratch = threading.local()


def dense_table(c: CoverageFunction) -> np.ndarray:
    """Evaluations on all 2^n points, indexed by point mask."""
    if c.n > MAX_DENSE_N:
        raise ValueError(f"dense table needs n <= {MAX_DENSE_N}")
    masks = np.arange(1 << c.n, dtype=np.uint64)
    return c.eval_masks(masks)


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
        spectrum = dense_table(c)
        walsh_hadamard(spectrum, out=spectrum)
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
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    d: DistributionSpec,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo estimate of E_d |f - g| with a Hoeffding half-width.

    f and g map arrays of point masks to value arrays.  Returns (estimate,
    hoeffding_half_width(samples, 2)): the half-width assumes gaps in a
    range of width 2, such as [-1,1].  For gaps in [0,1] it is twice as wide
    as needed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = child_rng(seed, 0)
    total = 0.0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, 1 << 20)
        masks = sample_masks(d, chunk, rng)
        total += float(np.abs(f(masks) - g(masks)).sum())
        remaining -= chunk
    return total / samples, hoeffding_half_width(samples, 2)


def hoeffding_half_width(samples: int, width: float) -> float:
    """The 95% two-sided Hoeffding half-width of a mean of `samples` values
    in a range of the given width: sqrt(width^2 ln(2/0.05) / (2 samples))."""
    return float(np.sqrt(width**2 * np.log(2 / 0.05) / (2 * samples)))
