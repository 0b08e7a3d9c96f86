"""Points, index sets and sampling on the Boolean cube {-1,+1}^n.

Encoding used throughout the package: a point or index set is a bitmask in
which bit i (0-based) is set iff coordinate i is -1 ("true") / iff i belongs
to the set.  Batch operations work on numpy uint64 arrays of masks, which
caps the fast path at n <= 64; the scalar API uses Python ints and works for
any n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.random import SeedSequence, default_rng

MAX_COMPACT_N = 64


class DimensionMismatch(ValueError):
    """Operands live on cubes of different dimension."""


def parity_sign(masks: np.ndarray) -> np.ndarray:
    """(-1)**popcount(mask) as an int8 array of +-1."""
    return (1 - 2 * (np.bitwise_count(masks).astype(np.int8) & 1)).astype(np.int8)


def cell_index(masks: np.ndarray) -> np.ndarray:
    """uint64 masks as an int64 view of the same memory, with no copy, to
    gather from or scatter into a table indexed by mask: numpy casts and
    bounds-checks a uint64 index array on every fancy index, an int64 one
    it takes as it is.  Valid only for masks below 2^63, such as every cell
    of a 2^n table with n <= MAX_DENSE_N.  A mask at or above 2^63 reads as
    a negative index, which numpy wraps silently, so an array from a caller
    is range-checked before it is viewed."""
    return masks.view(np.int64)


def group_points(masks: np.ndarray, n: int):
    """(points, rows, counts) of masks on n coordinates, as np.unique(masks,
    return_inverse=True, return_counts=True) gives them, dtypes included:
    at least 2^n masks are grouped by counting over the 2^n cells, fewer by
    np.unique's sort."""
    if 1 << n > len(masks):
        return np.unique(masks, return_inverse=True, return_counts=True)
    cells = cell_index(masks)
    counts = np.bincount(cells, minlength=1 << n)
    points = np.flatnonzero(counts)
    rows = (np.cumsum(counts != 0) - 1)[cells]
    return points.astype(masks.dtype), rows, counts[points]


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@dataclass(frozen=True)
class Point:
    """A point of {-1,+1}^n.  Bit i of ``mask`` set <=> x_i = -1."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask has bits outside the first n positions")

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "Point":
        mask = 0
        for i, v in enumerate(values):
            if v == -1:
                mask |= 1 << i
            elif v != 1:
                raise ValueError("coordinates must be -1 or +1")
        return cls(mask, len(values))

    def values(self) -> list[int]:
        return [-1 if self.mask >> i & 1 else 1 for i in range(self.n)]

    def weight(self) -> int:
        """Hamming weight: number of -1 coordinates."""
        return int(self.mask).bit_count()


@dataclass(frozen=True)
class IndexSet:
    """A subset of the n coordinates, stored as a bitmask."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask has bits outside the first n positions")

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "IndexSet":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for n={n}")
            mask |= 1 << i
        return cls(mask, n)

    def indices(self) -> list[int]:
        return [i for i in range(self.n) if self.mask >> i & 1]

    def size(self) -> int:
        return int(self.mask).bit_count()

    def __contains__(self, i: int) -> bool:
        return bool(self.mask >> i & 1)


def eval_disjunction(s: IndexSet, x: Point) -> int:
    """Monotone disjunction OR_s: 1 iff some selected coordinate is -1.

    The empty set evaluates to 0; the constant-1 "empty disjunction" is
    represented by the affine term of a coverage function, never here.
    """
    if s.n != x.n:
        raise DimensionMismatch(f"index set on n={s.n}, point on n={x.n}")
    return 1 if s.mask & x.mask else 0


def eval_parity(t: IndexSet, x: Point) -> int:
    """Parity chi_t(x) = prod of the selected coordinates; empty t gives +1."""
    if t.n != x.n:
        raise DimensionMismatch(f"index set on n={t.n}, point on n={x.n}")
    return -1 if (t.mask & x.mask).bit_count() & 1 else 1


def eval_disjunction_batch(set_mask: int, masks: np.ndarray) -> np.ndarray:
    """OR_S over an array of point masks, as a float array of 0/1."""
    return ((masks & np.uint64(set_mask)) != 0).astype(np.float64)


def eval_parity_batch(set_mask: int, masks: np.ndarray) -> np.ndarray:
    """chi_T over an array of point masks, as a float array of +-1."""
    return parity_sign(masks & np.uint64(set_mask)).astype(np.float64)


# --------------------------------------------------------------------------
# Distributions


@dataclass(frozen=True)
class DistributionSpec:
    """Sampling law on the cube, one of the paper's two families.

    A product law when layer_weights is None: biases[i] = Pr[x_i = -1], each
    in (0,1); biases None means every bias is 1/2, the uniform law.
    A symmetric law otherwise: layer_weights[k] is the mass of the points of
    Hamming weight k (number of -1s), uniform within the layer.
    """

    n: int
    biases: tuple[float, ...] | None = None
    layer_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.n > MAX_COMPACT_N:
            raise ValueError(f"dimension {self.n} is over the cap of {MAX_COMPACT_N}")
        w = self.layer_weights
        if w is not None:
            if self.biases is not None:
                raise ValueError("a symmetric law takes no biases")
            if len(w) != self.n + 1:
                raise ValueError("symmetric mixture needs n+1 layer weights")
            if not all(x >= 0 for x in w):  # NaN fails too
                raise ValueError("layer weights must be non-negative")
            if not abs(sum(w) - 1.0) <= 1e-12:
                raise ValueError("layer weights must sum to 1")
        elif self.biases is not None:
            if len(self.biases) != self.n:
                raise ValueError("product distribution needs n biases")
            if not all(0.0 < b < 1.0 for b in self.biases):
                raise ValueError("product biases must lie in the open interval (0,1)")

    @property
    def layers(self) -> tuple[int, ...] | None:
        """The Hamming weights that carry mass; None for a product law."""
        if self.layer_weights is None:
            return None
        return tuple(k for k, w in enumerate(self.layer_weights) if w > 0)

    @classmethod
    def uniform(cls, n: int) -> "DistributionSpec":
        return cls(n)

    @classmethod
    def product(cls, biases: Sequence[float]) -> "DistributionSpec":
        return cls(len(biases), biases=tuple(biases))

    @classmethod
    def layer(cls, n: int, k: int) -> "DistributionSpec":
        """The symmetric law with all its weight on layer k."""
        cls.uniform(n)  # checks n, before k and before the n + 1 weights
        if not 0 <= k <= n:
            raise ValueError("layer k must lie in 0..n")
        return cls(n, layer_weights=tuple(float(i == k) for i in range(n + 1)))

    @classmethod
    def symmetric(cls, weights: Sequence[float]) -> "DistributionSpec":
        return cls(len(weights) - 1, layer_weights=tuple(weights))


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic splittable seeding: (master seed, task path) -> generator.

    Identical (seed, path) pairs always reproduce identical streams, so
    parallel and serial runs agree.
    """
    return default_rng(SeedSequence(seed, spawn_key=tuple(path)))


def child_seed(seed: int, *path: int) -> int:
    """An integer seed in [0, 2^31) drawn from the stream child_rng(seed, *path),
    for callees that take a seed rather than a generator."""
    return int(child_rng(seed, *path).integers(0, 2**31))


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """One mask per row of an (m, n) boolean array: bit i is column i."""
    n = bits.shape[1]
    return bits.astype(np.uint64) @ (np.uint64(1) << np.arange(n, dtype=np.uint64))


def _sample_layer(
    n: int, ks: int | np.ndarray, rng: np.random.Generator, m: int | None = None
) -> np.ndarray:
    """Uniform points of prescribed Hamming weights: one mask per entry of
    the array ks, or m masks of the one weight ks.

    Floyd's algorithm (Bentley and Floyd 1987), one pass over all entries
    per step: pass j draws t uniform in 0..j and sets bit t, or bit j if t is
    set, so passes n - c to n - 1 leave an exactly uniform c-subset.  An
    entry takes the last c = min(k, n - k) passes and is complemented when
    k > n / 2.  One weight builds no per-entry weight array, and every entry
    takes every pass.
    """
    m = len(ks) if m is None else m
    flip = 2 * np.asarray(ks) > n
    c = np.where(flip, n - ks, ks)
    masks = np.zeros(m, dtype=np.uint64)
    for j in range(n - c.max(initial=0), n):
        bit = np.uint64(1) << rng.integers(0, j + 1, size=m, dtype=np.uint64)
        bit[(masks & bit) != 0] = 1 << j
        if c.ndim:
            bit[c < n - j] = 0
        masks |= bit
    masks ^= np.where(flip, np.uint64((1 << n) - 1), np.uint64(0))
    return masks


def sample_masks(d: DistributionSpec, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m point masks from the distribution."""
    n, layers = d.n, d.layers
    if layers is None:
        if d.biases is None:
            return rng.integers(0, 1 << n, size=m, dtype=np.uint64)
        return _pack_bits(rng.random((m, n)) < np.asarray(d.biases)[None, :])
    if len(layers) == 1:
        return _sample_layer(n, layers[0], rng, m)
    ks = rng.choice(n + 1, size=m, p=np.asarray(d.layer_weights))
    return _sample_layer(n, ks.astype(np.int64), rng)


def sample(d: DistributionSpec, rng: np.random.Generator) -> Point:
    """Draw a single point."""
    return Point(int(sample_masks(d, 1, rng)[0]), d.n)


# --------------------------------------------------------------------------
# Shared text format: one point per line, characters in {0,1}, '1' <=> -1.


def format_point_line(mask: int, n: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def parse_point_line(line: str) -> tuple[int, int]:
    """Returns (mask, n)."""
    line = line.strip()
    if not line or set(line) - {"0", "1"}:
        raise ValueError(f"bad point line {line!r}: expected characters in {{0,1}}")
    mask = 0
    for i, ch in enumerate(line):
        if ch == "1":
            mask |= 1 << i
    return mask, len(line)
