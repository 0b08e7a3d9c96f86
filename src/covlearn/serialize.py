"""External file formats.

- Coverage functions: JSON with 1-based index lists.
- Fourier tables: CSV lines "set-bitmask-hex,coefficient".
- Hypotheses (sparse polynomials, subcube decision trees, coverage
  functions): JSON with a "type" tag.
- Datasets: the shared text format, one point per line, n characters in
  {0,1}, '1' at position i meaning x_i = -1; multiset rows repeat.
- Release summaries: JSON with a variant tag and a metadata block; a
  synthetic dataset rides along in expanded text-format lines.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Iterable

import numpy as np

from .coverage import CoverageFunction, FourierTable
from .cube import format_point_line, parse_point_line
from .learners import (
    Coefficients,
    PmacHypothesis,
    PmacNode,
    PmacPolyLeaf,
    PmacZeroLeaf,
    SparsePolynomial,
)
from .privacy import Dataset, ReleaseSummary

DATASET_EXPANSION_CAP = 1_000_000
ROW_BLOCK = 4096  # coefficient rows dump_json renders per chunk


def as_integer(value, name: str = "") -> int:
    """int(value) for an integral number; a boolean, a string or a
    non-integral number is refused rather than converted, naming the field
    name if given."""
    if isinstance(value, (bool, str, bytes)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        field = f"field {name!r}: " if name else ""
        raise ValueError(f"{field}expected an integer, got {value!r}")
    return int(value)


def _mask_to_indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _indices_to_mask(indices: Iterable[int], n: int) -> int:
    mask = 0
    for i in indices:
        i = as_integer(i, "set")
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range for n={n} (indices are 1-based)")
        if mask >> (i - 1) & 1:
            raise ValueError(f"set {indices!r} repeats index {i}")
        mask |= 1 << (i - 1)
    return mask


# --------------------------------------------------------------------------
# Coverage functions


def coverage_to_json(c: CoverageFunction) -> dict:
    return {
        "n": c.n,
        "affine": c.affine,
        "terms": [
            {"set": _mask_to_indices(m), "weight": w}
            for m, w in sorted(c.terms.items())
        ],
    }


def coverage_from_json(obj: dict) -> CoverageFunction:
    try:
        n = as_integer(obj["n"], "n")
        affine = float(obj["affine"])
        terms: dict[int, float] = {}
        for entry in obj["terms"]:
            mask = _indices_to_mask(entry["set"], n)
            terms[mask] = terms.get(mask, 0.0) + float(entry["weight"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad coverage-function JSON: {exc}") from exc
    return CoverageFunction(n, affine, terms)


# --------------------------------------------------------------------------
# Fourier tables


def fourier_to_csv(t: FourierTable) -> str:
    lines = [f"{m:x},{v!r}" for m, v in sorted(t.coeffs.items()) if v != 0.0]
    return "\n".join(lines) + "\n"


def fourier_from_csv(text: str, n: int) -> FourierTable:
    """Refuses a set outside [0, 2^n) and a set given twice."""
    coeffs: dict[int, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            mask_hex, value = line.split(",")
            mask = int(mask_hex, 16)
            if mask < 0 or mask >> n:
                raise ValueError(f"set outside [0, 2^{n})")
            _put_coeff(coeffs, mask, float(value))
        except ValueError as exc:
            raise ValueError(f"bad Fourier CSV line {line!r}: {exc}") from exc
    return FourierTable(n, coeffs)


# --------------------------------------------------------------------------
# Hypotheses


def _put_coeff(coeffs: dict[int, float], mask: int, value: float) -> None:
    if mask in coeffs:
        raise ValueError(f"set {_mask_to_indices(mask)} is given twice")
    coeffs[mask] = value


def _coeffs_from_json(raw, n: int) -> dict[int, float]:
    coeffs: dict[int, float] = {}
    for e in raw:
        _put_coeff(coeffs, _indices_to_mask(e["set"], n), float(e["value"]))
    return coeffs


def _coeff_rows(c: Coefficients) -> list:
    """c's rows {"set": [1-based indices], "value": float}, masks ascending."""
    sets = map(_mask_to_indices, c.masks.tolist())
    return [{"set": t, "value": v} for t, v in zip(sets, c.values.tolist())]


def polynomial_to_json(p: SparsePolynomial, arrays: bool = False) -> dict:
    """A JSON-native tree, as every *_to_json gives; with arrays, the same
    tree with each coefficient list left as its Coefficients node, which
    dump_json writes as the same rows, straight from the arrays."""
    rows = (lambda c: c) if arrays else _coeff_rows
    obj: dict = {"type": "polynomial", "n": p.n, "basis": p.basis, "clamp": p.clamp}
    if p.basis == "parity":
        obj["coeffs"] = rows(p.coeffs)
    else:
        obj["layers"] = {str(k): rows(c) for k, c in p.layers.items()}
    return obj


def polynomial_from_json(obj: dict) -> SparsePolynomial:
    n = as_integer(obj["n"], "n")
    basis = obj["basis"]
    clamp = bool(obj.get("clamp", False))
    if basis == "parity":
        return SparsePolynomial(n, basis, _coeffs_from_json(obj["coeffs"], n), clamp=clamp)
    layers = {int(k): _coeffs_from_json(c, n) for k, c in obj["layers"].items()}
    return SparsePolynomial(n, basis, layers=layers, clamp=clamp)


def _pmac_node_to_json(node, arrays: bool) -> dict:
    if isinstance(node, PmacZeroLeaf):
        return {"type": "zero"}
    if isinstance(node, PmacPolyLeaf):
        return {
            "type": "leaf",
            "poly": polynomial_to_json(node.poly, arrays),
            "m_tilde": node.m_tilde,
            "shift": node.shift,
            "floor": node.floor,
        }
    return {
        "type": "node",
        "var": node.var + 1,
        "minus": _pmac_node_to_json(node.minus, arrays),
        "plus": _pmac_node_to_json(node.plus, arrays),
    }


def _pmac_node_from_json(obj: dict, n: int):
    kind = obj["type"]
    if kind == "zero":
        return PmacZeroLeaf()
    if kind == "leaf":
        poly = polynomial_from_json(obj["poly"])
        if poly.n != n:
            raise ValueError(f"leaf polynomial on n={poly.n} in a tree on n={n}")
        m_tilde = float(obj["m_tilde"])
        # a file from before leaves carried their floor: every leaf had m~/4
        floor = float(obj.get("floor", m_tilde / 4.0))
        return PmacPolyLeaf(poly, m_tilde, float(obj["shift"]), floor)
    if kind == "node":
        var = as_integer(obj["var"], "var")
        if not 1 <= var <= n:
            raise ValueError(f"split variable {var} out of range for n={n} (1-based)")
        return PmacNode(
            var - 1,
            _pmac_node_from_json(obj["minus"], n),
            _pmac_node_from_json(obj["plus"], n),
        )
    raise ValueError(f"unknown tree node type {kind!r}")


def pmac_to_json(h: PmacHypothesis, arrays: bool = False) -> dict:
    return {"type": "pmac", "n": h.n, "root": _pmac_node_to_json(h.root, arrays)}


def pmac_from_json(obj: dict) -> PmacHypothesis:
    n = as_integer(obj["n"], "n")
    return PmacHypothesis(n, _pmac_node_from_json(obj["root"], n))


def hypothesis_to_json(h, arrays: bool = False) -> dict:
    if isinstance(h, SparsePolynomial):
        return polynomial_to_json(h, arrays)
    if isinstance(h, PmacHypothesis):
        return pmac_to_json(h, arrays)
    if isinstance(h, CoverageFunction):
        return {**coverage_to_json(h), "type": "coverage"}
    raise TypeError(f"cannot serialize hypothesis of type {type(h).__name__}")


def hypothesis_from_json(obj: dict):
    kind = obj.get("type")
    if kind == "polynomial":
        return polynomial_from_json(obj)
    if kind == "pmac":
        return pmac_from_json(obj)
    if kind == "coverage":
        return coverage_from_json(obj)
    raise ValueError(f"unknown hypothesis type {kind!r}")


# --------------------------------------------------------------------------
# Datasets (shared text format)


def dataset_to_lines(d: Dataset) -> list[str]:
    if d.size > DATASET_EXPANSION_CAP:
        raise ValueError(
            f"dataset of size {d.size} exceeds the text expansion cap "
            f"{DATASET_EXPANSION_CAP}; keep it in aggregated form"
        )
    lines = []
    order = np.argsort(d.masks)
    for mask, mult in zip(d.masks[order], d.mults[order]):
        lines.extend([format_point_line(int(mask), d.n)] * int(mult))
    return lines


def dataset_from_lines(lines: Iterable[str]) -> Dataset:
    masks = []
    n = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        mask, width = parse_point_line(line)
        if n is None:
            n = width
        elif width != n:
            raise ValueError(f"inconsistent point width: {width} after {n}")
        masks.append(mask)
    if n is None:
        raise ValueError("dataset file contains no points")
    return Dataset.from_points(masks, n)


def dataset_to_text(d: Dataset) -> str:
    return "\n".join(dataset_to_lines(d)) + "\n"


def dataset_from_text(text: str) -> Dataset:
    return dataset_from_lines(text.splitlines())


# --------------------------------------------------------------------------
# Release summaries


def summary_to_json(s: ReleaseSummary, arrays: bool = False) -> dict:
    obj: dict = {
        "variant": s.variant,
        "n": s.n,
        "metadata": {
            "epsilon": s.epsilon,
            "delta": s.delta,
            "alpha_bar": s.alpha_bar,
            "queries_used": s.queries_used,
            "dataset_size": s.dataset_size,
        },
    }
    if s.poly is not None:
        obj["poly"] = polynomial_to_json(s.poly, arrays)
    if s.synthetic is not None:
        obj["synthetic"] = dataset_to_lines(s.synthetic)
    return obj


def summary_from_json(obj: dict) -> ReleaseSummary:
    meta = obj["metadata"]
    n = as_integer(obj["n"], "n")
    poly = polynomial_from_json(obj["poly"]) if "poly" in obj else None
    synthetic = None
    if obj.get("synthetic"):
        synthetic = dataset_from_lines(obj["synthetic"])
    elif "synthetic" in obj:
        # an empty synthetic dataset has no line to give its width
        synthetic = Dataset.from_points([], n)
    return ReleaseSummary(
        obj["variant"],
        n,
        float(meta["alpha_bar"]),
        float(meta["epsilon"]),
        float(meta["delta"]),
        as_integer(meta["queries_used"], "queries_used"),
        as_integer(meta["dataset_size"], "dataset_size"),
        poly=poly,
        synthetic=synthetic,
    )


# --------------------------------------------------------------------------
# JSON files: the text of json.dump(obj, indent=2, sort_keys=True), streamed.
# json's indented encoder is pure Python (its C encoder ignores indent), so
# this writer renders the shapes covlearn writes and hands the rest to json.


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf or x == -math.inf:
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _scalar(x) -> str | None:
    """json's text for a str, number, bool or None; None for anything else."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    return _float(x) if isinstance(x, float) else None


def _coeff_chunks(c: Coefficients, ind: str):
    """The list _coeff_rows(c) as json.dumps writes it at indent ind, rendered
    from c's arrays ROW_BLOCK rows at a time.  A row whose set has k
    indices is k + 2 pieces: its opening, one piece per index, looked up by
    bit position, and its closing, which holds the value.  A block whose
    values are all finite renders them with float.__repr__, json's text of
    a finite float."""
    r = ind + "  "
    index = np.array([f"\n{r}    {i}" for i in range(1, 65)], dtype=object)
    index = np.concatenate([index, "," + index])  # first in its set, later
    opening = f',\n{r}{{\n{r}  "set": ['
    # closings after an empty set and after a set's last index
    closing = np.array([f"],\n{r}  ", f"\n{r}  ],\n{r}  "], dtype=object)
    closing += '"value": '
    for start in range(0, len(c), ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        masks = c.masks[block].astype("<u8")
        bits = np.unpackbits(masks.view(np.uint8), bitorder="little")
        at = np.flatnonzero(bits.view(bool))  # 64 * row + bit
        row, later = at >> 6, np.r_[False, at[1:] >> 6 == at[:-1] >> 6]
        sizes = np.bincount(row, minlength=len(masks))
        vals = c.values[block]
        render = float.__repr__ if np.isfinite(vals).all() else _float
        values = np.array(list(map(render, vals.tolist())), dtype=object)
        pieces = np.empty(len(at) + 2 * len(masks), dtype=object)
        pieces.fill(opening)
        pieces[np.arange(len(at)) + 2 * row + 1] = index[(at & 63) + 64 * later]
        ends = closing[np.minimum(sizes, 1)] + values + f"\n{r}}}"
        pieces[np.cumsum(sizes + 2) - 1] = ends
        if start == 0:
            pieces[0] = "[" + opening[1:]
        yield "".join(pieces.tolist())
    yield "\n" + ind + "]" if len(c) else "[]"


def _json_chunks(obj, ind: str):
    """Pieces of json.dumps(obj, indent=2, sort_keys=True) with every line
    after the first indented by ind."""
    text = _scalar(obj)
    inner = ind + "  "
    if text is not None:
        yield text
    elif type(obj) is dict and obj and all(type(k) is str for k in obj):
        lead = "{"
        for key, value in sorted(obj.items()):
            yield f"{lead}\n{inner}{encode_basestring_ascii(key)}: "
            yield from _json_chunks(value, inner)
            lead = ","
        yield "\n" + ind + "}"
    elif type(obj) is list and obj:
        lead = "["
        for item in obj:
            yield f"{lead}\n{inner}"
            yield from _json_chunks(item, inner)
            lead = ","
        yield "\n" + ind + "]"
    elif isinstance(obj, Coefficients):
        yield from _coeff_chunks(obj, ind)
    else:
        yield json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + ind)


def dump_json(obj: dict, path: str) -> None:
    """Write obj as json.dump(obj, fh, indent=2, sort_keys=True) plus a
    newline would, byte for byte, in one streamed pass."""
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(obj, ""))
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
