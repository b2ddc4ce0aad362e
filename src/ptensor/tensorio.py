"""JSON file formats and deterministic serialization.

Tensor files:
    {"order": m, "dim": n, "layout": "coo"|"dense", "symmetric": bool,
     "entries": ..., "provenance": {...}?}
    dense entries: the full length-n^m row-major array.
    coo entries:   a list of [i1, ..., im, value] with 0-based indices;
                   omitted entries are zero.  With symmetric=true each
                   listed entry is replicated to all index permutations and
                   duplicate listings of the same orbit must agree to 1e-12.

Vector files:  {"dim": n, "entries": [...]}.

All floats are emitted with 17 significant digits, and maps keep their
insertion order, so equal inputs always serialize to identical bytes and
files round-trip bit exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np

from .core import Tensor, symmetric_within, symmetry_deviation
from .errors import ParseError

# Largest dim**order a tensor file may declare: 2**24 = 8**8 entries (128 MiB
# of float64), far above desk scale.  Larger headers are rejected before any
# entry is parsed or any array is allocated.
MAX_ENTRIES = 2**24
# numpy arrays have at most 64 axes.
MAX_ORDER = 64


# ---------------------------------------------------------------------------
# canonical JSON


def format_float(v: float) -> str:
    v = float(v)
    if math.isnan(v) or math.isinf(v):
        raise ValueError("cannot serialize non-finite float")
    return "%.17g" % v


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: fixed map order, %.17g floats."""
    parts: list[str] = []
    _write_canonical(obj, parts)
    return "".join(parts)


def _write_canonical(obj, parts: list):
    if isinstance(obj, dict):
        parts.append("{")
        first = True
        for key, val in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            if not first:
                parts.append(",")
            first = False
            parts.append(json.dumps(key))
            parts.append(":")
            _write_canonical(val, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        if isinstance(obj, np.ndarray):
            obj = obj.tolist()
        parts.append("[")
        for i, val in enumerate(obj):
            if i:
                parts.append(",")
            _write_canonical(val, parts)
        parts.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)} canonically")


# ---------------------------------------------------------------------------
# provenance checksums


def tensor_checksum(order: int, dim: int, values, claims: dict) -> str:
    """Checksum binding generator claims to the exact entries they describe."""
    payload = {
        "order": int(order),
        "dim": int(dim),
        "entries": [float(v) for v in np.asarray(values, dtype=float).reshape(-1)],
        "claims": {k: claims[k] for k in sorted(claims)},
    }
    return hashlib.sha256(dumps_canonical(payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# writing


def tensor_to_json_dict(A: Tensor, layout: str = "dense") -> dict:
    if layout not in ("dense", "coo"):
        raise ValueError(f"unknown layout {layout!r}")
    out = {
        "order": A.order,
        "dim": A.dim,
        "layout": layout,
        "symmetric": bool(A.symmetric),
    }
    if layout == "dense":
        out["entries"] = [float(v) for v in A.values]
    else:
        entries = []
        for index in np.argwhere(A.data != 0.0):
            idx = tuple(int(i) for i in index)
            if A.symmetric and idx != tuple(sorted(idx)):
                continue  # one representative per orbit
            entries.append([*idx, float(A.data[idx])])
        out["entries"] = entries
    if A.provenance:
        # Only trusted claims get a checksum, so untrusted ones read back
        # untrusted.
        claims = {k: v for k, v in A.provenance.items() if k != "checksum"}
        prov = dict(claims)
        if A.provenance_trusted:
            prov["checksum"] = tensor_checksum(A.order, A.dim, A.values, claims)
        out["provenance"] = prov
    return out


def write_text(text: str, path=None) -> None:
    """Write text and a trailing newline, as UTF-8 to the file at path, or
    to standard output when no path is given."""
    if not path:
        sys.stdout.write(text + "\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_tensor(A: Tensor, path, layout: str = "dense") -> None:
    write_text(dumps_canonical(tensor_to_json_dict(A, layout=layout)), path)


def vector_to_json_dict(x) -> dict:
    v = np.asarray(x, dtype=float).reshape(-1)
    return {"dim": int(v.size), "entries": [float(t) for t in v]}


def write_vector(x, path) -> None:
    write_text(dumps_canonical(vector_to_json_dict(x)), path)


# ---------------------------------------------------------------------------
# parsing


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _is_int(v) -> bool:
    """An int that is not a bool: JSON true and false load as bool, a
    subclass of int, and numpy reads a bool index as a mask."""
    return isinstance(v, int) and not isinstance(v, bool)


def parse_numbers(values, what: str) -> np.ndarray:
    """values, a list of JSON numbers, as a float64 array.  ParseError
    unless each one is an int or a float (JSON true and false load as bool,
    a subclass of int) and converts to a finite float."""
    _require(all(type(v) in (int, float) for v in values), f"{what} must be JSON numbers")
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:  # an integer literal beyond the float64 range
        raise ParseError(f"{what} must be finite") from None
    _require(bool(np.all(np.isfinite(arr))), f"{what} must be finite")
    return arr


def require_size(order: int, dim: int) -> None:
    """ParseError unless order <= MAX_ORDER and dim**order <= MAX_ENTRIES."""
    _require(
        order <= MAX_ORDER and dim**order <= MAX_ENTRIES,
        f"tensor of order {order} and dim {dim} is too large: at most "
        f"{MAX_ENTRIES} entries and order {MAX_ORDER} are accepted",
    )


def parse_tensor(obj) -> Tensor:
    _require(isinstance(obj, dict), "tensor file must contain a JSON object")
    for key in ("order", "dim", "layout", "symmetric", "entries"):
        _require(key in obj, f"tensor object is missing the {key!r} field")
    order, dim = obj["order"], obj["dim"]
    _require(_is_int(order) and order >= 2, "order must be an integer >= 2")
    _require(_is_int(dim) and dim >= 1, "dim must be an integer >= 1")
    require_size(order, dim)
    layout = obj["layout"]
    _require(layout in ("dense", "coo"), f"unknown layout {layout!r}")
    symmetric = obj["symmetric"]
    _require(isinstance(symmetric, bool), "symmetric must be a boolean")
    entries = obj["entries"]
    _require(isinstance(entries, list), "entries must be a list")

    if layout == "dense":
        _require(
            len(entries) == dim**order,
            f"dense entries must have length {dim ** order}, got {len(entries)}",
        )
        data = parse_numbers(entries, "tensor entries").reshape((dim,) * order)
    else:
        data = _parse_coo(entries, order, dim, symmetric)

    if symmetric and not symmetric_within(data):
        raise ParseError(
            f"symmetric flag set but entries deviate by {symmetry_deviation(data):.3e} "
            "under transposition"
        )

    provenance = None
    trusted = False
    if "provenance" in obj and obj["provenance"] is not None:
        prov = obj["provenance"]
        _require(isinstance(prov, dict), "provenance must be an object")
        claims = {k: v for k, v in prov.items() if k != "checksum"}
        stored = prov.get("checksum")
        trusted = stored == tensor_checksum(order, dim, data, claims)
        provenance = claims

    return Tensor(data, symmetric=symmetric, provenance=provenance, provenance_trusted=trusted)


def _distinct_orderings(key: tuple):
    """Each distinct ordering of the sorted multi-index key, once, so a
    symmetric entry costs the size of its orbit, not order! steps."""
    if not key:
        yield ()
    for j, first in enumerate(key):
        if j == 0 or first != key[j - 1]:
            for rest in _distinct_orderings(key[:j] + key[j + 1 :]):
                yield (first,) + rest


def _parse_coo(entries, order: int, dim: int, symmetric: bool) -> np.ndarray:
    data = np.zeros((dim,) * order)
    seen: dict[tuple, float] = {}
    for item in entries:
        _require(
            isinstance(item, list) and len(item) == order + 1,
            f"coo entries must be [i1, ..., i{order}, value] lists",
        )
        raw_idx, value = item[:-1], item[-1]
        _require(
            all(_is_int(i) for i in raw_idx),
            f"coo indices must be integers, got {raw_idx}",
        )
        idx = tuple(raw_idx)
        _require(
            all(0 <= i < dim for i in idx),
            f"coo index {idx} out of range for dimension {dim}",
        )
        value = float(parse_numbers([value], "tensor entries")[0])
        key = tuple(sorted(idx)) if symmetric else idx
        if key in seen:
            _require(
                abs(seen[key] - value) <= 1e-12,
                f"conflicting duplicate listings for index {idx}: "
                f"{seen[key]!r} vs {value!r}",
            )
            continue
        seen[key] = value
        if symmetric:
            for perm in _distinct_orderings(key):
                data[perm] = value
        else:
            data[idx] = value
    return data


def read_tensor(path) -> Tensor:
    return parse_tensor(_load_json(path))


def parse_vector(obj) -> np.ndarray:
    _require(isinstance(obj, dict), "vector file must contain a JSON object")
    _require("dim" in obj and "entries" in obj, "vector object needs dim and entries")
    dim, entries = obj["dim"], obj["entries"]
    _require(_is_int(dim) and dim >= 1, "dim must be an integer >= 1")
    _require(isinstance(entries, list) and len(entries) == dim,
             f"entries must be a list of length {dim}")
    return parse_numbers(entries, "vector entries")


def read_vector(path) -> np.ndarray:
    return parse_vector(_load_json(path))


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
