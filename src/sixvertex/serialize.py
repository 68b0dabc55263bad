"""File formats: compact binary ensembles, lossless JSON debug form, the
JSON text of every document the CLI writes, and plain-text point sets.

Binary layout (all integers little-endian):

    magic   4 bytes  b"S6VE"
    version u16      format version, currently 1
    flags   u16      bit 0: variant (0 = s6v, 1 = cs6v)
    width   u32
    height  u32
    n_colors u16
    reserved u16     zero
    meta_len u32     length of a UTF-8 JSON metadata blob (may be 0)
    meta    bytes    resolved run configuration and provenance
    planes  bytes    per color c = 1..n_colors: the v plane then the h plane
                     (width*height bits, index (x-1)*height + (y-1)), then
                     the left boundary plane (height bits) and the bottom
                     boundary plane (width bits); each plane is packed
                     little-endian bit order and padded to whole 64-bit words.

JSON text: ``json_chunks(doc)`` is ``json.dumps(doc, indent=2, sort_keys=True)`` byte for byte,
where a 1-D or (N, 2) integer array is written as its ``.tolist()`` would be.
"""

from __future__ import annotations

import json
import struct
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .degenerations import PointSet
from .lattice import PathEnsemble, _mask_dtype
from .lmatrix import MAX_COLORS

MAGIC = b"S6VE"
VERSION = 1


def _plane_bytes(count: int) -> int:
    """Packed size of a plane of count bits, padded to whole 64-bit words."""
    return ((count + 7) // 8 + 7) // 8 * 8


def _pack_plane(bits: np.ndarray) -> bytes:
    packed = np.packbits(bits.astype(np.uint8).reshape(-1), bitorder="little")
    pad = (-len(packed)) % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
    return packed.tobytes()


def _unpack_plane(buf: bytes, offset: int, count: int) -> tuple[np.ndarray, int]:
    nbytes = _plane_bytes(count)
    arr = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=offset)
    bits = np.unpackbits(arr, count=count, bitorder="little")
    return bits, offset + nbytes


def _zero_planes(width: int, height: int, dtype) -> list[np.ndarray]:
    """Empty v, h, left and bottom planes, in file order."""
    return [np.zeros(shape, dtype=dtype) for shape in ((width, height), (width, height),
                                                      (height,), (width,))]


def ensemble_to_bytes(e: PathEnsemble, meta: dict | None = None) -> bytes:
    meta_blob = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    head = MAGIC + struct.pack(
        "<HHIIHHI",
        VERSION,
        1 if e.variant == "cs6v" else 0,
        e.width,
        e.height,
        e.n_colors,
        0,
        len(meta_blob),
    )
    planes = [_pack_plane((a >> c) & 1) for c in range(e.n_colors)
              for a in (e.v_edges, e.h_edges, e.boundary_left, e.boundary_bottom)]
    return head + meta_blob + b"".join(planes)


def ensemble_from_bytes(buf: bytes) -> tuple[PathEnsemble, dict]:
    if buf[:4] != MAGIC:
        raise ValueError("not an ensemble file (bad magic)")
    if len(buf) < 24:
        raise ValueError("truncated ensemble data")
    version, flags, width, height, n_colors, reserved, meta_len = struct.unpack(
        "<HHIIHHI", buf[4:24])
    if version != VERSION:
        raise ValueError(f"unsupported format version {version}")
    if flags & ~1:
        raise ValueError(f"flags {flags:#x} set bits other than bit 0 (the variant)")
    if reserved:
        raise ValueError(f"reserved field {reserved:#x} is not zero")
    if not 1 <= n_colors <= MAX_COLORS:
        raise ValueError(f"n_colors {n_colors} outside 1..{MAX_COLORS}")
    # The header fixes the total length (so meta_len must fit); check it
    # before allocating anything.
    offset = 24 + meta_len
    expected = offset + n_colors * (2 * _plane_bytes(width * height)
                                    + _plane_bytes(height) + _plane_bytes(width))
    if len(buf) != expected:
        raise ValueError(f"ensemble data is {len(buf)} bytes, "
                         f"its header implies {expected}")
    meta = json.loads(buf[24:offset].decode("utf-8")) if meta_len else {}
    if not isinstance(meta, dict):
        raise ValueError(f"metadata {meta!r} is not a JSON object")
    dtype = _mask_dtype(n_colors)
    planes = _zero_planes(width, height, dtype)
    for c in range(n_colors):
        for arr in planes:
            bits, offset = _unpack_plane(buf, offset, arr.size)
            arr |= (bits.astype(dtype) << c).reshape(arr.shape)
    variant = "cs6v" if flags & 1 else "s6v"
    return PathEnsemble(variant, n_colors, width, height, *planes), meta


def write_ensemble(e: PathEnsemble, path, meta: dict | None = None) -> None:
    with open(path, "wb") as f:
        f.write(ensemble_to_bytes(e, meta))


def read_ensemble(path) -> tuple[PathEnsemble, dict]:
    with open(path, "rb") as f:
        return ensemble_from_bytes(f.read())


def _ensemble_doc(e: PathEnsemble, meta: dict | None = None) -> dict:
    """ensemble_to_json with each color's v and h as (N, 2) int arrays of
    [x, y] pairs and left and bottom as 1-D int arrays; json_chunks writes
    it as the same text."""
    colors = [{
        "color": c,
        "v": np.argwhere((e.v_edges >> (c - 1)) & 1) + 1,
        "h": np.argwhere((e.h_edges >> (c - 1)) & 1) + 1,
        "left": np.flatnonzero((e.boundary_left >> (c - 1)) & 1) + 1,
        "bottom": np.flatnonzero((e.boundary_bottom >> (c - 1)) & 1) + 1,
    } for c in range(1, e.n_colors + 1)]
    out = {"format": "sixvertex-ensemble", "version": VERSION, "variant": e.variant,
           "width": e.width, "height": e.height, "n_colors": e.n_colors, "colors": colors}
    if meta is not None:
        out["meta"] = meta
    return out


def ensemble_to_json(e: PathEnsemble, meta: dict | None = None) -> dict:
    """Lossless debug form: explicit edge coordinate lists per color."""
    doc = _ensemble_doc(e, meta)
    doc["colors"] = [{k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in entry.items()}
                     for entry in doc["colors"]]
    return doc


def json_chunks(doc, indent: str = "\n"):
    """Chunks of json.dumps(doc, indent=2, sort_keys=True), byte for byte;
    indent is the newline and indentation of doc's own level.  Numbers are
    written as json writes them; a 1-D or (N, 2) integer array as its
    .tolist() would be, in one join (any other array is json's TypeError);
    other scalars and empty containers are json's own text.  Dict keys must
    be strings."""
    inner = indent + "  "
    if isinstance(doc, dict) and doc:
        for i, (k, v) in enumerate(sorted(doc.items())):
            yield f"{',' if i else '{'}{inner}{_quote(k)}: "  # a TypeError unless k is a str
            yield from json_chunks(v, inner)
        yield indent + "}"
    elif isinstance(doc, np.ndarray) and doc.dtype.kind in "iu" \
            and (doc.ndim == 1 or doc.shape[1:] == (2,)):
        item = "%d" if doc.ndim == 1 else f"[{inner}  %d,{inner}  %d{inner}]"
        text = ("," + inner).join([item] * len(doc)) % tuple(doc.ravel().tolist())
        yield f"[{inner}{text}{indent}]" if len(doc) else "[]"
    elif isinstance(doc, (list, tuple)) and doc:
        for i, v in enumerate(doc):
            yield ("," if i else "[") + inner
            yield from json_chunks(v, inner)
        yield indent + "]"
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        text = (float.__repr__ if isinstance(doc, float) else int.__repr__)(doc)
        yield {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    else:
        yield json.dumps(doc)


def _integer(value, low: int, high: int, what: str) -> int:
    """value, which must be an integer (not a bool) in low..high."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not low <= value <= high:
        raise ValueError(f"{what} {value!r} outside {low}..{high}")
    return int(value)


def _index(value, extent: int, what: str) -> int:
    """0-based index of a 1-based coordinate or color, which must lie in 1..extent."""
    return _integer(value, 1, extent, what) - 1


def ensemble_from_json(doc: dict) -> PathEnsemble:
    """Inverse of ensemble_to_json, checked as the binary reader is: all six
    header keys, version VERSION, u32 extents, n_colors in 1..MAX_COLORS, and
    colors a list of objects with a color and lists v and h of [x, y] pairs,
    left and bottom."""
    if not isinstance(doc, dict) or doc.get("format") != "sixvertex-ensemble":
        raise ValueError("not an ensemble document")
    if missing := [k for k in ("version", "width", "height", "n_colors", "colors", "variant")
                   if k not in doc]:
        raise ValueError(f"ensemble document has no {missing[0]}")
    _integer(doc["version"], VERSION, VERSION, "version")
    width = _integer(doc["width"], 0, 2**32 - 1, "width")
    height = _integer(doc["height"], 0, 2**32 - 1, "height")
    n = _integer(doc["n_colors"], 1, MAX_COLORS, "n_colors")
    if not isinstance(doc["colors"], list):
        raise ValueError(f"colors {doc['colors']!r} is not a list")
    dtype = _mask_dtype(n)
    v, hE, left, bottom = _zero_planes(width, height, dtype)
    for i, entry in enumerate(doc["colors"]):
        if not (isinstance(entry, dict) and "color" in entry
                and all(isinstance(entry.get(k), list) for k in ("v", "h", "left", "bottom"))
                and all(isinstance(xy, list) and len(xy) == 2
                        for xy in chain(entry["v"], entry["h"]))):
            raise ValueError(f"colors[{i}] needs a color, lists v, h of [x, y] pairs, left, bottom")
        bit = dtype(1 << _index(entry["color"], n, "color"))
        for plane, key in ((v, "v"), (hE, "h")):
            for x, y in entry[key]:
                plane[_index(x, width, "x"), _index(y, height, "y")] |= bit
        for y in entry["left"]:
            left[_index(y, height, "y")] |= bit
        for x in entry["bottom"]:
            bottom[_index(x, width, "x")] |= bit
    return PathEnsemble(doc["variant"], n, width, height, v, hE, left, bottom)


# ---------------------------------------------------------------------------
# Point sets

def write_pointset(ps: PointSet, path) -> None:
    """One 'x y' pair per line, sorted."""
    with open(path, "w") as f:
        for x, y in ps.points():
            f.write(f"{x} {y}\n")


def read_pointset(path, width: int | None = None, height: int | None = None) -> PointSet:
    """Inverse of write_pointset; extents default to the maximal coordinates.
    A coordinate outside 1..extent is a ValueError."""
    pts = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            xs, ys = line.split()
            pts.append((int(xs), int(ys)))
    w = width if width is not None else max((x for x, _ in pts), default=1)
    h = height if height is not None else max((y for _, y in pts), default=1)
    cells = [(_index(x, w, "x"), _index(y, h, "y")) for x, y in pts]
    grid = np.zeros((w, h), dtype=bool)
    for cell in cells:
        grid[cell] = True
    return PointSet(w, h, grid)
