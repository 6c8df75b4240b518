"""File codecs: signals, images, pyramids and rendered fields.

Conventions shared by every format:
  * raw arrays are little-endian; float64 ('<f8') for real data,
    complex128 ('<c16') interleaved re/im for subbands;
  * directories (pyramids) carry a ``manifest.json`` describing shapes,
    parameters and the format version;
  * PGM images (P5, 8- or 16-bit) are mapped to floats in [0, 1] on
    ingest; PFM output is 32-bit little-endian (scale header -1.0).
"""

from __future__ import annotations

import json
import reprlib
from pathlib import Path

import numpy as np

from .spline_core import SplineParams
from .transform1d import Pyramid1D
from .transform2d import Pyramid2D

__all__ = [
    "read_signal", "write_signal",
    "read_image", "write_image",
    "read_pfm", "write_pfm", "write_pgm_preview",
    "save_pyramid1d", "load_pyramid1d",
    "save_pyramid2d", "load_pyramid2d",
]

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# 1D signals

def write_signal(path, data: np.ndarray, fmt: str = "csv"):
    """Write a real signal as CSV (one value per line) or raw '<f8'."""
    path = Path(path)
    data = np.asarray(data, dtype=np.float64)
    if fmt == "csv":
        path.write_text("".join(f"{float(v)!r}\n" for v in data))
    elif fmt == "raw":
        path.write_bytes(np.ascontiguousarray(data, dtype="<f8").tobytes())
    else:
        raise ValueError(f"unknown signal format {fmt!r}")


def read_signal(path, fmt: str | None = None) -> np.ndarray:
    """Read a signal; the format is inferred from the suffix if omitted."""
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "raw"
    if fmt == "csv":
        return np.array([float(line) for line in path.read_text().split()],
                        dtype=np.float64)
    if fmt == "raw":
        return np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    raise ValueError(f"unknown signal format {fmt!r}")


# ---------------------------------------------------------------------------
# images

def _read_pnm_header(data: bytes, magic: bytes):
    if not data.startswith(magic):
        raise ValueError(f"not a {magic.decode()} file")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(data) and data[pos] in b" \t\r\n":
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos] not in b" \t\r\n":
            pos += 1
        fields.append(int(data[start:pos]))
    return fields, pos + 1  # single whitespace after maxval


def read_image(path) -> np.ndarray:
    """Read a 2D float image: PGM (P5) scaled to [0, 1], or raw + sidecar.

    Raw images are '<f8' row-major with a JSON sidecar ``<path>.json``
    holding ``width`` and ``height``.
    """
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        data = path.read_bytes()
        (w, h, maxval), pos = _read_pnm_header(data, b"P5")
        dtype = ">u2" if maxval > 255 else "u1"
        px = np.frombuffer(data, dtype=dtype, count=w * h, offset=pos)
        return px.reshape(h, w).astype(np.float64) / maxval
    sidecar = str(path) + ".json"
    side = _read_object(sidecar)
    w = _require(side, "width", sidecar, _POSITIVE_INT)
    h = _require(side, "height", sidecar, _POSITIVE_INT)
    return np.frombuffer(path.read_bytes(), dtype="<f8", count=w * h).reshape(h, w).copy()


def write_image(path, img: np.ndarray, fmt: str = "raw", maxval: int = 65535):
    """Write a 2D float image as raw '<f8' + sidecar, or quantized PGM."""
    path = Path(path)
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be two-dimensional")
    if fmt == "raw":
        path.write_bytes(np.ascontiguousarray(img, dtype="<f8").tobytes())
        h, w = img.shape
        Path(str(path) + ".json").write_text(
            json.dumps({"width": w, "height": h, "dtype": "<f8",
                        "format_version": FORMAT_VERSION}))
    elif fmt == "pgm":
        lo, hi = float(np.min(img)), float(np.max(img))
        scaled = (img - lo) / (hi - lo) if hi > lo else np.zeros_like(img)
        q = np.round(scaled * maxval).astype(">u2" if maxval > 255 else "u1")
        h, w = img.shape
        path.write_bytes(b"P5\n%d %d\n%d\n" % (w, h, maxval) + q.tobytes())
    else:
        raise ValueError(f"unknown image format {fmt!r}")


def write_pfm(path, img: np.ndarray):
    """Write a grayscale PFM (32-bit float, little-endian, scale -1.0)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("PFM output must be two-dimensional")
    h, w = img.shape
    # PFM stores rows bottom-to-top
    body = np.ascontiguousarray(img[::-1], dtype="<f4").tobytes()
    Path(path).write_bytes(b"Pf\n%d %d\n-1.0\n" % (w, h) + body)


def read_pfm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if not data.startswith(b"Pf"):
        raise ValueError("not a grayscale PFM file")
    lines = data.split(b"\n", 3)
    w, h = (int(v) for v in lines[1].split())
    scale = float(lines[2])
    dtype = "<f4" if scale < 0 else ">f4"
    px = np.frombuffer(lines[3], dtype=dtype, count=w * h).reshape(h, w)
    return px[::-1].astype(np.float64)


def write_pgm_preview(path, field: np.ndarray):
    """8-bit PGM preview of a (possibly complex) field's magnitude."""
    write_image(path, np.abs(field), fmt="pgm", maxval=255)


# ---------------------------------------------------------------------------
# pyramids (directory + manifest)

def _is_int(v, least: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


# (test, description) pairs for _require; JSON gives bools for true/false,
# and Python counts those as ints, so they are excluded by name
_POSITIVE_INT = (lambda v: _is_int(v, 1), "a positive integer")
_SHAPE = (lambda v: isinstance(v, list) and all(_is_int(d, 0) for d in v),
          "a list of non-negative integers")
_OBJECTS = (lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
            "a list of objects")
_STRING = (lambda v: isinstance(v, str), "a string")
_REAL = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number")
_DTYPE = (lambda v: v in ("<f8", "<c16"), "'<f8' or '<c16'")


def _read_object(path) -> dict:
    """The JSON object stored at ``path``; anything else is a ValueError."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _require(mapping: dict, key: str, where: str, kind=None):
    """``mapping[key]``, or a ValueError naming the key if ``where`` lacks it
    or its value fails the (test, description) pair ``kind``."""
    try:
        value = mapping[key]
    except KeyError:
        raise ValueError(f"{where}: missing {key!r}") from None
    if kind is not None and not kind[0](value):
        raise ValueError(f"{where}: {key!r} must be {kind[1]}, got {reprlib.repr(value)}")
    return value


def _entry(name: str, code: str, arr: np.ndarray, **tags):
    """(manifest entry, array) of one array stored as '<``code``'."""
    return {"name": name, "file": f"{name}.{code}", "dtype": f"<{code}",
            "shape": list(arr.shape), **tags}, arr


def _save_pyramid(out_dir, kind: str, params: SplineParams, geometry: dict, entries) -> Path:
    """Write the arrays of ``entries`` and the manifest of a ``kind`` pyramid."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for e, arr in entries:
        np.ascontiguousarray(arr, dtype=e["dtype"]).tofile(out / e["file"])
    manifest = {
        "format_version": FORMAT_VERSION, "kind": kind,
        "byte_order": "little-endian",
        "alpha": params.alpha, "tau": params.tau, **geometry,
        "subbands": [e for e, _ in entries],
    }
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out


def _load_pyramid(in_dir, kind: str):
    """Read the manifest of a ``kind`` pyramid.

    Returns (SplineParams, levels, load), where ``load(name)`` reads the
    named array.  A missing key, or one of the wrong type, raises a
    ValueError that names it.
    """
    src = Path(in_dir)
    where = str(src / MANIFEST_NAME)
    m = _read_object(where)
    if m.get("kind") != kind:
        raise ValueError(f"{src}: not a {kind}")
    by_name = {_require(e, "name", where, _STRING): e
               for e in _require(m, "subbands", where, _OBJECTS)}

    def load(name: str) -> np.ndarray:
        e = _require(by_name, name, f"{where} subbands")
        dtype = _require(e, "dtype", name, _DTYPE)
        arr = np.fromfile(src / _require(e, "file", name, _STRING), dtype=dtype)
        return arr.reshape(_require(e, "shape", name, _SHAPE))

    params = SplineParams(_require(m, "alpha", where, _REAL), _require(m, "tau", where, _REAL))
    return params, _require(m, "levels", where, _POSITIVE_INT), load


def save_pyramid1d(out_dir, pyr: Pyramid1D, params: SplineParams) -> Path:
    entries = [_entry("lowpass_a", "f8", pyr.lowpass_a), _entry("lowpass_b", "f8", pyr.lowpass_b)]
    entries += [_entry(f"w{i}", "c16", wi, level=i) for i, wi in enumerate(pyr.w, start=1)]
    return _save_pyramid(out_dir, "pyramid1d", params,
                         {"length": pyr.signal_len, "levels": pyr.levels}, entries)


def load_pyramid1d(in_dir):
    """Returns (Pyramid1D, SplineParams, levels)."""
    params, levels, load = _load_pyramid(in_dir, "pyramid1d")
    pyr = Pyramid1D(load("lowpass_a"), load("lowpass_b"),
                    tuple(load(f"w{i}") for i in range(1, levels + 1)))
    return pyr, params, levels


def save_pyramid2d(out_dir, pyr: Pyramid2D, params: SplineParams) -> Path:
    entries = [_entry(f"lowpass{n}", "f8", arr, channel=n)
               for n, arr in enumerate(pyr.lowpass, start=1)]
    entries += [_entry(f"w{i}_{k}", "c16", wk, level=i, orientation=k)
                for i, level in enumerate(pyr.w, start=1) for k, wk in enumerate(level, start=1)]
    return _save_pyramid(out_dir, "pyramid2d", params,
                         {"dims": list(pyr.shape), "levels": pyr.levels}, entries)


def load_pyramid2d(in_dir):
    """Returns (Pyramid2D, SplineParams, levels)."""
    params, levels, load = _load_pyramid(in_dir, "pyramid2d")
    lows = tuple(load(f"lowpass{n}") for n in range(1, 5))
    w = tuple(tuple(load(f"w{i}_{k}") for k in range(1, 7)) for i in range(1, levels + 1))
    return Pyramid2D(lows, w), params, levels
