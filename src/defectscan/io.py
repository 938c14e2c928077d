"""File formats: far-field matrices, retained fields, indicator artifacts.

All writers go through an atomic temp-file + rename so error paths never leave
partially written outputs behind.  JSON numbers use Python's repr (17
significant digits), so write-then-read round-trips are bit exact.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from . import media, solver
from .errors import ConfigInvalid, SchemaError
from .farfield import MAX_DIRECTIONS, FarFieldMatrix, FieldSet, direction_angles


def _atomic_write(path: str, payload: bytes):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            # mkstemp creates 0600; give the output the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _wavenumber(value, path: str) -> float:
    k = media.json_float(value, f"{path}: k")
    if k <= 0:
        raise SchemaError(f"{path}: k must be positive, got {k!r}")
    return k


def _json_numbers(value, shape: tuple, key: str) -> np.ndarray:
    """Nested lists of JSON numbers in the given shape, as floats;
    np.asarray(value, dtype=float) would also take "0.19", true and null, and
    overflow on an integer beyond the float range."""
    arr = np.array(value, dtype=object)
    if arr.shape == shape and set(map(type, arr.flat)) <= {int, float}:
        try:
            return arr.astype(float)
        except OverflowError:
            pass
    raise SchemaError(f"{key} must be {' x '.join(map(str, shape))} JSON numbers")


def _check_angles(value, n: int, path: str):
    """The header's angles must be the direction set 2 pi j / N."""
    angles = _json_numbers(value, (n,), f"{path}: angles")
    if not np.all(np.abs(angles - direction_angles(n)) <= 1e-12):
        raise SchemaError(f"{path}: angles must be 2 pi j / N for j = 0..N-1 (N = {n})")


# ---------------------------------------------------------------------------
# far-field matrices (schema ffm/1)


def write_ffm(path: str, f: FarFieldMatrix):
    doc = {
        "schema": "ffm/1",
        "k": f.k,
        "N": f.n,
        "angles": direction_angles(f.n).tolist(),
        "re": f.entries.real.tolist(),
        "im": f.entries.imag.tolist(),
    }
    _atomic_write(path, json.dumps(doc).encode())


def read_ffm(path: str) -> FarFieldMatrix:
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"{path}: not readable as JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("schema") != "ffm/1":
        raise SchemaError(f"{path}: expected schema ffm/1")
    try:
        n = media.json_count(doc["N"], f"{path}: N", MAX_DIRECTIONS)
        _check_angles(doc["angles"], n, path)
        re, im = (_json_numbers(doc[key], (n, n), f"{path}: {key}") for key in ("re", "im"))
        entries = re + 1j * im
        k = _wavenumber(doc["k"], path)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed ffm document ({exc})") from exc
    return FarFieldMatrix(k, entries)


# ---------------------------------------------------------------------------
# retained background fields (JSON header line + raw complex128)


def write_fields(path: str, fields: FieldSet):
    spec = fields.spec
    header = {
        "schema": "fields/1",
        "k": fields.k,
        "N": fields.n,
        "angles": direction_angles(fields.n).tolist(),
        "grid": {
            "half_extent": spec.half_extent,
            "h": spec.h,
            "pml_cells": spec.pml_cells,
        },
        "nodes": spec.n_nodes,
        "dtype": "<c16",
    }
    data = np.ascontiguousarray(fields.data, dtype="<c16")
    _atomic_write(path, json.dumps(header).encode() + b"\n" + data.tobytes())


def read_fields(path: str) -> FieldSet:
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
            # one copy of the payload: fh.read() would copy it again to join the buffered head
            raw = bytearray(os.fstat(fh.fileno()).st_size - fh.tell())
            size = fh.readinto(raw)
        header = json.loads(line)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"{path}: unreadable fields file ({exc})") from exc
    if not isinstance(header, dict) or header.get("schema") != "fields/1":
        raise SchemaError(f"{path}: expected schema fields/1")
    try:
        g = header["grid"]
        # files written before the collar strength was fixed also carry
        # "pml_strength": 0, which sampling the fields does not need
        spec = solver.GridSpec(
            media.json_float(g["half_extent"], f"{path}: grid.half_extent"),
            media.json_float(g["h"], f"{path}: grid.h"),
            media.json_int(g["pml_cells"], f"{path}: grid.pml_cells"),
        )
        n = media.json_count(header["N"], f"{path}: N", MAX_DIRECTIONS)
        nn = media.json_count(header["nodes"], f"{path}: nodes", solver.MAX_NODES)
        _check_angles(header["angles"], n, path)
        k = _wavenumber(header["k"], path)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed fields header ({exc})") from exc
    if nn != spec.n_nodes:
        raise SchemaError(f"{path}: header inconsistent")
    expect = n * nn * nn * 16
    if size != expect:
        raise SchemaError(f"{path}: payload is {size} bytes, expected {expect}")
    data = np.frombuffer(memoryview(raw).toreadonly(), dtype="<c16").reshape(n, nn, nn)
    if not np.all(np.isfinite(data)):
        raise ConfigInvalid(f"{path}: fields payload has non-finite values")
    return FieldSet(spec, k, data)


# ---------------------------------------------------------------------------
# reconstruction artifacts


def write_indicator_csv(path: str, grid):
    """Rows x,y,value,inside_D, x varying fastest and y ascending; each
    coordinate is formatted once and the rows are built from Python floats."""
    xs = [repr(x) + "," for x in grid.xs.tolist()]
    parts = ["x,y,value,inside_D\n"]
    for y, row, inside in zip(grid.ys.tolist(), grid.values.tolist(), grid.mask.tolist()):
        y = repr(y) + ","
        parts += [x + y + repr(v) + (",1\n" if m else ",0\n") for x, v, m in zip(xs, row, inside)]
    _atomic_write(path, "".join(parts).encode())


def write_indicator_pgm(path: str, grid):
    """8-bit grayscale; masked values mapped linearly onto [0, 255]."""
    vals = grid.values[grid.mask]
    lo = float(vals.min()) if vals.size else 0.0
    hi = float(vals.max()) if vals.size else 1.0
    span = hi - lo if hi > lo else 1.0
    img = np.zeros(grid.values.shape, dtype=np.uint8)
    img[grid.mask] = np.clip(
        np.rint(255 * (grid.values[grid.mask] - lo) / span), 0, 255
    ).astype(np.uint8)
    ny, nx = img.shape
    header = f"P5\n{nx} {ny}\n255\n".encode()
    _atomic_write(path, header + img[::-1].tobytes())  # top row = largest y


def write_spectrum_csv(path: str, eigenvalues: np.ndarray):
    lines = ["index,lambda"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(np.asarray(eigenvalues, float))]
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_report(path: str, report: dict):
    """Indented strict JSON: a value that is NaN or infinite (an undefined
    contrast) is written as null; every finite float keeps its repr."""
    doc = json.loads(json.dumps(report), parse_constant=lambda _: None)
    _atomic_write(path, json.dumps(doc, indent=2, allow_nan=False).encode() + b"\n")
