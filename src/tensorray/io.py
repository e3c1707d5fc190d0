"""Container formats for fields and sinograms, plus CSV export.

Both formats are a single JSON header line (UTF-8, newline terminated)
followed by a raw little-endian float64 payload:

* ``tf2d``  — header ``{"format": "tf2d", "version": 1, "m": ..., "n": ...,
  "radius": ..., "dtype": "f64le", "layout": "row-major, components
  outermost"}`` and ``(m+1) * n^2`` floats.
* ``sino2d`` — header ``{"format": "sino2d", "version": 1, "m": ..., "np":
  ..., "ntheta": ..., "pmax": ..., "dtype": "f64le"}`` and ``np * ntheta``
  floats, offset-major.

Payload round trips are bit exact.  Malformed containers raise
:class:`FileFormatError` with the byte offset of the problem.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .fields import TensorField2D
from .grids import CartesianGrid
from .ray import Sinogram

__all__ = [
    "FileFormatError",
    "write_field",
    "read_field",
    "write_sinogram",
    "read_sinogram",
    "export_csv",
]

_MAX_HEADER = 65536


class FileFormatError(ValueError):
    """Container violates the format contract; ``offset`` locates the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _write_container(path: str | Path, header: dict, payload: np.ndarray) -> None:
    data = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def _read_container(path: str | Path, formats=("tf2d", "sino2d")) -> tuple[dict, np.ndarray, int]:
    with open(path, "rb") as fh:
        line = fh.readline(_MAX_HEADER + 1)
        if not line.endswith(b"\n"):
            raise FileFormatError("header line is unterminated or too long", len(line))

        def reject_constant(name: str):
            # Python's json reads NaN, Infinity and -Infinity; JSON has no such numbers
            raise FileFormatError(f"header holds {name}, which is not a JSON number",
                                  line.find(name.encode()))

        try:
            header = json.loads(line.decode("utf-8"), parse_constant=reject_constant)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            offset = getattr(exc, "pos", getattr(exc, "start", 0))
            raise FileFormatError(f"malformed JSON header: {exc}", int(offset)) from exc
        if not isinstance(header, dict):
            raise FileFormatError("header must be a JSON object", 0)
        tag = _require(header, "format", 0)
        if tag not in formats:
            raise FileFormatError(f"expected format {' or '.join(formats)}, got {tag!r}", 0)
        data = fh.read()
    whole = len(data) - len(data) % 8
    if whole != len(data):
        raise FileFormatError(
            f"payload of {len(data)} bytes is not a whole number of float64 values",
            len(line) + whole,
        )
    return header, np.frombuffer(data, dtype="<f8"), len(line)


def _require(header: dict, key: str, offset_hint: int):
    if key not in header:
        raise FileFormatError(f"header is missing required key {key!r}", offset_hint)
    return header[key]


def _require_int(header: dict, key: str) -> int:
    """A header count: a JSON integer >= 0, never a bool, float or string."""
    value = _require(header, key, 0)
    if type(value) is not int:
        raise FileFormatError(f"header key {key!r} must be a JSON integer, got {value!r}", 0)
    if value < 0:
        raise FileFormatError(f"header key {key!r} must be >= 0, got {value}", 0)
    return value


def _require_number(header: dict, key: str) -> float:
    """A header length: a JSON number, never a bool or string."""
    value = _require(header, key, 0)
    if type(value) not in (int, float):
        raise FileFormatError(f"header key {key!r} must be a JSON number, got {value!r}", 0)
    return float(value)


def write_field(path: str | Path, field: TensorField2D) -> None:
    header = {
        "format": "tf2d",
        "version": 1,
        "m": field.m,
        "n": field.grid.n,
        "radius": field.grid.radius,
        "dtype": "f64le",
        "layout": "row-major, components outermost",
    }
    _write_container(path, header, field.components)


def _decode_field(header: dict, payload: np.ndarray, header_len: int) -> TensorField2D:
    if _require(header, "version", 0) != 1:
        raise FileFormatError(f"unsupported tf2d version {header.get('version')!r}", 0)
    m = _require_int(header, "m")
    n = _require_int(header, "n")
    radius = _require_number(header, "radius")
    expected = (m + 1) * n * n
    if payload.size != expected:
        raise FileFormatError(
            f"payload holds {payload.size} floats, expected {expected}",
            header_len + 8 * min(payload.size, expected),
        )
    grid = CartesianGrid(n=n, radius=radius)
    components = payload.reshape(m + 1, n, n)
    return TensorField2D(m=m, grid=grid, components=components)


def read_field(path: str | Path) -> TensorField2D:
    return _decode_field(*_read_container(path, ("tf2d",)))


def write_sinogram(path: str | Path, psi: Sinogram) -> None:
    header = {
        "format": "sino2d",
        "version": 1,
        "m": psi.m,
        "np": psi.num_p,
        "ntheta": psi.ntheta,
        "pmax": psi.pmax,
        "dtype": "f64le",
    }
    _write_container(path, header, psi.samples)


def _decode_sinogram(header: dict, payload: np.ndarray, header_len: int) -> Sinogram:
    if _require(header, "version", 0) != 1:
        raise FileFormatError(f"unsupported sino2d version {header.get('version')!r}", 0)
    m = _require_int(header, "m")
    num_p = _require_int(header, "np")
    ntheta = _require_int(header, "ntheta")
    pmax = _require_number(header, "pmax")
    expected = num_p * ntheta
    if payload.size != expected:
        raise FileFormatError(
            f"payload holds {payload.size} floats, expected {expected}",
            header_len + 8 * min(payload.size, expected),
        )
    return Sinogram(m=m, pmax=pmax, samples=payload.reshape(num_p, ntheta))


def read_sinogram(path: str | Path) -> Sinogram:
    return _decode_sinogram(*_read_container(path, ("sino2d",)))


def _fmt(value: float) -> str:
    return format(value, ".17g")


def export_csv(src: str | Path, dest: str | Path) -> int:
    """Convert a container file to CSV; returns the number of data rows.

    Fields export as ``x,y,j,f_j`` rows (components outermost), sinograms as
    ``p,theta,psi`` rows (offset-major).  ``dest`` is opened only once
    ``src`` has been read and validated in full.
    """
    header, payload, header_len = _read_container(src)
    decode = _decode_field if header["format"] == "tf2d" else _decode_sinogram
    data = decode(header, payload, header_len)
    with open(dest, "w", encoding="utf-8") as out:
        if isinstance(data, TensorField2D):
            xs = data.grid.axis()
            out.write("x,y,j,f_j\n")
            rows = 0
            for j in range(data.m + 1):
                comp = data.components[j]
                for ix, x in enumerate(xs):
                    for iy, y in enumerate(xs):
                        out.write(f"{_fmt(x)},{_fmt(y)},{j},{_fmt(comp[ix, iy])}\n")
                        rows += 1
            return rows
        out.write("p,theta,psi\n")
        rows = 0
        ps = data.p_axis()
        thetas = data.theta_axis()
        for i, p in enumerate(ps):
            for jt, theta in enumerate(thetas):
                out.write(f"{_fmt(p)},{_fmt(theta)},{_fmt(data.samples[i, jt])}\n")
                rows += 1
        return rows
