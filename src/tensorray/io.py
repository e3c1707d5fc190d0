"""Container formats for fields and sinograms, plus CSV export.

Both formats are a single JSON header line (UTF-8, newline terminated)
followed by a raw little-endian float64 payload.  Every header holds
``"format"`` (the tag), ``"version": 1`` and ``"dtype": "f64le"``, and the
payload holds exactly the floats of the tag's shape:

* ``tf2d``  — keys ``m``, ``n``, ``radius`` and ``"layout": "row-major,
  components outermost"``; shape ``(m+1, n, n)``.
* ``sino2d`` — keys ``m``, ``np``, ``ntheta`` and ``pmax``; shape
  ``(np, ntheta)``, offset-major.

Payload round trips are bit exact.  Malformed containers raise
:class:`FileFormatError` with the byte offset of the problem.
"""

from __future__ import annotations

import itertools
import json
import math
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
_VERSION = 1


class FileFormatError(ValueError):
    """Container violates the format contract; ``offset`` locates the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _write_container(path: str | Path, tag: str, header: dict, payload: np.ndarray) -> None:
    header = {"format": tag, "version": _VERSION, "dtype": "f64le", **header}
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
    version = _require(header, "version", 0)
    # the integer 1 only: true and 1.0 compare equal to it
    if type(version) is not int or version != _VERSION:
        raise FileFormatError(f"unsupported {tag} version {version!r}", 0)
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


def _shaped(payload: np.ndarray, header_len: int, shape: tuple[int, ...]) -> np.ndarray:
    """The payload reshaped to ``shape``, whose floats it must hold exactly."""
    expected = math.prod(shape)  # Python integers: a huge count cannot wrap round to a match
    if payload.size != expected:
        raise FileFormatError(
            f"payload holds {payload.size} floats, expected {expected}",
            header_len + 8 * min(payload.size, expected),
        )
    return payload.reshape(shape)


def write_field(path: str | Path, field: TensorField2D) -> None:
    header = {"m": field.m, "n": field.grid.n, "radius": field.grid.radius,
              "layout": "row-major, components outermost"}
    _write_container(path, "tf2d", header, field.components)


def _decode_field(header: dict, payload: np.ndarray, header_len: int) -> TensorField2D:
    m = _require_int(header, "m")
    n = _require_int(header, "n")
    radius = _require_number(header, "radius")
    components = _shaped(payload, header_len, (m + 1, n, n))
    return TensorField2D(m=m, grid=CartesianGrid(n=n, radius=radius), components=components)


def read_field(path: str | Path) -> TensorField2D:
    return _decode_field(*_read_container(path, ("tf2d",)))


def write_sinogram(path: str | Path, psi: Sinogram) -> None:
    header = {"m": psi.m, "np": psi.num_p, "ntheta": psi.ntheta, "pmax": psi.pmax}
    _write_container(path, "sino2d", header, psi.samples)


def _decode_sinogram(header: dict, payload: np.ndarray, header_len: int) -> Sinogram:
    m = _require_int(header, "m")
    num_p = _require_int(header, "np")
    ntheta = _require_int(header, "ntheta")
    pmax = _require_number(header, "pmax")
    return Sinogram(m=m, pmax=pmax, samples=_shaped(payload, header_len, (num_p, ntheta)))


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
    if header["format"] == "tf2d":
        field = _decode_field(header, payload, header_len)
        xs = [_fmt(x) for x in field.grid.axis()]
        # rows run over (j, x, y) in payload order; the columns put j third
        columns, row = "x,y,j,f_j", "{1},{2},{0},{3}\n"
        axes, values = (range(field.m + 1), xs, xs), field.components
    else:
        psi = _decode_sinogram(header, payload, header_len)
        columns, row = "p,theta,psi", "{},{},{}\n"
        axes = ([_fmt(p) for p in psi.p_axis()], [_fmt(t) for t in psi.theta_axis()])
        values = psi.samples
    with open(dest, "w", encoding="utf-8") as out:
        out.write(columns + "\n")
        for index, value in zip(itertools.product(*axes), values.flat):
            out.write(row.format(*index, _fmt(value)))
    return values.size
