"""In-memory span tracer that times calls into tensorray from outside.

Modules of the package bind each other's functions with ``from .x import y``,
so wrapping a function in its defining module alone would miss most calls.
:meth:`Tracer.install` therefore replaces the function in *every* loaded
``tensorray`` module (the package namespace included) that binds it, and
:meth:`Tracer.uninstall` puts the originals back.  No file of the package is
edited.

Each call records a :class:`Span`: name, start, end, parent span and the op
id the benchmark set.  Spans stay in memory; :func:`layer_metrics` reduces
them to per-op layer numbers and :meth:`Tracer.dump` writes them out, with
the self time of every span (its duration minus the time its children
cover).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _digest(array) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=12).hexdigest()


def _forward_attrs(bound, result, cache: dict) -> dict:
    """Line-sample count, in-grid share and input key of one ``forward`` call."""
    args = bound.arguments
    f = args["f"]
    grid = f.grid
    num_p, ntheta = int(args["num_p"]), int(args["ntheta"])
    pmax = grid.radius if args["pmax"] is None else float(args["pmax"])
    dt = grid.spacing / 2.0 if args["t_step"] is None else float(args["t_step"])
    config = (grid.n, grid.radius, num_p, ntheta, pmax, dt)
    if config not in cache:
        # same line geometry as ray.forward: p*(-sin, cos) + t*(cos, sin)
        half = int(np.ceil(np.sqrt(2.0) * grid.radius / dt))
        ts = dt * np.arange(-half, half + 1)
        ps = np.linspace(-pmax, pmax, num_p)
        inside = 0
        for theta in 2.0 * np.pi * np.arange(ntheta) / ntheta:
            c, s = np.cos(theta), np.sin(theta)
            xs = -ps[:, None] * s + ts[None, :] * c
            ys = ps[:, None] * c + ts[None, :] * s
            inside += int(np.count_nonzero((np.abs(xs) <= grid.radius) & (np.abs(ys) <= grid.radius)))
        samples = num_p * ntheta * ts.size
        cache[config] = (samples, inside / samples)
    samples, in_grid = cache[config]
    return {
        "line_samples": samples,
        "in_grid_frac": in_grid,
        "key": (_digest(f.components), f.m) + config,
    }


def _spectrum_attrs(bound, result, cache: dict) -> dict:
    """Padded transform size and input key of one ``component_spectrum_polar`` call.

    The key leaves out ``angle_offset``: calls that differ only in it repeat
    the same padded transform.
    """
    args = bound.arguments
    f, j, pgrid, oversample = args["f"], int(args["j"]), args["pgrid"], int(args["oversample"])
    return {
        "padded_points": (f.grid.n * oversample) ** 2,
        "key": (_digest(f.component(j)), f.grid.n, f.grid.radius, j,
                pgrid.nq, pgrid.qmax, pgrid.ntheta, oversample),
    }


def _file_bytes(bound, result, cache: dict) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _cli_name(args, kwargs) -> str:
    argv = list(kwargs.get("argv") or (args[0] if args else None) or ())
    if len(argv) >= 2 and argv[0] == "check":
        return f"cli.check_{argv[1]}"
    return f"cli.{argv[0]}" if argv else "cli"


# (span name, defining module, function, attribute hook, track memory)
TARGETS = (
    ("ray.forward", "tensorray.ray", "forward", _forward_attrs, False),
    ("ray.parity_residual", "tensorray.ray", "parity_residual", None, False),
    ("fields.spectrum_polar", "tensorray.fields", "component_spectrum_polar", _spectrum_attrs, True),
    ("grids.fourier_transform_2d", "tensorray.grids", "fourier_transform_2d", None, False),
    ("grids.polar_sample", "tensorray.grids", "polar_sample", None, False),
    ("fields.divergence_gate", "tensorray.fields", "relative_divergence_residual", None, False),
    ("fields.generate", "tensorray.fields", "gaussian_test_field", None, False),
    ("fields.generate", "tensorray.fields", "random_solenoidal_field", None, False),
    ("fields.solenoidal_project", "tensorray.fields", "solenoidal_project", None, False),
    ("slices.p_transform", "tensorray.slices", "sinogram_transform_values", None, False),
    ("slices.residual", "tensorray.slices", "fst_scalar_residual", None, False),
    ("slices.residual", "tensorray.slices", "fst_solenoidal_residual", None, False),
    ("slices.residual", "tensorray.slices", "fst_coefficient_residual", None, False),
    ("slices.residual", "tensorray.slices", "measure_slice_constant", None, False),
    ("norms.weighted_norm_sq", "tensorray.norms", "weighted_norm_sq", None, False),
    ("norms.reshetnyak", "tensorray.norms", "reshetnyak_check", None, False),
    ("norms.reshetnyak", "tensorray.norms", "reshetnyak_ratios", None, False),
    ("inversion.invert", "tensorray.inversion", "invert", None, False),
    ("inversion.coefficient_route", "tensorray.inversion", "invert_coefficient_route", None, False),
    ("inversion.moments", "tensorray.inversion", "check_moment_conditions", None, False),
    ("io.read", "tensorray.io", "read_field", _file_bytes, False),
    ("io.read", "tensorray.io", "read_sinogram", _file_bytes, False),
    ("io.write", "tensorray.io", "write_field", _file_bytes, False),
    ("io.write", "tensorray.io", "write_sinogram", _file_bytes, False),
    (_cli_name, "tensorray.cli", "main", None, False),
)


class Tracer:
    """Collects spans of wrapped tensorray calls; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self.overhead_s: dict[str | None, float] = {}  # wrapper bookkeeping per op
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cache: dict = {}

    def wrap(self, name, fn, hook=None, track_memory: bool = False):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            span_name = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            span = Span(span_name, 0.0, 0.0, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            tracking = track_memory and not tracemalloc.is_tracing()
            if tracking:
                tracemalloc.start()
            span.start = t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = t2 = time.perf_counter()
                self._stack.pop()
                if tracking:
                    span.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(hook(bound, result, self._cache))
            spent = (t1 - t0) + (time.perf_counter() - t2)
            self.overhead_s[span.op] = self.overhead_s.get(span.op, 0.0) + spent
            return result

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "tensorray" or key.startswith("tensorray.")]
        for name, module_name, attr, hook, track_memory in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original, hook, track_memory)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def dump(self, path) -> None:
        own = self.self_times()
        totals: dict[str, dict] = {}
        for span, self_s in zip(self.spans, own):
            entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        records = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "self_s": self_s,
             **{k: v for k, v in s.attrs.items() if k != "key"}}
            for s, self_s in zip(self.spans, own)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"totals": totals, "overhead_s": self.overhead_s,
                       "spans": records}, fh)


# Per-layer metric names, units and how each is reduced from the op spans.
PER_LAYER = {
    "ray.forward.calls": "count",
    "ray.forward.s": "s",
    "ray.forward.line_samples": "count",
    "ray.forward.in_grid_frac": "frac",
    "ray.forward.distinct_frac": "frac",
    "ray.parity_residual.s": "s",
    "fields.spectrum_polar.calls": "count",
    "fields.spectrum_polar.s": "s",
    "fields.spectrum_polar.padded_points": "count",
    "fields.spectrum_polar.peak_mb": "MB",
    "fields.spectrum_polar.distinct_frac": "frac",
    "grids.fourier_transform_2d.s": "s",
    "grids.polar_sample.s": "s",
    "fields.divergence_gate.calls": "count",
    "fields.divergence_gate.s": "s",
    "fields.generate.s": "s",
    "fields.solenoidal_project.s": "s",
    "slices.p_transform.calls": "count",
    "slices.p_transform.s": "s",
    "slices.residual.s": "s",
    "norms.weighted_norm_sq.calls": "count",
    "norms.reshetnyak.s": "s",
    "inversion.invert.s": "s",
    "inversion.coefficient_route.s": "s",
    "inversion.moments.s": "s",
    "io.read.s": "s",
    "io.read.bytes": "B",
    "io.write.s": "s",
    "io.write.bytes": "B",
    "cli.forward.s": "s",
    "cli.check_reshetnyak.s": "s",
    "cli.check_slice.s": "s",
    "cli.check_invert.s": "s",
    "cli.check_moments.s": "s",
    "trace.overhead_frac": "frac",
}

# Layers measured on the set-up spans rather than the op spans: inputs are
# generated only while setting up.
SETUP_LAYERS = ("fields.generate",)
SETUP_OP = "setup"


def _outermost(spans: list[Span], selected: list[int], name: str) -> list[int]:
    """Spans of ``name`` with no ancestor of the same name (no double counting)."""
    out = []
    for i in selected:
        parent = spans[i].parent
        while parent is not None and spans[parent].name != name:
            parent = spans[parent].parent
        if parent is None:
            out.append(i)
    return out


def layer_metrics(tracer: Tracer, ops: int, setups: int, op_seconds: float) -> dict:
    """Per-op layer numbers from the spans (see :data:`PER_LAYER`).

    Counts, seconds and bytes are totals divided by the number of ops (set-up
    layers by the number of set-ups).  ``distinct_frac`` is the share of calls
    whose input was not already seen in the same op; ``in_grid_frac`` the
    share of line samples inside the grid square; ``peak_mb`` the largest
    traced allocation peak of one call.  Ratios read 0 for a layer the
    workload never calls.
    """
    spans = tracer.spans
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        in_setup = span.op == SETUP_OP
        if in_setup == (span.name in SETUP_LAYERS):
            by_name.setdefault(span.name, []).append(i)

    def seconds(name: str, per: int) -> float:
        chosen = _outermost(spans, by_name.get(name, []), name)
        return sum(spans[i].duration for i in chosen) / per

    def calls(name: str) -> list[Span]:
        return [spans[i] for i in by_name.get(name, [])]

    def distinct_frac(name: str) -> float:
        called = calls(name)
        if not called:
            return 0.0
        return len({(s.op, s.attrs["key"]) for s in called}) / len(called)

    forward = calls("ray.forward")
    spectrum = calls("fields.spectrum_polar")
    line_samples = sum(s.attrs["line_samples"] for s in forward)
    values = {
        "ray.forward.calls": len(forward) / ops,
        "ray.forward.line_samples": line_samples / ops,
        "ray.forward.in_grid_frac": (
            sum(s.attrs["line_samples"] * s.attrs["in_grid_frac"] for s in forward) / line_samples
            if forward else 0.0
        ),
        "ray.forward.distinct_frac": distinct_frac("ray.forward"),
        "fields.spectrum_polar.calls": len(spectrum) / ops,
        "fields.spectrum_polar.padded_points": sum(s.attrs["padded_points"] for s in spectrum) / ops,
        "fields.spectrum_polar.peak_mb": max((s.attrs.get("peak_mb", 0.0) for s in spectrum), default=0.0),
        "fields.spectrum_polar.distinct_frac": distinct_frac("fields.spectrum_polar"),
        "fields.divergence_gate.calls": len(calls("fields.divergence_gate")) / ops,
        "slices.p_transform.calls": len(calls("slices.p_transform")) / ops,
        "norms.weighted_norm_sq.calls": len(calls("norms.weighted_norm_sq")) / ops,
        "io.read.bytes": sum(s.attrs["bytes"] for s in calls("io.read")) / ops,
        "io.write.bytes": sum(s.attrs["bytes"] for s in calls("io.write")) / ops,
        "trace.overhead_frac": sum(
            spent for op, spent in tracer.overhead_s.items() if op != SETUP_OP
        ) / op_seconds,
    }
    for metric in PER_LAYER:
        if metric.endswith(".s"):
            name = metric[:-2]
            values[metric] = seconds(name, setups if name in SETUP_LAYERS else ops)
    out = {}
    for metric, unit in PER_LAYER.items():
        value = float(values[metric])
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {metric} is not finite")
        out[metric] = {"value": value, "unit": unit}
    return out
