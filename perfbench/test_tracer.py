"""Tests of the benchmark's tracer (not part of the repository's test suite).

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tensorray  # noqa: E402
import tensorray.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_check_slice_call_counts(tmp_path):
    field_path = tmp_path / "f.tf2d"
    field = tensorray.gaussian_test_field(1, "solenoidal", tensorray.CartesianGrid(n=128, radius=8.0))
    tensorray.write_field(field_path, field)
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        code = tensorray.cli.main(["check", "slice", str(field_path)])
    assert code in (0, 1)  # verdict aside, the check ran to completion
    names = [span.name for span in tracer.spans]
    assert names.count("cli.check_slice") == 1
    assert names.count("ray.forward") == 2
    assert names.count("fields.spectrum_polar") == 2
    assert names.count("fields.divergence_gate") == 2
    # nested calls are attributed to their callers
    spectrum = [s for s in tracer.spans if s.name == "fields.spectrum_polar"]
    assert all(tracer.spans[s.parent].name == "slices.residual" for s in spectrum)
    ffts = [s for s in tracer.spans if s.name == "grids.fourier_transform_2d"]
    assert len(ffts) == 2
    assert all(tracer.spans[s.parent].name == "fields.spectrum_polar" for s in ffts)


def test_uninstall_restores_every_binding():
    originals = {
        name: getattr(module, "forward")
        for name, module in sys.modules.items()
        if name.startswith("tensorray") and hasattr(module, "forward")
    }
    assert len(originals) >= 6  # package, ray, cli, slices, norms, inversion
    with Tracer():
        assert all(sys.modules[name].forward is not fn for name, fn in originals.items())
    assert all(sys.modules[name].forward is fn for name, fn in originals.items())


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    own = tracer.self_times()
    outer_span = tracer.spans[0]
    children = [s for s in tracer.spans if s.parent == 0]
    assert len(children) == 3
    assert abs(own[0] - (outer_span.duration - sum(c.duration for c in children))) < 1e-12
    assert all(own[i] == tracer.spans[i].duration for i in range(1, 4))


def test_benchmark_json_matches_reported_metrics():
    import run
    from tracer import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
