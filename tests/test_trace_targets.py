"""The benchmark tracer (``perfbench/tracer.py``) still fits the package.

The tracer looks up every function it times by name and its attribute hooks
read call arguments by name (``forward``'s ``num_p``, ``ntheta``, ``pmax``,
``t_step``; ``component_spectrum_polar``'s ``oversample``).  Renaming or
deleting any of them breaks traced benchmark runs, so this test installs the
tracer as the benchmark does and makes one small call through each hook.
Both calls run on two worker threads (the projector's angles, the spectrum's
real and imaginary spline passes), so the test also checks that no span
opens on a worker: the tracer keeps a single span stack.
"""

import importlib.util
import sys
from pathlib import Path

import tensorray
import tensorray.cli  # noqa: F401  (the tracer patches every loaded module)
from tensorray import PolarFrequencyGrid, random_solenoidal_field

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_and_hooks_read_their_arguments(grid64, monkeypatch):
    tracer = load_tracer().Tracer()
    f = random_solenoidal_field(1, grid64, seed=4)
    # project and sample the spectrum on worker threads even on a one-CPU host
    monkeypatch.setattr(tensorray._workers, "worker_count", lambda tasks: 2)
    tracer.install()
    try:
        tensorray.forward(f, num_p=33, ntheta=8)
        tensorray.component_spectrum_polar(
            f, 1, PolarFrequencyGrid(nq=16, qmax=8.0, ntheta=8)
        )
    finally:
        tracer.uninstall()
    # one span per forward and spectrum call, with no span under either: the
    # worker threads call no traced function, so the tracer's single span
    # stack stays valid
    for name in ("ray.forward", "fields.spectrum_polar"):
        found = [i for i, span in enumerate(tracer.spans) if span.name == name]
        assert len(found) == 1
        assert not any(span.parent == found[0] for span in tracer.spans)
    spans = {span.name: span for span in tracer.spans}
    assert {"line_samples", "in_grid_frac"} <= spans["ray.forward"].attrs.keys()
    assert {"padded_points", "peak_mb"} <= spans["fields.spectrum_polar"].attrs.keys()
    # uninstall put the originals back
    assert tensorray.forward.__module__ == "tensorray.ray"
    assert not hasattr(tensorray.forward, "__wrapped__")
