"""Every exported name resolves, so a deletion leaves no stale ``__all__``
entry, and scipy is loaded only by the calls that use it."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tensorray

MODULES = ["tensorray"] + [
    f"tensorray.{info.name}" for info in pkgutil.iter_modules(tensorray.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def scipy_modules_after(code: str) -> list[str]:
    """The ``scipy`` modules a fresh interpreter holds after running ``code``.

    They are printed on the last line, after anything ``code`` prints.
    """
    src = Path(tensorray.__file__).resolve().parents[1]
    script = code + (
        "\nimport sys\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1].split()


# importing the package is most of every CLI run's start-up, and scipy.sparse
# and scipy.ndimage together cost ~0.2 s of it on a shared 2-core VM: only
# the projector and the spectrum sampler use them, and import them at their
# first call
def test_import_loads_no_new_scipy_subpackage():
    assert scipy_modules_after("import tensorray, tensorray.cli") == []


def test_commands_that_neither_project_nor_sample_load_no_scipy(tmp_path):
    # the transform of exp(-|x|^2 / 2): range data, so every check passes
    ps = np.linspace(-8.0, 8.0, 33)
    samples = np.sqrt(2.0 * np.pi) * np.exp(-ps**2 / 2.0)[:, None] * np.ones(16)
    psi = tensorray.Sinogram(m=0, pmax=8.0, samples=samples)
    tensorray.write_sinogram(tmp_path / "psi.sino2d", psi)
    code = f"""
from tensorray import cli
d = {str(tmp_path)!r}
for argv in (
    ["generate", "--m", "2", "--kind", "solenoidal", "--n", "64", "-o", d + "/f.tf2d"],
    ["check", "moments", d + "/psi.sino2d"],
    ["export-csv", d + "/f.tf2d", d + "/f.csv"],
    ["export-csv", d + "/psi.sino2d", d + "/psi.csv"],
):
    assert cli.main(argv) == 0, argv
"""
    assert scipy_modules_after(code) == []
    assert (tmp_path / "f.csv").stat().st_size > 0


def test_bad_arguments_rejected_before_scipy():
    code = """
import numpy as np
from tensorray import CartesianGrid, forward, gaussian_test_field, polar_sample
grid = CartesianGrid(64, 8.0)
for call in (
    lambda: forward(gaussian_test_field(0, "generic", grid), pmax=np.nan),
    lambda: forward(gaussian_test_field(0, "generic", grid), ntheta=7),
    lambda: polar_sample(np.ones((64, 64)), grid.dual(), [1e3], [0.0]),
    lambda: polar_sample(np.ones((64, 64)), grid.dual(), [1.0], [np.nan]),
):
    try:
        call()
    except ValueError:
        pass
    else:
        raise AssertionError("accepted a bad argument")
"""
    assert scipy_modules_after(code) == []
