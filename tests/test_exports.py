"""Every exported name resolves, so a deletion leaves no stale ``__all__``
entry, and importing the package loads no scipy subpackage it did not."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


# scipy subpackages a fresh ``import tensorray, tensorray.cli`` loads: the
# import is most of every CLI run's start-up, and a cold ``scipy.linalg``
# alone costs 0.04-0.12 s on a shared 2-core VM
SCIPY_AT_IMPORT = {
    "_lib", "ndimage", "special",
    # scipy's own, loaded by ``import scipy``
    "__config__", "_cyutility", "_distributor_init", "version",
}


def test_import_loads_no_new_scipy_subpackage():
    src = Path(tensorray.__file__).resolve().parents[1]
    code = (
        "import sys, tensorray, tensorray.cli; "
        "print(' '.join(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert set(out.stdout.split()) - SCIPY_AT_IMPORT == set()
