"""Regression bounds: the accuracy the pipeline reaches today, pinned at ~10x.

The acceptance suite states the paper-level contract (slice residuals below
1e-3, isometry ratios within 1% of 1), which leaves ~1000x of slack at desk
scale.  This module pins the slice residuals and ``|ratio - 1|`` of seeded
random solenoidal fields at about ten times the values measured at desk
scale (n = 256, R = 8, num_p = 257, ntheta = 128, nq = 512, qmax = R), so a
change that loses two or more digits fails here long before it fails there.
"""

import warnings

import numpy as np
import pytest

from tensorray import (
    SobolevParams,
    TruncationWarning,
    forward,
    fst_coefficient_residual,
    fst_solenoidal_residual,
    random_solenoidal_field,
    reshetnyak_ratios,
)
from tensorray.grids import CartesianGrid

N, RADIUS, NUM_P, NTHETA = 256, 8.0, 257, 128
SEED = 7
SLACK = 10.0

# Measured with random_solenoidal_field(m, seed=7) at desk scale:
# (value residual, coefficient residual, max |ratio - 1| over TRIPLES).
MEASURED = {
    0: (8.3e-7, 5.6e-7, 3.3e-7),
    1: (9.7e-7, 8.1e-7, 5.2e-7),
    2: (1.26e-6, 1.35e-6, 8.1e-7),
    3: (1.33e-6, 1.15e-6, 1.04e-6),
}

TRIPLES = [
    SobolevParams(0.0, 0.0, 0.0),
    SobolevParams(1.0, 0.0, 0.0),
    SobolevParams(0.0, 1.0, 0.0),
    SobolevParams(1.0, 0.5, -0.25),
    SobolevParams(-1.0, 0.0, 1.0),
]


@pytest.fixture(scope="module")
def grid():
    return CartesianGrid(n=N, radius=RADIUS)


@pytest.mark.parametrize("m", sorted(MEASURED))
def test_slice_residuals_and_isometry_stay_near_measured(m, grid):
    f = random_solenoidal_field(m, grid, seed=SEED)
    sino = forward(f, num_p=NUM_P, ntheta=NTHETA)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        ratios = np.array(reshetnyak_ratios(f, TRIPLES, ntheta=NTHETA, sinogram=sino))
    got = (
        fst_solenoidal_residual(f, ntheta=NTHETA, sinogram=sino),
        fst_coefficient_residual(f, ntheta=NTHETA, sinogram=sino),
        float(np.abs(ratios - 1.0).max()),
    )
    for name, value, measured in zip(("value", "coefficient", "ratio"), got, MEASURED[m]):
        assert value < SLACK * measured, (
            f"m={m} {name}: {value:.3e} exceeds {SLACK:g} x measured {measured:.2e}"
        )
