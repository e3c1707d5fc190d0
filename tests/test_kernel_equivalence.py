"""The spectral kernels against plain reference formulas.

Each reference below is the direct form of what a kernel computes, kept here
as the oracle: the p-transform as a complex-exponential quadrature over every
offset, the polar sampler as quintic splines prefiltered over the whole grid,
and the polar spectrum sampled over the full turn.  The kernels fold, window
or mirror that work; results must agree to rounding (relative 1e-13).
"""

import numpy as np
import pytest
from scipy import ndimage

from tensorray import (
    PolarFrequencyGrid,
    Sinogram,
    component_spectrum_polar,
    polar_sample,
    random_solenoidal_field,
)
from tensorray.grids import fourier_transform_2d, pad_samples
from tensorray.slices import _FT_PREFACTOR, sinogram_transform_values

REL = 1e-13


def relative_gap(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def reference_p_transform(psi, convention, qs):
    """``sum_i w_i exp(-i q p_i) psi(p_i, theta)`` over all offsets, trapezoid weights."""
    ps = np.linspace(-psi.pmax, psi.pmax, psi.num_p)
    weights = np.full(psi.num_p, ps[1] - ps[0])
    weights[[0, -1]] *= 0.5
    kernel = np.exp(-1j * np.multiply.outer(qs, ps)) * weights
    return _FT_PREFACTOR[convention] * (kernel @ psi.samples)


def reference_polar_sample(values, grid, qs, phis):
    """Quintic splines prefiltered over the whole grid."""
    qx = qs[:, None] * np.cos(phis)[None, :]
    qy = qs[:, None] * np.sin(phis)[None, :]
    coords = np.array([qx + grid.radius, qy + grid.radius]) / grid.spacing

    def spline(part):
        return ndimage.map_coordinates(part, coords, order=5, mode="constant")

    return spline(values.real) + 1j * spline(values.imag)


def reference_spectrum_polar(f, j, pgrid, oversample=2, angle_offset=0.0):
    """Every angle of the full turn sampled from the padded spectrum."""
    big, big_grid = pad_samples(f.component(j), f.grid, oversample)
    spec = fourier_transform_2d(big, big_grid)
    return polar_sample(
        spec, big_grid.dual(), pgrid.radial_nodes(), pgrid.angular_nodes() + angle_offset
    )


class TestFoldedPTransform:
    @pytest.mark.parametrize("num_p", [2, 3, 64, 65, 257])
    @pytest.mark.parametrize("convention", ["lemma", "fst"])
    def test_matches_complex_quadrature_on_non_range_data(self, num_p, convention):
        # random samples obey no parity in p, so the even and odd parts both count
        rng = np.random.default_rng(num_p)
        psi = Sinogram(m=1, pmax=6.0, samples=rng.standard_normal((num_p, 12)))
        qs = np.concatenate([np.linspace(-9.0, 9.0, 37), [0.0, 1e-3, -20.0]])
        got = sinogram_transform_values(psi, convention, qs)
        assert got.shape == (qs.size, 12)
        assert relative_gap(got, reference_p_transform(psi, convention, qs)) < REL

    def test_zero_row_counts_once(self):
        # a sinogram that is nonzero only at p = 0 transforms to w_0 psi(0) at every q
        samples = np.zeros((5, 4))
        samples[2] = [1.0, -2.0, 3.0, 0.5]
        psi = Sinogram(m=0, pmax=2.0, samples=samples)
        qs = np.array([-1.0, 0.0, 2.5])
        got = sinogram_transform_values(psi, "lemma", qs)
        expected = psi.dp / (2.0 * np.pi) * np.tile(samples[2], (3, 1))
        assert np.abs(got - expected).max() < 1e-15


class TestWindowedPolarSample:
    # Non-decaying random samples on a 256-sample grid: the window's cut-off
    # would show in the splines unless the margin hides it.  ``reach`` is how
    # far the nodes extend from the centre sample, in samples; ``arc`` the
    # span of their angles.
    @pytest.mark.parametrize(
        "reach, arc",
        [(10.0, 2.0 * np.pi), (100.0, 2.0 * np.pi), (127.9, 2.0 * np.pi), (60.0, 0.5)],
        ids=["interior", "within-margin", "edge", "off-centre"],
    )
    def test_matches_whole_grid_prefilter(self, reach, arc, grid256):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        qs = np.linspace(0.05, reach * grid256.spacing, 17)
        phis = np.linspace(0.0, arc, 23, endpoint=False) + 0.1
        got = polar_sample(values, grid256, qs, phis)
        assert relative_gap(got, reference_polar_sample(values, grid256, qs, phis)) < REL


class TestHalfTurnSpectrum:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("angle_offset", [0.0, np.pi / 2, 0.3])
    def test_matches_full_turn(self, m, angle_offset, grid64):
        f = random_solenoidal_field(m, grid64, seed=20 + m)
        pgrid = PolarFrequencyGrid(nq=40, qmax=8.0, ntheta=30)
        for j in range(m + 1):
            got = component_spectrum_polar(f, j, pgrid, angle_offset=angle_offset)
            ref = reference_spectrum_polar(f, j, pgrid, angle_offset=angle_offset)
            assert got.shape == ref.shape == (40, 30)
            assert relative_gap(got, ref) < REL
