"""The spectral kernels against plain reference formulas.

Each reference below is the direct form of what a kernel computes, kept here
as the oracle: the p-transform as a complex-exponential quadrature over every
offset, the polar sampler as quintic splines prefiltered over the whole grid,
the polar spectrum sampled over the full turn, and the divergence gate as
spatial rows transformed back from their spectra.  The kernels fold, window,
mirror or read off the spectrum that work; results must agree to rounding
(relative 1e-13).
"""

import numpy as np
import pytest
from scipy import ndimage

from tensorray import (
    CartesianGrid,
    PolarFrequencyGrid,
    Sinogram,
    TensorField2D,
    component_spectrum_polar,
    field_l2_norm,
    gaussian_test_field,
    polar_sample,
    random_solenoidal_field,
    relative_divergence_residual,
)
from tensorray.grids import fourier_transform_2d, pad_samples
from tensorray.slices import sinogram_transform_values

REL = 1e-13


def relative_gap(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def reference_p_transform(psi, qs):
    """``(1/2pi) sum_i w_i exp(-i q p_i) psi(p_i, theta)`` over all offsets, trapezoid weights."""
    ps = np.linspace(-psi.pmax, psi.pmax, psi.num_p)
    weights = np.full(psi.num_p, ps[1] - ps[0])
    weights[[0, -1]] *= 0.5
    kernel = np.exp(-1j * np.multiply.outer(qs, ps)) * weights
    return (kernel @ psi.samples) / (2.0 * np.pi)


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


def reference_divergence_residual(f):
    """Rows ``ifft2(i (kx S_j + ky S_{j+1})).real`` in space, then their largest grid L2 norm."""
    k = 2.0 * np.pi * np.fft.fftfreq(f.grid.n, d=f.grid.spacing)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    specs = np.fft.fft2(f.components, axes=(1, 2))
    rows = [np.fft.ifft2(1j * (kx * specs[j] + ky * specs[j + 1])).real for j in range(f.m)]
    h = f.grid.spacing
    norms = [np.sqrt(h * h * np.sum(row**2)) for row in rows]
    return max(norms) / field_l2_norm(f)


class TestFoldedPTransform:
    @pytest.mark.parametrize("num_p", [2, 3, 64, 65, 257])
    def test_matches_complex_quadrature_on_non_range_data(self, num_p):
        # random samples obey no parity in p, so the even and odd parts both count
        rng = np.random.default_rng(num_p)
        psi = Sinogram(m=1, pmax=6.0, samples=rng.standard_normal((num_p, 12)))
        qs = np.concatenate([np.linspace(-9.0, 9.0, 37), [0.0, 1e-3, -20.0]])
        got = sinogram_transform_values(psi, qs)
        assert got.shape == (qs.size, 12)
        assert relative_gap(got, reference_p_transform(psi, qs)) < REL

    def test_zero_row_counts_once(self):
        # a sinogram that is nonzero only at p = 0 transforms to w_0 psi(0) at every q
        samples = np.zeros((5, 4))
        samples[2] = [1.0, -2.0, 3.0, 0.5]
        psi = Sinogram(m=0, pmax=2.0, samples=samples)
        qs = np.array([-1.0, 0.0, 2.5])
        got = sinogram_transform_values(psi, qs)
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


class TestSpectralDivergenceGate:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_spatial_rows_on_noise(self, m, n):
        # seeded noise has content up to the Nyquist row and column
        rng = np.random.default_rng(10 * n + m)
        grid = CartesianGrid(n=n, radius=8.0)
        f = TensorField2D(m=m, grid=grid, components=rng.standard_normal((m + 1, n, n)))
        ref = reference_divergence_residual(f)
        assert abs(relative_divergence_residual(f) - ref) < REL * ref

    @pytest.mark.parametrize("kind", ["generic", "potential"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_spatial_rows_on_gaussians(self, kind, m, grid256):
        f = gaussian_test_field(m, kind, grid256)
        ref = reference_divergence_residual(f)
        assert ref > 1e-2
        assert abs(relative_divergence_residual(f) - ref) < REL * ref

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_solenoidal_fields_read_rounding(self, m, grid256):
        f = random_solenoidal_field(m, grid256, seed=7)
        assert reference_divergence_residual(f) < REL
        assert relative_divergence_residual(f) < REL

    def test_nyquist_bins_carry_no_derivative(self, grid64):
        # (-1)^i along x lives on the Nyquist row alone: the real part of the
        # spatial row drops its kx derivative, and so must the gate
        sign = (-1.0) ** np.arange(64)
        comps = np.array([np.outer(sign, np.ones(64)), np.outer(np.ones(64), sign)])
        f = TensorField2D(m=1, grid=grid64, components=comps)
        assert reference_divergence_residual(f) == 0.0
        assert relative_divergence_residual(f) < 1e-15

    @pytest.mark.parametrize("m", [1, 3])
    def test_forward_transforms_only(self, m, monkeypatch, grid64):
        f = random_solenoidal_field(m, grid64, seed=1)  # synthesis itself transforms back
        expected = relative_divergence_residual(f)
        calls = []
        fft2 = np.fft.fft2

        def counted(*args, **kwargs):
            calls.append(1)
            return fft2(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the gate made an inverse transform")

        monkeypatch.setattr(np.fft, "fft2", counted)
        monkeypatch.setattr(np.fft, "ifft2", refuse)
        assert relative_divergence_residual(f) == expected
        assert len(calls) == m + 1
