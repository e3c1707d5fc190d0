"""Grid substrate: transforms, angular series, polar resampling."""

import numpy as np
import pytest

from references import inverse_fourier_transform_2d, pad_samples
from tensorray import (
    CartesianGrid,
    PolarFrequencyGrid,
    Sinogram,
    SobolevParams,
    TensorField2D,
    check_moment_conditions,
    field_norm,
    fourier_transform_2d,
    polar_sample,
)
from tensorray.grids import angular_coefficient_matrix
from tensorray.slices import _tilde_coefficients


def gaussian(grid, width=1.0):
    x, y = grid.mesh()
    return np.exp(-(x**2 + y**2) / (2.0 * width**2))


def quadrature_transform(values, grid, qx, qy):
    """Independent oracle: direct double-sum quadrature of the transform."""
    x, y = grid.mesh()
    phase = np.exp(-1j * (qx * x + qy * y))
    return grid.spacing**2 / (2.0 * np.pi) * np.sum(phase * values)


class TestFourierTransform2D:
    def test_gaussian_matches_analytic(self, grid128):
        spec = fourier_transform_2d(gaussian(grid128), grid128)
        qx, qy = grid128.dual().mesh()
        exact = np.exp(-(qx**2 + qy**2) / 2.0)
        assert np.abs(spec - exact).max() < 1e-12

    def test_gaussian_matches_quadrature_oracle(self, grid64):
        f = gaussian(grid64)
        spec = fourier_transform_2d(f, grid64)
        dual = grid64.dual()
        qs = dual.axis()
        mid = grid64.n // 2
        # five probe frequencies, including DC and an off-axis point
        probes = [(mid, mid), (mid + 3, mid), (mid, mid + 5), (mid + 2, mid + 2), (mid - 4, mid + 1)]
        for i, j in probes:
            oracle = quadrature_transform(f, grid64, qs[i], qs[j])
            assert abs(spec[i, j] - oracle) < 1e-12

    def test_zero_field(self, grid64):
        spec = fourier_transform_2d(np.zeros((64, 64)), grid64)
        assert np.all(spec == 0)

    def test_first_moment_gaussian(self, grid128):
        # f = x1 * exp(-|x|^2/2) has transform -i y1 exp(-|y|^2/2)
        x, _ = grid128.mesh()
        f = x * gaussian(grid128)
        spec = fourier_transform_2d(f, grid128)
        qx, qy = grid128.dual().mesh()
        exact = -1j * qx * np.exp(-(qx**2 + qy**2) / 2.0)
        assert np.abs(spec - exact).max() < 1e-11
        # cross-check one off-axis value against the quadrature oracle
        i, j = grid128.n // 2 + 3, grid128.n // 2 + 1
        oracle = quadrature_transform(f, grid128, qx[i, j], qy[i, j])
        assert abs(spec[i, j] - oracle) < 1e-12

    def test_roundtrip_identity(self, grid64):
        f = gaussian(grid64)
        back = inverse_fourier_transform_2d(fourier_transform_2d(f, grid64), grid64)
        assert np.abs(back - f).max() < 1e-12

    def test_parseval(self, grid128):
        f = gaussian(grid128)
        spec = fourier_transform_2d(f, grid128)
        h = grid128.spacing
        dq = grid128.dual().spacing
        space = h * h * np.sum(f**2)
        freq = dq * dq * np.sum(np.abs(spec) ** 2)
        assert abs(space - freq) / space < 1e-6

    def test_real_even_gives_real_spectrum(self, grid64):
        spec = fourier_transform_2d(gaussian(grid64, width=1.3), grid64)
        assert np.abs(spec.imag).max() < 1e-10 * np.abs(spec.real).max()

    def test_rejects_bad_grids_and_samples(self):
        with pytest.raises(ValueError, match="even"):
            CartesianGrid(n=15, radius=4.0)
        with pytest.raises(ValueError, match="n >= 16"):
            CartesianGrid(n=8, radius=4.0)
        grid = CartesianGrid(n=16, radius=4.0)
        bad = np.zeros((16, 16))
        bad[3, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fourier_transform_2d(bad, grid)

    def test_pad_samples_refines_dual_grid(self, grid64):
        f = gaussian(grid64)
        big, big_grid = pad_samples(f, grid64, 4)
        assert big_grid.n == 4 * grid64.n
        assert big_grid.spacing == pytest.approx(grid64.spacing)
        spec = fourier_transform_2d(big, big_grid)
        qx, qy = big_grid.dual().mesh()
        exact = np.exp(-(qx**2 + qy**2) / 2.0)
        assert np.abs(spec - exact).max() < 1e-11


class TestAngularSeries:
    """``angular_coefficient_matrix``: row ``l + lmax`` holds harmonic ``l``."""

    def test_constant(self):
        coeffs = angular_coefficient_matrix(np.ones(32), 15)
        assert coeffs[15] == pytest.approx(1.0)
        coeffs[15] = 0.0
        assert np.abs(coeffs).max() < 1e-15

    def test_single_harmonic(self):
        phi = 2 * np.pi * np.arange(32) / 32
        coeffs = angular_coefficient_matrix(np.exp(2j * phi), 15)
        assert coeffs[15 + 2] == pytest.approx(1.0)
        assert abs(coeffs[15]) < 1e-15 and abs(coeffs[15 - 2]) < 1e-15

    def test_sine_matches_quadrature_oracle(self):
        phi = 2 * np.pi * np.arange(64) / 64
        coeffs = angular_coefficient_matrix(np.sin(phi), 31)
        # oracle: 64-point rectangle rule of (1/2pi) int sin(phi) e^{-il phi}
        for l in (-1, 1):
            oracle = np.mean(np.sin(phi) * np.exp(-1j * l * phi))
            assert coeffs[31 + l] == pytest.approx(oracle, abs=1e-15)
        assert coeffs[31 + 1] == pytest.approx(1.0 / 2.0j)
        assert coeffs[31 - 1] == pytest.approx(-1.0 / 2.0j)

    def test_real_input_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        coeffs = angular_coefficient_matrix(rng.standard_normal(16), 7)
        for l in range(1, 8):
            assert coeffs[7 - l] == pytest.approx(np.conj(coeffs[7 + l]))

    def test_roundtrip_reproduces_samples(self):
        rng = np.random.default_rng(3)
        ntheta = 32
        lmax = ntheta // 2 - 1
        ref = rng.standard_normal(2 * lmax + 1) + 1j * rng.standard_normal(2 * lmax + 1)
        phi = 2 * np.pi * np.arange(ntheta) / ntheta
        synth = np.exp(1j * np.multiply.outer(phi, np.arange(-lmax, lmax + 1)))
        samples = synth @ ref
        coeffs = angular_coefficient_matrix(samples, lmax)
        assert np.abs(coeffs - ref).max() < 1e-12
        assert np.abs(synth @ coeffs - samples).max() < 1e-12

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError, match="ntheta"):
            angular_coefficient_matrix(np.ones(8), lmax=4)


class TestPolarResample:
    def test_radial_input_is_angle_independent(self, grid128):
        spec = gaussian(grid128)  # treat the grid as a frequency grid
        pgrid = PolarFrequencyGrid(nq=64, qmax=6.0, ntheta=32)
        polar = polar_sample(spec, grid128, pgrid.radial_nodes(), pgrid.angular_nodes())
        # quintic-spline error is O(h^6), ~4e-9 at this spacing
        spread = np.abs(polar - polar[:, :1]).max()
        assert spread < 1e-7

    def test_gaussian_desk_scale_accuracy(self, grid256):
        # frequency-space Gaussian sampled on the n=256, R=8 grid, qmax=8
        spec = gaussian(grid256)
        pgrid = PolarFrequencyGrid(nq=512, qmax=8.0, ntheta=128)
        polar = polar_sample(spec, grid256, pgrid.radial_nodes(), pgrid.angular_nodes())
        exact = np.exp(-pgrid.radial_nodes()[:, None] ** 2 / 2.0) * np.ones((1, 128))
        err = np.abs(polar - exact).max() / np.abs(exact).max()
        assert err < 1e-8

    def test_out_of_band_request_names_bound(self, grid64):
        with pytest.raises(ValueError, match="Nyquist|usable"):
            polar_sample(gaussian(grid64), grid64, np.array([1.0, 8.5]), np.zeros(8))

    @pytest.mark.parametrize(
        "qs, phis, match",
        [
            ([-60.0], [0.0], "exceeds the grid extent"),
            ([-8.5, 1.0], [0.0, 1.0], "exceeds the grid extent"),
            ([np.nan], [0.0], "non-finite"),
            ([np.inf], [0.0], "non-finite"),
            ([1.0], [np.inf], "non-finite"),
            ([1.0], [0.0, np.nan], "non-finite"),
            ([[1.0], [2.0]], [0.0, 1.0], r"qs must be 0-D or 1-D, got shape \(2, 1\)"),
            ([1.0, 2.0], [[0.0, 1.0]], r"phis must be 0-D or 1-D, got shape \(1, 2\)"),
        ],
        ids=[
            "far-negative-q", "negative-q-beyond", "nan-q", "inf-q", "inf-phi", "nan-phi",
            "2d-q", "2d-phi",
        ],
    )
    def test_invalid_nodes_rejected(self, grid64, qs, phis, match, monkeypatch):
        # rejected before either part is prefiltered
        def prefiltered(*args, **kwargs):
            raise AssertionError("prefiltered before validating the nodes")

        monkeypatch.setattr("scipy.ndimage.spline_filter1d", prefiltered)
        with pytest.raises(ValueError, match=match):
            polar_sample(gaussian(grid64), grid64, np.array(qs), np.array(phis))

    def test_polar_sample_angle_offset_consistency(self, grid64):
        spec = gaussian(grid64)
        qs = np.array([1.0, 2.0])
        a = polar_sample(spec, grid64, qs, np.array([0.0, np.pi / 2]))
        b = polar_sample(spec, grid64, qs, np.array([np.pi / 2, np.pi]))
        # radial symmetry: shifting every angle by pi/2 changes nothing
        assert np.abs(a - b).max() < 1e-6


GRID = CartesianGrid(n=64, radius=8.0)
GAUSS = gaussian(GRID)
ZERO_SINOGRAM = Sinogram(m=0, pmax=8.0, samples=np.zeros((9, 8)))


class TestIntegerCountsAndRanks:
    # a count or rank must be a Python or NumPy integer: floats, even whole
    # ones, and bools are refused, never rounded or silently accepted
    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: CartesianGrid(n=64.0, radius=8.0), "grid size n"),
            (lambda: CartesianGrid(n=np.float64(64.0), radius=8.0), "grid size n"),
            (lambda: PolarFrequencyGrid(nq=2.5, qmax=8.0, ntheta=8), "nq"),
            (lambda: PolarFrequencyGrid(nq=16, qmax=8.0, ntheta=8.0), "ntheta"),
            (lambda: field_norm(TensorField2D(m=0, grid=GRID, components=GAUSS[None]),
                                SobolevParams(0, 0, 0), nq=100.5, ntheta=32), "nq"),
            (lambda: TensorField2D(m=True, grid=GRID, components=np.stack([GAUSS, GAUSS])),
             "tensor rank m"),
            (lambda: Sinogram(m=1.5, pmax=8.0, samples=np.zeros((9, 8))), "tensor rank m"),
            (lambda: Sinogram(m=np.True_, pmax=8.0, samples=np.zeros((9, 8))), "tensor rank m"),
            (lambda: check_moment_conditions(ZERO_SINOGRAM, rmax=2.5), "rmax"),
            (lambda: check_moment_conditions(ZERO_SINOGRAM, rmax=True), "rmax"),
            (lambda: _tilde_coefficients(np.ones((7, 3)), 1.0), "m"),
            (lambda: _tilde_coefficients(np.ones((7, 3)), True), "m"),
        ],
        ids=["grid-n-float", "grid-n-np-float", "polar-nq-fraction", "polar-ntheta-float",
             "field-norm-nq", "field-m-bool", "sinogram-m-fraction", "sinogram-m-np-bool",
             "moments-rmax-fraction", "moments-rmax-bool", "tilde-m-float", "tilde-m-bool"],
    )
    def test_non_integer_rejected(self, build, match):
        with pytest.raises(ValueError, match=f"{match} must be an integer"):
            build()

    def test_negative_tilde_rank_rejected(self):
        # the stencil would otherwise return a wider table of zeros
        with pytest.raises(ValueError, match="0 <= m <= lmax"):
            _tilde_coefficients(np.ones((7, 3)), -1)

    def test_numpy_integers_accepted(self):
        grid = CartesianGrid(n=np.int64(64), radius=8.0)
        assert grid.spacing == GRID.spacing
        assert PolarFrequencyGrid(nq=np.int32(16), qmax=8.0, ntheta=np.int64(8)).dq == 0.5
        assert TensorField2D(m=np.int64(0), grid=grid, components=GAUSS[None]).m == 0
        assert Sinogram(m=np.int8(1), pmax=8.0, samples=np.zeros((9, 8))).m == 1
