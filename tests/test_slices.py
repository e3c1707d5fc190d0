"""Sinogram spectral analysis: transforms, tilde algebra, slice identities."""

import numpy as np
import pytest

from tensorray import (
    Sinogram,
    TensorField2D,
    forward,
    fst_coefficient_residual,
    fst_scalar_residual,
    fst_solenoidal_residual,
    gaussian_test_field,
    measure_slice_constant,
    random_solenoidal_field,
    slice_pair,
)
from tensorray.grids import angular_coefficient_matrix
from tensorray.slices import _tilde_coefficients, sinogram_transform_values


def gaussian_sinogram(num_p=129, ntheta=32, pmax=8.0):
    ps = np.linspace(-pmax, pmax, num_p)
    samples = np.sqrt(2.0 * np.pi) * np.exp(-(ps**2) / 2.0)[:, None] * np.ones((1, ntheta))
    return Sinogram(m=0, pmax=pmax, samples=samples)


def band_limited_sinogram(rng, num_p=65, ntheta=64, pmax=8.0, band=8):
    """Random sinogram with angular harmonics |l| <= band and Gaussian p-profiles."""
    ps = np.linspace(-pmax, pmax, num_p)
    thetas = 2.0 * np.pi * np.arange(ntheta) / ntheta
    samples = np.zeros((num_p, ntheta))
    for l in range(band + 1):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        profile = np.exp(-(ps**2) / 2.0) * ps ** (l % 3)
        term = np.real(c * np.exp(1j * l * thetas))[None, :] * profile[:, None]
        samples += term
    return Sinogram(m=0, pmax=pmax, samples=samples)


def spectral_coefficients(psi, qs, lmax=None):
    """``psihat_l(q_k)`` indexed ``[l + lmax, k]``: p-transform, then angular series."""
    lmax = psi.ntheta // 2 - 1 if lmax is None else lmax
    return angular_coefficient_matrix(sinogram_transform_values(psi, qs), lmax).T


def symmetric_nodes(nq, qmax):
    """``2*nq`` midpoint nodes covering ``[-qmax, qmax]`` symmetrically, no zero."""
    return (np.arange(2 * nq) + 0.5 - nq) * (qmax / nq)


class TestTransformSinogram:
    def test_gaussian_lemma_convention(self):
        psi = gaussian_sinogram()
        qs = symmetric_nodes(64, 6.0)
        coeffs = spectral_coefficients(psi, qs)
        lmax = psi.ntheta // 2 - 1
        assert np.abs(coeffs[lmax] - np.exp(-(qs**2) / 2.0)).max() < 1e-10
        assert np.abs(np.delete(coeffs, lmax, axis=0)).max() < 1e-12

    def test_zero_sinogram(self):
        psi = Sinogram(m=0, pmax=4.0, samples=np.zeros((17, 8)))
        assert np.all(sinogram_transform_values(psi, symmetric_nodes(512, 4.0)) == 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_nodes_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            sinogram_transform_values(gaussian_sinogram(), np.array([0.5, bad]))

    def test_coefficient_parity_for_range_data(self, grid128):
        # psihat_l(-q) = (-1)^(m+l) psihat_l(q) on symmetric nodes
        for m in (0, 1, 2):
            f = gaussian_test_field(m, "generic", grid128)
            psi = forward(f, num_p=129, ntheta=64)
            coeffs = spectral_coefficients(psi, symmetric_nodes(128, 8.0))
            lmax = psi.ntheta // 2 - 1
            signs = (-1.0) ** (m + np.arange(-lmax, lmax + 1))
            mismatch = coeffs[:, ::-1] - signs[:, None] * coeffs
            assert np.abs(mismatch).max() < 1e-8 * np.abs(coeffs).max()


class TestTildeCoefficients:
    def test_m0_identity(self):
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        out = _tilde_coefficients(coeffs, 0)
        assert np.array_equal(out, coeffs)

    def test_m1_delta(self):
        # sin(theta) = e^{i theta}/(2i) - e^{-i theta}/(2i)
        coeffs = np.zeros(11, dtype=complex)
        coeffs[5] = 1.0  # l = 0
        out = _tilde_coefficients(coeffs, 1)
        lmax_out = 4
        assert out[lmax_out + 1] == pytest.approx(1.0 / 2.0j)
        assert out[lmax_out - 1] == pytest.approx(-1.0 / 2.0j)
        mask = np.ones(9, bool)
        mask[[lmax_out - 1, lmax_out + 1]] = False
        assert np.abs(out[mask]).max() == 0.0

    def test_m2_constant(self):
        # sin^2(theta) = 1/2 - (e^{2i theta} + e^{-2i theta})/4
        coeffs = np.zeros(11, dtype=complex)
        coeffs[5] = 1.0
        out = _tilde_coefficients(coeffs, 2)
        lmax_out = 3
        assert out[lmax_out] == pytest.approx(0.5)
        assert out[lmax_out + 2] == pytest.approx(-0.25)
        assert out[lmax_out - 2] == pytest.approx(-0.25)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_matches_pointwise_multiplication(self, m):
        # oracle route: multiply samples by sin^m(theta), then take the DFT
        rng = np.random.default_rng(100 + m)
        psi = band_limited_sinogram(rng)
        thetas = psi.theta_axis()
        lmax = psi.ntheta // 2 - 1
        coeffs = angular_coefficient_matrix(psi.samples, lmax)
        route_a = _tilde_coefficients(coeffs.T, m).T
        pointwise = psi.samples * np.sin(thetas)[None, :] ** m
        route_b = angular_coefficient_matrix(pointwise, lmax - m)
        assert np.abs(route_a - route_b).max() < 1e-10

    def test_insufficient_lmax_rejected(self):
        with pytest.raises(ValueError, match="lmax"):
            _tilde_coefficients(np.zeros(3, dtype=complex), 2)

    def test_tilde_commutes_with_p_transform(self):
        # tilde then transform vs transform then tilde
        rng = np.random.default_rng(5)
        psi = band_limited_sinogram(rng)
        qs = symmetric_nodes(32, 6.0)
        m = 2
        lmax = psi.ntheta // 2 - 1
        route_a = _tilde_coefficients(spectral_coefficients(psi, qs, lmax), m)
        tilded = Sinogram(
            m=psi.m, pmax=psi.pmax,
            samples=psi.samples * np.sin(psi.theta_axis())[None, :] ** m,
        )
        route_b = spectral_coefficients(tilded, qs, lmax - m)
        assert np.abs(route_a - route_b).max() < 1e-10


class TestSliceResiduals:
    def test_scalar_gaussian(self, grid128):
        f = gaussian_test_field(0, "generic", grid128)
        assert fst_scalar_residual(f, ntheta=64) < 1.5e-3

    def test_scalar_shifted_gaussian(self, grid128):
        x, y = grid128.mesh()
        g = np.exp(-((x - 0.5) ** 2 + (y + 0.25) ** 2) / 2.0)
        f = TensorField2D(m=0, grid=grid128, components=g[None])
        assert fst_scalar_residual(f, ntheta=64) < 1.5e-3

    def test_scalar_zero_field(self, grid64):
        f = TensorField2D(m=0, grid=grid64, components=np.zeros((1, 64, 64)))
        assert fst_scalar_residual(f, ntheta=16, nq=32) == 0.0

    def test_scalar_rejects_higher_rank(self, grid64):
        f = gaussian_test_field(1, "solenoidal", grid64)
        with pytest.raises(ValueError, match="m = 0"):
            fst_scalar_residual(f)

    @pytest.mark.parametrize("m", [1, 2])
    def test_solenoidal_lemma(self, m, grid128):
        f = gaussian_test_field(m, "solenoidal", grid128)
        assert fst_solenoidal_residual(f, "lemma", ntheta=64) < 1.5e-3

    def test_m0_reduces_to_scalar_under_fst(self, grid128):
        f = gaussian_test_field(0, "generic", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        scalar = fst_scalar_residual(f, ntheta=64, sinogram=psi)
        solenoidal = fst_solenoidal_residual(f, "fst", ntheta=64, sinogram=psi)
        assert solenoidal == pytest.approx(scalar, rel=1e-12)

    def test_zero_field_residual_zero(self, grid64):
        f = TensorField2D(m=1, grid=grid64, components=np.zeros((2, 64, 64)))
        assert fst_solenoidal_residual(f, ntheta=16, nq=32) == 0.0

    def test_non_solenoidal_rejected_with_advice(self, grid64):
        f = gaussian_test_field(1, "generic", grid64)
        with pytest.raises(ValueError, match="solenoidal_project"):
            fst_solenoidal_residual(f)

    @pytest.mark.parametrize("name", ["rank", "ntheta"])
    def test_mismatched_sinogram_rejected(self, name, grid64):
        f = gaussian_test_field(1, "solenoidal", grid64)
        if name == "rank":
            psi = forward(gaussian_test_field(2, "solenoidal", grid64), num_p=65, ntheta=16)
        else:
            psi = forward(f, num_p=65, ntheta=8)
        for check in (fst_solenoidal_residual, fst_coefficient_residual, measure_slice_constant):
            with pytest.raises(ValueError, match=name):
                check(f, "lemma", ntheta=16, nq=32, sinogram=psi)

    def test_resolution_arguments_are_keyword_only(self, grid64):
        # a positional offset count would otherwise be read as ntheta
        f = gaussian_test_field(1, "solenoidal", grid64)
        with pytest.raises(TypeError):
            fst_solenoidal_residual(f, "lemma", 65)
        with pytest.raises(TypeError):
            fst_scalar_residual(gaussian_test_field(0, "generic", grid64), 65)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_coefficient_residual_lemma(self, m, grid128):
        f = gaussian_test_field(m, "solenoidal", grid128)
        assert fst_coefficient_residual(f, "lemma", ntheta=64) < 1.5e-3

    def test_coefficient_residual_at_ntheta_not_divisible_by_4(self, grid128):
        # the quarter turn of the field spectrum is then no shift of the
        # angular samples, so the rotated spectrum must still carry i^l
        f = gaussian_test_field(1, "solenoidal", grid128)
        assert fst_coefficient_residual(f, "lemma", ntheta=90) < 1.5e-3

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_residuals_do_not_depend_on_convention(self, m, grid128):
        f = gaussian_test_field(m, "solenoidal", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        for residual in (fst_solenoidal_residual, fst_coefficient_residual):
            lemma = residual(f, "lemma", ntheta=64, sinogram=psi)
            fst = residual(f, "fst", ntheta=64, sinogram=psi)
            assert fst == pytest.approx(lemma, rel=1e-12)
        lemma = measure_slice_constant(f, "lemma", ntheta=64, sinogram=psi)
        fst = measure_slice_constant(f, "fst", ntheta=64, sinogram=psi)
        assert fst == pytest.approx(np.sqrt(2.0 * np.pi) * lemma, rel=1e-12)

    def test_coefficient_and_value_residuals_agree(self, grid128):
        # same identity in two bases; the residuals track within a factor 2
        f = gaussian_test_field(1, "solenoidal", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        a = fst_solenoidal_residual(f, "lemma", ntheta=64, sinogram=psi)
        b = fst_coefficient_residual(f, "lemma", ntheta=64, sinogram=psi)
        assert a / 2 <= b <= 2 * a

    def test_measured_constant_fst(self, grid128):
        f = gaussian_test_field(1, "solenoidal", grid128)
        c = measure_slice_constant(f, "fst", ntheta=64)
        assert abs(c - np.sqrt(2.0 * np.pi)) < 0.01 * np.sqrt(2.0 * np.pi)

    def test_measured_constant_lemma(self, grid128):
        f = gaussian_test_field(2, "solenoidal", grid128)
        c = measure_slice_constant(f, "lemma", ntheta=64)
        assert abs(c - 1.0) < 0.01

    def test_rank3_slice_identities(self, grid128):
        f = gaussian_test_field(3, "solenoidal", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        assert fst_solenoidal_residual(f, "lemma", ntheta=64, sinogram=psi) < 1e-3
        assert fst_coefficient_residual(f, "lemma", ntheta=64, sinogram=psi) < 1e-3


class TestSlicePair:
    @pytest.mark.parametrize("convention", ["lemma", "fst"])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_wrappers_read_the_pair(self, m, convention, grid64):
        # each wrapper is its validation plus one read of the pair, so the
        # numbers agree bit for bit, with a given sinogram and without
        f = random_solenoidal_field(m, grid64, seed=7)
        given = forward(f, num_p=65, ntheta=16)
        for sinogram in (None, given):
            common = {"ntheta": 16, "nq": 32, "sinogram": sinogram}
            pair = slice_pair(f, **common)
            assert fst_solenoidal_residual(f, convention, **common) == pair.solenoidal_residual()
            assert fst_coefficient_residual(f, convention, **common) == pair.coefficient_residual()
            assert measure_slice_constant(f, convention, **common) == pair.constant(convention)
            if m == 0:
                assert fst_scalar_residual(f, **common) == pair.solenoidal_residual()
        assert pair.constant("fst") == np.sqrt(2.0 * np.pi) * pair.constant("lemma")

    def test_unknown_convention_rejected(self, grid64):
        pair = slice_pair(gaussian_test_field(1, "solenoidal", grid64), ntheta=16, nq=32)
        with pytest.raises(ValueError, match="convention"):
            pair.constant("unitary")
