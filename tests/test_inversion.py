"""Inversion round trips, route agreement, and moment conditions."""

import warnings

import numpy as np
import pytest

from tensorray import (
    RangeDataWarning,
    Sinogram,
    SobolevParams,
    TensorField2D,
    check_moment_conditions,
    field_l2_norm,
    forward,
    gaussian_test_field,
    invert,
    invert_coefficient_route,
    random_solenoidal_field,
    relative_divergence_residual,
    relative_l2_error,
    roundtrip_report,
    solenoidal_project,
)
from tensorray.inversion import _quarter_turn_series


class TestMomentConditions:
    def test_gaussian_range_data_passes(self, grid128):
        f = gaussian_test_field(0, "generic", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        report = check_moment_conditions(psi, rmax=4, tol=1e-6)
        assert report.passed
        # mu_0 is the constant 2*pi: full plane integral of the Gaussian
        mu0 = report.orders[0]
        assert mu0.magnitudes[mu0.magnitudes.argmax()] == pytest.approx(2.0 * np.pi, rel=1e-6)

    def test_constructed_violator_fails_at_r0(self):
        num_p, ntheta = 129, 32
        ps = np.linspace(-8.0, 8.0, num_p)
        thetas = 2.0 * np.pi * np.arange(ntheta) / ntheta
        samples = np.exp(-(ps**2))[:, None] * np.cos(thetas)[None, :]
        psi = Sinogram(m=0, pmax=8.0, samples=samples)
        report = check_moment_conditions(psi, rmax=0, tol=1e-5)
        assert not report.passed
        assert report.orders[0].forbidden_fraction > 0.9

    def test_zero_sinogram_passes_trivially(self):
        psi = Sinogram(m=1, pmax=4.0, samples=np.zeros((33, 16)))
        report = check_moment_conditions(psi, rmax=3, tol=1e-8)
        assert report.passed
        assert all(o.degenerate for o in report.orders)

    def test_vanishing_moments_detected_as_degenerate(self, grid128):
        # centered symmetric rank-2 field: odd moments vanish identically,
        # leaving only quadrature noise, which must not be scored
        f = gaussian_test_field(2, "solenoidal", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        report = check_moment_conditions(psi, rmax=4, tol=1e-5)
        assert report.passed
        assert report.orders[1].degenerate  # first moment is exactly zero

    def test_insufficient_decay_names_order(self):
        num_p, ntheta = 65, 16
        ps = np.linspace(-8.0, 8.0, num_p)
        samples = np.exp(-(ps**2) / 64.0)[:, None] * np.ones((1, ntheta))
        psi = Sinogram(m=0, pmax=8.0, samples=samples)
        with pytest.raises(ValueError, match="order 0"):
            check_moment_conditions(psi, rmax=2)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_invalid_tol_rejected(self, tol):
        psi = Sinogram(m=1, pmax=4.0, samples=np.zeros((33, 16)))
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            check_moment_conditions(psi, rmax=0, tol=tol)

    def test_report_dict_shape(self, grid64):
        psi = forward(gaussian_test_field(0, "generic", grid64), num_p=65, ntheta=16)
        report = check_moment_conditions(psi, rmax=2, tol=1e-5)
        entries = report.to_dict()
        assert [e["r"] for e in entries] == [0, 1, 2]
        assert all(set(e) == {"r", "forbidden_fraction", "pass"} for e in entries)


def _non_range_sinogram():
    ntheta = 16
    thetas = 2.0 * np.pi * np.arange(ntheta) / ntheta
    ps = np.linspace(-8.0, 8.0, 65)
    samples = np.exp(-(ps**2))[:, None] * np.cos(thetas)[None, :]
    return Sinogram(m=0, pmax=8.0, samples=samples)


class TestInvert:
    # round-trip bounds sit ~10x above what n=128, ntheta=64 reaches
    def test_m0_gaussian_roundtrip(self, grid128):
        f = gaussian_test_field(0, "generic", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        rec = invert(psi, grid128, check_range=False)
        assert relative_l2_error(rec, f) < 1.2e-5

    @pytest.mark.parametrize("m", [1, 2])
    def test_generic_roundtrip_recovers_projection(self, m, grid128):
        f = gaussian_test_field(m, "generic", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        rec = invert(psi, grid128, check_range=False)
        assert relative_l2_error(rec, solenoidal_project(f)) < 5e-5

    def test_shifted_field_roundtrip(self, grid128):
        # off-center support excites every angular harmonic
        x, y = grid128.mesh()
        shifted = np.exp(-((x - 0.7) ** 2 + (y + 0.4) ** 2) / 2.0)
        f = TensorField2D(m=0, grid=grid128, components=shifted[None])
        psi = forward(f, num_p=129, ntheta=64)
        rec = invert(psi, grid128, check_range=False)
        assert relative_l2_error(rec, f) < 1.2e-5

    def test_rank3_full_pipeline(self, grid128):
        f = gaussian_test_field(3, "solenoidal", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        rec = invert(psi, grid128, check_range=False)
        assert relative_l2_error(rec, f) < 7.5e-5
        assert check_moment_conditions(psi, rmax=4, tol=1e-5).passed

    def test_zero_sinogram_gives_zero_field(self, grid64):
        psi = Sinogram(m=1, pmax=8.0, samples=np.zeros((65, 32)))
        rec = invert(psi, grid64, check_range=False)
        assert field_l2_norm(rec) == 0.0

    def test_output_is_solenoidal(self, grid128):
        f = gaussian_test_field(2, "generic", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        rec = invert(psi, grid128, check_range=False)
        assert relative_divergence_residual(rec) < 1e-8

    def test_roundtrip_contracts_onto_range(self, grid128):
        f = gaussian_test_field(1, "generic", grid128)
        a = invert(forward(f, num_p=129, ntheta=64), grid128, check_range=False)
        b = invert(
            forward(solenoidal_project(f), num_p=129, ntheta=64), grid128, check_range=False
        )
        assert relative_l2_error(a, b) < 1e-3

    def test_fst_convention_roundtrip(self, grid128):
        # a sinogram carries no transform convention: both routes ignore it
        f = gaussian_test_field(1, "solenoidal", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        rec = invert(psi, grid128, convention="fst", check_range=False)
        assert relative_l2_error(rec, f) < 3e-5
        lemma = invert(psi, grid128, convention="lemma", check_range=False)
        assert np.array_equal(rec.components, lemma.components)
        assert np.array_equal(
            invert_coefficient_route(psi, grid128, "fst"),
            invert_coefficient_route(psi, grid128, "lemma"),
        )

    @pytest.mark.parametrize("m, power", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2), (3, 0), (3, 3)])
    def test_series_is_a_real_spectrum_bitwise(self, m, power, grid64):
        # the series is the half plane ky = 0 .. n/2 of a real spectrum, in
        # fft order: s(-y) = (-1)^(m + power) conj(s(y)) is implied off the
        # ky = 0 column and holds exactly on it, even off the range, so both
        # routes hand the series to irfft2 as it is
        rng = np.random.default_rng(20 + m)
        ps = np.linspace(-8.0, 8.0, 65)
        samples = rng.standard_normal((65, 32)) * np.exp(-(ps**2))[:, None]
        s = _quarter_turn_series(Sinogram(m=m, pmax=8.0, samples=samples), grid64, power)
        flip = (grid64.n - np.arange(grid64.n)) % grid64.n
        assert s.shape == (64, 33)
        assert np.abs(s[:, 1:]).max() > 0.0
        assert np.array_equal(s[:, 0], (-1.0) ** (m + power) * np.conj(s[flip, 0]))
        assert np.abs(s[:, 0]).max() > 0.0
        assert not s[:, -1].any()  # the Nyquist column lies beyond the band

    def test_unknown_convention_rejected_before_range_check(self, grid64):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RangeDataWarning)
            with pytest.raises(ValueError, match="convention"):
                invert(_non_range_sinogram(), grid64, "unitary")
            with pytest.raises(ValueError, match="convention"):
                invert_coefficient_route(_non_range_sinogram(), grid64, "unitary")

    def test_warns_on_non_range_data(self, grid64):
        with pytest.warns(RangeDataWarning):
            invert(_non_range_sinogram(), grid64)

    def test_range_data_does_not_warn(self, grid64):
        f = gaussian_test_field(0, "generic", grid64)
        psi = forward(f, num_p=65, ntheta=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RangeDataWarning)
            invert(psi, grid64)


class TestCoefficientRoute:
    def test_m0_gaussian(self, grid128):
        f = gaussian_test_field(0, "generic", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        rec = invert_coefficient_route(psi, grid128)
        err = np.abs(rec - f.component(0)).max() / np.abs(f.component(0)).max()
        assert err < 2e-5

    @pytest.mark.parametrize("m", [1, 2])
    def test_agrees_with_amplitude_route(self, m, grid128):
        f = gaussian_test_field(m, "solenoidal", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        via_amplitude = invert(psi, grid128, check_range=False).component(m)
        via_coefficients = invert_coefficient_route(psi, grid128)
        scale = np.abs(via_amplitude).max()
        assert np.abs(via_amplitude - via_coefficients).max() / scale < 1e-3

    def test_origin_keeps_only_the_isotropic_harmonic(self, grid64):
        # the direction of y is undefined at y = 0; without an l = 0
        # harmonic the spectrum vanishes there, so the field integrates to 0
        ps = np.linspace(-8.0, 8.0, 65)
        thetas = 2.0 * np.pi * np.arange(32) / 32
        samples = np.exp(-(ps**2))[:, None] * np.cos(2.0 * thetas)[None, :]
        rec = invert_coefficient_route(Sinogram(m=0, pmax=8.0, samples=samples), grid64)
        assert abs(rec.sum()) < 1e-12 * np.abs(rec).sum()

    def test_zero_sinogram(self, grid64):
        psi = Sinogram(m=2, pmax=8.0, samples=np.zeros((65, 32)))
        rec = invert_coefficient_route(psi, grid64)
        assert np.abs(rec).max() == 0.0


class TestRoundtripReport:
    def test_gaussian_report(self, grid128):
        f = gaussian_test_field(0, "generic", grid128)
        report = roundtrip_report(f, SobolevParams(0, 0, 0), ntheta=64)
        assert not report["degenerate"]
        assert report["roundtrip_l2_rel"] < 1e-2
        assert 0.99 < report["reshetnyak_ratio"] < 1.01
        assert all(entry["pass"] for entry in report["moments"])
        assert report["params"] == {"r": 0.0, "s": 0.0, "t": 0.0}

    def test_random_solenoidal_report(self, grid128):
        f = random_solenoidal_field(2, grid128, seed=42)
        report = roundtrip_report(f, SobolevParams(1.0, 0.0, 0.0), ntheta=64)
        # measured 1.1e-5
        assert report["roundtrip_l2_rel"] < 5e-5
        assert 0.99 < report["reshetnyak_ratio"] < 1.01
        assert all(entry["pass"] for entry in report["moments"])

    def test_zero_field_reported_degenerate(self, grid64):
        f = TensorField2D(m=1, grid=grid64, components=np.zeros((2, 64, 64)))
        report = roundtrip_report(f, SobolevParams(0, 0, 0))
        assert report["degenerate"] is True
        assert "roundtrip_l2_rel" not in report

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_potential_field_reported_degenerate(self, m, grid128):
        # its solenoidal part is 1e-14 of f: noise the gate must not judge
        f = gaussian_test_field(m, "potential", grid128)
        report = roundtrip_report(f, SobolevParams(0, 0, 0), ntheta=64)
        assert report["degenerate"] is True
        assert "roundtrip_l2_rel" not in report

    def test_report_is_json_ready(self, grid64):
        import json

        f = gaussian_test_field(0, "generic", grid64)
        report = roundtrip_report(f, SobolevParams(0, 0, 0), ntheta=16)
        json.dumps(report)
