"""Weighted Sobolev norms and the isometry ratio."""

import collections
import warnings

import numpy as np
import pytest

from tensorray import (
    Sinogram,
    SobolevParams,
    TensorField2D,
    TruncationWarning,
    field_norm,
    forward,
    gaussian_test_field,
    random_solenoidal_field,
    reshetnyak_check,
    reshetnyak_ratios,
    sinogram_norm,
)
from tensorray.grids import angular_coefficient_matrix
from tensorray.norms import weighted_norm_sq
from tensorray.slices import sinogram_transform_values, tilde_coefficients


def gaussian_sinogram(num_p=257, ntheta=32, pmax=8.0):
    ps = np.linspace(-pmax, pmax, num_p)
    samples = np.sqrt(2.0 * np.pi) * np.exp(-(ps**2) / 2.0)[:, None] * np.ones((1, ntheta))
    return Sinogram(m=0, pmax=pmax, samples=samples)


def count_side_calls(monkeypatch):
    """Count projections, spectra, p-transforms and gates; record each p-transform's node count."""
    import tensorray.fields
    import tensorray.norms
    import tensorray.slices

    calls = collections.Counter()
    nodes = []

    def count(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "sinogram_transform_values":
                nodes.append(len(args[1]))
            return original(*args, **kwargs)

        return counted

    names = ("forward", "component_spectrum_polar", "sinogram_transform_values")
    for module in (tensorray.slices, tensorray.norms):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, count(name, getattr(module, name)))
    gate = "relative_divergence_residual"
    monkeypatch.setattr(tensorray.fields, gate, count(gate, getattr(tensorray.fields, gate)))
    return calls, nodes


def radial_quadrature_oracle(weight_fn, qmax=12.0, n=400001):
    """Independent fine-grid trapezoid for int_0^inf weight(q) dq."""
    qs = np.linspace(0.0, qmax, n)
    vals = weight_fn(qs)
    vals = np.where(np.isfinite(vals), vals, 0.0)  # q = 0 endpoint of singular weights
    return np.trapezoid(vals, qs)


class TestSinogramNorm:
    def test_gaussian_anchor(self):
        # |psihat_0|^2 = e^{-q^2} under the lemma convention; with weight |q|
        # the norm squared is (1/4pi) int_R |q| e^{-q^2} dq = 1/(4pi)
        psi = gaussian_sinogram()
        params = SobolevParams(0.0, 0.5, 0.5)
        norm = sinogram_norm(psi, params, convention="lemma", nq=512, qmax=8.0)
        oracle = radial_quadrature_oracle(lambda q: np.abs(q) * np.exp(-(q**2))) * 2.0
        assert oracle / (4.0 * np.pi) == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-10)
        assert norm**2 == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-5)

    def test_zero_sinogram(self):
        psi = Sinogram(m=0, pmax=4.0, samples=np.zeros((17, 8)))
        assert sinogram_norm(psi, SobolevParams(0, 0, 0)) == 0.0

    def test_r_irrelevant_for_single_harmonic(self):
        # only l = 0 present, and (1 + 0^2)^r = 1 for every r
        psi = gaussian_sinogram()
        a = sinogram_norm(psi, SobolevParams(0.0, 0.5, 0.5))
        b = sinogram_norm(psi, SobolevParams(1.0, 0.5, 0.5))
        assert a == pytest.approx(b, rel=1e-12)

    def test_admissibility(self):
        psi = gaussian_sinogram()
        with pytest.raises(ValueError, match="t > -1/2"):
            sinogram_norm(psi, SobolevParams(0.0, 0.0, -0.5))

    def test_homogeneity(self):
        psi = gaussian_sinogram()
        scaled = Sinogram(m=0, pmax=psi.pmax, samples=3.0 * psi.samples)
        a = sinogram_norm(psi, SobolevParams(1.0, 0.5, 0.25))
        b = sinogram_norm(scaled, SobolevParams(1.0, 0.5, 0.25))
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_fst_is_sqrt_2pi_times_lemma(self):
        psi = gaussian_sinogram()
        params = SobolevParams(1.0, 0.5, 0.25)
        lemma = sinogram_norm(psi, params, "lemma")
        assert sinogram_norm(psi, params, "fst") == np.sqrt(2.0 * np.pi) * lemma

    def test_bad_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            sinogram_norm(gaussian_sinogram(), SobolevParams(0, 0, 0), "unitary")


class TestFieldNorm:
    def test_gaussian_anchor_000(self, grid256):
        # (1/2pi) int_0^inf q e^{-q^2} dq = 1/(4pi)
        f = gaussian_test_field(0, "generic", grid256)
        norm = field_norm(f, SobolevParams(0.0, 0.0, 0.0), nq=512, qmax=8.0)
        oracle = radial_quadrature_oracle(lambda q: q * np.exp(-(q**2))) / (2.0 * np.pi)
        assert oracle == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-10)
        assert norm**2 == pytest.approx(oracle, abs=1e-3)

    def test_gaussian_anchor_010(self, grid256):
        # (1/2pi) int_0^inf q (1+q^2) e^{-q^2} dq = 1/(2pi)
        f = gaussian_test_field(0, "generic", grid256)
        norm = field_norm(f, SobolevParams(0.0, 1.0, 0.0), nq=512, qmax=8.0)
        oracle = radial_quadrature_oracle(lambda q: q * (1 + q**2) * np.exp(-(q**2))) / (
            2.0 * np.pi
        )
        assert oracle == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-10)
        assert norm**2 == pytest.approx(oracle, abs=1e-3)

    def test_zero_field(self, grid64):
        f = TensorField2D(m=0, grid=grid64, components=np.zeros((1, 64, 64)))
        assert field_norm(f, SobolevParams(0, 0, 0)) == 0.0

    def test_admissibility(self, grid64):
        f = gaussian_test_field(0, "generic", grid64)
        with pytest.raises(ValueError, match="t > -1"):
            field_norm(f, SobolevParams(0.0, 0.0, -1.0))

    def test_non_solenoidal_rejected(self, grid64):
        f = gaussian_test_field(1, "generic", grid64)
        with pytest.raises(ValueError, match="solenoidal"):
            field_norm(f, SobolevParams(0, 0, 0))

    def test_homogeneity(self, grid128):
        f = gaussian_test_field(1, "solenoidal", grid128)
        scaled = TensorField2D(m=1, grid=grid128, components=2.5 * f.components)
        a = field_norm(f, SobolevParams(0.5, 0.25, -0.25))
        b = field_norm(scaled, SobolevParams(0.5, 0.25, -0.25))
        assert b == pytest.approx(2.5 * a, rel=1e-12)

    def test_monotone_in_r(self, grid128):
        import warnings
        from tensorray import TruncationWarning

        f = gaussian_test_field(2, "solenoidal", grid128)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            norms = [field_norm(f, SobolevParams(float(r), 0.0, 0.0)) for r in (0, 1, 2)]
        assert norms[0] <= norms[1] * (1 + 1e-12) and norms[1] <= norms[2] * (1 + 1e-12)


class TestReshetnyak:
    def test_m0_lemma_ratio_one(self, grid128):
        f = gaussian_test_field(0, "generic", grid128)
        ratio = reshetnyak_check(f, SobolevParams(0, 0, 0), "lemma", ntheta=64)
        assert abs(ratio - 1.0) < 1e-2

    def test_m0_fst_ratio_sqrt_2pi(self, grid128):
        f = gaussian_test_field(0, "generic", grid128)
        ratio = reshetnyak_check(f, SobolevParams(0, 0, 0), "fst", ntheta=64)
        expect = np.sqrt(2.0 * np.pi)
        assert abs(ratio - expect) < 1e-2 * expect

    def test_m1_nontrivial_params(self, grid128):
        f = gaussian_test_field(1, "solenoidal", grid128)
        ratio = reshetnyak_check(f, SobolevParams(1.0, 0.5, -0.25), "lemma", ntheta=64)
        assert abs(ratio - 1.0) < 1e-2

    def test_zero_field_rejected(self, grid64):
        f = TensorField2D(m=0, grid=grid64, components=np.zeros((1, 64, 64)))
        with pytest.raises(ValueError, match="vanishes"):
            reshetnyak_check(f, SobolevParams(0, 0, 0))

    def test_ratios_sweep_matches_single_checks(self, grid128):
        f = gaussian_test_field(1, "solenoidal", grid128)
        plist = [SobolevParams(0, 0, 0), SobolevParams(1, 0, 0)]
        swept = reshetnyak_ratios(f, plist, "lemma", ntheta=64)
        singles = [reshetnyak_check(f, p, "lemma", ntheta=64) for p in plist]
        assert np.allclose(swept, singles, rtol=1e-12)

    def test_non_solenoidal_rejected_with_advice(self, grid64):
        # the potential part of a generic field has norm but no sinogram, so
        # the isometry ratio would read below 1 rather than fail
        f = gaussian_test_field(1, "generic", grid64)
        with pytest.raises(ValueError, match="solenoidal_project"):
            reshetnyak_ratios(f, [SobolevParams(0, 0, 0)])
        with pytest.raises(ValueError, match="solenoidal_project"):
            reshetnyak_check(f, SobolevParams(0, 0, 0))

    def test_shifted_admissibility_enforced(self, grid64):
        f = gaussian_test_field(0, "generic", grid64)
        with pytest.raises(ValueError, match="t > -1"):
            reshetnyak_check(f, SobolevParams(0, 0, -1.2))

    def test_overflowing_weights_rejected(self, grid64):
        # (1+63^2)^200 overflows: the ratio would be NaN
        f = gaussian_test_field(1, "solenoidal", grid64)
        with pytest.raises(ValueError, match=r"\(r, s, t\) = \(200, 0, 0\)"):
            reshetnyak_ratios(f, [SobolevParams(200.0, 0.0, 0.0)], ntheta=128, nq=64)

    def test_ratio_uniform_across_weight_range(self, grid128):
        # the matched midpoint nodes keep the ratio flat even where the
        # radial weight is singular (t near -1) or strongly growing
        f = gaussian_test_field(1, "solenoidal", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        plist = [SobolevParams(0.0, 0.0, t) for t in (-0.9, -0.5, 0.75, 2.0)]
        ratios = reshetnyak_ratios(f, plist, "lemma", ntheta=64, sinogram=psi)
        assert max(abs(r - 1.0) for r in ratios) < 1e-3

    def test_given_sinogram_computes_each_side_once(self, monkeypatch, grid64):
        calls, nodes = count_side_calls(monkeypatch)
        f = gaussian_test_field(1, "solenoidal", grid64)
        psi = forward(f, num_p=65, ntheta=16)
        plist = [SobolevParams(0, 0, 0), SobolevParams(1, 0.5, -0.25)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            reshetnyak_ratios(f, plist, "fst", ntheta=16, nq=32, sinogram=psi)
        assert calls == collections.Counter(
            component_spectrum_polar=1, sinogram_transform_values=1,
            relative_divergence_residual=1,
        )
        assert nodes == [32]  # the positive nodes only

    def test_each_norm_builds_its_side_alone(self, monkeypatch, grid64):
        # the field norm never projects or transforms a sinogram, and the
        # sinogram norm never gates or samples a field: the sides stay independent
        f = gaussian_test_field(1, "solenoidal", grid64)
        psi = forward(f, num_p=65, ntheta=16)
        calls, _ = count_side_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            field_norm(f, SobolevParams(0, 0, 0), nq=32, ntheta=16)
            assert calls == collections.Counter(
                component_spectrum_polar=1, relative_divergence_residual=1,
            )
            calls.clear()
            sinogram_norm(psi, SobolevParams(0, 0.5, 0.5), nq=32)
        assert calls == collections.Counter(sinogram_transform_values=1)

    @pytest.mark.parametrize("m", [1, 3])
    def test_each_norm_is_its_side_of_the_ratio(self, monkeypatch, m, grid64):
        # both norms read the sides the ratio weighs, so they agree bit for bit
        import tensorray.norms

        f = random_solenoidal_field(m, grid64, seed=7)
        psi = forward(f, num_p=65, ntheta=16)
        plist = [SobolevParams(0, 0, 0), SobolevParams(1, 0.5, -0.25)]
        weighed = []
        original = tensorray.norms.weighted_norm_sq

        def record(*args, **kwargs):
            weighed.append(original(*args, **kwargs))
            return weighed[-1]

        monkeypatch.setattr(tensorray.norms, "weighted_norm_sq", record)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            reshetnyak_ratios(f, plist, ntheta=16, nq=32, sinogram=psi)
            in_ratio = list(weighed)  # (field, sinogram) per triple
            for k, params in enumerate(plist):
                assert field_norm(f, params, nq=32, ntheta=16) == np.sqrt(in_ratio[2 * k])
                assert sinogram_norm(psi, params.shifted(), nq=32) == np.sqrt(in_ratio[2 * k + 1])

    @pytest.mark.parametrize("name", ["rank", "ntheta"])
    def test_mismatched_sinogram_rejected(self, name, grid64):
        f = gaussian_test_field(1, "solenoidal", grid64)
        if name == "rank":
            psi = forward(gaussian_test_field(2, "solenoidal", grid64), num_p=65, ntheta=16)
        else:
            psi = forward(f, num_p=65, ntheta=8)
        with pytest.raises(ValueError, match=name):
            reshetnyak_ratios(f, [SobolevParams(0, 0, 0)], ntheta=16, nq=32, sinogram=psi)
        with pytest.raises(ValueError, match=name):
            reshetnyak_check(f, SobolevParams(0, 0, 0), ntheta=16, nq=32, sinogram=psi)

    def test_resolution_arguments_are_keyword_only(self, grid64):
        # a positional offset count would otherwise be read as ntheta
        f = gaussian_test_field(0, "generic", grid64)
        with pytest.raises(TypeError):
            reshetnyak_check(f, SobolevParams(0, 0, 0), "lemma", 65)

    @pytest.mark.parametrize(("m", "bound"), [(1, 1e-5), (3, 2e-5)])
    def test_isometry_for_any_real_r(self, m, bound, grid256):
        import itertools
        import warnings as _warnings

        from tensorray import TruncationWarning

        # negative, zero and fractional r across s and admissible t; desk
        # scale, since at n=128 the r = 3 triples are truncated
        plist = [
            SobolevParams(r, s, t)
            for r, s, t in itertools.product((-3, -0.5, 0, 1.5, 3), (-1, 0, 2), (-0.9, 0, 1))
        ]
        f = random_solenoidal_field(m, grid256, seed=1)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", TruncationWarning)
            ratios = np.array(reshetnyak_ratios(f, plist, "lemma"))
        # measured 8.7e-7 (m = 1) and 1.9e-6 (m = 3)
        assert np.abs(ratios - 1.0).max() < bound


class TestTruncationWarnings:
    def test_radial_tail_warning(self, grid128):
        from tensorray import TruncationWarning

        # qmax far below the spectral support leaves weighted energy at the
        # outermost nodes
        f = gaussian_test_field(0, "generic", grid128)
        with pytest.warns(TruncationWarning, match="radial"):
            field_norm(f, SobolevParams(0, 0, 0), nq=64, qmax=1.5)

    @pytest.mark.parametrize("tail", ["angular", "radial"])
    def test_warning_reports_the_share(self, tail):
        # unit weights (r = s = t = 0) on 20 radial nodes and 9 harmonics:
        # four cells of 1 at l = 0 and one cell of 1 in the tail, so the tail
        # carries 1/5 of the energy; the other tail carries none
        qs = (np.arange(20) + 0.5) * 0.1
        coeffs = np.zeros((9, 20))
        coeffs[4, :4] = 1.0
        if tail == "angular":
            coeffs[0, 0] = 1.0  # l = -4, in the top quarter
            match = r"angular harmonics carry 0\.2 of .*increase ntheta.*lower r"
        else:
            coeffs[4, -1] = 1.0  # the outermost node, the outer 5% of 20
            match = r"radial nodes carry 0\.2 of .*increase qmax"
        with pytest.warns(TruncationWarning, match=match) as record:
            weighted_norm_sq(qs, coeffs, SobolevParams(0, 0, 0), 0.0, warn_context="test")
        assert len(record) == 1

    def test_resolved_norm_does_not_warn(self, grid128):
        import warnings as _warnings

        from tensorray import TruncationWarning

        f = gaussian_test_field(0, "generic", grid128)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", TruncationWarning)
            field_norm(f, SobolevParams(0, 0, 0), nq=512, qmax=8.0)

    @pytest.mark.parametrize("width", [0.8, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_smooth_solenoidal_fields_do_not_warn(self, m, width, grid256):
        import warnings as _warnings

        from tensorray import TruncationWarning

        # smooth fields resolved at desk scale carry no top-quarter harmonic
        # energy, so a warning here would be spectrum-sampler noise
        f = gaussian_test_field(m, "solenoidal", grid256, width=width)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", TruncationWarning)
            field_norm(f, SobolevParams(1.0, 0.5, -0.25))


class TestFactorOfTwoBookkeeping:
    @staticmethod
    def symmetric_quadrature(psi, params, nq, qmax):
        """(1/2pi) sum over the 2*nq symmetric nodes covering [-qmax, qmax]."""
        qs = (np.arange(2 * nq) + 0.5 - nq) * (qmax / nq)
        values = sinogram_transform_values(psi, qs)
        coeffs = angular_coefficient_matrix(values, psi.ntheta // 2 - 1).T
        return weighted_norm_sq(qs, tilde_coefficients(coeffs, psi.m), params, 0.0)

    def test_full_line_integral_is_twice_positive_half(self, grid128):
        # conjugate symmetry of the p-transform makes the weighted integrand
        # even in q, so the positive half carries exactly half of it
        f = gaussian_test_field(1, "solenoidal", grid128)
        psi = forward(f, num_p=129, ntheta=64)
        for params in (SobolevParams(0.0, 0.5, 0.5), SobolevParams(1.5, 1.0, 0.0)):
            full = self.symmetric_quadrature(psi, params, nq=256, qmax=8.0)
            norm = sinogram_norm(psi, params, nq=256, qmax=8.0)
            assert norm**2 == pytest.approx(0.5 * full, rel=1e-10)

    def test_non_range_sinogram_norm_is_half_the_full_line(self):
        # the symmetry needs a real sinogram only, not range data: random
        # rank-2 samples with no parity and no decay in p
        rng = np.random.default_rng(7)
        psi = Sinogram(m=2, pmax=8.0, samples=rng.standard_normal((65, 32)))
        params = SobolevParams(0.5, 0.5, 0.25)
        full = self.symmetric_quadrature(psi, params, nq=128, qmax=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            norm = sinogram_norm(psi, params, nq=128, qmax=8.0)
        assert norm**2 == pytest.approx(0.5 * full, rel=1e-10)


class TestWeightedNormValidation:
    def test_single_radial_node_rejected(self):
        with pytest.raises(ValueError, match="at least 2 radial nodes"):
            weighted_norm_sq(np.array([0.5]), np.ones((3, 1)), SobolevParams(0.0, 0.5, 0.5), 0.0)

    def test_coefficient_count_must_match_nodes(self):
        qs = np.linspace(0.1, 4.0, 8)
        with pytest.raises(ValueError, match="match the radial nodes"):
            weighted_norm_sq(qs, np.ones((3, 7)), SobolevParams(0.0, 0.5, 0.5), 0.0)

    @pytest.mark.parametrize("params", [
        SobolevParams(200.0, 0.0, 0.0), SobolevParams(0.0, 300.0, 0.0), SobolevParams(0.0, 0.0, 300.0),
    ], ids=["r", "s", "t"])
    def test_overflowing_weights_rejected(self, params):
        # (1+63^2)^200 and (1+q^2)^300 exceed the float range; the sum would be inf or nan
        qs = (np.arange(64) + 0.5) * 8.0 / 64
        with pytest.raises(ValueError, match=r"overflows at \(r, s, t\)"):
            weighted_norm_sq(qs, np.ones((127, 64)), params, 1.0)
