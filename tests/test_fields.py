"""Tensor fields: solenoidal algebra, synthesis, projection, generators."""

import numpy as np
import pytest

from references import symmetrized_gradient
from tensorray import (
    CartesianGrid,
    PolarFrequencyGrid,
    TensorField2D,
    component_spectrum_polar,
    field_l2_norm,
    fourier_transform_2d,
    gaussian_test_field,
    random_solenoidal_field,
    relative_divergence_residual,
    relative_l2_error,
    solenoidal_project,
)
from tensorray import fields
from tensorray.fields import _synthesize_solenoidal


def gaussian_parts(grid):
    x, y = grid.mesh()
    return x, y, np.exp(-(x**2 + y**2) / 2.0)


class TestDivergenceResidual:
    def test_rotated_gradient_is_solenoidal(self, grid128):
        f = gaussian_test_field(1, "solenoidal", grid128)
        assert relative_divergence_residual(f) < 1e-8

    def test_finite_difference_oracle_agrees(self, grid128):
        # independent check: central differences on the same solenoidal field
        f = gaussian_test_field(1, "solenoidal", grid128)
        h = grid128.spacing
        fd = np.gradient(f.components[0], h, axis=0) + np.gradient(f.components[1], h, axis=1)
        scale = field_l2_norm(f)
        fd_norm = np.sqrt(h * h * np.sum(fd**2)) / scale
        # the FD residual is limited by its own truncation error, not the field
        assert fd_norm < 1e-2

    def test_gradient_residual_is_laplacian(self, grid128):
        # f = grad(G) has divergence equal to the closed-form Laplacian of G
        x, y, g = gaussian_parts(grid128)
        f = TensorField2D(m=1, grid=grid128, components=np.array([-x * g, -y * g]))
        h = grid128.spacing
        laplacian = np.sqrt(h * h * np.sum(((x**2 + y**2 - 2.0) * g) ** 2))
        expected = laplacian / field_l2_norm(f)
        assert expected > 1e-2  # clearly not solenoidal
        assert abs(relative_divergence_residual(f) - expected) < 1e-10 * expected

    def test_zero_field(self, grid64):
        f = TensorField2D(m=2, grid=grid64, components=np.zeros((3, 64, 64)))
        assert relative_divergence_residual(f) == 0.0

    def test_scalar_field_rejected(self, grid64):
        f = gaussian_test_field(0, "generic", grid64)
        with pytest.raises(ValueError, match="vacuously solenoidal"):
            relative_divergence_residual(f)


class TestSynthesizeSolenoidal:
    def test_m0_identity_passthrough(self, grid128):
        def amplitude(qx, qy):
            return np.exp(-(qx**2 + qy**2) / 2.0)

        f = _synthesize_solenoidal(amplitude(*grid128.dual().mesh()), 0, grid128)
        _, _, g = gaussian_parts(grid128)
        assert np.abs(f.component(0) - g).max() < 1e-12

    def test_m1_radial_matches_closed_form(self, grid128):
        # amplitude i*q*exp(-q^2/2) is exactly the spectrum of (-dG/dy, dG/dx)
        def amplitude(qx, qy):
            q = np.hypot(qx, qy)
            return 1j * q * np.exp(-(q**2) / 2.0)

        f = _synthesize_solenoidal(amplitude(*grid128.dual().mesh()), 1, grid128)
        assert relative_divergence_residual(f) < 1e-8
        ref = gaussian_test_field(1, "solenoidal", grid128)
        assert relative_l2_error(f, ref) < 1e-10

    @pytest.mark.parametrize("m", [2, 3])
    def test_radial_amplitude_component_relation(self, m, grid128):
        # cos^(m-j) fhat_j = (-1)^(m-j) sin^(m-j) fhat_m at every frequency,
        # checked multiplied through by q^(m-j):
        #   y1^(m-j) fhat_j = (-y2)^(m-j) fhat_m
        def amplitude(qx, qy):
            q = np.hypot(qx, qy)
            return (1j**m) * q**m * np.exp(-(q**2) / 2.0)

        f = _synthesize_solenoidal(amplitude(*grid128.dual().mesh()), m, grid128)
        specs = [fourier_transform_2d(f.component(j), grid128) for j in range(m + 1)]
        qx, qy = grid128.dual().mesh()
        scale = max(np.abs(s).max() for s in specs)
        for j in range(m):
            lhs = qx ** (m - j) * specs[j]
            rhs = (-qy) ** (m - j) * specs[m]
            denom = scale * grid128.dual().radius ** (m - j)
            assert np.abs(lhs - rhs).max() / denom < 1e-10

    def test_rotated_relation_after_projection(self, grid128):
        # sin^(m-j) fhat_j(q, phi+pi/2) = cos^(m-j) fhat_m(q, phi+pi/2),
        # equivalently (-y1)^(m-j) fhat_j = y2^(m-j) fhat_m pointwise
        m = 2
        f = solenoidal_project(gaussian_test_field(m, "generic", grid128))
        specs = [fourier_transform_2d(f.component(j), grid128) for j in range(m + 1)]
        qx, qy = grid128.dual().mesh()
        scale = max(np.abs(s).max() for s in specs)
        for j in range(m):
            lhs = (-qx) ** (m - j) * specs[j]
            rhs = qy ** (m - j) * specs[m]
            denom = scale * grid128.dual().radius ** (m - j)
            assert np.abs(lhs - rhs).max() / denom < 1e-8

    def test_rejects_non_decaying_amplitude(self, grid64):
        with pytest.raises(ValueError, match="decay"):
            _synthesize_solenoidal(np.ones((64, 64), dtype=complex), 1, grid64)

    def test_rejects_non_hermitian_amplitude(self, grid64, monkeypatch):
        # radial real amplitude with m = 1 would produce an imaginary field;
        # the inverse transform reads half the plane, so it must be rejected
        # before anything is transformed, not symmetrized
        q = np.hypot(*grid64.dual().mesh())
        given = q * np.exp(-(q**2) / 2.0)

        def refuse(*args, **kwargs):
            raise AssertionError("transformed a non-Hermitian amplitude")

        for name in ("ifft2", "irfft2"):
            monkeypatch.setattr(np.fft, name, refuse)
        with pytest.raises(ValueError, match="conjugate symmetry"):
            _synthesize_solenoidal(given, 1, grid64)


class TestSolenoidalProject:
    def test_fixes_solenoidal_fields(self, grid128):
        f = gaussian_test_field(2, "solenoidal", grid128)
        assert relative_l2_error(solenoidal_project(f), f) < 1e-8

    def test_kills_gradient_fields(self, grid128):
        # oracle: direct frequency algebra — a gradient spectrum is parallel
        # to y, so its eta-component vanishes identically
        x, y, g = gaussian_parts(grid128)
        f = TensorField2D(m=1, grid=grid128, components=np.array([-x * g, -y * g]))
        proj = solenoidal_project(f)
        assert field_l2_norm(proj) < 1e-8 * field_l2_norm(f)

    def test_idempotent(self, grid128):
        f = gaussian_test_field(2, "generic", grid128)
        once = solenoidal_project(f)
        twice = solenoidal_project(once)
        assert relative_l2_error(twice, once) < 1e-12

    def test_linear(self, grid64):
        f = gaussian_test_field(1, "generic", grid64)
        g = gaussian_test_field(1, "solenoidal", grid64)
        lhs = solenoidal_project(
            TensorField2D(m=1, grid=grid64, components=2.0 * f.components + g.components)
        )
        rhs = 2.0 * solenoidal_project(f).components + solenoidal_project(g).components
        assert np.abs(lhs.components - rhs).max() < 1e-12

    def test_norm_nonincreasing(self, grid128):
        f = gaussian_test_field(2, "generic", grid128)
        assert field_l2_norm(solenoidal_project(f)) <= field_l2_norm(f) * (1 + 1e-10)

    def test_m0_is_identity(self, grid64):
        f = gaussian_test_field(0, "generic", grid64)
        assert np.abs(solenoidal_project(f).components - f.components).max() == 0.0

    def test_projection_output_is_solenoidal(self, grid128):
        f = gaussian_test_field(2, "generic", grid128)
        assert relative_divergence_residual(solenoidal_project(f)) < 1e-8

    def test_rank3_desk_scale_peak_memory(self, grid256):
        import tracemalloc

        # one n x n spectrum at a time: the monomials, the accumulated inner
        # product, the output and the constructor's copy dominate; measured
        # 8.4 MB, where holding all m + 1 spectra at once needed 19.9 MB
        f = gaussian_test_field(3, "generic", grid256)
        tracemalloc.start()
        try:
            solenoidal_project(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestGaussianTestField:
    def test_m0_generic_is_the_gaussian(self, grid64):
        f = gaussian_test_field(0, "generic", grid64)
        _, _, g = gaussian_parts(grid64)
        assert np.abs(f.component(0) - g).max() == 0.0

    def test_m1_solenoidal_closed_form(self, grid64):
        f = gaussian_test_field(1, "solenoidal", grid64)
        x, y, g = gaussian_parts(grid64)
        assert np.abs(f.component(0) - y * g).max() == 0.0
        assert np.abs(f.component(1) + x * g).max() == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_solenoidal_kinds_pass_residual(self, m, grid128):
        f = gaussian_test_field(m, "solenoidal", grid128)
        assert relative_divergence_residual(f) < 1e-8

    def test_m2_potential_is_symmetrized_gradient(self, grid64):
        # closed-form generator agrees with the spectral symmetrized gradient
        f = gaussian_test_field(2, "potential", grid64)
        v = gaussian_test_field(1, "generic", grid64)
        ref = symmetrized_gradient(v)
        assert relative_l2_error(f, ref) < 1e-10

    def test_radius_precondition(self):
        from tensorray import CartesianGrid

        small = CartesianGrid(n=32, radius=1.0)
        with pytest.raises(ValueError, match="6 x width"):
            gaussian_test_field(1, "solenoidal", small)
        with pytest.raises(ValueError, match="6 x width"):
            random_solenoidal_field(1, small, seed=3)

    def test_m0_potential_rejected(self, grid64):
        with pytest.raises(ValueError, match="m >= 1"):
            gaussian_test_field(0, "potential", grid64)

    def test_unknown_kind_rejected(self, grid64):
        with pytest.raises(ValueError, match="kind"):
            gaussian_test_field(1, "swirly", grid64)

    def test_boundary_decay(self, grid128):
        # rank 2 components carry an (x^2 - 1) factor, so the edge level is
        # (R^2 - 1) * exp(-R^2/2) ~ 2e-12 at R = 8; ranks 0 and 1 sit lower
        for m, bound in ((0, 1e-13), (1, 1e-12), (2, 5e-12)):
            f = gaussian_test_field(m, "generic", grid128)
            comps = f.components
            edge = max(
                np.abs(comps[:, 0, :]).max(),
                np.abs(comps[:, -1, :]).max(),
                np.abs(comps[:, :, 0]).max(),
                np.abs(comps[:, :, -1]).max(),
            )
            assert edge < bound


class TestRandomSolenoidalField:
    def test_deterministic_and_solenoidal(self, grid128):
        f1 = random_solenoidal_field(1, grid128, seed=11)
        f2 = random_solenoidal_field(1, grid128, seed=11)
        assert np.abs(f1.components - f2.components).max() == 0.0
        assert relative_divergence_residual(f1) < 1e-8

    def test_seed_changes_field(self, grid128):
        f1 = random_solenoidal_field(2, grid128, seed=1)
        f2 = random_solenoidal_field(2, grid128, seed=2)
        assert relative_l2_error(f1, f2) > 1e-2


class TestGeneratorWidth:
    @pytest.mark.parametrize("width", [0.0, -1.0, -0.5, np.nan, np.inf])
    def test_rejected_by_both_generators(self, width, grid64):
        with pytest.raises(ValueError, match="width must be positive and finite"):
            random_solenoidal_field(1, grid64, seed=3, width=width)
        with pytest.raises(ValueError, match="width must be positive and finite"):
            gaussian_test_field(1, "solenoidal", grid64, width=width)

    @pytest.mark.parametrize("m", [0, 1, 4])
    @pytest.mark.parametrize("width", [0.02, 0.05, 0.15])
    def test_narrower_than_the_spacing_bound_rejected(self, m, width, grid256):
        # h = 0.0625, so the bound is 0.156; at w = 0.05 the solenoidal kind
        # used to be written with a divergence residual of 1.9
        for kind in ("solenoidal", "generic"):
            with pytest.raises(ValueError, match="2.5 x grid spacing"):
                gaussian_test_field(m, kind, grid256, width=width)
        with pytest.raises(ValueError, match="2.5 x grid spacing"):
            random_solenoidal_field(m, grid256, seed=3, width=width)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_narrowest_width_passes_the_gate(self, m, grid64, grid256):
        # measured at w = 2.5 h: <= 8.1e-11 for the solenoidal kind (n = 64
        # and 256), <= 1.1e-9 for random fields (seeds 0-19, n = 256)
        for grid in (grid64, grid256):
            f = gaussian_test_field(m, "solenoidal", grid, width=2.5 * grid.spacing)
            assert relative_divergence_residual(f) < 1e-8
        for seed in (0, 1, 2):
            f = random_solenoidal_field(m, grid256, seed=seed, width=2.5 * grid256.spacing)
            assert relative_divergence_residual(f) < 1e-8

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_every_admitted_random_width_synthesizes(self, m, n):
        # the amplitude's edge-to-peak ratio at its narrowest admitted width
        # stays below the 1e-8 _synthesize_solenoidal accepts for every seed;
        # at n = 64, m = 4 the width 2.5 h is refused up front (it used to
        # pass the width check and fail the synthesis for 10 of seeds 0-19)
        grid = CartesianGrid(n, 8.0)
        narrowest = fields._narrowest_width(m + 3, grid)
        width = max(narrowest, 2.5 * grid.spacing)
        for seed in range(20):
            random_solenoidal_field(m, grid, seed=seed, width=width)
        if narrowest > 2.5 * grid.spacing:
            with pytest.raises(ValueError, match="frequency-grid edge"):
                random_solenoidal_field(m, grid, seed=0, width=0.999 * narrowest)
        assert (narrowest > 2.5 * grid.spacing) == (n == 64 and m == 4)

    def test_random_rank_checked(self, grid64):
        with pytest.raises(ValueError, match="tensor rank must be >= 0"):
            random_solenoidal_field(-1, grid64, seed=0)


class TestComponentSpectrumPolar:
    @pytest.mark.parametrize("angle_offset", [0.0, np.pi / 2.0])
    def test_off_centre_gaussian_matches_analytic(self, angle_offset, grid256):
        # exp(-|x - c|^2 / (2 w^2)) has spectrum w^2 exp(-q^2 w^2 / 2) exp(-i q.c)
        w, cx, cy = 0.9, 0.5, -0.25
        x, y = grid256.mesh()
        g = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * w**2))
        f = TensorField2D(m=0, grid=grid256, components=g[None])
        pgrid = PolarFrequencyGrid(nq=512, qmax=8.0, ntheta=128)
        polar = component_spectrum_polar(f, 0, pgrid, angle_offset=angle_offset)
        q = pgrid.radial_nodes()[:, None]
        phi = pgrid.angular_nodes()[None, :] + angle_offset
        exact = w**2 * np.exp(-(q**2) * w**2 / 2.0) * np.exp(
            -1j * q * (cx * np.cos(phi) + cy * np.sin(phi))
        )
        assert np.abs(polar - exact).max() < 1e-6


class TestProjectionDCHandling:
    def test_component_means_preserved(self, grid64):
        # zero frequency is left unchanged by the projector, so every
        # component keeps its integral
        _, _, g = gaussian_parts(grid64)
        f = TensorField2D(m=1, grid=grid64, components=np.array([g, 0.3 * g]))
        proj = solenoidal_project(f)
        for j in range(2):
            assert proj.component(j).sum() == pytest.approx(
                f.component(j).sum(), rel=1e-12
            )


class TestTensorField2D:
    def test_validation(self, grid64):
        with pytest.raises(ValueError, match="shape"):
            TensorField2D(m=1, grid=grid64, components=np.zeros((1, 64, 64)))
        bad = np.zeros((2, 64, 64))
        bad[0, 1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            TensorField2D(m=1, grid=grid64, components=bad)

    def test_components_read_only(self, grid64):
        f = gaussian_test_field(1, "solenoidal", grid64)
        with pytest.raises(ValueError):
            f.components[0, 0, 0] = 1.0
