"""Acceptance suite: every criterion at desk scale with pinned tolerances.

Desk scale: n = 256, R = 8, num_p = 257, ntheta = 128, nq = 512, qmax = 8.
Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import warnings

import numpy as np
import pytest

from tensorray import (
    Sinogram,
    SobolevParams,
    TensorField2D,
    TruncationWarning,
    check_moment_conditions,
    field_norm,
    forward,
    fst_coefficient_residual,
    fst_scalar_residual,
    fst_solenoidal_residual,
    gaussian_test_field,
    invert,
    invert_coefficient_route,
    measure_slice_constant,
    parity_residual,
    relative_l2_error,
    reshetnyak_ratios,
    solenoidal_project,
)
from tensorray.grids import CartesianGrid, angular_coefficient_matrix
from tensorray.slices import _tilde_coefficients, sinogram_transform_values

N, RADIUS, NUM_P, NTHETA, NQ, QMAX = 256, 8.0, 257, 128, 512, 8.0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def grid():
    return CartesianGrid(n=N, radius=RADIUS)


@pytest.fixture(scope="module")
def fields(grid):
    x, y = grid.mesh()
    shifted = np.exp(-((x - 0.5) ** 2 + (y + 0.25) ** 2) / 2.0)
    return {
        "m0": gaussian_test_field(0, "generic", grid),
        "m0_shifted": TensorField2D(m=0, grid=grid, components=shifted[None]),
        "m1_sol": gaussian_test_field(1, "solenoidal", grid),
        "m2_sol": gaussian_test_field(2, "solenoidal", grid),
        "m1_gen": gaussian_test_field(1, "generic", grid),
        "m2_gen": gaussian_test_field(2, "generic", grid),
    }


@pytest.fixture(scope="module")
def sinograms(fields):
    return {
        key: forward(f, num_p=NUM_P, ntheta=NTHETA, pmax=RADIUS)
        for key, f in fields.items()
    }


class TestCriterion1ScalarSliceTheorem:
    def test_gaussian_and_shifted_gaussian(self, fields, sinograms):
        res_centered = fst_scalar_residual(
            fields["m0"], ntheta=NTHETA, nq=NQ, qmax=QMAX, sinogram=sinograms["m0"]
        )
        res_shifted = fst_scalar_residual(
            fields["m0_shifted"], ntheta=NTHETA, nq=NQ, qmax=QMAX,
            sinogram=sinograms["m0_shifted"],
        )
        ok = res_centered < 1e-3 and res_shifted < 1e-3
        report(1, ok, f"scalar slice residuals: centered {res_centered:.2e}, "
                      f"shifted {res_shifted:.2e} (tol 1e-3)")


class TestCriterion2SolenoidalSliceLemma:
    def test_lemma_residuals_and_fst_constant(self, fields, sinograms):
        residuals = {
            m: fst_solenoidal_residual(
                fields[f"m{m}_sol"], "lemma", ntheta=NTHETA, nq=NQ, qmax=QMAX,
                sinogram=sinograms[f"m{m}_sol"],
            )
            for m in (1, 2)
        }
        constants = {
            m: measure_slice_constant(
                fields[f"m{m}_sol"], "fst", ntheta=NTHETA, nq=NQ, qmax=QMAX,
                sinogram=sinograms[f"m{m}_sol"],
            )
            for m in (1, 2)
        }
        root_2pi = np.sqrt(2.0 * np.pi)
        ok = all(r < 1e-3 for r in residuals.values()) and all(
            abs(c - root_2pi) < 0.01 * root_2pi for c in constants.values()
        )
        report(2, ok, f"solenoidal slice residuals (lemma) {residuals[1]:.2e}/"
                      f"{residuals[2]:.2e} (tol 1e-3); fst constants "
                      f"{constants[1]:.4f}/{constants[2]:.4f} vs sqrt(2pi)={root_2pi:.4f} (1%)")


class TestCriterion3CoefficientSliceTheorem:
    def test_all_ranks(self, fields, sinograms):
        keys = {0: "m0", 1: "m1_sol", 2: "m2_sol"}
        residuals = {
            m: fst_coefficient_residual(
                fields[key], "lemma", ntheta=NTHETA, nq=NQ, qmax=QMAX,
                sinogram=sinograms[key],
            )
            for m, key in keys.items()
        }
        ok = all(r < 1e-3 for r in residuals.values())
        report(3, ok, "coefficient slice residuals " +
               ", ".join(f"m={m}: {r:.2e}" for m, r in residuals.items()) + " (tol 1e-3)")


class TestCriterion4ReshetnyakIsometry:
    def test_ratio_family(self, fields, sinograms):
        params_list = [
            SobolevParams(0.0, 0.0, 0.0),
            SobolevParams(1.0, 0.0, 0.0),
            SobolevParams(0.0, 1.0, 0.0),
            SobolevParams(1.0, 0.5, -0.25),
        ]
        ratios = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            for m, key in ((0, "m0"), (1, "m1_sol"), (2, "m2_sol")):
                ratios.extend(
                    reshetnyak_ratios(
                        fields[key], params_list, "lemma", ntheta=NTHETA,
                        nq=NQ, qmax=QMAX, sinogram=sinograms[key],
                    )
                )
        ratios = np.array(ratios)
        spread = float(np.std(ratios, ddof=1))
        ok = bool(np.all((ratios > 0.99) & (ratios < 1.01)) and spread <= 5e-3)
        report(4, ok, f"isometry ratios in [{ratios.min():.5f}, {ratios.max():.5f}] "
                      f"(need [0.99, 1.01]); sample std {spread:.2e} (need <= 5e-3)")


class TestCriterion5NormAnchors:
    def test_gaussian_field_norms(self, fields):
        f = fields["m0"]
        sq_000 = field_norm(f, SobolevParams(0, 0, 0), nq=NQ, qmax=QMAX, ntheta=NTHETA) ** 2
        sq_010 = field_norm(f, SobolevParams(0, 1, 0), nq=NQ, qmax=QMAX, ntheta=NTHETA) ** 2

        # independent quadrature oracle for both weighted Gamma integrals
        qs = np.linspace(0.0, 12.0, 400001)
        oracle_000 = np.trapezoid(qs * np.exp(-(qs**2)), qs) / (2.0 * np.pi)
        oracle_010 = np.trapezoid(qs * (1 + qs**2) * np.exp(-(qs**2)), qs) / (2.0 * np.pi)
        assert oracle_000 == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-9)
        assert oracle_010 == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-9)

        ok = abs(sq_000 - oracle_000) < 1e-3 and abs(sq_010 - oracle_010) < 1e-3
        report(5, ok, f"norm^2 anchors: (0,0,0) {sq_000:.6f} vs 1/(4pi)={oracle_000:.6f}; "
                      f"(0,1,0) {sq_010:.6f} vs 1/(2pi)={oracle_010:.6f} (tol 1e-3 abs)")


class TestCriterion6RangeInversion:
    def test_roundtrips_and_route_agreement(self, grid, fields, sinograms):
        errors = {}
        for m, key in ((0, "m0"), (1, "m1_gen"), (2, "m2_gen")):
            reconstructed = invert(sinograms[key], grid, "lemma", check_range=False)
            errors[m] = relative_l2_error(reconstructed, solenoidal_project(fields[key]))
        route_gaps = {}
        for m, key in ((0, "m0"), (1, "m1_sol"), (2, "m2_sol")):
            via_amplitude = invert(sinograms[key], grid, "lemma", check_range=False)
            via_coefficients = invert_coefficient_route(sinograms[key], grid, "lemma")
            scale = np.abs(via_amplitude.component(m)).max()
            route_gaps[m] = np.abs(via_amplitude.component(m) - via_coefficients).max() / scale
        ok = all(e < 2e-2 for e in errors.values()) and all(
            g < 1e-3 for g in route_gaps.values()
        )
        report(6, ok, "roundtrip rel L2 " +
               ", ".join(f"m={m}: {e:.2e}" for m, e in errors.items()) +
               " (tol 2e-2); route gaps " +
               ", ".join(f"m={m}: {g:.2e}" for m, g in route_gaps.items()) + " (tol 1e-3)")


class TestCriterion7KernelProperty:
    def test_potential_parts_annihilated(self, grid, fields, sinograms):
        fractions = {}
        for m, key in ((1, "m1_gen"), (2, "m2_gen")):
            f = fields[key]
            potential_part = TensorField2D(
                m=m, grid=grid,
                components=f.components - solenoidal_project(f).components,
            )
            psi_pot = forward(potential_part, num_p=NUM_P, ntheta=NTHETA, pmax=RADIUS)
            fractions[m] = np.abs(psi_pot.samples).max() / np.abs(sinograms[key].samples).max()
        ok = all(v < 1e-3 for v in fractions.values())
        report(7, ok, "kernel annihilation " +
               ", ".join(f"m={m}: {v:.2e}" for m, v in fractions.items()) + " (tol 1e-3)")


def coefficient_parity_residual(psi: Sinogram) -> float:
    """Largest violation of ``psihat_l(-q) = (-1)^(m+l) psihat_l(q)``.

    Evaluated on the ``2*NQ`` midpoint nodes covering ``[-QMAX, QMAX]``
    symmetrically, normalized by the largest coefficient magnitude.
    """
    qs = (np.arange(2 * NQ) + 0.5 - NQ) * (QMAX / NQ)
    lmax = psi.ntheta // 2 - 1
    coeffs = angular_coefficient_matrix(sinogram_transform_values(psi, qs), lmax).T
    signs = (-1.0) ** (psi.m + np.arange(-lmax, lmax + 1))
    mismatch = coeffs[:, ::-1] - signs[:, None] * coeffs
    return float(np.abs(mismatch).max() / np.abs(coeffs).max())


class TestCriterion8Parity:
    def test_sinogram_and_coefficient_parity(self, sinograms):
        worst_sino = max(parity_residual(psi) for psi in sinograms.values())
        worst_coeff = max(coefficient_parity_residual(psi) for psi in sinograms.values())
        ok = worst_sino < 1e-8 and worst_coeff < 1e-8
        report(8, ok, f"parity residual {worst_sino:.2e}, coefficient parity "
                      f"{worst_coeff:.2e} (tol 1e-8)")


class TestCriterion9MomentConditions:
    def test_range_data_passes_and_violator_fails(self, sinograms):
        worst = 0.0
        all_pass = True
        for psi in sinograms.values():
            rep = check_moment_conditions(psi, rmax=4, tol=1e-5)
            all_pass &= rep.passed
            worst = max(worst, max(o.forbidden_fraction for o in rep.orders))

        ps = np.linspace(-RADIUS, RADIUS, NUM_P)
        thetas = 2.0 * np.pi * np.arange(NTHETA) / NTHETA
        violator = Sinogram(
            m=0, pmax=RADIUS,
            samples=np.exp(-(ps**2))[:, None] * np.cos(thetas)[None, :],
        )
        vrep = check_moment_conditions(violator, rmax=0, tol=1e-5)
        vfrac = vrep.orders[0].forbidden_fraction
        ok = all_pass and not vrep.passed and vfrac > 0.9
        report(9, ok, f"range data worst forbidden fraction {worst:.2e} (tol 1e-5); "
                      f"violator fraction {vfrac:.3f} (need > 0.9)")


class TestCriterion10TildeAlgebra:
    def test_coefficient_vs_pointwise(self):
        rng = np.random.default_rng(2024)
        ps = np.linspace(-RADIUS, RADIUS, 65)
        thetas = 2.0 * np.pi * np.arange(NTHETA) / NTHETA
        lmax = NTHETA // 2 - 1
        worst = 0.0
        for m in range(5):
            samples = np.zeros((ps.size, NTHETA))
            for l in range(9):  # band-limited angular content
                c = rng.standard_normal() + 1j * rng.standard_normal()
                profile = np.exp(-(ps**2) / 2.0) * ps ** (l % 3)
                samples += np.real(c * np.exp(1j * l * thetas))[None, :] * profile[:, None]
            coeffs = angular_coefficient_matrix(samples, lmax).T
            route_a = _tilde_coefficients(coeffs, m)
            pointwise = samples * np.sin(thetas)[None, :] ** m
            route_b = angular_coefficient_matrix(pointwise, lmax - m).T
            scale = max(np.abs(route_b).max(), 1.0)
            worst = max(worst, np.abs(route_a - route_b).max() / scale)
        ok = worst < 1e-10
        report(10, ok, f"tilde coefficient vs pointwise mismatch {worst:.2e} "
                       f"for m <= 4 (tol 1e-10)")
