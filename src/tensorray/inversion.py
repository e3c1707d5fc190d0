"""Inversion of the ray transform on solenoidal fields, and range checks.

The inversion runs entirely through the slice identity.  Under the
``"lemma"`` transform convention, range data satisfies

    psihat(q, theta) = (-1)^m * a(q, theta + pi/2)    for q > 0,

where ``a`` is the scalar amplitude of the solenoidal spectrum
``fhat = a * eta^(tensor m)``.  So the amplitude is read off the transformed
sinogram, rotated a quarter turn, and handed to the spectral synthesizer —
no per-component division by trigonometric factors, hence no singularities.
A second route assembles the last component directly from the coefficient
form of the identity, ``(fhat_m)_l = (-i)^l (tilde psi)hat_l``; agreement of
the two routes on ``f_m`` is a nontrivial consistency check.

Moment conditions: if ``psi`` is range data of rank ``m``, the offset moment
``mu_r(theta) = integral(psi(p, theta) p^r dp)`` is a trigonometric
polynomial with harmonics ``|l| <= r + m`` and ``l = r + m (mod 2)`` only.
:func:`check_moment_conditions` measures the energy fraction in forbidden
harmonics.  Moments that vanish identically (common for centered symmetric
fields) satisfy the condition trivially; they are detected against the
absolute-moment scale and reported as degenerate rather than dividing noise
by noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import (
    TensorField2D,
    field_l2_norm,
    relative_l2_error,
    solenoidal_project,
    synthesize_solenoidal,
)
from .grids import CartesianGrid, angular_coefficient_matrix, inverse_fourier_transform_2d
from .norms import SobolevParams, reshetnyak_check
from .ray import Sinogram, forward, parity_residual
from .slices import (
    sinogram_transform_values,
    tilde_coefficients,
    transform_sinogram,
)

__all__ = [
    "MomentOrder",
    "MomentReport",
    "RangeDataWarning",
    "check_moment_conditions",
    "invert",
    "invert_coefficient_route",
    "roundtrip_report",
]

# Moments whose total energy falls below (this * absolute-moment scale)^2 are
# indistinguishable from zero at quadrature precision and pass trivially.
_DEGENERATE_REL = 1e-3

_CONV_TO_LEMMA = {"lemma": 1.0, "fst": 1.0 / np.sqrt(2.0 * np.pi)}


class RangeDataWarning(UserWarning):
    """Input sinogram violates a range precondition; inversion is best-effort."""


@dataclass(frozen=True)
class MomentOrder:
    """Harmonic content of one offset moment ``mu_r``."""

    order: int
    magnitudes: np.ndarray
    allowed: np.ndarray
    forbidden_fraction: float
    degenerate: bool
    passed: bool


@dataclass(frozen=True)
class MomentReport:
    """Moment-condition verdicts for orders ``0 .. rmax``."""

    m: int
    rmax: int
    tol: float
    orders: tuple[MomentOrder, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.orders)

    def to_dict(self) -> list[dict]:
        return [
            {"r": o.order, "forbidden_fraction": o.forbidden_fraction, "pass": o.passed}
            for o in self.orders
        ]


def check_moment_conditions(psi: Sinogram, rmax: int, tol: float = 1e-5) -> MomentReport:
    """Check that offset moments contain only admissible harmonics.

    For each ``r <= rmax`` the moment ``mu_r`` is computed by trapezoid
    quadrature and expanded in angular harmonics; the forbidden-harmonic
    energy fraction must stay below ``tol``.  An order fails fast with
    ``ValueError`` when ``p^r psi`` no longer decays at the offset boundary
    (boundary rows above ``1e-8`` of the absolute moment).
    """
    if rmax < 0:
        raise ValueError(f"rmax must be >= 0, got {rmax}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    ps = psi.p_axis()
    w = np.full(ps.size, psi.dp)
    w[0] *= 0.5
    w[-1] *= 0.5
    lmax = psi.ntheta // 2 - 1
    ls = np.arange(-lmax, lmax + 1)

    orders = []
    for r in range(rmax + 1):
        weighted = w * ps**r
        abs_moment = np.abs(weighted[:, None] * psi.samples).sum(axis=0)
        scale = float(abs_moment.max())
        boundary = (
            np.abs(weighted[0] * psi.samples[0]) + np.abs(weighted[-1] * psi.samples[-1])
        ).max()
        if scale > 0.0 and boundary > 1e-8 * scale:
            raise ValueError(
                f"moment of order {r} does not decay at |p| = pmax "
                f"(boundary contribution {boundary / scale:.3e} of the absolute moment); "
                "increase pmax"
            )
        mu = weighted @ psi.samples
        coeffs = angular_coefficient_matrix(mu[None, :], lmax)[0]
        magnitudes = np.abs(coeffs)
        allowed = (np.abs(ls) <= r + psi.m) & ((ls - (r + psi.m)) % 2 == 0)
        total = float((magnitudes**2).sum())
        degenerate = total <= (_DEGENERATE_REL * scale) ** 2
        if degenerate:
            fraction = 0.0
        else:
            fraction = float((magnitudes[~allowed] ** 2).sum() / max(total, 1e-24))
        orders.append(
            MomentOrder(
                order=r,
                magnitudes=magnitudes,
                allowed=allowed,
                forbidden_fraction=fraction,
                degenerate=degenerate,
                passed=degenerate or fraction < tol,
            )
        )
    return MomentReport(m=psi.m, rmax=rmax, tol=tol, orders=tuple(orders))


def _fine_coefficients(
    psi: Sinogram,
    convention: str,
    grid: CartesianGrid,
    nq: int,
    lmax: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lemma-calculus coefficients on a fine positive node set plus at q = 0."""
    if lmax is None:
        lmax = psi.ntheta // 2 - 1
    dual = grid.dual()
    qmax = min(dual.radius - dual.spacing, np.pi / psi.dp)
    qfine = (np.arange(nq) + 0.5) * (qmax / nq)
    scale = _CONV_TO_LEMMA[convention]
    spectral = transform_sinogram(psi, convention, qs=qfine, lmax=lmax)
    coeffs = scale * spectral.coefficients
    zero_values = sinogram_transform_values(psi, convention, np.array([0.0]))
    zero_coeffs = scale * angular_coefficient_matrix(zero_values, lmax)[0]
    return qfine, coeffs, zero_coeffs


def _assemble_isotropic_harmonics(
    qfine: np.ndarray,
    coeffs: np.ndarray,
    dc_value: complex,
    grid: CartesianGrid,
) -> np.ndarray:
    """``sum_l C_l(|y|) exp(i l phi(y))`` on the centered dual grid of ``grid``.

    ``coeffs[l + lmax, k]`` are radial profiles on ``qfine``; they are
    interpolated linearly in ``|y|``, read as zero beyond the last node, and
    the ``y = 0`` point is set to ``dc_value``.
    """
    lmax = (coeffs.shape[0] - 1) // 2
    dual = grid.dual()
    qx, qy = dual.mesh()
    rad = np.hypot(qx, qy).ravel()
    with np.errstate(invalid="ignore", divide="ignore"):
        phase = np.where(rad > 0, (qx.ravel() + 1j * qy.ravel()) / rad, 1.0 + 0.0j)

    def radial(l: int) -> np.ndarray:
        prof = coeffs[l + lmax]
        return np.interp(rad, qfine, prof.real, right=0.0) + 1j * np.interp(
            rad, qfine, prof.imag, right=0.0
        )

    out = radial(0).astype(complex)
    power = np.ones_like(phase)
    for l in range(1, lmax + 1):
        power = power * phase
        out += radial(l) * power + radial(-l) * np.conj(power)
    out = out.reshape(grid.n, grid.n)
    out[grid.n // 2, grid.n // 2] = dc_value  # centered layout: y = 0 bin
    return out


def _hermitian_part(amp: np.ndarray, m: int) -> np.ndarray:
    """Project onto amplitudes of real fields: ``a(-y) = (-1)^m conj(a(y))``."""
    flipped = np.roll(np.conj(amp[::-1, ::-1]), shift=(1, 1), axis=(0, 1))
    return 0.5 * (amp + (-1.0) ** m * flipped)


def _range_warnings(psi: Sinogram) -> None:
    parity = parity_residual(psi)
    if parity > 1e-6:
        warnings.warn(
            f"sinogram parity residual {parity:.3e} exceeds 1e-06; "
            "input is not range data, inverting best-effort",
            RangeDataWarning,
            stacklevel=3,
        )
    try:
        report = check_moment_conditions(psi, rmax=2, tol=1e-2)
    except ValueError as exc:
        warnings.warn(
            f"moment precheck not evaluable ({exc}); inverting best-effort",
            RangeDataWarning,
            stacklevel=3,
        )
        return
    if not report.passed:
        worst = max(o.forbidden_fraction for o in report.orders)
        warnings.warn(
            f"moment conditions violated (worst forbidden fraction {worst:.3e}); "
            "input is not range data, inverting best-effort",
            RangeDataWarning,
            stacklevel=3,
        )


def invert(
    psi: Sinogram,
    grid: CartesianGrid,
    convention: str = "lemma",
    nq: int = 1024,
    lmax: int | None = None,
    check_range: bool = True,
) -> TensorField2D:
    """Reconstruct the solenoidal field whose ray transform is ``psi``.

    The amplitude ``a(q, phi) = (-1)^m * psihat(q, phi - pi/2)`` (in the
    lemma calculus; ``fst`` data is rescaled by ``(2*pi)^(-1/2)``) is
    evaluated on the dual grid of ``grid`` and synthesized into a field.  On
    range data this recovers the solenoidal part of the original field; on
    arbitrary parity-correct data it still produces the field whose transform
    best matches, after warning via :class:`RangeDataWarning` when
    ``check_range`` is set.
    """
    if check_range:
        _range_warnings(psi)
    m = psi.m
    qfine, coeffs, zero_coeffs = _fine_coefficients(psi, convention, grid, nq, lmax)
    lm = (coeffs.shape[0] - 1) // 2
    ls = np.arange(-lm, lm + 1)
    # a(q, phi) = (-1)^m sum_l (-i)^l psihat_l(q) e^{i l phi}
    amp_coeffs = (-1.0) ** m * (-1.0j) ** ls[:, None] * coeffs
    dc = (-1.0) ** m * zero_coeffs[lm] if m == 0 else 0.0
    amp = _assemble_isotropic_harmonics(qfine, amp_coeffs, dc, grid)
    amp = _hermitian_part(amp, m)
    return synthesize_solenoidal(amp, m, grid)


def invert_coefficient_route(
    psi: Sinogram,
    grid: CartesianGrid,
    convention: str = "lemma",
    nq: int = 1024,
    lmax: int | None = None,
) -> np.ndarray:
    """Reconstruct the last component ``f_m`` from the coefficient identity.

    Assembles ``fhat_m(z) = sum_l (-i)^l (tilde psi)hat_l(|z|) e^{i l arg z}``
    and inverse transforms; must agree with component ``m`` of :func:`invert`
    on range data.  Returns the scalar grid function.
    """
    m = psi.m
    qfine, coeffs, zero_coeffs = _fine_coefficients(psi, convention, grid, nq, lmax)
    tilde = tilde_coefficients(coeffs, m)
    lm = (tilde.shape[0] - 1) // 2
    ls = np.arange(-lm, lm + 1)
    assembled = (-1.0j) ** ls[:, None] * tilde
    dc = tilde_coefficients(zero_coeffs, m)[lm]
    spec = _assemble_isotropic_harmonics(qfine, assembled, dc, grid)
    return inverse_fourier_transform_2d(spec, grid).real


def roundtrip_report(
    f: TensorField2D,
    params: SobolevParams,
    convention: str = "lemma",
    num_p: int | None = None,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    rmax: int = 4,
    moment_tol: float = 1e-5,
) -> dict:
    """Bundle forward/inverse, isometry, and moment evidence for one field.

    Returns a JSON-ready dict with keys ``roundtrip_l2_rel``,
    ``reshetnyak_ratio``, ``convention``, ``params`` and ``moments``; zero
    fields are reported as ``degenerate`` instead of dividing by zero norms.
    The round trip and the isometry ratio are both measured against the
    solenoidal part of ``f``, so fields with a potential part are accepted.
    """
    base = {
        "convention": convention,
        "params": {"r": params.r, "s": params.s, "t": params.t},
        "m": f.m,
    }
    if field_l2_norm(f) == 0.0:
        return {**base, "degenerate": True}
    psi = forward(f, num_p=f.grid.n + 1 if num_p is None else num_p, ntheta=ntheta)
    # I_m annihilates the potential part, so psi is also the sinogram of the
    # solenoidal part, the field both the isometry and the inversion refer to
    reference = solenoidal_project(f)
    ratio = reshetnyak_check(
        reference, params, convention, ntheta=ntheta, nq=nq, qmax=qmax, sinogram=psi
    )
    reconstructed = invert(psi, f.grid, convention, check_range=False)
    moments = check_moment_conditions(psi, rmax=rmax, tol=moment_tol)
    return {
        **base,
        "degenerate": False,
        "roundtrip_l2_rel": relative_l2_error(reconstructed, reference),
        "reshetnyak_ratio": ratio,
        "parity_residual": parity_residual(psi),
        "moments": moments.to_dict(),
    }
