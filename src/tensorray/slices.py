"""Sinogram Fourier analysis and the slice identities it satisfies.

Two transform conventions are supported for the offset variable ``p``:

* ``"fst"`` — ``psihat(q, theta) = (2*pi)^(-1/2) * integral(exp(-i*q*p) psi dp)``.
  In this calculus the scalar identity reads
  ``psihat(q, theta) = sqrt(2*pi) * fhat(q, theta + pi/2)`` for rank 0.
* ``"lemma"`` — the same transform divided by another ``sqrt(2*pi)``.  In this
  calculus the solenoidal identity is constant free:
  ``sin^m(theta) * psihat(q, theta) = fhat_m(q, theta + pi/2)`` for ``q > 0``.

The two calculi differ by the single constant ``sqrt(2*pi)``; both are kept
so that either normalization can be verified directly, and
:func:`measure_slice_constant` estimates the constant from data.

The ``tilde`` operator is multiplication of a sinogram by ``sin^m(theta)``;
on angular Fourier coefficients it acts as the banded stencil

    (tilde psi)_l = (2i)^(-m) * sum_k (-1)^k C(m, k) psi_{l-m+2k}

which :func:`tilde_coefficients` implements.  Multiplying by ``sin^m(theta)``
commutes with the transform in ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .fields import (
    TensorField2D,
    component_spectrum_polar,
    relative_divergence_residual,
)
from .grids import PolarFrequencyGrid, angular_coefficient_matrix
from .ray import Sinogram, forward

__all__ = [
    "CONVENTIONS",
    "SpectralSinogram",
    "symmetric_q_nodes",
    "transform_sinogram",
    "sinogram_transform_values",
    "tilde_coefficients",
    "fst_scalar_residual",
    "fst_solenoidal_residual",
    "fst_coefficient_residual",
    "measure_slice_constant",
    "sup_relative_residual",
]

CONVENTIONS = ("lemma", "fst")

# Prefactor of the p-transform under each convention.
_FT_PREFACTOR = {
    "fst": 1.0 / np.sqrt(2.0 * np.pi),
    "lemma": 1.0 / (2.0 * np.pi),
}

# Constant carried by the field side of the solenoidal slice identity.
_FIELD_SIDE_CONSTANT = {"fst": np.sqrt(2.0 * np.pi), "lemma": 1.0}

# Solenoidality gate for identities that only hold on divergence-free fields.
_SOLENOIDAL_TOL = 1e-6


def _check_convention(convention: str) -> str:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return convention


@dataclass(frozen=True)
class SpectralSinogram:
    """Angular Fourier coefficients of the p-transformed sinogram.

    ``coefficients[l + lmax, k]`` is ``psihat_l(q_k)`` under the stored
    convention.  For range data the coefficients inherit the parity
    ``psihat_l(-q) = (-1)^(m+l) psihat_l(q)``.
    """

    m: int
    convention: str
    qs: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        _check_convention(self.convention)
        qs = np.asarray(self.qs, dtype=float)
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if qs.ndim != 1:
            raise ValueError("qs must be a 1D array of frequency nodes")
        if coeffs.ndim != 2 or coeffs.shape[1] != qs.size or coeffs.shape[0] % 2 != 1:
            raise ValueError(
                f"coefficients must have shape (2*lmax+1, len(qs)), got {coeffs.shape}"
            )
        qs = qs.copy()
        coeffs = coeffs.copy()
        qs.flags.writeable = False
        coeffs.flags.writeable = False
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def lmax(self) -> int:
        return (self.coefficients.shape[0] - 1) // 2

    def orders(self) -> np.ndarray:
        return np.arange(-self.lmax, self.lmax + 1)

    def evaluate(self, thetas: np.ndarray) -> np.ndarray:
        """Values ``psihat(q_k, theta)``, shape ``(len(qs), len(thetas))``."""
        thetas = np.asarray(thetas, dtype=float)
        phase = np.exp(1j * np.multiply.outer(self.orders(), thetas))
        return np.einsum("lk,lt->kt", self.coefficients, phase)

    def coefficient_parity_residual(self) -> float:
        """Largest violation of ``psihat_l(-q) = (-1)^(m+l) psihat_l(q)``.

        Requires the node set to be symmetric (``qs`` reversed equals
        ``-qs``); normalized by the largest coefficient magnitude.
        """
        if not np.allclose(self.qs[::-1], -self.qs, atol=1e-12 * max(1.0, abs(self.qs).max())):
            raise ValueError("coefficient parity needs a symmetric q-node set")
        scale = np.abs(self.coefficients).max()
        if scale == 0.0:
            return 0.0
        signs = (-1.0) ** (self.m + self.orders())
        mismatch = self.coefficients[:, ::-1] - signs[:, None] * self.coefficients
        return float(np.abs(mismatch).max() / scale)


def symmetric_q_nodes(nq: int, qmax: float) -> np.ndarray:
    """``2*nq`` midpoint nodes covering ``[-qmax, qmax]`` symmetrically, no zero."""
    return (np.arange(2 * nq) + 0.5 - nq) * (qmax / nq)


def sinogram_transform_values(psi: Sinogram, convention: str, qs: np.ndarray) -> np.ndarray:
    """p-transform of a sinogram at arbitrary frequency nodes.

    Trapezoid quadrature over the symmetric offset grid; returns values of
    shape ``(len(qs), ntheta)``.
    """
    _check_convention(convention)
    qs = np.asarray(qs, dtype=float)
    ps = psi.p_axis()
    w = np.full(ps.size, psi.dp)
    w[0] *= 0.5
    w[-1] *= 0.5
    kernel = np.exp(-1j * np.multiply.outer(qs, ps)) * w[None, :]
    return _FT_PREFACTOR[convention] * (kernel @ psi.samples)


def transform_sinogram(
    psi: Sinogram,
    convention: str = "lemma",
    qs: np.ndarray | None = None,
    nq: int = 512,
    qmax: float | None = None,
    lmax: int | None = None,
) -> SpectralSinogram:
    """Fourier transform in ``p`` followed by the angular Fourier series.

    By default the coefficients are evaluated on the symmetric midpoint node
    set :func:`symmetric_q_nodes`\\ ``(nq, qmax)`` with ``qmax = pmax``, and
    the series is truncated at ``lmax = ntheta//2 - 1``.
    """
    if qs is None:
        qs = symmetric_q_nodes(nq, psi.pmax if qmax is None else qmax)
    if lmax is None:
        lmax = psi.ntheta // 2 - 1
    values = sinogram_transform_values(psi, convention, qs)
    coeffs = angular_coefficient_matrix(values, lmax).T  # (2*lmax+1, nq)
    return SpectralSinogram(m=psi.m, convention=convention, qs=np.asarray(qs, float), coefficients=coeffs)


def tilde_coefficients(coefficients: np.ndarray, m: int) -> np.ndarray:
    """Angular coefficients of ``sin^m(theta)`` times the underlying function.

    ``coefficients`` is indexed ``l = -lmax .. lmax`` along the first axis;
    the result is indexed ``l = -(lmax-m) .. (lmax-m)``.  Agrees with
    pointwise multiplication by ``sin^m(theta)`` followed by the angular DFT
    whenever the input resolves all harmonics of the product.
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.shape[0] % 2 != 1:
        raise ValueError("first axis must hold an odd number of harmonics -lmax..lmax")
    lmax_in = (coefficients.shape[0] - 1) // 2
    lmax_out = lmax_in - m
    if lmax_out < 0:
        raise ValueError(
            f"input lmax={lmax_in} is insufficient for the sin^{m} stencil; "
            f"need lmax >= {m}"
        )
    if m == 0:
        return coefficients.copy()
    out_shape = (2 * lmax_out + 1,) + coefficients.shape[1:]
    out = np.zeros(out_shape, dtype=complex)
    for k in range(m + 1):
        sign = (-1.0) ** k * comb(m, k)
        # source harmonic l - m + 2k for output harmonic l
        lo = (-lmax_out - m + 2 * k) + lmax_in
        out += sign * coefficients[lo : lo + 2 * lmax_out + 1]
    return out / (2.0j) ** m


def sup_relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """``max|lhs - rhs|`` normalized by the larger of the two sup norms.

    Identically zero pairs return 0, so trivially satisfied identities never
    divide by zero.
    """
    scale = max(np.abs(lhs).max(initial=0.0), np.abs(rhs).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    return float(np.abs(np.asarray(lhs) - np.asarray(rhs)).max() / scale)


def _slice_setup(
    f: TensorField2D,
    num_p: int | None,
    ntheta: int,
    nq: int,
    qmax: float | None,
    sinogram: Sinogram | None,
):
    if num_p is None:
        num_p = f.grid.n + 1
    if qmax is None:
        qmax = f.grid.radius
    pgrid = PolarFrequencyGrid(nq=nq, qmax=qmax, ntheta=ntheta)
    if sinogram is None:
        sinogram = forward(f, num_p=num_p, ntheta=ntheta)
    elif sinogram.ntheta != ntheta:
        raise ValueError("provided sinogram must match the requested ntheta")
    return pgrid, sinogram


def fst_scalar_residual(
    f: TensorField2D,
    num_p: int | None = None,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    sinogram: Sinogram | None = None,
) -> float:
    """Mismatch of the scalar slice identity under the ``fst`` convention.

    Compares the p-transform of the rank-0 ray transform against
    ``sqrt(2*pi)`` times the field spectrum rotated a quarter turn, on the
    positive polar frequency nodes; returns the sup-normalized residual.
    """
    if f.m != 0:
        raise ValueError(f"the scalar slice identity needs m = 0, got m = {f.m}")
    pgrid, sino = _slice_setup(f, num_p, ntheta, nq, qmax, sinogram)
    lhs = sinogram_transform_values(sino, "fst", pgrid.radial_nodes())
    rhs = np.sqrt(2.0 * np.pi) * component_spectrum_polar(f, 0, pgrid, angle_offset=np.pi / 2.0)
    return sup_relative_residual(lhs, rhs)


def _solenoidal_slice_sides(
    f: TensorField2D,
    convention: str,
    num_p: int | None,
    ntheta: int,
    nq: int,
    qmax: float | None,
    sinogram: Sinogram | None,
) -> tuple[np.ndarray, np.ndarray, PolarFrequencyGrid, Sinogram]:
    _check_convention(convention)
    if f.m >= 1:
        residual = relative_divergence_residual(f)
        if residual > _SOLENOIDAL_TOL:
            raise ValueError(
                f"field is not solenoidal (relative divergence residual "
                f"{residual:.3e} > {_SOLENOIDAL_TOL:g}); apply solenoidal_project first"
            )
    pgrid, sino = _slice_setup(f, num_p, ntheta, nq, qmax, sinogram)
    values = sinogram_transform_values(sino, convention, pgrid.radial_nodes())
    lhs = np.sin(pgrid.angular_nodes())[None, :] ** f.m * values
    rhs_base = component_spectrum_polar(f, f.m, pgrid, angle_offset=np.pi / 2.0)
    return lhs, rhs_base, pgrid, sino


def fst_solenoidal_residual(
    f: TensorField2D,
    convention: str = "lemma",
    num_p: int | None = None,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    sinogram: Sinogram | None = None,
) -> float:
    """Mismatch of the solenoidal slice identity for ``q > 0``.

    Under ``"lemma"`` the field side carries no constant; under ``"fst"`` it
    carries ``sqrt(2*pi)``.  Rejects non-solenoidal fields (relative
    divergence residual above ``1e-6``).
    """
    lhs, rhs_base, _, _ = _solenoidal_slice_sides(
        f, convention, num_p, ntheta, nq, qmax, sinogram
    )
    return sup_relative_residual(lhs, _FIELD_SIDE_CONSTANT[convention] * rhs_base)


def measure_slice_constant(
    f: TensorField2D,
    convention: str = "lemma",
    num_p: int | None = None,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    sinogram: Sinogram | None = None,
) -> float:
    """Least-squares constant ``c`` with ``sin^m(theta) psihat ~ c * fhat_m``.

    Returns approximately ``1`` under the ``"lemma"`` convention and
    ``sqrt(2*pi)`` under ``"fst"``, quantifying the normalization gap between
    the two calculi on actual data.
    """
    lhs, rhs_base, _, _ = _solenoidal_slice_sides(
        f, convention, num_p, ntheta, nq, qmax, sinogram
    )
    denom = np.vdot(rhs_base, rhs_base).real
    if denom == 0.0:
        raise ValueError("field spectrum vanishes; constant is undetermined")
    return float((np.vdot(rhs_base, lhs) / denom).real)


def fst_coefficient_residual(
    f: TensorField2D,
    convention: str = "lemma",
    num_p: int | None = None,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    sinogram: Sinogram | None = None,
) -> float:
    """Mismatch of the slice identity written on angular coefficients.

    Checks ``(2i)^(-m) sum_k (-1)^k C(m,k) psihat_{l-m+2k}(q) = i^l (fhat_m)_l(q)``
    for ``q > 0`` across all harmonics the angular resolution supports (the
    ``fst`` convention multiplies the right side by ``sqrt(2*pi)``).
    """
    _check_convention(convention)
    if f.m >= 1:
        residual = relative_divergence_residual(f)
        if residual > _SOLENOIDAL_TOL:
            raise ValueError(
                f"field is not solenoidal (relative divergence residual "
                f"{residual:.3e} > {_SOLENOIDAL_TOL:g}); apply solenoidal_project first"
            )
    pgrid, sino = _slice_setup(f, num_p, ntheta, nq, qmax, sinogram)
    lmax = ntheta // 2 - 1
    spectral = transform_sinogram(sino, convention, qs=pgrid.radial_nodes(), lmax=lmax)
    lhs = tilde_coefficients(spectral.coefficients, f.m)

    lmax_out = lmax - f.m
    field_values = component_spectrum_polar(f, f.m, pgrid)
    field_coeffs = angular_coefficient_matrix(field_values, lmax_out).T
    ls = np.arange(-lmax_out, lmax_out + 1)
    rhs = (1j) ** ls[:, None] * field_coeffs * _FIELD_SIDE_CONSTANT[convention]
    return sup_relative_residual(lhs, rhs)
