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
from typing import NamedTuple

import numpy as np

from .fields import TensorField2D, component_spectrum_polar, require_solenoidal
from .grids import PolarFrequencyGrid, _check_finite, angular_coefficient_matrix
from .ray import Sinogram, _offset_weights, forward

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
    shape ``(len(qs), ntheta)``.  The offsets are exactly antisymmetric and
    the weights symmetric, so each column is folded onto ``p > 0``: its
    even part ``psi(p) + psi(-p)`` meets ``cos(q p)`` and its odd part
    ``psi(p) - psi(-p)`` meets ``-sin(q p)``, two real products of half
    the length, with the ``p = 0`` row (odd ``num_p``) added once.  This
    holds for any sinogram, range data or not.
    """
    _check_convention(convention)
    qs = np.asarray(qs, dtype=float)
    _check_finite(qs, "frequency nodes qs")
    half = psi.num_p // 2
    rest = psi.num_p - half  # first index with p > 0
    weights = _FT_PREFACTOR[convention] * _offset_weights(psi)
    phase = np.multiply.outer(qs, psi.p_axis()[rest:])
    positive, negative = psi.samples[rest:], psi.samples[half - 1 :: -1]
    out = np.empty(qs.shape + (psi.ntheta,), dtype=complex)
    out.real = (np.cos(phase) * weights[rest:]) @ (positive + negative)
    out.imag = (np.sin(phase) * -weights[rest:]) @ (positive - negative)
    if rest > half:
        out.real += weights[half] * psi.samples[half]
    return out


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


class _SliceSides(NamedTuple):
    """Both sides of the slice identities at the positive polar nodes ``qs``.

    ``psihat`` is the lemma-calculus p-transform of the sinogram and
    ``fhat`` the spectrum of the last field component turned a quarter turn,
    ``fhat_m(q_k, theta_j + pi/2)``; both have shape ``(nq, ntheta)``.  Each
    residual compares the two in another basis, and the isometry weighs
    their angular coefficients.  Under ``fst`` both sides carry
    ``sqrt(2*pi)``, so the residuals do not depend on the convention.
    """

    m: int
    qs: np.ndarray
    psihat: np.ndarray
    fhat: np.ndarray

    def tilde(self) -> np.ndarray:
        """``sin^m(theta) * psihat``, the sinogram side of the value identity."""
        ntheta = self.psihat.shape[1]
        thetas = 2.0 * np.pi * np.arange(ntheta) / ntheta
        return np.sin(thetas) ** self.m * self.psihat

    def sinogram_coefficients(self) -> np.ndarray:
        """``(tilde psihat)_l(q_k)`` for ``|l| <= ntheta//2 - 1 - m``."""
        lmax = self.psihat.shape[1] // 2 - 1
        return tilde_coefficients(angular_coefficient_matrix(self.psihat, lmax).T, self.m)

    def field_coefficients(self, lmax: int) -> np.ndarray:
        """Angular coefficients of ``fhat``: ``i^l (fhat_m)_l(q_k)`` for ``|l| <= lmax``."""
        return angular_coefficient_matrix(self.fhat, lmax).T

    def solenoidal_residual(self) -> float:
        return sup_relative_residual(self.tilde(), self.fhat)

    def coefficient_residual(self) -> float:
        # the quarter turn of fhat carries the i^l of the coefficient identity
        lhs = self.sinogram_coefficients()
        return sup_relative_residual(lhs, self.field_coefficients((lhs.shape[0] - 1) // 2))

    def constant(self) -> float:
        """Least-squares ``c`` with ``tilde ~ c * fhat`` (lemma calculus)."""
        denom = np.vdot(self.fhat, self.fhat).real
        if denom == 0.0:
            raise ValueError("field spectrum vanishes; constant is undetermined")
        return float(np.vdot(self.fhat, self.tilde()).real / denom)


def _slice_sides(
    f: TensorField2D,
    *,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    sinogram: Sinogram | None = None,
) -> _SliceSides:
    """Gate, project (unless ``sinogram`` is given) and transform once.

    The projection takes ``n + 1`` offsets over ``[-R, R]``.  A given
    sinogram must have the field's rank and the requested ``ntheta``.
    """
    require_solenoidal(f)
    pgrid = PolarFrequencyGrid(nq=nq, qmax=f.grid.radius if qmax is None else qmax, ntheta=ntheta)
    if sinogram is None:
        sinogram = forward(f, num_p=f.grid.n + 1, ntheta=ntheta)
    elif sinogram.m != f.m:
        raise ValueError(f"provided sinogram has rank {sinogram.m} but the field has rank {f.m}")
    elif sinogram.ntheta != ntheta:
        raise ValueError("provided sinogram must match the requested ntheta")
    qs = pgrid.radial_nodes()
    psihat = sinogram_transform_values(sinogram, "lemma", qs)
    fhat = component_spectrum_polar(f, f.m, pgrid, angle_offset=np.pi / 2.0)
    return _SliceSides(f.m, qs, psihat, fhat)


def fst_scalar_residual(
    f: TensorField2D,
    *,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    sinogram: Sinogram | None = None,
) -> float:
    """Mismatch of the scalar slice identity under the ``fst`` convention.

    Compares the p-transform of the rank-0 ray transform against
    ``sqrt(2*pi)`` times the field spectrum rotated a quarter turn, on the
    positive polar frequency nodes; returns the sup-normalized residual.
    This is the ``m = 0`` case of :func:`fst_solenoidal_residual`.
    """
    if f.m != 0:
        raise ValueError(f"the scalar slice identity needs m = 0, got m = {f.m}")
    sides = _slice_sides(f, ntheta=ntheta, nq=nq, qmax=qmax, sinogram=sinogram)
    return sides.solenoidal_residual()


def fst_solenoidal_residual(
    f: TensorField2D,
    convention: str = "lemma",
    *,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    sinogram: Sinogram | None = None,
) -> float:
    """Mismatch of the solenoidal slice identity for ``q > 0``.

    Under ``"lemma"`` the field side carries no constant; under ``"fst"`` it
    carries ``sqrt(2*pi)``, as does the sinogram side, so the residual is the
    same.  Rejects non-solenoidal fields (relative divergence residual above
    ``1e-6``).
    """
    _check_convention(convention)
    sides = _slice_sides(f, ntheta=ntheta, nq=nq, qmax=qmax, sinogram=sinogram)
    return sides.solenoidal_residual()


def measure_slice_constant(
    f: TensorField2D,
    convention: str = "lemma",
    *,
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
    _check_convention(convention)
    sides = _slice_sides(f, ntheta=ntheta, nq=nq, qmax=qmax, sinogram=sinogram)
    return float(_FIELD_SIDE_CONSTANT[convention] * sides.constant())


def fst_coefficient_residual(
    f: TensorField2D,
    convention: str = "lemma",
    *,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    sinogram: Sinogram | None = None,
) -> float:
    """Mismatch of the slice identity written on angular coefficients.

    Checks ``(2i)^(-m) sum_k (-1)^k C(m,k) psihat_{l-m+2k}(q) = i^l (fhat_m)_l(q)``
    for ``q > 0`` across all harmonics the angular resolution supports (the
    ``fst`` convention multiplies both sides by ``sqrt(2*pi)``, so the
    residual is the same).  Rejects non-solenoidal fields.
    """
    _check_convention(convention)
    sides = _slice_sides(f, ntheta=ntheta, nq=nq, qmax=qmax, sinogram=sinogram)
    return sides.coefficient_residual()
