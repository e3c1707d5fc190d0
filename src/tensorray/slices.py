"""Sinogram Fourier analysis and the slice identities it satisfies.

The offset variable ``p`` is transformed in one calculus, the lemma's:

    psihat(q, theta) = (1/2pi) * integral(exp(-i*q*p) psi(p, theta) dp),

in which the solenoidal identity is constant free,
``sin^m(theta) * psihat(q, theta) = fhat_m(q, theta + pi/2)`` for ``q > 0``.
The ``"fst"`` convention, ``(2*pi)^(-1/2) * integral(exp(-i*q*p) psi dp)``,
is the same transform times ``sqrt(2*pi)``; in it the scalar identity reads
``psihat(q, theta) = sqrt(2*pi) * fhat(q, theta + pi/2)``.  So ``"fst"`` is
no second transform but a constant, ``_FIELD_SIDE_CONSTANT``, applied only
where a number is reported: the slice constant, the isometry ratio and the
sinogram norm.  The residuals compare two sides that would both carry it,
so they do not depend on the convention, and
:func:`measure_slice_constant` estimates the constant from data.

Each side is built in one place (``_field_side``, ``_sinogram_side``): every
slice number and isometry ratio reads one :func:`slice_pair`, each norm one side.

The ``tilde`` operator is multiplication of a sinogram by ``sin^m(theta)``;
on angular Fourier coefficients it acts as the banded stencil

    (tilde psi)_l = (2i)^(-m) * sum_k (-1)^k C(m, k) psi_{l-m+2k}

which :func:`_tilde_coefficients` implements.  Multiplying by ``sin^m(theta)``
commutes with the transform in ``p``.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

import numpy as np

from .fields import TensorField2D, component_spectrum_polar, require_solenoidal
from .grids import PolarFrequencyGrid, _check_finite, _check_integer, angular_coefficient_matrix
from .ray import Sinogram, _offset_weights, forward

__all__ = [
    "CONVENTIONS",
    "sinogram_transform_values",
    "fst_scalar_residual",
    "fst_solenoidal_residual",
    "fst_coefficient_residual",
    "measure_slice_constant",
    "SlicePair",
    "slice_pair",
]

# What each convention multiplies a lemma-calculus quantity by: the slice
# constant, the isometry ratio and the sinogram norm.
_FIELD_SIDE_CONSTANT = {"lemma": 1.0, "fst": float(np.sqrt(2.0 * np.pi))}

CONVENTIONS = tuple(_FIELD_SIDE_CONSTANT)


def _convention_constant(convention: str) -> float:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return _FIELD_SIDE_CONSTANT[convention]


# offsets per row of the p-kernel's fine table: e^{i q p_j} with j = 16a + b
# is a coarse factor (a) times a fine one (b)
_FINE_OFFSETS = 16


def _p_kernel_width(psi: Sinogram) -> int:
    """Columns of a ``_p_kernel`` table: the offsets ``p >= 0`` in whole rows of 16."""
    return -(-(psi.num_p - psi.num_p // 2) // _FINE_OFFSETS) * _FINE_OFFSETS


def _p_kernel(psi: Sinogram, qs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``e^{i q p_j}`` at the offsets ``p_j >= 0`` of ``psi``, indexed ``[..., j]``.

    Those offsets are ``p_j = p_0 + j dp``, with ``p_0 = 0`` for an odd
    ``num_p`` and ``dp/2`` for an even one, so by angle addition
    ``e^{i q p_j} = e^{i q (p_0 + 16 a dp)} e^{i q b dp}`` with
    ``j = 16a + b``: per node ``q`` it takes ``count/16 + 16`` cosines and
    sines and one complex product per offset instead of a cosine and a sine
    per offset.  Each factor's phase is rounded once, as ``q p_j`` is, so the
    error against the exact kernel stays at the rounding of ``q p``.

    ``qs`` may have any shape; the offsets form the last axis.  The table
    is built over whole rows of 16 offsets and the result is a view of it;
    ``out``, a complex array of shape ``qs.shape + (_p_kernel_width(psi),)``,
    receives the table instead of a new array.
    """
    count = psi.num_p - psi.num_p // 2
    p0 = 0.0 if psi.num_p % 2 else 0.5 * psi.dp
    qs = np.asarray(qs, dtype=float)[..., None]

    def unit(offsets: np.ndarray) -> np.ndarray:
        # e^{i q p} over the offsets, from a cosine and a sine (half the
        # time of a complex exp)
        phase = qs * offsets
        exps = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=exps.real)
        np.sin(phase, out=exps.imag)
        return exps

    width = _p_kernel_width(psi)
    coarse = unit(p0 + psi.dp * np.arange(0, width, _FINE_OFFSETS))
    fine = unit(psi.dp * np.arange(_FINE_OFFSETS))
    if out is None:
        out = np.empty(qs.shape[:-1] + (width,), dtype=complex)
    # splitting the last axis into rows of 16 is a view of ``out``
    np.multiply(coarse[..., :, None], fine[..., None, :], out=out.reshape(coarse.shape + (-1,)))
    return out[..., :count]


def sinogram_transform_values(psi: Sinogram, qs: np.ndarray) -> np.ndarray:
    """Lemma-calculus p-transform of a sinogram at arbitrary frequency nodes.

    Trapezoid quadrature over the symmetric offset grid, times ``1/2pi``;
    returns values of shape ``(len(qs), ntheta)``.  The offsets are exactly
    antisymmetric and the weights symmetric, so each column is folded onto
    ``p > 0``: its even part ``psi(p) + psi(-p)`` meets ``cos(q p)`` and its
    odd part ``psi(p) - psi(-p)`` meets ``-sin(q p)``, two real products of
    half the length, with the ``p = 0`` row (odd ``num_p``) added once.
    This holds for any sinogram, range data or not.  The kernels are the
    real and imaginary parts of ``_p_kernel``'s angle-addition table, which
    :func:`~tensorray.inversion.invert` shares; they match direct cosines
    and sines to the rounding of ``q p``.
    """
    qs = np.asarray(qs, dtype=float)
    _check_finite(qs, "frequency nodes qs")
    half = psi.num_p // 2
    rest = psi.num_p - half  # first index with p > 0
    weights = 1.0 / (2.0 * np.pi) * _offset_weights(psi)
    kernel = _p_kernel(psi, qs)[..., rest - half :]
    positive, negative = psi.samples[rest:], psi.samples[half - 1 :: -1]
    out = np.empty(qs.shape + (psi.ntheta,), dtype=complex)
    out.real = (kernel.real * weights[rest:]) @ (positive + negative)
    out.imag = (kernel.imag * -weights[rest:]) @ (positive - negative)
    if rest > half:
        out.real += weights[half] * psi.samples[half]
    return out


def _tilde_coefficients(coefficients: np.ndarray, m: int) -> np.ndarray:
    """Angular coefficients of ``sin^m(theta)`` times the underlying function.

    ``coefficients`` is indexed ``l = -lmax .. lmax`` along the first axis;
    the result is indexed ``l = -(lmax-m) .. (lmax-m)``.  Agrees with
    pointwise multiplication by ``sin^m(theta)`` followed by the angular DFT
    whenever the input resolves all harmonics of the product.
    """
    _check_integer(m, "m")
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.shape[0] % 2 != 1:
        raise ValueError("first axis must hold an odd number of harmonics -lmax..lmax")
    lmax_in = (coefficients.shape[0] - 1) // 2
    lmax_out = lmax_in - m
    if not 0 <= m <= lmax_in:
        raise ValueError(f"the sin^m stencil needs 0 <= m <= lmax, got m={m}, lmax={lmax_in}")
    out_shape = (2 * lmax_out + 1,) + coefficients.shape[1:]
    out = np.zeros(out_shape, dtype=complex)
    for k in range(m + 1):
        sign = (-1.0) ** k * comb(m, k)
        # source harmonic l - m + 2k for output harmonic l
        lo = (-lmax_out - m + 2 * k) + lmax_in
        out += sign * coefficients[lo : lo + 2 * lmax_out + 1]
    return out / (2.0j) ** m


def _tilde_table(psihat: np.ndarray, power: int) -> np.ndarray:
    """``(sin^power(theta) psihat)_l(q_k)``, indexed ``[l, k]``.

    ``psihat`` holds samples ``(nq, ntheta)`` at the angles
    ``2 pi j / ntheta``; its series is taken up to ``|l| <= ntheta//2 - 1``,
    so the result covers ``|l| <= ntheta//2 - 1 - power``.
    """
    lmax = psihat.shape[1] // 2 - 1
    return _tilde_coefficients(angular_coefficient_matrix(psihat, lmax).T, power)


def sup_relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """``max|lhs - rhs|`` normalized by the larger of the two sup norms.

    Identically zero pairs return 0, so trivially satisfied identities never
    divide by zero.
    """
    scale = max(np.abs(lhs).max(initial=0.0), np.abs(rhs).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    return float(np.abs(np.asarray(lhs) - np.asarray(rhs)).max() / scale)


class SlicePair(NamedTuple):
    """Both sides of the slice identities at the positive polar nodes ``qs``.

    ``psihat`` is the lemma-calculus p-transform of the sinogram and
    ``fhat`` the spectrum of the last field component turned a quarter turn,
    ``fhat_m(q_k, theta_j + pi/2)``; both have shape ``(nq, ntheta)``.  Each
    residual compares the two in another basis, and the isometry weighs
    their angular coefficients.
    """

    m: int
    qs: np.ndarray
    psihat: np.ndarray
    fhat: np.ndarray

    def tilde(self) -> np.ndarray:
        """``sin^m(theta) * psihat``, the sinogram side of the value identity."""
        ntheta = self.psihat.shape[1]
        return np.sin(2.0 * np.pi * np.arange(ntheta) / ntheta) ** self.m * self.psihat

    def sinogram_coefficients(self) -> np.ndarray:
        """``(tilde psihat)_l(q_k)`` for ``|l| <= ntheta//2 - 1 - m``."""
        return _tilde_table(self.psihat, self.m)

    def field_coefficients(self, lmax: int) -> np.ndarray:
        """Angular coefficients of ``fhat``: ``i^l (fhat_m)_l(q_k)`` for ``|l| <= lmax``."""
        return angular_coefficient_matrix(self.fhat, lmax).T

    def solenoidal_residual(self) -> float:
        return sup_relative_residual(self.tilde(), self.fhat)

    def coefficient_residual(self) -> float:
        # the quarter turn of fhat carries the i^l of the coefficient identity
        lhs = self.sinogram_coefficients()
        return sup_relative_residual(lhs, self.field_coefficients((lhs.shape[0] - 1) // 2))

    def constant(self, convention: str = "lemma") -> float:
        """Least-squares ``c`` with ``tilde ~ c * fhat``, in ``convention``."""
        scale = _convention_constant(convention)
        denom = np.vdot(self.fhat, self.fhat).real
        if denom == 0.0:
            raise ValueError("field spectrum vanishes; constant is undetermined")
        return float(scale * (np.vdot(self.fhat, self.tilde()).real / denom))


def _field_side(f: TensorField2D, pgrid: PolarFrequencyGrid) -> np.ndarray:
    """Gate, then ``fhat_m(q_k, theta_j + pi/2)``; the turn leaves every norm unchanged."""
    require_solenoidal(f)
    return component_spectrum_polar(f, f.m, pgrid, angle_offset=np.pi / 2.0)


def _sinogram_side(psi: Sinogram, pgrid: PolarFrequencyGrid) -> np.ndarray:
    """The sinogram side: ``psihat(q_k, theta_j)`` at the radial nodes of ``pgrid``."""
    return sinogram_transform_values(psi, pgrid.radial_nodes())


def slice_pair(
    f: TensorField2D,
    *,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    sinogram: Sinogram | None = None,
) -> SlicePair:
    """Gate, project (unless ``sinogram`` is given) and transform once.

    The projection takes ``n + 1`` offsets over ``[-R, R]``.  A given
    sinogram must have the field's rank and the requested ``ntheta``.
    """
    pgrid = PolarFrequencyGrid(nq=nq, qmax=f.grid.radius if qmax is None else qmax, ntheta=ntheta)
    fhat = _field_side(f, pgrid)
    if sinogram is None:
        sinogram = forward(f, num_p=f.grid.n + 1, ntheta=ntheta)
    elif sinogram.m != f.m:
        raise ValueError(f"provided sinogram has rank {sinogram.m} but the field has rank {f.m}")
    elif sinogram.ntheta != ntheta:
        raise ValueError("provided sinogram must match the requested ntheta")
    return SlicePair(f.m, pgrid.radial_nodes(), _sinogram_side(sinogram, pgrid), fhat)


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
    return slice_pair(f, ntheta=ntheta, nq=nq, qmax=qmax, sinogram=sinogram).solenoidal_residual()


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
    _convention_constant(convention)
    return slice_pair(f, ntheta=ntheta, nq=nq, qmax=qmax, sinogram=sinogram).solenoidal_residual()


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
    _convention_constant(convention)
    return slice_pair(f, ntheta=ntheta, nq=nq, qmax=qmax, sinogram=sinogram).constant(convention)


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
    _convention_constant(convention)
    return slice_pair(f, ntheta=ntheta, nq=nq, qmax=qmax, sinogram=sinogram).coefficient_residual()
