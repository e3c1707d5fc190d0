"""Grids, continuum-normalized Fourier transforms, and angular series.

This module is the numerical substrate for everything else in the package:

* :class:`CartesianGrid` — centered square grid on ``[-R, R]^2`` with an even
  number of samples per axis, together with its dual (frequency) grid.
* :func:`fourier_transform_2d` / :func:`inverse_fourier_transform_2d` — FFTs
  rescaled so that the output approximates the continuous transform
  ``(2*pi)^(-1) * integral(exp(-i<y,x>) f(x) dx)`` on the dual grid.  All
  analytic identities used by the higher-level modules are stated for the
  continuous transform, so the discrete operators match that normalization
  rather than raw DFT conventions.
* :func:`angular_coefficient_matrix` — Fourier series on the circle,
  ``c_l = (1/2pi) * integral(g(phi) exp(-i l phi) dphi)``, along the last
  axis of equispaced samples.
* :func:`polar_sample` — quintic-spline samples of a grid-sampled spectrum
  at polar frequency nodes.  It assumes the spectrum has decayed well inside
  the grid, since the spline's boundary error falls off only geometrically
  with the distance from the edge.

All functions are pure; arrays are never modified in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = [
    "CartesianGrid",
    "PolarFrequencyGrid",
    "fourier_transform_2d",
    "inverse_fourier_transform_2d",
    "pad_samples",
    "angular_coefficient_matrix",
    "polar_sample",
]


@dataclass(frozen=True)
class CartesianGrid:
    """Centered square grid with ``n`` samples per axis on ``[-R, R]^2``.

    Sample points are ``x_i = -R + i*h`` with ``h = 2R/n`` (the right edge
    ``+R`` is excluded, as usual for periodic/FFT grids).  The dual grid has
    spacing ``2*pi/(2R)`` and extends to the Nyquist frequency ``pi/h``.
    """

    n: int
    radius: float

    def __post_init__(self) -> None:
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"grid needs an even n >= 16, got n={self.n}")
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValueError(f"grid radius must be positive, got {self.radius}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / self.n

    @property
    def nyquist(self) -> float:
        """Largest resolvable frequency magnitude, ``pi / spacing``."""
        return np.pi / self.spacing

    def axis(self) -> np.ndarray:
        return -self.radius + self.spacing * np.arange(self.n)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def dual(self) -> "CartesianGrid":
        """The frequency grid: same ``n``, half-width ``pi/spacing``."""
        return CartesianGrid(self.n, self.nyquist)

    def padded(self, factor: int) -> "CartesianGrid":
        """Grid enlarged ``factor`` times at the same spacing."""
        if factor < 1:
            raise ValueError(f"pad factor must be >= 1, got {factor}")
        return CartesianGrid(self.n * factor, self.radius * factor)


@dataclass(frozen=True)
class PolarFrequencyGrid:
    """Polar grid in frequency space.

    Radial nodes are midpoints ``q_k = (k + 1/2) * qmax / nq`` — there is no
    node at ``q = 0``, so weights like ``q^(2t+1)`` with ``t`` close to ``-1``
    stay finite at every node.  Angular nodes are ``phi_j = 2*pi*j / ntheta``.
    """

    nq: int
    qmax: float
    ntheta: int

    def __post_init__(self) -> None:
        if self.nq < 1:
            raise ValueError(f"nq must be >= 1, got {self.nq}")
        if not np.isfinite(self.qmax) or self.qmax <= 0:
            raise ValueError(f"qmax must be positive, got {self.qmax}")
        if self.ntheta < 2 or self.ntheta % 2 != 0:
            raise ValueError(f"ntheta must be even and >= 2, got {self.ntheta}")

    @property
    def dq(self) -> float:
        return self.qmax / self.nq

    def radial_nodes(self) -> np.ndarray:
        return (np.arange(self.nq) + 0.5) * self.dq

    def angular_nodes(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.ntheta) / self.ntheta


# Samples kept on each side of the nodes' reach when prefiltering: the
# quintic prefilter's slower pole has |z| = 0.4305, and 0.4305**48 < 1e-17.
_PREFILTER_MARGIN = 48


def _check_finite(values: np.ndarray, what: str) -> None:
    # np.isfinite checks both parts of complex inputs
    if not np.isfinite(values).all():
        raise ValueError(f"{what} contains non-finite values")


def fourier_transform_2d(values: np.ndarray, grid: CartesianGrid) -> np.ndarray:
    """Continuum-normalized 2D Fourier transform on the dual grid.

    Parameters
    ----------
    values : ndarray, shape (n, n)
        Samples ``f(x_i, y_j)`` on ``grid`` (axis 0 is x).  The function must
        decay at the boundary; out-of-box content simply wraps.
    grid : CartesianGrid

    Returns
    -------
    ndarray, shape (n, n), complex
        ``fhat(y)`` sampled on ``grid.dual()``, approximating
        ``(2*pi)^(-1) * integral(exp(-i<y,x>) f(x) dx)`` by trapezoid
        quadrature.  Exact inverse of :func:`inverse_fourier_transform_2d`.
    """
    values = np.asarray(values)
    if values.shape != (grid.n, grid.n):
        raise ValueError(f"expected shape {(grid.n, grid.n)}, got {values.shape}")
    _check_finite(values, "input field")
    h = grid.spacing
    spec = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(values)))
    return spec * (h * h / (2.0 * np.pi))


def inverse_fourier_transform_2d(spectrum: np.ndarray, grid: CartesianGrid) -> np.ndarray:
    """Inverse of :func:`fourier_transform_2d` (composition is the identity).

    ``spectrum`` lives on ``grid.dual()``; the result lives on ``grid`` and is
    complex — callers that expect a real field take the real part themselves.
    """
    spectrum = np.asarray(spectrum)
    if spectrum.shape != (grid.n, grid.n):
        raise ValueError(f"expected shape {(grid.n, grid.n)}, got {spectrum.shape}")
    _check_finite(spectrum, "input spectrum")
    h = grid.spacing
    out = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(spectrum)))
    return out * (2.0 * np.pi / (h * h))


def pad_samples(values: np.ndarray, grid: CartesianGrid, factor: int) -> tuple[np.ndarray, CartesianGrid]:
    """Embed samples in a ``factor`` times larger grid, zero outside.

    Valid for fields that already decay at the boundary of ``grid``; the
    padded transform then samples the same continuous spectrum on a grid
    ``factor`` times finer.
    """
    big = grid.padded(factor)
    out = np.zeros((big.n, big.n), dtype=np.asarray(values).dtype)
    off = (big.n - grid.n) // 2
    out[off : off + grid.n, off : off + grid.n] = values
    return out, big


def angular_coefficient_matrix(samples: np.ndarray, lmax: int) -> np.ndarray:
    """Vectorized angular DFT: last axis phi ``->`` last axis ``l`` in ``[-lmax, lmax]``.

    The samples sit at ``phi_j = 2*pi*j / ntheta``.  Exact for trigonometric
    polynomials of degree ``<= lmax``; requires ``ntheta >= 2*lmax + 2``.
    """
    samples = np.asarray(samples, dtype=complex)
    ntheta = samples.shape[-1]
    if ntheta < 2 * lmax + 2:
        raise ValueError(f"need ntheta >= {2 * lmax + 2} samples for lmax={lmax}, got {ntheta}")
    raw = np.fft.fft(samples, axis=-1) / ntheta
    idx = np.arange(-lmax, lmax + 1) % ntheta
    return raw[..., idx]


def _sample_polar_window(grid: CartesianGrid, qs, phis, window_values) -> np.ndarray:
    """Quintic splines at the polar nodes over the index window they reach.

    Validates the nodes, finds the window (their reach widened by
    ``_PREFILTER_MARGIN`` samples on each side, clipped at the grid edge)
    and samples ``window_values(window)``, the grid function on that
    ``(rows, columns)`` slice pair, there.  Nothing is computed before the
    nodes pass.
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    _check_finite(qs, "radial nodes qs")
    _check_finite(phis, "angular nodes phis")
    reach = np.abs(qs).max(initial=0.0)
    if reach > grid.radius + 1e-12:
        raise ValueError(
            f"requested radius {reach:.6g} exceeds the grid extent "
            f"{grid.radius:.6g} (the Nyquist bound of the sampled transform)"
        )
    # (q cos(phi) + R) / h and (q sin(phi) + R) / h, in sample units
    coords = np.empty((2, qs.size, phis.size))
    for axis, trig in enumerate((np.cos, np.sin)):
        np.multiply.outer(qs, trig(phis), out=coords[axis])
        coords[axis] += grid.radius
        coords[axis] /= grid.spacing
    window = [slice(0, grid.n), slice(0, grid.n)]
    if coords.size:
        for axis in (0, 1):
            lo = max(0, int(np.floor(coords[axis].min())) - _PREFILTER_MARGIN)
            hi = min(grid.n, int(np.ceil(coords[axis].max())) + _PREFILTER_MARGIN + 1)
            coords[axis] -= lo
            window[axis] = slice(lo, hi)
    return ndimage.map_coordinates(window_values(tuple(window)), coords, order=5, mode="constant")


def polar_sample(
    values: np.ndarray, grid: CartesianGrid, qs: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Quintic-spline samples of a grid function at ``(q_k cos(phi_j), q_k sin(phi_j))``.

    ``qs`` and ``phis`` broadcast against each other as ``(nq, 1)`` x
    ``(ntheta,)``; the result is complex with shape ``(nq, ntheta)``.
    Non-finite nodes and radii ``|q|`` beyond the grid extent raise, the
    latter naming the Nyquist-limited usable radius.

    Real and imaginary parts are interpolated separately by order-5 splines,
    whose error scales like the sixth power of the grid spacing for smooth
    inputs.  Points beyond the last sample read as zero.  The spline near
    the edge depends on how the grid is extended, an influence that decays
    only geometrically away from the edge, so the function must have
    decayed well inside the grid.  For the same reason only the index
    window the nodes reach, widened by ``_PREFILTER_MARGIN`` samples and
    clipped at the grid edge, is prefiltered: the spline coefficients there
    equal the whole grid's to rounding.  That window is all of ``values``
    the samples read, so a caller that can compute the window alone (as
    :func:`~tensorray.fields.component_spectrum_polar` does) gets the same
    samples without the rest of the grid.
    """
    values = np.asarray(values, dtype=complex)
    return _sample_polar_window(grid, qs, phis, values.__getitem__)
