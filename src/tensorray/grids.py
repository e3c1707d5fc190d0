"""Grids, continuum-normalized Fourier transforms, and angular series.

This module is the numerical substrate for everything else in the package:

* :class:`CartesianGrid` — centered square grid on ``[-R, R]^2`` with an even
  number of samples per axis, together with its dual (frequency) grid.
* :func:`fourier_transform_2d` — the FFT rescaled so that the output
  approximates the continuous transform
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

from ._workers import run_round_robin

__all__ = [
    "CartesianGrid",
    "PolarFrequencyGrid",
    "fourier_transform_2d",
    "angular_coefficient_matrix",
    "polar_sample",
]


def _check_integer(value, name: str) -> None:
    """Reject a count or rank that is not a Python or NumPy integer (``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        _check_integer(self.n, "grid size n")
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
        _check_integer(self.nq, "nq")
        _check_integer(self.ntheta, "ntheta")
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
        quadrature.  The centred ``np.fft.ifft2`` scaled by ``2 pi / h^2``
        inverts it exactly.
    """
    values = np.asarray(values)
    if values.shape != (grid.n, grid.n):
        raise ValueError(f"expected shape {(grid.n, grid.n)}, got {values.shape}")
    _check_finite(values, "input field")
    h = grid.spacing
    spec = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(values)))
    return spec * (h * h / (2.0 * np.pi))


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
    and samples ``window_values(window)``, the complex grid function on that
    ``(rows, columns)`` slice pair, there.  Nothing is computed before the
    nodes pass.  The real and imaginary parts are prefiltered and sampled
    on up to two threads (:func:`~tensorray._workers.run_round_robin`),
    each exactly as ``map_coordinates`` treats a complex input, so the
    samples are byte-identical to one thread's.
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
    values = window_values(tuple(window))
    out = np.empty(coords.shape[1:], dtype=complex)
    # the real and imaginary passes scipy would run one after the other on a
    # complex input, here on up to two threads; each writes its own part
    parts = ((values.real, out.real), (values.imag, out.imag))

    def spline(which: range) -> None:
        # runs on a worker thread: scipy only
        for k in which:
            part, part_out = parts[k]
            ndimage.map_coordinates(part, coords, output=part_out, order=5, mode="constant")

    run_round_robin(spline, 2)
    return out


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
    samples without the rest of the grid.  The two parts' splines run on up
    to two threads; the samples do not depend on the thread count.
    """
    values = np.asarray(values, dtype=complex)
    return _sample_polar_window(grid, qs, phis, values.__getitem__)
