"""Reference operators that only the tests call.

Each is the plain form of a transform the library needs only through its
pipelines: the inverse of :func:`tensorray.grids.fourier_transform_2d`, the
zero padding that refines its dual grid, and the symmetrized gradient that
spans the kernel of the forward ray transform.
"""

import numpy as np

from tensorray import CartesianGrid, TensorField2D


def inverse_fourier_transform_2d(spectrum: np.ndarray, grid: CartesianGrid) -> np.ndarray:
    """Inverse of :func:`~tensorray.grids.fourier_transform_2d` (composition is the identity).

    ``spectrum`` lives on ``grid.dual()``; the result lives on ``grid`` and is
    complex — callers that expect a real field take the real part themselves.
    """
    spectrum = np.asarray(spectrum)
    if spectrum.shape != (grid.n, grid.n):
        raise ValueError(f"expected shape {(grid.n, grid.n)}, got {spectrum.shape}")
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


def symmetrized_gradient(v: TensorField2D) -> TensorField2D:
    """Symmetrized spectral derivative: rank ``m`` field from a rank ``m-1`` one.

    Component ``j`` of the result is
    ``((m - j) * d(v_j)/dx + j * d(v_{j-1})/dy) / m``.  Fields of this form
    (with decaying ``v``) integrate to zero along every line, so they span
    the kernel of the forward ray transform.  The derivatives are taken on
    the half plane of a real FFT; the Nyquist row and column are their own
    ``-k``, so ``kx`` is 0 on the Nyquist row and ``ky`` on the Nyquist
    column, as the real part of a whole-plane derivative has it.
    """
    m, n = v.m + 1, v.grid.n
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=v.grid.spacing)
    k[n // 2] = 0.0
    kx, ky = k[:, None], k[: n // 2 + 1]
    specs = np.fft.rfft2(v.components, axes=(1, 2))
    comps = np.empty((m + 1, n, n))
    for j in range(m + 1):
        acc = np.zeros_like(specs[0])
        if j <= m - 1:
            acc += (m - j) * 1j * kx * specs[j]
        if j >= 1:
            acc += j * 1j * ky * specs[j - 1]
        comps[j] = np.fft.irfft2(acc / m, s=(n, n))
    return TensorField2D(m=m, grid=v.grid, components=comps)
