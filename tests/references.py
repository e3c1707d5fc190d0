"""Reference operators that only the tests call.

Each is the plain form of a transform the library needs only through its
pipelines: the inverse of :func:`tensorray.grids.fourier_transform_2d`, the
zero padding that refines its dual grid, the symmetrized gradient that
spans the kernel of the forward ray transform, and the forward projector as
the 2D spline collapsed along the walking axis at every angle, at the grid's
columns or at any step along the line.
"""

import numpy as np
from scipy import ndimage

from tensorray import CartesianGrid, TensorField2D
from tensorray.fields import tensor_weights
from tensorray.ray import _cubic_taps, _p_axis


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
    big = CartesianGrid(grid.n * factor, grid.radius * factor)
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


def reference_forward(f, num_p, ntheta, pmax=None, t_step=None):
    """The 2D spline collapsed along the walking axis at every angle.

    One 2D prefilter per component, padded by one mirrored coefficient
    before and two after each axis; per angle the trig-weighted plane is
    collapsed with the cubic B-spline taps of each column into one row, and
    every line sample gathers the four taps around its cross position from
    that row, weighted by the fraction of the position itself (never of a
    flattened coordinate, whose rounding grows with the row offset).  The
    second half turn is the first one mirrored.  With ``t_step=None`` the
    columns are the grid's own, each sample weighted by ``h / |along|``, as
    in ``forward``; a step spaces them ``t_step |along|`` apart and weights
    each sample by ``t_step``.  Returns the samples array.
    """
    grid = f.grid
    pmax = grid.radius if pmax is None else pmax
    h, radius, n = grid.spacing, grid.radius, grid.n
    ps = _p_axis(pmax, num_p)
    walking_x = np.pad(
        np.stack([ndimage.spline_filter(c, order=3, mode="constant") for c in f.components]),
        ((0, 0), (1, 2), (1, 2)),
        mode="reflect",
    )
    walking_y = walking_x.transpose(0, 2, 1)
    powers = np.arange(f.m + 1)
    first = []
    for theta in 2.0 * np.pi * np.arange(ntheta // 2) / ntheta:
        c, s = np.cos(theta), np.sin(theta)
        trig = tensor_weights(f.m) * c ** (f.m - powers) * s**powers
        if abs(c) >= abs(s):
            along, across, offsets, padded = c, s, ps, walking_x
        else:
            along, across, offsets, padded = s, c, -ps, walking_y
        plane = np.tensordot(trig, padded, axes=(0, 0))
        if t_step is None:
            dx, weight = h, h / abs(along)
        else:
            dx, weight = t_step * abs(along), t_step
        walk = dx * np.arange(np.ceil(-radius / dx), np.floor((radius - h) / dx) + 1.0)
        u = (walk + radius) / h
        keep = (u >= 0) & (u <= n - 1)
        walk, u = walk[keep], u[keep]
        i0 = np.floor(u)
        # 128 columns at a time, and below 32 lines at a time, so that the
        # gathered rows and the node arrays stay in cache
        collapse = _cubic_taps(u - i0)[:, :, None]
        start = i0.astype(np.intp)
        rows = np.concatenate([
            sum(collapse[t, part] * plane[start[part] + t] for t in range(4))
            for part in np.array_split(np.arange(u.size), -(-u.size // 128))
        ])
        cross = (walk * across / along + radius) / h
        # padded index floor + t of a column's row holds the coefficient of
        # tap floor - 1 + t: the flat index of tap 0, read t places further
        flat, row_starts = rows.ravel(), rows.shape[1] * np.arange(u.size)
        sums = []
        for line_offsets in np.array_split(offsets, -(-offsets.size // 32)):
            v = np.add.outer(line_offsets / (along * h), cross)
            in_grid = (v >= 0) & (v <= n - 1)
            v = np.where(in_grid, v, 0.0)
            floor = np.floor(v)
            taps = _cubic_taps(v - floor)
            index = floor.astype(np.intp) + row_starts
            vals = sum(taps[t] * flat[t:].take(index) for t in range(4))
            sums.append(np.where(in_grid, vals, 0.0).sum(axis=1))
        first.append(weight * np.concatenate(sums))
    first = np.stack(first, axis=1)
    return np.concatenate([first, (-1.0) ** f.m * first[::-1]], axis=1)
