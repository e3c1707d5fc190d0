"""Forward ray transform of tensor fields by line quadrature.

Oriented lines are parameterized by ``(p, theta)``: the line through
``p * (-sin theta, cos theta)`` with direction ``xi = (cos theta, sin theta)``.
The transform of a rank-``m`` field contracts ``m`` copies of ``xi`` into the
tensor and integrates along the line:

    psi(p, theta) = integral over t of
        sum_j C(m, j) f_j(p*(-sin,cos) + t*xi) cos^(m-j)(theta) sin^j(theta)

The integrand is the field's interpolating cubic spline (outside the grid
square it reads as zero).  The quadrature follows Joseph's scheme: each line
is sampled where it crosses a set of columns perpendicular to the grid axis
closer to ``xi`` (x when ``|cos| >= |sin|``).  By default these are the
grid's own columns, ``h`` apart, and each sample is weighted by the step
between columns along the line, ``h / max(|cos|, |sin|)``.  On a grid column
the spline's B-spline weights along the walking axis (1/6, 4/6, 1/6) undo
that axis's prefilter, so the spline restricted to the column is the 1D
spline of the samples across it.  Each component is therefore prefiltered
once per call across the columns of either walking axis; an angle combines
those rows with its trigonometric weights, and every line sample is a 4-tap
1D spline evaluation across one row.  An explicit ``t_step`` spaces the
columns so that consecutive samples lie ``t_step`` apart along the line and
weights them by ``t_step``; only then does an angle collapse the 2D spline's
coefficients (the rows prefiltered along the walking axis too) with four
B-spline weights per column.  Samples off the grid read exactly zero.

At desk scale (n = 256, R = 8) the default samples 256 columns per angle
where a step of ``h/2`` samples 512-724.  Against a step of ``h/4`` it moves
a sinogram by 2e-7 to 1e-6 of its peak, 0.31-0.43 of the spline's own error
against the closed-form sinograms, which it leaves unchanged to 3 digits.

Only the first half turn ``theta < pi`` is projected.  The line
``(-p, theta + pi)`` is ``(p, theta)`` walked backwards, so every ray
transform satisfies ``psi(-p, theta + pi) = (-1)^m psi(p, theta)``, and the
second half turn is the first mirrored in ``p`` (the offsets are exactly
antisymmetric) times ``(-1)^m``.  Forward outputs satisfy the parity by
construction; :func:`parity_residual` measures the violation for arbitrary
sinograms.  The quadrature itself is checked by its own oracles: the
Gaussian and closed-form rank-m anchors, convergence in ``t_step`` and the
2D-spline sampling of every angle from that angle's geometry.

The angles do not depend on each other, and the spline pass releases the
GIL, so a call splits its half turn over up to ``min(CPUs available, 4)``
threads with :func:`~tensorray._workers.run_round_robin`: angle ``j`` goes
to thread ``j % workers``, the calling thread included.  Each thread owns
three buffers of about ``num_p * n`` floats (1.6 MB together at desk
scale).  Every angle is computed the same way on any thread, so the
sinogram is byte-identical whatever the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ._workers import run_round_robin
from .fields import TensorField2D, tensor_weights

__all__ = ["Sinogram", "forward", "parity_residual"]


@dataclass(frozen=True)
class Sinogram:
    """Ray-transform samples ``psi(p_i, theta_j)`` on a rectangular grid.

    ``p_i`` are equispaced on ``[-pmax, pmax]`` (both endpoints included, so
    the grid is symmetric for any sample count); ``theta_j = 2*pi*j/ntheta``.
    """

    m: int
    pmax: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"tensor rank must be >= 0, got {self.m}")
        if not np.isfinite(self.pmax) or self.pmax <= 0:
            raise ValueError(f"pmax must be positive, got {self.pmax}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2D (p, theta), got shape {samples.shape}")
        if samples.shape[0] < 2:
            raise ValueError("need at least 2 offset samples")
        if samples.shape[1] < 2 or samples.shape[1] % 2 != 0:
            raise ValueError(f"ntheta must be even and >= 2, got {samples.shape[1]}")
        if not np.isfinite(samples).all():
            raise ValueError("sinogram contains non-finite samples")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def num_p(self) -> int:
        return self.samples.shape[0]

    @property
    def ntheta(self) -> int:
        return self.samples.shape[1]

    @property
    def dp(self) -> float:
        return 2.0 * self.pmax / (self.num_p - 1)

    def p_axis(self) -> np.ndarray:
        return _p_axis(self.pmax, self.num_p)

    def theta_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.ntheta) / self.ntheta


def _p_axis(pmax: float, num_p: int) -> np.ndarray:
    """Equispaced offsets on ``[-pmax, pmax]``, exactly antisymmetric."""
    ps = np.linspace(-pmax, pmax, num_p)
    return 0.5 * (ps - ps[::-1])


def _offset_weights(psi: Sinogram) -> np.ndarray:
    """Trapezoid weights over ``psi.p_axis()``: the offset quadrature rule."""
    w = np.full(psi.num_p, psi.dp)
    w[[0, -1]] *= 0.5
    return w


def _cubic_taps(frac: np.ndarray) -> np.ndarray:
    """Cubic B-spline weights of the taps ``floor - 1 .. floor + 2``.

    ``frac`` is the offset of each point from its floor, in ``[0, 1)``; the
    result has a trailing axis of length 4.
    """
    g = 1.0 - frac
    return np.stack(
        [
            g**3,
            4.0 + frac**2 * (3.0 * frac - 6.0),
            4.0 + g**2 * (3.0 * g - 6.0),
            frac**3,
        ],
        axis=-1,
    ) / 6.0


def forward(
    f: TensorField2D,
    num_p: int = 257,
    ntheta: int = 128,
    pmax: float | None = None,
    t_step: float | None = None,
) -> Sinogram:
    """Ray transform of ``f`` on a ``(p, theta)`` grid.

    Parameters
    ----------
    f : TensorField2D
        Source field, decayed at the grid boundary.
    num_p, ntheta : int
        Offset and angle sample counts (``ntheta`` even), Python or NumPy
        integers.
    pmax : float, optional
        Offset range bound.  Defaults to the grid radius; values below it are
        rejected because such lines would be truncated inside the support,
        and so are non-finite values.
    t_step : float, optional
        Quadrature step along every line.  ``None`` (the default) samples
        each line at the grid's own columns, ``h`` apart, with weight
        ``h / max(|cos theta|, |sin theta|)``, the step along the line
        between them.  An explicit value must lie in ``(0, h]``; the sampling
        columns are then ``t_step`` times the larger of ``|cos theta|`` and
        ``|sin theta|`` apart and each sample is weighted by ``t_step``.

    Each component is prefiltered once per call across the columns of
    either walking axis; an angle combines those rows and evaluates a 4-tap
    spline across them.  Only an explicit ``t_step`` builds the 2D spline and
    collapses its walking axis at every angle.  The ``ntheta // 2`` angles
    below ``pi`` are projected; the rest are their mirror
    ``(-1)^m psi(-p, theta)``, so the output satisfies the parity exactly.
    Every argument is validated before any prefilter or projection; the
    sample counts must be integers (``bool`` is not).

    The angles are split over up to ``min(CPUs available, 4, ntheta // 2)``
    threads, each with its own buffers (``3 * num_p * n`` floats, 1.6 MB at
    desk scale); the output is byte-identical for any thread count.  An
    error on any thread is raised here, after every thread has stopped.
    """
    grid = f.grid
    for name, count in (("num_p", num_p), ("ntheta", ntheta)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if pmax is None:
        pmax = grid.radius
    if not np.isfinite(pmax):
        raise ValueError(f"pmax must be finite, got {pmax}")
    if pmax < grid.radius:
        raise ValueError(
            f"pmax={pmax} is smaller than the grid radius {grid.radius}; "
            "lines with |p| <= radius would be truncated inside the support"
        )
    if num_p < 2:
        raise ValueError(f"need at least 2 offset samples, got {num_p}")
    if ntheta < 2 or ntheta % 2 != 0:
        raise ValueError(f"ntheta must be even and >= 2, got {ntheta}")
    if t_step is not None and not 0.0 < t_step <= grid.spacing:
        raise ValueError(f"t_step must lie in (0, grid spacing], got {t_step}")

    ps = _p_axis(pmax, num_p)

    h = grid.spacing
    radius = grid.radius
    n = grid.n
    half = ntheta // 2

    # each component's 1D spline coefficients across the columns of either
    # walking axis (walking x they run across y, walking y across x), one row
    # per column, padded by one mirrored coefficient before and two after:
    # the taps ``mode="constant"`` reads next to the edges
    walking_x, walking_y = (
        np.pad(
            np.stack([ndimage.spline_filter1d(c, order=3, mode="constant") for c in comps]),
            ((0, 0), (0, 0), (1, 2)),
            mode="reflect",
        )
        for comps in (f.components, f.components.transpose(0, 2, 1))
    )
    if t_step is not None:
        # the 2D spline's coefficients, padded along the walking axis too
        walking_x, walking_y = (
            np.pad(
                ndimage.spline_filter1d(rows, order=3, axis=1, mode="constant"),
                ((0, 0), (1, 2), (0, 0)),
                mode="reflect",
            )
            for rows in (walking_x, walking_y)
        )
    powers = np.arange(f.m + 1)
    weights = tensor_weights(f.m)
    # the grid's own columns and where each one's row starts in the flattened
    # rows (its first in-grid coefficient)
    columns = grid.axis()
    row_starts = 1.0 + (n + 3) * np.arange(n)
    first = np.empty((num_p, half))

    def project(angles: range, rows: np.ndarray, coords: np.ndarray, vals: np.ndarray) -> None:
        # fills first[:, j] for each angle j, reusing the three buffers; runs
        # on worker threads, so it calls numpy and scipy only (and the
        # private _cubic_taps), never a traced function
        for j in angles:
            theta = 2.0 * np.pi * j / ntheta
            c, s = np.cos(theta), np.sin(theta)
            trig = weights * c ** (f.m - powers) * s**powers
            # walking x, the line meets column x_k at y = p/c + x_k s/c;
            # walking y, at x = -p/s + y_k c/s
            if abs(c) >= abs(s):
                along, across, offsets, padded = c, s, ps, walking_x
            else:
                along, across, offsets, padded = s, c, -ps, walking_y
            if t_step is None:
                # at a grid column the spline's weights along the walking
                # axis (1/6, 4/6, 1/6) undo that axis's prefilter: its rows
                # are the rows above, combined with this angle's weights
                walk, weight, starts = columns, h / abs(along), row_starts
                coords_out, vals_out = coords, vals
                line_rows = np.dot(trig, padded.reshape(f.m + 1, -1), out=rows)
            else:
                # columns t_step |along| apart, between the grid's: collapse
                # the walking axis into one padded 1D spline row per column,
                # in blocks of columns so the gathered coefficient rows stay
                # small
                plane = np.tensordot(trig, padded, axes=(0, 0))
                dx, weight = t_step * abs(along), t_step
                ks = np.arange(np.ceil(-radius / dx), np.floor((radius - h) / dx) + 1.0)
                walk = ks * dx
                u = (walk + radius) / h
                keep = (u >= 0) & (u <= n - 1)  # rounding at the grid edges
                walk, u = walk[keep], u[keep]
                i0 = np.floor(u)
                taps = _cubic_taps(u - i0)
                window = i0.astype(np.intp)[:, None] + np.arange(4)
                line_rows = np.empty((u.size, n + 3))
                for start in range(0, u.size, 64):
                    block = slice(start, start + 64)
                    line_rows[block] = np.einsum("ka,kaj->kj", taps[block], plane[window[block]])
                starts = 1.0 + (n + 3) * np.arange(u.size)
                coords_out = vals_out = None

            # cross-axis index of every (line, column) sample; off-grid
            # samples are sent outside the flattened rows, where they read
            # exactly zero
            v = np.add.outer(
                offsets / (along * h), (walk * across / along + radius) / h, out=coords_out
            )
            off_grid = (v < 0) | (v > n - 1)
            v += starts
            v[off_grid] = -1.0
            line = ndimage.map_coordinates(
                line_rows.ravel(), v.reshape(1, -1), output=vals_out, order=3, mode="constant",
                cval=0.0, prefilter=False,
            )
            first[:, j] = weight * line.reshape(num_p, -1).sum(axis=1)

    # angle j goes to thread j % workers, so every thread walks both axes
    # and writes its own columns of ``first``, with its own three buffers.
    # The buffers stay referenced until the call returns: freed before the
    # sinogram below is built, they would leave their space to its samples,
    # which outlive the call and keep the heap from shrinking (a desk-scale
    # analysis then peaks ~3 MB higher).
    buffers = []

    def new_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        buffers.append((np.empty(n * (n + 3)), np.empty((num_p, n)), np.empty(num_p * n)))
        return buffers[-1]

    run_round_robin(project, half, new_buffers)

    # psi(-p, theta + pi) = (-1)^m psi(p, theta), and ps[::-1] == -ps exactly;
    # 0.0 - x rather than -x keeps the zeros unsigned, as projecting gives them
    mirror = first[::-1] if f.m % 2 == 0 else 0.0 - first[::-1]
    samples = np.concatenate([first, mirror], axis=1)
    return Sinogram(m=f.m, pmax=pmax, samples=samples)


def parity_residual(psi: Sinogram) -> float:
    """Largest violation of ``psi(-p, theta+pi) = (-1)^m psi(p, theta)``.

    Normalized by ``max |psi|``; zero sinograms return 0.  Forward outputs
    satisfy the identity by construction (their second half turn is the
    first one mirrored), so on them this returns 0; it measures sinograms
    read from files or built by other means.
    """
    samples = psi.samples
    scale = np.abs(samples).max()
    if scale == 0.0:
        return 0.0
    flipped = np.roll(samples[::-1, :], -psi.ntheta // 2, axis=1)
    mismatch = np.abs(flipped - (-1.0) ** psi.m * samples).max()
    return float(mismatch / scale)
