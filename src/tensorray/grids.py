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
  at polar frequency nodes: the coefficients ``map_coordinates(order=5)``
  would prefilter, read by a sparse operator of the nodes' 6 x 6 B-spline
  weights, refilled once per group of angles on the calling thread.  It
  assumes the spectrum has decayed well inside the grid, since the spline's
  boundary error falls off only geometrically with the distance from the
  edge.

All functions are pure; arrays are never modified in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

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


# tap t of a position with floor f reads the coefficient f - 2 + t
_TAPS = np.arange(6)


def _angle_groups(ntheta: int) -> list[tuple[int, ...]]:
    """The angles ``j < ntheta // 2`` of ``2 pi j / ntheta``, grouped by the quarter-turn symmetry.

    ``theta``, ``pi/2 - theta``, ``pi/2 + theta`` and ``pi - theta``, and an
    angle a half turn from one of them, are images of each other under the
    reflections ``x -> -x``, ``y -> -y`` and ``x <-> y``: the projector's
    lines at them cross the same (line, column) nodes (a half turn walks
    the same lines backwards), and the spectrum sampler's polar nodes at
    them, offset by a multiple of ``pi/2``, are reflections of each other
    through the frequency origin.  A group lists, in
    increasing order, the angles ``j < ntheta // 2`` among them: the grid
    angles ``j' = +-j + k ntheta / 4``, taken modulo ``ntheta // 2``.  When
    ``ntheta % 4 != 0`` only ``k = 0`` and ``k = 2`` give whole ``j'``, so
    ``theta`` groups with ``pi - theta`` alone.  Coinciding members make
    the groups of ``0`` (with ``pi/2``) and ``pi/4`` (with ``3pi/4``) smaller.
    """
    half = ntheta // 2
    groups, grouped = [], set()
    for j in range(half):
        if j not in grouped:
            group = tuple(sorted({
                (sign * 4 * j + k * ntheta) // 4 % half
                for sign in (1, -1) for k in range(4) if k * ntheta % 4 == 0
            }))
            grouped.update(group)
            groups.append(group)
    return groups


def _quintic_taps(frac: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Quintic B-spline weights of the taps ``floor - 2 .. floor + 3``, written to ``out``.

    ``frac`` is the offset of each point from its floor, in ``[0, 1)``;
    ``out`` has a leading axis of length 6, one tap each.  With ``g = 1 -
    frac``, the taps sit at distances ``2 + frac, 1 + frac, frac, g, 1 + g,
    2 + g`` from the point, and ``beta5(x)`` is ``11/20 - x^2/2 + x^4/4 -
    x^5/12`` for ``x <= 1``, ``((3 - x)^5 - 6 (2 - x)^5) / 120`` for ``1 <=
    x <= 2`` and ``(3 - x)^5 / 120`` for ``2 <= x <= 3``.
    """
    g = 1.0 - frac
    # frac gives the weights of the taps floor, floor + 2 and floor + 3;
    # g those of floor + 1, floor - 1 and floor - 2
    for x, near, middle, far in ((frac, out[2], out[4], out[5]), (g, out[3], out[1], out[0])):
        np.multiply(x, x, out=middle)  # x^2 until far is known
        np.multiply(middle, middle, out=near)  # x^4
        np.multiply(near, x, out=far)
        far /= 120.0  # x^5 / 120: beta5(3 - x)
        near *= 0.25
        near += 11.0 / 20.0
        near -= 10.0 * far
        middle *= 0.5
        near -= middle  # beta5(x)
        # beta5(2 - x) = ((1 + x)^5 - 6 x^5) / 120
        y = x + 1.0
        np.multiply(y, y, out=middle)
        middle *= middle
        middle *= y
        middle /= 120.0
        middle -= 6.0 * far
    return out


def _refillable_operator(rows: int, taps: int, columns: int):
    """A ``rows x columns`` CSR operator of ``taps`` entries a row, all zero.

    ``indptr`` is fixed; its owner refills ``data`` and ``indices`` in
    place, a block at a time.  ``scipy.sparse`` is imported here, at the
    first call: only the projector and the spectrum sampler use it, and
    importing it takes 10-12 ms.
    """
    from scipy import sparse

    indptr = taps * np.arange(rows + 1, dtype=np.int32)
    return sparse.csr_array(
        (np.zeros(indptr[-1]), np.zeros(indptr[-1], dtype=np.int32), indptr),
        shape=(rows, columns),
    )


def _spline_taps(operator, weights: np.ndarray, start: np.ndarray, stencil: np.ndarray) -> None:
    """Refill ``operator`` with the quintic spline taps of one angle's nodes.

    ``weights[:, a, i]`` are node ``i``'s six B-spline weights along axis
    ``a`` and ``start[i]`` the flat index of its first tap in the
    coefficients the operator reads; its taps sit at ``start[i] +
    stencil``.  Row ``i`` of the operator gets the 36 products of the two
    axes' weights, so it sums to the node's sample.
    """
    size = start.size
    np.einsum("in,kn->nik", weights[:, 0], weights[:, 1], out=operator.data.reshape(size, 6, 6))
    np.add(start[:, None], stencil, out=operator.indices.reshape(size, 36))


def _nodes(values, what: str) -> np.ndarray:
    """``values`` as a 1-D float array, after checking it is 0-D or 1-D and finite."""
    nodes = np.atleast_1d(np.asarray(values, dtype=float))
    if nodes.ndim > 1:
        raise ValueError(f"{what} must be 0-D or 1-D, got shape {nodes.shape}")
    _check_finite(nodes, what)
    return nodes


def _sample_polar_window(
    grid: CartesianGrid, qs, phis, window_values, groups: list[tuple[int, ...]] | None = None
) -> np.ndarray:
    """Quintic splines at the polar nodes over the index window they reach.

    Validates the nodes (0-D or 1-D, finite, within the grid), finds the
    window (their reach widened by ``_PREFILTER_MARGIN`` samples on each
    side, clipped at the grid edge) and samples ``window_values(window)``,
    the complex grid function on that ``(rows, columns)`` slice pair,
    there.  Nothing is computed before the nodes pass, and scipy is
    imported only after that.  The real and imaginary parts are prefiltered
    in turn as ``map_coordinates(order=5, mode="constant")`` prefilters
    them, the second pass only over the rows the taps read.  A sparse
    operator then holds, for every radius at one angle, the 6 x 6 B-spline
    weights of its position and the flat indices of their taps, and
    ``operator @ coefficients`` sums them.  A tap past the grid's edge
    reads the coefficient mirrored about it, and a node off the grid keeps
    zero weights and reads zero, both as in ``mode="constant"``.  Positions
    are measured from the centre sample (frequency 0) and so rounded at
    their own size, not at ``n/2``.

    ``groups`` lists indices of angles whose nodes are images of each other
    under the reflections ``x -> -x``, ``y -> -y`` and ``x <-> y`` through
    the centre sample.  The operator holds the first angle of a group and
    serves every member: a member reads the coefficients reflected to its
    side (its reflection derived from its own and the first angle's cos and
    sin), laid out over the box of taps the first angles read, one column
    per reflection and part.  That holds only where the window lies inside
    the grid with its whole margin, so that its coefficients do not depend
    on an edge; otherwise, and without ``groups``, each angle is its own
    group.  One operator is refilled once per group, on the calling thread.
    """
    qs, phis = _nodes(qs, "radial nodes qs"), _nodes(phis, "angular nodes phis")
    reach = np.abs(qs).max(initial=0.0)
    if reach > grid.radius + 1e-12:
        raise ValueError(
            f"requested radius {reach:.6g} exceeds the grid extent "
            f"{grid.radius:.6g} (the Nyquist bound of the sampled transform)"
        )
    out = np.empty((qs.size, phis.size), dtype=complex)
    if not out.size:
        return out
    half = grid.n // 2
    # a node's offset in samples from the centre sample (index n/2) is
    # q cos(phi) / h along x and q sin(phi) / h along y; rounding keeps
    # their order, so their extremes lie at the extreme radii and angles
    ends = qs[[qs.argmin(), qs.argmax()]]
    window, inside = [], True
    for trig in (np.cos(phis), np.sin(phis)):
        corners = np.multiply.outer(ends, trig[[trig.argmin(), trig.argmax()]]) / grid.spacing
        lo = half + int(np.floor(corners.min())) - _PREFILTER_MARGIN
        hi = half + int(np.ceil(corners.max())) + _PREFILTER_MARGIN + 1
        inside &= lo >= 0 and hi <= grid.n
        window.append(slice(max(lo, 0), min(hi, grid.n)))
    if groups is None or not inside:
        groups = [(j,) for j in range(phis.size)]
    values = window_values(tuple(window))
    last = np.array([w.stop - w.start - 1 for w in window])  # the window's last index
    centre = np.array([half - w.start for w in window])  # the centre's index in the window

    # every group's first angle at its radii.  A node is on the grid where
    # its offsets lie in [-n/2, n/2 - 1]; off it, its weights are zero and
    # its position is clipped into the window
    position = np.empty((2, len(groups), qs.size))
    for axis, trig in enumerate((np.cos, np.sin)):
        np.multiply.outer(trig(phis[[group[0] for group in groups]]), qs, out=position[axis])
        position[axis] /= grid.spacing
    on_grid = ((position >= -half) & (position <= half - 1)).all(axis=0)
    np.clip(position, -centre[:, None, None], (last - centre)[:, None, None], out=position)
    floor = np.floor(position)
    frac = np.subtract(position, floor, out=position)
    # each node's first tap (floor - 2) from the centre, and the box of
    # offsets the first angles' taps read, over which the operators index
    start = floor.astype(np.int32)
    del floor
    start -= 2
    lo = start.min(axis=(1, 2))
    box = start.max(axis=(1, 2)) + 6 - lo
    start -= lo[:, None, None]
    start = start[0] * box[1] + start[1]
    stencil = (box[1] * _TAPS[:, None] + _TAPS).astype(np.int32).reshape(-1)

    # a member reads the first angle's taps reflected through the centre:
    # axes swapped or not, then x and y flipped or not, as takes the first
    # angle's (cos, sin) to its own.  Each reflection in use reads the box
    # at the window's rows take[0] and columns take[1].  A tap past the
    # window's edge reads the coefficient mirrored about it, as
    # map_coordinates' mode="constant" does at the grid's edge; an index
    # whose reflection leaves the window holds no tap and is clipped
    def reflection(first: float, member: float) -> tuple[bool, int, int]:
        c0, s0, c, s = cos(first), sin(first), cos(member), sin(member)
        swap = (abs(c) >= abs(s)) != (abs(c0) >= abs(s0))
        x, y = (s0, c0) if swap else (c0, s0)
        return swap, 1 if c * x >= 0 else -1, 1 if s * y >= 0 else -1

    def mirrored(index: np.ndarray, last: int) -> np.ndarray:
        return np.clip(last - np.abs(last - np.abs(index)), 0, last)

    reflections = [[reflection(phis[group[0]], phis[j]) for j in group] for group in groups]
    used = sorted({r for group in reflections for r in group})
    members = [
        [(j, used.index(r)) for j, r in zip(group, group_reflections)]
        for group, group_reflections in zip(groups, reflections)
    ]
    offsets = [lo[axis] + np.arange(box[axis]) for axis in (0, 1)]
    takes = []
    for swap, sign_x, sign_y in used:
        along_x, along_y = offsets[::-1] if swap else offsets
        takes.append((
            mirrored(centre[0] + sign_x * along_x, last[0]),
            mirrored(centre[1] + sign_y * along_y, last[1]),
        ))
    # the rows any tap reads: only they need the second prefilter pass
    read = slice(min(take[0].min() for take in takes), max(take[0].max() for take in takes) + 1)

    # imported here, after every check, rather than with the package:
    # commands that never sample a spectrum or project do not pay for it
    from scipy import ndimage

    # each part prefiltered as map_coordinates prefilters it, x then y, the
    # second pass only over the rows the taps read, where the coefficients
    # come out the same
    parts = [np.empty(last + 1) for _ in range(2)]
    for k, part in enumerate(parts):
        ndimage.spline_filter1d(
            values.imag if k else values.real, order=5, axis=0, mode="constant", output=part
        )
        rows = part[read]
        ndimage.spline_filter1d(rows, order=5, axis=1, mode="constant", output=rows)
    del values
    # either part's coefficients over the box, one column per reflection
    columns = np.empty((box[0], box[1], len(used), 2))
    for t, ((swap, _, _), take) in enumerate(zip(used, takes)):
        for k, part in enumerate(parts):
            taken = part[np.ix_(*take)]
            columns[:, :, t, k] = taken.T if swap else taken
    columns = columns.reshape(box[0] * box[1], -1)
    del parts
    weights = _quintic_taps(frac, np.empty((6, *frac.shape)))
    weights *= on_grid
    del frac, position
    pairs = out.view(float).reshape(qs.size, phis.size, 2)
    operator = _refillable_operator(qs.size, 36, columns.shape[0])
    for g, group in enumerate(members):
        _spline_taps(operator, weights[:, :, g], start[g], stencil)
        samples = (operator @ columns).reshape(qs.size, len(used), 2)
        for j, t in group:
            pairs[:, j] = samples[:, t]
    return out


def polar_sample(
    values: np.ndarray, grid: CartesianGrid, qs: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Quintic-spline samples of a grid function at ``(q_k cos(phi_j), q_k sin(phi_j))``.

    ``qs`` and ``phis`` are 0-D or 1-D; the result is complex with shape
    ``(qs.size, phis.size)``, one row per radius.  Nodes of more dimensions,
    non-finite nodes and radii ``|q|`` beyond the grid extent raise before
    anything is computed, the last naming the Nyquist-limited usable radius.

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

    Each part is prefiltered as ``map_coordinates(order=5,
    mode="constant")`` prefilters it, and every node's sample is the sum of
    its 36 B-spline weights times the coefficients they tap, taken by a
    sparse operator filled one angle at a time; the samples match
    ``map_coordinates`` to rounding.  Everything runs on the calling thread.
    """
    values = np.asarray(values, dtype=complex)
    return _sample_polar_window(grid, qs, phis, values.__getitem__)
