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
closer to ``xi`` (x when ``|cos| >= |sin|``).  These are the grid's own
columns, ``h`` apart, and each sample is weighted by the step between
columns along the line, ``h / max(|cos|, |sin|)``.  On a grid column
the spline's B-spline weights along the walking axis (1/6, 4/6, 1/6) undo
that axis's prefilter, so the spline restricted to the column is the 1D
spline of the samples across it.  Each component is therefore prefiltered
once per call across the columns of either walking axis; an angle combines
those rows with its trigonometric weights, and every line sample is a 4-tap
1D spline evaluation across one row.

The samples are taken by a sparse operator over the (line, column) nodes
of a geometry.  Each node holds the four cubic B-spline weights of its
cross position (the fraction is taken from that position, before the row
offset is added, so it does not round with the offset) and the flat
indices of their taps in the rows; ``operator @ rows`` does the
gather, the multiply-add and the sum along every line in compiled code.
Nodes off the grid stay in the operator with four zero weights, so their
samples read exactly zero.  ``theta``, ``pi/2 - theta``, ``pi/2 + theta``
and ``pi - theta`` cross the same nodes at the same cross positions (the
last two are the first two mirrored through ``x -> -x``), each walking its
own axis, so they share one operator, each with its own rows and
trigonometric weights.  A member meets the lines in reverse order when the
factor of ``p`` in its cross positions (``1 / along`` walking x, ``-1 /
along`` walking y) has the other sign than in the operator's, and the
columns in mirrored order (its column ``n - k`` at the operator's ``k``, its
taps shifted to that row) when ``across / along`` does: the grid is ``x_k =
-R + k h``, so ``-x_k`` is ``x_(n-k)``.  The operator spans ``n + 1``
columns, and the one a member lacks (``x = R``, column ``n``) reads a zero
row.  At ``ntheta = 128`` that is 17 operators for 64 angles: ``0`` groups
with ``pi/2`` and ``pi/4`` with ``3pi/4``.  With ``ntheta % 4 != 0`` only
``pi - theta`` is on the angle grid, and ``ntheta = 90`` fills 23 operators
for 45 angles.
``scipy.ndimage`` and ``scipy.sparse`` are imported at the first call, not
with the module.

At desk scale (n = 256, R = 8) each angle samples 256 columns, where a
step of ``h/2`` along the line would sample 512-724.  Against the same
spline sampled at a step of ``h/4`` this moves a sinogram by 2e-7 to 1e-6
of its peak, 0.31-0.43 of the spline's own error against the closed-form
sinograms, which it leaves unchanged to 3 digits.

Only the first half turn ``theta < pi`` is projected.  The line
``(-p, theta + pi)`` is ``(p, theta)`` walked backwards, so every ray
transform satisfies ``psi(-p, theta + pi) = (-1)^m psi(p, theta)``, and the
second half turn is the first mirrored in ``p`` (the offsets are exactly
antisymmetric) times ``(-1)^m``.  Forward outputs satisfy the parity by
construction; :func:`parity_residual` measures the violation for arbitrary
sinograms.  The quadrature itself is checked by its own oracles: the
Gaussian and closed-form rank-m anchors, the shift against a step of
``h/4`` and the 2D-spline sampling of every angle from that angle's
geometry.

The blocks of lines do not depend on each other, and the sparse products
release the GIL, so a call splits them over up to ``min(CPUs available,
4)`` threads with :func:`~tensorray._workers.run_in_lockstep`: block ``b``
of every group goes to thread ``b % workers``, the calling thread included,
and the block count is a multiple of the thread count.  First the threads
prefilter the components, one component and walking axis each at a time,
and wait for each other.  Then, per group, they share the group's rows
(four arrays of ``(n + 1)(n + 3)`` floats, 2.1 MB at desk scale): member
``a`` is combined by thread ``a % workers``, all wait, each fills its own
operator (at most 32768 nodes a block, four weights and indices each; 0.8
MB at desk scale on two threads) block by block and applies it to every
member's rows, and all wait again before the next group.  Every line is
computed the same way on any thread, so the sinogram is byte-identical
whatever the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _workers
from .fields import TensorField2D, tensor_weights
from .grids import _angle_groups, _check_integer, _refillable_operator

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
        _check_integer(self.m, "tensor rank m")
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


def _cubic_taps(frac: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cubic B-spline weights of the taps ``floor - 1 .. floor + 2``.

    ``frac`` is the offset of each point from its floor, in ``[0, 1)``; the
    result has a leading axis of length 4, one tap each, and is written to
    ``out`` when given.
    """
    if out is None:
        out = np.empty((4,) + frac.shape)
    w0, w1, w2, w3 = out
    g = 1.0 - frac
    np.multiply(g, g, out=w0)
    w0 *= g
    w0 /= 6.0
    np.multiply(frac, frac, out=w1)  # frac^2 until w3 is known
    np.multiply(w1, frac, out=w3)
    w3 /= 6.0
    # (4 - 6 x^2 + 3 x^3) / 6 at x = frac; the four weights sum to 1
    np.subtract(2.0 / 3.0, w1, out=w1)
    w1 += 3.0 * w3
    np.subtract(1.0, w0, out=w2)
    w2 -= w1
    w2 -= w3
    return out


def _node_taps(operator, v: np.ndarray, starts: np.ndarray, n: int) -> None:
    """Refill ``operator`` with the cubic spline taps of a block of lines.

    ``v[i, k]`` is line ``i``'s cross-axis position at column ``k``, whose
    padded row starts at flat index ``starts[k]`` (its coefficient ``c`` at
    ``starts[k] + 1 + c``).  Row ``t * lines + i`` of the operator gets tap
    ``t`` of line ``i`` at every column, so the rows of a line sum to its
    samples.  Each fraction is taken from ``v`` itself, before the row
    offset is added.  A node off the grid (``v`` outside ``[0, n - 1]``)
    keeps four zero weights, on taps clipped into its row.  ``v`` is
    overwritten.
    """
    lines, size = v.shape
    data = operator.data[: 4 * v.size].reshape(4, lines, size)
    in_grid = (v >= 0) & (v <= n - 1)
    np.clip(v, 0, n - 1, out=v)
    floor = np.floor(v)
    _cubic_taps(np.subtract(v, floor, out=v), out=data)
    data *= in_grid
    floor += starts
    np.add(floor.astype(np.int32), _TAPS[:, None, None],
           out=operator.indices[: 4 * v.size].reshape(4, lines, size))


# tap t of a position with floor f reads padded index f + t: coefficient
# f - 1 + t, behind the one mirrored coefficient that starts a row
_TAPS = np.arange(4, dtype=np.int32)

# line-column nodes in one block of lines, at most: a projector thread's
# operator holds four weights and indices per node of a block, 1.6 MB at most
_BLOCK_NODES = 32768


def _walking(theta: float) -> tuple[float, float, float]:
    """``(along, across, sign)`` of the lines at ``theta``.

    A line walks x when ``|cos| >= |sin|`` (``along = cos``, ``across =
    sin``) and y otherwise (``along = sin``, ``across = cos``); it meets the
    column at ``w`` at the cross position ``sign * p / along + w * across /
    along``, with ``sign = 1`` walking x and ``-1`` walking y.
    """
    c, s = np.cos(theta), np.sin(theta)
    return (c, s, 1.0) if abs(c) >= abs(s) else (s, c, -1.0)


def forward(
    f: TensorField2D,
    num_p: int = 257,
    ntheta: int = 128,
    pmax: float | None = None,
    t_step: None = None,
) -> Sinogram:
    """Ray transform of ``f`` on a ``(p, theta)`` grid.

    Parameters
    ----------
    f : TensorField2D
        Source field, decayed at the grid boundary.
    num_p, ntheta : int
        Offset and angle sample counts (``ntheta`` even), Python or NumPy
        integers (``bool`` is not).
    pmax : float, optional
        Offset range bound.  Defaults to the grid radius; values below it are
        rejected because such lines would be truncated inside the support,
        and so are non-finite values.
    t_step : None
        Not settable; any other value is rejected.  Each line is sampled at
        the grid's own columns, ``h`` apart, with weight
        ``h / max(|cos theta|, |sin theta|)``, the step along the line
        between them.

    Each component is prefiltered once per call across the columns of
    either walking axis, and an angle combines those rows with its trig
    weights.  The line samples are one sparse operator per group of angles
    that cross the same nodes (``theta``, ``pi/2 - theta``, ``pi/2 + theta``
    and ``pi - theta``): for every (line, column) node it holds the four
    B-spline weights and the flat indices of their taps in the rows (zero
    weights off the grid).  At ``ntheta = 128`` that is 17 operators for the
    64 angles below ``pi``.  Those ``ntheta // 2`` angles are projected; the
    rest are their mirror ``(-1)^m psi(-p, theta)``, so the output
    satisfies the parity exactly.  Every argument is validated before any
    prefilter or projection, and before ``scipy.ndimage`` and
    ``scipy.sparse`` are imported at the first call.

    The prefilter and the blocks of lines are split over up to
    ``min(CPUs available, 4)`` threads.  They share each group's rows (four
    arrays of ``(n + 1)(n + 3)`` floats, combined a member per thread), and
    each refills its own operator for its blocks (four weights and indices
    per node, at most ``32768`` nodes a block): 3.7 MB together at desk
    scale on two threads.
    The output is byte-identical for any thread count.  An error on any
    thread is raised here, after every thread has stopped.
    """
    grid = f.grid
    _check_integer(num_p, "num_p")
    _check_integer(ntheta, "ntheta")
    # t_step is kept only because the benchmark tracer reads it by name
    if t_step is not None:
        raise ValueError(f"t_step is not settable (lines walk the grid columns), got {t_step!r}")
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

    # imported here, after every check, rather than with the package:
    # commands that never project do not pay for it
    from scipy import ndimage

    ps = _p_axis(pmax, num_p)
    h = grid.spacing
    radius = grid.radius
    n = grid.n
    m = f.m
    width = n + 3  # a padded row: one mirrored coefficient before, two after

    # each component's 1D spline coefficients across the columns of either
    # walking axis (walking x they run across y, walking y across x), one row
    # per column, padded by one mirrored coefficient before and two after:
    # the taps ``mode="constant"`` reads next to the edges; the threads fill
    # them first
    sources = (f.components, f.components.transpose(0, 2, 1))
    walking = [np.empty((m + 1, n, width)) for _ in sources]
    powers = np.arange(m + 1)
    weights = tensor_weights(m)

    def trig(j: int) -> np.ndarray:
        theta = 2.0 * np.pi * j / ntheta
        return weights * np.cos(theta) ** (m - powers) * np.sin(theta) ** powers

    # each group's operator holds the nodes of its first angle: walking x,
    # the line meets column x_k at y = p/c + x_k s/c; walking y, at
    # x = -p/s + y_k c/s.  Another member, walking its own axis, meets them
    # in reverse line order when its sign / along differs in sign, and in
    # mirrored column order (its column n - k at the first angle's k) when
    # its across / along does.  The members that are not mirrored come first.
    groups = _angle_groups(ntheta)
    geometry = []
    for group in groups:
        along, across, sign = _walking(2.0 * np.pi * group[0] / ntheta)
        members = []
        for j in group:
            along_j, across_j, sign_j = _walking(2.0 * np.pi * j / ntheta)
            mirrored = across * along * across_j * along_j < 0
            reverse = sign * along * sign_j * along_j < 0
            stack = walking[0 if sign_j > 0 else 1].reshape(m + 1, -1)
            members.append((mirrored, j, reverse, stack))
        members.sort(key=lambda member: member[:2])
        unmirrored = sum(not mirrored for mirrored, *_ in members)
        geometry.append((along, across, sign * ps, members, unmirrored))
    # x_k = -R + k h for k <= n: column n (x = R) is outside the grid, and
    # -x_k is x_(n - k)
    walk = -radius + h * np.arange(n + 1)
    starts = width * np.arange(n + 1)  # column k's padded row starts at k (n + 3)
    # a mirrored member reads at column n - k the taps the others read at k
    to_mirror = (width * (n - 2 * np.arange(n + 1))).astype(np.int32)
    # as many blocks of lines for every thread, of at most _BLOCK_NODES nodes
    workers = _workers.worker_count(num_p)
    blocks = workers * -(-num_p * (n + 1) // (workers * _BLOCK_NODES))
    lines = -(-num_p // blocks)
    first = np.empty((num_p, ntheta // 2))

    def project(indices: range, barrier, operator) -> None:
        # fills first[:, j] for the angles j of every group, a block of lines
        # b in indices at a time, refilling the operator's data and indices
        # in place; runs on worker threads, so it calls numpy and scipy only
        # (and the private _cubic_taps and _node_taps), never a traced
        # function.

        # the prefilter: walking axis k // (m + 1) and component k % (m + 1)
        # on the thread with block k, then every thread waits for all of them
        for k in range(indices.start, 2 * (m + 1), indices.step):
            axis, component = divmod(k, m + 1)
            padded = walking[axis][component]
            ndimage.spline_filter1d(
                sources[axis][component], order=3, mode="constant", output=padded[:, 1 : n + 1]
            )
            # padded as np.pad's "reflect" pads: x_1 before, x_(n-2) and
            # x_(n-3) after
            padded[:, 0] = padded[:, 2]
            padded[:, n + 1] = padded[:, n - 1]
            padded[:, n + 2] = padded[:, n - 2]
        barrier.wait()

        for along, across, offsets, members, unmirrored in geometry:
            # at a grid column the spline's weights along the walking axis
            # (1/6, 4/6, 1/6) undo that axis's prefilter: an angle's rows are
            # the rows above, combined with its weights.  Member a is
            # combined by the thread with block a, then every thread waits
            # for all the rows
            for a in range(indices.start, len(members), indices.step):
                _, j, _, stack = members[a]
                np.dot(trig(j), stack, out=rows[a][:n].reshape(-1))
            barrier.wait()

            # cross-axis position of every (line, column) node, a block of
            # lines at a time
            cross = (walk * across / along + radius) / h
            weight = h / abs(along)
            for b in indices:
                # the last block ends at the last line: the lines it repeats
                # come out the same
                first_line = min(b * lines, num_p - lines)
                block = slice(first_line, first_line + lines)
                _node_taps(operator, np.add.outer(offsets[block] / (along * h), cross), starts, n)
                for a, ((_, j, reverse, _), row) in enumerate(zip(members, rows)):
                    if a == unmirrored:
                        taps = operator.indices.reshape(-1, n + 1)
                        taps += to_mirror
                    out = first[::-1] if reverse else first
                    samples = (operator @ row.reshape(-1)).reshape(4, lines).sum(axis=0)
                    out[block, j] = weight * samples
            # the next group's rows overwrite these
            barrier.wait()

    # the threads share a group's rows, four separate arrays (one block of
    # four would be a single 2.1 MB chunk: freed, it raises the allocator's
    # threshold for mapping fresh memory, and later large temporaries stay
    # on the heap), and each has its own operator.  All stay referenced
    # until the call returns: freed before the sinogram below is built, they
    # would leave their space to its samples, which outlive the call and
    # keep the heap from shrinking (a desk-scale analysis then peaks ~3 MB
    # higher).  Row n, x = R, stays zero.
    rows = [np.zeros((n + 1, width)) for _ in range(max(map(len, groups)))]
    operators = []

    def new_operator() -> tuple:
        # a row per tap and line, one entry per column
        operators.append(_refillable_operator(4 * lines, n + 1, (n + 1) * width))
        return (operators[-1],)

    _workers.run_in_lockstep(project, blocks, new_operator)

    # psi(-p, theta + pi) = (-1)^m psi(p, theta), and ps[::-1] == -ps exactly;
    # 0.0 - x rather than -x keeps the zeros unsigned, as projecting gives them
    mirror = first[::-1] if m % 2 == 0 else 0.0 - first[::-1]
    samples = np.concatenate([first, mirror], axis=1)
    return Sinogram(m=m, pmax=pmax, samples=samples)


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
