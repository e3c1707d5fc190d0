"""Inversion of the ray transform on solenoidal fields, and range checks.

The inversion runs entirely through the slice identity.  Under the
``"lemma"`` transform convention, range data satisfies

    psihat(q, theta) = (-1)^m * a(q, theta + pi/2)    for q > 0,

where ``a`` is the scalar amplitude of the solenoidal spectrum
``fhat = a * eta^(tensor m)``.  So the amplitude is read off the transformed
sinogram, rotated a quarter turn, and handed to the spectral synthesizer —
no per-component division by trigonometric factors, hence no singularities.
A second route assembles the last component directly from the coefficient
form of the identity, ``(fhat_m)_l = (-i)^l (tilde psi)hat_l``; agreement of
the two routes on ``f_m`` is a nontrivial consistency check.

Moment conditions: if ``psi`` is range data of rank ``m``, the offset moment
``mu_r(theta) = integral(psi(p, theta) p^r dp)`` is a trigonometric
polynomial with harmonics ``|l| <= r + m`` and ``l = r + m (mod 2)`` only.
:func:`check_moment_conditions` measures the energy fraction in forbidden
harmonics.  Moments that vanish identically (common for centered symmetric
fields) satisfy the condition trivially; they are detected against the
absolute-moment scale and reported as degenerate rather than dividing noise
by noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._workers import run_in_lockstep
from .fields import TensorField2D, _inverse_half, _synthesize_half
from .grids import CartesianGrid, _check_integer, angular_coefficient_matrix
from .ray import Sinogram, _offset_weights, parity_residual
from .slices import (
    _convention_constant, _folded_halves, _p_kernel, _p_kernel_width, _tilde_table,
)

__all__ = [
    "MomentOrder",
    "MomentReport",
    "RangeDataWarning",
    "check_moment_conditions",
    "invert",
    "invert_coefficient_route",
]

# Moments whose total energy falls below (this * absolute-moment scale)^2 are
# indistinguishable from zero at quadrature precision and pass trivially.
_DEGENERATE_REL = 1e-3

# Dual-grid radii transformed at once by the inversion: bounds its working
# memory (a radii x offsets kernel and the block's harmonics) at any n.
_RADII_PER_BLOCK = 512


class RangeDataWarning(UserWarning):
    """Input sinogram violates a range precondition; inversion is best-effort."""


@dataclass(frozen=True)
class MomentOrder:
    """Harmonic content of one offset moment ``mu_r``."""

    order: int
    magnitudes: np.ndarray
    allowed: np.ndarray
    forbidden_fraction: float
    degenerate: bool
    passed: bool


@dataclass(frozen=True)
class MomentReport:
    """Moment-condition verdicts for orders ``0 .. rmax``."""

    m: int
    rmax: int
    tol: float
    orders: tuple[MomentOrder, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.orders)

    def to_dict(self) -> list[dict]:
        return [
            {"r": o.order, "forbidden_fraction": o.forbidden_fraction, "pass": o.passed}
            for o in self.orders
        ]


def check_moment_conditions(psi: Sinogram, rmax: int, tol: float = 1e-5) -> MomentReport:
    """Check that offset moments contain only admissible harmonics.

    For each ``r <= rmax`` the moment ``mu_r`` is computed by trapezoid
    quadrature and expanded in angular harmonics; the forbidden-harmonic
    energy fraction must stay below ``tol``.  An order fails fast with
    ``ValueError`` when ``p^r psi`` no longer decays at the offset boundary
    (boundary rows above ``1e-8`` of the absolute moment).
    """
    _check_integer(rmax, "rmax")
    if rmax < 0:
        raise ValueError(f"rmax must be >= 0, got {rmax}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    ps = psi.p_axis()
    w = _offset_weights(psi)
    lmax = psi.ntheta // 2 - 1
    ls = np.arange(-lmax, lmax + 1)

    orders = []
    for r in range(rmax + 1):
        weighted = w * ps**r
        abs_moment = np.abs(weighted[:, None] * psi.samples).sum(axis=0)
        scale = float(abs_moment.max())
        boundary = (
            np.abs(weighted[0] * psi.samples[0]) + np.abs(weighted[-1] * psi.samples[-1])
        ).max()
        if scale > 0.0 and boundary > 1e-8 * scale:
            raise ValueError(
                f"moment of order {r} does not decay at |p| = pmax "
                f"(boundary contribution {boundary / scale:.3e} of the absolute moment); "
                "increase pmax"
            )
        mu = weighted @ psi.samples
        coeffs = angular_coefficient_matrix(mu[None, :], lmax)[0]
        magnitudes = np.abs(coeffs)
        allowed = (np.abs(ls) <= r + psi.m) & ((ls - (r + psi.m)) % 2 == 0)
        total = float((magnitudes**2).sum())
        degenerate = total <= (_DEGENERATE_REL * scale) ** 2
        if degenerate:
            fraction = 0.0
        else:
            fraction = float((magnitudes[~allowed] ** 2).sum() / max(total, 1e-24))
        orders.append(
            MomentOrder(
                order=r,
                magnitudes=magnitudes,
                allowed=allowed,
                forbidden_fraction=fraction,
                degenerate=degenerate,
                passed=degenerate or fraction < tol,
            )
        )
    return MomentReport(m=psi.m, rmax=rmax, tol=tol, orders=tuple(orders))


def _quarter_turn_series(psi: Sinogram, grid: CartesianGrid, power: int) -> np.ndarray:
    """``g(|y|, arg(y) - pi/2)`` on the half plane of the dual grid of ``grid``.

    ``g(q, theta) = sin^power(theta) * psihat(q, theta)``, with ``psihat`` the
    lemma-calculus p-transform of ``psi``.  ``g`` is evaluated at the grid's
    own distinct radii, below ``min(dual.radius - dual.spacing, pi/dp)``
    (zero beyond), and turned through its angular series:
    ``sum_l (-i)^l g_l(|y|) e^{i l arg y}``, where ``(-i)^l e^{i l phi}`` is
    ``e^{i l (phi - pi/2)}``.  The ``y = 0`` point keeps only ``l = 0``.

    The series is the spectrum of a real field, ``s(-y) = (-1)^(m + power)
    conj(s(y))``: each coefficient ``c_l = (-i)^l g_l`` is averaged with its
    mirror so that ``c_(-l) = (-1)^(l + m + power) conj(c_l)``, so the pair
    ``(l, -l)`` sums to ``t + sign_l conj(t)`` with ``t = c_l e^{i l arg y}``,
    which is ``2 Re t`` or ``2i Im t``.  So the result is the half plane
    ``np.fft.irfft2`` reads, shape ``(n, n/2 + 1)``: rows are ``kx`` in fft
    order, columns ``ky = 0 .. n/2``.  The series is evaluated at ``ky > 0``
    and at ``ky = 0, kx >= 0``; the rest of the ``ky = 0`` column is written
    as ``(-1)^(m + power)`` times the conjugate at ``-kx``, so the symmetry
    there is bitwise.  The Nyquist column lies beyond the band and is zero.

    The angular DFT, the ``sin^power`` stencil, the ``(-i)^l`` turn and the
    mirror average act along theta, the real p-kernels ``cos(q p)`` and
    ``sin(q p)`` along p, so the two commute.  The theta side runs once, on
    the p-transform's halves (``slices._folded_halves``): the even half and
    ``i`` times the odd half.  For a real sinogram the folded coefficients
    of the even half vanish where ``sign_l = -1`` and those of the odd half
    where ``sign_l = +1``, so harmonic ``l`` comes from one half alone: the
    even half carries the real part of the series, the odd half its
    imaginary part, each with harmonics of one parity only.  Per block of
    radii that leaves one real product of each half's kernel (the real and
    imaginary parts of ``slices._p_kernel``) with its table, and a Horner
    sum in ``e^{2i arg y}``.

    Work runs in blocks of a fixed number of radii, so memory stays at one
    block's worth per thread.  The blocks are dealt round-robin to up to
    ``min(CPUs available, 4, blocks)`` threads
    (:func:`~tensorray._workers.run_in_lockstep`); each block is computed
    the same way on any thread and writes only the points at its radii, so
    the result is byte-identical whatever the thread count.
    """
    dual = grid.dual()
    n, half = grid.n, grid.n // 2
    width = half + 1  # columns ky = 0 .. n/2 of the half plane
    # the points evaluated: ky > 0, and ky = 0 with kx >= 0 (the rest of the
    # ky = 0 column is their mirror), as flat indices of the half plane
    kx_of_row = np.arange(n)
    kx_of_row[half:] -= n  # fft order
    evaluated = np.ones((n, width), dtype=bool)
    evaluated[half:, 0] = False
    points = np.flatnonzero(evaluated)
    ksq = (kx_of_row[:, None] ** 2 + np.arange(width) ** 2).ravel()[points]
    # 16-bit squared radii up to n = 362 sort by radix; bincount gives the
    # distinct radii and each point's index among them
    ksq = ksq.astype(np.min_scalar_type(2 * half**2))
    order = np.argsort(ksq, kind="stable")
    points, ksq = points[order], ksq[order]
    counts = np.bincount(ksq)
    distinct = np.flatnonzero(counts)
    radius_index = (np.cumsum(counts > 0) - 1)[ksq]
    del evaluated, ksq, order, counts
    # band edge in units of the dual spacing; strict, since a radius on it
    # reaches the last row of the dual grid
    edge = min(half - 1, np.pi / psi.dp / dual.spacing)
    in_band = int(np.searchsorted(distinct, edge**2))
    bounds = np.append(np.arange(0, in_band, _RADII_PER_BLOCK), in_band)
    radii = np.sqrt(distinct[:in_band]) * dual.spacing
    starts = np.searchsorted(radius_index, bounds)

    # the theta side, once: the folded halves through DFT, stencil, turn and
    # mirror average; i times the odd half, whose kernel sin(q p) is real
    even, odd = _folded_halves(psi)
    coeffs = _tilde_table(np.concatenate([even, 1j * odd]), power)
    lm = (coeffs.shape[0] - 1) // 2
    coeffs *= (-1.0j) ** np.arange(-lm, lm + 1)[:, None]
    signs = (-1.0) ** (np.arange(lm + 1) + psi.m + power)
    coeffs = 0.5 * (coeffs[lm:] + signs[:, None] * np.conj(coeffs[lm::-1]))
    coeffs[1:] *= 2.0  # t + sign_l conj(t) is twice a part of t
    # [p, l] tables as float pairs, for real products with the kernels
    parity = (psi.m + power) % 2  # of the harmonics with sign_l = +1
    tables = (
        np.ascontiguousarray(coeffs[parity::2, : even.shape[0]].T).view(float),
        np.ascontiguousarray(coeffs[1 - parity :: 2, even.shape[0] :].T).view(float),
    )
    odd_offsets = even.shape[0] - odd.shape[0]  # the odd half has no p = 0 row

    def scratch() -> tuple[np.ndarray, ...]:
        # one block's largest arrays, for one worker: the p-kernel table (in
        # whole rows of the fine table) and a flat buffer for either half's
        # product with its table.  Allocated on the calling thread, so a
        # worker thread's heap keeps none of them between calls.
        size = min(_RADII_PER_BLOCK, in_band)
        return (
            np.empty((size, _p_kernel_width(psi)), dtype=complex),
            np.empty(size * max(table.shape[1] for table in tables)),
        )

    out = np.zeros(n * width, dtype=complex)

    def transform(blocks: range, _barrier, table_buf: np.ndarray, product_buf: np.ndarray) -> None:
        # fills the points of each block of radii; runs on worker threads, so
        # it calls numpy only (and the private _p_kernel), never a traced
        # function.  Blocks write disjoint indices of ``out``: a point and
        # its mirror share a radius.
        for k in blocks:
            b0, b1, first, last = bounds[k], bounds[k + 1], starts[k], starts[k + 1]
            size = b1 - b0
            exps = _p_kernel(psi, radii[b0:b1], out=table_buf[:size])
            pts = points[first:last]
            local = radius_index[first:last] - b0
            kx, ky = np.divmod(pts, width)
            kx = kx_of_row[kx]
            # e^{i arg y}; it reads 0 at y = 0, which leaves only l = 0 there
            z = (kx + 1j * ky) / np.sqrt(np.maximum(kx**2 + ky**2, 1))
            w = z * z
            parts = []
            trigs = (exps.real, exps.imag[:, odd_offsets:])
            for table, trig, lowest in zip(tables, trigs, (parity, 1 - parity)):
                # np.dot copies the strided kernel part to hand it to BLAS
                product = product_buf[: size * table.shape[1]].reshape(size, -1)
                by_l = np.dot(trig, table, out=product).view(complex)  # [radius, l]
                acc = np.zeros(kx.size, dtype=complex)
                for l in range(by_l.shape[1] - 1, -1, -1):
                    acc *= w
                    acc += by_l[local, l]
                if lowest:
                    acc *= z
                parts.append(acc)
            values = parts[0].real + 1j * parts[1].imag
            # the ky = 0 column holds -y too: row n - kx (y = 0 is written last)
            axis = ky == 0
            out[(n - kx[axis]) % n * width] = signs[0] * np.conj(values[axis])
            out[pts] = values

    run_in_lockstep(transform, bounds.size - 1, scratch)
    return out.reshape(n, width)


def _range_warnings(psi: Sinogram) -> None:
    parity = parity_residual(psi)
    if parity > 1e-6:
        warnings.warn(
            f"sinogram parity residual {parity:.3e} exceeds 1e-06; "
            "input is not range data, inverting best-effort",
            RangeDataWarning,
            stacklevel=3,
        )
    try:
        report = check_moment_conditions(psi, rmax=2, tol=1e-2)
    except ValueError as exc:
        warnings.warn(
            f"moment precheck not evaluable ({exc}); inverting best-effort",
            RangeDataWarning,
            stacklevel=3,
        )
        return
    if not report.passed:
        worst = max(o.forbidden_fraction for o in report.orders)
        warnings.warn(
            f"moment conditions violated (worst forbidden fraction {worst:.3e}); "
            "input is not range data, inverting best-effort",
            RangeDataWarning,
            stacklevel=3,
        )


def invert(
    psi: Sinogram,
    grid: CartesianGrid,
    convention: str = "lemma",
    check_range: bool = True,
) -> TensorField2D:
    """Reconstruct the solenoidal field whose ray transform is ``psi``.

    The amplitude ``a(q, phi) = (-1)^m * psihat(q, phi - pi/2)`` (lemma
    calculus) is evaluated at the exact radii of the dual grid of ``grid``
    and synthesized into a field, one ``np.fft.irfft2`` per component from
    the half plane of :func:`_quarter_turn_series`, which is the amplitude
    of a real field by construction.  On range data this recovers the
    solenoidal part of the original field; on arbitrary parity-correct data
    it still produces the field whose transform best matches, after warning
    via :class:`RangeDataWarning` when ``check_range`` is set.

    ``convention`` (``"lemma"`` or ``"fst"``) is validated only: ``psi`` is a
    sinogram, which carries no transform convention, so the reconstruction
    does not depend on it.
    """
    _convention_constant(convention)
    if check_range:
        _range_warnings(psi)
    amp = (-1.0) ** psi.m * _quarter_turn_series(psi, grid, 0)
    return _synthesize_half(amp, psi.m, grid)


def invert_coefficient_route(
    psi: Sinogram,
    grid: CartesianGrid,
    convention: str = "lemma",
) -> np.ndarray:
    """Reconstruct the last component ``f_m`` from the coefficient identity.

    Assembles ``fhat_m(z) = sum_l (-i)^l (tilde psi)hat_l(|z|) e^{i l arg z}``
    at the exact radii of the dual grid, on the half plane ``ky >= 0``, and
    inverse transforms it with one ``np.fft.irfft2``; must agree with
    component ``m`` of :func:`invert` on range data.  Returns the scalar
    grid function.  ``convention`` is validated only, as in :func:`invert`.
    """
    _convention_constant(convention)
    return _inverse_half(_quarter_turn_series(psi, grid, psi.m), grid)
