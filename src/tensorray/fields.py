"""Rank-m symmetric tensor fields on 2D grids and their solenoidal algebra.

A rank-``m`` symmetric tensor field in two dimensions is determined by the
``m + 1`` scalar components ``f_j`` carrying ``m - j`` indices equal to 1 and
``j`` indices equal to 2.  In that representation:

* ``f`` is divergence free (solenoidal) iff
  ``d(f_j)/dx + d(f_{j+1})/dy = 0`` for ``j = 0 .. m-1``;
* in frequency space the solenoidal constraint forces the spectrum onto a
  single scalar degree of freedom, ``fhat(y) = a(y) * eta(y)^(tensor m)``
  with ``eta(y) = (-y2, y1)/|y|`` the unit vector orthogonal to ``y``, i.e.
  component ``j`` equals ``a * (-sin phi)^(m-j) * (cos phi)^j`` in polar
  frequency coordinates.

:func:`synthesize_solenoidal` builds fields from an amplitude ``a``,
:func:`solenoidal_project` is the frequency-wise orthogonal projection onto
that line, and :func:`gaussian_test_field` provides deterministic, rapidly
decaying test fields of each kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .grids import (
    CartesianGrid,
    PolarFrequencyGrid,
    fourier_transform_2d,
    pad_samples,
    polar_sample,
)

__all__ = [
    "TensorField2D",
    "tensor_weights",
    "field_l2_norm",
    "relative_l2_error",
    "divergence_residual",
    "relative_divergence_residual",
    "require_solenoidal",
    "solenoidal_project",
    "synthesize_solenoidal",
    "gaussian_test_field",
    "random_solenoidal_field",
    "symmetrized_gradient",
    "component_spectrum_polar",
]

# Realness tolerance when collapsing inverse transforms of nominally
# Hermitian spectra to float components.
_IMAG_TOL = 1e-6

# Relative divergence residual above which a field counts as not solenoidal.
_SOLENOIDAL_TOL = 1e-6


@dataclass(frozen=True)
class TensorField2D:
    """Rank-``m`` symmetric tensor field sampled on a Cartesian grid.

    ``components[j]`` holds the scalar component with ``m - j`` indices equal
    to 1 and ``j`` indices equal to 2.  Component arrays are read-only.
    """

    m: int
    grid: CartesianGrid
    components: np.ndarray

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"tensor rank must be >= 0, got {self.m}")
        comps = np.asarray(self.components, dtype=float)
        expected = (self.m + 1, self.grid.n, self.grid.n)
        if comps.shape != expected:
            raise ValueError(f"expected components of shape {expected}, got {comps.shape}")
        if not np.isfinite(comps).all():
            raise ValueError("tensor field contains non-finite samples")
        comps = comps.copy()
        comps.flags.writeable = False
        object.__setattr__(self, "components", comps)

    def component(self, j: int) -> np.ndarray:
        if not 0 <= j <= self.m:
            raise IndexError(f"component index {j} outside 0..{self.m}")
        return self.components[j]


def tensor_weights(m: int) -> np.ndarray:
    """Multiplicities ``C(m, j)`` of the components in the tensor inner product."""
    return np.array([comb(m, j) for j in range(m + 1)], dtype=float)


def field_l2_norm(f: TensorField2D) -> float:
    """Grid L2 norm with the symmetric-tensor inner product weights."""
    w = tensor_weights(f.m)
    h = f.grid.spacing
    return float(np.sqrt(h * h * np.sum(w[:, None, None] * f.components**2)))


def relative_l2_error(f: TensorField2D, ref: TensorField2D) -> float:
    """``||f - ref|| / ||ref||`` in the weighted grid L2 norm."""
    if f.m != ref.m or f.grid != ref.grid:
        raise ValueError("fields must share rank and grid")
    w = tensor_weights(f.m)
    num = np.sqrt(np.sum(w[:, None, None] * (f.components - ref.components) ** 2))
    den = np.sqrt(np.sum(w[:, None, None] * ref.components**2))
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


def _frequency_mesh(grid: CartesianGrid) -> tuple[np.ndarray, np.ndarray]:
    # fft-ordered frequencies, matching np.fft layouts
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    return np.meshgrid(k, k, indexing="ij")


def divergence_residual(f: TensorField2D) -> np.ndarray:
    """Spectral-derivative divergence residuals, shape ``(m, n, n)``.

    ``residual[j] = d(f_j)/dx + d(f_{j+1})/dy`` for ``j = 0 .. m-1``; all of
    them vanish exactly when the field is solenoidal.
    """
    if f.m == 0:
        raise ValueError("scalar fields are vacuously solenoidal; no divergence to check")
    kx, ky = _frequency_mesh(f.grid)
    specs = np.fft.fft2(f.components, axes=(1, 2))
    res = np.empty((f.m, f.grid.n, f.grid.n))
    for j in range(f.m):
        dx = np.fft.ifft2(1j * kx * specs[j])
        dy = np.fft.ifft2(1j * ky * specs[j + 1])
        res[j] = (dx + dy).real
    return res


def relative_divergence_residual(f: TensorField2D) -> float:
    """Largest component-wise residual L2 norm relative to the field norm."""
    res = divergence_residual(f)
    h = f.grid.spacing
    norms = np.sqrt(h * h * np.sum(res**2, axis=(1, 2)))
    scale = field_l2_norm(f)
    if scale == 0.0:
        return 0.0
    return float(norms.max() / scale)


def require_solenoidal(f: TensorField2D) -> None:
    """Reject fields whose relative divergence residual exceeds ``1e-6``.

    The slice identities, the field norm and the Reshetnyak isometry hold
    only on solenoidal fields.  Scalar fields are vacuously solenoidal.
    """
    if f.m == 0:
        return
    residual = relative_divergence_residual(f)
    if residual > _SOLENOIDAL_TOL:
        raise ValueError(
            f"field is not solenoidal (relative divergence residual "
            f"{residual:.3e} > {_SOLENOIDAL_TOL:g}); apply solenoidal_project first"
        )


def _eta_monomials(grid: CartesianGrid, m: int) -> np.ndarray:
    """``eta1^(m-j) * eta2^j`` on the fft-ordered frequency mesh, 0 at y = 0."""
    kx, ky = _frequency_mesh(grid)
    rad = np.hypot(kx, ky)
    with np.errstate(invalid="ignore", divide="ignore"):
        e1 = np.where(rad > 0, -ky / rad, 0.0)
        e2 = np.where(rad > 0, kx / rad, 0.0)
    return np.array([e1 ** (m - j) * e2**j for j in range(m + 1)])


def solenoidal_project(f: TensorField2D) -> TensorField2D:
    """Frequency-wise orthogonal projection onto solenoidal fields.

    At every nonzero frequency the spectrum is replaced by its component
    along the unit tensor ``eta^(tensor m)``; the zero-frequency value is
    kept unchanged (the direction ``eta`` is undefined there and the single
    bin carries no weight in the norms used downstream).  The map is linear,
    idempotent, and non-expanding in the weighted grid L2 norm.
    """
    if f.m == 0:
        return f
    mono = _eta_monomials(f.grid, f.m)
    # one n x n spectrum at a time: accumulate <spec, eta^m>, then project
    inner = np.zeros(mono.shape[1:], dtype=complex)
    dc = np.empty(f.m + 1, dtype=complex)
    for j, (weight, comp) in enumerate(zip(tensor_weights(f.m), f.components)):
        spec = np.fft.fft2(comp)
        dc[j] = spec[0, 0]  # fft order: DC sits at index (0, 0)
        spec *= weight
        spec *= mono[j]
        inner += spec
    comps = np.empty_like(f.components)
    for j in range(f.m + 1):
        spec = inner * mono[j]
        spec[0, 0] = dc[j]
        comps[j] = np.fft.ifft2(spec).real
    return TensorField2D(m=f.m, grid=f.grid, components=comps)


def synthesize_solenoidal(amplitude, m: int, grid: CartesianGrid) -> TensorField2D:
    """Build the solenoidal field with spectrum ``a(y) * eta(y)^(tensor m)``.

    Parameters
    ----------
    amplitude : ndarray or callable
        Either samples of ``a`` on ``grid.dual()`` (shape ``(n, n)``, axis 0
        the x-frequency), or a callable ``a(qx, qy)`` evaluated there.  The
        amplitude must decay at the dual-grid boundary and must satisfy the
        conjugate symmetry ``a(-y) = (-1)^m * conj(a(y))`` of real fields.
    m : int
        Tensor rank.  For ``m = 0`` the amplitude is the spectrum itself.
    grid : CartesianGrid
        Spatial grid of the returned field.

    Notes
    -----
    The value at ``y = 0`` is taken as ``a(0)`` for ``m = 0`` and as ``0``
    for ``m >= 1`` where the direction ``eta`` is undefined.  Amplitudes that
    vanish like ``q^m`` near ``q = 0`` give smooth spectra and hence rapidly
    decaying fields.
    """
    dual = grid.dual()
    if callable(amplitude):
        qx, qy = dual.mesh()
        amp = np.asarray(amplitude(qx, qy), dtype=complex)
    else:
        amp = np.asarray(amplitude, dtype=complex)
    if amp.shape != (grid.n, grid.n):
        raise ValueError(f"expected amplitude of shape {(grid.n, grid.n)}, got {amp.shape}")
    if not np.isfinite(amp).all():
        raise ValueError("amplitude contains non-finite samples")
    peak = np.abs(amp).max()
    if peak > 0:
        edge = max(
            np.abs(amp[0, :]).max(),
            np.abs(amp[-1, :]).max(),
            np.abs(amp[:, 0]).max(),
            np.abs(amp[:, -1]).max(),
        )
        if edge > 1e-8 * peak:
            raise ValueError(
                "amplitude does not decay at the frequency-grid boundary "
                f"(edge/peak = {edge / peak:.3e}); the inverse transform would wrap"
            )

    amp_fft = np.fft.ifftshift(amp)  # to fft order
    mono = _eta_monomials(grid, m)
    dc = amp_fft[0, 0] if m == 0 else 0.0
    comps = np.empty((m + 1, grid.n, grid.n))
    scale = 2.0 * np.pi / (grid.spacing ** 2)
    for j in range(m + 1):
        spec_j = amp_fft * mono[j]
        if m == 0:
            spec_j[0, 0] = dc
        out = np.fft.fftshift(np.fft.ifft2(spec_j)) * scale
        imag = np.abs(out.imag).max()
        real_scale = max(np.abs(out.real).max(), 1e-300)
        if imag > _IMAG_TOL * real_scale:
            raise ValueError(
                "amplitude violates the conjugate symmetry of real fields "
                f"(imaginary residue {imag / real_scale:.3e} in component {j})"
            )
        comps[j] = out.real
    return TensorField2D(m=m, grid=grid, components=comps)


def symmetrized_gradient(v: TensorField2D) -> TensorField2D:
    """Symmetrized spectral derivative: rank ``m`` field from a rank ``m-1`` one.

    Component ``j`` of the result is
    ``((m - j) * d(v_j)/dx + j * d(v_{j-1})/dy) / m``.  Fields of this form
    (with decaying ``v``) integrate to zero along every line, so they span
    the kernel of the forward ray transform.
    """
    m = v.m + 1
    kx, ky = _frequency_mesh(v.grid)
    specs = np.fft.fft2(v.components, axes=(1, 2))
    comps = np.empty((m + 1, v.grid.n, v.grid.n))
    for j in range(m + 1):
        acc = np.zeros_like(specs[0])
        if j <= m - 1:
            acc += (m - j) * 1j * kx * specs[j]
        if j >= 1:
            acc += j * 1j * ky * specs[j - 1]
        comps[j] = np.fft.ifft2(acc / m).real
    return TensorField2D(m=m, grid=v.grid, components=comps)


def gaussian_test_field(m: int, kind: str, grid: CartesianGrid, width: float = 1.0) -> TensorField2D:
    """Deterministic Gaussian-decay test field of the requested kind.

    Kinds
    -----
    ``solenoidal``
        Divergence free.  ``m = 0``: the Gaussian ``G = exp(-|x|^2/(2w^2))``
        (scalar fields are vacuously solenoidal).  ``m = 1``: the rotated
        gradient ``(-dG/dy, dG/dx)``.  ``m = 2``: ``(G_yy, -G_xy, G_xx)``.
        Higher ranks are synthesized from the radial amplitude
        ``i^m * q^m * exp(-q^2 w^2 / 2)``.
    ``potential``
        Symmetrized gradient of a rank ``m-1`` Gaussian field; annihilated
        by the forward ray transform.  Not defined for ``m = 0``.
    ``generic``
        ``m = 0``: the Gaussian.  Otherwise the sum of the solenoidal and
        potential fields above, so both parts are present.
    """
    if m < 0:
        raise ValueError(f"tensor rank must be >= 0, got {m}")
    if width <= 0 or not np.isfinite(width):
        raise ValueError(f"width must be positive, got {width}")
    if grid.radius < 6.0 * width:
        raise ValueError(
            f"grid radius {grid.radius} is below 6 x width = {6.0 * width}; "
            "samples would not decay at the boundary"
        )
    if kind not in ("solenoidal", "potential", "generic"):
        raise ValueError(f"unknown kind {kind!r}")

    x, y = grid.mesh()
    u, v = x / width, y / width
    g = np.exp(-(u**2 + v**2) / 2.0)

    if m == 0:
        if kind == "potential":
            raise ValueError("potential fields require m >= 1 (no rank -1 fields to differentiate)")
        return TensorField2D(m=0, grid=grid, components=g[None, :, :])

    if kind == "generic":
        sol = gaussian_test_field(m, "solenoidal", grid, width)
        pot = gaussian_test_field(m, "potential", grid, width)
        return TensorField2D(m=m, grid=grid, components=sol.components + pot.components)

    if kind == "potential":
        # closed forms for the ranks used at desk scale keep the boundary
        # values at the bare Gaussian-tail level (spectral differentiation
        # would add periodic-wrap residue there)
        if m == 1:
            comps = np.array([-u * g / width, -v * g / width])
            return TensorField2D(m=1, grid=grid, components=comps)
        if m == 2:
            # symmetrized gradient of the rank-1 generic field
            # ((v - u) G / w, -(u + v) G / w)
            w2 = width**2
            comps = np.array(
                [
                    (u**2 - u * v - 1.0) * g / w2,
                    0.5 * (u**2 + 2.0 * u * v - v**2) * g / w2,
                    (u * v + v**2 - 1.0) * g / w2,
                ]
            )
            return TensorField2D(m=2, grid=grid, components=comps)
        lower = gaussian_test_field(m - 1, "generic", grid, width)
        return symmetrized_gradient(lower)

    # solenoidal
    if m == 1:
        comps = np.array([v * g / width, -u * g / width])
        return TensorField2D(m=1, grid=grid, components=comps)
    if m == 2:
        w2 = width**2
        comps = np.array(
            [(v**2 - 1.0) * g / w2, -u * v * g / w2, (u**2 - 1.0) * g / w2]
        )
        return TensorField2D(m=2, grid=grid, components=comps)

    def amplitude(qx, qy):
        q = np.hypot(qx, qy)
        return (1j**m) * (q * width) ** m * np.exp(-((q * width) ** 2) / 2.0)

    return synthesize_solenoidal(amplitude, m, grid)


def random_solenoidal_field(
    m: int,
    grid: CartesianGrid,
    seed: int,
    width: float = 1.0,
    max_harmonic: int = 3,
) -> TensorField2D:
    """Seeded random solenoidal field with a few angular harmonics.

    The amplitude is ``sum_l c_l (q w)^(m+|l|) exp(-(q w)^2 / 2) e^{i l phi}``
    over ``|l| <= max_harmonic``, with the coefficients drawn from ``seed``
    and paired so the field is real.  The ``q^(m+|l|)`` factors keep every
    spectrum component smooth at the origin, hence the field rapidly
    decaying.
    """
    if grid.radius < 6.0 * width:
        raise ValueError(
            f"grid radius {grid.radius} is below 6 x width = {6.0 * width}; "
            "samples would not decay at the boundary"
        )
    rng = np.random.default_rng(seed)
    coeffs: dict[int, complex] = {}
    for l in range(max_harmonic + 1):
        c = complex(rng.standard_normal(), rng.standard_normal())
        if l == 0:
            # realness pairs l with -l; the l = 0 coefficient pairs with itself
            c = 0.5 * (c + (-1.0) ** m * np.conj(c))
        coeffs[l] = c

    def amplitude(qx, qy):
        q = np.hypot(qx, qy)
        phi = np.arctan2(qy, qx)
        total = np.zeros_like(q, dtype=complex)
        for l, c in coeffs.items():
            rho = (q * width) ** (m + l) * np.exp(-((q * width) ** 2) / 2.0)
            total += c * rho * np.exp(1j * l * phi)
            if l > 0:
                total += (-1.0) ** (m + l) * np.conj(c) * rho * np.exp(-1j * l * phi)
        return total

    return synthesize_solenoidal(amplitude, m, grid)


def component_spectrum_polar(
    f: TensorField2D,
    j: int,
    pgrid: PolarFrequencyGrid,
    oversample: int = 2,
    angle_offset: float = 0.0,
) -> np.ndarray:
    """Polar samples ``fhat_j(q_k, phi_j + angle_offset)`` of one component.

    The spectrum is computed on an ``oversample`` times finer dual grid (by
    zero padding, valid for boundary-decayed fields) and then sampled with
    quintic splines (:func:`~tensorray.grids.polar_sample`).  At desk scale
    the default 2x grid keeps the error against the analytic Gaussian
    spectrum near 1e-7 of its peak, far below the slice-identity tolerances
    used downstream.  The spectrum must decay well inside the padded dual
    grid, whose half-width is the Nyquist frequency of the field grid.

    Components are real, so ``fhat_j(q, phi + pi) = conj(fhat_j(q, phi))``:
    only the first ``ntheta // 2`` angles (``ntheta`` is even) are sampled
    and the second half turn is their conjugate.
    """
    big, big_grid = pad_samples(f.component(j), f.grid, oversample)
    spec = fourier_transform_2d(big, big_grid)
    phis = pgrid.angular_nodes()[: pgrid.ntheta // 2] + angle_offset
    first = polar_sample(spec, big_grid.dual(), pgrid.radial_nodes(), phis)
    return np.concatenate([first, first.conj()], axis=1)
