"""Rank-m symmetric tensor fields on 2D grids and their solenoidal algebra.

A rank-``m`` symmetric tensor field in two dimensions is determined by the
``m + 1`` scalar components ``f_j`` carrying ``m - j`` indices equal to 1 and
``j`` indices equal to 2.  In that representation:

* ``f`` is divergence free (solenoidal) iff
  ``d(f_j)/dx + d(f_{j+1})/dy = 0`` for ``j = 0 .. m-1``, which
  :func:`require_solenoidal` checks on the spectra of these rows (Parseval);
* in frequency space the solenoidal constraint forces the spectrum onto a
  single scalar degree of freedom, ``fhat(y) = a(y) * eta(y)^(tensor m)``
  with ``eta(y) = (-y2, y1)/|y|`` the unit vector orthogonal to ``y``, i.e.
  component ``j`` equals ``a * (-sin phi)^(m-j) * (cos phi)^j`` in polar
  frequency coordinates.

:func:`_synthesize_solenoidal` builds fields from samples of an amplitude
``a``, and :func:`solenoidal_project` is the frequency-wise orthogonal
projection onto that line.  :func:`gaussian_test_field` provides
deterministic, rapidly decaying test fields of each kind in closed form:
every component is a Gaussian times a Hermite polynomial in ``(x/w, y/w)``,
one coefficient table per kind and rank, so their line integrals have
closed forms too.
:func:`random_solenoidal_field` is synthesized from its seeded amplitude, a
Gaussian times a polynomial in ``w (qx + i qy)`` and its conjugate.

Components are real, so every spectrum here is Hermitian and is formed only
on the half plane ``ky = 0 .. n/2`` of a real FFT (``np.fft.rfft2`` /
``np.fft.irfft2``, fft order): the gate, the projection and the synthesis
take no complex 2D transform.  The half plane's ``ky = 0`` and Nyquist
columns hold their own mirrors; what each function does on the Nyquist row
and column, where ``y`` and ``-y`` share a bin, is stated in its docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.polynomial import hermite_e

from .grids import (
    CartesianGrid,
    PolarFrequencyGrid,
    _angle_groups,
    _check_integer,
    _real_array,
    _sample_polar_window,
)

__all__ = [
    "TensorField2D",
    "tensor_weights",
    "field_l2_norm",
    "relative_l2_error",
    "relative_divergence_residual",
    "require_solenoidal",
    "solenoidal_project",
    "gaussian_test_field",
    "random_solenoidal_field",
    "component_spectrum_polar",
]

# Largest |a(-y) - (-1)^m conj(a(y))|, relative to the peak of |a|, that an
# amplitude may show and still count as the amplitude of a real field.
_SYMMETRY_TOL = 1e-6

# Relative divergence residual above which a field counts as not solenoidal.
_SOLENOIDAL_TOL = 1e-6

# Angular harmonics |l| <= this in the amplitude of random_solenoidal_field.
_RANDOM_MAX_HARMONIC = 3

# Narrowest generator width, in grid spacings (see _check_width).
_MIN_WIDTH_IN_SPACINGS = 2.5

# Edge-to-peak ratio a random field's amplitude may reach at the
# frequency-grid edge (see _check_width): half the 1e-8 that
# _synthesize_solenoidal accepts.
_RANDOM_EDGE_RATIO = 5e-9

# Zero padding of component_spectrum_polar (see its docstring).
_PAD = 2


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
        _check_integer(self.m, "tensor rank m")
        if self.m < 0:
            raise ValueError(f"tensor rank must be >= 0, got {self.m}")
        comps = _real_array(self.components, "TensorField2D components")
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


def _weighted_sum_sq(m: int, components) -> float:
    """``sum_j C(m, j) sum(c_j**2)``, one component at a time (no stacked temporaries)."""
    return sum(w * float(np.vdot(c, c)) for w, c in zip(tensor_weights(m), components))


def field_l2_norm(f: TensorField2D) -> float:
    """Grid L2 norm with the symmetric-tensor inner product weights."""
    h = f.grid.spacing
    return float(np.sqrt(h * h * _weighted_sum_sq(f.m, f.components)))


def relative_l2_error(f: TensorField2D, ref: TensorField2D) -> float:
    """``||f - ref|| / ||ref||`` in the weighted grid L2 norm."""
    if f.m != ref.m or f.grid != ref.grid:
        raise ValueError("fields must share rank and grid")
    diffs = (a - b for a, b in zip(f.components, ref.components))
    num = np.sqrt(_weighted_sum_sq(f.m, diffs))
    den = np.sqrt(_weighted_sum_sq(f.m, ref.components))
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


def _half_frequencies(grid: CartesianGrid) -> tuple[np.ndarray, np.ndarray]:
    """``kx`` and ``ky`` of a real FFT's half plane, as ``np.fft.rfft2`` lays it out.

    ``kx`` runs over every row in fft order; ``ky`` over the columns
    ``0 .. n/2``, the last of which is the Nyquist bin, at ``-n/2`` as in
    ``np.fft.fftfreq`` (and in the full plane of a complex FFT).
    """
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    return k, k[: grid.n // 2 + 1]


def _derivative_frequencies(grid: CartesianGrid) -> tuple[np.ndarray, np.ndarray]:
    """``kx`` and ``ky`` of a real field's derivatives on the half plane.

    The Nyquist row and column are their own ``-k``: a derivative there is
    not the transform of a real function, and the real part of a derivative
    taken over the whole plane drops it.  So ``kx`` is 0 on the Nyquist row
    and ``ky`` on the Nyquist column.
    """
    kx, ky = (k.copy() for k in _half_frequencies(grid))
    kx[grid.n // 2] = 0.0
    ky[-1] = 0.0
    return kx, ky


def relative_divergence_residual(f: TensorField2D) -> float:
    """Largest divergence-row L2 norm relative to the field norm.

    Row ``j < m`` is the spectral ``d(f_j)/dx + d(f_{j+1})/dy``, zero for
    solenoidal fields.  Its spectrum is ``i D_j``, ``D_j = kx S_j + ky
    S_{j+1}`` with ``S_j`` the real FFT of component ``j`` (the half plane
    ``ky = 0 .. n/2``), and ``kx`` dropped on the Nyquist row and ``ky`` on
    the Nyquist column, bins that are their own ``-k`` (see
    :func:`_derivative_frequencies`).  By Parseval the row's grid L2 norm is
    ``h * sqrt(sum_k w_ky |D_j(k)|^2) / n`` over the half plane, where a
    column ``0 < ky < n/2`` stands for itself and its mirror (``w = 2``) and
    the ``ky = 0`` and Nyquist columns hold their own mirrors (``w = 1``).
    It takes ``m + 1`` real forward transforms, two spectra at a time, and
    no inverse transform.
    """
    if f.m == 0:
        raise ValueError("scalar fields are vacuously solenoidal; no divergence to check")
    kx, ky = _derivative_frequencies(f.grid)
    weights = np.full(ky.size, 2.0)
    weights[[0, -1]] = 1.0
    spec = np.fft.rfft2(f.components[0])
    worst = 0.0
    for comp in f.components[1:]:
        nxt = np.fft.rfft2(comp)
        row = kx[:, None] * spec + ky * nxt
        power = row.real**2
        power += row.imag**2
        worst = max(worst, float(weights @ power.sum(axis=0)))
        spec = nxt
    scale = field_l2_norm(f)
    if scale == 0.0:
        return 0.0
    return float(f.grid.spacing * np.sqrt(worst) / f.grid.n / scale)


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
    """``eta1^(m-j) * eta2^j`` on the half plane of :func:`_half_frequencies`, 0 at y = 0."""
    kx, ky = np.meshgrid(*_half_frequencies(grid), indexing="ij")
    rad = np.hypot(kx, ky)
    with np.errstate(invalid="ignore", divide="ignore"):
        e1 = np.where(rad > 0, -ky / rad, 0.0)
        e2 = np.where(rad > 0, kx / rad, 0.0)
    del kx, ky, rad
    # running products into the output: e2^j upwards, then e1^(m-j) downwards
    mono = np.empty((m + 1,) + e1.shape)
    mono[0] = 1.0
    for j in range(1, m + 1):
        np.multiply(mono[j - 1], e2, out=mono[j])
    power = np.ones_like(e1)
    for j in range(m - 1, -1, -1):
        power *= e1
        mono[j] *= power
    return mono


def solenoidal_project(f: TensorField2D) -> TensorField2D:
    """Frequency-wise orthogonal projection onto solenoidal fields.

    At every nonzero frequency the spectrum is replaced by its component
    along the unit tensor ``eta^(tensor m)``; the zero-frequency value is
    kept unchanged (the direction ``eta`` is undefined there and the single
    bin carries no weight in the norms used downstream).  The Nyquist row
    and column are zeroed: there ``y`` and ``-y`` share one bin, so the
    projected spectrum of a real field would not be Hermitian, and
    transforming it back to a real field would undo part of the
    projection.  The map is linear,
    idempotent, and non-expanding in the weighted grid L2 norm.

    The components are real, so their spectra are computed and projected
    on the half plane ``ky = 0 .. n/2`` of a real FFT (``eta`` built there
    too) and transformed back with ``np.fft.irfft2``; the Nyquist column is
    the half plane's last.
    """
    if f.m == 0:
        return f
    mono = _eta_monomials(f.grid, f.m)
    # one spectrum at a time: accumulate <spec, eta^m>, then project
    inner = np.zeros(mono.shape[1:], dtype=complex)
    dc = np.empty(f.m + 1, dtype=complex)
    for j, (weight, comp) in enumerate(zip(tensor_weights(f.m), f.components)):
        spec = np.fft.rfft2(comp)
        dc[j] = spec[0, 0]  # fft order: DC sits at index (0, 0)
        spec *= weight
        spec *= mono[j]
        inner += spec
    inner[f.grid.n // 2, :] = 0.0  # Nyquist row
    inner[:, -1] = 0.0  # Nyquist column
    comps = np.empty_like(f.components)
    for j in range(f.m + 1):
        spec = inner * mono[j]
        spec[0, 0] = dc[j]
        comps[j] = np.fft.irfft2(spec, s=comps[j].shape)
    return TensorField2D(m=f.m, grid=f.grid, components=comps)


def _inverse_half(spectrum: np.ndarray, grid: CartesianGrid) -> np.ndarray:
    """The real grid function whose continuum-normalized spectrum is ``spectrum``.

    ``spectrum`` is given on the half plane of :func:`_half_frequencies`
    (fft order, ``ky = 0 .. n/2``); the other half is its conjugate mirror.
    The inverse of :func:`~tensorray.grids.fourier_transform_2d` for real
    functions, from one ``np.fft.irfft2``.
    """
    out = np.fft.fftshift(np.fft.irfft2(spectrum, s=(grid.n, grid.n)))
    out *= 2.0 * np.pi / grid.spacing**2
    return out


def _synthesize_half(amplitude: np.ndarray, m: int, grid: CartesianGrid) -> TensorField2D:
    """The field with spectrum ``a * eta^(tensor m)``, ``a`` on the half plane.

    ``amplitude`` holds ``a`` on the half plane of :func:`_half_frequencies`
    and must already be the amplitude of a real field: nothing is checked.
    """
    mono = _eta_monomials(grid, m)
    comps = np.empty((m + 1, grid.n, grid.n))
    for j in range(m + 1):
        comps[j] = _inverse_half(amplitude * mono[j], grid)
    return TensorField2D(m=m, grid=grid, components=comps)


def _synthesize_solenoidal(amplitude: np.ndarray, m: int, grid: CartesianGrid) -> TensorField2D:
    """Build the solenoidal field with spectrum ``a(y) * eta(y)^(tensor m)``.

    Parameters
    ----------
    amplitude : ndarray
        Samples of ``a`` on ``grid.dual()`` (shape ``(n, n)``, axis 0 the
        x-frequency), for example ``a(*grid.dual().mesh())``.  The amplitude
        must decay at the dual-grid boundary and must satisfy the conjugate
        symmetry ``a(-y) = (-1)^m * conj(a(y))`` of real fields.
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

    The samples are checked before anything is transformed: every sample
    must be finite, the boundary rows and columns must be below ``1e-8`` of
    the peak, and ``a(-y)`` must equal ``(-1)^m conj(a(y))`` to ``1e-6`` of
    the peak wherever both sit on the grid and the spectrum is not forced
    to 0 (``y = 0`` counts only for ``m = 0``).  The field is real, so only
    the half plane ``ky >= 0`` of the amplitude is transformed
    (``np.fft.irfft2``); without the symmetry check a violation there would
    be symmetrized silently instead of rejected.
    """
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
        # row and column 0 hold -n/2, whose mirror +n/2 is not on the grid
        paired = amp[1:, 1:]
        asymmetry = np.abs(paired - (-1.0) ** m * np.conj(paired[::-1, ::-1]))
        if m > 0:
            asymmetry[grid.n // 2 - 1, grid.n // 2 - 1] = 0.0  # y = 0
        worst = asymmetry.max()
        if worst > _SYMMETRY_TOL * peak:
            raise ValueError(
                "amplitude violates the conjugate symmetry of real fields "
                f"(|a(-y) - (-1)^m conj a(y)| reaches {worst / peak:.3e} of the peak)"
            )
    return _synthesize_half(np.fft.ifftshift(amp)[:, : grid.n // 2 + 1], m, grid)


def _check_width(width: float, grid: CartesianGrid, degree: int | None = None) -> None:
    """A generator's Gaussian width: finite and in ``[2.5 h, radius / 6]``.

    At ``w = 2.5 h`` a Gaussian spectrum of degree ``<= 8`` has fallen below
    ``1e-8`` of its peak at the Nyquist frequency ``pi / h``, the edge level
    :func:`_synthesize_solenoidal` accepts; narrower fields alias, and their
    samples fail the divergence gate.

    A ``degree`` bounds an amplitude that :func:`_synthesize_solenoidal`
    checks itself, ``(q w)^degree exp(-(q w)^2 / 2)`` at its highest power:
    the width must also be at least :func:`_narrowest_width` for it, so that
    the amplitude is below ``5e-9`` of its peak at the nearest grid edge.
    """
    if not 0.0 < width < np.inf:
        raise ValueError(f"width must be positive and finite, got {width}")
    if width < _MIN_WIDTH_IN_SPACINGS * grid.spacing:
        raise ValueError(
            f"width {width} is below {_MIN_WIDTH_IN_SPACINGS:g} x grid spacing = "
            f"{_MIN_WIDTH_IN_SPACINGS * grid.spacing}; the spectrum would not "
            "decay by the Nyquist frequency"
        )
    if grid.radius < 6.0 * width:
        raise ValueError(
            f"grid radius {grid.radius} is below 6 x width = {6.0 * width}; "
            "samples would not decay at the boundary"
        )
    narrowest = 0.0 if degree is None else _narrowest_width(degree, grid)
    if width < narrowest:
        raise ValueError(
            f"width {width} is below {narrowest:.6g}, the narrowest at which a "
            f"degree-{degree} spectrum decays by the frequency-grid edge "
            f"(n = {grid.n}, radius = {grid.radius}); the synthesis would wrap"
        )


def _narrowest_width(degree: int, grid: CartesianGrid) -> float:
    """Narrowest ``w`` at which ``(q w)^d exp(-(q w)^2 / 2)``, ``d = degree``,
    has fallen to ``5e-9`` of its peak at the nearest frequency-grid edge.

    The dual grid's edge rows nearest the origin sit at ``pi/h - pi/R``, one
    spacing inside the Nyquist frequency.  With ``u = (q w)^2 / d`` the
    ratio to the peak at ``u = 1`` is ``(u e^(1-u))^(d/2)``; Newton's method
    solves ``u - ln u = 1 + c`` for ``u > 1``, ``c = -2 ln(5e-9) / d``.  A
    random field's amplitude sums such terms over ``d = m .. m + 3``, and
    the highest one sets its edge: at ``w = 2.5 h``, over seeds 0-199 at
    ``n = 32 .. 256`` and ``m = 0 .. 6``, its edge-to-peak ratio stayed
    within 1.01 of this term's alone, so the bound keeps it below the
    ``1e-8`` the synthesis accepts with a factor 2 to spare.
    """
    c = -2.0 * np.log(_RANDOM_EDGE_RATIO) / degree
    u = 1.0 + c + np.log1p(c)  # left of the root: the iterates overshoot once, then descend
    for _ in range(6):
        u -= (u - np.log(u) - 1.0 - c) / (1.0 - 1.0 / u)
    return float(np.sqrt(u * degree) / (np.pi * (1.0 / grid.spacing - 1.0 / grid.radius)))


def _solenoidal_table(m: int, width: float) -> np.ndarray:
    """``w^max(m-2,0) (d/dx)^j (-d/dy)^(m-j) G``: ``(-1)^j / w^min(m,2)`` at ``[j, j, m-j]``."""
    table = np.zeros((m + 1, m + 1, m + 1))
    for j in range(m + 1):
        table[j, j, m - j] = (-1.0) ** j / width ** min(m, 2)
    return table


def _potential_table(m: int, width: float) -> np.ndarray:
    """Symmetrized gradient of the rank ``m-1`` generic table: ``d/dx`` raises
    ``a`` by one and multiplies by ``-1/w``, ``d/dy`` does the same to ``b``."""
    lower = _generic_table(m - 1, width)
    table = np.zeros((m + 1, m + 1, m + 1))
    for j in range(m):
        table[j, 1:, :m] += (m - j) * lower[j]
        table[j + 1, :m, 1:] += (j + 1) * lower[j]
    return table / (-m * width)


def _generic_table(m: int, width: float) -> np.ndarray:
    if m == 0:
        return _solenoidal_table(0, width)
    return _solenoidal_table(m, width) + _potential_table(m, width)


def _sample_table(table: np.ndarray, grid: CartesianGrid, width: float) -> TensorField2D:
    """Component ``j`` is ``G * sum_ab table[j, a, b] He_a(x/w) He_b(y/w)``."""
    x, y = grid.mesh()
    u, v = x / width, y / width
    g = np.exp(-(u**2 + v**2) / 2.0)
    herm = hermite_e.hermevander(grid.axis() / width, table.shape[1] - 1)
    return TensorField2D(m=table.shape[0] - 1, grid=grid, components=(herm @ table @ herm.T) * g)


_TABLES = {"solenoidal": _solenoidal_table, "potential": _potential_table, "generic": _generic_table}


def gaussian_test_field(m: int, kind: str, grid: CartesianGrid, width: float = 1.0) -> TensorField2D:
    """Deterministic Gaussian-decay test field of the requested kind.

    Component ``j`` is ``G * sum_ab C[j, a, b] He_a(x/w) He_b(y/w)`` with
    ``G = exp(-|x|^2/(2w^2))`` and the probabilists' Hermite polynomials.

    Kinds
    -----
    ``solenoidal``
        Divergence free: ``w^max(m-2,0) (d/dx)^j (-d/dy)^(m-j) G``; for
        ``m >= 2`` the field :func:`_synthesize_solenoidal` builds from
        samples of the amplitude ``i^m (q w)^m exp(-q^2 w^2 / 2)``.
        ``m = 0``: ``G`` (scalar fields are vacuously solenoidal); ``m = 1``:
        ``(-dG/dy, dG/dx)``; ``m = 2``: ``(G_yy, -G_xy, G_xx)``.
    ``potential``
        Symmetrized gradient of the rank ``m-1`` generic field ``v``, whose
        component ``j`` is ``((m - j) d(v_j)/dx + j d(v_(j-1))/dy) / m``;
        annihilated by the forward ray transform.  Not defined for
        ``m = 0``.
    ``generic``
        ``m = 0``: the Gaussian.  Otherwise the sum of the solenoidal and
        potential fields above, so both parts are present.

    The samples are the continuum field's, edge values included: at
    ``radius = 8, n = 256`` a rank ``m >= 4`` solenoidal field fails the
    ``1e-6`` gate of :func:`require_solenoidal` from ``w ~ 1.295`` (its
    divergence residual is ``1.1e-6`` at ``m = 4, w = 1.3``).
    """
    if m < 0:
        raise ValueError(f"tensor rank must be >= 0, got {m}")
    _check_width(width, grid)
    if kind not in _TABLES:
        raise ValueError(f"unknown kind {kind!r}")
    if m == 0 and kind == "potential":
        raise ValueError("potential fields require m >= 1 (no rank -1 fields to differentiate)")
    return _sample_table(_TABLES[kind](m, width), grid, width)


def random_solenoidal_field(
    m: int,
    grid: CartesianGrid,
    seed: int,
    width: float = 1.0,
) -> TensorField2D:
    """Seeded random solenoidal field with a few angular harmonics.

    The amplitude is ``sum_l c_l (q w)^(m+|l|) exp(-(q w)^2 / 2) e^{i l phi}``
    over ``|l| <= 3``, with the coefficients drawn from ``seed`` and paired
    so the field is real.  The ``q^(m+|l|)`` factors keep every spectrum
    component smooth at the origin, hence the field rapidly decaying.

    With ``Z = w (qx + i qy)``, ``(q w)^(m+l) e^{i l phi} = (q w)^m Z^l``,
    so the amplitude is sampled on ``grid.dual()`` as ``(q w)^m
    exp(-(q w)^2 / 2)`` times ``c_0 + sum_(l>0) [c_l Z^l + (-1)^(m+l)
    conj(c_l Z^l)]``, with no angle or complex exponential per harmonic.
    """
    if m < 0:
        raise ValueError(f"tensor rank must be >= 0, got {m}")
    _check_width(width, grid, degree=m + _RANDOM_MAX_HARMONIC)
    rng = np.random.default_rng(seed)
    coeffs = []
    for l in range(_RANDOM_MAX_HARMONIC + 1):
        c = complex(rng.standard_normal(), rng.standard_normal())
        if l == 0:
            # realness pairs l with -l; the l = 0 coefficient pairs with itself
            c = 0.5 * (c + (-1.0) ** m * np.conj(c))
        coeffs.append(c)
    return _synthesize_solenoidal(_polynomial_amplitude(coeffs, m, width, grid), m, grid)


def _polynomial_amplitude(
    coeffs: list[complex], m: int, width: float, grid: CartesianGrid
) -> np.ndarray:
    """The amplitude of :func:`random_solenoidal_field` on ``grid.dual()``, ``c_l = coeffs[l]``.

    Its own function so that its working arrays are freed before the
    synthesis runs.
    """
    qx, qy = grid.dual().mesh()
    z = width * (qx + 1j * qy)
    del qx, qy  # Z holds them; freed before the loop's temporaries peak
    amp = np.full(z.shape, coeffs[0])
    power = np.ones_like(z)
    for l, c in enumerate(coeffs[1:], start=1):
        power *= z
        term = c * power
        amp += term
        amp += (-1.0) ** (m + l) * term.conj()
    qw_sq = z.real**2 + z.imag**2
    amp *= np.sqrt(qw_sq) ** m * np.exp(-qw_sq / 2.0)
    return amp


def component_spectrum_polar(
    f: TensorField2D,
    j: int,
    pgrid: PolarFrequencyGrid,
    oversample: int = 2,
    angle_offset: float = 0.0,
) -> np.ndarray:
    """Polar samples ``fhat_j(q_k, phi_j + angle_offset)`` of one component.

    The spectrum is that of the component zero padded to a twice larger
    grid (valid for boundary-decayed fields), i.e. the continuum-normalized
    transform on a twice finer dual grid, sampled with the quintic splines
    of :func:`~tensorray.grids.polar_sample`.  At desk scale the 2x grid
    keeps the error against the analytic Gaussian spectrum near 1e-7 of its
    peak, far below the slice-identity tolerances used downstream.
    ``oversample`` accepts only 2.
    The spectrum must decay well inside the padded dual grid, whose
    half-width is the Nyquist frequency of the field grid; nodes beyond it
    raise before anything is transformed.

    Only the index window the splines read (the nodes' reach plus the
    prefilter margin, clipped at the grid edge) is computed, and from the
    real component alone: a real FFT along y over the ``n`` nonzero rows at
    the padded length, kept at the window's ``|ky|`` only, a complex FFT
    along x over those columns, then the window's rows; where ``ky < 0``
    the window reads the conjugate at ``(-kx, -ky)``.  Padding centres the
    samples, which puts the phase ``e^{i pi k / 2}`` on frequency
    index ``k`` along each axis.  No padded array is formed; the window
    equals the padded :func:`~tensorray.grids.fourier_transform_2d` there
    to rounding.

    Components are real, so ``fhat_j(q, phi + pi) = conj(fhat_j(q, phi))``:
    only the first ``ntheta // 2`` angles (``ntheta`` is even) are sampled
    and the second half turn is their conjugate.  With ``angle_offset`` 0
    or ``pi/2`` the sampled angles ``theta``, ``pi/2 - theta``, ``pi/2 +
    theta`` and ``pi - theta`` (modulo a half turn) are reflections of each
    other through the frequency origin, and where the window lies inside
    the padded grid they share one fill of the spline operator: 17 fills
    for the 64 angles the slice checks sample at ``ntheta = 128``.  Any
    other offset fills one per angle.  The sampler runs on the calling
    thread.
    """
    # oversample is kept only because the benchmark tracer reads it by name
    if oversample != _PAD:
        raise ValueError(f"oversample must be {_PAD}, got {oversample!r}")
    comp = f.component(j)
    n, size = f.grid.n, f.grid.n * _PAD

    def phase(k: np.ndarray) -> np.ndarray:
        # padding centres the n samples: index k carries e^{i pi k / _PAD}
        return np.exp(1j * np.pi * (k % (2 * _PAD)) / _PAD)

    def spectrum(window: tuple[slice, slice]) -> np.ndarray:
        rows, cols = window
        ky_lo, ky_hi = cols.start - size // 2, cols.stop - size // 2
        kmax = max(-ky_lo, ky_hi - 1)
        # the component's DFT at ky = 0..kmax and every kx: row a holds
        # kx = a - size/2 (the window's own index), row `size` repeats row 0
        half = np.zeros((size + 1, kmax + 1), dtype=complex)
        half[:n] = np.fft.rfft(comp, n=size, axis=1)[:, : kmax + 1]
        np.negative(half[1:n:2], out=half[1:n:2])  # (-1)^i moves kx by size/2
        np.fft.fft(half[:size], axis=0, out=half[:size])
        half[size] = half[0]
        # the DFT of a real component has D(-kx, -ky) = conj D(kx, ky)
        out = np.empty((rows.stop - rows.start, cols.stop - cols.start), dtype=complex)
        neg = min(max(-ky_lo, 0), out.shape[1])
        out[:, neg:] = half[rows, ky_lo + neg : ky_hi]
        out[:, :neg] = half[size - rows.start : size - rows.stop : -1, -ky_lo : -(ky_lo + neg) : -1]
        del half
        out.imag[:, :neg] *= -1.0
        scale = f.grid.spacing**2 / (2.0 * np.pi)
        out *= scale * phase(np.arange(rows.start, rows.stop) - size // 2)[:, None]
        out *= phase(np.arange(cols.start, cols.stop) - size // 2)
        return out

    dual = CartesianGrid(size, f.grid.radius * _PAD).dual()
    phis = pgrid.angular_nodes()[: pgrid.ntheta // 2] + angle_offset
    # a quarter-turn offset keeps the angles' reflections on the angle grid
    groups = _angle_groups(pgrid.ntheta) if angle_offset in (0.0, np.pi / 2.0) else None
    first = _sample_polar_window(dual, pgrid.radial_nodes(), phis, spectrum, groups)
    return np.concatenate([first, first.conj()], axis=1)
