"""Weighted Sobolev norms on sinograms and solenoidal fields.

Both norms are weighted quadratic forms on angular Fourier coefficients of
the relevant Fourier transform, indexed by a smoothness/weight triple
``(r, s, t)``:

* sinogram norm (requires ``t > -1/2``), with ``m`` the parity rank and
  ``tilde`` multiplication by ``sin^m(theta)``:

      ||psi||^2 = (1/4pi) * sum_l (1+l^2)^r *
                  integral_R |q|^(2t) (1+q^2)^(s-t) |(tilde psi)hat_l(q)|^2 dq

* field norm on solenoidal rank-``m`` fields (requires ``t > -1``):

      ||f||^2 = (1/2pi) * sum_l (1+l^2)^r *
                integral_0^inf q^(2t+1) (1+q^2)^(s-t) |(fhat_m)_l(q)|^2 dq

Under the ``"lemma"`` transform convention the forward ray transform is an
isometry from the field norm at ``(r, s, t)`` to the sinogram norm at
``(r, s+1/2, t+1/2)``; :func:`reshetnyak_check` measures the ratio, which is
``sqrt(2*pi)`` instead of 1 under the ``"fst"`` convention.

Both norms are evaluated on the positive midpoint nodes
``q_k = (k + 1/2) * qmax / nq``, which avoid ``q = 0``, where the weight is
singular but integrable for admissible ``t``.  The sinogram integral over
``R`` is twice the one over ``q > 0``: a real sinogram has
``psihat(-q, theta) = conj psihat(q, theta)``, so
``|(tilde psi)hat_l(-q)| = |(tilde psi)hat_{-l}(q)|``, and ``(1+l^2)^r`` is
even in ``l``.  Both norms thus read ``(1/2pi) * sum_l ... integral_0^inf``.
At the shifted indices the sinogram's radial weight
``q^(2(t+1/2)) (1+q^2)^(s-t)`` is the field's, so the isometry ratio
compares two quadratic forms with the same weights on the same nodes, each
read off one side of the slice checks (:func:`~tensorray.slices.slice_pair`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import TensorField2D
from .grids import PolarFrequencyGrid, angular_coefficient_matrix
from .ray import Sinogram
from .slices import _convention_constant, _field_side, _sinogram_side, _tilde_table, slice_pair

__all__ = [
    "SobolevParams",
    "TruncationWarning",
    "weighted_norm_sq",
    "sinogram_norm",
    "field_norm",
    "reshetnyak_check",
    "reshetnyak_ratios",
]

_TAIL_FRACTION = 1e-6


class TruncationWarning(UserWarning):
    """Angular or radial truncation carries non-negligible weighted energy."""


@dataclass(frozen=True)
class SobolevParams:
    """Smoothness/weight triple ``(r, s, t)``.

    ``r`` weights angular harmonics by ``(1+l^2)^r``, ``s`` and ``t`` set the
    radial weight ``|q|^(2t) (1+q^2)^(s-t)`` (sinograms) or
    ``q^(2t+1) (1+q^2)^(s-t)`` (fields).  Admissibility: ``t > -1/2`` on
    sinograms, ``t > -1`` on fields.
    """

    r: float
    s: float
    t: float

    def __post_init__(self) -> None:
        for name in ("r", "s", "t"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")

    def shifted(self) -> "SobolevParams":
        """The sinogram-side indices paired with these field-side indices."""
        return SobolevParams(self.r, self.s + 0.5, self.t + 0.5)

    def require_sinogram_admissible(self) -> None:
        if self.t <= -0.5:
            raise ValueError(f"sinogram norm needs t > -1/2, got t = {self.t}")

    def require_field_admissible(self) -> None:
        if self.t <= -1.0:
            raise ValueError(f"field norm needs t > -1, got t = {self.t}")


def weighted_norm_sq(
    qs: np.ndarray,
    coeffs: np.ndarray,
    params: SobolevParams,
    radial_exponent_offset: float,
    warn_context: str | None = None,
) -> float:
    """Weighted quadratic form shared by both norms.

    ``(1/2pi) * sum_l (1+l^2)^r * sum_k dq * |q|^(2t + offset) (1+q^2)^(s-t) |c_lk|^2``;
    ``offset`` is 0 for sinograms and 1 for fields.
    Raises ``ValueError`` naming ``(r, s, t)`` when the weighted sum
    overflows the float range (``(1+l^2)^r`` does from ``r ~ 86`` at
    ``l = 63``).  When ``warn_context`` is given, emits
    :class:`TruncationWarning` if the top-quarter harmonics or the outer 5%
    of radial nodes carry more than ``1e-6`` of the total weighted energy;
    the message gives the share it measured.
    """
    qs = np.asarray(qs, dtype=float)
    coeffs = np.asarray(coeffs)
    if qs.ndim != 1 or qs.size < 2:
        raise ValueError(f"need a 1D array of at least 2 radial nodes, got shape {qs.shape}")
    if coeffs.ndim != 2 or coeffs.shape[1] != qs.size:
        raise ValueError(
            f"coeffs must have shape (harmonics, {qs.size}) to match the radial "
            f"nodes, got {coeffs.shape}"
        )
    dq = np.abs(qs[1] - qs[0])
    lmax = (coeffs.shape[0] - 1) // 2
    ls = np.arange(-lmax, lmax + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        radial = np.abs(qs) ** (2.0 * params.t + radial_exponent_offset) * (1.0 + qs**2) ** (
            params.s - params.t
        )
        angular = (1.0 + ls.astype(float) ** 2) ** params.r
        cells = angular[:, None] * radial[None, :] * np.abs(coeffs) ** 2 * dq
        total = float(cells.sum())
    if not np.isfinite(total):
        raise ValueError(
            f"weighted norm overflows at (r, s, t) = ({params.r:g}, {params.s:g}, {params.t:g}); "
            "the Sobolev weights exceed the float range at these nodes"
        )

    if warn_context is not None and total > 0.0:
        top_l = np.abs(ls) > 0.75 * lmax
        outer_q = np.argsort(np.abs(qs))[-max(1, qs.size // 20):]
        tails = (
            (cells[top_l, :].sum(), "top-quarter angular harmonics",
             "either harmonics are unresolved (increase ntheta) or the (1+l^2)^r weight "
             "amplifies interpolation error (lower r)"),
            (cells[:, outer_q].sum(), "outer radial nodes", "increase qmax"),
        )
        for energy, where, advice in tails:
            if energy > _TAIL_FRACTION * total:
                warnings.warn(
                    f"{warn_context}: {where} carry {energy / total:.2g} of the weighted "
                    f"energy, more than {_TAIL_FRACTION:g}; {advice}",
                    TruncationWarning,
                    stacklevel=3,
                )
    return total / (2.0 * np.pi)


def sinogram_norm(
    psi: Sinogram,
    params: SobolevParams,
    convention: str = "lemma",
    nq: int = 512,
    qmax: float | None = None,
) -> float:
    """Weighted Sobolev norm of a sinogram (see the module docstring).

    Evaluated on ``nq`` positive midpoint nodes up to ``qmax``, which
    defaults to ``pmax``.  The norm is taken in the lemma calculus; under
    ``"fst"`` it is ``sqrt(2*pi)`` times larger.
    """
    scale = _convention_constant(convention)
    params.require_sinogram_admissible()
    pgrid = PolarFrequencyGrid(nq=nq, qmax=psi.pmax if qmax is None else qmax, ntheta=psi.ntheta)
    qs = pgrid.radial_nodes()
    coeffs = _tilde_table(_sinogram_side(psi, pgrid), psi.m)
    norm_sq = weighted_norm_sq(qs, coeffs, params, 0.0, warn_context="sinogram norm")
    return float(scale * np.sqrt(norm_sq))


def field_norm(
    f: TensorField2D,
    params: SobolevParams,
    nq: int = 512,
    qmax: float | None = None,
    ntheta: int = 128,
) -> float:
    """Weighted Sobolev norm of a solenoidal field (see the module docstring).

    The quadratic form involves only the last component, which determines a
    solenoidal field; it is a norm only on solenoidal inputs, so fields with
    relative divergence residual above ``1e-6`` are rejected.
    """
    params.require_field_admissible()
    pgrid = PolarFrequencyGrid(nq=nq, qmax=f.grid.radius if qmax is None else qmax, ntheta=ntheta)
    coeffs = angular_coefficient_matrix(_field_side(f, pgrid), ntheta // 2 - 1).T
    norm_sq = weighted_norm_sq(pgrid.radial_nodes(), coeffs, params, 1.0, warn_context="field norm")
    return float(np.sqrt(norm_sq))


def reshetnyak_check(
    f: TensorField2D,
    params: SobolevParams,
    convention: str = "lemma",
    *,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    sinogram: Sinogram | None = None,
) -> float:
    """Ratio of the sinogram norm at shifted indices to the field norm.

    ``||I_m f||_(r, s+1/2, t+1/2) / ||f||_(r, s, t)`` — equal to 1 under the
    ``"lemma"`` convention and to ``sqrt(2*pi)`` under ``"fst"``, up to
    discretization error.  Raises on fields with vanishing norm and on
    fields that are not solenoidal.
    """
    return reshetnyak_ratios(
        f, [params], convention, ntheta=ntheta, nq=nq, qmax=qmax, sinogram=sinogram,
    )[0]


def reshetnyak_ratios(
    f: TensorField2D,
    params_list: list[SobolevParams],
    convention: str = "lemma",
    *,
    ntheta: int = 128,
    nq: int = 512,
    qmax: float | None = None,
    sinogram: Sinogram | None = None,
) -> list[float]:
    """Isometry ratios for several parameter triples on one field.

    Both norms weigh one :func:`~tensorray.slices.slice_pair`, reweighted per
    triple, so sweeping parameters costs almost nothing beyond the first
    ratio.  Non-solenoidal fields are rejected (the isometry holds on
    solenoidal fields only), as are sinograms of another rank or ``ntheta``.
    """
    scale = _convention_constant(convention)
    for params in params_list:
        params.require_field_admissible()
        params.shifted().require_sinogram_admissible()
    pair = slice_pair(f, ntheta=ntheta, nq=nq, qmax=qmax, sinogram=sinogram)
    f_coeffs = pair.field_coefficients(ntheta // 2 - 1)
    s_coeffs = pair.sinogram_coefficients()

    ratios = []
    for params in params_list:
        field_sq = weighted_norm_sq(pair.qs, f_coeffs, params, 1.0, warn_context="field norm")
        if field_sq == 0.0:
            raise ValueError("field norm vanishes; the isometry ratio is undefined")
        sino_sq = weighted_norm_sq(
            pair.qs, s_coeffs, params.shifted(), 0.0, warn_context="sinogram norm"
        )
        ratios.append(float(scale * np.sqrt(sino_sq / field_sq)))
    return ratios
