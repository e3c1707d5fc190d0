"""The spectral kernels against plain reference formulas.

Each reference below is the direct form of what a kernel computes, kept here
as the oracle: the p-transform as a complex-exponential quadrature over every
offset, its kernel ``e^{i q p}`` in long double, the polar sampler as
quintic splines prefiltered over the whole grid (``map_coordinates``), the
polar spectrum as the padded complex transform sampled over the full turn by
those splines, the inversion series as
the per-block quadrature of the whole sinogram summed harmonic by harmonic
over every dual-grid point, and the divergence gate as spatial rows
transformed back from their spectra.  The projector's oracle, the 2D spline
collapsed along the walking axis at every angle, lives in the test-side
``references`` module, which the closed-form tests share.  The complex-FFT forms of
the kernels that now run on the half plane of real FFTs are kept too: the
gate's ``D(k) - conj D(-k)`` fold, the solenoidal projection, the
synthesis and the coefficient route over the whole frequency plane.  So is
the random field's former amplitude, summed per harmonic from ``arctan2``,
which its polynomial in ``w (qx + i qy)`` must match to 1e-15 of the peak.
The kernels fold, window, mirror or read off the spectrum that work, or
build the projector's rows once per call, or build the p-kernel by angle
addition, or transform half the frequency plane; results must agree to
rounding (relative 1e-13, and 1e-14 for the projector on decayed fields and
for the real-FFT kernels).
"""

import numpy as np
import pytest
from scipy import ndimage

from references import inverse_fourier_transform_2d, pad_samples, reference_forward
from tensorray import (
    CartesianGrid,
    invert,
    invert_coefficient_route,
    solenoidal_project,
    PolarFrequencyGrid,
    Sinogram,
    TensorField2D,
    component_spectrum_polar,
    field_l2_norm,
    forward,
    gaussian_test_field,
    polar_sample,
    random_solenoidal_field,
    relative_divergence_residual,
)
from tensorray import fields, grids, inversion
from tensorray.fields import _synthesize_solenoidal, tensor_weights
from tensorray.grids import fourier_transform_2d
from tensorray.inversion import _quarter_turn_series
from tensorray.slices import _p_kernel, _tilde_table, sinogram_transform_values

REL = 1e-13


def relative_gap(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def reference_p_transform(psi, qs):
    """``(1/2pi) sum_i w_i exp(-i q p_i) psi(p_i, theta)`` over all offsets, trapezoid weights."""
    ps = np.linspace(-psi.pmax, psi.pmax, psi.num_p)
    weights = np.full(psi.num_p, ps[1] - ps[0])
    weights[[0, -1]] *= 0.5
    kernel = np.exp(-1j * np.multiply.outer(qs, ps)) * weights
    return (kernel @ psi.samples) / (2.0 * np.pi)


def reference_polar_sample(values, grid, qs, phis):
    """Quintic splines prefiltered over the whole grid."""
    qx = qs[:, None] * np.cos(phis)[None, :]
    qy = qs[:, None] * np.sin(phis)[None, :]
    coords = np.array([qx + grid.radius, qy + grid.radius]) / grid.spacing

    def spline(part):
        return ndimage.map_coordinates(part, coords, order=5, mode="constant")

    return spline(values.real) + 1j * spline(values.imag)


def reference_spectrum_polar(f, j, pgrid, angle_offset=0.0, turn=1.0):
    """The 2x padded complex spectrum sampled at the angles of the first ``turn`` turns.

    Sampled by :func:`reference_polar_sample`, not by the kernel under test.
    """
    big, big_grid = pad_samples(f.component(j), f.grid, 2)
    spec = fourier_transform_2d(big, big_grid)
    phis = pgrid.angular_nodes()[: round(turn * pgrid.ntheta)] + angle_offset
    return reference_polar_sample(spec, big_grid.dual(), pgrid.radial_nodes(), phis)


def reference_p_kernel(psi, qs):
    """``cos(q p_j)`` and ``sin(q p_j)`` in long double at the offsets ``p_j >= 0``.

    The offsets are the exact ``-pmax + i * 2 pmax / (num_p - 1)``, so the
    reference carries no rounding of ``q p`` at double precision.
    """
    ld = np.longdouble
    index = np.arange(psi.num_p // 2, psi.num_p).astype(ld)
    offsets = -ld(psi.pmax) + index * (2 * ld(psi.pmax) / (psi.num_p - 1))
    phase = np.multiply.outer(np.asarray(qs, dtype=ld), offsets)
    return np.cos(phase), np.sin(phase)


def desk_radii(psi, grid):
    """The distinct dual-grid radii the inversion series evaluates."""
    half = grid.n // 2
    k = np.arange(grid.n) - half
    distinct = np.unique((k[:, None] ** 2 + k[None, :] ** 2).ravel())
    edge = min(half - 1, np.pi / psi.dp / grid.dual().spacing)
    return np.sqrt(distinct[distinct < edge**2]) * grid.dual().spacing


def reference_quarter_turn_series(psi, grid, power, radii_per_block=512):
    """The series over every dual-grid point, one block of radii at a time.

    Per block: p-transform the whole sinogram by the complex-exponential
    quadrature (:func:`reference_p_transform`), take its angular series,
    stencil, turn and fold, then sum ``t + sign_l conj(t)`` harmonic by
    harmonic at each point.
    """
    dual = grid.dual()
    half = grid.n // 2
    k = np.arange(grid.n) - half
    ksq = (k[:, None] ** 2 + k[None, :] ** 2).ravel()
    order = np.argsort(ksq, kind="stable")
    distinct, radius_index = np.unique(ksq[order], return_inverse=True)
    edge = min(half - 1, np.pi / psi.dp / dual.spacing)
    in_band = int(np.searchsorted(distinct, edge**2))
    bounds = np.append(np.arange(0, in_band, radii_per_block), in_band)
    radii = np.sqrt(distinct[:in_band]) * dual.spacing
    starts = np.searchsorted(radius_index, bounds)
    out = np.zeros(grid.n * grid.n, dtype=complex)
    for b0, b1, first, last in zip(bounds[:-1], bounds[1:], starts[:-1], starts[1:]):
        coeffs = _tilde_table(reference_p_transform(psi, radii[b0:b1]), power)
        lm = (coeffs.shape[0] - 1) // 2
        coeffs *= (-1.0j) ** np.arange(-lm, lm + 1)[:, None]
        signs = (-1.0) ** (np.arange(lm + 1) + psi.m + power)
        coeffs = 0.5 * (coeffs[lm:] + signs[:, None] * np.conj(coeffs[lm::-1]))
        points = order[first:last]
        local = radius_index[first:last] - b0
        kx, ky = np.divmod(points, grid.n)
        phase = (kx - half + 1j * (ky - half)) / np.sqrt(np.maximum(ksq[points], 1))
        acc = coeffs[0, local]
        turn = np.ones(points.size, dtype=complex)
        for l in range(1, lm + 1):
            turn *= phase
            t = coeffs[l, local] * turn
            acc += t + signs[l] * np.conj(t)
        out[points] = acc
    return out.reshape(grid.n, grid.n)


def half_plane(spectrum):
    """A centered full-plane spectrum as the half plane ``ky = 0 .. n/2`` of ``rfft2``, fft order."""
    return np.fft.ifftshift(spectrum)[:, : spectrum.shape[1] // 2 + 1]


def reference_divergence_residual(f):
    """Rows ``ifft2(i (kx S_j + ky S_{j+1})).real`` in space, then their largest grid L2 norm."""
    k = 2.0 * np.pi * np.fft.fftfreq(f.grid.n, d=f.grid.spacing)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    specs = np.fft.fft2(f.components, axes=(1, 2))
    rows = [np.fft.ifft2(1j * (kx * specs[j] + ky * specs[j + 1])).real for j in range(f.m)]
    h = f.grid.spacing
    norms = [np.sqrt(h * h * np.sum(row**2)) for row in rows]
    return max(norms) / field_l2_norm(f)


def reference_divergence_fold(f):
    """The gate over the whole plane: ``h sqrt(sum |D_j(k) - conj D_j(-k)|^2) / 2n``.

    ``D_j = kx S_j + ky S_(j+1)`` from complex FFTs ``S_j``; the fold keeps
    the part of ``i D_j`` that is the spectrum of a real row.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(f.grid.n, d=f.grid.spacing)
    spec = np.fft.fft2(f.components[0])
    worst = 0.0
    for comp in f.components[1:]:
        nxt = np.fft.fft2(comp)
        row = k[:, None] * spec + k[None, :] * nxt
        row -= np.roll(row[::-1, ::-1], 1, axis=(0, 1)).conj()  # D(k) - conj D(-k)
        worst = max(worst, np.vdot(row, row).real)
        spec = nxt
    return f.grid.spacing * np.sqrt(worst) / (2 * f.grid.n) / field_l2_norm(f)


def reference_eta_monomials(grid, m):
    """``eta1^(m-j) eta2^j`` over the whole fft-ordered frequency plane, 0 at y = 0."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    rad = np.hypot(kx, ky)
    safe = np.where(rad > 0, rad, 1.0)
    e1 = np.where(rad > 0, -ky / safe, 0.0)
    e2 = np.where(rad > 0, kx / safe, 0.0)
    j = np.arange(m + 1)[:, None, None]
    return e1 ** (m - j) * e2**j


def reference_solenoidal_project(f):
    """Complex FFTs over the whole plane, Nyquist row and column zeroed, real part back."""
    mono = reference_eta_monomials(f.grid, f.m)
    specs = np.fft.fft2(f.components, axes=(1, 2))
    inner = np.tensordot(tensor_weights(f.m), specs * mono, axes=(0, 0))
    nyquist = f.grid.n // 2
    inner[nyquist, :] = 0.0
    inner[:, nyquist] = 0.0
    out = inner * mono
    out[:, 0, 0] = specs[:, 0, 0]
    return np.fft.ifft2(out, axes=(1, 2)).real


def reference_synthesize(amplitude, m, grid):
    """``a eta^m`` over the whole plane, one complex inverse FFT per component, real part."""
    spectra = np.fft.ifftshift(amplitude) * reference_eta_monomials(grid, m)
    scale = 2.0 * np.pi / grid.spacing**2
    return (np.fft.fftshift(np.fft.ifft2(spectra, axes=(1, 2)), axes=(1, 2)) * scale).real


def reference_invert(psi, grid):
    """The amplitude route: the full-plane series synthesized by complex FFTs."""
    amplitude = (-1.0) ** psi.m * reference_quarter_turn_series(psi, grid, 0)
    return reference_synthesize(amplitude, psi.m, grid)


def reference_coefficient_route(psi, grid):
    """The coefficient route: the full-plane series through the complex inverse transform."""
    spec = reference_quarter_turn_series(psi, grid, psi.m)
    return inverse_fourier_transform_2d(spec, grid).real


class TestFoldedPTransform:
    @pytest.mark.parametrize("num_p", [2, 3, 64, 65, 257])
    def test_matches_complex_quadrature_on_non_range_data(self, num_p):
        # random samples obey no parity in p, so the even and odd parts both count
        rng = np.random.default_rng(num_p)
        psi = Sinogram(m=1, pmax=6.0, samples=rng.standard_normal((num_p, 12)))
        qs = np.concatenate([np.linspace(-9.0, 9.0, 37), [0.0, 1e-3, -20.0]])
        got = sinogram_transform_values(psi, qs)
        assert got.shape == (qs.size, 12)
        assert relative_gap(got, reference_p_transform(psi, qs)) < REL

    def test_zero_row_counts_once(self):
        # a sinogram that is nonzero only at p = 0 transforms to w_0 psi(0) at every q
        samples = np.zeros((5, 4))
        samples[2] = [1.0, -2.0, 3.0, 0.5]
        psi = Sinogram(m=0, pmax=2.0, samples=samples)
        qs = np.array([-1.0, 0.0, 2.5])
        got = sinogram_transform_values(psi, qs)
        expected = psi.dp / (2.0 * np.pi) * np.tile(samples[2], (3, 1))
        assert np.abs(got - expected).max() < 1e-15


class TestAngleAdditionKernel:
    # e^{i q p} as a coarse factor times a fine one, against long double at
    # the radii of the inversion series (4,291 x 129 at desk scale).  Its
    # error is the rounding of the phases, ~|q p| eps with |q p| up to 399:
    # measured 3.2e-14 (num_p 257) and 4.1e-14 (256), where direct cosines
    # and sines of the double-precision q p read 2.8e-14 and 8.2e-14.
    @pytest.mark.parametrize("num_p", [256, 257])
    def test_matches_long_double_reference(self, num_p, grid256):
        psi = Sinogram(m=0, pmax=8.0, samples=np.zeros((num_p, 4)))
        qs = desk_radii(psi, grid256)
        got = _p_kernel(psi, qs)
        cos, sin = reference_p_kernel(psi, qs)
        assert got.shape == (4291, num_p - num_p // 2)
        assert np.abs(got.real - cos).max() < 1e-13
        assert np.abs(got.imag - sin).max() < 1e-13

    @pytest.mark.parametrize("num_p", [2, 3, 17, 32, 33, 34])
    def test_any_node_shape_and_offset_count(self, num_p):
        # offset counts below, at and past a whole row of 16; nodes of any
        # shape and sign, the offsets along the last axis
        psi = Sinogram(m=0, pmax=3.0, samples=np.zeros((num_p, 4)))
        qs = np.linspace(-7.0, 7.0, 12).reshape(3, 4)
        got = _p_kernel(psi, qs)
        cos, sin = reference_p_kernel(psi, qs)
        assert got.shape == (3, 4, num_p - num_p // 2)
        assert np.abs(got.real - cos).max() < 1e-14
        assert np.abs(got.imag - sin).max() < 1e-14

    def test_fills_the_given_table(self):
        psi = Sinogram(m=0, pmax=8.0, samples=np.zeros((65, 4)))
        qs = np.linspace(0.1, 12.0, 40)
        table = np.empty((40, 48), dtype=complex)  # 33 offsets in 3 rows of 16
        got = _p_kernel(psi, qs, out=table)
        assert np.shares_memory(got, table)
        assert np.array_equal(got, _p_kernel(psi, qs))


class TestWindowedPolarSample:
    # Non-decaying random samples on a 256-sample grid: the window's cut-off
    # would show in the splines unless the margin hides it.  ``reach`` is how
    # far the nodes extend from the centre sample, in samples; ``arc`` the
    # span of their angles.
    @pytest.mark.parametrize(
        "reach, arc",
        [(10.0, 2.0 * np.pi), (100.0, 2.0 * np.pi), (127.9, 2.0 * np.pi), (60.0, 0.5)],
        ids=["interior", "within-margin", "edge", "off-centre"],
    )
    def test_matches_whole_grid_prefilter(self, reach, arc, grid256):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        qs = np.linspace(0.05, reach * grid256.spacing, 17)
        phis = np.linspace(0.0, arc, 23, endpoint=False) + 0.1
        got = polar_sample(values, grid256, qs, phis)
        assert relative_gap(got, reference_polar_sample(values, grid256, qs, phis)) < REL


class TestHalfTurnSpectrum:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("angle_offset", [0.0, np.pi / 2, 0.3])
    def test_matches_full_turn(self, m, angle_offset, grid64):
        f = random_solenoidal_field(m, grid64, seed=20 + m)
        pgrid = PolarFrequencyGrid(nq=40, qmax=8.0, ntheta=30)
        for j in range(m + 1):
            got = component_spectrum_polar(f, j, pgrid, angle_offset=angle_offset)
            ref = reference_spectrum_polar(f, j, pgrid, angle_offset=angle_offset)
            assert got.shape == ref.shape == (40, 30)
            assert relative_gap(got, ref) < REL


class TestSpectrumWindow:
    # The window is computed from the real component alone; at n = 128 the
    # padded dual grid has half-width pi / h = 25.13.
    # The first half turn is compared: next to the grid edge the spline
    # depends on which edge a node is near, so there the second half turn,
    # the first one's conjugate, differs from direct sampling by more than
    # rounding; the field must decay well inside the grid to avoid that.
    @pytest.mark.parametrize(
        "qmax, angle_offset",
        [(2.0, 0.0), (8.0, np.pi / 2), (8.0, 2.0), (12.5, 0.0), (25.0, 0.3), (25.1, np.pi / 2)],
        ids=["interior", "slice-checks", "lower-half", "half-band", "near-edge", "clipped"],
    )
    def test_matches_padded_transform(self, qmax, angle_offset, grid128):
        f = random_solenoidal_field(2, grid128, seed=5)
        pgrid = PolarFrequencyGrid(nq=48, qmax=qmax, ntheta=26)
        for j in (0, 2):
            got = component_spectrum_polar(f, j, pgrid, angle_offset=angle_offset)
            ref = reference_spectrum_polar(f, j, pgrid, angle_offset=angle_offset, turn=0.5)
            assert relative_gap(got[:, :13], ref) < REL

    @pytest.mark.parametrize("angle_offset", [np.pi, 1.5 * np.pi, 0.25 * np.pi])
    def test_one_sided_windows(self, angle_offset, grid128):
        # one node at q = 15, 76 samples from the centre: its window (48
        # samples on each side) lies wholly on one side of kx = 0 or ky = 0.
        # The spectrum has decayed there, so the gap is measured against the
        # transform's bound h^2 / 2pi * sum |f_1|.
        f = random_solenoidal_field(1, grid128, seed=6)
        pgrid = PolarFrequencyGrid(nq=1, qmax=30.0, ntheta=2)
        got = component_spectrum_polar(f, 1, pgrid, angle_offset=angle_offset)
        ref = reference_spectrum_polar(f, 1, pgrid, angle_offset=angle_offset, turn=0.5)
        bound = grid128.spacing**2 / (2.0 * np.pi) * np.abs(f.components[1]).sum()
        assert np.abs(got[:, :1] - ref).max() < REL * bound

    @pytest.mark.parametrize("m", [1, 3])
    def test_slice_check_traffic(self, m, grid256):
        # what the slice checks sample at desk scale: component m on the half
        # turn at a quarter-turn offset, nq = 512, ntheta = 128, qmax = R
        f = random_solenoidal_field(m, grid256, seed=9 + m)
        pgrid = PolarFrequencyGrid(nq=512, qmax=8.0, ntheta=128)
        got = component_spectrum_polar(f, m, pgrid, angle_offset=np.pi / 2)
        ref = reference_spectrum_polar(f, m, pgrid, angle_offset=np.pi / 2, turn=0.5)
        assert relative_gap(got[:, :64], ref) < REL

    def test_raises_before_any_transform(self, monkeypatch, grid64):
        def refuse(*args, **kwargs):
            raise AssertionError("transformed before checking the nodes")

        f = random_solenoidal_field(1, grid64, seed=2)
        for name in ("fft", "rfft", "fft2", "rfft2"):
            monkeypatch.setattr(np.fft, name, refuse)
        # the padded dual grid of n = 64, R = 8 reaches 4 pi = 12.57; the
        # last radial node sits at 15.5 / 16 x 14 = 13.56
        pgrid = PolarFrequencyGrid(nq=16, qmax=14.0, ntheta=8)
        with pytest.raises(ValueError, match="exceeds the grid extent"):
            component_spectrum_polar(f, 1, pgrid)

    def test_pad_other_than_two_raises_before_any_transform(self, monkeypatch, grid64):
        def refuse(*args, **kwargs):
            raise AssertionError("transformed before checking the pad")

        f = random_solenoidal_field(1, grid64, seed=2)
        monkeypatch.setattr(np.fft, "rfft", refuse)
        pgrid = PolarFrequencyGrid(nq=16, qmax=8.0, ntheta=8)
        with pytest.raises(ValueError, match="oversample must be 2"):
            component_spectrum_polar(f, 1, pgrid, oversample=3)

    def test_peak_memory_below_one_padded_spectrum(self, grid128):
        import tracemalloc

        # the slice checks' half turn on qmax = R at n = 128: the padded
        # complex spectrum alone would be 256^2 x 16 B = 1.05 MB; measured
        # 0.83 MB, against 3.15 MB for the padded transform and sampling
        f = random_solenoidal_field(2, grid128, seed=3)
        pgrid = PolarFrequencyGrid(nq=128, qmax=grid128.radius, ntheta=64)
        component_spectrum_polar(f, 2, pgrid, angle_offset=np.pi / 2)  # warm FFT caches
        tracemalloc.start()
        try:
            component_spectrum_polar(f, 2, pgrid, angle_offset=np.pi / 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * grid128.n) ** 2 * 16


class TestSharedFill:
    # Every angle sampled from an operator filled for its own nodes: the
    # first angle of each group, whose fill the operator holds, comes out
    # bytewise the same, and every other member to rounding.  At ntheta = 32
    # a group holds theta, pi/2 - theta, pi/2 + theta and pi - theta (modulo
    # a half turn); at ntheta = 30 only theta and pi - theta.
    @staticmethod
    def alone(f, j, pgrid, angle_offset, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(fields, "_angle_groups", lambda ntheta: [(a,) for a in range(ntheta // 2)])
            return component_spectrum_polar(f, j, pgrid, angle_offset=angle_offset)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("ntheta, angle_offset", [(32, np.pi / 2), (32, 0.0), (30, np.pi / 2)])
    def test_members_match_their_own_fill(self, m, ntheta, angle_offset, grid128, monkeypatch):
        f = random_solenoidal_field(m, grid128, seed=40 + m)
        pgrid = PolarFrequencyGrid(nq=48, qmax=8.0, ntheta=ntheta)
        groups = fields._angle_groups(ntheta)
        assert max(map(len, groups)) == (4 if ntheta % 4 == 0 else 2)
        shared = component_spectrum_polar(f, m, pgrid, angle_offset=angle_offset)
        alone = self.alone(f, m, pgrid, angle_offset, monkeypatch)
        firsts = [group[0] for group in groups]
        assert shared[:, firsts].tobytes() == alone[:, firsts].tobytes()
        assert np.abs(shared - alone).max() <= 1e-14 * np.abs(alone).max()

    def count_fills(self, monkeypatch):
        fills = []
        original = grids._spline_taps

        def counted(*args):
            fills.append(1)  # one entry per operator fill
            return original(*args)

        monkeypatch.setattr(grids, "_spline_taps", counted)
        return fills

    @pytest.mark.parametrize("angle_offset, nq, expected_fills", [
        (np.pi / 2, 16, 3), (0.0, 16, 3), (0.3, 16, 8), (np.pi / 2, 600, 3),
    ])
    def test_one_fill_per_group_and_no_map_coordinates(
        self, angle_offset, nq, expected_fills, grid128, monkeypatch
    ):
        # at ntheta = 16 a quarter-turn offset groups the eight angles below
        # pi as (0, 4), (1, 3, 5, 7) and (2, 6), and any other offset leaves
        # them alone; 600 radii take one fill per group, as 16 do
        f = random_solenoidal_field(1, grid128, seed=3)
        pgrid = PolarFrequencyGrid(nq=nq, qmax=8.0, ntheta=16)
        expected = component_spectrum_polar(f, 1, pgrid, angle_offset=angle_offset)
        fills = self.count_fills(monkeypatch)
        mapped = []
        original = ndimage.map_coordinates

        def counted(*args, **kwargs):
            mapped.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ndimage, "map_coordinates", counted)
        got = component_spectrum_polar(f, 1, pgrid, angle_offset=angle_offset)
        assert got.tobytes() == expected.tobytes()
        assert (len(fills), len(mapped)) == (expected_fills, 0)

    def test_clipped_window_samples_each_angle_alone(self, grid128, monkeypatch):
        # qmax = 25.1 reaches within the margin of the padded dual grid's
        # edge at 25.13: the coefficients there depend on the edge, which a
        # reflection through the centre does not map onto itself
        f = random_solenoidal_field(2, grid128, seed=5)
        pgrid = PolarFrequencyGrid(nq=48, qmax=25.1, ntheta=32)
        alone = self.alone(f, 2, pgrid, np.pi / 2, monkeypatch)
        fills = self.count_fills(monkeypatch)
        shared = component_spectrum_polar(f, 2, pgrid, angle_offset=np.pi / 2)
        assert len(fills) == 16
        assert shared.tobytes() == alone.tobytes()

    def test_off_centre_arc_samples_each_angle_alone(self, grid256, monkeypatch):
        # an arc of 0.5 rad 60 samples out: no angle's reflection is a node
        rng = np.random.default_rng(3)
        values = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        qs = np.linspace(0.05, 60.0 * grid256.spacing, 17)
        phis = np.linspace(0.0, 0.5, 23, endpoint=False) + 0.1
        fills = self.count_fills(monkeypatch)
        got = polar_sample(values, grid256, qs, phis)
        assert len(fills) == 23
        assert relative_gap(got, reference_polar_sample(values, grid256, qs, phis)) < REL


def _noise_sinogram(m, num_p, ntheta=32, seed=0):
    # no parity in p and no moment structure: not range data
    rng = np.random.default_rng(100 * m + num_p + seed)
    return Sinogram(m=m, pmax=8.0, samples=rng.standard_normal((num_p, ntheta)))


class TestHalfPlaneSeries:
    @pytest.mark.parametrize("num_p", [64, 65])
    @pytest.mark.parametrize("m, power", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2), (3, 0), (3, 3)])
    def test_matches_full_plane_loop_on_noise(self, m, power, num_p, grid64):
        psi = _noise_sinogram(m, num_p)
        got = _quarter_turn_series(psi, grid64, power)
        ref = half_plane(reference_quarter_turn_series(psi, grid64, power))
        assert relative_gap(got, ref) < REL

    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_full_plane_loop_on_range_data(self, m, grid128):
        f = random_solenoidal_field(m, grid128, seed=40 + m)
        psi = forward(f, num_p=129, ntheta=64)
        for power in (0, m):
            got = _quarter_turn_series(psi, grid128, power)
            ref = half_plane(reference_quarter_turn_series(psi, grid128, power))
            assert relative_gap(got, ref) < REL

    def test_small_theta_grid_keeps_only_low_harmonics(self, grid64):
        # ntheta = 4 leaves l <= 1 at power 0 and l = 0 alone at power 1
        psi = _noise_sinogram(1, 33, ntheta=4)
        for power in (0, 1):
            got = _quarter_turn_series(psi, grid64, power)
            ref = half_plane(reference_quarter_turn_series(psi, grid64, power))
            assert relative_gap(got, ref) < REL

    def test_block_count_changes_neither_values_nor_transforms(self, monkeypatch, grid64):
        # the theta side runs once per call: per-block transforms would make
        # the FFT count grow with the number of radius blocks
        psi = _noise_sinogram(2, 65)
        ref = half_plane(reference_quarter_turn_series(psi, grid64, 2, radii_per_block=37))
        counts = []
        for block in (512, 37, 5):
            calls = []
            for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "fftn", "ifftn"):
                original = getattr(np.fft, name)

                def counted(*args, _original=original, **kwargs):
                    calls.append(1)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(np.fft, name, counted)
            monkeypatch.setattr(inversion, "_RADII_PER_BLOCK", block)
            got = _quarter_turn_series(psi, grid64, 2)
            monkeypatch.undo()
            assert relative_gap(got, ref) < REL
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts == [counts[0]] * 3


class TestSpectralDivergenceGate:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_spatial_rows_on_noise(self, m, n):
        # seeded noise has content up to the Nyquist row and column
        rng = np.random.default_rng(10 * n + m)
        grid = CartesianGrid(n=n, radius=8.0)
        f = TensorField2D(m=m, grid=grid, components=rng.standard_normal((m + 1, n, n)))
        ref = reference_divergence_residual(f)
        assert abs(relative_divergence_residual(f) - ref) < REL * ref

    @pytest.mark.parametrize("kind", ["generic", "potential"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_spatial_rows_on_gaussians(self, kind, m, grid256):
        f = gaussian_test_field(m, kind, grid256)
        ref = reference_divergence_residual(f)
        assert ref > 1e-2
        assert abs(relative_divergence_residual(f) - ref) < REL * ref

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_solenoidal_fields_read_rounding(self, m, grid256):
        f = random_solenoidal_field(m, grid256, seed=7)
        assert reference_divergence_residual(f) < REL
        assert relative_divergence_residual(f) < REL

    def test_nyquist_bins_carry_no_derivative(self, grid64):
        # (-1)^i along x lives on the Nyquist row alone: the real part of the
        # spatial row drops its kx derivative, and so must the gate
        sign = (-1.0) ** np.arange(64)
        comps = np.array([np.outer(sign, np.ones(64)), np.outer(np.ones(64), sign)])
        f = TensorField2D(m=1, grid=grid64, components=comps)
        assert reference_divergence_residual(f) == 0.0
        assert relative_divergence_residual(f) < 1e-15

    @pytest.mark.parametrize("m", [1, 3])
    def test_forward_transforms_only(self, m, monkeypatch, grid64):
        f = random_solenoidal_field(m, grid64, seed=1)  # synthesis itself transforms back
        expected = relative_divergence_residual(f)
        calls = []
        rfft2 = np.fft.rfft2

        def counted(*args, **kwargs):
            calls.append(1)
            return rfft2(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the gate made an inverse transform")

        monkeypatch.setattr(np.fft, "rfft2", counted)
        for name in ("ifft", "irfft", "ifft2", "irfft2", "ifftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        assert relative_divergence_residual(f) == expected
        assert len(calls) == m + 1


def _noise_field(m, n=64, seed=0):
    # seeded noise has content up to the Nyquist row and column
    rng = np.random.default_rng(1000 * seed + 10 * n + m)
    grid = CartesianGrid(n=n, radius=8.0)
    return TensorField2D(m=m, grid=grid, components=rng.standard_normal((m + 1, n, n)))


def _noise_amplitude(m, grid, seed=0):
    """A seeded amplitude of a real field: noise, conjugate-symmetrized, zero on the boundary."""
    rng = np.random.default_rng(50 + 10 * m + seed)
    n = grid.n
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    amp = np.zeros((n, n), dtype=complex)
    inner = noise[1:, 1:]
    amp[1:, 1:] = 0.5 * (inner + (-1.0) ** m * np.conj(inner[::-1, ::-1]))
    amp[[1, -1], :] = 0.0
    amp[:, [1, -1]] = 0.0
    return amp


def _gaussian_amplitude(m, grid, width):
    qx, qy = grid.dual().mesh()
    q = np.hypot(qx, qy)
    phi = np.arctan2(qy, qx)
    return (1j**m) * (q * width) ** m * np.exp(-((q * width) ** 2) / 2.0) * (1.0 + 0.3 * np.cos(2 * phi))


class TestRealTransformKernels:
    # each kernel that transforms half the frequency plane against its
    # complex-FFT form over the whole plane, to 1e-14 of the peak; the gate's
    # residual is relative to the field norm, so its gap is too
    TOL = 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gate_matches_fold(self, m, grid256):
        fields = [_noise_field(m, seed=s) for s in range(3)] + [_noise_field(m, n=256)]
        fields += [gaussian_test_field(m, kind, grid256, width=w)
                   for kind in ("generic", "potential", "solenoidal") for w in (0.8, 1.0)]
        fields.append(random_solenoidal_field(m, grid256, seed=7 + m))
        for f in fields:
            ref = reference_divergence_fold(f)
            assert abs(relative_divergence_residual(f) - ref) < self.TOL * max(ref, 1.0)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_projection_matches_whole_plane(self, m, grid128):
        fields = [_noise_field(m, seed=s) for s in range(3)]
        fields += [gaussian_test_field(m, "generic", grid128, width=w) for w in (0.8, 1.0)]
        if m > 0:
            fields.append(gaussian_test_field(m, "potential", grid128))
        for f in fields:
            got = solenoidal_project(f).components
            ref = f.components if m == 0 else reference_solenoidal_project(f)
            # potential fields project to rounding: the scale is the input's
            assert np.abs(got - ref).max() < self.TOL * np.abs(f.components).max()

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_synthesis_matches_whole_plane(self, m, grid64, grid128):
        cases = [(_noise_amplitude(m, grid64, seed=s), grid64) for s in range(3)]
        cases += [(_gaussian_amplitude(m, grid128, w), grid128) for w in (0.8, 1.0)]
        for amp, grid in cases:
            got = _synthesize_solenoidal(amp, m, grid).components
            assert relative_gap(got, reference_synthesize(amp, m, grid)) < self.TOL

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("num_p", [64, 65])
    def test_inversion_routes_match_whole_plane_on_noise(self, m, num_p, grid64):
        psi = _noise_sinogram(m, num_p, seed=3)
        got = invert(psi, grid64, check_range=False).components
        assert relative_gap(got, reference_invert(psi, grid64)) < self.TOL
        got = invert_coefficient_route(psi, grid64)
        assert relative_gap(got, reference_coefficient_route(psi, grid64)) < self.TOL

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("kind", ["gaussian", "random"])
    def test_inversion_routes_match_whole_plane_on_range_data(self, m, kind, grid128):
        if kind == "random":
            f = _decayed_field(m, grid128)
        else:
            f = gaussian_test_field(m, "solenoidal", grid128, width=0.8)
        psi = forward(f, num_p=129, ntheta=64)
        got = invert(psi, grid128, check_range=False).components
        assert relative_gap(got, reference_invert(psi, grid128)) < self.TOL
        got = invert_coefficient_route(psi, grid128)
        assert relative_gap(got, reference_coefficient_route(psi, grid128)) < self.TOL


def test_no_complex_2d_transform_in_the_solenoidal_kernels(monkeypatch, grid64):
    # the gate, the projection and both inversion routes transform real data
    # on the half plane; a complex fft2 or ifft2 creeping back in fails here
    f = random_solenoidal_field(2, grid64, seed=11)
    generic = gaussian_test_field(2, "generic", grid64)
    psi = forward(f, num_p=65, ntheta=32)

    def refuse(*args, **kwargs):
        raise AssertionError("complex 2D transform of real data")

    monkeypatch.setattr(np.fft, "fft2", refuse)
    monkeypatch.setattr(np.fft, "ifft2", refuse)
    assert relative_divergence_residual(f) < 1e-12
    assert relative_divergence_residual(solenoidal_project(generic)) < 1e-12
    assert invert(psi, grid64).m == 2
    assert invert_coefficient_route(psi, grid64).shape == (64, 64)


def reference_random_amplitude(m, seed, width):
    """The closure ``random_solenoidal_field`` sampled its amplitude with.

    Per harmonic ``0 <= l <= 3`` it adds ``c_l (q w)^(m+l) exp(-(q w)^2/2)
    e^{i l phi}``, with ``phi`` from ``arctan2``, and the realness partner
    ``(-1)^(m+l) conj(c_l) (...) e^{-i l phi}`` for ``l > 0``; the ``c_l``
    are drawn from ``seed`` as the generator draws them.
    """
    rng = np.random.default_rng(seed)
    coeffs = {}
    for l in range(4):
        c = complex(rng.standard_normal(), rng.standard_normal())
        if l == 0:
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

    return amplitude


@pytest.mark.parametrize("width", [0.8, 1.0, 1.3, 8.0 / 6.0], ids=["0.8", "1.0", "1.3", "R/6"])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_random_field_matches_the_angle_closure(m, width, grid256):
    # the polynomial in Z = w (qx + i qy) against the per-harmonic angle
    # form, both through _synthesize_solenoidal: measured <= 6.9e-16 of the peak
    for seed in (7, 13):
        amplitude = reference_random_amplitude(m, seed, width)(*grid256.dual().mesh())
        ref = _synthesize_solenoidal(amplitude, m, grid256).components
        got = random_solenoidal_field(m, grid256, seed=seed, width=width).components
        assert relative_gap(got, ref) < 1e-15


def _decayed_field(m, grid):
    if m == 0:
        return gaussian_test_field(0, "generic", grid)
    return random_solenoidal_field(m, grid, seed=30 + m)


class TestColumnProjector:
    # rows built once per call against the per-angle collapse of the 2D
    # spline: at a grid column the collapse returns the 1D prefilter across
    # it, up to rounding
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "num_p, ntheta, pmax", [(257, 128, None), (256, 90, None), (33, 30, 11.0)],
        ids=["desk", "even-np", "beyond-radius"],
    )
    def test_matches_2d_collapse_on_decayed_fields(self, m, num_p, ntheta, pmax, grid256):
        f = _decayed_field(m, grid256)
        got = forward(f, num_p=num_p, ntheta=ntheta, pmax=pmax).samples
        ref = reference_forward(f, num_p, ntheta, pmax)
        assert relative_gap(got, ref) < 1e-14

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_2d_collapse_on_noise(self, m):
        # R / h = 48 is not a binary fraction at n = 96, so the reference's
        # columns land next to, not on, the grid's
        rng = np.random.default_rng(60 + m)
        grid = CartesianGrid(n=96, radius=8.0)
        f = TensorField2D(m=m, grid=grid, components=rng.standard_normal((m + 1, 96, 96)))
        got = forward(f, num_p=97, ntheta=32).samples
        assert relative_gap(got, reference_forward(f, 97, 32)) < 1e-12

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_2d_collapse_on_noise_without_partners(self, m):
        # ntheta % 4 != 0 gives every angle its own operator, and pmax beyond
        # the radius puts the outer lines outside the grid
        rng = np.random.default_rng(70 + m)
        grid = CartesianGrid(n=96, radius=8.0)
        f = TensorField2D(m=m, grid=grid, components=rng.standard_normal((m + 1, 96, 96)))
        got = forward(f, num_p=33, ntheta=30, pmax=11.0).samples
        assert relative_gap(got, reference_forward(f, 33, 30, 11.0)) < 1e-12
