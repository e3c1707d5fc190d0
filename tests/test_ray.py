"""Forward projector: analytic anchors, parity, linearity, kernel."""

import os
import threading
import tracemalloc
from math import comb

import numpy as np
import pytest
from scipy import ndimage

from tensorray import (
    Sinogram,
    TensorField2D,
    forward,
    gaussian_test_field,
    parity_residual,
    random_solenoidal_field,
    solenoidal_project,
)
from tensorray import _workers, ray


def off_centre_gaussian(grid, width, centre):
    X, Y = grid.mesh()
    r2 = (X - centre[0]) ** 2 + (Y - centre[1]) ** 2
    return TensorField2D(m=0, grid=grid, components=np.exp(-r2 / (2.0 * width**2))[None])


class TestForward:
    def test_gaussian_anchor_desk_scale(self, grid256):
        # line integrals of exp(-|x|^2/2) are sqrt(2*pi) exp(-p^2/2)
        f = gaussian_test_field(0, "generic", grid256)
        psi = forward(f, num_p=257, ntheta=128)
        ps = psi.p_axis()
        exact = np.sqrt(2.0 * np.pi) * np.exp(-(ps**2) / 2.0)
        err = np.abs(psi.samples - exact[:, None]).max() / exact.max()
        assert err < 1e-6

    @pytest.mark.parametrize("centre", [(0.3, -0.4), (-0.5, -0.5)])
    def test_off_centre_gaussian_anchor_desk_scale(self, centre, grid256):
        # lines meet the centre c at offset p_c = -c_x sin(theta) + c_y cos(theta)
        w = 0.8
        psi = forward(off_centre_gaussian(grid256, w, centre), num_p=257, ntheta=128)
        thetas = psi.theta_axis()
        p_c = -centre[0] * np.sin(thetas) + centre[1] * np.cos(thetas)
        exact = np.sqrt(2.0 * np.pi) * w * np.exp(
            -((psi.p_axis()[:, None] - p_c[None, :]) ** 2) / (2.0 * w * w)
        )
        err = np.abs(psi.samples - exact).max() / exact.max()
        assert err < 5e-7

    def test_same_spline_as_2d_sampling_at_the_same_nodes(self, grid64):
        # oracle: the 2D interpolating cubic spline of the contracted field,
        # sampled where each line crosses the columns of the axis closer to xi
        # (the grid's own columns, h apart, each sample weighted by the step
        # h/|along| between them); every angle, theta >= pi included,
        # is computed from its own geometry, so the mirrored half turn is
        # checked without the mirror (odd ranks catch its sign, fields without
        # symmetry in p its flip)
        h, radius = grid64.spacing, grid64.radius
        cols = h * np.arange(-grid64.n // 2, grid64.n // 2)
        for m in (1, 2, 3):
            f = random_solenoidal_field(m, grid64, seed=m)
            psi = forward(f, num_p=21, ntheta=12)
            p = psi.p_axis()[:, None]
            for j, theta in enumerate(psi.theta_axis()):
                c, s = np.cos(theta), np.sin(theta)
                trig = [comb(m, k) * c ** (m - k) * s**k for k in range(m + 1)]
                spline = ndimage.spline_filter(
                    np.tensordot(trig, f.components, axes=(0, 0)), order=3, mode="constant"
                )
                weight = h / max(abs(c), abs(s))
                if abs(c) >= abs(s):
                    xs, ys = np.broadcast_to(cols, (p.size, cols.size)), p / c + cols * s / c
                else:
                    xs, ys = -p / s + cols * c / s, np.broadcast_to(cols, (p.size, cols.size))
                vals = ndimage.map_coordinates(
                    spline, [(xs.ravel() + radius) / h, (ys.ravel() + radius) / h],
                    order=3, mode="constant", cval=0.0, prefilter=False,
                ).reshape(xs.shape)
                expected = weight * vals.sum(axis=1)
                err = np.abs(psi.samples[:, j] - expected).max()
                assert err < 1e-12 * np.abs(expected).max(), (m, j)

    def test_zero_field(self, grid64):
        f = TensorField2D(m=1, grid=grid64, components=np.zeros((2, 64, 64)))
        psi = forward(f, num_p=33, ntheta=16)
        assert np.all(psi.samples == 0)

    def test_linearity(self, grid64):
        f = gaussian_test_field(1, "solenoidal", grid64)
        g = gaussian_test_field(1, "potential", grid64)
        combo = TensorField2D(
            m=1, grid=grid64, components=1.7 * f.components + g.components
        )
        lhs = forward(combo, num_p=33, ntheta=16).samples
        rhs = 1.7 * forward(f, num_p=33, ntheta=16).samples + forward(g, num_p=33, ntheta=16).samples
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_pmax_below_radius_rejected(self, grid64):
        f = gaussian_test_field(0, "generic", grid64)
        with pytest.raises(ValueError, match="truncated"):
            forward(f, pmax=4.0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"pmax": np.inf}, "pmax must be finite"),
            ({"pmax": np.nan}, "pmax must be finite"),
            # no explicit step is accepted, whether it was once valid (h / 2
            # on grid64) or not (non-finite, zero, above h)
            ({"t_step": 0.125}, "t_step is not settable"),
            ({"t_step": np.nan}, "t_step is not settable"),
            ({"t_step": 0.0}, "t_step is not settable"),
            ({"t_step": 1.0}, "t_step is not settable"),
        ],
        ids=["pmax-inf", "pmax-nan", "t_step-half-h", "t_step-nan", "t_step-0", "t_step-above-h"],
    )
    def test_invalid_range_rejected_before_projecting(self, kwargs, match, grid64, monkeypatch):
        def no_projection(*args, **kw):
            raise AssertionError("forward projected before validating")

        monkeypatch.setattr("tensorray.ray.ndimage.spline_filter1d", no_projection)
        monkeypatch.setattr("tensorray.ray._node_taps", no_projection)
        with pytest.raises(ValueError, match=match):
            forward(gaussian_test_field(0, "generic", grid64), **kwargs)

    def test_t_step_none_is_the_default(self, grid64):
        # None, the one value t_step accepts, changes no byte
        f = random_solenoidal_field(2, grid64, seed=5)
        default = forward(f, num_p=33, ntheta=12).samples
        assert default.tobytes() == forward(f, num_p=33, ntheta=12, t_step=None).samples.tobytes()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"num_p": 33.0}, "num_p must be an integer"),
            ({"num_p": np.float64(33.0)}, "num_p must be an integer"),
            ({"num_p": True}, "num_p must be an integer"),
            ({"num_p": "33"}, "num_p must be an integer"),
            ({"ntheta": 8.0}, "ntheta must be an integer"),
            ({"ntheta": np.True_}, "ntheta must be an integer"),
            ({"ntheta": 8.5}, "ntheta must be an integer"),
        ],
        ids=["num_p-float", "num_p-np-float", "num_p-bool", "num_p-str",
             "ntheta-float", "ntheta-np-bool", "ntheta-fraction"],
    )
    def test_non_integer_counts_rejected_before_prefiltering(
        self, kwargs, match, grid64, monkeypatch
    ):
        def no_work(*args, **kw):
            raise AssertionError("forward prefiltered or projected before validating")

        monkeypatch.setattr("tensorray.ray._node_taps", no_work)
        monkeypatch.setattr("tensorray.ray.ndimage.spline_filter1d", no_work)
        with pytest.raises(ValueError, match=match):
            forward(gaussian_test_field(0, "generic", grid64), **kwargs)

    def test_numpy_integer_counts_accepted(self, grid64):
        f = gaussian_test_field(1, "solenoidal", grid64)
        expected = forward(f, num_p=33, ntheta=8).samples
        got = forward(f, num_p=np.int64(33), ntheta=np.int32(8)).samples
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_default_path_builds_rows_once_per_call(self, m, grid64, monkeypatch):
        # one 1D prefilter per component and walking axis, no 2D prefilter,
        # no per-angle collapse of the walking axis, no generic spline pass,
        # and one operator per geometry: at ntheta = 12 the six angles below
        # pi pair as (0, 3), (1, 2) and (5, 4), and 21 lines x 64 columns
        # are one block of lines
        f = random_solenoidal_field(m, grid64, seed=10 + m)
        expected = forward(f, num_p=21, ntheta=12).samples
        calls = {"spline_filter1d": 0, "spline_filter": 0, "map_coordinates": 0, "einsum": 0,
                 "_node_taps": 0}
        lock = threading.Lock()  # worker threads fill the operators

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                with lock:
                    calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("spline_filter1d", "spline_filter", "map_coordinates"):
            counted(ndimage, name)
        counted(np, "einsum")
        counted(ray, "_node_taps")
        got = forward(f, num_p=21, ntheta=12).samples
        assert np.array_equal(got, expected)
        assert calls == {
            "spline_filter1d": 2 * (m + 1), "spline_filter": 0, "map_coordinates": 0, "einsum": 0,
            "_node_taps": 3,
        }

    @pytest.mark.parametrize("ntheta, pairs", [(12, [(0, 3), (1, 2), (5, 4)]),
                                               (16, [(0, 4), (1, 3), (2,), (6,), (7, 5)])])
    def test_angle_groups(self, ntheta, pairs):
        # the angle that walks x first; pi/4 and 3pi/4 pair with themselves
        assert ray._angle_groups(ntheta) == pairs

    @pytest.mark.parametrize("m", [1, 3])
    def test_partner_columns_match_their_own_geometry(self, m, grid64, monkeypatch):
        # every angle projected with an operator built from its own geometry:
        # the angles that own an operator come out bytewise the same, and each
        # partner to rounding (ntheta = 32: 0 <-> pi/2, the reversed family
        # theta <= pi/4 <-> pi/2 - theta, 3pi/2 - theta above 3pi/4, and the
        # self-paired pi/4 and 3pi/4); pmax beyond the radius puts lines
        # outside the grid
        f = random_solenoidal_field(m, grid64, seed=40 + m)
        paired = forward(f, num_p=41, ntheta=32, pmax=10.0).samples
        groups = ray._angle_groups(32)
        assert (0, 8) in groups and (1, 7) in groups and (15, 9) in groups
        assert (4,) in groups and (12,) in groups
        monkeypatch.setattr(ray, "_angle_groups", lambda ntheta: [(j,) for j in range(ntheta // 2)])
        alone = forward(f, num_p=41, ntheta=32, pmax=10.0).samples
        owners = [group[0] for group in groups]
        partners = [group[1] for group in groups if len(group) == 2]
        assert sorted(owners + partners) == list(range(16))
        assert paired[:, owners].tobytes() == alone[:, owners].tobytes()
        peak = np.abs(alone).max()
        assert np.abs(paired[:, partners] - alone[:, partners]).max() <= 1e-14 * peak

    def test_one_operator_per_angle_without_partners(self, grid64, monkeypatch):
        # pi/2 - theta is on the angle grid only when ntheta % 4 == 0; 21
        # lines x 64 columns are one block of lines
        fills = []
        original = ray._node_taps

        def counted(*args):
            fills.append(1)  # list.append is atomic across the worker threads
            return original(*args)

        monkeypatch.setattr(ray, "_node_taps", counted)
        forward(gaussian_test_field(1, "solenoidal", grid64), num_p=21, ntheta=90)
        assert len(ray._angle_groups(90)) == len(fills) == 45

    def test_desk_scale_memory(self, grid256, monkeypatch):
        # two workers, each with a pair's rows and an operator over blocks of
        # lines: measured 8.8 MB; the bound is the 8.2 MB that the per-angle
        # map_coordinates projector peaked at here, plus 2 MB
        f = random_solenoidal_field(3, grid256, seed=5)
        monkeypatch.setattr(_workers, "worker_count", lambda tasks: min(2, tasks))
        forward(f)  # imports scipy.sparse outside the measurement
        tracemalloc.start()
        try:
            forward(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (8.2 + 2.0) * 1e6

    @pytest.mark.parametrize("m", [1, 2])
    def test_kernel_annihilates_potential_parts(self, m, grid128):
        f = gaussian_test_field(m, "generic", grid128)
        pot = TensorField2D(
            m=m, grid=grid128,
            components=f.components - solenoidal_project(f).components,
        )
        num = np.abs(forward(pot, num_p=129, ntheta=64).samples).max()
        den = np.abs(forward(f, num_p=129, ntheta=64).samples).max()
        assert num / den < 1e-3

    @pytest.mark.parametrize("m", [1, 2])
    def test_forward_factors_through_projection(self, m, grid128):
        # the transform only sees the solenoidal part
        f = gaussian_test_field(m, "generic", grid128)
        a = forward(f, num_p=129, ntheta=64).samples
        b = forward(solenoidal_project(f), num_p=129, ntheta=64).samples
        assert np.abs(a - b).max() / np.abs(a).max() < 1e-3


class TestWorkers:
    """Angles are split over threads; the output never depends on how many."""

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_worker_count_changes_no_byte(self, m, grid64, monkeypatch):
        f = random_solenoidal_field(m, grid64, seed=20 + m) if m else off_centre_gaussian(
            grid64, 1.0, (0.3, -0.4)
        )
        # pmax beyond the grid radius: the outer lines sample only zeros,
        # which must stay unsigned whatever thread projects them
        for ntheta in (4, 12):
            outputs = []
            for workers in (1, 2, 3, ntheta // 2 + 3):
                monkeypatch.setattr(_workers, "worker_count", lambda tasks, k=workers: k)
                outputs.append(forward(f, num_p=33, ntheta=ntheta, pmax=11.0).samples)
            zeros = outputs[0] == 0.0
            assert zeros.any() and not np.signbit(outputs[0][zeros]).any()
            assert all(out.tobytes() == outputs[0].tobytes() for out in outputs[1:])

    def test_worker_count_follows_the_available_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert [_workers.worker_count(a) for a in (1, 2, 3, 64)] == [1, 2, 3, _workers._MAX_WORKERS]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _workers.worker_count(64) == 1
        # without an affinity mask the CPU count decides, 1 when unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _workers.worker_count(64) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _workers.worker_count(64) == 1

    def test_one_worker_makes_no_pool(self, grid64, monkeypatch):
        f = random_solenoidal_field(1, grid64, seed=3)
        expected = forward(f, num_p=21, ntheta=12).samples

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was made for one worker")

        monkeypatch.setattr(_workers, "worker_count", lambda tasks: 1)
        monkeypatch.setattr(_workers, "ThreadPoolExecutor", no_pool)
        assert forward(f, num_p=21, ntheta=12).samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_failure_propagates_and_leaves_no_thread(self, where, grid64, monkeypatch):
        f = random_solenoidal_field(2, grid64, seed=5)
        caller = threading.current_thread()
        error = RuntimeError(f"operator fill failed on the {where}")
        original = ray._node_taps

        def failing(*args, **kwargs):
            if (threading.current_thread() is caller) == (where == "caller"):
                raise error
            return original(*args, **kwargs)

        monkeypatch.setattr(_workers, "worker_count", lambda tasks: 3)
        monkeypatch.setattr(ray, "_node_taps", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as excinfo:
            forward(f, num_p=21, ntheta=12)
        assert excinfo.value is error
        assert threading.active_count() == before


class TestParityResidual:
    # forward outputs hold the parity by construction (the second half turn
    # is the first one mirrored), so on them these tests guard the mirror's
    # bookkeeping; the 2D-spline oracle checks the mirrored values themselves

    def test_forward_outputs_satisfy_parity(self, grid128):
        for m in (0, 1, 2):
            f = gaussian_test_field(m, "generic", grid128)
            psi = forward(f, num_p=65, ntheta=32)
            assert parity_residual(psi) < 1e-12

    @pytest.mark.parametrize("num_p, ntheta", [(257, 128), (256, 90)])
    def test_desk_scale_parity_rank3(self, num_p, ntheta, grid256):
        # ntheta = 128 has angles exactly at 45 and 135 degrees, where the
        # walking axis changes; ntheta = 90 pairs an even num_p with it
        f = random_solenoidal_field(3, grid256, seed=2)
        psi = forward(f, num_p=num_p, ntheta=ntheta)
        assert parity_residual(psi) < 1e-12

    def test_even_num_p_grid_is_still_symmetric(self, grid64):
        f = gaussian_test_field(1, "solenoidal", grid64)
        psi = forward(f, num_p=40, ntheta=16)
        assert parity_residual(psi) < 1e-12

    def test_constructed_violation(self):
        thetas = 2.0 * np.pi * np.arange(16) / 16
        samples = np.broadcast_to(np.cos(thetas), (9, 16)).copy()
        psi = Sinogram(m=0, pmax=4.0, samples=samples)
        # cos(theta + pi) = -cos(theta), so the mismatch is 2|cos| and the
        # normalized residual is exactly 2
        assert parity_residual(psi) == pytest.approx(2.0)

    def test_constant_sinogram_passes(self):
        psi = Sinogram(m=0, pmax=4.0, samples=np.ones((9, 16)))
        assert parity_residual(psi) == 0.0

    def test_zero_sinogram(self):
        psi = Sinogram(m=3, pmax=4.0, samples=np.zeros((9, 16)))
        assert parity_residual(psi) == 0.0


class TestSinogramValidation:
    def test_odd_ntheta_rejected(self):
        with pytest.raises(ValueError, match="even"):
            Sinogram(m=0, pmax=1.0, samples=np.zeros((5, 7)))

    def test_non_finite_rejected(self):
        bad = np.zeros((5, 8))
        bad[2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Sinogram(m=0, pmax=1.0, samples=bad)

    def test_samples_read_only(self, grid64):
        psi = forward(gaussian_test_field(0, "generic", grid64), num_p=17, ntheta=8)
        with pytest.raises(ValueError):
            psi.samples[0, 0] = 1.0
