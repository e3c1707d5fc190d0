"""The threaded spectral kernels: no output depends on the worker count.

The spectrum sampler runs its real and imaginary spline passes, and the
inversion series its blocks of radii, through ``_workers.run_round_robin``;
the projector's angles are covered in ``test_ray.py``.  Every output must be
byte-identical for 1, 2 and 3 workers, whatever the CPU count of the host.
"""

import sys
import threading

import numpy as np
import pytest
from scipy import ndimage

from tensorray import (
    PolarFrequencyGrid,
    Sinogram,
    component_spectrum_polar,
    forward,
    gaussian_test_field,
    random_solenoidal_field,
)
from tensorray import _workers, inversion
from tensorray.inversion import _quarter_turn_series

WORKERS = (1, 2, 3)


def outputs_by_workers(monkeypatch, compute):
    outputs = []
    for workers in WORKERS:
        monkeypatch.setattr(_workers, "worker_count", lambda tasks, k=workers: k)
        outputs.append(compute())
    return outputs


def assert_byte_identical(outputs):
    assert all(np.array_equal(out, outputs[0]) for out in outputs[1:])
    assert all(out.tobytes() == outputs[0].tobytes() for out in outputs[1:])


def _field(m, grid):
    if m == 0:
        return gaussian_test_field(0, "generic", grid)
    return random_solenoidal_field(m, grid, seed=70 + m)


class TestRoundRobin:
    @pytest.mark.parametrize("tasks, workers", [(0, 2), (1, 1), (5, 1), (5, 2), (7, 3), (2, 4)])
    def test_each_task_once_on_its_chunk(self, tasks, workers, monkeypatch):
        monkeypatch.setattr(_workers, "worker_count", lambda tasks, k=workers: k)
        done = []  # list.append is atomic across threads
        made = []

        def buffers():
            made.append(threading.current_thread())
            return (len(made),)

        def work(chunk, label):
            done.extend((task, label) for task in chunk)

        _workers.run_round_robin(work, tasks, buffers)
        assert sorted(task for task, _ in done) == list(range(tasks))
        # buffers are made on the calling thread, one set per worker, and
        # task t runs on chunk t % workers with that chunk's set
        assert made == [threading.current_thread()] * workers
        assert all(label == task % workers + 1 for task, label in done)

    def test_error_on_a_worker_is_raised_after_all_stop(self, monkeypatch):
        monkeypatch.setattr(_workers, "worker_count", lambda tasks: 3)
        caller = threading.current_thread()
        error = RuntimeError("failed on a worker")
        finished = []

        def work(chunk):
            if threading.current_thread() is not caller and chunk.start == 1:
                raise error
            finished.append(chunk.start)

        before = threading.active_count()
        with pytest.raises(RuntimeError) as excinfo:
            _workers.run_round_robin(work, 6)
        assert excinfo.value is error
        assert sorted(finished) == [0, 2]
        assert threading.active_count() == before


class TestThreadedSpectrum:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("angle_offset", [0.0, np.pi / 2])
    def test_worker_count_changes_no_byte(self, m, angle_offset, grid128, monkeypatch):
        f = _field(m, grid128)
        pgrid = PolarFrequencyGrid(nq=64, qmax=8.0, ntheta=32)
        for j in range(m + 1):
            outputs = outputs_by_workers(
                monkeypatch,
                lambda: component_spectrum_polar(f, j, pgrid, angle_offset=angle_offset),
            )
            assert np.abs(outputs[0]).max() > 0.0
            assert_byte_identical(outputs)

    def test_two_spline_passes_per_call(self, grid64, monkeypatch):
        # one real and one imaginary pass, whichever thread runs them
        f = random_solenoidal_field(1, grid64, seed=3)
        pgrid = PolarFrequencyGrid(nq=16, qmax=8.0, ntheta=8)
        expected = component_spectrum_polar(f, 1, pgrid)
        calls = []
        original = ndimage.map_coordinates

        def counted(*args, **kwargs):
            calls.append(threading.current_thread())
            return original(*args, **kwargs)

        monkeypatch.setattr(_workers, "worker_count", lambda tasks: 2)
        monkeypatch.setattr(ndimage, "map_coordinates", counted)
        got = component_spectrum_polar(f, 1, pgrid)
        assert np.array_equal(got, expected)
        assert len(calls) == 2
        assert len(set(calls)) == 2


class TestThreadedSeries:
    # 37 radii per block deals n = 64's 317 radii in band out as 9 blocks
    @pytest.mark.parametrize("num_p", [64, 65])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_worker_count_changes_no_byte_on_noise(self, m, num_p, grid64, monkeypatch):
        rng = np.random.default_rng(10 * m + num_p)
        psi = Sinogram(m=m, pmax=8.0, samples=rng.standard_normal((num_p, 32)))
        monkeypatch.setattr(inversion, "_RADII_PER_BLOCK", 37)
        for power in sorted({0, m}):
            outputs = outputs_by_workers(monkeypatch, lambda: _quarter_turn_series(psi, grid64, power))
            assert np.abs(outputs[0]).max() > 0.0
            assert_byte_identical(outputs)

    def test_more_workers_than_cores_with_fast_switching(self, grid64, monkeypatch):
        # six workers on nine blocks, switching threads every microsecond: a
        # block that wrote outside its own points, or two workers sharing a
        # buffer, would lose or mix values
        rng = np.random.default_rng(5)
        psi = Sinogram(m=2, pmax=8.0, samples=rng.standard_normal((65, 32)))
        monkeypatch.setattr(inversion, "_RADII_PER_BLOCK", 37)
        monkeypatch.setattr(_workers, "worker_count", lambda tasks: 1)
        expected = _quarter_turn_series(psi, grid64, 2)
        monkeypatch.setattr(_workers, "worker_count", lambda tasks: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outputs = [_quarter_turn_series(psi, grid64, 2) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert_byte_identical([expected] + outputs)

    @pytest.mark.parametrize("m", [1, 3])
    def test_worker_count_changes_no_byte_at_full_blocks(self, m, grid128, monkeypatch):
        # n = 128 has 1,161 radii in band: two blocks of 512 and a short one
        psi = forward(_field(m, grid128), num_p=129, ntheta=64)
        for power in (0, m):
            outputs = outputs_by_workers(monkeypatch, lambda: _quarter_turn_series(psi, grid128, power))
            assert_byte_identical(outputs)
