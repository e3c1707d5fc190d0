"""The threaded spectral kernels: no output depends on the worker count.

The inversion series runs its blocks of radii through
``_workers.run_in_lockstep`` without waiting at its barrier; the projector's
blocks of lines, which wait there, are covered in ``test_ray.py``.  Every
output must be byte-identical for 1, 2, 3 and 4 workers, whatever the CPU
count of the host.  The polar spectrum sampler starts no thread at all.
"""

import sys
import threading

import numpy as np
import pytest

from tensorray import (
    PolarFrequencyGrid,
    Sinogram,
    component_spectrum_polar,
    forward,
    gaussian_test_field,
    polar_sample,
    random_solenoidal_field,
)
from tensorray import _workers, inversion
from tensorray.inversion import _quarter_turn_series

WORKERS = (1, 2, 3, 4)


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

        def work(chunk, _barrier, label):
            done.extend((task, label) for task in chunk)

        _workers.run_in_lockstep(work, tasks, buffers)
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

        def work(chunk, _barrier):
            if threading.current_thread() is not caller and chunk.start == 1:
                raise error
            finished.append(chunk.start)

        before = threading.active_count()
        with pytest.raises(RuntimeError) as excinfo:
            _workers.run_in_lockstep(work, 6)
        assert excinfo.value is error
        assert sorted(finished) == [0, 2]
        assert threading.active_count() == before


    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_aborts_the_barrier(self, failing, monkeypatch):
        # the failing worker never reaches the barrier the others wait at:
        # its error is raised, not the broken barrier, and no thread is left
        monkeypatch.setattr(_workers, "worker_count", lambda tasks: 3)
        error = RuntimeError("failed before the barrier")
        passed = []
        raised = []

        def work(chunk, barrier):
            if chunk.start == failing:
                raise error
            barrier.wait()
            passed.append(chunk.start)

        def call():
            try:
                _workers.run_in_lockstep(work, 3)
            except RuntimeError as exc:
                raised.append(exc)

        before = threading.active_count()
        runner = threading.Thread(target=call, daemon=True)
        runner.start()
        runner.join(timeout=60.0)
        assert not runner.is_alive()
        assert raised == [error]
        assert passed == []
        assert threading.active_count() == before

    def test_workers_wait_for_each_other(self, monkeypatch):
        # no worker starts its second step before every worker ended its first
        monkeypatch.setattr(_workers, "worker_count", lambda tasks: 3)
        steps = []  # list.append is atomic across threads

        def work(chunk, barrier):
            for step in range(4):
                steps.append(step)
                barrier.wait()

        _workers.run_in_lockstep(work, 5)
        assert steps == sorted(steps) and len(steps) == 12


class TestSequentialSpectrum:
    # four workers allowed, but any thread pool raises: the spectrum sampler
    # must run on the calling thread and give the bytes of an unpatched call
    @staticmethod
    def assert_no_pool_same_bytes(monkeypatch, compute):
        expected = compute()

        def no_pool(*args, **kwargs):
            raise AssertionError("the spectrum sampler started a thread pool")

        with monkeypatch.context() as patch:
            patch.setattr(_workers, "worker_count", lambda tasks: 4)
            patch.setattr(_workers, "ThreadPoolExecutor", no_pool)
            got = compute()
        assert np.abs(expected).max() > 0.0
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("angle_offset", [0.0, np.pi / 2, 0.3, np.pi])
    def test_spectrum_starts_no_thread(self, m, angle_offset, grid128, monkeypatch):
        # the quarter-turn offsets share fills within a group, 0.3 does not
        f = _field(m, grid128)
        pgrid = PolarFrequencyGrid(nq=600, qmax=8.0, ntheta=32)
        for j in range(m + 1):
            self.assert_no_pool_same_bytes(
                monkeypatch,
                lambda: component_spectrum_polar(f, j, pgrid, angle_offset=angle_offset),
            )

    def test_polar_sample_starts_no_thread(self, grid128, monkeypatch):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        qs, phis = np.linspace(0.1, 7.0, 50), np.linspace(0.0, 6.0, 37)
        self.assert_no_pool_same_bytes(monkeypatch, lambda: polar_sample(values, grid128, qs, phis))


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
