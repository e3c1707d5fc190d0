"""Run a kernel's independent tasks on the available cores.

The projector's blocks of lines and the inversion series' radius blocks do
not depend on each other, and the numpy and scipy calls that do their work
release the GIL.  (The polar spectrum sampler runs on the calling thread:
its fills are many small numpy calls that hold the GIL, and a second thread
made it slower.)
Each is split here over up to ``min(CPUs available, 4, tasks)`` threads by
:func:`run_in_lockstep`: task ``k`` goes to thread ``k % workers``, the
calling thread included.
Every task is computed the same way on any thread and writes its own part of
the output, so results are byte-identical whatever the thread count.

The projector's workers also share working arrays: each angle group's rows
are filled by all of them, then read by all of them.  They wait for each
other at a barrier between those steps; the other kernels never wait and
ignore it.  A worker that fails aborts the barrier, so no other worker waits
for it forever.

Work run on the threads calls only numpy, scipy and private helpers, never a
public ``tensorray`` function: the benchmark tracer wraps those and keeps a
single span stack.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

# at most this many threads run a call's tasks: each holds its own working
# buffers (a projector thread its sparse operator for a block of lines, sized
# from one node budget for all of them; the angle group's rows, 2.1 MB at desk
# scale, are shared)
_MAX_WORKERS = 4


def worker_count(tasks: int) -> int:
    """Threads that run ``tasks`` tasks.

    As many as the CPUs this process may run on, but at most
    ``_MAX_WORKERS`` and at most one per task.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS, tasks)


def run_in_lockstep(
    work: Callable[..., None], tasks: int, buffers: Callable[[], tuple] = tuple
) -> None:
    """Call ``work(range(k, tasks, workers), barrier, *buffers())`` for each ``k < workers``.

    ``workers = worker_count(tasks)``, and ``barrier`` is one
    ``threading.Barrier`` for all of them, which work that never waits on
    the other workers ignores.  ``buffers`` runs on the calling
    thread, once per worker, so a worker's working arrays come from the
    caller's heap and are not left behind in a thread's.  The caller runs
    ``k = 0`` and a pool of ``workers - 1`` threads the rest; one worker (or
    none) makes no pool.  An error on any thread aborts the barrier, so the
    other workers stop at their next wait instead of waiting forever; it is
    raised here, after every thread has stopped.
    """
    workers = worker_count(tasks)
    barrier = threading.Barrier(max(workers, 1))

    def run(chunk: range, *args) -> None:
        try:
            work(chunk, barrier, *args)
        except threading.BrokenBarrierError:
            pass  # another worker failed and aborted the barrier: its error is raised
        except BaseException:
            barrier.abort()
            raise

    if workers <= 1:
        run(range(tasks), *buffers())
        return
    chunks = [(range(k, tasks, workers), *buffers()) for k in range(workers)]
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(run, *chunk) for chunk in chunks[1:]]
        run(*chunks[0])
        for future in futures:
            future.result()
