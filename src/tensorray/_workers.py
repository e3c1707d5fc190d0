"""Run a kernel's independent tasks on the available cores.

The projector's angles, the spectrum sampler's real and imaginary spline
passes and the inversion series' radius blocks do not depend on each other,
and the numpy and scipy calls that do their work release the GIL.  Each is
split here over up to ``min(CPUs available, 4, tasks)`` threads: task ``k``
goes to thread ``k % workers``, the calling thread included.  Every task is
computed the same way on any thread and writes its own part of the output,
so results are byte-identical whatever the thread count.

Work run on the threads calls only numpy, scipy and private helpers, never a
public ``tensorray`` function: the benchmark tracer wraps those and keeps a
single span stack.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

# at most this many threads run a call's tasks: each holds its own working
# buffers (1.6 MB per projector thread at desk scale)
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


def run_round_robin(
    work: Callable[..., None], tasks: int, buffers: Callable[[], tuple] = tuple
) -> None:
    """Call ``work(range(k, tasks, workers), *buffers())`` for each ``k < workers``.

    ``workers = worker_count(tasks)``.  ``buffers`` runs on the calling
    thread, once per worker, so a worker's working arrays come from the
    caller's heap and are not left behind in a thread's.  The caller runs
    ``k = 0`` and a pool of ``workers - 1`` threads the rest; one worker (or
    none) makes no pool.  An error on any thread is raised here, after every
    thread has stopped.
    """
    workers = worker_count(tasks)
    if workers <= 1:
        work(range(tasks), *buffers())
        return
    chunks = [(range(k, tasks, workers), *buffers()) for k in range(workers)]
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(work, *chunk) for chunk in chunks[1:]]
        work(*chunks[0])
        for future in futures:
            future.result()
