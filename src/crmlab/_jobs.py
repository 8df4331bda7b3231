"""Independent jobs run over worker processes forked from the caller.

Cross-validation runs jobs ``run(0), ..., run(count - 1)`` and merges their
results in index order.  :func:`map_jobs` spreads them over
:func:`worker_count` processes forked from the caller.  ``run`` reaches the
workers through ``fork``, not pickling, so it may be a closure over the
caller's data, which the workers then share without copying; only a job
index goes to a worker and only its result comes back.  With one worker
(one job, or one usable CPU), without the ``fork`` start method, or inside a
daemonic worker process (which may not have children), the jobs run in
process.
"""

from __future__ import annotations

import os
from typing import Callable, TypeVar

T = TypeVar("T")


def worker_count(jobs: int) -> int:
    """Worker processes for ``jobs`` jobs: at most one per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(jobs, cpus)


# The job runner of a forked worker; set only in the worker processes.
_worker_run = None


def _init_worker(run) -> None:
    global _worker_run
    _worker_run = run


def _worker_job(index: int):
    return _worker_run(index)


def map_jobs(run: Callable[[int], T], count: int) -> list[T]:
    """``[run(0), ..., run(count - 1)]``, computed on forked workers.

    An exception from a job reaches the caller with its type; the jobs not
    yet started are cancelled.
    """
    workers = worker_count(count)
    if workers > 1:
        # Imported here, so a process that never forks does not pay for them.
        import multiprocessing

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker, initargs=(run,),
            )
            try:
                return list(pool.map(_worker_job, range(count)))
            finally:
                pool.shutdown(cancel_futures=True)
    return [run(index) for index in range(count)]
