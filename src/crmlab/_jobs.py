"""Work run beside the caller: forked worker processes, and a helper thread.

Cross-validation runs jobs ``run(0), ..., run(count - 1)`` and merges their
results in index order.  :func:`map_jobs` spreads them over
:func:`worker_count` processes forked from the caller.  ``run`` reaches the
workers through ``fork``, not pickling, so it may be a closure over the
caller's data, which the workers then share without copying; only a job
index goes to a worker and only its result comes back.  With one worker
(one job, or one usable CPU), without the ``fork`` start method, or inside a
daemonic worker process (which may not have children), the jobs run in
process.

:func:`prefetched` hands a caller the items of an iterator in order while
one helper thread produces the next ones, so producing an item overlaps the
caller's work on the one before.  It pays where both sides are native code
that releases the interpreter lock, such as numpy's normal draws and the
ufuncs of a softmax.  With one item, or one usable CPU, the items are
produced inline.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, TypeVar

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
    yet started are cancelled.  A worker that dies raises
    ``ChildProcessError``, an ``OSError`` like a fork that fails.
    """
    workers = worker_count(count)
    if workers > 1:
        # Imported here, so a process that never forks does not pay for them.
        import multiprocessing

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker, initargs=(run,),
            )
            try:
                return list(pool.map(_worker_job, range(count)))
            except BrokenExecutor as exc:  # a worker died
                raise ChildProcessError(str(exc)) from None
            finally:
                pool.shutdown(cancel_futures=True)
    return [run(index) for index in range(count)]


# Items a prefetched producer may hold ready before the caller takes them.
_AHEAD = 2


def _produce(items: Iterator, slots, stop) -> None:
    """Put ``(True, item)`` for each item of ``items`` in ``slots``, then
    ``(False, None)``; an exception goes in as ``(False, exc)``, and a set
    ``stop`` ends the loop after the item in hand."""
    try:
        for item in items:
            slots.put((True, item))
            if stop.is_set():
                return
    except BaseException as exc:  # handed to the caller, which raises it
        slots.put((False, exc))
    else:
        slots.put((False, None))


def _taken(slots) -> Iterator:
    """The items :func:`_produce` puts in ``slots``, raising its exception."""
    while True:
        ok, value = slots.get()
        if not ok:
            if value is None:
                return
            raise value
        yield value


@contextmanager
def prefetched(items: Iterable[T], count: int) -> Iterator[Iterator[T]]:
    """The ``count`` items of ``items`` in order, produced one ahead of the
    caller by a helper thread, with at most two waiting.

    An exception from the producer reaches the caller with its type.  On
    leaving the ``with`` block, normally or by an exception, the producer is
    stopped after the item in hand and its thread joined, so no thread
    outlives the block.  With one item, or one usable CPU (the rule of
    :func:`map_jobs`), the items are produced inline by the caller.
    """
    if worker_count(count) < 2:
        yield iter(items)
        return
    # Imported here, so a process that never prefetches does not pay for them.
    import queue
    import threading

    slots = queue.Queue(_AHEAD)
    stop = threading.Event()
    producer = threading.Thread(
        target=_produce, args=(iter(items), slots, stop), daemon=True
    )
    producer.start()
    try:
        yield _taken(slots)
    finally:
        stop.set()
        # Emptying the slots wakes a producer blocked on a full queue; it
        # then puts at most one item, which fits, and sees ``stop``.
        while True:
            try:
                slots.get_nowait()
            except queue.Empty:
                break
        producer.join()
