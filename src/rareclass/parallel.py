"""Ordered map of independent, seeded tasks over one persistent fork pool.

`pmap(fn, items)` returns `[fn(*args) for args in items]`.  With more than one
usable CPU it runs on one `ProcessPoolExecutor`, created on first use and
reused by every later call, whose workers are forked from this process;
results come back in item order, so a caller reduces them exactly as its
loop did.  It runs inline when there is one CPU, fewer than two items, no
`fork` start method, or when called inside a worker, so pools never nest.
`fn` is pickled by reference, so it must be a module-level function, and
each item must seed its own randomness.  The worker count is the number of
CPUs this process may run on: limit it with `taskset`.  Callers hand `pmap`
natural units (a shadow round, a candidate subset, a whole fit, a forest
tree, a row to impute); it alone groups them into tasks.
"""

from __future__ import annotations

import atexit
import os

_pool = None              # (worker count, executor), made by the first pooled call
_in_worker = False


def workers() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                     # not available on this platform
        return os.cpu_count() or 1


def _enter_worker() -> None:
    global _in_worker
    _in_worker = True


def _shutdown() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


atexit.register(_shutdown)


def pmap(fn, items) -> list:
    """`[fn(*args) for args in items]`, on the pool when that can help.

    Items go out in contiguous chunks, about four per worker, so data that
    a chunk's items share is pickled once per chunk.  A call with fewer than
    8 * workers() items runs each item as its own task, so that a few long
    items, such as whole model fits, each go to the first free worker.
    """
    global _pool
    items, n = list(items), workers()
    if n < 2 or len(items) < 2 or _in_worker:
        return [fn(*args) for args in items]
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(*args) for args in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    if _pool is None or _pool[0] != n:
        _shutdown()
        _pool = n, ProcessPoolExecutor(n, multiprocessing.get_context("fork"),
                                       initializer=_enter_worker)
    try:
        return list(_pool[1].map(fn, *zip(*items), chunksize=max(1, len(items) // (4 * n))))
    except BrokenProcessPool:
        _pool = None                           # a worker died; the next call forks anew
        raise
