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

`set_blas_threads(n)` sets numpy's OpenBLAS thread count and returns the
old one; a run holds it at one, so row sums round the same at any count,
and every pool worker starts at one thread, whenever it was forked.
"""

from __future__ import annotations

import atexit
import ctypes
import glob
import os
import sys

import numpy as np

_pool = None              # (worker count, executor), made by the first pooled call
_in_worker = False
_blas = None              # OpenBLAS's (set, get) thread-count calls, () if none; found on first use


def workers() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                     # not available on this platform
        return os.cpu_count() or 1


def _enter_worker() -> None:
    global _in_worker
    _in_worker = True
    set_blas_threads(1)


def _shutdown() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


atexit.register(_shutdown)


def _blas_threads() -> tuple:
    """The thread-count calls of the OpenBLAS that numpy's wheel bundles,
    or () after one line on stderr naming the BLAS that lacks them."""
    global _blas
    if _blas is None:
        here = os.path.dirname(np.__file__)
        try:
            lib = ctypes.CDLL((glob.glob(here + ".libs/libscipy_openblas64_*")
                               + glob.glob(here + "/.dylibs/libscipy_openblas64_*"))[0])
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            _blas = set_threads, get_threads
        except (IndexError, OSError, AttributeError):
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            print(f"rareclass: numpy's BLAS ({blas.get('name')} {blas.get('version')}) has no "
                  "thread control here; artifacts may vary with its thread count", file=sys.stderr)
            _blas = ()
    return _blas


def set_blas_threads(n: int) -> int:
    """Set numpy's OpenBLAS to n threads and return the count it had; without
    thread control, change nothing and return n."""
    calls = _blas_threads()
    if not calls:
        return n
    threads = calls[1]()
    calls[0](n)
    return threads


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
        _blas_threads()                        # looked up here, so workers inherit the result
        _pool = n, ProcessPoolExecutor(n, multiprocessing.get_context("fork"),
                                       initializer=_enter_worker)
    try:
        return list(_pool[1].map(fn, *zip(*items), chunksize=max(1, len(items) // (4 * n))))
    except BrokenProcessPool:
        _pool = None                           # a worker died; the next call forks anew
        raise
