"""The thread count of the OpenBLAS that numpy loaded, read and set through its
C API.

Every command runs on one thread (see `cli.main`), and so do the library's
front-end tasks (`experiment._extract_chunk`) and experiment folds
(`experiment._fold_worker`). A GEMM with a long inner dimension can round
differently on one thread and on several: training's weight gradients sum over
batch x time, and the ELM's and t-SNE's products change too. Folds get their
cores from ``--jobs`` instead, and the front-end's products are small.
`sermtl hlf`'s scoring pass alone runs on `all_cores`: every product that
scoring runs gives the same bits on 1, 2 and 4 threads (tests/test_blas.py
checks each shape), so its posteriors do not depend on the count.

numpy's wheels export that API with a ``scipy_`` prefix and a ``64_`` suffix
(``scipy_openblas_set_num_threads64_``); system builds export the plain names.
With any other BLAS, or where ``/proc/self/maps`` cannot be read, nothing here
has an effect.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os

import numpy  # noqa: F401  (maps numpy's BLAS into the process)

# (get, set) symbol pairs, numpy's wheel first: where a second OpenBLAS is mapped
# (scipy's wheel exports ``scipy_openblas_*`` without the suffix), numpy's is chosen
_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) functions of the OpenBLAS mapped into this process, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()})
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:  # e.g. a file replaced on disk since it was mapped
            continue
    for get_name, set_name in _API:
        for lib in libs:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def threads() -> int | None:
    """This process's OpenBLAS thread count, or None without OpenBLAS."""
    api = _openblas()
    return None if api is None else api[0]()


@contextlib.contextmanager
def running_on(count: int):
    """Run the block on ``count`` OpenBLAS threads, then restore the caller's
    count, whether the block returns or raises."""
    api = _openblas()
    if api is None:
        yield
        return
    get, set_ = api
    previous = get()
    set_(count)
    try:
        yield
    finally:
        set_(previous)


def one_thread():
    """Run the block on one OpenBLAS thread, then restore the previous count.

    A GEMM with a long inner dimension (a few hundred and up) can round
    differently on one thread and on several, so pinning the count makes the
    block's results independent of it.
    """
    return running_on(1)


def all_cores():
    """Run the block on one OpenBLAS thread per CPU this process may run on
    (``os.sched_getaffinity``), whatever ``OPENBLAS_NUM_THREADS`` says, then
    restore the previous count. Only for products whose bits do not depend on
    the thread count."""
    return running_on(len(os.sched_getaffinity(0)))
