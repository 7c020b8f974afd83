"""The thread count of the OpenBLAS that numpy loaded, read and set through its
C API, and the thread policy: the count each pass runs on.

A GEMM whose inner dimension is long can round differently on one thread and
on several. Training's three weight-gradient products (`nn.LSTMLayer`'s
``w_x`` and ``w_h``, `nn.DenseLayer`'s ``w``), which sum over batch x time, do,
and so do the ELM's and t-SNE's products. Every other product that training
runs at the default batch size and chunk length, and every product that
scoring runs, gives the same bits on 1, 2 and 4 threads (tests/test_blas.py
checks each shape and row count). So:

- a command runs on one thread (`one_thread`, entered by `cli.main`), and so
  does all that no pass below raises: the ELM, t-SNE, and an ``xval`` fold
  outside its fit;
- an LSTM fit runs on its share of the cores, ``max(1, cores // fits)`` with
  ``fits`` the fits that run at once: every core for `sermtl train` and a
  serial ``xval`` (`fit`);
- a DNN fit runs on one thread: its products are small, and it was no
  faster on two CPUs;
- the weight-gradient products run on one thread wherever they are computed;
- a front-end task runs on one thread: its products are small;
- `sermtl hlf`'s scoring pass runs on every core (`all_cores`).

"Every core" is one thread per CPU this process may run on
(``os.sched_getaffinity``), whatever ``OPENBLAS_NUM_THREADS`` says.

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
    count, whether the block returns or raises. Where the count already is
    ``count``, OpenBLAS's setter is not called."""
    api = _openblas()
    previous = None if api is None else api[0]()
    if previous in (None, count):
        yield
        return
    set_ = api[1]
    set_(count)
    try:
        yield
    finally:
        set_(previous)


def cores() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def one_thread():
    """Run the block on one OpenBLAS thread, then restore the previous count."""
    return running_on(1)


def all_cores():
    """Run the block on one OpenBLAS thread per CPU this process may run on,
    then restore the previous count. Only for products whose bits do not depend
    on the thread count."""
    return running_on(cores())


def fit(trunk: str, fits: int = 1):
    """Fit a model with a ``trunk`` trunk while ``fits`` fits run at once: an
    LSTM on ``max(1, cores() // fits)`` threads, a DNN on one."""
    return running_on(max(1, cores() // fits) if trunk == "lstm" else 1)
