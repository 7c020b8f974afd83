"""Run the scoring-contract tests once per OpenBLAS CPU kernel.

Usage:
    PYTHONPATH=src python3 tools/kernel_matrix.py

The contract that a row's posteriors do not depend on the block, the chunk or
the BLAS thread count it is scored with (and that a reloaded model scores like
the one that wrote it) is checked by the tests of ``tests/test_mtl.py`` and
``tests/test_blas.py`` that ``-k "padded or same_bits or block or reloaded or
thread_count"`` selects. OpenBLAS picks its kernel from the CPU it finds; this
tool runs those tests in one child process per kernel (SkylakeX, Haswell,
Zen, Sandybridge, Nehalem and Prescott), with
``OPENBLAS_CORETYPE`` set in that child's environment only. For each it prints
the kernel asked for, the core name the library reports
(``scipy_openblas_get_corename64_`` in numpy's wheels, ``openblas_get_corename``
in system builds) and the counts of passed and failed tests. The children run
one after another. Each child's hypothesis example database starts empty in a
directory of its own, and its seed is fixed, so the counts repeat from run to
run and from checkout to checkout, and the checkout's ``.hypothesis`` is left
as it was.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Nehalem", "Prescott")
SELECTION = ["tests/test_mtl.py", "tests/test_blas.py",
             "-k", "padded or same_bits or block or reloaded or thread_count"]

# prints the core name of the OpenBLAS that numpy mapped into the process
_CORENAME = """
import ctypes, os, numpy
fields = [line.split(None, 5) for line in open("/proc/self/maps")]
paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()})
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        if hasattr(lib, name):
            getattr(lib, name).restype = ctypes.c_char_p
            print(getattr(lib, name)().decode())
            raise SystemExit
print("?")
"""


def _env(kernel: str) -> dict[str, str]:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, OPENBLAS_CORETYPE=kernel,
                PYTHONPATH=src if not path else os.pathsep.join([src, path]))


def run_kernel(kernel: str) -> tuple[str, int, int]:
    """(reported core name, passed, failed) of the selected tests under ``kernel``."""
    env = _env(kernel)
    core = subprocess.run([sys.executable, "-c", _CORENAME], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as storage:
        out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              "--hypothesis-seed", "0", *SELECTION],
                             cwd=ROOT, env=dict(env, HYPOTHESIS_STORAGE_DIRECTORY=storage),
                             capture_output=True, text=True).stdout
    counts = dict((word, int(n)) for n, word in re.findall(r"(\d+) (passed|failed|error)", out.splitlines()[-1]))
    return core, counts.get("passed", 0), counts.get("failed", 0) + counts.get("error", 0)


def main() -> int:
    print(f"{'kernel':12s} {'reported':12s} {'passed':>6s} {'failed':>6s}", flush=True)
    for kernel in KERNELS:
        core, passed, failed = run_kernel(kernel)
        print(f"{kernel:12s} {core:12s} {passed:6d} {failed:6d}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
