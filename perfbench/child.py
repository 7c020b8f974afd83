"""Run a list of sermtl CLI commands in one process and write their timings as JSON.

    python3 child.py SPEC.json RESULT.json

SPEC holds ``src`` (the directory that holds the ``sermtl`` package),
``commands`` (a list of argv lists for ``sermtl.cli.main``) and ``trace_dir``
(null, or a directory for span files, which turns tracing on). Commands run in
order and stop at the first that returns non-zero. RESULT gets each command's
return code, wall time and standard output, the monotonic clock reading when
the last command returned, the peak resident set of this process and of its
largest reaped child (fold workers), and library versions.
"""
from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from sermtl import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"sermtl imported from {cli.__file__}, not from {src}")

    tracer = None
    if spec["trace_dir"] is not None:
        from spans import Tracer

        tracer = Tracer(spec["trace_dir"])
        tracer.install()
    commands = []
    try:
        for argv in spec["commands"]:
            out = io.StringIO()
            start = time.monotonic()
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(argv))
            commands.append({"argv": argv, "rc": rc, "wall_s": time.monotonic() - start,
                             "stdout": out.getvalue()})
            if rc != 0:
                break
        done = time.monotonic()
    finally:
        if tracer is not None:
            tracer.finish()

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "commands": commands,
        "done": done,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "peak_child_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"},
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
