"""The environment a result was measured in.  Importing this module does
not load numpy, so the thread settings can be pinned first."""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("name", "") + " " + deps[k].get("version", "")
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError, AttributeError):
        return {}


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _l2_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 * 1024}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def environment(root: Path) -> dict:
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "l2_bytes": _l2_bytes(),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
    }
