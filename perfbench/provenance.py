"""Where a number came from: machine, library builds, BLAS threads, commit."""

import ctypes
import os
import platform
from pathlib import Path

import numpy
import scipy

import spikeorder

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
            "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")

# numpy and scipy each load their own OpenBLAS; the symbol suffix tells
# which copy a library is (64-bit-integer build for numpy)
OPENBLAS_COPIES = (
    ("numpy", "scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy", "scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _loaded_openblas() -> list:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _openblas() -> dict:
    """Thread count and build string of each loaded OpenBLAS copy, or None."""
    out = {owner: None for owner, _, _ in OPENBLAS_COPIES}
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for owner, threads_sym, config_sym in OPENBLAS_COPIES:
            get_threads = getattr(lib, threads_sym, None)
            if out[owner] is not None or get_threads is None:
                continue
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            info = {"library": os.path.basename(path), "threads": get_threads()}
            get_config = getattr(lib, config_sym, None)
            if get_config is not None:
                get_config.argtypes = []
                get_config.restype = ctypes.c_char_p
                info["config"] = get_config().decode(errors="replace").strip()
            out[owner] = info
    return out


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree (read, no subprocess)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def collect(root: Path, workers: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spikeorder": spikeorder.__version__,
        "git_commit": _git_commit(root),
        "workers": workers,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "openblas": _openblas(),
    }
