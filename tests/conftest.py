import ctypes
import functools

import numpy as np
import pytest

# thread-count symbols of numpy's (64-bit-integer) and scipy's OpenBLAS copies
_OPENBLAS_SYMBOLS = (
    ("numpy", "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy", "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


class OpenBlas:
    """Thread counts of the OpenBLAS copies loaded in this process.

    The copies are found in the process's memory map, independently of the
    package's own lookup, and read and set through their own symbols.
    ``copies`` is empty where none is loaded (or the map cannot be read).
    """

    def __init__(self):
        self.copies = {}
        try:
            with open("/proc/self/maps") as fh:
                paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        except OSError:
            paths = []
        for path in paths:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for owner, get_sym, set_sym in _OPENBLAS_SYMBOLS:
                get, put = getattr(lib, get_sym, None), getattr(lib, set_sym, None)
                if owner in self.copies or get is None or put is None:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                self.copies[owner] = (get, put)

    def threads(self) -> dict:
        return {owner: get() for owner, (get, _) in self.copies.items()}

    def set_threads(self, counts: dict):
        for owner, count in counts.items():
            self.copies[owner][1](count)


@pytest.fixture(scope="session")
def openblas():
    return OpenBlas()


@pytest.fixture(autouse=True)
def openblas_threads_unchanged(openblas):
    """Fail a test that leaves an OpenBLAS copy at another thread count."""
    before = openblas.threads()
    yield
    after = openblas.threads()
    if after != before:
        openblas.set_threads(before)
        pytest.fail(f"OpenBLAS thread counts changed from {before} to {after}")


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """Shared calibration cache so repeated sizes are computed once per run."""
    return str(tmp_path_factory.mktemp("calib_cache"))


@functools.cache
def _legendre_rule(nodes):
    # the rule is an eigenproblem, slow at 2,000 nodes; callers do not mutate it
    return np.polynomial.legendre.leggauss(nodes)


def gauss_legendre_mass(density, lo, hi, nodes=1500, weight=None):
    """Independent quadrature oracle: Gauss-Legendre on the sin^2 substitution.

    Written against numpy only, deliberately sharing no code with the
    package's adaptive quadrature.
    """
    theta, w = _legendre_rule(nodes)
    theta = 0.25 * np.pi * (theta + 1.0)
    w = w * 0.25 * np.pi
    span = hi - lo
    x = lo + span * np.sin(theta) ** 2
    f = np.array([density(xi) for xi in x])
    if weight is not None:
        f = f * np.array([weight(xi) for xi in x])
    return float(np.sum(w * f * span * np.sin(2.0 * theta)))
