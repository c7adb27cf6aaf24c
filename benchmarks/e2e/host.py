"""Host-side helpers: BLAS pinning, the calibration loop, resource usage.

Nothing here imports ``repro``: the calibration loop has to keep measuring
the *host* when the program gets faster or slower.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time

__all__ = ["THREAD_ENV", "pin_blas_threads", "calibration_sample",
           "CALIB_REF_S", "cpu_seconds", "peak_rss_mib", "fingerprint"]

#: one BLAS thread per process: the coordinator plus at most two pool
#: workers keep the 2-vCPU reference host at <= 2 busy threads.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: seconds one pass of :func:`calibration_sample` takes on the reference
#: host (2-vCPU Xeon 2.1 GHz, python 3.11, numpy + OpenBLAS at one thread) in
#: a normal phase.  Dividing by the live sample and multiplying by this
#: constant keeps calibrated metrics in (reference-host) seconds.
CALIB_REF_S = 0.040
#: passes per sample (odd, so the median is one of them).
CALIB_PASSES = 7


def pin_blas_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread; call before numpy loads."""
    for name in THREAD_ENV:
        os.environ[name] = "1"


def calibration_sample() -> float:
    """Time a fixed workload shaped like a client step, in seconds.

    One pass has three parts of about a third each: a small float32 GEMM
    (conv / linear inner loops), BN-like ``mean``/``var``/normalise over a
    cache-resident and an activation-sized array (numpy reductions and
    elementwise passes), and a python call/attribute/dict loop (interpreter
    overhead, the bulk of a small-model step).  The sample is the median of
    :data:`CALIB_PASSES` passes (about 0.3 s in all): it has to follow the
    host's speed around a repetition, not find its floor, and this host's
    speed also jitters from one 40 ms pass to the next: over 60 repetitions
    each, a median of six passes left the calibrated times of ``conv_bn``,
    ``transformer`` and ``fleet_async`` 15-23 % less scattered than a median
    of three.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((128, 128), dtype=np.float32)
    b = rng.standard_normal((128, 128), dtype=np.float32)
    small = rng.standard_normal((8, 64, 16, 16), dtype=np.float32)
    large = rng.standard_normal((8, 64, 32, 32), dtype=np.float32)

    class _Layer:
        def __init__(self):
            self.weight = 1
            self.cache: dict[int, int] = {}

        def forward(self, value, scale=1):
            self.cache[value & 255] = value
            return value + self.weight * scale

    def normalise(x):
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-5)

    def one_pass() -> float:
        start = time.perf_counter()
        for _ in range(300):
            np.matmul(a, b)
        for _ in range(20):
            normalise(small)
        for _ in range(5):
            normalise(large)
        layer, value = _Layer(), 0
        for i in range(40000):
            value = layer.forward(value, scale=i & 3)
        return time.perf_counter() - start

    return statistics.median(one_pass() for _ in range(CALIB_PASSES))


def cpu_seconds() -> float:
    """User + system CPU of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib(workers: int = 0) -> float:
    """Coordinator peak RSS plus ``workers`` times the largest reaped
    child's (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * kids) / 1024.0


def fingerprint() -> dict:
    """What the sizes in the README were taken on, for the result file."""
    import numpy as np

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        info["blas"] = "unknown"
    return info
