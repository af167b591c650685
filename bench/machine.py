"""What machine a run was made on, and how fast it was at the time.

The calibration loops are fixed and independent of cohent, so a shift in
them between two runs is machine drift (a busy neighbour, a frequency
change), not a code change.  Each loop mimics one kind of work the program
does; one sample of all three takes about 22 ms on a quiet core.
`SpeedProbe` times the pure-Python loop all through a pass.  numpy is
imported inside the functions so that the benchmark can fix the BLAS thread
count before numpy loads.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def describe() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _python_loop(iterations: int = 40_000) -> None:
    # Scalar float arithmetic through a small function, as in refine.
    def term(a: float, b: float) -> float:
        return a * a + (1.0 - b) * (1.0 + b) * b * b

    total = 0.0
    for i in range(iterations):
        total += term(i * 1e-3, 0.5)


def _numpy_loop() -> None:
    # Elementwise passes over one 241 x 241 slab, as in the grid sweep.
    import numpy as np

    a = np.linspace(0.0, 1.0, 241 * 241).reshape(241, 241)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5


def _svd_loop() -> None:
    # Singular values of a 45 x 45 matrix, as in the Fock oracle.
    import numpy as np

    m = np.cos(np.arange(45 * 45, dtype=float)).reshape(45, 45)
    for _ in range(100):
        np.linalg.svd(m, compute_uv=False)


LOOPS = (("python_ms", _python_loop), ("numpy_ms", _numpy_loop),
         ("svd_ms", _svd_loop))


def calibration_sample() -> dict:
    """Milliseconds of one run of each fixed loop, and their sum as `total_ms`."""
    sample = {}
    for name, loop in LOOPS:
        start = time.perf_counter()
        loop()
        sample[name] = (time.perf_counter() - start) * 1e3
    sample["total_ms"] = sum(sample.values())
    return sample


def summarize(samples: list[dict]) -> dict:
    """Floor (fastest) and median of each loop over a run's samples."""
    return {name: {"min": min(s[name] for s in samples),
                   "median": statistics.median(s[name] for s in samples)}
            for name in samples[0]} | {"n": len(samples)}


# The speed probe times _python_loop(PROBE_ITERATIONS), about 60 us on a
# quiet core, every PROBE_INTERVAL_S of a pass: under 1% of the pass.
PROBE_ITERATIONS = 400
PROBE_INTERVAL_S = 0.01


class SpeedProbe:
    """Samples the core's speed all through a pass, from a SIGALRM timer.

    Python runs the handler between the program's bytecodes, on the same core
    and in the same slow and fast stretches as the pass itself, so the mean
    sample time tracks how fast that core ran during the pass.  Use it from
    the main thread only.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _python_loop(PROBE_ITERATIONS)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # A pass shorter than one interval still gets a speed reading.
            self._sample()
