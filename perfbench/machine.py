"""Machine record and computed kernel bandwidth numbers.

Byte counts here are computed from array sizes (each kernel reads its input
arrays once and writes its output arrays once); they ignore cache misses
and temporaries, so achieved GB/s is a lower bound on the traffic.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

KERNEL_LABEL = ("computed: bytes from array sizes (inputs read once, outputs written once), "
                "GB/s = bytes / median time of 5 calls on the demag lattice; copy arrays "
                "are 4x the last-level cache")

THREAD_VARS = ("MAGNETOVAR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level: int) -> int:
    """Size of one cache at ``level`` as seen by cpu0 (0 when unknown)."""
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")):
        try:
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return 0


def llc_bytes() -> int:
    return _cache_bytes(3) or _cache_bytes(2)


def record() -> dict:
    import numpy as np
    import scipy
    from scipy import fft
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "scipy_fft_workers": fft.get_workers(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


# Seconds one Calibration pass takes on the 2-vCPU Xeon of RESULTS.md in a
# quiet period.
CAL_REFERENCE_S = 0.12


class Calibration:
    """A fixed mix of the kinds of work the package does, timed between operations.

    The speed of a shared host drifts by 20-40 % over minutes (pure-Python
    loops slow down as much as FFTs), which is wider than any useful bound.
    Dividing each operation's time by this mix's time next to it, and
    multiplying by CAL_REFERENCE_S, gives seconds at a fixed reference speed.
    The mix uses only numpy, scipy.fft and Python, never the package, so a
    change to the package moves the operation and not the reference.  Its
    arrays (6 MB) are allocated once, before the workload is set up.  It
    stays in cache and in one process, so it follows CPU-speed drift but
    not memory-bandwidth contention or the cost of starting processes.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.cube = rng.standard_normal((48, 48, 48))
        self.work = np.empty_like(self.cube)
        self.vec = rng.standard_normal(1 << 18)
        self.vec_out = np.empty_like(self.vec)

    def once(self) -> float:
        """Seconds for one pass: DST-I round trips, a 7-point stencil,
        copies and dot products, and an interpreted loop."""
        import numpy as np
        from scipy import fft
        x, z = self.cube, self.work
        t0 = time.perf_counter()
        for _ in range(4):
            fft.idstn(fft.dstn(x, type=1), type=1)
        for _ in range(20):
            np.multiply(x, 6.0, out=z)
            for axis in range(3):
                lo, hi = [slice(None)] * 3, [slice(None)] * 3
                lo[axis], hi[axis] = slice(1, None), slice(None, -1)
                z[tuple(lo)] -= x[tuple(hi)]
                z[tuple(hi)] -= x[tuple(lo)]
        for _ in range(40):
            np.copyto(self.vec_out, self.vec)
            np.vdot(self.vec_out, self.vec)
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - t0

    def __call__(self, budget_s: float = 0.0) -> float:
        """Median seconds of one pass, over as many passes as fit in ``budget_s`` (at least one)."""
        times = [self.once()]
        while sum(times) < budget_s:
            times.append(self.once())
        return statistics.median(times)


def reference_seconds(times, around) -> float:
    """Median of ``times`` each divided by the calibration time around it, in
    seconds at the speed where one Calibration pass takes CAL_REFERENCE_S."""
    return statistics.median(t / c for t, c in zip(times, around)) * CAL_REFERENCE_S


def _median_gbps(fn, nbytes: int, reps: int) -> float:
    """Median bandwidth of ``reps`` calls of ``fn`` moving ``nbytes`` each."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return nbytes / statistics.median(times) / 1e9


def kernel_numbers(grid, reps: int = 5) -> dict:
    """Bytes and GB/s of one stencil apply, one curl and one DST-I on ``grid``,
    next to a copy bandwidth measured on arrays of four times the LLC."""
    import numpy as np
    from scipy import fft
    from magnetovar import grid as mgrid, operators, poisson

    rng = np.random.default_rng(0)
    x = rng.standard_normal(grid.shape)
    face = mgrid.VectorField(grid, *(rng.standard_normal(s) for s in mgrid.face_shapes(grid)))
    cell_bytes = x.nbytes
    face_bytes = sum(c.nbytes for c in face.components)
    edge_bytes = sum(8 * int(np.prod(s)) for s in mgrid.edge_shapes(grid))

    out = {
        "kernel.laplace_apply_bytes": (2 * cell_bytes, "B"),
        "kernel.laplace_apply_gbps": (_median_gbps(lambda: poisson.laplace_apply(x, grid.h),
                                                 2 * cell_bytes, reps), "GB/s"),
        "kernel.curl_bytes": (face_bytes + edge_bytes, "B"),
        "kernel.curl_gbps": (_median_gbps(lambda: operators.curl(face),
                                        face_bytes + edge_bytes, reps), "GB/s"),
        "kernel.dst1_bytes": (2 * cell_bytes, "B"),
        "kernel.dst1_gbps": (_median_gbps(lambda: fft.dstn(x, type=1),
                                        2 * cell_bytes, reps), "GB/s"),
    }
    del x, face

    llc = llc_bytes()
    copy_bytes = 4 * llc if llc else 512 * 1024 ** 2
    src = np.ones(copy_bytes // 8)
    dst = np.empty_like(src)
    out["kernel.copy_gbps"] = (_median_gbps(lambda: np.copyto(dst, src), 2 * src.nbytes,
                                          reps), "GB/s")
    out["kernel.copy_array_bytes"] = (src.nbytes, "B")
    out["kernel.llc_bytes"] = (llc, "B")
    return out
