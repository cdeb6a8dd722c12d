#!/usr/bin/env python3
"""Full-size reference numbers for C11: minimizer times, iterations and solves.

The ``minimize`` workload is scaled down to fit the benchmark's time budget;
this script measures C11's own size (48^3 grid) once, for comparison with the
figures in ROADMAP.md.  (C1's per-route times come from the ``threeway``
workload's traced run, which is at C1's size.)  Run from the repository root
(takes about a minute):

    python3 perfbench/baseline.py
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import machine  # noqa: E402
from tracing import Tracer  # noqa: E402
from layers import count_under  # noqa: E402


def c11_counts():
    """Wall time, iterations and Poisson solves of C11's two minimizers (48^3 grid)."""
    import numpy as np
    from magnetovar import energy, grid, magnetostatics as ms, minimize
    tracer = Tracer()
    tracer.install()
    geom = grid.Ellipsoid(1.0, 1.0, 1.0)
    g = grid.grid_for_geometry(geom, 2.0 / 16, pad_ratio=1.0)
    mask = grid.build_mask(geom, g)
    d = np.array([0.3, 0.15, 0.94]) / np.linalg.norm([0.3, 0.15, 0.94])
    start = grid.CellVectorField.constant(g, tuple(d), mask)
    cfg = ms.SolverConfig(tol=1e-8)
    out = {"grid": g.shape}
    for label, run in (
            ("reduced", lambda: minimize.minimize_m(
                start, energy.MaterialParams(), mask,
                minimize.MinimizeConfig(grad_tol=1e-4, max_iter=150, step=0.5), cfg)),
            ("joint", lambda: minimize.minimize_joint(
                start, None, energy.MaterialParams(), mask,
                minimize.MinimizeConfig(grad_tol=1e-4, max_iter=40, step=0.5), cfg))):
        first = len(tracer.spans)
        t0 = time.perf_counter()
        report = run()[-1]
        out[f"{label}_s"] = time.perf_counter() - t0
        out[f"{label}_iters"] = report.iterations
        out[f"{label}_converged"] = report.converged
        out[f"{label}_grad_norm"] = report.final_grad_norm
        ancestor = "minimize.minimize_m" if label == "reduced" else "minimize.minimize_joint"
        out[f"{label}_solves"] = count_under(tracer.spans, first, "poisson.solve_poisson", ancestor)
    return out


def main():
    print(json.dumps({"machine": machine.record(), "c11": c11_counts()}, indent=1))


if __name__ == "__main__":
    main()
