"""Per-layer metrics computed from the spans of a traced run.

Each layer is a module of the package.  Times and counts are for one set-up
plus one operation: the set-up phase's total plus the mean over the traced
operations.  Ratios are taken over the whole traced run.  A metric whose
layer does not run on a workload reads 0.
"""

from __future__ import annotations

import statistics

from tracing import summarize

LAYERS = ("grid", "operators", "poisson", "magnetostatics", "energy", "minimize",
          "testfields", "shell", "io", "cli")

CLI_NAMES = ("demag", "solve", "shell_study", "oracle")

ROUTES = {"scalar": "magnetostatics.solve_scalar_potential",
          "gauged": "magnetostatics.solve_vector_potential_gauged",
          "unconstrained": "magnetostatics.solve_vector_potential_unconstrained"}

# name -> unit, in the order they are reported
PER_LAYER = {
    "poisson.solve_calls": "count",
    "poisson.solve_s": "s",
    "poisson.pcg_iters": "count",
    "poisson.neumann_calls": "count",
    "poisson.neumann_s": "s",
    "poisson.transforms": "count",
    "poisson.transform_s": "s",
    "poisson.dense_factor_s": "s",
    "poisson.cache_entries": "count",
    "magnetostatics.scalar_s": "s",
    "magnetostatics.scalar_iters": "count",
    "magnetostatics.gauged_s": "s",
    "magnetostatics.gauged_iters": "count",
    "magnetostatics.unconstrained_s": "s",
    "magnetostatics.unconstrained_iters": "count",
    "magnetostatics.project_s": "s",
    "magnetostatics.demag_tensor_s": "s",
    "magnetostatics.dense_oracle_s": "s",
    "operators.curl_calls": "count",
    "operators.curl_s": "s",
    "operators.div_s": "s",
    "operators.grad_s": "s",
    "operators.masked_transfer_calls": "count",
    "operators.masked_transfer_s": "s",
    "energy.total_energy_calls": "count",
    "energy.total_energy_s": "s",
    "energy.effective_field_calls": "count",
    "energy.effective_field_s": "s",
    "minimize.reduced_iters": "count",
    "minimize.reduced_s": "s",
    "minimize.reduced_grad_norm": "1",
    "minimize.joint_sweeps": "count",
    "minimize.joint_m_steps": "count",
    "minimize.joint_s": "s",
    "minimize.solves_per_iter": "ratio",
    "minimize.backtracks": "count",
    "minimize.accept_ratio": "frac",
    "grid.build_mask_s": "s",
    "grid.padding_frac": "frac",
    "testfields.random_masked_s": "s",
    "shell.stray_scaled_s": "s",
    "shell.recovery_bounds_s": "s",
    "shell.limit_energy_s": "s",
    "io.write_csv_s": "s",
    "io.vtk_dump_s": "s",
    "io.bytes_written": "B",
    "cli.import_s": "s",
    **{f"cli.{c}_s": "s" for c in CLI_NAMES},
    **{f"cli.{c}_rss_mb": "MB" for c in CLI_NAMES},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.ops": "count",
    "kernel.laplace_apply_bytes": "B",
    "kernel.laplace_apply_gbps": "GB/s",
    "kernel.curl_bytes": "B",
    "kernel.curl_gbps": "GB/s",
    "kernel.dst1_bytes": "B",
    "kernel.dst1_gbps": "GB/s",
    "kernel.copy_gbps": "GB/s",
    "kernel.copy_array_bytes": "B",
    "kernel.llc_bytes": "B",
}


def count_under(spans, first: int, name: str, ancestor: str) -> int:
    """Number of spans called ``name`` in spans[first:] nested inside ``ancestor``."""
    count = 0
    for span in spans[first:]:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count


def metrics(spans, first_op: int, n_ops: int) -> dict:
    """Per-layer metrics of a traced run whose operations start at spans[first_op]."""
    s_tot, s_calls, _, s_self = summarize(spans[:first_op])
    o_tot, o_calls, o_attrs, o_self = summarize(spans, first_op)
    _, _, all_attrs, _ = summarize(spans)

    def secs(*names):
        return sum(s_tot[n] + o_tot[n] / n_ops for n in names)

    def calls(*names):
        return sum(s_calls[n] + o_calls[n] / n_ops for n in names)

    def attr_sum(name, key):
        return sum(a[key] for a in o_attrs[name]) / n_ops

    transforms = [f"poisson.sfft.{t}" for t in ("dstn", "idstn", "dctn", "idctn")]
    out = {
        "poisson.solve_calls": calls("poisson.solve_poisson"),
        "poisson.solve_s": secs("poisson.solve_poisson"),
        "poisson.pcg_iters": (attr_sum("poisson.solve_poisson", "iters")
                              + attr_sum("poisson.solve_poisson_neumann", "iters")),
        "poisson.neumann_calls": calls("poisson.solve_poisson_neumann"),
        "poisson.neumann_s": secs("poisson.solve_poisson_neumann"),
        "poisson.transforms": calls(*transforms),
        "poisson.transform_s": secs(*transforms),
        "poisson.dense_factor_s": secs("poisson.dense_poisson_solver"),
        "poisson.cache_entries": _cache_entries(),
        "magnetostatics.project_s": secs("magnetostatics.project_divergence_free"),
        "magnetostatics.demag_tensor_s": secs("magnetostatics.demag_tensor"),
        "magnetostatics.dense_oracle_s": secs("magnetostatics.dense_oracle_energy"),
        "operators.curl_calls": calls("operators.curl"),
        "operators.curl_s": secs("operators.curl"),
        "operators.div_s": secs("operators.div"),
        "operators.grad_s": secs("operators.grad"),
        "operators.masked_transfer_calls": calls("operators.masked_cell_to_faces",
                                                 "operators.masked_faces_to_cell_adjoint"),
        "operators.masked_transfer_s": secs("operators.masked_cell_to_faces",
                                            "operators.masked_faces_to_cell_adjoint"),
        "energy.total_energy_calls": calls("energy.total_energy"),
        "energy.total_energy_s": secs("energy.total_energy"),
        "energy.effective_field_calls": calls("energy.effective_field"),
        "energy.effective_field_s": secs("energy.effective_field"),
        "grid.build_mask_s": secs("grid.build_mask"),
        "testfields.random_masked_s": secs("testfields.random_masked"),
        "shell.stray_scaled_s": secs("shell.shell_stray_energy_scaled"),
        "shell.recovery_bounds_s": secs("shell.recovery_lower_bound",
                                        "shell.recovery_upper_bound"),
        "shell.limit_energy_s": secs("shell.limit_energy"),
        "io.write_csv_s": secs("io.write_csv"),
        "io.vtk_dump_s": secs("io.write_legacy_vector_dump"),
        "io.bytes_written": (attr_sum("io.write_csv", "bytes")
                             + attr_sum("io.write_legacy_vector_dump", "bytes")),
    }
    for route, name in ROUTES.items():
        out[f"magnetostatics.{route}_s"] = secs(name)
        out[f"magnetostatics.{route}_iters"] = attr_sum(name, "iters")
    for cmd in CLI_NAMES:
        out[f"cli.{cmd}_s"] = secs(f"cli.{cmd}")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = s_self[layer] + o_self[layer] / n_ops

    masks = all_attrs["grid.build_mask"]
    cells = sum(a["cells"] for a in masks)
    out["grid.padding_frac"] = 1.0 - sum(a["inside"] for a in masks) / cells if cells else 0.0

    reduced = o_attrs["minimize.minimize_m"]
    iters = sum(a["iters"] for a in reduced)
    trials = (count_under(spans, first_op, "energy.total_energy", "minimize.minimize_m")
              - len(reduced))
    solves = count_under(spans, first_op, "poisson.solve_poisson", "minimize.minimize_m")
    out["minimize.reduced_iters"] = iters / n_ops
    out["minimize.reduced_s"] = secs("minimize.minimize_m")
    out["minimize.reduced_grad_norm"] = (statistics.median(a["grad_norm"] for a in reduced)
                                         if reduced else 0.0)
    out["minimize.joint_sweeps"] = calls("minimize._a_step")
    out["minimize.joint_m_steps"] = attr_sum("minimize.minimize_joint", "iters")
    out["minimize.joint_s"] = secs("minimize.minimize_joint")
    out["minimize.solves_per_iter"] = solves / iters if iters else 0.0
    out["minimize.backtracks"] = (trials - iters) / n_ops
    out["minimize.accept_ratio"] = iters / trials if trials else 0.0
    return {name: (value, PER_LAYER[name]) for name, value in out.items()}


def solver_caches() -> list:
    """The module-level dict caches of ``poisson`` (names ending in ``_CACHE``)."""
    from magnetovar import poisson
    return [obj for name, obj in vars(poisson).items()
            if name.endswith("_CACHE") and isinstance(obj, dict)]


def _cache_entries() -> int:
    return sum(len(cache) for cache in solver_caches())


def complete(values: dict) -> dict:
    """Every PER_LAYER metric, in order; 0 for those this workload does not reach."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return {name: values.get(name, (0.0, unit)) for name, unit in PER_LAYER.items()}
