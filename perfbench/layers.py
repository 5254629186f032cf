"""Per-layer metrics derived from one traced child run.

Names follow ``<module>.<what>_<unit>``. A metric whose function the package
no longer defines is left out (reported as absent), not set to zero; a
function that exists but was not called on this workload reads zero.
"""

MODULES = ("cli", "coupling", "specfun", "operators", "solver", "basis", "verification")
VERIFY_CHECKS = (
    "check_quadrature_exactness",
    "check_sphere_orthonormality",
    "check_gaunt_permutation",
    "check_coefficient_sums",
    "check_a2_equality",
    "check_fourier_multiplier",
    "check_moment_integrals",
    "check_cascade_vs_numeric",
    "check_trilinear",
    "check_nullspace_closure",
    "check_eigenvalue_bound",
    "check_energy_decay",
    "run_checks",
)
# Bytes and flops of one stencil apply in triplet form, per entry: the
# coefficient (8 B) and three indices (24 B) read, two complex operands
# gathered (32 B), one complex output read and written (32 B); one real x
# complex and one complex x complex product plus one complex add (10 flops).
APPLY_BYTES_PER_ENTRY = 96
APPLY_FLOPS_PER_ENTRY = 10
COMPLEX_BYTES = 16

# name -> (unit, better)
UNITS = {
    "cli.import_s": ("s", "lower"),
    "cli.load_or_build_tensor_s": ("s", "lower"),
    "coupling.build_tensor_s": ("s", "lower"),
    "coupling.save_tensor_s": ("s", "lower"),
    "coupling.load_tensor_s": ("s", "lower"),
    "coupling.cache_bytes": ("B", "lower"),
    "coupling.entries": ("count", "lower"),
    "specfun.gauss_legendre_calls": ("count", "lower"),
    "specfun.gauss_legendre_s": ("s", "lower"),
    "operators.apply_bilinear_us": ("us", "lower"),
    "operators.bilinear_evals": ("count", "lower"),
    "operators.apply_share": ("fraction", "lower"),
    "operators.apply_bytes": ("B", "lower"),
    "operators.apply_flops": ("flop", "lower"),
    "solver.integrate_numeric_s": ("s", "lower"),
    "solver.steps": ("count", "lower"),
    "solver.step_ms": ("ms", "lower"),
    "solver.solve_cascade_s": ("s", "lower"),
    "solver.cascade_terms": ("count", "lower"),
    "solver.cascade_max_degree": ("count", "lower"),
    "solver.sample_s": ("s", "lower"),
    "solver.eval_coeffs_ms": ("ms", "lower"),
    "solver.diagnostics_s": ("s", "lower"),
    "solver.diagnostics_row_us": ("us", "lower"),
    "solver.series_mb": ("MB", "lower"),
    "basis.load_state_csv_s": ("s", "lower"),
    "basis.save_state_csv_s": ("s", "lower"),
    "cli.write_diagnostics_csv_s": ("s", "lower"),
    "cli.write_trajectory_csv_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    **{f"verification.{c}_s": ("s", "lower") for c in VERIFY_CHECKS},
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.other_s": ("s", "lower"),
    "trace.accounted_share": ("fraction", "higher"),
    "trace.spans": ("count", "lower"),
}


def layer_metrics(report, facts):
    """Metrics of one traced run.

    `report` is trace_child's JSON; `facts` holds what the benchmark knows
    without tracing: wall_s (traced child's wall time up to the
    command's return),
    untraced_run_s, steps (ETDRK4 steps, 0 when none), samples (diagnostics
    rows, 0 for verify), modes, cache_bytes, output_bytes.
    """
    wrapped = set(report["wrapped"])
    stats = report["stats"]
    sizes = report["sizes"]
    out = {}

    def put(name, value):
        out[name] = value

    def calls(fn):
        return stats.get(fn, [0, 0.0, 0.0])[0]

    def total(fn):
        return stats.get(fn, [0, 0.0, 0.0])[1]

    def timed(name, fn):
        if fn in wrapped:
            put(name, total(fn))

    def per_call(name, fn, scale):
        if fn in wrapped:
            put(name, total(fn) / calls(fn) * scale if calls(fn) else 0.0)

    put("cli.import_s", report["import_s"])
    timed("cli.load_or_build_tensor_s", "cli.load_or_build_tensor")
    timed("coupling.build_tensor_s", "coupling.build_tensor")
    timed("coupling.save_tensor_s", "coupling.save_tensor")
    timed("coupling.load_tensor_s", "coupling.load_tensor")
    put("coupling.cache_bytes", facts["cache_bytes"])
    entries = sizes.get("entries")
    if entries is not None:
        put("coupling.entries", entries)
        put("operators.apply_bytes", entries * APPLY_BYTES_PER_ENTRY)
        put("operators.apply_flops", entries * APPLY_FLOPS_PER_ENTRY)
    if "specfun.gauss_legendre" in wrapped:
        put("specfun.gauss_legendre_calls", calls("specfun.gauss_legendre"))
    timed("specfun.gauss_legendre_s", "specfun.gauss_legendre")

    if "operators.apply_bilinear" in wrapped and (report["probe"] or not report["probe_requested"]):
        steps = facts["steps"]
        if report["probe"]:
            apply_s = report["probe"]["median_s"]
            evals = 4 * steps
        else:  # verify calls the operator directly; mean over its traced calls
            n = calls("operators.apply_bilinear")
            apply_s = total("operators.apply_bilinear") / n if n else 0.0
            evals = n
        put("operators.apply_bilinear_us", apply_s * 1e6)
        put("operators.bilinear_evals", evals)
        integrate_s = total("solver.integrate_numeric")
        put("operators.apply_share", evals * apply_s / integrate_s if steps and integrate_s else 0.0)

    timed("solver.integrate_numeric_s", "solver.integrate_numeric")
    put("solver.steps", facts["steps"])
    if "solver.integrate_numeric" in wrapped:
        steps = facts["steps"]
        put("solver.step_ms", total("solver.integrate_numeric") / steps * 1e3 if steps else 0.0)
    timed("solver.solve_cascade_s", "solver.solve_cascade")
    if "solver.solve_cascade" in wrapped:
        ran = calls("solver.solve_cascade") > 0
        if "cascade_terms" in sizes or not ran:
            put("solver.cascade_terms", sizes.get("cascade_terms", 0))
            put("solver.cascade_max_degree", sizes.get("cascade_max_degree", 0))
    timed("solver.sample_s", "solver.ExpPolyTrajectory.sample")
    per_call("solver.eval_coeffs_ms", "solver.ExpPolyTrajectory.eval_coeffs", 1e3)
    timed("solver.diagnostics_s", "solver.diagnostics")
    if "solver.diagnostics" in wrapped:
        rows = facts["samples"]
        put("solver.diagnostics_row_us", total("solver.diagnostics") / rows * 1e6 if rows else 0.0)
    put("solver.series_mb", facts["samples"] * facts["modes"] * COMPLEX_BYTES / 1e6)

    timed("basis.load_state_csv_s", "basis.load_state_csv")
    timed("basis.save_state_csv_s", "basis.save_state_csv")
    timed("cli.write_diagnostics_csv_s", "cli.write_diagnostics_csv")
    timed("cli.write_trajectory_csv_s", "cli.write_trajectory_csv")
    put("cli.output_bytes", facts["output_bytes"])
    for check in VERIFY_CHECKS:
        timed(f"verification.{check}_s", f"verification.{check}")

    self_total = 0.0
    for module in MODULES:
        self_s = sum(v[2] for k, v in stats.items() if k.split(".", 1)[0] == module)
        put(f"{module}.self_s", self_s)
        self_total += self_s
    wall = facts["wall_s"]
    put("trace.run_s", wall)
    put("trace.overhead_s", wall - facts["untraced_run_s"])
    put("trace.other_s", wall - report["import_s"] - self_total)
    put("trace.accounted_share", (report["import_s"] + self_total) / wall)
    put("trace.spans", sum(v[0] for v in stats.values()))
    return out
