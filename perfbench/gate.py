"""Output checks applied to every timed child run, outside the timed interval.

Each check returns a list of failure strings; an empty list means the
outputs are correct. The tolerances are fixed here and nowhere else.
"""

import csv
import json
import math

NULLSPACE_TOL = 1e-12
S2_REL_TOL = 1e-10
GS_RISE_REL_TOL = 1e-10
STATE_ABS_TOL = 1e-10


class OutputError(Exception):
    """A file the program wrote cannot be parsed."""


def read_state_csv(path):
    """{(n, l, m): complex} from a coefficient CSV (header n,l,m,re,im)."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {
            (int(r["n"]), int(r["l"]), int(r["m"])): complex(float(r["re"]), float(r["im"]))
            for r in rows
        }
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise OutputError(f"{path}: {exc}") from exc


def read_diagnostics_csv(path):
    """List of {column: float} rows, keyed by the header's column names."""
    try:
        with open(path, newline="") as fh:
            return [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
    except (OSError, TypeError, ValueError) as exc:
        raise OutputError(f"{path}: {exc}") from exc


def read_trajectory_blocks(path):
    """{t: {(n, l, m): complex}} from a trajectory CSV (header t,n,l,m,re,im)."""
    blocks = {}
    try:
        with open(path, newline="") as fh:
            for r in csv.DictReader(fh):
                block = blocks.setdefault(float(r["t"]), {})
                block[(int(r["n"]), int(r["l"]), int(r["m"]))] = complex(
                    float(r["re"]), float(r["im"])
                )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise OutputError(f"{path}: {exc}") from exc
    return blocks


def state_distance(a, b):
    """Max |a - b| over the union of stored modes; absent modes are zero."""
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in a.keys() | b.keys()), default=0.0)


def check_diagnostics(rows, n_steps, dt, s2_initial):
    """Row count, sample times, null-space residual, exact shell-2 decay, monotone gs_norm."""
    errors = []
    if len(rows) != n_steps + 1:
        return [f"diagnostics: {len(rows)} rows, expected {n_steps + 1}"]
    prev_gs = None
    for i, r in enumerate(rows):
        t = r["t"]
        if abs(t - i * dt) > 1e-9 * max(1.0, i * dt):
            errors.append(f"row {i}: t={t!r}, expected {i * dt!r}")
        if not r["nullspace_residual"] <= NULLSPACE_TOL:
            errors.append(f"row {i}: nullspace_residual {r['nullspace_residual']:.3e}")
        want = s2_initial * math.exp(-12.0 * t)
        if not abs(r["s2_norm"] - want) <= S2_REL_TOL * want:
            errors.append(f"row {i}: s2_norm {r['s2_norm']!r}, expected {want!r}")
        gs = r["gs_norm"]
        if not math.isfinite(gs) or (prev_gs is not None and gs - prev_gs > GS_RISE_REL_TOL * prev_gs):
            errors.append(f"row {i}: gs_norm rose from {prev_gs!r} to {gs!r}")
        prev_gs = gs
        if len(errors) >= 5:
            break
    return errors


def check_state(got, want, label):
    d = state_distance(got, want)
    if not d <= STATE_ABS_TOL:
        return [f"{label}: max |difference| {d:.3e} from reference"]
    return []


def check_run(paths, n_steps, dt, s2_initial, reference):
    """Gate one `run`: diagnostics, final state against `reference` (skipped
    when None), and the trajectory (when written) against the sample grid and
    the final state."""
    try:
        errors = check_diagnostics(read_diagnostics_csv(paths["diagnostics"]), n_steps, dt, s2_initial)
        final = read_state_csv(paths["final_state"])
        if reference is not None:
            errors += check_state(final, reference, "final state")
        if paths.get("trajectory"):
            blocks = read_trajectory_blocks(paths["trajectory"])
            if len(blocks) != n_steps + 1:
                errors.append(f"trajectory: {len(blocks)} sample times, expected {n_steps + 1}")
            else:
                errors += check_state(blocks[max(blocks)], final, "trajectory last sample")
    except OutputError as exc:
        errors = [str(exc)]
    return errors


def check_verify_report(stdout_path):
    """Gate one `verify`: its JSON report says every check passed."""
    try:
        with open(stdout_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"verify report: {exc}"]
    if report.get("passed") is not True:
        failed = [c.get("name") for c in report.get("checks", []) if not c.get("passed")]
        return [f"verify report: passed={report.get('passed')!r}, failing checks {failed}"]
    return []
