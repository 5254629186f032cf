"""Checks of the benchmark's output gate on synthetic files.

    python3 -m pytest perfbench/test_gate.py
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import datum  # noqa: E402
import gate  # noqa: E402
from run import Child, tally  # noqa: E402

DT = 0.01
STEPS = 5
S2 = 0.3


def write_outputs(tmp_path, rows=None, final=None):
    rows = rows or [
        (k * DT, 1.0, 2.0 - k * 0.1, S2 * math.exp(-12.0 * k * DT), 0.0, 0.01 * k)
        for k in range(STEPS + 1)
    ]
    diag = tmp_path / "diag.csv"
    diag.write_text(
        "t,q_alpha_norm,gs_norm,s2_norm,nullspace_residual,energy_integral\n"
        + "".join(",".join(repr(v) for v in r) + "\n" for r in rows)
    )
    state = tmp_path / "final.csv"
    datum.write_state_csv(final if final is not None else {(0, 2, 0): 0.25, (1, 1, 1): 0.5j}, state)
    return {"diagnostics": str(diag), "final_state": str(state), "trajectory": None}, rows


REFERENCE = {(0, 2, 0): 0.25, (1, 1, 1): 0.5j}


def test_correct_outputs_pass(tmp_path):
    paths, _ = write_outputs(tmp_path)
    assert gate.check_run(paths, STEPS, DT, S2, REFERENCE) == []


def test_corrupted_final_state_fails(tmp_path):
    paths, _ = write_outputs(tmp_path, final={(0, 2, 0): 0.25 + 1e-9, (1, 1, 1): 0.5j})
    assert gate.check_run(paths, STEPS, DT, S2, REFERENCE)


def test_missing_mode_in_final_state_fails(tmp_path):
    paths, _ = write_outputs(tmp_path, final={(0, 2, 0): 0.25})
    assert gate.check_run(paths, STEPS, DT, S2, REFERENCE)


def test_truncated_diagnostics_fail(tmp_path):
    paths, rows = write_outputs(tmp_path)
    paths, _ = write_outputs(tmp_path, rows=rows[:-1])
    assert gate.check_run(paths, STEPS, DT, S2, REFERENCE)


def test_rising_gs_norm_fails(tmp_path):
    _, rows = write_outputs(tmp_path)
    rows[3] = rows[3][:2] + (rows[2][2] * (1 + 1e-8),) + rows[3][3:]
    paths, _ = write_outputs(tmp_path, rows=rows)
    assert gate.check_run(paths, STEPS, DT, S2, REFERENCE)


def test_wrong_shell2_decay_fails(tmp_path):
    _, rows = write_outputs(tmp_path)
    rows[4] = rows[4][:3] + (rows[4][3] * (1 + 1e-9),) + rows[4][4:]
    paths, _ = write_outputs(tmp_path, rows=rows)
    assert gate.check_run(paths, STEPS, DT, S2, REFERENCE)


def test_nullspace_residual_fails(tmp_path):
    _, rows = write_outputs(tmp_path)
    rows[1] = rows[1][:4] + (1e-11,) + rows[1][5:]
    paths, _ = write_outputs(tmp_path, rows=rows)
    assert gate.check_run(paths, STEPS, DT, S2, REFERENCE)


def test_unparseable_file_fails(tmp_path):
    paths, _ = write_outputs(tmp_path)
    Path(paths["final_state"]).write_text("n,l,m,re,im\n0,2,0,abc,0\n")
    assert gate.check_run(paths, STEPS, DT, S2, REFERENCE)


def test_verify_report_must_pass(tmp_path):
    report = tmp_path / "report.json"
    report.write_text('{"passed": true, "checks": []}')
    assert gate.check_verify_report(report) == []
    report.write_text('{"passed": false, "checks": [{"name": "x", "passed": false}]}')
    assert gate.check_verify_report(report)


def test_gate_errors_count_as_failed_runs(tmp_path):
    good, _ = write_outputs(tmp_path)
    ok = Child(0, 1.0, 10.0)
    ok.errors = gate.check_run(good, STEPS, DT, S2, REFERENCE)
    bad = Child(0, 1.0, 10.0)
    bad.errors = gate.check_run(good, STEPS, DT, S2, {(0, 2, 0): 0.0})
    crashed = Child(1, 0.1, 10.0)
    assert tally([ok, bad, crashed]) == (3, 2)
