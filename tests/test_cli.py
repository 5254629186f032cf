import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import landau_spectral
from landau_spectral.basis import load_state_csv, nullspace_norm, s2_norm, save_state_csv
from landau_spectral.basis import _LOG_MAX, NormSpec, SpectralState, mode_table
from landau_spectral.cli import (
    RunConfig,
    build_initial_state,
    example_dirac_coefficient,
    init_example_dirac,
    init_from_file,
    init_single_mode,
    main,
    run,
    write_diagnostics_csv,
)
from landau_spectral.coupling import build_tensor
from landau_spectral.errors import BlowupError, ConfigError, StateFileError, WeightOverflowError
from landau_spectral.solver import IntegratorConfig, diagnostics, integrate_numeric, solve_cascade
from landau_spectral.verification import random_tilde_state


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class TestExampleDirac:
    def test_coefficients_exact(self):
        # Gamma(k+3/2) = (2k+1)!! sqrt(pi) / 2^(k+1) makes the square a
        # rational number: coef(k)^2 = (2k+1)!! / (2^k k!)
        for k in range(2, 41):
            want = math.sqrt(double_factorial(2 * k + 1) / (2.0**k * math.factorial(k)))
            assert example_dirac_coefficient(k) == pytest.approx(want, rel=1e-13)

    def test_k2_value(self):
        assert example_dirac_coefficient(2) == pytest.approx(math.sqrt(15 / 8), rel=1e-14)
        assert example_dirac_coefficient(2) == pytest.approx(1.36931, abs=1e-5)

    def test_state_contents(self):
        state = init_example_dirac(12)
        assert state[(2, 0, 0)] == pytest.approx(math.sqrt(15 / 8), rel=1e-13)
        for k in range(2, 7):
            assert state[(k, 0, 0)] != 0
        assert s2_norm(state) == 0.0
        assert nullspace_norm(state) == 0.0

    def test_growth_band(self):
        for k in range(10, 61):
            ratio = example_dirac_coefficient(k) / k**0.25
            assert 0.9 <= ratio <= 1.3


class TestInitBuilders:
    def test_single_mode(self):
        state = init_single_mode(4, (0, 2, 0), 1.0 + 2.0j)
        assert state[(0, 2, 0)] == 1.0 + 2.0j

    def test_from_file(self, tmp_path, caplog):
        path = tmp_path / "init.csv"
        path.write_text("n,l,m,re,im\n0,2,0,1.0,0.0\n")
        state = init_from_file(path, 4)
        assert state[(0, 2, 0)] == 1.0

    def test_from_file_rejects_bad_mode(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,l,m,re,im\n0,2,3,1.0,0.0\n")
        with pytest.raises(StateFileError):
            init_from_file(path, 4)


class TestRunConfig:
    def base(self, tmp_path, **over):
        raw = {
            "truncation": 2,
            "alpha": 0.0,
            "dt": 0.001,
            "t_final": 0.5,
            "init": {"kind": "single-mode", "mode": [0, 2, 0], "amplitude": 1.0},
            "output": {
                "diagnostics": str(tmp_path / "diag.csv"),
                "final_state": str(tmp_path / "final.csv"),
            },
        }
        raw.update(over)
        return raw

    def test_defaults(self, tmp_path):
        cfg = RunConfig.from_dict(self.base(tmp_path))
        assert cfg.method == "etd-rk4"
        assert cfg.c1 == 0.05

    def test_missing_field(self, tmp_path):
        raw = self.base(tmp_path)
        del raw["alpha"]
        with pytest.raises(ConfigError, match="alpha"):
            RunConfig.from_dict(raw)

    def test_invalid_c1(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(self.base(tmp_path, c1=2.0))

    @pytest.mark.parametrize(
        "init",
        [
            {"kind": "nope"},
            {"kind": "single-mode", "mode": 5},
            {"kind": "single-mode", "mode": ["a", 0, 0]},
            {"kind": "single-mode", "mode": [0, 2, 0], "amplitude": [1.0]},
            {"kind": "single-mode", "mode": [0, 2, 0], "amplitude": [1, 2, 3]},
        ],
        ids=["unknown-kind", "mode-scalar", "mode-not-int", "amplitude-short", "amplitude-long"],
    )
    def test_unknown_init_kind(self, tmp_path, init):
        cfg = RunConfig.from_dict(self.base(tmp_path, init=init))
        with pytest.raises(ConfigError):
            build_initial_state(cfg)


def reference_write_trajectory_csv(series, path):
    """The state-by-state trajectory writer, the oracle for `write_trajectory_csv`."""
    with open(path, "w") as fh:
        fh.write("t,n,l,m,re,im\n")
        for t, state in series:
            for mo, amp in state.nonzero_items():
                fh.write(
                    f"{format(t, '.17g')},{mo.n},{mo.l},{mo.m},"
                    f"{format(amp.real, '.17g')},{format(amp.imag, '.17g')}\n"
                )


def child_env():
    # The child inherits this environment and imports the same package as this
    # process, whether it comes from a source tree or from an install.
    package_root = str(Path(landau_spectral.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "landau_spectral.cli", *args],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=cwd,
    )


class TestRunCommand:
    def write_config(self, tmp_path, **over):
        raw = {
            "truncation": 2,
            "alpha": 0.0,
            "c1": 0.05,
            "dt": 0.001,
            "t_final": 0.5,
            "method": "etd-rk4",
            "init": {"kind": "single-mode", "mode": [0, 2, 0], "amplitude": 1.0},
            "output": {
                "diagnostics": str(tmp_path / "diag.csv"),
                "final_state": str(tmp_path / "final.csv"),
            },
        }
        raw.update(over)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def test_single_mode_decay(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        lines = (tmp_path / "diag.csv").read_text().strip().splitlines()
        assert lines[0] == "t,q_alpha_norm,gs_norm,s2_norm,nullspace_residual,energy_integral"
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(0.5)
        assert float(last[1]) == pytest.approx(math.exp(-6.0), rel=1e-8)
        final = load_state_csv(tmp_path / "final.csv")
        assert complex(final[(0, 2, 0)]) == pytest.approx(math.exp(-6.0), rel=1e-8)

    def test_cascade_requires_invariant_free_init(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            method="cascade",
            init={"kind": "single-mode", "mode": [0, 1, 0], "amplitude": 1.0},
        )
        proc = run_cli(["run", "--config", str(cfg)])
        assert proc.returncode == 1
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert err["error"]["type"] == "NullSpaceError"

    def test_rk4_method_rejected(self, tmp_path):
        cfg = self.write_config(tmp_path, method="rk4")
        proc = run_cli(["run", "--config", str(cfg)])
        assert proc.returncode == 1
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert err["error"]["type"] == "ConfigError"
        assert "'rk4'" in err["error"]["message"]

    @pytest.mark.parametrize(
        "over",
        [{"alpha": math.nan}, {"t_final": math.inf}, {"init": None}, {"truncation": 6.7}],
        ids=["alpha-nan", "t_final-infinity", "init-null", "truncation-fraction"],
    )
    def test_unrunnable_config_rejected(self, tmp_path, over):
        cfg = self.write_config(tmp_path, **over)
        proc = run_cli(["run", "--config", str(cfg)])
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"]["type"] == "ConfigError"
        assert next(iter(over)) in err["error"]["message"]
        assert not (tmp_path / "diag.csv").exists() and not (tmp_path / "final.csv").exists()

    def test_tensor_dir_key_is_ignored(self, tmp_path):
        # configs written for the removed tensor cache still run, unchanged
        plain = self.write_config(tmp_path, truncation=6)
        assert run_cli(["run", "--config", str(plain)], cwd=tmp_path).returncode == 0
        want = [(tmp_path / name).read_bytes() for name in ("diag.csv", "final.csv")]
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, so no directory can be made under it\n")
        cfg = self.write_config(tmp_path, truncation=6, tensor_dir=str(blocker / "cache"))
        before = set(tmp_path.rglob("*"))
        proc = run_cli(["run", "--config", str(cfg)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert [(tmp_path / name).read_bytes() for name in ("diag.csv", "final.csv")] == want
        assert set(tmp_path.rglob("*")) == before
        infos = [line for line in proc.stderr.splitlines() if line.startswith("INFO")]
        assert sum("'tensor_dir' is ignored" in line for line in infos) == 1

    def test_c1_without_smallness_threshold(self, tmp_path):
        # IntegratorConfig accepts c1 < 16/11; the threshold exists only below 32/33
        cfg = self.write_config(tmp_path, c1=1.0)
        proc = run_cli(["run", "--config", str(cfg)])
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "diag.csv").read_text().splitlines()) == 502
        final = load_state_csv(tmp_path / "final.csv")
        assert complex(final[(0, 2, 0)]) == pytest.approx(math.exp(-6.0), rel=1e-8)
        warnings = [line for line in proc.stderr.splitlines() if line.startswith("WARNING")]
        assert any("no smallness threshold at c1=1" in line for line in warnings)

    def test_trajectory_csv_matches_state_writer(self, tmp_path):
        init = random_tilde_state(10, np.random.default_rng(31), s2_scale=0.3)
        save_state_csv(init, tmp_path / "init.csv")
        times = [k * 0.002 for k in range(151)]  # two row blocks at N=10
        cfg = self.write_config(
            tmp_path,
            truncation=10,
            method="cascade",
            dt=0.002,
            t_final=0.3,
            init={"kind": "file", "path": str(tmp_path / "init.csv")},
            output={
                "diagnostics": str(tmp_path / "d.csv"),
                "final_state": str(tmp_path / "f.csv"),
                "trajectory": str(tmp_path / "traj.csv"),
            },
        )
        assert main(["run", "--config", str(cfg)]) == 0
        loaded = load_state_csv(tmp_path / "init.csv", truncation=10)
        series = solve_cascade(loaded, build_tensor(10)).sample(times)
        reference_write_trajectory_csv(series, tmp_path / "ref.csv")
        written = (tmp_path / "traj.csv").read_bytes()
        assert written.count(b"\n") > 151 * 100
        assert written == (tmp_path / "ref.csv").read_bytes()
        # the streamed diagnostics and final state equal the in-memory path's
        write_diagnostics_csv(diagnostics(series, NormSpec(alpha=0.0, c1=0.05)), tmp_path / "rd.csv")
        save_state_csv(series[-1][1], tmp_path / "rf.csv")
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "rd.csv").read_bytes()
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "rf.csv").read_bytes()

    def test_deterministic_output(self, tmp_path):
        cfg = self.write_config(tmp_path)
        run_cli(["run", "--config", str(cfg)])
        first = (tmp_path / "diag.csv").read_bytes()
        run_cli(["run", "--config", str(cfg)])
        assert (tmp_path / "diag.csv").read_bytes() == first

    def test_cascade_matches_numeric_run(self, tmp_path):
        cfg_n = self.write_config(tmp_path, truncation=4, t_final=0.25)
        run_cli(["run", "--config", str(cfg_n)])
        numeric = (tmp_path / "diag.csv").read_text()
        cfg_c = self.write_config(tmp_path, truncation=4, t_final=0.25, method="cascade")
        run_cli(["run", "--config", str(cfg_c)])
        exact = (tmp_path / "diag.csv").read_text()
        n_rows = [list(map(float, r.split(","))) for r in numeric.splitlines()[1:]]
        e_rows = [list(map(float, r.split(","))) for r in exact.splitlines()[1:]]
        for a, b in zip(n_rows[::100], e_rows[::100]):
            assert a[1] == pytest.approx(b[1], abs=1e-8)

    def test_trajectory_dump(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            dt=0.1,
            t_final=0.2,
            output={
                "diagnostics": str(tmp_path / "d.csv"),
                "final_state": str(tmp_path / "f.csv"),
                "trajectory": str(tmp_path / "traj.csv"),
            },
        )
        assert main(["run", "--config", str(cfg)]) == 0
        lines = (tmp_path / "traj.csv").read_text().strip().splitlines()
        assert lines[0] == "t,n,l,m,re,im"
        assert len(lines) >= 3


class TestStreamedRun:
    """`run` streams row blocks; its outputs equal those of the in-memory path."""

    def config(self, tmp_path, N, method, dt, t_final, init, trajectory=False, **over):
        save_state_csv(init, tmp_path / "init.csv")
        raw = {
            "truncation": N,
            "alpha": -2.0,
            "c1": 0.05,
            "dt": dt,
            "t_final": t_final,
            "method": method,
            "init": {"kind": "file", "path": str(tmp_path / "init.csv")},
            "output": {
                "diagnostics": str(tmp_path / "diag.csv"),
                "final_state": str(tmp_path / "final.csv"),
                "trajectory": str(tmp_path / "traj.csv") if trajectory else None,
            },
        }
        raw.update(over)
        return RunConfig.from_dict(raw)

    # the cascade case is TestRunCommand.test_trajectory_csv_matches_state_writer
    @pytest.mark.parametrize(
        "N, method, t_final, trajectory, blocks",
        [(16, "etd-rk4", 1.0, False, 31), (8, "etd-rk4", 0.25, True, 2)],
        ids=["etdrk4-n16", "etdrk4-n8"],
    )
    def test_outputs_match_in_memory_path(self, tmp_path, N, method, t_final, trajectory, blocks):
        init = random_tilde_state(N, np.random.default_rng(37), s2_scale=0.3)
        cfg = self.config(tmp_path, N, method, 1e-3, t_final, init, trajectory)
        assert run(cfg) == 0

        loaded = load_state_csv(tmp_path / "init.csv", truncation=N)
        series = integrate_numeric(loaded, build_tensor(N), cfg.integrator_config())
        assert len(list(series.row_blocks())) == blocks
        write_diagnostics_csv(diagnostics(series, NormSpec(alpha=-2.0, c1=0.05)), tmp_path / "d.csv")
        save_state_csv(series[-1][1], tmp_path / "f.csv")
        assert (tmp_path / "diag.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()
        assert (tmp_path / "final.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()
        if trajectory:
            reference_write_trajectory_csv(series, tmp_path / "t.csv")
            assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()

    def test_memory_does_not_grow_with_run_length(self, tmp_path):
        import tracemalloc

        N = 12
        init = random_tilde_state(N, np.random.default_rng(41), s2_scale=0.3)
        run(self.config(tmp_path, N, "etd-rk4", 1e-3, 0.01, init))  # tensor and caches
        peaks = []
        for t_final in (0.5, 2.0):
            cfg = self.config(tmp_path, N, "etd-rk4", 1e-3, t_final, init)
            tracemalloc.start()
            try:
                assert run(cfg) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a (samples x modes) block would grow by 1500 * 455 * 16 B = 10.9 MB
        assert abs(peaks[1] - peaks[0]) < 1e6, peaks

    def blowup_case(self, tmp_path):
        # with amplitude -2 on (0, 0, 0) every mode grows as e^(+lam t): the
        # mode (0, 12, 0) (lam = 180) leaves the double range before step 300,
        # in a later row block than the first 72 rows at N = 12
        N = 12
        init = SpectralState.from_dict(N, {(0, 0, 0): -2.0, (0, 12, 0): 1e290})
        cfg = self.config(tmp_path, N, "etd-rk4", 1e-3, 0.3, init, trajectory=True)
        return init, cfg

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_in_later_block_names_first_step(self, tmp_path):
        init, cfg = self.blowup_case(tmp_path)
        icfg = cfg.integrator_config()
        one_step = IntegratorConfig(method="etd-rk4", dt=icfg.dt, t_final=icfg.dt)
        # the in-memory path one step at a time: each call checks its one step
        state = init
        for step in range(1, 301):
            try:
                state = integrate_numeric(state, build_tensor(12), one_step)[-1][1]
            except BlowupError as exc:
                mode = str(exc).split(" on mode ")[1]
                break
        assert 72 < step < 300
        with pytest.raises(BlowupError) as info:
            run(cfg)
        assert str(info.value) == f"non-finite amplitude at t={step * icfg.dt:.6g} on mode {mode}"

    def test_weight_overflow_in_later_block_names_first_shell(self, tmp_path):
        # c1 = 1.45: exp(2 c1 t h_8 - log h_8) leaves the double range near
        # t = 25.9, step 259 of dt = 0.1, in the second row block of 198 rows
        N = 8
        init = random_tilde_state(N, np.random.default_rng(43), s2_scale=0.3)
        cfg = self.config(tmp_path, N, "etd-rk4", 0.1, 27.0, init, c1=1.45)
        loaded = load_state_csv(tmp_path / "init.csv", truncation=N)
        series = integrate_numeric(loaded, build_tensor(N), cfg.integrator_config())
        with pytest.raises(WeightOverflowError) as want:
            diagnostics(series, NormSpec(alpha=-2.0, c1=1.45))
        with pytest.raises(WeightOverflowError) as got:
            run(cfg)
        assert (got.value.shell, got.value.exponent) == (want.value.shell, want.value.exponent)
        h = mode_table(N).hweight.max()
        w_e = 2.0 * 1.45 * series.times * h - np.log(h)
        first = int(np.argmax(w_e > _LOG_MAX))
        assert first > 198
        assert got.value.shell == 8 and got.value.exponent == w_e[first]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_run_leaves_no_output(self, tmp_path, monkeypatch):
        _, cfg = self.blowup_case(tmp_path)
        monkeypatch.chdir(tmp_path)  # a relative path would land here too
        before = set(tmp_path.rglob("*"))
        with pytest.raises(BlowupError):
            run(cfg)
        # the trajectory was streamed to a temporary file, which is gone too
        assert set(tmp_path.rglob("*")) == before


class TestVerifyCommand:
    def test_report_shape(self, tmp_path, capsys):
        rc = main(["verify", "--level", "fast", "--seed", "4242", "--out", str(tmp_path / "r.json")])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert rc == 0
        assert report["passed"] is True
        assert report["seed"] == 4242
        names = [c["name"] for c in report["checks"]]
        assert "a2_equality" in names
        assert all("margin" in c for c in report["checks"])
        on_disk = json.loads((tmp_path / "r.json").read_text())
        assert on_disk == report


# Imports the CLI, runs `verify --level fast` and an etd-rk4 `run`, then prints
# the scipy modules loaded on the way.
_SCIPY_FREE_CHILD = """
import json, sys
from landau_spectral.cli import main
assert main(["verify", "--level", "fast"]) == 0
assert main(["run", "--config", sys.argv[1]]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


# Imports the CLI and runs an etd-rk4 `run`, then prints whether the
# verification module was loaded on the way.
_RUN_CHILD = """
import json, sys
from landau_spectral.cli import main
assert main(["run", "--config", sys.argv[1]]) == 0
print(json.dumps("landau_spectral.verification" in sys.modules))
"""


def test_run_never_imports_verification(tmp_path):
    cfg = TestRunCommand().write_config(tmp_path, truncation=6, t_final=0.05)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CHILD, str(cfg)], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) is False


def test_commands_never_import_scipy(tmp_path):
    cfg = TestRunCommand().write_config(
        tmp_path,
        truncation=8,
        t_final=0.05,
        init={"kind": "single-mode", "mode": [0, 2, 1], "amplitude": [0.3, 0.1]},
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_CHILD, str(cfg)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("command", ["run", "verify"])
def test_benchmark_traces_every_layer(tmp_path, command):
    # perfbench traces public names of the package; a metric whose name went
    # missing is reported absent, so every metric must be present here
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    if command == "run":
        # all five shell-2 drivers and no null amplitude: the run steps folded rows
        init = random_tilde_state(4, np.random.default_rng(29), s2_scale=0.3)
        assert np.all(init.coeffs[mode_table(4).s2_indices] != 0)
        assert build_tensor(4).reach(init.coeffs)[1].pivot is not None
        save_state_csv(init, tmp_path / "init.csv")
        cfg = TestRunCommand().write_config(
            tmp_path,
            truncation=4,
            t_final=0.05,
            init={"kind": "file", "path": str(tmp_path / "init.csv")},
        )
        args = ["--probe-apply", "0.01", "--", "run", "--config", str(cfg)]
        facts = dict(steps=50, samples=51, modes=len(mode_table(4)))
    else:
        args = ["--", "verify", "--level", "fast"]
        facts = dict(steps=0, samples=0, modes=0)
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "trace_child.py"), "--out", str(out), *args],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    facts.update(wall_s=1.0, untraced_run_s=1.0, cache_bytes=0, output_bytes=0)
    report = json.loads(out.read_text())
    if command == "run":
        assert report["stats"]["coupling.CouplingTensor.reach"][0] == 1
    metrics = layers.layer_metrics(report, facts)
    assert set(layers.UNITS) - set(metrics) == set()
    assert all(math.isfinite(v) for v in metrics.values()), metrics
