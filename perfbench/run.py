"""Benchmark of `landau-spectral run` and `landau-spectral verify`, end to end and per layer.

    python3 perfbench/run.py --workload etd-random-n16-cold --seed 1 --seconds 56 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
Each timed command runs in a fresh child process, one at a time, and its
outputs are checked after the clock stops. With --trace 0 the benchmark runs
three set-up children (the same config cut to one step) among full runs, and a
calibration child (calibrate.py) before the first child and after each one.
It reports medians of run_s and setup_s, scaled to the reference host speed
by the median calibration time, and of peak_rss_mb, plus pass_frac. With
--trace 1 it alternates untraced runs with traced ones (see trace_child.py)
and reports the per-layer metrics of layers.py. The last line of standard
output is the result as one JSON object; the lines before it are a readable
summary.
"""

import argparse
import importlib.metadata
import importlib.util
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import datum
import gate
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_REPEATS = 3
CHILD_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0  # stop starting children after this, so the run ends within 180 s
PROBE_APPLY_S = 0.3
# Typical median wall time of calibrate.py on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4, scipy 1.17); run_s and setup_s are wall times scaled by this over
# the run's median calibration time. It sets the scale of both, not their spread.
REFERENCE_CALIBRATION_S = 0.7
STRIPPED_ENV = ("LANDAU_TENSOR_DIR", "LANDAU_JIT")

# Why each workload exists is stated beside it. BENCHMARK.json lists the two
# that are steady enough on a 2-vCPU host to gate a change; the cascade and
# warm-cache workloads need more samples than a run has room for there, and
# are run by hand.
WORKLOADS = {
    # Tensor build + cache write, 4 bilinear applies per step, 1001 diagnostics rows.
    "etd-random-n16-cold": dict(
        N=16, method="etd-rk4", dt=1e-3, t_final=1.0, init="random", cache="cold",
        trajectory=False, reference="cascade",
    ),
    # Exact cascade solve (resonant degree raising fires from shell 18), eval_coeffs
    # per sample and the trajectory writer; no bilinear apply.
    "cascade-random-n18-cold": dict(
        N=18, method="cascade", dt=0.02, t_final=0.3, init="random", cache="cold",
        trajectory=True, reference="etd-rk4",
    ),
    # Tensor load at the largest stencil; every shell <= 2 driver is zero, so a
    # zero-driver short-cut shows here and not on etd-random-n16-cold.
    "etd-dirac-n32-warm": dict(
        N=32, method="etd-rk4", dt=1e-3, t_final=0.1, init="example-dirac", cache="warm",
        trajectory=False, reference="closed-form",
    ),
    # The only workload that runs `verification`, the operator oracles and ylm.
    "verify-fast": dict(verify="fast"),
}
ETDRK4_REFERENCE_DT = 1e-3


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (missing program, failed reference)."""


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def version_of(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version_of("numpy"),
        "scipy": version_of("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "stripped_env": [k for k in STRIPPED_ENV if k in os.environ],
    }


class Child:
    """Outcome of one child process: exit code, wall time, peak RSS, gate errors."""

    def __init__(self, rc, wall_s, rss_mb, end_epoch=0.0):
        self.rc = rc
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.end_epoch = end_epoch
        self.errors = [] if rc == 0 else [f"exit code {rc}"]

    @property
    def failed(self):
        return bool(self.errors)


def run_child(argv, cwd, log_stem):
    """Run argv to completion; wall time covers spawn to reap, RSS is the child's peak."""
    with open(f"{log_stem}.out", "w") as out, open(f"{log_stem}.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        end_epoch = time.time()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, end_epoch)


def cli(*args):
    return [sys.executable, "-m", "landau_spectral.cli", *args]


def traced(out, probe_s, *args):
    return [sys.executable, str(HERE / "trace_child.py"), "--out", str(out),
            "--probe-apply", str(probe_s), "--", *args]


def calibrate(work):
    """Wall time of the fixed reference work in calibrate.py, in a fresh child."""
    child = run_child([sys.executable, str(HERE / "calibrate.py")], work, work / "calibrate")
    if child.failed:
        raise BenchmarkError(f"calibration child failed: {child.errors}")
    return child.wall_s


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file()) if Path(path).exists() else 0


class RunWorkload:
    """`landau-spectral run` on one config; set-up is the same config cut to t_final = dt."""

    def __init__(self, spec, seed, work):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.tensor_dir = work / "tensor"
        self.n_steps = int(math.floor(spec["t_final"] / spec["dt"] + 1e-9))
        self.reference = {}

    def config(self, name, t_final, method=None, dt=None, tensor_dir=None, trajectory=None):
        out = self.work / name
        out.mkdir(exist_ok=True)
        spec = self.spec
        init = {"kind": "file", "path": str(self.work / "datum.csv")}
        if spec["init"] == "example-dirac":
            init = {"kind": "example-dirac"}
        cfg = {
            "truncation": spec["N"], "alpha": -2.0, "c1": 0.05,
            "dt": dt or spec["dt"], "t_final": t_final, "method": method or spec["method"],
            "init": init,
            "output": {
                "diagnostics": str(out / "diag.csv"),
                "final_state": str(out / "final.csv"),
                "trajectory": str(out / "traj.csv") if trajectory else None,
            },
            "tensor_dir": str(tensor_dir or self.tensor_dir),
        }
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1))
        return path, cfg["output"]

    def prepare(self):
        spec = self.spec
        if spec["init"] == "random":
            amps = datum.random_tilde_datum(spec["N"], self.seed)
            datum.write_state_csv(amps, self.work / "datum.csv")
            self.s2_initial = datum.shell2_norm(amps)
        else:
            self.s2_initial = 0.0
        self.run_cfg = self.config("run", spec["t_final"], trajectory=spec["trajectory"])
        self.setup_cfg = self.config("setup", spec["dt"], trajectory=spec["trajectory"])
        run_child(cli("--help"), self.work, self.work / "warmup")  # byte-compile, untimed
        for label, t_final in (("run", spec["t_final"]), ("setup", spec["dt"])):
            self.reference[label] = self.reference_state(label, t_final)
        if spec["cache"] == "warm":
            fill = run_child(cli("run", "--config", str(self.setup_cfg[0])), self.work, self.work / "fill")
            if fill.failed:
                raise BenchmarkError(f"filling the tensor cache failed: {fill.errors}")

    def reference_state(self, label, t_final):
        """Final state of an independent method at t_final, or None where none is exact enough.

        One ETDRK4 step of dt = 1e-3 on the random datum is ~1e-7 away from the
        exact cascade (its truncation error decays with the stiff modes), so
        an ETDRK4 set-up run is gated on its diagnostics alone; an ETDRK4
        reference uses at least 160 steps.
        """
        spec = self.spec
        if spec["reference"] == "closed-form":
            return datum.dirac_state(spec["N"], t_final)
        method = spec["reference"]
        if method == "cascade":
            if label == "setup":
                return None
            dt = t_final
        else:
            dt = min(ETDRK4_REFERENCE_DT, t_final / 160)
        cfg, outputs = self.config(
            f"ref-{label}", t_final, method=method, dt=dt, tensor_dir=self.work / "ref-tensor"
        )
        child = run_child(cli("run", "--config", str(cfg)), self.work, self.work / f"ref-{label}")
        if child.failed:
            raise BenchmarkError(f"{method} reference run failed: {child.errors}")
        return gate.read_state_csv(outputs["final_state"])

    def outputs(self, label):
        return (self.setup_cfg if label == "setup" else self.run_cfg)[1]

    def once(self, label, trace_out=None):
        """One timed child; label is "run", "traced" (the run config) or "setup"."""
        if self.spec["cache"] == "cold":
            shutil.rmtree(self.tensor_dir, ignore_errors=True)
        for p in self.outputs(label).values():
            if p:
                Path(p).unlink(missing_ok=True)
        config = (self.setup_cfg if label == "setup" else self.run_cfg)[0]
        args = ("run", "--config", str(config))
        argv = traced(trace_out, PROBE_APPLY_S, *args) if trace_out else cli(*args)
        child = run_child(argv, self.work, self.work / label)
        if child.rc == 0:
            child.errors = self.check(label)
        return child

    def check(self, label, outputs=None):
        steps, ref = (1, self.reference["setup"]) if label == "setup" else (self.n_steps, self.reference["run"])
        return gate.check_run(outputs or self.outputs(label), steps, self.spec["dt"], self.s2_initial, ref)

    def selftest(self):
        """The gate must reject a corrupted final state or diagnostics file."""
        bad = self.work / "selftest"
        bad.mkdir(exist_ok=True)
        good = self.outputs("run")
        final = (bad / "final.csv")
        lines = Path(good["final_state"]).read_text().splitlines()
        n, l, m, re, im = lines[-1].split(",")
        lines[-1] = ",".join((n, l, m, repr(float(re) + 1e-6), im))
        final.write_text("\n".join(lines) + "\n")
        cases = [{**good, "final_state": str(final)}]
        diag_lines = Path(good["diagnostics"]).read_text().splitlines()
        short = bad / "diag_short.csv"
        short.write_text("\n".join(diag_lines[:-1]) + "\n")
        cases.append({**good, "diagnostics": str(short)})
        header = diag_lines[0].split(",")
        gs = header.index("gs_norm")
        row = diag_lines[-1].split(",")
        row[gs] = repr(float(diag_lines[-2].split(",")[gs]) * (1 + 1e-8))
        rising = bad / "diag_rising.csv"
        rising.write_text("\n".join(diag_lines[:-1] + [",".join(row)]) + "\n")
        cases.append({**good, "diagnostics": str(rising)})
        return [case for case in cases if not self.check("run", case)]

    def facts(self, label, wall_s):
        outs = self.outputs(label)
        return {
            "wall_s": wall_s,
            "steps": self.n_steps if self.spec["method"] != "cascade" else 0,
            "samples": self.n_steps + 1,
            "modes": datum.mode_count(self.spec["N"]),
            "cache_bytes": dir_bytes(self.tensor_dir),
            "output_bytes": sum(Path(p).stat().st_size for p in outs.values() if p and Path(p).exists()),
        }


class VerifyWorkload:
    """`landau-spectral verify --level <level>`; set-up is a fresh-process import of the CLI."""

    def __init__(self, spec, seed, work):
        self.level = spec["verify"]
        self.work = work

    def prepare(self):
        run_child(cli("--help"), self.work, self.work / "warmup")

    def once(self, label, trace_out=None):
        if label == "setup":
            argv = [sys.executable, "-c", "import landau_spectral.cli"]
        elif trace_out:
            argv = traced(trace_out, 0, "verify", "--level", self.level)
        else:
            argv = cli("verify", "--level", self.level)
        child = run_child(argv, self.work, self.work / label)
        if child.rc == 0 and label != "setup":
            child.errors = gate.check_verify_report(self.work / f"{label}.out")
        return child

    def selftest(self):
        report = json.loads((self.work / "run.out").read_text())
        report["passed"] = False
        bad = self.work / "selftest.out"
        bad.write_text(json.dumps(report))
        return [] if gate.check_verify_report(bad) else ["passed=false accepted"]

    def facts(self, label, wall_s):
        return {"wall_s": wall_s, "steps": 0, "samples": 0,
                "modes": 0, "cache_bytes": 0, "output_bytes": (self.work / f"{label}.out").stat().st_size}


def tally(children):
    """(attempted, failed) over every gated child run."""
    return len(children), sum(1 for c in children if c.failed)


def measure(workload, seconds, trace):
    """Run children until `seconds` are used, with at least MIN_REPEATS of each kind.

    --trace 0 spreads MIN_REPEATS set-up runs over the first children and
    spends the rest on full runs: only run_s needs many samples to be steady.
    --trace 1 alternates untraced and traced full runs.

    With --trace 0 a calibration child runs before the first child and after
    each one; their wall times measure the host's speed over the same period.
    """
    kinds = ("run", "traced") if trace else ("run", "setup")
    children = {kind: [] for kind in kinds}
    traces = []
    calibrations = [] if trace else [calibrate(workload.work)]
    start = time.perf_counter()
    last_s = 0.0
    selftest_failures = None
    for i in itertools.count():
        elapsed = time.perf_counter() - start
        short = [k for k in kinds if len(children[k]) < MIN_REPEATS]
        if not short and elapsed + last_s > seconds:
            break
        if children["run"] and elapsed + last_s > HARD_LIMIT_S:
            break
        if trace:
            kind = kinds[i % 2]
        else:
            kind = "setup" if "setup" in short and (i % 3 == 1 or short == ["setup"]) else "run"
        child_start = time.perf_counter()
        if kind == "traced":
            out = workload.work / f"trace-{i}.json"
            child = workload.once("traced", trace_out=out)
            if child.rc == 0:
                report = json.loads(out.read_text())
                # the probe and the report dump follow the command; leave them out
                tail_s = child.end_epoch - report["main_end_epoch"]
                traces.append((report, workload.facts("traced", child.wall_s - tail_s)))
        else:
            child = workload.once(kind)
        if calibrations:
            calibrations.append(calibrate(workload.work))
        children[kind].append(child)
        last_s = time.perf_counter() - child_start
        if kind == "run" and selftest_failures is None and not child.failed:
            selftest_failures = workload.selftest()
    return children, traces, calibrations, selftest_failures


def summarize(values):
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "landau_spectral" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through run_child so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    spec = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        info = machine_info()
        kind = VerifyWorkload if "verify" in spec else RunWorkload
        workload = kind(spec, args.seed, work)
        prep_start = time.perf_counter()
        workload.prepare()
        prep_s = time.perf_counter() - prep_start
        children, traces, calibrations, selftest_failures = measure(workload, args.seconds, args.trace)
        if traces:  # keep the spans of the last traced run for inspection
            kept = WORK / f"trace-{args.workload}.json"
            kept.write_text(json.dumps(traces[-1][0]))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if selftest_failures:
        print(f"perfbench: the output gate accepted corrupted outputs: {selftest_failures}", file=sys.stderr)
        return 3

    every = [c for group in children.values() for c in group]
    attempted, failed = tally(every)
    for label, group in children.items():
        for i, c in enumerate(group):
            if c.failed:
                print(f"FAILED {label}[{i}]: {'; '.join(c.errors)}")
    ok_runs = [c for c in children["run"] if not c.failed] or children["run"]
    run_s = [c.wall_s for c in ok_runs]

    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "spec": spec, "machine": info, "prepare_s": prep_s,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "gate_selftest": "passed" if selftest_failures == [] else "not run (no successful run)",
    }
    metrics = {}
    if args.trace:
        untraced = statistics.median(run_s)
        per_run = [layers.layer_metrics(r, {**facts, "untraced_run_s": untraced}) for r, facts in traces]
        names = sorted({k for m in per_run for k in m})
        for name in names:
            values = [m[name] for m in per_run if name in m]
            metrics[name] = {"value": statistics.median(values), "unit": layers.UNITS[name][0]}
        summary["traced_runs"] = len(per_run)
        summary["untraced_runs"] = len(run_s)
        summary["absent"] = sorted(set(layers.UNITS) - set(names))
        summary["spans_file"] = str(WORK / f"trace-{args.workload}.json")
    else:
        # wall times at the reference host speed: the host ran this run's
        # calibration children in median calibration_s instead of the reference
        scale = REFERENCE_CALIBRATION_S / statistics.median(calibrations)
        ok_setups = [c for c in children["setup"] if not c.failed] or children["setup"]
        samples = {
            "run_s": ("s", [c.wall_s * scale for c in ok_runs]),
            "setup_s": ("s", [c.wall_s * scale for c in ok_setups]),
            "peak_rss_mb": ("MB", [c.rss_mb for c in ok_runs]),
        }
        # printed in the summary only: the unscaled wall times and the calibration
        samples_seen = {
            "run_wall_s": ("s", run_s),
            "setup_wall_s": ("s", [c.wall_s for c in ok_setups]),
            "calibration_s": ("s", calibrations),
        }
        for name, (unit, values) in {**samples, **samples_seen}.items():
            med, q1, q3 = summarize(values)
            if name in samples:
                metrics[name] = {"value": med, "unit": unit}
            print(f"{name:13s} median {med:10.4f} {unit:3s}  q1 {q1:.4f} q3 {q3:.4f}  "
                  f"spread {(q3 - q1) / med:.3f}  n={len(values)}")
            summary[f"{name}_samples"] = [round(v, 4) for v in values]
        summary["reference_calibration_s"] = REFERENCE_CALIBRATION_S
        metrics["pass_frac"] = {"value": (attempted - failed) / attempted, "unit": "fraction"}
        print(f"{'failed_frac':13s} {failed}/{attempted} = {failed / attempted:.4f}")
    print("summary " + json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
