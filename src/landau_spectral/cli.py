"""Command-line interface: simulation runs and verification.

Subcommands:

* ``run --config cfg.json`` -- build the coupling tensor, construct the
  initial datum, integrate, and write diagnostics/final-state CSVs.
  The run streams: it holds one row block of the trajectory at a time.
* ``verify --level fast|full [--seed S] [--out report.json]`` -- run the
  property suites and emit a JSON report with per-check margins.

The tensor is rebuilt on every run: at N=16 that takes a few milliseconds,
less than writing or reading it as a file.
"""

import argparse
import json
import logging
import math
import numbers
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .basis import (
    Mode,
    NormSpec,
    SpectralState,
    load_state_csv,
    mode_table,
    nullspace_norm,
    save_state_csv,
)
from .coupling import CouplingTensor, build_tensor
from .errors import ConfigError, SpectralError
from .solver import (
    DiagnosticsReducer,
    IntegratorConfig,
    Trajectory,
    check_smallness,
    trajectory_blocks,
)

log = logging.getLogger("landau_spectral")


@dataclass(frozen=True)
class RunConfig:
    truncation: int
    alpha: float
    c1: float
    dt: float
    t_final: float
    method: str
    init: dict
    diagnostics_path: str
    final_state_path: str
    trajectory_path: str | None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        required = ("truncation", "alpha", "dt", "t_final", "init", "output")
        missing = [key for key in required if key not in raw]
        if missing:
            raise ConfigError(f"config is missing required fields: {', '.join(missing)}")
        for key in ("init", "output"):
            if not isinstance(raw[key], dict):
                raise ConfigError(f"config {key!r} must be a JSON object, got {raw[key]!r}")
        output = raw["output"]
        if "diagnostics" not in output or "final_state" not in output:
            raise ConfigError("config output must name 'diagnostics' and 'final_state' paths")
        truncation = raw["truncation"]
        if isinstance(truncation, bool) or not isinstance(truncation, numbers.Integral):
            raise ConfigError(f"truncation must be an integer, got {truncation!r}")
        cfg = cls(
            truncation=int(truncation),
            alpha=_finite(raw, "alpha"),
            c1=_finite(raw, "c1", 0.05),
            dt=_finite(raw, "dt"),
            t_final=_finite(raw, "t_final"),
            method=str(raw.get("method", "etd-rk4")),
            init=dict(raw["init"]),
            diagnostics_path=str(output["diagnostics"]),
            final_state_path=str(output["final_state"]),
            trajectory_path=output.get("trajectory"),
        )
        if "tensor_dir" in raw:
            log.info("config key 'tensor_dir' is ignored: every run builds its coupling tensor")
        if cfg.truncation < 2:
            raise ConfigError(f"truncation must be >= 2, got {cfg.truncation}")
        if cfg.alpha > 0:
            raise ConfigError(f"alpha must be <= 0, got {cfg.alpha}")
        # delegate dt/t_final/c1/method validation
        try:
            cfg.integrator_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cfg

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(
            method=self.method, dt=self.dt, t_final=self.t_final, c1=self.c1, alpha=self.alpha
        )


def _finite(raw: dict, key: str, default=None) -> float:
    """The config value at `key` (or `default`) as a finite float."""
    value = raw.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if isinstance(value, bool) or not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def example_dirac_coefficient(k: int) -> float:
    """Radial coefficient sqrt(2 Gamma(k+3/2) / (sqrt(pi) k!)) of the
    Dirac-minus-Maxwellian datum on mode (k, 0, 0); grows like k^(1/4)."""
    log_c = 0.5 * (
        math.log(2.0) + math.lgamma(k + 1.5) - 0.5 * math.log(math.pi) - math.lgamma(k + 1)
    )
    return math.exp(log_c)


def init_example_dirac(N: int) -> SpectralState:
    """Radial datum of the Dirac-minus-Maxwellian example.

    Carries the radial coefficients on modes (k, 0, 0) for 2 <= k <= N/2;
    purely radial, orthogonal to the collision invariants, and with a
    vanishing shell-2 angular block.
    """
    if N < 2:
        raise ValueError(f"truncation must be >= 2, got {N}")
    amps = {(k, 0, 0): example_dirac_coefficient(k) for k in range(2, N // 2 + 1)}
    return SpectralState.from_dict(N, amps)


def init_single_mode(N: int, mode, amplitude: complex) -> SpectralState:
    return SpectralState.from_dict(N, {tuple(mode): amplitude})


def init_from_file(path, N: int) -> SpectralState:
    state = load_state_csv(path, truncation=N)
    resid = nullspace_norm(state)
    log.info(
        "loaded %s: null-space residual %.3e (%s)",
        path,
        resid,
        "in the invariant complement" if resid <= 1e-12 else "NOT invariant-orthogonal",
    )
    return state


def _is_seq(value, length: int, kind) -> bool:
    """True for a list or tuple of `length` non-boolean `kind` numbers."""
    return (
        isinstance(value, (list, tuple))
        and len(value) == length
        and all(isinstance(x, kind) and not isinstance(x, bool) for x in value)
    )


def build_initial_state(cfg: RunConfig) -> SpectralState:
    kind = cfg.init.get("kind")
    if kind == "example-dirac":
        state = init_example_dirac(cfg.truncation)
    elif kind == "single-mode":
        mode = cfg.init.get("mode")
        amp = cfg.init.get("amplitude", 1.0)
        if not _is_seq(mode, 3, numbers.Integral):
            raise ConfigError(f"single-mode 'mode' must be [n, l, m] integers, got {mode!r}")
        if isinstance(amp, (list, tuple)):
            if not _is_seq(amp, 2, numbers.Real):
                raise ConfigError(f"single-mode 'amplitude' list must be [re, im], got {amp!r}")
            amp = complex(amp[0], amp[1])
        state = init_single_mode(cfg.truncation, mode, amp)
    elif kind == "file":
        path = cfg.init.get("path")
        if not path:
            raise ConfigError("file init needs 'path'")
        state = init_from_file(path, cfg.truncation)
    else:
        raise ConfigError(f"unknown init kind {kind!r}")
    # otherwise a blow-up at t = dt, or a run that writes non-finite outputs
    if not np.isfinite(state.coeffs).all():
        raise ConfigError(f"{kind} init is not finite at t = 0")
    return state


def load_or_build_tensor(N: int) -> CouplingTensor:
    """The coupling tensor of truncation N, built afresh; logs the build time."""
    # the benchmark in perfbench/ times a run's tensor set-up under this name
    start = time.perf_counter()
    tensor = build_tensor(N)
    log.info("coupling tensor N=%d built in %.3fs", N, time.perf_counter() - start)
    return tensor


_DIAG_COLUMNS = (
    "t",
    "q_alpha_norm",
    "gs_norm",
    "s2_norm",
    "nullspace_residual",
    "energy_integral",
)


def write_diagnostics_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(_DIAG_COLUMNS) + "\n")
        for r in rows:
            fh.write(
                ",".join(
                    format(v, ".17g")
                    for v in (
                        r.t,
                        r.q_alpha_norm,
                        r.gs_norm,
                        r.s2_norm,
                        r.nullspace_residual,
                        r.energy_integral,
                    )
                )
                + "\n"
            )


_TRAJECTORY_HEADER = "t,n,l,m,re,im\n"


@lru_cache(maxsize=8)
def _mode_prefixes(N: int) -> tuple:
    return tuple(f"{mo.n},{mo.l},{mo.m}," for mo in mode_table(N).modes)


def _write_trajectory_rows(fh, block: Trajectory) -> None:
    """The `t,n,l,m,re,im` rows of one row block, one per nonzero coefficient."""
    modes = _mode_prefixes(block.truncation)
    times = [format(t, ".17g") + "," for t in block.times.tolist()]
    nz_rows, nz_modes = np.nonzero(block.coeffs)
    values = block.coeffs[nz_rows, nz_modes].tolist()
    fh.writelines(
        f"{times[r]}{modes[i]}{format(z.real, '.17g')},{format(z.imag, '.17g')}\n"
        for r, i, z in zip(nz_rows.tolist(), nz_modes.tolist(), values)
    )


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One `t,n,l,m,re,im` row per nonzero coefficient, sample by sample."""
    with open(path, "w") as fh:
        fh.write(_TRAJECTORY_HEADER)
        for rows in traj.row_blocks():
            _write_trajectory_rows(fh, traj[rows])


@contextmanager
def _trajectory_sink(path):
    """A callable that appends one row block to the trajectory CSV at `path`;
    it does nothing when `path` is None.

    The file is written under a temporary name in the same directory and
    renamed to `path` when the ``with`` body completes, or removed if it
    raises, so a failed run leaves nothing at `path`.
    """
    if not path:
        yield lambda block: None
        return
    path = Path(path)
    part = path.with_name(f".{path.name}.{os.getpid()}.part")
    try:
        with open(part, "w") as fh:
            fh.write(_TRAJECTORY_HEADER)
            yield lambda block: _write_trajectory_rows(fh, block)
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def run(cfg: RunConfig) -> int:
    tensor = load_or_build_tensor(cfg.truncation)
    init = build_initial_state(cfg)

    try:
        smallness = check_smallness(init, cfg.c1)
    except ValueError as exc:
        # the check is advisory: a c1 without a threshold only loses the guarantee
        log.warning(
            "no smallness threshold at c1=%g (%s); the monotone energy estimate "
            "is not guaranteed, proceeding anyway",
            cfg.c1,
            exc,
        )
    else:
        if smallness.passed:
            log.info(
                "shell-2 norm %.4f within decay threshold %.4f (margin %.4f)",
                smallness.s2,
                smallness.threshold,
                smallness.margin,
            )
        else:
            log.warning(
                "shell-2 norm %.4f exceeds decay threshold %.4f; the monotone "
                "energy estimate is not guaranteed, proceeding anyway",
                smallness.s2,
                smallness.threshold,
            )

    # one pass over the row blocks: each feeds the diagnostics and the
    # trajectory file, and the last row is the final state
    blocks = trajectory_blocks(init, tensor, cfg.integrator_config())
    reducer = DiagnosticsReducer(cfg.truncation, NormSpec(alpha=cfg.alpha, c1=cfg.c1))
    with _trajectory_sink(cfg.trajectory_path) as write_block:
        for block in blocks:
            reducer.add(block)
            write_block(block)
        rows = reducer.rows()
        write_diagnostics_csv(rows, cfg.diagnostics_path)
        t_end, final = block[-1]
        save_state_csv(final, cfg.final_state_path)
    log.info(
        "run complete: %d samples to t=%.6g, diagnostics -> %s, final state -> %s",
        len(rows),
        t_end,
        cfg.diagnostics_path,
        cfg.final_state_path,
    )
    return 0


def _emit_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="landau-spectral",
        description="Spectral cascade solver for the homogeneous Landau equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured problem")
    p_run.add_argument("--config", required=True, help="path to a JSON run configuration")

    p_verify = sub.add_parser("verify", help="run the property-check suites")
    p_verify.add_argument("--level", choices=("fast", "full"), default="fast")
    p_verify.add_argument("--seed", type=int, default=12345)
    p_verify.add_argument("--out", help="also write the JSON report to this path")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)

    try:
        if args.command == "run":
            return run(RunConfig.from_file(args.config))
        from .verification import run_checks  # only verify needs the checks

        report = run_checks(level=args.level, seed=args.seed)
        text = json.dumps(report, indent=2)
        print(text)
        if args.out:
            Path(args.out).write_text(text + "\n")
        return 0 if report["passed"] else 1
    except (SpectralError, ValueError, OSError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
