"""Run one `landau-spectral` command with every public function traced.

    python3 perfbench/trace_child.py --out trace.json [--probe-apply SECONDS] -- run --config cfg.json

Writes the tracer's report, the import time of ``landau_spectral.cli``, the
wall-clock time at which the command returned (so that the caller can leave
out what follows) and, with --probe-apply, the median time of one
``operators.apply_bilinear`` call on the run's initial state and tensor
(timed on the unwrapped function, after the command has finished). Exits with
the command's exit code.
"""

import argparse
import importlib
import json
import statistics
import sys
import time

from layers import MODULES
from tracer import Tracer

TENSOR_SOURCES = ("cli.load_or_build_tensor", "coupling.build_tensor", "coupling.load_tensor")
STATE_SOURCES = ("cli.build_initial_state",)


def result_sizes(name, result):
    """Sizes read off a traced function's return value; absent when its shape changed."""
    try:
        if name == "solver.solve_cascade":
            polys = [poly for mode_terms in result.terms for _rate, poly in mode_terms]
            return {"cascade_terms": len(polys), "cascade_max_degree": max(len(p) for p in polys) - 1}
        if name in TENSOR_SOURCES:
            return {"entries": len(result)}
    except (AttributeError, TypeError, ValueError):
        pass
    return {}


def probe_apply(tracer, seconds):
    tensor = next((tracer.last_result[n] for n in TENSOR_SOURCES if n in tracer.last_result), None)
    state = next((tracer.last_result[n] for n in STATE_SOURCES if n in tracer.last_result), None)
    apply = tracer.originals.get("operators.apply_bilinear")
    if tensor is None or state is None or apply is None:
        return None
    apply(state, state, tensor)
    times = []
    stop = time.perf_counter() + seconds
    while len(times) < 20 or (time.perf_counter() < stop and len(times) < 2000):
        start = time.perf_counter()
        apply(state, state, tensor)
        times.append(time.perf_counter() - start)
    return {"median_s": statistics.median(times), "calls": len(times)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe-apply", type=float, default=0.0)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command

    start = time.perf_counter()
    cli = importlib.import_module("landau_spectral.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer(capture={"solver.solve_cascade", *TENSOR_SOURCES, *STATE_SOURCES})
    tracer.install([importlib.import_module(f"landau_spectral.{m}") for m in MODULES])

    rc = cli.main(argv)
    main_end = time.time()

    sizes = {}
    for name, result in tracer.last_result.items():
        sizes.update(result_sizes(name, result))
    probe = probe_apply(tracer, args.probe_apply) if args.probe_apply > 0 else None
    report = tracer.report()
    report.update(
        import_s=import_s, rc=rc, sizes=sizes, main_end_epoch=main_end,
        probe_requested=args.probe_apply > 0, probe=probe,
    )
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
