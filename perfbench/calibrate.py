"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

run.py runs this child between the timed children of the program and scales
the program's times by the median calibration time. It does not import the
package, so a change to the program leaves it unchanged. Its mix follows the
program's: a fresh interpreter that imports numpy and scipy.special, a loop
of small numpy steps on a state of a thousand modes with a gather and a
scatter-add over a stencil, and an interpreted loop over tuples and dicts.
Code that waits on memory slows less than this mix when the host is busy, so
the mix holds none.
"""

import numpy as np
import scipy.special  # noqa: F401  -- the program's largest import

MODES = 1_000
STENCIL = 12_000
STEPS = 500


def main():
    rng = np.random.default_rng(20170821)
    coef = rng.standard_normal(STENCIL)
    tgt = rng.integers(0, MODES, STENCIL)
    src = rng.integers(0, MODES, STENCIL)
    state = rng.standard_normal(MODES) + 1j * rng.standard_normal(MODES)
    decay = np.exp(-1e-3 * np.arange(MODES))
    for _ in range(STEPS):
        image = np.bincount(tgt, weights=(coef * state[src]).real, minlength=MODES)
        state = state * decay + 1e-6 * image
    modes = {}
    for k in range(60):
        for n in range(k // 2 + 1):
            l = k - 2 * n
            for m in range(-l, l + 1):
                modes[n, l, m] = modes.get((n, l - 1, m), 1.0) * 0.5 + (n + l + abs(m)) ** 0.5
    if not np.isfinite(state).all() or not modes:
        raise SystemExit("calibration produced a non-finite result")


if __name__ == "__main__":
    main()
