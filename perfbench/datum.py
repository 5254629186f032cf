"""Seeded initial data and closed-form references, written without the package.

The benchmark makes its inputs here so that the program under test receives
only files. Nothing in this module imports ``landau_spectral``.
"""

import math
import random

S2_NORM = 0.3  # below the 0.3705 smallness threshold at c1 = 0.05
MAX_AMPLITUDE = 0.5


def tilde_modes(N):
    """Modes (n, l, m) with 2 <= 2n + l <= N and n + l >= 2, in shell order."""
    for k in range(2, N + 1):
        for n in range(k // 2 + 1):
            l = k - 2 * n
            if n + l < 2:
                continue
            for m in range(-l, l + 1):
                yield n, l, m


def mode_count(N):
    """Size of the full mode table for truncation N (every shell 0..N)."""
    return (N + 1) * (N + 2) * (N + 3) // 6


def random_tilde_datum(N, seed):
    """Real-symmetric amplitudes with |g| <= 0.5 and shell-2 norm 0.3.

    g_{n,l,-m} = conj(g_{n,l,m}); m = 0 amplitudes are real. Returns a dict
    {(n, l, m): complex}.
    """
    rng = random.Random(seed)
    amps = {}
    for n, l, m in tilde_modes(N):
        if m < 0:
            continue
        r = rng.uniform(0.0, MAX_AMPLITUDE)
        if m == 0:
            amps[(n, l, 0)] = complex(r if rng.random() < 0.5 else -r, 0.0)
        else:
            phase = rng.uniform(0.0, 2.0 * math.pi)
            a = complex(r * math.cos(phase), r * math.sin(phase))
            amps[(n, l, m)] = a
            amps[(n, l, -m)] = a.conjugate()
    scale = S2_NORM / shell2_norm(amps)
    for m in range(-2, 3):
        amps[(0, 2, m)] *= scale
    return amps


def shell2_norm(amps):
    return math.sqrt(sum(abs(amps.get((0, 2, m), 0.0)) ** 2 for m in range(-2, 3)))


def dirac_coefficient(k):
    """sqrt(2 Gamma(k + 3/2) / (sqrt(pi) k!)), the radial Dirac-minus-Maxwellian datum."""
    return math.exp(
        0.5 * (math.log(2.0) + math.lgamma(k + 1.5) - 0.5 * math.log(math.pi) - math.lgamma(k + 1))
    )


def dirac_state(N, t):
    """Closed-form example-dirac solution: c_k e^(-4k t) on (k, 0, 0), 2 <= k <= N/2.

    The datum has no shell <= 2 driver, so the bilinear term vanishes and each
    radial mode decays at its eigenvalue 4k.
    """
    return {(k, 0, 0): complex(dirac_coefficient(k) * math.exp(-4.0 * k * t)) for k in range(2, N // 2 + 1)}


def write_state_csv(amps, path):
    """Coefficient CSV in the package's format: header n,l,m,re,im, 17 digits."""
    with open(path, "w") as fh:
        fh.write("n,l,m,re,im\n")
        for (n, l, m), a in sorted(amps.items()):
            fh.write(f"{n},{l},{m},{format(a.real, '.17g')},{format(a.imag, '.17g')}\n")
