"""Self-contained property checks runnable from the command line.

Each check returns a dict with a pass flag and a margin (positive distance
to the tolerance).  The suite covers quadrature exactness, sphere
orthonormality, permutation symmetry of the angular integrals, the
closed-form channel sums and their bounds (including whether the middle
channel attains its bound as an equality, which is recorded rather than
assumed), the Fourier-side expansion identities, the driver moment
integrals, agreement of the exact cascade with the numeric integrator, the
trilinear inequality, null-space closure, and the eigenvalue lower bound.
"""

import math

import numpy as np

from .basis import (
    Mode,
    NormSpec,
    SpectralState,
    lambda_eig,
    mode_table,
    nullspace_norm,
    project_tilde,
    s2_norm,
    weighted_norm,
)
from .coupling import build_tensor, gaunt, sum_sq_bound, sum_sq_channel, sum_sq_closed_form
from .operators import (
    apply_bilinear,
    fourier_multiplier_oracle,
    moment_integral_oracle,
)
from .solver import (
    SMALLNESS_DENOM,
    IntegratorConfig,
    diagnostics,
    integrate_numeric,
    solve_cascade,
)
from .specfun import gauss_legendre, ylm


def _check(name, passed, margin, detail):
    return {"name": name, "passed": bool(passed), "margin": float(margin), "detail": detail}


def random_tilde_state(N: int, rng, s2_scale=None, real_symmetric=True) -> SpectralState:
    """Random state supported on 2 <= shell <= N, n + l >= 2.

    With ``real_symmetric`` the conjugation symmetry g_{n,l,-m} =
    conj(g_{n,l,m}) is imposed; ``s2_scale`` rescales the shell-2 block to
    the given norm when it is nonzero.
    """
    table = mode_table(N)
    mask = table.tilde_mask(N)
    coeffs = np.zeros(len(table), dtype=np.complex128)
    if real_symmetric:
        for i, mo in enumerate(table.modes):
            if not mask[i] or mo.m < 0:
                continue
            z = complex(rng.standard_normal(), rng.standard_normal())
            if mo.m == 0:
                z = complex(z.real, 0.0)
            coeffs[i] = z
            coeffs[table.index[Mode(mo.n, mo.l, -mo.m)]] = z.conjugate()
    else:
        coeffs = np.where(
            mask,
            rng.standard_normal(len(table)) + 1j * rng.standard_normal(len(table)),
            0.0,
        )
    state = SpectralState(N, coeffs)
    if s2_scale is not None:
        s2 = s2_norm(state)
        if s2 > 0:
            coeffs = coeffs.copy()
            for m in range(-2, 3):
                coeffs[table.index[Mode(0, 2, m)]] *= s2_scale / s2
            state = SpectralState(N, coeffs)
    return state


def check_quadrature_exactness(tol=1e-13):
    worst = 0.0
    for order in range(1, 13):
        rule = gauss_legendre(order)
        for deg in range(0, 2 * order):
            got = float(np.dot(rule.weights, rule.nodes**deg))
            want = 0.0 if deg % 2 else 2.0 / (deg + 1)
            worst = max(worst, abs(got - want))
        worst = max(worst, abs(float(np.sum(rule.weights)) - 2.0))
    return _check("quadrature_exactness", worst <= tol, tol - worst, f"max error {worst:.3e}")


def check_sphere_orthonormality(lmax, tol=1e-12):
    rule = gauss_legendre(2 * lmax + 2)
    n_phi = 4 * lmax + 5
    phis = 2 * math.pi * np.arange(n_phi) / n_phi
    theta = np.arccos(rule.nodes)
    worst = 0.0
    for l1 in range(lmax + 1):
        for l2 in range(l1, lmax + 1):
            for m1 in range(-l1, l1 + 1):
                for m2 in range(-l2, l2 + 1):
                    y1 = ylm(l1, m1, theta[:, None], phis[None, :])
                    y2 = ylm(l2, m2, theta[:, None], phis[None, :])
                    val = np.sum(rule.weights[:, None] * y1 * np.conj(y2)) * (2 * math.pi / n_phi)
                    want = 1.0 if (l1, m1) == (l2, m2) else 0.0
                    worst = max(worst, abs(val - want))
    return _check(
        "sphere_orthonormality", worst <= tol, tol - worst, f"l <= {lmax}, max error {worst:.3e}"
    )


def check_gaunt_permutation(rng, samples=40, tol=1e-13):
    from itertools import permutations

    worst = 0.0
    for _ in range(samples):
        l1, l2 = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        lo, hi = abs(l1 - l2), l1 + l2
        choices = [l for l in range(lo, hi + 1) if (l1 + l2 + l) % 2 == 0]
        l3 = int(rng.choice(choices))
        m1 = int(rng.integers(-l1, l1 + 1))
        m2 = int(rng.integers(-l2, l2 + 1))
        m3 = -m1 - m2
        if abs(m3) > l3:
            continue
        vals = [gaunt(*p[0], *p[1], *p[2]) for p in permutations(((l1, m1), (l2, m2), (l3, m3)))]
        worst = max(worst, max(vals) - min(vals))
    return _check("gaunt_permutation", worst <= tol, tol - worst, f"max spread {worst:.3e}")


def _bound_applies(ch: str, n: int, l: int) -> bool:
    # the stated ranges of the three bounds
    if ch == "A1":
        return n >= 2
    if ch == "A2":
        return n >= 1 and l >= 1
    return l >= 2


def check_coefficient_sums(n_max, l_max, tol=1e-11):
    """Brute-force channel sums vs closed forms and bounds, all m*."""
    worst_closed = 0.0
    worst_bound = -math.inf
    for n in range(0, n_max + 1):
        for l in range(0, l_max + 1):
            for ch in ("A1", "A2", "A3"):
                ref = sum_sq_closed_form(ch, n, l)
                bound = sum_sq_bound(ch, n, l) if _bound_applies(ch, n, l) else None
                for m_star in range(-l, l + 1):
                    val = sum_sq_channel(ch, n, l, m_star)
                    worst_closed = max(worst_closed, abs(val - ref))
                    if bound is not None:
                        worst_bound = max(worst_bound, val - bound)
    passed = worst_closed <= tol and worst_bound <= tol
    return _check(
        "coefficient_sums",
        passed,
        tol - max(worst_closed, worst_bound),
        f"n <= {n_max}, l <= {l_max}: max |sum - closed| {worst_closed:.3e}, "
        f"max (sum - bound) {worst_bound:.3e}",
    )


def check_a2_equality(n_max, l_max, tol=1e-11):
    """Does the middle channel attain its Legendre-product value exactly?

    The bound for this channel is stated as an inequality; this check
    records whether the brute-force sum coincides with the product formula,
    rather than assuming it.
    """
    worst = 0.0
    for n in range(1, n_max + 1):
        for l in range(0, l_max + 1):
            ref = sum_sq_closed_form("A2", n, l)
            for m_star in range(-l, l + 1):
                worst = max(worst, abs(sum_sq_channel("A2", n, l, m_star) - ref))
    verdict = "equality holds" if worst <= tol else "equality REFUTED"
    return _check(
        "a2_equality",
        worst <= tol,
        tol - worst,
        f"{verdict}: max deviation {worst:.3e} over n <= {n_max}, l <= {l_max}",
    )


def check_fourier_multiplier(rng, shell_max=4, tol=1e-10):
    xi = rng.standard_normal((10, 3))
    xi *= (0.3 + 2.7 * rng.random((10, 1))) / np.linalg.norm(xi, axis=1, keepdims=True)
    drivers = [(1, 0, 0)] + [(0, 2, m2) for m2 in range(-2, 3)]
    worst = 0.0
    for k in range(shell_max + 1):
        for n in range(k // 2 + 1):
            l = k - 2 * n
            for m in range(-l, l + 1):
                for drv in drivers:
                    worst = max(worst, fourier_multiplier_oracle(drv, (n, l, m), xi))
    return _check(
        "fourier_multiplier", worst <= tol, tol - worst, f"max relative error {worst:.3e}"
    )


def check_moment_integrals(rng, tol=1e-8):
    samples = rng.standard_normal((5, 3)) * 1.5
    worst = max(moment_integral_oracle(which, samples) for which in ("orth1", "orth2", "orth3"))
    return _check(
        "moment_integrals", worst <= tol, tol - worst, f"max relative error {worst:.3e}"
    )


def check_cascade_vs_numeric(rng, N, tol=1e-6):
    tensor = build_tensor(N)
    init = random_tilde_state(N, rng, s2_scale=0.3)
    # keep the overall datum moderate so the quadratic term stays tame
    init = SpectralState(N, init.coeffs * (0.5 / max(1.0, np.abs(init.coeffs).max())))
    traj = solve_cascade(init, tensor)
    series = integrate_numeric(init, tensor, IntegratorConfig(method="etd-rk4", dt=1e-3, t_final=1.0))
    worst = 0.0
    for t, state in series[::100]:
        worst = max(worst, float(np.max(np.abs(traj.eval_coeffs(t) - state.coeffs))))
    return _check(
        "cascade_vs_numeric", worst <= tol, tol - worst, f"N={N}, max mode error {worst:.3e}"
    )


def check_trilinear(rng, N, triples, tol=0.0):
    tensor = build_tensor(N)
    worst_margin = math.inf
    worst_ratio = 0.0
    const = SMALLNESS_DENOM
    for _ in range(triples):
        f = project_tilde(random_tilde_state(N, rng, real_symmetric=False), N)
        g = project_tilde(random_tilde_state(N, rng, real_symmetric=False), N)
        h = project_tilde(random_tilde_state(N, rng, real_symmetric=False), N)
        image = apply_bilinear(f, g, tensor)
        for alpha in (0.0, -1.0, -2.0):
            weights = f.table.hweight**alpha
            lhs = abs(complex(np.sum(image.coeffs * np.conj(h.coeffs) * weights)))
            rhs = (
                const
                * s2_norm(f)
                * weighted_norm(project_tilde(g, N - 2), NormSpec(alpha=alpha + 1))
                * weighted_norm(h, NormSpec(alpha=alpha + 1))
            )
            if rhs > 0:
                worst_margin = min(worst_margin, (rhs - lhs) / rhs)
                worst_ratio = max(worst_ratio, lhs / rhs)
    return _check(
        "trilinear_inequality",
        worst_margin >= tol,
        worst_margin,
        f"N={N}, {triples} triples: max lhs/rhs {worst_ratio:.4f}",
    )


def check_nullspace_closure(rng, N=8, pairs=50, tol=1e-14):
    tensor = build_tensor(N)
    worst = 0.0
    for _ in range(pairs):
        f = random_tilde_state(N, rng, real_symmetric=False)
        g = random_tilde_state(N, rng, real_symmetric=False)
        worst = max(worst, nullspace_norm(apply_bilinear(f, g, tensor)))
    return _check("nullspace_closure", worst <= tol, tol - worst, f"max residual {worst:.3e}")


def check_eigenvalue_bound(shell_max=40):
    worst = math.inf
    at = None
    for k in range(3, shell_max + 1):
        for n in range(k // 2 + 1):
            l = k - 2 * n
            margin = lambda_eig(n, l) - (16.0 / 11.0) * (k + 1.5)
            if margin < worst:
                worst, at = margin, (n, l)
    shell2 = 12.0 - (16.0 / 11.0) * 3.5
    passed = worst >= -1e-12 and shell2 > 0
    return _check(
        "eigenvalue_bound",
        passed,
        worst,
        f"min margin {worst:.3e} at (n,l)={at}; shell-2 margin {shell2:.3f}",
    )


def check_energy_decay(rng, N, runs, tol=1e-10):
    tensor = build_tensor(N)
    times = np.linspace(0.0, 2.0, 101)
    worst_step = -math.inf
    worst_cap = -math.inf
    for _ in range(runs):
        init = random_tilde_state(N, rng, s2_scale=0.3)
        traj = solve_cascade(init, tensor)
        rows = diagnostics(traj.sample(times), NormSpec(alpha=-2.0, c1=0.05))
        energy = np.array([r.gs_norm**2 for r in rows])
        worst_step = max(worst_step, float(np.max(np.diff(energy))))
        worst_cap = max(worst_cap, float(np.max(energy)) - rows[0].q_alpha_norm ** 2)
    passed = worst_step <= tol and worst_cap <= tol
    return _check(
        "energy_decay",
        passed,
        tol - max(worst_step, worst_cap),
        f"N={N}, {runs} data: max upward step {worst_step:.3e}, max excess {worst_cap:.3e}",
    )


def run_checks(level: str = "fast", seed: int = 12345) -> dict:
    """Run the suite and return the JSON-ready report."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    rng = np.random.default_rng(seed)
    full = level == "full"
    checks = [
        check_quadrature_exactness(),
        check_sphere_orthonormality(lmax=10 if full else 6),
        check_gaunt_permutation(rng),
        check_coefficient_sums(n_max=12 if full else 6, l_max=12 if full else 6),
        check_a2_equality(n_max=12 if full else 6, l_max=12 if full else 6),
        check_fourier_multiplier(rng),
        check_moment_integrals(rng),
        check_cascade_vs_numeric(rng, N=10 if full else 6),
        check_trilinear(rng, N=20 if full else 8, triples=100 if full else 20),
        check_nullspace_closure(rng),
        check_eigenvalue_bound(),
        check_energy_decay(rng, N=16 if full else 8, runs=3 if full else 2),
    ]

    return {
        "level": level,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
