"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are fixed here, not tuned: eigenvalues exact, cascade decay to
1e-12, numeric decay to 1e-9 relative, coefficient identities to 1e-11,
expansion oracles to 1e-10, moment integrals to 1e-8, trilinear bound with
no violations, energy monotonicity to 1e-10 per step, reduction equivalence
to 1e-6, example-datum coefficients to 1e-12.
"""

import math

import numpy as np
import pytest

from landau_spectral.basis import (
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
from landau_spectral.cli import example_dirac_coefficient, init_example_dirac
from landau_spectral.coupling import (
    build_tensor,
    sum_sq_bound,
    sum_sq_channel,
    sum_sq_closed_form,
)
from landau_spectral.operators import (
    apply_bilinear,
    fourier_multiplier_oracle,
    moment_integral_oracle,
)
from landau_spectral.solver import (
    IntegratorConfig,
    integrate_numeric,
    smallness_threshold,
    solve_cascade,
)
from landau_spectral.verification import random_tilde_state

TRILINEAR_CONST = 4 * math.sqrt(3) / 3 + math.sqrt(2)


def report(num, name, passed, detail):
    print(f"criterion {num} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_eigenvalue_table():
    exact = (
        lambda_eig(0, 0) == 0.0
        and lambda_eig(0, 1) == 0.0
        and lambda_eig(1, 0) == 0.0
        and lambda_eig(0, 2) == 12.0
    )
    rng = np.random.default_rng(101)
    formula_ok = True
    checked = 0
    while checked < 50:
        n, l = int(rng.integers(0, 30)), int(rng.integers(0, 30))
        if 2 * n + l <= 2:
            continue
        formula_ok &= lambda_eig(n, l) == 2 * (2 * n + l) + l * (l + 1)
        checked += 1
    report(1, "eigenvalue table", exact and formula_ok, "degenerate values and formula exact")


def test_criterion_2_exact_decay():
    N = 6
    tensor = build_tensor(N)
    amps = {(0, 2, 0): 0.8, (0, 2, 1): 0.3 + 0.2j, (0, 2, -1): 0.3 - 0.2j,
            (0, 2, 2): -0.1 + 0.05j, (0, 2, -2): -0.1 - 0.05j}
    init = SpectralState.from_dict(N, amps)

    traj = solve_cascade(init, tensor)
    cascade_err = 0.0
    for t in np.linspace(0.0, 1.0, 21):
        state = traj.state(float(t))
        for mode, a0 in amps.items():
            cascade_err = max(cascade_err, abs(complex(state[mode]) - a0 * math.exp(-12 * t)))

    series = integrate_numeric(init, tensor, IntegratorConfig(method="etd-rk4", dt=1e-3, t_final=1.0))
    _, end = series[-1]
    numeric_err = max(
        abs(complex(end[mode]) - a0 * math.exp(-12.0)) / abs(a0 * math.exp(-12.0))
        for mode, a0 in amps.items()
    )
    passed = cascade_err <= 1e-12 and numeric_err <= 1e-9
    report(
        2,
        "exact shell-2 decay",
        passed,
        f"cascade max abs err {cascade_err:.2e} (tol 1e-12), "
        f"etd-rk4 rel err at t=1 {numeric_err:.2e} (tol 1e-9)",
    )


def test_criterion_3_coefficient_identities():
    worst_a1 = worst_a3 = 0.0
    worst_bound = -math.inf
    for n in range(2, 13):
        for l in range(0, 13):
            a1_closed = 8 * n * (n - 1) * (l + 2) * (l + 1) / ((2 * l + 3) * (2 * l + 1))
            a3_closed = (
                2 * (2 * n + 2 * l + 1) * (2 * n + 2 * l - 1) * l * (l - 1)
                / ((2 * l + 1) * (2 * l - 1))
                if l >= 2
                else 0.0
            )
            for m_star in range(-l, l + 1):
                worst_a1 = max(worst_a1, abs(sum_sq_channel("A1", n, l, m_star) - a1_closed))
                worst_a3 = max(worst_a3, abs(sum_sq_channel("A3", n, l, m_star) - a3_closed))
                worst_bound = max(
                    worst_bound, sum_sq_channel("A1", n, l, m_star) - 16 * n * (n - 1) / 3
                )
                if l >= 1:
                    worst_bound = max(
                        worst_bound,
                        sum_sq_channel("A2", n, l, m_star) - 4 * n * (2 * n + 2 * l + 1) / 3,
                    )
                if l >= 2:
                    worst_bound = max(
                        worst_bound,
                        sum_sq_channel("A3", n, l, m_star)
                        - (2 * n + 2 * l + 1) * (2 * n + 2 * l - 1) / 2,
                    )
    passed = worst_a1 <= 1e-11 and worst_a3 <= 1e-11 and worst_bound <= 1e-11
    report(
        3,
        "coefficient identities",
        passed,
        f"max closed-form deviation A1 {worst_a1:.2e}, A3 {worst_a3:.2e} (tol 1e-11); "
        f"max bound excess {worst_bound:.2e}",
    )


def test_criterion_4_expansion_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    drivers = [(1, 0, 0)] + [(0, 2, m2) for m2 in range(-2, 3)]
    for k in range(0, 5):
        for n in range(k // 2 + 1):
            l = k - 2 * n
            for m in range(-l, l + 1):
                xi = rng.standard_normal((10, 3))
                xi *= (0.3 + 2.7 * rng.random((10, 1))) / np.linalg.norm(xi, axis=1, keepdims=True)
                for drv in drivers:
                    worst = max(worst, fourier_multiplier_oracle(drv, (n, l, m), xi))
    report(4, "expansion oracle", worst <= 1e-10, f"max relative deviation {worst:.2e} (tol 1e-10)")


def test_criterion_5_moment_integrals():
    rng = np.random.default_rng(105)
    samples = rng.standard_normal((5, 3)) * 1.5
    worst = max(moment_integral_oracle(w, samples) for w in ("orth1", "orth2", "orth3"))

    from landau_spectral.operators import _moment_quadrature

    direct = _moment_quadrature((1, 0, 0), 2, np.array([1.0, 0.0, 0.0]), 24, 16, 33)
    value_ok = abs(direct.real + math.sqrt(6) / 3) <= 1e-8 and abs(direct.imag) <= 1e-10
    report(
        5,
        "moment integrals",
        worst <= 1e-8 and value_ok,
        f"max relative deviation {worst:.2e} (tol 1e-8); "
        f"radial second moment = {direct.real:.10f} vs -sqrt(6)/3",
    )


def test_criterion_6_trilinear_inequality():
    N = 20
    tensor = build_tensor(N)
    rng = np.random.default_rng(106)
    min_margin = math.inf
    violations = 0
    for _ in range(100):
        f = project_tilde(random_tilde_state(N, rng, real_symmetric=False), N)
        g = project_tilde(random_tilde_state(N, rng, real_symmetric=False), N)
        h = project_tilde(random_tilde_state(N, rng, real_symmetric=False), N)
        image = apply_bilinear(f, g, tensor)
        for alpha in (0.0, -1.0, -2.0):
            lhs = abs(complex(np.sum(image.coeffs * np.conj(h.coeffs) * f.table.hweight**alpha)))
            rhs = (
                TRILINEAR_CONST
                * s2_norm(f)
                * weighted_norm(project_tilde(g, N - 2), NormSpec(alpha=alpha + 1))
                * weighted_norm(h, NormSpec(alpha=alpha + 1))
            )
            margin = (rhs - lhs) / rhs
            min_margin = min(min_margin, margin)
            if lhs > rhs:
                violations += 1
    report(
        6,
        "trilinear inequality",
        violations == 0,
        f"100 triples at N=20, alpha in (0,-1,-2): {violations} violations, "
        f"min relative margin {min_margin:.4f}",
    )


def test_criterion_7_energy_decay():
    N, c1, alpha = 16, 0.05, -2.0
    tensor = build_tensor(N)
    rng = np.random.default_rng(107)
    assert 0.3 < smallness_threshold(c1)
    times = np.linspace(0.0, 2.0, 101)
    worst_step = -math.inf
    worst_excess = -math.inf
    for _ in range(10):
        init = random_tilde_state(N, rng, s2_scale=0.3)
        traj = solve_cascade(init, tensor)
        q0_sq = weighted_norm(init, NormSpec(alpha=alpha)) ** 2
        energy = np.array(
            [
                weighted_norm(traj.state(float(t)), NormSpec(alpha=alpha, c1=c1, t=float(t))) ** 2
                for t in times
            ]
        )
        worst_step = max(worst_step, float(np.max(np.diff(energy))))
        worst_excess = max(worst_excess, float(np.max(energy)) - q0_sq)
    passed = worst_step <= 1e-10 and worst_excess <= 1e-10
    report(
        7,
        "energy decay (smoothing witness)",
        passed,
        f"10 data at N=16, s2=0.3, c1=0.05, alpha=-2: max upward step {worst_step:.2e} "
        f"(tol 1e-10), max excess over initial norm {worst_excess:.2e}",
    )


def test_criterion_8_reduction_equivalence():
    rng = np.random.default_rng(108)
    worst = 0.0
    for N in (6, 9, 10):
        tensor = build_tensor(N)
        init = random_tilde_state(N, rng, s2_scale=0.3)
        init = SpectralState(N, init.coeffs * 0.5)
        traj = solve_cascade(init, tensor)
        series = integrate_numeric(
            init, tensor, IntegratorConfig(method="etd-rk4", dt=1e-3, t_final=1.0)
        )
        compared = series[::50]
        errors = np.abs(traj.sample(compared.times).coeffs - compared.coeffs)
        worst = max(worst, float(np.max(errors)))
    report(
        8,
        "reduction equivalence",
        worst <= 1e-6,
        f"cascade vs full quadratic etd-rk4, N in (6,9,10): max mode error {worst:.2e} (tol 1e-6)",
    )


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_criterion_9_example_datum():
    # coefficient values against the exact rational square
    worst_coef = 0.0
    for k in range(2, 61):
        want = math.sqrt(double_factorial(2 * k + 1) / (2.0**k * math.factorial(k)))
        worst_coef = max(worst_coef, abs(example_dirac_coefficient(k) - want) / want)

    state = init_example_dirac(16)
    s2 = s2_norm(state)
    null = nullspace_norm(state)

    # weighted series at alpha = -1.6: increments scale like k^(alpha + 1/2)
    alpha = -1.6
    ks = np.arange(2, 401)
    inc = (2 * ks + 1.5) ** alpha * np.array([example_dirac_coefficient(int(k)) ** 2 for k in ks])
    log_slope = np.polyfit(np.log(ks[98:199]), np.log(inc[98:199]), 1)[0]
    summable = log_slope < -1.0 and abs(log_slope - (alpha + 0.5)) < 0.05

    partial = np.sqrt(np.cumsum(inc))
    norm_increments = np.diff(partial)
    k_200 = int(np.searchsorted(ks, 200))
    cauchy = bool(np.all(norm_increments[k_200 - 1 :] < 1e-3))

    passed = worst_coef <= 1e-12 and s2 == 0.0 and null == 0.0 and summable and cauchy
    report(
        9,
        "example datum",
        passed,
        f"max coefficient deviation {worst_coef:.2e} (tol 1e-12); s2 norm {s2}; "
        f"tail exponent {log_slope:.3f} (theory {alpha + 0.5}); "
        f"norm partial-sum increment at k=200 is {norm_increments[k_200 - 1]:.2e} (tol 1e-3)",
    )
