"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1, 2 and 9 compute their properties here.  Criteria 3-8 call the
one check of ``landau_spectral.verification`` that owns each property, the
same check ``landau-spectral verify`` runs, at a fixed seed:

3. ``check_coefficient_sums`` (n, l <= 12), after pinning the closed forms
   and bounds to the paper's formulas;
4. ``check_fourier_multiplier`` (shells <= 4, seed 104);
5. ``check_moment_integrals`` (seed 105);
6. ``check_trilinear`` (N=20, 100 triples, seed 106);
7. ``check_energy_decay`` (N=16, 10 data, seed 107);
8. ``check_cascade_vs_numeric`` (N in 6, 9, 10, one stream of seed 108).

Tolerances are fixed here, not tuned: eigenvalues exact, cascade decay to
1e-12, numeric decay to 1e-9 relative, coefficient identities to 1e-11,
expansion oracles to 1e-10, moment integrals to 1e-8, trilinear bound with
no violations, energy monotonicity to 1e-10 per step, reduction equivalence
to 1e-6, example-datum coefficients to 1e-12.
"""

import math

import numpy as np

from landau_spectral.basis import SpectralState, lambda_eig, nullspace_norm, s2_norm
from landau_spectral.cli import example_dirac_coefficient, init_example_dirac
from landau_spectral.coupling import build_tensor, sum_sq_bound, sum_sq_closed_form
from landau_spectral.solver import (
    IntegratorConfig,
    integrate_numeric,
    smallness_threshold,
    solve_cascade,
)
from landau_spectral.verification import (
    check_cascade_vs_numeric,
    check_coefficient_sums,
    check_energy_decay,
    check_fourier_multiplier,
    check_moment_integrals,
    check_trilinear,
)


def report(num, name, passed, detail):
    print(f"criterion {num} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def report_checks(num, name, tol, *checks):
    """One criterion line from verification checks run at tolerance ``tol``."""
    detail = "; ".join(c["detail"] for c in checks)
    margin = min(c["margin"] for c in checks)
    passed = all(c["passed"] for c in checks)
    report(num, name, passed, f"{detail} (tol {tol:g}, margin {margin:.4g})")


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
    # the paper's formulas, written out, pin the closed forms and bounds the check uses
    for n in range(0, 13):
        for l in range(0, 13):
            a, b = 2 * n + 2 * l + 1, 2 * n + 2 * l - 1
            written = {
                ("A1", "closed"): 8 * n * (n - 1) * (l + 2) * (l + 1) / ((2 * l + 3) * (2 * l + 1)),
                ("A3", "closed"): 2 * a * b * l * (l - 1) / ((2 * l + 1) * (2 * l - 1)),
                ("A1", "bound"): 16 * n * (n - 1) / 3,
                ("A2", "bound"): 4 * n * a / 3,
                ("A3", "bound"): a * b / 2,
            }
            for (ch, kind), want in written.items():
                got = (sum_sq_closed_form if kind == "closed" else sum_sq_bound)(ch, n, l)
                assert math.isclose(got, want, rel_tol=1e-14), (ch, kind, n, l)
    report_checks(3, "coefficient identities", 1e-11, check_coefficient_sums(12, 12, tol=1e-11))


def test_criterion_4_expansion_oracle():
    check = check_fourier_multiplier(np.random.default_rng(104), shell_max=4, tol=1e-10)
    report_checks(4, "expansion oracle", 1e-10, check)


def test_criterion_5_moment_integrals():
    check = check_moment_integrals(np.random.default_rng(105), tol=1e-8)
    report_checks(5, "moment integrals", 1e-8, check)


def test_criterion_6_trilinear_inequality():
    check = check_trilinear(np.random.default_rng(106), N=20, triples=100, tol=0.0)
    report_checks(6, "trilinear inequality", 0.0, check)


def test_criterion_7_energy_decay():
    # the check's data: s2 = 0.3, c1 = 0.05, alpha = -2, within the smallness condition
    assert 0.3 < smallness_threshold(0.05)
    check = check_energy_decay(np.random.default_rng(107), N=16, runs=10, tol=1e-10)
    report_checks(7, "energy decay (smoothing witness)", 1e-10, check)


def test_criterion_8_reduction_equivalence():
    rng = np.random.default_rng(108)
    checks = [check_cascade_vs_numeric(rng, N, tol=1e-6) for N in (6, 9, 10)]
    report_checks(8, "reduction equivalence", 1e-6, *checks)


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
