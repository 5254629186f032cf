import math

import numpy as np
import pytest

from landau_spectral.basis import (
    Mode,
    NormSpec,
    SpectralState,
    mode_table,
    nullspace_norm,
    s2_norm,
    weighted_norm,
)
from landau_spectral.coupling import build_tensor
from landau_spectral.errors import BlowupError, NullSpaceError, WeightOverflowError
from landau_spectral.solver import (
    DiagnosticsRow,
    ExpPolyTrajectory,
    IntegratorConfig,
    Trajectory,
    _merge_by_key,
    _solve_shell,
    check_smallness,
    diagnostics,
    integrate_numeric,
    smallness_threshold,
    solve_cascade,
    trajectory_blocks,
)
from landau_spectral.verification import check_cascade_vs_numeric, random_tilde_state


def _trim(poly):
    nz = np.nonzero(poly)[0]
    return poly[: nz[-1] + 1] if nz.size else poly[:0]


def _merge_terms(terms):
    """Sum (rate, poly) terms of equal rate, sorted by rate, dropping zero polys."""
    merged = []
    for rate, poly in sorted(terms, key=lambda t: t[0]):
        if merged and merged[-1][0] == rate:
            prev = merged[-1][1]
            acc = np.zeros(max(len(prev), len(poly)), dtype=np.complex128)
            acc[: len(prev)] += prev
            acc[: len(poly)] += poly
            merged[-1] = (rate, acc)
        else:
            merged.append((rate, poly.astype(np.complex128)))
    return [(rate, _trim(poly)) for rate, poly in merged if _trim(poly).size]


def solve_mode_ode(lam, y0, forcing):
    """Exact solution terms of y' + lam y = sum_j q_j(t) e^(-b_j t), y(0)=y0, one mode.

    The scalar loop that the flat shell solve replaced, kept as its oracle.
    ``forcing`` is a list of (integer rate b, ascending poly coefficients q).
    A term with b == lam is resonant and raises the degree (r' = q, r(0) = 0);
    any other contributes r(t) e^(-b t) from polynomial back-substitution.
    """
    terms = []
    p0 = 0.0 + 0.0j
    for b, q in forcing:
        q = _trim(np.asarray(q, dtype=np.complex128))
        if not q.size:
            continue
        s = lam - b
        if s == 0:
            r = np.zeros(len(q) + 1, dtype=np.complex128)
            for j in range(1, len(q) + 1):
                r[j] = q[j - 1] / j
            terms.append((lam, r))
        else:
            r = np.zeros(len(q), dtype=np.complex128)
            r[-1] = q[-1] / s
            for j in range(len(q) - 2, -1, -1):
                r[j] = (q[j] - (j + 1) * r[j + 1]) / s
            terms.append((b, r))
            p0 += r[0]
    c0 = y0 - p0
    if c0 != 0:
        terms.append((lam, np.array([c0], dtype=np.complex128)))
    return _merge_terms(terms)


def flat_mode_ode(lam, y0, forcing):
    """`solver._solve_shell` on a single mode, as (rate, poly) pairs."""
    merged = _merge_by_key(
        [0 for _, q in forcing for _ in q],
        [b for b, q in forcing for _ in q],
        [d for _, q in forcing for d in range(len(q))],
        [c for _, q in forcing for c in q],
    )
    flat = _solve_shell(np.array([lam]), np.array([y0]), *merged)
    return list(ExpPolyTrajectory(0, *flat).terms[0])


def reference_cascade(init, tensor):
    """Per flat mode, the (rate, poly) terms of the former per-mode cascade loop.

    Reads the A1/A2/A3 channel entries, not the stencil, and solves each mode
    of shell k > 2 with `solve_mode_ode`, forced by the shell-2 amplitudes
    times the terms of its shell k - 2 sources, rates raised by 12.
    """
    table = init.table
    sources = {}
    for name in ("A1", "A2", "A3"):
        tgt, src, _drv, mdrv, coef = tensor.channels[name]
        for t, s, m2, c in zip(tgt.tolist(), src.tolist(), mdrv.tolist(), coef.tolist()):
            sources.setdefault(t, []).append((s, m2, c))
    terms = [[] for _ in range(len(table))]
    for ti, (n, l, m) in enumerate(table.modes):  # the table is ordered by shell
        y0 = complex(init.coeffs[ti])
        if (n, l) == (0, 2):
            terms[ti] = [(12, np.array([y0]))] if y0 != 0 else []
        elif 2 * n + l > 2:
            forcing = [
                (rate + 12, c * init[(0, 2, m2)] * poly)
                for s, m2, c in sources.get(ti, ())
                for rate, poly in terms[s]
            ]
            terms[ti] = solve_mode_ode(int(table.lam[ti]), y0, forcing)
    return terms


def eval_terms(terms, t):
    acc = 0.0 + 0.0j
    for rate, poly in terms:
        val = 0.0 + 0.0j
        for c in poly[::-1]:
            val = val * t + c
        acc += val * math.exp(-rate * t)
    return acc


def rk4(rhs, y0, t_final, dt):
    """Classical RK4 for y' = rhs(t, y), from y(0) = y0 to t_final."""
    y = y0
    for k in range(int(round(t_final / dt))):
        t = k * dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def rk4_scalar(lam, y0, forcing, t_final, dt=1e-4):
    """Brute-force scalar integration of y' + lam y = f(t)."""

    def f(t):
        return sum(
            sum(c * t**j for j, c in enumerate(poly)) * math.exp(-b * t)
            for b, poly in forcing
        )

    return rk4(lambda t, y: -lam * y + f(t), y0, t_final, dt)


def reference_diagnostics(series, spec):
    """Row-by-row diagnostics through `weighted_norm`, the oracle for `diagnostics`."""
    rows = []
    integral = 0.0
    prev_t = None
    prev_e = None
    for t, state in series:
        q_norm = weighted_norm(state, NormSpec(alpha=spec.alpha))
        gs = weighted_norm(state, NormSpec(alpha=spec.alpha, c1=spec.c1, t=t))
        e = weighted_norm(state, NormSpec(alpha=spec.alpha + 1.0, c1=spec.c1, t=t)) ** 2
        if prev_t is not None:
            integral += 0.5 * (t - prev_t) * (e + prev_e)
        prev_t, prev_e = t, e
        rows.append(
            DiagnosticsRow(
                t=t,
                q_alpha_norm=q_norm,
                gs_norm=gs,
                s2_norm=s2_norm(state),
                nullspace_residual=nullspace_norm(state),
                energy_integral=spec.c1 * integral,
            )
        )
    return rows


class TestSolveModeOde:
    def test_unforced_decay(self):
        terms = solve_mode_ode(5.0, 2.0 + 1.0j, [])
        assert len(terms) == 1
        rate, poly = terms[0]
        assert rate == 5.0
        assert poly[0] == 2.0 + 1.0j

    def test_nonresonant_forcing(self):
        # y' + 4y = e^{-2t}, y(0)=0  ->  (e^{-2t} - e^{-4t}) / 2
        terms = solve_mode_ode(4.0, 0.0, [(2.0, np.array([1.0]))])
        for t in (0.0, 0.2, 1.0):
            want = (math.exp(-2 * t) - math.exp(-4 * t)) / 2
            assert eval_terms(terms, t) == pytest.approx(want, abs=1e-14)

    def test_resonant_forcing_degree_raising(self):
        # y' + 3y = e^{-3t}, y(0)=0.5  ->  (t + 0.5) e^{-3t}
        terms = solve_mode_ode(3.0, 0.5, [(3.0, np.array([1.0]))])
        assert len(terms) == 1
        for t in (0.0, 0.4, 2.0):
            assert eval_terms(terms, t) == pytest.approx((t + 0.5) * math.exp(-3 * t), abs=1e-13)

    @pytest.mark.parametrize("solve", [solve_mode_ode, flat_mode_ode], ids=["oracle", "flat"])
    def test_rate_off_by_one_not_merged(self, solve):
        # y' + 3y = e^{-2t}, y(0)=0  ->  e^{-2t} - e^{-3t}: two degree-0 terms
        terms = solve(3, 0.0, [(2, np.array([1.0]))])
        assert [(r, len(poly)) for r, poly in terms] == [(2, 1), (3, 1)]
        for t in (0.0, 0.5, 1.0):
            assert eval_terms(terms, t) == pytest.approx(math.exp(-2 * t) - math.exp(-3 * t), abs=1e-15)

    @pytest.mark.parametrize("solve", [solve_mode_ode, flat_mode_ode], ids=["oracle", "flat"])
    def test_equal_rate_raises_degree(self, solve):
        # y' + 3y = (1 + t) e^{-3t}, y(0)=0  ->  (t + t^2/2) e^{-3t}
        terms = solve(3, 0.0, [(3, np.array([1.0, 1.0]))])
        assert len(terms) == 1 and terms[0][0] == 3
        np.testing.assert_array_equal(terms[0][1], [0.0, 1.0, 0.5])

    def test_flat_shell_solve_matches_oracle(self):
        # integer rates drawn near lam so that resonant and repeated rates occur
        rng = np.random.default_rng(41)
        for _ in range(50):
            lam = int(rng.integers(10, 14))
            y0 = complex(rng.standard_normal(), rng.standard_normal())
            forcing = [
                (int(rng.integers(10, 14)), rng.standard_normal(rng.integers(1, 4)) * (1 + 1j))
                for _ in range(int(rng.integers(0, 5)))
            ]
            want = solve_mode_ode(lam, y0, forcing)
            got = flat_mode_ode(lam, y0, forcing)
            assert [r for r, _ in got] == [r for r, _ in want]
            for (_, p), (_, q) in zip(got, want):
                assert len(p) == len(q)
                np.testing.assert_allclose(p, q, rtol=1e-13, atol=1e-15)

    def test_polynomial_forcing_against_rk4(self):
        forcing = [(2.0, np.array([0.3, -1.0, 0.25])), (6.0, np.array([1.0, 0.5]))]
        terms = solve_mode_ode(4.0, 1.0 + 0.0j, forcing)
        got = eval_terms(terms, 0.8)
        ref = rk4_scalar(4.0, 1.0, forcing, 0.8)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_artificial_resonance_against_rk4(self):
        # forcing rate set exactly equal to the decay rate: t e^{-lam t} terms
        forcing = [(4.0, np.array([1.0, 2.0]))]
        terms = solve_mode_ode(4.0, 0.3, forcing)
        degrees = {len(poly) for _, poly in terms}
        assert max(degrees) >= 3  # degree raised
        got = eval_terms(terms, 1.3)
        ref = rk4_scalar(4.0, 0.3, forcing, 1.3)
        assert got == pytest.approx(ref, abs=1e-6)

    def test_initial_value_always_matched(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lam = float(rng.integers(1, 30))
            y0 = complex(rng.standard_normal(), rng.standard_normal())
            forcing = [
                (float(rng.integers(1, 30)), rng.standard_normal(rng.integers(1, 4)))
                for _ in range(3)
            ]
            terms = solve_mode_ode(lam, y0, forcing)
            assert eval_terms(terms, 0.0) == pytest.approx(y0, abs=1e-12)
            rates = [r for r, _ in terms]
            assert len(rates) == len(set(rates))


class TestSolveCascade:
    def test_shell_two_pure_decay(self):
        tensor = build_tensor(6)
        init = SpectralState.from_dict(6, {(0, 2, 0): 1.0})
        traj = solve_cascade(init, tensor)
        assert traj.mode_terms((0, 2, 0)) == ((12.0, pytest.approx(np.array([1.0 + 0j]))),)
        for t in (0.0, 0.1, 0.7):
            state = traj.state(t)
            assert complex(state[(0, 2, 0)]) == pytest.approx(math.exp(-12 * t), rel=1e-12)

    def test_shell_four_variation_of_constants(self):
        # forcing rate 24 against decay 28: c (e^{-24t} - e^{-28t}) with the
        # constant frozen from an exact angular-integral computation
        tensor = build_tensor(6)
        init = SpectralState.from_dict(6, {(0, 2, 0): 1.0})
        traj = solve_cascade(init, tensor)
        c = -3 * math.sqrt(105) / 35
        for t in (0.05, 0.2, 0.6):
            want = c * (math.exp(-24 * t) - math.exp(-28 * t))
            assert complex(traj.state(t)[(0, 4, 0)]) == pytest.approx(want, rel=1e-12)

    def test_shell_three_only_init_decays_linearly(self):
        tensor = build_tensor(7)
        init = SpectralState.from_dict(7, {(0, 3, 1): 0.8, (1, 1, 0): -0.3})
        traj = solve_cascade(init, tensor)
        for mode, lam in [((0, 3, 1), 18.0), ((1, 1, 0), 8.0)]:
            for t in (0.3, 1.0):
                assert complex(traj.state(t)[mode]) == pytest.approx(
                    init[mode] * math.exp(-lam * t), rel=1e-12
                )

    def test_rejects_nullspace_component(self):
        tensor = build_tensor(4)
        init = SpectralState.from_dict(4, {(0, 1, 0): 1e-6, (0, 2, 0): 1.0})
        with pytest.raises(NullSpaceError):
            solve_cascade(init, tensor)

    def test_evaluation_at_zero_matches_init(self):
        tensor = build_tensor(10)
        rng = np.random.default_rng(7)
        init = random_tilde_state(10, rng, s2_scale=0.3)
        traj = solve_cascade(init, tensor)
        np.testing.assert_allclose(traj.eval_coeffs(0.0), init.coeffs, atol=1e-12)

    def test_even_shells_stay_even(self):
        tensor = build_tensor(10)
        table = mode_table(10)
        amps = {
            tuple(mo): 0.5
            for mo in table.modes
            if mo.shell in (2, 4) and mo.m == 0 and mo.n + mo.l >= 2
        }
        traj = solve_cascade(SpectralState.from_dict(10, amps), tensor)
        state = traj.state(0.5)
        for i, mo in enumerate(table.modes):
            if mo.shell % 2 == 1:
                assert state.coeffs[i] == 0


    @pytest.mark.parametrize("N", [10, 16, 18])
    def test_matches_mode_oracle(self, N):
        tensor = build_tensor(N)
        init = random_tilde_state(N, np.random.default_rng(300 + N), s2_scale=0.3)
        traj = solve_cascade(init, tensor)
        want = reference_cascade(init, tensor)
        # the same (rate, poly) pairs per mode, so the same (mode, rate, degree) keys
        assert [[(r, len(p)) for r, p in pairs] for pairs in traj.terms] == [
            [(r, len(p)) for r, p in pairs] for pairs in want
        ]
        mode, rate, degree, coef = (
            np.array(col)
            for col in zip(
                *(
                    (i, r, d, c)
                    for i, pairs in enumerate(want)
                    for r, poly in pairs
                    for d, c in enumerate(poly)
                )
            )
        )
        times = np.linspace(0.0, 2.0, 21)
        oracle = np.zeros((len(times), len(want)), dtype=np.complex128)
        for row, t in zip(oracle, times):
            np.add.at(row, mode, coef * t**degree * np.exp(-rate * t))
        got = traj.sample(times).coeffs
        largest = np.abs(oracle).max(axis=0)
        assert np.all(np.abs(got - oracle) <= 1e-13 * largest)

    def test_rates_are_integer_ladder(self):
        # a shell-k term decays at lam(a) + 12 j for a mode a at shell k - 2j:
        # its own homogeneous rate (j = 0) or one carried up j forcing steps
        N = 18
        init = random_tilde_state(N, np.random.default_rng(61), s2_scale=0.3)
        traj = solve_cascade(init, build_tensor(N))
        table = mode_table(N)
        assert traj.rate.dtype == np.int64 and traj.degree.dtype == np.int64
        rungs = {}
        for i in np.flatnonzero(table.tilde_mask(N)):
            rungs.setdefault(int(table.shell[i]), set()).add(int(table.lam[i]))
        for k, rate in set(zip(table.shell[traj.mode].tolist(), traj.rate.tolist())):
            assert any(rate - 12 * j in rungs[k - 2 * j] for j in range((k - 2) // 2 + 1)), (k, rate)
        # keys are exact and unique, and no stored coefficient is zero
        keys = np.stack([traj.mode, traj.rate, traj.degree])
        assert np.unique(keys, axis=1).shape == keys.shape
        assert np.all(traj.coef != 0)

    def test_resonant_cascade_vs_etdrk4(self):
        # at N = 18 lam(5, 8) = 108 = 12 + 8 * 12: the shell-2 rate carried up
        # eight shells is resonant, so mode (5, 8) gains a t e^(-108 t) term
        N = 18
        tensor = build_tensor(N)
        init = random_tilde_state(N, np.random.default_rng(118), s2_scale=0.3)
        init = SpectralState(N, init.coeffs * 0.5)
        traj = solve_cascade(init, tensor)
        table = mode_table(N)
        raised = traj.mode[traj.degree >= 1]
        assert raised.size and set(zip(table.n[raised].tolist(), table.l[raised].tolist())) == {(5, 8)}
        series = integrate_numeric(
            init, tensor, IntegratorConfig(method="etd-rk4", dt=1e-3, t_final=0.3)
        )
        compared = series[::50]
        got = traj.sample(compared.times).coeffs
        assert len(compared) == 7
        assert np.max(np.abs(got - compared.coeffs)) <= 1e-6


class TestIntegrateNumeric:
    def test_etdrk4_exact_decay(self):
        tensor = build_tensor(4)
        init = SpectralState.from_dict(4, {(0, 2, 0): 1.0})
        series = integrate_numeric(
            init, tensor, IntegratorConfig(method="etd-rk4", dt=1e-3, t_final=1.0)
        )
        t, state = series[-1]
        assert t == pytest.approx(1.0)
        assert abs(complex(state[(0, 2, 0)]) - math.exp(-12)) / math.exp(-12) <= 1e-9

    def test_nullspace_stays_empty(self):
        tensor = build_tensor(8)
        rng = np.random.default_rng(11)
        init = random_tilde_state(8, rng, s2_scale=0.2)
        series = integrate_numeric(
            init, tensor, IntegratorConfig(method="etd-rk4", dt=1e-2, t_final=0.5)
        )
        from landau_spectral.basis import nullspace_norm

        assert all(nullspace_norm(state) <= 1e-12 for _, state in series)

    def test_zero_init(self):
        tensor = build_tensor(4)
        series = integrate_numeric(
            SpectralState.zeros(4), tensor, IntegratorConfig(dt=0.01, t_final=0.1)
        )
        assert all(np.all(state.coeffs == 0) for _, state in series)

    def test_rk4_matches_etdrk4(self):
        # classical RK4 of the full system g' = -lam g + L(g, g) as the oracle
        tensor = build_tensor(6)
        rng = np.random.default_rng(13)
        init = random_tilde_state(6, rng, s2_scale=0.25)
        lam = init.table.lam
        end_a = rk4(lambda t, y: -lam * y + tensor.apply(y, y), init.coeffs, 0.5, 1e-3)
        cfg = IntegratorConfig(method="etd-rk4", dt=1e-3, t_final=0.5)
        end_b = integrate_numeric(init, tensor, cfg)[-1][1]
        np.testing.assert_allclose(end_a, end_b.coeffs, atol=1e-9)

    def test_blowup_guard(self):
        tensor = build_tensor(6)
        init = SpectralState.from_dict(6, {(0, 2, 0): 1e160})
        with pytest.raises(BlowupError, match="mode"):
            integrate_numeric(init, tensor, IntegratorConfig(method="etd-rk4", dt=0.1, t_final=1.0))

    def test_cascade_agreement(self):
        check = check_cascade_vs_numeric(np.random.default_rng(17), N=9, tol=1e-6)
        assert check["passed"], check["detail"]


class TestTrajectoryBlocks:
    @pytest.mark.parametrize("method", ["etd-rk4", "cascade"])
    def test_blocks_are_the_gathered_rows(self, method):
        N = 8
        init = random_tilde_state(N, np.random.default_rng(47), s2_scale=0.3)
        cfg = IntegratorConfig(method=method, dt=1e-3, t_final=0.5)
        blocks = list(trajectory_blocks(init, build_tensor(N), cfg))
        # 198 rows per block at N=8 when stepping; the cascade's blocks are smaller
        assert len(blocks) >= 3 and blocks[0].times[0] == 0.0
        assert not any(b.coeffs.flags.writeable or b.times.flags.writeable for b in blocks)
        if method == "cascade":
            whole = solve_cascade(init, build_tensor(N)).sample(cfg.times)
        else:
            whole = integrate_numeric(init, build_tensor(N), cfg)
        np.testing.assert_array_equal(np.concatenate([b.times for b in blocks]), whole.times)
        np.testing.assert_array_equal(np.concatenate([b.coeffs for b in blocks]), whole.coeffs)


    def test_one_row_blocks(self, monkeypatch):
        # at N >= 44 a block holds one row, and the first block only the datum
        import landau_spectral.solver as solver

        init = random_tilde_state(6, np.random.default_rng(53), s2_scale=0.3)
        cfg = IntegratorConfig(method="etd-rk4", dt=1e-2, t_final=0.2)
        want = integrate_numeric(init, build_tensor(6), cfg)
        monkeypatch.setattr(solver, "BLOCK_ELEMENTS", 1)
        blocks = list(trajectory_blocks(init, build_tensor(6), cfg))
        assert [len(b) for b in blocks] == [1] * 21
        np.testing.assert_array_equal(np.concatenate([b.coeffs for b in blocks]), want.coeffs)
        rows = diagnostics(want, NormSpec(alpha=-1.0, c1=0.1))
        monkeypatch.setattr(solver, "BLOCK_ELEMENTS", 1 << 15)
        assert rows == diagnostics(want, NormSpec(alpha=-1.0, c1=0.1))


class TestDiagnostics:
    def test_single_mode_norms(self):
        tensor = build_tensor(2)
        init = SpectralState.from_dict(2, {(0, 2, 0): 1.0})
        traj = solve_cascade(init, tensor)
        series = traj.sample(np.linspace(0, 1, 11))
        rows = diagnostics(series, NormSpec(alpha=0.0, c1=0.0))
        for row in rows:
            assert row.q_alpha_norm == pytest.approx(math.exp(-12 * row.t), rel=1e-12)
            assert row.nullspace_residual == 0.0
            assert row.s2_norm == pytest.approx(math.exp(-12 * row.t), rel=1e-12)

    def test_gaussian_weight_below_threshold(self):
        # weight rate below 24/7 keeps the smoothing norm of e^{-12t} bounded
        tensor = build_tensor(2)
        init = SpectralState.from_dict(2, {(0, 2, 0): 1.0})
        series = solve_cascade(init, tensor).sample(np.linspace(0, 2, 21))
        rows = diagnostics(series, NormSpec(alpha=0.0, c1=3.0))
        for row in rows:
            want = math.exp((3.5 * 3.0 - 12.0) * row.t)
            assert row.gs_norm == pytest.approx(want, rel=1e-11)
            assert row.gs_norm <= 1.0 + 1e-12

    def test_energy_integral_single_mode(self):
        # closed form: c1 int_0^t e^{7 c1 s} (7/2)^{alpha+1} e^{-24 s} ds
        c1, alpha = 0.05, -1.0
        tensor = build_tensor(2)
        init = SpectralState.from_dict(2, {(0, 2, 0): 1.0})
        times = np.linspace(0, 1, 2001)
        rows = diagnostics(solve_cascade(init, tensor).sample(times), NormSpec(alpha=alpha, c1=c1))
        rate = 7 * c1 - 24
        want = c1 * 3.5 ** (alpha + 1) * (math.exp(rate * 1.0) - 1.0) / rate
        # trapezoid on the sample grid: error ~ (dt^2/12) rate^2 relative
        assert rows[-1].energy_integral == pytest.approx(want, rel=5e-5)

    def test_zero_state(self):
        traj = Trajectory(4, [0.0], SpectralState.zeros(4).coeffs[None, :])
        rows = diagnostics(traj, NormSpec(alpha=-1.0, c1=0.1))
        assert rows[0].q_alpha_norm == 0.0
        assert rows[0].gs_norm == 0.0

    @pytest.mark.parametrize("case", ["etdrk4-n16", "cascade-n10"])
    def test_matches_row_loop(self, case):
        # several row blocks in both cases: 33 rows per block at N=16, 114 at N=10
        if case == "etdrk4-n16":
            init = random_tilde_state(16, np.random.default_rng(23), s2_scale=0.3)
            cfg = IntegratorConfig(method="etd-rk4", dt=1e-3, t_final=0.2)
            traj = integrate_numeric(init, build_tensor(16), cfg)
            spec = NormSpec(alpha=-1.0, c1=0.3)
        else:
            init = random_tilde_state(10, np.random.default_rng(29), s2_scale=0.3)
            traj = solve_cascade(init, build_tensor(10)).sample(np.linspace(0.0, 1.5, 151))
            spec = NormSpec(alpha=-2.0, c1=0.05)
        got = diagnostics(traj, spec)
        want = reference_diagnostics(traj, spec)
        assert len(got) == len(want) == len(traj)
        for field in DiagnosticsRow.__dataclass_fields__:
            np.testing.assert_allclose(
                [getattr(r, field) for r in got],
                [getattr(r, field) for r in want],
                rtol=1e-13,
                atol=0.0,
                err_msg=field,
            )

    def test_weight_overflow_on_populated_shell(self):
        # at c1 t = 80 the weights exp(2 * 80 * h_k) of shells 3 and 4 leave
        # the double range; the heavier populated one is named
        table = mode_table(4)
        coeffs = np.zeros((3, len(table)), dtype=np.complex128)
        for mode in ((0, 2, 0), (0, 3, 1), (0, 4, 1)):
            coeffs[:, table.index[Mode(*mode)]] = 1e-3
        traj = Trajectory(4, [0.0, 1.0, 80.0], coeffs)
        with pytest.raises(WeightOverflowError, match="shell 4") as info:
            diagnostics(traj, NormSpec(alpha=0.0, c1=1.0))
        assert info.value.shell == 4
        assert info.value.exponent == pytest.approx(2 * 80 * 5.5)

    def test_weight_overflow_ignores_empty_shell(self):
        table = mode_table(4)
        coeffs = np.zeros((3, len(table)), dtype=np.complex128)
        coeffs[:, table.index[Mode(0, 2, 0)]] = 1.0
        coeffs[:, table.index[Mode(0, 1, -1)]] = 1e-3
        rows = diagnostics(Trajectory(4, [0.0, 1.0, 80.0], coeffs), NormSpec(alpha=0.0, c1=1.0))
        assert all(math.isfinite(r.gs_norm) and math.isfinite(r.energy_integral) for r in rows)
        assert rows[-1].gs_norm == pytest.approx(math.exp(280.0), rel=1e-13)


class TestTrajectory:
    def test_sequence_view(self):
        table = mode_table(3)
        coeffs = np.arange(4 * len(table)).reshape(4, len(table)) * (1 + 1j)
        traj = Trajectory(3, [0.0, 0.1, 0.2, 0.3], coeffs)
        assert len(traj) == 4
        assert not traj.coeffs.flags.writeable and not traj.times.flags.writeable
        t, state = traj[-1]
        assert t == 0.3 and state.t == 0.3
        np.testing.assert_array_equal(state.coeffs, coeffs[3])
        every_other = traj[::2]
        assert isinstance(every_other, Trajectory)
        assert [t for t, _ in every_other] == [0.0, 0.2]
        assert [s.coeffs[5] for _, s in traj] == list(coeffs[:, 5])

    def test_rejects_mismatched_block(self):
        with pytest.raises(ValueError, match="coefficient block"):
            Trajectory(3, [0.0, 0.1], np.zeros((2, 5)))


class TestTrajectoryImageBound:
    def test_bilinear_image_bounded_along_trajectory(self):
        # under the smallness hypothesis the collision image of the evolving
        # state stays within twice the initial weighted norm, two indices down
        from landau_spectral.operators import apply_bilinear
        from landau_spectral.basis import weighted_norm

        N, alpha = 12, -2.0
        tensor = build_tensor(N)
        rng = np.random.default_rng(19)
        for _ in range(3):
            init = random_tilde_state(N, rng, s2_scale=0.3)
            traj = solve_cascade(init, tensor)
            q0 = weighted_norm(init, NormSpec(alpha=alpha))
            for t in np.linspace(0.0, 1.5, 16):
                g = traj.state(float(t))
                image = apply_bilinear(g, g, tensor)
                assert weighted_norm(image, NormSpec(alpha=alpha - 2)) <= 2 * q0 * (1 + 1e-12)


class TestSmallness:
    def test_threshold_limit(self):
        # (16/11) / (4 sqrt(3)/3 + sqrt(2)) ~ 0.39
        assert smallness_threshold(0.0) == pytest.approx(0.39062728, abs=1e-7)
        assert smallness_threshold(0.0) == pytest.approx(0.39, abs=0.01)

    def test_zero_s2_passes(self):
        init = SpectralState.from_dict(6, {(1, 2, 0): 5.0})
        result = check_smallness(init, 0.05)
        assert result.passed
        assert result.margin == pytest.approx(result.threshold)

    def test_large_s2_fails(self):
        init = SpectralState.from_dict(6, {(0, 2, 0): 1.0})
        result = check_smallness(init, 0.05)
        assert not result.passed
        assert result.margin < 0

    def test_c1_domain(self):
        with pytest.raises(ValueError):
            smallness_threshold(1.0)


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")
        with pytest.raises(ValueError, match="unknown method 'rk4'"):
            IntegratorConfig(method="rk4")
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=2.0, t_final=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(c1=16 / 11)
        with pytest.raises(ValueError):
            IntegratorConfig(alpha=0.5)

    def test_energy_rate_requires_c1_below_limit(self):
        assert IntegratorConfig(c1=1.45).c1 < 16 / 11
