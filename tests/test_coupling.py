import math
from functools import cache
from itertools import permutations

import numpy as np
import pytest

from landau_spectral import operators, verification
from landau_spectral.basis import Mode, mode_table
from landau_spectral.coupling import (
    CHANNELS,
    MAX_SHELL,
    _assemble,
    _gaunt_factors,
    _tensor_columns,
    build_tensor,
    gaunt,
    gaunt_quadrature,
    load_tensor,
    save_tensor,
    sum_sq_bound,
    sum_sq_closed_form,
)
from landau_spectral.errors import CapacityError, TensorCacheError
from landau_spectral.specfun import gauss_legendre, normalized_plm_table

SQPI2 = 1 / (2 * math.sqrt(math.pi))


# The scalar coefficient functions, one mode at a time, in source indices: the
# oracle that reference_tensor_rows assembles and test_matches_reference_loop
# compares the stencil with.
SQRT_PI_3 = math.sqrt(math.pi / 3.0)
SQRT_PI_15 = math.sqrt(math.pi / 15.0)


def coef_tilde_C(m1: int, m: int, l: int, lp: int) -> float:
    """Expansion coefficient of Y_1^{m1} Y_l^m onto Y_{lp}^{m1+m}.

    Zero by convention when lp < 0 (the degree -1 harmonic is identically
    zero) or the target order is out of range.
    """
    if lp not in (l - 1, l + 1):
        raise ValueError(f"lp must be l-1 or l+1, got l={l}, lp={lp}")
    if lp < 0 or abs(m1 + m) > lp:
        return 0.0
    return gaunt(1, m1, l, m, lp, -m1 - m)


def A_minus(n: int, l: int, m: int, m1: int) -> float:
    """Coefficient of phi_{n+1,l-1,m+m1} in the shell-1 driver expansion."""
    if l < 1:
        return 0.0
    return 4.0 * SQRT_PI_3 * (l - 1) * math.sqrt(2.0 * (n + 1)) * coef_tilde_C(m1, m, l, l - 1)


def A_plus(n: int, l: int, m: int, m1: int) -> float:
    """Coefficient of phi_{n,l+1,m+m1} in the shell-1 driver expansion."""
    return 4.0 * SQRT_PI_3 * (l + 2) * math.sqrt(2.0 * n + 2.0 * l + 3.0) * coef_tilde_C(m1, m, l, l + 1)


def A1(n: int, l: int, m: int, m2: int) -> float:
    """Coefficient of phi_{n+2,l-2,m+m2} in the shell-2 driver expansion."""
    if l < 2 or abs(m + m2) > l - 2:
        return 0.0
    g = gaunt(2, m2, l, m, l - 2, -m2 - m)
    return -4.0 * SQRT_PI_15 * math.sqrt(4.0 * (n + 2) * (n + 1)) * g


def A2(n: int, l: int, m: int, m2: int) -> float:
    """Coefficient of phi_{n+1,l,m+m2} in the shell-2 driver expansion."""
    if abs(m + m2) > l:
        return 0.0
    g = gaunt(2, m2, l, m, l, -m2 - m)
    return 4.0 * SQRT_PI_15 * math.sqrt(2.0 * (n + 1) * (2.0 * n + 2.0 * l + 3.0)) * g


def A3(n: int, l: int, m: int, m2: int) -> float:
    """Coefficient of phi_{n,l+2,m+m2} in the shell-2 driver expansion."""
    if abs(m + m2) > l + 2:
        return 0.0
    g = gaunt(2, m2, l, m, l + 2, -m2 - m)
    return -4.0 * SQRT_PI_15 * math.sqrt((2.0 * n + 2.0 * l + 5.0) * (2.0 * n + 2.0 * l + 3.0)) * g


def drift_coef(n: int, l: int) -> float:
    """Radial-driver coefficient feeding mode (n, l) from (n-1, l)."""
    return 4.0 * math.sqrt(3.0 * n * (2.0 * n + 2.0 * l + 1.0)) / 3.0


def diag_coef(n: int, l: int) -> float:
    """Maxwellian-driver diagonal, -(2(2n+l) + l(l+1)) for every mode."""
    return -float(2 * (2 * n + l) + l * (l + 1))


def sum_sq_channel(channel: str, n: int, l: int, m_star: int) -> float:
    """Sum over (m, m2) with m + m2 = m_star of the squared coefficient.

    Indices follow the target-side form: channel A1 sums |A1(n-2, l+2, ., .)|^2,
    A2 sums |A2(n-1, l, ., .)|^2 and A3 sums |A3(n, l-2, ., .)|^2 for a target
    mode (n, l, m_star).
    """
    if abs(m_star) > l:
        raise ValueError(f"|m_star| <= l required, got l={l}, m_star={m_star}")
    total = 0.0
    for m2 in range(-2, 3):
        m = m_star - m2
        if channel == "A1":
            if n >= 2 and abs(m) <= l + 2:
                total += A1(n - 2, l + 2, m, m2) ** 2
        elif channel == "A2":
            if n >= 1 and abs(m) <= l:
                total += A2(n - 1, l, m, m2) ** 2
        elif channel == "A3":
            if l >= 2 and abs(m) <= l - 2:
                total += A3(n, l - 2, m, m2) ** 2
        else:
            raise ValueError(f"unknown channel {channel!r}")
    return total


def wigner_gaunt_oracle(l1, m1, l2, m2, l3, m3):
    """Sympy's 3j-based Gaunt value translated out of the Condon-Shortley
    convention: our harmonics differ by (-1)^m on positive m."""
    from sympy.physics.wigner import gaunt as sym_gaunt

    sign = 1.0
    for m in (m1, m2, m3):
        if m > 0 and m % 2 == 1:
            sign = -sign
    return sign * float(sym_gaunt(l1, l2, l3, m1, m2, m3).n(25))


class TestGaunt:
    def test_constant_triple(self):
        assert gaunt(0, 0, 0, 0, 0, 0) == pytest.approx(SQPI2, rel=1e-14)

    def test_m_selection_rule(self):
        assert gaunt(2, 1, 2, 0, 2, 1) == 0.0

    def test_parity_selection_rule(self):
        assert gaunt(1, 0, 1, 0, 1, 0) == 0.0
        assert gaunt(2, 0, 1, 0, 0, 0) == 0.0

    def test_orthonormality_reduction(self):
        for m in range(-2, 3):
            for m2 in range(-2, 3):
                want = SQPI2 if m2 == -m else 0.0
                assert gaunt(2, m2, 2, m, 0, 0) == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            l1, l2 = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            par = [l for l in range(abs(l1 - l2), l1 + l2 + 1) if (l1 + l2 + l) % 2 == 0]
            l3 = int(rng.choice(par))
            m1 = int(rng.integers(-l1, l1 + 1))
            m2 = int(rng.integers(-l2, l2 + 1))
            m3 = -m1 - m2
            if abs(m3) > l3:
                continue
            vals = [
                gaunt(*a, *b, *c) for a, b, c in permutations(((l1, m1), (l2, m2), (l3, m3)))
            ]
            assert max(vals) - min(vals) <= 1e-13

    def test_against_wigner_translation(self):
        pytest.importorskip("sympy")
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 25:
            l1, l2 = int(rng.integers(0, 5)), int(rng.integers(0, 6))
            par = [l for l in range(abs(l1 - l2), l1 + l2 + 1) if (l1 + l2 + l) % 2 == 0]
            l3 = int(rng.choice(par))
            m1 = int(rng.integers(-l1, l1 + 1))
            m2 = int(rng.integers(-l2, l2 + 1))
            m3 = -m1 - m2
            if abs(m3) > l3:
                continue
            want = wigner_gaunt_oracle(l1, m1, l2, m2, l3, m3)
            assert gaunt(l1, m1, l2, m2, l3, m3) == pytest.approx(want, abs=1e-13)
            checked += 1

    def test_tabulated_factors_against_wigner(self):
        # the factors as build_tensor forms them, from one rule tabulated at N = 32
        pytest.importorskip("sympy")
        N = 32
        rule = gauss_legendre(N + 2)
        theta = normalized_plm_table(N, rule.nodes)
        tables = {
            (d, dl): _gaunt_factors(theta, rule.weights, d, dl)
            for d, dls in ((1, (-1, 1)), (2, (-2, 0, 2)))
            for dl in dls
        }
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 40:
            d = int(rng.integers(1, 3))
            dl = int(rng.choice((-1, 1) if d == 1 else (-2, 0, 2)))
            l = int(rng.integers(0, N + 1))
            m = int(rng.integers(-l, l + 1))
            md = int(rng.integers(-d, d + 1))
            ls, ms = l + dl, m - md
            if not (0 <= ls <= N and abs(ms) <= ls and d <= l + ls):
                continue
            want = wigner_gaunt_oracle(d, md, ls, ms, l, -m)
            got = tables[d, dl][l * (l + 1) + m, md + d]
            assert got == pytest.approx(want, abs=1e-13)
            checked += 1

    def test_bad_order_raises(self):
        with pytest.raises(ValueError):
            gaunt(1, 2, 0, 0, 1, -2)

    def test_permutation_check_evaluates_every_order(self, monkeypatch):
        # a quadrature that is not symmetric in its pairs must fail the check;
        # through ``gaunt``, which sorts its pairs before its cache, it passed
        def lopsided(l1, m1, l2, m2, l3, m3):
            return gaunt_quadrature(l1, m1, l2, m2, l3, m3) * (1.0 + 1e-12 * l1)

        rng = np.random.default_rng(12345)
        assert verification.check_gaunt_permutation(rng)["passed"]
        monkeypatch.setattr(verification, "gaunt_quadrature", lopsided)
        rng = np.random.default_rng(12345)
        assert not verification.check_gaunt_permutation(rng)["passed"]


class TestTildeC:
    def test_constant_reduction(self):
        assert coef_tilde_C(0, 0, 0, 1) == pytest.approx(SQPI2, rel=1e-13)

    def test_negative_degree_vanishes(self):
        assert coef_tilde_C(1, 0, 0, -1) == 0.0
        assert coef_tilde_C(0, 0, 0, -1) == 0.0

    def test_matches_gaunt(self):
        for l in range(0, 5):
            for m in range(-l, l + 1):
                for m1 in (-1, 0, 1):
                    for lp in (l - 1, l + 1):
                        if lp < 0 or abs(m1 + m) > lp:
                            want = 0.0
                        else:
                            want = gaunt(1, m1, l, m, lp, -m1 - m)
                        assert coef_tilde_C(m1, m, l, lp) == pytest.approx(want, abs=1e-15)

    def test_invalid_lp(self):
        with pytest.raises(ValueError):
            coef_tilde_C(0, 0, 3, 5)


class TestLadderCoefficients:
    def test_a_plus_ground(self):
        for m1 in (-1, 0, 1):
            assert A_plus(0, 0, 0, m1) == pytest.approx(4.0, rel=1e-13)

    def test_a_minus_l_one_vanishes(self):
        for n in range(4):
            for m1 in (-1, 0, 1):
                for m in (-1, 0, 1):
                    assert A_minus(n, 1, m, m1) == 0.0

    def test_a_minus_l_zero_vanishes(self):
        assert A_minus(0, 0, 0, 0) == 0.0
        assert A_minus(0, 0, 0, 1) == 0.0

    def test_a2_radial_vanishes(self):
        for n in range(1, 6):
            assert A2(n - 1, 0, 0, 0) == 0.0

    def test_a1_shell_two_squares(self):
        for m in range(-2, 3):
            assert A1(0, 2, m, -m) ** 2 == pytest.approx(32 / 15, rel=1e-12)

    def test_a3_on_constant(self):
        for m2 in range(-2, 3):
            assert A3(0, 0, 0, m2) == pytest.approx(-2.0, rel=1e-13)

    def test_drift_values(self):
        assert drift_coef(1, 2) == pytest.approx(4 * math.sqrt(21) / 3, rel=1e-15)
        assert drift_coef(2, 2) == pytest.approx(4 * math.sqrt(54) / 3, rel=1e-15)
        assert drift_coef(0, 5) == 0.0

    def test_diag_formula(self):
        assert diag_coef(0, 2) == -10.0
        assert diag_coef(1, 0) == -4.0
        assert diag_coef(2, 3) == -(2 * 7 + 12)


class TestChannelSums:
    def test_a1_example(self):
        for m_star in (0, -1, 2):
            assert sum_sq_channel("A1", 2, 0, 0) == pytest.approx(32 / 3, rel=1e-12)

    def test_a3_example(self):
        assert sum_sq_channel("A3", 0, 2, 0) == pytest.approx(4.0, rel=1e-12)

    def test_a2_radial_zero(self):
        for n in range(1, 6):
            assert sum_sq_channel("A2", n, 0, 0) == 0.0

    @pytest.mark.parametrize("channel", ["A1", "A2", "A3"])
    def test_closed_forms_and_m_star_independence(self, channel):
        # every m* against the channel's closed form, through the check that
        # owns it: check_a2_equality for A2, check_coefficient_sums (which
        # also checks all three bounds) for A1 and A3
        if channel == "A2":
            check = verification.check_a2_equality(8, 8, tol=1e-11)
        else:
            check = verification.check_coefficient_sums(8, 8, tol=1e-11)
        assert check["passed"], check["detail"]

    def test_bounds(self):
        for n in range(0, 9):
            for l in range(0, 9):
                if n >= 2:
                    assert sum_sq_closed_form("A1", n, l) <= sum_sq_bound("A1", n, l) + 1e-12
                if n >= 1 and l >= 1:
                    assert sum_sq_closed_form("A2", n, l) <= sum_sq_bound("A2", n, l) + 1e-12
                if l >= 2:
                    assert sum_sq_closed_form("A3", n, l) <= sum_sq_bound("A3", n, l) + 1e-12

    def test_a2_equality_finding(self):
        # the A2 bound is quoted as an inequality; brute force shows the
        # Legendre-product value is attained exactly
        check = verification.check_a2_equality(8, 8, tol=1e-11)
        assert check["passed"], check["detail"]

    def test_a2_closed_form_belongs_to_a2_check(self, monkeypatch):
        # a wrong A2 closed form fails the check that records the A2 equality,
        # and only that one
        def wrong_a2(channel, n, l):
            return sum_sq_closed_form(channel, n, l) + (1.0 if channel == "A2" else 0.0)

        monkeypatch.setattr(verification, "sum_sq_closed_form", wrong_a2)
        assert verification.check_coefficient_sums(6, 6)["passed"]
        assert not verification.check_a2_equality(6, 6)["passed"]

    @pytest.mark.parametrize("channel", ["A2", "drift"])
    def test_checks_read_the_stencil(self, monkeypatch, channel):
        # one channel of the stencil scaled by 1.01 fails the checks that read
        # that channel: the A2 equality, and the Fourier identities of both
        @cache
        def mutant(N):
            columns = _tensor_columns(N)
            *indices, coef = columns[channel]
            columns[channel] = (*indices, 1.01 * coef)
            return _assemble(N, columns)

        monkeypatch.setattr(verification, "build_tensor", mutant)
        monkeypatch.setattr(operators, "build_tensor", mutant)
        assert verification.check_a2_equality(6, 6)["passed"] == (channel != "A2")
        assert not verification.check_fourier_multiplier(np.random.default_rng(12345))["passed"]

    def test_m_star_out_of_range(self):
        with pytest.raises(ValueError):
            sum_sq_channel("A1", 3, 1, 2)


def reference_tensor_rows(N):
    """The per-mode loop over the scalar coefficient functions: for every
    target, channel entries (tgt, src, drv, mdrv, coef) in driver order."""
    table = mode_table(N)
    rows = {name: [] for name in CHANNELS}
    idx = table.index
    for ti, (n, l, m) in enumerate(table.modes):
        c = diag_coef(n, l)
        if c != 0.0:
            rows["diag"].append((ti, ti, idx[Mode(0, 0, 0)], 0, c))
        for m1 in (-1, 0, 1):
            ms = m - m1
            if n >= 1 and abs(ms) <= l + 1:
                c = A_minus(n - 1, l + 1, ms, m1)
                if c != 0.0:
                    rows["Am"].append((ti, idx[Mode(n - 1, l + 1, ms)], idx[Mode(0, 1, m1)], m1, c))
            if l >= 1 and abs(ms) <= l - 1:
                c = A_plus(n, l - 1, ms, m1)
                if c != 0.0:
                    rows["Ap"].append((ti, idx[Mode(n, l - 1, ms)], idx[Mode(0, 1, m1)], m1, c))
        if n >= 1:
            c = drift_coef(n, l)
            if c != 0.0:
                rows["drift"].append((ti, idx[Mode(n - 1, l, m)], idx[Mode(1, 0, 0)], 0, c))
        for m2 in range(-2, 3):
            ms = m - m2
            if n >= 2 and abs(ms) <= l + 2:
                c = A1(n - 2, l + 2, ms, m2)
                if c != 0.0:
                    rows["A1"].append((ti, idx[Mode(n - 2, l + 2, ms)], idx[Mode(0, 2, m2)], m2, c))
            if n >= 1 and abs(ms) <= l:
                c = A2(n - 1, l, ms, m2)
                if c != 0.0:
                    rows["A2"].append((ti, idx[Mode(n - 1, l, ms)], idx[Mode(0, 2, m2)], m2, c))
            if l >= 2 and abs(ms) <= l - 2:
                c = A3(n, l - 2, ms, m2)
                if c != 0.0:
                    rows["A3"].append((ti, idx[Mode(n, l - 2, ms)], idx[Mode(0, 2, m2)], m2, c))
    return rows


class TestBuildTensor:
    @pytest.mark.parametrize("N", [2, 3, 8, 16])
    def test_matches_reference_loop(self, N):
        tensor = build_tensor(N)
        rows = reference_tensor_rows(N)
        for name in CHANNELS:
            tgt, src, drv, mdrv, coef = tensor.channels[name]
            ref = np.array([e[:4] for e in rows[name]], dtype=np.int64).reshape(-1, 4)
            for got, want in zip((tgt, src, drv, mdrv), ref.T, strict=True):
                np.testing.assert_array_equal(got, want)
            want = np.array([e[4] for e in rows[name]])
            scale = np.max(np.abs(want), initial=0.0)
            np.testing.assert_allclose(coef, want, rtol=0, atol=1e-12 * scale)
        if N == 16:
            assert len(tensor) == 14811

    def test_max_shell_entries(self):
        try:
            assert len(build_tensor(MAX_SHELL)) == 989_051
        finally:
            build_tensor.cache_clear()  # drop the ~100 MB tensor

    def test_target_200_a1_channel(self):
        tensor = build_tensor(6)
        table = mode_table(6)
        tgt, src, drv, mdrv, coef = tensor.channels["A1"]
        ti = table.index[Mode(2, 0, 0)]
        rows = [i for i in range(len(coef)) if tgt[i] == ti]
        assert len(rows) == 5
        for i in rows:
            s = table.modes[int(src[i])]
            assert (s.n, s.l) == (0, 2)
            assert s.m == -int(mdrv[i])
            assert coef[i] ** 2 == pytest.approx(32 / 15, rel=1e-12)

    def test_a3_shell_one_sources_present(self):
        tensor = build_tensor(6)
        table = mode_table(6)
        tgt, src, drv, mdrv, coef = tensor.channels["A3"]
        targets = {tuple(table.modes[int(t)]) for t in tgt}
        sources = {
            tuple(table.modes[int(src[i])])
            for i in range(len(coef))
            if tuple(table.modes[int(tgt[i])]) == (0, 3, 0)
        }
        assert (0, 3, 0) in targets
        assert sources and all(mo[0] == 0 and mo[1] == 1 for mo in sources)

    def test_n_one_targets_have_no_a1(self):
        tensor = build_tensor(8)
        table = mode_table(8)
        tgt = tensor.channels["A1"][0]
        assert all(table.modes[int(t)].n >= 2 for t in tgt)

    def test_drift_entry(self):
        tensor = build_tensor(6)
        table = mode_table(6)
        tgt, src, drv, mdrv, coef = tensor.channels["drift"]
        ti = table.index[Mode(1, 2, 0)]
        rows = [i for i in range(len(coef)) if tgt[i] == ti]
        assert len(rows) == 1
        assert table.modes[int(src[rows[0]])] == Mode(0, 2, 0)
        assert coef[rows[0]] == pytest.approx(4 * math.sqrt(21) / 3, rel=1e-14)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build_tensor(65)

    def test_minimum_truncation(self):
        tensor = build_tensor(2)
        assert len(tensor) > 0
        with pytest.raises(ValueError):
            build_tensor(1)


class TestTensorCache:
    def test_round_trip(self, tmp_path):
        tensor = build_tensor(5)
        path = tmp_path / "c.csv"
        save_tensor(tensor, path)
        back = load_tensor(path, expected_N=5)
        assert back.N == 5
        for name in CHANNELS:
            for got, want in zip(back.channels[name], tensor.channels[name], strict=True):
                np.testing.assert_array_equal(got, want)

    def test_checksum_mismatch(self, tmp_path):
        tensor = build_tensor(3)
        path = tmp_path / "c.csv"
        save_tensor(tensor, path)
        text = path.read_text().splitlines()
        text[1] = text[1].rsplit(",", 1)[0] + ",99.0"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(TensorCacheError, match="checksum"):
            load_tensor(path)

    def test_wrong_truncation(self, tmp_path):
        tensor = build_tensor(3)
        path = tmp_path / "c.csv"
        save_tensor(tensor, path)
        with pytest.raises(TensorCacheError, match="N=3"):
            load_tensor(path, expected_N=4)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("not a tensor\n")
        with pytest.raises(TensorCacheError):
            load_tensor(path)
