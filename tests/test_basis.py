import math

import numpy as np
import pytest
from scipy.special import roots_hermite

from landau_spectral.basis import (
    Mode,
    NormSpec,
    SpectralState,
    lambda_eig,
    load_state_csv,
    mode_table,
    nullspace_norm,
    phi_eval,
    project_tilde,
    psi_hat,
    s2_norm,
    save_state_csv,
    sqrt_mu,
    weighted_norm,
)
from landau_spectral.errors import StateFileError, WeightOverflowError


def shell_mode_count(k: int) -> int:
    """Number of modes (n, l, m) with 2n + l = k."""
    return sum(2 * (k - 2 * n) + 1 for n in range(k // 2 + 1))


def is_real_symmetric(state: SpectralState, tol: float = 1e-12) -> bool:
    """True when g_{n,l,-m} = conj(g_{n,l,m}) within tol."""
    table = state.table
    for mo, idx in table.index.items():
        if mo.m < 0:
            continue
        j = table.index[Mode(mo.n, mo.l, -mo.m)]
        if abs(state.coeffs[j] - np.conj(state.coeffs[idx])) > tol:
            return False
    return True


class TestLambdaEig:
    def test_null_shells(self):
        assert lambda_eig(0, 0) == 0.0
        assert lambda_eig(0, 1) == 0.0
        assert lambda_eig(1, 0) == 0.0

    def test_shell_two(self):
        assert lambda_eig(0, 2) == 12.0

    def test_formula_above_shell_two(self):
        assert lambda_eig(1, 2) == 14.0
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(0, 15))
            l = int(rng.integers(0, 15))
            if 2 * n + l <= 2:
                continue
            assert lambda_eig(n, l) == 2 * (2 * n + l) + l * (l + 1)


class TestModeTable:
    def test_shell_counts(self):
        for k in range(21):
            direct = sum(
                2 * l + 1 for n in range(k // 2 + 1) for l in [k - 2 * n]
            )
            assert shell_mode_count(k) == direct

    def test_enumeration_order(self):
        table = mode_table(6)
        keys = [(mo.shell, mo.n, mo.m) for mo in table.modes]
        assert keys == sorted(keys)
        assert len(set(table.modes)) == len(table)

    def test_total_count(self):
        table = mode_table(8)
        assert len(table) == sum(shell_mode_count(k) for k in range(9))

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            SpectralState.from_dict(4, {(0, 1, 2): 1.0})
        with pytest.raises(ValueError):
            SpectralState.from_dict(4, {(0, 6, 0): 1.0})


def hermite_grid(n_1d=21):
    """Cartesian product Gauss-Hermite grid for integrals against e^{-|v|^2/2}."""
    x, w = roots_hermite(n_1d)
    vx, vy, vz = np.meshgrid(x, x, x, indexing="ij")
    pts = math.sqrt(2.0) * np.stack([vx, vy, vz], axis=-1).reshape(-1, 3)
    wts = (w[:, None, None] * w[None, :, None] * w[None, None, :]).reshape(-1)
    wts = wts * 2.0 ** 1.5  # dv = 2^{3/2} dx
    return pts, wts


class TestPhiEval:
    def test_explicit_low_modes(self):
        rng = np.random.default_rng(11)
        for v in rng.standard_normal((6, 3)) * 1.3:
            smu = float(sqrt_mu(v))
            r2 = float(np.dot(v, v))
            cases = {
                (0, 0, 0): smu,
                (0, 1, 0): v[0] * smu,
                (0, 1, 1): (v[1] + 1j * v[2]) / math.sqrt(2) * smu,
                (0, 1, -1): (v[1] - 1j * v[2]) / math.sqrt(2) * smu,
                (1, 0, 0): math.sqrt(2 / 3) * (1.5 - r2 / 2) * smu,
                (0, 2, 0): math.sqrt(1 / 3) * (1.5 * v[0] ** 2 - r2 / 2) * smu,
                (0, 2, 1): (v[0] * v[1] + 1j * v[0] * v[2]) / math.sqrt(2) * smu,
                (0, 2, 2): ((v[1] ** 2 - v[2] ** 2) / (2 * math.sqrt(2)) + 1j * v[1] * v[2] / math.sqrt(2)) * smu,
            }
            for mode, want in cases.items():
                assert complex(phi_eval(mode, v)) == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_value_at_origin(self):
        assert complex(phi_eval((0, 0, 0), np.zeros(3))) == pytest.approx(
            (2 * math.pi) ** (-0.75), rel=1e-14
        )
        assert phi_eval((0, 3, 1), np.zeros(3)) == 0

    def test_orthonormality_by_quadrature(self):
        # each phi carries e^{-r^2/4}; stripping that per factor leaves the
        # pair product polynomial against the Gauss-Hermite weight e^{-r^2/2}
        pts, wts = hermite_grid(21)
        table = mode_table(6)
        strip = np.exp(np.sum(pts * pts, -1) / 4.0)
        vals = np.stack([phi_eval(mode, pts) * strip for mode in table.modes])
        gram = (vals * wts) @ np.conj(vals.T)
        np.testing.assert_allclose(gram, np.eye(len(table)), atol=1e-9)


class TestPsiHat:
    def test_unit_mass_at_zero(self):
        assert complex(psi_hat((0, 0, 0), np.zeros(3))) == pytest.approx(1.0, rel=1e-14)

    def test_dipole_phase(self):
        xi = np.array([0.3, 0.4, -0.2])
        val = complex(psi_hat((0, 1, 0), xi))
        # the l=1 prefactor is (-i): value must be purely imaginary on axis-1
        xi_axis = np.array([0.7, 0.0, 0.0])
        v2 = complex(psi_hat((0, 1, 0), xi_axis))
        assert abs(v2.real) < 1e-15 and v2.imag < 0
        assert abs(val) > 0

    def test_gaussian_decay(self):
        assert abs(complex(psi_hat((1, 2, 1), np.array([40.0, 0, 0])))) == 0.0

    def test_against_fourier_quadrature(self):
        # direct 3D quadrature of the transform of sqrt(mu) phi
        pts, wts = hermite_grid(31)
        rng = np.random.default_rng(5)
        xis = rng.standard_normal((10, 3))
        xis *= (3.0 * rng.random((10, 1))) / np.linalg.norm(xis, axis=1, keepdims=True)
        table = mode_table(4)
        gauss_stripped = {
            mode: phi_eval(mode, pts) * sqrt_mu(pts) * np.exp(np.sum(pts * pts, -1) / 2.0)
            for mode in table.modes
        }
        for mode in table.modes:
            vals = gauss_stripped[mode]
            for xi in xis:
                phase = np.exp(-1j * pts @ xi)
                got = np.sum(wts * vals * phase)
                want = complex(psi_hat(mode, xi))
                assert abs(got - want) <= 1e-8

    def test_reality_pairing(self):
        # conj(psi_hat(n,l,m)) at xi equals (-1)^l psi_hat(n,l,-m) at xi
        xi = np.array([0.5, -0.8, 0.3])
        for mode in [(0, 1, 1), (0, 2, 2), (1, 1, 0), (0, 3, -2)]:
            n, l, m = mode
            a = complex(psi_hat(mode, xi)).conjugate()
            b = (-1.0) ** l * complex(psi_hat((n, l, -m), xi))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


class TestProjectTilde:
    def test_removes_radial_null_mode(self):
        state = SpectralState.from_dict(4, {(1, 0, 0): 1.0})
        assert np.all(project_tilde(state, 4).coeffs == 0)

    def test_keeps_shell_two_angular(self):
        state = SpectralState.from_dict(4, {(0, 2, 1): 2.0 - 1.0j})
        out = project_tilde(state, 4)
        assert out[(0, 2, 1)] == 2.0 - 1.0j

    def test_truncates_high_shells(self):
        state = SpectralState.from_dict(4, {(0, 3, 0): 1.0})
        assert np.all(project_tilde(state, 2).coeffs == 0)

    def test_preserves_reality_symmetry(self):
        state = SpectralState.from_dict(
            6, {(0, 2, 1): 1 + 2j, (0, 2, -1): 1 - 2j, (1, 2, 0): 0.5}
        )
        assert is_real_symmetric(state)
        assert is_real_symmetric(project_tilde(state, 4))


class TestNorms:
    def test_single_mode_alpha_zero(self):
        state = SpectralState.from_dict(4, {(0, 2, 0): 1.0})
        assert weighted_norm(state, NormSpec()) == pytest.approx(1.0, rel=1e-15)

    def test_single_mode_alpha_minus_two(self):
        state = SpectralState.from_dict(4, {(0, 2, 0): 1.0})
        assert weighted_norm(state, NormSpec(alpha=-2.0)) == pytest.approx(2 / 7, rel=1e-14)

    def test_empty_state(self):
        assert weighted_norm(SpectralState.zeros(4), NormSpec(alpha=-1.0, c1=0.3, t=2.0)) == 0.0

    def test_gaussian_weight(self):
        state = SpectralState.from_dict(4, {(0, 2, 0): 0.5})
        spec = NormSpec(alpha=0.0, c1=0.1, t=2.0)
        want = math.exp(0.1 * 2.0 * 3.5) * 0.5
        assert weighted_norm(state, spec) == pytest.approx(want, rel=1e-13)

    def test_overflow_reports_shell(self):
        state = SpectralState.from_dict(10, {(0, 10, 0): 1.0, (0, 2, 0): 1.0})
        with pytest.raises(WeightOverflowError) as err:
            weighted_norm(state, NormSpec(alpha=0.0, c1=40.0, t=1.0))
        assert err.value.shell == 10

    def test_norm_ignores_phase(self):
        a = SpectralState.from_dict(4, {(1, 1, 1): 0.3 + 0.4j})
        b = SpectralState.from_dict(4, {(1, 1, 1): 0.5})
        spec = NormSpec(alpha=-1.0, c1=0.02, t=1.0)
        assert weighted_norm(a, spec) == pytest.approx(weighted_norm(b, spec), rel=1e-14)

    def test_s2_norm(self):
        assert s2_norm(SpectralState.from_dict(4, {(1, 2, 0): 9.0})) == 0.0
        assert s2_norm(SpectralState.from_dict(4, {(0, 2, 0): 0.3})) == pytest.approx(0.3)
        both = SpectralState.from_dict(4, {(0, 2, 1): 0.3, (0, 2, -1): 0.3})
        assert s2_norm(both) == pytest.approx(0.3 * math.sqrt(2), rel=1e-14)

    def test_nullspace_norm(self):
        state = SpectralState.from_dict(4, {(0, 1, 0): 0.4, (0, 2, 0): 5.0})
        assert nullspace_norm(state) == pytest.approx(0.4, rel=1e-14)


class TestStateCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        table = mode_table(5)
        coeffs = rng.standard_normal(len(table)) + 1j * rng.standard_normal(len(table))
        state = SpectralState(5, coeffs, t=0.25)
        path = tmp_path / "state.csv"
        save_state_csv(state, path)
        back = load_state_csv(path, truncation=5, t=0.25)
        assert np.array_equal(back.coeffs, state.coeffs)
        assert back.t == state.t

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("n,l,m,re,im\n0,2,0,1.0,0.0\n")
        state = load_state_csv(path)
        assert state[(0, 2, 0)] == 1.0
        assert state.truncation == 2

    def test_rejects_invalid_m(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,l,m,re,im\n0,2,3,1.0,0.0\n")
        with pytest.raises(StateFileError, match="line 2"):
            load_state_csv(path)

    def test_rejects_shell_above_truncation(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("n,l,m,re,im\n0,5,0,1.0,0.0\n")
        with pytest.raises(StateFileError, match="shell 5"):
            load_state_csv(path, truncation=4)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "garbled.csv"
        path.write_text("n,l,m,re,im\n0,2,0,1.0,0.0\nx,y,z,w,q\n")
        with pytest.raises(StateFileError, match="3"):
            load_state_csv(path)

    def test_immutability(self):
        state = SpectralState.zeros(3)
        with pytest.raises((ValueError, AttributeError)):
            state.coeffs[0] = 1.0
        with pytest.raises(AttributeError):
            state.t = 3.0
