import math

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from landau_spectral.basis import (
    NormSpec,
    SpectralState,
    mode_table,
    project_tilde,
    s2_norm,
    weighted_norm,
)
from landau_spectral.coupling import build_tensor
from landau_spectral.errors import DimensionMismatchError, QuadratureOrderError
from landau_spectral.operators import (
    _gauss_laguerre,
    apply_bilinear,
    fourier_multiplier_oracle,
    moment_integral_oracle,
)
from landau_spectral.verification import check_nullspace_closure, random_tilde_state
from test_basis import is_real_symmetric

TRILINEAR_CONST = 4 * math.sqrt(3) / 3 + math.sqrt(2)


def apply_linear(state: SpectralState) -> SpectralState:
    """Multiply each amplitude by its collision eigenvalue."""
    return state.with_coeffs(state.coeffs * state.table.lam)


class TestApplyLinear:
    def test_shell_two(self):
        state = SpectralState.from_dict(4, {(0, 2, 0): 1.0})
        assert apply_linear(state)[(0, 2, 0)] == 12.0

    def test_null_mode(self):
        state = SpectralState.from_dict(4, {(0, 0, 0): 1.0})
        assert apply_linear(state)[(0, 0, 0)] == 0.0

    def test_formula_mode(self):
        z = 0.3 - 0.8j
        state = SpectralState.from_dict(4, {(0, 3, 1): z})
        assert apply_linear(state)[(0, 3, 1)] == pytest.approx(18 * z, rel=1e-15)


class TestApplyBilinear:
    def test_maxwellian_driver_diagonal(self):
        tensor = build_tensor(6)
        f = SpectralState.from_dict(6, {(0, 0, 0): 1.0})
        for mode in [(0, 2, 0), (1, 1, -1), (0, 4, 3), (3, 0, 0), (0, 1, 0)]:
            g = SpectralState.from_dict(6, {mode: 1.0})
            h = apply_bilinear(f, g, tensor)
            n, l, m = mode
            assert h[mode] == pytest.approx(-(2 * (2 * n + l) + l * (l + 1)), rel=1e-14)
            others = np.abs(h.coeffs).sum() - abs(h[mode])
            assert others <= 1e-14

    def test_high_shell_drivers_vanish(self):
        tensor = build_tensor(6)
        rng = np.random.default_rng(1)
        size = len(mode_table(6))
        g = SpectralState(6, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        for driver in [(1, 1, 0), (0, 3, 2), (2, 0, 0), (1, 2, -2)]:
            f = SpectralState.from_dict(6, {driver: 1.0})
            h = apply_bilinear(f, g, tensor)
            assert np.abs(h.coeffs).max() == 0.0

    def test_radial_driver_drift(self):
        tensor = build_tensor(6)
        f = SpectralState.from_dict(6, {(1, 0, 0): 1.0})
        g = SpectralState.from_dict(6, {(0, 2, 0): 1.0})
        h = apply_bilinear(f, g, tensor)
        assert h[(1, 2, 0)] == pytest.approx(4 * math.sqrt(21) / 3, rel=1e-13)
        assert np.abs(h.coeffs).sum() == pytest.approx(abs(h[(1, 2, 0)]), rel=1e-13)

    def test_dimension_mismatch(self):
        tensor = build_tensor(4)
        with pytest.raises(DimensionMismatchError):
            apply_bilinear(SpectralState.zeros(6), SpectralState.zeros(4), tensor)

    def test_nullspace_closure(self):
        check = check_nullspace_closure(np.random.default_rng(41), N=8, pairs=50, tol=1e-14)
        assert check["passed"], check["detail"]

    def test_reality_preserved(self):
        tensor = build_tensor(8)
        rng = np.random.default_rng(43)
        f = random_tilde_state(8, rng, real_symmetric=True)
        g = random_tilde_state(8, rng, real_symmetric=True)
        h = apply_bilinear(f, g, tensor)
        assert is_real_symmetric(h, tol=1e-10)

    def test_bilinearity(self):
        tensor = build_tensor(6)
        rng = np.random.default_rng(47)
        f = random_tilde_state(6, rng, real_symmetric=False)
        g1 = random_tilde_state(6, rng, real_symmetric=False)
        g2 = random_tilde_state(6, rng, real_symmetric=False)
        lin = apply_bilinear(f, g1.with_coeffs(2.0 * g1.coeffs + 1j * g2.coeffs), tensor)
        parts = 2.0 * apply_bilinear(f, g1, tensor).coeffs + 1j * apply_bilinear(f, g2, tensor).coeffs
        np.testing.assert_allclose(lin.coeffs, parts, atol=1e-12)


class TestTrilinearEstimate:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, -2.0])
    def test_inequality(self, alpha):
        N = 10
        tensor = build_tensor(N)
        rng = np.random.default_rng(53)
        for _ in range(30):
            f = project_tilde(random_tilde_state(N, rng, real_symmetric=False), N)
            g = project_tilde(random_tilde_state(N, rng, real_symmetric=False), N)
            h = project_tilde(random_tilde_state(N, rng, real_symmetric=False), N)
            image = apply_bilinear(f, g, tensor)
            lhs = abs(
                complex(np.sum(image.coeffs * np.conj(h.coeffs) * f.table.hweight**alpha))
            )
            rhs = (
                TRILINEAR_CONST
                * s2_norm(f)
                * weighted_norm(project_tilde(g, N - 2), NormSpec(alpha=alpha + 1))
                * weighted_norm(h, NormSpec(alpha=alpha + 1))
            )
            assert lhs <= rhs * (1 + 1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -2.0])
    def test_image_norm_bound(self, alpha):
        # operator norm corollary: ||L(f,g)||_{alpha-2} bounded by the
        # shell-2 norm of f times the alpha-norm of g
        N = 10
        tensor = build_tensor(N)
        rng = np.random.default_rng(59)
        for _ in range(20):
            f = random_tilde_state(N, rng, real_symmetric=False)
            g = random_tilde_state(N, rng, real_symmetric=False)
            image = apply_bilinear(f, g, tensor)
            lhs = weighted_norm(image, NormSpec(alpha=alpha - 2))
            rhs = TRILINEAR_CONST * s2_norm(f) * weighted_norm(g, NormSpec(alpha=alpha))
            assert lhs <= rhs * (1 + 1e-12)


class TestFourierMultiplierOracle:
    def xi_samples(self, seed=61, count=10):
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((count, 3))
        return xi * (0.3 + 2.7 * rng.random((count, 1))) / np.linalg.norm(
            xi, axis=1, keepdims=True
        )

    def test_radial_driver(self):
        xi = self.xi_samples()
        for target in [(0, 0, 0), (0, 2, 1), (1, 1, 0), (0, 3, -2), (2, 0, 0)]:
            assert fourier_multiplier_oracle((1, 0, 0), target, xi) <= 1e-10

    def test_angular_driver(self):
        xi = self.xi_samples(67)
        for m2 in range(-2, 3):
            for target in [(0, 0, 0), (0, 2, 0), (1, 1, 1), (0, 4, 2)]:
                assert fourier_multiplier_oracle((0, 2, m2), target, xi) <= 1e-10

    def test_polar_axis(self):
        xi = np.array([[0.9, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert fourier_multiplier_oracle((0, 2, 0), (0, 2, 0), xi) <= 1e-10

    def test_both_sides_vanish(self):
        # selection rules kill both sides; deviation must read 0
        xi = self.xi_samples(71, 4)
        assert fourier_multiplier_oracle((0, 2, 2), (0, 0, 0), xi) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fourier_multiplier_oracle((1, 0, 0), (0, 2, 0), np.array([[1e-12, 0, 0]]))

    def test_shell_bound(self):
        with pytest.raises(ValueError, match="shell"):
            fourier_multiplier_oracle((1, 0, 0), (4, 0, 0), self.xi_samples())


class TestMomentIntegralOracle:
    def test_orth3_value(self):
        # direct value at v = e1: the integral equals -sqrt(6)/3
        from landau_spectral.operators import _moment_quadrature

        got = _moment_quadrature((1, 0, 0), 2, np.array([1.0, 0.0, 0.0]), 24, 16, 33)
        assert got.real == pytest.approx(-math.sqrt(6) / 3, abs=1e-8)
        assert abs(got.imag) <= 1e-12

    def test_orth1_polar_axis(self):
        from landau_spectral.operators import _moment_quadrature

        v = np.array([1.7, 0.0, 0.0])
        got = _moment_quadrature((0, 1, 0), 1, v, 24, 16, 33)
        # closed form sqrt(4pi/3) |v| Y_1^0(sigma) = |v| cos(theta) = v_1
        assert got.real == pytest.approx(1.7, rel=1e-10)
        assert abs(got.imag) <= 1e-12

    def test_orth2_homogeneity(self):
        from landau_spectral.operators import _moment_quadrature

        v = np.array([0.4, -0.7, 0.5])
        a = _moment_quadrature((0, 2, 1), 2, v, 24, 16, 33)
        b = _moment_quadrature((0, 2, 1), 2, 2.0 * v, 24, 16, 33)
        assert b == pytest.approx(4.0 * a, rel=1e-10)

    @pytest.mark.parametrize("which", ["orth1", "orth2", "orth3"])
    def test_oracle_matches_closed_forms(self, which):
        rng = np.random.default_rng(73)
        samples = rng.standard_normal((5, 3)) * 1.4
        assert moment_integral_oracle(which, samples) <= 1e-8

    def test_quadrature_order_error(self):
        with pytest.raises(QuadratureOrderError):
            moment_integral_oracle("orth2", np.array([[1.0, 0.0, 0.0]]), n_rad=1)

    def test_degenerate_sample(self):
        with pytest.raises(ValueError, match="degenerate"):
            moment_integral_oracle("orth1", np.zeros((1, 3)))


class TestGaussLaguerre:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
    def test_matches_scipy_rule(self, alpha):
        for order in range(1, 41):
            nodes, weights = _gauss_laguerre(order, alpha)
            want_nodes, want_weights = roots_genlaguerre(order, alpha)
            np.testing.assert_allclose(nodes, want_nodes, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                weights, want_weights, rtol=0, atol=1e-13 * math.gamma(alpha + 1)
            )

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
    def test_moments_exact(self, alpha):
        # sum w x^k = Gamma(k + alpha + 1) for every k <= 2 order - 1
        for order in range(1, 25):
            nodes, weights = _gauss_laguerre(order, alpha)
            for k in range(2 * order):
                want = math.gamma(k + alpha + 1)
                assert abs(np.sum(weights * nodes**k) - want) <= 1e-12 * want
