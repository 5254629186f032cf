import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, lpmv

from landau_spectral.specfun import (
    assoc_legendre,
    gauss_legendre,
    laguerre,
    legendre,
    ln_gamma,
    normalized_plm,
    normalized_plm_table,
    ylm,
)


class TestLnGamma:
    def test_known_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert ln_gamma(1.5) == pytest.approx(math.log(math.sqrt(math.pi) / 2), rel=1e-14)
        assert ln_gamma(3.5) == pytest.approx(math.log(15 * math.sqrt(math.pi) / 8), rel=1e-14)

    def test_against_scipy_grid(self):
        xs = np.linspace(0.5, 200.0, 400)
        for x in xs:
            assert ln_gamma(float(x)) == pytest.approx(float(gammaln(x)), rel=1e-13, abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ln_gamma(0.0)
        with pytest.raises(ValueError):
            ln_gamma(-2.5)


def laguerre_sum_oracle(n, alpha, x):
    """Explicit alternating sum, independent of the recurrence."""
    total = 0.0
    for r in range(n + 1):
        mag = math.exp(
            gammaln(alpha + n + 1)
            - gammaln(r + 1)
            - gammaln(n - r + 1)
            - gammaln(alpha + n - r + 1)
        )
        total += (-1.0) ** (n - r) * mag * x ** (n - r)
    return total


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 0.5, 3.7) == 1.0

    def test_degree_one(self):
        for alpha in (0.5, 1.5, 2.5):
            for x in (0.0, 0.3, 4.0):
                assert laguerre(1, alpha, x) == pytest.approx(alpha + 1 - x, rel=1e-14)

    def test_value_at_zero(self):
        # L_n^(a)(0) = Gamma(n+a+1) / (n! Gamma(a+1))
        assert laguerre(2, 0.5, 0.0) == pytest.approx(15.0 / 8.0, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
    def test_against_explicit_sum(self, n, alpha):
        for x in np.linspace(0.0, 8.0, 9):
            want = laguerre_sum_oracle(n, alpha, float(x))
            assert laguerre(n, alpha, float(x)) == pytest.approx(want, rel=1e-10, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=39),
        alpha=st.sampled_from([0.5, 1.5, 2.5]),
        x=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_recurrence_consistency(self, n, alpha, x):
        lhs = (n + 1) * laguerre(n + 1, alpha, x)
        rhs = (2 * n + alpha + 1 - x) * laguerre(n, alpha, x) - (n + alpha) * laguerre(
            n - 1, alpha, x
        )
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-11 * scale

    def test_array_input(self):
        xs = np.linspace(0, 5, 7)
        vals = laguerre(3, 0.5, xs)
        assert vals.shape == xs.shape
        assert vals[0] == pytest.approx(laguerre(3, 0.5, 0.0))


class TestAssocLegendre:
    def test_trivial(self):
        assert assoc_legendre(0, 0, 0.3) == 1.0

    def test_p2(self):
        for x in np.linspace(-1, 1, 11):
            assert assoc_legendre(2, 0, float(x)) == pytest.approx(
                1.5 * x * x - 0.5, abs=1e-14
            )

    def test_p11_no_phase(self):
        # positive prefactor convention: P_1^1(x) = sqrt(1 - x^2)
        assert assoc_legendre(1, 1, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert assoc_legendre(1, 1, 0.6) == pytest.approx(0.8, rel=1e-14)

    def test_index_error(self):
        with pytest.raises(ValueError):
            assoc_legendre(2, 3, 0.1)

    @pytest.mark.parametrize("l", range(0, 13))
    def test_against_scipy_with_phase_translation(self, l):
        # scipy's lpmv carries the Condon-Shortley (-1)^m
        xs = np.linspace(-0.99, 0.99, 21)
        for m in range(l + 1):
            ours = np.array([assoc_legendre(l, m, float(x)) for x in xs])
            ref = (-1.0) ** m * lpmv(m, l, xs)
            np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-10)


class TestLegendreProducts:
    """Product expansion identities for low-degree Legendre multipliers."""

    xs = np.linspace(-1.0, 1.0, 41)

    def test_p2_times_p0_p1(self):
        np.testing.assert_allclose(
            legendre(2, self.xs) * legendre(0, self.xs), legendre(2, self.xs), atol=1e-12
        )
        np.testing.assert_allclose(
            legendre(2, self.xs) * legendre(1, self.xs),
            0.6 * legendre(3, self.xs) + 0.4 * legendre(1, self.xs),
            atol=1e-12,
        )

    @pytest.mark.parametrize("l", range(1, 13))
    def test_p1_times_pl(self, l):
        want = (l + 1) / (2 * l + 1) * legendre(l + 1, self.xs) + l / (2 * l + 1) * legendre(
            l - 1, self.xs
        )
        np.testing.assert_allclose(legendre(1, self.xs) * legendre(l, self.xs), want, atol=1e-12)

    @pytest.mark.parametrize("l", range(2, 13))
    def test_p2_times_pl(self, l):
        want = (
            3 * (l + 2) * (l + 1) / (2 * (2 * l + 3) * (2 * l + 1)) * legendre(l + 2, self.xs)
            + (l + 1) * l / ((2 * l + 3) * (2 * l - 1)) * legendre(l, self.xs)
            + 3 * l * (l - 1) / (2 * (2 * l + 1) * (2 * l - 1)) * legendre(l - 2, self.xs)
        )
        np.testing.assert_allclose(legendre(2, self.xs) * legendre(l, self.xs), want, atol=1e-12)


class TestYlm:
    def test_constant_mode(self):
        assert ylm(0, 0, 0.7, 1.1) == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-14)

    def test_dipole(self):
        theta = 0.4
        assert ylm(1, 0, theta, 0.3) == pytest.approx(
            math.sqrt(3 / (4 * math.pi)) * math.cos(theta), rel=1e-14
        )

    def test_conjugation(self):
        for l, m in [(1, 1), (2, 1), (2, 2), (5, 3), (7, -4)]:
            a = complex(ylm(l, m, 0.53, 0.81))
            b = complex(ylm(l, -m, 0.53, 0.81))
            assert a.conjugate() == pytest.approx(b, rel=1e-13, abs=1e-15)

    def test_index_error(self):
        with pytest.raises(ValueError):
            ylm(1, 2, 0.1, 0.1)

    def test_orthonormality(self):
        lmax = 10
        rule = gauss_legendre(2 * lmax + 2)
        n_phi = 4 * lmax + 5
        phis = 2 * math.pi * np.arange(n_phi) / n_phi
        theta = np.arccos(rule.nodes)
        vals = {}
        for l in range(lmax + 1):
            for m in range(-l, l + 1):
                vals[(l, m)] = ylm(l, m, theta[:, None], phis[None, :])
        keys = list(vals)
        for i, k1 in enumerate(keys):
            for k2 in keys[i:]:
                got = np.sum(rule.weights[:, None] * vals[k1] * np.conj(vals[k2])) * (
                    2 * math.pi / n_phi
                )
                want = 1.0 if k1 == k2 else 0.0
                assert abs(got - want) <= 1e-12

    def test_normalized_plm_matches_direct(self):
        xs = np.linspace(-0.95, 0.95, 11)
        for l in range(0, 9):
            for m in range(0, l + 1):
                norm = math.exp(
                    0.5
                    * (
                        math.log(2 * l + 1)
                        - math.log(4 * math.pi)
                        + gammaln(l - m + 1)
                        - gammaln(l + m + 1)
                    )
                )
                direct = norm * np.array([assoc_legendre(l, m, float(x)) for x in xs])
                np.testing.assert_allclose(normalized_plm(l, m, xs), direct, rtol=1e-11, atol=1e-13)

    def test_normalized_plm_table_is_normalized_plm(self):
        # the table and the scalar function run one recurrence: equal bit for bit
        nodes = gauss_legendre(18).nodes
        table = normalized_plm_table(16, nodes)
        assert table.shape == (17, 17, 18)
        for l in range(17):
            for m in range(17):
                want = normalized_plm(l, m, nodes) if m <= l else np.zeros_like(nodes)
                np.testing.assert_array_equal(table[l, m], want)


class TestGaussLegendre:
    def test_order_one(self):
        rule = gauss_legendre(1)
        np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [2.0], atol=1e-15)

    def test_order_two(self):
        rule = gauss_legendre(2)
        np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    def test_quartic_with_three_points(self):
        rule = gauss_legendre(3)
        assert float(rule.weights @ rule.nodes**4) == pytest.approx(2 / 5, rel=1e-14)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_invariants(self, order):
        rule = gauss_legendre(order)
        assert abs(float(np.sum(rule.weights)) - 2.0) <= 1e-14
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        for deg in range(2 * order):
            got = float(rule.weights @ rule.nodes**deg)
            want = 0.0 if deg % 2 else 2 / (deg + 1)
            assert abs(got - want) <= 1e-13

    def test_bad_order(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
