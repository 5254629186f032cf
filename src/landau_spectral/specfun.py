"""Special functions underlying the eigenbasis.

Log-Gamma, generalized Laguerre polynomials, Legendre and associated Legendre
functions, complex spherical harmonics, and Gauss-Legendre quadrature.

Conventions
-----------
Associated Legendre functions carry NO Condon-Shortley phase: the
``(1-x^2)^(m/2)`` prefactor is positive.  With the normalization

    N_{l,m} = sqrt((2l+1) (l-|m|)! / (4 pi (l+|m|)!))

the spherical harmonics ``Y_l^m = N_{l,m} P_l^{|m|}(cos theta) e^{i m phi}``
then satisfy ``conj(Y_l^m) = Y_l^{-m}`` literally, which the coupling
coefficients rely on.  SciPy's ``lpmv``/``sph_harm`` include the phase and are
used only as test oracles behind an explicit sign translation.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x).

    Evaluated by the three-term recurrence

        (k+1) L_{k+1} = (2k + alpha + 1 - x) L_k - (k + alpha) L_{k-1}

    which is stable for the x >= 0, alpha > -1 range used here; the explicit
    alternating sum cancels catastrophically for large n.
    Accepts scalar or ndarray x.
    """
    if n < 0:
        raise ValueError(f"laguerre degree must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for k in range(n):
        prev, cur = cur, ((2 * k + alpha + 1 - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def legendre(l: int, x):
    """Legendre polynomial P_l(x) by the Bonnet recurrence."""
    return assoc_legendre(l, 0, x)


def assoc_legendre(l: int, m: int, x):
    """Associated Legendre function P_l^m(x) without Condon-Shortley phase.

    Seeded from P_m^m(x) = (2m-1)!! (1-x^2)^(m/2) and raised in l with

        (l-m) P_l^m = (2l-1) x P_{l-1}^m - (l+m-1) P_{l-2}^m.

    Accepts scalar or ndarray x in [-1, 1].
    """
    if l < 0 or m < 0 or m > l:
        raise ValueError(f"assoc_legendre requires 0 <= m <= l, got l={l} m={m}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("assoc_legendre argument outside [-1, 1]")

    pmm = np.ones_like(x)
    if m > 0:
        s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
        fact = 1.0
        for k in range(1, m + 1):
            pmm = pmm * fact * s
            fact += 2.0
    if l == m:
        return pmm if pmm.ndim else float(pmm)
    pm1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pm1 if pm1.ndim else float(pm1)
    for ll in range(m + 2, l + 1):
        pmm, pm1 = pm1, ((2 * ll - 1) * x * pm1 - (ll + m - 1) * pmm) / (ll - m)
    return pm1 if pm1.ndim else float(pm1)


def _plm_upward(m: int, x, lmax: int):
    """Yield N_{l,m} P_l^m(x) for l = m, m+1, ..., lmax (m >= 0).

    The fully normalized recurrence (seed and l-raising both carry the
    normalization) stays O(1) in magnitude for all l and avoids the
    factorial over/underflow of normalizing at the end.
    """
    # seed: N_{m,m} P_m^m = sqrt((2m+1)/(4 pi)) sqrt((2m-1)!!/(2m)!!) s^m
    p = np.full_like(x, 1.0 / math.sqrt(4.0 * math.pi))
    if m > 0:
        s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
        for k in range(1, m + 1):
            p = p * s * math.sqrt((2 * k + 1) / (2.0 * k))
    yield p
    if lmax == m:
        return
    pm1 = math.sqrt(2 * m + 3.0) * x * p
    yield pm1
    for ll in range(m + 2, lmax + 1):
        a = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = math.sqrt(
            (2.0 * ll + 1.0)
            * (ll - 1.0 + m)
            * (ll - 1.0 - m)
            / ((2.0 * ll - 3.0) * (ll * ll - m * m))
        )
        p, pm1 = pm1, a * x * pm1 - b * p
        yield pm1


def normalized_plm(l: int, m: int, x):
    """N_{l,m} P_l^{|m|}(x), the theta-part of Y_l^m."""
    m = abs(m)
    if m > l:
        raise ValueError(f"normalized_plm requires |m| <= l, got l={l} m={m}")
    *_, p = _plm_upward(m, np.asarray(x, dtype=float), l)
    return p if p.ndim else float(p)


def normalized_plm_table(lmax: int, x) -> np.ndarray:
    """Array T with T[l, m] = normalized_plm(l, m, x) for 0 <= m <= l <= lmax.

    Entries with m > l are zero.  Shape (lmax+1, lmax+1) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    table = np.zeros((lmax + 1, lmax + 1) + x.shape)
    for m in range(lmax + 1):
        for l, p in enumerate(_plm_upward(m, x, lmax), start=m):
            table[l, m] = p
    return table


def ylm(l: int, m: int, theta, phi):
    """Complex spherical harmonic Y_l^m(theta, phi).

    Orthonormal on the unit sphere; satisfies conj(Y_l^m) = Y_l^{-m}.
    Accepts scalar or array angles.
    """
    if abs(m) > l:
        raise ValueError(f"ylm requires |m| <= l, got l={l} m={m}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    val = normalized_plm(l, m, np.cos(theta)) * np.exp(1j * m * phi)
    return val if np.ndim(val) else complex(val)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on [-1, 1].

    Exact for polynomials of degree <= 2*order - 1; weights sum to 2.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order (number of nodes), memoised:
    the rule is immutable and its arrays are read-only."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights, order=order)
