"""The bilinear collision operator in coefficient space, plus the
independent Fourier-side and moment-integral oracles used to validate the
expansion identities numerically.  The linearized operator is diagonal in
this basis, with the eigenvalues ``ModeTable.lam``.

The bilinear operator is almost diagonal: only driver modes at shell <= 2
couple, so applying it is a gather, two products and a sum over the rows of
the precomputed coupling stencil (see ``CouplingTensor.apply``).  The
radial rule of the moment oracle is a Golub-Welsch Gauss-Laguerre rule, so
numpy is the only dependency.
"""

import math
from functools import lru_cache

import numpy as np

from .basis import SpectralState, psi_hat, validate_mode
from .coupling import A1, A2, A3, CouplingTensor
from .errors import DimensionMismatchError, QuadratureOrderError
from .specfun import gauss_legendre, laguerre, ylm


def apply_bilinear(
    f: SpectralState, g: SpectralState, tensor: CouplingTensor
) -> SpectralState:
    """Coefficient-space bilinear collision image h = L(f, g).

    h_{n,l,m} collects the seven coupling channels; only the shell <= 2
    amplitudes of f act as drivers.  The image of null-space-free inputs is
    again null-space free.
    """
    if f.truncation != tensor.N or g.truncation != tensor.N:
        raise DimensionMismatchError(
            f"operands (N={f.truncation}, N={g.truncation}) do not match "
            f"tensor N={tensor.N}"
        )
    return g.with_coeffs(tensor.apply(f.coeffs, g.coeffs))


_DRIFT_MULT = 2.0 * math.sqrt(6.0) / 3.0
_QUAD_MULT = 4.0 * math.sqrt(math.pi / 15.0)


def fourier_multiplier_oracle(driver, target, xi_samples) -> float:
    """Max relative deviation between the Fourier-multiplier form and the
    coefficient expansion of the bilinear operator for one driver/target pair.

    Both sides are analytic: the left side multiplies the target's Fourier
    profile by the driver's multiplier symbol, the right side sums expansion
    coefficients times shifted-mode profiles.  Supported drivers are the
    radial shell-2 mode (1,0,0) and the angular shell-2 modes (0,2,m2).
    """
    dn, dl, dm = validate_mode(*driver)
    n, l, m = validate_mode(*target)
    if 2 * n + l > 6:
        raise ValueError("oracle supports target shells <= 6")
    xi = np.asarray(xi_samples, dtype=float).reshape(-1, 3)
    norms = np.linalg.norm(xi, axis=1)
    if np.any(norms < 1e-8):
        raise ValueError("degenerate sample: |xi| < 1e-8")

    r2 = np.sum(xi * xi, axis=1)
    term_scale = np.zeros(len(xi))
    if (dn, dl) == (1, 0):
        left = _DRIFT_MULT * r2 * psi_hat((n, l, m), xi)
        coef = 4.0 * math.sqrt(3.0 * (n + 1) * (2 * n + 2 * l + 3)) / 3.0
        right = coef * psi_hat((n + 1, l, m), xi)
    elif (dn, dl) == (0, 2):
        theta = np.arccos(np.clip(xi[:, 0] / norms, -1.0, 1.0))
        phi = np.arctan2(xi[:, 2], xi[:, 1])
        left = _QUAD_MULT * r2 * ylm(2, dm, theta, phi) * psi_hat((n, l, m), xi)
        right = np.zeros(len(xi), dtype=np.complex128)
        for coef, mode in (
            (A1(n, l, m, dm), (n + 2, l - 2, m + dm)),
            (A2(n, l, m, dm), (n + 1, l, m + dm)),
            (A3(n, l, m, dm), (n, l + 2, m + dm)),
        ):
            if coef != 0.0:
                term = coef * psi_hat(mode, xi)
                term_scale = np.maximum(term_scale, np.abs(term))
                right = right + term
    else:
        raise ValueError(f"unsupported driver mode {tuple(driver)}")

    # deviations are measured against the size of the computation, not of the
    # (possibly cancelling) sides: a wrong coefficient still shows up O(1)
    scale = np.maximum(np.maximum(np.abs(left), np.abs(right)), term_scale)
    err = np.abs(left - right)
    rel = np.where(scale > 0, err / np.where(scale > 0, scale, 1.0), 0.0)
    return float(np.max(rel)) if len(rel) else 0.0


_ORACLES = {
    "orth1": dict(modes=[(0, 1, m1) for m1 in (-1, 0, 1)], power=1),
    "orth2": dict(modes=[(0, 2, m2) for m2 in range(-2, 3)], power=2),
    "orth3": dict(modes=[(1, 0, 0)], power=2),
}


def _moment_closed_form(mode, power, v):
    n, l, m = mode
    r = np.linalg.norm(v)
    theta = math.acos(min(1.0, max(-1.0, v[0] / r)))
    phi = math.atan2(v[2], v[1])
    if (n, l) == (0, 1):
        return math.sqrt(4.0 * math.pi / 3.0) * r * ylm(1, m, theta, phi)
    if (n, l) == (0, 2):
        return math.sqrt(16.0 * math.pi / 15.0) * r * r * ylm(2, m, theta, phi)
    return -math.sqrt(6.0) / 3.0 * r * r


@lru_cache
def _gauss_laguerre(order: int, alpha: float):
    """Nodes and weights of the order-point Gauss rule for the weight x^alpha e^(-x)
    on (0, inf), by Golub-Welsch: the nodes are the eigenvalues of the Jacobi
    matrix of the generalized Laguerre recurrence, and each weight is
    Gamma(alpha + 1) times the squared first component of its eigenvector.
    Memoised; the arrays are read-only."""
    i = np.arange(order)
    off = np.sqrt(i[1:] * (i[1:] + alpha))
    jacobi = np.diag(2.0 * i + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = math.gamma(alpha + 1.0) * vectors[0] ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _moment_quadrature(mode, power, v, n_rad, n_theta, n_phi):
    """3D quadrature of integral (v.v*)^p Psi_mode(v*) dv*.

    Radial direction: substitute u = r^2/2 so the Gaussian becomes the
    generalized Gauss-Laguerre weight e^(-u) u^(1/2) and the rest of the
    integrand is polynomial in u.  Sphere: Gauss-Legendre in cos(theta)
    times a uniform trapezoid in phi, both exact for the polynomial degrees
    involved.
    """
    n, l, m = mode
    u, wu = _gauss_laguerre(n_rad, 0.5)
    rule = gauss_legendre(n_theta)
    x, wx = rule.nodes, rule.weights
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * math.pi / n_phi

    r = np.sqrt(2.0 * u)
    # gaussian-stripped radial profile of Psi = sqrt(mu) phi:
    # Psi = C (2pi)^(-3/4) (r/sqrt2)^l e^(-r^2/2) L_n^(l+1/2)(r^2/2) Y_l^m
    log_c = 0.5 * (math.lgamma(n + 1) - 0.5 * math.log(2.0) - math.lgamma(n + l + 1.5))
    radial = (
        math.exp(log_c)
        * (2.0 * math.pi) ** (-0.75)
        * (r / math.sqrt(2.0)) ** l
        * laguerre(n, l + 0.5, u)
    )

    theta = np.arccos(x)
    sph = ylm(l, m, theta[:, None], phis[None, :])  # (n_theta, n_phi)

    st = np.sqrt(1.0 - x * x)
    dirs = np.stack(
        [
            np.broadcast_to(x[:, None], (n_theta, n_phi)),
            st[:, None] * np.cos(phis)[None, :],
            st[:, None] * np.sin(phis)[None, :],
        ],
        axis=-1,
    )
    dots = dirs @ np.asarray(v, dtype=float)  # (n_theta, n_phi)

    # integral = sqrt(2) sum_u w_u radial(u) r(u)^p  x  sphere sum
    ang = np.sum(wx[:, None] * wphi * dots**power * sph)
    rad = math.sqrt(2.0) * np.sum(wu * radial * r**power)
    return complex(rad * ang)


def moment_integral_oracle(which: str, v_samples, n_rad=24, n_theta=16, n_phi=33) -> float:
    """Max relative deviation of the driver moment integrals from their
    closed forms, over the given sample points.

    ``which`` selects the first/second-moment family: 'orth1' pairs the
    shell-1 modes with (v.v*), 'orth2'/'orth3' pair the shell-2 modes with
    (v.v*)^2.  Raises when the requested quadrature orders cannot resolve
    the (known, finite) polynomial degrees involved.
    """
    if which not in _ORACLES:
        raise ValueError(f"unknown oracle {which!r}")
    spec = _ORACLES[which]
    power = spec["power"]
    worst = 0.0
    for v in np.asarray(v_samples, dtype=float).reshape(-1, 3):
        r = float(np.linalg.norm(v))
        if r < 1e-12:
            raise ValueError("degenerate sample: |v| too small")
        for mode in spec["modes"]:
            n, l, _ = mode
            deg_u = n + (l + power + 1) // 2  # radial polynomial degree in u
            if n_rad < deg_u + 1:
                raise QuadratureOrderError(
                    f"n_rad={n_rad} cannot integrate radial degree {deg_u}"
                )
            if 2 * n_theta - 1 < l + power or n_phi < l + power + 1:
                raise QuadratureOrderError("sphere quadrature order too low")
            got = _moment_quadrature(mode, power, v, n_rad, n_theta, n_phi)
            want = _moment_closed_form(mode, power, v)
            err = abs(got - want) / max(abs(want), r**power)
            worst = max(worst, err)
    return worst
