"""Spectral Galerkin solver for the spatially homogeneous Landau equation
with Maxwellian molecules, in the joint eigenbasis of the harmonic
oscillator and the sphere Laplacian."""

from .basis import (
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
    weighted_norm,
)
from .coupling import (
    CouplingTensor,
    build_tensor,
    gaunt,
    load_tensor,
    save_tensor,
)
from .operators import (
    apply_bilinear,
    fourier_multiplier_oracle,
    moment_integral_oracle,
)
from .solver import (
    ExpPolyTrajectory,
    IntegratorConfig,
    Trajectory,
    check_smallness,
    diagnostics,
    integrate_numeric,
    solve_cascade,
)
from .specfun import QuadratureRule, assoc_legendre, gauss_legendre, laguerre, ln_gamma, ylm

__all__ = [
    "CouplingTensor",
    "ExpPolyTrajectory",
    "IntegratorConfig",
    "Mode",
    "NormSpec",
    "QuadratureRule",
    "SpectralState",
    "Trajectory",
    "apply_bilinear",
    "assoc_legendre",
    "build_tensor",
    "check_smallness",
    "diagnostics",
    "fourier_multiplier_oracle",
    "gauss_legendre",
    "gaunt",
    "integrate_numeric",
    "lambda_eig",
    "laguerre",
    "ln_gamma",
    "load_state_csv",
    "load_tensor",
    "mode_table",
    "moment_integral_oracle",
    "nullspace_norm",
    "phi_eval",
    "project_tilde",
    "psi_hat",
    "s2_norm",
    "save_state_csv",
    "save_tensor",
    "solve_cascade",
    "weighted_norm",
    "ylm",
]

__version__ = "0.1.0"
