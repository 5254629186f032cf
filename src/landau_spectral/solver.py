"""Time evolution of the truncated coefficient system.

Two routes:

* ``solve_cascade`` integrates the reduced shell-cascade system exactly.
  The shell-2 angular amplitudes decay as e^(-12 t) and every higher shell
  k > 2 solves a linear ODE forced by shell k-2, so each mode's solution is
  a finite sum of polynomial-times-exponential terms obtained by variation
  of constants (with degree raising at resonances).

* ``integrate_numeric`` steps the full quadratic system.  The default
  method is ETDRK4 (Cox & Matthews 2002), which treats the stiff diagonal
  exactly and the bilinear term explicitly; the phi-function coefficients
  use the contour trick of Kassam & Trefethen (2005).  Plain RK4 is kept
  for cross-validation at small truncations.

Both routes hand back a ``Trajectory``: the sample times and one read-only
(samples x modes) coefficient block.  ``integrate_numeric`` returns one at
every step and ``ExpPolyTrajectory.sample`` one at the requested times;
``diagnostics`` reduces a ``Trajectory`` to per-sample norms with array
operations over that block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    _LOG_MAX,
    Mode,
    NormSpec,
    SpectralState,
    mode_table,
    nullspace_norm,
    s2_norm,
)
from .coupling import CouplingTensor
from .errors import (
    BlowupError,
    DimensionMismatchError,
    NullSpaceError,
    StepSizeError,
    WeightOverflowError,
)

RATE_MERGE_TOL = 1e-9
RK4_STABILITY = 2.785  # real-axis stability limit of classical RK4

C1_MAX = 16.0 / 11.0
SMALLNESS_DENOM = 4.0 * math.sqrt(3.0) / 3.0 + math.sqrt(2.0)
# Coefficients per row block that a trajectory is processed in: each float
# temporary over a block stays near 256 KiB whatever the truncation.
BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "etd-rk4"
    dt: float = 1e-3
    t_final: float = 1.0
    c1: float = 0.05
    alpha: float = 0.0

    def __post_init__(self):
        if self.method not in ("cascade", "etd-rk4", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.dt > 0 and self.t_final > 0):
            raise ValueError("dt and t_final must be positive")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        if not (0.0 <= self.c1 < C1_MAX):
            raise ValueError(f"c1 must lie in [0, 16/11), got {self.c1}")
        if self.alpha > 0:
            raise ValueError(f"alpha must be <= 0, got {self.alpha}")


class Trajectory:
    """Sampled trajectory: ``times`` and a read-only (samples x modes) block.

    Row i of ``coeffs`` holds the coefficients at ``times[i]`` over the mode
    table of ``truncation``.  As a sequence it yields ``(t, SpectralState)``
    pairs, and a slice is again a ``Trajectory`` viewing the same block.
    The block is not copied: the constructor takes read-only views.
    """

    __slots__ = ("truncation", "times", "coeffs")

    def __init__(self, truncation: int, times, coeffs):
        times = np.asarray(times, dtype=float).view()
        coeffs = np.asarray(coeffs, dtype=np.complex128).view()
        n_modes = len(mode_table(truncation))
        if times.ndim != 1 or coeffs.shape != (times.size, n_modes):
            raise ValueError(
                f"expected a ({times.size}, {n_modes}) coefficient block for times of "
                f"shape {times.shape} at N={truncation}, got shape {coeffs.shape}"
            )
        times.flags.writeable = False
        coeffs.flags.writeable = False
        self.truncation = truncation
        self.times = times
        self.coeffs = coeffs

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trajectory(self.truncation, self.times[index], self.coeffs[index])
        t = float(self.times[index])
        return t, SpectralState(self.truncation, self.coeffs[index], t=t)

    def __iter__(self):
        for i in range(len(self.times)):
            yield self[i]

    def row_blocks(self):
        """Slices of consecutive rows holding about BLOCK_ELEMENTS coefficients each."""
        rows = max(1, BLOCK_ELEMENTS // self.coeffs.shape[1])
        for lo in range(0, len(self.times), rows):
            yield slice(lo, lo + rows)


def _trim(poly: np.ndarray) -> np.ndarray:
    nz = np.nonzero(poly)[0]
    return poly[: nz[-1] + 1] if nz.size else poly[:0]


def _merge_terms(terms):
    """Coalesce (rate, poly) terms whose rates differ by < RATE_MERGE_TOL."""
    merged = []
    for rate, poly in sorted(terms, key=lambda t: t[0]):
        if merged and abs(merged[-1][0] - rate) < RATE_MERGE_TOL:
            prev_rate, prev = merged[-1]
            size = max(len(prev), len(poly))
            acc = np.zeros(size, dtype=np.complex128)
            acc[: len(prev)] += prev
            acc[: len(poly)] += poly
            merged[-1] = (prev_rate, acc)
        else:
            merged.append((rate, poly.astype(np.complex128)))
    return [(rate, _trim(poly)) for rate, poly in merged if _trim(poly).size]


def solve_mode_ode(lam: float, y0: complex, forcing) -> list:
    """Exact solution terms of y' + lam y = sum_j q_j(t) e^(-b_j t), y(0)=y0.

    ``forcing`` is a list of (rate b, ascending poly coefficients q).  Each
    non-resonant term contributes r(t) e^(-b t) with r from polynomial
    back-substitution; a term with b within RATE_MERGE_TOL of lam is treated
    as exactly resonant and raises the degree instead (r' = q, r(0) = 0),
    which trades an O(tol) model error for well-conditioned coefficients.
    """
    terms = []
    p0 = 0.0 + 0.0j
    for b, q in forcing:
        q = np.asarray(q, dtype=np.complex128)
        q = _trim(q)
        if not q.size:
            continue
        s = lam - b
        if abs(s) < RATE_MERGE_TOL:
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


@dataclass(frozen=True)
class ExpPolyTrajectory:
    """Exact per-mode solution as sums of poly(t) * exp(-rate * t) terms."""

    truncation: int
    terms: tuple  # per flat mode index: tuple of (rate, poly) pairs

    def eval_coeffs(self, t: float) -> np.ndarray:
        table = mode_table(self.truncation)
        out = np.zeros(len(table), dtype=np.complex128)
        for i, mode_terms in enumerate(self.terms):
            acc = 0.0 + 0.0j
            for rate, poly in mode_terms:
                acc += _polyval(poly, t) * math.exp(-rate * t)
            out[i] = acc
        return out

    def state(self, t: float) -> SpectralState:
        return SpectralState(self.truncation, self.eval_coeffs(t), t=t)

    def sample(self, times) -> Trajectory:
        times = np.asarray(times, dtype=float)
        coeffs = np.empty((len(times), len(mode_table(self.truncation))), dtype=np.complex128)
        for i, t in enumerate(times.tolist()):
            coeffs[i] = self.eval_coeffs(t)
        return Trajectory(self.truncation, times, coeffs)

    def mode_terms(self, mode) -> tuple:
        table = mode_table(self.truncation)
        return self.terms[table.index[Mode(*mode)]]


def _polyval(poly: np.ndarray, t: float) -> complex:
    acc = 0.0 + 0.0j
    for c in poly[::-1]:
        acc = acc * t + c
    return acc


def solve_cascade(
    init: SpectralState, tensor: CouplingTensor, null_tol: float = 1e-12
) -> ExpPolyTrajectory:
    """Exact trajectory of the reduced cascade for null-space-free data.

    Shells are processed in increasing order; a shell-k mode is forced only
    through shell k-2 (already solved) modulated by the decaying shell-2
    amplitudes, so each linear ODE is solved in closed form.
    """
    if init.truncation != tensor.N:
        raise DimensionMismatchError(
            f"state N={init.truncation} does not match tensor N={tensor.N}"
        )
    resid = nullspace_norm(init)
    if resid > null_tol:
        raise NullSpaceError(
            f"initial datum has null-space amplitude {resid:.3e} > {null_tol:.1e}; "
            "the reduced cascade requires data orthogonal to the collision invariants"
        )
    table = init.table
    g02 = {m2: init[(0, 2, m2)] for m2 in range(-2, 3)}
    cascade = tensor.cascade_by_target()

    terms: list = [() for _ in range(len(table))]
    order = sorted(range(len(table)), key=lambda i: int(table.shell[i]))
    for ti in order:
        k = int(table.shell[ti])
        if k < 2:
            continue
        if k == 2:
            n, l, m = table.modes[ti]
            if l == 2 and init.coeffs[ti] != 0:
                terms[ti] = ((12.0, np.array([init.coeffs[ti]])),)
            continue
        lam = float(table.lam[ti])
        forcing = []
        for src, m2, coef in cascade.get(ti, ()):
            amp = g02.get(m2, 0.0)
            if amp == 0:
                continue
            for rate, poly in terms[src]:
                forcing.append((rate + 12.0, coef * amp * poly))
        solved = solve_mode_ode(lam, complex(init.coeffs[ti]), forcing)
        terms[ti] = tuple(solved)
    return ExpPolyTrajectory(truncation=init.truncation, terms=tuple(terms))


def _etdrk4_coeffs(lam: np.ndarray, dt: float, n_contour: int = 32):
    """Kassam-Trefethen contour evaluation of the ETDRK4 phi-coefficients."""
    z = -lam * dt
    pts = np.exp(1j * math.pi * (np.arange(n_contour) + 0.5) / n_contour)
    lr = z[:, None] + pts[None, :]
    elr = np.exp(lr)
    f0 = dt * np.real(np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1))
    f1 = dt * np.real(np.mean((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1))
    f2 = dt * np.real(np.mean((2.0 + lr + elr * (lr - 2.0)) / lr**3, axis=1))
    f3 = dt * np.real(np.mean((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3, axis=1))
    return np.exp(z), np.exp(z / 2.0), f0, f1, f2, f3


def _check_finite(y: np.ndarray, t: float, table) -> None:
    bad = ~np.isfinite(y)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise BlowupError(f"non-finite amplitude at t={t:.6g} on mode {tuple(table.modes[i])}")


def integrate_numeric(
    init: SpectralState, tensor: CouplingTensor, cfg: IntegratorConfig
) -> Trajectory:
    """Step the full quadratic system, returning the state at every dt multiple.

    etd-rk4 handles the diagonal exactly and has no step-size restriction
    from the linear part; rk4 refuses steps beyond its stability bound.
    """
    if init.truncation != tensor.N:
        raise DimensionMismatchError(
            f"state N={init.truncation} does not match tensor N={tensor.N}"
        )
    if cfg.method == "cascade":
        raise ValueError("integrate_numeric handles rk4/etd-rk4; use solve_cascade")
    table = init.table
    lam = table.lam
    dt = cfg.dt
    n_steps = int(math.floor(cfg.t_final / dt + 1e-9))

    times = np.arange(n_steps + 1) * dt
    coeffs = np.empty((n_steps + 1, len(table)), dtype=np.complex128)
    y = init.coeffs
    coeffs[0] = y

    if cfg.method == "rk4":
        zmax = dt * float(np.max(lam))
        if zmax > RK4_STABILITY:
            raise StepSizeError(
                f"dt*max(lambda) = {zmax:.3g} exceeds the rk4 stability bound "
                f"{RK4_STABILITY}; reduce dt or use etd-rk4"
            )

        def rhs(y):
            return -lam * y + tensor.apply(y, y)

        with np.errstate(invalid="ignore", over="ignore"):
            for step in range(1, n_steps + 1):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * dt * k1)
                k3 = rhs(y + 0.5 * dt * k2)
                k4 = rhs(y + dt * k3)
                y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
                _check_finite(y, step * dt, table)
                coeffs[step] = y
        return Trajectory(init.truncation, times, coeffs)

    e_full, e_half, f0, f1, f2, f3 = _etdrk4_coeffs(lam, dt)
    # overflowing amplitudes produce inf/nan mid-step; the finite check below
    # is the reporting path, so silence the intermediate arithmetic warnings
    with np.errstate(invalid="ignore", over="ignore"):
        for step in range(1, n_steps + 1):
            n0 = tensor.apply(y, y)
            a = e_half * y + f0 * n0
            n1 = tensor.apply(a, a)
            b = e_half * y + f0 * n1
            n2 = tensor.apply(b, b)
            c = e_half * a + f0 * (2.0 * n2 - n0)
            n3 = tensor.apply(c, c)
            y = e_full * y + f1 * n0 + 2.0 * f2 * (n1 + n2) + f3 * n3
            _check_finite(y, step * dt, table)
            coeffs[step] = y
    return Trajectory(init.truncation, times, coeffs)


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    q_alpha_norm: float
    gs_norm: float
    s2_norm: float
    nullspace_residual: float
    energy_integral: float


def diagnostics(traj: Trajectory, spec: NormSpec) -> list:
    """Per-sample norms along a trajectory.

    Emits the plain weighted norm, the Gaussian-weighted (smoothing) norm
    at the sample time, the shell-2 angular norm, the null-space residual,
    and the running dissipation integral

        c1 * integral_0^t || exp(c1 tau H) g ||^2_{alpha+1} d tau

    summed by the trapezoid rule over the sample grid.

    The block is reduced one row block at a time: |g|^2 is summed per
    shell (the mode table is ordered by shell, so each shell is one
    contiguous run of modes), and the three norms are sums over shells of
    those energies times exp(2 c1 t h_k + alpha log h_k).  A populated shell
    whose log-weight leaves the double range raises WeightOverflowError for
    the earliest such sample, in the order the norms are listed above.
    """
    table = mode_table(traj.truncation)
    starts = np.searchsorted(table.shell, np.arange(table.N + 1))
    h = table.hweight[starts]
    log_h = np.log(h)
    w_q = spec.alpha * log_h
    # per sample: squared q_alpha, gs and (alpha+1) norms; s2 and null-space norms
    reduced = np.empty((5, len(traj)))
    for rows in traj.row_blocks():
        block = traj.coeffs[rows]
        sq = np.square(block.real)
        sq += np.square(block.imag)
        energy = np.add.reduceat(sq, starts, axis=1)
        rate = 2.0 * spec.c1 * traj.times[rows, None] * h
        w_g = rate + w_q
        w_e = rate + (spec.alpha + 1.0) * log_h
        weights = (w_q, w_g, w_e)
        if max(w_q.max(), w_e.max()) > _LOG_MAX:
            _raise_weight_overflow(block, starts, *weights)
            # every shell beyond the range is empty here: weight it 0, not inf
            weights = [np.where(w > _LOG_MAX, -np.inf, w) for w in weights]
        for j, w in enumerate(weights):
            reduced[j, rows] = np.sum(energy * np.exp(w), axis=1)
        reduced[3, rows] = np.linalg.norm(block[:, table.s2_indices], axis=1)
        reduced[4, rows] = np.linalg.norm(block[:, table.null_indices], axis=1)

    t = traj.times
    trapezoids = 0.5 * np.diff(t) * (reduced[2, 1:] + reduced[2, :-1])
    integral = spec.c1 * np.cumsum(np.concatenate(([0.0], trapezoids)))
    columns = (t, np.sqrt(reduced[0]), np.sqrt(reduced[1]), reduced[3], reduced[4], integral)
    return [DiagnosticsRow(*row) for row in zip(*(c.tolist() for c in columns))]


def _raise_weight_overflow(block, starts, w_q, w_g, w_e) -> None:
    """Raise for the first row of `block` with a populated shell beyond the
    double range; each row checks its weights in the order of the norms."""
    populated = np.logical_or.reduceat(block != 0, starts, axis=1)
    over = populated & (np.maximum(w_q, w_e) > _LOG_MAX)  # w_g < w_e everywhere
    rows = np.flatnonzero(over.any(axis=1))
    if rows.size == 0:
        return
    r = rows[0]
    for w in (w_q, w_g[r], w_e[r]):
        bad = populated[r] & (w > _LOG_MAX)
        if np.any(bad):
            k = int(np.argmax(np.where(bad, w, -np.inf)))
            raise WeightOverflowError(k, float(w[k]))


@dataclass(frozen=True)
class SmallnessResult:
    passed: bool
    margin: float
    threshold: float
    s2: float


def smallness_threshold(c1: float) -> float:
    """Largest shell-2 norm for which the energy argument closes at rate c1."""
    if not (0.0 <= c1 < C1_MAX / 1.5):
        raise ValueError(f"c1 must lie in [0, 32/33) for the threshold, got {c1}")
    return (C1_MAX - 1.5 * c1) / SMALLNESS_DENOM


def check_smallness(init: SpectralState, c1: float) -> SmallnessResult:
    """Compare the shell-2 norm of the datum against the decay threshold.

    The threshold is sufficient, not necessary, for monotone decay of the
    weighted energy; callers typically warn rather than abort on failure.
    """
    threshold = smallness_threshold(c1)
    s2 = s2_norm(init)
    return SmallnessResult(
        passed=s2 <= threshold, margin=threshold - s2, threshold=threshold, s2=s2
    )
