"""Time evolution of the truncated coefficient system.

Two routes:

* ``solve_cascade`` integrates the reduced shell-cascade system exactly.
  The shell-2 angular amplitudes decay as e^(-12 t) and every higher shell
  k > 2 solves a linear ODE forced by shell k-2, so each mode's solution is
  a finite sum of terms coef * t^degree * e^(-rate t) obtained by variation
  of constants.  Every rate is an integer (an eigenvalue plus 12 per forcing
  step), so resonance is the exact test rate == eigenvalue, where the
  degree is raised.  ``ExpPolyTrajectory`` stores the terms as one flat set
  of arrays and evaluates them at many times with array operations only.

* ``integrate_numeric`` steps the full quadratic system with ETDRK4
  (Cox & Matthews 2002), which treats the stiff diagonal exactly and the
  bilinear term explicitly; the phi-function coefficients use the contour
  trick of Kassam & Trefethen (2005).  It needs no null-space-free datum,
  and the cascade is its exact reference where both apply.

Both routes produce their samples as read-only row blocks of about
BLOCK_ELEMENTS coefficients, each a ``Trajectory`` (sample times and a
(samples x modes) coefficient block).  ``trajectory_blocks`` hands those
blocks out one at a time, so a run holds one block whatever its length;
``integrate_numeric`` and ``ExpPolyTrajectory.sample`` gather them into one
``Trajectory``.  ``DiagnosticsReducer`` reduces blocks in time order to
per-sample norms, and ``diagnostics`` applies it to a whole ``Trajectory``.
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
from .errors import BlowupError, DimensionMismatchError, NullSpaceError, WeightOverflowError

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
        if self.method not in ("cascade", "etd-rk4"):
            raise ValueError(f"unknown method {self.method!r}; use 'cascade' or 'etd-rk4'")
        if not (self.dt > 0 and self.t_final > 0):
            raise ValueError("dt and t_final must be positive")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        if not (0.0 <= self.c1 < C1_MAX):
            raise ValueError(f"c1 must lie in [0, 16/11), got {self.c1}")
        if self.alpha > 0:
            raise ValueError(f"alpha must be <= 0, got {self.alpha}")

    @property
    def times(self) -> np.ndarray:
        """Sample times of a run: every multiple of dt up to t_final."""
        return np.arange(int(math.floor(self.t_final / self.dt + 1e-9)) + 1) * self.dt


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


def _merge_by_key(mode, rate, degree, coef):
    """Terms summed over equal integer (mode, rate, degree) keys, sorted by key,
    with zero sums dropped."""
    mode, rate, degree = (np.asarray(a, dtype=np.int64) for a in (mode, rate, degree))
    coef = np.asarray(coef, dtype=np.complex128)
    n_rate = int(rate.max(initial=0)) + 1
    n_degree = int(degree.max(initial=0)) + 1
    keys, inverse = np.unique((mode * n_rate + rate) * n_degree + degree, return_inverse=True)
    summed = np.bincount(inverse, coef.real, len(keys)) + 1j * np.bincount(
        inverse, coef.imag, len(keys)
    )
    member = np.empty(len(keys), dtype=np.int64)  # one term carrying each key
    member[inverse] = np.arange(len(inverse))
    member = member[summed != 0]
    return mode[member], rate[member], degree[member], summed[summed != 0]


class ExpPolyTrajectory:
    """Exact per-mode solution: a sum of coef * t^degree * e^(-rate t) terms.

    The terms live in one flat store of parallel read-only arrays ``mode``
    (flat index), ``rate`` (int64), ``degree`` and ``coef`` (complex128),
    sorted by mode, then rate, then degree, with one term per
    (mode, rate, degree) key and no zero coefficient.  Evaluation tabulates
    t^degree e^(-rate t) once per distinct (rate, degree) and sums the
    weighted terms of each mode.
    """

    def __init__(self, truncation: int, mode, rate, degree, coef):
        self.truncation = truncation
        arrays = _merge_by_key(mode, rate, degree, coef)
        for arr in arrays:
            arr.flags.writeable = False
        self.mode, self.rate, self.degree, self.coef = arrays
        n_degree = int(self.degree.max(initial=0)) + 1
        basis, self._column = np.unique(self.rate * n_degree + self.degree, return_inverse=True)
        member = np.empty(len(basis), dtype=np.int64)  # one term carrying each (rate, degree)
        member[self._column] = np.arange(len(self._column))
        self._basis_rate, self._basis_degree = self.rate[member], self.degree[member]
        self._bounds = np.searchsorted(self.mode, np.arange(len(mode_table(truncation)) + 1))
        self._present = np.flatnonzero(np.diff(self._bounds))

    def _eval_block(self, times: np.ndarray) -> np.ndarray:
        t = times[:, None]
        basis = t**self._basis_degree * np.exp(-self._basis_rate * t)
        out = np.zeros((len(times), len(self._bounds) - 1), dtype=np.complex128)
        if self._present.size:
            terms = basis[:, self._column] * self.coef
            out[:, self._present] = np.add.reduceat(terms, self._bounds[self._present], axis=1)
        return out

    def eval_coeffs(self, t: float) -> np.ndarray:
        return self._eval_block(np.array([float(t)]))[0]

    def state(self, t: float) -> SpectralState:
        return SpectralState(self.truncation, self.eval_coeffs(t), t=t)

    def sample(self, times) -> Trajectory:
        """Coefficients at ``times``."""
        times = np.asarray(times, dtype=float)
        coeffs = np.empty((len(times), len(self._bounds) - 1), dtype=np.complex128)
        for _ in self._blocks(times, out=coeffs):
            pass
        return Trajectory(self.truncation, times, coeffs)

    def _blocks(self, times: np.ndarray, out=None):
        """Row blocks (``Trajectory``) at ``times``, whose (rows x terms)
        temporaries hold about BLOCK_ELEMENTS values.  Each block is a fresh
        array, or with ``out`` (samples x modes) a view of its rows."""
        rows = max(1, BLOCK_ELEMENTS // max(len(self.coef), len(self._bounds) - 1))
        for lo in range(0, len(times), rows):
            block = self._eval_block(times[lo : lo + rows])
            if out is not None:
                out[lo : lo + rows] = block
                block = out[lo : lo + rows]
            yield Trajectory(self.truncation, times[lo : lo + rows], block)

    def _pairs(self, i: int) -> tuple:
        """(rate, ascending poly) pairs of flat mode i."""
        lo, hi = self._bounds[i], self._bounds[i + 1]
        rates, starts = np.unique(self.rate[lo:hi], return_index=True)
        pairs = []
        for rate, a, b in zip(rates.tolist(), starts, [*starts[1:], hi - lo]):
            poly = np.zeros(int(self.degree[lo + b - 1]) + 1, dtype=np.complex128)
            poly[self.degree[lo + a : lo + b]] = self.coef[lo + a : lo + b]
            pairs.append((rate, poly))
        return tuple(pairs)

    @property
    def terms(self) -> tuple:
        """Per flat mode index, the tuple of (rate, poly) pairs; degree is len(poly) - 1."""
        return tuple(self._pairs(i) for i in range(len(self._bounds) - 1))

    def mode_terms(self, mode) -> tuple:
        return self._pairs(mode_table(self.truncation).index[Mode(*mode)])


def _shell2_entries(init: SpectralState, tensor: CouplingTensor):
    """(target, source, w) entries of W = sum_m2 g_{0,2,m2} M_(0,2,m2), read from
    the shell-2 driver rows of the stencil and ordered by (driver, target, source);
    a (target, source) pair may repeat."""
    drv, tgt, src, coef = tensor.entries()
    s2 = init.table.s2_indices
    keep = np.isin(drv, s2[init.coeffs[s2] != 0])
    drv, tgt, src, coef = drv[keep], tgt[keep], src[keep], coef[keep]
    order = np.lexsort((src, tgt, drv))
    return tgt[order], src[order], init.coeffs[drv[order]] * coef[order]


def _solve_shell(lam, y0, mode, rate, degree, q):
    """Terms (mode, rate, degree, coef) of y' + lam y = f(t), y(0) = y0, over one shell.

    Modes are local to the shell.  The forcing f is sum q t^degree e^(-rate t)
    over terms sorted by (mode, rate, degree) with unique keys, as
    `_merge_by_key` returns them.  Each (mode, rate) group is one polynomial;
    its particular solution r(t) e^(-rate t) comes from back-substitution
    over the degree index, vectorised over the groups.  A group with
    rate == lam is resonant and raises the degree instead (r' = q, r(0) = 0).
    The homogeneous term c0 e^(-lam t) makes y(0) = y0.
    """
    first = np.ones(len(mode), dtype=bool)
    first[1:] = (mode[1:] != mode[:-1]) | (rate[1:] != rate[:-1])
    group = np.cumsum(first) - 1
    g_mode, g_rate = mode[first], rate[first]
    top = int(degree.max(initial=0))
    Q = np.zeros((len(g_mode), top + 2), dtype=np.complex128)
    Q[group, degree] = q
    R = np.zeros_like(Q)
    s = lam[g_mode] - g_rate
    res = s == 0
    # non-resonant: r_top = q_top / s, r_j = (q_j - (j + 1) r_(j+1)) / s
    for j in range(top, -1, -1):
        R[~res, j] = (Q[~res, j] - (j + 1) * R[~res, j + 1]) / s[~res]
    R[res, 1:] = Q[res, :-1] / np.arange(1, top + 2)
    c0 = np.array(y0, dtype=np.complex128)
    np.subtract.at(c0, g_mode[~res], R[~res, 0])
    # the homogeneous term is the degree-0 coefficient of the resonant group, if any
    R[res, 0] = c0[g_mode[res]]
    alone = c0 != 0
    alone[g_mode[res]] = False
    alone = np.flatnonzero(alone)
    gi, deg = np.nonzero(R)
    return (
        np.concatenate([g_mode[gi], alone]),
        np.concatenate([g_rate[gi], lam[alone]]),
        np.concatenate([deg, np.zeros(len(alone), dtype=np.int64)]),
        np.concatenate([R[gi, deg], c0[alone]]),
    )


def solve_cascade(
    init: SpectralState, tensor: CouplingTensor, null_tol: float = 1e-12
) -> ExpPolyTrajectory:
    """Exact trajectory of the reduced cascade for null-space-free data.

    Every decay rate is an integer: lam(n, l) = 2(2n+l) + l(l+1) on the
    homogeneous part of a mode, plus 12 per forcing step, since the shell-2
    amplitudes decay as e^(-12 t).  Shells are solved in increasing order,
    each vectorised over its modes: the forcing of shell k is W applied to
    the terms of shell k-2 with every rate raised by 12, where
    W = sum_m2 g_{0,2,m2} M_(0,2,m2) is read from the stencil.  Forcing terms
    merge by exact (mode, rate, degree) keys, and resonance is the integer
    test rate == lam.
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
    lam = table.lam.astype(np.int64)  # integer-valued: 2(2n+l) + l(l+1) above shell 2
    starts = np.searchsorted(table.shell, np.arange(table.N + 2))
    tgt, src, w = _shell2_entries(init, tensor)

    # shell 2: the five angular amplitudes decay as e^(-12 t); (1, 0, 0) is null
    s2 = table.s2_indices[init.coeffs[table.s2_indices] != 0]
    shells = {2: _merge_by_key(s2, lam[s2], np.zeros_like(s2), init.coeffs[s2])}
    empty = _merge_by_key(*(np.zeros(0),) * 4)
    for k in range(3, table.N + 1):
        mode, rate, degree, coef = shells.get(k - 2, empty)  # sorted by mode
        lo, hi = starts[k], starts[k + 1]
        into = (tgt >= lo) & (tgt < hi)
        # pair each W entry into shell k with every term of its source mode
        bounds = np.searchsorted(mode, np.arange(len(table) + 1))
        first = bounds[src[into]]
        count = bounds[src[into] + 1] - first
        e = np.repeat(np.flatnonzero(into), count)
        j = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        forcing = _merge_by_key(tgt[e] - lo, rate[j] + 12, degree[j], w[e] * coef[j])
        mode, rate, degree, coef = _solve_shell(lam[lo:hi], init.coeffs[lo:hi], *forcing)
        shells[k] = _merge_by_key(mode + lo, rate, degree, coef)
    return ExpPolyTrajectory(
        init.truncation, *(np.concatenate(col) for col in zip(*shells.values()))
    )


def _etdrk4_coeffs(lam: np.ndarray, dt: float, n_contour: int = 32):
    """Kassam-Trefethen contour evaluation of the ETDRK4 phi-coefficients,
    once per distinct eigenvalue and scattered back over the modes."""
    # the eigenvalues are integers: an integer sort finds the distinct ones
    distinct, inverse = np.unique(lam.astype(np.int64), return_inverse=True)
    z = -distinct * dt
    pts = np.exp(1j * math.pi * (np.arange(n_contour) + 0.5) / n_contour)
    lr = z[:, None] + pts[None, :]
    elr = np.exp(lr)
    f0 = dt * np.real(np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1))
    f1 = dt * np.real(np.mean((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1))
    f2 = dt * np.real(np.mean((2.0 + lr + elr * (lr - 2.0)) / lr**3, axis=1))
    f3 = dt * np.real(np.mean((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3, axis=1))
    return tuple(c[inverse] for c in (np.exp(z), np.exp(z / 2.0), f0, f1, f2, f3))


def _check_finite(rows: np.ndarray, times: np.ndarray, table) -> None:
    """Raise for the earliest non-finite row of consecutive steps, naming its
    time and first non-finite mode.

    A step carries a non-finite amplitude into the next (IEEE arithmetic
    keeps inf and nan non-finite under the products and sums of a step), so
    the rows are all finite when the last one is.
    """
    if len(rows) == 0 or np.all(np.isfinite(rows[-1])):
        return
    bad = ~np.isfinite(rows)
    r = int(np.argmax(bad.any(axis=1)))
    i = int(np.argmax(bad[r]))
    raise BlowupError(
        f"non-finite amplitude at t={times[r]:.6g} on mode {tuple(table.modes[i])}"
    )


def _numeric_blocks(
    init: SpectralState, tensor: CouplingTensor, cfg: IntegratorConfig, out=None
):
    """Row blocks (``Trajectory``) of about BLOCK_ELEMENTS coefficients of the
    stepped system at ``cfg.times``, the first starting with the datum at t = 0.

    Each block is a fresh array, or with ``out`` (samples x modes) a view of
    its rows, and each step writes straight into its row.  The finite check
    runs once per block and names the first non-finite step; the steps after
    it in the same block only carry the non-finite values along.
    """
    if init.truncation != tensor.N:
        raise DimensionMismatchError(
            f"state N={init.truncation} does not match tensor N={tensor.N}"
        )
    if cfg.method == "cascade":
        raise ValueError("integrate_numeric handles etd-rk4; use solve_cascade")
    table = init.table
    tensor = tensor.live(init.coeffs)
    times = cfg.times
    e_full, e_half, f0, f1, f2, f3 = _etdrk4_coeffs(table.lam, cfg.dt)
    two_f2 = 2.0 * f2

    def step(y, out):
        ey = e_half * y
        n0 = tensor.apply(y, y)
        a = ey + f0 * n0
        n1 = tensor.apply(a, a)
        b = ey + f0 * n1
        n2 = tensor.apply(b, b)
        c = e_half * a + f0 * (2.0 * n2 - n0)
        n3 = tensor.apply(c, c)
        np.multiply(e_full, y, out=out)
        out += f1 * n0
        out += two_f2 * (n1 + n2)
        out += f3 * n3

    rows = max(1, BLOCK_ELEMENTS // len(table))
    y = init.coeffs
    for lo in range(0, len(times), rows):
        block_times = times[lo : lo + rows]
        if out is None:
            block = np.empty((len(block_times), len(table)), dtype=np.complex128)
        else:
            block = out[lo : lo + rows]
        first = 0  # the first stepped row; the datum opens the first block
        if lo == 0:
            block[0] = y
            first = 1
        # overflowing amplitudes produce inf/nan mid-step; the finite check is
        # the reporting path, so silence the intermediate arithmetic warnings
        with np.errstate(invalid="ignore", over="ignore"):
            for r in range(first, len(block)):
                step(y, block[r])
                y = block[r]
        _check_finite(block[first:], block_times[first:], table)
        yield Trajectory(init.truncation, block_times, block)


def integrate_numeric(
    init: SpectralState, tensor: CouplingTensor, cfg: IntegratorConfig
) -> Trajectory:
    """Step the full quadratic system, returning the state at every dt multiple.

    ETDRK4 handles the diagonal exactly and has no step-size restriction
    from the linear part.  It applies only the stencil rows that can act
    along the run (``CouplingTensor.live``), chosen once from the initial datum.
    """
    times = cfg.times
    coeffs = np.empty((len(times), len(init.table)), dtype=np.complex128)
    for _ in _numeric_blocks(init, tensor, cfg, out=coeffs):
        pass
    return Trajectory(init.truncation, times, coeffs)


def trajectory_blocks(init: SpectralState, tensor: CouplingTensor, cfg: IntegratorConfig):
    """The run ``cfg`` describes, sampled at ``cfg.times``, as an iterator of
    read-only row blocks (``Trajectory``) in time order.

    The cascade is solved before this returns; ETDRK4 steps as the blocks
    are drawn, so only one block is held at a time.
    """
    if cfg.method == "cascade":
        return solve_cascade(init, tensor)._blocks(cfg.times)
    return _numeric_blocks(init, tensor, cfg)


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    q_alpha_norm: float
    gs_norm: float
    s2_norm: float
    nullspace_residual: float
    energy_integral: float


class DiagnosticsReducer:
    """The per-sample norms of ``diagnostics``, fed one row block at a time.

    ``add`` takes blocks in time order and keeps five sums per row; ``rows``
    takes the dissipation integral over them at the end.  A populated shell
    whose log-weight leaves the double range raises WeightOverflowError in
    the ``add`` of the block holding the earliest such sample.
    """

    def __init__(self, truncation: int, spec: NormSpec):
        table = mode_table(truncation)
        self._table = table
        self._spec = spec
        self._starts = np.searchsorted(table.shell, np.arange(table.N + 1))
        self._h = table.hweight[self._starts]
        self._log_h = np.log(self._h)
        self._w_q = spec.alpha * self._log_h
        self._times = [np.zeros(0)]
        self._sums = [np.zeros((5, 0))]

    def add(self, block: Trajectory) -> None:
        """Reduce the rows of one block: |g|^2 summed per shell (the mode table
        is ordered by shell, so each shell is one contiguous run of modes),
        then the three norms as sums over shells of those energies times
        exp(2 c1 t h_k + alpha log h_k)."""
        coeffs, starts, log_h, w_q = block.coeffs, self._starts, self._log_h, self._w_q
        # energies past the double range read inf: _check_finite or WeightOverflowError reports them
        with np.errstate(over="ignore"):
            sq = np.square(coeffs.real)
            sq += np.square(coeffs.imag)
        energy = np.add.reduceat(sq, starts, axis=1)
        rate = 2.0 * self._spec.c1 * block.times[:, None] * self._h
        w_g = rate + w_q
        w_e = rate + (self._spec.alpha + 1.0) * log_h
        weights = (w_q, w_g, w_e)
        if max(w_q.max(), w_e.max()) > _LOG_MAX:
            _raise_weight_overflow(coeffs, starts, *weights)
            # every shell beyond the range is empty here: weight it 0, not inf
            weights = [np.where(w > _LOG_MAX, -np.inf, w) for w in weights]
        # per sample: squared q_alpha, gs and (alpha+1) norms; s2 and null-space norms
        sums = np.empty((5, len(block)))
        for j, w in enumerate(weights):
            sums[j] = np.sum(energy * np.exp(w), axis=1)
        sums[3] = np.linalg.norm(coeffs[:, self._table.s2_indices], axis=1)
        sums[4] = np.linalg.norm(coeffs[:, self._table.null_indices], axis=1)
        self._times.append(block.times)
        self._sums.append(sums)

    def rows(self) -> list:
        """One DiagnosticsRow per row added so far."""
        t = np.concatenate(self._times)
        sums = np.concatenate(self._sums, axis=1)
        trapezoids = 0.5 * np.diff(t) * (sums[2, 1:] + sums[2, :-1])
        integral = self._spec.c1 * np.cumsum(np.concatenate(([0.0], trapezoids)))
        columns = (t, np.sqrt(sums[0]), np.sqrt(sums[1]), sums[3], sums[4], integral)
        return [DiagnosticsRow(*row) for row in zip(*(c.tolist() for c in columns))]


def diagnostics(traj: Trajectory, spec: NormSpec) -> list:
    """Per-sample norms along a trajectory.

    Emits the plain weighted norm, the Gaussian-weighted (smoothing) norm
    at the sample time, the shell-2 angular norm, the null-space residual,
    and the running dissipation integral

        c1 * integral_0^t || exp(c1 tau H) g ||^2_{alpha+1} d tau

    summed by the trapezoid rule over the sample grid.  The block is
    reduced one row block at a time by ``DiagnosticsReducer``.  A populated
    shell whose log-weight leaves the double range raises
    WeightOverflowError for the earliest such sample, in the order the
    norms are listed above.
    """
    reducer = DiagnosticsReducer(traj.truncation, spec)
    for rows in traj.row_blocks():
        reducer.add(traj[rows])
    return reducer.rows()


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
