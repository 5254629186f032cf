"""Mode indexing, eigenbasis evaluation, projections, and coefficient norms.

A mode is the integer triple (n, l, m): radial degree n >= 0, angular degree
l >= 0, azimuthal order |m| <= l.  The shell index k = 2n + l labels the
harmonic-oscillator level; the oscillator eigenvalue of mode (n, l, m) is
2n + l + 3/2.  Truncated coefficient vectors are stored densely over all
modes with shell <= N, ordered by shell, then n ascending, then m ascending.

The five null-space modes of the linearized collision operator are
(0,0,0), (0,1,-1), (0,1,0), (0,1,1) and (1,0,0); physical fluctuation data
live in their orthogonal complement.
"""

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import StateFileError, WeightOverflowError
from .specfun import laguerre, ylm

NULL_MODES = ((0, 0, 0), (0, 1, -1), (0, 1, 0), (0, 1, 1), (1, 0, 0))

_LOG_MAX = math.log(np.finfo(np.float64).max)


class Mode(NamedTuple):
    n: int
    l: int
    m: int

    @property
    def shell(self) -> int:
        return 2 * self.n + self.l


def validate_mode(n: int, l: int, m: int) -> Mode:
    if n < 0 or l < 0 or abs(m) > l:
        raise ValueError(f"invalid mode (n={n}, l={l}, m={m})")
    return Mode(n, l, m)


class ModeTable:
    """Enumeration of all modes with shell <= N and flat-index lookups."""

    def __init__(self, N: int):
        modes = []
        for k in range(N + 1):
            for n in range(k // 2 + 1):
                l = k - 2 * n
                for m in range(-l, l + 1):
                    modes.append(Mode(n, l, m))
        self.N = N
        self.modes = tuple(modes)
        self.index = {mode: i for i, mode in enumerate(modes)}
        self.n = np.array([mo.n for mo in modes], dtype=np.int64)
        self.l = np.array([mo.l for mo in modes], dtype=np.int64)
        self.m = np.array([mo.m for mo in modes], dtype=np.int64)
        self.shell = 2 * self.n + self.l
        self.hweight = self.shell + 1.5
        self.lam = np.array([lambda_eig(mo.n, mo.l) for mo in modes])
        self.null_indices = np.array(
            [self.index[Mode(*t)] for t in NULL_MODES if 2 * t[0] + t[1] <= N],
            dtype=np.int64,
        )
        self.s2_indices = np.array(
            [self.index[Mode(0, 2, m)] for m in range(-2, 3)] if N >= 2 else [],
            dtype=np.int64,
        )
        for arr in (self.n, self.l, self.m, self.shell, self.hweight, self.lam):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.modes)

    def tilde_mask(self, N: int) -> np.ndarray:
        """Boolean mask of modes with 2 <= shell <= N and n + l >= 2."""
        return (self.shell >= 2) & (self.shell <= N) & (self.n + self.l >= 2)


@lru_cache(maxsize=None)
def mode_table(N: int) -> ModeTable:
    if N < 0:
        raise ValueError(f"truncation must be >= 0, got {N}")
    return ModeTable(N)


def lambda_eig(n: int, l: int) -> float:
    """Eigenvalue of the linearized collision operator on mode (n, l, .).

    Zero on the three null shells, 12 on (0, 2), and 2(2n+l) + l(l+1) for
    every mode above shell 2.
    """
    if (n, l) in ((0, 0), (0, 1), (1, 0)):
        return 0.0
    if (n, l) == (0, 2):
        return 12.0
    return float(2 * (2 * n + l) + l * (l + 1))


def sqrt_mu(v) -> np.ndarray:
    """Square root of the unit Maxwellian, (2 pi)^(-3/4) exp(-|v|^2/4)."""
    v = np.asarray(v, dtype=float)
    r2 = np.sum(v * v, axis=-1)
    return (2.0 * math.pi) ** (-0.75) * np.exp(-r2 / 4.0)


def _angles(vec: np.ndarray):
    """Polar angles of 3-vectors with theta measured from the first axis."""
    r = np.sqrt(np.sum(vec * vec, axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        ct = np.where(r > 0, vec[..., 0] / np.where(r > 0, r, 1.0), 1.0)
    theta = np.arccos(np.clip(ct, -1.0, 1.0))
    phi = np.arctan2(vec[..., 2], vec[..., 1])
    return r, theta, phi


def phi_eval(mode, v):
    """Eigenfunction phi_{n,l,m} at velocity point(s) v (shape (..., 3)).

    phi = (n!/(sqrt(2) Gamma(n+l+3/2)))^(1/2) (r/sqrt(2))^l e^(-r^2/4)
          L_n^(l+1/2)(r^2/2) Y_l^m(v/r).

    Returns 0 at v = 0 when l > 0 (the |v|^l factor dominates the
    direction ambiguity).
    """
    n, l, m = validate_mode(*mode)
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 1
    r, theta, phi = _angles(v)
    coef = math.exp(
        0.5 * (math.lgamma(n + 1) - 0.5 * math.log(2.0) - math.lgamma(n + l + 1.5))
    )
    radial = coef * (r / math.sqrt(2.0)) ** l * np.exp(-r * r / 4.0)
    radial = radial * laguerre(n, l + 0.5, r * r / 2.0)
    val = radial * ylm(l, m, theta, phi)
    if l > 0:
        val = np.where(r > 0, val, 0.0)
    return complex(val) if scalar else val


def psi_hat(mode, xi):
    """Fourier transform of sqrt(mu) phi_{n,l,m} at frequency point(s) xi.

    Equals B_{n,l} |xi|^(2n+l) e^(-|xi|^2/2) Y_l^m(xi/|xi|) with

        B_{n,l} = (-i)^l (2 pi)^(3/4) (sqrt(2) n! Gamma(n+l+3/2) 2^(2n+l))^(-1/2)

    under the convention f_hat(xi) = integral e^(-i v.xi) f(v) dv.
    """
    n, l, m = validate_mode(*mode)
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    r, theta, phi = _angles(xi)
    log_b = 0.75 * math.log(2.0 * math.pi) - 0.5 * (
        0.5 * math.log(2.0)
        + math.lgamma(n + 1)
        + math.lgamma(n + l + 1.5)
        + (2 * n + l) * math.log(2.0)
    )
    b = math.exp(log_b) * (-1j) ** l
    val = b * r ** (2 * n + l) * np.exp(-r * r / 2.0) * ylm(l, m, theta, phi)
    if 2 * n + l > 0:
        val = np.where(r > 0, val, 0.0)
    return complex(val) if scalar else val


@dataclass(frozen=True)
class NormSpec:
    """Weight parameters for the coefficient-space norms.

    alpha is the oscillator-power exponent; c1 >= 0 and t set the Gaussian
    regularity weight exp(2 c1 t (2n+l+3/2)).  With c1 = 0 this is the plain
    weighted (Shubin-type) norm of index alpha.
    """

    alpha: float = 0.0
    c1: float = 0.0
    t: float = 0.0


class SpectralState:
    """Immutable truncated coefficient vector at a given time.

    Coefficients are stored densely over the mode table of the truncation;
    a mode not represented in the table is exactly zero by convention.
    """

    __slots__ = ("truncation", "t", "coeffs", "table")

    def __init__(self, truncation: int, coeffs, t: float = 0.0):
        table = mode_table(truncation)
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (len(table),):
            raise ValueError(
                f"expected {len(table)} coefficients for N={truncation}, "
                f"got shape {coeffs.shape}"
            )
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "t", float(t))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralState is immutable")

    @classmethod
    def zeros(cls, truncation: int, t: float = 0.0) -> "SpectralState":
        return cls(truncation, np.zeros(len(mode_table(truncation))), t)

    @classmethod
    def from_dict(cls, truncation: int, amplitudes: dict, t: float = 0.0):
        table = mode_table(truncation)
        coeffs = np.zeros(len(table), dtype=np.complex128)
        for key, amp in amplitudes.items():
            mo = validate_mode(*key)
            if mo.shell > truncation:
                raise ValueError(f"mode {tuple(mo)} exceeds truncation {truncation}")
            coeffs[table.index[mo]] = amp
        return cls(truncation, coeffs, t)

    def with_coeffs(self, coeffs, t=None) -> "SpectralState":
        return SpectralState(self.truncation, coeffs, self.t if t is None else t)

    def __getitem__(self, key) -> complex:
        mo = validate_mode(*key)
        idx = self.table.index.get(mo)
        return 0.0 + 0.0j if idx is None else complex(self.coeffs[idx])

    def nonzero_items(self):
        for i, mo in enumerate(self.table.modes):
            if self.coeffs[i] != 0:
                yield mo, complex(self.coeffs[i])


def project_tilde(state: SpectralState, N: int) -> SpectralState:
    """Projection onto modes with 2 <= shell <= N and n + l >= 2.

    Removes the five null-space modes along with everything above shell N.
    """
    if N > state.truncation:
        raise ValueError(f"projection level {N} exceeds truncation {state.truncation}")
    mask = state.table.tilde_mask(N)
    return state.with_coeffs(np.where(mask, state.coeffs, 0.0))


def weighted_norm(state: SpectralState, spec: NormSpec) -> float:
    """sqrt( sum exp(2 c1 t (2n+l+3/2)) (2n+l+3/2)^alpha |g_{n,l,m}|^2 ).

    Weights are assembled in log space; if a weight on a populated shell
    leaves the double range the offending shell is reported instead of
    returning inf.  Accumulation uses exact float summation.
    """
    table = state.table
    mags = np.abs(state.coeffs)
    live = mags > 0.0
    if not np.any(live):
        return 0.0
    w_log = 2.0 * spec.c1 * spec.t * table.hweight + spec.alpha * np.log(table.hweight)
    bad = live & (w_log > _LOG_MAX)
    if np.any(bad):
        i = int(np.argmax(np.where(bad, w_log, -np.inf)))
        raise WeightOverflowError(int(table.shell[i]), float(w_log[i]))
    terms = np.exp(w_log[live]) * mags[live] ** 2
    return math.sqrt(math.fsum(terms.tolist()))


def s2_norm(state: SpectralState) -> float:
    """l2 norm of the five shell-2 angular amplitudes g_{0,2,m}."""
    idx = state.table.s2_indices
    if idx.size == 0:
        return 0.0
    return float(np.linalg.norm(state.coeffs[idx]))


def nullspace_norm(state: SpectralState) -> float:
    """l2 norm of the amplitudes on the five collision-invariant modes."""
    idx = state.table.null_indices
    if idx.size == 0:
        return 0.0
    return float(np.linalg.norm(state.coeffs[idx]))


def save_state_csv(state: SpectralState, path) -> None:
    """Write the nonzero coefficients as `n,l,m,re,im` rows.

    Values carry 17 significant digits so a write/read round trip is
    bit-exact.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "l", "m", "re", "im"])
        for mo, amp in state.nonzero_items():
            writer.writerow(
                [mo.n, mo.l, mo.m, format(amp.real, ".17g"), format(amp.imag, ".17g")]
            )


def load_state_csv(path, truncation: int | None = None, t: float = 0.0) -> SpectralState:
    """Read a coefficient CSV written by :func:`save_state_csv`.

    Rows violating |m| <= l, or exceeding the requested truncation, abort
    with the offending line numbers.  When no truncation is given the
    smallest table holding every row (at least 2) is used.
    """
    rows = []
    bad = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["n", "l", "m", "re", "im"]:
            raise StateFileError(f"{path}: expected header 'n,l,m,re,im'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                n, l, m = int(row[0]), int(row[1]), int(row[2])
                re, im = float(row[3]), float(row[4])
            except (ValueError, IndexError) as exc:
                raise StateFileError(f"{path}:{lineno}: unparseable row {row!r}") from exc
            if n < 0 or l < 0 or abs(m) > l:
                bad.append((lineno, (n, l, m), "|m| <= l and n,l >= 0 required"))
                continue
            if truncation is not None and 2 * n + l > truncation:
                bad.append((lineno, (n, l, m), f"shell {2*n+l} exceeds N={truncation}"))
                continue
            rows.append(((n, l, m), complex(re, im)))
    if bad:
        detail = "; ".join(f"line {ln}: mode {mo} ({why})" for ln, mo, why in bad)
        raise StateFileError(f"{path}: invalid rows: {detail}")
    if truncation is None:
        truncation = max((2 * n + l for (n, l, _), _ in rows), default=2)
        truncation = max(truncation, 2)
    return SpectralState.from_dict(truncation, dict(rows), t)
