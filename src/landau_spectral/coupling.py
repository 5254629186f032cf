"""Angular coupling coefficients of the collision operator.

Everything angular reduces to Gaunt integrals of three spherical harmonics
over the unit sphere.  After the azimuthal integral enforces m1+m2+m3 = 0 the
integrand is a polynomial of degree l1+l2+l3 in cos(theta), so Gauss-Legendre
quadrature evaluates it exactly (to roundoff).  Quadrature avoids translating
between the package's phase-free harmonics and the Condon-Shortley convention
baked into Wigner-3j closed forms; a 3j cross-check lives in the test suite
behind an explicit sign translation layer.

``gaunt`` evaluates one integral with its own rule of order (l1+l2+l3)/2 + 1.
The tensor needs only integrals with one factor of degree 1 or 2 (the
drivers), all exact under one rule of order N + 2, so ``build_tensor``
tabulates the theta-factors once at its nodes and forms every channel as
array expressions over the mode table.  That stencil is the one copy of the
coefficients, and the verification suite checks its entries.

Seven channels feed a target (n, l, m) from a source, through a driver:

    diag     : Maxwellian driver (0,0,0), the target itself
    Am, Ap   : shell-1 drivers (0,1,m1), sources (n-1, l+1) and (n, l-1)
    drift    : radial shell-2 driver (1,0,0), source (n-1, l)
    A1/A2/A3 : angular shell-2 drivers (0,2,m2), sources (n-2, l+2),
               (n-1, l) and (n, l-2)

All coefficients are real; complex arithmetic enters only through state
amplitudes.
"""

import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .basis import Mode, mode_table
from .errors import CapacityError, TensorCacheError
from .specfun import gauss_legendre, normalized_plm, normalized_plm_table

MAX_SHELL = 64

CHANNELS = ("diag", "Am", "Ap", "drift", "A1", "A2", "A3")

_SQRT_PI_3 = math.sqrt(math.pi / 3.0)
_SQRT_PI_15 = math.sqrt(math.pi / 15.0)


def _selection_ok(l1, m1, l2, m2, l3, m3) -> bool:
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return False
    if m1 + m2 + m3 != 0:
        return False
    if (l1 + l2 + l3) % 2 != 0:
        return False
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return False
    return True


@lru_cache(maxsize=200_000)
def _gaunt_theta(l1, m1, l2, m2, l3, m3) -> float:
    rule = gauss_legendre((l1 + l2 + l3) // 2 + 1)
    vals = (
        normalized_plm(l1, m1, rule.nodes)
        * normalized_plm(l2, m2, rule.nodes)
        * normalized_plm(l3, m3, rule.nodes)
    )
    return 2.0 * math.pi * float(np.dot(rule.weights, vals))


def gaunt(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Integral of Y_{l1}^{m1} Y_{l2}^{m2} Y_{l3}^{m3} over the sphere.

    Returns an analytic zero whenever a selection rule fails
    (m-sum nonzero, odd l-sum, or triangle violation).
    """
    for l, m in ((l1, m1), (l2, m2), (l3, m3)):
        if l < 0:
            return 0.0
        if abs(m) > l:
            raise ValueError(f"gaunt index |m|={abs(m)} exceeds l={l}")
    if not _selection_ok(l1, m1, l2, m2, l3, m3):
        return 0.0
    # symmetric under pair permutations: canonicalize for the cache
    (a, p), (b, q), (c, r) = sorted(((l1, m1), (l2, m2), (l3, m3)))
    return _gaunt_theta(a, abs(p), b, abs(q), c, abs(r))


def sum_sq_closed_form(channel: str, n: int, l: int) -> float:
    """Closed forms the channel sums collapse to via Legendre products.

    A1 and A3 are exact identities; the A2 expression is the same
    Legendre-product reduction (its status as an equality rather than an
    upper bound is confirmed numerically by the verification suite).
    """
    if channel == "A1":
        if n < 2:
            return 0.0
        return 8.0 * n * (n - 1) * (l + 2) * (l + 1) / ((2 * l + 3) * (2 * l + 1))
    if channel == "A2":
        if n < 1 or l < 1:
            return 0.0
        return 8.0 * n * (2 * n + 2 * l + 1) * l * (l + 1) / (3.0 * (2 * l + 3) * (2 * l - 1))
    if channel == "A3":
        if l < 2:
            return 0.0
        return 2.0 * (2 * n + 2 * l + 1) * (2 * n + 2 * l - 1) * l * (l - 1) / ((2 * l + 1) * (2 * l - 1))
    raise ValueError(f"unknown channel {channel!r}")


def sum_sq_bound(channel: str, n: int, l: int) -> float:
    """Rotation-invariant upper bounds on the channel sums."""
    if channel == "A1":
        return 16.0 * n * (n - 1) / 3.0
    if channel == "A2":
        return 4.0 * n * (2 * n + 2 * l + 1) / 3.0
    if channel == "A3":
        return (2.0 * n + 2 * l + 1) * (2 * n + 2 * l - 1) / 2.0
    raise ValueError(f"unknown channel {channel!r}")


@dataclass(frozen=True)
class CouplingTensor:
    """Precomputed coupling stencil for all targets with shell <= N.

    ``channels`` maps each channel name to (tgt, src, drv, mdrv, coef)
    arrays of flat mode indices (into ``mode_table(N)``), the driver's
    azimuthal index, and the real coefficient.  Only the shell <= 2 modes
    ever act as drivers, so L(f, g) = sum_d f_d M_d g.  The stencil holds the
    blocks M_d as padded rows grouped by driver: row r adds
    f[drivers[r]] * coef[r, t] * g[src[r, t]] to target t; ``coef`` is
    complex128 with zero imaginary part.  A row holds at
    most one entry per target, so a repeated (driver, target) pair takes the
    next row of its driver.  A target without an entry in a row reads its
    own amplitude with coef 0, so padding carries no non-finite amplitude
    to another mode.

    ``reach`` restricts the rows to the modes a datum reaches; there the
    indices are positions in that set, and with ``pivot`` set the rows are
    folded: every coefficient carries its driver's ratio to the driver at
    position ``pivot``, and row r adds f[pivot] * coef[r, t] * g[src[r, t]].
    ``channels`` and ``len`` always describe the full stencil, and
    ``entries`` reads real coefficients, so it describes unfolded rows only.
    """

    N: int
    channels: dict
    drivers: np.ndarray = field(repr=False)
    src: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)
    pivot: int | None = None

    def __len__(self) -> int:
        return sum(len(coef) for *_, coef in self.channels.values())

    def apply(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Coefficient vector of the bilinear image L(f, g) of complex vectors."""
        # elementwise products and a sum over rows: a BLAS product such as
        # `f[drivers] @ rows` goes to a threaded call, which slows down
        # several-fold on a busy host
        rows = g.take(self.src)
        rows *= self.coef
        if self.pivot is None:
            rows *= f[self.drivers, None]
            return rows.sum(axis=0)
        out = rows.sum(axis=0)
        out *= f[self.pivot]
        return out

    def entries(self) -> tuple:
        """(driver, target, source, coef) arrays of the entries the rows hold, by row."""
        r, t = np.nonzero(self.coef)  # padding has coef 0, entries never do
        return self.drivers[r], t, self.src[r, t], self.coef[r, t].real

    def reach(self, f: np.ndarray) -> tuple:
        """(modes, rows): the flat indices of the modes a trajectory from the
        datum f can reach, ascending, and the stencil rows over them.

        ``modes`` is the least set that holds the support of f and the target
        of every entry whose driver and source it holds; every other mode
        stays exactly 0 along the trajectory.  ``rows`` keeps the rows whose
        driver is reached, with each entry from an unreached source made
        padding, and acts on vectors over ``modes``.

        Without null-space amplitude in f, L vanishes on shells <= 2, so only
        the shell-2 drivers act, and along the run they stay f_d(0) times one
        common decay factor.  The rows are then folded onto the reached driver
        p of largest |f_p(0)|: the coefficients carry f_d(0) / f_p(0), which
        is at most 1 in modulus, and the apply scales one row sum by the
        amplitude at p.
        """
        table = mode_table(self.N)
        reached = f != 0
        starts = np.searchsorted(table.shell, np.arange(self.N + 2)).tolist()
        # padding reads its own target and adds nothing.  Sources lie below
        # their target's shell (diag reads the target itself), so a sweep in
        # shell order settles every mode; it repeats while the drivers grow.
        grown = True
        while grown:
            count = np.count_nonzero(reached)
            live = np.flatnonzero(reached[self.drivers])
            for lo, hi in zip(starts[:-1], starts[1:]):
                reached[lo:hi] |= reached[self.src[live, lo:hi]].any(axis=0)
            grown = np.count_nonzero(reached) > count
        modes = np.flatnonzero(reached)
        position = np.cumsum(reached) - 1
        drivers = self.drivers[live]
        pivot, scale = None, np.ones(len(live))
        if len(live) and not np.any(f[table.null_indices]):
            p = drivers[np.argmax(np.abs(f[drivers]))]
            pivot, scale = int(position[p]), f[drivers] / f[p]
        src = np.empty((len(live), len(modes)), dtype=np.int64)
        coef = np.empty(src.shape, dtype=np.complex128)
        own = np.arange(len(modes))
        # row by row, so that no temporary as large as the rows is made; an
        # entry from an unreached source adds 0, so it becomes padding
        for row, row_src, row_coef, ratio in zip(live, src, coef, scale):
            np.take(self.src[row], modes, out=row_src)
            np.take(self.coef[row], modes, out=row_coef)
            outside = ~reached[row_src]
            row_coef[outside] = 0.0
            row_coef *= ratio
            row_src[:] = np.where(outside, own, position[row_src])
        drivers = position[drivers]
        for arr in (drivers, src, coef):
            arr.flags.writeable = False
        return modes, replace(self, drivers=drivers, src=src, coef=coef, pivot=pivot)


# Ladder channels: target (n, l, m) <- source (n - dn, l + dl, m - md) through
# driver (0, d, md), with coefficient radial(n, l) * gaunt(d, md, l + dl, m - md, l, -m).
_LADDERS = (
    ("Am", 1, 1, 1, lambda n, l: 4.0 * _SQRT_PI_3 * l * np.sqrt(2.0 * n)),
    ("Ap", 1, 0, -1, lambda n, l: 4.0 * _SQRT_PI_3 * (l + 1) * np.sqrt(2.0 * n + 2.0 * l + 1.0)),
    ("A1", 2, 2, 2, lambda n, l: -4.0 * _SQRT_PI_15 * np.sqrt(4.0 * n * (n - 1))),
    ("A2", 2, 1, 0, lambda n, l: 4.0 * _SQRT_PI_15 * np.sqrt(2.0 * n * (2.0 * n + 2.0 * l + 1.0))),
    ("A3", 2, 0, -2, lambda n, l: -4.0 * _SQRT_PI_15 * np.sqrt((2 * n + 2 * l + 1.0) * (2 * n + 2 * l - 1.0))),
)


def _gaunt_factors(theta: np.ndarray, weights: np.ndarray, d: int, dl: int) -> np.ndarray:
    """gaunt(d, md, l + dl, m - md, l, -m) for every l <= N, |m| <= l, |md| <= d.

    Row l*(l+1) + m, column md + d.  ``theta`` is ``normalized_plm_table(N, .)``
    at the nodes of a Gauss-Legendre rule exact to degree 2N + 2, which covers
    every integrand with d <= 2.  Entries that a selection rule (source order or
    degree out of range, triangle) sets to zero are exactly zero.
    """
    N = theta.shape[0] - 1
    l = np.repeat(np.arange(N + 1), 2 * np.arange(N + 1) + 1)[:, None]
    m = np.arange(len(l))[:, None] - l * (l + 1)
    md = np.arange(-d, d + 1)
    ls = l + dl
    ms = np.abs(m - md)
    ok = (ls >= 0) & (ls <= N) & (ms <= ls) & (d <= l + ls)
    prod = theta[np.where(ok, ls, 0), np.where(ok, ms, 0)] * theta[d, np.abs(md)]
    prod *= theta[l, np.abs(m)]
    return np.where(ok, 2.0 * math.pi * (prod @ weights), 0.0)


def _tensor_columns(N: int) -> dict:
    """Per-channel (tgt, src, drv, mdrv, coef) arrays, by target then driver order."""
    table = mode_table(N)
    n, l, m = table.n, table.l, table.m
    first = m == -l
    start = np.zeros((N // 2 + 1, N + 1), dtype=np.int64)
    start[n[first], l[first]] = np.flatnonzero(first)

    def flat(nn, ll, mm):
        return start[nn, ll] + ll + mm

    t = np.flatnonzero(n + l > 0)  # the diagonal vanishes only on (0, 0, 0)
    diag = -(2.0 * (2 * n[t] + l[t]) + l[t] * (l[t] + 1))
    columns = {"diag": (t, t, np.full_like(t, flat(0, 0, 0)), np.zeros_like(t), diag)}
    t = np.flatnonzero(n >= 1)
    drift = 4.0 * np.sqrt(3.0 * n[t] * (2.0 * n[t] + 2.0 * l[t] + 1.0)) / 3.0
    src = flat(n[t] - 1, l[t], m[t])
    columns["drift"] = (t, src, np.full_like(t, flat(1, 0, 0)), np.zeros_like(t), drift)
    # one rule exact for every integrand here, evaluated once
    rule = gauss_legendre(N + 2)
    theta = normalized_plm_table(N, rule.nodes)
    lm = l * (l + 1) + m
    for name, d, dn, dl, radial in _LADDERS:
        gaunts = _gaunt_factors(theta, rule.weights, d, dl)[lm]
        t, j = np.nonzero((n >= dn)[:, None] & (gaunts != 0.0))
        coef = radial(n[t], l[t]) * gaunts[t, j]
        keep = coef != 0.0  # Am vanishes on l = 0
        t, md, coef = t[keep], j[keep] - d, coef[keep]
        columns[name] = (t, flat(n[t] - dn, l[t] + dl, m[t] - md), flat(0, d, md), md, coef)
    return columns


_COLUMN_DTYPES = (np.int64, np.int64, np.int64, np.int64, np.float64)


def _assemble(N: int, columns: dict) -> CouplingTensor:
    """Tensor from per-channel (tgt, src, drv, mdrv, coef) column arrays."""
    channels = {}
    for name in CHANNELS:
        arrays = tuple(
            np.asarray(col, dtype=dtype)
            for col, dtype in zip(columns[name], _COLUMN_DTYPES, strict=True)
        )
        for arr in arrays:
            arr.flags.writeable = False
        channels[name] = arrays
    tgt, src, drv, _mdrv, coef = (np.concatenate(arrs) for arrs in zip(*channels.values()))
    n = len(mode_table(N))
    count = np.bincount(drv)
    drivers = np.flatnonzero(count)
    slot = (np.cumsum(count > 0) - 1)[drv]
    # An entry's row within its driver is the number of earlier entries of its
    # (driver, target) pair.  Keys are unique within a strictly increasing run
    # (a channel, as built), so one gather and one increment count each run.
    key = tgt * len(drivers) + slot
    seen = np.zeros(n * len(drivers), dtype=np.int64)
    rank = np.empty_like(key)
    cuts = (np.flatnonzero(key[1:] <= key[:-1]) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(key)]):
        rank[lo:hi] = seen[key[lo:hi]]
        seen[key[lo:hi]] += 1
    depth = seen.reshape(n, len(drivers)).max(axis=0, initial=0)
    at = ((np.cumsum(depth) - depth)[slot] + rank) * n + tgt
    rows = np.tile(np.arange(n), (int(depth.sum()), 1))
    np.put(rows, at, src)
    # complex, so that the apply multiplies complex rows without a cast per
    # call; the entries go into the real parts, the even slots of a float view
    coefs = np.zeros(rows.shape, dtype=np.complex128)
    at *= 2
    np.put(coefs.view(np.float64), at, coef)
    drivers = np.repeat(drivers, depth)
    for arr in (drivers, rows, coefs):
        arr.flags.writeable = False
    return CouplingTensor(N=N, channels=channels, drivers=drivers, src=rows, coef=coefs)


@lru_cache(maxsize=8)
def build_tensor(N: int) -> CouplingTensor:
    """Materialize the full coupling stencil for truncation N.

    Covers every target with shell <= N; entries on targets at shell <= 2
    only fire when an input carries null-space amplitude, so the reduced
    solver never sees them, but the full bilinear operator needs them.
    """
    if N < 2:
        raise ValueError(f"truncation must be >= 2, got {N}")
    if N > MAX_SHELL:
        raise CapacityError(f"truncation {N} exceeds maximum shell {MAX_SHELL}")
    return _assemble(N, _tensor_columns(N))


def save_tensor(tensor: CouplingTensor, path) -> None:
    """Write the tensor cache file.

    Format: header ``landau-coupling v1 N=<N>``, one
    ``channel,tn,tl,tm,sn,sl,sm,m2,coef`` row per entry (17 significant
    digits), and a trailing ``checksum=<sha256>`` line over everything above.
    """
    table = mode_table(tensor.N)
    lines = [f"landau-coupling v1 N={tensor.N}"]
    for name in CHANNELS:
        tgt, src, _drv, mdrv, coef = tensor.channels[name]
        for i in range(len(coef)):
            t = table.modes[int(tgt[i])]
            s = table.modes[int(src[i])]
            lines.append(
                f"{name},{t.n},{t.l},{t.m},{s.n},{s.l},{s.m},"
                f"{int(mdrv[i])},{format(float(coef[i]), '.17g')}"
            )
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w") as fh:
        fh.write(body)
        fh.write(f"checksum={digest}\n")


_DRIVER_MODE = {
    "diag": lambda m: Mode(0, 0, 0),
    "drift": lambda m: Mode(1, 0, 0),
    "Am": lambda m: Mode(0, 1, m),
    "Ap": lambda m: Mode(0, 1, m),
    "A1": lambda m: Mode(0, 2, m),
    "A2": lambda m: Mode(0, 2, m),
    "A3": lambda m: Mode(0, 2, m),
}


def load_tensor(path, expected_N: int | None = None) -> CouplingTensor:
    """Read a tensor cache file, validating checksum and truncation."""
    with open(path) as fh:
        raw = fh.read()
    lines = raw.splitlines()
    if len(lines) < 2 or not lines[0].startswith("landau-coupling v1 N="):
        raise TensorCacheError(f"{path}: bad header")
    if not lines[-1].startswith("checksum="):
        raise TensorCacheError(f"{path}: missing checksum line")
    body = "\n".join(lines[:-1]) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    if lines[-1] != f"checksum={digest}":
        raise TensorCacheError(f"{path}: checksum mismatch")
    N = int(lines[0].split("N=")[1])
    if expected_N is not None and N != expected_N:
        raise TensorCacheError(f"{path}: cache holds N={N}, expected N={expected_N}")
    table = mode_table(N)
    idx = table.index
    columns = {name: ([], [], [], [], []) for name in CHANNELS}
    for lineno, line in enumerate(lines[1:-1], start=2):
        parts = line.split(",")
        if len(parts) != 9 or parts[0] not in CHANNELS:
            raise TensorCacheError(f"{path}:{lineno}: bad row {line!r}")
        name = parts[0]
        tn, tl, tm, sn, sl, sm, mdrv = map(int, parts[1:8])
        coef = float(parts[8])
        try:
            ti = idx[Mode(tn, tl, tm)]
            si = idx[Mode(sn, sl, sm)]
            di = idx[_DRIVER_MODE[name](mdrv)]
        except KeyError as exc:
            raise TensorCacheError(f"{path}:{lineno}: mode outside table") from exc
        for col, value in zip(columns[name], (ti, si, di, mdrv, coef)):
            col.append(value)
    return _assemble(N, columns)
