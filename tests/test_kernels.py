"""The kernel of the bilinear apply: `CouplingTensor.apply` and `reach`.

The stencil is held twice: per channel as (tgt, src, drv, mdrv, coef) entry
arrays, and as padded rows grouped by driver, which `apply` reads.  These
tests check that the rows hold exactly the channel entries, that the apply
equals a plain scatter over the entries, and that `reach` keeps exactly the
modes and rows that can act along a run, folded onto one driver where the
datum has no null-space amplitude.
"""

import numpy as np
import pytest

from landau_spectral.basis import Mode, SpectralState, mode_table
from landau_spectral.cli import init_example_dirac
from landau_spectral.coupling import CHANNELS, _assemble, build_tensor
from landau_spectral.operators import apply_bilinear
from landau_spectral.solver import IntegratorConfig, _etdrk4_coeffs, integrate_numeric
from landau_spectral.verification import random_tilde_state


def test_backends_agree():
    tensor = build_tensor(8)
    # some target is fed by several entries of one driver, so the sums matter
    pairs = np.concatenate(
        [np.stack([arrays[2], arrays[0]], axis=1) for arrays in tensor.channels.values()]
    )
    assert len(np.unique(pairs, axis=0)) < len(pairs)

    rng = np.random.default_rng(31)
    size = len(mode_table(8))
    f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    want = np.zeros(size, dtype=np.complex128)
    for tgt, src, drv, _mdrv, coef in tensor.channels.values():
        for t, s, d, c in zip(tgt, src, drv, coef):
            want[t] += c * f[d] * g[s]
    got = apply_bilinear(SpectralState(8, f), SpectralState(8, g), tensor)
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-13, atol=1e-13)


def test_repeated_targets_accumulate():
    # entries (tgt, src, drv, mdrv, coef); the last two share (drv, tgt, src)
    rows = [
        (0, 0, 0, 0, 1.0),
        (0, 1, 0, 0, 2.0),
        (1, 1, 0, 0, 3.0),
        (1, 0, 0, 0, 0.5),
        (1, 0, 0, 0, 0.25),
    ]
    columns = {name: ((),) * 5 for name in CHANNELS}
    columns["diag"] = tuple(zip(*rows))
    tensor = _assemble(2, columns)
    n = len(mode_table(2))
    f = np.zeros(n, dtype=np.complex128)
    g = np.zeros(n, dtype=np.complex128)
    f[0] = 1.0
    g[0], g[1] = 2.0, 1.0 + 1j
    out = tensor.apply(f, g)
    assert out[0] == 1.0 * 2.0 + 2.0 * (1 + 1j)
    assert out[1] == 3.0 * (1 + 1j) + (0.5 + 0.25) * 2.0
    assert not out[2:].any()


def summed_by_key(drv, tgt, src, coef):
    keys, inverse = np.unique(np.stack([drv, tgt, src]), axis=1, return_inverse=True)
    return keys, np.bincount(inverse.ravel(), weights=coef)


@pytest.mark.parametrize("N", [8, 16])
def test_rows_hold_the_channel_entries(N):
    tensor = build_tensor(N)
    n = len(mode_table(N))
    assert tensor.src.shape == tensor.coef.shape == (len(tensor.drivers), n)
    assert np.all(np.diff(tensor.drivers) >= 0)  # rows grouped by driver

    tgt, src, drv, _mdrv, coef = (np.concatenate(arrs) for arrs in zip(*tensor.channels.values()))
    assert np.all(coef != 0)
    held = tensor.entries()
    assert len(held[0]) == len(tensor)  # no entry lost or merged into another
    got = summed_by_key(*held)
    want = summed_by_key(drv, tgt, src, coef)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_allclose(got[1], want[1], rtol=1e-15, atol=0)

    padding = tensor.coef == 0
    targets = np.broadcast_to(np.arange(n), tensor.src.shape)
    np.testing.assert_array_equal(tensor.src[padding], targets[padding])


def closure_over_entries(tensor, f):
    """The support of f grown one entry at a time until no (driver, source)
    pair it holds feeds a target outside it."""
    drv, tgt, src, _coef = (a.tolist() for a in tensor.entries())
    reached = set(np.flatnonzero(f).tolist())
    grown = True
    while grown:
        grown = False
        for d, t, s in zip(drv, tgt, src):
            if d in reached and s in reached and t not in reached:
                reached.add(t)
                grown = True
    return sorted(reached)


def unfolded_final_state(init, tensor, cfg):
    """ETDRK4 over the whole mode table with the full tensor: the stepping
    without a reached set or a fold, the oracle for `integrate_numeric`."""
    e_full, e_half, f0, f1, f2, f3 = _etdrk4_coeffs(init.table.lam, cfg.dt)
    y = init.coeffs
    for _ in range(len(cfg.times) - 1):
        n0 = tensor.apply(y, y)
        a = e_half * y + f0 * n0
        n1 = tensor.apply(a, a)
        b = e_half * y + f0 * n1
        n2 = tensor.apply(b, b)
        c = e_half * a + f0 * (2.0 * n2 - n0)
        n3 = tensor.apply(c, c)
        y = e_full * y + f1 * n0 + 2.0 * f2 * (n1 + n2) + f3 * n3
    return y


def reach_data(N):
    table = mode_table(N)
    tilde = random_tilde_state(N, np.random.default_rng(71), s2_scale=0.3).coeffs
    with_null = tilde.copy()
    with_null[table.index[Mode(1, 0, 0)]] = 1e-3
    sparse_null = SpectralState.from_dict(
        N, {(0, 0, 0): 0.5, (0, 1, 1): 0.2, (2, 0, 0): 1.0, (0, 3, -1): 0.3}
    ).coeffs
    return {
        "tilde": tilde,
        "m0": np.where(table.m == 0, tilde, 0.0),
        "example-dirac": init_example_dirac(N).coeffs,
        "null": with_null,
        "sparse-null": sparse_null,
    }


@pytest.mark.parametrize("N", [6, 8])
@pytest.mark.parametrize("name", ["tilde", "m0", "example-dirac", "null", "sparse-null"])
def test_reached_set_is_the_closure_over_entries(N, name):
    tensor = build_tensor(N)
    f = reach_data(N)[name]
    modes, rows = tensor.reach(f)
    np.testing.assert_array_equal(modes, closure_over_entries(tensor, f))
    # the rows hold every entry inside the set whose driver it holds
    drv, tgt, src, coef = tensor.entries()
    inside = np.isin(drv, modes) & np.isin(tgt, modes) & np.isin(src, modes)
    position = {m: i for i, m in enumerate(modes.tolist())}
    local = np.array([position[m] for m in src[inside]], dtype=np.int64)
    held_drv, held_tgt, held_src, held_coef = rows.entries()
    assert len(held_tgt) == np.count_nonzero(inside)
    np.testing.assert_array_equal(np.sort(modes[held_tgt]), np.sort(tgt[inside]))
    np.testing.assert_array_equal(np.sort(held_src), np.sort(local))
    if rows.pivot is None:
        np.testing.assert_array_equal(np.sort(modes[held_drv]), np.sort(drv[inside]))
        np.testing.assert_array_equal(np.sort(held_coef), np.sort(coef[inside]))


class TestLive:
    """The live rows of `CouplingTensor.reach` along ETDRK4 runs."""

    def test_tilde_datum_folds_onto_its_largest_driver(self):
        tensor = build_tensor(16)
        f = random_tilde_state(16, np.random.default_rng(107), s2_scale=0.3).coeffs
        table = mode_table(16)
        modes, rows = tensor.reach(f)
        np.testing.assert_array_equal(modes, np.setdiff1d(np.arange(len(f)), table.null_indices))
        assert set(modes[rows.drivers].tolist()) == set(table.s2_indices.tolist())
        assert modes[rows.pivot] == table.s2_indices[np.argmax(np.abs(f[table.s2_indices]))]
        assert len(rows) == len(tensor)
        got = rows.apply(f[modes], f[modes])
        want = tensor.apply(f, f)
        assert not np.any(np.delete(want, modes))
        assert np.max(np.abs(got - want[modes])) <= 1e-15 * np.max(np.abs(want))

    def test_folded_apply_matches_the_full_tensor_along_a_run(self):
        # the fold reads every driver off the pivot's amplitude; along 200
        # steps its drift from the stepped drivers measured 0.6-1.7e-15 of
        # the largest entry at N = 8-16
        N = 10
        tensor = build_tensor(N)
        init = random_tilde_state(N, np.random.default_rng(61), s2_scale=0.3)
        modes, rows = tensor.reach(init.coeffs)
        assert rows.pivot is not None
        traj = integrate_numeric(init, tensor, IntegratorConfig(dt=1e-3, t_final=0.2))
        assert len(traj) == 201
        for y in traj.coeffs:
            want = tensor.apply(y, y)
            got = rows.apply(y[modes], y[modes])
            assert not np.any(np.delete(want, modes))
            assert np.max(np.abs(got - want[modes])) <= 5e-15 * np.max(np.abs(want))

    def test_widely_spread_drivers_match_the_unfolded_stepping(self):
        # shell-2 amplitudes from 1 to 1e-200: folded onto the largest, every
        # row coefficient shrinks; folded onto the smallest, rows of the 1e120
        # amplitude would overflow
        N = 8
        table = mode_table(N)
        coeffs = random_tilde_state(N, np.random.default_rng(67)).coeffs.copy()
        coeffs[table.shell > 2] *= 1e120
        s2 = table.s2_indices
        coeffs[s2] = [1e-100, 1e-200j, 1.0, -1e-50, 1e-150 + 1e-150j]
        init = SpectralState(N, coeffs)
        modes, rows = build_tensor(N).reach(coeffs)
        assert modes[rows.pivot] == s2[2]
        cfg = IntegratorConfig(dt=1e-3, t_final=0.05)
        got = integrate_numeric(init, build_tensor(N), cfg).coeffs[-1]
        want = unfolded_final_state(init, build_tensor(N), cfg)
        np.testing.assert_array_equal(got[s2], want[s2])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        np.testing.assert_allclose(got[modes], want[modes], rtol=1e-12, atol=0)

    def test_null_amplitude_keeps_every_row(self):
        # with every null amplitude set, the datum reaches every mode, and the
        # rows are the full tensor's, with the per-row driver product
        tensor = build_tensor(8)
        f = random_tilde_state(8, np.random.default_rng(5), s2_scale=0.3).coeffs.copy()
        f[mode_table(8).null_indices] = 1e-3
        modes, rows = tensor.reach(f)
        np.testing.assert_array_equal(modes, np.arange(len(f)))
        assert rows.pivot is None
        np.testing.assert_array_equal(rows.drivers, tensor.drivers)
        np.testing.assert_array_equal(rows.src, tensor.src)
        np.testing.assert_array_equal(rows.coef, tensor.coef)

    def test_zero_drivers_dropped_and_stay_zero(self):
        N = 10
        tensor = build_tensor(N)
        init = random_tilde_state(N, np.random.default_rng(23), s2_scale=0.3)
        table = mode_table(N)
        s2 = table.s2_indices
        zeroed, kept = s2[[1, 3]], s2[[0, 2, 4]]
        coeffs = init.coeffs.copy()
        coeffs[zeroed] = 0.0
        modes, rows = tensor.reach(coeffs)
        assert not np.isin(np.concatenate([zeroed, table.null_indices]), modes).any()
        assert set(modes[rows.drivers].tolist()) == set(kept.tolist())
        assert len(rows.drivers) == np.count_nonzero(np.isin(tensor.drivers, kept))

        traj = integrate_numeric(
            SpectralState(N, coeffs), tensor, IntegratorConfig(method="etd-rk4", dt=1e-3, t_final=0.2)
        )
        assert np.all(traj.coeffs[:, zeroed] == 0)
        assert np.all(traj.coeffs[:, table.null_indices] == 0)
        assert np.all(traj.coeffs[:, np.setdiff1d(np.arange(len(table)), modes)] == 0)
        assert np.all(traj.coeffs[-1, kept] != 0)

    def test_example_dirac_has_no_rows(self):
        tensor = build_tensor(16)
        f = init_example_dirac(16).coeffs
        modes, rows = tensor.reach(f)
        np.testing.assert_array_equal(modes, np.flatnonzero(f))
        assert rows.src.shape == rows.coef.shape == (0, len(modes))
        out = rows.apply(f[modes], f[modes])
        assert out.dtype == np.complex128 and out.shape == (len(modes),)
        assert not out.any()
