"""The kernel of the bilinear apply: `CouplingTensor.apply` and `live`.

The stencil is held twice: per channel as (tgt, src, drv, mdrv, coef) entry
arrays, and as padded rows grouped by driver, which `apply` reads.  These
tests check that the rows hold exactly the channel entries, that the apply
equals a plain scatter over the entries, and that `live` drops only rows
that stay zero along a run.
"""

import numpy as np
import pytest

from landau_spectral.basis import Mode, SpectralState, mode_table
from landau_spectral.cli import init_example_dirac
from landau_spectral.coupling import CHANNELS, _assemble, build_tensor
from landau_spectral.operators import apply_bilinear
from landau_spectral.solver import IntegratorConfig, integrate_numeric
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


class TestLive:
    def test_tilde_datum_applies_identically(self):
        tensor = build_tensor(16)
        f = random_tilde_state(16, np.random.default_rng(107), s2_scale=0.3).coeffs
        live = tensor.live(f)
        assert set(live.drivers.tolist()) == set(mode_table(16).s2_indices.tolist())
        assert len(live.drivers) < len(tensor.drivers)
        assert len(live) == len(tensor)
        np.testing.assert_array_equal(live.apply(f, f), tensor.apply(f, f))

    def test_null_amplitude_keeps_every_row(self):
        tensor = build_tensor(8)
        f = random_tilde_state(8, np.random.default_rng(5), s2_scale=0.3).coeffs.copy()
        f[mode_table(8).index[Mode(1, 0, 0)]] = 1e-3
        live = tensor.live(f)
        np.testing.assert_array_equal(live.drivers, tensor.drivers)
        np.testing.assert_array_equal(live.coef, tensor.coef)

    def test_zero_drivers_dropped_and_stay_zero(self):
        N = 10
        tensor = build_tensor(N)
        init = random_tilde_state(N, np.random.default_rng(23), s2_scale=0.3)
        s2 = mode_table(N).s2_indices
        zeroed, kept = s2[[1, 3]], s2[[0, 2, 4]]
        coeffs = init.coeffs.copy()
        coeffs[zeroed] = 0.0
        live = tensor.live(coeffs)
        rows = np.isin(tensor.drivers, kept)
        np.testing.assert_array_equal(live.drivers, tensor.drivers[rows])
        np.testing.assert_array_equal(live.src, tensor.src[rows])
        np.testing.assert_array_equal(live.coef, tensor.coef[rows])

        traj = integrate_numeric(
            SpectralState(N, coeffs), tensor, IntegratorConfig(method="etd-rk4", dt=1e-3, t_final=0.2)
        )
        assert np.all(traj.coeffs[:, zeroed] == 0)
        assert np.all(traj.coeffs[:, mode_table(N).null_indices] == 0)
        assert np.all(traj.coeffs[-1, kept] != 0)

    def test_example_dirac_has_no_rows(self):
        tensor = build_tensor(16)
        f = init_example_dirac(16).coeffs
        live = tensor.live(f)
        assert live.src.shape == live.coef.shape == (0, len(f))
        out = live.apply(f, f)
        assert out.dtype == np.complex128 and out.shape == (len(f),)
        assert not out.any()
