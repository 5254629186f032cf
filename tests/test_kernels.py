"""The scatter kernel of the bilinear apply: `CouplingTensor.apply`.

The stencil is held twice: per channel as (tgt, src, drv, mdrv, coef) entry
arrays, and as the summed CSR matrix that `apply` multiplies.  These tests
check that the CSR apply equals a plain scatter over the entries.
"""

import numpy as np

from landau_spectral.basis import SpectralState, mode_table
from landau_spectral.coupling import CHANNELS, _assemble, build_tensor
from landau_spectral.operators import apply_bilinear


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
