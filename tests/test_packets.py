"""The packet base shared by the scalar and the spinor engine."""
import math

import numpy as np
import pytest

from causal_lab.quantum import (Constants, DiracPacket, WavePacket,
                                born_measure, bump_spinor_packet, collapse,
                                evolve_dirac_1p1, gaussian_packet)
from causal_lab.region import Region

GRID = dict(origin=-16.0, cell_size=0.0625, n=512)
UNITS = Constants(hbar=2.0, c=1.5)


def _spinor():
    # both components carry weight once the bump has moved
    psi = bump_spinor_packet(center=0.0, halfwidth=1.0, mass=0.5,
                             units=UNITS, **GRID)
    return evolve_dirac_1p1(psi, 0.5)


@pytest.mark.parametrize("outcome", ["+", "-"])
def test_collapse_dirac_keeps_both_components_mass_and_units(outcome):
    psi = _spinor()
    region = Region.interval(-0.5, 0.25)
    out = collapse(psi, region, outcome)
    assert type(out) is DiracPacket
    assert (out.mass, out.units) == (0.5, UNITS)
    assert (out.origin, out.cell_size, out.n) == (-16.0, 0.0625, 512)
    keep = region.contains_points(psi.centers)
    if outcome == "-":
        keep = ~keep
    scale = 1.0 / math.sqrt(float(np.sum(psi.density[keep]) * 0.0625))
    for got, before in zip(out.components, psi.components):
        assert np.any(got != 0)
        assert np.array_equal(got, np.where(keep, before, 0.0) * scale)
    assert out.norm == pytest.approx(1.0, abs=1e-12)


def test_with_components_rebuilds_and_rechecks():
    psi = _spinor()
    swapped = psi.with_components(psi.lower, psi.upper)
    assert type(swapped) is DiracPacket
    assert np.array_equal(swapped.upper, psi.lower)
    assert (swapped.mass, swapped.units) == (psi.mass, psi.units)
    assert not swapped.upper.flags.writeable
    with pytest.raises(ValueError):
        psi.with_components(psi.upper)  # one array for two components
    with pytest.raises(ValueError, match="differ in length"):
        psi.with_components(psi.upper, psi.lower[:256])
    with pytest.raises(ValueError, match="norm"):
        psi.with_components(2 * psi.upper, psi.lower)
    scalar = gaussian_packet(1.0, **GRID)
    with pytest.raises(ValueError, match="power of two"):
        scalar.with_components(scalar.amplitudes[:384])
    assert type(scalar.with_components(-scalar.amplitudes)) is WavePacket


def test_packet_keeps_its_own_copy_of_its_components():
    # neither the caller's array, which stays writeable, nor a view of it
    # taken before the packet was built can write the packet
    amp = np.zeros(16, dtype=complex)
    amp[8] = 1.0
    view = amp[:]
    p = WavePacket(amp, -8.0, 1.0, 1.0)
    density = p.density.copy()
    weights = born_measure(p, 0.0).weights_flat.copy()
    view[8] = 3.0
    amp[7] = 2.0
    assert p.amplitudes[8] == 1.0 and p.amplitudes[7] == 0.0
    assert not p.amplitudes.flags.writeable
    assert np.array_equal(p.density, density)
    assert p.norm == 1.0
    assert np.array_equal(born_measure(p, 0.0).weights_flat, weights)
    upper, lower = np.zeros(16, dtype=complex), np.zeros(16, dtype=complex)
    upper[8] = lower[8] = math.sqrt(0.5)
    s = DiracPacket(upper, lower, -8.0, 1.0, 1.0)
    upper[8] = lower[8] = 0.0
    assert s.upper[8] == s.lower[8] == math.sqrt(0.5)
    assert s.norm == pytest.approx(1.0)
