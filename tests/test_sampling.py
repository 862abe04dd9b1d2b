import pytest

from rlab import sampling
from rlab.spectral import FREQUENCY, l2_norm

SAMPLERS = {
    "band_flat_field": lambda g: sampling.band_flat_field(g, -3, 3, sampling.sample_rng(1, 0)),
    "localized_packet": lambda g: sampling.localized_packet(g, 1, sampling.sample_rng(1, 0),
                                                            width=3.0),
    "localized_packet-axis": lambda g: sampling.localized_packet(
        g, 1, sampling.sample_rng(1, 0), width=3.0, axis_bias=2),
    "directed_band_kernel": lambda g: sampling.directed_band_kernel(g, 1, 0),
    "dispersive_datum": lambda g: sampling.dispersive_datum(g, 0),
}


@pytest.mark.parametrize("name", SAMPLERS)
def test_every_sampler_returns_its_unit_spectrum(grid16, name):
    f = SAMPLERS[name](grid16)
    assert f.rep == FREQUENCY
    assert abs(l2_norm(f) - 1.0) <= 1e-14

