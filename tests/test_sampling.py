import numpy as np
import pytest

from rlab import sampling, spectral
from rlab.bands import BASE, band_multiplier, band_support
from rlab.spectral import FREQUENCY, Field, l2_norm, make_grid

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



def _dense_packet(g, k, rng, width, axis_bias):
    """localized_packet's draws, in order, into the full-grid construction
    band_multiplier * sum amp * (the n^3 product of gaussian_spectrum's factors),
    not yet normalized."""
    data = np.zeros(g.shape, dtype=np.complex128)
    for _ in range(2):
        direction = rng.standard_normal(3)
        if axis_bias is not None:
            direction = np.eye(3)[axis_bias] + 0.35 * direction
        direction /= np.linalg.norm(direction)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        factors = spectral.gaussian_spectrum(g, width, (0.0, 0.0, 0.0), BASE**k * direction)
        data += amp * spectral._separable(*factors)
    return band_multiplier(g, k) * data


@pytest.mark.parametrize("n, length, k", [(16, 48.0, 1), (32, 64.0, 0), (64, 64.0, 0)])
@pytest.mark.parametrize("axis_bias", [None, 0, 2])
def test_packet_on_the_band_support_is_the_full_grid_packet(n, length, k, axis_bias):
    g = make_grid(n, length)
    support = band_support(g, k)[0]
    for seed in range(2):
        rng, ref_rng = sampling.sample_rng(seed, 3), sampling.sample_rng(seed, 3)
        got = sampling.localized_packet(g, k, rng, width=3.0, axis_bias=axis_bias).data
        dense = _dense_packet(g, k, ref_rng, 3.0, axis_bias)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # the packet is the scatter of packet_on_support's pair, nonzero on the whole support
        on, coeffs = sampling.packet_on_support(g, k, sampling.sample_rng(seed, 3), 3.0, axis_bias)
        assert np.array_equal(on, support) and np.array_equal(coeffs, got.reshape(-1)[support])
        assert np.count_nonzero(got) == support.size
        ref = sampling.normalized(Field(g, FREQUENCY, dense)).data  # summed over the full grid
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
        if n == 16:  # equal values; off the support the dense zeros 0 * x may carry a sign
            # the L2 norm of the dense entries on the support: the same numbers, summed
            # in the support's order
            on_support = dense / np.sqrt(np.sum(np.abs(dense.reshape(-1)[support]) ** 2)
                                         * g.parseval_weight)
            assert np.array_equal(got, on_support)

