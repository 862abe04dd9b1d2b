"""Reproducible random field classes used by the estimate harness and tests.

Two classes:

* band-flat fields: iid complex Gaussians per mode, masked to a union of
  frequency bands (flat spectrum inside each band, delocalized in space);
* localized packets: a Gaussian envelope at the origin carrying two
  random in-band carriers, times the band multiplier P_k, for
  measurements that need spatial localization (dispersive decay,
  smoothing transits, X norms), evaluated on P_k's support alone.

Every sampler returns its unit-L2 spectrum, a FREQUENCY field, and makes no
full-grid FFT; a reader of the physical samples takes spectral.as_physical.
packet_on_support returns a localized packet as its values on P_k's support,
for readers that need no n^3 array (the smo1 harness).

Sample streams are derived as default_rng([seed, index]) so that serial
and parallel sample loops see identical data.
"""

from __future__ import annotations

import numpy as np

from . import bands
from .spectral import (FREQUENCY, Field, Grid, coefficient_norm, free_phase, gaussian_spectrum,
                       l2_norm)

DISPERSIVE_ADVANCE = 8.0  # time units the dispersive datum starts into its spreading


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-sample stream, independent of evaluation order."""
    return np.random.default_rng([int(seed), int(index)])


def normalized(f: Field) -> Field:
    """f / ||f||_L2 in f's own representation; a zero field comes back as is."""
    nrm = l2_norm(f)
    return Field(f.grid, f.rep, f.data / nrm) if nrm > 0 else f


def band_flat_field(grid: Grid, k_lo: int, k_hi: int, rng: np.random.Generator) -> Field:
    """Unit-L2 complex Gaussian coefficients on the bands k_lo..k_hi, flat per band
    (the smooth mask sum_{k_lo <= k <= k_hi} P_k, a telescoped lowpass difference)."""
    bands.require_modes(grid, k_lo, k_hi)  # an empty range k_hi < k_lo too
    mask = bands.lowpass_multiplier(grid, k_hi) - bands.lowpass_multiplier(grid, k_lo - 1)
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return normalized(Field(grid, FREQUENCY, mask * z))


def packet_on_support(grid: Grid, k: int, rng: np.random.Generator, width: float,
                      axis_bias: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The unit-L2 band-k wave packet on P_k's support, as (support, coeffs): P_k
    times the spectrum of a Gaussian envelope at the origin carrying two random
    in-band carriers, at the modes support = bands.band_support(grid, k).  Each
    carrier term is the product of spectral.gaussian_spectrum's three per-axis
    factors gathered there, and coeffs are divided by their own L2 norm
    sqrt(sum |c|^2 parseval_weight): no n^3 array is built.

    With axis_bias set, carrier directions are drawn in a cone around that coordinate
    axis (spread 0.35), giving packets whose group velocity points down the axis; the
    smoothing-transit measurements need this, since transverse packets never clear
    their slab within a finite horizon.
    """
    bands.require_modes(grid, k, k)
    support, values = bands.band_support(grid, k)
    i1, i2, i3 = np.unravel_index(support, grid.shape)
    packet = np.zeros(support.size, dtype=np.complex128)
    for _ in range(2):
        direction = rng.standard_normal(3)
        if axis_bias is not None:
            direction = np.eye(3)[axis_bias] + 0.35 * direction
        direction /= np.linalg.norm(direction)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        g1, g2, g3 = gaussian_spectrum(grid, width, (0.0, 0.0, 0.0), bands.BASE**k * direction)
        packet += amp * (g1[i1] * g2[i2] * g3[i3])
    coeffs = values * packet
    return support, coeffs / coefficient_norm(grid, coeffs)


def localized_packet(grid: Grid, k: int, rng: np.random.Generator, width: float,
                     axis_bias: int | None = None) -> Field:
    """packet_on_support's unit-L2 packet scattered into a zeroed spectrum."""
    support, coeffs = packet_on_support(grid, k, rng, width, axis_bias)
    data = np.zeros(grid.shape, dtype=np.complex128)
    np.put(data, support, coeffs)
    return Field(grid, FREQUENCY, data)


def directed_band_kernel(grid: Grid, k: int, axis: int) -> Field:
    """Deterministic unit-L2 band-k datum beamed along one axis.

    fhat = P_k(xi) * exp(-(1 - cos theta)^2 / (2 * 0.35^2)) with theta
    the angle to the axis; its group velocity points down the axis, so it
    crosses transverse slabs in a finite, k-predictable time.  Used by the
    smoothing-gain signature.
    """
    bands.require_modes(grid, k, k)
    r = grid.xi_norm
    cosq = np.where(r > 0, grid.freq_mesh[axis] / np.where(r > 0, r, 1.0), 0.0)
    cap = np.exp(-((1.0 - cosq) ** 2) / (2.0 * 0.35**2))
    data = (bands.band_multiplier(grid, k) * cap).astype(np.complex128)
    return normalized(Field(grid, FREQUENCY, data))


def dispersive_datum(grid: Grid, k: int) -> Field:
    """Localized band-k pulse already DISPERSIVE_ADVANCE time units into its
    free spreading: fhat = P_k(xi) e^{-i DISPERSIVE_ADVANCE |xi|^2}, normalized
    in L2.

    Starting inside the dispersive regime keeps t * ||u(t)||_L6 flat over a
    finite observation window; the band kernel at its focus spends most of
    such a window crossing into the far field.
    """
    bands.require_modes(grid, k, k)
    data = bands.band_multiplier(grid, k) * free_phase(grid, DISPERSIVE_ADVANCE)
    return normalized(Field(grid, FREQUENCY, data))
