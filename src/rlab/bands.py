"""Littlewood-Paley projections at base 1.1.

A band k localizes to the annulus 1.1^k * C with
C = { 1/1.04 <= |xi| <= 1.04 * 1.1 }, built from a radial bump
phi(r) = chi(r/1.1) - chi(r) where chi is a C^2 quintic-smoothstep
lowpass (1 below 1/1.04, 0 above 1.04).  The telescoping identity
sum_j phi(1.1^{-j} r) = 1 then holds exactly for every r > 0, and
bands two or more apart have exactly disjoint supports
(1.04^2 < 1.1).  The multipliers are radial: each is evaluated on the
grid's distinct radii and gathered onto its modes.  A projection is its
multiplier array applied to a spectrum (spectral.apply_multiplier).
band_support is a band's support and its plain values P_k; sums and suprema
over bands read band_table, which keeps them for every band, built once per
grid; line_batches lays each support out on the lines it touches along each
axis, for spectral.line_moments.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .spectral import LINE_BATCH_MAX_ENTRIES, Grid

BASE = 1.1
INNER_EDGE = 1.0 / 1.04
OUTER_EDGE = 1.04 * 1.1


def _smoothstep(s: np.ndarray) -> np.ndarray:
    # quintic 6s^5 - 15s^4 + 10s^3: C^2, exactly 0/1 outside (0, 1)
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (6.0 * s - 15.0))


def chi(r) -> np.ndarray:
    """Cumulative C^2 lowpass: 1 below 1/1.04, 0 above 1.04."""
    r = np.asarray(r, dtype=np.float64)
    return 1.0 - _smoothstep((r - INNER_EDGE) / (1.04 - INNER_EDGE))


def phi(r) -> np.ndarray:
    """Radial bump chi(r/1.1) - chi(r) of band 0."""
    r = np.asarray(r, dtype=np.float64)
    return chi(r / BASE) - chi(r)


def band_multiplier(grid: Grid, k: int) -> np.ndarray:
    """P_k(xi) = phi(1.1^{-k} |xi|) sampled on the grid's modes, from
    Grid.radius_index."""
    radii, position = grid.radius_index
    return phi(radii * BASE ** (-k))[position]


def lowpass_multiplier(grid: Grid, k: int) -> np.ndarray:
    """Cumulative lowpass sum_{j<=k} P_j(xi) = chi(1.1^{-(k+1)} |xi|).

    The extra 1/1.1 inside chi is forced by the telescoping identity
    P_{<=k} - P_{<=k-1} = P_k.
    """
    radii, position = grid.radius_index
    return chi(radii * BASE ** (-(k + 1)))[position]


def covering_band_range(grid: Grid) -> range:
    """All k whose annulus can touch any nonzero grid mode: from the band
    just below dxi to the band covering the corner modes at sqrt(3) * nyquist.
    band_table keeps those that do, for the suprema and sums over *all* bands
    with support (X norms, partition sums).
    """
    log = math.log(BASE)
    k_min = math.floor(math.log(grid.dxi / OUTER_EDGE) / log)
    k_max = math.ceil(math.log(1.04 * math.sqrt(3.0) * grid.nyquist) / log)
    return range(k_min, k_max + 1)


@functools.lru_cache(maxsize=8)
def band_support(grid: Grid, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the modes where P_k is nonzero, ascending, and P_k there, from
    Grid.radius_index and read-only: the one definition of a band's support."""
    radii, position = grid.radius_index
    profile = phi(radii * BASE ** (-k))
    support = np.flatnonzero((profile > 0.0)[position])
    values = profile[position.reshape(-1)[support]]
    support.flags.writeable = values.flags.writeable = False
    return support, values


@functools.lru_cache(maxsize=4)
def band_table(grid: Grid) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """(k, support, values) of band_support for each band of covering_band_range
    that touches a grid mode, built once per grid."""
    return tuple((k, support, values) for k in covering_band_range(grid)
                 for support, values in [band_support(grid, k)] if support.size)


def require_modes(grid: Grid, k_lo: int, k_hi: int) -> None:
    """A ValueError naming the bands and the grid when band_support is empty for
    each k of k_lo..k_hi (band_table's test): data sampled there would be zero."""
    if not any(band_support(grid, k)[0].size for k in range(k_lo, k_hi + 1)):
        bands = f"band {k_lo}" if k_lo == k_hi else f"bands {k_lo}..{k_hi}"
        raise ValueError(f"no mode of the {grid.n}^3 grid with L = {grid.length:g} is in {bands}")


@functools.lru_cache(maxsize=4)
def line_batches(grid: Grid) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """band_table's supports laid out on the lines they touch, for
    spectral.line_moments.  The piece of a band along axis j is a block of one
    row per line along j that its support touches, each mode (on exactly one
    such line) at the column of its index along j.  The pieces, band by band
    and within a band along axes 0, 1, 2, are grouped into batches of at most
    LINE_BATCH_MAX_ENTRIES block entries (rows x n summed; a larger piece forms
    a batch alone), each as (scatter, starts): scatter (int32) places the
    pieces' supports, concatenated, in the batch's block, whose rows
    starts[i]:starts[i + 1] are piece i's.  Built once per grid, read-only."""
    n, batches, pieces, starts = grid.n, [], [], [0]
    for _, support, _ in band_table(grid):
        index = np.unravel_index(support, grid.shape)
        for j in range(3):
            a, b = (index[i] for i in range(3) if i != j)
            lines, row = np.unique(a * n + b, return_inverse=True)
            if pieces and (starts[-1] + lines.size) * n > LINE_BATCH_MAX_ENTRIES:
                batches.append((np.concatenate(pieces), np.array(starts)))
                pieces, starts = [], [0]
            pieces.append(((row + starts[-1]) * n + index[j]).astype(np.int32))
            starts.append(starts[-1] + lines.size)
    batches.append((np.concatenate(pieces), np.array(starts)))
    for scatter, starts in batches:
        scatter.flags.writeable = starts.flags.writeable = False
    return tuple(batches)
