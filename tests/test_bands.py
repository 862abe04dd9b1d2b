import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlab.bands import (
    BASE,
    INNER_EDGE,
    OUTER_EDGE,
    band_multiplier,
    band_table,
    chi,
    line_batches,
    lowpass_multiplier,
    covering_band_range,
    phi,
    require_modes,
)
from rlab.spectral import (
    FREQUENCY,
    LINE_BATCH_MAX_ENTRIES,
    PHYSICAL,
    Field,
    apply_multiplier,
    as_frequency,
    as_physical,
    l2_norm,
    make_grid,
)

from conftest import band_indices, inner_product, random_field, zero_field


class TestProfile:
    def test_vanishes_below_annulus(self):
        assert phi(np.array(0.5)) == 0.0
        assert phi(np.array(INNER_EDGE - 1e-9)) == 0.0

    def test_vanishes_above_annulus(self):
        assert phi(np.array(OUTER_EDGE + 1e-9)) == 0.0

    def test_range_within_unit_interval(self):
        r = np.linspace(0.01, 2.0, 5000)
        v = phi(r)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)

    def test_telescoping_on_log_spaced_radii(self):
        # design tolerance: 1e-12 over 1e4 log-spaced radii
        r = np.logspace(-3, 3, 10**4)
        total = np.zeros_like(r)
        for j in range(-160, 160):
            total += phi(r * BASE ** (-j))
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_telescoping_property(self, r):
        lo = math.floor(math.log(r / OUTER_EDGE) / math.log(BASE)) - 1
        hi = math.ceil(math.log(r * 1.04) / math.log(BASE)) + 1
        total = sum(float(phi(np.array(r * BASE ** (-j)))) for j in range(lo, hi + 1))
        assert abs(total - 1.0) <= 1e-12

    def test_separated_bands_have_disjoint_support(self):
        r = np.logspace(-2, 2, 20000)
        for dj in (2, 3):
            prod = phi(r) * phi(r * BASE ** (-dj))
            assert np.all(prod == 0.0)


class TestProjectBand:
    def test_partition_on_unit_shell(self):
        # only bands -1 and 0 touch |xi| = 1: their sum restores the shell
        g = make_grid(16, 2 * np.pi)
        data = np.zeros(g.shape, dtype=np.complex128)
        r = np.sqrt(np.broadcast_to(g.xi_squared, g.shape))
        data[np.isclose(r, 1.0)] = 1.0 + 0.5j
        f = Field(g, FREQUENCY, data)
        total = (apply_multiplier(f, band_multiplier(g, -1)).data
                 + apply_multiplier(f, band_multiplier(g, 0)).data)
        assert np.max(np.abs(total - f.data)) < 1e-12

    def test_zero_field_projects_to_zero(self, grid16):
        out = apply_multiplier(zero_field(grid16), band_multiplier(grid16, 0))
        assert np.all(out.data == 0)

    def test_band_sum_recovers_band_limited_field(self, grid16):
        rng = np.random.default_rng(0)
        g = grid16
        r = np.sqrt(np.broadcast_to(g.xi_squared, g.shape))
        mask = (r >= 2 * g.dxi) & (r <= 0.7 * g.nyquist)
        data = mask * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        f = Field(g, FREQUENCY, data)
        total = np.zeros(g.shape, dtype=np.complex128)
        for k in covering_band_range(g):
            total += apply_multiplier(f, band_multiplier(g, k)).data
        assert np.max(np.abs(total - f.data)) <= 1e-10 * np.max(np.abs(f.data))

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([8, 16]), length=st.sampled_from([8.0, 16.0, 48.0]),
           rep=st.sampled_from([FREQUENCY, PHYSICAL]), seed=st.integers(0, 2**32 - 1))
    def test_bands_telescope_on_random_fields(self, n, length, rep, seed):
        g = make_grid(n, length)
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        data[0, 0, 0] = 0.0  # no band reaches xi = 0
        f = Field(g, FREQUENCY, data)
        if rep == PHYSICAL:
            f = as_physical(f)
        total = sum(apply_multiplier(f, band_multiplier(g, k)).data for k in covering_band_range(g))
        assert np.max(np.abs(total - f.data)) <= 1e-12 * np.max(np.abs(f.data))

    def test_exact_orthogonality_beyond_neighbors(self, grid16):
        f = as_frequency(random_field(grid16, 3))
        ks = list(band_indices(grid16))
        k0 = ks[len(ks) // 2]
        fa = apply_multiplier(f, band_multiplier(grid16, k0))
        for k in (k0 + 2, k0 + 3, k0 - 2):
            fb = apply_multiplier(f, band_multiplier(grid16, k))
            assert inner_product(fa, fb) == 0.0

    def test_idempotence_up_to_neighbors(self, grid16):
        f = as_frequency(random_field(grid16, 4))
        band0 = apply_multiplier(f, band_multiplier(grid16, 0))
        out = apply_multiplier(band0, band_multiplier(grid16, 3))
        assert np.all(out.data == 0)

    def test_bernstein_support_bound(self, grid16):
        f = random_field(grid16, 5)
        for k in (-3, 0, 2):
            fk = apply_multiplier(f, band_multiplier(grid16, k))
            grad_sq = sum(
                l2_norm(apply_multiplier(fk, grid16.freq_mesh[j])) ** 2
                for j in range(3)
            )
            assert math.sqrt(grad_sq) <= OUTER_EDGE * BASE**k * l2_norm(fk) * (1 + 1e-12)


class TestProjectLeq:
    """The cumulative lowpass P_{<=k} applied as a multiplier."""

    def test_difference_identity(self, grid16):
        f = as_frequency(random_field(grid16, 6))
        diff = (apply_multiplier(f, lowpass_multiplier(grid16, 3)).data
                - apply_multiplier(f, lowpass_multiplier(grid16, 2)).data)
        band = apply_multiplier(f, band_multiplier(grid16, 3)).data
        assert np.max(np.abs(diff - band)) < 1e-12 * np.max(np.abs(f.data))

    def test_top_of_range_is_identity_on_band_limited(self, grid16):
        g = grid16
        r = np.sqrt(np.broadcast_to(g.xi_squared, g.shape))
        rng = np.random.default_rng(7)
        data = (r <= 0.5 * g.nyquist) * (rng.standard_normal(g.shape) + 0j)
        f = Field(g, FREQUENCY, data)
        k_top = band_indices(g).stop + 1
        out = apply_multiplier(f, lowpass_multiplier(g, k_top))
        assert np.max(np.abs(out.data - f.data)) < 1e-13

    def test_below_range_keeps_only_zero_mode(self, grid16):
        f = as_frequency(random_field(grid16, 8))
        k_bot = band_indices(grid16).start - 8
        out = apply_multiplier(f, lowpass_multiplier(grid16, k_bot))
        rest = np.array(out.data)
        rest[0, 0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-13 * np.max(np.abs(f.data))
        assert np.isclose(out.data[0, 0, 0], f.data[0, 0, 0])


class TestBandIndices:
    def test_contains_band_zero_on_unit_box(self):
        g = make_grid(16, 2 * np.pi)
        assert 0 in band_indices(g)

    def test_range_length_matches_radius_arithmetic(self):
        for n, L in [(16, 2 * np.pi), (16, 32.0), (32, 48.0)]:
            g = make_grid(n, L)
            ks = band_indices(g)
            expected = math.log(g.nyquist / g.dxi) / math.log(BASE)
            assert abs(len(ks) - expected) <= 2.0

    def test_degenerate_grid_with_no_bands_rejected(self):
        from rlab.spectral import Grid

        # a two-point axis whose single resolved shell falls between bands
        # (constructed directly; make_grid would reject n = 2)
        degenerate = Grid(n=2, length=64.8)
        with pytest.raises(ValueError):
            band_indices(degenerate)

    def test_partition_of_unity_on_resolved_shells(self, grid16):
        g = grid16
        total = np.zeros(g.shape)
        for k in covering_band_range(g):
            total += band_multiplier(g, k)
        r = np.sqrt(np.broadcast_to(g.xi_squared, g.shape))
        sel = (r >= g.dxi) & (r <= 0.9 * g.nyquist)
        assert np.max(np.abs(total[sel] - 1.0)) <= 1e-12


class TestActiveBands:
    def test_xi_norm_is_the_radius_of_every_mode(self, grid16):
        g = grid16
        assert np.array_equal(g.xi_norm, np.sqrt(g.xi_squared))
        assert g.xi_norm is g.xi_norm  # cached on the grid

    @pytest.mark.parametrize("n, length", [(16, 48.0), (32, 64.0), (64, 64.0), (64, 201.0)])
    def test_radius_index_from_the_octant_is_the_full_grid_unique_bit_for_bit(self, n, length):
        g = make_grid(n, length)
        radii, position = np.unique(g.xi_norm.reshape(-1), return_inverse=True)
        got_radii, got_position = g.radius_index
        assert got_radii.tobytes() == radii.tobytes()
        assert got_position.shape == g.shape
        assert np.array_equal(got_position.reshape(-1), position)

    @pytest.mark.parametrize("n, length", [(8, 8.0), (16, 32.0), (32, 48.0)])
    def test_yields_exactly_the_covering_bands_with_support(self, n, length):
        g = make_grid(n, length)
        expected = [k for k in covering_band_range(g) if np.any(band_multiplier(g, k) > 0.0)]
        table = band_table(g)
        assert [k for k, _, _ in table] == expected
        for k, support, values in table:
            mult = band_multiplier(g, k).reshape(-1)
            assert np.array_equal(support, np.flatnonzero(mult))
            # the stored values are plain P_k, in the grid's mode order
            assert np.array_equal(values, mult[support])
        # every covering band that is skipped misses every grid mode
        for k in set(covering_band_range(g)) - set(expected):
            assert not np.any(band_multiplier(g, k))

    @pytest.mark.parametrize("n, length", [(8, 8.0), (16, 32.0), (32, 48.0)])
    def test_scattered_table_telescopes_on_every_nonzero_mode(self, n, length):
        g = make_grid(n, length)
        total = np.zeros(g.n**3)
        for _, support, values in band_table(g):
            total[support] += values
        r = g.xi_norm.reshape(-1)
        assert np.max(np.abs(total[r > 0] - 1.0)) <= 1e-12
        assert total[r == 0] == 0.0

    @pytest.mark.parametrize("n, length", [(8, 8.0), (16, 32.0), (32, 48.0)])
    def test_require_modes_passes_exactly_the_bands_of_the_table(self, n, length):
        g = make_grid(n, length)
        table = {k for k, _, _ in band_table(g)}
        cover = covering_band_range(g)
        for k in range(cover.start - 3, cover.stop + 3):
            if k in table:
                require_modes(g, k, k)
            else:
                with pytest.raises(ValueError, match=f"grid with L = {length:g} is in band {k}$"):
                    require_modes(g, k, k)
        require_modes(g, cover.start - 3, cover.stop + 3)  # one band of the range suffices
        with pytest.raises(ValueError, match=r"is in bands 1\.\.0$"):
            require_modes(g, 1, 0)

    @pytest.mark.parametrize("n, length", [(8, 8.0), (16, 32.0), (32, 48.0)])
    def test_multipliers_from_the_distinct_radii_are_the_full_grid_formula_bit_for_bit(
            self, n, length):
        g = make_grid(n, length)
        for k in covering_band_range(g):
            assert band_multiplier(g, k).tobytes() == phi(g.xi_norm * BASE ** (-k)).tobytes()
            assert (lowpass_multiplier(g, k).tobytes()
                    == chi(g.xi_norm * BASE ** (-(k + 1))).tobytes())

    def test_table_is_built_once_per_grid_and_read_only(self, grid16):
        table = band_table(grid16)
        assert band_table(make_grid(grid16.n, grid16.length)) is table
        _, support, values = table[0]
        with pytest.raises(ValueError):
            values[0] = 0.0
        with pytest.raises(ValueError):
            support[0] = 0

    @pytest.mark.parametrize("n, length", [(8, 8.0), (16, 32.0), (32, 48.0)])
    def test_line_batches_lay_each_band_out_on_its_lines_once_per_axis(self, n, length):
        g = make_grid(n, length)
        table = band_table(g)
        batches = line_batches(g)
        assert line_batches(make_grid(n, length)) is batches
        # band by band, three axes each, in table order: piece p is band p // 3 along p % 3
        pieces = []
        for scatter, starts in batches:
            assert scatter.dtype == np.int32 and not scatter.flags.writeable
            assert not starts.flags.writeable and starts[0] == 0
            assert len(starts) == 2 or starts[-1] * n <= LINE_BATCH_MAX_ENTRIES
            offset = 0
            for lo, hi in zip(starts[:-1], starts[1:]):
                support = table[len(pieces) // 3][1]
                pieces.append((scatter[offset:offset + support.size], lo, hi))
                offset += support.size
            assert offset == scatter.size
        assert len(pieces) == 3 * len(table)
        for p, (scatter, lo, hi) in enumerate(pieces):
            j = p % 3
            index = np.unravel_index(table[p // 3][1], g.shape)
            # the column is the mode's index along j, each mode has its own
            # slot inside the piece's rows, and the rows are exactly the lines
            # the support touches, in order
            assert np.array_equal(scatter % n, index[j])
            assert np.unique(scatter).size == scatter.size
            a, c = (index[i] for i in range(3) if i != j)
            lines = np.unique(a * n + c, return_inverse=True)[1]
            assert np.array_equal(scatter // n, lo + lines)
            assert hi - lo == lines.max() + 1
