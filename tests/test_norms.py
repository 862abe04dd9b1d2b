import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from rlab import bands, sampling
from rlab.norms import (
    Trajectory,
    _checked,
    _wrap_note,
    lebesgue_norm,
    mixed_spacetime_norm,
    sobolev_norm,
    spacetime_norm,
    x_norm,
    y_norm,
)
from rlab.spectral import (
    DENSE_AXIS_MAX_N,
    FREQUENCY,
    PHYSICAL,
    Field,
    apply_multiplier,
    as_frequency,
    as_physical,
    bessel_weight,
    free_propagate,
    l2_norm,
    make_grid,
    transverse_power_sum,
)

from conftest import field_from_function, random_field, zero_field


class TestChecked:
    def test_rejects_nan_and_negative(self):
        with pytest.raises(ValueError, match="norm 'bad' evaluated to NaN"):
            _checked(float("nan"), "bad")
        with pytest.raises(ValueError, match="norm 'bad' evaluated to -1.0 < 0"):
            _checked(-1.0, "bad")

    def test_every_norm_is_a_plain_float(self, grid16):
        f = random_field(grid16, 3)
        tr = Trajectory(times=np.array([1.0, 2.0]), fields=[f, f])
        values = [lebesgue_norm(f, np.inf), lebesgue_norm(as_frequency(f), 2),
                  lebesgue_norm(f, 3), spacetime_norm(tr, np.inf, 2), spacetime_norm(tr, 2, 6),
                  mixed_spacetime_norm(tr, 0, np.inf), sobolev_norm(f, 10), x_norm(f),
                  y_norm(f)]
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize("norm, name", [(x_norm, "X")])
    def test_x_norms_reject_one_nan_sample(self, grid16, norm, name):
        data = random_field(grid16, 5).data.copy()
        data[3, 4, 5] = np.nan
        with pytest.raises(ValueError, match=f"norm '{name}' evaluated to NaN"):
            norm(Field(grid16, PHYSICAL, data))


class TestLebesgue:
    def test_unit_field_l1_is_volume(self):
        g = make_grid(8, 2.0)
        f = field_from_function(g, lambda a, b, c: np.ones_like(a + b + c))
        assert_allclose(lebesgue_norm(f, 1), 8.0, rtol=1e-14)

    def test_l2_matches_parseval(self, grid16):
        f = random_field(grid16, 0)
        phys = lebesgue_norm(f, 2)
        freq = lebesgue_norm(as_frequency(f), 2)
        assert abs(phys - freq) <= 1e-12 * phys

    def test_l2_is_l2_norm_in_either_representation(self, grid16):
        f = random_field(grid16, 0)
        for g in (f, as_frequency(f)):
            assert lebesgue_norm(g, 2) == l2_norm(g)

    def test_gaussian_l2_closed_form(self):
        g = make_grid(32, 16.0)
        f = field_from_function(g, lambda a, b, c: np.exp(-(a**2 + b**2 + c**2)))
        assert_allclose(lebesgue_norm(f, 2), (np.pi / 2) ** 0.75, rtol=1e-8)

    def test_rejects_p_below_one(self, grid16):
        with pytest.raises(ValueError):
            lebesgue_norm(random_field(grid16, 1), 0.5)

    def test_infinity_is_grid_max(self, grid16):
        f = random_field(grid16, 2)
        assert lebesgue_norm(f, np.inf) == np.max(np.abs(f.data))


class TestSpacetime:
    def test_constant_trajectory(self, grid16):
        f = random_field(grid16, 6)
        tr = Trajectory(times=np.linspace(1.0, 3.0, 21), fields=[f] * 21)
        got = spacetime_norm(tr, 2.0, 6.0)
        assert_allclose(got, math.sqrt(2.0) * lebesgue_norm(f, 6), rtol=1e-10)

    def test_infinity_in_time_is_max(self, grid16):
        f = random_field(grid16, 7)
        tr = Trajectory(times=np.array([1.0, 2.0]), fields=[f, Field(f.grid, PHYSICAL, 2 * f.data)])
        assert_allclose(spacetime_norm(tr, np.inf, 2.0), 2 * l2_norm(f), rtol=1e-12)

    def test_single_sample_rejected_for_finite_p(self, grid16):
        tr = Trajectory(times=np.array([1.0]), fields=[random_field(grid16, 8)])
        with pytest.raises(ValueError):
            spacetime_norm(tr, 2.0, 2.0)

    def test_quadrature_stabilizes_under_refinement(self):
        g = make_grid(16, 16.0)
        f = sampling.band_flat_field(g, -2, 2, np.random.default_rng(1))
        vals = {}
        for nt in (17, 33, 65):
            ts = np.linspace(1.0, 3.0, nt)
            fields = [free_propagate(f, t - 1.0) for t in ts]
            vals[nt] = float(spacetime_norm(Trajectory(times=ts, fields=fields), 2.0, 6.0))
        assert abs(vals[33] - vals[65]) / vals[65] < 0.01


class TestMixedSpacetime:
    # grid16 has dx = 2, so a wrong power of dx in the Parseval path shows
    @staticmethod
    def _spectra(grid, seed, nt=5):
        rng = np.random.default_rng(seed)
        times = 1.0 + np.cumsum(0.1 + rng.random(nt))
        fields = [Field(grid, FREQUENCY, rng.standard_normal(grid.shape)
                        + 1j * rng.standard_normal(grid.shape)) for _ in times]
        return Trajectory(times=times, fields=fields)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("p_outer", [np.inf, 1.0, 2.0])
    def test_spectrum_agrees_with_its_physical_form(self, grid16, axis, p_outer, seed):
        tr = self._spectra(grid16, seed)
        phys = Trajectory(times=tr.times, fields=[as_physical(f) for f in tr.fields])
        got = mixed_spacetime_norm(tr, axis, p_outer)
        ref = mixed_spacetime_norm(phys, axis, p_outer)
        assert abs(got - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_transverse_profile_keeps_its_position(self, grid16, axis):
        # the max and sum over x_j cannot see a cyclic shift; the profile can
        f = self._spectra(grid16, 7, nt=1).fields[0]
        got = transverse_power_sum(f, axis)
        ref = transverse_power_sum(as_physical(f), axis)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)

    def test_zero_spectrum_gives_exactly_zero(self, grid16):
        tr = Trajectory(times=np.linspace(1.0, 2.0, 3),
                        fields=[zero_field(grid16, FREQUENCY)] * 3)
        assert mixed_spacetime_norm(tr, 1, np.inf) == 0.0
        assert mixed_spacetime_norm(tr, 2, 1) == 0.0


class TestSobolev:
    def test_s_zero_is_l2(self, grid16):
        f = random_field(grid16, 9)
        assert_allclose(sobolev_norm(f, 0), l2_norm(f), rtol=1e-12)

    def test_pure_mode_weight(self):
        g = make_grid(8, 2 * np.pi)
        xi0 = (2.0, 0.0, -1.0)
        f = field_from_function(
            g, lambda a, b, c: np.exp(1j * (xi0[0] * a + xi0[1] * b + xi0[2] * c))
        )
        w = (1 + 5.0) ** (3.0 / 2.0)
        assert_allclose(sobolev_norm(f, 3), w * l2_norm(f), rtol=1e-11)

    def test_matches_multiplier_oracle(self, grid16):
        f = random_field(grid16, 10)
        direct = l2_norm(apply_multiplier(f, bessel_weight(grid16, 10)))
        assert_allclose(sobolev_norm(f, 10), direct, rtol=1e-12)


class TestXNorm:
    def test_zero_field(self, grid16):
        assert x_norm(zero_field(grid16)) == 0.0

    def test_gradient_realization_against_analytic_derivative(self):
        # frequency-side Gaussian: grad_xi fhat known in closed form
        # needs decay both at the box edge (x side) and at Nyquist (xi side)
        g = make_grid(64, 32.0)
        x1, x2, x3 = g.freq_mesh
        s = 0.55
        xi0 = (0.7, -0.5, 0.3)
        fhat = np.exp(-((x1 - xi0[0]) ** 2 + (x2 - xi0[1]) ** 2 + (x3 - xi0[2]) ** 2) / (2 * s**2))
        fhat = np.broadcast_to(fhat, g.shape).astype(np.complex128)
        f = Field(g, FREQUENCY, fhat)
        phys = as_physical(f).data
        for axis in range(3):
            xj = g.coord_mesh[axis]
            dj = as_frequency(Field(g, PHYSICAL, -1j * xj * phys))
            ref = -(g.freq_mesh[axis] - xi0[axis]) / s**2 * fhat
            ref = np.broadcast_to(ref, g.shape)
            assert np.max(np.abs(dj.data - ref)) < 1e-8 * np.max(np.abs(ref))

    def test_translation_product_rule_bound(self):
        g = make_grid(16, 32.0)
        f = as_physical(sampling.localized_packet(g, -3, np.random.default_rng(2), width=3.0))
        shift = 2  # grid points along axis 0
        y = shift * g.dx
        data = np.roll(f.data, shift, axis=0)
        xf = float(x_norm(Field(g, PHYSICAL, data)))
        assert xf <= abs(y) * l2_norm(f) + float(x_norm(f)) + 1e-10

    def test_wraparound_warning_attached(self):
        g = make_grid(16, 16.0)
        edge = field_from_function(
            g, lambda a, b, c: np.exp(-((a + 7.8) ** 2 + b**2 + c**2) / 2.0)
        )
        assert "wrap-around" in _wrap_note(edge)

    def test_interior_field_has_no_warning(self):
        # compactly supported Gaussian packet (band projections would add
        # polynomially decaying kernel tails and honestly trip the warning)
        g = make_grid(16, 32.0)
        f = field_from_function(
            g, lambda a, b, c: np.exp(-(a**2 + b**2 + c**2) / 8.0) * np.exp(1j * a)
        )
        assert _wrap_note(f) == ""


def _dense_band_loop_norms(f):
    """X through the dense per-band loop: one full-grid P_k per band, rebuilt
    on every call, and the centered inverse transform."""
    g = f.grid
    fhat = as_frequency(f).data
    x = 0.0
    for k in bands.covering_band_range(g):
        mult = bands.band_multiplier(g, k)
        if not np.any(mult > 0.0):
            continue
        gk = as_physical(Field(g, FREQUENCY, mult * fhat))
        x = max(x, float(np.sqrt(np.sum(g.radius_squared * np.abs(gk.data) ** 2) * g.dx**3)))
    return x


class TestBandTable:
    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), length=st.floats(4.0, 96.0),
           width=st.floats(0.02, 1.0), kind=st.sampled_from(["windowed", "zero"]),
           rep=st.sampled_from([PHYSICAL, FREQUENCY]), seed=st.integers(0, 2**32 - 1))
    @example(n=16, length=16.0, width=1.0, kind="windowed", rep=PHYSICAL, seed=1)  # boundary shell
    @example(n=8, length=8.0, width=0.1, kind="zero", rep=PHYSICAL, seed=0)
    @example(n=8, length=4.0, width=1.0, kind="windowed", rep=PHYSICAL, seed=0)  # seam planes
    def test_matches_the_dense_band_loop(self, n, length, width, kind, rep, seed):
        g = make_grid(n, length)
        rng = np.random.default_rng(seed)
        window = np.exp(-g.radius_squared / (width * length) ** 2)
        data = window * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        f = Field(g, PHYSICAL, data if kind == "windowed" else 0.0 * data)
        if rep == FREQUENCY:
            f = as_frequency(f)
        x = _dense_band_loop_norms(f)
        # X sums its squares along lines, in another order than the full-grid
        # loop: a few ulps of a sum of ~n^3 positive terms
        assert abs(float(x_norm(f)) - x) <= 1e-13 * x
        if kind == "zero":
            assert x_norm(f) == 0.0
        if width == 1.0 and kind == "windowed":
            assert "wrap-around" in _wrap_note(f)

    @pytest.mark.parametrize("n, length", [(16, 24.0), (64, 64.0)])
    def test_repeat_call_costs_one_fftn_and_an_ifft_per_batch_past_32(self, fft_count, n, length):
        g = make_grid(n, length)
        f = random_field(g, 11)
        first = x_norm(f)
        # up to DENSE_AXIS_MAX_N the lines take a quadratic form, no transform
        expected = {"fftn": 1}
        if n > DENSE_AXIS_MAX_N:
            expected["ifft"] = len(bands.line_batches(g))
        fft_count.watch(bands, "band_multiplier")
        fft_count.calls.clear()
        assert x_norm(f) == first
        assert fft_count.calls == expected

    @pytest.mark.parametrize("n, length", [(16, 24.0), (32, 48.0)])
    def test_blas_products_stay_serial(self, matmul_shapes, n, length):
        g = make_grid(n, length)
        f = as_frequency(random_field(g, 13))
        x_norm(f)
        # every product is a batch of matrix products, none matrix-vector (OpenBLAS
        # threads those far sooner), each m x k by k x p with m k p < 64^3, below
        # OpenBLAS's threading threshold
        assert matmul_shapes
        for a, b, _ in matmul_shapes:
            assert len(a) == 3 and len(b) == 2, (a, b)
            (m, k), p = a[-2:], b[-1]
            assert min(m, k, p) > 1 and m * k * p < 64**3, (a, b)

    def test_peak_memory_stays_below_the_full_grid_band_loop(self):
        g = make_grid(32, 48.0)
        f = as_frequency(random_field(g, 12))
        x_norm(f)  # builds the grid's tables outside the measurement
        tracemalloc.start()
        try:
            x_norm(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full-grid band loop (one ifftn per band) peaked at 2.24 MB per call
        # on a 32^3 spectrum: its scattered spectrum, the transform and |x|^2 |g_k|^2
        assert peak <= 2.2e6


class TestYNorm:
    def test_zero(self, grid16):
        assert y_norm(zero_field(grid16)) == 0.0

    def test_separable_gaussian_closed_form(self):
        g = make_grid(32, 32.0)
        s1, s2, s3, amp = 1.5, 2.0, 2.5, 0.7
        f = field_from_function(
            g,
            lambda a, b, c: amp
            * np.exp(-(a**2) / (2 * s1**2))
            * np.exp(-(b**2) / (2 * s2**2))
            * np.exp(-(c**2) / (2 * s3**2)),
        )
        xs = g.axis_coords
        g1 = np.exp(-(xs**2) / (2 * s1**2))
        g2 = np.exp(-(xs**2) / (2 * s2**2))
        g3 = np.exp(-(xs**2) / (2 * s3**2))
        l1 = amp * np.sum(g1) * np.sum(g2) * np.sum(g3) * g.dx**3
        linf = amp
        mixed = 0.0
        for gj in (g1, g2, g3):
            mixed += math.sqrt(amp * np.sum(gj) * g.dx)
        assert_allclose(y_norm(f), l1 + linf + mixed, rtol=1e-8)

    @pytest.mark.parametrize("lam", [1.0, 2.0, 10.0])
    def test_scaling_monotone_above_one(self, grid16, lam):
        f = as_physical(sampling.localized_packet(grid16, -3, np.random.default_rng(4), width=3.0))
        w = Field(grid16, PHYSICAL, np.abs(f.data) + 0j)
        assert y_norm(Field(grid16, PHYSICAL, lam * w.data)) <= lam * y_norm(w) + 1e-12


class TestSharedProperties:
    # the Y norm is deliberately absent from the homogeneity list: its
    # square-root terms scale like sqrt(lambda) (see the scaling test above)
    NORMS = [
        lambda f: lebesgue_norm(f, 1),
        lambda f: lebesgue_norm(f, 2),
        lambda f: lebesgue_norm(f, 6),
        lambda f: lebesgue_norm(f, np.inf),
        lambda f: sobolev_norm(f, 10),
        lambda f: x_norm(f),
        lambda f: x_norm(as_frequency(f)),  # X of a held spectrum
    ]
    TRIANGLE_NORMS = NORMS + [lambda f: y_norm(f)]

    @pytest.mark.parametrize("norm_idx", range(len(NORMS)))
    def test_absolute_homogeneity(self, grid16, norm_idx):
        norm = self.NORMS[norm_idx]
        f = random_field(grid16, 20 + norm_idx)
        lam = -2.5
        scaled = Field(grid16, PHYSICAL, lam * f.data)
        assert abs(norm(scaled) - abs(lam) * norm(f)) <= 1e-12 * max(1.0, norm(f))

    @pytest.mark.parametrize("norm_idx", range(len(NORMS) + 1))
    def test_triangle_inequality(self, grid16, norm_idx):
        norm = self.TRIANGLE_NORMS[norm_idx]
        rng = np.random.default_rng(40 + norm_idx)
        for _ in range(3):
            a = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
            b = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
            fa = Field(grid16, PHYSICAL, a)
            fb = Field(grid16, PHYSICAL, b)
            fsum = Field(grid16, PHYSICAL, a + b)
            assert norm(fsum) <= norm(fa) + norm(fb) + 1e-10

    def test_hoelder_l1_l2_l2(self, grid16):
        rng = np.random.default_rng(50)
        for _ in range(5):
            a = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
            b = rng.standard_normal(grid16.shape) + 1j * rng.standard_normal(grid16.shape)
            prod = Field(grid16, PHYSICAL, a * b)
            assert lebesgue_norm(prod, 1) <= (
                lebesgue_norm(Field(grid16, PHYSICAL, a), 2)
                * lebesgue_norm(Field(grid16, PHYSICAL, b), 2)
                + 1e-10
            )

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_l2_homogeneity_property(self, lam):
        g = make_grid(8, 8.0)
        f = random_field(g, 60)
        scaled = Field(g, PHYSICAL, lam * f.data)
        assert abs(lebesgue_norm(scaled, 2) - lam * lebesgue_norm(f, 2)) <= 1e-12 * lam * lebesgue_norm(f, 2)


class TestTrajectoryType:
    def test_rejects_mismatched_lengths(self, grid16):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([1.0, 2.0]), fields=[random_field(grid16, 0)])

    def test_rejects_nonincreasing_times(self, grid16):
        f = random_field(grid16, 1)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([1.0, 1.0]), fields=[f, f])

    def test_rejects_times_before_one(self, grid16):
        f = random_field(grid16, 2)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.5, 2.0]), fields=[f, f])
