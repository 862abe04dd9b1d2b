import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from rlab import bands, sampling, spectral
from rlab.norms import BOUNDARY_MASS_TOL
from rlab.potentials import gaussian_potential
from rlab.spectral import (
    DENSE_AXIS_MAX_N,
    FREQUENCY,
    GRAM_PRODUCT_MAX_MKN,
    PHYSICAL,
    AxisOperator,
    Field,
    apply_multiplier,
    as_frequency,
    as_physical,
    bessel_weight,
    boundary_mass_fraction,
    free_phase,
    free_power_profiles,
    free_propagate,
    free_step,
    half_derivative_weight,
    l2_norm,
    line_moments,
    make_grid,
    read_snapshot,
    shell_fraction,
    transverse_power_sum,
    write_snapshot,
)

from conftest import field_from_function, random_field, zero_field


class TestMakeGrid:
    def test_integer_modes_on_2pi_box(self):
        g = make_grid(4, 2 * np.pi)
        assert_allclose(sorted(g.axis_freqs), [-2.0, -1.0, 0.0, 1.0], atol=1e-14)

    def test_spacings(self):
        g = make_grid(8, 16 * np.pi)
        assert_allclose(g.dx, 2 * np.pi, rtol=1e-15)
        assert_allclose(g.dxi, 1 / 8, rtol=1e-15)
        assert g.dx * g.n == g.length

    @pytest.mark.parametrize("n,L", [(5, 1.0), (2, 1.0), (12, 1.0), (8, 0.0), (8, -2.0),
                                     (8, np.inf), (8, np.nan)])
    def test_rejects_bad_arguments(self, n, L):
        with pytest.raises(ValueError):
            make_grid(n, L)

    def test_frequency_set_symmetric_except_nyquist(self):
        g = make_grid(8, 8.0)
        freqs = np.sort(g.axis_freqs)
        # one Nyquist mode, all others paired with their negatives
        assert np.sum(np.isclose(np.abs(freqs), g.nyquist)) == 1
        for xi in freqs:
            if not np.isclose(abs(xi), g.nyquist) and xi != 0:
                assert np.any(np.isclose(freqs, -xi))


class TestTransforms:
    def test_zero_maps_to_zero(self, grid16):
        fhat = as_frequency(zero_field(grid16))
        assert np.all(fhat.data == 0)

    def test_pure_mode_gives_volume_peak(self):
        g = make_grid(16, 8.0)
        idx = (3, 14, 5)
        xi0 = tuple(g.axis_freqs[i] for i in idx)
        f = field_from_function(
            g, lambda x1, x2, x3: np.exp(1j * (xi0[0] * x1 + xi0[1] * x2 + xi0[2] * x3))
        )
        fhat = as_frequency(f)
        assert_allclose(fhat.data[idx], g.length**3, rtol=1e-12)
        rest = np.array(fhat.data)
        rest[idx] = 0
        assert np.max(np.abs(rest)) < 1e-9 * g.length**3

    def test_gaussian_against_continuum_transform(self):
        # the centred Gaussian is even; the off-centre one with a carrier pins
        # the translation phase e^{-i c.(xi - kappa)} as well
        g = make_grid(32, 16.0)
        for width, c, kappa in [(1.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                                (0.9, (0.5, -0.75, 0.25), (0.9, -0.6, 1.3))]:
            def fn(*x):
                r2 = sum((xj - cj) ** 2 for xj, cj in zip(x, c))
                return np.exp(-r2 / (2 * width**2) + 1j * sum(k * xj for k, xj in zip(kappa, x)))
            fhat = as_frequency(field_from_function(g, fn))
            q1, q2, q3 = (xi - k for xi, k in zip(g.freq_mesh, kappa))
            ref = ((2 * np.pi) ** 1.5 * width**3
                   * np.exp(-1j * (c[0] * q1 + c[1] * q2 + c[2] * q3))
                   * np.exp(-width**2 * (q1**2 + q2**2 + q3**2) / 2))
            ref = np.broadcast_to(ref, g.shape)
            sel = np.broadcast_to(q1**2 + q2**2 + q3**2 <= 4.0, g.shape)
            rel = np.abs(fhat.data[sel] - ref[sel]) / np.abs(ref[sel])
            assert np.max(rel) < 1e-8

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_round_trip(self, n):
        g = make_grid(n, 12.0)
        f = random_field(g, seed=n)
        rt = as_physical(as_frequency(f))
        scale = np.max(np.abs(f.data))
        assert np.max(np.abs(rt.data - f.data)) < 1e-13 * scale

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_parseval_100_random_fields(self, n):
        g = make_grid(n, 10.0)
        rng = np.random.default_rng(n)
        for _ in range(100):
            data = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
            f = Field(g, PHYSICAL, data)
            phys = l2_norm(f)
            freq = l2_norm(as_frequency(f))
            assert abs(phys - freq) <= 1e-12 * phys


class TestApplySymbol:
    def test_identity_symbol(self, grid16):
        f = random_field(grid16, 1)
        out = apply_multiplier(f, np.ones(()))
        assert_allclose(out.data, f.data, atol=1e-13 * np.max(np.abs(f.data)))

    def test_multipliers_commute_and_compose(self, grid16):
        f = random_field(grid16, 3)
        x1, x2, _ = grid16.freq_mesh
        m1 = np.cos(x1) + 2.0
        m2 = x2 * x2 + 1.0
        seq = apply_multiplier(apply_multiplier(f, m1), m2)
        fused = apply_multiplier(f, m1 * m2)
        swapped = apply_multiplier(apply_multiplier(f, m2), m1)
        scale = np.max(np.abs(seq.data))
        assert np.max(np.abs(seq.data - fused.data)) < 1e-12 * scale
        assert np.max(np.abs(seq.data - swapped.data)) < 1e-12 * scale


PHASE_GRIDS = [(16, 16.0), (32, 32.0), (64, 64.0), (64, 201.06)]


class TestFreePhase:
    @pytest.mark.parametrize("n,L", PHASE_GRIDS)
    def test_matches_full_grid_exponential(self, n, L):
        g = make_grid(n, L)
        for t in np.linspace(-16.0, 16.0, 33):
            p = free_phase(g, t)
            assert np.max(np.abs(p - np.exp(-1j * t * g.xi_squared))) <= 2e-13
            assert np.max(np.abs(np.abs(p) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("n,L", PHASE_GRIDS)
    def test_t_zero_is_exactly_one(self, n, L):
        p = free_phase(make_grid(n, L), 0.0)
        assert p.shape == (n, n, n)
        assert np.all(p == 1.0)


GAUSSIAN_GRIDS = [(16, 48.0), (32, 64.0), (64, 201.06)]
def _full_grid_gaussian(g, width, center, carrier):
    """exp(-|x - c|^2 / (2 w^2) + i carrier.x) evaluated on the full grid."""
    x1, x2, x3 = g.coord_mesh
    c, k = center, carrier
    r2 = (x1 - c[0]) ** 2 + (x2 - c[1]) ** 2 + (x3 - c[2]) ** 2
    return np.exp(-r2 / (2.0 * width**2) + 1j * (k[0] * x1 + k[1] * x2 + k[2] * x3))


class TestGaussian:
    @pytest.mark.parametrize("n,L", GAUSSIAN_GRIDS)
    @pytest.mark.parametrize("center, carrier, spectrum", [
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), False),
        ((1.0, 0.5, -2.0), (0.0, 0.0, 0.0), False),
        ((0.0, 0.0, 0.0), (0.6, -0.3, 1.1), False),
        ((1.0, 0.5, -2.0), (1.5, 0.2, -0.9), False),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), True),
        ((1.0, 0.5, -2.0), (0.0, 0.0, 0.0), True),
        ((0.0, 0.0, 0.0), (0.6, -0.3, 1.1), True),
        ((1.0, 0.5, -2.0), (1.5, 0.2, -0.9), True),
    ], ids=["plain", "center", "carrier", "center-carrier", "spectrum-plain",
            "spectrum-center", "spectrum-carrier", "spectrum-center-carrier"])
    def test_matches_the_full_grid_formula(self, n, L, center, carrier, spectrum):
        # gaussian against the n^3 exponentials; the product of gaussian_spectrum's
        # three length-n transforms against the full-grid fftn of gaussian
        g = make_grid(n, L)
        for width in (3.0, 4.0):
            if spectrum:
                got = spectral._separable(*spectral.gaussian_spectrum(g, width, center, carrier))
                physical = Field(g, PHYSICAL, spectral.gaussian(g, width, center, carrier))
                ref = as_frequency(physical).data
            else:
                got = spectral.gaussian(g, width, center, carrier)
                ref = _full_grid_gaussian(g, width, center, carrier)
            assert got.shape == g.shape and got.dtype == np.complex128
            assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)

    @pytest.mark.parametrize("width, center, message", [
        (0.0, (0.0, 0.0, 0.0), "width must be positive and finite"),
        (np.inf, (0.0, 0.0, 0.0), "width must be positive and finite"),
        (2.0, (0.0, 0.0), "center must be a 3-vector"),
    ])
    def test_rejects_a_bad_width_or_center(self, grid16, width, center, message):
        for build in (spectral.gaussian, spectral.gaussian_spectrum):
            with pytest.raises(ValueError, match=message):
                build(grid16, width, center, (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("axis_bias", [None, 1])
    def test_localized_packet_keeps_its_draws_and_values(self, axis_bias):
        # the draws, in order, and P_k times the full-grid transform of the
        # full-grid formula the per-axis builders replaced
        g = make_grid(32, 48.0)
        rng, ref_rng = sampling.sample_rng(3, 1), sampling.sample_rng(3, 1)
        f = sampling.localized_packet(g, 1, rng, width=3.0, axis_bias=axis_bias)
        data = np.zeros(g.shape, dtype=np.complex128)
        for _ in range(2):
            direction = ref_rng.standard_normal(3)
            if axis_bias is not None:
                direction = np.eye(3)[axis_bias] + 0.35 * direction
            xi0 = bands.BASE * direction / np.linalg.norm(direction)
            amp = ref_rng.standard_normal() + 1j * ref_rng.standard_normal()
            data += amp * _full_grid_gaussian(g, 3.0, (0.0, 0.0, 0.0), xi0)
        spectrum = as_frequency(Field(g, PHYSICAL, data)).data
        ref = sampling.normalized(Field(g, FREQUENCY, bands.band_multiplier(g, 1) * spectrum))
        assert f.rep == FREQUENCY
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.linalg.norm(f.data - ref.data) <= 1e-14 * np.linalg.norm(ref.data)


PROFILE_TIMES = np.array([0.0, 1.0, 2.3, 7.5])


def _profile_data(g, kind, axis):
    """A band-limited packet or non-band-limited band-flat data, as a spectrum."""
    rng = sampling.sample_rng(17, axis)
    if kind == "packet":
        f = sampling.localized_packet(g, 1, rng, width=3.0, axis_bias=axis)
    else:
        f = sampling.band_flat_field(g, -3, 3, rng)
    return as_frequency(f).data


def _support_form(fhat):
    """fhat as free_power_profiles takes it: its nonzero flat indices and its values there."""
    support = np.flatnonzero(fhat)
    return support, fhat.reshape(-1)[support]


def _harness_sample(g, k, axis):
    """A harness smo1 sample: an axis-directed band-k packet on its support, times the
    half-derivative weight gathered at each mode's index along axis, and its spectrum."""
    support, coeffs = sampling.packet_on_support(g, k, sampling.sample_rng(17, axis), 3.0, axis)
    along = np.unravel_index(support, g.shape)[axis]
    coeffs = half_derivative_weight(g, axis).reshape(-1)[along] * coeffs
    fhat = np.zeros(g.shape, dtype=np.complex128)
    np.put(fhat, support, coeffs)
    return support, coeffs, fhat


class TestFreePowerProfiles:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["packet", "band-flat"])
    @pytest.mark.parametrize("half", [False, True], ids=["plain", "half-derivative"])
    def test_equals_the_free_phase_ladder(self, n, axis, kind, half):
        g = make_grid(n, 32.0)
        fhat = _profile_data(g, kind, axis)
        if half:
            fhat = half_derivative_weight(g, axis) * fhat
        got = free_power_profiles(g, *_support_form(fhat), axis, PROFILE_TIMES)
        ref = np.stack([transverse_power_sum(Field(g, FREQUENCY, free_phase(g, t) * fhat), axis)
                        for t in PROFILE_TIMES])
        assert got.shape == (PROFILE_TIMES.size, n)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("kind", ["packet", "band-flat"])
    def test_free_flow_conserves_mass_at_every_time(self, n, kind):
        # Parseval: the integral of every profile along its axis is ||f||^2
        g = make_grid(n, 24.0)
        fhat = _profile_data(g, kind, 0)
        mass = l2_norm(Field(g, FREQUENCY, fhat)) ** 2
        times = np.linspace(0.0, 16.0, 9)
        for axis in range(3):
            totals = np.sum(free_power_profiles(g, *_support_form(fhat), axis, times),
                            axis=1) * g.dx
            assert np.max(np.abs(totals / mass - 1.0)) <= 1e-14

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_gram_products_stay_serial_sized(self, matmul_shapes, n):
        g = make_grid(n, float(n))
        free_power_profiles(g, *_support_form(_profile_data(g, "band-flat", 1)), 1,
                            PROFILE_TIMES)
        assert matmul_shapes
        for a, b, _ in matmul_shapes:
            assert a[0] * a[1] * b[1] <= GRAM_PRODUCT_MAX_MKN, (a, b)

    @pytest.mark.parametrize("n, length, k", [(16, 32.0, 1), (32, 32.0, 1), (64, 64.0, 0)])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_dropping_the_zero_columns_keeps_the_profiles(self, n, length, k, axis):
        # a band-k packet is zero on most transverse columns; the reference
        # transforms every column of the spectrum at every time
        g = make_grid(n, length)
        support, coeffs, fhat = _harness_sample(g, k, axis)
        columns = np.any(np.moveaxis(fhat, axis, 0).reshape(n, -1), axis=0)
        assert 0 < np.count_nonzero(columns) < n * n
        got = free_power_profiles(g, support, coeffs, axis, PROFILE_TIMES)
        ref = np.stack([transverse_power_sum(Field(g, FREQUENCY, free_phase(g, t) * fhat), axis)
                        for t in PROFILE_TIMES])
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_gram_products_cover_only_the_nonzero_columns(self, matmul_shapes, axis):
        # the harness-64 sample: band 0 at 64^3, L = 64, 8 columns per product
        g = make_grid(64, 64.0)
        support, coeffs, _ = _harness_sample(g, 0, axis)
        touched = np.zeros(g.shape, dtype=bool)
        np.put(touched, support, True)
        lines = np.count_nonzero(np.any(touched, axis=axis))  # the lines along axis it touches
        matmul_shapes.clear()
        free_power_profiles(g, support, coeffs, axis, PROFILE_TIMES)
        step = GRAM_PRODUCT_MAX_MKN // 64**2
        assert step == 8 and lines < 64 * 64 // 8
        assert len(matmul_shapes) == -(-lines // step)
        for a, b, _ in matmul_shapes:
            assert a[0] * a[1] * b[1] <= GRAM_PRODUCT_MAX_MKN, (a, b)

    def test_tight_packet_profile_is_never_negative(self):
        # far from a narrow Gaussian the Gram sums cancel to roundoff of either
        # sign; a negative profile would turn the mixed norm's square root NaN
        g = make_grid(32, 64.0)
        f = field_from_function(g, lambda x1, x2, x3: np.exp(-(x1**2 + x2**2 + x3**2) / 2))
        prof = free_power_profiles(g, *_support_form(as_frequency(f).data), 0,
                                   np.array([0.0, 0.5]))
        assert np.all(prof >= 0.0) and np.min(prof) == 0.0

    def test_rejects_a_bad_axis(self, grid16):
        with pytest.raises(ValueError, match="axis must be 0, 1 or 2"):
            free_power_profiles(grid16, np.array([0]), np.zeros(1, complex), 3, PROFILE_TIMES)


def _white_noise(n, seed=0):
    # every mode carries weight, the Nyquist planes included
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))


def _one_axis_fft(symbol, u, j):
    shape = [1, 1, 1]
    shape[j] = -1
    return np.fft.ifftn(symbol.reshape(shape) * np.fft.fftn(u, axes=(j,)), axes=(j,))


def _axis_operators(g):
    return {"derivative": g.derivative, "free_step": free_step(g, 0.37), "dealias": g.dealias}


class TestAxisOperator:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("which", ["derivative", "free_step", "dealias"])
    def test_dense_matches_the_one_axis_fft_pair(self, n, which):
        g = make_grid(n, 32.0)
        op = _axis_operators(g)[which]
        assert op.matrix is not None and op.matrix.shape == (n, n)
        u = _white_noise(n)
        for j in range(3):
            got = op.along(u, j)
            ref = _one_axis_fft(op.symbol, u, j)
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), j

    @pytest.mark.parametrize("n", [16, 32])
    def test_three_axes_match_the_full_grid_multipliers(self, n):
        g = make_grid(n, 32.0)
        u = _white_noise(n, 1)
        uhat = np.fft.fftn(u)
        keep = np.abs(g.modes) <= n // 3
        mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
        for op, m in ((free_step(g, -0.8), free_phase(g, -0.8)), (g.dealias, mask)):
            ref = np.fft.ifftn(m * uhat)
            assert np.max(np.abs(op(u) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_above_the_size_rule_is_the_fft_pair(self):
        n = 2 * DENSE_AXIS_MAX_N
        g = make_grid(n, 64.0)
        u = _white_noise(n, 2)
        for op in _axis_operators(g).values():
            assert op.matrix is None
            for j in range(3):
                ref = _one_axis_fft(op.symbol, u, j)
                assert np.max(np.abs(op.along(u, j) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_real_input_takes_the_complex_matrix(self, grid16):
        u = _white_noise(16).real
        for j in range(3):
            got = grid16.derivative.along(u, j)
            ref = _one_axis_fft(grid16.derivative.symbol, u, j)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("which", ["derivative", "free_step", "dealias"])
    def test_real_forms_match_the_complex_matrix(self, n, which):
        # the real last-axis form, the [R | s] form with its Nyquist slice and the
        # complex batch all reproduce M along axis j; white noise fills every mode,
        # the Nyquist planes included, and a real part is a strided real view, the
        # kind of input evolve_hamiltonian's div A passes
        op = _axis_operators(make_grid(n, 2.0 * n))[which]
        assert (op._real is None) == (which == "free_step")
        u = _white_noise(n, 3)
        for v in (u, u.real):
            for j in range(3):
                ref = np.moveaxis(np.tensordot(op.matrix, v, (1, j)), 0, j)
                got = op.along(v, j)
                assert got.flags.c_contiguous
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), j

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), t=st.floats(-20.0, 20.0))
    def test_free_step_preserves_the_mass(self, n, t):
        u = _white_noise(n, 4)
        mass = np.sum(np.abs(u) ** 2)
        assert abs(np.sum(np.abs(free_step(make_grid(n, 2.0 * n), t)(u)) ** 2) - mass) <= 1e-13 * mass

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_derivative_is_skew_adjoint(self, n):
        # <d_j u, v> = -<u, d_j v>: the symbol i xi_j is imaginary on every mode,
        # the Nyquist mode's -i pi/dx included, so a Nyquist term c s s^T that
        # lost its i breaks it
        d = make_grid(n, 2.0 * n).derivative
        u, v = _white_noise(n, 5), _white_noise(n, 6)
        for j in range(3):
            du, dv = d.along(u, j), d.along(v, j)
            scale = np.linalg.norm(du) * np.linalg.norm(v)
            assert abs(np.vdot(v, du) + np.vdot(dv, u)) <= 1e-13 * scale, j

    def test_symbol_is_stored_as_complex(self):
        op = AxisOperator(np.ones(8))
        assert op.symbol.dtype == np.complex128
        assert np.allclose(op.matrix, np.eye(8), atol=1e-15)


class TestFreePropagate:
    def test_t_zero_is_identity(self, grid16):
        f = random_field(grid16, 4)
        out = free_propagate(f, 0.0)
        assert_allclose(out.data, f.data, atol=1e-15 * np.max(np.abs(f.data)))

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_l2_isometry(self, grid16, t):
        f = random_field(grid16, 5)
        assert abs(l2_norm(free_propagate(f, t)) - l2_norm(f)) <= 1e-13 * l2_norm(f)

    def test_group_property(self, grid16):
        f = random_field(grid16, 6)
        ab = free_propagate(free_propagate(f, 0.7), 0.4)
        once = free_propagate(f, 1.1)
        assert np.max(np.abs(ab.data - once.data)) < 1e-12 * np.max(np.abs(f.data))

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("rep", [PHYSICAL, FREQUENCY])
    def test_matches_the_full_grid_multiplier(self, n, rep):
        # reference: the full-grid route, fftn, the n^3 phase, ifftn
        g = make_grid(n, 32.0)
        f = random_field(g, 7)
        f = f if rep == PHYSICAL else as_frequency(f)
        for t in (-3.0, 0.7, 16.0):
            got = free_propagate(f, t)
            ref = as_physical(apply_multiplier(f, free_phase(g, t)))
            assert got.rep == PHYSICAL
            assert l2_norm(Field(g, PHYSICAL, got.data - ref.data)) <= 1e-13 * l2_norm(ref)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_is_three_axis_products(self, fft_count, n):
        # no full-grid FFT: at n >= 64 each axis product is a one-axis FFT pair
        fft_count.watch(spectral, "apply_multiplier")
        free_propagate(random_field(make_grid(n, 32.0), 8), 0.5)
        assert fft_count.products == 3
        pairs = 0 if n <= DENSE_AXIS_MAX_N else 3
        assert fft_count.calls["fftn"] == fft_count.calls["ifftn"] == pairs
        assert fft_count.calls["apply_multiplier"] == 0


class TestHalfDerivative:
    def test_pure_mode_eigenvalue(self):
        g = make_grid(8, 2 * np.pi)
        xi0 = (3.0, -2.0, 1.0)
        f = field_from_function(
            g, lambda x1, x2, x3: np.exp(1j * (xi0[0] * x1 + xi0[1] * x2 + xi0[2] * x3))
        )
        out = apply_multiplier(f, half_derivative_weight(g, 0))
        assert_allclose(out.data, np.sqrt(3.0) * f.data, atol=1e-11)

    def test_vanishes_on_transverse_spectrum(self):
        g = make_grid(8, 2 * np.pi)
        f = field_from_function(g, lambda x1, x2, x3: np.exp(1j * (2 * x2 - x3)))
        out = apply_multiplier(f, half_derivative_weight(g, 0))  # spectrum sits at xi_1 = 0
        assert np.max(np.abs(out.data)) < 1e-12

    def test_twice_equals_full_modulus(self, grid16):
        f = random_field(grid16, 7)
        half = half_derivative_weight(grid16, 1)
        twice = apply_multiplier(apply_multiplier(f, half), half)
        direct = apply_multiplier(f, np.abs(grid16.freq_mesh[1]))
        assert np.max(np.abs(twice.data - direct.data)) < 1e-12 * np.max(np.abs(f.data))

    def test_squares_to_symbol_product(self, grid16):
        half = half_derivative_weight(grid16, 2)
        f = random_field(grid16, 8)
        assert np.max(np.abs(apply_multiplier(f, half * half).data
                             - apply_multiplier(f, np.abs(grid16.freq_mesh[2])).data)) \
            < 1e-12 * np.max(np.abs(f.data))


class TestBesselWeight:
    @pytest.mark.parametrize("n, length", [(16, 16.0), (32, 48.0)])
    @pytest.mark.parametrize("s", [0.5, 1, 2, 10, 20])
    def test_is_the_sum_of_squared_components(self, n, length, s):
        g = make_grid(n, length)
        a, b, c = g.freq_mesh
        assert np.array_equal(bessel_weight(g, s), (1.0 + (a * a + b * b + c * c)) ** (s / 2))


class TestShellFraction:
    def test_zero_weight_has_zero_share(self, grid16):
        edge = np.abs(grid16.axis_coords) >= 0.9 * (grid16.length / 2.0)
        assert shell_fraction(np.zeros(grid16.shape), edge) == 0.0
        assert boundary_mass_fraction(zero_field(grid16)) == 0.0

    def test_uniform_weight_counts_the_shell(self):
        # one edge index of four per axis: the shell holds 1 - (3/4)^3 of the cube
        edge = np.array([True, False, False, False])
        assert shell_fraction(np.ones((4, 4, 4)), edge) == 37 / 64

    @pytest.mark.parametrize("n, length, c", [(16, 48.0, 20.0), (32, 64.0, 27.0)])
    def test_a_bump_near_either_face_is_seen(self, n, length, c):
        # the shell is measured from the seam at -L/2 = L/2: at 16^3, L 48 the
        # largest sample x = 21 sits below 0.9 L/2 = 21.6 but beside the seam
        g = make_grid(n, length)
        for axis in range(3):
            for sign in (1.0, -1.0):
                center = [0.0, 0.0, 0.0]
                center[axis] = sign * c
                f = gaussian_potential(g, center, 4.0, 1.0)
                assert boundary_mass_fraction(f) > BOUNDARY_MASS_TOL, (axis, sign)


class TestSnapshots:
    def test_bit_exact_round_trip(self, tmp_path, grid16):
        f = random_field(grid16, 9)
        p1 = tmp_path / "a.rlab"
        p2 = tmp_path / "b.rlab"
        write_snapshot(p1, f)
        g = read_snapshot(p1)
        write_snapshot(p2, g)
        assert p1.read_bytes() == p2.read_bytes()
        assert g.grid == f.grid and g.rep == f.rep

    def test_header_layout(self, tmp_path, grid16):
        p = tmp_path / "c.rlab"
        write_snapshot(p, zero_field(grid16, FREQUENCY))
        blob = p.read_bytes()
        assert blob[:4] == b"RLAB"
        assert len(blob) == 32 + grid16.n**3 * 8
        # a physical field is written in centred C order, x1 slowest from -L/2:
        # the sample at x = (-L/2, -L/2 + dx, 0) is payload entry (0, 1, n/2)
        g, n = grid16, grid16.n
        x = (-g.length / 2, -g.length / 2 + g.dx, 0.0)
        at = tuple(int(np.flatnonzero(np.isclose(g.axis_coords, xj))[0]) for xj in x)
        data = np.zeros(g.shape, dtype=np.complex128)
        data[at] = 2.0 - 3.0j
        write_snapshot(p, Field(g, PHYSICAL, data))
        payload = np.frombuffer(p.read_bytes(), dtype="<c8", offset=32).reshape(g.shape)
        assert np.flatnonzero(payload).tolist() == [np.ravel_multi_index((0, 1, n // 2), g.shape)]
        assert payload[0, 1, n // 2] == 2.0 - 3.0j
        back = read_snapshot(p)
        assert back.rep == PHYSICAL and np.array_equal(back.data, data)

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "bad.rlab"
        p.write_bytes(b"NOPE" + b"\0" * 60)
        with pytest.raises(ValueError):
            read_snapshot(p)

    def test_rejects_short_header(self, tmp_path):
        p = tmp_path / "short.rlab"
        p.write_bytes(b"RLAB\1\0\0\0")
        with pytest.raises(ValueError, match=r"short\.rlab.*8 bytes, need 32"):
            read_snapshot(p)

    def test_rejects_unknown_representation(self, tmp_path, grid16):
        p = tmp_path / "rep.rlab"
        write_snapshot(p, zero_field(grid16))
        blob = bytearray(p.read_bytes())
        blob[20] = 7  # the representation byte follows magic, version, n and L
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"rep\.rlab.*representation code 7"):
            read_snapshot(p)

    def test_rejects_truncated_payload(self, tmp_path, grid16):
        p = tmp_path / "cut.rlab"
        write_snapshot(p, zero_field(grid16))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match=r"cut\.rlab.*32760 bytes, need 32768"):
            read_snapshot(p)

    def test_rejects_invalid_grid(self, tmp_path, grid16):
        p = tmp_path / "odd.rlab"
        write_snapshot(p, zero_field(grid16))
        blob = bytearray(p.read_bytes())
        blob[8] = 15  # n = 15 is not a power of two
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"odd\.rlab.*n=15"):
            read_snapshot(p)


def test_fields_are_immutable(grid16):
    f = random_field(grid16, 10)
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 1.0


def _package_trees():
    src = pathlib.Path(spectral.__file__).parent
    return {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _convention_references(tree) -> list[str]:
    """The numpy.fft uses (attribute or import) of a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            found.append(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            found += [name for name in names if "fft" in name]
    return found


def _parseval_weights(tree) -> list[str]:
    """Every power of an expression in np.pi raised to 3: the (2 pi)^3 of the weight."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant) and node.right.value == 3
            and "pi" in ast.unparse(node.left)]


class TestKernelLayer:
    def test_only_spectral_calls_numpy_fft(self):
        users = {name for name, tree in _package_trees().items()
                 if _convention_references(tree)}
        assert users == {"spectral.py"}

    def test_no_blas_level_one_products(self):
        # OpenBLAS threads vdot/dot/inner on n^3 arrays and leaves its threads
        # spinning (README, axis operators); np.dot and the .dot method alike
        calls = [f"{name}: {ast.unparse(node)}" for name, tree in _package_trees().items()
                 for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) in ("vdot", "dot", "inner")]
        assert calls == []

    def test_parseval_weight_is_written_once(self):
        weights = {name: _parseval_weights(tree) for name, tree in _package_trees().items()}
        assert {name: w for name, w in weights.items() if w} == {
            "spectral.py": ["(2.0 * np.pi) ** 3"]}

    def test_parseval_weight_equates_mode_sums_with_integrals(self, grid16):
        f = random_field(grid16, 12)
        total = np.sum(np.abs(as_frequency(f).data) ** 2) * grid16.parseval_weight
        assert_allclose(total, np.sum(np.abs(f.data) ** 2) * grid16.dx**3, rtol=1e-13)

    def test_line_moments_match_the_dense_axis_moments(self):
        for n in (8, 16, 32, 64):  # the quadratic form up to 32, the ifft at 64
            g = make_grid(n, 12.0)
            rng = np.random.default_rng(n)
            coeffs = as_frequency(random_field(g, n)).data.reshape(-1)
            parts, scatter, starts, dense = [], [], [0], []
            for share in (0.02, 0.3, 1.0):  # random supports, the last one full
                support = np.flatnonzero(rng.random(g.n**3) < share)
                spectrum = np.zeros(g.n**3, dtype=np.complex128)
                spectrum[support] = coeffs[support]
                physical = as_physical(Field(g, FREQUENCY, spectrum.reshape(g.shape)))
                g_abs2 = np.abs(physical.data) ** 2
                index = np.unravel_index(support, g.shape)
                for j in range(3):
                    # a row per line along j that the support touches, the mode at its index on j
                    a, c = (index[i] for i in range(3) if i != j)
                    lines, row = np.unique(a * n + c, return_inverse=True)
                    parts.append(coeffs[support])
                    scatter.append((starts[-1] + row) * n + index[j])
                    starts.append(starts[-1] + lines.size)
                    dense.append(np.sum(g.coord_mesh[j] ** 2 * g_abs2) * g.dx**3)
            # one batch of all nine pieces: the sums agree to a few ulps of the
            # n^3 positive terms they add up in another order
            scatter = np.concatenate(scatter).astype(np.int32)
            moments = line_moments(g, np.concatenate(parts), scatter, np.array(starts))
            assert_allclose(moments, dense, rtol=1e-13, atol=0)
