import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rlab import bands, sampling
from rlab.estimates import (
    _flow_integral,
    _forcing_sample,
    _time_ladder,
    AdmissiblePair,
    EstimateReport,
    admissible,
    check_bilinear,
    check_direction_partition,
    check_dispersive_decay,
    check_doi_local,
    check_smoothing,
    check_smoothing_strichartz,
    check_strichartz,
    check_summation_interpolation,
    conjugate_exponent,
    direction_partition,
    strichartz_ratio,
    wraparound_horizon,
)
from rlab.norms import Trajectory, mixed_spacetime_norm
from rlab.potentials import PotentialSet, gaussian_potential
from rlab.spectral import (
    FREQUENCY,
    PHYSICAL,
    Field,
    as_frequency,
    as_physical,
    free_phase,
    half_derivative_weight,
    l2_norm,
    make_grid,
)

from conftest import zero_field, zero_potential_set


@pytest.fixture(scope="module")
def grid():
    return make_grid(16, 16.0)


@pytest.fixture(scope="module")
def grid32():
    return make_grid(32, 32.0)


class TestAdmissible:
    @pytest.mark.parametrize("p,q", [(2.0, 6.0), (np.inf, 2.0), (4.0, 3.0),
                                     (8.0, 2.4)])
    def test_accepts_the_scaling_relation(self, p, q):
        assert admissible(p, q)

    @pytest.mark.parametrize("p,q", [(2.0, 5.0), (1.0, np.inf), (3.0, 3.0),
                                     (np.inf, np.inf), (2.0, 2.0)])
    def test_rejects_everything_else(self, p, q):
        assert not admissible(p, q)

    def test_pair_type_validates(self):
        with pytest.raises(ValueError):
            AdmissiblePair(2.0, 5.0)

    def test_conjugates(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(np.inf) == 1.0
        assert conjugate_exponent(6.0) == 1.2


class TestStrichartz:
    def test_endpoint_pair_is_exact_isometry(self, grid):
        rep = check_strichartz(grid, (np.inf, 2.0), 4, k_lo=-2, k_hi=2, nt=9, seed=3)
        assert abs(rep.max_ratio - 1.0) <= 1e-12

    def test_inadmissible_pair_rejected(self, grid):
        with pytest.raises(ValueError):
            check_strichartz(grid, (2.0, 5.0), 4)

    def test_sample_doubling_never_decreases_the_sup(self, grid):
        r8 = check_strichartz(grid, (2.0, 6.0), 8, k_lo=-2, k_hi=2, nt=17, seed=3)
        r16 = check_strichartz(grid, (2.0, 6.0), 16, k_lo=-2, k_hi=2, nt=17, seed=3)
        assert r16.max_ratio >= r8.max_ratio
        assert r16.max_ratio <= 1.2 * r8.max_ratio  # stability under doubling

    def test_horizon_beyond_wraparound_rejected(self, grid):
        t_wrap = wraparound_horizon(grid, 1.04 * bands.BASE**3, 0.0)
        with pytest.raises(ValueError):
            check_strichartz(grid, (2.0, 6.0), 2, k_lo=-2, k_hi=2,
                             horizon=(1.0, 2.0 * t_wrap))

    def test_ratio_scale_invariant(self, grid):
        pair = AdmissiblePair(2.0, 6.0)
        f = sampling.band_flat_field(grid, -2, 2, sampling.sample_rng(0, 0))
        times = np.linspace(1.0, 2.5, 9)
        r1 = strichartz_ratio(grid, pair, f, times)
        scaled = Field(grid, f.rep, 13.7 * f.data)
        r2 = strichartz_ratio(grid, pair, scaled, times)
        assert abs(r1 - r2) <= 1e-10 * r1

    def test_serial_and_parallel_agree_bitwise(self, grid):
        a = check_strichartz(grid, (2.0, 6.0), 6, k_lo=-2, k_hi=2, nt=9, seed=5,
                             threads=1)
        b = check_strichartz(grid, (2.0, 6.0), 6, k_lo=-2, k_hi=2, nt=9, seed=5,
                             threads=3)
        assert a.ratios == b.ratios


class TestSmoothing:
    def test_zero_trajectory_gives_zero_norm(self, grid):
        tr = Trajectory(times=np.linspace(1, 2, 5), fields=[zero_field(grid)] * 5)
        assert mixed_spacetime_norm(tr, 0, np.inf) == 0.0

    def test_variants_run_and_are_positive(self, grid32):
        for variant in ("homogeneous", "dual", "inhomogeneous"):
            rep = check_smoothing(grid32, variant, 0, 2, band=2,
                                  horizon=(1.0, 3.0), nt=16, seed=5)
            assert rep.max_ratio > 0

    @pytest.mark.parametrize("variant,per_time", [
        ("homogeneous", 0), ("dual", 1), ("inhomogeneous", 2)])
    def test_fft_passes_per_ladder_time(self, fft_count, grid, variant, per_time):
        # the free flow's profiles come from one Gram matrix and one batched
        # ifft over all times; a mixed L2 norm of a spectrum takes one pass
        # along the axis: the forcing's in dual and inhomogeneous, and the
        # Duhamel integral's in inhomogeneous.  The forcing is a spectrum, so
        # neither Duhamel integral transforms it
        assert fft_count.passes_per_step(
            lambda steps: check_smoothing(grid, variant, 0, 1, band=1,
                                          horizon=(1.0, 2.0), nt=4 + steps)
        ) == per_time

    @pytest.mark.parametrize("variant", ["homogeneous", "dual", "inhomogeneous"])
    def test_one_time_ladder_rejected(self, grid, variant):
        with pytest.raises(ValueError, match="at least two time samples"):
            check_smoothing(grid, variant, 0, 1, band=1, horizon=(1.0, 2.0), nt=1)

    def test_homogeneous_serial_and_parallel_agree_bitwise(self, grid32):
        a = check_smoothing(grid32, "homogeneous", 1, 6, band=2, horizon=(1.0, 3.0), nt=9,
                            seed=5, threads=1)
        b = check_smoothing(grid32, "homogeneous", 1, 6, band=2, horizon=(1.0, 3.0), nt=9,
                            seed=5, threads=3)
        assert a.ratios == b.ratios

    def test_homogeneous_makes_no_free_phase_call(self, fft_count, grid):
        from rlab import estimates
        fft_count.watch(estimates, "free_phase")
        check_smoothing(grid, "homogeneous", 2, 2, band=1, horizon=(1.0, 2.0), nt=8)
        assert fft_count.calls["free_phase"] == 0

    @pytest.mark.parametrize("n", [16, 64])
    def test_homogeneous_sample_makes_no_full_grid_fft(self, fft_count, n):
        # the packet's spectrum comes from three length-n transforms per carrier
        # term, its profiles from one Gram matrix and one batched length-n ifft
        g = make_grid(n, float(n))
        check_smoothing(g, "homogeneous", 0, 2, band=0, horizon=(1.0, 2.0), nt=8)
        assert fft_count.calls["fftn"] == fft_count.calls["ifftn"] == 0
        assert fft_count.calls["fft"] == 2 * 6 and fft_count.calls["ifft"] == 2

    def test_homogeneous_sample_builds_no_full_grid_array(self):
        # the harness-64 sample: a band-0 packet at 64^3 (2 732 of 262 144 modes) runs
        # on its band's support from the draw to the Gram profile; built on the full
        # grid, the same sample peaked above 10 MiB
        g = make_grid(64, 64.0)
        bands.band_support(g, 0)  # built once per grid, before the samples
        tracemalloc.start()
        try:
            check_smoothing(g, "homogeneous", 0, 1, band=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64**3 * 16  # one 64^3 complex array, 4 MiB

    def test_unknown_variant_rejected(self, grid32):
        with pytest.raises(ValueError):
            check_smoothing(grid32, "sideways", 0, 1)

    def test_adjoint_pairing_identity(self, grid32):
        # <D^(1/2) e^{itL} f, F> summed over the ladder equals
        # <f, sum_t w_t D^(1/2) e^{-itL} F(t)>: the duality behind the dual
        # variant, computed directly
        g = grid32
        rng = sampling.sample_rng(9, 0)
        f = as_physical(sampling.localized_packet(g, 2, rng, width=3.0))
        times = np.linspace(1.0, 3.0, 9)
        w = np.gradient(times)  # trapezoid weights on a uniform ladder
        mult = np.sqrt(np.abs(np.broadcast_to(g.freq_mesh[0], g.shape)))
        fhat = as_frequency(f).data
        forcing = [
            as_physical(sampling.localized_packet(g, 2, rng, width=3.0)).data * np.cos(1.3 * t)
            for t in times
        ]
        lhs = 0.0 + 0.0j
        acc = np.zeros(g.shape, dtype=np.complex128)
        for t, wt, F in zip(times, w, forcing):
            Tf = as_physical(
                Field(g, FREQUENCY, mult * np.exp(-1j * t * g.xi_squared) * fhat)
            )
            lhs += wt * np.sum(Tf.data * np.conj(F)) * g.dx**3
            Fh = as_frequency(Field(g, PHYSICAL, F)).data
            acc += wt * mult * np.exp(+1j * t * g.xi_squared) * Fh
        adj = as_physical(Field(g, FREQUENCY, acc))
        rhs = np.sum(f.data * np.conj(adj.data)) * g.dx**3
        assert abs(lhs - np.conj(np.conj(rhs))) <= 1e-10 * abs(lhs)

    def test_dual_matches_homogeneous_on_matched_samples(self, grid32):
        # duality: the dual-variant ratio evaluated on the homogeneous
        # variant's own output agrees with the homogeneous ratio within 30%
        g = grid32
        axis = 0
        times = np.linspace(1.0, 3.5, 24)
        mult = np.sqrt(np.abs(np.broadcast_to(g.freq_mesh[axis], g.shape)))
        for i in range(3):
            rng = sampling.sample_rng(55, i)
            f = sampling.localized_packet(g, 2, rng, width=3.0, axis_bias=axis)
            fhat = as_frequency(f).data
            Tf = [
                as_physical(Field(g, FREQUENCY,
                                        mult * np.exp(-1j * t * g.xi_squared) * fhat))
                for t in times
            ]
            hom = float(mixed_spacetime_norm(Trajectory(times=times, fields=Tf),
                                             axis, np.inf)) / l2_norm(f)
            conj_fields = [Field(g, PHYSICAL, np.conj(F.data)) for F in Tf]
            flows = [
                mult * np.exp(-1j * t * g.xi_squared) * as_frequency(F).data
                for t, F in zip(times, conj_fields)
            ]
            acc = np.trapezoid(np.stack(flows), times, axis=0)
            dual = l2_norm(Field(g, FREQUENCY, acc)) / float(
                mixed_spacetime_norm(Trajectory(times=times, fields=conj_fields),
                                     axis, 1)
            )
            assert 0.7 <= dual / hom <= 1.3

    def test_dual_sum_bit_identical_to_stacked_trapezoid(self, grid16):
        # the dual variant accumulates its time integral one interval at a
        # time; the reference stacks every spectrum and calls np.trapezoid
        g, axis, band, seed = grid16, 0, 2, 5
        rep = check_smoothing(g, "dual", axis, 3, band=band, horizon=(1.0, 3.0), nt=16,
                              seed=seed)
        times = _time_ladder(g, band, (1.0, 3.0), 16)
        mult = half_derivative_weight(g, axis)
        ref = []
        for i in range(3):
            [tr_f] = _forcing_sample(g, band, axis, sampling.sample_rng(seed, i), times, FREQUENCY)
            flows = [free_phase(g, t) * as_frequency(F).data for t, F in zip(times, tr_f.fields)]
            integral = np.trapezoid(np.stack(flows), times, axis=0)
            # the ratio is a norm, blind to the order of the sum: pin the spectrum too
            assert np.array_equal(_flow_integral(tr_f), integral)
            ref.append(l2_norm(Field(g, FREQUENCY, mult * integral))
                       / mixed_spacetime_norm(tr_f, axis, 1))
        assert rep.ratios == ref

    def test_gap_between_with_and_without_multiplier(self, grid32):
        with_rep = check_smoothing(grid32, "homogeneous", 0, 2, band=4,
                                   horizon=(1.0, 3.0), nt=16, seed=6)
        without = check_smoothing(grid32, "homogeneous", 0, 2, band=4,
                                  horizon=(1.0, 3.0), nt=16, seed=6,
                                  half_derivative=False)
        gap = with_rep.max_ratio / without.max_ratio
        assert 0.5 * bands.BASE**2 <= gap <= 2.0 * bands.BASE**2


class TestSmoothingStrichartz:
    def test_ratio_bounded_and_homogeneous(self, grid):
        rep = check_smoothing_strichartz(grid, (2.0, 6.0), 0, 4, band=1,
                                         horizon=(1.0, 2.5), nt=12, seed=7)
        assert 0 < rep.max_ratio < np.inf
        # doubling the forcing is invisible to the ratio: homogeneity is
        # structural (both sides are 1-homogeneous in the forcing)

    def test_one_fft_pass_per_ladder_time(self, fft_count, grid):
        # the Duhamel integral's mixed L2 norm takes one pass along the axis; the
        # forcing's L^q' norm reads physical packets formed once per sample
        assert fft_count.passes_per_step(
            lambda steps: check_smoothing_strichartz(grid, (2.0, 6.0), 0, 1, band=1,
                                                     horizon=(1.0, 2.0), nt=4 + steps)
        ) == 1

    def test_rejects_inadmissible_pair(self, grid):
        with pytest.raises(ValueError):
            check_smoothing_strichartz(grid, (3.0, 3.0), 0, 2)

    def test_ratio_invariant_under_forcing_scaling(self, grid32):
        # doubling the forcing doubles numerator and denominator alike
        from rlab.estimates import _duhamel_ladder
        from rlab.norms import spacetime_norm
        from rlab.spectral import half_derivative_weight

        g = grid32
        times = np.linspace(1.0, 2.5, 10)
        rng = sampling.sample_rng(8, 0)
        base = sampling.localized_packet(g, 1, rng, width=3.0)
        mult = half_derivative_weight(g, 0)

        def ratio(scale):
            forcing = [Field(g, base.rep, scale * np.cos(1.1 * t) * base.data)
                       for t in times]
            tr_f = Trajectory(times=times, fields=forcing)
            tr_d = _duhamel_ladder(g, forcing, times, mult)
            num = float(mixed_spacetime_norm(tr_d, 0, np.inf))
            den = float(spacetime_norm(tr_f, 2.0, 1.2))
            return num / den

        r1, r2 = ratio(1.0), ratio(2.0)
        assert abs(r1 - r2) <= 1e-10 * r1


class TestDispersive:
    def test_standard_scenario_flat_within_two(self):
        g = make_grid(64, 64 * np.pi)
        rep = check_dispersive_decay(g, 0)
        assert rep.extras["flatness"] <= 2.0

    def test_wraparound_rejected(self):
        g = make_grid(16, 16.0)
        with pytest.raises(ValueError):
            check_dispersive_decay(g, 0, horizon=(4.0, 64.0))

    def test_product_scale_invariant(self):
        # scaling the datum scales every tabulated product by the same
        # factor, so the reported flatness is invariant
        from rlab.norms import lebesgue_norm
        from rlab.spectral import free_propagate

        g = make_grid(32, 32 * np.pi)
        rep1 = check_dispersive_decay(g, 0, horizon=(4.0, 8.0), n_points=5)
        rep2 = check_dispersive_decay(g, 0, horizon=(4.0, 8.0), n_points=5)
        assert rep1.ratios == rep2.ratios
        f = sampling.dispersive_datum(g, 0)
        lam = 3.7
        scaled = Field(g, f.rep, lam * f.data)
        for t in (4.0, 8.0):
            p1 = t * float(lebesgue_norm(free_propagate(f, t), 6))
            p2 = t * float(lebesgue_norm(free_propagate(scaled, t), 6))
            assert abs(p2 - lam * p1) <= 1e-10 * p2


class TestBilinear:
    def test_identity_symbol_reduces_to_hoelder(self, grid):
        one = np.ones(grid.shape)
        rep = check_bilinear(grid, one, one, 2.0, 2.0, 1.0, 6, seed=1)
        assert rep.extras["kernel_l1"] == pytest.approx(1.0, abs=1e-10)
        assert rep.max_ratio <= 1.0 + 1e-10

    def test_band_symbol_bounded_by_kernel_quadrature(self, grid):
        Pk = bands.band_multiplier(grid, 2)
        rep = check_bilinear(grid, np.ones(grid.shape), Pk, 2.0, 2.0, 1.0, 6, seed=1)
        # normalized ratio stays below the kernel bound (10% numerical slack)
        assert rep.max_ratio <= 1.1

    def test_zero_factor_gives_zero(self, grid):
        from rlab.estimates import bilinear_apply

        z = zero_field(grid)
        f = sampling.band_flat_field(grid, -2, 2, sampling.sample_rng(0, 0))
        one = np.ones(grid.shape)
        out = bilinear_apply(f, z, one, one)
        assert np.all(out.data == 0)

    @pytest.mark.parametrize("p, q, r", [(2.0, np.inf, 2.0), (np.inf, np.inf, np.inf)])
    def test_infinite_exponent_has_zero_reciprocal(self, grid, p, q, r):
        one = np.ones(grid.shape)
        rep = check_bilinear(grid, one, one, p, q, r, 2, seed=1)
        assert rep.max_ratio <= 1.0 + 1e-10

    def test_rejects_non_hoelder_exponents(self, grid):
        with pytest.raises(ValueError):
            check_bilinear(grid, np.ones(grid.shape), np.ones(grid.shape),
                           2.0, 2.0, 2.0, 2)

    def test_ratio_invariant_under_scaling(self, grid):
        from rlab.estimates import bilinear_apply
        from rlab.norms import lebesgue_norm

        f = sampling.band_flat_field(grid, -2, 2, sampling.sample_rng(2, 0))
        g_ = sampling.band_flat_field(grid, -2, 2, sampling.sample_rng(2, 1))
        one = np.ones(grid.shape)
        B1 = bilinear_apply(f, g_, one, one)
        r1 = lebesgue_norm(B1, 1) / (lebesgue_norm(f, 2) * lebesgue_norm(g_, 2))
        f2 = Field(grid, f.rep, 2.0 * f.data)
        g2 = Field(grid, g_.rep, 2.0 * g_.data)
        B2 = bilinear_apply(f2, g2, one, one)
        r2 = lebesgue_norm(B2, 1) / (lebesgue_norm(f2, 2) * lebesgue_norm(g2, 2))
        assert abs(r1 - r2) <= 1e-10 * r1


class TestDirectionPartition:
    def test_pure_axis_gets_full_weight(self, grid32):
        chis = direction_partition(grid32)
        # locate the mode xi = (dxi * m, 0, 0)
        idx = (2, 0, 0)
        assert_allclose(chis[0][idx], 1.0, atol=1e-14)
        assert_allclose(chis[1][idx], 0.0, atol=1e-14)

    def test_sums_to_one_on_the_grid(self, grid32):
        rep = check_direction_partition(grid32)
        assert rep.extras["partition_error"] <= 1e-12

    def test_support_condition_exhaustive(self, grid32):
        rep = check_direction_partition(grid32)
        assert rep.extras["support_violations"] == 0


class TestSummation:
    def test_c_to_zero_limit(self, grid32):
        rep = check_summation_interpolation(grid32, 3, 2.0, 6.0, 1e-9, 2, seed=2)
        assert abs(rep.max_ratio - 1.0) <= 1e-6

    def test_band_eight_kappa_stable(self, grid32):
        rep = check_summation_interpolation(grid32, 8, 2.0, 6.0, 0.25, 6, seed=2)
        assert rep.max_ratio / rep.median_ratio <= 1.3
        assert "H2 norm" in rep.extras["note"]

    def test_rejects_bad_c(self, grid32):
        with pytest.raises(ValueError):
            check_summation_interpolation(grid32, 2, 2.0, 6.0, 1.5, 2)


class TestDoi:
    def test_zero_datum(self, grid):
        rep = check_doi_local(zero_field(grid), zero_potential_set(grid), 1.5, 0.05)
        assert rep.max_ratio == 0.0

    def test_small_datum_order_one_kappa(self):
        g = make_grid(16, 32.0)
        rng = np.random.default_rng(5)
        u1 = Field(g, PHYSICAL,
                   0.05 * as_physical(sampling.localized_packet(g, -4, rng, width=4.0)).data)
        v = gaussian_potential(g, (0, 0, 0), 4.0, 0.15)
        ps = PotentialSet(v=v, a=(zero_field(g),) * 3, delta_target=1e9)
        rep = check_doi_local(u1, ps, 2.0, 0.01)
        assert rep.max_ratio <= 1.0

    def test_degenerates_to_initial_bound_at_short_horizon(self):
        g = make_grid(16, 32.0)
        rng = np.random.default_rng(5)
        u1 = Field(g, PHYSICAL,
                   0.05 * as_physical(sampling.localized_packet(g, -4, rng, width=4.0)).data)
        rep = check_doi_local(u1, zero_potential_set(g), 1.05, 0.005)
        assert abs(rep.max_ratio - 1.0) <= 0.05

    def test_rejects_long_horizon(self, grid):
        with pytest.raises(ValueError):
            check_doi_local(zero_field(grid), zero_potential_set(grid), 3.0, 0.05)


class TestReportType:
    @pytest.mark.parametrize("count", [1, 2, 5, 8])
    def test_median_is_np_median_bit_for_bit(self, count):
        rng = np.random.default_rng(count)
        for ratios in (rng.random(count) * 10.0 ** rng.integers(-3, 4, count),
                       [1.0 / 3.0] * (count - 1) + [np.inf], [0.1, 0.7] * count):
            rep = EstimateReport("x", list(ratios), "", make_grid(8, 1.0), None, 0, {})
            assert np.float64(rep.median_ratio).tobytes() == np.median(ratios).tobytes()

    def test_smo1_run_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median imports numpy.ma, some 10 ms of every harness process
        import pathlib
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from rlab import cli\n"
            "cfg = cli.ExperimentConfig({'run': {'scenario': 'harness:smo1', 'seed': '0'},\n"
            "                            'grid': {'n': '16', 'L': '16.0'},\n"
            "                            'scenario': {'samples': '2', 'band': '0'}})\n"
            f"cli.run(cfg, {str(tmp_path / 'run')!r})\n"
            "print('numpy.ma' in sys.modules)\n")
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={"PYTHONPATH": str(src)}, check=True)
        assert out.stdout.split() == ["False"]
        assert (tmp_path / "run" / "report.csv").exists()

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            EstimateReport(
                estimate_id="x", ratios=[1.0, float("nan")], sample_class="",
                grid=make_grid(8, 1.0), horizon=None, seed=0, extras={},
            )

    def test_json_carries_seed_and_class(self, tmp_path):
        import json

        from rlab import cli

        cli.run(cli.ExperimentConfig({
            "run": {"scenario": "harness:str1", "seed": "44"}, "grid": {"n": "16", "L": "16.0"},
            "scenario": {"p": "inf", "q": "2", "k_lo": "-2", "k_hi": "2", "samples": "2"}}),
            tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["seed"] == 44 and "band-flat" in doc["sample_class"]
        assert doc["grid"] == {"n": 16, "L": 16.0}
