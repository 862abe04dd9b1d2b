import csv
import functools
import math
from collections import Counter

import numpy as np
import pytest

from rlab import cli, sampling
from rlab.duhamel import (
    WaveOperatorResult,
    _born_ladder,
    duhamel_trapezoid,
    series_decay_report,
    wave_operator,
)
from rlab.flows import EvolveConfig, _linear_operator, evolve_linear, profiles
from rlab.norms import sobolev_norm, x_norm
from rlab.potentials import PotentialSet
from rlab.spectral import (FREQUENCY, PHYSICAL, Field, as_frequency, as_physical, free_phase,
                           free_propagate, free_step, l2_norm, make_grid)

from conftest import (assert_small_batched_products, standard_potentials, zero_field,
                      zero_potential_set)


@pytest.fixture(scope="module")
def grid():
    return make_grid(16, 32.0)


@pytest.fixture(scope="module")
def datum(grid):
    rng = np.random.default_rng(42)
    f = as_physical(sampling.localized_packet(grid, -4, rng, width=4.0))
    return Field(grid, PHYSICAL, 0.01 * f.data)


@pytest.fixture(scope="module")
def potentials(grid):
    return standard_potentials(grid, delta_target=1e9)


class TestBornTerm:
    def test_order_zero_is_free_flow(self, grid, datum, potentials):
        term = _born_ladder(datum, potentials, 0, 2.0, 0.05)[0]
        ref = free_propagate(datum, 1.0)
        assert np.max(np.abs(term - ref.data)) < 1e-12

    def test_zero_potential_kills_higher_orders(self, grid, datum):
        terms = _born_ladder(datum, zero_potential_set(grid), 3, 2.0, 0.05)
        for term in terms[1:]:
            assert np.all(term == 0)

    def test_order_zero_profile_is_time_independent(self, grid, datum, potentials):
        # the free term's profile e^{-i t Lap} term_0(t) is constant in t
        profiles = []
        for t in (1.5, 2.0, 3.0):
            term = _born_ladder(datum, potentials, 0, t, 0.05)[0]
            profiles.append(free_propagate(Field(grid, PHYSICAL, term), -t).data)
        for p in profiles[1:]:
            assert np.max(np.abs(p - profiles[0])) < 1e-12

    def test_partial_sums_approach_the_flow(self, grid, datum, potentials):
        rep = series_decay_report(datum, potentials, 4, 2.0, 0.01,
                                  compare_with_flow=True)
        errs = rep.partial_sum_errors
        assert all(b < a for a, b in zip(errs[:4], errs[1:4]))

    def test_report_norms_are_those_of_the_ladder_terms(self, fft_count, datum, potentials):
        # the ladder at 16^3 makes no FFT; each term's H10 and X norms share
        # one fftn, and the X norm's line transforms are one-axis iffts
        rep = series_decay_report(datum, potentials, 3, 1.5, 0.25)
        assert fft_count.calls["fftn"] == 4 and fft_count.calls["ifftn"] == 0
        ladder = _born_ladder(datum, potentials, 3, 1.5, 0.25)
        terms = [Field(datum.grid, PHYSICAL, u) for u in ladder]
        assert rep.h10_norms == [sobolev_norm(f, 10) for f in terms]
        assert rep.x_norms == [x_norm(f) for f in terms]

    def test_rejects_time_off_the_dt_ladder(self, datum, potentials):
        # (2 - 1) / 0.3 is not an integer step count
        with pytest.raises(ValueError, match="integer"):
            _born_ladder(datum, potentials, 1, 2.0, 0.3)


class TestDuhamelTrapezoid:
    @pytest.mark.parametrize("form", ["spectral", "physical"])
    def test_factored_step_matches_the_unfactored_step(self, grid, form):
        # E (acc + c F(t)) + c F(t+dt) against E acc + c (E F(t) + F(t+dt))
        rng = np.random.default_rng(3)
        acc, f_prev, f_cur = (rng.standard_normal(grid.shape)
                              + 1j * rng.standard_normal(grid.shape) for _ in range(3))
        if form == "spectral":
            E = functools.partial(np.multiply, free_phase(grid, 0.05))
        else:
            E = free_step(grid, 0.05)
        c = -0.025j
        got = duhamel_trapezoid(acc, E, c, f_prev, f_cur)
        ref = E(acc) + c * (E(f_prev) + f_cur)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("form", ["spectral", "physical"])
    def test_reads_read_only_inputs_and_writes_none(self, grid, form):
        # the ladders hand it Field data (read-only) and, at set-up, one array as
        # both acc and f_prev; the step is the literal formula, bit for bit
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
                  for _ in range(3)]
        for x in arrays:
            x.flags.writeable = False
        if form == "spectral":
            E = functools.partial(np.multiply, free_phase(grid, 0.05))
        else:
            E = free_step(grid, 0.05)
        c = -0.025j
        kept = [x.copy() for x in arrays]
        acc, f_prev, f_cur = arrays
        for args in [(acc, f_prev, f_cur), (acc, acc, f_cur)]:
            got = duhamel_trapezoid(args[0], E, c, *args[1:])
            assert np.array_equal(got, E(args[0] + c * args[1]) + c * args[2])
        assert all(np.array_equal(x, x0) for x, x0 in zip(arrays, kept))


def _part(ps: PotentialSet, which: str) -> PotentialSet:
    """The full set, its electric part (V only) or its magnetic part (a only)."""
    z = zero_potential_set(ps.grid).v
    v = z if which == "magnetic" else ps.v
    a = (z, z, z) if which == "electric" else ps.a
    return PotentialSet(v=v, a=a, delta_target=ps.delta_target)


def _physical_ladder(u1: Field, ps: PotentialSet, order_max: int, n_steps: int,
                     dt: float) -> list[np.ndarray]:
    """Oracle: the same trapezoid recursion run in physical space, with every
    term and every L u sent through the free step (150 one-dimensional FFT passes
    a step at 6 orders: 13 full-grid pairs and 12 applications of L)."""
    op = _linear_operator(u1, ps, skip_certification=True)
    E = free_phase(u1.grid, dt)

    def free_step(u):
        return np.fft.ifftn(E * np.fft.fftn(u))

    terms = [u1.data.copy()] + [np.zeros_like(u1.data) for _ in range(order_max)]
    for _ in range(n_steps):
        new = [free_step(terms[0])]
        for n in range(1, order_max + 1):
            incr = (-1j * dt / 2.0) * (free_step(op(terms[n - 1])) + op(new[n - 1]))
            new.append(free_step(terms[n]) + incr)
        terms = new
    return terms


def _literal_ladder(u1: Field, ps: PotentialSet, order_max: int, n_steps: int,
                    dt: float) -> list[np.ndarray]:
    """The ladder's recursion as the out-of-place formula E(acc + c f_prev) + c f_cur,
    with no array shared between terms and carried L u_n."""
    op = _linear_operator(u1, ps, skip_certification=True)
    E = free_step(u1.grid, dt)
    h = -1j * dt / 2.0
    terms = [as_physical(u1).data.copy()] + [np.zeros(u1.grid.shape, complex)
                                             for _ in range(order_max)]
    l_prev = [op(terms[0])] + [np.zeros(u1.grid.shape, complex) for _ in range(order_max - 1)]
    for _ in range(n_steps):
        terms[0] = E(terms[0])
        for n in range(1, order_max + 1):
            l_cur = op(terms[n - 1])
            terms[n] = E(terms[n] + h * l_prev[n - 1]) + h * l_cur
            l_prev[n - 1] = l_cur
    return terms


class TestBornLadder:
    def test_is_the_literal_recursion_bit_for_bit(self, datum, potentials):
        # three steps at order 3: the zero terms the ladder starts with are also its
        # carried L u_1, L u_2, so a step that wrote into them would show here
        terms = _born_ladder(datum, potentials, 3, 1.3, 0.1)
        ref = _literal_ladder(datum, potentials, 3, 3, 0.1)
        assert all(np.any(r) for r in ref)
        for got, r in zip(terms, ref, strict=True):
            assert np.array_equal(got, r)

    @pytest.mark.parametrize("which", ["full", "electric", "magnetic"])
    def test_matches_the_physical_space_recursion(self, datum, potentials, which):
        ps = _part(potentials, which)
        terms = _born_ladder(datum, ps, 6, 2.0, 0.05)
        oracle = _physical_ladder(datum, ps, 6, 20, 0.05)
        for n, (got, ref) in enumerate(zip(terms, oracle, strict=True)):
            scale = np.max(np.abs(ref))
            assert scale > 0, n
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale, n

    @pytest.mark.parametrize("which,order_max,per_step", [
        ("full", 6, 39), ("electric", 6, 21), ("magnetic", 6, 39), ("full", 0, 3)])
    def test_axis_products_per_step(self, fft_count, datum, potentials, which, order_max,
                                    per_step):
        # one free step E (3 axis products) per order, 0 included, and #a
        # products per application of L, once per order below the top one
        ps = _part(potentials, which)

        def run(steps):
            _born_ladder(datum, ps, order_max, 1.0 + 0.25 * steps, 0.25)

        assert fft_count.products_per_step(run) == per_step
        assert fft_count.passes_per_step(run) == 0

    def test_born_step_at_16_is_small_batched_products(self, matmul_shapes, datum, potentials):
        _born_ladder(datum, potentials, 6, 1.25, 0.25)
        assert len(matmul_shapes) == 3 + 39  # the set-up's L u_0, then one step
        # E, once per order, is complex along axes 0 and 1 and real along the
        # last; every derivative product is real
        kinds = Counter(kind for _, _, kind in matmul_shapes)
        assert kinds == {"c": 7 * 2, "f": 3 + 7 + 6 * 3}
        assert_small_batched_products(matmul_shapes, 16)


class TestSeriesDecay:
    def test_zero_potentials_give_zero_ratios(self, grid, datum):
        rep = series_decay_report(datum, zero_potential_set(grid), 3, 2.0, 0.05)
        assert all(r == 0.0 for r in rep.ratios_h10)

    def test_halving_amplitudes_halves_the_rate(self, grid, datum, potentials):
        # the linear-flow Born term of order n scales exactly like lambda^n
        rep1 = series_decay_report(datum, potentials, 3, 2.0, 0.02)
        rep2 = series_decay_report(datum, potentials.scaled(0.5), 3, 2.0, 0.02)
        assert 0.5 - 0.15 <= rep2.rate / rep1.rate <= 0.5 + 0.15

    def test_csv_rows_shape(self, tmp_path):
        cfg = cli.ExperimentConfig({
            "run": {"scenario": "born-series", "seed": "3"}, "grid": {"n": "16", "L": "32.0"},
            "potential": {"amplitude_v": "0.15", "amplitude_a1": "0.12"},
            "scenario": {"orders": "2", "t": "1.5", "dt": "0.05"}})
        cli.run(cfg, tmp_path)
        with open(tmp_path / "series.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        grid = cli.build_grid(cfg)
        rep = series_decay_report(cli.build_datum(cfg, grid, cfg.seed),
                                  cli.build_potentials(cfg, grid), 2, 1.5, 0.05)
        assert [r["n"] for r in rows] == ["0", "1", "2"]
        assert math.isnan(float(rows[0]["ratio"]))
        assert float(rows[1]["ratio"]) == rep.ratios_h10[0]


class TestWaveOperator:
    def test_free_flow_trace_is_zero(self, grid, datum):
        res = wave_operator(datum, zero_potential_set(grid), 8.0, 0.05)
        assert all(d == 0.0 for d in res.distances)
        assert res.converged
        # g(T) is the constant profile e^{-i Lap} u1, not u1 itself
        ref = as_frequency(free_propagate(datum, -1.0)).data
        assert np.max(np.abs(res.profiles[-1].data - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_is_the_free_pull_back_of_the_recorded_linear_flow(self, grid, datum, potentials):
        res = wave_operator(datum, potentials, 4.0, 0.05, skip_certification=True)
        cfg = EvolveConfig(t_end=4.0, dt=0.05, snapshot_stride=20)
        tr = evolve_linear(datum, potentials, cfg, skip_certification=True)
        assert tr.times.tolist() == [1.0, 2.0, 3.0, 4.0]
        g = {t: f.data for t, f in zip(tr.times, profiles(tr))}
        assert res.taus == [1.0, 2.0]
        for tau, d in zip(res.taus, res.distances):
            assert d == sobolev_norm(Field(grid, FREQUENCY, g[2 * tau] - g[tau]), 10)
        assert np.array_equal(res.profiles[-1].data, g[4.0])

    @pytest.mark.parametrize("zero", [True, False], ids=["zero", "nonzero"])
    def test_first_profile_is_the_pull_back_of_the_datum(self, grid, datum, potentials, zero):
        ps = zero_potential_set(grid) if zero else potentials
        res = wave_operator(datum, ps, 4.0, 0.05, skip_certification=True)
        assert len(res.profiles) == 3
        g1 = res.profiles[0]
        assert g1.rep == FREQUENCY
        assert np.array_equal(g1.data, free_phase(grid, -1.0) * as_frequency(datum).data)
        ref = as_frequency(free_propagate(datum, -1.0)).data
        assert np.max(np.abs(g1.data - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_kappa_is_the_norm_quotient_of_criterion_6(self, grid, datum, potentials):
        res = wave_operator(datum, potentials, 4.0, 0.05, skip_certification=True)
        prof1 = Field(grid, FREQUENCY, free_phase(grid, -1.0) * as_frequency(datum).data)
        rhs = float(sobolev_norm(prof1, 10)) + float(x_norm(prof1))
        gT = res.profiles[-1]
        lhs = float(sobolev_norm(gT, 10)) + float(x_norm(gT))
        assert res.kappa == lhs / rhs

    def test_kappa_takes_no_forward_transform(self, fft_count, datum, potentials):
        # the profiles are spectra, so both norms read them as they are
        res = wave_operator(datum, potentials, 4.0, 0.05, skip_certification=True)
        before = fft_count.calls["fftn"]
        res.kappa
        assert fft_count.calls["fftn"] - before == 0

    @pytest.mark.parametrize("distances, converged", [
        ([1.0, 2.0, 1.5, 1.0], True),  # the first increment rises, the tail falls
        ([3.0, 2.0, 2.5, 1.0], False),  # the tail rises once
        ([3.0, 2.0, 2.0], False),  # a flat tail does not strictly decrease
        ([1.0, 0.0, 0.0], True),  # the tail vanishes
    ])
    def test_converged_reads_the_trace_from_tau_2(self, grid, distances, converged):
        n = len(distances)
        res = WaveOperatorResult(profiles=[zero_field(grid)] * (n + 1),
                                 taus=[2.0**j for j in range(n)], distances=distances)
        assert res.converged is converged

    def test_rejects_non_dyadic_horizon(self, grid, datum):
        for T in (9.0, 0.0, -4.0):
            with pytest.raises(ValueError, match="T must be a power of two, at least 2"):
                wave_operator(datum, zero_potential_set(grid), T, 0.05)

    def test_rejects_dyadic_time_off_the_dt_ladder(self, datum, potentials):
        # T = 4 is 10 steps of 0.3, but tau = 2 falls at step 3.33
        with pytest.raises(ValueError, match="dyadic time"):
            wave_operator(datum, potentials, 4.0, 0.3, skip_certification=True)

    def test_interacting_flow_contracts(self):
        # wide box so the packet's transit is over before it wraps
        g = make_grid(16, 48.0)
        x1, x2, x3 = g.coord_mesh
        env = np.exp(-(x1**2 + x2**2 + x3**2) / 32.0) * np.exp(1j * 0.6 * x1)
        f = Field(g, PHYSICAL, env.astype(np.complex128))
        f = Field(g, PHYSICAL, f.data / l2_norm(f))
        u1 = Field(g, PHYSICAL, 0.01 * free_propagate(f, 6.0).data)
        res = wave_operator(u1, standard_potentials(g, 1e9), 8.0, 0.05, skip_certification=True)
        # the dyadic tail contracts (the first increment is pre-asymptotic)
        assert res.distances[2] < res.distances[1]
        assert len(res.taus) == 3


SWEEP_A, SWEEP_BETAS = (0.0, 1.0, 3.0), (1e-1, 1e-2, 1e-3)  # denominator_sweep's a and beta
SWEEP_TAU_BETA, SWEEP_DTAU = 8.0, 5e-3  # its cutoff tau_max times beta, its node spacing


def regularized_denominator_check(a: float, beta: float, tau_max: float,
                                  dtau: float) -> complex:
    """The trapezoid quadrature on [0, tau_max] of the identity
    1/(a + i beta) = -i integral_0^inf e^{i tau (a + i beta)} dtau, the
    regularized denominator 1/(|xi|^2 - |eta|^2 + i beta) of the Born series.

    The rule uses the n + 1 = ceil(tau_max / dtau) + 1 equispaced nodes
    tau_k = k h, h = tau_max / n.  Its node values e^{k z}, z = i h (a + i beta),
    form a geometric sequence, so the rule is summed exactly:
    h [expm1((n + 1) z) / expm1(z) - (2 + expm1(n z)) / 2].
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    if not (tau_max > 0 and 0 < dtau < tau_max):
        raise ValueError("need 0 < dtau < tau_max")
    n = int(math.ceil(tau_max / dtau))
    h = tau_max / n
    z = 1j * h * (a + 1j * beta)
    total = np.expm1((n + 1) * z) / np.expm1(z) - (2.0 + np.expm1(n * z)) / 2.0
    return -1j * complex(h * total)


def denominator_sweep() -> list[dict]:
    """Residual table over the a values SWEEP_A and the beta ladder SWEEP_BETAS,
    with tau_max = SWEEP_TAU_BETA / beta (the integrand is e^-8 at the cutoff)
    and the node spacing SWEEP_DTAU."""
    rows = []
    for a in SWEEP_A:
        for beta in SWEEP_BETAS:
            tau_max = SWEEP_TAU_BETA / beta
            value = regularized_denominator_check(a, beta, tau_max, SWEEP_DTAU)
            rows.append({"a": a, "beta": beta, "tau_max": tau_max, "dtau": SWEEP_DTAU,
                         "value_re": value.real, "value_im": value.imag,
                         "residual": abs(value - 1.0 / (a + 1j * beta))})
    return rows


class TestRegularizedDenominator:
    def test_purely_imaginary_case(self):
        # 1 / (0 + 1i) = -i
        assert abs(regularized_denominator_check(0.0, 1.0, 30.0, 1e-3) - (-1j)) <= 1e-6

    def test_generic_case_matches_closed_form(self):
        value = regularized_denominator_check(3.0, 0.1, 200.0, 1e-3)
        assert abs(value - 1.0 / (3.0 + 0.1j)) < 1e-4

    def test_beta_sweep_converges_off_singularity(self):
        a = 2.0
        residuals = [abs(regularized_denominator_check(a, beta, 8.0 / beta, 5e-3)
                         - 1.0 / (a + 1j * beta)) for beta in (1e-1, 1e-2, 1e-3)]
        assert abs(1.0 / (a + 1e-3j) - 1.0 / a) < 1e-3  # pointwise limit
        assert max(residuals) < 0.05  # stays bounded through the sweep

    def test_trapezoid_second_order_convergence(self):
        res = [abs(regularized_denominator_check(1.0, 0.5, 60.0, d) - 1.0 / (1.0 + 0.5j))
               for d in (4e-2, 2e-2, 1e-2)]
        assert 3.0 <= res[0] / res[1] <= 5.0
        assert 3.0 <= res[1] / res[2] <= 5.0

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            regularized_denominator_check(1.0, 0.0, 10.0, 1e-3)

    def test_sweep_table_shape(self):
        rows = denominator_sweep()
        assert [(r["a"], r["beta"]) for r in rows] == [
            (a, beta) for a in (0.0, 1.0, 3.0) for beta in (1e-1, 1e-2, 1e-3)]
        for r in rows:
            assert r["tau_max"] * r["beta"] == pytest.approx(8.0) and r["dtau"] == 5e-3
            if r["a"] <= 1.0 and r["beta"] >= 1e-2:
                assert r["residual"] < 0.05
            # what is left is the tail e^{-tau_max beta} / |a + i beta| of the cut integral
            assert r["residual"] * abs(r["a"] + 1j * r["beta"]) <= 1.1 * math.exp(-8.0)


class TestClosedFormTrapezoid:
    @pytest.mark.parametrize("a", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("beta", [0.5, 0.1, 0.01])
    @pytest.mark.parametrize("tau_max,dtau", [(10.0, 1e-3), (7.3, 3e-3), (60.0, 0.07)])
    def test_equals_summed_trapezoid_rule(self, a, beta, tau_max, dtau):
        # n = 10000, 2434 (7.3 / 3e-3 is not an integer) and 858 intervals
        n = math.ceil(tau_max / dtau)
        taus = np.linspace(0.0, tau_max, n + 1)
        summed = -1j * np.trapezoid(np.exp(1j * taus * (a + 1j * beta)), taus)
        value = regularized_denominator_check(a, beta, tau_max, dtau)
        assert abs(value - summed) <= 1e-13 * abs(summed)
