import json
import logging
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from rlab import sampling
from rlab.errors import BlowupError
from rlab.flows import (
    BootstrapParams,
    _linear_operator,
    _linear_substep,
    _mass,
    _PotentialOperator,
    _rk2_substep,
    _step_count,
    _strang_loop,
    EvolveConfig,
    bootstrap_monitor,
    evolve_hamiltonian,
    evolve_linear,
    evolve_nonlinear,
    hamiltonian_energy,
    profile_norms,
    profiles,
    save_trajectory,
)
from rlab.duhamel import series_decay_report, wave_operator
from rlab.norms import sobolev_norm, x_norm
from rlab.potentials import PotentialSet, gaussian_potential
from rlab.spectral import (FREQUENCY, PHYSICAL, Field, as_frequency, as_physical,
                           free_phase, free_propagate, l2_norm, make_grid, read_snapshot)

from conftest import (assert_small_batched_products, standard_potentials, zero_field,
                      zero_potential_set)


@pytest.fixture(scope="module")
def grid():
    return make_grid(16, 32.0)


@pytest.fixture(scope="module")
def datum(grid):
    rng = np.random.default_rng(42)
    f = as_physical(sampling.localized_packet(grid, -4, rng, width=4.0))
    return Field(grid, PHYSICAL, 0.05 * f.data)


@pytest.fixture(scope="module")
def potentials(grid):
    v = gaussian_potential(grid, (0, 0, 0), 4.0, 0.08)
    a = (
        gaussian_potential(grid, (1.0, 0, 0), 4.0, 0.06),
        gaussian_potential(grid, (0, 1.0, 0), 4.0, -0.05),
        gaussian_potential(grid, (0, 0, -1.0), 4.0, 0.055),
    )
    return PotentialSet(v=v, a=a, delta_target=1000.0)


class TestEvolveConfig:
    def test_rejects_non_integral_step_count(self):
        with pytest.raises(ValueError):
            EvolveConfig(t_end=2.0, dt=0.3)

    def test_rejects_inconsistent_direction(self):
        with pytest.raises(ValueError):
            EvolveConfig(t_end=2.0, dt=-0.1)

    def test_refuses_backward_runs_up_front(self):
        # a run always starts at t = 1 and runs forward, so a t_end at or before 1
        # or a dt at or below 0 is refused at construction, before any step
        for t_end, dt in ((1.0, -0.1), (1.0, 0.1), (0.5, 0.1)):
            with pytest.raises(ValueError, match=r"^EvolveConfig runs forward from t = 1"):
                EvolveConfig(t_end=t_end, dt=dt)
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError, match="^dt must be positive"):
                EvolveConfig(t_end=2.0, dt=dt)
        with pytest.raises(TypeError):
            EvolveConfig(t_end=1.0, dt=-0.1, t_start=2.0)

    def test_rejects_a_dt_coarser_than_the_run(self):
        # (3 - 1) / 1e10 is within 1e-9 of 0 steps: the flow to t_end would never run
        with pytest.raises(ValueError, match="off the dt ladder"):
            EvolveConfig(t_end=3.0, dt=1e10)


class TestStepCount:
    def test_counts_steps_from_one(self):
        assert _step_count(2.0, 0.1, "t_end") == 10
        assert _step_count(1.0, 0.1, "t_end") == 0

    @pytest.mark.parametrize("dt", [0.0, -0.0, -0.1])
    def test_rejects_a_dt_at_or_below_zero(self, dt):
        with pytest.raises(ValueError, match=rf"^dt must be positive \(got {dt:g}\)$"):
            _step_count(2.0, dt, "t_end")

    @pytest.mark.parametrize("t_end", [0.5, 1.0 - 1e-12, -np.inf])
    def test_rejects_an_end_before_one(self, t_end):
        with pytest.raises(ValueError, match="stay at or above t = 1"):
            _step_count(t_end, 0.1, "t_end")

    @pytest.mark.parametrize("t_end, dt", [(np.inf, 0.1), (np.nan, 0.1), (2.0, np.nan),
                                           (2.0, np.inf)])
    def test_rejects_non_finite_times_and_dt(self, t_end, dt):
        with pytest.raises(ValueError, match=r"must be finite .* \(t_end .*, dt .*\)$"):
            _step_count(t_end, dt, "t_end")

    @pytest.mark.parametrize("t_end, dt", [(2.0, 0.3), (2.0, 1e10), (1.0 + 1e-12, 0.1)])
    def test_rejects_off_ladder_counts(self, t_end, dt):
        with pytest.raises(ValueError, match=r"t_end .* is off the dt ladder: \(t_end - 1\) / dt"):
            _step_count(t_end, dt, "t_end")

    @settings(max_examples=200, deadline=None)
    @given(dt=st.floats(0.01, 10.0), n=st.integers(0, 1000))
    def test_a_whole_number_of_steps_is_counted_exactly(self, dt, n):
        assert _step_count(1.0 + n * dt, dt, "t_end") == n


class TestBootstrapParams:
    def test_eps1(self):
        bp = BootstrapParams(eps0=0.01, amplification=10.0)
        assert bp.eps1 == 0.1

    def test_rejects_amplification_below_one(self):
        with pytest.raises(ValueError):
            BootstrapParams(eps0=0.01, amplification=0.5)


class TestBootstrapMonitor:
    # hand-written profile_norms rows around eps1 = 2 * 0.5 = 1
    BP = BootstrapParams(eps0=0.5, amplification=2.0)

    @staticmethod
    def rows(*pairs):
        return [{"t": 1.0 + 0.5 * i, "h10": h10, "x": x} for i, (h10, x) in enumerate(pairs)]

    @pytest.mark.parametrize("pairs, exit_time", [
        (((0.5, 0.5), (1.5, 0.5), (2.0, 2.0)), 1.5),  # h10 crosses first
        (((0.5, 0.5), (0.5, 0.9), (0.5, 1.2)), 2.0),  # x crosses first
        (((1.0, 1.0), (1.0, 1.0)), None),  # equal to eps1 is inside
        (((0.1, 0.2),), None),
    ])
    def test_exits_at_first_row_strictly_above_eps1(self, pairs, exit_time, caplog):
        with caplog.at_level(logging.WARNING, logger="rlab.flows"):
            mon = bootstrap_monitor(self.rows(*pairs), self.BP)
        assert mon["exited"] == (exit_time is not None)
        assert mon["exit_time"] == exit_time
        assert (mon["eps0"], mon["eps1"]) == (0.5, 1.0)
        # one warning per exit, however many rows lie above eps1
        exits = [r for r in caplog.records if "bootstrap exit" in r.message]
        assert len(exits) == mon["exited"]
        assert all(r.name == "rlab.flows" for r in exits)

    def test_rows_come_back_unclipped(self):
        rows = self.rows((0.5, 0.5), (7.0, 3.0), (9.0, 9.0))
        mon = bootstrap_monitor(rows, self.BP)
        assert mon["rows"] == self.rows((0.5, 0.5), (7.0, 3.0), (9.0, 9.0))


def _full_set_32():
    g = make_grid(32, 64.0)
    v = gaussian_potential(g, (0, 0, 0), 4.0, 0.08)
    a = tuple(gaussian_potential(g, (1.0, 0, 0), 4.0, 0.06) for _ in range(3))
    u0 = as_physical(sampling.localized_packet(g, -4, np.random.default_rng(1), width=4.0))
    return PotentialSet(v=v, a=a, delta_target=1000.0), u0


class TestPotentialOperator:
    def test_complex_coefficients_on_a_grid_mode(self, grid):
        # on u = e^{ik.x} the operator is multiplication by c + i sum_j b_j k_j
        rng = np.random.default_rng(3)
        c, b1, b2, b3 = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
                         for _ in range(4))
        k = grid.dxi * np.array([2.0, -3.0, 1.0])
        x1, x2, x3 = grid.coord_mesh
        u = np.exp(1j * (k[0] * x1 + k[1] * x2 + k[2] * x3))
        out = _PotentialOperator(grid, c, [b1, b2, b3])(u)
        expected = (c + 1j * (b1 * k[0] + b2 * k[1] + b3 * k[2])) * u
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_linear_operator_stores_real_coefficients(self, datum, potentials):
        # stored as complex128 so that no product casts them, imaginary parts exactly 0
        op = _linear_operator(datum, potentials, skip_certification=True)
        assert len(op.a) == 3
        for c, ref in [(op.v, potentials.v), *((aj, potentials.a[j]) for j, aj in op.a)]:
            assert c.dtype == np.complex128 and np.all(c.imag == 0)
            assert np.array_equal(c.real, ref.data.real)

    def test_linear_operator_reads_real_potentials_in_place(self, datum, potentials):
        op = _linear_operator(datum, potentials, skip_certification=True)
        assert np.shares_memory(op.v, potentials.v.data)
        for j, aj in op.a:
            assert np.shares_memory(aj, potentials.a[j].data)

    def test_linear_operator_copies_the_real_part_of_a_nearly_real_potential(self, datum,
                                                                             potentials):
        # imaginary parts up to PotentialSet's 1e-14 pass its check; the operator drops them
        tilted = [Field(f.grid, PHYSICAL, f.data + 1e-14j * (f.data != 0))
                  for f in (potentials.v, *potentials.a)]
        ps = PotentialSet(v=tilted[0], a=tuple(tilted[1:]), delta_target=1000.0)
        op = _linear_operator(datum, ps, skip_certification=True)
        for c, f in [(op.v, ps.v), *((aj, ps.a[j]) for j, aj in op.a)]:
            assert np.any(f.data.imag) and not np.shares_memory(c, f.data)
            assert c.dtype == np.complex128 and np.all(c.imag == 0)
            assert np.array_equal(c.real, f.data.real)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("which", ["full", "electric", "magnetic"])
    def test_matches_full_grid_derivatives(self, n, which):
        # white noise carries every mode, the Nyquist planes included
        g = make_grid(n, 32.0)
        rng = np.random.default_rng(n)
        c, b1, b2, b3, u = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
                            for _ in range(5))
        b = [b1, b2, b3]
        if which == "electric":
            b = [np.zeros(g.shape)] * 3
        if which == "magnetic":
            c = np.zeros(g.shape)
        uhat = np.fft.fftn(u)
        expected = c * u + sum(bj * np.fft.ifftn(1j * g.freq_mesh[j] * uhat)
                               for j, bj in enumerate(b))
        op = _PotentialOperator(g, c, b)
        assert np.max(np.abs(op(u) - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("which,per_step", [("full", 15), ("electric", 3)])
    def test_axis_products_per_linear_strang_step(self, fft_count, grid, datum, potentials,
                                                  which, per_step):
        # the merged half steps give one full free step (3 axis products) per
        # step, and the substep's 4 applications of L take one product per
        # nonzero a_j; no full-grid FFT is left in the loop
        a = potentials.a if which == "full" else (zero_field(grid),) * 3
        ps = PotentialSet(v=potentials.v, a=a, delta_target=potentials.delta_target)
        substep = _linear_substep(_linear_operator(datum, ps, skip_certification=True))

        def run(steps):
            _strang_loop(grid, datum.data, 0.05, steps, substep, set())

        assert fft_count.products_per_step(run) == per_step
        assert fft_count.passes_per_step(run) == 0

    def test_strang_step_at_32_is_small_batched_products(self, matmul_shapes):
        ps, u0 = _full_set_32()
        substep = _linear_substep(_linear_operator(u0, ps, skip_certification=True))
        _strang_loop(ps.grid, u0.data, 0.05, 1, substep, {1})
        assert len(matmul_shapes) == 3 + 12 + 3
        # each free half step is complex along axes 0 and 1 and real along the
        # last; the 12 derivative products are all real
        kinds = Counter(kind for _, _, kind in matmul_shapes)
        assert kinds == {"c": 2 + 2, "f": 1 + 12 + 1}
        assert_small_batched_products(matmul_shapes, 32)


class TestInPlaceKernels:
    def test_read_only_inputs_are_read_and_left_unchanged(self, grid, potentials):
        # Field data is read-only: the datum and the (complex) coefficients here
        rng = np.random.default_rng(5)
        u = 0.05 * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        u.flags.writeable = False
        coeffs = [potentials.v.data, *(ai.data for ai in potentials.a)]
        kept = [x.copy() for x in (u, *coeffs)]
        op = _PotentialOperator(grid, coeffs[0], coeffs[1:])
        kernels = {"operator": lambda w, dt: op(w), "taylor": _linear_substep(op),
                   "rk2": _rk2_substep(op, None),
                   "rk2-square": _rk2_substep(op, lambda x: grid.dealias(x * x))}
        for name, kernel in kernels.items():
            assert np.array_equal(kernel(u, 0.05), kernel(u.copy(), 0.05)), name
            assert all(np.array_equal(x, x0) for x, x0 in zip((u, *coeffs), kept)), name

    def test_linear_substep_peak_memory_at_32(self):
        # the temporaries of one 32^3 full-set substep, result included: at most
        # 4.25 n^3 complex arrays under tracemalloc (5.2 with two derivative
        # arrays of the operator alive at once)
        ps, u1 = _full_set_32()
        substep = _linear_substep(_linear_operator(u1, ps, skip_certification=True))
        u0 = u1.data
        substep(u0, 0.05)  # builds the derivative operator and its per-thread buffer
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = substep(u0, 0.05)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == u0.shape
        assert peak <= 4.25 * u0.size * 16

    @pytest.mark.parametrize("n", [16, 32])
    def test_guard_mass_is_the_sum_of_squares(self, n):
        rng = np.random.default_rng(n)
        u = rng.standard_normal((n,) * 3) + 1j * rng.standard_normal((n,) * 3)
        ref = np.sum(np.abs(u) ** 2)
        assert abs(_mass(u) - ref) <= 1e-14 * ref
        # and the mass the loop's diagnostics report: a doubled field trips the guard
        g = make_grid(n, 32.0)
        with pytest.raises(BlowupError) as err:
            _strang_loop(g, u, 0.1, 3, lambda w, dt: 2.0 * w, set())
        assert abs(err.value.mass_before**2 / g.dx**3 - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_trips_guard(self, grid, datum, bad):
        def substep(w, dt):
            w = w.copy()
            w[3, 1, 4] = bad
            return w

        with pytest.raises(BlowupError) as err:
            _strang_loop(grid, datum.data, 0.1, 5, substep, {5})
        assert err.value.step == 1


class TestEvolveLinear:
    def test_zero_potential_matches_free_flow(self, grid, datum):
        cfg = EvolveConfig(t_end=2.0, dt=0.05, snapshot_stride=5)
        tr = evolve_linear(datum, zero_potential_set(grid), cfg)
        for t, f in zip(tr.times, tr.fields):
            ref = free_propagate(datum, t - 1.0)
            assert np.max(np.abs(f.data - ref.data)) < 1e-10

    def test_single_step_bit_identical_to_free_propagate(self, grid, datum):
        cfg = EvolveConfig(t_end=1.05, dt=0.05)
        tr = evolve_linear(datum, zero_potential_set(grid), cfg)
        ref = free_propagate(datum, 0.05)
        assert np.array_equal(tr.fields[-1].data, ref.data)

    @settings(max_examples=40, deadline=None)
    @given(steps=st.integers(1, 12), stride=st.integers(1, 5),
           dt=st.sampled_from([0.01, 0.05, 0.1]))
    def test_free_snapshots_bit_identical_to_one_free_propagate(self, grid, datum, steps,
                                                                stride, dt):
        # the zero potential's flow is the exact free multiplier per record:
        # the datum at step 0, one free_propagate by m dt at step m
        ps = zero_potential_set(grid)
        cfg = EvolveConfig(t_end=1.0 + steps * dt, dt=dt, snapshot_stride=stride)
        tr = evolve_linear(datum, ps, cfg)
        recorded = sorted(set(range(0, steps + 1, stride)) | {steps})
        assert len(tr.fields) == len(recorded)
        assert tr.fields[0] is datum
        for m, f in zip(recorded[1:], tr.fields[1:]):
            assert np.array_equal(f.data, free_propagate(datum, m * dt).data)

    @settings(max_examples=30, deadline=None)
    @given(amplitude=st.floats(0.05, 5.0), dt=st.sampled_from([0.01, 0.05, 0.1]),
           steps=st.integers(1, 20))
    def test_mass_conserved_for_real_electric_potential(self, grid, datum, amplitude, dt,
                                                       steps):
        # with a = 0 the substep multiplies by T4(-i dt V(x)), the 4-term Taylor
        # polynomial of e^{-i dt V}, and |T4(iy)|^2 = 1 - y^6/72 + y^8/576; the
        # free half steps are unitary, so each step moves the mass by at most
        # (dt max|V|)^6 / 72
        v = gaussian_potential(grid, (0, 0, 0), 4.0, amplitude)
        ps = PotentialSet(v=v, a=(zero_field(grid),) * 3, delta_target=1.0)
        cfg = EvolveConfig(t_end=1.0 + steps * dt, dt=dt)
        tr = evolve_linear(datum, ps, cfg, skip_certification=True)
        per_step = (dt * np.max(np.abs(v.data))) ** 6 / 72
        m0 = l2_norm(tr.fields[0]) ** 2
        for n, f in enumerate(tr.fields):
            assert abs(l2_norm(f) ** 2 / m0 - 1.0) <= n * per_step + 1e-13

    def test_constant_potential_is_global_phase(self, grid, datum):
        c = 0.037
        ps = PotentialSet(
            v=Field(grid, PHYSICAL, np.full(grid.shape, c, dtype=np.complex128)),
            a=(zero_field(grid),) * 3,
            delta_target=1000.0,
        )
        cfg = EvolveConfig(t_end=2.0, dt=0.01)
        tr = evolve_linear(datum, ps, cfg, skip_certification=True)
        ref = free_propagate(datum, 1.0).data * np.exp(-1j * c * 1.0)
        assert np.max(np.abs(tr.fields[-1].data - ref)) < 1e-8

    def test_strang_self_convergence_order_two(self, grid, datum, potentials):
        def terminal(dt):
            cfg = EvolveConfig(t_end=2.0, dt=dt, snapshot_stride=10**6)
            return evolve_linear(datum, potentials, cfg,
                                 skip_certification=True).fields[-1].data

        uA, uB, uC = terminal(0.04), terminal(0.02), terminal(0.01)
        e1 = np.linalg.norm(uA - uB)
        e2 = np.linalg.norm(uB - uC)
        assert 3.2 <= e1 / e2 <= 4.8

    def test_uncertified_potentials_rejected_without_override(self, grid, datum):
        ps = PotentialSet(
            v=gaussian_potential(grid, (0, 0, 0), 4.0, 0.5),
            a=(zero_field(grid),) * 3,
            delta_target=1e-6,
        )
        cfg = EvolveConfig(t_end=1.2, dt=0.05)
        with pytest.raises(ValueError):
            evolve_linear(datum, ps, cfg)
        evolve_linear(datum, ps, cfg, skip_certification=True)

    def test_blowup_guard_trips(self, grid, datum):
        violent = PotentialSet(
            v=zero_field(grid),
            a=(gaussian_potential(grid, (0, 0, 0), 4.0, 40.0),) * 3,
            delta_target=1000.0,
        )
        cfg = EvolveConfig(t_end=3.0, dt=0.5)
        with pytest.raises(BlowupError):
            evolve_linear(datum, violent, cfg, skip_certification=True)

    def test_nan_substep_trips_guard_at_its_step(self, grid, datum):
        calls = []

        def substep(u, dt):
            calls.append(dt)
            return u * np.nan if len(calls) == 2 else u

        with pytest.raises(BlowupError) as err:
            _strang_loop(grid, datum.data.copy(), 0.1, 10, substep, {10})
        assert err.value.step == 2
        assert len(calls) == 2


class TestEvolveNonlinear:
    def test_zero_datum_stays_zero(self, grid):
        cfg = EvolveConfig(t_end=2.0, dt=0.05)
        tr = evolve_nonlinear(zero_field(grid), zero_potential_set(grid), cfg)
        assert np.all(tr.fields[-1].data == 0)

    def test_small_datum_stays_perturbative(self, grid, datum):
        # the H10 profile norm moves by less than the datum's own size
        cfg = EvolveConfig(t_end=2.0, dt=0.01, snapshot_stride=20)
        tr = evolve_nonlinear(datum, zero_potential_set(grid), cfg)
        prof = list(profiles(tr))
        h0 = float(sobolev_norm(prof[0], 10))
        sup = max(float(sobolev_norm(f, 10)) for f in prof)
        assert sup <= 2.0 * h0

    def test_dealias_off_runs(self, grid, datum, potentials):
        cfg = EvolveConfig(t_end=1.2, dt=0.05, dealias="off")
        tr = evolve_nonlinear(datum, potentials, cfg, skip_certification=True)
        assert np.isfinite(tr.fields[-1].data).all()

    def test_strang_self_convergence_order_two(self, grid, datum, potentials):
        def terminal(dt):
            cfg = EvolveConfig(t_end=2.0, dt=dt, snapshot_stride=10**6)
            return evolve_nonlinear(datum, potentials, cfg,
                                    skip_certification=True).fields[-1].data

        uA, uB, uC = terminal(0.04), terminal(0.02), terminal(0.01)
        ratio = np.linalg.norm(uA - uB) / np.linalg.norm(uB - uC)
        assert 3.2 <= ratio <= 4.8

    def test_bootstrap_monitor_reports_exit_without_clipping(self, grid, datum,
                                                             potentials, caplog):
        bp = BootstrapParams(eps0=1e-6, amplification=1.0)
        cfg = EvolveConfig(t_end=1.5, dt=0.05, snapshot_stride=5)
        tr = evolve_nonlinear(datum, potentials, cfg, skip_certification=True)
        with caplog.at_level(logging.WARNING):
            mon = bootstrap_monitor(profile_norms(tr), bp)
        assert mon["exited"] and mon["exit_time"] == 1.0
        assert any("bootstrap exit" in r.message for r in caplog.records)
        # norms are reported, never clipped
        assert mon["rows"][0]["h10"] > bp.eps1

    def test_bootstrap_monitor_contained_run(self, grid, datum, potentials):
        bp = BootstrapParams(eps0=1.0, amplification=10.0)
        cfg = EvolveConfig(t_end=1.5, dt=0.05, snapshot_stride=5)
        tr = evolve_nonlinear(datum, potentials, cfg, skip_certification=True)
        assert not bootstrap_monitor(profile_norms(tr), bp)["exited"]


class TestEvolveHamiltonian:
    def test_free_limit(self, grid, datum):
        cfg = EvolveConfig(t_end=2.0, dt=0.05, snapshot_stride=10)
        tr = evolve_hamiltonian(datum, zero_potential_set(grid), cfg)
        ref = free_propagate(datum, 1.0)
        assert np.max(np.abs(tr.fields[-1].data - ref.data)) < 1e-10

    def test_mass_conservation_over_thousand_steps(self, grid, datum, potentials):
        cfg = EvolveConfig(t_end=3.0, dt=0.002, snapshot_stride=100)
        tr = evolve_hamiltonian(datum, potentials, cfg)
        m = np.asarray([l2_norm(f) for f in tr.fields])
        assert np.max(np.abs(m / m[0] - 1.0)) <= 1e-6

    def test_energy_drift_small(self, grid, datum, potentials):
        cfg = EvolveConfig(t_end=3.0, dt=0.002, snapshot_stride=100)
        tr = evolve_hamiltonian(datum, potentials, cfg)
        h = np.asarray([hamiltonian_energy(f, potentials) for f in tr.fields])
        assert np.max(np.abs(h / h[0] - 1.0)) <= 1e-5

    def test_datum_read_in_either_representation(self, grid, datum, potentials):
        # a PotentialSet holds physical fields only; the datum may be a spectrum
        u_hat = as_frequency(datum)
        energy = hamiltonian_energy(datum, potentials)
        assert hamiltonian_energy(u_hat, potentials) == pytest.approx(energy, rel=1e-12)
        cfg = EvolveConfig(t_end=1.2, dt=0.05)
        ref = evolve_hamiltonian(datum, potentials, cfg).fields[-1].data
        out = evolve_hamiltonian(u_hat, potentials, cfg).fields[-1].data
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


_CHECK_CFG = EvolveConfig(t_end=1.1, dt=0.05)
_GRID_CHECKED = {
    "evolve_linear": lambda u, ps: evolve_linear(u, ps, _CHECK_CFG, skip_certification=True),
    "evolve_nonlinear": lambda u, ps: evolve_nonlinear(u, ps, _CHECK_CFG,
                                                       skip_certification=True),
    "evolve_hamiltonian": lambda u, ps: evolve_hamiltonian(u, ps, _CHECK_CFG),
    "hamiltonian_energy": hamiltonian_energy,
    "series_decay_report": lambda u, ps: series_decay_report(u, ps, 2, 1.1, 0.05),
    "wave_operator": lambda u, ps: wave_operator(u, ps, 2.0, 0.05, skip_certification=True),
}


@pytest.mark.parametrize("flow,zero", [*((name, False) for name in _GRID_CHECKED),
                                       ("evolve_linear", True), ("wave_operator", True)])
def test_a_datum_off_its_potentials_grid_is_refused(flow, zero):
    # same shape, other box: without the check the flows run on mismatched samples;
    # a zero set takes the free-flow branch of evolve_linear and wave_operator
    g = make_grid(16, 48.0)
    u1 = Field(g, PHYSICAL, 0.05 * as_physical(
        sampling.localized_packet(g, -4, np.random.default_rng(42), width=4.0)).data)
    on = make_grid(16, 24.0)
    ps = zero_potential_set(on) if zero else standard_potentials(on)
    with pytest.raises(ValueError, match=r"length=48\.0.*length=24\.0"):
        _GRID_CHECKED[flow](u1, ps)


class TestProfile:
    def test_profiles_yields_the_pull_back_of_each_snapshot(self, grid, datum, potentials):
        cfg = EvolveConfig(t_end=1.5, dt=0.05, snapshot_stride=5)
        tr = evolve_linear(datum, potentials, cfg, skip_certification=True)
        gen = profiles(tr)
        assert isinstance(gen, types.GeneratorType)
        got = list(gen)
        assert len(got) == len(tr.fields) == 3
        for t, u, f in zip(tr.times, tr.fields, got):
            # the spectrum free_phase(-t) uhat, within roundoff of the physical pull-back
            assert f.rep == FREQUENCY
            assert np.array_equal(f.data, free_phase(grid, -t) * as_frequency(u).data)
            ref = as_frequency(free_propagate(u, -t)).data
            assert np.max(np.abs(f.data - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_free_flow_profile_constant(self, grid, datum):
        cfg = EvolveConfig(t_end=3.0, dt=0.05, snapshot_stride=10)
        prof = list(profiles(evolve_linear(datum, zero_potential_set(grid), cfg)))
        base = prof[0].data
        for f in prof[1:]:
            assert np.max(np.abs(f.data - base)) < 1e-12

    def test_profile_norms_transform_each_profile_once(self, fft_count, grid, datum):
        cfg = EvolveConfig(t_end=1.5, dt=0.05, snapshot_stride=5)
        tr = evolve_linear(datum, zero_potential_set(grid), cfg)
        fft_count.calls.clear()
        rows = profile_norms(tr)
        # the pull-back's one fftn per snapshot serves both norms
        assert fft_count.calls["fftn"] == len(tr.fields) == 3
        assert fft_count.calls["ifftn"] == 0
        for t, f, row in zip(tr.times, profiles(tr), rows):
            assert row == {"t": t, "h10": sobolev_norm(f, 10), "x": x_norm(f)}

    def test_profile_at_start_is_pullback_of_datum(self, grid, datum):
        cfg = EvolveConfig(t_end=1.2, dt=0.05)
        prof = list(profiles(evolve_linear(datum, zero_potential_set(grid), cfg)))
        ref = as_frequency(free_propagate(datum, -1.0)).data
        assert np.max(np.abs(prof[0].data - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestPersistence:
    def test_round_trip(self, tmp_path, grid, datum):
        cfg = EvolveConfig(t_end=1.2, dt=0.05, snapshot_stride=2)
        tr = evolve_linear(datum, zero_potential_set(grid), cfg)
        save_trajectory(tr, tmp_path / "run", 2, "abc")
        index = json.loads((tmp_path / "run" / "index.json").read_text())
        assert_allclose(index["times"], tr.times)
        assert (index["stride"], index["config_hash"]) == (2, "abc")
        back = [read_snapshot(tmp_path / "run" / name) for name in index["snapshots"]]
        assert len(back) == len(tr.fields)
        # snapshots quantize to complex64
        for a, b in zip(back, tr.fields):
            assert np.max(np.abs(a.data - b.data)) < 1e-6 * max(1.0, np.max(np.abs(b.data)))
