"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).

All thresholds are frozen here, from the calibration runs recorded in the
scenario constants below; nothing is deferred to later tuning.  Scenario
data and seeds are deterministic, so every number in this module is
reproducible bit for bit on one platform.
"""

from contextlib import contextmanager

import numpy as np

from rlab import bands, sampling
from rlab.cli import ExperimentConfig, run
from rlab.duhamel import series_decay_report, wave_operator
from rlab.estimates import (
    admissible,
    check_dispersive_decay,
    check_strichartz,
    smoothing_band_signature,
)
from rlab.flows import (
    BootstrapParams,
    EvolveConfig,
    bootstrap_monitor,
    evolve_hamiltonian,
    evolve_linear,
    evolve_nonlinear,
    hamiltonian_energy,
    profile_norms,
    profiles,
)
from rlab.norms import sobolev_norm, x_norm
from rlab.potentials import PotentialSet, gaussian_potential, rescale_to_delta
from rlab.spectral import (
    PHYSICAL,
    Field,
    apply_multiplier,
    as_frequency,
    as_physical,
    free_propagate,
    l2_norm,
    make_grid,
)

from conftest import standard_potentials


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS")


def carrier_packet(grid, direction, sigma=4.0, carrier=0.6, advance=4.0,
                   amplitude=0.01):
    """Gaussian envelope times a fixed-modulus carrier, advanced along the
    free flow: the localized small-datum class of the scattering runs."""
    x1, x2, x3 = grid.coord_mesh
    d = np.asarray(direction, dtype=np.float64)
    d /= np.linalg.norm(d)
    xi0 = carrier * d
    env = np.exp(-(x1**2 + x2**2 + x3**2) / (2.0 * sigma**2))
    data = env * np.exp(1j * (xi0[0] * x1 + xi0[1] * x2 + xi0[2] * x3))
    f = Field(grid, PHYSICAL, data.astype(np.complex128))
    f = Field(grid, PHYSICAL, f.data / l2_norm(f))
    if advance:
        f = free_propagate(f, advance)
    return Field(grid, PHYSICAL, amplitude * f.data)


def test_criterion_1_spectral_fidelity():
    with criterion(1, "spectral fidelity"):
        for n in (8, 16, 32):
            g = make_grid(n, 12.0)
            rng = np.random.default_rng(n)
            for _ in range(10):
                data = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
                f = Field(g, PHYSICAL, data)
                fhat = as_frequency(f)
                assert abs(l2_norm(fhat) - l2_norm(f)) <= 1e-12 * l2_norm(f)
                rt = as_physical(fhat)
                assert np.max(np.abs(rt.data - f.data)) <= 1e-13 * np.max(np.abs(f.data))
            f = Field(g, PHYSICAL,
                      rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
            for t in (0.1, 1.0, 10.0):
                drift = abs(l2_norm(free_propagate(f, t)) - l2_norm(f))
                assert drift <= 1e-13 * l2_norm(f)


def test_criterion_2_littlewood_paley_suite():
    with criterion(2, "Littlewood-Paley suite"):
        for n, L in ((16, 32.0), (32, 24.0)):
            g = make_grid(n, L)
            total = np.zeros(g.shape)
            for k in bands.covering_band_range(g):
                total += bands.band_multiplier(g, k)
            r = np.sqrt(np.broadcast_to(g.xi_squared, g.shape))
            shells = (r >= g.dxi) & (r <= 0.9 * g.nyquist)
            assert np.max(np.abs(total[shells] - 1.0)) <= 1e-12
        # exact orthogonality two or more bands apart
        g = make_grid(16, 32.0)
        rng = np.random.default_rng(2)
        fhat = Field(g, "frequency",
                     rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        from conftest import band_indices, inner_product

        ks = list(band_indices(g))
        mid = ks[len(ks) // 2]
        for other in (mid + 2, mid + 4, mid - 3):
            assert inner_product(apply_multiplier(fhat, bands.band_multiplier(g, mid)),
                                 apply_multiplier(fhat, bands.band_multiplier(g, other))) == 0.0


def test_criterion_3_integrator_order():
    with criterion(3, "integrator order"):
        g = make_grid(16, 32.0)
        ps = standard_potentials(g)
        rng = np.random.default_rng(42)
        u1 = Field(g, PHYSICAL,
                   0.05 * as_physical(sampling.localized_packet(g, -4, rng, width=4.0)).data)

        def terminal(evolver, dt):
            cfg = EvolveConfig(t_end=2.0, dt=dt, snapshot_stride=10**6)
            return evolver(u1, ps, cfg, skip_certification=True).fields[-1].data

        for evolver in (evolve_linear, evolve_nonlinear):
            uA = terminal(evolver, 0.04)
            uB = terminal(evolver, 0.02)
            uC = terminal(evolver, 0.01)
            ratio = np.linalg.norm(uA - uB) / np.linalg.norm(uB - uC)
            assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2

        # Hamiltonian flow: wide potentials on a larger box keep the
        # product-aliasing floor at roundoff so the drift orders are clean
        gh = make_grid(32, 48.0)
        vh = gaussian_potential(gh, (0, 0, 0), 5.0, 0.05)
        ah = (
            gaussian_potential(gh, (1.0, 0, 0), 5.0, 0.04),
            gaussian_potential(gh, (0, 1.0, 0), 5.0, -0.03),
            gaussian_potential(gh, (0, 0, -1.0), 5.0, 0.035),
        )
        uh = Field(gh, PHYSICAL,
                   0.05 * as_physical(sampling.localized_packet(gh, -4, np.random.default_rng(42),
                                                                width=4.0)).data)
        ps = PotentialSet(v=vh, a=ah, delta_target=1.0)

        def drifts(dt):
            cfg = EvolveConfig(t_end=3.0, dt=dt,
                               snapshot_stride=max(1, int(round(0.25 / dt))))
            tr = evolve_hamiltonian(uh, ps, cfg)
            m = np.asarray([l2_norm(f) for f in tr.fields])
            h = np.asarray([hamiltonian_energy(f, ps) for f in tr.fields])
            return (float(np.max(np.abs(m / m[0] - 1.0))),
                    float(np.max(np.abs(h / h[0] - 1.0))))

        m1, h1 = drifts(0.08)
        m2, h2 = drifts(0.04)
        # energy drift is second order: halving dt cuts it by 4 (+-30%)
        assert 4.0 * 0.7 <= h1 / h2 <= 4.0 * 1.3
        # mass drift is bounded by O(dt^2): at least a factor-4-like
        # reduction under halving (the RK2 norm defect is in fact one order
        # better, which satisfies the bound from below), plus absolute bounds
        assert m1 / m2 >= 4.0 * 0.7
        for dt, m, h in ((0.08, m1, h1), (0.04, m2, h2)):
            assert m <= 0.01 * dt**2
            assert h <= 0.01 * dt**2


def test_criterion_4_dispersive_decay():
    with criterion(4, "dispersive decay"):
        g = make_grid(64, 64 * np.pi)
        rep = check_dispersive_decay(g, 0, horizon=(4.0, 16.0))
        assert rep.extras["flatness"] <= 2.0


def test_criterion_5_born_series_contraction():
    with criterion(5, "Born-series contraction"):
        g = make_grid(16, 48.0)
        base = standard_potentials(g)
        u1 = carrier_packet(g, (1.0, 0.0, 0.0))

        # calibrated natural certificate size of the base set is ~986.7;
        # delta and delta/2 sit at and below it
        delta = 990.0
        ps_full, _ = rescale_to_delta(base, delta)
        ps_half, _ = rescale_to_delta(base, delta / 2.0)
        rep_full = series_decay_report(u1, ps_full, 6, 14.0, 0.01, compare_with_flow=True)
        rep_half = series_decay_report(u1, ps_half, 5, 14.0, 0.01)

        # geometric band (x2) of consecutive ratios among potential-dressed
        # terms, in H10 and in X
        for ratios in (rep_full.ratios_h10[1:], rep_full.ratios_x[1:]):
            assert min(ratios) > 0
            assert max(ratios) / min(ratios) <= 2.0

        # partial sums converge to the Strang flow with a geometric tail
        errs = rep_full.partial_sum_errors
        assert all(b < a for a, b in zip(errs, errs[1:]))
        for prev, cur in zip(errs, errs[1:]):
            assert cur <= 2.5 * rep_full.rate * prev
        assert errs[-1] <= 1e-3 * errs[0]

        # halving delta halves the fitted rate within 30%
        ratio = rep_half.rate / rep_full.rate
        assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3


# frozen at calibration (seeds 0..4, grid 32^3, L=64, dt=0.05): mean kappa
WAVE_KAPPA_FROZEN = 1.0252


def test_criterion_6_wave_operator():
    with criterion(6, "wave operator"):
        g = make_grid(32, 64.0)
        ps = standard_potentials(g)
        kappas = []
        for seed in range(5):
            rng = sampling.sample_rng(77, seed)
            direction = rng.standard_normal(3)
            u1 = carrier_packet(g, direction, advance=6.0)
            res = wave_operator(u1, ps, 16.0, 0.05, skip_certification=True)
            tail = res.distances[1:]  # the dyadic trace from tau = 2
            assert all(b < a for a, b in zip(tail, tail[1:]))
            exponent = float(-np.polyfit(np.log(res.taus[1:]), np.log(tail), 1)[0])
            assert exponent > 0
            prof1 = free_propagate(u1, -1.0)
            rhs = float(sobolev_norm(prof1, 10)) + float(x_norm(prof1))
            gT = res.profiles[-1]
            lhs = float(sobolev_norm(gT, 10)) + float(x_norm(gT))
            kappas.append(lhs / rhs)
        for kap in kappas:
            assert abs(kap / WAVE_KAPPA_FROZEN - 1.0) <= 0.2
        assert max(kappas) / min(kappas) <= 1.2


def test_criterion_7_smoothing_signature():
    with criterion(7, "smoothing signature"):
        g = make_grid(64, 64.0)
        rows = smoothing_band_signature(g, 0, range(0, 9))
        withs = np.array([r["with"] for r in rows])
        gaps = np.array([r["gap"] for r in rows])
        # half-derivative applied: flat across bands (x2 band)
        assert withs.max() / withs.min() <= 2.0
        # omitted: the multiplier's effect grows like 1.1^(k/2) +- 25%
        ks = np.arange(2, 9)
        slope = float(np.polyfit(ks, np.log(gaps[2:]) / np.log(bands.BASE), 1)[0])
        assert 0.5 * 0.75 <= slope <= 0.5 * 1.25


def test_criterion_8_strichartz_admissibility():
    with criterion(8, "Strichartz admissibility"):
        assert admissible(2.0, 6.0)
        assert admissible(4.0, 3.0)
        assert admissible(np.inf, 2.0)
        for p, q in ((2.0, 5.0), (3.0, 3.0), (1.0, np.inf), (np.inf, np.inf)):
            assert not admissible(p, q)
        g = make_grid(16, 16.0)
        endpoint = check_strichartz(g, (np.inf, 2.0), 4, k_lo=-2, k_hi=2,
                                    nt=17, seed=3)
        assert abs(endpoint.max_ratio - 1.0) <= 1e-12
        r8 = check_strichartz(g, (2.0, 6.0), 8, k_lo=-2, k_hi=2, nt=17, seed=3)
        r16 = check_strichartz(g, (2.0, 6.0), 16, k_lo=-2, k_hi=2, nt=17, seed=3)
        assert r16.max_ratio >= r8.max_ratio
        assert r16.max_ratio / r8.max_ratio <= 1.2


def test_criterion_9_bootstrap_monitor():
    with criterion(9, "bootstrap monitor"):
        g = make_grid(16, 48.0)
        ps = standard_potentials(g)  # certified at delta_target = 1000
        from rlab.potentials import certify

        assert certify(ps, ps.delta_target).passed
        u1 = carrier_packet(g, (1.0, 0.5, -0.3))
        prof0 = free_propagate(u1, -1.0)
        eps0 = sobolev_norm(prof0, 10) + x_norm(prof0)
        bp = BootstrapParams(eps0=eps0, amplification=4.0)
        cfg = EvolveConfig(t_end=6.0, dt=0.01, snapshot_stride=50)
        tr = evolve_nonlinear(u1, ps, cfg)
        mon = bootstrap_monitor(profile_norms(tr), bp)
        assert not mon["exited"]
        for row in mon["rows"]:
            assert row["h10"] <= bp.eps1
            assert row["x"] <= bp.eps1
        # the monitor reports the actual values, never clipped copies
        prof = list(profiles(tr))
        recomputed = sobolev_norm(prof[-1], 10)
        assert abs(mon["rows"][-1]["h10"] - recomputed) <= 1e-12


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "determinism"):
        cfg_text = """
[run]
scenario = harness:str1
seed = 3

[grid]
n = 16
L = 16.0

[scenario]
samples = 8
p = 2.0
q = 6.0
k_lo = -2
k_hi = 2
"""
        p = tmp_path / "det.ini"
        p.write_text(cfg_text)

        def run_with(out, threads):
            cfg = ExperimentConfig.from_file(p)
            cfg.override("run", "threads", threads)
            return run(cfg, tmp_path / out)

        m1 = run_with("serial", 1)
        m2 = run_with("parallel", 4)
        m3 = run_with("again", 1)
        assert (tmp_path / "serial" / "report.csv").read_bytes() == (
            tmp_path / "parallel" / "report.csv"
        ).read_bytes()
        assert (tmp_path / "serial" / "report.csv").read_bytes() == (
            tmp_path / "again" / "report.csv"
        ).read_bytes()
        assert m1.cfg.config_hash() == m2.cfg.config_hash() == m3.cfg.config_hash()
