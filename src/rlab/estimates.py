"""Randomized empirical verification of the standalone inequalities:
Strichartz bounds, Kenig-Ponce-Vega local smoothing (homogeneous, dual,
inhomogeneous), the Ionescu-Kenig smoothing-Strichartz bound, band-limited
dispersive decay, a bilinear multiplier bound, the dominant-direction
partition, a summation/interpolation bound, and a Doi-type local
well-posedness bound.

Reported numbers are empirical maxima over finite sample sets on a finite
box and time ladder: lower bounds of the true operator constants, never
the constants themselves.  Reports carry the grid, horizon, sample class
and seed so that thresholds stay comparable across runs.  Samples are
independent with per-index derived seeds, so serial and parallel runs
agree bit for bit.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bands, sampling
from .duhamel import duhamel_trapezoid
from .flows import EvolveConfig, evolve_nonlinear, profiles
from .norms import (
    Trajectory,
    _wrap_note,
    lebesgue_norm,
    mixed_profile_norm,
    mixed_spacetime_norm,
    sobolev_norm,
    spacetime_norm,
    x_norm,
)
from .potentials import PotentialSet
from .spectral import (
    FREQUENCY,
    PHYSICAL,
    Field,
    Grid,
    apply_multiplier,
    as_frequency,
    as_physical,
    coefficient_norm,
    free_phase,
    free_power_profiles,
    half_derivative_weight,
    l2_norm,
)

PACKET_WIDTH = 3.0  # envelope width of the localized packets the checks sample
SIGNATURE_HORIZON, SIGNATURE_NT = (1.0, 6.5), 32  # smoothing_band_signature's ladder
SUMMATION_HORIZON = (1.0, 2.5)  # check_summation_interpolation's ladder
DIRECTION_THRESHOLD = 0.9  # |xi_j| >= 0.9 max_k |xi_k| on the support of chi_j


@dataclass(frozen=True)
class AdmissiblePair:
    """Strichartz-admissible exponents: 2 <= p, q <= inf, 2/p + 3/q = 3/2."""

    p: float
    q: float

    def __post_init__(self):
        if not admissible(self.p, self.q):
            raise ValueError(f"({self.p}, {self.q}) is not Strichartz admissible")


def admissible(p: float, q: float) -> bool:
    if p < 2 or q < 2:
        return False
    ip, iq = 1.0 / p, 1.0 / q  # 1.0 / inf is 0.0
    return abs(2.0 * ip + 3.0 * iq - 1.5) <= 1e-12


def conjugate_exponent(p: float) -> float:
    if p == np.inf:
        return 1.0
    return p / (p - 1.0)


@dataclass
class EstimateReport:
    """Ratios of one inequality over randomized samples; the maximum and median
    are properties of them."""

    estimate_id: str
    ratios: list[float]
    sample_class: str
    grid: Grid
    horizon: tuple | None
    seed: int
    extras: dict

    def __post_init__(self):
        # NaN anywhere fails both comparisons; an inf ratio passes them
        if not (self.max_ratio >= self.median_ratio >= 0):
            raise ValueError(f"{self.estimate_id}: need max_ratio >= median_ratio >= 0")

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))

    @property
    def median_ratio(self) -> float:
        """np.median(ratios) from a sort: np.median imports numpy.ma, ~10 ms a process."""
        r, h = sorted(self.ratios), len(self.ratios) // 2
        return float(r[h] if len(r) % 2 else (r[h - 1] + r[h]) / 2)


def _map_samples(fn, count: int, threads: int = 1) -> list:
    """Index-ordered sample map; parallel and serial give identical output."""
    if threads <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def wraparound_horizon(grid: Grid, xi_max: float, start_radius: float) -> float:
    """Latest safe end time for data that has spread to start_radius at t = 1:
    the fastest mode travels at speed 2 xi_max > 0 and must stay a 5%-of-box
    margin away from the antipodal plane at L/2."""
    return 1.0 + max(0.0, 0.45 * grid.length - start_radius) / (2.0 * xi_max)


def _time_ladder(grid: Grid, k: int, horizon: tuple[float, float] | None, nt: int,
                 advance: float = 0.0) -> np.ndarray:
    """nt equally spaced times across horizon for data up to band k that starts
    `advance` time units into its spreading; horizon None runs from t = 1 to
    the wrap-around time, and a horizon ending past it is a ValueError."""
    xi_max = 1.04 * bands.BASE ** (k + 1)
    t_wrap = wraparound_horizon(grid, xi_max, 2.0 * xi_max * advance)
    start, end = horizon or (1.0, t_wrap)
    if end > t_wrap:
        raise ValueError(
            f"horizon end {end:.3g} exceeds the wrap-around time "
            f"{t_wrap:.3g} for modes up to |xi| = {xi_max:.3g}"
        )
    return np.linspace(start, end, nt)


def _free_ladder(grid: Grid, fhat: np.ndarray, times: np.ndarray) -> Trajectory:
    """The spectra of e^{it Lap} f on the ladder, kept in frequency form, for
    the readers of the field itself (Strichartz, dispersive, summation)."""
    fields = [Field(grid, FREQUENCY, free_phase(grid, t) * fhat) for t in times]
    return Trajectory(times=times, fields=fields)


def _free_smoothing_norm(grid: Grid, support: np.ndarray, coeffs: np.ndarray,
                         times: np.ndarray, axis: int, multiplier: np.ndarray | None) -> float:
    """||m(D_j) e^{it Lap} f||_{Linf_xj L2_{t,trans}} on the ladder for the spectrum
    coeffs on support, from the Gram-matrix profiles of spectral.free_power_profiles:
    no field at any time.  m depends on xi_j alone (half_derivative_weight), so it is
    gathered at each support mode's index along axis."""
    if multiplier is not None:
        coeffs = multiplier.reshape(-1)[np.unravel_index(support, grid.shape)[axis]] * coeffs
    per_t = free_power_profiles(grid, support, coeffs, axis, times)
    return mixed_profile_norm(grid, per_t, times, axis, np.inf)


# ---------------------------------------------------------------- Strichartz

def strichartz_ratio(grid: Grid, pair: AdmissiblePair, f: Field,
                     times: np.ndarray) -> float:
    """||e^{it Lap} f||_{L^p_t L^q_x} / ||f||_{L^2} on the given ladder."""
    tr = _free_ladder(grid, as_frequency(f).data, times)
    return spacetime_norm(tr, pair.p, pair.q) / l2_norm(f)


def check_strichartz(grid: Grid, pair, samples: int, *, k_lo: int = -3,
                     k_hi: int = 3, horizon: tuple[float, float] | None = None,
                     nt: int = 33, seed: int = 0, threads: int = 1) -> EstimateReport:
    """Free-flow Strichartz ratios over band-flat complex Gaussian data."""
    pair = pair if isinstance(pair, AdmissiblePair) else AdmissiblePair(*pair)
    times = _time_ladder(grid, k_hi, horizon, nt)
    horizon = horizon or (1.0, float(times[-1]))

    def one(i):
        f = sampling.band_flat_field(grid, k_lo, k_hi, sampling.sample_rng(seed, i))
        return strichartz_ratio(grid, pair, f, times)

    ratios = _map_samples(one, samples, threads)
    return EstimateReport(
        "str1", ratios, f"band-flat k in [{k_lo},{k_hi}]", grid,
        horizon, seed, extras={"p": pair.p, "q": pair.q, "nt": nt},
    )


# ----------------------------------------------------------------- smoothing

def _forcing_sample(grid: Grid, k: int, axis: int, rng, times: np.ndarray,
                    *reps: str) -> list[Trajectory]:
    """Smooth-in-time localized forcing w1 cos(om1 t) f1 + w2 sin(om2 t) f2 of two
    packets, one Trajectory per rep in reps, each from the packets in that rep."""
    f1 = sampling.localized_packet(grid, k, rng, width=PACKET_WIDTH, axis_bias=axis)
    f2 = sampling.localized_packet(grid, k, rng, width=PACKET_WIDTH, axis_bias=axis)
    w1, w2 = 0.5 + rng.random(2)
    om1, om2 = 2.0 * rng.random(2)
    out = []
    for rep in reps:
        p1, p2 = (f.data if rep == FREQUENCY else as_physical(f).data for f in (f1, f2))
        out.append(Trajectory(times=times, fields=[
            Field(grid, rep, w1 * np.cos(om1 * t) * p1 + w2 * np.sin(om2 * t) * p2)
            for t in times]))
    return out


def _duhamel_ladder(grid: Grid, forcing: list[Field], times: np.ndarray,
                    multiplier: np.ndarray | None) -> Trajectory:
    """Cumulative trapezoid Duhamel integral int_{s<=t} e^{i(t-s)Lap} F(s) ds,
    spectra in and out: per interval one duhamel_trapezoid step, E the free_phase product."""
    out_fields = []
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for i, t in enumerate(times):
        if i > 0:
            dt = times[i] - times[i - 1]
            E = functools.partial(np.multiply, free_phase(grid, dt))
            acc = duhamel_trapezoid(acc, E, dt / 2.0, forcing[i - 1].data, forcing[i].data)
        U = acc if multiplier is None else multiplier * acc
        out_fields.append(Field(grid, FREQUENCY, U))
    return Trajectory(times=times, fields=out_fields)


def _flow_integral(tr: Trajectory) -> np.ndarray:
    """Spectrum of the trapezoid rule for integral e^{it Lap} F(t) dt over tr's spectra.

    The pushed-forward forcing e^{it Lap} F(t) needs no free multiplier between
    nodes, so each interval adds (dt/2) (prev + cur), holding two spectra
    instead of the stack."""
    acc = np.zeros(tr.grid.shape, dtype=np.complex128)
    prev = None
    for i, (t, F) in enumerate(zip(tr.times, tr.fields)):
        cur = free_phase(tr.grid, t) * F.data
        if i:
            acc = acc + (t - tr.times[i - 1]) / 2 * (prev + cur)
        prev = cur
    return acc


def check_smoothing(grid: Grid, variant: str, axis: int, samples: int, *,
                    band: int = 0, horizon: tuple[float, float] = (1.0, 3.5),
                    nt: int = 32, seed: int = 0, threads: int = 1,
                    half_derivative: bool = True) -> EstimateReport:
    """Local-smoothing ratios.

    homogeneous: ||D_j^(1/2) e^{it Lap} f||_{Linf_xj L2_{t,trans}} / ||f||_L2.
    dual:        ||D_j^(1/2) int e^{it Lap} F dt||_L2 / ||F||_{L1_xj L2_{t,trans}}.
    inhomogeneous: gains a full derivative on the retarded integral,
                 measured against the same mixed forcing norm.

    half_derivative=False omits the derivative multiplier; the ratio of the
    two runs is the measurable content of the half-derivative gain.
    """
    if variant not in ("homogeneous", "dual", "inhomogeneous"):
        raise ValueError(f"unknown smoothing variant {variant!r}")
    times = _time_ladder(grid, band, horizon, nt)
    if not half_derivative:
        mult = None
    elif variant == "inhomogeneous":
        mult = np.abs(grid.freq_mesh[axis])
    else:
        mult = half_derivative_weight(grid, axis)
    if variant == "homogeneous":
        def one(i):
            support, coeffs = sampling.packet_on_support(grid, band, sampling.sample_rng(seed, i),
                                                         PACKET_WIDTH, axis)
            return (_free_smoothing_norm(grid, support, coeffs, times, axis, mult)
                    / coefficient_norm(grid, coeffs))

    elif variant == "dual":
        def one(i):
            [tr_f] = _forcing_sample(grid, band, axis, sampling.sample_rng(seed, i), times,
                                     FREQUENCY)
            # first, so that a one-time ladder, which has no interval, raises its ValueError
            den = mixed_spacetime_norm(tr_f, axis, 1)
            acc = _flow_integral(tr_f)
            if mult is not None:
                acc = mult * acc
            return l2_norm(Field(grid, FREQUENCY, acc)) / den

    else:  # inhomogeneous
        def one(i):
            [tr_f] = _forcing_sample(grid, band, axis, sampling.sample_rng(seed, i), times,
                                     FREQUENCY)
            tr_d = _duhamel_ladder(grid, tr_f.fields, times, mult)
            num = mixed_spacetime_norm(tr_d, axis, np.inf)
            den = mixed_spacetime_norm(tr_f, axis, 1)
            return num / den

    bands.band_support(grid, band)  # here, or the pool's threads miss its unlocked cache together
    ratios = _map_samples(one, samples, threads)
    ids = {"homogeneous": "smo1", "dual": "smo2", "inhomogeneous": "smo3"}
    return EstimateReport(
        ids[variant], ratios, f"localized packets band {band}, axis-directed",
        grid, horizon, seed,
        extras={"axis": axis, "band": band, "half_derivative": half_derivative,
                "nt": nt},
    )


def smoothing_band_signature(grid: Grid, axis: int, ks) -> list[dict]:
    """Deterministic per-band homogeneous-smoothing ratios with and without
    the half-derivative multiplier (directed band kernels), on SIGNATURE_NT
    times across SIGNATURE_HORIZON.

    The with-ratio sits in a narrow band across k while the with/without
    gap grows like 1.1^(k/2): the half derivative exactly compensates the
    band growth.
    """
    ks = list(ks)
    times = _time_ladder(grid, max(ks), SIGNATURE_HORIZON, SIGNATURE_NT)
    mult = half_derivative_weight(grid, axis)
    rows = []
    for k in ks:
        f = sampling.directed_band_kernel(grid, k, axis)
        support = np.flatnonzero(f.data)
        coeffs, l2 = f.data.reshape(-1)[support], l2_norm(f)
        w = _free_smoothing_norm(grid, support, coeffs, times, axis, mult) / l2
        wo = _free_smoothing_norm(grid, support, coeffs, times, axis, None) / l2
        rows.append({"k": k, "with": w, "without": wo, "gap": w / wo})
    return rows


def check_smoothing_strichartz(grid: Grid, pair, axis: int, samples: int, *,
                               band: int = 0,
                               horizon: tuple[float, float] = (1.0, 3.5),
                               nt: int = 32, seed: int = 0,
                               threads: int = 1) -> EstimateReport:
    """||D_j^(1/2) int_{s<=t} e^{i(t-s)Lap} F ds||_{Linf_xj L2} over
    ||F||_{L^{p'}_t L^{q'}_x} for an admissible pair (p, q)."""
    pair = pair if isinstance(pair, AdmissiblePair) else AdmissiblePair(*pair)
    times = _time_ladder(grid, band, horizon, nt)
    mult = half_derivative_weight(grid, axis)
    pp, qq = conjugate_exponent(pair.p), conjugate_exponent(pair.q)

    def one(i):
        tr_f, tr_x = _forcing_sample(grid, band, axis, sampling.sample_rng(seed, i), times,
                                     FREQUENCY, PHYSICAL)
        tr_d = _duhamel_ladder(grid, tr_f.fields, times, mult)
        num = mixed_spacetime_norm(tr_d, axis, np.inf)
        den = spacetime_norm(tr_x, pp, qq)
        return num / den

    bands.band_support(grid, band)  # as in check_smoothing
    ratios = _map_samples(one, samples, threads)
    return EstimateReport(
        "ik-smostri", ratios, f"localized forcings band {band}", grid, horizon,
        seed, extras={"p": pair.p, "q": pair.q, "axis": axis, "nt": nt},
    )


# ------------------------------------------------------------------ decay

def check_dispersive_decay(grid: Grid, k: int,
                           horizon: tuple[float, float] = (4.0, 16.0), *,
                           n_points: int = 13) -> EstimateReport:
    """Tabulate t * ||e^{it Lap} f_k||_L6 for a localized band-k pulse.

    The flatness factor max/min over the ladder is the measurement; the
    datum is the band kernel already sampling.DISPERSIVE_ADVANCE units into
    its spreading, which keeps the whole window inside the dispersive regime.
    """
    times = _time_ladder(grid, k, horizon, n_points, sampling.DISPERSIVE_ADVANCE)
    f = sampling.dispersive_datum(grid, k)
    tr = _free_ladder(grid, as_frequency(f).data, times)
    products = np.asarray([float(t * lebesgue_norm(u, 6)) for t, u in zip(times, tr.fields)])
    flatness = float(products.max() / products.min())
    return EstimateReport(
        "dispersive", products.tolist(),
        f"band kernel k={k} advanced {sampling.DISPERSIVE_ADVANCE:g}",
        grid, horizon, seed=0,
        extras={
            "k": k,
            "flatness": flatness,
            "times": [float(t) for t in times],
            "datum_x_norm": x_norm(f),
            "datum_x_note": _wrap_note(f),
        },
    )


# ---------------------------------------------------------------- bilinear

def bilinear_apply(f: Field, g: Field, m1: np.ndarray, m2: np.ndarray) -> Field:
    """(2 pi)^-3-normalized bilinear operator with separable symbol
    m(xi, eta) = m1(xi - eta) m2(eta): reduces to (m1(D) f) * (m2(D) g),
    m1 and m2 multiplier arrays on the grid's modes, each applied before one as_physical."""
    a = as_physical(apply_multiplier(f, m1))
    b = as_physical(apply_multiplier(g, m2))
    return Field(f.grid, "physical", a.data * b.data)


def kernel_l1_norm(grid: Grid, m: np.ndarray) -> float:
    """L1 norm of the physical kernel of a multiplier array, by direct quadrature."""
    vals = np.broadcast_to(m, grid.shape).astype(np.complex128)
    return lebesgue_norm(as_physical(Field(grid, FREQUENCY, vals)), 1)


def check_bilinear(grid: Grid, m1: np.ndarray, m2: np.ndarray, p: float, q: float,
                   r: float, samples: int, *, seed: int = 0,
                   threads: int = 1) -> EstimateReport:
    """||B(f, g)||_{L^r} against ||F^-1 m||_{L^1} ||f||_{L^p} ||g||_{L^q},
    for separable symbols; requires the Hoelder relation 1/r = 1/p + 1/q."""
    if abs(1.0 / r - 1.0 / p - 1.0 / q) > 1e-12:  # 1.0 / inf is 0.0
        raise ValueError("exponents must satisfy 1/r = 1/p + 1/q")
    kernel = kernel_l1_norm(grid, m1) * kernel_l1_norm(grid, m2)

    def one(i):
        rng = sampling.sample_rng(seed, i)
        f = sampling.band_flat_field(grid, -3, 3, rng)
        g = sampling.band_flat_field(grid, -3, 3, rng)
        B = bilinear_apply(f, g, m1, m2)
        num = lebesgue_norm(B, r)
        den = kernel * lebesgue_norm(f, p) * lebesgue_norm(g, q)
        return num / den if den > 0 else 0.0

    ratios = _map_samples(one, samples, threads)
    return EstimateReport(
        "bilin", ratios, "band-flat k in [-3,3]", grid, None, seed,
        extras={"p": p, "q": q, "r": r, "kernel_l1": kernel},
    )


# ---------------------------------------------------------------- direction

def _components(grid: Grid):
    """|xi_j| for j = 1, 2, 3 on the full grid, and their pointwise maximum."""
    comps = [np.abs(np.broadcast_to(grid.freq_mesh[j], grid.shape)) for j in range(3)]
    return comps, np.maximum(np.maximum(comps[0], comps[1]), comps[2])


def direction_partition(grid: Grid):
    """Smooth angular partition chi_1 + chi_2 + chi_3 = 1 with
    |xi_j| >= DIRECTION_THRESHOLD * max_k |xi_k| on supp chi_j."""
    comps, biggest = _components(grid)
    safe = np.where(biggest > 0, biggest, 1.0)
    weights = []
    for j in range(3):
        ratio = np.where(biggest > 0, comps[j] / safe, 1.0)
        weights.append(bands._smoothstep((ratio - DIRECTION_THRESHOLD)
                                         / (1.0 - DIRECTION_THRESHOLD)))
    total = weights[0] + weights[1] + weights[2]
    return [w / total for w in weights]


def check_direction_partition(grid: Grid) -> EstimateReport:
    """Exhaustive grid scan of the partition and support conditions."""
    chis = direction_partition(grid)
    total = chis[0] + chis[1] + chis[2]
    sum_err = float(np.max(np.abs(total - 1.0)))
    comps, biggest = _components(grid)
    violations = 0
    for j in range(3):
        on_supp = chis[j] > 0
        violations += int(np.sum(on_supp & (comps[j] < DIRECTION_THRESHOLD * biggest)))
    ratios = [sum_err]
    return EstimateReport(
        "direction", ratios, "all grid frequencies", grid, None, seed=0,
        extras={"support_violations": violations, "threshold": DIRECTION_THRESHOLD,
                "partition_error": sum_err},
    )


# ---------------------------------------------------------------- summation

def check_summation_interpolation(grid: Grid, k: int, p: float, q: float,
                                  c: float, samples: int, *,
                                  seed: int = 0, threads: int = 1) -> EstimateReport:
    """kappa in ||e^{itLap} f_k||_{L^p_t L^q} <= kappa
    ||e^{itLap} f_k||^{1-c}_{L^{p(1-c)}_t L^q} * 1.1^{-8ck} * proxy^c,
    on 24 times across SUMMATION_HORIZON.

    The bootstrap constant in the right side is not a norm of the sample;
    we substitute the H^2 norm of the band datum and record that in every
    report.
    """
    if not (0 < c < 1):
        raise ValueError("need 0 < c < 1")
    times = _time_ladder(grid, k, SUMMATION_HORIZON, 24)

    def one(i):
        f = sampling.localized_packet(grid, k, sampling.sample_rng(seed, i),
                                      width=PACKET_WIDTH)
        tr = _free_ladder(grid, as_frequency(f).data, times)
        # both norms read the physical ladder: transform it once
        tr = Trajectory(times=times, fields=[as_physical(u) for u in tr.fields])
        lhs = spacetime_norm(tr, p, q)
        base = spacetime_norm(tr, p * (1.0 - c), q)
        proxy = sobolev_norm(f, 2)
        rhs = base ** (1.0 - c) * bands.BASE ** (-8.0 * c * k) * proxy**c
        return lhs / rhs if rhs > 0 else 0.0

    bands.band_support(grid, k)  # as in check_smoothing
    ratios = _map_samples(one, samples, threads)
    return EstimateReport(
        "summation", ratios, f"localized packets band {k}", grid, SUMMATION_HORIZON, seed,
        extras={"p": p, "q": q, "c": c, "k": k,
                "note": "bootstrap constant replaced by the H2 norm of the sample"},
    )


# --------------------------------------------------------------------- Doi

def check_doi_local(u1: Field, ps: PotentialSet, T: float, dt: float) -> EstimateReport:
    """Short-horizon bound: max_t ||f||_{H10} against
    ||f(1)||_{H10} + (T-1) (max_t ||f||_{H10})^2, f the profile of the
    quadratic flow."""
    if T - 1.0 > 1.0 + 1e-12:
        raise ValueError("Doi check is a short-horizon bound: need T - 1 <= 1")
    cfg = EvolveConfig(t_end=T, dt=dt, snapshot_stride=5)
    tr = evolve_nonlinear(u1, ps, cfg, skip_certification=True)
    h10s = [sobolev_norm(f, 10) for f in profiles(tr)]
    lhs = max(h10s)
    rhs = h10s[0] + (T - 1.0) * lhs**2
    kappa = lhs / rhs if rhs > 0 else 0.0
    return EstimateReport(
        "doi", [kappa], "quadratic flow profile", u1.grid, (1.0, T), seed=0,
        extras={"lhs": lhs, "rhs": rhs, "initial_h10": h10s[0], "dt": dt},
    )
