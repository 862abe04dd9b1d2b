"""Born/Duhamel series for the linear flow and the scattering wave operator.

The linear equation i du/dt + Laplacian u = L u with L = a . grad + V has
the iterated Duhamel representation

    u = sum_n u_n,   u_0(t) = e^{i (t-1) Laplacian} u_1,
    u_n(t) = -i integral_1^t e^{i (t-s) Laplacian} L u_{n-1}(s) ds,

so term n carries n potential applications.  All orders are advanced
together on one fixed dt ladder by the trapezoid exponential integrator
(Hochbruck & Ostermann, Acta Numerica 2010), in physical space: with
E = e^{i dt Laplacian} the free step, the axis operator of
p = e^{-i dt xi_j^2} along the three axes (spectral.free_step), and
h = -i dt/2,

    u_0(t+dt) = E u_0(t),
    u_n(t+dt) = E [ u_n(t) + h L u_{n-1}(t) ] + h L u_{n-1}(t+dt),

one duhamel_trapezoid step per order, factored so that E applies once.
L u_{n-1}(t+dt) is carried into the next step as its L u_{n-1}(t), so each
step applies L once per order below the top one, at #a axis products (#a
the nonzero magnetic components), and E once per order, at 3: 39 axis
products a step at 6 orders with the full set.  The cost is
O(order * steps), not O(steps^order).  The numerical series keeps the
plain Duhamel integral: the measurable content of the
frequency-differentiated expansion is the geometric decay of the terms in
both the H^10 and X norms, which series_decay_report takes from one spectrum
per term of _born_ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flows import _linear_flow, _linear_operator, _run, _step_count, profiles
from .norms import Trajectory, sobolev_norm, x_norm
from .potentials import PotentialSet
from .spectral import FREQUENCY, PHYSICAL, Field, as_frequency, as_physical, free_step


def duhamel_trapezoid(acc: np.ndarray, E: Callable, c: complex, f_prev: np.ndarray,
                      f_cur: np.ndarray) -> np.ndarray:
    """One trapezoid step of acc(t) = integral e^{i(t-s) Lap} F(s) ds, factored so
    that the free step E = e^{i dt Lap} applies once: acc(t+dt) = E(acc(t) +
    c F(t)) + c F(t+dt), c = dt/2 times the integral's prefactor.  E is free_step
    on physical arrays (the Born ladder), the product by free_phase on spectra.
    It allocates one temporary and writes no input: inputs may be read-only."""
    w = c * f_prev
    w += acc
    out = E(w)
    out += np.multiply(f_cur, c, out=w)
    return out


def _born_ladder(u1: Field, ps: PotentialSet, order_max: int, t_end: float,
                 dt: float) -> list[np.ndarray]:
    """Physical-space arrays of terms 0..order_max at time t_end; term n carries n
    applications of L = a . grad + V."""
    grid = u1.grid
    n_steps = _step_count(t_end, dt, "t")
    op = _linear_operator(u1, ps, skip_certification=True)
    E = free_step(grid, dt)
    h = -1j * dt / 2.0
    terms = [as_physical(u1).data]
    terms += [np.zeros(grid.shape, dtype=np.complex128) for _ in range(order_max)]
    # l_prev[n] = L u_n at the current time; u_n = 0 at t = 1 for n >= 1
    l_prev = [op(terms[0])] + terms[1:order_max] if order_max else []
    for _ in range(n_steps):
        terms[0] = E(terms[0])
        for n in range(1, order_max + 1):
            l_cur = op(terms[n - 1])
            terms[n] = duhamel_trapezoid(terms[n], E, h, l_prev[n - 1], l_cur)
            l_prev[n - 1] = l_cur
    return terms


def _ratios(vals: list[float]) -> list[float]:
    """Consecutive ratios vals[n+1] / vals[n], 0 where vals[n] is 0."""
    return [b / a if a > 0 else 0.0 for a, b in zip(vals, vals[1:])]


def _fit_rate(norms: list[float]) -> float:
    """Geometric rate fitted on orders >= 1 (least squares on log norms)."""
    points = [(n, math.log(v)) for n, v in enumerate(norms) if n >= 1 and v > 0]
    if len(points) < 2:
        return 0.0
    return float(np.exp(np.polyfit(*zip(*points), 1)[0]))


@dataclass(frozen=True)
class BornSeriesReport:
    """Per-order norms of the Born series; the consecutive ratios and the
    fitted rate are properties of them."""

    h10_norms: list[float]
    x_norms: list[float]
    partial_sum_errors: list[float] | None = None

    @property
    def ratios_h10(self) -> list[float]:
        return _ratios(self.h10_norms)

    @property
    def ratios_x(self) -> list[float]:
        return _ratios(self.x_norms)

    @property
    def rate(self) -> float:
        return _fit_rate(self.h10_norms)


def series_decay_report(u1: Field, ps: PotentialSet, order_max: int, t: float,
                        dt: float, *, compare_with_flow: bool = False) -> BornSeriesReport:
    """Tabulate ||term_n||_{H10} and x_norm(term_n), ratios, fitted rate.

    With compare_with_flow=True, also the H^10 distances between the
    partial sums and the Strang solution of the same linear equation.
    """
    if order_max < 2:
        raise ValueError("need order_max >= 2 for a decay report")
    terms = _born_ladder(u1, ps, order_max, t, dt)
    h10_norms, x_norms = [], []
    for data in terms:
        fhat = as_frequency(Field(u1.grid, PHYSICAL, data))  # one spectrum for both norms
        h10_norms.append(sobolev_norm(fhat, 10))
        x_norms.append(x_norm(fhat))
    errors = None
    if compare_with_flow:
        target = _run(u1, dt, [_step_count(t, dt, "t")], _linear_flow(u1, ps, True))[0].data
        errors = []
        partial = np.zeros(u1.grid.shape, dtype=np.complex128)
        for data in terms:
            partial = partial + data
            diff = Field(u1.grid, PHYSICAL, partial - target)
            errors.append(sobolev_norm(diff, 10))
    return BornSeriesReport(h10_norms=h10_norms, x_norms=x_norms, partial_sum_errors=errors)


@dataclass(frozen=True)
class WaveOperatorResult:
    """Profiles g(tau) = e^{-i tau Laplacian} u(tau), tau = 1, 2, ..., T, and their
    Cauchy trace; the limit g(T), the verdict, exponent and kappa derive from them."""

    profiles: list[Field]
    taus: list[float]
    distances: list[float]

    @property
    def converged(self) -> bool:
        """The trace from tau = 2 on vanishes or strictly decreases."""
        d = self.distances[1:]
        return all(x == 0.0 for x in d) or all(b < a for a, b in zip(d, d[1:]))

    @property
    def exponent(self) -> float:
        """Fitted polynomial decay exponent of the trace; inf when it vanishes."""
        if all(d == 0.0 for d in self.distances):
            return math.inf
        pos = [(tau, d) for tau, d in zip(self.taus, self.distances) if d > 0]
        if len(pos) < 2:
            return 0.0
        lt = np.log([p[0] for p in pos])
        ld = np.log([p[1] for p in pos])
        return float(-np.polyfit(lt, ld, 1)[0])

    @property
    def kappa(self) -> float:
        """(||g(T)||_{H10} + ||g(T)||_X) / (||g(1)||_{H10} + ||g(1)||_X), on the
        profiles' spectra."""
        g1, gT = self.profiles[0], self.profiles[-1]
        return (sobolev_norm(gT, 10) + x_norm(gT)) / (sobolev_norm(g1, 10) + x_norm(g1))


def wave_operator(u1: Field, ps: PotentialSet, T: float, dt: float, *,
                  skip_certification: bool = False) -> WaveOperatorResult:
    """Numerical wave-operator limit of the linear electromagnetic flow.

    Records the linear flow at the dyadic times tau = 1, 2, 4, ..., T, pulls
    the record back by the free flow, g(tau) = e^{-i tau Laplacian} u(tau)
    (profiles), and keeps them with their Cauchy increments
    d(tau) = ||g(2 tau) - g(tau)||_{H10}.  A zero potential set has the
    constant profile e^{-i Laplacian} u1, evaluated once so that the trace is
    exactly 0.  A non-decreasing trace is non-convergence, not an error.
    """
    m = int(round(math.log2(T))) if 0 < T < math.inf else 0
    if m < 1 or abs(T - 2.0**m) > 1e-9:
        raise ValueError(f"T must be a power of two, at least 2 (got {T:g})")
    taus = [2.0**j for j in range(m + 1)]  # 1, 2, ..., T
    steps = [_step_count(tau, dt, "dyadic time") for tau in taus]
    substep = _linear_flow(u1, ps, skip_certification)
    if substep is None:
        g = list(profiles(Trajectory(times=[1.0], fields=[u1]))) * len(taus)
    else:
        g = list(profiles(Trajectory(times=taus, fields=_run(u1, dt, steps, substep))))
    distances = [sobolev_norm(Field(u1.grid, FREQUENCY, g2.data - g1.data), 10)
                 for g1, g2 in zip(g, g[1:])]
    return WaveOperatorResult(profiles=g, taus=taus[:-1], distances=distances)
