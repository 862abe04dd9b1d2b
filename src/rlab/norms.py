"""Norms: Lebesgue, space-time (also mixed-axis), Sobolev, the profile
norm X, and the potential norm Y.

Conventions.  Physical integrals are Riemann sums with weight dx^3, mode
sums carry Grid.parseval_weight, and every transform goes through spectral.
A norm transforms only what it needs: the L2, Sobolev, X and mixed L2 norms
read the samplers' spectra as they are, any other L^p norm takes one
as_physical.  A mixed L2 norm (the smoothing norms) is one reduction of
per-time profiles along its axis, mixed_profile_norm: a spectrum's profile
comes from spectral.transverse_power_sum, a free flow's from
spectral.free_power_profiles.  L-infinity over the continuum is reported as
the grid max (a lower bound of the true sup).  Space-time norms use
trapezoidal quadrature in t.  The xi-gradient inside the X norm is realized as
multiplication by -i x on the coordinates x in [-L/2, L/2), which is exact
until mass reaches the box boundary.  _wrap_note is the one detector of
that: it names a field with more than 1e-6 of its L2 mass in the outer 10%
shell.  X never builds a band's field g_k on the full grid: || |x| g_k ||^2
is the sum over the axes j of || x_j g_k ||^2, and by Parseval across the
transverse axes each term needs only the lines along j that band k's
support touches, a quadratic form per line for n <= 32 (spectral.line_moments
on the batches of bands.line_batches; both it and bands.band_table are built
once per grid and shared read-only).  Every norm is a plain float, checked once
on its way out: NaN or a negative value raises a ValueError naming the norm.
Everything here is pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bands
from .spectral import (
    Field,
    Grid,
    as_frequency,
    as_physical,
    bessel_weight,
    boundary_mass_fraction,
    l2_norm,
    line_moments,
    transverse_power_sum,
)

BOUNDARY_MASS_TOL = 1e-6


def _checked(value: float, name: str) -> float:
    """value as a float; a NaN or negative value is a ValueError naming the norm."""
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"norm {name!r} evaluated to NaN")
    if value < 0:
        raise ValueError(f"norm {name!r} evaluated to {value} < 0")
    return value


@dataclass
class Trajectory:
    """Time-stamped snapshots of one evolving field.

    times is strictly increasing with t >= 1; all fields share one grid.
    """

    times: np.ndarray
    fields: list[Field]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if len(self.times) != len(self.fields) or len(self.fields) == 0:
            raise ValueError("need one field per time, at least one sample")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.times[0] < 1.0 - 1e-12:
            raise ValueError("trajectories start no earlier than t = 1")
        g = self.fields[0].grid
        if any(f.grid != g for f in self.fields):
            raise ValueError("all snapshots must share one grid")

    @property
    def grid(self) -> Grid:
        return self.fields[0].grid


def _check_exponent(p, name="p"):
    if p != np.inf and p < 1:
        raise ValueError(f"{name} must satisfy {name} >= 1 (got {p})")


def lebesgue_norm(f: Field, p: float) -> float:
    """(integral |f|^p dx)^(1/p); p = inf gives the grid max."""
    _check_exponent(p)
    if p == np.inf:
        return _checked(np.max(np.abs(as_physical(f).data)), "Linf")
    if p == 2:
        return _checked(l2_norm(f), "L2")
    a = np.abs(as_physical(f).data)
    return _checked(float(np.sum(a**p) * f.grid.dx**3) ** (1.0 / p), f"L{p:g}")


def spacetime_norm(tr: Trajectory, p_t: float, q_x: float) -> float:
    """L^p in time (trapezoid over the sample ladder) of the L^q space norm."""
    _check_exponent(p_t, "p_t")
    _check_exponent(q_x, "q_x")
    vals = np.array([lebesgue_norm(f, q_x) for f in tr.fields])
    if p_t == np.inf:
        return _checked(np.max(vals), f"Linf_t_L{q_x:g}_x")
    if len(tr.fields) < 2:
        raise ValueError("finite p_t needs at least two time samples")
    val = float(np.trapezoid(vals**p_t, tr.times)) ** (1.0 / p_t)
    return _checked(val, f"L{p_t:g}_t_L{q_x:g}_x")


def mixed_spacetime_norm(tr: Trajectory, axis: int, p_outer: float) -> float:
    """|| ||f||_{L^2 over (t, transverse axes)} ||_{L^p over x_axis}.

    This is the smoothing-estimate norm family, e.g. p = inf gives
    L^inf_{x_j} L^2_{t, x~j}.
    """
    per_t = (transverse_power_sum(f, axis) for f in tr.fields)  # read after the checks
    return mixed_profile_norm(tr.grid, per_t, tr.times, axis, p_outer)


def mixed_profile_norm(grid: Grid, per_t, times: np.ndarray, axis: int,
                       p_outer: float) -> float:
    """mixed_spacetime_norm from its profiles: per_t yields the transverse power
    sum along axis at each of times (spectral.transverse_power_sum, or the rows
    of spectral.free_power_profiles); trapezoid in t, then sup or L^p over x_axis."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2 (got {axis})")
    _check_exponent(p_outer, "p_outer")
    if len(times) < 2:
        raise ValueError("the time L^2 norm needs at least two time samples")
    inner = np.trapezoid(np.stack(list(per_t)), times, axis=0) ** (1.0 / 2)
    if p_outer == np.inf:
        val = float(np.max(inner))
    else:
        val = float(np.sum(inner**p_outer) * grid.dx) ** (1.0 / p_outer)
    return _checked(val, f"L{p_outer:g}_x{axis + 1}_L2_t_trans")


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm ||(1+|xi|^2)^(s/2) fhat|| with the Parseval weighting."""
    fhat = as_frequency(f)
    g = f.grid
    return _checked(np.sqrt(np.sum(bessel_weight(g, 2 * s) * np.abs(fhat.data) ** 2)
                            * g.parseval_weight), f"H{s:g}")


def _wrap_note(f: Field) -> str:
    """A wrap-around warning when more than BOUNDARY_MASS_TOL of f's L2 mass
    sits in the outer shell of the box, else ""."""
    frac = boundary_mass_fraction(f)
    if frac > BOUNDARY_MASS_TOL:
        return (f"wrap-around warning: boundary mass fraction {frac:.3e} "
                f"exceeds {BOUNDARY_MASS_TOL:g}")
    return ""


def x_norm(f: Field) -> float:
    """sup_k || grad_xi (P_k fhat) ||_L2.

    Per band, grad_xi of P_k fhat is the forward transform of -i x times
    the band-projected field g_k, so its Parseval L2 norm is || |x| g_k ||,
    whose square is the sum over the axes j of || x_j g_k ||^2; the sup runs
    over every band with support on the grid.  spectral.line_moments takes
    each || x_j g_k ||^2 from the lines along j that the band's support
    touches (bands.line_batches), never from g_k on the full grid.  Each
    band's coefficients P_k fhat are gathered once, held for its three
    pieces, and a batch's coefficients are its pieces' concatenated.
    """
    g = f.grid
    fhat = as_frequency(f).data.reshape(-1)
    pieces = (c for _, support, values in bands.band_table(g)
              for c in itertools.repeat(values * fhat[support], 3))  # a band's, per axis
    moments = []
    for scatter, starts in bands.line_batches(g):
        parts = list(itertools.islice(pieces, len(starts) - 1))
        batch = parts[0] if len(parts) == 1 else np.concatenate(parts)  # no copy of a lone piece
        moments.append(line_moments(g, batch, scatter, starts))
    moments = np.concatenate(moments).reshape(-1, 3).sum(axis=1)  # the axes in order
    # np.max, unlike the builtin max, carries a NaN band through to the guard
    return _checked(np.sqrt(np.max(moments, initial=0.0)), "X")


def y_norm(w: Field) -> float:
    """L1 + Linf + sum_j || || |w|^(1/2) ||_{Linf transverse} ||_{L2, x_j};
    the Linf parts are grid maxima."""
    a = np.abs(as_physical(w).data)
    dx = w.grid.dx
    l1 = float(np.sum(a) * dx**3)
    linf = float(np.max(a))
    mixed = 0.0
    for axis in range(3):
        transverse = tuple(i for i in range(3) if i != axis)
        sup_trans = np.max(a, axis=transverse)
        mixed += float(np.sqrt(np.sum(sup_trans) * dx))
    return _checked(l1 + linf + mixed, "Y")
