"""Construction and certification of admissible small potentials.

A potential set holds the electric part V and the magnetic components
a1, a2, a3 on one grid, all real valued.  Certification measures, for
each component w (and additionally each square (a_i)^2),

    ||w||_Y,   ||<x> w||_Y,   ||(1-Delta)^5 w||_Y,

and passes iff every measured value is at most the smallness dial delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import _wrap_note, y_norm
from .spectral import (
    PHYSICAL,
    Field,
    Grid,
    apply_multiplier,
    as_frequency,
    as_physical,
    bessel_weight,
    gaussian,
    shell_fraction,
)

_IMAG_TOL = 1e-14


@dataclass(frozen=True)
class PotentialSet:
    """Electric potential V and magnetic components (a1, a2, a3) with target delta."""

    v: Field
    a: tuple[Field, Field, Field]
    delta_target: float

    def __post_init__(self):
        fields = (self.v, *self.a)
        g = self.v.grid
        for f in fields:
            if f.grid != g:
                raise ValueError("all potentials must share one grid")
            if f.rep != PHYSICAL:
                raise ValueError("potentials must be physical-representation fields")
            if np.max(np.abs(f.data.imag)) > _IMAG_TOL:
                raise ValueError("potentials must be real valued")
        if not self.delta_target > 0:
            raise ValueError("delta must be positive")

    @property
    def grid(self) -> Grid:
        return self.v.grid

    @property
    def is_zero(self) -> bool:
        return all(not np.any(f.data) for f in (self.v, *self.a))

    def scaled(self, lam: float) -> "PotentialSet":
        return PotentialSet(
            v=Field(self.grid, PHYSICAL, lam * self.v.data),
            a=tuple(Field(self.grid, PHYSICAL, lam * ai.data) for ai in self.a),
            delta_target=self.delta_target,
        )


def gaussian_potential(grid: Grid, center, width: float, amplitude: float) -> Field:
    """amplitude * exp(-|x - center|^2 / (2 width^2)) (spectral.gaussian, which
    checks the width and the center)."""
    return Field(grid, PHYSICAL, amplitude * gaussian(grid, width, center, (0.0, 0.0, 0.0)))


@dataclass(frozen=True)
class SmallnessCertificate:
    """Measured Y-norm triples per potential (and per magnetic square); it
    passes iff every measured value is at most delta."""

    delta: float
    entries: dict  # name -> {"y": float, "y_weighted": float, "y_smooth": float}
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(v <= self.delta for triple in self.entries.values() for v in triple.values())


def _x_weight(f: Field) -> Field:
    g = f.grid
    w = np.sqrt(1.0 + g.radius_squared)
    return Field(g, PHYSICAL, w * as_physical(f).data)


def _triple(w: Field, fhat: Field, weight: np.ndarray) -> dict:
    return {
        "y": y_norm(w),
        "y_weighted": y_norm(_x_weight(w)),
        "y_smooth": y_norm(apply_multiplier(fhat, weight)),  # (1-Delta)^5 w
    }


def _nyquist_tail_note(fhat: Field, weight: np.ndarray, name: str) -> str | None:
    # (1-Delta)^5 is under-resolved when the weighted spectrum leans on Nyquist
    g = fhat.grid
    frac = shell_fraction(weight * np.abs(fhat.data) ** 2,
                          np.abs(g.axis_freqs) >= 0.8 * g.nyquist)
    if frac > 1e-6:
        return (
            f"resolution warning: {name} carries fraction {frac:.3e} of its "
            f"(1-Delta)^5-weighted mass above 0.8 nyquist"
        )
    return None


def certify(ps: PotentialSet, delta: float) -> SmallnessCertificate:
    """Measure every smallness condition and compare against delta; the notes name
    each of V, a1, a2, a3 with boundary mass (_wrap_note), then each entry whose
    (1-Delta)^5 weight leans on Nyquist."""
    named = [("V", ps.v), ("a1", ps.a[0]), ("a2", ps.a[1]), ("a3", ps.a[2])]
    squares = [
        (f"a{i + 1}^2", Field(ps.grid, PHYSICAL, ai.data * ai.data))
        for i, ai in enumerate(ps.a)
    ]
    weight = bessel_weight(ps.grid, 10)
    entries = {}
    notes = [f"{name}: {note}" for name, w in named if (note := _wrap_note(w))]
    for name, w in named + squares:
        fhat = as_frequency(w)
        entries[name] = _triple(w, fhat, weight)
        note = _nyquist_tail_note(fhat, weight, name)
        if note:
            notes.append(note)
    return SmallnessCertificate(delta=float(delta), entries=entries, notes=tuple(notes))


def _entry_root(f1: float, f4: float, r: float, delta: float) -> float:
    """Positive root mu of alpha mu^2 + beta mu = delta, with alpha and beta
    fitted to the values f1 at mu = 1 and f4 at mu = r; NaN if there is none."""
    alpha = (r * f1 - f4) / (r - r * r)
    beta = f1 - alpha
    disc = beta * beta + 4.0 * alpha * delta
    denom = beta + math.sqrt(disc) if disc >= 0 else 0.0
    return 2.0 * delta / denom if denom > 0 else math.nan


def rescale_to_delta(ps: PotentialSet, delta: float) -> tuple[PotentialSet, float]:
    """(lambda ps, lambda) for the largest lambda in (0, 1] making certify pass, in
    closed form.

    Every certificate entry of lambda * w has the form
    alpha lambda + beta sqrt(lambda): the L1 and Linf parts of the Y norm
    are homogeneous of degree 1 and its mixed |w|^(1/2) part of degree 1/2,
    while the weight <x> and (1-Delta)^5 are linear.  A magnetic square
    (lambda a_j)^2 gives alpha lambda^2 + beta lambda.  Either way the
    entry is a quadratic in mu = sqrt(lambda) or mu = lambda, so the
    certificates at lambda = 1 and lambda = 1/4 fix alpha and beta, and
    each failing entry reaches delta at the cancellation-free root
    mu = 2 delta / (beta + sqrt(beta^2 + 4 alpha delta)).

    The smallest root, less a relative margin of 2^-48 against the
    roundoff of the certificate, is checked by a third certify; should it
    fail, the margin doubles, at most 16 times.  A ValueError names an
    entry without a positive root, or reports that the margins ran out.
    """
    if ps.is_zero:
        raise ValueError("cannot rescale an identically zero potential set")
    at_one = certify(ps, delta)
    if at_one.passed:
        return ps, 1.0
    at_quarter = certify(ps.scaled(0.25), delta)
    root = 1.0
    for name, triple in at_one.entries.items():
        square = name.endswith("^2")
        for key, f1 in triple.items():
            if f1 <= delta:
                continue
            mu = _entry_root(f1, at_quarter.entries[name][key], 0.25 if square else 0.5, delta)
            entry_root = mu if square else mu * mu
            if not (math.isfinite(entry_root) and entry_root > 0):
                raise ValueError(f"certificate entry {name}.{key} has no positive root "
                                 f"at delta = {delta} (got {entry_root})")
            root = min(root, entry_root)
    for margin in range(48, 32, -1):
        lam = root * (1.0 - 2.0**-margin)
        scaled = ps.scaled(lam)
        if certify(scaled, delta).passed:
            return scaled, lam
    raise ValueError(f"certify fails even 2^-33 below the closed-form lambda = {root!r} "
                     f"at delta = {delta}")
