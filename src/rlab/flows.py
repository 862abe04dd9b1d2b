"""Time evolution on the periodic box.

All flows use Strang splitting: a half step of the exact free multiplier
e^{i (dt/2) Laplacian}, the non-Laplacian part, then another half step.
The non-Laplacian substep is advanced

* for the linear electromagnetic flow, by a 4th-order truncated
  exponential of -i dt (a.grad + V): products in physical space, each
  derivative d_j one axis operator (spectral.AxisOperator, the symbol
  i xi_j along axis j);
* for the quadratic flow, by explicit midpoint RK2 on
  -i (a.grad u + V u + u^2), the square formed in physical space and
  dealiased by the two-thirds rule, one axis operator per axis;
* for the Hamiltonian flow i du/dt = H_A u with
  H_A = -Laplacian + 2i A.grad + (i div A + |A|^2) + V, by RK2, whose
  order-2 non-unitarity keeps the drifts of the mass (l2_norm) and of the
  energy (hamiltonian_energy) on the same O(dt^2) footing as the splitting
  error.

The loop stays in physical space.  A free flow of a physical array is the
axis operator of p = e^{-i t xi_j^2} along the three axes (spectral.free_step),
and consecutive half steps merge into one full step, so a linear Strang
step costs 3 + 4 #a axis products (#a the nonzero magnetic components): 15
for a full set, all real at n <= 32 but the free step's along axes 0 and 1.
Around them the coefficients are complex and each substep scales and
accumulates in place, its inputs unwritten.  Every step passes an L2-mass
guard, read right after the substep since the free step is unitary: a jump
above 5% in one step, or a non-finite mass, aborts with diagnostics.  Initial
time is t = 1 throughout.

Every operator reads its potentials through _coefficients(u1, ps), which
refuses a datum off the potential set's grid: L = a.grad + V of the linear
and quadratic flows, the Born ladder and the wave operator, and H_A with
A = ps.a and V = ps.v.  One recorder, _run, runs every flow and records it at
named steps of its dt ladder.  The linear flow of a zero potential set is
the exact free flow per record, one free_propagate by m dt at step m,
with no Strang loop.

A flow returns a Trajectory, its times and fields and nothing else.  What
is measured on it is a plain function of it, computed by the caller that
needs it.  profiles, the one free pull-back of a trajectory, yields the
profile e^{-i t Laplacian} u(t) of one snapshot at a time, as the spectrum
free_phase(-t) times that of u(t); profile_norms gives its H^10 and X norms
at every snapshot, bootstrap_monitor reads those rows against eps1 = A eps0,
and hamiltonian_energy gives the energy of one snapshot.
"""

from __future__ import annotations

import json
import logging
import pathlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError
from .norms import Trajectory, sobolev_norm, x_norm
from .potentials import PotentialSet, certify
from .spectral import (FREQUENCY, PHYSICAL, Field, Grid, as_frequency, as_physical, free_phase,
                       free_propagate, free_step, write_snapshot)

logger = logging.getLogger(__name__)

MASS_JUMP_GUARD = 0.05


@dataclass(frozen=True)
class EvolveConfig:
    """Strang-splitting run parameters of a forward run from t = 1 to t_end."""

    t_end: float
    dt: float
    dealias: str = "two-thirds"
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.dealias not in ("two-thirds", "off"):
            raise ValueError(f"unknown dealias mode {self.dealias!r}")
        if not self.t_end > 1.0:
            raise ValueError(f"EvolveConfig runs forward from t = 1 (t_end {self.t_end:g})")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")
        _step_count(self.t_end, self.dt, "t_end")

    @property
    def n_steps(self) -> int:
        return _step_count(self.t_end, self.dt, "t_end")


@dataclass(frozen=True)
class BootstrapParams:
    """Initial-data size eps0 and amplification A (eps1 = A eps0)."""

    eps0: float
    amplification: float

    def __post_init__(self):
        if not self.eps0 > 0:
            raise ValueError("eps0 must be positive")
        if self.amplification < 1:
            raise ValueError("amplification must be at least 1 (eps1 >= eps0)")

    @property
    def eps1(self) -> float:
        return self.amplification * self.eps0


def _step_count(t_end: float, dt: float, what: str) -> int:
    """Steps of dt from t = 1 to t_end: the one check that t_end is finite, at or after
    t = 1, on the ladder of a finite positive dt, (t_end - 1) / dt an integer to within
    1e-9 (0 for t_end = 1).  ``what`` names t_end in the error."""
    if not (np.isfinite(t_end) and np.isfinite(dt) and t_end >= 1.0):
        raise ValueError("evolution times must be finite and stay at or above t = 1 "
                         f"({what} {t_end:g}, dt {dt:g})")
    if not dt > 0:
        raise ValueError(f"dt must be positive (got {dt:g})")
    steps = (t_end - 1.0) / dt
    n = int(round(steps))
    if abs(steps - n) > 1e-9 or (n == 0 and t_end != 1.0):
        raise ValueError(f"{what} {t_end:g} is off the dt ladder: (t_end - 1) / dt = "
                         f"{steps:.6g} must be a positive integer")
    return n


class _PotentialOperator:
    """L u = c u + sum_j b_j d_j u, pseudo-spectral, on raw physical arrays.

    The coefficients c = v_data and b_j = a_data[j] are stored as complex128, a
    real one with imaginary part 0 (numpy's own cast, paid once, not per product);
    an identically zero one is skipped.  A call costs #b axis products (#b the
    nonzero b_j): 3 for a full set, with one derivative array alive at a time.
    """

    def __init__(self, grid: Grid, v_data: np.ndarray, a_data: list[np.ndarray]):
        self.grid = grid
        self.v = np.asarray(v_data, np.complex128) if np.any(v_data) else None
        self.a = [(j, np.asarray(aj, np.complex128)) for j, aj in enumerate(a_data) if np.any(aj)]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        out = self.v * u if self.v is not None else np.zeros_like(u)
        for j, aj in self.a:
            d = self.grid.derivative.along(u, j)
            d *= aj
            out += d
            del d
        return out


def _strang_loop(grid: Grid, u0: np.ndarray, dt: float, n_steps: int, substep,
                 record_steps, t_start: float = 1.0) -> dict[int, np.ndarray]:
    """Shared driver; substep(u, dt) advances the non-Laplacian part.

    The half steps H = e^{i (dt/2) Laplacian} around consecutive substeps
    merge into the full step E = e^{i dt Laplacian}: u runs H S E S ... E S,
    and a record applies the trailing H to a copy."""
    half, full = free_step(grid, dt / 2.0), free_step(grid, dt)
    records: dict[int, np.ndarray] = {}
    if 0 in record_steps:
        records[0] = u0.copy()
    mass_prev = _mass(u0)
    u = half(u0)
    for m in range(1, n_steps + 1):
        u = substep(u, dt)
        mass = _mass(u)
        # a NaN mass slips past the jump comparison, so test finiteness too
        jump = mass_prev > 0 and abs(mass / mass_prev - 1.0) > MASS_JUMP_GUARD
        if not np.isfinite(mass) or jump:
            raise BlowupError(t=t_start + m * dt, step=m,
                              mass_before=np.sqrt(mass_prev * grid.dx**3),
                              mass_after=np.sqrt(mass * grid.dx**3))
        mass_prev = mass
        if m in record_steps:
            records[m] = half(u)
        if m < n_steps:
            u = full(u)
    return records


def _mass(u: np.ndarray) -> float:
    """sum |u|^2, the guard's mass (it reads a ratio, so the dx^3 scale drops out):
    the float view dotted with itself by einsum, not by np.vdot, which BLAS threads."""
    v = u.view(np.float64).ravel()
    return float(np.einsum("i,i->", v, v))


def _run(u1: Field, dt: float, steps: list[int], substep) -> list[Field]:
    """The flow from u1 at t = 1, recorded at the ascending steps of its dt
    ladder.  substep=None is the zero potential, whose flow is the exact free
    flow: step 0 is u1 itself and step m one free_propagate by m dt."""
    u = as_physical(u1)
    if substep is None:
        return [u if m == 0 else free_propagate(u, m * dt) for m in steps]
    records = _strang_loop(u1.grid, u.data, dt, steps[-1], substep, set(steps))
    return [Field(u1.grid, PHYSICAL, records[m]) for m in steps]


def _evolve(u1: Field, cfg: EvolveConfig, substep) -> Trajectory:
    """The flow from u1 over cfg's time ladder, recorded every snapshot_stride
    steps and at the last step."""
    steps = sorted({*range(0, cfg.n_steps, cfg.snapshot_stride), cfg.n_steps})
    times = 1.0 + cfg.dt * np.asarray(steps, dtype=np.float64)
    return Trajectory(times=times, fields=_run(u1, cfg.dt, steps, substep))


def _coefficients(u1: Field, ps: PotentialSet) -> list[np.ndarray]:
    """V, a1, a2, a3 of ps for a flow of u1 on ps's grid, the one place an operator
    reads a potential set's data: a potential's own data when its imaginary part
    is exactly 0, as gaussian_potential's is, a real-part copy otherwise."""
    if u1.grid != ps.grid:
        raise ValueError(f"the datum lives on {u1.grid}, its potentials on {ps.grid}")
    return [f.data.real if np.any(f.data.imag) else f.data for f in (ps.v, *ps.a)]


def _linear_operator(u1: Field, ps: PotentialSet, skip_certification: bool) -> _PotentialOperator:
    """L = a . grad + V of ps, built once ps passes its smallness certificate
    (a zero set needs none; skip_certification=True skips the check)."""
    v, *a = _coefficients(u1, ps)
    if not (skip_certification or ps.is_zero or certify(ps, ps.delta_target).passed):
        raise ValueError("potential set fails its smallness certificate at delta = "
                         f"{ps.delta_target}; pass skip_certification=True to override")
    return _PotentialOperator(ps.grid, v, a)


def _linear_substep(op: _PotentialOperator):
    # 4-term truncated exponential of -i dt L; order-4 per substep keeps the
    # splitting's global order 2
    def substep(u, dt):
        acc = u.copy()
        term = u
        for m in range(1, 5):
            term = op(term)
            acc += np.multiply(term, -1j * dt / m, out=term)
        return acc

    return substep


def _linear_flow(u1: Field, ps: PotentialSet, skip_certification: bool):
    """The substep of the linear flow of ps from u1, None for a zero set (the free flow)."""
    op = _linear_operator(u1, ps, skip_certification)
    return None if ps.is_zero else _linear_substep(op)


def _rk2_substep(op: _PotentialOperator, nonlinearity):
    # explicit midpoint RK2 on u' = -i (op(u) + nonlinearity(u)), in place
    def rhs(u):
        out = op(u)
        if nonlinearity is not None:
            out += nonlinearity(u)
        return np.multiply(out, -1j, out=out)

    def substep(u, dt):
        k1 = rhs(u)
        k1 *= 0.5 * dt
        k2 = rhs(np.add(k1, u, out=k1))
        k2 *= dt
        return np.add(k2, u, out=k2)

    return substep


def evolve_linear(u1: Field, ps: PotentialSet, cfg: EvolveConfig, *,
                  skip_certification: bool = False) -> Trajectory:
    """Solve i du/dt + Laplacian u = a . grad u + V u from u(1) = u1."""
    return _evolve(u1, cfg, _linear_flow(u1, ps, skip_certification))


def evolve_nonlinear(u1: Field, ps: PotentialSet, cfg: EvolveConfig, *,
                     skip_certification: bool = False) -> Trajectory:
    """Solve i du/dt + Laplacian u = a . grad u + V u + u^2.

    The quadratic substep is advanced by explicit midpoint RK2 with the
    square dealiased (two-thirds rule) unless cfg.dealias == "off".
    """
    op = _linear_operator(u1, ps, skip_certification)
    dealias = u1.grid.dealias if cfg.dealias == "two-thirds" else (lambda w: w)
    return _evolve(u1, cfg, _rk2_substep(op, lambda u: dealias(u * u)))


def profiles(tr: Trajectory) -> Iterator[Field]:
    """The profile f(t) = e^{-i t Laplacian} u(t) of each snapshot, one at a
    time, as a spectrum: free_phase(-t) times the snapshot's spectrum."""
    for t, u in zip(tr.times, tr.fields):
        yield Field(u.grid, FREQUENCY, free_phase(u.grid, -t) * as_frequency(u).data)


def profile_norms(tr: Trajectory) -> list[dict]:
    """H^10 and X norms of the profile at every snapshot, one profile spectrum
    held at a time."""
    return [{"t": float(t), "h10": sobolev_norm(fhat, 10), "x": x_norm(fhat)}
            for t, fhat in zip(tr.times, profiles(tr))]


def bootstrap_monitor(rows: list[dict], bp: BootstrapParams) -> dict:
    """The bootstrap test on profile_norms rows: the run exits at the first
    row whose H^10 or X norm is strictly above eps1.  An exit is logged as a
    warning and reported; the rows come back as given, never clipped."""
    exited_at = next((r["t"] for r in rows if max(r["h10"], r["x"]) > bp.eps1), None)
    if exited_at is not None:
        logger.warning(
            "bootstrap exit: profile norms crossed eps1 = %.3e at t = %.4g",
            bp.eps1, exited_at,
        )
    return {
        "eps0": bp.eps0,
        "eps1": bp.eps1,
        "rows": rows,
        "exited": exited_at is not None,
        "exit_time": exited_at,
    }


def evolve_hamiltonian(u1: Field, ps: PotentialSet, cfg: EvolveConfig) -> Trajectory:
    """Solve i du/dt = H_A u with H_A = -(grad - i A)^2 + V, A = ps.a and V = ps.v.

    The flow conserves the L2 mass and the energy hamiltonian_energy(u, ps)
    up to the O(dt^2) drift of its RK2 substep.
    """
    grid = u1.grid
    v, *a = (c.real for c in _coefficients(u1, ps))
    div_a = sum(grid.derivative.along(a[j], j).real for j in range(3))
    a_sq = sum(aj * aj for aj in a)
    # H_A - (-Laplacian) = (i div A + |A|^2 + V) + sum_j 2i A_j d_j
    op = _PotentialOperator(grid, 1j * div_a + a_sq + v, [2j * aj for aj in a])
    return _evolve(u1, cfg, _rk2_substep(op, None))


def hamiltonian_energy(f: Field, ps: PotentialSet) -> float:
    """H(u) = 1/2 integral |(grad - iA) u|^2 + V |u|^2 dx, A = ps.a and V = ps.v."""
    grid = f.grid
    v, *a = (c.real for c in _coefficients(f, ps))
    u = as_physical(f).data
    acc = sum(np.abs(grid.derivative.along(u, j) - 1j * a[j] * u) ** 2 for j in range(3))
    acc += v * np.abs(u) ** 2
    return float(0.5 * np.sum(acc) * grid.dx**3)


def save_trajectory(tr: Trajectory, directory, stride: int, config_hash: str) -> list[str]:
    """Persist as a directory of snapshots plus an index JSON that records
    the times, the snapshot stride and the config hash."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, f in enumerate(tr.fields):
        p = directory / f"snap_{i:06d}.rlab"
        write_snapshot(p, f)
        paths.append(str(p))
    index = {
        "times": [float(t) for t in tr.times],
        "stride": stride,
        "config_hash": config_hash,
        "snapshots": [pathlib.Path(p).name for p in paths],
    }
    index_path = directory / "index.json"
    index_path.write_text(json.dumps(index, sort_keys=True, indent=1))
    return paths + [str(index_path)]

