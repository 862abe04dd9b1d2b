import math
from collections import Counter
from typing import Callable

import numpy as np
import pytest

from rlab.bands import BASE
from rlab.potentials import PotentialSet, gaussian_potential
from rlab.spectral import PHYSICAL, AxisOperator, Field, Grid, as_frequency, make_grid


@pytest.fixture(scope="session")
def grid16():
    return make_grid(16, 32.0)


@pytest.fixture(scope="session")
def grid8():
    return make_grid(8, 16.0)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid, PHYSICAL, data)


def field_from_function(grid: Grid, fn: Callable) -> Field:
    """Sample fn(x1, x2, x3) on the physical lattice."""
    x1, x2, x3 = grid.coord_mesh
    data = np.asarray(fn(x1, x2, x3), dtype=np.complex128)
    data = np.broadcast_to(data, grid.shape).copy()
    return Field(grid, PHYSICAL, data)


def zero_field(grid: Grid, rep: str = PHYSICAL) -> Field:
    return Field(grid, rep, np.zeros(grid.shape, dtype=np.complex128))


def inner_product(f: Field, g: Field) -> complex:
    """<f, g> = integral f conj(g) dx, evaluated in a common representation.

    If both arguments already share a representation it is used as is, so
    frequency-side products of disjointly supported fields vanish exactly.
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    if f.rep != g.rep:
        f, g = as_frequency(f), as_frequency(g)
    w = f.grid.dx**3 if f.rep == PHYSICAL else f.grid.parseval_weight
    return complex(np.sum(f.data * np.conj(g.data)) * w)


def zero_potential_set(grid: Grid) -> PotentialSet:
    z = zero_field(grid)
    return PotentialSet(v=z, a=(z, z, z), delta_target=1.0)


def standard_potentials(grid: Grid, delta_target: float = 1000.0) -> PotentialSet:
    """The desk-scale potential set used across the scattering criteria."""
    v = gaussian_potential(grid, (0, 0, 0), 4.0, 0.15)
    a = (
        gaussian_potential(grid, (1.0, 0.5, 0.0), 4.0, 0.12),
        gaussian_potential(grid, (0.0, 1.0, -0.5), 4.0, -0.10),
        gaussian_potential(grid, (0.5, 0.0, -1.0), 4.0, 0.11),
    )
    return PotentialSet(v=v, a=a, delta_target=delta_target)


def band_indices(grid: Grid) -> range:
    """Inclusive range of band indices intersecting the resolved frequencies.

    A band is active when its inner edge 1.1^k/1.04 is at most the per-axis
    Nyquist frequency and its outer scale reaches down to the frequency
    spacing dxi.
    """
    log = math.log(BASE)
    k_min = math.ceil(math.log(grid.dxi / 1.04) / log)
    k_max = math.floor(math.log(1.04 * grid.nyquist) / log)
    if k_max < k_min:
        raise ValueError(
            f"grid resolves no frequency bands (dxi={grid.dxi:.3g}, "
            f"nyquist={grid.nyquist:.3g})"
        )
    return range(k_min, k_max + 1)


class FFTCount:
    """Calls of np.fft.fftn, ifftn, fft and ifft by name, and the
    one-dimensional FFT passes they make: len(axes) for an n-dimensional
    call with axes=, one per axis of the array (3 on a grid) for a full
    call, and one for a one-dimensional call.  Also the axis products: the
    calls of AxisOperator.along, each of which at n >= 64 also makes a
    one-axis FFT pair (2 passes)."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.passes = 0
        self.products = 0
        self._monkeypatch = monkeypatch
        for name in ("fftn", "ifftn"):
            self._wrap(np.fft, name, self._count_passes)
        for name in ("fft", "ifft"):
            self._wrap(np.fft, name, self._count_one_pass)
        self._wrap(AxisOperator, "along", self._count_product)

    def _count_passes(self, a, s=None, axes=None, *args, **kwargs):
        self.passes += np.ndim(a) if axes is None else len(axes)

    def _count_one_pass(self, *args, **kwargs):
        self.passes += 1

    def _count_product(self, *args, **kwargs):
        self.products += 1

    def _wrap(self, owner, name, also=None):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            if also is not None:
                also(*args, **kwargs)
            return fn(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, counted)

    def watch(self, owner, name):
        """Count the calls of owner.name as well, under its name."""
        self._wrap(owner, name)

    def _per_step(self, run, attr):
        counts = []
        for steps in (1, 2):
            start = getattr(self, attr)
            run(steps)
            counts.append(getattr(self, attr) - start)
        return counts[1] - counts[0]

    def passes_per_step(self, run):
        """Passes of run(2) minus those of run(1), run(steps) a stepping loop."""
        return self._per_step(run, "passes")

    def products_per_step(self, run):
        """Axis products of run(2) minus those of run(1)."""
        return self._per_step(run, "products")


@pytest.fixture
def fft_count(monkeypatch):
    """An FFTCount on np.fft for the duration of one test."""
    return FFTCount(monkeypatch)


@pytest.fixture
def matmul_shapes(monkeypatch):
    """The operand shapes and the result kind ('f' real, 'c' complex) of every
    np.matmul call for the duration of one test."""
    shapes = []
    matmul = np.matmul

    def recorded(a, b, *args, **kwargs):
        shapes.append((np.shape(a), np.shape(b), np.result_type(a, b).kind))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    return shapes


def assert_small_batched_products(shapes, n):
    """Each call multiplies matrices, never a vector (OpenBLAS threads a
    matrix-vector product at far smaller sizes than a matrix product), and
    each BLAS product in it, an m x k by k x p matrix, has m k p < 64^3,
    OpenBLAS's threading threshold: the real last-axis form is n x 2n by
    2n x 2n, the Nyquist-slice form n x (n + 1) by (n + 1) x 2n."""
    assert shapes
    for a, b, _ in shapes:
        assert len(a) >= 2 and len(b) >= 2, (a, b)
        stack = a if len(a) == 3 else b
        assert len(stack) == 3 and stack[0] == n, (a, b)  # a batch of n products
        (m, k), p = a[-2:], b[-1]
        assert m * k * p < 64**3, (a, b)
