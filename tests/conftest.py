from collections import Counter

import numpy as np
import pytest

from rlab.spectral import PHYSICAL, Field, make_grid


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


class FFTCount:
    """Calls of np.fft.fftn, ifftn, fft and ifft by name, and the
    one-dimensional FFT passes they make: len(axes) for an n-dimensional
    call with axes=, one per axis of the array (3 on a grid) for a full
    call, and one for a one-dimensional call."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.passes = 0
        self._monkeypatch = monkeypatch
        for name in ("fftn", "ifftn"):
            self._wrap(np.fft, name, self._count_passes)
        for name in ("fft", "ifft"):
            self._wrap(np.fft, name, self._count_one_pass)

    def _count_passes(self, a, s=None, axes=None, *args, **kwargs):
        self.passes += np.ndim(a) if axes is None else len(axes)

    def _count_one_pass(self, *args, **kwargs):
        self.passes += 1

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

    def passes_per_step(self, run):
        """Passes of run(2) minus those of run(1), run(steps) a stepping loop."""
        passes = []
        for steps in (1, 2):
            start = self.passes
            run(steps)
            passes.append(self.passes - start)
        return passes[1] - passes[0]


@pytest.fixture
def fft_count(monkeypatch):
    """An FFTCount on np.fft for the duration of one test."""
    return FFTCount(monkeypatch)
