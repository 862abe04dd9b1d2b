"""Periodic-box spectral engine.

The cubic box [-L/2, L/2)^3 with n points per axis stands in for free
space.  Transforms use the continuum normalization

    fhat(xi) = integral e^{-i x.xi} f(x) dx,
    f(x)     = (2 pi)^{-3} integral e^{+i x.xi} fhat(xi) dxi,

realized as the plain scaled DFT fhat = dx^3 fftn(f): physical samples are
stored in FFT order like spectra, the sample at index k of an axis sitting at
x = dx m_k (Grid.modes), the points of [-L/2, L/2) rolled by n/2.  Only the
snapshot file keeps the centred order, x1 slowest from -L/2.  Only this module
calls numpy.fft or writes the Parseval weight Grid.parseval_weight =
dxi^3/(2 pi)^3; every other module transforms through it.

Transforms share no state (pocketfft keeps no plans; AxisOperator's scratch is
per thread), so every operation is safe to call concurrently on distinct fields.
"""

from __future__ import annotations

import pathlib
import struct
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PHYSICAL = "physical"
FREQUENCY = "frequency"

_SNAPSHOT_MAGIC = b"RLAB"
_SNAPSHOT_VERSION = 1
# 32-byte header: magic, version u32, n u32, L f64, repr u8, 11 pad bytes
_SNAPSHOT_HEADER = struct.Struct("<4sIIdB11x")


# Largest n whose per-axis operators are applied as dense n x n matrices.
# Measured on a 2-vCPU Xeon VM with numpy's OpenBLAS: at n <= 32 numpy's
# one-axis FFT pair is bound by per-call overhead, and a batch of n x n by
# n x n products is 2.5-4x faster (180 against 650-800 us at 32^3).  OpenBLAS
# threads any product above m k n = 262144 = 64^3 and leaves its threads
# spinning afterwards; at n = 64 the slices themselves thread (CPU/wall 1.9)
# and the n^4 product no longer pays, so n >= 64 keeps the FFT pair.
DENSE_AXIS_MAX_N = 32

# Largest m k n of one complex m x k by k x n BLAS product in a Gram matrix.
# Measured on a 2-vCPU Xeon VM with numpy's OpenBLAS 0.3.31: complex products
# with m k n >= 64 x 16 x 64 run threaded at CPU/wall about 2, leave about
# 0.13 CPU-s of threads spinning after the call, and in about one fresh process
# in four the first threaded call stalled for ~1 s.  Products up to this size
# stay on the calling thread (8 columns per product at n = 64).
GRAM_PRODUCT_MAX_MKN = 32768

# Largest block, in entries (lines x n summed over a batch of line pieces), that
# line_moments fills at once, and the rows it multiplies at a time.  x_norm on a
# 2-vCPU Xeon VM, OpenBLAS serial, fastest of 7: at 16^3 budgets of 2^12, 2^13,
# 2^14 and 2^15 take 0.85, 0.61, 0.54 and 0.52 ms per call (the ifft path 1.47,
# 1.47, 1.03, 0.98), tracemalloc peaks 0.16, 0.34, 0.63 and 1.26 MB.  At 32^3
# the largest pieces (about 960 lines) form batches alone: 6.4, 5.5, 5.3 and
# 5.1 ms (ifft path 7.0-7.8 ms), peaks 0.78, 0.91, 1.14 and 1.23 MB (1.12 MB on
# the ifft path).  Past 2^14 the time barely falls while the block keeps growing.
LINE_BATCH_MAX_ENTRIES = 2**14


class AxisOperator:
    """A Fourier multiplier s(xi_j) that depends on one axis' frequency,
    applied along axis j of an n^3 array in physical space.

    symbol holds s on the n frequencies of one axis, in FFT order.  For
    n <= DENSE_AXIS_MAX_N the operator is its n x n matrix M = F^-1 diag(s) F,
    circulant with first column ifft(s), applied as a batch of small products,
    real ones on the float view of u where M allows: along the last axis
    against the real 2n x 2n form of M^T; along axes 0 and 1, if
    s(-m) = conj s(m) at every m but the Nyquist mode -n/2 (d_j, the dealias
    mask), M = R + i c s s^T with R real, s_k = (-1)^k, c = Im s(-n/2) / n, as
    [R | s] against u with the slice i c s^T u appended (R alone if c = 0).
    No product is matrix-vector or above m k p = 64^3, which OpenBLAS would
    thread (README, axis operators); larger n take the one-axis FFT pair.
    """

    def __init__(self, symbol: np.ndarray):
        self.symbol = np.asarray(symbol, dtype=np.complex128)
        n = self.symbol.size
        self.matrix = self._real = None
        if n <= DENSE_AXIS_MAX_N:
            k = np.arange(n)
            m = self.matrix = np.fft.ifft(self.symbol)[(k[:, None] - k[None, :]) % n]
            # row 2l + a, column 2k + b: part a (Re, Im) of u_l into part b of out_k
            self._last = np.kron(m.real.T, np.eye(2)) + np.kron(m.imag.T, [[0, 1], [-1, 0]])
            off = k != n // 2
            if np.array_equal(self.symbol[-k % n][off], self.symbol[off].conj()):
                self._nyquist = 1j * self.symbol[n // 2].imag / n
                nyquist = [(-1.0) ** k] if self._nyquist else []
                self._real = np.column_stack([m.real, *nyquist])  # [R | s], or R if c = 0
                self._spare = threading.local()  # a fresh buffer per call page-faults

    def along(self, u: np.ndarray, j: int) -> np.ndarray:
        """The operator along axis j of u, as a new C-ordered array."""
        m = self.matrix
        if m is None:
            shape = [1, 1, 1]
            shape[j] = -1
            U = np.fft.fftn(u, axes=(j,))
            U *= self.symbol.reshape(shape)
            return np.fft.ifftn(U, axes=(j,))
        u = np.ascontiguousarray(u, dtype=np.complex128)
        out = np.empty(u.shape, dtype=np.complex128)
        if j == 2:
            np.matmul(u.view(np.float64), self._last, out=out.view(np.float64))
            return out
        # axis j of u is axis 1 of x, whose axis 0 is the batch
        x, y = (u, out) if j == 1 else (u.transpose(1, 0, 2), out.transpose(1, 0, 2))
        if self._real is None:
            np.matmul(m, x, out=y)
        else:
            x = self._with_nyquist_slice(x, j) if self._nyquist else x
            np.matmul(self._real, x.view(np.float64), out=y.view(np.float64))
        return out

    def _with_nyquist_slice(self, x: np.ndarray, j: int) -> np.ndarray:
        """x with i c s^T x appended along its axis 1, in this thread's buffer laid out like u."""
        n = x.shape[1]
        if not hasattr(self._spare, "buffer"):
            self._spare.buffer = np.empty((n + 1, n, n), dtype=np.complex128)
        v = self._spare.buffer
        xv = v.reshape(n, n + 1, n) if j == 1 else v.transpose(1, 0, 2)
        xv[:, :n] = x
        sums = x.reshape(n, n // 2, 2, n).sum(axis=1)  # of the even and the odd slices
        np.multiply(sums[:, 0] - sums[:, 1], self._nyquist, out=xv[:, n])
        return xv

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Along all three axes: the multiplier s(xi1) s(xi2) s(xi3)."""
        for j in range(3):
            u = self.along(u, j)
        return u


@dataclass(frozen=True)
class Grid:
    """Cubic periodic lattice on [-L/2, L/2)^3, samples and modes in FFT order.

    n points per axis (even power of two), physical side length ``length``;
    dx = length/n, positions dx m and frequencies 2 pi m / length for the
    integers m in [-n/2, n/2).
    """

    n: int
    length: float

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.length

    @property
    def nyquist(self) -> float:
        """Largest resolved frequency magnitude per axis, pi/dx."""
        return np.pi / self.dx

    @property
    def parseval_weight(self) -> float:
        """dxi^3/(2 pi)^3, under which sums of |fhat|^2 equal integrals of |f|^2."""
        return self.dxi**3 / (2.0 * np.pi) ** 3

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @cached_property
    def axis_coords(self) -> np.ndarray:
        """Physical coordinates along one axis in FFT order, x = dx m in [-L/2, L/2)."""
        return self.dx * self.modes

    @cached_property
    def axis_freqs(self) -> np.ndarray:
        """Frequencies along one axis in FFT (unshifted) order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def freq_mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (xi1, xi2, xi3); axis 0 is x1 (slowest varying)."""
        f = self.axis_freqs
        return f[:, None, None], f[None, :, None], f[None, None, :]

    @cached_property
    def coord_mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        c = self.axis_coords
        return c[:, None, None], c[None, :, None], c[None, None, :]

    @cached_property
    def xi_squared(self) -> np.ndarray:
        x1, x2, x3 = self.freq_mesh
        return x1 * x1 + x2 * x2 + x3 * x3

    @cached_property
    def xi_norm(self) -> np.ndarray:
        """|xi| on the grid's modes; radius_index holds its distinct values."""
        return np.sqrt(self.xi_squared)

    @cached_property
    def radius_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct |xi| and each mode's index into them: profile(radii)[position],
        from the (n/2 + 1)^3 octant of |m1|, |m2|, |m3| summed in xi_squared's order."""
        q = np.abs(self.axis_freqs[: self.n // 2 + 1]) ** 2
        octant = np.sqrt(q[:, None, None] + q[None, :, None] + q[None, None, :])
        radii, position = np.unique(octant, return_inverse=True)
        m = np.abs(self.modes)
        return radii, position.reshape(octant.shape)[np.ix_(m, m, m)]

    @cached_property
    def radius_squared(self) -> np.ndarray:
        """|x|^2 on the physical lattice."""
        c1, c2, c3 = self.coord_mesh
        return c1 * c1 + c2 * c2 + c3 * c3

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer mode numbers m along one axis in FFT order (xi = 2 pi m / L)."""
        return np.rint(np.fft.fftfreq(self.n) * self.n).astype(np.int64)

    @cached_property
    def derivative(self) -> AxisOperator:
        """d_j along axis j: the per-axis symbol i xi_j."""
        return AxisOperator(1j * self.axis_freqs)

    @cached_property
    def dealias(self) -> AxisOperator:
        """Two-thirds rule: keep per-axis integer modes |m| <= n/3.  Along all
        three axes it is the mask keep(m1) keep(m2) keep(m3)."""
        return AxisOperator((np.abs(self.modes) <= self.n // 3).astype(np.float64))

    @cached_property
    def line_form(self) -> np.ndarray:
        """S = kron(Re Q, I2) + kron(Im Q, [[0, -1], [1, 0]]), Q = B^H diag(w) B, B ifft's
        matrix, w = x^2 / (n^2 dx^3): f.(S f) = sum_m w_m |ifft(v)_m|^2, f v's float view."""
        b = np.fft.ifft(np.eye(self.n), axis=0)
        q = b.conj().T @ (self.axis_coords[:, None] ** 2 / (self.n**2 * self.dx**3) * b)
        return np.kron(q.real, np.eye(2)) + np.kron(q.imag, [[0, -1], [1, 0]])


def make_grid(n: int, length: float) -> Grid:
    """Build a Grid: n a power of two, at least 4; length positive and finite."""
    if n < 4:
        raise ValueError(f"n must be at least 4 (got n={n})")
    if n & (n - 1) != 0:
        raise ValueError(f"n must be a power of two (got n={n})")
    if not 0 < length < np.inf:
        raise ValueError(f"box length must be positive and finite (got L={length})")
    return Grid(n=int(n), length=float(length))


@dataclass(frozen=True)
class Field:
    """Complex scalar samples on a Grid, in physical or frequency form.

    Data layout is C order with x1 along axis 0 (slowest varying).
    Fields are immutable: the sample array is marked read-only at
    construction and every operation returns a new Field.
    """

    grid: Grid
    rep: str
    data: np.ndarray

    def __post_init__(self):
        if self.rep not in (PHYSICAL, FREQUENCY):
            raise ValueError(f"unknown representation {self.rep!r}")
        if self.data.shape != self.grid.shape:
            raise ValueError(
                f"data shape {self.data.shape} does not match grid {self.grid.shape}"
            )
        if self.data.dtype != np.complex128:
            object.__setattr__(self, "data", self.data.astype(np.complex128))
        self.data.flags.writeable = False


def as_physical(f: Field) -> Field:
    """f on the physical lattice: a spectrum's inverse with the (2 pi)^{-3} convention."""
    if f.rep == PHYSICAL:
        return f
    data = np.fft.ifftn(f.data)
    data /= f.grid.dx**3
    return Field(f.grid, PHYSICAL, data)


def as_frequency(f: Field) -> Field:
    """f as its spectrum, the discrete fhat(xi) = integral e^{-i x.xi} f(x) dx."""
    if f.rep == FREQUENCY:
        return f
    data = np.fft.fftn(f.data)
    data *= f.grid.dx**3
    return Field(f.grid, FREQUENCY, data)


def line_moments(grid: Grid, coeffs: np.ndarray, scatter: np.ndarray,
                 starts: np.ndarray) -> np.ndarray:
    """integral x_j^2 |g|^2 dx for each piece of a batch of lines along j
    (bands.line_batches), g the physical field whose spectrum is the piece's
    part of coeffs on its modes and 0 elsewhere: scatter places coeffs in a
    block of one row per line, piece i on rows starts[i]:starts[i + 1].

    By Parseval across the transverse axes, sum_{x'} |g|^2 is the sum over the
    lines of |ifft_j|^2 / (n^2 dx^6), against x_j^2 in the same FFT order: up
    to DENSE_AXIS_MAX_N the form f.(S f) of Grid.line_form on each line's float
    view f, in batched products of 2^15 / n^2 lines (m k p = 2^17, serial in
    OpenBLAS) over LINE_BATCH_MAX_ENTRIES entries at a time; else one ifft.
    """
    n = grid.n
    dense = n <= DENSE_AXIS_MAX_N
    per = 2**15 // n**2 if dense else 1  # lines per product, the block padded to a multiple
    block = np.zeros((-(-starts[-1] // per) * per, n), dtype=np.complex128)
    block.reshape(-1)[scatter] = coeffs
    if not dense:
        np.fft.ifft(block, axis=1, out=block)
        power = block.real**2
        power += block.imag**2
        weight = grid.axis_coords**2
        return np.add.reduceat(power, starts[:-1], axis=0) @ weight / (n**2 * grid.dx**3)
    f = block.view(np.float64)
    power = np.empty(len(f))  # 0 on the padding rows
    for lo in range(0, len(f), LINE_BATCH_MAX_ENTRIES // n):  # in steps of a multiple of per
        part = f[lo:lo + LINE_BATCH_MAX_ENTRIES // n]
        product = np.matmul(part.reshape(-1, per, 2 * n), grid.line_form)
        np.einsum("ri,ri->r", part, product.reshape(part.shape), out=power[lo:lo + len(part)])
    return np.add.reduceat(power, starts[:-1])


def l2_norm(f: Field) -> float:
    """Continuum-normalized L2 norm, computed in the field's own representation."""
    if f.rep == FREQUENCY:
        return coefficient_norm(f.grid, f.data)
    return float(np.sqrt(np.sum(np.abs(f.data) ** 2) * f.grid.dx**3))


def coefficient_norm(grid: Grid, coeffs: np.ndarray) -> float:
    """The L2 norm of a spectrum from its values at some modes, zero at the others:
    sqrt(sum |c|^2 parseval_weight), summed in the order coeffs hold them."""
    return float(np.sqrt(np.sum(np.abs(coeffs) ** 2) * grid.parseval_weight))


def transverse_power_sum(f: Field, axis: int) -> np.ndarray:
    """sum over the transverse axes of |f|^2 dx^2, as a profile along axis (the one-axis
    l2_norm).  A spectrum takes one transform along axis: by Parseval across the
    transverse axes the sum is sum_{xi'} |ifft_axis(fhat)|^2 / (n^2 dx^4)."""
    g = f.grid
    transverse = tuple(i for i in range(3) if i != axis)
    if f.rep == FREQUENCY:
        v = np.fft.ifft(f.data, axis=axis)
        return np.sum(np.abs(v) ** 2, axis=transverse) / (g.n**2 * g.dx**4)
    return np.sum(np.abs(f.data) ** 2, axis=transverse) * g.dx**2


def free_power_profiles(grid: Grid, support: np.ndarray, coeffs: np.ndarray, axis: int,
                        times: np.ndarray) -> np.ndarray:
    """The profiles transverse_power_sum(Field(grid, FREQUENCY, free_phase(grid, t)
    * fhat), axis) at every t of times, as an (nt, n) array, for the spectrum fhat
    that is coeffs at the flat indices support (distinct) and zero elsewhere.

    No field at any time, and no n^3 array, is built.  The transverse phase
    factors have modulus one, so by Parseval across the transverse axes the
    profile needs only the n x n Gram matrix C[k, l] = sum_{xi'} fhat(k, xi')
    conj fhat(l, xi') along axis, formed once from chunks of the transverse
    columns xi' that support touches (the others add nothing), in ascending
    order, each product at or below GRAM_PRODUCT_MAX_MKN.  At each t the
    circular diagonal sums S_t[d] = sum_k C[k, k - d] p_t(k) conj p_t(k - d),
    p_t = e^{-i t xi_j^2}, are n times the DFT of the transverse sum of |ifft_axis|^2; one batched
    length-n ifft over all times inverts them.  The profile is a sum of
    squares, so roundoff below zero is cut to zero.
    """
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2 (got {axis})")
    n = grid.n
    index = np.unravel_index(support, grid.shape)
    t1, t2 = (index[i] for i in range(3) if i != axis)
    lines, column = np.unique(t1 * n + t2, return_inverse=True)
    a = np.zeros((n, lines.size), dtype=np.complex128)
    a[index[axis], column] = coeffs
    step = max(1, GRAM_PRODUCT_MAX_MKN // (n * n))  # columns per product
    c = np.zeros((n, n), dtype=np.complex128)
    for start in range(0, a.shape[1], step):
        block = a[:, start:start + step]
        c += np.matmul(block, block.conj().T)
    k = np.arange(n)
    lag = (k[None, :] - k[:, None]) % n  # lag[d, k] = k - d
    diagonals = c[k[None, :], lag]  # diagonals[d, k] = C[k, k - d]
    p = np.array([_axis_phase(grid, t) for t in times])  # p[t, k] = p_t(k)
    s = np.einsum("dk,tk,tdk->td", diagonals, p, p.conj()[:, lag])
    prof = np.fft.ifft(s, axis=1).real / n / (n**2 * grid.dx**4)
    return np.maximum(prof, 0.0)


def half_derivative_weight(grid: Grid, axis: int) -> np.ndarray:
    """|xi_j|^(1/2) along axis j, broadcastable to the grid."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2 (got {axis})")
    return np.sqrt(np.abs(grid.freq_mesh[axis]))


def bessel_weight(grid: Grid, s: float) -> np.ndarray:
    """(1 + |xi|^2)^(s/2), the Sobolev weight of order s, on the grid's modes."""
    return (1.0 + grid.xi_squared) ** (s / 2.0)


def apply_multiplier(f: Field, m: np.ndarray) -> Field:
    """Pointwise frequency multiplication fhat -> m fhat by an array m on the
    grid's modes (broadcastable to the grid); returns the caller's representation."""
    out = Field(f.grid, FREQUENCY, m * as_frequency(f).data)
    return out if f.rep == FREQUENCY else as_physical(out)


def _axis_phase(grid: Grid, t: float) -> np.ndarray:
    """The per-axis free phase p = e^{-i t xi_j^2} on one axis' frequencies."""
    return np.exp(-1j * t * grid.axis_freqs**2)


def free_phase(grid: Grid, t: float) -> np.ndarray:
    """The multiplier e^{-i t |xi|^2} of the free flow e^{i t Laplacian}.

    Built as the product p(xi1) p(xi2) p(xi3) of the per-axis phases
    p = e^{-i t xi_j^2}: 3n complex exponentials and two broadcast products
    in place of n^3 exponentials.  It differs from the full-grid exponential
    only by roundoff, below 1e-13 absolute for |t| <= 16 on the 16^3-64^3
    grids rlab runs; every factor is exactly 1 at t = 0, so is the product.
    """
    p = _axis_phase(grid, t)
    return _separable(p, p, p)


def _separable(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray) -> np.ndarray:
    """The n^3 array p1(x1) p2(x2) p3(x3) of three per-axis factors."""
    return p1[:, None, None] * p2[None, :, None] * p3[None, None, :]


def _gaussian_factors(grid: Grid, width: float, center, carrier) -> list[np.ndarray]:
    """gaussian's per-axis factors exp(-(x_j - c_j)^2 / (2 width^2) + i carrier_j x_j);
    a width not positive and finite, or a center not a 3-vector, is a ValueError."""
    if not 0 < width < np.inf:
        raise ValueError(f"width must be positive and finite (got {width})")
    c = np.asarray(center, dtype=np.float64)
    if c.shape != (3,):
        raise ValueError("center must be a 3-vector")
    x = grid.axis_coords
    return [np.exp(-((x - c[j]) ** 2) / (2.0 * width**2) + 1j * carrier[j] * x) for j in range(3)]


def gaussian(grid: Grid, width: float, center, carrier) -> np.ndarray:
    """exp(-|x - center|^2 / (2 width^2) + i carrier.x) on the physical lattice, built
    like free_phase from its per-axis factors: 3n complex exponentials, not n^3."""
    return _separable(*_gaussian_factors(grid, width, center, carrier))


def gaussian_spectrum(grid: Grid, width: float, center, carrier) -> list[np.ndarray]:
    """as_frequency of gaussian(grid, width, center, carrier) as the per-axis factors
    g1(xi1) g2(xi2) g3(xi3), the length-n transforms of its factors times dx each."""
    return [np.fft.fft(p) * grid.dx for p in _gaussian_factors(grid, width, center, carrier)]


def free_step(grid: Grid, t: float) -> AxisOperator:
    """The free flow e^{i t Laplacian} on physical arrays: the axis operator
    of p = e^{-i t xi_j^2}, applied along all three axes."""
    return AxisOperator(_axis_phase(grid, t))


def free_propagate(f: Field, t: float) -> Field:
    """Exact free Schroedinger flow e^{i t Laplacian}, as free_step on the physical
    samples; a physical field comes back (a held spectrum takes free_phase)."""
    return Field(f.grid, PHYSICAL, free_step(f.grid, t)(as_physical(f).data))


def shell_fraction(w: np.ndarray, edge: np.ndarray) -> float:
    """Share of sum(w) on the shell of the cube where some axis index is in
    edge, a boolean mask along one axis; 0.0 when w sums to 0."""
    shell = edge[:, None, None] | edge[None, :, None] | edge[None, None, :]
    total = float(np.sum(w))
    if total == 0.0:
        return 0.0
    return float(np.sum(w[shell]) / total)


def boundary_mass_fraction(f: Field) -> float:
    """Fraction of L2 mass in the outer 10% shell of the box (sup-norm shell), measured
    from the periodic seam between the samples -L/2 and L/2 - dx, so on both sides alike;
    the planes beside the seam always count (at n = 8 none other is that far out)."""
    g = f.grid
    edge = np.abs(g.axis_coords + g.dx / 2) >= 0.9 * (g.length / 2.0)
    edge[g.n // 2 - 1:g.n // 2 + 1] = True
    return shell_fraction(np.abs(as_physical(f).data) ** 2, edge)


_REP_CODE = {PHYSICAL: 0, FREQUENCY: 1}
_REP_FROM_CODE = {v: k for k, v in _REP_CODE.items()}


def write_snapshot(path, f: Field) -> None:
    """Binary snapshot: 32-byte header + n^3 little-endian complex64 pairs, C order
    with x1 slowest; physical samples are written in centred order, x from -L/2."""
    header = _SNAPSHOT_HEADER.pack(
        _SNAPSHOT_MAGIC, _SNAPSHOT_VERSION, f.grid.n, f.grid.length, _REP_CODE[f.rep]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        data = f.data.astype("<c8")
        fh.write((np.fft.fftshift(data) if f.rep == PHYSICAL else data).tobytes())


def read_snapshot(path) -> Field:
    """Inverse of write_snapshot; a malformed file raises ValueError naming it."""
    blob = pathlib.Path(path).read_bytes()
    size = _SNAPSHOT_HEADER.size
    if len(blob) < size:
        raise ValueError(f"{path}: snapshot header has {len(blob)} bytes, need {size}")
    magic, version, n, length, rep_code = _SNAPSHOT_HEADER.unpack_from(blob)
    if magic != _SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad snapshot magic {magic!r}")
    if version != _SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    if rep_code not in _REP_FROM_CODE:
        raise ValueError(f"{path}: unknown representation code {rep_code}")
    try:
        grid = make_grid(n, length)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    payload = len(blob) - size
    if payload != n**3 * 8:
        raise ValueError(f"{path}: payload has {payload} bytes, need {n**3 * 8} for n={n}")
    rep = _REP_FROM_CODE[rep_code]
    data = np.frombuffer(blob, dtype="<c8", offset=size).reshape(grid.shape)
    data = np.fft.ifftshift(data) if rep == PHYSICAL else data
    return Field(grid, rep, data.astype(np.complex128))
