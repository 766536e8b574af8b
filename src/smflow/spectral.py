"""Periodic spectral grids and FFT utilities.

All fields in the package live on uniform grids with trigonometric
(spectral) differentiation along the first axis.  Three grid kinds are
supported:

* ``circle``: the loop domain, period 1, nodes j/n.
* ``line``: a truncated line [-L, L) treated as periodic with period 2L;
  meaningful only for data that decays inside the padding region.
* ``torus``: period 2*pi in x, the normalization used by the dispersive
  estimates (single Fourier modes are then doubly periodic in space-time).

Mode numbers are the exact integers m in [-n/2, n/2) in the DFT's layout
(``mode_numbers``); the wavenumber of mode m is 2*pi*m/period.

Every value off the nodes comes from one routine, ``interpolant``: the
trigonometric interpolant of the n samples (Trefethen, Spectral Methods in
MATLAB, 2000), its coefficients placed on a zero-padded spectrum.  For even
n the Nyquist mode is split as a cosine, half its coefficient at -n/2 and
half at +n/2, so real samples give a real interpolant.  ``upsample``,
``midpoints`` and the Gauss nodes of the holonomy's Magnus cells read it.
``shift`` is the unitary translation instead: it turns the Nyquist
coefficient, kept at -n/2 alone, by a phase, so on complex samples a shift
by -s undoes a shift by s, while the cosine split scales that coefficient
by cos(pi o) at offset o, which no later shift restores.

Up to ``DENSE_MAX_N`` samples ``derivatives``, ``upsample`` and
``midpoints`` apply cached dense matrices (Trefethen, ch. 3), the
circulants of the FFT route's impulse response (the odd rows of the
upsampling one for ``midpoints``).  The FFT route alone made a
round-sphere coupled state 14% slower at N=128 and 18-22% slower at N=64
(the dense route faster in 79 and 76 of 80 alternating in-process rounds
of 40 states, one BLAS thread, 2-core x86_64).  ``DENSE_MAX_N`` stays 128:
moving it changes the rounding on the grids between.

``derivative_operator`` gives, per order tuple and real or complex samples,
one plain call holding what its route needs, bound once per grid value by
the ``lru_cache`` of ``_bind_derivatives``, as ``_dense_operator`` caches
its matrices: equal grids share it, a grid made afresh or unpickled
included.  On the FFT route that is the two transforms ``_select`` chose,
with their axis-0 ``axes`` argument built once, the multiplier rows and
1/n; on the dense route, the matrices and the subtraction of the first
sample.  ``derivatives`` calls it and implements no route itself, and the
flow velocity kernels of the targets (``SurfaceModel.velocity_kernel``,
cached per target and grid value the same way), which every RK4 stage
calls, hold it too.  Binding keeps a stage to its transforms and products:
finding the route, ``axes`` and multipliers per call cost 7% of an N=256
flow step (91.7 against 85.0 us per step, 59 of 60 alternating in-process
rounds, one BLAS thread, 2-core x86_64).
This module owns every derivative route: no other module builds a
derivative matrix, row or multiplier (the autonomous base velocity takes
row 0 of ``derivative``).

This module is the one owner of the discrete Fourier transform and of the
mode layout: every transform goes through ``_TRANSFORMS`` and every mode
table through ``mode_numbers``.  ``_TRANSFORMS`` is numpy's pocketfft
gufuncs themselves, called with the scale and axes ``np.fft`` gives them,
less its wrappers' dispatch and checks (which made an N=256 flow step 20%
slower with numpy 2.4.6).  That module is private to numpy, so an
import-time probe takes them only if each gives the public ``np.fft``
function's bits on fixed data; a differing bit or an error selects the
public functions, wrapped to the gufuncs' signature, so a failed probe
costs speed, never bits.
A Fourier multiplier multiplies as ``multiplier * spectrum`` (``multiply``)
and ``shift`` as ``spectrum * phase``, the order of the former inline
formulas: numpy's complex product need not commute bit for bit (``a * b``
and ``b * a`` of unit normal data differ by up to 1.8e-15 with numpy 2.4 on
an AVX-512 host).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ResolutionError

_KINDS = ("circle", "line", "torus")
DENSE_MAX_N = 128


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The four transforms in the signature of numpy's pocketfft gufuncs,
# (values, scale, axes=[(axis,), (), (axis,)], out=out) with n =
# out.shape[axis]: real forward (even n), real inverse, complex forward and
# inverse. These are np.fft's, which apply its scale (1 forward, 1/n
# inverse) themselves.
_PUBLIC = (lambda a, scale, axes, out: np.fft.rfft(a, axis=axes[0][0], out=out),
           lambda a, scale, axes, out: np.fft.irfft(a, out.shape[axes[2][0]], axes[0][0],
                                                    out=out),
           lambda a, scale, axes, out: np.fft.fft(a, axis=axes[0][0], out=out),
           lambda a, scale, axes, out: np.fft.ifft(a, axis=axes[0][0], out=out))
_AXIS0 = [(0,), (), (0,)]  # the axes argument of a transform along axis 0


def _select(umath) -> tuple:
    """umath's gufuncs themselves if, at np.fft's scale (1 forward, 1/n
    inverse), they give _PUBLIC's bits on fixed C- and F-ordered (64, 3)
    columns and odd-n complex rows (sin(j^2), as numpy.random's import costs
    6 MB of RSS); else, or on any error, _PUBLIC."""
    try:
        route = (umath.rfft_n_even, umath.irfft, umath.fft, umath.ifft)
        x = np.sin(np.arange(1.0, 193.0) ** 2).reshape(64, 3)
        for x in (x, np.asfortranarray(x)):
            z = x + 1j * x[::-1]
            for i, a, axis, like in ((0, x, 0, x[:33].astype(complex)), (2, z, 0, z),
                                     (1, np.fft.rfft(x, axis=0), 0, x), (3, z, 0, z),
                                     (2, z[1:].T, -1, z[1:].T), (3, z[1:].T, -1, z[1:].T)):
                scale, axes = 1 / like.shape[axis] if i % 2 else 1, [(axis,), (), (axis,)]
                got, want = (t(a, scale, axes=axes, out=np.empty_like(like))
                             for t in (route[i], _PUBLIC[i]))
                if got.tobytes() != want.tobytes():
                    return _PUBLIC
        return route
    except Exception:
        return _PUBLIC


_TRANSFORMS = _select(getattr(np.fft, "_pocketfft_umath", None))


def dft(values, axis: int = -1, inverse: bool = False) -> np.ndarray:
    """numpy's complex DFT of values along one axis (unnormalized forward,
    1/n inverse); a 2-D transform is two calls, the last axis first."""
    out = np.empty_like(values, complex)
    return _TRANSFORMS[3 if inverse else 2](values, 1 / out.shape[axis] if inverse else 1,
                                            axes=[(axis,), (), (axis,)], out=out)


@lru_cache(maxsize=64)
def mode_numbers(n: int) -> np.ndarray:
    """The integer mode numbers of an n-point DFT in its layout, 0, 1, ...,
    then the negative ones (cached, read-only)."""
    m = np.arange(n)
    m[(n + 1) // 2:] -= n
    return _read_only(m)


def interpolant(values, n_out: int, offsets=(0.0,)) -> np.ndarray:
    """The trigonometric interpolant of n >= 1 samples along axis 0 at
    x = (j + o) period / n_out for each offset o and j < n_out (n_out >= n),
    as (len(offsets), n_out, ...); real for real samples."""
    values = np.asarray(values)
    n = values.shape[0]
    coeff, modes = dft(values, axis=0), mode_numbers(n)
    if n % 2 == 0:  # the Nyquist mode as a cosine: half at each of -n/2 and n/2
        coeff[n // 2] *= 0.5
        coeff = np.concatenate([coeff, coeff[n // 2 : n // 2 + 1]])
        modes = np.append(modes, n // 2)
    phase = np.exp(2j * np.pi * np.outer(offsets, modes) / n_out)
    phase = phase.reshape(phase.shape + (1,) * (values.ndim - 1))
    padded = np.zeros((len(offsets), n_out) + values.shape[1:], dtype=complex)
    np.add.at(padded, (slice(None), modes % n_out), phase * coeff)
    out = dft(padded, axis=1, inverse=True) * (n_out / n)
    return out.real if np.isrealobj(values) else out


def _multipliers(grid: "SpectralGrid", orders: tuple, real: bool) -> np.ndarray:
    """(i k)^order for each order as the rows of one array in FFT layout,
    on the rfft half spectrum for real data."""
    k = grid.wavenumbers[: grid.n // 2 + 1] if real else grid.wavenumbers
    orders = np.array(orders)
    with np.errstate(divide="ignore", invalid="ignore"):
        fac = (1j * k) ** orders[:, None]
    fac[orders % 2 == 1, grid.n // 2] = 0.0  # drop the unpaired Nyquist mode
    fac[orders < 0, 0] = 0.0  # the mean has no periodic antiderivative
    return _read_only(fac)


def _fft_derivatives(grid: "SpectralGrid", orders: tuple, real: bool):
    """The FFT route of ``derivatives`` bound on grid: values -> one array
    per order, by one forward rfft (real data) or fft, then one inverse
    transform per order. The spectrum is held column-major, so its
    transpose is contiguous and takes each order's multiplier row in one
    multiply, in place for the last order; each result takes the layout of
    the values, so column-major samples give contiguous columns throughout."""
    if real:
        forward, inverse, m, dtype = *_TRANSFORMS[:2], grid.n // 2 + 1, float
    else:
        forward, inverse, m, dtype = *_TRANSFORMS[2:], grid.n, complex
    *rows, last = _multipliers(grid, orders, real)
    scale = 1 / grid.n

    def apply(values):
        vhat = np.empty((m,) + values.shape[1:], complex, order="F")
        forward(values, 1, axes=_AXIS0, out=vhat)
        spectrum = vhat.T
        out = [inverse((spectrum * row).T, scale, axes=_AXIS0, out=np.empty_like(values, dtype))
               for row in rows]
        spectrum *= last
        out.append(inverse(vhat, scale, axes=_AXIS0, out=np.empty_like(values, dtype)))
        return tuple(out)
    return apply


@lru_cache(maxsize=64)
def _dense_operator(grid: "SpectralGrid", order: int, factor: int = 1) -> np.ndarray:
    """The d^order/dx^order matrix (factor 1) or the factor-times upsampling
    matrix, as the circulant of the FFT route's response to a unit impulse."""
    impulse = np.eye(1, grid.n)[0]
    if factor == 1:
        col = _fft_derivatives(grid, (order,), True)(impulse)[0]
    else:
        col = interpolant(impulse, grid.n * factor)[0]
        col[::factor] = impulse  # so node values pass through exactly
    rows = np.arange(col.size)[:, None]
    return _read_only(col[(rows - factor * np.arange(grid.n)) % col.size])


def _dense_apply(mats, values: np.ndarray) -> tuple:
    """mat @ values along axis 0 for each of mats; complex data through its
    real view. The product takes row-major columns: BLAS may round a
    column-major operand differently (OpenBLAS 0.3.31 does at n = 16, 20
    and 24)."""
    cplx = values.dtype.kind == "c"
    cols = np.ascontiguousarray(values.reshape(values.shape[0], -1),
                                complex if cplx else None)
    shape = (-1,) + values.shape[1:]
    if cplx:
        cols = cols.view(float)
        return tuple((mat @ cols).view(complex).reshape(shape) for mat in mats)
    return tuple((mat @ cols).reshape(shape) for mat in mats)


def _dense_derivatives(grid: "SpectralGrid", orders: tuple, real: bool):
    """The dense route of ``derivatives`` bound on grid: one matrix per
    order, applied to the values less their first sample (so constants map
    to exactly 0)."""
    mats = [_dense_operator(grid, k) for k in orders]
    return lambda values: _dense_apply(mats, values - values[:1])


@lru_cache(maxsize=64)
def _bind_derivatives(grid: "SpectralGrid", orders: tuple, real: bool):
    """The derivatives operator of grid for orders on real or complex
    samples: the dense route up to DENSE_MAX_N, the FFT route above
    (cached by grid value)."""
    return (_fft_derivatives if grid.n > DENSE_MAX_N else _dense_derivatives)(grid, orders, real)


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid with spectral differentiation."""

    n: int
    kind: str = "circle"
    half_width: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.n < 4 or self.n % 2:
            raise ResolutionError(f"grid size must be even and >= 4, got {self.n}")
        if self.kind == "line" and self.half_width <= 0:
            raise ValueError("line grids need a positive half_width")

    @property
    def period(self) -> float:
        if self.kind == "circle":
            return 1.0
        if self.kind == "torus":
            return 2.0 * np.pi
        return 2.0 * self.half_width

    @property
    def dx(self) -> float:
        return self.period / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        """Grid nodes (cached, read-only)."""
        x = np.arange(self.n) * self.dx
        return _read_only(x - self.half_width if self.kind == "line" else x)

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer mode numbers in FFT layout (cached, read-only)."""
        return mode_numbers(self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return _read_only(2.0 * np.pi * self.modes / self.period)

    def multiply(self, values, multiplier, axis: int = -1) -> np.ndarray:
        """The Fourier multiplier: the inverse DFT of multiplier * DFT(values)
        along axis, the multiplier in the DFT's layout and first."""
        return dft(multiplier * dft(values, axis), axis, inverse=True)

    # -- differentiation and quadrature ------------------------------------

    def derivatives(self, values: np.ndarray, orders=(1, 2)) -> tuple:
        """Spectral derivatives of several orders along axis 0, one dense matrix
        per order up to DENSE_MAX_N; order -1 is the periodic antiderivative."""
        values = np.asarray(values)
        return self.derivative_operator(tuple(orders), values.dtype.kind != "c")(values)

    def derivative_operator(self, orders: tuple = (1, 2), real: bool = True):
        """``derivatives`` for orders on real (or complex) samples as one
        plain call, values -> tuple, bound once per grid value."""
        return _bind_derivatives(self, orders, real)

    def derivative(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """Spectral d^order/dx^order along axis 0."""
        return self.derivatives(values, (order,))[0]

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Integral over one period (exact for band-limited data): np.mean's
        sum and division over axis 0, times the period."""
        return np.add.reduce(values, 0) / len(values) * self.period

    def cumulative_integral(self, values: np.ndarray) -> np.ndarray:
        """F(x_j) = integral from node 0 to node j, F(0) = 0.

        Computed spectrally: the mean contributes a linear ramp, the rest a
        periodic antiderivative, so accuracy matches the differentiation.
        """
        mean = np.add.reduce(values, 0) / len(values)
        anti = self.derivatives(values - mean, (-1,))[0]
        x = (np.arange(self.n) * self.dx).reshape((-1,) + (1,) * (values.ndim - 1))
        return anti - anti[0] + mean * x

    # -- resampling ---------------------------------------------------------

    def upsample(self, values: np.ndarray, factor: int = 2) -> np.ndarray:
        """Trigonometric interpolation onto a factor-times finer grid.

        Existing node values are preserved exactly; new nodes interleave.
        """
        if factor < 1:
            raise ValueError("factor must be >= 1")
        if factor == 1:
            return values.copy()
        if self.n > DENSE_MAX_N:
            return interpolant(values, self.n * factor)[0]
        return _dense_apply((_dense_operator(self, 0, factor),), values)[0]

    def midpoints(self, values: np.ndarray) -> np.ndarray:
        """The interpolant at the cell midpoints x_j + dx / 2: the odd rows of
        ``upsample(values, 2)``, bit for bit up to DENSE_MAX_N."""
        if self.n > DENSE_MAX_N:
            return interpolant(values, self.n, (0.5,))[0]
        return _dense_apply((_dense_operator(self, 0, 2)[1::2],), values)[0]

    def shift(self, values: np.ndarray, s: float) -> np.ndarray:
        """Circularly resample: returns g with g(x) = f(x - s).

        When s is an integer number of grid cells the shift is a bit-exact
        sample rotation.
        """
        cells = s / self.dx
        rounded = np.rint(cells)
        if abs(cells - rounded) < 1e-12 * max(1.0, abs(cells)):
            return np.roll(values, int(rounded), axis=0)
        phase = np.exp(-1j * self.wavenumbers * s)
        vhat = dft(values, axis=0) * phase.reshape((-1,) + (1,) * (values.ndim - 1))
        out = dft(vhat, axis=0, inverse=True)
        return out.real if np.isrealobj(values) else out
