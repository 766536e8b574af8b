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

Up to ``DENSE_MAX_N`` samples ``derivatives``, ``upsample`` and
``midpoints`` apply cached dense matrices (Trefethen, Spectral Methods in
MATLAB, 2000, ch. 3), the circulants of the FFT route's impulse response
(the odd rows of the upsampling one for ``midpoints``).  The FFT route alone
made an N=128 coupled step 6.5% slower (in-process, one BLAS thread, 2-core
x86_64).  ``DENSE_MAX_N`` stays 128: moving it changes the rounding on the
grids between.

This module is the one owner of the discrete Fourier transform and of the
mode layout: every transform goes through ``_TRANSFORMS`` and every mode
table through ``mode_numbers``.  ``_TRANSFORMS`` calls numpy's pocketfft
gufuncs as ``np.fft`` does, less its wrappers' dispatch and checks (which
made an N=256 flow step 20% slower with numpy 2.4.6).  That module is private to
numpy, so an import-time probe takes them only if each gives the public
``np.fft`` function's bits on fixed data; a differing bit or an error
selects the public functions, so a failed probe costs speed, never bits.
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


# The four transforms, each called (values, axis, out), n = out.shape[axis]:
# real forward (even n), real inverse, complex forward and inverse; np.fft's.
_PUBLIC = (lambda a, axis, out: np.fft.rfft(a, axis=axis, out=out),
           lambda a, axis, out: np.fft.irfft(a, out.shape[axis], axis, out=out),
           lambda a, axis, out: np.fft.fft(a, axis=axis, out=out),
           lambda a, axis, out: np.fft.ifft(a, axis=axis, out=out))


def _select(umath) -> tuple:
    """umath's gufuncs bound as np.fft calls them (scale 1 forward, 1/n inverse)
    if they give _PUBLIC's bits on fixed C- and F-ordered (64, 3) columns and
    odd-n complex rows (sin(j^2), as numpy.random's import costs 6 MB of RSS);
    else, or on any error, _PUBLIC."""
    def bind(ufunc, inverse):
        return lambda a, axis, out: ufunc(a, 1 / out.shape[axis] if inverse else 1,
                                          axes=[(axis,), (), (axis,)], out=out)
    try:
        route = (bind(umath.rfft_n_even, False), bind(umath.irfft, True),
                 bind(umath.fft, False), bind(umath.ifft, True))
        x = np.sin(np.arange(1.0, 193.0) ** 2).reshape(64, 3)
        for x in (x, np.asfortranarray(x)):
            z = x + 1j * x[::-1]
            for i, a, axis, like in ((0, x, 0, x[:33].astype(complex)), (2, z, 0, z),
                                     (1, np.fft.rfft(x, axis=0), 0, x), (3, z, 0, z),
                                     (2, z[1:].T, -1, z[1:].T), (3, z[1:].T, -1, z[1:].T)):
                if (route[i](a, axis, np.empty_like(like)).tobytes()
                        != _PUBLIC[i](a, axis, np.empty_like(like)).tobytes()):
                    return _PUBLIC
        return route
    except Exception:
        return _PUBLIC


_TRANSFORMS = _select(getattr(np.fft, "_pocketfft_umath", None))


def dft(values, axis: int = -1, inverse: bool = False) -> np.ndarray:
    """numpy's complex DFT of values along one axis (unnormalized forward,
    1/n inverse); a 2-D transform is two calls, the last axis first."""
    return _TRANSFORMS[3 if inverse else 2](values, axis, np.empty_like(values, complex))


@lru_cache(maxsize=64)
def mode_numbers(n: int) -> np.ndarray:
    """The integer mode numbers of an n-point DFT in its layout, 0, 1, ...,
    then the negative ones (cached, read-only)."""
    m = np.arange(n)
    m[(n + 1) // 2:] -= n
    return _read_only(m)


@lru_cache(maxsize=64)
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


@lru_cache(maxsize=64)
def _dense_operator(grid: "SpectralGrid", order: int, factor: int = 1) -> np.ndarray:
    """The d^order/dx^order matrix (factor 1) or the factor-times upsampling
    matrix, as the circulant of the FFT route's response to a unit impulse."""
    impulse = np.eye(1, grid.n)[0]
    if factor == 1:
        col = grid._fft_derivatives(impulse, (order,))[0]
    else:
        col = grid._fft_upsample(impulse, factor)
        col[::factor] = impulse  # so node values pass through exactly
    rows = np.arange(col.size)[:, None]
    return _read_only(col[(rows - factor * np.arange(grid.n)) % col.size])


def _dense_apply(mat: np.ndarray, values: np.ndarray) -> np.ndarray:
    """mat @ values along axis 0; complex data through its real view. The
    product takes row-major columns: BLAS may round a column-major operand
    differently (OpenBLAS 0.3.31 does at n = 16, 20 and 24)."""
    cplx = values.dtype.kind == "c"
    cols = np.ascontiguousarray(values.reshape(values.shape[0], -1),
                                complex if cplx else None)
    out = mat @ (cols.view(float) if cplx else cols)
    return (out.view(complex) if cplx else out).reshape((-1,) + values.shape[1:])


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
        if self.n > DENSE_MAX_N:
            return self._fft_derivatives(values, orders)
        shifted = values - values[:1]  # maps like values, constants to exactly 0
        return tuple(_dense_apply(_dense_operator(self, k), shifted) for k in orders)

    def _fft_derivatives(self, values: np.ndarray, orders) -> tuple:
        """derivatives by one forward rfft (real data) or fft, then one inverse
        transform per order. The spectrum is held column-major, so its
        transpose is contiguous and takes each order's cached multiplier row
        in one multiply, in place for the last order; each result takes the
        layout of the values, so column-major samples give contiguous
        columns throughout."""
        real = values.dtype.kind != "c"
        m = self.n // 2 + 1 if real else self.n
        vhat = np.empty((m,) + values.shape[1:], complex, order="F")
        (_TRANSFORMS[0] if real else _TRANSFORMS[2])(values, 0, vhat)
        inverse, dtype = (_TRANSFORMS[1], float) if real else (_TRANSFORMS[3], complex)
        fac = _multipliers(self, tuple(orders), real)
        spectrum, out = vhat.T, []
        for i in range(len(fac) - 1):
            out.append(inverse((spectrum * fac[i]).T, 0, np.empty_like(values, dtype)))
        spectrum *= fac[-1]
        out.append(inverse(vhat, 0, np.empty_like(values, dtype)))
        return tuple(out)

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
            return self._fft_upsample(values, factor)
        return _dense_apply(_dense_operator(self, 0, factor), values)

    def midpoints(self, values: np.ndarray) -> np.ndarray:
        """Trigonometric interpolation of real samples onto the cell
        midpoints x_j + dx / 2: the odd rows of ``upsample(values, 2)``, bit
        for bit up to DENSE_MAX_N, and above it a half-cell ``shift``, whose
        real part drops the Nyquist mode as the split of ``upsample`` does
        at the midpoints."""
        if self.n > DENSE_MAX_N:
            return self.shift(values, -0.5 * self.dx)
        return _dense_apply(_dense_operator(self, 0, 2)[1::2], values)

    def _fft_upsample(self, values: np.ndarray, factor: int) -> np.ndarray:
        """upsample by zero padding the spectrum."""
        n = self.n
        vhat = dft(values, axis=0)
        m = n * factor
        out = np.zeros((m,) + values.shape[1:], dtype=complex)
        half = n // 2
        out[:half] = vhat[:half]
        # split the Nyquist coefficient symmetrically to keep real data real
        out[half] = 0.5 * vhat[half]
        out[m - half] = 0.5 * vhat[half]
        out[m - half + 1:] = vhat[half + 1:]
        res = dft(out, axis=0, inverse=True) * factor
        return res.real if np.isrealobj(values) else res

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
