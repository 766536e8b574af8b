"""Periodic grid calculus: exactness on band-limited data and shift behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smflow.errors import ResolutionError
from smflow.spectral import DENSE_MAX_N, SpectralGrid


def band_limited(grid, rng, modes=5):
    x = grid.nodes
    out = np.zeros_like(x)
    for m in range(1, modes + 1):
        a, b = rng.normal(size=2)
        out += a * np.cos(2 * np.pi * m * x / grid.period)
        out += b * np.sin(2 * np.pi * m * x / grid.period)
    return out


def test_grid_validation():
    with pytest.raises(ResolutionError):
        SpectralGrid(3)
    with pytest.raises(ResolutionError):
        SpectralGrid(7)
    assert SpectralGrid(4).period == 1.0
    assert SpectralGrid(8, kind="torus").period == pytest.approx(2 * np.pi)
    assert SpectralGrid(8, kind="line", half_width=3.0).period == 6.0


def test_derivative_exact_on_band_limited_data():
    for kind, hw in (("circle", None), ("torus", None), ("line", 2.5)):
        grid = SpectralGrid(64, kind=kind, half_width=hw) if hw else SpectralGrid(64, kind=kind)
        k = 2 * np.pi * 3 / grid.period
        f = np.sin(k * grid.nodes)
        assert np.abs(grid.derivative(f) - k * np.cos(k * grid.nodes)).max() < 1e-11
        assert np.abs(grid.derivative(f, order=2) + k**2 * f).max() < 1e-9


def test_integrate_and_cumulative():
    grid = SpectralGrid(128)
    f = 2.0 + np.sin(2 * np.pi * grid.nodes)
    assert grid.integrate(f) == pytest.approx(2.0, abs=1e-13)
    F = grid.cumulative_integral(f)
    expected = 2.0 * grid.nodes + (1 - np.cos(2 * np.pi * grid.nodes)) / (2 * np.pi)
    assert F[0] == pytest.approx(0.0, abs=1e-14)
    assert np.abs(F - expected).max() < 1e-12
    assert np.abs(grid.derivative(F - 2.0 * grid.nodes) - (f - 2.0)).max() < 1e-10


def test_upsample_preserves_node_values():
    grid = SpectralGrid(32)
    rng = np.random.default_rng(0)
    f = band_limited(grid, rng)
    fine = grid.upsample(f, 4)
    assert fine.shape[0] == 128
    assert np.abs(fine[::4] - f).max() < 1e-12
    fine_grid = SpectralGrid(128)
    k = 2 * np.pi * 2
    g = np.cos(k * grid.nodes)
    assert np.abs(grid.upsample(g, 4) - np.cos(k * fine_grid.nodes)).max() < 1e-12


def test_shift_is_exact_roll_on_grid_multiples():
    grid = SpectralGrid(64)
    rng = np.random.default_rng(1)
    f = rng.normal(size=64)
    s = 5 / 64.0
    shifted = grid.shift(f, s)
    assert np.array_equal(shifted, np.roll(f, 5))


def test_shift_fractional_matches_analytic():
    grid = SpectralGrid(64)
    k = 2 * np.pi * 3
    f = np.sin(k * grid.nodes)
    s = 0.1234
    assert np.abs(grid.shift(f, s) - np.sin(k * (grid.nodes - s))).max() < 1e-12


def test_vector_valued_operations_broadcast():
    grid = SpectralGrid(32)
    f = np.stack([np.sin(2 * np.pi * grid.nodes), np.cos(2 * np.pi * grid.nodes)], axis=-1)
    df = grid.derivative(f)
    assert df.shape == f.shape
    assert np.abs(df[:, 0] - 2 * np.pi * np.cos(2 * np.pi * grid.nodes)).max() < 1e-11


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=7),
    cells=st.integers(min_value=0, max_value=31),
)
def test_shift_composes_and_inverts(m, cells):
    grid = SpectralGrid(32)
    f = np.sin(2 * np.pi * m * grid.nodes) + 0.3 * np.cos(2 * np.pi * grid.nodes)
    s = cells / 32.0
    back = grid.shift(grid.shift(f, s), -s)
    assert np.abs(back - f).max() < 1e-12


def _grids():
    return (SpectralGrid(64), SpectralGrid(64, kind="line", half_width=2.5),
            SpectralGrid(64, kind="torus"))


def test_real_derivative_matches_complex_fft_formula():
    rng = np.random.default_rng(3)
    for grid in _grids():
        f = np.stack([band_limited(grid, rng, modes=12) for _ in range(2)], axis=-1)
        f += 1e-3 * rng.normal(size=f.shape)  # populate every mode, Nyquist too
        k = 2 * np.pi * np.fft.fftfreq(grid.n, d=1.0 / grid.n) / grid.period
        for order in (1, 2, 3):
            kk = k.copy()
            if order % 2:
                kk[grid.n // 2] = 0.0
            full = np.fft.ifft(np.fft.fft(f, axis=0) * ((1j * kk) ** order)[:, None],
                               axis=0).real
            d = grid.derivative(f, order=order)
            assert np.isrealobj(d)
            assert np.abs(d - full).max() <= 1e-12 * np.abs(full).max()
            d1, d2 = grid.derivatives(f, (1, order))
            assert np.array_equal(d2, d)
            assert np.array_equal(d1, grid.derivative(f))


def test_complex_derivative_stays_complex():
    grid = SpectralGrid(32)
    k = 2 * np.pi * 3
    f = np.exp(1j * k * grid.nodes)
    d = grid.derivative(f)
    assert np.iscomplexobj(d)
    assert np.abs(d - 1j * k * f).max() < 1e-11


def test_cached_wavenumbers_keep_their_values():
    for grid in _grids():
        expected = 2 * np.pi * np.fft.fftfreq(grid.n, d=1.0 / grid.n) / grid.period
        grid.derivative(np.sin(grid.nodes))
        assert grid.wavenumbers is grid.wavenumbers
        assert np.array_equal(grid.wavenumbers, expected)
        assert np.array_equal(grid.modes, np.fft.fftfreq(grid.n, d=1.0 / grid.n))
        with pytest.raises(ValueError):
            grid.wavenumbers[0] = 1.0


def test_cached_nodes_keep_their_values():
    for grid in _grids():
        expected = np.arange(grid.n) * grid.dx
        if grid.kind == "line":
            expected = expected - grid.half_width
        assert grid.nodes is grid.nodes
        assert np.array_equal(grid.nodes, expected)
        with pytest.raises(ValueError):
            grid.nodes[0] = 1.0


def _real_or_complex(rng, shape, cplx):
    f = rng.normal(size=shape)
    return f + 1j * rng.normal(size=shape) if cplx else f


@pytest.mark.parametrize("n", [4, 16, 64, 128])
def test_dense_route_matches_fft_route(n):
    """Up to DENSE_MAX_N samples derivatives and upsampling take the dense
    matrices; the FFT route is their oracle. Random data fills every mode,
    the Nyquist mode too."""
    assert n <= DENSE_MAX_N
    rng = np.random.default_rng(n)
    for grid in (SpectralGrid(n), SpectralGrid(n, kind="line", half_width=2.5),
                 SpectralGrid(n, kind="torus")):
        for shape in ((n,), (n, 3), (n, 2, 3)):
            for cplx in (False, True):
                f = _real_or_complex(rng, shape, cplx)
                for orders in ((1,), (2,), (3,), (-1,), (1, 2)):
                    got = grid.derivatives(f, orders)
                    ref = grid._fft_derivatives(f, orders)
                    for d, r in zip(got, ref):
                        assert d.shape == r.shape and d.dtype == r.dtype
                        assert np.abs(d - r).max() <= 1e-13 * np.abs(r).max()
                for factor in (2, 3):
                    fine = grid.upsample(f, factor)
                    ref = grid._fft_upsample(f, factor)
                    assert fine.shape == ref.shape and fine.dtype == ref.dtype
                    assert np.abs(fine - ref).max() <= 1e-13 * np.abs(ref).max()
                    assert np.array_equal(fine[::factor], f)


def test_fft_route_above_the_crossover():
    grid = SpectralGrid(2 * DENSE_MAX_N)
    f = np.random.default_rng(0).normal(size=(grid.n, 3))
    for got, ref in zip(grid.derivatives(f), grid._fft_derivatives(f, (1, 2))):
        assert np.array_equal(got, ref)
    assert np.array_equal(grid.upsample(f), grid._fft_upsample(f, 2))


@pytest.mark.parametrize("n", [4, 16, 128, 256, 1024])
def test_midpoints_are_the_odd_rows_of_the_upsample(n):
    """Bit for bit on the dense route, to rounding above it."""
    grid = SpectralGrid(n)
    rng = np.random.default_rng(n)
    for shape in ((n,), (n, 3), (n, 2, 3)):
        f = rng.normal(size=shape)
        got, ref = grid.midpoints(f), grid.upsample(f, 2)[1::2]
        assert got.shape == ref.shape and got.dtype == ref.dtype
        if n <= DENSE_MAX_N:
            assert np.array_equal(got, ref)
        else:
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    x = grid.nodes + 0.5 * grid.dx
    assert np.abs(grid.midpoints(np.cos(2 * np.pi * grid.nodes))
                  - np.cos(2 * np.pi * x)).max() < 1e-12


def test_fft_derivative_does_not_depend_on_the_other_orders():
    """Above the crossover each order is one inverse transform of the shared
    spectrum, scaled in place for the last order and into a copy for the
    others; either way it is bit-equal to the order asked alone."""
    grid = SpectralGrid(2 * DENSE_MAX_N)
    rng = np.random.default_rng(5)
    for shape in ((grid.n,), (grid.n, 3), (grid.n, 2, 3)):
        for cplx in (False, True):
            f = _real_or_complex(rng, shape, cplx)
            for order in (1, 2, -1):
                (single,) = grid.derivatives(f, (order,))
                for got in (grid.derivatives(f, (order, 3))[0],
                            grid.derivatives(f, (3, order))[1]):
                    assert got.shape == single.shape and got.dtype == single.dtype
                    assert np.array_equal(got, single)


@pytest.mark.parametrize("n", [4, 16, 64, 128])
def test_dense_derivatives_of_constants_are_zero(n):
    for grid in (SpectralGrid(n), SpectralGrid(n, kind="line", half_width=2.5),
                 SpectralGrid(n, kind="torus")):
        for c in (np.full((grid.n, 3), 0.7), np.full(grid.n, -2.5 + 1.25j)):
            for d in grid.derivatives(c, (1, 2, 3, -1)):
                assert not d.any()
