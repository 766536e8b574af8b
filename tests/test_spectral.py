"""Periodic grid calculus: exactness on band-limited data and shift behavior."""

import itertools
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smflow import flow_direct as fd
from smflow import geometry as geo
from smflow import holonomy as hol
from smflow import nls_solver as nls
from smflow import spectral
from smflow.errors import ResolutionError
from smflow.spectral import DENSE_MAX_N, SpectralGrid, interpolant, mode_numbers


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
                    ref = spectral._fft_derivatives(grid, orders, not cplx)(f)
                    for d, r in zip(got, ref):
                        assert d.shape == r.shape and d.dtype == r.dtype
                        assert np.abs(d - r).max() <= 1e-13 * np.abs(r).max()
                for factor in (2, 3):
                    fine = grid.upsample(f, factor)
                    ref = interpolant(f, n * factor)[0]
                    assert fine.shape == ref.shape and fine.dtype == ref.dtype
                    assert np.abs(fine - ref).max() <= 1e-13 * np.abs(ref).max()
                    assert np.array_equal(fine[::factor], f)


def test_fft_route_above_the_crossover():
    grid = SpectralGrid(2 * DENSE_MAX_N)
    f = np.random.default_rng(0).normal(size=(grid.n, 3))
    for got, ref in zip(grid.derivatives(f), spectral._fft_derivatives(grid, (1, 2), True)(f)):
        assert np.array_equal(got, ref)
    assert np.array_equal(grid.upsample(f), interpolant(f, 2 * grid.n)[0])
    assert np.array_equal(grid.midpoints(f), interpolant(f, grid.n, (0.5,))[0])


@pytest.mark.parametrize("n", [4, 16, 128, 256, 1024])
def test_midpoints_are_the_odd_rows_of_the_upsample(n):
    """Bit for bit on the dense route, to rounding above it; real samples
    and complex ones (reconstruct_loop upsamples the complex phi)."""
    grid = SpectralGrid(n)
    rng = np.random.default_rng(n)
    for shape, cplx in itertools.product(((n,), (n, 3), (n, 2, 3)), (False, True)):
        f = _real_or_complex(rng, shape, cplx)
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


# -- one owner of the transforms ------------------------------------------------


def _fftfreq_int(n):
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


def _inline_l4(modes):
    """_l4_of_free_evolution with numpy's transforms written out."""
    n = modes.shape[0]
    m = _fftfreq_int(n)
    mags = np.abs(modes)
    mmax = int(np.abs(m[mags > 1e-13 * (mags.max() + 1e-300)]).max(initial=0))
    n_t = max(64, 2 * mmax * mmax + 1)
    nq = 1 << int(np.ceil(np.log2(max(n, 4 * (mmax + 1), 8))))
    pad = np.zeros((n_t, nq), dtype=complex)
    ts = 2.0 * np.pi * np.arange(n_t) / n_t
    pad[:, m % nq] = np.exp(1j * np.outer(ts, m.astype(float) ** 2)) * modes[None, :]
    return float((4.0 * np.pi**2 * np.mean(np.abs(np.fft.ifft(pad, axis=1) * nq) ** 4)) ** 0.25)


def _inline_split_step(values, k, dt, theta, n_steps):
    multiplier = np.exp(1j * (k - theta) ** 2 * dt)
    for _ in range(n_steps):
        values = values * np.exp(0.5j * dt * -np.abs(values) ** 2)
        values = np.fft.ifft(multiplier * np.fft.fft(values))
        values = values * np.exp(0.5j * dt * -np.abs(values) ** 2)
    return values


def _inline_picard(values, k2, times, tol=1e-12):
    dt = times[1] - times[0]
    evolve = np.exp(1j * np.outer(times, k2))
    free = np.fft.ifft(evolve * np.fft.fft(values)[None, :], axis=1)
    current = free
    while True:
        src = np.exp(-1j * np.outer(times, k2)) * np.fft.fft(np.abs(current) ** 2 * current, axis=1)
        integral = np.cumsum(src, axis=0) * dt - dt * 0.5 * (src + src[0:1])
        new = free - 1j * np.fft.ifft(evolve * integral, axis=1)
        if np.abs(new - current).max() < tol:
            return new
        current = new


def _inline_gauss_nodes(samples, n_cells):
    n = samples.shape[0]
    coeff = np.fft.fft(samples, axis=0) * (n_cells / n)
    modes = _fftfreq_int(n)
    if n % 2 == 0:
        coeff[n // 2] *= 0.5
        coeff = np.concatenate([coeff, coeff[n // 2 : n // 2 + 1]])
        modes = np.append(modes, n // 2)
    phase = np.exp(2j * np.pi * np.outer(hol._GAUSS_OFFSETS, modes) / n_cells)
    padded = np.zeros((2, n_cells) + samples.shape[1:], dtype=complex)
    np.add.at(padded, (slice(None), modes % n_cells),
              phase.reshape(phase.shape + (1, 1)) * coeff)
    return np.fft.ifft(padded, axis=1)


def _inline_duhamel(F, t, delta):
    """duhamel_term's profile, free evolution and L^4 report; the time grid
    holds the cutoff on a sample, so no partial trapezoid is left."""
    n_x = F.grid.n
    m = _fftfreq_int(n_x)
    dt = F.times[1] - F.times[0]
    integrand = np.exp(-1j * np.outer(F.times, m.astype(float) ** 2)) * (
        np.fft.fft(F.values, axis=1) / n_x)
    k_full = int(np.floor(2.0 * delta * 2.0 * np.pi / dt + 1e-12))
    w = np.zeros(F.times.size)
    w[: k_full + 1] = dt
    w[0] = w[k_full] = dt / 2.0
    profile = np.fft.ifft((integrand.T @ w) * n_x)
    out = np.fft.ifft(np.exp(1j * F.grid.wavenumbers**2 * t) * np.fft.fft(profile))
    return out, _inline_l4(np.fft.fft(profile) / n_x)


def _inline_shift(grid, values, s):
    phase = np.exp(-1j * grid.wavenumbers * s)
    return np.fft.ifft(np.fft.fft(values, axis=0) * phase[:, None], axis=0).real


def _inline_midpoints(values):
    """The interpolant of even-n samples at the cell midpoints, offset 1/2 on
    n cells: the Nyquist coefficient halved at -n/2 and at n/2, which meet
    in one bin."""
    n = len(values)
    coeff = np.fft.fft(values, axis=0)
    coeff[n // 2] *= 0.5
    coeff = np.concatenate([coeff, coeff[n // 2 : n // 2 + 1]])
    modes = np.append(_fftfreq_int(n), n // 2)
    phase = np.exp(2j * np.pi * np.outer((0.5,), modes) / n)
    padded = np.zeros((1,) + values.shape, dtype=complex)
    np.add.at(padded, (slice(None), modes % n), phase[..., None] * coeff)
    return np.fft.ifft(padded, axis=1)[0].real


def _inline_derivatives(grid, values, orders):
    """The FFT derivative route with numpy's public transforms: the spectrum
    column-major, each order's multiplier row on its transpose."""
    real = values.dtype.kind != "c"
    vhat = np.asfortranarray((np.fft.rfft if real else np.fft.fft)(values, axis=0))
    inverse = np.fft.irfft if real else np.fft.ifft
    return tuple(inverse((vhat.T * row).T, grid.n, axis=0)
                 for row in spectral._multipliers(grid, orders, real))


def _derivative_sites(n):
    """derivatives on the FFT route at n, every order set, real and complex
    data, row- and column-major, trailing shapes (), (3,) and (2, 3)."""
    grid, rng = SpectralGrid(n), np.random.default_rng(n)
    for shape in ((n,), (n, 3), (n, 2, 3)):
        for cplx in (False, True):
            for layout in "CF":
                f = np.asarray(_real_or_complex(rng, shape, cplx), order=layout)
                for orders in ((-1,), (0,), (1,), (2,), (3,), (1, 2)):
                    yield (f"derivatives n={n} {shape} {f.dtype} {layout} {orders}",
                           grid.derivatives(f, orders), _inline_derivatives(grid, f, orders))


def _dft_sites(n):
    """dft along every axis of (n + 1, 3, n) data, odd and even lengths,
    real and complex, row- and column-major."""
    rng = np.random.default_rng(n)
    for cplx in (False, True):
        for layout in "CF":
            f = np.asarray(_real_or_complex(rng, (n + 1, 3, n), cplx), order=layout)
            for axis in range(-3, 3):
                for inverse in (False, True):
                    yield (f"dft {f.dtype} {layout} axis={axis} inverse={inverse}",
                           spectral.dft(f, axis, inverse),
                           (np.fft.ifft if inverse else np.fft.fft)(f, axis=axis))


def _rerouted_sites(n):
    """(name, site, its inline numpy formula) for every transform that goes
    through spectral.dft, mode_numbers, interpolant, SpectralGrid.multiply
    or the FFT derivative route; the last at the even sizes 130 to 4096."""
    rng = np.random.default_rng(n)
    grid = SpectralGrid(n, kind="torus")
    k = grid.wavenumbers
    phi = nls.ComplexField(grid, rng.normal(size=n) + 1j * rng.normal(size=n))
    small = nls.ComplexField(grid, 0.1 * np.exp(1j * grid.nodes) + 0.05j * np.cos(2 * grid.nodes))
    n_t = 50  # delta = 0.02 cuts the Duhamel integral at sample 2
    F = nls.SpaceTimeField(2.0 * np.pi * np.arange(n_t) / n_t, grid,
                           rng.normal(size=(n_t, n)) + 1j * rng.normal(size=(n_t, n)))
    weight = (np.abs(_fftfreq_int(n_t)[:, None] - _fftfreq_int(n) ** 2) + 1.0) ** -0.75
    samples = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    real = rng.normal(size=(n, 3))
    fine = SpectralGrid(256)
    fine_real = rng.normal(size=(256, 3))
    duhamel = nls.duhamel_term(F, 0.4, 0.02, 0.2)
    picard = nls.picard_iterate(small, lambda v, t: -np.abs(v) ** 2, 0.01).solution
    return [
        ("ComplexField.modes", phi.modes, np.fft.fft(phi.values) / n),
        ("free_propagate", nls.free_propagate(phi, 0.3).values,
         np.fft.ifft(np.exp(1j * k**2 * 0.3) * np.fft.fft(phi.values))),
        ("split_step", nls.split_step(phi, 1e-3, lambda v, t: -np.abs(v) ** 2,
                                      theta=0.7, n_steps=5).values,
         _inline_split_step(phi.values, k, 1e-3, 0.7, 5)),
        ("picard_iterate", picard.values, _inline_picard(small.values, k**2, picard.times)),
        ("bourgain_weighted_norm", nls.bourgain_weighted_norm(F),
         float(np.sqrt(np.sum(weight * np.abs(np.fft.fft2(F.values) / (n_t * n)) ** 2)))),
        ("duhamel_term", (duhamel.field.values, duhamel.l4_norm), _inline_duhamel(F, 0.4, 0.02)),
        ("_l4_of_free_evolution", nls._l4_of_free_evolution(phi.modes),
         _inline_l4(np.fft.fft(phi.values) / n)),
        ("interpolant at the Gauss nodes", interpolant(samples, 2 * n, hol._GAUSS_OFFSETS),
         _inline_gauss_nodes(samples, 2 * n)),
        ("shift", grid.shift(real, 0.37 * grid.dx), _inline_shift(grid, real, 0.37 * grid.dx)),
        ("midpoints", fine.midpoints(fine_real), _inline_midpoints(fine_real)),
        *_dft_sites(n),
        *(site for m in {64: (130, 4096), 98: (256, 1000)}[n] for site in _derivative_sites(m)),
    ]


def _bits(value):
    return np.ascontiguousarray(np.atleast_1d(value), dtype=complex).view(float)


@pytest.mark.parametrize("n", (64, 98))
def test_rerouted_transforms_keep_the_inline_bits(n):
    """Each site gives the bits of the np.fft formula it replaced, the
    multiplication order included; the mode tables are the exact integers,
    also at 98, a size whose fftfreq floats are an ulp off them."""
    for name, got, inline in _rerouted_sites(n):
        pairs = zip(got, inline) if isinstance(got, tuple) else [(got, inline)]
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in pairs), name


def _flow_points(n_steps=50):
    state = fd.initial_loop(geo.round_sphere(1.0), SpectralGrid(256), "perturbed_latitude",
                            alpha=np.pi / 4, eps=0.05, m=2)
    return fd.evolve(state, fd.admissible_dt(state), n_steps).points


def test_public_transforms_give_the_flow_the_same_bits(monkeypatch):
    """The route the probe selects and numpy's public functions agree bit for
    bit over 50 flow steps at N = 256, the acceptance-1 kernel."""
    fast = _flow_points()
    monkeypatch.setattr(spectral, "_TRANSFORMS", spectral._PUBLIC)
    assert np.array_equal(_bits(_flow_points()), _bits(fast))


def _stub(name, fault):
    """numpy's pocketfft gufuncs with the one called name replaced by fault."""
    umath = np.fft._pocketfft_umath
    gufuncs = {f: getattr(umath, f) for f in ("rfft_n_even", "irfft", "fft", "ifft")}
    return SimpleNamespace(**gufuncs | {name: fault(gufuncs[name])})


def _one_ulp_off(ufunc):
    def call(a, fct, axes, out):
        part = ufunc(a, fct, axes=axes, out=out).real
        part.flat[0] = np.nextafter(part.flat[0], np.inf)
        return out
    return call


def _raises(ufunc):
    def call(*args, **kwargs):
        raise RuntimeError("no transform")
    return call


def test_probe_takes_numpys_gufuncs_only_on_equal_bits():
    """numpy's own gufuncs pass the probe; one off by an ulp in one entry,
    one that raises or a missing module selects the public functions."""
    assert spectral._TRANSFORMS is not spectral._PUBLIC
    assert spectral._select(np.fft._pocketfft_umath) is not spectral._PUBLIC
    assert spectral._select(None) is spectral._PUBLIC
    for name in ("rfft_n_even", "irfft", "fft", "ifft"):
        for fault in (_one_ulp_off, _raises):
            assert spectral._select(_stub(name, fault)) is spectral._PUBLIC, (name, fault)


def test_mode_numbers_are_the_exact_table():
    """mode_numbers is the exact integer table for every n up to 4096, also
    where numpy's fftfreq floats are an ulp off it (n = 49, 98, ...); the
    grid's modes are that table."""
    for n in range(1, 4097):
        exact = np.r_[0 : (n - 1) // 2 + 1, -(n // 2) : 0]
        got = mode_numbers(n)
        assert got.dtype.kind == "i" and np.array_equal(got, exact), n
    assert not mode_numbers(64).flags.writeable
    assert SpectralGrid(98).modes is mode_numbers(98)


def test_wavenumbers_are_exact_at_a_size_where_fftfreq_is_not():
    """At n = 98 the wavenumbers are 2 pi m / period of the exact integers m,
    on every grid kind."""
    for grid in (SpectralGrid(98), SpectralGrid(98, "line", 2.5), SpectralGrid(98, "torus")):
        assert np.array_equal(grid.wavenumbers, 2.0 * np.pi * mode_numbers(98) / grid.period)


def test_only_spectral_calls_numpy_fft():
    """spectral.py owns every transform: no other module names numpy.fft or
    its private gufunc module."""
    src = Path(__file__).resolve().parents[1] / "src" / "smflow"
    users = [p.name for p in sorted(src.glob("*.py")) if p.name != "spectral.py"
             and re.search(r"\bnp\.fft\b|\bnumpy\.fft\b|from numpy import fft|_pocketfft",
                           p.read_text())]
    assert users == []


def test_grid_and_upsample_refusals():
    """An unknown grid kind, a line without a half width and an upsampling
    factor below 1 are refused; factor 1 returns a copy."""
    with pytest.raises(ValueError, match="unknown grid kind 'strip'"):
        SpectralGrid(16, "strip")
    with pytest.raises(ValueError, match="positive half_width"):
        SpectralGrid(16, "line")
    grid, f = SpectralGrid(16), np.arange(16.0)
    with pytest.raises(ValueError, match="factor must be >= 1"):
        grid.upsample(f, 0)
    same = grid.upsample(f, 1)
    assert same is not f and np.array_equal(same, f)
