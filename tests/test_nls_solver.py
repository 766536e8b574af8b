"""Free propagation, restriction-estimate verifiers, Duhamel terms, and
the split-step / Picard integrators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smflow.errors import BlowUpSuspectedError, ConfigError, NoConvergenceError
from smflow.nls_solver import (
    DUHAMEL_CONSTANT,
    ComplexField,
    SpaceTimeField,
    _l4_of_free_evolution,
    bourgain_weighted_norm,
    calibrate_duhamel_constant,
    duhamel_term,
    free_propagate,
    picard_iterate,
    split_step,
    strichartz_ratio,
)
from smflow.spectral import SpectralGrid

TORUS = SpectralGrid(64, kind="torus")
X = TORUS.nodes


def torus_field(values):
    return ComplexField(TORUS, values)


def torus_field_on(n, values):
    return ComplexField(SpectralGrid(n, kind="torus"), values)


def random_mode_field(rng, n_modes=32, mode_range=16, n=64):
    amps = np.zeros(n, dtype=complex)
    idx = rng.choice(np.arange(-mode_range, mode_range + 1), size=n_modes, replace=False)
    amps[idx % n] = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    vals = np.fft.ifft(amps) * n
    return ComplexField(SpectralGrid(n, kind="torus"), vals)


class TestComplexField:
    def test_validation_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            ComplexField(TORUS, np.ones(32))
        bad = np.ones(64, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(ConfigError):
            ComplexField(TORUS, bad)

    def test_parseval_defect_is_rounding_level(self):
        rng = np.random.default_rng(5)
        f = random_mode_field(rng)
        assert f.parseval_defect() < 1e-12

    def test_as_torus_keeps_samples_and_rescales_time(self):
        grid = SpectralGrid(64, kind="circle")
        f = ComplexField(grid, np.exp(2j * np.pi * 3 * grid.nodes))
        tor = f.as_torus()
        assert np.array_equal(tor.values, f.values)
        t = 0.013
        a = free_propagate(f, t).values
        b = free_propagate(tor, 4.0 * np.pi**2 * t).values
        assert np.abs(a - b).max() < 1e-12


class TestFreePropagation:
    def test_single_modes_get_quadratic_phases(self):
        m = 5
        f = torus_field(np.exp(1j * m * X))
        out = free_propagate(f, 0.37)
        assert np.abs(out.values - np.exp(1j * (m * X + m**2 * 0.37))).max() < 1e-12
        grid = SpectralGrid(64, kind="circle")
        g = ComplexField(grid, np.exp(2j * np.pi * m * grid.nodes))
        out2 = free_propagate(g, 1e-3)
        expected = np.exp(1j * (2 * np.pi * m * grid.nodes + (2 * np.pi * m) ** 2 * 1e-3))
        assert np.abs(out2.values - expected).max() < 1e-12

    def test_exact_unitarity_and_reversibility(self):
        rng = np.random.default_rng(2)
        f = random_mode_field(rng)
        out = free_propagate(f, 0.83)
        assert abs(out.l2_norm() - f.l2_norm()) < 1e-13
        back = free_propagate(out, -0.83)
        assert np.abs(back.values - f.values).max() < 1e-12

    @given(t1=st.floats(-2.0, 2.0), t2=st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_group_property(self, t1, t2):
        f = torus_field(np.exp(1j * X) + 0.4 * np.exp(-3j * X))
        once = free_propagate(f, t1 + t2)
        twice = free_propagate(free_propagate(f, t1), t2)
        assert np.abs(once.values - twice.values).max() < 1e-10


class TestStrichartzRatio:
    def test_single_mode_gives_one(self):
        f = torus_field(2.3 * np.exp(1j * 7 * X))
        assert abs(strichartz_ratio(f) - 1.0) < 1e-12

    def test_two_modes_give_quarter_power(self):
        f = torus_field(np.exp(1j * 3 * X) + np.exp(-1j * 6 * X))
        assert abs(strichartz_ratio(f) - 1.5**0.25) < 1e-10

    def test_random_data_respects_sqrt_two(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            assert strichartz_ratio(random_mode_field(rng)) <= np.sqrt(2.0) + 1e-9

    def test_zero_field_rejected(self):
        with pytest.raises(ConfigError):
            strichartz_ratio(torus_field(np.zeros(64)))

    def test_time_grid_of_two_mmax_squared_is_exact(self):
        """|u|^4 has time frequencies of at most 2 mmax^2, so the grid of
        2 mmax^2 + 1 samples gives the closed form of the ratio and the
        L4 norm of the former grid of at least 4 mmax^2 + 4 samples."""
        rng = np.random.default_rng(7)
        for n_modes, mode_range in ((1, 3), (2, 5), (6, 4), (12, 9), (33, 16)):
            f = random_mode_field(rng, n_modes=n_modes, mode_range=mode_range)
            a = f.as_torus().modes
            closed = (2.0 - np.sum(np.abs(a) ** 4) / np.sum(np.abs(a) ** 2) ** 2) ** 0.25
            assert abs(strichartz_ratio(f) - closed) <= 1e-12
            l4 = _l4_of_free_evolution(a)
            assert abs(l4 - l4_on_former_time_grid(a)) <= 1e-14 * l4


def l4_on_former_time_grid(modes):
    """L^4(T^2) norm of sum_m a_m e^{i(m x + m^2 t)} by direct summation on
    the former time grid, a power of two of at least 4 mmax^2 + 4 samples."""
    n = modes.size
    m = np.fft.fftfreq(n, d=1.0 / n)
    mmax = int(np.abs(m[np.abs(modes) > 1e-13 * np.abs(modes).max()]).max())
    n_t = 1 << max(6, int(np.ceil(np.log2(4 * mmax**2 + 4))))
    t = 2 * np.pi * np.arange(n_t) / n_t
    x = 2 * np.pi * np.arange(4 * mmax + 4) / (4 * mmax + 4)
    u = (np.exp(1j * np.outer(t, m**2)) * modes) @ np.exp(1j * np.outer(m, x))
    return (4 * np.pi**2 * np.mean(np.abs(u) ** 4)) ** 0.25


def uniform_times(n_t):
    return 2.0 * np.pi * np.arange(n_t) / n_t


class TestBourgainNorm:
    def test_single_temporal_mode_weight(self):
        times = uniform_times(64)
        vals = 1.7 * np.exp(1j * 16 * times)[:, None] * np.ones(64)[None, :]
        st_field = SpaceTimeField(times, TORUS, vals)
        assert abs(bourgain_weighted_norm(st_field) - 17.0 ** (-0.375) * 1.7) < 1e-12

    def test_orientation_of_the_weight(self):
        times = uniform_times(64)
        plus = SpaceTimeField(times, TORUS, np.exp(1j * (X[None, :] + times[:, None])))
        minus = SpaceTimeField(times, TORUS, np.exp(1j * (X[None, :] - times[:, None])))
        assert abs(bourgain_weighted_norm(plus) - 1.0) < 1e-12
        assert abs(bourgain_weighted_norm(minus) - 3.0 ** (-0.375)) < 1e-12

    def test_free_solutions_sit_on_the_parabola(self):
        amps = np.zeros(64, dtype=complex)
        amps[3], amps[-5 % 64] = 0.7, 0.2j
        times = uniform_times(64)
        k = np.fft.fftfreq(64, d=1.0 / 64)
        hist = np.array([np.fft.ifft(np.exp(1j * k**2 * t) * amps) * 64 for t in times])
        st_field = SpaceTimeField(times, TORUS, hist)
        plain = np.sqrt(np.sum(np.abs(amps) ** 2))
        assert abs(bourgain_weighted_norm(st_field) - plain) < 1e-12

    def test_time_grid_validation(self):
        times = np.array([0.0, 0.1, 0.15])
        with pytest.raises(ConfigError):
            SpaceTimeField(times, TORUS, np.zeros((3, 64), dtype=complex))


class TestDuhamelTerm:
    def make_source(self, rng, n_t=256):
        times = uniform_times(n_t)
        spec = np.zeros((n_t, 64), dtype=complex)
        rows = rng.integers(-8, 9, size=12)
        cols = rng.integers(-8, 9, size=12)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        for r, c, amp in zip(rows, cols, amps):
            spec[r % n_t, c % 64] += amp
        return SpaceTimeField(times, TORUS, np.fft.ifft2(spec) * (n_t * 64))

    def test_parameter_domain(self):
        F = self.make_source(np.random.default_rng(0))
        for delta, b in [(0.2, 0.1), (0.0, 0.1), (0.05, 0.3), (0.01, -1.0)]:
            with pytest.raises(ConfigError):
                duhamel_term(F, 0.0, delta, b)

    def test_single_free_mode_closed_form(self):
        times = uniform_times(256)
        m = 3
        vals = np.exp(1j * (m * X[None, :] + m**2 * times[:, None]))
        F = SpaceTimeField(times, TORUS, vals)
        delta = 0.02
        res = duhamel_term(F, 0.5, delta, 0.3)
        pred = 4.0 * np.pi * delta * np.exp(1j * (m * X + m**2 * 0.5))
        assert np.abs(res.field.values - pred).max() < 1e-12
        assert abs(res.l4_norm - 4.0 * np.pi * delta * (4.0 * np.pi**2) ** 0.25) < 1e-10

    def test_report_time_only_free_propagates(self):
        F = self.make_source(np.random.default_rng(8))
        a = duhamel_term(F, 0.0, 0.03, 0.2)
        b = duhamel_term(F, 1.1, 0.03, 0.2)
        moved = free_propagate(a.field, 1.1)
        assert np.abs(moved.values - b.field.values).max() < 1e-10
        assert abs(a.l4_norm - b.l4_norm) < 1e-12

    def test_calibrated_bound_on_held_out_ensemble(self):
        rng = np.random.default_rng(2026)
        for _ in range(25):
            F = self.make_source(rng)
            for delta in (0.005, 0.02, 0.04):
                for b in (0.05, 0.2):
                    if not 0 < b < 1.0 / (100.0 * delta):
                        continue
                    res = duhamel_term(F, 0.0, delta, b)
                    assert res.l4_norm <= res.bound
                    assert res.constant == DUHAMEL_CONSTANT

    def test_calibration_stays_below_pinned_constant(self):
        worst = calibrate_duhamel_constant()
        assert 0.0 < worst <= DUHAMEL_CONSTANT


class TestSplitStep:
    def test_plane_wave_is_exact(self):
        for c in (1.3, -0.7):
            A, m, T = 0.8, 2, 0.2
            phi0 = torus_field(A * np.exp(1j * m * X))
            pot = lambda v, t: -c * np.abs(v) ** 2
            out = split_step(phi0, T / 200, potential=pot, n_steps=200)
            exact = A * np.exp(1j * (m * X + (m**2 - c * A**2) * T))
            assert np.abs(out.values - exact).max() < 1e-12

    def test_twisted_multiplier_closed_form(self):
        theta = 0.37
        m = 4
        phi0 = torus_field(np.exp(1j * m * X))
        out = split_step(phi0, 0.05, theta=theta, n_steps=7)
        exact = np.exp(1j * (m * X + (m - theta) ** 2 * 0.35))
        assert np.abs(out.values - exact).max() < 1e-12

    def test_second_order_on_two_mode_data(self):
        phi0 = torus_field(0.5 * np.exp(1j * X) + 0.3 * np.exp(-2j * X))
        pot = lambda v, t: -np.abs(v) ** 2
        T = 0.3
        ref = split_step(phi0, T / 8192, potential=pot, n_steps=8192).values
        errs = []
        for n in (64, 128, 256):
            out = split_step(phi0, T / n, potential=pot, n_steps=n).values
            errs.append(np.abs(out - ref).max())
        assert errs[0] / errs[1] > 2.0**1.9
        assert errs[1] / errs[2] > 2.0**1.9

    def test_l2_conservation_long_run(self):
        phi0 = torus_field(0.4 * np.exp(1j * X) + 0.2 * np.exp(3j * X))
        pot = lambda v, t: -1.5 * np.abs(v) ** 2
        out = split_step(phi0, 1e-3, potential=pot, n_steps=10000)
        assert abs(out.l2_norm() - phi0.l2_norm()) < 1e-8

    def test_zero_potential_matches_free_propagator(self):
        rng = np.random.default_rng(4)
        f = random_mode_field(rng)
        a = split_step(f, 0.02, n_steps=5)
        b = free_propagate(f, 0.1)
        assert np.abs(a.values - b.values).max() < 1e-12

    def test_blow_up_guard_reports_diagnostics(self):
        phi0 = torus_field(np.exp(1j * X))
        with pytest.raises(BlowUpSuspectedError) as err:
            split_step(phi0, 0.01, blow_up_threshold=0.5)
        diag = err.value.diagnostics
        assert "max_abs" in diag and "suggestion" in diag


class TestSymmetries:
    """A constant phase and a roll by whole cells commute with the cubic
    split step and the free flow, to 1e-13 of max|phi| = 1: checks of the
    Fourier-multiplier route that need no closed form."""

    @pytest.mark.parametrize("n", (32, 64))
    @pytest.mark.parametrize("theta", (0.0, 0.7))
    def test_phase_and_roll_commute_with_the_flows(self, n, theta):
        rng = np.random.default_rng(n)
        vals = random_mode_field(rng, n_modes=12, mode_range=6, n=n).values
        phi = torus_field_on(n, vals / np.abs(vals).max())
        pot = lambda v, t: -np.abs(v) ** 2
        flows = (lambda f: split_step(f, 1e-3, pot, theta=theta, n_steps=50),
                 lambda f: free_propagate(f, 0.05 + theta))
        moves = (lambda v: np.exp(0.9j) * v, lambda v: np.roll(v, 5))
        for flow in flows:
            for move in moves:
                moved = flow(torus_field_on(n, move(phi.values)))
                assert np.abs(moved.values - move(flow(phi).values)).max() < 1e-13


class TestPicard:
    def test_zero_source_converges_immediately(self):
        phi0 = torus_field(np.exp(1j * X))
        res = picard_iterate(phi0, None, delta=0.02)
        assert res.iterations == 1
        t_end = res.solution.times[-1]
        free = free_propagate(phi0, t_end)
        assert np.abs(res.solution.values[-1] - free.values).max() < 1e-12

    def test_small_data_cubic_contracts_and_matches_split_step(self):
        phi0 = torus_field(0.1 * np.exp(1j * X) + 0.05 * np.exp(-2j * X))
        pot = lambda v, t: -np.abs(v) ** 2
        res = picard_iterate(phi0, pot, delta=0.01, n_time=64)
        assert max(res.factors) < 0.5
        t_end = res.solution.times[-1]
        ss = split_step(phi0, t_end / 4096, potential=pot, n_steps=4096)
        assert np.abs(res.solution.values[-1] - ss.values).max() < 1e-6

    def test_large_data_raises_no_convergence(self):
        phi0 = torus_field(20.0 * np.exp(1j * X))
        pot = lambda v, t: -np.abs(v) ** 2
        with pytest.raises(NoConvergenceError) as err:
            picard_iterate(phi0, pot, delta=0.05, n_time=32, max_iter=8)
        assert len(err.value.factors) > 0

    def test_grid_kind_sets_the_time_horizon(self):
        """The horizon 2 delta period reads the grid: 2 pi on a torus grid,
        1 on the circle; no label on the field is needed."""
        res = picard_iterate(torus_field(np.exp(1j * X)), None, delta=0.02)
        assert abs(res.solution.times[-1] - 2.0 * 0.02 * 2.0 * np.pi) < 1e-15
        circle = SpectralGrid(64)
        res = picard_iterate(ComplexField(circle, np.exp(2j * np.pi * circle.nodes)),
                             None, delta=0.02)
        assert abs(res.solution.times[-1] - 2.0 * 0.02) < 1e-15

    def test_delta_domain(self):
        phi0 = torus_field(np.exp(1j * X))
        with pytest.raises(ConfigError):
            picard_iterate(phi0, None, delta=0.5)
