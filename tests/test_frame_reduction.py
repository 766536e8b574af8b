"""Parallel frames, frame coefficients, curvature potentials, the reduced
equation, and the coupled/autonomous drivers."""

import copy
from collections import deque

import numpy as np
import pytest

from smflow import flow_direct as fd
from smflow import frame_reduction as fr
from smflow.errors import (
    ConfigError,
    InconsistentHolonomyError,
    ResolutionError,
    SingularChartError,
    UnsupportedCombinationError,
    UnsupportedOperationError,
)
from smflow.flow_direct import LoopState
from smflow.geometry import (
    TangentVector,
    _unit_tangent,
    bump_warp,
    flat_torus,
    hyperbolic_disk,
    parallel_transport,
    product_surface,
    round_sphere,
    warped_sphere,
)
from smflow.holonomy import (holonomy_ode, holonomy_rate, lift_to_branch,
                             swept_angle_increment)
from smflow.nls_solver import ComplexField, free_propagate, split_step
from smflow.spectral import SpectralGrid

ROUND = round_sphere(1.0)


def bumpy_surface():
    return warped_sphere(
        *bump_warp(amplitude=0.12, width=0.55, center=(0.55, 0.45, 0.7))
    )


def bumpy_loop(n=96):
    surf = bumpy_surface()
    grid = SpectralGrid(n)
    loop = fd.initial_loop(
        surf, grid, "fourier", colat_coeffs=[(2, 0.06, -0.04), (3, 0.0, 0.05)]
    )
    return surf, grid, loop


def line_profile(n=128, half_width=6.0, sigma=0.8):
    surf = hyperbolic_disk()
    grid = SpectralGrid(n, kind="line", half_width=half_width)
    x = grid.nodes
    env = np.exp(-(x**2) / (2 * sigma**2))
    pts = np.stack(
        [0.1 + 0.12 * env * np.cos(2.0 * x), 0.2 + 0.1 * env * np.sin(1.5 * x)],
        axis=-1,
    )
    return surf, grid, LoopState(grid=grid, surface=surf, points=pts)


class TestFrames:
    def test_frame_invariants_on_warped_loop(self):
        surf, grid, loop = bumpy_loop()
        frame = fr.parallel_frame(surf, loop)
        assert frame.orthonormality_defect() < 1e-10
        assert frame.j_defect() < 1e-10

    def test_product_target_rejected(self):
        surf = product_surface(round_sphere(1.0), flat_torus())
        grid = SpectralGrid(32)
        pts = np.zeros((32, 5))
        pts[:, 2] = 1.0
        loop = LoopState(grid=grid, surface=surf, points=pts)
        with pytest.raises(UnsupportedOperationError):
            fr.parallel_frame(surf, loop)

    def test_coarse_grid_rejected(self):
        grid = SpectralGrid(8)
        loop = fd.initial_loop(ROUND, grid, "great_circle")
        with pytest.raises(ResolutionError):
            fr.parallel_frame(ROUND, loop)

    def test_coefficients_reconstruct_loop_derivative(self):
        surf, grid, loop = bumpy_loop()
        frame = fr.parallel_frame(surf, loop)
        co = fr.coefficients(loop, frame)
        # the frame is h-orthonormal, so coefficients multiply vectors directly
        rebuilt = co.a[:, :1] * frame.e1 + co.a[:, 1:] * frame.e2
        ux = grid.derivative(loop.points)
        assert np.abs(rebuilt - ux).max() < 1e-9

    def test_norm_identity(self):
        surf, grid, loop = bumpy_loop()
        frame = fr.parallel_frame(surf, loop)
        co = fr.coefficients(loop, frame)
        assert co.norm_identity_defect(loop) < 1e-10

    def test_gauge_covariance_of_coefficients(self):
        # rotating the seed rotates phi by a constant phase; discrete
        # transport realizes this to integrator accuracy, so check the
        # defect and its fourth-order decay rather than exactness
        gamma = 0.7
        defects = {}
        for n in (48, 96):
            surf, grid, loop = bumpy_loop(n)
            frame = fr.parallel_frame(surf, loop)
            seed = np.cos(gamma) * frame.e1[0] + np.sin(gamma) * frame.e2[0]
            rotated = fr.parallel_frame(surf, loop, seed=seed)
            c0 = fr.coefficients(loop, frame)
            c1 = fr.coefficients(loop, rotated)
            scale = np.abs(c0.phi).max()
            defects[n] = np.abs(c1.phi - np.exp(-1j * gamma) * c0.phi).max() / scale
            assert abs(rotated.transport_angle() - frame.transport_angle()) < 1e-6
        assert defects[96] < 1e-6
        assert defects[48] / defects[96] > 10.0

    def test_great_circle_coefficients_are_constant(self):
        grid = SpectralGrid(64)
        loop = fd.initial_loop(ROUND, grid, "great_circle")
        frame = fr.parallel_frame(ROUND, loop)
        co = fr.coefficients(loop, frame)
        assert np.abs(co.phi - 2.0 * np.pi).max() < 1e-8
        theta = lift_to_branch(
            frame.transport_angle(), holonomy_ode(ROUND, grid, loop.points)
        )
        assert abs(theta - 2.0 * np.pi) < 1e-9
        phi = fr.untwist(co, theta)
        expected = 2.0 * np.pi * np.exp(2j * np.pi * grid.nodes)
        assert np.abs(phi - expected).max() < 1e-7

    def test_constant_loop_zero_coefficients(self):
        grid = SpectralGrid(32)
        loop = fd.initial_loop(ROUND, grid, "constant", point=[0.0, 0.0, 1.0])
        frame = fr.parallel_frame(ROUND, loop)
        co = fr.coefficients(loop, frame)
        assert np.abs(co.phi).max() < 1e-12
        assert fr.twisted_residual(co, 1.234) == 0.0

    def test_velocity_coefficients_match_flow(self):
        surf, grid, loop = bumpy_loop()
        frame = fr.parallel_frame(surf, loop)
        co = fr.coefficients(loop, frame)
        theta = lift_to_branch(
            frame.transport_angle(), holonomy_ode(surf, grid, loop.points)
        )
        b = co.velocity_coefficients(theta)
        rebuilt = b.real[:, None] * frame.e1 + b.imag[:, None] * frame.e2
        ut = fd.flow_rhs(loop)
        rel = np.abs(rebuilt - ut).max() / np.abs(ut).max()
        assert rel < 1e-7


class TestUntwist:
    def test_wrong_angle_rejected(self):
        surf, grid, loop = bumpy_loop()
        frame = fr.parallel_frame(surf, loop)
        co = fr.coefficients(loop, frame)
        with pytest.raises(InconsistentHolonomyError):
            fr.untwist(co, frame.transport_angle() + 0.5)

    def test_branch_shift_changes_field_but_passes_gate(self):
        surf, grid, loop = bumpy_loop()
        frame = fr.parallel_frame(surf, loop)
        theta = frame.transport_angle()
        co = fr.coefficients(loop, frame)
        phi0 = fr.untwist(co, theta)
        phi1 = fr.untwist(co, theta + 2.0 * np.pi)
        assert np.abs(phi1 - phi0 * np.exp(2j * np.pi * grid.nodes)).max() < 1e-12

    def test_untwist_leaves_the_coefficients_unchanged(self):
        surf, grid, loop = bumpy_loop()
        frame = fr.parallel_frame(surf, loop)
        co = fr.coefficients(loop, frame)
        before = copy.deepcopy(vars(co))
        fr.untwist(co, frame.transport_angle())
        assert vars(co).keys() == before.keys()
        for name, value in before.items():
            assert np.array_equal(getattr(co, name), value), name


class TestLetters:
    def test_round_sphere_focusing_cubic(self):
        grid = SpectralGrid(64)
        loop = fd.initial_loop(ROUND, grid, "perturbed_latitude",
                               alpha=np.pi / 4, eps=0.05, m=2)
        frame = fr.parallel_frame(ROUND, loop)
        co = fr.coefficients(loop, frame)
        terms = fr.nonlinear_terms(loop, co)
        assert np.abs(terms.S + 0.5 * np.abs(co.phi) ** 2).max() < 1e-12
        assert np.abs(terms.T).max() < 1e-12
        assert terms.W == pytest.approx(np.mean(terms.S))
        # potential reduces to S - S(base): i Phi_t = Phi_xx
        # + (|Phi|^2 - |Phi(0)|^2) Phi / 2, the focusing cubic
        pot = terms.potential()
        expected = -0.5 * (np.abs(co.phi) ** 2 - np.abs(co.phi[0]) ** 2)
        assert np.abs(pot - expected).max() < 1e-12

    def test_letter_identity_matches_gauge_potential(self):
        surf, grid, loop = bumpy_loop()
        frame = fr.parallel_frame(surf, loop)
        co = fr.coefficients(loop, frame)
        terms = fr.nonlinear_terms(loop, co)
        V = fr.gauge_potential(loop, co)
        assert np.abs(terms.potential() - V).max() < 1e-12

    def test_gauge_potential_base_dependence_is_seam_jump(self):
        surf, grid, loop = bumpy_loop()
        f0 = fr.parallel_frame(surf, loop)
        c0 = fr.coefficients(loop, f0)
        b = 23
        fb = fr.parallel_frame(surf, loop, base_index=b)
        cb = fr.coefficients(loop, fb)
        v0 = fr.gauge_potential(loop, c0)
        vb = fr.gauge_potential(loop, cb)
        diff = vb - v0
        # constant on each arc, jumping by oint r across the base
        assert np.ptp(diff[b:]) < 1e-12
        assert np.ptp(diff[:b]) < 1e-12
        K = surf.gaussian_curvature(loop.points)
        total = grid.integrate(grid.derivative(K) * np.abs(c0.phi) ** 2 * 0.5)
        assert abs((diff[0] - diff[b]) - total) < 1e-12

    def test_combined_potential_is_reparametrization_covariant(self):
        surf, grid, loop = bumpy_loop()

        def combined(lp):
            frame = fr.parallel_frame(surf, lp)
            co = fr.coefficients(lp, frame)
            terms = fr.nonlinear_terms(lp, co)
            rate = holonomy_rate(surf, grid, lp.points)
            return grid.nodes * rate + terms.potential()

        p0 = combined(loop)
        j = 17
        rolled = LoopState(grid=grid, surface=surf,
                           points=np.roll(loop.points, -j, axis=0))
        p1 = combined(rolled)
        d0, d1 = p0 - p0.mean(), p1 - p1.mean()
        assert np.abs(d1 - np.roll(d0, -j)).max() < 1e-10
        f0 = fr.parallel_frame(surf, loop)
        t0 = fr.nonlinear_terms(loop, fr.coefficients(loop, f0))
        f1 = fr.parallel_frame(surf, rolled)
        t1 = fr.nonlinear_terms(rolled, fr.coefficients(rolled, f1))
        assert abs(t0.W - t1.W) < 1e-12

    def test_line_terms_and_decay_gate(self):
        surf, grid, loop = line_profile()
        frame = fr.parallel_frame(surf, loop)
        co = fr.coefficients(loop, frame)
        terms = fr.nonlinear_terms(loop, co)
        assert terms.W == 0.0 and terms.Q == 0.0
        assert abs(terms.T[0]) < 1e-12  # tail starts at the left edge
        # cross-check the tail against a trapezoid primitive
        K = surf.gaussian_curvature(loop.points)
        r = grid.derivative(K) * np.abs(co.phi) ** 2 * 0.5
        trap = np.concatenate(
            [[0.0], np.cumsum(0.5 * (r[1:] + r[:-1]) * grid.dx)]
        )
        assert np.abs(terms.T - trap).max() < 5e-4
        # non-decaying data is rejected with an explanation
        bad = LoopState(
            grid=grid, surface=surf,
            points=np.stack([0.1 + 0.1 * np.cos(2 * np.pi * grid.nodes / grid.period),
                             0.2 + 0.1 * np.sin(2 * np.pi * grid.nodes / grid.period)],
                            axis=-1),
        )
        bframe = fr.parallel_frame(surf, bad)
        bco = fr.coefficients(bad, bframe)
        with pytest.raises(ConfigError, match="decay"):
            fr.nonlinear_terms(bad, bco)

    def test_product_target_rejected(self):
        surf = product_surface(round_sphere(1.0), flat_torus())
        grid = SpectralGrid(32)
        co = fr.FrameCoefficients(grid, np.zeros((32, 2)),
                                  np.zeros(32, complex), 0j)
        pts = np.zeros((32, 5))
        pts[:, 2] = 1.0
        loop = LoopState(grid=grid, surface=surf, points=pts)
        with pytest.raises(UnsupportedOperationError):
            fr.nonlinear_terms(loop, co)



class TestReducedEquation:
    """Finite differences in time of the actual coupled frames are the
    oracle for every sign in the assembled equation."""

    def fd_stencil(self, surf, loop0, dt):
        states = [loop0]
        frame0 = fr.parallel_frame(surf, loop0)
        w = frame0.e1[0]
        seeds = [w]
        st = loop0
        for _ in range(4):
            st, w = fr._step_with_seed(st, dt, w)
            states.append(st)
            seeds.append(w.copy())
        out = []
        for k in (1, 2, 3):
            frame = fr.parallel_frame(surf, states[k], seed=seeds[k])
            out.append((states[k], frame, fr.coefficients(states[k], frame)))
        return out

    def test_circle_phi_equation(self):
        surf, grid, loop0 = bumpy_loop()
        dt = 1e-6
        (s1, f1, c1), (s2, f2, c2), (s3, f3, c3) = self.fd_stencil(surf, loop0, dt)
        theta2 = lift_to_branch(f2.transport_angle(),
                                holonomy_ode(surf, grid, s2.points))
        theta1 = lift_to_branch(f1.transport_angle(), theta2)
        theta3 = lift_to_branch(f3.transport_angle(), theta2)
        phi1 = fr.untwist(c1, theta1)
        phi2 = fr.untwist(c2, theta2)
        phi3 = fr.untwist(c3, theta3)
        rate2 = holonomy_rate(surf, grid, s2.points)
        assert abs(rate2 - (theta3 - theta1) / (2 * dt)) < 1e-3 * abs(rate2)
        terms2 = fr.nonlinear_terms(s2, c2)
        F = fr.assemble_nls_rhs(grid, phi2, terms2, theta=theta2, theta_rate=rate2)
        lhs = 1j * (phi3 - phi1) / (2 * dt)
        rhs = grid.derivative(phi2, order=2) + F
        rel = np.abs(lhs - rhs).max() / np.abs(rhs).max()
        assert rel < 1e-5

    def test_circle_twisted_equation_via_gauge_potential(self):
        surf, grid, loop0 = bumpy_loop()
        dt = 1e-6
        (s1, f1, c1), (s2, f2, c2), (s3, f3, c3) = self.fd_stencil(surf, loop0, dt)
        # Phi itself is twisted-periodic: differentiate via the periodic
        # representation with a fixed reference angle
        theta = f2.transport_angle()
        tw = np.exp(1j * theta * grid.nodes)
        V = fr.gauge_potential(s2, c2)
        lhs = 1j * (c3.phi - c1.phi) / (2 * dt)
        periodic = tw * c2.phi
        phixx = np.exp(-1j * theta * grid.nodes) * (
            grid.derivative(periodic, order=2)
            - 2j * theta * grid.derivative(periodic)
            - theta**2 * periodic
        )
        rhs = phixx - V * c2.phi
        rel = np.abs(lhs - rhs).max() / np.abs(rhs).max()
        assert rel < 1e-5

    def test_line_equation(self):
        surf, grid, loop0 = line_profile()
        dt = 2e-5
        (s1, f1, c1), (s2, f2, c2), (s3, f3, c3) = self.fd_stencil(surf, loop0, dt)
        terms = fr.nonlinear_terms(s2, c2)
        F = fr.assemble_nls_rhs(grid, c2.phi, terms)
        lhs = 1j * (c3.phi - c1.phi) / (2 * dt)
        rhs = grid.derivative(c2.phi, order=2) + F
        rel = np.abs(lhs - rhs).max() / np.abs(rhs).max()
        assert rel < 1e-5

    def test_variable_metric_rejected_on_circle(self):
        surf, grid, loop = bumpy_loop(32)
        frame = fr.parallel_frame(surf, loop)
        co = fr.coefficients(loop, frame)
        terms = fr.nonlinear_terms(loop, co)
        with pytest.raises(UnsupportedCombinationError):
            fr.assemble_nls_rhs(grid, co.phi, terms, variable_metric=np.ones(32))

    def test_variable_metric_line_form(self):
        surf, grid, loop = line_profile()
        frame = fr.parallel_frame(surf, loop)
        co = fr.coefficients(loop, frame)
        terms = fr.nonlinear_terms(loop, co)
        base = fr.assemble_nls_rhs(grid, co.phi, terms)
        same = fr.assemble_nls_rhs(grid, co.phi, terms,
                                   variable_metric=np.ones(grid.n))
        assert np.abs(base - same).max() < 1e-14
        alpha = 1.0 + 0.2 * np.exp(-(grid.nodes**2))
        out = fr.assemble_nls_rhs(grid, co.phi, terms, variable_metric=alpha)
        ax = grid.derivative(alpha)
        axx = grid.derivative(alpha, order=2)
        extra = ((alpha - 1.0) * grid.derivative(co.phi, order=2)
                 + 1.5 * ax * grid.derivative(co.phi) + 0.5 * axx * co.phi)
        assert np.abs(out - base - extra).max() < 1e-12


class TestSpacetimeShift:
    def test_zero_drift_is_identity(self):
        grid = SpectralGrid(64)
        hist = np.exp(2j * np.pi * np.outer(np.ones(5), grid.nodes))
        times = np.linspace(0.0, 1.0, 5)
        out = fr.spacetime_shift(grid, hist, times, np.zeros(5))
        assert np.array_equal(out, hist)

    def test_constant_drift_is_exact_roll(self):
        grid = SpectralGrid(64)
        theta = 1.0
        dt = grid.dx / 2.0  # 2 * theta * dt = one grid cell per step
        times = dt * np.arange(8)
        rng = np.random.default_rng(0)
        hist = rng.normal(size=(8, 64)) + 1j * rng.normal(size=(8, 64))
        out = fr.spacetime_shift(grid, hist, times, np.full(8, theta))
        for k in range(8):
            assert np.array_equal(out[k], np.roll(hist[k], -k))

    def test_removes_first_order_term_of_free_twisted_flow(self):
        grid = SpectralGrid(64)
        theta = 0.9
        phi0 = np.exp(2j * np.pi * 2 * grid.nodes) + 0.5 * np.exp(
            -2j * np.pi * 3 * grid.nodes)
        field = ComplexField(grid, phi0)
        n, dt = 40, 2e-4
        hist = np.empty((n + 1, 64), dtype=complex)
        hist[0] = phi0
        f = field
        for k in range(n):
            f = split_step(f, dt, theta=theta)
            hist[k + 1] = f.values
        times = dt * np.arange(n + 1)
        shifted = fr.spacetime_shift(grid, hist, times, np.full(n + 1, theta))
        for k in (n // 2, n):
            target = free_propagate(field, times[k]).values
            moved = shifted[k] * np.exp(-1j * theta**2 * times[k])
            assert np.abs(moved - target).max() < 1e-10

    def test_l2_preserved_exactly(self):
        grid = SpectralGrid(64)
        rng = np.random.default_rng(1)
        hist = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
        times = np.linspace(0.0, 0.1, 4)
        out = fr.spacetime_shift(grid, hist, times, np.full(4, 0.377))
        for k in range(4):
            assert abs(np.linalg.norm(out[k]) - np.linalg.norm(hist[k])) < 1e-10

    def test_shape_validation(self):
        grid = SpectralGrid(64)
        with pytest.raises(ConfigError):
            fr.spacetime_shift(grid, np.zeros((3, 64)), np.zeros(4), np.zeros(4))


COUPLED_CASES = ("round", "warped", "hyperbolic", "line")


def coupled_case(case):
    """Initial loop of a coupled-driver case; its grid picks the reduction."""
    if case == "line":
        return line_profile(n=64)[2]
    grid = SpectralGrid(32)
    if case == "hyperbolic":
        return fd.initial_loop(hyperbolic_disk(), grid, "fourier",
                               offset=[0.1, -0.05])
    surf = ROUND if case == "round" else bumpy_surface()
    return fd.initial_loop(surf, grid, "perturbed_latitude", alpha=1.0,
                           eps=0.05, m=2)


def reference_coupled(state0, dt, n_steps, l4_window):
    """The reference for `coupled_evolve`: the same step loop, with every
    state reduced through the public functions one by one, and holonomy_ode
    and holonomy_rate taken from the bare points. Returns the recorded series by result field name, the
    final state and the final seed."""
    surface, grid = state0.surface, state0.grid
    circle = grid.kind != "line"
    rec = {name: [] for name in (
        "times", "theta", "theta_gb", "theta_rate", "theta_ode", "energy",
        "grad_norm", "phi_frame", "phi_nls", "coeffs_history",
        "twist_residual_ode", "phi_closure", "sup_error", "l4_window")}
    state, seed, theta, gb, pot, nls = state0, None, 0.0, 0.0, None, None
    for k in range(n_steps + 1):
        prev = state.points
        if k:
            state, seed = fr._step_with_seed(state, dt, seed)
        frame = fr.parallel_frame(surface, state, seed=seed)
        seed = frame.e1[0]
        coeffs = fr.coefficients(state, frame)
        if circle:
            ode = holonomy_ode(surface, grid, state.points)
            theta_new = lift_to_branch(frame.transport_angle(), theta if k else ode)
            rate = holonomy_rate(surface, grid, state.points)
            phi_f = fr.untwist(coeffs, theta_new)
            gb = (gb + swept_angle_increment(surface, grid, prev, state.points, dt)
                  if k else theta_new)
        else:
            ode, theta_new, rate = np.nan, 0.0, 0.0
            phi_f = coeffs.phi.copy()
        pot_new = grid.nodes * rate + fr.gauge_potential(state, coeffs)
        if k:
            t0 = state.time - dt

            def potential(vals, t, a=pot, b=pot_new, t0=t0):
                return a if abs(t - t0) < 0.25 * abs(dt) else b

            nls = split_step(nls, dt, potential=potential,
                             theta=0.5 * (theta + theta_new), t0=t0)
        else:
            nls = ComplexField(grid, phi_f)
        theta, pot = theta_new, pot_new
        energy = fd.energy(state)
        if circle:
            twist = fr.twisted_residual(coeffs, ode)
            closure = abs(np.exp(1j * theta * grid.period) * coeffs.phi_wrap
                          - phi_f[0]) / max(np.abs(phi_f).max(), 1e-300)
        else:
            edge = max(2, grid.n // 16)
            twist = closure = max(np.abs(coeffs.phi[:edge]).max(),
                                  np.abs(coeffs.phi[-edge:]).max()) / max(
                np.abs(coeffs.phi).max(), 1e-300)
        for name, value in (
                ("times", state.time), ("theta", theta), ("theta_gb", gb),
                ("theta_rate", rate), ("theta_ode", ode), ("energy", energy),
                ("grad_norm", np.sqrt(max(2.0 * energy, 0.0))),
                ("phi_frame", phi_f), ("phi_nls", nls.values),
                ("coeffs_history", coeffs.phi), ("twist_residual_ode", twist),
                ("phi_closure", closure),
                ("sup_error", np.abs(nls.values - phi_f).max())):
            rec[name].append(value)
        lo = max(0, k + 1 - l4_window)
        duration = rec["times"][k] - rec["times"][lo]
        rec["l4_window"].append(float(
            ((duration if duration > 0.0 else 1.0) * grid.period
             * np.mean(np.abs(np.array(rec["phi_nls"][lo:])) ** 4)) ** 0.25))
    return {name: np.array(v) for name, v in rec.items()}, state, seed


@pytest.mark.parametrize("window", [1, 2, 32])
def test_windowed_l4_matches_a_deque_of_the_window(window):
    """The L4 window gives the bits of np.mean over an independent deque of
    the last `window` |phi|^4 rows, with the call count below, at and past
    the window, and past it again after the window has turned over twice."""
    grid = SpectralGrid(32, "torus")
    rng = np.random.default_rng(window)
    l4 = fr._windowed_l4(grid, window)
    powers, times = deque(maxlen=window), deque(maxlen=window)
    for k in range(2 * window + 3):
        t, phi = 1e-3 * k, rng.normal(size=32) + 1j * rng.normal(size=32)
        powers.append(np.abs(phi) ** 4)
        times.append(t)
        duration = times[-1] - times[0]
        ref = ((duration if duration > 0.0 else 1.0) * grid.period
               * np.mean(powers)) ** 0.25
        assert l4(t, phi) == float(ref)


class TestCoupledDriver:
    def test_torus_grid_is_refused(self):
        """The twist e^{i theta x} and the ramp x theta_t assume period 1, so
        reduce_state, the entry of both drivers, refuses a torus grid rather
        than return wrong numbers (a 5-step coupled run read a closure of
        1.95 and a cross error 1e5 times its tolerance)."""
        loop = fd.initial_loop(ROUND, SpectralGrid(64, "torus"), "perturbed_latitude",
                               alpha=1.0, eps=0.05, m=2)
        dt = fd.admissible_dt(loop)
        for run in (lambda: fr.reduce_state(loop), lambda: fr.coupled_evolve(loop, dt, 5),
                    lambda: next(fr.autonomous_steps(loop, dt, 5))):
            with pytest.raises(UnsupportedCombinationError):
                run()

    def test_singular_gauge_raises_before_any_frame_is_transported(self, monkeypatch):
        """The north-pole constant preset has no azimuthal reference frame:
        reduce_state takes holonomy_ode first and raises its
        SingularChartError before the parallel frame is built."""
        loop = fd.initial_loop(ROUND, SpectralGrid(64), "constant")
        monkeypatch.setattr(fr, "parallel_frame", lambda *args: pytest.fail("frame built"))
        with pytest.raises(SingularChartError,
                           match="^azimuthal reference frame is singular near the poles$"):
            fr.reduce_state(loop)

    def test_round_sphere_run_is_consistent(self):
        grid = SpectralGrid(32)
        loop = fd.initial_loop(ROUND, grid, "perturbed_latitude",
                               alpha=np.pi / 4, eps=0.05, m=2)
        dt = fd.admissible_dt(loop)
        res = fr.coupled_evolve(loop, dt, 256)
        assert res.max_sup_error <= res.tolerance
        assert res.phi_closure.max() < 1e-12
        assert np.all(res.theta_rate == 0.0)  # constant curvature
        # the holonomy is a conserved quantity of the flow here
        assert np.ptp(res.theta) < 1e-4
        assert np.abs(res.theta_gb - res.theta).max() < 1e-3
        drift = abs(res.energy[-1] - res.energy[0]) / res.energy[0]
        assert drift < 1e-9
        assert np.all(np.isfinite(res.l4_window)) and res.l4_window.min() > 0

    def test_cross_formulation_error_converges(self):
        errs = []
        for n in (16, 32):
            grid = SpectralGrid(n)
            loop = fd.initial_loop(ROUND, grid, "perturbed_latitude",
                                   alpha=np.pi / 4, eps=0.05, m=2)
            dt_max = fd.admissible_dt(loop)
            n_steps = int(np.ceil(0.05 / dt_max))
            res = fr.coupled_evolve(loop, 0.05 / n_steps, n_steps)
            errs.append(res.max_sup_error)
        assert errs[0] / errs[1] > 8.0

    def test_warped_theta_tracks_rate_and_sweep(self):
        surf, _, _ = bumpy_loop()
        grid = SpectralGrid(32)
        loop = fd.initial_loop(
            surf, grid, "fourier", colat_coeffs=[(2, 0.06, -0.04), (3, 0.0, 0.05)]
        )
        dt = fd.admissible_dt(loop)
        res = fr.coupled_evolve(loop, dt, 120)
        # the warped problem has a larger error constant than the round
        # calibration behind solver_tolerance
        assert res.max_sup_error <= 3.0 * res.tolerance
        integral = np.concatenate(
            [[0.0], np.cumsum(0.5 * (res.theta_rate[1:] + res.theta_rate[:-1])
                              * np.diff(res.times))]
        )
        predicted = res.theta[0] + integral
        assert np.abs(predicted - res.theta).max() < 1e-4
        assert np.abs(res.theta_gb - res.theta).max() < 1e-4
        assert res.theta_rate.std() > 0.0  # genuinely evolving twist

    def test_line_domain_run(self):
        surf, grid, loop = line_profile()
        dt = 0.8 * fd.admissible_dt(loop)
        res = fr.coupled_evolve(loop, dt, 60)
        assert res.max_sup_error <= res.tolerance
        assert np.all(res.theta == 0.0)
        assert res.twist_residual_ode.max() < 1e-6
        assert abs(res.energy[-1] - res.energy[0]) < 1e-10

    @pytest.mark.parametrize("case", COUPLED_CASES)
    def test_steps_the_nls_without_the_letters(self, case, monkeypatch):
        """coupled_steps steps the NLS with gauge_potential on both domains and
        builds no letters: with nonlinear_terms and NonlinearTerms made to
        raise, every case runs. A line run guards its edge decay once per
        state, a circle run not at all."""
        def refuse(*args, **kwargs):
            raise AssertionError("the letters were built")

        calls, edge_decay = [], fr._edge_decay
        monkeypatch.setattr(fr, "nonlinear_terms", refuse)
        monkeypatch.setattr(fr, "NonlinearTerms", refuse)
        monkeypatch.setattr(fr, "_edge_decay", lambda phi: calls.append(1) or edge_decay(phi))
        loop = coupled_case(case)
        res = fr.coupled_evolve(loop, 0.8 * fd.admissible_dt(loop), 3)
        assert res.max_sup_error <= res.tolerance
        assert len(calls) == (4 if case == "line" else 0)

    def test_grad_norm_is_taken_from_recorded_energy(self):
        grid = SpectralGrid(32)
        loop = fd.initial_loop(ROUND, grid, "perturbed_latitude",
                               alpha=np.pi / 4, eps=0.05, m=2)
        res = fr.coupled_evolve(loop, fd.admissible_dt(loop), 5)
        assert np.array_equal(res.grad_norm, np.sqrt(2 * res.energy))
        assert res.grad_norm[-1] == fd.gradient_norm(res.final_state)

    def test_line_grid_alone_selects_the_line_reduction(self):
        """A line-grid loop gets the line reduction with no further argument:
        no holonomy, and the edge-decay gate on data that does not decay."""
        loop = line_profile(n=64)[2]
        res = fr.coupled_evolve(loop, 0.8 * fd.admissible_dt(loop), 3)
        assert np.all(res.theta == 0.0)
        assert np.all(np.isnan(res.theta_ode))
        grid, surf = loop.grid, loop.surface
        phase = 2 * np.pi * grid.nodes / grid.period
        bad = LoopState(grid=grid, surface=surf,
                        points=np.stack([0.1 + 0.1 * np.cos(phase),
                                         0.2 + 0.1 * np.sin(phase)], axis=-1))
        with pytest.raises(ConfigError, match="decay"):
            fr.coupled_evolve(bad, 1e-6, 1)

    def test_reduce_state_is_the_drivers_gauge_reduction(self):
        """On a circle reduce_state gives the coupled driver's theta,
        holonomy_ode and phi bit for bit, from the default seed and from the
        time-transported one, and theta_ref picks theta's branch; on a line
        it gives theta 0, a NaN holonomy_ode and a copy of Phi."""
        surf, grid, loop = bumpy_loop(32)
        dt = fd.admissible_dt(loop)
        seen = []
        fr.coupled_evolve(loop, dt, 1, observer=lambda k, st, s: seen.append((st, s)))
        frame, _, ode, theta, phi = fr.reduce_state(loop)
        state1, seed1 = fr._step_with_seed(loop, dt, frame.e1[0])
        assert np.array_equal(state1.points, seen[1][0].points)
        for (_, step), got in zip(seen, (fr.reduce_state(loop)[2:],
                                         fr.reduce_state(state1, seed1, theta)[2:])):
            assert (got[0], got[1]) == (step.theta_ode, step.theta)
            assert np.array_equal(got[2], step.phi_frame)
        _, _, ode_up, theta_up, phi_up = fr.reduce_state(loop, theta_ref=theta + 2 * np.pi)
        assert ode_up == ode and theta_up - theta == pytest.approx(2 * np.pi, abs=1e-12)
        assert np.allclose(phi_up, np.exp(2j * np.pi * grid.nodes) * phi, atol=1e-12)

        line = line_profile(n=64)[2]
        _, coeffs, ode, theta, phi = fr.reduce_state(line)
        assert theta == 0.0 and np.isnan(ode)
        assert np.array_equal(phi, coeffs.phi) and not np.shares_memory(phi, coeffs.phi)

    def test_seed_time_transport_against_path_transport(self):
        alpha = np.pi / 3
        grid = SpectralGrid(64)
        loop = fd.initial_loop(ROUND, grid, "latitude", alpha=alpha)
        frame = fr.parallel_frame(ROUND, loop)
        w = frame.e1[0]
        w0 = w.copy()
        dt = fd.admissible_dt(loop)
        n = 200
        st = loop
        for _ in range(n):
            st, w = fr._step_with_seed(st, dt, w)
        # the base point rides the rigid precession of the latitude loop
        omega = 4.0 * np.pi**2 * np.cos(alpha)
        ts = np.linspace(0.0, n * dt, 801)
        path = np.stack(
            [np.sin(alpha) * np.cos(omega * ts),
             np.sin(alpha) * np.sin(omega * ts),
             np.full_like(ts, np.cos(alpha))], axis=-1)
        oracle = parallel_transport(ROUND, path, TangentVector(path[0], w0))
        assert np.linalg.norm(st.points[0] - path[-1]) < 1e-8
        assert np.linalg.norm(w - oracle.components) < 1e-7

    @pytest.mark.parametrize("warped", [False, True])
    def test_one_step_costs_four_flow_evaluations(self, monkeypatch, warped):
        surf = bumpy_surface() if warped else ROUND
        grid = SpectralGrid(32)
        loop = fd.initial_loop(surf, grid, "perturbed_latitude",
                               alpha=np.pi / 4, eps=0.05, m=2)
        dt = fd.admissible_dt(loop)

        # the seed transport as it was done before the shared stages: a
        # full flow step, then the four stages recomputed for the seed
        def old_step_with_seed(state, w):
            new_state = fd.step(state, dt)
            u = state.points

            def rhs(pts):
                return fd.flow_rhs(LoopState(grid, surf, pts, state.time))

            k1 = rhs(u)
            u2 = u + 0.5 * dt * k1
            k2 = rhs(u2)
            u3 = u + 0.5 * dt * k2
            k3 = rhs(u3)
            u4 = u + dt * k3
            k4 = rhs(u4)
            g1 = surf.covariant_rhs(u[0], dt * k1[0], w)
            g2 = surf.covariant_rhs(u2[0], dt * k2[0], w + 0.5 * g1)
            g3 = surf.covariant_rhs(u3[0], dt * k3[0], w + 0.5 * g2)
            g4 = surf.covariant_rhs(u4[0], dt * k4[0], w + g3)
            w = w + (g1 + 2.0 * g2 + 2.0 * g3 + g4) / 6.0
            p = new_state.points[0]
            w = surf.tangent_project(p, w)
            return new_state, w / np.sqrt(surf.metric(p, w, w))

        state, w = old_step_with_seed(loop, fr.parallel_frame(surf, loop).e1[0])
        expected_seed = fr.parallel_frame(surf, state, seed=w).e1[0]

        calls = []
        velocity_kernel = type(surf).velocity_kernel

        def counting(self, grid):
            velocity = velocity_kernel(self, grid)

            def kernel(u, out):
                calls.append(1)
                return velocity(u, out)
            return kernel

        monkeypatch.setattr(type(surf), "velocity_kernel", counting)
        res = fr.coupled_evolve(loop, dt, 1)
        assert len(calls) == 4
        assert np.abs(res.final_seed - expected_seed).max() < 1e-13
        assert np.abs(res.final_state.points - state.points).max() < 1e-13

    @pytest.mark.parametrize("case", COUPLED_CASES)
    def test_matches_public_function_step_loop(self, case):
        loop = coupled_case(case)
        dt = 0.8 * fd.admissible_dt(loop)
        steps = []
        res = fr.coupled_evolve(loop, dt, 3, l4_window=2,
                                observer=lambda k, state, step: steps.append(step))
        expected, final_state, final_seed = reference_coupled(loop, dt, 3, 2)
        fields = {"phi_frame": "phi_frame", "phi_nls": "phi_nls",
                  "coeffs_history": "coeffs"}
        assert len(steps) == 4
        for name, values in expected.items():
            got = (np.array([getattr(s, fields[name]) for s in steps])
                   if name in fields else getattr(res, name))
            assert np.array_equal(got, values, equal_nan=True), name
        assert np.array_equal(res.final_state.points, final_state.points)
        assert np.array_equal(res.final_seed, final_seed)
        # the generator coupled_evolve collects yields the same steps, to the bit
        yielded = list(fr.coupled_steps(loop, dt, 3, l4_window=2))
        assert [k for k, *_ in yielded] == [0, 1, 2, 3]
        for (_, _, _, got), want in zip(yielded, steps):
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))
        _, state, seed, _ = yielded[-1]
        assert np.array_equal(state.points, final_state.points)
        assert np.array_equal(seed, final_seed)

    @pytest.mark.parametrize("case,per_step", [("round", 6), ("warped", 8),
                                               ("hyperbolic", 6)])
    def test_derivatives_per_coupled_step(self, derivative_calls, case, per_step):
        """Per step: 4 flow stages, u_x of the new state and u_x of the
        swept midpoint loop; a varying K adds its derivative and the
        primitive of the curvature-rate density. Each run starts from a
        fresh loop, since a loop state keeps the u_x it has computed."""
        loop = coupled_case(case)
        dt = fd.admissible_dt(loop)
        counts = []
        for n_steps in (1, 3):
            derivative_calls.clear()
            fr.coupled_evolve(coupled_case(case), dt, n_steps)
            counts.append(len(derivative_calls))
        assert (counts[1] - counts[0]) / 2 == per_step

    def test_coupled_steps_call_no_numpy_python_wrappers(self, monkeypatch):
        """From the observer's k = 0 call on, numpy's Python-level
        convenience wrappers raise, and the steps of a round-sphere run at
        N = 128 still complete: the per-state path reduces with ufunc methods
        and joins with concatenate or buffers. The first state is left out
        because its default seed search may take a norm."""
        def refuse(name):
            def raising(*args, **kwargs):
                raise AssertionError(f"numpy.{name} called in a coupled step")
            return raising

        seen = []

        def observer(k, state, step):
            if k == 0:
                for name in ("mean", "stack", "vstack", "hstack", "ptp", "diff",
                             "any", "all", "round", "iscomplexobj", "zeros_like"):
                    monkeypatch.setattr(np, name, refuse(name))
                monkeypatch.setattr(np.linalg, "norm", refuse("linalg.norm"))
            seen.append(k)

        loop = fd.initial_loop(ROUND, SpectralGrid(128), "perturbed_latitude",
                               alpha=np.pi / 4, eps=0.05, m=2)
        res = fr.coupled_evolve(loop, fd.admissible_dt(loop), 3, observer=observer)
        assert seen == [0, 1, 2, 3] and len(res.times) == 4

    @pytest.mark.parametrize("target", ["round", "disk", "torus"])
    def test_constant_curvature_needs_no_scan(self, monkeypatch, target):
        """On a target of constant curvature a state's K_x is None without
        K being built or scanned; K is the target's constant_curvature at
        every node, and the letters read it as that number from no loop: S
        equals the route through K at every node to the bit, r = R = None."""
        surface = {"round": round_sphere(2.0), "disk": hyperbolic_disk(),
                   "torus": flat_torus()}[target]
        grid = SpectralGrid(64)
        if surface.embedded:
            loop = fd.initial_loop(surface, grid, "perturbed_latitude",
                                   alpha=1.0, eps=0.05, m=2)
        else:
            loop = fd.initial_loop(surface, grid, "fourier", offset=(0.1, -0.05))

        def refuse(*args, **kwargs):
            raise AssertionError("K_x built or scanned K")

        state = fd.LoopState(grid, surface, loop.points)
        with monkeypatch.context() as mp:
            mp.setattr(type(surface), "gaussian_curvature", refuse)
            assert state.curvature_x is None
        assert np.array_equal(state.curvature, np.full(64, surface.constant_curvature))
        phi = np.exp(1j * grid.nodes) * (1.0 + 0.3 * np.cos(grid.nodes))
        with monkeypatch.context() as mp:
            mp.setattr(type(surface), "gaussian_curvature", refuse)
            S, r, R = fr._curvature_letters(surface, None, phi)
        assert r is None and R is None
        assert np.array_equal(S, -0.5 * state.curvature * np.abs(phi) ** 2)

    def test_solver_tolerance_model(self):
        grid = SpectralGrid(64)
        assert fr.solver_tolerance(grid, 1e-4) == pytest.approx(
            100.0 * grid.dx**4 + 10.0 * 1e-8)

    @pytest.mark.parametrize("n", [32, 128])
    def test_solver_tolerance_is_in_grid_units(self, n):
        """A line of any half width reads the circle's tolerance at the same
        n and the same dt / dx^2: the model is stated per period."""
        circle = SpectralGrid(n)
        for ratio in (0.05, 0.2):
            expected = fr.solver_tolerance(circle, ratio * circle.dx**2)
            for half_width in (0.5, 6.0, 20.0):
                line = SpectralGrid(n, "line", half_width)
                assert fr.solver_tolerance(line, ratio * line.dx**2) == pytest.approx(
                    expected, rel=1e-13)


def _stepwise_reconstruction(surface, grid, phi, base_point, e1_base,
                             theta=0.0):
    """The reference for `reconstruct_loop`: the same RK4 step per cell on
    numpy 3-vectors, through the surface's own J, covariant right-hand side,
    projection and unit tangent."""
    fine_phi = grid.upsample(np.asarray(phi, dtype=complex), 2)
    x_fine = grid.nodes[0] + 0.5 * grid.dx * np.arange(2 * grid.n)
    fine = np.exp(-1j * theta * x_fine) * fine_phi
    Phi = fine[0::2]
    mids = fine[1::2]
    wrap_value = np.exp(-1j * theta * grid.period) * Phi[0]
    dx = grid.dx
    n = grid.n
    pts = np.empty((n, surface.point_dim))
    e1s = np.empty_like(pts)
    u = surface.project_point(np.asarray(base_point, dtype=float))
    w = _unit_tangent(surface, u, np.asarray(e1_base, dtype=float))

    def vel(point, e1v, coeff):
        e2v = surface.apply_J(point, e1v)
        return coeff.real * e1v + coeff.imag * e2v

    for j in range(n):
        pts[j] = u
        e1s[j] = w
        c0, cm = Phi[j], mids[j]
        c1 = Phi[j + 1] if j + 1 < n else wrap_value
        k1 = dx * vel(u, w, c0)
        h1 = surface.covariant_rhs(u, k1, w)
        um = u + 0.5 * k1
        k2 = dx * vel(um, w + 0.5 * h1, cm)
        h2 = surface.covariant_rhs(um, k2, w + 0.5 * h1)
        um2 = u + 0.5 * k2
        k3 = dx * vel(um2, w + 0.5 * h2, cm)
        h3 = surface.covariant_rhs(um2, k3, w + 0.5 * h2)
        ue = u + k3
        k4 = dx * vel(ue, w + h3, c1)
        h4 = surface.covariant_rhs(ue, k4, w + h3)
        u = surface.project_point(u + (k1 + 2 * k2 + 2 * k3 + k4) / 6.0)
        w = _unit_tangent(surface, u, w + (h1 + 2 * h2 + 2 * h3 + h4) / 6.0)
    closure = float(np.linalg.norm(u - pts[0]))
    e2s = surface.apply_J(pts, e1s)
    return pts, e1s, e2s, closure


def _gauge_data(surface, n):
    """A perturbed latitude at n nodes, its untwisted gauge field, the base
    data and the transport angle."""
    grid = SpectralGrid(n)
    loop = fd.initial_loop(surface, grid, "perturbed_latitude",
                           alpha=np.pi / 4, eps=0.08, m=3)
    frame = fr.parallel_frame(surface, loop)
    theta = frame.transport_angle()
    phi = fr.untwist(fr.coefficients(loop, frame), theta)
    return grid, loop, phi, frame.e1[0], theta


class TestReconstruction:
    def test_roundtrip_and_fourth_order_closure(self):
        for surface in (ROUND, bumpy_surface()):
            closures = {}
            for n in (64, 128):
                grid, loop, phi, e1, theta = _gauge_data(surface, n)
                pts, e1s, _, closure = fr.reconstruct_loop(
                    surface, grid, phi, loop.points[0], e1, theta)
                closures[n] = closure
                assert np.abs(pts - loop.points).max() < 2e-6 * (128 / n) ** 4
            assert closures[64] / closures[128] > 10.0

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("target", ["round", "round_r15", "warped"])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_matches_stepwise_oracle(self, n, target, twisted):
        surface = {"round": ROUND, "round_r15": round_sphere(1.5),
                   "warped": bumpy_surface()}[target]
        grid, loop, phi, e1, theta = _gauge_data(surface, n)
        theta = theta if twisted else 0.0
        got = fr.reconstruct_loop(surface, grid, phi, loop.points[0], e1, theta)
        want = _stepwise_reconstruction(surface, grid, phi, loop.points[0],
                                        e1, theta)
        for a, b in zip(got[:3], want[:3]):
            assert a.shape == b.shape
            assert np.abs(a - b).max() < 1e-13
        assert abs(got[3] - want[3]) < 1e-13

    def test_chart_target_rejected(self):
        grid = SpectralGrid(32)
        with pytest.raises(UnsupportedOperationError):
            fr.reconstruct_loop(hyperbolic_disk(), grid, np.zeros(32, complex),
                                np.zeros(2), np.array([1.0, 0.0]))

    def test_autonomous_matches_coupled_driver(self):
        grid = SpectralGrid(64)
        loop = fd.initial_loop(ROUND, grid, "perturbed_latitude",
                               alpha=np.pi / 4, eps=0.05, m=2)
        dt = fd.admissible_dt(loop)
        n = 120
        final = {}
        res = fr.coupled_evolve(loop, dt, n, observer=lambda k, state, step:
                                final.update(phi=step.phi_frame))
        frame = fr.parallel_frame(ROUND, loop)
        co = fr.coefficients(loop, frame)
        phi0 = fr.untwist(co, res.theta[0])
        state = fr.AutonomousState(grid, phi0, loop.points[0].copy(),
                                   frame.e1[0].copy(), res.theta[0])
        out = fr.autonomous_evolve(ROUND, state, dt, n)
        assert np.abs(out.phi - final["phi"]).max() < 1e-5
        assert abs(out.theta - res.theta[-1]) < 1e-6
        pts, _, _, closure = fr.reconstruct_loop(
            ROUND, grid, out.phi, out.base_point, out.e1_base, out.theta)
        assert np.abs(pts - res.final_state.points).max() < 1e-4
        assert closure < 1e-5

    @pytest.mark.parametrize("via,surface,n_steps", [
        pytest.param("observer", ROUND, 0, id="0"),
        pytest.param("observer", ROUND, 2, id="2"),
        pytest.param("steps", ROUND, 0, id="steps-round-0"),
        pytest.param("steps", ROUND, 3, id="steps-round-3"),
        pytest.param("steps", bumpy_surface(), 3, id="steps-warped-3")])
    def test_autonomous_observer_sees_every_state(self, via, surface, n_steps):
        """The autonomous observer sees k = 0..n_steps, as the coupled one
        does; the last call carries the reconstructed loop of the returned
        state. autonomous_steps yields the same states from the reduction of
        the loop, with the loop itself at k = 0, and each record's theta_gb
        is theta_0 plus the swept angles between the yielded loops."""
        grid = SpectralGrid(32)
        loop = fd.initial_loop(surface, grid, "perturbed_latitude",
                               alpha=np.pi / 4, eps=0.05, m=2)
        dt = fd.admissible_dt(loop)
        frame, _, _, theta, phi = fr.reduce_state(loop)
        state = fr.AutonomousState(grid, phi, loop.points[0].copy(), frame.e1[0].copy(),
                                   theta)
        seen = []
        out = fr.autonomous_evolve(surface, state, dt, n_steps,
                                   observer=lambda k, st, lp: seen.append((k, st, lp)))
        if via == "steps":
            steps = list(fr.autonomous_steps(loop, dt, n_steps))
            assert [k for k, *_ in steps] == list(range(n_steps + 1))
            for name in ("phi", "base_point", "e1_base", "theta", "time"):
                assert np.array_equal(getattr(steps[-1][2], name), getattr(out, name)), name
            assert steps[0][1] is loop and steps[0][3].theta_gb == theta
            gb = theta
            for (_, prev, *_), (k, lp, st, rec) in zip(steps, steps[1:]):
                gb = gb + swept_angle_increment(surface, grid, prev.points, lp.points,
                                                lp.time - prev.time)
                assert rec.theta_gb == gb and rec.time == st.time == seen[k][1].time
                assert np.array_equal(lp.points, seen[k][2].points)
        assert [k for k, *_ in seen] == list(range(n_steps + 1))
        _, last, lp = seen[-1]
        assert last is out and lp.time == out.time
        pts = fr.reconstruct_loop(surface, grid, out.phi, out.base_point, out.e1_base,
                                  out.theta)[0]
        assert np.array_equal(lp.points, pts)
