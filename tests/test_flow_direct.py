"""Direct flow tests against closed-form solutions.

Latitude circles of colatitude alpha precess rigidly about the vertical
axis with angular velocity 4*pi^2*cos(alpha); the equator and constant
maps are stationary; on the flat torus the flow is the free Schrodinger
equation, so a single Fourier mode just rotates its phase at rate k^2.
"""

import pickle

import numpy as np
import pytest

from smflow import flow_direct as fd
from smflow import frame_reduction as fr
from smflow import geometry as geo
from smflow.geometry import _unit_tangent
from smflow.errors import BlowUpSuspectedError, ConfigError, RejectedStepError
from smflow.spectral import SpectralGrid


def make_state(kind="latitude", n=64, surface=None, **params):
    surface = surface or geo.round_sphere()
    return fd.initial_loop(surface, SpectralGrid(n), kind, **params)


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# -- energy and tension anchors ---------------------------------------------------


def test_great_circle_energy():
    state = make_state("great_circle", n=128)
    assert fd.energy(state) == pytest.approx(2 * np.pi**2, rel=1e-12)
    assert fd.gradient_norm(state) == pytest.approx(2 * np.pi, rel=1e-12)


def test_latitude_energy_and_tension_magnitude():
    alpha = 1.0
    for r in (1.0, 2.0):
        state = make_state("latitude", n=128, alpha=alpha, surface=geo.round_sphere(r))
        assert fd.energy(state) == pytest.approx(
            2 * np.pi**2 * r**2 * np.sin(alpha) ** 2, rel=1e-11
        )
        tau = fd.tension(state)
        mag = np.linalg.norm(tau, axis=-1)
        expected = 4 * np.pi**2 * r * np.sin(alpha) * abs(np.cos(alpha))
        assert np.abs(mag - expected).max() < 1e-8 * expected


def test_radius_scales_energy():
    state = make_state("great_circle", n=64, surface=geo.round_sphere(2.0))
    assert fd.energy(state) == pytest.approx(8 * np.pi**2, rel=1e-12)


def test_flow_velocity_is_tangent():
    for surface in (geo.round_sphere(), geo.warped_sphere(*geo.bump_warp(0.2, 0.5))):
        state = make_state("perturbed_latitude", n=64, surface=surface, alpha=1.0, eps=0.1, m=2)
        vel = fd.flow_rhs(state)
        assert np.abs(np.sum(vel * state.points, axis=-1)).max() < 1e-10


def _round_sphere_loops():
    """Perturbed latitudes on spheres of radius 1 and 2.5 at N = 64 and 256,
    once on the sphere and once pushed off it by a smooth radial factor."""
    for r, n in ((1.0, 64), (1.0, 256), (2.5, 64), (2.5, 256)):
        surface = geo.round_sphere(r)
        state = make_state("perturbed_latitude", n=n, surface=surface,
                           alpha=1.0, eps=0.1, m=3)
        phase = 2 * np.pi * state.grid.nodes
        off = state.points * (1.0 + 0.2 * np.sin(2 * phase) + 0.1 * np.cos(5 * phase))[:, None]
        yield surface, state.grid, state.points
        yield surface, state.grid, off


def test_round_sphere_velocity_is_landau_lifshitz_form():
    """u_xx x u / r equals -J tau(u) of the general route: J removes the
    normal part |u_x|^2 u / r^2 of tau algebraically, so the identity also
    holds off the sphere."""
    for surface, grid, u in _round_sphere_loops():
        fast = surface.flow_velocity(grid, u)
        general = geo.SurfaceModel._bind_velocity(surface, grid)(u, np.empty(u.shape))
        assert np.abs(fast - general).max() <= 1e-15 * np.abs(general).max()


def test_round_sphere_velocity_may_overwrite_its_loop():
    """The paired cross product reads all of u before it writes out, so out
    may be u itself, in either layout, and gets the fresh rate bit for bit."""
    state = make_state("perturbed_latitude", n=64, alpha=1.0, eps=0.1, m=2)
    fresh = state.surface.flow_velocity(state.grid, state.points)
    uxx = state.grid.derivatives(state.points, (2,))[0]
    assert np.array_equal(fresh, np.cross(uxx, state.points))
    for u in (state.points.copy(), np.asfortranarray(state.points)):
        assert state.surface.flow_velocity(state.grid, u, out=u) is u
        assert np.array_equal(u, fresh)
    out = np.empty_like(state.points)
    assert state.surface.flow_velocity(state.grid, state.points, out) is out
    assert np.array_equal(out, fresh)


@pytest.mark.parametrize("radius", [1.0, 2.5])
@pytest.mark.parametrize("n", [64, 256])
def test_round_sphere_velocity_is_bit_equal_across_layouts(radius, n):
    """u_xx x u / r equals np.cross of the same second derivative bit for bit
    for row-major, column-major and seed-stacked (n + 1 rows, column-major,
    as the coupled step holds them) loops, written into a fresh array or
    into an out of either layout, on values over 16 decades."""
    surface, grid = geo.round_sphere(radius), SpectralGrid(n)
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 8, size=(n, 3))
    expected = np.cross(grid.derivatives(rows, (2,))[0], rows) / radius
    stacked = np.asfortranarray(np.vstack([rows, rng.normal(size=(1, 3))]))
    for u in (rows, np.asfortranarray(rows), stacked[:n]):
        assert np.array_equal(surface.flow_velocity(grid, u), expected)
        for out in (np.empty((n, 3)), np.empty((n, 3), order="F"),
                    np.empty((n + 1, 3), order="F")[:n]):
            surface.flow_velocity(grid, u, out)
            assert np.array_equal(out, expected)


def test_warped_sphere_keeps_the_general_velocity():
    """The warped sphere subclasses the round one but its tension has
    first-order conformal terms, so it must not take the u_xx x u shortcut."""
    surface = geo.warped_sphere(*geo.bump_warp(0.2, 0.5, center=(0.6, 0.0, 0.8)))
    state = make_state("perturbed_latitude", n=64, surface=surface, alpha=1.0, eps=0.1, m=2)
    grid, u = state.grid, state.points
    expected = -surface.apply_J(u, fd.tension(state))
    assert np.array_equal(surface.flow_velocity(grid, u), expected)
    assert np.array_equal(fd.flow_rhs(state), expected)


def test_round_sphere_stage_takes_only_the_second_derivative(derivative_calls):
    for n in (64, 256):
        state = make_state("perturbed_latitude", n=n, alpha=1.0, eps=0.1, m=2)
        derivative_calls.clear()
        fd.step(state, fd.admissible_dt(state))
        assert derivative_calls == [(2,)] * 4


# -- stationary solutions ----------------------------------------------------------


def test_constant_map_is_stationary():
    state = make_state("constant", n=16, point=[0.3, 0.4, 0.9])
    out = fd.evolve(state, fd.admissible_dt(state), 5)
    assert np.abs(out.points - state.points).max() < 1e-14


def test_equator_is_stationary():
    state = make_state("great_circle", n=32)
    out = fd.evolve(state, fd.admissible_dt(state), 20)
    assert np.abs(out.points - state.points).max() < 1e-12


# -- precession ---------------------------------------------------------------------


def test_latitude_precession_angle_and_direction():
    alpha = np.pi / 3
    state = make_state("latitude", n=64, alpha=alpha)
    dt = fd.admissible_dt(state)
    n_steps = 200
    out = fd.evolve(state, dt, n_steps)
    omega = 4 * np.pi**2 * np.cos(alpha)
    expected = state.points @ rotation_z(omega * out.time).T
    assert omega > 0  # northern latitude precesses counterclockwise
    assert np.abs(out.points - expected).max() < 1e-9
    assert out.time == pytest.approx(n_steps * dt)


def test_southern_latitude_precesses_clockwise():
    alpha = 2 * np.pi / 3
    state = make_state("latitude", n=64, alpha=alpha)
    out = fd.evolve(state, fd.admissible_dt(state), 100)
    omega = 4 * np.pi**2 * np.cos(alpha)
    expected = state.points @ rotation_z(omega * out.time).T
    assert omega < 0
    assert np.abs(out.points - expected).max() < 1e-9


# -- conservation and reversibility ---------------------------------------------------


def test_energy_conserved_generic_loop():
    state = make_state("perturbed_latitude", n=64, alpha=np.pi / 3, eps=0.05, m=2)
    e0 = fd.energy(state)
    drift = []
    fd.evolve(state, fd.admissible_dt(state), 300, observer=lambda s: drift.append(abs(fd.energy(s) - e0)))
    assert max(drift) < 1e-10 * e0


def test_energy_conserved_on_warped_sphere():
    surface = geo.warped_sphere(*geo.bump_warp(0.3, 0.6, center=(0.6, 0.0, 0.8)))
    state = make_state("perturbed_latitude", n=64, surface=surface, alpha=1.0, eps=0.05, m=2)
    e0 = fd.energy(state)
    out = fd.evolve(state, fd.admissible_dt(state), 200)
    assert abs(fd.energy(out) - e0) < 1e-8 * e0


def test_forward_backward_reversibility():
    state = make_state("perturbed_latitude", n=64, alpha=1.0, eps=0.1, m=3)
    dt = fd.admissible_dt(state)
    fwd = fd.evolve(state, dt, 100)
    back = fd.evolve(fwd, -dt, 100)
    # backward RK4 is not the exact inverse, residual is O(dt^5) per step
    assert np.abs(back.points - state.points).max() < 1e-9


# -- step control -----------------------------------------------------------------


def test_oversized_step_is_rejected_with_admissible_value():
    state = make_state("latitude", n=32)
    limit = fd.admissible_dt(state)
    with pytest.raises(RejectedStepError) as exc:
        fd.step(state, 10 * limit)
    assert exc.value.admissible_dt == pytest.approx(limit)
    assert exc.value.dt == pytest.approx(10 * limit)


def test_zero_step_returns_fresh_copy():
    state = make_state("latitude", n=16)
    out = fd.step(state, 0.0)
    assert out is not state
    assert out.points is not state.points
    assert np.array_equal(out.points, state.points)
    assert out.time == state.time


def test_state_shape_validation():
    with pytest.raises(ConfigError):
        fd.LoopState(SpectralGrid(8), geo.round_sphere(), np.zeros((8, 2)))
    with pytest.raises(ConfigError):
        fd.initial_loop(geo.round_sphere(), SpectralGrid(8), "no_such_kind")


def test_loop_state_caches_match_public_routes():
    """u_x, |u_x|^2_h, K and K_x are computed once per state and equal the
    routes they replace to the bit; K_x is None for constant K. The state
    keeps a read-only copy of its points."""
    warped = geo.warped_sphere(*geo.bump_warp(amplitude=0.12, width=0.55,
                                              center=(0.55, 0.45, 0.7)))
    grid = SpectralGrid(32)
    pts = make_state("perturbed_latitude", n=32, surface=warped,
                     alpha=1.0, eps=0.05, m=2).points.copy()
    state = fd.LoopState(grid, warped, pts)
    ux = grid.derivative(pts)
    K = warped.gaussian_curvature(pts)
    assert np.array_equal(state.ux, ux)
    assert np.array_equal(state.speed2, warped.metric(pts, ux, ux))
    assert np.array_equal(state.curvature, K)
    assert np.array_equal(state.curvature_x, grid.derivative(K))
    assert state.ux is state.ux and state.curvature_x is state.curvature_x

    round_state = make_state("perturbed_latitude", n=32, alpha=1.0, eps=0.05)
    assert np.ptp(round_state.curvature) == 0.0
    assert round_state.curvature_x is None

    with pytest.raises(ValueError):
        state.points[0, 0] = 0.5
    assert pts.flags.writeable
    pts[0, 0] = 0.5
    assert state.points[0, 0] != 0.5


# -- chart targets ------------------------------------------------------------------


def test_flat_torus_flow_is_free_schrodinger():
    surface = geo.flat_torus()
    grid = SpectralGrid(32, kind="torus")
    a = 0.2
    state = fd.initial_loop(surface, grid, "fourier", coeffs=[(1, a, a)])
    w0 = state.points[:, 0] + 1j * state.points[:, 1]
    k = 2 * np.pi / grid.period
    assert np.abs(w0 - a * np.exp(1j * k * grid.nodes)).max() < 1e-14
    dt = fd.admissible_dt(state)
    out = fd.evolve(state, dt, 50)
    w = out.points[:, 0] + 1j * out.points[:, 1]
    exact = a * np.exp(1j * (k * grid.nodes + k**2 * out.time))
    assert np.abs(w - exact).max() < 1e-10


def test_hyperbolic_disk_flow_conserves_energy():
    surface = geo.hyperbolic_disk()
    grid = SpectralGrid(32)
    state = fd.initial_loop(
        surface, grid, "fourier", coeffs=[(1, 0.15, 0.1)], offset=[0.05, 0.0]
    )
    e0 = fd.energy(state)
    out = fd.evolve(state, fd.admissible_dt(state), 100)
    surface.validate_points(out.points)
    assert abs(fd.energy(out) - e0) < 1e-9 * e0


def test_chart_tension_matches_per_node_christoffel_loop():
    """The closed-form conformal terms of the tension and of the transport
    right-hand side against the Christoffel symbols, node by node."""
    grid = SpectralGrid(64)
    for surface in (geo.hyperbolic_disk(), geo.flat_torus()):
        state = fd.initial_loop(surface, grid, "fourier",
                                coeffs=[(1, 0.15, 0.1), (3, 0.03, 0.02)],
                                offset=[0.05, -0.1])
        ux = grid.derivative(state.points)
        v = np.random.default_rng(3).standard_normal(ux.shape)
        quad, transport = np.empty_like(ux), np.empty_like(ux)
        for j in range(grid.n):
            gam = geo.christoffel_at(surface, state.points[j])
            quad[j] = np.einsum("kij,i,j->k", gam, ux[j], ux[j])
            transport[j] = -np.einsum("kij,i,j->k", gam, ux[j], v[j])
        oracle = grid.derivative(state.points, order=2) + quad
        tau = fd.tension(state)
        assert np.abs(tau - oracle).max() <= 1e-13 * np.abs(oracle).max()
        rhs = surface.covariant_rhs(state.points, ux, v)
        assert np.abs(rhs - transport).max() <= 1e-13 * np.abs(transport).max()


# -- kernel parity ------------------------------------------------------------------


def allocating_rk4(rhs, y, dt):
    """Classical RK4 of y_t = rhs(y) with a new array for every stage state,
    rate and weighted term, as fd.step computed it before its workspace."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_step(state, dt):
    """RK4 through the public LoopState interface, accepted as fd.step does;
    every array is row-major when the state's points are."""

    def rhs(pts):
        return fd.flow_rhs(fd.LoopState(state.grid, state.surface, pts, state.time))

    new = allocating_rk4(rhs, state.points, dt)
    if state.surface.embedded:
        new = state.surface.project_point(new)
    else:
        state.surface.validate_points(new)
    return fd.LoopState(state.grid, state.surface, new, state.time + dt)


def parity_state(target, n):
    grid = SpectralGrid(n)
    if target in ("round", "round_r2.5", "warped"):
        surface = {"round": geo.round_sphere(), "round_r2.5": geo.round_sphere(2.5),
                   "warped": geo.warped_sphere(
                       *geo.bump_warp(0.3, 0.6, center=(0.6, 0.0, 0.8)))}[target]
        return fd.initial_loop(surface, grid, "perturbed_latitude",
                               alpha=1.0, eps=0.05, m=2)
    surface = geo.hyperbolic_disk() if target == "hyperbolic" else geo.flat_torus()
    return fd.initial_loop(surface, grid, "fourier",
                           coeffs=[(1, 0.15, 0.1)], offset=[0.05, 0.0])


@pytest.mark.parametrize("target, n", [
    pytest.param(target, n, id=target if n == 32 else f"{target}-{n}")
    for n in (32, 64, 256)
    for target in ("round", "round_r2.5", "warped", "hyperbolic", "torus")
])
def test_step_matches_reference_rk4(target, n):
    """Stage states, rates and the weighted sum live in one workspace per
    step; 50 steps equal the allocating RK4 on the dense (N <= 128) and FFT
    (N = 256) spectral routes."""
    state = parity_state(target, n)
    dt = fd.admissible_dt(state)
    fast, ref = state, state
    for _ in range(50):
        fast, ref = fd.step(fast, dt), reference_step(ref, dt)
    assert np.abs(fast.points - ref.points).max() <= 1e-14 * np.abs(ref.points).max()
    assert fast.time == ref.time


@pytest.mark.parametrize("n", [64, 256])
def test_seed_row_rides_the_workspace_step(n):
    """The coupled step's frame seed is one more row of the same workspace;
    one step equals the allocating RK4 on the stacked rows."""
    state = parity_state("warped", n)
    s, grid, dt = state.surface, state.grid, fd.admissible_dt(state)
    seed = fr.parallel_frame(s, state).e1[0]

    def rhs(y):
        rate = np.empty_like(y)
        rate[:n] = s.flow_velocity(grid, y[:n])
        rate[n] = s.covariant_rhs(y[0], rate[0], y[n])
        return rate

    y = allocating_rk4(rhs, np.vstack([state.points, seed]), dt)
    ref_points = s.project_point(y[:n])
    ref_seed = _unit_tangent(s, ref_points[0], y[n])
    new, new_seed = fr._step_with_seed(state, dt, seed)
    assert np.abs(new.points - ref_points).max() <= 1e-14
    assert np.abs(new_seed - ref_seed).max() <= 1e-14
    assert new.time == state.time + dt


@pytest.mark.parametrize("target", ["round", "round_r2.5", "warped",
                                    "hyperbolic", "torus"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_column_major_step_keeps_row_major_bits(target, n):
    """The step holds its stages column-major: the velocity of a loop does
    not depend on its layout, and from row-major and from column-major
    copies of one loop, five steps equal the row-major RK4 bit for bit on
    the dense (N <= 128) and FFT (N = 256) routes."""
    state = parity_state(target, n)
    s, grid, dt = state.surface, state.grid, fd.admissible_dt(state)
    rows, cols = np.ascontiguousarray(state.points), np.asfortranarray(state.points)
    assert np.array_equal(s.flow_velocity(grid, cols), s.flow_velocity(grid, rows))
    ref = fd.LoopState(grid, s, rows)
    for _ in range(5):
        ref = reference_step(ref, dt)
    for points in (rows, cols):
        new = fd.LoopState(grid, s, points)
        for _ in range(5):
            new = fd.step(new, dt)
        assert np.array_equal(new.points, ref.points)


def test_step_adopts_the_projected_array(monkeypatch):
    """The projected array becomes the new state's points, read-only, with
    no second copy; the public constructor still copies its input."""
    state = make_state("perturbed_latitude", n=256, alpha=1.0, eps=0.1, m=2)
    project, made = geo.RoundSphere.project_point, []

    def recording(self, p):
        made.append(project(self, p))
        return made[-1]

    monkeypatch.setattr(geo.RoundSphere, "project_point", recording)
    new = fd.step(state, fd.admissible_dt(state))
    assert new.points is made[-1]
    assert not new.points.flags.writeable
    assert fd.LoopState(state.grid, state.surface, made[-1]).points is not made[-1]


def test_a_stepped_state_pickles():
    """A grid pickles as the plain frozen value it is: a state that has
    stepped round-trips with an equal grid, which takes the operator cached
    for the original's, and steps on to the same bits."""
    state = make_state("perturbed_latitude", n=64, alpha=1.0, eps=0.1, m=2)
    dt = fd.admissible_dt(state)
    state = fd.step(state, dt)
    copy = pickle.loads(pickle.dumps(state))
    assert copy.grid == state.grid
    assert copy.grid.derivative_operator((2,)) is state.grid.derivative_operator((2,))
    assert np.array_equal(fd.step(copy, dt).points, fd.step(state, dt).points)


def test_step_is_reentrant():
    """A step reads its input state only and keeps no buffer between calls:
    two interleaved trajectories equal the same two run one after the other."""
    a0 = make_state("perturbed_latitude", n=256, alpha=1.0, eps=0.1, m=2)
    b0 = make_state("perturbed_latitude", n=256, alpha=0.7, eps=0.05, m=3)
    before = a0.points.copy()
    dt = fd.admissible_dt(a0)
    fd.step(a0, dt)
    assert np.array_equal(a0.points, before)
    a, b = a0, b0
    for _ in range(5):
        a, b = fd.step(a, dt), fd.step(b, dt)
    a_alone, b_alone = fd.evolve(a0, dt, 5), fd.evolve(b0, dt, 5)
    assert np.array_equal(a.points, a_alone.points)
    assert np.array_equal(b.points, b_alone.points)


def test_non_finite_velocity_trips_the_step_guard(monkeypatch):
    """The step's own non-finite guard, reached through the step: with a
    velocity kernel that returns NaN, fd.step raises BlowUpSuspectedError
    at the state's time and step size."""
    state = make_state("perturbed_latitude", n=32, alpha=1.0, eps=0.05, m=2)
    dt = fd.admissible_dt(state)

    def nan_kernel(surface, grid):
        def kernel(u, out):
            out[...] = np.nan
            return out
        return kernel

    monkeypatch.setattr(geo.SurfaceModel, "velocity_kernel", nan_kernel)
    with pytest.raises(BlowUpSuspectedError, match="non-finite values after time step") as exc:
        fd.step(state, dt)
    assert exc.value.diagnostics == {"time": 0.0, "dt": dt, "max_abs": 0.0}


def test_evolve_rejects_oversized_step_with_admissible_value():
    state = make_state("perturbed_latitude", n=32, alpha=1.0, eps=0.05, m=2)
    limit = fd.admissible_dt(state)
    with pytest.raises(RejectedStepError) as exc:
        fd.evolve(state, 1.01 * limit, 3)
    assert exc.value.admissible_dt == pytest.approx(limit)
    assert exc.value.dt == pytest.approx(1.01 * limit)
