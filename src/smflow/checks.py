"""Named verification suites over the whole toolkit.

Each suite bundles fast, self-contained consistency checks with explicit
thresholds: conservation laws of the flow and the split-step solver,
holonomy angles against closed forms and transport oracles, space-time
norm inequalities, and the frame reduction round trip. The command line
exposes them as ``smflow check <suite>``; the test suite runs the same
code, so a green checkout and a green installation agree.
"""

from dataclasses import dataclass

import numpy as np

from . import flow_direct as fd
from . import frame_reduction as fr
from .errors import ConfigError
from .geometry import bump_warp, round_sphere, warped_sphere
from .holonomy import (
    _connection_matrix_samples,
    _x_independence,
    diagonal_holonomy,
    holonomy_ode,
    holonomy_rate,
    lift_to_branch,
)
from .nls_solver import (
    ComplexField,
    SpaceTimeField,
    duhamel_term,
    free_propagate,
    split_step,
    strichartz_ratio,
)
from .spectral import SpectralGrid

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    """One named inequality: value measured against its threshold."""

    suite: str
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"[{flag}] {self.suite}.{self.name}: "
                f"{self.value:.3e} <= {self.threshold:.1e}{extra}")


def _result(suite, name, value, threshold, detail=""):
    value = float(value)
    return CheckResult(suite, name, value, threshold,
                       bool(value <= threshold), detail)


def _random_loop_field(grid, rng, n_modes=8, scale=1.0):
    k = np.arange(1, n_modes + 1)
    c = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    x = 2j * np.pi * np.outer(grid.nodes / grid.period, k)
    vals = (np.exp(x) * c).sum(axis=1)
    vals += rng.normal() + 1j * rng.normal()
    return ComplexField(grid, scale * vals)


def _check_conservation(rng):
    out = []
    sphere = round_sphere(1.0)
    grid = SpectralGrid(64)
    loop = fd.initial_loop(sphere, grid, "perturbed_latitude",
                           alpha=np.pi / 4, eps=0.05, m=2)
    dt = fd.admissible_dt(loop)
    e0 = fd.energy(loop)
    state = fd.evolve(loop, dt, 200)
    out.append(_result("conservation", "flow_energy_drift",
                       abs(fd.energy(state) - e0) / e0, 1e-8,
                       "round sphere, 200 RK4 steps"))
    back = fd.evolve(state, -dt, 200)
    out.append(_result("conservation", "flow_reversibility",
                       np.abs(back.points - loop.points).max(), 1e-9,
                       "forward then backward"))
    frame = fr.parallel_frame(sphere, loop)
    co = fr.coefficients(loop, frame)
    out.append(_result("conservation", "frame_norm_identity",
                       co.norm_identity_defect(loop), 1e-10))

    field = _random_loop_field(SpectralGrid(64), rng)
    out.append(_result("conservation", "free_flow_unitarity",
                       abs(free_propagate(field, 0.37).l2_norm()
                           - field.l2_norm()), 1e-12))
    pot = np.cos(2 * np.pi * field.grid.nodes)
    stepped = split_step(field, 1e-4, potential=lambda v, t: pot, n_steps=2000)
    out.append(_result("conservation", "split_step_l2_drift",
                       abs(stepped.l2_norm() - field.l2_norm()), 1e-10,
                       "2000 Strang steps"))
    return out


def _check_holonomy(rng):
    out = []
    sphere = round_sphere(1.0)
    grid = SpectralGrid(256)
    for alpha, tag in ((np.pi / 2, "equator"), (np.pi / 4, "latitude")):
        loop = fd.initial_loop(sphere, grid, "latitude", alpha=alpha)
        angle = holonomy_ode(sphere, grid, loop.points)
        target = 2.0 * np.pi * (1.0 - np.cos(alpha))
        out.append(_result("holonomy", f"{tag}_angle",
                           abs(angle - lift_to_branch(target, angle)), 1e-6,
                           "area oracle 2 pi (1 - cos alpha)"))
    wiggly = fd.initial_loop(sphere, SpectralGrid(64), "perturbed_latitude",
                             alpha=np.pi / 3, eps=0.1, m=3)
    out.append(_result("holonomy", "round_rate_vanishes",
                       abs(holonomy_rate(sphere, wiggly.grid, wiggly.points)),
                       1e-12, "constant curvature"))

    warped = warped_sphere(*bump_warp(amplitude=0.12, width=0.55,
                                      center=(0.55, 0.45, 0.7)))
    wg = SpectralGrid(64)
    wl = fd.initial_loop(warped, wg, "fourier",
                         colat_coeffs=[(2, 0.06, -0.04), (3, 0.0, 0.05)])
    dt = 1e-5
    ref = holonomy_ode(warped, wg, wl.points)
    theta = {}  # theta_ode after k steps of dt
    for k in (1, 2, -1, -2):
        state = fd.step(wl if abs(k) == 1 else state, np.sign(k) * dt)
        theta[k] = lift_to_branch(holonomy_ode(warped, wg, state.points), ref)
    fd_rate = (theta[1] - theta[-1]) / (2 * dt)
    fd_rate4 = (theta[-2] - 8.0 * theta[-1] + 8.0 * theta[1] - theta[2]) / (12 * dt)
    rate = holonomy_rate(warped, wg, wl.points)
    out.append(_result("holonomy", "rate_matches_angle_derivative",
                       abs(rate - fd_rate) / abs(fd_rate), 1e-3,
                       "centered difference of the transport angle"))
    out.append(_result("holonomy", "rate_matches_angle_derivative_4th",
                       abs(rate - fd_rate4) / abs(fd_rate4), 1e-9,
                       "fourth-order centered difference of the transport angle"))

    H, spectral, _ = _x_independence(_connection_matrix_samples(wl), 1.0, 8)
    out.append(_result("holonomy", "matrix_unitarity",
                       np.abs(H @ H.conj().T - np.eye(H.shape[0])).max(),
                       1e-10))
    out.append(_result("holonomy", "matrix_base_independence",
                       spectral, 1e-7, "8 base points"))
    out.append(_result("holonomy", "matrix_matches_closed_form",
                       np.abs(H - diagonal_holonomy(wl)).max(), 1e-12,
                       "Magnus route against diag(exp(-i oint beta))"))
    return out


def _check_strichartz(rng):
    out = []
    grid = SpectralGrid(64, kind="torus")
    x = grid.nodes
    single = ComplexField(grid, np.exp(3j * x))
    out.append(_result("strichartz", "single_mode_ratio",
                       abs(strichartz_ratio(single) - 1.0), 1e-10))
    pair = ComplexField(grid, np.exp(1j * x) + np.exp(4j * x))
    out.append(_result("strichartz", "two_mode_ratio",
                       abs(strichartz_ratio(pair) - 1.5 ** 0.25), 1e-6))
    worst = 0.0
    for _ in range(40):
        worst = max(worst, strichartz_ratio(_random_loop_field(grid, rng, n_modes=16)))
    out.append(_result("strichartz", "random_ratio_bound",
                       worst, np.sqrt(2.0) + 1e-9,
                       "40 random 16-mode fields"))

    delta, B = 0.02, 0.3
    times = np.linspace(0.0, 3.0 * delta * 2.0 * np.pi, 97)
    worst_excess = -np.inf
    for _ in range(10):
        src = _random_loop_field(grid, rng, n_modes=6)
        t0 = rng.uniform(0.0, times[-1])
        width = rng.uniform(0.1, 0.5)
        env = np.exp(-((times - t0) ** 2) / (2 * width**2))
        hist = np.stack([e * free_propagate(src, t).values
                         for t, e in zip(times, env)])
        F = SpaceTimeField(times, grid, hist)
        res = duhamel_term(F, 0.3, delta, B)
        worst_excess = max(worst_excess, res.l4_norm - res.bound)
    out.append(_result("strichartz", "duhamel_bound_margin",
                       worst_excess, 0.0, "10 enveloped free sources"))
    return out


def _check_reduction(rng):
    out = []
    sphere = round_sphere(1.0)
    grid = SpectralGrid(32)
    loop = fd.initial_loop(sphere, grid, "perturbed_latitude",
                           alpha=np.pi / 4, eps=0.05, m=2)
    dt = fd.admissible_dt(loop)
    res = fr.coupled_evolve(loop, dt, 200)
    out.append(_result("reduction", "coupled_cross_error",
                       res.max_sup_error, res.tolerance,
                       "frame phi vs split-step phi"))
    out.append(_result("reduction", "untwisted_periodicity",
                       res.phi_closure.max(), 1e-10))
    out.append(_result("reduction", "twist_residual",
                       res.twist_residual_ode.max(), 10.0 * res.tolerance))

    warped = warped_sphere(*bump_warp(amplitude=0.12, width=0.55,
                                      center=(0.55, 0.45, 0.7)))
    wgrid = SpectralGrid(96)
    wloop = fd.initial_loop(warped, wgrid, "fourier",
                            colat_coeffs=[(2, 0.06, -0.04), (3, 0.0, 0.05)])
    dt = 1e-6
    states, seeds = [wloop], [fr.parallel_frame(warped, wloop).e1[0]]
    st, w = wloop, seeds[0]
    for _ in range(3):
        st, w = fr._step_with_seed(st, dt, w)
        states.append(st)
        seeds.append(w.copy())
    _, co1, _, th1, phi1 = fr.reduce_state(states[1], seeds[1])
    phi0, phi2 = (fr.reduce_state(states[k], seeds[k], th1)[4] for k in (0, 2))
    terms = fr.nonlinear_terms(states[1], co1)
    rate = holonomy_rate(warped, wgrid, states[1].points)
    F = fr.assemble_nls_rhs(wgrid, phi1, terms, theta=th1, theta_rate=rate)
    lhs = 1j * (phi2 - phi0) / (2 * dt)
    rhs = wgrid.derivative(phi1, order=2) + F
    out.append(_result("reduction", "equation_residual",
                       np.abs(lhs - rhs).max() / np.abs(rhs).max(), 1e-5,
                       "centered time difference of the coupled frames"))

    rgrid = SpectralGrid(128)
    rloop = fd.initial_loop(sphere, rgrid, "perturbed_latitude",
                            alpha=np.pi / 4, eps=0.08, m=3)
    frame = fr.parallel_frame(sphere, rloop)
    co = fr.coefficients(rloop, frame)
    theta = frame.transport_angle()
    phi = fr.untwist(co, theta)
    pts, _, _, closure = fr.reconstruct_loop(sphere, rgrid, phi,
                                             rloop.points[0], frame.e1[0],
                                             theta)
    out.append(_result("reduction", "reconstruction_roundtrip",
                       np.abs(pts - rloop.points).max(), 1e-6))
    out.append(_result("reduction", "reconstruction_closure",
                       closure, 1e-6))
    return out


_SUITES = {
    "conservation": _check_conservation,
    "holonomy": _check_holonomy,
    "strichartz": _check_strichartz,
    "reduction": _check_reduction,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0):
    """Run one named suite (or 'all') and return its CheckResult list."""
    if name == "all":
        results = []
        for key in SUITE_NAMES:
            results.extend(run_suite(key, seed=seed))
        return results
    if name not in _SUITES:
        known = ", ".join((*SUITE_NAMES, "all"))
        raise ConfigError([f"unknown check suite {name!r}; expected one of {known}"])
    rng = np.random.default_rng(seed)
    return _SUITES[name](rng)
