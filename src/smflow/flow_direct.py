"""Direct integration of the Schrodinger map flow u_t = -J tau(u).

The map u sends a periodic 1-D domain into a surface with compatible
complex structure J. The tension field tau is computed spectrally in x.
Each RK4 stage takes u_t from the target's ``flow_velocity``: the round
sphere of radius r uses the Landau-Lifshitz form u_t = u_xx x u / r, which
needs only the second derivative (J removes the normal part of tau), and
every other target -J tau(u) from the first and second derivatives. Time
stepping is classical RK4 with a CFL-style guard and, for embedded
targets, a pointwise renormalization after each full step (the flow
preserves |u| exactly, so the projection only removes O(dt^5) drift and
the scheme stays 4th order).

Each step allocates one workspace: every stage writes its rate into it
through the target's ``flow_velocity(grid, u, out)``, and the stage states
and the sum k1 + 2 k2 + 2 k3 + k4 are built there in place, in the order of
the textbook formula, so the result is bit-equal to the allocating form. The
workspace belongs to the call; no buffer outlives a step.

The step holds its state, the workspace and the projected result
column-major, so every coordinate column is contiguous through the FFTs
(whose outputs follow the layout of their input), the cross product, the
projection and the stage sums. Layout changes no bit: the routes whose
rounding depends on it (the dense derivative matrices and the -J tau
tension) take row-major copies. The projected array becomes the new
state's points as it is, made read-only, without the copy the public
``LoopState`` constructor makes of any array it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BlowUpSuspectedError, ConfigError, OffManifoldError, RejectedStepError
from .geometry import SurfaceModel, sphere_chart_point
from .spectral import SpectralGrid

# RK4 on the linearized flow i phi_t = phi_xx is stable for
# dt * k_max^2 <= 2*sqrt(2) with k_max = pi/dx; 0.2 leaves margin.
CFL_CONSTANT = 0.2


@dataclass(frozen=True)
class LoopState:
    """A closed loop (or periodic line profile) in the target at one time.

    Holds a read-only copy of its points and computes each per-state
    quantity at most once, on first use: ``ux`` (u_x), ``speed2``
    (|u_x|^2_h), ``curvature`` (K along the loop) and ``curvature_x``
    ((K o u)_x, None when K is constant along the loop); u_x factor by factor."""

    grid: SpectralGrid
    surface: SurfaceModel
    points: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.shape != (self.grid.n, self.surface.point_dim):
            raise ConfigError(
                [
                    f"points shape {pts.shape} does not match grid size "
                    f"{self.grid.n} and target dimension {self.surface.point_dim}"
                ]
            )
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @cached_property
    def ux(self) -> np.ndarray:
        parts = [self.grid.derivative(self.points[:, sl])
                 for _, sl in self.surface.factor_slices()]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    @cached_property
    def speed2(self) -> np.ndarray:
        return self.surface.metric(self.points, self.ux, self.ux)

    @cached_property
    def curvature(self) -> np.ndarray:
        return self.surface.gaussian_curvature(self.points)

    @cached_property
    def curvature_x(self) -> np.ndarray | None:
        if self.surface.constant_curvature is not None:
            return None
        K = self.curvature
        spread = np.maximum.reduce(K) - np.minimum.reduce(K)  # np.ptp's arithmetic
        return None if spread == 0.0 else self.grid.derivative(K)


def _adopt(grid: SpectralGrid, surface: SurfaceModel, points: np.ndarray,
           time: float) -> LoopState:
    """A LoopState over a fresh (grid.n, point_dim) float array that its
    maker hands over and never writes again: made read-only in place, not
    copied. The public constructor still copies whatever it is given."""
    points.flags.writeable = False
    state = object.__new__(LoopState)
    state.__dict__.update(grid=grid, surface=surface, points=points, time=time)
    return state


# -- initial data ---------------------------------------------------------------


# the initial-loop presets of each target family, by surface.embedded
PRESETS = {True: ("constant", "great_circle", "latitude", "perturbed_latitude", "fourier"),
           False: ("constant", "fourier")}


def initial_loop(surface: SurfaceModel, grid: SpectralGrid, kind: str, *,
                 point=None, alpha=np.pi / 3, eps=0.01, m=2, colat_coeffs=(),
                 azimuth_coeffs=(), coeffs=((1, 0.1, 0.1),), envelope_sigma=None,
                 offset=(0.0, 0.0)) -> LoopState:
    """Build a named initial loop.

    Sphere-like targets support the presets ``PRESETS[True]`` and chart
    targets those of ``PRESETS[False]``, whose 'fourier' coefficients feed
    the two chart coordinates. The keyword-only parameters are every
    parameter some preset reads, and the CLI takes its allowed ``init`` keys
    from them; a preset ignores those it does not read. ``point`` defaults to the north pole on a sphere and to
    the chart origin otherwise.
    """
    if kind not in PRESETS[surface.embedded]:
        raise ConfigError([f"unknown initial loop kind {kind!r} for "
                           f"{'sphere' if surface.embedded else 'chart'} target"])
    x = grid.nodes
    phase = 2 * np.pi * x / grid.period
    if surface.embedded:
        if kind == "constant":
            base = np.asarray([0.0, 0.0, 1.0] if point is None else point, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                on_target = surface.project_point(base)
            if not np.isfinite(on_target).all():  # the zero vector, say
                raise ConfigError([f"point {base.tolist()} of the constant loop "
                                   "has no radial projection onto the target"])
            pts = np.tile(on_target, (grid.n, 1))
        else:  # (colatitude, longitude) chart coordinates of the loop
            colat, azim = np.full(grid.n, np.pi / 2), phase
            if kind == "latitude":
                colat = np.full(grid.n, float(alpha))
            elif kind == "perturbed_latitude":
                colat = float(alpha) + float(eps) * np.cos(int(m) * phase)
            elif kind == "fourier":
                azim = phase.copy()
                for k, ac, asn in colat_coeffs:
                    colat += ac * np.cos(k * phase) + asn * np.sin(k * phase)
                for k, ac, asn in azimuth_coeffs:
                    azim += ac * np.cos(k * phase) + asn * np.sin(k * phase)
            pts = sphere_chart_point(np.stack([colat, azim], axis=-1), surface.radius)
    else:
        if kind == "constant":
            base = np.asarray([0.0, 0.0] if point is None else point, dtype=float)
            pts = np.tile(base, (grid.n, 1))
        else:  # fourier
            q = np.zeros((grid.n, 2))
            for k, c1, c2 in coeffs:
                q[:, 0] += c1 * np.cos(k * phase)
                q[:, 1] += c2 * np.sin(k * phase)
            if envelope_sigma is not None:
                # Gaussian envelope so line-domain data decays at the edges
                q *= np.exp(-(x**2) / (2.0 * float(envelope_sigma) ** 2))[:, None]
            pts = q + np.asarray(offset, dtype=float)
        try:
            surface.validate_points(pts)
        except OffManifoldError as exc:
            raise ConfigError([f"the {kind} initial loop leaves the target: {exc}"]) from None
    return LoopState(grid=grid, surface=surface, points=pts)


# -- spatial operators ----------------------------------------------------------


def tension(state: LoopState) -> np.ndarray:
    """Tension field tau(u) at the grid nodes (tangent to the target)."""
    ux, uxx = state.grid.derivatives(state.points, (1, 2))
    return state.surface.tension(state.points, ux, uxx)


def flow_rhs(state: LoopState) -> np.ndarray:
    """u_t = -J tau(u)."""
    return state.surface.flow_velocity(state.grid, state.points)


def energy(state: LoopState) -> float:
    """Dirichlet energy E = 1/2 * integral of |u_x|^2 in the target metric."""
    return 0.5 * state.grid.integrate(state.speed2)


def gradient_norm(state: LoopState) -> float:
    """L^2 norm of u_x in the target metric; equals sqrt(2 * energy)."""
    return float(np.sqrt(max(2.0 * energy(state), 0.0)))


# -- time stepping --------------------------------------------------------------


def admissible_dt(state: LoopState) -> float:
    return CFL_CONSTANT * state.grid.dx**2


def _rk4_step(state: LoopState, dt: float, rhs, y: np.ndarray):
    """Guarded RK4 step of y_t = f(y) on a plain array whose first grid.n
    rows are the loop points; further rows (the coupled driver's frame seed)
    ride on the same stages. ``rhs(y, out)`` writes f(y) into out. Stage
    states, rates and the sum k1 + 2 k2 + 2 k3 + k4 are built in place in one
    column-major workspace allocated for this step. Returns the new LoopState
    and the carried rows."""
    n = state.grid.n
    if dt == 0.0:
        return replace(state), y[n:].copy()
    limit = admissible_dt(state)
    if abs(dt) > limit * (1 + 1e-12):
        raise RejectedStepError(dt, limit)
    y = np.asfortranarray(y)
    total, rate, stage = np.empty((3,) + y.shape[::-1]).transpose(0, 2, 1)
    rhs(y, total)
    for h, k in ((0.5 * dt, total), (0.5 * dt, rate), (dt, rate)):
        np.multiply(k, h, out=stage)
        stage += y
        if k is rate:  # 2 k2 or 2 k3 joins the sum after its stage state is formed
            rate *= 2.0
            total += rate
        rhs(stage, rate)
    total += rate
    total *= dt / 6.0
    total += y
    new = total[:n]
    if not np.logical_and.reduce(np.isfinite(new), None):
        raise BlowUpSuspectedError(
            "non-finite values after time step",
            {"time": state.time, "dt": dt, "max_abs": float(np.abs(new[np.isfinite(new)]).max(initial=0.0))},
        )
    s = state.surface
    if s.embedded:
        new = s.project_point(new)
    else:  # a row-major copy, so the state holds no part of the workspace
        new = np.ascontiguousarray(s.validate_points(new))
    return _adopt(state.grid, s, new, state.time + dt), total[n:]


def step(state: LoopState, dt: float) -> LoopState:
    """One RK4 step of the flow. Rejects |dt| above the stability guard.

    Negative dt integrates backward, which is legitimate for the
    time-reversible equation and used by the reversibility checks.
    """
    s, grid = state.surface, state.grid
    return _rk4_step(state, dt, lambda u, out: s.flow_velocity(grid, u, out),
                     state.points)[0]


def evolve(state: LoopState, dt: float, n_steps: int, observer=None) -> LoopState:
    """Advance n_steps of size dt; call observer(state) after each step."""
    for _ in range(n_steps):
        state = step(state, dt)
        if observer is not None:
            observer(state)
    return state
