"""Parallel frames along evolving loops and the reduction of the map flow
to a nonlinear Schrodinger equation for the frame coefficients.

A metric-parallel J-adapted frame (e1, e2) along a loop u turns the
derivative u_x into one complex coefficient Phi = h(u_x, e1) + i h(u_x, e2)
and the map flow u_t = -J tau(u) into a cubic Schrodinger equation for
Phi. On a circle the frame fails to close by the holonomy angle theta, so
Phi is twisted-periodic, Phi(x + 1) = e^{-i theta} Phi(x); multiplying by
e^{i theta x} restores periodicity at the cost of a first-order term with
coefficient theta and a linear-in-x potential x * theta_t. Only the
combination of that ramp with the curvature tail is periodic across the
seam, which is what the assembled potential uses.

Potential bookkeeping (gauge: frame transported from the base node, seed
kept time-parallel at the base). With K the Gaussian curvature along the
loop, S(x) = -K |Phi|^2 / 2 and r(x) = (K o u)_x |Phi|^2 / 2 with
primitive R(x) = int_0^x r, the coefficient satisfies

    i Phi_t = Phi_xx - V Phi,    V = S - S(0) + R,

and V(x + 1) = V(x) + oint r with oint r = -theta_t, exactly the jump the
twist demands; both drivers step the NLS with V and that ramp. The letters
S, W = mean(S), T = R - mean(R) + (oint r)/2 and a constant Q split V as
Q + S - W + T for the ``reduction`` check. A coupled step keeps ``geometry``'s
hot-path rule: ufunc methods and concatenate, no Python-level numpy wrapper.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import flow_direct as fd
from .errors import (
    ConfigError,
    InconsistentHolonomyError,
    ResolutionError,
    UnsupportedCombinationError,
    UnsupportedOperationError,
)
from .flow_direct import LoopState
from .geometry import (ProductSurface, SurfaceModel, WarpedSphere, _frame_angle,
                       _path_frame, _unit_tangent)
from .holonomy import _holonomy_ode, _holonomy_rate, lift_to_branch, swept_angle_increment
from .nls_solver import ComplexField, split_step
from .spectral import SpectralGrid, _read_only


# -- frames ----------------------------------------------------------------------


@dataclass(frozen=True)
class FrameField:
    """Parallel J-adapted frame along one loop, plus its once-around wrap."""

    surface: SurfaceModel
    grid: SpectralGrid
    points: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e1_wrap: np.ndarray
    e2_wrap: np.ndarray
    base_index: int = 0

    def orthonormality_defect(self) -> float:
        h = self.surface.metric
        p = self.points
        worst = max(
            np.abs(h(p, self.e1, self.e1) - 1.0).max(),
            np.abs(h(p, self.e2, self.e2) - 1.0).max(),
            np.abs(h(p, self.e1, self.e2)).max(),
        )
        return float(worst)

    def j_defect(self) -> float:
        j_e1 = self.surface.apply_J(self.points, self.e1)
        return float(np.abs(j_e1 - self.e2).max())

    def transport_angle(self) -> float:
        """Rotation from the base frame to its once-around transport."""
        b = self.base_index
        return _frame_angle(self.surface, self.points[b], self.e1_wrap,
                            self.e1[b], self.e2[b])


def parallel_frame(surface: SurfaceModel, loop: LoopState, seed=None,
                   base_index: int = 0) -> FrameField:
    """Metric-parallel frame along the loop, transported from base_index.

    The default seed is the normalized loop direction at the base node.
    The frame is smooth along the transport path; the holonomy mismatch
    sits between the wrap values and the base values. From base 0 on a
    circle grid the path data reuse the loop's u_x (over n): a fresh, bit-equal
    derivative made an N=128 coupled state 534 against 505 us (34 of 40 rounds).
    """
    if isinstance(surface, ProductSurface):
        raise UnsupportedOperationError(
            "parallel frames are scalar-gauge only; use product_integral "
            "for matrix-valued connections"
        )
    if loop.grid.n < 16:
        raise ResolutionError("frame transport needs at least 16 loop samples")
    pts, dpath = loop.points, None
    if base_index % loop.grid.n:
        pts = np.roll(pts, -base_index, axis=0)
    elif loop.grid.kind == "circle":
        dpath = loop.ux / loop.grid.n
    e1, e2 = _path_frame(surface, pts, True, seed, dpath)[1:]
    e1, e2, e1w, e2w = e1[:-1], e2[:-1], e1[-1], e2[-1]
    if base_index % loop.grid.n:
        e1 = np.roll(e1, base_index, axis=0)
        e2 = np.roll(e2, base_index, axis=0)
    return FrameField(surface, loop.grid, loop.points, e1, e2, e1w, e2w,
                      base_index=base_index % loop.grid.n)


# -- coefficients ------------------------------------------------------------------


@dataclass
class FrameCoefficients:
    """Loop derivative expressed in a parallel frame.

    ``a`` holds the two real coefficients (h(u_x, e1), h(u_x, e2)) per
    node; ``phi`` is the complex combination a1 + i a2, twisted-periodic
    on a circle. ``phi_wrap`` is the coefficient of u_x at the base node
    against the once-around transported frame, i.e. the continuation value
    of phi at base + period.
    """

    grid: SpectralGrid
    a: np.ndarray
    phi: np.ndarray
    phi_wrap: complex
    base_index: int = 0

    def velocity_coefficients(self, theta: float = 0.0) -> np.ndarray:
        """Complex coefficients of u_t in the same frame: b = -i Phi_x.

        Phi is twisted-periodic on a circle, so its derivative is taken
        through the periodic representation e^{i theta x} Phi, theta the
        twist angle; theta = 0 recovers the plain spectral derivative for
        line or untwisted data.
        """
        x = self.grid.nodes
        periodic = np.exp(1j * theta * x) * self.phi
        dphi = np.exp(-1j * theta * x) * (
            self.grid.derivative(periodic) - 1j * theta * periodic
        )
        return -1j * dphi

    def norm_identity_defect(self, loop: LoopState) -> float:
        return float(np.abs(np.sum(self.a**2, axis=-1) - loop.speed2).max())


def coefficients(loop: LoopState, frame: FrameField) -> FrameCoefficients:
    """Frame coefficients of u_x, including the wrap continuation value."""
    points, ux = loop.points, loop.ux
    h = frame.surface.metric
    a1 = h(points, ux, frame.e1)
    a2 = h(points, ux, frame.e2)
    a = np.concatenate((a1[..., None], a2[..., None]), axis=-1)
    b = frame.base_index
    pw = frame.points[b]
    phi_wrap = complex(h(pw, ux[b], frame.e1_wrap), h(pw, ux[b], frame.e2_wrap))
    return FrameCoefficients(loop.grid, a, a1 + 1j * a2, phi_wrap, base_index=b)


def twisted_residual(coeffs: FrameCoefficients, theta: float) -> float:
    """Relative defect of the twist relation phi(base + period) =
    e^{-i theta} phi(base)."""
    scale = np.maximum.reduce(np.abs(coeffs.phi))
    if scale == 0.0:
        return 0.0
    predicted = np.exp(-1j * theta) * coeffs.phi[coeffs.base_index]
    return float(abs(coeffs.phi_wrap - predicted) / scale)


def untwist(coeffs: FrameCoefficients, theta: float) -> np.ndarray:
    """phi = e^{i theta x} Phi, periodic when theta matches the twist.

    Rejects angles whose twist relation fails by more than 1e-6 (relative).
    """
    res = twisted_residual(coeffs, theta)
    if res > 1e-6:
        raise InconsistentHolonomyError(
            f"twist angle residual {res:.3e} exceeds 1.0e-06; "
            "the supplied theta does not match the frame holonomy"
        )
    return np.exp(1j * theta * coeffs.grid.nodes) * coeffs.phi


# -- curvature potentials -----------------------------------------------------------

EDGE_DECAY_MAX = 1e-6  # the largest relative edge amplitude of line coefficients


@dataclass(frozen=True)
class NonlinearTerms:
    """Letters of the reduced potential: pointwise S, its mean W, the
    mean-free curvature tail T, and the constant remainder Q, with
    Q + S - W + T equal to the gauge potential of the base-node frame."""

    S: np.ndarray
    T: np.ndarray
    W: float
    Q: float

    def potential(self) -> np.ndarray:
        return self.Q + self.S - self.W + self.T


def _curvature_letters(surface: SurfaceModel, loop, phi: np.ndarray):
    """S = -K |Phi|^2 / 2, the curvature-rate density r = (K o u)_x |Phi|^2 / 2
    and its primitive R from node 0, from K along the loop and its
    derivative; r = R = None when the target's constant_curvature is a
    number, which is K itself, and the loop (then maybe None) is not read."""
    amp2, K = np.abs(phi) ** 2, surface.constant_curvature
    if K is not None:
        return -0.5 * K * amp2, None, None
    r = loop.curvature_x * amp2 * 0.5
    return -0.5 * loop.curvature * amp2, r, loop.grid.cumulative_integral(r)


def _edge_decay(phi: np.ndarray) -> float:
    """max(|Phi| on the e = max(2, n // 16) nodes at either edge) / max|Phi|,
    0 when Phi vanishes; ConfigError above EDGE_DECAY_MAX."""
    edge = max(2, phi.shape[0] // 16)
    scale = max(np.abs(phi).max(), 1e-300)
    decay = max(np.abs(phi[:edge]).max(), np.abs(phi[-edge:]).max()) / scale
    if decay > EDGE_DECAY_MAX:
        raise ConfigError([f"line-domain reduction requires the coefficients to decay at the "
                           f"edges: relative edge amplitude {decay:.3e} exceeds {EDGE_DECAY_MAX:.1e}"])
    return decay


def gauge_potential(loop: LoopState, coeffs: FrameCoefficients) -> np.ndarray:
    """V with i Phi_t = Phi_xx - V Phi in the base-node parallel gauge.

    V = S - S(base) + tail, where the tail integrates the curvature-rate
    density r = (K o u)_x |Phi|^2 / 2 along the transport path from the
    base node (wrapping past the seam for nodes before the base)."""
    return _gauge_potential(loop.surface, loop, coeffs.phi, coeffs.base_index)


def _gauge_potential(surface: SurfaceModel, loop, phi: np.ndarray, b: int) -> np.ndarray:
    """gauge_potential of the coefficients phi with base node b; S - S(b)
    alone when K is constant, from no loop on a constant-curvature target."""
    S, r, R = _curvature_letters(surface, loop, phi)
    if r is None:
        return S - S[b]
    tail = R - R[b]
    if b:
        tail[:b] += loop.grid.integrate(r)
    return S - S[b] + tail


def nonlinear_terms(loop: LoopState, coeffs: FrameCoefficients) -> NonlinearTerms:
    """Curvature potential letters for the reduced equation; the loop's grid
    decides the reduction.

    Line grid: T is the raw tail integrated from the left edge and W = Q = 0;
    the coefficients must decay at the edges (_edge_decay).

    Circle grid: S(x) = -K|Phi|^2/2, W = mean(S),
    T = R - mean(R) + (oint r)/2 with R the primitive of
    r = (K o u)_x |Phi|^2 / 2, and Q the constant making Q + S - W + T the
    base-node gauge potential.
    """
    S, r, R = _curvature_letters(loop.surface, loop, coeffs.phi)
    if r is None:  # K constant: no tail
        r = R = np.zeros(S.shape)
    if loop.grid.kind == "line":
        _edge_decay(coeffs.phi)
        return NonlinearTerms(S=S, T=R, W=0.0, Q=0.0)
    total = loop.grid.integrate(r)
    mean_R = float(np.add.reduce(R) / len(R))
    b = coeffs.base_index
    T = R - mean_R + 0.5 * total
    W = float(np.add.reduce(S) / len(S))
    # Q + S - W + T = S - S[b] + (R - R[b]): the unwrapped base-b gauge
    # potential; the wrapped variant (gauge_potential) differs by the
    # constant oint r on the pre-base arc, the same multivaluedness the
    # twist tracks.
    Q = float(W - S[b] + mean_R - R[b] - 0.5 * total)
    return NonlinearTerms(S=S, T=T, W=W, Q=Q)


def assemble_nls_rhs(grid: SpectralGrid, values: np.ndarray,
                     terms: NonlinearTerms, theta: float = 0.0,
                     theta_rate: float = 0.0, variable_metric=None) -> np.ndarray:
    """Right side F of i phi_t = phi_xx + F for the reduced equation; the
    grid decides the reduction.

    Line grid (coefficients Phi): F = -(S + T) Phi; with variable_metric
    alpha (an array of metric values on the nodes) the dispersive part
    becomes alpha Phi_xx + (3 alpha_x / 2) Phi_x + (alpha_xx / 2) Phi,
    reported relative to the constant-coefficient left side:
    F = (alpha - 1) Phi_xx + (3 alpha_x / 2) Phi_x + (alpha_xx / 2) Phi
    - (S + T) Phi.

    Circle grid (periodic gauge field phi): F = -2 i theta
    phi_x - (theta^2 + x theta_rate + Q + S - W + T) phi, with variable
    metrics unsupported (the change of variables that removes the
    first-order term is specific to the flat circle).
    """
    if grid.kind == "line":
        out = -(terms.S + terms.T) * values
        if variable_metric is not None:
            alpha = np.asarray(variable_metric, dtype=float)
            ax, axx = grid.derivatives(alpha)
            vx, vxx = grid.derivatives(values)
            out = out + (alpha - 1.0) * vxx + 1.5 * ax * vx + 0.5 * axx * values
        return out
    if variable_metric is not None:
        raise UnsupportedCombinationError(
            "variable metrics are only reduced on the line; the twisted "
            "circle change of variables requires a constant metric"
        )
    pot = theta**2 + grid.nodes * theta_rate + terms.potential()
    return -2j * theta * grid.derivative(values) - pot * values


def spacetime_shift(grid: SpectralGrid, history: np.ndarray,
                    times: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Remove the first-order drift: psi(t, y) = phi(t, y + 2 int_0^t theta).

    The running integral of theta uses the trapezoid rule on the supplied
    times; each slice is resampled trigonometrically (bit-exact rolls when
    the shift lands on grid nodes).
    """
    history = np.asarray(history)
    times = np.asarray(times, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if history.shape[0] != times.size or times.size != thetas.size:
        raise ConfigError(["history, times and thetas must align"])
    drift = np.concatenate(
        [[0.0], np.cumsum(0.5 * (thetas[1:] + thetas[:-1]) * np.diff(times))]
    )
    out = np.empty_like(history, dtype=complex)
    for k in range(times.size):
        out[k] = grid.shift(history[k], -2.0 * drift[k])
    return out


# -- coupled evolution ---------------------------------------------------------------


def _step_with_seed(state: LoopState, dt: float, seed: np.ndarray):
    """One flow step plus parallel transport of the base-node seed vector
    along the base point's trajectory: the seed rides as one extra row of
    the RK4 state, so both share the four flow stages."""
    s, n = state.surface, state.grid.n
    velocity = s.velocity_kernel(state.grid)

    def rhs(y, rate):
        velocity(y[:n], rate[:n])
        rate[n] = s.covariant_rhs(y[0], rate[0], y[n])

    y = np.empty((n + 1, state.points.shape[1]), order="F")
    y[:n], y[n] = state.points, seed
    new_state, carried = fd._rk4_step(state, dt, rhs, y)
    return new_state, _unit_tangent(s, new_state.points[0], carried[0])


def reduce_state(state: LoopState, seed=None, theta_ref=None):
    """The gauge part of the reduction of one state: (frame, coefficients,
    holonomy_ode, theta, phi), with the frame transported from the seed
    (parallel_frame's default when None), theta the frame's transport angle
    lifted next to theta_ref (by default next to holonomy_ode) and phi the
    coefficients untwisted by theta. On a line grid holonomy_ode is NaN,
    theta 0 and phi a copy of the coefficients Phi. A torus grid is refused:
    the twist e^{i theta x} and the ramp x theta_t assume period 1. On the
    circle holonomy_ode comes first, so a loop whose reference gauge is
    singular raises before any frame is transported."""
    if state.grid.kind == "torus":
        raise UnsupportedCombinationError(
            "the frame reduction runs on the circle or the line grid, not the torus")
    ode = np.nan if state.grid.kind == "line" else _holonomy_ode(state)
    frame = parallel_frame(state.surface, state, seed)
    coeffs = coefficients(state, frame)
    if state.grid.kind == "line":
        return frame, coeffs, ode, 0.0, coeffs.phi.copy()
    theta = lift_to_branch(frame.transport_angle(), ode if theta_ref is None else theta_ref)
    return frame, coeffs, ode, theta, untwist(coeffs, theta)


def _two_point_step(field: ComplexField, dt: float, pot0: np.ndarray,
                    pot1: np.ndarray, theta: float, t0: float) -> ComplexField:
    """One Strang split step over [t0, t0 + dt] whose potential is pot0 at
    its first half step and pot1 at its second."""
    return split_step(field, dt, theta=theta, t0=t0, potential=lambda vals, t:
                      pot0 if abs(t - t0) < 0.25 * abs(dt) else pot1)


def solver_tolerance(grid: SpectralGrid, dt: float) -> float:
    """Accuracy model of the coupled run in grid units, so a line and a circle
    agree at the same n and dt / dx^2: transport and holonomy quadratures
    contribute O((dx / period)^4), the splitting O((dt / period^2)^2)."""
    return 100.0 * (grid.dx / grid.period)**4 + 10.0 * (dt / grid.period**2)**2


@dataclass
class ReducedRunResult:
    """Per-step scalar series of a coupled flow/NLS run, one entry per state
    from the initial one, plus the final state and frame seed. The per-step
    fields are not kept: they reach the run's observer in each CoupledStep."""

    times: np.ndarray
    theta: np.ndarray
    theta_gb: np.ndarray
    theta_rate: np.ndarray
    theta_ode: np.ndarray  # holonomy_ode per state, unlifted; NaN on the line
    energy: np.ndarray
    grad_norm: np.ndarray
    twist_residual_ode: np.ndarray
    phi_closure: np.ndarray
    sup_error: np.ndarray
    l4_window: np.ndarray
    tolerance: float
    final_state: LoopState
    final_seed: np.ndarray

    @property
    def max_sup_error(self) -> float:
        return float(self.sup_error.max())


class CoupledStep(NamedTuple):
    """One state of a coupled run as its observer sees it: each result series
    at that state (``time`` for ``times``), then read-only views of its frame
    coefficients Phi and of the frame and split-step gauge fields phi.
    autonomous_steps yields it too."""

    time: float
    theta: float
    theta_gb: float
    theta_rate: float
    theta_ode: float
    energy: float
    grad_norm: float
    twist_residual_ode: float
    phi_closure: float
    sup_error: float
    l4_window: float
    coeffs: np.ndarray
    phi_frame: np.ndarray
    phi_nls: np.ndarray


def _windowed_l4(grid: SpectralGrid, window: int):
    """Trailing-window space-time L4 norm of a sequence of fields. Each call
    l4(t, phi) appends phi at time t and returns (duration * period *
    mean |phi|^4)^(1/4) over the last `window` fields, with duration the span
    of their times, or 1 while it is zero. Only the window's |phi|^4 rows
    are kept, in a deque, each field raised to the fourth power once; the
    mean is np.mean's sum and division over them joined in time order."""
    powers, times = deque(maxlen=window), deque(maxlen=window)

    def l4(t, phi) -> float:
        powers.append(np.abs(phi) ** 4)
        times.append(t)
        duration = times[-1] - times[0]
        last = np.concatenate(powers)
        return float(((duration if duration > 0.0 else 1.0) * grid.period
                      * (np.add.reduce(last) / last.size)) ** 0.25)

    return l4


def coupled_steps(state0: LoopState, dt: float, n_steps: int, l4_window: int = 32):
    """March the map flow and the reduced NLS side by side.

    Each step advances the loop by one RK4 flow step, transports the frame
    seed in time along the base trajectory, rebuilds the parallel frame and
    its coefficients, and advances the gauge field phi by one split step of
    potential x theta_t + gauge_potential with the same dt. Records both
    routes to phi, holonomy angles by transport/sweep/rate, and the
    cross-formulation error.

    Each state is reduced by the public routes (reduce_state, gauge_potential,
    the energy and the rate), which share the u_x, |u_x|^2_h, K and K_x its
    LoopState computes once. The loop's grid decides the reduction: a line
    grid runs the line reduction (theta = theta_t = 0, theta_ode NaN, no swept
    angle, the guarded edge decay in place of the twist residual and the
    closure); the circle grid runs the twisted circle reduction.

    Yields (k, state, seed, step) for each state k = 0..n_steps: the
    LoopState, its frame seed e1[0] and its CoupledStep. Only the L4 window
    is kept.
    """
    surface, grid = state0.surface, state0.grid
    circle = grid.kind == "circle"
    l4 = _windowed_l4(grid, l4_window)
    state, seed, theta, pot = state0, None, None, None
    for k in range(n_steps + 1):
        if k:
            prev_points = state.points
            state, seed = _step_with_seed(state, dt, seed)
        frame, coeffs, ode, theta_k, phi_f = reduce_state(state, seed, theta)
        if circle:
            rate, resid = _holonomy_rate(state), twisted_residual(coeffs, ode)
            closure = abs(np.exp(1j * theta_k * grid.period) * coeffs.phi_wrap
                          - phi_f[0]) / max(np.maximum.reduce(np.abs(phi_f)), 1e-300)
        else:  # the edge guard, before the NLS step
            rate, resid = 0.0, _edge_decay(coeffs.phi)
            closure = resid
        pot_k = grid.nodes * rate + gauge_potential(state, coeffs)
        seed = frame.e1[0]
        if not k:
            gb, nls = theta_k, ComplexField(grid, phi_f)
        else:
            if circle:
                gb = gb + swept_angle_increment(surface, grid, prev_points,
                                                state.points, dt)
            nls = _two_point_step(nls, dt, pot, pot_k, 0.5 * (theta + theta_k),
                                  state.time - dt)
        theta, pot = theta_k, pot_k
        energy = fd.energy(state)  # gradient_norm is sqrt(2 energy), taken from it
        yield k, state, seed, CoupledStep(
            state.time, theta, gb, rate, ode, energy,
            float(np.sqrt(max(2.0 * energy, 0.0))), resid, closure,
            np.maximum.reduce(np.abs(nls.values - phi_f)), l4(state.time, nls.values),
            *(_read_only(a.view()) for a in (coeffs.phi, phi_f, nls.values)))


def coupled_evolve(state0: LoopState, dt: float, n_steps: int,
                   l4_window: int = 32, observer=None) -> ReducedRunResult:
    """The states of coupled_steps collected: observer(k, state, step) sees
    each state k = 0..n_steps and its CoupledStep; the ReducedRunResult
    keeps only the scalar series of the steps."""
    series = np.empty((len(CoupledStep._fields) - 3, n_steps + 1))
    for k, state, seed, step in coupled_steps(state0, dt, n_steps, l4_window):
        series[:, k] = step[:-3]
        if observer is not None:
            observer(k, state, step)
    return ReducedRunResult(*series, tolerance=solver_tolerance(state0.grid, dt),
                            final_state=state, final_seed=seed)


# -- reconstruction and the autonomous driver ----------------------------------------


def reconstruct_loop(surface: SurfaceModel, grid: SpectralGrid,
                     phi: np.ndarray, base_point: np.ndarray,
                     e1_base: np.ndarray, theta: float = 0.0):
    """Rebuild loop points and frame from the gauge field by x-integration.

    Solves u' = a1 e1 + a2 e2, nabla_x e1 = 0 from the base point with
    Phi = e^{-i theta x} phi, using one RK4 step per grid cell with
    trigonometrically interpolated midpoint coefficients; after each step
    u goes back onto the sphere and e1 onto the tangent plane at unit
    metric length.  Returns (points, e1, e2, closure) where closure is the
    once-around endpoint defect (O(dx^4) for smooth data).

    The steps stay sequential: the map is nonlinear in (u, e1), since the
    velocity turns e1 by J = u x ., so unlike the linear frame transport
    it has no cell propagators to compose.  Each step runs on plain floats,
    whose operation count is far below the call cost of numpy on 3-vectors.
    """
    if not surface.embedded:
        raise UnsupportedOperationError(
            "loop reconstruction is implemented for embedded sphere targets"
        )
    # interpolate the periodic gauge field, then untwist pointwise (the
    # twisted coefficients themselves are not grid-periodic)
    fine_phi = grid.upsample(np.asarray(phi, dtype=complex), 2)
    x_fine = grid.nodes[0] + 0.5 * grid.dx * np.arange(2 * grid.n)
    fine = np.exp(-1j * theta * x_fine) * fine_phi
    Phi = fine[0::2]
    ends = np.append(Phi[1:], np.exp(-1j * theta * grid.period) * Phi[0])
    coeffs = np.stack([Phi, fine[1::2], ends], axis=1)
    cells = np.concatenate([coeffs.real, coeffs.imag], axis=1).tolist()
    dx, radius = grid.dx, surface.radius
    r2 = radius**2
    warp = surface.warp if isinstance(surface, WarpedSphere) else None
    u = surface.project_point(np.asarray(base_point, dtype=float))
    w = _unit_tangent(surface, u, np.asarray(e1_base, dtype=float))
    u0, u1, u2 = u.tolist()
    w0, w1, w2 = w.tolist()

    def stage(u0, u1, u2, v0, v1, v2, a, b):
        """dx (a v + b J v) at u and the covariant change of v along it."""
        j0 = (u1 * v2 - u2 * v1) / radius
        j1 = (u2 * v0 - u0 * v2) / radius
        j2 = (u0 * v1 - u1 * v0) / radius
        d0 = dx * (a * v0 + b * j0)
        d1 = dx * (a * v1 + b * j1)
        d2 = dx * (a * v2 + b * j2)
        vd = (v0 * d0 + v1 * d1) + v2 * d2
        s = -(vd / r2)
        h0, h1, h2 = s * u0, s * u1, s * u2
        if warp is not None:  # conformal terms; the warped sphere has radius 1
            g0, g1, g2 = surface.warp_grad(np.array((u0, u1, u2))).tolist()
            gu = (g0 * u0 + g1 * u1) + g2 * u2
            g0, g1, g2 = g0 - gu * u0, g1 - gu * u1, g2 - gu * u2
            gd = (g0 * d0 + g1 * d1) + g2 * d2
            gv = (g0 * v0 + g1 * v1) + g2 * v2
            h0 = ((h0 - gd * v0) - gv * d0) + vd * g0
            h1 = ((h1 - gd * v1) - gv * d1) + vd * g1
            h2 = ((h2 - gd * v2) - gv * d2) + vd * g2
        return d0, d1, d2, h0, h1, h2

    rows = [None] * grid.n
    for j, (a0, am, a1, b0, bm, b1) in enumerate(cells):
        rows[j] = (u0, u1, u2, w0, w1, w2)
        k0, k1, k2, h0, h1, h2 = stage(u0, u1, u2, w0, w1, w2, a0, b0)
        l0, l1, l2, i0, i1, i2 = stage(
            u0 + 0.5 * k0, u1 + 0.5 * k1, u2 + 0.5 * k2,
            w0 + 0.5 * h0, w1 + 0.5 * h1, w2 + 0.5 * h2, am, bm)
        m0, m1, m2, n0, n1, n2 = stage(
            u0 + 0.5 * l0, u1 + 0.5 * l1, u2 + 0.5 * l2,
            w0 + 0.5 * i0, w1 + 0.5 * i1, w2 + 0.5 * i2, am, bm)
        o0, o1, o2, q0, q1, q2 = stage(
            u0 + m0, u1 + m1, u2 + m2, w0 + n0, w1 + n1, w2 + n2, a1, b1)
        u0 += (((k0 + 2 * l0) + 2 * m0) + o0) / 6.0
        u1 += (((k1 + 2 * l1) + 2 * m1) + o1) / 6.0
        u2 += (((k2 + 2 * l2) + 2 * m2) + o2) / 6.0
        w0 += (((h0 + 2 * i0) + 2 * n0) + q0) / 6.0
        w1 += (((h1 + 2 * i1) + 2 * n1) + q1) / 6.0
        w2 += (((h2 + 2 * i2) + 2 * n2) + q2) / 6.0
        # back onto the sphere, then e1 onto its tangent plane at unit length
        scale = radius / math.sqrt((u0 * u0 + u1 * u1) + u2 * u2)
        u0, u1, u2 = u0 * scale, u1 * scale, u2 * scale
        c0, c1, c2 = u0 / radius, u1 / radius, u2 / radius
        s = (w0 * c0 + w1 * c1) + w2 * c2
        w0, w1, w2 = w0 - s * c0, w1 - s * c1, w2 - s * c2
        length2 = (w0 * w0 + w1 * w1) + w2 * w2
        if warp is not None:
            length2 *= math.exp(2.0 * float(warp(np.array((u0, u1, u2)))))
        length = math.sqrt(length2)
        w0, w1, w2 = w0 / length, w1 / length, w2 / length
    table = np.array(rows)
    pts, e1s = table[:, :3].copy(), table[:, 3:].copy()
    closure = float(np.linalg.norm(np.array((u0, u1, u2)) - pts[0]))
    e2s = surface.apply_J(pts, e1s)
    return pts, e1s, e2s, closure


@dataclass
class AutonomousState:
    """State of the self-contained gauge-field evolution (experimental)."""

    grid: SpectralGrid
    phi: np.ndarray
    base_point: np.ndarray
    e1_base: np.ndarray
    theta: float
    time: float = 0.0


def _reconstructed(surface: SurfaceModel, st: AutonomousState) -> LoopState:
    """The LoopState of st's loop, rebuilt by reconstruct_loop."""
    pts = reconstruct_loop(surface, st.grid, st.phi, st.base_point, st.e1_base, st.theta)[0]
    return LoopState(st.grid, surface, pts, st.time)


def _autonomous_states(surface: SurfaceModel, state: AutonomousState,
                       dt: float, n_steps: int):
    """Evolve phi without re-deriving it from a stored loop (experimental).

    Each step builds the curvature potential of the state, advances phi by
    a predictor/corrector split step, and moves the base point and seed
    with the flow velocity read off the gauge field (u_t = b1 e1 + b2 e2
    with b = -i Phi_x at the base, from the grid's derivative of phi).
    First order in dt (the seed takes one Euler step of covariant_rhs) on
    top of the O(dx^4) reconstruction. Yields (k, state, loop, rate, Phi =
    e^{-i theta x} phi) for k = 0..n_steps from one snapshot per state (the
    last one's potential and base velocity unused). A loop is rebuilt
    only where it is read: every one where K varies, since S and K_x read
    the points; where the target's constant_curvature is a number, rate 0
    and a potential of K and |Phi|^2 need none, so the predictor's loop
    and the k = 0 loop (yielded as None, rate 0.0) are not rebuilt."""
    grid = state.grid
    x = grid.nodes
    constant = surface.constant_curvature is not None

    def snapshot(st, read):
        loop = _reconstructed(surface, st) if read or not constant else None
        rate = 0.0 if loop is None else _holonomy_rate(loop)
        Phi = np.exp(-1j * st.theta * x) * st.phi
        pot = x * rate + _gauge_potential(surface, loop, Phi, 0)
        phi_x0 = grid.derivative(st.phi)[0]
        b = -1j * np.exp(-1j * st.theta * x[0]) * (phi_x0 - 1j * st.theta * st.phi[0])
        e2b = surface.apply_J(st.base_point, st.e1_base)
        u_t = b.real * st.e1_base + b.imag * e2b
        return loop, rate, Phi, pot, u_t

    def advance(st, phi, displacement, theta):
        """The state dt after st: phi, the base point moved by displacement
        with the seed carried along, and theta."""
        base = surface.project_point(st.base_point + displacement)
        h = surface.covariant_rhs(st.base_point, displacement, st.e1_base)
        return AutonomousState(grid, phi, base, _unit_tangent(surface, base, st.e1_base + h),
                               theta, st.time + dt)

    for k in range(n_steps + 1):
        loop, rate0, Phi, pot0, ut0 = snapshot(state, k > 0)
        yield k, state, loop, rate0, Phi
        if k == n_steps:
            return
        field = ComplexField(grid, state.phi)
        # predictor: freeze the potential and base data
        pred = _two_point_step(field, dt, pot0, pot0, state.theta, state.time)
        st_pred = advance(state, pred.values, dt * ut0, state.theta + dt * rate0)
        _, rate1, _, pot1, ut1 = snapshot(st_pred, False)
        # corrector: trapezoid in the potential, base velocity, and rate
        corr = _two_point_step(field, dt, pot0, pot1,
                               state.theta + 0.25 * dt * (rate0 + rate1), state.time)
        state = advance(state, corr.values, 0.5 * dt * (ut0 + ut1),
                        state.theta + 0.5 * dt * (rate0 + rate1))


def autonomous_evolve(surface: SurfaceModel, state: AutonomousState,
                      dt: float, n_steps: int, observer=None):
    """The states of _autonomous_states collected: observer(k, state, loop)
    sees each state k = 0..n_steps and the LoopState of its reconstructed
    loop, whose u_x, K and K_x a step's snapshot has computed as far as its
    rate and potential needed them (the k = 0 loop of a constant-curvature
    target is rebuilt here, for the observer); returns the final state."""
    for k, state, loop, *_ in _autonomous_states(surface, state, dt, n_steps):
        if observer is not None:
            observer(k, state, _reconstructed(surface, state) if loop is None else loop)
    return state


def autonomous_steps(loop: LoopState, dt: float, n_steps: int, l4_window: int = 32):
    """The autonomous evolution of reduce_state(loop), yielded as coupled_steps
    yields the coupled one: (k, loop_k, state, step) for k = 0..n_steps, with
    step a CoupledStep read off loop_k (the loop itself at k = 0, then the
    evolution's own). theta_gb adds each swept angle over the cell's own
    time; sup_error, twist_residual_ode and phi_closure are NaN; coeffs is
    Phi and phi_frame and phi_nls are phi. Only the L4 window is kept."""
    surface, grid = loop.surface, loop.grid
    frame, _, ode, theta, phi = reduce_state(loop)
    start = AutonomousState(grid, phi, loop.points[0].copy(), frame.e1[0].copy(), theta)
    l4, prev, gb = _windowed_l4(grid, l4_window), loop, theta
    for k, state, loop_k, rate, Phi in _autonomous_states(surface, start, dt, n_steps):
        if k:
            gb = gb + swept_angle_increment(surface, grid, prev.points, loop_k.points,
                                            state.time - prev.time)
            ode = _holonomy_ode(loop_k)
        else:
            loop_k, rate = loop, _holonomy_rate(loop)
        prev, energy = loop_k, fd.energy(loop_k)
        yield k, loop_k, state, CoupledStep(
            state.time, state.theta, gb, rate, ode, energy,
            float(np.sqrt(max(2.0 * energy, 0.0))), np.nan, np.nan, np.nan,
            l4(state.time, state.phi),
            *(_read_only(a.view()) for a in (Phi, state.phi, state.phi)))
