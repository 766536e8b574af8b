"""Loop holonomy computed three independent ways, plus matrix holonomy.

Routes for the frame-rotation angle theta of a closed loop:
  * connection route: minus the integral of the reference-frame connection
    form along the loop, lifted by the loop's azimuthal winding;
  * Gauss-Bonnet route: theta(0) minus the curvature integrated over the
    space-time surface swept by an evolving loop;
  * rate route: the closed-form time derivative
    theta_t = -1/2 * int (K o u)_x |u_x|^2_h dx, valid along the flow.

For targets with several complex dimensions the scalar angle is replaced
by the ordered exponential (product integral) of the connection matrix:
2-node Gauss Magnus cells (4th order; Blanes, Casas, Oteo & Ros, Phys.
Rep. 2009), one Richardson step and a polar projection. One call of
``spectral.interpolant`` gives the connection at the Gauss nodes of all
cells, one batched Hermitian eigendecomposition exponentiates the cell
stack, and a pairwise reduction composes it: the discrete map of a
cell-by-cell loop. The base-point independence check stacks its shifted
loops on a base axis, so it also exponentiates just two cell stacks per
call, and pairs the eigenvalues of each shifted matrix with the base-0
ones by an exact minimum-sum assignment: the O(k^3) shortest-augmenting-path
Hungarian method (Crouse, IEEE TAES 2016), written out on plain floats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InconsistentHolonomyError
from .flow_direct import LoopState
from .geometry import (
    SurfaceModel,
    _frame_angle,
    azimuthal_winding,
    loop_frame,
    reference_connection,
)
from .spectral import SpectralGrid, interpolant

_GAUSS_OFFSETS = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)


# -- scalar holonomy -------------------------------------------------------------


def transport_angle(surface: SurfaceModel, points: np.ndarray) -> float:
    """Rotation angle (mod 2*pi, in (-pi, pi]) of parallel transport
    around the closed loop, measured in the transported frame."""
    e1, e2, e1_wrap, _ = loop_frame(surface, points)
    return _frame_angle(surface, points[0], e1_wrap, e1[0], e2[0])


def holonomy_ode(surface: SurfaceModel, grid: SpectralGrid, points: np.ndarray) -> float:
    """Lifted rotation angle from the reference-connection integral.

    theta = -int beta dx + 2*pi*(azimuthal winding). The winding term makes
    the value a continuous lift rather than a mod-2*pi representative: an
    equatorial great circle gives exactly 2*pi.
    """
    return _holonomy_ode(LoopState(grid, surface, points))


def _holonomy_ode(loop: LoopState) -> float:
    """holonomy_ode of a loop state, from its u_x."""
    beta = reference_connection(loop.surface, loop.points, loop.ux)
    return float(-loop.grid.integrate(beta)
                 + 2.0 * np.pi * azimuthal_winding(loop.surface, loop.points))


def holonomy_rate(surface: SurfaceModel, grid: SpectralGrid, points: np.ndarray) -> float:
    """d theta / dt along the flow: -1/2 * int (K o u)_x |u_x|^2_h dx.

    Exactly zero on constant-curvature targets, where the integrand is a
    total derivative.
    """
    return _holonomy_rate(LoopState(grid, surface, points))


def _holonomy_rate(loop: LoopState) -> float:
    """holonomy_rate of a loop state, from its (K o u)_x and |u_x|^2_h; u_x
    is not needed when K is constant."""
    dK = loop.curvature_x
    return 0.0 if dK is None else float(-0.5 * loop.grid.integrate(dK * loop.speed2))


def swept_angle_increment(surface: SurfaceModel, grid: SpectralGrid,
                          points_a: np.ndarray, points_b: np.ndarray, dt: float) -> float:
    """Gauss-Bonnet increment -dt * int K(u) h(J u_x, u_t) dx for one time
    cell, evaluated at the midpoint loop with centered u_t. The cell length
    dt cancels: u_t is the point difference over dt and the integral is
    multiplied by dt again, so any positive dt gives the increment to
    rounding; a zero-length cell gives 0."""
    if dt == 0.0:
        return 0.0
    mid = surface.project_point(0.5 * (np.asarray(points_a, float)
                                       + np.asarray(points_b, float)))
    ut = (points_b - points_a) / dt
    ux = grid.derivative(mid)
    K = surface.constant_curvature
    K = surface.gaussian_curvature(mid) if K is None else K
    dens = K * surface.metric(mid, surface.apply_J(mid, ux), ut)
    return float(-dt * grid.integrate(dens))


def holonomy_gauss_bonnet(surface: SurfaceModel, grid: SpectralGrid,
                          history: np.ndarray, times: np.ndarray,
                          theta0: float) -> np.ndarray:
    """theta(t) along a loop history via the swept-curvature integral.

    history has shape (n_times, n_samples, point_dim); times must be
    strictly increasing. Returns the lift theta at every history sample,
    starting from theta0. Cells swept with near-zero signed area while the
    curvature varies across them are flagged with an accuracy warning.
    """
    history = np.asarray(history, dtype=float)
    times = np.asarray(times, dtype=float)
    if history.ndim != 3 or history.shape[0] != times.shape[0]:
        raise ConfigError(["history and times must share the leading dimension"])
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ConfigError(["times must be strictly increasing"])
    out = np.empty(times.shape[0])
    out[0] = theta0
    degenerate = 0
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        inc = swept_angle_increment(surface, grid, history[k], history[k + 1], dt)
        K_pair = surface.gaussian_curvature(history[k : k + 2].reshape(-1, history.shape[-1]))
        if abs(inc) < 1e-14 and np.ptp(K_pair) > 1e-8:
            degenerate += 1
        out[k + 1] = out[k] + inc
    if degenerate:
        warnings.warn(
            f"{degenerate} swept cells had vanishing signed area under varying "
            "curvature; Gauss-Bonnet accuracy may be reduced",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


@dataclass
class HolonomyRecord:
    """Continuous-lift holonomy time series from the independent routes."""

    times: list = field(default_factory=list)
    theta_ode: list = field(default_factory=list)
    theta_gb: list = field(default_factory=list)
    theta_rate: list = field(default_factory=list)

    def append(self, time, theta_ode, theta_gb, theta_rate):
        if self.theta_ode and abs(theta_ode - self.theta_ode[-1]) >= np.pi:
            raise InconsistentHolonomyError(
                "holonomy lift jumped by >= pi between samples; "
                "reduce the time step or refine the loop"
            )
        self.times.append(float(time))
        self.theta_ode.append(float(theta_ode))
        self.theta_gb.append(float(theta_gb))
        self.theta_rate.append(float(theta_rate))

    @property
    def disagreement(self) -> np.ndarray:
        return np.abs(np.asarray(self.theta_ode) - np.asarray(self.theta_gb))


def lift_to_branch(angle: float, reference: float) -> float:
    """Shift angle by a multiple of 2*pi to land nearest the reference."""
    two_pi = 2.0 * np.pi
    return angle + two_pi * np.rint((reference - angle) / two_pi)


# -- matrix holonomy -------------------------------------------------------------


def _cell_exponentials(omega: np.ndarray) -> np.ndarray:
    """exp of a (cells, ..., k, k) stack of anti-Hermitian matrices in one
    call: omega = iH with H = V Lambda V^H Hermitian gives V e^{i Lambda} V^H."""
    w, v = np.linalg.eigh(0.5j * (omega.conj().swapaxes(-1, -2) - omega))
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _magnus_cells(samples: np.ndarray, period: float, n_cells: int) -> np.ndarray:
    """Cell exponentials E_j of Y' = -B(x)Y in the 2-node Gauss Magnus scheme
    (4th order) on n_cells equal cells, as one stack (n_cells, ..., k, k)."""
    h = period / n_cells
    B1, B2 = interpolant(samples, n_cells, _GAUSS_OFFSETS)
    comm_factor = np.sqrt(3.0) * h * h / 12.0
    return _cell_exponentials(-(h / 2.0) * (B1 + B2) + comm_factor * (B2 @ B1 - B1 @ B2))


def _ordered_runs(E: np.ndarray, n_blocks: int = 1) -> np.ndarray:
    """Ordered products E_last ... E_first over n_blocks equal runs of
    consecutive cells, (n_blocks, ..., k, k): a pairwise reduction composes
    every run at once in ceil(log2(cells / n_blocks)) batched products."""
    Y = E.reshape((n_blocks, -1) + E.shape[1:])
    while Y.shape[1] > 1:  # an odd run carries its last cell up a level
        Y = np.concatenate([Y[:, 1::2] @ Y[:, :-1:2], Y[:, Y.shape[1] - Y.shape[1] % 2 :]], axis=1)
    return Y[:, 0]


def _as_matrix_samples(samples: np.ndarray, n_bases: int = 1) -> np.ndarray:
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim == 1:
        samples = samples[:, None, None]
    if samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
        raise ConfigError(["connection samples must have shape (n, k, k) or (n,)"])
    if samples.shape[0] % n_bases:
        raise ConfigError([f"number of samples {samples.shape[0]} must be "
                           f"divisible by n_bases {n_bases}"])
    if not np.isfinite(samples).all():
        raise ConfigError(["connection samples must be finite"])
    skew_defect = np.abs(samples + samples.conj().transpose(0, 2, 1)).max()
    if skew_defect > 1e-10:
        raise ConfigError(
            [f"connection samples must be anti-Hermitian; defect {skew_defect:.3e}"]
        )
    return samples


def _richardson_product(samples: np.ndarray, period: float, n_cells: int):
    """product_integral of every loop of (n, ..., k, k) samples on n_cells
    cells, and the fine cell stack."""
    coarse = _ordered_runs(_magnus_cells(samples, period, n_cells))[0]
    fine_cells = _magnus_cells(samples, period, 2 * n_cells)
    combined = (16.0 * _ordered_runs(fine_cells)[0] - coarse) / 15.0
    u, _, vh = np.linalg.svd(combined)
    return u @ vh, fine_cells


def product_integral(samples: np.ndarray, period: float = 1.0, refine: int = 1) -> np.ndarray:
    """Ordered exponential of Y' = -B(x)Y around the loop.

    samples: anti-Hermitian matrices B at equispaced nodes (shape (n,k,k),
    or (n,) for the scalar case). refine multiplies the cell count beyond
    the sampling resolution. Richardson extrapolation of the 4th-order
    Magnus result (two cell stacks, each exponentiated in one call and
    composed by a log-depth pairwise reduction), followed by a polar
    projection back to the unitary group, gives the returned matrix.
    """
    samples = _as_matrix_samples(samples)
    return _richardson_product(samples, period, samples.shape[0] * int(refine))[0]


def _min_sum_assignment(cost: np.ndarray) -> list:
    """Column assigned to each row of a square cost matrix in a minimum-sum
    assignment: one shortest augmenting path per row over reduced costs,
    with dual potentials u, v (Hungarian method, O(k^3); Crouse, IEEE TAES
    2016). The column scan order and the tie rule (an unassigned column
    first among equal distances) are those of
    scipy.optimize.linear_sum_assignment, so ties resolve the same way and
    a constant matrix gets the identity."""
    c = cost.tolist()
    k = len(c)
    u, v = [0.0] * k, [0.0] * k
    col4row, row4col, path = [-1] * k, [-1] * k, [-1] * k
    for row in range(k):
        dist = [math.inf] * k
        rows, cols = [], []  # rows and columns the search has reached
        remaining = list(range(k - 1, -1, -1))
        i, low, sink = row, 0.0, -1
        while sink < 0:
            rows.append(i)
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = low + c[i][j] - u[i] - v[j]
                if r < dist[j]:
                    path[j], dist[j] = i, r
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] < 0):
                    lowest, index = dist[j], it
            low = lowest
            remaining[index], remaining[-1] = remaining[-1], remaining[index]
            j = remaining.pop()
            cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
        u[row] += low
        for i in rows[1:]:
            u[i] += low - dist[col4row[i]]
        for j in cols:
            v[j] -= low - dist[j]
        j = sink
        while True:  # augment along the path back to the new row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == row:
                break
    return col4row


def _x_independence(samples: np.ndarray, period: float, n_bases: int):
    """(product_integral, spectral, aligned) of x_independence_check from
    one stacked pass over the n_bases shifted bases."""
    samples = _as_matrix_samples(samples, n_bases)
    n = samples.shape[0]
    shifted = samples[(np.arange(n)[:, None] + (n // n_bases) * np.arange(n_bases)) % n]
    H, fine_cells = _richardson_product(shifted, period, n)
    ref = H[0]
    eigs = np.linalg.eigvals(H)
    costs = np.abs(eigs[1:, :, None] - eigs[0][None, None, :])
    rows = np.arange(samples.shape[1])
    spectral = max((float(c[rows, _min_sum_assignment(c)].max()) for c in costs), default=0.0)
    runs = _ordered_runs(fine_cells[:, 0], n_bases)  # the base-0 cells
    Yj = np.empty_like(H[1:])
    Y = np.eye(samples.shape[1])
    for b in range(1, n_bases):
        Y = Yj[b - 1] = runs[b - 1] @ Y  # Y at base node b
    predicted = Yj @ ref @ np.linalg.inv(Yj)
    return ref, spectral, float(np.abs(H[1:] - predicted).max(initial=0.0))


def x_independence_check(samples: np.ndarray, period: float = 1.0, n_bases: int = 8):
    """Base-point independence of the loop holonomy.

    Recomputes the ordered exponential starting at n_bases equispaced
    nodes. Returns (spectral, aligned): the worst eigenvalue mismatch
    (conjugation invariant), i.e. the largest matched distance of a
    minimum-sum matching of each base's eigenvalues to base 0's, and the
    worst deviation of the recomputed matrix from its prediction
    conjugated back to the original base frame.
    The prediction conjugates by Y at the base node, composed from the
    base-0 loop's fine Magnus cells in n_bases runs. Each shifted base keeps
    its own interpolation and exponentials, stacked on a base axis: 2 cell
    stacks per call, (n, n_bases, k, k) and (2 n, n_bases, k, k).
    """
    return _x_independence(samples, period, n_bases)[1:]


def connection_matrix_samples(surface: SurfaceModel, grid: SpectralGrid, points: np.ndarray) -> np.ndarray:
    """u(n)-valued connection B(x) of the reference frame along a loop,
    diagonal over the factors of a product target (i times the scalar
    connection form per factor)."""
    return _connection_matrix_samples(LoopState(grid, surface, points))


def _connection_matrix_samples(loop: LoopState) -> np.ndarray:
    """connection_matrix_samples of a loop state, from its u_x."""
    factors = loop.surface.factor_slices()
    out = np.zeros((loop.grid.n, len(factors), len(factors)), dtype=complex)
    for idx, (factor, sl) in enumerate(factors):
        beta = reference_connection(factor, loop.points[:, sl], loop.ux[:, sl])
        out[:, idx, idx] = 1j * beta
    return out


def diagonal_holonomy(loop: LoopState) -> np.ndarray:
    """product_integral of a loop state's diagonal connection samples B in
    closed form: they commute, so exp(-oint B) = diag(exp(-i oint beta_j))."""
    return np.diag(np.exp(-loop.grid.integrate(
        np.diagonal(_connection_matrix_samples(loop), 0, 1, 2))))
