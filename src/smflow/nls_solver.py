"""Free Schrodinger propagation, splitting and Picard integrators, and
numerical verifiers for periodic space-time integrability estimates.

Sign convention throughout: i phi_t = phi_xx + F, so a free mode e^{ikx}
evolves with multiplier e^{i k^2 t}.

A field is normalized by the kind of its grid. On the period-1 circle
(and the line) the wavenumbers are 2*pi*m / period. On a torus grid both
space and time have period 2*pi and the wavenumbers are the integers m
themselves, so single modes e^{i(mx+m^2 t)} are genuinely doubly periodic
and restriction estimates take their standard form. ``as_torus`` moves a
circle field onto the torus by relabeling the same samples (x -> 2*pi*x);
its time then runs 4*pi^2 times faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpSuspectedError, ConfigError, NoConvergenceError
from .spectral import SpectralGrid, dft, mode_numbers

# Calibrated multiplier for the truncated-Duhamel bound
# C * (B^{-1/4} + delta*B) * ||F||_{L^{4/3}}; see calibrate_duhamel_constant.
# Worst ratio over the calibration ensemble is ~0.35; pinned with margin.
DUHAMEL_CONSTANT = 0.55


@dataclass(frozen=True)
class ComplexField:
    """Complex scalar field sampled on a periodic grid; torus-normalized
    exactly when its grid is a torus grid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n,):
            raise ConfigError(
                [f"values shape {vals.shape} does not match grid size {self.grid.n}"]
            )
        if not np.logical_and.reduce(np.isfinite(vals.view(float)), None):
            raise ConfigError(["field values must be finite"])
        object.__setattr__(self, "values", vals)

    @property
    def modes(self) -> np.ndarray:
        """Fourier coefficients a_m with f = sum a_m e^{i k_m x}."""
        return dft(self.values) / self.grid.n

    def l2_norm(self) -> float:
        """L^2 norm with the grid's true measure."""
        return float(np.sqrt(self.grid.period * np.mean(np.abs(self.values) ** 2)))

    def parseval_defect(self) -> float:
        return abs(np.mean(np.abs(self.values) ** 2) - np.sum(np.abs(self.modes) ** 2))

    def as_torus(self) -> "ComplexField":
        """Relabel the period-1 samples onto the 2*pi torus (identity for a
        field on a torus grid). Dynamics: t_torus = 4*pi^2 * t_circle."""
        if self.grid.kind == "torus":
            return self
        return ComplexField(SpectralGrid(self.grid.n, kind="torus"), self.values.copy())


@dataclass(frozen=True)
class SpaceTimeField:
    """Uniform time samples of a periodic field, one slice per row. For
    torus estimates the times cover [0, 2*pi) like the spatial grid."""

    times: np.ndarray
    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (times.size, self.grid.n):
            raise ConfigError(["values must have shape (n_times, grid.n)"])
        if times.size > 1:
            steps = np.diff(times)
            if np.any(steps <= 0) or np.ptp(steps) > 1e-12 * steps[0]:
                raise ConfigError(["time samples must be uniform and increasing"])
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", vals)

    def lp_norm(self, p: float) -> float:
        """Space-time L^p norm with the true product measure."""
        area = self.grid.period * 2.0 * np.pi
        return float((area * np.mean(np.abs(self.values) ** p)) ** (1.0 / p))


def free_propagate(field: ComplexField, t: float) -> ComplexField:
    """Evolve i phi_t = phi_xx for time t: hat phi -> e^{i k^2 t} hat phi."""
    k = field.grid.wavenumbers
    out = field.grid.multiply(field.values, np.exp(1j * k**2 * t))
    return ComplexField(field.grid, out)


# -- torus quadrature helpers -----------------------------------------------------


def _active_mode_bound(modes: np.ndarray, rel_tol: float = 1e-13) -> int:
    m = mode_numbers(modes.shape[0])
    mags = np.abs(modes)
    active = mags > rel_tol * (mags.max() + 1e-300)
    return int(np.abs(m[active]).max(initial=0))


def _l4_of_free_evolution(modes: np.ndarray) -> float:
    """L^4(T^2) norm of sum_m a_m e^{i(m x + m^2 t)} by tensor quadrature,
    exact once n_t exceeds 2 mmax^2, the top time frequency of |u|^4."""
    n = modes.shape[0]
    m = mode_numbers(n)
    mmax = _active_mode_bound(modes)
    n_t = max(64, 2 * mmax * mmax + 1)
    nq = 1 << int(np.ceil(np.log2(max(n, 4 * (mmax + 1), 8))))
    pad = np.zeros((n_t, nq), dtype=complex)
    ts = 2.0 * np.pi * np.arange(n_t) / n_t
    # mode m sits at column m mod nq of the FFT layout; nq >= n
    pad[:, m % nq] = np.exp(1j * np.outer(ts, m.astype(float) ** 2)) * modes[None, :]
    samples = dft(pad, inverse=True) * nq
    mean4 = np.mean(np.abs(samples) ** 4)
    return float((4.0 * np.pi**2 * mean4) ** 0.25)


def strichartz_ratio(field: ComplexField) -> float:
    """||free evolution||_{L^4(T_t x T_x)} / ||data||_{L^2(T_x)}.

    Quadrature uses alias-free sample counts derived from the active mode
    content; exact for band-limited data since |phi|^4 is a trigonometric
    polynomial.
    """
    tor = field.as_torus()
    l2 = tor.l2_norm()
    if l2 == 0.0:
        raise ConfigError(["strichartz_ratio requires nonzero data"])
    return _l4_of_free_evolution(tor.modes) / l2


def bourgain_weighted_norm(field: SpaceTimeField) -> float:
    """(sum_{m,n} (|n - m^2| + 1)^{-3/4} |a_{m,n}|^2)^{1/2} with a_{m,n}
    the coefficients of e^{i(mx + nt)} on the 2*pi torus."""
    vals = field.values
    n_t, n_x = vals.shape
    # coefficient of e^{+i(mx+nt)} is the conjugate-exponent DFT entry
    a = dft(dft(vals), axis=0) / (n_t * n_x)
    n_modes, m_modes = mode_numbers(n_t), mode_numbers(n_x)
    weight = (np.abs(n_modes[:, None] - m_modes**2) + 1.0) ** (-0.75)
    return float(np.sqrt(np.sum(weight * np.abs(a) ** 2)))


# -- truncated Duhamel term ---------------------------------------------------------


@dataclass(frozen=True)
class DuhamelResult:
    field: ComplexField
    l4_norm: float
    bound: float
    constant: float


def duhamel_term(F: SpaceTimeField, t: float, delta: float, B: float) -> DuhamelResult:
    """G(t) = int_0^{2*delta*period} S(t - tau) F(tau) d tau on the torus.

    delta is the time cutoff as a fraction of the full time period (the
    admissible window requires 0 < delta < 1/8) and B the mode-cutoff
    parameter entering the reported bound
    DUHAMEL_CONSTANT * (B^{-1/4} + delta*B) * ||F||_{L^{4/3}}.
    The tau integral of e^{-i m^2 tau} F_m(tau) collapses the Duhamel term
    to a free evolution of one fixed profile, so the L^4(T^2) report uses
    the same alias-free quadrature as the linear estimate.
    """
    if not 0.0 < delta < 0.125:
        raise ConfigError([f"delta must lie in (0, 1/8); got {delta}"])
    if not 0.0 < B < 1.0 / (100.0 * delta):
        raise ConfigError([f"B must lie in (0, 1/(100*delta)); got {B}"])
    n_t, n_x = F.values.shape
    fhat = dft(F.values) / n_x
    m = mode_numbers(n_x)
    tau_end = 2.0 * delta * 2.0 * np.pi
    ts = F.times
    dt = ts[1] - ts[0] if ts.size > 1 else 2.0 * np.pi
    integrand = np.exp(-1j * np.outer(ts, m.astype(float) ** 2)) * fhat
    k_full = int(np.floor(tau_end / dt + 1e-12))
    k_full = min(k_full, ts.size - 1)
    w = np.zeros(ts.size)
    w[: k_full + 1] = dt
    w[0] = w[k_full] = dt / 2.0
    g0 = integrand.T @ w
    rem = tau_end - k_full * dt
    if rem > 1e-14 and k_full + 1 < ts.size:
        f_a = integrand[k_full]
        f_b = f_a + (integrand[k_full + 1] - f_a) * (rem / dt)
        g0 = g0 + rem * 0.5 * (f_a + f_b)
    profile = ComplexField(F.grid, dft(g0 * n_x, inverse=True))
    out = free_propagate(profile, t)
    l4 = _l4_of_free_evolution(profile.modes)
    bound = DUHAMEL_CONSTANT * (B ** (-0.25) + delta * B) * F.lp_norm(4.0 / 3.0)
    return DuhamelResult(out, l4, bound, DUHAMEL_CONSTANT)


def calibrate_duhamel_constant(seed: int = 0, n_samples: int = 40,
                               n_modes: int = 8, grid_n: int = 64,
                               deltas=(0.005, 0.01, 0.02, 0.04),
                               bs=(0.05, 0.2, 0.45)) -> float:
    """Empirical constant for the truncated-Duhamel bound: the largest
    ratio L^4 / ((B^{-1/4} + delta*B) ||F||_{4/3}) over a seeded random
    ensemble and a (delta, B) sweep. The pinned DUHAMEL_CONSTANT rounds
    this up; held-out ensembles are tested against the pinned value."""
    rng = np.random.default_rng(seed)
    grid = SpectralGrid(grid_n, kind="torus")
    n_t = 64
    times = 2.0 * np.pi * np.arange(n_t) / n_t
    worst = 0.0
    for sample in range(n_samples):
        spec = np.zeros((n_t, grid_n), dtype=complex)
        rows = rng.integers(-n_modes, n_modes + 1, size=12)
        cols = rng.integers(-n_modes, n_modes + 1, size=12)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        for r, c, amp in zip(rows, cols, amps):
            spec[r % n_t, c % grid_n] += amp
        vals = dft(dft(spec, inverse=True), axis=0, inverse=True) * (n_t * grid_n)
        if sample % 2:
            # temporally concentrated sources stress the bound hardest
            t0 = rng.uniform(0.0, 2.0 * np.pi * 0.1)
            width = rng.uniform(0.05, 0.5)
            vals = vals * np.exp(-(((times - t0) / width) ** 2))[:, None]
        F = SpaceTimeField(times, grid, vals)
        denom_base = F.lp_norm(4.0 / 3.0)
        for delta in deltas:
            for b in bs:
                if not 0 < b < 1.0 / (100.0 * delta):
                    continue
                res = duhamel_term(F, 0.0, delta, b)
                ratio = res.l4_norm / ((b ** (-0.25) + delta * b) * denom_base)
                worst = max(worst, ratio)
    return worst


# -- nonlinear integrators ----------------------------------------------------------


def split_step(field: ComplexField, dt: float, potential=None, theta: float = 0.0,
               n_steps: int = 1, t0: float = 0.0,
               blow_up_threshold: float = 1e8) -> ComplexField:
    """Strang splitting for i phi_t = phi_xx - 2i theta phi_x - theta^2 phi
    - U phi, with U = potential(values, t) a real array (or None).

    The linear-plus-twist part is solved exactly by the Fourier multiplier
    e^{i (k - theta)^2 dt}; the potential substep is an exact phase
    rotation. Second order in dt for smooth time-dependent U. The cubic
    focusing/defocusing equation i phi_t = phi_xx + c|phi|^2 phi
    corresponds to potential = lambda v, t: -c * abs(v)**2.
    """
    multiplier = np.exp(1j * (field.grid.wavenumbers - theta) ** 2 * dt)
    vals = field.values.copy()
    t = t0
    for _ in range(n_steps):
        if potential is not None:
            vals = vals * np.exp(0.5j * dt * np.asarray(potential(vals, t)))
        vals = field.grid.multiply(vals, multiplier)
        if potential is not None:
            vals = vals * np.exp(0.5j * dt * np.asarray(potential(vals, t + dt)))
        t += dt
        peak = np.maximum.reduce(np.abs(vals))
        if not np.isfinite(peak) or peak > blow_up_threshold:
            raise BlowUpSuspectedError(
                "split-step field exceeded the blow-up threshold",
                {
                    "time": t,
                    "max_abs": float(peak) if np.isfinite(peak) else float("inf"),
                    "suggestion": "refine the spatial resolution and reduce dt",
                },
            )
    return ComplexField(field.grid, vals)


@dataclass(frozen=True)
class PicardResult:
    solution: SpaceTimeField
    changes: tuple
    factors: tuple
    iterations: int


def picard_iterate(phi0: ComplexField, potential, delta: float,
                   n_time: int = 48, max_iter: int = 40,
                   tol: float = 1e-12) -> PicardResult:
    """Fixed point of the Duhamel map on [0, 2*delta*period].

    phi(t) = S(t) phi0 - i int_0^t S(t-s) F(s) ds with F = -U(phi) phi,
    discretized by the trapezoid rule on n_time+1 uniform samples.
    Raises NoConvergenceError (with the contraction-factor trace) if the
    iteration fails to reach tol within max_iter sweeps.
    """
    if not 0.0 < delta < 0.125:
        raise ConfigError([f"delta must lie in (0, 1/8); got {delta}"])
    grid = phi0.grid
    k2 = grid.wavenumbers**2
    t_end = 2.0 * delta * grid_time_period(phi0)
    times = np.linspace(0.0, t_end, n_time + 1)
    dt = times[1] - times[0]
    evolve = np.exp(1j * np.outer(times, k2))
    free = grid.multiply(phi0.values, evolve)
    current = free.copy()
    changes, factors = [], []
    for it in range(max_iter):
        if potential is None:
            new = free
        else:
            U = np.array([np.asarray(potential(current[j], times[j])) for j in range(times.size)])
            F = -U * current
            src = np.exp(-1j * np.outer(times, k2)) * dft(F)
            csum = np.cumsum(src, axis=0) * dt
            integral = csum - dt * 0.5 * (src + src[0:1])
            new = free - 1j * dft(evolve * integral, inverse=True)
        change = float(np.abs(new - current).max())
        changes.append(change)
        if len(changes) > 1 and changes[-2] > 0:
            factors.append(change / changes[-2])
        if not np.isfinite(change) or change > 1e100:
            raise NoConvergenceError(
                "Picard iterate diverged", factors
            )
        current = new
        if change < tol or potential is None:
            return PicardResult(SpaceTimeField(times, grid, current),
                                tuple(changes), tuple(factors), it + 1)
    raise NoConvergenceError(
        f"Picard iteration did not contract below {tol} in {max_iter} sweeps",
        factors,
    )


def grid_time_period(field: ComplexField) -> float:
    """Natural time period of the field's grid: 2*pi on a torus grid, else 1
    (on the period-1 circle the free flow has period 1/(2*pi))."""
    return 2.0 * np.pi if field.grid.kind == "torus" else 1.0
