"""Acceptance gate: nine end-to-end behaviors at pinned tolerances.

Every measured value is compared against an independent closed form, an
exact identity, or a tenfold-refined oracle; nothing is compared against
stored output of this package. Each test emits one summary line through
the hook in conftest so the run log shows the gate at a glance.
"""

import numpy as np
import pytest

from smflow import flow_direct as fd
from smflow import frame_reduction as fr
from smflow import holonomy as hol
from smflow.geometry import bump_warp, round_sphere, warped_sphere
from smflow.nls_solver import ComplexField, strichartz_ratio
from smflow.spectral import SpectralGrid


def latitude_exact(grid, alpha, t, radius=1.0):
    omega = 4.0 * np.pi**2 * np.cos(alpha) / radius
    phase = 2.0 * np.pi * grid.nodes + omega * t
    return radius * np.stack(
        [np.sin(alpha) * np.cos(phase),
         np.sin(alpha) * np.sin(phase),
         np.full(grid.n, np.cos(alpha))], axis=-1)


def su2_family(n):
    x = np.arange(n) / n
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return 1j * (np.cos(2 * np.pi * x)[:, None, None] * s1
                 + np.sin(2 * np.pi * x)[:, None, None] * s2
                 + 0.5 * np.cos(4 * np.pi * x)[:, None, None] * s3)


def run_long_conservation():
    """Perturbed latitude on the round sphere, N=256, T=0.5, step at the
    stability limit. Records energy and gradient norm every 256 steps. The
    ``long_conservation_run`` fixture of conftest.py computes it in a worker
    process beside the rest of the suite."""
    sphere = round_sphere(1.0)
    grid = SpectralGrid(256)
    loop = fd.initial_loop(sphere, grid, "perturbed_latitude",
                           alpha=np.pi / 4, eps=0.05, m=2)
    dt = fd.admissible_dt(loop)
    n_steps = int(np.ceil(0.5 / dt))
    energies = [fd.energy(loop)]
    norms = [fd.gradient_norm(loop)]
    seen = 0

    def watch(state):
        nonlocal seen
        seen += 1
        if seen % 256 == 0:
            energies.append(fd.energy(state))
            norms.append(fd.gradient_norm(state))

    final = fd.evolve(loop, dt, n_steps, observer=watch)
    energies.append(fd.energy(final))
    norms.append(fd.gradient_norm(final))
    return np.asarray(energies), np.asarray(norms)


@pytest.fixture(scope="module")
def coupled_refinement():
    """Coupled flow/NLS runs to T=0.05 under simultaneous (dx, dt)
    refinement; dt sits at the stability limit on every level."""
    sphere = round_sphere(1.0)
    runs = {}
    for n in (16, 32, 64):
        grid = SpectralGrid(n)
        loop = fd.initial_loop(sphere, grid, "perturbed_latitude",
                               alpha=np.pi / 4, eps=0.05, m=2)
        dt = fd.admissible_dt(loop)
        runs[n] = fr.coupled_evolve(loop, dt, int(round(0.05 / dt)))
    return runs


def test_1_energy_level_set_containment(long_conservation_run,
                                        acceptance_report):
    energies, norms = long_conservation_run
    e_drift = float(np.abs(energies - energies[0]).max() / energies[0])
    a_drift = float(np.abs(norms - norms[0]).max() / norms[0])
    ok = e_drift <= 1e-6 and a_drift <= 1e-6
    acceptance_report(
        1, "energy level-set containment", ok,
        f"relative energy drift {e_drift:.3e} <= 1e-06 and gradient-norm "
        f"drift {a_drift:.3e} <= 1e-06 (perturbed latitude, N=256, T=0.5)")
    assert e_drift <= 1e-6
    assert a_drift <= 1e-6


def test_2_precessing_latitude_closed_form(acceptance_report):
    alpha = np.pi / 4
    sphere = round_sphere(1.0)

    grid = SpectralGrid(256)
    loop = fd.initial_loop(sphere, grid, "latitude", alpha=alpha)
    n_steps = int(np.ceil(0.01 / fd.admissible_dt(loop)))
    final = fd.evolve(loop, 0.01 / n_steps, n_steps)
    sup = float(np.abs(final.points
                       - latitude_exact(grid, alpha, final.time)).max())

    # Temporal order on a coarse grid: latitude data is band-limited, so
    # space is exact at any resolution while N=16 leaves the step-size cap
    # large enough that truncation error stays far above roundoff.
    g16 = SpectralGrid(16)
    base = fd.initial_loop(sphere, g16, "latitude", alpha=alpha)
    span = 0.2
    errors = []
    for k in range(4):
        dt = fd.admissible_dt(base) / 2**k
        end = fd.evolve(base, dt, int(round(span / dt)))
        errors.append(np.abs(end.points
                             - latitude_exact(g16, alpha, end.time)).max())
    orders = np.log2(np.asarray(errors[:-1]) / np.asarray(errors[1:]))
    ok = sup <= 1e-5 and bool(np.all(orders >= 3.8))
    acceptance_report(
        2, "precessing latitude closed form", ok,
        f"sup error {sup:.3e} <= 1e-05 at N=256, T=0.01; temporal orders "
        f"{np.round(orders, 3).tolist()} all >= 3.8 over halved steps")
    assert sup <= 1e-5
    assert np.all(orders >= 3.8), errors


def test_3_frame_reduction_equivalence(coupled_refinement,
                                       acceptance_report):
    errors = np.asarray([coupled_refinement[n].max_sup_error
                         for n in (16, 32, 64)])
    # dt quarters per level (it tracks the dx^2 cap); report the order in dt
    orders = np.log2(errors[:-1] / errors[1:]) / 2.0
    ok = bool(np.all(orders >= 1.8))
    acceptance_report(
        3, "frame reduction equivalence", ok,
        f"phi cross-formulation sup errors {[f'{e:.2e}' for e in errors]} "
        f"refine with orders {np.round(orders, 3).tolist()} >= 1.8")
    assert np.all(orders >= 1.8), errors


def test_4_holonomy_calibration(acceptance_report):
    sphere = round_sphere(1.0)
    g512, g256 = SpectralGrid(512), SpectralGrid(256)
    ode_err = 0.0
    gb_err = 0.0
    for alpha in (np.pi / 6, np.pi / 4, np.pi / 3):
        pts = fd.initial_loop(sphere, g512, "latitude", alpha=alpha).points
        theta = hol.holonomy_ode(sphere, g512, pts)
        ode_err = max(ode_err, abs(theta - 2 * np.pi * (1 - np.cos(alpha))))
        # sweep the polar cap: contract the loop to the pole through 256
        # intermediate latitudes and accumulate the curvature flux
        caps = [fd.initial_loop(sphere, g256, "latitude", alpha=a).points
                for a in np.linspace(0.0, alpha, 257)]
        swept = sum(hol.swept_angle_increment(sphere, g256, a, b, 1.0)
                    for a, b in zip(caps[:-1], caps[1:]))
        gb_err = max(gb_err, abs(swept - theta))
    ok = ode_err <= 1e-6 and gb_err <= 1e-4
    acceptance_report(
        4, "holonomy calibration", ok,
        f"|theta_ode - 2pi(1-cos a)| {ode_err:.3e} <= 1e-06 at N=512; "
        f"cap-sweep vs theta_ode {gb_err:.3e} <= 1e-04 at 256x256 samples")
    assert ode_err <= 1e-6
    assert gb_err <= 1e-4


def test_5_holonomy_rate_consistency(acceptance_report):
    warped = warped_sphere(*bump_warp(amplitude=0.12, width=0.55,
                                      center=(0.55, 0.45, 0.7)))
    grid = SpectralGrid(96)
    loop = fd.initial_loop(warped, grid, "fourier",
                           colat_coeffs=[(2, 0.06, -0.04), (3, 0.0, 0.05)])
    dt = 1e-5
    states = [loop]
    for _ in range(6):
        states.append(fd.step(states[-1], dt))
    theta = [hol.holonomy_ode(warped, grid, st.points) for st in states]
    for k in range(1, len(theta)):
        theta[k] = hol.lift_to_branch(theta[k], theta[k - 1])
    rates = [hol.holonomy_rate(warped, grid, st.points) for st in states]
    scale = max(abs(r) for r in rates)
    rel = max(abs(rates[k] - (theta[k + 1] - theta[k - 1]) / (2 * dt))
              for k in range(1, 6)) / scale
    # the fourth-order stencil's own O(dt^4) error sits far below the
    # second-order one's O(dt^2), so it sees a rate error down to ~1e-10
    rel4 = max(abs(rates[k] - (theta[k - 2] - 8.0 * theta[k - 1]
                               + 8.0 * theta[k + 1] - theta[k + 2]) / (12 * dt))
               for k in range(2, 5)) / scale

    sphere = round_sphere(1.0)
    g64 = SpectralGrid(64)
    state = fd.initial_loop(sphere, g64, "perturbed_latitude",
                            alpha=np.pi / 4, eps=0.05, m=2)
    round_max = 0.0
    for _ in range(10):
        state = fd.step(state, fd.admissible_dt(state))
        round_max = max(round_max,
                        abs(hol.holonomy_rate(sphere, g64, state.points)))
    ok = rel <= 1e-3 and rel4 <= 1e-9 and round_max <= 1e-12
    acceptance_report(
        5, "holonomy rate consistency", ok,
        f"warped-sphere rate vs centered difference of theta_ode, relative "
        f"error {rel:.3e} <= 1e-03 at dt=1e-05, fourth-order {rel4:.3e} <= "
        f"1e-09; round-sphere max |rate| {round_max:.1e} <= 1e-12")
    assert rel <= 1e-3
    assert rel4 <= 1e-9
    assert round_max <= 1e-12


def test_6_periodic_strichartz_bound(acceptance_report):
    grid = SpectralGrid(64, "torus")
    x = grid.nodes
    single = abs(strichartz_ratio(ComplexField(grid, np.exp(3j * x))) - 1.0)
    two = abs(strichartz_ratio(
        ComplexField(grid, np.exp(1j * x) + np.exp(4j * x))) - 1.5**0.25)

    rng = np.random.default_rng(0)
    low = np.argsort(np.abs(grid.modes))[:32]
    worst = identity = 0.0
    for _ in range(200):
        vhat = np.zeros(grid.n, dtype=complex)
        vhat[low] = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        field = ComplexField(grid, np.fft.ifft(vhat) * grid.n)
        field = ComplexField(grid, field.values / field.l2_norm())
        ratio = strichartz_ratio(field)
        worst = max(worst, ratio)
        # the quadrature's oracle: on T, m1 + m2 = m3 + m4 and
        # m1^2 + m2^2 = m3^2 + m4^2 force {m1, m2} = {m3, m4}, so the ratio
        # is (2 - sum|a|^4 / (sum|a|^2)^2)^(1/4) (Bourgain, GAFA 1993)
        a2 = np.abs(vhat) ** 2
        identity = max(identity, abs(
            ratio - (2.0 - np.sum(a2**2) / np.sum(a2) ** 2) ** 0.25))
    bound = np.sqrt(2.0) + 1e-9
    ok = (worst <= bound and identity <= 1e-12 and single <= 1e-10
          and two <= 1e-6)
    acceptance_report(
        6, "periodic L4 bound for free evolution", ok,
        f"max ratio over 200 random 32-mode data {worst:.6f} <= sqrt(2)+1e-09"
        f", largest defect vs the closed form {identity:.1e} <= 1e-12"
        f"; single-mode defect {single:.1e} <= 1e-10; two-mode defect vs "
        f"(3/2)^(1/4) {two:.1e} <= 1e-06")
    assert worst <= bound
    assert identity <= 1e-12
    assert single <= 1e-10
    assert two <= 1e-6


def test_7_twisted_periodicity_propagation(coupled_refinement,
                                           acceptance_report):
    run = coupled_refinement[64]
    twist = float(run.twist_residual_ode.max())
    closure = float(run.phi_closure.max())
    ok = twist <= 10.0 * run.tolerance and closure <= 1e-10
    acceptance_report(
        7, "twist invariance propagation", ok,
        f"twisted periodicity residual {twist:.3e} <= 10x solver tolerance "
        f"{10.0 * run.tolerance:.3e} over the full run; untwisted phi "
        f"closure {closure:.3e} <= 1e-10")
    assert twist <= 10.0 * run.tolerance
    assert closure <= 1e-10


def test_8_matrix_product_integral(acceptance_report):
    samples = su2_family(128)
    P = hol.product_integral(samples)
    unitarity = float(np.abs(P @ P.conj().T - np.eye(2)).max())
    spectral, _ = hol.x_independence_check(samples, n_bases=8)
    refined = float(np.abs(P - hol.product_integral(samples,
                                                    refine=10)).max())

    sphere, grid = round_sphere(1.0), SpectralGrid(256)
    pts = fd.initial_loop(sphere, grid, "latitude", alpha=np.pi / 3).points
    scalar = hol.product_integral(
        hol.connection_matrix_samples(sphere, grid, pts))
    collapse = abs(scalar[0, 0]
                   - np.exp(1j * hol.holonomy_ode(sphere, grid, pts)))
    ok = (unitarity <= 1e-10 and spectral <= 1e-7
          and collapse <= 1e-10 and refined <= 1e-8)
    acceptance_report(
        8, "ordered product integral", ok,
        f"unitarity {unitarity:.1e} <= 1e-10; base independence {spectral:.1e}"
        f" <= 1e-07 over 8 bases; scalar collapse {collapse:.1e} <= 1e-10; "
        f"vs 10x-refined oracle {refined:.1e} <= 1e-08")
    assert unitarity <= 1e-10
    assert spectral <= 1e-7
    assert collapse <= 1e-10
    assert refined <= 1e-8


def test_9_time_reversibility(acceptance_report):
    sphere, grid = round_sphere(1.0), SpectralGrid(64)
    loop = fd.initial_loop(sphere, grid, "perturbed_latitude",
                           alpha=np.pi / 4, eps=0.05, m=2)
    dt = fd.admissible_dt(loop)
    returned = fd.evolve(fd.evolve(loop, dt, 100), -dt, 100)
    sup = float(np.abs(returned.points - loop.points).max())
    ok = sup <= 1e-9
    acceptance_report(
        9, "time reversibility", ok,
        f"forward-backward sup defect {sup:.3e} <= 1e-09 over 100 steps")
    assert sup <= 1e-9
