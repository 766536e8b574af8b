"""Holonomy route tests: calibration anchors and cross-route agreement.

Anchors: a latitude circle at colatitude alpha has transport rotation
2*pi*(1-cos(alpha)) (spherical-cap area); an equatorial great circle gives
exactly 2*pi. The Gauss-Bonnet route is checked against the zone-area
closed form on synthetic sweeps; the rate route against a centered finite
difference of the connection-route angle along the actual flow.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from smflow import flow_direct as fd
from smflow import geometry as geo
from smflow import holonomy as hol
from smflow.errors import ConfigError, InconsistentHolonomyError
from smflow.spectral import SpectralGrid


def latitude_loop(n, alpha):
    x = np.arange(n) / n
    return np.stack(
        [
            np.sin(alpha) * np.cos(2 * np.pi * x),
            np.sin(alpha) * np.sin(2 * np.pi * x),
            np.full(n, np.cos(alpha)),
        ],
        axis=-1,
    )


@pytest.fixture(scope="module")
def bump_sphere():
    return geo.warped_sphere(*geo.bump_warp(0.3, 0.6, center=(0.55, 0.45, 0.7)))


# -- connection route ------------------------------------------------------------


def test_latitude_calibration():
    s = geo.round_sphere()
    grid = SpectralGrid(256)
    for alpha in (np.pi / 6, np.pi / 4, np.pi / 3):
        theta = hol.holonomy_ode(s, grid, latitude_loop(256, alpha))
        assert abs(theta - 2 * np.pi * (1 - np.cos(alpha))) < 1e-9


def test_equator_gives_full_turn():
    s = geo.round_sphere()
    grid = SpectralGrid(128)
    theta = hol.holonomy_ode(s, grid, latitude_loop(128, np.pi / 2))
    assert abs(theta - 2 * np.pi) < 1e-12


def test_constant_loop_has_zero_holonomy():
    s = geo.round_sphere()
    grid = SpectralGrid(32)
    pts = np.tile(s.project_point(np.array([0.3, 0.2, 0.5])), (32, 1))
    assert hol.holonomy_ode(s, grid, pts) == pytest.approx(0.0, abs=1e-12)


def test_ode_route_matches_transport_mod_2pi(bump_sphere):
    grid = SpectralGrid(512)
    for s, alpha in ((geo.round_sphere(), np.pi / 3), (bump_sphere, 1.1)):
        pts = latitude_loop(512, alpha)
        theta = hol.holonomy_ode(s, grid, pts)
        ang = hol.transport_angle(s, pts)
        diff = (theta - ang + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 1e-9


# -- gauss-bonnet route ----------------------------------------------------------


def sweep_history(n, m, alpha0, alpha1):
    ts = np.linspace(0.0, 1.0, m + 1)
    return np.stack([latitude_loop(n, a) for a in alpha0 + (alpha1 - alpha0) * ts]), ts


def test_empty_sweep_returns_reference():
    s = geo.round_sphere()
    grid = SpectralGrid(64)
    hist = latitude_loop(64, 1.0)[None]
    out = hol.holonomy_gauss_bonnet(s, grid, hist, np.array([0.0]), theta0=1.23)
    assert out.shape == (1,) and out[0] == 1.23


def test_zone_area_sweep_matches_ode_endpoint():
    s = geo.round_sphere()
    grid = SpectralGrid(128)
    alpha1 = np.pi / 3
    hist, ts = sweep_history(128, 200, np.pi / 2, alpha1)
    theta0 = hol.holonomy_ode(s, grid, hist[0])
    thetas = hol.holonomy_gauss_bonnet(s, grid, hist, ts, theta0)
    # zone between equator and the final latitude has area 2*pi*cos(alpha)
    assert abs((thetas[-1] - thetas[0]) + 2 * np.pi * np.cos(alpha1)) < 1e-4
    assert abs(thetas[-1] - hol.holonomy_ode(s, grid, hist[-1])) < 1e-4


def test_gauss_bonnet_quadrature_is_second_order():
    # a nonuniform sweep speed; on the round sphere the midpoint cell rule
    # is exact for latitude sweeps, so the order shows on a warped sphere
    # against the reference-connection angle
    grid = SpectralGrid(64)

    def err(s, m):
        ts = np.linspace(0.0, 1.0, m + 1)
        prog = ts**2 * (3 - 2 * ts)
        alphas = np.pi / 2 + (1.0 - np.pi / 2) * prog
        hist = np.stack([latitude_loop(64, a) for a in alphas])
        thetas = hol.holonomy_gauss_bonnet(s, grid, hist, ts, 2 * np.pi)
        exact = hol.holonomy_ode(s, grid, hist[-1]) - hol.holonomy_ode(s, grid, hist[0])
        return abs(thetas[-1] - thetas[0] - exact)

    assert err(geo.round_sphere(), 50) < 1e-12
    warped = geo.warped_sphere(*geo.bump_warp(0.2, 0.5, center=(0.6, 0.0, 0.8)))
    assert err(warped, 50) / err(warped, 100) > 3.5


def test_flat_torus_sweep_is_constant():
    s = geo.flat_torus()
    grid = SpectralGrid(32, kind="torus")
    x = grid.nodes
    hist = np.stack(
        [np.stack([np.cos(x) * (1 + 0.1 * k), np.sin(x)], axis=-1) for k in range(5)]
    )
    thetas = hol.holonomy_gauss_bonnet(s, grid, hist, np.linspace(0, 1, 5), 0.5)
    assert np.all(thetas == 0.5)


def test_degenerate_sweep_warns(bump_sphere):
    grid = SpectralGrid(64)
    loop = latitude_loop(64, 1.0)
    hist = np.stack([loop, loop])  # no motion, curvature varies along loop
    with pytest.warns(RuntimeWarning, match="vanishing signed area"):
        hol.holonomy_gauss_bonnet(bump_sphere, grid, hist, np.array([0.0, 1.0]), 0.0)


def test_history_validation():
    s = geo.round_sphere()
    grid = SpectralGrid(32)
    hist, ts = sweep_history(32, 3, 1.0, 1.2)
    with pytest.raises(ConfigError):
        hol.holonomy_gauss_bonnet(s, grid, hist, ts[:-1], 0.0)
    with pytest.raises(ConfigError):
        hol.holonomy_gauss_bonnet(s, grid, hist, ts[::-1], 0.0)


# -- rate route -------------------------------------------------------------------


def test_rate_vanishes_identically_on_round_sphere():
    s = geo.round_sphere()
    grid = SpectralGrid(64)
    state = fd.initial_loop(s, grid, "perturbed_latitude", alpha=1.0, eps=0.1, m=2)
    assert hol.holonomy_rate(s, grid, state.points) == 0.0


def test_rate_matches_fd_of_ode_angle(bump_sphere):
    grid = SpectralGrid(128)
    state = fd.initial_loop(
        bump_sphere, grid, "fourier", colat_coeffs=[(2, 0.06, -0.04), (3, 0.0, 0.05)]
    )
    dt = 1e-5
    plus = fd.step(state, dt)
    minus = fd.step(state, -dt)
    fd_rate = (
        hol.holonomy_ode(bump_sphere, grid, plus.points)
        - hol.holonomy_ode(bump_sphere, grid, minus.points)
    ) / (2 * dt)
    rate = hol.holonomy_rate(bump_sphere, grid, state.points)
    assert abs(rate) > 0.01
    assert abs(rate - fd_rate) < 1e-3 * abs(fd_rate)


def test_record_lift_guard():
    rec = hol.HolonomyRecord()
    rec.append(0.0, 1.0, 1.0, 0.0)
    rec.append(0.1, 1.5, 1.4, 0.0)
    with pytest.raises(InconsistentHolonomyError):
        rec.append(0.2, 1.5 + 3.2, 1.4, 0.0)
    assert rec.disagreement.max() < 0.2


def test_lift_to_branch():
    assert hol.lift_to_branch(0.1, 6.0) == pytest.approx(0.1 + 2 * np.pi)
    assert hol.lift_to_branch(3.0, 3.1) == 3.0


# -- product integral -------------------------------------------------------------


def pauli():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return s1, s2, s3


def noncommuting_family(n):
    x = np.arange(n) / n
    s1, s2, s3 = pauli()
    return 1j * (
        np.cos(2 * np.pi * x)[:, None, None] * s1
        + np.sin(2 * np.pi * x)[:, None, None] * s2
        + 0.5 * np.cos(4 * np.pi * x)[:, None, None] * s3
    )


def test_constant_generator():
    s1, _, _ = pauli()
    B = 0.7j * s1
    samples = np.tile(B, (64, 1, 1))
    P = hol.product_integral(samples)
    assert np.abs(P - expm(-B)).max() < 1e-12


def test_commuting_diagonal_family():
    n = 128
    x = np.arange(n) / n
    f = 2 * np.pi + np.sin(2 * np.pi * x)
    g = np.cos(4 * np.pi * x)
    samples = np.zeros((n, 2, 2), dtype=complex)
    samples[:, 0, 0] = 1j * f
    samples[:, 1, 1] = 1j * g
    P = hol.product_integral(samples)
    expected = np.diag([np.exp(-2j * np.pi), np.exp(0.0j)])
    assert np.abs(P - expected).max() < 1e-10


def test_fixed_conjugation_of_commuting_family_stays_closed_form():
    n = 128
    x = np.arange(n) / n
    diag = np.zeros((n, 2, 2), dtype=complex)
    diag[:, 0, 0] = 1j * (1.0 + np.cos(2 * np.pi * x))
    diag[:, 1, 1] = 1j * np.sin(2 * np.pi * x)
    U = expm(1j * 0.4 * pauli()[1])
    samples = np.einsum("ij,njk,kl->nil", U, diag, U.conj().T)
    P = hol.product_integral(samples)
    expected = U @ np.diag([np.exp(-1j), 1.0]) @ U.conj().T
    assert np.abs(P - expected).max() < 1e-10


def test_scalar_collapse_matches_connection_route():
    s = geo.round_sphere()
    grid = SpectralGrid(256)
    pts = latitude_loop(256, np.pi / 3)
    samples = hol.connection_matrix_samples(s, grid, pts)
    P = hol.product_integral(samples)
    theta = hol.holonomy_ode(s, grid, pts)
    assert abs(P[0, 0] - np.exp(1j * theta)) < 1e-10
    beta = samples[:, 0, 0].imag
    assert abs(P[0, 0] - np.exp(-1j * grid.integrate(beta))) < 1e-12


def test_unitarity_and_rejection():
    P = hol.product_integral(noncommuting_family(64))
    assert np.abs(P @ P.conj().T - np.eye(2)).max() < 1e-13
    bad = noncommuting_family(64)
    bad[3, 0, 0] += 0.01  # breaks anti-Hermitian symmetry
    with pytest.raises(ConfigError):
        hol.product_integral(bad)


def test_noncommuting_against_refined_oracle():
    samples = noncommuting_family(64)
    P = hol.product_integral(samples)
    oracle = hol.product_integral(samples, refine=10)
    assert np.abs(P - oracle).max() < 1e-8


def test_product_integral_convergence_in_sampling():
    dense = noncommuting_family(1024)
    ref = hol.product_integral(dense)

    def err(n):
        return np.abs(hol.product_integral(dense[:: 1024 // n]) - ref).max()

    assert err(32) / err(64) > 10.0


def test_x_independence():
    spectral, aligned = hol.x_independence_check(noncommuting_family(128))
    assert spectral < 1e-9
    assert aligned < 1e-8
    const = np.tile(0.3j * pauli()[2], (64, 1, 1))
    spectral_c, aligned_c = hol.x_independence_check(const)
    assert spectral_c < 1e-13
    assert aligned_c < 1e-13
    with pytest.raises(ConfigError):
        hol.x_independence_check(noncommuting_family(30), n_bases=8)


def test_product_target_connection_is_blockwise():
    s2 = geo.round_sphere()
    prod = geo.product_surface(s2, s2)
    grid = SpectralGrid(128)
    la, lb = latitude_loop(128, 0.8), latitude_loop(128, 1.2)
    pts = np.hstack([la, lb])
    samples = hol.connection_matrix_samples(prod, grid, pts)
    assert samples.shape == (128, 2, 2)
    assert np.abs(samples[:, 0, 1]).max() == 0.0
    sa = hol.connection_matrix_samples(s2, grid, la)
    assert np.abs(samples[:, 0, 0] - sa[:, 0, 0]).max() < 1e-14
    P = hol.product_integral(samples)
    theta_b = hol.holonomy_ode(s2, grid, lb)
    assert abs(P[1, 1] - np.exp(1j * theta_b)) < 1e-10
