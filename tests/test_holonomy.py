"""Holonomy route tests: calibration anchors and cross-route agreement.

Anchors: a latitude circle at colatitude alpha has transport rotation
2*pi*(1-cos(alpha)) (spherical-cap area); an equatorial great circle gives
exactly 2*pi. The Gauss-Bonnet route is checked against the zone-area
closed form on synthetic sweeps; the rate route against a centered finite
difference of the connection-route angle along the actual flow.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from smflow import flow_direct as fd
from smflow import geometry as geo
from smflow import holonomy as hol
from smflow.errors import ConfigError, InconsistentHolonomyError
from smflow.spectral import SpectralGrid, interpolant


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


@pytest.mark.parametrize("n", [32, 64, 128])
def test_swept_angle_increment_does_not_depend_on_the_cell_length(n, bump_sphere):
    """The cell length L cancels: u_t is the point difference over L and the
    integral is multiplied by L again, so any positive L gives the increment
    to rounding, and a zero-length cell gives 0."""
    grid = SpectralGrid(n)
    a, b = (fd.initial_loop(bump_sphere, grid, "perturbed_latitude", alpha=alpha,
                            eps=0.1, m=3).points for alpha in (1.0, 1.01))
    dt = 1e-4
    incs = [hol.swept_angle_increment(bump_sphere, grid, a, b, length)
            for length in (dt, 3 * dt, 0.5 * dt, 1.0, 1e-12, 7.3)]
    assert incs[0] != 0.0
    assert max(abs(inc - incs[0]) for inc in incs) <= 2e-15 * abs(incs[0])
    assert hol.swept_angle_increment(bump_sphere, grid, a, b, 0.0) == 0.0


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


def test_rate_matches_fourth_order_difference_of_ode_angle():
    """With K in closed form the rate agrees with a fourth-order centered
    difference of the connection-route angle (which never reads K) to
    about 1e-11, far below the second-order difference's own O(dt^2) error
    of about 1e-6; a second-difference stencil for K stops at about 3e-9."""
    warped = geo.warped_sphere(*geo.bump_warp(0.12, 0.55, center=(0.55, 0.45, 0.7)))
    grid = SpectralGrid(96)
    state = fd.initial_loop(warped, grid, "fourier",
                            colat_coeffs=[(2, 0.06, -0.04), (3, 0.0, 0.05)])
    dt = 1e-5
    theta = {s: hol.holonomy_ode(warped, grid, fd.step(state, s * dt).points)
             for s in (-2, -1, 1, 2)}
    fd4 = (8.0 * (theta[1] - theta[-1]) - (theta[2] - theta[-2])) / (12.0 * dt)
    rate = hol.holonomy_rate(warped, grid, state.points)
    assert abs(rate) > 0.01
    assert abs(rate - fd4) < 1e-9 * abs(rate)


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


def test_scalar_samples_give_the_exponential_of_the_integral():
    """Scalar (n,) samples i beta are the 1 x 1 case: the product integral is
    exp(-i oint beta)."""
    grid = SpectralGrid(128)
    x = grid.nodes
    beta = 2 * np.pi + np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
    P = hol.product_integral(1j * beta, grid.period)
    assert P.shape == (1, 1)
    assert abs(P[0, 0] - np.exp(-1j * grid.integrate(beta))) <= 1e-14


def _cli_target_loops(n):
    """A loop on every target the command line runs, the warped sphere with
    the CLI's default bump, and a (round sphere, disk) product loop."""
    grid = SpectralGrid(n)
    warped = geo.warped_sphere(*geo.bump_warp(0.12, 0.55, center=(0.55, 0.45, 0.7)))
    out = []
    for s in (geo.round_sphere(), geo.round_sphere(2.5), warped):
        for kw in ({"alpha": 1.0, "eps": 0.1, "m": 3}, {"alpha": 2.5, "eps": 0.05, "m": 2}):
            out.append((s, fd.initial_loop(s, grid, "perturbed_latitude", **kw).points))
    for s in (geo.hyperbolic_disk(), geo.flat_torus()):
        out.append((s, fd.initial_loop(s, grid, "fourier", offset=(0.1, -0.05)).points))
    disk_loop = fd.initial_loop(geo.hyperbolic_disk(), grid, "fourier",
                                coeffs=((1, 0.3, 0.2), (3, 0.05, -0.1))).points
    out.append((geo.product_surface(geo.round_sphere(), geo.hyperbolic_disk()),
                np.concatenate((out[0][1], disk_loop), axis=1)))
    return grid, out


@pytest.mark.parametrize("n", [32, 64, 256])
def test_diagonal_holonomy_matches_the_magnus_route(n):
    """The closed form diag(exp(-i oint beta_j)) is the product integral of
    the connection samples to 1e-14 on every command-line target and on a
    two-factor product, unitary and diagonal; its entry is exp(i theta) of
    holonomy_ode on a single target."""
    grid, loops = _cli_target_loops(n)
    for s, pts in loops:
        H = hol.diagonal_holonomy(fd.LoopState(grid, s, pts))
        k = len(s.factor_slices())
        assert H.shape == (k, k) and np.count_nonzero(H - np.diag(np.diag(H))) == 0
        P = hol.product_integral(hol.connection_matrix_samples(s, grid, pts), grid.period)
        assert np.abs(H - P).max() <= 1e-14, s.kind
        assert np.abs(np.abs(np.diag(H)) - 1.0).max() <= 1e-15
        if k == 1:
            assert abs(H[0, 0] - np.exp(1j * hol.holonomy_ode(s, grid, pts))) < 1e-12


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


# -- batched Magnus against the cell-by-cell oracle --------------------------------


def dense_gauss_values(samples, n_cells):
    """Trigonometric interpolant of equispaced samples at the Gauss nodes
    (j + c) / n_cells of every cell j, from a dense (points x modes) basis;
    shape (n_cells, 2, k, k). The Nyquist mode of even n is a cosine. Phases
    m (j + c) are reduced modulo n_cells in integers first: unreduced, their
    rounding reaches 1e-13 of the samples at n = 256, n_cells = 5120."""
    n = samples.shape[0]
    coeff = np.fft.fft(samples, axis=0) / n
    modes = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    cell = np.repeat(np.arange(n_cells), 2)
    offs = np.tile(hol._GAUSS_OFFSETS, n_cells)
    turns = (np.outer(cell, modes) % n_cells + np.outer(offs, modes)) / n_cells
    basis = np.exp(2j * np.pi * turns)
    if n % 2 == 0:
        basis[:, n // 2] = np.cos(2 * np.pi * turns[:, n // 2])
    values = basis @ coeff.reshape(n, -1)
    return values.reshape((n_cells, 2) + samples.shape[1:])


def stepwise_cells(samples, period, n_cells):
    """Cell exponentials of the 2-node Gauss Magnus scheme, one scipy expm
    per cell, from the dense interpolant."""
    h = period / n_cells
    comm_factor = np.sqrt(3.0) * h * h / 12.0
    return [expm(-(h / 2.0) * (B1 + B2) + comm_factor * (B2 @ B1 - B1 @ B2))
            for B1, B2 in dense_gauss_values(samples, n_cells)]


def ordered(cells, k):
    """E_last ... E_first, one cell at a time."""
    Y = np.eye(k, dtype=complex)
    for E in cells:
        Y = E @ Y
    return Y


def oracle_product_integral(samples, period=1.0, refine=1):
    n_cells, k = samples.shape[0] * refine, samples.shape[1]
    coarse = ordered(stepwise_cells(samples, period, n_cells), k)
    fine = ordered(stepwise_cells(samples, period, 2 * n_cells), k)
    u, _, vh = np.linalg.svd((16.0 * fine - coarse) / 15.0)
    return u @ vh


def magnus_samples(kind, n):
    """Connection samples with k = 1 (round, warped), 2 (su(2) family,
    product target) and 3 (random anti-Hermitian)."""
    grid = SpectralGrid(n)
    if kind in ("round", "warped"):
        s = geo.round_sphere() if kind == "round" else geo.warped_sphere(
            *geo.bump_warp(0.3, 0.6, center=(0.55, 0.45, 0.7)))
        loop = fd.initial_loop(s, grid, "perturbed_latitude", alpha=1.0, eps=0.1, m=2)
        return hol.connection_matrix_samples(s, grid, loop.points)
    if kind == "su2":
        return noncommuting_family(n)
    if kind == "product":
        s2 = geo.round_sphere()
        pts = np.hstack([latitude_loop(n, 0.8), latitude_loop(n, 1.2)])
        return hol.connection_matrix_samples(geo.product_surface(s2, s2), grid, pts)
    a = np.random.default_rng(n).normal(size=(n, 3, 3, 2)) @ np.array([1.0, 1j])
    return a - a.conj().transpose(0, 2, 1)


MAGNUS_KINDS = ("round", "warped", "su2", "product", "random3")


@pytest.mark.parametrize("refine", (1, 2, 10))
@pytest.mark.parametrize("n", (16, 64, 256))
@pytest.mark.parametrize("kind", MAGNUS_KINDS)
def test_product_integral_matches_stepwise_oracle(kind, n, refine):
    samples = magnus_samples(kind, n)
    assert samples.shape[1] == {"su2": 2, "product": 2, "random3": 3}.get(kind, 1)
    P = hol.product_integral(samples, refine=refine)
    assert np.abs(P - oracle_product_integral(samples, refine=refine)).max() < 1e-13


@pytest.mark.parametrize("n", (16, 64, 256))
@pytest.mark.parametrize("kind", MAGNUS_KINDS)
def test_magnus_runs_match_stepwise_oracle(kind, n):
    samples = magnus_samples(kind, n)
    k = samples.shape[1]
    for n_cells in (n, 2 * n, 3 * n):
        cells = stepwise_cells(samples, 1.0, n_cells)
        for n_blocks in (1, 8, n, n_cells):  # runs of odd length at 3 * n
            runs = hol._ordered_runs(hol._magnus_cells(samples, 1.0, n_cells), n_blocks)
            size = n_cells // n_blocks
            oracle = [ordered(cells[i : i + size], k) for i in range(0, n_cells, size)]
            assert runs.shape == (n_blocks, k, k)
            assert np.abs(runs - np.array(oracle)).max() < 1e-13
    # the node prefixes x_independence_check composes, at every node
    cells = stepwise_cells(samples, 1.0, 2 * n)
    Y, worst = np.eye(k), 0.0
    for j, run in enumerate(hol._ordered_runs(hol._magnus_cells(samples, 1.0, 2 * n), n), start=1):
        Y = run @ Y
        worst = max(worst, np.abs(Y - ordered(cells[: 2 * j], k)).max())
    assert worst < 1e-13


@pytest.mark.parametrize("n", (16, 64, 256))
def test_fft_gauss_nodes_match_dense_interpolant(n):
    # a large Nyquist coefficient on top of the su(2) family
    samples = noncommuting_family(n) + 5j * (-1.0) ** np.arange(n)[:, None, None] * pauli()[2]
    for n_cells in (n, 2 * n, 20 * n):
        dense = dense_gauss_values(samples, n_cells).swapaxes(0, 1)
        fft = interpolant(samples, n_cells, hol._GAUSS_OFFSETS)
        assert np.abs(fft - dense).max() < 1e-13 * np.abs(samples).max()


@pytest.mark.parametrize("n", (15, 16))
def test_fft_gauss_nodes_reproduce_band_limited_samples(n):
    # highest mode of odd n (a plain mode) and the Nyquist cosine of even n
    freq = n / 2 if n % 2 == 0 else (n - 1) / 2
    x = np.arange(n) / n
    samples = (1j * (0.3 + np.cos(2 * np.pi * freq * x)))[:, None, None]
    xq = (np.arange(2 * n)[None, :] + np.array(hol._GAUSS_OFFSETS)[:, None]) / (2 * n)
    exact = 1j * (0.3 + np.cos(2 * np.pi * freq * xq))
    got = interpolant(samples, 2 * n, hol._GAUSS_OFFSETS)[..., 0, 0]
    assert np.abs(got - exact).max() < 1e-13


def test_cell_stacks_per_call_do_not_grow_with_n(monkeypatch):
    import scipy.linalg

    def no_expm(*args, **kwargs):
        raise AssertionError("holonomy must not call scipy.linalg.expm")

    stacks = []
    batched = hol._cell_exponentials
    monkeypatch.setattr(hol, "_cell_exponentials",
                        lambda omega: stacks.append(omega.shape) or batched(omega))
    monkeypatch.setattr(scipy.linalg, "expm", no_expm)
    assert "expm" not in vars(hol)
    for n in (16, 64, 256):
        stacks.clear()
        hol.product_integral(noncommuting_family(n))
        assert stacks == [(n, 2, 2), (2 * n, 2, 2)]
        stacks.clear()
        hol.x_independence_check(noncommuting_family(n), n_bases=8)
        # every shifted base rides one stack per cell count
        assert stacks == [(n, 8, 2, 2), (2 * n, 8, 2, 2)]


def per_base_x_independence(samples, period=1.0, n_bases=8):
    """The reference for `x_independence_check`: one product_integral per
    shifted base, compared with the base-0 matrix conjugated by Y at the
    base node."""
    n = samples.shape[0]
    ref = hol.product_integral(samples, period)
    ref_eigs = np.linalg.eigvals(ref)
    runs = hol._ordered_runs(hol._magnus_cells(samples, period, 2 * n), n_bases)
    Yj = np.eye(samples.shape[1])
    spectral = aligned = 0.0
    for b in range(1, n_bases):
        shifted = hol.product_integral(np.roll(samples, -b * (n // n_bases), axis=0), period)
        cost = np.abs(np.linalg.eigvals(shifted)[:, None] - ref_eigs[None, :])
        rows, cols = linear_sum_assignment(cost)
        spectral = max(spectral, float(cost[rows, cols].max()))
        Yj = runs[b - 1] @ Yj
        predicted = Yj @ ref @ np.linalg.inv(Yj)
        aligned = max(aligned, float(np.abs(shifted - predicted).max()))
    return spectral, aligned


@pytest.mark.parametrize("n_bases", (1, 2, 8))
@pytest.mark.parametrize("kind,n", [("su2", 16), ("su2", 64), ("su2", 256),
                                    ("product", 64), ("random3", 32)])
def test_stacked_x_independence_matches_per_base_loop(kind, n, n_bases):
    samples = magnus_samples(kind, n)
    expected = per_base_x_independence(samples, 0.7, n_bases)
    assert hol.x_independence_check(samples, 0.7, n_bases) == expected
    H, spectral, aligned = hol._x_independence(samples, 0.7, n_bases)
    assert np.array_equal(H, hol.product_integral(samples, 0.7))
    assert (spectral, aligned) == expected


def test_x_independence_validates_before_any_work(monkeypatch):
    monkeypatch.setattr(hol, "_magnus_cells", None)
    with pytest.raises(ConfigError, match="divisible"):
        hol.x_independence_check(noncommuting_family(30), n_bases=8)
    with pytest.raises(ConfigError, match="anti-Hermitian"):
        hol.x_independence_check(np.ones((16, 2, 2)), n_bases=8)
    # NaN passes a "defect > tolerance" test; an imaginary inf on the
    # diagonal gives a NaN defect
    for bad in (np.nan, complex(0.0, np.inf), np.inf):
        samples = np.zeros((16, 2, 2), dtype=complex)
        samples[5, 1, 1] = bad
        with pytest.raises(ConfigError, match="finite"):
            hol.x_independence_check(samples, n_bases=8)


def assignment_cases():
    """200 seeded square cost matrices, k = 1 to 7: uniform floats, small
    integers with ties, and constant matrices (1x1 among them)."""
    rng = np.random.default_rng(8)
    cases = [("constant", np.full((k, k), 0.25 * k)) for k in range(1, 8)]
    cases.append(("integer", np.zeros((1, 1))))
    for _ in range(96):
        k = int(rng.integers(1, 8))
        cases.append(("float", rng.random((k, k))))
        cases.append(("integer", rng.integers(0, 3, (k, k)).astype(float)))
    return cases


def test_min_sum_assignment_matches_scipy():
    """The matcher against scipy's linear_sum_assignment and, for the
    optimum and its uniqueness, against every permutation."""
    cases = assignment_cases()
    assert len(cases) == 200
    for kind, cost in cases:
        k = cost.shape[0]
        rows = np.arange(k)
        cols = hol._min_sum_assignment(cost)
        assert sorted(cols) == list(rows)
        ref = linear_sum_assignment(cost)[1]
        perms = np.array(list(itertools.permutations(range(k))))
        totals = cost[rows, perms].sum(axis=1)
        total = cost[rows, cols].sum()
        if kind == "float":
            assert total == pytest.approx(cost[rows, ref].sum(), rel=1e-14)
            assert total == pytest.approx(totals.min(), rel=1e-14)
            optimal = np.flatnonzero(totals < totals.min() + 1e-9)
        else:
            assert total == cost[rows, ref].sum() == totals.min()
            optimal = np.flatnonzero(totals == totals.min())
        if optimal.size == 1:
            assert cols == list(perms[optimal[0]])
        # ties resolve as in scipy, so the largest matched cost (the spectral
        # figure) is the same where the optimum is not unique
        assert cols == list(ref)
        if kind == "constant":
            assert cols == list(rows)


def test_connection_samples_must_be_square_matrices():
    with pytest.raises(ConfigError, match="shape"):
        hol.product_integral(np.zeros((8, 2, 3)), 1.0)
