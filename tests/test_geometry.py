"""Target-manifold tests: metrics, curvature, charts, parallel transport.

Expected values come from closed forms (round-sphere curvature, classical
rotation angle 2*pi*(1-cos(alpha)) of a latitude circle) or from oracles
built independently of the implementation: a 4th-order chart-Laplacian and
40-digit great-circle second derivatives (mpmath) for the warped curvature,
centered differences of the chart metric for the Christoffel symbols, a
fine-step transport integrator driven by the analytic path formula, and the
per-step RK4 loop behind the batched frame transport.
"""

import numpy as np
import pytest

from smflow import geometry as geo
from smflow.errors import (
    OffManifoldError,
    SingularChartError,
    UnsupportedOperationError,
)
from smflow.flow_direct import LoopState, admissible_dt, initial_loop
from smflow.frame_reduction import coupled_evolve, parallel_frame
from smflow.holonomy import holonomy_ode
from smflow.spectral import SpectralGrid


def latitude_loop(n, alpha, radius=1.0):
    x = np.arange(n) / n
    return radius * np.stack(
        [
            np.sin(alpha) * np.cos(2 * np.pi * x),
            np.sin(alpha) * np.sin(2 * np.pi * x),
            np.full(n, np.cos(alpha)),
        ],
        axis=-1,
    )


def latitude_tangent(n, alpha, radius=1.0):
    x = np.arange(n) / n
    return (
        2
        * np.pi
        * radius
        * np.stack(
            [
                -np.sin(alpha) * np.sin(2 * np.pi * x),
                np.sin(alpha) * np.cos(2 * np.pi * x),
                np.zeros(n),
            ],
            axis=-1,
        )
    )


@pytest.fixture(scope="module")
def bump_sphere():
    warp, grad, hess = geo.bump_warp(0.3, 0.6, center=(0.6, 0.0, 0.8))
    return geo.warped_sphere(warp, grad, hess)


# -- curvature ----------------------------------------------------------------


def test_row_sum_is_bit_equal_to_np_sum():
    """The left-to-right sum behind metric, tangent_project and _dot gives
    np.sum's bits over 2- and 3-long last axes, whatever the layout, on
    values spread over 16 decades, where another order would round
    differently."""
    rng = np.random.default_rng(3)
    for shape in ((3,), (2,), (128, 3), (129, 2), (64, 1, 3), (16, 3, 3)):
        for _ in range(200):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            for y in (x, np.asfortranarray(x)):
                assert np.array_equal(geo._row_sum(y), np.sum(y, axis=-1))
    for r in (1.0, 2.5):
        sphere = geo.round_sphere(r)
        for shape in ((3,), (128, 3), (64, 1, 3)):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            for y in (x, np.asfortranarray(x)):
                former = y * (r / np.sqrt((y * y).sum(axis=-1, keepdims=True)))
                assert np.array_equal(sphere.project_point(y), former)


def test_cross_is_bit_equal_to_np_cross():
    """The paired-gather cross product gives np.cross's bits for single
    vectors, (n, 3) rows in either layout, a 129-row seed stack and
    broadcast operands, on values over 16 decades."""
    rng = np.random.default_rng(5)

    def draw(shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)

    for _ in range(50):
        a, b = draw((128, 3)), draw((128, 3))
        stack = np.asfortranarray(np.vstack([a, draw((1, 3))]))
        pairs = [(draw(3), draw(3)), (a, b), (np.asfortranarray(a), np.asfortranarray(b)),
                 (stack, np.asfortranarray(draw((129, 3)))), (stack[:128], b),
                 (draw(3), a), (geo._Z_AXIS, a), (draw((16, 1, 3)), draw((5, 3)))]
        for x, y in pairs:
            assert np.array_equal(geo._cross(x, y), np.cross(x, y))


def test_round_sphere_curvature_scaling():
    for r in (1.0, 2.0, 0.5):
        s = geo.round_sphere(r)
        p = s.project_point(np.array([0.3, -1.2, 0.4]))
        assert geo.curvature_at(s, p) == pytest.approx(1.0 / r**2, rel=1e-14)


def test_hyperbolic_and_torus_curvature():
    q = np.array([[0.2, 0.1], [0.0, 0.0], [-0.4, 0.3]])
    assert np.allclose(geo.curvature_at(geo.hyperbolic_disk(), q), -1.0)
    assert np.allclose(geo.curvature_at(geo.flat_torus(), q), 0.0)


def test_curvature_rejects_off_manifold_points():
    s = geo.round_sphere()
    with pytest.raises(OffManifoldError):
        geo.curvature_at(s, np.array([1.0 + 1e-6, 0.0, 0.0]))
    with pytest.raises(OffManifoldError):
        geo.curvature_at(geo.hyperbolic_disk(), np.array([1.2, 0.0]))


def _chart_laplacian_oracle(warp, th, ph):
    """Laplace-Beltrami of warp on the unit sphere: 4th order in colatitude,
    spectral in longitude, using the colatitude-longitude chart formula."""
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    P = np.stack(
        [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1
    )
    lam = np.asarray(warp(P))
    dth = th[1] - th[0]

    def d_dth(f):
        out = np.empty_like(f)
        out[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * dth)
        out[:2] = np.nan
        out[-2:] = np.nan
        return out

    nph = ph.size
    m = np.fft.fftfreq(nph, d=1.0 / nph)
    d2ph = np.fft.ifft(-(m**2) * np.fft.fft(lam, axis=1), axis=1).real
    term1 = d_dth(np.sin(TH) * d_dth(lam)) / np.sin(TH)
    return lam, term1 + d2ph / np.sin(TH) ** 2, P


def test_warped_curvature_matches_chart_laplacian_oracle(bump_sphere):
    th = np.linspace(0.3, np.pi - 0.3, 1201)
    ph = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    lam, lap, P = _chart_laplacian_oracle(bump_sphere.warp, th, ph)
    K_oracle = np.exp(-2 * lam) * (1.0 - lap)
    K_impl = bump_sphere.gaussian_curvature(P)
    sl = slice(4, -4)
    rel = np.abs(K_impl[sl] - K_oracle[sl]) / np.abs(K_oracle[sl])
    assert np.nanmax(rel) < 1e-6


# the bump warps of the command line default, of the holonomy and reduction
# checks (and the acceptance tests), and of the fixture above
_BUMPS = [(0.1, 0.5, (0.0, 0.0, 1.0)), (0.12, 0.55, (0.55, 0.45, 0.7)),
          (0.3, 0.6, (0.6, 0.0, 0.8))]


@pytest.mark.parametrize("amplitude,width,center", _BUMPS)
def test_warped_curvature_matches_mpmath(amplitude, width, center):
    """K against 40-digit arithmetic: the Laplace-Beltrami of the warp on
    the unit sphere as the sum of its second derivatives along two
    orthogonal great circles through the point, from mpmath.diff."""
    mp = pytest.importorskip("mpmath")

    def warp(q):
        c = [mp.mpf(x) for x in center]
        c = [x / mp.sqrt(sum(y * y for y in c)) for x in c]
        return amplitude * mp.exp(-sum((a - b) ** 2 for a, b in zip(q, c))
                                  / (2 * mp.mpf(width) ** 2))

    def oracle(p):
        p = [mp.mpf(x) for x in p]
        axis = [1, 0, 0] if abs(p[0]) < 0.5 else [0, 1, 0]
        t1 = [axis[1] * p[2] - axis[2] * p[1], axis[2] * p[0] - axis[0] * p[2],
              axis[0] * p[1] - axis[1] * p[0]]
        t1 = [x / mp.sqrt(sum(y * y for y in t1)) for x in t1]
        t2 = [p[1] * t1[2] - p[2] * t1[1], p[2] * t1[0] - p[0] * t1[2],
              p[0] * t1[1] - p[1] * t1[0]]
        lap = sum(mp.diff(lambda s: warp([mp.cos(s) * a + mp.sin(s) * b
                                          for a, b in zip(p, t)]), 0, 2)
                  for t in (t1, t2))
        return mp.exp(-2 * warp(p)) * (1 - lap)

    rng = np.random.default_rng(11)
    pts = rng.normal(size=(10, 3))
    cu = np.asarray(center) / np.linalg.norm(center)
    # the bump's centre and points on its flank, where K varies most
    pts = np.vstack([pts, cu, cu + 0.4 * width * pts[:3]])
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    surface = geo.warped_sphere(*geo.bump_warp(amplitude, width, center=center))
    K = surface.gaussian_curvature(pts)
    with mp.workdps(40):
        ref = np.array([float(oracle(p)) for p in pts])
    assert np.abs(K - ref).max() < 1e-14 * np.abs(ref).min()


def test_warped_curvature_does_not_amplify_rounding():
    """A relative move of the points by one rounding unit moves K by about
    as much, not by the 1e7-fold of a second-difference stencil."""
    surface = geo.warped_sphere(*geo.bump_warp(*_BUMPS[0]))
    grid = SpectralGrid(64)
    pts = initial_loop(surface, grid, "perturbed_latitude", alpha=0.6,
                       eps=0.05, m=3).points
    moved = pts * (1.0 + 2.2e-16)
    assert np.abs(surface.gaussian_curvature(moved)
                  - surface.gaussian_curvature(pts)).max() < 1e-14


def test_curvature_gradient_consistent_with_chain_rule(bump_sphere):
    n = 256
    loop = latitude_loop(n, 1.1)
    ux = latitude_tangent(n, 1.1)
    grid = SpectralGrid(n)
    dk_spectral = grid.derivative(bump_sphere.gaussian_curvature(loop))
    dk_grad = np.sum(bump_sphere.curvature_gradient(loop) * ux, axis=-1)
    scale = np.abs(dk_spectral).max()
    assert scale > 0.1  # the case must be genuinely varying
    assert np.abs(dk_spectral - dk_grad).max() < 1e-4 * scale


# -- metric compatibility -------------------------------------------------------


def test_J_is_isometric_and_squares_to_minus_one(bump_sphere):
    rng = np.random.default_rng(7)
    surfaces = [
        geo.round_sphere(1.7),
        bump_sphere,
        geo.hyperbolic_disk(),
        geo.flat_torus(),
        geo.product_surface(geo.round_sphere(), geo.round_sphere(2.0)),
    ]
    for s in surfaces:
        if s.kind == "hyperbolic_disk":
            p = 0.8 * (rng.random((1000, 2)) - 0.5)
        elif s.kind == "flat_torus":
            p = rng.random((1000, 2))
        else:
            p = s.project_point(rng.normal(size=(1000, s.point_dim)))
        v = s.tangent_project(p, rng.normal(size=p.shape))
        w = s.tangent_project(p, rng.normal(size=p.shape))
        jv, jw = s.apply_J(p, v), s.apply_J(p, w)
        assert np.abs(s.metric(p, jv, jw) - s.metric(p, v, w)).max() < 1e-10
        assert np.abs(s.apply_J(p, jv) + v).max() < 1e-12


def test_mixed_product_acts_factor_by_factor():
    a, b = geo.round_sphere(2.0), geo.hyperbolic_disk()
    prod = geo.product_surface(a, b)
    rng = np.random.default_rng(5)
    pa = a.project_point(rng.normal(size=(10, 3)))
    pb = rng.uniform(-0.5, 0.5, size=(10, 2))
    p = np.hstack([pa, pb])
    v, w = rng.normal(size=(2, 10, 5))
    prod.validate_points(p)
    assert np.array_equal(prod.project_point(p),
                          np.hstack([a.project_point(pa), b.project_point(pb)]))
    for op in ("apply_J", "tangent_project"):
        expected = np.hstack([getattr(a, op)(pa, v[:, :3]), getattr(b, op)(pb, v[:, 3:])])
        assert np.array_equal(getattr(prod, op)(p, v), expected)
    assert np.array_equal(prod.metric(p, v, w),
                          a.metric(pa, v[:, :3], w[:, :3]) + b.metric(pb, v[:, 3:], w[:, 3:]))
    p[0, 3] = 1.5  # outside the disk factor
    with pytest.raises(OffManifoldError):
        prod.validate_points(p)


def test_tangent_projection_is_idempotent_orthogonal():
    s = geo.round_sphere()
    rng = np.random.default_rng(3)
    p = s.project_point(rng.normal(size=(100, 3)))
    w = rng.normal(size=(100, 3))
    t = geo.project_tangent(s, p, w)
    assert np.abs(np.sum(t * p, axis=-1)).max() < 1e-12
    assert np.abs(geo.project_tangent(s, p, t) - t).max() < 1e-14
    with pytest.raises(UnsupportedOperationError):
        geo.project_tangent(geo.flat_torus(), np.zeros(2), np.ones(2))


# -- christoffel symbols --------------------------------------------------------


def _christoffel_fd_oracle(surface, q, eps=1e-5):
    """Gamma^k_ij = 0.5 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) with centered
    differences of the chart metric."""
    q = np.asarray(q, dtype=float)
    dg = np.zeros((2, 2, 2))
    for l in range(2):
        dq = np.zeros(2)
        dq[l] = eps
        dg[l] = (geo.chart_metric(surface, q + dq) - geo.chart_metric(surface, q - dq)) / (
            2 * eps
        )
    g_inv = np.linalg.inv(geo.chart_metric(surface, q))
    gam = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                gam[k, i, j] = 0.5 * np.sum(
                    g_inv[k] * (dg[i][j] + dg[j][i] - dg[:, i, j])
                )
    return gam


def test_round_sphere_christoffel_closed_form():
    s = geo.round_sphere(2.0)
    th = 1.1
    gam = geo.christoffel_at(s, np.array([th, 0.7]))
    assert gam[0, 1, 1] == pytest.approx(-np.sin(th) * np.cos(th), abs=1e-14)
    assert gam[1, 0, 1] == pytest.approx(np.cos(th) / np.sin(th), abs=1e-14)
    assert gam[1, 1, 0] == gam[1, 0, 1]
    assert np.abs(gam).sum() == pytest.approx(
        abs(gam[0, 1, 1]) + 2 * abs(gam[1, 0, 1]), abs=1e-14
    )


def test_christoffel_matches_fd_of_metric_oracle(bump_sphere):
    cases = [
        (geo.round_sphere(1.3), np.array([0.9, 2.0])),
        (bump_sphere, np.array([1.2, 0.4])),
        (geo.hyperbolic_disk(), np.array([0.3, -0.2])),
        (geo.flat_torus(), np.array([0.6, 0.1])),
    ]
    for surface, q in cases:
        gam = geo.christoffel_at(surface, q)
        oracle = _christoffel_fd_oracle(surface, q)
        assert np.abs(gam - oracle).max() < 1e-8


def test_christoffel_rejects_polar_chart_points():
    with pytest.raises(SingularChartError):
        geo.christoffel_at(geo.round_sphere(), np.array([1e-9, 0.0]))
    with pytest.raises(SingularChartError):
        geo.christoffel_at(geo.round_sphere(), np.array([np.pi, 0.0]))


def test_disk_conformal_terms_reject_points_off_the_disk():
    """An RK4 stage or transport midpoint that leaves the disk raises: the
    closed-form conformal terms validate their points."""
    s = geo.hyperbolic_disk()
    q = np.array([[0.2, 0.1], [0.6, 0.9]])
    du = np.array([[0.3, -0.1], [0.2, 0.4]])
    with pytest.raises(OffManifoldError):
        s.covariant_rhs(q, du, du[::-1])
    with pytest.raises(OffManifoldError):
        s.tension(q, du, du[::-1])


def test_no_run_path_builds_christoffel_symbols(monkeypatch):
    """The chart targets' coupled run, loop frame and connection integral
    take the closed-form conformal terms; the Christoffel symbols are the
    tests' oracle only."""

    def refuse(*args):
        raise AssertionError("a run path built Christoffel symbols")

    monkeypatch.setattr(geo, "christoffel_at", refuse)
    for cls in (geo.HyperbolicDisk, geo.FlatTorus):
        monkeypatch.setattr(cls, "christoffel", refuse)
    grid = SpectralGrid(32)
    for s in (geo.hyperbolic_disk(), geo.flat_torus()):
        loop = initial_loop(s, grid, "fourier", coeffs=[(1, 0.15, 0.1)],
                            offset=[0.05, -0.1])
        res = coupled_evolve(loop, admissible_dt(loop), 3)
        assert np.isfinite(res.theta).all()
        assert np.isfinite(res.final_state.points).all()
        assert np.isfinite(geo.loop_frame(s, loop.points)[2]).all()
        assert np.isfinite(holonomy_ode(s, grid, loop.points))


# -- parallel transport ---------------------------------------------------------


def _fine_ode_transport_oracle(alpha, samples):
    """Transport around a latitude circle by brute-force small-step RK4 on
    the analytic path; independent of the package integrator."""
    v = np.array([np.cos(alpha), 0.0, -np.sin(alpha)])  # southward unit tangent
    h = 1.0 / samples

    def u(x):
        return np.array(
            [
                np.sin(alpha) * np.cos(2 * np.pi * x),
                np.sin(alpha) * np.sin(2 * np.pi * x),
                np.cos(alpha),
            ]
        )

    def du(x):
        return (
            2
            * np.pi
            * np.array(
                [
                    -np.sin(alpha) * np.sin(2 * np.pi * x),
                    np.sin(alpha) * np.cos(2 * np.pi * x),
                    0.0,
                ]
            )
        )

    def f(x, v):
        return -np.dot(v, du(x)) * u(x)

    x = 0.0
    for _ in range(samples):
        k1 = f(x, v)
        k2 = f(x + h / 2, v + h / 2 * k1)
        k3 = f(x + h / 2, v + h / 2 * k2)
        k4 = f(x + h, v + h * k3)
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
    return v


def test_equator_transport_is_identity_within_tolerance():
    s = geo.round_sphere()
    loop = latitude_loop(512, np.pi / 2)
    v0 = geo.TangentVector(loop[0], np.array([0.0, 1.0, 0.0]))
    v1 = geo.parallel_transport(s, loop, v0, closed=True)
    assert np.linalg.norm(v1.components - v0.components) < 1e-6


def test_latitude_transport_rotation_matches_classical_angle():
    s = geo.round_sphere()
    alpha = np.pi / 3
    loop = latitude_loop(512, alpha)
    e1, e2, e1w, _ = geo.loop_frame(s, loop)
    ang = np.arctan2(np.dot(e1w, e2[0]), np.dot(e1w, e1[0]))
    expected = 2 * np.pi * (1 - np.cos(alpha))  # = pi, self-conjugate branch
    assert min(abs(ang - expected), abs(ang + expected)) < 1e-6


def test_latitude_transport_against_fine_ode_oracle():
    s = geo.round_sphere()
    alpha = np.pi / 3
    loop = latitude_loop(512, alpha)
    v0c = np.array([np.cos(alpha), 0.0, -np.sin(alpha)])
    v1 = geo.parallel_transport(s, loop, geo.TangentVector(loop[0], v0c), closed=True)
    oracle = _fine_ode_transport_oracle(alpha, 8192)
    assert np.linalg.norm(v1.components - oracle) < 1e-6


def test_transport_preserves_metric_and_commutes_with_J(bump_sphere):
    for s in (geo.round_sphere(1.5), bump_sphere):
        loop = latitude_loop(128, 1.0, radius=s.radius)
        rng = np.random.default_rng(11)
        w = s.tangent_project(loop[0], rng.normal(size=3))
        v0 = geo.TangentVector(loop[0], w)
        jv0 = geo.TangentVector(loop[0], s.apply_J(loop[0], w))
        v1 = geo.parallel_transport(s, loop, v0, closed=True)
        jv1 = geo.parallel_transport(s, loop, jv0, closed=True)
        h0 = s.metric(loop[0], w, w)
        h1 = s.metric(loop[0], v1.components, v1.components)
        assert abs(h1 - h0) < 1e-10 * max(1.0, h0)
        assert np.abs(jv1.components - s.apply_J(loop[0], v1.components)).max() < 1e-10


def test_transport_richardson_factor(bump_sphere):
    alpha = 1.1

    def angle(n):
        loop = latitude_loop(n, alpha)
        e1, e2, e1w, _ = geo.loop_frame(bump_sphere, loop)
        return np.arctan2(
            bump_sphere.metric(loop[0], e1w, e2[0]),
            bump_sphere.metric(loop[0], e1w, e1[0]),
        )

    ref = angle(4096)
    errs = [abs(angle(n) - ref) for n in (32, 64, 128)]
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_open_path_transport_matches_closed_route():
    s = geo.round_sphere()
    n = 256
    loop = latitude_loop(n, 0.9)
    path = np.vstack([loop, loop[:1]])  # explicit open representation
    w = s.tangent_project(loop[0], np.array([0.3, -0.2, 0.8]))
    closed = geo.parallel_transport(s, loop, geo.TangentVector(loop[0], w), closed=True)
    opened = geo.parallel_transport(s, path, geo.TangentVector(loop[0], w))
    assert np.linalg.norm(closed.components - opened.components) < 1e-5


def test_product_transport_is_blockwise():
    s2 = geo.round_sphere()
    prod = geo.product_surface(s2, s2)
    n = 128
    loop_a = latitude_loop(n, 0.8)
    loop_b = latitude_loop(n, 1.2)
    loop = np.hstack([loop_a, loop_b])
    w = np.hstack(
        [
            s2.tangent_project(loop_a[0], np.array([0.1, 0.4, -0.3])),
            s2.tangent_project(loop_b[0], np.array([-0.2, 0.5, 0.1])),
        ]
    )
    res = geo.parallel_transport(prod, loop, geo.TangentVector(loop[0], w), closed=True)
    res_a = geo.parallel_transport(
        s2, loop_a, geo.TangentVector(loop_a[0], w[:3]), closed=True
    )
    res_b = geo.parallel_transport(
        s2, loop_b, geo.TangentVector(loop_b[0], w[3:]), closed=True
    )
    assert np.allclose(res.components, np.hstack([res_a.components, res_b.components]))


def _stepwise_transport(surface, nodes, mids, dnodes, dmids, e1):
    """The sequential reference for the batched transport: one RK4 step per
    cell, re-projected and renormalized after every step."""
    out = np.empty_like(nodes)
    v = geo._unit_tangent(surface, nodes[0], np.asarray(e1, dtype=float))
    out[0] = v
    for i in range(nodes.shape[0] - 1):
        u0, um, u1 = nodes[i], mids[i], nodes[i + 1]
        d0, dm, d1 = dnodes[i], dmids[i], dnodes[i + 1]
        k1 = surface.covariant_rhs(u0, d0, v)
        k2 = surface.covariant_rhs(um, dm, v + 0.5 * k1)
        k3 = surface.covariant_rhs(um, dm, v + 0.5 * k2)
        k4 = surface.covariant_rhs(u1, d1, v + k3)
        v = v + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        v = geo._unit_tangent(surface, u1, v)
        out[i + 1] = v
    return out


def _transport_target(name, bump_sphere):
    return {
        "round": geo.round_sphere(1.5),
        "warped": bump_sphere,
        "hyperbolic": geo.hyperbolic_disk(),
        "torus": geo.flat_torus(),
    }[name]


def _stepwise_frame(surface, points):
    """Oracle frame along a closed loop from the default seed."""
    nodes, mids, dn, dm = geo._closed_loop_path_data(surface, points)
    seed = surface.tangent_project(nodes[0], dn[0])
    return nodes, _stepwise_transport(surface, nodes, mids, dn, dm, seed)


def _wobbly_loop(surface, n, alpha=1.0):
    """A generic closed loop: a wobbling latitude on spheres, an off-centre
    curve in the chart otherwise."""
    t = 2 * np.pi * np.arange(n) / n
    if surface.embedded:
        colat = alpha + 0.2 * np.sin(3 * t) * min(1.0, alpha)
        return surface.radius * np.stack(
            [np.sin(colat) * np.cos(t), np.sin(colat) * np.sin(t), np.cos(colat)],
            axis=-1,
        )
    return np.stack(
        [0.1 + 0.5 * np.cos(t) + 0.1 * np.cos(2 * t), -0.1 + 0.3 * np.sin(t)], axis=-1
    )


PARITY_TOL = 1e-13


@pytest.mark.parametrize("target", ["round", "warped", "hyperbolic", "torus"])
@pytest.mark.parametrize("n", [16, 128, 4096])
def test_batched_loop_transport_matches_stepwise_oracle(target, n, bump_sphere):
    s = _transport_target(target, bump_sphere)
    loops = [_wobbly_loop(s, n)]
    if s.embedded:
        loops.append(_wobbly_loop(s, n, alpha=0.05))  # circles near the pole
    for loop in loops:
        e1, _, e1w, e2w = geo.loop_frame(s, loop)
        nodes, ref = _stepwise_frame(s, loop)
        assert np.abs(e1 - ref[:-1]).max() < PARITY_TOL
        assert np.abs(e1w - ref[-1]).max() < PARITY_TOL
        assert np.abs(e2w - s.apply_J(nodes[-1], ref[-1])).max() < PARITY_TOL


@pytest.mark.parametrize("target", ["round", "warped", "hyperbolic", "torus"])
@pytest.mark.parametrize("m", [1, 2, 3, 40])
def test_batched_open_transport_matches_stepwise_oracle(target, m, bump_sphere):
    s = _transport_target(target, bump_sphere)
    path = _wobbly_loop(s, 64)[: m + 1]
    seed = s.tangent_project(path[0], path[1] - path[0])
    _, e1, _ = geo._path_frame(s, path, closed=False, seed=seed)
    ref = _stepwise_transport(s, *geo._open_path_data(s, path), seed)
    assert np.abs(e1 - ref).max() < PARITY_TOL


@pytest.mark.parametrize("target", ["round", "warped", "hyperbolic", "torus"])
def test_parallel_frame_with_base_index_matches_stepwise_oracle(target, bump_sphere):
    s, base = _transport_target(target, bump_sphere), 5
    pts = _wobbly_loop(s, 64)
    frame = parallel_frame(s, LoopState(grid=SpectralGrid(64), surface=s, points=pts),
                           base_index=base)
    _, ref = _stepwise_frame(s, np.roll(pts, -base, axis=0))
    assert np.abs(frame.e1 - np.roll(ref[:-1], base, axis=0)).max() < PARITY_TOL
    assert np.abs(frame.e1_wrap - ref[-1]).max() < PARITY_TOL


@pytest.mark.parametrize("target", ["unit_round", "round", "warped", "hyperbolic", "torus"])
@pytest.mark.parametrize("n", [16, 128, 4096])
def test_transport_cells_match_the_generic_route(target, n, bump_sphere):
    """The round sphere's closed-form rank-one cells equal the generic stage
    products of SurfaceModel.transport_cells to 1e-14, on radius 1 and 1.5
    and near the pole, and the torus's identity cells equal them exactly;
    every other target takes the generic route itself."""
    s = (geo.round_sphere() if target == "unit_round"
         else _transport_target(target, bump_sphere))
    loops = [_wobbly_loop(s, n)]
    if s.embedded:
        loops.append(_wobbly_loop(s, n, alpha=0.05))  # circles near the pole
    for loop in loops:
        data = geo._closed_loop_path_data(s, loop)
        ref = geo.SurfaceModel.transport_cells(s, *data)
        got = s.transport_cells(*data)
        if target.endswith("round"):
            assert np.abs(got - ref).max() < 1e-14
        else:
            assert np.array_equal(got, ref)


def _broadcast_cells(s, nodes, mids, dnodes, dmids):
    """The oracle of the closed-form generators: covariant_rhs broadcast over
    the identity rows at the nodes and the midpoints, then the RK4 stages of
    SurfaceModel.transport_cells; returns (cells, node generators)."""
    eye = np.eye(nodes.shape[-1])
    g_nodes = s.covariant_rhs(nodes[:, None], dnodes[:, None], eye)
    g_mid = s.covariant_rhs(mids[:, None], dmids[:, None], eye)
    k1 = g_nodes[:-1]
    k2 = g_mid + 0.5 * (k1 @ g_mid)
    k3 = g_mid + 0.5 * (k2 @ g_mid)
    k4 = g_nodes[1:] + k3 @ g_nodes[1:]
    return s.tangent_project(nodes[1:, None],
                             eye + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0), g_nodes


@pytest.mark.parametrize("target", ["warped", "hyperbolic"])
@pytest.mark.parametrize("kind", ["circle", "line"])
@pytest.mark.parametrize("n", [32, 128])
def test_conformal_cells_equal_the_broadcast_oracle(target, kind, n, bump_sphere):
    """The conformal targets' closed-form transport generator, and the cells
    built from it, equal the broadcast of covariant_rhs over the identity
    rows to the bit, on loops of circle and line grids with the path data
    parallel_frame takes (u_x / n on the circle) and on open paths."""
    s = _transport_target(target, bump_sphere)
    grid = SpectralGrid(n, kind, 6.0 if kind == "line" else 0.0)
    loop = LoopState(grid, s, _wobbly_loop(s, n))
    dpath = loop.ux / n if kind == "circle" else None
    for data in (geo._closed_loop_path_data(s, loop.points, dpath),
                 geo._open_path_data(s, loop.points)):
        ref, g_nodes = _broadcast_cells(s, *data)
        assert np.array_equal(s.transport_generator(data[0], data[2]), g_nodes)
        assert np.array_equal(s.transport_cells(*data), ref)


def test_default_seed_ignores_a_start_direction_set_by_rounding():
    """A base-node u_x of at most 1e-6 of the loop's largest, as on a line
    profile that has decayed at the base, or none at all, gives the first
    tangent axis as the seed, not the direction of the leftover."""
    s = geo.hyperbolic_disk()
    x = np.linspace(-1.0, 1.0, 64, endpoint=False)
    bump = np.exp(-(((x - 0.1) / 0.2) ** 2))  # |u_x| at the base ~2e-8 of its peak
    for pts in (np.stack([0.3 * bump, 0.2 * bump], axis=-1), np.full((64, 2), 0.1)):
        e1 = geo.loop_frame(s, pts)[0]
        assert e1[0, 1] == 0.0 and e1[0, 0] > 0.0


def test_loop_frame_work_does_not_grow_with_samples(monkeypatch):
    """The generic transport evaluates the closed-form generator on whole
    cell stacks, once at the nodes and once at the midpoints, so the disk
    takes its conformal gradient twice per frame, not one round of stages
    per node; the round sphere's closed-form cells take no generator."""
    counts = []
    for s, name, calls in ((geo.hyperbolic_disk(), "log_scale_grad", 2),
                           (geo.round_sphere(), "transport_generator", 0)):
        method = getattr(type(s), name)

        def counting(*args, method=method):
            counts[-1] += 1
            return method(*args)

        monkeypatch.setattr(type(s), name, counting)
        for n in (32, 256):
            counts.append(0)
            geo.loop_frame(s, _wobbly_loop(s, n))
            assert counts[-1] == calls


# -- reference frames -----------------------------------------------------------


def test_reference_connection_reproduces_latitude_holonomy(bump_sphere):
    n = 512
    for s, alpha in ((geo.round_sphere(), np.pi / 3), (bump_sphere, 1.0)):
        loop = latitude_loop(n, alpha)
        ux = latitude_tangent(n, alpha)
        beta = geo.reference_connection(s, loop, ux)
        theta = -beta.mean() + 2 * np.pi * geo.azimuthal_winding(s, loop)
        e1, e2, e1w, _ = geo.loop_frame(s, loop)
        ang = np.arctan2(
            s.metric(loop[0], e1w, e2[0]), s.metric(loop[0], e1w, e1[0])
        )
        diff = (theta - ang + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 1e-8


def vector_reference_connection(surface, points, vectors):
    """The oracle of the closed-form connection: with f1 = (z x p) / |z x p|
    on the unit sphere, beta(v) = <D_v f1, p x f1> from the cross products,
    minus grad(warp) . (p x v) on a warped sphere."""
    p, v = points / surface.radius, vectors / surface.radius
    z = np.array([0.0, 0.0, 1.0])
    w = np.cross(z, p)
    norm = np.linalg.norm(w, axis=-1, keepdims=True)
    zv = np.cross(z, v)
    dvf1 = zv / norm - w * np.sum(w * zv, axis=-1, keepdims=True) / norm**3
    beta = np.sum(dvf1 * np.cross(p, w / norm), axis=-1)
    if isinstance(surface, geo.WarpedSphere):
        beta -= np.sum(surface.log_scale_grad(p) * np.cross(p, v), axis=-1)
    return beta


def test_closed_form_connection_matches_vector_formula(bump_sphere):
    grid = SpectralGrid(128)
    for s in (geo.round_sphere(), geo.round_sphere(1.5), bump_sphere):
        for alpha in (0.05, 1.0, 2.5):
            pts = _wobbly_loop(s, 128, alpha)
            ux = grid.derivative(pts)
            ref = vector_reference_connection(s, pts, ux)
            got = geo.reference_connection(s, pts, ux)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        with pytest.raises(SingularChartError, match="singular near the poles"):
            geo.reference_connection(s, latitude_loop(64, 1e-8, s.radius),
                                     latitude_tangent(64, 1e-8, s.radius))


def test_warped_transport_evaluates_warp_gradient_twice(bump_sphere):
    """Once at the nodes and once at the midpoints, not once per stage."""
    calls = []

    def counting(p):
        calls.append(1)
        return bump_sphere.warp_grad(p)

    s = geo.warped_sphere(bump_sphere.warp, counting, bump_sphere.warp_hess)
    for n in (32, 256):
        calls.clear()
        geo.loop_frame(s, _wobbly_loop(s, n))
        assert len(calls) == 2


def test_reference_frame_rejects_polar_loops():
    s = geo.round_sphere()
    pts = latitude_loop(64, 1e-8)
    with pytest.raises(SingularChartError):
        geo.reference_frame(s, pts)


@pytest.mark.parametrize("target", ["sphere-0.5", "sphere-1", "sphere-2", "warped",
                                    "hyperbolic", "torus"])
def test_reference_frame_is_the_frame_of_the_reference_connection(target, bump_sphere):
    """Off the poles the reference frame is metric-orthonormal with f2 = J f1,
    and its connection h(f1_x - covariant_rhs(u, u_x, f1), f2), with f1_x
    taken spectrally, is the closed-form reference_connection to 1e-12 of
    its scale on every target, the spheres of radius other than 1 included."""
    s = {"sphere-0.5": geo.round_sphere(0.5), "sphere-1": geo.round_sphere(1.0),
         "sphere-2": geo.round_sphere(2.0), "warped": bump_sphere,
         "hyperbolic": geo.hyperbolic_disk(), "torus": geo.flat_torus()}[target]
    grid = SpectralGrid(128)
    if s.embedded:
        loop = initial_loop(s, grid, "perturbed_latitude", alpha=1.0, eps=0.1, m=3)
    else:
        loop = initial_loop(s, grid, "fourier", coeffs=((1, 0.3, 0.2), (2, 0.05, -0.1)),
                            offset=(0.1, -0.05))
    u, ux = loop.points, grid.derivative(loop.points)
    f1, f2 = geo.reference_frame(s, u)
    np.testing.assert_allclose(s.metric(u, f1, f1), 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(s.metric(u, f2, f2), 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(s.metric(u, f1, f2), 0.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(f2, s.apply_J(u, f1), rtol=0, atol=1e-15)
    beta = geo.reference_connection(s, u, ux)
    frame_beta = s.metric(u, grid.derivative(f1) - s.covariant_rhs(u, ux, f1), f2)
    # the torus frame has no connection: 1 stands in for its zero scale
    assert np.abs(frame_beta - beta).max() <= 1e-12 * max(np.abs(beta).max(), 1.0)


def test_azimuthal_winding_counts_turns():
    s = geo.round_sphere()
    x = np.arange(128) / 128.0
    double = np.stack(
        [
            np.sin(1.0) * np.cos(4 * np.pi * x),
            np.sin(1.0) * np.sin(4 * np.pi * x),
            np.full(128, np.cos(1.0)),
        ],
        axis=-1,
    )
    assert geo.azimuthal_winding(s, latitude_loop(128, 0.7)) == 1
    assert geo.azimuthal_winding(s, double) == 2
    assert geo.azimuthal_winding(s, latitude_loop(128, 0.7)[:, :]) == 1


def unwrap_winding(points):
    """The reference for `azimuthal_winding`: unwrap the whole azimuth
    sequence, then close it with one wrapped step."""
    phi = np.unwrap(np.arctan2(points[:, 1], points[:, 0]))
    closing = np.arctan2(points[0, 1], points[0, 0])
    last = phi[-1]
    delta = (closing - last + np.pi) % (2.0 * np.pi) - np.pi
    return int(np.rint(((last + delta) - phi[0]) / (2.0 * np.pi)))


@pytest.mark.parametrize("n", (16, 64, 256, 1024, 4096))
def test_azimuthal_winding_matches_unwrap_oracle(n):
    s = geo.round_sphere()
    x = np.arange(n) / n

    def loop(azim, colat=1.0):
        return np.stack([np.sin(colat) * np.cos(azim), np.sin(colat) * np.sin(azim),
                         np.full(n, np.cos(colat))], axis=-1)

    loops = [latitude_loop(n, a) for a in (0.3, 1.0, 2.8)]
    loops += [loop(2 * np.pi * w * x) for w in (-3, -1, 0, 2, 5)]
    loops += [loop(2 * np.pi * x + 0.4 * np.sin(6 * np.pi * x), 1.0 + 0.2 * np.cos(2 * np.pi * x))]
    # steps that come within 1e-9 .. 1e-3 of +pi or -pi
    rng = np.random.default_rng(n)
    near_pi = np.pi - 10.0 ** rng.uniform(-9, -3, n)
    loops += [loop(np.cumsum(rng.choice([-1.0, 1.0], n) * near_pi)), loop(np.cumsum(near_pi)),
              loop(-np.cumsum(near_pi))]
    got = [geo.azimuthal_winding(s, p) for p in loops]
    assert got == [unwrap_winding(p) for p in loops]
    assert got[:9] == [1, 1, 1, -3, -1, 0, 2, 5, 1]
