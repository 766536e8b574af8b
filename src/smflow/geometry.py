"""Kahler target manifolds: metrics, curvature, charts, parallel transport.

Each target is one ``SurfaceModel`` subclass, built by its factory.  Points
of ``RoundSphere`` and its conformal change ``WarpedSphere`` are ambient
3-vectors; ``HyperbolicDisk`` and ``FlatTorus`` share a conformal-chart base
and their points are chart coordinates; ``ProductSurface`` concatenates the
coordinates of its factors and works factor by factor.  A target owns its
metric, J, projections, curvature, transport right-hand side, flow tension,
reference frame, connection and winding; the module functions validate input
and hand over to it.  One owner, ``_Conformal``, adds the closed-form grad
sigma terms of a conformal change e^{2 sigma} to the round sphere
(``WarpedSphere``) and to the flat chart (``HyperbolicDisk``); the chart
Christoffel symbols (``christoffel_at``) are the tests' oracle only.

The complex structure J is p x v / radius on embedded spheres and rotation
by 90 degrees in conformal charts; both satisfy J*J = -1 and are isometric
for the respective metric.  ``flow_velocity`` gives the Schrodinger map
velocity -J tau(u) from a loop's samples through the target's velocity
kernel, a plain call ``kernel(u, out)`` that ``velocity_kernel`` binds once
per target and grid and keeps in ``grid.bound``; the RK4 stages call it
directly.  ``RoundSphere``'s kernel writes the velocity in Landau-Lifshitz
form u_xx x u / radius from the grid's bound second derivative, its paired
gathers and the radius; every other target, ``WarpedSphere`` included,
applies J to its tension from the bound (1, 2) derivatives.  Every
cross product forms its six products with one gather per factor, and every
sum over a 2- or 3-long last axis adds left to right (``_row_sum``); both
give numpy's bits with fewer calls on (n, 3) rows.  Hot-path rule: per-step
paths call ufunc methods (``np.add.reduce``, ...) and ``np.concatenate`` or
buffers, not numpy's Python-level wrappers (``mean``, ``stack``, ``norm``, ...),
in numpy's own arithmetic; ``_row_sum`` owns row sums, ``integrate`` means.

Parallel transport integrates the frame equation for a single tangent
vector e1 with classical RK4 and carries e2 = J e1 along algebraically.
The frame equation is linear in e1, so one RK4 step over a sample cell is
a d x d propagator, the target's ``transport_cells``.  The generator G,
the right-hand side on the identity rows, is each target's closed-form
``transport_generator``: -(du / r^2) (x) u on ``RoundSphere``, 0 in the
flat chart, and ``_Conformal`` adds -(l.du) I - l (x) du + du (x) l to its
base's in the operation order of ``covariant_rhs``, so it equals that
right-hand side broadcast over the identity (the tests' oracle) to the
bit.  In general G is evaluated once at the nodes and once at the
midpoints; every cell's four stages are batched products of those (k2 =
G_m + k1 G_m / 2 and so on), with the tangent projection at the end of the
cell folded in.  On ``RoundSphere`` G has rank one, so every stage is one
outer product, the last one vanishes under the projection, and each cell
is written in closed form; the generic stages stay its oracle in the
tests.  In the flat chart every cell is the identity.  A log-depth (Hillis-Steele)
prefix product composes the cells.  e1 at each node is the seed times its
prefix product, scaled once to unit metric length.  Projection is linear
and a per-step renormalization only multiplies by a positive scalar, so
this is the same discrete map as re-projecting and renormalizing after
every step.  Arbitrary vectors are moved by freezing their coefficients in
that frame, so transport commutes with J and preserves inner products to
roundoff by construction; the integrator accuracy only enters through the
frame itself.  Closed loops are interpolated trigonometrically (the scheme is
then 4th order in the sample spacing), at the midpoints only, since the
nodes are the samples; open sampled paths use local cubic interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    OffManifoldError,
    SingularChartError,
    UnsupportedOperationError,
)
from .spectral import SpectralGrid

_Z_AXIS = np.array([0.0, 0.0, 1.0])

# spacing for centered first differences of the curvature
_CURV_GRAD_STEP = 1e-3
# ambient distance from the manifold at which points are rejected
MANIFOLD_TOL = 1e-10
# component pairs of the cross product: (a x b)_i = p_i - p_{i+3} with
# p_k = a_{A[k]} b_{B[k]}, so one gather per factor forms all six products
_PAIR_A, _PAIR_B = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


def _cross(a, b):
    """a x b over the last axis, bit-equal to np.cross without its
    argument handling (np.cross made an N=128 coupled step 8.8% slower)."""
    p = np.asarray(a)[..., _PAIR_A] * np.asarray(b)[..., _PAIR_B]
    return p[..., :3] - p[..., 3:]


def _row_sum(x):
    """x summed over its last axis (2 or 3 long) left to right: bit-equal to
    np.sum there, which adds fewer than eight terms in order; np.sum made
    an N=128 coupled step 10.5% slower."""
    total = x[..., 0] + x[..., 1]
    return total + x[..., 2] if x.shape[-1] == 3 else total


def _dot(a, b):
    """a . b over the last axis, kept as a trailing axis of length 1.  Two
    single vectors (the seed transport) take ndarray.dot: the generic form
    made the coupled_sphere128 op 2.2% slower in 10 of 10 benchmark pairs."""
    if a.ndim == b.ndim == 1:
        return a.dot(b)
    return _row_sum(a * b)[..., None]


def _off_pole(p):
    """|z x p|^2 at points p of the unit sphere, rejected near the poles."""
    rho2 = p[..., 0] ** 2 + p[..., 1] ** 2
    if np.logical_or.reduce(rho2 < 1e-12, None):
        raise SingularChartError(
            "azimuthal reference frame is singular near the poles"
        )
    return rho2


@dataclass(frozen=True, eq=False)
class SurfaceModel:
    """A target manifold; build with the factory functions below.

    Pointwise methods broadcast over leading axes of (..., point_dim) arrays.
    The defaults are those of a target without curvature gradient or
    singular frame axis. Each target's ``covariant_rhs(u, du, v)`` is the
    change of v that keeps it parallel over the step du from u; it is
    linear in v, and its ``transport_generator(u, du)`` is the (..., d, d)
    matrix of it in closed form, row j the image of axis j.
    """

    kind = ""
    embedded = False  # points are ambient 3-vectors on a sphere
    point_dim = 2
    constant_curvature = None  # K as one number where it is constant

    def factor_slices(self):
        """(factor, coordinate slice) pairs; a single target is its own factor."""
        return [(self, slice(0, self.point_dim))]

    def validate_points(self, p: np.ndarray, tol: float = MANIFOLD_TOL) -> np.ndarray:
        """Raise OffManifoldError unless p holds points of this target;
        returns p as a float array."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != self.point_dim:
            raise OffManifoldError(
                f"expected point dimension {self.point_dim}, got {p.shape[-1]}"
            )
        return p

    def metric(self, p: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        return _row_sum(np.asarray(v) * np.asarray(w))

    def gaussian_curvature(self, p: np.ndarray) -> np.ndarray:
        return np.full(np.shape(p)[:-1], self.constant_curvature)

    def curvature_gradient(self, p: np.ndarray) -> np.ndarray:
        """Differential of K as an ambient (co)vector: dK(v) = grad . v."""
        return np.zeros_like(np.asarray(p, dtype=float))

    def azimuthal_winding(self, points: np.ndarray) -> int:
        return 0

    def flow_velocity(self, grid, u: np.ndarray, out=None) -> np.ndarray:
        """u_t = -J tau(u) from the samples u of a loop on ``grid``, written
        into ``out`` when given (a new array otherwise) by the target's
        ``velocity_kernel`` on grid."""
        u = np.asarray(u)
        return self.velocity_kernel(grid)(u, np.empty(u.shape) if out is None else out)

    def velocity_kernel(self, grid):
        """flow_velocity on grid as one plain call, kernel(u, out) -> out,
        bound once for this target and grid and kept in ``grid.bound``."""
        kernel = grid.bound.get(self)
        if kernel is None:
            kernel = grid.bound[self] = self._bind_velocity(grid)
        return kernel

    def _bind_velocity(self, grid):
        """The generic kernel, -J tau(u) from the bound (1, 2) derivatives.
        The tension takes row-major samples: its einsum rounds differently
        on other layouts."""
        derivatives = grid.derivative_operator((1, 2))

        def kernel(u, out):
            u = np.ascontiguousarray(u)
            ux, uxx = derivatives(u)
            return np.negative(self.apply_J(u, self.tension(u, ux, uxx)), out=out)
        return kernel

    def transport_cells(self, nodes, mids, dnodes, dmids) -> np.ndarray:
        """The (M, d, d) RK4 propagators of the frame equation over the M
        cells of a sampled path, each followed by the tangent projection at
        the cell's end (see ``_transport_frame`` for the arguments). Row j
        is the step image of axis j; a stage on rows V is V @ G, G the
        target's ``transport_generator``, evaluated once at the nodes and
        once at the midpoints."""
        eye = np.eye(nodes.shape[-1])
        g_nodes = self.transport_generator(nodes, dnodes)
        g_mid = self.transport_generator(mids, dmids)
        k1 = g_nodes[:-1]
        k2 = g_mid + 0.5 * (k1 @ g_mid)
        k3 = g_mid + 0.5 * (k2 @ g_mid)
        k4 = g_nodes[1:] + k3 @ g_nodes[1:]
        return self.tangent_project(nodes[1:, None],
                                    eye + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)


class _Conformal:
    """Conformal change e^{2 sigma} of the target class after it in the MRO;
    the target gives sigma (``log_scale``) and its tangent gradient l
    (``log_scale_grad``), and each method adds the terms in l to the base's."""

    def metric(self, p: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.exp(2.0 * self.log_scale(p)) * super().metric(p, v, w)

    def covariant_rhs(self, u, du, v):
        grad = self.log_scale_grad(u)
        return (super().covariant_rhs(u, du, v) - _dot(grad, du) * v
                - _dot(grad, v) * du + _dot(du, v) * grad)

    def transport_generator(self, u, du):
        # covariant_rhs on the identity rows in its own operation order: the
        # base's, then -(l.du) I, -l (x) du and +du (x) l, with l read once
        # (that broadcast made a warped N=64 coupled step 5.7% slower)
        grad, eye = self.log_scale_grad(u), np.eye(u.shape[-1])
        out = super().transport_generator(u, du) - _dot(grad, du)[..., None] * eye
        return (out - grad[..., :, None] * du[..., None, :]) + du[..., :, None] * grad[..., None, :]

    def tension(self, u, ux, uxx):
        grad = self.log_scale_grad(u)
        speed2 = np.einsum("ni,ni->n", ux, ux)[:, None]
        return super().tension(u, ux, uxx) + 2.0 * _dot(grad, ux) * ux - speed2 * grad

    def reference_frame(self, points: np.ndarray):
        scale = np.exp(-self.log_scale(points))[..., None]
        f1, f2 = super().reference_frame(points)
        return f1 * scale, f2 * scale

    def reference_connection(self, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        return (super().reference_connection(points, vectors)
                - _row_sum(self.log_scale_grad(points) * self.apply_J(points, vectors)))

    # the first-order terms of tau survive J, and the transport generator is
    # no longer of rank one
    _bind_velocity = SurfaceModel._bind_velocity
    transport_cells = SurfaceModel.transport_cells


@dataclass(frozen=True, eq=False)
class RoundSphere(SurfaceModel):
    """Sphere of the given radius in R^3 with the induced metric."""

    radius: float = 1.0
    kind = "round_sphere"
    embedded = True
    point_dim = 3

    def validate_points(self, p: np.ndarray, tol: float = MANIFOLD_TOL) -> np.ndarray:
        p = super().validate_points(p, tol)
        err = np.abs(np.sqrt(_row_sum(p * p)) - self.radius)
        worst = float(np.maximum.reduce(err, None)) if err.size else 0.0
        if worst > tol * max(1.0, self.radius):
            raise OffManifoldError(
                f"point leaves the radius-{self.radius} sphere by {worst:.3e}"
            )
        return p

    def project_point(self, p: np.ndarray) -> np.ndarray:
        """Nearest manifold representative: radial renormalization."""
        p = np.asarray(p, dtype=float)
        return p * (self.radius / np.sqrt(_row_sum(p * p)[..., None]))

    def apply_J(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _cross(p, v) / self.radius

    def tangent_project(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        n = p / self.radius
        return w - _row_sum(w * n)[..., None] * n

    @property
    def constant_curvature(self) -> float:
        return 1.0 / self.radius**2

    def chart_metric(self, q: np.ndarray) -> np.ndarray:
        """Metric in (colatitude, longitude) chart coordinates."""
        th = q[..., 0]
        g = np.zeros(q.shape[:-1] + (2, 2))
        g[..., 0, 0] = self.radius**2
        g[..., 1, 1] = (self.radius * np.sin(th)) ** 2
        return g

    def christoffel(self, q: np.ndarray) -> np.ndarray:
        th = q[..., 0]
        s, c = np.sin(th), np.cos(th)
        if np.any(np.abs(s) < 1e-6):
            raise SingularChartError(
                "colatitude-longitude chart is singular at the poles"
            )
        gam = np.zeros(q.shape[:-1] + (2, 2, 2))
        gam[..., 0, 1, 1] = -s * c
        gam[..., 1, 0, 1] = c / s
        gam[..., 1, 1, 0] = c / s
        return gam

    def covariant_rhs(self, u, du, v):
        return -(_dot(v, du) / self.radius**2) * u

    def transport_generator(self, u, du):
        return -(du / self.radius**2)[..., :, None] * u[..., None, :]

    def tension(self, u, ux, uxx):
        speed2 = np.einsum("ni,ni->n", ux, ux)[:, None]
        return uxx + speed2 * u / self.radius**2

    def _bind_velocity(self, grid):
        # Landau-Lifshitz form: J drops the normal part |u_x|^2 u / r^2 of
        # tau, so -J tau = u_xx x u / r for any u, on the sphere or not. The
        # pairs of _cross are gathered as rows of the (3, n) transposes, all
        # of u is read before out is written, so out may be u itself.
        second, radius = grid.derivative_operator((2,)), self.radius

        def kernel(u, out):
            p = second(u)[0].T.take(_PAIR_A, axis=0) * u.T.take(_PAIR_B, axis=0)
            np.subtract(p[:3], p[3:], out=out.T)
            if radius != 1.0:  # a division by 1 changes no bit
                out /= radius
            return out
        return kernel

    def transport_cells(self, nodes, mids, dnodes, dmids) -> np.ndarray:
        # The generator -(du / r^2) (x) u has rank one, so with a = du / r^2
        # and b the points the stages are k1 = -a0 (x) b0, k2 = c2 (x) bm and
        # k3 = c3 (x) bm; k4 = c4 (x) b1 vanishes under the projection P at
        # b1, leaving P - a0 (x) P b0 / 6 + (c2 + c3) (x) P bm / 3, one
        # batched 3 x 3 product of columns (n1, a0/6, -(c2+c3)/3) and rows
        # (n1, P b0, P bm). The generic stages made an N=128 coupled step
        # 4.2% slower.
        b0, bm, r2 = nodes[:-1], mids, self.radius**2
        a0, am, n1 = dnodes[:-1] / r2, dmids / r2, nodes[1:] / self.radius
        c2 = 0.5 * np.vecdot(b0, am)[:, None] * a0 - am
        c3 = -am - 0.5 * np.vecdot(bm, am)[:, None] * c2
        cols, rows = np.empty((2,) + bm.shape + (3,))
        cols[..., 0] = rows[:, 0] = n1
        cols[..., 1], cols[..., 2] = a0 / 6.0, (c2 + c3) / -3.0
        rows[:, 1] = b0 - np.vecdot(b0, n1)[:, None] * n1
        rows[:, 2] = bm - np.vecdot(bm, n1)[:, None] * n1
        cells = cols @ rows
        return np.subtract(np.eye(3), cells, out=cells)

    def reference_frame(self, points: np.ndarray):
        p = points / self.radius
        f1 = _cross(_Z_AXIS, p) / np.sqrt(_off_pole(p))[..., None]
        return f1, self.apply_J(points, f1)

    def reference_connection(self, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        # f1 = normalize(z x p), beta(v) = <D_v f1, p x f1> in closed form
        p, v = points / self.radius, vectors / self.radius
        return p[..., 2] * (p[..., 0] * v[..., 1] - p[..., 1] * v[..., 0]) / _off_pole(p)

    def azimuthal_winding(self, points: np.ndarray) -> int:
        # each azimuth step of the closed sequence, wrapped into [-pi, pi],
        # sheds rint(step / 2 pi) turns; the raw steps sum to zero
        phi = np.arctan2(points[:, 1], points[:, 0])
        steps = np.concatenate((phi[1:], phi[:1])) - phi
        return -int(np.add.reduce(np.rint(steps / (2.0 * np.pi))))


@dataclass(frozen=True, eq=False)
class WarpedSphere(_Conformal, RoundSphere):
    """Unit sphere with metric exp(2*warp) times the round one; the warp's
    ambient gradient and Hessian give its curvature in closed form."""

    radius: float = field(default=1.0, init=False)
    warp: Callable[[np.ndarray], np.ndarray]
    warp_grad: Callable[[np.ndarray], np.ndarray]
    warp_hess: Callable[[np.ndarray], np.ndarray]
    kind = "warped_sphere"
    constant_curvature = None

    def log_scale(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.warp(np.asarray(p, dtype=float)), dtype=float)

    def log_scale_grad(self, p):
        """Tangential part of the warp gradient on the unit sphere."""
        return self.tangent_project(p, np.asarray(self.warp_grad(p), dtype=float))

    def gaussian_curvature(self, p: np.ndarray) -> np.ndarray:
        # K = e^{-2 warp} (1 - lap), lap the Laplace-Beltrami of the warp on
        # the unit sphere: tr H - p.H p - 2 p.grad in ambient derivatives
        p = np.asarray(p, dtype=float)
        hess = np.asarray(self.warp_hess(p), dtype=float)
        lap = (np.einsum("...ii->...", hess)
               - np.einsum("...i,...ij,...j->...", p, hess, p)
               - 2.0 * _row_sum(p * np.asarray(self.warp_grad(p), dtype=float)))
        return np.exp(-2.0 * self.log_scale(p)) * (1.0 - lap)

    def curvature_gradient(self, p: np.ndarray) -> np.ndarray:
        # K through the radial projection is constant along rays, so centered
        # differences along the ambient axes give its tangential gradient
        p = np.asarray(p, dtype=float)
        step = _CURV_GRAD_STEP * np.eye(3)
        k = self.gaussian_curvature(
            self.project_point(p[..., None, None, :] + np.stack([step, -step])))
        return (k[..., 0, :] - k[..., 1, :]) / (2.0 * _CURV_GRAD_STEP)

    def chart_metric(self, q: np.ndarray) -> np.ndarray:
        lam = self.warp(sphere_chart_point(q))
        return np.exp(2.0 * np.asarray(lam))[..., None, None] * super().chart_metric(q)

    def christoffel(self, q: np.ndarray) -> np.ndarray:
        # conformal change: add d^k_i l_j + d^k_j l_i - g_ij g^kl l_l
        gam = super().christoffel(q)
        th, ph = q[..., 0], q[..., 1]
        s, c = np.sin(th), np.cos(th)
        grad = np.asarray(self.warp_grad(sphere_chart_point(q)), dtype=float)
        e_th = np.stack([c * np.cos(ph), c * np.sin(ph), -s], axis=-1)
        e_ph = np.stack([-s * np.sin(ph), s * np.cos(ph), np.zeros_like(s)], axis=-1)
        lam_d = np.stack([_row_sum(grad * e_th), _row_sum(grad * e_ph)], axis=-1)
        g = np.stack([np.ones_like(s), s * s], axis=-1)  # diagonal, radius 1
        eye = np.eye(2)
        return gam + (np.einsum("ki,...j->...kij", eye, lam_d)
                      + np.einsum("kj,...i->...kij", eye, lam_d)
                      - np.einsum("ij,...i,...k->...kij", eye, g, lam_d)
                      / g[..., :, None, None])


@dataclass(frozen=True, eq=False)
class _ConformalChart(SurfaceModel):
    """The flat metric in one chart, the base of the conformal charts: J
    turns by 90 degrees, vectors stay parallel, tau = u_xx and the
    reference frame is the coordinate axes."""

    def project_point(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(p, dtype=float).copy()

    def apply_J(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        out = np.empty_like(v)
        out[..., 0], out[..., 1] = -v[..., 1], v[..., 0]
        return out

    def tangent_project(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.asarray(w, dtype=float).copy()

    def covariant_rhs(self, u, du, v):
        return np.zeros(np.broadcast(du, v).shape)

    def transport_generator(self, u, du):
        return np.zeros(du.shape + du.shape[-1:])

    def tension(self, u, ux, uxx):
        return uxx

    def transport_cells(self, nodes, mids, dnodes, dmids) -> np.ndarray:
        return np.eye(nodes.shape[-1])[None].repeat(len(mids), axis=0)

    def reference_frame(self, points: np.ndarray):
        f1, f2 = np.zeros((2,) + points.shape)
        f1[..., 0] = f2[..., 1] = 1.0
        return f1, f2

    def reference_connection(self, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        return np.zeros(points.shape[:-1])


@dataclass(frozen=True, eq=False)
class HyperbolicDisk(_Conformal, _ConformalChart):
    """Poincare disk: metric (2 / (1 - |q|^2))^2 times the Euclidean one."""

    kind = "hyperbolic_disk"
    constant_curvature = -1.0

    def validate_points(self, p: np.ndarray, tol: float = MANIFOLD_TOL) -> np.ndarray:
        p = super().validate_points(p, tol)
        r = np.sqrt(_row_sum(p * p))
        if r.size and float(np.maximum.reduce(r, None)) >= 1.0:
            raise OffManifoldError("chart point outside the unit disk")
        return p

    def log_scale(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.log(2.0 / (1.0 - _row_sum(p * p)))

    def log_scale_grad(self, q):
        """2 q / (1 - |q|^2); points off the disk raise OffManifoldError."""
        q = self.validate_points(q)
        return 2.0 * q / (1.0 - _row_sum(q * q))[..., None]

    def chart_metric(self, q: np.ndarray) -> np.ndarray:
        conf = (2.0 / (1.0 - _row_sum(q * q))) ** 2
        return conf[..., None, None] * np.eye(2)

    def christoffel(self, q: np.ndarray) -> np.ndarray:
        lx, ly = np.moveaxis(self.log_scale_grad(q), -1, 0)
        gam = np.zeros(q.shape[:-1] + (2, 2, 2))
        gam[..., 0, 0, 0] = lx
        gam[..., 0, 0, 1] = ly
        gam[..., 0, 1, 0] = ly
        gam[..., 0, 1, 1] = -lx
        gam[..., 1, 1, 1] = ly
        gam[..., 1, 0, 1] = lx
        gam[..., 1, 1, 0] = lx
        gam[..., 1, 0, 0] = -ly
        return gam


@dataclass(frozen=True, eq=False)
class FlatTorus(_ConformalChart):
    """Flat torus in periodic chart coordinates; every chart point is valid."""

    kind = "flat_torus"
    constant_curvature = 0.0

    def chart_metric(self, q: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.eye(2), q.shape[:-1] + (2, 2)).copy()

    def christoffel(self, q: np.ndarray) -> np.ndarray:
        return np.zeros(q.shape[:-1] + (2, 2, 2))


def _per_factor_only(what: str):
    def unsupported(self, *args):
        raise UnsupportedOperationError(
            f"{what} of a product is per factor; query the factors"
        )
    return unsupported


@dataclass(frozen=True, eq=False)
class ProductSurface(SurfaceModel):
    """Product of targets: points concatenate the factors' coordinates and
    the pointwise operations act blockwise."""

    factors: tuple
    kind = "product"

    @property
    def point_dim(self) -> int:
        return sum(f.point_dim for f in self.factors)

    def factor_slices(self):
        out, idx = [], 0
        for f in self.factors:
            out.append((f, slice(idx, idx + f.point_dim)))
            idx += f.point_dim
        return out

    def _blockwise(self, method: str, *arrays, **kwargs) -> list:
        """The named method of every factor on its slice of the arrays."""
        return [getattr(f, method)(*(a[..., sl] for a in arrays), **kwargs)
                for f, sl in self.factor_slices()]

    def validate_points(self, p: np.ndarray, tol: float = MANIFOLD_TOL) -> np.ndarray:
        p = super().validate_points(p, tol)
        self._blockwise("validate_points", p, tol=tol)
        return p

    def project_point(self, p: np.ndarray) -> np.ndarray:
        return np.concatenate(
            self._blockwise("project_point", np.asarray(p, dtype=float)), axis=-1)

    def metric(self, p: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.sum(self._blockwise("metric", p, v, w), axis=0)

    def apply_J(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.concatenate(self._blockwise("apply_J", p, v), axis=-1)

    def tangent_project(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.concatenate(self._blockwise("tangent_project", p, w), axis=-1)

    gaussian_curvature = _per_factor_only("scalar curvature")
    curvature_gradient = _per_factor_only("the curvature gradient")
    chart_metric = christoffel = covariant_rhs = tension = _per_factor_only(
        "the declared chart")
    reference_frame = _per_factor_only("the reference frame")
    reference_connection = _per_factor_only("the reference connection")


# -- factories ---------------------------------------------------------------


def round_sphere(radius: float = 1.0) -> SurfaceModel:
    if radius <= 0:
        raise ValueError("radius must be positive")
    return RoundSphere(radius=radius)


def warped_sphere(warp: Callable, warp_grad: Callable,
                  warp_hess: Callable) -> SurfaceModel:
    """Unit sphere with metric exp(2*warp) times the round one.

    ``warp`` maps points (..., 3) to scalars; ``warp_grad`` (..., 3) and
    ``warp_hess`` (..., 3, 3) are the gradient and Hessian of the same
    smooth ambient extension, as ``bump_warp`` returns them; the gradient is
    projected tangentially where a tangential differential is required.
    """
    return WarpedSphere(warp=warp, warp_grad=warp_grad, warp_hess=warp_hess)


def bump_warp(amplitude: float, width: float, center=(0.0, 0.0, 1.0)):
    """Gaussian bump conformal factor A exp(-|p - c|^2 / (2 w^2)) around the
    unit vector c: returns (warp, warp_grad, warp_hess), the values and
    their analytic ambient gradient and Hessian, for ``warped_sphere``."""
    c = np.asarray(center, dtype=float)
    c = c / np.linalg.norm(c)
    w2 = float(width) ** 2
    eye = np.eye(3)

    def warp(p):
        d = np.asarray(p, dtype=float) - c
        return amplitude * np.exp(-_row_sum(d * d) / (2.0 * w2))

    def warp_grad(p):
        d = np.asarray(p, dtype=float) - c
        val = amplitude * np.exp(-_row_sum(d * d) / (2.0 * w2))
        return -val[..., None] * d / w2

    def warp_hess(p):
        d = np.asarray(p, dtype=float) - c
        val = amplitude * np.exp(-_row_sum(d * d) / (2.0 * w2)) / w2
        return val[..., None, None] * (d[..., :, None] * (d[..., None, :] / w2) - eye)

    return warp, warp_grad, warp_hess


def hyperbolic_disk() -> SurfaceModel:
    return HyperbolicDisk()


def flat_torus() -> SurfaceModel:
    return FlatTorus()


def product_surface(*factors: SurfaceModel) -> SurfaceModel:
    if len(factors) < 2:
        raise ValueError("a product needs at least two factors")
    if any(isinstance(f, ProductSurface) for f in factors):
        raise UnsupportedOperationError("nested products are not supported")
    return ProductSurface(factors=tuple(factors))


# -- tangent vectors ----------------------------------------------------------


@dataclass
class TangentVector:
    """A tangent vector attached to a base point."""

    point: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        self.components = np.asarray(self.components, dtype=float)


# -- spec-level operations -----------------------------------------------------


def curvature_at(surface: SurfaceModel, p: np.ndarray) -> np.ndarray:
    """Gaussian curvature; validates that p lies on the manifold."""
    return surface.gaussian_curvature(surface.validate_points(p))


def project_tangent(surface: SurfaceModel, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the tangent space (embedded targets)."""
    if isinstance(surface, _ConformalChart):
        raise UnsupportedOperationError(
            "tangent projection only applies to embedded representations"
        )
    return surface.tangent_project(surface.validate_points(p),
                                   np.asarray(w, dtype=float))


def sphere_chart_point(q: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Embedding of (colatitude, longitude) chart coordinates."""
    q = np.asarray(q, dtype=float)
    th, ph = q[..., 0], q[..., 1]
    return radius * np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
    )


def chart_metric(surface: SurfaceModel, q: np.ndarray) -> np.ndarray:
    """Metric components in the declared chart, shape (..., 2, 2)."""
    return surface.chart_metric(np.asarray(q, dtype=float))


def christoffel_at(surface: SurfaceModel, q: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma^k_{ij} in the declared chart, (..., 2, 2, 2).

    Layout: result[..., k, i, j].  Sphere charts are (colatitude, longitude)
    and are rejected near the poles where the chart degenerates.
    """
    return surface.christoffel(np.asarray(q, dtype=float))


# -- parallel transport --------------------------------------------------------


def _unit_tangent(surface: SurfaceModel, p, w):
    """w projected onto the tangent space at p and scaled to unit length."""
    w = surface.tangent_project(p, w)
    return w / np.sqrt(surface.metric(p, w, w))[..., None]


def _frame_angle(surface: SurfaceModel, p, w, e1, e2) -> float:
    """Angle of the tangent vector w at p in the orthonormal frame (e1, e2);
    with w the once-around transport of e1, the holonomy rotation."""
    return float(np.arctan2(surface.metric(p, w, e2), surface.metric(p, w, e1)))


def _transport_frame(surface: SurfaceModel, nodes, mids, dnodes, dmids, e1):
    """RK4 transport of e1 through consecutive samples.

    nodes: (M+1, d) points; mids: (M, d) midpoints; dnodes/dmids: path
    derivative times the step (so each step integrates over sigma in [0,1]).
    Returns e1 at every node, tangent and of unit metric length. The scan
    composes the prefix products of the target's ``transport_cells`` in
    ceil(log2 M) batched products.
    """
    cells = surface.transport_cells(nodes, mids, dnodes, dmids)
    shift = 1
    while shift < cells.shape[0]:
        cells[shift:] = cells[:-shift] @ cells[shift:]
        shift *= 2
    v0 = _unit_tangent(surface, nodes[0], np.asarray(e1, dtype=float))
    return np.concatenate((v0[None], _unit_tangent(surface, nodes[1:], v0 @ cells)))


def _closed_loop_path_data(surface: SurfaceModel, points: np.ndarray, dpath=None):
    """Node/midpoint samples of a closed loop via trigonometric interpolation;
    dpath, d(point)/d(step index), is taken spectrally unless supplied. The
    nodes are the samples themselves, so only the midpoints are
    interpolated."""
    n = points.shape[0]
    grid = SpectralGrid(n, "circle")
    if dpath is None:
        dpath = grid.derivative(points) / n
    mid = grid.midpoints(np.concatenate((points, dpath), axis=1)).reshape(n, 2, -1)
    nodes = np.concatenate((surface.project_point(points), points[:1]))
    dnodes = np.concatenate((dpath, dpath[:1]))
    return nodes, surface.project_point(mid[:, 0]), dnodes, mid[:, 1]


def _open_path_data(surface: SurfaceModel, points: np.ndarray):
    """Cubic-interpolated node/midpoint samples of an open sampled path."""
    m = points.shape[0] - 1
    if m < 1:
        raise ValueError("a path needs at least two samples")
    if m < 3:
        # too short for cubic stencils: linear fallback
        mids = surface.project_point(0.5 * (points[:-1] + points[1:]))
        dnodes = np.gradient(points, axis=0)
        dmids = points[1:] - points[:-1]
        return points.copy(), mids, dnodes, dmids

    idx = np.arange(m)
    base = np.clip(idx - 1, 0, m - 3)
    offs = idx - base  # position of the step start inside the stencil
    stack = np.stack([points[base + j] for j in range(4)], axis=1)  # (m,4,d)

    def lagrange_weights(xi):
        xs = np.arange(4.0)
        w = np.ones((xi.shape[0], 4))
        dw = np.zeros((xi.shape[0], 4))
        for j in range(4):
            others = [k for k in range(4) if k != j]
            denom = np.prod([xs[j] - xs[k] for k in others])
            w[:, j] = np.prod([xi - xs[k] for k in others], axis=0) / denom
            s = np.zeros_like(xi)
            for drop in others:
                s += np.prod([xi - xs[k] for k in others if k != drop], axis=0)
            dw[:, j] = s / denom
        return w, dw

    w_mid, dw_mid = lagrange_weights(offs + 0.5)
    _, dw_node = lagrange_weights(offs.astype(float))
    mids = surface.project_point(np.einsum("sj,sjd->sd", w_mid, stack))
    dmids = np.einsum("sj,sjd->sd", dw_mid, stack)
    dnode_start = np.einsum("sj,sjd->sd", dw_node, stack)
    w_end, dw_end = lagrange_weights(offs + 1.0)
    dnode_end = np.einsum("sj,sjd->sd", dw_end, stack)
    dnodes = np.vstack([dnode_start, dnode_end[-1:]])
    return points.copy(), mids, dnodes, dmids


def _path_frame(surface: SurfaceModel, points, closed, seed=None, dpath=None):
    """Transported J-adapted frame (e1, e2 = J e1) along a sampled path."""
    points = surface.validate_points(points, tol=1e-8)
    if closed:
        nodes, mids, dn, dm = _closed_loop_path_data(surface, points, dpath)
    else:
        nodes, mids, dn, dm = _open_path_data(surface, points)
    if seed is None:
        seed = surface.tangent_project(nodes[0], dn[0])
        if np.linalg.norm(seed) <= 1e-6 * np.linalg.norm(dn, axis=-1).max():
            # rounding, not the data, sets so small a start direction
            for axis in np.eye(points.shape[-1]):
                seed = surface.tangent_project(nodes[0], axis)
                if np.linalg.norm(seed) > 1e-6:
                    break
    e1 = _transport_frame(surface, nodes, mids, dn, dm, seed)
    e2 = surface.apply_J(nodes, e1)
    return nodes, e1, e2


def parallel_transport(
    surface: SurfaceModel,
    path: np.ndarray,
    v0: TangentVector,
    closed: bool = False,
) -> TangentVector:
    """Parallel-transport v0 along a sampled path to its final point.

    ``path`` is an (M+1, d) array of manifold points; ``closed`` marks the
    samples as one full period of a smooth loop (the final point is the
    first one again and interpolation is trigonometric).  Each factor of a
    product moves its part of v0 along its part of the path.
    """
    path = np.asarray(path, dtype=float)
    ends, comps = [], []
    for f, sl in surface.factor_slices():
        nodes, e1, e2 = _path_frame(f, path[:, sl], closed)
        c1 = f.metric(nodes[0], v0.components[sl], e1[0])
        c2 = f.metric(nodes[0], v0.components[sl], e2[0])
        ends.append(nodes[-1])
        comps.append(c1 * e1[-1] + c2 * e2[-1])
    return TangentVector(np.concatenate(ends), np.concatenate(comps))


def loop_frame(surface: SurfaceModel, points: np.ndarray):
    """Frame (e1, e2) at every sample of a closed loop plus the wrap value.

    Returns (e1, e2, e1_wrap, e2_wrap): arrays over the N loop samples and
    the once-around transported frame at the start point, from which the
    loop holonomy can be read off.
    """
    nodes, e1, e2 = _path_frame(surface, points, closed=True)
    return e1[:-1], e2[:-1], e1[-1], e2[-1]


# -- reference frames and connection forms --------------------------------------


def reference_frame(surface: SurfaceModel, points: np.ndarray):
    """A smooth metric-orthonormal J-adapted frame along the given points.

    Spheres use the azimuthal frame (rejected near the poles); conformal
    charts use the normalized coordinate axes.  The frame is single-valued
    along any loop, which makes it a valid gauge for connection integrals.
    """
    return surface.reference_frame(np.asarray(points, dtype=float))


def reference_connection(
    surface: SurfaceModel, points: np.ndarray, vectors: np.ndarray
) -> np.ndarray:
    """Connection coefficient beta(v) = h(grad_v f1, f2) of the reference frame.

    ``vectors`` are tangent vectors at the corresponding points (loop
    derivatives or flow velocities).  The parallel-frame rotation relative
    to the reference frame integrates -beta.
    """
    return surface.reference_connection(np.asarray(points, dtype=float),
                                        np.asarray(vectors, dtype=float))


def azimuthal_winding(surface: SurfaceModel, points: np.ndarray) -> int:
    """Winding number of a loop around the singular axis of the frame.

    Counts full turns of the azimuth along the sample sequence; zero for
    chart targets whose reference frame is globally smooth.
    """
    return surface.azimuthal_winding(np.asarray(points, dtype=float))
