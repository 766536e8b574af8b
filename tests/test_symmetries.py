"""Symmetries of the coupled run as oracles that need no closed form and no
second route (metamorphic testing: Chen, Cheung & Yiu, HKUST-CS98-01, 1998).

On the round sphere, one seeded loop near the equator runs five coupled
steps at N = 64, next to three transformed copies of it:

* tilted by a fixed rotation that keeps it clear of the poles: the energy,
  |phi| of the frame and split-step fields, and theta mod 2 pi are kept;
* scaled by r onto the radius-r sphere: the points and the tension scale by
  r, the energy by r^2, and theta is unchanged;
* with its samples shifted cyclically: the points and |Phi| shift with them.
  theta and the split-step phi are not compared here, since the RK4
  transport's discretization error depends on the base node (up to 1.7e-8);
* mirrored by y -> -y (determinant -1) and run backward, with dt < 0: since
  a reflection P turns u x u_xx into -P(u x u_xx), the mirror image of the
  forward run is the backward run of the mirrored loop. The points map by
  P, the energy and |Phi| are kept and theta is negated, all exactly; |phi|
  is kept to rounding;
* with its orientation reversed, sample j taking sample -j: the run is
  reversed with it (points, energy, |Phi|) and theta is negated, up to the
  RK4 transport's error, which depends on the direction of transport.

The conformal targets run a seeded loop the same way next to its image
under an isometry, and the energy, |phi| and theta mod 2 pi are kept:

* on the hyperbolic disk, the rotation q -> e^{i gamma} q;
* on the flat torus, a translation of the chart;
* on the warped sphere, the tilt applied to the loop and to the bump centre.

The torus's theta is exactly 0 on every seed, since flat transport is the
identity, and so are the mirror's points, energy, |Phi| and theta, so
their bounds are 0.

Each bound is ten times the largest spread over seeds 0-15, rounded up to
one significant digit, read from the code as it stood when the test was
added. The tension's floor is higher: its second-derivative matrix at
N = 64 has entries near 1.3e4 that cancel to values near 40. The round
sphere steps by u_xx x u / r, which never calls the tension, so a radius
slip there (`/ radius` for `/ radius**2`) shows only in the tension row.
"""

import numpy as np

from smflow import flow_direct as fd
from smflow import frame_reduction as fr
from smflow.flow_direct import LoopState
from smflow.geometry import (bump_warp, flat_torus, hyperbolic_disk,
                             round_sphere, warped_sphere)
from smflow.spectral import SpectralGrid

SEED, N, STEPS = 0, 64, 5
RADIUS, SHIFT = 2.5, 7
MIRROR = np.array([1.0, -1.0, 1.0])  # y -> -y
DISK_ANGLE, TORUS_SHIFT = 1.1, np.array([0.7, -1.3])
BUMP = (0.3, 0.6, np.array([0.8, 0.0, 0.6]))  # amplitude, width, centre
BOUNDS = {  # the seed-0 reading and the largest over seeds 0-15 beside each
    "tilt energy": 2e-14,        # 7.0e-16, 1.95e-15
    "tilt |phi|": 2e-13,         # 9.5e-15, 1.27e-14
    "tilt theta mod 2pi": 9e-15,  # 8.9e-16, 8.88e-16
    "radius points": 6e-15,      # 3.3e-16, 5.97e-16
    "radius energy": 2e-14,      # 1.4e-15, 1.75e-15
    "radius theta": 9e-15,       # 8.9e-16, 8.88e-16
    "radius tension": 2e-11,     # 4.6e-13, 1.01e-12
    "shift points": 9e-15,       # 6.2e-16, 8.40e-16
    "shift |Phi|": 2e-13,        # 1.0e-14, 1.12e-14
    "mirror points": 0.0,        # 0, 0
    "mirror energy": 0.0,        # 0, 0
    "mirror |Phi|": 0.0,         # 0, 0
    "mirror |phi|": 8e-12,       # 1.9e-13, 7.77e-13
    "mirror theta": 0.0,         # 0, 0
    "reverse points": 6e-15,     # 4.0e-16, 5.24e-16
    "reverse energy": 2e-14,     # 8.7e-16, 1.77e-15
    "reverse |Phi|": 2e-13,      # 1.2e-14, 1.55e-14
    "reverse theta": 4e-7,       # 1.4e-8, 3.04e-8
    "disk energy": 2e-14,        # 4.8e-16, 1.45e-15
    "disk |phi|": 2e-13,         # 5.2e-15, 1.24e-14
    "disk theta mod 2pi": 9e-15,  # 5.7e-16, 8.81e-16
    "torus energy": 3e-14,       # 5.0e-16, 2.27e-15
    "torus |phi|": 5e-13,        # 4.5e-14, 4.76e-14
    "torus theta mod 2pi": 0.0,  # 0, 0: a flat target transports trivially
    "warped energy": 2e-14,      # 7.9e-16, 1.77e-15
    "warped |phi|": 2e-13,       # 8.1e-15, 1.24e-14
    "warped theta mod 2pi": 2e-14,  # 8.9e-16, 1.78e-15
}


def _tilt():
    """Rotation by 0.5 about a horizontal axis (Rodrigues)."""
    axis = np.array([np.cos(0.3), np.sin(0.3), 0.0])
    k = np.cross(np.eye(3), axis)
    return np.eye(3) + np.sin(0.5) * k + (1.0 - np.cos(0.5)) * k @ k


def _run(surface, points, direction=1.0):
    """Final points, energies, thetas and |Phi|, |phi_frame|, |phi_nls| per
    state of a coupled run on the surface, forward at the stability limit
    or, with direction -1, backward; and the initial tension."""
    loop = LoopState(SpectralGrid(N), surface, points)
    fields = []
    res = fr.coupled_evolve(loop, direction * fd.admissible_dt(loop), STEPS,
                            observer=lambda k, state, step: fields.append(
                                [np.abs(a) for a in step[-3:]]))
    Phi, phi_frame, phi_nls = (np.array(f) for f in zip(*fields))
    return dict(points=res.final_state.points, energy=res.energy, theta=res.theta,
                Phi=Phi, phi=np.concatenate((phi_frame, phi_nls)),
                tension=fd.tension(loop))


def _reversed(samples):
    """The samples of the reversed loop: sample j takes sample -j."""
    return np.roll(samples[::-1], 1, axis=0)


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def _kept(name, image, base):
    """The isometry relations: energy, |phi| and theta mod 2 pi are kept."""
    return {
        f"{name} energy": _rel(image["energy"], base["energy"]),
        f"{name} |phi|": _rel(image["phi"], base["phi"]),
        f"{name} theta mod 2pi": float(np.abs(np.angle(
            np.exp(1j * (image["theta"] - base["theta"])))).max()),
    }


def _sphere_loop(rng):
    """A seeded loop near the equator of the unit sphere."""
    colat = [(k, *rng.uniform(-0.06, 0.06, 2)) for k in (2, 3)]
    azimuth = [(k, *rng.uniform(-0.06, 0.06, 2)) for k in (1, 2)]
    return fd.initial_loop(round_sphere(), SpectralGrid(N), "fourier",
                           colat_coeffs=colat, azimuth_coeffs=azimuth).points


def _spreads(seed):
    """Every relation's largest defect, relative to the compared scale."""
    w = _sphere_loop(np.random.default_rng(seed))
    rot = _tilt()
    assert np.abs(w @ rot.T)[:, 2].max() < 0.6  # clear of the poles
    base = _run(round_sphere(), w)
    tilt = _run(round_sphere(), w @ rot.T)
    big = _run(round_sphere(RADIUS), RADIUS * w)
    rolled = _run(round_sphere(), np.roll(w, SHIFT, axis=0))
    mirror = _run(round_sphere(), w * MIRROR, -1.0)
    reverse = _run(round_sphere(), _reversed(w))
    return {
        **_kept("tilt", tilt, base),
        "radius points": _rel(big["points"] / RADIUS, base["points"]),
        "radius energy": _rel(big["energy"] / RADIUS**2, base["energy"]),
        "radius theta": float(np.abs(big["theta"] - base["theta"]).max()),
        "radius tension": _rel(big["tension"] / RADIUS, base["tension"]),
        "shift points": _rel(rolled["points"], np.roll(base["points"], SHIFT, axis=0)),
        "shift |Phi|": _rel(rolled["Phi"], np.roll(base["Phi"], SHIFT, axis=1)),
        "mirror points": _rel(mirror["points"], base["points"] * MIRROR),
        "mirror energy": _rel(mirror["energy"], base["energy"]),
        "mirror |Phi|": _rel(mirror["Phi"], base["Phi"]),
        "mirror |phi|": _rel(mirror["phi"], base["phi"]),
        "mirror theta": float(np.abs(mirror["theta"] + base["theta"]).max()),
        "reverse points": _rel(reverse["points"], _reversed(base["points"])),
        "reverse energy": _rel(reverse["energy"], base["energy"]),
        "reverse |Phi|": _rel(reverse["Phi"], _reversed(base["Phi"].T).T),
        "reverse theta": float(np.abs(reverse["theta"] + base["theta"]).max()),
    }


def _conformal_spreads(seed):
    """The isometry relations of the disk, the torus and the warped sphere."""
    rng = np.random.default_rng(seed)
    coeffs = [(k, *rng.uniform(-0.12, 0.12, 2) / k) for k in (1, 2, 3)]
    q = fd.initial_loop(flat_torus(), SpectralGrid(N), "fourier", coeffs=coeffs,
                        offset=rng.uniform(-0.2, 0.2, 2)).points
    c, s = np.cos(DISK_ANGLE), np.sin(DISK_ANGLE)
    w, rot = _sphere_loop(rng), _tilt()
    amplitude, width, centre = BUMP

    def bump(at):
        return warped_sphere(*bump_warp(amplitude, width, at))

    return {
        **_kept("disk", _run(hyperbolic_disk(), q @ np.array([[c, s], [-s, c]])),
                _run(hyperbolic_disk(), q)),
        **_kept("torus", _run(flat_torus(), q + TORUS_SHIFT), _run(flat_torus(), q)),
        **_kept("warped", _run(bump(rot @ centre), w @ rot.T), _run(bump(centre), w)),
    }


def _check(spreads):
    broken = {name: f"{spreads[name]:.2e} > {BOUNDS[name]:.0e}"
              for name in spreads if not spreads[name] <= BOUNDS[name]}
    assert not broken, broken


def test_round_sphere_coupled_run_symmetries():
    """Rotation, radius scaling, a cyclic shift of the samples, a mirror
    with time reversal and an orientation reversal commute with the coupled
    run to rounding."""
    _check(_spreads(SEED))


def test_conformal_target_coupled_run_isometries():
    """A disk rotation, a torus translation and a warped-sphere tilt with its
    bump centre keep the energy, |phi| and theta mod 2 pi to rounding."""
    _check(_conformal_spreads(SEED))
