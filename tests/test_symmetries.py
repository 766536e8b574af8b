"""Symmetries of the round-sphere coupled run as oracles that need no closed
form and no second route (metamorphic testing: Chen, Cheung & Yiu,
HKUST-CS98-01, 1998).

One seeded loop near the equator runs five coupled steps at N = 64, next to
three transformed copies of it:

* tilted by a fixed rotation that keeps it clear of the poles: the energy,
  |phi| of the frame and split-step fields, and theta mod 2 pi are kept;
* scaled by r onto the radius-r sphere: the points and the tension scale by
  r, the energy by r^2, and theta is unchanged;
* with its samples shifted cyclically: the points and |Phi| shift with them.
  theta and the split-step phi are not compared here, since the RK4
  transport's discretization error depends on the base node (up to 1.7e-8).

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
from smflow.geometry import round_sphere
from smflow.spectral import SpectralGrid

SEED, N, STEPS = 0, 64, 5
RADIUS, SHIFT = 2.5, 7
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
}


def _tilt():
    """Rotation by 0.5 about a horizontal axis (Rodrigues)."""
    axis = np.array([np.cos(0.3), np.sin(0.3), 0.0])
    k = np.cross(np.eye(3), axis)
    return np.eye(3) + np.sin(0.5) * k + (1.0 - np.cos(0.5)) * k @ k


def _run(radius, points):
    """Final points, energies, thetas and |Phi|, |phi_frame|, |phi_nls| per
    state of a coupled run on the radius sphere, and the initial tension."""
    loop = LoopState(SpectralGrid(N), round_sphere(radius), points)
    fields = []
    res = fr.coupled_evolve(loop, fd.admissible_dt(loop), STEPS,
                            observer=lambda k, state, step: fields.append(
                                [np.abs(a) for a in step[-3:]]))
    Phi, phi_frame, phi_nls = (np.array(f) for f in zip(*fields))
    return dict(points=res.final_state.points, energy=res.energy, theta=res.theta,
                Phi=Phi, phi=np.concatenate((phi_frame, phi_nls)),
                tension=fd.tension(loop))


def _spreads(seed):
    """Every relation's largest defect, relative to the compared scale."""
    rng = np.random.default_rng(seed)
    colat = [(k, *rng.uniform(-0.06, 0.06, 2)) for k in (2, 3)]
    azimuth = [(k, *rng.uniform(-0.06, 0.06, 2)) for k in (1, 2)]
    w = fd.initial_loop(round_sphere(), SpectralGrid(N), "fourier",
                        colat_coeffs=colat, azimuth_coeffs=azimuth).points
    rot = _tilt()
    assert np.abs(w @ rot.T)[:, 2].max() < 0.6  # clear of the poles
    base = _run(1.0, w)
    tilt = _run(1.0, w @ rot.T)
    big = _run(RADIUS, RADIUS * w)
    rolled = _run(1.0, np.roll(w, SHIFT, axis=0))

    def rel(a, b):
        return float(np.abs(a - b).max() / np.abs(b).max())

    return {
        "tilt energy": rel(tilt["energy"], base["energy"]),
        "tilt |phi|": rel(tilt["phi"], base["phi"]),
        "tilt theta mod 2pi": float(np.abs(np.angle(
            np.exp(1j * (tilt["theta"] - base["theta"])))).max()),
        "radius points": rel(big["points"] / RADIUS, base["points"]),
        "radius energy": rel(big["energy"] / RADIUS**2, base["energy"]),
        "radius theta": float(np.abs(big["theta"] - base["theta"]).max()),
        "radius tension": rel(big["tension"] / RADIUS, base["tension"]),
        "shift points": rel(rolled["points"], np.roll(base["points"], SHIFT, axis=0)),
        "shift |Phi|": rel(rolled["Phi"], np.roll(base["Phi"], SHIFT, axis=1)),
    }


def test_round_sphere_coupled_run_symmetries():
    """Rotation, radius scaling and a cyclic shift of the samples commute
    with the coupled run to rounding."""
    spreads = _spreads(SEED)
    broken = {name: f"{spreads[name]:.2e} > {bound:.0e}"
              for name, bound in BOUNDS.items() if not spreads[name] <= bound}
    assert not broken, broken
