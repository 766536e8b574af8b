"""Seeded workloads of the smflow benchmark.

Each workload turns a seed into a plan of *units* and runs them one at a
time. A unit starts from freshly generated input: an RK4 trajectory of
single flow steps, one coupled flow/NLS run whose steps are the operations,
or one CLI scenario. Short units keep every operation's cost independent of
run length, let the host-speed probe run between them, and let a traced
phase replay exactly the units an untraced phase ran.

Every operation is checked, and the last operation of every unit also
carries a fingerprint (final-state max norm, energy and holonomy angle)
that is compared with the stored baseline in ``fingerprints.json``. Input
parameters come from small fixed pools so that every unit has a stored
fingerprint; the seed chooses pool entries and their order.

The benchmark calls the package only through module attributes
(``fd.step``, ``cli.main``), so the outside-in tracer sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from smflow import cli
from smflow import flow_direct as fd
from smflow import frame_reduction as fr
from smflow import holonomy
from smflow.geometry import round_sphere
from smflow.spectral import SpectralGrid

OK, ERROR, WRONG = "ok", "error", "wrong"

# the acceptance-1 loop is (alpha, eps, m) = (pi/4, 0.05, 2); the pools sit
# around it
_SPHERE_POOL = [
    (round(math.pi / 4 + da, 12), eps, m)
    for da, eps, m in itertools.product((-0.04, -0.02, 0.0, 0.02, 0.04),
                                        (0.04, 0.05, 0.06), (2, 3))
]
_MIX_SPHERE_POOL = list(itertools.product((0.70, 0.75, 0.80, 0.85),
                                          (0.03, 0.05), (2, 3)))
_MIX_DISK_POOL = [[[1, a, b], [2, c, c]]
                  for (a, b), c in itertools.product(
                      ((0.10, 0.12), (0.12, 0.10), (0.08, 0.10), (0.10, 0.08)),
                      (0.02, 0.03))]


class Fingerprints:
    """Stored final-state fingerprints keyed by workload input.

    In record mode every checked fingerprint is stored instead of compared.
    """

    def __init__(self, path: Path | None, record: bool = False):
        data = json.loads(path.read_text()) if path is not None else {}
        self.rtol = float(data.get("rtol", 1e-9))
        self.atol = float(data.get("atol", 1e-12))
        self.table: dict[str, dict[str, float]] = data.get("fingerprints", {})
        self.record = record

    def check(self, key: str, values: dict[str, float]) -> bool:
        if self.record:
            self.table[key] = {k: float(v) for k, v in values.items()}
            return True
        ref = self.table.get(key)
        if ref is None or set(ref) != set(values):
            return False
        return all(abs(values[k] - ref[k]) <= self.atol + self.rtol * abs(ref[k])
                   for k in ref)

    def dump(self, path: Path):
        payload = {"rtol": self.rtol, "atol": self.atol,
                   "fingerprints": dict(sorted(self.table.items()))}
        path.write_text(json.dumps(payload, indent=1) + "\n")


def _key(*parts) -> str:
    return "/".join(str(p) for p in parts)


def _max_norm(points) -> float:
    return float(np.abs(points).max())


def _sphere_loop(surface, grid, params):
    """Perturbed-latitude input loop and the stability-limit step."""
    alpha, eps, m = params
    state = fd.initial_loop(surface, grid, "perturbed_latitude",
                            alpha=alpha, eps=eps, m=m)
    return state, fd.admissible_dt(state)


class Workload:
    """A seeded plan of units; ``run_unit(i)`` returns one (latency_s,
    outcome) pair per operation it attempted. A timed run may stop only
    after a multiple of ``stride`` units."""

    name = ""
    stride = 1

    def __init__(self, seed: int, fingerprints: Fingerprints, tracer,
                 scratch: Path):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.fingerprints = fingerprints
        self.tracer = tracer
        self.next_op = 0
        self.plan: list = []
        self.errors: dict[str, int] = {}

    def _start_op(self):
        self.tracer.op = self.next_op
        self.next_op += 1

    def _raised(self) -> str:
        """Report an op that raised (first traceback of each type only)."""
        kind = sys.exc_info()[0].__name__
        if kind not in self.errors:
            traceback.print_exc(file=sys.stderr)
        self.errors[kind] = self.errors.get(kind, 0) + 1
        return ERROR

    def units(self) -> int:
        return len(self.plan)

    def run_unit(self, index: int) -> list[tuple[float, str]]:
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def close(self):
        pass


class _SphereLoops(Workload):
    """Units start from perturbed-latitude loops on the round sphere."""

    n = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.surface = round_sphere(1.0)
        self.grid = SpectralGrid(self.n)
        self.plan = [_SPHERE_POOL[i] for i in self.rng.integers(len(_SPHERE_POOL), size=4096)]


class FlowSphere(_SphereLoops):
    """Op = one ``flow_direct.step`` at the stability limit, N=256."""

    name = "flow_sphere256"
    n = 256
    steps_per_unit = 50
    drift_tol = 1e-6  # acceptance-1 bound on energy and gradient-norm drift

    def warm_up(self):
        self._trajectory(_SPHERE_POOL[0], 20, check_fingerprint=False)

    def run_unit(self, index):
        return self._trajectory(self.plan[index], self.steps_per_unit)

    def _trajectory(self, params, steps, check_fingerprint=True):
        with self.tracer.paused():
            state, dt = _sphere_loop(self.surface, self.grid, params)
            e0, g0 = fd.energy(state), fd.gradient_norm(state)
        out = []
        for i in range(steps):
            self._start_op()
            t0 = perf_counter()
            try:
                state = fd.step(state, dt)
            except Exception:  # any raise is a failed op, not a crashed run
                out.append((perf_counter() - t0, self._raised()))
                break
            latency = perf_counter() - t0
            with self.tracer.paused():
                e, g = fd.energy(state), fd.gradient_norm(state)
                ok = (abs(e - e0) <= self.drift_tol * e0
                      and abs(g - g0) <= self.drift_tol * g0)
                if check_fingerprint and i == steps - 1:
                    theta = holonomy.holonomy_ode(self.surface, self.grid, state.points)
                    ok &= self.fingerprints.check(
                        _key(self.name, *params, steps),
                        {"max_norm": _max_norm(state.points), "energy": e,
                         "theta": theta})
            out.append((latency, OK if ok else WRONG))
        return out


class CoupledSphere(_SphereLoops):
    """Op = one step of ``frame_reduction.coupled_evolve`` at N=128, timed
    between consecutive calls of its ``observer`` hook."""

    name = "coupled_sphere128"
    n = 128
    steps_per_unit = 10

    def warm_up(self):
        self._run(_SPHERE_POOL[0], 3, check_fingerprint=False)

    def run_unit(self, index):
        return self._run(self.plan[index], self.steps_per_unit)

    def _run(self, params, steps, check_fingerprint=True):
        with self.tracer.paused():
            state, dt = _sphere_loop(self.surface, self.grid, params)
        stamps = []

        def observer(k, state, coeffs):
            stamps.append(perf_counter())
            if k < steps:
                self._start_op()

        start = perf_counter()
        try:
            res = fr.coupled_evolve(state, dt, steps, observer=observer)
        except Exception:
            # the steps already taken lost their result along with the run
            marks = stamps or [start]
            lat = list(np.diff(marks)) + [perf_counter() - marks[-1]]
            outcome = self._raised()
            return [(float(x), outcome) for x in lat]
        lat = np.diff(stamps)
        with self.tracer.paused():
            tol = res.tolerance
            ok = ((res.sup_error[1:] <= tol)
                  & (res.twist_residual_ode[1:] <= 10.0 * tol)
                  & (res.phi_closure[1:] <= 1e-10))
            if check_fingerprint:
                ok[-1] &= self.fingerprints.check(
                    _key(self.name, *params, steps),
                    {"max_norm": _max_norm(res.final_state.points),
                     "energy": float(res.energy[-1]),
                     "theta": float(res.theta[-1])})
        return [(float(x), OK if good else WRONG) for x, good in zip(lat, ok)]


class ScenarioMix(Workload):
    """Op = one in-process ``cli.main(["run", ...])`` at N=64, a few steps
    at the stability limit, snapshots on, artifacts in a temporary
    ``SMFLOW_OUT``. A unit is one op. The plan is a sequence of rounds that
    hold each class once in seeded order, and a timed run stops only at the
    end of a round, so every class keeps a fixed share of the mix."""

    name = "scenario_mix64"
    n = 64
    steps = 3
    classes = ("coupled_round", "coupled_warped", "coupled_hyperbolic",
               "autonomous_round", "constant_pole")
    stride = len(classes)

    def __init__(self, *args):
        super().__init__(*args)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self._saved_out = os.environ.get("SMFLOW_OUT")
        os.environ["SMFLOW_OUT"] = str(self.scratch)
        self.plan = [op for _ in range(1024) for op in self._round()]

    def _round(self):
        order = self.rng.permutation(len(self.classes))
        ops = []
        for c in order:
            cls = self.classes[c]
            if cls == "coupled_hyperbolic":
                params = _MIX_DISK_POOL[self.rng.integers(len(_MIX_DISK_POOL))]
            elif cls == "constant_pole":
                params = None
            else:
                params = _MIX_SPHERE_POOL[self.rng.integers(len(_MIX_SPHERE_POOL))]
            ops.append((cls, params))
        return ops

    def warm_up(self):
        for cls, params in self.plan[:self.stride]:
            self._scenario(cls, params, "warmup", check_fingerprint=False)

    def run_unit(self, index):
        cls, params = self.plan[index]
        return [self._scenario(cls, params, f"op{index:06d}")]

    def overrides(self, cls, params):
        dt = fd.CFL_CONSTANT / self.n**2  # the stability limit on the unit circle
        sets = [f"domain.n={self.n}", f"time.t_final={self.steps * dt!r}",
                "diagnostics.snapshot_cadence=1"]
        if cls == "coupled_hyperbolic":
            return sets + ["target.kind=hyperbolic_disk", "init.kind=fourier",
                           f"init.coeffs={json.dumps(params)}"]
        if cls == "constant_pole":
            return sets + ["init.kind=constant"]  # the preset sits on the north pole
        alpha, eps, m = params
        sets += ["init.kind=perturbed_latitude", f"init.alpha={alpha!r}",
                 f"init.eps={eps!r}", f"init.m={m}"]
        if cls == "coupled_warped":
            return sets + ["target.kind=warped_sphere"]
        if cls == "autonomous_round":
            return sets + ["reduction.mode=autonomous"]
        return sets

    def _scenario(self, cls, params, tag, check_fingerprint=True):
        argv = ["run"]
        for item in self.overrides(cls, params) + [f"output.dir={tag}"]:
            argv += ["--set", item]
        sink = io.StringIO()
        self._start_op()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception:
            code = self._raised()
        latency = perf_counter() - t0
        run_dir = self.scratch / tag
        with self.tracer.paused():
            try:
                outcome = ERROR if code != 0 else self._verify(
                    run_dir, _key(self.name, cls, json.dumps(params)),
                    check_fingerprint)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
        return latency, outcome

    def _verify(self, run_dir, key, check_fingerprint):
        summary = json.loads((run_dir / "summary.json").read_text())
        if not summary["passed"]:
            return WRONG
        if not check_fingerprint:
            return OK
        metrics = summary["metrics"]
        snap = run_dir / f"snapshot_{metrics['n_steps']:06d}.csv"
        lines = [ln for ln in snap.read_text().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        cols = [i for i, name in enumerate(header) if name.startswith("u")]
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        good = self.fingerprints.check(
            key, {"max_norm": _max_norm(rows[:, cols]),
                  "energy": metrics["energy_final"],
                  "theta": metrics["theta_final"]})
        return OK if good else WRONG

    def close(self):
        if self._saved_out is None:
            os.environ.pop("SMFLOW_OUT", None)
        else:
            os.environ["SMFLOW_OUT"] = self._saved_out
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FlowSphere, CoupledSphere, ScenarioMix)}


def pool_plans() -> dict[str, list]:
    """Every input a plan can draw, per workload, for recording fingerprints."""
    mix = [(cls, p) for cls in ("coupled_round", "coupled_warped",
                                "autonomous_round") for p in _MIX_SPHERE_POOL]
    mix += [("coupled_hyperbolic", p) for p in _MIX_DISK_POOL]
    return {
        FlowSphere.name: list(_SPHERE_POOL),
        CoupledSphere.name: list(_SPHERE_POOL),
        ScenarioMix.name: mix,
    }
