"""Command line interface: scenario runs, convergence studies, check suites.

Commands::

    smflow run --config <file> [--set key=value ...]
    smflow converge --config <file> --levels <N[:dt],N[:dt],...>
    smflow check <suite> [--seed S]

Configuration is JSON; ``--set`` overrides use dotted keys with JSON
values (``--set domain.n=128``). Each leaf has one row in ``_LEAVES``: its
default and its rule. A bool is not a number, nor are NaN, +-Infinity or
an overflowing literal such as 1e400. Of the ``init`` parameters, ``m`` and
the k of each ``[k, a, b]`` mode in ``colat_coeffs``, ``azimuth_coeffs`` and
``coeffs`` are integers, ``point`` and ``offset`` lists of numbers, and
``alpha``, ``eps`` and (positive) ``envelope_sigma`` numbers. ``output.dir``
is a relative path with no ``..`` part, under the output root, which the
environment variable SMFLOW_OUT overrides. A run takes at most
``MAX_STEPS`` steps of ``time.dt`` to ``time.t_final``, in one loop over
the state generator of its ``reduction.mode`` that reads each state by name
and keeps nothing per state: each row is written as it comes and folded
into every summary invariant, so
``diagnostics.cadence`` chooses the written rows and nothing else, and a
failed run leaves the rows and snapshots it reached. Every artifact embeds
a schema string; CSV floats use shortest round-trip formatting, so
identical configurations produce bit-identical files. Exit codes: 0 pass,
1 check or invariant failure, 2 usage or configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import inspect
import json
import math
import os
import sys
from collections import namedtuple
from functools import reduce
from pathlib import Path

import numpy as np

from . import flow_direct as fd
from . import frame_reduction as fr
from .checks import SUITE_NAMES, run_suite
from .errors import ConfigError, SmflowError
from .geometry import (bump_warp, flat_torus, hyperbolic_disk, round_sphere,
                       sphere_chart_point, warped_sphere)
from .holonomy import diagonal_holonomy, lift_to_branch
from .spectral import SpectralGrid

# the most steps one run or convergence level may take
MAX_STEPS = 10**7
# a run writes the snapshots it reaches this many at a time, and the rest
# when it ends: a batch of 1 made a 3-step N=64 coupled run with a snapshot
# per step 4.4% slower (37 of 40 alternating in-process rounds)
SNAPSHOT_BATCH = 16

SCHEMA_CONFIG = "smflow.config.v1"
SCHEMA_TIMESERIES = "smflow.timeseries.v1"
SCHEMA_SNAPSHOT = "smflow.snapshot.v1"
SCHEMA_HOLONOMY = "smflow.holonomy.v2"
SCHEMA_SUMMARY = "smflow.summary.v1"
SCHEMA_CONVERGENCE = "smflow.convergence.v1"
SCHEMA_CHECKS = "smflow.checks.v1"

TIMESERIES_COLUMNS = ("t", "energy", "a_l2", "theta_transport", "theta_ode",
                      "theta_gb", "theta_rate", "phi_l4", "cross_error")
# one timeseries row, its fields named by the columns
_Row = namedtuple("_Row", TIMESERIES_COLUMNS)

# the init keys a preset may read: the keyword-only parameters of initial_loop
_INIT_PARAMS = tuple(name for name, p in inspect.signature(fd.initial_loop).parameters.items()
                     if p.kind is p.KEYWORD_ONLY)


# target.kind -> the surface built from the target section
_TARGETS = {
    "round_sphere": lambda target: round_sphere(target["radius"]),
    "warped_sphere": lambda target: warped_sphere(*bump_warp(**target["warp"])),
    "hyperbolic_disk": lambda target: hyperbolic_disk(),
    "flat_torus": lambda target: flat_torus(),
}

# -- configuration --------------------------------------------------------------


def _number(v):
    """A JSON number that a finite float holds: not a bool, NaN or +-inf."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _numbers(v, count=None):
    return isinstance(v, list) and count in (None, len(v)) and all(map(_number, v))


def _integer(v):
    return _number(v) and isinstance(v, int)


def _one_of(*choices):
    return (lambda v: isinstance(v, str) and v in choices), f"one of {choices}"


def _relative_path(v):
    return (isinstance(v, str) and v != "" and "\0" not in v
            and not Path(v).is_absolute() and ".." not in Path(v).parts)


_POSITIVE = (lambda v: _number(v) and v > 0, "a positive number")
_MODES = (lambda v: isinstance(v, list)
          and all(_numbers(mode, 3) and _integer(mode[0]) for mode in v),
          "a list of [k, a, b] modes with k an integer")

# One row per configuration leaf: its dotted key, its default (None: an
# absent init key keeps the preset's own), and the test its value must pass
# with what that test asks for. The init keys besides kind are the
# keyword-only parameters of initial_loop (_INIT_PARAMS).
_LEAVES = (
    ("target.kind", "round_sphere", *_one_of(*_TARGETS)),
    ("target.radius", 1.0, *_POSITIVE),
    ("target.warp.amplitude", 0.1, _number, "a number"),
    ("target.warp.width", 0.5, *_POSITIVE),
    ("target.warp.center", [0.0, 0.0, 1.0], lambda v: _numbers(v, 3) and any(v),
     "a list of three numbers, not all zero"),
    ("domain.kind", "circle", *_one_of("circle", "line")),
    ("domain.n", 64, lambda v: _integer(v) and v >= 16 and v & (v - 1) == 0,
     "a power of two >= 16"),
    ("domain.half_width", 6.0, *_POSITIVE),
    ("init.kind", "latitude", *_one_of(*fd.PRESETS[True])),  # every preset
    ("init.point", None, _numbers, "a list of numbers"),
    ("init.alpha", 0.7853981633974483, _number, "a number"),
    ("init.eps", None, _number, "a number"),
    ("init.m", None, _integer, "an integer"),
    ("init.colat_coeffs", None, *_MODES),
    ("init.azimuth_coeffs", None, *_MODES),
    ("init.coeffs", None, *_MODES),
    ("init.envelope_sigma", None, *_POSITIVE),
    ("init.offset", None, lambda v: _numbers(v, 2), "a list of two numbers"),
    ("time.dt", 0.0, lambda v: _number(v) and v >= 0,
     "a number >= 0 (0 selects the stability limit)"),
    ("time.t_final", 0.01, lambda v: _number(v) and v >= 0, "a number >= 0"),
    ("reduction.mode", "coupled", *_one_of("coupled", "autonomous")),
    ("diagnostics.cadence", 1, lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    ("diagnostics.snapshot_cadence", 0, lambda v: _integer(v) and v >= 0,
     "an integer >= 0"),
    ("diagnostics.l4_window", 32, lambda v: _integer(v) and v >= 1, "an integer >= 1"),
    ("output.dir", "smflow-run", _relative_path, "a relative path with no '..' part"),
    ("study.error", "auto", *_one_of("auto", "analytic", "cross", "reference")),
)


def _section(cfg, key):
    """The section of cfg holding the dotted key's leaf (made if absent), and the leaf."""
    *path, leaf = key.split(".")
    for part in path:
        cfg = cfg.setdefault(part, {})
    return cfg, leaf


def _defaults():
    cfg = {}
    for key, default, _, _ in _LEAVES:
        if default is not None:
            section, leaf = _section(cfg, key)
            section[leaf] = default
    return cfg


DEFAULT_CONFIG = _defaults()


def _merge(base, override, path=""):
    """Overlay override onto base in place; returns the violations. An init
    key is added if a preset reads it; an object replaces only an object and
    a value only a value."""
    violations = []
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            if path == "init" and key in ("kind", *_INIT_PARAMS):
                base[key] = value
                continue
            violations.append(f"unknown configuration key {where!r}" + (
                f": no initial loop reads it (parameters: {', '.join(_INIT_PARAMS)})"
                if path == "init" else ""))
        elif isinstance(base[key], dict) is not isinstance(value, dict):
            violations.append(f"{where} must be an object" if isinstance(base[key], dict)
                              else f"{where} must not be an object")
        elif isinstance(value, dict):
            violations.extend(_merge(base[key], value, where))
        else:
            base[key] = value
    return violations


def _apply_override(cfg, item):
    """Merge one --set key=value (dotted key, JSON or bare-string value)."""
    key, sep, raw = item.partition("=")
    if not sep or not key:
        return [f"override {item!r} is not of the form key=value"]
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer too long to read
        value = raw
    for part in reversed(key.split(".")):
        value = {part: value}
    return _merge(cfg, value)


def load_config(path=None, overrides=()):
    """Defaults, overlaid by a JSON file, overlaid by --set items."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    violations = []
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {path}"])
        except OSError as exc:  # a directory, no permission, ...
            raise ConfigError([f"config file cannot be read: {exc}"])
        except ValueError as exc:
            raise ConfigError([f"config file is not valid JSON: {exc}"])
        if not isinstance(user, dict):
            raise ConfigError(["config file must contain a JSON object"])
        for echoed in ("schema", "derived", "seed"):  # echoed configs re-run as-is
            user.pop(echoed, None)
        if isinstance(user.get("init"), dict):
            # init parameters are preset-specific; a user init section
            # replaces the default outright instead of merging into it
            cfg["init"] = {}
        violations = _merge(cfg, user)
    for item in overrides:
        violations.extend(_apply_override(cfg, item))
    violations.extend(_validate_structure(cfg))
    if violations:
        raise ConfigError(violations)
    return cfg


def _validate_structure(cfg):
    """Every leaf that fails its row of _LEAVES (an absent init key passes);
    once every leaf passes, the rules that span several leaves."""
    violations = []
    for key, _, test, what in _LEAVES:
        section, leaf = _section(cfg, key)
        if leaf in section and not test(section[leaf]):
            violations.append(f"{key} must be {what}; got {section[leaf]!r}")
    if violations:
        return violations
    target, init = cfg["target"]["kind"], cfg["init"]
    surface = _TARGETS[target](cfg["target"])
    inits, dim = fd.PRESETS[surface.embedded], surface.point_dim
    if init.get("kind") not in inits:
        violations.append(f"init.kind must be one of {inits} for target "
                          f"{target!r}; got {init.get('kind')!r}")
    if "point" in init and len(init["point"]) != dim:
        violations.append(f"init.point must have {dim} coordinates for target "
                          f"{target!r}; got {init['point']!r}")
    if cfg["reduction"]["mode"] == "autonomous" and (
            not surface.embedded or cfg["domain"]["kind"] != "circle"):
        violations.append("reduction.mode 'autonomous' requires an embedded sphere "
                          "target on the circle domain")
    return violations


def _materialize(cfg):
    """Surface, grid, initial loop, and the resolved (dt, n_steps)."""
    target, dom, init = cfg["target"], cfg["domain"], dict(cfg["init"])
    surface = _TARGETS[target["kind"]](target)
    grid = SpectralGrid(dom["n"], dom["kind"],
                        dom["half_width"] if dom["kind"] == "line" else 0.0)
    loop = fd.initial_loop(surface, grid, init.pop("kind"), **init)
    dt_req, t_final = cfg["time"]["dt"], cfg["time"]["t_final"]
    dt_max = fd.admissible_dt(loop)
    if dt_req > dt_max * (1.0 + 1e-12):
        raise ConfigError(
            [f"time.dt={dt_req:.6e} exceeds the stability limit "
             f"{dt_max:.6e} for domain.n={grid.n}"])
    dt0 = dt_max if dt_req == 0.0 else dt_req
    if t_final == 0.0:
        return surface, grid, loop, dt0, 0
    steps = t_final / dt0
    if not steps <= MAX_STEPS:  # inf as well
        raise ConfigError([f"time.t_final={t_final!r} asks for t_final / dt = "
                           f"{steps:.6g} steps, more than MAX_STEPS = {MAX_STEPS}"])
    n_steps = max(1, math.ceil(steps - 1e-9))
    return surface, grid, loop, t_final / n_steps, n_steps


def _output_dir(sub="."):
    """$SMFLOW_OUT (else the working directory) / sub, made before any work."""
    path = Path(os.environ.get("SMFLOW_OUT", ".")) / sub
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"output directory {path} cannot be made: {exc.strerror}"]) from None
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError([f"output directory {path} is not writable"])
    return path


# -- artifact writers -----------------------------------------------------------


def _fmt(value) -> str:
    return repr(float(value))


def _csv_header(schema, columns, comments=()) -> str:
    return "\n".join([f"# schema={schema}", *comments, ",".join(columns)]) + "\n"


def _write_csv(path, schema, columns, table, comments=()):
    """One line per row of the 2-D float table, each value as _fmt writes it
    (repr of a Python float; NaN prints as nan), written in blocks of rows."""
    table = np.asarray(table, dtype=float)
    with path.open("w") as f:
        f.write(_csv_header(schema, columns, comments))
        for lo in range(0, len(table), 64):  # bounds the text held at once
            f.write("\n".join(",".join(map(repr, row))
                              for row in table[lo:lo + 64].tolist()) + "\n")


def _write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_snapshot(path, t, grid, points, big_phi, small_phi):
    d = points.shape[1]
    columns = (["x"] + [f"u{j}" for j in range(d)]
               + ["Phi_re", "Phi_im", "phi_re", "phi_im", "Phi_abs"])
    # np.hypot is bit-equal to the scalar abs of each entry; np.abs of the
    # complex array is not
    table = np.column_stack([grid.nodes, points, big_phi.real, big_phi.imag,
                             small_phi.real, small_phi.imag,
                             np.hypot(big_phi.real, big_phi.imag)])
    _write_csv(path, SCHEMA_SNAPSHOT, columns, table, comments=[f"# t={_fmt(t)}"])


def _on_cadence(k, n_steps, cadence):
    """Whether state k of an n_steps run is written at this cadence: every
    cadence-th state and the last; cadence 0 keeps the first and the last."""
    return k == n_steps or (k % cadence == 0 if cadence else k == 0)


# -- scenario runner ------------------------------------------------------------


def _summary_invariants(first, peaks, counts, circle, tolerance):
    """Invariants of a run from its first row, the peaks and counts that run_scenario
    folds over every state, and a coupled run's tolerance (None if autonomous)."""
    energy, a_norm, disagreement, cross_error, twist, closure = peaks
    nonmonotone, nonfinite = counts
    inv = {}

    def add(name, value, threshold):
        value = float(value)
        inv[name] = {"value": value, "threshold": float(threshold),
                     "passed": bool(value <= threshold)}

    add("nonmonotone_time_count", nonmonotone, 0)
    add("nonfinite_count", nonfinite, 0)
    drift_tol = 1e-4 if tolerance is None else 1e-6
    add("energy_drift_rel", energy / max(abs(first.energy), 1e-300), drift_tol)
    add("a_norm_drift_rel", a_norm / max(abs(first.a_l2), 1e-300), drift_tol)
    if circle:
        add("theta_method_disagreement", disagreement, 1e-3)
    if tolerance is not None:
        add("cross_error_max", cross_error, 10.0 * tolerance)
        if circle:
            add("twist_residual_max", twist, 10.0 * tolerance)
            add("untwisted_periodicity_max", closure, 1e-10)
        else:  # on the line twist_residual_ode carries the edge decay
            add("edge_decay_max", twist, fr.EDGE_DECAY_MAX)
    return inv


def run_scenario(cfg):
    """Run one configured scenario; returns (artifact dir, summary dict). The
    states of fr.coupled_steps or fr.autonomous_steps, as reduction.mode
    picks, are read as they come: each state's row is written if it is on
    diagnostics.cadence and folded into the invariants' peaks and counts
    either way; snapshots on snapshot_cadence are written SNAPSHOT_BATCH at
    a time and the rest when the run ends, also when it fails."""
    _, grid, loop, dt, n_steps = _materialize(cfg)
    out_dir = _output_dir(cfg["output"]["dir"])
    _write_json(out_dir / "config.json", {**cfg, "schema": SCHEMA_CONFIG,
                                          "derived": {"dt": dt, "n_steps": n_steps}})

    diag, coupled = cfg["diagnostics"], cfg["reduction"]["mode"] == "coupled"
    circle = grid.kind == "circle"
    tolerance = fr.solver_tolerance(grid, dt) if coupled else None
    steps = fr.coupled_steps if coupled else fr.autonomous_steps
    first, last, peaks = None, None, -np.inf
    counts, snapshots = np.zeros(2, dtype=np.int64), {}

    def write_snapshots():
        for k, (t, *fields) in snapshots.items():
            _write_snapshot(out_dir / f"snapshot_{k:06d}.csv", t, grid, *fields)
        snapshots.clear()

    try:
        with (out_dir / "timeseries.csv").open("w") as series:
            series.write(_csv_header(SCHEMA_TIMESERIES, TIMESERIES_COLUMNS))
            try:
                for k, final, _, s in steps(loop, dt, n_steps, diag["l4_window"]):
                    row = _Row(s.time, s.energy, s.grad_norm, s.theta,
                               lift_to_branch(s.theta_ode, s.theta) if circle else 0.0,
                               s.theta_gb, s.theta_rate, s.l4_window, s.sup_error)
                    if _on_cadence(k, n_steps, diag["cadence"]):
                        series.write(",".join(map(_fmt, row)) + "\n")
                    first = row if first is None else first
                    # np.maximum keeps a NaN, as ndarray.max does
                    peaks = np.maximum(peaks, np.abs([
                        row.energy - first.energy, row.a_l2 - first.a_l2,
                        row.theta_gb - row.theta_transport, row.cross_error,
                        s.twist_residual_ode, s.phi_closure]))
                    # an autonomous run's cross error is NaN by construction
                    # and is not counted as nonfinite
                    counts += (k and row.t - last.t <= 0,
                               np.count_nonzero(~np.isfinite(row)) - (not coupled))
                    last = row
                    if _on_cadence(k, n_steps, diag["snapshot_cadence"]):
                        snapshots[k] = (s.time, final.points, s.coeffs, s.phi_nls)
                        if len(snapshots) == SNAPSHOT_BATCH:
                            write_snapshots()
            finally:
                write_snapshots()
        if circle:  # the final loop's closed-form matrix and the last row's angles
            payload = {"schema": SCHEMA_HOLONOMY,
                       "theta_transport": float(last.theta_transport),
                       "theta_ode": float(last.theta_ode),
                       "theta_gauss_bonnet": float(last.theta_gb),
                       "matrix": [[[z.real, z.imag] for z in line]
                                  for line in diagonal_holonomy(final).tolist()]}
        else:
            payload = {"schema": SCHEMA_HOLONOMY, "matrix": None,
                       "note": "holonomy is defined for closed loops; "
                               "line-domain runs carry none"}
        _write_json(out_dir / "holonomy.json", payload)
        invariants = _summary_invariants(first, peaks, counts, circle, tolerance)
    except Exception as exc:
        _write_json(out_dir / "summary.json", {
            "schema": SCHEMA_SUMMARY, "passed": False,
            "error": {"type": type(exc).__name__, "message": str(exc)}})
        raise
    metrics = {
        "n_steps": n_steps, "dt": dt, "t_final": float(last.t),
        "energy_initial": float(first.energy), "energy_final": float(last.energy),
        "theta_final": float(last.theta_transport),
        "theta_gauss_bonnet_final": float(last.theta_gb),
        "phi_l4_final": float(last.phi_l4),
    }
    if coupled:
        metrics.update(solver_tolerance=tolerance,
                       cross_error_max=invariants["cross_error_max"]["value"])
    summary = {
        "schema": SCHEMA_SUMMARY,
        "invariants": invariants,
        "metrics": metrics,
        "passed": all(item["passed"] for item in invariants.values()),
    }
    _write_json(out_dir / "summary.json", summary)
    return out_dir, summary


# -- convergence studies ----------------------------------------------------------


def _latitude_exact(alpha, grid, t, radius=1.0):
    """The latitude preset's exact flow on a round sphere of the radius: r
    times the unit-sphere precession, whose rate 4 pi^2 cos(alpha) does not
    depend on r."""
    phase = 2.0 * np.pi * grid.nodes / grid.period + 4.0 * np.pi**2 * np.cos(alpha) * t
    return sphere_chart_point(np.stack([np.full(grid.n, float(alpha)), phase], axis=-1),
                              radius)


def _has_closed_form(cfg):
    """Whether _latitude_exact solves the configured run: the latitude preset
    on a round sphere, on the circle domain."""
    return (cfg["target"]["kind"] == "round_sphere" and cfg["domain"]["kind"] == "circle"
            and cfg["init"].get("kind") == "latitude")


def _study_error_kind(cfg):
    kind = cfg["study"]["error"]
    if kind == "auto":  # the closed form holds on a round sphere of any radius
        kind = ("analytic" if _has_closed_form(cfg)
                else "cross" if cfg["reduction"]["mode"] == "coupled" else "reference")
    return kind


def convergence_study(cfg, levels):
    """Errors and observed orders over refinement levels, each an "N[:dt]"
    text that overrides domain.n and time.dt (0, the stability limit, when
    dt is absent) and is checked like any other override.

    Writes convergence.csv; errors are measured against the analytic
    precession solution, the internal cross-formulation disagreement, or
    the finest level, depending on study.error. Each level runs the route
    of reduction.mode: a coupled level's loop is fd.evolve's (the final
    points of fr.coupled_steps, bit for bit), an autonomous level's the
    final loop of fr.autonomous_steps, which has no cross error.
    """
    levels = [item.strip() for item in levels if item.strip()]
    violations = []
    if len(levels) < 3:
        violations.append(f"need at least 3 levels; got {len(levels)}")
    if cfg["time"]["t_final"] <= 0:
        violations.append("time.t_final must be positive for a convergence study")
    resolved = []  # (n, dt, n_steps, surface, grid, loop) per level
    for item in levels:
        n, _, dt = item.partition(":")
        level_cfg = copy.deepcopy(cfg)
        err = [*_apply_override(level_cfg, f"domain.n={n}"),
               *_apply_override(level_cfg, f"time.dt={dt or 0}")]
        try:
            err = err or _validate_structure(level_cfg)
            if not err:
                surface, grid, loop, dt_run, n_steps = _materialize(level_cfg)
                resolved.append((grid.n, dt_run, n_steps, surface, grid, loop))
        except ConfigError as exc:
            err = exc.violations
        violations.extend(f"level n={n}: {e}" for e in err)
    for (n0, dt0, *_), (n1, dt1, *_) in zip(resolved, resolved[1:]):
        if n1 < n0 or dt1 > dt0 * (1.0 + 1e-12):
            violations.append(
                f"levels must refine monotonically: ({n0}, {dt0:.3e}) "
                f"-> ({n1}, {dt1:.3e})")
    kind, coupled = _study_error_kind(cfg), cfg["reduction"]["mode"] == "coupled"
    if kind == "cross" and not coupled:
        violations.append("study.error 'cross' requires reduction.mode 'coupled'")
    if kind == "analytic" and not _has_closed_form(cfg):
        violations.append("study.error 'analytic' requires the latitude preset on "
                          "a round_sphere target and the circle domain")
    if kind == "reference":
        n_fine = resolved[-1][0] if resolved else 0
        for n, *_ in resolved:
            if n_fine % n:
                violations.append(
                    f"reference study needs every n to divide the finest "
                    f"({n_fine}); {n} does not")
    if violations:
        raise ConfigError(violations)
    out_dir = _output_dir(cfg["output"]["dir"])

    errors, finals = [], []
    for n, dt_run, n_steps, surface, grid, loop in resolved:
        if kind == "cross":  # the largest sup error; np.maximum keeps a NaN
            errors.append(float(reduce(np.maximum, (
                s.sup_error for *_, s in fr.coupled_steps(loop, dt_run, n_steps)))))
        else:
            if coupled:
                state = fd.evolve(loop, dt_run, n_steps)
            else:
                for _, state, *_ in fr.autonomous_steps(loop, dt_run, n_steps):
                    pass
            finals.append(state.points)
            if kind == "analytic":
                exact = _latitude_exact(cfg["init"].get("alpha", np.pi / 3), grid,
                                        state.time, cfg["target"]["radius"])
                errors.append(float(np.abs(state.points - exact).max()))
    if kind == "reference":  # each level against the finest one's points at its nodes
        n_fine = resolved[-1][0]
        errors = [float(np.abs(points - finals[-1][::n_fine // n]).max())
                  for (n, *_), points in zip(resolved, finals)]

    rows = []
    for i, ((n, dt_run, n_steps, *_), err) in enumerate(zip(resolved, errors)):
        order = np.nan
        if i > 0:
            (n_prev, dt_prev, *_), e_prev = resolved[i - 1], errors[i - 1]
            if e_prev > 0 and err > 0:
                if n != n_prev:
                    order = math.log(e_prev / err) / math.log(n / n_prev)
                elif dt_run != dt_prev:
                    order = math.log(e_prev / err) / math.log(dt_prev / dt_run)
        rows.append([i, n, dt_run, n_steps, err, order])

    _write_json(out_dir / "config.json", {**cfg, "schema": SCHEMA_CONFIG})
    _write_csv(out_dir / "convergence.csv", SCHEMA_CONVERGENCE,
               ("level", "n", "dt", "n_steps", "error", "order"), rows,
               comments=[f"# error={kind}"])
    return out_dir, rows


# -- entry point ------------------------------------------------------------------


def _cmd_run(args):
    cfg = load_config(args.config, args.overrides)
    out_dir, summary = run_scenario(cfg)
    status = "pass" if summary["passed"] else "FAIL"
    print(f"run {status}: artifacts in {out_dir}")
    for name, item in sorted(summary["invariants"].items()):
        flag = "PASS" if item["passed"] else "FAIL"
        print(f"  [{flag}] {name}: {item['value']:.3e} <= "
              f"{item['threshold']:.1e}")
    return 0 if summary["passed"] else 1


def _cmd_converge(args):
    cfg = load_config(args.config, args.overrides)
    out_dir, rows = convergence_study(cfg, args.levels.split(","))
    print(f"convergence table in {out_dir / 'convergence.csv'}")
    print("level  n      dt            error         order")
    for level, n, dt, n_steps, err, order in rows:
        otxt = f"{order:7.3f}" if np.isfinite(order) else "    -  "
        print(f"{level:5d}  {n:5d}  {dt:.6e}  {err:.6e}  {otxt}")
    return 0


def _cmd_check(args):
    out_dir = _output_dir()
    results = run_suite(args.suite, seed=args.seed)
    for r in results:
        print(r.line())
    passed = all(r.passed for r in results)
    report = {
        "schema": SCHEMA_CHECKS,
        "suite": args.suite,
        "seed": args.seed,
        "passed": passed,
        "results": [dataclasses.asdict(r) for r in results],
    }
    _write_json(out_dir / f"check_{args.suite}.json", report)
    print("all checks passed" if passed else "CHECK FAILURES")
    return 0 if passed else 1


def _seed(text):
    """A --seed value: a non-negative integer (a usage error otherwise)."""
    if (seed := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer; got {seed}")
    return seed


def build_parser():
    parser = argparse.ArgumentParser(
        prog="smflow",
        description="Schrodinger map flow simulator and verification lab")
    sub = parser.add_subparsers(dest="command", required=True)

    config_p = argparse.ArgumentParser(add_help=False)
    config_p.add_argument("--config", default=None, help="JSON configuration file")
    config_p.add_argument("--set", dest="overrides", action="append", default=[],
                          metavar="KEY=VALUE", help="override a config entry")
    sub.add_parser("run", parents=[config_p], help="run one configured scenario"
                   ).set_defaults(func=_cmd_run)

    conv_p = sub.add_parser("converge", parents=[config_p], help="run a refinement study")
    conv_p.add_argument("--levels", required=True,
                        help="comma-separated N[:dt] levels, coarse to fine")
    conv_p.set_defaults(func=_cmd_converge)

    check_p = sub.add_parser("check", help="run a named verification suite")
    check_p.add_argument("suite", choices=(*SUITE_NAMES, "all"))
    check_p.add_argument("--seed", type=_seed, default=0, help="a non-negative integer")
    check_p.set_defaults(func=_cmd_check)
    return parser


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except SmflowError as exc:
        print(f"numerical or geometric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
