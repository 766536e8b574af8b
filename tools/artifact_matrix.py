"""Run a fixed matrix of ``smflow`` commands into one directory.

Every target of the command line runs coupled, the round and the warped
sphere also run autonomous, and one run uses the line domain; all at N=32
over three steps with a snapshot after every step. Two more round-sphere
runs, one coupled and one autonomous, take nine steps with a timeseries row
every second step, a snapshot every third and a two-row L4 window, so rows
differ from steps and the window truncates. The north-pole ``constant``
preset fails in the reference gauge and exits 3, in either mode, so the
artifacts a failed run leaves are compared too. Two coarse (N=16), strongly
perturbed round-sphere runs of 30 steps fail their invariants and exit 1:
the coupled one its cross error and angle disagreement, the autonomous one
both drifts, so the failing values of the fold are compared as well. Each
scenario writes its artifacts to ``OUT/<name>/``. The matrix also runs
``smflow check all`` (``OUT/check_all.json``) and four ``smflow converge``
studies, one per error kind: cross-formulation studies of the default
circle run at N = 16, 32, 64 (``OUT/converge_cross/``) and of the line
run's settings at N = 32, 64, 128 (``OUT/converge_cross_line/``), the
default latitude run against its closed form (``OUT/converge_analytic/``)
and the warped sphere against its finest level (``OUT/converge_reference/``),
both at N = 16, 32, 64, so it covers all three commands and both
reductions; ``OUT/exit_codes.json`` records the exit codes. Every input is
fixed and the output root is passed through ``SMFLOW_OUT``, so the config
echo holds no path: two versions of the package that compute the same
numbers write byte-identical trees.

    PYTHONPATH=src python3 tools/artifact_matrix.py OUT
    python3 tools/artifact_matrix.py --against OTHER_SRC OUT

The first form imports whichever ``smflow`` is first on the path, prints
its location and exits 1 if any command's exit code is not the expected
one (``EXPECTED_EXIT``, else 0). The second runs the matrix
in child processes, once for this checkout's ``src`` into ``OUT/this`` and
once for the package under ``OTHER_SRC`` (the ``src`` directory of another
checkout) into ``OUT/against``, both emptied first; it lists every file
whose bytes differ, or that only one tree has, and exits 1 if there is any.
Under each differing CSV or JSON file it prints, per column or key whose
numbers differ, the largest absolute and relative difference (relative to
the larger magnitude of the pair). A convergence study's ``order`` is the
log-ratio of two errors, so a rounding-level move of the errors moves it
visibly; its line also gives the ``error`` column's difference, which tells
such a move from a real one.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMON = ("domain.n=32", "time.dt=1e-4", "time.t_final=3e-4",
          "diagnostics.snapshot_cadence=1")
SPHERE = ("init.kind=perturbed_latitude", "init.alpha=1.0", "init.eps=0.05")
CHART = ("init.kind=fourier", "init.offset=[0.1,-0.05]")
AUTONOMOUS = ("reduction.mode=autonomous",)
LINE = ("target.kind=hyperbolic_disk", "domain.kind=line", "init.kind=fourier",
        "init.coeffs=[[2,0.1,0.0],[1,0.0,0.08]]", "init.offset=[0.1,0.2]",
        "init.envelope_sigma=0.8")
CROSS = ("study.error=cross", "time.t_final=1e-3")
# nine steps with a row every second step, a snapshot every third and a
# two-row L4 window: rows differ from steps and the window truncates
SPARSE = ("time.t_final=9e-4", "diagnostics.cadence=2",
          "diagnostics.snapshot_cadence=3", "diagnostics.l4_window=2")
# a coarse, strongly perturbed loop run 30 steps: the coupled run (m = 5)
# fails cross_error_max and theta_method_disagreement, the autonomous one
# (m = 3) both drifts
FAILING = ("domain.n=16", "init.kind=perturbed_latitude", "init.alpha=1.0",
           "init.eps=0.2", "time.t_final=3e-3")
SCENARIOS = {
    "coupled_round_sphere": ("target.kind=round_sphere", *SPHERE),
    "coupled_warped_sphere": ("target.kind=warped_sphere", *SPHERE),
    "coupled_hyperbolic_disk": ("target.kind=hyperbolic_disk", *CHART),
    "coupled_flat_torus": ("target.kind=flat_torus", *CHART),
    "autonomous_round_sphere": ("target.kind=round_sphere", *SPHERE, *AUTONOMOUS),
    "autonomous_warped_sphere": ("target.kind=warped_sphere", *SPHERE, *AUTONOMOUS),
    "sparse_coupled_round_sphere": ("target.kind=round_sphere", *SPHERE, *SPARSE),
    "sparse_autonomous_round_sphere": ("target.kind=round_sphere", *SPHERE,
                                       *SPARSE, *AUTONOMOUS),
    "line_hyperbolic_disk": LINE,
    "constant_pole": ("target.kind=round_sphere", "init.kind=constant"),
    "constant_pole_autonomous": ("target.kind=round_sphere", "init.kind=constant",
                                 *AUTONOMOUS),
    "failing_coupled_round_sphere": ("target.kind=round_sphere", *FAILING, "init.m=5"),
    "failing_autonomous_round_sphere": ("target.kind=round_sphere", *FAILING, "init.m=3",
                                        *AUTONOMOUS),
}
# commands that are meant to fail, with their exit code
EXPECTED_EXIT = {"constant_pole": 3, "constant_pole_autonomous": 3,
                 "failing_coupled_round_sphere": 1, "failing_autonomous_round_sphere": 1}


def _set(*items) -> list:
    """--set arguments for the given key=value items."""
    return [arg for item in items for arg in ("--set", item)]


COMMANDS = {
    "check_all": ["check", "all", "--seed", "0"],
    "converge_cross": ["converge", *_set(*CROSS, "output.dir=converge_cross"),
                       "--levels", "16,32,64"],
    "converge_cross_line": ["converge", *_set(*LINE, *CROSS,
                                              "output.dir=converge_cross_line"),
                            "--levels", "32,64,128"],
    "converge_analytic": ["converge", *_set("study.error=analytic",
                                            "output.dir=converge_analytic"),
                          "--levels", "16,32,64"],
    "converge_reference": ["converge", *_set("target.kind=warped_sphere",
                                             "study.error=reference",
                                             "output.dir=converge_reference"),
                           "--levels", "16,32,64"],
}


def differing_files(a: Path, b: Path) -> list:
    """Relative paths of the files whose bytes differ between two trees, or
    that only one of them has."""
    files = {tree: {p.relative_to(tree) for p in tree.rglob("*") if p.is_file()}
             for tree in (a, b)}
    return sorted(str(rel) for rel in files[a] ^ files[b]) + sorted(
        str(rel) for rel in files[a] & files[b]
        if not filecmp.cmp(a / rel, b / rel, shallow=False))


def _json_leaves(node, key=""):
    """(key, number) pairs of a JSON tree: dict keys join with dots, list
    items that are dicts with a "name" go by it, and the other items of a
    list share the list's key."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _json_leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(node, list):
        for item in node:
            named = isinstance(item, dict) and "name" in item
            yield from _json_leaves(item, f"{key}[{item['name']}]" if named else key)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield key, float(node)


def _csv_leaves(path: Path):
    """(column, number) pairs of an artifact CSV: '#' lines are comments,
    the first other line is the header."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",") if lines else []
    for line in lines[1:]:
        for name, field in zip(header, line.split(",")):
            try:
                yield name, float(field)
            except ValueError:
                pass


def numeric_differences(a: Path, b: Path) -> dict:
    """column or key -> (largest absolute, largest relative difference) over
    the numbers two CSV or JSON files hold under it, for the columns and keys
    whose numbers differ; (nan, nan) where their counts differ. NaN equals
    NaN; a NaN or infinity against anything else is an infinite difference."""
    leaves = _csv_leaves if a.suffix == ".csv" else (
        lambda p: _json_leaves(json.loads(p.read_text())))
    values = {}
    for side, path in enumerate((a, b)):
        for key, x in leaves(path):
            values.setdefault(key, ([], []))[side].append(x)
    out = {}
    for key, (xs, ys) in values.items():
        if len(xs) != len(ys):
            out[key] = (math.nan, math.nan)
            continue
        big_abs = big_rel = 0.0
        for x, y in zip(xs, ys):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            d = abs(x - y)
            if not math.isfinite(d):
                big_abs = big_rel = math.inf
                continue
            big_abs = max(big_abs, d)
            big_rel = max(big_rel, d / max(abs(x), abs(y)))
        if big_abs:
            out[key] = (big_abs, big_rel)
    return out


def difference_lines(diffs: dict) -> list:
    """One line per column or key of numeric_differences' result; the line
    of a convergence table's order, the log-ratio of two errors, ends with
    the error column's difference."""
    lines = []
    for key, (d_abs, d_rel) in diffs.items():
        line = f"    {key}: abs {d_abs:.3e} rel {d_rel:.3e}"
        if key == "order":
            e_abs, e_rel = diffs.get("error", (0.0, 0.0))
            line += f"  (error: abs {e_abs:.3e} rel {e_rel:.3e})"
        lines.append(line)
    return lines


def against(other_src: Path, out: Path) -> int:
    trees = {"this": SRC, "against": other_src.resolve()}
    for name, src in trees.items():
        shutil.rmtree(out / name, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(src))
        code = subprocess.run([sys.executable, __file__, str(out / name)], env=env).returncode
        print(f"{name}: matrix exit {code}")
    diff = differing_files(out / "this", out / "against")
    for rel in diff:
        print(f"differs: {rel}")
        paths = (out / "this" / rel, out / "against" / rel)
        if Path(rel).suffix in (".csv", ".json") and all(p.exists() for p in paths):
            for line in difference_lines(numeric_differences(*paths)):
                print(line)
    print(f"{len(diff)} differing files")
    return 1 if diff else 0


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "--against":
        return against(Path(argv[2]), Path(argv[3]).resolve())
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    os.environ["SMFLOW_OUT"] = str(out)
    from smflow import cli

    print(f"smflow from {Path(cli.__file__).parent}")
    codes = {}
    for name, sets in SCENARIOS.items():
        codes[name] = cli.main(["run", *_set(*COMMON, *sets, f"output.dir={name}")])
    for name, args in COMMANDS.items():
        codes[name] = cli.main(args)
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    for name, code in codes.items():
        print(f"{code}  {name}")
    return 0 if all(code == EXPECTED_EXIT.get(name, 0) for name, code in codes.items()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
