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
``smflow check all`` (``OUT/check_all.json``) and five ``smflow converge``
studies, each error kind among them: cross-formulation studies of the
default circle run at N = 16, 32, 64 (``OUT/converge_cross/``) and of the
line run's settings at N = 32, 64, 128 (``OUT/converge_cross_line/``), the
default latitude run against its closed form (``OUT/converge_analytic/``)
and the warped sphere against its finest level, coupled
(``OUT/converge_reference/``) and autonomous
(``OUT/converge_reference_autonomous/``), all three at N = 16, 32, 64, so
it covers all three commands and both reductions; ``OUT/exit_codes.json``
records the exit codes. Every input is fixed and the output root is passed
through ``SMFLOW_OUT``, so the config echo holds no path: two versions of
the package that compute the same numbers write byte-identical trees.

    PYTHONPATH=src python3 tools/artifact_matrix.py OUT
    PYTHONPATH=src python3 tools/artifact_matrix.py --record OUT
    python3 tools/artifact_matrix.py --against OTHER_SRC OUT

The first form imports whichever ``smflow`` is first on the path, prints
its location and exits 1 if any command's exit code is not the expected
one (``EXPECTED_EXIT``, else 0). The second does the same and then records
the tree as the golden, ``tests/artifact_golden.json``, which a tier-1 test
compares a fresh matrix with (``golden_differences``). The golden holds
each JSON file whole, and each CSV's comments, header and columns, a
snapshot's columns reduced to their largest magnitude and their sum. Every
string, integer and key is compared exactly and every float at ``RTOL`` /
``ATOL``, so another host's rounding passes. A snapshot column's sum gets
the allowance of its rows at its largest magnitude, and a convergence
``order``, the log-ratio of two errors of levels at least twice apart, the
move that those errors' own allowance makes in it. An intended change of
results re-records the golden. The third runs the matrix
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
GOLDEN = SRC.parent / "tests" / "artifact_golden.json"
RTOL, ATOL = 1e-12, 1e-15

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
    "converge_reference_autonomous": [
        "converge", *_set("target.kind=warped_sphere", "study.error=reference", *AUTONOMOUS,
                          "output.dir=converge_reference_autonomous"),
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


def _leaves(node, key=""):
    """(key, value) pairs of the scalars of a JSON tree: dict keys join with
    dots, list items that are dicts with a "name" go by it, and the other
    items of a list share the list's key."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(node, list):
        for item in node:
            named = isinstance(item, dict) and "name" in item
            yield from _leaves(item, f"{key}[{item['name']}]" if named else key)
    else:
        yield key, node


def _json_leaves(node, key=""):
    """(key, number) pairs of a JSON tree, keyed as _leaves keys them."""
    for k, v in _leaves(node, key):
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            yield k, float(v)


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
    out = {}
    for key, (xs, ys) in _paired(leaves(a), leaves(b)).items():
        if len(xs) != len(ys):
            out[key] = (math.nan, math.nan)
        elif (big := _largest_differences(zip(xs, ys)))[0]:
            out[key] = big
    return out


def _paired(a, b) -> dict:
    """key -> (the values of the (key, value) pairs a holds under it, b's)."""
    values = {}
    for side, leaves in enumerate((a, b)):
        for key, v in leaves:
            values.setdefault(key, ([], []))[side].append(v)
    return values


def _largest_differences(pairs, scale=0.0, rtol=0.0, atol=0.0):
    """(largest absolute, largest relative difference) over the float pairs
    that differ by more than atol + rtol times the larger of their
    magnitudes and scale, relative to that larger one. NaN equals NaN; a
    NaN or infinity against anything else is an infinite difference."""
    big_abs = big_rel = 0.0
    for x, y in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d, top = abs(x - y), max(abs(x), abs(y), scale)
        if not math.isfinite(d):
            return math.inf, math.inf
        if d > atol + rtol * top:
            big_abs, big_rel = max(big_abs, d), max(big_rel, d / top)
    return big_abs, big_rel


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


def _comment(line: str):
    """A '# key=value' line as (key, value), the value a float if it reads as one."""
    key, _, value = line[2:].partition("=")
    try:
        return key, float(value)
    except ValueError:
        return key, value


def digest(path: Path):
    """What the golden keeps of one artifact: a JSON file whole; a CSV's
    comments, header and columns, a snapshot's columns reduced to their
    largest magnitude and their sum (NaN if they hold one)."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    lines = path.read_text().splitlines()
    header, *rows = [ln for ln in lines if not ln.startswith("#")]
    header = header.split(",")
    columns = dict(zip(header, zip(*(map(float, row.split(",")) for row in rows))))
    out = {"comments": dict(_comment(ln) for ln in lines if ln.startswith("#")),
           "header": header, "rows": len(rows)}
    if path.name.startswith("snapshot_"):
        return {**out, "max_abs": {name: math.nan if any(map(math.isnan, col))
                                   else max(map(abs, col)) for name, col in columns.items()},
                "sum": {name: math.fsum(col) for name, col in columns.items()}}
    return {**out, "columns": {name: list(col) for name, col in columns.items()}}


def tree_digest(out: Path) -> dict:
    """Relative path -> digest of every file of a matrix tree."""
    return {str(p.relative_to(out)): digest(p) for p in sorted(out.rglob("*")) if p.is_file()}


def _scales(name: str, golden) -> dict:
    """key -> the magnitude the relative tolerance of a file's floats applies
    to where it is not the pair's own: a snapshot sum's rows times its
    column's largest magnitude, and 2 / ln 2 for a convergence order."""
    if name.rsplit("/", 1)[-1].startswith("snapshot_"):
        return {f"sum.{col}": golden["rows"] * m for col, m in golden["max_abs"].items()}
    if name.endswith("convergence.csv"):
        return {"columns.order": 2.0 / math.log(2.0)}
    return {}


def compare_digests(golden: dict, fresh: dict) -> list:
    """One line per file only one tree has and per key of a shared file
    whose values differ: strings, integers, booleans and counts exactly
    (with the first differing pair), floats beyond ATOL + RTOL times the
    larger magnitude of the pair or the key's scale (with the largest
    absolute and relative difference). NaN equals NaN."""
    lines = [f"{name}: only in the {side}" for side, a, b in (
        ("golden", golden, fresh), ("fresh tree", fresh, golden)) for name in a if name not in b]
    for name in sorted(golden.keys() & fresh.keys()):
        scales = _scales(name, golden[name])
        for key, (gs, fs) in _paired(_leaves(golden[name]), _leaves(fresh[name])).items():
            odd = next(((g, f) for g, f in zip(gs, fs) if type(g) is not type(f)
                        or (type(g) is not float and g != f)), None)
            if len(gs) != len(fs):
                lines.append(f"{name}: {key}: {len(gs)} values in the golden, {len(fs)} fresh")
            elif odd:
                lines.append(f"{name}: {key}: golden {odd[0]!r}, fresh {odd[1]!r}")
            elif any(big := _largest_differences(
                    ((g, f) for g, f in zip(gs, fs) if type(g) is float),
                    scales.get(key, 0.0), RTOL, ATOL)):
                lines.append(f"{name}: {key}: abs {big[0]:.3e} rel {big[1]:.3e}")
    return lines


def golden_differences(out: Path) -> list:
    """compare_digests of the golden and of the matrix tree at out."""
    return compare_digests(json.loads(GOLDEN.read_text()), tree_digest(out))


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
    record = len(argv) == 3 and argv[1] == "--record"
    if len(argv) != 2 and not record:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[-1]).resolve()
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
    if not all(code == EXPECTED_EXIT.get(name, 0) for name, code in codes.items()):
        return 1
    if record:
        GOLDEN.write_text(json.dumps(tree_digest(out), indent=1, sort_keys=True) + "\n")
        print(f"golden recorded in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
