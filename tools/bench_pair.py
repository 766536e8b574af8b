"""Paired benchmark runs of two checkouts, recorded as ``BENCH_<label>.json``.

Runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``)
for every workload it lists, for its ``run_seconds``, once per round in
each of two checkouts: this one and the one given by ``--against`` (the
root of another checkout, for example a ``git worktree`` or ``git clone``
of the parent commit). Round i uses seed i + 1 on both sides, and the side
that runs first alternates from round to round, so a drift of the host
speed falls on both sides alike. Each run's last standard-output line is
the benchmark's JSON result.

    python3 tools/bench_pair.py --against ../parent --label NAME \\
        --rounds 10 [--fixture 3] [--tier1 3] [--cli 3]

``--fixture k`` also times the acceptance-1 fixture in k alternating fresh
processes per side: each runs that side's ``tests/test_acceptance.py``
acceptance-1 test under pytest and reads the fixture's time from the setup
duration pytest reports, and its energy drift from the acceptance line.
``--tier1 k`` times the tier-1 suite (``python -m pytest -q
--continue-on-collection-errors`` with that side's ``src`` on the path).
``--cli k`` times the default ``smflow run`` and ``smflow check all``, each
in k alternating fresh processes per side writing into a temporary
directory, with the process's maximum resident set size from ``os.wait4``.
All three pin the BLAS and OpenMP pools to one thread, as the benchmark does.
The record's ``skipped`` list names each of these timings that was not run
(its count 0): ``acceptance1_fixture``, ``tier1``, ``cli_run`` and
``cli_check_all``.

``BENCH_<label>.json`` is written at the root of this checkout. For each
workload and side it holds every end-to-end metric's per-round values,
median and quartiles, whether every run was correct, and for each metric
the ratio of the medians (this / against), the number of rounds in which
this side was better (by the ``better`` direction of ``BENCHMARK.json``),
and a verdict against the metric's ``bound``:

- ``gain``: this side is better in at least nine tenths of the rounds and
  its median beats the other's by more than the other side's
  interquartile range;
- ``unresolved``: the other side's interquartile range, relative to its
  median, is wider than the bound, and not every run of this side is better
  than every run of the other;
- ``within bound`` or ``worse than bound``: the median of this side is worse
  than the other's by at most, or by more than, the bound (relative).

The fixture, tier-1 and CLI timings get the same ratio, win count and
verdict, lower being better: wall times against the bound of ``op_ms.p50``
and the CLI's peak memory against that of ``peak_rss_mb``. A timing with
fewer than ``MIN_TIMING_RUNS`` runs on either side reads ``unresolved``
whenever the two sides' ranges overlap: three runs can land close together
by chance, and so give the other side a narrow interquartile range.

It also records the seeds, the host, and both checkouts: the commit, whether
tracked files had uncommitted changes, and the sha256 of ``git diff HEAD``,
so two trees on the same commit can be told apart. A record compares two
commits, so a checkout whose tracked files have uncommitted changes is
refused before any run: no record is written and the tool exits 1. The
checkouts are read again after the runs; if either changed meanwhile, no
record is written either and the tool exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
PINS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

FIXTURE_TEST = "tests/test_acceptance.py::test_1_energy_level_set_containment"
CLI_COMMANDS = {"run": ["run"], "check_all": ["check", "all"]}
MIN_TIMING_RUNS = 5


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's output."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list) -> dict:
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def fixture_result(stdout: str) -> dict:
    """Setup time and energy drift of the acceptance-1 test from the output
    of ``pytest --durations=0``; the setup runs the module's fixture."""
    wall = re.search(rf"([\d.]+)s setup\s+{re.escape(FIXTURE_TEST)}", stdout)
    drift = re.search(r"\[(PASS|FAIL)\] 1\..*relative energy drift (\S+)", stdout)
    if not (wall and drift):
        raise ValueError("no acceptance-1 setup duration or drift in the output")
    return {"wall_s": float(wall.group(1)), "passed": drift.group(1) == "PASS",
            "energy_drift": float(drift.group(2))}


def cli_result(wall_s: float, status: int, rusage) -> dict:
    """Wall time, exit code and peak memory of one reaped CLI process, from
    its ``os.wait4`` status and resource usage (ru_maxrss is in KiB)."""
    return {"wall_s": wall_s, "exit": os.waitstatus_to_exitcode(status),
            "max_rss_mb": rusage.ru_maxrss / 1024.0}


def verdict(this: dict, other: dict, how: str, bound: float, wins: int) -> str:
    """Verdict of one metric from both sides' summaries (values, median,
    quartiles): this side against the other, ``how`` "higher" or "lower"
    is better, ``bound`` the allowed relative worsening of the median and
    ``wins`` the rounds in which this side was better."""
    sign = 1.0 if how == "higher" else -1.0
    gap = sign * (this["median"] - other["median"])
    spread = other["q3"] - other["q1"]
    if wins >= 0.9 * len(this["values"]) and gap > spread:
        return "gain"
    beats_all = min(sign * a for a in this["values"]) > max(sign * b for b in other["values"])
    if spread > bound * abs(other["median"]) and not beats_all:
        return "unresolved"
    return "within bound" if gap >= -bound * abs(other["median"]) else "worse than bound"


def summarize(results: dict, better: dict, bounds=None) -> dict:
    """Per-side statistics of one workload's paired runs.

    ``results`` maps "this" and "against" to the parsed results of the
    rounds in seed order; ``better`` maps a metric name to "higher" or
    "lower", and ``bounds`` a metric name to its relative bound. Metrics
    missing from ``better`` get no win count, and those missing from
    ``bounds`` no verdict.
    """
    out = {}
    for side, runs in results.items():
        names = runs[0]["metrics"]
        out[side] = {"correct": all(r["correct"] for r in runs),
                     "metrics": {}}
        for name, item in names.items():
            values = [r["metrics"][name]["value"] for r in runs]
            out[side]["metrics"][name] = {"unit": item["unit"], "values": values,
                                          **quartiles(values)}
    this, other = out["this"]["metrics"], out["against"]["metrics"]
    out["ratio"] = {name: this[name]["median"] / other[name]["median"]
                    for name in this if other[name]["median"]}
    wins = {}
    for name, how in better.items():
        if name in this:
            pairs = zip(this[name]["values"], other[name]["values"])
            wins[name] = sum((a > b) if how == "higher" else (a < b) for a, b in pairs)
    out["this_better_in"] = wins
    out["verdict"] = {name: verdict(this[name], other[name], better[name], bound, wins[name])
                      for name, bound in (bounds or {}).items() if name in wins}
    return out


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def checkout_info(root: Path) -> dict:
    diff = subprocess.run(["git", "-C", str(root), "diff", "--no-ext-diff", "--binary",
                           "HEAD"], capture_output=True, check=True).stdout
    return {"commit": _git(root, "rev-parse", "HEAD"),
            "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
            "diff_sha256": hashlib.sha256(diff).hexdigest()}


def _run(cmd: list, cwd: Path, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, **PINS, **(env or {})))


def bench_run(root: Path, command: list, workload: str, seed: int,
              seconds: float) -> dict:
    cmd = [sys.executable if c in ("python", "python3") else c for c in command]
    done = _run([*cmd, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"], root)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return last_json(done.stdout)


def fixture_run(root: Path) -> dict:
    done = _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--durations=0", FIXTURE_TEST], root, {"PYTHONPATH": str(root / "src")})
    if done.returncode != 0:
        raise RuntimeError(f"acceptance-1 in {root} exited {done.returncode}:\n"
                           f"{done.stdout}{done.stderr}")
    return fixture_result(done.stdout)


def tier1_run(root: Path) -> dict:
    t0 = perf_counter()
    done = _run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                 "-p", "no:cacheprovider"], root, {"PYTHONPATH": str(root / "src")})
    wall = perf_counter() - t0
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"wall_s": wall, "exit": done.returncode, **counts}


def cli_run(root: Path, args: list) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "smflow.cli", *args], cwd=tmp,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                env=dict(os.environ, **PINS, PYTHONPATH=str(root / "src"),
                                         SMFLOW_OUT=tmp))
        _, status, rusage = os.wait4(proc.pid, 0)
        result = cli_result(perf_counter() - t0, status, rusage)
    proc.returncode = result["exit"]  # reaped here, not by Popen
    if result["exit"] != 0:
        raise RuntimeError(f"smflow {' '.join(args)} in {root} exited {result['exit']}")
    return result


def alternate(rounds: int, roots: dict, run) -> dict:
    """run(root, i) for both sides in every round, the first side alternating;
    returns side -> list of results in round order."""
    out = {side: [] for side in roots}
    for i in range(rounds):
        order = list(roots) if i % 2 == 0 else list(roots)[::-1]
        for side in order:
            out[side].append(run(roots[side], i))
            print(f"round {i} {side}: {json.dumps(out[side][-1])[:160]}", flush=True)
    return out


def timing_summary(results: dict, keys=("wall_s",), bounds=None) -> dict:
    """Median and quartiles of each timed key per side. For each key that
    ``bounds`` maps to a relative bound, also the ratio of the medians (this
    / against), the rounds in which this side was lower, and its verdict,
    lower being better; ``unresolved`` where either side has fewer than
    MIN_TIMING_RUNS runs and the two sides' ranges overlap."""
    out = {side: {"runs": runs, **{key: quartiles([r[key] for r in runs]) for key in keys}}
           for side, runs in results.items()}
    out.update(ratio={}, this_better_in={}, verdict={})
    for key, bound in (bounds or {}).items():
        this, other = ({"values": [r[key] for r in results[side]], **out[side][key]}
                       for side in ("this", "against"))
        out["ratio"][key] = this["median"] / other["median"]
        out["this_better_in"][key] = sum(a < b for a, b in zip(this["values"], other["values"]))
        few = min(len(this["values"]), len(other["values"])) < MIN_TIMING_RUNS
        overlap = (max(this["values"]) >= min(other["values"])
                   and max(other["values"]) >= min(this["values"]))
        out["verdict"][key] = ("unresolved" if few and overlap else
                               verdict(this, other, "lower", bound, out["this_better_in"][key]))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--against", type=Path, required=True,
                   help="root of the other checkout")
    p.add_argument("--label", required=True)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--fixture", type=int, default=0, metavar="K")
    p.add_argument("--tier1", type=int, default=0, metavar="K")
    p.add_argument("--cli", type=int, default=0, metavar="K")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    roots = {"this": ROOT, "against": args.against.resolve()}
    seeds = list(range(1, args.rounds + 1))

    record = {
        "label": args.label,
        "checkouts": {side: checkout_info(root) for side, root in roots.items()},
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count(), "thread_pins": PINS},
        "seconds": seconds,
        "seeds": seeds,
        "skipped": [name for name, k in (("acceptance1_fixture", args.fixture),
                                         ("tier1", args.tier1),
                                         *((f"cli_{c}", args.cli) for c in CLI_COMMANDS))
                    if not k],
        "workloads": {},
    }
    dirty = [side for side, info in record["checkouts"].items() if info["dirty"]]
    if dirty:
        print(f"uncommitted changes to tracked files in {', '.join(dirty)} "
              f"({', '.join(str(roots[side]) for side in dirty)}); no record written",
              file=sys.stderr)
        return 1
    for name in (w["name"] for w in spec["workloads"]):
        results = alternate(args.rounds, roots, lambda root, i: bench_run(
            root, spec["command"], name, seeds[i], seconds))
        record["workloads"][name] = summarize(results, better, bounds)
    wall = {"wall_s": bounds["op_ms.p50"]}
    if args.fixture:
        record["acceptance1_fixture"] = timing_summary(
            alternate(args.fixture, roots, lambda root, i: fixture_run(root)), bounds=wall)
    if args.tier1:
        record["tier1"] = timing_summary(
            alternate(args.tier1, roots, lambda root, i: tier1_run(root)), bounds=wall)
    if args.cli:
        for name, cli_args in CLI_COMMANDS.items():
            record[f"cli_{name}"] = timing_summary(
                alternate(args.cli, roots, lambda root, i: cli_run(root, cli_args)),
                ("wall_s", "max_rss_mb"), {**wall, "max_rss_mb": bounds["peak_rss_mb"]})

    after = {side: checkout_info(root) for side, root in roots.items()}
    if after != record["checkouts"]:
        print(f"a checkout changed during the runs: {record['checkouts']} -> {after}; "
              "no record written", file=sys.stderr)
        return 1
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    timings = {name: record[name] for name in ("acceptance1_fixture", "tier1",
                                                *(f"cli_{c}" for c in CLI_COMMANDS))
               if name in record}
    for name, summary in {**record["workloads"], **timings}.items():
        for metric, ratio in summary["ratio"].items():
            print(f"{name:20s} {metric:12s} this/against {ratio:.4f} "
                  f"better in {summary['this_better_in'].get(metric, '-')}"
                  f"/{len(summary['this'].get('runs', seeds))}  "
                  f"{summary['verdict'].get(metric, '-')}")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
