"""The artifact-matrix tool's tree and number comparison and its golden,
the paired benchmark tool's parse and summary step, the trend reader's
chain of records, the benchmark's stored fingerprints read from tier-1, the
line-coverage tool, and the failure paths of the suite's fixture worker."""

import importlib.util
import inspect
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_matrix.py"


def load_tool(path=TOOL, name="artifact_matrix"):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differing_files_lists_changed_and_unpaired_files(tmp_path):
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    for tree in (a, b):
        (tree / "run").mkdir(parents=True)
        (tree / "run" / "same.csv").write_text("1.0\n")
        (tree / "exit_codes.json").write_text("{}\n")
    assert tool.differing_files(a, b) == []
    (b / "run" / "same.csv").write_text("1.0000000000000002\n")
    (a / "run" / "only_a.json").write_text("{}\n")
    assert tool.differing_files(a, b) == ["run/only_a.json", "run/same.csv"]


def test_numeric_differences_per_column_and_key(tmp_path):
    tool = load_tool()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("# schema=x\n# t=1.0\nt,u,v\n0.0,1.0,nan\n1.0,-4.0,2.0\n")
    b.write_text("# schema=x\n# t=2.0\nt,u,v\n0.0,1.5,nan\n1.0,-4.0,2.0\n")
    assert tool.numeric_differences(a, b) == {"u": (0.5, 0.5 / 1.5)}
    b.write_text("t,u,v\n0.0,1.0,nan\n1.0,-4.0,nan\n")
    assert tool.numeric_differences(a, b) == {"v": (math.inf, math.inf)}
    b.write_text("t,u,v\n0.0,1.0,nan\n")
    diff = tool.numeric_differences(a, b)
    assert set(diff) == {"t", "u", "v"}
    assert all(math.isnan(x) for pair in diff.values() for x in pair)

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"passed": True, "metrics": {"e": 2.0, "n": 3},
                             "matrix": [[1.0, 0.0], [0.0, 1.0]],
                             "results": [{"name": "r1", "value": 1e-3},
                                         {"name": "r2", "value": 0.0}]}))
    b.write_text(json.dumps({"passed": False, "metrics": {"e": 2.5, "n": 3},
                             "matrix": [[1.0, 0.0], [-0.25, 1.0]],
                             "results": [{"name": "r1", "value": 1e-3},
                                         {"name": "r2", "value": 1e-9}]}))
    assert tool.numeric_differences(a, b) == {
        "metrics.e": (0.5, 0.2), "matrix": (0.25, 1.0),
        "results[r2].value": (1e-9, 1.0)}


def test_difference_lines_put_the_error_beside_the_order(tmp_path):
    """A convergence table's order line carries the error column's
    difference, so a rounding-level move of the errors reads as one."""
    tool = load_tool()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("# error=cross\nlevel,n,error,order\n0,16,1e-6,nan\n1,32,1e-8,6.0\n")
    b.write_text("# error=cross\nlevel,n,error,order\n0,16,1e-6,nan\n1,32,2e-8,5.0\n")
    assert tool.difference_lines(tool.numeric_differences(a, b)) == [
        "    error: abs 1.000e-08 rel 5.000e-01",
        "    order: abs 1.000e+00 rel 1.667e-01  (error: abs 1.000e-08 rel 5.000e-01)"]
    assert tool.difference_lines({"order": (1e-7, 2e-8)}) == [
        "    order: abs 1.000e-07 rel 2.000e-08  (error: abs 0.000e+00 rel 0.000e+00)"]


def test_compare_digests_reads_floats_at_the_tolerance_and_the_rest_exactly(tmp_path):
    """Floats within ATOL + RTOL of the larger magnitude (or of the key's
    scale) pass; strings, integers, types, counts and files must match; a
    snapshot sum is allowed its rows at the column's largest magnitude."""
    tool = load_tool()
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "summary.json").write_text(json.dumps(
        {"schema": "s.v1", "n": 3, "x": 1.0, "y": math.nan, "z": [0.0, 2.0]}))
    (tmp_path / "run" / "snapshot_000000.csv").write_text(
        "# schema=snap\n# t=0.5\nx,u\n0.0,1.0\n0.5,-1.0\n")
    golden = tool.tree_digest(tmp_path)
    assert golden["run/snapshot_000000.csv"] == {
        "comments": {"schema": "snap", "t": 0.5}, "header": ["x", "u"], "rows": 2,
        "max_abs": {"x": 0.5, "u": 1.0}, "sum": {"x": 0.5, "u": 0.0}}
    assert tool.compare_digests(golden, golden) == []

    def moved(**changes):
        fresh = json.loads(json.dumps(golden))
        fresh["run/summary.json"].update(changes)
        return tool.compare_digests(golden, fresh)

    assert moved(x=1.0 + 1e-13, z=[1e-16, 2.0]) == []
    assert moved(x=1.0 + 1e-11) == ["run/summary.json: x: abs 1.000e-11 rel 1.000e-11"]
    assert moved(y=0.0) == ["run/summary.json: y: abs inf rel inf"]
    assert moved(n=3.0) == ["run/summary.json: n: golden 3, fresh 3.0"]
    assert moved(schema="s.v2") == ["run/summary.json: schema: golden 's.v1', fresh 's.v2'"]
    assert moved(z=[0.0]) == ["run/summary.json: z: 2 values in the golden, 1 fresh"]
    fresh = json.loads(json.dumps(golden))
    fresh["run/snapshot_000000.csv"]["sum"]["u"] = 1.5e-12
    assert tool.compare_digests(golden, fresh) == []
    fresh["run/snapshot_000000.csv"]["sum"]["u"] = 3e-12
    assert tool.compare_digests(golden, fresh) == [
        "run/snapshot_000000.csv: sum.u: abs 3.000e-12 rel 1.500e-12"]
    del fresh["run/snapshot_000000.csv"]
    assert tool.compare_digests(golden, fresh) == [
        "run/snapshot_000000.csv: only in the golden"]


def test_artifact_matrix_matches_the_golden(tmp_path, monkeypatch):
    """The artifact contract: the matrix, rerun into a fresh output root,
    gives the files, exit codes, strings and integers of
    tests/artifact_golden.json exactly and its floats at the tool's
    tolerance. An intended change of results re-records the golden with
    `tools/artifact_matrix.py --record`; the failure lists each differing
    file and key."""
    tool = load_tool()
    monkeypatch.setenv("SMFLOW_OUT", str(tmp_path))
    assert tool.main(["artifact_matrix.py", str(tmp_path)]) == 0
    differences = tool.golden_differences(tmp_path)
    assert not differences, "\n".join(["differences from the golden:", *differences])


def test_bench_trend_chains_the_records_in_pr_order(tmp_path, capsys):
    """Two canned records, written out of order: each record's ratio in PR
    order and the running product; a workload one record lacks leaves its
    cell empty and the product as it was."""
    tool = load_tool(ROOT / "tools" / "bench_trend.py", "bench_trend")

    def record(label, workloads):
        return {"label": label, "workloads": {
            name: {"ratio": ratios} for name, ratios in workloads.items()}}

    (tmp_path / "BENCH_pr9.json").write_text(json.dumps(record("pr9", {
        "a": {"throughput": 1.25, "op_ms.p50": 0.8}})))
    (tmp_path / "BENCH_pr10.json").write_text(json.dumps(record("pr10", {
        "a": {"throughput": 1.5, "op_ms.p50": 0.5}, "b": {"throughput": 2.0}})))
    records = tool.load_records(tmp_path)
    assert [label for label, _ in records] == ["pr9", "pr10"]
    assert tool.trend(records) == {
        "a": {"throughput": [("pr9", 1.25, 1.25), ("pr10", 1.5, 1.875)],
              "op_ms.p50": [("pr9", 0.8, 0.8), ("pr10", 0.5, 0.4)]},
        "b": {"throughput": [("pr9", None, 1.0), ("pr10", 2.0, 2.0)]}}
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a",
        "  throughput   pr9 1.250 (1.250)  pr10 1.500 (1.875)",
        "  op_ms.p50    pr9 0.800 (0.800)  pr10 0.500 (0.400)",
        "b",
        "  throughput   pr9 -              pr10 2.000 (2.000)"]
    assert tool.main([str(tmp_path / "empty")]) == 1


def test_benchmark_fingerprints_hold():
    """Three coupled_sphere128 units (10 steps at N=128) and one
    flow_sphere256 unit (50 steps at N=256), fingerprinted as the benchmark
    does and compared with perfbench/fingerprints.json at its own rtol and
    atol, so a change that moves a fingerprint fails here before a
    benchmark run. The file is only read."""
    from smflow import flow_direct as fd
    from smflow import frame_reduction as fr
    from smflow.geometry import round_sphere
    from smflow.holonomy import holonomy_ode
    from smflow.spectral import SpectralGrid

    wl = load_tool(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    stored = wl.Fingerprints(ROOT / "perfbench" / "fingerprints.json")
    sphere = round_sphere(1.0)
    grid = SpectralGrid(128)
    for params in (wl._SPHERE_POOL[0], wl._SPHERE_POOL[13], wl._SPHERE_POOL[29]):
        state, dt = wl._sphere_loop(sphere, grid, params)
        res = fr.coupled_evolve(state, dt, 10)
        assert stored.check(wl._key("coupled_sphere128", *params, 10), {
            "max_norm": wl._max_norm(res.final_state.points),
            "energy": float(res.energy[-1]), "theta": float(res.theta[-1])})
    grid = SpectralGrid(256)
    params = wl._SPHERE_POOL[17]
    state, dt = wl._sphere_loop(sphere, grid, params)
    for _ in range(50):
        state = fd.step(state, dt)
    assert stored.check(wl._key("flow_sphere256", *params, 50), {
        "max_norm": wl._max_norm(state.points), "energy": fd.energy(state),
        "theta": holonomy_ode(sphere, grid, state.points)})


def test_benchmark_fingerprints_hold_for_every_mix_class(tmp_path, monkeypatch):
    """One pool entry of each fingerprinted scenario_mix64 class, run
    through cli.main into a temporary SMFLOW_OUT and compared with
    perfbench/fingerprints.json as ScenarioMix._verify does (final snapshot
    max norm, summary energy and angle), so a change that moves a mix
    fingerprint fails here before a benchmark run. perfbench/ is only
    read."""
    wl = load_tool(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    trace = load_tool(ROOT / "perfbench" / "layertrace.py", "perfbench_layertrace")
    monkeypatch.setenv("SMFLOW_OUT", str(tmp_path))
    mix = wl.ScenarioMix(1, wl.Fingerprints(ROOT / "perfbench" / "fingerprints.json"),
                         trace.Tracer(), tmp_path / "mix")
    entries = {"coupled_round": wl._MIX_SPHERE_POOL[0],
               "coupled_warped": wl._MIX_SPHERE_POOL[5],
               "coupled_hyperbolic": wl._MIX_DISK_POOL[3],
               "autonomous_round": wl._MIX_SPHERE_POOL[6]}
    try:
        outcomes = {cls: mix._scenario(cls, params, cls)[1] for cls, params in entries.items()}
    finally:
        mix.close()
    assert outcomes == dict.fromkeys(entries, wl.OK)


def _bench_output(throughput, p50, correct=True):
    """Canned output of one perfbench/run.py run: a table, then the JSON line."""
    metrics = {"throughput": {"value": throughput, "unit": "op/s"},
               "op_ms.p50": {"value": p50, "unit": "ms"},
               "ok_frac": {"value": 1.0, "unit": "ratio"}}
    return (f"workload w seed 1 trace 0: 10 ops\n  throughput {throughput} op/s\n"
            + json.dumps({"correct": correct, "attempted": 10, "failed": 0,
                          "metrics": metrics}) + "\n\n")


def test_bench_pair_parses_runs_and_summarizes_pairs():
    """Medians, quartiles, median ratios and per-round wins of canned runs;
    no benchmark runs."""
    tool = load_tool(ROOT / "tools" / "bench_pair.py", "bench_pair")
    this = [tool.last_json(_bench_output(t, p)) for t, p in
            ((130.0, 7.0), (120.0, 8.0), (140.0, 6.0), (100.0, 9.5))]
    against = [tool.last_json(_bench_output(t, p)) for t, p in
               ((100.0, 10.0), (110.0, 9.0), (90.0, 11.0), (105.0, 9.0))]
    against[2]["correct"] = False
    out = tool.summarize({"this": this, "against": against},
                         {"throughput": "higher", "op_ms.p50": "lower",
                          "ok_frac": "higher", "setup_s": "lower"})
    thr = out["this"]["metrics"]["throughput"]
    assert thr["values"] == [130.0, 120.0, 140.0, 100.0]
    assert (thr["q1"], thr["median"], thr["q3"]) == (115.0, 125.0, 132.5)
    assert thr["unit"] == "op/s"
    assert out["against"]["metrics"]["op_ms.p50"]["median"] == 9.5
    assert out["this"]["correct"] and not out["against"]["correct"]
    assert out["ratio"]["throughput"] == 125.0 / 102.5
    assert out["ratio"]["ok_frac"] == 1.0
    assert out["this_better_in"] == {"throughput": 3, "op_ms.p50": 3, "ok_frac": 0}
    assert tool.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0}


def test_bench_pair_states_a_verdict_per_metric():
    """gain, within bound, worse than bound and unresolved from canned runs
    of ten rounds, by the better direction and the bound of each metric;
    the summary stores a verdict only for metrics with a bound. No
    benchmark runs."""
    tool = load_tool(ROOT / "tools" / "bench_pair.py", "bench_pair")
    steady = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    wide = [60.0, 140.0, 70.0, 130.0, 100.0] * 2  # IQR 60% of the median
    cases = [
        # better in 9 of 10 by more than the other side's IQR
        ([110.0] * 9 + [99.0], steady, "higher", "gain"),
        ([90.0] * 9 + [101.0], steady, "lower", "gain"),
        # better in 10 of 10 but by less than the IQR
        ([t + 0.1 for t in steady], steady, "higher", "within bound"),
        # worse by 10% against a 15% bound, and by 20%
        ([90.0] * 10, steady, "higher", "within bound"),
        ([110.0] * 10, steady, "lower", "within bound"),
        ([80.0] * 10, steady, "higher", "worse than bound"),
        ([120.0] * 10, steady, "lower", "worse than bound"),
        # the other side spreads wider than the bound
        ([100.0] * 10, wide, "higher", "unresolved"),
        ([100.0] * 10, wide, "lower", "unresolved"),
        # ... unless every run of this side beats every run of the other
        ([t + 1.0 for t in wide], wide, "higher", "unresolved"),
        ([150.0] * 10, wide, "higher", "within bound"),
    ]
    for this, other, how, expected in cases:
        out = tool.summarize(
            {"this": [tool.last_json(_bench_output(t, t)) for t in this],
             "against": [tool.last_json(_bench_output(t, t)) for t in other]},
            {"throughput": how, "op_ms.p50": how},
            {"throughput": 0.15, "setup_s": 0.25})
        assert out["verdict"] == {"throughput": expected}, (this, how)


def test_bench_pair_reads_the_acceptance_fixture_time():
    """The fixture's time is the acceptance-1 setup duration pytest reports,
    and its drift the acceptance line; canned output, no test run."""
    tool = load_tool(ROOT / "tools" / "bench_pair.py", "bench_pair")
    name = tool.FIXTURE_TEST
    out = ("=== acceptance criteria ===\n"
           "[PASS] 1. energy level-set containment: relative energy drift "
           "2.138e-15 <= 1e-06 and gradient-norm drift 9.946e-16 <= 1e-06\n"
           "=== slowest durations ===\n"
           f"20.38s setup    {name}\n0.01s call     {name}\n1 passed in 20.55s\n")
    assert tool.fixture_result(out) == {"wall_s": 20.38, "passed": True,
                                        "energy_drift": 2.138e-15}
    assert name.split("::")[1] in (ROOT / name.split("::")[0]).read_text()


def test_bench_pair_reads_a_reaped_cli_process():
    """Exit code and peak RSS of one CLI process from canned os.wait4
    results, and the summary of both timed keys; no CLI run."""
    from types import SimpleNamespace

    tool = load_tool(ROOT / "tools" / "bench_pair.py", "bench_pair")
    assert tool.CLI_COMMANDS == {"run": ["run"], "check_all": ["check", "all"]}
    ok = tool.cli_result(0.6, 0, SimpleNamespace(ru_maxrss=51200))
    assert ok == {"wall_s": 0.6, "exit": 0, "max_rss_mb": 50.0}
    assert tool.cli_result(0.1, 2 << 8, SimpleNamespace(ru_maxrss=1024))["exit"] == 2
    runs = [ok, tool.cli_result(0.8, 0, SimpleNamespace(ru_maxrss=56320))]
    out = tool.timing_summary({"this": runs}, ("wall_s", "max_rss_mb"))["this"]
    assert out["runs"] == runs
    assert out["wall_s"]["median"] == 0.7
    assert out["max_rss_mb"] == {"median": 52.5, "q1": 51.25, "q3": 53.75}


def test_bench_pair_gives_the_timings_a_verdict():
    """Fixture, tier-1 and CLI timings get the workloads' ratio, win count and
    verdict for each bounded key, lower being better; canned runs."""
    tool = load_tool(ROOT / "tools" / "bench_pair.py", "bench_pair")
    against = [{"wall_s": w, "max_rss_mb": 50.0} for w in (37.3, 28.8, 33.0)]
    cases = [([25.0, 26.0, 24.0], "gain"),  # lower in 3 of 3 by more than the IQR
             ([37.5, 37.6, 37.7], "within bound"),  # 1.14x, above every other run
             ([45.0, 44.0, 46.0], "worse than bound"),
             ([33.5, 33.0, 32.0], "unresolved")]  # 3 runs each, ranges overlap
    for walls, expected in cases:
        this = [{"wall_s": w, "max_rss_mb": 52.0} for w in walls]
        out = tool.timing_summary({"this": this, "against": against},
                                  ("wall_s", "max_rss_mb"), {"wall_s": 0.15})
        assert out["ratio"] == {"wall_s": statistics.median(walls) / 33.0}
        assert out["this_better_in"] == {"wall_s": sum(a < b["wall_s"]
                                                       for a, b in zip(walls, against))}
        assert out["verdict"] == {"wall_s": expected}, walls
        assert out["this"]["max_rss_mb"]["median"] == 52.0
    wide = [{"wall_s": w} for w in (20.0, 40.0, 30.0, 25.0, 35.0)]
    out = tool.timing_summary({"this": [{"wall_s": 29.0}] * 5, "against": wide},
                              bounds={"wall_s": 0.15})
    assert out["verdict"] == {"wall_s": "unresolved"}


def test_bench_pair_leaves_few_overlapping_timings_unresolved():
    """A timing with fewer than five runs on either side whose two ranges
    overlap is unresolved, however narrow the other side's quartiles. The
    first case is BENCH_pr22.json's `smflow check all`; from five runs on
    each side the workloads' rule decides."""
    tool = load_tool(ROOT / "tools" / "bench_pair.py", "bench_pair")

    def wall_verdict(this, against):
        return tool.timing_summary(
            {"this": [{"wall_s": w} for w in this],
             "against": [{"wall_s": w} for w in against]},
            bounds={"wall_s": 0.15})["verdict"]["wall_s"]

    assert wall_verdict([0.72, 0.62, 0.79], [0.66, 0.71, 0.66]) == "unresolved"
    assert wall_verdict([0.70, 0.71, 0.69, 0.72, 0.70], [0.66, 0.71, 0.66]) == "unresolved"
    assert wall_verdict([0.72, 0.73, 0.74], [0.66, 0.71, 0.66]) == "within bound"
    assert wall_verdict([0.70, 0.71, 0.69, 0.72, 0.70],
                        [0.66, 0.71, 0.66, 0.68, 0.67]) == "within bound"


def test_bench_pair_refuses_a_checkout_that_changed_during_the_runs(
        tmp_path, monkeypatch, capsys):
    """The checkouts are read before and after the runs: a change of either
    (here the dirty flag of this side) writes no record and exits 1; an
    unchanged pair writes BENCH_<label>.json. Canned runs, no benchmark."""
    tool = load_tool(ROOT / "tools" / "bench_pair.py", "bench_pair")
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "bench_run", lambda *args: tool.last_json(
        _bench_output(100.0, 10.0)))
    dirty = iter(())

    def checkout_info(root):
        return {"commit": "c0", "dirty": next(dirty), "diff_sha256": "d0"}

    monkeypatch.setattr(tool, "checkout_info", checkout_info)
    argv = ["--against", str(tmp_path), "--label", "t", "--rounds", "1"]
    # this side, then the other, before the runs and after them
    dirty = iter([False, False, True, False])
    assert tool.main(argv) == 1
    assert "a checkout changed during the runs" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()
    assert next(dirty, None) is None  # both sides read twice
    dirty = iter([False] * 4)
    assert tool.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["checkouts"]["this"] == {"commit": "c0", "dirty": False,
                                           "diff_sha256": "d0"}


def test_bench_pair_refuses_a_dirty_checkout(tmp_path, monkeypatch, capsys):
    """A checkout with uncommitted changes to tracked files, on either side,
    is refused before any run: no benchmark runs, no record is written and
    the tool exits 1."""
    tool = load_tool(ROOT / "tools" / "bench_pair.py", "bench_pair")
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    other = tmp_path / "other"
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    runs = []
    monkeypatch.setattr(tool, "bench_run", lambda *args: runs.append(args) or tool.last_json(
        _bench_output(100.0, 10.0)))
    argv = ["--against", str(other), "--label", "t", "--rounds", "1"]
    for side in ("this", "against"):
        monkeypatch.setattr(tool, "checkout_info", lambda root: {
            "commit": "c0", "dirty": (root == tmp_path) == (side == "this"),
            "diff_sha256": "d0"})
        assert tool.main(argv) == 1
        err = capsys.readouterr().err
        assert f"uncommitted changes to tracked files in {side} " in err
        assert "no record written" in err
        assert not runs and not (tmp_path / "BENCH_t.json").exists()


def test_bench_pair_names_the_timings_it_skipped(tmp_path, monkeypatch):
    """A record lists each fixture, tier-1 or CLI timing whose count was 0,
    by the key the timing would have in the record. Canned runs."""
    tool = load_tool(ROOT / "tools" / "bench_pair.py", "bench_pair")
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "bench_run", lambda *args: tool.last_json(
        _bench_output(100.0, 10.0)))
    monkeypatch.setattr(tool, "checkout_info", lambda root: {
        "commit": "c0", "dirty": False, "diff_sha256": "d0"})
    monkeypatch.setattr(tool, "tier1_run", lambda root: {"wall_s": 1.0, "exit": 0})
    argv = ["--against", str(tmp_path), "--label", "t", "--rounds", "1"]
    assert tool.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["skipped"] == ["acceptance1_fixture", "tier1", "cli_run", "cli_check_all"]
    assert tool.main([*argv, "--tier1", "1"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["skipped"] == ["acceptance1_fixture", "cli_run", "cli_check_all"]
    assert "tier1" in record


def test_line_coverage_lists_the_lines_no_test_reached(fresh_bindings):
    """Traced while a grid binds, from cleared caches, and applies real FFT
    derivatives, the bound FFT operator reaches every body line but its
    complex branch, and the dense route stays unreached; the tracer that
    was set before (the tool's own, when the suite runs under it) is set
    again after."""
    from smflow import spectral

    tool = load_tool(ROOT / "tools" / "line_coverage.py", "line_coverage")
    before, tracer = sys.gettrace(), tool.LineTracer()
    tracer.start()
    spectral.SpectralGrid(256).derivatives(np.ones((256, 3)), (1, 2))
    tracer.stop()
    assert sys.gettrace() is before
    unreached = set(tracer.unreached()[str(Path(spectral.__file__).resolve())][0])
    body = tool.body_lines(Path(spectral.__file__))
    lines, first = inspect.getsourcelines(spectral._fft_derivatives)
    complex_branch = next(first + i for i, text in enumerate(lines) if "_TRANSFORMS[2:]" in text)
    assert body & set(range(first, first + len(lines))) & unreached == {complex_branch}
    assert inspect.getsourcelines(spectral._dense_derivatives)[1] in unreached


def test_line_coverage_records_no_call_while_tracemalloc_traces():
    """Inside a tracemalloc measurement the tracer records no call, so it
    allocates nothing that the measurement counts; after the measurement
    the same call is recorded."""
    import tracemalloc

    from smflow import spectral

    tool = load_tool(ROOT / "tools" / "line_coverage.py", "line_coverage")
    tracer, path = tool.LineTracer(), str(Path(spectral.__file__).resolve())
    tracer.start()
    tracemalloc.start()
    try:
        spectral.SpectralGrid(64).derivative(np.ones(64))
    finally:
        tracemalloc.stop()
        tracer.stop()
    assert not tracer.hits[path]
    tracer.start()
    spectral.SpectralGrid(64).derivative(np.ones(64))
    tracer.stop()
    assert tracer.hits[path]


@pytest.mark.parametrize("fault,message", [
    ("os._exit(1)", "EOFError"),
    ("raise RuntimeError('no run')", "the long_conservation_run worker raised"),
], ids=["dies", "raises"])
def test_fixture_worker_failure_fails_the_test(tmp_path, fault, message):
    """A worker that dies before it sends makes the receive raise, and one
    that raises sends its traceback: either way the reading test fails,
    and neither hangs; a test that does not read the fixture passes."""
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_slow.py").write_text(
        "import os\n\n\n"
        f"def run_long_conservation():\n    {fault}\n\n\n"
        "def test_reads(long_conservation_run):\n    pass\n\n\n"
        "def test_other():\n    pass\n")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert message in done.stdout
    assert "1 passed" in done.stdout
