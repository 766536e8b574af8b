"""The artifact-matrix tool's tree and number comparison, and the
benchmark's stored fingerprints read from tier-1."""

import importlib.util
import json
import math
from pathlib import Path

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
