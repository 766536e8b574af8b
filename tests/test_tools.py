"""The artifact-matrix tool's tree and number comparison."""

import importlib.util
import json
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_matrix.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_matrix", TOOL)
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
