"""The artifact-matrix tool's tree comparison."""

import importlib.util
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
