"""Smoke test of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` in the tiny mode (``--seconds
0``), untraced and traced, and checks that the last line carries exactly
the declared metrics with their units. Then reruns one workload against a
deliberately corrupted fingerprint table and checks that the mismatch is
counted as a failed, incorrect operation. Run from the checkout root::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{cmd} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1
    # every metric is also printed by name and unit in the readable table
    for name, item in result["metrics"].items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == item["unit"]
                   for line in lines[:-1]), f"{name} missing from the table"
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared[trace], (workload, trace, printed)
            assert result["correct"], (workload, trace)
            print(f"ok  {workload} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed")

    table = json.loads((HERE / "fingerprints.json").read_text())
    for fp in table["fingerprints"].values():
        fp["energy"] *= 1.0 + 1e-6
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        corrupt = Path(tmp) / "fingerprints.json"
        corrupt.write_text(json.dumps(table))
        result = run("flow_sphere256", 0, "--fingerprints", str(corrupt))
    assert result["failed"] == 1 and not result["correct"], result
    print("ok  corrupted fingerprint counted as 1 failed op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
