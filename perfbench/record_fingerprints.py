"""Rewrite ``fingerprints.json`` from the current sources.

Runs every input a workload plan can draw once, untimed, and stores the
final-state fingerprint of each. Run it only when a change of results is
intended; the stored table is what later runs are checked against::

    python3 perfbench/record_fingerprints.py
"""

from __future__ import annotations

import os
import sys

import run  # pins the thread pools before numpy loads

sys.path.insert(0, str(run.SRC))

import layertrace  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    table = workloads.Fingerprints(None, record=True)
    tracer = layertrace.Tracer()
    for name, plan in workloads.pool_plans().items():
        w = workloads.WORKLOADS[name](0, table, tracer,
                                      run.OUT / f"tmp-{os.getpid()}")
        w.plan = plan
        try:
            for i in range(len(plan)):
                bad = [o for _, o in w.run_unit(i) if o != workloads.OK]
                if bad:
                    print(f"{name} unit {i}: {bad}", file=sys.stderr)
                    return 1
        finally:
            w.close()
        print(f"{name}: {len(plan)} units")
    path = run.HERE / "fingerprints.json"
    table.dump(path)
    print(f"{len(table.table)} fingerprints written to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
