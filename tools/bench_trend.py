"""The benchmark trajectory across every committed ``BENCH_*.json`` record.

Each record, written by ``tools/bench_pair.py``, holds for every workload
and end-to-end metric the ratio of the medians of two checkouts (this /
against). Only ratios within one record carry over, because the host speed
drifts between records; chained in PR order, their running product is the
trajectory of the metric since the first record.

    python3 tools/bench_trend.py [ROOT]

reads every ``BENCH_*.json`` at ROOT (the root of this checkout by default),
orders them by the number in their label (``pr14`` before ``pr15``) and
prints, per workload and metric, each record's ratio with the running
product after it in parentheses. A record without the workload or metric
leaves its cell empty and the product unchanged.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _order(label: str):
    """Sort key: the first number in the label, then the label."""
    number = re.search(r"\d+", label)
    return (int(number.group()) if number else float("inf"), label)


def load_records(root=ROOT) -> list:
    """(label, record) of every BENCH_*.json at root, in PR order."""
    records = [json.loads(path.read_text()) for path in Path(root).glob("BENCH_*.json")]
    return sorted(((r["label"], r) for r in records), key=lambda lr: _order(lr[0]))


def trend(records) -> dict:
    """{workload: {metric: [(label, ratio or None, running product)]}}, with
    workloads and metrics in order of first appearance."""
    chains: dict = {}
    for _, record in records:
        for workload, entry in record["workloads"].items():
            for metric in entry["ratio"]:
                chains.setdefault(workload, {}).setdefault(metric, [])
    for label, record in records:
        for workload, metrics in chains.items():
            ratios = record["workloads"].get(workload, {}).get("ratio", {})
            for metric, chain in metrics.items():
                ratio = ratios.get(metric)
                product = chain[-1][2] if chain else 1.0
                chain.append((label, ratio, product if ratio is None else product * ratio))
    return chains


def format_trend(chains) -> str:
    lines = []
    for workload, metrics in chains.items():
        lines.append(workload)
        for metric, chain in metrics.items():
            cells = [f"{label} " + ("-".ljust(13) if ratio is None
                                    else f"{ratio:.3f} ({product:.3f})")
                     for label, ratio, product in chain]
            lines.append(f"  {metric:<12} " + "  ".join(cells))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    records = load_records(argv[0] if argv else ROOT)
    if not records:
        print("no BENCH_*.json records", file=sys.stderr)
        return 1
    print(format_trend(trend(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
