"""smflow benchmark: run one seeded workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload flow_sphere256 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``flow_sphere256``, ``coupled_sphere128``
and ``scenario_mix64``. The package is imported from ``src/`` of the same
checkout; BLAS and OpenMP pools are pinned to one thread.

``--trace 0`` runs units for ``--seconds`` seconds (and at least
``MIN_OPS`` operations) and prints the end-to-end metrics. Op latencies
and set-up times are scaled to a reference host speed with the probe in
``hostspeed.py``; the unscaled figures are printed beside them.
``--trace 1`` runs an untraced pass for half the time, replays the same
units under the outside-in tracer (``layertrace.py``), prints the per-layer
metrics and writes the spans to ``perfbench/out/``. ``--seconds 0`` is the
tiny mode of the smoke test: one unit and one set-up sample.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation fails
if it raises, exits non-zero or fails its check; ``correct`` is false when
any operation returned a result that failed its check or fingerprint.
"""

from __future__ import annotations

import os

# pin the native thread pools before numpy loads
THREAD_PINS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100  # at least ten samples beyond p90
SETUP_REPS = 5

END_TO_END_UNITS = {
    "throughput": "op/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in ((".self_s", "s"), (".us_p50", "us"), (".ms_p50", "ms"),
                         (".result_bytes_per_step", "B"), (".self_share", "ratio"),
                         (".useful_ratio", "ratio"), (".overhead_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fingerprints", type=Path, default=HERE / "fingerprints.json",
                   help="stored fingerprint table (the smoke test passes a corrupted copy)")
    p.add_argument("--setup-only", action="store_true",
                   help="import, generate inputs, warm up, print 'ready' and exit; "
                        "the set-up samples of a run are child processes in this mode")
    return p.parse_args(argv)


def provenance(np) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pins": THREAD_PINS,
    }


def setup_seconds(args, host, reps: int) -> list[float]:
    """Process start to ready-for-the-first-timed-op, in fresh processes,
    scaled to the reference host speed by the probes each child takes
    between its set-up stages (their own time is left out)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0",
           "--fingerprints", str(args.fingerprints), "--setup-only"]
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = perf_counter()
            try:
                _, err = child.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                child.kill()
                _, err = child.communicate()
        word, *probe = line.split() or [""]
        if child.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up child failed ({child.returncode}): {err.strip()}")
        probe_ms, probe_s = map(float, probe)
        samples.append((ready - t0 - probe_s) * host.scale(probe_ms, probe_ms))
    return samples


def run_units(workload, host, seconds: float = 0.0, min_ops: int = 0,
              units: int | None = None):
    """Run units in plan order, probing host speed between them.

    Stops after ``units`` units if given, otherwise once ``seconds`` have
    passed and ``min_ops`` ops ran. Returns ([(scaled_s, raw_s, outcome)],
    units run).
    """
    ops, done = [], 0
    before = host.sample()
    start = perf_counter()
    while done < workload.units():
        result = workload.run_unit(done)
        done += 1
        after = host.sample()
        scale = host.scale(before, after)
        ops += [(raw * scale, raw, outcome) for raw, outcome in result]
        before = after
        if units is not None:
            if done >= units:
                break
        elif (done % workload.stride == 0 and len(ops) >= min_ops
              and perf_counter() - start >= seconds):
            break
    return ops, done


def end_to_end(np, ops, setup: list[float]) -> dict[str, float]:
    lat = np.array([x for x, _, _ in ops])
    ok = sum(1 for _, _, o in ops if o == "ok")
    return {
        "throughput": ok / lat.sum(),
        "op_ms.p50": float(np.percentile(lat, 50)) * 1e3,
        "op_ms.p90": float(np.percentile(lat, 90)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
        "ok_frac": ok / len(ops),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smflow" / "__init__.py").is_file():
        print(f"error: the smflow sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import hostspeed

    host = hostspeed.HostSpeed()
    host.sample()

    import layertrace
    import workloads

    host.sample()

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tiny = args.seconds <= 0
    fingerprints = workloads.Fingerprints(args.fingerprints)
    tracer = layertrace.Tracer()
    scratch = OUT / f"tmp-{os.getpid()}"

    if args.setup_only:
        w = workloads.WORKLOADS[args.workload](args.seed, fingerprints, tracer, scratch)
        try:
            host.sample()
            w.warm_up()
        finally:
            w.close()
        host.sample()
        # the parent subtracts the probe time and scales by the mean probe
        print(f"ready {statistics.mean(host.samples)!r} {host.spent_s!r}", flush=True)
        return 0

    info = provenance(np)
    if not args.trace:
        setup = setup_seconds(args, host, 1 if tiny else SETUP_REPS)
    min_ops = 0 if tiny else MIN_OPS

    w = workloads.WORKLOADS[args.workload](args.seed, fingerprints, tracer, scratch)
    try:
        w.warm_up()
        if args.trace:
            untraced, units = run_units(w, host, args.seconds / 2, min_ops)
            tracer.install()
            try:
                traced, _ = run_units(w, host, units=units)
            finally:
                tracer.uninstall()
            ops = untraced + traced
            metrics = layertrace.layer_metrics(
                tracer, len(traced), sum(x for x, _, _ in traced),
                sum(x for x, _, _ in untraced))
        else:
            ops, units = run_units(w, host, args.seconds, min_ops)
            metrics = end_to_end(np, ops, setup)
    finally:
        w.close()
    info["probe_ms"] = {"reference": hostspeed.REFERENCE_PROBE_MS,
                        "median": statistics.median(host.samples),
                        "min": min(host.samples), "max": max(host.samples)}

    attempted = len(ops)
    failed = sum(1 for _, _, o in ops if o != "ok")
    wrong = sum(1 for _, _, o in ops if o == "wrong")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {units} units, {failed} failed "
          f"(fail_frac {failed / attempted:.4f}), {wrong} wrong, raised {w.errors}")
    print("provenance " + json.dumps(info, sort_keys=True))
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "provenance": info, "metrics": metrics})
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        units_of = per_layer_unit
    else:
        beyond = sum(1 for x, _, _ in ops if x * 1e3 > metrics["op_ms.p90"])
        raw = np.array([r for _, r, _ in ops])
        print(f"latency samples {attempted}, {beyond} beyond p90; unscaled: "
              f"throughput {(attempted - failed) / raw.sum():.6g} op/s, "
              f"p50 {np.percentile(raw, 50) * 1e3:.6g} ms, "
              f"p90 {np.percentile(raw, 90) * 1e3:.6g} ms")
        units_of = END_TO_END_UNITS.get
    for name, value in metrics.items():
        print(f"  {name:56s} {value:14.6g} {units_of(name)}")
    if not args.trace:
        # the JSON carries ok_frac = 1 - fail_frac, as a metric may not read 0
        print(f"  {'fail_frac':56s} {failed / attempted:14.6g} ratio")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
