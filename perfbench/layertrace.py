"""Outside-in tracer for the smflow layers.

The tracer changes no file of the package. It replaces, for the length of
a traced phase, every module-level binding of each public function of the
layer modules with a recording wrapper, and does the same for the
``SpectralGrid`` methods. Modules import each other with ``from .x import
y``, so a function is rebound in every module that holds it, not only in
the module that defines it; calls made through any binding are recorded.

Spans stay in memory as tuples and are reduced to per-layer numbers (and
written to disk) only after the traced phase ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from time import perf_counter_ns

import numpy as np

LAYERS = ("spectral", "geometry", "flow_direct", "holonomy",
          "frame_reduction", "nls_solver", "cli")
GRID_METHODS = ("derivative", "integrate", "cumulative_integral", "upsample",
                "shift")


class Tracer:
    """Records one span per call into a layer: (name, op, parent, start,
    end, raised). ``op`` is the id of the benchmark operation the call
    belongs to; the workload sets it before each operation."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.result_bytes: list[tuple[int, int]] = []
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"smflow.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("smflow.") or home not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{home}.{obj.__name__}")
                self._patch(module, attr, wrappers[obj])
        grid_cls = importlib.import_module("smflow.spectral").SpectralGrid
        for method in GRID_METHODS:
            original = grid_cls.__dict__[method]
            self._patch(grid_cls, method, self._wrap(original, f"spectral.{method}"))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def paused(self):
        """Benchmark-side checks run inside this block and are not traced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        # coupled_evolve returns the whole run history; its size per step is
        # the memory figure the trace reports for that layer
        keep_bytes = name == "frame_reduction.coupled_evolve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            raised = 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, self.op, parent, start, end, raised)
            if keep_bytes:
                self.result_bytes.append(_history_bytes(result))
            return result

        return traced

    # -- reduction ----------------------------------------------------------

    def table(self) -> np.ndarray:
        """Spans as an int64 array with columns name, op, parent, start,
        end, raised."""
        return np.asarray(self.spans, dtype=np.int64).reshape(-1, 6)

    def write(self, path, extra):
        """Dump the raw spans and the reduced figures as one JSON file."""
        t = self.table()
        payload = dict(extra)
        payload["names"] = self.names
        payload["columns"] = ["name", "op", "parent", "start_ns", "end_ns", "raised"]
        payload["spans"] = t.tolist()
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _history_bytes(result) -> tuple[int, int]:
    """(bytes of the arrays a coupled run returns, steps in the run)."""
    arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays), len(result.times) - 1


def layer_metrics(tracer: Tracer, n_ops: int, traced_s: float,
                  untraced_s: float) -> dict[str, float]:
    """Per-layer and per-function figures of one traced phase.

    Self time is a span's duration minus that of its direct children.
    A layer's ``calls`` count entries into the layer from outside it (from
    the benchmark or another layer). Its ``failures`` count the calls that
    raised an exception which no call within the same layer raised first:
    an error is counted once in each layer it passes through.
    """
    t = tracer.table()
    names = tracer.names
    name_col, parent, raised = t[:, 0], t[:, 2], t[:, 5]
    dur = (t[:, 4] - t[:, 3]).astype(float) * 1e-9
    child = np.zeros(len(t))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    layer_of_name = np.array([LAYERS.index(n.partition(".")[0]) for n in names],
                             dtype=np.int64)
    layer = layer_of_name[name_col] if len(t) else np.zeros(0, dtype=np.int64)
    entry = ~has_parent
    entry[has_parent] = layer[parent[has_parent]] != layer[has_parent]
    passed_on = np.zeros(len(t), dtype=bool)
    inner = has_parent & ~entry & (raised == 1)
    passed_on[parent[inner]] = True
    origin = (raised == 1) & ~passed_on
    total_self = float(self_s.sum()) or 1.0

    out: dict[str, float] = {}
    for i, name in enumerate(LAYERS):
        mine = layer == i
        out[f"{name}.self_s"] = float(self_s[mine].sum())
        out[f"{name}.self_share"] = float(self_s[mine].sum()) / total_self
        out[f"{name}.calls"] = int(np.count_nonzero(mine & entry))
        out[f"{name}.failures"] = int(np.count_nonzero(mine & origin))

    def of(fn):
        return name_col == names.index(fn) if fn in names else np.zeros(len(t), bool)

    def calls(fn):
        return int(np.count_nonzero(of(fn)))

    def per_op(fn):
        return calls(fn) / n_ops if n_ops else 0.0

    def p50(fn, scale):
        d = dur[of(fn)]
        return float(np.median(d)) * scale if d.size else 0.0

    def fn_self(fn):
        return float(self_s[of(fn)].sum())

    steps, rhs = calls("flow_direct.step"), calls("flow_direct.flow_rhs")
    stored = [b / s for b, s in tracer.result_bytes if s > 0]
    out.update({
        "spectral.derivative.calls_per_op": per_op("spectral.derivative"),
        "spectral.derivative.self_s": fn_self("spectral.derivative"),
        "flow_direct.step.us_p50": p50("flow_direct.step", 1e6),
        "flow_direct.tension.self_s": fn_self("flow_direct.tension"),
        "flow_direct.flow_rhs.calls_per_op": per_op("flow_direct.flow_rhs"),
        "flow_direct.flow_rhs.useful_ratio": 4.0 * steps / rhs if rhs else 0.0,
        "geometry.loop_frame.self_s": fn_self("geometry.loop_frame"),
        "geometry.loop_frame.ms_p50": p50("geometry.loop_frame", 1e3),
        "frame_reduction.parallel_frame.ms_p50": p50("frame_reduction.parallel_frame", 1e3),
        "holonomy.product_integral.calls_per_op": per_op("holonomy.product_integral"),
        "holonomy.product_integral.self_s": fn_self("holonomy.product_integral"),
        "holonomy.x_independence_check.ms_p50": p50("holonomy.x_independence_check", 1e3),
        "geometry.christoffel_at.calls_per_op": per_op("geometry.christoffel_at"),
        "frame_reduction.reconstruct_loop.self_s": fn_self("frame_reduction.reconstruct_loop"),
        "cli.run_scenario.self_s": fn_self("cli.run_scenario"),
        "nls_solver.split_step.us_p50": p50("nls_solver.split_step", 1e6),
        "frame_reduction.coupled_evolve.result_bytes_per_step":
            float(np.mean(stored)) if stored else 0.0,
        "geometry.reference_connection.failures":
            int(np.count_nonzero(of("geometry.reference_connection") & (raised == 1))),
        "holonomy.holonomy_ode.failures":
            int(np.count_nonzero(of("holonomy.holonomy_ode") & (raised == 1))),
        "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0,
    })
    return out
