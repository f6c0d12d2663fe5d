"""Span tracing of dfrc from the outside, and the per-layer metrics it yields.

The tracer replaces each public function named in ``TARGETS`` with a wrapper
at every place it is bound in a loaded ``dfrc`` module (``dfrc.sweep`` holds
its own reference to ``solve_closed_form``, for example), so calls between
modules are timed without touching the package source. A class target has
its ``__init__`` wrapped instead, so ``isinstance`` checks keep working.

Each span records its name, start, end, parent span and op id. Spans stay in
memory and are written once, at the end of the run. A span's self time is
its duration minus the durations of its direct children; since calls are
nested and single-threaded, the self times of one op's spans sum to the
op's own duration.
"""

import inspect
import json
import os
import sys
import time

# (module, attribute, counter) - counter maps the bound call arguments and
# the result to extra per-span counts, or is None
TARGETS = [
    ("dfrc.model", "Scenario", None),
    ("dfrc.model", "resolve_radar_spec", None),
    ("dfrc.closed_form", "solve_closed_form", None),
    (
        "dfrc.closed_form",
        "assemble_covariance",
        lambda a, r: {"bytes": 16 * len(a["vector_c"]) ** 2},
    ),
    ("dfrc.closed_form", "optimal_received_power", None),
    ("dfrc.metrics", "beam_pattern", lambda a, r: {"points": int(r.power.size)}),
    ("dfrc.sweep", "tradeoff_sweep", None),
    ("dfrc.sweep", "beampattern_sweep", None),
    ("dfrc.sweep", "emit_csv", lambda a, r: {"bytes": os.path.getsize(r)}),
    ("dfrc.oracle", "grid_search_oracle", None),
    ("dfrc.oracle", "kkt_check", None),
    ("dfrc.oracle", "random_falsifier", None),
    (
        "dfrc.kernels",
        "grid_scan",
        lambda a, r: {"points": len(a["amps"]) * len(a["phases"])},
    ),
    (
        "dfrc.kernels",
        "falsifier_scan",
        lambda a, r: {"draws": int(a["trials"]), "feasible": int(r[2])},
    ),
    ("dfrc.kernels", "eval_candidates", None),
    ("dfrc.verify", "run_verification", None),
    ("dfrc.cli", "load_config", None),
    ("dfrc.cli", "main", None),
]

# eval_candidates is charged to the layer that called it: inside grid_scan it
# is part of the scan, directly under grid_search_oracle it is the refine step
_EVAL_BUCKETS = {"kernels.grid_scan": "kernels.grid_scan", "oracle.grid_search_oracle": "oracle.refine"}

OP_SPAN = "op"


class Tracer:
    """Records nested spans; ``install`` wires it into the loaded dfrc modules."""

    def __init__(self):
        self.spans = []  # (name, parent index, op id, start, end, counts)
        self.missing = []
        self._stack = []
        self._op = None

    def span(self, name, fn, counter=None, signature=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)  # reserved, so children can name their parent
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # a tuple of plain values, which the garbage collector stops tracking
                spans[index] = (label, parent, self._op, start, end, None)
            if counter is not None:
                try:
                    counts = counter(signature.bind(*args, **kwargs).arguments, result)
                except (KeyError, TypeError, AttributeError, IndexError, OSError):
                    counts = None  # the function changed shape; its counter reads as absent
                spans[index] = spans[index][:5] + (counts,)
            return result

        return traced

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op as a root span; returns fn's result."""
        self._op = op_id
        try:
            return self.span(OP_SPAN, fn)(*args)
        finally:
            self._op = None

    def install(self):
        """Wrap every target at every binding; record absent targets."""
        modules = [m for n, m in list(sys.modules.items()) if n == "dfrc" or n.startswith("dfrc.")]
        for module_name, attr, counter in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            label = f"{module_name.split('.', 1)[1]}.{attr}"
            if original is None:
                self.missing.append(label)
                continue
            if isinstance(original, type):
                init = original.__init__
                original.__init__ = self.span(label, init)
                continue
            if attr == "main":
                # one span name per subcommand: cli.main.solve, cli.main.verify, ...
                name = lambda a, k, _l=label: f"{_l}.{(a[0] if a else k['argv'])[0]}"
            else:
                name = label
            sig = inspect.signature(original) if counter is not None else None
            wrapper = self.span(name, original, counter, sig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, op, start, end, counts) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, op, start, end, counts]) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _bucket(spans, index):
    name, parent = spans[index][0], spans[index][1]
    if name == "kernels.eval_candidates" and parent is not None:
        return _EVAL_BUCKETS.get(spans[parent][0], name)
    return name


def aggregate(spans):
    """Totals per bucket plus the self-time closure check per op.

    Returns (buckets, ops, max_err): buckets maps a span name to
    {"self": seconds, "calls": n, <counter>: sum}; ops is the number of
    op root spans; max_err is the largest |sum of self times - op duration|
    over ops, in seconds.
    """
    own = self_times(spans)
    buckets = {}
    per_op_self = {}
    op_duration = {}
    for i, (name, _, op, start, end, counts) in enumerate(spans):
        if name == OP_SPAN:
            op_duration[op] = end - start
        per_op_self[op] = per_op_self.get(op, 0.0) + own[i]
        b = buckets.setdefault(_bucket(spans, i), {"self": 0.0, "calls": 0})
        b["self"] += own[i]
        b["calls"] += 1
        for key, value in (counts or {}).items():
            b[key] = b.get(key, 0) + value
    max_err = max(
        (abs(per_op_self.get(op, 0.0) - d) for op, d in op_duration.items()), default=0.0
    )
    return buckets, len(op_duration), max_err


# per-layer metric -> (bucket, field, scale, unit); values are per op unless
# the field is a ratio
_PER_OP = [
    ("kernels.grid_scan.self_ms", "kernels.grid_scan", "self", 1e3, "ms"),
    ("kernels.grid_scan.points", "kernels.grid_scan", "points", 1, "count"),
    ("kernels.falsifier_scan.self_ms", "kernels.falsifier_scan", "self", 1e3, "ms"),
    ("kernels.falsifier_scan.draws", "kernels.falsifier_scan", "draws", 1, "count"),
    ("oracle.grid_search_oracle.self_ms", "oracle.grid_search_oracle", "self", 1e3, "ms"),
    ("oracle.refine.eval_calls", "oracle.refine", "calls", 1, "count"),
    ("oracle.refine.ms", "oracle.refine", "self", 1e3, "ms"),
    ("oracle.kkt_check.self_us", "oracle.kkt_check", "self", 1e6, "us"),
    ("oracle.random_falsifier.self_ms", "oracle.random_falsifier", "self", 1e3, "ms"),
    ("verify.run_verification.self_ms", "verify.run_verification", "self", 1e3, "ms"),
    ("closed_form.solve_closed_form.self_us", "closed_form.solve_closed_form", "self", 1e6, "us"),
    ("closed_form.solve_closed_form.calls", "closed_form.solve_closed_form", "calls", 1, "count"),
    ("closed_form.assemble_covariance.self_us", "closed_form.assemble_covariance", "self", 1e6, "us"),
    ("closed_form.assemble_covariance.bytes", "closed_form.assemble_covariance", "bytes", 1, "B"),
    (
        "closed_form.optimal_received_power.self_us",
        "closed_form.optimal_received_power",
        "self",
        1e6,
        "us",
    ),
    ("model.Scenario.self_us", "model.Scenario", "self", 1e6, "us"),
    ("model.resolve_radar_spec.self_us", "model.resolve_radar_spec", "self", 1e6, "us"),
    ("metrics.beam_pattern.self_ms", "metrics.beam_pattern", "self", 1e3, "ms"),
    ("metrics.beam_pattern.points", "metrics.beam_pattern", "points", 1, "count"),
    ("sweep.tradeoff_sweep.self_ms", "sweep.tradeoff_sweep", "self", 1e3, "ms"),
    ("sweep.beampattern_sweep.self_ms", "sweep.beampattern_sweep", "self", 1e3, "ms"),
    ("sweep.emit_csv.self_ms", "sweep.emit_csv", "self", 1e3, "ms"),
    ("sweep.emit_csv.bytes", "sweep.emit_csv", "bytes", 1, "B"),
    ("cli.load_config_us", "cli.load_config", "self", 1e6, "us"),
    ("cli.main.solve.self_ms", "cli.main.solve", "self", 1e3, "ms"),
    ("cli.main.sweep.self_ms", "cli.main.sweep", "self", 1e3, "ms"),
    ("cli.main.beampattern.self_ms", "cli.main.beampattern", "self", 1e3, "ms"),
    ("cli.main.verify.self_ms", "cli.main.verify", "self", 1e3, "ms"),
    ("trace.unattributed_ms", OP_SPAN, "self", 1e3, "ms"),
]

# ratio metric -> (bucket, numerator field, numerator scale, denominator field, unit)
_RATIOS = [
    ("kernels.grid_scan.mpts_per_s", "kernels.grid_scan", "points", 1e-6, "self", "Mpt/s"),
    ("kernels.falsifier_scan.mdraws_per_s", "kernels.falsifier_scan", "draws", 1e-6, "self", "Mdraw/s"),
    ("kernels.falsifier_scan.feasible_frac", "kernels.falsifier_scan", "feasible", 1, "draws", "fraction"),
]


def layer_metrics(buckets, ops, missing):
    """Per-layer metrics from aggregated spans; a missing target's metrics are omitted.

    A layer that the workload never calls reads 0 (it was measured and did
    nothing); a layer whose function no longer exists is absent.
    """
    absent = set(missing)
    if "cli.main" in absent:
        absent.update(f"cli.main.{c}" for c in ("solve", "sweep", "beampattern", "verify"))
    if "kernels.eval_candidates" in absent or "oracle.grid_search_oracle" in absent:
        absent.add("oracle.refine")
    out = {}
    for metric, bucket, field, scale, unit in _PER_OP:
        if bucket in absent:
            continue
        b = buckets.get(bucket, {})
        if field not in b and b.get("calls"):
            continue  # the counter itself could not be taken
        out[metric] = (b.get(field, 0) * scale / ops, unit)
    for metric, bucket, num, scale, den, unit in _RATIOS:
        if bucket in absent:
            continue
        b = buckets.get(bucket, {})
        if b.get("calls") and (num not in b or den not in b):
            continue
        out[metric] = (b[num] * scale / b[den] if b.get(den) else 0.0, unit)
    return out
