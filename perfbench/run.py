"""Seeded benchmark of dfrc: end-to-end metrics per workload, per-layer when traced.

Run from the repository root:

    python3 perfbench/run.py --workload verify_corpus --seed 1 --seconds 20 --trace 0

Workloads are verify_corpus, design_sweep and cli_reference (see
perfbench/README.md). Each is a closed loop with one client in one process.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes an untraced
and a traced pass of half the time each and prints the per-layer metrics.
Latency figures are scaled to a reference machine speed measured by the
speed probe in machine.py, interleaved with the ops (see README.md).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable summary
with the environment, the tail percentile and the result hash. Spans and a
full record of the run go to .perfbench_work/ under the repository root.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from machine import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("verify_corpus", "design_sweep", "cli_reference")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
FIXED_GRID_SIDE = 1001
FIXED_FALSIFIER_DRAWS = 200_000
FIXED_REPEATS = 5
# the speed probe's time, as a share of the rest of a timed loop
PROBE_SHARE = 0.1
# the probe's median time on the baseline machine; latency figures are
# scaled to the machine speed at which the probe takes this long
PROBE_REFERENCE_S = 8.4e-3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one cold set-up (import, inputs, one op) in a fresh process
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Checks:
    """Attempted and failed op counts, and per-item digests for the result hash.

    An item's digest must be the same every time the item runs; a change
    counts as a failed op.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def run(self, workload, k, op):
        """Run ``op()`` (item ``k``), check it; returns its duration or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            out = op()
            elapsed = time.perf_counter() - start
            ok, digest = workload.check(k, out)
        except Exception:  # a failing op is counted and reported, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        seen = self.digests.setdefault((workload.name, k), digest)
        if not ok or seen != digest:
            self.failed += 1
        return elapsed

    def result_hash(self, workload):
        keys = sorted(k for name, k in self.digests if name == workload.name)
        h = hashlib.sha256()
        for k in keys:
            h.update(self.digests[(workload.name, k)].encode())
        return f"sha256:{h.hexdigest()} over {len(keys)}/{len(workload.items)} items"


def measure(workload, seconds, checks, probe, tracer=None):
    """Closed loop: ops back to back until ``seconds`` pass and a pass ends.

    After each op the speed probe runs until its time is PROBE_SHARE of
    the loop's other time. Returns {item: [op durations in s]} for the ops that
    succeeded, and the probe's median time in s.
    """
    n_items = len(workload.items)
    durations = {}
    probe.reset()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i % n_items or time.perf_counter() < deadline:
        k = i % n_items
        if tracer is None:
            op = lambda: workload.run(k)
        else:
            op = lambda: tracer.run_op(i, workload.run, k)
        elapsed = checks.run(workload, k, op)
        if elapsed is not None:
            durations.setdefault(k, []).append(elapsed)
        probe.keep_up(time.perf_counter() - start - probe.spent)
        i += 1
    return durations, probe.median()


def _band_mean(ordered, lo, hi):
    """Mean of the sorted values ranked from ``lo`` to ``hi`` (shares), at least one."""
    n = len(ordered)
    i = min(int(lo * n), n - 1)
    j = max(math.ceil(hi * n), i + 1)
    return statistics.fmean(ordered[i:j])


def latency_summary(durations, probe_s):
    """End-to-end latency figures from {item: [seconds]} and the probe's median.

    On a shared machine the speed available to the benchmark drifts by
    10-30% over minutes, which a run of half a minute cannot average out.
    The figures are therefore scaled to a fixed machine speed: each op time
    is multiplied by PROBE_REFERENCE_S / ``probe_s``, the speed probe's
    reference time over its median in the same loop. Throughput and the
    percentiles use each item's median time, as load from elsewhere also
    slows single seconds of ops by up to 2x: ``ops_per_s`` is one over the
    mean of the item medians. A single order statistic of 120 items moves
    with the one item that lands on it, so ``op_p50_ms`` is the mean of the
    middle fifth of the item medians (the median itself for a few items)
    and ``op_tail_ms`` the mean of the slowest tenth (the slowest item for
    fewer than ten). The unscaled throughput, the median and tail of all
    ops - the tail being the highest percentile with at least 10 ops beyond
    it - and the probe's median are kept for the summary line.
    """
    if not durations:
        raise SystemExit("perfbench: every timed op failed; see the tracebacks above")
    scale = PROBE_REFERENCE_S / probe_s
    item_medians = sorted(statistics.median(v) for v in durations.values())
    ordered = sorted(d for v in durations.values() for d in v)
    n = len(ordered)
    rank = max(n - 11, 0)
    raw_ops_per_s = len(item_medians) / sum(item_medians)
    return {
        "ops_per_s": raw_ops_per_s / scale,
        "op_p50_ms": _band_mean(item_medians, 0.4, 0.6) * scale * 1e3,
        "op_tail_ms": _band_mean(item_medians, 0.9, 1.0) * scale * 1e3,
        "probe_ms": probe_s * 1e3,
        "raw_ops_per_s": raw_ops_per_s,
        "raw_p50_ms": statistics.median(ordered) * 1e3,
        "raw_tail_ms": ordered[rank] * 1e3,
        "raw_tail_percentile": 100.0 * (rank + 1) / n,
        "samples": n,
    }


def setup_seconds(args, checks):
    """Median wall time of fresh processes that import, build inputs and run one op.

    The probes' outputs are not checked (the timed ops are); a probe that
    crashes counts as a failed op.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=170)
        times.append(time.perf_counter() - start)
        checks.attempted += 1
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            checks.failed += 1
    return statistics.median(times)


def _timed_median(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fixed_kernel_calls():
    """The 1001^2 grid scan and 2e5-draw falsifier of the reference scenario, in ms."""
    import dfrc
    from dfrc import kernels

    sc = dfrc.Scenario.with_los_user(dfrc.ArrayGeometry(10, 0.5), math.radians(-30.0), 0.0, 1.0)
    gamma = 5.0
    g = sc.cross_gain
    grid_args = (
        np.linspace(0.0, math.sqrt(sc.power_budget / sc.channel_norm_sq), FIXED_GRID_SIDE),
        np.linspace(0.0, 2.0 * math.pi, FIXED_GRID_SIDE, endpoint=False),
        float(np.angle(g)),
        sc.power_budget,
        gamma,
        sc.channel_norm_sq,
        sc.steering_norm_sq,
        abs(g),
        True,
    )
    falsifier_args = (0, FIXED_FALSIFIER_DRAWS, sc.channel, sc.target_steering, sc.power_budget, gamma)
    out = {}
    for metric, attr, fn_args in (
        ("kernels.grid_scan_1001sq_ms", "grid_scan", grid_args),
        ("kernels.falsifier_2e5_ms", "falsifier_scan", falsifier_args),
    ):
        fn = getattr(kernels, attr, None)
        if fn is None:
            continue  # deleted: reported as absent
        try:
            out[metric] = (_timed_median(lambda: fn(*fn_args), FIXED_REPEATS) * 1e3, "ms")
        except TypeError:
            continue  # signature changed: reported as absent
    return out


def cli_startup():
    """Bare interpreter start and the extra cost of ``import dfrc.cli``, in ms."""
    import workloads

    env = workloads.child_env(ROOT)

    def spawn(code):
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
            timeout=60, check=True,
        )

    bare = _timed_median(lambda: spawn("pass"), STARTUP_REPEATS)
    with_cli = _timed_median(lambda: spawn("import dfrc.cli"), STARTUP_REPEATS)
    return {
        "cli.interpreter_ms": (bare * 1e3, "ms"),
        "cli.import_ms": ((with_cli - bare) * 1e3, "ms"),
    }


def _blas_threads():
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def environment(args):
    import dfrc

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dfrc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel_path_numba": getattr(dfrc, "NUMBA_ENABLED", "absent"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def _peak_rss_mb(who):
    # ru_maxrss is in KiB on Linux; for children it is the largest one
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(args, workload, checks, report, probe):
    summary = latency_summary(*measure(workload, args.seconds, checks, probe))
    report["latency"] = summary
    children = workload.name == "cli_reference"
    rss = _peak_rss_mb(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return {
        "setup_s": (report["setup_s"], "s"),
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "op_p50_ms": (summary["op_p50_ms"], "ms"),
        "op_tail_ms": (summary["op_tail_ms"], "ms"),
        "ok_frac": ((checks.attempted - checks.failed) / checks.attempted, "fraction"),
        "peak_rss_mb": (rss, "MB"),
    }


def run_traced(args, workload, checks, report, probe):
    import tracing
    import workloads

    metrics = fixed_kernel_calls()
    metrics.update(cli_startup())
    if workload.name == "cli_reference":
        # a third of the time with each command as its own process, for the
        # per-command times; then the untraced and traced passes call
        # dfrc.cli.main in-process, so that their ratio is the tracer's cost
        part = args.seconds / 3.0
        for samples in workload.command_ms.values():
            samples.clear()
        measure(workload, part, checks, probe)
        command_ms = {cmd: statistics.median(v) for cmd, v in workload.command_ms.items()}
        workload.in_process = True
        checks.run(workload, 0, lambda: workload.run(0))  # warm-up in-process
    else:
        part = args.seconds / 2.0
        command_ms = dict.fromkeys(workloads.COMMANDS, 0.0)
    for cmd, value in command_ms.items():
        metrics[f"cli_{cmd}_ms"] = (value, "ms")
    untraced = latency_summary(*measure(workload, part, checks, probe))
    tracer = tracing.Tracer()
    tracer.install()
    traced = latency_summary(*measure(workload, part, checks, probe, tracer))
    buckets, ops, max_err = tracing.aggregate(tracer.spans)
    metrics.update(tracing.layer_metrics(buckets, ops, tracer.missing))
    overhead = untraced["ops_per_s"] / traced["ops_per_s"]
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    tracer.write(WORK / f"spans-{workload.name}.jsonl")
    report["trace"] = {
        "spans": len(tracer.spans),
        "ops": ops,
        "missing_targets": tracer.missing,
        "max_self_sum_error_s": max_err,
        "probe_ms": {"untraced": untraced["probe_ms"], "traced": traced["probe_ms"]},
    }
    # the self times of each op's spans must add up to the op's duration
    report["trace_ok"] = max_err <= 1e-9
    return metrics


def main(argv=None):
    args = _parse_args(argv)
    needed = ("src/dfrc/__init__.py", "configs/reference.yaml")
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a dfrc checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    if args.setup_probe:
        import workloads

        workloads.make(args.workload, args.seed, WORK, ROOT).run(0)
        return 0

    report = {}
    checks = Checks()
    if not args.trace:
        report["setup_s"] = setup_seconds(args, checks)
    import dfrc
    import workloads

    if not Path(dfrc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported dfrc from {dfrc.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    report["env"] = environment(args)
    workload = workloads.make(args.workload, args.seed, WORK, ROOT)
    # warm-up: one pass over the items, so caches and allocations settle
    # before timing (the set-up probes time a single cold op instead)
    for k in range(len(workload.items)):
        checks.run(workload, k, lambda: workload.run(k))
    run = run_traced if args.trace else run_untraced
    with SpeedProbe(PROBE_SHARE) as probe:
        metrics = run(args, workload, checks, report, probe)

    report["result_hash"] = checks.result_hash(workload)
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    correct = checks.failed == 0 and report.get("trace_ok", True)
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": report["metrics"],
    }
    record = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, **report}, indent=2) + "\n", encoding="utf-8")

    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    if "latency" in report:
        lat = report["latency"]
        print(
            f"speed probe median = {lat['probe_ms']!r} ms (reference {PROBE_REFERENCE_S * 1e3!r} ms); "
            f"unscaled: ops_per_s = {lat['raw_ops_per_s']!r} 1/s, p50 of all ops = "
            f"{lat['raw_p50_ms']!r} ms, tail p{lat['raw_tail_percentile']:.2f} = "
            f"{lat['raw_tail_ms']!r} ms over {lat['samples']} ops"
        )
    if "trace" in report:
        print(f"trace {json.dumps(report['trace'], sort_keys=True)}")
    print(f"failed_frac = {checks.failed / checks.attempted!r} ({checks.failed}/{checks.attempted})")
    print(f"result_hash {workload.name} {report['result_hash']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
