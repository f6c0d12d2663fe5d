"""The benchmark's tracer and fixed kernel calls still fit the package.

``perfbench/tracing.py`` wraps the functions named in its ``TARGETS`` list
and binds their call arguments by name for its counters; ``perfbench/run.py``
calls ``grid_scan`` and ``falsifier_scan`` with positional arguments. When a
renamed function or parameter breaks either, the benchmark does not fail: the
per-layer metric is silently reported as absent. These tests read both files
as they are (nothing is edited or installed) and fail instead.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HINT = "a per-layer metric in BENCHMARK.json's per_layer list would read as absent"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Any:
    """Stands in for any argument value or result a counter reads."""

    def __len__(self):
        return 1

    def __int__(self):
        return 1

    def __getitem__(self, key):
        return self

    def __getattr__(self, name):
        return self

    def __fspath__(self):
        return __file__


class _ReadKeys(dict):
    """Bound-arguments mapping that records which parameter names are read."""

    def __init__(self):
        super().__init__()
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return _Any()


def test_every_target_exists_and_its_counter_binds():
    counted = set()
    for module_name, attr, counter in _load("tracing").TARGETS:
        label = f"{module_name}.{attr}"
        target = getattr(importlib.import_module(module_name), attr, None)
        assert target is not None, f"tracer target {label} is gone; {HINT}"
        if counter is None:
            continue
        args = _ReadKeys()
        counter(args, _Any())
        params = inspect.signature(target).parameters
        for name in args.read:
            assert name in params, (
                f"tracer counter of {label} reads parameter {name!r}, which "
                f"{label}{inspect.signature(target)} no longer has; {HINT}"
            )
        counted.update(args.read)
    # the counters that read arguments at all: a rename must show up here
    assert counted == {"vector_c", "amps", "phases", "trials"}


def test_fixed_kernel_calls_bind(monkeypatch):
    # run.py imports its sibling machine.py by its plain name
    monkeypatch.setitem(sys.modules, "machine", _load("machine"))
    run = _load("run")
    metrics = run.fixed_kernel_calls()
    for name in ("kernels.grid_scan_1001sq_ms", "kernels.falsifier_2e5_ms"):
        assert name in metrics, (
            f"perfbench/run.py's positional call behind {name} no longer binds; {HINT}"
        )
        assert metrics[name][0] > 0.0
