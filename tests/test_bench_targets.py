"""The benchmark's trace targets name functions that exist in the library.

bench/tracing.py wraps each entry of TARGETS; a target that a refactor
renames or moves is skipped there and makes a traced run report
`correct: false`.  This test reads bench/ only and catches that here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    tracing = _tracing()
    missing = []
    for modname, owner, attr, _ in tracing.TARGETS:
        module = importlib.import_module(f"framedyn.{modname}")
        target = module if owner is None else vars(module).get(owner)
        if (target is None or attr not in vars(target)
                or tracing.raw_attribute(target, attr) is None):
            missing.append(f"{modname}.{owner or ''}.{attr}")
    assert not missing, missing
