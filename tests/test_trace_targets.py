"""The benchmark's per-layer trace wraps public functions of mmrec by name
(``perfbench/tracing.py``'s ``TARGETS``). A renamed or deleted target breaks
only ``perfbench/run.py --trace 1``, which the tier-1 suite does not run, so
this test resolves every target here."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _tracing()
    assert tracing.TARGETS
    missing = []
    for module_name, class_name, attr in tracing.TARGETS:
        owner = importlib.import_module(f"mmrec.{module_name}")
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module_name}.{class_name or ''}.{attr}")
    assert not missing, f"trace targets missing from mmrec: {missing}"
    for module_name in tracing.SCANNED:
        importlib.import_module(f"mmrec.{module_name}")
