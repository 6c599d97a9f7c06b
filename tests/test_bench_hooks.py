"""The benchmark's tracer finds every program function it hooks.

``perfbench/tracing.py`` wraps solver, linalg, oracle, gcd, mmio and
structure functions by name; a renamed or deleted target would otherwise
only show up as a missing hook in a benchmark run.
"""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_every_benchmark_hook_has_a_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert tracer._undo
    finally:
        tracer.uninstall()
