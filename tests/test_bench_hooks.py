"""The benchmark's tracer finds every program function it hooks.

``perfbench/tracing.py`` wraps solver, linalg, oracle, gcd, mmio and
structure functions by name; a renamed or deleted target would otherwise
only show up as a missing hook in a benchmark run.
"""

import importlib.util
import os

import numpy as np
import pytest

from singdist import BasisStructure, FullStructure, SparsityPattern, StructureError

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")

#: structure ops that call other traced ops, with the spans one call records;
#: none do, so every op records exactly one span
NESTED_SPANS = {}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_benchmark_hook_has_a_target():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert tracer._undo
    finally:
        tracer.uninstall()


def test_each_structure_op_records_one_span_and_uninstall_restores_classes():
    # FullStructure inherits its operators from SparsityPattern; a method
    # wrapped on both classes would record two spans per call
    tracing = load_tracing()
    classes = (FullStructure, SparsityPattern, BasisStructure)
    assert {cls.__name__ for cls in classes} == set(tracing.STRUCTURE_CLASSES)
    before = [dict(vars(cls)) for cls in classes]
    pattern = SparsityPattern(3, 2, [(0, 0), (1, 1), (2, 0)])
    structures = (FullStructure(3, 2), pattern, pattern.to_basis())
    u, v = np.arange(1.0, 4.0), np.array([0.5, -2.0])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for S in structures:
            x = np.ones(S.dim)
            args = {"apply_m": (v, x), "apply_mt": (v, u), "apply_n": (u, x),
                    "apply_nt": (u, v), "project_rank1": (u, v),
                    "gram_diagonals": (u, v), "h_offdiag": (u, v)}
            assert set(args) == set(tracing.STRUCTURE_OPS)
            for op in tracing.STRUCTURE_OPS:
                first = len(tracer.spans)
                if op in ("gram_diagonals", "h_offdiag") and not S.diagonal_gram:
                    with pytest.raises(StructureError):
                        getattr(S, op)(*args[op])
                else:
                    getattr(S, op)(*args[op])
                names = [span[0] for span in tracer.spans[first:]]
                expected = NESTED_SPANS.get((type(S).__name__, op), 1)
                assert names == ["structure.ops"] * expected, (type(S).__name__, op)
    finally:
        tracer.uninstall()
    assert [dict(vars(cls)) for cls in classes] == before
    own = {name for name, value in vars(FullStructure).items() if callable(value)}
    assert own == {"__init__", "__repr__", "project_rank1"}
