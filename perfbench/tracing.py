"""Outside-in tracing: a span around every call into a layer's public functions.

Nothing under ``src/`` knows about this module. ``Tracer.install`` replaces
module-level functions in the namespace of the module that calls them (the
solver reaches ``linalg.solve_dense`` through its ``linalg.`` prefix, the GCD
module reaches ``solve`` through its own import) and structure methods on
their classes. Each call records a span ``[name, start, end, parent, op]``
in memory; the spans are written out when the run ends, and self time is
computed from the span tree. A hook whose target no longer exists is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import collections
import functools
import gzip
import time

import numpy as np

import singdist

#: span name -> the (module, attribute) bindings it wraps
FUNCTION_HOOKS = {
    "solver.solve": [("solver", "solve"), ("gcd", "solve")],
    "solver.starting_values": [("solver", "starting_values")],
    "solver.line_search_newton": [("solver", "line_search_newton")],
    "solver.newton_step": [("solver", "newton_step")],
    "solver.residual": [("solver", "residual_G_beta")],
    "linalg.solve_dense": [("linalg", "solve_dense")],
    "linalg.minres": [("linalg", "solve_symmetric_iterative")],
    "linalg.triplets": [("linalg", "smallest_singular_triplets")],
    "linalg.spectral_norm": [("linalg", "spectral_norm")],
    "oracle.certify": [("oracle", "certify_solution")],
    "gcd.gcd_distance": [("gcd", "gcd_distance")],
    "gcd.build_sylvester": [("gcd", "build_sylvester")],
    "gcd.extract_cofactors": [("gcd", "extract_cofactors")],
    "mmio.read_matrix": [("mmio", "read_matrix")],
}

STRUCTURE_CLASSES = ("FullStructure", "SparsityPattern", "BasisStructure")
STRUCTURE_OPS = ("apply_m", "apply_mt", "apply_n", "apply_nt",
                 "project_rank1", "gram_diagonals", "h_offdiag")


def _observe_solve_dense(counts, args, result):
    n = np.shape(args[0])[0]
    counts["linalg.solve_dense.gflop"] += (2.0 / 3.0) * n**3 / 1e9
    counts["linalg.solve_dense.lstsq_fallbacks"] += bool(getattr(result, "used_least_squares", False))


def _observe_minres(counts, args, result):
    counts["linalg.minres.iters"] += int(getattr(result, "iterations", 0))
    counts["linalg.minres.unconverged"] += not getattr(result, "converged", True)


def _observe_certify(counts, args, result):
    counts["oracle.rank_drop"] += bool(getattr(result, "rank_drop", False))
    counts["oracle.passed"] += bool(getattr(result, "passed", False))


OBSERVERS = {
    "linalg.solve_dense": _observe_solve_dense,
    "linalg.minres": _observe_minres,
    "oracle.certify": _observe_certify,
}


class Tracer:
    """Records spans while installed; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = collections.Counter()
        self.missing = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _patch(self, owner, attr, name, where):
        target = getattr(owner, attr, None) if owner is not None else None
        if target is None:
            self.missing.append(where)
            return
        had_own = attr in vars(owner)
        setattr(owner, attr, self._wrap(name, target))
        self._undo.append((owner, attr, target, had_own))

    def install(self):
        for name, bindings in FUNCTION_HOOKS.items():
            for module, attr in bindings:
                self._patch(getattr(singdist, module, None), attr, name, f"{module}.{attr}")
        for cls_name in STRUCTURE_CLASSES:
            cls = getattr(singdist.structure, cls_name, None)
            for attr in STRUCTURE_OPS:
                self._patch(cls, attr, "structure.ops", f"structure.{cls_name}.{attr}")
            self._patch(cls, "__init__", "structure.build", f"structure.{cls_name}.__init__")

    def uninstall(self):
        for owner, attr, target, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, target)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.rec = [self.name, time.perf_counter(), 0.0, t.stack[-1] if t.stack else -1, t.op]
        t.stack.append(len(t.spans))
        t.spans.append(self.rec)

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer.stack.pop()


class SpanTable:
    """Per-name totals from the span tree.

    ``busy`` counts only outermost spans of a name (a structure method that
    calls another one is not counted twice); ``self_s`` is a span's duration
    minus the part covered by its child spans; ``op_self_s`` and ``op_calls``
    count only spans inside an operation (set-up excluded).
    """

    def __init__(self, spans):
        names = [s[0] for s in spans]
        start = np.array([s[1] for s in spans])
        end = np.array([s[2] for s in spans])
        parent = np.array([s[3] for s in spans], dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
        self.names, self.dur, self.parent = names, dur, parent
        self_time = dur - child
        self.calls = collections.Counter(names)
        self.busy = collections.Counter()
        self.self_s = collections.Counter()
        self.op_self_s = collections.Counter()
        self.op_calls = collections.Counter()
        for i, name in enumerate(names):
            self.self_s[name] += self_time[i]
            if spans[i][4] >= 0:
                self.op_self_s[name] += self_time[i]
                self.op_calls[name] += 1
            if parent[i] < 0 or names[parent[i]] != name:
                self.busy[name] += dur[i]

    def minus_children(self, name, prefix):
        """Total duration of ``name`` spans minus their direct children under ``prefix``."""
        total = 0.0
        for i, n in enumerate(self.names):
            if n == name:
                total += self.dur[i]
            elif n.startswith(prefix) and self.parent[i] >= 0 and self.names[self.parent[i]] == name:
                total -= self.dur[i]
        return total


#: per-layer metric -> unit; the order is the order they are printed in
LAYER_METRICS = {
    "solver.residual.calls": "count",
    "solver.residual.s": "s",
    "solver.newton_iters": "count",
    "solver.backtracks": "count",
    "structure.ops.calls": "count",
    "structure.ops.s": "s",
    "structure.build.s": "s",
    "linalg.solve_dense.calls": "count",
    "linalg.solve_dense.s": "s",
    "linalg.solve_dense.lstsq_fallbacks": "count",
    "linalg.solve_dense.gflop": "GFLOP",
    "linalg.solve_dense.gflop_per_s": "GFLOP/s",
    "linalg.minres.calls": "count",
    "linalg.minres.s": "s",
    "linalg.minres.iters": "count",
    "linalg.minres.unconverged": "count",
    "linalg.triplets.calls": "count",
    "linalg.triplets.s": "s",
    "linalg.spectral_norm.calls": "count",
    "linalg.spectral_norm.s": "s",
    "solver.starting_values.s": "s",
    "solver.newton_step.calls": "count",
    "solver.newton_step.self_s": "s",
    "solver.starts_run": "count",
    "solver.solve.self_s": "s",
    "oracle.certify.calls": "count",
    "oracle.certify.s": "s",
    "oracle.rank_drop": "count",
    "oracle.passed": "count",
    "gcd.build_sylvester.s": "s",
    "gcd.extract_cofactors.s": "s",
    "mmio.read_matrix.s": "s",
    "trace.overhead_s": "s",
    "blas1.wall_s": "s",
}


def layer_metrics(tracer, starts):
    """Per-layer values from the spans, the observed counts and the start summaries.

    ``starts`` are the per-start summaries of every operation, failed ones
    included; Newton iterations and backtracks are summed over them.
    """
    t = SpanTable(tracer.spans)
    c = tracer.counts
    dense_s = t.busy["linalg.solve_dense"]
    m = {
        "solver.residual.calls": t.calls["solver.residual"],
        "solver.residual.s": t.busy["solver.residual"],
        "solver.newton_iters": sum(getattr(s, "iterations", 0) for s in starts),
        "solver.backtracks": sum(getattr(s, "backtracks", 0) for s in starts),
        "structure.ops.calls": t.calls["structure.ops"],
        "structure.ops.s": t.busy["structure.ops"],
        "structure.build.s": t.busy["structure.build"],
        "linalg.solve_dense.calls": t.calls["linalg.solve_dense"],
        "linalg.solve_dense.s": dense_s,
        "linalg.solve_dense.lstsq_fallbacks": c["linalg.solve_dense.lstsq_fallbacks"],
        "linalg.solve_dense.gflop": c["linalg.solve_dense.gflop"],
        "linalg.solve_dense.gflop_per_s": c["linalg.solve_dense.gflop"] / dense_s if dense_s else 0.0,
        "linalg.minres.calls": t.calls["linalg.minres"],
        "linalg.minres.s": t.busy["linalg.minres"],
        "linalg.minres.iters": c["linalg.minres.iters"],
        "linalg.minres.unconverged": c["linalg.minres.unconverged"],
        "linalg.triplets.calls": t.calls["linalg.triplets"],
        "linalg.triplets.s": t.busy["linalg.triplets"],
        "linalg.spectral_norm.calls": t.calls["linalg.spectral_norm"],
        "linalg.spectral_norm.s": t.busy["linalg.spectral_norm"],
        "solver.starting_values.s": t.busy["solver.starting_values"],
        "solver.newton_step.calls": t.calls["solver.newton_step"],
        "solver.newton_step.self_s": t.minus_children("solver.newton_step", "linalg."),
        "solver.starts_run": t.calls["solver.line_search_newton"],
        "solver.solve.self_s": t.self_s["solver.solve"],
        "oracle.certify.calls": t.calls["oracle.certify"],
        "oracle.certify.s": t.busy["oracle.certify"],
        "oracle.rank_drop": c["oracle.rank_drop"],
        "oracle.passed": c["oracle.passed"],
        "gcd.build_sylvester.s": t.busy["gcd.build_sylvester"],
        "gcd.extract_cofactors.s": t.busy["gcd.extract_cofactors"],
        "mmio.read_matrix.s": t.busy["mmio.read_matrix"],
    }
    return m, t
