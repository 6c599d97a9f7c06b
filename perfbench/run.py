#!/usr/bin/env python3
"""The singdist benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload small-batch --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 -m pytest perfbench                    # the benchmark's own tests

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``small-batch``, ``sparse-direct``, ``sparse-krylov``.
``layer_map.json`` says which end-to-end metric each per-layer metric should
move, on which workload, and where it should not.

``--trace 0`` repeats passes (every operation of the workload once) until
``--seconds`` have passed, checks every output, and reports the end-to-end
metrics; the raw times go to ``perfbench/out/times-*.json``. ``--trace 1``
runs an untraced warm-up pass, a traced pass (spans around every call into
the package's layers, written to ``perfbench/out/spans-*.tsv.gz``), another
untraced pass, and one pass at one BLAS thread in a child process, and
reports the per-layer metrics. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are the human-readable report.

Exit codes: 0 the run completed (failed operations are counted, not fatal),
2 the package sources are missing or the arguments are bad, 3 the output
checker itself broke.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: set-ups timed per run; setup_s is their median
SETUP_SAMPLES = 11

#: an operation-time percentile is reported only with this many samples per pass
P90_MIN_SAMPLES = 100

#: the child process that measures blas1.wall_s must end within this many seconds
BLAS1_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "solved_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or all to run each in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", choices=("default", "held-out"), default="default",
                    help="base instance set (held-out: re-check a claim on unseen instances)")
    ap.add_argument("--blas-threads", type=int, default=None,
                    help="BLAS threads (default and maximum: the CPUs this process may use)")
    return ap.parse_args(argv)


def pin_blas(requested):
    """Pin the BLAS thread count to at most nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(requested or nproc, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def environment(nproc, threads):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"nproc={nproc} blas_threads={threads} numpy={np.__version__} "
            f"scipy={scipy.__version__} blas={blas.get('name', '?')}-{blas.get('version', '?')} "
            f"python={sys.version.split()[0]}")


def load_references(instance_set):
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)[instance_set]


class CheckerBroken(Exception):
    """The output checker raised or accepted a deliberately wrong result."""


def check_outputs(harness, preps, outs, references, canary):
    """Fill in each outcome's problems; with ``canary``, also prove the checker works."""
    try:
        for prep, out in zip(preps, outs):
            out.problems = harness.check(prep, out, references)
        good = next(((p, o) for p, o in zip(preps, outs) if o.ok), None)
        missed = canary and good and not harness.check(good[0], harness.corrupted(good[1]), references)
    except Exception as exc:
        raise CheckerBroken(f"{type(exc).__name__}: {exc}") from exc
    if missed:
        raise CheckerBroken("the checker accepted a result with Delta scaled by 0.5")


def checked_pass(harness, ops, references, canary):
    """Set up and run every operation once; returns (setup_s, wall_s, outcomes)."""
    t0 = time.perf_counter()
    preps = [harness.setup(op) for op in ops]
    t1 = time.perf_counter()
    outs = [harness.run_op(p) for p in preps]
    t2 = time.perf_counter()
    check_outputs(harness, preps, outs, references, canary)
    return t1 - t0, t2 - t1, outs


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(outs):
    attempted = len(outs)
    ok = sum(o.ok for o in outs)
    converged = [o for o in outs if o.converged and o.cert is not None]
    passed = sum(bool(o.cert.passed) for o in converged)
    return attempted, ok, passed, len(converged)


def report_failures(outs, ops):
    seen = set()
    for i, o in enumerate(outs):
        key = ops[i % len(ops)].key
        if o.ok or key in seen:
            continue
        seen.add(key)
        why = "; ".join(o.problems) or o.error or "not converged"
        print(f"  failed {key}: {why}")


def run_untraced(args, harness, ops, references):
    deadline = time.perf_counter() + args.seconds
    setups, walls, outs = [], [], []
    while True:
        s, w, o = checked_pass(harness, ops, references, canary=not walls)
        setups.append(s)
        walls.append(w)
        for out in o:  # keep the verdicts, not the results, so memory stays flat
            out.result = out.cofactors = None
        outs.extend(o)
        if time.perf_counter() >= deadline:
            break
    while len(setups) < SETUP_SAMPLES:
        t0 = time.perf_counter()
        [harness.setup(op) for op in ops]
        setups.append(time.perf_counter() - t0)
    times = [o.seconds for o in outs]
    with open(os.path.join(OUT_DIR, f"times-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"setups": setups, "passes": walls,
                   "ops": {op.key: times[i::len(ops)] for i, op in enumerate(ops)}}, fh)
    attempted, ok, passed, certified = summarize(outs)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_s_p50": statistics.median(
            statistics.median(times[i:i + len(ops)]) for i in range(0, len(times), len(ops))),
        "solved_ratio": ok / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(walls)} passes",
        "op_s_p50": f"median over {len(walls)} passes of each pass's median operation",
        "solved_ratio": f"{ok} of {attempted} converged and checked",
    }
    print(f"{len(walls)} passes of {len(ops)} operations: "
          + " ".join(f"{w:.3f}" for w in walls) + " s")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {metrics[name]:>12.6g} {unit:<6} {notes.get(name, '')}")
    if len(ops) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(times, n=10)[-1]
        print(f"  {'op_s_p90':<16} {p90:>12.6g} {'s':<6} of {len(times)} operations")
    print(f"  {'failed_ratio':<16} {(attempted - ok) / attempted:>12.6g} {'ratio':<6} "
          f"{attempted - ok} failed of {attempted} attempted")
    cert = f"{passed / certified:.6g}" if certified else "n/a"
    print(f"  {'cert_pass_ratio':<16} {cert:>12} {'ratio':<6} {passed} PASS of {certified} converged")
    report_failures(outs, ops)
    correct = not any(o.problems for o in outs)
    return correct, attempted, attempted - ok, metrics, END_TO_END


def blas1_wall(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--blas-threads", "1", "--instances", args.instances]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=BLAS1_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread pass exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["wall_s"]["value"]


def run_traced(args, harness, tracing, ops, references):
    # warm-up pass, traced pass, untraced pass: the overhead compares the
    # last two, so one-time costs of the first pass do not mask it
    _, _, first = checked_pass(harness, ops, references, canary=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span("setup"):
            preps = [harness.setup(op) for op in ops]
        t1 = time.perf_counter()
        outs = []
        for i, prep in enumerate(preps):
            tracer.op = i
            with tracer.span("op"):
                outs.append(harness.run_op(prep))
        traced_wall = time.perf_counter() - t1
    finally:
        tracer.uninstall()
    check_outputs(harness, preps, outs, references, canary=False)
    _, untraced_wall, last = checked_pass(harness, ops, references, canary=False)
    starts = [s for o in outs for s in (o.starts or [])]
    metrics, table = tracing.layer_metrics(tracer, starts)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["blas1.wall_s"] = blas1_wall(args)

    span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write(span_path)

    print(f"traced pass {traced_wall:.4f} s, untraced {untraced_wall:.4f} s, "
          f"set-up {t1 - t0:.4f} s; {len(tracer.spans)} spans in {span_path}")
    if tracer.missing:
        print(f"  missing hooks (target no longer exists): {', '.join(tracer.missing)}")
    by_layer = {}
    for name, s in table.op_self_s.items():
        layer = name.split(".")[0] if "." in name else "benchmark"
        by_layer[layer] = by_layer.get(layer, 0.0) + s
    total = sum(by_layer.values())
    print("  self time inside the operations, by span name:")
    for name, s in sorted(table.op_self_s.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<26} {s:>10.4f} s {100 * s / total:5.1f}%  {table.op_calls[name]} calls")
    dominant = max(by_layer, key=by_layer.get)
    print("  self time by layer: " + ", ".join(
        f"{k} {100 * v / total:.1f}%" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    print(f"  dominant layer: {dominant}; dominant span: "
          f"{max(table.op_self_s, key=table.op_self_s.get)}")
    for name, unit in tracing.LAYER_METRICS.items():
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
    all_outs = first + outs + last
    attempted, ok, _, _ = summarize(all_outs)
    correct = not any(o.problems for o in all_outs)
    return correct, attempted, attempted - ok, metrics, tracing.LAYER_METRICS


def run_all(args, names):
    """Run every workload in its own process, one after the other."""
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--instances", args.instances]
        if args.blas_threads:
            cmd += ["--blas-threads", str(args.blas_threads)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None):
    # a terminated run still removes its input files and stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    nproc, threads = pin_blas(args.blas_threads)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "singdist", "__init__.py")):
        print(f"error: the singdist sources are not under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS + ("smoke",):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    import harness
    import tracing

    print(f"workload {args.workload} seed {args.seed} instances {args.instances} "
          f"trace {args.trace}")
    print(f"environment: {environment(nproc, threads)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT_DIR) as input_dir:
            ops = workloads.generate(args.workload, args.seed, input_dir, args.instances)
            references = load_references(args.instances)
            if args.trace:
                result = run_traced(args, harness, tracing, ops, references)
            else:
                result = run_untraced(args, harness, ops, references)
    except CheckerBroken as exc:
        print(f"error: output checker broke: {exc}", file=sys.stderr)
        return 3
    correct, attempted, failed, metrics, units = result
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
