"""The benchmark's own tests: ``python3 -m pytest perfbench``.

They run the reduced ``smoke`` workload, so they take seconds, not the
minutes a real workload takes.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", "smoke",
           "--seed", "3", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _printed(stdout, name, unit):
    return re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b", stdout, re.M)


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit():
    proc = _bench("--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 6
    # pattern30-02 does not converge: the known defect is counted, not hidden
    assert result["failed"] == 1
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name, unit in list(spec.items()) + [("failed_ratio", "ratio"), ("cert_pass_ratio", "ratio")]:
        assert _printed(proc.stdout, name, unit), f"{name} [{unit}] not printed"
    assert "1 failed of 6 attempted" in proc.stdout


def test_traced_run_reports_every_layer_metric():
    spans = os.path.join(run.OUT_DIR, "spans-smoke-seed3.tsv.gz")
    if os.path.exists(spans):
        os.remove(spans)
    proc = _bench("--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name, unit in spec.items():
        assert _printed(proc.stdout, name, unit), f"{name} [{unit}] not printed"
    assert "missing hooks" not in proc.stdout
    assert "dominant layer:" in proc.stdout
    assert os.path.getsize(spans) > 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["solver.starts_run"] >= 5 and m["oracle.certify.calls"] >= 4
    assert m["linalg.solve_dense.calls"] > 0 and m["mmio.read_matrix.s"] > 0
    assert m["blas1.wall_s"] > 0


def test_corrupted_result_is_counted_as_failed(monkeypatch, capsys):
    real_run_op = harness.run_op

    def corrupting_run_op(prep):
        out = real_run_op(prep)
        return harness.corrupted(out) if prep.op.key == "small-batch/full00" else out

    monkeypatch.setattr(harness, "run_op", corrupting_run_op)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    args = argparse.Namespace(workload="smoke", seed=3, seconds=0.0)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    ops = workloads.generate("smoke", 3, str(run.OUT_DIR), "default")
    try:
        correct, attempted, failed, metrics, _ = run.run_untraced(
            args, harness, ops, run.load_references("default"))
    finally:
        for op in ops:
            if op.path:
                os.remove(op.path)
    assert not correct
    assert (attempted, failed) == (6, 2)
    assert metrics["solved_ratio"] == pytest.approx(4 / 6)
    assert "failed small-batch/full00: |(A+Delta)v|" in capsys.readouterr().out


def test_checker_flags_each_kind_of_wrong_output(tmp_path):
    ops = workloads.generate("smoke", 3, str(tmp_path), "default")
    refs = run.load_references("default")
    checked = 0
    for op in ops:
        prep = harness.setup(op)
        out = harness.run_op(prep)
        if not out.ok:
            continue
        assert harness.check(prep, out, refs) == []
        assert harness.check(prep, harness.corrupted(out), refs)
        checked += 1
    assert checked == 5


def test_hook_whose_target_is_gone_is_reported_missing(monkeypatch):
    monkeypatch.setitem(tracing.FUNCTION_HOOKS, "linalg.gone", [("linalg", "no_such_function")])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["linalg.no_such_function"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench("--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_layer_map_covers_every_layer_metric():
    spec = _spec()
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        layer_map = json.load(fh)["metrics"]
    names = [m["name"] for m in spec["per_layer"]]
    assert list(tracing.LAYER_METRICS) == names
    assert set(layer_map) == set(names)
    workload_names = {w["name"] for w in spec["workloads"]}
    assert workload_names == set(workloads.WORKLOADS)
    metric_names = {m["name"] for m in spec["end_to_end"]} | {"failed_ratio", "cert_pass_ratio"}
    for entry in layer_map.values():
        for metric, workload in entry["moves"] + entry["flat"]:
            assert metric in metric_names and workload in workload_names
