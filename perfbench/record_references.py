#!/usr/bin/env python3
"""Record the reference distances the output checks compare against.

    python3 perfbench/record_references.py

Runs one pass of every workload for each instance set at seed 0 and stores
the distance of every converged operation whose reference is ``recorded``
in ``perfbench/references.json``. The stored values come from the commit
that introduced the benchmark; re-recording them on a later commit would let
a regression through, so do it only when the base instances change.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import workloads  # noqa: E402


def main():
    refs = {}
    for instance_set in workloads.INSTANCE_SETS:
        refs[instance_set] = {}
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                for op in workloads.generate(name, 0, tmp, instance_set):
                    prep = harness.setup(op)
                    out = harness.run_op(prep)
                    problems = harness.check(prep, out, {})
                    print(instance_set, op.key, out.converged, problems or "", flush=True)
                    if out.converged and not problems and op.reference == ("recorded",):
                        refs[instance_set][op.key] = float(out.result.distance)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
