"""Record every pool instance's outputs and work counts into reference.json.

    python3 perfbench/record_reference.py

Run from the root of a source checkout, at the commit whose outputs the
benchmark should hold later commits to.  Each instance runs once under the
tracer, which also records the exact work counts the traced benchmark run
compares against to flag drift.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.import_package()
    sys.path.insert(0, str(run.HERE))
    import spans
    import workloads

    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "record"
    workdir.mkdir(exist_ok=True)
    doc = {"outputs": {}, "counts": {}}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, workload in workloads.WORKLOADS.items():
            outputs, counts = {}, {}
            for p in range(workloads.POOL_SIZE):
                tracer.reset()
                ops = workload.run(workload.setup([p], workdir), 0)
                for op in ops:
                    if op.error:
                        raise SystemExit(f"{name} {op.key}: {op.error}")
                    outputs[op.key] = op.outputs
                metrics = spans.layer_metrics(tracer.spans)
                counts[f"p{p}"] = {k: metrics[k] for k in spans.EXACT_COUNTS}
                print(name, p, flush=True)
            doc["outputs"][name] = outputs
            doc["counts"][name] = counts
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
