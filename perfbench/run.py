"""irl-lab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload repro-exact --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  With `--trace 0` the run reports the end-to-end metrics
listed in BENCHMARK.json; with `--trace 1` it reports the per-layer metrics
of a traced run instead.  Human-readable lines come first; the last line of
standard output is the JSON result.  See perfbench/NOTES.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, and no process pool for `reproduce-tabular`, so the whole
# load is this process's one thread of work.  Must precede importing numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("IRL_LAB_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

# Times are reported at the machine speed where the calibration kernel takes
# this long, about its time on the machine the reference was recorded on.
CALIBRATION_S = 0.050
CALIBRATION_SWEEPS = 2500
SETUP_SAMPLES = 7
MIN_REPS = 3
MIN_TRACED_REPS = 2
# Outputs match the recorded reference when |got - want| <= ABS_TOL + REL_TOL*|want|.
ABS_TOL = 1e-6
REL_TOL = 1e-6


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="irl-lab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import irl_lab from this checkout's src/, never from anywhere else."""
    if not (SRC / "irl_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no irl_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import irl_lab

    if Path(irl_lab.__file__).resolve().parent != SRC / "irl_lab":
        raise SystemExit(f"error: irl_lab was imported from {irl_lab.__file__}, not {SRC}")
    return irl_lab


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def calibrate() -> float:
    """Seconds one fixed kernel takes now.

    The kernel is the package's mix of work (soft Bellman sweeps on a 16x4x16
    table plus interpreter overhead) without any package code, so no change
    to the package moves it.  Rescaling a run's times by the kernel's mean
    time in that run cancels most of the drift in a shared machine's speed.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    transition = rng.dirichlet(np.ones(16), size=(16, 4))
    reward = rng.normal(size=(16, 4))
    v = np.zeros(16)
    for _ in range(CALIBRATION_SWEEPS):
        q = reward + 0.9 * (transition @ v)
        top = q.max(axis=1)
        v = top + np.log(np.exp(q - top[:, None]).sum(axis=1))
        v = v - float(sum(x * x for x in v.tolist())) * 1e-9
    return time.perf_counter() - start


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its workload being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    # The child prints time.monotonic() when ready; both processes read the
    # same system-wide monotonic clock.
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def matches(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(matches, got, want))
    if isinstance(want, float) and not isinstance(got, bool):
        return isinstance(got, (int, float)) and abs(got - want) <= ABS_TOL + REL_TOL * abs(want)
    return type(got) is type(want) and got == want


class Checker:
    """Counts operations and the ones that raised or left the reference."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            want = self.reference.get(op.key)
            problem = op.error
            if problem is None and want is None:
                problem = "no recorded reference"
            elif problem is None and (set(op.outputs) != set(want) or not all(
                matches(op.outputs[k], want[k]) for k in want
            )):
                problem = f"outputs {op.outputs} differ from reference {want}"
            if problem:
                self.failed += 1
                print(f"failed: {op.key}: {problem}", file=sys.stderr)


def timed_reps(workload, state, checker, seconds: float, min_reps: int):
    """Repeat the timed section on successive instances for `seconds`.

    Returns each repetition's wall time, the calibration time taken just
    before it, and its outputs.
    """
    walls, cals, outputs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < min_reps or time.perf_counter() < deadline:
        cals.append(calibrate())
        start = time.perf_counter()
        ops = workload.run(state, len(walls))
        walls.append(time.perf_counter() - start)
        checker.check(ops)
        outputs.append([(op.key, op.outputs, op.error) for op in ops])
    return walls, cals, outputs


def run_untraced(workload, args, seeds, workdir, checker, lines):
    setup_walls, setup_cals = [], []
    for _ in range(SETUP_SAMPLES):
        setup_cals.append(calibrate())
        setup_walls.append(time_setup(args.workload, args.seed))
    state = workload.setup(seeds, workdir)
    checker.check(workload.run(state, 0))  # warm-up, outside the timed window
    walls, cals, _ = timed_reps(workload, state, checker, args.seconds, MIN_REPS)
    # One speed estimate for the whole run: a single 50 ms kernel is too noisy
    # to rescale the repetition or set-up that follows it on its own.
    scale = CALIBRATION_S / statistics.mean(setup_cals + cals)
    setup_s = statistics.median(setup_walls) * scale
    run_s = statistics.mean(walls) * scale
    work_per_s = workload.work_per_rep / run_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    throughput = "train_iters_per_s" if workload.work_unit == "train_iters" else "dynamics_per_s"
    lines += [
        f"setup_s: {setup_s:.4f} s calibrated median (n={len(setup_walls)}); raw wall "
        f"median {statistics.median(setup_walls):.4f} s, min {min(setup_walls):.4f}, "
        f"max {max(setup_walls):.4f}",
        f"run_s: {run_s:.4f} s calibrated mean (n={len(walls)}); raw wall median "
        f"{statistics.median(walls):.4f} s, mean {statistics.mean(walls):.4f}, "
        f"min {min(walls):.4f}, max {max(walls):.4f}",
        f"{throughput}: {work_per_s:.3f} {workload.work_unit}/s calibrated "
        f"({workload.work_per_rep} per repetition)",
        f"calibration kernel: mean {1e3 * CALIBRATION_S / scale:.2f} ms (n={len(setup_cals + cals)}), "
        f"reference {1e3 * CALIBRATION_S:.2f} ms",
        f"peak_rss_mb: {rss_mb:.1f} MB",
    ]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "work_per_s": (work_per_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_traced(workload, args, seeds, workdir, checker, counts_ref, lines):
    import spans

    state = workload.setup(seeds, workdir)
    checker.check(workload.run(state, 0))  # warm-up
    plain_walls, plain_cals, plain_outputs = timed_reps(
        workload, state, checker, args.seconds / 2, MIN_TRACED_REPS
    )

    tracer = spans.Tracer()
    tracer.install()
    try:
        reps, per_rep, traced_walls, traced_cals = [], [], [], []
        deadline = time.perf_counter() + args.seconds / 2
        # The traced reps revisit the untraced reps' instances in the same order,
        # then the first instance once more to check that counts repeat.
        for i in range(len(plain_walls)):
            if i >= MIN_TRACED_REPS and time.perf_counter() >= deadline:
                break
            tracer.reset()
            single = workload.setup([seeds[i % len(seeds)]], workdir)
            traced_cals.append(calibrate())
            start = time.perf_counter()
            ops = workload.run(single, 0)
            traced_walls.append(time.perf_counter() - start)
            checker.check(ops)
            if [(op.key, op.outputs, op.error) for op in ops] != plain_outputs[i]:
                checker.failed += 1
                print(f"failed: traced outputs of repetition {i} differ from untraced", file=sys.stderr)
            reps.append(list(tracer.spans))
            per_rep.append(spans.layer_metrics(tracer.spans))
        tracer.reset()
        checker.check(workload.run(workload.setup([seeds[0]], workdir), 0))
        repeat = spans.layer_metrics(tracer.spans)
    finally:
        tracer.uninstall()
    spans.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", reps)

    # Work counts are deterministic: the same instance must repeat them exactly.
    unsteady = [k for k in spans.EXACT_COUNTS if repeat[k] != per_rep[0][k]]
    for k in unsteady:
        print(f"failed: count {k} did not repeat: {per_rep[0][k]} then {repeat[k]}", file=sys.stderr)
    checker.failed += bool(unsteady)

    drift = 0
    for i, metrics in enumerate(per_rep):
        recorded = counts_ref.get(f"p{seeds[i % len(seeds)]}", {})
        moved = {k: (recorded.get(k), metrics[k]) for k in spans.EXACT_COUNTS if recorded.get(k) != metrics[k]}
        if moved:
            drift += 1
            lines.append(f"count drift vs reference on p{seeds[i % len(seeds)]}: {moved}")

    metrics = spans.median_metrics(per_rep)
    # Traced over untraced time of the same instances, each rescaled by its own kernel runs.
    paired = len(traced_walls)
    metrics["bench.trace_overhead"] = (sum(traced_walls) / sum(traced_cals)) / (
        sum(plain_walls[:paired]) / sum(plain_cals[:paired])
    )
    metrics["bench.count_drift"] = drift
    lines.append(
        f"tracing overhead: traced/untraced calibrated run_s {metrics['bench.trace_overhead']:.3f} "
        f"over {paired} paired repetitions"
    )
    units = {"calls": "count", "sweeps": "count", "nonconverged": "count", "disc_steps": "count",
             "transitions": "count", "dynamics": "count", "bytes": "B", "count_drift": "count",
             "busy_s": "s", "self_s": "s", "us_per_sweep": "us", "us_per_disc_step": "us",
             "warm_sweeps_per_call": "sweeps/call", "cold_sweeps_per_call": "sweeps/call",
             "trace_overhead": "ratio"}
    return {k: (v, units[k.rsplit(".", 1)[1]]) for k, v in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    seeds = workloads.instances_for(args.seed)
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        workload.setup(seeds, OUT)
        print(time.monotonic())
        return 0

    reference = json.loads(REFERENCE.read_text())
    checker = Checker(reference["outputs"][args.workload])
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    lines = [f"workload {args.workload} seed {args.seed}: instances {seeds}",
             "machine: " + json.dumps(machine_record())]
    try:
        if args.trace:
            metrics = run_traced(workload, args, seeds, workdir, checker,
                                 reference["counts"][args.workload], lines)
        else:
            metrics = run_untraced(workload, args, seeds, workdir, checker, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines.append(f"failed_frac: {checker.failed}/{checker.attempted} = "
                 f"{checker.failed / checker.attempted:.4f} ratio")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
