"""Time solves and benchmark workloads of two checkouts in one process, in alternating rounds.

    python3 tools/solve_pairs.py PARENT_DIR CHANGE_DIR [--rounds N]

Loads each checkout's `src/irl_lab` under its own package name (its relative
imports resolve inside that name), so both run in one interpreter on the same
CPU, and binds a copy of this checkout's `perfbench/workloads.py` to each: both
sides run the same workload code, which reaches the package only through its
public API and `cli.main`.  Each round times, on each side:

- `cold`: one-row `soft_value_iteration` on `paper_tabular_mdp` seeds 0-7,
  from zero values;
- `warm`: the same solves started from the soft values of the reward scaled by
  0.9, as a training round's policy step starts from the last round's;
- one repetition of each benchmark workload (`repro-exact`, `sampled-replay`,
  `reopt-probe`) on pool instance 3;
- `history-read-exact` and `history-read-sampled`: one state-only
  `run_recovery` on instance 3 (25 iterations, 20 discriminator steps of
  0.2) in exact or sampled mode, its history then read by `to_csv_text()`
  and `to_json_dict()`.  No benchmark workload reads a history, so these
  rows are where the cost of a read shows, one row per mode; most of their
  time is the training.
- `read-exact`: the read alone.  At setup both AIRL variants train as one
  exact stack on instance 3 (200 iterations, 20 discriminator steps of 0.2),
  and the state-only history is kept unread; each call reads a
  `copy.deepcopy` of it by `to_csv_text()` and `to_json_dict()`, so every
  call is a first read, which computes the whole stack's losses.  The copy is
  timed with the read; it is about 0.3 ms of a read's 25-30 ms.
- `sweep`: one `reoptimize_with_curve` of the shaped reward of `reopt-probe`'s
  instance 3 on its first test MDP, about 180 sweeps of plain soft value
  iteration and their stacked returns;
- `probe`: that instance's `disentanglement_probe`, one 24-row stacked
  soft solve.

A warm-up call of each first checks that both sides' operations (key,
outputs, error; for a history read, its CSV and JSON texts) are equal
and none raised, and stops the tool if not: timing code that does different
work measures nothing.  So it refuses a change whose outputs differ in any
bit, as one that reorders floating-point sums does; time such a change with
`tools/bench_pairs.py`, which runs each checkout's own benchmark.  A round
times each call REPEATS times per side, the
sides taking turns, and keeps each side's fastest, which drops most
interruptions by other processes; even rounds start with the parent, odd
rounds with the change.  It prints each side's median and
fastest round (per solve or per workload repetition) and the median over
rounds of the change's time over the parent's.  Pin the process to one CPU
(`taskset -c 0`) for steady numbers.
"""

from __future__ import annotations

import argparse
import copy
import functools
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

SEEDS = range(8)
REPEATS = 5
INSTANCE = 3
HISTORY_ARGS = dict(variant="airl_state_only", iterations=25, disc_steps_per_iter=20,
                    disc_step_size=0.2)
READ_ARGS = dict(mode="exact_occupancy", iterations=200, disc_steps_per_iter=20,
                 disc_step_size=0.2)
WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load(checkout: Path, name: str):
    """The package in `checkout`/src/irl_lab, imported afresh as `name`."""
    for key in [key for key in sys.modules if key.partition(".")[0] == name]:
        del sys.modules[key]  # a stale submodule would shadow this checkout's
    root = checkout.resolve() / "src" / "irl_lab"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def bound_workloads(lab):
    """`perfbench/workloads.py` executed with `irl_lab` and `irl_lab.cli` naming `lab`'s."""
    cli = importlib.import_module(f"{lab.__name__}.cli")
    name = f"{lab.__name__}_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # it defines dataclasses
    saved = {key: sys.modules.pop(key) for key in ("irl_lab", "irl_lab.cli") if key in sys.modules}
    sys.modules.update({"irl_lab": lab, "irl_lab.cli": cli})
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules["irl_lab"], sys.modules["irl_lab.cli"]
        sys.modules.update(saved)
    return module


def timings(lab, workdir: Path) -> dict:
    """Name -> (call, how many solves one call makes) for one side's package."""
    mdps = [lab.paper_tabular_mdp(seed) for seed in SEEDS]
    starts = [lab.soft_value_iteration(m, lab.RewardTable("state_only", 0.9 * m.reward.values)).v
              for m in mdps]

    def cold():
        for m in mdps:
            lab.soft_value_iteration(m)

    def warm():
        for m, v in zip(mdps, starts):
            lab.soft_value_iteration(m, v_init=v)

    workloads = bound_workloads(lab)
    history_mdp = lab.paper_tabular_mdp(INSTANCE)

    def read(key: str, history):
        return [workloads.Op(key, {"csv": history.to_csv_text(),
                                   "json": json.dumps(history.to_json_dict())})]

    def history_read(mode: str):
        config = lab.LearnerConfig(mode=mode, **HISTORY_ARGS)
        return read(mode, lab.run_recovery(history_mdp, config.variant, config).history)

    unread = lab.run_recovery(history_mdp, ["airl_state_only", "airl_state_action"],
                              lab.LearnerConfig(**READ_ARGS))[0].history

    reopt = workloads.ReoptProbe._instance(INSTANCE)
    shaped = reopt["rewards"]["shaped"]

    transfer = importlib.import_module(f"{lab.__name__}.transfer")

    def sweep():
        policy, curve = transfer.reoptimize_with_curve(reopt["tests"][0], shaped)
        return [workloads.Op("sweep", {"curve": curve, "policy": policy.tolist()})]

    def probe():
        result = lab.disentanglement_probe(reopt["mdp"], shaped, workloads.PROBE_DENSE, INSTANCE,
                                           extra_dynamics=reopt["deterministic"])
        return [workloads.Op("probe", result._asdict())]

    calls = {"cold": (cold, len(mdps)), "warm": (warm, len(mdps))}
    for name, workload in workloads.WORKLOADS.items():
        calls[name] = (functools.partial(workload.run, workload.setup([INSTANCE], workdir), 0), 1)
    for name, mode in (("exact", "exact_occupancy"), ("sampled", "sampled")):
        calls[f"history-read-{name}"] = (functools.partial(history_read, mode), 1)
    calls["read-exact"] = (lambda: read("read-exact", copy.deepcopy(unread)), 1)
    calls.update(sweep=(sweep, 1), probe=(probe, 1))
    return calls


def check(timing: str, results: dict) -> None:
    """Stop unless both sides' warm-ups ran the same operations, none of them raising."""
    ops = {side: [(op.key, op.outputs, op.error) for op in result or []]
           for side, result in results.items()}
    failed = [f"{key} failed on the {side} side: {error}"
              for side, side_ops in ops.items() for key, _, error in side_ops if error is not None]
    if failed:
        raise SystemExit(f"error: {timing}: {failed[0]}")
    if ops["parent"] != ops["change"]:
        raise SystemExit(f"error: {timing}: the sides' outputs differ: {ops}")


def run(sides: dict, rounds: int, workdir: Path) -> dict:
    """Seconds per solve (or per repetition): {timing: {side: [one value per round]}}."""
    calls = {side: timings(lab, workdir) for side, lab in sides.items()}
    names = list(sides)
    times = {timing: {side: [] for side in names} for timing in calls[names[0]]}
    for timing in times:
        check(timing, {side: calls[side][timing][0]() for side in names})  # warm up
    for i in range(rounds):
        order = names if i % 2 == 0 else names[::-1]
        for timing in times:
            fastest = dict.fromkeys(names, float("inf"))
            for _ in range(REPEATS):
                for side in order:
                    call, solves = calls[side][timing]
                    start = time.perf_counter()
                    call()
                    fastest[side] = min(fastest[side], (time.perf_counter() - start) / solves)
            for side in names:
                times[timing][side].append(fastest[side])
    return times


def summary(times: dict) -> str:
    lines = []
    for timing, by_side in times.items():
        parent, change = by_side["parent"], by_side["change"]
        ratio = statistics.median(c / p for p, c in zip(parent, change))
        unit, scale = ("us", 1e6) if timing in ("cold", "warm") else ("ms", 1e3)
        lines.append(
            f"{timing}: parent median {statistics.median(parent) * scale:.1f} {unit} "
            f"(fastest {min(parent) * scale:.1f}), change median "
            f"{statistics.median(change) * scale:.1f} {unit} (fastest {min(change) * scale:.1f}), "
            f"median per-round ratio {ratio:.3f}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=60)
    args = parser.parse_args(argv)
    sides = {"parent": load(args.parent, "irl_lab_parent"),
             "change": load(args.change, "irl_lab_change")}
    with tempfile.TemporaryDirectory(prefix="solve-pairs-") as workdir:
        times = run(sides, args.rounds, Path(workdir))
    print(f"{args.rounds} rounds, times per solve (cold, warm) and per repetition of each "
          f"perfbench workload, history read, sweep and probe on instance {INSTANCE}")
    print(summary(times), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
