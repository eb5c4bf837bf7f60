"""Time solves and training of two checkouts in one process, in alternating rounds.

    python3 tools/solve_pairs.py PARENT_DIR CHANGE_DIR [--rounds N]

Loads each checkout's `src/irl_lab` under its own package name (its relative
imports resolve inside that name), so both run in one interpreter on the same
CPU.  Each round times, on each side:

- `cold`: one-row `soft_value_iteration` on `paper_tabular_mdp` seeds 0-7,
  from zero values;
- `warm`: the same solves started from the soft values of the reward scaled by
  0.9, as a training round's policy step starts from the last round's;
- `probe`: one `disentanglement_probe` shaped like a `reopt-probe` repetition
  of `perfbench/`: seed 3's MDP and shaped reward, 8 Dirichlet draws and 4
  one-successor dynamics;
- `reopt`: the re-optimization of a `reopt-probe` repetition: seed 3's
  advantage and shaped rewards each through `evaluate_on_new_dynamics` on its
  4 dense test MDPs, 8 calls in all;
- `recovery`: the training and transfer of a `repro-exact` repetition,
  `cli._reproduce_seeds([3], 25, 20, 0.2)`: seed 3 under both AIRL variants
  for 25 iterations of 20 steps of size 0.2, each learned reward re-optimized
  on its test MDP.

A round times each call REPEATS times per side, the two sides taking turns,
and keeps each side's fastest, which drops most interruptions by other
processes.  Even rounds start with the parent, odd rounds with the change.
For each timing it prints each side's median and fastest round (per solve,
per probe call, per 8-call reopt repetition or per recovery call) and the
median over rounds of the change's time over the parent's.  Pin the process
to one CPU (`taskset -c 0`) for steady numbers.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SEEDS = range(8)
REPEATS = 5
# (Dirichlet draws, one-successor dynamics) of the probe and the dense test MDPs of the
# re-optimization, as in a reopt-probe repetition
PROBE_SEED, PROBE_DENSE, PROBE_DETERMINISTIC, REOPT_TEST_MDPS = 3, 8, 4, 4
# (seeds, iterations, steps per iteration, step size) of the recovery call
RECOVERY_ARGS = ([3], 25, 20, 0.2)


def load(checkout: Path, name: str):
    """The package in `checkout`/src/irl_lab, imported as `name`."""
    root = checkout.resolve() / "src" / "irl_lab"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def timings(lab) -> dict:
    """Name -> (call, how many solves one call makes) for one side's package."""
    mdps = [lab.paper_tabular_mdp(seed) for seed in SEEDS]
    starts = [lab.soft_value_iteration(m, lab.RewardTable("state_only", 0.9 * m.reward.values)).v
              for m in mdps]
    mdp = lab.paper_tabular_mdp(PROBE_SEED)
    potential = lab.PotentialFn(np.random.default_rng(PROBE_SEED).normal(size=mdp.n_states))
    shaped = lab.shape_reward(mdp.reward, potential, mdp.discount, n_actions=mdp.n_actions)
    extra = [lab.random_deterministic_mdp(mdp.n_states, mdp.n_actions, mdp.reward,
                                          5000 + 100 * PROBE_SEED + j).transition
             for j in range(PROBE_DETERMINISTIC)]
    rewards = [lab.RewardTable("state_action", lab.advantage(lab.soft_value_iteration(mdp))),
               shaped]
    tests = [lab.random_mdp(mdp.n_states, mdp.n_actions, mdp.reward, 1000 + 100 * PROBE_SEED + i,
                            discount=mdp.discount, horizon=mdp.horizon,
                            initial_dist=mdp.initial_dist)
             for i in range(REOPT_TEST_MDPS)]

    def cold():
        for m in mdps:
            lab.soft_value_iteration(m)

    def warm():
        for m, v in zip(mdps, starts):
            lab.soft_value_iteration(m, v_init=v)

    def probe():
        lab.disentanglement_probe(mdp, shaped, PROBE_DENSE, PROBE_SEED, extra_dynamics=extra)

    def reopt():
        for reward in rewards:
            for test in tests:
                lab.evaluate_on_new_dynamics(test, reward)

    cli = importlib.import_module(f"{lab.__name__}.cli")

    def recovery():
        cli._reproduce_seeds(*RECOVERY_ARGS)

    return {"cold": (cold, len(mdps)), "warm": (warm, len(mdps)), "probe": (probe, 1),
            "reopt": (reopt, 1), "recovery": (recovery, 1)}


def run(sides: dict, rounds: int) -> dict:
    """Seconds per solve (or per call): {timing: {side: [one value per round]}}."""
    calls = {side: timings(lab) for side, lab in sides.items()}
    names = list(sides)
    times = {timing: {side: [] for side in names} for timing in calls[names[0]]}
    for timing in times:
        for side in names:
            calls[side][timing][0]()  # warm up
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
        unit, scale = ("ms", 1e3) if timing in ("probe", "reopt", "recovery") else ("us", 1e6)
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
    times = run(sides, args.rounds)
    print(f"{args.rounds} rounds, times per solve (cold, warm), per probe call, per "
          "reopt repetition and per recovery call")
    print(summary(times), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
