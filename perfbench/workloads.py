"""The benchmark's three workloads, driven through irl_lab's public API.

A workload's `setup` builds the inputs for a list of problem instances, and
each call of `run` is one repetition of its timed section on one of them.
Instances are paper-tabular MDP seeds from a fixed pool, so every input a
run can see has outputs recorded in `reference.json`; the benchmark seed
chooses which instances a run uses and in what order.  `run` returns one
`Op` per checked operation, carrying the outputs the reference check
compares or the error the operation raised.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import irl_lab
import irl_lab.cli

POOL_SIZE = 64
INSTANCES_PER_RUN = 16

# repro-exact: the headline command on one seed per repetition, with the
# command's default learner settings except for the iteration count.
REPRO_ITERATIONS = 25

# sampled-replay: both AIRL variants and the trajectory baseline per repetition.
SAMPLED_ITERATIONS = 20

# reopt-probe: two candidate rewards on REOPT_TEST_MDPS dense test MDPs, then
# one probe over PROBE_DENSE Dirichlet draws plus PROBE_DETERMINISTIC
# one-successor tensors.
REOPT_TEST_MDPS = 4
PROBE_DENSE = 8
PROBE_DETERMINISTIC = 4


def instances_for(seed: int) -> list[int]:
    """The pool instances a run with this benchmark seed uses, in run order."""
    return np.random.default_rng(seed).permutation(POOL_SIZE)[:INSTANCES_PER_RUN].tolist()


@dataclass
class Op:
    """One checked operation: its reference key and its outputs, or its error."""

    key: str
    outputs: dict = field(default_factory=dict)
    error: str | None = None


def _attempt(key: str, fn) -> Op:
    try:
        return Op(key, fn())
    except Exception as exc:  # a raising operation is counted as failed, not fatal
        return Op(key, error=f"{type(exc).__name__}: {exc}")


class ReproExact:
    """`reproduce-tabular` in-process: both AIRL variants, exact occupancy."""

    name = "repro-exact"
    work_unit = "train_iters"
    work_per_rep = 2 * REPRO_ITERATIONS

    def setup(self, seeds: list[int], workdir: Path):
        return {"seeds": seeds, "workdir": workdir}

    def run(self, state, rep: int) -> list[Op]:
        seed = state["seeds"][rep % len(state["seeds"])]
        out = Path(tempfile.mkdtemp(prefix="repro-", dir=state["workdir"]))
        argv = ["reproduce-tabular", "--out", str(out), "--seeds", str(seed),
                "--iterations", str(REPRO_ITERATIONS)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = irl_lab.cli.main(argv)
            manifest = json.loads((out / "manifest.json").read_text())
        except Exception as exc:
            return [Op(f"p{seed}", error=f"{type(exc).__name__}: {exc}")]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        outputs = {"exit_code": code, "all_pass": manifest["all_pass"]}
        for variant, v in manifest["per_seed"][0]["variants"].items():
            for key in ("recovery_error", "f_advantage_error", "normalized_score"):
                outputs[f"{variant}.{key}"] = v[key]
        return [Op(f"p{seed}", outputs)]


class SampledReplay:
    """Sampled-mode AIRL (both variants) and the trajectory-level baseline."""

    name = "sampled-replay"
    work_unit = "train_iters"
    work_per_rep = 3 * SAMPLED_ITERATIONS

    def setup(self, seeds: list[int], workdir: Path):
        return {"mdps": [(p, irl_lab.paper_tabular_mdp(p)) for p in seeds]}

    def run(self, state, rep: int) -> list[Op]:
        p, mdp = state["mdps"][rep % len(state["mdps"])]
        config = irl_lab.LearnerConfig(mode="sampled", iterations=SAMPLED_ITERATIONS, seed=p)
        ops = [
            _attempt(f"p{p}.{variant}", lambda: {
                "recovery_error": irl_lab.run_recovery(mdp, variant, config).recovery_error
            })
            for variant in ("airl_state_only", "airl_state_action")
        ]
        ops.append(_attempt(f"p{p}.gan_gcl_trajectory", lambda: self._gan_gcl(mdp, config)))
        return ops

    @staticmethod
    def _gan_gcl(mdp, config) -> dict:
        demos, _ = irl_lab.expert_demos(mdp, "sampled", seed=config.seed)
        result = irl_lab.gan_gcl_train(mdp, demos, replace(config, variant="gan_gcl_trajectory"))
        learned = irl_lab.RewardTable("state_action", result.scorer.f_step)
        return {"recovery_error": irl_lab.centered_reward_error(learned, mdp.reward, mdp.transition)}


class ReoptProbe:
    """Re-optimization of fixed candidate rewards on new dynamics; no training."""

    name = "reopt-probe"
    work_unit = "dynamics"
    work_per_rep = 2 * REOPT_TEST_MDPS + PROBE_DENSE + PROBE_DETERMINISTIC

    def setup(self, seeds: list[int], workdir: Path):
        return {"instances": [self._instance(p) for p in seeds]}

    @staticmethod
    def _instance(p: int) -> dict:
        mdp = irl_lab.paper_tabular_mdp(p)
        expert = irl_lab.soft_value_iteration(mdp)
        phi = irl_lab.PotentialFn(np.random.default_rng(p).normal(size=mdp.n_states))
        rewards = {
            "advantage": irl_lab.RewardTable("state_action", irl_lab.advantage(expert)),
            "shaped": irl_lab.shape_reward(mdp.reward, phi, mdp.discount, n_actions=mdp.n_actions),
        }
        shape = (mdp.n_states, mdp.n_actions, mdp.reward)
        kw = dict(discount=mdp.discount, horizon=mdp.horizon)
        tests = [
            irl_lab.random_mdp(*shape, 1000 + 100 * p + i, initial_dist=mdp.initial_dist, **kw)
            for i in range(REOPT_TEST_MDPS)
        ]
        deterministic = [
            irl_lab.random_deterministic_mdp(*shape, 5000 + 100 * p + j, **kw).transition
            for j in range(PROBE_DETERMINISTIC)
        ]
        return {"p": p, "mdp": mdp, "rewards": rewards, "tests": tests, "deterministic": deterministic}

    def run(self, state, rep: int) -> list[Op]:
        inst = state["instances"][rep % len(state["instances"])]
        p = inst["p"]
        ops = [
            _attempt(f"p{p}.{label}.test{i}", lambda: self._score(test, reward))
            for label, reward in inst["rewards"].items()
            for i, test in enumerate(inst["tests"])
        ]
        ops.append(_attempt(f"p{p}.probe", lambda: self._probe(inst)))
        return ops

    @staticmethod
    def _score(test, reward) -> dict:
        ev = irl_lab.evaluate_on_new_dynamics(test, reward)
        returns = {
            "ground_truth_optimal": ev.ground_truth_optimal,
            "reoptimized_on_learned": ev.reoptimized_on_learned,
            "uniform_random": ev.uniform_random,
        }
        return {"normalized_score": irl_lab.normalized_score(returns)}

    @staticmethod
    def _probe(inst) -> dict:
        result = irl_lab.disentanglement_probe(
            inst["mdp"], inst["rewards"]["shaped"], PROBE_DENSE, inst["p"],
            extra_dynamics=inst["deterministic"],
        )
        return {"fraction": result.fraction, "agreements": list(result.agreements)}


WORKLOADS = {w.name: w for w in (ReproExact(), SampledReplay(), ReoptProbe())}
