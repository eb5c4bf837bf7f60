import time

import numpy as np
import pytest

from irl_lab.airl import LearnerConfig
from irl_lab.mdp import (RewardTable, expected_state_action, paper_tabular_mdp,
                         random_deterministic_mdp, random_mdp)
from irl_lab.soft_rl import _solve_stack
from irl_lab.transfer import run_recovery


@pytest.fixture(scope="session")
def bench_mdp():
    """The 16-state, 4-action benchmark instance used across suites."""
    return paper_tabular_mdp(seed=7)


@pytest.fixture(scope="session")
def deterministic_recoveries():
    """Criterion 4's converged state-only runs, trained as one stack.

    Five deterministic, decomposable 16-state MDPs (seeds 0-4, reward 1 at
    state 0), 2,500 iterations of 20 steps of size 0.2.  Returns (mdps,
    recoveries, seconds spent training); row 0 is `test_transfer`'s
    deterministic benchmark.
    """
    mdps = [random_deterministic_mdp(16, 4, RewardTable("state_only", np.eye(16)[0]), seed)
            for seed in range(5)]
    config = LearnerConfig(iterations=2500, disc_steps_per_iter=20, disc_step_size=0.2)
    start = time.perf_counter()
    recoveries = run_recovery(mdps, "airl_state_only", config)
    return mdps, recoveries, time.perf_counter() - start


@pytest.fixture
def tiny_mdp():
    """A small random MDP for loop-oracle comparisons."""
    r = np.zeros(3)
    r[0] = 1.0
    return random_mdp(3, 2, RewardTable("state_only", r), seed=11, horizon=6)


def small_random_mdps(n_states_max=4, n_actions_max=3, seeds=range(20), horizon=8):
    """Generator of small instances with varying shapes and reward arities."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n_states = int(rng.integers(2, n_states_max + 1))
        n_actions = int(rng.integers(1, n_actions_max + 1))
        kind = ("state_only", "state_action", "transition")[seed % 3]
        if kind == "state_only":
            values = rng.normal(size=n_states)
        elif kind == "state_action":
            values = rng.normal(size=(n_states, n_actions))
        else:
            values = rng.normal(size=(n_states, n_actions, n_states))
        yield random_mdp(
            n_states,
            n_actions,
            RewardTable(kind, values),
            seed=seed + 100,
            horizon=horizon,
        )


def at_temperature(reward: RewardTable, w: float) -> RewardTable:
    """`reward` scaled by 1 / w.  Its unit-temperature solve is the temperature-w
    solve of `reward` with q and v divided by w, and the same policy."""
    return RewardTable(reward.kind, reward.values / w)


def assert_same_solution(row, alone):
    """Two SoftSolutions equal bit for bit, arrays and scalars alike (a NaN residual too)."""
    for name in ("q", "v", "policy", "residual"):
        assert (np.asarray(getattr(row, name)).tobytes()
                == np.asarray(getattr(alone, name)).tobytes()), name
    for name in ("iterations_used", "converged"):
        assert getattr(row, name) == getattr(alone, name), name


def solve_rows(mdps, rewards, **kwargs):
    """`_solve_stack` of (MDP, reward) pairs of one discount; a None reward is the MDP's own."""
    transition = np.stack([mdp.transition for mdp in mdps])
    r_sa = np.stack([expected_state_action(mdp.reward if reward is None else reward,
                                           mdp.transition)
                     for mdp, reward in zip(mdps, rewards)])
    return _solve_stack(transition, r_sa, mdps[0].discount, **kwargs)


def record_calls(monkeypatch, owner, name: str) -> list:
    """Wrap `owner.name` for the test; returns the list of (args, kwargs) of its calls."""
    calls, original = [], getattr(owner, name)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return calls


def unexpected_call(*args, **kwargs):
    raise AssertionError("called a function the code under test should not call")
