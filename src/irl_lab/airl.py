"""Adversarial reward learning on tabular MDPs.

The discriminator keeps two tables: a reward approximator g over states (or
state-action pairs) and a state shaping term h, combined as

    f(s, a, s') = g(s[, a]) + discount * h(s') - h(s).

It is trained as a logistic regressor against the current policy's odds,
D = exp(f) / (exp(f) + pi(a|s)), and the policy is re-solved each iteration
with soft value iteration.  A trajectory-level variant without the shaping
split (``gan_gcl_trajectory``) is included as a baseline.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ._fmt import csv_text
from .mdp import RewardTable, TabularMdp, reward_from_dict, reward_to_dict
from .shaping import centered_reward_error
from .soft_rl import (
    OccupancyMeasure,
    Trajectory,
    evaluate_return,
    occupancy,
    sample_trajectories,
    soft_value_iteration,
    uniform_policy,
)

VARIANTS = ("airl_state_only", "airl_state_action", "gan_gcl_trajectory")
MODES = ("exact_occupancy", "sampled")


def _sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), accurate to 2.3e-16 absolute.

    The tanh form cannot overflow, so it is silent on +-inf, NaN and large |x|.
    """
    return 0.5 * np.tanh(0.5 * x) + 0.5


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite parameters."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite discriminator parameters at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class DiscriminatorParams:
    """The two learned tables and the discount that couples them in f."""

    g: RewardTable
    h: np.ndarray
    discount: float

    def __post_init__(self):
        if self.g.kind == "transition":
            raise ValueError("g must be a state_only or state_action table")
        h = np.array(self.h, dtype=float)
        if h.ndim != 1 or h.shape[0] != self.g.values.shape[0]:
            raise ValueError("h needs one entry per state")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @property
    def n_states(self) -> int:
        return self.g.values.shape[0]


def params_to_dict(params: DiscriminatorParams) -> dict:
    return {
        "g": reward_to_dict(params.g),
        "h": params.h.tolist(),
        "discount": params.discount,
    }


def params_from_dict(doc: dict) -> DiscriminatorParams:
    unknown = set(doc) - {"g", "h", "discount"}
    if unknown:
        raise ValueError(f"unknown key {sorted(unknown)[0]!r} in discriminator params")
    return DiscriminatorParams(
        reward_from_dict(doc["g"]), np.asarray(doc["h"], dtype=float), float(doc["discount"])
    )


@dataclass(frozen=True)
class LearnerConfig:
    """Knobs for the alternating training loop; same seed, same run."""

    variant: str = "airl_state_only"
    mode: str = "exact_occupancy"
    iterations: int = 200
    disc_steps_per_iter: int = 20
    disc_step_size: float = 0.1
    replay_window: int = 20
    n_policy_trajectories: int = 64
    entropy_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "disc_steps_per_iter", "replay_window",
                     "n_policy_trajectories", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.disc_steps_per_iter < 1:
            raise ValueError("disc_steps_per_iter must be at least 1")
        if self.disc_step_size <= 0:
            raise ValueError("disc_step_size must be positive")
        if self.replay_window < 1:
            raise ValueError("replay_window must be at least 1")
        if self.n_policy_trajectories < 1:
            raise ValueError("n_policy_trajectories must be at least 1")
        if self.entropy_weight <= 0:
            raise ValueError("entropy_weight must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics of one outer iteration.

    `vi_steps_cumulative` sums `SoftSolution.iterations_used` over the policy
    steps so far: soft Bellman solver iterations (a backup plus a linear
    solve), not value-iteration sweeps.
    """

    iteration: int
    disc_loss: float
    true_return: float
    reward_error: float
    g_delta: float
    vi_steps_cumulative: int


_HISTORY_COLUMNS = ("iter", "disc_loss", "true_return", "reward_error", "g_delta")


@dataclass
class TrainingHistory:
    """Per-iteration diagnostics of a training run."""

    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def to_csv_text(self) -> str:
        rows = [
            [r.iteration, r.disc_loss, r.true_return, r.reward_error, r.g_delta]
            for r in self.records
        ]
        return csv_text(_HISTORY_COLUMNS, rows)

    def to_json_dict(self) -> dict:
        return {
            "iter": [r.iteration for r in self.records],
            "disc_loss": [r.disc_loss for r in self.records],
            "true_return": [r.true_return for r in self.records],
            "reward_error": [r.reward_error for r in self.records],
            "g_delta": [r.g_delta for r in self.records],
            "vi_steps_cumulative": [r.vi_steps_cumulative for r in self.records],
        }


@dataclass(frozen=True)
class TransitionBatch:
    """A bag of (s, a, s') samples."""

    states: np.ndarray
    actions: np.ndarray
    next_states: np.ndarray

    def __post_init__(self):
        states = np.array(self.states, dtype=np.int64)
        actions = np.array(self.actions, dtype=np.int64)
        next_states = np.array(self.next_states, dtype=np.int64)
        if not (states.shape == actions.shape == next_states.shape) or states.ndim != 1:
            raise ValueError("batch arrays must be 1-d and equally long")
        for arr in (states, actions, next_states):
            arr.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "next_states", next_states)

    def __len__(self) -> int:
        return len(self.states)

    @classmethod
    def from_trajectories(cls, trajectories: Sequence[Trajectory]) -> "TransitionBatch":
        states = np.concatenate([t.states[:-1] for t in trajectories])
        actions = np.concatenate([t.actions for t in trajectories])
        next_states = np.concatenate([t.states[1:] for t in trajectories])
        return cls(states, actions, next_states)

    def to_weights(self, n_states: int, n_actions: int) -> np.ndarray:
        """Empirical (s, a, s') frequency tensor, normalized to total mass 1."""
        if len(self) == 0:
            raise ValueError("empty transition batch")
        w = np.zeros((n_states, n_actions, n_states))
        np.add.at(w, (self.states, self.actions, self.next_states), 1.0)
        return w / len(self)


def pool_batches(batches: Sequence[TransitionBatch]) -> TransitionBatch:
    """Concatenate replay batches into one pool."""
    if not batches:
        raise ValueError("no batches to pool")
    return TransitionBatch(
        np.concatenate([b.states for b in batches]),
        np.concatenate([b.actions for b in batches]),
        np.concatenate([b.next_states for b in batches]),
    )


def _as_weights(data, n_states: int, n_actions: int) -> np.ndarray:
    """Normalize expert/negative data to a (s, a, s') weight tensor."""
    if isinstance(data, OccupancyMeasure):
        return data.rho
    if isinstance(data, TransitionBatch):
        return data.to_weights(n_states, n_actions)
    if isinstance(data, np.ndarray):
        if data.shape != (n_states, n_actions, n_states):
            raise ValueError("weight tensor has the wrong shape")
        return data
    seq = list(data)
    if not seq:
        raise ValueError("no demonstrations given")
    if all(isinstance(t, Trajectory) for t in seq):
        return TransitionBatch.from_trajectories(seq).to_weights(n_states, n_actions)
    raise TypeError("expected an OccupancyMeasure, TransitionBatch or trajectories")


def _raw_f(g: np.ndarray, h: np.ndarray, state_only: bool, discount: float) -> np.ndarray:
    g_part = g[:, None, None] if state_only else g[:, :, None]
    return g_part + discount * h[None, None, :] - h[:, None, None]


def f_table(params: DiscriminatorParams, n_states: int, n_actions: int) -> np.ndarray:
    """Dense (s, a, s') table of f = g + discount*h(s') - h(s)."""
    raw = _raw_f(params.g.values, params.h, params.g.kind == "state_only", params.discount)
    return np.ascontiguousarray(np.broadcast_to(raw, (n_states, n_actions, n_states)))


def f_value(params: DiscriminatorParams, s: int, a: int, sp: int) -> float:
    """f at a single (s, a, s') triple."""
    if params.g.kind == "state_only":
        g = params.g.lookup(s)
    else:
        g = params.g.lookup(s, a)
    return float(g + params.discount * params.h[sp] - params.h[s])


def _log_d_tables(params, policy):
    """(log D, log(1 - D)) tables against a policy, computed in log space."""
    policy = np.asarray(policy, dtype=float)
    n_states, n_actions = policy.shape
    x = f_table(params, n_states, n_actions) - np.log(policy)[:, :, None]
    return -np.logaddexp(0.0, -x), -np.logaddexp(0.0, x)


def discriminator_prob(params: DiscriminatorParams, policy, s: int, a: int, sp: int) -> float:
    """D(s, a, s') = exp(f) / (exp(f) + pi(a|s)), evaluated stably."""
    policy = np.asarray(policy, dtype=float)
    x = f_value(params, s, a, sp) - float(np.log(policy[s, a]))
    return float(_sigmoid(x))


def discriminator_loss(params: DiscriminatorParams, policy, expert, negatives) -> float:
    """Binary logistic loss: -E_expert[log D] - E_negatives[log(1 - D)]."""
    policy = np.asarray(policy, dtype=float)
    n_states, n_actions = policy.shape
    we = _as_weights(expert, n_states, n_actions)
    wn = _as_weights(negatives, n_states, n_actions)
    log_d, log_1md = _log_d_tables(params, policy)
    return float(-(we * log_d).sum() - (wn * log_1md).sum())


class DiscGrad(NamedTuple):
    g: np.ndarray
    h: np.ndarray


def _loss_grad_f(f, log_pi, we, w_total) -> np.ndarray:
    """dL/df = -w_expert * (1 - D) + w_negatives * D per (s, a, s') cell.

    Computed as D * w_total - w_expert, with w_total = w_expert + w_negatives.
    """
    return _sigmoid(f - log_pi) * w_total - we


def _chain_to_tables(dl_df, state_only: bool, discount: float):
    """Chain a per-cell f gradient onto the g and h tables.

    g collects the cells sharing its index; h gets weight -1 at the current
    state and +discount at the successor.
    """
    per_state = dl_df.sum(axis=(1, 2))
    grad_g = per_state if state_only else dl_df.sum(axis=2)
    grad_h = discount * dl_df.sum(axis=(0, 1)) - per_state
    return grad_g, grad_h


def discriminator_grad(params: DiscriminatorParams, policy, expert, negatives) -> DiscGrad:
    """Analytic gradient of the logistic loss in the two tables."""
    policy = np.asarray(policy, dtype=float)
    n_states, n_actions = policy.shape
    we = _as_weights(expert, n_states, n_actions)
    wn = _as_weights(negatives, n_states, n_actions)
    dl_df = _loss_grad_f(
        f_table(params, n_states, n_actions), np.log(policy)[:, :, None], we, we + wn
    )
    grad_g, grad_h = _chain_to_tables(dl_df, params.g.kind == "state_only", params.discount)
    return DiscGrad(g=grad_g, h=grad_h)


def extract_reward(params: DiscriminatorParams, policy) -> RewardTable:
    """Recovered reward log D - log(1 - D), which reduces to f - log pi exactly."""
    policy = np.asarray(policy, dtype=float)
    n_states, n_actions = policy.shape
    values = f_table(params, n_states, n_actions) - np.log(policy)[:, :, None]
    return RewardTable("transition", values)


class AirlResult(NamedTuple):
    params: DiscriminatorParams
    policy: np.ndarray
    history: TrainingHistory


def _policy_step(mdp, f_sap, entropy_weight, v_init):
    # Maximizing E[sum of (f - log pi)] is the entropy-regularized objective
    # with reward f, so the policy step solves soft RL on f collapsed to
    # (s, a) by expectation under the dynamics; the solver supplies the
    # -log pi term as the entropy bonus.
    f_sa = np.einsum("sap,sap->sa", mdp.transition, f_sap)
    return soft_value_iteration(
        mdp,
        RewardTable("state_action", f_sa),
        entropy_weight=entropy_weight,
        v_init=v_init,
    )


def airl_train(mdp: TabularMdp, demos, config: LearnerConfig) -> AirlResult:
    """Alternate discriminator gradient steps with soft policy re-solves.

    `demos` may be an exact expert occupancy, a transition batch, or a list of
    trajectories.  In exact_occupancy mode negatives are the current policy's
    exact occupancy; in sampled mode they are rollouts pooled over the last
    `replay_window` iterations.  Raises DivergenceError if parameters stop
    being finite.
    """
    if config.variant not in ("airl_state_only", "airl_state_action"):
        raise ValueError("airl_train handles the airl_* variants only")
    n_states, n_actions = mdp.n_states, mdp.n_actions
    expert_w = _as_weights(demos, n_states, n_actions)
    if expert_w.sum() <= 0:
        raise ValueError("demonstrations carry no mass")

    state_only = config.variant == "airl_state_only"
    g = np.zeros(n_states) if state_only else np.zeros((n_states, n_actions))
    h = np.zeros(n_states)
    gamma = mdp.discount
    policy = uniform_policy(mdp)
    history = TrainingHistory()
    replay: deque[TransitionBatch] = deque(maxlen=config.replay_window)
    rng = np.random.default_rng(config.seed)
    v_warm = None
    vi_steps = 0
    step = config.disc_step_size

    for iteration in range(config.iterations):
        if config.mode == "exact_occupancy":
            neg_w = occupancy(mdp, policy).rho
        else:
            rollouts = sample_trajectories(
                mdp, policy, config.n_policy_trajectories, seed=int(rng.integers(2**63 - 1))
            )
            replay.append(TransitionBatch.from_trajectories(rollouts))
            neg_w = pool_batches(list(replay)).to_weights(n_states, n_actions)

        log_pi = np.log(policy)[:, :, None]
        total_w = expert_w + neg_w
        g_before = g.copy()
        for _ in range(config.disc_steps_per_iter):
            dl_df = _loss_grad_f(_raw_f(g, h, state_only, gamma), log_pi, expert_w, total_w)
            grad_g, grad_h = _chain_to_tables(dl_df, state_only, gamma)
            g = g - step * grad_g
            h = h - step * grad_h
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise DivergenceError(iteration)

        kind = "state_only" if state_only else "state_action"
        params = DiscriminatorParams(RewardTable(kind, g), h, gamma)
        loss = discriminator_loss(params, policy, expert_w, neg_w)

        solution = _policy_step(
            mdp, f_table(params, n_states, n_actions), config.entropy_weight, v_warm
        )
        policy = solution.policy
        v_warm = solution.v
        vi_steps += solution.iterations_used

        history.append(
            IterationRecord(
                iteration=iteration,
                disc_loss=loss,
                true_return=_true_return(mdp, policy),
                reward_error=centered_reward_error(params.g, mdp.reward, mdp.transition),
                g_delta=float(np.max(np.abs(g - g_before))),
                vi_steps_cumulative=vi_steps,
            )
        )

    kind = "state_only" if state_only else "state_action"
    params = DiscriminatorParams(RewardTable(kind, g), h, gamma)
    return AirlResult(params=params, policy=policy, history=history)


def _true_return(mdp, policy) -> float:
    return evaluate_return(mdp, policy, mdp.reward, include_entropy=False)


@dataclass(frozen=True)
class TrajectoryScorer:
    """Trajectory-level discriminator: scores whole episodes with a (s, a) table.

    The dynamics and initial-state factors shared by expert and policy
    trajectory distributions cancel in the discriminator's odds ratio, so
    D(tau) = sigmoid(f(tau) - log pi(tau)) with f(tau) summing the table over
    the episode's steps.
    """

    f_step: np.ndarray

    def __post_init__(self):
        f_step = np.array(self.f_step, dtype=float)
        if f_step.ndim != 2:
            raise ValueError("f_step must be a (s, a) table")
        f_step.setflags(write=False)
        object.__setattr__(self, "f_step", f_step)

    def f_of(self, trajectory: Trajectory) -> float:
        return float(self.f_step[trajectory.states[:-1], trajectory.actions].sum())

    def log_policy_prob(self, trajectory: Trajectory, policy) -> float:
        policy = np.asarray(policy, dtype=float)
        return float(np.log(policy[trajectory.states[:-1], trajectory.actions]).sum())

    def log_odds(self, trajectory: Trajectory, policy) -> float:
        return self.f_of(trajectory) - self.log_policy_prob(trajectory, policy)

    def prob(self, trajectory: Trajectory, policy) -> float:
        return float(_sigmoid(self.log_odds(trajectory, policy)))


class GanGclResult(NamedTuple):
    scorer: TrajectoryScorer
    policy: np.ndarray
    history: TrainingHistory


def _trajectory_counts(trajectories: Sequence[Trajectory], n_states, n_actions) -> np.ndarray:
    counts = np.zeros((len(trajectories), n_states, n_actions))
    for i, t in enumerate(trajectories):
        np.add.at(counts[i], (t.states[:-1], t.actions), 1.0)
    return counts


def gan_gcl_train(mdp: TabularMdp, demos: Sequence[Trajectory], config: LearnerConfig) -> GanGclResult:
    """Train the trajectory-level baseline discriminator (sampled mode only)."""
    if config.variant != "gan_gcl_trajectory":
        raise ValueError("gan_gcl_train handles the gan_gcl_trajectory variant only")
    if config.mode != "sampled":
        raise ValueError("the trajectory baseline only supports sampled mode")
    try:
        demos = list(demos)
    except TypeError:
        demos = []
    if not demos or not all(isinstance(t, Trajectory) for t in demos):
        raise ValueError("the trajectory baseline needs expert trajectories")
    n_states, n_actions = mdp.n_states, mdp.n_actions
    counts_e = _trajectory_counts(demos, n_states, n_actions)

    f_step = np.zeros((n_states, n_actions))
    policy = uniform_policy(mdp)
    history = TrainingHistory()
    replay: deque[np.ndarray] = deque(maxlen=config.replay_window)
    rng = np.random.default_rng(config.seed)
    v_warm = None
    vi_steps = 0
    step = config.disc_step_size

    for iteration in range(config.iterations):
        rollouts = sample_trajectories(
            mdp, policy, config.n_policy_trajectories, seed=int(rng.integers(2**63 - 1))
        )
        replay.append(_trajectory_counts(rollouts, n_states, n_actions))
        counts_n = np.concatenate(list(replay), axis=0)

        log_pi = np.log(policy)
        log_pi_e = np.einsum("nsa,sa->n", counts_e, log_pi)
        log_pi_n = np.einsum("nsa,sa->n", counts_n, log_pi)
        f_before = f_step.copy()
        for _ in range(config.disc_steps_per_iter):
            x_e = np.einsum("nsa,sa->n", counts_e, f_step) - log_pi_e
            x_n = np.einsum("nsa,sa->n", counts_n, f_step) - log_pi_n
            grad = (
                -np.einsum("n,nsa->sa", _sigmoid(-x_e), counts_e) / len(counts_e)
                + np.einsum("n,nsa->sa", _sigmoid(x_n), counts_n) / len(counts_n)
            )
            f_step = f_step - step * grad
        if not np.all(np.isfinite(f_step)):
            raise DivergenceError(iteration)

        x_e = np.einsum("nsa,sa->n", counts_e, f_step) - log_pi_e
        x_n = np.einsum("nsa,sa->n", counts_n, f_step) - log_pi_n
        loss = float(np.logaddexp(0.0, -x_e).mean() + np.logaddexp(0.0, x_n).mean())

        solution = soft_value_iteration(
            mdp,
            RewardTable("state_action", f_step),
            entropy_weight=config.entropy_weight,
            v_init=v_warm,
        )
        policy = solution.policy
        v_warm = solution.v
        vi_steps += solution.iterations_used

        history.append(
            IterationRecord(
                iteration=iteration,
                disc_loss=loss,
                true_return=_true_return(mdp, policy),
                reward_error=centered_reward_error(
                    RewardTable("state_action", f_step), mdp.reward, mdp.transition
                ),
                g_delta=float(np.max(np.abs(f_step - f_before))),
                vi_steps_cumulative=vi_steps,
            )
        )

    return GanGclResult(scorer=TrajectoryScorer(f_step), policy=policy, history=history)
