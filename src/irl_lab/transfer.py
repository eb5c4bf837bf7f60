"""Recovery and transfer experiments.

Train a reward on one MDP, re-optimize it on another with the same states,
actions and ground truth but different dynamics, and score the result against
the ground-truth optimum.  Only the reward approximator g ever transfers; the
shaping table h and the combined f stay behind.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Sequence

import numpy as np

from .airl import (DiscriminatorParams, LearnerConfig, TrainingHistory, _airl_train_stack,
                   _stack_of, f_table)
from .mdp import RewardTable, TabularMdp, _transition_problems, expected_state_action
from .shaping import advantage, centered_reward_error
from .soft_rl import (
    Rollouts,
    SoftSolution,
    _check_solver,
    _rollouts,
    _soft_backup,
    _soft_policy,
    _solve_stack,
    evaluate_return,
    occupancy,
    soft_value_iteration,
    uniform_policy,
)

# Pass/fail thresholds the reproduction manifest reports against.
RECOVERY_MAX_ERROR_STATE_ONLY = 0.1
RECOVERY_MIN_ERROR_STATE_ACTION = 0.3
RECOVERY_MAX_F_ADVANTAGE_ERROR = 0.05
TRANSFER_MIN_MEAN_SCORE_STATE_ONLY = 0.95
TRANSFER_MAX_MEAN_SCORE_STATE_ACTION = 0.3

# The reproduction's criteria, one row per bound: (manifest block, variant,
# per-seed key, numpy reduction over the seeds, comparison, bound).  A block
# passes when each of its rows' reduced value meets the row's bound.
REPRODUCTION_CRITERIA = (
    ("recovery_state_only", "airl_state_only", "recovery_error", "max", "<=",
     RECOVERY_MAX_ERROR_STATE_ONLY),
    ("recovery_state_action", "airl_state_action", "recovery_error", "min", ">",
     RECOVERY_MIN_ERROR_STATE_ACTION),
    ("recovery_state_action", "airl_state_action", "f_advantage_error", "max", "<=",
     RECOVERY_MAX_F_ADVANTAGE_ERROR),
    ("transfer_state_only", "airl_state_only", "normalized_score", "mean", ">=",
     TRANSFER_MIN_MEAN_SCORE_STATE_ONLY),
    ("transfer_state_action", "airl_state_action", "normalized_score", "mean", "<=",
     TRANSFER_MAX_MEAN_SCORE_STATE_ACTION),
)

# The probe's argmax set holds each action within this of the state's top probability.
PROBE_TIE_TOL = 1e-6

# Expert episodes sampled mode draws: `run_recovery`'s, and `expert_demos`' default.
N_EXPERT_TRAJECTORIES = 64


def _warn_unconverged(solution: SoftSolution, what: str) -> None:
    """Warn when `solution` did not converge, naming `what`, at the caller's caller."""
    if not solution.converged:
        warnings.warn(f"{what} did not converge in {solution.iterations_used} iterations "
                      f"(residual {solution.residual:.3g})", RuntimeWarning, stacklevel=3)


def expert_demos(
    mdp: TabularMdp,
    mode: str = "exact_occupancy",
    *,
    n_trajectories: int = N_EXPERT_TRAJECTORIES,
    seed: int = 0,
):
    """Demonstrations from the soft-optimal policy of the ground-truth reward.

    Returns (demos, expert_solution): the exact expert occupancy, an (S, A, S)
    array, in exact_occupancy mode, `n_trajectories` sampled expert episodes
    as `Rollouts` in sampled mode.  An unconverged expert solve warns.
    """
    solution = soft_value_iteration(mdp)
    _warn_unconverged(solution, "expert solve")
    return _demos(mdp, solution.policy, mode, n_trajectories, seed), solution


def _demos(mdp: TabularMdp, policy: np.ndarray, mode: str, n_trajectories: int, seed: int):
    """`expert_demos`' demonstrations of an already solved expert `policy`."""
    if mode == "exact_occupancy":
        return occupancy(mdp, policy)
    if mode == "sampled":
        return Rollouts(*_rollouts(mdp, policy, n_trajectories, seed))
    raise ValueError(f"unknown mode {mode!r}")


class RecoveryResult(NamedTuple):
    recovery_error: float
    history: TrainingHistory
    params: DiscriminatorParams
    policy: np.ndarray
    f_advantage_error: float


def run_recovery(mdp: TabularMdp | Sequence[TabularMdp], variant: str | Sequence[str],
                 config: LearnerConfig) -> RecoveryResult | list:
    """Train on the MDP's own expert and measure reward recovery.

    recovery_error is the mean-centered sup-norm gap between the learned g and
    the ground truth; f_advantage_error is the sup-norm gap between the full f
    table and the expert's soft advantage, the quantity the state_action
    variant collapses onto.

    `mdp` is one TabularMdp, which returns one RecoveryResult, or a sequence
    of them, which returns a list: the experts are solved as one stack (each
    is `expert_demos`' solution) and trained as one stack, so each entry
    equals its own one-MDP call bit for bit.  `variant` is one variant name,
    or a sequence of distinct AIRL variant names, which trains each MDP under
    each of them as one stack from the experts solved once and returns one
    result per variant, in the order given, each equal to its own
    one-variant call bit for bit.  Both forms hold in either mode.  Sampled
    mode draws `N_EXPERT_TRAJECTORIES` expert episodes per MDP, each MDP's
    with `config.seed`; an unconverged expert solve warns.
    """
    mdps, single = _stack_of(mdp, "run_recovery")
    one_variant = isinstance(variant, str)
    variants = [variant] if one_variant else list(variant)
    transition = np.stack([mdp.transition for mdp in mdps])
    r_sa = np.stack([expected_state_action(mdp.reward, mdp.transition) for mdp in mdps])
    solves = _solve_stack(transition, r_sa, mdps[0].discount)
    experts = [solves.row(i) for i in range(len(mdps))]
    for i, expert in enumerate(experts):
        _warn_unconverged(expert, f"expert solve of problem {i}")
    demos = [_demos(mdp, expert.policy, config.mode, N_EXPERT_TRAJECTORIES, config.seed)
             for mdp, expert in zip(mdps, experts)]
    advantages = [advantage(expert)[:, :, None] for expert in experts]
    per_variant = []
    for results in _airl_train_stack(mdps, demos, variants, config):
        recoveries = []
        for mdp, adv, (params, policy, history) in zip(mdps, advantages, results):
            error = centered_reward_error(params.g, mdp.reward, mdp.transition)
            f = f_table(params, mdp.n_states, mdp.n_actions)
            f_adv_error = float(np.max(np.abs(f - adv)))
            recoveries.append(RecoveryResult(error, history, params, policy, f_adv_error))
        per_variant.append(recoveries[0] if single else recoveries)
    return per_variant[0] if one_variant else per_variant


class NewDynamicsEval(NamedTuple):
    """A learned reward re-optimized on test dynamics, with reference returns."""

    ground_truth_optimal: float
    reoptimized_on_learned: float
    uniform_random: float
    curve: tuple[tuple[int, float], ...]
    policy: np.ndarray

    @property
    def returns(self) -> dict:
        return {
            "ground_truth_optimal": self.ground_truth_optimal,
            "reoptimized_on_learned": self.reoptimized_on_learned,
            "uniform_random": self.uniform_random,
        }

    @property
    def score(self) -> float:
        """(reopt - uniform) / (optimal - uniform); raises on a degenerate span."""
        return normalized_score(self.returns)


def _sweep_policies(mdp: TabularMdp, rewards: Sequence[RewardTable],
                    tolerance: float = 1e-8, max_iters: int = 10_000, *,
                    name_rows: bool) -> list[np.ndarray]:
    """The softmax policy of each sweep of plain soft value iteration, one row per
    reward on `mdp`, as a (sweeps, S, A) stack per row up to the row's first
    sweep within `tolerance`.

    Every row sweeps in one loop; one row is a stack of one.  A sweep's product
    is one gemv per (row, state): (1, S, A, S) @ (B, 1, S, 1), or, for one
    row, the same gemvs as (S, A, S) @ (S,), with the whole sweep on 2-D views
    of the stack, which cost what a one-row loop costs.  Each sweep's q and v
    go into buffers that double when full.  Convergence is tested once per
    chunk of 1, 2, 4, ... up to 32 sweeps, by one |v_k - v_{k-1}| maximum per
    row and sweep.  Every row sweeps until each has a sweep within tolerance,
    and each row's sweeps past its first one are dropped.  Maximum and
    subtraction are exact, so each row's kept sweeps and stopping sweep are
    those of a one-row loop that tests every sweep.  Warns for each row whose
    `max_iters` sweeps end above tolerance, naming the row when `name_rows`.
    The arguments are checked as `soft_value_iteration` checks them.
    """
    r_sa = np.array([expected_state_action(reward, mdp.transition) for reward in rewards])
    _check_solver(r_sa, mdp.discount, tolerance, max_iters)
    one, discount, tv = len(r_sa) == 1, mdp.discount, np.empty_like(r_sa)
    matrices, product, tv, reward = ((mdp.transition, tv[0], tv[0], r_sa[0]) if one else
                                     (mdp.transition[None], tv[..., None], tv, r_sa))
    capacity = min(max_iters, 256)
    qs = np.empty((capacity,) + r_sa.shape)
    # vs[k] holds every row's value table after k sweeps; vs[0] is the start
    vs = np.zeros((capacity + 1,) + r_sa.shape[:-1])
    stops = [0] * len(r_sa)  # each row's first sweep within tolerance, 0 while it has none
    done, chunk = 0, 1
    while True:
        end = min(done + chunk, max_iters)
        if end > capacity:
            capacity = min(2 * capacity, max_iters)
            qs, vs = _grown(qs, capacity), _grown(vs, capacity + 1)
        q, v = (qs[:, 0], vs[:, 0]) if one else (qs, vs)
        vectors = v if one else v[:, :, None, :, None]
        for k in range(done, end):
            np.matmul(matrices, vectors[k], out=product)
            np.multiply(tv, discount, out=tv)
            np.add(reward, tv, out=q[k])
            v[k + 1] = _soft_backup(q[k])
        residuals = np.abs(vs[done + 1:end + 1] - vs[done:end]).max(axis=-1)
        for j, hits in enumerate((residuals <= tolerance).T.tolist()):
            if not stops[j] and True in hits:
                stops[j] = done + hits.index(True) + 1
        if all(stops) or end == max_iters:
            break
        done, chunk = end, min(2 * chunk, 32)
    policies = []
    for j, stop in enumerate(stops):
        if not stop:
            stop = end
            row = f" of row {j}" if name_rows else ""
            warnings.warn(f"plain value iteration{row} did not converge in {end} sweeps "
                          f"(residual {residuals[-1, j]:.3g})", RuntimeWarning, stacklevel=3)
        policies.append(_soft_policy(qs[:stop, j], vs[1:stop + 1, j]))
    return policies


def _grown(buffer: np.ndarray, rows: int) -> np.ndarray:
    """A buffer of `rows` rows whose first rows are a copy of `buffer`."""
    grown = np.empty((rows,) + buffer.shape[1:])
    grown[:len(buffer)] = buffer
    return grown


def reoptimize_with_curve(
    mdp: TabularMdp,
    reward: RewardTable,
    *,
    tolerance: float = 1e-8,
    max_iters: int = 10_000,
):
    """Plain soft value iteration on `reward`, with the true return of each sweep.

    Returns (policy, curve) where curve lists (cumulative sweeps, ground-truth
    return of that sweep's softmax policy) up to convergence.  The curve is
    defined per sweep of plain value iteration, so this loop does not take
    `soft_value_iteration`'s policy-evaluation steps.  The sweeps' softmax
    policies come from `_sweep_policies` and are scored by one stacked
    `evaluate_return` call.  The arguments are checked as
    `soft_value_iteration` checks them; reaching `max_iters` above
    `tolerance` warns.
    """
    (policies,) = _sweep_policies(mdp, [reward], tolerance, max_iters, name_rows=False)
    return policies[-1].copy(), _curve(evaluate_return(mdp, policies, mdp.reward))


def _curve(returns: np.ndarray) -> tuple[tuple[int, float], ...]:
    """(sweep, return) pairs, numbered from 1, of each sweep's return."""
    return tuple(enumerate(returns.tolist(), start=1))


def evaluate_on_new_dynamics(
    test_mdp: TabularMdp,
    learned_reward: RewardTable | Sequence[RewardTable],
) -> NewDynamicsEval | list[NewDynamicsEval]:
    """Re-optimize a learned reward on a test MDP and collect reference returns.

    Takes one learned reward, which gives one NewDynamicsEval, or a non-empty
    sequence of them, one row per reward, which gives a list.  The
    re-optimization is `reoptimize_with_curve`'s, with its defaults, and every
    row's sweeps run in one `_sweep_policies` loop.  The test MDP's
    ground-truth soft optimum is solved once, and one stacked
    `evaluate_return` call scores every row's sweep policies, the optimum and
    the uniform policy, each row with the bits of its own call.  So every row
    equals its own one-reward call bit for bit.  Warns when the ground-truth
    solve does not converge, and for each row whose re-optimization does not,
    naming the row when given a sequence.
    """
    single = isinstance(learned_reward, RewardTable)
    rewards = [learned_reward] if single else list(learned_reward)
    if not rewards:
        raise ValueError("evaluate_on_new_dynamics needs at least one learned reward")
    policies = _sweep_policies(test_mdp, rewards, name_rows=not single)
    r_sa = expected_state_action(test_mdp.reward, test_mdp.transition)
    optimal = _solve_stack(test_mdp.transition[None], r_sa[None], test_mdp.discount).row(0)
    _warn_unconverged(optimal, "ground-truth solve")
    returns = evaluate_return(test_mdp, np.concatenate(
        [*policies, optimal.policy[None], uniform_policy(test_mdp)[None]]))
    evaluations, start = [], 0
    for sweeps in policies:
        curve = _curve(returns[start:start + len(sweeps)])
        start += len(sweeps)
        evaluations.append(NewDynamicsEval(
            ground_truth_optimal=float(returns[-2]),
            # the curve's last point is the true return of the last sweep's policy
            reoptimized_on_learned=curve[-1][1],
            uniform_random=float(returns[-1]),
            curve=curve,
            policy=sweeps[-1].copy(),
        ))
    return evaluations[0] if single else evaluations


def normalized_score(returns: dict) -> float:
    """(return - uniform) / (optimal - uniform); 1 recovers the optimum."""
    span = returns["ground_truth_optimal"] - returns["uniform_random"]
    if span <= 0:
        raise ValueError("degenerate reference returns: optimal does not beat uniform")
    return (returns["reoptimized_on_learned"] - returns["uniform_random"]) / span


class ProbeResult(NamedTuple):
    fraction: float
    agreements: tuple[bool, ...]


def disentanglement_probe(
    mdp: TabularMdp,
    reward: RewardTable,
    n_dynamics: int,
    seed: int,
    *,
    extra_dynamics=(),
) -> ProbeResult:
    """Check whether a reward ranks actions like the ground truth under new dynamics.

    Draws `n_dynamics` fresh Dirichlet transition tensors (prepending any
    `extra_dynamics`, e.g. an adversarially chosen one), solves each under the
    candidate reward and under the ground truth, and compares per-state argmax
    action sets with a tie band of `PROBE_TIE_TOL`.  Returns the agreeing fraction
    and the per-dynamics verdicts in probe order.  Every solve runs in one
    stacked `_solve_stack` call; an unconverged solve warns.  Raises ValueError
    for a negative `n_dynamics`, when there is nothing to probe, or for an
    extra tensor of the wrong shape or whose rows are not distributions.
    """
    tensors = [np.asarray(t, dtype=float) for t in extra_dynamics]
    if n_dynamics < 0 or n_dynamics + len(tensors) == 0:
        raise ValueError("the probe needs at least one dynamics to probe")
    shape = mdp.transition.shape
    for i, tensor in enumerate(tensors):
        if tensor.shape != shape:
            raise ValueError(f"transition tensor must have shape {shape}, got {tensor.shape}")
        problems = _transition_problems(tensor)
        if problems:
            raise ValueError(f"extra_dynamics[{i}] is not a transition tensor: {problems[0]}")
    draws = np.random.default_rng(seed).dirichlet(np.ones(mdp.n_states),
                                                  size=(n_dynamics, *shape[:2]))
    transition = np.concatenate([np.reshape(tensors, (-1, *shape)), draws])
    # rows: the candidate reward on each dynamics, then the ground truth on each
    n = len(transition)
    r_sa = np.concatenate([expected_state_action(reward, transition),
                           expected_state_action(mdp.reward, transition)])
    solves = _solve_stack(np.concatenate([transition, transition]), r_sa, mdp.discount)
    for i in np.flatnonzero(~solves.converged):
        table = "candidate reward" if i < n else "ground truth"
        _warn_unconverged(solves.row(i), f"probe solve of the {table} on dynamics {i % n}")
    policies = solves.policy
    in_argmax_set = policies >= policies.max(axis=-1, keepdims=True) - PROBE_TIE_TOL
    agreements = (in_argmax_set[:n] == in_argmax_set[n:]).all(axis=(1, 2))
    return ProbeResult(fraction=float(np.mean(agreements)),
                       agreements=tuple(agreements.tolist()))
