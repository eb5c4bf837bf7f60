"""Entropy-regularized planning on tabular MDPs.

Soft policy iteration (a soft Bellman backup, then the exact soft value of
that backup's softmax policy by one linear solve) on a stack of problems in
one loop, where one problem is the stack of one and every row keeps the bits
of its own solve, each backup's product one gemv per row on the flat (S * A, S)
view of its transitions; trajectory sampling, the discounted occupancy
measure, and exact finite-horizon return evaluation of one policy or of a
stack of policies in one pass.

Sampling runs on int arrays.  One rollout call forms the start, policy and
transition CDFs once, each row capped by setting its last entry to +inf, and
takes every uniform draw from one `random((2 * horizon + 1, n))` call: row 0
picks the start states, then each step uses one row for the actions and one
for the next states, the same stream as one `random(n)` call per draw.  Each
step fetches its CDF rows with `take`: the policy rows by state, and the rows
of the transitions' (S * A, S) table by the flat index state * A + action.  A
draw's index is the first crossing, the first entry of its row above it.  A
row's cumulative sum has the same bits whether it is taken before or after
the row is indexed, so the episodes are those of CDFs formed step by step.
`Rollouts` holds such a pair of arrays, the package's one episode type from
the sampler to both learners; sampled-mode training reads its per-round
rollouts as the bare arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import RewardTable, TabularMdp, _freeze, expected_state_action


def _soft_backup(q: np.ndarray) -> np.ndarray:
    """Soft maximum over actions, logsumexp(q), per state.

    Broadcasts over leading axes.  Each row is shifted by its maximum before
    exponentiating, so no term overflows and the largest one is exactly 1.
    """
    q_max = q.max(axis=-1)
    return q_max + np.log(np.exp(q - q_max[..., None]).sum(axis=-1))


def _soft_policy(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Max-ent policy exp(q - v) of a backup, rows renormalized to 1, C-contiguous.

    Broadcasts over leading axes: a (K, S, A) stack of q with a (K, S) stack
    of v gives K policies.
    """
    policy = np.exp(q - v[..., None], order="C")
    policy /= _action_sum(policy)[..., None]
    return policy


def _action_sum(x: np.ndarray) -> np.ndarray:
    """`x.sum(axis=-1)` with its bits: numpy adds up to 7 entries of a row left to
    right, as column adds do, but costs more per row than they do from 128 rows."""
    if x.shape[-1] > 7 or x.size < 128 * x.shape[-1]:
        return x.sum(axis=-1)
    return sum(np.moveaxis(x, -1, 0)[1:], x[..., 0])


def _check_solver(r_sa: np.ndarray, discount: float, tolerance: float, max_iters: int,
                  v_init: np.ndarray | None = None) -> np.ndarray:
    """Check the arguments of one soft solve, reward `r_sa` (S, A), or of a (B, S, A)
    stack of them; return the start values, `v_init` or zeros."""
    # written as `not x > 0` so that NaN is rejected too
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not 0.0 <= discount < 1.0:
        raise ValueError(f"discount must lie in [0, 1), got {discount!r}")
    if not np.isfinite(r_sa).all():
        raise ValueError("reward contains non-finite entries")
    v = np.zeros(r_sa.shape[:-1]) if v_init is None else np.array(v_init, dtype=float)
    if v.shape != r_sa.shape[:-1]:
        rows = "one row per solve and " if r_sa.ndim == 3 else ""
        raise ValueError(f"v_init must have {rows}one entry per state")
    return v


@dataclass(frozen=True)
class SoftSolution:
    """Fixed point of the soft Bellman backup and its max-ent optimal policy.

    Satisfies v = logsumexp(q) and policy = exp(q - v) per state: unit
    temperature, as AIRL's discriminator assumes; temperature w on reward r has
    w times the q and v of reward r / w.  `iterations_used` counts soft Bellman
    backups, each but the last followed by one linear solve.  `residual` is the
    sup-norm change the last backup made to the value table.  A stack of solves
    has a leading row axis on every field; `row(i)` is one of its solves, and
    `soft_value_iteration` returns row 0 of its stack of one.
    """

    q: np.ndarray
    v: np.ndarray
    policy: np.ndarray
    iterations_used: int
    residual: float
    converged: bool

    def row(self, i: int) -> SoftSolution:
        """The solve at row `i` of a stack, with Python scalars."""
        return SoftSolution(self.q[i], self.v[i], self.policy[i], int(self.iterations_used[i]),
                            float(self.residual[i]), bool(self.converged[i]))


def soft_value_iteration(
    mdp: TabularMdp,
    reward: RewardTable | None = None,
    tolerance: float = 1e-8,
    max_iters: int = 10_000,
    *,
    v_init: np.ndarray | None = None,
) -> SoftSolution:
    """Solve the soft Bellman equation by soft policy iteration.

    Each iteration is one backup, Q <- r(s,a) + discount * T @ V and
    B(V) = logsumexp(Q, actions).  The solve stops once the sup-norm
    change |B(V) - V| drops to `tolerance`.  Otherwise V is replaced by the
    exact soft value of the backup's softmax policy pi, the solution of
    (I - discount * P_pi) V = r_pi + H_pi with
    P_pi[s, s'] = sum_a pi(a|s) T(s, a, s').  That policy-evaluation step is a
    Newton step on the soft Bellman equation, so a solve takes a handful of
    iterations where plain value iteration needs about
    log(tolerance) / log(discount) sweeps.  `iterations_used` counts backups;
    the returned q, v and policy come from the last one.

    The reward defaults to the MDP's own table; transition-arity rewards are
    collapsed to (s, a) by expectation under the dynamics.  Hitting
    `max_iters` without converging is flagged on the solution, not fatal.
    `v_init` warm-starts the value table.  The discount must lie in [0, 1):
    without a contraction the linear system is singular or its solution is
    not a fixed point worth reporting.
    """
    r_sa = expected_state_action(mdp.reward if reward is None else reward, mdp.transition)
    v = _check_solver(r_sa, mdp.discount, tolerance, max_iters, v_init)
    return _solve_stack(mdp.transition[None], r_sa[None], mdp.discount, tolerance, max_iters,
                        v_init=v[None]).row(0)


def _solve_stack(transition: np.ndarray, r_sa: np.ndarray, discount: float,
                 tolerance: float = 1e-8, max_iters: int = 10_000,
                 *, v_init: np.ndarray | None = None) -> SoftSolution:
    """`soft_value_iteration` of each row of a stack, checked once and solved in one loop.

    Takes transitions (B, S, A, S), rewards collapsed to (B, S, A) and warm
    starts `v_init` (B, S) or none; one solve is the stack of one.  A backup's
    product is one gemv per row, (B, S * A, S) @ (B, S, 1).  Rows stay in
    the stack: a converged row keeps the values it stopped from, so it repeats
    its stopping backup bit for bit and gets the bits of its own one-row solve.
    A step that leaves all values unchanged byte for byte would repeat forever,
    so the loop ends there with the outcome of `max_iters` iterations.
    """
    v = _check_solver(r_sa, discount, tolerance, max_iters, v_init)
    identity = np.eye(r_sa.shape[-2])
    flat = transition.reshape(len(transition), -1, r_sa.shape[-2])
    first_stop = None  # each row's first stopping iteration, once some rows stop early
    for iterations in range(1, max_iters + 1):
        q = r_sa + discount * (flat @ v[..., None]).reshape(r_sa.shape)
        v_new = _soft_backup(q)
        residual = np.abs(v_new - v).max(axis=-1)
        stop = residual <= tolerance
        n_stop = np.count_nonzero(stop)
        if n_stop == stop.size or iterations == max_iters:
            break
        # r_pi + H_pi = sum_a pi * (q - log pi) = v_new - gamma * P_pi @ v
        p_pi = np.einsum("bsa,bsap->bsp", _soft_policy(q, v_new), transition)
        rhs = v_new - discount * (p_pi @ v[..., None])[..., 0]
        v_next = np.linalg.solve(identity - discount * p_pi, rhs[..., None])[..., 0]
        if n_stop:
            if first_stop is None:
                first_stop = np.full(len(r_sa), max_iters)
            np.minimum(first_stop, iterations, out=first_stop, where=stop)
            v_next[stop] = v[stop]
        # bytes, not ==: NaN rows must match themselves and -0.0 must not match 0.0
        if v_next.tobytes() == v.tobytes():
            iterations = max_iters  # the outcome every later iteration would repeat
            break
        v = v_next
    iterations_used = np.full(len(r_sa), iterations)
    if first_stop is not None:
        np.minimum(iterations_used, first_stop, out=iterations_used)
    return SoftSolution(q, v_new, _soft_policy(q, v_new), iterations_used, residual,
                        residual <= tolerance)


def uniform_policy(mdp: TabularMdp) -> np.ndarray:
    return np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)


def _check_policy(mdp: TabularMdp, policy, *, stack: bool = False) -> np.ndarray:
    """A policy as a float array; with `stack`, a (K, S, A) stack is accepted too."""
    policy = np.asarray(policy, dtype=float)
    ndims = (2, 3) if stack else (2,)
    if policy.ndim not in ndims or policy.shape[-2:] != (mdp.n_states, mdp.n_actions):
        stacked = "(K, n_states, n_actions) or " if stack else ""
        raise ValueError(f"policy must have shape {stacked}(n_states, n_actions)")
    # written as `not x <= 1e-8` so that NaN rows are rejected too
    if (policy < 0).any() or not np.max(np.abs(_action_sum(policy) - 1.0)) <= 1e-8:
        raise ValueError("policy rows must be probability distributions")
    return policy


@dataclass(frozen=True)
class Rollouts:
    """`n` sampled episodes of `H` steps as read-only int arrays: `states` (n, H + 1),
    each row an episode's visited states with its final state last, and `actions` (n, H)."""

    states: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        states, actions = (_freeze(self, name, np.int64) for name in ("states", "actions"))
        if (actions.ndim != 2 or actions.size == 0
                or states.shape != (len(actions), actions.shape[1] + 1)):
            raise ValueError("rollouts need states (n, H + 1) and actions (n, H) with n, H >= 1")


def _capped_cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, each row's last entry set to +inf."""
    cdf = np.cumsum(p, axis=-1)
    cdf[..., -1] = np.inf
    return cdf


def _rollouts(mdp: TabularMdp, policy: np.ndarray, n: int, seed: int):
    """`n` episodes as int arrays: states (n, horizon + 1) and actions (n, horizon).

    The start, policy and transition CDFs are formed once, capped at +inf, and
    every uniform draw comes from one `random((2 * horizon + 1, n))` call; see
    the module docstring.  A draw's index is `(u >= row).argmin()`, the first
    entry above it; the cap makes it at most k - 1.  This is the inverse-CDF
    rule of `Generator.choice` (`searchsorted` with side="right"), so no draw,
    not even 0.0, lands on an entry of probability 0.  For a non-decreasing
    row it is the number of entries not above the draw among all but the last,
    the rule of CDFs formed per step.  A row that turns NaN stops both rules
    at its first NaN, which cumsum carries forward.
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    horizon, n_actions = mdp.horizon, mdp.n_actions
    start_cdf = _capped_cdf(mdp.initial_dist)
    policy_cdf = _capped_cdf(policy)
    step_cdf = _capped_cdf(mdp.transition.reshape(-1, mdp.n_states))
    u = np.random.default_rng(seed).random((2 * horizon + 1, n))[:, :, None]
    states = np.empty((n, horizon + 1), dtype=np.int64)
    actions = np.empty((n, horizon), dtype=np.int64)
    states[:, 0] = (u[0] >= start_cdf).argmin(axis=1)
    for t in range(horizon):
        current = states[:, t]
        actions[:, t] = (u[2 * t + 1] >= policy_cdf.take(current, axis=0)).argmin(axis=1)
        cell = current * n_actions + actions[:, t]
        states[:, t + 1] = (u[2 * t + 2] >= step_cdf.take(cell, axis=0)).argmin(axis=1)
    return states, actions


def sample_trajectories(mdp: TabularMdp, policy, n: int, seed: int) -> Rollouts:
    """Roll out `n` episodes of length mdp.horizon; deterministic per seed."""
    return Rollouts(*_rollouts(mdp, _check_policy(mdp, policy), n, seed))


def occupancy(mdp: TabularMdp, policy) -> np.ndarray:
    """Exact discounted occupancy of a policy over the MDP's horizon.

    Forward recursion over state marginals: d_0 is the initial distribution
    and d_{t+1} = d_t P_pi with P_pi[s, s'] = sum_a pi(a|s) T(s, a, s').  The
    discounted visits sum_t discount**t d_t over the horizon's steps
    (`_state_visits`) give rho(s, a, s') = visits(s) pi(a|s) T(s, a, s'),
    normalized to total mass 1, returned as a read-only (S, A, S) array.
    """
    policies = _check_policy(mdp, policy)[None]
    visits = _state_visits(mdp.transition[None], mdp.initial_dist[None], mdp.discount,
                           mdp.horizon, policies)
    rho = _occupancies(visits, policies, mdp.transition[None])[0]
    rho.setflags(write=False)
    return rho


def _state_visits(transition: np.ndarray, initial_dist: np.ndarray, discount: float,
                  horizon: int, policies: np.ndarray) -> np.ndarray:
    """The (B, S) discounted state visits of each row of (B, S, A, S) transitions,
    (B, S) start distributions and (B, S, A) policies over `horizon` steps.

    One recursion propagates every row's state distribution as a 1 x S row
    vector, and each row gets the bits of its one-MDP call.
    """
    p_pi = np.einsum("bsa,bsap->bsp", policies, transition)
    # d[:, t] holds every row's state distribution at step t; each row's (horizon, S)
    # block is contiguous, so its discounted sum is the one-row call's product
    d = np.empty((len(initial_dist), horizon, 1, initial_dist.shape[-1]))
    d[:, 0] = initial_dist[:, None, :]
    for t in range(1, horizon):
        np.matmul(d[:, t - 1], p_pi, out=d[:, t])
    return np.power(discount, np.arange(horizon)) @ d[:, :, 0]


def _occupancies(visits: np.ndarray, policies: np.ndarray, transition: np.ndarray) -> np.ndarray:
    """The (B, S, A, S) occupancy cells visits(s) pi(a|s) T(s, a, s') of each row,
    normalized to total mass 1, from (B, S) visits, (B, S, A) policies and
    (B, S, A, S) transitions; each row gets the bits of its one-row call."""
    rho = (visits[..., None] * policies)[..., None] * transition
    rho /= rho.sum(axis=(1, 2, 3), keepdims=True)
    return rho


def evaluate_return(
    mdp: TabularMdp,
    policy,
    reward: RewardTable | None = None,
    include_entropy: bool = False,
):
    """Exact expected discounted return over the MDP's horizon.

    `policy` is one (S, A) policy, which gives a float, or a (K, S, A) stack,
    which gives an array of K returns.  Both run the same horizon loop, with
    the state distribution of every policy propagated as a row vector; each
    row of a stack gets exactly the bits its single-policy call gets.  With
    `include_entropy`, each step also earns the policy entropy at the
    visited state.
    """
    if reward is None:
        reward = mdp.reward
    policy = _check_policy(mdp, policy, stack=True)
    r_sa = expected_state_action(reward, mdp.transition)
    per_state = _action_sum(policy * r_sa)
    if include_entropy:
        # p * log p with 0 * log 0 taken as 0
        log_p = np.log(policy, out=np.zeros_like(policy), where=policy > 0)
        per_state = per_state - _action_sum(policy * log_p)
    step = np.einsum("...sa,sap->...sp", policy, mdp.transition)
    # visits[t] holds each policy's state distribution at step t as a 1 x S row
    visits = np.empty((mdp.horizon,) + step.shape[:-2] + (1, mdp.n_states))
    visits[0] = mdp.initial_dist
    scales = [1.0]
    for t in range(1, mdp.horizon):
        np.matmul(visits[t - 1], step, out=visits[t])
        scales.append(scales[-1] * mdp.discount)
    # one gain per step: (horizon,) for one policy, (K, horizon) for a stack
    gains = (visits @ per_state[..., :, None])[..., 0, 0].T
    # accumulate adds the discounted gains in step order, as a running total would
    total = np.add.accumulate(np.array(scales) * gains, axis=-1)[..., -1]
    return float(total) if policy.ndim == 2 else total
