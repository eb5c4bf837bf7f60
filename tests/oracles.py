"""Independent reference implementations used to cross-check the package.

Everything here is written with plain Python loops and explicit formulas,
deliberately avoiding the vectorized code paths under test.  `loop_return`,
`loop_curve`, `loop_sample_trajectories`, `loop_soft_value_iteration` and
`loop_probe` are the exceptions: they are the earlier per-policy, per-sweep,
per-step, one-problem and per-dynamics forms of batched functions, kept to pin
those functions' outputs bit for bit; so are `two_pass_loss`, the earlier
two-pass form of the discriminator loss, and `chain_cell`, the earlier CSV
cell formatter.  `backward_soft_recursion`,
`general_soft_backup`, `general_soft_policy`, `loop_return` and
`enumerate_return` take any entropy weight (temperature) w, which the package
fixes at 1; they check that temperature w is the reward scaled by 1 / w.
"""

import math
from dataclasses import replace

import numpy as np

from irl_lab.airl import discriminator_loss, DiscriminatorParams
from irl_lab.mdp import RewardTable, TabularMdp, expected_state_action
from irl_lab.soft_rl import (SoftSolution, _soft_backup, _soft_policy, evaluate_return,
                             soft_value_iteration)
from irl_lab.transfer import PROBE_TIE_TOL, ProbeResult


def reward_sa(mdp: TabularMdp, reward: RewardTable | None = None) -> np.ndarray:
    """Collapse any reward arity to (s, a) with explicit loops."""
    if reward is None:
        reward = mdp.reward
    out = np.zeros((mdp.n_states, mdp.n_actions))
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            if reward.kind == "state_only":
                out[s, a] = reward.values[s]
            elif reward.kind == "state_action":
                out[s, a] = reward.values[s, a]
            else:
                total = 0.0
                for sp in range(mdp.n_states):
                    total += mdp.transition[s, a, sp] * reward.values[s, a, sp]
                out[s, a] = total
    return out


def backward_soft_recursion(
    mdp: TabularMdp,
    reward: RewardTable | None = None,
    entropy_weight: float = 1.0,
    sweeps: int = 300,
):
    """Finite-horizon soft backup from V=0, loop-by-loop.

    With enough sweeps this converges to the stationary soft solution
    (discount < 1); returns (q, v, policy).
    """
    r = reward_sa(mdp, reward)
    w = entropy_weight
    v = [0.0] * mdp.n_states
    q = [[0.0] * mdp.n_actions for _ in range(mdp.n_states)]
    for _ in range(sweeps):
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                backup = 0.0
                for sp in range(mdp.n_states):
                    backup += mdp.transition[s, a, sp] * v[sp]
                q[s][a] = r[s, a] + mdp.discount * backup
        new_v = []
        for s in range(mdp.n_states):
            m = max(q[s])
            new_v.append(m + w * math.log(sum(math.exp((x - m) / w) for x in q[s])))
        v = new_v
    policy = np.zeros((mdp.n_states, mdp.n_actions))
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            policy[s, a] = math.exp((q[s][a] - v[s]) / w)
        policy[s] /= policy[s].sum()
    return np.array(q), np.array(v), policy


def general_soft_backup(q: np.ndarray, w: float) -> np.ndarray:
    """w * logsumexp(q / w) over the last axis, shifted by the row maximum, for any w."""
    z = q / w
    z_max = z.max(axis=-1)
    return w * (z_max + np.log(np.exp(z - z_max[..., None]).sum(axis=-1)))


def general_soft_policy(q: np.ndarray, v: np.ndarray, w: float) -> np.ndarray:
    """exp((q - v) / w) with rows renormalized to 1, for any w."""
    policy = np.exp((q - v[..., None]) / w)
    policy /= policy.sum(axis=-1, keepdims=True)
    return policy


def loop_return(
    mdp: TabularMdp,
    policy: np.ndarray,
    reward: RewardTable | None = None,
    include_entropy: bool = False,
    entropy_weight: float = 1.0,
) -> float:
    """One policy's return as a running total over 1-D state distributions.

    The same products, dot products and summation order as `evaluate_return`,
    one policy at a time, so the two agree exactly.
    """
    if reward is None:
        reward = mdp.reward
    r_sa = expected_state_action(reward, mdp.transition)
    per_state = (policy * r_sa).sum(axis=1)
    if include_entropy:
        log_p = np.log(policy, out=np.zeros_like(policy), where=policy > 0)
        per_state = per_state - entropy_weight * (policy * log_p).sum(axis=1)
    step = np.einsum("sa,sap->sp", policy, mdp.transition)
    d = mdp.initial_dist.copy()
    total = 0.0
    scale = 1.0
    for _ in range(mdp.horizon):
        total += scale * float(d @ per_state)
        d = d @ step
        scale *= mdp.discount
    return total


def loop_curve(
    mdp: TabularMdp,
    reward: RewardTable,
    tolerance: float = 1e-8,
    max_iters: int = 10_000,
):
    """Plain soft value iteration scored once per sweep; returns (policy, curve).

    Each sweep builds its softmax policy and calls single-policy
    `evaluate_return` on it, as `reoptimize_with_curve` did before it scored
    the whole stack in one call.
    """
    r_sa = expected_state_action(reward, mdp.transition)
    v = np.zeros(mdp.n_states)
    curve = []
    for sweep in range(1, max_iters + 1):
        q = r_sa + mdp.discount * (mdp.transition @ v)
        v_new = _soft_backup(q)
        residual = float(np.max(np.abs(v_new - v)))
        v = v_new
        policy = _soft_policy(q, v)
        curve.append((sweep, evaluate_return(mdp, policy, mdp.reward)))
        if residual <= tolerance:
            break
    return policy, tuple(curve)


def loop_soft_value_iteration(mdp: TabularMdp, reward: RewardTable | None = None,
                              max_iters: int = 10_000, v_init=None,
                              tolerance: float = 1e-8) -> SoftSolution:
    """Soft policy iteration on one problem's 2-D tables.

    The loop `soft_value_iteration` ran before it became the stack-of-one
    call of the stacked solver; the arguments are not checked.
    """
    r_sa = expected_state_action(mdp.reward if reward is None else reward, mdp.transition)
    gamma = mdp.discount
    v = np.zeros(mdp.n_states) if v_init is None else np.array(v_init, dtype=float)
    identity = np.eye(mdp.n_states)
    for iterations in range(1, max_iters + 1):
        q = r_sa + gamma * (mdp.transition @ v)
        v_new = _soft_backup(q)
        residual = float(np.max(np.abs(v_new - v)))
        converged = residual <= tolerance
        if converged or iterations == max_iters:
            break
        p_pi = np.einsum("sa,sap->sp", _soft_policy(q, v_new), mdp.transition)
        v = np.linalg.solve(identity - gamma * p_pi, v_new - gamma * (p_pi @ v))
    return SoftSolution(q, v_new, _soft_policy(q, v_new), iterations, residual, converged)


def _argmax_set(row: np.ndarray) -> frozenset[int]:
    return frozenset(np.nonzero(row >= row.max() - PROBE_TIE_TOL)[0].tolist())


def loop_probe(mdp: TabularMdp, reward: RewardTable, n_dynamics: int, seed: int, *,
               extra_dynamics=()) -> ProbeResult:
    """The disentanglement probe one dynamics and one state at a time.

    Two `soft_value_iteration` calls per dynamics and a frozenset of argmax
    actions per state, as `disentanglement_probe` did before it solved every
    dynamics in one stack.  The extra tensors are not checked.
    """
    rng = np.random.default_rng(seed)
    tensors = [np.asarray(t, dtype=float) for t in extra_dynamics]
    for _ in range(n_dynamics):
        tensors.append(
            rng.dirichlet(np.ones(mdp.n_states), size=(mdp.n_states, mdp.n_actions))
        )
    agreements = []
    for tensor in tensors:
        probe_mdp = replace(mdp, transition=tensor)
        candidate = soft_value_iteration(probe_mdp, reward)
        truth = soft_value_iteration(probe_mdp)
        agreements.append(all(
            _argmax_set(candidate.policy[s]) == _argmax_set(truth.policy[s])
            for s in range(mdp.n_states)
        ))
    return ProbeResult(fraction=float(np.mean(agreements)), agreements=tuple(agreements))


def _sample_categorical(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Draw one index per row of a (n, k) probability matrix: the first index whose
    cumulative probability lies above the draw, the last index if none does."""
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(len(probs))
    idx = (u[:, None] >= cdf).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def loop_sample_trajectories(mdp: TabularMdp, policy: np.ndarray, n: int, seed: int):
    """Episodes drawn one step at a time, each step's CDFs formed from its rows.

    One `rng.random(n)` call per draw: the start state, then each step's
    action and next state.  Returns the (states, actions) arrays, which
    `sample_trajectories` takes from one call and must give as its `Rollouts`.
    """
    rng = np.random.default_rng(seed)
    states = np.empty((n, mdp.horizon + 1), dtype=np.int64)
    actions = np.empty((n, mdp.horizon), dtype=np.int64)
    current = _sample_categorical(rng, np.broadcast_to(mdp.initial_dist, (n, mdp.n_states)))
    states[:, 0] = current
    for t in range(mdp.horizon):
        acts = _sample_categorical(rng, policy[current])
        current = _sample_categorical(rng, mdp.transition[current, acts])
        actions[:, t] = acts
        states[:, t + 1] = current
    return states, actions


def loop_occupancy(mdp: TabularMdp, policy: np.ndarray) -> np.ndarray:
    """Discounted (s, a, s') visitation by per-step marginal loops, sum-normalized."""
    rho = np.zeros((mdp.n_states, mdp.n_actions, mdp.n_states))
    d = [float(x) for x in mdp.initial_dist]
    for t in range(mdp.horizon):
        nxt = [0.0] * mdp.n_states
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                for sp in range(mdp.n_states):
                    mass = d[s] * policy[s, a] * mdp.transition[s, a, sp]
                    rho[s, a, sp] += (mdp.discount ** t) * mass
                    nxt[sp] += mass
        d = nxt
    return rho / rho.sum()


def enumerate_return(
    mdp: TabularMdp,
    policy: np.ndarray,
    reward: RewardTable | None = None,
    include_entropy: bool = False,
    entropy_weight: float = 1.0,
) -> float:
    """Expected discounted return by exhaustive path enumeration.

    Only viable for tiny MDPs and horizons; entropy is credited per visited
    state like one extra reward term.
    """
    r = reward_sa(mdp, reward)
    ent = np.zeros(mdp.n_states)
    if include_entropy:
        for s in range(mdp.n_states):
            ent[s] = -sum(
                policy[s, a] * math.log(policy[s, a])
                for a in range(mdp.n_actions)
                if policy[s, a] > 0
            )
    total = 0.0
    stack = [(s0, float(p0), 0, 0.0) for s0, p0 in enumerate(mdp.initial_dist) if p0 > 0]
    while stack:
        s, prob, t, acc = stack.pop()
        if t == mdp.horizon:
            total += prob * acc
            continue
        gain = (mdp.discount ** t) * (
            sum(policy[s, a] * r[s, a] for a in range(mdp.n_actions))
            + entropy_weight * ent[s]
        )
        for a in range(mdp.n_actions):
            for sp in range(mdp.n_states):
                p = policy[s, a] * mdp.transition[s, a, sp]
                if p > 0:
                    stack.append((sp, prob * p, t + 1, acc + gain))
    return total


def warshall_linked_classes(mdp: TabularMdp, eps: float = 1e-12):
    """Pairwise linked matrix + Warshall closure -> sorted partition."""
    n = mdp.n_states
    linked = [[False] * n for _ in range(n)]
    for s in range(n):
        reach = set()
        for a in range(mdp.n_actions):
            for sp in range(n):
                if mdp.transition[s, a, sp] > eps:
                    reach.add(sp)
        for x in reach:
            for y in reach:
                if x != y:
                    linked[x][y] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if linked[i][k] and linked[k][j]:
                    linked[i][j] = True
    classes = []
    assigned = [False] * n
    for s in range(n):
        if assigned[s]:
            continue
        cls = {s} | {t for t in range(n) if linked[s][t]}
        for t in cls:
            assigned[t] = True
        classes.append(tuple(sorted(cls)))
    return tuple(sorted(classes))


def fd_gradient(params: DiscriminatorParams, policy, expert, negatives, eps: float = 1e-5):
    """Central finite differences of the discriminator loss in every entry."""

    def loss_at(g_values, h_values):
        p = DiscriminatorParams(
            RewardTable(params.g.kind, g_values), h_values, params.discount
        )
        return discriminator_loss(p, policy, expert, negatives)

    g0 = params.g.values.copy()
    h0 = params.h.copy()
    grad_g = np.zeros_like(g0)
    for idx in np.ndindex(g0.shape):
        up, down = g0.copy(), g0.copy()
        up[idx] += eps
        down[idx] -= eps
        grad_g[idx] = (loss_at(up, h0) - loss_at(down, h0)) / (2 * eps)
    grad_h = np.zeros_like(h0)
    for idx in range(h0.shape[0]):
        up, down = h0.copy(), h0.copy()
        up[idx] += eps
        down[idx] -= eps
        grad_h[idx] = (loss_at(g0, up) - loss_at(g0, down)) / (2 * eps)
    return grad_g, grad_h


def trajectory_probability(mdp: TabularMdp, policy: np.ndarray, states, actions) -> float:
    """Exact probability of one sampled episode, its states and actions rows, dynamics
    factors included."""
    p = float(mdp.initial_dist[states[0]])
    for t, a in enumerate(actions):
        s, sp = states[t], states[t + 1]
        p *= float(policy[s, a]) * float(mdp.transition[s, a, sp])
    return p


def two_pass_loss(problem, theta) -> np.ndarray:
    """A training round's discriminator loss at theta, by two logaddexp passes:
    sum(w_e * logaddexp(0, -x)) + sum(w_n * logaddexp(0, x)) over the problem's
    rows, x = phi(theta) + offset, with the w_n term 0 where w_n = 0."""
    x = problem.phi(theta) + problem.offset
    neg = np.logaddexp(0.0, x)
    neg[problem.w_n == 0] = 0.0
    return ((problem.w_e * np.logaddexp(0.0, -x)).sum(axis=problem.row_axes)
            + (problem.w_n * neg).sum(axis=problem.row_axes))


def chain_cell(value) -> str:
    """A CSV cell's text by the isinstance checks `csv_text` made for every cell."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)
