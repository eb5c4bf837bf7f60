"""Adversarial reward learning on tabular MDPs.

Every discriminator is one logistic regression over rows with logits
x = Phi(theta) + offset, expert weights w_e and negative weights w_n.  The loss
is sum(w_e * log(1 + exp(-x)) + w_n * log(1 + exp(x))), the gradient is
Phi^T (D * (w_e + w_n) - w_e) with D = sigmoid(x), and the fit is plain
gradient descent.

- AIRL: the rows are (s, a, s') cells, theta = (g, h) with g over states (or
  state-action pairs) and h a state shaping term, and Phi(theta) is
  f(s, a, s') = g(s[, a]) + discount * h(s') - h(s), applied by broadcasting.
  Every problem holds g as an (S, A) table, a state-only g tied across actions.
  The offset -log pi(a|s) makes D = exp(f) / (exp(f) + pi(a|s)); w_e and w_n
  are (s, a, s') occupancy or empirical weights.
- The trajectory baseline (``gan_gcl_trajectory``): the rows are episodes,
  the expert's and then the replay pool's, theta is one (s, a) table, Phi is
  the step-count matrix and the offset is -Phi log pi (+inf for an episode
  through a zero-probability action).  Each side's episodes weigh 1/count.

One loop trains both, re-solving the policy after each fit by warm-started
soft value iteration on the learned reward.  It trains a stack of AIRL
problems at once, in either mode and of either variant or both, with a
leading problem axis on theta, the weights and the offset, and re-solves
every problem's policy in one stacked solve; each problem gets the bits of
its own run.  The trajectory baseline is a stack of one.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._fmt import csv_text
from .mdp import (REQUIRED, RewardTable, TabularMdp, _freeze, float_array, read_document,
                  reward_from_dict, reward_to_dict, strict_float, strict_int)
from .shaping import _shaped, centered_reward_error
from .soft_rl import (Rollouts, SoftSolution, _occupancies, _rollouts, _solve_stack,
                      _state_visits, evaluate_return)

VARIANTS = ("airl_state_only", "airl_state_action", "gan_gcl_trajectory")
MODES = ("exact_occupancy", "sampled")


def _sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), accurate to 2.3e-16 absolute.

    The tanh form cannot overflow, so it is silent on +-inf, NaN and large |x|.
    """
    return 0.5 * np.tanh(0.5 * x) + 0.5


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite parameters or a non-finite policy step."""

    def __init__(self, iteration: int, what: str = "discriminator parameters"):
        # args stay (iteration, what), so unpickling rebuilds this error
        super().__init__(iteration, what)
        self.iteration = iteration
        self.what = what

    def __str__(self) -> str:
        return f"non-finite {self.what} at iteration {self.iteration}"


@dataclass(frozen=True)
class DiscriminatorParams:
    """The two learned tables and the discount that couples them in f."""

    g: RewardTable
    h: np.ndarray
    discount: float

    def __post_init__(self):
        if self.g.kind == "transition":
            raise ValueError("g must be a state_only or state_action table")
        h = _freeze(self, "h")
        if h.ndim != 1 or h.shape[0] != self.g.values.shape[0]:
            raise ValueError("h needs one entry per state")


def params_to_dict(params: DiscriminatorParams) -> dict:
    return {
        "g": reward_to_dict(params.g),
        "h": params.h.tolist(),
        "discount": params.discount,
    }


_PARAMS_KEYS = {
    "g": (reward_from_dict, REQUIRED),
    "h": (float_array, REQUIRED),
    "discount": (strict_float, REQUIRED),
}


def params_from_dict(doc) -> DiscriminatorParams:
    return DiscriminatorParams(**read_document(doc, _PARAMS_KEYS, "discriminator params"))


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
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "disc_steps_per_iter", "replay_window",
                     "n_policy_trajectories", "seed"):
            strict_int(getattr(self, name), name)
        strict_float(self.disc_step_size, "disc_step_size")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("iterations", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.disc_steps_per_iter < 1:
            raise ValueError("disc_steps_per_iter must be at least 1")
        if not 0 < self.disc_step_size < np.inf:
            raise ValueError("disc_step_size must be a finite number > 0")
        if self.replay_window < 1:
            raise ValueError("replay_window must be at least 1")
        if self.n_policy_trajectories < 1:
            raise ValueError("n_policy_trajectories must be at least 1")


class TrainingHistory:
    """Per-iteration diagnostics of a training run on `mdp`, one column per field:

    - `iteration`, written `iter` in the CSV and JSON;
    - `disc_loss`, the discriminator loss after the round's fit;
    - `true_return`, the re-solved policy's return under the true reward (no entropy bonus);
    - `reward_error`, the centered sup-norm gap between g and the true reward;
    - `g_delta`, the largest change the round's fit made to the learned table g;
    - `vi_steps_cumulative` (JSON only), `SoftSolution.iterations_used` summed over
      the policy steps so far: solver iterations (a backup plus a linear solve).

    Training passes the `_StackRounds` its stack recorded, this history's
    row in it and the row's g tables, one per iteration.  The first read
    computes every column and keeps them; each read returns copies.
    `true_return` and `reward_error` come from the row's g and policy
    tables, the returns by one stacked `evaluate_return` call; `disc_loss`
    and `g_delta` come from the stack's `diagnostics`, computed for every row
    of the stack at the first read of any of its histories.  An unread
    history computes none of them.
    """

    def __init__(self, mdp: TabularMdp, stack: _StackRounds, row: int, g: np.ndarray):
        self._mdp, self._stack, self._row, self._g = mdp, stack, row, g
        self._policy = stack.policies[row]
        self._read: dict[str, list] | None = None

    def __len__(self) -> int:
        return len(self._g)

    def _columns(self) -> dict[str, list]:
        """Every column by field name, in output order, computed on the first call."""
        if self._read is None:
            mdp = self._mdp
            returns = evaluate_return(mdp, self._policy, mdp.reward).tolist() if len(self) else []
            disc_loss, g_delta = (rows[self._row].tolist() for rows in self._stack.diagnostics())
            self._read = {
                "iteration": list(range(len(self))),
                "disc_loss": disc_loss,
                "true_return": returns,
                "reward_error": [centered_reward_error(_g_table(g), mdp.reward, mdp.transition)
                                 for g in self._g],
                "g_delta": g_delta,
                "vi_steps_cumulative": np.cumsum(self._stack.vi_steps[self._row]).tolist(),
            }
        return self._read

    def column(self, name: str) -> np.ndarray:
        return np.array(self._columns()[name])

    def to_csv_text(self) -> str:
        columns = dict(self._columns())
        del columns["vi_steps_cumulative"]
        return csv_text(["iter", *list(columns)[1:]], zip(*columns.values()))

    def to_json_dict(self) -> dict:
        columns = {name: list(values) for name, values in self._columns().items()}
        columns["iter"] = columns.pop("iteration")
        return columns


@dataclass(frozen=True)
class TransitionBatch:
    """A bag of (s, a, s') samples."""

    states: np.ndarray
    actions: np.ndarray
    next_states: np.ndarray

    def __post_init__(self):
        states, actions, next_states = (_freeze(self, name, np.int64)
                                        for name in ("states", "actions", "next_states"))
        if not (states.shape == actions.shape == next_states.shape) or states.ndim != 1:
            raise ValueError("batch arrays must be 1-d and equally long")

    def __len__(self) -> int:
        return len(self.states)

    def to_weights(self, n_states: int, n_actions: int) -> np.ndarray:
        """Empirical (s, a, s') frequency tensor, normalized to total mass 1."""
        if len(self) == 0:
            raise ValueError("empty transition batch")
        _check_in_table((self.states, n_states), (self.actions, n_actions),
                        (self.next_states, n_states))
        return _cell_counts(self.states, self.actions, self.next_states, n_states,
                            n_actions) / len(self)


def _check_in_table(*indexes: tuple[np.ndarray, int]) -> None:
    """Refuse an (index array, table size) pair with an index outside [0, size)."""
    for index, size in indexes:
        if len(index) and (index.min() < 0 or index.max() >= size):
            raise ValueError("a sample indexes a state or action outside the table")


def pool_batches(batches: Sequence[TransitionBatch]) -> TransitionBatch:
    """Concatenate replay batches into one pool."""
    if not batches:
        raise ValueError("no batches to pool")
    return TransitionBatch(
        np.concatenate([b.states for b in batches]),
        np.concatenate([b.actions for b in batches]),
        np.concatenate([b.next_states for b in batches]),
    )


def _counts(index: np.ndarray, shape: tuple) -> np.ndarray:
    """How often each flat index of a `shape` table occurs in `index`, as floats."""
    return np.bincount(index.ravel(), minlength=np.prod(shape)).reshape(shape).astype(float)


def _cell_counts(states, actions, next_states, n_states: int, n_actions: int) -> np.ndarray:
    """(s, a, s') visit counts of equally shaped state, action and successor arrays."""
    cells = (states * n_actions + actions) * n_states + next_states
    return _counts(cells, (n_states, n_actions, n_states))


def _rollout_counts(states, actions, n_states: int, n_actions: int) -> np.ndarray:
    """(s, a, s') visit counts of rollouts, states (n, H + 1) and actions (n, H)."""
    return _cell_counts(states[:, :-1], actions, states[:, 1:], n_states, n_actions)


def _replay_weights(replay) -> np.ndarray:
    """The replay's summed (..., S, A, S) cell counts, each problem's normalized to mass 1.

    Equal bit for bit to `pool_batches` of the same rollouts followed by
    `to_weights`: the counts are integers, exact in float64.
    """
    counts = sum(replay)
    return counts / counts.sum(axis=(-3, -2, -1), keepdims=True)


def _as_weights(data, n_states: int, n_actions: int) -> np.ndarray:
    """Expert or negative data as an (s, a, s') weight tensor: an (S, A, S) array as
    given, or `Rollouts` as their cell counts over n * H, the bits of `to_weights`
    on the same transitions."""
    if isinstance(data, np.ndarray):
        if data.shape != (n_states, n_actions, n_states):
            raise ValueError("weight tensor has the wrong shape")
        return data
    if isinstance(data, Rollouts):
        _check_in_table((data.states, n_states), (data.actions, n_actions))
        return _rollout_counts(data.states, data.actions, n_states, n_actions) / data.actions.size
    raise TypeError("expected an (S, A, S) weight tensor or Rollouts")


def f_table(params: DiscriminatorParams, n_states: int, n_actions: int) -> np.ndarray:
    """Dense (s, a, s') table of f = g + discount*h(s') - h(s): g shaped by the potential h."""
    f = _shaped(params.g.cells, params.h, params.discount)
    return np.ascontiguousarray(np.broadcast_to(f, (n_states, n_actions, n_states)))


def f_value(params: DiscriminatorParams, s: int, a: int, sp: int) -> float:
    """f at a single (s, a, s') triple."""
    if params.g.kind == "state_only":
        g = params.g.lookup(s)
    else:
        g = params.g.lookup(s, a)
    return float(g + params.discount * params.h[sp] - params.h[s])


def discriminator_prob(params: DiscriminatorParams, policy, s: int, a: int, sp: int) -> float:
    """D(s, a, s') = exp(f) / (exp(f) + pi(a|s)), evaluated stably."""
    policy = np.asarray(policy, dtype=float)
    with np.errstate(divide="ignore"):
        x = f_value(params, s, a, sp) - float(np.log(policy[s, a]))
    return float(_sigmoid(x))


def _softplus_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log(1 + exp(-x)), log(1 + exp(x))) from one libm pass, s = log(1 + exp(-|x|)),
    as max(-x, 0) + s and max(x, 0) + s: the bits of np.logaddexp(0, -x) and
    np.logaddexp(0, x), ties, signed zeros and infinities included."""
    s = np.logaddexp(0.0, -np.abs(x))
    return np.maximum(-x, 0.0) + s, np.maximum(x, 0.0) + s


class _Problem:
    """One round's regression: logits x(theta), weights w_e and w_n.

    theta is a tuple of arrays; `half_logits(theta, out)` gives x / 2, into the
    row-sized array `out` if given, and the linear `phi_t` maps a per-row
    vector back to a tuple shaped like theta.  One problem's rows span the
    logits' `row_axes`; axes before them index a stack of independent
    problems, whose fits never mix.  The per-row gradient D * (w_e + w_n) - w_e
    equals half * tanh(x / 2) + (half - w_e) with half = (w_e + w_n) / 2, so the
    gradient is phi_t(half * tanh(x / 2)) plus phi_t(half - w_e), a constant
    that the first `grad` forms with half: a problem only a loss is taken from
    forms neither.  `fit` runs its builder's `descend(self, theta, steps, step_size)`.
    """

    def __init__(self, half_logits: Callable, phi_t: Callable, descend, w_e, w_n, row_axes):
        self.half_logits, self.phi_t, self.descend = half_logits, phi_t, descend
        self.w_e, self.w_n, self.row_axes = w_e, w_n, row_axes

    @functools.cached_property
    def _grad_terms(self) -> tuple[np.ndarray, tuple]:
        """(half, phi_t(half - w_e)), the theta-free gradient terms; half C-contiguous like x."""
        half = np.multiply(0.5, self.w_e + self.w_n, order="C")
        return half, self.phi_t(half - self.w_e)

    def logits(self, theta) -> np.ndarray:
        """x, twice the half logits the gradient steps on."""
        return 2.0 * self.half_logits(theta)

    def loss(self, theta) -> np.ndarray:
        """sum(w_e * -log D) + sum(w_n * -log(1 - D)) per problem, computed in log space.

        -log D = log(1 + exp(-x)) and -log(1 - D) = log(1 + exp(x)) come from
        one `_softplus_pair` pass.  A row with pi(a|s) = 0 has an infinite
        logit, so -log(1 - D) is infinite there while the row's negative
        weight is 0; such a row adds 0 (0 * log 0 = 0).  -log D is infinite
        only for infinite parameters.
        """
        pos, neg = _softplus_pair(self.logits(theta))
        neg[self.w_n == 0] = 0.0
        return ((self.w_e * pos).sum(axis=self.row_axes)
                + (self.w_n * neg).sum(axis=self.row_axes))

    def grad(self, theta, out=None) -> tuple:
        """Phi^T (D * (w_e + w_n) - w_e), with D = sigmoid(x) = (1 + tanh(x / 2)) / 2;
        x / 2 goes into `out` when given, and tanh and the product work in place."""
        half, chained_bias = self._grad_terms
        dl_dx = self.half_logits(theta, out)
        np.tanh(dl_dx, out=dl_dx)
        dl_dx *= half
        return tuple(map(np.add, self.phi_t(dl_dx), chained_bias))

    def fit(self, theta, steps: int, step_size: float) -> tuple:
        return self.descend(self, theta, steps, step_size)


def _step_theta(problem: _Problem, theta, steps: int, step_size: float) -> tuple:
    """`steps` GD steps on theta itself, every step's x / 2 written into one buffer."""
    buffer = np.empty_like(problem._grad_terms[0])
    for _ in range(steps):
        theta = tuple(t - step_size * g for t, g in zip(theta, problem.grad(theta, buffer)))
    return theta


def _cell_problem(tied: int, discount: float, log_pi, w_e, w_n) -> _Problem:
    """AIRL rows: the (s, a, s') cells, theta = (g, h), logits f - log pi(a|s).

    Every argument has a leading problem axis, and g is a (B, S, A) table.  The
    first `tied` problems of the stack are state-only ones, each holding g(s)
    tied across actions.  The cells are held as (B, A, S, S'); x / 2 = a(s, a)
    + c(s'), [a; c] = `tables` = [(g - h(s) - log pi) / 2; (discount / 2) h].
    The chain gives g the sum of the cells sharing its index and h weight -1
    at the current state and +discount at the successor, by each (s, a)'s sum
    u and each successor's sum v; a tied row's g gets its state's sum of u.  A
    GD step moves [a; c] at s by a constant plus one (A + 1)-square map per row
    of [u; v] at s, `tables` of the chain of unit sums: `descend` steps [a; c].
    """
    rows, n_states, n_actions = log_pi.shape
    by_action, by_successor, by_cell = map(np.ones, (n_actions, n_states, n_states * n_actions))

    def tables(g, h, offset=0.0):
        return np.concatenate([(0.5 * (g - h[..., None] - offset)).swapaxes(1, 2),
                               (0.5 * discount) * h[:, None]], 1)

    def half_logits(theta, out=None):
        a_c = tables(*theta, log_pi)
        return np.add(a_c[:, :-1, :, None], a_c[:, None, None, -1], out=out)

    def chain(per_sa, per_successor):
        per_state = per_sa @ by_action
        if tied:
            per_sa[:tied] = per_state[:tied, :, None]
        return per_sa, discount * per_successor - per_state

    def phi_t(dl_df):
        cells = dl_df.reshape(rows, n_states * n_actions, n_states)
        per_sa = (cells @ by_successor).reshape(rows, n_actions, n_states).swapaxes(1, 2)
        return chain(per_sa, by_cell @ cells)

    def descend(problem, theta, steps, step_size):
        half, chained_bias = problem._grad_terms
        units = np.broadcast_to(np.eye(n_actions + 1), (rows, n_actions + 1, n_actions + 1))
        step_map = -step_size * tables(*chain(units[..., :-1].copy(), units[..., -1]))
        constant = -step_size * tables(*chained_bias)
        # rows [1, a] over [c, 1] give x / 2 = [a, 1] @ [1; c] exactly; [a; c] is one run
        factors = np.ones((rows, 2, (n_actions + 1) * n_states))
        a_c = factors.reshape(rows, -1)[:, n_states:-n_actions * n_states].reshape(constant.shape)
        a_c[:] = tables(*theta, log_pi)
        a_1, ones_c = factors[:, :, n_states:].swapaxes(1, 2), factors[:, :, :n_states]
        z, summed, delta = np.empty(a_c.shape), np.zeros(a_c.shape), np.empty(a_c.shape)
        half = half.reshape(rows, -1, n_states)
        cells = np.empty(half.shape)
        # BLAS may multiply an infinite a by the zeros padding its tiles, unstored
        with np.errstate(invalid="ignore"):
            for _ in range(steps):
                np.matmul(a_1, ones_c, out=cells)
                np.tanh(cells, out=cells)
                cells *= half
                np.matmul(cells, by_successor, out=z[:, :-1].reshape(rows, -1))
                np.matmul(by_cell, cells, out=z[:, -1])
                summed += z
                np.matmul(step_map, z, out=delta)
                a_c += delta
                a_c += constant
        grads = chain(summed[:, :-1].swapaxes(1, 2), summed[:, -1])
        return tuple(t - step_size * (d + steps * b) for t, d, b in zip(theta, grads, chained_bias))

    return _Problem(half_logits, phi_t, descend, w_e.swapaxes(1, 2), w_n.swapaxes(1, 2),
                    (-3, -2, -1))


def _params_problem(params: DiscriminatorParams, policy, expert, negatives):
    """`params`' regression as a stack of one, with theta; a state-only g is tied
    across actions, as in training."""
    policy = np.asarray(policy, dtype=float)
    n_states, n_actions = policy.shape
    we = _as_weights(expert, n_states, n_actions)
    wn = _as_weights(negatives, n_states, n_actions)
    with np.errstate(divide="ignore"):
        log_pi = np.log(policy)
    problem = _cell_problem(int(params.g.kind == "state_only"), params.discount, log_pi[None],
                            we[None], wn[None])
    g = np.broadcast_to(params.g.values.reshape(n_states, -1), (n_states, n_actions))
    return problem, (g[None], params.h[None])


def discriminator_loss(params: DiscriminatorParams, policy, expert, negatives) -> float:
    """Binary logistic loss: -E_expert[log D] - E_negatives[log(1 - D)]."""
    problem, theta = _params_problem(params, policy, expert, negatives)
    return float(problem.loss(theta)[0])


class DiscGrad(NamedTuple):
    g: np.ndarray
    h: np.ndarray


def discriminator_grad(params: DiscriminatorParams, policy, expert, negatives) -> DiscGrad:
    """Analytic gradient of the logistic loss in the two tables."""
    problem, theta = _params_problem(params, policy, expert, negatives)
    (grad_g,), (grad_h,) = problem.grad(theta)
    return DiscGrad(grad_g[:, 0] if params.g.kind == "state_only" else grad_g, grad_h)


def extract_reward(params: DiscriminatorParams, policy) -> RewardTable:
    """Recovered reward log D - log(1 - D), which reduces to f - log pi exactly."""
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.asarray(policy, dtype=float))
    n_states, n_actions = log_pi.shape
    return RewardTable("transition", f_table(params, n_states, n_actions) - log_pi[:, :, None])


def _g_table(values: np.ndarray) -> RewardTable:
    return RewardTable("state_only" if values.ndim == 1 else "state_action", values)


def _g_rows(g: np.ndarray, variants: Sequence[str]) -> list[np.ndarray]:
    """Each problem's learned table from a stack of (..., S, A) g rows, one row per
    entry of `variants`; a state-only problem holds g(s) tied across actions,
    and gives the copy at action 0."""
    return [row[..., 0] if v == "airl_state_only" else row for row, v in zip(g, variants)]


# an underflowed policy entry gives log pi = -inf, an intended infinite offset;
# overflow in a diverging round is caught by the training loop's checks
_ROUND_ERRSTATE = dict(divide="ignore", over="ignore", invalid="ignore")

class _StackRounds:
    """What one training stack records each round, and the diagnostics read from it.

    Each round records theta after the fit (every theta array as a
    (problem, iteration, ...) array, so `theta[0]` holds the g rows), the
    re-solved policies and the policy step's `iterations_used`, and its data:
    in exact mode `visits` holds every round's (B, S) discounted state visits
    as a (problem, iteration, S) array, and in sampled mode `encodings` keeps
    every round's stacked rollout encodings, for as long as a history of the
    stack lives.  `problem` rebuilds a round's regression from the record
    alone, for the loop and again for `diagnostics`, so both see the same bits.
    """

    def __init__(self, mdps: Sequence[TabularMdp], config: LearnerConfig, theta: tuple,
                 problem: Callable):
        self.transition = np.stack([mdp.transition for mdp in mdps])
        self.initial_dist = np.stack([mdp.initial_dist for mdp in mdps])
        self.discount, self.horizon = mdps[0].discount, mdps[0].horizon
        self.mode, self.replay_window, self._problem = config.mode, config.replay_window, problem
        self.uniform = np.full(self.transition.shape[:-1], 1.0 / self.transition.shape[2])
        rounds = (len(mdps), config.iterations)
        self.theta = tuple(np.empty(rounds + t.shape[1:]) for t in theta)
        self.policies = np.empty(rounds + self.uniform.shape[1:])
        self.vi_steps = np.empty(rounds, dtype=int)
        self.visits = np.empty(rounds + self.initial_dist.shape[1:])
        self.encodings: list[np.ndarray] = []
        self._diagnostics: tuple[np.ndarray, np.ndarray] | None = None

    def problem(self, iteration: int) -> _Problem:
        """Round `iteration`'s regression, from the (B, S, A) policies that entered it:
        uniform at round 0, then the last round's re-solve.

        Exact mode's negatives are their (s, a, s') occupancies, formed from the
        round's recorded visits; sampled mode's are the replay window of encodings.
        """
        policies = self.uniform if iteration == 0 else self.policies[:, iteration - 1]
        if self.mode == "exact_occupancy":
            negatives = _occupancies(self.visits[:, iteration], policies, self.transition)
        else:
            negatives = self.encodings[max(0, iteration + 1 - self.replay_window):iteration + 1]
        with np.errstate(**_ROUND_ERRSTATE):
            return self._problem(negatives, np.log(policies))

    def record(self, iteration: int, theta: tuple, solves: SoftSolution) -> None:
        for rows, t in zip(self.theta, theta):
            rows[:, iteration] = t
        self.policies[:, iteration] = solves.policy
        self.vi_steps[:, iteration] = solves.iterations_used

    def diagnostics(self) -> tuple[np.ndarray, np.ndarray]:
        """(disc_loss, g_delta), each a (problem, iteration) array, computed on the first call.

        Round k's loss is that of its problem, rebuilt from the record, at the
        theta its fit ended at; its g change is max |g_k - g_(k-1)|, with
        g_(-1) = 0.
        """
        if self._diagnostics is None:
            n_problems, n_rounds = self.policies.shape[:2]
            losses = np.empty((n_problems, n_rounds))
            for k in range(n_rounds):
                theta = tuple(rows[:, k] for rows in self.theta)
                with np.errstate(**_ROUND_ERRSTATE):
                    losses[:, k] = self.problem(k).loss(theta).reshape(n_problems)
            g = self.theta[0]
            g_delta = np.abs(np.diff(g, axis=1, prepend=0.0)).max(axis=tuple(range(2, g.ndim)))
            self._diagnostics = losses, g_delta
        return self._diagnostics


def _train(mdps: Sequence[TabularMdp], variants: Sequence[str], config: LearnerConfig,
           theta: tuple, encode, problem, rewards):
    """The one training loop over a stack of problems, one per MDP.

    `variants` names each problem's variant; the problems of one variant are
    adjacent, and a warning names a problem by its variant and its index among
    them.  Returns the final theta and each problem's policy and history.
    Every theta array has a leading problem axis; theta[0] holds the learned
    reward tables, which `_g_rows` turns into each problem's g.  It raises
    DivergenceError at the first iteration where any problem's theta stops
    being finite, or its policy step's reward, residual or policy does; a
    solved step's non-convergence warnings come first.  `problem` maps the
    round's negatives and stacked log pi to a _Problem, and `rewards(theta,
    transition)` gives the policy step's (B, S, A) collapsed rewards, solved
    as one `_solve_stack`.  Each round records its data, theta, policies and
    solver iterations in a `_StackRounds`, which the histories share, builds
    its problem from that record, and computes no loss: a history computes
    `disc_loss` and `g_delta` from the record when first read.
    Exact mode records one `_state_visits` recursion of the stack per round,
    under the entering policies, and forms the (s, a, s') negatives from it.
    Sampled mode draws one seed per round from `config.seed`'s generator, and
    every problem rolls out under its own policy with that seed, so a
    one-problem run draws the same episodes.  `encode` turns one problem's
    rollouts (int arrays, states (n, horizon + 1) and actions (n, horizon))
    into a count array by one bincount; the negatives are the last
    `replay_window` stacks of those (see `_replay_weights`).
    """
    stack = _StackRounds(mdps, config, theta, problem)
    transition, discount, policies = stack.transition, stack.discount, stack.uniform
    v_warm = None
    rng = np.random.default_rng(config.seed)

    for iteration in range(config.iterations):
        if config.mode == "sampled":
            seed = int(rng.integers(2**63 - 1))
            stack.encodings.append(np.stack([
                encode(*_rollouts(mdp, policy, config.n_policy_trajectories, seed))
                for mdp, policy in zip(mdps, policies)]))
        else:
            stack.visits[:, iteration] = _state_visits(transition, stack.initial_dist, discount,
                                                       stack.horizon, policies)
        round_problem = stack.problem(iteration)
        with np.errstate(**_ROUND_ERRSTATE):
            theta = round_problem.fit(theta, config.disc_steps_per_iter, config.disc_step_size)
            if not all(np.all(np.isfinite(t)) for t in theta):
                raise DivergenceError(iteration)
            r_sa = rewards(theta, transition)
            # finite tables can still collapse to an infinite reward
            if not np.isfinite(r_sa).all():
                raise DivergenceError(iteration, "policy step")
            solves = _solve_stack(transition, r_sa, discount, v_init=v_warm)
        for i in np.flatnonzero(~solves.converged):
            variant = variants[i]
            warnings.warn(f"policy step of {variant} problem {i - variants.index(variant)} did "
                          f"not converge at iteration {iteration} (residual "
                          f"{solves.residual[i]:.3g})", RuntimeWarning, stacklevel=2)
        # exact zeros in a policy are legal; a NaN or infinite residual or policy is not
        if not (np.isfinite(solves.residual).all() and np.isfinite(solves.policy).all()):
            raise DivergenceError(iteration, "policy step")
        policies, v_warm = solves.policy, solves.v
        stack.record(iteration, theta, solves)
    histories = [TrainingHistory(mdp, stack, row, g)
                 for row, (mdp, g) in enumerate(zip(mdps, _g_rows(stack.theta[0], variants)))]
    return theta, policies, histories


class AirlResult(NamedTuple):
    params: DiscriminatorParams
    policy: np.ndarray
    history: TrainingHistory


def _stack_of(mdp, entry: str) -> tuple[list[TabularMdp], bool]:
    """(the MDPs, whether `mdp` was one MDP) for an entry that takes one or a sequence,
    which must be non-empty and share state and action counts, discount and horizon."""
    mdps = [mdp] if isinstance(mdp, TabularMdp) else list(mdp)
    if not mdps:
        raise ValueError(f"{entry} got an empty stack of MDPs")
    shared = {(m.n_states, m.n_actions, m.discount, m.horizon) for m in mdps}
    if len(shared) > 1:
        raise ValueError("stacked MDPs must share state and action counts, discount and horizon")
    return mdps, isinstance(mdp, TabularMdp)


def airl_train(mdp: TabularMdp | Sequence[TabularMdp], demos,
               config: LearnerConfig) -> AirlResult | list[AirlResult]:
    """Alternate discriminator gradient steps with soft policy re-solves.

    `mdp` is one TabularMdp, giving one AirlResult, or a sequence of MDPs that
    share state and action counts, discount and horizon, trained as one stack
    and giving a list whose entries each equal their own one-MDP call bit for
    bit.  `demos` (one per MDP of a sequence) is an (S, A, S) weight tensor,
    such as an exact expert occupancy, or sampled expert `Rollouts`.  In
    exact_occupancy mode negatives are the current policy's exact occupancy;
    in sampled mode they are rollouts pooled over the last `replay_window`
    iterations, each round's drawn with one seed for every MDP of the stack.
    Raises DivergenceError if parameters or a policy step stop being finite.
    """
    mdps, single = _stack_of(mdp, "airl_train")
    (results,) = _airl_train_stack(mdps, [demos] if single else list(demos),
                                   (config.variant,), config)
    return results[0] if single else results


def _airl_train_stack(mdps: list[TabularMdp], demos: list, variants: Sequence[str],
                      config: LearnerConfig) -> list[list[AirlResult]]:
    """Train each MDP under each of the distinct AIRL `variants` as one stack.

    Returns one list of per-MDP results per variant, in the order given;
    `demos` holds one entry per MDP, as `airl_train` takes them.  The stack's
    rows are the MDPs under the state-only variant, then under the
    state-action one.  Every stack's g is (B, S, A), each state-only row
    holding g(s) tied across its actions, so every row keeps the bits of its
    own one-variant, one-MDP run.
    """
    airl_variants = ("airl_state_only", "airl_state_action")
    if any(v not in airl_variants for v in variants):
        raise ValueError("airl_train handles the airl_* variants only")
    if not variants or len(set(variants)) < len(variants):
        raise ValueError("a stack trains each of one or more distinct variants once")
    if len(demos) != len(mdps):
        raise ValueError(f"a stack of {len(mdps)} MDPs needs as many demos, got {len(demos)}")
    n_states, n_actions, gamma = mdps[0].n_states, mdps[0].n_actions, mdps[0].discount
    weights = [_as_weights(d, n_states, n_actions) for d in demos]
    if any(w.sum() <= 0 for w in weights):
        raise ValueError("demonstrations carry no mass")
    order = [v for v in airl_variants if v in variants]
    row_variants = [v for v in order for _ in mdps]
    tied = row_variants.count("airl_state_only")
    expert_w = np.stack(weights * len(order))

    def problem(negatives, log_pi):
        if config.mode == "sampled":
            negatives = _replay_weights(negatives)
        return _cell_problem(tied, gamma, log_pi, expert_w, negatives)

    def rewards(theta, transition):
        # Maximizing E[sum of (f - log pi)] is the entropy-regularized
        # objective with reward f(s, a, s'), collapsed to (s, a) by expectation
        # under the dynamics; the solver supplies -log pi as entropy.
        g, h = theta
        f = np.broadcast_to(_shaped(g[..., None], h, gamma), transition.shape)
        return np.einsum("bsap,bsap->bsa", transition, f)

    rows = len(row_variants)
    theta, policies, histories = _train(
        mdps * len(order), row_variants, config,
        (np.zeros((rows, n_states, n_actions)), np.zeros((rows, n_states))),
        lambda states, actions: _rollout_counts(states, actions, n_states, n_actions),
        problem, rewards,
    )
    results = [AirlResult(DiscriminatorParams(_g_table(g), h, gamma), policy, history)
               for g, h, policy, history in
               zip(_g_rows(theta[0], row_variants), theta[1], policies, histories)]
    by_variant = {v: results[k * len(mdps):(k + 1) * len(mdps)] for k, v in enumerate(order)}
    return [by_variant[v] for v in variants]


@dataclass(frozen=True)
class TrajectoryScorer:
    """Trajectory-level discriminator: scores whole episodes with a (s, a) table.

    The dynamics and initial-state factors shared by expert and policy
    trajectory distributions cancel in the discriminator's odds ratio, so
    D(tau) = sigmoid(f(tau) - log pi(tau)) with f(tau) summing the table over
    the episode's steps.  Each method scores `Rollouts`, one value per episode.
    """

    f_step: np.ndarray

    def __post_init__(self):
        if _freeze(self, "f_step").ndim != 2:
            raise ValueError("f_step must be a (s, a) table")

    def f_of(self, rollouts: Rollouts) -> np.ndarray:
        return self.f_step[rollouts.states[:, :-1], rollouts.actions].sum(axis=1)

    def log_policy_prob(self, rollouts: Rollouts, policy) -> np.ndarray:
        policy = np.asarray(policy, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(policy[rollouts.states[:, :-1], rollouts.actions]).sum(axis=1)

    def log_odds(self, rollouts: Rollouts, policy) -> np.ndarray:
        return self.f_of(rollouts) - self.log_policy_prob(rollouts, policy)

    def prob(self, rollouts: Rollouts, policy) -> np.ndarray:
        return _sigmoid(self.log_odds(rollouts, policy))


class GanGclResult(NamedTuple):
    scorer: TrajectoryScorer
    policy: np.ndarray
    history: TrainingHistory


def _episode_counts(states, actions, n_states: int, n_actions: int) -> np.ndarray:
    """Step-count matrix of rollouts, states (n, H + 1) and actions (n, H): row e
    counts episode e's visits to each flattened (s, a)."""
    episode = np.arange(len(actions))[:, None]
    return _counts((episode * n_states + states[:, :-1]) * n_actions + actions,
                   (len(actions), n_states * n_actions))


def _episode_problem(counts: np.ndarray, n_expert: int, log_pi) -> _Problem:
    """Trajectory rows: the first `n_expert` count rows are expert, the rest negative.

    An episode's logit is its f plus the offset -sum of log pi over its steps.  One
    zero-probability (s, a) cell has probability 0 under pi, so its offset is
    +inf, as the cell problem's is; the other rows skip those cells, which
    they never visit, so a policy without zeros gives the plain product.
    This is one problem: a leading axis of length one on log pi, as the
    training loop passes it, carries over to theta's shape.
    """
    w_e, w_n = np.zeros(len(counts)), np.zeros(len(counts))
    w_e[:n_expert] = 1.0 / n_expert
    w_n[n_expert:] = 1.0 / (len(counts) - n_expert)
    log_pi_flat = log_pi.ravel()
    impossible = np.isneginf(log_pi_flat)
    half_offset = -0.5 * (counts @ np.where(impossible, 0.0, log_pi_flat))
    half_offset[counts[:, impossible].any(axis=1)] = np.inf
    return _Problem(
        lambda theta, out=None: np.add(0.5 * (counts @ theta[0].ravel()), half_offset, out=out),
        lambda dl_dx: ((dl_dx @ counts).reshape(log_pi.shape),), _step_theta,
        w_e, w_n, -1,
    )


def gan_gcl_train(mdp: TabularMdp, demos: Rollouts, config: LearnerConfig) -> GanGclResult:
    """Train the trajectory-level baseline discriminator (sampled mode only) on the
    expert's `Rollouts`, encoded as `_episode_counts` rows as each round's are."""
    if config.variant != "gan_gcl_trajectory":
        raise ValueError("gan_gcl_train handles the gan_gcl_trajectory variant only")
    if config.mode != "sampled":
        raise ValueError("the trajectory baseline only supports sampled mode")
    if not isinstance(demos, Rollouts):
        raise ValueError("the trajectory baseline needs expert trajectories as Rollouts")
    n_states, n_actions = mdp.n_states, mdp.n_actions
    # the step counts index flat (episode, state, action) cells, so an index
    # outside the table would land in another cell's count
    _check_in_table((demos.states, n_states), (demos.actions, n_actions))
    counts_e = _episode_counts(demos.states, demos.actions, n_states, n_actions)
    (f_steps,), (policy,), (history,) = _train(
        [mdp],
        [config.variant],
        config,
        (np.zeros((1, n_states, n_actions)),),
        lambda states, actions: _episode_counts(states, actions, n_states, n_actions),
        lambda pool, log_pi: _episode_problem(
            np.concatenate([counts_e, *(counts[0] for counts in pool)]), len(counts_e), log_pi
        ),
        lambda theta, transition: theta[0],
    )
    return GanGclResult(scorer=TrajectoryScorer(f_steps[0]), policy=policy, history=history)
