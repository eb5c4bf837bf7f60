"""Adversarial reward learning on tabular MDPs.

Every discriminator is one logistic regression over rows with logits
x = Phi(theta) + offset, expert weights w_e and negative weights w_n.  The loss
is sum(w_e * log(1 + exp(-x)) + w_n * log(1 + exp(x))), the gradient is
Phi^T (D * (w_e + w_n) - w_e) with D = sigmoid(x), and the fit is plain
gradient descent.

- AIRL: the rows are (s, a, s') cells, theta = (g, h) with g over states (or
  state-action pairs) and h a state shaping term, and Phi(theta) is
  f(s, a, s') = g(s[, a]) + discount * h(s') - h(s), applied by broadcasting.
  A state-only g is an (S,) table, or, in a stack that mixes it with
  state-action problems, an (S, A) table holding g(s) tied across actions.
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
from .mdp import (REQUIRED, RewardTable, TabularMdp, float_array, read_document,
                  reward_from_dict, reward_to_dict, strict_float, strict_int)
from .shaping import centered_reward_error
from .soft_rl import (Rollouts, SoftSolution, _occupancies, _rollouts, _solve_stack,
                      evaluate_return)

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
        h = np.array(self.h, dtype=float)
        if h.ndim != 1 or h.shape[0] != self.g.values.shape[0]:
            raise ValueError("h needs one entry per state")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)


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


def _raw_f(g: np.ndarray, h: np.ndarray, discount: float) -> np.ndarray:
    """f over the (s, a, s') cells, broadcast; g and h may carry leading problem axes.

    g is a state table when it has h's axes, else a state-action table.
    """
    g_part = g[..., None, None] if g.ndim == h.ndim else g[..., None]
    return g_part + discount * h[..., None, None, :] - h[..., None, None]


def f_table(params: DiscriminatorParams, n_states: int, n_actions: int) -> np.ndarray:
    """Dense (s, a, s') table of f = g + discount*h(s') - h(s)."""
    raw = _raw_f(params.g.values, params.h, params.discount)
    return np.ascontiguousarray(np.broadcast_to(raw, (n_states, n_actions, n_states)))


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
    x = f_value(params, s, a, sp) - float(np.log(policy[s, a]))
    return float(_sigmoid(x))


def _softplus_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log(1 + exp(-x)), log(1 + exp(x))) from one libm pass, s = log(1 + exp(-|x|)),
    as max(-x, 0) + s and max(x, 0) + s: the bits of np.logaddexp(0, -x) and
    np.logaddexp(0, x), ties, signed zeros and infinities included."""
    s = np.logaddexp(0.0, -np.abs(x))
    return np.maximum(-x, 0.0) + s, np.maximum(x, 0.0) + s


class _Problem:
    """One round's regression: logits phi(theta) + offset, weights w_e and w_n.

    theta is a tuple of arrays; `phi_t` maps a per-row vector back to a tuple
    shaped like theta.  One problem's rows span the logits' `row_axes`; axes
    before them index a stack of independent problems, whose fits never mix.
    The per-row gradient D * (w_e + w_n) - w_e equals
    half * tanh(x / 2) + (half - w_e) with half = (w_e + w_n) / 2; the row-sized
    terms that do not depend on theta are formed once, by the first `grad`, so
    a problem only a loss is taken from forms none of them.
    """

    def __init__(self, phi: Callable, phi_t: Callable, offset, w_e, w_n, row_axes):
        self.phi, self.phi_t = phi, phi_t
        self.offset, self.w_e, self.w_n, self.row_axes = offset, w_e, w_n, row_axes

    @functools.cached_property
    def _grad_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(offset / 2, half, half - w_e), the gradient's terms that do not depend on theta."""
        half = 0.5 * (self.w_e + self.w_n)
        return 0.5 * self.offset, half, half - self.w_e

    def loss(self, theta) -> np.ndarray:
        """sum(w_e * -log D) + sum(w_n * -log(1 - D)) per problem, computed in log space.

        -log D = log(1 + exp(-x)) and -log(1 - D) = log(1 + exp(x)) come from
        one `_softplus_pair` pass.  A row with pi(a|s) = 0 has an infinite
        offset, so -log(1 - D) is infinite there while the row's negative
        weight is 0; such a row adds 0 (0 * log 0 = 0).  -log D is infinite
        only for infinite parameters.
        """
        pos, neg = _softplus_pair(self.phi(theta) + self.offset)
        neg[self.w_n == 0] = 0.0
        return ((self.w_e * pos).sum(axis=self.row_axes)
                + (self.w_n * neg).sum(axis=self.row_axes))

    def grad(self, theta) -> tuple:
        """Phi^T (D * (w_e + w_n) - w_e), with D = sigmoid(x) = (1 + tanh(x / 2)) / 2."""
        half_offset, half, bias = self._grad_terms
        # in place on one row-sized array: the same operations, fewer allocations
        dl_dx = 0.5 * self.phi(theta) + half_offset
        np.tanh(dl_dx, out=dl_dx)
        dl_dx *= half
        dl_dx += bias
        return self.phi_t(dl_dx)

    def fit(self, theta, steps: int, step_size: float) -> tuple:
        for _ in range(steps):
            theta = tuple(t - step_size * g for t, g in zip(theta, self.grad(theta)))
        return theta


def _chain_to_tables(dl_df, tied: int | None, discount: float):
    """Chain a per-cell f gradient onto the g and h tables.

    g collects the cells sharing its index; h gets weight -1 at the current
    state and +discount at the successor.  Leading problem axes pass through.
    `tied` is None when every g is a state table.  Otherwise g is a
    state-action table, and the first `tied` problems of the stack are
    state-only ones holding g(s) tied across actions: each gets its per-state
    gradient copied across its actions, which keeps the copies equal.
    """
    per_state = dl_df.sum(axis=(-2, -1))
    if tied is None:
        grad_g = per_state
    else:
        grad_g = dl_df.sum(axis=-1)
        if tied:
            grad_g[:tied] = per_state[:tied, :, None]
    grad_h = discount * dl_df.sum(axis=(-3, -2)) - per_state
    return grad_g, grad_h


def _cell_problem(tied: int | None, discount: float, log_pi, w_e, w_n) -> _Problem:
    """AIRL rows: the (s, a, s') cells, theta = (g, h), offset -log pi(a|s);
    `tied` gives g's layout as `_chain_to_tables` takes it."""
    return _Problem(
        lambda theta: _raw_f(*theta, discount),
        lambda dl_df: _chain_to_tables(dl_df, tied, discount),
        -log_pi[..., None], w_e, w_n, (-3, -2, -1),
    )


def _params_problem(params: DiscriminatorParams, policy, expert, negatives):
    policy = np.asarray(policy, dtype=float)
    n_states, n_actions = policy.shape
    we = _as_weights(expert, n_states, n_actions)
    wn = _as_weights(negatives, n_states, n_actions)
    problem = _cell_problem(None if params.g.kind == "state_only" else 0, params.discount,
                            np.log(policy), we, wn)
    return problem, (params.g.values, params.h)


def discriminator_loss(params: DiscriminatorParams, policy, expert, negatives) -> float:
    """Binary logistic loss: -E_expert[log D] - E_negatives[log(1 - D)]."""
    problem, theta = _params_problem(params, policy, expert, negatives)
    return float(problem.loss(theta))


class DiscGrad(NamedTuple):
    g: np.ndarray
    h: np.ndarray


def discriminator_grad(params: DiscriminatorParams, policy, expert, negatives) -> DiscGrad:
    """Analytic gradient of the logistic loss in the two tables."""
    problem, theta = _params_problem(params, policy, expert, negatives)
    return DiscGrad(*problem.grad(theta))


def extract_reward(params: DiscriminatorParams, policy) -> RewardTable:
    """Recovered reward log D - log(1 - D), which reduces to f - log pi exactly."""
    policy = np.asarray(policy, dtype=float)
    n_states, n_actions = policy.shape
    values = f_table(params, n_states, n_actions) - np.log(policy)[:, :, None]
    return RewardTable("transition", values)


def _g_table(values: np.ndarray) -> RewardTable:
    return RewardTable("state_only" if values.ndim == 1 else "state_action", values)


def _g_rows(g: np.ndarray, variants: Sequence[str]) -> list[np.ndarray]:
    """Each problem's learned table from a stack of g rows, one row per entry of
    `variants`; a state-only problem of a stack that mixes the variants holds
    g(s) tied across actions, and gives the copy at action 0."""
    mixed = len(set(variants)) > 1
    return [row[..., 0] if mixed and variant == "airl_state_only" else row
            for row, variant in zip(g, variants)]


# an underflowed policy entry gives log pi = -inf, an intended infinite offset;
# overflow in a diverging round is caught by the training loop's checks
_ROUND_ERRSTATE = dict(divide="ignore", over="ignore", invalid="ignore")

# (round, problem) rows per `_occupancies` call of a history read, at 16x4
# about 32 KB each
_OCCUPANCY_ROWS = 128


class _StackRounds:
    """What one training stack records each round, and the diagnostics read from it.

    Each round records theta after the fit (every theta array as a
    (problem, iteration, ...) array, so `theta[0]` holds the g rows), the
    re-solved policies and the policy step's `iterations_used`; in sampled
    mode `encodings` keeps every round's stacked rollout encodings, for as
    long as a history of the stack lives, and round k's replay is the last
    `replay_window` of them up to k.  `problem` builds a round's regression
    for the loop and again for `diagnostics`, so both see the same bits.
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
        self.encodings: list[np.ndarray] = []
        self._diagnostics: tuple[np.ndarray, np.ndarray] | None = None

    def problem(self, iteration: int, policies: np.ndarray, negatives=None) -> _Problem:
        """Round `iteration`'s regression, given the (B, S, A) policies that entered it.

        Exact mode's negatives are their stacked (s, a, s') occupancies, unless
        given; sampled mode's are the replay window of encodings.
        """
        if self.mode == "exact_occupancy":
            if negatives is None:
                negatives = _occupancies(self.transition, self.initial_dist, self.discount,
                                         self.horizon, policies)
        else:
            negatives = self.encodings[max(0, iteration + 1 - self.replay_window):iteration + 1]
        with np.errstate(**_ROUND_ERRSTATE):
            return self._problem(negatives, np.log(policies))

    def record(self, iteration: int, theta: tuple, solves: SoftSolution) -> None:
        for rows, t in zip(self.theta, theta):
            rows[:, iteration] = t
        self.policies[:, iteration] = solves.policy
        self.vi_steps[:, iteration] = solves.iterations_used

    def _round_occupancies(self, entering: np.ndarray) -> np.ndarray:
        """The occupancies of (B, K, S, A) policies that entered K rounds, as (K, B, S, A, S),
        from one `_occupancies` call over the (round, problem) rows."""
        n_rounds = entering.shape[1]
        tiled = (n_rounds,) + self.transition.shape
        return _occupancies(
            np.broadcast_to(self.transition, tiled).reshape(-1, *tiled[2:]),
            np.broadcast_to(self.initial_dist, tiled[:3]).reshape(-1, tiled[2]),
            self.discount, self.horizon,
            entering.swapaxes(0, 1).reshape(-1, *entering.shape[2:]),
        ).reshape(tiled)

    def diagnostics(self) -> tuple[np.ndarray, np.ndarray]:
        """(disc_loss, g_delta), each a (problem, iteration) array, computed on the first call.

        Round k's loss is that of its rebuilt problem at the theta its fit
        ended at; its g change is max |g_k - g_(k-1)|, with g_(-1) = 0.  In
        exact mode the rounds' occupancies come from one `_occupancies` call
        per chunk of rounds, about `_OCCUPANCY_ROWS` (round, problem) rows, each
        row with the bits of the loop's own call.
        """
        if self._diagnostics is None:
            n_problems, n_rounds = self.policies.shape[:2]
            # the policies that entered each round: uniform, then each round's re-solve
            entering = np.concatenate([self.uniform[:, None], self.policies[:, :-1]], axis=1)
            losses = np.empty((n_problems, n_rounds))
            chunk = max(1, _OCCUPANCY_ROWS // n_problems)
            for start in range(0, n_rounds, chunk):
                rounds = range(start, min(start + chunk, n_rounds))
                occupancies = (self._round_occupancies(entering[:, start:rounds.stop])
                               if self.mode == "exact_occupancy" else [None] * len(rounds))
                for k, negatives in zip(rounds, occupancies):
                    theta = tuple(rows[:, k] for rows in self.theta)
                    round_problem = self.problem(k, entering[:, k], negatives)
                    with np.errstate(**_ROUND_ERRSTATE):
                        losses[:, k] = round_problem.loss(theta).reshape(n_problems)
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
    as one `_solve_stack`.  Each round records its theta, policies and
    solver iterations in a `_StackRounds`, which the histories share, and
    computes no loss: a history computes `disc_loss` and `g_delta` from the
    record when first read.
    Exact mode's negatives are the problems' stacked (s, a, s') occupancies.
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
        round_problem = stack.problem(iteration, policies)
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
    state-action one.  A one-variant stack keeps its g layout, (B, S) or
    (B, S, A); a mixed stack's g is (B, S, A), each state-only row holding
    g(s) tied across its actions.  f then has the same operands in the same
    order in both layouts, so every row keeps the bits of its own one-variant,
    one-MDP run.
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
    tied = None if order == ["airl_state_only"] else row_variants.count("airl_state_only")
    expert_w = np.stack(weights * len(order))

    def problem(negatives, log_pi):
        if config.mode == "sampled":
            negatives = _replay_weights(negatives)
        return _cell_problem(tied, gamma, log_pi, expert_w, negatives)

    def rewards(theta, transition):
        # Maximizing E[sum of (f - log pi)] is the entropy-regularized
        # objective with reward f(s, a, s'), collapsed to (s, a) by expectation
        # under the dynamics; the solver supplies -log pi as entropy.
        f = np.broadcast_to(_raw_f(*theta, gamma), transition.shape)
        return np.einsum("bsap,bsap->bsa", transition, f)

    rows = len(row_variants)
    g_shape = (n_states,) if tied is None else (n_states, n_actions)
    theta, policies, histories = _train(
        mdps * len(order), row_variants, config,
        (np.zeros((rows, *g_shape)), np.zeros((rows, n_states))),
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
        f_step = np.array(self.f_step, dtype=float)
        if f_step.ndim != 2:
            raise ValueError("f_step must be a (s, a) table")
        f_step.setflags(write=False)
        object.__setattr__(self, "f_step", f_step)

    def f_of(self, rollouts: Rollouts) -> np.ndarray:
        return self.f_step[rollouts.states[:, :-1], rollouts.actions].sum(axis=1)

    def log_policy_prob(self, rollouts: Rollouts, policy) -> np.ndarray:
        policy = np.asarray(policy, dtype=float)
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

    An episode's offset is -sum of log pi over its steps.  One that visits a
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
    offset = -(counts @ np.where(impossible, 0.0, log_pi_flat))
    offset[counts[:, impossible].any(axis=1)] = np.inf
    return _Problem(
        lambda theta: counts @ theta[0].ravel(),
        lambda dl_dx: ((dl_dx @ counts).reshape(log_pi.shape),),
        offset, w_e, w_n, -1,
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
