"""Finite tabular MDPs.

Construction and validation of transition/reward tables, seeded random
generators for benchmark families, self-transition augmentation, the
linked-state decomposability analysis, and JSON (de)serialization.
Records hold read-only C-contiguous copies of their arrays (`_freeze`), and a
reward table's `cells` lay any kind on (s, a, s') axes for one broadcast.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._fmt import atomic_write_text, json_text

REWARD_KINDS = ("state_only", "state_action", "transition")

# Slack for probability-sum invariants.
PROB_TOL = 1e-12
# Threshold below which a transition probability counts as zero when building
# the one-step reachability relation.
LINK_EPS = 1e-12

_ARITY = {"state_only": 1, "state_action": 2, "transition": 3}


def strict_int(value, name: str = "value") -> int:
    """`value` as an int; bools, floats (4.0 included), strings and None raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def strict_float(value, name: str = "value") -> float:
    """`value` as a float; bools, strings and None raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} {value!r} is out of range") from exc


# Marks a read_document key that has no default.
REQUIRED = object()


def read_document(doc, schema: dict, what: str) -> dict:
    """Convert JSON object `doc` by `schema`, a {key: (convert, default | REQUIRED)} table.

    Returns every schema key: convert(doc[key]), or the default when the key
    is absent.  A non-object, an unknown key, a missing REQUIRED key or a
    failed conversion raises ValueError naming the key and `what`.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in doc:
        if key not in schema:
            raise ValueError(f"unknown key {key!r} in {what}")
    out = {}
    for key, (convert, default) in schema.items():
        if key not in doc:
            if default is REQUIRED:
                raise ValueError(f"missing key {key!r} in {what}")
            out[key] = default
            continue
        try:
            out[key] = convert(doc[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid {key!r} in {what}: {exc}") from exc
    return out


def _holds_bool(value) -> bool:
    if isinstance(value, list):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def float_array(value) -> np.ndarray:
    """A JSON number or nested list of numbers as a float array; anything else raises.

    A bool anywhere is refused: numpy would read [true, 0] as the number 1.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or _holds_bool(value):
        raise ValueError(f"expected numbers, got {value!r}")
    return arr.astype(float)


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _freeze(record, name: str, dtype=float) -> np.ndarray:
    """Set field `name` of the frozen dataclass `record` to a read-only C-contiguous copy
    of its value, and return the copy."""
    arr = _readonly(getattr(record, name), dtype)
    object.__setattr__(record, name, arr)
    return arr


@dataclass(frozen=True)
class RewardTable:
    """Reward table at one of three arities: r(s), r(s,a) or r(s,a,s')."""

    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in REWARD_KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}")
        arr = _freeze(self, "values")
        want = _ARITY[self.kind]
        if arr.ndim != want:
            raise ValueError(
                f"{self.kind} reward needs a {want}-d table, got {arr.ndim}-d"
            )

    @property
    def arity(self) -> int:
        return self.values.ndim

    def lookup(self, *index) -> float:
        """Reward at (s,), (s,a) or (s,a,s'); the index arity must match the kind."""
        if len(index) != self.arity:
            raise ValueError(
                f"{self.kind} reward expects {self.arity} indices, got {len(index)}"
            )
        return float(self.values[index])

    @property
    def cells(self) -> np.ndarray:
        """The values as a read-only (s, a, s') view: (S, 1, 1), (S, A, 1) or (S, A, S)."""
        return self.values.reshape(self.values.shape + (1,) * (3 - self.arity))


def expected_state_action(reward: RewardTable, transition: np.ndarray) -> np.ndarray:
    """Collapse a reward table to (s, a) arity.

    Transition-arity rewards are averaged over successors under the given
    dynamics; lower arities broadcast.  A (B, S, A, S) stack of dynamics gives
    a (B, S, A) stack, each row equal to its own call bit for bit.
    """
    v = reward.values
    if reward.kind == "transition":
        return np.einsum("...sap,sap->...sa", transition, v)
    if reward.kind == "state_only":
        v = v[:, None]
    return np.broadcast_to(v, transition.shape[:-1]).copy()


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with a ground-truth reward and an episode horizon.

    `transition[s, a, s']` is the probability of landing in s' after taking
    action a in state s.  The horizon bounds sampled episodes and
    finite-horizon return evaluation; the discount applies within it.
    """

    n_states: int
    n_actions: int
    transition: np.ndarray
    reward: RewardTable
    discount: float
    initial_dist: np.ndarray
    horizon: int = 20

    def __post_init__(self):
        if self.n_states < 1 or self.n_actions < 1:
            raise ValueError("n_states and n_actions must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        transition = _freeze(self, "transition")
        initial = _freeze(self, "initial_dist")
        shape = (self.n_states, self.n_actions, self.n_states)
        if transition.shape != shape:
            raise ValueError(f"transition tensor must have shape {shape}, got {transition.shape}")
        if initial.shape != (self.n_states,):
            raise ValueError("initial_dist must have one entry per state")
        want = {
            "state_only": (self.n_states,),
            "state_action": (self.n_states, self.n_actions),
            "transition": shape,
        }[self.reward.kind]
        if self.reward.values.shape != want:
            raise ValueError(
                f"{self.reward.kind} reward table must have shape {want}, "
                f"got {self.reward.values.shape}"
            )


def _transition_problems(transition: np.ndarray) -> list[str]:
    """One message per (s, a) row of a transition tensor that is not a distribution.

    A row whose sum is not finite or is off 1 by more than PROB_TOL is named
    with its sum; otherwise a row with a negative entry is named.
    """
    row_sums = transition.sum(axis=2)
    # written as `not x <= tol` so that a NaN or infinite sum counts as off
    off = ~(np.abs(row_sums - 1.0) <= PROB_TOL)
    negative = (transition < 0).any(axis=2)
    return [f"transition row (s={s}, a={a}) sums to {row_sums[s, a]!r}" if off[s, a]
            else f"transition row (s={s}, a={a}) has a negative entry"
            for s, a in zip(*np.nonzero(off | negative))]


def validate_mdp(mdp: TabularMdp) -> list[str]:
    """Return a list of violated invariants (empty iff the MDP is valid)."""
    problems = []
    if not (0.0 < mdp.discount < 1.0):
        problems.append(f"discount {mdp.discount!r} is not strictly inside (0, 1)")
    problems += _transition_problems(mdp.transition)
    if (mdp.initial_dist < 0).any():
        problems.append("initial_dist has a negative entry")
    total = mdp.initial_dist.sum()
    if not np.isfinite(total) or abs(total - 1.0) > PROB_TOL:
        problems.append(f"initial_dist sums to {total!r}")
    bad = np.argwhere(~np.isfinite(mdp.reward.values))
    for index in bad:
        problems.append(f"reward entry at index {tuple(int(i) for i in index)} is not finite")
    return problems


def random_mdp(
    n_states: int,
    n_actions: int,
    reward: RewardTable,
    seed: int,
    *,
    discount: float = 0.9,
    horizon: int = 20,
    initial_dist=None,
) -> TabularMdp:
    """Random MDP whose transition rows are Dirichlet(1) draws.

    The same seed always produces the same MDP.
    """
    if n_states < 2:
        raise ValueError("random_mdp needs at least 2 states")
    if n_actions < 1:
        raise ValueError("random_mdp needs at least 1 action")
    rng = np.random.default_rng(seed)
    transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    if initial_dist is None:
        initial_dist = np.full(n_states, 1.0 / n_states)
    return TabularMdp(n_states, n_actions, transition, reward, discount, initial_dist, horizon)


def random_deterministic_mdp(
    n_states: int,
    n_actions: int,
    reward: RewardTable,
    seed: int,
    *,
    discount: float = 0.9,
    horizon: int = 20,
    initial_dist=None,
) -> TabularMdp:
    """Deterministic dynamics: one uniformly drawn successor per (s, a), except
    that action 0 is a self loop at every state, which keeps the dynamics
    deterministic while making well-connected instances decomposable.

    The initial distribution defaults to uniform so every state stays visible
    to learners.
    """
    if n_states < 2:
        raise ValueError("random_deterministic_mdp needs at least 2 states")
    if n_actions < 1:
        raise ValueError("random_deterministic_mdp needs at least 1 action")
    rng = np.random.default_rng(seed)
    successors = rng.integers(0, n_states, size=(n_states, n_actions))
    successors[:, 0] = np.arange(n_states)
    transition = np.zeros((n_states, n_actions, n_states))
    s_idx = np.arange(n_states)[:, None]
    a_idx = np.arange(n_actions)[None, :]
    transition[s_idx, a_idx, successors] = 1.0
    if initial_dist is None:
        initial_dist = np.full(n_states, 1.0 / n_states)
    return TabularMdp(n_states, n_actions, transition, reward, discount, initial_dist, horizon)


def paper_tabular_mdp(seed: int, *, discount: float = 0.9, horizon: int = 20) -> TabularMdp:
    """The canned 16-state, 4-action benchmark family behind `--paper-tabular`.

    Random dense dynamics, reward 1.0 for acting from state 0, episodes always
    starting in state 1.
    """
    values = np.zeros(16)
    values[0] = 1.0
    reward = RewardTable("state_only", values)
    initial = np.zeros(16)
    initial[1] = 1.0
    return random_mdp(16, 4, reward, seed, discount=discount, horizon=horizon, initial_dist=initial)


def add_self_transitions(mdp: TabularMdp, weight: float) -> TabularMdp:
    """Blend the dynamics with a stay-put component: T' = (1-w) T + w I."""
    if not (0.0 < weight < 1.0):
        raise ValueError("self-transition weight must lie strictly inside (0, 1)")
    eye = np.eye(mdp.n_states)[:, None, :]
    return replace(mdp, transition=(1.0 - weight) * mdp.transition + weight * eye)


def one_step_reach(mdp: TabularMdp) -> np.ndarray:
    """Boolean (s, x) table: some action moves s to x with positive probability."""
    return (mdp.transition > LINK_EPS).any(axis=1)


@dataclass(frozen=True)
class DecompositionReport:
    """Partition of the states into linked classes.

    Two states are 1-step linked when some common state can reach both with
    positive probability; the classes are the transitive closure of that
    relation.  The dynamics are decomposable when a single class remains.
    """

    is_decomposable: bool
    linked_classes: tuple[tuple[int, ...], ...]


def decomposability_check(mdp: TabularMdp) -> DecompositionReport:
    """Partition states by the linked relation and report decomposability."""
    reach = one_step_reach(mdp).astype(float)
    # linked[x, y]: x is y, or some state reaches both x and y in one step
    linked = (reach.T @ reach > 0) | np.eye(mdp.n_states, dtype=bool)
    # a reflexive relation's square only grows; once it stops, it is transitive
    size = 0
    while linked.sum() > size:
        size = linked.sum()
        step = linked.astype(float)
        linked = step @ step > 0
    classes = tuple(sorted({tuple(np.flatnonzero(row).tolist()) for row in linked}))
    return DecompositionReport(is_decomposable=len(classes) == 1, linked_classes=classes)


def counterexample_mdp(
    variant: str = "original", discount: float = 0.9, horizon: int = 20
) -> TabularMdp:
    """Three-state MDP on which state-action rewards fail to transfer.

    States: 0 (hub), 1, 2.  From the hub, action 0 moves to state 1 and
    action 1 to state 2; both actions return to the hub from either leaf.
    The ground truth pays +1 for entering the hub from state 1 and -1 for
    entering it from state 2.  The `modified` variant swaps the two hub
    actions, so a reward tied to the hub's actions sends the agent the wrong
    way while the ground truth is unaffected.
    """
    if variant not in ("original", "modified"):
        raise ValueError(f"unknown counterexample variant {variant!r}")
    transition = np.zeros((3, 2, 3))
    if variant == "original":
        transition[0, 0, 1] = 1.0
        transition[0, 1, 2] = 1.0
    else:
        transition[0, 0, 2] = 1.0
        transition[0, 1, 1] = 1.0
    transition[1, :, 0] = 1.0
    transition[2, :, 0] = 1.0
    values = np.zeros((3, 2, 3))
    values[1, :, 0] = 1.0
    values[2, :, 0] = -1.0
    reward = RewardTable("transition", values)
    initial = np.array([1.0, 0.0, 0.0])
    return TabularMdp(3, 2, transition, reward, discount, initial, horizon)


def counterexample_shaped_reward() -> RewardTable:
    """State-action reward equivalent to the counterexample's ground truth.

    Equals r + potential difference on every realized transition of the
    original dynamics (with the potential below at discount 1), yet induces
    the opposite hub preference once the hub actions are swapped.
    """
    return RewardTable("state_action", np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]]))


def counterexample_potential() -> np.ndarray:
    """State potential linking the counterexample's two reward forms."""
    return np.array([0.0, 1.0, -1.0])


def reward_to_dict(reward: RewardTable) -> dict:
    return {"kind": reward.kind, "values": reward.values.tolist()}


# RewardTable checks the kind.
_REWARD_KEYS = {"kind": (str, REQUIRED), "values": (float_array, REQUIRED)}


def reward_from_dict(doc) -> RewardTable:
    return RewardTable(**read_document(doc, _REWARD_KEYS, "reward table"))


def mdp_to_dict(mdp: TabularMdp) -> dict:
    return {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "discount": mdp.discount,
        "horizon": mdp.horizon,
        "initial_dist": mdp.initial_dist.tolist(),
        "transition": mdp.transition.tolist(),
        "reward": reward_to_dict(mdp.reward),
    }


_MDP_KEYS = {
    "n_states": (strict_int, REQUIRED),
    "n_actions": (strict_int, REQUIRED),
    "discount": (strict_float, REQUIRED),
    "horizon": (strict_int, REQUIRED),
    "initial_dist": (float_array, REQUIRED),
    "transition": (float_array, REQUIRED),
    "reward": (reward_from_dict, REQUIRED),
}


def mdp_from_dict(doc) -> TabularMdp:
    return TabularMdp(**read_document(doc, _MDP_KEYS, "MDP document"))


def save_mdp(mdp: TabularMdp, path) -> None:
    atomic_write_text(Path(path), json_text(mdp_to_dict(mdp)))


def read_json(path, what: str):
    """The JSON document in file `path`; text that is not UTF-8 JSON, or nests too deep for
    the decoder, raises ValueError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{what} {str(path)!r} is not valid JSON: {exc}") from exc


def load_mdp(path) -> TabularMdp:
    return mdp_from_dict(read_json(path, "MDP file"))
