"""Potential-based reward shaping and sum decompositions.

Shaped rewards r'(s,a,s') = r + discount*phi(s') - phi(s) leave soft-optimal
policies unchanged.  `_shaped` is that formula on (s, a, s') cells, so it
serves `shape_reward` and AIRL's f = g + discount*h(s') - h(s) alike;
`decompose_sum` inverts tables of the form f(s) + g(s') on a transition
support.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .mdp import RewardTable, _freeze, expected_state_action


@dataclass(frozen=True)
class PotentialFn:
    """State potential used to reshape rewards without changing the policy."""

    phi: np.ndarray

    def __post_init__(self):
        phi = _freeze(self, "phi")
        if phi.ndim != 1:
            raise ValueError("potential needs one value per state")
        if not np.all(np.isfinite(phi)):
            raise ValueError("potential entries must be finite")


def _shaped(r: np.ndarray, phi: np.ndarray, discount: float) -> np.ndarray:
    """r + discount * phi(s') - phi(s) on (..., s, a, s') cells, broadcast from r's
    cells, sized 1 on the axes it does not read, and an (..., S) potential."""
    return r + discount * phi[..., None, None, :] - phi[..., None, None]


def shape_reward(
    reward: RewardTable,
    phi: PotentialFn,
    discount: float,
    *,
    n_actions: int | None = None,
) -> RewardTable:
    """Return the transition-arity table r(s,a,s') + discount*phi(s') - phi(s).

    Lower-arity rewards broadcast; a state_only input needs `n_actions` to fix
    the output shape.
    """
    n_states = len(phi.phi)
    if reward.kind == "state_only":
        if n_actions is None:
            raise ValueError("shaping a state_only reward needs n_actions")
    else:
        n_actions = reward.values.shape[1]
    if reward.values.shape[0] != n_states:
        raise ValueError("reward table does not match n_states")
    shaped = _shaped(reward.cells, phi.phi, discount)
    return RewardTable("transition", np.broadcast_to(shaped, (n_states, n_actions, n_states)))


def advantage(solution) -> np.ndarray:
    """Soft advantage Q - V of a solved MDP; equals log policy."""
    return solution.q - solution.v[:, None]


def centered_sup_distance(a, b) -> float:
    """Sup-norm distance between two arrays after removing each one's mean.

    Finite arrays that overflow the plain formula are compared at the exact
    scale 2**-64 and the distance scaled back, so it is finite wherever it is
    representable; every other input keeps the plain formula's bits.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        distance = float(np.max(np.abs((a - a.mean()) - (b - b.mean()))))
    if np.isfinite(distance) or not (np.isfinite(a).all() and np.isfinite(b).all()):
        return distance
    return centered_sup_distance(a * 2.0**-64, b * 2.0**-64) * 2.0**64


def centered_reward_error(learned: RewardTable, truth: RewardTable, transition) -> float:
    """Mean-centered sup-norm gap between two reward tables.

    Both tables are collapsed/broadcast to (s, a) arity under the given
    dynamics before centering, so tables of different kinds compare on a
    common footing and constant offsets never count.
    """
    transition = np.asarray(transition, dtype=float)
    a = expected_state_action(learned, transition)
    b = expected_state_action(truth, transition)
    return centered_sup_distance(a, b)


@dataclass(frozen=True)
class SumDecomposition:
    """Result of splitting a table into f(s) + g(s') on a support."""

    feasible: bool
    f: np.ndarray | None
    g: np.ndarray | None
    reason: str = ""


def decompose_sum(h_sum, support, *, tol: float = 1e-8) -> SumDecomposition:
    """Split `h_sum[s, s']` into f(s) + g(s') over the supported pairs.

    The support must come from decomposable dynamics for the split to be
    unique up to a constant; the gauge is pinned by f[0] = 0.  Supports whose
    constraint graph is disconnected (non-decomposable dynamics) and tables
    that are inconsistent beyond `tol`, or not finite on the support, are
    reported infeasible.
    """
    table = np.asarray(h_sum, dtype=float)
    mask = np.asarray(support, dtype=bool)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError("decompose_sum needs a square (s, s') table")
    if mask.shape != table.shape:
        raise ValueError("support mask must match the table shape")
    n = table.shape[0]

    # split[0] is f over the rows and split[1] g over the columns, each entry set
    # once, from a set entry across a supported pair; known marks the set ones
    split, known = np.zeros((2, n)), np.zeros((2, n), dtype=bool)
    known[0, 0] = True
    sides = ((mask, table), (mask.T, table.T))
    queue = deque([(0, 0)])
    # a NaN or infinite entry spreads NaN silently and fails the residual test
    with np.errstate(invalid="ignore"):
        while queue:
            side, i = queue.popleft()
            (links, entries), other = sides[side], 1 - side
            for j in np.flatnonzero(links[i] & ~known[other]):
                known[other, j] = True
                split[other, j] = entries[i, j] - split[side, i]
                queue.append((other, j))
        f, g = split
        if not known.all():
            return SumDecomposition(False, None, None, "support constraint graph is "
                                    "disconnected; the split is not determined")
        residual = float(np.max(np.abs((f[:, None] + g[None, :] - table)[mask])))
    # written as `not x <= tol` so that a NaN residual counts as inconsistent
    if not residual <= tol:
        return SumDecomposition(False, None, None, "table is not a sum f(s) + g(s') on the "
                                f"support (residual {residual:.3g})")
    return SumDecomposition(feasible=True, f=f, g=g)
