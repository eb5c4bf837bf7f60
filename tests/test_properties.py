"""Property tests over small MDPs built directly, one-state ones included."""

import numpy as np
from hypothesis import given, settings, strategies as st

from irl_lab.mdp import RewardTable, TabularMdp
from irl_lab.soft_rl import evaluate_return, occupancy

from oracles import enumerate_return, loop_occupancy, loop_return

# enumerate_return walks every (action, next state) branch of every step
MAX_ENUMERATED_PATHS = 5_000


def _distributions(rng, shape, zero_frac):
    """Rows of probabilities over the last axis, with some entries exactly 0."""
    probs = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    zeros = rng.random(shape) < zero_frac
    # keep each row's largest entry so no row is all zero
    zeros &= probs < probs.max(axis=-1, keepdims=True)
    probs[zeros] = 0.0
    return probs / probs.sum(axis=-1, keepdims=True)


@st.composite
def mdps_and_policies(draw):
    n_states = draw(st.integers(1, 6))
    n_actions = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 25))
    discount = draw(st.floats(0.0, 0.999))
    kind = draw(st.sampled_from(["state_only", "state_action", "transition"]))
    n_policies = draw(st.integers(1, 4))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_states, n_actions, n_states)
    values = rng.normal(size={"state_only": shape[:1], "state_action": shape[:2],
                              "transition": shape}[kind])
    mdp = TabularMdp(
        n_states,
        n_actions,
        _distributions(rng, shape, zero_frac),
        RewardTable(kind, values),
        discount,
        _distributions(rng, (n_states,), zero_frac),
        horizon,
    )
    policies = _distributions(rng, (n_policies, n_states, n_actions), zero_frac)
    # one deterministic policy: every 0 * log 0 entropy term at once
    policies[0] = np.eye(n_actions)[rng.integers(0, n_actions, size=n_states)]
    return mdp, policies


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=mdps_and_policies(), include_entropy=st.booleans(),
       entropy_weight=st.sampled_from([1.0, 0.3]))
def test_stacked_returns_match_the_loop_and_path_enumeration(
    case, include_entropy, entropy_weight
):
    mdp, policies = case
    stacked = evaluate_return(mdp, policies, include_entropy=include_entropy,
                              entropy_weight=entropy_weight)
    assert stacked.shape == (len(policies),)
    tractable = (mdp.n_states * mdp.n_actions) ** mdp.horizon <= MAX_ENUMERATED_PATHS
    for k, policy in enumerate(policies):
        single = evaluate_return(mdp, policy, include_entropy=include_entropy,
                                 entropy_weight=entropy_weight)
        assert type(single) is float
        assert stacked[k] == single
        assert single == loop_return(mdp, policy, include_entropy=include_entropy,
                                     entropy_weight=entropy_weight)
        if tractable:
            want = enumerate_return(mdp, policy, include_entropy=include_entropy,
                                    entropy_weight=entropy_weight)
            assert abs(single - want) <= 1e-10


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=mdps_and_policies())
def test_occupancy_is_a_distribution_matching_the_loop(case):
    mdp, policies = case
    for policy in policies:
        measure = occupancy(mdp, policy)
        rho = measure.rho
        assert rho.shape == (mdp.n_states, mdp.n_actions, mdp.n_states)
        assert np.all(rho >= 0)
        assert abs(rho.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(rho - loop_occupancy(mdp, policy))) <= 1e-12
        # the next state is drawn from the dynamics given (s, a)
        factored = measure.state_action_marginal()[:, :, None] * mdp.transition
        assert np.max(np.abs(rho - factored)) <= 1e-15
