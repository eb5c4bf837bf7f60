"""Property tests over small MDPs built directly, one-state ones included, and
over the JSON documents the command line reads."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import irl_lab.airl
from irl_lab._fmt import csv_text
from irl_lab.airl import (DiscriminatorParams, LearnerConfig, _airl_train_stack,
                          _softplus_pair, discriminator_grad, params_from_dict, params_to_dict)
from irl_lab.cli import InvalidMdpError, _build_mdp, load_experiment_config
from irl_lab.mdp import (
    RewardTable,
    TabularMdp,
    mdp_from_dict,
    mdp_to_dict,
    random_mdp,
    reward_from_dict,
    reward_to_dict,
    save_mdp,
)
from irl_lab.shaping import PotentialFn, centered_sup_distance, shape_reward
from irl_lab.soft_rl import (_occupancies, _soft_backup, _soft_policy, _state_visits,
                             evaluate_return, occupancy, sample_trajectories, soft_value_iteration)
from irl_lab.transfer import _sweep_policies

from conftest import assert_same_solution, at_temperature, solve_rows
from oracles import (backward_soft_recursion, enumerate_return, fd_gradient,
                     general_soft_backup, general_soft_policy, loop_occupancy, loop_return,
                     loop_sample_trajectories, loop_soft_value_iteration, loop_sweeps, chain_cell,
                     pair_centered_sup_distance, per_state_product,
                     state_layout_f, state_layout_fit, state_layout_half_logits,
                     theta_space_cell_fit)

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
       temperature=st.sampled_from([1.0, 0.3]))
def test_stacked_returns_match_the_loop_and_path_enumeration(
    case, include_entropy, temperature
):
    mdp, policies = case
    # temperature 0.3 weighs the reward against the entropy as the reward scaled by 1 / 0.3
    mdp = replace(mdp, reward=at_temperature(mdp.reward, temperature))
    stacked = evaluate_return(mdp, policies, include_entropy=include_entropy)
    assert stacked.shape == (len(policies),)
    tractable = (mdp.n_states * mdp.n_actions) ** mdp.horizon <= MAX_ENUMERATED_PATHS
    for k, policy in enumerate(policies):
        single = evaluate_return(mdp, policy, include_entropy=include_entropy)
        assert type(single) is float
        assert stacked[k] == single
        assert single == loop_return(mdp, policy, include_entropy=include_entropy)
        if tractable:
            want = enumerate_return(mdp, policy, include_entropy=include_entropy)
            assert abs(single - want) <= 1e-10


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=mdps_and_policies(), discount=st.floats(0.0, 0.9),
       temperature=st.floats(0.2, 5.0))
def test_a_temperature_is_a_reward_scale(case, discount, temperature):
    # The package solves at unit temperature.  Soft value iteration at
    # temperature w on reward r is w times the unit solve on r / w, with the
    # same policy; the oracles take any w, and 300 sweeps converge at
    # discount <= 0.9.  The solve runs to 1e-10, so its error is below 1e-8.
    mdp, policies = case
    mdp, w = replace(mdp, discount=discount), temperature
    scaled = replace(mdp, reward=at_temperature(mdp.reward, w))
    solution = soft_value_iteration(scaled, tolerance=1e-10)
    q, v, policy = backward_soft_recursion(mdp, entropy_weight=w)
    np.testing.assert_allclose(solution.q, q / w, rtol=0, atol=1e-8)
    np.testing.assert_allclose(solution.v, v / w, rtol=0, atol=1e-8)
    np.testing.assert_allclose(solution.policy, policy, rtol=0, atol=1e-8)
    np.testing.assert_allclose(w * _soft_backup(q / w), general_soft_backup(q, w),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(_soft_policy(q / w, v / w), general_soft_policy(q, v, w),
                               rtol=0, atol=1e-12)
    # the entropy bonus is earned at unit weight: w times the scaled return
    for pi in (*policies, solution.policy):
        for include_entropy in (False, True):
            got = w * evaluate_return(scaled, pi, include_entropy=include_entropy)
            want = loop_return(mdp, pi, include_entropy=include_entropy, entropy_weight=w)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=mdps_and_policies())
def test_occupancy_is_a_distribution_matching_the_loop(case):
    mdp, policies = case
    for policy in policies:
        rho = occupancy(mdp, policy)
        assert rho.shape == (mdp.n_states, mdp.n_actions, mdp.n_states)
        assert np.all(rho >= 0)
        assert abs(rho.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(rho - loop_occupancy(mdp, policy))) <= 1e-12
        # the next state is drawn from the dynamics given (s, a)
        factored = rho.sum(axis=2)[:, :, None] * mdp.transition
        assert np.max(np.abs(rho - factored)) <= 1e-15


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=mdps_and_policies(), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_sampled_episodes_match_the_per_step_loop(case, n, seed):
    mdp, policies = case
    # horizon 1 on every case, besides the drawn horizon
    for mdp in (mdp, replace(mdp, horizon=1)):
        for policy in policies:
            got = sample_trajectories(mdp, policy, n, seed)
            want_states, want_actions = loop_sample_trajectories(mdp, policy, n, seed)
            assert got.actions.shape == (n, mdp.horizon)
            assert np.array_equal(got.states, want_states)
            assert np.array_equal(got.actions, want_actions)
            # zero-probability starts, actions and successors are never drawn
            assert np.all(mdp.initial_dist[got.states[:, 0]] > 0)
            assert np.all(policy[got.states[:, :-1], got.actions] > 0)
            assert np.all(mdp.transition[got.states[:, :-1], got.actions, got.states[:, 1:]] > 0)


@st.composite
def solve_stacks(draw):
    """One to five MDPs of one shape and discount, each with its own reward
    arity, some transition entries exactly 0, and warm starts or none."""
    n_states = draw(st.integers(1, 6))
    n_actions = draw(st.integers(1, 4))
    discount = draw(st.floats(0.0, 0.999))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_states, n_actions, n_states)
    mdps = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["state_only", "state_action", "transition"]))
        values = 3 * rng.normal(size={"state_only": shape[:1], "state_action": shape[:2],
                                      "transition": shape}[kind])
        mdps.append(TabularMdp(n_states, n_actions, _distributions(rng, shape, zero_frac),
                               RewardTable(kind, values), discount,
                               np.full(n_states, 1.0 / n_states), 5))
    v_init = rng.normal(size=(len(mdps), n_states)) if draw(st.booleans()) else None
    return mdps, v_init


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=solve_stacks(), max_iters=st.sampled_from([1, 2, 3, 10_000]),
       temperature=st.sampled_from([1.0, 0.3]))
def test_stacked_solves_equal_single_calls(case, max_iters, temperature):
    mdps, v_init = case
    # temperature 0.3 is each reward scaled by 1 / 0.3: sharper policies
    mdps = [replace(mdp, reward=at_temperature(mdp.reward, temperature)) for mdp in mdps]
    stack = solve_rows(mdps, [None] * len(mdps), max_iters=max_iters, v_init=v_init)
    for i, mdp in enumerate(mdps):
        kwargs = {"max_iters": max_iters, "v_init": None if v_init is None else v_init[i]}
        alone = soft_value_iteration(mdp, **kwargs)
        assert_same_solution(stack.row(i), alone)
        assert_same_solution(alone, loop_soft_value_iteration(mdp, **kwargs))


# The largest distance, in units of the spacing of the table's largest entry, between
# a flat-product output and its per-state oracle on shapes where the two differ:
# measured up to 5,876 for the curve's returns at discount 0.99 (CHANGES.md).
PER_STATE_SPACINGS = 8192


def spacings_apart(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| in units of the spacing of the largest entry of `want`."""
    return float(np.max(np.abs(got - want)) / np.spacing(np.max(np.abs(want))))


@st.composite
def sweep_stacks(draw):
    """One to three rewards of any arity on an MDP of 2-17 states and 1-5 actions,
    16 x 4 drawn as often as the rest together, at discount 0, 0.5 or 0.99."""
    n_states, n_actions = draw(st.one_of(st.just((16, 4)),
                                         st.tuples(st.integers(2, 17), st.integers(1, 5))))
    discount = draw(st.sampled_from([0.0, 0.5, 0.99]))
    zero_frac = draw(st.sampled_from([0.0, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_states, n_actions, n_states)
    rewards = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["state_only", "state_action", "transition"]))
        rewards.append(RewardTable(kind, rng.normal(size={"state_only": shape[:1],
                                                          "state_action": shape[:2],
                                                          "transition": shape}[kind])))
    mdp = TabularMdp(n_states, n_actions, _distributions(rng, shape, zero_frac), rewards[0],
                     discount, _distributions(rng, (n_states,), zero_frac),
                     draw(st.integers(1, 25)))
    return mdp, rewards


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=sweep_stacks(), include_entropy=st.booleans())
def test_each_row_keeps_its_bits_under_flat_products(case, include_entropy):
    mdp, rewards = case
    sweeps = _sweep_policies(mdp, rewards, name_rows=True)
    solves = solve_rows([mdp] * len(rewards), rewards)
    for i, reward in enumerate(rewards):
        (alone,) = _sweep_policies(mdp, [reward], name_rows=False)
        assert sweeps[i].tobytes() == alone.tobytes() and sweeps[i].shape == alone.shape
        assert_same_solution(solves.row(i), soft_value_iteration(mdp, reward))
        # the parent's per-state products: the same bits at 16 x 4, near them elsewhere
        per_state_sweeps = np.array(loop_sweeps(mdp, reward, product=per_state_product))
        per_state_solve = loop_soft_value_iteration(mdp, reward, product=per_state_product)
        if (mdp.n_states, mdp.n_actions) == (16, 4):
            assert per_state_sweeps.tobytes() == alone.tobytes()
            assert_same_solution(solves.row(i), per_state_solve)
        else:
            assert per_state_sweeps.shape == alone.shape
            assert spacings_apart(alone, per_state_sweeps) <= PER_STATE_SPACINGS
            for name in ("q", "v", "policy"):
                assert spacings_apart(getattr(solves, name)[i], getattr(per_state_solve, name)
                                      ) <= PER_STATE_SPACINGS
    # every sweep's policy scored in one call, each row checked against its own call
    policies = np.concatenate(sweeps)
    stacked = evaluate_return(mdp, policies, include_entropy=include_entropy)
    for k in np.unique(np.linspace(0, len(policies) - 1, 48).astype(int)):
        assert stacked[k] == evaluate_return(mdp, policies[k], include_entropy=include_entropy)


@st.composite
def occupancy_stacks(draw):
    """One to five MDPs of one shape, discount and horizon, each with its own
    start distribution and a policy, both with some entries exactly 0."""
    n_states = draw(st.integers(1, 6))
    n_actions = draw(st.integers(1, 4))
    discount = draw(st.floats(0.0, 0.999))
    horizon = draw(st.integers(1, 25))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_states, n_actions, n_states)
    mdps, policies = [], []
    for _ in range(draw(st.integers(1, 5))):
        mdps.append(TabularMdp(n_states, n_actions, _distributions(rng, shape, zero_frac),
                               RewardTable("state_only", np.zeros(n_states)), discount,
                               _distributions(rng, (n_states,), zero_frac), horizon))
        policies.append(_distributions(rng, (n_states, n_actions), zero_frac))
    return mdps, np.array(policies)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=occupancy_stacks())
def test_stacked_occupancies_equal_single_calls(case):
    mdps, policies = case
    transition = np.stack([mdp.transition for mdp in mdps])
    visits = _state_visits(transition, np.stack([mdp.initial_dist for mdp in mdps]),
                           mdps[0].discount, mdps[0].horizon, policies)
    rho = _occupancies(visits, policies, transition)
    assert rho.shape == (len(mdps),) + mdps[0].transition.shape
    for mdp, policy, row in zip(mdps, policies, rho):
        assert row.tobytes() == occupancy(mdp, policy).tobytes()


def _through_json(doc):
    return json.loads(json.dumps(doc))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=mdps_and_policies(), h_seed=st.integers(0, 2**32 - 1))
def test_documents_round_trip(case, h_seed):
    mdp, _ = case
    doc = _through_json(mdp_to_dict(mdp))
    back = mdp_from_dict(doc)
    assert mdp_to_dict(back) == doc
    assert np.array_equal(back.transition, mdp.transition)
    assert np.array_equal(back.initial_dist, mdp.initial_dist)
    assert (back.discount, back.horizon) == (mdp.discount, mdp.horizon)

    reward = reward_from_dict(_through_json(reward_to_dict(mdp.reward)))
    assert reward.kind == mdp.reward.kind
    assert np.array_equal(reward.values, mdp.reward.values)

    # g is never a transition table; take the state-action expectation instead
    g = mdp.reward if mdp.reward.kind != "transition" else RewardTable(
        "state_action", mdp.reward.values.mean(axis=2))
    h = np.random.default_rng(h_seed).normal(size=mdp.n_states)
    params = DiscriminatorParams(g, h, mdp.discount)
    back = params_from_dict(_through_json(params_to_dict(params)))
    assert back.g.kind == g.kind and np.array_equal(back.g.values, g.values)
    assert np.array_equal(back.h, h) and back.discount == mdp.discount


@st.composite
def discriminator_cases(draw):
    """Parameters of either g kind on 1-6 states and 1-4 actions, a strictly positive
    policy, and expert and negative (s, a, s') weights with some entries exactly 0."""
    n_states = draw(st.integers(1, 6))
    n_actions = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["state_only", "state_action"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(n_states,) if kind == "state_only" else (n_states, n_actions))
    params = DiscriminatorParams(RewardTable(kind, g), rng.normal(size=n_states),
                                 draw(st.floats(0.0, 0.999)))
    policy = 0.5 * _distributions(rng, (n_states, n_actions), 0.5) + 0.5 / n_actions
    cells = n_states * n_actions * n_states
    expert, negatives = (_distributions(rng, (cells,), draw(st.sampled_from([0.0, 0.3, 0.7])))
                         .reshape(n_states, n_actions, n_states) for _ in range(2))
    return params, policy, expert, negatives


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=discriminator_cases())
def test_discriminator_grad_matches_finite_differences(case):
    params, policy, expert, negatives = case
    grad = discriminator_grad(params, policy, expert, negatives)
    fd_g, fd_h = fd_gradient(params, policy, expert, negatives)
    assert grad.g.shape == fd_g.shape and grad.h.shape == fd_h.shape
    assert np.max(np.abs(grad.g - fd_g)) <= 1e-7
    assert np.max(np.abs(grad.h - fd_h)) <= 1e-7


_SIGNED_MAGNITUDES = st.builds(lambda m, negative: -m if negative else m,
                               st.floats(1e-300, 1e300), st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
                                 _SIGNED_MAGNITUDES, st.floats(allow_nan=False)),
                       min_size=1, max_size=64))
def test_one_pass_softplus_pair_is_two_logaddexp_calls(values):
    # the discriminator loss takes both log(1 + exp(-x)) and log(1 + exp(x))
    # from one softplus pass; each must keep the bits of its own logaddexp
    x = np.array(values)
    pos, neg = _softplus_pair(x)
    assert pos.view(np.int64).tolist() == np.logaddexp(0.0, -x).view(np.int64).tolist()
    assert neg.view(np.int64).tolist() == np.logaddexp(0.0, x).view(np.int64).tolist()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_b=st.integers(1, 3), n_k=st.integers(0, 4),
       n_s=st.integers(1, 5), n_a=st.integers(1, 4))
def test_stacked_centered_distances_equal_each_slice_call(seed, n_b, n_k, n_s, n_a):
    # every (S, A) slice is plain, near the float limit (its plain formula
    # overflows, so it is rescaled) or holds a NaN or an infinity; the truth
    # broadcasts as (B, 1, S, A), as the training histories' does
    rng = np.random.default_rng(seed)

    def mixed_slices(shape):
        x = rng.normal(size=shape + (n_s * n_a,))
        kind = rng.integers(0, 3, size=shape)
        x[kind == 1] = np.copysign(rng.uniform(1.5e308, 1.79e308, x[kind == 1].shape),
                                   x[kind == 1])
        bad = x[kind == 2]
        bad[np.arange(len(bad)), rng.integers(n_s * n_a, size=len(bad))] = rng.choice(
            [np.nan, np.inf, -np.inf], size=len(bad))
        x[kind == 2] = bad
        return x.reshape(shape + (n_s, n_a))

    a, b = mixed_slices((n_b, n_k)), mixed_slices((n_b, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = centered_sup_distance(a, b, axis=(-2, -1))
        for oracle in (centered_sup_distance, pair_centered_sup_distance):
            singles = [[oracle(a[i, k], b[i, 0]) for k in range(n_k)] for i in range(n_b)]
            want = np.array(singles, dtype=float).reshape(n_b, n_k)
            assert stacked.tobytes() == want.tobytes(), oracle


@st.composite
def training_stacks(draw):
    """One to three MDPs of one shape, discount and horizon on 1-6 states and
    1-4 actions, with expert (s, a, s') weights; transitions, starts and
    weights have some entries exactly 0."""
    n_states = draw(st.integers(1, 6))
    n_actions = draw(st.integers(1, 4))
    discount = draw(st.floats(0.0, 0.999))
    horizon = draw(st.integers(1, 25))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_states, n_actions, n_states)
    mdps, demos = [], []
    for _ in range(draw(st.integers(1, 3))):
        mdps.append(TabularMdp(n_states, n_actions, _distributions(rng, shape, zero_frac),
                               RewardTable("state_only", rng.normal(size=n_states)), discount,
                               _distributions(rng, (n_states,), zero_frac), horizon))
        demos.append(_distributions(rng, (np.prod(shape),), zero_frac).reshape(shape))
    return mdps, demos, draw(st.sampled_from([0.1, 1.0, 5.0]))


def _record_rounds(monkeypatch, run):
    """Each round's (`_cell_problem` arguments, problem, theta before and after
    the fit, policy-step reward) of `run()`, with its result."""
    cells, fits, rewards = [], [], []
    cell_problem, fit, solve = (irl_lab.airl._cell_problem, irl_lab.airl._Problem.fit,
                                irl_lab.airl._solve_stack)

    def recording_fit(problem, theta, *args):
        fits.append((problem, theta, fit(problem, theta, *args)))
        return fits[-1][-1]

    monkeypatch.setattr(irl_lab.airl, "_cell_problem",
                        lambda *args: cells.append(args) or cell_problem(*args))
    monkeypatch.setattr(irl_lab.airl._Problem, "fit", recording_fit)
    monkeypatch.setattr(irl_lab.airl, "_solve_stack", lambda transition, r_sa, *args, **kwargs:
                        rewards.append(r_sa) or solve(transition, r_sa, *args, **kwargs))
    result = run()
    monkeypatch.undo()
    return [(args, *fit_, reward) for args, fit_, reward in zip(cells, fits, rewards)], result


# the largest gap between a training fit's tied rows and `state_layout_fit`,
# relative to max(1, |g|, |h|), over `training_stacks`: 7.3e-16 measured
TIED_FIT_RTOL = 2e-15


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=training_stacks())
def test_tied_state_only_rows_equal_the_state_layout(case):
    # a state-only row, alone or in a mixed stack, holds g(s) tied across
    # actions in an (S, A) table; its logits and its policy-step reward (the
    # collapse of a materialized f rather than of one broadcast over actions)
    # keep the bits of g held as an (S,) table, its fit stays exactly tied and
    # within rounding of the (S,) layout's, and each row keeps the bits of
    # its one-variant run
    mdps, demos, step_size = case
    n = len(mdps)
    transition = np.stack([mdp.transition for mdp in mdps])
    config = LearnerConfig(iterations=3, disc_steps_per_iter=2, disc_step_size=step_size)
    with pytest.MonkeyPatch.context() as monkeypatch:
        mixed_rounds, (mixed, _) = _record_rounds(monkeypatch, lambda: _airl_train_stack(
            mdps, demos, ("airl_state_only", "airl_state_action"), config))
        alone_rounds, (alone,) = _record_rounds(monkeypatch, lambda: _airl_train_stack(
            mdps, demos, ("airl_state_only",), config))
    assert len(mixed_rounds) == len(alone_rounds) == 3
    for rounds, width in ((mixed_rounds, 2 * n), (alone_rounds, n)):
        for (tied, discount, *cells), problem, theta, (g, h), reward in rounds:
            assert tied == n and theta[0].shape == (width, *transition.shape[1:3])
            g_s, h_s = theta[0][:n, :, 0], theta[1][:n]
            log_pi, w_e, w_n = (a[:n] for a in cells)
            want_x = 2.0 * state_layout_half_logits(g_s, h_s, discount, log_pi)
            # a cell problem holds its cells as (B, A, S, S')
            assert problem.logits(theta)[:n].swapaxes(1, 2).tobytes() == want_x.tobytes()
            want_g, want_h = state_layout_fit(g_s, h_s, discount, log_pi, w_e, w_n,
                                              config.disc_steps_per_iter, step_size)
            assert np.array_equal(g[:n], np.broadcast_to(g[:n, :, :1], g[:n].shape))
            tol = TIED_FIT_RTOL * max(1.0, np.abs(want_g).max(), np.abs(want_h).max())
            np.testing.assert_allclose(g[:n, :, 0], want_g, rtol=0, atol=tol)
            np.testing.assert_allclose(h[:n], want_h, rtol=0, atol=tol)
            f = np.broadcast_to(state_layout_f(g[:n, :, 0], h[:n], discount), transition.shape)
            want_reward = np.einsum("bsap,bsap->bsa", transition, f)
            assert reward[:n].tobytes() == want_reward.tobytes()
    for row, want in zip(mixed, alone):
        assert row.params.g.values.tobytes() == want.params.g.values.tobytes()
        assert row.policy.tobytes() == want.policy.tobytes()


def _cell_case(rng, width, n_states, n_actions, tied):
    """A stack's log pi, with pi(0|0) = 0 in every row when there are two or more
    actions, expert and negative weights (no negative mass where pi = 0) and
    theta, the first `tied` rows' g tied across actions."""
    policy = rng.dirichlet(np.ones(n_actions), size=(width, n_states))
    if n_actions > 1:
        policy[:, 0, 0] = 0.0
        policy[:, 0] /= policy[:, 0].sum(axis=-1, keepdims=True)
    shape = (width, n_states, n_actions, n_states)
    w_e = _distributions(rng, (width, np.prod(shape[1:])), 0.3).reshape(shape)
    w_n = _distributions(rng, (width, np.prod(shape[1:])), 0.3).reshape(shape)
    if n_actions > 1:
        w_n[:, 0, 0] = 0.0
        w_n[:, 0, 1, 0] += 1.0
        w_n /= w_n.sum(axis=(1, 2, 3), keepdims=True)
    g = rng.normal(size=(width, n_states, n_actions))
    g[:tied] = g[:tied, :, :1]
    with np.errstate(divide="ignore"):
        return np.log(policy), w_e, w_n, (g, rng.normal(size=(width, n_states)))


class _TanhRecorder:
    """numpy, except that `tanh` keeps a copy of each input."""

    def __init__(self):
        self.inputs = []

    def __getattr__(self, name):
        return getattr(np, name)

    def tanh(self, x, *args, **kwargs):
        self.inputs.append(x.copy())
        return np.tanh(x, *args, **kwargs)


# the largest gap between `_Problem.fit` on AIRL cells and `theta_space_cell_fit`,
# relative to max(1, |g|, |h|), over the cases below: 1.5e-15 measured
CELL_FIT_RTOL = 8e-15


@pytest.mark.parametrize("discount", [0.0, 0.99])
@pytest.mark.parametrize("n_states, n_actions", [(1, 3), (4, 1), (5, 3)])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(width=st.sampled_from([1, 2, 60]), layout=st.sampled_from(["state_only", "state_action",
                                                                  "mixed"]),
       steps=st.sampled_from([1, 5, 20]), step_size=st.sampled_from([0.1, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_the_fit_on_the_logit_tables_follows_the_fit_on_theta(
        discount, n_states, n_actions, width, layout, steps, step_size, seed):
    # every step's x / 2 = a + c is exact: the first equals the problem's half
    # logits bit for bit, a zero-probability action's stays +inf and every
    # other stays finite; theta ends within rounding of the fit on theta,
    # its tied rows exactly tied
    tied = {"state_only": width, "state_action": 0, "mixed": (width + 1) // 2}[layout]
    log_pi, w_e, w_n, theta = _cell_case(np.random.default_rng(seed), width, n_states,
                                         n_actions, tied)
    problem = irl_lab.airl._cell_problem(tied, discount, log_pi, w_e, w_n)
    recorder = _TanhRecorder()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(irl_lab.airl, "np", recorder)
        g, h = problem.fit(theta, steps, step_size)
    assert len(recorder.inputs) == steps
    assert recorder.inputs[0].tobytes() == problem.half_logits(theta).tobytes()
    # the problem holds its cells as (B, A, S, S')
    impossible = np.broadcast_to(np.isneginf(log_pi).swapaxes(1, 2)[..., None], problem.w_e.shape)
    assert impossible.any() == (n_actions > 1)
    for half_x in recorder.inputs:
        half_x = half_x.reshape(impossible.shape)
        assert np.all(half_x[impossible] == np.inf) and np.isfinite(half_x[~impossible]).all()
    assert np.array_equal(g[:tied], np.broadcast_to(g[:tied, :, :1], g[:tied].shape))
    want_g, want_h = theta_space_cell_fit(tied, discount, log_pi, w_e, w_n, theta, steps,
                                          step_size)
    tol = CELL_FIT_RTOL * max(1.0, np.abs(want_g).max(), np.abs(want_h).max())
    np.testing.assert_allclose(g, want_g, rtol=0, atol=tol)
    np.testing.assert_allclose(h, want_h, rtol=0, atol=tol)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_states=st.integers(1, 4), n_actions=st.integers(1, 3), discount=st.floats(0.0, 0.999),
       seed=st.integers(0, 2**32 - 1))
def test_each_row_of_a_mixed_stack_gets_its_finite_difference_gradient(n_states, n_actions,
                                                                       discount, seed):
    # a state-only row and a state-action row chained as one stack each get
    # the finite differences of the row's own loss
    log_pi, w_e, w_n, (g, h) = _cell_case(np.random.default_rng(seed), 2, n_states, n_actions, 1)
    log_pi = np.log(0.5 * np.exp(log_pi) + 0.5 / n_actions)
    grad_g, grad_h = irl_lab.airl._cell_problem(1, discount, log_pi, w_e, w_n).grad((g, h))
    for row, kind in enumerate(["state_only", "state_action"]):
        table = g[row, :, 0] if kind == "state_only" else g[row]
        params = DiscriminatorParams(RewardTable(kind, table), h[row], discount)
        fd_g, fd_h = fd_gradient(params, np.exp(log_pi[row]), w_e[row], w_n[row])
        want_g = fd_g[:, None] if kind == "state_only" else fd_g
        assert np.max(np.abs(grad_g[row] - want_g)) <= 1e-7
        assert np.max(np.abs(grad_h[row] - fd_h)) <= 1e-7


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=mdps_and_policies(), phi_seed=st.integers(0, 2**32 - 1))
def test_shaping_leaves_the_soft_optimal_policy_unchanged(case, phi_seed):
    # r + discount * phi(s') - phi(s) shifts soft q and v by -phi(s), not the policy
    mdp, _ = case
    phi = PotentialFn(np.random.default_rng(phi_seed).normal(size=mdp.n_states))
    shaped = shape_reward(mdp.reward, phi, mdp.discount, n_actions=mdp.n_actions)
    policy = soft_value_iteration(mdp).policy
    # each solve stops within its 1e-8 tolerance; a shaping error moves the policy far more
    assert np.max(np.abs(soft_value_iteration(mdp, shaped).policy - policy)) <= 1e-6


# Any JSON value: what a hand-edited config might hold in place of the right one.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
STRAY_KEYS = ["seed", "states", "variant", "path", "kind", "test_seeds", "surprise"]


@st.composite
def _configs(draw, mdp_path: str):
    """A valid config put through 0-3 edits: a value swapped for junk, a key dropped
    or a stray key added, at the top level or inside a block."""
    doc = {
        "mdp": dict(draw(st.sampled_from([
            {"source": "generate", "kind": "paper_tabular", "seed": 0, "discount": 0.9,
             "horizon": 20},
            {"source": "generate", "kind": "counterexample", "variant": "modified"},
            {"source": "generate", "kind": "random", "states": 4, "actions": 2, "seed": 3,
             "reward_state": 1},
            {"source": "file", "path": mdp_path},
        ]))),
        "learner": {
            "variant": "airl_state_action", "mode": "sampled", "iterations": 3,
            "disc_steps_per_iter": 2, "disc_step_size": 0.1, "replay_window": 2,
            "n_policy_trajectories": 4, "seed": 1,
        },
        "transfer": dict(draw(st.sampled_from([
            {"test_seeds": [1, 2], "n_dynamics": 2},
            {"test_mdp_paths": [mdp_path]},
        ]))),
        "output_dir": "out",
        "formats": draw(st.sampled_from(["csv", "both", ["json", "csv"]])),
    }
    for _ in range(draw(st.integers(0, 3))):
        block = draw(st.sampled_from([doc.get(k) for k in ("mdp", "learner", "transfer")]
                                     + [doc]))
        if not isinstance(block, dict):
            continue  # an earlier edit dropped or replaced this block
        key = draw(st.sampled_from(sorted(block) + STRAY_KEYS))
        if draw(st.booleans()):
            block[key] = draw(JUNK)
        else:
            block.pop(key, None)
    return doc


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    """A directory holding a valid MDP file for configs to name."""
    root = tmp_path_factory.mktemp("configs")
    save_mdp(random_mdp(4, 2, RewardTable("state_only", np.eye(4)[0]), seed=5),
             root / "mdp.json")
    return root


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_configs_raise_only_value_errors(config_dir, data):
    # a bad config must surface as ValueError (exit 2) or InvalidMdpError
    # (exit 4), never as an exception the command line does not map
    doc = data.draw(_configs(str(config_dir / "mdp.json")))
    path = config_dir / "config.json"
    path.write_text(json.dumps(doc))
    try:
        _build_mdp(load_experiment_config(path)["mdp"])
    except (ValueError, InvalidMdpError):
        pass


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
CSV_CELLS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                     np.float64(-0.0), np.float64(5e-324), np.float32(-0.0), np.float16(1.5)]),
    st.integers(-2**70, 2**70),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(CSV_CELLS, max_size=6), max_size=5),
       st.one_of(st.none(), st.text(max_size=8)))
def test_csv_cells_keep_the_checked_format(rows, comment):
    # each cell by a lookup on its exact type gives the text of the isinstance chain
    lines = ["# " + comment] if comment else []
    lines.append("a,b")
    lines += [",".join(chain_cell(c) for c in row) for row in rows]
    assert csv_text(["a", "b"], rows, comment=comment) == "\n".join(lines) + "\n"
