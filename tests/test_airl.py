import gc
import json
import pickle
import warnings
import weakref

import irl_lab.airl

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

from irl_lab.airl import (
    DiscriminatorParams,
    DivergenceError,
    LearnerConfig,
    TrajectoryScorer,
    TransitionBatch,
    _as_weights,
    _cell_problem,
    _episode_counts,
    _episode_problem,
    _params_problem,
    _replay_weights,
    _rollout_counts,
    _airl_train_stack,
    _sigmoid,
    airl_train,
    discriminator_grad,
    discriminator_loss,
    discriminator_prob,
    extract_reward,
    f_table,
    f_value,
    gan_gcl_train,
    params_from_dict,
    params_to_dict,
    pool_batches,
)
from irl_lab.mdp import (
    RewardTable,
    TabularMdp,
    expected_state_action,
    paper_tabular_mdp,
    random_deterministic_mdp,
    random_mdp,
)
from irl_lab.shaping import PotentialFn, advantage, centered_reward_error, shape_reward
from irl_lab.soft_rl import (
    Rollouts,
    _rollouts,
    evaluate_return,
    occupancy,
    sample_trajectories,
    soft_value_iteration,
    uniform_policy,
)
from irl_lab.transfer import N_EXPERT_TRAJECTORIES, run_recovery

from conftest import record_calls
from oracles import (fd_gradient, state_layout_fit, theta_space_cell_fit, trajectory_probability,
                     two_pass_loss)

# the largest gap between `_Problem.fit` on AIRL cells and `theta_space_cell_fit`
# over `cell_stack`'s tables (|theta| <= 2) at 5 steps of 0.3; 4.4e-16 measured
CELL_FIT_ATOL = 2e-15


def batch_of(rollouts):
    """The rollouts' transitions as one `TransitionBatch`, episode by episode."""
    return TransitionBatch(rollouts.states[:, :-1].ravel(), rollouts.actions.ravel(),
                           rollouts.states[:, 1:].ravel())


def softmax_policy(seed, n_states, n_actions, scale=1.0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=scale, size=(n_states, n_actions))
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def random_params(seed, n_states, n_actions, kind="state_only", discount=0.9):
    rng = np.random.default_rng(seed)
    shape = (n_states,) if kind == "state_only" else (n_states, n_actions)
    return DiscriminatorParams(
        RewardTable(kind, rng.normal(scale=0.5, size=shape)),
        rng.normal(scale=0.5, size=n_states),
        discount,
    )


def matched_params(policy, discount=0.9):
    """Parameters whose f equals log pi everywhere, so D is 1/2 everywhere."""
    return DiscriminatorParams(
        RewardTable("state_action", np.log(policy)), np.zeros(len(policy)), discount
    )


class TestFValue:
    def test_zero_h_reduces_to_g(self):
        params = random_params(0, 3, 2)
        params = DiscriminatorParams(params.g, np.zeros(3), 0.9)
        for s in range(3):
            for a in range(2):
                for sp in range(3):
                    assert f_value(params, s, a, sp) == params.g.lookup(s)

    def test_constant_h_telescopes(self):
        g = RewardTable("state_only", np.array([1.0, -2.0, 0.5]))
        params = DiscriminatorParams(g, np.full(3, 4.0), 0.9)
        table = f_table(params, 3, 2)
        expected = np.broadcast_to((g.values + (0.9 - 1.0) * 4.0)[:, None, None],
                                   (3, 2, 3))
        npt.assert_allclose(table, expected, atol=1e-12)

    def test_truth_parameters_reproduce_the_soft_advantage(self):
        # with g set to the true reward and h to the soft value function,
        # f on every realized deterministic transition is exactly Q - V
        r = np.zeros(6)
        r[0] = 1.0
        mdp = random_deterministic_mdp(6, 3, RewardTable("state_only", r), seed=2)
        sol = soft_value_iteration(mdp)
        assert sol.converged
        params = DiscriminatorParams(mdp.reward, sol.v, mdp.discount)
        adv = advantage(sol)
        for s in range(6):
            for a in range(3):
                sp = int(mdp.transition[s, a].argmax())
                assert abs(f_value(params, s, a, sp) - adv[s, a]) <= 1e-8

    def test_f_table_matches_pointwise_values(self):
        for kind in ("state_only", "state_action"):
            params = random_params(5, 4, 3, kind)
            table = f_table(params, 4, 3)
            for s, a, sp in [(0, 0, 0), (1, 2, 3), (3, 1, 2)]:
                npt.assert_allclose(table[s, a, sp], f_value(params, s, a, sp),
                                    atol=1e-15)

    @pytest.mark.parametrize("kind", ["state_only", "state_action"])
    def test_f_table_is_g_shaped_by_h(self, kind):
        params = random_params(6, 5, 3, kind)
        shaped = shape_reward(params.g, PotentialFn(params.h), params.discount, n_actions=3)
        assert np.array_equal(f_table(params, 5, 3), shaped.values)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DiscriminatorParams(RewardTable("transition", np.zeros((2, 1, 2))),
                                np.zeros(2), 0.9)
        with pytest.raises(ValueError):
            DiscriminatorParams(RewardTable("state_only", np.zeros(3)),
                                np.zeros(2), 0.9)

    def test_serialization_round_trip(self):
        params = random_params(9, 4, 2, "state_action")
        doc = json.loads(json.dumps(params_to_dict(params)))
        back = params_from_dict(doc)
        assert np.array_equal(back.g.values, params.g.values)
        assert np.array_equal(back.h, params.h)
        assert back.discount == params.discount
        doc["oops"] = 1
        with pytest.raises(ValueError, match="'oops'"):
            params_from_dict(doc)
        del doc["oops"], doc["h"]
        with pytest.raises(ValueError, match="'h'"):
            params_from_dict(doc)
        for not_an_object in (None, 5, [], "params"):
            with pytest.raises(ValueError, match="JSON object"):
                params_from_dict(not_an_object)


class TestDiscriminatorProb:
    def test_matched_odds_give_one_half(self):
        policy = softmax_policy(1, 3, 2)
        params = matched_params(policy)
        for s in range(3):
            for a in range(2):
                npt.assert_allclose(discriminator_prob(params, policy, s, a, 0),
                                    0.5, atol=1e-12)

    def test_very_negative_f_drives_d_to_zero(self):
        params = DiscriminatorParams(
            RewardTable("state_only", np.full(2, -500.0)), np.zeros(2), 0.9
        )
        policy = uniform_policy(random_mdp(2, 2, RewardTable("state_only", np.zeros(2)), seed=0))
        d = discriminator_prob(params, policy, 0, 0, 1)
        assert 0.0 <= d < 1e-100

    def test_three_to_one_odds(self):
        policy = softmax_policy(2, 3, 2)
        params = DiscriminatorParams(
            RewardTable("state_action", np.log(policy) + np.log(3.0)),
            np.zeros(3), 0.9,
        )
        npt.assert_allclose(discriminator_prob(params, policy, 1, 1, 2), 0.75,
                            atol=1e-12)

    def test_extreme_values_stay_in_unit_interval(self):
        policy = softmax_policy(3, 2, 2)
        for scale in (300.0, -300.0):
            params = DiscriminatorParams(
                RewardTable("state_only", np.full(2, scale)), np.zeros(2), 0.9
            )
            d = discriminator_prob(params, policy, 0, 1, 1)
            assert 0.0 <= d <= 1.0 and np.isfinite(d)


class TestSigmoid:
    def test_matches_expit_including_extremes_without_warnings(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 160_001),
                            [np.inf, -np.inf, np.nan, -0.0, 745.2, -745.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(x)
            want = expit(x)
        npt.assert_array_equal(np.isnan(got), np.isnan(x))
        finite = ~np.isnan(x)
        assert np.max(np.abs(got[finite] - want[finite])) <= 1e-15
        assert _sigmoid(np.inf) == 1.0 and _sigmoid(-np.inf) == 0.0
        assert _sigmoid(0.0) == 0.5


class TestDiscriminatorLoss:
    def test_matched_odds_anchor(self, tiny_mdp):
        policy = softmax_policy(4, 3, 2)
        params = matched_params(policy)
        we = occupancy(tiny_mdp, softmax_policy(5, 3, 2))
        wn = occupancy(tiny_mdp, policy)
        npt.assert_allclose(discriminator_loss(params, policy, we, wn),
                            2.0 * np.log(2.0), atol=1e-12)

    def test_zero_init_single_action_anchor(self):
        # with one action the policy is the constant 1, so zero parameters
        # start the discriminator exactly at D = 1/2
        mdp = random_mdp(3, 1, RewardTable("state_only", np.zeros(3)), seed=0)
        params = DiscriminatorParams(RewardTable("state_only", np.zeros(3)),
                                     np.zeros(3), 0.9)
        policy = uniform_policy(mdp)
        rho = occupancy(mdp, policy)
        npt.assert_allclose(discriminator_loss(params, policy, rho, rho),
                            2.0 * np.log(2.0), atol=1e-12)

    def test_perfect_separation_drives_loss_to_zero(self):
        mdp = random_mdp(2, 1, RewardTable("state_only", np.zeros(2)), seed=1)
        policy = uniform_policy(mdp)
        params = DiscriminatorParams(
            RewardTable("state_only", np.array([60.0, -60.0])), np.zeros(2), 0.9
        )
        we = np.zeros((2, 1, 2))
        we[0, 0, :] = mdp.transition[0, 0] / 1.0
        wn = np.zeros((2, 1, 2))
        wn[1, 0, :] = mdp.transition[1, 0] / 1.0
        assert discriminator_loss(params, policy, we, wn) <= 1e-10

    def test_matches_exhaustive_sum(self, tiny_mdp):
        policy = soft_value_iteration(tiny_mdp).policy
        we = occupancy(tiny_mdp, policy)
        wn = occupancy(tiny_mdp, uniform_policy(tiny_mdp))
        params = random_params(6, 3, 2, "state_action")
        total = 0.0
        for s in range(3):
            for a in range(2):
                for sp in range(3):
                    d = discriminator_prob(params, policy, s, a, sp)
                    total -= we[s, a, sp] * np.log(d)
                    total -= wn[s, a, sp] * np.log1p(-d)
        npt.assert_allclose(discriminator_loss(params, policy, we, wn), total,
                            atol=1e-10)

    def test_zero_probability_action_adds_nothing(self):
        # pi(3|s) = 0 puts an infinite offset -log pi on those cells, where the
        # negative weight is 0; 0 * inf must count as 0, not NaN
        mdp = paper_tabular_mdp(0)
        expert = occupancy(mdp, soft_value_iteration(mdp).policy)
        policy = np.full((16, 4), 1.0 / 3.0)
        policy[:, 3] = 0.0
        negatives = occupancy(mdp, policy)
        assert not negatives[:, 3].any()
        params = random_params(8, 16, 4, "state_action")
        loss = discriminator_loss(params, policy, expert, negatives)
        grad = discriminator_grad(params, policy, expert, negatives)
        assert np.isfinite(loss)
        assert all(np.isfinite(g).all() for g in grad)
        # the loss over the other cells alone: the dropped expert cells have
        # D = 1 and so add 0 as well
        x = f_table(params, 16, 4)[:, :3] - np.log(policy[:, :3])[:, :, None]
        kept = ((expert[:, :3] * np.logaddexp(0.0, -x)).sum()
                + (negatives[:, :3] * np.logaddexp(0.0, x)).sum())
        npt.assert_allclose(loss, kept, rtol=1e-13)

    @pytest.mark.parametrize("kind", ["state_only", "state_action"])
    def test_public_functions_take_log_zero_silently(self, kind):
        # log pi(3|s) = -inf is an intended infinite offset, as in training:
        # each public function gives its value without a divide-by-zero warning
        mdp = paper_tabular_mdp(0)
        expert = occupancy(mdp, soft_value_iteration(mdp).policy)
        policy = np.full((16, 4), 1.0 / 3.0)
        policy[:, 3] = 0.0
        negatives = occupancy(mdp, policy)
        params = random_params(8, 16, 4, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = discriminator_loss(params, policy, expert, negatives)
            grad = discriminator_grad(params, policy, expert, negatives)
            reward = extract_reward(params, policy)
            prob = discriminator_prob(params, policy, 0, 3, 1)
        assert np.isfinite(loss) and all(np.isfinite(g).all() for g in grad)
        assert np.all(reward.values[:, 3] == np.inf)
        assert prob == 1.0

    def test_trajectory_scorer_takes_log_zero_silently(self):
        # an episode through an action of probability 0 has log pi(tau) = -inf
        policy = np.array([[0.5, 0.5], [1.0, 0.0]])
        rollouts = Rollouts(np.array([[0, 1], [1, 0]]), np.array([[1], [1]]))
        scorer = TrajectoryScorer(np.array([[0.0, 2.0], [1.0, -1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_pi = scorer.log_policy_prob(rollouts, policy)
            log_odds = scorer.log_odds(rollouts, policy)
            prob = scorer.prob(rollouts, policy)
        npt.assert_array_equal(log_pi, [np.log(0.5), -np.inf])
        npt.assert_array_equal(log_odds, [2.0 - np.log(0.5), np.inf])
        assert prob[1] == 1.0 and 0.0 < prob[0] < 1.0

    def test_rollouts_and_weight_tensors_agree(self, tiny_mdp):
        policy = soft_value_iteration(tiny_mdp).policy
        rollouts = sample_trajectories(tiny_mdp, policy, 16, seed=0)
        weights = batch_of(rollouts).to_weights(3, 2)
        params = random_params(7, 3, 2)
        negs = occupancy(tiny_mdp, policy)
        npt.assert_allclose(
            discriminator_loss(params, policy, rollouts, negs),
            discriminator_loss(params, policy, weights, negs),
            atol=1e-12,
        )


class TestDiscriminatorGrad:
    def test_matches_finite_differences_on_random_instances(self):
        # criterion: relative error at most 1e-4 on every coordinate across
        # ten random four-state instances, both parameter kinds
        for seed in range(10):
            n_actions = 2 + seed % 2
            mdp = random_mdp(4, n_actions,
                             RewardTable("state_only", np.zeros(4)), seed=seed)
            kind = "state_only" if seed % 2 == 0 else "state_action"
            params = random_params(100 + seed, 4, n_actions, kind)
            policy = softmax_policy(200 + seed, 4, n_actions)
            we = occupancy(mdp, softmax_policy(300 + seed, 4, n_actions))
            wn = occupancy(mdp, policy)
            grad = discriminator_grad(params, policy, we, wn)
            fd_g, fd_h = fd_gradient(params, policy, we, wn)
            rel_g = np.abs(grad.g - fd_g) / np.maximum(np.abs(fd_g), 1e-8)
            rel_h = np.abs(grad.h - fd_h) / np.maximum(np.abs(fd_h), 1e-8)
            assert rel_g.max() <= 1e-4
            assert rel_h.max() <= 1e-4

    def test_tanh_form_matches_the_sigmoid_form(self, bench_mdp):
        # the step forms D * (w_e + w_n) - w_e as half * tanh(x / 2) + (half - w_e),
        # with the chain of the constant half - w_e added to the tables' gradient
        expert = occupancy(bench_mdp, soft_value_iteration(bench_mdp).policy)
        policy = softmax_policy(3, 16, 4)
        negatives = occupancy(bench_mdp, policy)
        wants = {}
        for kind in ("state_only", "state_action"):
            params = random_params(8, 16, 4, kind, discount=bench_mdp.discount)
            x = f_table(params, 16, 4) - np.log(policy)[:, :, None]
            dl_df = expit(x) * (expert + negatives) - expert
            want_g = dl_df.sum(axis=(1, 2)) if kind == "state_only" else dl_df.sum(axis=2)
            want_h = bench_mdp.discount * dl_df.sum(axis=(0, 1)) - dl_df.sum(axis=(1, 2))
            grad = discriminator_grad(params, policy, expert, negatives)
            npt.assert_allclose(grad.g, want_g, rtol=0, atol=1e-15)
            npt.assert_allclose(grad.h, want_h, rtol=0, atol=1e-15)
            wants[kind] = params, want_g, want_h
        # a mixed stack: the state-only row holds g(s) tied across the actions
        (so, so_g, so_h), (sa, sa_g, sa_h) = wants.values()
        g = np.stack([np.broadcast_to(so.g.values[:, None], (16, 4)), sa.g.values])
        problem = _cell_problem(1, bench_mdp.discount, np.log(np.stack([policy] * 2)),
                                np.stack([expert] * 2), np.stack([negatives] * 2))
        grad_g, grad_h = problem.grad((g, np.stack([so.h, sa.h])))
        npt.assert_allclose(grad_g[0], np.broadcast_to(so_g[:, None], (16, 4)), rtol=0,
                            atol=1e-15)
        npt.assert_allclose(grad_g[1], sa_g, rtol=0, atol=1e-15)
        npt.assert_allclose(grad_h, np.stack([so_h, sa_h]), rtol=0, atol=1e-15)

    def test_only_a_gradient_forms_the_gradient_terms(self, bench_mdp):
        # a problem only a loss is taken from, as a history read rebuilds each
        # round's, forms no gradient terms; the first grad forms them once
        expert = occupancy(bench_mdp, soft_value_iteration(bench_mdp).policy)
        policy = softmax_policy(3, 16, 4)
        negatives = occupancy(bench_mdp, policy)
        params = random_params(8, 16, 4, "state_action", discount=bench_mdp.discount)
        problem, theta = _params_problem(params, policy, expert, negatives)

        def arrays():
            return {name for name, value in vars(problem).items()
                    if isinstance(value, np.ndarray)}

        problem.loss(theta)
        assert arrays() == {"w_e", "w_n"} and "_grad_terms" not in vars(problem)
        first = problem.grad(theta)
        terms = problem._grad_terms
        second = problem.grad(theta)
        assert problem._grad_terms is terms
        want = discriminator_grad(params, policy, expert, negatives)
        for got in (first, second):
            assert [t.tobytes() for t in got] == [want.g.tobytes(), want.h.tobytes()]

    def test_symmetric_optimum_has_zero_gradient(self, tiny_mdp):
        policy = soft_value_iteration(tiny_mdp).policy
        params = matched_params(policy)
        rho = occupancy(tiny_mdp, policy)
        grad = discriminator_grad(params, policy, rho, rho)
        assert np.max(np.abs(grad.g)) <= 1e-10
        assert np.max(np.abs(grad.h)) <= 1e-10

    def test_unvisited_state_gets_no_gradient(self):
        mdp = random_mdp(4, 2, RewardTable("state_only", np.zeros(4)), seed=4)
        policy = uniform_policy(mdp)
        expert = TransitionBatch([0, 1], [0, 1], [1, 2]).to_weights(4, 2)
        negatives = TransitionBatch([1, 2], [1, 0], [2, 0]).to_weights(4, 2)
        params = random_params(8, 4, 2)
        grad = discriminator_grad(params, policy, expert, negatives)
        assert grad.g[3] == 0.0
        assert grad.h[3] == 0.0

    def test_mixture_density_identity(self, tiny_mdp):
        # exact-mode gradient equals the mixture form: per (s, a, s') cell,
        # dL/df = -w_expert + mean_weight * p_hat / mixture_estimate with
        # p_hat = exp(f) * rho_pi(s) * T(s'|s,a) — checked through the chain
        # rule onto both tables
        policy = soft_value_iteration(tiny_mdp).policy
        we = occupancy(tiny_mdp, softmax_policy(11, 3, 2))
        wp = occupancy(tiny_mdp, policy)
        for kind in ("state_only", "state_action"):
            params = random_params(21, 3, 2, kind)
            f = f_table(params, 3, 2)
            rho_state = wp.sum(axis=(1, 2))
            p_hat = np.exp(f) * rho_state[:, None, None] * tiny_mdp.transition
            mu_bar = 0.5 * (we + wp)
            mu_hat = 0.5 * (p_hat + wp)
            per_cell = -we + mu_bar * p_hat / mu_hat
            expected_g = (per_cell.sum(axis=(1, 2)) if kind == "state_only"
                          else per_cell.sum(axis=2))
            expected_h = (params.discount * per_cell.sum(axis=(0, 1))
                          - per_cell.sum(axis=(1, 2)))
            grad = discriminator_grad(params, policy, we, wp)
            npt.assert_allclose(grad.g, expected_g, atol=1e-8)
            npt.assert_allclose(grad.h, expected_h, atol=1e-8)


def cell_stack(width, seed=0):
    """`width` random 16x4 problems: (log pi with a zero-probability action in each
    row, expert and negative weights with zeros, g as state tables, g as
    state-action tables, h)."""
    rng = np.random.default_rng(seed)
    policy = rng.dirichlet(np.ones(4), size=(width, 16))
    policy[:, 0] = [0.0, 0.4, 0.3, 0.3]
    weights = rng.dirichlet(np.ones(16 * 4 * 16), size=(2, width)).reshape(2, width, 16, 4, 16)
    weights[:, :, :, :, 5] = 0.0
    weights[1, :, 0, 0] = 0.0  # pi(0|0) = 0: no negative mass there
    with np.errstate(divide="ignore"):
        log_pi = np.log(policy)
    g_sa, h = rng.normal(scale=0.5, size=(width, 16, 4)), rng.normal(scale=0.5, size=(width, 16))
    return log_pi, weights[0], weights[1], g_sa[..., 0], g_sa, h


def tied_g(g_s, g_sa, tied):
    """A stack's (B, S, A) g: the first `tied` rows g_s tied across the actions, the rest g_sa."""
    return np.concatenate([np.repeat(g_s[:tied, :, None], g_sa.shape[-1], axis=-1),
                           g_sa[tied:]])


class TestCellFit:
    """`_cell_problem`'s gradient descent on state-only, state-action and mixed stacks."""

    @pytest.mark.parametrize("width", [1, 2, 5, 10, 60])
    @pytest.mark.parametrize("layout", ["state_only", "state_action", "mixed"])
    def test_every_row_equals_its_own_one_row_fit(self, width, layout):
        # the state-only rows come first, each holding g(s) tied across the
        # actions; every row keeps the bits of its own one-row fit, and the
        # fit on the logits' tables stays within rounding of the one on theta
        log_pi, w_e, w_n, g_s, g_sa, h = cell_stack(width)
        tied = {"state_only": width, "state_action": 0, "mixed": (width + 1) // 2}[layout]
        g = tied_g(g_s, g_sa, tied)
        fit_g, fit_h = _cell_problem(tied, 0.9, log_pi, w_e, w_n).fit((g, h), 5, 0.3)
        for i in range(width):
            row = slice(i, i + 1)
            alone_g, alone_h = _cell_problem(int(i < tied), 0.9, log_pi[row], w_e[row],
                                             w_n[row]).fit((g[row], h[row]), 5, 0.3)
            assert fit_g[row].tobytes() == alone_g.tobytes(), i
            assert fit_h[row].tobytes() == alone_h.tobytes(), i
        assert np.array_equal(fit_g[:tied], np.broadcast_to(fit_g[:tied, :, :1], g[:tied].shape))
        want_g, want_h = theta_space_cell_fit(tied, 0.9, log_pi, w_e, w_n, (g, h), 5, 0.3)
        npt.assert_allclose(fit_g, want_g, rtol=0, atol=CELL_FIT_ATOL)
        npt.assert_allclose(fit_h, want_h, rtol=0, atol=CELL_FIT_ATOL)
        if tied:
            # the oracle's tied rows keep the bits of g held as a state table
            state_g, state_h = state_layout_fit(g_s[:tied], h[:tied], 0.9, log_pi[:tied],
                                                w_e[:tied], w_n[:tied], 5, 0.3)
            assert want_g[:tied].tobytes() == np.repeat(state_g[..., None], 4, axis=-1).tobytes()
            assert want_h[:tied].tobytes() == state_h.tobytes()

    def test_fit_leaves_its_theta_alone(self):
        log_pi, w_e, w_n, g_s, g_sa, h = cell_stack(3)
        counts = np.random.default_rng(1).integers(0, 4, size=(9, 12)).astype(float)
        for problem, theta in [
            (_cell_problem(2, 0.9, log_pi, w_e, w_n), (tied_g(g_s, g_sa, 2), h)),
            (_episode_problem(counts, 4, np.log(softmax_policy(2, 4, 3))),
             (np.random.default_rng(2).normal(size=(4, 3)),)),
        ]:
            before = [t.copy() for t in theta]
            fitted = problem.fit(theta, 4, 0.3)
            assert not any(np.array_equal(t, f) for t, f in zip(theta, fitted))
            assert [t.tobytes() for t in theta] == [t.tobytes() for t in before]

    @pytest.mark.parametrize("mode", ["exact_occupancy", "sampled"])
    def test_no_round_problem_outlives_its_round(self, monkeypatch, mode):
        # with the cyclic collector off, every problem the training loop
        # builds, and every one a history read rebuilds, is freed once its
        # last reference goes: none holds itself through a cycle
        mdps, demos = stack_problems()
        if mode == "sampled":
            demos = [sample_trajectories(m, soft_value_iteration(m).policy, 16, seed=i)
                     for i, m in enumerate(mdps)]
        refs, cell_problem = [], irl_lab.airl._cell_problem

        def recording_cell_problem(*args):
            problem = cell_problem(*args)
            refs.append(weakref.ref(problem))
            return problem

        monkeypatch.setattr(irl_lab.airl, "_cell_problem", recording_cell_problem)
        config = LearnerConfig(mode=mode, iterations=4, n_policy_trajectories=8)
        enabled = gc.isenabled()
        gc.disable()
        try:
            (results, _) = _airl_train_stack(mdps[:2], demos[:2], BOTH_VARIANTS, config)
            assert len(refs) == 4 and not any(ref() for ref in refs)
            results[0].history.column("disc_loss")
            assert len(refs) == 8 and not any(ref() for ref in refs)
        finally:
            if enabled:
                gc.enable()


class TestExtractReward:
    def test_identity_f_minus_log_policy(self, tiny_mdp):
        policy = soft_value_iteration(tiny_mdp).policy
        for kind in ("state_only", "state_action"):
            params = random_params(31, 3, 2, kind)
            r_hat = extract_reward(params, policy)
            assert r_hat.kind == "transition"
            expected = f_table(params, 3, 2) - np.log(policy)[:, :, None]
            npt.assert_allclose(r_hat.values, expected, atol=1e-10)

    def test_matched_odds_give_zero_reward(self):
        policy = softmax_policy(41, 4, 3)
        r_hat = extract_reward(matched_params(policy), policy)
        npt.assert_allclose(r_hat.values, 0.0, atol=1e-12)

    def test_uniform_policy_adds_log_action_count(self, bench_mdp):
        params = random_params(51, 16, 4)
        policy = uniform_policy(bench_mdp)
        r_hat = extract_reward(params, policy)
        npt.assert_allclose(r_hat.values, f_table(params, 16, 4) + np.log(4.0),
                            atol=1e-12)

    def test_zero_probability_action_gives_plus_inf_for_every_next_state(self):
        policy = np.array([[1.0, 0.0], [0.25, 0.75], [0.5, 0.5]])
        values = extract_reward(random_params(61, 3, 2, "state_action"), policy).values
        infinite = np.zeros_like(values, dtype=bool)
        infinite[0, 1] = True
        assert np.all(values[infinite] == np.inf)
        assert np.all(np.isfinite(values[~infinite]))


class TestAirlTrain:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="variant"):
            LearnerConfig(variant="other")
        with pytest.raises(ValueError, match="mode"):
            LearnerConfig(mode="other")
        with pytest.raises(ValueError):
            LearnerConfig(iterations=-1)
        with pytest.raises(ValueError):
            LearnerConfig(disc_step_size=0.0)
        for bad in (float("nan"), float("inf"), True, "0.1", None):
            with pytest.raises(ValueError, match="disc_step_size"):
                LearnerConfig(disc_step_size=bad)
        with pytest.raises(TypeError, match="entropy_weight"):
            LearnerConfig(entropy_weight=1.0)

    def test_variant_routing(self, tiny_mdp):
        demos = occupancy(tiny_mdp, soft_value_iteration(tiny_mdp).policy)
        with pytest.raises(ValueError, match="airl"):
            airl_train(tiny_mdp, demos,
                       LearnerConfig(variant="gan_gcl_trajectory", mode="sampled"))

    def test_empty_demos_rejected(self, tiny_mdp):
        # no episodes is not a Rollouts, and an empty list is no demonstration type
        with pytest.raises(ValueError, match="n, H >= 1"):
            airl_train(tiny_mdp, Rollouts(np.zeros((0, 4)), np.zeros((0, 3))),
                       LearnerConfig(iterations=1))
        with pytest.raises(TypeError, match="weight tensor or Rollouts"):
            airl_train(tiny_mdp, [], LearnerConfig(iterations=1))
        with pytest.raises(ValueError, match="mass"):
            airl_train(tiny_mdp, np.zeros((3, 2, 3)), LearnerConfig(iterations=1))

    def test_zero_iterations_returns_the_anchor_point(self, tiny_mdp):
        demos = occupancy(tiny_mdp, soft_value_iteration(tiny_mdp).policy)
        result = airl_train(tiny_mdp, demos, LearnerConfig(iterations=0))
        assert len(result.history) == 0
        npt.assert_allclose(result.params.g.values, 0.0)
        npt.assert_allclose(result.params.h, 0.0)
        npt.assert_allclose(result.policy, 0.5)

    def test_exact_mode_is_deterministic(self, tiny_mdp):
        demos = occupancy(tiny_mdp, soft_value_iteration(tiny_mdp).policy)
        config = LearnerConfig(iterations=25)
        a = airl_train(tiny_mdp, demos, config)
        b = airl_train(tiny_mdp, demos, config)
        assert np.array_equal(a.params.g.values, b.params.g.values)
        assert np.array_equal(a.params.h, b.params.h)
        assert np.array_equal(a.policy, b.policy)
        assert a.history.to_csv_text() == b.history.to_csv_text()

    def test_sampled_mode_seed_controls_everything(self, tiny_mdp):
        expert = soft_value_iteration(tiny_mdp).policy
        demos = sample_trajectories(tiny_mdp, expert, 32, seed=9)
        base = dict(variant="airl_state_only", mode="sampled", iterations=8,
                    n_policy_trajectories=16)
        a = airl_train(tiny_mdp, demos, LearnerConfig(seed=5, **base))
        b = airl_train(tiny_mdp, demos, LearnerConfig(seed=5, **base))
        c = airl_train(tiny_mdp, demos, LearnerConfig(seed=6, **base))
        assert np.array_equal(a.params.g.values, b.params.g.values)
        assert a.history.to_csv_text() == b.history.to_csv_text()
        assert not np.array_equal(a.params.g.values, c.params.g.values)

    def test_divergence_reports_the_iteration(self, tiny_mdp):
        bad_demos = np.full((3, 2, 3), np.nan)
        with pytest.raises(DivergenceError, match="iteration 0") as err:
            airl_train(tiny_mdp, bad_demos, LearnerConfig(iterations=3))
        assert err.value.iteration == 0

    def test_divergence_error_survives_pickling(self):
        # an exception handed between processes travels pickled
        error = pickle.loads(pickle.dumps(DivergenceError(3)))
        assert type(error) is DivergenceError
        assert str(error) == "non-finite discriminator parameters at iteration 3"
        assert error.iteration == 3
        error = pickle.loads(pickle.dumps(DivergenceError(2, "policy step")))
        assert str(error) == "non-finite policy step at iteration 2"
        assert (error.iteration, error.what) == (2, "policy step")

    @pytest.mark.parametrize("variant", ["airl_state_only", "airl_state_action"])
    def test_nan_demos_diverge_without_runtime_warnings(self, tiny_mdp, variant):
        # The discriminator step's sigmoid sees NaN logits here; it must stay
        # silent so the only report is the DivergenceError.
        bad_demos = np.full((3, 2, 3), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="iteration 0"):
                airl_train(tiny_mdp, bad_demos,
                           LearnerConfig(variant=variant, iterations=3))

    def test_unconverged_policy_step_warns(self, tiny_mdp, monkeypatch):
        expert = soft_value_iteration(tiny_mdp).policy
        demos = sample_trajectories(tiny_mdp, expert, 8, seed=0)
        runs = {
            "airl_state_only": lambda: airl_train(tiny_mdp, demos, LearnerConfig(iterations=2)),
            "gan_gcl_trajectory": lambda: gan_gcl_train(tiny_mdp, demos, LearnerConfig(
                variant="gan_gcl_trajectory", mode="sampled", iterations=2,
                n_policy_trajectories=4)),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in runs.values():
                run()
        solve = irl_lab.airl._solve_stack
        monkeypatch.setattr(irl_lab.airl, "_solve_stack",
                            lambda *args, **kwargs: solve(*args, max_iters=1, **kwargs))
        for variant, run in runs.items():
            with pytest.warns(RuntimeWarning) as caught:
                run()
            messages = [str(w.message) for w in caught]
            assert [m.split(" (residual ")[0] for m in messages] == [
                f"policy step of {variant} problem 0 did not converge at iteration {i}"
                for i in range(2)
            ]
            assert all(float(m.split("residual ")[1].rstrip(")")) > 1e-8 for m in messages)

    @pytest.mark.parametrize("step_size, variant, mode, what, iteration", [
        (1.7e308, "airl_state_only", "exact_occupancy", "policy step", 0),
        (1.7e308, "airl_state_only", "sampled", "policy step", 0),
        (1e308, "airl_state_only", "exact_occupancy", "policy step", 1),
        (1e308, "airl_state_only", "sampled", "policy step", 2),
        (1.7e308, "airl_state_action", "sampled", "discriminator parameters", 1),
        (1e308, "airl_state_action", "sampled", "discriminator parameters", 2),
    ])
    def test_non_finite_policy_step_stops_training(self, step_size, variant, mode, what,
                                                   iteration):
        # a huge finite step gives a reward whose soft backup overflows to NaN,
        # or a fit that overflows; training stops at that round, not a round
        # later or never, and numpy's own overflow warnings stay silent
        mdp = random_mdp(4, 2, RewardTable("state_only", np.array([1.0, 0.0, 0.0, 0.0])),
                         seed=3, horizon=8)
        config = LearnerConfig(mode=mode, iterations=3, disc_step_size=step_size)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError) as err:
                run_recovery(mdp, variant, config)
        assert str(err.value) == f"non-finite {what} at iteration {iteration}"
        assert err.value.iteration == iteration
        messages = [str(w.message) for w in caught]
        assert not any("encountered in" in m for m in messages), messages
        if what == "policy step":
            # the step's non-convergence warning comes before the error
            assert messages[-1] == (f"policy step of {variant} problem 0 did not "
                                    f"converge at iteration {iteration} (residual nan)")

    def test_infinite_policy_step_reward_stops_training(self):
        # finite g and h whose f overflows when collapsed to (s, a): the
        # round diverges, where the solver would refuse the reward as input
        mdp = random_mdp(4, 2, RewardTable("state_only", np.array([1.0, 0.0, 0.0, 0.0])),
                         seed=0, horizon=8)
        config = LearnerConfig(mode="sampled", iterations=3, disc_step_size=5e307)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError, match="^non-finite policy step at iteration 2$"):
                run_recovery(mdp, "airl_state_action", config)
        assert not any("encountered in" in str(w.message) for w in caught)

    def test_huge_finite_tables_give_a_finite_recovery_error(self):
        # a step size that drives g near -7.3e307 without diverging: the
        # centered comparison's plain mean overflows, and it rescales instead
        mdp = random_mdp(4, 2, RewardTable("state_only", np.array([1.0, 0.0, 0.0, 0.0])),
                         seed=3, horizon=8)
        config = LearnerConfig(mode="sampled", iterations=3, disc_step_size=3e307)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_recovery(mdp, "airl_state_action", config)
            errors = result.history.column("reward_error")
        assert np.abs(result.params.g.values).max() > 7e307
        assert np.isfinite(result.recovery_error) and np.isfinite(errors).all()
        assert errors[-1] == result.recovery_error
        assert not any("encountered in" in str(w.message) for w in caught)

    @pytest.mark.parametrize("variant, mode", [
        ("airl_state_only", "exact_occupancy"),
        ("airl_state_action", "sampled"),
        ("gan_gcl_trajectory", "sampled"),
    ])
    def test_underflowed_policy_trains_without_warnings(self, variant, mode):
        # step size 1e4 drives policy entries to exactly 0; log pi = -inf is
        # then an intended offset, not a warning or a NaN
        mdp = random_mdp(3, 2, RewardTable("state_only", np.array([0.0, 1.0, -1.0])),
                         seed=0, horizon=4)
        expert = soft_value_iteration(mdp).policy
        if mode == "exact_occupancy":
            demos = occupancy(mdp, expert)
        else:
            demos = sample_trajectories(mdp, expert, 16, seed=0)
        train = gan_gcl_train if variant == "gan_gcl_trajectory" else airl_train
        config = LearnerConfig(variant=variant, mode=mode, iterations=4, disc_step_size=1e4,
                               n_policy_trajectories=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = train(mdp, demos, config)
        assert result.policy.min() == 0.0
        # a replayed episode the current policy cannot produce has D = 1 and
        # an infinite loss term; no term is NaN
        losses = result.history.column("disc_loss")
        assert not np.any(np.isnan(losses))
        assert mode == "sampled" or np.all(np.isfinite(losses))

    def test_sampled_rounds_stay_on_count_arrays(self, tiny_mdp, monkeypatch):
        # rollouts reach the discriminator as counts: no per-round episode
        # objects, no pooled batch and no per-batch weight tensor in the loop
        def unexpected(*args, **kwargs):
            raise AssertionError("sampled round left the count arrays")

        expert = soft_value_iteration(tiny_mdp).policy
        demos = occupancy(tiny_mdp, expert)
        episodes = sample_trajectories(tiny_mdp, expert, 8, seed=0)
        configs = {variant: LearnerConfig(variant=variant, mode="sampled", iterations=3,
                                          replay_window=2)
                   for variant in ("airl_state_only", "airl_state_action")}
        # run_recovery's expert demos, trained on as Rollouts
        expert_episodes = sample_trajectories(tiny_mdp, expert, N_EXPERT_TRAJECTORIES, seed=0)
        wants = {variant: airl_train(tiny_mdp, expert_episodes, config)
                 for variant, config in configs.items()}
        monkeypatch.setattr(irl_lab.airl, "pool_batches", unexpected)
        monkeypatch.setattr(TransitionBatch, "to_weights", unexpected)
        built, post_init = [], Rollouts.__post_init__
        monkeypatch.setattr(Rollouts, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        for variant, config in configs.items():
            assert len(airl_train(tiny_mdp, demos, config).history) == 3
            # run_recovery keeps its sampled expert demos on counts, with the same bits
            got = run_recovery(tiny_mdp, variant, config)
            assert got.params.g.values.tobytes() == wants[variant].params.g.values.tobytes()
            assert got.history.to_csv_text() == wants[variant].history.to_csv_text()
        result = gan_gcl_train(tiny_mdp, episodes, LearnerConfig(
            variant="gan_gcl_trajectory", mode="sampled", iterations=3, replay_window=2))
        assert len(result.history) == 3
        # the only episode objects built are run_recovery's expert demos, one per call
        assert len(built) == len(configs)

    def test_history_contract(self, tiny_mdp):
        demos = occupancy(tiny_mdp, soft_value_iteration(tiny_mdp).policy)
        result = airl_train(tiny_mdp, demos, LearnerConfig(iterations=12))
        h = result.history
        assert len(h) == 12
        npt.assert_array_equal(h.column("iteration"), np.arange(12))
        assert np.all(np.isfinite(h.column("disc_loss")))
        assert np.all(np.diff(h.column("vi_steps_cumulative")) >= 0)
        csv = h.to_csv_text().splitlines()
        assert csv[0] == "iter,disc_loss,true_return,reward_error,g_delta"
        assert len(csv) == 13
        doc = h.to_json_dict()
        assert set(doc) == {"iter", "disc_loss", "true_return", "reward_error",
                            "g_delta", "vi_steps_cumulative"}

    def test_generator_tracks_uniform_expert_on_zero_reward(self):
        # imitation sanity: demos from the uniform policy on a reward-free
        # MDP keep the learned policy's occupancy within 0.02 total variation
        mdp = random_mdp(4, 3, RewardTable("state_only", np.zeros(4)), seed=14,
                         horizon=10)
        expert_occ = occupancy(mdp, uniform_policy(mdp))
        result = airl_train(
            mdp, expert_occ,
            LearnerConfig(variant="airl_state_action", iterations=40),
        )
        learned_occ = occupancy(mdp, result.policy)
        tv = 0.5 * np.abs(learned_occ - expert_occ).sum()
        assert tv <= 0.02

    def test_state_action_variant_learns_the_expert_advantage(self, bench_mdp):
        # the unrestricted architecture matches f to the expert advantage (so
        # D sits at 1/2 on expert data) while g absorbs shaping and does NOT
        # match the ground-truth reward
        expert = soft_value_iteration(bench_mdp)
        demos = occupancy(bench_mdp, expert.policy)
        result = airl_train(
            bench_mdp, demos,
            LearnerConfig(variant="airl_state_action", iterations=400,
                          disc_steps_per_iter=20, disc_step_size=0.2),
        )
        f = f_table(result.params, 16, 4)
        gap = np.max(np.abs(f - advantage(expert)[:, :, None]))
        assert gap <= 0.05
        d = expit(f - np.log(expert.policy)[:, :, None])
        assert np.max(np.abs(d - 0.5)) <= 0.02
        assert centered_reward_error(result.params.g, bench_mdp.reward,
                                     bench_mdp.transition) > 0.3


def stack_problems():
    """Three paper-tabular MDPs and one of criterion 4's deterministic family, with expert occupancies."""
    reward = RewardTable("state_only", np.eye(16)[0])
    mdps = [paper_tabular_mdp(seed) for seed in range(3)]
    mdps.append(random_deterministic_mdp(16, 4, reward, 0))
    return mdps, [occupancy(m, soft_value_iteration(m).policy) for m in mdps]


def assert_same_run(row, alone, iterations):
    """A stack's result equals the one-problem run's, bit for bit."""
    assert row.params.g.kind == alone.params.g.kind
    assert row.params.g.values.tobytes() == alone.params.g.values.tobytes()
    assert row.params.h.tobytes() == alone.params.h.tobytes()
    assert row.params.discount == alone.params.discount
    assert row.policy.tobytes() == alone.policy.tobytes()
    assert len(row.history) == iterations
    for name in ("iteration", "disc_loss", "true_return", "reward_error", "g_delta",
                 "vi_steps_cumulative"):
        assert row.history.column(name).tobytes() == alone.history.column(name).tobytes(), name


class TestStackedTraining:
    """`airl_train`'s sequence form: several problems trained as one stack."""

    @pytest.mark.parametrize("variant", ["airl_state_only", "airl_state_action"])
    def test_each_problem_equals_its_own_run(self, variant):
        mdps, demos = stack_problems()
        config = LearnerConfig(variant=variant, iterations=30, disc_step_size=0.2)
        stacked = airl_train(mdps, demos, config)
        assert len(stacked) == len(mdps)
        for mdp, demo, row in zip(mdps, demos, stacked):
            assert_same_run(row, airl_train(mdp, demo, config), 30)

    @pytest.mark.parametrize("variant", ["airl_state_only", "airl_state_action"])
    def test_nan_demos_in_one_problem_diverge_at_iteration_0(self, variant):
        mdps, demos = stack_problems()
        demos[2] = np.full((16, 4, 16), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="iteration 0") as err:
                airl_train(mdps, demos, LearnerConfig(variant=variant, iterations=3))
        assert err.value.iteration == 0

    def test_the_earliest_divergence_stops_the_stack(self, monkeypatch):
        mdps, demos = stack_problems()
        # NaN negatives at one iteration of one problem: problem 1 at 5, problem 3 at 2
        poisoned = {1: 5, 3: 2}
        calls = {}
        # the problem that each row of the running stack trains
        problems = []
        real_occupancies = irl_lab.airl._occupancies

        def occupancies_with_nan(*args):
            rho = real_occupancies(*args)
            for row, i in enumerate(problems):
                calls[i] = calls.get(i, -1) + 1
                if poisoned.get(i) == calls[i]:
                    rho[row] = np.nan
            return rho

        monkeypatch.setattr(irl_lab.airl, "_occupancies", occupancies_with_nan)
        config = LearnerConfig(iterations=8)
        for i, iteration in poisoned.items():
            calls.clear()
            problems[:] = [i]
            with pytest.raises(DivergenceError) as err:
                airl_train(mdps[i], demos[i], config)
            assert err.value.iteration == iteration
        calls.clear()
        problems[:] = range(len(mdps))
        with pytest.raises(DivergenceError) as err:
            airl_train(mdps, demos, config)
        assert err.value.iteration == 2

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("variant", ["airl_state_only", "airl_state_action"])
    def test_policy_step_reward_is_the_per_row_collapse(self, monkeypatch, variant, n_rows):
        # the policy step collapses the whole stack of f tables at once; each
        # row must equal the one-table collapse of that problem's f
        mdps, demos = stack_problems()
        mdps.append(paper_tabular_mdp(4))
        demos.append(occupancy(mdps[-1], soft_value_iteration(mdps[-1]).policy))
        mdps, demos = mdps[:n_rows], demos[:n_rows]
        fits, rewards = [], []
        fit, solve = irl_lab.airl._Problem.fit, irl_lab.airl._solve_stack
        monkeypatch.setattr(irl_lab.airl._Problem, "fit",
                            lambda self, *args: fits.append(fit(self, *args)) or fits[-1])
        monkeypatch.setattr(irl_lab.airl, "_solve_stack",
                            lambda transition, r_sa, *args, **kwargs:
                            rewards.append(r_sa) or solve(transition, r_sa, *args, **kwargs))
        airl_train(mdps, demos, LearnerConfig(variant=variant, iterations=3))
        assert len(fits) == len(rewards) == 3
        for (g, h), r_sa in zip(fits, rewards):
            assert r_sa.shape == (n_rows, 16, 4)
            for i, mdp in enumerate(mdps):
                table = (RewardTable("state_only", g[i][:, 0]) if variant == "airl_state_only"
                         else RewardTable("state_action", g[i]))
                params = DiscriminatorParams(table, h[i], mdp.discount)
                f = RewardTable("transition", f_table(params, 16, 4))
                want = expected_state_action(f, mdp.transition)
                assert r_sa[i].tobytes() == want.tobytes()

    def test_unconverged_policy_steps_name_their_problem(self, monkeypatch):
        # one warning per problem and iteration, each text distinct, so
        # Python's once-per-text filter shows every one of them
        mdps, demos = stack_problems()
        solve = irl_lab.airl._solve_stack
        monkeypatch.setattr(irl_lab.airl, "_solve_stack",
                            lambda *args, **kwargs: solve(*args, max_iters=1, **kwargs))
        with pytest.warns(RuntimeWarning) as caught:
            airl_train(mdps, demos, LearnerConfig(iterations=2))
        assert [str(w.message).split(" (residual ")[0] for w in caught] == [
            f"policy step of airl_state_only problem {i} did not converge at iteration {k}"
            for k in range(2) for i in range(len(mdps))
        ]

    @pytest.mark.parametrize("other", [dict(discount=0.8), dict(horizon=10)])
    def test_problems_must_share_discount_and_horizon(self, other):
        mdps, demos = stack_problems()
        with pytest.raises(ValueError, match="discount and horizon"):
            airl_train([mdps[0], paper_tabular_mdp(3, **other)], demos[:2],
                       LearnerConfig(iterations=1))

    @pytest.mark.parametrize("variant", ["airl_state_only", "airl_state_action"])
    def test_sampled_stack_equals_each_own_run(self, variant):
        # every round draws one rollout seed for the whole stack, which each
        # problem's own run draws too; the replay keeps one count table per problem
        mdps, _ = stack_problems()
        demos = [sample_trajectories(m, soft_value_iteration(m).policy, 16, seed=i)
                 for i, m in enumerate(mdps)]
        config = LearnerConfig(variant=variant, mode="sampled", iterations=12,
                               disc_step_size=0.2, replay_window=5, n_policy_trajectories=16)
        stacked = airl_train(mdps, demos, config)
        assert len(stacked) == len(mdps)
        for mdp, demo, row in zip(mdps, demos, stacked):
            assert_same_run(row, airl_train(mdp, demo, config), 12)

    @pytest.mark.parametrize("n_demos", [1, 4])
    def test_demos_must_match_the_stack(self, n_demos):
        # one demos entry per MDP: a single (1, S, A, S) expert tensor would
        # otherwise broadcast over the whole stack and train every problem on it
        mdps, demos = stack_problems()
        with pytest.raises(ValueError, match=f"a stack of 3 MDPs needs as many demos, got {n_demos}"):
            airl_train(mdps[:3], demos[:n_demos], LearnerConfig(iterations=1))

    def test_empty_stack_is_rejected(self):
        with pytest.raises(ValueError, match="airl_train got an empty stack"):
            airl_train([], [], LearnerConfig(iterations=1))


BOTH_VARIANTS = ("airl_state_only", "airl_state_action")


class TestMixedStack:
    """`_airl_train_stack` with both variants: each MDP trained under each as one stack."""

    @pytest.mark.parametrize("variants", [BOTH_VARIANTS, BOTH_VARIANTS[::-1]])
    def test_each_row_equals_its_own_one_variant_run(self, variants):
        mdps, demos = stack_problems()
        config = LearnerConfig(iterations=30, disc_step_size=0.2)
        per_variant = _airl_train_stack(mdps, demos, variants, config)
        assert len(per_variant) == 2
        for variant, results in zip(variants, per_variant):
            for mdp, demo, row in zip(mdps, demos, results):
                alone = airl_train(mdp, demo, LearnerConfig(variant=variant, iterations=30,
                                                            disc_step_size=0.2))
                assert row.params.g.kind == alone.params.g.kind
                assert row.params.g.values.shape == alone.params.g.values.shape
                assert row.params.g.values.tobytes() == alone.params.g.values.tobytes()
                assert row.params.h.tobytes() == alone.params.h.tobytes()
                assert row.policy.tobytes() == alone.policy.tobytes()
                for name in alone.history._columns():
                    assert (row.history.column(name).tobytes()
                            == alone.history.column(name).tobytes()), name

    @pytest.mark.parametrize("variants, g_shape", [
        (("airl_state_only",), (4, 16, 4)),
        (("airl_state_action",), (4, 16, 4)),
        (BOTH_VARIANTS[::-1], (8, 16, 4)),
    ])
    def test_g_layout_follows_the_variants(self, monkeypatch, variants, g_shape):
        # every stack holds g as (B, S, A) tables, its state-only rows first,
        # each g(s) tied across the actions
        mdps, demos = stack_problems()
        fits = []
        fit = irl_lab.airl._Problem.fit
        monkeypatch.setattr(irl_lab.airl._Problem, "fit",
                            lambda self, *args: fits.append(fit(self, *args)) or fits[-1])
        _airl_train_stack(mdps, demos, variants, LearnerConfig(iterations=3))
        assert len(fits) == 3
        tied = 4 if "airl_state_only" in variants else 0
        for g, _ in fits:
            assert g.shape == g_shape
            npt.assert_array_equal(g[:tied], np.broadcast_to(g[:tied, :, :1], (tied, 16, 4)))
            assert not any(np.array_equal(row, np.broadcast_to(row[:, :1], (16, 4)))
                           for row in g[tied:])

    def test_the_first_divergence_of_any_row_stops_the_stack(self, monkeypatch):
        # rows 0-3 train state-only, rows 4-7 state-action: NaN negatives at
        # iteration 5 of state-only problem 1 and at iteration 2 of
        # state-action problem 3 stop the stack at iteration 2, where the
        # variants trained one after the other would stop at iteration 5
        mdps, demos = stack_problems()
        poisoned = {1: 5, 7: 2}
        iterations = []
        real_occupancies = irl_lab.airl._occupancies

        def occupancies_with_nan(*args):
            rho = real_occupancies(*args)
            iterations.append(len(iterations))
            for row, iteration in poisoned.items():
                if len(rho) == 8 and iteration == iterations[-1]:
                    rho[row] = np.nan
            return rho

        monkeypatch.setattr(irl_lab.airl, "_occupancies", occupancies_with_nan)
        with pytest.raises(DivergenceError) as err:
            _airl_train_stack(mdps, demos, BOTH_VARIANTS, LearnerConfig(iterations=8))
        assert err.value.iteration == 2

    def test_nan_demos_of_one_mdp_diverge_both_variants_at_iteration_0(self):
        mdps, demos = stack_problems()
        demos[1] = np.full((16, 4, 16), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="iteration 0"):
                _airl_train_stack(mdps, demos, BOTH_VARIANTS, LearnerConfig(iterations=3))


def eager_history(mdp, history):
    """Each stored (g, policy) scored by single-policy calls, one iteration at a time."""
    true_return, reward_error = [], []
    for g, policy in zip(history._g, history._policy):
        true_return.append(evaluate_return(mdp, policy, mdp.reward, include_entropy=False))
        kind = "state_only" if g.ndim == 1 else "state_action"
        reward_error.append(
            centered_reward_error(RewardTable(kind, g), mdp.reward, mdp.transition)
        )
    return true_return, reward_error


def record_fits(monkeypatch) -> list:
    """Each training round's (problem, fitted theta), recorded by wrapping `_Problem.fit`."""
    fits, fit = [], irl_lab.airl._Problem.fit
    monkeypatch.setattr(irl_lab.airl._Problem, "fit",
                        lambda self, *args: fits.append((self, fit(self, *args))) or fits[-1][1])
    return fits


def record_negatives(monkeypatch) -> list:
    """A copy of each stacked occupancy `irl_lab.airl` forms, recorded by wrapping `_occupancies`."""
    negatives, occupancies = [], irl_lab.airl._occupancies

    def record(*args):
        rho = occupancies(*args)
        negatives.append(rho.copy())
        return rho

    monkeypatch.setattr(irl_lab.airl, "_occupancies", record)
    return negatives


def assert_losses_of_fits(histories, fits, iterations):
    """Row i's `disc_loss` is row i of each recorded round's two-pass loss, bit for bit."""
    assert len(fits) == iterations
    for row, history in enumerate(histories):
        want = [np.reshape(two_pass_loss(problem, theta), -1)[row] for problem, theta in fits]
        assert history.column("disc_loss").tobytes() == np.array(want).tobytes(), row


class TestLazyHistory:
    @pytest.fixture(scope="class")
    def runs(self, bench_mdp):
        """Both AIRL variants in both modes, and the trajectory baseline."""
        expert = soft_value_iteration(bench_mdp).policy
        trajectories = sample_trajectories(bench_mdp, expert, 16, seed=4)
        runs = {}
        for variant in ("airl_state_only", "airl_state_action"):
            runs[variant, "exact_occupancy"] = airl_train(
                bench_mdp, occupancy(bench_mdp, expert),
                LearnerConfig(variant=variant, iterations=6, disc_step_size=0.2),
            )
            runs[variant, "sampled"] = airl_train(
                bench_mdp, trajectories,
                LearnerConfig(variant=variant, mode="sampled", iterations=6,
                              n_policy_trajectories=16, seed=2),
            )
        runs["gan_gcl_trajectory", "sampled"] = gan_gcl_train(
            bench_mdp, trajectories,
            LearnerConfig(variant="gan_gcl_trajectory", mode="sampled", iterations=6,
                          n_policy_trajectories=16, seed=2),
        )
        return runs

    def test_derived_columns_equal_single_policy_calls(self, bench_mdp, runs):
        for key, result in runs.items():
            history = result.history
            true_return, reward_error = eager_history(bench_mdp, history)
            assert len(true_return) == 6, key
            assert history.column("true_return").tolist() == true_return, key
            assert history.column("reward_error").tolist() == reward_error, key
            doc = history.to_json_dict()
            assert doc["true_return"] == true_return, key
            assert doc["reward_error"] == reward_error, key
            # the stored tables are the training's own
            assert np.array_equal(history._policy[-1], result.policy), key
            learned = result.scorer.f_step if key[0] == "gan_gcl_trajectory" \
                else result.params.g.values
            assert np.array_equal(history._g[-1], learned), key

    def test_reads_repeat(self, runs):
        history = runs["airl_state_only", "exact_occupancy"].history
        first = history.to_csv_text()
        assert history.to_csv_text() == first
        doc = history.to_json_dict()
        assert history.to_json_dict() == doc
        # each read hands out copies of the kept columns
        want = json.dumps(doc)
        doc["disc_loss"][0] = None
        del doc["g_delta"]
        history.column("true_return")[0] = np.nan
        assert json.dumps(history.to_json_dict()) == want
        assert history.to_csv_text() == first
        assert all(type(x) is int for x in history.column("vi_steps_cumulative").tolist())

    def test_editing_the_result_leaves_the_history_alone(self, tiny_mdp):
        demos = occupancy(tiny_mdp, soft_value_iteration(tiny_mdp).policy)
        result = airl_train(tiny_mdp, demos, LearnerConfig(iterations=3))
        before = result.history.to_csv_text()
        result.policy[:] = uniform_policy(tiny_mdp)
        assert result.history.to_csv_text() == before

    @pytest.mark.parametrize("variant, mode", [("airl_state_only", "exact_occupancy"),
                                               ("airl_state_action", "sampled"),
                                               ("gan_gcl_trajectory", "sampled")])
    def test_training_computes_no_diagnostics_until_read(self, tiny_mdp, monkeypatch,
                                                         variant, mode):
        def unexpected(*args, **kwargs):
            raise AssertionError("history diagnostic computed before a read")

        expert = soft_value_iteration(tiny_mdp).policy
        config = LearnerConfig(variant=variant, mode=mode, iterations=4, replay_window=2,
                               n_policy_trajectories=8)
        train = gan_gcl_train if variant == "gan_gcl_trajectory" else airl_train
        demos = (sample_trajectories(tiny_mdp, expert, 8, seed=1) if mode == "sampled"
                 else occupancy(tiny_mdp, expert))
        monkeypatch.setattr(irl_lab.airl, "evaluate_return", unexpected)
        monkeypatch.setattr(irl_lab.airl, "centered_reward_error", unexpected)
        monkeypatch.setattr(irl_lab.airl._Problem, "loss", unexpected)
        result = train(tiny_mdp, demos, config)
        assert len(result.history) == 4
        with pytest.raises(AssertionError, match="before a read"):
            result.history.to_csv_text()
        monkeypatch.undo()
        assert np.all(np.isfinite(result.history.column("disc_loss")))

    @pytest.mark.parametrize("mode", ["exact_occupancy", "sampled"])
    def test_mixed_stack_losses_equal_the_two_pass_loss(self, monkeypatch, mode):
        # each round's loss, computed at the first read, has the bits of the
        # two-pass loss of the problem the round fit, at the theta it fit;
        # the sampled run's replay window wraps
        mdps, demos = stack_problems()
        mdps = mdps[:2]
        if mode == "sampled":
            demos = [sample_trajectories(m, soft_value_iteration(m).policy, 16, seed=i)
                     for i, m in enumerate(mdps)]
        config = LearnerConfig(mode=mode, iterations=7, disc_step_size=0.2, replay_window=3,
                               n_policy_trajectories=16)
        fits = record_fits(monkeypatch)
        per_variant = _airl_train_stack(mdps, demos[:2], BOTH_VARIANTS, config)
        monkeypatch.undo()
        assert_losses_of_fits([r.history for results in per_variant for r in results], fits, 7)

    @pytest.mark.parametrize("variant", ["airl_state_only", "airl_state_action"])
    @pytest.mark.parametrize("iterations", [1, 7])
    def test_exact_read_rebuilds_rounds_from_recorded_visits(self, monkeypatch, iterations,
                                                             variant):
        # a read runs no state-visit recursion: each round's negatives are formed
        # from the visits the loop recorded, with the bits the loop's round saw;
        # one round reads only the uniform entering policy's round
        mdps, demos = stack_problems()
        fits = record_fits(monkeypatch)
        trained = record_negatives(monkeypatch)
        results = airl_train(mdps, demos, LearnerConfig(variant=variant, iterations=iterations,
                                                        disc_step_size=0.2))
        monkeypatch.undo()
        visits = record_calls(monkeypatch, irl_lab.airl, "_state_visits")
        read = record_negatives(monkeypatch)
        assert_losses_of_fits([r.history for r in results], fits, iterations)
        assert visits == []
        assert len(trained) == iterations
        assert [rho.shape for rho in trained] == [(4, 16, 4, 16)] * iterations
        assert [rho.tobytes() for rho in read] == [rho.tobytes() for rho in trained]

    def test_baseline_losses_equal_the_two_pass_loss(self, bench_mdp, monkeypatch):
        demos = sample_trajectories(bench_mdp, soft_value_iteration(bench_mdp).policy, 16, seed=4)
        config = LearnerConfig(variant="gan_gcl_trajectory", mode="sampled", iterations=7,
                               replay_window=3, n_policy_trajectories=16, seed=2)
        fits = record_fits(monkeypatch)
        result = gan_gcl_train(bench_mdp, demos, config)
        monkeypatch.undo()
        assert_losses_of_fits([result.history], fits, 7)


class TestTransitionBatch:
    def test_rollout_weights_equal_the_batch_weights(self, bench_mdp):
        rollouts = sample_trajectories(bench_mdp, softmax_policy(5, 16, 4), 9, seed=2)
        batch = batch_of(rollouts)
        assert len(batch) == 9 * bench_mdp.horizon
        npt.assert_array_equal(batch.states[:bench_mdp.horizon], rollouts.states[0, :-1])
        got = _as_weights(rollouts, 16, 4)
        assert got.tobytes() == batch.to_weights(16, 4).tobytes()

    def test_weights_take_a_tensor_or_rollouts_only(self, tiny_mdp):
        rollouts = sample_trajectories(tiny_mdp, uniform_policy(tiny_mdp), 3, seed=2)
        for data in ([rollouts], list(zip(rollouts.states, rollouts.actions)),
                     batch_of(rollouts)):
            with pytest.raises(TypeError, match="weight tensor or Rollouts"):
                _as_weights(data, 3, 2)
        with pytest.raises(TypeError, match="weight tensor or Rollouts"):
            airl_train(tiny_mdp, batch_of(rollouts), LearnerConfig(iterations=1))

    def test_to_weights_counts_and_normalizes(self, bench_mdp):
        batch = TransitionBatch([0, 0, 1], [0, 0, 1], [1, 1, 0])
        w = batch.to_weights(2, 2)
        npt.assert_allclose(w[0, 0, 1], 2 / 3)
        npt.assert_allclose(w[1, 1, 0], 1 / 3)
        npt.assert_allclose(w.sum(), 1.0)
        # a sampled batch, bit for bit against counts taken one step at a time
        batch = batch_of(sample_trajectories(bench_mdp, softmax_policy(6, 16, 4), 9, seed=3))
        want = np.zeros((16, 4, 16))
        for cell in zip(batch.states, batch.actions, batch.next_states):
            want[cell] += 1.0
        assert batch.to_weights(16, 4).tobytes() == (want / len(batch)).tobytes()

    def test_empty_batch_rejected(self):
        empty = TransitionBatch([], [], [])
        with pytest.raises(ValueError, match="empty"):
            empty.to_weights(2, 2)
        with pytest.raises(ValueError):
            pool_batches([])

    def test_pooling_preserves_order(self):
        a = TransitionBatch([0], [1], [2])
        b = TransitionBatch([3], [4], [5])
        pooled = pool_batches([a, b])
        npt.assert_array_equal(pooled.states, [0, 3])
        npt.assert_array_equal(pooled.actions, [1, 4])
        npt.assert_array_equal(pooled.next_states, [2, 5])

    @pytest.mark.parametrize("cell", [(2, 0, 0), (0, 2, 0), (0, 0, 2), (-1, 0, 0), (0, -1, 0)])
    def test_out_of_range_indices_rejected(self, cell):
        # a flat cell index would land an out-of-range action in another cell
        batch = TransitionBatch(*([0, c] for c in cell))
        with pytest.raises(ValueError, match="outside the table"):
            batch.to_weights(2, 2)

    def test_ragged_arrays_rejected(self):
        with pytest.raises(ValueError):
            TransitionBatch([0, 1], [0], [1, 2])


def loop_counts(states, actions, n_states, n_actions):
    """The step-count matrix of rollouts' array rows, built one step at a time."""
    counts = np.zeros((len(actions), n_states * n_actions))
    for i in range(len(actions)):
        for s, a in zip(states[i], actions[i]):
            counts[i, s * n_actions + a] += 1.0
    return counts


class TestReplayCounts:
    def test_replay_weights_equal_pooled_batch_weights(self, bench_mdp):
        policy = softmax_policy(3, 16, 4)
        seeds = (11, 12, 13)
        replay = [_rollout_counts(*_rollouts(bench_mdp, policy, 16, seed), 16, 4)
                  for seed in seeds]
        batches = [batch_of(sample_trajectories(bench_mdp, policy, 16, seed)) for seed in seeds]
        for k in range(1, len(seeds) + 1):
            want = pool_batches(batches[:k]).to_weights(16, 4)
            assert np.array_equal(_replay_weights(replay[:k]), want)

    def test_episode_counts_equal_the_loop_rows(self, bench_mdp):
        policy = softmax_policy(4, 16, 4)
        states, actions = _rollouts(bench_mdp, policy, 12, 7)
        got = _episode_counts(states, actions, 16, 4)
        assert np.array_equal(got, loop_counts(states, actions, 16, 4))


class TestGanGcl:
    def two_step_mdp(self):
        t = np.zeros((3, 2, 3))
        t[0, 0, 1] = t[0, 1, 2] = 1.0
        t[1, :, 0] = t[2, :, 0] = 1.0
        reward = RewardTable("state_only", np.array([0.0, 1.0, -1.0]))
        return TabularMdp(3, 2, t, reward, 0.9, np.array([1.0, 0.0, 0.0]),
                          horizon=2)

    def test_trajectory_score_matches_hand_computation(self):
        mdp = self.two_step_mdp()
        policy = softmax_policy(3, 3, 2)
        f_step = np.array([[0.3, -0.2], [0.1, 0.4], [-0.5, 0.2]])
        scorer = TrajectoryScorer(f_step)
        rollouts = sample_trajectories(mdp, policy, 2, seed=0)
        probs, f_sums = scorer.prob(rollouts, policy), scorer.f_of(rollouts)
        assert probs.shape == f_sums.shape == (2,)
        for i, steps in enumerate(zip(rollouts.states, rollouts.actions)):
            f_sum = sum(f_step[s, a] for s, a in zip(*steps))
            log_pi = sum(np.log(policy[s, a]) for s, a in zip(*steps))
            expected = 1.0 / (1.0 + np.exp(-(f_sum - log_pi)))
            npt.assert_allclose(probs[i], expected, atol=1e-12)
            npt.assert_allclose(f_sums[i], f_sum, atol=1e-12)

    def test_dynamics_factors_cancel_in_the_odds(self):
        # the scorer's log-probability omits dynamics and start factors;
        # multiplying them back must reproduce the exact episode probability
        mdp = self.two_step_mdp()
        policy = softmax_policy(8, 3, 2)
        scorer = TrajectoryScorer(np.zeros((3, 2)))
        rollouts = sample_trajectories(mdp, policy, 4, seed=1)
        log_probs = scorer.log_policy_prob(rollouts, policy)
        for i, (states, actions) in enumerate(zip(rollouts.states, rollouts.actions)):
            extra = mdp.initial_dist[states[0]]
            for t, a in enumerate(actions):
                extra *= mdp.transition[states[t], a, states[t + 1]]
            npt.assert_allclose(
                np.exp(log_probs[i]) * extra,
                trajectory_probability(mdp, policy, states, actions),
                atol=1e-15,
            )

    def test_matched_odds_loss_anchor(self):
        mdp = self.two_step_mdp()
        policy = softmax_policy(5, 3, 2)
        scorer = TrajectoryScorer(np.log(policy))
        demos = sample_trajectories(mdp, policy, 6, seed=2)
        negs = sample_trajectories(mdp, policy, 6, seed=3)
        loss = (np.mean(-np.log(scorer.prob(demos, policy)))
                + np.mean(-np.log1p(-scorer.prob(negs, policy))))
        npt.assert_allclose(loss, 2.0 * np.log(2.0), atol=1e-12)
        npt.assert_allclose(scorer.prob(demos, policy), 0.5, atol=1e-12)

    def episode_problem(self, seed):
        mdp = random_mdp(4, 3, RewardTable("state_only", np.zeros(4)), seed=seed,
                         horizon=5)
        policy = softmax_policy(seed, 4, 3)
        demos = sample_trajectories(mdp, softmax_policy(seed + 50, 4, 3), 5, seed=seed)
        negs = sample_trajectories(mdp, policy, 7, seed=seed + 1)
        episodes = Rollouts(np.concatenate([demos.states, negs.states]),
                            np.concatenate([demos.actions, negs.actions]))
        counts = loop_counts(episodes.states, episodes.actions, 4, 3)
        problem = _episode_problem(counts, 5, np.log(policy))
        f_step = np.random.default_rng(seed).normal(scale=0.5, size=(4, 3))
        return problem, f_step, policy, episodes

    def test_row_logits_match_the_scorer(self):
        problem, f_step, policy, episodes = self.episode_problem(0)
        scorer = TrajectoryScorer(f_step)
        expected = scorer.log_odds(episodes, policy)
        logits = problem.logits((f_step,))
        npt.assert_allclose(logits, expected, rtol=0, atol=1e-12)
        # matched odds put D at 1/2 on every row; each side's weights sum to 1
        npt.assert_allclose(problem.loss((np.log(policy),)), 2 * np.log(2.0), atol=1e-12)

    def test_zero_probability_cell_makes_only_its_episodes_impossible(self):
        policy = np.array([[0.5, 0.5, 0.0]])
        with np.errstate(divide="ignore"):
            log_pi = np.log(policy)
        # two expert episodes, one of them through the zero-probability cell
        counts = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
        problem = _episode_problem(counts, 2, log_pi)
        offset = problem.logits((np.zeros((1, 3)),))  # the logits at theta = 0
        assert offset[0] == np.inf
        assert offset[1] == offset[2] == -2.0 * np.log(0.5)
        theta = (np.array([[0.3, -0.2, 0.1]]),)
        x = problem.logits(theta)
        want = 0.5 * np.logaddexp(0.0, -x[1]) + np.logaddexp(0.0, x[2])
        npt.assert_allclose(problem.loss(theta), want, rtol=1e-15)
        assert np.all(np.isfinite(problem.grad(theta)[0]))

    def test_offsets_without_zero_probabilities_are_the_plain_product(self):
        policy = softmax_policy(2, 4, 3)
        counts = np.random.default_rng(2).integers(0, 4, size=(9, 12)).astype(float)
        problem = _episode_problem(counts, 4, np.log(policy))
        assert np.array_equal(problem.logits((np.zeros((4, 3)),)),
                              -(counts @ np.log(policy).ravel()))

    def test_gradient_matches_central_differences(self):
        eps = 1e-5
        worst = 0.0
        for seed in range(5):
            problem, f_step, _, _ = self.episode_problem(seed)
            (grad,) = problem.grad((f_step,))
            fd = np.zeros_like(f_step)
            for idx in np.ndindex(f_step.shape):
                up, down = f_step.copy(), f_step.copy()
                up[idx] += eps
                down[idx] -= eps
                fd[idx] = (problem.loss((up,)) - problem.loss((down,))) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8))))
        assert worst <= 1e-4

    def test_variant_and_mode_are_enforced(self, tiny_mdp):
        expert = soft_value_iteration(tiny_mdp).policy
        demos = sample_trajectories(tiny_mdp, expert, 8, seed=0)
        with pytest.raises(ValueError, match="variant"):
            gan_gcl_train(tiny_mdp, demos, LearnerConfig(iterations=1))
        with pytest.raises(ValueError, match="sampled"):
            gan_gcl_train(
                tiny_mdp, demos,
                LearnerConfig(variant="gan_gcl_trajectory",
                              mode="exact_occupancy", iterations=1),
            )
        for data in (occupancy(tiny_mdp, expert), [demos]):
            with pytest.raises(ValueError, match="trajectories as Rollouts"):
                gan_gcl_train(tiny_mdp, data, LearnerConfig(variant="gan_gcl_trajectory",
                                                            mode="sampled", iterations=1))

    @pytest.mark.parametrize("states, actions", [
        ([0] * 21, [5] * 20),   # an action >= A would count in state 1's cells
        ([0] * 21, [4] * 20),
        ([20] * 21, [0] * 20),  # a state >= S
        ([0] * 20 + [16], [0] * 20),
        ([0] * 21, [0] * 19 + [-1]),
        ([-1] + [0] * 20, [0] * 20),
    ])
    def test_demos_outside_the_table_are_rejected(self, states, actions):
        # both learners refuse them before training
        mdp, demos = paper_tabular_mdp(0), Rollouts([states], [actions])
        config = LearnerConfig(variant="gan_gcl_trajectory", mode="sampled", iterations=1)
        with pytest.raises(ValueError, match="indexes a state or action outside the table"):
            gan_gcl_train(mdp, demos, config)
        with pytest.raises(ValueError, match="indexes a state or action outside the table"):
            airl_train(mdp, demos, LearnerConfig(iterations=1))

    def test_benchmark_imitation_run_records_history(self, bench_mdp):
        # baseline comparison: the trajectory-level learner's imitation
        # return is logged; no recovery threshold is claimed for it
        expert = soft_value_iteration(bench_mdp).policy
        demos = sample_trajectories(bench_mdp, expert, 32, seed=1)
        config = LearnerConfig(variant="gan_gcl_trajectory", mode="sampled",
                               iterations=30, n_policy_trajectories=32, seed=0)
        result = gan_gcl_train(bench_mdp, demos, config)
        assert len(result.history) == 30
        returns = result.history.column("true_return")
        assert np.all(np.isfinite(returns))
        assert result.scorer.f_step.shape == (16, 4)
        again = gan_gcl_train(bench_mdp, demos, config)
        assert np.array_equal(result.scorer.f_step, again.scorer.f_step)
