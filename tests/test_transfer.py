import math
import warnings
from dataclasses import replace
from itertools import accumulate
from types import SimpleNamespace

import irl_lab.airl
import irl_lab.transfer
import numpy as np
import numpy.testing as npt
import pytest

from irl_lab.airl import LearnerConfig
from irl_lab.mdp import (
    RewardTable,
    TabularMdp,
    counterexample_mdp,
    counterexample_shaped_reward,
    expected_state_action,
    paper_tabular_mdp,
    random_deterministic_mdp,
    random_mdp,
)
from irl_lab.shaping import PotentialFn, advantage, centered_reward_error, shape_reward
from irl_lab.soft_rl import (
    Rollouts,
    _soft_backup,
    evaluate_return,
    occupancy,
    sample_trajectories,
    soft_value_iteration,
    uniform_policy,
)
from irl_lab.transfer import (
    RECOVERY_MAX_ERROR_STATE_ONLY,
    TRANSFER_MIN_MEAN_SCORE_STATE_ONLY,
    disentanglement_probe,
    evaluate_on_new_dynamics,
    expert_demos,
    normalized_score,
    reoptimize_with_curve,
    run_recovery,
)

from conftest import at_temperature, record_calls, unexpected_call
from oracles import action_major_product, loop_curve, loop_probe, loop_sweeps


def deterministic_bench(seed=0):
    r = np.zeros(16)
    r[0] = 1.0
    return random_deterministic_mdp(16, 4, RewardTable("state_only", r), seed=seed)


@pytest.fixture(scope="module")
def det_recovery(deterministic_recoveries):
    """One converged state-only run on `deterministic_bench()`: 2,500 iterations
    of 20 steps of size 0.2.

    Row 0 of the session's deterministic stack, shared with criterion 4 so
    that the run, which dominates module runtime, happens once.
    """
    mdps, recoveries, _ = deterministic_recoveries
    assert mdps[0].transition.tobytes() == deterministic_bench().transition.tobytes()
    return mdps[0], recoveries[0]


# max_iters after the first sweep all fall inside the sweep loop's second chunk, which
# the contraction bound sizes past the truth's stop at sweep 180 on bench_mdp
SWEEP_LIMITS = [1, 2, 3, 64, 65, 179]


def unconverged_warnings(caught):
    """The messages of caught warnings up to their residual, each raised at its caller."""
    assert all(w.category is RuntimeWarning and w.filename == __file__ for w in caught)
    return [str(w.message).split(" (residual ")[0] for w in caught]


def one_iteration_stacks(monkeypatch):
    """Stop every stacked solve in transfer after one iteration."""
    solve = irl_lab.transfer._solve_stack
    monkeypatch.setattr(irl_lab.transfer, "_solve_stack",
                        lambda *args, **kwargs: solve(*args, max_iters=1, **kwargs))


def sweep_residuals(mdp, reward, sweeps):
    """|v_k - v_{k-1}| of the first `sweeps` sweeps of plain value iteration."""
    r_sa = expected_state_action(reward, mdp.transition)
    v = np.zeros(mdp.n_states)
    residuals = []
    for _ in range(sweeps):
        v_new = _soft_backup(r_sa + mdp.discount * action_major_product(mdp, v))
        residuals.append(float(np.max(np.abs(v_new - v))))
        v = v_new
    return residuals


def chunk_ends(residuals, tolerance, discount):
    """The sweeps after which one row's sweep loop tests convergence, given its
    residuals: one sweep, then after a residual r the least m with
    r * discount**m <= tolerance, until a chunk holds the first residual within
    `tolerance`."""
    stop = next(k for k, residual in enumerate(residuals, start=1) if residual <= tolerance)
    ends = [1]
    while ends[-1] < stop:
        ratio = tolerance / residuals[ends[-1] - 1]
        ends.append(ends[-1] + max(1, math.ceil(math.log(ratio) / math.log(discount))))
    return ends


def spy_on_bounds(monkeypatch):
    """Record, through transfer's own name for the math module, each contraction
    bound the sweep loop rounds up (a chunk is that, at least 1) and each number
    it takes the log of; returns the two lists."""
    bounds, logs = [], []

    def ceil(x):
        bounds.append(math.ceil(x))
        return bounds[-1]

    def log(x):
        logs.append(x)
        return math.log(x)

    monkeypatch.setattr(irl_lab.transfer, "math", SimpleNamespace(ceil=ceil, log=log))
    return bounds, logs


class TestExpertDemos:
    def test_exact_mode_returns_occupancy(self, tiny_mdp):
        demos, solution = expert_demos(tiny_mdp)
        assert demos.shape == (3, 2, 3) and not demos.flags.writeable
        assert solution.converged
        assert demos.tobytes() == occupancy(tiny_mdp, solution.policy).tobytes()
        npt.assert_allclose(demos.sum(), 1.0, atol=1e-12)

    def test_sampled_mode_returns_rollouts(self, tiny_mdp):
        demos, solution = expert_demos(tiny_mdp, "sampled", n_trajectories=9, seed=4)
        assert isinstance(demos, Rollouts)
        assert demos.states.shape == (9, tiny_mdp.horizon + 1)
        assert demos.actions.shape == (9, tiny_mdp.horizon)
        # the sampler's episodes of the expert policy, drawn the same way
        want = sample_trajectories(tiny_mdp, solution.policy, 9, seed=4)
        assert np.array_equal(demos.states, want.states)
        assert np.array_equal(demos.actions, want.actions)
        again, _ = expert_demos(tiny_mdp, "sampled", n_trajectories=9, seed=4)
        assert np.array_equal(demos.states, again.states)
        with pytest.raises(ValueError, match="at least one trajectory"):
            expert_demos(tiny_mdp, "sampled", n_trajectories=0)

    def test_unknown_mode_rejected(self, tiny_mdp):
        with pytest.raises(ValueError, match="mode"):
            expert_demos(tiny_mdp, "bogus")

    def test_unconverged_expert_solve_warns(self, tiny_mdp, monkeypatch):
        def one_iteration(mdp, **kwargs):
            return soft_value_iteration(mdp, max_iters=1, **kwargs)

        monkeypatch.setattr(irl_lab.transfer, "soft_value_iteration", one_iteration)
        for mode in ("exact_occupancy", "sampled"):
            with pytest.warns(RuntimeWarning) as caught:
                expert_demos(tiny_mdp, mode)
            assert unconverged_warnings(caught) == ["expert solve did not converge in 1 iterations"]

    def test_converged_default_calls_do_not_warn(self, tiny_mdp, bench_mdp):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mdp in (tiny_mdp, bench_mdp):
                expert_demos(mdp)
                expert_demos(mdp, "sampled")


class TestReoptimizeWithCurve:
    def test_reaches_the_soft_optimum_on_the_truth(self, bench_mdp):
        policy, curve = reoptimize_with_curve(bench_mdp, bench_mdp.reward)
        optimal = soft_value_iteration(bench_mdp)
        npt.assert_allclose(policy, optimal.policy, atol=1e-6)
        final_return = curve[-1][1]
        npt.assert_allclose(final_return,
                            evaluate_return(bench_mdp, optimal.policy),
                            atol=1e-6)

    def test_curve_x_axis_counts_sweeps(self, tiny_mdp):
        _, curve = reoptimize_with_curve(tiny_mdp, tiny_mdp.reward)
        xs = [x for x, _ in curve]
        assert xs == list(range(1, len(curve) + 1))

    def test_non_finite_reward_rejected(self, tiny_mdp):
        bad = RewardTable("state_only", np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            reoptimize_with_curve(tiny_mdp, bad)

    @pytest.mark.parametrize("mdp_name", ["bench_mdp", "tiny_mdp", "deterministic"])
    def test_matches_the_per_sweep_loop_exactly(self, request, mdp_name):
        if mdp_name == "deterministic":
            mdp = deterministic_bench(seed=3)
        else:
            mdp = request.getfixturevalue(mdp_name)
        rng = np.random.default_rng(5)
        candidate = RewardTable("state_action", rng.normal(size=(mdp.n_states, mdp.n_actions)))
        # the candidate at temperature 0.5 too, as the candidate scaled by 2
        for reward in (mdp.reward, candidate, at_temperature(candidate, 0.5)):
            policy, curve = reoptimize_with_curve(mdp, reward)
            want_policy, want_curve = loop_curve(mdp, reward)
            assert len(curve) == len(want_curve) > 1
            assert curve == want_curve
            assert all(type(x) is int and type(y) is float for x, y in curve)
            assert np.array_equal(policy, want_policy)

    @pytest.mark.parametrize("max_iters", SWEEP_LIMITS)
    def test_sweep_limit_inside_a_chunk_matches_the_loop(self, bench_mdp, max_iters,
                                                         monkeypatch):
        # the truth takes 180 sweeps on bench_mdp, so every limit here stops the loop
        residuals = sweep_residuals(bench_mdp, bench_mdp.reward, 180)
        assert chunk_ends(residuals, 1e-8, bench_mdp.discount) == [1, 185]
        bounds, _ = spy_on_bounds(monkeypatch)
        with pytest.warns(RuntimeWarning, match=f"did not converge in {max_iters} sweeps"):
            policy, curve = reoptimize_with_curve(bench_mdp, bench_mdp.reward,
                                                  max_iters=max_iters)
        assert bounds == ([] if max_iters == 1 else [184])
        want_policy, want_curve = loop_curve(bench_mdp, bench_mdp.reward, max_iters=max_iters)
        assert len(curve) == max_iters
        assert curve == want_curve
        assert np.array_equal(policy, want_policy)

    def test_tolerance_stop_on_the_first_and_last_sweep_of_a_chunk_matches_the_loop(
            self, bench_mdp, monkeypatch):
        # the truth's residuals shrink faster than the discount at first, so its stop
        # at sweep 2 opens a longer chunk; a constant reward's shrink by the discount
        # exactly, up to rounding, so its stops close their chunks
        constant = RewardTable("state_only", np.ones(16))
        firsts, lasts = [], []
        for reward in (bench_mdp.reward, constant):
            residuals = sweep_residuals(bench_mdp, reward, 40)
            for sweeps in range(2, 41):
                tolerance = residuals[sweeps - 1]
                ends = chunk_ends(residuals, tolerance, bench_mdp.discount)
                if sweeps in ends:
                    lasts.append(sweeps)
                elif sweeps - 1 in ends:
                    firsts.append(sweeps)
                else:
                    continue
                with monkeypatch.context() as patch:
                    bounds, _ = spy_on_bounds(patch)
                    policy, curve = reoptimize_with_curve(bench_mdp, reward, tolerance=tolerance)
                # the loop's chunks end where the model's do
                assert list(accumulate([1] + [max(1, bound) for bound in bounds])) == ends
                want_policy, want_curve = loop_curve(bench_mdp, reward, tolerance=tolerance)
                assert len(curve) == sweeps
                assert curve == want_curve
                assert np.array_equal(policy, want_policy)
        assert firsts == [2] and len(lasts) > 30

    def test_discount_0_takes_no_log_of_0(self, bench_mdp, monkeypatch):
        # sweep 2 repeats sweep 1, after a chunk of one sweep that takes no bound
        mdp = replace(bench_mdp, discount=0.0)
        bounds, logs = spy_on_bounds(monkeypatch)
        with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            policy, curve = reoptimize_with_curve(mdp, mdp.reward)
        assert bounds == logs == []
        want_policy, want_curve = loop_curve(mdp, mdp.reward)
        assert len(curve) == 2
        assert curve == want_curve
        assert np.array_equal(policy, want_policy)

    def test_a_non_finite_residual_doubles_the_chunks(self, bench_mdp, monkeypatch):
        # values that overflow at sweep 2 turn every later residual into NaN, which
        # gives no bound: chunks of 5 (from the first residual), then 10, 20, 32, 32, ...
        mdp = replace(bench_mdp, discount=0.5)
        bounds, _ = spy_on_bounds(monkeypatch)
        huge = RewardTable("state_only", np.full(16, 1.7e308))
        kwargs = {"tolerance": 1e307, "max_iters": 100}
        unconverged = r"did not converge in 100 sweeps \(residual nan\)"
        with pytest.warns(RuntimeWarning, match=unconverged), np.errstate(all="ignore"):
            (sweeps,) = irl_lab.transfer._sweep_policies(mdp, [huge], **kwargs, name_rows=False)
            want = loop_sweeps(mdp, huge, **kwargs)
            with pytest.raises(ValueError) as error:
                reoptimize_with_curve(mdp, huge, **kwargs)
            with pytest.raises(ValueError) as want_error:
                loop_curve(mdp, huge, **kwargs)
        # NaN's sign bit depends on which operation made it, so NaNs match as NaNs
        assert np.array_equal(sweeps, want, equal_nan=True) and len(sweeps) == 100
        assert np.isnan(sweeps[1:]).all()
        assert str(error.value) == str(want_error.value)
        assert bounds == [5, 5]  # the first residual's, in each of the two sweep loops

    def test_long_run_grows_the_buffers_and_matches_the_loop(self, bench_mdp):
        mdp = replace(bench_mdp, discount=0.99)
        policy, curve = reoptimize_with_curve(mdp, mdp.reward)
        want_policy, want_curve = loop_curve(mdp, mdp.reward)
        assert len(curve) > 256
        assert curve == want_curve
        assert np.array_equal(policy, want_policy)

    def test_policy_is_its_own_array(self, tiny_mdp):
        policy, _ = reoptimize_with_curve(tiny_mdp, tiny_mdp.reward)
        assert policy.base is None
        assert policy.shape == (tiny_mdp.n_states, tiny_mdp.n_actions)

    @pytest.mark.parametrize(
        "kwargs, discount",
        [
            pytest.param({"max_iters": 0}, None, id="max_iters=0"),
            pytest.param({"max_iters": -3}, None, id="max_iters=-3"),
            pytest.param({"tolerance": 0.0}, None, id="tolerance=0"),
            pytest.param({"tolerance": -1e-8}, None, id="tolerance=-1e-8"),
            pytest.param({"tolerance": float("nan")}, None, id="tolerance=nan"),
            pytest.param({}, 1.0, id="discount=1"),
            pytest.param({}, 1.5, id="discount=1.5"),
            pytest.param({}, -0.1, id="discount=-0.1"),
            pytest.param({}, float("nan"), id="discount=nan"),
        ],
    )
    def test_arguments_checked_like_the_solver(self, tiny_mdp, kwargs, discount):
        mdp = tiny_mdp if discount is None else replace(tiny_mdp, discount=discount)
        with pytest.raises(ValueError) as solver_error:
            soft_value_iteration(mdp, **kwargs)
        with pytest.raises(ValueError) as curve_error:
            reoptimize_with_curve(mdp, mdp.reward, **kwargs)
        assert str(curve_error.value) == str(solver_error.value)


class TestEvaluateOnNewDynamics:
    def test_reference_return_ordering(self, bench_mdp):
        rng = np.random.default_rng(0)
        candidate = RewardTable("state_only", rng.normal(size=16))
        ev = evaluate_on_new_dynamics(bench_mdp, candidate)
        tol = 1e-6
        assert ev.ground_truth_optimal >= ev.reoptimized_on_learned - tol
        assert ev.ground_truth_optimal >= ev.uniform_random - tol

    def test_reoptimized_return_is_the_curve_endpoint(self, bench_mdp):
        rng = np.random.default_rng(1)
        candidate = RewardTable("state_action", rng.normal(size=(16, 4)))
        ev = evaluate_on_new_dynamics(bench_mdp, candidate)
        assert ev.reoptimized_on_learned == ev.curve[-1][1]
        assert ev.reoptimized_on_learned == evaluate_return(bench_mdp, ev.policy)

    def test_ground_truth_self_consistency(self, bench_mdp):
        ev = evaluate_on_new_dynamics(bench_mdp, bench_mdp.reward)
        assert ev.score >= 0.999

    def test_score_is_the_normalized_score_of_the_returns(self, bench_mdp):
        rng = np.random.default_rng(2)
        ev = evaluate_on_new_dynamics(bench_mdp, RewardTable("state_only", rng.normal(size=16)))
        assert ev.returns == {
            "ground_truth_optimal": ev.ground_truth_optimal,
            "reoptimized_on_learned": ev.reoptimized_on_learned,
            "uniform_random": ev.uniform_random,
        }
        assert ev.score == normalized_score(ev.returns)

    def test_degenerate_span_raises_through_score(self, tiny_mdp):
        # Under a zero ground truth every policy returns 0, so the span is 0.
        flat = random_mdp(tiny_mdp.n_states, tiny_mdp.n_actions,
                          RewardTable("state_only", np.zeros(tiny_mdp.n_states)), seed=4)
        ev = evaluate_on_new_dynamics(flat, tiny_mdp.reward)
        with pytest.raises(ValueError, match="degenerate"):
            ev.score

    @pytest.mark.parametrize("mdp_name", ["bench_mdp", "tiny_mdp", "deterministic"])
    @pytest.mark.parametrize("temperature", [1.0, 0.5])
    def test_folded_scores_equal_their_own_calls(self, request, mdp_name, temperature):
        if mdp_name == "deterministic":
            mdp = deterministic_bench()
        else:
            mdp = request.getfixturevalue(mdp_name)
        rng = np.random.default_rng(6)
        candidate = RewardTable("state_action", rng.normal(size=(mdp.n_states, mdp.n_actions)))
        # both rewards at the temperature, as the rewards scaled by its inverse
        mdp = replace(mdp, reward=at_temperature(mdp.reward, temperature))
        candidate = at_temperature(candidate, temperature)
        ev = evaluate_on_new_dynamics(mdp, candidate)
        optimal = soft_value_iteration(mdp).policy
        assert ev.ground_truth_optimal == evaluate_return(mdp, optimal)
        assert ev.uniform_random == evaluate_return(mdp, uniform_policy(mdp))
        assert all(type(x) is float for x in ev.returns.values())
        want_policy, want_curve = loop_curve(mdp, candidate)
        assert ev.curve == want_curve
        assert np.array_equal(ev.policy, want_policy)
        assert ev.policy.base is None

    def test_converged_default_calls_do_not_warn(self, bench_mdp):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reoptimize_with_curve(bench_mdp, bench_mdp.reward)
            evaluate_on_new_dynamics(bench_mdp, bench_mdp.reward)

    def test_unconverged_sweeps_warn(self, bench_mdp):
        # plain value iteration at discount 0.9999 needs far more than 10,000 sweeps
        mdp = replace(bench_mdp, discount=0.9999)
        with pytest.warns(RuntimeWarning, match=r"did not converge in 10000 sweeps \(residual"):
            ev = evaluate_on_new_dynamics(mdp, mdp.reward)
        assert len(ev.curve) == 10_000

    def test_unconverged_ground_truth_solve_warns(self, bench_mdp, monkeypatch):
        # the ground-truth optimum is a stacked solve, so the cap goes there
        one_iteration_stacks(monkeypatch)
        with pytest.warns(RuntimeWarning) as caught:
            evaluate_on_new_dynamics(bench_mdp, bench_mdp.reward)
        assert unconverged_warnings(caught) == [
            "ground-truth solve did not converge in 1 iterations"]

    def test_degenerate_span_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            normalized_score({"ground_truth_optimal": 1.0,
                              "reoptimized_on_learned": 0.5,
                              "uniform_random": 1.0})

    def test_score_is_affine_in_the_return(self):
        returns = {"ground_truth_optimal": 3.0, "uniform_random": 1.0,
                   "reoptimized_on_learned": 2.0}
        npt.assert_allclose(normalized_score(returns), 0.5)
        returns["reoptimized_on_learned"] = 3.0
        npt.assert_allclose(normalized_score(returns), 1.0)


def one_sweep_and_shaped(mdp):
    """Two candidate rewards on `mdp`: its soft advantage, whose plain value
    iteration stops after one sweep, and a shaped truth, which takes many."""
    adv = RewardTable("state_action", advantage(soft_value_iteration(mdp)))
    phi = PotentialFn(np.random.default_rng(3).normal(size=mdp.n_states))
    return adv, shape_reward(mdp.reward, phi, mdp.discount, n_actions=mdp.n_actions)


def assert_same_eval(row, alone):
    """Two NewDynamicsEvals equal bit for bit: curve, the three returns and policy."""
    assert row.curve == alone.curve
    assert row.returns == alone.returns
    assert row.policy.tobytes() == alone.policy.tobytes()
    assert row.policy.base is None


class TestStackedEvaluation:
    @pytest.mark.parametrize("slower", [False, True])
    def test_rewards_equal_their_own_calls(self, bench_mdp, slower):
        # the one-sweep advantage stops while the shaped reward sweeps on; a test
        # MDP at discount 0.8 stops every row sooner
        mdp = replace(paper_tabular_mdp(1002), discount=0.8) if slower else bench_mdp
        rng = np.random.default_rng(8)
        candidate = RewardTable("state_action", rng.normal(size=(16, 4)))
        rewards = [*one_sweep_and_shaped(mdp), candidate]
        stacked = evaluate_on_new_dynamics(mdp, rewards)
        assert len(stacked) == 3
        assert len(stacked[0].curve) == 1
        assert len(stacked[1].curve) > (50 if slower else 150)
        for row, reward in zip(stacked, rewards):
            assert_same_eval(row, evaluate_on_new_dynamics(mdp, reward))

    def test_one_row_sequence_is_a_list_of_the_one_reward_call(self, tiny_mdp):
        (row,) = evaluate_on_new_dynamics(tiny_mdp, (tiny_mdp.reward,))
        assert_same_eval(row, evaluate_on_new_dynamics(tiny_mdp, tiny_mdp.reward))

    def test_the_test_mdp_is_solved_and_scored_once(self, bench_mdp, monkeypatch):
        solves = record_calls(monkeypatch, irl_lab.transfer, "_solve_stack")
        scorings = record_calls(monkeypatch, irl_lab.transfer, "evaluate_return")
        monkeypatch.setattr(irl_lab.transfer, "soft_value_iteration", unexpected_call)
        stacked = evaluate_on_new_dynamics(bench_mdp, one_sweep_and_shaped(bench_mdp))
        assert [len(args[0]) for args, _ in solves] == [1]
        # every row's sweep policies, then the optimum and the uniform policy
        assert [(args[0], len(args[1])) for args, _ in scorings] == [
            (bench_mdp, sum(len(ev.curve) for ev in stacked) + 2)]

    def test_a_row_at_max_iters_warns_and_names_its_row(self, bench_mdp):
        # plain value iteration at discount 0.9999 needs far more than 10,000 sweeps
        slow = replace(bench_mdp, discount=0.9999)
        adv = one_sweep_and_shaped(slow)[0]
        with pytest.warns(RuntimeWarning) as caught:
            stacked = evaluate_on_new_dynamics(slow, [adv, slow.reward, adv])
        assert unconverged_warnings(caught) == [
            "plain value iteration of row 1 did not converge in 10000 sweeps"]
        assert [len(ev.curve) for ev in stacked] == [1, 10_000, 1]

    def test_an_unconverged_ground_truth_solve_warns_once(self, bench_mdp, monkeypatch):
        one_iteration_stacks(monkeypatch)
        with pytest.warns(RuntimeWarning) as caught:
            evaluate_on_new_dynamics(bench_mdp, [bench_mdp.reward] * 3)
        assert unconverged_warnings(caught) == [
            "ground-truth solve did not converge in 1 iterations"]

    def test_converged_rows_do_not_warn(self, bench_mdp):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate_on_new_dynamics(bench_mdp, one_sweep_and_shaped(bench_mdp))

    def test_an_empty_sequence_is_refused(self, bench_mdp):
        with pytest.raises(ValueError, match="at least one learned reward"):
            evaluate_on_new_dynamics(bench_mdp, [])

    def test_every_row_is_checked(self, bench_mdp):
        bad = RewardTable("state_only", np.full(16, np.inf))
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_on_new_dynamics(bench_mdp, [bench_mdp.reward, bad])


class TestRunRecovery:
    def test_zero_iterations_anchor(self, bench_mdp):
        # no-training control: the error must equal the zero-table baseline
        result = run_recovery(bench_mdp, "airl_state_only",
                              LearnerConfig(iterations=0))
        baseline = centered_reward_error(
            RewardTable("state_only", np.zeros(16)), bench_mdp.reward,
            bench_mdp.transition)
        npt.assert_allclose(result.recovery_error, baseline, atol=1e-12)
        assert len(result.history) == 0

    def test_reported_numbers_are_recomputable(self, tiny_mdp):
        result = run_recovery(tiny_mdp, "airl_state_only",
                              LearnerConfig(iterations=15))
        err = centered_reward_error(result.params.g, tiny_mdp.reward,
                                    tiny_mdp.transition)
        npt.assert_allclose(result.recovery_error, err, atol=1e-12)
        assert result.params.g.kind == "state_only"
        assert np.isfinite(result.f_advantage_error)
        assert len(result.history) == 15

    @pytest.mark.parametrize("variant", ["airl_state_only", "airl_state_action"])
    def test_single_action_mdp_trains_in_exact_mode(self, variant):
        # one action leaves the policy no choice: expert and policy occupancies
        # coincide, so the discriminator sees no signal and g stays at zero
        mdp = random_mdp(4, 1, RewardTable("state_only", np.eye(4)[0]), seed=2, horizon=6)
        result = run_recovery(mdp, variant, LearnerConfig(iterations=5))
        npt.assert_array_equal(result.params.g.values, 0.0)
        assert np.isfinite(result.f_advantage_error)
        npt.assert_array_equal(result.policy, 1.0)

    def test_variant_overrides_config(self, tiny_mdp):
        config = LearnerConfig(variant="airl_state_only", iterations=5)
        result = run_recovery(tiny_mdp, "airl_state_action", config)
        assert result.params.g.kind == "state_action"

    @pytest.mark.parametrize("variant", ["airl_state_only", "airl_state_action"])
    def test_stacked_form_equals_each_one_mdp_call(self, variant):
        # dense paper-tabular seeds and one deterministic MDP in one stack
        mdps = [paper_tabular_mdp(seed) for seed in range(5)] + [deterministic_bench()]
        config = LearnerConfig(iterations=20, disc_step_size=0.2)
        stacked = run_recovery(mdps, variant, config)
        assert len(stacked) == len(mdps)
        for mdp, row in zip(mdps, stacked):
            alone = run_recovery(mdp, variant, config)
            assert row.recovery_error == alone.recovery_error
            assert row.f_advantage_error == alone.f_advantage_error
            assert row.params.g.kind == alone.params.g.kind
            assert row.params.g.values.tobytes() == alone.params.g.values.tobytes()
            assert row.params.h.tobytes() == alone.params.h.tobytes()
            assert row.policy.tobytes() == alone.policy.tobytes()
            for name in alone.history._columns():
                assert (row.history.column(name).tobytes()
                        == alone.history.column(name).tobytes()), name

    @pytest.mark.parametrize("mode", ["exact_occupancy", "sampled"])
    @pytest.mark.parametrize("variants", [("airl_state_only", "airl_state_action"),
                                          ("airl_state_action", "airl_state_only")])
    @pytest.mark.parametrize("stack", ["paper_and_deterministic", "tiny"])
    def test_both_variants_as_one_stack_equal_each_one_variant_call(self, tiny_mdp, stack,
                                                                     variants, mode):
        # the mixed stack ties each state-only g(s) across actions; every row
        # must still equal its own one-variant, one-MDP run, and in sampled
        # mode draw that run's expert episodes and rollouts
        if stack == "tiny":
            mdp, mdps = tiny_mdp, [tiny_mdp]
        else:
            mdps = [paper_tabular_mdp(seed) for seed in range(3)] + [deterministic_bench(1)]
            mdp = mdps
        config = LearnerConfig(mode=mode, iterations=20, disc_step_size=0.2,
                               n_policy_trajectories=16)
        per_variant = run_recovery(mdp, variants, config)
        assert len(per_variant) == len(variants)
        for variant, results in zip(variants, per_variant):
            rows = [results] if stack == "tiny" else results
            assert len(rows) == len(mdps)
            for one_mdp, row in zip(mdps, rows):
                alone = run_recovery(one_mdp, variant, config)
                assert row.params.g.kind == alone.params.g.kind == variant[len("airl_"):]
                assert row.params.g.values.shape == alone.params.g.values.shape
                assert row.params.g.values.tobytes() == alone.params.g.values.tobytes()
                assert row.params.h.tobytes() == alone.params.h.tobytes()
                assert row.policy.tobytes() == alone.policy.tobytes()
                assert row.recovery_error == alone.recovery_error
                assert row.f_advantage_error == alone.f_advantage_error
                for name in alone.history._columns():
                    assert (row.history.column(name).tobytes()
                            == alone.history.column(name).tobytes()), name

    @pytest.mark.parametrize("variants, message", [
        (("airl_state_only", "airl_state_only"), "distinct variants"),
        ((), "distinct variants"),
        (("airl_state_only", "gan_gcl_trajectory"), "airl_\\* variants only"),
    ])
    def test_variant_sequence_must_name_distinct_airl_variants(self, tiny_mdp, variants,
                                                               message):
        with pytest.raises(ValueError, match=message):
            run_recovery(tiny_mdp, variants, LearnerConfig(iterations=1))

    def test_policy_step_warnings_name_the_variant_and_the_mdp(self, monkeypatch):
        # the warning gives the MDP's index in the sequence, not the row's in the stack
        mdps = [paper_tabular_mdp(seed) for seed in range(2)]
        solve = irl_lab.airl._solve_stack
        monkeypatch.setattr(irl_lab.airl, "_solve_stack",
                            lambda *args, **kwargs: solve(*args, max_iters=1, **kwargs))
        with pytest.warns(RuntimeWarning) as caught:
            run_recovery(mdps, ("airl_state_action", "airl_state_only"),
                         LearnerConfig(iterations=2))
        assert [str(w.message).split(" (residual ")[0] for w in caught] == [
            f"policy step of {variant} problem {i} did not converge at iteration {k}"
            for k in range(2) for variant in ("airl_state_only", "airl_state_action")
            for i in range(2)
        ]

    def test_unconverged_expert_solves_warn(self, monkeypatch):
        one_iteration_stacks(monkeypatch)
        mdps = [paper_tabular_mdp(seed) for seed in range(3)]
        with pytest.warns(RuntimeWarning) as caught:
            run_recovery(mdps, "airl_state_only", LearnerConfig(iterations=1))
        assert unconverged_warnings(caught) == [
            f"expert solve of problem {i} did not converge in 1 iterations" for i in range(3)]

    def test_converged_default_calls_do_not_warn(self, tiny_mdp):
        mdps = [paper_tabular_mdp(seed) for seed in range(3)] + [deterministic_bench()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_recovery(mdps, "airl_state_action", LearnerConfig(iterations=2))
            run_recovery(tiny_mdp, "airl_state_only", LearnerConfig(mode="sampled", iterations=2))

    def test_empty_stack_is_rejected(self):
        with pytest.raises(ValueError, match="run_recovery got an empty stack"):
            run_recovery([], "airl_state_only", LearnerConfig(iterations=1))

    @pytest.mark.parametrize("other", [
        paper_tabular_mdp(1, discount=0.8),
        random_mdp(4, 4, RewardTable("state_only", np.eye(4)[0]), seed=2),
    ])
    def test_stack_must_share_its_shape_and_discount(self, other):
        # refused before any expert is solved, by the message airl_train gives
        with pytest.raises(ValueError, match="share state and action counts, discount"):
            run_recovery([paper_tabular_mdp(0), other], "airl_state_only",
                         LearnerConfig(iterations=1))

    def test_deterministic_decomposable_recovery(self, det_recovery):
        # in the regime where the reward/shaping split is identified
        # (deterministic, decomposable dynamics), the state-only learner
        # drives the centered error under the reporting threshold
        _, result = det_recovery
        assert result.recovery_error <= RECOVERY_MAX_ERROR_STATE_ONLY


class TestRunTransfer:
    def test_transfer_to_self_recovers_performance(self, det_recovery):
        # degenerate transfer: re-optimizing the learned g on the training
        # MDP itself must recover near-optimal behaviour
        mdp, result = det_recovery
        ev = evaluate_on_new_dynamics(mdp, result.params.g)
        assert ev.score >= TRANSFER_MIN_MEAN_SCORE_STATE_ONLY

    def test_transfer_to_fresh_dynamics(self, det_recovery):
        # the learned state-only g, moved to an unrelated Dirichlet
        # transition tensor with the same reward, still scores near optimal
        _, result = det_recovery
        r = np.zeros(16)
        r[0] = 1.0
        test_mdp = random_mdp(16, 4, RewardTable("state_only", r), seed=1000)
        ev = evaluate_on_new_dynamics(test_mdp, result.params.g)
        assert ev.score >= TRANSFER_MIN_MEAN_SCORE_STATE_ONLY


class TestDisentanglementProbe:
    def test_truth_agrees_with_itself(self, tiny_mdp):
        probe = disentanglement_probe(tiny_mdp, tiny_mdp.reward, 10, seed=0)
        assert probe.fraction == 1.0
        assert probe.agreements == (True,) * 10

    def test_constant_shift_is_disentangled_exactly(self):
        # the exactly-recovered object (truth plus a constant) induces the
        # same policy under every dynamics, so all 50 draws agree
        mdp = deterministic_bench()
        shifted = RewardTable("state_only", mdp.reward.values + 3.7)
        probe = disentanglement_probe(mdp, shifted, 50, seed=5)
        assert probe.fraction == 1.0

    def test_trained_reward_agrees_on_most_dynamics(self, det_recovery):
        # finite training error can flip knife-edge draws whose true
        # top-two gap is below the residual error scale, so the trained
        # table is held to 0.9 rather than 1.0 (the exact object above
        # carries the literal claim)
        mdp, result = det_recovery
        probe = disentanglement_probe(mdp, result.params.g, 50, seed=5)
        assert probe.fraction >= 0.9

    def test_shaped_counterexample_fails_on_the_adversarial_dynamics(self):
        mdp = counterexample_mdp("original")
        shaped = counterexample_shaped_reward()
        modified = counterexample_mdp("modified")
        probe = disentanglement_probe(
            mdp, shaped, 5, seed=2, extra_dynamics=(modified.transition,),
        )
        assert not probe.agreements[0]
        assert probe.fraction < 1.0

    def test_extra_dynamics_come_first_in_the_verdicts(self, tiny_mdp):
        probe = disentanglement_probe(
            tiny_mdp, tiny_mdp.reward, 3, seed=1,
            extra_dynamics=(tiny_mdp.transition,),
        )
        assert len(probe.agreements) == 4
        assert probe.agreements[0]

    @pytest.mark.parametrize("n_dynamics", [0, -1])
    def test_nothing_to_probe_is_rejected(self, tiny_mdp, n_dynamics):
        # an empty probe has no agreement fraction
        with pytest.raises(ValueError, match="at least one dynamics"):
            disentanglement_probe(tiny_mdp, tiny_mdp.reward, n_dynamics, seed=0)

    @pytest.mark.parametrize("corrupt, problem", [
        pytest.param(lambda t: np.full_like(t, np.nan), "sums to", id="nan"),
        pytest.param(lambda t: 2 * t, "sums to", id="doubled"),
        pytest.param(lambda t: np.where(np.arange(3) == 0, np.inf, t), "sums to", id="inf"),
        pytest.param(lambda t: np.broadcast_to([1.5, -0.5, 0.0], t.shape), "has a negative entry",
                     id="negative"),
    ])
    def test_malformed_extra_dynamics_rejected(self, tiny_mdp, corrupt, problem):
        # such a tensor used to be solved: all-NaN rows ran the solver to
        # its 10,000-iteration cap and then counted as agreeing
        tensors = (tiny_mdp.transition, corrupt(tiny_mdp.transition))
        with pytest.raises(ValueError, match=rf"extra_dynamics\[1\] is not a transition "
                                             rf"tensor: transition row \(s=0, a=0\) {problem}"):
            disentanglement_probe(tiny_mdp, tiny_mdp.reward, 2, seed=0, extra_dynamics=tensors)

    def test_mis_shaped_extra_dynamics_rejected(self, tiny_mdp):
        with pytest.raises(ValueError, match=r"transition tensor must have shape \(3, 2, 3\), "
                                             r"got \(3, 2, 2\)"):
            disentanglement_probe(tiny_mdp, tiny_mdp.reward, 1, seed=0,
                                  extra_dynamics=(tiny_mdp.transition[..., :2],))

    @pytest.mark.parametrize("n_dynamics", [1, 5, 50])
    def test_solved_dynamics_are_the_sequential_draws(self, monkeypatch, n_dynamics):
        # the probe stacks [candidate x dynamics, truth x dynamics]; its draws
        # come from one Dirichlet call and must equal one call per dynamics
        mdp = paper_tabular_mdp(3)
        reward = RewardTable("transition", np.random.default_rng(0).normal(size=(16, 4, 16)))
        extra = [random_deterministic_mdp(16, 4, mdp.reward, j).transition for j in range(2)]
        stacks = []
        solve = irl_lab.transfer._solve_stack
        monkeypatch.setattr(irl_lab.transfer, "_solve_stack",
                            lambda *args, **kwargs: stacks.append(args) or solve(*args, **kwargs))
        for seed in range(3):
            stacks.clear()
            disentanglement_probe(mdp, reward, n_dynamics, seed, extra_dynamics=extra)
            ((transition, r_sa, discount),) = stacks
            rng = np.random.default_rng(seed)
            dynamics = extra + [rng.dirichlet(np.ones(16), size=(16, 4))
                                for _ in range(n_dynamics)]
            assert transition.shape == (2 * len(dynamics), 16, 4, 16)
            assert discount == mdp.discount
            for i, tensor in enumerate(dynamics):
                for row, table in ((i, reward), (i + len(dynamics), mdp.reward)):
                    assert transition[row].tobytes() == tensor.tobytes()
                    want = expected_state_action(table, tensor)
                    assert r_sa[row].tobytes() == want.tobytes()

    def test_negative_count_rejected_next_to_extra_dynamics(self, tiny_mdp):
        with pytest.raises(ValueError):
            disentanglement_probe(tiny_mdp, tiny_mdp.reward, -1, seed=0,
                                  extra_dynamics=(tiny_mdp.transition,))
        probe = disentanglement_probe(tiny_mdp, tiny_mdp.reward, 0, seed=0,
                                      extra_dynamics=(tiny_mdp.transition,))
        assert probe.agreements == (True,)

    def test_unconverged_solves_warn(self, tiny_mdp, monkeypatch):
        one_iteration_stacks(monkeypatch)
        with pytest.warns(RuntimeWarning) as caught:
            disentanglement_probe(tiny_mdp, tiny_mdp.reward, 2, seed=0,
                                  extra_dynamics=(tiny_mdp.transition,))
        assert unconverged_warnings(caught) == [
            f"probe solve of the {reward} on dynamics {k} did not converge in 1 iterations"
            for reward in ("candidate reward", "ground truth") for k in range(3)]

    def test_converged_default_calls_do_not_warn(self, bench_mdp):
        # dense draws and a deterministic tensor, as the probe's callers pass them
        extra = (deterministic_bench().transition,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            disentanglement_probe(bench_mdp, bench_mdp.reward, 8, seed=0, extra_dynamics=extra)


def tied_mdp():
    """Actions 0 and 1 share every transition row and reward; action 2 trails them by 3."""
    rng = np.random.default_rng(3)
    transition = rng.dirichlet(np.ones(5), size=(5, 3))
    transition[:, 1] = transition[:, 0]
    r = rng.normal(size=(5, 3))
    r[:, 1] = r[:, 0]
    r[:, 2] = r[:, 0] - 3.0
    return TabularMdp(5, 3, transition, RewardTable("state_action", r), 0.9, np.full(5, 0.2),
                      horizon=10)


class TestProbeMatchesTheLoop:
    """`disentanglement_probe` against `loop_probe`, its per-dynamics loop."""

    @pytest.mark.parametrize("case", ["truth", "shift", "counterexample", "extra_first"])
    def test_existing_cases(self, tiny_mdp, case):
        if case == "truth":
            args, kwargs = (tiny_mdp, tiny_mdp.reward, 10, 0), {}
        elif case == "shift":
            mdp = deterministic_bench()
            args, kwargs = (mdp, RewardTable("state_only", mdp.reward.values + 3.7), 50, 5), {}
        elif case == "counterexample":
            args = (counterexample_mdp("original"), counterexample_shaped_reward(), 5, 2)
            kwargs = {"extra_dynamics": (counterexample_mdp("modified").transition,)}
        else:
            # at temperature 0.5, as the reward scaled by 2
            mdp = replace(tiny_mdp, reward=at_temperature(tiny_mdp.reward, 0.5))
            args = (mdp, mdp.reward, 3, 1)
            kwargs = {"extra_dynamics": (tiny_mdp.transition,)}
        assert disentanglement_probe(*args, **kwargs) == loop_probe(*args, **kwargs)

    def test_trained_reward(self, det_recovery):
        mdp, result = det_recovery
        probe = disentanglement_probe(mdp, result.params.g, 50, seed=5)
        assert probe == loop_probe(mdp, result.params.g, 50, seed=5)

    @pytest.mark.parametrize("gap, tied", [
        pytest.param(0.0, True, id="exact-tie"),
        # policy gap about 0.49 * reward gap: 4.9e-7, inside the 1e-6 band
        pytest.param(1e-6, True, id="inside-band"),
        # about 1.2e-6, just outside it
        pytest.param(2.5e-6, False, id="outside-band"),
    ])
    def test_tie_band(self, gap, tied):
        # on the tied dynamics the truth's argmax set is {0, 1} in every state;
        # the candidate lowers action 1's reward by `gap`
        mdp = tied_mdp()
        values = mdp.reward.values.copy()
        values[:, 1] -= gap
        candidate = RewardTable("state_action", values)
        kwargs = {"extra_dynamics": (mdp.transition,)}
        probe = disentanglement_probe(mdp, candidate, 6, 4, **kwargs)
        assert probe == loop_probe(mdp, candidate, 6, 4, **kwargs)
        assert probe.agreements[0] is tied


class TestCounterexampleBehaviour:
    def test_shaped_reward_misleads_only_under_modified_dynamics(self):
        # optimizing the shaped table on the modified dynamics picks a
        # different hub action than the truth and lands strictly below the
        # uniform policy's true return; on the original dynamics the
        # maximizing actions coincide
        gamma = 0.9
        original = counterexample_mdp("original", gamma)
        modified = counterexample_mdp("modified", gamma)
        shaped = counterexample_shaped_reward()

        on_orig = soft_value_iteration(original, shaped)
        truth_orig = soft_value_iteration(original)
        assert on_orig.policy[0].argmax() == truth_orig.policy[0].argmax()

        on_mod = soft_value_iteration(modified, shaped)
        truth_mod = soft_value_iteration(modified)
        assert on_mod.policy[0].argmax() != truth_mod.policy[0].argmax()

        shaped_return = evaluate_return(modified, on_mod.policy)
        uniform_return = evaluate_return(modified, uniform_policy(modified))
        assert shaped_return < uniform_return
