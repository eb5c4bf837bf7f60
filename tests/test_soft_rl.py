import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import irl_lab
from irl_lab.mdp import (
    RewardTable,
    TabularMdp,
    expected_state_action,
    paper_tabular_mdp,
    random_deterministic_mdp,
    random_mdp,
)
from irl_lab.soft_rl import (
    Rollouts,
    _occupancies,
    _rollouts,
    _soft_backup,
    _solve_stack,
    _state_visits,
    evaluate_return,
    occupancy,
    sample_trajectories,
    soft_value_iteration,
    uniform_policy,
)

from conftest import (assert_same_solution, at_temperature, record_calls, small_random_mdps,
                      solve_rows)
from oracles import (backward_soft_recursion, enumerate_return, loop_occupancy, loop_return,
                     loop_sample_trajectories, loop_soft_value_iteration)


def two_state_bandit():
    # One state that never moves; closed-form solution is available by hand.
    t = np.zeros((1, 2, 1))
    t[:, :, 0] = 1.0
    reward = RewardTable("state_action", np.array([[1.0, 0.0]]))
    return TabularMdp(1, 2, t, reward, 0.5, np.ones(1), horizon=4)


class TestSoftValueIteration:
    def test_matches_slow_recursion_on_small_mdps(self):
        # Infinite-horizon softmax backup against a plain-Python sweep.
        checked = 0
        for mdp in small_random_mdps():
            fast = soft_value_iteration(mdp)
            q, v, policy = backward_soft_recursion(mdp)
            npt.assert_allclose(fast.q, q, atol=1e-6)
            npt.assert_allclose(fast.v, v, atol=1e-6)
            npt.assert_allclose(fast.policy, policy, atol=1e-6)
            checked += 1
        assert checked == 20

    def test_bandit_closed_form(self):
        # Stationary point of v = w*log(e^{(1+gv)/w} + e^{gv/w}) with w=1,
        # g=0.5 is v = 2*log(e + 1) - something we can just iterate by hand.
        mdp = two_state_bandit()
        sol = soft_value_iteration(mdp)
        v = 0.0
        for _ in range(200):
            v = np.logaddexp(1.0 + 0.5 * v, 0.5 * v)
        npt.assert_allclose(sol.v[0], v, atol=1e-7)
        # preference for the rewarding arm is exp(1) : 1
        npt.assert_allclose(sol.policy[0, 0] / sol.policy[0, 1], np.e, atol=1e-7)

    @pytest.mark.parametrize("horizon", [1, 4])
    def test_one_state_mdp_matches_the_oracles(self, horizon):
        # random_mdp needs two states; TabularMdp accepts one
        mdp = replace(two_state_bandit(), horizon=horizon)
        sol = soft_value_iteration(mdp)
        _, v, policy = backward_soft_recursion(mdp)
        npt.assert_allclose(sol.v, v, atol=1e-6)
        npt.assert_allclose(sol.policy, policy, atol=1e-6)
        npt.assert_allclose(occupancy(mdp, sol.policy), loop_occupancy(mdp, sol.policy),
                            atol=1e-12)
        for include_entropy in (False, True):
            npt.assert_allclose(evaluate_return(mdp, sol.policy, include_entropy=include_entropy),
                                enumerate_return(mdp, sol.policy,
                                                 include_entropy=include_entropy),
                                atol=1e-12)
        if horizon == 1:
            npt.assert_allclose(evaluate_return(mdp, sol.policy), sol.policy[0, 0], atol=1e-15)

    def test_policy_rows_are_distributions(self):
        for mdp in small_random_mdps(seeds=range(5)):
            sol = soft_value_iteration(mdp)
            npt.assert_allclose(sol.policy.sum(axis=1), 1.0, atol=1e-12)
            assert (sol.policy > 0.0).all()

    def test_reward_override_is_used(self, tiny_mdp):
        flat = soft_value_iteration(tiny_mdp, RewardTable("state_only", np.zeros(3)))
        npt.assert_allclose(flat.policy, 0.5, atol=1e-9)
        # zero reward still earns entropy value: v = log(k) / (1 - gamma)
        npt.assert_allclose(
            flat.v, np.log(2.0) / (1.0 - tiny_mdp.discount), atol=1e-7
        )

    def test_v_init_warm_start_converges_immediately(self, tiny_mdp):
        cold = soft_value_iteration(tiny_mdp)
        warm = soft_value_iteration(tiny_mdp, v_init=cold.v)
        assert warm.iterations_used <= 2
        npt.assert_allclose(warm.v, cold.v, atol=1e-7)

    def test_iteration_budget_reported_honestly(self, tiny_mdp):
        # One iteration short of what the full solve needs, whatever that is.
        full = soft_value_iteration(tiny_mdp)
        assert full.converged and full.iterations_used >= 2
        k = full.iterations_used - 1
        sol = soft_value_iteration(tiny_mdp, max_iters=k)
        assert sol.converged is False
        assert sol.iterations_used == k
        assert sol.residual > 1e-8

    def test_invalid_arguments(self, tiny_mdp):
        with pytest.raises(ValueError):
            soft_value_iteration(tiny_mdp, max_iters=0)
        with pytest.raises(ValueError, match="^v_init must have one entry per state$"):
            soft_value_iteration(tiny_mdp, v_init=np.zeros(4))
        with pytest.raises(ValueError, match="reward contains non-finite entries"):
            soft_value_iteration(tiny_mdp, RewardTable("state_only", [0.0, np.nan, 1.0]))

    @pytest.mark.parametrize("discount", [1.0, 1.5, -0.1, float("nan")])
    def test_discount_outside_unit_interval_rejected(self, tiny_mdp, discount):
        # Without a contraction the policy-evaluation system is singular
        # (discount 1) or its solution is no fixed point (discount > 1).
        with pytest.raises(ValueError, match="discount"):
            soft_value_iteration(replace(tiny_mdp, discount=discount))

    @pytest.mark.parametrize("discount", [0.9, 0.99])
    def test_cold_solve_takes_few_iterations(self, discount):
        # Value iteration needs ~180 sweeps at 0.9 and ~1,870 at 0.99.
        for seed in range(5):
            mdp = paper_tabular_mdp(seed, discount=discount)
            sol = soft_value_iteration(mdp)
            assert sol.converged
            assert sol.iterations_used <= 10
            r_sa = expected_state_action(mdp.reward, mdp.transition)
            again = _soft_backup(r_sa + discount * (mdp.transition @ sol.v))
            assert np.max(np.abs(again - sol.v)) <= 1e-8

    def test_matches_slow_recursion_near_discount_one(self):
        for mdp in small_random_mdps():
            mdp = replace(mdp, discount=0.99)
            fast = soft_value_iteration(mdp)
            q, v, policy = backward_soft_recursion(mdp, sweeps=4000)
            npt.assert_allclose(fast.q, q, atol=1e-6)
            npt.assert_allclose(fast.v, v, atol=1e-6)
            npt.assert_allclose(fast.policy, policy, atol=1e-6)

    def test_one_iteration_is_one_backup_from_zero(self, tiny_mdp):
        sol = soft_value_iteration(tiny_mdp, max_iters=1)
        assert not sol.converged
        assert sol.iterations_used == 1
        b0 = _soft_backup(expected_state_action(tiny_mdp.reward, tiny_mdp.transition))
        assert sol.residual == np.max(np.abs(b0))
        npt.assert_array_equal(sol.v, b0)

    @pytest.mark.parametrize("max_iters", [2, 3])
    def test_unconverged_solution_comes_from_the_last_backup(self, bench_mdp, max_iters):
        sol = soft_value_iteration(bench_mdp, max_iters=max_iters)
        assert not sol.converged
        npt.assert_allclose(sol.v, _soft_backup(sol.q), rtol=0, atol=1e-12)
        npt.assert_allclose(sol.policy, np.exp(sol.q - sol.v[:, None]), rtol=0, atol=1e-12)


def stacked_solve_rows():
    """(MDP, reward) rows of one shape and discount: dense and one-successor
    dynamics under their own rewards and under random ones of each arity."""
    rng = np.random.default_rng(5)
    dense = [paper_tabular_mdp(seed) for seed in range(3)]
    one_successor = [random_deterministic_mdp(16, 4, dense[0].reward, seed) for seed in range(2)]
    rewards = [None, RewardTable("state_only", rng.normal(size=16)),
               RewardTable("state_action", 3 * rng.normal(size=(16, 4))),
               RewardTable("transition", rng.normal(size=(16, 4, 16)))]
    return [(mdp, reward) for mdp in dense + one_successor for reward in rewards]


def stuck_solve_rows():
    """(MDP, reward) pairs whose solves reach a byte-level fixed point without converging:
    a reward near 1e292 whose values settle near 1e293, and two that overflow to NaN."""
    mdp = random_mdp(4, 2, RewardTable("state_only", np.eye(4)[0]), seed=3, horizon=8)
    huge = np.full((4, 2), 1e292)
    huge[1, 0] = -3e291
    return {"stuck": (mdp, RewardTable("state_action", huge)),
            **{name: (mdp, RewardTable("state_action", np.full((4, 2), float(name))))
               for name in ("1e308", "1.7e308")}}


class TestStackedSolves:
    """`_solve_stack`: every row stays in the stack and keeps the bits of its own solve."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("temperature", [1.0, 0.3])
    def test_rows_equal_single_calls(self, warm, temperature):
        mdps, rewards = zip(*stacked_solve_rows())
        # temperature 0.3 is the reward scaled by 1 / 0.3: sharper policies
        rewards = [at_temperature(mdp.reward if reward is None else reward, temperature)
                   for mdp, reward in zip(mdps, rewards)]
        v_init = np.random.default_rng(1).normal(size=(len(mdps), 16)) if warm else None
        stack = solve_rows(mdps, rewards, v_init=v_init)
        starts = v_init if warm else [None] * len(mdps)
        kwargs = [{"v_init": v} for v in starts]
        alone = [soft_value_iteration(mdp, reward, **kw)
                 for mdp, reward, kw in zip(mdps, rewards, kwargs)]
        # the rows stop at different iterations, so stopped rows stay in a running stack
        assert len({solution.iterations_used for solution in alone}) > 1
        assert all(solution.converged for solution in alone)
        for i, (mdp, reward, kw) in enumerate(zip(mdps, rewards, kwargs)):
            assert_same_solution(stack.row(i), alone[i])
            assert_same_solution(alone[i], loop_soft_value_iteration(mdp, reward, **kw))

    def test_row_at_max_iters_beside_converged_rows(self):
        # warm starts at their own fixed points converge in one or two
        # iterations; the cold rows run out of iterations at the third
        mdps, rewards = zip(*stacked_solve_rows()[:8])
        fixed = [soft_value_iteration(mdp, reward).v for mdp, reward in zip(mdps, rewards)]
        v_init = np.array([v if i % 2 else np.zeros(16) for i, v in enumerate(fixed)])
        stack = solve_rows(mdps, rewards, max_iters=3, v_init=v_init)
        alone = [soft_value_iteration(mdp, reward, max_iters=3, v_init=v)
                 for mdp, reward, v in zip(mdps, rewards, v_init)]
        assert [solution.converged for solution in alone] == [False, True] * 4
        assert [solution.iterations_used for solution in alone[::2]] == [3] * 4
        for i, solution in enumerate(alone):
            assert_same_solution(stack.row(i), solution)

    @pytest.mark.parametrize("name, backups", [("stuck", 6), ("1e308", 4), ("1.7e308", 4)])
    def test_solve_at_a_fixed_point_ends_with_the_outcome_of_max_iters(self, monkeypatch,
                                                                        name, backups):
        # a step that leaves the values unchanged byte for byte, with huge or NaN
        # values, would repeat in every later iteration: the loop ends there
        mdp, reward = stuck_solve_rows()[name]
        calls = record_calls(monkeypatch, irl_lab.soft_rl, "_soft_backup")
        with np.errstate(all="ignore"):
            solution = soft_value_iteration(mdp, reward, max_iters=300)
            oracle = loop_soft_value_iteration(mdp, reward, max_iters=300)
        assert len(calls) == backups
        assert solution.iterations_used == 300 and not solution.converged
        assert_same_solution(solution, oracle)

    def test_rows_at_a_fixed_point_beside_converging_rows(self):
        rows = list(stuck_solve_rows().values())
        for seed in range(4, 7):
            mdp = random_mdp(4, 2, RewardTable("state_only", np.eye(4)[seed % 4]), seed=seed,
                             horizon=8)
            normal = np.random.default_rng(seed).normal(size=(4, 2))
            rows += [(mdp, None), (mdp, RewardTable("state_action", normal))]
        mdps, rewards = zip(*rows)
        # converged rows stay in the stack while the others run to their fixed points
        with np.errstate(all="ignore"):
            stack = solve_rows(mdps, rewards, max_iters=300)
            alone = [soft_value_iteration(mdp, reward, max_iters=300)
                     for mdp, reward in zip(mdps, rewards)]
        assert [solution.converged for solution in alone] == [False] * 3 + [True] * 6
        for i, solution in enumerate(alone):
            assert_same_solution(stack.row(i), solution)

    def test_stack_of_one_equals_the_call(self, bench_mdp):
        stack = solve_rows([bench_mdp], [None])
        assert stack.policy.shape == (1, 16, 4)
        assert_same_solution(stack.row(0), soft_value_iteration(bench_mdp))

    def test_bad_stacks_rejected(self, bench_mdp):
        # the entry checks the whole stack once, with soft_value_iteration's messages
        transition = np.stack([bench_mdp.transition] * 2)
        r_sa = np.stack([expected_state_action(bench_mdp.reward, bench_mdp.transition)] * 2)
        for discount in (1.0, -0.1, np.nan):
            with pytest.raises(ValueError, match=r"discount must lie in \[0, 1\)"):
                _solve_stack(transition, r_sa, discount)
        for bad in (np.inf, -np.inf, np.nan):
            r_bad = r_sa.copy()
            r_bad[1, 3, 2] = bad
            with pytest.raises(ValueError, match="reward contains non-finite entries"):
                _solve_stack(transition, r_bad, 0.9)
        for v_init in (np.zeros(16), np.zeros((1, 16)), np.zeros((2, 15))):
            with pytest.raises(ValueError,
                               match="v_init must have one row per solve and one entry per state"):
                _solve_stack(transition, r_sa, 0.9, v_init=v_init)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            _solve_stack(transition, r_sa, 0.9, tolerance=0.0)
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            _solve_stack(transition, r_sa, 0.9, max_iters=0)


class TestSoftBackup:
    @pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
    def test_matches_scipy_logsumexp(self, temperature):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(3)
        tables = [
            rng.normal(size=(16, 4)),
            rng.normal(scale=1e3, size=(16, 4)),
            1e3 + rng.normal(size=(16, 4)),
            -1e3 + rng.normal(size=(16, 4)),
            np.full((5, 4), 0.7),  # every action tied
            np.repeat(rng.normal(size=(8, 1)), 3, axis=1),  # tied maxima
            np.array([[2.0, 2.0, -1.0], [0.0, 0.0, 0.0], [-1e3, 1e3, 1e3]]),
            rng.normal(size=(6, 1)),  # a single action
        ]
        for q in tables:
            # the backup at temperature w is w times the unit one of q / w
            q = q / temperature
            npt.assert_allclose(_soft_backup(q), special.logsumexp(q, axis=1),
                                rtol=1e-14, atol=1e-14)


def test_importing_the_package_loads_no_scipy():
    # Importing the package must not pull in scipy (a start-up cost of
    # hundreds of milliseconds); scipy is only a test-time oracle.
    src_dir = str(Path(irl_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    code = ("import sys, irl_lab, irl_lab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

class TestOccupancy:
    def test_matches_loop_oracle(self):
        for mdp in small_random_mdps(seeds=range(8)):
            sol = soft_value_iteration(mdp)
            fast = occupancy(mdp, sol.policy)
            slow = loop_occupancy(mdp, sol.policy)
            npt.assert_allclose(fast, slow, atol=1e-10)

    def test_stacked_rows_equal_single_calls(self):
        # one recursion over a stack of MDPs sharing horizon and discount
        mdps = [paper_tabular_mdp(seed) for seed in range(4)]
        mdps.append(random_deterministic_mdp(16, 4, mdps[0].reward, 7))
        rng = np.random.default_rng(3)
        policies = rng.dirichlet(np.ones(4), size=(len(mdps), 16))
        transition = np.stack([mdp.transition for mdp in mdps])
        visits = _state_visits(transition, np.stack([mdp.initial_dist for mdp in mdps]), 0.9, 20,
                               policies)
        rho = _occupancies(visits, policies, transition)
        assert rho.shape == (5, 16, 4, 16)
        for mdp, policy, row in zip(mdps, policies, rho):
            assert row.tobytes() == occupancy(mdp, policy).tobytes()

    def test_normalized_and_nonnegative(self, bench_mdp):
        rho = occupancy(bench_mdp, uniform_policy(bench_mdp))
        assert rho.shape == (16, 4, 16)
        npt.assert_allclose(rho.sum(), 1.0, atol=1e-12)
        assert (rho >= 0.0).all()

    def test_is_a_read_only_array(self, bench_mdp):
        rho = occupancy(bench_mdp, soft_value_iteration(bench_mdp).policy)
        assert type(rho) is np.ndarray and not rho.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rho[0, 0, 0] = 1.0

    def test_transition_factor(self, tiny_mdp):
        # rho(s,a,s') must factor as rho(s,a) * T(s'|s,a)
        policy = uniform_policy(tiny_mdp)
        occ = occupancy(tiny_mdp, policy)
        rebuilt = occ.sum(axis=2)[:, :, None] * tiny_mdp.transition
        npt.assert_allclose(occ, rebuilt, atol=1e-14)

    def test_absorbing_start_concentrates_mass(self):
        t = np.zeros((2, 1, 2))
        t[0, 0, 0] = 1.0
        t[1, 0, 1] = 1.0
        mdp = TabularMdp(2, 1, t, RewardTable("state_only", np.zeros(2)), 0.9,
                         np.array([1.0, 0.0]), horizon=5)
        rho = occupancy(mdp, uniform_policy(mdp))
        npt.assert_allclose(rho[0, 0, 0], 1.0, atol=1e-12)
        npt.assert_allclose(rho[1], 0.0, atol=1e-15)

    def test_bad_policy_rejected(self, tiny_mdp):
        policy = uniform_policy(tiny_mdp)
        with pytest.raises(ValueError):
            occupancy(tiny_mdp, policy[:2])
        broken = policy.copy()
        broken[0, 0] += 0.2
        with pytest.raises(ValueError):
            occupancy(tiny_mdp, broken)


class TestEvaluateReturn:
    def test_matches_path_enumeration(self):
        for mdp in small_random_mdps(seeds=range(6), n_states_max=3,
                                     n_actions_max=2, horizon=4):
            sol = soft_value_iteration(mdp)
            for include_entropy in (False, True):
                fast = evaluate_return(mdp, sol.policy,
                                       include_entropy=include_entropy)
                slow = enumerate_return(mdp, sol.policy,
                                        include_entropy=include_entropy)
                npt.assert_allclose(fast, slow, atol=1e-10)

    def test_reward_override(self, tiny_mdp):
        policy = uniform_policy(tiny_mdp)
        zero = evaluate_return(tiny_mdp, policy,
                               RewardTable("state_only", np.zeros(3)))
        npt.assert_allclose(zero, 0.0, atol=1e-12)

    def test_uniform_policy_entropy_bonus_is_log_k(self, tiny_mdp):
        policy = uniform_policy(tiny_mdp)
        plain = evaluate_return(tiny_mdp, policy)
        bonus = evaluate_return(tiny_mdp, policy, include_entropy=True)
        horizon_mass = sum(tiny_mdp.discount**t for t in range(tiny_mdp.horizon))
        npt.assert_allclose(bonus - plain, np.log(2.0) * horizon_mass, atol=1e-10)

    def test_entropy_bonus_treats_zero_probability_as_zero(self, tiny_mdp):
        policy = np.array([[1.0, 0.0], [0.25, 0.75], [0.0, 1.0]])
        per_state = np.array([0.0, -(0.25 * np.log(0.25) + 0.75 * np.log(0.75)), 0.0])
        weighted = RewardTable("state_only", per_state)
        plain = evaluate_return(tiny_mdp, policy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bonus = evaluate_return(tiny_mdp, policy, include_entropy=True)
        npt.assert_allclose(bonus - plain, evaluate_return(tiny_mdp, policy, weighted),
                            rtol=1e-12, atol=1e-15)

    def test_stack_rows_equal_single_calls_and_the_loop(self, bench_mdp):
        rng = np.random.default_rng(2)
        stack = rng.dirichlet(np.ones(4), size=(5, 16))
        stack[0] = uniform_policy(bench_mdp)
        stack[1] = np.eye(4)[rng.integers(0, 4, size=16)]
        stack[2] = soft_value_iteration(bench_mdp).policy
        # temperature 0.7: the reward scaled by 1 / 0.7 against a unit entropy bonus
        mdp = replace(bench_mdp, reward=at_temperature(bench_mdp.reward, 0.7))
        for include_entropy in (False, True):
            got = evaluate_return(mdp, stack, include_entropy=include_entropy)
            assert got.shape == (5,)
            for k in range(5):
                one = evaluate_return(mdp, stack[k], include_entropy=include_entropy)
                assert type(one) is float
                assert got[k] == one
                assert one == loop_return(mdp, stack[k], include_entropy=include_entropy)

    def test_stack_shapes_checked(self, tiny_mdp):
        policy = uniform_policy(tiny_mdp)
        with pytest.raises(ValueError, match="shape"):
            evaluate_return(tiny_mdp, np.stack([[policy]]))
        with pytest.raises(ValueError, match="shape"):
            evaluate_return(tiny_mdp, np.stack([policy[:2]]))
        broken = np.stack([policy, policy])
        broken[1, 0, 0] += 0.2
        with pytest.raises(ValueError, match="distributions"):
            evaluate_return(tiny_mdp, broken)
        # only the return evaluation takes a stack
        with pytest.raises(ValueError, match="shape"):
            occupancy(tiny_mdp, np.stack([policy]))
        with pytest.raises(ValueError, match="shape"):
            sample_trajectories(tiny_mdp, np.stack([policy]), 2, seed=0)

    @pytest.mark.parametrize("call", [
        evaluate_return,
        lambda mdp, policy: evaluate_return(mdp, policy[None]),
        occupancy,
        lambda mdp, policy: sample_trajectories(mdp, policy, 2, seed=0),
    ], ids=["return", "stacked_return", "occupancy", "sampling"])
    def test_a_nan_policy_row_is_rejected(self, call):
        # a NaN row sum is not above the tolerance either, so the check must reject it
        mdp = paper_tabular_mdp(0)
        policy = uniform_policy(mdp)
        policy[3] = np.nan
        with pytest.raises(ValueError, match="distributions"):
            call(mdp, policy)

    @pytest.mark.parametrize("stack", [1, 200])
    @pytest.mark.parametrize("flaw", ["nan", "negative", "sums_above_1"])
    def test_a_flawed_row_of_a_stack_is_rejected(self, stack, flaw):
        # one flawed state row in the last policy of the stack, every other row uniform
        mdp = paper_tabular_mdp(0)
        policies = np.repeat(uniform_policy(mdp)[None], stack, axis=0)
        row = policies[-1, 5]
        if flaw == "nan":
            row[2] = np.nan
        elif flaw == "negative":
            row[:] = [0.5, 0.5, 0.25, -0.25]
        else:
            row[0] += 2e-8
        with pytest.raises(ValueError, match="probability distributions"):
            evaluate_return(mdp, policies)

    def test_agrees_with_occupancy_contraction(self, bench_mdp):
        # undiscounted-normalization detail: evaluate_return discounts by
        # gamma^t while rho is renormalized, so rescale by the horizon mass
        sol = soft_value_iteration(bench_mdp)
        occ = occupancy(bench_mdp, sol.policy)
        r_sa = bench_mdp.reward.values[:, None] * np.ones((1, 4))
        mass = sum(bench_mdp.discount**t for t in range(bench_mdp.horizon))
        via_rho = mass * np.sum(occ.sum(axis=2) * r_sa)
        direct = evaluate_return(bench_mdp, sol.policy)
        npt.assert_allclose(via_rho, direct, atol=1e-8)


class TestSampling:
    def test_shapes_and_support(self, bench_mdp):
        rollouts = sample_trajectories(bench_mdp, uniform_policy(bench_mdp), 7, seed=0)
        assert isinstance(rollouts, Rollouts)
        assert rollouts.states.shape == (7, bench_mdp.horizon + 1)
        assert rollouts.actions.shape == (7, bench_mdp.horizon)
        assert (rollouts.states[:, 0] == 1).all()  # fixed start state of the benchmark family
        for states, actions in zip(rollouts.states, rollouts.actions):
            for t in range(bench_mdp.horizon):
                s, a, sp = states[t], actions[t], states[t + 1]
                assert bench_mdp.transition[s, a, sp] > 0.0

    def test_seed_determinism(self, bench_mdp):
        policy = uniform_policy(bench_mdp)
        a = sample_trajectories(bench_mdp, policy, 5, seed=3)
        b = sample_trajectories(bench_mdp, policy, 5, seed=3)
        c = sample_trajectories(bench_mdp, policy, 5, seed=4)
        assert np.array_equal(a.states, b.states) and np.array_equal(a.actions, b.actions)
        assert not np.array_equal(a.states, c.states)

    def test_deterministic_mdp_and_policy_give_one_path(self):
        t = np.zeros((3, 2, 3))
        t[0, 0, 1] = t[0, 1, 2] = 1.0
        t[1, :, 0] = t[2, :, 0] = 1.0
        mdp = TabularMdp(3, 2, t, RewardTable("state_only", np.zeros(3)), 0.9,
                         np.array([1.0, 0.0, 0.0]), horizon=6)
        policy = np.zeros((3, 2))
        policy[:, 0] = 1.0
        rollouts = sample_trajectories(mdp, policy, 4, seed=9)
        npt.assert_array_equal(rollouts.states, [[0, 1, 0, 1, 0, 1, 0]] * 4)
        npt.assert_array_equal(rollouts.actions, 0)

    def test_sampler_needs_an_episode(self, tiny_mdp):
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least one trajectory"):
                sample_trajectories(tiny_mdp, uniform_policy(tiny_mdp), n, seed=0)

    def test_empirical_frequencies_track_occupancy(self, tiny_mdp):
        # long-run check that sampling follows the analytic distribution
        sol = soft_value_iteration(tiny_mdp)
        rollouts = sample_trajectories(tiny_mdp, sol.policy, 4000, seed=1)
        counts = np.zeros((3, 2, 3))
        weights = tiny_mdp.discount ** np.arange(tiny_mdp.horizon)
        for states, actions in zip(rollouts.states, rollouts.actions):
            for t, a in enumerate(actions):
                counts[states[t], a, states[t + 1]] += weights[t]
        counts /= counts.sum()
        rho = occupancy(tiny_mdp, sol.policy)
        assert np.max(np.abs(counts - rho)) < 0.02


class TestRollouts:
    def test_arrays_are_int_copies_and_read_only(self):
        states = np.array([[0.0, 1.0, 2.0]])
        rollouts = Rollouts(states, np.array([[1, 0]], dtype=np.int32))
        assert rollouts.states.dtype == rollouts.actions.dtype == np.int64
        npt.assert_array_equal(rollouts.states, [[0, 1, 2]])
        states[0, 0] = 2.0
        assert rollouts.states[0, 0] == 0 and states.flags.writeable
        for array in (rollouts.states, rollouts.actions):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    @pytest.mark.parametrize("states, actions", [
        (np.zeros((2, 3)), np.zeros((2, 3))),        # no final state
        (np.zeros((2, 3)), np.zeros((3, 2))),        # more action rows than state rows
        (np.zeros(3), np.zeros(2)),                  # one episode, not a row of them
        (np.zeros((1, 2, 3)), np.zeros((1, 2, 2))),  # a stack of rollouts
        (np.zeros((0, 3)), np.zeros((0, 2))),        # n = 0
        (np.zeros((2, 1)), np.zeros((2, 0))),        # H = 0
    ])
    def test_shapes_checked(self, states, actions):
        with pytest.raises(ValueError, match=r"states \(n, H \+ 1\) and actions \(n, H\)"):
            Rollouts(states, actions)


class _Draws:
    """Generator stand-in whose `random` hands out chosen uniforms in stream order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.taken = 0

    def random(self, size):
        count = int(np.prod(size))
        out = self.values[self.taken:self.taken + count].reshape(size)
        self.taken += count
        return out


def _lookup_mdp(initial, policy_row, transition_row, horizon=1):
    """An MDP whose every policy and transition row is the given one."""
    n_states, n_actions = len(initial), len(policy_row)
    transition = np.tile(transition_row, (n_states, n_actions, 1))
    mdp = TabularMdp(n_states, n_actions, transition,
                     RewardTable("state_only", np.zeros(n_states)), 0.9,
                     np.array(initial, dtype=float), horizon)
    return mdp, np.tile(policy_row, (n_states, 1))


TOP_DRAW = np.nextafter(1.0, 0.0)  # the largest uniform `random` returns

# (MDP, policy, draws in stream order, the states and actions they must give).
# A stream is the n start draws, then per step n action and n successor draws.
LOOKUP_CASES = {
    # a draw equal to a CDF entry takes the next index: an entry must lie above the draw
    "draw-on-an-entry": (*_lookup_mdp([0.25] * 4, [0.5, 0.5], [0.25] * 4),
                         [0.25, 0.5, 0.75, 0.5, 0.75, 0.25, 0.25, 0.5, 0.75],
                         [[1, 1], [2, 2], [3, 3]], [[1], [1], [0]]),
    # 0.0 is not above a leading zero entry, so it passes the zeros as the
    # smallest positive draw does: no draw takes a zero-probability index
    "zero-draw-on-leading-zeros": (*_lookup_mdp([0.0, 0.0, 1.0], [0.0, 0.5, 0.5],
                                                [0.0, 0.0, 1.0]),
                                   [0.0, 5e-324, 0.0, 5e-324, 0.0, 5e-324],
                                   [[2, 2], [2, 2]], [[1], [1]]),
    # ten 0.1 entries sum to TOP_DRAW; a draw at the ninth entry passes it to the last
    "ten-tenths": (*_lookup_mdp([1.0], [0.1] * 10, [1.0]),
                   [0.5, 0.5, 0.5, TOP_DRAW, np.cumsum([0.1] * 10)[8], 0.9, 0.0, 0.5, TOP_DRAW],
                   [[0, 0]] * 3, [[9], [9], [9]]),
    # seven sevenths sum below TOP_DRAW: a draw above the total, or at the
    # sixth entry, takes the last index
    "draw-above-the-total": (*_lookup_mdp([1 / 7] * 7, [1.0], [1 / 7] * 7),
                             [TOP_DRAW, np.cumsum([1 / 7] * 7)[5], 0.0, 0.3, TOP_DRAW, 0.5],
                             [[6, 6], [6, 3]], [[0], [0]]),
    "one-state-one-action": (*_lookup_mdp([1.0], [1.0], [1.0], horizon=3),
                             [0.0, TOP_DRAW, 0.5, 0.25, 0.75, 0.1, 0.9],
                             [[0, 0, 0, 0]], [[0, 0, 0]]),
}


@pytest.mark.parametrize("case", list(LOOKUP_CASES))
def test_lookup_boundaries_match_the_per_step_loop(case, monkeypatch):
    mdp, policy, draws, want_states, want_actions = LOOKUP_CASES[case]
    n = len(want_states)
    assert len(draws) == (2 * mdp.horizon + 1) * n
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _Draws(draws))
    states, actions = _rollouts(mdp, policy, n, seed=0)
    loop_states, loop_actions = loop_sample_trajectories(mdp, policy, n, seed=0)
    npt.assert_array_equal(states, loop_states)
    npt.assert_array_equal(actions, loop_actions)
    npt.assert_array_equal(states, want_states)
    npt.assert_array_equal(actions, want_actions)
