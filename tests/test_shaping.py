import warnings

import numpy as np
import numpy.testing as npt
import pytest

from irl_lab.mdp import (
    RewardTable,
    counterexample_mdp,
    decomposability_check,
    one_step_reach,
    random_deterministic_mdp,
    random_mdp,
)
from irl_lab.shaping import (
    PotentialFn,
    advantage,
    centered_reward_error,
    centered_sup_distance,
    decompose_sum,
    shape_reward,
)
from irl_lab.soft_rl import soft_value_iteration

from conftest import small_random_mdps
from oracles import dense_shape_reward


def random_pair(seed):
    """One (mdp, potential) pair drawn from a small family."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, 4))
    reward = RewardTable("state_only", rng.normal(size=n))
    mdp = random_mdp(n, k, reward, seed=seed + 10_000, horizon=8)
    phi = PotentialFn(rng.normal(scale=2.0, size=n))
    return mdp, phi


class TestShapeReward:
    def test_explicit_transition_values(self):
        reward = RewardTable("state_only", np.array([1.0, 0.0]))
        phi = PotentialFn(np.array([0.5, -1.0]))
        shaped = shape_reward(reward, phi, 0.9, n_actions=1)
        assert shaped.kind == "transition"
        # r(s) + 0.9*phi(s') - phi(s), spelled out entry by entry
        npt.assert_allclose(shaped.values[0, 0, 0], 1.0 + 0.45 - 0.5)
        npt.assert_allclose(shaped.values[0, 0, 1], 1.0 - 0.9 - 0.5)
        npt.assert_allclose(shaped.values[1, 0, 0], 0.0 + 0.45 + 1.0)
        npt.assert_allclose(shaped.values[1, 0, 1], 0.0 - 0.9 + 1.0)

    def test_state_only_requires_action_count(self):
        reward = RewardTable("state_only", np.zeros(2))
        with pytest.raises(ValueError, match="n_actions"):
            shape_reward(reward, PotentialFn(np.zeros(2)), 0.9)

    def test_higher_arity_inputs_broadcast(self):
        rng = np.random.default_rng(0)
        phi = PotentialFn(rng.normal(size=3))
        base = rng.normal(size=(3, 2, 3))
        shaped = shape_reward(RewardTable("transition", base), phi, 0.7)
        manual = base + 0.7 * phi.phi[None, None, :] - phi.phi[:, None, None]
        npt.assert_allclose(shaped.values, manual, atol=1e-15)

    def test_equals_the_dense_transition_path(self):
        # the cells broadcast gives the bits of shaping a dense (s, a, s') copy
        rng = np.random.default_rng(5)
        for kind, shape in (("state_only", (4,)), ("state_action", (4, 3)),
                            ("transition", (4, 3, 4))):
            reward = RewardTable(kind, rng.normal(size=shape))
            assert reward.cells.shape == shape + (1,) * (3 - len(shape))
            assert not reward.cells.flags.writeable
            phi = rng.normal(scale=3.0, size=4)
            shaped = shape_reward(reward, PotentialFn(phi), 0.9, n_actions=3)
            assert shaped.values.shape == (4, 3, 4)
            assert np.array_equal(shaped.values, dense_shape_reward(reward, phi, 0.9, 3))
            with pytest.raises(ValueError, match="does not match n_states"):
                shape_reward(reward, PotentialFn(np.zeros(5)), 0.9, n_actions=3)

    def test_zero_potential_is_identity(self, tiny_mdp):
        shaped = shape_reward(tiny_mdp.reward, PotentialFn(np.zeros(3)), 0.9,
                              n_actions=2)
        npt.assert_allclose(shaped.values,
                            tiny_mdp.reward.values[:, None, None] * np.ones((3, 2, 3)),
                            atol=1e-15)

    def test_potential_validation(self):
        with pytest.raises(ValueError):
            PotentialFn(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            PotentialFn(np.array([0.0, np.inf]))


class TestPolicyInvariance:
    def test_invariance_on_100_random_pairs(self):
        # shaping by any potential must leave the soft-optimal policy intact,
        # shifting Q by -phi(s) plus one global constant
        checked = 0
        for seed in range(100):
            mdp, phi = random_pair(seed)
            base = soft_value_iteration(mdp)
            shaped_reward = shape_reward(mdp.reward, phi, mdp.discount,
                                         n_actions=mdp.n_actions)
            shaped = soft_value_iteration(mdp, shaped_reward)
            npt.assert_allclose(shaped.policy, base.policy, atol=1e-6)
            shift = shaped.q - (base.q - phi.phi[:, None])
            assert np.ptp(shift) <= 1e-6
            checked += 1
        assert checked == 100

    def test_value_shift_matches_q_shift(self):
        mdp, phi = random_pair(424)
        base = soft_value_iteration(mdp)
        shaped = soft_value_iteration(
            mdp, shape_reward(mdp.reward, phi, mdp.discount,
                              n_actions=mdp.n_actions))
        npt.assert_allclose(shaped.v - (base.v - phi.phi),
                            (shaped.q - (base.q - phi.phi[:, None])).mean(),
                            atol=1e-6)

    def test_wrong_discount_breaks_invariance(self):
        # shaping with a mismatched discount is NOT potential-based for this
        # MDP, so the policy should move; guards against a vacuous invariance
        mdp, phi = random_pair(7)
        shaped = soft_value_iteration(
            mdp, shape_reward(mdp.reward, phi, 0.0, n_actions=mdp.n_actions))
        base = soft_value_iteration(mdp)
        assert np.max(np.abs(shaped.policy - base.policy)) > 1e-3


class TestAdvantage:
    def test_advantage_is_log_policy(self):
        for mdp in small_random_mdps(seeds=range(6)):
            sol = soft_value_iteration(mdp)
            npt.assert_allclose(advantage(sol), np.log(sol.policy), atol=1e-7)


class TestCenteredComparisons:
    def test_constant_shift_is_invisible(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 2))
        assert centered_sup_distance(a, a + 17.3) <= 1e-12
        assert centered_sup_distance(a, a * 2.0) > 0.1

    def test_tables_near_the_float_limit_compare_finitely(self):
        # the plain means overflow; both tables are rescaled by an exact power
        # of two, silently, and a distance past the float range stays inf
        a = np.array([1.5e308, 1.5e308, 1.0, -2.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            near = centered_sup_distance(a, np.zeros(4))
            beyond = centered_sup_distance([1.7e308, -1.7e308], [-1.7e308, 1.7e308])
            non_finite = centered_sup_distance([np.inf, 0.0], [0.0, 0.0])
        assert not caught, [str(w.message) for w in caught]
        scaled = a / 2.0**64
        assert near == float(np.max(np.abs(scaled - scaled.mean()))) * 2.0**64
        npt.assert_allclose(near, 7.5e307, rtol=1e-15)
        assert beyond == np.inf
        assert not np.isfinite(non_finite)

    def test_ordinary_tables_keep_the_plain_bits(self):
        rng = np.random.default_rng(4)
        for scale in (1e-300, 1.0, 1e300):
            a, b = scale * rng.normal(size=(2, 16, 4))
            want = float(np.max(np.abs((a - a.mean()) - (b - b.mean()))))
            assert centered_sup_distance(a, b) == want

    def test_reward_error_compares_across_kinds(self, tiny_mdp):
        # a transition table that's really state_only-plus-constant must be
        # judged equal to the underlying state_only table
        base = tiny_mdp.reward.values
        table = base[:, None, None] + np.zeros((3, 2, 3)) + 5.0
        err = centered_reward_error(RewardTable("transition", table),
                                    tiny_mdp.reward, tiny_mdp.transition)
        assert err <= 1e-12
        table2 = table.copy()
        table2[0] += 1.0
        err2 = centered_reward_error(RewardTable("transition", table2),
                                     tiny_mdp.reward, tiny_mdp.transition)
        assert err2 > 0.5


class TestDecomposeSum:
    def test_round_trip_on_decomposable_supports(self):
        feasible_checked = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            mdp = random_deterministic_mdp(
                n, int(rng.integers(1, 4)),
                RewardTable("state_only", np.zeros(n)), seed=seed)
            if not decomposability_check(mdp).is_decomposable:
                continue
            support = one_step_reach(mdp)
            f = rng.normal(size=n)
            g = rng.normal(size=n)
            table = f[:, None] + g[None, :]
            out = decompose_sum(table, support)
            assert out.feasible, out.reason
            # gauge: f[0] pinned to zero, the constant moves into g
            npt.assert_allclose(out.f, f - f[0], atol=1e-8)
            npt.assert_allclose(out.g, g + f[0], atol=1e-8)
            feasible_checked += 1
        assert feasible_checked >= 8

    def test_full_support_exact(self):
        rng = np.random.default_rng(99)
        f, g = rng.normal(size=5), rng.normal(size=5)
        out = decompose_sum(f[:, None] + g[None, :], np.ones((5, 5), dtype=bool))
        assert out.feasible
        npt.assert_allclose(out.f[:, None] + out.g[None, :],
                            f[:, None] + g[None, :], atol=1e-10)
        assert out.f[0] == 0.0

    def test_counterexample_support_is_disconnected(self):
        mdp = counterexample_mdp("original")
        support = one_step_reach(mdp)
        rng = np.random.default_rng(0)
        f, g = rng.normal(size=3), rng.normal(size=3)
        out = decompose_sum(f[:, None] + g[None, :], support)
        assert not out.feasible
        assert "disconnected" in out.reason
        assert out.f is None and out.g is None

    def test_inconsistent_table_reports_residual(self):
        rng = np.random.default_rng(1)
        f, g = rng.normal(size=4), rng.normal(size=4)
        table = f[:, None] + g[None, :]
        table[2, 3] += 0.5
        out = decompose_sum(table, np.ones((4, 4), dtype=bool))
        assert not out.feasible
        assert "not a sum" in out.reason

    def test_non_finite_entries_on_the_support_are_infeasible(self):
        # each returns at once, names its residual and warns nothing: a NaN
        # entry must not read as "not yet reached" or pass the tolerance test
        full = np.ones((3, 3), dtype=bool)
        rng = np.random.default_rng(6)
        table = rng.normal(size=3)[:, None] + rng.normal(size=3)[None, :]
        one_nan, one_inf = table.copy(), table.copy()
        one_nan[2, 1], one_inf[0, 2] = np.nan, np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = [decompose_sum(t, full) for t in (np.full((3, 3), np.nan), one_nan, one_inf)]
            off_support = decompose_sum(one_nan, full & ~np.eye(3, k=-1, dtype=bool))
        for out in outs:
            assert not out.feasible and out.f is None and out.g is None
            assert "not a sum" in out.reason and "(residual nan)" in out.reason
        # a NaN off the support is never read
        assert off_support.feasible

    def test_tolerance_forgives_tiny_noise(self):
        rng = np.random.default_rng(2)
        f, g = rng.normal(size=4), rng.normal(size=4)
        table = f[:, None] + g[None, :] + rng.normal(scale=1e-12, size=(4, 4))
        assert decompose_sum(table, np.ones((4, 4), dtype=bool)).feasible

    def test_input_validation(self):
        with pytest.raises(ValueError):
            decompose_sum(np.zeros((2, 3)), np.ones((2, 3), dtype=bool))
        with pytest.raises(ValueError):
            decompose_sum(np.zeros((3, 3)), np.ones((2, 2), dtype=bool))
