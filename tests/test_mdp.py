import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from irl_lab.mdp import (
    RewardTable,
    TabularMdp,
    add_self_transitions,
    counterexample_mdp,
    counterexample_potential,
    counterexample_shaped_reward,
    decomposability_check,
    expected_state_action,
    load_mdp,
    mdp_from_dict,
    mdp_to_dict,
    one_step_reach,
    paper_tabular_mdp,
    random_deterministic_mdp,
    random_mdp,
    reward_from_dict,
    reward_to_dict,
    save_mdp,
    validate_mdp,
)
from irl_lab.airl import DiscriminatorParams, TrajectoryScorer, TransitionBatch
from irl_lab.shaping import shape_reward, PotentialFn
from irl_lab.soft_rl import Rollouts, soft_value_iteration

from conftest import small_random_mdps
from oracles import warshall_linked_classes


def state_reward(n, hot=0):
    values = np.zeros(n)
    values[hot] = 1.0
    return RewardTable("state_only", values)


class TestRewardTable:
    def test_lookup_matches_each_arity(self):
        r1 = RewardTable("state_only", np.array([1.0, 2.0]))
        r2 = RewardTable("state_action", np.array([[1.0, 2.0], [3.0, 4.0]]))
        r3 = RewardTable("transition", np.arange(8.0).reshape(2, 2, 2))
        assert r1.lookup(1) == 2.0
        assert r2.lookup(1, 0) == 3.0
        assert r3.lookup(1, 0, 1) == 5.0

    def test_mismatched_arity_rejected(self):
        r = RewardTable("state_action", np.zeros((2, 2)))
        with pytest.raises(ValueError, match="2 indices"):
            r.lookup(1)
        with pytest.raises(ValueError, match="2 indices"):
            r.lookup(0, 0, 0)

    def test_kind_fixes_table_rank(self):
        with pytest.raises(ValueError):
            RewardTable("state_only", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            RewardTable("transition", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            RewardTable("bogus", np.zeros(2))

    def test_tables_are_read_only(self):
        r = RewardTable("state_only", np.zeros(2))
        with pytest.raises(ValueError):
            r.values[0] = 1.0

    def test_broadcast_view_is_stored_in_c_order(self):
        # The stored layout must not depend on how the values were laid out,
        # or equal tables collapse to (s, a) with different rounding.
        mdp = paper_tabular_mdp(0)
        f = np.random.default_rng(3).normal(size=(16, 1, 16))
        view = np.broadcast_to(f, (16, 4, 16))
        from_view = RewardTable("transition", view)
        from_copy = RewardTable("transition", np.ascontiguousarray(view))
        assert from_view.values.flags.c_contiguous
        assert np.array_equal(
            soft_value_iteration(mdp, from_view).policy,
            soft_value_iteration(mdp, from_copy).policy,
        )

    def test_expected_state_action_collapses_by_dynamics(self):
        mdp = random_mdp(3, 2, state_reward(3), seed=0)
        rng = np.random.default_rng(1)
        table = rng.normal(size=(3, 2, 3))
        collapsed = expected_state_action(RewardTable("transition", table), mdp.transition)
        manual = np.einsum("sap,sap->sa", mdp.transition, table)
        npt.assert_allclose(collapsed, manual, atol=1e-15)


def built_record(name):
    """(record of class `name`, {array field: the array it was built from}); each
    input is a writable strided view of its own buffer, so not C-contiguous."""
    def strided(values):
        return np.repeat(np.asarray(values), 2, axis=0)[::2]

    rng = np.random.default_rng(0)
    values, vector = strided(rng.normal(size=(3, 2, 3))), strided(np.full(3, 1.0 / 3.0))
    if name == "RewardTable":
        return RewardTable("transition", values), {"values": values}
    if name == "TabularMdp":
        transition = strided(rng.dirichlet(np.ones(3), size=(3, 2)))
        mdp = TabularMdp(3, 2, transition, state_reward(3), 0.9, vector)
        return mdp, {"transition": transition, "initial_dist": vector}
    if name == "DiscriminatorParams":
        return DiscriminatorParams(state_reward(3), vector, 0.9), {"h": vector}
    if name == "TransitionBatch":
        columns = {"states": strided([0, 1]), "actions": strided([1, 0]),
                   "next_states": strided([2, 2])}
        return TransitionBatch(**columns), columns
    if name == "TrajectoryScorer":
        f_step = strided(rng.normal(size=(3, 2)))
        return TrajectoryScorer(f_step), {"f_step": f_step}
    if name == "Rollouts":
        states, actions = strided([[0, 1, 2], [2, 2, 0]]), strided([[1, 0], [0, 1]])
        return Rollouts(states, actions), {"states": states, "actions": actions}
    return PotentialFn(vector), {"phi": vector}


@pytest.mark.parametrize("name", ["RewardTable", "TabularMdp", "DiscriminatorParams",
                                  "TransitionBatch", "TrajectoryScorer", "Rollouts",
                                  "PotentialFn"])
def test_records_hold_read_only_c_contiguous_copies(name):
    record, given = built_record(name)
    for field, array in given.items():
        held = getattr(record, field)
        assert not array.flags.c_contiguous
        assert held.flags.c_contiguous and not held.flags.writeable
        kept = held.copy()
        npt.assert_array_equal(kept, array)
        array[(0,) * array.ndim] += 1
        npt.assert_array_equal(held, kept)
        with pytest.raises(ValueError, match="read-only"):
            held[(0,) * held.ndim] = 0


class TestRandomMdp:
    def test_rows_are_stochastic(self):
        mdp = random_mdp(2, 1, state_reward(2), seed=0)
        npt.assert_allclose(mdp.transition.sum(axis=2), 1.0, atol=1e-12)

    def test_same_seed_bit_identical(self):
        a = random_mdp(16, 4, state_reward(16), seed=7)
        b = random_mdp(16, 4, state_reward(16), seed=7)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.initial_dist, b.initial_dist)

    def test_different_seeds_differ(self):
        a = random_mdp(16, 4, state_reward(16), seed=7)
        b = random_mdp(16, 4, state_reward(16), seed=8)
        assert not np.array_equal(a.transition, b.transition)

    def test_zero_dimensions_rejected(self):
        with pytest.raises(ValueError):
            random_mdp(1, 1, state_reward(1), seed=0)
        with pytest.raises(ValueError):
            random_mdp(2, 0, RewardTable("state_only", np.zeros(2)), seed=0)

    def test_benchmark_family_shape(self, bench_mdp):
        assert (bench_mdp.n_states, bench_mdp.n_actions) == (16, 4)
        npt.assert_allclose(bench_mdp.reward.values, np.eye(16)[0])
        # episodes always start in state 1
        npt.assert_allclose(bench_mdp.initial_dist, np.eye(16)[1])
        assert validate_mdp(bench_mdp) == []

    def test_deterministic_family_rows_are_one_hot(self):
        mdp = random_deterministic_mdp(8, 3, state_reward(8), seed=3)
        assert set(np.unique(mdp.transition)) <= {0.0, 1.0}
        npt.assert_allclose(mdp.transition.sum(axis=2), 1.0)
        # the reserved stay action self-loops everywhere
        npt.assert_allclose(mdp.transition[np.arange(8), 0, np.arange(8)], 1.0)


class TestValidateMdp:
    def test_valid_mdp_reports_nothing(self, bench_mdp):
        assert validate_mdp(bench_mdp) == []

    def test_short_row_named(self, bench_mdp):
        t = bench_mdp.transition.copy()
        t[3, 1] *= 0.9
        bad = TabularMdp(16, 4, t, bench_mdp.reward, 0.9, bench_mdp.initial_dist)
        problems = validate_mdp(bad)
        assert len(problems) == 1
        assert "s=3" in problems[0] and "a=1" in problems[0]

    def test_nan_reward_named(self, bench_mdp):
        values = bench_mdp.reward.values.copy()
        values[5] = np.nan
        bad = TabularMdp(
            16, 4, bench_mdp.transition, RewardTable("state_only", values),
            0.9, bench_mdp.initial_dist,
        )
        problems = validate_mdp(bad)
        assert len(problems) == 1
        assert "(5,)" in problems[0]

    def test_discount_outside_unit_interval_flagged(self, bench_mdp):
        bad = TabularMdp(16, 4, bench_mdp.transition, bench_mdp.reward, 1.0,
                         bench_mdp.initial_dist)
        assert any("discount" in p for p in validate_mdp(bad))

    def test_negative_initial_dist_flagged(self, bench_mdp):
        init = bench_mdp.initial_dist.copy()
        init[0] -= 0.5
        init[1] += 0.5
        bad = TabularMdp(16, 4, bench_mdp.transition, bench_mdp.reward, 0.9, init)
        assert any("negative" in p for p in validate_mdp(bad))

    def test_shape_errors_are_hard(self, bench_mdp):
        with pytest.raises(ValueError):
            TabularMdp(16, 4, bench_mdp.transition[:, :2], bench_mdp.reward, 0.9,
                       bench_mdp.initial_dist)
        with pytest.raises(ValueError):
            TabularMdp(16, 4, bench_mdp.transition, state_reward(15), 0.9,
                       bench_mdp.initial_dist)


class TestAddSelfTransitions:
    def test_small_weight_stays_near_input(self, bench_mdp):
        out = add_self_transitions(bench_mdp, 1e-6)
        assert np.max(np.abs(out.transition - bench_mdp.transition)) <= 2e-6

    def test_rows_stay_stochastic_exactly(self, bench_mdp):
        out = add_self_transitions(bench_mdp, 0.37)
        npt.assert_allclose(out.transition.sum(axis=2), 1.0, atol=1e-15)

    def test_diagonal_mass_monotone_in_weight(self, bench_mdp):
        idx = np.arange(16)
        prev = bench_mdp.transition[idx, :, idx]
        for weight in (0.1, 0.5, 0.9):
            cur = add_self_transitions(bench_mdp, weight).transition[idx, :, idx]
            assert (cur >= prev - 1e-15).all()
            prev = cur

    def test_deterministic_cycle_gets_half_diagonal(self):
        n = 5
        t = np.zeros((n, 1, n))
        t[np.arange(n), 0, (np.arange(n) + 1) % n] = 1.0
        cycle = TabularMdp(n, 1, t, state_reward(n), 0.9, np.full(n, 1 / n))
        out = add_self_transitions(cycle, 0.5)
        assert (out.transition[np.arange(n), 0, np.arange(n)] >= 0.5).all()

    def test_weight_bounds(self, bench_mdp):
        for weight in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                add_self_transitions(bench_mdp, weight)


class TestDecomposability:
    def test_hub_example_splits_off_the_hub(self):
        report = decomposability_check(counterexample_mdp("original"))
        assert not report.is_decomposable
        assert report.linked_classes == ((0,), (1, 2))

    def test_self_transitions_relink_the_hub(self):
        mdp = add_self_transitions(counterexample_mdp("original"), 0.1)
        report = decomposability_check(mdp)
        assert report.is_decomposable
        assert report.linked_classes == ((0, 1, 2),)

    def test_single_state_is_decomposable(self):
        mdp = TabularMdp(1, 1, np.ones((1, 1, 1)), state_reward(1), 0.9, np.ones(1))
        assert decomposability_check(mdp).is_decomposable

    def test_matches_closure_oracle_on_small_mdps(self):
        checked = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            if seed % 2:
                mdp = random_mdp(n, k, state_reward(n), seed=seed)
            else:
                mdp = random_deterministic_mdp(n, k, state_reward(n), seed=seed,
                                               stay_action=bool(seed % 4))
            report = decomposability_check(mdp)
            assert report.linked_classes == warshall_linked_classes(mdp)
            checked += 1
        assert checked == 50

    def test_a_state_no_state_reaches_is_its_own_class(self):
        transition = np.zeros((4, 2, 4))
        transition[:, 0, 0] = 1.0
        transition[0, 1, [1, 2]] = 0.5
        transition[1:, 1, 1] = 1.0
        mdp = TabularMdp(4, 2, transition, state_reward(4), 0.9, np.full(4, 0.25))
        report = decomposability_check(mdp)
        assert report.linked_classes == ((0, 1, 2), (3,)) == warshall_linked_classes(mdp)
        assert not report.is_decomposable

    def test_many_states_need_no_state_cubed_table(self):
        # the linked relation is an (S, S) table; an (S, S, S) one would take
        # 216 MB here
        mdp = random_mdp(600, 1, state_reward(600), seed=0)
        tracemalloc.start()
        try:
            report = decomposability_check(mdp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.linked_classes == (tuple(range(600)),)
        assert peak < 30e6

    def test_one_step_reach_is_the_union_over_actions(self, tiny_mdp):
        reach = one_step_reach(tiny_mdp)
        manual = (tiny_mdp.transition > 1e-12).any(axis=1)
        assert np.array_equal(reach, manual)


class TestCounterexample:
    def test_original_prefers_the_plus_leaf_under_both_rewards(self):
        mdp = counterexample_mdp("original", 0.9)
        truth = soft_value_iteration(mdp)
        shaped = soft_value_iteration(mdp, counterexample_shaped_reward())
        assert truth.policy[0].argmax() == 0
        assert shaped.policy[0].argmax() == 0

    def test_modified_dynamics_split_the_two_rewards(self):
        mdp = counterexample_mdp("modified", 0.9)
        truth = soft_value_iteration(mdp)
        shaped = soft_value_iteration(mdp, counterexample_shaped_reward())
        assert truth.policy[0].argmax() == 1
        assert shaped.policy[0].argmax() == 0

    def test_shaped_reward_is_the_undiscounted_potential_shift(self):
        # On every realized transition of the original dynamics the explicit
        # state-action table equals r + phi(s') - phi(s) (discount 1).
        mdp = counterexample_mdp("original", 0.9)
        phi = counterexample_potential()
        shaped = shape_reward(mdp.reward, PotentialFn(phi), 1.0)
        r_prime = counterexample_shaped_reward()
        for s in range(3):
            for a in range(2):
                sp = int(mdp.transition[s, a].argmax())
                npt.assert_allclose(r_prime.lookup(s, a), shaped.lookup(s, a, sp),
                                    atol=1e-12)

    def test_dynamics_tables(self):
        original = counterexample_mdp("original")
        modified = counterexample_mdp("modified")
        assert original.transition[0, 0, 1] == 1.0 and original.transition[0, 1, 2] == 1.0
        assert modified.transition[0, 0, 2] == 1.0 and modified.transition[0, 1, 1] == 1.0
        # both leaves return to the hub, reward rides the return transition
        for mdp in (original, modified):
            npt.assert_allclose(mdp.transition[1:, :, 0], 1.0)
            assert mdp.reward.kind == "transition"
            assert mdp.reward.lookup(1, 0, 0) == 1.0
            assert mdp.reward.lookup(2, 0, 0) == -1.0
        with pytest.raises(ValueError):
            counterexample_mdp("other")


class TestSerialization:
    def test_round_trip_is_lossless(self):
        for mdp in small_random_mdps(seeds=range(6)):
            back = mdp_from_dict(mdp_to_dict(mdp))
            assert np.array_equal(back.transition, mdp.transition)
            assert np.array_equal(back.reward.values, mdp.reward.values)
            assert back.reward.kind == mdp.reward.kind
            assert back.discount == mdp.discount
            assert back.horizon == mdp.horizon

    def test_file_round_trip_bytes(self, tmp_path, bench_mdp):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_mdp(bench_mdp, p1)
        save_mdp(load_mdp(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_and_missing_keys_rejected(self, bench_mdp):
        doc = mdp_to_dict(bench_mdp)
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="'surprise'"):
            mdp_from_dict(doc)
        del doc["surprise"], doc["discount"]
        with pytest.raises(ValueError, match="'discount'"):
            mdp_from_dict(doc)
        with pytest.raises(ValueError, match="'extra'"):
            reward_from_dict({"kind": "state_only", "values": [0.0], "extra": 1})

    def test_bools_in_number_lists_rejected(self, bench_mdp):
        # numpy would read [true, 0, 0] as [1, 0, 0]; a bool at any depth is refused
        doc = mdp_to_dict(bench_mdp)
        doc["initial_dist"] = [True] + [0] * (bench_mdp.n_states - 1)
        with pytest.raises(ValueError, match="'initial_dist'"):
            mdp_from_dict(doc)
        doc = mdp_to_dict(bench_mdp)
        doc["transition"][2][1][0] = False
        with pytest.raises(ValueError, match="'transition'"):
            mdp_from_dict(doc)
        with pytest.raises(ValueError, match="'values'"):
            reward_from_dict({"kind": "state_only", "values": [1.0, True]})

    def test_full_float_precision_survives(self):
        values = np.array([1 / 3, np.pi, 1e-17])
        doc = json.loads(json.dumps(reward_to_dict(RewardTable("state_only", values))))
        back = reward_from_dict(doc)
        assert np.array_equal(back.values, values)
