"""Whole-package acceptance checks, one test per shipped criterion.

Each test prints a single "[criterion N] PASS/FAIL" line straight to the
terminal (bypassing capture) and then asserts, so a full run ends with an
at-a-glance scoreboard of all nine criteria.

Two checks, state-only recovery (criterion 1) and state-only transfer
(criterion 2), fail on the densely stochastic 16-state benchmark family, and
the failure is converged: more training leaves the error where it is.  The
cause is the per-successor shaping head f = g(s) + gamma*h(s') - h(s) under
dense dynamics.  Every s' is reachable from every (s, a), and expert and
policy transitions share the same T(s'|s,a), so the discriminator's
pointwise-optimal log-odds do not depend on s'.  The head can take on action
dependence only through E_T[h(s')], at a cost in fit, and the state-only
reward head settles at visitation log-ratios instead of the true reward.
Both are reported with the measured numbers.  On deterministic, decomposable
dynamics, the case the disentanglement result is stated for, the same
learner meets the analogous fixed-point targets (criterion 4).
"""

import sys
import time

import numpy as np
import pytest

from irl_lab.airl import (
    DiscriminatorParams,
    LearnerConfig,
    discriminator_grad,
)
from irl_lab.cli import main
from irl_lab.mdp import (
    RewardTable,
    counterexample_mdp,
    counterexample_shaped_reward,
    decomposability_check,
    one_step_reach,
    paper_tabular_mdp,
    random_deterministic_mdp,
    random_mdp,
)
from irl_lab.shaping import (
    PotentialFn,
    centered_sup_distance,
    decompose_sum,
    shape_reward,
)
from irl_lab.soft_rl import (
    evaluate_return,
    occupancy,
    soft_value_iteration,
    uniform_policy,
)
from irl_lab.transfer import evaluate_on_new_dynamics, run_recovery

from conftest import small_random_mdps
from oracles import backward_soft_recursion, fd_gradient, warshall_linked_classes

SEEDS = (0, 1, 2, 3, 4)
TEST_SEED_OFFSET = 1000
BENCH_ITERS = dict(iterations=400, disc_steps_per_iter=20, disc_step_size=0.2)


@pytest.fixture
def report(capfd):
    """Scoreboard writer that bypasses output capture, so every criterion
    prints its line whether it passes or fails."""

    def _report(n, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            sys.stdout.write(f"\n[criterion {n}] {status} - {detail}\n")
            sys.stdout.flush()
        return ok

    return _report


def state_reward(n, hot=0):
    values = np.zeros(n)
    values[hot] = 1.0
    return RewardTable("state_only", values)


@pytest.fixture(scope="module")
def benchmark_runs():
    """Both variants trained on five benchmark seeds, with test-MDP evaluations.

    Shared by the recovery and transfer criteria so each training run happens
    once; every seed trains under both variants as one stack.  Returns
    ({variant: [(recovery, evaluation), ...]}, elapsed seconds).
    """
    start = time.perf_counter()
    train_mdps = [paper_tabular_mdp(seed) for seed in SEEDS]
    test_mdps = [paper_tabular_mdp(seed + TEST_SEED_OFFSET) for seed in SEEDS]
    variants = ("airl_state_only", "airl_state_action")
    per_variant = run_recovery(train_mdps, variants, LearnerConfig(**BENCH_ITERS))
    runs = {variant: [(recovery, evaluate_on_new_dynamics(test_mdp, recovery.params.g))
                      for test_mdp, recovery in zip(test_mdps, recoveries)]
            for variant, recoveries in zip(variants, per_variant)}
    return runs, time.perf_counter() - start


def test_criterion_1_reward_recovery(benchmark_runs, report):
    runs, elapsed = benchmark_runs
    so_errors = [rec.recovery_error for rec, _ in runs["airl_state_only"]]
    sa_errors = [rec.recovery_error for rec, _ in runs["airl_state_action"]]
    sa_f_errors = [rec.f_advantage_error for rec, _ in runs["airl_state_action"]]
    ok = (
        max(so_errors) <= 0.1
        and min(sa_errors) > 0.3
        and max(sa_f_errors) <= 0.05
        and elapsed <= 120.0
    )
    detail = (
        f"state_only max recovery error {max(so_errors):.3f} (need <= 0.1); "
        f"state_action min error {min(sa_errors):.3f} (need > 0.3) with "
        f"max |f - A*| {max(sa_f_errors):.4f} (need <= 0.05); {elapsed:.0f}s"
    )
    assert report(1, ok, detail), detail


def test_criterion_2_transfer(benchmark_runs, report):
    runs, elapsed = benchmark_runs

    def scores(variant):
        return [
            (ev.reoptimized_on_learned - ev.uniform_random)
            / (ev.ground_truth_optimal - ev.uniform_random)
            for _, ev in runs[variant]
        ]

    so_mean = float(np.mean(scores("airl_state_only")))
    sa_mean = float(np.mean(scores("airl_state_action")))
    ok = so_mean >= 0.95 and sa_mean <= 0.3 and elapsed <= 300.0
    detail = (
        f"state_only mean normalized score {so_mean:.3f} (need >= 0.95); "
        f"state_action mean {sa_mean:.3f} (need <= 0.3); {elapsed:.0f}s"
    )
    assert report(2, ok, detail), detail


def test_criterion_3_shaped_reward_fails_off_its_dynamics(report):
    start = time.perf_counter()
    shaped = counterexample_shaped_reward()
    argmaxes = {}
    for variant in ("original", "modified"):
        mdp = counterexample_mdp(variant, discount=0.9)
        truth_policy = soft_value_iteration(mdp).policy
        shaped_policy = soft_value_iteration(mdp, shaped).policy
        argmaxes[variant] = (
            int(truth_policy[0].argmax()),
            int(shaped_policy[0].argmax()),
        )
        if variant == "modified":
            shaped_return = evaluate_return(mdp, shaped_policy)
            uniform_return = evaluate_return(mdp, uniform_policy(mdp))
    elapsed = time.perf_counter() - start
    same_on_original = argmaxes["original"][0] == argmaxes["original"][1]
    differ_on_modified = argmaxes["modified"][0] != argmaxes["modified"][1]
    below_uniform = shaped_return < uniform_return
    ok = same_on_original and differ_on_modified and below_uniform and elapsed < 1.0
    detail = (
        f"hub argmax truth/shaped: original {argmaxes['original']}, "
        f"modified {argmaxes['modified']}; shaped-policy return "
        f"{shaped_return:.3f} vs uniform {uniform_return:.3f}; {elapsed:.2f}s"
    )
    assert report(3, ok, detail), detail


def test_criterion_4_deterministic_fixed_point(deterministic_recoveries, report):
    # the five MDPs train as one stack in the session fixture; its training
    # time counts toward this criterion's
    mdps, recoveries, trained_s = deterministic_recoveries
    start = time.perf_counter()
    g_errors, h_errors = [], []
    for mdp, recovery in zip(mdps, recoveries):
        assert decomposability_check(mdp).is_decomposable
        solution = soft_value_iteration(mdp)
        g_errors.append(
            centered_sup_distance(recovery.params.g.values, mdp.reward.values)
        )
        h_errors.append(centered_sup_distance(recovery.params.h, solution.v))
    elapsed = trained_s + time.perf_counter() - start
    ok = max(g_errors) <= 0.1 and max(h_errors) <= 0.1 and elapsed <= 120.0
    detail = (
        f"max |g - r*| {max(g_errors):.4f}, max |h - V*| {max(h_errors):.4f} "
        f"after centering (need <= 0.1 each) on 5 deterministic decomposable "
        f"MDPs; {elapsed:.0f}s"
    )
    assert report(4, ok, detail), detail


def test_criterion_5_gradient_correctness(report):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n_actions = 2 + seed % 2
        mdp = random_mdp(4, n_actions, RewardTable("state_only", np.zeros(4)), seed=seed)
        kind = "state_only" if seed % 2 == 0 else "state_action"
        shape = (4,) if kind == "state_only" else (4, n_actions)
        params = DiscriminatorParams(
            RewardTable(kind, rng.normal(scale=0.5, size=shape)),
            rng.normal(scale=0.5, size=4),
            0.9,
        )

        def soft_policy():
            logits = rng.normal(size=(4, n_actions))
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            return p / p.sum(axis=1, keepdims=True)

        policy = soft_policy()
        expert_w = occupancy(mdp, soft_policy())
        negative_w = occupancy(mdp, policy)
        grad = discriminator_grad(params, policy, expert_w, negative_w)
        fd_g, fd_h = fd_gradient(params, policy, expert_w, negative_w)
        rel_g = np.abs(grad.g - fd_g) / np.maximum(np.abs(fd_g), 1e-8)
        rel_h = np.abs(grad.h - fd_h) / np.maximum(np.abs(fd_h), 1e-8)
        worst = max(worst, float(rel_g.max()), float(rel_h.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4
    detail = (
        f"worst relative error vs central differences {worst:.2e} "
        f"(need <= 1e-4) over 10 instances, both parameter kinds; {elapsed:.1f}s"
    )
    assert report(5, ok, detail), detail


def test_criterion_6_shaping_invariance(report):
    start = time.perf_counter()
    worst_policy_gap = 0.0
    worst_shift_spread = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        mdp = random_mdp(n, k, RewardTable("state_only", rng.normal(size=n)),
                         seed=seed + 10_000, horizon=8)
        phi = PotentialFn(rng.normal(scale=2.0, size=n))
        shaped = shape_reward(mdp.reward, phi, mdp.discount, n_actions=k)
        base = soft_value_iteration(mdp)
        alt = soft_value_iteration(mdp, shaped)
        worst_policy_gap = max(
            worst_policy_gap, float(np.max(np.abs(alt.policy - base.policy)))
        )
        shift = alt.q - (base.q - phi.phi[:, None])
        worst_shift_spread = max(worst_shift_spread, float(np.ptp(shift)))
    elapsed = time.perf_counter() - start
    ok = worst_policy_gap <= 1e-6 and worst_shift_spread <= 1e-6
    detail = (
        f"100 (MDP, potential) pairs: max policy gap {worst_policy_gap:.2e}, "
        f"max spread of Q-shift around -phi(s)+const {worst_shift_spread:.2e} "
        f"(need <= 1e-6 each); {elapsed:.1f}s"
    )
    assert report(6, ok, detail), detail


def test_criterion_7_solver_matches_backward_recursion(report):
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for mdp in small_random_mdps():
        solution = soft_value_iteration(mdp)
        q_oracle, _, _ = backward_soft_recursion(mdp)
        worst = max(worst, float(np.max(np.abs(solution.q - q_oracle))))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and checked == 20
    detail = (
        f"max |Q - Q_oracle| {worst:.2e} (need <= 1e-6) over {checked} small "
        f"MDPs; {elapsed:.1f}s"
    )
    assert report(7, ok, detail), detail


def test_criterion_8_decomposability_and_sum_splitting(report):
    start = time.perf_counter()
    oracle_matches = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        if seed % 2:
            mdp = random_mdp(n, k, state_reward(n), seed=seed)
        else:
            mdp = random_deterministic_mdp(n, k, state_reward(n), seed=seed,
                                           stay_action=bool(seed % 4))
        if decomposability_check(mdp).linked_classes == warshall_linked_classes(mdp):
            oracle_matches += 1

    round_trips = 0
    worst_gap = 0.0
    all_feasible = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        mdp = random_deterministic_mdp(
            n, int(rng.integers(1, 4)), RewardTable("state_only", np.zeros(n)),
            seed=seed)
        if not decomposability_check(mdp).is_decomposable:
            continue
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        out = decompose_sum(f[:, None] + g[None, :], one_step_reach(mdp))
        all_feasible = all_feasible and out.feasible
        if out.feasible:
            worst_gap = max(
                worst_gap,
                float(np.max(np.abs(out.f - (f - f[0])))),
                float(np.max(np.abs(out.g - (g + f[0])))),
            )
        round_trips += 1

    bare = counterexample_mdp("original")
    infeasible = decompose_sum(
        np.zeros((3, 3)), one_step_reach(bare)
    )
    elapsed = time.perf_counter() - start
    ok = (
        oracle_matches == 50
        and all_feasible
        and round_trips >= 8
        and worst_gap <= 1e-8
        and not infeasible.feasible
    )
    detail = (
        f"closure oracle matched {oracle_matches}/50; {round_trips} round trips "
        f"with max gauge-aligned gap {worst_gap:.2e} (need <= 1e-8); bare "
        f"3-state support infeasible: {not infeasible.feasible}; {elapsed:.1f}s"
    )
    assert report(8, ok, detail), detail


def test_criterion_9_reproduction_is_byte_identical(tmp_path, report):
    start = time.perf_counter()
    out_dirs = (tmp_path / "first", tmp_path / "second")
    for out in out_dirs:
        main(["reproduce-tabular", "--out", str(out), "--seeds", "0,1",
              "--iterations", "25"])
    names = sorted(p.name for p in out_dirs[0].iterdir())
    identical = names == sorted(p.name for p in out_dirs[1].iterdir()) and all(
        (out_dirs[0] / name).read_bytes() == (out_dirs[1] / name).read_bytes()
        for name in names
    )
    elapsed = time.perf_counter() - start
    ok = identical and len(names) > 0
    detail = (
        f"{len(names)} artifacts (manifest + CSVs) byte-identical across two "
        f"consecutive runs: {identical}; {elapsed:.0f}s"
    )
    assert report(9, ok, detail), detail
