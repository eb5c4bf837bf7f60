"""Tabular maximum-entropy IRL laboratory.

Finite MDPs, soft value iteration, potential-based shaping, an adversarial
reward learner with a shaped two-table discriminator, and transfer
experiments across changed dynamics.
"""

from .airl import (
    AirlResult,
    DiscriminatorParams,
    DivergenceError,
    GanGclResult,
    LearnerConfig,
    TrainingHistory,
    TrajectoryScorer,
    TransitionBatch,
    airl_train,
    discriminator_grad,
    discriminator_loss,
    discriminator_prob,
    extract_reward,
    f_table,
    f_value,
    gan_gcl_train,
)
from .mdp import (
    DecompositionReport,
    RewardTable,
    TabularMdp,
    add_self_transitions,
    counterexample_mdp,
    counterexample_potential,
    counterexample_shaped_reward,
    decomposability_check,
    load_mdp,
    paper_tabular_mdp,
    random_deterministic_mdp,
    random_mdp,
    save_mdp,
    validate_mdp,
)
from .shaping import (
    PotentialFn,
    SumDecomposition,
    advantage,
    centered_reward_error,
    decompose_sum,
    shape_reward,
)
from .soft_rl import (
    Rollouts,
    SoftSolution,
    evaluate_return,
    occupancy,
    sample_trajectories,
    soft_value_iteration,
    uniform_policy,
)
from .transfer import (
    ProbeResult,
    RecoveryResult,
    disentanglement_probe,
    evaluate_on_new_dynamics,
    expert_demos,
    normalized_score,
    run_recovery,
)

__version__ = "0.1.0"
