"""Command-line interface: config-driven experiments and canned reproductions.

Exit codes: 0 success, 1 reproduction threshold failure, 2 usage/config
errors, 3 I/O failures, 4 numerical failures (training diverged, or an MDP
fails validation).  `reproduce-tabular` trains all its seeds under both
variants as one stack in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import operator
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from ._fmt import atomic_write_text, csv_text, json_text
from .airl import DivergenceError, LearnerConfig, gan_gcl_train, params_to_dict
from .mdp import (
    REQUIRED,
    RewardTable,
    TabularMdp,
    counterexample_mdp,
    decomposability_check,
    load_mdp,
    paper_tabular_mdp,
    random_mdp,
    read_document,
    read_json,
    reward_from_dict,
    reward_to_dict,
    save_mdp,
    strict_float,
    strict_int,
    validate_mdp,
)
from .shaping import centered_reward_error
from .transfer import (
    REPRODUCTION_CRITERIA,
    disentanglement_probe,
    evaluate_on_new_dynamics,
    expert_demos,
    run_recovery,
)

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# Training knobs for the canned 16-state reproduction.
REPRO_ITERATIONS = 400
REPRO_DISC_STEPS = 20
REPRO_STEP_SIZE = 0.2
REPRO_TEST_SEED_OFFSET = 1000

_VARIANT_LABELS = {"airl_state_only": "state_only", "airl_state_action": "state_action"}


class InvalidMdpError(Exception):
    """An MDP that breaks the invariants `validate_mdp` checks; its args are the problems."""


def _validated(mdp: TabularMdp) -> TabularMdp:
    problems = validate_mdp(mdp)
    if problems:
        raise InvalidMdpError(*problems)
    return mdp


def _as_is(value):
    return value


def _path(value) -> Path:
    if not isinstance(value, str):
        raise ValueError(f"must be a path string, got {value!r}")
    return Path(value)


def _existing_file(value) -> str:
    if not _path(value).is_file():
        raise ValueError(f"no file at {value!r}")
    return value


def _nonempty_list(convert):
    def read(value) -> list:
        if not isinstance(value, list) or not value:
            raise ValueError(f"must be a non-empty list, got {value!r}")
        return [convert(item) for item in value]
    return read


def _random_with_reward_state(seed, states, actions, reward_state, discount, horizon) -> TabularMdp:
    """A `random` MDP paying reward 1.0 in `reward_state`."""
    if not 0 <= reward_state < states:
        raise ValueError("reward_state must index a state")
    values = np.zeros(states)
    values[reward_state] = 1.0
    return random_mdp(states, actions, RewardTable("state_only", values), seed,
                      discount=discount, horizon=horizon)


def _non_negative(value) -> int:
    if strict_int(value) < 0:
        raise ValueError(f"must be non-negative, got {value!r}")
    return value


def _non_negative_flag(text: str) -> int:
    """A `--seed` or `--iterations` value: the flag's text as an integer, by `_non_negative`."""
    try:
        return _non_negative(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


_SHARED_KEYS = {"discount": (strict_float, 0.9), "horizon": (strict_int, 20)}

# generate kind -> (generator, its {key: (convert, default)}); `generate`'s flags share both.
_MDP_KINDS = {
    "paper_tabular": (paper_tabular_mdp, {"seed": (_non_negative, 0), **_SHARED_KEYS}),
    "counterexample": (counterexample_mdp, {"variant": (_as_is, "original"), **_SHARED_KEYS}),
    "random": (_random_with_reward_state, {
        "seed": (_non_negative, 0),
        "states": (strict_int, 16),
        "actions": (strict_int, 4),
        "reward_state": (strict_int, 0),
        **_SHARED_KEYS,
    }),
}


def _parse_mdp_block(doc) -> dict:
    """The mdp block: source "file" and a path, or source "generate", a kind and its keys."""
    if not isinstance(doc, dict):
        raise ValueError("mdp must be a JSON object")
    source = doc.get("source")
    if source == "file":
        keys, what = {"path": (_existing_file, REQUIRED)}, "mdp (source=file)"
    elif source == "generate":
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in _MDP_KINDS:
            raise ValueError(f"unknown mdp kind {kind!r}")
        keys, what = {"kind": (_as_is, REQUIRED), **_MDP_KINDS[kind][1]}, f"mdp (kind={kind})"
    else:
        raise ValueError(f"mdp needs a source of 'file' or 'generate', got {source!r}")
    return read_document(doc, {"source": (_as_is, REQUIRED), **keys}, what)


def _build_mdp(spec: dict) -> TabularMdp:
    """Load or generate the MDP a config names; raises InvalidMdpError if it is invalid."""
    if spec["source"] == "file":
        return _validated(load_mdp(spec["path"]))
    generate, keys = _MDP_KINDS[spec["kind"]]
    return _validated(generate(**{key: spec[key] for key in keys}))


def _parse_formats(value) -> tuple[str, ...]:
    if value == "both":
        return ("csv", "json")
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not value:
        raise ValueError("formats must be 'csv', 'json', 'both' or a non-empty list")
    for fmt in value:
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")
    return tuple(dict.fromkeys(value))


def _distinct_seeds(value) -> list[int]:
    seeds = _nonempty_list(_non_negative)(value)
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValueError(f"repeats seed {seed}")
    return seeds


_TRANSFER_KEYS = {
    "test_seeds": (_distinct_seeds, None),
    "test_mdp_paths": (_nonempty_list(_existing_file), None),
    "n_dynamics": (_non_negative, 0),
}


def _parse_transfer_block(doc) -> dict:
    if isinstance(doc, dict) and ("test_seeds" in doc) == ("test_mdp_paths" in doc):
        raise ValueError("transfer needs exactly one of 'test_seeds' or 'test_mdp_paths'")
    return read_document(doc, _TRANSFER_KEYS, "transfer")


_LEARNER_FIELDS = {field.name: (_as_is, field.default) for field in fields(LearnerConfig)}


def _parse_learner(doc) -> LearnerConfig:
    return LearnerConfig(**read_document(doc, _LEARNER_FIELDS, "learner"))


_EXPERIMENT_KEYS = {
    "mdp": (_parse_mdp_block, REQUIRED),
    "learner": (_parse_learner, REQUIRED),
    "transfer": (_parse_transfer_block, None),
    "output_dir": (_path, Path("out")),
    "formats": (_parse_formats, ("csv", "json")),
}


def load_experiment_config(path) -> dict:
    """The experiment config driving `train` and `transfer`, by `_EXPERIMENT_KEYS`."""
    return read_document(read_json(path, "config"), _EXPERIMENT_KEYS, "experiment config")


def _apply_overrides(config: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        config["learner"] = replace(config["learner"], seed=args.seed)
        if "seed" in config["mdp"]:
            config["mdp"] = dict(config["mdp"], seed=args.seed)
    if getattr(args, "out", None) is not None:
        config["output_dir"] = Path(args.out)
    if getattr(args, "format", None) is not None:
        config["formats"] = _parse_formats(args.format)
    return config


@contextlib.contextmanager
def _outputs(outdir: Path):
    """Make `outdir` and yield write(name, text); on failure, remove what was written."""
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(name: str, text: str) -> None:
        atomic_write_text(outdir / name, text)
        written.append(outdir / name)

    try:
        yield write
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise


def _heatmap_text(values: np.ndarray, n_actions: int) -> str:
    """Mean-centered (state, action) reward grid as CSV."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim == 1:
        grid = np.broadcast_to(grid[:, None], (len(grid), n_actions))
    with np.errstate(over="ignore"):
        mean = grid.mean()
    if not np.isfinite(mean) and np.isfinite(grid).all():
        # a finite table's sum can overflow; its mean at the exact scale 2**-64 does not
        mean = (grid * 2.0**-64).mean() * 2.0**64
    grid = grid - mean
    header = ["state"] + [f"action_{a}" for a in range(grid.shape[1])]
    rows = [[s] + [grid[s, a] for a in range(grid.shape[1])] for s in range(grid.shape[0])]
    return csv_text(
        header,
        rows,
        comment="mean-centered reward; state_only tables broadcast across actions",
    )


_CURVE_COMMENT = (
    "true finite-horizon discounted return (no entropy bonus) of the softmax "
    "policy after each soft value-iteration sweep on the test dynamics"
)


def _curve_text(curve) -> str:
    return csv_text(
        ["vi_sweeps", "true_return"],
        [[int(k), float(r)] for k, r in curve],
        comment=_CURVE_COMMENT,
    )


def _aggregate_curves(curves) -> list[list]:
    """Per-sweep mean/min/max across curves, carrying final values forward.

    Row k of the (sweeps, curves) table holds every curve's return after sweep
    k + 1.  Each contiguous row is reduced like a column slice of the
    (curves, sweeps) stack would be, so the mean gets the same pairwise sum.
    """
    table = np.empty((max(len(c) for c in curves), len(curves)))
    for i, curve in enumerate(curves):
        returns = [float(r) for _, r in curve]
        table[:len(returns), i] = returns
        table[len(returns):, i] = returns[-1]
    stats = zip(table.mean(axis=1).tolist(), table.min(axis=1).tolist(),
                table.max(axis=1).tolist())
    return [[k + 1, mean, low, high] for k, (mean, low, high) in enumerate(stats)]


def _aggregate_text(curves) -> str:
    return csv_text(
        ["vi_sweeps", "mean_return", "min_return", "max_return"],
        _aggregate_curves(curves),
        comment=_CURVE_COMMENT + "; aggregated across test dynamics",
    )


def _conventions(mdp: TabularMdp) -> dict:
    return {
        "return": "finite-horizon discounted expected return, no entropy bonus",
        "horizon": mdp.horizon,
        "discount": mdp.discount,
        "curve_x": "cumulative soft value-iteration sweeps on the test dynamics",
        "normalized_score": "(return - uniform) / (optimal - uniform)",
        "heatmap_normalization": "mean-centered over all table entries",
    }


def cmd_generate(args) -> int:
    if args.paper_tabular:
        kind = "paper_tabular"
    elif args.variant is not None:
        kind = "counterexample"
    elif args.states is not None and args.actions is not None:
        kind = "random"
    else:
        raise ValueError("choose --paper-tabular, --counterexample or --states with --actions")
    generate, keys = _MDP_KINDS[kind]
    for name in ("seed", "states", "actions", "reward_state"):
        if name not in keys and getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to a {kind} MDP")
    mdp = generate(**{key: default if getattr(args, key) is None else getattr(args, key)
                      for key, (_, default) in keys.items()})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_mdp(mdp, out)
    report = decomposability_check(mdp)
    classes = " ".join("{" + ",".join(str(s) for s in c) + "}" for c in report.linked_classes)
    print(f"wrote {out} ({mdp.n_states} states, {mdp.n_actions} actions)")
    print(f"decomposable: {report.is_decomposable}; linked classes: {classes}")
    _validated(mdp)  # the file is written either way, so it can be inspected
    print("validation: ok")
    return EXIT_OK


def _train_once(mdp: TabularMdp, learner: LearnerConfig):
    """Run the configured learner; returns (learned reward, history, learned_reward.json)."""
    if learner.variant == "gan_gcl_trajectory":
        # as many expert episodes as sampled AIRL draws: N_EXPERT_TRAJECTORIES
        demos, _ = expert_demos(mdp, "sampled", seed=learner.seed)
        scorer, _, history = gan_gcl_train(mdp, demos, learner)
        learned = RewardTable("state_action", scorer.f_step)
        error = centered_reward_error(learned, mdp.reward, mdp.transition)
        return learned, history, {"learned_reward": reward_to_dict(learned),
                                  "recovery_error": error}
    recovery = run_recovery(mdp, learner.variant, learner)
    return recovery.params.g, recovery.history, {
        "learned_reward": reward_to_dict(recovery.params.g),
        "recovery_error": recovery.recovery_error,
        "f_advantage_error": recovery.f_advantage_error,
        "discriminator": params_to_dict(recovery.params),
    }


def cmd_train(args) -> int:
    config = _apply_overrides(load_experiment_config(args.config), args)
    mdp, learner = _build_mdp(config["mdp"]), config["learner"]
    learned, history, doc = _train_once(mdp, learner)

    with _outputs(config["output_dir"]) as write:
        if "csv" in config["formats"]:
            write("history.csv", history.to_csv_text())
            write("heatmap.csv", _heatmap_text(learned.values, mdp.n_actions))
        if "json" in config["formats"]:
            write("history.json", json_text(history.to_json_dict()))
        write("learned_reward.json", json_text(doc))
    print(f"trained {learner.variant} for {learner.iterations} iterations")
    print(f"recovery_error: {doc['recovery_error']:.6g}")
    return EXIT_OK


def _test_mdps(transfer: dict, mdp: TabularMdp) -> list[tuple[str, TabularMdp]]:
    """The transfer block's test MDPs for train MDP `mdp`, as (label, MDP) pairs in config order.

    `test_seeds` give distinct `seed<k>` (repeats are refused on reading), each
    a `random_mdp` with the train MDP's reward, discount, horizon and start;
    `test_mdp_paths` give `test<i>`, each file validated before any shape check.
    """
    if transfer["test_seeds"] is not None:
        return [(f"seed{seed}", random_mdp(mdp.n_states, mdp.n_actions, mdp.reward, seed,
                                           discount=mdp.discount, horizon=mdp.horizon,
                                           initial_dist=mdp.initial_dist))
                for seed in transfer["test_seeds"]]
    tests = [(f"test{i}", _validated(load_mdp(path)))
             for i, path in enumerate(transfer["test_mdp_paths"])]
    if any((t.n_states, t.n_actions) != (mdp.n_states, mdp.n_actions) for _, t in tests):
        raise ValueError("test MDPs must share the train MDP's state/action counts")
    return tests


def cmd_transfer(args) -> int:
    config = _apply_overrides(load_experiment_config(args.config), args)
    transfer, learner = config["transfer"], config["learner"]
    if transfer is None:
        raise ValueError("transfer command needs a 'transfer' block in the config")
    if learner.variant == "gan_gcl_trajectory":
        raise ValueError("transfer re-optimizes a reward table; use an airl_* variant")
    train_mdp = _build_mdp(config["mdp"])
    tests = _test_mdps(transfer, train_mdp)
    recovery = run_recovery(train_mdp, learner.variant, learner)

    with _outputs(config["output_dir"]) as write:
        evaluations = [evaluate_on_new_dynamics(test_mdp, recovery.params.g)
                       for _, test_mdp in tests]
        if "csv" in config["formats"]:
            for (label, _), evaluation in zip(tests, evaluations):
                write(f"curve_{label}.csv", _curve_text(evaluation.curve))
            write("curve_aggregate.csv", _aggregate_text([e.curve for e in evaluations]))
        results = [{"test": label, "returns": e.returns, "normalized_score": e.score}
                   for (label, _), e in zip(tests, evaluations)]
        scores = [r["normalized_score"] for r in results]
        summary = {
            "variant": learner.variant,
            "recovery_error": recovery.recovery_error,
            "learned_reward": reward_to_dict(recovery.params.g),
            "results": results,
            "mean_score": float(np.mean(scores)),
            "min_score": float(np.min(scores)),
            "max_score": float(np.max(scores)),
            "conventions": _conventions(train_mdp),
        }
        if transfer["n_dynamics"] > 0:
            probe = disentanglement_probe(
                train_mdp,
                recovery.params.g,
                transfer["n_dynamics"],
                learner.seed,
            )
            summary["probe"] = probe._asdict()
        write("summary.json", json_text(summary))
    print(f"transfer {learner.variant}: mean normalized score {summary['mean_score']:.4f}")
    return EXIT_OK


def _reproduce_seeds(seeds: list[int], iterations: int,
                     step_size: float) -> tuple[list, TabularMdp]:
    """Recovery plus transfer for each seed of the 16-state reproduction.

    Every seed's MDP trains under both variants as one stack; each seed's
    learned rewards then transfer to its own test MDP, both variants' rewards
    in one `evaluate_on_new_dynamics` call per seed.  Returns the per-seed
    results and the first train MDP.
    """
    train_mdps = [paper_tabular_mdp(seed) for seed in seeds]
    test_mdps = [paper_tabular_mdp(seed + REPRO_TEST_SEED_OFFSET) for seed in seeds]
    per_seed = [{"seed": seed, "truth_heatmap": reward_to_dict(mdp.reward), "variants": {}}
                for seed, mdp in zip(seeds, train_mdps)]
    learner = LearnerConfig(mode="exact_occupancy", iterations=iterations,
                            disc_steps_per_iter=REPRO_DISC_STEPS, disc_step_size=step_size)
    per_variant = run_recovery(train_mdps, tuple(_VARIANT_LABELS), learner)
    for out, test_mdp, recoveries in zip(per_seed, test_mdps, zip(*per_variant)):
        evaluations = evaluate_on_new_dynamics(test_mdp, [r.params.g for r in recoveries])
        for variant, recovery, evaluation in zip(_VARIANT_LABELS, recoveries, evaluations):
            out["variants"][variant] = {
                "recovery_error": recovery.recovery_error,
                "f_advantage_error": recovery.f_advantage_error,
                "learned_reward": reward_to_dict(recovery.params.g),
                "returns": evaluation.returns,
                "normalized_score": evaluation.score,
                "curve": [[int(k), float(r)] for k, r in evaluation.curve],
            }
    return per_seed, train_mdps[0]


# manifest.json's name for a per-seed key's value list; a statistic is named like max_error.
_VALUE_LISTS = {"recovery_error": "errors", "f_advantage_error": "f_advantage_errors",
                "normalized_score": "scores"}
_COMPARISONS = {"<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _criteria_blocks(per_seed: list[dict], smoke: bool) -> dict:
    """manifest.json's `experiments`, one block per REPRODUCTION_CRITERIA block name.

    A block holds each of its rows' per-seed values and their reduction, the
    rows' rules joined by " and ", and whether every row meets its bound
    ("skipped" for a smoke run).
    """
    blocks, rules, passed = {}, {}, {}
    for name, variant, key, reduction, comparison, bound in REPRODUCTION_CRITERIA:
        values = [result["variants"][variant][key] for result in per_seed]
        stat = getattr(np, reduction)(values)
        listed = _VALUE_LISTS[key]
        block = blocks.setdefault(name, {})
        block[listed], block[f"{reduction}_{listed[:-1]}"] = values, float(stat)
        rules.setdefault(name, []).append(f"{reduction} {key} {comparison} {bound}")
        passed[name] = passed.get(name, True) and _COMPARISONS[comparison](stat, bound)
    for name, block in blocks.items():
        block["rule"] = " and ".join(rules[name])
        block["pass"] = "skipped" if smoke else bool(passed[name])
    return blocks


def cmd_reproduce_tabular(args) -> int:
    try:
        seeds = _distinct_seeds([int(s) for s in str(args.seeds).split(",") if s != ""])
    except ValueError as exc:
        raise ValueError(f"--seeds must list distinct integers, comma-separated: {exc}") from exc
    iterations = 0 if args.smoke else args.iterations
    per_seed, train_mdp = _reproduce_seeds(seeds, iterations, args.step_size)

    with _outputs(Path(args.out)) as write:
        for result in per_seed:
            seed = result["seed"]
            truth = result["truth_heatmap"]["values"]
            write(f"heatmap_truth_seed{seed}.csv", _heatmap_text(truth, train_mdp.n_actions))
            for variant, label in _VARIANT_LABELS.items():
                block = result["variants"][variant]
                write(f"heatmap_{label}_seed{seed}.csv", _heatmap_text(
                    block["learned_reward"]["values"], train_mdp.n_actions))
                write(f"curve_{label}_seed{seed}.csv", _curve_text(block["curve"]))
        for variant, label in _VARIANT_LABELS.items():
            curves = [r["variants"][variant]["curve"] for r in per_seed]
            write(f"curve_{label}_aggregate.csv", _aggregate_text(curves))

        experiments = _criteria_blocks(per_seed, args.smoke)
        all_pass = "skipped" if args.smoke else all(b["pass"] for b in experiments.values())
        manifest = {
            "seeds": seeds,
            "test_seed_offset": REPRO_TEST_SEED_OFFSET,
            "smoke": bool(args.smoke),
            "learner": {
                "iterations": iterations,
                "disc_steps_per_iter": REPRO_DISC_STEPS,
                "disc_step_size": args.step_size,
                "mode": "exact_occupancy",
            },
            "experiments": experiments,
            "all_pass": all_pass,
            "conventions": _conventions(train_mdp),
            "per_seed": per_seed,
        }
        write("manifest.json", json_text(manifest))

    for name, block in experiments.items():
        print(f"{name}: {'PASS' if block['pass'] is True else block['pass']}")
    if all_pass == "skipped":
        print("thresholds skipped (smoke run)")
        return EXIT_OK
    print(f"all_pass: {all_pass}")
    return EXIT_OK if all_pass else EXIT_THRESHOLD


def cmd_probe(args) -> int:
    mdp = _validated(load_mdp(args.mdp))
    doc = read_json(args.reward, "reward file")
    if isinstance(doc, dict) and "learned_reward" in doc:
        doc = doc["learned_reward"]
    try:
        reward = reward_from_dict(doc)
        replace(mdp, reward=reward)  # TabularMdp checks the table's shape against the MDP's
    except ValueError as exc:
        raise ValueError(f"invalid reward file {args.reward!r}: {exc}") from exc
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    result = disentanglement_probe(mdp, reward, args.n_dynamics, args.seed)
    agreeing = sum(result.agreements)
    print(f"agreement fraction: {agreeing}/{len(result.agreements)} = {result.fraction:.4f}")
    if args.out:
        atomic_write_text(args.out, json_text(result._asdict()))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `irl-lab` parser, built on the first call; every later call, such as each
    `main` call of a process, shares it, since parsing leaves a parser unchanged.
    It holds no command functions: `main` calls `cmd_<command>` by name."""
    parser = argparse.ArgumentParser(
        prog="irl-lab",
        description="Tabular max-ent IRL laboratory: adversarial reward learning and transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and validate an MDP JSON file")
    kind = gen.add_mutually_exclusive_group()
    kind.add_argument("--paper-tabular", action="store_true",
                      help="16-state, 4-action benchmark family")
    kind.add_argument("--counterexample", nargs="?", const="original", dest="variant",
                      choices=["original", "modified"],
                      help="3-state MDP where state-action rewards mis-transfer")
    gen.add_argument("--states", type=int, help="random MDP: number of states")
    gen.add_argument("--actions", type=int, help="random MDP: number of actions")
    gen.add_argument("--reward-state", type=int, help="random MDP: state earning reward 1.0")
    gen.add_argument("--seed", type=_non_negative_flag)
    gen.add_argument("--discount", type=float)
    gen.add_argument("--horizon", type=int)
    gen.add_argument("-o", "--out", required=True, help="output JSON path")

    for name, help_text in (
        ("train", "run one config-driven training experiment"),
        ("transfer", "train, then re-optimize on test dynamics"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--seed", type=_non_negative_flag, help="override the config seeds")
        cmd.add_argument("--out", help="override the config output directory")
        cmd.add_argument("--format", choices=["csv", "json", "both"])

    repro = sub.add_parser(
        "reproduce-tabular",
        help="canned 16-state recovery + transfer bundle with a pass/fail manifest",
    )
    repro.add_argument("--out", required=True, help="output directory")
    repro.add_argument("--seeds", default="0,1,2,3,4",
                       help="comma-separated train seeds (default 0,1,2,3,4)")
    repro.add_argument("--smoke", action="store_true",
                       help="0 training iterations; thresholds reported as skipped")
    repro.add_argument("--iterations", type=_non_negative_flag, default=REPRO_ITERATIONS)
    repro.add_argument("--step-size", type=float, default=REPRO_STEP_SIZE)

    probe = sub.add_parser("probe", help="argmax-agreement probe of a reward under new dynamics")
    probe.add_argument("--mdp", required=True, help="MDP JSON file")
    probe.add_argument("--reward", required=True, help="reward-table JSON file")
    probe.add_argument("--n-dynamics", type=int, default=50)
    probe.add_argument("--seed", type=_non_negative_flag, default=0)
    probe.add_argument("--out", help="optional JSON output path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up per call, so a command function replaced after the parser was
    # built (as the benchmark's tracer wraps one) is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InvalidMdpError as exc:
        for problem in exc.args:
            print(f"invalid: {problem}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, MemoryError) as exc:
        # a MemoryError is a size too large to allocate, such as an iteration count
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
