"""Write irl-lab's golden output set, for a byte-level diff between two commits.

    python3 tools/golden_outputs.py OUTDIR

Runs sixteen fixed commands in-process against the package in this
checkout's `src/`: `reproduce-tabular` (25 iterations on seeds 0,1, and the
same with `--smoke`), `train` on `paper_tabular` seed 0 with each AIRL variant
in exact and in sampled mode, a sampled `train` on the `counterexample` MDP
(deterministic rows with exact zeros, CDFs that reach 1 before their last
entry, a point-mass start), `train` with the `gan_gcl_trajectory` baseline on
a `random` MDP, a sampled `train` whose discriminator step of 3e307 leaves
policy steps stuck at huge values without converging, `transfer` on three
test seeds with a five-dynamics probe, `generate` for each MDP kind and for
`paper_tabular` seed 1002 at discount 0.8, a `transfer` over three test MDP
files at discounts 0.8, 0.9 and 0.8, and `probe`.
Every artifact lands under OUTDIR, and so do each command's stdout, stderr and
exit code (`runs/<name>.{stdout,stderr,exit}`).  All paths are relative to
OUTDIR, and stderr is written without this checkout's path or the line numbers
of warnings (`airl.py:704:` becomes `airl.py:`), so two output sets compare
with `diff -r OUTDIR_A OUTDIR_B` and code that only moves lines shows no
difference.  Each command runs under Python's default warning filter with a
handler that writes every warning to the command's stderr, so a caller that
records warnings itself, as pytest does, still gets them there.
The two-seed `reproduce-tabular` runs train both seeds as one stack.  OUTDIR
must be empty or absent.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIGS = {
    "train_paper_tabular.json": {
        "mdp": {"source": "generate", "kind": "paper_tabular", "seed": 0},
        "learner": {"variant": "airl_state_only", "iterations": 25,
                    "disc_steps_per_iter": 20, "disc_step_size": 0.2},
        "output_dir": "train_paper_tabular",
    },
    "train_airl_sampled.json": {
        "mdp": {"source": "generate", "kind": "paper_tabular", "seed": 0},
        "learner": {"variant": "airl_state_only", "mode": "sampled", "iterations": 25,
                    "n_policy_trajectories": 16},
        "output_dir": "train_airl_sampled",
    },
    "train_state_action.json": {
        "mdp": {"source": "generate", "kind": "paper_tabular", "seed": 0},
        "learner": {"variant": "airl_state_action", "iterations": 25,
                    "disc_steps_per_iter": 20, "disc_step_size": 0.2},
        "output_dir": "train_state_action",
    },
    "train_state_action_sampled.json": {
        "mdp": {"source": "generate", "kind": "paper_tabular", "seed": 0},
        "learner": {"variant": "airl_state_action", "mode": "sampled", "iterations": 25,
                    "n_policy_trajectories": 16},
        "output_dir": "train_state_action_sampled",
    },
    "train_counterexample_sampled.json": {
        "mdp": {"source": "generate", "kind": "counterexample"},
        "learner": {"variant": "airl_state_only", "mode": "sampled", "iterations": 25,
                    "n_policy_trajectories": 16},
        "output_dir": "train_counterexample_sampled",
    },
    "train_gan_gcl.json": {
        "mdp": {"source": "generate", "kind": "random", "states": 5, "actions": 2,
                "seed": 3, "horizon": 8, "reward_state": 2},
        "learner": {"variant": "gan_gcl_trajectory", "mode": "sampled",
                    "iterations": 6, "n_policy_trajectories": 8},
        "output_dir": "train_gan_gcl",
    },
    "train_stuck_policy_step.json": {
        "mdp": {"source": "generate", "kind": "random", "states": 4, "actions": 2,
                "seed": 3, "horizon": 8, "reward_state": 0},
        "learner": {"variant": "airl_state_action", "mode": "sampled", "iterations": 3,
                    "disc_step_size": 3e307},
        "output_dir": "train_stuck_policy_step",
    },
    "transfer.json": {
        "mdp": {"source": "generate", "kind": "paper_tabular", "seed": 0},
        "learner": {"variant": "airl_state_only", "iterations": 25,
                    "disc_steps_per_iter": 20, "disc_step_size": 0.2},
        "transfer": {"test_seeds": [1000, 1001, 1002], "n_dynamics": 5},
        "output_dir": "transfer",
    },
    "transfer_discounts.json": {
        "mdp": {"source": "generate", "kind": "paper_tabular", "seed": 0},
        "learner": {"variant": "airl_state_action", "iterations": 25,
                    "disc_steps_per_iter": 20, "disc_step_size": 0.2},
        "transfer": {"test_mdp_paths": ["generate/paper_tabular_discount_08.json",
                                        "generate/paper_tabular.json",
                                        "generate/paper_tabular_discount_08.json"]},
        "output_dir": "transfer_discounts",
    },
}

# (name, argv); later commands read files that earlier ones wrote.
COMMANDS = (
    ("generate_paper_tabular",
     ["generate", "--paper-tabular", "--seed", "0", "-o", "generate/paper_tabular.json"]),
    ("generate_paper_tabular_discount_08",
     ["generate", "--paper-tabular", "--seed", "1002", "--discount", "0.8",
      "-o", "generate/paper_tabular_discount_08.json"]),
    ("generate_counterexample",
     ["generate", "--counterexample", "modified", "-o", "generate/counterexample.json"]),
    ("generate_random",
     ["generate", "--states", "5", "--actions", "2", "--reward-state", "3", "--seed", "9",
      "-o", "generate/random.json"]),
    ("reproduce_tabular",
     ["reproduce-tabular", "--out", "reproduce", "--seeds", "0,1", "--iterations", "25"]),
    ("reproduce_tabular_smoke",
     ["reproduce-tabular", "--out", "reproduce_smoke", "--seeds", "0,1", "--smoke"]),
    ("train_paper_tabular", ["train", "--config", "configs/train_paper_tabular.json"]),
    ("train_airl_sampled", ["train", "--config", "configs/train_airl_sampled.json"]),
    ("train_state_action", ["train", "--config", "configs/train_state_action.json"]),
    ("train_state_action_sampled",
     ["train", "--config", "configs/train_state_action_sampled.json"]),
    ("train_counterexample_sampled",
     ["train", "--config", "configs/train_counterexample_sampled.json"]),
    ("train_gan_gcl", ["train", "--config", "configs/train_gan_gcl.json"]),
    ("train_stuck_policy_step", ["train", "--config", "configs/train_stuck_policy_step.json"]),
    ("transfer", ["transfer", "--config", "configs/transfer.json"]),
    ("transfer_discounts", ["transfer", "--config", "configs/transfer_discounts.json"]),
    ("probe",
     ["probe", "--mdp", "generate/paper_tabular.json",
      "--reward", "train_paper_tabular/learned_reward.json",
      "--n-dynamics", "5", "--seed", "1", "--out", "probe.json"]),
)


def portable_stderr(text: str) -> str:
    """`text` without this checkout's path or the line numbers of warnings."""
    return re.sub(r"\.py:\d+:", ".py:", text.replace(str(SRC.parent) + os.sep, ""))


def _show_on(stream):
    """A `warnings.showwarning` that writes each warning to `stream`."""
    def show(message, category, filename, lineno, file=None, line=None):
        stream.write(warnings.formatwarning(message, category, filename, lineno, line))
    return show


def write_golden(outdir: Path) -> None:
    sys.path.insert(0, str(SRC))
    import irl_lab.cli

    (outdir / "configs").mkdir()
    (outdir / "runs").mkdir()
    for name, doc in CONFIGS.items():
        (outdir / "configs" / name).write_text(json.dumps(doc, indent=2) + "\n")
    home = Path.cwd()
    os.chdir(outdir)
    try:
        for name, argv in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
                  warnings.catch_warnings()):
                warnings.simplefilter("default")
                warnings.showwarning = _show_on(stderr)
                code = irl_lab.cli.main(argv)
            Path("runs", f"{name}.stdout").write_text(stdout.getvalue())
            Path("runs", f"{name}.stderr").write_text(portable_stderr(stderr.getvalue()))
            Path("runs", f"{name}.exit").write_text(f"{code}\n")
            print(f"{name}: exit {code}")
    finally:
        os.chdir(home)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        print(f"error: {outdir} is not empty", file=sys.stderr)
        return 2
    write_golden(outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
