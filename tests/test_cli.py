import argparse
import concurrent.futures
import json
import multiprocessing.process
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import irl_lab
import irl_lab.airl
import irl_lab.cli
from irl_lab.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_THRESHOLD,
    EXIT_USAGE,
    REPRO_TEST_SEED_OFFSET,
    _aggregate_curves,
    _build_mdp,
    _criteria_blocks,
    _heatmap_text,
    load_experiment_config,
    main,
)
from irl_lab._fmt import json_text
from irl_lab.mdp import (RewardTable, load_mdp, mdp_to_dict, paper_tabular_mdp, random_mdp,
                         save_mdp)
from irl_lab.transfer import (
    RECOVERY_MAX_ERROR_STATE_ONLY,
    RECOVERY_MAX_F_ADVANTAGE_ERROR,
    RECOVERY_MIN_ERROR_STATE_ACTION,
    TRANSFER_MAX_MEAN_SCORE_STATE_ACTION,
    TRANSFER_MIN_MEAN_SCORE_STATE_ONLY,
)

from conftest import record_calls


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, **parts):
    doc = {
        "mdp": {"source": "generate", "kind": "random", "states": 4, "actions": 2,
                "seed": 3, "horizon": 8},
        "learner": {"iterations": 5},
    }
    doc.update(parts)
    path.write_text(json.dumps(doc))
    return str(path)


def read_grid(path):
    """Parse a heatmap CSV back into a (state, action) float array."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]
    return np.array([[float(c) for c in row[1:]] for row in rows])


# What a console-script wrapper does for "module:func": import the module,
# name the program and exit with the function's return value.
SCRIPT_WRAPPER = """
import importlib, sys
module, _, attr = sys.argv.pop(1).partition(":")
func = getattr(importlib.import_module(module), attr)
sys.argv[0] = "irl-lab"
sys.exit(func())
"""

COMMANDS = {"generate", "train", "transfer", "reproduce-tabular", "probe"}


def assert_irl_lab_help(proc):
    """Check an `irl-lab --help` run: clean exit, program name, every command."""
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: irl-lab")
    listed = re.search(r"\{([a-z,-]+)\}", proc.stdout)
    assert listed is not None, proc.stdout
    assert COMMANDS <= set(listed.group(1).split(","))


class TestGenerate:
    def test_benchmark_family_file(self, tmp_path, capsys):
        out = tmp_path / "mdp.json"
        code, stdout, _ = run_cli(capsys, "generate", "--paper-tabular",
                                  "--seed", "7", "-o", str(out))
        assert code == EXIT_OK
        assert "validation: ok" in stdout
        assert "decomposable:" in stdout
        mdp = load_mdp(out)
        assert (mdp.n_states, mdp.n_actions) == (16, 4)

    def test_repeated_generation_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "generate", "--paper-tabular", "--seed", "3", "-o", str(a))
        run_cli(capsys, "generate", "--paper-tabular", "--seed", "3", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_counterexample_reports_linked_classes(self, tmp_path, capsys):
        out = tmp_path / "ce.json"
        code, stdout, _ = run_cli(capsys, "generate", "--counterexample",
                                  "original", "-o", str(out))
        assert code == EXIT_OK
        assert "decomposable: False" in stdout
        assert "{0} {1,2}" in stdout
        assert load_mdp(out).n_states == 3
        code, _, _ = run_cli(capsys, "generate", "--counterexample", "modified",
                             "-o", str(tmp_path / "ce2.json"))
        assert code == EXIT_OK

    def test_tiny_random_mdp_is_clean(self, tmp_path, capsys):
        code, stdout, _ = run_cli(capsys, "generate", "--states", "2",
                                  "--actions", "1", "--seed", "0",
                                  "-o", str(tmp_path / "tiny.json"))
        assert code == EXIT_OK
        assert "validation: ok" in stdout

    def test_states_without_actions_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "generate", "--states", "3",
                                  "-o", str(tmp_path / "x.json"))
        assert code == EXIT_USAGE
        assert "error:" in stderr

    def test_missing_selector_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "generate", "-o", str(tmp_path / "x.json"))
        assert code == EXIT_USAGE

    def test_unwritable_target_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code, _, _ = run_cli(capsys, "generate", "--paper-tabular",
                             "-o", str(blocker / "mdp.json"))
        assert code == EXIT_IO

    def test_flags_build_the_mdp_a_config_block_names(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, _, _ = run_cli(capsys, "generate", "--states", "5", "--actions", "2",
                             "--reward-state", "3", "--seed", "9", "-o", str(out))
        assert code == EXIT_OK
        cfg = write_config(tmp_path / "c.json", mdp={
            "source": "generate", "kind": "random", "states": 5, "actions": 2,
            "reward_state": 3, "seed": 9})
        built = _build_mdp(load_experiment_config(cfg)["mdp"])
        assert json.loads(out.read_text()) == mdp_to_dict(built)

    @pytest.mark.parametrize("reward_state", ["5", "-1"])
    def test_out_of_range_reward_state_writes_nothing(self, tmp_path, capsys,
                                                      reward_state):
        out = tmp_path / "m.json"
        code, _, stderr = run_cli(capsys, "generate", "--states", "5", "--actions", "2",
                                  "--reward-state", reward_state, "-o", str(out))
        assert code == EXIT_USAGE and "reward_state" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, kind", [
        pytest.param(["--paper-tabular", "--states", "3", "--actions", "2"], "--states",
                     "paper_tabular", id="paper-tabular-states"),
        pytest.param(["--paper-tabular", "--actions", "2"], "--actions", "paper_tabular",
                     id="paper-tabular-actions"),
        pytest.param(["--paper-tabular", "--reward-state", "3"], "--reward-state",
                     "paper_tabular", id="paper-tabular-reward-state"),
        pytest.param(["--counterexample", "--seed", "4"], "--seed", "counterexample",
                     id="counterexample-seed"),
        pytest.param(["--counterexample", "modified", "--states", "3", "--actions", "2"],
                     "--states", "counterexample", id="counterexample-states"),
        pytest.param(["--counterexample", "--reward-state", "0"], "--reward-state",
                     "counterexample", id="counterexample-reward-state"),
    ])
    def test_flag_the_kind_does_not_take_writes_nothing(self, tmp_path, capsys, argv, flag,
                                                        kind):
        out = tmp_path / "m.json"
        code, stdout, stderr = run_cli(capsys, "generate", *argv, "-o", str(out))
        assert code == EXIT_USAGE and stdout == ""
        assert stderr == f"error: {flag} does not apply to a {kind} MDP\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, block", [
        (["--paper-tabular"], {"kind": "paper_tabular"}),
        (["--counterexample"], {"kind": "counterexample"}),
        (["--states", "5", "--actions", "3"], {"kind": "random", "states": 5, "actions": 3}),
    ], ids=["paper-tabular", "counterexample", "random"])
    def test_absent_flags_take_the_config_defaults(self, tmp_path, capsys, argv, block):
        out = tmp_path / "m.json"
        assert run_cli(capsys, "generate", *argv, "-o", str(out))[0] == EXIT_OK
        cfg = write_config(tmp_path / "c.json", mdp={"source": "generate", **block})
        built = _build_mdp(load_experiment_config(cfg)["mdp"])
        assert json.loads(out.read_text()) == mdp_to_dict(built)

    def test_invalid_mdp_reported_and_flagged(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "generate", "--paper-tabular",
                                  "--discount", "1.0",
                                  "-o", str(tmp_path / "bad.json"))
        assert code == EXIT_NUMERIC
        assert stderr == "invalid: discount 1.0 is not strictly inside (0, 1)\n"


class TestTrain:
    def test_writes_the_full_artifact_set(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out))
        code, stdout, _ = run_cli(capsys, "train", "--config", cfg)
        assert code == EXIT_OK
        assert "recovery_error:" in stdout
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "iter,disc_loss,true_return,reward_error,g_delta"
        assert len(history) == 6
        assert (out / "heatmap.csv").read_text().startswith("# mean-centered")
        doc = json.loads((out / "learned_reward.json").read_text())
        assert set(doc) == {"learned_reward", "recovery_error",
                            "f_advantage_error", "discriminator"}
        hist_doc = json.loads((out / "history.json").read_text())
        assert len(hist_doc["disc_loss"]) == 5

    def test_history_is_computed_once_for_both_formats(self, tmp_path, capsys, monkeypatch):
        # history.csv and history.json come from one read of the columns
        calls, evaluate = [], irl_lab.airl.evaluate_return
        monkeypatch.setattr(irl_lab.airl, "evaluate_return",
                            lambda *args: calls.append(args) or evaluate(*args))
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out))
        assert run_cli(capsys, "train", "--config", cfg)[0] == EXIT_OK
        assert (out / "history.csv").exists() and (out / "history.json").exists()
        assert len(calls) == 1

    def test_zero_iterations_yields_a_zero_heatmap(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out),
                           learner={"iterations": 0})
        assert run_cli(capsys, "train", "--config", cfg)[0] == EXIT_OK
        grid = read_grid(out / "heatmap.csv")
        npt_all_zero = np.max(np.abs(grid)) == 0.0
        assert npt_all_zero
        assert len((out / "history.csv").read_text().splitlines()) == 1

    def test_huge_finite_table_gives_a_finite_heatmap(self, tmp_path):
        # the sum of this table overflows; its mean, taken at the scale 2**-64,
        # does not, and every centred cell stays finite
        values = np.array([[-4.6e307, -5.7e305], [5.3e305, -6.8e307],
                           [9.5e305, -6.6e307], [-7.3e307, -2.3e306]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = _heatmap_text(values, 2)
        (tmp_path / "heatmap.csv").write_text(text)
        grid = read_grid(tmp_path / "heatmap.csv")
        mean = (values * 2.0**-64).mean() * 2.0**64
        assert np.isfinite(grid).all()
        assert grid.tolist() == (values - mean).tolist()

    def test_benchmark_heatmap_peaks_at_the_rewarded_state(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        out = tmp_path / "run"
        cfg.write_text(json.dumps({
            "mdp": {"source": "generate", "kind": "paper_tabular", "seed": 0},
            "learner": {"variant": "airl_state_only", "iterations": 400,
                        "disc_steps_per_iter": 20, "disc_step_size": 0.2},
            "output_dir": str(out),
        }))
        assert run_cli(capsys, "train", "--config", str(cfg))[0] == EXIT_OK
        grid = read_grid(out / "heatmap.csv")
        assert grid.shape == (16, 4)
        state, _ = np.unravel_index(grid.argmax(), grid.shape)
        assert state == 0

    def test_same_config_twice_is_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.json", output_dir=str(out))
            run_cli(capsys, "train", "--config", cfg)
            outs.append(out)
        for fname in ("history.csv", "heatmap.csv", "history.json",
                      "learned_reward.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_format_selects_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out))
        run_cli(capsys, "train", "--config", cfg, "--format", "json")
        assert not (out / "history.csv").exists()
        assert not (out / "heatmap.csv").exists()
        assert (out / "history.json").exists()
        assert (out / "learned_reward.json").exists()

    def test_seed_override_changes_the_run(self, tmp_path, capsys):
        docs = []
        for seed in ("1", "2"):
            out = tmp_path / f"run{seed}"
            cfg = write_config(tmp_path / f"c{seed}.json", output_dir=str(out))
            run_cli(capsys, "train", "--config", cfg, "--seed", seed)
            docs.append((out / "learned_reward.json").read_text())
        assert docs[0] != docs[1]

    def test_mdp_from_file(self, tmp_path, capsys):
        mdp_file = tmp_path / "m.json"
        run_cli(capsys, "generate", "--states", "3", "--actions", "2",
                "--seed", "1", "-o", str(mdp_file))
        out = tmp_path / "run"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "mdp": {"source": "file", "path": str(mdp_file)},
            "learner": {"iterations": 3},
            "output_dir": str(out),
        }))
        assert run_cli(capsys, "train", "--config", str(cfg))[0] == EXIT_OK

    def test_trajectory_baseline_variant(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path / "c.json", output_dir=str(out),
            learner={"variant": "gan_gcl_trajectory", "mode": "sampled",
                     "iterations": 4, "n_policy_trajectories": 8},
        )
        assert run_cli(capsys, "train", "--config", cfg)[0] == EXIT_OK
        doc = json.loads((out / "learned_reward.json").read_text())
        assert doc["learned_reward"]["kind"] == "state_action"
        assert "discriminator" not in doc

    def test_strict_config_parsing_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mdp": {"source": "generate",
                                           "kind": "paper_tabular"},
                                   "learner": {}, "surprise": 1}))
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "'surprise'" in stderr and "experiment config" in stderr

        cfg.write_text(json.dumps({"mdp": {"source": "generate",
                                           "kind": "paper_tabular"},
                                   "learner": {"step": 1}}))
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg))
        assert code == EXIT_USAGE and "'step'" in stderr

        # the temperature is fixed at 1: temperature w is the reward scaled by 1 / w
        cfg.write_text(json.dumps({"mdp": {"source": "generate",
                                           "kind": "paper_tabular"},
                                   "learner": {"entropy_weight": 1.0},
                                   "output_dir": str(tmp_path / "run")}))
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg))
        assert code == EXIT_USAGE and "'entropy_weight'" in stderr
        assert not (tmp_path / "run").exists()

        cfg.write_text(json.dumps({"mdp": {"source": "generate",
                                           "kind": "paper_tabular",
                                           "flavor": "hot"},
                                   "learner": {}}))
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg))
        assert code == EXIT_USAGE and "'flavor'" in stderr

        cfg.write_text(json.dumps({"learner": {}}))
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg))
        assert code == EXIT_USAGE and "'mdp'" in stderr

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "not valid JSON" in stderr

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "train", "--config",
                             str(tmp_path / "absent.json"))
        assert code == EXIT_IO

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_maps_to_numeric_exit(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out),
                           learner={"iterations": 2, "disc_step_size": 1.7e308})
        with pytest.warns(RuntimeWarning, match="policy step .* did not converge"):
            code, _, stderr = run_cli(capsys, "train", "--config", cfg)
        assert code == EXIT_NUMERIC
        assert "diverged" in stderr and "iteration 0" in stderr
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("reward_state", [4, -1])
    def test_out_of_range_reward_state_is_usage_error(self, tmp_path, capsys,
                                                      reward_state):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out),
                           mdp={"source": "generate", "kind": "random", "states": 4,
                                "actions": 2, "reward_state": reward_state})
        code, _, stderr = run_cli(capsys, "train", "--config", cfg)
        assert code == EXIT_USAGE and "reward_state" in stderr
        assert not out.exists()

    def test_invalid_mdp_maps_to_numeric_exit(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out),
                           mdp={"source": "generate", "kind": "random", "states": 4,
                                "actions": 2, "discount": 1.0})
        code, _, stderr = run_cli(capsys, "train", "--config", cfg)
        assert code == EXIT_NUMERIC
        assert "invalid:" in stderr and "discount" in stderr
        assert "Traceback" not in stderr
        assert not out.exists()


class TestTransferCmd:
    def transfer_config(self, tmp_path, **extra):
        out = tmp_path / "run"
        block = {"test_seeds": [11, 12], "n_dynamics": 2}
        block.update(extra)
        return write_config(tmp_path / "c.json", output_dir=str(out),
                            learner={"iterations": 10}, transfer=block), out

    def test_writes_curves_and_summary(self, tmp_path, capsys):
        cfg, out = self.transfer_config(tmp_path)
        code, stdout, _ = run_cli(capsys, "transfer", "--config", cfg)
        assert code == EXIT_OK
        assert "mean normalized score" in stdout
        for fname in ("curve_seed11.csv", "curve_seed12.csv",
                      "curve_aggregate.csv", "summary.json"):
            assert (out / fname).exists()
        summary = json.loads((out / "summary.json").read_text())
        scores = [r["normalized_score"] for r in summary["results"]]
        np.testing.assert_allclose(summary["mean_score"], np.mean(scores))
        assert summary["probe"]["fraction"] <= 1.0
        assert len(summary["probe"]["agreements"]) == 2
        assert set(summary["results"][0]["returns"]) == {
            "ground_truth_optimal", "reoptimized_on_learned", "uniform_random"}
        agg = (out / "curve_aggregate.csv").read_text().splitlines()
        assert agg[1] == "vi_sweeps,mean_return,min_return,max_return"

    def test_no_probe_block_without_dynamics(self, tmp_path, capsys):
        cfg, out = self.transfer_config(tmp_path, n_dynamics=0)
        run_cli(capsys, "transfer", "--config", cfg)
        assert "probe" not in json.loads((out / "summary.json").read_text())

    def test_file_based_test_dynamics(self, tmp_path, capsys):
        test_file = tmp_path / "test_mdp.json"
        run_cli(capsys, "generate", "--states", "4", "--actions", "2",
                "--seed", "99", "-o", str(test_file))
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path / "c.json", output_dir=str(out),
            learner={"iterations": 5},
            transfer={"test_mdp_paths": [str(test_file)]},
        )
        assert run_cli(capsys, "transfer", "--config", cfg)[0] == EXIT_OK
        assert (out / "curve_test0.csv").exists()

    def test_invalid_test_file_is_numeric_error(self, tmp_path, capsys):
        test_file = tmp_path / "undiscounted.json"
        run_cli(capsys, "generate", "--states", "4", "--actions", "2",
                "--discount", "1.0", "-o", str(test_file))
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out),
                           transfer={"test_mdp_paths": [str(test_file)]})
        code, _, stderr = run_cli(capsys, "transfer", "--config", cfg)
        assert code == EXIT_NUMERIC
        assert "invalid:" in stderr and "discount" in stderr
        assert not out.exists()

    def test_degenerate_reference_returns_are_usage_error(self, tmp_path, capsys):
        # Under a zero reward the optimal and the uniform policy return the
        # same, so the normalized score has no scale.
        test_file = tmp_path / "flat.json"
        save_mdp(random_mdp(4, 2, RewardTable("state_only", np.zeros(4)), 5), test_file)
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out),
                           transfer={"test_mdp_paths": [str(test_file)]})
        code, _, stderr = run_cli(capsys, "transfer", "--config", cfg)
        assert code == EXIT_USAGE and "degenerate" in stderr
        assert not any(out.iterdir())

    def test_failure_removes_the_files_already_written(self, tmp_path, capsys):
        # curve_test0.csv is written before the second test MDP's degenerate
        # span fails the command, and must not outlive the failure
        good, flat = tmp_path / "good.json", tmp_path / "flat.json"
        save_mdp(random_mdp(4, 2, RewardTable("state_only", np.eye(4)[0]), 5), good)
        save_mdp(random_mdp(4, 2, RewardTable("state_only", np.zeros(4)), 5), flat)
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out),
                           transfer={"test_mdp_paths": [str(good), str(flat)]})
        code, _, stderr = run_cli(capsys, "transfer", "--config", cfg)
        assert code == EXIT_USAGE and "degenerate" in stderr
        assert out.is_dir() and not any(out.iterdir())

    def test_shape_mismatched_test_file_rejected(self, tmp_path, capsys):
        test_file = tmp_path / "wide.json"
        run_cli(capsys, "generate", "--states", "5", "--actions", "3",
                "--seed", "1", "-o", str(test_file))
        cfg = write_config(tmp_path / "c.json",
                           output_dir=str(tmp_path / "run"),
                           transfer={"test_mdp_paths": [str(test_file)]})
        assert run_cli(capsys, "transfer", "--config", cfg)[0] == EXIT_USAGE

    def test_repeated_test_seed_is_named(self, tmp_path, capsys):
        cfg, out = self.transfer_config(tmp_path, test_seeds=[5, 5, 6])
        code, _, stderr = run_cli(capsys, "transfer", "--config", cfg)
        assert code == EXIT_USAGE
        assert "'test_seeds'" in stderr and "repeats seed 5" in stderr
        assert not out.exists()

    def test_negative_probe_count_is_usage_error(self, tmp_path, capsys):
        cfg, out = self.transfer_config(tmp_path, n_dynamics=-1)
        code, _, stderr = run_cli(capsys, "transfer", "--config", cfg)
        assert code == EXIT_USAGE and "n_dynamics" in stderr
        assert not out.exists()

    def test_transfer_block_validation(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "o"))
        assert run_cli(capsys, "transfer", "--config", cfg)[0] == EXIT_USAGE

        cfg = write_config(tmp_path / "c2.json", output_dir=str(tmp_path / "o"),
                           transfer={"test_seeds": [1],
                                     "test_mdp_paths": ["x.json"]})
        code, _, stderr = run_cli(capsys, "transfer", "--config", cfg)
        assert code == EXIT_USAGE and "exactly one" in stderr

        cfg = write_config(
            tmp_path / "c3.json", output_dir=str(tmp_path / "o"),
            learner={"variant": "gan_gcl_trajectory", "mode": "sampled"},
            transfer={"test_seeds": [1]},
        )
        assert run_cli(capsys, "transfer", "--config", cfg)[0] == EXIT_USAGE


class TestReproduceTabular:
    def test_smoke_manifest_structure(self, tmp_path, capsys):
        out = tmp_path / "repro"
        code, stdout, _ = run_cli(capsys, "reproduce-tabular", "--out", str(out),
                                  "--seeds", "0", "--smoke")
        assert code == EXIT_OK
        assert "thresholds skipped (smoke run)" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["smoke"] is True
        assert manifest["all_pass"] == "skipped"
        assert manifest["seeds"] == [0]
        assert manifest["learner"]["iterations"] == 0
        assert set(manifest["experiments"]) == {
            "recovery_state_only", "recovery_state_action",
            "transfer_state_only", "transfer_state_action"}
        for block in manifest["experiments"].values():
            assert block["pass"] == "skipped"
            assert "rule" in block
        assert manifest["experiments"]["recovery_state_only"]["rule"] == \
            "max recovery_error <= 0.1"
        assert len(manifest["per_seed"]) == 1
        assert set(manifest["per_seed"][0]["variants"]) == {
            "airl_state_only", "airl_state_action"}
        for fname in ("heatmap_truth_seed0.csv", "heatmap_state_only_seed0.csv",
                      "heatmap_state_action_seed0.csv", "curve_state_only_seed0.csv",
                      "curve_state_action_seed0.csv", "curve_state_only_aggregate.csv",
                      "curve_state_action_aggregate.csv"):
            assert (out / fname).exists()

    def test_smoke_reruns_are_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run_cli(capsys, "reproduce-tabular", "--out", str(out),
                    "--seeds", "0,1", "--smoke")
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for fname in files:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_undertrained_run_fails_thresholds(self, tmp_path, capsys):
        out = tmp_path / "repro"
        code, stdout, _ = run_cli(capsys, "reproduce-tabular", "--out", str(out),
                                  "--seeds", "0", "--iterations", "2")
        assert code == EXIT_THRESHOLD
        assert "all_pass: False" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["all_pass"] is False
        assert manifest["experiments"]["recovery_state_only"]["pass"] is False

    def test_reproduction_never_reads_the_training_history(self, tmp_path, capsys,
                                                           monkeypatch):
        plain, patched = tmp_path / "plain", tmp_path / "patched"
        args = ("reproduce-tabular", "--seeds", "0", "--iterations", "3", "--out")
        plain_code = run_cli(capsys, *args, str(plain))[0]

        def unexpected(*a, **k):
            raise AssertionError("history diagnostic computed")

        monkeypatch.setattr(irl_lab.airl, "evaluate_return", unexpected)
        monkeypatch.setattr(irl_lab.airl, "centered_sup_distance", unexpected)
        monkeypatch.setattr(irl_lab.airl._Problem, "loss", unexpected)
        assert run_cli(capsys, *args, str(patched))[0] == plain_code == EXIT_THRESHOLD
        files = sorted(p.name for p in plain.iterdir())
        assert sorted(p.name for p in patched.iterdir()) == files
        for name in files:
            assert (patched / name).read_bytes() == (plain / name).read_bytes()

    def test_stacked_seeds_match_separate_runs(self, tmp_path, capsys):
        # the seeds of one run train as one stack; each seed's files and
        # manifest entry are those of a run on that seed alone
        args = ("reproduce-tabular", "--iterations", "3", "--out")
        both = tmp_path / "both"
        assert run_cli(capsys, *args, str(both), "--seeds", "0,1")[0] == EXIT_THRESHOLD
        per_seed = json.loads((both / "manifest.json").read_text())["per_seed"]
        for i, seed in enumerate((0, 1)):
            alone = tmp_path / f"seed{seed}"
            assert run_cli(capsys, *args, str(alone), "--seeds", str(seed))[0] == EXIT_THRESHOLD
            names = sorted(p.name for p in alone.iterdir() if p.name.endswith(f"_seed{seed}.csv"))
            assert len(names) == 5
            for name in names:
                assert (both / name).read_bytes() == (alone / name).read_bytes(), name
            manifest = json.loads((alone / "manifest.json").read_text())
            assert json_text(per_seed[i]) == json_text(manifest["per_seed"][0])

    def test_each_seed_is_evaluated_in_one_call(self, tmp_path, capsys, monkeypatch):
        # two seeds under two variants: one call per seed's test MDP, one reward per variant
        calls = record_calls(monkeypatch, irl_lab.cli, "evaluate_on_new_dynamics")
        assert run_cli(capsys, "reproduce-tabular", "--out", str(tmp_path / "repro"),
                       "--seeds", "0,1", "--smoke")[0] == EXIT_OK
        assert [len(rewards) for (_, rewards), _ in calls] == [2, 2]
        assert [mdp_to_dict(test_mdp) for (test_mdp, _), _ in calls] == [
            mdp_to_dict(paper_tabular_mdp(seed + REPRO_TEST_SEED_OFFSET)) for seed in (0, 1)]

    def test_worker_pool_matches_serial_run(self, tmp_path, capsys):
        # seeds split over worker processes, one run per seed, give the files
        # of the one-process run on all of them
        args = ("reproduce-tabular", "--iterations", "3", "--out")
        serial = tmp_path / "serial"
        assert run_cli(capsys, *args, str(serial), "--seeds", "0,1")[0] == EXIT_THRESHOLD
        argvs = [[*args, str(tmp_path / f"worker{seed}"), "--seeds", str(seed)]
                 for seed in (0, 1)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(main, argvs)) == [EXIT_THRESHOLD] * 2
        for seed in (0, 1):
            worker = tmp_path / f"worker{seed}"
            names = sorted(p.name for p in worker.iterdir() if p.name.endswith(f"_seed{seed}.csv"))
            assert len(names) == 5
            for name in names:
                assert (worker / name).read_bytes() == (serial / name).read_bytes(), name

    def test_one_seed_runs_without_a_pool(self, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-seed run started a worker process")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_pool)
        code, _, _ = run_cli(capsys, "reproduce-tabular", "--out", str(tmp_path / "one"),
                             "--seeds", "0", "--smoke")
        assert code == EXIT_OK

    def test_bad_inputs(self, tmp_path, capsys):
        out = str(tmp_path / "x")
        code, _, _ = run_cli(capsys, "reproduce-tabular", "--out", out,
                             "--seeds", "a,b", "--smoke")
        assert code == EXIT_USAGE
        code, _, _ = run_cli(capsys, "reproduce-tabular", "--out", out,
                             "--seeds", "", "--smoke")
        assert code == EXIT_USAGE
        code, _, stderr = run_cli(capsys, "reproduce-tabular", "--out", out,
                                  "--seeds", "0,0", "--smoke")
        assert code == EXIT_USAGE
        assert "--seeds" in stderr and "repeats seed 0" in stderr
        assert not Path(out).exists()

    @pytest.mark.parametrize("step_size", ["nan", "inf"])
    def test_non_finite_step_size_is_usage_error(self, tmp_path, capsys, step_size):
        # a NaN step size would otherwise land in manifest.json, which is then
        # not valid JSON; an infinite one makes the first gradient step inf - inf
        out = tmp_path / "repro"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, stderr = run_cli(capsys, "reproduce-tabular", "--out", str(out),
                                      "--seeds", "0", "--iterations", "2",
                                      "--step-size", step_size)
        assert code == EXIT_USAGE
        assert stderr == "error: disc_step_size must be a finite number > 0\n"
        assert not out.exists()


def synthetic_per_seed(so_errors, sa_errors, sa_f_errors, so_scores, sa_scores):
    """Per-seed results shaped like `_reproduce_seeds`', one entry per seed."""
    return [
        {"seed": seed, "variants": {
            "airl_state_only": {"recovery_error": so_error, "normalized_score": so_score},
            "airl_state_action": {"recovery_error": sa_error, "f_advantage_error": sa_f_error,
                                  "normalized_score": sa_score},
        }}
        for seed, (so_error, sa_error, sa_f_error, so_score, sa_score) in enumerate(
            zip(so_errors, sa_errors, sa_f_errors, so_scores, sa_scores))
    ]


# Two seeds whose reduced value sits exactly at each bound: max and min reach
# it on one seed, the mean of two equal values is the value itself.
AT_THE_BOUNDS = dict(
    so_errors=[RECOVERY_MAX_ERROR_STATE_ONLY, 0.05],
    sa_errors=[RECOVERY_MIN_ERROR_STATE_ACTION, 0.9],
    sa_f_errors=[0.01, RECOVERY_MAX_F_ADVANTAGE_ERROR],
    so_scores=[TRANSFER_MIN_MEAN_SCORE_STATE_ONLY] * 2,
    sa_scores=[TRANSFER_MAX_MEAN_SCORE_STATE_ACTION] * 2,
)


class TestCriteriaBlocks:
    """manifest.json's threshold blocks, built from `transfer.REPRODUCTION_CRITERIA`."""

    def test_blocks_at_the_bounds(self):
        blocks = _criteria_blocks(synthetic_per_seed(**AT_THE_BOUNDS), smoke=False)
        assert blocks == {
            "recovery_state_only": {
                "errors": [0.1, 0.05],
                "max_error": 0.1,
                "rule": "max recovery_error <= 0.1",
                "pass": True,
            },
            "recovery_state_action": {
                "errors": [0.3, 0.9],
                "min_error": 0.3,
                "f_advantage_errors": [0.01, 0.05],
                "max_f_advantage_error": 0.05,
                "rule": "min recovery_error > 0.3 and max f_advantage_error <= 0.05",
                "pass": False,
            },
            "transfer_state_only": {
                "scores": [0.95, 0.95],
                "mean_score": 0.95,
                "rule": "mean normalized_score >= 0.95",
                "pass": True,
            },
            "transfer_state_action": {
                "scores": [0.3, 0.3],
                "mean_score": 0.3,
                "rule": "mean normalized_score <= 0.3",
                "pass": True,
            },
        }
        assert list(blocks) == ["recovery_state_only", "recovery_state_action",
                                "transfer_state_only", "transfer_state_action"]
        assert all(type(block["pass"]) is bool for block in blocks.values())

    @pytest.mark.parametrize("key, index, direction, block, passes", [
        ("so_errors", 0, +1, "recovery_state_only", False),
        ("so_errors", 0, -1, "recovery_state_only", True),
        ("sa_errors", 0, +1, "recovery_state_action", True),
        ("sa_errors", 0, -1, "recovery_state_action", False),
        ("so_scores", None, -1, "transfer_state_only", False),
        ("so_scores", None, +1, "transfer_state_only", True),
        ("sa_scores", None, +1, "transfer_state_action", False),
        ("sa_scores", None, -1, "transfer_state_action", True),
    ])
    def test_one_ulp_either_side_of_a_bound(self, key, index, direction, block, passes):
        values = {name: list(v) for name, v in AT_THE_BOUNDS.items()}
        for i in range(2) if index is None else [index]:
            values[key][i] = np.nextafter(values[key][i], direction * np.inf)
        blocks = _criteria_blocks(synthetic_per_seed(**values), smoke=False)
        assert blocks[block]["pass"] is passes

    def test_a_block_fails_when_any_of_its_rows_fails(self):
        values = {name: list(v) for name, v in AT_THE_BOUNDS.items()}
        values["sa_errors"] = [0.9, 0.9]
        assert _criteria_blocks(synthetic_per_seed(**values), False)["recovery_state_action"][
            "pass"] is True
        values["sa_f_errors"] = [0.01, np.nextafter(RECOVERY_MAX_F_ADVANTAGE_ERROR, 1.0)]
        assert _criteria_blocks(synthetic_per_seed(**values), False)["recovery_state_action"][
            "pass"] is False

    def test_smoke_skips_every_verdict(self):
        blocks = _criteria_blocks(synthetic_per_seed(**AT_THE_BOUNDS), smoke=True)
        assert [block["pass"] for block in blocks.values()] == ["skipped"] * 4
        assert blocks["recovery_state_only"]["rule"] == "max recovery_error <= 0.1"


class TestProbe:
    def make_inputs(self, tmp_path, capsys):
        mdp_file = tmp_path / "mdp.json"
        run_cli(capsys, "generate", "--paper-tabular", "-o", str(mdp_file))
        reward_file = tmp_path / "reward.json"
        values = [0.0] * 16
        values[0] = 1.0
        reward_file.write_text(json.dumps({"kind": "state_only",
                                           "values": values}))
        return mdp_file, reward_file

    def test_truth_probes_clean(self, tmp_path, capsys):
        mdp_file, reward_file = self.make_inputs(tmp_path, capsys)
        out = tmp_path / "probe.json"
        code, stdout, _ = run_cli(capsys, "probe", "--mdp", str(mdp_file),
                                  "--reward", str(reward_file),
                                  "--n-dynamics", "5", "--out", str(out))
        assert code == EXIT_OK
        assert "agreement fraction: 5/5 = 1.0000" in stdout
        doc = json.loads(out.read_text())
        assert doc["fraction"] == 1.0
        assert doc["agreements"] == [True] * 5

    def test_accepts_training_output_wrapper(self, tmp_path, capsys):
        mdp_file, reward_file = self.make_inputs(tmp_path, capsys)
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps(
            {"learned_reward": json.loads(reward_file.read_text())}))
        code, stdout, _ = run_cli(capsys, "probe", "--mdp", str(mdp_file),
                                  "--reward", str(wrapped), "--n-dynamics", "3")
        assert code == EXIT_OK and "3/3" in stdout

    def test_invalid_reward_file(self, tmp_path, capsys):
        mdp_file, reward_file = self.make_inputs(tmp_path, capsys)
        reward_file.write_text(json.dumps({"kind": "mystery", "values": [1.0]}))
        code, _, stderr = run_cli(capsys, "probe", "--mdp", str(mdp_file),
                                  "--reward", str(reward_file), "--n-dynamics", "1")
        assert code == EXIT_USAGE and "invalid reward file" in stderr

    def test_mis_shaped_reward_is_named(self, tmp_path, capsys):
        # checked against the MDP before the probe broadcasts it over new dynamics
        mdp_file, reward_file = self.make_inputs(tmp_path, capsys)
        reward_file.write_text(json.dumps({"kind": "state_only", "values": [1.0, 0.0]}))
        code, stdout, stderr = run_cli(capsys, "probe", "--mdp", str(mdp_file),
                                       "--reward", str(reward_file), "--n-dynamics", "1")
        assert code == EXIT_USAGE and stdout == ""
        assert stderr == (f"error: invalid reward file {str(reward_file)!r}: state_only "
                          "reward table must have shape (16,), got (2,)\n")

    def test_invalid_mdp_file_is_numeric_error(self, tmp_path, capsys):
        _, reward_file = self.make_inputs(tmp_path, capsys)
        mdp_file = tmp_path / "undiscounted.json"
        run_cli(capsys, "generate", "--paper-tabular", "--discount", "1.0",
                "-o", str(mdp_file))
        code, _, stderr = run_cli(capsys, "probe", "--mdp", str(mdp_file),
                                  "--reward", str(reward_file), "--n-dynamics", "1")
        assert code == EXIT_NUMERIC
        assert "invalid:" in stderr and "discount" in stderr

    @pytest.mark.parametrize("n_dynamics", ["0", "-2"])
    def test_nothing_to_probe_is_usage_error(self, tmp_path, capsys, n_dynamics):
        # an empty probe has no agreement fraction to print or write
        mdp_file, reward_file = self.make_inputs(tmp_path, capsys)
        out = tmp_path / "probe.json"
        code, stdout, stderr = run_cli(capsys, "probe", "--mdp", str(mdp_file),
                                       "--reward", str(reward_file),
                                       "--n-dynamics", n_dynamics, "--out", str(out))
        assert code == EXIT_USAGE and "error:" in stderr
        assert "nan" not in stdout
        assert not out.exists()

    def test_out_into_missing_directory(self, tmp_path, capsys):
        mdp_file, reward_file = self.make_inputs(tmp_path, capsys)
        out = tmp_path / "missing" / "deeper" / "probe.json"
        code, stdout, _ = run_cli(capsys, "probe", "--mdp", str(mdp_file),
                                  "--reward", str(reward_file),
                                  "--n-dynamics", "2", "--out", str(out))
        assert code == EXIT_OK and "agreement fraction: 2/2" in stdout
        assert json.loads(out.read_text())["agreements"] == [True, True]

    def test_missing_mdp_file(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "probe", "--mdp",
                             str(tmp_path / "none.json"),
                             "--reward", str(tmp_path / "none2.json"))
        assert code == EXIT_IO


VALID_MDP = mdp_to_dict(random_mdp(4, 2, RewardTable("state_only", np.eye(4)[0]), seed=3))
VALID_REWARD = {"kind": "state_only", "values": [1.0, 0.0, 0.0, 0.0]}
VALID_CONFIG = {
    "mdp": {"source": "generate", "kind": "random", "states": 4, "actions": 2},
    "learner": {"iterations": 2},
    "output_dir": "run",
}


class TestWrongTypedJson:
    """Well-formed JSON of the wrong type is a usage error, never a traceback."""

    @pytest.mark.parametrize("command, slot, doc", [
        pytest.param("probe", "reward", 5, id="reward-number"),
        pytest.param("probe", "reward", None, id="reward-null"),
        pytest.param("probe", "reward", [], id="reward-array"),
        pytest.param("probe", "mdp", dict(VALID_MDP, n_states=None), id="mdp-null-n_states"),
        pytest.param("probe", "mdp", dict(VALID_MDP, reward=5), id="mdp-number-reward"),
        pytest.param("probe", "mdp", 7, id="mdp-number"),
        pytest.param("train", "config",
                     dict(VALID_CONFIG, mdp=dict(VALID_CONFIG["mdp"], seed=None)),
                     id="config-null-mdp-seed"),
        pytest.param("train", "config", dict(VALID_CONFIG, learner={"iterations": 1.5}),
                     id="config-fractional-iterations"),
        pytest.param("train", "config", dict(VALID_CONFIG, output_dir=5),
                     id="config-number-output_dir"),
        pytest.param("transfer", "config",
                     dict(VALID_CONFIG, transfer={"test_seeds": [None]}),
                     id="config-null-test-seed"),
        pytest.param("transfer", "config",
                     dict(VALID_CONFIG, mdp=dict(VALID_CONFIG["mdp"], states=4.7, seed=2.9),
                          transfer={"test_seeds": [1.5]}),
                     id="config-fractional-states-seed-test-seeds"),
        pytest.param("transfer", "config",
                     dict(VALID_CONFIG, transfer={"test_seeds": [1.5]}),
                     id="config-fractional-test-seed"),
        pytest.param("transfer", "config",
                     dict(VALID_CONFIG, transfer={"test_seeds": [5, 5, 6]}),
                     id="config-repeated-test-seed"),
        pytest.param("train", "config", dict(VALID_CONFIG, learner={"iterations": True}),
                     id="config-bool-iterations"),
        pytest.param("probe", "mdp", dict(VALID_MDP, horizon=2.5), id="mdp-fractional-horizon"),
        pytest.param("train", "config",
                     dict(VALID_CONFIG, mdp=dict(VALID_CONFIG["mdp"], discount="0.5")),
                     id="config-string-discount"),
        pytest.param("train", "config",
                     dict(VALID_CONFIG, mdp=dict(VALID_CONFIG["mdp"], discount=True)),
                     id="config-bool-discount"),
        pytest.param("train", "config",
                     dict(VALID_CONFIG, learner={"iterations": 2, "disc_step_size": True}),
                     id="config-bool-step-size"),
        pytest.param("probe", "mdp", dict(VALID_MDP, discount="0.9"), id="mdp-string-discount"),
        pytest.param("probe", "mdp", dict(VALID_MDP, discount=10**400),
                     id="mdp-discount-too-large-for-a-float"),
        pytest.param("train", "config",
                     dict(VALID_CONFIG, learner={"iterations": 2, "disc_step_size": float("nan")}),
                     id="config-nan-step-size"),
        pytest.param("train", "config",
                     dict(VALID_CONFIG, learner={"iterations": 2, "disc_step_size": float("inf")}),
                     id="config-infinite-step-size"),
        # nested deeper than the decoder's recursion limit; a str is written as the file's text
        pytest.param("train", "config", '{"learner": ' + "[" * 100_000 + "}",
                     id="config-nested-too-deep"),
        pytest.param("probe", "mdp", "[" * 100_000, id="mdp-nested-too-deep"),
        pytest.param("probe", "reward", "[" * 100_000, id="reward-nested-too-deep"),
    ])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                        command, slot, doc):
        monkeypatch.chdir(tmp_path)
        inputs = {"mdp": VALID_MDP, "reward": VALID_REWARD, "config": VALID_CONFIG}
        inputs[slot] = doc
        for name, content in inputs.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (tmp_path / f"{name}.json").write_text(text)
        before = set(tmp_path.rglob("*"))
        if command == "probe":
            argv = ["probe", "--mdp", "mdp.json", "--reward", "reward.json",
                    "--n-dynamics", "1", "--out", "probe.json"]
        else:
            argv = [command, "--config", "config.json"]
        code, _, stderr = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert stderr.startswith("error:")
        assert "Traceback" not in stderr
        assert set(tmp_path.rglob("*")) == before


class TestTooLargeToAllocate:
    """A size whose arrays exceed the 128 TiB of a 64-bit user address space fails its
    allocation at once on any machine: a usage error, never a traceback."""

    @pytest.mark.parametrize("argv, config", [
        pytest.param(["reproduce-tabular", "--seeds", "0", "--iterations", str(10**12),
                      "--out", "out"], None, id="reproduce-tabular-iterations"),
        pytest.param(["train", "--config", "config.json"],
                     dict(VALID_CONFIG, learner={"iterations": 10**13}), id="train-iterations"),
        pytest.param(["generate", "--states", "1000000", "--actions", "1000",
                      "-o", "big.json"], None, id="generate-states-actions"),
        pytest.param(["probe", "--mdp", "mdp.json", "--reward", "reward.json",
                      "--n-dynamics", str(10**12), "--out", "probe.json"], None,
                     id="probe-n-dynamics"),
    ])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch, argv, config):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mdp.json").write_text(json.dumps(VALID_MDP))
        (tmp_path / "reward.json").write_text(json.dumps(VALID_REWARD))
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
        before = set(tmp_path.rglob("*"))
        code, _, stderr = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert stderr.startswith("error: Unable to allocate")
        assert "Traceback" not in stderr
        assert set(tmp_path.rglob("*")) == before


class TestNegativeSeeds:
    """A negative seed or iteration count exits 2 naming its key or flag, before any
    output is made."""

    @pytest.mark.parametrize("argv, doc, named", [
        pytest.param(["train"],
                     dict(VALID_CONFIG, learner={"iterations": 2, "mode": "sampled", "seed": -1}),
                     "seed must be non-negative", id="learner-seed-sampled"),
        pytest.param(["train"],
                     dict(VALID_CONFIG, learner={"iterations": 2, "mode": "exact_occupancy",
                                                 "seed": -1}),
                     "seed must be non-negative", id="learner-seed-exact"),
        pytest.param(["train"], dict(VALID_CONFIG, mdp=dict(VALID_CONFIG["mdp"], seed=-3)),
                     "'seed' in mdp (kind=random)", id="random-kind-seed"),
        pytest.param(["train", "--seed", "-2"], VALID_CONFIG, "--seed", id="train-flag"),
        pytest.param(["transfer"], dict(VALID_CONFIG, transfer={"test_seeds": [3, -4]}),
                     "'test_seeds' in transfer", id="test-seeds"),
        pytest.param(["generate", "--paper-tabular", "--seed", "-1", "-o", "run/mdp.json"],
                     None, "--seed", id="generate-flag"),
        pytest.param(["probe", "--mdp", "mdp.json", "--reward", "reward.json", "--seed", "-1",
                      "--out", "run/probe.json"], None, "--seed", id="probe-flag"),
        pytest.param(["reproduce-tabular", "--seeds", "-5", "--smoke", "--out", "run"], None,
                     "--seeds", id="reproduce-seeds"),
        pytest.param(["reproduce-tabular", "--iterations", "-5", "--out", "run"], None,
                     "--iterations", id="reproduce-iterations"),
        pytest.param(["reproduce-tabular", "--iterations", "-5", "--smoke", "--out", "run"], None,
                     "--iterations", id="reproduce-iterations-smoke"),
    ])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, monkeypatch, argv, doc, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mdp.json").write_text(json.dumps(VALID_MDP))
        (tmp_path / "reward.json").write_text(json.dumps(VALID_REWARD))
        if doc is not None:
            (tmp_path / "config.json").write_text(json.dumps(doc))
            argv = [argv[0], "--config", "config.json", *argv[1:]]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert named in stderr and "non-negative" in stderr
        assert "Traceback" not in stderr and stdout == ""
        assert not (tmp_path / "run").exists()


def refuse_constant(name):
    raise AssertionError(f"{name} is not a JSON number")


def read_strict_json(path):
    """A JSON file read under RFC 8259: NaN, Infinity and -Infinity raise."""
    return json.loads(Path(path).read_text(), parse_constant=refuse_constant)


class TestNonFiniteNumbers:
    """JSON artifacts write inf and NaN as null; the CSV files keep inf."""

    def test_json_text_writes_null(self):
        doc = {"a": [float("inf"), -np.inf, float("nan"), 1.5, (2.0, np.float64("inf"))],
               "b": {"c": np.float64("-inf"), "d": 3}, "e": "inf"}
        text = json_text(doc)
        assert json.loads(text, parse_constant=refuse_constant) == {
            "a": [None, None, None, 1.5, [2.0, None]], "b": {"c": None, "d": 3}, "e": "inf"}
        finite = {"b": [1.0, 2], "a": (0.5, None, True)}
        assert json_text(finite) == json.dumps(finite, indent=2, sort_keys=True) + "\n"

    def test_train_with_an_infinite_loss(self, tmp_path, capsys):
        # a replay episode the current policy cannot produce: D = 1 on a negative row
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path / "c.json", output_dir=str(out),
            mdp={"source": "generate", "kind": "random", "states": 3, "actions": 2,
                 "seed": 0, "horizon": 4},
            learner={"variant": "airl_state_only", "mode": "sampled", "iterations": 6,
                     "n_policy_trajectories": 8, "disc_step_size": 1e4},
        )
        assert run_cli(capsys, "train", "--config", cfg)[0] == EXIT_OK
        csv_losses = [line.split(",")[1]
                      for line in (out / "history.csv").read_text().splitlines()[1:]]
        assert "inf" in csv_losses
        history = read_strict_json(out / "history.json")
        assert [None if loss == "inf" else float(loss) for loss in csv_losses] == \
            history["disc_loss"]
        read_strict_json(out / "learned_reward.json")

    def test_reproduction_with_an_infinite_recovery_error(self, tmp_path, capsys, monkeypatch):
        # a huge step drives g near -1e307, and finite tables compare finitely
        out = tmp_path / "huge"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _, _ = run_cli(capsys, "reproduce-tabular", "--out", str(out), "--seeds", "1",
                                 "--iterations", "2", "--step-size", "1e308")
        assert code == EXIT_THRESHOLD
        variant = read_strict_json(out / "manifest.json")["per_seed"][0]["variants"]
        assert 1e306 < variant["airl_state_only"]["recovery_error"] < np.inf
        # so an infinite error is injected: the manifest writes it as null
        monkeypatch.setattr(irl_lab.transfer, "centered_reward_error", lambda *args: np.inf)
        out = tmp_path / "repro"
        code, _, _ = run_cli(capsys, "reproduce-tabular", "--out", str(out), "--seeds", "1",
                             "--iterations", "2")
        assert code == EXIT_THRESHOLD
        manifest = read_strict_json(out / "manifest.json")
        block = manifest["experiments"]["recovery_state_only"]
        assert block["errors"] == [None] and block["max_error"] is None
        assert block["pass"] is False
        assert manifest["per_seed"][0]["variants"]["airl_state_only"]["recovery_error"] is None


class TestMalformedJsonFiles:
    """A JSON input that is not UTF-8 JSON is a usage error that names the file."""

    @pytest.mark.parametrize("content", [b"{not json", b'{"n_states": "\xff"}'],
                             ids=["not-json", "not-utf-8"])
    @pytest.mark.parametrize("command, bad", [
        ("probe", "mdp"),
        ("probe", "reward"),
        ("train", "config"),
        ("train", "mdp"),
        ("transfer", "test_mdp"),
    ])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, monkeypatch, command, bad, content):
        monkeypatch.chdir(tmp_path)
        config = dict(VALID_CONFIG, mdp={"source": "file", "path": "mdp.json"})
        if command == "transfer":
            config["transfer"] = {"test_mdp_paths": ["test_mdp.json"]}
        inputs = {"mdp": VALID_MDP, "reward": VALID_REWARD, "config": config,
                  "test_mdp": VALID_MDP}
        for name, doc in inputs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        (tmp_path / f"{bad}.json").write_bytes(content)
        before = set(tmp_path.rglob("*"))
        if command == "probe":
            argv = ["probe", "--mdp", "mdp.json", "--reward", "reward.json",
                    "--n-dynamics", "1", "--out", "probe.json"]
        else:
            argv = [command, "--config", "config.json"]
        code, _, stderr = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert stderr.startswith("error:") and f"'{bad}.json' is not valid JSON" in stderr
        assert "Traceback" not in stderr
        assert set(tmp_path.rglob("*")) == before


class TestEntryPoints:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(capsys, "fabricate")[0] == EXIT_USAGE

    def test_main_calls_share_one_parser(self, tmp_path, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def record(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", record)
        smoke = ["reproduce-tabular", "--seeds", "0", "--smoke", "--out"]
        assert run_cli(capsys, *smoke, str(tmp_path / "first"))[0] == EXIT_OK
        # a usage error after a successful call is still one, and parsing goes on after it
        code, _, stderr = run_cli(capsys, "reproduce-tabular", "--seeds", "0")
        assert code == EXIT_USAGE
        assert "the following arguments are required: --out" in stderr
        assert run_cli(capsys, *smoke, str(tmp_path / "second"))[0] == EXIT_OK
        assert len(parsers) == 3
        assert all(parser is parsers[0] for parser in parsers)

    def test_a_command_replaced_after_the_first_call_is_the_one_run(self, tmp_path, capsys,
                                                                    monkeypatch):
        # the benchmark's tracer wraps command functions after main has run
        assert run_cli(capsys, "fabricate")[0] == EXIT_USAGE
        calls = []
        monkeypatch.setattr(irl_lab.cli, "cmd_reproduce_tabular",
                            lambda args: calls.append(args.seeds) or EXIT_OK)
        out = str(tmp_path / "repro")
        assert run_cli(capsys, "reproduce-tabular", "--out", out, "--seeds", "3")[0] == EXIT_OK
        assert calls == ["3"]

    def test_help_exits_cleanly(self, capsys):
        assert run_cli(capsys, "--help")[0] == EXIT_OK

    def test_installed_script_responds(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["irl-lab"]

        # Run the declared target the way the generated console script does,
        # against the same source tree this suite imported.
        src_dir = str(Path(irl_lab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT_WRAPPER, target, "--help"],
            capture_output=True, text=True, env=env)
        assert_irl_lab_help(proc)

        installed = shutil.which("irl-lab")
        if installed is not None:
            assert_irl_lab_help(subprocess.run(
                [installed, "--help"], capture_output=True, text=True))


class TestAggregateCurves:
    def test_rows_match_per_column_reductions(self):
        # nine curves: at eight or more, a sequential sum over the stack's
        # first axis would round differently from each column's pairwise sum
        rng = np.random.default_rng(5)
        lengths = (3, 7, 1, 9, 4, 9, 2, 8, 5)
        curves = [[(k + 1, float(r)) for k, r in enumerate(rng.normal(scale=50, size=n))]
                  for n in lengths]
        padded = np.array([[r for _, r in c] + [c[-1][1]] * (9 - len(c)) for c in curves])
        want = [[k + 1, float(padded[:, k].mean()), float(padded[:, k].min()),
                 float(padded[:, k].max())] for k in range(9)]
        got = _aggregate_curves(curves)
        assert got == want
        assert all(type(x) is float for row in got for x in row[1:])
        # the reduction order matters here: the stacked mean is not the same
        assert padded.mean(axis=0).tolist() != [row[1] for row in want]

    def test_single_curve_carries_itself(self):
        assert _aggregate_curves([[(1, 2.0), (2, 3.0)]]) == [[1, 2.0, 2.0, 2.0],
                                                             [2, 3.0, 3.0, 3.0]]
