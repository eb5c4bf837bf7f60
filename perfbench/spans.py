"""Layer-boundary tracing from outside the package.

`Tracer.install` replaces each traced public function with a timing wrapper
at every name under which an irl_lab module holds it, so a call is caught at
the name the calling module imported (`irl_lab.airl.soft_value_iteration`,
`irl_lab.transfer.evaluate_return`, ...).  Spans live in memory as
[name, start, end, parent index, counts] and are written out once, at the
end of the run.  Nothing under the package's source tree is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

MODULES = ("mdp", "soft_rl", "airl", "shaping", "transfer", "cli", "_fmt")
GENERATORS = ("mdp.paper_tabular_mdp", "mdp.random_mdp", "mdp.random_deterministic_mdp")


def _svi_counts(bound, result):
    return {
        "sweeps": result.iterations_used,
        "warm": bound.arguments.get("v_init") is not None,
        "nonconverged": not result.converged,
    }


def _train_counts(bound, result):
    config = bound.arguments["config"]
    return {"disc_steps": config.iterations * config.disc_steps_per_iter}


# (module, function or Class.method, counts taken from the bound call and its result)
TARGETS = (
    ("mdp", "paper_tabular_mdp", None),
    ("mdp", "random_mdp", None),
    ("mdp", "random_deterministic_mdp", None),
    ("soft_rl", "soft_value_iteration", _svi_counts),
    ("soft_rl", "occupancy", None),
    ("soft_rl", "sample_trajectories",
     lambda b, r: {"transitions": sum(t.horizon for t in r)}),
    ("soft_rl", "evaluate_return", None),
    ("airl", "airl_train", _train_counts),
    ("airl", "gan_gcl_train", _train_counts),
    ("airl", "discriminator_loss", None),
    ("airl", "pool_batches", None),
    ("airl", "TransitionBatch.to_weights", None),
    ("shaping", "centered_reward_error", None),
    ("transfer", "run_recovery", None),
    ("transfer", "reoptimize_with_curve", lambda b, r: {"sweeps": len(r[1])}),
    ("transfer", "evaluate_on_new_dynamics", None),
    ("transfer", "disentanglement_probe", lambda b, r: {"dynamics": len(r.agreements)}),
    ("cli", "cmd_reproduce_tabular", None),
    ("_fmt", "json_text", None),
    ("_fmt", "atomic_write_text", lambda b, r: {"bytes": len(b.arguments["text"].encode())}),
)


class Tracer:
    """Collects spans from the wrappers it installs; one tracer per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counts):
        signature = inspect.signature(fn) if counts else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts:
                span[4] = counts(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module("irl_lab")] + [
            importlib.import_module(f"irl_lab.{m}") for m in MODULES
        ]
        for module_name, qualname, counts in TARGETS:
            module = importlib.import_module(f"irl_lab.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            wrapper = self._wrap(f"{module_name}.{qualname}", original, counts)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            # Patch every module that imported the function, under its local name.
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def dump(path, reps: list[list[list]]) -> None:
    """Write every traced repetition's spans as JSON."""
    doc = [
        [{"name": n, "start": s, "end": e, "parent": p, "counts": c} for n, s, e, p, c in rep]
        for rep in reps
    ]
    path.write_text(json.dumps(doc))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced repetition.

    busy_s sums the spans of a name (or group) that have no ancestor of the
    same name (or group); self_s subtracts each span's direct children.
    Metric names must start with a letter, so `_fmt.*` reports as `fmt.*`.
    """
    children_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children_time[parent] += end - start

    def busy(names) -> float:
        return sum(
            end - start
            for name, start, end, parent, _ in spans
            if name in names and not _has_ancestor(spans, parent, names)
        )

    def self_time(name) -> float:
        return sum(
            (span[2] - span[1]) - children_time[i]
            for i, span in enumerate(spans)
            if span[0] == name
        )

    def of(name):
        return [s for s in spans if s[0] == name]

    def count(name, key) -> int:
        return sum(int(s[4][key]) for s in of(name) if s[4])

    m: dict[str, float] = {}
    for name in ("soft_rl.soft_value_iteration", "soft_rl.occupancy", "soft_rl.evaluate_return",
                 "soft_rl.sample_trajectories", "transfer.evaluate_on_new_dynamics",
                 "_fmt.atomic_write_text"):
        m[f"{name.lstrip('_')}.calls"] = len(of(name))
    for name in ("soft_rl.soft_value_iteration", "soft_rl.occupancy", "soft_rl.evaluate_return",
                 "soft_rl.sample_trajectories", "transfer.evaluate_on_new_dynamics",
                 "_fmt.atomic_write_text", "_fmt.json_text", "airl.pool_batches",
                 "airl.TransitionBatch.to_weights", "airl.discriminator_loss",
                 "shaping.centered_reward_error"):
        m[f"{name.lstrip('_')}.busy_s"] = busy({name})
    m["mdp.generators.busy_s"] = busy(set(GENERATORS))
    for name in ("airl.airl_train", "airl.gan_gcl_train", "transfer.reoptimize_with_curve",
                 "transfer.disentanglement_probe", "cli.cmd_reproduce_tabular"):
        m[f"{name}.self_s"] = self_time(name)
    for name, key in (("airl.airl_train", "disc_steps"), ("airl.gan_gcl_train", "disc_steps"),
                      ("soft_rl.sample_trajectories", "transitions"),
                      ("soft_rl.soft_value_iteration", "nonconverged"),
                      ("transfer.reoptimize_with_curve", "sweeps"),
                      ("transfer.disentanglement_probe", "dynamics"),
                      ("_fmt.atomic_write_text", "bytes")):
        m[f"{name.lstrip('_')}.{key}"] = count(name, key)

    svi = "soft_rl.soft_value_iteration"
    warm = [s[4]["sweeps"] for s in of(svi) if s[4]["warm"]]
    cold = [s[4]["sweeps"] for s in of(svi) if not s[4]["warm"]]
    sweeps = sum(warm) + sum(cold)
    m[f"{svi}.sweeps"] = sweeps
    m[f"{svi}.us_per_sweep"] = _per(1e6 * m[f"{svi}.busy_s"], sweeps)
    m[f"{svi}.warm_sweeps_per_call"] = _per(sum(warm), len(warm))
    m[f"{svi}.cold_sweeps_per_call"] = _per(sum(cold), len(cold))
    m["airl.airl_train.us_per_disc_step"] = _per(
        1e6 * m["airl.airl_train.self_s"], m["airl.airl_train.disc_steps"]
    )
    return m


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def _has_ancestor(spans, index: int, names) -> bool:
    while index >= 0:
        if spans[index][0] in names:
            return True
        index = spans[index][3]
    return False


# Metrics that count work; they must repeat exactly between repetitions.
EXACT_COUNTS = (
    "soft_rl.soft_value_iteration.calls",
    "soft_rl.soft_value_iteration.sweeps",
    "soft_rl.soft_value_iteration.nonconverged",
    "soft_rl.evaluate_return.calls",
    "soft_rl.occupancy.calls",
    "soft_rl.sample_trajectories.transitions",
    "airl.airl_train.disc_steps",
    "airl.gan_gcl_train.disc_steps",
    "transfer.reoptimize_with_curve.sweeps",
    "transfer.disentanglement_probe.dynamics",
    "fmt.atomic_write_text.bytes",
)


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(rep[k] for rep in per_rep) for k in per_rep[0]}
