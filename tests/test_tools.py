import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name, directory=TOOLS, monkeypatch=None):
    """Import a script by path; with `monkeypatch`, registered in sys.modules for the
    test, as a module that defines dataclasses must be while it runs."""
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def write_set(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


class TestGoldenOutputs:
    def test_writes_the_golden_set(self, tmp_path, capsys):
        golden_outputs = load_tool("golden_outputs")
        out = tmp_path / "golden"
        assert golden_outputs.main([str(out)]) == 0
        names = [name for name, _ in golden_outputs.COMMANDS]
        assert len(names) == 13
        # reproduce_tabular fails its thresholds: criteria 1-2 are not met
        exits = {name: (out / "runs" / f"{name}.exit").read_text() for name in names}
        assert exits == {name: "1\n" if name == "reproduce_tabular" else "0\n"
                         for name in names}
        assert sum(path.is_file() for path in out.rglob("*")) == 105
        assert golden_outputs.main([str(out)]) == 2  # refuses a non-empty OUTDIR


class TestGoldenDiff:
    def test_numeric_differences_are_reported_not_fatal(self, tmp_path, capsys):
        golden_diff = load_tool("golden_diff")
        old = write_set(tmp_path / "old", {
            "same.txt": "seed0: 1.5\n",
            "run/h.csv": "iter,loss\n0,0.25,seed1\n1,-1.0e-3,2\n",
        })
        new = write_set(tmp_path / "new", {
            "same.txt": "seed0: 1.5\n",
            "run/h.csv": "iter,loss\n0,0.2500000000000001,seed1\n1,-1.5e-3,2\n",
        })
        assert golden_diff.main([str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "run/h.csv: non-numeric text identical; 2 of 5 numbers differ" in out
        assert "max abs diff 0.0005, max rel diff 0.333" in out
        assert "same.txt" not in out
        assert "2 files, 1 byte-identical" in out

    def test_text_difference_or_missing_file_fails(self, tmp_path, capsys):
        golden_diff = load_tool("golden_diff")
        old = write_set(tmp_path / "old", {"a.txt": "PASS 1.0\n", "gone.txt": "x\n"})
        new = write_set(tmp_path / "new", {"a.txt": "FAIL 1.0\n"})
        assert golden_diff.main([str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "a.txt: non-numeric text differs" in out
        assert "gone.txt: missing from" in out

    def test_identifier_digits_are_text(self, tmp_path):
        golden_diff = load_tool("golden_diff")
        old = write_set(tmp_path / "old", {"a.txt": "seed0 1\n"})
        new = write_set(tmp_path / "new", {"a.txt": "seed1 1\n"})
        assert golden_diff.main([str(old), str(new)]) == 1


class TestBenchPairs:
    def test_summary_counts_wins_in_each_metrics_direction(self):
        bench_pairs = load_tool("bench_pairs")
        parent = [{"work_per_s": w, "run_s": r, "count": 5.0}
                  for w, r in zip([100, 102, 98, 101, 99], [0.20, 0.19, 0.21, 0.20, 0.20])]
        change = [{"work_per_s": w, "run_s": r, "count": 5.0, "extra": 1.0}
                  for w, r in zip([120, 97, 119, 121, 118], [0.17, 0.18, 0.22, 0.16, 0.17])]
        rows = {row["metric"]: row for row in bench_pairs.summarize(
            parent, change, {"work_per_s": "higher", "run_s": "lower"})}
        # a metric missing from any run is left out
        assert set(rows) == {"work_per_s", "run_s", "count"}
        work = rows["work_per_s"]
        assert work["parent"] == (99, 100, 101)
        assert work["change"] == (118, 119, 120)
        assert work["won"] == 4 and work["pairs"] == 5
        assert work["ratio"] == 1.19
        assert work["beyond_parent_iqr"]
        run = rows["run_s"]
        assert run["better"] == "lower" and run["won"] == 4
        assert run["parent"][1] == 0.20 and run["change"][1] == 0.17
        # equal values win nothing and differ by no more than the IQR
        assert rows["count"]["won"] == 0 and not rows["count"]["beyond_parent_iqr"]
        text = bench_pairs.format_summary(list(rows.values()))
        assert "work_per_s (higher)  100 [99, 101] -> 119 [118, 120]  1.1900  4/5  yes" in text

    def test_median_inside_the_parent_spread_is_not_resolved(self):
        bench_pairs = load_tool("bench_pairs")
        parent = [{"work_per_s": w} for w in (90, 100, 110, 120)]
        change = [{"work_per_s": w} for w in (95, 105, 115, 125)]
        (row,) = bench_pairs.summarize(parent, change, {"work_per_s": "higher"})
        assert row["won"] == 4
        assert not row["beyond_parent_iqr"]

    def test_seed_ranges_and_mismatched_sides(self):
        bench_pairs = load_tool("bench_pairs")
        assert bench_pairs.parse_seeds("1000-1003") == [1000, 1001, 1002, 1003]
        assert bench_pairs.parse_seeds("7") == [7]
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds("5-4")
        with pytest.raises(ValueError):
            bench_pairs.summarize([{"a": 1.0}], [], {})


class TestSolvePairs:
    def test_checkout_against_itself(self, capsys):
        solve_pairs = load_tool("solve_pairs")
        checkout = TOOLS.parent
        assert solve_pairs.main([str(checkout), str(checkout), "--rounds", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("1 rounds, times per solve (cold, warm) and per repetition of each "
                            "perfbench workload and of each history read on instance 3")
        assert [line.split(":")[0] for line in lines[1:]] == [
            "cold", "warm", "repro-exact", "sampled-replay", "reopt-probe",
            "history-read-exact", "history-read-sampled"]
        for line in lines[1:]:
            ratio = float(line.rsplit("median per-round ratio ", 1)[1])
            assert 0 < ratio < 10

    def test_sides_whose_outputs_differ_are_not_timed(self, monkeypatch, capsys):
        # the workloads reach the package through its public names, so a change
        # side that scores differently is caught before any timing is printed
        assert_change_is_caught(monkeypatch, capsys, "reopt-probe", lambda package: (
            package, "normalized_score", 1.0))

    def test_history_reads_that_differ_are_not_timed(self, monkeypatch, capsys):
        # the exact read is checked first, so it names the row that differs
        assert_change_is_caught(monkeypatch, capsys, "history-read-exact", lambda package: (
            package.TrainingHistory, "to_csv_text", "\n"))


def assert_change_is_caught(monkeypatch, capsys, timing: str, target_of) -> None:
    """solve_pairs stops at `timing`, printing nothing, when the change side's
    (owner, attribute, extra) from `target_of(package)` returns its value plus extra."""
    solve_pairs = load_tool("solve_pairs")
    load = solve_pairs.load

    def load_changed(checkout, name):
        package = load(checkout, name)
        if name.endswith("change"):
            owner, attr, extra = target_of(package)
            original = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *args: original(*args) + extra)
        return package

    monkeypatch.setattr(solve_pairs, "load", load_changed)
    checkout = str(TOOLS.parent)
    with pytest.raises(SystemExit, match=f"{timing}: the sides' outputs differ"):
        solve_pairs.main([checkout, checkout, "--rounds", "1"])
    assert capsys.readouterr().out == ""


class TestBenchmarkSpans:
    def test_every_traced_name_installs_and_is_restored(self):
        # the benchmark's tracer patches functions by name; a name a refactor
        # deletes fails here rather than only in a traced benchmark run
        spans = load_tool("spans", TOOLS.parent / "perfbench")
        holders = [importlib.import_module("irl_lab")] + [
            importlib.import_module(f"irl_lab.{name}") for name in spans.MODULES]
        targets = []
        for module_name, qualname, _ in spans.TARGETS:
            owner_name, _, attr = qualname.rpartition(".")
            module = importlib.import_module(f"irl_lab.{module_name}")
            targets.append((getattr(module, owner_name) if owner_name else module, attr))
        owners = holders + [owner for owner, _ in targets if owner not in holders]
        before = [dict(vars(owner)) for owner in owners]
        tracer = spans.Tracer()
        try:
            tracer.install()
            assert all(getattr(owner, attr) is not before[owners.index(owner)][attr]
                       for owner, attr in targets)
        finally:
            tracer.uninstall()
        for owner, values in zip(owners, before):
            after = dict(vars(owner))
            assert after.keys() == values.keys()
            assert all(after[key] is value for key, value in values.items()), owner

    def test_every_workload_runs_traced_without_a_failed_operation(self, tmp_path, monkeypatch):
        # some spans count a call by reading its result, which only a traced
        # run does; a result a refactor reshapes fails here, not in the benchmark
        perfbench = TOOLS.parent / "perfbench"
        spans = load_tool("spans", perfbench)
        workloads = load_tool("workloads", perfbench, monkeypatch)
        tracer = spans.Tracer()
        tracer.install()
        try:
            for name, workload in workloads.WORKLOADS.items():
                tracer.reset()
                ops = workload.run(workload.setup([3], tmp_path), 0)
                assert ops, name
                assert [op.error for op in ops if op.error is not None] == [], name
                assert spans.layer_metrics(tracer.spans), name
        finally:
            tracer.uninstall()
