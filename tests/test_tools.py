import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_set(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


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
