"""scripts/trace_diff.py: byte comparison of two experiment trees, timings
aside; and scripts/reproduce_experiments.py, which writes those trees."""

import importlib.util
from pathlib import Path

from pcbf.scenarios import CONTROLLERS, SCENARIOS


def _load(name):
    script = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace_diff = _load("trace_diff")

_CSV = ("t,x0,Hstar,case,feasible,slack0,step_ms\n"
        "0,1.5,-0.25,I_interior,1,0,{ms0}\n"
        "0.05,1.625,-0.125,I_interior,1,0,{ms1}\n")
_SUMMARY = "steps = 2\nmean_step_ms = {ms0}\nmax_step_ms = {ms1}\nsafe = true\n"


def _tree(root: Path, ms0: str, ms1: str, x: str = "1.625") -> Path:
    run = root / "scenario" / "pcbf"
    run.mkdir(parents=True)
    (run / "run.csv").write_text(_CSV.format(ms0=ms0, ms1=ms1).replace("1.625", x))
    (run / "summary.txt").write_text(_SUMMARY.format(ms0=ms0, ms1=ms1))
    (run / "notes.txt").write_text("t=0.05: hysteresis held I_interior\n")
    return root


def test_timings_are_ignored(tmp_path, capsys):
    old = _tree(tmp_path / "old", "0.51", "0.73")
    new = _tree(tmp_path / "new", "0.62", "1.9")
    assert trace_diff.diff_trees(old, new) == []
    assert trace_diff.main([str(old), str(new)]) == 0
    assert "no difference" in capsys.readouterr().out


def test_a_changed_digit_is_reported_with_its_row(tmp_path, capsys):
    old = _tree(tmp_path / "old", "0.51", "0.73")
    new = _tree(tmp_path / "new", "0.51", "0.73", x="1.626")
    assert trace_diff.diff_trees(old, new) == [
        "scenario/pcbf/run.csv row 2:\n"
        "  - 0.05,1.625,-0.125,I_interior,1,0\n"
        "  + 0.05,1.626,-0.125,I_interior,1,0\n"
        f"  x0: largest |delta| {1.626 - 1.625!r} at row 2\n"
        "  rows whose case or feasible changed: none"]
    assert trace_diff.main([str(old), str(new)]) == 1
    assert "run.csv row 2" in capsys.readouterr().out


def test_largest_delta_per_column_and_changed_cases_are_listed(tmp_path):
    """Each numeric column that moved gets its largest |delta| and that
    row; a changed case or feasible lists its row."""
    old = _tree(tmp_path / "old", "0.51", "0.73")
    new = _tree(tmp_path / "new", "0.51", "0.73")
    run = new / "scenario" / "pcbf" / "run.csv"
    run.write_text(run.read_text()
                   .replace("0,1.5,-0.25,I_interior,1", "0,1.5,-0.5,I_interior,0")
                   .replace("1.625,-0.125,I_interior", "1.625,-0.375,III_boundary_root_self"))
    (diff,) = trace_diff.diff_trees(old, new)
    assert diff.splitlines()[3:] == [
        "  Hstar: largest |delta| 0.25 at row 1",
        "  feasible: largest |delta| 1.0 at row 1",
        "  rows whose case or feasible changed: 1, 2"]


def test_summary_lists_every_moved_key(tmp_path):
    old = _tree(tmp_path / "old", "0.51", "0.73")
    new = _tree(tmp_path / "new", "0.9", "0.73")
    summary = new / "scenario" / "pcbf" / "summary.txt"
    summary.write_text(summary.read_text().replace("steps = 2", "steps = 3")
                       .replace("safe = true", "safe = false") + "final_h = -1\n")
    (diff,) = trace_diff.diff_trees(old, new)
    assert diff == ("scenario/pcbf/summary.txt row 0:\n"
                    "  - steps = 2\n"
                    "  + steps = 3\n"
                    "  final_h: None -> -1\n"
                    "  safe: true -> false\n"
                    "  steps: 2 -> 3")


def test_a_file_in_one_tree_only_is_a_difference(tmp_path):
    old = _tree(tmp_path / "old", "0.51", "0.73")
    new = _tree(tmp_path / "new", "0.51", "0.73")
    (new / "scenario" / "pcbf" / "notes.txt").unlink()
    (diff,) = trace_diff.diff_trees(old, new)
    assert diff.startswith("scenario/pcbf/notes.txt: only in")


def test_experiments_cover_every_config_and_controller():
    """A tree from reproduce_experiments.py holds every pinned config x
    controller run, so trace_diff.py compares all of them."""
    runs = [(scenario, c) for scenario, controllers in _load("reproduce_experiments").EXPERIMENTS
            for c in controllers.split(",")]
    assert sorted(runs) == sorted((s, c) for s in SCENARIOS for c in CONTROLLERS)
