"""scripts/trace_diff.py: byte comparison of two experiment trees, timings aside."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trace_diff.py"
_spec = importlib.util.spec_from_file_location("trace_diff", _SCRIPT)
trace_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_diff)

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
        "  + 0.05,1.626,-0.125,I_interior,1,0"]
    assert trace_diff.main([str(old), str(new)]) == 1
    assert "run.csv row 2" in capsys.readouterr().out


def test_a_file_in_one_tree_only_is_a_difference(tmp_path):
    old = _tree(tmp_path / "old", "0.51", "0.73")
    new = _tree(tmp_path / "new", "0.51", "0.73")
    (new / "scenario" / "pcbf" / "notes.txt").unlink()
    (diff,) = trace_diff.diff_trees(old, new)
    assert diff.startswith("scenario/pcbf/notes.txt: only in")
