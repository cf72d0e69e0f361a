"""scripts/trace_diff.py: byte comparison of two experiment trees, timings
aside; scripts/reproduce_experiments.py, which writes those trees; and
smoke runs of scripts/sweep_horizon.py, scripts/claims_sweep.py and
scripts/work_counters.py."""

import importlib.util
from pathlib import Path

from pcbf.scenarios import CONTROLLERS, SCENARIOS
from test_acceptance import _CLAIM_DRAWS


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


def test_sweep_horizon_short_horizon_acts_later(capsys):
    """Two horizons on the crossing: one row each, both safe, and the
    short horizon makes its first intervention later than the long one."""
    assert _load("sweep_horizon").main(["--horizons", "4,14"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["T", "first_action_t", "total_deviation", "max_h",
                              "mean_step_ms"]
    table = [[float(v) for v in row.split()] for row in rows]
    assert [r[0] for r in table] == [4.0, 14.0]
    assert all(r[3] <= 0.0 for r in table)  # max_h: both runs safe
    assert table[0][1] > table[1][1]


claims_sweep = _load("claims_sweep")


def test_claims_sweep_draws_are_the_claims_tests():
    """The sweep draws, under their ids, the four draws that
    test_acceptance.py's claims test pins."""
    drawn = {draw_id: rest for draw_id, *rest in claims_sweep.draws()}
    assert len(drawn) == 32
    ids = ["left_turn_1", "left_turn_19", "satellite_0", "satellite_1"]
    for draw_id, pinned in zip(ids, _CLAIM_DRAWS):
        assert drawn[draw_id] == list(pinned)


def test_claims_sweep_one_draw_per_family(capsys):
    """A car and a satellite draw that start with H*(0) <= 0: pcbf and ECBF
    stay safe, both ratios are below 1, and car draw 19 conflicts with
    u = 0 but not with its nominal law."""
    assert claims_sweep.main(["--only", "left_turn_19,satellite_0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "== H*(0) <= 0: 2 draws ==" and out[1] == claims_sweep.HEADER
    rows = {cells[0]: cells for cells in (line.split() for line in out[2:4])}
    assert rows["left_turn_19"][2:4] == ["yes", "no"]
    assert rows["satellite_0"][2:4] == ["yes", "yes"]
    for cells in rows.values():
        assert float(cells[1]) <= 0 and cells[4:6] == ["yes", "yes"]
        assert float(cells[6]) < 1 and float(cells[7]) < 1
    assert out[4] == ("both claims hold on 2 of 2 that conflict by none, "
                      "and on 1 of 1 that conflict by nominal")
    assert out[5] == "== H*(0) > 0: 0 draws =="


def test_work_counters_table(capsys):
    """One Markdown row per pinned pcbf run: the cars' path steps no knots,
    and the satellite's counts are those the pinned test holds."""
    assert _load("work_counters").main() == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.count("|") == rule.count("|") == 7
    cells = {row.split("|")[1].strip(): [c.strip() for c in row.split("|")[2:-1]]
             for row in rows}
    assert list(cells) == ["intersection_cross", "intersection_left_turn", "satellite"]
    assert cells["intersection_cross"][:2] == ["-", "-"]
    assert cells["satellite"][:4] == ["11160", "12117", "80", "2.49"]
