"""Config parsing, CSV/summary output, and CLI subcommands."""

import csv
import math
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from pcbf import scenarios
from pcbf.cli import (
    main,
    parse_config,
    serialize_config,
    summarize,
    write_csv,
)
from pcbf.core import ConfigurationError
from pcbf.scenarios import SCENARIOS, ScenarioConfig, default_config
from pcbf.simulate import run_closed_loop


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("scenario = intersection_cross\n")
        assert cfg == default_config("intersection_cross")

    def test_overrides_and_comments(self):
        cfg = parse_config(
            "# a comment\n"
            "scenario = satellite\n"
            "controller = ecbf\n"
            "T = 100  # inline comment\n"
            "N = 300\n"
            "params.rho = 2.5\n")
        assert cfg.scenario == "satellite"
        assert cfg.controller == "ecbf"
        assert cfg.T == 100.0
        assert cfg.N == 300
        assert cfg.params["rho"] == 2.5

    def test_missing_scenario(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            parse_config("T = 10\n")

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(ConfigurationError, match="intersection_cross"):
            parse_config("scenario = bogus\n")

    def test_unknown_controller_lists_choices(self):
        with pytest.raises(ConfigurationError, match="pcbf"):
            parse_config("scenario = satellite\ncontroller = bogus\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigurationError, match="line 2.*'horizon'"):
            parse_config("scenario = satellite\nhorizon = 10\n")

    def test_seed_is_an_unknown_key(self):
        with pytest.raises(ConfigurationError, match="line 2.*unknown key 'seed'"):
            parse_config("scenario = satellite\nseed = 0\n")

    @pytest.mark.parametrize("line", ["refine_tol = 1e-06", "root_tol = 1e-09",
                                      "slack_weight = 1000.0", "two_level = true"])
    def test_search_and_slack_constants_are_unknown_keys(self, line):
        """The search tolerances and the slack weight are module constants,
        and the scan mode comes from the constraint, not config keys, so an
        old config that sets one exits 2."""
        key = line.split(" = ")[0]
        with pytest.raises(ConfigurationError, match=f"line 2: unknown key '{key}'"):
            parse_config(f"scenario = satellite\n{line}\n")

    def test_unknown_param_names_line_and_choices(self):
        with pytest.raises(ConfigurationError, match="line 2.*'params.k'.*rho"):
            parse_config("scenario = satellite\nparams.k = 1\n")

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ConfigurationError, match="line 2.*'T'.*'fast'"):
            parse_config("scenario = satellite\nT = fast\n")
        with pytest.raises(ConfigurationError, match="line 2.*'N'"):
            parse_config("scenario = satellite\nN = 3.7\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigurationError, match="line 3.*duplicate"):
            parse_config("scenario = satellite\nT = 10\nT = 20\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config("scenario = satellite\nnot a key value pair\n")

    @pytest.mark.parametrize("scenario", ["intersection_cross",
                                          "intersection_left_turn", "satellite"])
    @pytest.mark.parametrize("controller", ["pcbf", "ecbf", "none", "nominal"])
    def test_round_trip(self, scenario, controller):
        cfg = default_config(scenario, controller)
        cfg.gamma = 1.0 / 3.0  # exercise full-precision float round-trip
        assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("name", SCENARIOS)
def test_pinned_config_is_serialized_default(name):
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert (configs / f"{name}.txt").read_text() == serialize_config(default_config(name))


def _schema_tables():
    """The keys in the first column of each table of docs/config_schema.md."""
    doc = Path(__file__).resolve().parent.parent / "docs" / "config_schema.md"
    tables, rows = [], None
    for line in doc.read_text().splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        if rows is None:
            rows = []
            tables.append(rows)
        cell = line.split("|")[1].strip()
        if cell.startswith("`"):
            rows.append(cell.strip("`"))
    return tables


def test_schema_doc_lists_exactly_the_config_keys():
    """One row per top-level key and per scenario parameter, no more."""
    top, intersection, satellite = _schema_tables()
    assert top == [f.name for f in fields(ScenarioConfig) if f.name != "params"]
    left, cross = ([f"params.{k}" for k in default_config(name).params]
                   for name in ("intersection_left_turn", "intersection_cross"))
    assert sorted(intersection) == sorted(left)
    # the crossing has every intersection row but the one marked for the left turn only
    assert sorted(cross) == sorted(set(left) - {"params.turn_radius"})
    doc = Path(__file__).resolve().parent.parent / "docs" / "config_schema.md"
    row, = [line for line in doc.read_text().splitlines()
            if line.startswith("| `params.turn_radius`")]
    assert row.endswith("(left-turn variant only) |")
    assert sorted(satellite) == sorted(f"params.{k}" for k in default_config("satellite").params)


@pytest.fixture(scope="module")
def short_log():
    cfg = default_config("intersection_cross", "pcbf")
    cfg.duration = 2.0
    return run_closed_loop(cfg)


def test_write_csv_round_trips_values(tmp_path, short_log):
    path = tmp_path / "run.csv"
    write_csv(short_log, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(short_log.t)
    head = rows[0]
    for col in ("t", "x0", "x3", "u0", "u1", "mu0", "h", "Hstar", "case",
                "feasible", "slack0", "step_ms"):
        assert col in head
    k = len(rows) // 2
    assert float(rows[k]["t"]) == short_log.t[k]
    for i in range(4):
        assert float(rows[k][f"x{i}"]) == short_log.x[k, i]
    for i in range(2):
        assert float(rows[k][f"u{i}"]) == short_log.u[k, i]
    assert float(rows[k]["h"]) == short_log.h[k]
    assert float(rows[k]["Hstar"]) == short_log.h_star[k]
    assert rows[k]["case"] == short_log.case[k]


def _parent_write_csv(log, path):
    """write_csv as it was when it formatted each cell's numpy scalar
    (oracle)."""
    n, n_x = log.x.shape
    n_u = log.u.shape[1]
    n_slack = max(max((len(s) for s in log.slack), default=0), 1)
    header = (["t"] + [f"x{i}" for i in range(n_x)] + [f"u{i}" for i in range(n_u)]
              + [f"mu{i}" for i in range(n_u)] + ["h", "Hstar", "case", "feasible"]
              + [f"slack{i}" for i in range(n_slack)] + ["step_ms"])
    fmt = "{:.17g}".format
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(n):
            slack = list(log.slack[k]) + [0.0] * (n_slack - len(log.slack[k]))
            row = ([fmt(log.t[k])] + [fmt(v) for v in log.x[k]] + [fmt(v) for v in log.u[k]]
                   + [fmt(v) for v in log.mu[k]]
                   + [fmt(log.h[k]), fmt(log.h_star[k]), log.case[k], str(int(log.feasible[k]))]
                   + [fmt(v) for v in slack] + [fmt(log.step_ms[k])])
            fh.write(",".join(row) + "\n")


def test_write_csv_matches_numpy_scalar_formatting(tmp_path, short_log):
    """The same bytes as the per-cell oracle, on a log of signed zeros, the
    smallest subnormal, NaN, infinities and 1e300 in every column."""
    special = [-0.0, 5e-324, np.nan, np.inf, -np.inf, 1e300, 0.0, -1.5e-323]
    cycle = [special[k:] + special[:k] for k in range(len(special))]
    log = replace(short_log, t=np.array(special), x=np.array(cycle)[:, :4],
                  u=np.array(cycle)[:, 4:6], mu=np.array(cycle)[:, 6:],
                  h=np.array(special[::-1]), h_star=np.array(cycle)[:, 3],
                  case=["I_interior", ""] * 4, feasible=np.arange(8) % 3 == 0,
                  slack=[[], [np.float64(-0.0)], [1e300, np.nan], [-np.inf]] * 2,
                  step_ms=np.array(cycle)[:, 5])
    for name, each in (("special", log), ("short", short_log)):
        write_csv(each, tmp_path / f"{name}.csv")
        _parent_write_csv(each, tmp_path / f"{name}-parent.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}-parent.csv").read_bytes()
    cells = set((tmp_path / "special.csv").read_text().replace("\n", ",").split(","))
    assert {"-0", "4.9406564584124654e-324", "nan", "inf", "-inf",
            "1.0000000000000001e+300"} <= cells


def test_summarize_fields(short_log):
    s = summarize(short_log)
    assert s["steps"] == len(short_log.t)
    assert s["max_h"] == float(np.max(short_log.h))
    assert s["safe"] == (s["max_h"] <= 0.0)
    assert s["total_deviation"] >= 0.0
    assert "car1_crossed" in s and "car2_crossed" in s
    assert "max_Hstar" in s
    if math.isfinite(s["first_intervention_t"]):
        assert s["first_intervention_t"] >= 0.0


def test_summarize_peak_push(intersection_pcbf):
    """max_deviation_norm is the peak filter push |u - mu|, here on a run
    where it differs from the peak input |u|."""
    log = intersection_pcbf.log
    s = summarize(log)
    assert s["max_deviation_norm"] == float(np.max(np.linalg.norm(log.u - log.mu, axis=1)))
    assert s["max_deviation_norm"] != s["max_control_norm"]


def test_summarize_step_time_ranks(satellite_pcbf):
    """p50_step_ms and p99_step_ms are nearest ranks, the ceil(p n / 100)-th
    smallest step time: with the 701 satellite steps timed 1 .. 701 ms in
    a shuffled order, 351 and 694."""
    ms = np.random.default_rng(0).permutation(np.arange(1.0, 702.0))
    s = summarize(replace(satellite_pcbf.log, step_ms=ms))
    assert (s["p50_step_ms"], s["p99_step_ms"], s["max_step_ms"]) == (351.0, 694.0, 701.0)
    keys = list(s)
    assert keys[keys.index("mean_step_ms"):keys.index("max_step_ms") + 1] == [
        "mean_step_ms", "p50_step_ms", "p99_step_ms", "max_step_ms"]


def _write_cfg(tmp_path, text):
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    return str(p)


def test_main_run(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "scenario = intersection_cross\nduration = 2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "run.csv").exists()
    assert (out / "summary.txt").exists()
    assert (out / "config.txt").exists()
    # the archived config reproduces the run configuration exactly
    archived = parse_config((out / "config.txt").read_text())
    assert archived.duration == 2.0
    assert "max_h" in capsys.readouterr().out


def test_main_run_far_out_in_time_ends(tmp_path):
    """Cars that meet near t = 5e10 s, where a float step (7.6e-6 s) is
    wider than REFINE_TOL: the run once hung in its golden-section search.
    It runs in a child process, so a hang fails the test by its timeout."""
    cfg = _write_cfg(tmp_path, "scenario = intersection_cross\nstep = 1e10\nduration = 1e11\n"
                               "params.z1_0 = -100000000012\nparams.z2_0 = -100000000011.5\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "pcbf.cli", "run", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert "steps = 11" in summary and "safe = true" in summary


def test_main_compare(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "scenario = intersection_cross\nduration = 2\n")
    out = tmp_path / "cmp"
    rc = main(["compare", "--config", cfg, "--out", str(out),
               "--controllers", "pcbf,none"])
    assert rc == 0
    assert (out / "pcbf" / "run.csv").exists()
    assert (out / "none" / "run.csv").exists()
    report = (out / "compare.txt").read_text()
    assert report.splitlines()[0].split("\t") == [
        "controller", "max_h", "safe", "max_control_norm", "max_deviation_norm",
        "total_deviation", "mean_step_ms"]
    assert "pcbf" in report and "none" in report


def test_main_compare_rejects_unknown_controller(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "scenario = intersection_cross\nduration = 2\n")
    rc = main(["compare", "--config", cfg, "--out", str(tmp_path / "x"),
               "--controllers", "pcbf,bogus"])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("controllers", [",", " ", "none,none", "pcbf,none,pcbf"])
def test_main_compare_rejects_empty_or_repeated_controllers(controllers, tmp_path, capsys):
    """No run starts: an empty list would write a bare table, and a repeated
    name would run twice into one directory."""
    cfg = _write_cfg(tmp_path, "scenario = intersection_cross\nduration = 2\n")
    out = tmp_path / "x"
    rc = main(["compare", "--config", cfg, "--out", str(out), "--controllers", controllers])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --controllers must name distinct")
    assert not out.exists()


def test_main_bad_config_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "T = 10\n")
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "scenario" in capsys.readouterr().err


_BAD_VALUES = [("intersection_cross", key, value) for key, value in [
    ("refine_tol", "0"), ("step", "0"), ("step", "-0.05"), ("duration", "-1"),
    ("duration", "nan"), ("T", "inf"), ("gamma", "nan"), ("root_tol", "-1"),
    ("params.k", "inf"), ("params.k", "0"), ("params.k", "-1"), ("params.rho", "-inf"),
    ("params.rho", "-1"), ("step", "1e-300"), ("step", "1e-320"), ("N", "100000000"),
    ("params.turn_radius", "-5.0")]] + [
    ("intersection_left_turn", "params.turn_radius", "0")] + [
    ("satellite", key, value) for key, value in [
        ("step", "1e-300"),
        ("params.radius", "-7000"), ("params.radius", "0"), ("params.mu_grav", "-1"),
        ("params.rho", "-1"), ("params.radius", "1e200"), ("params.radius", "1e150"),
        ("params.radius", "1e-300"), ("params.radius", "1e-105"), ("params.mu_grav", "1e300")]]


@pytest.mark.parametrize(
    "scenario, key, value", _BAD_VALUES,
    ids=[f"{k}-{v}" if s == "intersection_cross" else f"{s}-{k}-{v}"
         for s, k, v in _BAD_VALUES])
def test_main_run_rejects_bad_value(scenario, key, value, tmp_path, capsys):
    """A value a run cannot use exits 2 at once, naming its key, where it
    once hung, raised a traceback or ran on silently."""
    cfg = _write_cfg(tmp_path, f"scenario = {scenario}\n{key} = {value}\n")
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:")
    assert f"key {key!r}" in err or f"{key} must" in err


_BAD_DEBRIS_WINDOWS = {
    "T--1000": "T = -1000\n", "T--100-ecbf": "T = -100\ncontroller = ecbf\n",
    "T-1e5": "T = 1e5\n", "duration-1e8": "step = 100\nduration = 1e8\n"}


@pytest.mark.parametrize("text", _BAD_DEBRIS_WINDOWS.values(), ids=_BAD_DEBRIS_WINDOWS)
def test_main_run_rejects_bad_debris_window(text, tmp_path, capsys):
    """The satellite's debris track spans duration + T + 10 s at one knot
    per second.  A window that is too short or too long exits 2 at once,
    where it once failed in the spline, ran on an extrapolated track, or
    built knots for minutes."""
    cfg = _write_cfg(tmp_path, f"scenario = satellite\n{text}")
    start = time.perf_counter()
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: T must be positive with duration + T <= 50000 s on the satellite")


_UNSAFE_START = {
    "mu_grav-1e-10": "duration = 5\nparams.mu_grav = 1e-10\n",
    "radius-1e62": "duration = 3\nparams.radius = 1e62\nparams.mu_grav = 1e56\n"
                   "params.phase_offset = 0\nparams.conjunction_time = 100\n"}


@pytest.mark.parametrize("text", _UNSAFE_START.values(), ids=_UNSAFE_START)
def test_main_run_rejects_unsafe_initial_state(text, tmp_path, capsys):
    """A satellite config whose initial state already violates the
    constraint exits 2 at once, where its maximizer search once ran for
    minutes."""
    cfg = _write_cfg(tmp_path, f"scenario = satellite\n{text}")
    start = time.perf_counter()
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: the initial state must be safe")


def test_main_run_aborted_at_the_first_step(tmp_path, capsys, monkeypatch):
    """A run whose first control step aborts logs no step.  The CLI still
    writes the aborted note, a header-only run.csv and a summary with
    steps = 0 and truncated = true, and exits 0 without a traceback."""
    monkeypatch.setattr(scenarios, "_KEPLER_ITERATIONS", 0)
    cfg = _write_cfg(tmp_path, "scenario = satellite\nduration = 150\n"
                               "params.conjunction_time = 100\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "notes.txt").read_text().startswith(
        "t=0.0: aborted (Kepler solve did not converge at tau=")
    header = "t,x0,x1,x2,x3,x4,x5,u0,u1,u2,mu0,mu1,mu2,h,Hstar,case,feasible,slack0,step_ms\n"
    assert (out / "run.csv").read_text() == header
    summary = (out / "summary.txt").read_text().splitlines()
    assert "steps = 0" in summary and "truncated = true" in summary
    assert "steps = 0" in capsys.readouterr().out
