"""Command-line interface: run one closed-loop simulation, or compare
controllers on a scenario.

Config files are flat `key = value` text; dotted keys (params.k) set scenario
parameters.  parse_config(serialize_config(cfg)) returns an equal config.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from pcbf.core import ConfigurationError
from pcbf.scenarios import CONTROLLERS, SCENARIOS, ScenarioConfig, default_config
from pcbf.simulate import SimLog, run_closed_loop

# config key -> "float", "int", ...: ScenarioConfig's string annotations
_KEY_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def parse_config(text: str) -> ScenarioConfig:
    """Parse a flat key = value config.  Errors name the offending key and
    line number.  Unset keys fall back to the scenario defaults."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key in raw:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (value, lineno)

    if "scenario" not in raw:
        raise ConfigurationError("missing required key 'scenario'")
    scenario, lineno = raw.pop("scenario")
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"line {lineno}: key 'scenario': unknown scenario {scenario!r} "
            f"(choices: {', '.join(SCENARIOS)})")
    cfg = default_config(scenario)

    def bad(key, lineno, value, expected):
        return ConfigurationError(
            f"line {lineno}: key {key!r}: cannot parse {value!r} as {expected}")

    def number(key, lineno, value):
        try:
            v = float(value)
        except ValueError:
            raise bad(key, lineno, value, "a number") from None
        if not math.isfinite(v):
            raise bad(key, lineno, value, "a finite number")
        return v

    for key, (value, lineno) in raw.items():
        kind = _KEY_TYPES.get(key)
        if key.startswith("params."):
            pkey = key[len("params."):]
            if pkey not in cfg.params:
                raise ConfigurationError(
                    f"line {lineno}: key {key!r}: unknown parameter for scenario "
                    f"{scenario!r} (choices: {', '.join(sorted(cfg.params))})")
            cfg.params[pkey] = number(key, lineno, value)
        elif kind == "float":
            setattr(cfg, key, number(key, lineno, value))
        elif kind == "int":
            try:
                setattr(cfg, key, int(value))
            except ValueError:
                raise bad(key, lineno, value, "an integer") from None
        elif key == "controller":
            if value not in CONTROLLERS:
                raise ConfigurationError(
                    f"line {lineno}: key 'controller': unknown controller {value!r} "
                    f"(choices: {', '.join(CONTROLLERS)})")
            cfg.controller = value
        else:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
    return cfg


def serialize_config(cfg: ScenarioConfig) -> str:
    """Write a config back out so that parse_config recovers it exactly."""
    lines = [f"scenario = {cfg.scenario}", f"controller = {cfg.controller}"]
    for f in fields(ScenarioConfig):
        if f.name not in ("scenario", "controller", "params"):  # floats and ints
            lines.append(f"{f.name} = {getattr(cfg, f.name)!r}")
    for k in sorted(cfg.params):
        lines.append(f"params.{k} = {cfg.params[k]!r}")
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_csv(log: SimLog, path: Path) -> None:
    n, n_x = log.x.shape
    n_u = log.u.shape[1]
    n_slack = max((len(s) for s in log.slack), default=0)
    n_slack = max(n_slack, 1)
    header = (["t"]
              + [f"x{i}" for i in range(n_x)]
              + [f"u{i}" for i in range(n_u)]
              + [f"mu{i}" for i in range(n_u)]
              + ["h", "Hstar", "case", "feasible"]
              + [f"slack{i}" for i in range(n_slack)]
              + ["step_ms"])
    # each column as Python floats once: they format as their numpy scalars do
    t, x, u, mu = log.t.tolist(), log.x.tolist(), log.u.tolist(), log.mu.tolist()
    h, h_star, step_ms = log.h.tolist(), log.h_star.tolist(), log.step_ms.tolist()
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(n):
            slack = list(log.slack[k]) + [0.0] * (n_slack - len(log.slack[k]))
            row = ([_fmt(t[k])]
                   + [_fmt(v) for v in x[k]]
                   + [_fmt(v) for v in u[k]]
                   + [_fmt(v) for v in mu[k]]
                   + [_fmt(h[k]), _fmt(h_star[k]), log.case[k],
                      str(int(log.feasible[k]))]
                   + [_fmt(v) for v in slack]
                   + [_fmt(step_ms[k])])
            fh.write(",".join(row) + "\n")


def summarize(log: SimLog) -> dict:
    if not len(log.t):  # aborted at its first step: there is no value to sum up
        return {"scenario": log.cfg.scenario, "controller": log.cfg.controller, "steps": 0,
                "truncated": log.truncated}
    dev = np.linalg.norm(log.u - log.mu, axis=1)
    u_norm = np.linalg.norm(log.u, axis=1)
    out = {
        "scenario": log.cfg.scenario,
        "controller": log.cfg.controller,
        "steps": len(log.t),
        "max_h": float(np.max(log.h)),
        "final_h": float(log.h[-1]),
        "max_control_norm": float(np.max(u_norm)),
        "total_deviation": float(np.sum(dev) * log.cfg.step),
        "mean_step_ms": float(np.mean(log.step_ms)),
        "max_step_ms": float(np.max(log.step_ms)),
        "infeasible_steps": log.infeasible_steps,
        "monitor_violations": log.monitor_violations,
        "truncated": log.truncated,
        "safe": bool(np.max(log.h) <= 0.0),
    }
    finite = np.isfinite(log.h_star)
    if np.any(finite):
        out["max_Hstar"] = float(np.max(log.h_star[finite]))
    nz = np.flatnonzero(dev > 1e-9)
    out["first_intervention_t"] = float(log.t[nz[0]]) if nz.size else math.nan
    if log.cfg.scenario.startswith("intersection"):
        out["car1_crossed"] = bool(log.x[-1, 0] > 0.0)
        out["car2_crossed"] = bool(log.x[-1, 2] > 0.0)
    return out


def write_summary(summary: dict, path: Path) -> None:
    with open(path, "w") as fh:
        for k, v in summary.items():
            if isinstance(v, bool):
                fh.write(f"{k} = {'true' if v else 'false'}\n")
            elif isinstance(v, float):
                fh.write(f"{k} = {_fmt(v)}\n")
            else:
                fh.write(f"{k} = {v}\n")


def _run_one(cfg: ScenarioConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    log = run_closed_loop(cfg)
    write_csv(log, out_dir / "run.csv")
    summary = summarize(log)
    write_summary(summary, out_dir / "summary.txt")
    (out_dir / "config.txt").write_text(serialize_config(cfg))
    if log.notes:
        (out_dir / "notes.txt").write_text("\n".join(log.notes) + "\n")
    return summary


def cmd_run(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    summary = _run_one(cfg, Path(args.out))
    for k, v in summary.items():
        print(f"{k} = {v}")
    return 0


def cmd_compare(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    names = [c.strip() for c in args.controllers.split(",") if c.strip()]
    if not names or len(set(names)) < len(names) or not set(names) <= set(CONTROLLERS):
        raise ConfigurationError(f"--controllers must name distinct controllers out of "
                                 f"{', '.join(CONTROLLERS)}, got {args.controllers!r}")
    out_dir = Path(args.out)  # made by the first run
    # one run at a time, so each run's step_ms is its own
    table = [_run_one(replace(cfg, controller=name, params=dict(cfg.params)),
                      out_dir / name)
             for name in names]
    cols = ["controller", "max_h", "safe", "max_control_norm", "total_deviation",
            "mean_step_ms"]
    lines = ["\t".join(cols)]
    for s in table:
        lines.append("\t".join(str(s.get(c, "")) for c in cols))
    report = "\n".join(lines) + "\n"
    (out_dir / "compare.txt").write_text(report)
    print(report, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pcbf", description="Predictive safety-filter simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one closed-loop simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several controllers on one scenario")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--controllers", default="pcbf,ecbf,none")
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
