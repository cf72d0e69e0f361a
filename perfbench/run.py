#!/usr/bin/env python3
"""pcbf benchmark: closed-loop run time and filter-step latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the library is imported from `src/`.  One
process on one thread (BLAS pinned to one thread) drives pcbf only through
its public entry point `pcbf.cli.main(["run", ...])` on the pinned configs,
one `pcbf run` per controller.

Workloads (see BENCHMARK.json for why each was chosen):

  satellite_pcbf     configs/satellite.txt, controller pcbf
  intersection_pcbf  intersection_cross then intersection_left_turn, pcbf
  ecbf_baseline      all three pinned configs, controller ecbf

All three are deterministic closed loops on the pinned configs, so the seed
is recorded with each result but selects nothing.

A run repeats whole passes of the workload for about --seconds seconds: a
further pass starts only if the median pass so far still fits, and at least
one pass always runs.  With --trace 0 it reports the end-to-end metrics;
with --trace 1 it first measures untraced passes for half the time, then
traced passes (perfbench/tracing.py) for the other half, and reports the
per-layer metrics.  The times reported as run_s, step_ms_* and setup_s are
calibrated to a fixed reference speed of the host (perfbench/calibrate.py):
a fixed kernel runs between steps and each time is scaled by how long the
kernel took around it; the raw wall times are printed and recorded next to
them as raw.*.  Every output is checked against a reference recorded
from the pinned code (perfbench/make_reference.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller record with the environment goes to perfbench/out/results/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import gzip
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
REF = BENCH / "reference"
SRC = ROOT / "src"

CLOSED_LOOP = {
    "satellite_pcbf": [("satellite", "pcbf")],
    "intersection_pcbf": [("intersection_cross", "pcbf"),
                          ("intersection_left_turn", "pcbf")],
    "ecbf_baseline": [("intersection_cross", "ecbf"),
                      ("intersection_left_turn", "ecbf"),
                      ("satellite", "ecbf")],
}
WORKLOADS = list(CLOSED_LOOP)
SETUP_PROBES = 3       # set-up is timed in this many fresh processes
# a value matches its reference when |a - b| <= REL_TOL * max|reference
# column| + ABS_TOL; NaN matches NaN and text columns (case) match exactly
REL_TOL = 1e-6
ABS_TOL = 1e-12


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_pcbf():
    if not (SRC / "pcbf" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        fail(f"no pcbf sources under {SRC}; run from the root of a pcbf checkout")
    sys.path.insert(0, str(SRC))
    import pcbf.cli  # noqa: F401  (imports every layer)
    import pcbf.simulate
    if not Path(pcbf.cli.__file__).resolve().is_relative_to(SRC):
        fail(f"pcbf imported from {pcbf.cli.__file__}, not from {SRC}")
    return pcbf.cli, pcbf.simulate


def config_text(name: str, controller: str) -> str:
    """The pinned config `configs/<name>.txt` with its controller replaced."""
    lines = [line for line in (ROOT / "configs" / f"{name}.txt").read_text().splitlines()
             if line.split("=", 1)[0].strip() != "controller"]
    return "\n".join(lines + [f"controller = {controller}"]) + "\n"


def pct(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q / 100 * len(s)) - 1))]


# ---------------------------------------------------------------------------
# output checks

def read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def strip_step_ms(text: str) -> str:
    """run.csv without its step_ms column (the only timing-dependent one)."""
    header, rows = read_csv(text)
    keep = [i for i, h in enumerate(header) if h != "step_ms"]
    return "\n".join(",".join(r[i] for i in keep) for r in [header] + rows) + "\n"


def compare_table(header, rows, ref_header, ref_rows) -> str | None:
    """Why the table differs from the reference, or None if it matches."""
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows, reference has {len(ref_rows)}"
    index = {h: i for i, h in enumerate(header)}
    for j, col in enumerate(ref_header):
        if col not in index:
            return f"column {col} missing"
        i = index[col]
        ref_col = [r[j] for r in ref_rows]
        try:
            ref_vals = [float(v) for v in ref_col]
        except ValueError:
            for k, (r, v) in enumerate(zip(rows, ref_col)):
                if r[i] != v:
                    return f"row {k} column {col}: {r[i]!r} != {v!r}"
            continue
        scale = max((abs(v) for v in ref_vals if math.isfinite(v)), default=0.0)
        tol = REL_TOL * scale + ABS_TOL
        for k, (r, v) in enumerate(zip(rows, ref_vals)):
            got = float(r[i])
            same = (math.isnan(got) if math.isnan(v) else
                    got == v if math.isinf(v) else abs(got - v) <= tol)
            if not same:
                return f"row {k} column {col}: {got!r} vs reference {v!r} (tol {tol:.3g})"
    return None


def load_reference(name: str, controller: str):
    with gzip.open(REF / f"{name}_{controller}.csv.gz", "rt") as fh:
        return read_csv(fh.read())


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


# ---------------------------------------------------------------------------
# passes

class StepClock:
    """Times each controller step from the benchmark side, and runs the
    calibration kernel between steps (outside the timed step)."""

    def __init__(self, calibrator: calibrate.Calibrator):
        self.calibrator = calibrator
        self.reset()

    def reset(self):
        self.ms: list[float] = []
        self.at: list[float] = []       # perf_counter at each step's start
        self.first: float | None = None
        self.kernel_ms: list[float] = []  # kernel time after each step

    def attach(self, controller):
        step = controller.step

        def timed_step(t, x):
            tic = time.perf_counter()
            if self.first is None:
                self.first = tic
            dec = step(t, x)
            self.ms.append((time.perf_counter() - tic) * 1e3)
            self.at.append(tic)
            self.kernel_ms.append(self.calibrator.maybe_sample() * 1e3)
            return dec

        controller.step = timed_step
        return controller


@dataclass
class Pass:
    """One pass of a workload.  run_s and step_ms are calibrated to the
    reference speed (calibrate.py); raw_run_s and raw_step_ms are wall
    times with the kernel's own time taken out of raw_run_s."""
    run_s: float = 0.0
    raw_run_s: float = 0.0
    wall_s: float = 0.0
    step_ms: list = field(default_factory=list)
    raw_step_ms: list = field(default_factory=list)
    step_at: list = field(default_factory=list)
    csv_step_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    infeasible_steps: int = 0
    total_deviation: float = 0.0
    peak_control: float = 0.0
    outputs: list = field(default_factory=list)   # run.csv without step_ms
    layers: dict | None = None


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.cli, self.simulate = import_pcbf()
        self.calibrator = calibrate.Calibrator()
        self.clock = StepClock(self.calibrator)
        make_controller = self.simulate.make_controller
        self.simulate.make_controller = (
            lambda *a, **k: self.clock.attach(make_controller(*a, **k)))
        self.cfg_paths = {}
        for name, ctrl in CLOSED_LOOP[workload]:
            p = OUT / "configs" / f"{name}_{ctrl}.txt"
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(config_text(name, ctrl))
            self.cfg_paths[name, ctrl] = p
        self.refs = {key: load_reference(*key) for key in self.cfg_paths}

    def run_pass(self) -> Pass:
        """One `pcbf run` per config of the workload, each output checked."""
        tic = time.perf_counter()
        res = Pass()
        cal = self.calibrator
        lo = len(cal.took)
        cal.sample()
        for (name, ctrl), cfg_path in self.cfg_paths.items():
            out_dir = OUT / "runs" / self.workload / f"{name}_{ctrl}"
            self.clock.reset()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
            end = time.perf_counter()
            res.attempted += 1
            if rc != 0 or self.clock.first is None:
                res.failed += 1
                res.errors.append(f"{name}/{ctrl}: pcbf run exited {rc}")
                continue
            res.raw_run_s += end - self.clock.first - sum(self.clock.kernel_ms) / 1e3
            res.raw_step_ms += self.clock.ms
            res.step_at += self.clock.at
            error = self._check_run(res, name, ctrl, out_dir)
            if error:
                res.failed += 1
                res.errors.append(f"{name}/{ctrl}: {error}")
        cal.sample()
        hi = len(cal.took)
        # the steps' time is calibrated by the kernel samples around each
        # step; every step then gets the pass's effective factor, since a
        # factor per step would add its sampling noise to the tail
        raw_steps_ms = sum(res.raw_step_ms)
        steps_ms = sum(ms * f for ms, f in
                       zip(res.raw_step_ms, cal.local_factors(res.step_at, lo, hi)))
        g = steps_ms / raw_steps_ms if raw_steps_ms else 0.0
        res.step_ms = [ms * g for ms in res.raw_step_ms]
        # the time between steps (plant, logging, files) by the pass's
        # median factor
        between_s = res.raw_run_s - raw_steps_ms / 1e3
        res.run_s = steps_ms / 1e3 + between_s * cal.factor(lo, hi)
        res.wall_s = time.perf_counter() - tic
        return res

    def _check_run(self, res: Pass, name, ctrl, out_dir: Path) -> str | None:
        text = (out_dir / "run.csv").read_text()
        header, rows = read_csv(text)
        if "step_ms" in header:
            i = header.index("step_ms")
            # the library times controller.step, which here includes the
            # kernel run after it
            res.csv_step_ms += [float(r[i]) - k for r, k in zip(rows, self.clock.kernel_ms)]
        res.outputs.append(strip_step_ms(text))
        summary = read_summary(out_dir / "summary.txt")
        res.infeasible_steps += int(summary.get("infeasible_steps", 0))
        res.total_deviation += float(summary.get("total_deviation", "nan"))
        res.peak_control = max(res.peak_control,
                               float(summary.get("max_control_norm", "nan")))
        if summary.get("safe") != "true":
            return f"summary safe = {summary.get('safe')}"
        if summary.get("truncated") != "false":
            return f"summary truncated = {summary.get('truncated')}"
        return compare_table(header, rows, *self.refs[name, ctrl])

    def measure(self, seconds: float, on_pass=None) -> list[Pass]:
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            p = self.run_pass()
            if on_pass is not None:
                on_pass(p)
            if passes:  # only the first pass's outputs are compared later
                p.outputs.clear()
            passes.append(p)
            typical = statistics.median(q.wall_s for q in passes)
            if time.perf_counter() - start + typical > seconds:
                return passes


# ---------------------------------------------------------------------------
# set-up time

PROBE = """
import sys
sys.path.insert(0, {src!r})
import pcbf.cli, pcbf.simulate
for text in {texts!r}:
    cfg = pcbf.cli.parse_config(text)
    model, h, path, mu_law, x0 = pcbf.simulate.build_scenario(cfg)
    pcbf.simulate.make_controller(cfg, model, h, path, mu_law)
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Process start to the first control step, in fresh interpreters:
    import, parse_config, build_scenario and make_controller for every
    config of the workload.  Each is followed by the calibration probe
    (calibrate.IMPORT_PROBE).  Returns the calibrated times, each scaled by
    REFERENCE_IMPORT_S / the probe after it, and the raw ones."""
    texts = [config_text(n, c) for n, c in CLOSED_LOOP[workload]]
    code = PROBE.format(src=str(SRC), texts=texts)
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        raw.append(time_to_ready(code))
        times.append(raw[-1] * calibrate.REFERENCE_IMPORT_S
                     / time_to_ready(calibrate.IMPORT_PROBE))
    return times, raw


def time_to_ready(code: str) -> float:
    """Seconds from starting `python -c code` to its first line, `ready`."""
    tic = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            toc = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"probe exited {rc}: {code.splitlines()[0]}")
    return toc - tic


# ---------------------------------------------------------------------------
# reporting

def environment(seed: int) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "pcbf").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "platform": platform.platform(), "seed": seed}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# printed and recorded, but not in BENCHMARK.json: the step-time median of
# satellite_pcbf falls in a gap between cheap and costly steps, so it
# reflects only part of a run and spreads more than the mean; error_rate and
# infeasible_steps are 0 on some workloads; the last two are outputs that
# the reference check already pins to 1e-6
EXTRA_METRICS = (("step_ms_p50", "ms"), ("error_rate", "ratio"),
                 ("infeasible_steps", "count"), ("total_deviation", "u.s"),
                 ("peak_control", "u"), ("raw.run_s", "s"), ("raw.step_ms_mean", "ms"),
                 ("raw.step_ms_p98", "ms"), ("raw.setup_s", "s"),
                 ("calibration.kernel_ms", "ms"))


def end_to_end(passes: list[Pass], setups: tuple[list[float], list[float]],
               calibrator: calibrate.Calibrator) -> dict:
    steps = [ms for p in passes for ms in p.step_ms]
    raw_steps = [ms for p in passes for ms in p.raw_step_ms]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    last = passes[-1]
    return {
        "run_s": statistics.median(p.run_s for p in passes),
        "step_ms_mean": statistics.fmean(steps),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p98": pct(steps, 98),
        "setup_s": statistics.median(setups[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / attempted,
        "infeasible_steps": last.infeasible_steps,
        "total_deviation": last.total_deviation,
        "peak_control": last.peak_control,
        "raw.run_s": statistics.median(p.raw_run_s for p in passes),
        "raw.step_ms_mean": statistics.fmean(raw_steps),
        "raw.step_ms_p98": pct(raw_steps, 98),
        "raw.setup_s": statistics.median(setups[1]),
        "calibration.kernel_ms": statistics.median(calibrator.took) * 1e3,
    }


def traced_run(bench: Bench, seconds: float, tracer, src: Path) -> tuple[list, list, dict, list]:
    untraced = bench.measure(seconds / 2)
    first = True

    def collect(p: Pass):
        nonlocal first
        p.layers = tracer.layer_metrics(src)
        if first:  # the spans of the first traced pass go to disk
            tracer.save(OUT / "traces" / f"{bench.workload}-seed{bench.seed}.npz")
            first = False
        tracer.reset()

    tracer.install()
    tracer.reset()
    # the kernel runs inside simulate.run_closed_loop; as a span of its own
    # it stays out of that span's self time
    cal = bench.calibrator
    cal.sample = tracer.span("calibrate.kernel", cal.sample)
    traced = bench.measure(seconds / 2, on_pass=collect)
    del cal.sample
    tracer.uninstall()
    problems = []
    # self-checks: traced outputs equal untraced ones bit for bit, and
    # every count repeats exactly from one traced pass to the next
    if traced[0].outputs != untraced[0].outputs:
        problems.append("traced outputs differ from untraced outputs")
    counts = [{k: v for k, v in p.layers.items() if isinstance(v, int)} for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    layers = dict(traced[0].layers)
    for key, value in layers.items():
        if isinstance(value, float):
            layers[key] = statistics.median(p.layers[key] for p in traced)
    layers["trace.overhead_frac"] = (statistics.median(p.run_s for p in traced)
                                     / statistics.median(p.run_s for p in untraced) - 1.0)
    return untraced, traced, layers, problems


def run_workload(args) -> int:
    bench = Bench(args.workload, args.seed)
    env = environment(args.seed)
    declared = spec()
    problems = []
    if args.trace:
        unknown = {m["name"] for m in declared["per_layer"]} - tracing.metric_names()
        if unknown:
            fail(f"BENCHMARK.json names unknown per-layer metrics: {sorted(unknown)}")
        untraced, traced, layers, problems = traced_run(
            bench, args.seconds, tracing.Tracer(), SRC)
        passes = untraced + traced
        values = layers
        section = "per_layer"
    else:
        passes = bench.measure(args.seconds)
        values = end_to_end(passes, setup_seconds(args.workload), bench.calibrator)
        section = "end_to_end"
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(problems)
    errors = [e for p in passes for e in p.errors] + problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[section]}

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env))
    shown = [(m["name"], m["unit"]) for m in declared[section]]
    if not args.trace:
        shown += EXTRA_METRICS
        csv_ms = [ms for p in passes for ms in p.csv_step_ms]
        if csv_ms:  # cross-check: the run's own step timings
            values["step_ms_p50 (run.csv step_ms)"] = statistics.median(csv_ms)
            shown.append(("step_ms_p50 (run.csv step_ms)", "ms"))
    for name, unit in shown:
        v = values[name]
        print(f"  {name:<34} " + (f"{v:>14d}" if isinstance(v, int) else f"{v:>14.6g}")
              + f" {unit}")
    for e in errors[:20]:
        print(f"  FAILED {e}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "passes": len(passes),
              "pass_run_s": [p.run_s for p in passes],
              "pass_raw_run_s": [p.raw_run_s for p in passes],
              "calibration_s": bench.calibrator.took, "values": values,
              "errors": errors}
    res_dir = OUT / "results"
    res_dir.mkdir(parents=True, exist_ok=True)
    (res_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    attempted = failed = 0
    metrics = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
