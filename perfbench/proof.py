#!/usr/bin/env python3
"""Steadiness and self-checks for the benchmark, run one process at a time.

    python3 perfbench/proof.py spread WORKLOAD [WORKLOAD ...] --seeds 1-10
    python3 perfbench/proof.py counts WORKLOAD [WORKLOAD ...] --seed 1

spread  runs the untraced benchmark once per seed and reports, per
        end-to-end metric, the median and the quartile spread
        (q3 - q1) / median from statistics.quantiles(values, n=4), flagged
        WIDE when it exceeds a third of the metric's bound.
counts  runs the traced benchmark twice on one seed and requires every
        per-layer count to repeat exactly (traced outputs are checked
        against untraced ones inside each traced run).

Each writes a JSON record to --out (default perfbench/out/proof/).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(bench.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    tic = time.perf_counter()
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - tic
    return result


def spread(args) -> dict:
    spec = bench.spec()
    report = {}
    for w in args.workloads:
        results = [run_once(w, s, args.seconds, 0) for s in seeds(args.seeds)]
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                               "bound": m["bound"], "values": values}
            flag = "WIDE" if share > m["bound"] / 3 else "ok"
            print(f"{w:<18} {m['name']:<16} median {med:<12.6g} spread {share:7.4f} "
                  f"bound/3 {m['bound'] / 3:.4f} {flag}", flush=True)
        wall = [r["wall_s"] for r in results]
        print(f"{w:<18} wall per run: median {statistics.median(wall):.1f} s, "
              f"max {max(wall):.1f} s", flush=True)
        report[w] = {"seeds": seeds(args.seeds), "seconds": args.seconds,
                     "wall_s": wall,
                     "correct": all(r["correct"] for r in results),
                     "failed": sum(r["failed"] for r in results),
                     "attempted": sum(r["attempted"] for r in results),
                     "metrics": rows}
    return report


def counts(args) -> dict:
    report = {}
    for w in args.workloads:
        runs = [run_once(w, args.seed, args.seconds, 1) for _ in range(2)]
        first, second = ({k: v["value"] for k, v in r["metrics"].items()
                          if isinstance(v["value"], int)} for r in runs)
        differ = sorted(k for k in first if first[k] != second.get(k))
        ok = not differ and all(r["correct"] for r in runs)
        print(f"{w:<18} {len(first)} counts, {'repeat exactly' if not differ else differ}; "
              f"traced runs correct: {[r['correct'] for r in runs]}; "
              f"overhead {[round(r['metrics']['trace.overhead_frac']['value'], 4) for r in runs]}",
              flush=True)
        report[w] = {"seed": args.seed, "seconds": args.seconds, "ok": ok,
                     "differ": differ, "runs": [r["metrics"] for r in runs]}
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("spread", "counts"))
    parser.add_argument("workloads", nargs="+", choices=bench.WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench.spec()["run_seconds"])
    parser.add_argument("--out", type=Path, default=bench.OUT / "proof")
    args = parser.parse_args()
    report = spread(args) if args.mode == "spread" else counts(args)
    if args.mode == "spread" and set(report) == set(bench.WORKLOADS):
        # a full check makes 22 runs of each workload and 4 more
        med = [statistics.median(r["wall_s"]) for r in report.values()]
        print(f"22 runs of each workload and 4 more take about "
              f"{22 * sum(med) + 4 * max(med):.0f} s", flush=True)
    args.out.mkdir(parents=True, exist_ok=True)
    name = f"{args.mode}-{'-'.join(args.workloads)}.json"
    record = {"environment": bench.environment(args.seed), "results": report}
    (args.out / name).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
