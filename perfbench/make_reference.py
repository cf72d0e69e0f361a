#!/usr/bin/env python3
"""Record the benchmark's reference outputs from the code in `src/`.

    python3 perfbench/make_reference.py

Writes perfbench/reference/<config>_<controller>.csv.gz: the run.csv of each
closed-loop run the benchmark makes, without the step_ms column.  Run it only
on code whose outputs are the accepted reference.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def write_gz(path: Path, text: str):
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode())


def main():
    cli, _ = bench.import_pcbf()
    bench.REF.mkdir(parents=True, exist_ok=True)
    pairs = sorted({pair for runs in bench.CLOSED_LOOP.values() for pair in runs})
    for name, ctrl in pairs:
        cfg_path = bench.OUT / "configs" / f"{name}_{ctrl}.txt"
        cfg_path.parent.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(bench.config_text(name, ctrl))
        out_dir = bench.OUT / "reference-runs" / f"{name}_{ctrl}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        if rc != 0:
            raise SystemExit(f"{name}/{ctrl}: pcbf run exited {rc}")
        text = bench.strip_step_ms((out_dir / "run.csv").read_text())
        write_gz(bench.REF / f"{name}_{ctrl}.csv.gz", text)
        print(f"{name}/{ctrl}: {text.count(chr(10)) - 1} rows")


if __name__ == "__main__":
    main()
