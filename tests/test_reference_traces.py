"""Closed-loop traces against the benchmark's recorded references.

Each benchmark run's run.csv must match perfbench/reference/<config>_<ctrl>.csv.gz
in every column except step_ms, to 1e-6 times the column's largest reference
magnitude plus 1e-12; NaN matches NaN and text columns match exactly.
"""

import csv
import gzip
from pathlib import Path

import numpy as np
import pytest

from pcbf.cli import write_csv

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def _table(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


@pytest.mark.parametrize("config, controller, fixture", [
    ("intersection_cross", "pcbf", "intersection_pcbf"),
    ("intersection_left_turn", "pcbf", "intersection_left_pcbf"),
    ("intersection_cross", "ecbf", "intersection_ecbf"),
    ("intersection_left_turn", "ecbf", "intersection_left_ecbf"),
    ("satellite", "pcbf", "satellite_pcbf"),
    ("satellite", "ecbf", "satellite_ecbf"),
])
def test_run_matches_benchmark_reference(config, controller, fixture, request, tmp_path):
    log = request.getfixturevalue(fixture).log
    assert (log.cfg.scenario, log.cfg.controller) == (config, controller)
    write_csv(log, tmp_path / "run.csv")
    header, rows = _table((tmp_path / "run.csv").read_text())
    with gzip.open(REFERENCE / f"{config}_{controller}.csv.gz", "rt") as fh:
        ref_header, ref_rows = _table(fh.read())
    assert [c for c in header if c != "step_ms"] == ref_header
    assert len(rows) == len(ref_rows)
    for j, col in enumerate(ref_header):
        i = header.index(col)
        got = [r[i] for r in rows]
        want = [r[j] for r in ref_rows]
        try:
            want_f = np.array(want, dtype=float)
        except ValueError:
            assert got == want, col
            continue
        finite = np.isfinite(want_f)
        scale = float(np.max(np.abs(want_f[finite]))) if finite.any() else 0.0
        ok = np.isclose(np.array(got, dtype=float), want_f, rtol=0.0,
                        atol=1e-6 * scale + 1e-12, equal_nan=True)
        assert ok.all(), f"{col}: first mismatch at row {int(np.argmin(ok))}"
