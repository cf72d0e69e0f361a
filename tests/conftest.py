"""Shared fixtures: scenario builds and closed-loop runs are expensive, so
they are produced once per session and reused across test modules."""

from __future__ import annotations

import time

import pytest

from pcbf.scenarios import default_config
from pcbf.simulate import build_scenario, run_closed_loop


class TimedRun:
    def __init__(self, log, wall_s):
        self.log = log
        self.wall_s = wall_s


def _timed(cfg):
    t0 = time.perf_counter()
    log = run_closed_loop(cfg)
    return TimedRun(log, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def intersection_pcbf():
    return _timed(default_config("intersection_cross", "pcbf"))


@pytest.fixture(scope="session")
def intersection_left_pcbf():
    return _timed(default_config("intersection_left_turn", "pcbf"))


@pytest.fixture(scope="session")
def intersection_ecbf():
    return _timed(default_config("intersection_cross", "ecbf"))


@pytest.fixture(scope="session")
def intersection_left_ecbf():
    return _timed(default_config("intersection_left_turn", "ecbf"))


@pytest.fixture(scope="session")
def satellite_pcbf():
    return _timed(default_config("satellite", "pcbf"))


@pytest.fixture(scope="session")
def satellite_ecbf():
    return _timed(default_config("satellite", "ecbf"))


@pytest.fixture(scope="session")
def satellite_none():
    return _timed(default_config("satellite", "none"))


@pytest.fixture(scope="session")
def intersection_setup():
    cfg = default_config("intersection_cross")
    model, h, path, mu_law, x0 = build_scenario(cfg)
    return cfg, model, h, path, mu_law, x0


@pytest.fixture(scope="session")
def satellite_setup():
    cfg = default_config("satellite")
    model, h, path, mu_law, x0 = build_scenario(cfg)
    return cfg, model, h, path, mu_law, x0
