"""Shared fixtures: short simulated runs and a trained suite.

Simulation is the expensive part of this test suite, so runs are
session-scoped and kept short (coarse 10 ms tick, 150 s of simulated
time).  Model-quality assertions in the integration tests are bounded
loosely enough to hold at this fidelity.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from repro.core.training import ModelTrainer
from repro.simulator.config import SystemConfig, fast_config
from repro.simulator.system import simulate_workload
from repro.workloads.registry import get_workload

TEST_SEED = 123
TRAIN_DURATION_S = 150.0

#: Session flight recorder (only when ``REPRO_FLIGHT_DIR`` is set, as
#: in CI): failed tests become notes, and a failing session dumps a
#: post-mortem bundle the workflow uploads as an artifact.
_FLIGHT = None


def pytest_configure(config) -> None:
    global _FLIGHT
    out_dir = os.environ.get("REPRO_FLIGHT_DIR")
    if not out_dir:
        return
    from repro.obs import flight

    _FLIGHT = flight.FlightRecorder(out_dir=out_dir)
    flight.set_global(_FLIGHT)


def pytest_runtest_logreport(report) -> None:
    if _FLIGHT is not None and report.failed:
        _FLIGHT.note(
            "test failed", nodeid=report.nodeid, when=report.when
        )


def pytest_sessionfinish(session, exitstatus) -> None:
    if _FLIGHT is not None and exitstatus not in (0, 5):  # 5 = no tests
        _FLIGHT.trigger(
            "ci.tests_failed", detail={"exitstatus": int(exitstatus)}
        )


@pytest.fixture(scope="session")
def config() -> SystemConfig:
    return fast_config()


def _run(name: str, duration_s: float, config: SystemConfig):
    return simulate_workload(
        get_workload(name), duration_s=duration_s, seed=TEST_SEED, config=config
    ).drop_warmup(2)


@pytest.fixture(scope="session")
def idle_run(config):
    return _run("idle", 60.0, config)


@pytest.fixture(scope="session")
def gcc_run(config):
    return _run("gcc", TRAIN_DURATION_S, config)


@pytest.fixture(scope="session")
def mcf_run(config):
    # mcf staggers 8 threads 30 s apart; run past full load so its
    # speculation-driven CPU underestimation (the paper's worst case)
    # is present in the trace.
    return _run("mcf", 260.0, config)


@pytest.fixture(scope="session")
def diskload_run(config):
    return _run("DiskLoad", TRAIN_DURATION_S, config)


@pytest.fixture(scope="session")
def mesa_run(config):
    return _run("mesa", TRAIN_DURATION_S, config)


@pytest.fixture(scope="session")
def training_runs(idle_run, gcc_run, mcf_run, diskload_run, mesa_run):
    return {
        "idle": idle_run,
        "gcc": gcc_run,
        "mcf": mcf_run,
        "DiskLoad": diskload_run,
        "mesa": mesa_run,
    }


@pytest.fixture(scope="session")
def paper_suite(training_runs):
    return ModelTrainer().train(training_runs)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(TEST_SEED)


def read_while_writing(write, *reads) -> "tuple[int, list]":
    """Run ``write()`` here while a second thread calls each of
    ``reads`` in turn until it returns, at a 1 µs switch interval;
    returns the reads made and the exceptions they raised."""
    stop, made, errors = threading.Event(), [0], []

    def read():
        while not stop.is_set():
            for call in reads:
                try:
                    call()
                except Exception as error:
                    errors.append(error)
                made[0] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        write()
    finally:
        stop.set()
        reader.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    return made[0], errors
