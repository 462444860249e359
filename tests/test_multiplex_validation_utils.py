"""Tests for counter multiplexing and the validation utilities
(holdout, temporal cross-validation)."""

import hashlib

import numpy as np
import pytest

from repro.core.events import SUBSYSTEMS, Event, Subsystem, TRICKLE_DOWN_EVENTS
from repro.core.training import ModelTrainer
from repro.core.validation import (
    holdout_validation,
    temporal_cross_validation,
    validate_suite,
)
from repro.counters.multiplex import MultiplexedCounterBank
from repro.simulator.system import Server
from repro.workloads.registry import get_workload
from tests.conftest import TEST_SEED


class TestMultiplexedCounterBank:
    def make(self, n_slots=4, rotation_s=0.1):
        return MultiplexedCounterBank(
            tuple(Event), 2, n_slots=n_slots, rotation_s=rotation_s
        )

    def test_group_partition_covers_all_multiplexed_events(self):
        bank = self.make(n_slots=4)
        covered = set()
        for group in bank._groups:
            assert len(group) <= 4
            covered |= group
        assert covered == {e for e in Event if e in TRICKLE_DOWN_EVENTS}

    def test_enough_slots_means_one_group(self):
        bank = self.make(n_slots=len(TRICKLE_DOWN_EVENTS))
        assert bank.n_groups == 1

    def test_inactive_events_are_dropped(self):
        bank = self.make(n_slots=2)
        inactive = next(
            e for e in TRICKLE_DOWN_EVENTS if e not in bank.active_events
        )
        bank.add(inactive, 0, 100.0)
        assert bank.peek(inactive)[0] == 0.0

    def test_active_events_are_counted(self):
        bank = self.make(n_slots=2)
        active = next(iter(bank.active_events))
        bank.add(active, 0, 100.0)
        assert bank.peek(active)[0] == 100.0

    def test_local_events_never_multiplexed(self):
        bank = self.make(n_slots=2)
        bank.add(Event.DRAM_READS, 0, 50.0)
        assert bank.peek(Event.DRAM_READS)[0] == 50.0

    def test_rotation_advances_groups(self):
        bank = self.make(n_slots=2, rotation_s=0.1)
        first = bank.active_events
        for _ in range(11):
            bank.advance(0.01)
        assert bank.active_events != first

    def test_extrapolation_recovers_steady_rates(self):
        """A constant-rate event is reconstructed exactly by the
        window/observed scaling."""
        bank = self.make(n_slots=2, rotation_s=0.05)
        event = next(iter(TRICKLE_DOWN_EVENTS & set(bank.events)))
        for _ in range(100):  # 1 s window at 10 ms ticks
            bank.advance(0.01)
            if event in bank.active_events:
                bank.add(event, 0, 10.0)
        counts = bank.read_and_clear()
        # True total would be 100 ticks * 10 = 1000.
        assert counts[event][0] == pytest.approx(1000.0, rel=0.15)

    def test_unscheduled_event_reports_zero(self):
        bank = self.make(n_slots=2, rotation_s=100.0)  # never rotates
        inactive = next(
            e for e in TRICKLE_DOWN_EVENTS if e not in bank.active_events
        )
        bank.advance(0.5)
        counts = bank.read_and_clear()
        assert counts[inactive][0] == 0.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MultiplexedCounterBank(tuple(Event), 2, n_slots=0)
        with pytest.raises(ValueError):
            MultiplexedCounterBank(tuple(Event), 2, n_slots=2, rotation_s=0.0)
        bank = self.make()
        with pytest.raises(ValueError):
            bank.advance(0.0)

    def test_server_integration(self, config):
        bank = MultiplexedCounterBank(
            tuple(Event), config.num_packages, n_slots=4
        )
        server = Server(
            config, get_workload("gcc"), seed=TEST_SEED, counter_bank=bank
        )
        run = server.run(30.0)
        # All events present and non-degenerate despite multiplexing.
        for event in (Event.CYCLES, Event.FETCHED_UOPS, Event.BUS_TRANSACTIONS):
            assert run.counters.total(event).sum() > 0.0

    def test_mismatched_bank_rejected(self, config):
        bank = MultiplexedCounterBank(tuple(Event), 2, n_slots=4)
        with pytest.raises(ValueError, match="CPU count"):
            Server(config, get_workload("idle"), seed=1, counter_bank=bank)


def _multiplexed_run(config, n_slots: int, duration_s: float = 20.0):
    bank = MultiplexedCounterBank(
        tuple(Event), config.num_packages, n_slots=n_slots
    )
    server = Server(
        config, get_workload("gcc"), seed=TEST_SEED, counter_bank=bank
    )
    return server, server.run(duration_s)


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return sha.hexdigest()[:16]


def _run_digests(server, run) -> "dict[str, str]":
    """Bit-exact digests of a run's windows, DAQ power and energy."""
    counters = run.counters
    return {
        "counters": _digest(
            [counters.timestamps, counters.durations]
            + [counters.per_cpu(event) for event in counters.events]
        ),
        "power": _digest(
            [run.power.timestamps]
            + [run.power.power(s) for s in run.power.subsystems]
        ),
        "energy": _digest(
            [[server.energy._energy_j[s] for s in SUBSYSTEMS]]
        ),
    }


class TestMultiplexedServerIdentity:
    """Multiplexed runs stay bit-identical across kernel refactors.

    The digests are a 20 s gcc run at ``fast_config()`` and
    ``TEST_SEED``: the per-window counter trace (timestamps, durations,
    every event's per-CPU counts), the DAQ power trace and the
    end-of-run energy account, hashed as raw float64 bytes.
    """

    #: slots -> digests (see :func:`_run_digests`).
    DIGESTS = {
        2: {
            "counters": "ee6cfc5d8bccd326",
            "power": "f2a04649edb6690b",
            "energy": "c3c637a188a6f34f",
        },
        4: {
            "counters": "415cae76081a8a7b",
            "power": "f2a04649edb6690b",
            "energy": "c3c637a188a6f34f",
        },
    }

    @pytest.mark.parametrize("n_slots", [2, 4])
    def test_run_matches_recorded_digests(self, config, n_slots):
        server, run = _multiplexed_run(config, n_slots)
        assert server.counters.n_groups > 1
        assert _run_digests(server, run) == self.DIGESTS[n_slots]

    def test_one_group_bank_equals_plain_bank(self, config):
        """With a slot per event nothing is dropped or extrapolated."""
        server, run = _multiplexed_run(config, len(TRICKLE_DOWN_EVENTS))
        assert server.counters.n_groups == 1
        plain = Server(config, get_workload("gcc"), seed=TEST_SEED)
        reference = plain.run(20.0)
        assert _run_digests(server, run) == _run_digests(plain, reference)
        assert server.counters._rows == plain.counters._rows


class TestHoldoutValidation:
    def test_full_fraction_equals_plain_training(self, training_runs):
        trainer = ModelTrainer()
        report = holdout_validation(trainer, training_runs, 1.0)
        baseline = validate_suite(trainer.train(training_runs), training_runs)
        for workload in report.workloads:
            for subsystem in Subsystem:
                assert report.errors[workload][subsystem] == pytest.approx(
                    baseline.errors[workload][subsystem], rel=1e-9
                )

    def test_small_fraction_still_trains(self, training_runs):
        report = holdout_validation(ModelTrainer(), training_runs, 0.15)
        assert report.subsystem_average(Subsystem.IO) < 5.0

    def test_invalid_fraction_rejected(self, training_runs):
        with pytest.raises(ValueError):
            holdout_validation(ModelTrainer(), training_runs, 0.0)
        with pytest.raises(ValueError):
            holdout_validation(ModelTrainer(), training_runs, 1.5)

    def test_missing_run_is_clear_error(self, idle_run):
        with pytest.raises(ValueError, match="needs a run"):
            holdout_validation(ModelTrainer(), {"idle": idle_run}, 0.5)


class TestTemporalCrossValidation:
    def test_produces_one_report_per_fold(self, training_runs):
        reports = temporal_cross_validation(ModelTrainer(), training_runs, 3)
        assert len(reports) == 3
        for report in reports:
            assert set(report.workloads) == set(training_runs)

    def test_folds_are_stable(self, training_runs):
        reports = temporal_cross_validation(ModelTrainer(), training_runs, 3)
        overall = [report.overall_average() for report in reports]
        assert max(overall) - min(overall) < 6.0

    def test_too_few_folds_rejected(self, training_runs):
        with pytest.raises(ValueError):
            temporal_cross_validation(ModelTrainer(), training_runs, 1)
