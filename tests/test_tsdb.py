"""Tests for durable telemetry (PR: embedded TSDB + unified alert plane).

Covers the store end to end: delta-of-delta/varint codec round-trips,
the single-atomic-commit crash-safety protocol (restart, unflushed-tail
loss, corrupt state, orphan segments), tiered downsampling with *exact*
min/mean/max/count rollups across compaction and restart, per-tier
retention, the query engine (matchers, instant, range, step
aggregation, label grouping, tier selection, rate, quantiles),
recording rules, the AlertManager folding drift/service/dc sources into
one deduplicated plane with ``alerts_firing`` persistence, the
``WindowSink`` bridge, the HTTP query/alert routes, and the
``repro-power query`` / ``obs --store`` CLI.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.cli import main
from repro.obs.alertmgr import Alert, AlertManager, dedup_key
from repro.obs.http import ObservabilityServer
from repro.obs.rules import DEFAULT_RULES, RecordingRule, RuleEngine
from repro.obs.tsdb import (
    _AGGS,
    DEFAULT_RETENTION_S,
    TSDB,
    WindowSink,
    _bucket,
    parse_duration,
    parse_matchers,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture()
def store(tmp_path):
    return TSDB(str(tmp_path / "store"))


def _fill(db, name="power_watts", labels=None, n=100, t0=0.0, dt=1.0, f=None):
    appender = db.appender(name, labels or {"node": "a"})
    points = []
    for i in range(n):
        t = t0 + i * dt
        value = f(i) if f is not None else 100.0 + math.sin(i / 7.0) * 25.0
        assert appender.append(t, value)
        points.append((t, value))
    return points


class TestParsing:
    def test_parse_duration(self):
        assert parse_duration("90") == 90.0
        assert parse_duration("90s") == 90.0
        assert parse_duration("5m") == 300.0
        assert parse_duration("2h") == 7200.0
        assert parse_duration("7d") == 7 * 86400.0

    def test_parse_matchers(self):
        assert parse_matchers(["k=v", "node=~web-.*"]) == {
            "k": "v",
            "node": "=~web-.*",
        }
        assert parse_matchers(None) == {}
        with pytest.raises(ValueError):
            parse_matchers(["no-separator"])


class TestCodecRoundTrip:
    def test_uneven_timestamps_and_exact_floats(self, store):
        # Every value-encoding path: repeats, small integers, negative
        # integers, and raw IEEE doubles that must survive bit-exactly.
        values = [1.0, 1.0, 1.0, 7.0, -13.0, 0.1, 0.1 + 0.2, 1e-300, -2.5e17]
        times = [0.0, 0.001, 0.002, 5.0, 5.001, 100.0, 101.5, 3600.0, 3600.001]
        appender = store.appender("mixed", None)
        for t, value in zip(times, values):
            assert appender.append(t, value)
        (series,) = store.select("mixed")
        assert [v for _, v in series["points"]] == values
        for got, want in zip(series["points"], times):
            assert got[0] == pytest.approx(want, abs=5e-4)

    def test_out_of_order_appends_dropped_and_counted(self, store):
        appender = store.appender("m", None)
        assert appender.append(10.0, 1.0)
        assert not appender.append(9.0, 2.0)
        assert appender.append(10.0, 3.0)  # equal timestamps are fine
        assert store.document()["shards"]["m"]["dropped_out_of_order"] == 1

    def test_many_points_round_trip_after_restart(self, store):
        points = _fill(store, n=5000, dt=0.25)
        store.flush()
        reopened = TSDB(store.root)
        (series,) = reopened.select("power_watts")
        assert len(series["points"]) == 5000
        for (gt, gv), (wt, wv) in zip(series["points"], points):
            assert gv == wv
            assert gt == pytest.approx(wt, abs=5e-4)


class TestCrashSafety:
    def test_unflushed_tail_lost_flushed_prefix_intact(self, store):
        _fill(store, n=50)
        store.flush()
        _fill(store, n=50, t0=50.0)  # never flushed
        reopened = TSDB(store.root)
        (series,) = reopened.select("power_watts")
        assert len(series["points"]) == 50
        # The reopened store accepts appends continuing the series.
        assert reopened.append("power_watts", {"node": "a"}, 50.0, 1.0)

    def test_corrupt_state_resets_shard_not_store(self, store, caplog):
        _fill(store, n=10)
        store.flush()
        state = os.path.join(store.root, "power_watts", "state.bin")
        with open(state, "wb") as handle:
            handle.write(b"garbage")
        reopened = TSDB(store.root)
        assert reopened.select("power_watts") == []

    def test_orphan_segments_removed_on_open(self, store):
        _fill(store, n=10)
        store.flush()
        orphan = os.path.join(store.root, "power_watts", "raw-999999.seg")
        with open(orphan, "wb") as handle:
            handle.write(b"leftover from a seal crash")
        reopened = TSDB(store.root)
        reopened.select("power_watts")  # a read deletes nothing
        assert os.path.exists(orphan)
        reopened.appender("power_watts", {"node": "a"})  # opens the shard
        assert not os.path.exists(orphan)

    def test_flush_is_the_only_commit_point(self, store):
        _fill(store, n=10)
        shard_dir = os.path.join(store.root, "power_watts")
        assert not os.path.exists(os.path.join(shard_dir, "state.bin"))
        store.flush()
        assert os.path.exists(os.path.join(shard_dir, "state.bin"))


class TestRollups:
    def test_rollup_cells_exact_against_raw(self, store):
        points = _fill(store, n=1000, dt=0.5, f=lambda i: (i * 37) % 101 - 50.0)
        for tier, width in (("10s", 10.0), ("2m", 120.0)):
            (series,) = store.select_cells("power_watts", tier=tier)
            assert series["cells"], tier
            total = 0
            for start_s, vmin, vmax, mean, count in series["cells"]:
                raw = [v for t, v in points if start_s <= t < start_s + width]
                assert count == len(raw)
                assert vmin == min(raw)
                assert vmax == max(raw)
                assert mean == pytest.approx(sum(raw) / len(raw), rel=1e-12)
                total += count
            assert total == len(points)

    def test_rollups_exact_across_compaction_and_restart(self, tmp_path):
        # A tiny seal threshold forces real segment compaction cycles.
        db = TSDB(str(tmp_path / "s"), seal_bytes=256)
        points = []
        for chunk in range(20):
            points += _fill(db, n=50, t0=chunk * 50.0, f=lambda i: float(i % 17))
            db.flush()
        assert any(
            count > 0
            for count in db.document()["shards"]["power_watts"]["segments"].values()
        )
        reopened = TSDB(str(tmp_path / "s"))
        (raw,) = reopened.select("power_watts")
        assert [v for _, v in raw["points"]] == [v for _, v in points]
        (cells,) = reopened.select_cells("power_watts", tier="10s")
        for start_s, vmin, vmax, mean, count in cells["cells"]:
            window = [v for t, v in points if start_s <= t < start_s + 10.0]
            assert (vmin, vmax, count) == (min(window), max(window), len(window))
            assert mean == pytest.approx(sum(window) / len(window), rel=1e-12)

    def test_open_tail_visible_in_rollups_before_seal(self, store):
        # Nothing sealed, nothing flushed: rollup queries still see
        # every appended sample (the unfolded open-raw tail).
        _fill(store, n=25)
        (series,) = store.select_cells("power_watts", tier="10s")
        assert sum(cell[4] for cell in series["cells"]) == 25


#: sha256 of the pinned store's segment files, of its ``state.bin``
#: files without the ``"pending"`` header key older stores carry, and
#: of a fresh reader's answers (see :func:`_pinned_store`).
PINNED = {
    "segments": "d331d3dbefa5f3e6a05653b7a793bed5bdb5fa65cd7c26e596061f32e54a5f16",
    "states": "180eca17e0d21d8dd0da0e40ae0cdd338d7529b6eaa98b977ef0360edabd7d36",
    "answers": "365675f5b5ca691a0aab9e2940f0783d477f6cc9d8a6ec4b04c0bbc4098c7533",
}


def _pinned_store(root: str) -> None:
    """A deterministic store: four series over two metrics, flushed every
    25 steps, with a seal threshold low enough that ``raw``, ``10s`` and
    ``2m`` segments all seal.  Values cover every encoding (repeats,
    integers, raw doubles) and timestamps are uneven."""
    db = TSDB(root, seal_bytes=512)
    power = [db.appender("power_watts", {"node": node}) for node in "ab"]
    work = db.appender("work_total", {"node": "a", "kind": "x"})
    late = None
    for i in range(2010):
        t = i * 0.5 + (i % 3) * 0.001
        power[0].append(t, float((i * 37) % 101 - 50))
        power[1].append(t, 100.0 + (i % 40) * 0.1)
        work.append(t, float(i // 10))
        if i >= 600:
            # A series born mid-run, with resets and a huge double.
            late = late or db.appender("work_total", {"node": "b", "kind": "y"})
            late.append(t, i * 0.25 if i % 7 else -1e17)
        if i % 25 == 24:
            db.flush()
    db.flush()


def _digest(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _store_files(root: str, pattern: str) -> "dict[str, bytes]":
    found = {}
    for path in sorted(glob.glob(os.path.join(root, "*", pattern))):
        with open(path, "rb") as handle:
            found[os.path.relpath(path, root)] = handle.read()
    return found


def _split_state(data: bytes) -> "tuple[dict, bytes]":
    """A ``state.bin``'s JSON header and the blobs after it."""
    start = len(b"RTST1\n") + 4
    (header_len,) = struct.unpack_from("<I", data, len(b"RTST1\n"))
    return json.loads(data[start:start + header_len]), data[start + header_len:]


def _state_digests(root: str) -> "dict[str, str]":
    digests = {}
    for path, data in _store_files(root, "state.bin").items():
        header, blobs = _split_state(data)
        header.pop("pending", None)
        digests[path] = _digest([header, hashlib.sha256(blobs).hexdigest()])
    return digests


def _answers(root: str) -> list:
    """Every query a fresh reader offers, over ranges that cut segments."""
    db = TSDB(root)
    out = []
    for name in db.names():
        out.append(db.series(name))
        for start_s, end_s in ((0.0, None), (123.4, 456.7)):
            out.append(db.select(name, None, start_s, end_s))
            for tier in ("10s", "2m"):
                out.append(db.select_cells(name, None, start_s, end_s, tier))
            out.append(db.rate(name, None, start_s, end_s))
            out.append(db.quantile_over_time(name, 0.9, None, start_s, end_s))
        out.append(db.query(name))
        out.append(db.query(name, {"node": "=~a|b"}, at_s=321.0))
        for tier in ("raw", "10s", "2m", "auto"):
            out.append(db.query_range(name, None, 100.0, 700.0, tier=tier))
            for agg in _AGGS:
                out.append(db.query_range(
                    name, None, 30.0, 990.0, step_s=45.0, agg=agg, tier=tier
                ))
        out.append(db.query_range(name, step_s=60.0, agg="sum", by=("kind",)))
    return out


class TestPinnedStore:
    """The on-disk format and every answer, pinned byte for byte."""

    def test_segments_states_and_answers_are_pinned(self, tmp_path):
        root = str(tmp_path / "pinned")
        _pinned_store(root)
        segments = _store_files(root, "*.seg")
        tiers = {os.path.basename(path).split("-")[0] for path in segments}
        assert tiers == {"raw", "10s", "2m"}
        assert _digest({
            path: hashlib.sha256(data).hexdigest()
            for path, data in segments.items()
        }) == PINNED["segments"]
        assert _digest(_state_digests(root)) == PINNED["states"]
        assert _digest(_answers(root)) == PINNED["answers"]

    def test_a_retired_pending_key_moves_no_answer(self, tmp_path):
        """State written with the ``"pending"`` key older stores carry
        (always empty lists) reads back to the same answers."""
        root = str(tmp_path / "pinned")
        _pinned_store(root)
        for path, data in _store_files(root, "state.bin").items():
            header, blobs = _split_state(data)
            header["pending"] = {"10s": [], "2m": []}
            encoded = json.dumps(header, sort_keys=True).encode("utf-8")
            with open(os.path.join(root, path), "wb") as handle:
                handle.write(
                    b"RTST1\n" + struct.pack("<I", len(encoded)) + encoded + blobs
                )
        assert _digest(_state_digests(root)) == PINNED["states"]
        assert _digest(_answers(root)) == PINNED["answers"]


class TestRetention:
    def test_raw_prunes_but_rollups_keep_history(self, tmp_path):
        db = TSDB(
            str(tmp_path / "s"),
            retention_s={"raw": 30.0},
            seal_bytes=64,
        )
        for chunk in range(10):
            _fill(db, n=20, t0=chunk * 20.0, f=float)
            db.flush()
        document = db.document()["shards"]["power_watts"]
        assert document["appended"] == 200
        (raw,) = db.select("power_watts")
        # Sealed raw segments older than 30s are gone (the open block
        # and still-covered segments remain).
        assert raw["points"][0][0] > 0.0
        # The 10s tier kept the full run.
        (cells,) = db.select_cells("power_watts", tier="10s")
        assert sum(cell[4] for cell in cells["cells"]) == 200
        # Pruned files are actually unlinked.
        listing = os.listdir(os.path.join(db.root, "power_watts"))
        manifest = db.document()["shards"]["power_watts"]["segments"]
        assert len([f for f in listing if f.startswith("raw-")]) == manifest["raw"]


class TestQueryEngine:
    def test_matchers_exact_and_regex(self, store):
        for node in ("web-1", "web-2", "db-1"):
            store.append("reqs", {"node": node}, 1.0, 1.0)
        assert len(store.select("reqs")) == 3
        assert len(store.select("reqs", {"node": "web-1"})) == 1
        assert len(store.select("reqs", {"node": "=~web-.*"})) == 2
        assert store.select("reqs", {"node": "=~db"}) == []  # fullmatch

    def test_instant_query_at_and_latest(self, store):
        _fill(store, n=10, f=float)
        (latest,) = store.query("power_watts")
        assert (latest["t_s"], latest["value"]) == (9.0, 9.0)
        (at,) = store.query("power_watts", at_s=4.5)
        assert (at["t_s"], at["value"]) == (4.0, 4.0)
        assert store.query("power_watts", at_s=-1.0) == []

    def test_range_step_aggregations(self, store):
        _fill(store, n=100, f=float)
        for agg, want in (
            ("mean", 4.5),
            ("min", 0.0),
            ("max", 9.0),
            ("sum", 45.0),
            ("count", 10.0),
            ("last", 9.0),
        ):
            (series,) = store.query_range(
                "power_watts", start_s=0, end_s=99, step_s=10, agg=agg
            )
            assert series["points"][0] == (0.0, want), agg

    def test_last_bucket_includes_end(self, store):
        _fill(store, n=100, f=float)
        (series,) = store.query_range(
            "power_watts", start_s=0, end_s=99, step_s=10, agg="count"
        )
        assert sum(v for _, v in series["points"]) == 100

    def test_by_grouping_collapses_series(self, store):
        for node, base in (("a", 10.0), ("b", 30.0)):
            _fill(store, labels={"node": node, "dc": "x"}, n=10, f=lambda i, b=base: b)
        grouped = store.query_range(
            "power_watts", start_s=0, end_s=9, step_s=10, agg="mean", by=("dc",)
        )
        assert len(grouped) == 1
        assert grouped[0]["labels"] == {"dc": "x"}
        assert grouped[0]["points"][0][1] == pytest.approx(20.0)
        collapsed = store.query_range(
            "power_watts", start_s=0, end_s=9, step_s=10, agg="mean", by=()
        )
        assert collapsed[0]["labels"] == {}

    def test_tier_auto_falls_back_when_raw_pruned(self, tmp_path):
        db = TSDB(str(tmp_path / "s"), retention_s={"raw": 30.0}, seal_bytes=64)
        for chunk in range(10):
            _fill(db, n=20, t0=chunk * 20.0, f=float)
            db.flush()
        full = db.query_range("power_watts", start_s=0.0, end_s=199.0)
        assert full[0]["tier"] == "10s"
        recent = db.query_range("power_watts", start_s=190.0, end_s=199.0)
        assert recent[0]["tier"] == "raw"
        forced = db.query_range(
            "power_watts", start_s=0.0, end_s=199.0, tier="2m"
        )
        assert forced[0]["tier"] == "2m"

    def test_rate_reset_aware(self, store):
        appender = store.appender("reqs_total", None)
        for t, value in enumerate([0, 10, 20, 30, 5, 15, 25, 35, 45, 55]):
            appender.append(float(t), float(value))
        (series,) = store.rate("reqs_total", start_s=0, end_s=9)
        # Positive deltas only: 30 before the reset + 50 after, over 9s.
        assert series["rate"] == pytest.approx((30.0 + 50.0) / 9.0)

    def test_quantile_over_time(self, store):
        _fill(store, n=100, f=float)
        (series,) = store.quantile_over_time("power_watts", 0.5, start_s=0, end_s=99)
        assert series["value"] == pytest.approx(49.5)
        (p100,) = store.quantile_over_time("power_watts", 1.0, start_s=0, end_s=99)
        assert p100["value"] == 99.0

    def test_empty_end_defaults_to_newest(self, store):
        _fill(store, n=10, f=float)
        (series,) = store.query_range("power_watts", start_s=0.0)
        assert len(series["points"]) == 10

    def test_names_exclude_read_misses(self, store):
        store.append("real", None, 1.0, 1.0)
        store.query("ghost")
        store.query_range("phantom", start_s=0.0, end_s=1.0)
        assert store.names() == ["real"]
        store.flush()
        assert TSDB(store.root).names() == ["real"]

    def test_max_t_s_from_fresh_process(self, store):
        _fill(store, n=10, f=float)
        store.flush()
        assert TSDB(store.root).max_t_s() == pytest.approx(9.0)
        assert TSDB(str(store.root) + "-empty").max_t_s() is None


def _tree(root) -> dict:
    """Every directory and file under ``root``, files with their bytes."""
    found = {}
    for base, dirs, files in os.walk(root):
        for name in dirs:
            found[os.path.relpath(os.path.join(base, name), root)] = None
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


def _read_everything(db, name) -> None:
    """Every read the store offers, on one metric name."""
    db.query(name, at_s=1.0)
    db.query_range(name, start_s=0.0, end_s=10.0, step_s=1.0)
    db.select(name)
    db.select_cells(name)
    db.series(name)
    db.rate(name)
    db.quantile_over_time(name, 0.5)
    db.max_t_s()
    db.document()


class TestReadsNeverWrite:
    def test_dot_dot_query_deletes_nothing(self, tmp_path):
        """``..`` mapped to the store's parent, whose ``*.seg`` files
        the empty shard's orphan cleanup then deleted."""
        precious = tmp_path / "precious.seg"
        precious.write_bytes(b"not the store's")
        db = TSDB(str(tmp_path / "store"))
        with pytest.raises(ValueError):
            db.query("..", at_s=1)
        assert precious.read_bytes() == b"not the store's"

    @pytest.mark.parametrize("name", ["", ".", ".."])
    def test_names_without_a_shard_directory_are_rejected(self, store, name):
        with pytest.raises(ValueError):
            store.query_range(name)
        with pytest.raises(ValueError):
            store.appender(name)
        assert not os.path.exists(store.root)

    def test_reads_create_nothing(self, store):
        _fill(store, n=10)
        store.flush()
        before = _tree(store.root)
        for i in range(5):
            _read_everything(store, f"junk{i}")
        _read_everything(store, "power_watts")
        assert _tree(store.root) == before
        assert sorted(store._shards) == ["power_watts"]
        assert store.names() == ["power_watts"]

    def test_reads_of_a_missing_root_create_it_not(self, tmp_path):
        """Opening a store only to read it used to create its root; the
        first append is what creates it now."""
        root = tmp_path / "store"
        db = TSDB(str(root))
        _read_everything(db, "power_watts")
        assert db.names() == [] and db.query("power_watts") == []
        assert not root.exists()
        _fill(db, n=3)
        assert (root / "power_watts").is_dir()

    @settings(max_examples=200, deadline=None)
    @given(name=st.text(max_size=12))
    def test_any_read_leaves_the_tree_unchanged(self, tmp_path_factory, name):
        root = tmp_path_factory.mktemp("reads")
        db = TSDB(str(root / "store"))
        _fill(db, n=10)
        db.flush()
        (root / "precious.seg").write_bytes(b"not the store's")
        before = _tree(root)
        try:
            _read_everything(db, name)
        except ValueError:
            assert name in ("", ".", "..")
        assert _tree(root) == before


def _bucket_by_scan(points, start_s, end_s, step_s, agg):
    """The bucket-by-bucket scan ``_bucket`` replaced: the oracle.

    It visits every bucket between ``start_s`` and ``end_s``, so it
    only finishes on ranges with few buckets.
    """
    out = []
    if not points or step_s <= 0:
        return out
    n_buckets = max(1, int(math.ceil((end_s - start_s) / step_s - 1e-9)))
    index = 0
    for k in range(n_buckets):
        lo = start_s + k * step_s
        hi = lo + step_s if k < n_buckets - 1 else max(lo + step_s, end_s) + 1e-9
        values = []
        while index < len(points) and points[index][0] < hi:
            if points[index][0] >= lo:
                values.append(points[index][1])
            index += 1
        if not values:
            continue
        if agg == "mean":
            value = sum(values) / len(values)
        elif agg == "min":
            value = min(values)
        elif agg == "max":
            value = max(values)
        elif agg == "sum":
            value = sum(values)
        elif agg == "count":
            value = float(len(values))
        else:  # last
            value = values[-1]
        out.append((lo, value))
    return out


class TestBucketWalk:
    """``_bucket`` jumps from point to point; it must fold exactly the
    buckets the bucket-by-bucket scan folds, edges and rounding
    included."""

    @given(
        start=st.floats(-1.0e3, 1.0e3),
        step=st.floats(1.0e-3, 50.0),
        n_steps=st.floats(0.0, 400.0),
        offsets=st.lists(
            st.one_of(
                st.floats(-3.0, 403.0),
                st.integers(-3, 403).map(float),
            ),
            max_size=40,
        ),
        values=st.lists(st.floats(-1.0e6, 1.0e6), min_size=40, max_size=40),
        agg=st.sampled_from(_AGGS),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_bucket_scan(
        self, start, step, n_steps, offsets, values, agg
    ):
        end = start + n_steps * step
        # Offsets count steps, so integer offsets land on bucket edges.
        points = sorted(
            (start + offset * step, value)
            for offset, value in zip(offsets, values)
        )
        assert _bucket(points, start, end, step, agg) == _bucket_by_scan(
            points, start, end, step, agg
        )

    def test_collapsed_edges_match_the_scan(self):
        """Far from zero, consecutive bucket edges round to the same
        float; points still land where the scan puts them."""
        start, step = 1.0e9, 7.0e-8
        edges = {start + k * step for k in range(50)}
        assert len(edges) < 50
        points = [(start + i * 3.0e-7, float(i)) for i in range(20)]
        end = points[-1][0]
        got = _bucket(points, start, end, step, "sum")
        assert got == _bucket_by_scan(points, start, end, step, "sum")
        assert got


class TestRecordingRules:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            RecordingRule(record="", source="x", window_s=60.0)
        with pytest.raises(ValueError):
            RecordingRule(record="r", source="x", window_s=0.0)
        with pytest.raises(ValueError):
            RecordingRule(record="r", source="x", window_s=60.0, agg="bogus")
        rule = RecordingRule(record="r", source="x", window_s=60.0, agg="p95")
        assert RecordingRule.from_dict(rule.to_dict()) == rule

    def test_rules_evaluate_on_flush(self, store):
        for sub in ("cpu", "disk"):
            _fill(
                store,
                name="drift_error_pct",
                labels={"subsystem": sub},
                n=60,
                f=lambda i: 4.0,
            )
        engine = RuleEngine()
        store.attach_rules(engine)
        store.flush()
        results = store.select("drift_error_pct:mean_5m")
        assert {tuple(r["labels"].items()) for r in results} == {
            (("subsystem", "cpu"),),
            (("subsystem", "disk"),),
        }
        for series in results:
            assert series["points"][-1][1] == pytest.approx(4.0)

    def test_evaluation_idempotent_per_timestamp(self, store):
        _fill(store, name="drift_error_pct", labels={"subsystem": "cpu"}, n=60)
        engine = RuleEngine()
        assert engine.evaluate(store, 59.0) > 0
        assert engine.evaluate(store, 59.0) == 0  # same instant: no-op
        assert engine.evaluate(store, 58.0) == 0  # never goes back
        (series,) = store.select("drift_error_pct:mean_5m")
        assert len(series["points"]) == 1

    def test_custom_rate_and_quantile_rules(self, store):
        appender = store.appender("reqs_total", {"node": "a"})
        for t in range(61):
            appender.append(float(t), float(t * 2))
        engine = RuleEngine((
            RecordingRule(
                record="reqs:rate_1m", source="reqs_total", window_s=60.0,
                agg="rate",
            ),
            RecordingRule(
                record="reqs:p50_1m", source="reqs_total", window_s=60.0,
                agg="p50",
            ),
        ))
        assert engine.evaluate(store, 60.0) == 2
        (rate,) = store.select("reqs:rate_1m")
        assert rate["points"][0][1] == pytest.approx(2.0)
        assert store.select("reqs:p50_1m")

    def test_default_rules_document(self):
        doc = RuleEngine().document()
        assert len(doc["rules"]) == len(DEFAULT_RULES)
        assert any(
            rule["record"] == "drift_error_pct:mean_5m" for rule in doc["rules"]
        )


class _FakeDrift:
    def __init__(self, firing=()):
        self.slo_pct = 9.0
        self.firing = tuple(firing)

    def unresolved(self):
        return []


class _FakeService:
    """What the AlertManager reads of an ``EstimationService``."""

    def __init__(self, burning=(), dead=()):
        from types import SimpleNamespace

        self.slo = SimpleNamespace(fast_burning=tuple(burning))
        self.staleness = SimpleNamespace(
            to_json=lambda: {"stale": [], "age_s": {}}
        )
        self._dead = list(dead)

    def drifting_nodes(self):
        return []

    def dead_shards(self):
        return self._dead


class TestAlertManager:
    def test_dedup_key_stable(self):
        key = dedup_key("drift", "breach", {"b": "2", "a": "1"})
        assert key == "drift:breach{a=1,b=2}"
        alert = Alert("drift", "breach", {"a": "1", "b": "2"})
        assert alert.key == key

    def test_firing_resolved_transitions_persist(self, store):
        drift = _FakeDrift(firing=("cpu[3]", "memory"))
        manager = AlertManager(store=store)
        manager.attach_drift(drift)
        fired = manager.evaluate(10.0)
        assert {t["key"] for t in fired} == {
            "drift:drift_slo_breach{lane=3,subsystem=cpu}",
            "drift:drift_slo_breach{subsystem=memory}",
        }
        assert all(t["state"] == "firing" for t in fired)
        # Steady state: no new transitions while still firing.
        assert manager.evaluate(11.0) == []
        drift.firing = ()
        resolved = manager.evaluate(12.0)
        assert all(t["state"] == "resolved" for t in resolved)
        assert manager.poll() == []
        series = store.select("alerts_firing")
        assert len(series) == 2
        for entry in series:
            assert [v for _, v in entry["points"]] == [1.0, 0.0]

    def test_three_sources_in_one_plane(self, store):
        from types import SimpleNamespace

        manager = AlertManager(store=store)
        manager.attach_drift(_FakeDrift(firing=("cpu",)))
        manager.attach_service(_FakeService(burning=("freshness",), dead=(1,)))
        manager.attach_dc(SimpleNamespace(
            policy="subsystem", cap_violations=3, drift_fallback_seconds=7,
        ))
        manager.evaluate(1.0)
        doc = manager.document()
        assert set(doc["groups"]) == {"drift", "slo", "serve", "dc"}
        # breach + burn + dead shard + cap + fallback
        assert len(doc["firing"]) == 5
        assert doc["groups"]["dc"][0]["detail"]["cap_violations"] == 3
        assert doc["groups"]["serve"][0]["labels"] == {"shard": "1"}

    def test_history_bounded(self):
        manager = AlertManager(max_history=4)
        drift = _FakeDrift()
        manager.attach_drift(drift)
        for i in range(10):
            drift.firing = ("cpu",) if i % 2 == 0 else ()
            manager.evaluate(float(i))
        assert len(manager.history) == 4


class TestWindowSink:
    def test_windows_become_samples(self, store):
        from repro.obs.live import WindowedRegistry

        sink = WindowSink(store)
        windows = WindowedRegistry(window_s=5.0, max_windows=2, on_evict=sink)
        registry = obs.registry()
        obs.enable()
        for second in range(20):
            obs.inc("reqs_total", 3.0)
            obs.gauge("depth", float(second))
            obs.observe("latency_seconds", 0.01)
            windows.ingest(float(second), registry)
        drained = windows.drain()
        assert drained == 2
        assert sink.windows_persisted == 4
        (counters,) = store.select("reqs_total")
        # Counters persist per-window deltas, not cumulative values.
        assert [v for _, v in counters["points"]] == [15.0, 15.0, 15.0, 15.0]
        assert [t for t, _ in counters["points"]] == [0.0, 5.0, 10.0, 15.0]
        (gauges,) = store.select("depth")
        assert [v for _, v in gauges["points"]] == [4.0, 9.0, 14.0, 19.0]
        assert store.select("latency_seconds:mean")
        (count,) = store.select("latency_seconds:count")
        assert [v for _, v in count["points"]] == [5.0, 5.0, 5.0, 5.0]

    def test_sink_is_idempotent_per_window(self, store):
        from repro.obs.live import WindowedRegistry

        sink = WindowSink(store)
        windows = WindowedRegistry(window_s=5.0, on_evict=sink)
        registry = obs.registry()
        obs.enable()
        for second in range(12):
            obs.gauge("depth", float(second))
            windows.ingest(float(second), registry)
            # The eager per-tick pass re-offers every closed window.
            windows.sink_closed(float(second))
        windows.drain()
        (series,) = store.select("depth")
        # Two closed windows sunk eagerly + the final partial window at
        # drain — each exactly once despite the repeated offers.
        assert series["points"] == [(0.0, 4.0), (5.0, 9.0), (10.0, 11.0)]
        assert sink.windows_persisted == 3

    def test_sink_closed_keeps_windows_queryable(self, store):
        from repro.obs.live import WindowedRegistry

        sink = WindowSink(store)
        windows = WindowedRegistry(window_s=5.0, on_evict=sink)
        registry = obs.registry()
        obs.enable()
        for second in range(7):
            obs.gauge("depth", float(second))
            windows.ingest(float(second), registry)
        assert windows.sink_closed(7.0) == 1
        # Persisted but not evicted: live queries still see the window.
        assert len(windows) == 2
        window = windows.to_json(last=None)["windows"][0]
        assert (window["start_s"], window["gauges"]["depth"]) == (0.0, 4.0)
        (series,) = store.select("depth")
        assert series["points"] == [(0.0, 4.0)]


class TestHTTPRoutes:
    def test_query_routes(self, store):
        _fill(store, n=10, f=float)
        server = ObservabilityServer(store=store)
        status, _, body = server.payload("/query", "name=power_watts")
        assert status == 200
        doc = json.loads(body)
        assert doc["result"][0]["value"] == 9.0
        status, _, body = server.payload(
            "/query_range",
            "name=power_watts&start=0&end=9&step=5&agg=mean&label=node=a",
        )
        assert status == 200
        doc = json.loads(body)
        assert len(doc["result"][0]["points"]) == 2
        status, _, body = server.payload("/query", "")
        assert status == 400
        status, _, body = server.payload("/query", "name=x&label=bogus")
        assert status == 400

    @pytest.mark.parametrize(
        "path, query",
        [
            ("/query", "name=power_watts&at=inf"),
            ("/query", "name=power_watts&at=nan"),
            ("/query_range", "name=power_watts&start=-inf"),
            ("/query_range", "name=power_watts&end=inf"),
            ("/query_range", "name=power_watts&step=-1"),
            ("/query_range", "name=power_watts&step=0"),
            ("/query_range", "name=power_watts&step=inf"),
            ("/query_range", "name=power_watts&step=nan"),
            # Finite bounds whose bucket count overflows to infinity.
            ("/query_range", "name=power_watts&start=0&end=1e300&step=1e-300"),
            # Names that map to no shard directory inside the store.
            ("/query", "name=.."),
            ("/query", "name=."),
            ("/query_range", "name=.."),
        ],
    )
    def test_unanswerable_query_is_400(self, store, path, query):
        """Regression: these raised OverflowError out of ``payload``
        (the handler answered 500) or silently returned no points."""
        _fill(store, n=10, f=float)
        status, _, body = ObservabilityServer(store=store).payload(path, query)
        assert status == 400
        assert "error" in json.loads(body)

    def test_fine_step_costs_points_not_buckets(self, store):
        """Regression: a 1e-9 s step over 100 s is 1e11 buckets; the
        query must answer from its 100 points within a second."""
        _fill(store, n=100, f=float)

        def timed_out(signum, frame):
            raise TimeoutError("query_range walked the empty buckets")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            began = time.perf_counter()
            (series,) = store.query_range(
                "power_watts", start_s=0.0, end_s=100.0, step_s=1.0e-9,
                agg="count",
            )
            elapsed = time.perf_counter() - began
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 1.0
        assert series["points"]
        assert all(count == 1.0 for _, count in series["points"])

    def test_query_routes_without_store(self):
        server = ObservabilityServer()
        for path in ("/query", "/query_range"):
            status, _, body = server.payload(path, "name=x")
            assert status == 200
            assert json.loads(body) == {"store": None}

    def test_alerts_aggregated_payload(self, store):
        manager = AlertManager(store=store)
        manager.attach_drift(_FakeDrift(firing=("cpu",)))
        manager.evaluate(1.0)
        server = ObservabilityServer(alerts=manager)
        status, _, body = server.payload("/alerts", "")
        assert status == 200
        doc = json.loads(body)
        # No drift monitor is an explicit null, never a 404.
        assert doc["drift"] is None and set(doc) == {"drift", "alerts"}
        assert doc["alerts"]["firing"] == [
            "drift:drift_slo_breach{subsystem=cpu}"
        ]

    def test_rules_route(self, store):
        engine = RuleEngine()
        store.attach_rules(engine)
        server = ObservabilityServer(store=store, rules=engine)
        status, _, body = server.payload("/rules", "")
        assert status == 200
        doc = json.loads(body)
        assert doc["rules"]["rules"]
        assert doc["store"]["root"] == store.root


class TestCLI:
    @pytest.fixture()
    def filled_store(self, tmp_path):
        root = str(tmp_path / "store")
        db = TSDB(root)
        _fill(db, name="drift_error_pct", labels={"subsystem": "cpu"}, n=60,
              f=lambda i: 3.0 + 0.01 * i)
        db.close()
        return root

    def test_query_instant(self, filled_store, capsys):
        assert main(["query", "drift_error_pct", "--store", filled_store]) == 0
        out = capsys.readouterr().out
        assert "drift_error_pct{subsystem=cpu}" in out

    def test_query_range_csv(self, filled_store, capsys):
        code = main([
            "query", "drift_error_pct", "--store", filled_store,
            "--range", "1m", "--step", "30", "--agg", "max", "--csv",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,labels,tier,t_s,value"
        assert len(lines) > 1

    def test_query_label_matcher_and_miss(self, filled_store, capsys):
        assert main([
            "query", "drift_error_pct", "--store", filled_store,
            "--label", "subsystem=disk",
        ]) == 1
        assert main([
            "query", "drift_error_pct", "--store", filled_store,
            "--label", "subsystem=~c.*",
        ]) == 0

    @pytest.mark.parametrize(
        "flags", [["--at", "inf"], ["--start=-inf"], ["--step", "0"]]
    )
    def test_unanswerable_query_is_a_usage_error(
        self, filled_store, capsys, flags
    ):
        """Regression: an infinite bound escaped as an OverflowError
        traceback; a bad bound is now exit 2 with the reason."""
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "drift_error_pct", "--store", filled_store, *flags])
        assert exit_info.value.code == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("span", ["5x", "inf", "nan", "-5", "0"])
    @pytest.mark.parametrize(
        "command", [["query", "drift_error_pct"], ["obs"]], ids=["query", "obs"]
    )
    def test_bad_range_is_a_usage_error(
        self, filled_store, capsys, command, span
    ):
        """Regression: ``5x`` and ``inf`` ended in a ValueError traceback
        and ``-5`` was accepted."""
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--store", filled_store, f"--range={span}"])
        assert exit_info.value.code == 2
        assert "--range must be" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--range", "1m"]])
    @pytest.mark.parametrize("name", ["..", "."])
    def test_name_outside_the_store_is_a_usage_error(
        self, filled_store, capsys, name, flags
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", name, "--store", filled_store, *flags])
        assert exit_info.value.code == 2
        assert "names no shard directory" in capsys.readouterr().err

    def test_query_missing_store_dir(self, tmp_path, capsys):
        assert main([
            "query", "x", "--store", str(tmp_path / "nope"),
        ]) == 1

    def test_obs_store_summary(self, filled_store, capsys):
        assert main(["obs", "--store", filled_store, "--range", "5m"]) == 0
        out = capsys.readouterr().out
        assert "drift_error_pct{subsystem=cpu}" in out
        assert "metric shard(s)" in out

    def test_obs_store_empty(self, tmp_path, capsys):
        assert main(["obs", "--store", str(tmp_path / "missing")]) == 1


class TestStoreCli:
    def test_monitored_run_queries_back_and_rolls_up_exactly(
        self, tmp_path, capsys
    ):
        """A monitored run persists into a store; once it has exited, a
        fresh process queries every series back, and each 10 s rollup
        cell agrees with the raw points it covers."""
        store = str(tmp_path / "tsdb-store")
        code = main([
            "monitor", "--workload", "gcc", "--duration", "120",
            "--refresh", "30", "--port", "0", "--store", store,
        ])
        assert code == 0
        captured = capsys.readouterr()
        log = captured.out + captured.err
        assert f"persisting telemetry to {store}" in log
        assert f"store committed to {store}" in log
        assert os.path.isfile(os.path.join(store, "drift_error_pct", "state.bin"))

        # Everything below reads what the atomic state commits left on
        # disk, from processes that never saw the monitor's memory.
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {
            **os.environ,
            "PYTHONPATH": src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""),
        }

        def cli(*args):
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", *args, "--store", store],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, (args, done.stdout, done.stderr)
            return done.stdout

        drift = cli(
            "query", "drift_error_pct", "--label", "subsystem=total",
            "--range", "2m",
        )
        assert "drift_error_pct{subsystem=total}" in drift
        # The recording rule materialised its derived series mid-run.
        rule = cli("query", "drift_error_pct:mean_5m", "--range", "2m")
        assert "drift_error_pct:mean_5m{subsystem=total}" in rule
        # Instant and CSV range modes on the live power gauge.
        assert "live_total_power_watts:mean" in cli(
            "query", "live_total_power_watts:mean"
        )
        csv = cli(
            "query", "live_total_power_watts:mean", "--range", "2m",
            "--step", "10", "--agg", "mean", "--csv",
        ).splitlines()
        assert csv[0] == "metric,labels,tier,t_s,value" and len(csv) > 1
        assert "metric shard(s)" in cli("obs", "--range", "5m")

        # Rollup tiers agree with raw exactly.
        db = TSDB(store)
        checked = 0
        for name in ("drift_error_pct", "live_total_power_watts:mean"):
            for series in db.select(name):
                raw = series["points"]
                (cells,) = db.select_cells(name, series["labels"], tier="10s")
                assert sum(c[4] for c in cells["cells"]) == len(raw), name
                for start, vmin, vmax, mean, count in cells["cells"]:
                    window = [v for t, v in raw if start <= t < start + 10.0]
                    assert count == len(window), (name, start)
                    assert vmin == min(window) and vmax == max(window), (
                        name, start,
                    )
                    assert abs(mean - sum(window) / count) < 1e-9, (name, start)
                    checked += 1
        assert checked > 0


class TestServiceStore:
    def test_serve_replay_persists_serve_series(self, tmp_path, capsys):
        """``serve --store``'s shutdown drains the endpoint's windows,
        which the housekeeping tick folded, and commits them."""
        from repro.cli import main

        store = str(tmp_path / "s")
        code = main([
            "serve", "--replay", "gcc", "--nodes", "1", "--shards", "1",
            "--port", "0", "--serve-for", "1", "--window", "1", "--store",
            store, "--duration", "20", "--tick-ms", "50", "--seed", "7",
        ])
        assert code == 0
        assert f"serve: store committed to {store}" in capsys.readouterr().out
        names = TSDB(store).names()
        for name in ("serve_published_total", "serve_nodes_fresh"):
            assert name in names, names

    def test_serve_persists_the_tail_after_its_last_tick(self, tmp_path, capsys):
        """Without ``--serve-for`` the run ends before any housekeeping
        tick folds; the shutdown publishes every accepted sample and
        folds once more, so the store holds every published sample (it
        used to hold no metric at all)."""
        from repro.cli import main

        store = str(tmp_path / "s")
        code = main([
            "serve", "--replay", "gcc", "--nodes", "1", "--shards", "1",
            "--port", "0", "--store", store, "--duration", "20",
            "--tick-ms", "50", "--seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        accepted = int(re.search(r"replay offered .*accepted (\d+)", out)[1])
        assert accepted > 0
        db = TSDB(store)
        assert "serve_published_total" in db.names()
        (series,) = db.select("serve_published_total")
        assert sum(value for _, value in series["points"]) == accepted

    def test_datacenter_report_persist(self, tmp_path):
        from repro.dc.datacenter import DatacenterReport

        report = DatacenterReport(
            policy="subsystem", sensor="estimated",
            cap_w=100.0, duration_s=3, n_nodes=2,
            power_w=[10.0, 20.0, 30.0],
            estimated_power_w=[11.0, 19.0, 31.0],
            offered_threads=[4, 5, 6],
            served_threads=[4, 5, 5],
            zone_power_w={"z0": [10.0, 20.0, 30.0]},
            zone_budget_w={"z0": [50.0, 50.0, 50.0]},
            zone_nodes_active={"z0": [2, 2, 2]},
        )
        db = TSDB(str(tmp_path / "s"))
        appended = report.persist(db, t0_s=100.0)
        assert appended == 4 * 3 + 3 * 3
        db.close()
        reopened = TSDB(db.root)
        (power,) = reopened.select("dc_power_watts")
        assert power["labels"] == {"policy": "subsystem", "sensor": "estimated"}
        assert [v for _, v in power["points"]] == [10.0, 20.0, 30.0]
        assert [t for t, _ in power["points"]] == [100.0, 101.0, 102.0]
        (zone,) = reopened.select("dc_zone_nodes_active")
        assert zone["labels"]["zone"] == "z0"
