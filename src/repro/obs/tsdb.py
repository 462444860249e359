"""Durable telemetry: an embedded, append-only time-series store.

The live observability plane (:mod:`repro.obs.live`, `.fleet`,
`.drift`, the streaming service, ``repro.dc`` scenarios) forgets
everything older than ``WindowedRegistry.max_windows`` — there is no
way to ask "when did chipset error start climbing?" after the fact.
:class:`TSDB` is the longitudinal record: a stdlib-only, single-process
store the windowed registries evict into, queryable after the run (and
after a process restart).

Layout — one shard directory per metric name under the store root:

* ``state.bin`` — the shard's **single atomic commit point**: manifest
  of sealed segments, the series map, every open (still-appendable)
  raw buffer and rollup cell.  Rewritten wholesale on :meth:`flush`
  with the ``RunCache`` temp-file + ``os.replace`` idiom, so a crash
  leaves either the old state or the new one, never a torn file.
* ``raw-N.seg`` / ``10s-N.seg`` / ``2m-N.seg`` — immutable sealed
  segments, written exactly once.  The seal protocol writes the
  segment *before* the state that references it: a crash in between
  leaves an orphan file (deleted when the shard is next opened for
  appends) while the samples are still safe inside the previous
  ``state.bin``.

Both kinds are one container, written by :func:`_write_container` and
read by :func:`_read_container`: a magic line (``RTST1`` for state,
``RTSG1`` for segments), the JSON header's length (``uint32``, little
endian), the JSON header, then the blobs back to back, each at the
offset and with the length its header entry names.

Encoding — per series, raw samples are a byte stream of
delta-of-delta timestamps (millisecond ints, zigzag varints) followed
by a tagged value: ``0`` repeats the previous value, ``1`` packs an
integral value as a zigzag varint, ``2`` stores the raw IEEE double.
A steady gauge costs ~2 bytes per sample.  Decoding a block replays
the exact floats that went in — round-trip fidelity is tested, not
assumed.

Downsampling — sealing a raw segment folds its samples (in timestamp
order) into open rollup cells per tier: **10 s** and **2 min** cells
holding ``(min, max, sum, count)``; ``mean = sum / count``.  A cell
closes when a later sample passes its edge and goes, in the same seal,
into the tier's next segment, so ``state.bin`` holds only each series'
open cell.  Queries fold the unsealed raw tail into a copy of it with
the same function, :func:`_fold_cells`.  Retention is per tier
(defaults: raw 1 h, 10 s 24 h, 2 min 14 d) measured against the newest
appended timestamp — the caller's clock, so fixed-seed runs prune
deterministically.

Queries — :meth:`select` (raw points), :meth:`select_cells` (rollup
cells), :meth:`query` (instant), :meth:`query_range` (step-aligned
aggregation with label grouping), :meth:`rate` and
:meth:`quantile_over_time`.  Label matchers are exact (``{"k": "v"}``)
or regular expressions (``{"k": "=~cpu|mem"}``).

Timestamps must be non-decreasing **per series** (the windowed
registries guarantee it); out-of-order appends are dropped and
counted, never written.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import struct
import tempfile
import threading
from urllib.parse import quote, unquote

logger = logging.getLogger(__name__)

_STATE_MAGIC = b"RTST1\n"
_SEG_MAGIC = b"RTSG1\n"
_LEN = struct.Struct("<I")
_F8 = struct.Struct("<d")
#: One rollup cell: (cell_start_ms, min, max, sum, count).
_CELL = struct.Struct("<qdddq")

#: Rollup tiers and their cell widths in milliseconds.
TIERS: "tuple[str, ...]" = ("raw", "10s", "2m")
TIER_WIDTH_MS: "dict[str, int]" = {"10s": 10_000, "2m": 120_000}

#: Default retention per tier, seconds of the *appended* clock.
DEFAULT_RETENTION_S: "dict[str, float]" = {
    "raw": 3600.0,
    "10s": 86400.0,
    "2m": 14 * 86400.0,
}

#: Open raw bytes per shard that trigger a seal at the next flush.
DEFAULT_SEAL_BYTES = 64 * 1024

_AGGS = ("mean", "min", "max", "sum", "count", "last")


def parse_duration(text: str) -> float:
    """``"90"``/``"90s"``/``"5m"``/``"2h"``/``"7d"`` -> seconds."""
    text = str(text).strip()
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    if text and text[-1] in units:
        return float(text[:-1]) * units[text[-1]]
    return float(text)


def parse_matchers(pairs) -> "dict[str, str]":
    """``["k=v", "node=~web-.*"]`` -> matcher dict for :meth:`select`."""
    matchers: "dict[str, str]" = {}
    for pair in pairs or ():
        label, sep, value = str(pair).partition("=")
        if not sep or not label:
            raise ValueError(f"matcher {pair!r} is not label=value")
        if value.startswith("~"):
            value = "=~" + value[1:]
        matchers[label.strip()] = value
    return matchers


def _match(labels: "dict[str, str]", matchers: "dict[str, str] | None") -> bool:
    for label, wanted in (matchers or {}).items():
        have = labels.get(label)
        if wanted.startswith("=~"):
            if have is None or re.fullmatch(wanted[2:], have) is None:
                return False
        elif have != wanted:
            return False
    return True


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63)


class _Series:
    """One series' open (appendable) raw block and encoder state."""

    __slots__ = (
        "sid", "key", "buf", "count",
        "first_ms", "last_ms", "prev_delta", "prev_val",
    )

    def __init__(self, sid: int, key: tuple) -> None:
        self.sid = sid
        self.key = key
        self.reset()

    def reset(self) -> None:
        self.buf = bytearray()
        self.count = 0
        self.first_ms = 0
        self.last_ms = 0
        self.prev_delta = 0
        self.prev_val = float("nan")


def _decode_block(buf, count: int) -> "list[tuple[int, float]]":
    """Replay one encoded block into ``[(t_ms, value), ...]``."""
    out: "list[tuple[int, float]]" = []
    pos = 0
    t_ms = 0
    delta = 0
    value = float("nan")
    for _ in range(count):
        shift = 0
        n = 0
        while True:
            byte = buf[pos]
            pos += 1
            n |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        delta += (n >> 1) ^ -(n & 1)
        t_ms += delta
        tag = buf[pos]
        pos += 1
        if tag == 1:
            shift = 0
            n = 0
            while True:
                byte = buf[pos]
                pos += 1
                n |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
            value = float((n >> 1) ^ -(n & 1))
        elif tag == 2:
            value = _F8.unpack_from(buf, pos)[0]
            pos += 8
        # tag == 0: repeat previous value
        out.append((t_ms, value))
    return out


class Appender:
    """A bound, per-series append handle (the hot path).

    Resolving ``(name, labels)`` to a series happens once, here; each
    :meth:`append` then encodes straight into the open block under the
    store lock.  Returns ``False`` (and counts the drop) for an
    out-of-order timestamp instead of corrupting the stream.
    """

    __slots__ = ("_db", "_shard", "_series", "_lock")

    def __init__(self, db: "TSDB", shard: "_Shard", series: _Series) -> None:
        self._db = db
        self._shard = shard
        self._series = series
        self._lock = db._lock

    def append(self, t_s: float, value: float) -> bool:
        series = self._series
        t_ms = int(t_s * 1000.0 + (0.5 if t_s >= 0 else -0.5))
        with self._lock:
            delta = t_ms - series.last_ms
            if delta < 0 and series.count:
                self._shard.dropped += 1
                return False
            if not series.count:
                series.first_ms = t_ms
                delta = t_ms
            buf = series.buf
            n = _zigzag(delta - series.prev_delta)
            while n > 0x7F:
                buf.append((n & 0x7F) | 0x80)
                n >>= 7
            buf.append(n)
            series.prev_delta = delta
            series.last_ms = t_ms
            v = float(value)
            if v == series.prev_val:
                buf.append(0)
            else:
                try:
                    iv = int(v)
                    integral = iv == v and -(1 << 51) <= iv <= (1 << 51)
                except (OverflowError, ValueError):
                    integral = False
                if integral:
                    buf.append(1)
                    n = _zigzag(iv)
                    while n > 0x7F:
                        buf.append((n & 0x7F) | 0x80)
                        n >>= 7
                    buf.append(n)
                else:
                    buf.append(2)
                    buf += _F8.pack(v)
            series.prev_val = v
            series.count += 1
            shard = self._shard
            shard.dirty = True
            shard.appended += 1
            if t_ms > shard.max_ms:
                shard.max_ms = t_ms
            return True


class _Shard:
    """One metric name's directory: state, open blocks, sealed segments."""

    def __init__(self, name: str, directory: str) -> None:
        self.name = name
        self.directory = directory
        self.series: "dict[tuple, _Series]" = {}
        self.by_sid: "dict[int, _Series]" = {}
        self.next_sid = 0
        self.seq = 0
        self.max_ms = 0
        self.appended = 0
        self.dropped = 0
        self.dirty = False
        #: Opened for appends: directory made, orphan segments cleaned.
        self.writable = False
        #: Sealed-segment manifest per tier: {"file", "min_ms", "max_ms", "n"}.
        self.manifest: "dict[str, list[dict]]" = {t: [] for t in TIERS}
        #: Open rollup cell per tier per sid: [start_ms, min, max, sum, count].
        self.cells: "dict[str, dict[int, list]]" = {
            t: {} for t in TIER_WIDTH_MS
        }

    # -- series --------------------------------------------------------

    def series_for(self, key: tuple) -> _Series:
        series = self.series.get(key)
        if series is None:
            series = _Series(self.next_sid, key)
            self.next_sid += 1
            self.series[key] = series
            self.by_sid[series.sid] = series
            self.dirty = True
        return series

    def open_raw_bytes(self) -> int:
        return sum(len(s.buf) for s in self.series.values())

    # -- sealing and rollups -------------------------------------------

    def seal(self) -> "list[str]":
        """Seal open raw blocks into a segment; cascade rollup segments.

        Each series' samples fold into its open rollup cells, and the
        cells they close go straight into that tier's new segment.
        Returns the segment file paths written (state is NOT yet
        committed — the caller writes ``state.bin`` after, making the
        new segments visible atomically).  Retention is the caller's
        job: :meth:`TSDB.flush` prunes right after sealing so it can
        unlink the doomed files once the state commit lands.
        """
        raw = []
        closed: "dict[str, list]" = {tier: [] for tier in TIER_WIDTH_MS}
        for series in sorted(self.series.values(), key=lambda s: s.sid):
            if not series.count:
                continue
            samples = _decode_block(series.buf, series.count)
            for tier, width in TIER_WIDTH_MS.items():
                cells: "list[list]" = []
                self.cells[tier][series.sid] = _fold_cells(
                    self.cells[tier].get(series.sid), samples, width, cells
                )
                if cells:
                    closed[tier].append((
                        series, len(cells), cells[0][0], cells[-1][0] + width,
                        b"".join(_CELL.pack(*cell) for cell in cells),
                    ))
            raw.append((
                series, series.count, series.first_ms, series.last_ms,
                series.buf,
            ))
            series.reset()
        return [
            self._write_segment(tier, blocks)
            for tier, blocks in [("raw", raw), *closed.items()]
            if blocks
        ]

    def _write_segment(self, tier: str, blocks: "list[tuple]") -> str:
        """Write ``(series, count, min_ms, max_ms, blob)`` blocks as the
        tier's next segment and list it in the manifest."""
        seq = self.seq
        self.seq += 1
        filename = f"{tier}-{seq:06d}.seg"
        entries = [
            {
                "sid": series.sid,
                "key": [series.key[0], [list(item) for item in series.key[1]]],
                "count": count,
                "min_ms": min_ms,
                "max_ms": max_ms,
            }
            for series, count, min_ms, max_ms, _ in blocks
        ]
        path = os.path.join(self.directory, filename)
        _write_container(
            path, _SEG_MAGIC,
            {"tier": tier, "name": self.name, "seq": seq, "series": entries},
            entries, [block[4] for block in blocks],
        )
        self.manifest[tier].append({
            "file": filename,
            "min_ms": min(entry["min_ms"] for entry in entries),
            "max_ms": max(entry["max_ms"] for entry in entries),
            "n": sum(entry["count"] for entry in entries),
        })
        return path

    def prune(self, retention_ms: "dict[str, float]") -> "list[str]":
        """Drop out-of-retention segments from the manifest.

        Returns the now-orphaned file paths; the caller unlinks them
        *after* the state commit so a crash can only leave extra files
        (cleaned on open), never a manifest entry without its file.
        """
        doomed: "list[str]" = []
        for tier, entries in self.manifest.items():
            horizon = retention_ms.get(tier)
            if horizon is None or not self.max_ms:
                continue
            cutoff = self.max_ms - horizon
            keep = []
            for entry in entries:
                if entry["max_ms"] < cutoff:
                    doomed.append(os.path.join(self.directory, entry["file"]))
                    self.dirty = True
                else:
                    keep.append(entry)
            self.manifest[tier] = keep
        return doomed

    # -- state persistence ---------------------------------------------

    def save_state(self) -> None:
        """Atomically commit the shard's full mutable state."""
        ordered = sorted(self.series.values(), key=lambda s: s.sid)
        open_raw = [
            {
                "sid": series.sid,
                "count": series.count,
                "first_ms": series.first_ms,
                "last_ms": series.last_ms,
                "prev_delta": series.prev_delta,
                "prev_val": float.hex(series.prev_val),
            }
            for series in ordered
        ]
        header = {
            "version": 1,
            "name": self.name,
            "seq": self.seq,
            "max_ms": self.max_ms,
            "appended": self.appended,
            "dropped": self.dropped,
            "manifest": self.manifest,
            "series": [
                [s.sid, s.key[0], [list(item) for item in s.key[1]]]
                for s in ordered
            ],
            "open_raw": open_raw,
            "cells": {
                tier: [
                    [sid, cell[0], float.hex(cell[1]), float.hex(cell[2]),
                     float.hex(cell[3]), cell[4]]
                    for sid, cell in sorted(per_sid.items())
                ]
                for tier, per_sid in self.cells.items()
            },
        }
        _write_container(
            os.path.join(self.directory, "state.bin"), _STATE_MAGIC, header,
            open_raw, [series.buf for series in ordered],
        )
        self.dirty = False

    @classmethod
    def load(cls, name: str, directory: str) -> "_Shard":
        shard = cls(name, directory)
        try:
            header, data, blob_base = _read_container(
                os.path.join(directory, "state.bin"), _STATE_MAGIC
            )
        except FileNotFoundError:
            return shard
        except (ValueError, KeyError, struct.error) as exc:
            logger.warning("tsdb shard %s: unreadable state (%s); resetting",
                           name, exc)
            return shard
        # Older stores also carry "pending", always empty lists: ignored.
        shard.seq = int(header["seq"])
        shard.max_ms = int(header["max_ms"])
        shard.appended = int(header.get("appended", 0))
        shard.dropped = int(header.get("dropped", 0))
        shard.manifest = {
            tier: list(header["manifest"].get(tier, ())) for tier in TIERS
        }
        for sid, mname, items in header["series"]:
            key = (mname, tuple(tuple(item) for item in items))
            series = _Series(int(sid), key)
            shard.series[key] = series
            shard.by_sid[series.sid] = series
            shard.next_sid = max(shard.next_sid, series.sid + 1)
        for entry in header["open_raw"]:
            series = shard.by_sid[int(entry["sid"])]
            series.count = int(entry["count"])
            series.first_ms = int(entry["first_ms"])
            series.last_ms = int(entry["last_ms"])
            series.prev_delta = int(entry["prev_delta"])
            series.prev_val = float.fromhex(entry["prev_val"])
            lo = blob_base + int(entry["offset"])
            series.buf = bytearray(data[lo:lo + int(entry["length"])])
        for tier, entries in header.get("cells", {}).items():
            for sid, start_ms, vmin, vmax, vsum, count in entries:
                shard.cells[tier][int(sid)] = [
                    int(start_ms), float.fromhex(vmin), float.fromhex(vmax),
                    float.fromhex(vsum), int(count),
                ]
        return shard

    def _clean_orphans(self) -> None:
        """Delete segment files the manifest does not reference.

        These are seal-crash leftovers (segment written, state commit
        never happened — the data is still in the old state) or
        retention leftovers (state committed, unlink never happened).
        Either way the manifest is the truth.
        """
        known = {
            entry["file"] for entries in self.manifest.values()
            for entry in entries
        }
        try:
            listing = os.listdir(self.directory)
        except FileNotFoundError:
            return
        for filename in listing:
            if filename.endswith(".seg") and filename not in known:
                logger.warning(
                    "tsdb shard %s: removing orphan segment %s",
                    self.name, filename,
                )
                try:
                    os.unlink(os.path.join(self.directory, filename))
                except OSError:
                    pass

    # -- reads ---------------------------------------------------------

    def _blocks(self, tier: str, sid: int, start_ms: int, end_ms: int):
        """Yield ``(block, data, base)`` for each sealed block of series
        ``sid`` in the tier's segments that overlap the range; the
        block's bytes start at ``data[base + block["offset"]]``.  A
        segment that cannot be read is skipped with a warning."""
        for entry in self.manifest[tier]:
            if entry["max_ms"] < start_ms or entry["min_ms"] > end_ms:
                continue
            try:
                header, data, base = _read_container(
                    os.path.join(self.directory, entry["file"]), _SEG_MAGIC
                )
            except (OSError, ValueError) as exc:
                logger.warning("tsdb shard %s: skipping segment %s (%s)",
                               self.name, entry["file"], exc)
                continue
            for block in header["series"]:
                if block["sid"] == sid:
                    yield block, data, base

    def raw_points(
        self, series: _Series, start_ms: int, end_ms: int
    ) -> "list[tuple[int, float]]":
        """All raw ``(t_ms, value)`` of one series inside the range."""
        out: "list[tuple[int, float]]" = []
        for block, data, base in self._blocks(
            "raw", series.sid, start_ms, end_ms
        ):
            if block["max_ms"] < start_ms or block["min_ms"] > end_ms:
                continue
            lo = base + block["offset"]
            decoded = _decode_block(
                data[lo:lo + block["length"]], block["count"]
            )
            out.extend(p for p in decoded if start_ms <= p[0] <= end_ms)
        out.extend(
            p for p in _decode_block(series.buf, series.count)
            if start_ms <= p[0] <= end_ms
        )
        return out

    def rollup_cells(
        self, series: _Series, tier: str, start_ms: int, end_ms: int
    ) -> "list[tuple[int, float, float, float, int]]":
        """Sealed and open cells of one series inside the range.

        The open raw block's tail has not been folded into cells yet, so
        it is folded on the fly, into a copy of the open cell — queries
        see every appended sample at every tier, not just the sealed
        ones.
        """
        width = TIER_WIDTH_MS[tier]
        cells: "list" = []
        for block, data, base in self._blocks(
            tier, series.sid, start_ms, end_ms
        ):
            lo = base + block["offset"]
            cells.extend(
                _CELL.unpack_from(data, lo + i * _CELL.size)
                for i in range(block["count"])
            )
        open_cell = self.cells[tier].get(series.sid)
        last = _fold_cells(
            None if open_cell is None else list(open_cell),
            _decode_block(series.buf, series.count), width, cells,
        )
        if last is not None:
            cells.append(last)
        return [
            tuple(cell)
            for cell in cells
            if start_ms - width < cell[0] <= end_ms
        ]


def _fold_cells(cell, samples, width: int, closed: list):
    """Fold time-ordered ``(t_ms, value)`` samples into rollup cells
    ``width`` ms wide; returns the cell left open.

    ``cell`` is the open cell, ``[start_ms, min, max, sum, count]`` or
    ``None``, and is updated in place.  A cell that a later sample
    passes is appended to ``closed``.  A sample older than the open
    cell is not folded.
    """
    for t_ms, value in samples:
        start = t_ms - t_ms % width
        if cell is None or start > cell[0]:
            if cell is not None:
                closed.append(cell)
            cell = [start, value, value, value, 1]
        elif start == cell[0]:
            if value < cell[1]:
                cell[1] = value
            if value > cell[2]:
                cell[2] = value
            cell[3] += value
            cell[4] += 1
    return cell


def _write_container(
    path: str, magic: bytes, header: dict, entries: "list[dict]", blobs: list
) -> None:
    """Atomically write the container ``state.bin`` and every segment
    share: ``magic``, the JSON header's length, the header, then the
    blobs back to back.  Each blob's ``offset`` (from the header's end)
    and ``length`` go into its entry of ``entries``, which ``header``
    holds."""
    offset = 0
    for entry, blob in zip(entries, blobs):
        entry["offset"] = offset
        entry["length"] = len(blob)
        offset += len(blob)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    _atomic_write(
        path, magic + _LEN.pack(len(encoded)) + encoded + b"".join(blobs)
    )


def _read_container(path: str, magic: bytes) -> "tuple[dict, bytes, int]":
    """Read a :func:`_write_container` file: ``(header, data, base)``,
    where the blob at ``offset`` starts at ``data[base + offset]``.

    A missing file raises ``OSError``, a wrong magic or a header that is
    not JSON ``ValueError``, and a file too short to hold the header's
    length ``struct.error``.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.startswith(magic):
        raise ValueError(f"bad magic in {path}")
    start = len(magic) + _LEN.size
    header_len = _LEN.unpack_from(data, len(magic))[0]
    return json.loads(data[start:start + header_len]), data, start + header_len


def _atomic_write(path: str, payload: bytes) -> None:
    """The ``RunCache`` idiom: temp file in the target dir + replace."""
    directory = os.path.dirname(path)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


class TSDB:
    """The embedded store: one directory, one shard per metric name.

    All public methods are thread-safe (one store lock) — the HTTP
    query thread may read while the monitor loop appends.  Appends and
    queries never touch the disk; only :meth:`flush` writes (and the
    seal it may trigger).
    """

    def __init__(
        self,
        root: str,
        retention_s: "dict[str, float] | None" = None,
        seal_bytes: int = DEFAULT_SEAL_BYTES,
    ) -> None:
        # The first append creates the root; a reader never does.
        self.root = os.path.abspath(root)
        self.retention_s = dict(DEFAULT_RETENTION_S)
        if retention_s:
            self.retention_s.update(retention_s)
        self.seal_bytes = int(seal_bytes)
        self.rules = None
        self._lock = threading.RLock()
        self._shards: "dict[str, _Shard]" = {}
        self._appenders: "dict[tuple, Appender]" = {}
        self._flushes = 0

    # -- shards --------------------------------------------------------

    @staticmethod
    def _dirname(name: str) -> str:
        if name in ("", ".", ".."):
            raise ValueError(f"metric name {name!r} names no shard directory")
        return quote(name, safe="._-")

    def _shard(self, name: str, append: bool = False) -> _Shard:
        """The named shard, loaded from disk on first use.

        A read (``append=False``) writes nothing: a metric the store has
        not committed answers with an empty shard that is neither cached
        nor on disk.  The first append creates the shard's directory and
        deletes its orphan segments.
        """
        shard = self._shards.get(name)
        if shard is None:
            directory = os.path.join(self.root, self._dirname(name))
            if not append and not os.path.exists(
                os.path.join(directory, "state.bin")
            ):
                return _Shard(name, directory)
            shard = self._shards[name] = _Shard.load(name, directory)
        if append and not shard.writable:
            os.makedirs(shard.directory, exist_ok=True)
            shard._clean_orphans()
            shard.writable = True
        return shard

    def names(self) -> "list[str]":
        """Every metric name in the store (on disk + in memory).

        A directory without a committed ``state.bin`` is not a metric.
        """
        with self._lock:
            names = set(self._shards)
            try:
                for entry in os.listdir(self.root):
                    state = os.path.join(self.root, entry, "state.bin")
                    if os.path.exists(state):
                        names.add(unquote(entry))
            except FileNotFoundError:
                pass
            return sorted(names)

    def series(self, name: str) -> "list[dict[str, str]]":
        """The label sets recorded under one metric name."""
        with self._lock:
            shard = self._shard(name)
            return [
                dict(key[1])
                for key in sorted(shard.series, key=lambda k: shard.series[k].sid)
            ]

    # -- writes --------------------------------------------------------

    def appender(
        self, name: str, labels: "dict[str, object] | None" = None
    ) -> Appender:
        """A per-series append handle (resolve once, append fast)."""
        items = tuple(sorted(
            (str(k), str(v)) for k, v in (labels or {}).items()
        ))
        with self._lock:
            cached = self._appenders.get((name, items))
            if cached is not None:
                return cached
            shard = self._shard(name, append=True)
            series = shard.series_for((name, items))
            appender = Appender(self, shard, series)
            self._appenders[(name, items)] = appender
            return appender

    def append(
        self,
        name: str,
        labels: "dict[str, object] | None",
        t_s: float,
        value: float,
    ) -> bool:
        """Convenience one-shot append (cached appender underneath)."""
        return self.appender(name, labels).append(t_s, value)

    def flush(self, now_s: "float | None" = None) -> None:
        """Evaluate recording rules, seal what is due, commit state.

        This is the store's only commit point: everything since the
        previous flush becomes durable in one atomic ``state.bin``
        replace per dirty shard.  ``now_s`` feeds the attached rule
        engine (defaults to the newest appended timestamp).
        """
        with self._lock:
            if self.rules is not None:
                if now_s is None:
                    now_s = self.max_t_s()
                if now_s is not None:
                    self.rules.evaluate(self, now_s)
            retention_ms = {
                tier: seconds * 1000.0
                for tier, seconds in self.retention_s.items()
            }
            doomed: "list[str]" = []
            for shard in self._shards.values():
                if shard.open_raw_bytes() >= self.seal_bytes:
                    shard.seal()
                doomed.extend(shard.prune(retention_ms))
                if shard.dirty:
                    shard.save_state()
            for path in doomed:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self._flushes += 1

    def close(self) -> None:
        """Final flush; the store object stays usable afterwards."""
        self.flush()

    def __enter__(self) -> "TSDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def max_t_s(self) -> "float | None":
        """Newest appended timestamp across all shards (seconds).

        Walks :meth:`names` (not just the shards already faulted into
        memory) so a fresh process querying an existing store anchors
        relative ranges correctly.
        """
        with self._lock:
            newest = 0
            for name in self.names():
                newest = max(newest, self._shard(name).max_ms)
            return newest / 1000.0 if newest else None

    def attach_rules(self, engine) -> None:
        """Recording rules evaluated at the top of every :meth:`flush`."""
        self.rules = engine

    # -- queries -------------------------------------------------------

    @staticmethod
    def _matching(shard: _Shard, matchers) -> "list[_Series]":
        return [
            series for key, series in sorted(
                shard.series.items(), key=lambda item: item[1].sid
            )
            if _match(dict(key[1]), matchers)
        ]

    def select(
        self,
        name: str,
        matchers: "dict[str, str] | None" = None,
        start_s: float = 0.0,
        end_s: "float | None" = None,
    ) -> "list[dict]":
        """Raw points per matching series: ``{"labels", "points"}``.

        Points are ``(t_s, value)`` in timestamp order, exactly as
        appended (before raw retention expiry).
        """
        with self._lock:
            shard = self._shard(name)
            end_ms = _to_ms_ceiling(end_s, shard)
            start_ms = int(math.floor(start_s * 1000.0))
            out = []
            for series in self._matching(shard, matchers):
                points = shard.raw_points(series, start_ms, end_ms)
                out.append({
                    "labels": dict(series.key[1]),
                    "points": [(t / 1000.0, v) for t, v in points],
                })
            return out

    def select_cells(
        self,
        name: str,
        matchers: "dict[str, str] | None" = None,
        start_s: float = 0.0,
        end_s: "float | None" = None,
        tier: str = "10s",
    ) -> "list[dict]":
        """Rollup cells per matching series.

        Each cell is ``(start_s, min, max, mean, count)`` — the exact
        min/max/mean/count of the raw samples in its window.
        """
        if tier not in TIER_WIDTH_MS:
            raise ValueError(f"tier must be one of {tuple(TIER_WIDTH_MS)}")
        with self._lock:
            shard = self._shard(name)
            end_ms = _to_ms_ceiling(end_s, shard)
            start_ms = int(math.floor(start_s * 1000.0))
            out = []
            for series in self._matching(shard, matchers):
                cells = shard.rollup_cells(series, tier, start_ms, end_ms)
                out.append({
                    "labels": dict(series.key[1]),
                    "cells": [
                        (start / 1000.0, vmin, vmax, vsum / count, count)
                        for start, vmin, vmax, vsum, count in cells
                    ],
                })
            return out

    def query(
        self,
        name: str,
        matchers: "dict[str, str] | None" = None,
        at_s: "float | None" = None,
    ) -> "list[dict]":
        """Instant query: newest point at or before ``at_s`` per series."""
        _check_finite(at_s=at_s)
        with self._lock:
            shard = self._shard(name)
            at_ms = _to_ms_ceiling(at_s, shard)
            out = []
            for series in self._matching(shard, matchers):
                points = shard.raw_points(series, 0, at_ms)
                if points:
                    t_ms, value = points[-1]
                    out.append({
                        "labels": dict(series.key[1]),
                        "t_s": t_ms / 1000.0,
                        "value": value,
                    })
            return out

    def query_range(
        self,
        name: str,
        matchers: "dict[str, str] | None" = None,
        start_s: float = 0.0,
        end_s: "float | None" = None,
        step_s: "float | None" = None,
        agg: str = "mean",
        by: "tuple[str, ...] | list[str] | None" = None,
        tier: str = "auto",
    ) -> "list[dict]":
        """Step-aligned range query with aggregation and label grouping.

        Without ``step_s``, returns the raw (or rollup-mean) points.
        With it, points bucket into ``[start + k*step, start + (k+1)*step)``
        and ``agg`` (one of mean/min/max/sum/count/last) folds each
        bucket.  ``by=("subsystem",)`` first merges series sharing those
        label values.  ``tier="auto"`` answers from raw while raw data
        covers ``start_s`` and falls back to 10 s then 2 min rollups.
        """
        if agg not in _AGGS:
            raise ValueError(f"agg must be one of {_AGGS}")
        _check_finite(start_s=start_s, end_s=end_s, step_s=step_s)
        if step_s is not None and step_s <= 0:
            raise ValueError(f"step_s must be positive, got {step_s}")
        with self._lock:
            shard = self._shard(name)
            if end_s is None:
                end = shard.max_ms / 1000.0 if shard.max_ms else start_s
            else:
                end = float(end_s)
            chosen = self._choose_tier(shard, tier, start_s)
            groups: "dict[tuple, dict]" = {}
            for series in self._matching(shard, matchers):
                labels = dict(series.key[1])
                if by is None:
                    group_key = tuple(sorted(labels.items()))
                    group_labels = labels
                else:
                    group_labels = {
                        label: labels.get(label, "") for label in by
                    }
                    group_key = tuple(sorted(group_labels.items()))
                points = self._series_points(
                    shard, series, chosen, start_s, end
                )
                group = groups.setdefault(
                    group_key, {"labels": group_labels, "points": []}
                )
                group["points"].extend(points)
            out = []
            for _, group in sorted(groups.items()):
                points = sorted(group["points"])
                if step_s is not None:
                    points = _bucket(points, start_s, end, float(step_s), agg)
                out.append({
                    "labels": group["labels"],
                    "points": points,
                    "tier": chosen,
                })
            return out

    def _choose_tier(self, shard: _Shard, tier: str, start_s: float) -> str:
        if tier != "auto":
            if tier != "raw" and tier not in TIER_WIDTH_MS:
                raise ValueError(f"tier must be raw/auto or {tuple(TIER_WIDTH_MS)}")
            return tier
        start_ms = start_s * 1000.0
        horizon = self.retention_s["raw"] * 1000.0
        if not shard.max_ms or start_ms >= shard.max_ms - horizon:
            return "raw"
        if start_ms >= shard.max_ms - self.retention_s["10s"] * 1000.0:
            return "10s"
        return "2m"

    def _series_points(self, shard, series, tier, start_s, end_s):
        start_ms = int(math.floor(start_s * 1000.0))
        end_ms = int(math.ceil(end_s * 1000.0))
        if tier == "raw":
            return [
                (t / 1000.0, v)
                for t, v in shard.raw_points(series, start_ms, end_ms)
            ]
        return [
            (start / 1000.0, vsum / count)
            for start, _vmin, _vmax, vsum, count in shard.rollup_cells(
                series, tier, start_ms, end_ms
            )
        ]

    def rate(
        self,
        name: str,
        matchers: "dict[str, str] | None" = None,
        start_s: float = 0.0,
        end_s: "float | None" = None,
    ) -> "list[dict]":
        """Counter increase per second over the range, reset-aware.

        The increase is the sum of positive deltas between consecutive
        points (a drop is a process restart, not a negative rate),
        divided by the observed time span.
        """
        out = []
        for entry in self.select(name, matchers, start_s, end_s):
            points = entry["points"]
            if len(points) < 2:
                out.append({"labels": entry["labels"], "rate": 0.0})
                continue
            increase = sum(
                max(0.0, b[1] - a[1]) for a, b in zip(points, points[1:])
            )
            span = points[-1][0] - points[0][0]
            out.append({
                "labels": entry["labels"],
                "rate": increase / span if span > 0 else 0.0,
            })
        return out

    def quantile_over_time(
        self,
        name: str,
        q: float,
        matchers: "dict[str, str] | None" = None,
        start_s: float = 0.0,
        end_s: "float | None" = None,
    ) -> "list[dict]":
        """Exact ``q``-quantile of each series' raw values in the range."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        out = []
        for entry in self.select(name, matchers, start_s, end_s):
            values = sorted(v for _, v in entry["points"])
            if not values:
                out.append({"labels": entry["labels"], "value": float("nan")})
                continue
            position = q * (len(values) - 1)
            lo = int(math.floor(position))
            hi = int(math.ceil(position))
            value = values[lo] + (values[hi] - values[lo]) * (position - lo)
            out.append({"labels": entry["labels"], "value": value})
        return out

    # -- introspection -------------------------------------------------

    def document(self) -> dict:
        """The ``/rules``-adjacent store summary (also for the CLI)."""
        with self._lock:
            shards = {}
            for name in self.names():
                shard = self._shard(name)
                shards[name] = {
                    "series": len(shard.series),
                    "appended": shard.appended,
                    "dropped_out_of_order": shard.dropped,
                    "open_bytes": shard.open_raw_bytes(),
                    "segments": {
                        tier: len(entries)
                        for tier, entries in shard.manifest.items()
                    },
                }
            return {
                "root": self.root,
                "retention_s": dict(self.retention_s),
                "seal_bytes": self.seal_bytes,
                "flushes": self._flushes,
                "shards": shards,
            }


def _check_finite(**bounds: "float | None") -> None:
    """Reject a query bound that is NaN, infinite or too large to count
    in milliseconds (``None`` means unset)."""
    for name, value in bounds.items():
        if value is not None and not math.isfinite(value * 1000.0):
            raise ValueError(f"{name} must be finite, got {value}")


def _to_ms_ceiling(end_s: "float | None", shard: _Shard) -> int:
    if end_s is None:
        return max(shard.max_ms, 1 << 60)
    return int(math.ceil(end_s * 1000.0))


def _fold(agg: str, values: "list[float]") -> float:
    if agg == "mean":
        return sum(values) / len(values)
    if agg == "min":
        return min(values)
    if agg == "max":
        return max(values)
    if agg == "sum":
        return sum(values)
    if agg == "count":
        return float(len(values))
    return values[-1]  # last


def _bucket(points, start_s, end_s, step_s, agg):
    """Fold sorted ``(t_s, v)`` points into step-aligned buckets.

    Bucket ``k`` is ``[lo, lo + step)`` with ``lo = start + k*step``,
    except the last, which closes at ``end_s`` inclusively so the
    newest sample is never orphaned.  A point lands in the first bucket
    whose upper edge lies above it and counts only if it is not below
    that bucket's ``lo``; points past the last bucket are dropped.
    Upper edges never decrease with ``k``, so a point past the current
    bucket gallops then bisects forward to its own: the cost follows
    the points and the log of the gaps between them, not the number of
    (mostly empty) buckets.
    """
    span = (end_s - start_s) / step_s - 1e-9
    if not math.isfinite(span):
        raise ValueError(
            f"range {start_s}..{end_s} at step {step_s} has no finite "
            "bucket count"
        )
    n_buckets = max(1, int(math.ceil(span)))

    def upper(k: int) -> float:
        lo = start_s + k * step_s
        if k < n_buckets - 1:
            return lo + step_s
        return max(lo + step_s, end_s) + 1e-9

    out = []
    k, lo, hi, values = -1, -math.inf, -math.inf, []
    for t, v in points:
        if t >= hi:
            if values:
                out.append((lo, _fold(agg, values)))
                values = []
            # Every bucket below ``first`` ends at or before t; the
            # first one above t is at most ``last`` (or there is none).
            first, gap = k + 1, 1
            while first + gap - 1 < n_buckets and t >= upper(first + gap - 1):
                first, gap = first + gap, 2 * gap
            last = min(first + gap - 1, n_buckets)
            while first < last:
                mid = (first + last) // 2
                if t < upper(mid):
                    last = mid
                else:
                    first = mid + 1
            k = first
            if k == n_buckets:
                break
            lo, hi = start_s + k * step_s, upper(k)
        if t >= lo:
            values.append(v)
    if values:
        out.append((lo, _fold(agg, values)))
    return out


class WindowSink:
    """Bridges :class:`~repro.obs.live.WindowedRegistry` eviction to a store.

    Hand an instance to ``WindowedRegistry(on_evict=WindowSink(db))``:
    every evicted window persists as one sample per metric at the
    window's start time — counters keep their **per-window delta**
    (rate material, not the cumulative), gauges their last value, and
    histograms two derived series, ``<name>:mean`` and ``<name>:count``.

    The sink is idempotent per window: a window whose start is not
    newer than the last one persisted is skipped, so callers may feed
    the same window through both an eager per-tick
    :meth:`~repro.obs.live.WindowedRegistry.sink_closed` pass and the
    eventual eviction/:meth:`~repro.obs.live.WindowedRegistry.drain`
    without double-writing.
    """

    def __init__(self, db: TSDB) -> None:
        self.db = db
        self.windows_persisted = 0
        self._last_start_s = float("-inf")

    def __call__(self, window) -> None:
        if window.start_s <= self._last_start_s:
            return
        self._last_start_s = window.start_s
        db = self.db
        t = window.start_s
        for key, value in window.counters.items():
            db.append(key[0], dict(key[1]), t, value)
        for key, value in window.gauges.items():
            db.append(key[0], dict(key[1]), t, value)
        for key, hist in window.histograms.items():
            labels = dict(key[1])
            db.append(f"{key[0]}:mean", labels, t, hist.mean)
            db.append(f"{key[0]}:count", labels, t, hist.count)
        self.windows_persisted += 1
