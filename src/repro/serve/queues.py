"""Bounded shard queues with backpressure telemetry.

Each estimator shard owns one :class:`BoundedQueue` of decoded
:class:`~repro.serve.protocol.SampleBatch` items.  The queue is the
backpressure boundary: when a shard falls behind, ``put`` **rejects**
new batches instead of growing without bound — the service counts the
shed samples and the client sees them in the ingest response, so load
degrades visibly and gracefully rather than OOMing the process.

Depth is bounded in *batches*; with frames of ~64 samples the default
depth of 256 batches caps a shard's backlog near 16k samples, a few
hundred milliseconds of work at the benchmark's single-process rate.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["BoundedQueue"]


class BoundedQueue:
    """A lock-guarded FIFO that sheds on overflow and tracks high water.

    Unlike ``queue.Queue(maxsize=...)`` this never blocks producers —
    ``put`` returns ``False`` when full (the caller counts a shed) —
    and it exposes ``depth``/``high_water`` for the gauge plane plus
    ``drain`` so a worker can coalesce everything pending into one
    batched evaluate pass.
    """

    def __init__(self, depth: int = 256) -> None:
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth_limit = int(depth)
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self.high_water = 0
        self.shed_total = 0
        self.put_total = 0
        self._closed = False

    def put(self, item) -> bool:
        """Enqueue; ``False`` (and a shed count) when full or closed."""
        with self._lock:
            if self._closed or len(self._items) >= self.depth_limit:
                self.shed_total += 1
                return False
            self._items.append(item)
            self.put_total += 1
            if len(self._items) > self.high_water:
                self.high_water = len(self._items)
            self._not_empty.notify()
            return True

    def get(self, timeout: "float | None" = 0.1):
        """Dequeue one item, or ``None`` on timeout / close."""
        with self._not_empty:
            if not self._items and not self._closed:
                self._not_empty.wait(timeout)
            if not self._items:
                return None
            return self._items.popleft()

    def drain(self, limit: int) -> list:
        """Pop up to ``limit`` items without waiting (may be empty)."""
        with self._lock:
            out = []
            while self._items and len(out) < limit:
                out.append(self._items.popleft())
            return out

    def close(self) -> None:
        """Reject further puts and wake any waiting consumer."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._items),
                "depth_limit": self.depth_limit,
                "high_water": self.high_water,
                "put_total": self.put_total,
                "shed_total": self.shed_total,
            }
