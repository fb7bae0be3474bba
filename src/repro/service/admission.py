"""Admission control: the bounded front door of the query service.

The paper's SkyServer sat behind a web farm that shed load when the
database fell behind; in-process, the same role is played by a bounded
FIFO queue.  ``offer`` never blocks -- when the queue is at depth the
item is refused and the caller sees explicit backpressure
(:class:`~repro.service.errors.AdmissionRejected` at the service layer)
instead of an unbounded pile-up.  Workers ``pop`` with a timeout so a
stopping service can drain cleanly.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """A bounded FIFO with admission counters.

    Parameters
    ----------
    depth:
        Maximum number of queued (admitted, not yet running) items.
    """

    def __init__(self, depth: int = 64):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._items: deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self.admitted = 0
        self.rejected = 0
        self.high_water = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def offer(self, item: Any) -> bool:
        """Admit ``item`` if there is room; return whether it was admitted."""
        with self._not_empty:
            if len(self._items) >= self.depth:
                self.rejected += 1
                return False
            self._items.append(item)
            self.admitted += 1
            self.high_water = max(self.high_water, len(self._items))
            self._not_empty.notify()
            return True

    def pop_batch(
        self,
        max_items: int,
        delay_s: float = 0.0,
        timeout: float | None = None,
    ) -> list[Any]:
        """Take up to ``max_items`` queued items as one micro-batch.

        Blocks for the *first* item (up to ``timeout``), then drains
        whatever backlog is already queued.  When the batch is still
        short and ``delay_s > 0``, waits up to that long for more
        arrivals -- the bounded formation delay that trades a little
        latency for shared work.  Returns ``[]`` on timeout.
        """
        if max_items < 1:
            raise ValueError("max_items must be >= 1")
        with self._not_empty:
            if not self._items:
                self._not_empty.wait(timeout)
            if not self._items:
                return []
            batch = [self._items.popleft()]
            while len(batch) < max_items and self._items:
                batch.append(self._items.popleft())
            if delay_s > 0 and len(batch) < max_items:
                deadline = time.monotonic() + delay_s
                while len(batch) < max_items:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._not_empty.wait(remaining)
                    while len(batch) < max_items and self._items:
                        batch.append(self._items.popleft())
            return batch

    def drain(self) -> list[Any]:
        """Remove and return everything queued (used on forced stop)."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            return items

    def counters(self) -> dict[str, int]:
        """Snapshot of admission accounting."""
        with self._lock:
            return {
                "depth": self.depth,
                "queued": len(self._items),
                "admitted": self.admitted,
                "rejected": self.rejected,
                "high_water": self.high_water,
            }
