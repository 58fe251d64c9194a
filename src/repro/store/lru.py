"""The in-process memory tier: a thread-safe bounded LRU with stats.

This is the store's tier 1: bounded, thread-safe, with hit/miss/eviction
counters readable by benches and tests.  The ``"spatial"`` stage's tier
memoizes the signature search.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

__all__ = ["DEFAULT_MAXSIZE", "CacheStats", "LruCache"]

#: Default number of cached entries per tier.  Stage artifacts held in
#: memory are small (index tuples, OLS coefficients, forecast matrices of a
#: few KB each), so this comfortably covers a large fleet sweep.
DEFAULT_MAXSIZE = 512


@dataclass
class CacheStats:
    """Hit/miss counters, readable by benches and tests."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class LruCache:
    """Thread-safe bounded LRU mapping hashable keys to values."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return None

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset counters (used between timed runs)."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()
