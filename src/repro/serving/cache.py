"""Scan-granular LRU cache tier in front of the :class:`ImageStore`.

The unit of caching is a *scan prefix per key*, not a whole object: an entry
records how many scans of a key are resident.  A request that needs fewer
scans than are cached is a full hit (zero bytes from the store); one that
needs more pays only the incremental scans — exactly mirroring the
incremental-read accounting of ``ImageStore.read_additional`` that the
pipeline already relies on.  Capacity is in bytes; eviction is LRU over
whole entries, and an entry larger than the whole cache is simply never
admitted, so ``bytes_cached <= capacity_bytes`` is an invariant.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.api.registry import CACHES
from repro.api.schema import PositiveInt, checked
from repro.storage.store import ImageStore


@dataclass
class _Entry:
    """Resident scan prefix for one key."""

    num_scans: int
    num_bytes: int


@dataclass
class CacheStats:
    """Cumulative cache accounting (lookups == hits + partial_hits + misses)."""

    lookups: int = 0
    hits: int = 0
    partial_hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_from_cache: int = 0
    bytes_fetched: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served at least partially from the cache."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.partial_hits) / self.lookups


@dataclass(frozen=True)
class CacheRead:
    """Accounting for one read through the cache tier."""

    key: str
    scans: int
    bytes_from_cache: int
    bytes_fetched: int
    outcome: str  # "hit", "partial", or "miss"


@CACHES.register("scan-lru")
class ScanCache:
    """Byte-capacitated LRU cache of scan prefixes over an :class:`ImageStore`."""

    @checked
    def __init__(self, capacity_bytes: PositiveInt) -> None:
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.bytes_cached = 0
        self.stats = CacheStats()

    # -- introspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def cached_scans(self, key: str) -> int:
        """Scans resident for ``key`` (0 when absent)."""
        entry = self._entries.get(key)
        return entry.num_scans if entry is not None else 0

    def cached_bytes(self, key: str) -> int:
        """Bytes resident for ``key`` (0 when absent).

        The elastic fleet prices a ring remap with this: the resident bytes
        of every key that moved shards is exactly the re-warm traffic the
        new owner must fetch again.
        """
        entry = self._entries.get(key)
        return entry.num_bytes if entry is not None else 0

    def lru_keys(self) -> list[str]:
        """Keys from least- to most-recently used (for tests/diagnostics)."""
        return list(self._entries)

    def reset_stats(self) -> None:
        """Zero the tallies without touching residency (per-run reporting)."""
        self.stats = CacheStats()

    # -- eviction ----------------------------------------------------------------
    def _evict_until_fits(self, protect: str | None = None) -> None:
        while self.bytes_cached > self.capacity_bytes:
            victim = next(iter(self._entries))
            if victim == protect:
                # The protected entry alone exceeds capacity: drop it too.
                protect = None
            entry = self._entries.pop(victim)
            self.bytes_cached -= entry.num_bytes
            self.stats.evictions += 1

    # -- the read path -----------------------------------------------------------
    def read_through(
        self,
        store: ImageStore,
        key: str,
        num_scans: int,
        record: bool = True,
        already_read: int = 0,
    ) -> tuple[np.ndarray, CacheRead]:
        """Read ``num_scans`` scans of ``key``, fetching only what is missing.

        Full hits decode from the store's resident object without touching
        its byte counters; partial hits pay ``read_additional`` for the
        missing scans; misses pay a full prefix read.  ``record=False``
        updates residency and byte totals but not the hit/miss tallies —
        the server uses it for the stage-2 top-up of a request whose stage-1
        lookup was already tallied, so hit rates stay per-request.
        ``already_read`` marks scans the caller itself fetched earlier in
        the same request, so a cache miss on the top-up still pays only the
        incremental scans even when the prefix was never admitted.  The
        byte counters (``bytes_fetched``, ``bytes_from_cache``) always
        accumulate, with ``bytes_from_cache`` counting only bytes beyond
        what the caller already held — so across a whole run the two sum
        to the bytes actually consumed.
        """
        encoded = store.metadata(key).encoded
        needed_bytes = encoded.cumulative_bytes(num_scans)
        entry = self._entries.get(key)

        def cache_served(through_scans: int) -> int:
            """Bytes the cache contributed beyond the caller's own reads."""
            served = encoded.cumulative_bytes(through_scans)
            if already_read:
                served -= encoded.cumulative_bytes(min(through_scans, already_read))
            return max(0, served)

        if record:
            self.stats.lookups += 1

        if entry is not None and entry.num_scans >= num_scans:
            self._entries.move_to_end(key)
            image = encoded.decode(num_scans)
            from_cache = cache_served(num_scans)
            if record:
                self.stats.hits += 1
            self.stats.bytes_from_cache += from_cache
            return image, CacheRead(key, num_scans, from_cache, 0, "hit")

        if entry is not None:
            cached_bytes = entry.num_bytes
            base_scans = max(entry.num_scans, already_read)
            image, receipt = store.read_additional(key, base_scans, num_scans)
            fetched = receipt.bytes_read
            from_cache = cache_served(entry.num_scans)
            entry.num_scans = num_scans
            entry.num_bytes = needed_bytes
            self.bytes_cached += needed_bytes - cached_bytes
            self._entries.move_to_end(key)
            self._evict_until_fits(protect=key)
            if record:
                self.stats.partial_hits += 1
            self.stats.bytes_from_cache += from_cache
            self.stats.bytes_fetched += fetched
            return image, CacheRead(key, num_scans, from_cache, fetched, "partial")

        if already_read:
            image, receipt = store.read_additional(key, already_read, num_scans)
        else:
            image, receipt = store.read(key, num_scans)
        fetched = receipt.bytes_read
        if record:
            self.stats.misses += 1
        self.stats.bytes_fetched += fetched
        if needed_bytes <= self.capacity_bytes:
            self._entries[key] = _Entry(num_scans=num_scans, num_bytes=needed_bytes)
            self.bytes_cached += needed_bytes
            self._evict_until_fits(protect=key)
        return image, CacheRead(key, num_scans, 0, fetched, "miss")
