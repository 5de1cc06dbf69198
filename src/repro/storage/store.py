"""Progressive image store with byte accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codec.progressive import ProgressiveEncoder, ProgressiveImage


@dataclass(frozen=True)
class StoredImage:
    """One object in the store: the encoded image plus its metadata."""

    key: str
    encoded: ProgressiveImage
    label: int | None = None

    @property
    def total_bytes(self) -> int:
        return self.encoded.total_bytes


@dataclass(frozen=True)
class ReadReceipt:
    """Accounting record for one read request."""

    key: str
    scans_read: int
    bytes_read: int
    total_bytes: int

    @property
    def relative_read_size(self) -> float:
        if self.total_bytes == 0:
            # Degenerate zero-byte encodings: nothing to read, nothing saved.
            return 0.0
        return self.bytes_read / self.total_bytes

    @property
    def bytes_saved(self) -> int:
        return self.total_bytes - self.bytes_read


@dataclass
class ImageStore:
    """In-memory progressive image store.

    Every read returns the decoded image *and* a :class:`ReadReceipt`; the
    store keeps cumulative counters so experiments can report total bytes
    moved versus the all-data baseline (Tables III/IV).
    """

    encoder: ProgressiveEncoder = field(default_factory=ProgressiveEncoder)
    _objects: dict = field(default_factory=dict)
    total_bytes_read: int = 0
    total_bytes_stored: int = 0
    read_count: int = 0
    #: When True, every stored object's decode is memoized per scan prefix.
    #: Opt-in via :meth:`enable_decode_cache` — the serving event loop does;
    #: bulk experiment stores (many images, each read once) should not.
    decode_cache_enabled: bool = False

    # -- ingest ------------------------------------------------------------------
    def put(self, key: str, image: np.ndarray, label: int | None = None) -> StoredImage:
        """Encode and store an RGB image under ``key`` (overwrites silently)."""
        encoded = self.encoder.encode(image)
        return self.put_encoded(key, encoded, label=label)

    def put_encoded(self, key: str, encoded: ProgressiveImage, label: int | None = None) -> StoredImage:
        """Store an already-encoded image."""
        stored = StoredImage(key=key, encoded=encoded, label=label)
        if key in self._objects:
            self.total_bytes_stored -= self._objects[key].total_bytes
        self._objects[key] = stored
        self.total_bytes_stored += stored.total_bytes
        if self.decode_cache_enabled:
            encoded.enable_decode_cache()
        return stored

    def enable_decode_cache(self) -> None:
        """Memoize every object's decode per scan prefix (idempotent).

        Decoding is pure, so reads return exactly the pixels a fresh decode
        would — this only trades memory (one array per requested prefix per
        key) for the dominant share of read-path CPU.  Applies to already-
        stored objects and to everything stored afterwards.
        """
        self.decode_cache_enabled = True
        for stored in self._objects.values():
            stored.encoded.enable_decode_cache()

    # -- queries ---------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def keys(self) -> list[str]:
        return list(self._objects)

    def metadata(self, key: str) -> StoredImage:
        return self._objects[key]

    # -- reads ---------------------------------------------------------------------
    def read(self, key: str, num_scans: int | None = None) -> tuple[np.ndarray, ReadReceipt]:
        """Read and decode the first ``num_scans`` scans of ``key``.

        ``num_scans=None`` reads the whole object (the all-data baseline).
        """
        if key not in self._objects:
            raise KeyError(f"no object stored under key {key!r}")
        stored = self._objects[key]
        encoded = stored.encoded
        if num_scans is None:
            num_scans = encoded.num_scans
        image = encoded.decode(num_scans)
        receipt = ReadReceipt(
            key=key,
            scans_read=num_scans,
            bytes_read=encoded.cumulative_bytes(num_scans),
            total_bytes=encoded.total_bytes,
        )
        self.charge(receipt)
        return image, receipt

    def read_additional(
        self, key: str, already_read_scans: int, num_scans: int
    ) -> tuple[np.ndarray, ReadReceipt]:
        """Read up to ``num_scans`` having already paid for ``already_read_scans``.

        Models the two-stage pipeline of Fig 4: the scale model's low-
        resolution read is reused and only the missing scans are fetched.
        """
        if num_scans < already_read_scans:
            raise ValueError("cannot un-read scans")
        if key not in self._objects:
            raise KeyError(f"no object stored under key {key!r}")
        stored = self._objects[key]
        encoded = stored.encoded
        image = encoded.decode(num_scans)
        incremental_bytes = encoded.cumulative_bytes(num_scans) - encoded.cumulative_bytes(
            already_read_scans
        )
        receipt = ReadReceipt(
            key=key,
            scans_read=num_scans,
            bytes_read=incremental_bytes,
            total_bytes=encoded.total_bytes,
        )
        self.charge(receipt)
        return image, receipt

    # -- accounting ------------------------------------------------------------------
    def charge(self, *receipts: ReadReceipt) -> None:
        """Count reads against the cumulative counters.

        :meth:`read` and :meth:`read_additional` charge their own receipt
        here.  A caller that replays reads it made earlier instead of making
        them again (the serving loop's memoized read plans) charges the
        receipts it kept, so the counters count every read either way.
        """
        for receipt in receipts:
            self.total_bytes_read += receipt.bytes_read
        self.read_count += len(receipts)

    def reset_counters(self) -> None:
        self.total_bytes_read = 0
        self.read_count = 0

    @property
    def mean_object_bytes(self) -> float:
        if not self._objects:
            return 0.0
        return self.total_bytes_stored / len(self._objects)
