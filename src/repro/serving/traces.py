"""Empirical arrival traces: a tiny on-disk schema plus a run recorder.

The serving simulator's synthetic processes (Poisson, ON/OFF) are
convenient but carry no claim of realism.  This module is the bridge to
*empirical* load: a minimal trace schema that external logs can be
converted into, loaders/savers for two self-describing formats, and a
:class:`TraceRecorder` observer that exports any simulated run back into
the same schema — so every experiment is round-trippable
(record → replay reproduces the run, see
:class:`~repro.serving.workload.TraceReplayArrivals`).

**Schema.** One record per request with three optional annotations::

    timestamp   float, seconds (monotone within a well-formed trace)
    key         str, the stored object requested
    size_bytes  optional int, bytes the request consumed (provenance only)
    deadline_s  optional float, per-request latency SLO carried by the log

**Formats.** JSON Lines (``.jsonl``/``.ndjson``, one object per line) and
CSV (``.csv``, header row ``timestamp,key,size_bytes,deadline_s``).  Both
render floats with ``repr`` so timestamps survive a save/load cycle
*exactly* — bit-identical, not just approximately — which is what makes
the record→replay round-trip test exact rather than tolerance-based.

Malformed files raise :class:`TraceFormatError` naming the path and line,
so a bad trace fails at load time with a pointer, not mid-run.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.api.registry import OBSERVERS
from repro.api.schema import Name, NonNegative, NonNegativeInt, Positive, check, decode
from repro.serving.events import (
    RequestAdmitted,
    RequestArrived,
    ServerEvent,
    ServerObserver,
)

#: Column order of the CSV format (also the canonical field order).
TRACE_FIELDS = ("timestamp", "key", "size_bytes", "deadline_s")


class TraceFormatError(ValueError):
    """A trace file violated the schema; the message names path and line."""


@dataclass(frozen=True)
class TraceRecord:
    """One empirical arrival: when, which key, and optional annotations."""

    timestamp: NonNegative
    key: Name
    size_bytes: NonNegativeInt | None = None
    deadline_s: Positive | None = None

    def __post_init__(self) -> None:
        try:
            check(self)
        except ValueError as error:
            raise TraceFormatError(str(error)) from None

    def to_dict(self) -> dict:
        """The record as a plain dict, omitting absent optional fields."""
        data: dict = {"timestamp": self.timestamp, "key": self.key}
        if self.size_bytes is not None:
            data["size_bytes"] = self.size_bytes
        if self.deadline_s is not None:
            data["deadline_s"] = self.deadline_s
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TraceRecord":
        try:
            return decode(cls, data)
        except ValueError as error:
            raise TraceFormatError(str(error)) from None


def _format_of(path: str) -> str:
    extension = os.path.splitext(path)[1].lower()
    if extension in (".jsonl", ".ndjson"):
        return "jsonl"
    if extension == ".csv":
        return "csv"
    raise TraceFormatError(
        f"cannot infer trace format from {path!r}; "
        "use a .jsonl/.ndjson or .csv extension"
    )


def _float_or_none(raw: str, field: str, where: str) -> float | None:
    if raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise TraceFormatError(f"{where}: {field} is not a number: {raw!r}") from None


def _load_jsonl(path: str) -> list[TraceRecord]:
    records: list[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                data = json.loads(text)
            except json.JSONDecodeError as error:
                raise TraceFormatError(
                    f"{path}:{line_number}: invalid JSON: {error}"
                ) from None
            if not isinstance(data, dict):
                raise TraceFormatError(
                    f"{path}:{line_number}: expected a JSON object, got {type(data).__name__}"
                )
            try:
                records.append(TraceRecord.from_dict(data))
            except TraceFormatError as error:
                raise TraceFormatError(f"{path}:{line_number}: {error}") from None
    return records


def _load_csv(path: str) -> list[TraceRecord]:
    records: list[TraceRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            return []
        unknown = sorted(set(reader.fieldnames) - set(TRACE_FIELDS))
        if unknown:
            raise TraceFormatError(
                f"{path}: unknown CSV column(s): {', '.join(unknown)}; "
                f"schema columns are: {', '.join(TRACE_FIELDS)}"
            )
        for row_number, row in enumerate(reader, start=2):
            where = f"{path}:{row_number}"
            if None in row.values():
                raise TraceFormatError(f"{where}: missing column value(s)")
            timestamp = _float_or_none(row.get("timestamp") or "", "timestamp", where)
            if timestamp is None:
                raise TraceFormatError(f"{where}: missing timestamp")
            size_raw = row.get("size_bytes") or ""
            size_bytes: int | None = None
            if size_raw:
                try:
                    size_bytes = int(size_raw)
                except ValueError:
                    raise TraceFormatError(
                        f"{where}: size_bytes is not an integer: {size_raw!r}"
                    ) from None
            deadline_s = _float_or_none(row.get("deadline_s") or "", "deadline_s", where)
            try:
                records.append(
                    TraceRecord(
                        timestamp=timestamp,
                        key=row.get("key") or "",
                        size_bytes=size_bytes,
                        deadline_s=deadline_s,
                    )
                )
            except TraceFormatError as error:
                raise TraceFormatError(f"{where}: {error}") from None
    return records


def load_trace(path: str) -> list[TraceRecord]:
    """Read a trace file (format inferred from the extension).

    Records are returned in file order; replay sorts by timestamp with a
    stable tie-break, so slightly out-of-order logs are accepted.  An empty
    trace is an error: there is nothing to replay.
    """
    records = _load_jsonl(path) if _format_of(path) == "jsonl" else _load_csv(path)
    if not records:
        raise TraceFormatError(f"{path}: trace contains no records")
    return records


def _render_float(value: float) -> str:
    # repr round-trips floats exactly; str() would too on py3 but be explicit.
    return repr(float(value))


def save_trace(records: Iterable[TraceRecord], path: str) -> int:
    """Write records to ``path`` (format inferred from the extension).

    Returns the number of records written.  Floats are rendered with
    ``repr`` so a save/load cycle preserves timestamps exactly.
    """
    records = list(records)
    if _format_of(path) == "jsonl":
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                data = record.to_dict()
                # json.dumps uses repr-equivalent float formatting already.
                handle.write(json.dumps(data, sort_keys=False) + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(TRACE_FIELDS)
            for record in records:
                writer.writerow(
                    [
                        _render_float(record.timestamp),
                        record.key,
                        "" if record.size_bytes is None else record.size_bytes,
                        ""
                        if record.deadline_s is None
                        else _render_float(record.deadline_s),
                    ]
                )
    return len(records)


@OBSERVERS.register("trace-recorder")
class TraceRecorder(ServerObserver):
    """An observer that exports a simulated run back to the trace schema.

    Subscribe it to an :class:`~repro.serving.server.InferenceServer` (or
    pass it to ``observers=``) and every arrival — admitted *or* dropped —
    becomes one :class:`TraceRecord` stamped with its simulated arrival
    time.  When the request is later admitted, its record is annotated
    with the bytes it consumed (store + cache), so the exported trace
    carries the same ``size_bytes`` provenance an external CDN log would.

    Because the event stream is deterministic, recording is too: the same
    run always exports the same trace, and replaying that trace through
    :class:`~repro.serving.workload.TraceReplayArrivals` at ``speedup=1``
    reproduces the original arrival times and keys exactly.
    """

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []
        self._index_of: dict[int, int] = {}

    def on_event(self, event: ServerEvent) -> None:
        if isinstance(event, RequestArrived):
            self._index_of[event.request.request_id] = len(self._records)
            self._records.append(
                TraceRecord(timestamp=event.time, key=event.request.key)
            )
        elif isinstance(event, RequestAdmitted):
            index = self._index_of.get(event.request.request_id)
            if index is not None:
                record = self._records[index]
                self._records[index] = TraceRecord(
                    timestamp=record.timestamp,
                    key=record.key,
                    size_bytes=event.bytes_from_store + event.bytes_from_cache,
                    deadline_s=record.deadline_s,
                )

    @property
    def records(self) -> list[TraceRecord]:
        """The recorded arrivals so far, in simulated-time order."""
        return list(self._records)

    def save(self, path: str) -> int:
        """Write the recorded trace to ``path``; returns the record count."""
        return save_trace(self._records, path)

    def clear(self) -> None:
        self._records = []
        self._index_of = {}


__all__: Sequence[str] = (
    "TRACE_FIELDS",
    "TraceFormatError",
    "TraceRecord",
    "TraceRecorder",
    "load_trace",
    "save_trace",
)
