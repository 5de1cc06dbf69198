"""One serializable schema for every report the system produces.

:class:`~repro.serving.metrics.SLOReport` (one server run),
:class:`~repro.serving.fleet.FleetReport` (a sharded run) and
:class:`~repro.api.experiments.ExperimentResult` (a paper table/figure)
historically each had their own shape; sweeps and the CLI had to know which
one they were holding.  :class:`Report` unifies them: every report is a
frozen dataclass registered under a stable ``kind`` string, ``to_dict``
produces a plain-JSON dict tagged with that kind, and ``Report.from_dict``
dispatches the tag back to the right class — so
``Report.from_dict(report.to_dict()) == report`` round-trips for every
report type, nested ones included.

Reports encode and decode through :mod:`repro.api.schema`, the same codec
as configs: a report's field annotations are its schema, nested reports
decode by their field's annotation, and every report carries its ``kind``
tag.  Like :mod:`repro.api.registry`, this module imports nothing from the
rest of ``repro`` but that codec: report classes import it to register
themselves at definition time, keeping the dependency direction
implementation → schema.
"""

from __future__ import annotations

import json
from typing import Callable, ClassVar

from repro.api.schema import Tagged, decode, encode

#: Registered report classes by their stable ``kind`` tag.
REPORT_TYPES: dict[str, type["Report"]] = {}


def report_type(kind: str) -> Callable[[type], type]:
    """Class decorator: register a :class:`Report` subclass under ``kind``."""

    def _register(cls: type) -> type:
        if kind in REPORT_TYPES:
            raise ValueError(f"duplicate report kind {kind!r}; already registered")
        cls.kind = kind
        REPORT_TYPES[kind] = cls
        return cls

    return _register


class Report(Tagged):
    """Base class: a frozen-dataclass report with a tagged dict schema.

    Subclasses are dataclasses decorated with :func:`report_type`.  Their
    annotations drive both directions (nested reports, int-keyed
    histograms); a subclass overrides :meth:`_decode` only when a field is
    free-form data the annotations cannot describe.
    """

    kind: ClassVar[str] = "report"

    def to_dict(self) -> dict:
        """Plain-JSON dict of this report, tagged with its ``kind``."""
        return encode(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_dict(data: dict) -> "Report":
        """Rebuild any registered report from its tagged dict."""
        kind = data.get("kind")
        if kind not in REPORT_TYPES:
            known = ", ".join(sorted(REPORT_TYPES)) or "<none>"
            raise KeyError(f"unknown report kind {kind!r}; known kinds: {known}")
        return REPORT_TYPES[kind]._decode(data)

    @staticmethod
    def from_json(text: str) -> "Report":
        return Report.from_dict(json.loads(text))

    @classmethod
    def _decode(cls, data: dict) -> "Report":
        return decode(cls, data)
