"""Structured lint findings, the kind-tagged report, and the baseline.

A :class:`Finding` is one rule violation at one source location; the
:class:`~repro.lint.engine.LintEngine` collects them into a
:class:`LintReport` — a frozen, ``kind``-tagged member of the unified
:class:`~repro.api.reports.Report` hierarchy, so ``repro lint --json``
round-trips through ``Report.from_dict`` exactly like every other report.

The :class:`Baseline` is the suppression ledger: intentional exceptions
(host wall-clock in the profiler, say) are committed to
``lint/baseline.json`` with a human reason and a maximum occurrence count,
so the repo-wide run stays at zero *new* findings while every grandfathered
one remains explicit and ratcheted — a fixed violation shrinks the ledger,
a new one fails CI.  Baseline files are written atomically
(write-temp-then-rename, the sweep cell-file pattern) with sorted entries
and keys, so re-running ``--update-baseline`` on an unchanged tree is
byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.api.reports import Report, report_type

#: Finding severities, mildest first.  ``error`` findings fail the run;
#: ``warning`` findings are printed but do not affect the exit code.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation: what, where, and how to fix it.

    ``path`` is repo-root-relative with forward slashes; ``line`` is
    1-indexed.  ``message`` states the defect, ``hint`` the cheapest fix.
    The message deliberately excludes the line number, so a finding keeps
    matching its baseline entry when unrelated edits shift the file.
    """

    rule: str
    severity: str
    path: str
    line: int
    message: str
    hint: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def key(self) -> tuple[str, str, str]:
        """The baseline-matching identity: line numbers deliberately excluded."""
        return (self.rule, self.path, self.message)

    def sort_key(self) -> tuple[str, int, str, str]:
        return (self.path, self.line, self.rule, self.message)

    def render(self) -> str:
        """The one-line ``path:line: RULE severity: message`` form."""
        text = f"{self.path}:{self.line}: {self.rule} {self.severity}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


@report_type("lint")
@dataclass(frozen=True)
class LintReport(Report):
    """The outcome of one repo-wide lint run, in the unified report schema.

    ``findings`` are the *unsuppressed* violations, sorted by
    ``(path, line, rule)``; ``suppressed`` counts findings absorbed by the
    baseline and ``stale_baseline`` counts ledger entries that no longer
    match anything (candidates for pruning with ``--update-baseline``).
    """

    checked_files: int
    rules: tuple[str, ...]
    findings: tuple[Finding, ...]
    suppressed: int = 0
    stale_baseline: int = 0

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def ok(self) -> bool:
        """True when no error-severity finding survived the baseline."""
        return not self.errors

    def format(self) -> str:
        """Human-readable listing: one line per finding plus a summary."""
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"checked {self.checked_files} files against {len(self.rules)} rules: "
            f"{len(self.errors)} error(s), "
            f"{len(self.findings) - len(self.errors)} warning(s), "
            f"{self.suppressed} baselined, {self.stale_baseline} stale baseline "
            "entr(y/ies)"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class BaselineEntry:
    """One suppressed finding pattern: identity, occurrence cap, and reason."""

    rule: str
    path: str
    message: str
    count: int = 1
    reason: str = ""

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("baseline entry count must be >= 1")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.message)


@dataclass
class Baseline:
    """The committed suppression ledger for intentional findings.

    Matching ignores line numbers (see :attr:`Finding.key`) and is capped:
    an entry with ``count: 3`` absorbs at most three identical findings, so
    adding a fourth ``perf_counter`` call to a baselined file still fails.
    """

    entries: tuple[BaselineEntry, ...] = ()
    path: Path | None = field(default=None, compare=False)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty ledger."""
        path = Path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return cls(entries=(), path=path)
        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise ValueError(
                f"baseline {path} must be an object with an 'entries' list"
            )
        entries = tuple(
            BaselineEntry(**entry) for entry in data["entries"]
        )
        return cls(entries=entries, path=path)

    def apply(
        self, findings: Iterable[Finding]
    ) -> tuple[list[Finding], int, int]:
        """Split findings into (unsuppressed, suppressed count, stale entries).

        Deterministic: findings are consumed in sorted order against each
        entry's remaining capacity.
        """
        remaining = {entry.key: entry.count for entry in self.entries}
        kept: list[Finding] = []
        suppressed = 0
        for finding in sorted(findings, key=Finding.sort_key):
            if remaining.get(finding.key, 0) > 0:
                remaining[finding.key] -= 1
                suppressed += 1
            else:
                kept.append(finding)
        stale = sum(
            1
            for entry in self.entries
            if remaining.get(entry.key, 0) == entry.count
        )
        return kept, suppressed, stale

    @staticmethod
    def from_findings(
        findings: Iterable[Finding],
        reasons: Mapping[tuple[str, str, str], str] | None = None,
    ) -> "Baseline":
        """A fresh ledger covering every given finding, reasons preserved.

        ``reasons`` (keyed like :attr:`Finding.key`) carries justification
        strings forward from a previous baseline; new entries get an empty
        reason for a human to fill in.
        """
        reasons = dict(reasons or {})
        counts: dict[tuple[str, str, str], int] = {}
        for finding in findings:
            counts[finding.key] = counts.get(finding.key, 0) + 1
        entries = tuple(
            BaselineEntry(
                rule=rule,
                path=path,
                message=message,
                count=counts[(rule, path, message)],
                reason=reasons.get((rule, path, message), ""),
            )
            for rule, path, message in sorted(counts)
        )
        return Baseline(entries=entries)

    def save(self, path: str | Path) -> Path:
        """Atomically write the ledger: temp file + rename, sorted, stable.

        The write is deterministic — entries sorted by identity, JSON keys
        sorted, trailing newline — so re-running ``--update-baseline`` on an
        unchanged tree produces a byte-identical file, and a crash mid-write
        never leaves a truncated ledger behind (the sweep cell-file pattern).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "entries": [
                {
                    "rule": entry.rule,
                    "path": entry.path,
                    "message": entry.message,
                    "count": entry.count,
                    "reason": entry.reason,
                }
                for entry in sorted(self.entries, key=lambda e: e.key)
            ],
            "version": 1,
        }
        temp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temp, path)
        return path
