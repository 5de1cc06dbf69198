"""Shared helpers: materialize fixture sources into miniature repo roots.

Rule tests never lint the live repo — each builds a throwaway root shaped
like ``<tmp>/src/repro/...`` from the sources in ``fixtures/``, so every
rule is exercised in isolation against a known set of violations.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import LintEngine, LintReport

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    """The source text of one fixture file."""
    return (FIXTURES / name).read_text(encoding="utf-8")


def make_root(tmp_path: Path, layout: dict[str, str]) -> Path:
    """Materialize ``{relpath: content}`` under a tmp dir and return it."""
    for relpath, content in layout.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")
    return tmp_path


def run_rule(root: Path, rule: str) -> LintReport:
    """One rule's report over a mini root (no baseline)."""
    return LintEngine(root=root, rule_names=[rule]).run()
