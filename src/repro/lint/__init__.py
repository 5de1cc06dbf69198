"""``repro lint``: a determinism & contract static analyzer for this repo.

Every headline claim of the reproduction — record→replay byte-equality,
golden parity of the event loop, ``workers=1`` pool equivalence — rests on
invariants the test suite only checks *dynamically*, after a violation has
already corrupted a run.  This package checks them *statically*, over the
AST, at review time:

* **determinism** (:mod:`~repro.lint.determinism`) — no wall-clock or
  unseeded-RNG calls in simulation paths, no set-iteration or bare
  ``.keys()`` ordering hazards in reporting code, no mutable default
  arguments anywhere;
* **contracts** (:mod:`~repro.lint.contracts`) — ``Report`` subclasses
  are kind-tagged frozen dataclasses (example configs and the generated
  ``docs/reference.md`` are checked against the live code by the test
  suite and ``repro docs --check`` instead);
* **event dispatch** (:mod:`~repro.lint.pairing`) — every
  ``ServerEvent`` subtype is accounted for at each exhaustive dispatch
  site.

Rules are components in the ordinary registry sense
(:data:`~repro.api.registry.LINT_RULES`); the
:class:`~repro.lint.engine.LintEngine` runs them over a parsed tree, and
intentional exceptions live in the committed, ratcheted
``lint/baseline.json``.  Entry points: ``python -m repro lint``,
:meth:`Engine.lint() <repro.api.engine.Engine.lint>`.  See
``docs/linting.md`` for the rule catalogue and the baseline workflow.
"""

from repro.lint.engine import LintEngine, default_root, parse_tree
from repro.lint.findings import Baseline, BaselineEntry, Finding, LintReport
from repro.lint.rules import LintContext, LintRule, ParsedModule

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintContext",
    "LintEngine",
    "LintReport",
    "LintRule",
    "ParsedModule",
    "default_root",
    "parse_tree",
]
