"""Contract rule: every report class must round-trip through the schema.

Every :class:`~repro.api.reports.Report` subclass must be kind-tagged
(``@report_type``) and frozen, so it round-trips through
``Report.from_dict`` like the rest of the hierarchy.  No runtime check
makes this one: a subclass missing either decorator serializes fine and
fails only when a report of it is read back.

The facade's other two contracts are checked against the live code, not
re-parsed here: ``tests/api/test_example_configs.py`` loads every
``examples/configs/*.json`` through ``EngineConfig.from_dict``, and
``python -m repro docs --check`` compares the committed
``docs/reference.md`` with the reference rendered from the registries.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.api.registry import LINT_RULES
from repro.lint.findings import Finding
from repro.lint.rules import LintContext


@LINT_RULES.register("reports-kind-tagged")
class ReportKindRule:
    """Every Report subclass must be kind-tagged, frozen, and unique.

    The unified report schema (PR 4) only round-trips classes registered
    with ``@report_type("kind")`` over a frozen dataclass.  A subclass
    missing either decorator serializes fine but silently fails
    ``Report.from_dict`` — this rule catches it at review time, plus any
    duplicate kind string across files.
    """

    rule_id = "reports-kind-tagged"
    severity = "error"

    def check(self, context: LintContext) -> Iterable[Finding]:
        kinds: dict[str, str] = {}
        for module, node in context.subclasses_of("Report"):
            kind: str | None = None
            frozen = False
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                func = decorator.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None
                )
                if (
                    name == "report_type"
                    and decorator.args
                    and isinstance(decorator.args[0], ast.Constant)
                    and isinstance(decorator.args[0].value, str)
                ):
                    kind = decorator.args[0].value
                if name == "dataclass" and any(
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                    for keyword in decorator.keywords
                ):
                    frozen = True
            where = f"{module.relpath}:{node.name}"
            if kind is None:
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=module.relpath,
                    line=node.lineno,
                    message=(
                        f"Report subclass {node.name} has no "
                        "@report_type(...) kind tag"
                    ),
                    hint="decorate with @report_type(\"<kind>\") above "
                    "@dataclass(frozen=True) so Report.from_dict round-trips",
                )
                continue
            if not frozen:
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=module.relpath,
                    line=node.lineno,
                    message=(
                        f"Report subclass {node.name} is not a frozen dataclass"
                    ),
                    hint="reports are value objects: @dataclass(frozen=True)",
                )
            if kind in kinds:
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=module.relpath,
                    line=node.lineno,
                    message=(
                        f"report kind {kind!r} of {node.name} duplicates "
                        f"{kinds[kind]}"
                    ),
                    hint="kinds are the serialized dispatch tag; pick a "
                    "unique string",
                )
            else:
                kinds[kind] = where
