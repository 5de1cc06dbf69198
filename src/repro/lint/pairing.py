"""Event-dispatch pairing: every event type reaches every exhaustive consumer.

The event loop narrates itself as frozen
:class:`~repro.serving.events.ServerEvent` objects, and the loop's
emission/elision sites plus the telemetry folds must each account for
every subtype.  Golden-parity tests catch divergence *dynamically* — but
only for event types a pinned config exercises.  This rule re-states the
pairing statically: a ``ServerEvent`` subclass that a known exhaustive
dispatch site never mentions is invisible to that consumer — a new event
type lands with metrics, span trees, and the emission loop all updated,
or not at all.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.api.registry import LINT_RULES
from repro.lint.findings import Finding
from repro.lint.rules import LintContext, ParsedModule

#: Where the frozen event hierarchy is defined, relative to the repo root.
EVENTS_MODULE = "src/repro/serving/events.py"

#: The dispatch sites that must mention every ServerEvent subclass:
#: (module relpath, optional (class, method) scope, human description).
DISPATCH_SITES: tuple[tuple[str, tuple[str, str] | None, str], ...] = (
    (
        "src/repro/serving/server.py",
        None,
        "the event loop's emission/elision sites",
    ),
    (
        "src/repro/obs/metrics.py",
        ("MetricsCollector", "on_event"),
        "the telemetry metrics fold",
    ),
    (
        "src/repro/obs/tracing.py",
        ("RequestTracer", "on_event"),
        "the span-tree fold",
    ),
)


def _referenced_names(node: ast.AST) -> set[str]:
    """Every bare name and attribute name mentioned under ``node``."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _site_scope(
    module: ParsedModule, scope: tuple[str, str] | None
) -> ast.AST | None:
    """The AST node a dispatch site covers: a method body or the module."""
    if scope is None:
        return module.tree
    class_name, method_name = scope
    for node in module.classes():
        if node.name != class_name:
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == method_name:
                return item
    return None


@LINT_RULES.register("events-dispatch-exhaustive")
class EventDispatchRule:
    """Every ServerEvent subclass must be handled at each dispatch site.

    The sites (:data:`DISPATCH_SITES`) are the consumers whose claim to
    completeness the telemetry and elision logic rest on: the event loop
    itself must construct every type, and each fold must at least name it
    (an explicit ``isinstance(..., (A, B))`` ignore branch counts — the
    point is that ignoring is a decision, not an accident).  Adding a new
    frozen event subclass without touching a site fails here, naming the
    unhandled type.
    """

    rule_id = "events-dispatch-exhaustive"
    severity = "error"

    def check(self, context: LintContext) -> Iterable[Finding]:
        events_module = context.module(EVENTS_MODULE)
        if events_module is None:
            return
        event_types = [
            node.name for _, node in context.subclasses_of("ServerEvent")
        ]
        if not event_types:
            return
        for relpath, scope, description in DISPATCH_SITES:
            module = context.module(relpath)
            if module is None:
                continue
            target = _site_scope(module, scope)
            if target is None:
                class_name, method_name = scope or ("?", "?")
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=relpath,
                    line=1,
                    message=(
                        f"dispatch site {class_name}.{method_name} not found "
                        f"({description})"
                    ),
                    hint="the site moved; update DISPATCH_SITES in "
                    "repro.lint.pairing",
                )
                continue
            referenced = _referenced_names(target)
            line = target.lineno if isinstance(target, ast.FunctionDef) else 1
            for event_type in event_types:
                if event_type in referenced:
                    continue
                yield Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=relpath,
                    line=line,
                    message=(
                        f"ServerEvent subclass {event_type} is not handled "
                        f"in {description}"
                    ),
                    hint="handle the event, or add an explicit "
                    "isinstance ignore branch so skipping it is a visible "
                    "decision",
                )
