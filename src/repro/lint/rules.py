"""The rule engine's interfaces: parsed modules, the context, and the protocol.

A lint rule is a registered component like any other: a class with a
stable ``rule_id``, a severity, and a ``check(context)`` method yielding
:class:`~repro.lint.findings.Finding`s, registered under
:data:`~repro.api.registry.LINT_RULES` (``@LINT_RULES.register("...")``)
so ``python -m repro docs`` catalogues it and custom rules plug in from
outside the package.  Rules are pure functions of the parsed tree — they
never import the code under analysis, so linting broken-at-import code
still works and the pass stays deterministic.

The :class:`LintContext` carries everything a rule may need: every parsed
module under the root (``src/repro/**/*.py``), the repo root for
non-Python artifacts, and shared AST helpers (import-alias-normalized
dotted call names, direct subclasses of a named base) so rules stay small.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.lint.findings import Finding


@dataclass
class ParsedModule:
    """One source file under analysis: location, text, and parsed tree."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    _aliases: dict[str, str] | None = field(default=None, repr=False)

    @property
    def aliases(self) -> dict[str, str]:
        """Local name -> canonical dotted origin, from this module's imports.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        perf_counter as pc`` maps ``pc -> time.perf_counter``.  Used to
        normalize call sites before matching banned names.
        """
        if self._aliases is None:
            aliases: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for name in node.names:
                        aliases[name.asname or name.name.split(".")[0]] = (
                            name.name if name.asname else name.name.split(".")[0]
                        )
                elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                    for name in node.names:
                        aliases[name.asname or name.name] = (
                            f"{node.module}.{name.name}"
                        )
            self._aliases = aliases
        return self._aliases

    def dotted_call_name(self, call: ast.Call) -> str | None:
        """The canonical dotted name of a call target, or None if dynamic.

        ``np.random.rand(...)`` resolves to ``numpy.random.rand`` under
        ``import numpy as np``; a call on a computed expression resolves to
        None.
        """
        parts: list[str] = []
        node: ast.expr = call.func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        return ".".join([root, *reversed(parts)])

    def classes(self) -> Iterator[ast.ClassDef]:
        """Every class defined anywhere in the module, in source order."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node


class LintContext:
    """Everything rules see: the parsed tree and shared cross-file facts."""

    def __init__(self, root: Path, modules: list[ParsedModule]) -> None:
        self.root = Path(root)
        self.modules = modules
        self._by_relpath = {module.relpath: module for module in modules}

    def module(self, relpath: str) -> ParsedModule | None:
        """The parsed module at a root-relative posix path, if present."""
        return self._by_relpath.get(relpath)

    def modules_under(self, *prefixes: str) -> list[ParsedModule]:
        """The parsed modules whose relpath starts with any given prefix."""
        return [
            module
            for module in self.modules
            if any(module.relpath.startswith(prefix) for prefix in prefixes)
        ]

    def subclasses_of(self, base_name: str) -> Iterator[tuple[ParsedModule, ast.ClassDef]]:
        """Classes anywhere in the tree listing ``base_name`` as a direct base."""
        for module in self.modules:
            for node in module.classes():
                for base in node.bases:
                    name = base.id if isinstance(base, ast.Name) else (
                        base.attr if isinstance(base, ast.Attribute) else None
                    )
                    if name == base_name:
                        yield module, node
                        break


@runtime_checkable
class LintRule(Protocol):
    """The rule contract: identity, severity, and a check over the context.

    Implementations are classes registered in
    :data:`~repro.api.registry.LINT_RULES`; the engine instantiates each
    with no arguments and calls :meth:`check` once per run.  Rules must be
    deterministic — findings are sorted, but stable messages are what keep
    the baseline ledger meaningful.
    """

    rule_id: str
    severity: str

    def check(self, context: LintContext) -> Iterable[Finding]:
        """Yield every violation this rule sees in the parsed tree."""
        ...
