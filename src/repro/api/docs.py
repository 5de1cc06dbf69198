"""Generate the component reference from the live registries.

Like machine-readable catalogues of ML artifacts, the component registries
are the single source of truth for what the system can do — so the
reference documentation is *generated* from them instead of hand-written:
``python -m repro docs`` walks every registry
(:func:`~repro.api.registry.all_registries`) and emits one entry per
component with its stable name, implementing class, docstring summary, and
configuration knobs (constructor parameters with defaults and the range,
choices or non-empty rule their annotations declare, or preset field
values).  CI regenerates the file and fails when the committed
``docs/reference.md`` is stale, so the reference cannot rot.

The generator refuses to produce empty entries: :func:`lint_docstrings`
lists every registered component, serving/api module, and public class
that lacks a docstring, and the CLI exits nonzero while any remain.
Everything here is deterministic — same source, byte-identical output —
which is what makes the staleness check a plain string comparison.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

from repro.api import components  # noqa: F401  (populates the registries)
from repro.api.registry import all_registries
from repro.api.schema import describe, parameter_hints

#: Packages whose modules and public classes the docstring lint audits.
AUDITED_PACKAGES = (
    "repro.serving",
    "repro.api",
    "repro.obs",
    "repro.sweep",
    "repro.lint",
)

_HEADER = """\
# Component reference

<!-- AUTO-GENERATED by `python -m repro docs` — do not edit by hand.
     CI fails when this file is stale; regenerate after touching any
     registered component. -->

Every pluggable component, generated from the live registries.  A config
file selects components by the registry *name* shown here and passes the
listed knobs in its ``options`` (or dedicated fields, for sections such as
``serving.arrivals.trace_path``).  See `docs/architecture.md` for how the
registries fit together and `docs/serving.md` for the serving guide.
"""


def _audited_modules() -> list[str]:
    """Dotted names of every module under the audited packages (sorted)."""
    names: list[str] = []
    for package_name in AUDITED_PACKAGES:
        package = importlib.import_module(package_name)
        names.append(package_name)
        for info in pkgutil.iter_modules(package.__path__, package_name + "."):
            if info.name.rsplit(".", 1)[-1] == "__main__":
                continue
            names.append(info.name)
    return sorted(names)


def _summary(obj: object) -> str | None:
    """The first paragraph of an object's docstring, joined to one flow."""
    doc = inspect.getdoc(obj)
    if not doc:
        return None
    paragraph = doc.split("\n\n", 1)[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def _knob_rows(component: object) -> list[tuple[str, ...]]:
    """(knob, default, constraint) rows for one component.

    Classes and factory callables contribute their constructor/call
    parameters; preset instances (machine models, dataset profiles)
    contribute (field, *value*) rows, which is what a config would override.
    """
    if not callable(component):
        if dataclasses.is_dataclass(component):
            return [
                (field.name, repr(getattr(component, field.name)))
                for field in dataclasses.fields(component)
            ]
        return []
    try:
        signature = inspect.signature(component)
    except (TypeError, ValueError):
        return []
    hints = parameter_hints(component) if isinstance(component, type) else {}
    rows: list[tuple[str, ...]] = []
    for parameter in signature.parameters.values():
        if parameter.name == "self" or parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        default = (
            "*(required)*"
            if parameter.default is inspect.Parameter.empty
            else f"`{parameter.default!r}`"
        )
        rows.append((parameter.name, default, describe(hints.get(parameter.name))))
    return rows


def _implementation_of(component: object) -> tuple[object, str]:
    """The documented object and a rendered 'class' label for one component."""
    if isinstance(component, type):
        return component, f"`{component.__module__}.{component.__qualname__}`"
    if callable(component):
        qualname = getattr(component, "__qualname__", type(component).__name__)
        module = getattr(component, "__module__", "?")
        return component, f"`{module}.{qualname}` (factory)"
    cls = type(component)
    return cls, f"`{cls.__module__}.{cls.__qualname__}` (preset instance)"


def generate_reference() -> str:
    """The full reference document as a deterministic markdown string."""
    lines: list[str] = [_HEADER]
    registries = all_registries()
    lines.append("## Registries\n")
    lines.append("| registry | kind | components |")
    lines.append("|---|---|---|")
    for key in sorted(registries):
        registry = registries[key]
        lines.append(f"| [`{key}`](#registry-{key}) | {registry.kind} | {len(registry)} |")
    lines.append("")
    for key in sorted(registries):
        registry = registries[key]
        lines.append(f'<a id="registry-{key}"></a>')
        lines.append(f"## `{key}` — {registry.kind}\n")
        for name in registry.names():
            component = registry.get(name)
            documented, label = _implementation_of(component)
            lines.append(f"### `{name}`\n")
            lines.append(f"- class: {label}")
            summary = _summary(documented)
            lines.append(f"- {summary}" if summary else "- *(no docstring)*")
            rows = _knob_rows(component)
            if rows:
                lines.append("")
                header = (
                    "| field | value |"
                    if not callable(component)
                    else "| knob | default | constraint |"
                )
                lines.append(header)
                lines.append("|---|---|" if not callable(component) else "|---|---|---|")
                for knob, *cells in rows:
                    lines.append(f"| `{knob}` | {' | '.join(cells)} |")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def lint_docstrings() -> list[str]:
    """Docstring gaps that would leave empty entries in the reference.

    Checks every registered component (the class, factory, or preset type
    that documents it), every module under :data:`AUDITED_PACKAGES`, and
    every public class defined in those modules.  Returns human-readable
    problem strings, sorted; empty means the audit passes.
    """
    problems: set[str] = set()
    for key, registry in all_registries().items():
        for name in registry.names():
            documented, label = _implementation_of(registry.get(name))
            if not _summary(documented):
                problems.add(f"{key}/{name}: component {label} has no docstring")
    for module_name in _audited_modules():
        module = importlib.import_module(module_name)
        if not (module.__doc__ or "").strip():
            problems.add(f"{module_name}: module has no docstring")
        for attribute, value in vars(module).items():
            if attribute.startswith("_") or not inspect.isclass(value):
                continue
            if value.__module__ != module_name:
                continue  # re-exports are documented where they are defined
            if not _summary(value):
                problems.add(f"{module_name}.{attribute}: class has no docstring")
    return sorted(problems)
