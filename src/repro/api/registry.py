"""Named component registries for the declarative facade.

Every pluggable piece of the system — backbones, resolution policies,
arrival processes, cache tiers, batchers, batch cost models, machine
models, dataset profiles, experiments — registers itself in one of the
module-level :class:`Registry` instances under a stable string name.
Configs (:mod:`repro.api.config`) then refer to components by name, and the
:class:`~repro.api.engine.Engine` resolves names back to implementations,
so adding a scenario is one registry entry plus a config file.

This module deliberately imports nothing from the rest of ``repro``: the
implementation modules import it to self-register at definition time
(``@BACKBONES.register("resnet18")``), which keeps the dependency
direction implementation → registry and avoids import cycles.  Registries
are *populated* as the implementation modules are imported; importing
:mod:`repro.api` (or anything that pulls in the engine) loads them all.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Iterator

_MISSING = object()


class Registry:
    """A mapping from stable string names to components of one kind.

    Components are usually classes or factory callables (registered with the
    :meth:`register` decorator) but may be plain objects such as machine-model
    presets (registered by calling ``register(name, obj)`` directly).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}

    # -- registration ----------------------------------------------------------
    def register(self, name: str, obj: Any = _MISSING) -> Any:
        """Register ``obj`` under ``name``; usable as a decorator.

        Duplicate names raise :class:`ValueError` — names are the public,
        stable contract that config files depend on.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} registry needs a non-empty string name")

        def _add(component: Any) -> Any:
            if name in self._entries:
                raise ValueError(
                    f"duplicate {self.kind} name {name!r}; already registered"
                )
            self._entries[name] = component
            return component

        if obj is _MISSING:
            return _add
        return _add(obj)

    # -- lookup ---------------------------------------------------------------
    def get(self, name: str) -> Any:
        """The component registered under ``name`` (KeyError lists known names)."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise KeyError(
                f"unknown {self.kind} {name!r}; known {self.kind}s: {known}"
            ) from None

    def build(self, name: str, **kwargs: Any) -> Any:
        """Instantiate the component registered under ``name`` with ``kwargs``.

        The options are bound against the factory's signature first, so a
        misspelt or missing option (config ``options`` are free-form) raises
        a :class:`ValueError` naming the component and the accepted options
        instead of a ``TypeError`` from inside the factory.
        """
        component = self.get(name)
        if not callable(component):
            raise TypeError(
                f"{self.kind} {name!r} is a preset object, not a factory; "
                "use get() instead of build()"
            )
        signature = inspect.signature(component)
        try:
            signature.bind(**kwargs)
        except TypeError as error:
            unknown = sorted(set(kwargs) - set(signature.parameters))
            problem = f"unknown option(s) {', '.join(unknown)}" if unknown else str(error)
            accepted = ", ".join(sorted(signature.parameters)) or "<none>"
            raise ValueError(
                f"{self.kind} {name!r}: {problem}; accepted options: {accepted}"
            ) from None
        return component(**kwargs)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()})"


#: Backbone / scale-model factories (``repro.nn``): name -> factory(**kwargs).
BACKBONES = Registry("backbone")

#: Per-image resolution policies (``repro.core.policies``, ``repro.serving.policies``).
RESOLUTION_POLICIES = Registry("resolution policy")

#: Request arrival processes (``repro.serving.arrivals``).
ARRIVALS = Registry("arrival process")

#: Cache tiers in front of the store (``repro.serving.cache``).
CACHES = Registry("cache tier")

#: Request batchers (``repro.serving.batcher``).
BATCHERS = Registry("batcher")

#: Batch execution cost models (``repro.serving.batcher``).
BATCH_COSTS = Registry("batch cost model")

#: Admission policies of the serving control plane (``repro.serving.control``).
ADMISSION_POLICIES = Registry("admission policy")

#: Prefetch policies of the serving control plane (``repro.serving.control``).
PREFETCH_POLICIES = Registry("prefetch policy")

#: Autoscale policies of the elastic fleet (``repro.serving.autoscale``).
AUTOSCALE_POLICIES = Registry("autoscale policy")

#: Seeded fault injectors for chaos runs (``repro.serving.faults``).
FAULTS = Registry("fault injector")

#: Key-popularity models for arrival processes (``repro.serving.popularity``).
POPULARITY = Registry("popularity model")

#: CPU machine-model presets (``repro.hwsim.machine``); entries are instances.
MACHINES = Registry("machine model")

#: Dataset profile presets (``repro.data.profiles``); entries are instances.
PROFILES = Registry("dataset profile")

#: Named experiments (``repro.api.experiments``): name -> fn(engine, options).
EXPERIMENTS = Registry("experiment")

#: Server event-stream observers (``repro.serving.events``, ``repro.obs``).
OBSERVERS = Registry("observer")

#: Static-analysis lint rules (``repro.lint``): name -> rule class.
LINT_RULES = Registry("lint rule")


def all_registries() -> dict[str, Registry]:
    """Every registry by a stable plural key (what ``list-components`` prints)."""
    return {
        "backbones": BACKBONES,
        "resolution-policies": RESOLUTION_POLICIES,
        "arrivals": ARRIVALS,
        "caches": CACHES,
        "batchers": BATCHERS,
        "batch-costs": BATCH_COSTS,
        "admission-policies": ADMISSION_POLICIES,
        "prefetch-policies": PREFETCH_POLICIES,
        "autoscale-policies": AUTOSCALE_POLICIES,
        "faults": FAULTS,
        "popularity": POPULARITY,
        "machines": MACHINES,
        "profiles": PROFILES,
        "experiments": EXPERIMENTS,
        "observers": OBSERVERS,
        "lint-rules": LINT_RULES,
    }
