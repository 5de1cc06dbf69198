"""Unified facade: registries, declarative configs, an engine, and a CLI.

One entry point for every experiment and serving scenario in the repo:

* :mod:`repro.api.registry` — decorator-based registries mapping stable
  string names to backbones, resolution policies, arrival processes, cache
  tiers, batchers, batch cost models, machine models, dataset profiles and
  experiments (implementations self-register at definition time);
* :mod:`repro.api.config` — nested, validated, JSON-round-trippable
  dataclasses (:class:`EngineConfig`, :class:`ServingConfig`,
  :class:`ExperimentConfig`, ...) describing a complete scenario;
* :mod:`repro.api.engine` — the :class:`Engine` facade that builds the
  pipeline/server/experiment from a config and exposes ``run_experiment``,
  ``serve`` and ``sweep``;
* :mod:`repro.api.reports` — the unified :class:`Report` schema every
  report type (SLO, fleet, experiment) serializes through
  (``Report.from_dict(r.to_dict()) == r``);
* :mod:`repro.api.schema` — the one codec between plain JSON data and the
  config and report dataclasses, read from their annotations;
* :mod:`repro.api.cli` — ``python -m repro run|serve|sweep|list-components``.

This ``__init__`` resolves its exports lazily (PEP 562): the component
modules import :mod:`repro.api.registry` at definition time to register
themselves, and an eager import of the engine here would cycle back into
whichever package is mid-import.  Accessing any name below pulls in the
full facade (and thereby populates every registry).
"""

from __future__ import annotations

from typing import Any

_CONFIG_EXPORTS = (
    "AdaptiveConfig",
    "AdmissionConfig",
    "ArrivalsConfig",
    "BackboneConfig",
    "BatchCostConfig",
    "CacheConfig",
    "DiurnalConfig",
    "EngineConfig",
    "ExperimentConfig",
    "FleetConfig",
    "ObjectiveConfig",
    "PolicyConfig",
    "PopularityConfig",
    "PrefetchConfig",
    "ServingConfig",
    "StoreConfig",
    "SweepConfig",
    "load_config",
)
_ENGINE_EXPORTS = ("Engine", "ExperimentResult", "SweepPoint")
_REPORT_EXPORTS = ("Report", "REPORT_TYPES", "report_type")

__all__ = [*_CONFIG_EXPORTS, *_ENGINE_EXPORTS, *_REPORT_EXPORTS, "registry"]


def __getattr__(name: str) -> Any:
    if name == "registry":
        # Populate the registries before handing the module out.
        from repro.api import components  # noqa: F401
        from repro.api import registry

        return registry
    if name in _CONFIG_EXPORTS:
        from repro.api import config

        return getattr(config, name)
    if name in _ENGINE_EXPORTS:
        from repro.api import engine

        return getattr(engine, name)
    if name in _REPORT_EXPORTS:
        # Importing the engine first guarantees every report type is
        # registered before anyone calls Report.from_dict.
        from repro.api import engine  # noqa: F401
        from repro.api import reports

        return getattr(reports, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
