"""Every bundled example config must load, validate, and be documented.

``examples/configs/`` is the public face of the facade — the README and
docs point users at these files — so each one is loaded through
``EngineConfig.from_dict`` (catching schema drift the moment a config
section changes), round-tripped, and cross-checked against the README's
config table.  An unknown key injected into any section of any example,
list elements included, must fail that load naming its dotted path.
Replay configs must also point at trace files that exist and parse.
"""

import dataclasses
import json
import types
import typing
from pathlib import Path

import pytest

from repro.api.config import EngineConfig
from repro.serving.traces import load_trace

REPO_ROOT = Path(__file__).resolve().parents[2]
CONFIG_DIR = REPO_ROOT / "examples" / "configs"
CONFIG_PATHS = sorted(CONFIG_DIR.glob("*.json"))


def config_ids():
    return [path.name for path in CONFIG_PATHS]


def test_the_config_directory_is_not_empty():
    assert CONFIG_PATHS, f"no example configs found under {CONFIG_DIR}"


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=config_ids())
def test_config_loads_and_validates(path):
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    config = EngineConfig.from_dict(data)
    assert config.serving is not None or config.experiment is not None, (
        f"{path.name} configures neither serving nor an experiment"
    )


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _sections(annotation, value, keys=(), path=""):
    """``(keys, dotted path)`` of every mapping in ``value`` read as a section.

    Walks the data beside the config classes' annotations: a dataclass is a
    section, ``X | None`` and ``tuple[X, ...]`` are followed, and free-form
    mappings (``options``, ``overrides``, the sweep grid) are not.  A
    mapping the class's ``_prepare`` rewrites (the bare sweep grid) is
    read as that rewrite, not as written, so it is not a section either.
    """
    args = [arg for arg in typing.get_args(annotation) if arg is not type(None)]
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        annotation = args[0]
    if dataclasses.is_dataclass(annotation) and isinstance(value, dict):
        prepare = getattr(annotation, "_prepare", None)
        if prepare is not None and prepare(value) is not value:
            return
        yield keys, path
        hints = typing.get_type_hints(annotation)
        for field in dataclasses.fields(annotation):
            if field.name in value:
                yield from _sections(
                    hints[field.name],
                    value[field.name],
                    keys + (field.name,),
                    _join(path, field.name),
                )
    elif typing.get_origin(annotation) is tuple and isinstance(value, list):
        for index, item in enumerate(value):
            yield from _sections(args[0], item, keys + (index,), f"{path}[{index}]")


SECTIONS = [
    pytest.param(path, keys, dotted, id=f"{path.stem}:{dotted or '(root)'}")
    for path in CONFIG_PATHS
    for keys, dotted in _sections(EngineConfig, json.loads(path.read_text(encoding="utf-8")))
]


def test_the_walk_reaches_every_kind_of_section():
    reached = {(path.stem, dotted) for path, _, dotted in (case.values for case in SECTIONS)}
    for expected in (
        ("fig2", ""),
        ("fig2", "experiment"),
        ("serving_bursty", "policy.adaptive"),
        ("serving_diurnal", "serving.arrivals.diurnal"),
        ("serving_diurnal", "serving.arrivals.popularity"),
        ("serving_chaos", "serving.fleet"),
        ("serving_chaos", "serving.fleet.faults[0]"),
        ("serving_autoscale", "serving.fleet.autoscale"),
        ("sweep_policy_grid", "sweep"),
        ("sweep_policy_grid", "sweep.objectives[0]"),
    ):
        assert expected in reached


@pytest.mark.parametrize("path, keys, dotted", SECTIONS)
def test_an_unknown_key_in_any_section_fails_at_load_naming_its_path(path, keys, dotted):
    data = json.loads(path.read_text(encoding="utf-8"))
    section = data
    for key in keys:
        section = section[key]
    section["bogus"] = 1
    with pytest.raises(ValueError) as error:
        EngineConfig.from_dict(data)
    named = [word.strip(",;:") for word in str(error.value).split()]
    assert _join(dotted, "bogus") in named


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=config_ids())
def test_config_round_trips(path):
    with open(path, "r", encoding="utf-8") as handle:
        config = EngineConfig.from_dict(json.load(handle))
    assert EngineConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=config_ids())
def test_config_is_listed_in_the_readme_table(path):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert path.name in readme, (
        f"{path.name} is missing from the README's example-config table"
    )


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=config_ids())
def test_replay_configs_point_at_existing_traces(path):
    with open(path, "r", encoding="utf-8") as handle:
        config = EngineConfig.from_dict(json.load(handle))
    serving = config.serving
    if serving is None or serving.arrivals.name != "replay":
        pytest.skip("not a replay config")
    trace_path = REPO_ROOT / serving.arrivals.trace_path
    assert trace_path.exists(), f"{path.name} references missing {trace_path}"
    assert load_trace(str(trace_path)), "bundled trace must parse"
