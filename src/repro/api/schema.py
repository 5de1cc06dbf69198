"""One codec between plain JSON data and the frozen dataclasses.

Configs (:mod:`repro.api.config`) and reports (:mod:`repro.api.reports`)
are frozen dataclasses, and their field annotations are their only
schema.  :func:`encode` turns one into plain dicts, lists and scalars;
:func:`decode` reads such data back field by field from the annotations:

* a dataclass annotation is a section: a mapping keyed by the class's
  field names, where an unknown key or a missing required field is an
  error;
* ``X | None`` also accepts ``null``; ``tuple[X, ...]`` reads a list into
  a tuple; ``dict[int, V]`` turns JSON's string keys back into ``int``
  keys; a bare ``dict`` or ``list`` is free-form;
* scalars keep their JSON type: a ``float`` field accepts an integer
  without converting it (so it must be one a float can hold), and an
  ``int`` field rejects floats and booleans.

Every error is a :class:`ValueError` naming the dotted path of the
offending value (``serving.fleet.faults[0].name``), so a bad config file
fails at load with the field it is about.  Subclasses of :class:`Tagged`
carry their ``kind`` in their plain form, and a class may define a
``_prepare(data)`` classmethod that rewrites a legacy input shape before
its fields are read.

Like :mod:`repro.api.registry`, this module imports nothing from the rest
of ``repro``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import types
import typing
from typing import Any, Callable, ClassVar, TypeVar

T = TypeVar("T")

#: A decode step: ``(data, dotted path) -> value``.
_Reader = Callable[[Any, str], Any]

#: The scalar annotations, as errors name them.
_SCALARS = {str: "a string", bool: "a boolean", int: "an integer", float: "a number"}


class Tagged:
    """A dataclass whose plain form carries its class's ``kind`` tag."""

    kind: ClassVar[str]


def is_finite(value: Any) -> bool:
    """Whether ``value`` is a finite int or float.

    NaN passes every ``<`` check, and ``math.isfinite`` raises on an int
    beyond the float range (JSON carries ``10**400`` as an int), so range
    checks on outside input test finiteness through here first.
    """
    if not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def encode(value: Any) -> Any:
    """``value`` as plain JSON data: dataclasses become dicts, tuples lists."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        data = {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {"kind": value.kind, **data} if isinstance(value, Tagged) else data
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    return value


def decode(cls: type[T], data: Any, path: str = "") -> T:
    """Read plain ``data`` into ``cls``, checking it against the annotations.

    ``path`` is the dotted location of ``data`` (empty at the root); a
    malformed value raises a :class:`ValueError` naming its full path.
    """
    return _reader(cls)(data, path)


def _join(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


def _fail(path: str, expected: str, value: Any) -> typing.NoReturn:
    got = "null" if value is None else type(value).__name__
    raise ValueError(f"{path} must be {expected}, got {got}")


def _as_is(data: Any, path: str) -> Any:
    return data


def _read_mapping(data: Any, path: str) -> dict:
    if not isinstance(data, dict):
        _fail(path, "a mapping", data)
    return data


@functools.cache
def _reader(annotation: Any) -> _Reader:
    """The decode step for one annotation, built once and reused."""
    if dataclasses.is_dataclass(annotation):
        return _section_reader(annotation)
    origin, args = typing.get_origin(annotation) or annotation, typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _reader(args[0] if args[1] is type(None) else args[1])
        return lambda data, path: None if data is None else inner(data, path)
    if origin is tuple and args[1:] == (Ellipsis,):
        return _sequence_reader(_reader(args[0]), tuple)
    if origin is list:
        return _sequence_reader(_reader(args[0]) if args else _as_is, list)
    if origin is dict:
        return _dict_reader(*args) if args else _read_mapping
    if annotation in _SCALARS:
        return _scalar_reader(annotation)
    raise TypeError(f"the config/report codec cannot read annotation {annotation!r}")


def _scalar_reader(annotation: type) -> _Reader:
    accepted = (int, float) if annotation is float else annotation

    def read_scalar(data: Any, path: str) -> Any:
        # bool subclasses int: only a bool field takes true/false.
        if isinstance(data, bool) != (annotation is bool) or not isinstance(data, accepted):
            _fail(path, _SCALARS[annotation], data)
        if annotation is float and isinstance(data, int) and not is_finite(data):
            raise ValueError(
                f"{path} must be a number within the float range, got an integer beyond it"
            )
        return data

    return read_scalar


def _sequence_reader(read_item: _Reader, container: type) -> _Reader:
    def read_sequence(data: Any, path: str) -> Any:
        if not isinstance(data, (list, tuple)):
            _fail(path, "a list", data)
        return container(read_item(item, f"{path}[{i}]") for i, item in enumerate(data))

    return read_sequence


def _dict_reader(key_type: type, value_type: Any) -> _Reader:
    read_key, read_value = _reader(key_type), _reader(value_type)

    def read_dict(data: Any, path: str) -> dict:
        decoded: dict = {}
        for key, value in _read_mapping(data, path).items():
            if key_type is int and isinstance(key, str):  # JSON keys are strings
                with contextlib.suppress(ValueError):
                    key = int(key)
            decoded[read_key(key, f"{path} key {key!r}")] = read_value(
                value, _join(path, key)
            )
        return decoded

    return read_dict


def _section_reader(cls: type) -> _Reader:
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    readers = {field.name: _reader(hints[field.name]) for field in fields}
    required = [
        field.name
        for field in fields
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    ]
    prepare = getattr(cls, "_prepare", None)
    kind = cls.kind if issubclass(cls, Tagged) else None

    def read_section(data: Any, path: str) -> Any:
        if prepare is not None:
            data = prepare(data)
        if not isinstance(data, dict):
            _fail(path or cls.__name__, "a mapping of section fields", data)
        if kind is not None and "kind" in data:
            if data["kind"] != kind:
                raise ValueError(
                    f"{path or cls.__name__} must be a {kind!r} report, "
                    f"got kind {data['kind']!r}"
                )
            data = {key: value for key, value in data.items() if key != "kind"}
        unknown = sorted(str(key) for key in data if key not in readers)
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} field(s): "
                f"{', '.join(_join(path, key) for key in unknown)}; "
                f"known fields: {', '.join(sorted(readers))}"
            )
        missing = [_join(path, name) for name in required if name not in data]
        if missing:
            raise ValueError(
                f"missing required {cls.__name__} field(s): {', '.join(missing)}"
            )
        return cls(
            **{name: readers[name](value, _join(path, name)) for name, value in data.items()}
        )

    return read_section
