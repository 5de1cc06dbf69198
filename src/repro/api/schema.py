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

Constraints are annotations too: :class:`Range` bounds a number (which
must then be finite), ``Literal`` lists choices, :class:`NonEmpty` refuses
an empty string or list; shared ones are named once below (``Positive``).
:func:`check` and :func:`checked` apply them to directly built objects,
and an :class:`Options` mapping is read through its factory's annotations.

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
import inspect
import math
import types
import typing
from typing import Annotated, Any, Callable, ClassVar, Literal, TypeVar

T = TypeVar("T")
_Init = TypeVar("_Init", bound=Callable[..., None])

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


@dataclasses.dataclass(frozen=True)
class Range:
    """Bounds a number must lie within; ``gt``/``lt`` exclude theirs."""

    gt: float | None = None
    ge: float | None = None
    lt: float | None = None
    le: float | None = None

    def contains(self, value: Any) -> bool:
        """Whether ``value`` is a finite number within the bounds."""
        return (
            is_finite(value)
            and (self.gt is None or value > self.gt)
            and (self.ge is None or value >= self.ge)
            and (self.lt is None or value < self.lt)
            and (self.le is None or value <= self.le)
        )

    def describe(self, base: Any) -> str:
        """What a value must be, as errors and the reference word it."""
        low = self.gt if self.gt is not None else self.ge
        high = self.lt if self.lt is not None else self.le
        if (low, high) == (0, None):
            words = "positive" if self.gt is not None else "non-negative"
            return words if base is int else f"a finite {words} number"
        if (low, high) == (None, None):
            return "a finite number"
        opening = "(" if self.ge is None else "["
        closing = ")" if self.le is None else "]"
        low, high = -math.inf if low is None else low, math.inf if high is None else high
        words = f"in {opening}{low:g}, {high:g}{closing}"
        return words if base is int else f"a finite number {words}"


class NonEmpty:
    """Marks a string or list that must not be empty."""


@dataclasses.dataclass(frozen=True)
class Options:
    """Marks an ``options`` mapping as a factory's keyword arguments.

    ``resolve(name)`` maps the section's ``name`` to the factory (None:
    unregistered, left to the build, as are unknown options).
    """

    resolve: Callable[[str], Any]


# The constraints configs share with the components they feed.
Finite = Annotated[float, Range()]
Positive = Annotated[float, Range(gt=0)]
NonNegative = Annotated[float, Range(ge=0)]
Fraction = Annotated[float, Range(gt=0, le=1)]
Amplitude = Annotated[float, Range(ge=0, lt=1)]
PositiveInt = Annotated[int, Range(gt=0)]
NonNegativeInt = Annotated[int, Range(ge=0)]
Name = Annotated[str, NonEmpty]
Resolutions = Annotated[tuple[PositiveInt, ...], NonEmpty]


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


def check(obj: Any, path: str = "") -> None:
    """Check a dataclass's constrained fields as :func:`decode` would (call it
    from ``__post_init__``); errors name the field, prefixed by ``path``."""
    for name, read in _readers(type(obj), constrained=True).items():
        read(getattr(obj, name), _join(path, name))
    for name, marker in _options_fields(type(obj)):
        _read_options(marker, obj.name, getattr(obj, name), _join(path, name))


def checked(init: _Init) -> _Init:
    """Check the constrained arguments a plain class's ``__init__`` is called
    with, as :func:`check` checks fields, naming the parameter."""
    names = tuple(inspect.signature(init).parameters)[1:]  # after self

    @functools.wraps(init)
    def checked_init(self: Any, *args: Any, **kwargs: Any) -> None:
        values = dict(zip(names, args), **kwargs)
        for name, read in _readers(init, constrained=True).items():
            if name in values:
                read(values[name], name)
        init(self, *args, **kwargs)

    return typing.cast(_Init, checked_init)


def describe(annotation: Any) -> str:
    """The constraint an annotation declares, in words (empty when none)."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is Literal:
        return _choices(args)
    if origin is Annotated:
        words = [text for _, text in _tests(args[0], annotation.__metadata__)]
        return "; ".join(word for word in (*words, describe(args[0])) if word)
    inner = [describe(arg) for arg in args if arg not in (type(None), Ellipsis)]
    if origin is dict or not any(inner):
        return ""
    return f"{inner[0]}, or null" if type(None) in args else f"each {inner[0]}"


def parameter_hints(factory: Any) -> dict[str, Any]:
    """A factory's parameter annotations, constraint markers included."""
    return _hints(_init(factory))


def _init(factory: Any) -> Any:
    return factory.__init__ if isinstance(factory, type) else factory


@functools.cache
def _hints(obj: Any) -> dict[str, Any]:
    """``obj``'s annotations, resolved once (callers must not change them)."""
    return typing.get_type_hints(obj, include_extras=True)


def _join(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


def _fail(path: str, expected: str, value: Any) -> typing.NoReturn:
    got = "null" if value is None else type(value).__name__
    raise ValueError(f"{path} must be {expected}, got {got}")


def _shown(value: Any) -> str:
    if isinstance(value, int) and not is_finite(value):
        return "an integer beyond the float range"
    return repr(value)


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
    if origin is Annotated:
        return _checked_reader(_reader(args[0]), _tests(args[0], annotation.__metadata__))
    if origin is Literal:
        return _checked_reader(_as_is, [(lambda data: data in args, _choices(args))])
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


def _tests(base: Any, markers: tuple) -> list[tuple[Callable[[Any], bool], str]]:
    """``(test, what a value must be)`` per constraint marker on ``base``."""
    return [
        (marker.contains, marker.describe(base))
        if isinstance(marker, Range)
        else (bool, "a non-empty string" if base is str else "a non-empty list")
        for marker in markers
        if isinstance(marker, Range) or marker is NonEmpty
    ]


def _choices(choices: tuple) -> str:
    return "one of " + ", ".join(repr(choice) for choice in choices)


def _checked_reader(read: _Reader, tests: list) -> _Reader:
    """``read``, then each ``(test, what the value must be)`` on the value."""

    def read_checked(data: Any, path: str) -> Any:
        value = read(data, path)
        for test, expected in tests:
            if not test(value):
                raise ValueError(f"{path} must be {expected}, got {_shown(value)}")
        return value

    return read_checked


def _scalar_reader(annotation: type) -> _Reader:
    accepted = (int, float) if annotation is float else annotation

    def read_scalar(data: Any, path: str) -> Any:
        # bool subclasses int: only a bool field takes true/false.
        if isinstance(data, bool) != (annotation is bool) or not isinstance(data, accepted):
            _fail(path, _SCALARS[annotation], data)
        if annotation is float and isinstance(data, int) and not is_finite(data):
            raise ValueError(
                f"{path} must be a finite number, got an integer beyond the float range"
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
            if int in (key_type, *typing.get_args(key_type)[:1]) and isinstance(key, str):
                # JSON keys are strings
                with contextlib.suppress(ValueError):
                    key = int(key)
            decoded[read_key(key, f"{path} key {key!r}")] = read_value(
                value, _join(path, key)
            )
        return decoded

    return read_dict


def _section_reader(cls: type) -> _Reader:
    hints = _hints(cls)
    fields = dataclasses.fields(cls)
    readers = {field.name: _reader(hints[field.name]) for field in fields}
    options = _options_fields(cls)
    default_name = next((field.default for field in fields if field.name == "name"), None)
    required = [
        field.name
        for field in fields
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    ]
    prepare = getattr(cls, "_prepare", None)
    kind = cls.kind if issubclass(cls, Tagged) else None

    def read_section(data: Any, path: str) -> Any:
        if isinstance(data, cls):  # already built, so already checked
            return data
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
        values = {key: readers[key](value, _join(path, key)) for key, value in data.items()}
        for key, marker in options:
            if key in values:
                section_name = values.get("name", default_name)
                _read_options(marker, section_name, values[key], _join(path, key))
        return cls(**values)

    return read_section


def _constrained(annotation: Any) -> bool:
    """Whether an annotation declares a range, a choice or a non-empty rule."""
    markers = getattr(annotation, "__metadata__", ())
    return (
        typing.get_origin(annotation) is Literal
        or any(isinstance(marker, Range) or marker is NonEmpty for marker in markers)
        or any(_constrained(arg) for arg in typing.get_args(annotation))
    )


@functools.cache
def _options_fields(cls: type) -> list[tuple[str, Options]]:
    hints = _hints(cls)
    return [
        (field.name, marker)
        for field in dataclasses.fields(cls)
        for marker in getattr(hints[field.name], "__metadata__", ())
        if isinstance(marker, Options)
    ]


@functools.cache
def _readers(owner: Any, constrained: bool) -> dict[str, _Reader]:
    """A reader per annotation of a class or function (constrained ones only, if so).

    An unconstrained parameter typed as a live object (a popularity model,
    a base process) has no plain form and gets no reader.
    """
    readers: dict[str, _Reader] = {}
    for name, annotation in _hints(owner).items():
        if _constrained(annotation):
            readers[name] = _reader(annotation)
        elif not constrained:
            with contextlib.suppress(TypeError):
                readers[name] = _reader(annotation)
    return readers


def _read_options(marker: Options, name: Any, options: dict, path: str) -> None:
    factory = marker.resolve(name)
    readers = _readers(_init(factory), constrained=False) if factory is not None else {}
    for key, value in options.items():
        if key in readers:
            readers[key](value, _join(path, key))
