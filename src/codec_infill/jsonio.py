"""Every JSON file the package reads and writes, and the one way a malformed one fails.

A document that is not UTF-8, not JSON or not an object, and any
``CodecInfillError`` its ``parse`` raises, ends in a ``ConfigError``
naming the file (and for JSONL the line).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import types
import typing

from .errors import CodecInfillError, ConfigError

REQUIRED = object()


def _decode(raw: bytes, parse, where: str):
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError as err:  # a UnicodeDecodeError or a JSONDecodeError
        raise ConfigError(f"{where} is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} is a JSON {type(payload).__name__}, not an object")
    try:
        return parse(payload)
    except CodecInfillError as err:
        raise ConfigError(f"{where}: {err}") from err


def read_json(path, parse=dict):
    """``parse`` of the JSON object in ``path``; any malformation raises ConfigError naming the file."""
    with open(path, "rb") as fh:
        return _decode(fh.read(), parse, str(path))


def read_json_lines(path, parse, id_of=None) -> list:
    """``parse`` of each non-blank line's JSON object; errors, and a repeated ``id_of(item)``, name the file and line."""
    items, first = [], {}
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, start=1):
            if raw.strip():
                items.append(_decode(raw, parse, f"{path} line {n}"))
                item_id = id_of(items[-1]) if id_of else n  # a line number repeats no other
                if first.setdefault(item_id, n) != n:
                    raise ConfigError(f"{path} line {n}: id '{item_id}' repeats line {first[item_id]}")
    return items


def get_field(payload: dict, name: str, kind, default=REQUIRED, convert=None):
    """``payload[name]``, or ``default`` when absent; a missing or malformed field raises ConfigError.

    ``kind`` is ``int``, ``str``, ``[int]``, ``[str]`` or ``[[int]]``,
    checked, not converted: 1.7, "5" and true are no int, and 7 and null
    no str.  The items of a ``[[int]]`` may be ints, for ``convert`` to
    report the shape.  One pass of ``type`` per level keeps a corpus's
    frames cheap.  ``convert`` maps the checked value; its errors also
    name the field.
    """
    if name not in payload:
        if default is REQUIRED:
            raise ConfigError(f"missing field '{name}'")
        return default
    value = payload[name]
    leaves = lambda: (value,)
    if isinstance(kind, list):
        if type(value) is not list:
            kind = list  # the value itself is the bad item
        else:
            (kind,), leaves = kind, lambda: value
            if isinstance(kind, list):  # a list of lists, whose items may stop a level early
                (kind,) = kind
                if set(map(type, value)) <= {list}:
                    leaves = lambda: itertools.chain.from_iterable(value)
    if not set(map(type, leaves())) <= {kind}:
        bad = next(item for item in leaves() if type(item) is not kind)
        got = f"{type(bad).__name__} {bad!r}"
        raise ConfigError(f"field '{name}' is malformed: {got} where {kind.__name__} is needed")
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"field '{name}' is malformed: {err}") from err


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _line(payload) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def write_json_lines(path, payloads) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_line(payload) for payload in payloads)


def append_json_line(path, payload) -> None:
    """Add ``payload`` to the end of the JSONL file ``path`` as one compact line."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_line(payload))


def check_keys(payload: dict, known) -> dict:
    """``payload`` itself; a key of it outside ``known`` raises ConfigError naming the key."""
    for key in payload:
        if key not in known:
            raise ConfigError(f"unknown key '{key}'; the known keys are {', '.join(sorted(known))}")
    return payload


def config_from_json(cls, payload, section: str):
    """A ``cls`` config dataclass from its JSON object.

    An unknown field, a value not of its field's declared type (int,
    finite float, str, bool, ``tuple[X, ...]`` from a list, ``X | None``
    or a nested config) or a value the config rejects raises ConfigError
    naming the field.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"config section '{section}' is a JSON {type(payload).__name__}, not an object")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in payload.items():
        if key not in hints:
            raise ConfigError(f"unknown config field '{section}.{key}'")
        values[key] = _typed(hints[key], value, f"{section}.{key}")
    try:
        return cls(**values)
    except (CodecInfillError, TypeError, ValueError) as err:
        raise ConfigError(f"invalid config section '{section}': {err}") from err


def _typed(hint, value, name: str):
    """``value`` checked against the field type ``hint``; a JSON list becomes a tuple."""
    if dataclasses.is_dataclass(hint):
        return config_from_json(hint, value, name)
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None
        return None if value is None else _typed(args[0], value, name)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_typed(args[0], item, f"{name}[{i}]") for i, item in enumerate(value))
    elif isinstance(value, (int, float) if hint is float else hint) and isinstance(value, bool) == (hint is bool):
        if hint is float and (value != value or abs(value) > sys.float_info.max):  # NaN, Infinity, 1e999, 10**400
            raise ConfigError(f"config field '{name}' must be finite, not {value!r}")
        return value  # an int is a float, but a bool is no int
    expected = hint.__name__ if isinstance(hint, type) else hint
    raise ConfigError(f"config field '{name}' must be {expected}, not {type(value).__name__} {value!r}")


def config_to_json(cfg) -> dict:
    """The JSON object of a config dataclass, which ``config_from_json`` reads back."""
    return dataclasses.asdict(cfg)
