"""Every JSON file the package reads and writes, and the one way a malformed one fails.

A document that is not UTF-8, not JSON or not an object, and any
``CodecInfillError`` its ``parse`` raises, ends in a ``ConfigError``
naming the file (and for JSONL the line).
"""

from __future__ import annotations

import dataclasses
import json

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


def read_json_lines(path, parse) -> list:
    """``parse`` of each non-blank line's JSON object; errors name the file and line."""
    with open(path, "rb") as fh:
        return [_decode(raw, parse, f"{path} line {n}") for n, raw in enumerate(fh, start=1) if raw.strip()]


def get_field(payload: dict, name: str, convert, default=REQUIRED):
    """``convert(payload[name])``, or ``default`` when absent; a missing or malformed field raises ConfigError."""
    if name not in payload:
        if default is REQUIRED:
            raise ConfigError(f"missing field '{name}'")
        return default
    try:
        return convert(payload[name])
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"field '{name}' is malformed: {err}") from err


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_json_lines(path, payloads) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for payload in payloads:
            fh.write(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")


def config_from_json(cls, payload, section: str):
    """A ``cls`` config dataclass from its JSON object; unknown or invalid fields raise ConfigError."""
    if not isinstance(payload, dict):
        raise ConfigError(f"config section '{section}' is a JSON {type(payload).__name__}, not an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values = {}
    for key, value in payload.items():
        if key not in fields:
            raise ConfigError(f"unknown config field '{section}.{key}'")
        spec = fields[key]
        if dataclasses.is_dataclass(spec.default_factory):
            value = config_from_json(spec.default_factory, value, f"{section}.{key}")
        elif isinstance(spec.default, tuple) and isinstance(value, list):
            value = tuple(value)
        values[key] = value
    try:
        return cls(**values)
    except (CodecInfillError, TypeError, ValueError) as err:
        raise ConfigError(f"invalid config section '{section}': {err}") from err


def config_to_json(cfg) -> dict:
    """The JSON object of a config dataclass, which ``config_from_json`` reads back."""
    return dataclasses.asdict(cfg)
