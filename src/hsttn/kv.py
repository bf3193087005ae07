"""Flat `key = value` text files used for schemas, run configs, and reports,
and the one table that reads a typed setting from them or a checkpoint header."""

from __future__ import annotations

from dataclasses import MISSING, Field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .errors import ConfigError, IngestError

_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


class FieldType(NamedTuple):
    parse: Callable | None  # file text -> value; KeyError or ValueError if bad
    expected: str | None  # what `parse` takes, for its error message
    holds: Callable | None  # whether a JSON value from a header is one


# each annotation of a file key or a header field; None where no file key
# or no header field has it. Bools are not ints in a header
FIELD_TYPES = {
    "int": FieldType(int, "an integer", lambda v: type(v) is int),
    "float": FieldType(float, "a number", lambda v: type(v) in (int, float)),
    "bool": FieldType(lambda raw: _BOOLEANS[raw.lower()], "a boolean",
                      lambda v: type(v) is bool),
    "tuple[int, ...]": FieldType(
        lambda raw: () if raw in ("", "none") else tuple(map(int, raw.split(","))),
        "comma-separated integers",
        lambda v: type(v) is list and all(type(p) is int for p in v)),
    "Optional[int]": FieldType(None, None, lambda v: v is None or type(v) is int),
    "str": FieldType(str, None, None),
    "Optional[str]": FieldType(lambda raw: None if raw.lower() in ("", "none") else raw,
                               None, None),
    "tuple[str, ...]": FieldType(
        lambda raw: tuple(c.strip() for c in raw.split(",") if c.strip()), None, None),
    "Path": FieldType(Path, None, None),
}


def parse_fields(source, entries: Mapping, fields: Mapping[str, Field],
                 header: bool = False) -> dict:
    """The values `entries` gives for `fields` (key -> dataclass field), by
    key. Text is parsed by annotation, else a `ConfigError`. A checkpoint
    `header` holds every field as a JSON value of its annotation (a list for
    a tuple), else an `IngestError`. Unknown keys, and absent fields without a
    default, are refused; other absent fields are left out."""
    error = IngestError if header else ConfigError
    if not isinstance(entries, dict):
        raise error(f"{source}: expected a table of keys")
    unknown = sorted(set(entries) - set(fields))
    if unknown:
        raise error(f"{source}: unknown key(s) {unknown}; known keys are {sorted(fields)}")
    values = {}
    for key, f in fields.items():
        if key not in entries:
            if header or (f.default is MISSING and f.default_factory is MISSING):
                raise error(f"{source}: missing required key {key!r}")
            continue
        kind, raw = FIELD_TYPES[f.type], entries[key]
        if header:
            if not kind.holds(raw):
                raise error(f"{source}: key {key!r} has the wrong type")
            values[key] = tuple(raw) if type(raw) is list else raw
            continue
        try:
            values[key] = kind.parse(raw)
        except (KeyError, ValueError):
            raise error(f"{source}: key {key!r} must be {kind.expected}, got {raw!r}") from None
    return values


def read_kv(path) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def write_kv(path, entries: dict[str, str], header: str | None = None) -> None:
    lines = []
    if header:
        lines.append(f"# {header}")
    for key, value in entries.items():
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
