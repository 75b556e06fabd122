"""Every JSON input, parsed and typed in one place; JSONL with exact-key
schema checks, and the atomic file writer. Errors name the file and line,
or the object and field."""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import types
import typing
from collections.abc import Iterator
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from typing import IO

from .errors import SchemaViolation

# The encoder behind every JSONL line the package writes; json.dumps(rec, ensure_ascii=False)
# would build a new one per call.
LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)


def check_keys(rec: dict, schema: tuple[str, ...], where: str) -> None:
    if not isinstance(rec, dict):
        raise SchemaViolation(f"{where}: record must be a JSON object, got {json.dumps(rec, default=repr)}")
    keys, want = set(rec), set(schema)
    if keys != want:
        missing = sorted(want - keys)
        extra = sorted(keys - want)
        raise SchemaViolation(
            f"{where}: record keys do not match schema"
            f" (missing={missing}, unknown={extra})"
        )


_TYPE_WORDS = {str: "a string", int: "an integer", list: "a list", type(None): "null"}


def check_types(rec: dict, types: dict[str, tuple[type, ...]], where: str, id_key: str) -> None:
    """SchemaViolation naming the record by ``where`` and its ``id_key`` value, and the first
    field whose exact type (a bool is no integer) is not among its ``types``; cheaper than ``from_json``."""
    for name, allowed in types.items():
        if type(rec[name]) not in allowed:
            wanted = " or ".join(_TYPE_WORDS[t] for t in allowed)
            raise SchemaViolation(f"{where} {rec[id_key]!r}: {name} must be {wanted}, got {type(rec[name]).__name__}")


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a sibling ``.tmp`` file (``mode`` "w" for UTF-8 text, "wb" for bytes).

    It replaces ``path`` only once the block ends without an error, so a
    failure leaves the old file as it was, and removes the ``.tmp`` file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: list[dict], schema: tuple[str, ...] | None = None) -> None:
    """Write one compact JSON object per line through ``atomic_write``.

    Keys are validated when a schema is given.
    """
    with atomic_write(path) as fh:
        for i, rec in enumerate(records):
            if schema is not None:
                check_keys(rec, schema, f"{path}:{i + 1}")
            fh.write(LINE_ENCODER.encode(rec))
            fh.write("\n")


def parse_json(text: str | bytes, message: str):
    """One JSON document; a malformed one raises SchemaViolation with ``message``, then the parser's own."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError from bytes
        raise SchemaViolation(f"{message}: {exc}") from exc


def read_json(path: str | Path):
    """A UTF-8 file's JSON document; SchemaViolation names the file, and the line when it is malformed."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"{path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path}:{exc.lineno}: invalid JSON: {exc}") from exc


def read_jsonl(path: str | Path, schema: tuple[str, ...] | None = None) -> list[dict]:
    """Read a JSONL file back into dicts; blank lines are skipped."""
    records: list[dict] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                rec = parse_json(line, f"{path}:{lineno}: invalid JSON")
                if schema is not None:
                    check_keys(rec, schema, f"{path}:{lineno}")
                records.append(rec)
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"{path} is not valid UTF-8: {exc}") from exc
    return records


# Resolving a class's annotations costs more than checking one object against them.
_hints = functools.cache(typing.get_type_hints)


def _fits(value, hint) -> bool:
    """Whether a JSON value has an annotation's type; a bool is never a number."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, typing.get_args(hint)[0]) for v in value)
    if typing.get_origin(hint) is dict:
        return isinstance(value, dict) and all(_fits(v, typing.get_args(hint)[1]) for v in value.values())
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def from_json(cls, data, where: str):
    """The dataclass ``cls`` from a JSON object, each given field checked against its annotation.

    SchemaViolation names ``where`` and the field. A dataclass field is
    read from its own object, an Enum field from its value, and an int
    given for a float field becomes that float, so both spellings hash
    alike.
    """
    if not isinstance(data, dict):
        raise SchemaViolation(f"{where} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise SchemaViolation(f"{where}: unknown keys {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in data and f.default is dataclasses.MISSING is f.default_factory]
    if missing:
        raise SchemaViolation(f"{where}: missing keys {missing}")
    hints, kwargs = _hints(cls), {}
    for f in fields:
        if f.name not in data:
            continue
        value, hint = data[f.name], hints[f.name]
        if dataclasses.is_dataclass(hint):
            value = from_json(hint, value, f"{where}.{f.name}")
        elif isinstance(hint, type) and issubclass(hint, Enum):
            allowed = [member.value for member in hint]
            if value not in allowed:
                raise SchemaViolation(f"{where}.{f.name}: expected one of {allowed}, got {json.dumps(value)}")
            value = hint(value)
        elif not _fits(value, hint):
            raise SchemaViolation(f"{where}.{f.name}: expected {f.type}, got {json.dumps(value)}")
        kwargs[f.name] = float(value) if hint is float else value
    return cls(**kwargs)
