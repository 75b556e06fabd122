"""Every JSON input, parsed and typed in one place: ``from_json`` builds each
record and the config from its dataclass; JSONL key checks and the atomic
writer. Errors name the file and line, or the object and field."""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
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
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise SchemaViolation(f"{path}: invalid JSON: {exc}") from exc


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


def _exact(hint):
    """A test of a JSON value for ``hint``'s exact type: no bool is a number; a float is any finite int or float."""
    if isinstance(hint, types.UnionType):
        tests = [_exact(h) for h in typing.get_args(hint)]
        return lambda v: any(test(v) for test in tests)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        item = _exact(args[0])
        return lambda v: type(v) is list and all(map(item, v))
    if origin is dict:
        item = _exact(args[1])
        return lambda v: type(v) is dict and all(map(item, v.values()))
    if hint is float:
        return lambda v: type(v) in (float, int) and abs(v) <= sys.float_info.max
    return lambda v: type(v) is hint


@functools.cache
def _schema(cls) -> tuple[frozenset, dict, list[tuple]]:
    """``cls``'s field names, its required keys (in field order) and each field's name, exact-type test,
    conversion and expected type as errors word it; a dataclass field's test is None, its conversion its class."""
    hints, fields, readers = typing.get_type_hints(cls), dataclasses.fields(cls), []
    for f in fields:
        hint = hints[f.name]
        if dataclasses.is_dataclass(hint):
            readers.append((f.name, None, hint, None))
        elif isinstance(hint, type) and issubclass(hint, Enum):
            allowed = [member.value for member in hint]
            readers.append((f.name, allowed.__contains__, hint, f"one of {allowed}"))
        else:
            readers.append((f.name, _exact(hint), float if hint is float else None, f.type))
    required = dict.fromkeys(f.name for f in fields if f.default is dataclasses.MISSING is f.default_factory)
    return frozenset(f.name for f in fields), required, readers


def from_json(cls, data, where: str, key: str | None = None):
    """The dataclass ``cls`` from a JSON object, each given field checked against its annotation.

    SchemaViolation names ``where``, then the object's ``key`` value when
    a ``key`` is given, and the field. A dataclass field is read from its
    own object, an Enum field from its value, and an int given for a float
    field becomes that float, so both spellings hash alike. A class's
    annotations are resolved once, on its first read.
    """
    if not isinstance(data, dict):
        raise SchemaViolation(f"{where} must be a JSON object")
    where = where if key is None else f"{where} {data.get(key)!r}"
    names, required, readers = _schema(cls)
    if not names.issuperset(data):
        raise SchemaViolation(f"{where}: unknown keys {sorted(set(data) - names)}")
    if not data.keys() >= required.keys():
        raise SchemaViolation(f"{where}: missing keys {[name for name in required if name not in data]}")
    kwargs = {}
    for name, test, convert, expected in readers:
        if name in data:
            value = data[name]
            if test is None:
                value = from_json(convert, value, f"{where}.{name}")
            elif not test(value):
                raise SchemaViolation(f"{where}.{name}: expected {expected}, got {json.dumps(value)}")
            elif convert is not None:
                value = convert(value)
            kwargs[name] = value
    return cls(**kwargs)
