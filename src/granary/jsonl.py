"""JSONL persistence with exact-key schema checks, and the atomic file writer."""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
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


def read_jsonl(path: str | Path, schema: tuple[str, ...] | None = None) -> list[dict]:
    """Read a JSONL file back into dicts; blank lines are skipped."""
    path = Path(path)
    records: list[dict] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolation(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if schema is not None:
                check_keys(rec, schema, f"{path}:{lineno}")
            records.append(rec)
    return records
